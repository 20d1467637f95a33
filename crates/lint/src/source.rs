//! Waivers written in the source, in the two forms the deep pass
//! honours: `// smn-lint: allow(rule) -- reason` annotations, which waive
//! deep-pass rules over a line, an item or a whole file, and the clippy
//! lint waivers (`#[expect(clippy::lint, reason = "…")]`) that bless a
//! panic site.

use syn::Token;

use crate::scan::{item_extent, matching, next_code};

/// One allow annotation's effect: `rule` waived on lines `start..=end`.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The waived rule id (or `"all"`).
    pub rule: String,
    /// First covered line (1-based, inclusive).
    pub start: u32,
    /// Last covered line (inclusive).
    pub end: u32,
}

/// A problem found while parsing annotations (reported by the deep pass
/// as an `annotation/*` finding).
#[derive(Debug, Clone)]
pub struct AllowIssue {
    /// Which annotation rule fired: `missing-reason` or `unknown-rule`.
    pub kind: AllowIssueKind,
    /// Line of the annotation comment.
    pub line: u32,
    /// Column of the annotation comment.
    pub col: u32,
    /// Human message.
    pub message: String,
}

/// The two ways an annotation itself can be wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllowIssueKind {
    /// `allow(...)` without a `-- reason` tail.
    MissingReason,
    /// Unparseable annotation or a rule id that does not exist.
    UnknownRule,
}

/// If `comment` is an smn-lint annotation, the text after the marker.
pub fn annotation_body(comment: &str) -> Option<&str> {
    let body = ["/*!", "/**", "/*", "//!", "///", "//"]
        .iter()
        .find_map(|p| comment.strip_prefix(p))
        .unwrap_or(comment);
    body.trim_start().strip_prefix("smn-lint:").map(str::trim)
}

/// Parse `allow(rule, ...) -- reason`: the rule list and whether a
/// non-empty reason is present.
pub fn parse_allow(body: &str) -> Result<(Vec<String>, bool), String> {
    let rest = body
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('('))
        .ok_or_else(|| format!("unparseable smn-lint annotation: `{body}`"))?;
    let close =
        rest.find(')').ok_or_else(|| format!("unparseable smn-lint annotation: `{body}`"))?;
    let rules: Vec<String> =
        rest[..close].split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
    if rules.is_empty() {
        return Err("allow annotation lists no rules".to_string());
    }
    let tail = rest[close + 1..].trim_start().trim_end_matches("*/").trim();
    let reason_ok = tail.strip_prefix("--").is_some_and(|r| !r.trim().is_empty());
    Ok((rules, reason_ok))
}

/// Collect every allow annotation in `tokens`, validating rule names via
/// `known_rule`. Reasonless allows are reported and waive nothing.
pub fn collect_allows(
    tokens: &[Token],
    known_rule: &dyn Fn(&str) -> bool,
) -> (Vec<Allow>, Vec<AllowIssue>) {
    let mut allows = Vec::new();
    let mut issues = Vec::new();
    for (idx, tok) in tokens.iter().enumerate() {
        if !tok.is_comment() {
            continue;
        }
        let Some(body) = annotation_body(&tok.text) else { continue };
        let line = tok.span.line;
        let (rules, reason_ok) = match parse_allow(body) {
            Ok(parsed) => parsed,
            Err(msg) => {
                issues.push(AllowIssue {
                    kind: AllowIssueKind::UnknownRule,
                    line,
                    col: tok.span.col,
                    message: msg,
                });
                continue;
            }
        };
        if !reason_ok {
            issues.push(AllowIssue {
                kind: AllowIssueKind::MissingReason,
                line,
                col: tok.span.col,
                message: "allow annotation without a `-- reason`".to_string(),
            });
        }
        let (start, end) = allow_extent(tokens, idx, tok);
        for rule in rules {
            if !known_rule(&rule) {
                issues.push(AllowIssue {
                    kind: AllowIssueKind::UnknownRule,
                    line,
                    col: tok.span.col,
                    message: format!("allow annotation names unknown rule `{rule}`"),
                });
                continue;
            }
            // A reasonless allow still suppresses nothing: the waiver only
            // takes effect once it carries its justification.
            if reason_ok {
                allows.push(Allow { rule, start, end });
            }
        }
    }
    (allows, issues)
}

/// Line range an annotation at token `idx` covers: its own line for a
/// trailing comment, the next item for a standalone one, the whole file
/// for a `//!` inner comment.
fn allow_extent(tokens: &[Token], idx: usize, tok: &Token) -> (u32, u32) {
    if tok.is_inner_doc() {
        return (1, u32::MAX);
    }
    let trailing = tokens[..idx]
        .iter()
        .rev()
        .take_while(|t| t.span.line == tok.span.line)
        .any(|t| !t.is_comment());
    if trailing {
        return (tok.span.line, tok.span.line);
    }
    match next_code(tokens, idx + 1) {
        Some(next) => {
            let end_idx = item_extent(tokens, next);
            let end_line = tokens.get(end_idx).map_or(tok.span.line, |t| t.span.line);
            (tok.span.line, end_line.max(tok.span.line))
        }
        None => (tok.span.line, tok.span.line),
    }
}

/// Lint waivers written as attributes: each outer `#[allow(..)]` or
/// `#[expect(..)]` that gives a `reason` waives the `clippy::` lints it
/// names over the item it sits on, as rules named `clippy::<lint>`.
#[must_use]
pub fn collect_lint_waivers(tokens: &[Token]) -> Vec<Allow> {
    let mut waivers = Vec::new();
    for (idx, tok) in tokens.iter().enumerate() {
        if !tok.is_punct('#') {
            continue;
        }
        // `matching` refuses an `open` that does not hold `[`, so inner
        // attributes (`#![..]`) are skipped here.
        let Some(open) = next_code(tokens, idx + 1) else { break };
        let Some(close) = matching(tokens, open, '[', ']') else { continue };
        let attr = tokens.get(open + 1..close).unwrap_or_default();
        let waiver = attr.first().is_some_and(|t| t.is_ident("allow") || t.is_ident("expect"));
        if !waiver || !attr.iter().any(|t| t.is_ident("reason")) {
            continue;
        }
        let end = next_code(tokens, close + 1).map_or(close, |next| item_extent(tokens, next));
        let (start, end) = (tok.span.line, tokens.get(end).map_or(tok.span.line, |t| t.span.line));
        for w in attr.windows(4) {
            if let [krate, c1, c2, lint] = w {
                if krate.is_ident("clippy") && c1.is_punct(':') && c2.is_punct(':') {
                    waivers.push(Allow { rule: format!("clippy::{}", lint.text), start, end });
                }
            }
        }
    }
    waivers
}

/// True when `rule` is waived for `line` by any of `allows`.
#[must_use]
pub fn allowed(allows: &[Allow], rule: &str, line: u32) -> bool {
    allows.iter().any(|a| (a.rule == rule || a.rule == "all") && a.start <= line && line <= a.end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        syn::parse_file(src).expect("lex").tokens
    }

    fn allows_of(src: &str) -> Vec<Allow> {
        let (allows, issues) = collect_allows(&toks(src), &crate::config::known_rule);
        assert!(issues.is_empty(), "{issues:?}");
        allows
    }

    #[test]
    fn trailing_allow_waives_one_line() {
        let allows = allows_of(
            "fn f() {\n    g(); // smn-lint: allow(deep/unresolved-call) -- dispatched by name\n    \
             g();\n}\n",
        );
        assert!(allowed(&allows, "deep/unresolved-call", 2));
        assert!(!allowed(&allows, "deep/unresolved-call", 3));
        assert!(!allowed(&allows, "deep/panic-reachability", 2));
    }

    #[test]
    fn standalone_allow_covers_next_item() {
        let allows = allows_of(
            "// smn-lint: allow(deep/panic-reachability) -- join only fails on poisoned threads\n\
             fn f() {\n    g();\n}\nfn h() {}\n",
        );
        assert!((1..=4).all(|line| allowed(&allows, "deep/panic-reachability", line)));
        assert!(!allowed(&allows, "deep/panic-reachability", 5));
    }

    #[test]
    fn inner_doc_allow_covers_whole_file() {
        let allows = allows_of(
            "//! smn-lint: allow(deep/determinism-taint) -- bench timing is wall time\n\
             fn a() {}\nfn b() {}\n",
        );
        assert!(allowed(&allows, "deep/determinism-taint", 2));
        assert!(allowed(&allows, "deep/determinism-taint", 3));
    }

    #[test]
    fn lint_waivers_need_a_reason_and_cover_their_item() {
        let t = toks(
            "#[must_use]\n#[expect(clippy::panic, reason = \"documented\")]\npub fn f() {\n    panic!()\n}\n\
             #[allow(clippy::unwrap_used)]\nfn g() {}\n",
        );
        let w = collect_lint_waivers(&t);
        assert_eq!(w.len(), 1);
        assert!(allowed(&w, "clippy::panic", 4));
        assert!(!allowed(&w, "clippy::panic", 6));
    }
}
