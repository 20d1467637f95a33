//! Shared token-scan machinery for the source engine and the deep pass.
//!
//! Both the per-file source rules ([`crate::source`]) and the call-graph
//! extractor ([`crate::graph`]) walk the same spanned token streams and
//! need the same three services: structured navigation (matching brackets,
//! item extents), *test-region* detection (anything under a `test`
//! attribute is exempt from production rules), and *allow-annotation*
//! parsing (`// smn-lint: allow(rule) -- reason`). Keeping them here means
//! the deep pass cannot drift from the waiver semantics the per-file
//! engine already enforces.

use syn::Token;

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

/// A problem found while parsing annotations (fed back as findings by the
/// source engine; the deep pass ignores them — they are already reported).
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

/// Index of the next non-comment token at or after `idx`.
#[must_use]
pub fn next_code(tokens: &[Token], idx: usize) -> Option<usize> {
    tokens.iter().enumerate().skip(idx).find(|(_, t)| !t.is_comment()).map(|(i, _)| i)
}

/// Index of the closing token matching the opener at `open` (`open_ch`
/// opens, `close_ch` closes). Returns `None` when unbalanced or `open`
/// does not hold `open_ch`.
#[must_use]
pub fn matching(tokens: &[Token], open: usize, open_ch: char, close_ch: char) -> Option<usize> {
    if !tokens.get(open)?.is_punct(open_ch) {
        return None;
    }
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_ch) {
            depth += 1;
        } else if t.is_punct(close_ch) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Last token index (inclusive) of the item starting at `start`: the
/// matching close of its first top-level `{`, or its first top-level `;`,
/// whichever comes first.
#[must_use]
pub fn item_extent(tokens: &[Token], start: usize) -> usize {
    let mut k = start;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('{') {
            return syn::matching_close(tokens, k).unwrap_or(tokens.len().saturating_sub(1));
        }
        if t.is_punct(';') {
            return k;
        }
        k += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Token-index ranges (inclusive) that sit under a `test` attribute
/// (`#[test]`, `#[cfg(test)]`, …, but not `#[cfg(not(test))]`).
#[must_use]
pub fn collect_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut idx = 0usize;
    while idx < tokens.len() {
        if !tokens[idx].is_punct('#') {
            idx += 1;
            continue;
        }
        let Some(open) = next_code(tokens, idx + 1) else { break };
        if !tokens[open].is_punct('[') {
            idx += 1;
            continue;
        }
        let Some(close) = matching(tokens, open, '[', ']') else { break };
        let attr = &tokens[open + 1..close];
        let has = |name: &str| attr.iter().any(|t| t.is_ident(name));
        if has("test") && !has("not") {
            let start = next_code(tokens, close + 1).unwrap_or(close);
            let end = item_extent(tokens, start);
            ranges.push((idx, end));
            idx = end + 1;
        } else {
            idx = close + 1;
        }
    }
    ranges
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

    #[test]
    fn matching_parens_and_brackets() {
        let t = toks("f(a, (b, c))[0]");
        assert!(t[matching(&t, 1, '(', ')').unwrap()].is_punct(')'));
        let open_sq = t.iter().position(|x| x.is_punct('[')).unwrap();
        assert!(t[matching(&t, open_sq, '[', ']').unwrap()].is_punct(']'));
        assert_eq!(matching(&t, 0, '(', ')'), None);
    }

    #[test]
    fn test_ranges_cover_mod_blocks() {
        let t = toks("#[cfg(test)]\nmod tests { fn f() {} }\nfn live() {}");
        let ranges = collect_test_ranges(&t);
        assert_eq!(ranges.len(), 1);
        let live = t.iter().position(|x| x.is_ident("live")).unwrap();
        assert!(ranges.iter().all(|&(s, e)| live < s || live > e));
    }

    #[test]
    fn allow_collection_validates_rules() {
        let t = toks("// smn-lint: allow(panic/unwrap) -- fine\nfn f() {}\n// smn-lint: allow(bogus) -- x\nfn g() {}");
        let known = |r: &str| r == "panic/unwrap";
        let (allows, issues) = collect_allows(&t, &known);
        assert_eq!(allows.len(), 1);
        assert!(allowed(&allows, "panic/unwrap", 2));
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].kind, AllowIssueKind::UnknownRule);
    }
}
