//! Token-scan machinery for the deep pass's call-graph extractor
//! ([`crate::graph`]): structured navigation (matching brackets, item
//! extents) and *test-region* detection (anything under a `test`
//! attribute is exempt from production rules). The waivers written in
//! the source are parsed by [`crate::source`].

use syn::Token;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{allowed, collect_allows, AllowIssueKind};

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
