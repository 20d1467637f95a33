//! JSON span location: map a path like `graph.edges[3].dst` back to the
//! `line:col` where that value starts in the source text.
//!
//! The vendored `serde_json` parses into a span-less [`serde::Value`], so
//! artifact diagnostics re-walk the raw text along the already-validated
//! path. The walker only needs to *skip* well-formed JSON, never interpret
//! it; on any malformed input it returns `None` and the diagnostic falls
//! back to a file-level span.

pub use smn_topology::artifact::{render_path, Step};

/// `(line, col)` (1-based) where the value addressed by `path` starts in
/// `src`, or `None` when the path does not resolve.
#[must_use]
pub fn locate(src: &str, path: &[Step]) -> Option<(u32, u32)> {
    let mut w = Walker { chars: src.chars().collect(), pos: 0, line: 1, col: 1 };
    w.walk(path)
}

struct Walker {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Walker {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.bump();
        }
    }

    fn eat(&mut self, c: char) -> Option<()> {
        self.skip_ws();
        (self.peek() == Some(c)).then(|| {
            self.bump();
        })
    }

    /// Consume a string literal, returning its unescaped content.
    fn string(&mut self) -> Option<String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                '"' => return Some(out),
                '\\' => {
                    // Escapes only need length-accurate handling here; the
                    // content is used for key comparison, so decode the
                    // simple ones and keep \u escapes verbatim.
                    match self.bump()? {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            out.push('\\');
                            out.push('u');
                            for _ in 0..4 {
                                out.push(self.bump()?);
                            }
                        }
                        c => out.push(c),
                    }
                }
                c => out.push(c),
            }
        }
    }

    /// Skip one complete JSON value of any shape.
    fn skip_value(&mut self) -> Option<()> {
        self.skip_ws();
        match self.peek()? {
            '"' => {
                self.string()?;
            }
            '{' => {
                self.bump();
                self.skip_ws();
                if self.peek() == Some('}') {
                    self.bump();
                    return Some(());
                }
                loop {
                    self.string()?;
                    self.eat(':')?;
                    self.skip_value()?;
                    self.skip_ws();
                    match self.bump()? {
                        ',' => self.skip_ws(),
                        '}' => return Some(()),
                        _ => return None,
                    }
                }
            }
            '[' => {
                self.bump();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.bump();
                    return Some(());
                }
                loop {
                    self.skip_value()?;
                    self.skip_ws();
                    match self.bump()? {
                        ',' => {}
                        ']' => return Some(()),
                        _ => return None,
                    }
                }
            }
            _ => {
                // Scalar: number / true / false / null.
                while self
                    .peek()
                    .is_some_and(|c| !c.is_whitespace() && !matches!(c, ',' | ']' | '}'))
                {
                    self.bump();
                }
            }
        }
        Some(())
    }

    fn walk(&mut self, path: &[Step]) -> Option<(u32, u32)> {
        self.skip_ws();
        let Some(step) = path.first() else {
            return Some((self.line, self.col));
        };
        match step {
            Step::Key(wanted) => {
                self.eat('{')?;
                self.skip_ws();
                if self.peek() == Some('}') {
                    return None;
                }
                loop {
                    let key = self.string()?;
                    self.eat(':')?;
                    if key == *wanted {
                        return self.walk(&path[1..]);
                    }
                    self.skip_value()?;
                    self.skip_ws();
                    match self.bump()? {
                        ',' => self.skip_ws(),
                        _ => return None,
                    }
                }
            }
            Step::Idx(wanted) => {
                self.eat('[')?;
                self.skip_ws();
                if self.peek() == Some(']') {
                    return None;
                }
                let mut i = 0usize;
                loop {
                    if i == *wanted {
                        return self.walk(&path[1..]);
                    }
                    self.skip_value()?;
                    self.skip_ws();
                    match self.bump()? {
                        ',' => i += 1,
                        _ => return None,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "kind": "cdg",
  "graph": {
    "nodes": [1, 2, 3],
    "edges": [
      {"src": 0, "dst": 9}
    ]
  }
}"#;

    #[test]
    fn locates_nested_members() {
        let p = vec![Step::from("graph"), Step::from("edges"), Step::Idx(0), Step::from("dst")];
        assert_eq!(locate(DOC, &p), Some((6, 25)));
        assert_eq!(locate(DOC, &[Step::from("kind")]), Some((2, 11)));
        assert_eq!(
            locate(DOC, &[Step::from("graph"), Step::from("nodes"), Step::Idx(2)]),
            Some((4, 21))
        );
    }

    #[test]
    fn missing_path_is_none() {
        assert!(locate(DOC, &[Step::from("nope")]).is_none());
        assert!(locate(DOC, &[Step::from("graph"), Step::from("nodes"), Step::Idx(9)]).is_none());
    }

    #[test]
    fn strings_with_escapes_and_brackets_do_not_confuse_the_walker() {
        let doc = r#"{"a": "}] \" tricky", "b": [10, {"c": "[,"}, 30]}"#;
        assert_eq!(locate(doc, &[Step::from("b"), Step::Idx(2)]), Some((1, 46)));
    }

    #[test]
    fn renders_paths() {
        let p = vec![Step::from("faults"), Step::Idx(3), Step::from("team")];
        assert_eq!(render_path(&p), "$.faults[3].team");
    }
}
