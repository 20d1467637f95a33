//! Artifact invariants: the shared vocabulary every serialized SMN
//! artifact uses to report what is wrong with it.
//!
//! Each artifact kind decodes into one owning type, and that type states
//! its invariants once, as a `violations(&self) -> Vec<Violation>` method.
//! A [`Violation`] names the rule, the JSON path of the offending value in
//! the serialized form, and a human message. The same list serves two
//! readers: runtime loaders refuse an artifact with any violation, and
//! `smn-lint` maps each path back to a `line:col` span in the source text.

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;

use serde::{Deserialize, Serialize};

use crate::graph::NodeId;

/// One step of a JSON path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Step {
    /// Object member by key.
    Key(String),
    /// Array element by index.
    Idx(usize),
}

impl From<&str> for Step {
    fn from(key: &str) -> Self {
        Step::Key(key.to_string())
    }
}

impl From<usize> for Step {
    fn from(index: usize) -> Self {
        Step::Idx(index)
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Key(k) => write!(f, ".{k}"),
            Step::Idx(i) => write!(f, "[{i}]"),
        }
    }
}

/// Build a path from mixed key and index steps: `path!["edges", i, "dst"]`.
#[macro_export]
macro_rules! path {
    ($($step:expr),* $(,)?) => {
        [$($crate::artifact::Step::from($step)),*]
    };
}

/// Render a path as `$.graph.edges[3].dst` for messages.
#[must_use]
pub fn render_path(path: &[Step]) -> String {
    let mut out = String::from("$");
    for s in path {
        out.push_str(&s.to_string());
    }
    out
}

/// One broken artifact invariant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Rule id, e.g. `"artifact/dangling-edge"`.
    pub rule: String,
    /// Where the offending value sits in the serialized artifact (empty
    /// for the whole document).
    pub path: Vec<Step>,
    /// What is wrong.
    pub message: String,
    /// Why the rule exists or how to fix it (empty when self-evident).
    pub note: String,
}

impl Violation {
    /// A violation of `rule` at `path`.
    #[must_use]
    pub fn new(
        rule: &str,
        path: impl Into<Vec<Step>>,
        message: impl Into<String>,
        note: &str,
    ) -> Self {
        Violation {
            rule: rule.to_string(),
            path: path.into(),
            message: message.into(),
            note: note.to_string(),
        }
    }

    /// The `artifact/unreadable` violation of a document that does not
    /// decode into its owner type.
    #[must_use]
    pub fn unreadable(what: &str, err: &impl fmt::Display) -> Self {
        Violation::new(
            "artifact/unreadable",
            vec![],
            format!("does not deserialize as {what}: {err}"),
            "",
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rule, self.message)?;
        if !self.path.is_empty() {
            write!(f, " [{}]", render_path(&self.path))?;
        }
        Ok(())
    }
}

/// Re-root violations found in a nested value under `prefix`, the path of
/// that value in the enclosing artifact.
#[must_use]
pub fn under(prefix: &[Step], violations: Vec<Violation>) -> Vec<Violation> {
    violations
        .into_iter()
        .map(|mut v| {
            v.path = prefix.iter().cloned().chain(v.path).collect();
            v
        })
        .collect()
}

/// Check a name-indexed graph wrapper (`{graph, name_index}`): node names
/// are unique, every `name_index` entry points at a node of that exact
/// name, and every node is indexed. `names` lists node names in id order.
///
/// Index entries are addressed in serialized order, which sorts them by
/// name (the wire form of a `HashMap`).
#[must_use]
pub fn name_index_violations<S: BuildHasher>(
    names: &[&str],
    index: &HashMap<String, NodeId, S>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for (i, &name) in names.iter().enumerate() {
        if seen.contains(&name) {
            out.push(Violation::new(
                "artifact/duplicate-id",
                path!["graph", "nodes", i, "payload"],
                format!("duplicate name `{name}` (node {i})"),
                "names key cross-artifact references and must be unique",
            ));
        }
        seen.push(name);
    }
    let mut entries: Vec<(&String, &NodeId)> = index.iter().collect();
    entries.sort();
    for (i, (name, id)) in entries.iter().enumerate() {
        let actual = names.get(id.index()).copied();
        if actual != Some(name.as_str()) {
            out.push(Violation::new(
                "artifact/name-index",
                path!["name_index", i],
                match actual {
                    Some(other) => {
                        format!(
                            "name index maps `{name}` to node {}, which is named `{other}`",
                            id.0
                        )
                    }
                    None => format!("name index maps `{name}` to nonexistent node {}", id.0),
                },
                "rebuild the index from the node table",
            ));
        }
    }
    for (i, &name) in names.iter().enumerate() {
        if !index.contains_key(name) {
            out.push(Violation::new(
                "artifact/name-index",
                path!["graph", "nodes", i, "payload"],
                format!("node {i} `{name}` is missing from the name index"),
                "rebuild the index from the node table",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_reroots_paths() {
        let v = Violation::new("artifact/x", path!["team"], "bad", "");
        let v = under(&path!["faults", 3], vec![v]);
        assert_eq!(render_path(&v[0].path), "$.faults[3].team");
        assert_eq!(v[0].to_string(), "artifact/x: bad [$.faults[3].team]");
    }

    #[test]
    fn name_index_checks_both_directions() {
        let index: HashMap<String, NodeId> =
            [("a".to_string(), NodeId(0)), ("z".to_string(), NodeId(5))].into();
        let out = name_index_violations(&["a", "b"], &index);
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(render_path(&out[0].path), "$.name_index[1]");
        assert!(out[0].message.contains("nonexistent node 5"));
        assert_eq!(render_path(&out[1].path), "$.graph.nodes[1].payload");
    }
}
