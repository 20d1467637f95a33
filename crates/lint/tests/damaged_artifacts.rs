//! Damaged artifact bytes are findings or typed errors, never panics.
//!
//! Every committed artifact, every fixture and one stream checkpoint is
//! truncated at a random offset or has one character replaced, then fed
//! to the artifact engine and to each runtime loader. The engine must
//! return findings and the loaders `Ok` or `Err`; a panic or an abort
//! (an allocation sized from a forged count) fails the test.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use smn_core::bwlogs::CoarseBwRecord;
use smn_core::controller::{ControllerConfig, SmnController};
use smn_core::stream::{StreamConfig, StreamError, StreamState};
use smn_depgraph::coarse::CoarseDepGraph;
use smn_incident::faults::CampaignArtifact;
use smn_incident::RedditDeployment;
use smn_lint::artifact::check_str;
use smn_perf::BenchReport;
use smn_telemetry::delta::TelemetryDelta;
use smn_telemetry::record::BandwidthRecord;
use smn_telemetry::time::{Ts, DAY, EPOCH_SECS};

/// Characters that change JSON structure, numbers, or string content.
const REPLACEMENTS: [char; 16] =
    ['"', '{', '}', '[', ']', ',', ':', '0', '9', '-', 'e', 'n', ' ', '\\', '.', 'x'];

fn collect(dir: &Path, out: &mut Vec<(String, String)>) {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).expect("artifact is readable");
            out.push((path.display().to_string(), text));
        }
    }
}

/// A stream checkpoint after three hours of one-epoch ticks over pairs
/// (0,1), (0,2) and (3,1), each sample 10.0: the uniform log holds two
/// sealed hours (a block each) and an open one, and the adaptive log a
/// history block per tick.
fn checkpoint() -> String {
    let mut ctl = SmnController::new(CoarseDepGraph::new(), ControllerConfig::default());
    let mut state = StreamState::new(StreamConfig::default(), RedditDeployment::build().fine);
    for tick in 0..36 {
        let ts = Ts(tick * EPOCH_SECS);
        let records = [(0, 1), (0, 2), (3, 1)]
            .map(|(src, dst)| BandwidthRecord { ts, src, dst, gbps: 10.0 })
            .to_vec();
        ctl.stream_tick(&mut state, &TelemetryDelta::new(tick, records), None)
            .expect("tick applies");
    }
    serde_json::to_string(&state).expect("checkpoint serializes")
}

/// The committed artifacts, the fixture corpus, and a stream checkpoint.
fn inputs() -> &'static [(String, String)] {
    static INPUTS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let mut out = Vec::new();
        collect(&manifest.join("../../artifacts"), &mut out);
        collect(&manifest.join("tests/fixtures"), &mut out);
        out.push(("checkpoint".to_string(), checkpoint()));
        out
    })
}

/// Truncate `text` at the `at`-th char, or replace that char with `with`.
fn damage(text: &str, at: usize, truncate: bool, with: char) -> String {
    if truncate {
        text.chars().take(at).collect()
    } else {
        text.chars().enumerate().map(|(i, c)| if i == at { with } else { c }).collect()
    }
}

#[test]
fn forged_partition_size_is_a_finding_not_an_abort() {
    let src = r#"{"kind":"coarsening","fine_nodes":100000000000000,"node_map":[],"members":[]}"#;
    let out = check_str("c.json", src);
    assert!(!out.is_empty());
    assert!(out.iter().all(|d| d.rule == "artifact/partition-not-total"), "{out:?}");
}

#[test]
fn swapped_pair_keys_are_a_checkpoint_error() {
    let checkpoint = checkpoint();
    assert!(StreamState::restore(&checkpoint).is_ok(), "the undamaged checkpoint restores");
    let keys = r#""keys":[[0,1],[0,2],[3,1]],"pairs""#;
    assert!(checkpoint.contains(keys), "{checkpoint}");
    let swapped = checkpoint.replace(keys, r#""keys":[[0,2],[0,1],[3,1]],"pairs""#);
    match StreamState::restore(&swapped) {
        Err(StreamError::Checkpoint(v)) => {
            assert!(v.rule.starts_with("artifact/coarse-log-"), "{v}");
            assert!(v.to_string().contains("[$.adaptive."), "{v}");
        }
        Err(other) => panic!("expected a checkpoint error, got {other}"),
        Ok(_) => panic!("a pair table with swapped keys must not restore"),
    }
}

/// `checkpoint` restores to a checkpoint error whose rule and path say
/// what broke in a coarse log.
fn assert_checkpoint_error(checkpoint: &str, rule: &str, at: &str) {
    match StreamState::restore(checkpoint) {
        Err(StreamError::Checkpoint(v)) => {
            assert_eq!(v.rule, rule, "{v}");
            assert!(v.to_string().contains(at), "{v}");
        }
        Err(other) => panic!("expected a checkpoint error, got {other}"),
        Ok(_) => panic!("a damaged coarse log must not restore"),
    }
}

#[test]
fn a_corrupted_fold_is_a_checkpoint_error() {
    let checkpoint = checkpoint();
    // Each pair folded 36 samples of 10.0: a sum of 370 is no fold of them.
    for (fold, forged, at) in [
        (r#""open":{"count":36,"sum":360.0"#, r#""open":{"count":36,"sum":370.0"#, "open"),
        (
            r#""whole":{"unshifted":{"count":36,"sum":360.0"#,
            r#""whole":{"unshifted":{"count":36,"sum":370.0"#,
            "whole",
        ),
    ] {
        assert!(checkpoint.contains(fold), "{checkpoint}");
        let forged = checkpoint.replacen(fold, forged, 1);
        let at = format!("[$.adaptive.pairs[0].{at}]");
        assert_checkpoint_error(&forged, "artifact/coarse-log-samples", &at);
    }
}

/// A checkpoint writes each column block as it is, so a restore checks
/// each one: a sealed block or a history block with a run end short of its
/// items, run keys that do not ascend, or a value column that is not its
/// items times its stride is refused, with the block's path, before any
/// row is read through its run index.
#[test]
fn a_checkpoint_with_a_malformed_block_is_refused() {
    let checkpoint = checkpoint();
    let sealed = r#""sealed":[{"runs":{"keys":[[0,3600]],"ends":[3]},"items":[[0,1],[0,2],[3,1]],"stride":2,"values":[10.0,"#;
    let history = r#""history":[{"runs":{"keys":[[0,1],[0,2],[3,1]],"ends":[1,2,3]},"items":[0,0,0],"stride":1,"values":[10.0,"#;
    let (shape, order) = ("artifact/coarse-log-shape", "artifact/coarse-log-order");
    for (block, (from, to), rule, at) in [
        (sealed, (r#""ends":[3]"#, r#""ends":[2]"#), shape, "time.sealed[0].runs.ends[0]"),
        (
            sealed,
            (r#""keys":[[0,3600]],"ends":[3]"#, r#""keys":[[3600,3600],[0,3600]],"ends":[1,3]"#),
            order,
            "time.sealed[0].runs.keys[1]",
        ),
        (sealed, (r#""values":[10.0,"#, r#""values":["#), shape, "time.sealed[0].values"),
        (
            history,
            (r#""ends":[1,2,3]"#, r#""ends":[1,2,2]"#),
            shape,
            "adaptive.history[0].runs.ends[2]",
        ),
        (
            history,
            (r#""keys":[[0,1],[0,2],[3,1]]"#, r#""keys":[[0,2],[0,1],[3,1]]"#),
            order,
            "adaptive.history[0].runs.keys[1]",
        ),
        (history, (r#""values":[10.0,"#, r#""values":["#), shape, "adaptive.history[0].values"),
    ] {
        assert!(checkpoint.contains(block), "{checkpoint}");
        let forged = checkpoint.replacen(block, &block.replacen(from, to, 1), 1);
        assert_ne!(forged, checkpoint);
        assert_checkpoint_error(&forged, rule, &format!("[$.{at}]"));
    }
}

#[test]
fn a_checkpoint_of_value_sorted_histories_is_refused() {
    // Before folds, a pair kept its values sorted with parallel
    // timestamps, a class flag and all of its rows: no history fold.
    let checkpoint = checkpoint();
    let (head, tail) = checkpoint.split_once(r#""pairs":["#).expect("the log has a pair table");
    let (_, rest) = tail.split_once(r#"],"rows":"#).expect("the pair table ends");
    let old: Vec<String> = [(0, 1), (0, 2), (3, 1)]
        .map(|(src, dst)| {
            let row = CoarseBwRecord {
                window_start: Ts(0),
                window_secs: DAY,
                src,
                dst,
                values: vec![10.0],
            };
            let row = serde_json::to_string(&row).expect("a row serializes");
            format!(r#"{{"values":[10.0],"ts":[0],"volatile":false,"rows":[{row}]}}"#)
        })
        .to_vec();
    let forged = format!(r#"{head}"pairs":[{}],"rows":{rest}"#, old.join(","));
    match StreamState::restore(&forged) {
        Err(StreamError::Checkpoint(v)) => {
            assert_eq!(v.rule, "artifact/unreadable", "{v}");
            assert!(v.to_string().contains("struct Fold"), "{v}");
        }
        Err(other) => panic!("expected a checkpoint error, got {other}"),
        Ok(_) => panic!("a value-sorted history must not restore"),
    }
}

proptest! {
    #[test]
    fn damaged_artifact_bytes_never_panic(
        pick_input in 0usize..1 << 16,
        pos in 0.0f64..1.0,
        truncate in 0u8..2,
        pick_char in 0usize..REPLACEMENTS.len(),
    ) {
        let all = inputs();
        let Some((name, text)) = all.get(pick_input % all.len()) else {
            return Err(TestCaseError::fail("no inputs"));
        };
        let n = text.chars().count();
        // Truncation strictly inside the document always leaves it
        // unreadable; a replacement may or may not.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss, reason = "a fraction of a document's length, clamped to it")]
        let at = ((pos * n as f64) as usize).min(n.saturating_sub(2));
        let damaged = damage(text, at, truncate == 1, REPLACEMENTS[pick_char]);
        let findings = check_str(name, &damaged);
        if truncate == 1 {
            prop_assert!(!findings.is_empty(), "{name} truncated at {at} lints clean");
        }
        if let Ok(v) = serde_json::parse_value(&damaged) {
            let _ = CampaignArtifact::load(&v);
        }
        let _ = BenchReport::from_json(&damaged);
        let _ = StreamState::restore(&damaged);
    }
}
