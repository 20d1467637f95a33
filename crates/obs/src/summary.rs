//! Trace summarization: turn a JSONL trace back into a span tree.
//!
//! This is the read side of [`crate::trace`]: `smn obs summarize` feeds a
//! trace file through [`TraceSummary::parse`] and renders either a human
//! summary (aggregated span tree with durations, top-N slowest spans) or a
//! JSON report. Malformed lines are collected as parse errors rather than
//! aborting — CI gates on the error count, so a truncated or corrupt trace
//! artifact fails loudly with line numbers.

use std::collections::BTreeMap;

use serde::Value;

use crate::trace::{EventKind, TraceEvent};

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span id from the trace.
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Sim-seconds at enter.
    pub start_ts: u64,
    /// Sim-seconds at exit (`None` while the span never closed).
    pub end_ts: Option<u64>,
    /// Wall-clock milliseconds, when the exit event carried a `wall_ms`
    /// field (bench binaries attach one from `smn_bench::timer`).
    pub wall_ms: Option<f64>,
    /// Point events emitted inside this span.
    pub events: usize,
    /// Child span ids, in open order.
    pub children: Vec<u64>,
}

impl SpanNode {
    /// Simulated duration in seconds (`None` while open).
    #[must_use]
    pub fn sim_secs(&self) -> Option<u64> {
        self.end_ts.map(|end| end.saturating_sub(self.start_ts))
    }

    /// The duration used for slowest-span ranking: wall-clock ms when
    /// recorded, otherwise simulated seconds promoted to a comparable
    /// float (sim time ranks below any wall measurement of equal value
    /// only by convention — traces mix the two rarely).
    #[allow(clippy::cast_precision_loss, reason = "sim durations stay far below 2^52")]
    fn rank_key(&self) -> f64 {
        self.wall_ms.or_else(|| self.sim_secs().map(|s| s as f64)).unwrap_or(0.0)
    }
}

/// Aggregate of all spans sharing a name under the same parent aggregate.
#[derive(Debug, Clone)]
pub struct SpanAggregate {
    /// Span name.
    pub name: String,
    /// How many spans folded into this node.
    pub count: usize,
    /// Total simulated seconds across closed spans.
    pub sim_secs: u64,
    /// Total wall milliseconds across spans that recorded one.
    pub wall_ms: f64,
    /// Whether any span recorded a `wall_ms`.
    pub has_wall: bool,
    /// Point events inside these spans.
    pub events: usize,
    /// Child aggregates, ordered by first appearance.
    pub children: Vec<SpanAggregate>,
}

/// A fully parsed trace.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Lines seen (blank lines skipped).
    pub total_lines: usize,
    /// `(1-based line number, message)` for every malformed line.
    pub parse_errors: Vec<(usize, String)>,
    /// Events parsed successfully.
    pub events: usize,
    /// Point events (kind `event`).
    pub point_events: usize,
    /// Spans by id.
    pub spans: BTreeMap<u64, SpanNode>,
    /// Root span ids, in open order.
    pub roots: Vec<u64>,
}

impl TraceSummary {
    /// Parse a JSONL trace. Never fails: malformed lines land in
    /// [`TraceSummary::parse_errors`].
    #[must_use]
    pub fn parse(jsonl: &str) -> TraceSummary {
        let mut s = TraceSummary::default();
        for (i, line) in jsonl.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            s.total_lines += 1;
            match TraceEvent::from_json_line(line) {
                Ok(ev) => s.apply(&ev),
                Err(e) => s.parse_errors.push((i + 1, e)),
            }
        }
        s
    }

    fn apply(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match ev.kind {
            EventKind::Enter => {
                let node = SpanNode {
                    span: ev.span,
                    parent: ev.parent,
                    name: ev.name.clone(),
                    start_ts: ev.ts,
                    end_ts: None,
                    wall_ms: None,
                    events: 0,
                    children: Vec::new(),
                };
                if ev.parent != 0 {
                    if let Some(p) = self.spans.get_mut(&ev.parent) {
                        p.children.push(ev.span);
                    }
                } else {
                    self.roots.push(ev.span);
                }
                self.spans.insert(ev.span, node);
            }
            EventKind::Exit => {
                if let Some(node) = self.spans.get_mut(&ev.span) {
                    node.end_ts = Some(ev.ts);
                    node.wall_ms = ev
                        .fields
                        .iter()
                        .find(|(k, _)| k == "wall_ms")
                        .and_then(|(_, v)| v.as_f64());
                }
            }
            EventKind::Point => {
                self.point_events += 1;
                if let Some(node) = self.spans.get_mut(&ev.span) {
                    node.events += 1;
                }
            }
        }
    }

    /// Spans that never saw an exit event.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.spans.values().filter(|s| s.end_ts.is_none()).count()
    }

    /// The `n` slowest spans, by wall-clock ms when recorded, else by
    /// simulated duration. Ties break by span id for determinism.
    #[must_use]
    pub fn slowest(&self, n: usize) -> Vec<&SpanNode> {
        let mut all: Vec<&SpanNode> = self.spans.values().collect();
        all.sort_by(|a, b| b.rank_key().total_cmp(&a.rank_key()).then_with(|| a.span.cmp(&b.span)));
        all.truncate(n);
        all
    }

    /// Fold the span tree into per-name aggregates (children grouped by
    /// name under their parent's aggregate, ordered by first appearance).
    #[must_use]
    pub fn aggregate(&self) -> Vec<SpanAggregate> {
        self.aggregate_children(&self.roots)
    }

    fn aggregate_children(&self, ids: &[u64]) -> Vec<SpanAggregate> {
        let mut order: Vec<String> = Vec::new();
        let mut groups: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for &id in ids {
            if let Some(node) = self.spans.get(&id) {
                if !groups.contains_key(&node.name) {
                    order.push(node.name.clone());
                }
                groups.entry(node.name.clone()).or_default().push(id);
            }
        }
        let mut out = Vec::new();
        for name in order {
            let ids = groups.get(&name).cloned().unwrap_or_default();
            let mut agg = SpanAggregate {
                name,
                count: ids.len(),
                sim_secs: 0,
                wall_ms: 0.0,
                has_wall: false,
                events: 0,
                children: Vec::new(),
            };
            let mut child_ids: Vec<u64> = Vec::new();
            for id in &ids {
                if let Some(node) = self.spans.get(id) {
                    agg.sim_secs += node.sim_secs().unwrap_or(0);
                    if let Some(w) = node.wall_ms {
                        agg.wall_ms += w;
                        agg.has_wall = true;
                    }
                    agg.events += node.events;
                    child_ids.extend(node.children.iter().copied());
                }
            }
            agg.children = self.aggregate_children(&child_ids);
            out.push(agg);
        }
        out
    }

    /// Human-readable summary: header, aggregated span tree, top-`top`
    /// slowest spans, and any parse errors.
    #[must_use]
    pub fn render_text(&self, top: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events ({} spans, {} points), {} open, {} parse errors",
            self.events,
            self.spans.len(),
            self.point_events,
            self.open_spans(),
            self.parse_errors.len(),
        );
        out.push_str("\nspan tree:\n");
        let aggs = self.aggregate();
        if aggs.is_empty() {
            out.push_str("  (no spans)\n");
        }
        for agg in &aggs {
            render_aggregate(&mut out, agg, 1);
        }
        let slowest = self.slowest(top);
        if !slowest.is_empty() {
            let _ = writeln!(out, "\nslowest {} spans:", slowest.len());
            for node in slowest {
                let dur = match (node.wall_ms, node.sim_secs()) {
                    (Some(w), _) => format!("{w:.3}ms wall"),
                    (None, Some(s)) => format!("{s}s sim"),
                    (None, None) => "open".to_string(),
                };
                let _ = writeln!(out, "  #{:<6} {:<40} {}", node.span, node.name, dur);
            }
        }
        if !self.parse_errors.is_empty() {
            out.push_str("\nparse errors:\n");
            for (line, msg) in &self.parse_errors {
                let _ = writeln!(out, "  line {line}: {msg}");
            }
        }
        out
    }

    /// Machine-readable summary mirroring [`TraceSummary::render_text`].
    #[must_use]
    pub fn to_json(&self, top: usize) -> String {
        let aggs: Vec<Value> = self.aggregate().iter().map(aggregate_to_value).collect();
        let slowest: Vec<Value> = self
            .slowest(top)
            .iter()
            .map(|n| {
                let mut m = vec![
                    ("span".to_string(), Value::U64(n.span)),
                    ("name".to_string(), Value::Str(n.name.clone())),
                ];
                match n.sim_secs() {
                    Some(s) => m.push(("sim_secs".to_string(), Value::U64(s))),
                    None => m.push(("sim_secs".to_string(), Value::Null)),
                }
                match n.wall_ms {
                    Some(w) => m.push(("wall_ms".to_string(), Value::F64(w))),
                    None => m.push(("wall_ms".to_string(), Value::Null)),
                }
                Value::Map(m)
            })
            .collect();
        let errors: Vec<Value> = self
            .parse_errors
            .iter()
            .map(|(line, msg)| {
                Value::Map(vec![
                    ("line".to_string(), Value::U64(*line as u64)),
                    ("error".to_string(), Value::Str(msg.clone())),
                ])
            })
            .collect();
        let root = Value::Map(vec![
            ("events".to_string(), Value::U64(self.events as u64)),
            ("spans".to_string(), Value::U64(self.spans.len() as u64)),
            ("points".to_string(), Value::U64(self.point_events as u64)),
            ("open_spans".to_string(), Value::U64(self.open_spans() as u64)),
            ("parse_errors".to_string(), Value::U64(self.parse_errors.len() as u64)),
            ("tree".to_string(), Value::Seq(aggs)),
            ("slowest".to_string(), Value::Seq(slowest)),
            ("errors".to_string(), Value::Seq(errors)),
        ]);
        serde_json::to_string_pretty(&root).unwrap_or_default()
    }
}

fn render_aggregate(out: &mut String, agg: &SpanAggregate, depth: usize) {
    use std::fmt::Write;
    let indent = "  ".repeat(depth);
    let mut stats = format!("x{}", agg.count);
    if agg.has_wall {
        let _ = write!(stats, "  {:.3}ms wall", agg.wall_ms);
    }
    if agg.sim_secs > 0 {
        let _ = write!(stats, "  {}s sim", agg.sim_secs);
    }
    if agg.events > 0 {
        let _ = write!(stats, "  {} events", agg.events);
    }
    let _ = writeln!(out, "{indent}{:<40} {stats}", agg.name);
    for child in &agg.children {
        render_aggregate(out, child, depth + 1);
    }
}

fn aggregate_to_value(agg: &SpanAggregate) -> Value {
    let children: Vec<Value> = agg.children.iter().map(aggregate_to_value).collect();
    Value::Map(vec![
        ("name".to_string(), Value::Str(agg.name.clone())),
        ("count".to_string(), Value::U64(agg.count as u64)),
        ("sim_secs".to_string(), Value::U64(agg.sim_secs)),
        ("wall_ms".to_string(), if agg.has_wall { Value::F64(agg.wall_ms) } else { Value::Null }),
        ("events".to_string(), Value::U64(agg.events as u64)),
        ("children".to_string(), Value::Seq(children)),
    ])
}

#[cfg(test)]
#[allow(clippy::cast_precision_loss, reason = "small literal loop indices")]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::trace::FieldValue;
    use crate::Obs;

    fn sample_trace() -> String {
        let clock = SimClock::new();
        let obs = Obs::enabled(clock.clone());
        for w in 0..3u64 {
            clock.set(w * 3600);
            let mut outer = obs.span_with("window", &[("w", FieldValue::U64(w))]);
            {
                clock.advance(60);
                let mut inner = obs.span("coarsen");
                clock.advance(120);
                inner.field("wall_ms", 1.5 + w as f64);
            }
            clock.advance(600);
            outer.field("ok", true);
        }
        // Each window also carries a point event after its coarsen span,
        // as older traces do.
        let mut out = String::new();
        for line in obs.trace_jsonl().lines() {
            out.push_str(line);
            out.push('\n');
            let e = TraceEvent::from_json_line(line).unwrap();
            if e.kind == EventKind::Exit && e.name == "coarsen" {
                let fields = vec![("team".to_string(), FieldValue::Str("net".into()))];
                let (span, name) = (e.parent, "routed".to_string());
                let point = TraceEvent { kind: EventKind::Point, span, name, fields, ..e };
                out.push_str(&point.to_json_line());
                out.push('\n');
            }
        }
        out
    }

    #[test]
    fn parses_and_aggregates_span_tree() {
        let s = TraceSummary::parse(&sample_trace());
        assert_eq!(s.parse_errors.len(), 0);
        assert_eq!(s.spans.len(), 6);
        assert_eq!(s.point_events, 3);
        assert_eq!(s.open_spans(), 0);
        let aggs = s.aggregate();
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].name, "window");
        assert_eq!(aggs[0].count, 3);
        assert_eq!(aggs[0].children[0].name, "coarsen");
        assert_eq!(aggs[0].children[0].count, 3);
        assert!(aggs[0].children[0].has_wall);
    }

    #[test]
    fn slowest_prefers_wall_ms() {
        let s = TraceSummary::parse(&sample_trace());
        let slow = s.slowest(2);
        assert_eq!(slow.len(), 2);
        // Outer windows have sim duration 780s but no wall_ms; the ranking
        // is by rank_key, so 780 (sim) outranks 3.5ms (wall) numerically.
        assert!(slow[0].rank_key() >= slow[1].rank_key());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let mut jsonl = sample_trace();
        jsonl.push_str("garbage line\n");
        let s = TraceSummary::parse(&jsonl);
        assert_eq!(s.parse_errors.len(), 1);
        assert_eq!(s.parse_errors[0].0, jsonl.lines().count());
        let text = s.render_text(5);
        assert!(text.contains("parse errors"));
        assert!(text.contains("garbage") || text.contains("line"));
    }

    #[test]
    fn json_summary_is_deterministic() {
        let s = TraceSummary::parse(&sample_trace());
        assert_eq!(s.to_json(3), s.to_json(3));
        assert!(s.to_json(3).contains("\"spans\": 6"));
    }
}
