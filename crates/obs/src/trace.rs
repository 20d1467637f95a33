//! Span-based structured tracing with JSONL export.
//!
//! A trace is an ordered stream of [`TraceEvent`]s: span enters and span
//! exits (and, in older traces, point events), each stamped with a
//! sequence number and the [`crate::clock::Clock`] time at emission. Spans nest through an explicit
//! parent stack (the SMN pipelines are single-threaded per campaign), so a
//! trace reconstructs into a span tree without any thread-local magic.
//!
//! The export format is one JSON object per line. Field order is fixed by
//! construction (the vendored `serde::Value` map preserves insertion
//! order), so identical event streams serialize to byte-identical JSONL —
//! the property the determinism regression test locks in.

use serde::Value;

/// A typed key-value field attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl FieldValue {
    fn to_value(&self) -> Value {
        match self {
            FieldValue::U64(n) => Value::U64(*n),
            FieldValue::I64(n) => Value::I64(*n),
            FieldValue::F64(f) => Value::F64(*f),
            FieldValue::Bool(b) => Value::Bool(*b),
            FieldValue::Str(s) => Value::Str(s.clone()),
        }
    }

    fn from_value(v: &Value) -> Option<FieldValue> {
        match v {
            Value::U64(n) => Some(FieldValue::U64(*n)),
            Value::I64(n) => Some(FieldValue::I64(*n)),
            Value::F64(f) => Some(FieldValue::F64(*f)),
            Value::Bool(b) => Some(FieldValue::Bool(*b)),
            Value::Str(s) => Some(FieldValue::Str(s.clone())),
            Value::Null | Value::Seq(_) | Value::Map(_) => None,
        }
    }

    /// Render for human-readable summaries.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            FieldValue::U64(n) => n.to_string(),
            FieldValue::I64(n) => n.to_string(),
            FieldValue::F64(f) => format!("{f}"),
            FieldValue::Bool(b) => b.to_string(),
            FieldValue::Str(s) => s.clone(),
        }
    }

    /// The float value, if this field is numeric.
    #[must_use]
    #[allow(clippy::cast_precision_loss, reason = "trace field magnitudes stay far below 2^52")]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::U64(n) => Some(*n as f64),
            FieldValue::I64(n) => Some(*n as f64),
            FieldValue::F64(f) => Some(*f),
            FieldValue::Bool(_) | FieldValue::Str(_) => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(n: u64) -> Self {
        FieldValue::U64(n)
    }
}
impl From<usize> for FieldValue {
    fn from(n: usize) -> Self {
        FieldValue::U64(n as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(n: i64) -> Self {
        FieldValue::I64(n)
    }
}
impl From<f64> for FieldValue {
    fn from(f: f64) -> Self {
        FieldValue::F64(f)
    }
}
impl From<bool> for FieldValue {
    fn from(b: bool) -> Self {
        FieldValue::Bool(b)
    }
}
impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}

/// What a trace event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Enter,
    /// A span closed.
    Exit,
    /// A point-in-time event inside the current span.
    Point,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::Enter => "enter",
            EventKind::Exit => "exit",
            EventKind::Point => "event",
        }
    }

    fn parse(s: &str) -> Option<EventKind> {
        match s {
            "enter" => Some(EventKind::Enter),
            "exit" => Some(EventKind::Exit),
            "event" => Some(EventKind::Point),
            _ => None,
        }
    }
}

/// One line of a trace: a span boundary or a point event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Emission order, 1-based, dense.
    pub seq: u64,
    /// Simulated seconds at emission.
    pub ts: u64,
    /// Enter / exit / point.
    pub kind: EventKind,
    /// Id of the span this event belongs to (the span itself for
    /// enter/exit, the enclosing span for point events; 0 = no span).
    pub span: u64,
    /// Id of the enclosing span at enter time (0 = root).
    pub parent: u64,
    /// Span or event name, e.g. `"controller/incident-loop"`.
    pub name: String,
    /// Typed payload fields, in insertion order.
    pub fields: Vec<(String, FieldValue)>,
}

impl TraceEvent {
    /// Serialize as one compact JSON line (no trailing newline). Field
    /// order is fixed, so equal events yield equal bytes.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let fields: Vec<(String, Value)> =
            self.fields.iter().map(|(k, v)| (k.clone(), v.to_value())).collect();
        let map = Value::Map(vec![
            ("seq".to_string(), Value::U64(self.seq)),
            ("ts".to_string(), Value::U64(self.ts)),
            ("kind".to_string(), Value::Str(self.kind.as_str().to_string())),
            ("span".to_string(), Value::U64(self.span)),
            ("parent".to_string(), Value::U64(self.parent)),
            ("name".to_string(), Value::Str(self.name.clone())),
            ("fields".to_string(), Value::Map(fields)),
        ]);
        serde_json::to_string(&map).unwrap_or_default()
    }

    /// Parse one JSONL line back into an event.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed line — bad JSON, a missing
    /// or mistyped field, an unknown kind — which the summarizer surfaces
    /// instead of panicking.
    pub fn from_json_line(line: &str) -> Result<TraceEvent, String> {
        let v = serde_json::parse_value(line).map_err(|e| e.to_string())?;
        let u64_of = |key: &str| -> Result<u64, String> {
            match v.get(key) {
                Some(Value::U64(n)) => Ok(*n),
                Some(other) => Err(format!("field '{key}' is not an unsigned integer: {other:?}")),
                None => Err(format!("missing field '{key}'")),
            }
        };
        let str_of = |key: &str| -> Result<String, String> {
            match v.get(key) {
                Some(Value::Str(s)) => Ok(s.clone()),
                Some(other) => Err(format!("field '{key}' is not a string: {other:?}")),
                None => Err(format!("missing field '{key}'")),
            }
        };
        let kind_str = str_of("kind")?;
        let kind = EventKind::parse(&kind_str)
            .ok_or_else(|| format!("unknown event kind '{kind_str}'"))?;
        let mut fields = Vec::new();
        match v.get("fields") {
            Some(Value::Map(entries)) => {
                for (k, fv) in entries {
                    let fv = FieldValue::from_value(fv)
                        .ok_or_else(|| format!("field '{k}' has a non-scalar value"))?;
                    fields.push((k.clone(), fv));
                }
            }
            Some(other) => return Err(format!("'fields' is not an object: {other:?}")),
            None => return Err("missing field 'fields'".to_string()),
        }
        Ok(TraceEvent {
            seq: u64_of("seq")?,
            ts: u64_of("ts")?,
            kind,
            span: u64_of("span")?,
            parent: u64_of("parent")?,
            name: str_of("name")?,
            fields,
        })
    }
}

/// Mutable tracer state behind the [`crate::Obs`] lock.
#[derive(Debug, Default)]
pub(crate) struct TracerState {
    /// The recorded event stream.
    pub events: Vec<TraceEvent>,
    /// Next sequence number (1-based).
    next_seq: u64,
    /// Next span id (1-based).
    next_span: u64,
    /// Stack of currently open span ids.
    stack: Vec<u64>,
}

impl TracerState {
    fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Open a span: emit the enter event and push it on the stack.
    pub fn enter(&mut self, ts: u64, name: &str, fields: Vec<(String, FieldValue)>) -> u64 {
        self.next_span += 1;
        let span = self.next_span;
        let parent = self.stack.last().copied().unwrap_or(0);
        let seq = self.next_seq();
        self.events.push(TraceEvent {
            seq,
            ts,
            kind: EventKind::Enter,
            span,
            parent,
            name: name.to_string(),
            fields,
        });
        self.stack.push(span);
        span
    }

    /// Close a span: emit the exit event and pop it (plus anything opened
    /// after it and leaked — guards drop in LIFO order, so under normal use
    /// the span is the stack top).
    pub fn exit(&mut self, ts: u64, span: u64, name: &str, fields: Vec<(String, FieldValue)>) {
        if let Some(pos) = self.stack.iter().rposition(|&s| s == span) {
            self.stack.truncate(pos);
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        let seq = self.next_seq();
        self.events.push(TraceEvent {
            seq,
            ts,
            kind: EventKind::Exit,
            span,
            parent,
            name: name.to_string(),
            fields,
        });
    }

    /// Export the whole stream as JSONL (one event per line, trailing
    /// newline after the last line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_roundtrip() {
        let mut t = TracerState::default();
        let outer = t.enter(0, "outer", vec![("window".to_string(), FieldValue::U64(1))]);
        let inner = t.enter(5, "inner", vec![]);
        t.exit(9, inner, "inner", vec![]);
        t.exit(10, outer, "outer", vec![("n".to_string(), FieldValue::U64(2))]);

        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        let parsed: Vec<TraceEvent> =
            lines.iter().map(|l| TraceEvent::from_json_line(l).unwrap()).collect();
        assert_eq!(parsed, t.events);
        assert_eq!(parsed[1].parent, outer);
        assert_eq!(parsed[3].fields[0].0, "n");
        // A point event, as older traces carry, still round-trips.
        let point = TraceEvent {
            seq: 5,
            ts: 6,
            kind: EventKind::Point,
            span: inner,
            parent: inner,
            name: "checkpoint".to_string(),
            fields: vec![("ok".to_string(), FieldValue::Bool(true))],
        };
        let line = point.to_json_line();
        assert!(line.contains(r#""kind":"event""#), "{line}");
        assert_eq!(TraceEvent::from_json_line(&line).unwrap(), point);
    }

    #[test]
    fn identical_streams_serialize_identically() {
        let build = || {
            let mut t = TracerState::default();
            let s = t.enter(100, "loop", vec![("f".to_string(), FieldValue::F64(0.25))]);
            t.exit(160, s, "loop", vec![]);
            t.to_jsonl()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn malformed_lines_error_instead_of_panicking() {
        assert!(TraceEvent::from_json_line("not json").is_err());
        assert!(TraceEvent::from_json_line("{}").is_err());
        assert!(TraceEvent::from_json_line(
            r#"{"seq":1,"ts":0,"kind":"bogus","span":1,"parent":0,"name":"x","fields":{}}"#
        )
        .is_err());
    }

    #[test]
    fn leaked_inner_span_does_not_corrupt_stack() {
        let mut t = TracerState::default();
        let outer = t.enter(0, "outer", vec![]);
        let _inner = t.enter(1, "inner", vec![]); // never exited explicitly
        t.exit(2, outer, "outer", vec![]);
        // The stack is empty again: a new root span has parent 0.
        let fresh = t.enter(3, "fresh", vec![]);
        let enter = t.events.iter().find(|e| e.span == fresh).unwrap();
        assert_eq!(enter.parent, 0);
    }
}
