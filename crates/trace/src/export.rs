//! Trace exporters: human-readable tree, JSON Lines, Chrome `trace_event`.
//!
//! - [`render_tree`] prints the span hierarchy with durations and
//!   attributes — the quick look.
//! - [`to_jsonl`] / [`from_jsonl`] is the lossless interchange format: a
//!   header line (format version + drop accounting) followed by one span
//!   object per line.
//! - [`to_chrome`] / [`from_chrome`] is the Chrome `trace_event` "X" (complete
//!   event) encoding: the file written to `results/trace_*.json` opens
//!   directly in `chrome://tracing` or <https://ui.perfetto.dev>. Exact span
//!   fields ride along in `args`, so this format round-trips losslessly too.

use crate::collector::Trace;
use crate::span::{AttrValue, Event, Span};
use serde::Value;
use std::fmt::Write as _;

/// JSONL header version; bumped on breaking format changes.
pub const JSONL_VERSION: i64 = 1;

// ---------------------------------------------------------------- tree ----

/// Render the span hierarchy as an indented tree with durations (ms),
/// attributes, and events. Spans whose parent was evicted from the ring
/// render as roots.
pub fn render_tree(trace: &Trace) -> String {
    let mut out = format!(
        "trace: {} span{} ({} dropped)\n",
        trace.len(),
        if trace.len() == 1 { "" } else { "s" },
        trace.dropped
    );
    let present: std::collections::HashSet<u64> = trace.spans.iter().map(|s| s.id).collect();
    let roots: Vec<&Span> = trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none_or(|p| !present.contains(&p)))
        .collect();
    for root in roots {
        render_span(trace, root, 0, &mut out);
    }
    out
}

fn render_span(trace: &Trace, span: &Span, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let _ = write!(
        out,
        "{indent}{}  {:.3}ms",
        span.name,
        span.dur_ns as f64 / 1e6
    );
    if !span.attrs.is_empty() {
        let rendered: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = write!(out, "  [{}]", rendered.join(" "));
    }
    out.push('\n');
    for event in &span.events {
        let _ = write!(
            out,
            "{indent}  * {} @{:.3}ms",
            event.name,
            event.at_ns.saturating_sub(span.start_ns) as f64 / 1e6
        );
        if !event.attrs.is_empty() {
            let rendered: Vec<String> = event
                .attrs
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = write!(out, " [{}]", rendered.join(" "));
        }
        out.push('\n');
    }
    // Children in trace order (already sorted by (start, id)).
    for child in trace.spans.iter().filter(|s| s.parent == Some(span.id)) {
        render_span(trace, child, depth + 1, out);
    }
}

// --------------------------------------------------------------- jsonl ----

fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("a JSON value tree always renders")
}

fn attrs_to_json(attrs: &[(String, AttrValue)]) -> Value {
    Value::Map(
        attrs
            .iter()
            .map(|(k, v)| {
                let value = match v {
                    AttrValue::Bool(b) => Value::Bool(*b),
                    AttrValue::Int(i) => Value::Int(*i),
                    AttrValue::Float(f) => Value::Float(*f),
                    AttrValue::Str(s) => Value::Str(s.clone()),
                };
                (k.clone(), value)
            })
            .collect(),
    )
}

fn attrs_from_json(value: Option<&Value>) -> Result<Vec<(String, AttrValue)>, String> {
    let members = match value {
        None => return Ok(Vec::new()),
        Some(Value::Map(members)) => members,
        Some(_) => return Err("attrs must be an object".to_string()),
    };
    members
        .iter()
        .map(|(k, v)| {
            let attr = match v {
                Value::Bool(b) => AttrValue::Bool(*b),
                Value::Int(i) => AttrValue::Int(*i),
                // Integers beyond i64 were never written as Int attributes.
                Value::UInt(u) => AttrValue::Float(*u as f64),
                Value::Float(f) => AttrValue::Float(*f),
                Value::Str(s) => AttrValue::Str(s.clone()),
                // Non-finite floats were written as null.
                Value::Null => AttrValue::Float(f64::NAN),
                other => return Err(format!("attr {k:?} has non-scalar value {other:?}")),
            };
            Ok((k.clone(), attr))
        })
        .collect()
}

fn events_to_json(events: &[Event]) -> Value {
    Value::Seq(
        events
            .iter()
            .map(|e| {
                Value::Map(vec![
                    ("name".into(), Value::Str(e.name.clone())),
                    ("at_ns".into(), json_u64(e.at_ns)),
                    ("attrs".into(), attrs_to_json(&e.attrs)),
                ])
            })
            .collect(),
    )
}

fn events_from_json(value: Option<&Value>) -> Result<Vec<Event>, String> {
    value
        .and_then(Value::as_array)
        .map_or(&[][..], Vec::as_slice)
        .iter()
        .map(|e| {
            Ok(Event {
                name: field_str(e, "name", "event missing name")?,
                at_ns: field_u64(e, "at_ns")?,
                attrs: attrs_from_json(e.get("attrs"))?,
            })
        })
        .collect()
}

fn span_to_json(span: &Span) -> Value {
    Value::Map(vec![
        ("id".into(), json_u64(span.id)),
        ("parent".into(), span.parent.map_or(Value::Null, json_u64)),
        ("name".into(), Value::Str(span.name.clone())),
        ("tid".into(), json_u64(span.tid)),
        ("start_ns".into(), json_u64(span.start_ns)),
        ("dur_ns".into(), json_u64(span.dur_ns)),
        ("wall_start_us".into(), json_u64(span.wall_start_us)),
        ("attrs".into(), attrs_to_json(&span.attrs)),
        ("events".into(), events_to_json(&span.events)),
    ])
}

fn json_u64(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn field_u64(obj: &Value, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or invalid field {key:?}"))
}

fn field_str(obj: &Value, key: &str, missing: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| missing.to_string())
}

fn parent_from_json(value: Option<&Value>, invalid: &str) -> Result<Option<u64>, String> {
    match value {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| invalid.to_string()),
    }
}

fn span_from_json(obj: &Value) -> Result<Span, String> {
    Ok(Span {
        id: field_u64(obj, "id")?,
        parent: parent_from_json(obj.get("parent"), "invalid parent id")?,
        name: field_str(obj, "name", "span missing name")?,
        tid: field_u64(obj, "tid")?,
        start_ns: field_u64(obj, "start_ns")?,
        dur_ns: field_u64(obj, "dur_ns")?,
        wall_start_us: field_u64(obj, "wall_start_us")?,
        attrs: attrs_from_json(obj.get("attrs"))?,
        events: events_from_json(obj.get("events"))?,
    })
}

/// Serialize a trace as JSON Lines: a header object, then one span per line.
pub fn to_jsonl(trace: &Trace) -> String {
    let mut out = render(&Value::Map(vec![
        ("pstack_trace".into(), Value::Int(JSONL_VERSION)),
        ("dropped".into(), json_u64(trace.dropped)),
        ("spans".into(), json_u64(trace.len() as u64)),
    ]));
    out.push('\n');
    for span in &trace.spans {
        out.push_str(&render(&span_to_json(span)));
        out.push('\n');
    }
    out
}

/// Parse a JSON Lines trace produced by [`to_jsonl`].
pub fn from_jsonl(text: &str) -> Result<Trace, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = parse(lines.next().ok_or("empty trace file")?)?;
    let version = header
        .get("pstack_trace")
        .and_then(Value::as_i64)
        .ok_or("not a pstack trace (missing header)")?;
    if version != JSONL_VERSION {
        return Err(format!("unsupported trace version {version}"));
    }
    let dropped = field_u64(&header, "dropped")?;
    let mut spans = Vec::new();
    for line in lines {
        spans.push(span_from_json(&parse(line)?)?);
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    Ok(Trace { spans, dropped })
}

// -------------------------------------------------------------- chrome ----

/// Serialize a trace in Chrome `trace_event` JSON (complete "X" events,
/// timestamps in microseconds). Opens in `chrome://tracing` and Perfetto;
/// the exact span fields ride along in each event's `args` so
/// [`from_chrome`] reconstructs the trace losslessly.
pub fn to_chrome(trace: &Trace) -> String {
    let events: Vec<Value> = trace
        .spans
        .iter()
        .map(|span| {
            let mut args = vec![
                ("span_id".into(), json_u64(span.id)),
                (
                    "span_parent".into(),
                    span.parent.map_or(Value::Null, json_u64),
                ),
                ("start_ns".into(), json_u64(span.start_ns)),
                ("dur_ns".into(), json_u64(span.dur_ns)),
                ("wall_start_us".into(), json_u64(span.wall_start_us)),
                ("attrs".into(), attrs_to_json(&span.attrs)),
            ];
            if !span.events.is_empty() {
                args.push(("events".into(), events_to_json(&span.events)));
            }
            Value::Map(vec![
                ("name".into(), Value::Str(span.name.clone())),
                ("cat".into(), Value::Str("pstack".into())),
                ("ph".into(), Value::Str("X".into())),
                // Viewer timestamps are µs floats; the exact ns values are
                // in args.
                ("ts".into(), Value::Float(span.start_ns as f64 / 1e3)),
                ("dur".into(), Value::Float(span.dur_ns as f64 / 1e3)),
                ("pid".into(), Value::Int(1)),
                ("tid".into(), json_u64(span.tid)),
                ("args".into(), Value::Map(args)),
            ])
        })
        .collect();
    render(&Value::Map(vec![
        ("traceEvents".into(), Value::Seq(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        (
            "otherData".into(),
            Value::Map(vec![
                ("producer".into(), Value::Str("pstack-trace".into())),
                ("dropped".into(), json_u64(trace.dropped)),
            ]),
        ),
    ]))
}

/// Parse a Chrome `trace_event` file produced by [`to_chrome`] (complete
/// "X" events with pstack args; other phase types are ignored).
pub fn from_chrome(text: &str) -> Result<Trace, String> {
    let doc = parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let mut spans = Vec::new();
    for event in events {
        if event.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let args = event.get("args").ok_or("X event missing args")?;
        spans.push(Span {
            id: field_u64(args, "span_id")?,
            parent: parent_from_json(args.get("span_parent"), "invalid span_parent")?,
            name: field_str(event, "name", "event missing name")?,
            tid: field_u64(event, "tid")?,
            start_ns: field_u64(args, "start_ns")?,
            dur_ns: field_u64(args, "dur_ns")?,
            wall_start_us: field_u64(args, "wall_start_us")?,
            attrs: attrs_from_json(args.get("attrs"))?,
            events: events_from_json(args.get("events"))?,
        });
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    Ok(Trace { spans, dropped })
}

/// Best-effort format sniffing: Chrome files are one JSON object starting
/// with `{"traceEvents"`, JSONL files start with the header object.
pub fn from_any(text: &str) -> Result<Trace, String> {
    let head = text.trim_start();
    if head.starts_with("{\"traceEvents\"") || head.starts_with('[') {
        from_chrome(text)
    } else {
        from_jsonl(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;

    fn sample_trace() -> Trace {
        let collector = TraceCollector::new();
        {
            let mut root = collector.span("tuner.run_parallel");
            root.attr("algorithm", "random");
            root.attr("seed", 7u64);
            root.attr("frac", 0.25);
            root.attr("degraded", false);
            {
                let mut eval = root.child("eval");
                eval.attr("worker", 3usize);
                eval.event_with("cache_hit", vec![("hits".into(), AttrValue::Int(2))]);
            }
        }
        let mut trace = collector.take();
        trace.dropped = 5; // exercise drop accounting through the codecs
        trace
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let trace = sample_trace();
        let text = to_jsonl(&trace);
        assert_eq!(text.lines().count(), 1 + trace.len());
        let back = from_jsonl(&text).expect("parses");
        assert_eq!(back, trace);
    }

    #[test]
    fn chrome_round_trips_exactly() {
        let trace = sample_trace();
        let text = to_chrome(&trace);
        let back = from_chrome(&text).expect("parses");
        assert_eq!(back, trace);
    }

    #[test]
    fn chrome_output_is_viewer_shaped() {
        let text = to_chrome(&sample_trace());
        let doc = parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        assert_eq!(events.len(), 2);
        for event in events {
            assert_eq!(event.get("ph").and_then(Value::as_str), Some("X"));
            assert_eq!(event.get("cat").and_then(Value::as_str), Some("pstack"));
            assert!(event.get("ts").and_then(Value::as_f64).is_some());
            assert!(event.get("dur").and_then(Value::as_f64).is_some());
            assert!(event.get("pid").and_then(Value::as_i64).is_some());
            assert!(event.get("tid").and_then(Value::as_i64).is_some());
        }
    }

    #[test]
    fn from_any_sniffs_both_formats() {
        let trace = sample_trace();
        assert_eq!(from_any(&to_jsonl(&trace)).expect("jsonl"), trace);
        assert_eq!(from_any(&to_chrome(&trace)).expect("chrome"), trace);
    }

    #[test]
    fn tree_render_shows_hierarchy_and_attrs() {
        let rendered = render_tree(&sample_trace());
        assert!(rendered.starts_with("trace: 2 spans (5 dropped)"));
        assert!(rendered.contains("tuner.run_parallel"));
        assert!(rendered.contains("algorithm=random"));
        // The child is indented under the root, with its event.
        assert!(rendered.contains("\n  eval"));
        assert!(rendered.contains("* cache_hit"));
        assert!(rendered.contains("hits=2"));
    }

    #[test]
    fn orphaned_spans_render_as_roots() {
        let mut trace = sample_trace();
        trace.spans.retain(|s| s.name == "eval"); // parent evicted
        let rendered = render_tree(&trace);
        assert!(rendered.contains("\neval"), "orphan promoted to root");
    }

    #[test]
    fn jsonl_rejects_foreign_files() {
        assert!(from_jsonl("").is_err());
        assert!(from_jsonl("{\"not\":\"a trace\"}").is_err());
        assert!(from_jsonl("{\"pstack_trace\":99,\"dropped\":0,\"spans\":0}").is_err());
    }
}
