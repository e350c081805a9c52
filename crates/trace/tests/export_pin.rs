//! Byte-level pins of the exported trace and profile formats.
//!
//! `results/trace_*.json` files and downstream tooling read these bytes, so
//! any change to the JSON writer (key order, float formatting, escapes,
//! non-finite handling) must show up here as a failing literal.

use pstack_trace::{
    from_chrome, from_jsonl, to_chrome, to_jsonl, AttrValue, Event, ProfileSummary, Span,
    StageStats, Trace,
};

fn fixture() -> Trace {
    let root = Span {
        id: 1,
        parent: None,
        name: "tuner.run".into(),
        tid: 0,
        start_ns: 1_000,
        dur_ns: 2_500_000,
        wall_start_us: 1_700_000_000_000_000,
        attrs: vec![
            (
                "algorithm".into(),
                AttrValue::Str("say \"hi\"\\\u{1}".into()),
            ),
            ("seed".into(), AttrValue::Int(-7)),
            ("frac".into(), AttrValue::Float(0.25)),
            ("degraded".into(), AttrValue::Bool(true)),
        ],
        events: vec![Event {
            name: "start".into(),
            at_ns: 1_500,
            attrs: Vec::new(),
        }],
    };
    let child = Span {
        id: 2,
        parent: Some(1),
        name: "eval".into(),
        tid: 3,
        start_ns: 2_000,
        dur_ns: 1_234_567,
        wall_start_us: 1_700_000_000_000_001,
        attrs: vec![("objective".into(), AttrValue::Float(f64::NAN))],
        events: vec![Event {
            name: "cache_hit".into(),
            at_ns: 3_000,
            attrs: vec![
                ("hits".into(), AttrValue::Int(2)),
                ("ratio".into(), AttrValue::Float(1.0 / 3.0)),
                ("tab\tline\n".into(), AttrValue::Bool(false)),
            ],
        }],
    };
    Trace {
        spans: vec![root, child],
        dropped: 4,
    }
}

const JSONL: &str = concat!(
    r#"{"pstack_trace":1,"dropped":4,"spans":2}"#,
    "\n",
    r#"{"id":1,"parent":null,"name":"tuner.run","tid":0,"start_ns":1000,"dur_ns":2500000,"wall_start_us":1700000000000000,"attrs":{"algorithm":"say \"hi\"\\\u0001","seed":-7,"frac":0.25,"degraded":true},"events":[{"name":"start","at_ns":1500,"attrs":{}}]}"#,
    "\n",
    r#"{"id":2,"parent":1,"name":"eval","tid":3,"start_ns":2000,"dur_ns":1234567,"wall_start_us":1700000000000001,"attrs":{"objective":null},"events":[{"name":"cache_hit","at_ns":3000,"attrs":{"hits":2,"ratio":0.3333333333333333,"tab\tline\n":false}}]}"#,
    "\n",
);

const CHROME: &str = concat!(
    r#"{"traceEvents":["#,
    r#"{"name":"tuner.run","cat":"pstack","ph":"X","ts":1.0,"dur":2500.0,"pid":1,"tid":0,"args":{"span_id":1,"span_parent":null,"start_ns":1000,"dur_ns":2500000,"wall_start_us":1700000000000000,"attrs":{"algorithm":"say \"hi\"\\\u0001","seed":-7,"frac":0.25,"degraded":true},"events":[{"name":"start","at_ns":1500,"attrs":{}}]}},"#,
    r#"{"name":"eval","cat":"pstack","ph":"X","ts":2.0,"dur":1234.567,"pid":1,"tid":3,"args":{"span_id":2,"span_parent":1,"start_ns":2000,"dur_ns":1234567,"wall_start_us":1700000000000001,"attrs":{"objective":null},"events":[{"name":"cache_hit","at_ns":3000,"attrs":{"hits":2,"ratio":0.3333333333333333,"tab\tline\n":false}}]}}"#,
    r#"],"displayTimeUnit":"ms","otherData":{"producer":"pstack-trace","dropped":4}}"#,
);

const PROFILE: &str = r#"{"wall_s":1.5,"stages":{"eval":{"count":3,"total_s":0.75,"mean_s":0.25,"p95_s":0.5,"max_s":0.5},"suggest":{"count":1,"total_s":0.1,"mean_s":0.1,"p95_s":0.1,"max_s":0.1}},"cache_hits":2,"cache_misses":3,"retries":1}"#;

#[test]
fn jsonl_bytes_are_pinned() {
    let trace = fixture();
    assert_eq!(to_jsonl(&trace), JSONL);
    let back = from_jsonl(JSONL).expect("pinned JSONL parses");
    assert_eq!(back.spans.len(), 2);
    assert_eq!(back.spans[1].parent, Some(1));
    assert_eq!(to_jsonl(&back), JSONL, "parse + re-render is stable");
}

#[test]
fn chrome_bytes_are_pinned() {
    let trace = fixture();
    assert_eq!(to_chrome(&trace), CHROME);
    let back = from_chrome(CHROME).expect("pinned Chrome trace parses");
    assert_eq!(back.dropped, 4);
    assert_eq!(to_chrome(&back), CHROME, "parse + re-render is stable");
}

#[test]
fn profile_bytes_are_pinned() {
    let stage = |count, total_s, mean_s, p95_s, max_s| StageStats {
        count,
        total_s,
        mean_s,
        p95_s,
        max_s,
    };
    let profile = ProfileSummary {
        wall_s: 1.5,
        stages: [
            ("eval".to_string(), stage(3, 0.75, 0.25, 0.5, 0.5)),
            ("suggest".to_string(), stage(1, 0.1, 0.1, 0.1, 0.1)),
        ]
        .into_iter()
        .collect(),
        cache_hits: 2,
        cache_misses: 3,
        retries: 1,
    };
    assert_eq!(serde_json::to_string(&profile).expect("renders"), PROFILE);
}
