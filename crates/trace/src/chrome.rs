//! Chrome trace event format export (loadable in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev)).
//!
//! Spans become `"ph": "X"` complete events with microsecond `ts`/`dur`;
//! gauges become `"ph": "C"` counter events; monotonic counter totals ride
//! along in a top-level `"counters"` object. All events share `pid` 1 and
//! use the tracer's per-thread registration index as `tid`.

use crate::tracer::TraceData;
use shell_util::Json;

/// Converts a snapshot to a Chrome trace JSON document.
pub fn chrome_trace(data: &TraceData) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Num(1.0)),
        ("tid", Json::Num(0.0)),
        (
            "args",
            Json::obj([("name", Json::Str("shell-lock".into()))]),
        ),
    ]));
    for t in &data.threads {
        let tid = t.thread as f64;
        for s in &t.spans {
            let mut args: Vec<(String, Json)> = Vec::new();
            if let Some((key, value)) = s.arg {
                args.push((key.to_string(), Json::Num(value)));
            }
            events.push(Json::obj([
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str(category(s.name).into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid)),
                ("args", Json::Obj(args)),
            ]));
        }
        for g in &t.gauges {
            events.push(Json::obj([
                ("name", Json::Str(g.name.into())),
                ("cat", Json::Str(category(g.name).into())),
                ("ph", Json::Str("C".into())),
                ("ts", Json::Num(g.at_ns as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid)),
                ("args", Json::obj([("value", Json::Num(g.value))])),
            ]));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
        (
            "counters",
            Json::Obj(
                data.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
    ])
}

/// The top-level component of a dotted event name (`"route.negotiate"` →
/// `"route"`), used as the Chrome `cat` field.
fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
