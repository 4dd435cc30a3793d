//! Chrome trace-event writer behind [`Dump::to_chrome_trace`](crate::Dump::to_chrome_trace).
//!
//! Emits the JSON Object Format of the Trace Event spec: a
//! `traceEvents` array of complete (`"ph": "X"`) and instant (`"ph":
//! "i"`) events plus `thread_name` / `process_labels` metadata,
//! loadable in `chrome://tracing` and Perfetto. Timestamps are
//! microseconds from the recorder epoch.

use m4ps_testkit::json::Json;

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TraceEvent {
    /// `thread_name` metadata (`"ph": "M"`).
    ThreadName {
        /// Lane id.
        tid: u32,
        /// Display name.
        name: String,
    },
    /// `process_labels` metadata (`"ph": "M"`): free-form labels shown
    /// next to the process in the trace viewer (e.g. `kernels=avx2`).
    ProcessLabel {
        /// Label text.
        label: String,
    },
    /// A closed span with numeric args (`"ph": "X"`): a coarse phase
    /// on a thread lane, or a frame (`frame 3`) on a session lane.
    Span {
        /// Display name (e.g. `frame 3`).
        name: String,
        /// Lane id.
        tid: u32,
        /// Start, nanoseconds since the dump epoch.
        ts_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
        /// Numeric args shown in the viewer's detail pane.
        args: Vec<(&'static str, f64)>,
    },
    /// An instant event (`"ph": "i"`, thread scope): a point in time
    /// with no duration — admission decisions, steals, parks, wakes.
    Instant {
        /// Display name.
        name: String,
        /// Lane id.
        tid: u32,
        /// Timestamp, nanoseconds since the dump epoch.
        ts_ns: u64,
        /// Numeric args shown in the viewer's detail pane.
        args: Vec<(&'static str, f64)>,
    },
}

const PID: f64 = 1.0;

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

impl TraceEvent {
    fn to_json(&self) -> Json {
        match self {
            TraceEvent::ThreadName { tid, name } => Json::obj(vec![
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::Num(PID)),
                ("tid", Json::Num(f64::from(*tid))),
                ("args", Json::obj(vec![("name", Json::str(name.clone()))])),
            ]),
            TraceEvent::ProcessLabel { label } => Json::obj(vec![
                ("name", Json::str("process_labels")),
                ("ph", Json::str("M")),
                ("pid", Json::Num(PID)),
                ("tid", Json::Num(0.0)),
                (
                    "args",
                    Json::obj(vec![("labels", Json::str(label.clone()))]),
                ),
            ]),
            TraceEvent::Span {
                name,
                tid,
                ts_ns,
                dur_ns,
                args,
            } => Json::obj(vec![
                ("name", Json::str(name.clone())),
                ("cat", Json::str("m4ps")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(us(*ts_ns))),
                ("dur", Json::Num(us(*dur_ns))),
                ("pid", Json::Num(PID)),
                ("tid", Json::Num(f64::from(*tid))),
                ("args", args_json(args)),
            ]),
            TraceEvent::Instant {
                name,
                tid,
                ts_ns,
                args,
            } => Json::obj(vec![
                ("name", Json::str(name.clone())),
                ("cat", Json::str("m4ps")),
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("ts", Json::Num(us(*ts_ns))),
                ("pid", Json::Num(PID)),
                ("tid", Json::Num(f64::from(*tid))),
                ("args", args_json(args)),
            ]),
        }
    }
}

fn args_json(args: &[(&'static str, f64)]) -> Json {
    Json::obj(args.iter().map(|&(k, v)| (k, Json::Num(v))).collect())
}

/// Builds the full trace document for a set of events.
pub(crate) fn chrome_trace_doc(events: &[TraceEvent]) -> Json {
    Json::obj(vec![
        (
            "traceEvents",
            Json::Arr(events.iter().map(TraceEvent::to_json).collect()),
        ),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_document_round_trips() {
        let events = vec![
            TraceEvent::ThreadName {
                tid: 0,
                name: "m4ps-0".to_string(),
            },
            TraceEvent::Span {
                name: "vop.encode".to_string(),
                tid: 0,
                ts_ns: 1_500,
                dur_ns: 2_000_000,
                args: Vec::new(),
            },
        ];
        let doc = chrome_trace_doc(&events);
        let parsed = Json::parse(&doc.pretty()).unwrap();
        let arr = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("ph").unwrap().as_str(), Some("M"));
        let x = &arr[1];
        assert_eq!(x.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(x.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(2000.0));
        assert_eq!(x.get("tid").unwrap().as_f64(), Some(0.0));
        assert_eq!(parsed.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    }
}
