//! Golden test: a 2-slice/2-thread study with the flight recorder on
//! writes a dump whose Chrome trace-event export round-trips through
//! `testkit::json`, with properly nested spans, per-lane metadata, the
//! kernel-tier label, and exactly one span per profiled coarse phase
//! entry — the recorder is the study's only timeline.

use m4ps_core::memsim::MachineSpec;
use m4ps_core::vidgen::Resolution;
use m4ps_core::{
    decode_study_with, encode_study, prepare_streams, RunResult, StudyConfig, Workload,
};
use m4ps_obs::{Dump, Phase};
use m4ps_testkit::json::Json;

fn workload() -> Workload {
    Workload {
        resolution: Resolution::QCIF,
        frames: 3,
        objects: 0,
        layers: 1,
        seed: 7,
    }
}

/// Runs `study` with a dump written under a per-test temp name and
/// returns the run, the parsed dump and the parsed Chrome trace.
fn with_dump(tag: &str, study: impl FnOnce(StudyConfig) -> RunResult) -> (RunResult, Dump, Json) {
    let path = std::env::temp_dir().join(format!(
        "m4ps_trace_export_{tag}_{}.jsonl",
        std::process::id()
    ));
    let path_str = path.to_str().unwrap().to_string();
    let run = study(StudyConfig::fast().with_parallel(2, 2).with_dump(&path_str));
    let trace_path = Dump::trace_path(&path_str);
    let jsonl = std::fs::read_to_string(&path).unwrap();
    let text = std::fs::read_to_string(&trace_path).unwrap();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&trace_path).ok();
    let dump = Dump::from_jsonl(&jsonl).expect("dump parses");
    let doc = Json::parse(&text).expect("trace file is valid JSON");
    (run, dump, doc)
}

/// Checks the trace's structure and returns its `X` spans as
/// `(name, tid, ts, dur)`.
fn check_trace(run: &RunResult, dump: &Dump, doc: &Json) -> Vec<(String, u32, f64, f64)> {
    let tier = m4ps_core::dsp::active_tier();
    let kernels = format!("kernels={}", tier.name());
    assert_eq!(
        dump.events_dropped, 0,
        "the study's rings must not overflow"
    );
    assert_eq!(
        dump.label, kernels,
        "the dump header carries the tier label"
    );
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut spans: Vec<(String, u32, f64, f64)> = Vec::new(); // name, tid, ts, dur
    let mut named_tids = Vec::new();
    let mut process_labels = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
        assert_eq!(ev.get("pid").and_then(Json::as_f64), Some(1.0));
        match ph {
            "X" => {
                let name = ev.get("name").and_then(Json::as_str).unwrap().to_string();
                let tid = ev.get("tid").and_then(Json::as_f64).unwrap() as u32;
                let ts = ev.get("ts").and_then(Json::as_f64).unwrap();
                let dur = ev.get("dur").and_then(Json::as_f64).unwrap();
                assert_eq!(ev.get("cat").and_then(Json::as_str), Some("m4ps"));
                spans.push((name, tid, ts, dur));
            }
            "i" => assert_eq!(ev.get("cat").and_then(Json::as_str), Some("m4ps")),
            "M" => match ev.get("name").and_then(Json::as_str) {
                Some("thread_name") => {
                    let tid = ev.get("tid").and_then(Json::as_f64).unwrap() as u32;
                    let label = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .unwrap();
                    assert!(!label.is_empty(), "lane {tid} has an empty name");
                    named_tids.push(tid);
                }
                Some("process_labels") => {
                    let labels = ev
                        .get("args")
                        .and_then(|a| a.get("labels"))
                        .and_then(Json::as_str)
                        .unwrap();
                    assert!(
                        labels.contains(&kernels),
                        "process label {labels:?} lacks {kernels}"
                    );
                    process_labels += 1;
                }
                other => panic!("unexpected metadata event {other:?}"),
            },
            other => panic!("unexpected event phase {other:?}"),
        }
    }

    // The kernel-tier process label is recorded exactly once.
    assert_eq!(process_labels, 1, "expected one process_labels record");

    // Every span's lane has a name record.
    for (name, tid, _, _) in &spans {
        assert!(named_tids.contains(tid), "span {name} on unnamed tid {tid}");
    }

    // The root span is a single `run` covering every other span on its
    // lane (coarse spans nest strictly).
    let runs: Vec<_> = spans.iter().filter(|(n, ..)| n == "run").collect();
    assert_eq!(runs.len(), 1, "exactly one root run span");
    let (_, run_tid, run_ts, run_dur) = runs[0];
    for (name, tid, ts, dur) in &spans {
        if tid == run_tid {
            assert!(
                *ts >= *run_ts && ts + dur <= run_ts + run_dur + 1e-6,
                "span {name} escapes the run span"
            );
        }
    }

    // One span per profiled entry of every coarse phase: the trace and
    // the profile see the same spans.
    for phase in Phase::ALL.into_iter().filter(|p| p.is_coarse()) {
        let traced = spans.iter().filter(|(n, ..)| n == phase.name()).count() as u64;
        assert_eq!(
            traced,
            run.profile.get(phase).entries,
            "{} spans vs profile entries",
            phase.name()
        );
    }
    spans
}

#[test]
fn traced_encode_emits_valid_chrome_trace() {
    let (run, dump, doc) = with_dump("encode", |cfg| {
        encode_study(&MachineSpec::o2(), &workload(), &cfg).unwrap()
    });
    let spans = check_trace(&run, &dump, &doc);

    // Per-VOP spans nest inside the run, and slice spans exist (one per
    // slice per VOP; a 2-slice encode of 3 frames gives at least 6).
    let vops = spans.iter().filter(|(n, ..)| n == "vop.encode").count();
    assert!(vops >= 3, "expected >=3 vop.encode spans, got {vops}");
    let slices = spans.iter().filter(|(n, ..)| n == "slice").count();
    assert!(slices >= 6, "expected >=6 slice spans, got {slices}");
}

#[test]
fn traced_decode_spans_match_profile_entries() {
    let w = workload();
    let streams = prepare_streams(&w, &StudyConfig::fast().with_parallel(2, 2)).unwrap();
    let (run, dump, doc) = with_dump("decode", |cfg| {
        decode_study_with(&MachineSpec::o2(), &w, &streams, &cfg).unwrap()
    });
    let spans = check_trace(&run, &dump, &doc);
    let vops = spans.iter().filter(|(n, ..)| n == "vop.decode").count();
    assert!(vops >= 3, "expected >=3 vop.decode spans, got {vops}");
}

/// Number of `run` spans in the Chrome trace next to the dump at `path`;
/// removes the dump and its trace.
fn run_spans_and_remove(path: &str) -> usize {
    let trace_path = Dump::trace_path(path);
    let jsonl = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let text = std::fs::read_to_string(&trace_path).unwrap();
    std::fs::remove_file(path).ok();
    std::fs::remove_file(&trace_path).ok();
    Dump::from_jsonl(&jsonl).expect("dump parses");
    let doc = Json::parse(&text).expect("trace file is valid JSON");
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|ev| {
            ev.get("ph").and_then(Json::as_str) == Some("X")
                && ev.get("name").and_then(Json::as_str) == Some("run")
        })
        .count()
}

#[test]
fn studies_sharing_a_dump_path_each_keep_their_dump() {
    let path = std::env::temp_dir().join(format!(
        "m4ps_trace_export_repeat_{}.jsonl",
        std::process::id()
    ));
    let path_str = path.to_str().unwrap().to_string();
    let cfg = StudyConfig::fast().with_dump(&path_str);
    for _ in 0..2 {
        encode_study(&MachineSpec::o2(), &workload(), &cfg).unwrap();
    }
    // The first study keeps the path; the second writes `<stem>.1.jsonl`.
    for dump in [path_str.clone(), Dump::repeat_path(&path_str, 1)] {
        assert_eq!(run_spans_and_remove(&dump), 1, "{dump}: one run span");
    }
}
