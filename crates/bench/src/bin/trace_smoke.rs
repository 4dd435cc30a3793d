//! `trace_smoke` — a tiny traced encode that exercises the whole
//! observability stack end to end and validates its outputs.
//!
//! ```text
//! trace_smoke [<dump.jsonl> [<phases.jsonl>]]
//! ```
//!
//! Runs a 2-slice/2-thread QCIF encode with the flight recorder on
//! (`StudyConfig::with_dump`), which writes the event dump and, next to
//! it, its Chrome trace (`<dump stem>.trace.json`), then:
//!
//! 1. checks the per-phase profile partitions the aggregate counters
//!    bit-for-bit,
//! 2. parses the emitted trace back through `testkit::json` and checks
//!    the event structure,
//! 3. writes a per-phase JSONL (one object per active phase, with
//!    modelled stall cycles) that `bench_compare --phases` consumes.
//!
//! Defaults: `TRACE_smoke.jsonl` (so `TRACE_smoke.trace.json`) and
//! `PHASES_smoke.jsonl` in the current directory. Exit 0 on success, 1
//! on a failed check, 2 on I/O errors.

use m4ps_core::memsim::MachineSpec;
use m4ps_core::vidgen::Resolution;
use m4ps_core::{encode_study, StudyConfig, Workload};
use m4ps_obs::Dump;
use m4ps_testkit::json::Json;
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let dump_path = args.next().unwrap_or_else(|| "TRACE_smoke.jsonl".into());
    let phases_path = args.next().unwrap_or_else(|| "PHASES_smoke.jsonl".into());
    if let Some(extra) = args.next() {
        return Err(format!(
            "unexpected argument {extra:?}\nusage: trace_smoke [<dump.jsonl> [<phases.jsonl>]]"
        ));
    }

    let machine = MachineSpec::o2();
    let workload = Workload {
        resolution: Resolution::QCIF,
        frames: 3,
        objects: 0,
        layers: 1,
        seed: 11,
    };
    let cfg = StudyConfig::fast()
        .with_parallel(2, 2)
        .with_dump(&dump_path);
    let run = encode_study(&machine, &workload, &cfg).map_err(|e| format!("encode: {e:?}"))?;
    let trace_path = Dump::trace_path(&dump_path);

    // 1. The profile must partition the run exactly.
    if run.profile.total() != run.metrics.counters {
        return Err(format!(
            "phase profile does not partition the aggregate counters:\n  profile {:?}\n  counters {:?}",
            run.profile.total(),
            run.metrics.counters
        ));
    }
    println!("profile partitions counters: ok");

    // 2. The trace must round-trip through the JSON parser.
    let text = std::fs::read_to_string(&trace_path).map_err(|e| format!("{trace_path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{trace_path}: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{trace_path}: missing traceEvents array"))?;
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .count();
    let metadata = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .count();
    if complete == 0 || metadata == 0 {
        return Err(format!(
            "{trace_path}: expected both span (X) and thread-name (M) events, got {complete}/{metadata}"
        ));
    }
    println!("trace round-trips: {complete} spans, {metadata} thread records ({trace_path})");

    // 3. Emit the per-phase JSONL for bench_compare --phases.
    let mut jsonl = String::new();
    for (phase, stats) in run.profile.iter() {
        if stats.entries == 0 {
            continue;
        }
        let c = &stats.counters;
        let b = machine.timing.breakdown(c);
        let line = format!(
            "{{\"phase\":\"{}\",\"entries\":{},\"refs\":{},\"l1_misses\":{},\"l2_misses\":{},\"wall_ns\":{},\"stall_cycles\":{:.1}}}",
            phase.name(),
            stats.entries,
            c.loads + c.stores,
            c.l1_misses,
            c.l2_misses,
            stats.wall_ns,
            b.l1_stall + b.dram_stall + b.tlb_stall,
        );
        Json::parse(&line).map_err(|e| format!("phases line failed to parse back: {e}"))?;
        jsonl.push_str(&line);
        jsonl.push('\n');
    }
    std::fs::write(&phases_path, &jsonl).map_err(|e| format!("{phases_path}: {e}"))?;
    println!(
        "phase profile: {} active phases ({phases_path})",
        jsonl.lines().count()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("trace_smoke: {msg}");
            ExitCode::from(1)
        }
    }
}
