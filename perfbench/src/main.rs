//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <study_o2|codec_null|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--state <digest ledger path>]
//! ```
//!
//! Prints a human-readable report, then one JSON result line.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use m4ps_pool::WorkerPool;
use perfbench::host;
use perfbench::report::{machine_stamp, DigestLedger, Report};
use perfbench::scene::digest;
use perfbench::stats::median;
use perfbench::{codec, layers, serve, study};

/// The workloads, in the order their stages run.
const WORKLOADS: [&str; 3] = ["study_o2", "codec_null", "serve_mix"];

/// Rounds the untraced run is split into.
const ROUNDS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    state: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        state: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--state" => args.state = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Everything set-up builds: inputs for every stage plus the shared pool.
struct Inputs {
    study: study::Inputs,
    codec: Vec<perfbench::scene::Clip>,
    serve: serve::Inputs,
    pool: Arc<WorkerPool>,
}

fn setup(seed: u64, nproc: usize) -> Result<Inputs, String> {
    let err = |e: m4ps_codec::CodecError| format!("set-up failed: {e:?}");
    Ok(Inputs {
        study: study::setup(seed).map_err(err)?,
        codec: codec::setup(seed),
        serve: serve::setup(seed).map_err(err)?,
        pool: Arc::new(WorkerPool::new(nproc)),
    })
}

/// Digest of everything set-up produced (must repeat exactly).
fn inputs_digest(i: &Inputs) -> u64 {
    let mut parts: Vec<u64> = i
        .study
        .streams
        .iter()
        .map(|s| perfbench::scene::digest_streams(s))
        .collect();
    parts.extend(
        i.codec
            .iter()
            .flat_map(|c| &c.frames)
            .map(|f| digest([f.y.as_slice(), &f.u, &f.v])),
    );
    parts.extend(&i.serve.reference);
    let bytes: Vec<u8> = parts.iter().flat_map(|p| p.to_le_bytes()).collect();
    digest([bytes.as_slice()])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut report = Report::default();

    // Set-up, repeated: inputs are built from the seed alone, so every
    // repetition must produce identical inputs. An untraced run repeats
    // set-up after rounds 1, 3 and 5, so the repetitions `setup_s` is the
    // median of are spread over the run like the stages' own repetitions,
    // and a host stall touches a minority of them. The host probe is read
    // before each, on one thread like most of set-up.
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut timed_setup = || -> Option<Inputs> {
        host::sample(1);
        let t = Instant::now();
        match setup(args.seed, nproc) {
            Ok(i) => {
                setup_s.push(t.elapsed().as_secs_f64());
                digests.push(inputs_digest(&i));
                Some(i)
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                None
            }
        }
    };
    let Some(inputs) = timed_setup() else {
        return ExitCode::from(1);
    };
    let mut ledger = DigestLedger::open(args.state.as_deref(), args.seed);
    let total = Duration::from_secs_f64(args.seconds);
    if args.trace {
        if timed_setup().is_none() {
            return ExitCode::from(1);
        }
        layers::traced(
            &args.workload,
            &inputs.study,
            &inputs.codec,
            &inputs.serve,
            &inputs.pool,
            total,
            &mut report,
        );
    } else {
        // The named workload's stage gets 40% of the budget and the other
        // two 30% each, so every run reports every end-to-end metric with
        // enough repetitions to take medians over. Rounds interleave the
        // stages: a host stall of a few seconds then touches a minority
        // of each stage's repetitions.
        let share = |w: &str| if w == args.workload { 0.4 } else { 0.3 };
        let round = |w: &str| total.mul_f64(share(w) / ROUNDS as f64);
        let mut study = study::Stage::new(&inputs.study);
        let mut codec = codec::Stage::new(&inputs.codec, &inputs.pool);
        let mut serve = serve::Stage::new(&inputs.serve);
        for r in 0..ROUNDS {
            study.round(round("study_o2"), &mut report);
            codec.round(round("codec_null"), &mut report);
            serve.round(round("serve_mix"), &mut report);
            if r % 2 == 0 && timed_setup().is_none() {
                return ExitCode::from(1);
            }
        }
        study.finish(&mut ledger, &mut report);
        codec.finish(&mut ledger, &mut report);
        serve.finish(&mut report);
        let (runs, wrong) = host::runs();
        report.check(
            "host probe runs return their checksum",
            runs > 0 && wrong == 0,
            &format!("{wrong} of {runs} runs wrong"),
        );
    }
    report.check(
        "set-up inputs identical across repetitions",
        digests.windows(2).all(|w| w[0] == w[1]),
        &format!("{:016x} × {}", digests[0], digests.len()),
    );
    let (ok, detail) = ledger.observe("inputs", digests[0]);
    report.check("set-up inputs repeat across runs", ok, &detail);
    if !args.trace {
        let (slowdown, probes) = host::slowdown();
        report.raw("host.slowdown", "ratio", slowdown);
        report.raw("host.probes", "count", probes as f64);
        report.raw("setup_s", "s", median(&setup_s));
        report.metric("setup_s", "s", median(&setup_s) / slowdown, setup_s.len());
        let ok_ratio = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.metric("ok_ratio", "ratio", ok_ratio, report.attempted as usize);
    }
    ledger.save();
    let header = format!(
        "perfbench workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine_stamp()
    );
    print!("{}", report.render(&header));
    ExitCode::SUCCESS
}
