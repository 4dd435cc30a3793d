//! Self-tests of the benchmark's own arithmetic and instrumentation.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Arc;

use m4ps_codec::EncoderConfig;
use m4ps_memsim::{AccessKind, Hierarchy, MachineSpec, MemModel, ParallelModel};
use m4ps_obs::{DumpEvent, Event, EventKind, NO_SESSION};
use m4ps_pool::WorkerPool;
use m4ps_vidgen::Resolution;
use perfbench::counting::Counting;
use perfbench::scene::{encode, Clip};
use perfbench::serve::analyze;
use perfbench::stats::{beyond, highest_supported, percentile, Positions, Samples, MIN_BEYOND};
use perfbench::{host, study};

#[test]
fn nearest_rank_percentiles_on_a_known_distribution() {
    let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 0.5), 500.0);
    assert_eq!(percentile(&sorted, 0.9), 900.0);
    assert_eq!(percentile(&sorted, 0.99), 990.0);
    assert_eq!(percentile(&sorted, 1.0), 1000.0);
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(beyond(100, 0.9), 10);
    assert_eq!(beyond(999, 0.99), 9);
}

#[test]
fn highest_percentile_keeps_ten_samples_beyond_it() {
    let qs = [0.5, 0.9, 0.99, 0.999];
    assert_eq!(highest_supported(10_000, &qs), Some(0.999));
    assert_eq!(highest_supported(1000, &qs), Some(0.99));
    assert_eq!(highest_supported(999, &qs), Some(0.9));
    assert_eq!(highest_supported(100, &qs), Some(0.9));
    assert_eq!(highest_supported(99, &qs), Some(0.5));
    assert_eq!(highest_supported(19, &qs), None);
    let s = Samples::new((0..999).map(f64::from).collect());
    assert!(
        s.pct(0.99).is_none(),
        "p99 of 999 samples has only 9 beyond it"
    );
    assert!(s.pct(0.9).is_some());
    const { assert!(MIN_BEYOND == 10) };
}

#[test]
fn percentiles_never_exceed_the_maximum() {
    // A heavy tail with one extreme outlier: log2-bucket interpolation
    // can overshoot max here; nearest rank cannot.
    let mut v: Vec<f64> = (0..2000).map(|i| 1.0 + (i % 97) as f64 * 0.37).collect();
    v.extend((0..30).map(|i| 500.0 + i as f64));
    v.push(762.1);
    let s = Samples::new(v.clone());
    let max = s.max().unwrap();
    assert_eq!(max, 762.1);
    for q in [0.5, 0.9, 0.99] {
        let p = s.pct(q).unwrap();
        assert!(p <= max, "p{q} {p} > max {max}");
        assert!(v.contains(&p), "p{q} {p} is not an observed sample");
    }
    assert_eq!(
        s.median(),
        Some(percentile(
            &{
                let mut c = v;
                c.sort_by(f64::total_cmp);
                c
            },
            0.5
        ))
    );
}

fn ev(ts_ns: u64, kind: EventKind, session: u32, a: u64, b: u64) -> DumpEvent {
    DumpEvent {
        tid: 0,
        ev: Event {
            ts_ns,
            kind,
            session,
            a,
            b,
        },
    }
}

#[test]
fn due_time_latency_counts_arrival_lag_that_frame_latency_hides() {
    let anchor = 1_000;
    // Session 0 is due at the anchor and submitted on time; session 1
    // is due 500 ns later but the arrival loop runs 400 ns late.
    let due = [0, 500];
    let decode = [false, true];
    let events = vec![
        ev(1_000, EventKind::SessionSubmit, 0, 0, 0),
        ev(1_100, EventKind::SessionOpen, 0, 1, 0),
        ev(1_100, EventKind::FrameReady, 0, 0, 0),
        ev(1_150, EventKind::FrameDispatch, 0, 0, 50),
        ev(1_200, EventKind::FrameStart, 0, 0, 0),
        ev(1_700, EventKind::FrameEnd, 0, 0, 600),
        ev(1_800, EventKind::SessionClose, 0, 0, 0),
        ev(1_850, EventKind::PoolQueue, NO_SESSION, 0, 0),
        ev(1_900, EventKind::SessionSubmit, 1, 0, 0),
        ev(2_000, EventKind::SessionOpen, 1, 1, 0),
        ev(2_000, EventKind::FrameReady, 1, 0, 0),
        ev(2_050, EventKind::FrameDispatch, 1, 0, 50),
        ev(2_100, EventKind::FrameStart, 1, 0, 0),
        ev(2_300, EventKind::FrameEnd, 1, 0, 300),
        ev(2_400, EventKind::SessionClose, 1, 0, 0),
    ];
    let a = analyze(&events, anchor, &due, &decode);
    assert_eq!(a.frame_latency, vec![600.0, 300.0]);
    // Due → close: 1800-1000 and 2400-1500; frame latency alone would
    // miss session 1's 400 ns of arrival lag.
    assert_eq!(a.session_latency, vec![800.0, 900.0]);
    assert_eq!(a.frame_pos, vec![(0, 0), (1, 0)]);
    assert_eq!(a.session_pos, vec![0, 1]);
    assert_eq!(a.gen_lag, vec![0.0, 400.0]);
    assert_eq!(a.open, vec![100.0, 100.0]);
    assert_eq!(a.dispatch_wait, vec![50.0, 50.0]);
    assert_eq!(a.step_encode, vec![500.0]);
    assert_eq!(a.step_decode, vec![200.0]);
    assert_eq!(a.busy_ns, 700.0);
    assert_eq!(a.span_ns, 1_400.0);
    assert_eq!(a.not_completed, 0);
    assert_eq!(a.pool, [1, 0, 0, 0]);
    assert_eq!(a.events, events.len());
}

#[test]
fn counting_wrapper_is_transparent_through_fork_and_absorb() {
    let o2 = MachineSpec::o2();
    let mut bare = Hierarchy::new(o2.clone());
    let mut counted = Counting::new(Hierarchy::new(o2));
    let drive = |m: &mut dyn FnMut(u64)| {
        for i in 0..2_000u64 {
            m(i);
        }
    };
    drive(&mut |i| bare.access_range(i * 40, 24, AccessKind::Load, 3));
    drive(&mut |i| counted.access_range(i * 40, 24, AccessKind::Load, 3));
    let (mut bf, mut bg) = (bare.fork(), bare.fork());
    let (mut cf, mut cg) = (counted.fork(), counted.fork());
    assert_eq!((cf.calls(), cf.bytes()), (0, 0), "forks start at zero");
    for i in 0..500u64 {
        bf.access_rect(i * 64, 720, 16, 16, AccessKind::Load, 16);
        cf.access_rect(i * 64, 720, 16, 16, AccessKind::Load, 16);
        bg.access_range((1 << 20) | (i * 8), 8, AccessKind::Store, 1);
        cg.access_range((1 << 20) | (i * 8), 8, AccessKind::Store, 1);
        bg.prefetch_pair(i * 128);
        cg.prefetch_pair(i * 128);
        bf.add_ops(7);
        cf.add_ops(7);
    }
    bare.absorb(bf);
    bare.absorb(bg);
    counted.absorb(cf);
    counted.absorb(cg);
    assert_eq!(counted.counters(), bare.counters());
    assert_eq!(counted.calls(), 2_000 + 4 * 500);
    assert_eq!(counted.bytes(), 2_000 * 24 + 500 * 256 + 500 * 8);
}

#[test]
fn counting_wrapper_leaves_a_sliced_encode_bit_identical() {
    let clip = Clip::generate(Resolution::QCIF, 0, 1, 3, 11);
    let config = EncoderConfig::fast_test().with_slices(3);
    let pool = Arc::new(WorkerPool::new(2));
    let mut bare = Hierarchy::new(MachineSpec::o2());
    let mut counted = Counting::new(Hierarchy::new(MachineSpec::o2()));
    let a = encode(&mut bare, &clip, config, &pool, None, |sp, m| {
        m.attach_regions(sp.regions())
    })
    .unwrap();
    let b = encode(&mut counted, &clip, config, &pool, None, |sp, m| {
        m.inner_mut().attach_regions(sp.regions())
    })
    .unwrap();
    assert_eq!(a.streams, b.streams);
    assert_eq!(bare.counters(), counted.counters());
    assert!(
        counted.calls() > 10_000,
        "the encode charged through the wrapper"
    );
}

#[test]
fn position_medians_ignore_a_stalled_repetition() {
    let mut p = Positions::default();
    for rep in 0..5 {
        for pos in 0..100 {
            // Position `pos` costs pos + 1; repetition 2 is stalled
            // tenfold everywhere.
            let stall = if rep == 2 { 10.0 } else { 1.0 };
            p.push(pos, (pos + 1) as f64 * stall);
        }
    }
    assert_eq!((p.len(), p.repetitions(), p.samples()), (100, 5, 500));
    assert_eq!(p.pct(0.5), Some(50.0));
    assert_eq!(p.pct(0.9), Some(90.0));
    // One position lies beyond p99: five measurements, fewer than ten.
    assert_eq!(p.pct(0.99), None);
}

#[test]
fn host_probe_does_fixed_work_and_yields_a_slowdown() {
    assert_eq!(host::simulate(), host::CHECKSUM);
    let ms = host::probe();
    assert!(ms > 0.0 && ms.is_finite(), "probe reading {ms}");
    host::sample(2);
    let (slowdown, readings) = host::slowdown();
    assert!(readings >= 1);
    assert!(
        slowdown > 0.0 && slowdown.is_finite(),
        "slowdown {slowdown}"
    );
    let (runs, wrong) = host::runs();
    assert!(runs >= 3 * 3 && wrong == 0);
}

#[test]
fn study_contents_have_the_target_object_area() {
    let (target, tolerance) = study::AREA;
    for seed in 1..=4 {
        let w = study::workloads(seed);
        assert_eq!(w[0].seed, w[1].seed, "both study workloads share a content");
        let area = study::object_area(w[1].seed) as f64;
        assert!(
            (area / target as f64 - 1.0).abs() <= tolerance,
            "seed {seed}: area {area}"
        );
    }
    assert_ne!(study::workloads(1)[1].seed, study::workloads(2)[1].seed);
}
