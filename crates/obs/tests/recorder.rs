//! Flight-recorder contracts: ring overflow semantics under arbitrary
//! event sequences, and a pinned golden dump (with its label)
//! round-tripping through JSONL and the Chrome-trace export.
//!
//! Runs on the in-tree [`m4ps_testkit::prop`] harness; failures print a
//! replayable seed (`M4PS_PROP_REPLAY=0x...`).

use m4ps_obs::{Dump, DumpEvent, Event, EventKind, Recorder, RingInfo, NO_SESSION};
use m4ps_testkit::json::Json;
use m4ps_testkit::prop::{check, Config};
use m4ps_testkit::rng::Rng;
use m4ps_testkit::{prop_assert, prop_assert_eq};

/// A random overflow scenario: a small ring capacity and more (or
/// fewer) events than fit.
#[derive(Debug)]
struct Overflow {
    capacity: usize,
    events: usize,
}

fn overflow_case(rng: &mut Rng) -> Overflow {
    Overflow {
        capacity: rng.gen_range(1usize..=48),
        events: rng.gen_range(0usize..=160),
    }
}

/// The ring keeps exactly the newest `capacity` events in submission
/// order and counts every displaced event — no reordering, no silent
/// loss, no off-by-one at the wrap boundary.
#[test]
fn overflow_drops_oldest_keeps_order_counts_exactly() {
    check(
        "overflow_drops_oldest_keeps_order_counts_exactly",
        &Config::with_cases(64),
        overflow_case,
        |case| {
            let rec = Recorder::new(case.capacity);
            for i in 0..case.events {
                // `a` carries the submission index so survivors are
                // identifiable regardless of timestamps.
                rec.record(EventKind::FrameEnd, Some(7), i as u64, 0);
            }
            let dump = rec.snapshot();
            let expect_dropped = case.events.saturating_sub(case.capacity) as u64;
            prop_assert_eq!(dump.events_dropped, expect_dropped);
            prop_assert_eq!(dump.events.len(), case.events.min(case.capacity));
            // Survivors are exactly the newest suffix, still in order.
            let first_kept = expect_dropped;
            for (slot, e) in dump.events.iter().enumerate() {
                prop_assert_eq!(e.ev.a, first_kept + slot as u64);
            }
            // Timestamps never run backwards within the merged dump of
            // a single ring.
            prop_assert!(dump
                .events
                .windows(2)
                .all(|w| w[0].ev.ts_ns <= w[1].ev.ts_ns));
            Ok(())
        },
    );
}

/// A fixed dump covering every lane type the exporter knows: one
/// admission decision, one full frame lifecycle in a session lane, one
/// coarse phase pair and pool traffic in a worker lane.
fn golden_dump() -> Dump {
    let ev = |tid: u32, ts_ns: u64, kind: EventKind, session: u32, a: u64, b: u64| DumpEvent {
        tid,
        ev: Event {
            ts_ns,
            kind,
            session,
            a,
            b,
        },
    };
    Dump {
        capacity: 16,
        label: "kernels=scalar".to_string(),
        events_dropped: 3,
        rings: vec![
            RingInfo {
                tid: 0,
                name: "main".to_string(),
                dropped: 3,
            },
            RingInfo {
                tid: 1,
                name: "m4ps-worker-0".to_string(),
                dropped: 0,
            },
        ],
        events: vec![
            ev(0, 1_000, EventKind::SessionSubmit, 4, 0, 0),
            ev(0, 1_500, EventKind::SessionOpen, 4, 2, 0),
            ev(0, 1_600, EventKind::FrameReady, 4, 0, 0),
            ev(1, 2_000, EventKind::PhaseEnter, NO_SESSION, 1, 0),
            ev(0, 2_200, EventKind::FrameDispatch, 4, 1024, 600),
            ev(0, 2_300, EventKind::FrameStart, 4, 0, 0),
            ev(1, 4_000, EventKind::PhaseExit, NO_SESSION, 1, 0),
            ev(1, 4_100, EventKind::PoolSteal, NO_SESSION, 0, 0),
            ev(0, 5_000, EventKind::FrameEnd, 4, 0, 3_400),
            ev(0, 5_100, EventKind::AdmitReject, 9, 77_000, 0),
            ev(0, 5_200, EventKind::SessionClose, 4, 0, 0),
        ],
    }
}

/// JSONL serialization is lossless: parse(serialize(dump)) == dump,
/// including ring metadata, the label and the drop counter.
#[test]
fn golden_dump_jsonl_round_trips() {
    let dump = golden_dump();
    let text = dump.to_jsonl();
    let header = Json::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(
        header.get("label").and_then(Json::as_str),
        Some("kernels=scalar"),
        "header carries the label:\n{text}"
    );
    let back = Dump::from_jsonl(&text).expect("golden dump must parse");
    assert_eq!(back, dump);
    assert_eq!(back.label, "kernels=scalar");
    // A second generation is byte-stable (no map-iteration drift).
    assert_eq!(back.to_jsonl(), text);
}

/// A header written without a label (dumps from before the field)
/// parses with an empty one; a label set on a live recorder reaches
/// its snapshot.
#[test]
fn label_less_header_parses_as_empty() {
    let text = "{\"type\":\"header\",\"version\":1,\"capacity\":16,\"events_dropped\":0}\n\
         {\"type\":\"ring\",\"tid\":0,\"name\":\"main\",\"dropped\":0}\n\
         {\"type\":\"event\",\"tid\":0,\"ts_ns\":5,\"kind\":\"pool.park\",\"session\":null,\"a\":0,\"b\":0}\n";
    let dump = Dump::from_jsonl(text).expect("label-less header parses");
    assert_eq!(dump.label, "");
    assert_eq!(dump.capacity, 16);
    assert_eq!(dump.events.len(), 1);

    let rec = Recorder::new(4);
    assert_eq!(rec.snapshot().label, "");
    rec.set_label("kernels=avx2");
    assert_eq!(rec.snapshot().label, "kernels=avx2");
}

/// The Chrome-trace export of the golden dump carries every lane the
/// viewer needs: a named session lane with the frame span, the worker
/// lane with the phase span, and the admission instants.
#[test]
fn golden_dump_chrome_trace_has_expected_lanes() {
    let dump = golden_dump();
    let trace = dump.to_chrome_trace().pretty();
    for needle in [
        "kernels=scalar\"",    // the label in process_labels
        "\"session-4\"",       // session lane metadata
        "\"m4ps-worker-0\"",   // worker lane metadata
        "\"admission\"",       // admission lane metadata
        "\"frame 0\"",         // FrameDispatch..FrameEnd span
        "\"admit.reject s9\"", // admission instant, tagged with session
        "\"pool.steal\"",      // worker instant
        "\"X\"",               // at least one complete span
        "\"i\"",               // at least one instant
    ] {
        assert!(
            trace.contains(needle),
            "chrome trace missing {needle}:\n{trace}"
        );
    }
}
