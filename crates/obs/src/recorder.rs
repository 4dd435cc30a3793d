//! Always-on flight recorder: per-thread fixed-capacity event rings.
//!
//! The profiler answers *where counters went*; the recorder
//! answers *what the service did and when*. Every participating thread
//! owns a fixed-capacity ring of compact binary [`Event`]s — frame-job
//! lifecycle, WFQ picks with their virtual time, admission rejects and
//! sheds with the triggering p99, pool steal/park/wake, session
//! open/close, coarse phase enter/exit. Recording is drop-oldest: under
//! overload the newest events survive, memory stays bounded at
//! `capacity × 40 bytes` per thread, and every displaced event is
//! tallied in an explicit `events_dropped` counter so a dump can never
//! silently pretend to be complete.
//!
//! On an anomaly (shed, reject, SLO breach, worker panic — see
//! `m4ps-serve`) the rings are snapshotted into a [`Dump`]: a JSONL
//! document (one self-describing object per event) plus a Chrome
//! trace-event export with one lane per session and one per worker,
//! built on the `trace` writer. `m4ps-obs` analyzes dumps offline.
//!
//! The recorder is the only timeline: a study's Chrome trace is the
//! export of its dump, and the recorder's [label](Recorder::set_label)
//! (`kernels=<tier>`) travels in the JSONL header and the trace's
//! `process_labels` record.
//!
//! # Hot-path cost
//!
//! [`Recorder::record`] is one thread-local lookup, one `Instant`
//! sample, and one push into the calling thread's own ring behind an
//! uncontended mutex (only a snapshot ever contends). Events are
//! recorded at service/scheduler granularity (per frame job, per steal,
//! per coarse phase) — never per macroblock — so the recorder-on
//! encode overhead is gated in CI at ≤ 8% next to the profiler's ≤ 8%.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use crate::trace::{chrome_trace_doc, TraceEvent};
use m4ps_testkit::json::Json;

/// `session` value for events not tied to any session.
pub const NO_SESSION: u32 = u32::MAX;

/// `session.close` outcome codes carried in the event's `a` payload,
/// shared between the recording service and offline analyzers.
pub mod outcome {
    /// Encoded every frame.
    pub const COMPLETED: u64 = 0;
    /// Refused at submit by admission control.
    pub const REJECTED: u64 = 1;
    /// Admitted, then cancelled under sustained overload.
    pub const SHED: u64 = 2;
    /// Ended early by a codec error or worker panic.
    pub const FAILED: u64 = 3;

    /// Human name for an outcome code (`"?"` when out of range).
    pub fn name(code: u64) -> &'static str {
        match code {
            COMPLETED => "completed",
            REJECTED => "rejected",
            SHED => "shed",
            FAILED => "failed",
            _ => "?",
        }
    }
}

/// Default ring capacity (events per thread) when a caller does not
/// choose one: 4096 × 40 B = 160 KiB per participating thread.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// What happened. Payload fields `a`/`b` are per-kind (documented on
/// each variant); `session` is the service session id or [`NO_SESSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A session arrived at the service (before admission).
    SessionSubmit,
    /// Admission accepted the session. `a` = WFQ weight.
    SessionOpen,
    /// The session left the service. `a` = outcome: 0 completed,
    /// 1 rejected, 2 shed, 3 failed.
    SessionClose,
    /// Admission control refused the session at submit. `a` = the
    /// windowed queue-wait p99 (ns) that triggered the reject.
    AdmitReject,
    /// An admitted zero-progress session was cancelled under sustained
    /// overload. `a` = the windowed queue-wait p99 (ns) that triggered.
    SessionShed,
    /// A frame job became ready for the WFQ scheduler. `a` = frame
    /// index.
    FrameReady,
    /// The WFQ scheduler picked this session's job (min virtual time).
    /// `a` = the session's virtual time at pick, `b` = ns the job
    /// waited ready→dispatch.
    FrameDispatch,
    /// The frame job started encoding. `a` = frame index.
    FrameStart,
    /// The frame job finished. `a` = frame index, `b` = ready→encoded
    /// latency in ns.
    FrameEnd,
    /// A frame's latency crossed the configured SLO. `a` = latency ns,
    /// `b` = SLO ns.
    SloBreach,
    /// A codec task panicked under a driver. `a` = frame index.
    WorkerPanic,
    /// A task was pushed into the pool. `a` = destination deque index,
    /// or `u64::MAX` for the shared injector.
    PoolQueue,
    /// A task was taken from another worker's deque. `a` = victim deque
    /// index.
    PoolSteal,
    /// A pool worker parked (no work anywhere).
    PoolPark,
    /// A parked pool worker woke to new work.
    PoolWake,
    /// A coarse profiler phase opened. `a` = phase index
    /// (`Phase::ALL[a]`).
    PhaseEnter,
    /// A coarse profiler phase closed. `a` = phase index.
    PhaseExit,
}

impl EventKind {
    /// Every kind, indexable by discriminant.
    pub const ALL: [EventKind; 17] = [
        EventKind::SessionSubmit,
        EventKind::SessionOpen,
        EventKind::SessionClose,
        EventKind::AdmitReject,
        EventKind::SessionShed,
        EventKind::FrameReady,
        EventKind::FrameDispatch,
        EventKind::FrameStart,
        EventKind::FrameEnd,
        EventKind::SloBreach,
        EventKind::WorkerPanic,
        EventKind::PoolQueue,
        EventKind::PoolSteal,
        EventKind::PoolPark,
        EventKind::PoolWake,
        EventKind::PhaseEnter,
        EventKind::PhaseExit,
    ];

    /// Stable dotted name used in the dump JSONL.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SessionSubmit => "session.submit",
            EventKind::SessionOpen => "session.open",
            EventKind::SessionClose => "session.close",
            EventKind::AdmitReject => "admit.reject",
            EventKind::SessionShed => "session.shed",
            EventKind::FrameReady => "frame.ready",
            EventKind::FrameDispatch => "frame.dispatch",
            EventKind::FrameStart => "frame.start",
            EventKind::FrameEnd => "frame.end",
            EventKind::SloBreach => "slo.breach",
            EventKind::WorkerPanic => "worker.panic",
            EventKind::PoolQueue => "pool.queue",
            EventKind::PoolSteal => "pool.steal",
            EventKind::PoolPark => "pool.park",
            EventKind::PoolWake => "pool.wake",
            EventKind::PhaseEnter => "phase.enter",
            EventKind::PhaseExit => "phase.exit",
        }
    }

    /// Inverse of [`EventKind::name`] (dump parsing).
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One compact recorded event: 40 bytes, plain data, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Service session id, or [`NO_SESSION`].
    pub session: u32,
    /// First per-kind payload word (see [`EventKind`]).
    pub a: u64,
    /// Second per-kind payload word.
    pub b: u64,
}

/// Fixed-capacity drop-oldest buffer of [`Event`]s.
struct RingBuf {
    buf: Vec<Event>,
    /// Index of the oldest event when full; insertion point otherwise.
    head: usize,
    full: bool,
}

impl RingBuf {
    fn with_capacity(capacity: usize) -> Self {
        RingBuf {
            buf: Vec::with_capacity(capacity),
            head: 0,
            full: false,
        }
    }

    /// Pushes `ev`, returning `true` when an old event was displaced.
    fn push(&mut self, ev: Event) -> bool {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
            false
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.len();
            self.full = true;
            true
        }
    }

    /// Surviving events, oldest first.
    fn in_order(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// One thread's ring plus its identity.
struct Ring {
    tid: u32,
    name: String,
    buf: Mutex<RingBuf>,
    dropped: AtomicU64,
}

struct RecorderShared {
    capacity: usize,
    epoch: Instant,
    label: Mutex<String>,
    rings: Mutex<Vec<Arc<Ring>>>,
    next_tid: AtomicU32,
}

thread_local! {
    /// This thread's ring for each live recorder it has recorded into.
    /// Keyed by a weak handle so a dead recorder's slot is reclaimed on
    /// the next lookup rather than pinning the rings forever.
    static THREAD_RINGS: RefCell<Vec<(Weak<RecorderShared>, Arc<Ring>)>> =
        const { RefCell::new(Vec::new()) };
}

/// The flight recorder: cheap to clone (an `Arc`), recording from any
/// thread into that thread's own ring.
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<RecorderShared>,
}

impl Recorder {
    /// Creates a recorder whose per-thread rings hold `capacity` events
    /// each (0 picks [`DEFAULT_RING_CAPACITY`]).
    pub fn new(capacity: usize) -> Self {
        Recorder {
            shared: Arc::new(RecorderShared {
                capacity: if capacity == 0 {
                    DEFAULT_RING_CAPACITY
                } else {
                    capacity
                },
                epoch: Instant::now(),
                label: Mutex::new(String::new()),
                rings: Mutex::new(Vec::new()),
                next_tid: AtomicU32::new(0),
            }),
        }
    }

    /// Per-thread ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Sets the free-form label the recorder's dumps carry (a study
    /// writes `kernels=<tier>`, the SIMD tier that produced the run).
    pub fn set_label(&self, label: &str) {
        label.clone_into(&mut self.shared.label.lock().expect("label lock"));
    }

    /// Nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.shared.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one event into the calling thread's ring, stamping the
    /// recorder-epoch timestamp. `session` is `Some(id)` for
    /// service-session events, `None` otherwise.
    pub fn record(&self, kind: EventKind, session: Option<u32>, a: u64, b: u64) {
        let ev = Event {
            ts_ns: self.now_ns(),
            kind,
            session: session.unwrap_or(NO_SESSION),
            a,
            b,
        };
        let ring = self.thread_ring();
        let displaced = ring.buf.lock().expect("ring lock").push(ev);
        if displaced {
            ring.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total events displaced by ring overflow, across all threads.
    pub fn events_dropped(&self) -> u64 {
        self.shared
            .rings
            .lock()
            .expect("rings lock")
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// This thread's ring for this recorder, registering one on first
    /// use. Dead recorders' slots are pruned on the way.
    fn thread_ring(&self) -> Arc<Ring> {
        THREAD_RINGS.with(|slot| {
            let mut rings = slot.borrow_mut();
            rings.retain(|(w, _)| w.strong_count() > 0);
            if let Some((_, ring)) = rings
                .iter()
                .find(|(w, _)| w.upgrade().is_some_and(|s| Arc::ptr_eq(&s, &self.shared)))
            {
                return ring.clone();
            }
            let tid = self.shared.next_tid.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_owned);
            let ring = Arc::new(Ring {
                tid,
                name,
                buf: Mutex::new(RingBuf::with_capacity(self.shared.capacity)),
                dropped: AtomicU64::new(0),
            });
            self.shared
                .rings
                .lock()
                .expect("rings lock")
                .push(ring.clone());
            rings.push((Arc::downgrade(&self.shared), ring.clone()));
            ring
        })
    }

    /// Snapshots every ring into a [`Dump`]: surviving events merged
    /// and sorted by timestamp, per-ring identities and drop counts
    /// preserved. Recording may continue concurrently; the snapshot is
    /// consistent per ring.
    pub fn snapshot(&self) -> Dump {
        let rings = self.shared.rings.lock().expect("rings lock");
        let mut infos = Vec::with_capacity(rings.len());
        let mut events = Vec::new();
        for ring in rings.iter() {
            let in_order = ring.buf.lock().expect("ring lock").in_order();
            infos.push(RingInfo {
                tid: ring.tid,
                name: ring.name.clone(),
                dropped: ring.dropped.load(Ordering::Relaxed),
            });
            events.extend(
                in_order
                    .into_iter()
                    .map(|ev| DumpEvent { tid: ring.tid, ev }),
            );
        }
        drop(rings);
        // Stable on (ts, tid) so equal timestamps keep a deterministic
        // order and the JSONL round-trips bit-for-bit.
        events.sort_by_key(|e| (e.ev.ts_ns, e.tid));
        Dump {
            capacity: self.shared.capacity,
            label: self.shared.label.lock().expect("label lock").clone(),
            events_dropped: infos.iter().map(|r| r.dropped).sum(),
            rings: infos,
            events,
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.shared.capacity)
            .field("events_dropped", &self.events_dropped())
            .finish()
    }
}

/// Identity and drop count of one thread's ring inside a [`Dump`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingInfo {
    /// Recorder-local thread id (the dump's worker-lane key).
    pub tid: u32,
    /// OS thread name at first record (`m4ps-worker-3`, …).
    pub name: String,
    /// Events this ring displaced (drop-oldest overflow).
    pub dropped: u64,
}

/// One event with the ring (thread) it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumpEvent {
    /// Ring id — join against [`Dump::rings`] for the thread name.
    pub tid: u32,
    /// The event.
    pub ev: Event,
}

/// A point-in-time snapshot of every ring, ready for export/analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dump {
    /// Per-thread ring capacity the recorder ran with.
    pub capacity: usize,
    /// The recorder's label ([`Recorder::set_label`]); empty when none
    /// was set.
    pub label: String,
    /// Total events displaced before this snapshot (sum over rings).
    pub events_dropped: u64,
    /// Every ring that recorded at least one event.
    pub rings: Vec<RingInfo>,
    /// All surviving events, sorted by `(ts_ns, tid)`.
    pub events: Vec<DumpEvent>,
}

/// Chrome-trace lane id for session `s` (worker lanes use ring tids,
/// which stay far below this).
fn session_lane(s: u32) -> u32 {
    1_000_000 + s
}

/// Lane for admission/service-level instants.
const ADMISSION_LANE: u32 = 999_999;

impl Dump {
    /// Serializes the dump as JSONL: a header line, one line per ring,
    /// one line per event, each a standalone JSON object.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        push_line(
            &mut out,
            Json::obj(vec![
                ("type", Json::str("header")),
                ("version", Json::Num(1.0)),
                ("capacity", Json::Num(self.capacity as f64)),
                ("events_dropped", Json::Num(self.events_dropped as f64)),
                ("label", Json::str(self.label.clone())),
            ]),
        );
        for r in &self.rings {
            push_line(
                &mut out,
                Json::obj(vec![
                    ("type", Json::str("ring")),
                    ("tid", Json::Num(f64::from(r.tid))),
                    ("name", Json::str(r.name.clone())),
                    ("dropped", Json::Num(r.dropped as f64)),
                ]),
            );
        }
        for e in &self.events {
            let session = if e.ev.session == NO_SESSION {
                Json::Null
            } else {
                Json::Num(f64::from(e.ev.session))
            };
            push_line(
                &mut out,
                Json::obj(vec![
                    ("type", Json::str("event")),
                    ("tid", Json::Num(f64::from(e.tid))),
                    ("ts_ns", Json::Num(e.ev.ts_ns as f64)),
                    ("kind", Json::str(e.ev.kind.name())),
                    ("session", session),
                    ("a", Json::Num(e.ev.a as f64)),
                    ("b", Json::Num(e.ev.b as f64)),
                ]),
            );
        }
        out
    }

    /// Parses a dump back from its JSONL form. A header without a
    /// `label` parses with an empty one.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<Dump, String> {
        let mut capacity = 0usize;
        let mut label = String::new();
        let mut events_dropped = 0u64;
        let mut saw_header = false;
        let mut rings = Vec::new();
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let ty = doc
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing type", i + 1))?;
            let num = |key: &str| -> Result<f64, String> {
                doc.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("line {}: missing {key}", i + 1))
            };
            match ty {
                "header" => {
                    saw_header = true;
                    capacity = num("capacity")? as usize;
                    events_dropped = num("events_dropped")? as u64;
                    if let Some(l) = doc.get("label") {
                        l.as_str()
                            .ok_or_else(|| format!("line {}: bad label", i + 1))?
                            .clone_into(&mut label);
                    }
                }
                "ring" => rings.push(RingInfo {
                    tid: num("tid")? as u32,
                    name: doc
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {}: missing name", i + 1))?
                        .to_string(),
                    dropped: num("dropped")? as u64,
                }),
                "event" => {
                    let kind_name = doc
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {}: missing kind", i + 1))?;
                    let kind = EventKind::from_name(kind_name)
                        .ok_or_else(|| format!("line {}: unknown kind '{kind_name}'", i + 1))?;
                    let session = match doc.get("session") {
                        Some(Json::Null) | None => NO_SESSION,
                        Some(v) => v
                            .as_f64()
                            .ok_or_else(|| format!("line {}: bad session", i + 1))?
                            as u32,
                    };
                    events.push(DumpEvent {
                        tid: num("tid")? as u32,
                        ev: Event {
                            ts_ns: num("ts_ns")? as u64,
                            kind,
                            session,
                            a: num("a")? as u64,
                            b: num("b")? as u64,
                        },
                    });
                }
                other => return Err(format!("line {}: unknown type '{other}'", i + 1)),
            }
        }
        if !saw_header {
            return Err("dump has no header line".to_string());
        }
        Ok(Dump {
            capacity,
            label,
            events_dropped,
            rings,
            events,
        })
    }

    /// Builds the Chrome trace-event document: one lane per service
    /// session (frame spans + lifecycle instants), one lane per
    /// recorded thread (phase spans, pool steal/park/wake instants),
    /// and an `admission` lane with the submit/reject/shed timeline.
    /// Load in `chrome://tracing` or Perfetto.
    pub fn to_chrome_trace(&self) -> Json {
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut label = format!(
            "m4ps flight recorder (capacity {}, dropped {})",
            self.capacity, self.events_dropped
        );
        if !self.label.is_empty() {
            label.push_str(", ");
            label.push_str(&self.label);
        }
        events.push(TraceEvent::ProcessLabel { label });
        for r in &self.rings {
            events.push(TraceEvent::ThreadName {
                tid: r.tid,
                name: r.name.clone(),
            });
        }
        events.push(TraceEvent::ThreadName {
            tid: ADMISSION_LANE,
            name: "admission".to_string(),
        });
        let mut session_lanes: Vec<u32> = Vec::new();
        // Open frame dispatches / phase enters awaiting their close.
        let mut open_frames: Vec<(u32, u64)> = Vec::new(); // (session, ts)
        let mut open_phases: Vec<(u32, u64, u64)> = Vec::new(); // (tid, phase, ts)
        for e in &self.events {
            let ev = &e.ev;
            if ev.session != NO_SESSION && !session_lanes.contains(&ev.session) {
                session_lanes.push(ev.session);
            }
            match ev.kind {
                EventKind::FrameDispatch => open_frames.push((ev.session, ev.ts_ns)),
                EventKind::FrameEnd => {
                    let start = open_frames
                        .iter()
                        .rposition(|(s, _)| *s == ev.session)
                        .map(|i| open_frames.remove(i).1)
                        .unwrap_or(ev.ts_ns.saturating_sub(ev.b));
                    events.push(TraceEvent::Span {
                        name: format!("frame {}", ev.a),
                        tid: session_lane(ev.session),
                        ts_ns: start,
                        dur_ns: ev.ts_ns.saturating_sub(start),
                        args: vec![("latency_ns", ev.b as f64)],
                    });
                }
                EventKind::PhaseEnter => open_phases.push((e.tid, ev.a, ev.ts_ns)),
                EventKind::PhaseExit => {
                    if let Some(i) = open_phases
                        .iter()
                        .rposition(|(tid, p, _)| *tid == e.tid && *p == ev.a)
                    {
                        let (_, _, start) = open_phases.remove(i);
                        let name = crate::Phase::ALL
                            .get(ev.a as usize)
                            .map_or("phase", |p| p.name());
                        events.push(TraceEvent::Span {
                            name: name.to_string(),
                            tid: e.tid,
                            ts_ns: start,
                            dur_ns: ev.ts_ns.saturating_sub(start),
                            args: Vec::new(),
                        });
                    }
                }
                EventKind::SessionSubmit
                | EventKind::SessionOpen
                | EventKind::SessionClose
                | EventKind::AdmitReject
                | EventKind::SessionShed => {
                    events.push(TraceEvent::Instant {
                        name: format!("{} s{}", ev.kind.name(), ev.session),
                        tid: ADMISSION_LANE,
                        ts_ns: ev.ts_ns,
                        args: vec![("a", ev.a as f64)],
                    });
                }
                EventKind::FrameReady | EventKind::FrameStart => {
                    events.push(TraceEvent::Instant {
                        name: format!("{} {}", ev.kind.name(), ev.a),
                        tid: session_lane(ev.session),
                        ts_ns: ev.ts_ns,
                        args: Vec::new(),
                    });
                }
                EventKind::SloBreach | EventKind::WorkerPanic => {
                    events.push(TraceEvent::Instant {
                        name: ev.kind.name().to_string(),
                        tid: session_lane(ev.session),
                        ts_ns: ev.ts_ns,
                        args: vec![("a", ev.a as f64), ("b", ev.b as f64)],
                    });
                }
                EventKind::PoolQueue
                | EventKind::PoolSteal
                | EventKind::PoolPark
                | EventKind::PoolWake => {
                    events.push(TraceEvent::Instant {
                        name: ev.kind.name().to_string(),
                        tid: e.tid,
                        ts_ns: ev.ts_ns,
                        args: vec![("a", ev.a as f64)],
                    });
                }
            }
        }
        for s in session_lanes {
            events.push(TraceEvent::ThreadName {
                tid: session_lane(s),
                name: format!("session-{s}"),
            });
        }
        chrome_trace_doc(&events)
    }

    /// Writes the JSONL dump to `path` and the Chrome trace to
    /// [`Dump::trace_path`]`(path)` next to it. Returns the trace path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        std::fs::write(path, self.to_jsonl())?;
        let trace_path = Dump::trace_path(path);
        std::fs::write(&trace_path, self.to_chrome_trace().pretty())?;
        Ok(trace_path)
    }

    /// Like [`Dump::write`], but never over a dump this process already
    /// wrote to `path`: the first dump to a path keeps it, and the k-th
    /// later one goes to [`Dump::repeat_path`]`(path, k)`. A run of many
    /// studies with one dump path so keeps every study's dump. Returns
    /// the dump path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_numbered(&self, path: &str) -> std::io::Result<String> {
        static WRITTEN: Mutex<BTreeMap<String, usize>> = Mutex::new(BTreeMap::new());
        let k = {
            let mut written = WRITTEN.lock().expect("dump path registry");
            let count = written.entry(path.to_owned()).or_insert(0);
            *count += 1;
            *count - 1
        };
        let path = Dump::repeat_path(path, k);
        self.write(&path)?;
        Ok(path)
    }

    /// Where the k-th repeat dump to `path` goes: `path` itself for
    /// `k = 0`, else `<path stem>.<k>.jsonl` (`run.jsonl` →
    /// `run.1.jsonl`, whose trace is `run.1.trace.json`).
    pub fn repeat_path(path: &str, k: usize) -> String {
        match (k, path.strip_suffix(".jsonl")) {
            (0, _) => path.to_owned(),
            (_, Some(stem)) => format!("{stem}.{k}.jsonl"),
            (_, None) => format!("{path}.{k}"),
        }
    }

    /// Where [`Dump::write`] puts the Chrome trace for a dump written
    /// to `path`: `<path stem>.trace.json` (`flight.jsonl` →
    /// `flight.trace.json`).
    pub fn trace_path(path: &str) -> String {
        match path.strip_suffix(".jsonl") {
            Some(stem) => format!("{stem}.trace.json"),
            None => format!("{path}.trace.json"),
        }
    }
}

fn push_line(out: &mut String, v: Json) {
    out.push_str(&crate::metrics::compact(&v));
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, session: u32, a: u64) -> Event {
        Event {
            ts_ns: 0,
            kind,
            session,
            a,
            b: 0,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = RingBuf::with_capacity(4);
        let mut dropped = 0;
        for i in 0..10u64 {
            if ring.push(Event {
                a: i,
                ..ev(EventKind::FrameReady, 0, 0)
            }) {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 6);
        let kept: Vec<u64> = ring.in_order().iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn record_and_snapshot_single_thread() {
        let rec = Recorder::new(16);
        rec.record(EventKind::SessionOpen, Some(3), 2, 0);
        rec.record(EventKind::FrameDispatch, Some(3), 100, 50);
        rec.record(EventKind::PoolPark, None, 0, 0);
        let dump = rec.snapshot();
        assert_eq!(dump.capacity, 16);
        assert_eq!(dump.events_dropped, 0);
        assert_eq!(dump.rings.len(), 1);
        assert_eq!(dump.events.len(), 3);
        assert_eq!(dump.events[0].ev.kind, EventKind::SessionOpen);
        assert_eq!(dump.events[0].ev.session, 3);
        assert_eq!(dump.events[2].ev.session, NO_SESSION);
        // Timestamps are monotone within one thread.
        assert!(dump.events[0].ev.ts_ns <= dump.events[1].ev.ts_ns);
    }

    #[test]
    fn per_thread_rings_merge_in_snapshot() {
        let rec = Recorder::new(8);
        rec.record(EventKind::SessionSubmit, Some(0), 0, 0);
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..4 {
                        rec.record(EventKind::PoolSteal, None, t * 10 + i, 0);
                    }
                });
            }
        });
        let dump = rec.snapshot();
        assert_eq!(dump.rings.len(), 4, "main + 3 worker rings");
        assert_eq!(dump.events.len(), 13);
        // Sorted by timestamp.
        assert!(dump
            .events
            .windows(2)
            .all(|w| w[0].ev.ts_ns <= w[1].ev.ts_ns));
    }

    #[test]
    fn overflow_is_counted_exactly() {
        let rec = Recorder::new(8);
        for i in 0..30u64 {
            rec.record(EventKind::FrameReady, Some(1), i, 0);
        }
        assert_eq!(rec.events_dropped(), 22);
        let dump = rec.snapshot();
        assert_eq!(dump.events_dropped, 22);
        let kept: Vec<u64> = dump.events.iter().map(|e| e.ev.a).collect();
        assert_eq!(kept, (22..30).collect::<Vec<_>>());
    }

    #[test]
    fn jsonl_round_trips() {
        let rec = Recorder::new(8);
        rec.set_label("kernels=scalar");
        rec.record(EventKind::SessionOpen, Some(1), 2, 0);
        rec.record(EventKind::FrameDispatch, Some(1), 4096, 1234);
        rec.record(EventKind::FrameEnd, Some(1), 0, 99_000);
        rec.record(EventKind::PoolWake, None, 0, 0);
        let dump = rec.snapshot();
        let text = dump.to_jsonl();
        let parsed = Dump::from_jsonl(&text).expect("round trip parses");
        assert_eq!(parsed, dump);
    }

    #[test]
    fn chrome_trace_has_session_and_worker_lanes() {
        let rec = Recorder::new(32);
        rec.record(EventKind::SessionOpen, Some(7), 1, 0);
        rec.record(EventKind::FrameDispatch, Some(7), 1000, 10);
        rec.record(EventKind::FrameStart, Some(7), 0, 0);
        rec.record(EventKind::FrameEnd, Some(7), 0, 5_000);
        rec.record(EventKind::SessionShed, Some(9), 777, 0);
        let doc = rec.snapshot().to_chrome_trace();
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        let arr = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<&str> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(
            names.contains(&"session-7"),
            "session lane named: {names:?}"
        );
        assert!(names.contains(&"admission"), "admission lane: {names:?}");
        // The frame span landed in the session lane with its latency.
        let span = arr
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("frame 0"))
            .expect("frame span present");
        assert_eq!(
            span.get("tid").unwrap().as_f64(),
            Some(f64::from(session_lane(7)))
        );
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
    }

    #[test]
    fn malformed_dump_lines_are_rejected() {
        assert!(Dump::from_jsonl("not json").is_err());
        assert!(Dump::from_jsonl("{\"type\":\"event\"}").is_err());
        assert!(
            Dump::from_jsonl("").is_err(),
            "headerless dump must not parse"
        );
        let bad_kind = "{\"type\":\"header\",\"capacity\":4,\"events_dropped\":0}\n\
             {\"type\":\"event\",\"tid\":0,\"ts_ns\":1,\"kind\":\"nope\",\"session\":null,\"a\":0,\"b\":0}";
        assert!(Dump::from_jsonl(bad_kind).is_err());
    }
}
