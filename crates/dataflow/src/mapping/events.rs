//! The enactment event stream: the runtime's results as they happen.
//!
//! # Emit-then-fold
//!
//! Before this module existed, the runtime *accumulated*: every worker
//! collected its terminal outputs, prints and counters into per-instance
//! `Vec`s, and nothing was observable until the collect stage folded the
//! finished run into one [`RunResult`]. That batch contract made "time to
//! first output" equal "time to last output" — hostile to long-running and
//! source-driven workloads.
//!
//! The contract is now inverted. An enactment is an **ordered stream of
//! [`RunEvent`]s** — plan ready, instance lifecycle, terminal-port
//! outputs, captured prints, final stats — and the batch [`RunResult`] is
//! *defined* as a fold over that stream ([`EventFold`]). The runtime pipes
//! every event through one [`EventSink`] which (a) hands it to an optional
//! [`RunObserver`] the moment it exists and (b) folds it into the result
//! the caller gets back. Because the returned result and the observed
//! stream are produced by the same fold from the same sequence, folding a
//! recorded stream reproduces the batch result bit-for-bit — the property
//! the cross-mapping equivalence suites assert.
//!
//! # Ordering and cost
//!
//! * Event `seq` numbers are assigned at the sink: a single total order
//!   per run, per-instance emission order preserved (each worker emits its
//!   own events in program order).
//! * Every worker flushes its events into the sink per emission burst,
//!   observed or not, so outputs reach the fold (and any observer) while
//!   upstream instances are still producing, and every run reports
//!   `first_output`.
//! * Events carry `Arc<str>` PE/port names cloned from the plan's interned
//!   tables — emitting an event never allocates a name, preserving the
//!   zero-allocation datapath property (`alloc_interning.rs`).

use super::{RunResult, RunStats};
use laminar_json::{parse, write_string, write_value, Value};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One observable step of an enactment, in stream order.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// The plan stage finished: instance counts per PE, in node order.
    PlanReady {
        /// `(pe_name, instance_count)` for every node of the graph.
        pes: Vec<(Arc<str>, usize)>,
    },
    /// An instance began executing.
    InstanceStarted {
        /// PE name.
        pe: Arc<str>,
        /// Instance index within the PE.
        instance: usize,
    },
    /// A value surfaced on a terminal (unconnected) output port.
    Output {
        /// PE name.
        pe: Arc<str>,
        /// Instance index within the PE.
        instance: usize,
        /// Terminal port name.
        port: Arc<str>,
        /// The emitted value.
        value: Value,
    },
    /// A `print` line was captured.
    Print {
        /// PE name.
        pe: Arc<str>,
        /// Instance index within the PE.
        instance: usize,
        /// The captured line.
        line: String,
    },
    /// An instance finished (its end-of-stream): final counters.
    InstanceFinished {
        /// PE name.
        pe: Arc<str>,
        /// Instance index within the PE.
        instance: usize,
        /// Data (or producer iterations) the instance processed.
        processed: u64,
        /// Emission attempts the instance made.
        emitted: u64,
    },
    /// An epoch boundary: the enactment is quiescent (no data in flight)
    /// and every instance's durable state has been captured. `state` is
    /// the checkpoint payload — an array of per-instance snapshots in
    /// dense plan order (see `InstanceRunner::snapshot`) — which the
    /// engine's journal persists; a resumed run rebuilds its instances
    /// from the latest `Epoch` and replays the events that preceded it.
    /// Folds as a marker, not data: `fold(events with epochs)` equals
    /// `fold(events without)`, which is what makes the refold identity
    /// `fold(checkpoint + replayed events) == fold(batch)` well-defined.
    Epoch {
        /// Epoch number, starting at 1 (epoch `k` covers the first
        /// `k * checkpoint_every` source iterations).
        id: u64,
        /// Per-instance snapshots, in dense plan-instance order.
        state: Value,
    },
    /// The run completed: final stats (timings are only known here).
    /// Terminal event of a successful stream. The stats are boxed: a run
    /// emits one, and inline their maps would make every event this big.
    Finished {
        /// The completed run's statistics.
        stats: Box<RunStats>,
    },
    /// The run was stopped by its [`super::CancelToken`] before
    /// completing. Terminal event of a cancelled stream — everything
    /// before it is a valid prefix of the run's event stream, and folding
    /// that prefix is the cancelled run's result. Distinguishes "stopped
    /// on request" from a failure.
    Cancelled,
}

// Every buffered and logged event pays the largest variant's size.
const _: () = assert!(size_of::<RunEvent>() <= 72);

impl RunEvent {
    /// Wire form of one event (the `/events` endpoint's array elements)
    /// as a tree: the parse of [`RunEvent::write_json`]'s text, so the
    /// two cannot disagree.
    pub fn to_value(&self, seq: u64) -> Value {
        let mut text = String::new();
        self.write_json(seq, &mut text);
        parse(&text).expect("a run event is written as JSON")
    }

    /// The wire form as text, appended to `out`: the product's one writer
    /// of it. The `/events` route and the journal encode through here and
    /// [`RunEvent::to_value`] parses it. `tests/proptest_event_text.rs`
    /// checks it byte for byte against the hand-built tree of
    /// `laminar-oracle`. A `Value` object serializes its keys sorted, so
    /// each arm writes its keys in that order: a new key goes in its
    /// sorted place.
    pub fn write_json(&self, seq: u64, out: &mut String) {
        // A member's key as one literal, punctuation included: `{"name":`
        // opens the object, `,"name":` follows another member.
        macro_rules! first {
            ($name:literal) => {
                concat!("{\"", $name, "\":")
            };
        }
        macro_rules! next {
            ($name:literal) => {
                concat!(",\"", $name, "\":")
            };
        }
        fn int(out: &mut String, key: &str, i: i64) {
            out.push_str(key);
            write_value(out, &Value::Int(i));
        }
        fn string(out: &mut String, key: &str, s: &str) {
            out.push_str(key);
            write_string(out, s);
        }
        fn micros(out: &mut String, key: &str, d: Duration) {
            int(out, key, d.as_micros() as i64);
        }
        match self {
            RunEvent::PlanReady { pes } => {
                // As a map of the counts: names sorted, a repeated name
                // keeping its last count, `null` when there is none.
                let mut sorted: Vec<&(Arc<str>, usize)> = pes.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                out.push_str(first!("pes"));
                let mut open = "{";
                for (i, (pe, n)) in sorted.iter().enumerate() {
                    if sorted.get(i + 1).is_none_or(|next| next.0 != *pe) {
                        out.push_str(open);
                        open = ",";
                        write_string(out, pe);
                        out.push(':');
                        write_value(out, &Value::Int(*n as i64));
                    }
                }
                out.push_str(if sorted.is_empty() { "null" } else { "}" });
                int(out, next!("seq"), seq as i64);
                string(out, next!("type"), "plan");
            }
            RunEvent::InstanceStarted { pe, instance } => {
                int(out, first!("instance"), *instance as i64);
                string(out, next!("pe"), pe);
                int(out, next!("seq"), seq as i64);
                string(out, next!("type"), "started");
            }
            RunEvent::Output { pe, instance, port, value } => {
                int(out, first!("instance"), *instance as i64);
                string(out, next!("pe"), pe);
                string(out, next!("port"), port);
                int(out, next!("seq"), seq as i64);
                string(out, next!("type"), "output");
                out.push_str(next!("value"));
                write_value(out, value);
            }
            RunEvent::Print { pe, instance, line } => {
                int(out, first!("instance"), *instance as i64);
                string(out, next!("line"), line);
                string(out, next!("pe"), pe);
                int(out, next!("seq"), seq as i64);
                string(out, next!("type"), "print");
            }
            RunEvent::InstanceFinished { pe, instance, processed, emitted } => {
                int(out, first!("emitted"), *emitted as i64);
                int(out, next!("instance"), *instance as i64);
                string(out, next!("pe"), pe);
                int(out, next!("processed"), *processed as i64);
                int(out, next!("seq"), seq as i64);
                string(out, next!("type"), "instance_done");
            }
            RunEvent::Epoch { id, state } => {
                int(out, first!("epoch"), *id as i64);
                int(out, next!("seq"), seq as i64);
                out.push_str(next!("state"));
                write_value(out, state);
                string(out, next!("type"), "epoch");
            }
            RunEvent::Finished { stats } => {
                micros(out, first!("collect_us"), stats.timings.collect);
                micros(out, next!("compile_us"), stats.timings.compile);
                micros(out, next!("elapsed_us"), stats.elapsed);
                micros(out, next!("enact_us"), stats.timings.enact);
                int(out, next!("events"), stats.events as i64);
                if let Some(d) = stats.first_output {
                    micros(out, next!("first_output_us"), d);
                }
                micros(out, next!("plan_us"), stats.timings.plan);
                int(out, next!("seq"), seq as i64);
                string(out, next!("type"), "finished");
            }
            RunEvent::Cancelled => {
                int(out, first!("seq"), seq as i64);
                string(out, next!("type"), "cancelled");
            }
        }
        out.push('}');
    }

    /// Parse the wire form back into an event (the inverse of
    /// [`RunEvent::to_value`], modulo the timing fields `Finished` carries
    /// at microsecond resolution). `None` for values that are not run
    /// events — notably the pool's `done`/`failed` job markers — so a
    /// client can `filter_map` a recorded `/events` log straight into
    /// [`fold_events`].
    pub fn from_value(v: &Value) -> Option<RunEvent> {
        let pe = || v["pe"].as_str().map(Arc::<str>::from);
        let instance = || v["instance"].as_i64().map(|i| i.max(0) as usize);
        Some(match v["type"].as_str()? {
            "plan" => {
                let pes = v["pes"]
                    .as_object()?
                    .iter()
                    .map(|(name, n)| {
                        (Arc::<str>::from(name.as_str()), n.as_i64().unwrap_or(0).max(0) as usize)
                    })
                    .collect();
                RunEvent::PlanReady { pes }
            }
            "started" => RunEvent::InstanceStarted { pe: pe()?, instance: instance()? },
            "output" => RunEvent::Output {
                pe: pe()?,
                instance: instance()?,
                port: v["port"].as_str().map(Arc::<str>::from)?,
                value: v["value"].clone(),
            },
            "print" => {
                RunEvent::Print { pe: pe()?, instance: instance()?, line: v["line"].as_str()?.to_string() }
            }
            "instance_done" => RunEvent::InstanceFinished {
                pe: pe()?,
                instance: instance()?,
                processed: v["processed"].as_i64().unwrap_or(0).max(0) as u64,
                emitted: v["emitted"].as_i64().unwrap_or(0).max(0) as u64,
            },
            "epoch" => RunEvent::Epoch {
                id: v["epoch"].as_i64().unwrap_or(0).max(0) as u64,
                state: v["state"].clone(),
            },
            "finished" => {
                let us = |field: &str| Duration::from_micros(v[field].as_i64().unwrap_or(0).max(0) as u64);
                RunEvent::Finished {
                    stats: Box::new(RunStats {
                        elapsed: us("elapsed_us"),
                        timings: super::StageTimings {
                            plan: us("plan_us"),
                            enact: us("enact_us"),
                            collect: us("collect_us"),
                            compile: us("compile_us"),
                        },
                        events: v["events"].as_i64().unwrap_or(0).max(0) as u64,
                        first_output: v["first_output_us"]
                            .as_i64()
                            .map(|d| Duration::from_micros(d.max(0) as u64)),
                        ..Default::default()
                    }),
                }
            }
            "cancelled" => RunEvent::Cancelled,
            _ => return None,
        })
    }
}

/// A sink for live enactment events. Implementations must tolerate being
/// called from several worker threads (the sink serializes calls, but the
/// observer travels across threads).
pub trait RunObserver: Send + Sync {
    /// One event, with its stream sequence number. Called in `seq` order.
    fn on_event(&self, seq: u64, event: &RunEvent);

    /// Backpressure seam: the runtime calls this at source-iteration
    /// boundaries (never while holding the sink lock), giving the
    /// observer a chance to *block the producer* until downstream has
    /// capacity again. The engine's checkpoint-horizon event log parks
    /// here while a slow consumer catches up; the default is a no-op so
    /// plain observers (recorders, latency probes) cost nothing.
    fn throttle(&self) {}
}

/// Fold an event stream back into a [`RunResult`] — the definition of the
/// batch result. Feed events in stream order; [`EventFold::finish`]
/// returns the folded result.
///
/// Outputs and stats keys are accumulated under the events' shared names
/// (refcount clones); strings are materialized once per key at finish.
#[derive(Debug, Default)]
pub struct EventFold {
    outputs: BTreeMap<(Arc<str>, Arc<str>), Vec<Value>>,
    printed: Vec<String>,
    stats: RunStats,
    /// Events folded, excluding the terminal [`RunEvent::Finished`].
    count: u64,
}

impl EventFold {
    /// Fold one event.
    pub fn push(&mut self, event: RunEvent) {
        match event {
            RunEvent::PlanReady { pes } => {
                self.count += 1;
                for (pe, n) in pes {
                    self.stats.instances.insert(pe.to_string(), n);
                }
            }
            RunEvent::InstanceStarted { .. } => self.count += 1,
            RunEvent::Output { pe, port, value, .. } => {
                self.count += 1;
                self.outputs.entry((pe, port)).or_default().push(value);
            }
            RunEvent::Print { line, .. } => {
                self.count += 1;
                self.printed.push(line);
            }
            RunEvent::InstanceFinished { pe, processed, emitted, .. } => {
                self.count += 1;
                *self.stats.processed.entry(pe.to_string()).or_insert(0) += processed;
                *self.stats.emitted.entry(pe.to_string()).or_insert(0) += emitted;
            }
            // Timing facts only the finished run knows; not counted, so a
            // recorded stream (which includes Finished) folds to the same
            // `events` figure as the live fold (which never sees it).
            RunEvent::Finished { stats } => {
                self.stats.elapsed = stats.elapsed;
                self.stats.timings = stats.timings;
                self.stats.first_output = stats.first_output;
            }
            // A terminal marker, not data: folding a cancelled stream
            // yields exactly the prefix-fold of the events before it.
            RunEvent::Cancelled => {}
            // A checkpoint marker, not data: folding a checkpointed
            // stream yields the same outputs/prints/counters as the
            // uncheckpointed one.
            RunEvent::Epoch { .. } => {}
        }
    }

    /// The folded batch result.
    pub fn finish(mut self) -> RunResult {
        self.stats.events = self.count;
        let mut result = RunResult { printed: self.printed, stats: self.stats, ..Default::default() };
        for ((pe, port), values) in self.outputs {
            result.outputs.insert((pe.to_string(), port.to_string()), values);
        }
        result
    }
}

/// Fold a recorded stream in one call (tests, clients replaying a wire
/// log).
pub fn fold_events(events: impl IntoIterator<Item = RunEvent>) -> RunResult {
    let mut fold = EventFold::default();
    for ev in events {
        fold.push(ev);
    }
    fold.finish()
}

struct SinkInner {
    fold: EventFold,
    seq: u64,
    enact_start: Option<Instant>,
    first_output: Option<Duration>,
}

/// The runtime's event funnel: assigns sequence numbers, tees each event
/// to the observer (if any), and folds it into the nascent [`RunResult`].
/// Shared by every worker of one enactment.
pub struct EventSink {
    observer: Option<Arc<dyn RunObserver>>,
    inner: Mutex<SinkInner>,
}

impl EventSink {
    /// A sink for one enactment.
    pub fn new(observer: Option<Arc<dyn RunObserver>>) -> EventSink {
        EventSink {
            observer,
            inner: Mutex::new(SinkInner {
                fold: EventFold::default(),
                seq: 0,
                enact_start: None,
                first_output: None,
            }),
        }
    }

    /// Mark the start of the enact stage (the zero of `first_output`).
    pub fn start_enact(&self) {
        self.inner.lock().enact_start = Some(Instant::now());
    }

    /// Push one event into the stream.
    pub fn push(&self, event: RunEvent) {
        let mut inner = self.inner.lock();
        self.push_locked(&mut inner, event);
    }

    /// Push one burst of events under one lock.
    pub fn extend(&self, events: impl IntoIterator<Item = RunEvent>) {
        let mut inner = self.inner.lock();
        for ev in events {
            self.push_locked(&mut inner, ev);
        }
    }

    /// Fold an already-observed prefix into the sink without re-observing
    /// it: the resume path replays journaled events through here so the
    /// resumed run's `RunResult` covers the whole job, while the observer
    /// (whose log was pre-filled separately) only sees the live tail.
    /// Advances `seq` so live events continue the journaled numbering.
    pub fn preload(&self, events: impl IntoIterator<Item = RunEvent>) {
        let mut inner = self.inner.lock();
        for ev in events {
            inner.seq += 1;
            inner.fold.push(ev);
        }
    }

    /// Give the observer a chance to block this producer until downstream
    /// capacity frees up ([`RunObserver::throttle`]). Deliberately does
    /// *not* take the sink lock: a parked worker must never hold up peers
    /// trying to push events.
    pub fn throttle(&self) {
        if let Some(observer) = &self.observer {
            observer.throttle();
        }
    }

    fn push_locked(&self, inner: &mut SinkInner, event: RunEvent) {
        if inner.first_output.is_none() {
            if let RunEvent::Output { .. } = &event {
                inner.first_output = Some(inner.enact_start.map(|t| t.elapsed()).unwrap_or_default());
            }
        }
        if let Some(observer) = &self.observer {
            observer.on_event(inner.seq, &event);
        }
        inner.seq += 1;
        inner.fold.push(event);
    }

    /// Take the fold (collect stage) along with the observed time-to-first-
    /// output. The sink stays usable for the terminal [`RunEvent::Finished`].
    pub fn take_fold(&self) -> (EventFold, Option<Duration>) {
        let mut inner = self.inner.lock();
        (std::mem::take(&mut inner.fold), inner.first_output)
    }

    /// Emit the terminal event carrying the completed run's stats. Only
    /// the observer sees it — the fold was already taken — so the stats
    /// are copied only when there is one.
    pub fn emit_finished(&self, stats: &RunStats) {
        self.emit_terminal(|| RunEvent::Finished { stats: Box::new(stats.clone()) });
    }

    /// Emit the [`RunEvent::Cancelled`] terminal marker sealing a
    /// cancelled stream. Only the observer sees it — the runtime returns
    /// [`crate::DataflowError::Cancelled`] instead of a result, so there
    /// is no fold to feed.
    pub fn emit_cancelled(&self) {
        self.emit_terminal(|| RunEvent::Cancelled);
    }

    fn emit_terminal(&self, event: impl FnOnce() -> RunEvent) {
        if let Some(observer) = &self.observer {
            let mut inner = self.inner.lock();
            let seq = inner.seq;
            inner.seq += 1;
            drop(inner);
            observer.on_event(seq, &event());
        }
    }
}

/// An observer that records the stream (with arrival offsets) — the
/// harness behind the equivalence suites.
pub struct RecordingObserver {
    started: Instant,
    events: Mutex<Vec<(u64, Duration, RunEvent)>>,
}

impl RecordingObserver {
    /// A fresh recorder; offsets are measured from this call.
    pub fn new() -> Arc<RecordingObserver> {
        Arc::new(RecordingObserver { started: Instant::now(), events: Mutex::new(Vec::new()) })
    }

    /// Drain the recorded `(seq, arrival_offset, event)` triples.
    pub fn take(&self) -> Vec<(u64, Duration, RunEvent)> {
        std::mem::take(&mut self.events.lock())
    }
}

impl RunObserver for RecordingObserver {
    fn on_event(&self, seq: u64, event: &RunEvent) {
        self.events.lock().push((seq, self.started.elapsed(), event.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn fold_reconstructs_outputs_prints_and_counters() {
        let events = vec![
            RunEvent::PlanReady { pes: vec![(arc("A"), 1), (arc("B"), 2)] },
            RunEvent::InstanceStarted { pe: arc("A"), instance: 0 },
            RunEvent::Output { pe: arc("B"), instance: 0, port: arc("out"), value: Value::Int(1) },
            RunEvent::Print { pe: arc("B"), instance: 1, line: "hello".into() },
            RunEvent::Output { pe: arc("B"), instance: 1, port: arc("out"), value: Value::Int(2) },
            RunEvent::InstanceFinished { pe: arc("A"), instance: 0, processed: 5, emitted: 5 },
            RunEvent::InstanceFinished { pe: arc("B"), instance: 0, processed: 2, emitted: 1 },
            RunEvent::InstanceFinished { pe: arc("B"), instance: 1, processed: 3, emitted: 1 },
        ];
        let n = events.len() as u64;
        let result = fold_events(events);
        assert_eq!(result.port_values("B", "out"), &[Value::Int(1), Value::Int(2)]);
        assert_eq!(result.printed, vec!["hello"]);
        assert_eq!(result.stats.processed["A"], 5);
        assert_eq!(result.stats.processed["B"], 5);
        assert_eq!(result.stats.emitted["B"], 2);
        assert_eq!(result.stats.instances["B"], 2);
        assert_eq!(result.stats.events, n);
    }

    #[test]
    fn finished_event_carries_timings_without_counting() {
        let stats = RunStats {
            elapsed: Duration::from_millis(7),
            first_output: Some(Duration::from_millis(2)),
            ..Default::default()
        };
        let result = fold_events(vec![
            RunEvent::InstanceStarted { pe: arc("A"), instance: 0 },
            RunEvent::Finished { stats: Box::new(stats) },
        ]);
        assert_eq!(result.stats.elapsed, Duration::from_millis(7));
        assert_eq!(result.stats.first_output, Some(Duration::from_millis(2)));
        assert_eq!(result.stats.events, 1, "Finished is not a counted event");
    }

    #[test]
    fn sink_assigns_sequential_seq_and_tees_observer() {
        let recorder = RecordingObserver::new();
        let sink = EventSink::new(Some(Arc::clone(&recorder) as Arc<dyn RunObserver>));
        sink.start_enact();
        sink.push(RunEvent::InstanceStarted { pe: arc("A"), instance: 0 });
        sink.extend([
            RunEvent::Output { pe: arc("A"), instance: 0, port: arc("out"), value: Value::Int(9) },
            RunEvent::InstanceFinished { pe: arc("A"), instance: 0, processed: 1, emitted: 1 },
        ]);
        let (fold, first_output) = sink.take_fold();
        assert!(first_output.is_some(), "first Output timestamped");
        let result = fold.finish();
        sink.emit_finished(&result.stats);
        let recorded = recorder.take();
        let seqs: Vec<u64> = recorded.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(matches!(recorded.last().unwrap().2, RunEvent::Finished { .. }));
        // Folding the recorded stream reproduces the sink's own fold.
        let refolded = fold_events(recorded.into_iter().map(|(_, _, e)| e));
        assert_eq!(refolded.outputs, result.outputs);
        assert_eq!(refolded.stats, result.stats);
    }

    #[test]
    fn wire_form_tags_every_variant() {
        let cases = [
            (RunEvent::PlanReady { pes: vec![(arc("A"), 2)] }, "plan"),
            (RunEvent::InstanceStarted { pe: arc("A"), instance: 1 }, "started"),
            (RunEvent::Output { pe: arc("A"), instance: 0, port: arc("o"), value: Value::Int(3) }, "output"),
            (RunEvent::Print { pe: arc("A"), instance: 0, line: "x".into() }, "print"),
            (
                RunEvent::InstanceFinished { pe: arc("A"), instance: 0, processed: 1, emitted: 2 },
                "instance_done",
            ),
            (RunEvent::Epoch { id: 3, state: Value::Array(vec![Value::Int(1)]) }, "epoch"),
            (RunEvent::Finished { stats: Box::default() }, "finished"),
            (RunEvent::Cancelled, "cancelled"),
        ];
        for (i, (ev, tag)) in cases.into_iter().enumerate() {
            let v = ev.to_value(i as u64);
            assert_eq!(v["type"].as_str(), Some(tag));
            assert_eq!(v["seq"].as_i64(), Some(i as i64));
        }
    }

    #[test]
    fn wire_form_round_trips_through_from_value() {
        let cases = [
            RunEvent::PlanReady { pes: vec![(arc("A"), 2), (arc("B"), 1)] },
            RunEvent::InstanceStarted { pe: arc("A"), instance: 1 },
            RunEvent::Output { pe: arc("A"), instance: 0, port: arc("o"), value: Value::Int(3) },
            RunEvent::Print { pe: arc("A"), instance: 0, line: "x".into() },
            RunEvent::InstanceFinished { pe: arc("A"), instance: 0, processed: 1, emitted: 2 },
            RunEvent::Epoch { id: 2, state: Value::Array(vec![Value::Null, Value::Int(5)]) },
            RunEvent::Cancelled,
        ];
        for ev in cases {
            let back = RunEvent::from_value(&ev.to_value(7)).unwrap();
            assert_eq!(back, ev);
        }
        // Finished round-trips the timing facts the fold consumes, at
        // microsecond resolution.
        let stats = RunStats {
            elapsed: Duration::from_micros(1234),
            first_output: Some(Duration::from_micros(56)),
            events: 9,
            ..Default::default()
        };
        match RunEvent::from_value(&RunEvent::Finished { stats: Box::new(stats) }.to_value(0)).unwrap() {
            RunEvent::Finished { stats } => {
                assert_eq!(stats.elapsed, Duration::from_micros(1234));
                assert_eq!(stats.first_output, Some(Duration::from_micros(56)));
                assert_eq!(stats.events, 9);
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        // Pool job markers and junk are not run events.
        let mut done = Value::Null;
        done.set("type", "done");
        assert!(RunEvent::from_value(&done).is_none());
        assert!(RunEvent::from_value(&Value::Null).is_none());
    }

    #[test]
    fn cancelled_marker_folds_as_a_no_op() {
        let events = vec![
            RunEvent::InstanceStarted { pe: arc("A"), instance: 0 },
            RunEvent::Output { pe: arc("A"), instance: 0, port: arc("o"), value: Value::Int(4) },
        ];
        let prefix = fold_events(events.clone());
        let cancelled = fold_events(events.into_iter().chain([RunEvent::Cancelled]));
        assert_eq!(cancelled.outputs, prefix.outputs);
        assert_eq!(cancelled.stats, prefix.stats, "Cancelled is not counted and carries no stats");
    }

    #[test]
    fn epoch_marker_folds_as_a_no_op() {
        let events = vec![
            RunEvent::Output { pe: arc("A"), instance: 0, port: arc("o"), value: Value::Int(4) },
            RunEvent::Print { pe: arc("A"), instance: 0, line: "p".into() },
        ];
        let plain = fold_events(events.clone());
        let mut with_epochs = vec![events[0].clone()];
        with_epochs.push(RunEvent::Epoch { id: 1, state: Value::Array(vec![Value::Int(7)]) });
        with_epochs.push(events[1].clone());
        with_epochs.push(RunEvent::Epoch { id: 2, state: Value::Array(vec![Value::Int(9)]) });
        let folded = fold_events(with_epochs);
        assert_eq!(folded.outputs, plain.outputs);
        assert_eq!(folded.printed, plain.printed);
        assert_eq!(folded.stats, plain.stats, "Epoch is a marker, not data");
    }

    #[test]
    fn throttle_reaches_the_observer_without_the_sink_lock() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Throttler {
            calls: AtomicU64,
        }
        impl RunObserver for Throttler {
            fn on_event(&self, _seq: u64, _event: &RunEvent) {}
            fn throttle(&self) {
                self.calls.fetch_add(1, Ordering::SeqCst);
            }
        }
        let obs = Arc::new(Throttler { calls: AtomicU64::new(0) });
        let sink = EventSink::new(Some(Arc::clone(&obs) as Arc<dyn RunObserver>));
        // Holding the sink lock while throttling must not deadlock: the
        // seam bypasses the inner mutex entirely.
        let _guard = sink.inner.lock();
        sink.throttle();
        sink.throttle();
        assert_eq!(obs.calls.load(Ordering::SeqCst), 2);
        // Observer-less sinks throttle for free.
        let plain = EventSink::new(None);
        plain.throttle();
    }

    #[test]
    fn default_throttle_is_a_no_op() {
        let recorder = RecordingObserver::new();
        let sink = EventSink::new(Some(Arc::clone(&recorder) as Arc<dyn RunObserver>));
        sink.throttle();
        assert!(recorder.take().is_empty(), "default throttle emits nothing");
    }

    #[test]
    fn preload_folds_without_observing_and_advances_seq() {
        let recorder = RecordingObserver::new();
        let sink = EventSink::new(Some(Arc::clone(&recorder) as Arc<dyn RunObserver>));
        sink.preload(vec![
            RunEvent::Output { pe: arc("A"), instance: 0, port: arc("o"), value: Value::Int(1) },
            RunEvent::Epoch { id: 1, state: Value::Null },
        ]);
        sink.push(RunEvent::Output { pe: arc("A"), instance: 0, port: arc("o"), value: Value::Int(2) });
        let recorded = recorder.take();
        assert_eq!(recorded.len(), 1, "preloaded events bypass the observer");
        assert_eq!(recorded[0].0, 2, "live seq continues after the preloaded prefix");
        let (fold, _) = sink.take_fold();
        let result = fold.finish();
        assert_eq!(result.port_values("A", "o"), &[Value::Int(1), Value::Int(2)]);
    }
}
