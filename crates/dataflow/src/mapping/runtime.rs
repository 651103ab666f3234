//! The shared enactment runtime behind every mapping.
//!
//! # Architecture: one semantics, many transports
//!
//! Enacting a workflow graph is the same job no matter which back-end
//! carries the data:
//!
//! 1. **Plan** — turn the abstract graph into a [`ConcretePlan`]
//!    (instances per PE) and instantiate an [`InstanceRunner`] per
//!    instance.
//! 2. **Enact** — drive source instances through the configured
//!    invocations, stream routed data downstream, propagate end-of-stream
//!    once every upstream instance finishes. Terminal outputs, prints and
//!    counters leave the workers as [`RunEvent`]s the moment they happen
//!    (see [`super::events`]).
//! 3. **Collect** — fold the event stream into one [`RunResult`]
//!    ([`super::events::EventFold`]): the batch result *is* the fold.
//!
//! [`Runtime`] owns all three stages in one frame and times each one
//! ([`super::StageTimings`] — the overhead structure the paper's Table 5
//! measures). The frame runs the input in rounds (one, unless the run
//! checkpoints) and each entry point supplies only what one round does:
//!
//! * [`Runtime::sequential_observed`] — the Simple mapping's
//!   deterministic in-process schedule; the "transport" is a FIFO the
//!   runtime drains breadth-first between producer iterations.
//! * [`Runtime::threaded_observed`] — one thread per instance. A mapping
//!   is a [`Transport`] plus the function that wires one per instance:
//!   `wire(plan)` returns one transport per planned instance, in dense
//!   plan order, and is called afresh for every round.
//!
//! The runtime guarantees the rest: identical routing, grouping, EOS,
//! event-stream and stats semantics on every back-end, which is what lets
//! the cross-mapping equivalence suites assert output parity and
//! `fold(events) == batch result`.

use super::events::{EventSink, RunEvent, RunObserver};
use super::worker::{
    flush_emissions, plan_pes, run_worker, Emissions, InstanceRunner, RoutedDatum, SourceRange, Transport,
};
use super::{RunOptions, RunResult, StageTimings};
use crate::error::DataflowError;
use crate::graph::WorkflowGraph;
use crate::planner::ConcretePlan;
use laminar_json::Value;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// The shared execution pipeline. Borrows the graph and options for the
/// duration of one enactment.
pub(crate) struct Runtime<'a> {
    graph: &'a WorkflowGraph,
    options: &'a RunOptions,
}

impl<'a> Runtime<'a> {
    /// A runtime for one enactment of `graph` under `options`.
    pub(super) fn new(graph: &'a WorkflowGraph, options: &'a RunOptions) -> Runtime<'a> {
        Runtime { graph, options }
    }

    /// Deterministic single-threaded enactment (the Simple mapping): one
    /// instance per PE, producers run iteration by iteration, and the
    /// in-process FIFO is drained breadth-first between iterations so
    /// memory stays flat (streaming, not batch). Every [`RunEvent`]
    /// reaches `observer` the moment it happens, and the returned result
    /// is the fold over that same stream.
    pub(crate) fn sequential_observed(
        &self,
        observer: Option<Arc<dyn RunObserver>>,
    ) -> Result<RunResult, DataflowError> {
        let t0 = Instant::now();
        let plan = ConcretePlan::sequential(self.graph)?;
        let sink = EventSink::new(observer);
        let ports = Arc::clone(plan.ports());
        let mut queue: VecDeque<RoutedDatum> = VecDeque::new();
        let mut emissions = Emissions::default();
        let cancel = &self.options.cancel;
        let pace = self.options.pace();
        self.enact(t0, &plan, &sink, |runners, range| {
            let sources: Vec<usize> =
                runners.iter().enumerate().filter(|(_, r)| r.is_source()).map(|(i, _)| i).collect();
            for r in runners.iter() {
                sink.push(RunEvent::InstanceStarted { pe: Arc::clone(&r.node_name), instance: r.inst.index });
            }
            // Absorb one invocation's emissions: routed data queues for the
            // breadth-first drain, terminal outputs and prints become events.
            let absorb =
                |runner: &InstanceRunner, emissions: &mut Emissions, queue: &mut VecDeque<RoutedDatum>| {
                    queue.extend(emissions.routed.drain(..));
                    flush_emissions(&sink, &runner.node_name, runner.inst.index, &ports, emissions);
                };
            // The drive loop. Cancellation is checked before every PE
            // invocation, so a cancelled run stops at an invocation
            // boundary: the events it emitted are exactly a prefix of the
            // stream the uncancelled (deterministic) run would have
            // produced.
            let mut i = range.base;
            'drive: loop {
                if cancel.is_cancelled() {
                    sink.emit_cancelled();
                    return Err(DataflowError::Cancelled);
                }
                if range.end.is_some_and(|n| i >= n) {
                    break;
                }
                for &s in &sources {
                    runners[s].run_iteration(self.options.datum_for(i), &mut emissions)?;
                    absorb(&runners[s], &mut emissions, &mut queue);
                    while let Some(d) = queue.pop_front() {
                        if cancel.is_cancelled() {
                            sink.emit_cancelled();
                            return Err(DataflowError::Cancelled);
                        }
                        let dense = plan.dense(d.dest);
                        runners[dense].run_datum(d.port, Value::unshare(d.value), &mut emissions)?;
                        absorb(&runners[dense], &mut emissions, &mut queue);
                    }
                    if cancel.is_cancelled() {
                        continue 'drive; // re-check at the loop head, which stops the run
                    }
                }
                i += 1;
                // Backpressure seam: once per source iteration, outside the
                // sink lock, let the observer park this producer until its
                // consumer has capacity again (no-op for plain observers).
                sink.throttle();
                if !pace.is_zero() {
                    // Interruptible: a DELETE mid-pace stops the run within
                    // a sleep slice, not after the full (caller-chosen) pace.
                    cancel.sleep_cancellable(pace);
                }
            }
            // Per-round counters: the event fold sums `instance_done`
            // deltas, so round totals add up to exactly the batch figures.
            for r in runners.iter() {
                sink.push(RunEvent::InstanceFinished {
                    pe: Arc::clone(&r.node_name),
                    instance: r.inst.index,
                    processed: r.stats.processed,
                    emitted: r.stats.emitted,
                });
            }
            Ok(())
        })
    }

    /// Parallel enactment: distribute `options.processes` across the graph
    /// and run one worker thread per instance, each on the transport
    /// `wire` built for it. `wire` is called once per round and returns
    /// one transport per planned instance, in dense plan order. Workers
    /// flush their events per emission burst, so terminal outputs reach
    /// the fold and any observer while upstream instances are still
    /// producing.
    pub(crate) fn threaded_observed<T: Transport + Send>(
        &self,
        mut wire: impl FnMut(&ConcretePlan) -> Result<Vec<T>, DataflowError>,
        observer: Option<Arc<dyn RunObserver>>,
    ) -> Result<RunResult, DataflowError> {
        let t0 = Instant::now();
        let plan = ConcretePlan::distribute(self.graph, self.options.processes)?;
        let sink = EventSink::new(observer);
        let options = self.options;
        // Each round is a full sub-enactment — wire, spawn, drain to EOS,
        // join — so the post-join point is globally quiescent: no datum is
        // in flight on any transport, making the epoch snapshot consistent
        // without a barrier protocol.
        self.enact(t0, &plan, &sink, |runners, range| {
            let transports = wire(&plan)?;
            assert_eq!(transports.len(), runners.len(), "wire returns one transport per instance");
            let (plan, sink) = (&plan, &sink);
            std::thread::scope(|scope| {
                let handles: Vec<_> = runners
                    .iter_mut()
                    .zip(transports)
                    .map(|(runner, transport)| {
                        scope.spawn(move || run_worker(runner, transport, plan, options, range, sink))
                    })
                    .collect();
                join_workers(handles)
            })?;
            // Workers wind down cooperatively on cancellation (sources stop
            // producing and propagate EOS, relays drain-and-discard), so the
            // join above is clean — but the run did not complete: seal the
            // stream with the Cancelled marker instead of folding a result.
            if options.cancel.is_cancelled() {
                sink.emit_cancelled();
                return Err(DataflowError::Cancelled);
            }
            Ok(())
        })
    }

    /// The frame every enactment shares. Plan stage: apply a resume point,
    /// announce the plan and build the runners. Enact stage: run `round`
    /// over each round's source window, sealing each round and rebuilding
    /// the runners from its snapshot while checkpointing continues — so
    /// the restore path is exercised at every epoch, not only after a
    /// crash. Collect stage: fold the stream into the result.
    fn enact(
        &self,
        t0: Instant,
        plan: &ConcretePlan,
        sink: &EventSink,
        mut round: impl FnMut(&mut [InstanceRunner], SourceRange) -> Result<(), DataflowError>,
    ) -> Result<RunResult, DataflowError> {
        let (mut epoch, mut snapshots) = self.resume_into(sink);
        if self.options.resume.is_none() {
            sink.push(RunEvent::PlanReady { pes: plan_pes(self.graph, plan) });
        }
        // Flat runner storage indexed by the plan's dense instance id — the
        // per-datum lookup is an array index, not a `BTreeMap` walk. Built
        // up-front so graph errors surface before enacting.
        let mut runners = self.build_runners(plan, snapshots.as_ref())?;
        let plan_time = t0.elapsed();

        sink.start_enact();
        let enact_t0 = Instant::now();
        let chunk = self.options.checkpoint_every;
        let limit = self.options.bounded_invocations();
        // With checkpointing off there is exactly one round covering the
        // whole input; otherwise each round drives `chunk` global
        // iterations, drains to quiescence and snapshots.
        loop {
            let range = Self::round_range(chunk, limit, epoch);
            round(&mut runners, range)?;
            match self.seal_round(sink, &runners, chunk, limit, range, &mut epoch, &mut snapshots)? {
                RoundOutcome::Continue => {
                    runners = self.build_runners(plan, snapshots.as_ref())?;
                }
                RoundOutcome::Done => break,
            }
        }
        let enact_time = enact_t0.elapsed();

        Ok(Self::collect(sink, t0, plan_time, enact_time))
    }

    /// Apply a resume point: fold the journaled event prefix into the sink
    /// without re-observing it (consumers already saw those events in the
    /// original run), and hand back the epoch and snapshot set to restart
    /// from. A fresh run starts at epoch 0 with no snapshots.
    fn resume_into(&self, sink: &EventSink) -> (u64, Option<Value>) {
        match &self.options.resume {
            Some(r) => {
                sink.preload(r.events.iter().cloned());
                (r.epoch, Some(r.snapshots.clone()))
            }
            None => (0, None),
        }
    }

    /// Build one runner per planned instance, restoring each from the
    /// dense-indexed `snapshots` array when resuming or starting a
    /// checkpointed round. Restore runs after `setup`, mirroring a process
    /// that re-initialised and then loaded its checkpoint.
    fn build_runners(
        &self,
        plan: &ConcretePlan,
        snapshots: Option<&Value>,
    ) -> Result<Vec<InstanceRunner>, DataflowError> {
        let mut runners = Vec::with_capacity(plan.total_processes);
        for inst in plan.all_instances() {
            let mut r = InstanceRunner::new(self.graph, plan, inst)?;
            if let Some(snap) = snapshots.and_then(|s| s.as_array()).and_then(|a| a.get(runners.len())) {
                r.restore(snap);
            }
            runners.push(r);
        }
        Ok(runners)
    }

    /// The dense snapshot array for the current runner set, in plan order —
    /// the `state` payload of [`RunEvent::Epoch`].
    fn collect_snapshots(runners: &[InstanceRunner]) -> Value {
        Value::Array(runners.iter().map(InstanceRunner::snapshot).collect())
    }

    /// The global source-iteration window for the round following `epoch`
    /// completed epochs. With checkpointing off the single round covers the
    /// whole input.
    fn round_range(chunk: usize, limit: Option<usize>, epoch: u64) -> SourceRange {
        if chunk == 0 {
            return SourceRange { base: 0, end: limit };
        }
        let base = epoch as usize * chunk;
        let end = match limit {
            Some(l) => (base + chunk).min(l),
            None => base + chunk,
        };
        SourceRange { base, end: Some(end) }
    }

    /// Seal one completed round: if it covered a full chunk, advance the
    /// epoch — snapshot every runner at this quiescent point, publish the
    /// [`RunEvent::Epoch`] marker, and apply any injected faults — then
    /// decide whether another round follows. Partial final rounds get no
    /// epoch: their events are only ever replayed, never resumed past.
    #[allow(clippy::too_many_arguments)]
    fn seal_round(
        &self,
        sink: &EventSink,
        runners: &[InstanceRunner],
        chunk: usize,
        limit: Option<usize>,
        range: SourceRange,
        epoch: &mut u64,
        snapshots: &mut Option<Value>,
    ) -> Result<RoundOutcome, DataflowError> {
        let full_chunk = chunk > 0 && range.end == Some(range.base + chunk);
        if !full_chunk {
            return Ok(RoundOutcome::Done);
        }
        *epoch += 1;
        let snaps = Self::collect_snapshots(runners);
        sink.push(RunEvent::Epoch { id: *epoch, state: snaps.clone() });
        *snapshots = Some(snaps);
        let faults = &self.options.faults;
        if faults.should_kill_after(*epoch) {
            // The injected crash: the Epoch marker above already reached the
            // observer (and any journal behind it) — the run dies *after*
            // persisting, exactly like a process killed between epochs.
            return Err(DataflowError::Injected { epoch: *epoch });
        }
        if faults.should_stop_after(*epoch) {
            return Ok(RoundOutcome::Done);
        }
        if limit.is_some_and(|l| *epoch as usize * chunk >= l) {
            return Ok(RoundOutcome::Done);
        }
        Ok(RoundOutcome::Continue)
    }

    /// The collect stage: fold the event stream into the [`RunResult`],
    /// stamp the stage timings, and emit the terminal
    /// [`RunEvent::Finished`] to the observer.
    fn collect(
        sink: &EventSink,
        t0: Instant,
        plan_time: std::time::Duration,
        enact_time: std::time::Duration,
    ) -> RunResult {
        let collect_t0 = Instant::now();
        let (fold, first_output) = sink.take_fold();
        let mut result = fold.finish();
        result.stats.first_output = first_output;
        result.stats.timings = StageTimings {
            plan: plan_time,
            enact: enact_time,
            collect: collect_t0.elapsed(),
            ..StageTimings::default()
        };
        result.stats.elapsed = t0.elapsed();
        sink.emit_finished(&result.stats);
        result
    }
}

/// What follows a sealed round: another round (checkpointing, input left)
/// or the end of enactment.
enum RoundOutcome {
    Continue,
    Done,
}

/// Join every worker and return the first error in plan order. A
/// panicking instance fails like a failing one (see [`run_worker`]), so a
/// thread that unwinds past it is only a panic in the wind-down itself.
fn join_workers(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<(), DataflowError>>>,
) -> Result<(), DataflowError> {
    let mut outcome = Ok(());
    for h in handles {
        let result =
            h.join().unwrap_or_else(|_| Err(DataflowError::Enactment("worker thread panicked".into())));
        if outcome.is_ok() {
            outcome = result;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::super::events::RecordingObserver;
    use super::super::{
        CancelToken, Mapping, MappingKind, MpiMapping, MultiMapping, RedisMapping, SimpleMapping,
    };
    use super::*;
    use crate::pe::{iterative_fn, producer_fn};
    use laminar_json::Value;
    use parking_lot::Mutex;

    fn square_graph() -> WorkflowGraph {
        let mut g = WorkflowGraph::new("sq");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Square", |v| v.as_i64().map(|n| Value::Int(n * n))));
        g.connect(a, "output", b, "input").unwrap();
        g
    }

    #[test]
    fn every_mapping_reports_stage_timings() {
        let g = square_graph();
        let opts = RunOptions::iterations(20).with_processes(4);
        for kind in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
            let r = kind.build().execute(&g, &opts).unwrap();
            let t = r.stats.timings;
            assert!(
                t.plan + t.enact + t.collect <= r.stats.elapsed,
                "{kind}: stages {t:?} exceed elapsed {:?}",
                r.stats.elapsed
            );
            assert!(t.enact > std::time::Duration::ZERO, "{kind}: enact stage not timed");
            // No observer is attached, and every mapping's events still
            // reach the sink as they happen.
            let first = r.stats.first_output;
            assert!(first.is_some_and(|f| f <= r.stats.elapsed), "{kind}: first_output {first:?}");
        }
    }

    #[test]
    fn sequential_runtime_is_simple_mapping() {
        let g = square_graph();
        let opts = RunOptions::iterations(10);
        let via_runtime = Runtime::new(&g, &opts).sequential_observed(None).unwrap();
        let via_mapping = SimpleMapping.execute(&g, &opts).unwrap();
        assert_eq!(via_runtime.outputs, via_mapping.outputs);
        assert_eq!(via_runtime.stats.processed, via_mapping.stats.processed);
    }

    /// Records the stream and fires the shared token once `at` events
    /// have been observed.
    struct CancelAt {
        token: CancelToken,
        at: u64,
        events: Mutex<Vec<RunEvent>>,
    }

    impl super::super::RunObserver for CancelAt {
        fn on_event(&self, seq: u64, event: &RunEvent) {
            self.events.lock().push(event.clone());
            if seq + 1 >= self.at {
                self.token.cancel();
            }
        }
    }

    #[test]
    fn sequential_cancel_yields_prefix_of_the_batch_stream() {
        let g = square_graph();
        // Reference: the deterministic batch stream of the full run.
        let recorder = RecordingObserver::new();
        Runtime::new(&g, &RunOptions::iterations(20))
            .sequential_observed(Some(recorder.clone() as Arc<dyn super::super::RunObserver>))
            .unwrap();
        let batch: Vec<RunEvent> = recorder.take().into_iter().map(|(_, _, e)| e).collect();

        // Same run, cancelled after 9 events.
        let token = CancelToken::new();
        let observer = Arc::new(CancelAt { token: token.clone(), at: 9, events: Mutex::new(Vec::new()) });
        let opts = RunOptions::iterations(20).with_cancel(token);
        let err = Runtime::new(&g, &opts)
            .sequential_observed(Some(Arc::clone(&observer) as Arc<dyn super::super::RunObserver>))
            .unwrap_err();
        assert_eq!(err, DataflowError::Cancelled);

        let got = observer.events.lock().clone();
        assert!(matches!(got.last(), Some(RunEvent::Cancelled)), "stream sealed by Cancelled");
        let prefix = &got[..got.len() - 1];
        assert!(prefix.len() >= 9, "cancellation is cooperative: at least the trigger prefix ran");
        assert!(prefix.len() < batch.len(), "the run really stopped early");
        assert_eq!(prefix, &batch[..prefix.len()], "cancelled stream is an exact batch prefix");
    }

    #[test]
    fn unbounded_threaded_run_ends_only_via_cancel() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Count(AtomicUsize);
        impl super::super::RunObserver for Count {
            fn on_event(&self, _seq: u64, event: &RunEvent) {
                if matches!(event, RunEvent::Output { .. }) {
                    self.0.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let token = CancelToken::new();
        let outputs = Arc::new(Count(AtomicUsize::new(0)));
        let handle = {
            let token = token.clone();
            let outputs = Arc::clone(&outputs);
            std::thread::spawn(move || {
                let g = square_graph();
                let opts =
                    RunOptions::unbounded(std::time::Duration::from_micros(100), token).with_processes(4);
                MultiMapping.execute_observed(&g, &opts, Some(outputs as Arc<dyn super::super::RunObserver>))
            })
        };
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        while outputs.0.load(std::sync::atomic::Ordering::SeqCst) < 5 {
            assert!(Instant::now() < deadline, "unbounded source never produced");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        token.cancel();
        let result = handle.join().unwrap();
        assert_eq!(result.unwrap_err(), DataflowError::Cancelled);
        assert!(outputs.0.load(std::sync::atomic::Ordering::SeqCst) >= 5);
    }

    /// A graph whose downstream PE carries all three kinds of resumable
    /// state: `state.*` entries (group-by tallies), a running scalar, and
    /// the PRNG stream — if any of them is lost at an epoch boundary the
    /// outputs diverge from the batch run.
    fn stateful_graph() -> WorkflowGraph {
        let src = r#"
            pe Words : producer {
                output output;
                process {
                    let words = ["a", "b", "c"];
                    emit([words[iteration % 3], iteration]);
                }
            }
            pe Tally : generic {
                input input groupby 0;
                output output;
                init { state.seen = {}; state.noise = 0; }
                process {
                    let w = input[0];
                    state.seen[w] = get(state.seen, w, 0) + 1;
                    state.noise = state.noise + randint(0, 9);
                    emit([w, state.seen[w], state.noise]);
                }
            }
        "#;
        let mut g = WorkflowGraph::new("tally");
        let w = g.add_script_pe(src, "Words").unwrap();
        let t = g.add_script_pe(src, "Tally").unwrap();
        g.connect(w, "output", t, "input").unwrap();
        g
    }

    fn sorted_outputs(r: &super::super::RunResult) -> Vec<String> {
        let mut v: Vec<String> = r
            .outputs
            .iter()
            .flat_map(|((pe, port), vals)| vals.iter().map(move |val| format!("{pe}/{port}:{val:?}")))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn checkpointed_run_matches_batch_on_every_mapping() {
        let g = stateful_graph();
        for kind in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
            let opts = RunOptions::iterations(20).with_processes(4);
            let plain = kind.build().execute(&g, &opts).unwrap();
            let opts = RunOptions::iterations(20).with_processes(4).with_checkpoints(6);
            let ck = kind.build().execute(&g, &opts).unwrap();
            // 20 iterations in chunks of 6: epochs after 6, 12, 18, then a
            // partial round [18, 20). Group-by state, the noise accumulator
            // and the PRNG stream all cross three restore boundaries.
            assert_eq!(sorted_outputs(&ck), sorted_outputs(&plain), "{kind}: outputs diverged");
            assert_eq!(ck.stats.processed, plain.stats.processed, "{kind}: processed diverged");
            assert_eq!(ck.stats.emitted, plain.stats.emitted, "{kind}: emitted diverged");
        }
    }

    #[test]
    fn sequential_checkpointed_run_is_byte_identical_to_batch() {
        // The Simple mapping is fully deterministic, so checkpointing must
        // not even reorder outputs.
        let g = stateful_graph();
        let plain = SimpleMapping.execute(&g, &RunOptions::iterations(21)).unwrap();
        let ck = SimpleMapping.execute(&g, &RunOptions::iterations(21).with_checkpoints(7)).unwrap();
        assert_eq!(ck.outputs, plain.outputs);
        assert_eq!(ck.printed, plain.printed);
    }

    #[test]
    fn epoch_markers_land_on_chunk_boundaries_only() {
        let g = stateful_graph();
        let recorder = RecordingObserver::new();
        Runtime::new(&g, &RunOptions::iterations(10).with_checkpoints(4))
            .sequential_observed(Some(recorder.clone() as Arc<dyn super::super::RunObserver>))
            .unwrap();
        let epochs: Vec<u64> = recorder
            .take()
            .into_iter()
            .filter_map(|(_, _, e)| match e {
                RunEvent::Epoch { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        // Full chunks end at 4 and 8; the partial tail [8, 10) gets none.
        assert_eq!(epochs, vec![1, 2]);

        // A limit landing exactly on a chunk boundary still gets its epoch.
        let recorder = RecordingObserver::new();
        Runtime::new(&g, &RunOptions::iterations(8).with_checkpoints(4))
            .sequential_observed(Some(recorder.clone() as Arc<dyn super::super::RunObserver>))
            .unwrap();
        let epochs: Vec<u64> = recorder
            .take()
            .into_iter()
            .filter_map(|(_, _, e)| match e {
                RunEvent::Epoch { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(epochs, vec![1, 2]);
    }

    #[test]
    fn kill_fault_dies_after_publishing_the_epoch() {
        use crate::fault::FaultPlan;
        let g = stateful_graph();
        let recorder = RecordingObserver::new();
        let opts = RunOptions::iterations(20)
            .with_checkpoints(4)
            .with_faults(FaultPlan { kill_at_epoch: Some(2), ..FaultPlan::none() });
        let err = Runtime::new(&g, &opts)
            .sequential_observed(Some(recorder.clone() as Arc<dyn super::super::RunObserver>))
            .unwrap_err();
        assert_eq!(err, DataflowError::Injected { epoch: 2 });
        let events: Vec<RunEvent> = recorder.take().into_iter().map(|(_, _, e)| e).collect();
        // The crash happens *after* the epoch marker reached the observer:
        // a journal behind this observer has the checkpoint on disk.
        assert!(
            matches!(events.last(), Some(RunEvent::Epoch { id: 2, .. })),
            "last event should be epoch 2, got {:?}",
            events.last()
        );
    }

    #[test]
    fn resume_from_a_kill_refolds_to_the_batch_result() {
        use super::super::ResumePoint;
        use crate::fault::FaultPlan;
        let g = stateful_graph();
        let batch = SimpleMapping.execute(&g, &RunOptions::iterations(20)).unwrap();

        // Crash after epoch 2 (8 of 20 iterations done), recording the
        // stream a journal would have persisted.
        let recorder = RecordingObserver::new();
        let opts = RunOptions::iterations(20)
            .with_checkpoints(4)
            .with_faults(FaultPlan { kill_at_epoch: Some(2), ..FaultPlan::none() });
        Runtime::new(&g, &opts)
            .sequential_observed(Some(recorder.clone() as Arc<dyn super::super::RunObserver>))
            .unwrap_err();
        let events: Vec<RunEvent> = recorder.take().into_iter().map(|(_, _, e)| e).collect();
        let snapshots = match events.last() {
            Some(RunEvent::Epoch { id: 2, state }) => state.clone(),
            other => panic!("expected epoch 2 last, got {other:?}"),
        };

        // Resume from the journaled prefix and finish the run.
        let opts = RunOptions::iterations(20).with_checkpoints(4).with_resume(ResumePoint {
            epoch: 2,
            snapshots,
            events,
        });
        let resumed = Runtime::new(&g, &opts).sequential_observed(None).unwrap();
        assert_eq!(resumed.outputs, batch.outputs, "resume diverged from batch outputs");
        assert_eq!(resumed.printed, batch.printed, "resume diverged from batch prints");
        assert_eq!(resumed.stats.processed, batch.stats.processed);
        assert_eq!(resumed.stats.emitted, batch.stats.emitted);
    }

    #[test]
    fn stop_fault_ends_an_unbounded_run_deterministically() {
        use crate::fault::FaultPlan;
        let g = stateful_graph();
        // Unbounded source, checkpoint every 5, stop after 2 epochs: the
        // run completes *successfully* having done exactly 10 iterations —
        // bit-for-bit the bounded 10-iteration run, which is what lets the
        // chaos suite compare an interrupted+resumed unbounded run against
        // a batch reference.
        let token = CancelToken::new();
        let opts = RunOptions::unbounded(std::time::Duration::ZERO, token)
            .with_checkpoints(5)
            .with_faults(FaultPlan { stop_at_epoch: Some(2), ..FaultPlan::none() });
        let stopped = Runtime::new(&g, &opts).sequential_observed(None).unwrap();
        let bounded = SimpleMapping.execute(&g, &RunOptions::iterations(10)).unwrap();
        assert_eq!(stopped.outputs, bounded.outputs);
        assert_eq!(stopped.stats.processed, bounded.stats.processed);
    }

    #[test]
    fn threaded_mappings_share_one_runtime_semantics() {
        let g = square_graph();
        let opts = RunOptions::iterations(25).with_processes(5);
        let baseline: Vec<i64> = {
            let mut v: Vec<i64> = SimpleMapping
                .execute(&g, &RunOptions::iterations(25))
                .unwrap()
                .port_values("Square", "output")
                .iter()
                .filter_map(Value::as_i64)
                .collect();
            v.sort();
            v
        };
        for mapping in [&MultiMapping as &dyn Mapping, &MpiMapping, &RedisMapping::default()] {
            let r = mapping.execute(&g, &opts).unwrap();
            let mut got: Vec<i64> =
                r.port_values("Square", "output").iter().filter_map(Value::as_i64).collect();
            got.sort();
            assert_eq!(got, baseline, "{} diverged from Simple", mapping.kind());
        }
    }

    #[test]
    fn every_mapping_throttles_its_sources_once_per_iteration() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // The backpressure seam: a consumer-side observer must get one
        // `throttle` call per source iteration on every mapping, so a
        // bounded event log can pace the producer instead of losing data.
        struct Pacer(AtomicU64);
        impl super::super::RunObserver for Pacer {
            fn on_event(&self, _seq: u64, _event: &RunEvent) {}
            fn throttle(&self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let g = square_graph();
        let iterations = 15;
        for kind in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
            let pacer = Arc::new(Pacer(AtomicU64::new(0)));
            let opts = RunOptions::iterations(iterations).with_processes(4);
            kind.build()
                .execute_observed(&g, &opts, Some(Arc::clone(&pacer) as Arc<dyn super::super::RunObserver>))
                .unwrap();
            let calls = pacer.0.load(Ordering::SeqCst);
            assert!(
                calls >= iterations as u64,
                "{kind}: {calls} throttle calls for {iterations} source iterations"
            );
        }
    }

    #[test]
    fn a_panicking_source_fails_its_run_on_every_parallel_mapping() {
        // The source panics at its fourth iteration while its relays wait
        // for more: the panic winds down like a failure, so every relay
        // gets its EOS and the run ends with an error naming the panic.
        const BOUND: std::time::Duration = std::time::Duration::from_secs(5);
        for kind in [MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
            let (done, result) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let boom = |i| if i == 3 { panic!("boom at {i}") } else { Value::Int(i) };
                let mut g = WorkflowGraph::new("boom");
                let a = g.add(producer_fn("Boom", boom));
                let b = g.add(iterative_fn("Relay", Some));
                g.connect(a, "output", b, "input").unwrap();
                let _ = done.send(kind.build().execute(&g, &RunOptions::iterations(10).with_processes(3)));
            });
            // A run that hangs leaves its thread behind and fails here.
            let err = match result.recv_timeout(BOUND) {
                Ok(result) => result.unwrap_err(),
                Err(_) => panic!("{kind}: the run did not end within {BOUND:?}"),
            };
            let message = err.to_string();
            assert!(message.contains("PE 'Boom' instance 0 panicked: boom at 3"), "{kind}: {message}");
        }
    }

    /// Records every datum its runner sends, tagged with the dense id the
    /// transport was wired for, and answers every `recv` with end-of-stream
    /// — so a transport handed to the wrong runner shows up as a wrong
    /// tag, never as a hang.
    struct Tagged {
        wired_for: usize,
        sent: Arc<Mutex<Vec<(usize, i64)>>>,
        received: Arc<Mutex<Vec<usize>>>,
    }

    impl Transport for Tagged {
        fn send_batch(&mut self, batch: &mut Vec<RoutedDatum>) -> Result<(), DataflowError> {
            let values = batch.drain(..).map(|d| (self.wired_for, d.value.as_i64().unwrap()));
            self.sent.lock().extend(values);
            Ok(())
        }

        fn send_eos(&mut self, _dest: crate::planner::InstanceId) -> Result<(), DataflowError> {
            Ok(())
        }

        fn recv(&mut self) -> Result<super::super::worker::TransportMsg, DataflowError> {
            self.received.lock().push(self.wired_for);
            Ok(super::super::worker::TransportMsg::Eos)
        }
    }

    #[test]
    fn wire_hands_each_instance_its_own_transport_fresh_every_round() {
        let mut g = WorkflowGraph::new("wire");
        let a = g.add(producer_fn("A", Value::Int));
        let b = g.add(producer_fn("B", |i| Value::Int(100 + i)));
        let c = g.add(iterative_fn("C", Some));
        g.connect(a, "output", c, "input").unwrap();
        g.connect(b, "output", c, "input").unwrap();
        let sent = Arc::new(Mutex::new(Vec::new()));
        let received = Arc::new(Mutex::new(Vec::new()));
        let mut wirings = 0;
        // Four processes: A and B one instance each (dense ids 0 and 1),
        // C two (2 and 3). Six iterations in checkpoint rounds of two.
        let opts = RunOptions::iterations(6).with_processes(4).with_checkpoints(2);
        let wire = |plan: &ConcretePlan| {
            wirings += 1;
            let tagged =
                |wired_for| Tagged { wired_for, sent: Arc::clone(&sent), received: Arc::clone(&received) };
            Ok((0..plan.total_processes).map(tagged).collect())
        };
        Runtime::new(&g, &opts).threaded_observed(wire, None).unwrap();
        assert_eq!(wirings, 3, "one wiring per round");
        // A's data leaves through the transport wired for A, B's through B's.
        let sent = sent.lock();
        assert_eq!(sent.len(), 12);
        for &(wired_for, v) in sent.iter() {
            assert_eq!(
                wired_for,
                usize::from(v >= 100),
                "value {v} left through instance {wired_for}'s transport"
            );
        }
        // Each C instance takes its two upstream EOS per round on its own
        // transport; sources never receive.
        let mut recvs = [0; 4];
        for &w in received.lock().iter() {
            recvs[w] += 1;
        }
        assert_eq!(recvs, [0, 0, 6, 6]);
    }
}
