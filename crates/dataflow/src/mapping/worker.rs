//! Shared per-instance execution machinery used by every mapping.
//!
//! An [`InstanceRunner`] wraps one PE instance together with its routing
//! tables. Mappings feed it data and deliver the routed emissions over
//! their own transport; terminal outputs, prints and counters leave the
//! worker loop as [`RunEvent`]s ([`run_worker`]) instead of accumulating
//! in per-instance buffers.
//!
//! # The zero-allocation datapath
//!
//! Steady-state enactment performs no per-datum port-name `String`
//! allocations and no per-destination deep copies:
//!
//! * Port names are interned into the plan's [`PortTable`] once; the hot
//!   path carries [`PortId`] indices ([`RoutedDatum`], [`TransportMsg`],
//!   [`Emissions`]) and an interning [`laminar_script::Sink`] resolves
//!   emitted names to ids without allocating.
//! * Payloads travel as [`SharedValue`] (`Arc<Value>`): fan-out clones a
//!   refcount, and the receiving instance recovers ownership zero-copy in
//!   the single-reference case ([`Value::unshare`]).
//! * Emission buffers ([`Emissions`]) are owned by the caller and reused
//!   across `process` calls; routers write destination indices into a
//!   scratch `Vec` ([`crate::routing::Router::route_into`]).
//! * Transports send one frame per destination per emission burst
//!   ([`Transport::send_batch`]), not one per datum.

use super::events::{EventSink, RunEvent};
use crate::error::{panic_message, DataflowError};
use crate::graph::{NodeId, WorkflowGraph};
use crate::pe::Pe;
use crate::planner::{ConcretePlan, InstanceId};
use crate::ports::{PortId, PortTable};
use crate::routing::Router;
use laminar_json::{SharedValue, Value};
use laminar_script::Sink;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One outgoing edge from the perspective of a sender instance.
pub struct OutEdge {
    /// Source port on this PE.
    pub from_port: PortId,
    /// Destination node.
    pub to_node: NodeId,
    /// Destination input port.
    pub to_port: PortId,
    /// Stateful router over the destination's instances.
    pub router: Router,
}

/// A datum addressed to a concrete destination instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedDatum {
    /// Destination instance.
    pub dest: InstanceId,
    /// Destination input port (interned).
    pub port: PortId,
    /// Payload, refcounted so fan-out never deep-copies.
    pub value: SharedValue,
}

/// Emissions of one `process` call, classified. Owned by the enactment
/// loop and reused across calls (buffers are cleared, not reallocated).
#[derive(Debug, Default)]
pub struct Emissions {
    /// Data to forward to downstream instances.
    pub routed: Vec<RoutedDatum>,
    /// Terminal-port emissions `(port, value)`.
    pub collected: Vec<(PortId, Value)>,
    /// Captured print lines.
    pub printed: Vec<String>,
}

impl Emissions {
    fn clear(&mut self) {
        self.routed.clear();
        self.collected.clear();
        self.printed.clear();
    }
}

/// Per-instance stats counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstanceStats {
    /// Data (or producer iterations) processed.
    pub processed: u64,
    /// Data emitted on any port.
    pub emitted: u64,
}

/// A [`Sink`] that resolves emitted port names against the interned
/// [`PortTable`] immediately — a hash lookup, never a `String` allocation.
/// Emissions on ports the graph never declared are dropped (they could
/// route nowhere), matching the classic behaviour for unconnected,
/// non-terminal ports.
struct InternSink {
    ports: Arc<PortTable>,
    emitted: Vec<(PortId, Value)>,
    /// Every `emit` call, including those dropped for undeclared ports —
    /// the `emitted` stat counts attempts, so a typo'd port name stays
    /// visible in diagnostics (emitted > delivered).
    emit_calls: u64,
    printed: Vec<String>,
}

impl Sink for InternSink {
    fn emit(&mut self, port: &str, value: Value) {
        self.emit_calls += 1;
        if let Some(pid) = self.ports.id(port) {
            self.emitted.push((pid, value));
        }
    }
    fn print(&mut self, text: &str) {
        self.printed.push(text.to_string());
    }
}

/// A PE instance plus its routing state.
pub struct InstanceRunner {
    /// Identity within the concrete plan.
    pub inst: InstanceId,
    /// PE name (for events/results/stats) — refcounted so the event
    /// stream carries it without allocating.
    pub node_name: Arc<str>,
    pe: Box<dyn Pe>,
    outgoing: Vec<OutEdge>,
    terminal_ports: Vec<PortId>,
    /// Number of upstream EOS signals this instance must observe before it
    /// can finish.
    pub expected_eos: usize,
    /// Stats counters.
    pub stats: InstanceStats,
    iteration: i64,
    sink: InternSink,
    ports: Arc<PortTable>,
    /// The port a source's datum arrives on: its first declared input,
    /// else the implicit `"input"` that drives data-fed producers.
    input_port: PortId,
    /// A root that declares inputs (a lone PE run as a function) is fed
    /// the iteration index when the run supplies no datum.
    feeds_iteration: bool,
    /// Scratch for router destination indices, reused across datums.
    route_scratch: Vec<usize>,
}

impl InstanceRunner {
    /// Build the runner for instance `inst` under `plan`.
    pub fn new(
        graph: &WorkflowGraph,
        plan: &ConcretePlan,
        inst: InstanceId,
    ) -> Result<InstanceRunner, DataflowError> {
        let ports = Arc::clone(plan.ports());
        let intern = |name: &str| {
            ports.id(name).ok_or_else(|| {
                DataflowError::Graph(format!("port '{name}' missing from the plan's port table"))
            })
        };
        let factory = graph.node(inst.node)?;
        let meta = factory.meta();
        let node_name: Arc<str> = Arc::from(meta.name.as_str());
        let mut outgoing = Vec::new();
        for c in graph.connections().iter().filter(|c| c.from == inst.node) {
            outgoing.push(OutEdge {
                from_port: intern(&c.from_port)?,
                to_node: c.to,
                to_port: intern(&c.to_port)?,
                router: Router::new(c.grouping, plan.count(c.to)),
            });
        }
        let connected: Vec<PortId> = outgoing.iter().map(|e| e.from_port).collect();
        let mut terminal_ports = Vec::new();
        for p in &meta.outputs {
            let pid = intern(p)?;
            if !connected.contains(&pid) {
                terminal_ports.push(pid);
            }
        }
        let expected_eos =
            graph.connections().iter().filter(|c| c.to == inst.node).map(|c| plan.count(c.from)).sum();
        let mut pe = factory.instantiate();
        let mut sink =
            InternSink { ports: Arc::clone(&ports), emitted: Vec::new(), emit_calls: 0, printed: Vec::new() };
        pe.setup(inst.index, plan.count(inst.node), &mut sink)?;
        // Anything emitted during setup would have nowhere to go; prints
        // are preserved.
        sink.emitted.clear();
        let input_port = intern(meta.inputs.first().map_or("input", |p| p.name.as_str()))?;
        let feeds_iteration = !meta.inputs.is_empty();
        Ok(InstanceRunner {
            inst,
            node_name,
            pe,
            outgoing,
            terminal_ports,
            expected_eos,
            stats: InstanceStats::default(),
            iteration: 0,
            sink,
            ports,
            input_port,
            feeds_iteration,
            route_scratch: Vec::new(),
        })
    }

    /// The interned port table this runner resolves against.
    pub fn ports(&self) -> &Arc<PortTable> {
        &self.ports
    }

    /// Whether the instance is a source (no upstream edges).
    pub fn is_source(&self) -> bool {
        self.expected_eos == 0
    }

    /// Run one producer iteration (sources only), filling `out`.
    pub fn run_iteration(&mut self, datum: Option<Value>, out: &mut Emissions) -> Result<(), DataflowError> {
        let datum = datum.or_else(|| self.feeds_iteration.then_some(Value::Int(self.iteration)));
        self.invoke(datum.map(|v| (self.input_port, v)), out)
    }

    /// Process one incoming datum, filling `out`.
    pub fn run_datum(
        &mut self,
        port: PortId,
        value: Value,
        out: &mut Emissions,
    ) -> Result<(), DataflowError> {
        self.invoke(Some((port, value)), out)
    }

    fn invoke(&mut self, input: Option<(PortId, Value)>, out: &mut Emissions) -> Result<(), DataflowError> {
        out.clear();
        let it = self.iteration;
        self.iteration += 1;
        self.stats.processed += 1;
        self.sink.emitted.clear();
        self.sink.emit_calls = 0;
        let borrowed = input.map(|(p, v)| (self.ports.name(p), v));
        let result = self.pe.process(borrowed, it, &mut self.sink);
        std::mem::swap(&mut out.printed, &mut self.sink.printed);
        result?;
        self.stats.emitted += self.sink.emit_calls;
        let InstanceRunner { sink, outgoing, terminal_ports, route_scratch, .. } = self;
        for (pid, value) in sink.emitted.drain(..) {
            if !outgoing.iter().any(|e| e.from_port == pid) {
                if terminal_ports.contains(&pid) {
                    out.collected.push((pid, value));
                }
                continue;
            }
            // The payload is shared from here on: every destination holds a
            // refcount, and the (typical) sole receiver unwraps it zero-copy.
            let shared = value.into_shared();
            for edge in outgoing.iter_mut().filter(|e| e.from_port == pid) {
                route_scratch.clear();
                edge.router.route_into(&shared, route_scratch);
                for &dest_index in route_scratch.iter() {
                    out.routed.push(RoutedDatum {
                        dest: InstanceId { node: edge.to_node, index: dest_index },
                        port: edge.to_port,
                        value: SharedValue::clone(&shared),
                    });
                }
            }
        }
        Ok(())
    }

    /// Capture this instance's durable state for an epoch checkpoint:
    /// the PE's own snapshot (script `state.*` + RNG; `null` for native
    /// PEs), the invocation counter feeding the script-visible
    /// `iteration`, and the shuffle cursors of the outgoing routers. Must
    /// only be called at quiescence (no data in flight) — the round-based
    /// checkpoint driver guarantees that by draining each round to EOS.
    pub fn snapshot(&self) -> Value {
        let cursors = self.outgoing.iter().map(|e| Value::Int(e.router.cursor() as i64)).collect();
        let mut snap = Value::Null;
        snap.set("pe", self.pe.snapshot_state().unwrap_or(Value::Null))
            .set("iteration", self.iteration)
            .set("cursors", Value::Array(cursors));
        snap
    }

    /// Restore state captured by [`InstanceRunner::snapshot`] into a
    /// freshly built runner. The runner's `setup` (script `init`) has
    /// already run; the snapshot overwrites its effects, and any prints
    /// `init` produced are discarded — a restored instance is a
    /// continuation, not a fresh start. Stats counters stay at zero: each
    /// round reports its own deltas and the event fold sums them.
    pub fn restore(&mut self, snapshot: &Value) {
        if !snapshot["pe"].is_null() {
            self.pe.restore_state(&snapshot["pe"]);
        }
        self.iteration = snapshot["iteration"].as_i64().unwrap_or(0);
        if let Some(cursors) = snapshot["cursors"].as_array() {
            for (edge, c) in self.outgoing.iter_mut().zip(cursors) {
                if let Some(c) = c.as_i64() {
                    edge.router.set_cursor(c.max(0) as usize);
                }
            }
        }
        self.sink.printed.clear();
    }

    /// Downstream instances that must be told when this instance finishes:
    /// every instance of every successor node, once per outgoing edge.
    pub fn eos_targets(&self, plan: &ConcretePlan) -> Vec<InstanceId> {
        let mut out = Vec::new();
        for edge in &self.outgoing {
            for i in 0..plan.count(edge.to_node) {
                out.push(InstanceId { node: edge.to_node, index: i });
            }
        }
        out
    }
}

/// Plan-level instance counts in node order — the payload of
/// [`RunEvent::PlanReady`].
pub fn plan_pes(graph: &WorkflowGraph, plan: &ConcretePlan) -> Vec<(Arc<str>, usize)> {
    graph
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, n)| (Arc::from(n.meta().name.as_str()), plan.count(NodeId(i))))
        .collect()
}

/// Flush one invocation's terminal emissions and prints into `sink` as
/// events, under one sink lock (none when there are none). Shared by the
/// sequential drain and the worker loop.
pub(super) fn flush_emissions(
    sink: &EventSink,
    pe: &Arc<str>,
    instance: usize,
    ports: &PortTable,
    emissions: &mut Emissions,
) {
    if emissions.collected.is_empty() && emissions.printed.is_empty() {
        return;
    }
    let outputs = emissions.collected.drain(..).map(|(pid, value)| RunEvent::Output {
        pe: Arc::clone(pe),
        instance,
        port: ports.shared_name(pid),
        value,
    });
    let prints =
        emissions.printed.drain(..).map(|line| RunEvent::Print { pe: Arc::clone(pe), instance, line });
    sink.extend(outputs.chain(prints));
}

// ---------------------------------------------------------------------------
// Generic worker loop shared by the parallel mappings
// ---------------------------------------------------------------------------

/// A message as seen by a receiving instance.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportMsg {
    /// One emission burst for this instance: `(port, payload)` in send
    /// order. Senders group a burst by destination, so a batch always came
    /// from one `process` call of one upstream instance — per-edge FIFO
    /// order is the sort stability of [`drain_batch_groups`].
    Data(Vec<(PortId, SharedValue)>),
    /// One upstream instance finished.
    Eos,
}

/// The transport a parallel mapping provides to each worker.
pub trait Transport {
    /// Deliver one emission burst, draining `batch`. Implementations group
    /// the batch by destination ([`drain_batch_groups`]) and issue **one**
    /// transport frame per destination instead of one per datum.
    fn send_batch(&mut self, batch: &mut Vec<RoutedDatum>) -> Result<(), DataflowError>;
    /// Deliver an end-of-stream signal to another instance.
    fn send_eos(&mut self, dest: InstanceId) -> Result<(), DataflowError>;
    /// Block for the next message addressed to this instance.
    fn recv(&mut self) -> Result<TransportMsg, DataflowError>;
}

/// Group a routed burst by destination, preserving per-destination send
/// order (stable sort), and hand each group to `send`. Shared by every
/// transport's [`Transport::send_batch`].
pub fn drain_batch_groups(
    batch: &mut Vec<RoutedDatum>,
    mut send: impl FnMut(InstanceId, Vec<(PortId, SharedValue)>) -> Result<(), DataflowError>,
) -> Result<(), DataflowError> {
    // Stable sort: datums for the same destination keep their emission
    // order, which is exactly the per-edge FIFO guarantee.
    batch.sort_by_key(|d| d.dest);
    let mut items = batch.drain(..).peekable();
    while let Some(first) = items.next() {
        let dest = first.dest;
        let mut group = vec![(first.port, first.value)];
        while items.peek().is_some_and(|d| d.dest == dest) {
            let d = items.next().expect("peeked");
            group.push((d.port, d.value));
        }
        send(dest, group)?;
    }
    Ok(())
}

/// The window of *global* source iterations one [`run_worker`] call
/// drives: `[base, end)`, with `end = None` meaning run until cancelled.
/// A plain run uses the full window (`0 .. bounded_invocations()`); the
/// checkpoint driver slices the same global sequence into
/// `checkpoint_every`-sized rounds, so striping (`i % siblings`) and
/// `datum_for(i)` see identical indices either way.
#[derive(Debug, Clone, Copy)]
pub struct SourceRange {
    /// First global iteration of the window.
    pub base: usize,
    /// One past the last iteration, `None` for unbounded.
    pub end: Option<usize>,
}

/// Drive one instance to completion over `transport`, flushing its
/// [`RunEvent`]s into `sink` per emission burst, as they happen.
///
/// Sources run the `range` window of global invocations (striped across
/// sibling source instances), then signal EOS downstream. Sinks/relays
/// consume data until every upstream instance has signalled EOS, then
/// propagate EOS. The runner is borrowed, not consumed, so the checkpoint
/// driver can snapshot it at the post-join quiescent point.
pub fn run_worker<T: Transport>(
    runner: &mut InstanceRunner,
    mut transport: T,
    plan: &ConcretePlan,
    options: &super::RunOptions,
    range: SourceRange,
    sink: &EventSink,
) -> Result<(), DataflowError> {
    let pe = Arc::clone(&runner.node_name);
    let instance = runner.inst.index;
    let ports = Arc::clone(runner.ports());
    sink.push(RunEvent::InstanceStarted { pe: Arc::clone(&pe), instance });
    let mut emissions = Emissions::default();
    let send_delay = options.faults.delay_send;
    let deliver = |emissions: &mut Emissions, transport: &mut T| -> Result<(), DataflowError> {
        if !emissions.routed.is_empty() {
            // Injected latency seam: widen the in-flight window the epoch
            // quiescence drain has to absorb (chaos tests only).
            if let Some(d) = send_delay {
                std::thread::sleep(d);
            }
            transport.send_batch(&mut emissions.routed)?;
        }
        flush_emissions(sink, &pe, instance, &ports, emissions);
        Ok(())
    };

    let cancel = &options.cancel;
    // Outstanding upstream EOS signals, tracked outside the drive phase so
    // the failure wind-down below knows how much is left to drain.
    let mut remaining = runner.expected_eos;
    let drive = || -> Result<(), DataflowError> {
        if runner.is_source() {
            let siblings = plan.count(runner.inst.node);
            let my_index = runner.inst.index;
            let pace = options.pace();
            let mut i = range.base;
            // Cancellation is checked before every iteration: an unbounded
            // source ([`super::RunInput::Unbounded`]) ends *only* here, and a
            // bounded one stops early at an invocation boundary. Either way
            // the source falls through to normal EOS propagation below, so
            // downstream instances terminate cleanly.
            loop {
                if cancel.is_cancelled() {
                    break;
                }
                if range.end.is_some_and(|n| i >= n) {
                    break;
                }
                if i % siblings == my_index {
                    runner.run_iteration(options.datum_for(i), &mut emissions)?;
                    deliver(&mut emissions, &mut transport)?;
                    // Backpressure seam: sources (the rate-setters) park
                    // here when the observer's consumer is behind. Relay
                    // instances never throttle — they must keep draining
                    // so upstream EOS always lands (deadlock freedom).
                    sink.throttle();
                    if !pace.is_zero() && cancel.sleep_cancellable(pace) {
                        break; // cancelled mid-pace: don't run another iteration
                    }
                }
                i += 1;
            }
        } else {
            // Once cancellation is observed the instance stops *processing*
            // but keeps *draining*: in-flight data is discarded until every
            // upstream EOS arrives, so no peer ever blocks on a full or
            // closed inbox and the shutdown stays deadlock-free.
            let mut discard = false;
            while remaining > 0 {
                match transport.recv()? {
                    TransportMsg::Data(items) => {
                        for (port, value) in items {
                            if !discard && cancel.is_cancelled() {
                                discard = true;
                            }
                            if discard {
                                continue;
                            }
                            runner.run_datum(port, Value::unshare(value), &mut emissions)?;
                            deliver(&mut emissions, &mut transport)?;
                        }
                    }
                    TransportMsg::Eos => remaining -= 1,
                }
            }
        }
        Ok(())
    };
    // A panic out of the PE or the transport is this instance's failure:
    // one unwind boundary per worker thread, not one per invocation.
    let failure = match catch_unwind(AssertUnwindSafe(drive)) {
        Ok(result) => result.err(),
        Err(panic) => Some(DataflowError::Enactment(format!(
            "PE '{pe}' instance {instance} panicked: {}",
            panic_message(panic.as_ref())
        ))),
    };
    if failure.is_some() {
        // A failing or panicking instance must not strand its peers: its
        // receiver stays open while it drains the remaining upstream EOS
        // signals (discarding data), and it still propagates EOS downstream
        // before surfacing the error. Without this wind-down a relay
        // waiting on the dead instance blocks in `recv` forever, and an
        // upstream sender blocks on its full inbox. So on every transport
        // each instance gets all its EOS, whether a peer succeeds, fails,
        // panics or is cancelled. Transport errors during wind-down are
        // secondary: the PE failure wins. One that stops the drain early
        // still frees the senders, since dropping a mesh transport closes
        // its inbox (DESIGN §3.4).
        while remaining > 0 {
            match transport.recv() {
                Ok(TransportMsg::Eos) => remaining -= 1,
                Ok(TransportMsg::Data(_)) => {}
                Err(_) => break,
            }
        }
    }
    for dest in runner.eos_targets(plan) {
        let sent = transport.send_eos(dest);
        if failure.is_none() {
            sent?;
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }
    // A cancelled run makes no completeness claim: suppress the final
    // counters so the emitted stream stays a clean prefix (terminated by
    // the runtime's `Cancelled` marker, never by partial `instance_done`
    // events that would fold into misleading totals).
    if !cancel.is_cancelled() {
        sink.push(RunEvent::InstanceFinished {
            pe,
            instance,
            processed: runner.stats.processed,
            emitted: runner.stats.emitted,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WorkflowGraph;
    use crate::pe::{iterative_fn, producer_fn};

    fn graph_and_plan() -> (WorkflowGraph, ConcretePlan) {
        let mut g = WorkflowGraph::new("t");
        let a = g.add(producer_fn("A", Value::Int));
        let b = g.add(iterative_fn("B", Some));
        g.connect(a, "output", b, "input").unwrap();
        let plan = ConcretePlan::distribute(&g, 3).unwrap();
        (g, plan)
    }

    fn run_iter(runner: &mut InstanceRunner, datum: Option<Value>) -> Emissions {
        let mut e = Emissions::default();
        runner.run_iteration(datum, &mut e).unwrap();
        e
    }

    #[test]
    fn source_runner_routes_round_robin() {
        let (g, plan) = graph_and_plan();
        assert_eq!(plan.instances, vec![1, 2]);
        let mut runner = InstanceRunner::new(&g, &plan, InstanceId { node: NodeId(0), index: 0 }).unwrap();
        assert!(runner.is_source());
        let e1 = run_iter(&mut runner, None);
        let e2 = run_iter(&mut runner, None);
        assert_eq!(e1.routed[0].dest.index, 0);
        assert_eq!(e2.routed[0].dest.index, 1);
        assert_eq!(e1.routed[0].port, plan.ports().id("input").unwrap());
        assert_eq!(runner.stats.processed, 2);
        assert_eq!(runner.stats.emitted, 2);
    }

    #[test]
    fn terminal_collection() {
        let (g, plan) = graph_and_plan();
        let mut b = InstanceRunner::new(&g, &plan, InstanceId { node: NodeId(1), index: 0 }).unwrap();
        assert!(!b.is_source());
        assert_eq!(b.expected_eos, 1);
        let mut e = Emissions::default();
        let input = plan.ports().id("input").unwrap();
        b.run_datum(input, Value::Int(7), &mut e).unwrap();
        assert!(e.routed.is_empty());
        let output = plan.ports().id("output").unwrap();
        assert_eq!(e.collected, vec![(output, Value::Int(7))]);
    }

    #[test]
    fn eos_targets_cover_all_downstream_instances() {
        let (g, plan) = graph_and_plan();
        let a = InstanceRunner::new(&g, &plan, InstanceId { node: NodeId(0), index: 0 }).unwrap();
        let targets = a.eos_targets(&plan);
        assert_eq!(targets.len(), 2);
        assert!(targets.iter().all(|t| t.node == NodeId(1)));
    }

    #[test]
    fn iteration_counter_feeds_producer() {
        let (g, plan) = graph_and_plan();
        let mut a = InstanceRunner::new(&g, &plan, InstanceId { node: NodeId(0), index: 0 }).unwrap();
        let e1 = run_iter(&mut a, None);
        let e2 = run_iter(&mut a, None);
        assert_eq!(*e1.routed[0].value, Value::Int(0));
        assert_eq!(*e2.routed[0].value, Value::Int(1));
    }

    #[test]
    fn steady_state_interns_nothing_new() {
        // The port table is sealed at plan time: a thousand datums through
        // the interned path leave it untouched (no name is ever re-interned,
        // let alone allocated per datum).
        let (g, plan) = graph_and_plan();
        let before = plan.ports().len();
        let mut a = InstanceRunner::new(&g, &plan, InstanceId { node: NodeId(0), index: 0 }).unwrap();
        let mut e = Emissions::default();
        for _ in 0..1000 {
            a.run_iteration(None, &mut e).unwrap();
        }
        assert_eq!(plan.ports().len(), before);
        assert_eq!(a.stats.processed, 1000);
    }

    #[test]
    fn emitted_stat_counts_undeclared_port_attempts() {
        use crate::pe::NativePeFactory;
        use laminar_script::PeKind;
        let meta = crate::pe::PeMeta {
            name: "Typo".into(),
            kind: PeKind::Producer,
            inputs: vec![],
            outputs: vec!["output".into()],
            imports: vec![],
            description: None,
            stateful: false,
        };
        let factory = NativePeFactory::new(meta, || {
            Box::new(|_input, _it, out| {
                out.emit("output", Value::Int(1));
                out.emit("outptu", Value::Int(2)); // typo'd port: dropped, but counted
                Ok(())
            })
        });
        let mut g = WorkflowGraph::new("typo");
        g.add(factory);
        let plan = ConcretePlan::sequential(&g).unwrap();
        let mut r = InstanceRunner::new(&g, &plan, InstanceId { node: NodeId(0), index: 0 }).unwrap();
        let e = run_iter(&mut r, None);
        // Only the declared port's datum is delivered...
        assert_eq!(e.collected.len(), 1);
        // ...but both emit attempts are visible in the stats, so the typo
        // shows up as emitted > delivered instead of vanishing.
        assert_eq!(r.stats.emitted, 2);
    }

    #[test]
    fn fanout_shares_one_payload() {
        use crate::routing::Grouping;
        let mut g = WorkflowGraph::new("bc");
        let a = g.add(producer_fn("A", Value::Int));
        let b = g.add(iterative_fn("B", Some));
        g.connect_grouped(a, "output", b, "input", Grouping::OneToAll).unwrap();
        let plan = ConcretePlan::distribute(&g, 4).unwrap();
        let mut runner = InstanceRunner::new(&g, &plan, InstanceId { node: NodeId(0), index: 0 }).unwrap();
        let e = run_iter(&mut runner, None);
        assert_eq!(e.routed.len(), plan.count(NodeId(1)));
        // Broadcast clones the refcount, not the tree.
        for pair in e.routed.windows(2) {
            assert!(SharedValue::ptr_eq(&pair[0].value, &pair[1].value));
        }
    }

    #[test]
    fn batch_groups_preserve_order_per_destination() {
        let ports = {
            let mut t = PortTable::default();
            t.intern("input");
            t
        };
        let input = ports.id("input").unwrap();
        let inst = |n: usize, i: usize| InstanceId { node: NodeId(n), index: i };
        let mut batch: Vec<RoutedDatum> = [(1, 0, 10), (1, 1, 11), (1, 0, 12), (1, 1, 13), (2, 0, 14)]
            .iter()
            .map(|&(n, i, v)| RoutedDatum {
                dest: inst(n, i),
                port: input,
                value: Value::Int(v).into_shared(),
            })
            .collect();
        let mut groups = Vec::new();
        drain_batch_groups(&mut batch, |dest, items| {
            groups.push((dest, items.iter().map(|(_, v)| v.as_i64().unwrap()).collect::<Vec<_>>()));
            Ok(())
        })
        .unwrap();
        assert!(batch.is_empty());
        assert_eq!(
            groups,
            vec![(inst(1, 0), vec![10, 12]), (inst(1, 1), vec![11, 13]), (inst(2, 0), vec![14]),]
        );
    }
}
