//! The Multi mapping: one thread per PE instance, `std::sync::mpsc`
//! channels as the transport (the paper's multiprocessing back-end).
//!
//! The channel mesh here is shared with the MPI mapping: one bounded
//! channel per instance, [`INBOX_BURSTS`] bursts deep, every endpoint
//! holding a sender to each channel and its own receiver. A sender blocks
//! while its receiver is that far behind, so a slow stage holds its
//! upstream back instead of queueing without limit. What differs is the
//! frame a burst travels as — Multi moves the `Arc`-shared burst itself,
//! MPI a lampickle byte frame (see [`mesh`]).

use super::runtime::Runtime;
use super::worker::{drain_batch_groups, RoutedDatum, Transport, TransportMsg};
use super::{Mapping, MappingKind, RunOptions, RunResult};
use crate::error::DataflowError;
use crate::graph::WorkflowGraph;
use crate::planner::{ConcretePlan, InstanceId};
use crate::ports::PortId;
use laminar_json::SharedValue;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Shared-memory parallel enactment.
pub struct MultiMapping;

/// How many messages (bursts or EOS) an instance's inbox holds before a
/// sender blocks, on the mesh and on a Redis broker list alike. The wait
/// cannot deadlock: the graph is acyclic ([`WorkflowGraph::validate`])
/// and every instance keeps receiving until its last upstream EOS, on
/// success, failure, panic or cancel (DESIGN §3.4).
pub(super) const INBOX_BURSTS: usize = 64;

/// One emission burst for one instance: `(port, payload)` in send order.
pub(super) type Burst = Vec<(PortId, SharedValue)>;

enum Msg<F> {
    /// One burst, as the mesh's frame type.
    Data(F),
    Eos,
}

/// One instance's end of a channel mesh, carrying bursts as frames of
/// type `F`.
pub(super) struct MeshTransport<F> {
    /// Senders indexed by dense instance id — a per-burst array index, not
    /// a per-datum map lookup.
    senders: Vec<SyncSender<Msg<F>>>,
    plan: ConcretePlan,
    receiver: Receiver<Msg<F>>,
    encode: fn(Burst) -> F,
    decode: fn(F, &ConcretePlan) -> Result<Burst, DataflowError>,
}

/// Wire a channel mesh for `plan`: one transport per instance, in dense
/// plan order. `encode` turns a burst into the frame its channel carries
/// and `decode` turns a received frame back into a burst. The mesh keeps
/// no sender of its own, so a channel closes once every worker holding it
/// is gone.
pub(super) fn mesh<F>(
    plan: &ConcretePlan,
    encode: fn(Burst) -> F,
    decode: fn(F, &ConcretePlan) -> Result<Burst, DataflowError>,
) -> Vec<MeshTransport<F>> {
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..plan.total_processes).map(|_| sync_channel(INBOX_BURSTS)).unzip();
    receivers
        .into_iter()
        .map(|receiver| MeshTransport {
            senders: senders.clone(),
            plan: plan.clone(),
            receiver,
            encode,
            decode,
        })
        .collect()
}

fn closed() -> DataflowError {
    DataflowError::Enactment("channel closed mid-run (peer worker died)".into())
}

impl<F> Transport for MeshTransport<F> {
    fn send_batch(&mut self, batch: &mut Vec<RoutedDatum>) -> Result<(), DataflowError> {
        let MeshTransport { senders, plan, encode, .. } = self;
        drain_batch_groups(batch, |dest, group| {
            senders[plan.dense(dest)].send(Msg::Data(encode(group))).map_err(|_| closed())
        })
    }

    fn send_eos(&mut self, dest: InstanceId) -> Result<(), DataflowError> {
        self.senders[self.plan.dense(dest)].send(Msg::Eos).map_err(|_| closed())
    }

    fn recv(&mut self) -> Result<TransportMsg, DataflowError> {
        match self.receiver.recv() {
            Ok(Msg::Data(frame)) => Ok(TransportMsg::Data((self.decode)(frame, &self.plan)?)),
            Ok(Msg::Eos) => Ok(TransportMsg::Eos),
            Err(_) => Err(DataflowError::Enactment("all upstream channels closed without EOS".into())),
        }
    }
}

impl Mapping for MultiMapping {
    fn kind(&self) -> MappingKind {
        MappingKind::Multi
    }

    fn execute_observed(
        &self,
        graph: &WorkflowGraph,
        options: &RunOptions,
        observer: Option<std::sync::Arc<dyn super::RunObserver>>,
    ) -> Result<RunResult, DataflowError> {
        // Bursts cross the channel as they are: broadcast fan-out moves
        // refcounts, never copies.
        Runtime::new(graph, options)
            .threaded_observed(|plan| Ok(mesh(plan, |burst| burst, |burst, _| Ok(burst))), observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::SimpleMapping;
    use crate::pe::{iterative_fn, producer_fn};
    use laminar_json::{jarr, Value};

    fn square_graph() -> WorkflowGraph {
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Square", |v| v.as_i64().map(|n| Value::Int(n * n))));
        g.connect(a, "output", b, "input").unwrap();
        g
    }

    #[test]
    fn matches_simple_as_multiset() {
        let g = square_graph();
        let opts = RunOptions::iterations(50).with_processes(5);
        let simple = SimpleMapping.execute(&g, &RunOptions::iterations(50)).unwrap();
        let multi = MultiMapping.execute(&g, &opts).unwrap();
        let mut a: Vec<i64> =
            simple.port_values("Square", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        let mut b: Vec<i64> =
            multi.port_values("Square", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "Multi must produce the same multiset as Simple");
        assert!(multi.stats.instances["Square"] >= 2);
    }

    #[test]
    fn groupby_preserves_stateful_counts() {
        // Word counting with 4 counter instances: per-key totals must be
        // exactly right despite parallelism, because group-by pins each key
        // to one instance.
        let src = r#"
            pe Words : producer {
                output output;
                process {
                    let words = ["a", "b", "c", "d", "e", "f"];
                    emit([words[iteration % 6], 1]);
                }
            }
            pe Count : generic {
                input input groupby 0;
                output output;
                init { state.count = {}; }
                process {
                    let word = input[0];
                    state.count[word] = get(state.count, word, 0) + input[1];
                    emit([word, state.count[word]]);
                }
            }
        "#;
        let mut g = WorkflowGraph::new("wc");
        let w = g.add_script_pe(src, "Words").unwrap();
        let c = g.add_script_pe(src, "Count").unwrap();
        g.connect(w, "output", c, "input").unwrap();
        let r = MultiMapping.execute(&g, &RunOptions::iterations(60).with_processes(5)).unwrap();
        // Each word appears 10 times; the final count per word must be 10.
        let mut max_per_word: std::collections::BTreeMap<String, i64> = Default::default();
        for v in r.port_values("Count", "output") {
            let word = v[0].as_str().unwrap().to_string();
            let n = v[1].as_i64().unwrap();
            let e = max_per_word.entry(word).or_insert(0);
            *e = (*e).max(n);
        }
        assert_eq!(max_per_word.len(), 6);
        for (w, n) in max_per_word {
            assert_eq!(n, 10, "word {w} counted wrongly");
        }
    }

    #[test]
    fn diamond_topology() {
        // a -> (b, c) -> d : fan-out then fan-in.
        let mut g = WorkflowGraph::new("diamond");
        let a = g.add(producer_fn("A", Value::Int));
        let b = g.add(iterative_fn("B", |v| v.as_i64().map(|n| Value::Int(n * 2))));
        let c = g.add(iterative_fn("C", |v| v.as_i64().map(|n| Value::Int(n * 3))));
        let d = g.add(iterative_fn("D", Some));
        g.connect(a, "output", b, "input").unwrap();
        g.connect(a, "output", c, "input").unwrap();
        g.connect(b, "output", d, "input").unwrap();
        g.connect(c, "output", d, "input").unwrap();
        let r = MultiMapping.execute(&g, &RunOptions::iterations(10).with_processes(8)).unwrap();
        let mut out: Vec<i64> = r.port_values("D", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        out.sort();
        let mut expected: Vec<i64> = (0..10).map(|n| n * 2).chain((0..10).map(|n| n * 3)).collect();
        expected.sort();
        assert_eq!(out, expected);
    }

    #[test]
    fn one_to_all_broadcast() {
        use crate::routing::Grouping;
        let mut g = WorkflowGraph::new("bc");
        let a = g.add(producer_fn("A", Value::Int));
        let b = g.add(iterative_fn("B", Some));
        g.connect_grouped(a, "output", b, "input", Grouping::OneToAll).unwrap();
        let r = MultiMapping.execute(&g, &RunOptions::iterations(4).with_processes(5)).unwrap();
        let n_instances = r.stats.instances["B"];
        assert!(n_instances >= 2);
        // Every instance sees every datum.
        assert_eq!(r.stats.processed["B"], 4 * n_instances as u64);
    }

    #[test]
    fn worker_error_propagates() {
        let src = r#"
            pe Nums : producer { output output; process { emit(iteration); } }
            pe Bad : iterative { input x; output output; process { emit(x / (x - 2)); } }
        "#;
        let mut g = WorkflowGraph::new("bad");
        let a = g.add_script_pe(src, "Nums").unwrap();
        let b = g.add_script_pe(src, "Bad").unwrap();
        g.connect(a, "output", b, "x").unwrap();
        let err = MultiMapping.execute(&g, &RunOptions::iterations(5).with_processes(3)).unwrap_err();
        match err {
            DataflowError::PeFailed { pe, .. } => assert_eq!(pe, "Bad"),
            DataflowError::Enactment(_) => {} // peer saw the closed channel first
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn mid_stream_worker_error_does_not_strand_its_peers() {
        // Regression: a PE that fails while its upstream producer is still
        // mid-stream used to deadlock the enactment — the dead relay
        // dropped its receiver without draining or propagating EOS, the
        // producer hit a closed channel before it could send EOS, and the
        // surviving relay blocked in `recv` forever (its own transport
        // holds a sender to its channel, so it never disconnects). The
        // injected send delay pins the producer mid-stream at the moment
        // `Bad` dies, making the former deadlock deterministic. With the
        // failure wind-down in `run_worker` the run must end promptly, and
        // with the *PE's* error: nobody observes a closed channel.
        use crate::fault::FaultPlan;
        let src = r#"
            pe Nums : producer { output output; process { emit(iteration); } }
            pe Bad : iterative { input x; output output; process { emit(x / (x - 2)); } }
        "#;
        let mut g = WorkflowGraph::new("strand");
        let a = g.add_script_pe(src, "Nums").unwrap();
        let b = g.add_script_pe(src, "Bad").unwrap();
        g.connect(a, "output", b, "x").unwrap();
        let opts = RunOptions::iterations(40).with_processes(3).with_faults(FaultPlan {
            delay_send: Some(std::time::Duration::from_millis(1)),
            ..FaultPlan::none()
        });
        let err = MultiMapping.execute(&g, &opts).unwrap_err();
        match err {
            DataflowError::PeFailed { pe, .. } => assert_eq!(pe, "Bad"),
            other => panic!("expected the PE failure, got {other:?}"),
        }
    }

    #[test]
    fn stats_account_every_datum() {
        let g = square_graph();
        let r = MultiMapping.execute(&g, &RunOptions::iterations(30).with_processes(4)).unwrap();
        assert_eq!(r.stats.processed["Nums"], 30);
        assert_eq!(r.stats.processed["Square"], 30);
        assert_eq!(r.stats.emitted["Square"], 30);
    }

    #[test]
    fn tuple_groupby_test_uses_jarr() {
        // Silence unused-import lint while keeping jarr available for
        // future edits.
        assert_eq!(jarr![1].weight(), 2);
    }
}
