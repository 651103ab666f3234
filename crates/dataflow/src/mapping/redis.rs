//! The Redis mapping: queue enactment.
//!
//! Every PE instance owns one work queue, and workers communicate only
//! through the queues, the way dispel4py's Redis mapping coordinates its
//! worker processes. The queues are the mesh's inboxes
//! ([`super::multi::mesh`]), one per instance, wired fresh for each round
//! of a run and dropped with it, and a frame is the MPI mapping's
//! ([`encode_frame`]). An inbox holds at most
//! [`INBOX_BURSTS`](super::multi::INBOX_BURSTS) messages: a push waits for
//! room and a pop for a message, each as long as it takes. Every instance
//! gets all its EOS whether a peer succeeds, fails, panics or is
//! cancelled, so neither wait needs a timeout (DESIGN §3.4).

use super::mpi::{decode_frame, encode_frame};
use super::multi::mesh;
use super::runtime::Runtime;
use super::{Mapping, MappingKind, RunOptions, RunResult};
use crate::error::DataflowError;
use crate::graph::WorkflowGraph;

/// Queue enactment. Each run wires queues of its own.
/// `#[non_exhaustive]` keeps other crates on `RedisMapping::default()`,
/// which they call throughout and which clippy would otherwise flag on a
/// unit struct (`default_constructed_unit_structs`).
#[derive(Default)]
#[non_exhaustive]
pub struct RedisMapping;

impl Mapping for RedisMapping {
    fn kind(&self) -> MappingKind {
        MappingKind::Redis
    }

    fn execute_observed(
        &self,
        graph: &WorkflowGraph,
        options: &RunOptions,
        observer: Option<std::sync::Arc<dyn super::RunObserver>>,
    ) -> Result<RunResult, DataflowError> {
        Runtime::new(graph, options)
            .threaded_observed(|plan| Ok(mesh(plan, encode_frame, decode_frame)), observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::multi::Burst;
    use crate::mapping::worker::{RoutedDatum, Transport};
    use crate::mapping::SimpleMapping;
    use crate::pe::{iterative_fn, producer_fn};
    use crate::planner::{ConcretePlan, InstanceId};
    use laminar_codec::pickle;
    use laminar_json::{jobj, Value};
    use std::sync::Arc;

    #[test]
    fn matches_simple_as_multiset() {
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Neg", |v| v.as_i64().map(|n| Value::Int(-n))));
        g.connect(a, "output", b, "input").unwrap();
        let simple = SimpleMapping.execute(&g, &RunOptions::iterations(40)).unwrap();
        let redis =
            RedisMapping::default().execute(&g, &RunOptions::iterations(40).with_processes(6)).unwrap();
        let mut s: Vec<i64> =
            simple.port_values("Neg", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        let mut r: Vec<i64> =
            redis.port_values("Neg", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        s.sort();
        r.sort();
        assert_eq!(s, r);
    }

    #[test]
    fn unbounded_run_survives_pops_that_wait_over_a_second() {
        // A paced unbounded source whose inter-message gap exceeds a
        // second: a relay's `blpop` waits the gap out, and the run ends
        // via the token, as Cancelled.
        use crate::mapping::{CancelToken, Mapping, RunEvent, RunObserver};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;

        struct Count(AtomicUsize);
        impl RunObserver for Count {
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
            let observer = Arc::clone(&outputs);
            std::thread::spawn(move || {
                let mut g = WorkflowGraph::new("slow");
                let a = g.add(producer_fn("Nums", Value::Int));
                let b = g.add(iterative_fn("Relay", Some));
                g.connect(a, "output", b, "input").unwrap();
                let opts = RunOptions::unbounded(Duration::from_millis(1200), token).with_processes(3);
                RedisMapping::default().execute_observed(&g, &opts, Some(observer as Arc<dyn RunObserver>))
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while outputs.0.load(Ordering::SeqCst) < 2 {
            assert!(std::time::Instant::now() < deadline, "paced unbounded Redis run starved");
            std::thread::sleep(Duration::from_millis(2));
        }
        token.cancel();
        let result = handle.join().unwrap();
        assert_eq!(result.unwrap_err(), DataflowError::Cancelled);
    }

    #[test]
    fn groupby_stable_under_queue_routing() {
        let src = r#"
            pe Words : producer { output output; process { emit([["x","y"][iteration % 2], 1]); } }
            pe Count : generic {
                input input groupby 0;
                output output;
                init { state.n = {}; }
                process {
                    let w = input[0];
                    state.n[w] = get(state.n, w, 0) + 1;
                    emit([w, state.n[w]]);
                }
            }
        "#;
        let mut g = WorkflowGraph::new("wc");
        let a = g.add_script_pe(src, "Words").unwrap();
        let b = g.add_script_pe(src, "Count").unwrap();
        g.connect(a, "output", b, "input").unwrap();
        let r = RedisMapping::default().execute(&g, &RunOptions::iterations(20).with_processes(5)).unwrap();
        let mut best: std::collections::BTreeMap<String, i64> = Default::default();
        for v in r.port_values("Count", "output") {
            let e = best.entry(v[0].as_str().unwrap().to_string()).or_insert(0);
            *e = (*e).max(v[1].as_i64().unwrap());
        }
        assert_eq!(best.get("x"), Some(&10));
        assert_eq!(best.get("y"), Some(&10));
    }

    #[test]
    fn zero_iterations_end_by_eos() {
        // A consumer whose producer never produces: zero iterations means
        // sources immediately EOS, so this must terminate cleanly (not
        // hang), proving the EOS protocol works through the queues.
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Id", Some));
        g.connect(a, "output", b, "input").unwrap();
        let r = RedisMapping::default().execute(&g, &RunOptions::iterations(0).with_processes(3)).unwrap();
        assert_eq!(r.total_outputs(), 0);
    }

    #[test]
    fn corrupt_queue_frames_error_instead_of_misrouting() {
        // Raw garbage bytes and a pickled non-list (a legacy per-datum
        // frame) in an instance's inbox: each is an error from `recv`,
        // never a datum silently defaulted onto the 'input' port. The
        // sending end writes the frame; the receiving end decodes it as
        // the Redis mapping does.
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Id", Some));
        g.connect(a, "output", b, "input").unwrap();
        let plan = ConcretePlan::distribute(&g, 3).unwrap();
        let input = plan.ports().id("input").unwrap();
        let (source, dest) = (InstanceId { node: a, index: 0 }, InstanceId { node: b, index: 1 });
        let garbage: fn(Burst) -> Vec<u8> = |_| b"not a pickle".to_vec();
        let legacy: fn(Burst) -> Vec<u8> =
            |_| pickle::dumps(&jobj! { "kind" => "data", "port" => "input", "value" => 1 });
        for writer in [garbage, legacy] {
            let mut transports = mesh(&plan, writer, decode_frame);
            let mut batch = vec![RoutedDatum { dest, port: input, value: Value::Int(1).into_shared() }];
            transports[plan.dense(source)].send_batch(&mut batch).unwrap();
            match transports[plan.dense(dest)].recv() {
                Err(DataflowError::Enactment(m)) => assert!(m.starts_with("corrupt frame"), "{m}"),
                other => panic!("expected a corrupt-frame error, got {other:?}"),
            }
        }
    }
}
