//! The Redis mapping: broker-queue enactment over [`laminar_redisim`].
//!
//! Every PE instance owns one broker list used as its work queue; workers
//! communicate exclusively through the broker, the way dispel4py's Redis
//! mapping coordinates its worker processes. A data frame is the MPI
//! mapping's frame ([`encode_frame`]); end-of-stream is the empty frame,
//! which no lampickle frame is. Each run takes a fresh number from the
//! broker's `laminar:runs` counter and keeps its queues under it
//! (`laminar:q:{run}:{node}:{index}`), so runs sharing one broker never
//! see each other's data. A receiver waits for its next frame as long as
//! it takes, as the channel mesh does: every instance gets all its EOS
//! whether a peer succeeds, fails, panics or is cancelled (DESIGN §3.4).

use super::mpi::{decode_frame, encode_frame};
use super::runtime::Runtime;
use super::worker::{drain_batch_groups, RoutedDatum, Transport, TransportMsg};
use super::{Mapping, MappingKind, RunOptions, RunResult};
use crate::error::DataflowError;
use crate::graph::WorkflowGraph;
use crate::planner::{ConcretePlan, InstanceId};
use laminar_redisim::{Broker, BrokerError, RedisClient};
use std::time::Duration;

/// How long one `blpop` waits before the receiver pops again. Only a
/// bound on one broker call: a receiver keeps popping until a frame comes.
const POP_WAKE: Duration = Duration::from_secs(1);

/// Broker-queue enactment. By default each run spins up a private broker;
/// inject one with [`RedisMapping::with_broker`] to observe its queues or
/// to share a broker across runs (closer to a real deployment).
#[derive(Default)]
pub struct RedisMapping {
    broker: Option<Broker>,
}

impl RedisMapping {
    /// Use an externally-managed broker.
    pub fn with_broker(broker: Broker) -> RedisMapping {
        RedisMapping { broker: Some(broker) }
    }
}

fn queue_key(run: i64, inst: InstanceId) -> String {
    format!("laminar:q:{run}:{}:{}", inst.node.0, inst.index)
}

struct RedisTransport {
    client: RedisClient,
    /// This run's queue namespace.
    run: i64,
    my_queue: String,
    plan: ConcretePlan,
}

impl RedisTransport {
    fn push(&self, dest: InstanceId, frame: Vec<u8>) -> Result<(), DataflowError> {
        self.client
            .rpush(&queue_key(self.run, dest), frame)
            .map(|_| ())
            .map_err(|e| DataflowError::Enactment(format!("broker push failed: {e}")))
    }
}

impl Transport for RedisTransport {
    fn send_batch(&mut self, batch: &mut Vec<RoutedDatum>) -> Result<(), DataflowError> {
        // One multi-datum frame — one broker round-trip — per destination
        // per emission burst, not one per datum.
        let this = &*self;
        drain_batch_groups(batch, |dest, group| this.push(dest, encode_frame(group)))
    }

    fn send_eos(&mut self, dest: InstanceId) -> Result<(), DataflowError> {
        self.push(dest, Vec::new())
    }

    fn recv(&mut self) -> Result<TransportMsg, DataflowError> {
        let frame = loop {
            match self.client.blpop(&self.my_queue, POP_WAKE) {
                Ok(frame) => break frame,
                Err(BrokerError::Timeout) => continue,
                Err(other) => return Err(DataflowError::Enactment(format!("broker pop failed: {other}"))),
            }
        };
        if frame.is_empty() {
            return Ok(TransportMsg::Eos);
        }
        Ok(TransportMsg::Data(decode_frame(&frame, &self.plan)?))
    }
}

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
        let owned_broker;
        let broker = match &self.broker {
            Some(b) => b,
            None => {
                owned_broker = Broker::new();
                &owned_broker
            }
        };
        // The counter sits outside the `laminar:q:` prefix, so a drained
        // broker holds no queue key.
        let run = broker
            .client()
            .incr("laminar:runs")
            .map_err(|e| DataflowError::Enactment(format!("broker run counter failed: {e}")))?;
        // Queues materialize lazily on first push; wiring only hands every
        // instance a broker client pointed at its own work queue.
        let wire = |plan: &ConcretePlan| {
            let transport = |inst| RedisTransport {
                client: broker.client(),
                run,
                my_queue: queue_key(run, inst),
                plan: plan.clone(),
            };
            Ok(plan.all_instances().into_iter().map(transport).collect())
        };
        Runtime::new(graph, options).threaded_observed(wire, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::SimpleMapping;
    use crate::pe::{iterative_fn, producer_fn};
    use laminar_codec::pickle;
    use laminar_json::{jobj, Value};

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
    fn unbounded_run_survives_queue_pops_slower_than_the_wake_up() {
        // A paced unbounded source whose inter-message gap exceeds one
        // `blpop` wait: relays pop again until data or EOS arrives, and
        // the run ends via the token, as Cancelled.
        use crate::mapping::{CancelToken, Mapping, RunEvent, RunObserver};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

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
                let opts =
                    RunOptions::unbounded(POP_WAKE + Duration::from_millis(200), token).with_processes(3);
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
    fn a_queue_frame_is_the_mpi_frame_and_eos_is_empty() {
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Id", Some));
        g.connect(a, "output", b, "input").unwrap();
        let plan = ConcretePlan::distribute(&g, 3).unwrap();
        let input = plan.ports().id("input").unwrap();
        let dest = InstanceId { node: b, index: 1 };
        let broker = Broker::new();
        let (client, key) = (broker.client(), queue_key(7, dest));
        let mut transport = RedisTransport { client: broker.client(), run: 7, my_queue: key.clone(), plan };
        let burst = || vec![(input, Value::Int(4).into_shared()), (input, Value::from("x").into_shared())];
        let send = |transport: &mut RedisTransport| {
            let mut batch =
                burst().into_iter().map(|(port, value)| RoutedDatum { dest, port, value }).collect();
            transport.send_batch(&mut batch).unwrap();
            transport.send_eos(dest).unwrap();
        };
        send(&mut transport);
        assert_eq!(client.blpop(&key, Duration::ZERO).unwrap(), encode_frame(burst()));
        assert_eq!(client.blpop(&key, Duration::ZERO).unwrap(), Vec::<u8>::new());
        // The receiving end reads both back.
        send(&mut transport);
        assert_eq!(transport.recv().unwrap(), TransportMsg::Data(burst()));
        assert_eq!(transport.recv().unwrap(), TransportMsg::Eos);
    }

    #[test]
    fn external_broker_observes_traffic() {
        let broker = Broker::new();
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Id", Some));
        g.connect(a, "output", b, "input").unwrap();
        let client = broker.client();
        let mapping = RedisMapping::with_broker(broker);
        let r = mapping.execute(&g, &RunOptions::iterations(10).with_processes(3)).unwrap();
        assert_eq!(r.port_values("Id", "output").len(), 10);
        // After a clean run, all queues have been drained.
        assert!(client.keys_with_prefix("laminar:q:").is_empty());
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
    fn corrupt_queue_frames_error_instead_of_misrouting() {
        // Pre-seed the downstream work queues with two kinds of corruption:
        // a legacy per-datum frame (no 'items' list) and raw garbage bytes.
        // Both must surface as DataflowError — never be silently defaulted
        // onto the 'input' port.
        let broker = Broker::new();
        let client = broker.client();
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Id", Some));
        g.connect(a, "output", b, "input").unwrap();
        let legacy = pickle::dumps(&jobj! { "kind" => "data", "port" => "input", "value" => 1 });
        client.rpush("laminar:q:1:1:0", legacy).unwrap();
        client.rpush("laminar:q:1:1:1", b"not a pickle".to_vec()).unwrap();
        let mapping = RedisMapping::with_broker(broker);
        let err = mapping.execute(&g, &RunOptions::iterations(5).with_processes(3)).unwrap_err();
        match err {
            DataflowError::Enactment(m) => {
                assert!(m.contains("corrupt") || m.contains("frame"), "unexpected message: {m}")
            }
            other => panic!("expected an enactment error, got {other:?}"),
        }
    }

    #[test]
    fn zero_iterations_end_by_eos() {
        // A consumer whose producer never produces: zero iterations means
        // sources immediately EOS, so this must terminate cleanly (not
        // hang), proving the EOS protocol works through the broker.
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Id", Some));
        g.connect(a, "output", b, "input").unwrap();
        let r = RedisMapping::default().execute(&g, &RunOptions::iterations(0).with_processes(3)).unwrap();
        assert_eq!(r.total_outputs(), 0);
    }

    #[test]
    fn concurrent_runs_on_one_broker_keep_their_own_queues() {
        // Two runs at a time through one shared broker, each emitting its
        // own value range: every run must get back exactly its own values,
        // none of the other run's.
        let mapping = RedisMapping::with_broker(Broker::new());
        let run = |base: i64| {
            let mut g = WorkflowGraph::new("p");
            let a = g.add(producer_fn("Nums", move |i| Value::Int(base + i)));
            let b = g.add(iterative_fn("Id", Some));
            g.connect(a, "output", b, "input").unwrap();
            let r = mapping.execute(&g, &RunOptions::iterations(200).with_processes(3)).unwrap();
            let mut got: Vec<i64> =
                r.port_values("Id", "output").iter().map(|v| v.as_i64().unwrap()).collect();
            got.sort();
            assert_eq!(got, (base..base + 200).collect::<Vec<_>>(), "run {base} got another run's data");
        };
        for _ in 0..20 {
            std::thread::scope(|s| {
                s.spawn(|| run(0));
                s.spawn(|| run(1000));
            });
        }
    }
}
