//! The Redis mapping: broker-queue enactment.
//!
//! Every PE instance owns one broker list used as its work queue; workers
//! communicate exclusively through the broker, the way dispel4py's Redis
//! mapping coordinates its worker processes. The broker belongs to one
//! wiring of one run ([`Broker`]) and is dropped with it, so a queue key
//! carries no run number: `laminar:q:{node}:{index}`. A data frame is the
//! MPI mapping's frame ([`encode_frame`]); end-of-stream is the empty
//! frame, which no lampickle frame is. A list holds at most
//! [`INBOX_BURSTS`] frames, as a mesh inbox does: a push waits for room
//! and a pop for a frame, each as long as it takes. Every instance gets
//! all its EOS whether a peer succeeds, fails, panics or is cancelled, so
//! neither wait needs a timeout (DESIGN §3.4).

use super::mpi::{decode_frame, encode_frame};
use super::multi::INBOX_BURSTS;
use super::runtime::Runtime;
use super::worker::{drain_batch_groups, RoutedDatum, Transport, TransportMsg};
use super::{Mapping, MappingKind, RunOptions, RunResult};
use crate::error::DataflowError;
use crate::graph::WorkflowGraph;
use crate::planner::{ConcretePlan, InstanceId};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Broker-queue enactment. Each run wires a broker of its own.
/// `#[non_exhaustive]` keeps other crates on `RedisMapping::default()`,
/// which they call throughout and which clippy would otherwise flag on a
/// unit struct (`default_constructed_unit_structs`).
#[derive(Default)]
#[non_exhaustive]
pub struct RedisMapping;

/// One broker list. Its condvar is woken by a push (for the popper) and
/// by a pop (for a pusher waiting for room), so traffic on one list wakes
/// no other list's waiters.
#[derive(Default)]
struct List {
    frames: Mutex<VecDeque<Vec<u8>>>,
    changed: Condvar,
}

/// The slice of Redis the mapping sends: `RPUSH`, and `BLPOP key 0` (wait
/// until a frame comes). It holds one list per instance from the start.
/// Unlike Redis, a push waits while its list is full.
struct Broker {
    lists: HashMap<String, List>,
}

impl Broker {
    fn new(keys: impl IntoIterator<Item = String>) -> Broker {
        Broker { lists: keys.into_iter().map(|key| (key, List::default())).collect() }
    }

    /// Append to the tail of `key`'s list once it holds fewer than
    /// [`INBOX_BURSTS`] frames.
    fn rpush(&self, key: &str, frame: Vec<u8>) {
        let list = &self.lists[key];
        let mut frames = list.frames.lock();
        while frames.len() >= INBOX_BURSTS {
            list.changed.wait(&mut frames);
        }
        frames.push_back(frame);
        drop(frames);
        list.changed.notify_all();
    }

    /// Pop the head of `key`'s list, waiting until there is one.
    fn blpop(&self, key: &str) -> Vec<u8> {
        let list = &self.lists[key];
        let mut frames = list.frames.lock();
        loop {
            if let Some(frame) = frames.pop_front() {
                drop(frames);
                list.changed.notify_all();
                return frame;
            }
            list.changed.wait(&mut frames);
        }
    }
}

fn queue_key(inst: InstanceId) -> String {
    format!("laminar:q:{}:{}", inst.node.0, inst.index)
}

struct RedisTransport {
    broker: Arc<Broker>,
    my_queue: String,
    plan: ConcretePlan,
}

/// One transport per instance of `plan`, in dense plan order, sharing a
/// fresh broker.
fn wire(plan: &ConcretePlan) -> Vec<RedisTransport> {
    let keys: Vec<String> = plan.all_instances().into_iter().map(queue_key).collect();
    let broker = Arc::new(Broker::new(keys.iter().cloned()));
    let transport = |my_queue| RedisTransport { broker: Arc::clone(&broker), my_queue, plan: plan.clone() };
    keys.into_iter().map(transport).collect()
}

impl Transport for RedisTransport {
    fn send_batch(&mut self, batch: &mut Vec<RoutedDatum>) -> Result<(), DataflowError> {
        // One multi-datum frame — one broker round-trip — per destination
        // per emission burst, not one per datum.
        drain_batch_groups(batch, |dest, group| {
            self.broker.rpush(&queue_key(dest), encode_frame(group));
            Ok(())
        })
    }

    fn send_eos(&mut self, dest: InstanceId) -> Result<(), DataflowError> {
        self.broker.rpush(&queue_key(dest), Vec::new());
        Ok(())
    }

    fn recv(&mut self) -> Result<TransportMsg, DataflowError> {
        let frame = self.broker.blpop(&self.my_queue);
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
        Runtime::new(graph, options).threaded_observed(|plan| Ok(wire(plan)), observer)
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
        // hang), proving the EOS protocol works through the broker.
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Id", Some));
        g.connect(a, "output", b, "input").unwrap();
        let r = RedisMapping::default().execute(&g, &RunOptions::iterations(0).with_processes(3)).unwrap();
        assert_eq!(r.total_outputs(), 0);
    }

    /// The transport of instance 1 of `Id` in a `Nums -> Id` run over 3
    /// processes, and the `input` port id.
    fn relay_transport() -> (RedisTransport, InstanceId, crate::ports::PortId) {
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Id", Some));
        g.connect(a, "output", b, "input").unwrap();
        let plan = ConcretePlan::distribute(&g, 3).unwrap();
        let input = plan.ports().id("input").unwrap();
        let dest = InstanceId { node: b, index: 1 };
        (wire(&plan).swap_remove(plan.dense(dest)), dest, input)
    }

    #[test]
    fn a_queue_frame_is_the_mpi_frame_and_eos_is_empty() {
        let (mut transport, dest, input) = relay_transport();
        assert_eq!(transport.my_queue, "laminar:q:1:1");
        let burst = || vec![(input, Value::Int(4).into_shared()), (input, Value::from("x").into_shared())];
        let send = |transport: &mut RedisTransport| {
            let mut batch =
                burst().into_iter().map(|(port, value)| RoutedDatum { dest, port, value }).collect();
            transport.send_batch(&mut batch).unwrap();
            transport.send_eos(dest).unwrap();
        };
        send(&mut transport);
        assert_eq!(transport.broker.blpop(&transport.my_queue), encode_frame(burst()));
        assert_eq!(transport.broker.blpop(&transport.my_queue), Vec::<u8>::new());
        // The receiving end reads both back.
        send(&mut transport);
        assert_eq!(transport.recv().unwrap(), TransportMsg::Data(burst()));
        assert_eq!(transport.recv().unwrap(), TransportMsg::Eos);
    }

    #[test]
    fn corrupt_queue_frames_error_instead_of_misrouting() {
        // Raw garbage bytes and a pickled non-list (a legacy per-datum
        // frame) on an instance's list: each is an error from `recv`,
        // never a datum silently defaulted onto the 'input' port.
        let (mut transport, _, _) = relay_transport();
        let legacy = pickle::dumps(&jobj! { "kind" => "data", "port" => "input", "value" => 1 });
        for frame in [b"not a pickle".to_vec(), legacy] {
            transport.broker.rpush(&transport.my_queue, frame);
            match transport.recv() {
                Err(DataflowError::Enactment(m)) => assert!(m.starts_with("corrupt frame"), "{m}"),
                other => panic!("expected a corrupt-frame error, got {other:?}"),
            }
        }
    }

    fn broker(keys: &[&str]) -> Broker {
        Broker::new(keys.iter().map(|k| k.to_string()))
    }

    #[test]
    fn list_fifo_order() {
        let b = broker(&["q"]);
        b.rpush("q", b"1".to_vec());
        b.rpush("q", b"2".to_vec());
        assert_eq!(b.blpop("q"), b"1");
        assert_eq!(b.blpop("q"), b"2");
    }

    #[test]
    fn blpop_wakes_on_push() {
        let b = broker(&["jobs"]);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| b.blpop("jobs"));
            std::thread::sleep(std::time::Duration::from_millis(20));
            b.rpush("jobs", b"work".to_vec());
            assert_eq!(waiter.join().unwrap(), b"work");
        });
    }

    #[test]
    fn a_push_to_a_full_list_waits_for_a_pop() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let b = broker(&["q"]);
        for i in 0..INBOX_BURSTS {
            b.rpush("q", vec![i as u8]);
        }
        let pushed = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                b.rpush("q", b"last".to_vec());
                pushed.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!pushed.load(Ordering::SeqCst), "a push went past the cap");
            assert_eq!(b.blpop("q"), [0]);
        });
        assert!(pushed.load(Ordering::SeqCst));
        assert_eq!(b.lists["q"].frames.lock().back().unwrap(), b"last");
    }

    #[test]
    fn many_producers_one_consumer() {
        let b = broker(&["work"]);
        let (n_producers, per) = (4, 250);
        std::thread::scope(|s| {
            for p in 0..n_producers {
                let b = &b;
                s.spawn(move || {
                    for i in 0..per {
                        b.rpush("work", format!("{p}:{i}").into_bytes());
                    }
                });
            }
            let mut got: Vec<Vec<u8>> = (0..n_producers * per).map(|_| b.blpop("work")).collect();
            got.sort();
            let mut sent: Vec<Vec<u8>> = (0..n_producers)
                .flat_map(|p| (0..per).map(move |i| format!("{p}:{i}").into_bytes()))
                .collect();
            sent.sort();
            assert_eq!(got, sent, "every pushed frame is popped once");
        });
    }
}
