//! The mesh behind the parallel mappings: one thread per PE instance and
//! a mesh of bounded inboxes as the transport (the Multi mapping is the
//! paper's multiprocessing back-end).
//!
//! The mesh is shared with the MPI and Redis mappings: one [`Inbox`]
//! per instance, [`INBOX_BURSTS`] messages deep, that every endpoint can
//! push to and only its owner pops. A sender blocks while its receiver is
//! that far behind, so a slow stage holds its upstream back instead of
//! queueing without limit. What differs is the frame a burst travels as —
//! Multi moves the `Arc`-shared burst itself, MPI and Redis a lampickle
//! byte frame (see [`mesh`]).

use super::worker::{drain_batch_groups, RoutedDatum, Transport, TransportMsg};
use crate::error::DataflowError;
use crate::planner::{ConcretePlan, InstanceId};
use crate::ports::PortId;
use laminar_json::SharedValue;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// How many messages (bursts or EOS) an instance's inbox holds before a
/// sender blocks. The wait cannot deadlock: the graph is acyclic
/// ([`WorkflowGraph::validate`]) and every instance keeps receiving until
/// its last upstream EOS, on success, failure, panic or cancel (DESIGN
/// §3.4).
pub(super) const INBOX_BURSTS: usize = 64;

/// A receiver wakes the senders blocked on its full inbox once it has
/// popped it down to this many messages, not on every pop, so a woken
/// sender can push a run of bursts before it blocks again (the silly
/// window rule of RFC 813). A pop that empties the inbox is at or below
/// it too, so a receiver about to block has woken every blocked sender.
const LOW_WATERMARK: usize = INBOX_BURSTS / 2;

/// One emission burst for one instance: `(port, payload)` in send order.
pub(super) type Burst = Vec<(PortId, SharedValue)>;

enum Msg<F> {
    /// One burst, as the mesh's frame type.
    Data(F),
    Eos,
}

/// One instance's bounded FIFO: any instance pushes, only its owner pops.
/// Each side signals the other only when it has set its waiter flag, under
/// the lock, before waiting.
struct Inbox<F> {
    state: Mutex<InboxState<F>>,
    not_empty: Condvar,
    has_room: Condvar,
}

struct InboxState<F> {
    queue: VecDeque<Msg<F>>,
    receiver_waiting: bool,
    senders_waiting: bool,
    /// The receiving transport is gone: every later push fails.
    closed: bool,
}

impl<F> Inbox<F> {
    fn new() -> Inbox<F> {
        let state = InboxState {
            queue: VecDeque::with_capacity(INBOX_BURSTS),
            receiver_waiting: false,
            senders_waiting: false,
            closed: false,
        };
        Inbox { state: Mutex::new(state), not_empty: Condvar::new(), has_room: Condvar::new() }
    }

    /// Append `msg`, waiting while the inbox holds [`INBOX_BURSTS`]
    /// messages. Fails once the inbox is closed.
    fn push(&self, msg: Msg<F>) -> Result<(), DataflowError> {
        let mut state = self.state.lock();
        while state.queue.len() >= INBOX_BURSTS && !state.closed {
            state.senders_waiting = true;
            self.has_room.wait(&mut state);
        }
        if state.closed {
            return Err(closed());
        }
        state.queue.push_back(msg);
        let wake = std::mem::take(&mut state.receiver_waiting);
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Take the oldest message, waiting until there is one.
    fn pop(&self) -> Msg<F> {
        let mut state = self.state.lock();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                let wake = state.queue.len() <= LOW_WATERMARK && std::mem::take(&mut state.senders_waiting);
                drop(state);
                if wake {
                    self.has_room.notify_all();
                }
                return msg;
            }
            state.receiver_waiting = true;
            self.not_empty.wait(&mut state);
        }
    }

    /// Fail every later push and free every sender blocked on this inbox.
    fn close(&self) {
        self.state.lock().closed = true;
        self.has_room.notify_all();
    }
}

fn closed() -> DataflowError {
    DataflowError::Enactment("inbox closed mid-run (its receiver is gone)".into())
}

/// One instance's end of a mesh, carrying bursts as frames of type `F`.
/// Dropping it closes the instance's inbox.
pub(super) struct MeshTransport<F> {
    /// Every instance's inbox, indexed by dense instance id — a per-burst
    /// array index, not a per-datum map lookup.
    inboxes: Arc<[Inbox<F>]>,
    /// This instance's dense id: the inbox it pops.
    me: usize,
    plan: ConcretePlan,
    encode: fn(Burst) -> F,
    decode: fn(F, &ConcretePlan) -> Result<Burst, DataflowError>,
}

/// Wire a mesh for `plan`: one transport per instance, in dense plan
/// order, over a fresh inbox per instance. `encode` turns a burst into the
/// frame an inbox carries and `decode` turns a received frame back into a
/// burst.
pub(super) fn mesh<F>(
    plan: &ConcretePlan,
    encode: fn(Burst) -> F,
    decode: fn(F, &ConcretePlan) -> Result<Burst, DataflowError>,
) -> Vec<MeshTransport<F>> {
    let inboxes: Arc<[Inbox<F>]> = (0..plan.total_processes).map(|_| Inbox::new()).collect();
    (0..plan.total_processes)
        .map(|me| MeshTransport { inboxes: Arc::clone(&inboxes), me, plan: plan.clone(), encode, decode })
        .collect()
}

impl<F> Transport for MeshTransport<F> {
    fn send_batch(&mut self, batch: &mut Vec<RoutedDatum>) -> Result<(), DataflowError> {
        let MeshTransport { inboxes, plan, encode, .. } = self;
        drain_batch_groups(batch, |dest, group| inboxes[plan.dense(dest)].push(Msg::Data(encode(group))))
    }

    fn send_eos(&mut self, dest: InstanceId) -> Result<(), DataflowError> {
        self.inboxes[self.plan.dense(dest)].push(Msg::Eos)
    }

    fn recv(&mut self) -> Result<TransportMsg, DataflowError> {
        match self.inboxes[self.me].pop() {
            Msg::Data(frame) => Ok(TransportMsg::Data((self.decode)(frame, &self.plan)?)),
            Msg::Eos => Ok(TransportMsg::Eos),
        }
    }
}

impl<F> Drop for MeshTransport<F> {
    fn drop(&mut self) {
        self.inboxes[self.me].close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WorkflowGraph;
    use crate::mapping::{Mapping, MappingKind, MultiMapping, RunOptions, SimpleMapping};
    use crate::pe::{iterative_fn, producer_fn};
    use laminar_json::Value;

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
        for kind in [MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
            match kind.execute(&g, &RunOptions::iterations(5).with_processes(3)) {
                Err(DataflowError::PeFailed { pe, .. }) => assert_eq!(pe, "Bad", "{kind}"),
                other => panic!("{kind}: expected the PE failure, got {other:?}"),
            }
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
        // with the *PE's* error: nobody observes a closed inbox.
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

    /// The payload of a data message.
    fn data<F>(msg: Msg<F>) -> F {
        match msg {
            Msg::Data(frame) => frame,
            Msg::Eos => panic!("expected a data message, got EOS"),
        }
    }

    /// Fill `inbox` to the cap with `0..INBOX_BURSTS`.
    fn fill(inbox: &Inbox<usize>) {
        for i in 0..INBOX_BURSTS {
            inbox.push(Msg::Data(i)).unwrap();
        }
    }

    /// Wait until a sender has blocked on `inbox`'s cap.
    fn until_a_sender_waits<F>(inbox: &Inbox<F>) {
        while !inbox.state.lock().senders_waiting {
            std::thread::yield_now();
        }
    }

    /// Whether `sender` ends within five seconds. If it does not, close
    /// `inbox` to free it, so that the scope ends and the caller's assert
    /// reports instead of hanging.
    fn ends<T, F>(sender: &std::thread::ScopedJoinHandle<'_, T>, inbox: &Inbox<F>) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !sender.is_finished() {
            if std::time::Instant::now() > deadline {
                inbox.close();
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn list_fifo_order() {
        let inbox = Inbox::new();
        inbox.push(Msg::Data(1)).unwrap();
        inbox.push(Msg::Data(2)).unwrap();
        assert_eq!(data(inbox.pop()), 1);
        assert_eq!(data(inbox.pop()), 2);
    }

    #[test]
    fn blpop_wakes_on_push() {
        let inbox = Inbox::new();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| data(inbox.pop()));
            while !inbox.state.lock().receiver_waiting {
                std::thread::yield_now();
            }
            inbox.push(Msg::Data("work")).unwrap();
            assert_eq!(waiter.join().unwrap(), "work");
        });
    }

    #[test]
    fn a_push_to_a_full_list_waits_for_a_pop() {
        // A sender blocked at the cap is woken by the pop that takes the
        // inbox down to the watermark, not by the pops before it.
        let inbox = Inbox::new();
        fill(&inbox);
        std::thread::scope(|s| {
            let sender = s.spawn(|| inbox.push(Msg::Data(INBOX_BURSTS)));
            until_a_sender_waits(&inbox);
            for i in 0..INBOX_BURSTS - LOW_WATERMARK - 1 {
                assert_eq!(data(inbox.pop()), i);
            }
            assert!(inbox.state.lock().senders_waiting, "a pop above the watermark woke the sender");
            assert_eq!(data(inbox.pop()), INBOX_BURSTS - LOW_WATERMARK - 1);
            assert!(ends(&sender, &inbox), "the pop to the watermark left the sender blocked");
        });
        assert_eq!(inbox.state.lock().queue.len(), LOW_WATERMARK + 1);
        let last = (0..=LOW_WATERMARK).map(|_| data(inbox.pop())).last();
        assert_eq!(last, Some(INBOX_BURSTS));
    }

    #[test]
    fn a_receiver_about_to_block_wakes_a_sender_at_the_cap() {
        // By the time the receiver has emptied its inbox, the sender that
        // blocked at the cap has been woken, so the receiver's next pop
        // gets that sender's message instead of both waiting forever.
        let inbox = Inbox::new();
        fill(&inbox);
        std::thread::scope(|s| {
            let sender = s.spawn(|| inbox.push(Msg::Data(INBOX_BURSTS)));
            until_a_sender_waits(&inbox);
            let popped: Vec<usize> = (0..INBOX_BURSTS).map(|_| data(inbox.pop())).collect();
            assert_eq!(popped, (0..INBOX_BURSTS).collect::<Vec<_>>());
            assert!(ends(&sender, &inbox), "an empty inbox left its sender blocked at the cap");
            assert_eq!(data(inbox.pop()), INBOX_BURSTS);
        });
    }

    #[test]
    fn dropping_the_receiver_fails_a_blocked_sender() {
        let plan = ConcretePlan::distribute(&square_graph(), 2).unwrap();
        let [source, relay] = plan.all_instances()[..] else { panic!("expected two instances") };
        let mut transports = mesh(&plan, |burst| burst, |burst, _| Ok(burst));
        let receiver = transports.pop().unwrap();
        let mut sender = transports.pop().unwrap();
        assert_eq!((plan.dense(source), plan.dense(relay)), (0, 1));
        for _ in 0..INBOX_BURSTS {
            sender.send_eos(relay).unwrap();
        }
        let inboxes = Arc::clone(&receiver.inboxes);
        std::thread::scope(|s| {
            let blocked = s.spawn(move || sender.send_eos(relay));
            until_a_sender_waits(&inboxes[1]);
            drop(receiver);
            assert!(ends(&blocked, &inboxes[1]), "dropping the receiver left its sender blocked");
            assert_eq!(blocked.join().unwrap(), Err(closed()));
        });
    }

    #[test]
    fn many_producers_one_consumer() {
        let inbox = Inbox::new();
        let (n_producers, per) = (4, 250);
        std::thread::scope(|s| {
            for p in 0..n_producers {
                let inbox = &inbox;
                s.spawn(move || {
                    for i in 0..per {
                        inbox.push(Msg::Data(format!("{p}:{i}"))).unwrap();
                    }
                });
            }
            let mut got: Vec<String> = (0..n_producers * per).map(|_| data(inbox.pop())).collect();
            got.sort();
            let mut sent: Vec<String> =
                (0..n_producers).flat_map(|p| (0..per).map(move |i| format!("{p}:{i}"))).collect();
            sent.sort();
            assert_eq!(got, sent, "every pushed message is popped once");
        });
    }
}
