//! What a run event is while it waits to be read: a job's sequenced event
//! log holds the typed [`RunEvent`] its observer was handed. A page leaves
//! as one body, the JSON text of its events written straight from the
//! typed entries after the log lock is released ([`JobEventLog::page`]):
//! the `/events` route sends it, and [`crate::EnginePool::events`] parses
//! it for an embedding caller.

use crate::journal::JournalWriter;
use laminar_dataflow::{CancelToken, RunEvent, RunObserver};
use laminar_json::{parse, write_string, write_value, Value};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events retained per job before the oldest are evicted (cursor clients
/// detect the truncation via [`EventPage::first`]). Checkpointed jobs use
/// the capacity as a *horizon* instead: undelivered events are never
/// evicted while a consumer is live — the producer is throttled — and a
/// dead consumer degrades the log to epoch granularity, never to silent
/// data loss (see [`JobEventLog::wait_capacity`]).
pub(crate) const EVENT_LOG_CAPACITY: usize = 8192;

/// Default bounded wait a throttled producer spends on a full horizon log
/// before declaring the consumer dead and degrading to epoch-granularity
/// eviction. A cancel wakes the park ([`JobEventLog::wake_producer`]), so
/// a vanished reader can delay a worker, never wedge it.
pub(crate) const BACKPRESSURE_WAIT: Duration = Duration::from_secs(5);

/// Upper bound on events returned per [`crate::EnginePool::events`] page.
const EVENT_PAGE_LIMIT: usize = 512;

/// One page of a job's sequenced event log, addressed by cursor.
#[derive(Debug, Clone)]
pub struct EventPage<E = Vec<Value>> {
    /// Events with `seq >= since`, in sequence order: each one's wire form
    /// as a tree or, as a `String`, the text of the JSON array of them.
    pub events: E,
    /// Cursor for the next poll: pass as the next `since`.
    pub next: u64,
    /// Oldest sequence number still retained. `since < first` means the
    /// bounded log evicted events this client never saw.
    pub first: u64,
    /// Whether the stream is complete (the job reached a terminal phase
    /// and its last event is the `done`/`failed` marker).
    pub closed: bool,
    /// Set when the caller's cursor fell below [`EventPage::first`] but a
    /// checkpoint survived the eviction: the page starts at a retained
    /// `epoch` marker (its first event) and this is that epoch's id. The
    /// client re-anchors its fold at the checkpoint — engine-side
    /// recovery at epoch granularity instead of unrecoverable data loss.
    pub retained_epoch: Option<u64>,
}

impl EventPage<String> {
    /// The page with its text parsed into one tree per event.
    pub(crate) fn parsed(self) -> EventPage {
        let Ok(Value::Array(events)) = parse(&self.events) else {
            unreachable!("an event page is written as a JSON array")
        };
        let EventPage { next, first, closed, retained_epoch, .. } = self;
        EventPage { events, next, first, closed, retained_epoch }
    }
}

/// One retained event: the run event the observer was handed, or one of
/// the pool's own two terminal markers. Its sequence number is its
/// position — entry `i` of the deque is `first_seq + i`.
#[derive(Clone)]
pub(crate) enum Entry {
    Run(RunEvent),
    /// The job completed (`{"type":"done"}`).
    Done,
    /// The job failed, with its message (`{"type":"failed","error":…}`).
    Failed(String),
}

// The deque and every page's copy pay this per event.
const _: () = assert!(size_of::<Entry>() <= 72);

impl Entry {
    /// The wire form as text, appended to `out`, keys in sorted order.
    fn write_json(&self, seq: u64, out: &mut String) {
        let tail = match self {
            Entry::Run(event) => return event.write_json(seq, out),
            Entry::Done => {
                out.push_str("{\"seq\":");
                ",\"type\":\"done\"}"
            }
            Entry::Failed(message) => {
                out.push_str("{\"error\":");
                write_string(out, message);
                out.push_str(",\"seq\":");
                ",\"type\":\"failed\"}"
            }
        };
        write_value(out, &Value::Int(seq as i64));
        out.push_str(tail);
    }
}

#[derive(Default)]
struct EventLogInner {
    events: VecDeque<Entry>,
    /// Sequence number of `events[0]`.
    first_seq: u64,
    closed: bool,
    /// Retained `epoch` markers as `(seq, epoch id)`, in stream order.
    /// Front entries are dropped as eviction overtakes their seq.
    epoch_marks: VecDeque<(u64, u64)>,
    /// High-water mark of delivery: the largest `next` cursor any
    /// [`JobEventLog::page`] call has returned. Events below it have been
    /// handed to a reader, so evicting them loses nothing.
    reads: u64,
    /// A `cancelled` marker was appended. Tracked as a flag (not by
    /// inspecting the deque back) so the dedup in
    /// [`JobEventLog::close_cancelled`] stays correct even after the
    /// marker's neighbours — or, in a torn state, the region around it —
    /// have been evicted.
    has_cancelled: bool,
    /// The backpressure wait expired on this horizon log: the consumer is
    /// presumed dead and eviction has degraded to epoch granularity.
    degraded: bool,
    /// A reader parked on `data_cv` since the last wake. Set by
    /// [`JobEventLog::park`] before each wait, taken by the next writer
    /// in [`JobEventLog::unlock_and_wake`].
    reader_waiting: bool,
    /// The same for a producer parked on `space_cv` in
    /// [`JobEventLog::wait_capacity`].
    producer_waiting: bool,
    #[cfg(test)]
    counts: WakeCounts,
}

/// Parks begun and notifies issued, per condvar: what the wake-protocol
/// tests spin on and bound.
#[cfg(test)]
#[derive(Default, Clone, Copy, Debug)]
struct WakeCounts {
    reader_parks: u64,
    producer_parks: u64,
    data_wakes: u64,
    space_wakes: u64,
}

/// Which condvars a write may have unblocked a waiter on.
#[derive(Clone, Copy)]
enum Wake {
    Readers,
    Producer,
    Both,
}

impl EventLogInner {
    fn end_seq(&self) -> u64 {
        self.first_seq + self.events.len() as u64
    }

    /// Take the next sequence number for `entry`, tracking the markers the
    /// retention policy keys on.
    fn push(&mut self, entry: Entry) {
        match &entry {
            Entry::Run(RunEvent::Epoch { id, .. }) => self.epoch_marks.push_back((self.end_seq(), *id)),
            Entry::Run(RunEvent::Cancelled) => self.has_cancelled = true,
            _ => {}
        }
        self.events.push_back(entry);
    }

    /// Evict from the front down to `capacity`, honoring the policy:
    /// terminal markers are exempt; horizon logs evict only delivered
    /// events (`seq < reads`) until degraded, then anything below the
    /// latest retained epoch marker — and if a single round overflows the
    /// whole log (no marker to anchor on), blindly, which is exactly the
    /// non-checkpointed fallback.
    fn evict(&mut self, horizon: bool, capacity: usize) {
        while self.events.len() > capacity {
            if matches!(self.events[0], Entry::Run(RunEvent::Cancelled) | Entry::Done | Entry::Failed(_)) {
                break;
            }
            if horizon && !self.degraded && self.first_seq >= self.reads {
                break; // undelivered and the consumer is (still) live
            }
            self.events.pop_front();
            self.first_seq += 1;
            while self.epoch_marks.front().is_some_and(|&(seq, _)| seq < self.first_seq) {
                self.epoch_marks.pop_front();
            }
        }
    }
}

/// A bounded, sequenced log of one job's run events. Written by the
/// worker's streaming observer, read by cursor through the `/events`
/// endpoint.
///
/// Two retention policies share the structure:
///
/// * **Evict-and-truncate** (non-checkpointed jobs, `horizon = false`):
///   over capacity, the oldest events are dropped; cursor clients detect
///   the gap via [`EventPage::first`] — without checkpoints there is
///   nothing better to degrade to.
/// * **Checkpoint horizon** (`horizon = true`): undelivered events are
///   never evicted while the consumer is live; instead the producer is
///   throttled ([`JobEventLog::wait_capacity`], reached through the
///   [`RunObserver::throttle`] seam). If the bounded wait expires the
///   consumer is presumed dead and the log *degrades*: events below the
///   most recent retained `epoch` marker become evictable (the marker
///   survives as the recovery anchor surfaced via
///   [`EventPage::retained_epoch`]). Terminal markers are never evicted
///   under either policy.
pub(crate) struct JobEventLog {
    inner: Mutex<EventLogInner>,
    /// Where a producer throttled by [`JobEventLog::wait_capacity`] parks.
    /// Notified when a page advances `reads`, on close and on cancel
    /// ([`JobEventLog::wake_producer`]) — and then only if the producer
    /// set `producer_waiting`, so a log whose producer never parks (every
    /// non-horizon log) makes no syscall per page.
    space_cv: Condvar,
    /// Where a long-poll reader ([`JobEventLog::page_wait`], the `wait_ms`
    /// machinery) parks. Notified on append, journal preload, close and
    /// expiry — and then only if a reader set `reader_waiting`: one wake
    /// per park, not one per event.
    data_cv: Condvar,
    /// Whether the checkpoint-horizon policy applies (jobs submitted with
    /// `checkpoint_every > 0`).
    horizon: bool,
    /// Retention bound (soft for horizon logs: a producer may overshoot
    /// by its burst between two throttle points).
    capacity: usize,
    /// Bounded backpressure wait before a horizon log degrades.
    max_wait: Duration,
}

impl JobEventLog {
    pub(crate) fn new(horizon: bool, capacity: usize, max_wait: Duration) -> Arc<JobEventLog> {
        Arc::new(JobEventLog {
            inner: Mutex::new(EventLogInner::default()),
            space_cv: Condvar::new(),
            data_cv: Condvar::new(),
            horizon,
            capacity: capacity.max(1),
            max_wait,
        })
    }

    /// Append one event under the next sequence number — the log, not the
    /// sink that produced the event, is the authority on ordering. Never
    /// blocks: a horizon log over capacity overshoots softly here and
    /// relies on the producer's next [`JobEventLog::wait_capacity`] to
    /// park.
    pub(crate) fn append(&self, event: &RunEvent) {
        let mut inner = self.inner.lock();
        if inner.closed {
            return;
        }
        inner.push(Entry::Run(event.clone()));
        inner.evict(self.horizon, self.capacity);
        self.unlock_and_wake(inner, Wake::Readers);
    }

    /// Release the log lock after a write and wake the threads parked on
    /// the condvars `wake` names — if any parked since the last wake. A
    /// parker sets its flag under this lock just before its wait releases
    /// it, so a flag taken set here means a thread already queued on the
    /// condvar: the notify cannot be lost. `notify_all`, because one flag
    /// stands for every thread parked on that condvar.
    fn unlock_and_wake(&self, mut inner: MutexGuard<'_, EventLogInner>, wake: Wake) {
        let readers = matches!(wake, Wake::Readers | Wake::Both) && std::mem::take(&mut inner.reader_waiting);
        let producer =
            matches!(wake, Wake::Producer | Wake::Both) && std::mem::take(&mut inner.producer_waiting);
        #[cfg(test)]
        {
            inner.counts.data_wakes += readers as u64;
            inner.counts.space_wakes += producer as u64;
        }
        drop(inner);
        if readers {
            self.data_cv.notify_all();
        }
        if producer {
            self.space_cv.notify_all();
        }
    }

    /// Pre-fill a resumed job's log with its journaled prefix, numbered
    /// from the first record's seq — a resumed log must *not* restart at
    /// `first_seq = 0`, or a client holding an attempt-1 cursor can be
    /// handed `next < since` and silently re-fold duplicates. Position
    /// numbers the rest: the recorded seqs wherever the journal is
    /// contiguous (every normal flow), a re-stamp from the discontinuity
    /// on in a hand-mangled one, so the log stays internally consistent.
    ///
    /// The prefix already streamed live once and is durable on disk, so
    /// it counts as delivered: horizon eviction may reclaim it without
    /// waiting on a cursor client that may be long gone.
    pub(crate) fn preload_journal(&self, events: Vec<(u64, RunEvent)>) {
        let mut inner = self.inner.lock();
        inner.first_seq = events.first().map_or(0, |&(seq, _)| seq);
        for (_, event) in events {
            inner.push(Entry::Run(event));
        }
        inner.reads = inner.end_seq();
        inner.evict(self.horizon, self.capacity);
        self.unlock_and_wake(inner, Wake::Readers);
    }

    /// Park the producer until the log has capacity again — the
    /// backpressure half of the horizon policy, called from the job
    /// observer's [`RunObserver::throttle`] at source-iteration
    /// boundaries. Returns immediately for non-horizon, closed, degraded
    /// or cancelled logs. When `max_wait` expires without the reader
    /// catching up, the log flips to degraded (epoch-granularity
    /// eviction) so a dead consumer delays a worker once, never wedges
    /// it.
    pub(crate) fn wait_capacity(&self, cancel: &CancelToken) {
        if !self.horizon {
            return;
        }
        let mut inner = self.inner.lock();
        let deadline = Instant::now() + self.max_wait;
        loop {
            inner.evict(self.horizon, self.capacity);
            if inner.events.len() <= self.capacity || inner.closed || inner.degraded || cancel.is_cancelled()
            {
                return;
            }
            if Instant::now() >= deadline {
                inner.degraded = true;
                inner.evict(self.horizon, self.capacity);
                return;
            }
            inner.producer_waiting = true;
            #[cfg(test)]
            {
                inner.counts.producer_parks += 1;
            }
            self.space_cv.wait_until(&mut inner, deadline);
        }
    }

    /// Wake a producer parked in [`JobEventLog::wait_capacity`] so it sees
    /// the cancel token its caller just fired. The flag is read under the
    /// log lock: the producer checks the token and parks under that same
    /// lock, so it either sees the token or has already set the flag.
    pub(crate) fn wake_producer(&self) {
        self.unlock_and_wake(self.inner.lock(), Wake::Producer);
    }

    /// Append the terminal `marker` and seal the log — both under one
    /// lock, notifying after: a reader is never handed the marker on a
    /// page that still says `closed: false`. A `cancelled` marker the
    /// enactment runtime already streamed is not appended twice; the dedup
    /// keys off the `has_cancelled` flag, not the deque back, so eviction
    /// can neither strip the marker (terminal markers are exempt) nor fool
    /// the check.
    pub(crate) fn close(&self, marker: Entry) {
        let mut inner = self.inner.lock();
        if inner.closed {
            return;
        }
        if !(inner.has_cancelled && matches!(marker, Entry::Run(RunEvent::Cancelled))) {
            inner.push(marker);
            inner.evict(self.horizon, self.capacity);
        }
        inner.closed = true;
        self.unlock_and_wake(inner, Wake::Both);
    }

    /// Seal the log as cancelled: the marker is appended here for queued
    /// jobs cancelled before a worker picked them, non-streamed jobs and
    /// shutdown, so a cancelled stream always ends in exactly one.
    pub(crate) fn close_cancelled(&self) {
        self.close(Entry::Run(RunEvent::Cancelled));
    }

    /// Drop every retained event and free the buffer that held them,
    /// keeping the sequence bookkeeping (and closed-ness), so cursor
    /// clients observe truncation rather than a silently emptied stream.
    /// `clear` would keep the capacity, and an expired log stays in its
    /// job record for as long as the record is retained.
    pub(crate) fn expire(&self) {
        let mut inner = self.inner.lock();
        inner.first_seq = inner.end_seq();
        inner.events = VecDeque::new();
        inner.epoch_marks = VecDeque::new();
        // A parked long-poll whose cursor just fell below `first` must
        // observe the truncation, not sleep through it.
        self.unlock_and_wake(inner, Wake::Readers);
    }

    /// Read a page of events starting at `since`, as the text of their
    /// JSON array.
    ///
    /// Honest at both edges: a cursor beyond the end returns an empty
    /// page with `next = since` (never clamped backwards, never falsely
    /// `closed` — the caller has not seen the trailing events); a cursor
    /// below `first` re-anchors at the oldest retained epoch marker when
    /// one survives, reported via [`EventPage::retained_epoch`].
    ///
    /// Only the typed entries are cloned under the log lock the producer
    /// appends through; they are written after it is released.
    pub(crate) fn page(&self, since: u64) -> EventPage<String> {
        let mut inner = self.inner.lock();
        let first = inner.first_seq;
        let end_seq = inner.end_seq();
        if since > end_seq {
            drop(inner);
            return EventPage {
                events: "[]".into(),
                next: since,
                first,
                closed: false,
                retained_epoch: None,
            };
        }
        let mut retained_epoch = None;
        let mut start = since;
        if since < first {
            // The bounded log evicted events this cursor never saw. When a
            // checkpoint survives, recovery is engine-side: restart the
            // page at the oldest retained epoch marker.
            if let Some(&(mark_seq, mark_id)) = inner.epoch_marks.front() {
                start = mark_seq;
                retained_epoch = Some(mark_id);
            } else {
                start = first;
            }
        }
        let take = ((end_seq - start) as usize).min(EVENT_PAGE_LIMIT);
        let offset = (start - first) as usize;
        let entries: Vec<Entry> = inner.events.range(offset..offset + take).cloned().collect();
        let next = start + entries.len() as u64;
        let closed = inner.closed && next == end_seq;
        if next > inner.reads {
            inner.reads = next;
            // Delivery frees horizon capacity: wake a throttled producer.
            self.unlock_and_wake(inner, Wake::Producer);
        } else {
            drop(inner);
        }
        let mut text = String::with_capacity(2 + entries.len() * 96);
        text.push('[');
        for (entry, seq) in entries.iter().zip(start..) {
            if seq > start {
                text.push(',');
            }
            entry.write_json(seq, &mut text);
        }
        text.push(']');
        EventPage { events: text, next, first, closed, retained_epoch }
    }

    /// Push mode: when the cursor is at the live edge of an open stream,
    /// park on `data_cv` until the producer appends, the log seals
    /// (terminal marker, cancel, shutdown), the retained window truncates
    /// past the cursor, or `wait` elapses. `wait = 0` never parks; an
    /// already-closed or already-readable log returns immediately. This
    /// is the `wait_ms` long-poll; what it returns to is always the one
    /// poll path, [`JobEventLog::page`], so push and poll can never
    /// drift apart (the page re-locks; anything appended in the gap is a
    /// bonus, not a bug).
    fn park(&self, since: u64, wait: Duration) {
        if wait.is_zero() {
            return;
        }
        let deadline = Instant::now() + wait;
        let mut inner = self.inner.lock();
        loop {
            if inner.closed || since < inner.first_seq || since < inner.end_seq() {
                break;
            }
            inner.reader_waiting = true;
            #[cfg(test)]
            {
                inner.counts.reader_parks += 1;
            }
            if self.data_cv.wait_until(&mut inner, deadline).timed_out() {
                break;
            }
        }
    }

    /// [`JobEventLog::page`] after a [`JobEventLog::park`]; with
    /// `wait = 0`, exactly [`JobEventLog::page`].
    pub(crate) fn page_wait(&self, since: u64, wait: Duration) -> EventPage<String> {
        self.park(since, wait);
        self.page(since)
    }

    /// The retained window as `(first, end)` sequence numbers —
    /// `end - first` is the in-memory event count. Observability for the
    /// slow-consumer bench and tests, which assert the window stays
    /// bounded by the checkpoint horizon.
    pub(crate) fn window(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.first_seq, inner.end_seq())
    }
}

/// The worker-side bridge: fans each [`RunEvent`] out to the job's
/// in-memory log (streamed jobs) and to its on-disk journal (checkpointed
/// jobs under a durable pool), which frames its wire text.
///
/// The journal is written *first*: by the time an epoch marker becomes
/// observable through `/events`, its snapshot is already durable, so the
/// injected-kill fault (which fires right after the marker) models a
/// crash strictly after persistence. Journal I/O errors are swallowed —
/// a failing disk degrades durability, it must not kill a healthy run —
/// but counted, so operators can see the degradation in pool stats
/// ([`crate::PoolStats::journal_errors`]) instead of discovering it at
/// resume time.
pub(crate) struct JobObserver {
    pub(crate) log: Option<Arc<JobEventLog>>,
    pub(crate) journal: Option<Mutex<JournalWriter>>,
    /// The job's cooperative stop signal: a backpressure park must abort
    /// when the job is cancelled.
    pub(crate) cancel: CancelToken,
    /// Pool-wide count of swallowed journal I/O errors.
    pub(crate) journal_errors: Arc<AtomicU64>,
}

impl RunObserver for JobObserver {
    fn on_event(&self, seq: u64, event: &RunEvent) {
        if let Some(journal) = &self.journal {
            if journal.lock().record_event(seq, event).is_err() {
                self.journal_errors.fetch_add(1, Ordering::SeqCst);
            }
        }
        if let Some(log) = &self.log {
            log.append(event);
        }
    }

    /// The backpressure seam: the runtime calls this at source-iteration
    /// boundaries; the horizon log parks the producer until the consumer
    /// catches up (or the bounded wait degrades the log).
    fn throttle(&self) {
        if let Some(log) = &self.log {
            log.wait_capacity(&self.cancel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnginePool, ExecutionEngine, ExecutionRequest, RunConfig};

    fn data_event() -> RunEvent {
        RunEvent::Output { pe: "P".into(), instance: 0, port: "o".into(), value: Value::Int(1) }
    }

    #[test]
    fn page_is_honest_at_and_past_the_end() {
        let log = JobEventLog::new(false, 16, Duration::from_millis(10));
        for _ in 0..3 {
            log.append(&data_event()); // seqs 0, 1, 2
        }
        // since == end_seq: empty page, cursor parked, stream open.
        let at_end = log.page(3).parsed();
        assert!(at_end.events.is_empty());
        assert_eq!(at_end.next, 3);
        assert!(!at_end.closed);
        // since == end_seq + 1: the cursor is preserved, never clamped
        // backwards (the old clamp handed back `next < since`, silently
        // re-folding duplicates) and never falsely closed.
        let past = log.page(4).parsed();
        assert!(past.events.is_empty());
        assert_eq!(past.next, 4, "cursor preserved, not clamped to the end");
        assert!(!past.closed, "closed must not be reported for events the client never saw");
        assert!(past.retained_epoch.is_none());

        log.close(Entry::Done); // seq 3; end_seq = 4
        let at_end = log.page(4).parsed();
        assert!(at_end.closed, "cursor at the end of a closed stream sees closure");
        assert_eq!(at_end.next, 4);
        let beyond = log.page(5).parsed();
        assert!(!beyond.closed, "a cursor past the end has unseen (non-existent) events");
        assert_eq!(beyond.next, 5);
        assert!(beyond.events.is_empty());
    }

    #[test]
    fn preload_honors_journal_seqs_and_tracks_epoch_marks() {
        let log = JobEventLog::new(true, 16, Duration::from_millis(10));
        let mut journaled: Vec<RunEvent> = (0..4).map(|_| data_event()).collect();
        journaled.insert(2, RunEvent::Epoch { id: 1, state: Value::Null });
        log.preload_journal((0..).zip(journaled).collect());
        assert_eq!(log.window(), (0, 5));
        let page = log.page(0).parsed();
        let seqs: Vec<i64> = page.events.iter().filter_map(|e| e["seq"].as_i64()).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4], "recorded seqs honored");
        assert_eq!(log.inner.lock().epoch_marks.front(), Some(&(2, 1)), "epoch mark recovered");
        // Live appends continue the numbering.
        log.append(&data_event());
        assert_eq!(log.page(5).parsed().events[0]["seq"].as_i64(), Some(5));
    }

    #[test]
    fn preload_numbers_from_the_first_recorded_seq_and_restamps_a_gap() {
        let log = JobEventLog::new(true, 16, Duration::from_millis(10));
        log.preload_journal(vec![(7, data_event()), (8, data_event()), (11, data_event())]);
        assert_eq!(log.window(), (7, 10));
        let seqs: Vec<i64> = log.page(7).parsed().events.iter().filter_map(|e| e["seq"].as_i64()).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    /// The page that carries a stream's terminal marker is the closed one:
    /// a reader that re-requests without sleeping, and is therefore parked
    /// on `data_cv` when the marker lands, never needs a further page.
    #[test]
    fn the_page_carrying_the_terminal_marker_is_closed() {
        let pool = EnginePool::start(ExecutionEngine::instant(), 1, 8);
        let src = "pe G : producer { output o; process { emit(iteration); } }";
        for job in 0..500 {
            let req = match job % 10 {
                0 => {
                    ExecutionRequest::new("u", "not a script !!", RunConfig::iterations(1).with_events(true))
                }
                _ => ExecutionRequest::new("u", src, RunConfig::iterations(4).with_events(true)),
            };
            let id = pool.submit("u", req).unwrap();
            let mut since = 0;
            loop {
                let page = pool.events_wait("u", id, since, Duration::from_secs(20)).unwrap();
                since = page.next;
                let marker = page.events.last().and_then(|e| e["type"].as_str());
                let sealed = matches!(marker, Some("done" | "failed" | "cancelled"));
                assert_eq!(page.closed, sealed, "job {job}: page ending in {marker:?}");
                if sealed {
                    break;
                }
            }
        }
    }

    fn counts(log: &JobEventLog) -> WakeCounts {
        log.inner.lock().counts
    }

    /// Spin until `parked` holds of the log, failing after 10 s.
    fn spin_until(log: &JobEventLog, parked: impl Fn(&EventLogInner) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !parked(&log.inner.lock()) {
            assert!(Instant::now() < deadline, "no park within 10 s: {:?}", counts(log));
            std::thread::yield_now();
        }
    }

    /// `readers` threads each page the log's live edge: first with a 1 ms
    /// wait when `time_out_first` (the park times out and leaves its flag
    /// set), then with a 20 s one. Once every reader has parked, one
    /// event is appended; each reader must return it within 1 s. A lost
    /// wake leaves a reader asleep for the 20 s.
    fn readers_wake_on_every_append(readers: usize, time_out_first: bool) {
        use std::sync::mpsc::channel;
        let log = JobEventLog::new(false, 16, Duration::from_secs(20));
        let (page_tx, page_rx) = channel();
        let mut go = Vec::new();
        for _ in 0..readers {
            let (go_tx, go_rx) = channel::<()>();
            go.push(go_tx);
            let (log, page_tx) = (log.clone(), page_tx.clone());
            std::thread::spawn(move || {
                let mut since = 0;
                let first_wait = Duration::from_millis(if time_out_first { 1 } else { 20_000 });
                while go_rx.recv().is_ok() {
                    let mut page = log.page_wait(since, first_wait);
                    if page.next == since {
                        page = log.page_wait(since, Duration::from_secs(20));
                    }
                    since = page.next;
                    page_tx.send(page).unwrap();
                }
            });
        }
        let parks_per_round = readers as u64 * if time_out_first { 2 } else { 1 };
        for round in 0..1000u64 {
            let parked = counts(&log).reader_parks + parks_per_round;
            go.iter().for_each(|go| go.send(()).unwrap());
            spin_until(&log, |inner| inner.reader_waiting && inner.counts.reader_parks >= parked);
            log.append(&data_event());
            for _ in 0..readers {
                let page =
                    page_rx.recv_timeout(Duration::from_secs(1)).expect("a parked reader slept through");
                assert_eq!(page.next, round + 1, "round {round}");
            }
        }
    }

    #[test]
    fn a_parked_reader_wakes_on_the_append() {
        readers_wake_on_every_append(1, false);
    }

    #[test]
    fn two_parked_readers_both_wake_on_the_append() {
        readers_wake_on_every_append(2, false);
    }

    #[test]
    fn a_reader_that_timed_out_and_reparked_wakes_on_the_append() {
        readers_wake_on_every_append(1, true);
    }

    /// The producer's twin: each round it appends two events to a
    /// horizon log of capacity 1 and parks in `wait_capacity`; once it
    /// has, one page is read, and the producer must be back within 1 s.
    #[test]
    fn a_throttled_producer_wakes_on_the_page() {
        use std::sync::mpsc::channel;
        let log = JobEventLog::new(true, 1, Duration::from_secs(20));
        let (go_tx, go_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        let producer = {
            let log = log.clone();
            std::thread::spawn(move || {
                let cancel = CancelToken::new();
                while go_rx.recv().is_ok() {
                    log.append(&data_event());
                    log.append(&data_event());
                    log.wait_capacity(&cancel);
                    done_tx.send(()).unwrap();
                }
            })
        };
        let mut since = 0;
        for round in 0..1000 {
            let parked = counts(&log).producer_parks + 1;
            go_tx.send(()).unwrap();
            spin_until(&log, |inner| inner.producer_waiting && inner.counts.producer_parks >= parked);
            since = log.page(since).next;
            done_rx
                .recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("round {round}: producer slept"));
        }
        drop(go_tx);
        producer.join().unwrap();
    }

    /// One wake per park, not one per event: a reader parked once at the
    /// live edge of a 2,000-event run costs the writer one notify, and a
    /// producer that never parks costs none, however many pages are read.
    #[test]
    fn a_run_notifies_once_per_park_not_once_per_event() {
        let log = JobEventLog::new(false, EVENT_LOG_CAPACITY, Duration::from_secs(20));
        let reader = {
            let log = log.clone();
            std::thread::spawn(move || {
                let mut page = log.page_wait(0, Duration::from_secs(20));
                while !page.closed {
                    page = log.page_wait(page.next, Duration::ZERO);
                }
                page.next
            })
        };
        spin_until(&log, |inner| inner.reader_waiting);
        for _ in 0..2000 {
            log.append(&data_event());
        }
        log.close(Entry::Done);
        assert_eq!(reader.join().unwrap(), 2001);
        // A spurious wake-up re-parks, and each park is worth one wake.
        let counts = counts(&log);
        assert!(
            (1..=4).contains(&counts.data_wakes) && counts.data_wakes <= counts.reader_parks,
            "{counts:?}"
        );
        assert_eq!(counts.space_wakes, 0, "{counts:?}");
    }
}
