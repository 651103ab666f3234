//! A job's sequenced event log and the observer that feeds it: what a run
//! event is while it waits to be read.

use crate::journal::JournalWriter;
use laminar_dataflow::{CancelToken, RunEvent, RunObserver};
use laminar_json::Value;
use parking_lot::{Condvar, Mutex};
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
/// eviction. Cancel-aware — a DELETE lands within one wait slice — so a
/// vanished reader can delay a worker, never wedge it.
pub(crate) const BACKPRESSURE_WAIT: Duration = Duration::from_secs(5);

/// Slice of one backpressure wait between cancellation re-checks
/// ([`CancelToken`] has no waitable primitive to park on directly).
const BACKPRESSURE_SLICE: Duration = Duration::from_millis(20);

/// Upper bound on events returned per [`EnginePool::events`] page.
const EVENT_PAGE_LIMIT: usize = 512;

/// One page of a job's sequenced event log, addressed by cursor.
#[derive(Debug, Clone)]
pub struct EventPage {
    /// Events with `seq >= since`, in sequence order (wire form).
    pub events: Vec<Value>,
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

struct EventLogInner {
    events: VecDeque<Value>,
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
}

/// A bounded, sequenced log of one job's run events. Written by the
/// worker's streaming observer, read by cursor through the `/events`
/// endpoint.
///
/// Two retention policies share the structure:
///
/// * **Evict-and-truncate** (non-checkpointed jobs, `horizon = false`):
///   over capacity, the oldest events are dropped; cursor clients detect
///   the gap via [`EventPage::first`]. Today's behavior, kept as the
///   documented fallback — without checkpoints there is nothing better
///   to degrade to.
/// * **Checkpoint horizon** (`horizon = true`): undelivered events are
///   never evicted while the consumer is live; instead the producer is
///   throttled ([`JobEventLog::wait_capacity`], reached through the
///   [`RunObserver::throttle`] seam). If the bounded wait expires the
///   consumer is presumed dead and the log *degrades*: events below the
///   most recent retained `epoch` marker become evictable (the marker
///   survives as the recovery anchor surfaced via
///   [`EventPage::retained_epoch`]). Terminal markers are never evicted
///   under either policy.
pub struct JobEventLog {
    inner: Mutex<EventLogInner>,
    /// Signalled when a reader advances `reads` (and on close), waking
    /// producers parked in [`JobEventLog::wait_capacity`].
    space_cv: Condvar,
    /// The read-direction twin of `space_cv`: signalled when the producer
    /// appends (and on close/cancel/expiry), waking readers parked in
    /// [`JobEventLog::page_wait`] — the long-poll `wait_ms` machinery.
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
            inner: Mutex::new(EventLogInner {
                events: VecDeque::new(),
                first_seq: 0,
                closed: false,
                epoch_marks: VecDeque::new(),
                reads: 0,
                has_cancelled: false,
                degraded: false,
            }),
            space_cv: Condvar::new(),
            data_cv: Condvar::new(),
            horizon,
            capacity: capacity.max(1),
            max_wait,
        })
    }

    /// Track policy-relevant markers of a just-stamped event.
    fn note_markers(inner: &mut EventLogInner, event: &Value, seq: u64) {
        match event["type"].as_str() {
            Some("epoch") => {
                let id = event["epoch"].as_i64().unwrap_or(0).max(0) as u64;
                inner.epoch_marks.push_back((seq, id));
            }
            Some("cancelled") => inner.has_cancelled = true,
            _ => {}
        }
    }

    /// Evict from the front down to `capacity`, honoring the policy:
    /// terminal markers are exempt; horizon logs evict only delivered
    /// events (`seq < reads`) until degraded, then anything below the
    /// latest retained epoch marker — and if a single round overflows the
    /// whole log (no marker to anchor on), blindly, which is exactly the
    /// non-checkpointed fallback.
    fn evict(inner: &mut EventLogInner, horizon: bool, capacity: usize) {
        while inner.events.len() > capacity {
            let front_seq = inner.first_seq;
            let front_type = inner.events.front().and_then(|e| e["type"].as_str());
            if matches!(front_type, Some("cancelled" | "done" | "failed")) {
                break;
            }
            if horizon && !inner.degraded && front_seq >= inner.reads {
                break; // undelivered and the consumer is (still) live
            }
            inner.events.pop_front();
            inner.first_seq += 1;
            while inner.epoch_marks.front().is_some_and(|&(seq, _)| seq < inner.first_seq) {
                inner.epoch_marks.pop_front();
            }
        }
    }

    /// Append one wire-form event, stamping it with the next sequence
    /// number (overwriting any `seq` the value carried — the log is the
    /// authority on ordering). Never blocks: a horizon log over capacity
    /// overshoots softly here and relies on the producer's next
    /// [`JobEventLog::wait_capacity`] to park.
    pub(crate) fn append(&self, mut event: Value) {
        let mut inner = self.inner.lock();
        if inner.closed {
            return;
        }
        let seq = inner.first_seq + inner.events.len() as u64;
        event.set("seq", seq as i64);
        Self::note_markers(&mut inner, &event, seq);
        inner.events.push_back(event);
        Self::evict(&mut inner, self.horizon, self.capacity);
        drop(inner);
        self.data_cv.notify_all();
    }

    /// Pre-fill a resumed job's log with its journaled prefix, honoring
    /// the seqs the journal recorded — a resumed log must *not* restart
    /// at `first_seq = 0` with re-stamped events, or a client holding an
    /// attempt-1 cursor can be handed `next < since` and silently re-fold
    /// duplicates. Journaled streams are contiguous in every normal flow;
    /// on a discontinuity (a hand-mangled journal) stamping falls back to
    /// sequential from that point so the log stays internally consistent.
    ///
    /// The prefix already streamed live once and is durable on disk, so
    /// it counts as delivered: horizon eviction may reclaim it without
    /// waiting on a cursor client that may be long gone.
    pub(crate) fn preload_journal(&self, events: Vec<Value>) {
        let mut inner = self.inner.lock();
        let mut expected: Option<u64> = None;
        for mut event in events {
            let recorded = event["seq"].as_i64().map(|s| s.max(0) as u64);
            let seq = match (recorded, expected) {
                (Some(s), None) => s,              // first event seeds first_seq
                (Some(s), Some(e)) if s == e => s, // contiguous: honor the record
                (_, Some(e)) => e,                 // discontinuity: re-stamp
                (None, None) => 0,
            };
            if expected.is_none() {
                inner.first_seq = seq;
            }
            event.set("seq", seq as i64);
            Self::note_markers(&mut inner, &event, seq);
            inner.events.push_back(event);
            expected = Some(seq + 1);
        }
        inner.reads = inner.first_seq + inner.events.len() as u64;
        Self::evict(&mut inner, self.horizon, self.capacity);
        drop(inner);
        self.data_cv.notify_all();
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
            Self::evict(&mut inner, self.horizon, self.capacity);
            if inner.events.len() <= self.capacity || inner.closed || inner.degraded || cancel.is_cancelled()
            {
                return;
            }
            if Instant::now() >= deadline {
                inner.degraded = true;
                Self::evict(&mut inner, self.horizon, self.capacity);
                return;
            }
            // Sliced so cancellation lands promptly: CancelToken has no
            // waitable primitive, and a reader's notify can race the park.
            self.space_cv.wait_for(&mut inner, BACKPRESSURE_SLICE);
        }
    }

    /// Append the terminal marker and seal the log.
    pub(crate) fn close(&self, terminal: Value) {
        self.append(terminal);
        self.inner.lock().closed = true;
        self.space_cv.notify_all();
        self.data_cv.notify_all();
    }

    /// Seal the log as cancelled. The [`RunEvent::Cancelled`] marker may
    /// already be present (the enactment runtime emits it through the
    /// streaming observer before unwinding); when it is not — queued jobs
    /// cancelled before a worker picked them, non-streamed jobs, shutdown
    /// — append it first, so a cancelled stream always ends in exactly
    /// one `cancelled` marker. The dedup keys off the `has_cancelled`
    /// flag, not the deque back: eviction can never strip the marker
    /// (terminal markers are exempt) nor fool the check.
    pub(crate) fn close_cancelled(&self) {
        let mut inner = self.inner.lock();
        if inner.closed {
            return;
        }
        if !inner.has_cancelled {
            let seq = inner.first_seq + inner.events.len() as u64;
            inner.events.push_back(RunEvent::Cancelled.to_value(seq));
            inner.has_cancelled = true;
        }
        inner.closed = true;
        drop(inner);
        self.space_cv.notify_all();
        self.data_cv.notify_all();
    }

    /// Drop every retained event, keeping the sequence bookkeeping (and
    /// closed-ness), so cursor clients observe truncation rather than a
    /// silently emptied stream.
    pub(crate) fn expire(&self) {
        let mut inner = self.inner.lock();
        inner.first_seq += inner.events.len() as u64;
        inner.events.clear();
        inner.epoch_marks.clear();
        drop(inner);
        // A parked long-poll whose cursor just fell below `first` must
        // observe the truncation, not sleep through it.
        self.data_cv.notify_all();
    }

    /// Read a page of events starting at `since`.
    ///
    /// Honest at both edges: a cursor beyond the end returns an empty
    /// page with `next = since` (never clamped backwards, never falsely
    /// `closed` — the caller has not seen the trailing events); a cursor
    /// below `first` re-anchors at the oldest retained epoch marker when
    /// one survives, reported via [`EventPage::retained_epoch`].
    pub(crate) fn page(&self, since: u64) -> EventPage {
        let mut inner = self.inner.lock();
        let first = inner.first_seq;
        let end_seq = first + inner.events.len() as u64;
        if since > end_seq {
            return EventPage { events: Vec::new(), next: since, first, closed: false, retained_epoch: None };
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
        let events: Vec<Value> = inner.events.iter().skip(offset).take(take).cloned().collect();
        let next = start + events.len() as u64;
        let closed = inner.closed && next == end_seq;
        let advanced = next > inner.reads;
        if advanced {
            inner.reads = next;
        }
        drop(inner);
        if advanced {
            // Delivery frees horizon capacity: wake throttled producers.
            self.space_cv.notify_all();
        }
        EventPage { events, next, first, closed, retained_epoch }
    }

    /// [`JobEventLog::page`], in push mode: when the cursor is at the live
    /// edge of an open stream, park on `data_cv` until the producer
    /// appends, the log seals (terminal marker, cancel, shutdown), the
    /// retained window truncates past the cursor, or `wait` elapses —
    /// then answer exactly like a poll. `wait = 0` never parks and is
    /// byte-identical to [`JobEventLog::page`]; an already-closed or
    /// already-readable log answers immediately. This is the `wait_ms`
    /// long-poll: PR 8's backpressure Condvar machinery run in the read
    /// direction.
    pub(crate) fn page_wait(&self, since: u64, wait: Duration) -> EventPage {
        if !wait.is_zero() {
            let deadline = Instant::now() + wait;
            let mut inner = self.inner.lock();
            loop {
                let end_seq = inner.first_seq + inner.events.len() as u64;
                let readable = inner.closed || since < inner.first_seq || since < end_seq;
                if readable || self.data_cv.wait_until(&mut inner, deadline).timed_out() {
                    break;
                }
            }
        }
        // Build the page through the one poll path so push and poll can
        // never drift apart (re-locks; anything appended in the gap is a
        // bonus, not a bug).
        self.page(since)
    }

    /// The retained window as `(first, end)` sequence numbers —
    /// `end - first` is the in-memory event count. Observability for the
    /// slow-consumer bench and tests, which assert the window stays
    /// bounded by the checkpoint horizon.
    pub(crate) fn window(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.first_seq, inner.first_seq + inner.events.len() as u64)
    }
}

/// The worker-side bridge: converts each [`RunEvent`] to its wire form
/// and fans it out to the job's in-memory log (streamed jobs) and its
/// on-disk journal (checkpointed jobs under a durable pool).
///
/// The journal is written *first*: by the time an epoch marker becomes
/// observable through `/events`, its snapshot is already durable, so the
/// injected-kill fault (which fires right after the marker) models a
/// crash strictly after persistence. Journal I/O errors are swallowed —
/// a failing disk degrades durability, it must not kill a healthy run —
/// but counted, so operators can see the degradation in pool stats
/// ([`PoolStats::journal_errors`]) instead of discovering it at resume
/// time.
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
        let wire = event.to_value(seq);
        if let Some(journal) = &self.journal {
            if journal.lock().record(&wire).is_err() {
                self.journal_errors.fetch_add(1, Ordering::SeqCst);
            }
        }
        if let Some(log) = &self.log {
            log.append(wire);
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
    use crate::worker::terminal_event;

    fn data_event() -> Value {
        let mut v = Value::Null;
        v.set("type", "output").set("value", 1i64);
        v
    }

    #[test]
    fn page_is_honest_at_and_past_the_end() {
        let log = JobEventLog::new(false, 16, Duration::from_millis(10));
        for _ in 0..3 {
            log.append(data_event()); // seqs 0, 1, 2
        }
        // since == end_seq: empty page, cursor parked, stream open.
        let at_end = log.page(3);
        assert!(at_end.events.is_empty());
        assert_eq!(at_end.next, 3);
        assert!(!at_end.closed);
        // since == end_seq + 1: the cursor is preserved, never clamped
        // backwards (the old clamp handed back `next < since`, silently
        // re-folding duplicates) and never falsely closed.
        let past = log.page(4);
        assert!(past.events.is_empty());
        assert_eq!(past.next, 4, "cursor preserved, not clamped to the end");
        assert!(!past.closed, "closed must not be reported for events the client never saw");
        assert!(past.retained_epoch.is_none());

        log.close(terminal_event("done", None)); // seq 3; end_seq = 4
        let at_end = log.page(4);
        assert!(at_end.closed, "cursor at the end of a closed stream sees closure");
        assert_eq!(at_end.next, 4);
        let beyond = log.page(5);
        assert!(!beyond.closed, "a cursor past the end has unseen (non-existent) events");
        assert_eq!(beyond.next, 5);
        assert!(beyond.events.is_empty());
    }

    #[test]
    fn preload_honors_journal_seqs_and_tracks_epoch_marks() {
        let log = JobEventLog::new(true, 16, Duration::from_millis(10));
        let mut journaled: Vec<Value> = (0..4i64)
            .map(|i| {
                let mut v = data_event();
                v.set("seq", i);
                v
            })
            .collect();
        journaled.insert(2, {
            let mut v = RunEvent::Epoch { id: 1, state: Value::Null }.to_value(2);
            v.set("seq", 2i64);
            v
        });
        for (i, v) in journaled.iter_mut().enumerate() {
            v.set("seq", i as i64);
        }
        log.preload_journal(journaled);
        assert_eq!(log.window(), (0, 5));
        let page = log.page(0);
        let seqs: Vec<i64> = page.events.iter().filter_map(|e| e["seq"].as_i64()).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4], "recorded seqs honored");
        assert_eq!(log.inner.lock().epoch_marks.front(), Some(&(2, 1)), "epoch mark recovered");
        // Live appends continue the numbering.
        log.append(data_event());
        assert_eq!(log.page(5).events[0]["seq"].as_i64(), Some(5));
    }
}
