//! The engine worker pool: N [`ExecutionEngine`]s behind a bounded job
//! queue, so independent executions enact in parallel instead of queuing
//! on one `&mut engine`.
//!
//! The paper scales its serverless deployment by adding engine containers
//! (§3.3); this pool is the in-process equivalent. Each worker thread owns
//! a [`fork`](ExecutionEngine::fork) of the prototype engine — module
//! hosts are shared (one simulated service fleet per deployment), while
//! environments stay per-worker and staged resources per-run, so
//! concurrent tenants never observe each other's state.
//!
//! Admission control: the queue is bounded. A submission that finds the
//! queue full is rejected immediately ([`PoolError::QueueFull`], surfaced
//! as HTTP 429 by the server) instead of building unbounded backlog.

use crate::admission::RateLimiter;
use crate::engine::{ExecutionEngine, ExecutionOutput};
use crate::event_log::{JobEventLog, BACKPRESSURE_WAIT, EVENT_LOG_CAPACITY};
use crate::fair_queue::FairQueue;
use crate::jobs::{End, Jobs};
use crate::journal::{JournalError, JournalStore, ResumeData};
use crate::request::ExecutionRequest;
use crate::worker::worker_loop;
use laminar_dataflow::mapping::ResumePoint;
use laminar_dataflow::RunEvent;
use parking_lot::{Condvar, Mutex};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::event_log::EventPage;
pub use crate::jobs::{JobInfo, JobPhase, JobResult, PoolError, PoolStats};

pub(crate) struct PoolInner {
    /// Pending jobs, one lane per tenant, served round-robin.
    /// Lock order: `queue` before `jobs` when both are held.
    pub(crate) queue: Mutex<FairQueue>,
    /// Per-tenant token buckets (checked before the queue; no-op unless
    /// [`EnginePool::set_tenant_rate`] enabled them).
    pub(crate) rate: Mutex<RateLimiter>,
    /// All known jobs, their counters and retention. Lock order: `jobs`
    /// before a job's event log.
    pub(crate) jobs: Mutex<Jobs>,
    /// Workers wait here for queue items.
    pub(crate) work_cv: Condvar,
    /// Result waiters wait here (paired with `jobs`).
    pub(crate) done_cv: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) capacity: usize,
    /// Per-job epoch journals (durable pools only). Jobs with
    /// `checkpoint_every > 0` journal their event stream here and can be
    /// resumed across pool restarts.
    pub(crate) journal: Option<JournalStore>,
    pub(crate) next_id: AtomicI64,
    pub(crate) rejected: AtomicU64,
    pub(crate) rate_limited: AtomicU64,
    /// Journal I/O errors swallowed by job observers.
    pub(crate) journal_errors: Arc<AtomicU64>,
    /// Per-job event-log capacity for jobs submitted from now on
    /// (tests/benches shrink it to exercise the horizon policy without
    /// producing 8k+ events).
    pub(crate) event_log_capacity: AtomicUsize,
    /// Bounded backpressure wait (milliseconds) before a horizon log
    /// degrades, for jobs submitted from now on.
    pub(crate) backpressure_wait_ms: AtomicU64,
}

impl PoolInner {
    /// End job `id` from its worker: the journal takes the end's step
    /// first, outside the `jobs` lock and before any waiter can see the
    /// phase; then [`Jobs::settle`]; then result waiters wake.
    pub(crate) fn settle(&self, id: i64, end: End) {
        self.journal_end(id, &end);
        self.jobs.lock().settle(id, end);
        self.done_cv.notify_all();
    }

    /// The journal's half of a job's end.
    fn journal_end(&self, id: i64, end: &End) {
        let Some(journal) = &self.journal else { return };
        match end {
            // Kept for post-mortems and explicit resume, but flagged so
            // auto-resume skips a job that would just fail again.
            End::Failed(_) => journal.mark_failed(id),
            // Shutdown keeps it, so a restarted durable pool resumes the run.
            End::Cancelled if self.shutdown.load(Ordering::SeqCst) => {}
            // A completed job needs no recovery state; a user cancel
            // abandons it.
            _ => journal.remove(id),
        }
    }
}

/// A pool of engines serving jobs from a bounded queue.
pub struct EnginePool {
    inner: Arc<PoolInner>,
    hosts: crate::hosts::HostRegistry,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl EnginePool {
    /// Start `workers` engines forked from `prototype`, with a queue bound
    /// of `queue_capacity` jobs. No journal: checkpointed jobs still emit
    /// epochs, but nothing is persisted and jobs cannot be resumed.
    pub fn start(prototype: ExecutionEngine, workers: usize, queue_capacity: usize) -> EnginePool {
        Self::start_inner(prototype, workers, queue_capacity, None)
    }

    /// Start a *durable* pool: checkpointed jobs (`checkpoint_every > 0`)
    /// journal every epoch under `journal_root`, and any journals left
    /// behind by a previous pool — interrupted by [`EnginePool::stop`] or
    /// a crash — are automatically re-enqueued from their last complete
    /// epoch (journals flagged failed are kept for explicit
    /// [`EnginePool::resume_job`] but not auto-resumed, since a
    /// deterministic failure would just fail again).
    pub fn start_durable(
        prototype: ExecutionEngine,
        workers: usize,
        queue_capacity: usize,
        journal_root: &Path,
    ) -> Result<EnginePool, JournalError> {
        let journal = JournalStore::open(journal_root)?;
        let pending: Vec<i64> = journal
            .jobs()
            .into_iter()
            .filter(|(_, meta)| meta["failed"].as_bool() != Some(true))
            .map(|(id, _)| id)
            .collect();
        let pool = Self::start_inner(prototype, workers, queue_capacity, Some(journal));
        for id in pending {
            let journal = pool.inner.journal.as_ref().expect("durable pool has a journal");
            if let Some(data) = journal.load(id) {
                if let Err(e) = pool.enqueue_resume(id, data) {
                    eprintln!("journal: auto-resume of job {id} failed: {e}");
                }
            }
        }
        Ok(pool)
    }

    fn start_inner(
        prototype: ExecutionEngine,
        workers: usize,
        queue_capacity: usize,
        journal: Option<JournalStore>,
    ) -> EnginePool {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(FairQueue::new()),
            rate: Mutex::new(RateLimiter::new()),
            jobs: Mutex::new(Jobs::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            capacity: queue_capacity.max(1),
            journal,
            next_id: AtomicI64::new(1),
            rejected: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            journal_errors: Arc::new(AtomicU64::new(0)),
            event_log_capacity: AtomicUsize::new(EVENT_LOG_CAPACITY),
            backpressure_wait_ms: AtomicU64::new(BACKPRESSURE_WAIT.as_millis() as u64),
        });
        let hosts = prototype.hosts().clone();
        let handles = (0..workers)
            .map(|worker_id| {
                let engine = prototype.fork();
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("engine-worker-{worker_id}"))
                    .spawn(move || worker_loop(&inner, engine, worker_id))
                    .expect("spawn engine worker")
            })
            .collect();
        EnginePool { inner, hosts, workers: handles }
    }

    /// The shared module-host registry: module hosts registered here are
    /// seen by every pooled engine, from the next run each starts. Staged
    /// *resources* travel with each execution request into that run's own
    /// host, never through this handle.
    pub fn hosts(&self) -> &crate::hosts::HostRegistry {
        &self.hosts
    }

    /// Enqueue a job. Fails fast with [`PoolError::RateLimited`] when the
    /// tenant is over its token budget, or [`PoolError::QueueFull`] when
    /// the queue is at capacity (admission control).
    pub fn submit(&self, owner: &str, req: ExecutionRequest) -> Result<i64, PoolError> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(PoolError::ShutDown);
        }
        if let Err(retry_after_ms) = self.inner.rate.lock().try_take(owner) {
            self.inner.rate_limited.fetch_add(1, Ordering::SeqCst);
            return Err(PoolError::RateLimited { retry_after_ms });
        }
        self.enqueue(owner, None, req)
    }

    /// The one way a job enters the queue: fresh under the next id, or —
    /// `resumed` — under its original id with its log pre-filled from the
    /// journaled prefix. Refused with [`PoolError::QueueFull`] at capacity,
    /// and a resume of a job still queued, running or done is refused.
    fn enqueue(
        &self,
        owner: &str,
        resumed: Option<(i64, Vec<(u64, RunEvent)>)>,
        req: ExecutionRequest,
    ) -> Result<i64, PoolError> {
        let mut queue = self.inner.queue.lock();
        if queue.len() >= self.inner.capacity {
            self.inner.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(PoolError::QueueFull { capacity: self.inner.capacity });
        }
        // Checkpointed jobs get the horizon policy: their epochs give the
        // log something better than eviction to degrade to.
        let events = JobEventLog::new(
            req.run.checkpoint_every > 0,
            self.inner.event_log_capacity.load(Ordering::SeqCst),
            Duration::from_millis(self.inner.backpressure_wait_ms.load(Ordering::SeqCst)),
        );
        let id = match resumed {
            None => self.inner.next_id.fetch_add(1, Ordering::SeqCst),
            Some((id, journaled)) => {
                // Keep the id allocator ahead of resurrected ids so fresh
                // submissions never collide with a journaled job, and seed
                // the log at the recorded seqs so attempt-1 cursors stay
                // monotone across the resume.
                self.inner.next_id.fetch_max(id + 1, Ordering::SeqCst);
                events.preload_journal(journaled);
                id
            }
        };
        self.inner.jobs.lock().insert(id, owner, events, req.run.events)?;
        queue.push(owner, id, req);
        drop(queue);
        self.inner.work_cv.notify_one();
        Ok(id)
    }

    /// Enable per-tenant token-bucket rate limiting: each tenant accrues
    /// `per_sec` submissions per second up to a burst of `burst`. Applies
    /// to submissions from now on; resuming an already-admitted job is
    /// never rate limited. `per_sec <= 0` disables limiting again.
    pub fn set_tenant_rate(&self, per_sec: f64, burst: f64) {
        let mut rate = self.inner.rate.lock();
        rate.enabled = per_sec > 0.0;
        rate.per_sec = per_sec.max(0.0);
        rate.burst = burst.max(1.0);
        rate.buckets.clear();
    }

    /// How long a queue-full rejectee should plausibly wait before
    /// retrying, from live queue depth and observed mean job runtime:
    /// `queued × mean_run_ms / workers`, clamped to [25ms, 10s]. Crude,
    /// but it scales with actual saturation instead of being a constant.
    pub fn queue_retry_hint_ms(&self) -> u64 {
        let queued = self.inner.queue.lock().len() as u64;
        let mean_run_ms = self.inner.jobs.lock().mean_run_ms().map_or(25, |mean| mean.max(1));
        (queued.max(1) * mean_run_ms / self.workers.len().max(1) as u64).clamp(25, 10_000)
    }

    /// Override the per-job event-log capacity for jobs submitted after
    /// the call (the checkpoint horizon for checkpointed jobs). Tests
    /// shrink it to exercise the retention policy without producing tens
    /// of thousands of events.
    pub fn set_event_log_capacity(&self, capacity: usize) {
        self.inner.event_log_capacity.store(capacity.max(1), Ordering::SeqCst);
    }

    /// Override the bounded backpressure wait for jobs submitted after
    /// the call: how long a throttled producer parks on a full horizon
    /// log before presuming the consumer dead and degrading to
    /// epoch-granularity eviction.
    pub fn set_backpressure_wait(&self, wait: Duration) {
        self.inner.backpressure_wait_ms.store(wait.as_millis() as u64, Ordering::SeqCst);
    }

    /// The retained event window of a job's log as `(first, end)`
    /// sequence numbers — `end - first` events are in memory. `None` when
    /// the id is unknown or owned by someone else. Observability for the
    /// horizon policy: the slow-consumer gates assert `end - first` stays
    /// bounded by the configured capacity (plus one producer burst).
    pub fn event_log_window(&self, owner: &str, id: i64) -> Option<(u64, u64)> {
        let log = Arc::clone(&self.inner.jobs.lock().get(owner, id)?.events);
        Some(log.window())
    }

    /// Current view of a job. `None` when the id is unknown or owned by
    /// someone else (tenants cannot observe each other's jobs).
    pub fn status(&self, owner: &str, id: i64) -> Option<JobInfo> {
        Some(self.inner.jobs.lock().get(owner, id)?.info(id))
    }

    /// Poll a job for its result.
    pub fn result(&self, owner: &str, id: i64) -> Option<JobResult> {
        Some(self.inner.jobs.lock().get(owner, id)?.result(id))
    }

    /// Block until the job finishes or `timeout` passes; returns the
    /// latest view ([`JobResult::Pending`] on timeout).
    pub fn wait(&self, owner: &str, id: i64, timeout: Duration) -> Option<JobResult> {
        let deadline = Instant::now() + timeout;
        let mut jobs = self.inner.jobs.lock();
        loop {
            let rec = jobs.get(owner, id)?;
            if rec.info(id).is_finished() || Instant::now() >= deadline {
                return Some(rec.result(id));
            }
            self.inner.done_cv.wait_until(&mut jobs, deadline);
        }
    }

    /// The synchronous path: submit and wait to completion. The existing
    /// blocking endpoint is a thin wrapper over this. The output is the
    /// one the job's retained record shares, not a copy of it.
    pub fn run_sync(&self, owner: &str, req: ExecutionRequest) -> Result<Arc<ExecutionOutput>, PoolError> {
        let id = self.submit(owner, req)?;
        // Generous bound: a job that takes this long is lost anyway.
        match self.wait(owner, id, Duration::from_secs(24 * 3600)) {
            Some(JobResult::Done(out, _)) => Ok(out),
            Some(JobResult::Failed(msg, _)) => Err(PoolError::Failed(msg)),
            Some(JobResult::Cancelled(_)) => Err(PoolError::Cancelled(id)),
            Some(JobResult::Pending(_)) | None => Err(PoolError::Unknown(id)),
        }
    }

    /// Request cancellation of a job (the `DELETE .../job/{id}` path).
    /// Idempotent:
    ///
    /// * **queued** — the job is cancelled on the spot: terminal
    ///   [`JobPhase::Cancelled`], event log sealed with the `cancelled`
    ///   marker, queue slot released; it will never run.
    /// * **running** — the job's [`crate::CancelToken`] fires; the enactment
    ///   stops cooperatively at its next invocation boundary and the
    ///   worker commits the `Cancelled` phase (poll `status` to observe
    ///   it). A run that finishes before noticing stays `done`.
    /// * **finished** (done/failed/cancelled) — a no-op.
    ///
    /// Returns the job's post-request view, or `None` when the id is
    /// unknown or owned by someone else.
    pub fn cancel(&self, owner: &str, id: i64) -> Option<JobInfo> {
        let (info, settled) = self.inner.jobs.lock().cancel(owner, id)?;
        if settled {
            // Free the queue slot (admission control) — a worker that
            // popped the job concurrently finds it no longer queued.
            self.inner.queue.lock().remove(id);
            // An explicit cancel abandons the job's journal too (a queued
            // resumed job still has one from its interrupted run).
            self.inner.journal_end(id, &End::Cancelled);
            self.inner.done_cv.notify_all();
        }
        Some(info)
    }

    /// A page of a job's sequenced event log starting at cursor `since`.
    /// `None` when the id is unknown or owned by someone else. Jobs
    /// submitted without `events=true` log only the terminal marker.
    pub fn events(&self, owner: &str, id: i64, since: u64) -> Option<EventPage> {
        self.events_wait(owner, id, since, Duration::ZERO)
    }

    /// Long-poll variant of [`EnginePool::events`]: when the page at
    /// `since` would be empty and the log is still open, park on the
    /// log's condvar until something lands past the cursor, the stream
    /// seals (done/failed/cancelled — including via [`EnginePool::stop`]),
    /// or `wait` elapses. `wait = 0` is byte-identical to a plain poll.
    /// No job lock is held while parked — only the per-job log's. The
    /// events are the parse of [`EnginePool::events_text_wait`]'s page.
    pub fn events_wait(&self, owner: &str, id: i64, since: u64, wait: Duration) -> Option<EventPage> {
        Some(self.events_text_wait(owner, id, since, wait)?.parsed())
    }

    /// [`EnginePool::events_wait`] for a caller that sends the page on as
    /// JSON: `events` is the text of the page's JSON array, written from
    /// the typed log with no `Value` built per event. The `/events` route
    /// reads this.
    pub fn events_text_wait(
        &self,
        owner: &str,
        id: i64,
        since: u64,
        wait: Duration,
    ) -> Option<EventPage<String>> {
        let log = Arc::clone(&self.inner.jobs.lock().get(owner, id)?.events);
        Some(log.page_wait(since, wait))
    }

    /// Resume an interrupted checkpointed job from its journal (the
    /// `POST .../job/{id}/resume` path). The job is re-enqueued **under
    /// its original id** with its event log pre-filled from the journaled
    /// prefix, so existing `/events` cursors stay valid; enactment
    /// restarts from the last complete epoch's snapshots and re-executes
    /// only the partial round after it.
    ///
    /// Fails with [`PoolError::Unknown`] when the pool has no journal,
    /// the job was never journaled (or already completed and was cleaned
    /// up), or the owner does not match. A job currently queued, running
    /// or done in *this* pool is refused (`Jobs::insert` will not replace
    /// its record) — resume is for interrupted jobs.
    pub fn resume_job(&self, owner: &str, id: i64) -> Result<i64, PoolError> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(PoolError::ShutDown);
        }
        let journal = self.inner.journal.as_ref().ok_or(PoolError::Unknown(id))?;
        let data = journal.load(id).ok_or(PoolError::Unknown(id))?;
        if data.meta["owner"].as_str() != Some(owner) {
            return Err(PoolError::Unknown(id));
        }
        self.enqueue_resume(id, data)
    }

    /// Re-enqueue a journaled job under its original id.
    fn enqueue_resume(&self, id: i64, data: ResumeData) -> Result<i64, PoolError> {
        let mut req = ExecutionRequest::from_value(&data.meta["request"])
            .ok_or_else(|| PoolError::Failed(format!("job {id}: corrupt journal meta")))?;
        let owner = data.meta["owner"].as_str().unwrap_or("anonymous");
        let replayed = data.events.iter().map(|(_, event)| event.clone()).collect();
        req.resume = Some(ResumePoint { epoch: data.epoch, snapshots: data.snapshots, events: replayed });
        self.enqueue(owner, Some((id, data.events)), req)
    }

    /// Deterministic shutdown: every job still queued is *cancelled*
    /// (never silently dropped, never run) with its event log sealed by
    /// the `cancelled` marker; in-flight jobs get their cancel token
    /// fired, so even unbounded streaming enactments wind down at their
    /// next invocation boundary (short bounded jobs typically complete
    /// first and stay `done`); all worker threads are joined. Idempotent
    /// — [`Drop`] calls this too.
    pub fn stop(&mut self) {
        // Set the flag under the queue lock: a worker checks it and parks
        // on `work_cv` under that lock, so a flag set between the two would
        // miss the notify below and leave the join waiting forever. Jobs no
        // worker picked are cancelled; one popped before the flag landed
        // terminates through its token — every submitted job reaches a
        // terminal phase.
        let orphaned: Vec<i64> = {
            let mut queue = self.inner.queue.lock();
            self.inner.shutdown.store(true, Ordering::SeqCst);
            queue.drain()
        };
        self.inner.work_cv.notify_all();
        {
            let mut jobs = self.inner.jobs.lock();
            // An orphan a racing `cancel` already settled is left alone.
            // Shutdown keeps the orphans' journals: nothing for the journal
            // to do.
            for id in orphaned {
                jobs.settle(id, End::Cancelled);
            }
            // Fire in-flight tokens so the join below terminates even when
            // a worker is running an unbounded (run-until-cancelled) job —
            // or has popped one it has not started yet.
            jobs.interrupt_unfinished();
        }
        self.inner.done_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> PoolStats {
        let (queued, queued_tenants) = {
            let queue = self.inner.queue.lock();
            (queue.len(), queue.tenants())
        };
        PoolStats {
            workers: self.workers.len(),
            capacity: self.inner.capacity,
            queued,
            rejected: self.inner.rejected.load(Ordering::SeqCst),
            rate_limited: self.inner.rate_limited.load(Ordering::SeqCst),
            queued_tenants,
            journal_errors: self.inner.journal_errors.load(Ordering::SeqCst),
            ..self.inner.jobs.lock().counts()
        }
    }
}

impl Drop for EnginePool {
    /// Deterministic shutdown — see [`EnginePool::stop`].
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_log::JobObserver;
    use crate::jobs::{RETAIN_FINISHED, RETAIN_STREAMED_LOGS};
    use crate::request::RunConfig;
    use laminar_dataflow::{CancelToken, FaultPlan, RunEvent, RunObserver};
    use laminar_json::Value;

    const WF_SRC: &str = r#"
        pe Seq : producer { output output; process { emit(iteration + 1); } }
        pe Sq : iterative { input num; output output; process { emit(num * num); } }
        workflow Squares {
            nodes { s = Seq; q = Sq; }
            connect s.output -> q.num;
        }
    "#;

    fn instant_pool(workers: usize, capacity: usize) -> EnginePool {
        EnginePool::start(ExecutionEngine::instant(), workers, capacity)
    }

    #[test]
    fn submit_wait_roundtrip() {
        let pool = instant_pool(2, 16);
        let id = pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 4)).unwrap();
        match pool.wait("u", id, Duration::from_secs(10)).unwrap() {
            JobResult::Done(out, info) => {
                assert_eq!(out.port_values("Sq", "output").len(), 4);
                assert_eq!(info.phase, JobPhase::Done);
                assert!(info.worker.is_some());
                assert_eq!(out.worker, info.worker, "metrics threaded into the output");
            }
            other => panic!("expected Done, got {other:?}"),
        }
        let stats = pool.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn run_sync_matches_direct_engine() {
        let pool = instant_pool(3, 16);
        let direct = ExecutionEngine::instant().run(&ExecutionRequest::simple("u", WF_SRC, 6)).unwrap();
        let pooled = pool.run_sync("u", ExecutionRequest::simple("u", WF_SRC, 6)).unwrap();
        assert_eq!(pooled.port_values("Sq", "output"), direct.port_values("Sq", "output"));
        assert_eq!(pooled.processed, direct.processed);
        assert!(pooled.overhead_report().contains("enact"));
    }

    #[test]
    fn run_sync_hands_over_the_retained_output_uncopied() {
        let pool = instant_pool(1, 4);
        let out = pool.run_sync("u", ExecutionRequest::simple("u", WF_SRC, 3)).unwrap();
        match pool.result("u", 1) {
            Some(JobResult::Done(retained, _)) => assert!(Arc::ptr_eq(&out, &retained)),
            other => panic!("job 1 should be done: {other:?}"),
        }
    }

    #[test]
    fn failed_execution_reported() {
        let pool = instant_pool(1, 4);
        let err = pool.run_sync("u", ExecutionRequest::simple("u", "not a script !!", 1)).unwrap_err();
        assert!(matches!(err, PoolError::Failed(_)), "{err}");
        assert_eq!(pool.stats().failed, 1);
    }

    #[test]
    fn admission_control_rejects_when_full() {
        // One slow worker, queue bound 1: the first job occupies the
        // worker, the second fills the queue, the third is rejected.
        let engine = ExecutionEngine::instant().with_provision_scale(500);
        let pool = EnginePool::start(engine, 1, 1);
        let first = pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)).unwrap();
        // Give the worker a moment to pick the first job so the queue
        // bound applies to the jobs behind it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.status("u", first).unwrap().phase == JobPhase::Queued && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let _second = pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)).unwrap();
        let third = pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 1));
        assert_eq!(third, Err(PoolError::QueueFull { capacity: 1 }));
        assert_eq!(pool.stats().rejected, 1);
    }

    #[test]
    fn tenant_isolation_on_job_ids() {
        let pool = instant_pool(1, 8);
        let id = pool.submit("alice", ExecutionRequest::simple("alice", WF_SRC, 2)).unwrap();
        assert!(pool.status("mallory", id).is_none(), "other tenants cannot observe the job");
        assert!(pool.result("mallory", id).is_none());
        assert!(pool.wait("mallory", id, Duration::from_millis(10)).is_none());
        assert!(pool.wait("alice", id, Duration::from_secs(10)).is_some());
    }

    #[test]
    fn parallel_jobs_overlap_on_sleeping_engines() {
        // Provisioning sleeps ~40ms per cold run (scale 100). Four jobs on
        // four workers should take roughly one provisioning time, not
        // four — even on a single CPU, sleeps overlap.
        let engine = ExecutionEngine::instant().with_provision_scale(100);
        let serial = {
            let pool = EnginePool::start(engine.fork(), 1, 16);
            let t0 = Instant::now();
            for _ in 0..4 {
                pool.run_sync("u", ExecutionRequest::simple("u", WF_SRC, 1)).unwrap();
            }
            t0.elapsed()
        };
        let pool = EnginePool::start(engine, 4, 16);
        let t0 = Instant::now();
        let ids: Vec<i64> =
            (0..4).map(|_| pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)).unwrap()).collect();
        for id in ids {
            match pool.wait("u", id, Duration::from_secs(30)).unwrap() {
                JobResult::Done(out, _) => assert!(
                    out.queue_wait <= t0.elapsed(),
                    "queue wait {:?} exceeds wall clock",
                    out.queue_wait
                ),
                other => panic!("expected Done, got {other:?}"),
            }
        }
        let parallel = t0.elapsed();
        assert!(
            parallel * 2 < serial,
            "4 workers should beat 1 worker by >2x on sleep-bound jobs: {parallel:?} vs {serial:?}"
        );
    }

    #[test]
    fn unknown_job_is_none() {
        let pool = instant_pool(1, 4);
        assert!(pool.status("u", 999).is_none());
        assert!(pool.result("u", 999).is_none());
        assert!(pool.wait("u", 999, Duration::from_millis(5)).is_none());
        assert!(pool.events("u", 999, 0).is_none());
    }

    #[test]
    fn streamed_job_logs_cursor_addressable_events() {
        let pool = instant_pool(1, 8);
        let id = pool
            .submit("u", ExecutionRequest::new("u", WF_SRC, RunConfig::iterations(4).with_events(true)))
            .unwrap();
        pool.wait("u", id, Duration::from_secs(10)).unwrap();
        // Page from the start: plan, started×N, outputs, instance_done×N,
        // finished, done.
        let page = pool.events("u", id, 0).unwrap();
        assert!(page.closed);
        assert_eq!(page.first, 0);
        let types: Vec<&str> = page.events.iter().filter_map(|e| e["type"].as_str()).collect();
        assert_eq!(types.first(), Some(&"plan"));
        assert_eq!(types.last(), Some(&"done"));
        assert!(types.contains(&"output"));
        assert!(types.iter().filter(|t| **t == "instance_done").count() >= 2);
        let outputs = types.iter().filter(|t| **t == "output").count();
        assert_eq!(outputs, 4, "Sq's terminal port saw every datum");
        // Sequence numbers are contiguous from 0.
        for (i, e) in page.events.iter().enumerate() {
            assert_eq!(e["seq"].as_i64(), Some(i as i64));
        }
        // Cursor addressing: resume mid-stream, then past the end.
        let mid = pool.events("u", id, page.next - 2).unwrap();
        assert_eq!(mid.events.len(), 2);
        assert!(mid.closed);
        let done = pool.events("u", id, page.next).unwrap();
        assert!(done.events.is_empty());
        assert!(done.closed);
        // Tenant isolation covers the event log too.
        assert!(pool.events("mallory", id, 0).is_none());
    }

    #[test]
    fn unstreamed_job_logs_only_the_terminal_marker() {
        let pool = instant_pool(1, 8);
        let id = pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 3)).unwrap();
        pool.wait("u", id, Duration::from_secs(10)).unwrap();
        let page = pool.events("u", id, 0).unwrap();
        assert!(page.closed);
        let types: Vec<&str> = page.events.iter().filter_map(|e| e["type"].as_str()).collect();
        assert_eq!(types, vec!["done"]);
    }

    #[test]
    fn failed_job_stream_ends_with_failed_marker() {
        let pool = instant_pool(1, 4);
        let id = pool
            .submit(
                "u",
                ExecutionRequest::new("u", "not a script !!", RunConfig::iterations(1).with_events(true)),
            )
            .unwrap();
        match pool.wait("u", id, Duration::from_secs(10)).unwrap() {
            JobResult::Failed(..) => {}
            other => panic!("expected Failed, got {other:?}"),
        }
        let page = pool.events("u", id, 0).unwrap();
        assert!(page.closed);
        let last = page.events.last().unwrap();
        assert_eq!(last["type"].as_str(), Some("failed"));
        assert!(last["error"].as_str().is_some());
    }

    #[test]
    fn old_finished_streamed_logs_expire_but_stay_cursor_honest() {
        // One more streamed job than the log-retention bound: the oldest
        // job's events are expired (memory released) while its record,
        // terminal phase and truncation-honest cursor survive.
        let pool = instant_pool(1, RETAIN_STREAMED_LOGS + 8);
        let src = "pe G : producer { output o; process { emit(1); } }";
        let first = pool
            .submit("u", ExecutionRequest::new("u", src, RunConfig::iterations(1).with_events(true)))
            .unwrap();
        pool.wait("u", first, Duration::from_secs(10)).unwrap();
        let before = pool.events("u", first, 0).unwrap();
        assert!(!before.events.is_empty(), "fresh log is replayable");
        for _ in 0..RETAIN_STREAMED_LOGS {
            let id = pool
                .submit("u", ExecutionRequest::new("u", src, RunConfig::iterations(1).with_events(true)))
                .unwrap();
            pool.wait("u", id, Duration::from_secs(10)).unwrap();
        }
        // Expiry runs just after the terminal phase is committed (the
        // wait can return first) — poll briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        let after = loop {
            let page = pool.events("u", first, 0).unwrap();
            if page.events.is_empty() || Instant::now() >= deadline {
                break page;
            }
            std::thread::yield_now();
        };
        assert!(after.events.is_empty(), "expired log dropped its events");
        assert!(after.first >= before.next, "seq bookkeeping kept: cursor clients see truncation");
        assert!(after.closed, "terminal state survives expiry");
        assert!(pool.status("u", first).unwrap().is_finished(), "job record still pollable");
    }

    #[test]
    fn stop_cancels_queued_jobs_and_joins_workers() {
        // One slow worker and a deep queue: at stop() time most jobs are
        // still queued. Every one must reach a terminal phase — the
        // in-flight job completes (or notices the shutdown token and
        // cancels), the queued ones are *cancelled* with their streams
        // sealed by the `cancelled` marker — and stop() must return with
        // all workers joined, never hang.
        let engine = ExecutionEngine::instant().with_provision_scale(500);
        let mut pool = EnginePool::start(engine, 1, 16);
        let ids: Vec<i64> = (0..6)
            .map(|_| {
                pool.submit(
                    "u",
                    ExecutionRequest::new("u", WF_SRC, RunConfig::iterations(1).with_events(true)),
                )
                .unwrap()
            })
            .collect();
        // Wait until the worker picked the first job.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.status("u", ids[0]).unwrap().phase == JobPhase::Queued && Instant::now() < deadline {
            std::thread::yield_now();
        }
        pool.stop();
        let mut done = 0;
        let mut cancelled = 0;
        for &id in &ids {
            let info = pool.status("u", id).expect("record survives stop");
            match info.phase {
                JobPhase::Done => done += 1,
                JobPhase::Cancelled => {
                    cancelled += 1;
                    assert!(info.error.is_none(), "cancellation is not a failure");
                    // The event stream is sealed with the cancelled
                    // marker — exactly one.
                    let page = pool.events("u", id, 0).unwrap();
                    assert!(page.closed);
                    assert_eq!(page.events.last().unwrap()["type"].as_str(), Some("cancelled"));
                    let markers =
                        page.events.iter().filter(|e| e["type"].as_str() == Some("cancelled")).count();
                    assert_eq!(markers, 1, "exactly one terminal marker");
                }
                other => panic!("job {id} left non-terminal: {other:?}"),
            }
        }
        assert_eq!(done + cancelled, 6, "every job terminal");
        assert!(cancelled >= 4, "most jobs were still queued: {done} done / {cancelled} cancelled");
        assert!(pool.stats().cancelled >= 4);
        // After stop, the pool refuses new work instead of hanging it.
        assert_eq!(pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)), Err(PoolError::ShutDown));
        // Idempotent.
        pool.stop();
    }

    #[test]
    fn drop_with_queued_jobs_never_hangs() {
        let engine = ExecutionEngine::instant().with_provision_scale(300);
        let pool = EnginePool::start(engine, 2, 32);
        for _ in 0..8 {
            pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)).unwrap();
        }
        let t0 = Instant::now();
        drop(pool);
        // Drop fails the backlog instead of draining it: bounded by the
        // in-flight jobs only (~120ms of simulated provisioning each).
        assert!(t0.elapsed() < Duration::from_secs(5), "drop took {:?}", t0.elapsed());
    }

    #[test]
    fn waiters_wake_when_shutdown_fails_their_job() {
        let engine = ExecutionEngine::instant().with_provision_scale(500);
        let pool = Arc::new(Mutex::new(Some(EnginePool::start(engine, 1, 16))));
        let ids: Vec<i64> = {
            let guard = pool.lock();
            let p = guard.as_ref().unwrap();
            (0..4).map(|_| p.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)).unwrap()).collect()
        };
        // A thread blocked in wait() on the *last* queued job must return
        // promptly once stop() fails it.
        let waiter = {
            let pool = Arc::clone(&pool);
            let last = *ids.last().unwrap();
            std::thread::spawn(move || {
                // Re-lock per poll so stop() can proceed concurrently.
                loop {
                    let guard = pool.lock();
                    let p = guard.as_ref()?;
                    match p.wait("u", last, Duration::from_millis(20)) {
                        Some(JobResult::Pending(_)) => continue,
                        terminal => return terminal,
                    }
                }
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        pool.lock().as_mut().unwrap().stop();
        match waiter.join().unwrap() {
            Some(JobResult::Cancelled(info)) => assert!(info.is_finished()),
            Some(JobResult::Done(..)) => {} // the worker got to it first
            other => panic!("waiter saw {other:?}"),
        }
    }

    #[test]
    fn cancel_queued_job_is_terminal_sealed_and_frees_the_queue_slot() {
        // One slow worker, queue bound 1: the first job occupies the
        // worker, the second fills the queue. Cancelling the queued job
        // must terminate it without running it AND release the slot for
        // a new submission.
        let engine = ExecutionEngine::instant().with_provision_scale(500);
        let pool = EnginePool::start(engine, 1, 1);
        let first = pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.status("u", first).unwrap().phase == JobPhase::Queued && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let queued = pool
            .submit("u", ExecutionRequest::new("u", WF_SRC, RunConfig::iterations(1).with_events(true)))
            .unwrap();
        let info = pool.cancel("u", queued).expect("own job");
        assert_eq!(info.phase, JobPhase::Cancelled);
        assert!(info.error.is_none());
        let page = pool.events("u", queued, 0).unwrap();
        assert!(page.closed);
        let types: Vec<&str> = page.events.iter().filter_map(|e| e["type"].as_str()).collect();
        assert_eq!(types, vec!["cancelled"], "never ran: only the terminal marker");
        // A waiter observes the terminal phase immediately.
        match pool.wait("u", queued, Duration::from_secs(5)).unwrap() {
            JobResult::Cancelled(info) => assert_eq!(info.phase, JobPhase::Cancelled),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The queue slot is free again.
        assert!(pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)).is_ok());
        assert_eq!(pool.stats().cancelled, 1);
        // Idempotent: a second cancel is a no-op on a terminal job.
        assert_eq!(pool.cancel("u", queued).unwrap().phase, JobPhase::Cancelled);
        assert_eq!(pool.stats().cancelled, 1);
    }

    #[test]
    fn cancel_running_unbounded_job_stops_it_mid_stream() {
        let pool = instant_pool(1, 4);
        let req = ExecutionRequest::new("u", WF_SRC, RunConfig::unbounded(Duration::from_micros(200)));
        let id = pool.submit("u", req).unwrap();
        // Wait until the stream proves the job is producing.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let page = pool.events("u", id, 0).unwrap();
            if page.events.iter().any(|e| e["type"].as_str() == Some("output")) {
                break;
            }
            assert!(Instant::now() < deadline, "unbounded job never produced");
            std::thread::sleep(Duration::from_millis(1));
        }
        let info = pool.cancel("u", id).expect("own job");
        assert!(matches!(info.phase, JobPhase::Running | JobPhase::Cancelled), "{:?}", info.phase);
        // The cooperative stop commits the terminal phase shortly after.
        match pool.wait("u", id, Duration::from_secs(20)).unwrap() {
            JobResult::Cancelled(info) => {
                assert_eq!(info.phase, JobPhase::Cancelled);
                assert!(info.error.is_none());
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The sealed stream: data prefix, then exactly one cancelled marker.
        let mut since = 0;
        let mut types: Vec<String> = Vec::new();
        loop {
            let page = pool.events("u", id, since).unwrap();
            types.extend(page.events.iter().filter_map(|e| e["type"].as_str().map(str::to_string)));
            since = page.next;
            if page.closed && page.events.is_empty() {
                break;
            }
        }
        assert_eq!(types.last().map(String::as_str), Some("cancelled"));
        assert_eq!(types.iter().filter(|t| *t == "cancelled").count(), 1);
        assert!(types.iter().any(|t| t == "output"), "the prefix carries real data");
        assert!(!types.iter().any(|t| t == "finished" || t == "done"), "cancel is not completion");
        assert_eq!(pool.stats().cancelled, 1);
        // The record stays pollable after cancellation.
        assert!(pool.status("u", id).unwrap().is_finished());
    }

    #[test]
    fn cancel_wakes_a_producer_parked_on_a_full_horizon_log() {
        let pool = instant_pool(1, 4);
        let capacity = 16;
        pool.set_event_log_capacity(capacity);
        pool.set_backpressure_wait(Duration::from_secs(30));
        let req = ExecutionRequest::new(
            "u",
            WF_SRC,
            RunConfig::unbounded(Duration::from_micros(100)).with_checkpoints(4),
        );
        let id = pool.submit("u", req).unwrap();
        // Nobody reads. Once the log is over its horizon the producer parks
        // at its next source iteration, and the window stops moving.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut last = (0, 0);
        loop {
            let window = pool.event_log_window("u", id).unwrap();
            if (window.1 - window.0) as usize > capacity && window == last {
                break;
            }
            last = window;
            assert!(Instant::now() < deadline, "the producer never filled its log");
            std::thread::sleep(Duration::from_millis(20));
        }
        let cancelled_at = Instant::now();
        pool.cancel("u", id).expect("own job");
        match pool.wait("u", id, Duration::from_secs(20)).unwrap() {
            JobResult::Cancelled(_) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let took = cancelled_at.elapsed();
        assert!(took < Duration::from_millis(100), "cancel must wake the park, not wait it out: {took:?}");
        assert_eq!(pool.event_log_window("u", id).unwrap().0, 0, "parked, never degraded: nothing evicted");
    }

    #[test]
    fn cancel_is_tenant_isolated_and_idempotent_on_finished_jobs() {
        let pool = instant_pool(1, 8);
        let id = pool.submit("alice", ExecutionRequest::simple("alice", WF_SRC, 2)).unwrap();
        pool.wait("alice", id, Duration::from_secs(10)).unwrap();
        // Another tenant cannot cancel (or even observe) the job.
        assert!(pool.cancel("mallory", id).is_none());
        assert!(pool.cancel("u", 999).is_none());
        // Cancelling a finished job is a no-op that reports the phase.
        let info = pool.cancel("alice", id).unwrap();
        assert_eq!(info.phase, JobPhase::Done);
        assert_eq!(pool.stats().cancelled, 0);
        match pool.result("alice", id).unwrap() {
            JobResult::Done(..) => {}
            other => panic!("done job unaffected by late cancel, got {other:?}"),
        }
    }

    /// A workflow whose downstream PE carries every kind of resumable
    /// state (group-by tallies, a running scalar, the PRNG stream) — if a
    /// resume loses any of it, the outputs diverge from the batch run.
    const STATEFUL_SRC: &str = r#"
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
        workflow TallyRun {
            nodes { w = Words; t = Tally; }
            connect w.output -> t.input;
        }
    "#;

    fn journal_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("laminar-pool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_pool_resumes_a_killed_job_and_refolds_to_batch() {
        let dir = journal_dir("refold");
        let pool = EnginePool::start_durable(ExecutionEngine::instant(), 2, 16, &dir).unwrap();
        let req = ExecutionRequest::new("u", STATEFUL_SRC, RunConfig::iterations(10).with_checkpoints(3))
            .with_faults(FaultPlan::parse("kill_at_epoch=2"));
        let id = pool.submit("u", req).unwrap();
        match pool.wait("u", id, Duration::from_secs(20)).unwrap() {
            JobResult::Failed(message, info) => {
                assert!(message.contains("injected"), "{message}");
                assert_eq!(info.phase, JobPhase::Failed);
            }
            other => panic!("expected the injected kill, got {other:?}"),
        }
        // The crash left a journal behind, flagged failed so auto-resume
        // skips it; explicit resume is still allowed.
        assert!(dir.join(format!("job-{id}")).exists());
        let resumed = pool.resume_job("u", id).unwrap();
        assert_eq!(resumed, id, "resume keeps the original job id");
        let out = match pool.wait("u", id, Duration::from_secs(20)).unwrap() {
            JobResult::Done(out, _) => out,
            other => panic!("expected the resumed job to finish, got {other:?}"),
        };
        // Refold identity: the resumed run's outputs equal a plain batch
        // enactment of the same request (state, rng and tallies survived).
        let batch = ExecutionEngine::instant().run(&ExecutionRequest::simple("u", STATEFUL_SRC, 10)).unwrap();
        assert_eq!(out.port_values("Tally", "output"), batch.port_values("Tally", "output"));
        assert_eq!(out.processed, batch.processed);
        assert_eq!(out.emitted, batch.emitted);
        // Completion cleans the journal up.
        assert!(!dir.join(format!("job-{id}")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_and_restart_auto_resumes_an_interrupted_unbounded_job() {
        let dir = journal_dir("restart");
        let engine = ExecutionEngine::instant();
        let mut pool = EnginePool::start_durable(engine.fork(), 1, 8, &dir).unwrap();
        let req = ExecutionRequest::new(
            "u",
            STATEFUL_SRC,
            RunConfig::unbounded(Duration::from_micros(200)).with_checkpoints(4),
        );
        let id = pool.submit("u", req).unwrap();
        // Let the run cross at least one epoch so there is a snapshot to
        // resume from, then shut the pool down mid-stream.
        let deadline = Instant::now() + Duration::from_secs(20);
        let journaled_epochs = loop {
            let page = pool.events("u", id, 0).unwrap();
            let epochs = page.events.iter().filter(|e| e["type"].as_str() == Some("epoch")).count();
            if epochs >= 1 {
                break epochs;
            }
            assert!(Instant::now() < deadline, "unbounded job never reached an epoch");
            std::thread::sleep(Duration::from_millis(1));
        };
        pool.stop();
        // Shutdown keeps the journal: the job was interrupted, not
        // abandoned.
        assert!(dir.join(format!("job-{id}")).exists());

        // A fresh durable pool over the same root resumes it unasked,
        // under its original id, with the journaled prefix replayed into
        // the event log.
        let pool2 = EnginePool::start_durable(engine.fork(), 1, 8, &dir).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let page = pool2.events("u", id, 0).expect("resumed job is visible under its old id");
            let epochs = page.events.iter().filter(|e| e["type"].as_str() == Some("epoch")).count();
            if epochs > journaled_epochs {
                break;
            }
            assert!(Instant::now() < deadline, "resumed job never progressed past the journal");
            std::thread::sleep(Duration::from_millis(1));
        }
        // New submissions never collide with the resurrected id.
        let fresh = pool2.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)).unwrap();
        assert!(fresh > id);
        // Cancelling the resumed job is a user action: the journal goes.
        pool2.cancel("u", id).expect("own job");
        match pool2.wait("u", id, Duration::from_secs(20)).unwrap() {
            JobResult::Cancelled(_) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while dir.join(format!("job-{id}")).exists() {
            assert!(Instant::now() < deadline, "cancel left the journal behind");
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_unknown_foreign_and_live_jobs() {
        // A pool without a journal cannot resume anything.
        let plain = instant_pool(1, 4);
        assert_eq!(plain.resume_job("u", 1), Err(PoolError::Unknown(1)));

        let dir = journal_dir("reject");
        let pool = EnginePool::start_durable(ExecutionEngine::instant(), 1, 8, &dir).unwrap();
        assert_eq!(pool.resume_job("u", 42), Err(PoolError::Unknown(42)), "no journal on disk");
        let req = ExecutionRequest::new("alice", STATEFUL_SRC, RunConfig::iterations(8).with_checkpoints(3))
            .with_faults(FaultPlan::parse("kill_at_epoch=1"));
        let id = pool.submit("alice", req).unwrap();
        match pool.wait("alice", id, Duration::from_secs(20)).unwrap() {
            JobResult::Failed(..) => {}
            other => panic!("expected the injected kill, got {other:?}"),
        }
        // Tenant isolation mirrors every other job endpoint.
        assert_eq!(pool.resume_job("mallory", id), Err(PoolError::Unknown(id)));
        // A completed job's journal is removed, so resume finds nothing.
        let done = pool
            .submit(
                "u",
                ExecutionRequest::new("u", STATEFUL_SRC, RunConfig::iterations(6).with_checkpoints(3)),
            )
            .unwrap();
        match pool.wait("u", done, Duration::from_secs(20)).unwrap() {
            JobResult::Done(..) => {}
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(pool.resume_job("u", done), Err(PoolError::Unknown(done)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_resumes_of_one_job_run_it_once() {
        let dir = journal_dir("race");
        let pool = EnginePool::start_durable(ExecutionEngine::instant(), 2, 16, &dir).unwrap();
        let run = RunConfig::iterations(40).with_checkpoints(3).with_events(true);
        let req =
            ExecutionRequest::new("u", STATEFUL_SRC, run).with_faults(FaultPlan::parse("kill_at_epoch=4"));
        let id = pool.submit("u", req).unwrap();
        match pool.wait("u", id, Duration::from_secs(20)).unwrap() {
            JobResult::Failed(..) => {}
            other => panic!("expected the injected kill, got {other:?}"),
        }
        // Eight `POST .../resume` of the killed job at once.
        let gate = std::sync::Barrier::new(8);
        let answers: Vec<Result<i64, PoolError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        pool.resume_job("u", id)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(answers.iter().filter(|a| a.is_ok()).count(), 1, "{answers:?}");
        match pool.wait("u", id, Duration::from_secs(20)).unwrap() {
            JobResult::Done(..) => {}
            other => panic!("expected the resumed job to finish, got {other:?}"),
        }
        assert_eq!(pool.stats().running, 0, "the run settled the record it started");
        // The run's live events reached the log a reader can page.
        let mut events: Vec<Value> = Vec::new();
        let mut since = 0;
        loop {
            let page = pool.events("u", id, since).unwrap();
            let drained = page.events.is_empty();
            events.extend(page.events);
            since = page.next;
            if page.closed && drained {
                break;
            }
        }
        let folded = laminar_dataflow::fold_events(events.iter().filter_map(RunEvent::from_value));
        let batch = ExecutionEngine::instant().run(&ExecutionRequest::simple("u", STATEFUL_SRC, 40)).unwrap();
        assert_eq!(folded.port_values("Tally", "output"), batch.port_values("Tally", "output").as_slice());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- checkpoint-horizon backpressure & cursor honesty -------------------------------

    #[test]
    fn resumed_job_cursors_never_move_backwards() {
        let dir = journal_dir("monotone");
        let pool = EnginePool::start_durable(ExecutionEngine::instant(), 1, 8, &dir).unwrap();
        let req = ExecutionRequest::new(
            "u",
            STATEFUL_SRC,
            RunConfig::iterations(10).with_checkpoints(3).with_events(true),
        )
        .with_faults(FaultPlan::parse("kill_at_epoch=2"));
        let id = pool.submit("u", req).unwrap();
        match pool.wait("u", id, Duration::from_secs(20)).unwrap() {
            JobResult::Failed(..) => {}
            other => panic!("expected the injected kill, got {other:?}"),
        }
        // Drain attempt 1 completely. The cursor ends past the journaled
        // prefix: the partial round after epoch 2 and the `failed` marker
        // streamed but were never journaled.
        let mut cursor = 0;
        loop {
            let page = pool.events("u", id, cursor).unwrap();
            cursor = page.next;
            if page.closed && page.events.is_empty() {
                break;
            }
        }
        let attempt1_end = cursor;

        assert_eq!(pool.resume_job("u", id).unwrap(), id);
        // The regression: a resumed log restarting at first_seq = 0 handed
        // this cursor `next < since` (silent duplicate re-fold). Monotone
        // now, from the very first post-resume poll to stream close.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut collected: Vec<Value> = Vec::new();
        loop {
            let page = pool.events("u", id, cursor).unwrap();
            assert!(page.next >= cursor, "cursor moved backwards: {} < {}", page.next, cursor);
            collected.extend(page.events);
            cursor = page.next;
            if page.closed && collected.last().and_then(|e| e["type"].as_str()) == Some("done") {
                break;
            }
            assert!(Instant::now() < deadline, "resumed job never finished");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(cursor >= attempt1_end, "the resumed stream continues past attempt 1's end");
        // The journaled prefix stayed addressable under the original seqs,
        // and folding the whole resumed stream reproduces the batch run.
        let full = pool.events("u", id, 0).unwrap();
        assert_eq!(full.first, 0, "resumed log keeps the journaled prefix at its recorded seqs");
        let mut events: Vec<Value> = Vec::new();
        let mut since = 0;
        loop {
            let page = pool.events("u", id, since).unwrap();
            let drained = page.events.is_empty();
            events.extend(page.events);
            since = page.next;
            if page.closed && drained {
                break;
            }
        }
        let folded = laminar_dataflow::fold_events(events.iter().filter_map(RunEvent::from_value));
        let batch = ExecutionEngine::instant().run(&ExecutionRequest::simple("u", STATEFUL_SRC, 10)).unwrap();
        assert_eq!(
            folded.port_values("Tally", "output"),
            batch.port_values("Tally", "output").as_slice(),
            "refold identity across the resume"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_log_cancel_keeps_exactly_one_marker_on_every_mapping() {
        use laminar_dataflow::MappingKind;
        for (mapping, processes) in [
            (MappingKind::Simple, 1),
            (MappingKind::Multi, 3),
            (MappingKind::Mpi, 3),
            (MappingKind::Redis, 3),
        ] {
            let pool = instant_pool(1, 4);
            pool.set_event_log_capacity(24);
            let req = ExecutionRequest::new(
                "u",
                WF_SRC,
                RunConfig::unbounded(Duration::from_micros(100)).with_mapping(mapping, processes),
            );
            let id = pool.submit("u", req).unwrap();
            // Let the bounded log wrap (non-checkpointed: blind eviction).
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                let (first, _) = pool.event_log_window("u", id).unwrap();
                if first > 0 {
                    break;
                }
                assert!(Instant::now() < deadline, "{mapping:?}: log never wrapped");
                std::thread::sleep(Duration::from_millis(1));
            }
            pool.cancel("u", id).expect("own job");
            match pool.wait("u", id, Duration::from_secs(20)).unwrap() {
                JobResult::Cancelled(_) => {}
                other => panic!("{mapping:?}: expected Cancelled, got {other:?}"),
            }
            // Drain the retained window: exactly one cancelled marker
            // survives the full-log cancel, and it seals the stream.
            let mut since = 0;
            let mut types: Vec<String> = Vec::new();
            loop {
                let page = pool.events("u", id, since).unwrap();
                types.extend(page.events.iter().filter_map(|e| e["type"].as_str().map(str::to_string)));
                since = page.next;
                if page.closed && page.events.is_empty() {
                    break;
                }
            }
            assert_eq!(
                types.iter().filter(|t| *t == "cancelled").count(),
                1,
                "{mapping:?}: exactly one cancelled marker"
            );
            assert_eq!(types.last().map(String::as_str), Some("cancelled"), "{mapping:?}: marker seals");
        }
    }

    #[test]
    fn throttled_producer_loses_nothing_for_a_live_slow_consumer() {
        let pool = instant_pool(1, 4);
        pool.set_event_log_capacity(32);
        // Never degrade within this test: a live consumer must see literal
        // zero loss, with the producer paced to the consumer.
        pool.set_backpressure_wait(Duration::from_secs(30));
        let iterations = 120;
        let req = ExecutionRequest::new(
            "u",
            STATEFUL_SRC,
            RunConfig::iterations(iterations).with_checkpoints(10).with_events(true),
        );
        let id = pool.submit("u", req).unwrap();
        let mut since = 0;
        let mut events: Vec<Value> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let page = pool.events("u", id, since).unwrap();
            assert!(since >= page.first, "live consumer saw eviction: {} < {}", since, page.first);
            assert!(page.retained_epoch.is_none(), "no degraded recovery for a live consumer");
            assert!(page.next >= since, "cursor monotone");
            events.extend(page.events);
            since = page.next;
            if page.closed {
                break;
            }
            assert!(Instant::now() < deadline, "throttled job never finished");
            // A deliberately slow reader: the producer must wait, not win.
            std::thread::sleep(Duration::from_millis(2));
        }
        let folded = laminar_dataflow::fold_events(events.iter().filter_map(RunEvent::from_value));
        let batch =
            ExecutionEngine::instant().run(&ExecutionRequest::simple("u", STATEFUL_SRC, iterations)).unwrap();
        assert_eq!(
            folded.port_values("Tally", "output"),
            batch.port_values("Tally", "output").as_slice(),
            "zero data loss: the slow consumer folds the exact batch result"
        );
        assert_eq!(folded.printed, batch.printed);
    }

    #[test]
    fn dead_consumer_degrades_to_epoch_granularity_with_bounded_memory() {
        let pool = instant_pool(1, 4);
        let capacity = 64;
        pool.set_event_log_capacity(capacity);
        pool.set_backpressure_wait(Duration::from_millis(100));
        let req = ExecutionRequest::new(
            "u",
            STATEFUL_SRC,
            RunConfig::iterations(200).with_checkpoints(10).with_events(true),
        );
        let id = pool.submit("u", req).unwrap();
        // Nobody reads: the producer parks once for the bounded wait, the
        // log degrades, and the job still completes (a dead consumer can
        // delay a worker, never wedge it).
        match pool.wait("u", id, Duration::from_secs(30)).unwrap() {
            JobResult::Done(..) => {}
            other => panic!("expected Done, got {other:?}"),
        }
        let (first, end) = pool.event_log_window("u", id).unwrap();
        assert!(first > 0, "the log did evict (degraded mode engaged)");
        assert!(
            (end - first) as usize <= capacity * 2,
            "log memory bounded by the horizon: window {} > {}",
            end - first,
            capacity * 2
        );
        // A returning client recovers engine-side at a retained epoch
        // marker: the page starts AT the marker and names its epoch.
        let page = pool.events("u", id, 0).unwrap();
        let epoch = page.retained_epoch.expect("a checkpoint survived the eviction");
        assert_eq!(page.events[0]["type"].as_str(), Some("epoch"));
        assert_eq!(page.events[0]["epoch"].as_i64(), Some(epoch as i64));
    }

    #[test]
    fn swallowed_journal_errors_are_counted() {
        let dir = journal_dir("joerr");
        let store = JournalStore::open(&dir).unwrap();
        let mut meta = Value::Null;
        meta.set("owner", "u");
        let writer = store.create(7, &meta).unwrap();
        let errors = Arc::new(AtomicU64::new(0));
        let observer = JobObserver {
            log: None,
            journal: Some(Mutex::new(writer)),
            cancel: CancelToken::new(),
            journal_errors: Arc::clone(&errors),
        };
        // Tear the job directory out from under the writer: the epoch
        // record seals its segment by rename, which now has nowhere to go.
        std::fs::remove_dir_all(dir.join("job-7")).unwrap();
        observer.on_event(0, &RunEvent::Epoch { id: 1, state: Value::Null });
        assert!(
            errors.load(Ordering::SeqCst) >= 1,
            "a swallowed journal I/O error must be counted, not lost"
        );
        // And the pool surfaces the counter (zero on a healthy pool).
        let pool = instant_pool(1, 2);
        assert_eq!(pool.stats().journal_errors, 0);
        assert_eq!(pool.stats().to_value()["journal_errors"].as_i64(), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn queued_req() -> ExecutionRequest {
        queued(RunConfig::iterations(1))
    }

    fn queued(run: RunConfig) -> ExecutionRequest {
        ExecutionRequest::new("u", WF_SRC, run)
    }

    #[test]
    fn fair_queue_round_robins_across_tenants() {
        // a floods 4 jobs, b holds 2, c holds 1: pops must interleave
        // a,b,c,a,b,a,a — no tenant drains another's backlog position.
        let mut q = FairQueue::new();
        for id in [1, 2, 3, 4] {
            q.push("a", id, queued_req());
        }
        for id in [10, 11] {
            q.push("b", id, queued_req());
        }
        q.push("c", 20, queued_req());
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(id, _)| id)).collect();
        assert_eq!(order, vec![1, 10, 20, 2, 11, 3, 4]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.tenants(), 0);
    }

    #[test]
    fn fair_queue_remove_frees_slot_and_lane() {
        let mut q = FairQueue::new();
        q.push("a", 1, queued_req());
        q.push("b", 2, queued_req());
        q.remove(1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.tenants(), 1);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(id, _)| id)).collect();
        assert_eq!(order, vec![2]);
    }

    #[test]
    fn fair_scheduling_lets_a_quiet_tenant_cut_a_noisy_backlog() {
        // One deliberately slow worker. While it chews tenant "noisy"'s
        // first job, noisy floods the queue and "quiet" submits one job.
        // DRR serves quiet's lane on the very next rotation, so quiet's
        // job completes while most of noisy's backlog is still queued.
        let engine = ExecutionEngine::instant().with_provision_scale(150);
        let pool = EnginePool::start(engine, 1, 16);
        let first = pool.submit("noisy", ExecutionRequest::simple("noisy", WF_SRC, 1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.status("noisy", first).unwrap().phase == JobPhase::Queued && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let backlog: Vec<i64> = (0..6)
            .map(|_| pool.submit("noisy", ExecutionRequest::simple("noisy", WF_SRC, 1)).unwrap())
            .collect();
        let quiet = pool.submit("quiet", ExecutionRequest::simple("quiet", WF_SRC, 1)).unwrap();
        assert!(pool.stats().queued_tenants >= 2);
        pool.wait("quiet", quiet, Duration::from_secs(30)).unwrap();
        let done: usize =
            backlog.iter().filter(|id| pool.status("noisy", **id).unwrap().phase == JobPhase::Done).count();
        assert!(
            done <= 2,
            "quiet tenant waited behind {done} of 6 noisy backlog jobs; fair \
             scheduling should have served it on the first rotation"
        );
    }

    #[test]
    fn rate_limit_rejects_over_budget_tenant_with_retry_hint() {
        let pool = instant_pool(1, 16);
        pool.set_tenant_rate(1.0, 1.0); // 1 submission/s, burst 1
        pool.submit("a", queued_req()).unwrap();
        let err = pool.submit("a", queued_req()).unwrap_err();
        match err {
            PoolError::RateLimited { retry_after_ms } => {
                assert!(retry_after_ms >= 1, "an empty bucket must hint a wait");
                assert!(retry_after_ms <= 1_001, "hint beyond one token period: {retry_after_ms}");
            }
            other => panic!("expected RateLimited, got {other}"),
        }
        // Buckets are per tenant: b's budget is untouched by a's burn.
        pool.submit("b", queued_req()).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.rate_limited, 1);
        assert_eq!(stats.rejected, 0, "rate limiting is not queue-full");
        assert_eq!(stats.to_value()["rate_limited"].as_i64(), Some(1));
        // Disabling restores unmetered admission.
        pool.set_tenant_rate(0.0, 0.0);
        pool.submit("a", queued_req()).unwrap();
    }

    #[test]
    fn long_poll_on_closed_log_returns_immediately() {
        let pool = instant_pool(1, 4);
        let id = pool.submit("u", queued(RunConfig::iterations(1).with_events(true))).unwrap();
        pool.wait("u", id, Duration::from_secs(10)).unwrap();
        let t0 = Instant::now();
        let page = pool.events_wait("u", id, 0, Duration::from_secs(10)).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "closed log must not park the caller: {:?}",
            t0.elapsed()
        );
        assert!(page.closed);
        assert!(!page.events.is_empty());
        // Same at a cursor past the end: terminal marker seen, no wait.
        let t0 = Instant::now();
        let tail = pool.events_wait("u", id, page.next, Duration::from_secs(10)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(2));
        assert!(tail.closed);
        assert!(tail.events.is_empty());
    }

    #[test]
    fn long_poll_zero_wait_is_byte_identical_to_poll() {
        let pool = instant_pool(1, 4);
        let id = pool.submit("u", queued(RunConfig::iterations(1).with_events(true))).unwrap();
        pool.wait("u", id, Duration::from_secs(10)).unwrap();
        for since in [0u64, 2, 1_000] {
            let poll = pool.events("u", id, since).unwrap();
            let push = pool.events_wait("u", id, since, Duration::ZERO).unwrap();
            assert_eq!(poll.events, push.events);
            assert_eq!(poll.next, push.next);
            assert_eq!(poll.first, push.first);
            assert_eq!(poll.closed, push.closed);
            assert_eq!(poll.retained_epoch, push.retained_epoch);
        }
    }

    #[test]
    fn long_poll_parks_until_events_arrive() {
        // The job sits behind a slow blocker, so the waiter provably
        // parks on an empty open log before the stream starts.
        let engine = ExecutionEngine::instant().with_provision_scale(100);
        let pool = Arc::new(EnginePool::start(engine, 1, 8));
        pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)).unwrap();
        let id = pool.submit("u", queued(RunConfig::iterations(1).with_events(true))).unwrap();
        let empty_now = pool.events("u", id, 0).unwrap();
        assert!(empty_now.events.is_empty() && !empty_now.closed, "job not yet started");
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.events_wait("u", id, 0, Duration::from_secs(30)).unwrap())
        };
        let page = waiter.join().unwrap();
        assert!(!page.events.is_empty(), "waiter woke with data, not a timeout");
    }

    #[test]
    fn cancel_wakes_parked_long_poll_waiter() {
        // One busy worker; the watched job is queued with an empty log.
        // Cancelling it must wake the parked waiter with the sealed
        // cancelled page — not leave it hanging until timeout.
        let engine = ExecutionEngine::instant().with_provision_scale(200);
        let pool = Arc::new(EnginePool::start(engine, 1, 8));
        pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)).unwrap();
        let id = pool.submit("u", queued(RunConfig::iterations(1).with_events(true))).unwrap();
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let page = pool.events_wait("u", id, 0, Duration::from_secs(30)).unwrap();
                (page, t0.elapsed())
            })
        };
        // Let the waiter park before firing the cancel.
        std::thread::sleep(Duration::from_millis(30));
        pool.cancel("u", id).unwrap();
        let (page, waited) = waiter.join().unwrap();
        assert!(page.closed, "cancel seals the stream");
        let types: Vec<&str> = page.events.iter().filter_map(|e| e["type"].as_str()).collect();
        assert_eq!(types, vec!["cancelled"]);
        assert!(waited < Duration::from_secs(10), "woke by cancel, not timeout: {waited:?}");
    }

    #[test]
    fn stop_wakes_parked_waiter_with_sealed_terminal_page() {
        // A waiter parked on a queued job's log must survive pool
        // shutdown: stop() cancels the job, seals its log, and the
        // notification reaches the waiter — which is parked on the log's
        // own condvar, independent of the pool locks stop() takes.
        let engine = ExecutionEngine::instant().with_provision_scale(200);
        let mut pool = EnginePool::start(engine, 1, 8);
        pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 1)).unwrap();
        let id = pool.submit("u", queued(RunConfig::iterations(1).with_events(true))).unwrap();
        let log = {
            let jobs = pool.inner.jobs.lock();
            Arc::clone(&jobs.get("u", id).unwrap().events)
        };
        let waiter = std::thread::spawn(move || {
            let t0 = Instant::now();
            let page = log.page_wait(0, Duration::from_secs(30)).parsed();
            (page, t0.elapsed())
        });
        std::thread::sleep(Duration::from_millis(30));
        pool.stop();
        let (page, waited) = waiter.join().unwrap();
        assert!(page.closed, "stop seals every queued job's stream");
        let types: Vec<&str> = page.events.iter().filter_map(|e| e["type"].as_str()).collect();
        assert_eq!(types, vec!["cancelled"]);
        assert!(waited < Duration::from_secs(10), "woke by stop, not timeout: {waited:?}");
    }

    /// A host module whose every function panics, as a buggy native
    /// service binding would.
    struct Boom;

    impl laminar_script::Host for Boom {
        fn call(&self, _: &str, _: &str, _: &[Value]) -> Result<Value, laminar_script::ScriptError> {
            panic!("boom");
        }
    }

    const BOOM_SRC: &str = "pe P : producer { output o; process { emit(boom.now()); } }";

    fn boom_pool(capacity: usize) -> EnginePool {
        let engine = ExecutionEngine::instant();
        engine.hosts().register("boom", Arc::new(Boom));
        EnginePool::start(engine, 1, capacity)
    }

    fn wait_until_running(pool: &EnginePool, id: i64) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while pool.status("u", id).unwrap().phase != JobPhase::Running {
            assert!(Instant::now() < deadline, "job {id} never started");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// [`BOOM_SRC`]'s producer feeding a relay, for the parallel mappings.
    const BOOM_WORKFLOW_SRC: &str = r#"
        pe P : producer { output o; process { emit(boom.now()); } }
        pe R : iterative { input i; output o; process { emit(i); } }
        workflow W {
            nodes { p = P; r = R; }
            connect p.o -> r.i;
        }
    "#;

    #[test]
    fn a_panicking_pe_fails_its_job_and_the_worker_serves_the_next() {
        use laminar_dataflow::MappingKind;
        // The scenario runs on its own thread with bounded waits: where a
        // relay never learns of the panic, the job stays Running and
        // `stop()` blocks, and this fails instead of hanging.
        let scenario = std::thread::spawn(|| {
            let mut pool = boom_pool(4);
            for mapping in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
                let run = RunConfig::iterations(5).with_mapping(mapping, 3);
                let id = pool.submit("u", ExecutionRequest::new("u", BOOM_WORKFLOW_SRC, run)).unwrap();
                match pool.wait("u", id, Duration::from_secs(10)).unwrap() {
                    JobResult::Failed(message, _) => {
                        assert!(message.contains("panicked: boom"), "{mapping}: {message}")
                    }
                    other => panic!("{mapping}: expected Failed, got {other:?}"),
                }
                let next = pool.submit("u", ExecutionRequest::simple("u", WF_SRC, 2)).unwrap();
                match pool.wait("u", next, Duration::from_secs(10)).unwrap() {
                    JobResult::Done(..) => {}
                    other => panic!("{mapping}: the one worker must serve the next job, got {other:?}"),
                }
                assert_eq!(pool.stats().running, 0);
            }
            pool.stop();
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !scenario.is_finished() {
            assert!(Instant::now() < deadline, "a job or stop() did not end within 60 s");
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Err(panic) = scenario.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// A host module whose calls return in pairs: each call waits for the
    /// next one (a two-party barrier), or fails after 10 s alone.
    #[derive(Default)]
    struct Rendezvous {
        arrivals: Mutex<u64>,
        cv: Condvar,
    }

    impl laminar_script::Host for Rendezvous {
        fn call(&self, _: &str, _: &str, _: &[Value]) -> Result<Value, laminar_script::ScriptError> {
            let mut arrivals = self.arrivals.lock();
            *arrivals += 1;
            let pair_complete = (*arrivals).div_ceil(2) * 2;
            self.cv.notify_all();
            let deadline = Instant::now() + Duration::from_secs(10);
            while *arrivals < pair_complete {
                if self.cv.wait_until(&mut arrivals, deadline).timed_out() {
                    let kind = laminar_script::ErrorKind::HostError;
                    return Err(laminar_script::ScriptError::new(kind, "alone at the rendezvous"));
                }
            }
            Ok(Value::Null)
        }
    }

    /// Two runs on two workers at once stage a resource of the same name
    /// with different bytes. Every read comes after both runs staged theirs
    /// (each iteration meets the other run at the rendezvous first), and
    /// each run reads only its own bytes.
    #[test]
    fn concurrent_runs_each_read_their_own_resources() {
        let engine = ExecutionEngine::instant();
        engine.hosts().register("both", Arc::new(Rendezvous::default()));
        let pool = EnginePool::start(engine, 2, 4);
        let src = r#"pe R : producer { output o; process { both.here(); emit(resources.read("f.txt")); } }"#;
        let texts = ["first run's bytes", "second run's bytes"];
        let ids: Vec<i64> = texts
            .iter()
            .map(|text| {
                let run = RunConfig::iterations(3).with_resource("f.txt", text.as_bytes().to_vec());
                pool.submit("u", ExecutionRequest::new("u", src, run)).unwrap()
            })
            .collect();
        for (id, text) in ids.into_iter().zip(texts) {
            match pool.wait("u", id, Duration::from_secs(30)).unwrap() {
                JobResult::Done(out, _) => {
                    assert_eq!(out.port_values("R", "o"), vec![Value::Str(text.into()); 3])
                }
                other => panic!("expected Done, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_resumed_job_is_not_evicted_by_its_own_earlier_finish() {
        let dir = journal_dir("reevict");
        let pool = EnginePool::start_durable(ExecutionEngine::instant(), 2, 8, &dir).unwrap();
        let unbounded = || {
            ExecutionRequest::new(
                "u",
                STATEFUL_SRC,
                RunConfig::unbounded(Duration::from_millis(10)).with_checkpoints(2).with_events(false),
            )
        };
        let faults = FaultPlan { kill_at_epoch: Some(1), ..FaultPlan::default() };
        let id = pool.submit("u", unbounded().with_faults(faults)).unwrap();
        match pool.wait("u", id, Duration::from_secs(20)).unwrap() {
            JobResult::Failed(..) => {}
            other => panic!("expected the injected kill, got {other:?}"),
        }
        // The first attempt's finish is in the retention tail; the resumed
        // attempt runs under the same id, unbounded, on one worker while
        // the other serves a full tail's worth of finishes.
        assert_eq!(pool.resume_job("u", id).unwrap(), id);
        let tiny = "pe G : producer { output o; process { emit(1); } }";
        for _ in 0..RETAIN_FINISHED {
            let other = pool.submit("u", ExecutionRequest::simple("u", tiny, 1)).unwrap();
            pool.wait("u", other, Duration::from_secs(10)).unwrap();
        }
        let info = pool.status("u", id).expect("the live resumed job keeps its record");
        assert_eq!(info.phase, JobPhase::Running);
        pool.cancel("u", id).unwrap();
        match pool.wait("u", id, Duration::from_secs(20)).unwrap() {
            JobResult::Cancelled(_) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        drop(pool);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_terminal_path_settles_exactly_once() {
        let mut pool = boom_pool(16);
        let submit = |pool: &EnginePool, mut req: ExecutionRequest| {
            req.run.events = true;
            pool.submit("u", req).unwrap()
        };
        let simple = |src| ExecutionRequest::simple("u", src, 1);
        let unbounded = || ExecutionRequest::new("u", WF_SRC, RunConfig::unbounded(Duration::from_millis(1)));
        let panicked = submit(&pool, simple(BOOM_SRC));
        let done = submit(&pool, simple(WF_SRC));
        let failed = submit(&pool, simple("pe Z : producer { output o; process { emit(1 / 0); } }"));
        for id in [panicked, done, failed] {
            pool.wait("u", id, Duration::from_secs(10)).unwrap();
        }
        // One worker: behind the running job queue one job to cancel, one
        // that will be running at shutdown and one that will still be
        // queued.
        let running = submit(&pool, unbounded());
        wait_until_running(&pool, running);
        let queued = submit(&pool, simple(WF_SRC));
        let in_flight = submit(&pool, unbounded());
        let orphan = submit(&pool, simple(WF_SRC));
        assert_eq!(pool.cancel("u", queued).unwrap().phase, JobPhase::Cancelled);
        pool.cancel("u", running).unwrap();
        wait_until_running(&pool, in_flight);
        pool.stop();

        use JobPhase::{Cancelled, Done, Failed};
        let ends = [
            (panicked, Failed),
            (done, Done),
            (failed, Failed),
            (running, Cancelled),
            (queued, Cancelled),
            (in_flight, Cancelled),
            (orphan, Cancelled),
        ];
        for (id, phase) in ends {
            let info = pool.status("u", id).unwrap();
            assert_eq!(info.phase, phase, "job {id}");
            assert_eq!(info.error.is_some(), phase == Failed, "job {id}: {:?}", info.error);
            let mut types: Vec<String> = Vec::new();
            let mut since = 0;
            let closed = loop {
                let page = pool.events("u", id, since).unwrap();
                types.extend(page.events.iter().filter_map(|e| e["type"].as_str().map(str::to_string)));
                since = page.next;
                if page.events.is_empty() {
                    break page.closed;
                }
            };
            assert!(closed, "job {id}: log sealed");
            let terminal: Vec<&str> = types
                .iter()
                .map(String::as_str)
                .filter(|t| matches!(*t, "done" | "failed" | "cancelled"))
                .collect();
            assert_eq!(terminal, vec![phase.as_str()], "job {id}: exactly one terminal marker");
            assert_eq!(types.last().map(String::as_str), Some(phase.as_str()), "job {id}: the marker seals");
        }
        let stats = pool.stats();
        assert_eq!(stats.submitted, stats.completed + stats.failed + stats.cancelled);
        assert_eq!((stats.completed, stats.failed, stats.cancelled), (1, 2, 4));
    }
}
