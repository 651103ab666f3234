//! A job as the pool records and reports it: phase, public view, result,
//! errors and the pool's counters — and [`Jobs`], the one place a job's
//! phase changes and finished jobs are retained.

use crate::engine::ExecutionOutput;
use crate::event_log::{Entry, JobEventLog};
use laminar_dataflow::CancelToken;
use laminar_json::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Coarse lifecycle phase of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in the queue.
    Queued,
    /// Picked by a worker, currently enacting.
    Running,
    /// Finished successfully; the output is available.
    Done,
    /// Finished with an execution error.
    Failed,
    /// Stopped on request (`DELETE /execution/{user}/job/{id}` or pool
    /// shutdown) before completing. Terminal, but not a failure: the
    /// job's event log is a valid stream prefix sealed by the
    /// `cancelled` marker.
    Cancelled,
}

impl JobPhase {
    /// Wire form (the `status` field of the job endpoints).
    pub fn as_str(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }
}

/// Point-in-time public view of a job (the `status` endpoint's payload).
#[derive(Debug, Clone)]
pub struct JobInfo {
    /// Job id (unique per pool).
    pub id: i64,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Time spent waiting in the queue (final once picked).
    pub queue_wait: Duration,
    /// Wall-clock run time (final once finished; zero while queued).
    pub run_time: Duration,
    /// Worker that picked the job, once one has.
    pub worker: Option<usize>,
    /// Failure message when `phase == Failed`.
    pub error: Option<String>,
}

impl JobInfo {
    /// Whether the job reached a terminal phase.
    pub fn is_finished(&self) -> bool {
        matches!(self.phase, JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled)
    }

    /// Serialize for the wire.
    pub fn to_value(&self) -> Value {
        let mut v = Value::Null;
        v.set("jobId", self.id)
            .set("status", self.phase.as_str())
            .set("queue_us", self.queue_wait.as_micros() as i64)
            .set("run_us", self.run_time.as_micros() as i64);
        if let Some(w) = self.worker {
            v.set("engine", w as i64);
        }
        if let Some(e) = &self.error {
            v.set("error_message", e.as_str());
        }
        v
    }
}

/// Outcome of polling a job for its result. The output is shared, not
/// copied: polls bump a refcount instead of deep-cloning result trees
/// under the pool's job lock.
#[derive(Debug, Clone)]
pub enum JobResult {
    /// Still queued or running.
    Pending(JobInfo),
    /// Finished successfully.
    Done(Arc<ExecutionOutput>, JobInfo),
    /// Finished with an error.
    Failed(String, JobInfo),
    /// Stopped on request before completing; no output exists. Consume
    /// what the job produced through its event log instead.
    Cancelled(JobInfo),
}

/// Errors the pool surfaces to callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// Admission control: the queue is at capacity (HTTP 429 upstream).
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// Per-tenant admission control: the submitting tenant's token bucket
    /// is empty — it exceeded its sustained submission rate (HTTP 429
    /// upstream, with the retry hint in the envelope).
    RateLimited {
        /// The bucket's own estimate of when its next token lands.
        retry_after_ms: u64,
    },
    /// The execution itself failed.
    Failed(String),
    /// The job id is unknown (or belongs to another owner).
    Unknown(i64),
    /// The job was cancelled before completing.
    Cancelled(i64),
    /// The pool is shutting down and no longer accepts jobs.
    ShutDown,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::QueueFull { capacity } => {
                write!(f, "engine pool queue is full ({capacity} jobs); retry later")
            }
            PoolError::RateLimited { retry_after_ms } => {
                write!(f, "tenant rate limit exceeded; retry in {retry_after_ms}ms")
            }
            PoolError::Failed(m) => write!(f, "execution failed: {m}"),
            PoolError::Unknown(id) => write!(f, "no such job {id}"),
            PoolError::Cancelled(id) => write!(f, "job {id} was cancelled"),
            PoolError::ShutDown => write!(f, "engine pool is shut down"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Aggregate pool counters (the `/execution/pool/stats` payload).
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Worker threads (= engines).
    pub workers: usize,
    /// Queue bound.
    pub capacity: usize,
    /// Jobs currently waiting.
    pub queued: usize,
    /// Jobs currently enacting.
    pub running: usize,
    /// Total accepted submissions.
    pub submitted: u64,
    /// Total successful completions.
    pub completed: u64,
    /// Total failed executions.
    pub failed: u64,
    /// Total jobs cancelled (while queued or mid-run).
    pub cancelled: u64,
    /// Total submissions rejected by admission control.
    pub rejected: u64,
    /// Total submissions rejected by per-tenant rate limiting (counted
    /// separately from queue-full `rejected`: a rate-limited tenant is
    /// over *its* budget, not evidence the pool is saturated).
    pub rate_limited: u64,
    /// Tenants with jobs currently waiting (fair-queue lanes with work).
    pub queued_tenants: usize,
    /// Journal I/O errors swallowed by job observers (a failing disk
    /// degrades durability silently; this makes it visible).
    pub journal_errors: u64,
}

impl PoolStats {
    /// Serialize for the wire.
    pub fn to_value(&self) -> Value {
        let mut v = Value::Null;
        v.set("workers", self.workers)
            .set("capacity", self.capacity)
            .set("queued", self.queued)
            .set("running", self.running)
            .set("submitted", self.submitted as i64)
            .set("completed", self.completed as i64)
            .set("failed", self.failed as i64)
            .set("cancelled", self.cancelled as i64)
            .set("rejected", self.rejected as i64)
            .set("rate_limited", self.rate_limited as i64)
            .set("queued_tenants", self.queued_tenants)
            .set("journal_errors", self.journal_errors as i64);
        v
    }
}

/// Finished jobs retained for polling before the oldest are evicted.
pub(crate) const RETAIN_FINISHED: usize = 4096;

/// Finished streamed jobs whose full event logs stay replayable. Older
/// finished logs are expired — events dropped and their buffer freed,
/// sequence bookkeeping kept — so large streamed payloads can't pin
/// memory for as long as the job *records* are retained
/// ([`RETAIN_FINISHED`]): in steady state a node holds this many logs
/// plus each retained record's output.
pub(crate) const RETAIN_STREAMED_LOGS: usize = 256;

/// How a job ends: the one input of [`Jobs::settle`].
pub(crate) enum End {
    /// The run's output, not yet shared with anyone.
    Done(Arc<ExecutionOutput>),
    Failed(String),
    Cancelled,
}

pub(crate) struct JobRecord {
    pub(crate) owner: String,
    /// Written by [`Jobs::start`] and [`Jobs::settle`] only.
    phase: JobPhase,
    submitted: Instant,
    queue_wait: Duration,
    run_time: Duration,
    worker: Option<usize>,
    output: Option<Arc<ExecutionOutput>>,
    error: Option<String>,
    /// The job's sequenced event stream (terminal marker only, unless the
    /// request asked for live events).
    pub(crate) events: Arc<JobEventLog>,
    /// Whether the request asked for a live event stream.
    pub(crate) streaming: bool,
    /// Cooperative stop signal, shared with the enactment once a worker
    /// picks the job.
    pub(crate) cancel: CancelToken,
}

impl JobRecord {
    pub(crate) fn info(&self, id: i64) -> JobInfo {
        JobInfo {
            id,
            phase: self.phase,
            queue_wait: self.queue_wait,
            run_time: self.run_time,
            worker: self.worker,
            error: self.error.clone(),
        }
    }

    pub(crate) fn result(&self, id: i64) -> JobResult {
        match self.phase {
            JobPhase::Done => {
                JobResult::Done(self.output.clone().expect("done job has output"), self.info(id))
            }
            JobPhase::Failed => {
                JobResult::Failed(self.error.clone().unwrap_or_else(|| "unknown".into()), self.info(id))
            }
            JobPhase::Cancelled => JobResult::Cancelled(self.info(id)),
            _ => JobResult::Pending(self.info(id)),
        }
    }

    fn is_finished(&self) -> bool {
        matches!(self.phase, JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled)
    }

    /// Fire the cancel token and wake a producer parked on a full log, so
    /// the enactment stops at its next invocation boundary.
    fn interrupt(&self) {
        self.cancel.cancel();
        self.events.wake_producer();
    }
}

/// Every job the pool knows — queued, running and a bounded tail of
/// finished — with the counters of their phases and the two retention
/// tails, all behind the pool's one `jobs` lock. A job's phase changes
/// here and nowhere else: [`Jobs::start`] takes it `Queued → Running`,
/// [`Jobs::settle`] to its end.
#[derive(Default)]
pub(crate) struct Jobs {
    records: HashMap<i64, JobRecord>,
    /// Settled ids, oldest first: the record of the front one is evicted
    /// past [`RETAIN_FINISHED`].
    finished: VecDeque<i64>,
    /// Settled streamed ids, oldest first: the log of the front one is
    /// expired past [`RETAIN_STREAMED_LOGS`].
    streamed: VecDeque<i64>,
    submitted: u64,
    running: usize,
    completed: u64,
    failed: u64,
    cancelled: u64,
    /// Measured run time (ms) across completed and failed jobs, for the
    /// queue-full retry hint.
    run_ms_total: u64,
}

impl Jobs {
    /// Record a submitted job, queued. A resumed job replaces its earlier
    /// attempt's record under the same id, so that attempt's places in the
    /// retention tails go with it: they must not evict or expire the live
    /// job. Only an interrupted attempt (failed or cancelled) is replaced:
    /// a record still queued, running or done is kept and the insert
    /// refused, which is what makes a resume of one job at most one run.
    pub(crate) fn insert(
        &mut self,
        id: i64,
        owner: &str,
        events: Arc<JobEventLog>,
        streaming: bool,
    ) -> Result<(), PoolError> {
        if let Some(phase) = self.records.get(&id).map(|rec| rec.phase) {
            if !matches!(phase, JobPhase::Failed | JobPhase::Cancelled) {
                let phase = phase.as_str();
                return Err(PoolError::Failed(format!(
                    "job {id} is {phase}; only interrupted jobs can be resumed"
                )));
            }
        }
        let rec = JobRecord {
            owner: owner.to_string(),
            phase: JobPhase::Queued,
            submitted: Instant::now(),
            queue_wait: Duration::ZERO,
            run_time: Duration::ZERO,
            worker: None,
            output: None,
            error: None,
            events,
            streaming,
            cancel: CancelToken::new(),
        };
        if self.records.insert(id, rec).is_some() {
            self.finished.retain(|&f| f != id);
            self.streamed.retain(|&s| s != id);
        }
        self.submitted += 1;
        Ok(())
    }

    /// The record of job `id` if `owner` owns it: tenants cannot observe
    /// each other's jobs.
    pub(crate) fn get(&self, owner: &str, id: i64) -> Option<&JobRecord> {
        self.records.get(&id).filter(|rec| rec.owner == owner)
    }

    /// `Queued → Running` on `worker`. `None` when the job is no longer
    /// queued (it was cancelled while queued: its record is already
    /// terminal and sealed).
    pub(crate) fn start(&mut self, id: i64, worker: usize) -> Option<&JobRecord> {
        let rec = self.records.get_mut(&id).filter(|rec| rec.phase == JobPhase::Queued)?;
        rec.queue_wait = rec.submitted.elapsed();
        rec.phase = JobPhase::Running;
        rec.worker = Some(worker);
        self.running += 1;
        Some(rec)
    }

    /// End job `id`: write its terminal phase, seal its log, move its
    /// counter and apply retention, in the caller's one hold of the `jobs`
    /// lock — so a sealed log always means a terminal result. `false` (a
    /// no-op) when the job is unknown or already ended.
    ///
    /// | end | log marker | counter | `run_ms_total` |
    /// |---|---|---|---|
    /// | `Done` | `done` | `completed` | + run time |
    /// | `Failed` | `failed` + message | `failed` | + run time (0 if it never ran) |
    /// | `Cancelled` | `cancelled`, exactly once | `cancelled` | — |
    ///
    /// The journal's half of the table is the caller's, outside the lock
    /// (`PoolInner::journal_end`).
    pub(crate) fn settle(&mut self, id: i64, end: End) -> bool {
        let Some(rec) = self.records.get_mut(&id).filter(|rec| !rec.is_finished()) else { return false };
        if rec.phase == JobPhase::Running {
            self.running -= 1;
            rec.run_time = rec.submitted.elapsed().saturating_sub(rec.queue_wait);
        }
        let run_ms = rec.run_time.as_millis() as u64;
        match end {
            End::Done(mut out) => {
                let metrics = Arc::get_mut(&mut out).expect("a run's output is not shared before it settles");
                metrics.queue_wait = rec.queue_wait;
                metrics.worker = rec.worker;
                rec.output = Some(out);
                rec.phase = JobPhase::Done;
                rec.events.close(Entry::Done);
                self.completed += 1;
                self.run_ms_total += run_ms;
            }
            End::Failed(message) => {
                rec.phase = JobPhase::Failed;
                rec.events.close(Entry::Failed(message.clone()));
                rec.error = Some(message);
                self.failed += 1;
                self.run_ms_total += run_ms;
            }
            End::Cancelled => {
                rec.phase = JobPhase::Cancelled;
                // A streamed run may have logged the runtime's `cancelled`
                // already; `close_cancelled` appends it only if not.
                rec.cancel.cancel();
                rec.events.close_cancelled();
                self.cancelled += 1;
            }
        }
        if rec.streaming {
            self.streamed.push_back(id);
            if self.streamed.len() > RETAIN_STREAMED_LOGS {
                if let Some(old) = self.streamed.pop_front().and_then(|old| self.records.get(&old)) {
                    old.events.expire();
                }
            }
        }
        self.finished.push_back(id);
        if self.finished.len() > RETAIN_FINISHED {
            if let Some(old) = self.finished.pop_front() {
                self.records.remove(&old);
            }
        }
        true
    }

    /// An owner's cancel request: a queued job is settled `Cancelled` on the
    /// spot, a running one has its token fired (its worker settles it), a
    /// finished one is left alone. Returns the job's view after the request
    /// and whether this call settled it; `None` when the id is unknown or
    /// owned by someone else.
    pub(crate) fn cancel(&mut self, owner: &str, id: i64) -> Option<(JobInfo, bool)> {
        let rec = self.get(owner, id)?;
        let settled = match rec.phase {
            JobPhase::Queued => self.settle(id, End::Cancelled),
            JobPhase::Running => {
                rec.interrupt();
                false
            }
            _ => false,
        };
        Some((self.records[&id].info(id), settled))
    }

    /// Interrupt every job not yet ended (shutdown). This covers `Queued`
    /// too: a worker may have popped a job without having started it yet.
    pub(crate) fn interrupt_unfinished(&self) {
        self.records.values().filter(|rec| !rec.is_finished()).for_each(JobRecord::interrupt);
    }

    /// The job counters, in a [`PoolStats`] the pool completes.
    pub(crate) fn counts(&self) -> PoolStats {
        PoolStats {
            running: self.running,
            submitted: self.submitted,
            completed: self.completed,
            failed: self.failed,
            cancelled: self.cancelled,
            ..PoolStats::default()
        }
    }

    /// Mean run time (ms) of the completed and failed jobs; `None` before
    /// the first.
    pub(crate) fn mean_run_ms(&self) -> Option<u64> {
        self.run_ms_total.checked_div(self.completed + self.failed)
    }
}
