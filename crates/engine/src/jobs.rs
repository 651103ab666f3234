//! A job as the pool records and reports it: phase, public view, result,
//! errors and the pool's counters.

use crate::engine::ExecutionOutput;
use crate::event_log::JobEventLog;
use laminar_dataflow::CancelToken;
use laminar_json::Value;
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

pub(crate) struct JobRecord {
    pub(crate) owner: String,
    pub(crate) phase: JobPhase,
    pub(crate) submitted: Instant,
    pub(crate) queue_wait: Duration,
    pub(crate) run_time: Duration,
    pub(crate) worker: Option<usize>,
    pub(crate) output: Option<Arc<ExecutionOutput>>,
    pub(crate) error: Option<String>,
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
}
