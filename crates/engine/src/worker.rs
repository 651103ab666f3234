//! The worker side of the pool: the loop each engine thread runs, and the
//! retention bounds applied as jobs finish.

use crate::engine::ExecutionEngine;
use crate::event_log::{Entry, JobEventLog, JobObserver, BACKPRESSURE_WAIT, EVENT_LOG_CAPACITY};
use crate::jobs::JobPhase;
use crate::pool::PoolInner;
use laminar_dataflow::{CancelToken, DataflowError, RunObserver};
use laminar_json::Value;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Finished jobs retained for polling before the oldest are evicted.
const RETAIN_FINISHED: usize = 4096;

/// Finished streamed jobs whose full event logs stay replayable. Older
/// finished logs are expired — events dropped, sequence bookkeeping kept
/// — so large streamed payloads can't pin memory for as long as the
/// job *records* are retained ([`RETAIN_FINISHED`]).
pub(crate) const RETAIN_STREAMED_LOGS: usize = 256;

pub(crate) fn worker_loop(inner: &PoolInner, mut engine: ExecutionEngine, worker_id: usize) {
    loop {
        let job = {
            let mut queue = inner.queue.lock();
            loop {
                // Checked before popping: once shutdown lands, queued jobs
                // belong to `stop()`, which fails them deterministically.
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(job) = queue.pop() {
                    break Some(job);
                }
                inner.work_cv.wait(&mut queue);
            }
        };
        let Some((id, req)) = job else { return };

        let picked = Instant::now();
        let mut deadline_missed = false;
        let (log, streaming, cancel, owner) = {
            let mut jobs = inner.jobs.lock();
            match jobs.get_mut(&id) {
                // A job cancelled while queued stays cancelled: its
                // record is already terminal and sealed, so the popped
                // queue entry is simply dropped.
                Some(rec) if rec.phase != JobPhase::Queued => continue,
                Some(rec) => {
                    rec.queue_wait = picked.duration_since(rec.submitted);
                    // A submission deadline bounds *queue wait*: a job
                    // that waited past it fails fast instead of burning a
                    // worker on a result the submitter stopped wanting.
                    if let Some(deadline_ms) = req.options.deadline_ms {
                        if rec.queue_wait > Duration::from_millis(deadline_ms) {
                            let msg = format!(
                                "deadline exceeded: {deadline_ms}ms budget, \
                                 {}ms in queue",
                                rec.queue_wait.as_millis()
                            );
                            rec.events.close(Entry::Failed(msg.clone()));
                            rec.error = Some(msg);
                            rec.phase = JobPhase::Failed;
                            inner.failed.fetch_add(1, Ordering::SeqCst);
                            deadline_missed = true;
                        }
                    }
                    if deadline_missed {
                        (Arc::clone(&rec.events), false, CancelToken::new(), String::new())
                    } else {
                        rec.phase = JobPhase::Running;
                        rec.worker = Some(worker_id);
                        (Arc::clone(&rec.events), rec.streaming, rec.cancel.clone(), rec.owner.clone())
                    }
                }
                None => (
                    JobEventLog::new(false, EVENT_LOG_CAPACITY, BACKPRESSURE_WAIT),
                    false,
                    CancelToken::new(),
                    String::new(),
                ),
            }
        };
        if deadline_missed {
            if let Some(journal) = &inner.journal {
                journal.mark_failed(id);
            }
            inner.done_cv.notify_all();
            evict_finished(inner, id);
            continue;
        }
        inner.running.fetch_add(1, Ordering::SeqCst);
        // Durable pools journal checkpointed jobs: the journal writer sits
        // behind the same observer as the event log, so epochs hit disk in
        // stream order. `create` reopens an existing journal on resume
        // (truncating the stale partial-round tail).
        let journal = inner.journal.as_ref().filter(|_| req.options.checkpoint_every > 0);
        let journal_writer = journal.and_then(|store| {
            let mut meta = Value::Null;
            meta.set("owner", owner.as_str()).set("request", req.to_value());
            store.create(id, &meta).map_err(|e| eprintln!("journal: job {id}: {e}")).ok()
        });
        let observer: Option<Arc<dyn RunObserver>> = (streaming || journal_writer.is_some()).then(|| {
            Arc::new(JobObserver {
                log: streaming.then(|| Arc::clone(&log)),
                journal: journal_writer.map(Mutex::new),
                cancel: cancel.clone(),
                journal_errors: Arc::clone(&inner.journal_errors),
            }) as Arc<dyn RunObserver>
        });
        let result = engine.run_controlled(&req, observer, &cancel);
        inner.running.fetch_sub(1, Ordering::SeqCst);
        let run_time = picked.elapsed();

        {
            let mut jobs = inner.jobs.lock();
            if let Some(rec) = jobs.get_mut(&id) {
                rec.run_time = run_time;
                match result {
                    Ok(mut out) => {
                        out.queue_wait = rec.queue_wait;
                        out.worker = Some(worker_id);
                        rec.output = Some(Arc::new(out));
                        rec.phase = JobPhase::Done;
                        log.close(Entry::Done);
                        inner.completed.fetch_add(1, Ordering::SeqCst);
                        inner.run_ms_total.fetch_add(run_time.as_millis() as u64, Ordering::SeqCst);
                        // A completed job needs no recovery state.
                        if let Some(journal) = &inner.journal {
                            journal.remove(id);
                        }
                    }
                    Err(DataflowError::Cancelled) => {
                        // The streaming observer already logged the
                        // runtime's Cancelled marker; close_cancelled
                        // appends it for non-streamed jobs and seals.
                        rec.phase = JobPhase::Cancelled;
                        log.close_cancelled();
                        inner.cancelled.fetch_add(1, Ordering::SeqCst);
                        // User cancellation abandons the job — drop its
                        // journal. Shutdown cancellation keeps it so a
                        // restarted durable pool auto-resumes the run.
                        if !inner.shutdown.load(Ordering::SeqCst) {
                            if let Some(journal) = &inner.journal {
                                journal.remove(id);
                            }
                        }
                    }
                    Err(e) => {
                        let message = e.to_string();
                        log.close(Entry::Failed(message.clone()));
                        rec.error = Some(message);
                        rec.phase = JobPhase::Failed;
                        inner.failed.fetch_add(1, Ordering::SeqCst);
                        inner.run_ms_total.fetch_add(run_time.as_millis() as u64, Ordering::SeqCst);
                        // Keep the journal for post-mortems and explicit
                        // resume, but flag it so auto-resume skips a job
                        // that would just crash again.
                        if let Some(journal) = &inner.journal {
                            journal.mark_failed(id);
                        }
                    }
                }
            }
        }
        inner.done_cv.notify_all();
        if streaming {
            expire_old_streamed_logs(inner, id);
        }
        evict_finished(inner, id);
    }
}

/// Bound the finished-job tail so long-lived servers don't leak records.
pub(crate) fn evict_finished(inner: &PoolInner, just_finished: i64) {
    let mut order = inner.finished_order.lock();
    order.push_back(just_finished);
    while order.len() > RETAIN_FINISHED {
        if let Some(old) = order.pop_front() {
            inner.jobs.lock().remove(&old);
        }
    }
}

/// Bound the memory held by finished streamed logs: only the most recent
/// [`RETAIN_STREAMED_LOGS`] keep their events; older ones are expired
/// (cursor clients see truncation, the terminal phase stays pollable).
fn expire_old_streamed_logs(inner: &PoolInner, just_finished: i64) {
    let mut order = inner.streamed_order.lock();
    order.push_back(just_finished);
    while order.len() > RETAIN_STREAMED_LOGS {
        if let Some(old) = order.pop_front() {
            let log = inner.jobs.lock().get(&old).map(|rec| Arc::clone(&rec.events));
            if let Some(log) = log {
                log.expire();
            }
        }
    }
}
