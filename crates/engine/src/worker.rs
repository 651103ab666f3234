//! The loop each engine thread of the pool runs: pick, run, settle.

use crate::engine::ExecutionEngine;
use crate::event_log::JobObserver;
use crate::jobs::End;
use crate::pool::PoolInner;
use laminar_dataflow::{panic_message, DataflowError, RunObserver};
use laminar_json::Value;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

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

        let started = inner.jobs.lock().start(id, worker_id).map(|rec| {
            (rec.streaming.then(|| Arc::clone(&rec.events)), rec.cancel.clone(), rec.owner.clone())
        });
        // `None`: the job was cancelled while queued, so the popped queue
        // entry is simply dropped.
        let Some((log, cancel, owner)) = started else { continue };
        // Durable pools journal checkpointed jobs: the journal writer sits
        // behind the same observer as the event log, so epochs hit disk in
        // stream order. `create` reopens an existing journal on resume
        // (truncating the stale partial-round tail).
        let journal = inner.journal.as_ref().filter(|_| req.run.checkpoint_every > 0);
        let journal_writer = journal.and_then(|store| {
            let mut meta = Value::Null;
            meta.set("owner", owner.as_str()).set("request", req.to_value());
            store.create(id, &meta).map_err(|e| eprintln!("journal: job {id}: {e}")).ok()
        });
        let observer: Option<Arc<dyn RunObserver>> = (log.is_some() || journal_writer.is_some()).then(|| {
            Arc::new(JobObserver {
                log,
                journal: journal_writer.map(Mutex::new),
                cancel: cancel.clone(),
                journal_errors: Arc::clone(&inner.journal_errors),
            }) as Arc<dyn RunObserver>
        });
        let end = match catch_unwind(AssertUnwindSafe(|| engine.run_controlled(&req, observer, &cancel))) {
            Ok(Ok(out)) => End::Done(Arc::new(out)),
            Ok(Err(DataflowError::Cancelled)) => End::Cancelled,
            Ok(Err(e)) => End::Failed(e.to_string()),
            // A PE on the Simple mapping runs on this thread, so its panic
            // unwinds to here; on a parallel mapping the instance's worker
            // catches it and the run returns it as an error. Either way the
            // job fails and this worker keeps serving, here on a fresh
            // fork: the environment the panicked run provisioned and never
            // tore down does not survive.
            Err(panic) => {
                engine = engine.fork();
                End::Failed(format!("worker panicked: {}", panic_message(panic.as_ref())))
            }
        };
        inner.settle(id, end);
    }
}
