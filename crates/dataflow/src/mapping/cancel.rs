//! Cooperative cancellation for enactments.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between whoever
//! controls a run (the engine pool's `DELETE /execution/{user}/job/{id}`
//! path, a test harness, a timeout guard) and the enactment runtime
//! executing it. Cancellation is *cooperative*: the runtime checks the
//! token between PE invocations — the sequential drain before each datum,
//! `run_worker` before each source iteration and each delivered datum —
//! so a run stops at a clean invocation boundary, never mid-`process`.
//!
//! The observable contract (see `proptest_cancel.rs`): the events a
//! cancelled deterministic run emitted are exactly a prefix of the event
//! stream the uncancelled run would have produced, so folding them yields
//! the prefix-fold of the batch stream. Streams of cancelled runs are
//! terminated by [`super::events::RunEvent::Cancelled`] instead of
//! `Finished`, which is how consumers distinguish "stopped on request"
//! from "failed".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag. Clones observe the same flag; once set it
/// never resets (a token is for one run).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Sleep for `dur`, waking early when cancellation is requested.
    /// Sources pacing an unbounded run sleep through this so cancel
    /// latency stays bounded by [`CancelToken::SLEEP_SLICE`], not by the
    /// caller-chosen pace (which may be minutes). Returns `true` when the
    /// wake-up was a cancellation.
    pub(crate) fn sleep_cancellable(&self, dur: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + dur;
        loop {
            if self.is_cancelled() {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            std::thread::sleep((deadline - now).min(Self::SLEEP_SLICE));
        }
    }

    /// Granularity of [`CancelToken::sleep_cancellable`] — the worst-case
    /// extra latency a paced source adds to cancellation.
    pub(crate) const SLEEP_SLICE: std::time::Duration = std::time::Duration::from_millis(5);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        assert!(!b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
        assert!(b.is_cancelled());
        // Idempotent.
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn cancellable_sleep_wakes_early_on_cancel() {
        let token = CancelToken::new();
        // Uncancelled: sleeps the full duration.
        let t0 = std::time::Instant::now();
        assert!(!token.sleep_cancellable(std::time::Duration::from_millis(12)));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(12));
        // Cancelled mid-sleep: wakes within a few slices, not the full hour.
        let remote = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            remote.cancel();
        });
        let t0 = std::time::Instant::now();
        assert!(token.sleep_cancellable(std::time::Duration::from_secs(3600)));
        assert!(t0.elapsed() < std::time::Duration::from_secs(10), "woke early on cancel");
        canceller.join().unwrap();
    }

    #[test]
    fn token_crosses_threads() {
        let token = CancelToken::new();
        let remote = token.clone();
        let handle = std::thread::spawn(move || remote.cancel());
        handle.join().unwrap();
        assert!(token.is_cancelled());
    }
}
