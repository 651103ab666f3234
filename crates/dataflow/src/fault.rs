//! Deterministic fault injection for the durability test surface.
//!
//! A [`FaultPlan`] describes *when* the runtime should misbehave — kill
//! the run at a given epoch, delay transport sends, stop cleanly after a
//! fixed number of epochs — so the chaos suites can crash a checkpointed
//! enactment at a precise, reproducible point and then prove the refold
//! identity `fold(checkpoint + replayed events) == fold(batch)` on the
//! resumed run.
//!
//! The plan travels on [`crate::RunOptions`] (tests, benches) or on an
//! engine request's `faults` (in-process engine tests); nothing reads one
//! from the environment or the wire, so a serving process runs with none.
//! [`FaultPlan::parse`] builds one from a comma-separated list of
//! `key=value` pairs, e.g. `kill_at_epoch=3,delay_send_us=200`. A torn
//! journal segment is not a plan fault: a test tears one on disk itself
//! (`JournalStore::truncate_segment` in `laminar-engine`).
//!
//! Faults are *deterministic seams*, not random chaos: every injected
//! failure is a plain error or sleep at a well-defined point in the
//! run's control flow, so a failing case shrinks and replays exactly.

use std::time::Duration;

/// A deterministic schedule of injected failures for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Abort the enactment with [`crate::DataflowError::Injected`] right
    /// after epoch `n`'s snapshot has been emitted (and, in the engine,
    /// journaled) — simulating an engine crash at the worst moment: the
    /// checkpoint is durable but the run is gone.
    pub kill_at_epoch: Option<u64>,
    /// Finish the run cleanly after epoch `n` instead of running to the
    /// input's end. Turns an unbounded source into a bounded, exactly
    /// reproducible run of `n * checkpoint_every` iterations — the
    /// uninterrupted reference side of the chaos comparisons.
    pub stop_at_epoch: Option<u64>,
    /// Sleep this long before every transport send (parallel mappings),
    /// widening the in-flight windows that epoch quiescence must drain.
    pub delay_send: Option<Duration>,
}

impl FaultPlan {
    /// A plan with no faults (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parse `key=value` pairs (`kill_at_epoch`, `stop_at_epoch`,
    /// `delay_send_us`) separated by commas. Unknown keys and malformed
    /// numbers are ignored.
    pub fn parse(spec: &str) -> FaultPlan {
        let mut plan = FaultPlan::default();
        for pair in spec.split(',') {
            let Some((key, value)) = pair.split_once('=') else { continue };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "kill_at_epoch" => plan.kill_at_epoch = value.parse().ok(),
                "stop_at_epoch" => plan.stop_at_epoch = value.parse().ok(),
                "delay_send_us" => plan.delay_send = value.parse().ok().map(Duration::from_micros),
                _ => {}
            }
        }
        plan
    }

    /// Should the run die now, having just sealed `epoch`?
    pub(crate) fn should_kill_after(&self, epoch: u64) -> bool {
        self.kill_at_epoch.is_some_and(|n| epoch >= n)
    }

    /// Should the run finish cleanly now, having just sealed `epoch`?
    pub(crate) fn should_stop_after(&self, epoch: u64) -> bool {
        self.stop_at_epoch.is_some_and(|n| epoch >= n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_every_key() {
        let plan = FaultPlan {
            kill_at_epoch: Some(3),
            stop_at_epoch: Some(7),
            delay_send: Some(Duration::from_micros(250)),
        };
        assert_eq!(FaultPlan::parse("kill_at_epoch=3, stop_at_epoch=7,delay_send_us=250"), plan);
    }

    #[test]
    fn parse_ignores_junk() {
        let plan = FaultPlan::parse("bogus=1,kill_at_epoch=abc,stop_at_epoch=2,,=");
        assert_eq!(plan, FaultPlan { stop_at_epoch: Some(2), ..FaultPlan::default() });
        assert_eq!(FaultPlan::parse(""), FaultPlan::none());
    }

    #[test]
    fn kill_and_stop_trigger_at_or_after_their_epoch() {
        let plan = FaultPlan::parse("kill_at_epoch=2");
        assert!(!plan.should_kill_after(1));
        assert!(plan.should_kill_after(2));
        assert!(plan.should_kill_after(3));
        assert!(!plan.should_stop_after(99));
    }
}
