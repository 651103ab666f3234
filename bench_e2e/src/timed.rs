//! The timed run: one closed loop on the calling thread. The client sends
//! its next op when the previous one returned (Laminar clients are
//! blocking callers), for a fixed *time*; between ops, about every 20 ms,
//! it takes one sample of the speed reference (`reference.rs`), and once a
//! second it reads the process's CPU time.
//!
//! One client and no sampler thread on purpose: the benchmark is given a
//! few cores of a shared host, and every thread that runs beside the
//! program's own measures the host's scheduler, not the program.
//!
//! The pool retains finished results, so memory is a function of how
//! many ops have completed (ISSUE finding b). `rss_peak_mb` is therefore
//! read at a frozen *op count* (`Plan::rss_mark`), not at the end of the
//! window, and a faster program does not look fatter.

use crate::ops::{Op, OP_TIMEOUT};
use crate::reference::Reference;
use crate::stats::{self, Tick};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// At most one reference sample per this much time (2-3 % of the run).
const REFERENCE_EVERY: Duration = Duration::from_millis(20);

pub struct Plan {
    /// Untimed ops before the window opens.
    pub warmup: u64,
    /// How long the window stays open: no op starts after it.
    pub window: Duration,
    /// `VmHWM` is read when this many ops, warm-up included, have run.
    pub rss_mark: u64,
    /// Whether reference samples include the kernel half.
    pub kernel_half: bool,
}

/// One successful timed op. Times in nanoseconds; `end_ns` since the
/// window opened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    pub end_ns: u64,
    pub latency_ns: u64,
    pub first_result_ns: u64,
}

/// One sample of the speed reference taken inside the window: when it
/// ended and how long its halves took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefSample {
    pub end_ns: u64,
    pub user_ns: u64,
    pub kernel_ns: u64,
}

impl RefSample {
    /// What the sample took out of the window.
    pub fn spent_ns(&self) -> u64 {
        self.user_ns + self.kernel_ns
    }
}

pub struct TimedRun {
    pub ops: Vec<OpSample>,
    pub refs: Vec<RefSample>,
    /// `ticks[0]` is the window opening, the last one its end; between
    /// them one reading at the first completion after each whole second.
    pub ticks: Vec<Tick>,
    /// Timed ops started.
    pub attempted: u64,
    pub failed: u64,
    /// The first failure's message, with its op number.
    pub first_error: Option<String>,
    pub warmup_s: f64,
    /// Resident-set growth over the last second of warm-up: near zero
    /// once the program's retention windows have filled.
    pub warmup_rss_slope_mb_per_s: f64,
    pub warmup_failed: u64,
    /// `VmHWM` at `Plan::rss_mark`; `None` when the window closed first.
    pub rss_mb_at_mark: Option<f64>,
}

/// Run one op, turning a panic or an over-long op into a failure.
fn attempt(op: &mut dyn Op, i: u64) -> Result<(Instant, u64, u64), String> {
    match catch_unwind(AssertUnwindSafe(|| op.run(i))) {
        Ok(Ok(done)) if done.measured.latency > OP_TIMEOUT => {
            Err(format!("op {i} took {:?}, over the {OP_TIMEOUT:?} limit", done.measured.latency))
        }
        Ok(Ok(done)) => Ok((
            done.measured.started + done.measured.latency,
            done.measured.latency.as_nanos() as u64,
            done.first_result.as_nanos() as u64,
        )),
        Ok(Err(message)) => Err(format!("op {i}: {message}")),
        Err(_) => Err(format!("op {i} panicked")),
    }
}

/// Drive `op` through `plan.warmup` untimed ops and then through as many
/// timed ones as start within `plan.window`. `after_warmup` runs between
/// the two phases; if it fails, the window never opens and no timed op
/// runs.
pub fn closed_loop(
    op: &mut dyn Op,
    plan: &Plan,
    reference: &mut Reference,
    after_warmup: impl FnOnce() -> Result<(), String>,
) -> Result<TimedRun, String> {
    // Warm-up, reference samples included, so the window opens on the
    // state it will keep. The resident set is watched every 100 ms.
    let warm_t0 = Instant::now();
    let mut warmup_failed = 0;
    let mut rss = vec![(0.0, stats::status_mb_now("VmRSS"))];
    let mut last_reference = Instant::now();
    for i in 0..plan.warmup {
        if let Err(message) = attempt(op, i) {
            if warmup_failed == 0 {
                eprintln!("warm-up failure: {message}");
            }
            warmup_failed += 1;
        }
        if last_reference.elapsed() >= REFERENCE_EVERY {
            reference.sample(plan.kernel_half);
            last_reference = Instant::now();
        }
        let t = warm_t0.elapsed().as_secs_f64();
        if t - rss[rss.len() - 1].0 >= 0.1 {
            rss.push((t, stats::status_mb_now("VmRSS")));
        }
    }
    let warmup_s = warm_t0.elapsed().as_secs_f64();
    rss.push((warmup_s, stats::status_mb_now("VmRSS")));
    let (t_end, rss_end) = rss[rss.len() - 1];
    let (t_ref, rss_ref) = *rss.iter().rev().find(|(t, _)| t_end - t >= 1.0).unwrap_or(&rss[0]);
    let warmup_rss_slope_mb_per_s = if t_end > t_ref { (rss_end - rss_ref) / (t_end - t_ref) } else { 0.0 };
    after_warmup()?;

    // Room for twice the ops and samples a window has ever held, so the
    // vectors do not grow while the clock runs.
    let seconds = plan.window.as_secs() as usize + 1;
    let mut run = TimedRun {
        ops: Vec::with_capacity(seconds * 20_000),
        refs: Vec::with_capacity(seconds * 100),
        ticks: Vec::with_capacity(seconds + 2),
        attempted: 0,
        failed: 0,
        first_error: None,
        warmup_s,
        warmup_rss_slope_mb_per_s,
        warmup_failed,
        rss_mb_at_mark: None,
    };
    let opened = Instant::now();
    let since = |t: Instant| t.duration_since(opened).as_nanos() as u64;
    let tick = |t_ns: u64, completed: u64| {
        let (user_ticks, sys_ticks) = stats::cpu_ticks_now();
        Tick { t_ns, completed, user_ticks, sys_ticks }
    };
    run.ticks.push(tick(0, 0));
    let mut last_reference = opened;
    let mut next_tick_ns = 1_000_000_000;
    while opened.elapsed() < plan.window {
        let i = plan.warmup + run.attempted;
        run.attempted += 1;
        match attempt(op, i) {
            Ok((ended, latency_ns, first_result_ns)) => {
                run.ops.push(OpSample { end_ns: since(ended), latency_ns, first_result_ns })
            }
            Err(message) => {
                run.failed += 1;
                run.first_error.get_or_insert(message);
            }
        }
        if i + 1 == plan.rss_mark {
            run.rss_mb_at_mark = Some(stats::status_mb_now("VmHWM"));
        }
        let now = since(Instant::now());
        if now >= next_tick_ns {
            run.ticks.push(tick(now, run.attempted));
            next_tick_ns = (now / 1_000_000_000 + 1) * 1_000_000_000;
        }
        if last_reference.elapsed() >= REFERENCE_EVERY {
            let sample = reference.sample(plan.kernel_half);
            last_reference = Instant::now();
            run.refs.push(RefSample {
                end_ns: since(last_reference),
                user_ns: sample.user_ns,
                kernel_ns: sample.kernel_ns,
            });
        }
    }
    run.ticks.push(tick(since(Instant::now()), run.attempted));
    Ok(run)
}
