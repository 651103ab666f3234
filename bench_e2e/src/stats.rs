//! The estimators. Two earlier benchmarks for this repo were rejected as
//! too noisy because of estimator choice, so every number the benchmark
//! reports goes through one of the few functions here, and each is
//! pinned by a unit test.
//!
//! The noise on the shared machine is its co-tenants, and it comes in
//! two kinds. The machine as a whole runs 10-60 % slower, for a fraction
//! of a second or for an hour: that is divided out against the speed
//! reference (`reference.rs`) — op by op for the latency
//! ([`at_nominal_speed`]), second by second for the rate and the CPU
//! cost ([`intervals`]). And what the reference does not see (the slow
//! machine slows a 17 ms op by more than it slows the reference), which
//! only ever *adds* time: against that the window is cut into its
//! seconds and every time metric is a *quartile* of the per-second
//! figures, taken from the side interference cannot reach. A quartile
//! does not move until a quarter of the run's seconds have moved, and,
//! unlike a minimum or maximum, it does not drift with the number of
//! seconds measured.

use crate::reference::Speed;
use crate::timed::{OpSample, RefSample};

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. `p` in
/// `(0, 100]`; an empty slice yields 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Nearest rank of the `p`-th percentile among `n >= 1` samples, in
/// `1..=n`. The small slack keeps `99.9 % of 10 000` at 9 990 although
/// the product is not exact in binary.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Sort a copy ascending (samples are finite by construction).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median (nearest rank) of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n` (choosing-metrics §1); `None`
/// when even p90 does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0].into_iter().find(|p| n >= rank(*p, n.max(1)) + 10)
}

/// One reading of the once-a-second sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// Nanoseconds since the measured window opened.
    pub t_ns: u64,
    /// Ops completed by all clients so far.
    pub completed: u64,
    /// Process CPU time so far in user mode (utime), in clock ticks.
    pub user_ticks: u64,
    /// And in the kernel (stime).
    pub sys_ticks: u64,
}

impl Tick {
    pub fn cpu_ticks(&self) -> u64 {
        self.user_ticks + self.sys_ticks
    }
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`; 100 on
/// every Linux this runs on).
pub const CLK_TCK: f64 = 100.0;

/// Lower quartile (nearest rank) of unsorted samples: the estimator for
/// costs, which interference can only raise.
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(&sorted(values), 25.0)
}

/// Upper quartile (nearest rank) of unsorted samples: the estimator for
/// rates, which interference can only lower.
pub fn upper_quartile(values: &[f64]) -> f64 {
    percentile(&sorted(values), 75.0)
}

/// Reference samples an op is paired with: the nearest in time, half
/// before and half after its end (about +-120 ms at one sample per 20 ms).
const PAIRED: usize = 12;

/// How much slower than nominal the machine ran while `samples` were
/// taken: each half's *mean*, blended. Much of the interference is
/// stalls that hit one sample in ten; they hit every tenth part of a
/// long op as well, so a median of samples, which drops them, left
/// same-code runs of the 10-17 ms ops three times further apart.
fn slowdown(samples: &[RefSample], speed: &Speed) -> f64 {
    let mean =
        |of: fn(&RefSample) -> u64| samples.iter().map(|r| of(r) as f64).sum::<f64>() / samples.len() as f64;
    speed.slowdown(mean(|r| r.user_ns), mean(|r| r.kernel_ns))
}

/// Every op's `value` (its latency, say) in milliseconds on a machine at
/// nominal speed: divided by the slowdown of the `PAIRED` reference
/// samples nearest to the op's end, raised to `exponent` — 1 for work
/// that takes twice as long on a machine half as fast. `refs` are in the
/// order they were taken. Without reference samples the values come back
/// as measured.
pub fn at_nominal_speed(
    ops: &[OpSample],
    value: fn(&OpSample) -> u64,
    refs: &[RefSample],
    speed: &Speed,
    exponent: f64,
) -> Vec<f64> {
    ops.iter()
        .map(|op| {
            let ms = value(op) as f64 / 1e6;
            if refs.is_empty() {
                return ms;
            }
            let after = refs.partition_point(|r| r.end_ns < op.end_ns);
            let from = after.saturating_sub(PAIRED / 2).min(refs.len().saturating_sub(PAIRED));
            ms / slowdown(&refs[from..(from + PAIRED).min(refs.len())], speed).powf(exponent)
        })
        .collect()
}

/// The median of `values` (one per op, in the order of `ops`) within each
/// whole second of the window, by when the ops ended. The leftover after
/// the last whole second is dropped, as is a second with fewer than
/// three ops; a window shorter than a second (`--smoke`) is one group.
pub fn per_second_medians(ops: &[OpSample], values: &[f64], window_ns: u64) -> Vec<f64> {
    const SECOND: u64 = 1_000_000_000;
    let seconds = (window_ns / SECOND) as usize;
    if seconds == 0 {
        return if values.is_empty() { Vec::new() } else { vec![median(values)] };
    }
    let mut groups: Vec<Vec<f64>> = vec![Vec::new(); seconds];
    for (op, value) in ops.iter().zip(values) {
        if let Some(group) = groups.get_mut((op.end_ns / SECOND) as usize) {
            group.push(*value);
        }
    }
    groups.iter().filter(|g| g.len() >= 3).map(|g| median(g)).collect()
}

/// What the window held between two consecutive readings of the clock
/// and the CPU time: about one second of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Ops per second of the interval, the reference's own time taken out.
    pub ops_per_s: f64,
    /// Process CPU milliseconds per op, the reference's taken out.
    pub cpu_ms_per_op: f64,
    /// How much slower than nominal the machine ran in the interval.
    pub slowdown: f64,
}

impl Interval {
    /// The same interval on a machine at nominal speed.
    pub fn at_nominal_speed(&self) -> Interval {
        Interval {
            ops_per_s: self.ops_per_s * self.slowdown,
            cpu_ms_per_op: self.cpu_ms_per_op / self.slowdown,
            slowdown: 1.0,
        }
    }
}

/// Shorter than this, an interval between two readings is a leftover
/// (the end of the window), not a second.
const MIN_INTERVAL_NS: u64 = 500_000_000;

/// Cut the window at its readings. `ticks` holds the opening, one
/// reading after each whole second and the closing one; a reference
/// sample belongs to the interval it ended in. Leftovers shorter than
/// half a second are dropped, as are intervals without a completed op or
/// a reference sample; a window too short to hold one whole interval
/// (`--smoke`) is taken as a single one.
pub fn intervals(ticks: &[Tick], refs: &[RefSample], speed: &Speed) -> Vec<Interval> {
    let mut pairs: Vec<(Tick, Tick)> =
        ticks.windows(2).map(|w| (w[0], w[1])).filter(|(a, b)| b.t_ns - a.t_ns >= MIN_INTERVAL_NS).collect();
    if pairs.is_empty() && ticks.len() >= 2 {
        pairs.push((ticks[0], ticks[ticks.len() - 1]));
    }
    pairs
        .into_iter()
        .filter_map(|(a, b)| {
            let inside: Vec<RefSample> =
                refs.iter().copied().filter(|r| r.end_ns > a.t_ns && r.end_ns <= b.t_ns).collect();
            let completed = b.completed.saturating_sub(a.completed);
            if inside.is_empty() || completed == 0 {
                return None;
            }
            // The reference ran on the client's thread and core: its time
            // is neither the program's elapsed time nor the program's CPU.
            let reference_ms = inside.iter().map(|r| r.spent_ns()).sum::<u64>() as f64 / 1e6;
            let elapsed_ms = ((b.t_ns - a.t_ns) as f64 / 1e6 - reference_ms).max(1e-6);
            let cpu_ms = b.cpu_ticks().saturating_sub(a.cpu_ticks()) as f64 * 1000.0 / CLK_TCK - reference_ms;
            Some(Interval {
                ops_per_s: completed as f64 * 1000.0 / elapsed_ms,
                cpu_ms_per_op: cpu_ms.max(0.0) / completed as f64,
                slowdown: slowdown(&inside, speed),
            })
        })
        .collect()
}

/// `(utime, stime)` in clock ticks from the text of `/proc/self/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// A `kB` line (`VmHWM`, `VmRSS`) from the text of `/proc/self/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse().ok())
}

/// Process CPU ticks so far, `(user, kernel)` (zeros when `/proc` is
/// unreadable).
pub fn cpu_ticks_now() -> (u64, u64) {
    std::fs::read_to_string("/proc/self/stat").ok().and_then(|s| parse_stat_cpu_ticks(&s)).unwrap_or((0, 0))
}

/// A `kB` line of this process's status, in MB (0 when unreadable).
pub fn status_mb_now(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, key))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 51.0), 6.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.001), 1.0);
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_ignores_input_order() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0];
        assert_eq!(median(&v), 4.0);
        assert_eq!(sorted(&v)[7], 9.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(50), None);
        // p90 of 100 is rank 90: exactly ten samples lie beyond it.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(0), None);
    }

    fn tick(t_s: f64, completed: u64, cpu_ticks: u64) -> Tick {
        Tick {
            t_ns: (t_s * 1e9) as u64,
            completed,
            user_ticks: cpu_ticks / 2,
            sys_ticks: cpu_ticks - cpu_ticks / 2,
        }
    }

    fn op(end_s: f64, latency_ms: f64) -> OpSample {
        let latency_ns = (latency_ms * 1e6) as u64;
        OpSample { end_ns: (end_s * 1e9) as u64, latency_ns, first_result_ns: latency_ns / 2 }
    }

    fn reference(end_s: f64, user_ms: f64, kernel_ms: f64) -> RefSample {
        RefSample {
            end_ns: (end_s * 1e9) as u64,
            user_ns: (user_ms * 1e6) as u64,
            kernel_ns: (kernel_ms * 1e6) as u64,
        }
    }

    /// Nominal halves of 1 ms and 0.5 ms, blended 3 : 1.
    const SPEED: Speed = Speed { nominal_user_us: 1000.0, nominal_kernel_us: 500.0, edge_share: 0.25 };

    #[test]
    fn an_interval_takes_the_reference_out_of_elapsed_and_cpu_time() {
        // One second and 4.5 ms: 100 ops, three reference samples of
        // 1.5 ms each, 90 ticks = 900 ms of CPU.
        let ticks = [tick(0.0, 0, 1000), tick(1.0045, 100, 1090)];
        let refs = [reference(0.3, 1.0, 0.5), reference(0.6, 1.0, 0.5), reference(0.9, 1.0, 0.5)];
        let got = intervals(&ticks, &refs, &SPEED);
        assert_eq!(got.len(), 1);
        assert!((got[0].ops_per_s - 100.0).abs() < 1e-6, "{:?}", got[0]);
        assert!((got[0].cpu_ms_per_op - 8.955).abs() < 1e-9, "{:?}", got[0]);
        assert_eq!(got[0].slowdown, 1.0);
    }

    #[test]
    fn samples_belong_to_the_interval_they_ended_in_and_leftovers_are_dropped() {
        let ticks = [tick(0.0, 0, 0), tick(1.0, 10, 50), tick(2.01, 30, 100), tick(2.2, 33, 110)];
        let refs = [reference(1.0, 1.0, 0.5), reference(1.9, 2.0, 2.0), reference(2.15, 1.0, 0.5)];
        let got = intervals(&ticks, &refs, &SPEED);
        // The 0.19 s tail is no interval; the sample ending exactly on the
        // first reading is inside the first.
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].slowdown, got[1].slowdown), (1.0, 0.75 * 2.0 + 0.25 * 4.0));
        assert!((got[1].ops_per_s - 20.0 / 1.006).abs() < 1e-6, "{:?}", got[1]);
    }

    #[test]
    fn an_interval_without_ops_or_reference_is_skipped_and_a_short_window_is_one_interval() {
        let ticks = [tick(0.0, 0, 0), tick(1.0, 5, 10), tick(2.0, 5, 20), tick(3.0, 9, 30)];
        // No op completed in the second interval, no reference sample in the third.
        assert_eq!(intervals(&ticks, &[reference(0.7, 1.0, 0.5), reference(1.5, 1.0, 0.5)], &SPEED).len(), 1);
        let short = [tick(0.0, 0, 0), tick(0.2, 4, 2)];
        let got = intervals(&short, &[reference(0.15, 0.5, 0.5)], &SPEED);
        assert_eq!(got.len(), 1);
        assert!((got[0].ops_per_s - 4.0 / 0.199).abs() < 1e-6, "{:?}", got[0]);
        assert!(intervals(&short[..1], &[], &SPEED).is_empty());
    }

    #[test]
    fn correcting_to_nominal_speed_cancels_a_slow_machine() {
        // The same program on a machine 1.5x slower: every cost is 1.5x,
        // the rate 1/1.5.
        let quiet = Interval { ops_per_s: 90.0, cpu_ms_per_op: 9.0, slowdown: 1.0 };
        let slow = Interval { ops_per_s: 60.0, cpu_ms_per_op: 13.5, slowdown: 1.5 };
        assert_eq!(slow.at_nominal_speed(), quiet);
        assert_eq!(quiet.at_nominal_speed(), quiet);
    }

    #[test]
    fn an_op_is_corrected_by_the_reference_samples_around_it() {
        // The machine runs at nominal speed for two seconds, then 2x
        // slower (both halves): forty samples, one per 100 ms.
        let refs: Vec<RefSample> = (0..40)
            .map(|i| {
                if i < 20 {
                    reference(i as f64 * 0.1, 1.0, 0.5)
                } else {
                    reference(i as f64 * 0.1, 2.0, 1.0)
                }
            })
            .collect();
        let ops = [op(0.85, 8.0), op(3.05, 16.0), op(0.0, 8.0), op(9.9, 16.0)];
        let latency =
            |ops: &[OpSample], refs: &[RefSample]| at_nominal_speed(ops, |o| o.latency_ns, refs, &SPEED, 1.0);
        // Well inside either stretch, at the very start and long after
        // the last sample: the nearest twelve decide.
        assert_eq!(latency(&ops, &refs), [8.0, 8.0, 8.0, 8.0]);
        // An exponent of one half: the square root of the slowdown.
        let first = at_nominal_speed(&ops, |o| o.first_result_ns, &refs, &SPEED, 0.5);
        assert!((first[1] - 8.0 / 2f64.sqrt()).abs() < 1e-12 && first[0] == 4.0, "{first:?}");
        // On the boundary the twelve nearest are half and half: the mean
        // slowdown is 1.5.
        assert_eq!(latency(&[op(1.95, 12.0)], &refs), [8.0]);
        // One sample in twelve stalled for 13 ms: the mean carries it.
        let mut stalled = refs[..12].to_vec();
        stalled[5] = reference(0.5, 13.0, 0.5);
        assert_eq!(latency(&[op(0.55, 16.0)], &stalled), [16.0 / (0.75 * 2.0 + 0.25)]);
        // Fewer samples than a pairing, or none.
        assert_eq!(latency(&ops[..1], &refs[38..]), [4.0]);
        assert_eq!(latency(&ops[..1], &[]), [8.0]);
    }

    #[test]
    fn latencies_are_grouped_by_the_second_they_ended_in() {
        // Three ops in the first second, two in the second, four in the
        // third, one in the leftover.
        let ends = [0.1, 0.5, 0.9, 1.2, 1.8, 2.0, 2.3, 2.6, 2.9, 3.2];
        let ops: Vec<OpSample> = ends.iter().map(|t| op(*t, 1.0)).collect();
        let values = [5.0, 7.0, 6.0, 1.0, 1.0, 9.0, 8.0, 8.5, 9.5, 100.0];
        // The second with two ops has no median worth the name; 3.2 s lies
        // past the last whole second of a 3.4 s window.
        assert_eq!(per_second_medians(&ops, &values, 3_400_000_000), [6.0, 8.5]);
        // A window shorter than a second is one group.
        assert_eq!(per_second_medians(&ops[..3], &values[..3], 950_000_000), [6.0]);
        assert!(per_second_medians(&[], &[], 950_000_000).is_empty());
    }

    #[test]
    fn quartiles_ignore_a_disturbed_minority_and_do_not_chase_the_extreme() {
        // Twelve seconds: eight quiet, three disturbed, one freak.
        let cost = [5.0, 5.1, 5.2, 5.0, 7.9, 8.1, 5.1, 5.3, 8.0, 5.2, 5.1, 3.0];
        // Rank ceil(0.25 * 12) = 3 of the ascending costs: 3.0, 5.0, 5.0.
        assert_eq!(lower_quartile(&cost), 5.0);
        let rate: Vec<f64> = cost.iter().map(|c| 1000.0 / c).collect();
        // Rank 9 of the ascending rates, the fourth highest: 1000 / 3.0,
        // 1000 / 5.0 twice, then 1000 / 5.1.
        assert_eq!(upper_quartile(&rate), 1000.0 / 5.1);
        assert_eq!(lower_quartile(&[4.0]), 4.0);
        assert_eq!(upper_quartile(&[]), 0.0);
    }

    /// Captured from a live process whose name holds a space and a `)`.
    const STAT_FIXTURE: &str = "4242 (bench e2e) x) S 4100 4242 4100 34816 4242 4194304 12345 0 3 0 \
        1527 389 0 0 20 0 5 0 8812345 1234567168 45678 18446744073709551615 1 1 0 0 0 0 0 4096 \
        17642 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    #[test]
    fn stat_cpu_ticks_are_fields_14_and_15_after_the_last_paren() {
        assert_eq!(parse_stat_cpu_ticks(STAT_FIXTURE), Some((1527, 389)));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no paren"), None);
    }

    const STATUS_FIXTURE: &str = "Name:\tbench_e2e\nUmask:\t0022\nState:\tR (running)\nVmPeak:\t  \
        812340 kB\nVmSize:\t  801200 kB\nVmHWM:\t  694212 kB\nVmRSS:\t  120004 kB\nThreads:\t5\n";

    #[test]
    fn status_lines_parse_in_kb() {
        assert_eq!(parse_status_kb(STATUS_FIXTURE, "VmHWM"), Some(694_212));
        assert_eq!(parse_status_kb(STATUS_FIXTURE, "VmRSS"), Some(120_004));
        assert_eq!(parse_status_kb(STATUS_FIXTURE, "VmSwap"), None);
        // A key that is a prefix of another line's key must not match it.
        assert_eq!(parse_status_kb(STATUS_FIXTURE, "Vm"), None);
    }

    #[test]
    fn live_proc_readings_are_sane() {
        assert!(status_mb_now("VmHWM") > 0.0);
        assert!(status_mb_now("VmHWM") >= status_mb_now("VmRSS") * 0.5);
        let before = cpu_ticks_now();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ticks_now() >= before, "{x}");
    }
}
