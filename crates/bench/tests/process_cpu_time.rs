//! `process_cpu_time` reads the whole process's CPU clock, so its test has
//! a binary of its own: a CPU-bound unit test running beside it (the
//! dataset evaluations in the library's tests) would be counted as its
//! sleep's cost.

use laminar_bench::process_cpu_time;
use std::time::{Duration, Instant};

#[test]
fn process_cpu_time_counts_work_not_sleep() {
    let t0 = process_cpu_time();
    std::thread::sleep(Duration::from_millis(50));
    let slept = process_cpu_time() - t0;
    assert!(slept < Duration::from_millis(25), "a 50 ms sleep cost {slept:?} of CPU");
    let t1 = process_cpu_time();
    let deadline = Instant::now() + Duration::from_secs(10);
    while process_cpu_time() - t1 < Duration::from_millis(10) {
        assert!(Instant::now() < deadline, "10 s of spinning never cost 10 ms of CPU");
    }
}
