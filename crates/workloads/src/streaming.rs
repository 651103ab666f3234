//! A long-running, source-driven streaming scenario: a sensor fleet
//! polled one reading per iteration, windowed per-sensor aggregation, and
//! live alerts — the workload shape the enactment event stream exists
//! for.
//!
//! Unlike the batch showcases (IsPrime, Astrophysics), value here arrives
//! *during* the run: the window PE emits an aggregate every
//! [`WINDOW`] readings per sensor, so the first terminal output appears
//! after a small prefix of the input while the source keeps producing.
//! "Time to first result" is therefore a small fraction of total runtime.
//! `first_window_streams_long_before_completion` below pins that on every
//! mapping without a clock: the fleet will not serve the second half of
//! the readings until a window aggregate has been observed.
//!
//! The scenario runs in its natural mode: **unbounded**
//! (`RunOptions::unbounded`) — the fleet is polled until the
//! run's `CancelToken` fires, and the stream of window aggregates is
//! sealed by the `Cancelled` marker. Fixed reading counts remain only
//! where an exact workload size is the point (benchmarks, window-count
//! assertions).

use laminar_json::{jarr, Value};
use laminar_script::{ErrorKind, Host, ScriptError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Readings per sensor folded into one window aggregate. The same value
/// appears as a literal inside [`SOURCE`] (`% 8` / `/ 8` in
/// `WindowStats`) — the `window_constant_matches_the_script` test pins
/// the two together, so change both or neither.
pub const WINDOW: usize = 8;

/// The workflow source: poll → window → (terminal stats + live alerts).
///
/// `SensorPoll` drives the run: each iteration fetches one reading from
/// the (simulated) sensor fleet — the inter-arrival latency lives in the
/// host, like a real message-bus consumer. `WindowStats` groups readings
/// by sensor id and emits `[sensor, count, mean]` on its terminal
/// `output` port every [`WINDOW`] readings; hot windows (mean > 0.75)
/// additionally go to `alerts`, which `AlertPrint` reports live.
pub const SOURCE: &str = r#"
pe SensorPoll : producer {
    doc "Polls the sensor fleet: one reading [sensor, value] per iteration";
    output output;
    process {
        emit(sensor.read(iteration));
    }
}

pe WindowStats : generic {
    doc "Folds readings into per-sensor window aggregates of mean value";
    input reading groupby 0;
    output output;
    output alerts;
    init { state.n = {}; state.sum = {}; }
    process {
        let id = reading[0];
        state.n[id] = get(state.n, id, 0) + 1;
        state.sum[id] = get(state.sum, id, 0) + reading[1];
        if state.n[id] % 8 == 0 {
            let mean = state.sum[id] / 8;
            emit([id, state.n[id], mean]);
            if mean > 0.75 { emit("alerts", [id, mean]); }
            state.sum[id] = 0;
        }
    }
}

pe AlertPrint : consumer {
    doc "Reports hot windows as they happen";
    input alert;
    process { print("ALERT sensor", alert[0], "mean", round(alert[1], 3)); }
}

workflow SensorWindows {
    doc "Streaming sensor aggregation with windowed stats and live alerts";
    nodes { poll = SensorPoll; win = WindowStats; alert = AlertPrint; }
    connect poll.output -> win.reading;
    connect win.alerts -> alert.alert;
}
"#;

/// Statistics the simulated fleet tracks.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct SensorStats {
    /// Readings served.
    reads: u64,
}

/// The simulated sensor fleet: `sensors` deterministic sources, one
/// reading per poll, each poll paying an inter-arrival latency — the
/// "source-driven" part of the scenario.
pub struct SensorFleet {
    /// Each sensor's name, `s0`, `s1`, ...: a reading clones one.
    names: Vec<String>,
    latency: Duration,
    /// Readings served: a statistic that only tests read and that publishes no
    /// other data, so `Relaxed`.
    reads: AtomicU64,
}

impl SensorFleet {
    /// A fleet of `sensors` sensors with `latency` between readings.
    pub(crate) fn new(sensors: usize, latency: Duration) -> SensorFleet {
        let names = (0..sensors.max(1)).map(|sensor| format!("s{sensor}")).collect();
        SensorFleet { names, latency, reads: AtomicU64::new(0) }
    }

    /// Zero-latency fleet for unit tests.
    pub fn instant(sensors: usize) -> SensorFleet {
        SensorFleet::new(sensors, Duration::ZERO)
    }

    /// Readings served so far.
    #[cfg(test)]
    fn stats(&self) -> SensorStats {
        SensorStats { reads: self.reads.load(Ordering::Relaxed) }
    }

    /// Deterministic reading for poll `i`: `[sensor_id, value]` with the
    /// value in `0.0..1.0`.
    pub fn reading(&self, i: i64) -> Value {
        let sensor = (i.rem_euclid(self.names.len() as i64)) as usize;
        let h = (i.wrapping_mul(2654435761)).wrapping_add(sensor as i64 * 97);
        let value = (h.unsigned_abs() % 1000) as f64 / 1000.0;
        jarr![self.names[sensor].clone(), value]
    }
}

impl Host for SensorFleet {
    fn call(&self, module: &str, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        match (module, name) {
            ("sensor", "read") => {
                let i = args
                    .first()
                    .and_then(Value::as_i64)
                    .ok_or_else(|| ScriptError::new(ErrorKind::ArgumentError, "sensor.read(iteration)"))?;
                if !self.latency.is_zero() {
                    std::thread::sleep(self.latency);
                }
                self.reads.fetch_add(1, Ordering::Relaxed);
                Ok(self.reading(i))
            }
            _ => {
                Err(ScriptError::new(ErrorKind::NameError, format!("unknown host function {module}.{name}")))
            }
        }
    }
}

/// Build the streaming graph over a fleet.
pub fn build_graph(fleet: std::sync::Arc<SensorFleet>) -> laminar_dataflow::WorkflowGraph {
    laminar_dataflow::WorkflowGraph::from_script_with_host(SOURCE, "SensorWindows", fleet)
        .expect("streaming source is valid")
}

/// Options for the scenario's natural mode: an **unbounded** enactment
/// that polls the fleet until `cancel` fires. This is what the sensor
/// workload is *for* — a fleet does not stop producing after N readings;
/// the run ends when the operator (or the server's
/// `DELETE /execution/{user}/job/{id}`) says so, and the window
/// aggregates it emitted up to that point are a valid stream prefix.
/// Bounded runs (`RunOptions::iterations`) remain available for
/// benchmarks that need an exact reading count.
#[cfg(test)]
fn unbounded_options(
    processes: usize,
    pace: Duration,
    cancel: laminar_dataflow::CancelToken,
) -> laminar_dataflow::RunOptions {
    laminar_dataflow::RunOptions::unbounded(pace, cancel).with_processes(processes)
}

/// Window aggregates a run of `readings` polls over `sensors` sensors
/// produces (the expected terminal output count).
pub fn expected_windows(readings: usize, sensors: usize) -> usize {
    let sensors = sensors.max(1);
    let per_sensor_full = readings / sensors;
    let extra = readings % sensors;
    (0..sensors).map(|s| (per_sensor_full + usize::from(s < extra)) / WINDOW).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_dataflow::mapping::{Mapping, MpiMapping, MultiMapping, RedisMapping, SimpleMapping};
    use laminar_dataflow::{fold_events, RunEvent, RunOptions};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn run(
        mapping: &dyn Mapping,
        readings: i64,
        sensors: usize,
        processes: usize,
        latency: Duration,
    ) -> laminar_dataflow::RunResult {
        let graph = build_graph(Arc::new(SensorFleet::new(sensors, latency)));
        mapping.execute(&graph, &RunOptions::iterations(readings).with_processes(processes)).unwrap()
    }

    #[test]
    fn window_constant_matches_the_script() {
        // WINDOW exists on the Rust side (expected_windows, bench config)
        // while WindowStats computes with literals; this pins them.
        assert!(
            SOURCE.contains(&format!("% {WINDOW} == 0")),
            "WindowStats' window check diverged from WINDOW = {WINDOW}"
        );
        assert!(
            SOURCE.contains(&format!("/ {WINDOW};")),
            "WindowStats' mean divisor diverged from WINDOW = {WINDOW}"
        );
    }

    #[test]
    fn graph_validates_and_windows_are_exact() {
        let graph = build_graph(Arc::new(SensorFleet::instant(4)));
        assert_eq!(graph.len(), 3);
        assert!(graph.validate().is_ok());
        let r = run(&SimpleMapping, 64, 4, 1, Duration::ZERO);
        // 64 readings over 4 sensors = 16 each = 2 full windows each.
        assert_eq!(r.port_values("WindowStats", "output").len(), expected_windows(64, 4));
        assert_eq!(expected_windows(64, 4), 8);
        assert_eq!(r.stats.processed["SensorPoll"], 64);
    }

    #[test]
    fn every_mapping_agrees_on_window_aggregates() {
        let baseline = {
            let mut v: Vec<String> = run(&SimpleMapping, 96, 3, 1, Duration::ZERO)
                .port_values("WindowStats", "output")
                .iter()
                .map(laminar_json::to_string)
                .collect();
            v.sort();
            v
        };
        for mapping in [&MultiMapping as &dyn Mapping, &MpiMapping, &RedisMapping::default()] {
            let mut got: Vec<String> = run(mapping, 96, 3, 5, Duration::ZERO)
                .port_values("WindowStats", "output")
                .iter()
                .map(laminar_json::to_string)
                .collect();
            got.sort();
            assert_eq!(got, baseline, "{} diverged", mapping.kind());
        }
    }

    #[test]
    fn alerts_fire_only_for_hot_windows() {
        let r = run(&SimpleMapping, 160, 4, 1, Duration::ZERO);
        for line in &r.printed {
            assert!(line.starts_with("ALERT sensor"), "line: {line}");
        }
        // The workload is tuned so some (not all) windows alert.
        let windows = r.port_values("WindowStats", "output").len();
        assert!(!r.printed.is_empty(), "no window exceeded the alert threshold");
        assert!(r.printed.len() < windows, "every window alerted — threshold meaningless");
    }

    #[test]
    fn first_window_streams_long_before_completion() {
        // The scenario's defining property, proved without a clock: the
        // fleet will not serve reading `READINGS / 2` until the observer has
        // seen a terminal output. A mapping that streams has long since
        // delivered one (the first window closes after 2 * WINDOW
        // readings); a mapping that holds outputs until the source finishes
        // never delivers one in time, and the read fails the run instead.
        use laminar_dataflow::RunObserver;
        use std::sync::{Condvar, Mutex as StdMutex};

        const READINGS: i64 = 400;

        #[derive(Default)]
        struct FirstOutput {
            seen: StdMutex<bool>,
            wake: Condvar,
            events: Mutex<Vec<RunEvent>>,
        }
        impl RunObserver for FirstOutput {
            fn on_event(&self, _seq: u64, event: &RunEvent) {
                self.events.lock().push(event.clone());
                if matches!(event, RunEvent::Output { .. }) {
                    *self.seen.lock().unwrap() = true;
                    self.wake.notify_all();
                }
            }
        }

        struct GatedFleet {
            fleet: SensorFleet,
            gate: Arc<FirstOutput>,
        }
        impl Host for GatedFleet {
            fn call(&self, module: &str, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
                if args.first().and_then(Value::as_i64) == Some(READINGS / 2) {
                    let seen = self.gate.seen.lock().unwrap();
                    let (seen, _) = self
                        .gate
                        .wake
                        .wait_timeout_while(seen, Duration::from_secs(30), |seen| !*seen)
                        .unwrap();
                    if !*seen {
                        return Err(ScriptError::new(
                            ErrorKind::HostError,
                            "no window reached the observer while the source ran: outputs are not streamed",
                        ));
                    }
                }
                self.fleet.call(module, name, args)
            }
        }

        for kind in [
            laminar_dataflow::MappingKind::Simple,
            laminar_dataflow::MappingKind::Multi,
            laminar_dataflow::MappingKind::Mpi,
            laminar_dataflow::MappingKind::Redis,
        ] {
            let gate = Arc::new(FirstOutput::default());
            let host = Arc::new(GatedFleet { fleet: SensorFleet::instant(2), gate: Arc::clone(&gate) });
            let graph = laminar_dataflow::WorkflowGraph::from_script_with_host(SOURCE, "SensorWindows", host)
                .expect("streaming source is valid");
            let result = kind
                .build()
                .execute_observed(
                    &graph,
                    &RunOptions::iterations(READINGS).with_processes(4),
                    Some(Arc::clone(&gate) as Arc<dyn RunObserver>),
                )
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(
                result.port_values("WindowStats", "output").len(),
                expected_windows(READINGS as usize, 2),
                "{kind}"
            );
            // And the observed stream folds back to the batch result exactly.
            let refolded = fold_events(std::mem::take(&mut *gate.events.lock()));
            assert_eq!(refolded.outputs, result.outputs, "{kind}");
            assert_eq!(refolded.stats, result.stats, "{kind}");
        }
    }

    #[test]
    fn unbounded_sensor_run_cancels_cleanly_on_every_mapping() {
        // The scenario's defining lifecycle: run with no reading limit,
        // watch window aggregates stream, stop via the token, and check
        // the recorded stream is a well-formed cancelled prefix — sealed
        // by Cancelled, whose fold is exactly the prefix-fold of the
        // events before it.
        use laminar_dataflow::{CancelToken, DataflowError};
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Watch {
            outputs: AtomicUsize,
            events: Mutex<Vec<RunEvent>>,
        }
        impl laminar_dataflow::RunObserver for Watch {
            fn on_event(&self, _seq: u64, event: &RunEvent) {
                if matches!(event, RunEvent::Output { .. }) {
                    self.outputs.fetch_add(1, Ordering::SeqCst);
                }
                self.events.lock().push(event.clone());
            }
        }

        for kind in [
            laminar_dataflow::MappingKind::Simple,
            laminar_dataflow::MappingKind::Multi,
            laminar_dataflow::MappingKind::Mpi,
            laminar_dataflow::MappingKind::Redis,
        ] {
            let token = CancelToken::new();
            let watch = Arc::new(Watch { outputs: AtomicUsize::new(0), events: Mutex::new(Vec::new()) });
            let handle = {
                let token = token.clone();
                let watch = Arc::clone(&watch);
                std::thread::spawn(move || {
                    let graph = build_graph(Arc::new(SensorFleet::instant(2)));
                    let options = super::unbounded_options(4, Duration::from_micros(100), token);
                    kind.build().execute_observed(
                        &graph,
                        &options,
                        Some(watch as Arc<dyn laminar_dataflow::RunObserver>),
                    )
                })
            };
            // Let at least two window aggregates stream before stopping.
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while watch.outputs.load(Ordering::SeqCst) < 2 {
                assert!(std::time::Instant::now() < deadline, "{kind}: no windows streamed");
                std::thread::sleep(Duration::from_millis(1));
            }
            token.cancel();
            let result = handle.join().unwrap();
            assert_eq!(result.unwrap_err(), DataflowError::Cancelled, "{kind}");

            let events = watch.events.lock().clone();
            assert!(matches!(events.last(), Some(RunEvent::Cancelled)), "{kind}: stream sealed by Cancelled");
            let windows: Vec<laminar_json::Value> = events
                .iter()
                .filter_map(|e| match e {
                    RunEvent::Output { value, .. } => Some(value.clone()),
                    _ => None,
                })
                .collect();
            assert!(windows.len() >= 2, "{kind}: cancelled after real output");
            // Every streamed aggregate is a well-formed [sensor, n, mean].
            for w in &windows {
                assert!(w[0].as_str().unwrap().starts_with('s'), "{kind}: {w:?}");
                assert_eq!(w[1].as_i64().unwrap() % WINDOW as i64, 0, "{kind}: {w:?}");
            }
            // fold(recorded prefix) == prefix-fold: the folded outputs
            // are exactly the streamed aggregates, in order, and the
            // terminal Cancelled marker itself is not counted.
            let total = events.len();
            let folded = laminar_dataflow::fold_events(events);
            assert_eq!(folded.port_values("WindowStats", "output"), &windows[..], "{kind}");
            assert_eq!(folded.stats.events, (total - 1) as u64, "{kind}: all but the Cancelled marker");
        }
    }

    #[test]
    fn fleet_latency_paces_the_source() {
        let fleet = Arc::new(SensorFleet::new(2, Duration::from_millis(1)));
        let graph = build_graph(Arc::clone(&fleet));
        let r = MultiMapping.execute(&graph, &RunOptions::iterations(32).with_processes(4)).unwrap();
        assert!(r.stats.elapsed >= Duration::from_millis(32), "32 polls x 1ms inter-arrival");
        assert_eq!(fleet.stats().reads, 32);
    }

    #[test]
    fn fleet_readings_are_deterministic_and_bounded() {
        let f = SensorFleet::instant(3);
        for i in 0..30 {
            let r = f.reading(i);
            assert_eq!(r, f.reading(i));
            let v = r[1].as_f64().unwrap();
            assert!((0.0..1.0).contains(&v), "value {v} out of range");
        }
        assert!(f.call("nope", "read", &[]).is_err());
        assert!(f.call("sensor", "read", &[]).is_err());
    }
}
