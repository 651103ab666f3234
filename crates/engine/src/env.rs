//! Ephemeral environment provisioning and the library installer model.
//!
//! The paper's engine runs inside a conda environment and auto-installs
//! the imports the client's `findimports` pass detected. We model the
//! costs deterministically so benchmarks are reproducible:
//!
//! * creating an environment costs a fixed setup time;
//! * installing a library costs a per-library time derived from its name
//!   (stable across runs), unless it is cached from a previous run on a
//!   warm engine;
//! * tearing down is cheap but mandatory (ephemerality, §3).

use std::collections::BTreeSet;
use std::time::Duration;

/// Deterministic per-library install cost: 30–120 time units derived from
/// the name hash. The unit is scaled by the engine's `time_scale`.
fn install_cost_units(library: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in library.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    30 + h % 91
}

/// Report of one provisioning round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallReport {
    /// Libraries installed this round (cache misses).
    pub installed: Vec<String>,
    /// Simulated time spent installing.
    pub install_time: Duration,
    /// Simulated time spent creating the environment (zero when warm).
    pub setup_time: Duration,
}

/// Manages the engine's (simulated) Python environments.
pub struct EnvironmentManager {
    installed: BTreeSet<String>,
    env_alive: bool,
    /// Whether teardown preserves the library cache (a warm engine).
    pub keep_warm: bool,
    /// Microseconds per cost unit — calibrates simulated time. Zero makes
    /// provisioning free (unit tests).
    pub time_scale_us: u64,
}

/// Base cost (units) of creating a fresh environment.
pub const ENV_SETUP_UNITS: u64 = 400;

impl Default for EnvironmentManager {
    fn default() -> Self {
        Self::new()
    }
}

impl EnvironmentManager {
    /// Cold manager with the default time scale (100µs/unit ⇒ env setup
    /// ≈ 40ms, one library ≈ 3–12ms).
    pub fn new() -> EnvironmentManager {
        EnvironmentManager {
            installed: BTreeSet::new(),
            env_alive: false,
            keep_warm: false,
            time_scale_us: 100,
        }
    }

    /// Disable simulated delays (pure logic mode for tests).
    pub fn instant(mut self) -> EnvironmentManager {
        self.time_scale_us = 0;
        self
    }

    /// A fresh manager with the same calibration but cold caches — each
    /// pooled engine provisions its own environments.
    pub fn fork(&self) -> EnvironmentManager {
        EnvironmentManager {
            keep_warm: self.keep_warm,
            time_scale_us: self.time_scale_us,
            ..EnvironmentManager::new()
        }
    }

    fn sleep_units(&self, units: u64) -> Duration {
        let d = Duration::from_micros(units * self.time_scale_us);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
        d
    }

    /// Provision an environment able to run code with the given imports.
    /// Blocks for the simulated setup/install time and reports what it did.
    pub fn provision(&mut self, imports: &[String]) -> InstallReport {
        let mut setup_time = Duration::ZERO;
        if !self.env_alive {
            setup_time = self.sleep_units(ENV_SETUP_UNITS);
            self.env_alive = true;
        }
        let mut installed = Vec::new();
        let mut install_units = 0;
        for lib in imports {
            if !self.installed.contains(lib) {
                install_units += install_cost_units(lib);
                self.installed.insert(lib.clone());
                installed.push(lib.clone());
            }
        }
        let install_time = self.sleep_units(install_units);
        InstallReport { installed, install_time, setup_time }
    }

    /// Tear the environment down (serverless ephemerality). On a warm
    /// engine the library cache survives; cold engines forget everything.
    pub fn teardown(&mut self) {
        self.env_alive = false;
        if !self.keep_warm {
            self.installed.clear();
        }
    }

    /// Is an environment currently alive?
    pub fn is_alive(&self) -> bool {
        self.env_alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_provision_installs_everything() {
        let mut env = EnvironmentManager::new().instant();
        let report = env.provision(&["astropy".into(), "requests".into()]);
        assert_eq!(report.installed, vec!["astropy", "requests"]);
        assert!(env.is_alive());
    }

    /// One microsecond per unit: setup takes 400 µs, so a zero
    /// `setup_time` means the environment was reused.
    fn timed() -> EnvironmentManager {
        EnvironmentManager { time_scale_us: 1, ..EnvironmentManager::new() }
    }

    #[test]
    fn second_provision_same_env_hits_cache() {
        let mut env = timed();
        assert!(!env.provision(&["astropy".into()]).setup_time.is_zero());
        let report = env.provision(&["astropy".into(), "numpy".into()]);
        assert_eq!(report.installed, vec!["numpy"]);
        assert!(report.setup_time.is_zero(), "env reused while alive");
    }

    #[test]
    fn cold_teardown_forgets_installs() {
        let mut env = timed();
        env.provision(&["astropy".into()]);
        env.teardown();
        assert!(!env.is_alive());
        let report = env.provision(&["astropy".into()]);
        assert_eq!(report.installed, vec!["astropy"], "cold engine reinstalls");
        assert!(!report.setup_time.is_zero(), "a new environment");
    }

    #[test]
    fn warm_teardown_keeps_cache() {
        let mut env = EnvironmentManager::new().instant();
        env.keep_warm = true;
        env.provision(&["astropy".into()]);
        env.teardown();
        let report = env.provision(&["astropy".into()]);
        assert!(report.installed.is_empty(), "warm engine keeps libraries");
    }

    #[test]
    fn install_costs_deterministic_and_bounded() {
        for lib in ["astropy", "numpy", "requests", "x"] {
            let a = install_cost_units(lib);
            assert_eq!(a, install_cost_units(lib));
            assert!((30..=120).contains(&a), "{lib} cost {a}");
        }
        assert_ne!(install_cost_units("astropy"), install_cost_units("numpy"));
    }

    #[test]
    fn simulated_time_actually_elapses() {
        let mut env = EnvironmentManager::new();
        env.time_scale_us = 50;
        let t0 = std::time::Instant::now();
        let report = env.provision(&["somelib".into()]);
        let elapsed = t0.elapsed();
        assert!(elapsed >= report.setup_time + report.install_time - Duration::from_millis(1));
        assert!(report.setup_time >= Duration::from_millis(10));
    }
}
