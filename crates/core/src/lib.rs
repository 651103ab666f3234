//! # laminar-core
//!
//! System bootstrap: one call wires the registry, server, execution engine
//! and client into a working deployment. Three presets mirror the paper's
//! evaluation configurations (Tables 4 and 5):
//!
//! * [`Deployment::Local`] — client and server share the process; the
//!   engine provisions real (simulated-cost) environments. The "Local
//!   Execution (with Laminar)" row.
//! * [`Deployment::RemoteSimulated`] — the server runs behind a loopback
//!   HTTP listener and the engine pays a WAN latency model. The "Remote
//!   Execution (with Laminar)" row.
//! * [`Deployment::Test`] — everything instant, for unit tests.
//!
//! ```
//! use laminar_core::LaminarSystem;
//!
//! let mut system = LaminarSystem::start(laminar_core::Deployment::Test).unwrap();
//! let client = system.client_mut();
//! client.register("zz46", "password").unwrap();
//! client.login("zz46", "password").unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use laminar_client::LaminarClient;
use laminar_engine::{ExecutionEngine, NetModel};
use laminar_registry::Registry;
use laminar_script::Host;
use laminar_server::{HttpServer, LaminarServer};
use std::sync::Arc;

/// Deployment presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// In-process client+server, calibrated engine costs.
    Local,
    /// HTTP server on loopback, WAN-modelled engine.
    RemoteSimulated,
    /// In-process, all simulated costs disabled.
    Test,
}

/// A running Laminar system.
pub struct LaminarSystem {
    client: LaminarClient,
    http: Option<HttpServer>,
}

impl LaminarSystem {
    /// Start a system with the given preset.
    pub fn start(deployment: Deployment) -> Result<LaminarSystem, String> {
        Self::start_with_hosts(deployment, &[])
    }

    /// Start with simulated-service hosts pre-registered on the engine
    /// (e.g. the astro workload's `vo` service).
    pub fn start_with_hosts(
        deployment: Deployment,
        hosts: &[(&str, Arc<dyn Host + Send + Sync>)],
    ) -> Result<LaminarSystem, String> {
        let engine = match deployment {
            Deployment::Local => ExecutionEngine::new(),
            Deployment::RemoteSimulated => ExecutionEngine::new().with_net(NetModel::wan()),
            Deployment::Test => ExecutionEngine::instant(),
        };
        for (module, host) in hosts {
            engine.hosts().register(module, Arc::clone(host));
        }
        let server = LaminarServer::new(Registry::in_memory(), engine);
        let (client, http) = match deployment {
            Deployment::RemoteSimulated => {
                let http = HttpServer::start(server).map_err(|e| e.to_string())?;
                (LaminarClient::connect(http.addr()), Some(http))
            }
            _ => (LaminarClient::in_process(server), None),
        };
        Ok(LaminarSystem { client, http })
    }

    /// The client bound to this system.
    pub fn client_mut(&mut self) -> &mut LaminarClient {
        &mut self.client
    }

    /// Shut the system down (stops the HTTP listener if any).
    pub fn stop(mut self) {
        if let Some(h) = self.http.take() {
            h.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_client::RunConfig;

    const SRC: &str = "pe Gen : producer { output output; process { emit(iteration); } }";

    #[test]
    fn test_preset_runs() {
        let mut sys = LaminarSystem::start(Deployment::Test).unwrap();
        let c = sys.client_mut();
        c.register("u", "password").unwrap();
        c.login("u", "password").unwrap();
        let out = c.run_source(SRC, RunConfig::iterations(3)).unwrap();
        assert_eq!(out.port_values("Gen", "output").len(), 3);
        sys.stop();
    }

    #[test]
    fn remote_preset_serves_over_tcp() {
        let mut sys = LaminarSystem::start(Deployment::RemoteSimulated).unwrap();
        let c = sys.client_mut();
        c.register("u", "password").unwrap();
        c.login("u", "password").unwrap();
        let out = c.run_source(SRC, RunConfig::iterations(2)).unwrap();
        assert_eq!(out.port_values("Gen", "output").len(), 2);
        sys.stop();
    }

    #[test]
    fn local_preset_charges_provisioning() {
        let mut sys = LaminarSystem::start(Deployment::Local).unwrap();
        let c = sys.client_mut();
        c.register("u", "password").unwrap();
        c.login("u", "password").unwrap();
        let out = c.run_source(SRC, RunConfig::iterations(1)).unwrap();
        // Env setup ≈ 40ms under the default calibration.
        assert!(out.provision_time >= std::time::Duration::from_millis(10));
        sys.stop();
    }

    #[test]
    fn hosts_visible_to_workflows() {
        use laminar_json::Value;
        use laminar_script::{ErrorKind, ScriptError};
        struct Fixed;
        impl Host for Fixed {
            fn call(&self, _m: &str, name: &str, _a: &[Value]) -> Result<Value, ScriptError> {
                if name == "answer" {
                    Ok(Value::Int(42))
                } else {
                    Err(ScriptError::new(ErrorKind::NameError, "no such fn"))
                }
            }
        }
        let mut sys =
            LaminarSystem::start_with_hosts(Deployment::Test, &[("oracle", Arc::new(Fixed))]).unwrap();
        let c = sys.client_mut();
        c.register("u", "password").unwrap();
        c.login("u", "password").unwrap();
        let src = "pe Ask : producer { output output; process { emit(oracle.answer()); } }";
        let out = c.run_source(src, RunConfig::iterations(1)).unwrap();
        assert_eq!(out.port_values("Ask", "output")[0].as_i64(), Some(42));
        sys.stop();
    }
}
