//! Host-function registry: the bridge between LamScript PEs and
//! (simulated) external services.
//!
//! Workloads register module hosts (`vo.*` for the Virtual Observatory
//! simulation, etc.) on a [`HostRegistry`]. A run calls them through its
//! own host, built once when the run starts from the modules registered
//! then plus the run's staged files (`resources.*`, paper §3.3): a module
//! registered while a run is going is seen from the next run.

use laminar_json::Value;
use laminar_script::{ErrorKind, Host, ScriptError};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

type Modules = HashMap<String, Arc<dyn Host + Send + Sync>>;

/// The registered module hosts, shared by every engine forked from one
/// prototype (one simulated service fleet per deployment). The map is
/// copy-on-write: [`Self::register`] replaces it, so a run's snapshot is
/// one `Arc` clone and the run's calls never touch the lock.
#[derive(Clone, Default)]
pub struct HostRegistry {
    modules: Arc<RwLock<Arc<Modules>>>,
}

impl HostRegistry {
    /// Empty registry.
    pub fn new() -> HostRegistry {
        HostRegistry::default()
    }

    /// Register a host for a module name (e.g. `"vo"`).
    pub fn register(&self, module: &str, host: Arc<dyn Host + Send + Sync>) {
        Arc::make_mut(&mut self.modules.write()).insert(module.to_string(), host);
    }

    /// The host one run calls: the modules registered now, and
    /// `resources` (name, bytes) as the run's staged files — the
    /// `resources/` directory of §3.3/§5.2. The host shares each file's
    /// bytes with `resources`; it copies none.
    pub(crate) fn for_run(&self, resources: &[(String, Arc<[u8]>)]) -> RunHost {
        RunHost { modules: Arc::clone(&self.modules.read()), resources: resources.iter().cloned().collect() }
    }
}

/// A call on the registry itself (a graph built outside an engine run)
/// sees the modules registered at the time of the call and no staged
/// files.
impl Host for HostRegistry {
    fn call(&self, module: &str, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        self.for_run(&[]).call(module, name, args)
    }
}

/// One run's host: a snapshot of the registered modules and the run's
/// staged files, dropped with the run.
pub(crate) struct RunHost {
    modules: Arc<Modules>,
    resources: BTreeMap<String, Arc<[u8]>>,
}

impl Host for RunHost {
    fn call(&self, module: &str, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        if module == "resources" {
            return self.call_resources(name, args);
        }
        match self.modules.get(module) {
            Some(h) => h.call(module, name, args),
            None => Err(ScriptError::new(
                ErrorKind::NameError,
                format!("module '{module}' is not installed on this engine"),
            )),
        }
    }
}

impl RunHost {
    fn call_resources(&self, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        let arg_name = match args {
            [Value::Str(s)] => s,
            _ => {
                return Err(ScriptError::new(
                    ErrorKind::ArgumentError,
                    format!("resources.{name}(path) expects one string argument"),
                ))
            }
        };
        let bytes = self.resources.get(arg_name).ok_or_else(|| {
            ScriptError::new(
                ErrorKind::HostError,
                format!(
                    "resource '{arg_name}' was not staged (available: {:?})",
                    self.resources.keys().collect::<Vec<_>>()
                ),
            )
        })?;
        match name {
            // Full text of the resource.
            "read" => Ok(Value::Str(String::from_utf8_lossy(bytes).into_owned())),
            // Non-empty lines of the resource.
            "lines" => Ok(Value::Array(
                String::from_utf8_lossy(bytes)
                    .lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(|l| Value::Str(l.to_string()))
                    .collect(),
            )),
            // Size in bytes.
            "size" => Ok(Value::Int(bytes.len() as i64)),
            other => {
                Err(ScriptError::new(ErrorKind::NameError, format!("unknown function resources.{other}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_json::jobj;

    struct Echo;
    impl Host for Echo {
        fn call(&self, module: &str, name: &str, _args: &[Value]) -> Result<Value, ScriptError> {
            Ok(jobj! { "module" => module, "name" => name })
        }
    }

    fn staged(files: &[(&str, &[u8])]) -> RunHost {
        let files: Vec<(String, Arc<[u8]>)> =
            files.iter().map(|(n, b)| (n.to_string(), Arc::from(*b))).collect();
        HostRegistry::new().for_run(&files)
    }

    #[test]
    fn routes_to_registered_module() {
        let reg = HostRegistry::new();
        reg.register("vo", Arc::new(Echo));
        for host in [&reg as &dyn Host, &reg.for_run(&[])] {
            let out = host.call("vo", "fetch", &[]).unwrap();
            assert_eq!(out["module"].as_str(), Some("vo"));
            let err = host.call("unknown", "f", &[]).unwrap_err();
            assert_eq!(err.message, "module 'unknown' is not installed on this engine");
        }
    }

    #[test]
    fn a_run_sees_the_modules_registered_when_it_started() {
        let reg = HostRegistry::new();
        reg.register("vo", Arc::new(Echo));
        let running = reg.for_run(&[]);
        reg.register("late", Arc::new(Echo));
        assert!(running.call("vo", "fetch", &[]).is_ok());
        assert!(running.call("late", "f", &[]).is_err(), "registered after the run started");
        assert!(reg.for_run(&[]).call("late", "f", &[]).is_ok(), "seen from the next run");
        assert!(reg.call("late", "f", &[]).is_ok());
    }

    #[test]
    fn resources_read_and_lines() {
        let host = staged(&[("coordinates.txt", b"10.5 41.2\n\n83.8 -5.4\n")]);
        let text = host.call("resources", "read", &[Value::Str("coordinates.txt".into())]).unwrap();
        assert!(text.as_str().unwrap().contains("83.8"));
        let lines = host.call("resources", "lines", &[Value::Str("coordinates.txt".into())]).unwrap();
        assert_eq!(lines.as_array().unwrap().len(), 2, "empty line dropped");
        let size = host.call("resources", "size", &[Value::Str("coordinates.txt".into())]).unwrap();
        assert_eq!(size.as_i64(), Some(21));
    }

    #[test]
    fn a_run_reads_the_requests_bytes_not_a_copy() {
        let bytes: Arc<[u8]> = Arc::from(&b"10.5 41.2\n"[..]);
        let host = HostRegistry::new().for_run(&[("coordinates.txt".to_string(), Arc::clone(&bytes))]);
        assert!(Arc::ptr_eq(&host.resources["coordinates.txt"], &bytes));
        let size = host.call("resources", "size", &[Value::Str("coordinates.txt".into())]).unwrap();
        assert_eq!(size.as_i64(), Some(10));
    }

    #[test]
    fn missing_resource_is_a_host_error() {
        let host = staged(&[("b.txt", b""), ("a.txt", b"")]);
        let err = host.call("resources", "read", &[Value::Str("nope.txt".into())]).unwrap_err();
        assert_eq!(err.kind, ErrorKind::HostError);
        assert_eq!(err.message, r#"resource 'nope.txt' was not staged (available: ["a.txt", "b.txt"])"#);
        let err = HostRegistry::new().call("resources", "size", &[Value::Str("a.txt".into())]).unwrap_err();
        assert_eq!(err.message, "resource 'a.txt' was not staged (available: [])");
    }

    #[test]
    fn bad_args_rejected() {
        let host = staged(&[("f", b"")]);
        let err = host.call("resources", "read", &[]).unwrap_err();
        assert_eq!(err.message, "resources.read(path) expects one string argument");
        let err = host.call("resources", "write", &[Value::Str("f".into())]).unwrap_err();
        assert_eq!(err.message, "unknown function resources.write");
    }
}
