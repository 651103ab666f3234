//! Runtime Processing Elements.
//!
//! Two families implement the same [`Pe`] trait:
//!
//! * [`ScriptPe`] — a LamScript `pe` declaration compiled to bytecode.
//!   This is the serverless path: the source travels through the registry
//!   and the engine, and each instance keeps its own VM state.
//! * [`NativePe`] / the [`producer_fn`]/[`iterative_fn`]/[`consumer_fn`]
//!   builders — Rust closures, used by baselines and benchmarks where
//!   script overhead must be excluded.

use crate::error::DataflowError;
use laminar_json::Value;
use laminar_script::runtime::DEFAULT_SEED;
use laminar_script::{
    analysis, prepare, Host, NullHost, PeDecl, PeKind, PortDecl, Prepared, Program, Sink, Vm,
};
use std::sync::Arc;

/// Static description of a PE: ports, kind, provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct PeMeta {
    /// PE class name.
    pub name: String,
    /// Archetype.
    pub kind: PeKind,
    /// Input ports (with group-by info).
    pub inputs: Vec<PortDecl>,
    /// Output port names.
    pub outputs: Vec<String>,
    /// Declared + inferred library imports (drives the engine installer).
    pub imports: Vec<String>,
    /// Optional human description (the registry may overwrite with a
    /// generated summary).
    pub description: Option<String>,
    /// Whether the PE keeps per-instance state.
    pub stateful: bool,
}

impl PeMeta {
    /// Metadata extracted from a parsed LamScript PE declaration.
    pub fn from_decl(decl: &PeDecl) -> PeMeta {
        PeMeta {
            name: decl.name.clone(),
            kind: decl.kind,
            inputs: decl.inputs.clone(),
            outputs: decl.outputs.clone(),
            imports: analysis::pe_imports(decl),
            description: decl.doc.clone(),
            stateful: decl.is_stateful(),
        }
    }

    /// Does this PE have an input port with the given name?
    pub fn has_input(&self, port: &str) -> bool {
        self.inputs.iter().any(|p| p.name == port)
    }

    /// Does this PE have an output port with the given name?
    pub fn has_output(&self, port: &str) -> bool {
        self.outputs.iter().any(|p| p == port)
    }

    /// Group-by key for an input port, if declared.
    pub fn groupby(&self, port: &str) -> Option<usize> {
        self.inputs.iter().find(|p| p.name == port).and_then(|p| p.groupby)
    }
}

/// A runtime PE instance. One instance == one unit of parallelism.
pub trait Pe: Send {
    /// Static metadata.
    fn meta(&self) -> &PeMeta;

    /// Called once before any data, with the instance index (0-based) and
    /// total instance count — PEs occasionally need them (e.g. sharded
    /// producers).
    fn setup(&mut self, _instance: usize, _total: usize, _out: &mut dyn Sink) -> Result<(), DataflowError> {
        Ok(())
    }

    /// Process one datum (`Some((port, value))`) or one producer iteration
    /// (`None`). Emissions go to `out`.
    fn process(
        &mut self,
        input: Option<(&str, Value)>,
        iteration: i64,
        out: &mut dyn Sink,
    ) -> Result<(), DataflowError>;

    /// Capture the instance's durable cross-invocation state for an epoch
    /// checkpoint, or `None` if this PE kind has nothing snapshotable
    /// (native closure PEs). For scripted PEs the snapshot covers the
    /// script's `state.*` value — which is where group-by tables live —
    /// plus the VM's RNG; the interpreter oracle (`laminar_oracle`) must
    /// produce byte-identical snapshots for the same history.
    fn snapshot_state(&self) -> Option<Value> {
        None
    }

    /// Restore state captured by [`Pe::snapshot_state`]. Called after
    /// [`Pe::setup`] (so `init` has run and the backend exists); the
    /// restored state overwrites whatever `init` produced. No-op for PEs
    /// that return `None` from `snapshot_state`.
    fn restore_state(&mut self, _snapshot: &Value) {}
}

/// A cloneable recipe producing fresh [`Pe`] instances; the graph stores
/// factories, mappings instantiate them per-instance.
pub trait PeFactory: Send + Sync {
    /// Static metadata (shared by all instances).
    fn meta(&self) -> &PeMeta;
    /// Create a fresh instance with isolated state.
    fn instantiate(&self) -> Box<dyn Pe>;
}

// ---------------------------------------------------------------------------
// Scripted PEs
// ---------------------------------------------------------------------------

/// Factory for script-defined PEs: a declaration's metadata plus the
/// compiled program of the [`Prepared`] script it came from, which its
/// instances run on the [`Vm`]. A script the compiler rejects never gets
/// this far — [`prepare`] is the only way to a program.
pub struct ScriptPeFactory {
    meta: PeMeta,
    host: Arc<dyn Host + Send + Sync>,
    program: Arc<Program>,
}

impl ScriptPeFactory {
    /// Prepare `source` and build a factory for the PE named `pe_name`.
    pub fn from_source(source: &str, pe_name: &str) -> Result<Self, DataflowError> {
        let prepared =
            prepare(source).map_err(|e| DataflowError::PeFailed { pe: pe_name.into(), error: e })?;
        Self::from_prepared(&prepared, pe_name, Arc::new(NullHost))
    }

    /// Factory for the PE named `pe_name` of a prepared script.
    pub fn from_prepared(
        prepared: &Prepared,
        pe_name: &str,
        host: Arc<dyn Host + Send + Sync>,
    ) -> Result<Self, DataflowError> {
        let decl = prepared
            .script()
            .pe(pe_name)
            .ok_or_else(|| DataflowError::Graph(format!("source defines no PE named '{pe_name}'")))?;
        Ok(Self::new(decl, prepared, host))
    }

    /// `decl` must be a declaration of `prepared`'s script.
    pub(crate) fn new(decl: &PeDecl, prepared: &Prepared, host: Arc<dyn Host + Send + Sync>) -> Self {
        ScriptPeFactory { meta: PeMeta::from_decl(decl), host, program: Arc::clone(prepared.program()) }
    }
}

impl PeFactory for ScriptPeFactory {
    fn meta(&self) -> &PeMeta {
        &self.meta
    }

    fn instantiate(&self) -> Box<dyn Pe> {
        Box::new(ScriptPe {
            meta: self.meta.clone(),
            host: Arc::clone(&self.host),
            program: Arc::clone(&self.program),
            vm: None,
            state: Value::Null,
        })
    }
}

/// A running scripted PE instance.
pub struct ScriptPe {
    meta: PeMeta,
    host: Arc<dyn Host + Send + Sync>,
    program: Arc<Program>,
    vm: Option<Vm>,
    state: Value,
}

impl Pe for ScriptPe {
    fn meta(&self) -> &PeMeta {
        &self.meta
    }

    fn setup(&mut self, instance: usize, _total: usize, out: &mut dyn Sink) -> Result<(), DataflowError> {
        let mut vm = Vm::new(Arc::clone(&self.program), Arc::clone(&self.host))
            .with_seed(DEFAULT_SEED.wrapping_add(instance as u64));
        let r = vm.run_init(&self.meta.name, &mut self.state, out);
        self.vm = Some(vm);
        r.map_err(|e| DataflowError::PeFailed { pe: self.meta.name.clone(), error: e })
    }

    fn process(
        &mut self,
        input: Option<(&str, Value)>,
        iteration: i64,
        out: &mut dyn Sink,
    ) -> Result<(), DataflowError> {
        if self.vm.is_none() {
            self.setup(0, 1, out)?;
        }
        let (value, port) = match input {
            Some((p, v)) => (Some(v), Some(p)),
            None => (None, None),
        };
        let returned = self
            .vm
            .as_mut()
            .expect("setup ran")
            .run_process(&self.meta.name, value, port, iteration, &mut self.state, out)
            .map_err(|e| DataflowError::PeFailed { pe: self.meta.name.clone(), error: e })?;
        // dispel4py shorthand: a returned value is written to the default
        // output port.
        if let Some(v) = returned {
            if let Some(port) = self.meta.outputs.first() {
                out.emit(port, v);
            }
        }
        Ok(())
    }

    fn snapshot_state(&self) -> Option<Value> {
        // The instance's entire cross-invocation footprint: the script's
        // `state.*` value and the RNG position. Fuel resets every
        // invocation and VM scratch buffers are cleared, so neither is
        // state.
        let mut snap = Value::Null;
        snap.set("state", self.state.clone()).set("rng", self.vm.as_ref()?.rng_state() as i64);
        Some(snap)
    }

    fn restore_state(&mut self, snapshot: &Value) {
        self.state = snapshot["state"].clone();
        if let Some(vm) = self.vm.as_mut() {
            vm.set_rng_state(snapshot["rng"].as_i64().unwrap_or(0) as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Native PEs
// ---------------------------------------------------------------------------

type NativeFn = dyn FnMut(Option<(&str, Value)>, i64, &mut dyn Sink) -> Result<(), DataflowError> + Send;

/// A PE whose behaviour is a Rust closure. Build via [`producer_fn`],
/// [`iterative_fn`], [`consumer_fn`] or [`NativePe::generic`].
pub struct NativePe {
    meta: PeMeta,
    behaviour: Box<NativeFn>,
}

impl Pe for NativePe {
    fn meta(&self) -> &PeMeta {
        &self.meta
    }

    fn process(
        &mut self,
        input: Option<(&str, Value)>,
        iteration: i64,
        out: &mut dyn Sink,
    ) -> Result<(), DataflowError> {
        (self.behaviour)(input, iteration, out)
    }
}

/// Factory for native PEs: holds a constructor closure so each instance
/// gets fresh captured state.
pub struct NativePeFactory {
    meta: PeMeta,
    make: Box<dyn Fn() -> Box<NativeFn> + Send + Sync>,
}

impl NativePeFactory {
    /// Generic constructor: full control over ports and behaviour.
    pub fn new(meta: PeMeta, make: impl Fn() -> Box<NativeFn> + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(NativePeFactory { meta, make: Box::new(make) })
    }
}

impl PeFactory for NativePeFactory {
    fn meta(&self) -> &PeMeta {
        &self.meta
    }

    fn instantiate(&self) -> Box<dyn Pe> {
        Box::new(NativePe { meta: self.meta.clone(), behaviour: (self.make)() })
    }
}

fn native_meta(
    name: &str,
    kind: PeKind,
    inputs: Vec<PortDecl>,
    outputs: Vec<String>,
    stateful: bool,
) -> PeMeta {
    PeMeta { name: name.to_string(), kind, inputs, outputs, imports: vec![], description: None, stateful }
}

/// Native producer: `f(iteration)` returns the datum for the default output.
pub fn producer_fn<F>(name: &str, f: F) -> Arc<NativePeFactory>
where
    F: Fn(i64) -> Value + Send + Sync + Clone + 'static,
{
    let meta = native_meta(name, PeKind::Producer, vec![], vec!["output".into()], false);
    NativePeFactory::new(meta, move || {
        let f = f.clone();
        Box::new(move |_input, iteration, out| {
            out.emit("output", f(iteration));
            Ok(())
        })
    })
}

/// Native iterative PE: `f(datum)` returns `Some(mapped)` to forward or
/// `None` to drop.
pub fn iterative_fn<F>(name: &str, f: F) -> Arc<NativePeFactory>
where
    F: Fn(Value) -> Option<Value> + Send + Sync + Clone + 'static,
{
    let meta = native_meta(
        name,
        PeKind::Iterative,
        vec![PortDecl { name: "input".into(), groupby: None }],
        vec!["output".into()],
        false,
    );
    NativePeFactory::new(meta, move || {
        let f = f.clone();
        Box::new(move |input, _iteration, out| {
            if let Some((_, v)) = input {
                if let Some(mapped) = f(v) {
                    out.emit("output", mapped);
                }
            }
            Ok(())
        })
    })
}

/// Native consumer: `f(datum)` runs for its side effects (often `print`).
pub fn consumer_fn<F>(name: &str, f: F) -> Arc<NativePeFactory>
where
    F: Fn(Value, &mut dyn Sink) + Send + Sync + Clone + 'static,
{
    let meta = native_meta(
        name,
        PeKind::Consumer,
        vec![PortDecl { name: "input".into(), groupby: None }],
        vec![],
        false,
    );
    NativePeFactory::new(meta, move || {
        let f = f.clone();
        Box::new(move |input, _iteration, out| {
            if let Some((_, v)) = input {
                f(v, out);
            }
            Ok(())
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_script::VecSink;

    const SRC: &str = r#"
        pe Producer : producer { output output; process { emit(iteration * 10); } }
        pe Stateful : iterative {
            input x; output output;
            init { state.seen = 0; }
            process { state.seen = state.seen + 1; emit(state.seen); }
        }
    "#;

    #[test]
    fn script_pe_meta() {
        let f = ScriptPeFactory::from_source(SRC, "Stateful").unwrap();
        let m = f.meta();
        assert_eq!(m.name, "Stateful");
        assert_eq!(m.kind, PeKind::Iterative);
        assert!(m.stateful);
        assert!(m.has_input("x"));
        assert!(m.has_output("output"));
        assert!(!m.has_input("nope"));
    }

    #[test]
    fn unknown_pe_name_fails() {
        assert!(matches!(ScriptPeFactory::from_source(SRC, "Missing"), Err(DataflowError::Graph(_))));
    }

    #[test]
    fn instances_have_isolated_state() {
        let f = ScriptPeFactory::from_source(SRC, "Stateful").unwrap();
        let mut a = f.instantiate();
        let mut b = f.instantiate();
        let mut sink = VecSink::default();
        for _ in 0..3 {
            a.process(Some(("x", Value::Int(0))), 0, &mut sink).unwrap();
        }
        b.process(Some(("x", Value::Int(0))), 0, &mut sink).unwrap();
        let counts: Vec<i64> = sink.emitted.iter().map(|(_, v)| v.as_i64().unwrap()).collect();
        // a counted 1,2,3; b restarted at 1.
        assert_eq!(counts, vec![1, 2, 3, 1]);
    }

    #[test]
    fn producer_iteration_flows() {
        let f = ScriptPeFactory::from_source(SRC, "Producer").unwrap();
        let mut p = f.instantiate();
        let mut sink = VecSink::default();
        for it in 0..3 {
            p.process(None, it, &mut sink).unwrap();
        }
        let vals: Vec<i64> = sink.emitted.iter().map(|(_, v)| v.as_i64().unwrap()).collect();
        assert_eq!(vals, vec![0, 10, 20]);
    }

    #[test]
    fn distinct_instances_get_distinct_rng_streams() {
        let src = "pe R : producer { output output; process { emit(randint(1, 1000000)); } }";
        let f = ScriptPeFactory::from_source(src, "R").unwrap();
        let mut a = f.instantiate();
        let mut b = f.instantiate();
        let mut sa = VecSink::default();
        let mut sb = VecSink::default();
        a.setup(0, 2, &mut sa).unwrap();
        b.setup(1, 2, &mut sb).unwrap();
        a.process(None, 0, &mut sa).unwrap();
        b.process(None, 0, &mut sb).unwrap();
        assert_ne!(sa.emitted, sb.emitted, "instance RNGs must differ");
    }

    #[test]
    fn native_pes_have_no_snapshot() {
        let prod = producer_fn("Nums", Value::Int);
        let mut p = prod.instantiate();
        assert!(p.snapshot_state().is_none());
        p.restore_state(&Value::Int(1)); // no-op, must not panic
    }

    #[test]
    fn native_pes() {
        let prod = producer_fn("Nums", |i| Value::Int(i + 1));
        let doubler = iterative_fn("Double", |v| v.as_i64().map(|n| Value::Int(n * 2)));
        let mut sink = VecSink::default();
        let mut p = prod.instantiate();
        p.process(None, 4, &mut sink).unwrap();
        assert_eq!(sink.emitted[0].1, Value::Int(5));
        let mut d = doubler.instantiate();
        d.process(Some(("input", Value::Int(5))), 0, &mut sink).unwrap();
        assert_eq!(sink.emitted[1].1, Value::Int(10));
        // Dropping filter
        let dropper = iterative_fn("Drop", |_| None);
        let mut dr = dropper.instantiate();
        let before = sink.emitted.len();
        dr.process(Some(("input", Value::Int(1))), 0, &mut sink).unwrap();
        assert_eq!(sink.emitted.len(), before);
    }

    #[test]
    fn consumer_fn_side_effects() {
        let cons = consumer_fn("Printer", |v, out| out.print(&format!("got {v}")));
        let mut c = cons.instantiate();
        let mut sink = VecSink::default();
        c.process(Some(("input", Value::Int(7))), 0, &mut sink).unwrap();
        assert_eq!(sink.printed, vec!["got 7"]);
        assert!(c.meta().outputs.is_empty());
        assert_eq!(c.meta().kind, PeKind::Consumer);
    }

    #[test]
    fn groupby_surfaces_in_meta() {
        let src = r#"pe G : generic { input input groupby 1; output output; process { emit(input); } }"#;
        let f = ScriptPeFactory::from_source(src, "G").unwrap();
        assert_eq!(f.meta().groupby("input"), Some(1));
        assert_eq!(f.meta().groupby("other"), None);
    }
}
