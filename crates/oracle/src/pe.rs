//! The differential oracle: scripted PEs on the tree-walking interpreter,
//! LamScript's plain reference semantics, instead of the compiled VM.
//!
//! No engine, server or registry path reaches this module. A differential
//! suite builds a *second* graph from [`InterpPeFactory`] nodes and requires
//! it to agree with the [`laminar_dataflow::ScriptPeFactory`] one: outputs,
//! prints, counters, epoch snapshots byte for byte, error text verbatim.

use crate::Interp;
use laminar_dataflow::{DataflowError, NodeId, Pe, PeFactory, PeMeta, WorkflowGraph};
use laminar_json::Value;
use laminar_script::{parse_script, NullHost, PeDecl, Script, Sink, DEFAULT_SEED};
use std::sync::Arc;

/// How a differential suite puts one scripted PE of `source` into a graph:
/// [`WorkflowGraph::add_script_pe`] for the compiled VM, [`add_pe`] for the
/// oracle. A suite builds its graph from the adder it is handed, so the
/// choice of backend is made here and nowhere else.
pub type AddPe = fn(&mut WorkflowGraph, &str, &str) -> Result<NodeId, DataflowError>;

/// [`WorkflowGraph::add_script_pe`] on the oracle: add the PE named
/// `pe_name` of `source` as an interpreter-backed node.
pub fn add_pe(graph: &mut WorkflowGraph, source: &str, pe_name: &str) -> Result<NodeId, DataflowError> {
    Ok(graph.add(Arc::new(InterpPeFactory::from_source(source, pe_name)?)))
}

/// Factory for interpreter-backed instances of one scripted PE.
pub struct InterpPeFactory {
    script: Arc<Script>,
    decl: PeDecl,
    meta: PeMeta,
}

impl InterpPeFactory {
    /// Oracle factory for the PE named `pe_name`. The interpreter walks a
    /// parse of the very text the VM side prepares, so the line numbers in
    /// its errors are the VM's.
    pub fn from_source(source: &str, pe_name: &str) -> Result<Self, DataflowError> {
        let script = parse_script(source)?;
        let decl = script
            .pe(pe_name)
            .cloned()
            .ok_or_else(|| DataflowError::Graph(format!("source defines no PE named '{pe_name}'")))?;
        Ok(InterpPeFactory { meta: PeMeta::from_decl(&decl), decl, script: Arc::new(script) })
    }
}

impl PeFactory for InterpPeFactory {
    fn meta(&self) -> &PeMeta {
        &self.meta
    }

    fn instantiate(&self) -> Box<dyn Pe> {
        Box::new(InterpPe {
            script: Arc::clone(&self.script),
            decl: self.decl.clone(),
            meta: self.meta.clone(),
            interp: None,
            state: Value::Null,
        })
    }
}

struct InterpPe {
    script: Arc<Script>,
    decl: PeDecl,
    meta: PeMeta,
    interp: Option<Interp>,
    state: Value,
}

impl Pe for InterpPe {
    fn meta(&self) -> &PeMeta {
        &self.meta
    }

    fn setup(&mut self, instance: usize, _total: usize, out: &mut dyn Sink) -> Result<(), DataflowError> {
        let mut interp = Interp::new(&self.script, Arc::new(NullHost))
            .with_seed(DEFAULT_SEED.wrapping_add(instance as u64));
        let r = interp.run_init(&self.decl, &mut self.state, out);
        self.interp = Some(interp);
        r.map_err(|e| DataflowError::PeFailed { pe: self.meta.name.clone(), error: e })
    }

    fn process(
        &mut self,
        input: Option<(&str, Value)>,
        iteration: i64,
        out: &mut dyn Sink,
    ) -> Result<(), DataflowError> {
        if self.interp.is_none() {
            self.setup(0, 1, out)?;
        }
        let (value, port) = match input {
            Some((p, v)) => (Some(v), Some(p)),
            None => (None, None),
        };
        let returned = self
            .interp
            .as_mut()
            .expect("setup ran")
            .run_process(&self.decl, value, port, iteration, &mut self.state, out)
            .map_err(|e| DataflowError::PeFailed { pe: self.meta.name.clone(), error: e })?;
        if let Some(v) = returned {
            if let Some(port) = self.decl.default_output() {
                out.emit(port, v);
            }
        }
        Ok(())
    }

    fn snapshot_state(&self) -> Option<Value> {
        let mut snap = Value::Null;
        snap.set("state", self.state.clone()).set("rng", self.interp.as_ref()?.rng_state() as i64);
        Some(snap)
    }

    fn restore_state(&mut self, snapshot: &Value) {
        self.state = snapshot["state"].clone();
        if let Some(interp) = self.interp.as_mut() {
            interp.set_rng_state(snapshot["rng"].as_i64().unwrap_or(0) as u64);
        }
    }
}
