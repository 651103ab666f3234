//! Abstract workflow graphs (what the user describes; green graph of
//! paper Figure 1).

use crate::error::DataflowError;
use crate::pe::{PeFactory, ScriptPeFactory};
use crate::ports::PortTable;
use crate::routing::Grouping;
use laminar_script::{prepare, Host, Prepared, WorkflowDecl};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// Index of a node (PE) in a workflow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A directed edge between two PE ports.
#[derive(Clone)]
pub struct Connection {
    /// Source node.
    pub(crate) from: NodeId,
    /// Source output port.
    pub(crate) from_port: String,
    /// Destination node.
    pub(crate) to: NodeId,
    /// Destination input port.
    pub(crate) to_port: String,
    /// Routing policy among destination instances.
    pub(crate) grouping: Grouping,
}

/// The abstract workflow: PE factories plus connections.
pub struct WorkflowGraph {
    nodes: Vec<Arc<dyn PeFactory>>,
    connections: Vec<Connection>,
}

impl WorkflowGraph {
    /// Empty graph. The name (the registry's `workflowName`) labels the
    /// graph at its call site only: nothing reads it back, and the
    /// registry keeps a workflow's name and description itself.
    pub fn new(_name: impl Into<String>) -> Self {
        WorkflowGraph { nodes: Vec::new(), connections: Vec::new() }
    }

    /// Add a PE factory as a node.
    pub fn add(&mut self, factory: Arc<dyn PeFactory>) -> NodeId {
        self.nodes.push(factory);
        NodeId(self.nodes.len() - 1)
    }

    /// Convenience: prepare LamScript source and add the PE named `pe_name`.
    pub fn add_script_pe(&mut self, source: &str, pe_name: &str) -> Result<NodeId, DataflowError> {
        let f = ScriptPeFactory::from_source(source, pe_name)?;
        Ok(self.add(Arc::new(f)))
    }

    /// Connect `from.from_port -> to.to_port`. The grouping defaults to the
    /// destination port's declared `groupby` (if any), else shuffle.
    pub fn connect(
        &mut self,
        from: NodeId,
        from_port: &str,
        to: NodeId,
        to_port: &str,
    ) -> Result<(), DataflowError> {
        let grouping = match self.node(to)?.meta().groupby(to_port) {
            Some(k) => Grouping::GroupBy(k),
            None => Grouping::Shuffle,
        };
        self.connect_grouped(from, from_port, to, to_port, grouping)
    }

    /// Connect with an explicit grouping, overriding the port declaration.
    pub fn connect_grouped(
        &mut self,
        from: NodeId,
        from_port: &str,
        to: NodeId,
        to_port: &str,
        grouping: Grouping,
    ) -> Result<(), DataflowError> {
        let from_meta = self.node(from)?.meta();
        if !from_meta.has_output(from_port) {
            return Err(DataflowError::Graph(format!(
                "PE '{}' has no output port '{from_port}'",
                from_meta.name
            )));
        }
        let to_meta = self.node(to)?.meta();
        if !to_meta.has_input(to_port) {
            return Err(DataflowError::Graph(format!("PE '{}' has no input port '{to_port}'", to_meta.name)));
        }
        self.connections.push(Connection {
            from,
            from_port: from_port.to_string(),
            to,
            to_port: to_port.to_string(),
            grouping,
        });
        Ok(())
    }

    /// Node lookup.
    pub(crate) fn node(&self, id: NodeId) -> Result<&Arc<dyn PeFactory>, DataflowError> {
        self.nodes.get(id.0).ok_or_else(|| DataflowError::Graph(format!("unknown node id {}", id.0)))
    }

    /// All nodes in insertion order.
    pub(crate) fn nodes(&self) -> &[Arc<dyn PeFactory>] {
        &self.nodes
    }

    /// All connections.
    pub(crate) fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Initial PEs: nodes with no incoming connections. The execution
    /// engine uses this for its automatic initial-PE detection (paper §3.3).
    pub fn roots(&self) -> Vec<NodeId> {
        let targets: HashSet<NodeId> = self.connections.iter().map(|c| c.to).collect();
        (0..self.nodes.len()).map(NodeId).filter(|id| !targets.contains(id)).collect()
    }

    /// Intern every port name any node declares (plus the implicit
    /// `"input"` that drives data-fed producers). Called once at plan time;
    /// after this the enactment hot path never touches a port string.
    pub(crate) fn port_table(&self) -> PortTable {
        let mut table = PortTable::default();
        table.intern("input");
        for node in &self.nodes {
            let meta = node.meta();
            for p in &meta.inputs {
                table.intern(&p.name);
            }
            for p in &meta.outputs {
                table.intern(p);
            }
        }
        table
    }

    /// Validate the graph for enactment: non-empty, has at least one root
    /// producer, acyclic, and every non-root input port is fed. A graph of
    /// one node is a function — its declared input is the run's input — so
    /// only a root that something else could have been wired to is refused
    /// for declaring inputs.
    pub fn validate(&self) -> Result<(), DataflowError> {
        if self.nodes.is_empty() {
            return Err(DataflowError::Validation("workflow has no PEs".into()));
        }
        let roots = self.roots();
        if roots.is_empty() {
            return Err(DataflowError::Validation(
                "workflow has no initial PE (cycle at the sources)".into(),
            ));
        }
        for r in &roots {
            let meta = self.nodes[r.0].meta();
            if !meta.inputs.is_empty() && self.nodes.len() > 1 {
                return Err(DataflowError::Validation(format!(
                    "initial PE '{}' declares input ports but nothing feeds them",
                    meta.name
                )));
            }
        }
        // A node on a cycle never reaches in-degree zero.
        if self.kahn_order().len() != self.nodes.len() {
            return Err(DataflowError::Validation("workflow graph contains a cycle".into()));
        }
        // Every input port of every non-root node must be connected.
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i);
            if roots.contains(&id) {
                continue;
            }
            for port in &node.meta().inputs {
                let fed = self.connections.iter().any(|c| c.to == id && c.to_port == port.name);
                if !fed {
                    return Err(DataflowError::Validation(format!(
                        "input port '{}.{}' is not connected",
                        node.meta().name,
                        port.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Kahn's algorithm over the connections: every node that is neither on
    /// nor downstream of a cycle, in topological order — so the order is
    /// shorter than the node list exactly when the graph has a cycle.
    fn kahn_order(&self) -> Vec<NodeId> {
        let mut indeg = vec![0usize; self.nodes.len()];
        // Count every connection (a node pair may have several port pairs).
        for c in &self.connections {
            indeg[c.to.0] += 1;
        }
        let mut queue: VecDeque<usize> =
            indeg.iter().enumerate().filter(|(_, d)| **d == 0).map(|(i, _)| i).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = queue.pop_front() {
            order.push(NodeId(n));
            for c in self.connections.iter().filter(|c| c.from.0 == n) {
                indeg[c.to.0] -= 1;
                if indeg[c.to.0] == 0 {
                    queue.push_back(c.to.0);
                }
            }
        }
        order
    }

    /// Build a graph from a LamScript `workflow` declaration plus the PE
    /// declarations in the same source (the serverless registration path).
    pub fn from_script(source: &str, workflow_name: &str) -> Result<Self, DataflowError> {
        Self::from_script_with_host(source, workflow_name, Arc::new(laminar_script::NullHost))
    }

    /// [`Self::from_script`] with a host for external services.
    pub fn from_script_with_host(
        source: &str,
        workflow_name: &str,
        host: Arc<dyn Host + Send + Sync>,
    ) -> Result<Self, DataflowError> {
        let prepared = prepare(source)?;
        Self::from_prepared(&prepared, workflow_name, host)
    }

    /// The graph of workflow `workflow_name` of a prepared script (the
    /// serverless path: the registry and the request hand one over). Every
    /// PE factory of the graph shares its program.
    pub fn from_prepared(
        prepared: &Prepared,
        workflow_name: &str,
        host: Arc<dyn Host + Send + Sync>,
    ) -> Result<Self, DataflowError> {
        let script = prepared.script();
        let decl: &WorkflowDecl = script
            .workflows()
            .find(|w| w.name == workflow_name)
            .ok_or_else(|| DataflowError::Graph(format!("source defines no workflow '{workflow_name}'")))?;
        let mut graph = WorkflowGraph::new(&decl.name);
        let mut alias_to_id: BTreeMap<String, NodeId> = BTreeMap::new();
        for node in &decl.nodes {
            let pe = script.pe(&node.pe_name).ok_or_else(|| {
                DataflowError::Graph(format!(
                    "workflow '{}' references undefined PE '{}'",
                    decl.name, node.pe_name
                ))
            })?;
            let id = graph.add(Arc::new(ScriptPeFactory::new(pe, prepared, Arc::clone(&host))));
            alias_to_id.insert(node.alias.clone(), id);
        }
        for c in &decl.connects {
            let from = *alias_to_id
                .get(&c.from_node)
                .ok_or_else(|| DataflowError::Graph(format!("unknown node alias '{}'", c.from_node)))?;
            let to = *alias_to_id
                .get(&c.to_node)
                .ok_or_else(|| DataflowError::Graph(format!("unknown node alias '{}'", c.to_node)))?;
            graph.connect(from, &c.from_port, to, &c.to_port)?;
        }
        Ok(graph)
    }

    /// Render the abstract workflow in Graphviz DOT (the green graph of
    /// paper Figure 1).
    pub fn to_dot(&self) -> String {
        let mut out = String::from(
            "digraph abstract {\n  rankdir=LR;\n  node [shape=box, style=filled, fillcolor=palegreen];\n",
        );
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!("  n{} [label=\"{}\"];\n", i, n.meta().name));
        }
        for c in &self.connections {
            out.push_str(&format!(
                "  n{} -> n{} [label=\"{}->{}{}\"];\n",
                c.from.0,
                c.to.0,
                c.from_port,
                c.to_port,
                match c.grouping {
                    Grouping::GroupBy(k) => format!(" (groupby {k})"),
                    Grouping::OneToAll => " (one-to-all)".to_string(),
                    Grouping::AllToOne => " (all-to-one)".to_string(),
                    Grouping::Shuffle => String::new(),
                }
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{consumer_fn, iterative_fn, producer_fn};
    use laminar_json::Value;

    fn three_stage() -> (WorkflowGraph, NodeId, NodeId, NodeId) {
        let mut g = WorkflowGraph::new("pipeline");
        let a = g.add(producer_fn("A", Value::Int));
        let b = g.add(iterative_fn("B", Some));
        let c = g.add(consumer_fn("C", |_, _| {}));
        g.connect(a, "output", b, "input").unwrap();
        g.connect(b, "output", c, "input").unwrap();
        (g, a, b, c)
    }

    #[test]
    fn roots_and_terminals() {
        let (g, a, _, _) = three_stage();
        assert_eq!(g.roots(), vec![a]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn bad_ports_rejected() {
        let mut g = WorkflowGraph::new("bad");
        let a = g.add(producer_fn("A", Value::Int));
        let b = g.add(iterative_fn("B", Some));
        assert!(g.connect(a, "nope", b, "input").is_err());
        assert!(g.connect(a, "output", b, "nope").is_err());
    }

    #[test]
    fn cycle_detected() {
        let mut g = WorkflowGraph::new("cycle");
        let a = g.add(producer_fn("A", Value::Int));
        let b = g.add(iterative_fn("B", Some));
        let c = g.add(iterative_fn("C", Some));
        g.connect(a, "output", b, "input").unwrap();
        g.connect(b, "output", c, "input").unwrap();
        // back edge c -> b
        g.connect(c, "output", b, "input").unwrap();
        assert!(matches!(g.validate(), Err(DataflowError::Validation(m)) if m.contains("cycle")));
    }

    #[test]
    fn unfed_input_detected() {
        let mut g = WorkflowGraph::new("unfed");
        let _a = g.add(producer_fn("A", Value::Int));
        let _b = g.add(iterative_fn("B", Some));
        // B has an input but no edge: it's a root with inputs → invalid.
        assert!(g.validate().is_err());
        // Alone, B is a function of the run's input.
        let mut lone = WorkflowGraph::new("lone");
        lone.add(iterative_fn("B", Some));
        assert!(lone.validate().is_ok());
    }

    #[test]
    fn empty_graph_invalid() {
        let g = WorkflowGraph::new("empty");
        assert!(g.validate().is_err());
        assert!(g.is_empty());
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, a, b, c) = three_stage();
        let order = g.kahn_order();
        let pos = |id: NodeId| order.iter().position(|x| *x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn groupby_inferred_from_port_decl() {
        let src = r#"
            pe Src : producer { output output; process { emit([iteration, 1]); } }
            pe Cnt : generic { input input groupby 0; output output; process { emit(input); } }
        "#;
        let mut g = WorkflowGraph::new("wc");
        let s = g.add_script_pe(src, "Src").unwrap();
        let c = g.add_script_pe(src, "Cnt").unwrap();
        g.connect(s, "output", c, "input").unwrap();
        assert_eq!(g.connections()[0].grouping, Grouping::GroupBy(0));
    }

    #[test]
    fn from_script_builds_graph() {
        let src = r#"
            pe NumberProducer : producer { output output; process { emit(randint(1, 1000)); } }
            pe IsPrime : iterative {
                input num; output output;
                process {
                    let i = 2;
                    let prime = num > 1;
                    while i * i <= num { if num % i == 0 { prime = false; break; } i = i + 1; }
                    if prime { emit(num); }
                }
            }
            pe PrintPrime : consumer {
                input num;
                process { print("the num", num, "is prime"); }
            }
            workflow IsPrimeWf {
                doc "Streams random numbers and prints the primes";
                nodes { p = NumberProducer; i = IsPrime; pr = PrintPrime; }
                connect p.output -> i.num;
                connect i.output -> pr.num;
            }
        "#;
        let g = WorkflowGraph::from_script(src, "IsPrimeWf").unwrap();
        assert_eq!(g.len(), 3);
        assert!(g.validate().is_ok());
        assert_eq!(g.roots().len(), 1);
        // Unknown workflow name
        assert!(WorkflowGraph::from_script(src, "Nope").is_err());
    }

    #[test]
    fn dot_rendering_mentions_nodes() {
        let (g, ..) = three_stage();
        let dot = g.to_dot();
        assert!(dot.contains("digraph abstract"));
        assert!(dot.contains("\"A\""));
        assert!(dot.contains("n0 -> n1"));
    }
}
