//! The planner turns an abstract workflow into a concrete one: how many
//! instances each PE gets and how edges fan out between instance sets
//! (blue graph of paper Figure 1).

use crate::error::DataflowError;
use crate::graph::{NodeId, WorkflowGraph};
use crate::ports::PortTable;
use crate::routing::Grouping;
use std::sync::Arc;

/// One PE instance in the concrete plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct InstanceId {
    /// Which abstract node.
    pub(crate) node: NodeId,
    /// Instance index within the node (0-based).
    pub(crate) index: usize,
}

/// A concrete enactment plan.
///
/// Besides the instance counts, the plan owns the enactment-wide lookup
/// structures resolved once so the hot path stays allocation-free: the
/// interned `PortTable` and the dense instance numbering (prefix offsets)
/// that lets runtimes and transports index instances with a flat `Vec`
/// instead of a per-datum map lookup.
#[derive(Debug, Clone)]
pub struct ConcretePlan {
    /// Instance count per node, indexed by `NodeId.0`.
    pub instances: Vec<usize>,
    /// Total processes used.
    pub(crate) total_processes: usize,
    /// Prefix sums of `instances`: instance `(node, index)` has dense id
    /// `offsets[node] + index`.
    offsets: Vec<usize>,
    /// Interned port names of the whole graph.
    ports: Arc<PortTable>,
}

impl ConcretePlan {
    fn assemble(graph: &WorkflowGraph, instances: Vec<usize>) -> ConcretePlan {
        let mut offsets = Vec::with_capacity(instances.len());
        let mut total = 0;
        for &n in &instances {
            offsets.push(total);
            total += n;
        }
        ConcretePlan { instances, total_processes: total, offsets, ports: Arc::new(graph.port_table()) }
    }

    /// The interned port names of this plan's graph.
    pub(crate) fn ports(&self) -> &Arc<PortTable> {
        &self.ports
    }

    /// Dense id of an instance: a contiguous `0..total_processes` numbering
    /// in `all_instances` order. Lets per-instance state live in a flat
    /// `Vec` instead of a `BTreeMap` keyed by [`InstanceId`].
    pub(crate) fn dense(&self, inst: InstanceId) -> usize {
        self.offsets[inst.node.0] + inst.index
    }

    /// dispel4py-style distribution of `processes` across the graph:
    /// producers (roots) get one instance each; the remaining processes are
    /// divided evenly among the non-root PEs (each at least one). With
    /// 5 processes over Fig. 1's three PEs this yields 1/2/2, matching the
    /// paper.
    pub fn distribute(graph: &WorkflowGraph, processes: usize) -> Result<ConcretePlan, DataflowError> {
        if processes == 0 {
            return Err(DataflowError::Options("process count must be >= 1".into()));
        }
        graph.validate()?;
        let n = graph.len();
        let roots = graph.roots();
        let mut instances = vec![1usize; n];
        let non_roots: Vec<usize> = (0..n).filter(|i| !roots.contains(&NodeId(*i))).collect();
        if !non_roots.is_empty() {
            let available = processes.saturating_sub(roots.len()).max(non_roots.len());
            let per = available / non_roots.len();
            let mut extra = available % non_roots.len();
            for &i in &non_roots {
                instances[i] = per.max(1);
                if extra > 0 && per >= 1 {
                    instances[i] += 1;
                    extra -= 1;
                }
            }
        }
        Ok(Self::assemble(graph, instances))
    }

    /// A plan with exactly one instance per PE (the Simple mapping).
    pub(crate) fn sequential(graph: &WorkflowGraph) -> Result<ConcretePlan, DataflowError> {
        graph.validate()?;
        Ok(Self::assemble(graph, vec![1; graph.len()]))
    }

    /// Instance count for a node.
    pub(crate) fn count(&self, node: NodeId) -> usize {
        self.instances[node.0]
    }

    /// Enumerate all instances in (node, index) order.
    pub(crate) fn all_instances(&self) -> Vec<InstanceId> {
        let mut out = Vec::with_capacity(self.total_processes);
        for (n, &c) in self.instances.iter().enumerate() {
            for i in 0..c {
                out.push(InstanceId { node: NodeId(n), index: i });
            }
        }
        out
    }

    /// Render the concrete workflow in Graphviz DOT (blue graph of paper
    /// Figure 1): every instance is a node, edges follow the groupings.
    pub fn to_dot(&self, graph: &WorkflowGraph) -> String {
        let mut out = String::from(
            "digraph concrete {\n  rankdir=LR;\n  node [shape=box, style=filled, fillcolor=lightblue];\n",
        );
        for inst in self.all_instances() {
            let name = &graph.nodes()[inst.node.0].meta().name;
            out.push_str(&format!(
                "  n{}_{} [label=\"{}[{}]\"];\n",
                inst.node.0, inst.index, name, inst.index
            ));
        }
        for c in graph.connections() {
            let from_n = self.count(c.from);
            let to_n = self.count(c.to);
            for fi in 0..from_n {
                match c.grouping {
                    // Point-to-point fan-out potential: draw all feasible edges.
                    Grouping::AllToOne => {
                        out.push_str(&format!("  n{}_{} -> n{}_0;\n", c.from.0, fi, c.to.0));
                    }
                    _ => {
                        for ti in 0..to_n {
                            out.push_str(&format!("  n{}_{} -> n{}_{};\n", c.from.0, fi, c.to.0, ti));
                        }
                    }
                }
            }
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

    fn fig1_graph() -> WorkflowGraph {
        // The paper's Figure 1 topology: PE1 -> PE2 -> PE3.
        let mut g = WorkflowGraph::new("fig1");
        let p1 = g.add(producer_fn("PE1", Value::Int));
        let p2 = g.add(iterative_fn("PE2", Some));
        let p3 = g.add(consumer_fn("PE3", |_, _| {}));
        g.connect(p1, "output", p2, "input").unwrap();
        g.connect(p2, "output", p3, "input").unwrap();
        g
    }

    #[test]
    fn figure1_distribution() {
        // "five processes (e.g., one PE instance for PE1 and two for PE2 to
        // PE3) using the Multi mapping" — paper Figure 1.
        let g = fig1_graph();
        let plan = ConcretePlan::distribute(&g, 5).unwrap();
        assert_eq!(plan.instances, vec![1, 2, 2]);
        assert_eq!(plan.total_processes, 5);
    }

    #[test]
    fn minimum_one_instance_each() {
        let g = fig1_graph();
        let plan = ConcretePlan::distribute(&g, 1).unwrap();
        assert_eq!(plan.instances, vec![1, 1, 1]);
    }

    #[test]
    fn sequential_plan() {
        let g = fig1_graph();
        let plan = ConcretePlan::sequential(&g).unwrap();
        assert_eq!(plan.instances, vec![1, 1, 1]);
        assert_eq!(plan.all_instances().len(), 3);
    }

    #[test]
    fn zero_processes_rejected() {
        let g = fig1_graph();
        assert!(ConcretePlan::distribute(&g, 0).is_err());
    }

    #[test]
    fn uneven_distribution_spreads_extra() {
        let g = fig1_graph();
        let plan = ConcretePlan::distribute(&g, 6).unwrap();
        assert_eq!(plan.instances[0], 1);
        assert_eq!(plan.instances[1] + plan.instances[2], 5);
        assert!(plan.instances[1] >= 2 && plan.instances[2] >= 2);
    }

    #[test]
    fn dense_ids_are_contiguous_in_instance_order() {
        let g = fig1_graph();
        let plan = ConcretePlan::distribute(&g, 5).unwrap();
        let dense: Vec<usize> = plan.all_instances().iter().map(|&i| plan.dense(i)).collect();
        assert_eq!(dense, (0..plan.total_processes).collect::<Vec<_>>());
    }

    #[test]
    fn plan_interns_graph_ports() {
        let g = fig1_graph();
        let plan = ConcretePlan::sequential(&g).unwrap();
        let ports = plan.ports();
        assert!(ports.id("output").is_some());
        assert!(ports.id("input").is_some());
        assert_eq!(ports.id("nope"), None);
    }

    #[test]
    fn concrete_dot_shows_instances() {
        let g = fig1_graph();
        let plan = ConcretePlan::distribute(&g, 5).unwrap();
        let dot = plan.to_dot(&g);
        assert!(dot.contains("PE2[0]"));
        assert!(dot.contains("PE2[1]"));
        assert!(dot.contains("n0_0 -> n1_0"));
        assert!(dot.contains("n0_0 -> n1_1"));
    }
}
