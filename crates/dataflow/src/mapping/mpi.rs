//! The MPI mapping: message-passing enactment.
//!
//! Each PE instance is a *rank*, numbered by its dense plan id. Ranks
//! share nothing: every burst is serialized to one lampickle byte frame
//! (a list of `[port_id, value]` pairs) and sent point-to-point down the
//! receiving rank's inbox, the discipline a real `mpi4py`-backed
//! dispel4py enactment follows. The inboxes are the Multi mapping's mesh
//! ([`super::multi::mesh`]), which stands in for MPI itself (see
//! DESIGN.md).

use super::multi::{mesh, Burst};
use super::runtime::Runtime;
use super::{Mapping, MappingKind, RunOptions, RunResult};
use crate::error::DataflowError;
use crate::graph::WorkflowGraph;
use crate::planner::ConcretePlan;
use crate::ports::PortId;
use laminar_codec::{dumps, loads};
use laminar_json::{jarr, Value};

/// Serialize one destination's burst as the lampickle frame of a list of
/// `[port_id, value]` pairs. Port ids are the plan's interned [`PortId`]s —
/// both ends hold the same plan, so a small integer is the whole port
/// encoding. The Redis mapping sends the same frames.
pub(super) fn encode_frame(group: Burst) -> Vec<u8> {
    dumps(&Value::Array(group.into_iter().map(|(pid, v)| jarr![pid.0 as i64, Value::unshare(v)]).collect()))
}

/// Decode a frame written by [`encode_frame`], validating every port id
/// against the plan's port table. Corrupt frames are enactment errors —
/// data is never silently re-routed to a default port.
pub(super) fn decode_frame(frame: Vec<u8>, plan: &ConcretePlan) -> Result<Burst, DataflowError> {
    let corrupt = |detail: &str| DataflowError::Enactment(format!("corrupt frame: {detail}"));
    let Value::Array(items) = loads(&frame).map_err(|e| corrupt(&e.to_string()))? else {
        return Err(corrupt("expected a batch list"));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let Value::Array(mut pair) = item else {
            return Err(corrupt("batch item is not a [port, value] pair"));
        };
        if pair.len() != 2 {
            return Err(corrupt("batch item is not a [port, value] pair"));
        }
        let value = pair.pop().expect("len 2");
        let port = match pair.pop().expect("len 1").as_i64().map(u32::try_from) {
            Some(Ok(p)) if plan.ports().contains(PortId(p)) => PortId(p),
            Some(p) => return Err(corrupt(&format!("port id {p:?} not in the plan's port table"))),
            None => return Err(corrupt("missing port id")),
        };
        out.push((port, value.into_shared()));
    }
    Ok(out)
}

/// Message-passing enactment.
pub struct MpiMapping;

impl Mapping for MpiMapping {
    fn kind(&self) -> MappingKind {
        MappingKind::Mpi
    }

    fn execute_observed(
        &self,
        graph: &WorkflowGraph,
        options: &RunOptions,
        observer: Option<std::sync::Arc<dyn super::RunObserver>>,
    ) -> Result<RunResult, DataflowError> {
        Runtime::new(graph, options)
            .threaded_observed(|plan| Ok(mesh(plan, encode_frame, decode_frame)), observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::SimpleMapping;
    use crate::pe::{iterative_fn, producer_fn};

    #[test]
    fn decode_pairs_rejects_corrupt_ports() {
        let decode = |pairs: Value, plan: &ConcretePlan| decode_frame(dumps(&pairs), plan);
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Inc", Some));
        g.connect(a, "output", b, "input").unwrap();
        let plan = ConcretePlan::sequential(&g).unwrap();
        // Well-formed: a known interned port id.
        let input = plan.ports().id("input").unwrap();
        let ok = decode(jarr![jarr![input.0 as i64, 7]], &plan).unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(*ok[0].1, Value::Int(7));
        // Out-of-table port id, stringly-typed port (the legacy wire
        // format), and a non-list frame are all corruption, not "input".
        assert!(decode(jarr![jarr![999, 7]], &plan).is_err());
        assert!(decode(jarr![jarr!["input", 7]], &plan).is_err());
        assert!(decode(Value::Int(3), &plan).is_err());
        assert!(decode(jarr![jarr![input.0 as i64]], &plan).is_err());
        // Ids that only *truncate* into range (2^32 + id, negatives) are
        // corruption too, not aliases of valid ports.
        assert!(decode(jarr![jarr![(1i64 << 32) + input.0 as i64, 7]], &plan).is_err());
        assert!(decode(jarr![jarr![-1, 7]], &plan).is_err());
        // Bytes that are no lampickle frame at all, the empty frame among
        // them.
        assert!(decode_frame(b"not a pickle".to_vec(), &plan).is_err());
        assert!(decode_frame(Vec::new(), &plan).is_err());
    }

    #[test]
    fn matches_simple_as_multiset() {
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Inc", |v| v.as_i64().map(|n| Value::Int(n + 1))));
        g.connect(a, "output", b, "input").unwrap();
        let simple = SimpleMapping.execute(&g, &RunOptions::iterations(40)).unwrap();
        let mpi = MpiMapping.execute(&g, &RunOptions::iterations(40).with_processes(6)).unwrap();
        let mut s: Vec<i64> =
            simple.port_values("Inc", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        let mut m: Vec<i64> = mpi.port_values("Inc", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        s.sort();
        m.sort();
        assert_eq!(s, m);
    }

    #[test]
    fn payloads_survive_serialization_boundary() {
        // Nested structures cross the byte boundary intact.
        let src = r#"
            pe Maker : producer {
                output output;
                process { emit({"id": iteration, "tags": ["x", "y"], "f": 0.5}); }
            }
            pe Check : iterative {
                input m; output output;
                process { emit(m["tags"][1]); }
            }
        "#;
        let mut g = WorkflowGraph::new("nested");
        let a = g.add_script_pe(src, "Maker").unwrap();
        let b = g.add_script_pe(src, "Check").unwrap();
        g.connect(a, "output", b, "m").unwrap();
        let r = MpiMapping.execute(&g, &RunOptions::iterations(8).with_processes(4)).unwrap();
        assert_eq!(r.port_values("Check", "output").len(), 8);
        for v in r.port_values("Check", "output") {
            assert_eq!(v.as_str(), Some("y"));
        }
    }

    #[test]
    fn groupby_correct_across_ranks() {
        let src = r#"
            pe Words : producer { output output; process { emit([["k1","k2","k3"][iteration % 3], 1]); } }
            pe Count : generic {
                input input groupby 0;
                output output;
                init { state.n = {}; }
                process {
                    let w = input[0];
                    state.n[w] = get(state.n, w, 0) + 1;
                    emit([w, state.n[w]]);
                }
            }
        "#;
        let mut g = WorkflowGraph::new("wc");
        let a = g.add_script_pe(src, "Words").unwrap();
        let b = g.add_script_pe(src, "Count").unwrap();
        g.connect(a, "output", b, "input").unwrap();
        let r = MpiMapping.execute(&g, &RunOptions::iterations(30).with_processes(6)).unwrap();
        let mut best: std::collections::BTreeMap<String, i64> = Default::default();
        for v in r.port_values("Count", "output") {
            let w = v[0].as_str().unwrap().to_string();
            let n = v[1].as_i64().unwrap();
            let e = best.entry(w).or_insert(0);
            *e = (*e).max(n);
        }
        for (w, n) in best {
            assert_eq!(n, 10, "key {w}");
        }
    }
}
