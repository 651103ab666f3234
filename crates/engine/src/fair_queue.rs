//! The pool's pending-job queue: one lane per tenant, drained by deficit
//! round-robin.

use crate::request::ExecutionRequest;
use std::collections::{HashMap, VecDeque};

/// One job waiting in a tenant's lane.
struct QueuedJob {
    id: i64,
    priority: i64,
    req: ExecutionRequest,
}

/// One tenant's pending-job lane. Intra-tenant order is descending
/// priority, FIFO among equals — priority jumps the tenant's *own* line,
/// never another tenant's.
#[derive(Default)]
struct Lane {
    jobs: VecDeque<QueuedJob>,
    /// Remaining service credit in the lane's current scheduler visit.
    credit: u64,
}

/// The pool's weighted-fair job queue: per-tenant FIFO lanes drained by
/// deficit round-robin instead of one global FIFO. Each scheduler visit
/// grants a lane `weight` pops (unit job cost), then rotates to the next
/// lane with work — so a tenant that floods the queue gets exactly its
/// share of worker pulls and can no longer starve the rest. Lanes exist
/// only while they hold work; the map stays bounded by the number of
/// tenants with queued jobs.
pub(crate) struct FairQueue {
    lanes: HashMap<String, Lane>,
    /// Round-robin service order over lanes that currently hold work.
    active: VecDeque<String>,
    /// Configured per-tenant weights (jobs served per visit; default 1).
    weights: HashMap<String, u64>,
    len: usize,
}

impl FairQueue {
    pub(crate) fn new() -> FairQueue {
        FairQueue { lanes: HashMap::new(), active: VecDeque::new(), weights: HashMap::new(), len: 0 }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Tenants with work queued right now.
    pub(crate) fn tenants(&self) -> usize {
        self.lanes.len()
    }

    pub(crate) fn set_weight(&mut self, owner: &str, weight: u64) {
        self.weights.insert(owner.to_string(), weight.max(1));
    }

    pub(crate) fn push(&mut self, owner: &str, id: i64, priority: i64, req: ExecutionRequest) {
        let lane = self.lanes.entry(owner.to_string()).or_default();
        if lane.jobs.is_empty() {
            self.active.push_back(owner.to_string());
            lane.credit = 0;
        }
        // Stable priority insert: after every job with >= priority.
        let at = lane.jobs.iter().position(|j| j.priority < priority).unwrap_or(lane.jobs.len());
        lane.jobs.insert(at, QueuedJob { id, priority, req });
        self.len += 1;
    }

    /// Next job under the deficit-round-robin discipline.
    pub(crate) fn pop(&mut self) -> Option<(i64, ExecutionRequest)> {
        loop {
            let owner = self.active.front()?.clone();
            let Some(lane) = self.lanes.get_mut(&owner) else {
                self.active.pop_front();
                continue;
            };
            if lane.jobs.is_empty() {
                self.lanes.remove(&owner);
                self.active.pop_front();
                continue;
            }
            if lane.credit == 0 {
                lane.credit = self.weights.get(&owner).copied().unwrap_or(1).max(1);
            }
            let job = lane.jobs.pop_front().expect("non-empty lane");
            lane.credit -= 1;
            self.len -= 1;
            let drained = lane.jobs.is_empty();
            if drained {
                self.lanes.remove(&owner);
            }
            if drained || self.lanes.get(&owner).is_none_or(|l| l.credit == 0) {
                // Visit over: rotate to the next tenant with work.
                self.active.pop_front();
                if !drained {
                    self.active.push_back(owner);
                }
            }
            return Some((job.id, job.req));
        }
    }

    /// Remove a queued job by id (cancellation frees the queue slot).
    pub(crate) fn remove(&mut self, id: i64) {
        let mut emptied: Option<String> = None;
        for (owner, lane) in self.lanes.iter_mut() {
            if let Some(pos) = lane.jobs.iter().position(|j| j.id == id) {
                lane.jobs.remove(pos);
                self.len -= 1;
                if lane.jobs.is_empty() {
                    emptied = Some(owner.clone());
                }
                break;
            }
        }
        if let Some(owner) = emptied {
            self.lanes.remove(&owner);
            self.active.retain(|o| *o != owner);
        }
    }

    /// Drain every lane (shutdown), returning the orphaned job ids.
    pub(crate) fn drain(&mut self) -> Vec<i64> {
        let ids: Vec<i64> = self.lanes.values().flat_map(|lane| lane.jobs.iter().map(|j| j.id)).collect();
        self.lanes.clear();
        self.active.clear();
        self.len = 0;
        ids
    }
}
