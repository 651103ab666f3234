//! The pool's pending-job queue: one lane per tenant, served round-robin.

use crate::request::ExecutionRequest;
use std::collections::{HashMap, VecDeque};

/// One job waiting in a tenant's lane.
struct QueuedJob {
    id: i64,
    req: ExecutionRequest,
}

/// The pool's fair job queue: per-tenant lanes served round-robin instead
/// of one global FIFO. Each pop serves the front lane once and rotates it
/// to the back — so a tenant that floods the queue gets exactly its share
/// of worker pulls and can no longer starve the rest. Within a lane the
/// order is FIFO. A lane exists only while it holds work, and `active` names
/// exactly those lanes, so the map stays bounded by the number of tenants
/// with queued jobs.
pub(crate) struct FairQueue {
    lanes: HashMap<String, VecDeque<QueuedJob>>,
    /// Round-robin service order over the lanes.
    active: VecDeque<String>,
    len: usize,
}

impl FairQueue {
    pub(crate) fn new() -> FairQueue {
        FairQueue { lanes: HashMap::new(), active: VecDeque::new(), len: 0 }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Tenants with work queued right now.
    pub(crate) fn tenants(&self) -> usize {
        self.lanes.len()
    }

    pub(crate) fn push(&mut self, owner: &str, id: i64, req: ExecutionRequest) {
        let lane = self.lanes.entry(owner.to_string()).or_default();
        if lane.is_empty() {
            self.active.push_back(owner.to_string());
        }
        lane.push_back(QueuedJob { id, req });
        self.len += 1;
    }

    /// Next job: the front lane's first, that lane rotated to the back.
    pub(crate) fn pop(&mut self) -> Option<(i64, ExecutionRequest)> {
        let owner = self.active.pop_front()?;
        let lane = self.lanes.get_mut(&owner).expect("an active tenant has a lane");
        let job = lane.pop_front().expect("a lane holds work while it exists");
        if lane.is_empty() {
            self.lanes.remove(&owner);
        } else {
            self.active.push_back(owner);
        }
        self.len -= 1;
        Some((job.id, job.req))
    }

    /// Remove a queued job by id (cancellation frees the queue slot).
    pub(crate) fn remove(&mut self, id: i64) {
        let mut emptied: Option<String> = None;
        for (owner, lane) in self.lanes.iter_mut() {
            if let Some(pos) = lane.iter().position(|j| j.id == id) {
                lane.remove(pos);
                self.len -= 1;
                if lane.is_empty() {
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
        let ids: Vec<i64> = self.lanes.values().flat_map(|lane| lane.iter().map(|j| j.id)).collect();
        self.lanes.clear();
        self.active.clear();
        self.len = 0;
        ids
    }
}
