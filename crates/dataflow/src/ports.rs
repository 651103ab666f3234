//! Port-name interning: the zero-allocation backbone of the enactment
//! datapath.
//!
//! Port names are user-facing strings ("output", "num", ...). Routing a
//! datum by comparing and cloning those strings costs a heap allocation per
//! datum — exactly the overhead the paper's Table 5 says the orchestration
//! layer must not add. Instead, every port name that can appear during an
//! enactment is interned **once** into a [`PortTable`] when the concrete
//! plan is built, and the hot path carries dense [`PortId`] indices: `Copy`,
//! one word, comparable with a register compare, serializable as a small
//! integer on the MPI/Redis wire.

use std::collections::HashMap;
use std::sync::Arc;

/// Dense index of an interned port name. Valid only together with the
/// [`PortTable`] of the plan that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct PortId(pub u32);

/// Interner mapping port names to dense [`PortId`]s. Built once per
/// concrete plan; read-only (and shared) during enactment. Names are
/// stored as `Arc<str>` so event streams can carry them by refcount.
#[derive(Debug, Default, Clone)]
pub(crate) struct PortTable {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, PortId>,
}

impl PortTable {
    /// Intern `name`, returning its id (existing or fresh).
    pub(crate) fn intern(&mut self, name: &str) -> PortId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = PortId(self.names.len() as u32);
        let shared: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&shared));
        self.index.insert(shared, id);
        id
    }

    /// Resolve a name to its id without interning. Allocation-free.
    pub(crate) fn id(&self, name: &str) -> Option<PortId> {
        self.index.get(name).copied()
    }

    /// The name behind an id. Allocation-free.
    ///
    /// # Panics
    /// If `id` did not come from this table.
    pub(crate) fn name(&self, id: PortId) -> &str {
        &self.names[id.0 as usize]
    }

    /// The name behind an id as a refcounted handle — what event streams
    /// carry, so emitting an event never allocates a name.
    ///
    /// # Panics
    /// If `id` did not come from this table.
    pub(crate) fn shared_name(&self, id: PortId) -> Arc<str> {
        Arc::clone(&self.names[id.0 as usize])
    }

    /// Whether `id` is valid for this table (wire-format validation).
    pub(crate) fn contains(&self, id: PortId) -> bool {
        (id.0 as usize) < self.names.len()
    }

    /// Number of interned names.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = PortTable::default();
        let a = t.intern("output");
        let b = t.intern("input");
        assert_ne!(a, b);
        assert_eq!(t.intern("output"), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = PortTable::default();
        let id = t.intern("num");
        assert_eq!(t.id("num"), Some(id));
        assert_eq!(t.name(id), "num");
        assert_eq!(t.id("nope"), None);
        assert!(t.contains(id));
        assert!(!t.contains(PortId(99)));
    }

    #[test]
    fn empty_table() {
        let t = PortTable::default();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
