//! Data Access Object layer (paper §3.2.3): CRUD over the store, with
//! every mutation journaled through the WAL before it reaches the store.
//!
//! A write checks its preconditions, builds its `Op`s and hands them to
//! `commit`: the WAL records them, then `Store::apply` (which WAL replay
//! runs too) and the search index take each, then the WAL may snapshot.

use crate::entities::{PeEntity, UserEntity, WorkflowEntity};
use crate::error::RegistryError;
use crate::index::SearchIndex;
use crate::store::JunctionName::{UserPes, UserWorkflows, WorkflowPes};
use crate::store::{Op, Row, Store, Table};
use crate::wal::WalStore;

/// DAO facade bundling the store, its journal and the search index.
///
/// The index is owned here — not by the search layer — because every
/// mutation that must keep it consistent flows through these methods,
/// inside the same registry write lock that journals the change. WAL
/// replay mutates the store *below* this layer, so [`Dao::new`] rebuilds
/// the index from whatever store it is handed (fresh or recovered); the
/// incremental hooks keep it exact from then on.
///
/// Reads hand out references into the store's typed tables: nothing is
/// decoded or cloned until a caller needs to own the entity.
pub struct Dao {
    /// The table store; it changes only through this DAO's writes.
    pub store: Store,
    wal: WalStore,
    index: SearchIndex,
}

fn by_id<T: Row>(table: &Table<T>, id: i64) -> Result<&T, RegistryError> {
    table.get(id).ok_or_else(|| RegistryError::NotFound { entity: T::ENTITY, key: id.to_string() })
}

fn by_unique<'a, T: Row>(table: &'a Table<T>, key: &str) -> Result<&'a T, RegistryError> {
    table
        .find_unique(key)
        .and_then(|id| table.get(id))
        .ok_or_else(|| RegistryError::NotFound { entity: T::ENTITY, key: key.to_string() })
}

impl Dao {
    /// Wrap a recovered store + journal; derives the search index from
    /// the store.
    pub fn new(store: Store, wal: WalStore) -> Dao {
        let index = SearchIndex::build(&store);
        Dao { store, wal, index }
    }

    /// The search index (query side).
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// Force a snapshot to disk (durable mode only).
    pub fn checkpoint(&mut self) -> Result<(), RegistryError> {
        self.wal.snapshot(&self.store)
    }

    /// Carry out one write: journal `ops`, then run each on the store,
    /// keeping the index in step, then snapshot if the WAL is due.
    fn commit<const N: usize>(&mut self, ops: [Op; N]) -> Result<(), RegistryError> {
        self.wal.append(&ops)?;
        for op in ops {
            // The index keys on owner links; a link's entity outlives the op.
            let (pes, index) = (&self.store.pes, &mut self.index);
            match op {
                Op::Link(UserPes, user, pe) => pes.get(pe).into_iter().for_each(|pe| index.add_pe(user, pe)),
                Op::Unlink(UserPes, user, pe) => {
                    pes.get(pe).into_iter().for_each(|pe| index.remove_pe(user, pe))
                }
                Op::Link(UserWorkflows, user, wf) => {
                    self.store.workflows.get(wf).into_iter().for_each(|wf| index.add_workflow(user, wf))
                }
                Op::Unlink(UserWorkflows, user, wf) => index.remove_workflow(user, wf),
                _ => {}
            }
            self.store.apply(op)?;
        }
        self.wal.snapshot_if_due(&self.store)
    }

    // ---- users -----------------------------------------------------------

    /// Insert a user row.
    pub fn insert_user(&mut self, mut user: UserEntity) -> Result<&UserEntity, RegistryError> {
        let id = self.store.users.assign_id(&mut user)?;
        self.commit([Op::InsertUser(user)])?;
        by_id(&self.store.users, id)
    }

    /// Find a user by login name.
    pub fn user_by_name(&self, name: &str) -> Result<&UserEntity, RegistryError> {
        by_unique(&self.store.users, name)
    }

    /// All users.
    pub fn all_users(&self) -> impl Iterator<Item = &UserEntity> {
        self.store.users.scan()
    }

    // ---- PEs ---------------------------------------------------------------

    /// Insert a PE row and link its owner.
    pub fn insert_pe(&mut self, mut pe: PeEntity, owner_id: i64) -> Result<&PeEntity, RegistryError> {
        let id = self.store.pes.assign_id(&mut pe)?;
        self.commit([Op::InsertPe(pe), Op::Link(UserPes, owner_id, id)])?;
        self.pe_by_id(id)
    }

    /// Add an ownership link (idempotent — the paper's shared-owner rule).
    pub fn link_user_pe(&mut self, user_id: i64, pe_id: i64) -> Result<(), RegistryError> {
        if self.store.user_pes.linked(user_id, pe_id) {
            return Ok(());
        }
        self.commit([Op::Link(UserPes, user_id, pe_id)])
    }

    /// PE by id.
    pub fn pe_by_id(&self, id: i64) -> Result<&PeEntity, RegistryError> {
        by_id(&self.store.pes, id)
    }

    /// PE by unique name.
    pub fn pe_by_name(&self, name: &str) -> Result<&PeEntity, RegistryError> {
        by_unique(&self.store.pes, name)
    }

    /// PEs owned by a user.
    pub fn pes_of_user(&self, user_id: i64) -> impl Iterator<Item = &PeEntity> {
        self.store.user_pes.rights_of(user_id).into_iter().filter_map(|id| self.store.pes.get(id))
    }

    /// Remove a user's ownership of a PE; the row itself is deleted only
    /// when the last owner leaves (and it is detached from workflows).
    pub fn remove_pe_for_user(&mut self, user_id: i64, pe_id: i64) -> Result<(), RegistryError> {
        if !self.store.user_pes.linked(user_id, pe_id) {
            return Err(RegistryError::NotFound { entity: "PE", key: pe_id.to_string() });
        }
        let unlink = Op::Unlink(UserPes, user_id, pe_id);
        if self.store.user_pes.lefts_of(pe_id) == [user_id] {
            self.commit([unlink, Op::DeletePe(pe_id), Op::RemoveRight(WorkflowPes, pe_id)])
        } else {
            self.commit([unlink])
        }
    }

    // ---- workflows ----------------------------------------------------------

    /// Insert a workflow row and link its owner.
    pub fn insert_workflow(
        &mut self,
        mut wf: WorkflowEntity,
        owner_id: i64,
    ) -> Result<&WorkflowEntity, RegistryError> {
        let id = self.store.workflows.assign_id(&mut wf)?;
        self.commit([Op::InsertWorkflow(wf), Op::Link(UserWorkflows, owner_id, id)])?;
        self.workflow_by_id(id)
    }

    /// Workflow by id.
    pub fn workflow_by_id(&self, id: i64) -> Result<&WorkflowEntity, RegistryError> {
        by_id(&self.store.workflows, id)
    }

    /// Workflow by unique entry point.
    pub fn workflow_by_entry(&self, entry: &str) -> Result<&WorkflowEntity, RegistryError> {
        by_unique(&self.store.workflows, entry)
    }

    /// Workflows owned by a user.
    pub fn workflows_of_user(&self, user_id: i64) -> impl Iterator<Item = &WorkflowEntity> {
        self.store.user_workflows.rights_of(user_id).into_iter().filter_map(|id| self.store.workflows.get(id))
    }

    /// Link a PE into a workflow (the two-way many-to-many of §3.1).
    pub fn link_workflow_pe(&mut self, workflow_id: i64, pe_id: i64) -> Result<(), RegistryError> {
        // Both sides must exist.
        self.workflow_by_id(workflow_id)?;
        self.pe_by_id(pe_id)?;
        if self.store.workflow_pes.linked(workflow_id, pe_id) {
            return Ok(());
        }
        self.commit([Op::Link(WorkflowPes, workflow_id, pe_id)])
    }

    /// PEs belonging to a workflow.
    pub fn pes_of_workflow(&self, workflow_id: i64) -> impl Iterator<Item = &PeEntity> {
        self.store.workflow_pes.rights_of(workflow_id).into_iter().filter_map(|id| self.store.pes.get(id))
    }

    /// Remove a user's workflow (row deleted when last owner leaves).
    pub fn remove_workflow_for_user(&mut self, user_id: i64, workflow_id: i64) -> Result<(), RegistryError> {
        if !self.store.user_workflows.linked(user_id, workflow_id) {
            return Err(RegistryError::NotFound { entity: "Workflow", key: workflow_id.to_string() });
        }
        let unlink = Op::Unlink(UserWorkflows, user_id, workflow_id);
        if self.store.user_workflows.lefts_of(workflow_id) == [user_id] {
            self.commit([unlink, Op::DeleteWorkflow(workflow_id), Op::RemoveLeft(WorkflowPes, workflow_id)])
        } else {
            self.commit([unlink])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::{encode_code, hash_password};
    use laminar_embed::Embedding;

    fn dao() -> Dao {
        Dao::new(Store::new(), WalStore::ephemeral())
    }

    fn user(name: &str) -> UserEntity {
        UserEntity { user_id: 0, user_name: name.into(), password_hash: hash_password(name, "pw") }
    }

    fn pe(name: &str) -> PeEntity {
        PeEntity {
            pe_id: 0,
            pe_name: name.into(),
            description: format!("{name} description"),
            description_generated: false,
            pe_code: encode_code(&format!("pe {name} : producer {{ output o; process {{ emit(1); }} }}")),
            pe_imports: vec![],
            code_embedding: Embedding::from_dense(&[1.0, 0.0]),
            desc_embedding: Embedding::from_dense(&[0.0, 1.0]),
        }
    }

    fn wf(entry: &str) -> WorkflowEntity {
        WorkflowEntity::new(
            &format!("{entry}Wf"),
            entry,
            "",
            laminar_script::prepare("workflow X { }").unwrap(),
        )
    }

    #[test]
    fn user_crud() {
        let mut d = dao();
        assert_eq!(d.insert_user(user("zz46")).unwrap().user_id, 1);
        assert_eq!(d.user_by_name("zz46").unwrap().user_id, 1);
        assert!(matches!(d.insert_user(user("zz46")), Err(RegistryError::Duplicate { entity: "User", .. })));
        assert_eq!(d.all_users().count(), 1);
        assert!(d.user_by_name("nobody").is_err());
    }

    #[test]
    fn pe_ownership_lifecycle() {
        let mut d = dao();
        let u1 = d.insert_user(user("a")).unwrap().user_id;
        let u2 = d.insert_user(user("b")).unwrap().user_id;
        let p = d.insert_pe(pe("IsPrime"), u1).unwrap().pe_id;
        assert_eq!(d.pes_of_user(u1).count(), 1);
        // Second owner joins rather than duplicating (paper §3.1).
        d.link_user_pe(u2, p).unwrap();
        assert_eq!(d.pes_of_user(u2).count(), 1);
        // First owner leaves: the row survives for the second owner.
        d.remove_pe_for_user(u1, p).unwrap();
        assert!(d.pe_by_id(p).is_ok());
        // Last owner leaves: the row is gone.
        d.remove_pe_for_user(u2, p).unwrap();
        assert!(d.pe_by_id(p).is_err());
        // Removing twice errors.
        assert!(d.remove_pe_for_user(u2, p).is_err());
    }

    #[test]
    fn workflow_pe_links() {
        let mut d = dao();
        let u = d.insert_user(user("a")).unwrap().user_id;
        let p1 = d.insert_pe(pe("P1"), u).unwrap().pe_id;
        let p2 = d.insert_pe(pe("P2"), u).unwrap().pe_id;
        let w = d.insert_workflow(wf("flow"), u).unwrap().workflow_id;
        d.link_workflow_pe(w, p1).unwrap();
        d.link_workflow_pe(w, p2).unwrap();
        assert_eq!(d.pes_of_workflow(w).count(), 2);
        // Linking an unknown PE fails cleanly.
        assert!(d.link_workflow_pe(w, 999).is_err());
        assert!(d.link_workflow_pe(999, p1).is_err());
    }

    #[test]
    fn pe_deletion_detaches_from_workflows() {
        let mut d = dao();
        let u = d.insert_user(user("a")).unwrap().user_id;
        let p = d.insert_pe(pe("P"), u).unwrap().pe_id;
        let w = d.insert_workflow(wf("f"), u).unwrap().workflow_id;
        d.link_workflow_pe(w, p).unwrap();
        d.remove_pe_for_user(u, p).unwrap();
        assert_eq!(d.pes_of_workflow(w).count(), 0);
    }

    #[test]
    fn workflow_removal() {
        let mut d = dao();
        let u = d.insert_user(user("a")).unwrap().user_id;
        let w = d.insert_workflow(wf("f"), u).unwrap().workflow_id;
        assert_eq!(d.workflows_of_user(u).count(), 1);
        assert_eq!(d.workflow_by_entry("f").unwrap().workflow_id, w);
        d.remove_workflow_for_user(u, w).unwrap();
        assert!(d.workflow_by_id(w).is_err());
        assert!(d.workflow_by_entry("f").is_err());
    }
}
