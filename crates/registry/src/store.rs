//! The embedded table store: typed entity tables with auto-increment
//! primary keys and one unique column each, plus junction (many-to-many)
//! tables.
//!
//! This is the MySQL substitution (DESIGN.md): the DAO layer above it
//! performs the same CRUD it would against the paper's hosted database.
//!
//! This module owns how an entity is held in memory: tables hold the
//! typed entities themselves. The JSON row form ([`Row::to_row`] /
//! [`Row::from_row`]) exists only where bytes meet the disk — WAL append
//! and replay, snapshot write and load — so a row that does not decode is
//! rejected when the store is opened, never on a later read.

use crate::entities::{PeEntity, UserEntity, WorkflowEntity};
use crate::error::RegistryError;
use laminar_json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// What a [`Table`] needs from the entity it holds: its place in the
/// schema and its on-disk row form.
pub trait Row: Clone {
    /// Table name in snapshots and WAL ops (`"pes"`).
    const TABLE: &'static str;
    /// Primary-key column of the row form (`"peId"`).
    const ID: &'static str;
    /// The table's one unique column (`"peName"`).
    const UNIQUE: &'static str;
    /// Entity name in errors (`"PE"`).
    const ENTITY: &'static str;

    /// Primary key.
    fn id(&self) -> i64;
    /// Assign the primary key (insertion).
    fn set_id(&mut self, id: i64);
    /// Value of the unique column.
    fn unique_key(&self) -> &str;
    /// Entity → on-disk row.
    fn to_row(&self) -> Value;
    /// On-disk row → entity; `None` when a required column is missing or
    /// mistyped.
    fn from_row(row: &Value) -> Option<Self>;
}

/// One table: entities keyed by auto-increment id, with an index over the
/// unique column.
#[derive(Debug, Clone)]
pub struct Table<T: Row> {
    next_id: i64,
    rows: BTreeMap<i64, T>,
    unique: BTreeMap<String, i64>,
}

impl<T: Row> Default for Table<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Row> Table<T> {
    /// Empty table.
    pub fn new() -> Table<T> {
        Table { next_id: 1, rows: BTreeMap::new(), unique: BTreeMap::new() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert an entity, assigning and returning its id.
    pub fn insert(&mut self, mut row: T) -> Result<i64, RegistryError> {
        if self.unique.contains_key(row.unique_key()) {
            return Err(RegistryError::Duplicate {
                entity: T::ENTITY,
                field: T::UNIQUE,
                value: row.unique_key().to_string(),
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        row.set_id(id);
        self.unique.insert(row.unique_key().to_string(), id);
        self.rows.insert(id, row);
        Ok(id)
    }

    /// Decode an on-disk row and insert it under the id it was journaled
    /// with (WAL replay and snapshot load).
    pub fn restore(&mut self, id: i64, row: &Value) -> Result<(), RegistryError> {
        let row = T::from_row(row)
            .filter(|r| r.id() == id)
            .ok_or_else(|| RegistryError::Storage(format!("corrupt {} row {id}", T::TABLE)))?;
        if self.rows.contains_key(&id) {
            return Err(RegistryError::Duplicate { entity: T::ENTITY, field: T::ID, value: id.to_string() });
        }
        self.unique.insert(row.unique_key().to_string(), id);
        self.next_id = self.next_id.max(id.saturating_add(1));
        self.rows.insert(id, row);
        Ok(())
    }

    /// Fetch an entity by id.
    pub fn get(&self, id: i64) -> Option<&T> {
        self.rows.get(&id)
    }

    /// Look up a row id by the unique column.
    pub fn find_unique(&self, key: &str) -> Option<i64> {
        self.unique.get(key).copied()
    }

    /// Delete a row, returning the entity.
    pub fn delete(&mut self, id: i64) -> Result<T, RegistryError> {
        let row = self
            .rows
            .remove(&id)
            .ok_or(RegistryError::NotFound { entity: T::ENTITY, key: id.to_string() })?;
        self.unique.remove(row.unique_key());
        Ok(row)
    }

    /// Iterate the entities in id order.
    pub fn scan(&self) -> impl Iterator<Item = &T> {
        self.rows.values()
    }

    /// Serialize the table for snapshots.
    pub fn to_value(&self) -> Value {
        let rows: Value = self
            .rows
            .iter()
            .map(|(id, row)| {
                let mut v = Value::Null;
                v.set("id", *id).set("row", row.to_row());
                v
            })
            .collect();
        let mut v = Value::Null;
        v.set("name", T::TABLE)
            .set("next_id", self.next_id)
            .set("unique", Value::Array(vec![Value::Str(T::UNIQUE.to_string())]))
            .set("rows", rows);
        v
    }

    /// Rebuild from a snapshot value.
    pub fn from_value(v: &Value) -> Result<Table<T>, RegistryError> {
        if v["name"].as_str() != Some(T::TABLE) {
            return Err(RegistryError::Storage(format!("snapshot is missing table '{}'", T::TABLE)));
        }
        let mut t = Table::new();
        for entry in v["rows"].as_array().unwrap_or(&[]) {
            let id = entry["id"].as_i64().ok_or(RegistryError::Storage("row missing id".into()))?;
            t.restore(id, &entry["row"])?;
        }
        t.next_id = v["next_id"].as_i64().unwrap_or(t.next_id);
        Ok(t)
    }
}

/// A many-to-many junction table (unordered pairs of foreign keys).
#[derive(Debug, Clone, Default)]
pub struct Junction {
    pairs: BTreeSet<(i64, i64)>,
}

impl Junction {
    /// Empty junction.
    pub fn new() -> Junction {
        Junction::default()
    }

    /// Link `left` and `right`. Returns false if already linked.
    pub fn link(&mut self, left: i64, right: i64) -> bool {
        self.pairs.insert((left, right))
    }

    /// Remove a link.
    pub fn unlink(&mut self, left: i64, right: i64) -> bool {
        self.pairs.remove(&(left, right))
    }

    /// Is the pair linked?
    pub fn linked(&self, left: i64, right: i64) -> bool {
        self.pairs.contains(&(left, right))
    }

    /// All right-ids linked to `left`, ascending: one range of the ordered
    /// pairs, not a walk over every link.
    pub fn rights_of(&self, left: i64) -> Vec<i64> {
        self.pairs.range((left, i64::MIN)..=(left, i64::MAX)).map(|&(_, r)| r).collect()
    }

    /// All left-ids linked to `right`.
    pub fn lefts_of(&self, right: i64) -> Vec<i64> {
        self.pairs.iter().filter(|(_, r)| *r == right).map(|(l, _)| *l).collect()
    }

    /// Remove every pair touching `left` on the left side.
    pub fn remove_left(&mut self, left: i64) {
        self.pairs.retain(|(l, _)| *l != left);
    }

    /// Remove every pair touching `right` on the right side.
    pub fn remove_right(&mut self, right: i64) {
        self.pairs.retain(|(_, r)| *r != right);
    }

    /// Iterate every `(left, right)` pair in ascending order (used to
    /// rebuild derived structures like the search index after recovery).
    pub fn iter(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        self.pairs.iter().copied()
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no links exist.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Serialize for snapshots.
    pub fn to_value(&self) -> Value {
        self.pairs.iter().map(|(l, r)| Value::Array(vec![Value::Int(*l), Value::Int(*r)])).collect()
    }

    /// Rebuild from a snapshot value.
    pub fn from_value(v: &Value) -> Junction {
        let mut j = Junction::new();
        for pair in v.as_array().unwrap_or(&[]) {
            if let (Some(l), Some(r)) = (pair[0].as_i64(), pair[1].as_i64()) {
                j.link(l, r);
            }
        }
        j
    }
}

/// The registry's full schema (paper Figure 4): three entity tables and
/// three junction tables.
#[derive(Debug, Clone, Default)]
pub struct Store {
    /// Users (unique `userName`).
    pub users: Table<UserEntity>,
    /// Processing Elements (unique `peName`).
    pub pes: Table<PeEntity>,
    /// Workflows (unique `entryPoint`).
    pub workflows: Table<WorkflowEntity>,
    /// user ↔ PE ownership (one-way many-to-many).
    pub user_pes: Junction,
    /// user ↔ workflow ownership.
    pub user_workflows: Junction,
    /// workflow ↔ PE membership (two-way many-to-many).
    pub workflow_pes: Junction,
}

impl Store {
    /// Empty store with the registry schema.
    pub fn new() -> Store {
        Store::default()
    }

    /// Serialize the whole store (snapshot format).
    pub fn to_value(&self) -> Value {
        let mut v = Value::Null;
        v.set("users", self.users.to_value())
            .set("pes", self.pes.to_value())
            .set("workflows", self.workflows.to_value())
            .set("user_pes", self.user_pes.to_value())
            .set("user_workflows", self.user_workflows.to_value())
            .set("workflow_pes", self.workflow_pes.to_value());
        v
    }

    /// Rebuild from a snapshot.
    pub fn from_value(v: &Value) -> Result<Store, RegistryError> {
        Ok(Store {
            users: Table::from_value(&v["users"])?,
            pes: Table::from_value(&v["pes"])?,
            workflows: Table::from_value(&v["workflows"])?,
            user_pes: Junction::from_value(&v["user_pes"]),
            user_workflows: Junction::from_value(&v["user_workflows"]),
            workflow_pes: Junction::from_value(&v["workflow_pes"]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(name: &str) -> UserEntity {
        UserEntity { user_id: 0, user_name: name.into(), password_hash: "h".into() }
    }

    fn workflow(entry: &str) -> WorkflowEntity {
        WorkflowEntity::new("Wf", entry, "", laminar_script::prepare("").unwrap())
    }

    #[test]
    fn insert_get_delete() {
        let mut t = Table::new();
        let id = t.insert(user("zz46")).unwrap();
        assert_eq!(id, 1);
        assert_eq!(t.get(id).unwrap().user_id, 1);
        assert_eq!(t.find_unique("zz46"), Some(1));

        let removed = t.delete(id).unwrap();
        assert_eq!(removed.user_name, "zz46");
        assert_eq!(t.find_unique("zz46"), None);
        assert!(t.get(id).is_none());
        assert!(t.delete(id).is_err());
    }

    #[test]
    fn unique_violation() {
        let mut t = Table::new();
        t.insert(user("zz46")).unwrap();
        let err = t.insert(user("zz46")).unwrap_err();
        assert_eq!(err.code(), 409);
        assert!(
            matches!(err, RegistryError::Duplicate { entity: "User", field: "userName", .. }),
            "the table names the entity and column itself: {err:?}"
        );
    }

    #[test]
    fn ids_monotonic_after_delete() {
        let mut t = Table::new();
        let a = t.insert(user("a")).unwrap();
        t.delete(a).unwrap();
        let b = t.insert(user("b")).unwrap();
        assert!(b > a, "ids never reused");
    }

    #[test]
    fn restore_rejects_a_row_that_does_not_decode() {
        let mut t = Table::<UserEntity>::new();
        let mut row = user("zz46").to_row();
        row.set("userId", 4);
        t.restore(4, &row).unwrap();
        assert_eq!(t.find_unique("zz46"), Some(4));
        assert!(t.restore(4, &row).is_err(), "an id is restored once");
        assert!(
            matches!(t.restore(5, &row), Err(RegistryError::Storage(_))),
            "row and record disagree on id"
        );
        assert!(matches!(t.restore(6, &Value::Null), Err(RegistryError::Storage(_))));
        assert_eq!(t.insert(user("next")).unwrap(), 5, "next_id follows the restored ids");
    }

    #[test]
    fn snapshot_round_trip() {
        let mut s = Store::new();
        let uid = s.users.insert(user("zz46")).unwrap();
        let wid = s.workflows.insert(workflow("isPrime")).unwrap();
        s.user_workflows.link(uid, wid);
        s.workflow_pes.link(wid, 7);
        let v = s.to_value();
        let mut back = Store::from_value(&v).unwrap();
        assert_eq!(back.users.find_unique("zz46"), Some(uid));
        assert_eq!(back.workflows.get(wid), s.workflows.get(wid));
        assert!(back.user_workflows.linked(uid, wid));
        assert!(back.workflow_pes.linked(wid, 7));
        // next_id preserved: a new insert gets a fresh id.
        let wid2 = back.workflows.insert(workflow("other")).unwrap();
        assert!(wid2 > wid);
        // A table filed under another table's key is not loaded as that table.
        let mut swapped = v.clone();
        swapped.set("users", v["workflows"].clone());
        assert!(matches!(Store::from_value(&swapped), Err(RegistryError::Storage(_))));
    }

    #[test]
    fn junction_queries() {
        let mut j = Junction::new();
        assert!(j.link(1, 10));
        assert!(!j.link(1, 10));
        j.link(1, 11);
        j.link(2, 10);
        assert_eq!(j.rights_of(1), vec![10, 11]);
        assert_eq!(j.lefts_of(10), vec![1, 2]);
        assert!(j.linked(2, 10));
        j.unlink(2, 10);
        assert!(!j.linked(2, 10));
        j.remove_left(1);
        assert!(j.rights_of(1).is_empty());
    }

    #[test]
    fn rights_of_answers_what_filtering_every_pair_answers() {
        let mut j = Junction::new();
        // Users interleaved in link order, rights at both ends of i64.
        let lefts = [i64::MIN, -3, 0, 1, 2, 7, i64::MAX];
        for right in [5, i64::MIN, 0, i64::MAX, -9, 42, 1] {
            for (k, &left) in lefts.iter().enumerate() {
                if (right as i128 + k as i128) % 3 != 0 {
                    j.link(left, right);
                }
            }
        }
        for left in lefts.into_iter().chain([-4, 3, 8]) {
            let filtered: Vec<i64> = j.iter().filter(|&(l, _)| l == left).map(|(_, r)| r).collect();
            assert_eq!(j.rights_of(left), filtered, "left {left}");
        }
    }
}
