//! The embedded table store: typed entity tables with auto-increment
//! primary keys and one unique column each, plus junction (many-to-many)
//! tables.
//!
//! This is the MySQL substitution (DESIGN.md): the DAO layer above it
//! performs the same CRUD it would against the paper's hosted database.
//!
//! This module owns how an entity is held in memory: tables hold the
//! typed entities themselves. The JSON row form (`RowCodec`, private to
//! this module) exists only where bytes meet the disk — WAL append and
//! replay, snapshot write and load — so a row that does not decode is
//! rejected when the store is opened, never on a later read, and no code
//! above this module can encode or decode one.
//!
//! A loaded store changes in one place, `Store::apply`, which runs one
//! `Op`: live, after the WAL has taken it (`Dao::commit`), and on WAL
//! replay. The table and junction mutators are private to this module, so
//! no other write path can exist.

use crate::entities::{PeEntity, UserEntity, WorkflowEntity};
use crate::error::RegistryError;
use laminar_embed::Embedding;
use laminar_json::{to_string, Value};
use std::collections::{BTreeMap, BTreeSet};

/// What a [`Table`] needs from the entity it holds: its place in the
/// schema, its primary key and its unique column. The on-disk row form is
/// not here but in `RowCodec`, which only this module can name:
///
/// ```compile_fail
/// use laminar_registry::{Registry, Row};
///
/// let mut reg = Registry::in_memory();
/// reg.register_user("zz46", "password").unwrap();
/// let pe = reg.register_pe("zz46", "pe P : producer { output o; process { emit(1); } }", None).unwrap();
/// assert_eq!(pe.unique_key(), "P");
/// let _row = pe.to_row();
/// ```
///
/// The same code without the row form compiles and runs:
///
/// ```
/// use laminar_registry::{Registry, Row};
///
/// let mut reg = Registry::in_memory();
/// reg.register_user("zz46", "password").unwrap();
/// let pe = reg.register_pe("zz46", "pe P : producer { output o; process { emit(1); } }", None).unwrap();
/// assert_eq!(pe.unique_key(), "P");
/// ```
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
}

/// An entity's on-disk row form: the JSON a WAL insert and a snapshot
/// carry. Private to this module, so the row form stops at the
/// persistence boundary.
trait RowCodec: Row {
    /// Entity → on-disk row.
    fn to_row(&self) -> Value;
    /// On-disk row → entity; `None` when a required column is missing or
    /// mistyped.
    fn from_row(row: &Value) -> Option<Self>;
}

impl RowCodec for UserEntity {
    fn from_row(row: &Value) -> Option<UserEntity> {
        Some(UserEntity {
            user_id: row[Self::ID].as_i64()?,
            user_name: row[Self::UNIQUE].as_str()?.to_string(),
            password_hash: row["password"].as_str()?.to_string(),
        })
    }

    fn to_row(&self) -> Value {
        let mut v = Value::Null;
        v.set(Self::ID, self.user_id)
            .set(Self::UNIQUE, self.user_name.as_str())
            .set("password", self.password_hash.as_str());
        v
    }
}

impl RowCodec for PeEntity {
    fn from_row(row: &Value) -> Option<PeEntity> {
        Some(PeEntity {
            pe_id: row[Self::ID].as_i64()?,
            pe_name: row[Self::UNIQUE].as_str()?.to_string(),
            description: row["description"].as_str().unwrap_or("").to_string(),
            description_generated: row["descriptionGenerated"].as_bool().unwrap_or(false),
            pe_code: row["peCode"].as_str()?.to_string(),
            pe_imports: row["peImports"]
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
            code_embedding: Embedding::from_value(&row["codeEmbedding"])?,
            desc_embedding: Embedding::from_value(&row["descEmbedding"])?,
        })
    }

    fn to_row(&self) -> Value {
        let mut v = Value::Null;
        v.set(Self::ID, self.pe_id)
            .set(Self::UNIQUE, self.pe_name.as_str())
            .set("description", self.description.as_str())
            .set("descriptionGenerated", self.description_generated)
            .set("peCode", self.pe_code.as_str())
            .set("peImports", Value::Array(self.pe_imports.iter().map(|i| Value::Str(i.clone())).collect()))
            .set("codeEmbedding", self.code_embedding.to_value())
            .set("descEmbedding", self.desc_embedding.to_value());
        v
    }
}

impl RowCodec for WorkflowEntity {
    fn from_row(row: &Value) -> Option<WorkflowEntity> {
        WorkflowEntity::stored(
            row[Self::ID].as_i64()?,
            row["workflowName"].as_str()?,
            row[Self::UNIQUE].as_str()?,
            row["description"].as_str().unwrap_or(""),
            row["workflowCode"].as_str()?,
        )
    }

    fn to_row(&self) -> Value {
        let mut v = Value::Null;
        v.set(Self::ID, self.workflow_id)
            .set("workflowName", self.workflow_name.as_str())
            .set(Self::UNIQUE, self.entry_point.as_str())
            .set("description", self.description.as_str())
            .set("workflowCode", self.workflow_code.as_str());
        v
    }
}

/// Decode the on-disk row journaled under `id`.
fn decode<T: RowCodec>(id: i64, row: &Value) -> Result<T, RegistryError> {
    T::from_row(row)
        .filter(|r| r.id() == id)
        .ok_or_else(|| RegistryError::Storage(format!("corrupt {} row {id}", T::TABLE)))
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
    pub(crate) fn new() -> Table<T> {
        Table { next_id: 1, rows: BTreeMap::new(), unique: BTreeMap::new() }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no rows.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Give `row` the id an insert of it gets, and return that id;
    /// `Duplicate` when its unique key is taken.
    pub(crate) fn assign_id(&self, row: &mut T) -> Result<i64, RegistryError> {
        if self.unique.contains_key(row.unique_key()) {
            return Err(RegistryError::Duplicate {
                entity: T::ENTITY,
                field: T::UNIQUE,
                value: row.unique_key().to_string(),
            });
        }
        row.set_id(self.next_id);
        Ok(self.next_id)
    }

    /// Add `row` under the id it carries.
    fn put(&mut self, row: T) -> Result<(), RegistryError> {
        let id = row.id();
        if self.rows.contains_key(&id) {
            return Err(RegistryError::Duplicate { entity: T::ENTITY, field: T::ID, value: id.to_string() });
        }
        self.unique.insert(row.unique_key().to_string(), id);
        self.next_id = self.next_id.max(id.saturating_add(1));
        self.rows.insert(id, row);
        Ok(())
    }

    /// Fetch an entity by id.
    pub(crate) fn get(&self, id: i64) -> Option<&T> {
        self.rows.get(&id)
    }

    /// Look up a row id by the unique column.
    pub(crate) fn find_unique(&self, key: &str) -> Option<i64> {
        self.unique.get(key).copied()
    }

    /// Delete a row, returning the entity.
    fn delete(&mut self, id: i64) -> Option<T> {
        let row = self.rows.remove(&id)?;
        self.unique.remove(row.unique_key());
        Some(row)
    }

    /// Iterate the entities in id order.
    pub fn scan(&self) -> impl Iterator<Item = &T> {
        self.rows.values()
    }

    /// Serialize the table for snapshots: the row form, so private to this
    /// module.
    fn to_value(&self) -> Value
    where
        T: RowCodec,
    {
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

    /// Rebuild from a snapshot value. `next_id` never falls below a
    /// restored id, whatever the snapshot says.
    fn from_value(v: &Value) -> Result<Table<T>, RegistryError>
    where
        T: RowCodec,
    {
        if v["name"].as_str() != Some(T::TABLE) {
            return Err(RegistryError::Storage(format!("snapshot is missing table '{}'", T::TABLE)));
        }
        let mut t = Table::new();
        for entry in v["rows"].as_array().unwrap_or(&[]) {
            let id = entry["id"].as_i64().ok_or(RegistryError::Storage("row missing id".into()))?;
            t.put(decode(id, &entry["row"])?)?;
        }
        t.next_id = t.next_id.max(v["next_id"].as_i64().unwrap_or(1));
        Ok(t)
    }
}

/// A many-to-many junction table (unordered pairs of foreign keys).
///
/// `pairs` is the table; `owners` holds the same links as
/// `(right, left)`, so the lefts of one right are a range too. It is
/// derived: written beside every change of `pairs`, rebuilt on load, never
/// serialized.
#[derive(Debug, Clone, Default)]
pub struct Junction {
    pairs: BTreeSet<(i64, i64)>,
    owners: BTreeSet<(i64, i64)>,
}

impl Junction {
    /// Link `left` and `right`. Returns false if already linked.
    fn link(&mut self, left: i64, right: i64) -> bool {
        let fresh = self.pairs.insert((left, right));
        if fresh {
            self.owners.insert((right, left));
        }
        fresh
    }

    /// Remove a link.
    fn unlink(&mut self, left: i64, right: i64) -> bool {
        let linked = self.pairs.remove(&(left, right));
        if linked {
            self.owners.remove(&(right, left));
        }
        linked
    }

    /// Is the pair linked?
    pub(crate) fn linked(&self, left: i64, right: i64) -> bool {
        self.pairs.contains(&(left, right))
    }

    /// All right-ids linked to `left`, ascending: one range of the ordered
    /// pairs, not a walk over every link.
    pub(crate) fn rights_of(&self, left: i64) -> Vec<i64> {
        seconds(&self.pairs, left)
    }

    /// All left-ids linked to `right`, ascending: one range of the owner
    /// index.
    pub(crate) fn lefts_of(&self, right: i64) -> Vec<i64> {
        seconds(&self.owners, right)
    }

    /// Remove every pair touching `left` on the left side.
    fn remove_left(&mut self, left: i64) {
        for right in self.rights_of(left) {
            self.unlink(left, right);
        }
    }

    /// Remove every pair touching `right` on the right side.
    fn remove_right(&mut self, right: i64) {
        for left in self.lefts_of(right) {
            self.unlink(left, right);
        }
    }

    /// Iterate every `(left, right)` pair in ascending order (used to
    /// rebuild derived structures like the search index after recovery).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
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
    pub(crate) fn to_value(&self) -> Value {
        self.pairs.iter().map(|(l, r)| Value::Array(vec![Value::Int(*l), Value::Int(*r)])).collect()
    }

    /// Rebuild from a snapshot value; every pair must be two integers.
    pub(crate) fn from_value(v: &Value) -> Result<Junction, RegistryError> {
        let pair = |p: &Value| match p.as_array() {
            Some([l, r]) => l.as_i64().zip(r.as_i64()),
            _ => None,
        };
        let corrupt = |p: &Value| RegistryError::Storage(format!("corrupt junction pair {}", to_string(p)));
        let pairs: BTreeSet<(i64, i64)> = v
            .as_array()
            .unwrap_or(&[])
            .iter()
            .map(|p| pair(p).ok_or_else(|| corrupt(p)))
            .collect::<Result<_, _>>()?;
        let owners = pairs.iter().map(|&(l, r)| (r, l)).collect();
        Ok(Junction { pairs, owners })
    }
}

/// The second members of `set`'s pairs whose first is `first`, ascending.
fn seconds(set: &BTreeSet<(i64, i64)>, first: i64) -> Vec<i64> {
    set.range((first, i64::MIN)..=(first, i64::MAX)).map(|&(_, second)| second).collect()
}

/// A junction table, as a link op names it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JunctionName {
    UserPes,
    UserWorkflows,
    WorkflowPes,
}

impl JunctionName {
    fn as_str(self) -> &'static str {
        match self {
            JunctionName::UserPes => "user_pes",
            JunctionName::UserWorkflows => "user_workflows",
            JunctionName::WorkflowPes => "workflow_pes",
        }
    }
}

/// One registry mutation: what the WAL records, one JSON line each, and
/// what [`Store::apply`] runs. An insert carries its entity with its id
/// already assigned.
#[derive(Debug)]
pub(crate) enum Op {
    InsertUser(UserEntity),
    InsertPe(PeEntity),
    InsertWorkflow(WorkflowEntity),
    DeleteUser(i64),
    DeletePe(i64),
    DeleteWorkflow(i64),
    Link(JunctionName, i64, i64),
    Unlink(JunctionName, i64, i64),
    RemoveLeft(JunctionName, i64),
    RemoveRight(JunctionName, i64),
}

impl Op {
    /// The WAL record, `{"op": "...", ...}`.
    pub(crate) fn to_value(&self) -> Value {
        fn insert<'a, T: RowCodec>(v: &'a mut Value, row: &T) -> &'a mut Value {
            v.set("op", "insert").set("table", T::TABLE).set("id", row.id()).set("row", row.to_row())
        }
        let mut v = Value::Null;
        match *self {
            Op::InsertUser(ref row) => insert(&mut v, row),
            Op::InsertPe(ref row) => insert(&mut v, row),
            Op::InsertWorkflow(ref row) => insert(&mut v, row),
            Op::DeleteUser(id) => v.set("op", "delete").set("table", UserEntity::TABLE).set("id", id),
            Op::DeletePe(id) => v.set("op", "delete").set("table", PeEntity::TABLE).set("id", id),
            Op::DeleteWorkflow(id) => v.set("op", "delete").set("table", WorkflowEntity::TABLE).set("id", id),
            Op::Link(j, l, r) => {
                v.set("op", "link").set("junction", j.as_str()).set("left", l).set("right", r)
            }
            Op::Unlink(j, l, r) => {
                v.set("op", "unlink").set("junction", j.as_str()).set("left", l).set("right", r)
            }
            Op::RemoveLeft(j, l) => v.set("op", "remove_left").set("junction", j.as_str()).set("left", l),
            Op::RemoveRight(j, r) => v.set("op", "remove_right").set("junction", j.as_str()).set("right", r),
        };
        v
    }

    /// Read a WAL record back. A record that names no known op, table or
    /// junction, or lacks an integer its op needs, is corruption.
    pub(crate) fn from_value(v: &Value) -> Result<Op, RegistryError> {
        let corrupt = || RegistryError::Storage(format!("corrupt WAL op {}", to_string(v)));
        let int = |key: &str| v[key].as_i64().ok_or_else(corrupt);
        let junction = [JunctionName::UserPes, JunctionName::UserWorkflows, JunctionName::WorkflowPes]
            .into_iter()
            .find(|j| Some(j.as_str()) == v["junction"].as_str())
            .ok_or_else(corrupt);
        let id = || int("id");
        Ok(match (v["op"].as_str().unwrap_or(""), v["table"].as_str().unwrap_or("")) {
            ("insert", UserEntity::TABLE) => Op::InsertUser(decode(id()?, &v["row"])?),
            ("insert", PeEntity::TABLE) => Op::InsertPe(decode(id()?, &v["row"])?),
            ("insert", WorkflowEntity::TABLE) => Op::InsertWorkflow(decode(id()?, &v["row"])?),
            ("delete", UserEntity::TABLE) => Op::DeleteUser(id()?),
            ("delete", PeEntity::TABLE) => Op::DeletePe(id()?),
            ("delete", WorkflowEntity::TABLE) => Op::DeleteWorkflow(id()?),
            ("link", _) => Op::Link(junction?, int("left")?, int("right")?),
            ("unlink", _) => Op::Unlink(junction?, int("left")?, int("right")?),
            ("remove_left", _) => Op::RemoveLeft(junction?, int("left")?),
            ("remove_right", _) => Op::RemoveRight(junction?, int("right")?),
            _ => return Err(corrupt()),
        })
    }
}

/// The registry's full schema (paper Figure 4): three entity tables and
/// three junction tables.
#[derive(Debug, Clone, Default)]
pub struct Store {
    /// Users (unique `userName`).
    pub(crate) users: Table<UserEntity>,
    /// Processing Elements (unique `peName`).
    pub pes: Table<PeEntity>,
    /// Workflows (unique `entryPoint`).
    pub(crate) workflows: Table<WorkflowEntity>,
    /// user ↔ PE ownership (one-way many-to-many).
    pub user_pes: Junction,
    /// user ↔ workflow ownership.
    pub(crate) user_workflows: Junction,
    /// workflow ↔ PE membership (two-way many-to-many).
    pub(crate) workflow_pes: Junction,
}

impl Store {
    /// Empty store with the registry schema.
    pub fn new() -> Store {
        Store::default()
    }

    /// Run one op: the only change a loaded store takes, live (after the
    /// WAL took the op) and on WAL replay. An insert fails on an id the
    /// table holds; a delete or unlink of what is absent changes nothing.
    pub(crate) fn apply(&mut self, op: Op) -> Result<(), RegistryError> {
        match op {
            Op::InsertUser(row) => return self.users.put(row),
            Op::InsertPe(row) => return self.pes.put(row),
            Op::InsertWorkflow(row) => return self.workflows.put(row),
            Op::DeleteUser(id) => drop(self.users.delete(id)),
            Op::DeletePe(id) => drop(self.pes.delete(id)),
            Op::DeleteWorkflow(id) => drop(self.workflows.delete(id)),
            Op::Link(j, left, right) => _ = self.junction(j).link(left, right),
            Op::Unlink(j, left, right) => _ = self.junction(j).unlink(left, right),
            Op::RemoveLeft(j, left) => self.junction(j).remove_left(left),
            Op::RemoveRight(j, right) => self.junction(j).remove_right(right),
        }
        Ok(())
    }

    fn junction(&mut self, j: JunctionName) -> &mut Junction {
        match j {
            JunctionName::UserPes => &mut self.user_pes,
            JunctionName::UserWorkflows => &mut self.user_workflows,
            JunctionName::WorkflowPes => &mut self.workflow_pes,
        }
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
    pub(crate) fn from_value(v: &Value) -> Result<Store, RegistryError> {
        Ok(Store {
            users: Table::from_value(&v["users"])?,
            pes: Table::from_value(&v["pes"])?,
            workflows: Table::from_value(&v["workflows"])?,
            user_pes: Junction::from_value(&v["user_pes"])?,
            user_workflows: Junction::from_value(&v["user_workflows"])?,
            workflow_pes: Junction::from_value(&v["workflow_pes"])?,
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

    /// What an insert does: take the next id, then add the row.
    fn insert<T: Row>(t: &mut Table<T>, mut row: T) -> Result<i64, RegistryError> {
        let id = t.assign_id(&mut row)?;
        t.put(row)?;
        Ok(id)
    }

    #[test]
    fn insert_get_delete() {
        let mut t = Table::new();
        let id = insert(&mut t, user("zz46")).unwrap();
        assert_eq!(id, 1);
        assert_eq!(t.get(id).unwrap().user_id, 1);
        assert_eq!(t.find_unique("zz46"), Some(1));

        let removed = t.delete(id).unwrap();
        assert_eq!(removed.user_name, "zz46");
        assert_eq!(t.find_unique("zz46"), None);
        assert!(t.get(id).is_none());
        assert!(t.delete(id).is_none());
    }

    #[test]
    fn unique_violation() {
        let mut t = Table::new();
        insert(&mut t, user("zz46")).unwrap();
        let err = insert(&mut t, user("zz46")).unwrap_err();
        assert_eq!(err.code(), 409);
        assert!(
            matches!(err, RegistryError::Duplicate { entity: "User", field: "userName", .. }),
            "the table names the entity and column itself: {err:?}"
        );
    }

    #[test]
    fn ids_monotonic_after_delete() {
        let mut t = Table::new();
        let a = insert(&mut t, user("a")).unwrap();
        t.delete(a).unwrap();
        let b = insert(&mut t, user("b")).unwrap();
        assert!(b > a, "ids never reused");
    }

    #[test]
    fn restore_rejects_a_row_that_does_not_decode() {
        let mut t = Table::<UserEntity>::new();
        let restore = |t: &mut Table<UserEntity>, id, row: &Value| decode(id, row).and_then(|r| t.put(r));
        let mut row = user("zz46").to_row();
        row.set("userId", 4);
        restore(&mut t, 4, &row).unwrap();
        assert_eq!(t.find_unique("zz46"), Some(4));
        assert!(restore(&mut t, 4, &row).is_err(), "an id is restored once");
        assert!(
            matches!(restore(&mut t, 5, &row), Err(RegistryError::Storage(_))),
            "row and record disagree on id"
        );
        assert!(matches!(restore(&mut t, 6, &Value::Null), Err(RegistryError::Storage(_))));
        assert_eq!(insert(&mut t, user("next")).unwrap(), 5, "next_id follows the restored ids");
    }

    #[test]
    fn snapshot_round_trip() {
        let mut s = Store::new();
        let uid = insert(&mut s.users, user("zz46")).unwrap();
        let wid = insert(&mut s.workflows, workflow("isPrime")).unwrap();
        s.user_workflows.link(uid, wid);
        s.workflow_pes.link(wid, 7);
        let v = s.to_value();
        let mut back = Store::from_value(&v).unwrap();
        assert_eq!(back.users.find_unique("zz46"), Some(uid));
        assert_eq!(back.workflows.get(wid), s.workflows.get(wid));
        assert!(back.user_workflows.linked(uid, wid));
        assert!(back.workflow_pes.linked(wid, 7));
        // next_id preserved: a new insert gets a fresh id.
        let wid2 = insert(&mut back.workflows, workflow("other")).unwrap();
        assert!(wid2 > wid);
        // A table filed under another table's key is not loaded as that table.
        let mut swapped = v.clone();
        swapped.set("users", v["workflows"].clone());
        assert!(matches!(Store::from_value(&swapped), Err(RegistryError::Storage(_))));
    }

    #[test]
    fn junction_queries() {
        let mut j = Junction::default();
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
        let mut j = Junction::default();
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

    #[test]
    fn lefts_of_answers_what_filtering_every_pair_answers() {
        let mut j = Junction::default();
        // Rights interleaved in link order, lefts at both ends of i64.
        let rights = [i64::MIN, -3, 0, 1, 2, 7, i64::MAX];
        for left in [5, i64::MIN, 0, i64::MAX, -9, 42, 1] {
            for (k, &right) in rights.iter().enumerate() {
                if (left as i128 + k as i128) % 3 != 0 {
                    j.link(left, right);
                }
            }
        }
        // Unlinks and both removals keep the owner index in step.
        j.unlink(42, 0);
        j.unlink(42, 0);
        j.remove_left(-9);
        j.remove_right(7);
        let reloaded = Junction::from_value(&j.to_value()).unwrap();
        for j in [&j, &reloaded] {
            for right in rights.into_iter().chain([-4, 3, 8]) {
                let filtered: Vec<i64> = j.iter().filter(|&(_, r)| r == right).map(|(l, _)| l).collect();
                assert_eq!(j.lefts_of(right), filtered, "right {right}");
            }
            assert_eq!(j.owners.len(), j.len(), "one owner entry per pair");
        }
        assert!(j.rights_of(-9).is_empty() && j.lefts_of(7).is_empty());
        assert!(!j.linked(42, 0) && j.linked(42, -3));
    }
}
