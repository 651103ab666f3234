//! Durability: snapshot files plus a write-ahead log of JSON lines.
//!
//! The store persists as `<dir>/registry.snapshot` (full JSON) and
//! `<dir>/registry.wal` (one JSON op per line, appended before each
//! mutation is acknowledged). Recovery loads the snapshot then replays the
//! WAL; a torn final line (simulated crash) is tolerated and discarded.
//!
//! This is the boundary where entities take their JSON row form: append
//! and snapshot encode them, replay and snapshot load decode them, and a
//! well-formed record whose row does not decode fails the open.

use crate::error::RegistryError;
use crate::store::Store;
use laminar_json::{parse, to_string, Value};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A durable store snapshots automatically after this many WAL ops
/// (compaction).
const SNAPSHOT_EVERY: usize = 256;

/// Snapshot + WAL persistence for a [`Store`].
pub struct WalStore {
    dir: PathBuf,
    wal: Option<File>,
    ops_since_snapshot: usize,
    /// [`SNAPSHOT_EVERY`] when durable; never when ephemeral.
    snapshot_every: usize,
}

impl WalStore {
    fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("registry.snapshot")
    }

    fn wal_path(dir: &Path) -> PathBuf {
        dir.join("registry.wal")
    }

    /// Open (or create) persistence under `dir`. Returns the recovered
    /// store and the handler.
    pub fn open(dir: &Path) -> Result<(Store, WalStore), RegistryError> {
        std::fs::create_dir_all(dir).map_err(|e| RegistryError::Storage(e.to_string()))?;
        let mut store = Store::new();
        let snap_path = Self::snapshot_path(dir);
        if snap_path.exists() {
            let text =
                std::fs::read_to_string(&snap_path).map_err(|e| RegistryError::Storage(e.to_string()))?;
            let v = parse(&text).map_err(|e| RegistryError::Storage(format!("corrupt snapshot: {e}")))?;
            store = Store::from_value(&v)?;
        }
        let wal_path = Self::wal_path(dir);
        if wal_path.exists() {
            let bytes = std::fs::read(&wal_path).map_err(|e| RegistryError::Storage(e.to_string()))?;
            // A crash can tear the final append mid-record — even inside a
            // multi-byte character — so decode the longest valid prefix
            // and let the tail rule below judge the remainder.
            let text = match String::from_utf8(bytes) {
                Ok(t) => t,
                Err(e) => {
                    let valid = e.utf8_error().valid_up_to();
                    let mut b = e.into_bytes();
                    b.truncate(valid);
                    String::from_utf8(b).expect("prefix up to valid_up_to is valid utf8")
                }
            };
            // Bytes of fully-applied records: everything after them is a
            // torn tail to be cut off so the next append starts clean.
            let mut good_len = 0u64;
            let segments: Vec<&str> = text.split_inclusive('\n').collect();
            for (i, seg) in segments.iter().enumerate() {
                let line = seg.trim_end_matches('\n').trim_end_matches('\r');
                if line.trim().is_empty() {
                    good_len += seg.len() as u64;
                    continue;
                }
                match parse(line) {
                    Ok(op) => {
                        apply_op(&mut store, &op)?;
                        good_len += seg.len() as u64;
                    }
                    // A torn *final* record is a crash artifact (the
                    // append never completed), not corruption: stop
                    // replaying at the last acknowledged op and log the
                    // discard. Anything unparseable *before* other
                    // records is real corruption — replaying past it
                    // would silently resurrect a partial history.
                    Err(_) if i + 1 == segments.len() => {
                        eprintln!(
                            "registry wal: discarding torn final record ({} bytes) after crash",
                            line.len()
                        );
                        break;
                    }
                    Err(e) => {
                        return Err(RegistryError::Storage(format!(
                            "corrupt WAL record at line {}: {e}",
                            i + 1
                        )));
                    }
                }
            }
            // Drop the torn tail (if any) before reopening for append, so
            // the next record is not glued onto garbage.
            let disk_len =
                std::fs::metadata(&wal_path).map_err(|e| RegistryError::Storage(e.to_string()))?.len();
            if good_len < disk_len {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&wal_path)
                    .map_err(|e| RegistryError::Storage(e.to_string()))?;
                f.set_len(good_len).map_err(|e| RegistryError::Storage(e.to_string()))?;
            } else if !text.is_empty() && !text.ends_with('\n') {
                // A complete final record that lost only its newline (the
                // crash landed between the bytes and the terminator): keep
                // the op, restore the separator so the next append starts
                // its own line.
                let mut f = OpenOptions::new()
                    .append(true)
                    .open(&wal_path)
                    .map_err(|e| RegistryError::Storage(e.to_string()))?;
                writeln!(f).map_err(|e| RegistryError::Storage(e.to_string()))?;
            }
        }
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(|e| RegistryError::Storage(e.to_string()))?;
        Ok((
            store,
            WalStore {
                dir: dir.to_path_buf(),
                wal: Some(wal),
                ops_since_snapshot: 0,
                snapshot_every: SNAPSHOT_EVERY,
            },
        ))
    }

    /// In-memory mode: no files, appends are no-ops.
    pub fn ephemeral() -> WalStore {
        WalStore { dir: PathBuf::new(), wal: None, ops_since_snapshot: 0, snapshot_every: usize::MAX }
    }

    /// Record one mutation. Call *before* acknowledging the mutation.
    /// Triggers snapshot compaction when the WAL grows long. The record is
    /// built only when there is a file to write it to.
    pub fn append(&mut self, store: &Store, op: impl FnOnce() -> Value) -> Result<(), RegistryError> {
        let Some(wal) = self.wal.as_mut() else { return Ok(()) };
        writeln!(wal, "{}", to_string(&op())).map_err(|e| RegistryError::Storage(e.to_string()))?;
        wal.flush().map_err(|e| RegistryError::Storage(e.to_string()))?;
        self.ops_since_snapshot += 1;
        if self.ops_since_snapshot >= self.snapshot_every {
            self.snapshot(store)?;
        }
        Ok(())
    }

    /// Write a full snapshot and truncate the WAL.
    pub fn snapshot(&mut self, store: &Store) -> Result<(), RegistryError> {
        if self.wal.is_none() {
            return Ok(());
        }
        let tmp = self.dir.join("registry.snapshot.tmp");
        std::fs::write(&tmp, to_string(&store.to_value()))
            .map_err(|e| RegistryError::Storage(e.to_string()))?;
        std::fs::rename(&tmp, Self::snapshot_path(&self.dir))
            .map_err(|e| RegistryError::Storage(e.to_string()))?;
        // Truncate the WAL now that the snapshot covers it.
        self.wal = Some(
            OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(Self::wal_path(&self.dir))
                .map_err(|e| RegistryError::Storage(e.to_string()))?,
        );
        self.ops_since_snapshot = 0;
        Ok(())
    }
}

/// Replay one WAL op onto a store. Ops are self-describing:
/// `{"op": "...", ...}`.
pub fn apply_op(store: &mut Store, op: &Value) -> Result<(), RegistryError> {
    fn junction<'a>(
        store: &'a mut Store,
        name: &str,
    ) -> Result<&'a mut crate::store::Junction, RegistryError> {
        match name {
            "user_pes" => Ok(&mut store.user_pes),
            "user_workflows" => Ok(&mut store.user_workflows),
            "workflow_pes" => Ok(&mut store.workflow_pes),
            other => Err(RegistryError::Storage(format!("unknown junction '{other}'"))),
        }
    }
    let unknown_table = |name: &str| Err(RegistryError::Storage(format!("unknown table '{name}'")));
    match op["op"].as_str() {
        Some("insert") => {
            let id = op["id"].as_i64().ok_or(RegistryError::Storage("insert missing id".into()))?;
            match op["table"].as_str().unwrap_or("") {
                "users" => store.users.restore(id, &op["row"])?,
                "pes" => store.pes.restore(id, &op["row"])?,
                "workflows" => store.workflows.restore(id, &op["row"])?,
                other => return unknown_table(other),
            }
        }
        Some("delete") => {
            let id = op["id"].as_i64().ok_or(RegistryError::Storage("delete missing id".into()))?;
            match op["table"].as_str().unwrap_or("") {
                "users" => drop(store.users.delete(id)),
                "pes" => drop(store.pes.delete(id)),
                "workflows" => drop(store.workflows.delete(id)),
                other => return unknown_table(other),
            }
        }
        Some("link") => {
            junction(store, op["junction"].as_str().unwrap_or(""))?
                .link(op["left"].as_i64().unwrap_or(0), op["right"].as_i64().unwrap_or(0));
        }
        Some("unlink") => {
            junction(store, op["junction"].as_str().unwrap_or(""))?
                .unlink(op["left"].as_i64().unwrap_or(0), op["right"].as_i64().unwrap_or(0));
        }
        Some("remove_right") => {
            junction(store, op["junction"].as_str().unwrap_or(""))?
                .remove_right(op["right"].as_i64().unwrap_or(0));
        }
        Some("remove_left") => {
            junction(store, op["junction"].as_str().unwrap_or(""))?
                .remove_left(op["left"].as_i64().unwrap_or(0));
        }
        other => return Err(RegistryError::Storage(format!("unknown WAL op {other:?}"))),
    }
    Ok(())
}

/// Helper to build WAL op records.
pub mod ops {
    use crate::store::Row;
    use laminar_json::Value;

    /// Insert record: the entity in its row form.
    pub fn insert<T: Row>(row: &T) -> Value {
        let mut v = Value::Null;
        v.set("op", "insert").set("table", T::TABLE).set("id", row.id()).set("row", row.to_row());
        v
    }

    /// Delete record.
    pub fn delete(table: &str, id: i64) -> Value {
        let mut v = Value::Null;
        v.set("op", "delete").set("table", table).set("id", id);
        v
    }

    /// Link record.
    pub fn link(junction: &str, left: i64, right: i64) -> Value {
        let mut v = Value::Null;
        v.set("op", "link").set("junction", junction).set("left", left).set("right", right);
        v
    }

    /// Unlink record.
    pub fn unlink(junction: &str, left: i64, right: i64) -> Value {
        let mut v = Value::Null;
        v.set("op", "unlink").set("junction", junction).set("left", left).set("right", right);
        v
    }

    /// Remove-right record (cascade deletes).
    pub fn remove_right(junction: &str, right: i64) -> Value {
        let mut v = Value::Null;
        v.set("op", "remove_right").set("junction", junction).set("right", right);
        v
    }

    /// Remove-left record (cascade deletes from the owning side).
    pub fn remove_left(junction: &str, left: i64) -> Value {
        let mut v = Value::Null;
        v.set("op", "remove_left").set("junction", junction).set("left", left);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::UserEntity;

    fn user(name: &str) -> UserEntity {
        UserEntity { user_id: 0, user_name: name.into(), password_hash: "h".into() }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("laminar-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn recovery_replays_wal() {
        let dir = tmpdir("replay");
        {
            let (mut store, mut wal) = WalStore::open(&dir).unwrap();
            let id = store.users.insert(user("zz46")).unwrap();
            wal.append(&store, || ops::insert(store.users.get(id).unwrap())).unwrap();
            store.user_pes.link(id, 7);
            wal.append(&store, || ops::link("user_pes", id, 7)).unwrap();
            // No snapshot: recovery must come from the WAL alone.
        }
        let (store, _) = WalStore::open(&dir).unwrap();
        assert_eq!(store.users.find_unique("zz46"), Some(1));
        assert!(store.user_pes.linked(1, 7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_wal() {
        let dir = tmpdir("snap");
        {
            let (mut store, mut wal) = WalStore::open(&dir).unwrap();
            for i in 0..5 {
                let id = store.users.insert(user(&format!("u{i}"))).unwrap();
                wal.append(&store, || ops::insert(store.users.get(id).unwrap())).unwrap();
            }
            wal.snapshot(&store).unwrap();
            // WAL is now empty.
            let wal_len = std::fs::metadata(dir.join("registry.wal")).unwrap().len();
            assert_eq!(wal_len, 0);
        }
        let (store, _) = WalStore::open(&dir).unwrap();
        assert_eq!(store.users.len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_tolerated() {
        let dir = tmpdir("torn");
        {
            let (mut store, mut wal) = WalStore::open(&dir).unwrap();
            let id = store.users.insert(user("ok")).unwrap();
            wal.append(&store, || ops::insert(store.users.get(id).unwrap())).unwrap();
        }
        // Simulate a crash mid-append: garbage partial line at the end.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(dir.join("registry.wal")).unwrap();
            write!(f, "{{\"op\":\"insert\",\"table\":\"users\",\"id\":2,\"row\"").unwrap();
        }
        let (store, _) = WalStore::open(&dir).unwrap();
        assert_eq!(store.users.len(), 1, "torn record discarded, prior ops kept");
        // Recovery cut the torn tail off, so appending resumes cleanly
        // and a second recovery sees a healthy log.
        let (store, _) = WalStore::open(&dir).unwrap();
        assert_eq!(store.users.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_of_the_last_record_recovers() {
        // Crash-consistency sweep: tear the WAL at *every* byte offset of
        // its final record (newline included). Recovery must never fail,
        // must keep every op before the tear, and must keep the final op
        // exactly when its record survived complete (modulo the newline,
        // which recovery restores).
        let dir = tmpdir("everybyte");
        let (full, second_start) = {
            let (mut store, mut wal) = WalStore::open(&dir).unwrap();
            let a = store.users.insert(user("first")).unwrap();
            wal.append(&store, || ops::insert(store.users.get(a).unwrap())).unwrap();
            let second_start = std::fs::metadata(dir.join("registry.wal")).unwrap().len();
            let b = store.users.insert(user("second")).unwrap();
            wal.append(&store, || ops::insert(store.users.get(b).unwrap())).unwrap();
            (std::fs::metadata(dir.join("registry.wal")).unwrap().len(), second_start)
        };
        let pristine = std::fs::read(dir.join("registry.wal")).unwrap();
        for cut in second_start..=full {
            std::fs::write(dir.join("registry.wal"), &pristine[..cut as usize]).unwrap();
            let (store, _) = WalStore::open(&dir).unwrap();
            // The record is whole once all its bytes short of the newline
            // are on disk.
            let expected = if cut >= full - 1 { 2 } else { 1 };
            assert_eq!(store.users.len(), expected, "cut at byte {cut} of {full}");
            assert_eq!(store.users.find_unique("first"), Some(1));
            // Whatever recovery left behind must itself recover: the torn
            // tail was cut (or the newline restored), so a *second* open
            // sees a clean log and agrees.
            let (again, _) = WalStore::open(&dir).unwrap();
            assert_eq!(again.users.len(), expected, "re-recovery after cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_an_error_not_a_silent_truncation() {
        // Only the *final* record may be torn (a crash artifact). Garbage
        // in the middle of the log means real corruption — replaying past
        // it (or silently stopping at it, as the recovery used to) would
        // resurrect a partial history behind the caller's back.
        let dir = tmpdir("midfile");
        {
            let (mut store, mut wal) = WalStore::open(&dir).unwrap();
            let a = store.users.insert(user("ok")).unwrap();
            wal.append(&store, || ops::insert(store.users.get(a).unwrap())).unwrap();
        }
        {
            let mut f = OpenOptions::new().append(true).open(dir.join("registry.wal")).unwrap();
            writeln!(f, "this is not json").unwrap();
            let op = ops::insert(&UserEntity { user_id: 2, ..user("after") });
            writeln!(f, "{}", to_string(&op)).unwrap();
        }
        match WalStore::open(&dir) {
            Err(RegistryError::Storage(m)) => assert!(m.contains("corrupt WAL record"), "{m}"),
            Err(other) => panic!("expected a Storage error, got {other:?}"),
            Ok(_) => panic!("expected a corruption error, got a successful recovery"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_snapshot_after_threshold() {
        let dir = tmpdir("auto");
        {
            let (mut store, mut wal) = WalStore::open(&dir).unwrap();
            wal.snapshot_every = 3;
            for i in 0..4 {
                let id = store.users.insert(user(&format!("u{i}"))).unwrap();
                wal.append(&store, || ops::insert(store.users.get(id).unwrap())).unwrap();
            }
            // Threshold crossed at op 3: snapshot exists and WAL was reset.
            assert!(dir.join("registry.snapshot").exists());
        }
        let (store, _) = WalStore::open(&dir).unwrap();
        assert_eq!(store.users.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_and_unlink_replay() {
        let dir = tmpdir("del");
        {
            let (mut store, mut wal) = WalStore::open(&dir).unwrap();
            let a = store.users.insert(user("a")).unwrap();
            wal.append(&store, || ops::insert(store.users.get(a).unwrap())).unwrap();
            let b = store.users.insert(user("b")).unwrap();
            wal.append(&store, || ops::insert(store.users.get(b).unwrap())).unwrap();
            store.users.delete(a).unwrap();
            wal.append(&store, || ops::delete("users", a)).unwrap();
        }
        let (store, _) = WalStore::open(&dir).unwrap();
        assert_eq!(store.users.len(), 1);
        assert_eq!(store.users.find_unique("b"), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_left_replay() {
        // Regression: deleting a workflow removes its PE links via
        // remove_left; the op must journal, or recovery resurrects the
        // dead links (found by tests/proptest_interleaved.rs).
        let dir = tmpdir("removeleft");
        {
            let (mut store, mut wal) = WalStore::open(&dir).unwrap();
            store.workflow_pes.link(1, 10);
            wal.append(&store, || ops::link("workflow_pes", 1, 10)).unwrap();
            store.workflow_pes.link(1, 11);
            wal.append(&store, || ops::link("workflow_pes", 1, 11)).unwrap();
            store.workflow_pes.link(2, 10);
            wal.append(&store, || ops::link("workflow_pes", 2, 10)).unwrap();
            store.workflow_pes.remove_left(1);
            wal.append(&store, || ops::remove_left("workflow_pes", 1)).unwrap();
        }
        let (store, _) = WalStore::open(&dir).unwrap();
        assert!(!store.workflow_pes.linked(1, 10));
        assert!(!store.workflow_pes.linked(1, 11));
        assert!(store.workflow_pes.linked(2, 10), "other workflows keep their links");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ephemeral_mode_never_touches_disk() {
        let mut wal = WalStore::ephemeral();
        let store = Store::new();
        wal.append(&store, || unreachable!("with no file to write to, the op is never built")).unwrap();
        wal.snapshot(&store).unwrap();
    }
}
