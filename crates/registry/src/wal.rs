//! Durability: snapshot files plus a write-ahead log of JSON lines.
//!
//! The store persists as `<dir>/registry.snapshot` (full JSON) and
//! `<dir>/registry.wal` (one JSON `Op` per line, appended before the
//! store applies it). Recovery loads the snapshot then runs
//! `Store::apply` on each WAL line; a torn final line (simulated crash)
//! is tolerated and discarded.
//!
//! This is the boundary where entities take their JSON row form: append
//! and snapshot encode them, replay and snapshot load decode them, and a
//! well-formed record that does not decode fails the open.

use crate::error::RegistryError;
use crate::store::{Op, Store};
use laminar_json::{parse, to_string, write_value};
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

fn io(e: std::io::Error) -> RegistryError {
    RegistryError::Storage(e.to_string())
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
        std::fs::create_dir_all(dir).map_err(io)?;
        let mut store = Store::new();
        let snap_path = Self::snapshot_path(dir);
        if snap_path.exists() {
            let text = std::fs::read_to_string(&snap_path).map_err(io)?;
            let v = parse(&text).map_err(|e| RegistryError::Storage(format!("corrupt snapshot: {e}")))?;
            store = Store::from_value(&v)?;
        }
        let wal_path = Self::wal_path(dir);
        if wal_path.exists() {
            let bytes = std::fs::read(&wal_path).map_err(io)?;
            // A crash can tear the final append mid-record — even inside a
            // multi-byte character — so decode the longest valid prefix
            // and let the tail rule below judge the remainder.
            let text = std::str::from_utf8(&bytes).unwrap_or_else(|e| {
                std::str::from_utf8(&bytes[..e.valid_up_to()]).expect("valid up to there")
            });
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
                        store.apply(Op::from_value(&op)?)?;
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
            let disk_len = std::fs::metadata(&wal_path).map_err(io)?.len();
            if good_len < disk_len {
                let file = OpenOptions::new().write(true).open(&wal_path);
                file.and_then(|f| f.set_len(good_len)).map_err(io)?;
            } else if !text.is_empty() && !text.ends_with('\n') {
                // A complete final record that lost only its newline (the
                // crash landed between the bytes and the terminator): keep
                // the op, restore the separator so the next append starts
                // its own line.
                let file = OpenOptions::new().append(true).open(&wal_path);
                file.and_then(|mut f| writeln!(f)).map_err(io)?;
            }
        }
        let wal = OpenOptions::new().create(true).append(true).open(&wal_path).map_err(io)?;
        let wal = WalStore {
            dir: dir.to_path_buf(),
            wal: Some(wal),
            ops_since_snapshot: 0,
            snapshot_every: SNAPSHOT_EVERY,
        };
        Ok((store, wal))
    }

    /// In-memory mode: no files, appends are no-ops.
    pub fn ephemeral() -> WalStore {
        WalStore { dir: PathBuf::new(), wal: None, ops_since_snapshot: 0, snapshot_every: usize::MAX }
    }

    /// Record one write's ops, one line each, in a single write to the
    /// file. Call *before* the ops reach the store. The records are built
    /// only when there is a file to write them to.
    pub(crate) fn append(&mut self, ops: &[Op]) -> Result<(), RegistryError> {
        let Some(wal) = self.wal.as_mut() else { return Ok(()) };
        let mut text = String::new();
        for op in ops {
            write_value(&mut text, &op.to_value());
            text.push('\n');
        }
        wal.write_all(text.as_bytes()).map_err(io)?;
        self.ops_since_snapshot += ops.len();
        Ok(())
    }

    /// Snapshot once the WAL holds [`SNAPSHOT_EVERY`] ops. Call after the
    /// appended ops reached `store`, so the snapshot covers every op the
    /// truncation drops.
    pub(crate) fn snapshot_if_due(&mut self, store: &Store) -> Result<(), RegistryError> {
        if self.ops_since_snapshot < self.snapshot_every {
            return Ok(());
        }
        self.snapshot(store)
    }

    /// Write a full snapshot and truncate the WAL.
    pub(crate) fn snapshot(&mut self, store: &Store) -> Result<(), RegistryError> {
        if self.wal.is_none() {
            return Ok(());
        }
        let tmp = self.dir.join("registry.snapshot.tmp");
        std::fs::write(&tmp, to_string(&store.to_value())).map_err(io)?;
        std::fs::rename(&tmp, Self::snapshot_path(&self.dir)).map_err(io)?;
        // Truncate the WAL now that the snapshot covers it.
        let wal = OpenOptions::new().create(true).write(true).truncate(true).open(Self::wal_path(&self.dir));
        self.wal = Some(wal.map_err(io)?);
        self.ops_since_snapshot = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dao::Dao;
    use crate::entities::{PeEntity, UserEntity};
    use crate::store::JunctionName::{UserPes, WorkflowPes};
    use crate::Registry;
    use laminar_embed::Embedding;

    fn user(name: &str) -> UserEntity {
        UserEntity { user_id: 0, user_name: name.into(), password_hash: "h".into() }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("laminar-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A durable DAO over `dir`.
    fn dao(dir: &Path) -> Dao {
        let (store, wal) = WalStore::open(dir).unwrap();
        Dao::new(store, wal)
    }

    /// Journal `ops` under `dir`, with no store behind them.
    fn journal(dir: &Path, ops: &[Op]) {
        WalStore::open(dir).unwrap().1.append(ops).unwrap();
    }

    #[test]
    fn recovery_replays_wal() {
        let dir = tmpdir("replay");
        {
            let mut d = dao(&dir);
            let id = d.insert_user(user("zz46")).unwrap().user_id;
            d.link_user_pe(id, 7).unwrap();
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
            let mut d = dao(&dir);
            for i in 0..5 {
                d.insert_user(user(&format!("u{i}"))).unwrap();
            }
            d.checkpoint().unwrap();
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
        dao(&dir).insert_user(user("ok")).unwrap();
        // Simulate a crash mid-append: garbage partial line at the end.
        {
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
            let mut d = dao(&dir);
            d.insert_user(user("first")).unwrap();
            let second_start = std::fs::metadata(dir.join("registry.wal")).unwrap().len();
            d.insert_user(user("second")).unwrap();
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
        dao(&dir).insert_user(user("ok")).unwrap();
        {
            let mut f = OpenOptions::new().append(true).open(dir.join("registry.wal")).unwrap();
            writeln!(f, "this is not json").unwrap();
            let op = Op::InsertUser(UserEntity { user_id: 2, ..user("after") });
            writeln!(f, "{}", to_string(&op.to_value())).unwrap();
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
            let (store, mut wal) = WalStore::open(&dir).unwrap();
            wal.snapshot_every = 3;
            let mut d = Dao::new(store, wal);
            for i in 0..4 {
                d.insert_user(user(&format!("u{i}"))).unwrap();
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
        let a = UserEntity { user_id: 1, ..user("a") };
        let b = UserEntity { user_id: 2, ..user("b") };
        journal(
            &dir,
            &[
                Op::InsertUser(a),
                Op::InsertUser(b),
                Op::Link(UserPes, 2, 7),
                Op::Link(UserPes, 2, 8),
                Op::DeleteUser(1),
                Op::Unlink(UserPes, 2, 7),
            ],
        );
        let (store, _) = WalStore::open(&dir).unwrap();
        assert_eq!(store.users.len(), 1);
        assert_eq!(store.users.find_unique("b"), Some(2));
        assert_eq!(store.user_pes.rights_of(2), [8]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_left_replay() {
        // Regression: deleting a workflow removes its PE links via
        // remove_left; the op must journal, or recovery resurrects the
        // dead links (found by tests/proptest_interleaved.rs).
        let dir = tmpdir("removeleft");
        let link = |l, r| Op::Link(WorkflowPes, l, r);
        journal(&dir, &[link(1, 10), link(1, 11), link(2, 10), Op::RemoveLeft(WorkflowPes, 1)]);
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
        wal.append(&[Op::InsertUser(user("nobody"))]).unwrap();
        wal.snapshot_if_due(&store).unwrap();
        wal.snapshot(&store).unwrap();
        assert_eq!(wal.ops_since_snapshot, 0, "nothing was journaled");
        assert!(!Path::new("registry.snapshot").exists() && !Path::new("registry.wal").exists());
    }

    /// Open a registry whose WAL holds `line` after a user insert.
    fn open_with_wal_line(tag: &str, line: &str) -> Result<Registry, RegistryError> {
        let dir = tmpdir(tag);
        let alice =
            r#"{"id":1,"op":"insert","row":{"password":"h","userId":1,"userName":"alice"},"table":"users"}"#;
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("registry.wal"), format!("{alice}\n{line}\n")).unwrap();
        let opened = Registry::open(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        opened
    }

    #[test]
    fn a_wal_op_missing_or_mistyping_an_integer_is_corruption() {
        for (tag, line) in [
            ("noright", r#"{"junction":"user_pes","left":1,"op":"link"}"#),
            ("strright", r#"{"junction":"user_pes","left":1,"op":"link","right":"1"}"#),
            ("noid", r#"{"op":"delete","table":"users"}"#),
            ("nojunction", r#"{"left":1,"op":"remove_left"}"#),
            ("notable", r#"{"id":1,"op":"delete","table":"people"}"#),
        ] {
            match open_with_wal_line(tag, line) {
                Err(RegistryError::Storage(m)) => assert!(m.contains("corrupt WAL op"), "{m}"),
                Err(other) => panic!("{line}: expected a Storage error, got {other:?}"),
                Ok(_) => panic!("{line}: a record missing a field was replayed"),
            }
        }
        assert!(
            open_with_wal_line("good", r#"{"junction":"user_pes","left":1,"op":"link","right":1}"#).is_ok()
        );
    }

    /// A durable registry where alice owns one PE, checkpointed: its
    /// directory and snapshot text.
    fn checkpointed(tag: &str) -> (PathBuf, String) {
        let dir = tmpdir(tag);
        let mut reg = Registry::open(&dir).unwrap();
        reg.register_user("alice", "password").unwrap();
        reg.register_pe("alice", "pe Echo : iterative { input x; output o; process { emit(x); } }", None)
            .unwrap();
        reg.checkpoint().unwrap();
        let snapshot = std::fs::read_to_string(dir.join("registry.snapshot")).unwrap();
        (dir, snapshot)
    }

    #[test]
    fn a_snapshot_pair_that_is_not_two_integers_is_corruption() {
        let (dir, snapshot) = checkpointed("badpair");
        for bad in [r#""user_pes":[[1,"1"]]"#, r#""user_pes":[[1]]"#, r#""user_pes":[1]"#] {
            let edited = snapshot.replacen(r#""user_pes":[[1,1]]"#, bad, 1);
            assert_ne!(edited, snapshot);
            std::fs::write(dir.join("registry.snapshot"), edited).unwrap();
            match Registry::open(&dir) {
                Err(RegistryError::Storage(m)) => assert!(m.contains("corrupt junction pair"), "{m}"),
                Err(other) => panic!("{bad}: expected a Storage error, got {other:?}"),
                Ok(_) => panic!("{bad}: the pair was skipped and the store opened without it"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_next_id_below_a_row_never_hands_that_id_out_again() {
        let (dir, snapshot) = checkpointed("nextid");
        let edited = snapshot.replacen(r#""name":"users","next_id":2"#, r#""name":"users","next_id":1"#, 1);
        assert_ne!(edited, snapshot);
        std::fs::write(dir.join("registry.snapshot"), edited).unwrap();
        let mut reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.register_user("bob", "password").unwrap().user_id, 2);
        reg.login("alice", "password").expect("alice keeps her row");
        reg.login("bob", "password").unwrap();
        assert_eq!(reg.all_pes("alice").unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_write_the_journal_refuses_leaves_no_trace() {
        let dir = tmpdir("refused");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(WalStore::wal_path(&dir), "").unwrap();
        // A handle the journal cannot write through.
        let wal = Some(File::open(WalStore::wal_path(&dir)).unwrap());
        let wal = WalStore { dir: dir.clone(), wal, ops_since_snapshot: 0, snapshot_every: SNAPSHOT_EVERY };
        let mut d = Dao::new(Store::new(), wal);
        assert!(matches!(d.insert_user(user("alice")), Err(RegistryError::Storage(_))));
        assert!(d.store.users.is_empty(), "the refused user stayed in memory");
        let pe = PeEntity {
            pe_id: 0,
            pe_name: "Echo".into(),
            description: "echoes".into(),
            description_generated: false,
            pe_code: String::new(),
            pe_imports: vec![],
            code_embedding: Embedding::from_dense(&[1.0, 0.0]),
            desc_embedding: Embedding::from_dense(&[0.0, 1.0]),
        };
        assert!(matches!(d.insert_pe(pe, 1), Err(RegistryError::Storage(_))));
        assert!(d.store.pes.is_empty() && d.store.user_pes.is_empty(), "the refused PE stayed in memory");
        let stats = d.index().stats();
        assert_eq!((stats["indexed_users"].as_i64(), stats["vectors"].as_i64()), (Some(0), Some(0)));
        assert_eq!(std::fs::metadata(WalStore::wal_path(&dir)).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_past_the_snapshot_threshold_reopen_to_the_live_store() {
        // Every op lands in the store before the snapshot that truncates
        // the WAL: 1 user + 100 PEs (2 ops each) + 30 removals (3 ops
        // each) + a workflow cross 256 ops mid-run.
        let dir = tmpdir("threshold");
        let live = {
            let mut reg = Registry::open(&dir).unwrap();
            reg.register_user("alice", "password").unwrap();
            for i in 0..100 {
                let source =
                    format!("pe Step{i} : iterative {{ input x; output o; process {{ emit(x + {i}); }} }}");
                reg.register_pe("alice", &source, Some("adds a constant")).unwrap();
            }
            for i in (0..100).step_by(3).take(30) {
                reg.remove_pe("alice", &format!("Step{i}").as_str().into()).unwrap();
            }
            let flow =
                "pe Src : producer { output o; process { emit(1); } }\nworkflow Flow { nodes { s = Src; } }";
            reg.register_workflow("alice", flow, "flow", None).unwrap();
            reg.remove_workflow("alice", &"flow".into()).unwrap();
            to_string(&reg.dao().store.to_value())
        };
        assert!(dir.join("registry.snapshot").exists(), "the threshold was crossed");
        let wal_len = std::fs::read_to_string(dir.join("registry.wal")).unwrap().lines().count();
        assert!(wal_len < SNAPSHOT_EVERY, "the WAL was truncated, {wal_len} ops left");
        let reopened = Registry::open(&dir).unwrap();
        assert_eq!(to_string(&reopened.dao().store.to_value()), live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
