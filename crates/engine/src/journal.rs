//! Per-job durability: the epoch journal behind checkpointed streaming
//! jobs.
//!
//! # Layout
//!
//! Each journaled job owns a directory under the store root:
//!
//! ```text
//! <root>/job-<id>/
//!     meta.json        # owner + request envelope (tmp+rename atomic)
//!     seg-1.log        # events of round 1, ending in the epoch-1 record
//!     seg-2.log        # events of round 2, ending in the epoch-2 record
//!     tail.log         # events since the last sealed epoch (may be torn)
//! ```
//!
//! Events are appended to `tail.log` as CRC-framed records
//! (`[len u32 LE][crc32 u32 LE][payload]`, same integrity discipline as
//! the lampickle codec). When an `epoch` event lands, the tail is sealed:
//! renamed to `seg-<epoch>.log` — the rename is the atomic commit point,
//! exactly like the registry's snapshot files — and a fresh tail starts.
//!
//! # Recovery
//!
//! [`JournalStore::load`] replays sealed segments in epoch order. The
//! highest *complete* segment (every CRC checks out, every record decodes
//! as a run event, the last is the matching epoch marker) defines the
//! resume point: its epoch id, the instance snapshots carried by the epoch
//! record, and the full event prefix `seg-1..seg-k` concatenated. A
//! truncated or corrupt `seg-k` falls back to `seg-(k-1)` — crash-torn
//! bytes cost at most one epoch.
//! `tail.log` is never replayed: a resumed run re-executes the partial
//! round deterministically from the checkpoint instead.

use laminar_codec::crc32;
use laminar_dataflow::RunEvent;
use laminar_json::{parse, to_string, Value};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Errors the journal surfaces. Wrapped into [`crate::pool::PoolError`]
/// at the pool boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError(pub String);

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal: {}", self.0)
    }
}

impl std::error::Error for JournalError {}

fn io_err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> JournalError + '_ {
    move |e| JournalError(format!("{what}: {e}"))
}

/// Everything needed to resurrect a job from its last complete epoch.
#[derive(Debug, Clone)]
pub struct ResumeData {
    /// The `meta.json` envelope: owner, request, failure flag.
    pub meta: Value,
    /// Last complete epoch (0 = no epoch sealed; resume is a fresh start).
    pub epoch: u64,
    /// Dense per-instance snapshot array from the epoch record.
    pub snapshots: Value,
    /// The records of `seg-1..seg-k` in order, each decoded once, here, as
    /// `(recorded seq, event)` — the exact stream prefix the original run
    /// produced up to and including epoch `k`.
    pub events: Vec<(u64, RunEvent)>,
}

/// The journal root: one directory per checkpointed job.
pub struct JournalStore {
    root: PathBuf,
}

impl JournalStore {
    /// Open (or create) a journal store rooted at `root`.
    pub fn open(root: &Path) -> Result<JournalStore, JournalError> {
        std::fs::create_dir_all(root).map_err(io_err("create journal root"))?;
        Ok(JournalStore { root: root.to_path_buf() })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn job_dir(&self, id: i64) -> PathBuf {
        self.root.join(format!("job-{id}"))
    }

    /// Create (or reopen) a job's journal and return its writer. `meta`
    /// is written atomically via tmp+rename; an existing `tail.log` is
    /// truncated — its events belong to a partial round the resumed run
    /// re-executes from the checkpoint.
    pub fn create(&self, id: i64, meta: &Value) -> Result<JournalWriter, JournalError> {
        let dir = self.job_dir(id);
        std::fs::create_dir_all(&dir).map_err(io_err("create job dir"))?;
        let tmp = dir.join("meta.json.tmp");
        std::fs::write(&tmp, to_string(meta)).map_err(io_err("write meta"))?;
        std::fs::rename(&tmp, dir.join("meta.json")).map_err(io_err("commit meta"))?;
        let tail = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(dir.join("tail.log"))
            .map_err(io_err("open tail"))?;
        Ok(JournalWriter { dir, tail })
    }

    /// Remove a job's journal entirely (terminal success or user cancel).
    pub fn remove(&self, id: i64) {
        let _ = std::fs::remove_dir_all(self.job_dir(id));
    }

    /// Flag the job's meta as failed, so store-wide auto-resume skips it
    /// (a deterministic failure would just fail again) while the journal
    /// stays on disk for post-mortem and *explicit* resume.
    pub fn mark_failed(&self, id: i64) {
        let dir = self.job_dir(id);
        let Ok(text) = std::fs::read_to_string(dir.join("meta.json")) else { return };
        let Ok(mut meta) = parse(&text) else { return };
        meta.set("failed", true);
        let tmp = dir.join("meta.json.tmp");
        if std::fs::write(&tmp, to_string(&meta)).is_ok() {
            let _ = std::fs::rename(&tmp, dir.join("meta.json"));
        }
    }

    /// All journaled job ids with their metas, ascending by id (the
    /// auto-resume scan).
    pub fn jobs(&self) -> Vec<(i64, Value)> {
        let Ok(entries) = std::fs::read_dir(&self.root) else { return Vec::new() };
        let mut jobs: Vec<(i64, Value)> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id: i64 = name.strip_prefix("job-")?.parse().ok()?;
                let meta = parse(&std::fs::read_to_string(e.path().join("meta.json")).ok()?).ok()?;
                Some((id, meta))
            })
            .collect();
        jobs.sort_by_key(|(id, _)| *id);
        jobs
    }

    /// Load a job's resume point — see the module docs for the fallback
    /// discipline. `None` when the job has no journal.
    pub fn load(&self, id: i64) -> Option<ResumeData> {
        let dir = self.job_dir(id);
        let meta = parse(&std::fs::read_to_string(dir.join("meta.json")).ok()?).ok()?;
        // Sealed segments in epoch order; contiguity from 1 is required —
        // a gap means an earlier segment vanished and nothing after it can
        // be trusted as a prefix.
        let mut seg_epochs: Vec<u64> = std::fs::read_dir(&dir)
            .ok()?
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                name.strip_prefix("seg-")?.strip_suffix(".log")?.parse().ok()
            })
            .collect();
        seg_epochs.sort_unstable();
        let mut epoch = 0u64;
        let mut snapshots = Value::Null;
        let mut events: Vec<(u64, RunEvent)> = Vec::new();
        for want in seg_epochs {
            if want != epoch + 1 {
                break;
            }
            // A sealed segment is complete iff every record frames and
            // decodes and its last record is the matching epoch marker.
            // Anything less — torn tail bytes, CRC failure, a record that
            // is no run event, missing marker — invalidates this segment
            // only: resume falls back to the previous epoch.
            let Ok(bytes) = std::fs::read(dir.join(format!("seg-{want}.log"))) else { break };
            let (records, torn) = read_records(&bytes);
            snapshots = match records.last() {
                Some((_, RunEvent::Epoch { id, state })) if !torn && *id == want => state.clone(),
                _ => {
                    eprintln!("journal: job {id} segment {want} incomplete; resuming from epoch {epoch}");
                    break;
                }
            };
            events.extend(records);
            epoch = want;
        }
        Some(ResumeData { meta, epoch, snapshots, events })
    }

    /// Fault injection: chop `bytes` off the end of sealed segment
    /// `epoch`'s file — the on-disk shape of a crash racing the sealing
    /// rename. Recovery must fall back to the previous epoch.
    pub fn truncate_segment(&self, id: i64, epoch: u64, bytes: u64) -> Result<(), JournalError> {
        let path = self.job_dir(id).join(format!("seg-{epoch}.log"));
        let len = std::fs::metadata(&path).map_err(io_err("stat segment"))?.len();
        let file = OpenOptions::new().write(true).open(&path).map_err(io_err("open segment"))?;
        file.set_len(len.saturating_sub(bytes)).map_err(io_err("truncate segment"))?;
        Ok(())
    }
}

/// Append side of one job's journal. Owned by the worker's observer for
/// the duration of the run.
pub struct JournalWriter {
    dir: PathBuf,
    tail: File,
}

impl JournalWriter {
    /// Append one wire-form event. An `epoch` event additionally seals the
    /// tail: once this returns, the epoch — snapshots and the full round
    /// that produced it — is durably renamed into place.
    pub fn record(&mut self, event: &Value) -> Result<(), JournalError> {
        self.append(&to_string(event))?;
        match (event["type"].as_str(), event["epoch"].as_i64()) {
            (Some("epoch"), Some(epoch)) => self.seal(epoch.max(0) as u64),
            _ => Ok(()),
        }
    }

    /// [`JournalWriter::record`] for the event as the observer was handed
    /// it: the record is [`RunEvent::write_json`]'s text, the bytes
    /// `record(&event.to_value(seq))` frames, with no tree built.
    pub(crate) fn record_event(&mut self, seq: u64, event: &RunEvent) -> Result<(), JournalError> {
        let mut payload = String::new();
        event.write_json(seq, &mut payload);
        self.append(&payload)?;
        match event {
            RunEvent::Epoch { id, .. } => self.seal(*id),
            _ => Ok(()),
        }
    }

    /// Frame `payload` as one record and append it to the tail.
    fn append(&mut self, payload: &str) -> Result<(), JournalError> {
        let bytes = payload.as_bytes();
        let mut frame = Vec::with_capacity(8 + bytes.len());
        frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32::checksum(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        self.tail.write_all(&frame).map_err(io_err("append record"))?;
        self.tail.flush().map_err(io_err("flush record"))
    }

    /// Rename the current tail to `seg-<epoch>.log` and start a new tail.
    fn seal(&mut self, epoch: u64) -> Result<(), JournalError> {
        let tail_path = self.dir.join("tail.log");
        std::fs::rename(&tail_path, self.dir.join(format!("seg-{epoch}.log")))
            .map_err(io_err("seal segment"))?;
        self.tail = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(tail_path)
            .map_err(io_err("reopen tail"))?;
        Ok(())
    }
}

/// Decode CRC-framed records from `bytes`, each once, as `(recorded seq,
/// event)`. Returns the cleanly-decoded prefix and whether trailing bytes
/// were torn (incomplete header, short payload, CRC mismatch, unparseable
/// JSON, or a record that is not a run event under its `seq`).
fn read_records(bytes: &[u8]) -> (Vec<(u64, RunEvent)>, bool) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            return (records, true);
        };
        if crc32::checksum(payload) != crc {
            return (records, true);
        }
        let value = std::str::from_utf8(payload).ok().and_then(|text| parse(text).ok());
        let record =
            value.and_then(|v| Some((u64::try_from(v["seq"].as_i64()?).ok()?, RunEvent::from_value(&v)?)));
        let Some(record) = record else {
            return (records, true);
        };
        records.push(record);
        at += 8 + len;
    }
    (records, at != bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("laminar-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn output_ev(n: i64) -> Value {
        RunEvent::Output { pe: "P".into(), instance: 0, port: "o".into(), value: Value::Int(n) }.to_value(0)
    }

    fn epoch_ev(id: i64, state: i64) -> Value {
        RunEvent::Epoch { id: id as u64, state: Value::Int(state) }.to_value(0)
    }

    #[test]
    fn seal_and_load_round_trip() {
        let root = tmpdir("roundtrip");
        let store = JournalStore::open(&root).unwrap();
        let mut meta = Value::Null;
        meta.set("owner", "u");
        let mut w = store.create(7, &meta).unwrap();
        w.record(&output_ev(1)).unwrap();
        w.record(&epoch_ev(1, 10)).unwrap();
        w.record(&output_ev(2)).unwrap();
        w.record(&epoch_ev(2, 20)).unwrap();
        w.record(&output_ev(3)).unwrap(); // tail: never replayed

        let r = store.load(7).unwrap();
        assert_eq!(r.epoch, 2);
        assert_eq!(r.snapshots.as_i64(), Some(20));
        assert_eq!(r.meta["owner"].as_str(), Some("u"));
        let kinds: Vec<Value> = r.events.iter().map(|(seq, e)| e.to_value(*seq)["type"].clone()).collect();
        assert_eq!(kinds, ["output", "epoch", "output", "epoch"].map(Value::from));
        assert_eq!(store.jobs().len(), 1);

        store.remove(7);
        assert!(store.load(7).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_segment_falls_back_one_epoch() {
        let root = tmpdir("trunc");
        let store = JournalStore::open(&root).unwrap();
        let mut w = store.create(1, &Value::Null).unwrap();
        w.record(&output_ev(1)).unwrap();
        w.record(&epoch_ev(1, 10)).unwrap();
        w.record(&output_ev(2)).unwrap();
        w.record(&epoch_ev(2, 20)).unwrap();

        // Chop bytes off seg-2 at *every* possible depth: recovery must
        // always land exactly on epoch 1 — never crash, never resume from
        // a half-written epoch 2.
        let seg2 = store.root().join("job-1").join("seg-2.log");
        let full = std::fs::read(&seg2).unwrap();
        for cut in 1..=full.len() as u64 {
            store.truncate_segment(1, 2, cut).unwrap();
            let r = store.load(1).unwrap();
            assert_eq!(r.epoch, 1, "cut {cut} bytes");
            assert_eq!(r.snapshots.as_i64(), Some(10));
            std::fs::write(&seg2, &full).unwrap(); // restore for the next cut
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_crc_mid_segment_invalidates_it() {
        let root = tmpdir("crc");
        let store = JournalStore::open(&root).unwrap();
        let mut w = store.create(1, &Value::Null).unwrap();
        w.record(&output_ev(1)).unwrap();
        w.record(&epoch_ev(1, 10)).unwrap();
        let seg1 = store.root().join("job-1").join("seg-1.log");
        let mut bytes = std::fs::read(&seg1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&seg1, &bytes).unwrap();
        let r = store.load(1).unwrap();
        assert_eq!(r.epoch, 0, "flipped byte detected by CRC");
        assert!(r.events.is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn record_that_is_no_run_event_invalidates_its_segment() {
        let root = tmpdir("foreign");
        let store = JournalStore::open(&root).unwrap();
        let mut w = store.create(1, &Value::Null).unwrap();
        w.record(&output_ev(1)).unwrap();
        w.record(&epoch_ev(1, 10)).unwrap();
        // Well framed, CRC intact, sealed by its epoch marker — but one
        // record is the pool's `done` marker, another has no `seq`.
        let mut done = Value::Null;
        done.set("seq", 2i64).set("type", "done");
        w.record(&done).unwrap();
        w.record(&epoch_ev(2, 20)).unwrap();
        let mut unnumbered = Value::Null;
        unnumbered.set("type", "cancelled");
        w.record(&unnumbered).unwrap();
        w.record(&epoch_ev(3, 30)).unwrap();
        let r = store.load(1).unwrap();
        assert_eq!(r.epoch, 1, "the log and the sink must replay the same prefix");
        assert_eq!(r.snapshots.as_i64(), Some(10));
        assert_eq!(r.events.len(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_segment_breaks_the_prefix() {
        let root = tmpdir("gap");
        let store = JournalStore::open(&root).unwrap();
        let mut w = store.create(1, &Value::Null).unwrap();
        for e in 1..=3 {
            w.record(&epoch_ev(e, e * 10)).unwrap();
        }
        std::fs::remove_file(store.root().join("job-1").join("seg-2.log")).unwrap();
        let r = store.load(1).unwrap();
        assert_eq!(r.epoch, 1, "seg-3 unusable without seg-2");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_truncates_tail_but_keeps_segments() {
        let root = tmpdir("reopen");
        let store = JournalStore::open(&root).unwrap();
        let mut w = store.create(1, &Value::Null).unwrap();
        w.record(&epoch_ev(1, 10)).unwrap();
        w.record(&output_ev(99)).unwrap(); // partial round in the tail
        drop(w);
        let w2 = store.create(1, &Value::Null).unwrap();
        drop(w2);
        let r = store.load(1).unwrap();
        assert_eq!(r.epoch, 1);
        let tail = std::fs::metadata(store.root().join("job-1").join("tail.log")).unwrap();
        assert_eq!(tail.len(), 0, "reopen clears the partial round");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn mark_failed_flags_meta() {
        let root = tmpdir("failed");
        let store = JournalStore::open(&root).unwrap();
        let mut meta = Value::Null;
        meta.set("owner", "u");
        store.create(1, &meta).unwrap();
        store.mark_failed(1);
        let r = store.load(1).unwrap();
        assert_eq!(r.meta["failed"].as_bool(), Some(true));
        assert_eq!(r.meta["owner"].as_str(), Some("u"), "original fields kept");
        let _ = std::fs::remove_dir_all(&root);
    }
}
