//! The persistent, content-addressed verdict store.
//!
//! A [`VerdictStore`] is a directory of append-only JSON-lines
//! *segments* (`seg-<NNNNNN>.jsonl`), each line one
//! [`VerdictRecord`] keyed by the engine's `(model, task-id,
//! content-digest, cfg, sample)` cache key ([`VerdictKey`]). The
//! format is designed
//! around three guarantees:
//!
//! - **atomic writes**: a flush writes a complete new segment to a
//!   process-unique hidden `*.tmp` file and publishes it with a
//!   no-clobber link, so a concurrent reader (or a killed writer)
//!   never observes a half-written segment, and two processes sharing
//!   one cache directory never overwrite each other's segments;
//! - **crash-safe recovery**: loading tolerates a torn tail — any
//!   undecodable line is skipped and counted, never fatal — so a store
//!   survives `kill -9` mid-write;
//! - **deterministic compaction**: [`VerdictStore::compact`] rewrites
//!   every live entry (deduplicated by key, later segments win) into a
//!   single segment sorted by key, then deletes the old segments.
//!
//! See `docs/SERVICE.md` for the on-disk format in full.

use crate::json::{parse, Json};
use fveval_core::{SampleEval, VerdictKey, VerdictRecord};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A store with more segments than this is fragmented: see
/// [`VerdictStore::compact_if_fragmented`].
const MAX_SEGMENTS: usize = 4;

/// A persistent verdict store rooted at one directory.
#[derive(Debug)]
pub struct VerdictStore {
    dir: PathBuf,
    entries: HashMap<VerdictKey, SampleEval>,
    segments: Vec<PathBuf>,
    next_segment: u64,
    torn_lines: usize,
}

impl VerdictStore {
    /// Opens (creating if needed) the store under `dir` and loads every
    /// segment, skipping torn lines.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created or listed, or a segment cannot be read. Undecodable
    /// *lines* are recovery, not errors — see
    /// [`VerdictStore::torn_lines`].
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<VerdictStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".jsonl"))
            })
            .collect();
        // Zero-padded names sort correctly as strings; replay segments
        // in creation order so later writes win.
        segments.sort();
        let mut store = VerdictStore {
            dir,
            entries: HashMap::new(),
            next_segment: segments
                .iter()
                .filter_map(|p| segment_index(p))
                .max()
                .map_or(0, |n| n + 1),
            segments: segments.clone(),
            torn_lines: 0,
        };
        for segment in &segments {
            // Bytes, not a String: a torn tail can end mid-UTF-8
            // sequence, which must count as one skipped line, not an
            // unreadable store.
            let bytes = std::fs::read(segment)?;
            for line in bytes.split(|&b| b == b'\n') {
                if line.is_empty() {
                    continue;
                }
                match std::str::from_utf8(line).ok().and_then(decode_record) {
                    Some(record) => {
                        store.entries.insert(record.key(), record.eval);
                    }
                    None => store.torn_lines += 1,
                }
            }
        }
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live (deduplicated) verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of on-disk segments (compaction folds these into one).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Undecodable lines skipped during [`VerdictStore::open`] — torn
    /// tails from interrupted writes.
    pub fn torn_lines(&self) -> usize {
        self.torn_lines
    }

    /// Every live verdict, sorted by key (deterministic — feed this to
    /// [`fveval_core::EvalEngine::load_verdicts`]).
    pub fn records(&self) -> Vec<VerdictRecord> {
        let mut keys: Vec<&VerdictKey> = self.entries.keys().collect();
        keys.sort();
        keys.into_iter()
            .map(|key| VerdictRecord::from_parts(key, self.entries[key]))
            .collect()
    }

    /// Appends a batch of verdicts as one new segment, staged in a
    /// process-unique `*.tmp` file and atomically published under the
    /// next free segment name. Empty batches are a no-op.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; on failure the store's
    /// on-disk state is unchanged (the tmp file may remain and is
    /// ignored by [`VerdictStore::open`]).
    pub fn append(&mut self, records: &[VerdictRecord]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let path = self.write_segment(records)?;
        self.segments.push(path);
        for record in records {
            self.entries.insert(record.key(), record.eval);
        }
        Ok(())
    }

    /// Re-reads the directory, replaying every on-disk segment in name
    /// order — picking up segments published by *other* handles or
    /// processes since this one opened. The next-segment index only
    /// moves forward, so a refreshed handle never reuses a name it
    /// already advanced past.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error from re-reading the directory.
    pub fn refresh(&mut self) -> std::io::Result<()> {
        let fresh = VerdictStore::open(&self.dir)?;
        self.next_segment = self.next_segment.max(fresh.next_segment);
        self.entries = fresh.entries;
        self.segments = fresh.segments;
        self.torn_lines = fresh.torn_lines;
        Ok(())
    }

    /// Rewrites every live entry into a single sorted segment and
    /// deletes the old segments. Idempotent; a store compacted twice
    /// is byte-identical to one compacted once.
    ///
    /// The entry set is [`VerdictStore::refresh`]ed from disk first:
    /// the compacted segment gets the highest index and would shadow
    /// anything older on replay, so compacting a stale in-memory view
    /// would otherwise resurrect old values over segments another
    /// handle published concurrently.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error. The new segment is published
    /// *before* old segments are removed, so an interrupted
    /// compaction only leaves redundant (shadowed) segments behind,
    /// never data loss.
    pub fn compact(&mut self) -> std::io::Result<()> {
        self.refresh()?;
        let live = self.records();
        let old = std::mem::take(&mut self.segments);
        if live.is_empty() {
            self.segments = old;
            return Ok(());
        }
        let path = self.write_segment(&live)?;
        for segment in &old {
            // Removal failures are non-fatal: the shadowing order
            // (segments replay in name order, and the new segment has
            // the highest index) keeps the store correct.
            let _ = std::fs::remove_file(segment);
        }
        self.segments = vec![path];
        Ok(())
    }

    /// Compacts the store when it holds more than four segments, the
    /// one fragmentation bound shared by every CLI run and `fveval
    /// serve`. Returns whether it compacted.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of [`VerdictStore::compact`].
    pub fn compact_if_fragmented(&mut self) -> std::io::Result<bool> {
        if self.segments.len() <= MAX_SEGMENTS {
            return Ok(false);
        }
        self.compact()?;
        Ok(true)
    }

    /// Writes `records` to a process-unique hidden tmp file, then
    /// atomically publishes it under the next free segment name with a
    /// no-clobber link. Two processes sharing one cache directory can
    /// therefore never overwrite each other's segments: a name
    /// collision just advances to the next index and retries.
    fn write_segment(&mut self, records: &[VerdictRecord]) -> std::io::Result<PathBuf> {
        let tmp = self.dir.join(format!(
            ".seg-{}-{}.tmp",
            std::process::id(),
            self.next_segment
        ));
        let mut body = String::new();
        for record in records {
            body.push_str(&encode_record(record).encode());
            body.push('\n');
        }
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(body.as_bytes())?;
            file.sync_all()?;
        }
        loop {
            let path = self.dir.join(format!("seg-{:06}.jsonl", self.next_segment));
            self.next_segment += 1;
            // hard_link refuses to replace an existing target, unlike
            // rename — that refusal is the no-clobber guarantee.
            match std::fs::hard_link(&tmp, &path) {
                Ok(()) => {
                    let _ = std::fs::remove_file(&tmp);
                    return Ok(path);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
                    // Filesystem without hard links: fall back to a
                    // plain atomic rename (single-writer semantics).
                    std::fs::rename(&tmp, &path)?;
                    return Ok(path);
                }
                Err(e) => {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(e);
                }
            }
        }
    }
}

fn segment_index(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("seg-")?
        .strip_suffix(".jsonl")?
        .parse()
        .ok()
}

/// Encodes one verdict as its on-disk JSON object. The digest is hex
/// text because JSON numbers cannot hold all 64 bits exactly.
pub fn encode_record(record: &VerdictRecord) -> Json {
    Json::obj([
        ("model", record.model.as_str().into()),
        ("task", record.task_id.as_str().into()),
        ("digest", format!("{:016x}", record.digest).into()),
        ("cfg", record.cfg.as_str().into()),
        ("sample", record.sample.into()),
        ("syntax", record.eval.syntax.into()),
        ("func", record.eval.func.into()),
        ("partial", record.eval.partial.into()),
        ("bleu", record.eval.bleu.into()),
    ])
}

/// Decodes one store line; `None` means the line is torn or malformed
/// and should be skipped during recovery.
pub fn decode_record(line: &str) -> Option<VerdictRecord> {
    let value = parse(line).ok()?;
    Some(VerdictRecord {
        model: value.get("model")?.as_str()?.to_string(),
        task_id: value.get("task")?.as_str()?.to_string(),
        digest: u64::from_str_radix(value.get("digest")?.as_str()?, 16).ok()?,
        cfg: value.get("cfg")?.as_str()?.to_string(),
        sample: u32::try_from(value.get("sample")?.as_u64()?).ok()?,
        eval: SampleEval {
            syntax: value.get("syntax")?.as_bool()?,
            func: value.get("func")?.as_bool()?,
            partial: value.get("partial")?.as_bool()?,
            bleu: value.get("bleu")?.as_f64()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn record(i: u32, bleu: f64) -> VerdictRecord {
        VerdictRecord {
            model: format!("model-{}", i % 3),
            task_id: format!("task_{i:04}"),
            digest: 0xDEAD_BEEF_0000_0000 | u64::from(i),
            cfg: "t0000000000000000_n0_s0".to_string(),
            sample: i % 5,
            eval: SampleEval {
                syntax: i.is_multiple_of(2),
                func: i.is_multiple_of(3),
                partial: i.is_multiple_of(2),
                bleu,
            },
        }
    }

    #[test]
    fn round_trips_across_reopen() {
        let tmp = TempDir::new("store-roundtrip");
        let records: Vec<VerdictRecord> = (0..20).map(|i| record(i, f64::from(i) / 7.0)).collect();
        let mut store = VerdictStore::open(tmp.path()).unwrap();
        store.append(&records[..10]).unwrap();
        store.append(&records[10..]).unwrap();
        assert_eq!(store.segment_count(), 2);
        let reopened = VerdictStore::open(tmp.path()).unwrap();
        assert_eq!(reopened.len(), 20);
        assert_eq!(reopened.torn_lines(), 0);
        assert_eq!(reopened.records(), store.records());
        // BLEU survives bit-for-bit.
        let back = reopened.records();
        for r in &records {
            let found = back
                .iter()
                .find(|b| b.task_id == r.task_id && b.sample == r.sample);
            assert_eq!(found.unwrap().eval.bleu.to_bits(), r.eval.bleu.to_bits());
        }
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let tmp = TempDir::new("store-torn");
        let mut store = VerdictStore::open(tmp.path()).unwrap();
        let records: Vec<VerdictRecord> = (0..5).map(|i| record(i, 0.25)).collect();
        store.append(&records).unwrap();
        // Simulate a crash mid-write: truncate the segment in the
        // middle of its last line.
        let segment = store.segments[0].clone();
        let text = std::fs::read_to_string(&segment).unwrap();
        let cut = text.len() - 17;
        std::fs::write(&segment, &text[..cut]).unwrap();
        let recovered = VerdictStore::open(tmp.path()).unwrap();
        assert_eq!(recovered.len(), 4, "intact lines survive");
        assert_eq!(recovered.torn_lines(), 1, "the torn tail is counted");
        // The recovered store keeps working: append + reopen is clean.
        let mut recovered = recovered;
        recovered.append(&records[4..]).unwrap();
        let healed = VerdictStore::open(tmp.path()).unwrap();
        assert_eq!(healed.len(), 5);
    }

    #[test]
    fn later_segments_win_and_compaction_dedups() {
        let tmp = TempDir::new("store-compact");
        let mut store = VerdictStore::open(tmp.path()).unwrap();
        let old = record(1, 0.1);
        let mut new = record(1, 0.9);
        new.eval.func = !old.eval.func;
        store.append(&[old.clone(), record(2, 0.2)]).unwrap();
        store.append(&[new.clone(), record(3, 0.3)]).unwrap();
        assert_eq!(store.len(), 3, "same key deduplicates");
        store.compact().unwrap();
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.len(), 3);
        let reopened = VerdictStore::open(tmp.path()).unwrap();
        let kept = reopened
            .records()
            .into_iter()
            .find(|r| r.task_id == new.task_id && r.sample == new.sample)
            .unwrap();
        assert_eq!(kept.eval, new.eval, "the later write won");
        // Compaction is deterministic: compacting again changes nothing.
        let before = std::fs::read_to_string(&reopened.segments[0]).unwrap();
        let mut again = reopened;
        again.compact().unwrap();
        let after = std::fs::read_to_string(&again.segments[0]).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn only_a_store_past_four_segments_is_compacted() {
        let tmp = TempDir::new("store-fragmented");
        let mut store = VerdictStore::open(tmp.path()).unwrap();
        for i in 0..4 {
            store.append(&[record(i, 0.5)]).unwrap();
        }
        assert!(!store.compact_if_fragmented().unwrap());
        assert_eq!(store.segment_count(), 4);
        store.append(&[record(4, 0.5)]).unwrap();
        let before = store.records();
        assert!(store.compact_if_fragmented().unwrap());
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.records(), before);
        assert_eq!(VerdictStore::open(tmp.path()).unwrap().records(), before);
    }

    #[test]
    fn concurrent_writers_never_clobber_each_other() {
        let tmp = TempDir::new("store-concurrent");
        // Two handles opened on the same directory at the same state —
        // what two concurrent CLI runs sharing a cache dir look like.
        // Both flush; the segment-name collision must resolve to two
        // distinct segments with both batches intact.
        let mut a = VerdictStore::open(tmp.path()).unwrap();
        let mut b = VerdictStore::open(tmp.path()).unwrap();
        a.append(&[record(1, 0.1)]).unwrap();
        b.append(&[record(2, 0.2)]).unwrap();
        let merged = VerdictStore::open(tmp.path()).unwrap();
        assert_eq!(merged.len(), 2, "no batch was lost");
        assert_eq!(merged.segment_count(), 2);
        assert_eq!(merged.torn_lines(), 0);
    }

    #[test]
    fn compaction_on_a_stale_handle_cannot_shadow_newer_segments() {
        let tmp = TempDir::new("store-stale-compact");
        let key1_old = record(1, 0.1);
        let mut key1_new = record(1, 0.9);
        key1_new.eval.func = !key1_old.eval.func;
        // Handle A sees only the old value for key 1.
        let mut a = VerdictStore::open(tmp.path()).unwrap();
        a.append(std::slice::from_ref(&key1_old)).unwrap();
        // Handle B (a concurrent process) publishes a newer value.
        let mut b = VerdictStore::open(tmp.path()).unwrap();
        b.append(&[key1_new.clone(), record(2, 0.2)]).unwrap();
        // A compacts with its stale in-memory view. The compacted
        // segment has the highest index, so without the refresh
        // pre-pass the stale 0.1 would win replay over B's 0.9.
        a.compact().unwrap();
        let merged = VerdictStore::open(tmp.path()).unwrap();
        let kept = merged
            .records()
            .into_iter()
            .find(|r| r.task_id == key1_new.task_id && r.sample == key1_new.sample)
            .unwrap();
        assert_eq!(kept.eval, key1_new.eval, "the concurrent write survives");
        assert_eq!(merged.len(), 2, "no record lost");
    }

    #[test]
    fn threaded_flush_and_compact_preserve_every_verdict() {
        let tmp = TempDir::new("store-flush-compact");
        // The server's live-compaction shape: worker threads flush
        // batches through the shared mutex while a maintenance thread
        // compacts between them.
        let store = std::sync::Mutex::new(VerdictStore::open(tmp.path()).unwrap());
        let batches: Vec<Vec<VerdictRecord>> = (0..8)
            .map(|b| {
                (0..16)
                    .map(|i| record(b * 16 + i, f64::from(b) / 8.0))
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for batch in &batches {
                    store.lock().unwrap().append(batch).unwrap();
                }
            });
            scope.spawn(|| {
                for _ in 0..12 {
                    store.lock().unwrap().compact().unwrap();
                    std::thread::yield_now();
                }
            });
        });
        let reopened = VerdictStore::open(tmp.path()).unwrap();
        assert_eq!(reopened.torn_lines(), 0);
        let keys: std::collections::HashSet<String> = reopened
            .records()
            .into_iter()
            .map(|r| format!("{}|{}|{}", r.model, r.task_id, r.sample))
            .collect();
        for batch in &batches {
            for r in batch {
                assert!(
                    keys.contains(&format!("{}|{}|{}", r.model, r.task_id, r.sample)),
                    "verdict {} survived flush+compact",
                    r.task_id
                );
            }
        }
    }

    #[test]
    fn stray_tmp_files_are_ignored() {
        let tmp = TempDir::new("store-tmp");
        let mut store = VerdictStore::open(tmp.path()).unwrap();
        store.append(&[record(0, 0.5)]).unwrap();
        std::fs::write(tmp.path().join("seg-000099.jsonl.tmp"), "garbage").unwrap();
        let reopened = VerdictStore::open(tmp.path()).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.torn_lines(), 0);
    }
}
