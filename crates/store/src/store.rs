//! Recovery orchestration: latest valid snapshot + WAL tail.

use crate::error::StoreError;
use crate::snapshot::{SnapshotPayload, SnapshotSet};
use crate::storage::{DiskStorage, Storage};
use crate::wal::{Wal, WalRecord};
use facet_obs::Recorder;
use std::path::Path;
use std::sync::Arc;

/// How many snapshot generations to keep by default. Two means a
/// corrupt latest generation still has a verified predecessor to fall
/// back to (with a correspondingly longer WAL replay).
pub const DEFAULT_RETENTION: usize = 2;

/// What recovery found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the snapshot recovery started from (0 = no
    /// snapshot existed; the whole WAL replays).
    pub generation: u64,
    /// True when the newest snapshot failed verification and an older
    /// generation was used instead.
    pub fell_back: bool,
    /// One rendered error per snapshot generation that failed
    /// verification, newest first.
    pub corrupt_snapshots: Vec<String>,
    /// True when the WAL ended in a torn tail that was truncated away.
    pub tail_truncated: bool,
    /// Bytes the tail truncation dropped.
    pub dropped_bytes: u64,
    /// WAL records whose sequence number is past the snapshot — the
    /// publications the caller must replay.
    pub replayed_records: usize,
}

/// A successful recovery: the verified snapshot payload plus the WAL
/// tail to replay on top of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The newest snapshot that passed verification (empty payload with
    /// generation 0 when none existed yet).
    pub snapshot: SnapshotPayload,
    /// Records with `seq > snapshot.generation`, in sequence order.
    pub tail: Vec<WalRecord>,
    /// What happened along the way.
    pub report: RecoveryReport,
}

/// The durable facet store: a retention-managed set of versioned binary
/// snapshots plus an append-ahead WAL, over any [`Storage`] backend.
///
/// The store is deliberately ignorant of what the snapshot sections and
/// WAL payloads *mean* — `facet-core`'s persistence layer encodes and
/// decodes them. This keeps the durability subsystem byte-level and
/// fully exercisable by fault injection without building an index.
pub struct FacetStore {
    storage: Arc<dyn Storage>,
    recorder: Recorder,
    wal: Wal,
    snapshots: SnapshotSet,
}

impl FacetStore {
    /// Open a store over a directory ([`DiskStorage`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let storage: Arc<dyn Storage> = Arc::new(DiskStorage::open(dir)?);
        Self::open_with(storage)
    }

    /// Open a store over any storage backend (fault-injected backends
    /// enter here).
    pub fn open_with(storage: Arc<dyn Storage>) -> Result<Self, StoreError> {
        let snapshots = SnapshotSet::open(Arc::clone(&storage))?;
        let wal = Wal::new(Arc::clone(&storage));
        Ok(Self {
            storage,
            recorder: Recorder::disabled_ref().clone(),
            wal,
            snapshots,
        })
    }

    /// Attach an observability recorder (`store.*` counters and spans).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The underlying storage (tests use this to damage files directly).
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// Write a snapshot generation atomically, keep the newest
    /// [`DEFAULT_RETENTION`] generations, and
    /// prune WAL records every retained generation already captures.
    pub fn publish_snapshot(&self, payload: &SnapshotPayload) -> Result<(), StoreError> {
        let span = self.recorder.span("store.persist");
        span.attr("generation", payload.generation);
        let oldest_kept = self.snapshots.publish(payload, DEFAULT_RETENTION)?;
        self.wal.prune_through(oldest_kept)?;
        self.recorder.incr("store.persist");
        Ok(())
    }

    /// Append one publication record to the WAL (log-ahead: callers log
    /// the batch before applying it in memory).
    pub fn log_record(&self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        self.wal.append(seq, payload)?;
        self.recorder.incr("store.wal_append");
        Ok(())
    }

    /// Recover: load the newest snapshot generation that verifies,
    /// falling back through older generations on corruption; truncate
    /// any torn WAL tail; hand back the records to replay.
    ///
    /// Errors only when storage itself fails, when snapshots exist but
    /// none verifies ([`StoreError::NoValidSnapshot`]), when the store
    /// was written in another format version — every snapshot, or the
    /// WAL's first record ([`StoreError::UnsupportedVersion`]; nothing is
    /// truncated) — or when the WAL is missing records between the
    /// snapshot and its first replayable record ([`StoreError::WalGap`])
    /// — silent data loss is never an outcome.
    pub fn recover(&self) -> Result<Recovery, StoreError> {
        let span = self.recorder.span("store.recover");
        self.recorder.incr("store.recover");
        let mut report = RecoveryReport::default();

        let candidates = self.snapshots.candidates();
        let had_candidates = !candidates.is_empty();
        let mut snapshot: Option<SnapshotPayload> = None;
        let mut first_failure = None;
        let mut all_other_version = true;
        for generation in candidates {
            match self.snapshots.load(generation) {
                Ok(payload) => {
                    snapshot = Some(payload);
                    break;
                }
                Err(e @ (StoreError::Io { .. } | StoreError::WalGap { .. })) => return Err(e),
                Err(e) => {
                    // Verification failure: count it, remember it, fall
                    // back to the previous generation.
                    self.recorder.incr("store.corrupt_section");
                    report.corrupt_snapshots.push(e.to_string());
                    report.fell_back = true;
                    all_other_version &= matches!(e, StoreError::UnsupportedVersion { .. });
                    first_failure.get_or_insert(e);
                }
            }
        }
        let snapshot = match snapshot {
            Some(p) => p,
            // A store of another format version is refused as such, not
            // as corrupt.
            None if had_candidates => {
                return Err(match first_failure {
                    Some(e) if all_other_version => e,
                    _ => StoreError::NoValidSnapshot,
                })
            }
            None => SnapshotPayload {
                generation: 0,
                sections: Vec::new(),
            },
        };
        report.generation = snapshot.generation;

        let scan = self.wal.scan()?;
        if scan.valid_len < scan.total_len {
            self.wal.truncate_to(scan.valid_len)?;
            self.recorder.incr("store.tail_truncated");
            report.tail_truncated = true;
            report.dropped_bytes = scan.total_len - scan.valid_len;
        }
        let mut tail = Vec::new();
        let mut expected = snapshot.generation + 1;
        for rec in scan.records {
            if rec.seq <= snapshot.generation {
                continue;
            }
            if rec.seq != expected {
                return Err(StoreError::WalGap {
                    expected,
                    found: rec.seq,
                });
            }
            expected += 1;
            tail.push(rec);
        }
        self.recorder.add("store.replay", tail.len() as u64);
        report.replayed_records = tail.len();
        span.attr("generation", report.generation);
        span.attr("replayed", tail.len() as u64);
        Ok(Recovery {
            snapshot,
            tail,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::snapshot_file_name;
    use crate::test_dir;

    fn payload(generation: u64) -> SnapshotPayload {
        SnapshotPayload {
            generation,
            sections: vec![("data".to_string(), vec![generation as u8; 48])],
        }
    }

    #[test]
    fn fresh_store_recovers_to_generation_zero() {
        let dir = test_dir("store-fresh");
        let store = FacetStore::open(&dir).expect("open");
        let rec = store.recover().expect("recover");
        assert_eq!(rec.snapshot.generation, 0);
        assert!(rec.snapshot.sections.is_empty());
        assert!(rec.tail.is_empty());
        assert_eq!(rec.report, RecoveryReport::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_plus_tail_and_pruning() {
        let dir = test_dir("store-tail");
        let store = FacetStore::open(&dir).expect("open");
        for seq in 1..=2u64 {
            store.log_record(seq, &[seq as u8; 10]).expect("log");
        }
        store.publish_snapshot(&payload(2)).expect("publish");
        for seq in 3..=4u64 {
            store.log_record(seq, &[seq as u8; 10]).expect("log");
        }
        let rec = store.recover().expect("recover");
        assert_eq!(rec.snapshot.generation, 2);
        let seqs: Vec<u64> = rec.tail.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert!(!rec.report.fell_back);
        assert_eq!(rec.report.replayed_records, 2);

        // A second snapshot keeps generation 2 (retention 2), so the
        // full WAL from generation 2 onward survives for fallback.
        store.publish_snapshot(&payload(4)).expect("publish");
        let rec = store.recover().expect("recover");
        assert_eq!(rec.snapshot.generation, 4);
        assert!(rec.tail.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_latest_falls_back_one_generation() {
        let dir = test_dir("store-fallback");
        let store = FacetStore::open(&dir).expect("open");
        for seq in 1..=2u64 {
            store.log_record(seq, &[seq as u8; 10]).expect("log");
            store.publish_snapshot(&payload(seq)).expect("publish");
        }
        // Flip a byte inside the newest snapshot's section payload.
        let name = snapshot_file_name(2);
        let path = dir.join(&name);
        let mut bytes = std::fs::read(&path).expect("read snapshot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, bytes).expect("damage snapshot");

        let store = FacetStore::open(&dir).expect("reopen");
        let rec = store.recover().expect("recover");
        assert_eq!(rec.snapshot.generation, 1, "fell back a generation");
        assert!(rec.report.fell_back);
        assert_eq!(rec.report.corrupt_snapshots.len(), 1);
        // The record for generation 2 is still in the WAL (pruning kept
        // everything past the oldest retained generation), so nothing is
        // lost: recovery replays it.
        let seqs: Vec<u64> = rec.tail.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_generations_corrupt_is_a_typed_error() {
        let dir = test_dir("store-allbad");
        let store = FacetStore::open(&dir).expect("open");
        store.log_record(1, &[1u8; 10]).expect("log");
        store.publish_snapshot(&payload(1)).expect("publish");
        let path = dir.join(snapshot_file_name(1));
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).expect("damage");
        let store = FacetStore::open(&dir).expect("reopen");
        assert_eq!(store.recover(), Err(StoreError::NoValidSnapshot));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = test_dir("store-torn");
        let store = FacetStore::open(&dir).expect("open");
        for seq in 1..=3u64 {
            store.log_record(seq, &[seq as u8; 25]).expect("log");
        }
        // Tear the last 7 bytes off the WAL.
        let wal_path = dir.join(crate::wal::WAL_FILE);
        let len = std::fs::metadata(&wal_path).expect("stat").len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .expect("open wal");
        f.set_len(len - 7).expect("tear");
        drop(f);

        let store = FacetStore::open(&dir).expect("reopen");
        let rec = store.recover().expect("recover");
        assert!(rec.report.tail_truncated);
        assert!(rec.report.dropped_bytes > 0);
        let seqs: Vec<u64> = rec.tail.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2], "torn record dropped cleanly");
        // The truncation is durable: a second recovery sees a clean log.
        let rec = store.recover().expect("recover again");
        assert!(!rec.report.tail_truncated);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_records_are_a_gap_not_silent_loss() {
        let dir = test_dir("store-gap");
        let store = FacetStore::open(&dir).expect("open");
        store.publish_snapshot(&payload(1)).expect("publish");
        // Record 2 never made it; record 3 did.
        store.log_record(3, &[3u8; 10]).expect("log");
        assert_eq!(
            store.recover(),
            Err(StoreError::WalGap {
                expected: 2,
                found: 3
            })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counters_cover_the_recovery_paths() {
        let dir = test_dir("store-counters");
        {
            let store = FacetStore::open(&dir).expect("open");
            store.log_record(1, &[1u8; 10]).expect("log");
            store.publish_snapshot(&payload(1)).expect("publish");
            store.log_record(2, &[2u8; 10]).expect("log");
        }
        // Damage the snapshot and tear the WAL.
        let snap_path = dir.join(snapshot_file_name(1));
        let mut bytes = std::fs::read(&snap_path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&snap_path, bytes).expect("damage");
        let wal_path = dir.join(crate::wal::WAL_FILE);
        let len = std::fs::metadata(&wal_path).expect("stat").len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .expect("open")
            .set_len(len - 1)
            .expect("tear");

        let recorder = Recorder::enabled();
        let store = FacetStore::open(&dir)
            .expect("reopen")
            .with_recorder(recorder.clone());
        // Generation 1's snapshot is corrupt and no older one exists.
        assert_eq!(store.recover(), Err(StoreError::NoValidSnapshot));
        let counts = recorder.snapshot_counts_only();
        assert_eq!(counts.get("counter.store.recover"), Some(&1));
        assert_eq!(counts.get("counter.store.corrupt_section"), Some(&1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
