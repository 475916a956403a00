//! The append-ahead write log: one checksummed, length-prefixed record
//! per publication, with torn-tail detection and truncation on replay.
//!
//! ## Record layout (all integers little-endian)
//!
//! ```text
//! magic "FWR2" | seq u64 | payload_len u32 | sum(seq ++ payload) u64 | payload
//! ```
//!
//! `sum` is the word-wise [`Checksum`]; the magic's digit is the
//! format version, the snapshots' `FORMAT_VERSION`. Records are framed
//! independently, so a scan can stop at the first byte that fails to
//! parse or verify: everything before it is the valid prefix, everything
//! after is a torn tail a crash left behind (the fault injector produces
//! exactly such tails). Recovery truncates the file back to the valid
//! prefix. A log whose first frame carries the version-1 magic `FWR1` is
//! refused with [`StoreError::UnsupportedVersion`] instead, before
//! anything is truncated or rewritten.

use crate::bytes::{ByteReader, ByteWriter, Checksum};
use crate::error::StoreError;
use crate::storage::Storage;
use parking_lot::Mutex;
use std::sync::Arc;

/// Record magic marking the start of each WAL frame.
pub const RECORD_MAGIC: &[u8; 4] = b"FWR2";
/// Record magic of format version 1, whose checksums were FNV-1a.
const RECORD_MAGIC_V1: &[u8; 4] = b"FWR1";
/// The WAL's file name inside the store directory.
pub const WAL_FILE: &str = "wal.log";
/// Fixed bytes before the payload: magic + seq + len + checksum.
pub const RECORD_HEADER_LEN: usize = 4 + 8 + 4 + 8;

/// One decoded WAL record: the publication sequence number (equal to the
/// generation the publication produced) and the opaque batch payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Sequence number; replay asserts it matches the generation the
    /// replayed publication lands on.
    pub seq: u64,
    /// Opaque payload (encoded by `facet-core`'s persistence layer).
    pub payload: Vec<u8>,
}

/// A record's checksum: its sequence number, then its payload.
fn record_sum(seq: u64, payload: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.write(&seq.to_le_bytes());
    sum.write(payload);
    sum.finish()
}

/// Frame one record.
pub fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.raw(RECORD_MAGIC);
    w.u64(seq);
    w.u32(payload.len() as u32);
    w.u64(record_sum(seq, payload));
    w.raw(payload);
    w.finish()
}

/// What a WAL scan found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalScan {
    /// Every record of the valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Total file length (`> valid_len` means a torn tail).
    pub total_len: u64,
}

/// Refuse a WAL image of format version 1: its frames would fail the
/// magic check, and the torn-tail contract would truncate them away.
fn refuse_old_format(buf: &[u8]) -> Result<(), StoreError> {
    if buf.starts_with(RECORD_MAGIC_V1) {
        return Err(StoreError::UnsupportedVersion { found: 1 });
    }
    Ok(())
}

/// Parse the longest valid prefix of a WAL image. Never errors: damage
/// terminates the scan instead (that is the torn-tail contract).
pub(crate) fn scan_records(buf: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut r = ByteReader::new(buf);
    let mut valid_len = 0u64;
    loop {
        let record = (|r: &mut ByteReader<'_>| {
            match r.take(4) {
                Some(m) if m == RECORD_MAGIC => {}
                _ => return None,
            }
            let seq = r.u64()?;
            let len = r.u32()? as usize;
            let sum = r.u64()?;
            let payload = r.take(len)?;
            if record_sum(seq, payload) != sum {
                return None;
            }
            Some(WalRecord {
                seq,
                payload: payload.to_vec(),
            })
        })(&mut r);
        match record {
            Some(rec) => {
                records.push(rec);
                valid_len = r.position() as u64;
            }
            None => break,
        }
    }
    WalScan {
        records,
        valid_len,
        total_len: buf.len() as u64,
    }
}

/// The WAL on storage.
///
/// The mutex serializes appends (so two records' bytes never interleave
/// inside one file) and orders truncation/pruning against appends.
/// Interleaving coverage:
/// [`tests::concurrent_appends_never_interleave_frames`].
pub(crate) struct Wal {
    storage: Arc<dyn Storage>,
    lock: Mutex<()>,
}

impl Wal {
    pub(crate) fn new(storage: Arc<dyn Storage>) -> Self {
        Self {
            storage,
            lock: Mutex::new(()),
        }
    }

    /// Append one framed record durably.
    pub(crate) fn append(&self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        let frame = encode_record(seq, payload);
        let _guard = self.lock.lock();
        self.storage.append(WAL_FILE, &frame)
    }

    /// Read and scan the log; a version-1 log is refused.
    pub(crate) fn scan(&self) -> Result<WalScan, StoreError> {
        let _guard = self.lock.lock();
        let buf = self.storage.read(WAL_FILE)?.unwrap_or_default();
        refuse_old_format(&buf)?;
        Ok(scan_records(&buf))
    }

    /// Cut the log back to `valid_len` bytes (torn-tail repair).
    pub(crate) fn truncate_to(&self, valid_len: u64) -> Result<(), StoreError> {
        let _guard = self.lock.lock();
        if self.storage.read(WAL_FILE)?.is_none() {
            return Ok(());
        }
        self.storage.truncate(WAL_FILE, valid_len)
    }

    /// Drop records with `seq <= floor` (their effects are captured by
    /// every retained snapshot generation), rewriting the log
    /// atomically. A torn tail, if present, is dropped with them; a
    /// version-1 log is refused and left as it is.
    pub(crate) fn prune_through(&self, floor: u64) -> Result<(), StoreError> {
        let _guard = self.lock.lock();
        let buf = self.storage.read(WAL_FILE)?.unwrap_or_default();
        refuse_old_format(&buf)?;
        let scan = scan_records(&buf);
        let mut w = ByteWriter::new();
        for rec in &scan.records {
            if rec.seq > floor {
                w.raw(&encode_record(rec.seq, &rec.payload));
            }
        }
        self.storage.write_atomic(WAL_FILE, &w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::DiskStorage;
    use crate::test_dir;

    #[test]
    fn record_encodes_to_golden_bytes() {
        // Pinned by the checksum of the whole frame: the bytes must not
        // change without a new record magic.
        let bytes = encode_record(42, b"a batch payload");
        assert_eq!(bytes.len(), RECORD_HEADER_LEN + 15);
        assert_eq!(crate::bytes::checksum(&bytes), 0xcd6a_158b_9324_f5fd);
        let scan = scan_records(&bytes);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(
            scan.records,
            vec![WalRecord {
                seq: 42,
                payload: b"a batch payload".to_vec()
            }]
        );
    }

    fn disk_wal(tag: &str) -> (Wal, std::path::PathBuf) {
        let dir = test_dir(tag);
        let storage: Arc<dyn Storage> = Arc::new(DiskStorage::open(&dir).expect("open"));
        (Wal::new(storage), dir)
    }

    #[test]
    fn append_scan_round_trip() {
        let (wal, dir) = disk_wal("wal-roundtrip");
        for seq in 1..=3u64 {
            wal.append(seq, format!("batch {seq}").as_bytes())
                .expect("append");
        }
        let scan = wal.scan().expect("scan");
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.valid_len, scan.total_len, "no torn tail");
        assert_eq!(scan.records[2].seq, 3);
        assert_eq!(scan.records[2].payload, b"batch 3");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_of_the_last_record_is_a_clean_tail() {
        // The exhaustive torn-tail contract at the unit level: cutting
        // the file anywhere inside the final record must yield exactly
        // the earlier records and flag the tail — never a partial or
        // misparsed record.
        let mut buf = Vec::new();
        for seq in 1..=2u64 {
            buf.extend_from_slice(&encode_record(seq, &[seq as u8; 37]));
        }
        let keep = buf.len();
        buf.extend_from_slice(&encode_record(3, &[3u8; 53]));
        for cut in keep..buf.len() {
            let scan = scan_records(&buf[..cut]);
            assert_eq!(scan.records.len(), 2, "cut at {cut} kept a torn record");
            assert_eq!(scan.valid_len, keep as u64, "cut at {cut}");
            assert_eq!(scan.total_len, cut as u64);
        }
        let scan = scan_records(&buf);
        assert_eq!(scan.records.len(), 3, "the intact log scans fully");
        assert_eq!(scan.valid_len, buf.len() as u64);
    }

    #[test]
    fn flipped_bytes_terminate_the_scan() {
        let mut buf = Vec::new();
        for seq in 1..=3u64 {
            buf.extend_from_slice(&encode_record(seq, &[seq as u8; 20]));
        }
        let frame = encode_record(1, &[1u8; 20]).len();
        // Flip a byte inside the second record: first survives, rest drop.
        let mut damaged = buf.clone();
        damaged[frame + 10] ^= 0x01;
        let scan = scan_records(&damaged);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, frame as u64);
        assert!(scan.valid_len < scan.total_len, "damage flagged as a tail");
    }

    #[test]
    fn truncate_and_prune() {
        let (wal, dir) = disk_wal("wal-prune");
        for seq in 1..=5u64 {
            wal.append(seq, &[seq as u8; 16]).expect("append");
        }
        // Simulate a torn tail then repair it.
        let scan = wal.scan().expect("scan");
        wal.truncate_to(scan.valid_len - 3).expect("tear");
        let torn = wal.scan().expect("scan");
        assert_eq!(torn.records.len(), 4);
        wal.truncate_to(torn.valid_len).expect("repair");
        let repaired = wal.scan().expect("scan");
        assert_eq!(repaired.valid_len, repaired.total_len);

        wal.prune_through(2).expect("prune");
        let pruned = wal.scan().expect("scan");
        let seqs: Vec<u64> = pruned.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_one_log_is_refused_and_left_as_it_is() {
        let (wal, dir) = disk_wal("wal-v1");
        let mut old = encode_record(1, b"an old batch");
        old[..4].copy_from_slice(RECORD_MAGIC_V1);
        wal.storage.append(WAL_FILE, &old).expect("write");
        let refused = StoreError::UnsupportedVersion { found: 1 };
        assert_eq!(wal.scan(), Err(refused.clone()));
        assert_eq!(wal.prune_through(0), Err(refused));
        assert_eq!(wal.storage.read(WAL_FILE).expect("read"), Some(old));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_appends_never_interleave_frames() {
        // Interleaving coverage for the C1 sanction on store::wal: many
        // threads append concurrently; every frame must land contiguous
        // (the scan finds exactly the records written, each intact).
        let (wal, dir) = disk_wal("wal-interleave");
        let wal = Arc::new(wal);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let wal = Arc::clone(&wal);
                scope.spawn(move || {
                    for i in 0..25u64 {
                        let seq = t * 100 + i;
                        wal.append(seq, &[(seq % 251) as u8; 33]).expect("append");
                    }
                });
            }
        });
        let scan = wal.scan().expect("scan");
        assert_eq!(scan.records.len(), 100, "every frame intact");
        assert_eq!(scan.valid_len, scan.total_len);
        let mut seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        let expected: Vec<u64> = (0..4u64)
            .flat_map(|t| (0..25u64).map(move |i| t * 100 + i))
            .collect();
        let mut expected = expected;
        expected.sort_unstable();
        assert_eq!(seqs, expected);
        for r in &scan.records {
            assert_eq!(r.payload, vec![(r.seq % 251) as u8; 33]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
