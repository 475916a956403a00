//! The versioned snapshot container: named, checksummed sections inside
//! a magic/version/trailer frame, plus the retention-managed set of
//! snapshot generations on storage.
//!
//! ## On-disk layout (all integers little-endian)
//!
//! ```text
//! magic "FSNP" | version u32 | generation u64 | section_count u32
//! section*:  name (u64-len str) | payload (u64-len bytes) | sum(name ++ payload) u64
//! trailer:   sum(header ++ per section: name_len ++ payload_len ++ section sum) u64
//! ```
//!
//! `sum` is the word-wise [`Checksum`]. Per-section checksums localize
//! damage (`StoreError::CorruptSection` names the section, and the
//! flipped-byte sweep in `tests/recovery.rs` proves every section is
//! covered); the trailer covers every byte the sections do not — the
//! header, the length prefixes and the section checksums themselves —
//! so each byte of the file is hashed once. The payloads themselves are
//! opaque here — `facet-core`'s persistence layer defines what goes in
//! them.

use crate::bytes::{ByteReader, ByteWriter, Checksum};
use crate::error::StoreError;
use crate::storage::Storage;
use parking_lot::Mutex;
use std::sync::Arc;

/// File magic of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"FSNP";
/// Current snapshot format version.
pub const FORMAT_VERSION: u32 = 2;

/// A snapshot ready to be framed: a generation counter plus named,
/// opaque section payloads (order is preserved and covered by the file
/// checksum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotPayload {
    /// The publication generation this snapshot captures.
    pub generation: u64,
    /// `(section name, payload)` pairs.
    pub sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotPayload {
    /// The payload of a named section, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }
}

/// A section's checksum: its name, then its payload.
fn section_sum(name: &[u8], payload: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.write(name);
    sum.write(payload);
    sum.finish()
}

/// Advance the trailer over one section's framing: its name and payload
/// lengths and its checksum.
fn frame_into(trailer: &mut Checksum, name: &[u8], payload: &[u8], sum: u64) {
    for field in [name.len() as u64, payload.len() as u64, sum] {
        trailer.write(&field.to_le_bytes());
    }
}

/// Frame a payload into the on-disk snapshot format.
pub fn encode_snapshot(payload: &SnapshotPayload) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.raw(SNAPSHOT_MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(payload.generation);
    w.u32(payload.sections.len() as u32);
    let mut trailer = Checksum::new();
    trailer.write(w.as_slice());
    for (name, bytes) in &payload.sections {
        let sum = section_sum(name.as_bytes(), bytes);
        frame_into(&mut trailer, name.as_bytes(), bytes, sum);
        w.str(name);
        w.bytes(bytes);
        w.u64(sum);
    }
    w.u64(trailer.finish());
    w.finish()
}

/// Parse and verify a snapshot file: magic, version, every section
/// checksum, and the trailer.
pub fn decode_snapshot(buf: &[u8]) -> Result<SnapshotPayload, StoreError> {
    let corrupt = |detail: &str| StoreError::CorruptSnapshot {
        detail: detail.to_string(),
    };
    if buf.len() < 8 {
        return Err(corrupt("shorter than the trailer checksum"));
    }
    let (body, trailer_bytes) = buf.split_at(buf.len() - 8);
    let stored = trailer_bytes
        .try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| corrupt("unreadable trailer"))?;
    let mut r = ByteReader::new(body);
    match r.take(4) {
        Some(m) if m == SNAPSHOT_MAGIC => {}
        Some(_) => return Err(StoreError::BadMagic),
        None => return Err(corrupt("missing magic")),
    }
    let version = r.u32().ok_or_else(|| corrupt("missing version"))?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let generation = r.u64().ok_or_else(|| corrupt("missing generation"))?;
    let count = r.u32().ok_or_else(|| corrupt("missing section count"))?;
    let mut trailer = Checksum::new();
    trailer.write(&body[..r.position()]);
    // A damaged count must not size the allocation: every section frame
    // takes at least 24 bytes (name length, payload length, checksum).
    let mut sections = Vec::with_capacity((count as usize).min(r.remaining() / 24));
    for _ in 0..count {
        let name = r
            .str()
            .ok_or_else(|| corrupt("unreadable section name"))?
            .to_string();
        let payload = r.bytes().ok_or_else(|| StoreError::CorruptSection {
            section: name.clone(),
        })?;
        let sum = r.u64().ok_or_else(|| StoreError::CorruptSection {
            section: name.clone(),
        })?;
        if section_sum(name.as_bytes(), payload) != sum {
            return Err(StoreError::CorruptSection { section: name });
        }
        frame_into(&mut trailer, name.as_bytes(), payload, sum);
        sections.push((name, payload.to_vec()));
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after the last section"));
    }
    // Per-section checksums localize damage; the trailer covers the
    // bytes no section covers (header fields, framing, section sums).
    if trailer.finish() != stored {
        return Err(corrupt("file checksum mismatch"));
    }
    Ok(SnapshotPayload {
        generation,
        sections,
    })
}

/// File name of a snapshot generation (zero-padded so lexicographic
/// order is numeric order).
pub fn snapshot_file_name(generation: u64) -> String {
    format!("snap-{generation:020}.bin")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

/// The set of snapshot generations on storage, with retention.
///
/// The mutex serializes publication against the generation list: a
/// publish is (atomic file write, list update, prune of generations past
/// the retention window) and concurrent publishers/recoverers must each
/// observe a consistent list. Interleaving coverage:
/// [`tests::concurrent_publish_keeps_a_loadable_latest`].
pub(crate) struct SnapshotSet {
    storage: Arc<dyn Storage>,
    /// Known generations, ascending.
    generations: Mutex<Vec<u64>>,
}

impl SnapshotSet {
    /// Scan storage for existing snapshot files.
    pub(crate) fn open(storage: Arc<dyn Storage>) -> Result<Self, StoreError> {
        let mut gens: Vec<u64> = storage
            .list()?
            .iter()
            .filter_map(|n| parse_snapshot_name(n))
            .collect();
        gens.sort_unstable();
        Ok(Self {
            storage,
            generations: Mutex::new(gens),
        })
    }

    /// Write a new snapshot generation atomically, keep the newest
    /// `keep` generations, and return the oldest generation still
    /// retained (the WAL may prune records at or below it).
    pub(crate) fn publish(
        &self,
        payload: &SnapshotPayload,
        keep: usize,
    ) -> Result<u64, StoreError> {
        let bytes = encode_snapshot(payload);
        let mut gens = self.generations.lock();
        self.storage
            .write_atomic(&snapshot_file_name(payload.generation), &bytes)?;
        match gens.binary_search(&payload.generation) {
            Ok(_) => {}
            Err(i) => gens.insert(i, payload.generation),
        }
        while gens.len() > keep.max(1) {
            let old = gens.remove(0);
            self.storage.remove(&snapshot_file_name(old))?;
        }
        Ok(gens.first().copied().unwrap_or(payload.generation))
    }

    /// Known generations, newest first.
    pub(crate) fn candidates(&self) -> Vec<u64> {
        let mut gens = self.generations.lock().clone();
        gens.reverse();
        gens
    }

    /// Load and verify one generation.
    pub(crate) fn load(&self, generation: u64) -> Result<SnapshotPayload, StoreError> {
        let name = snapshot_file_name(generation);
        let bytes = self
            .storage
            .read(&name)?
            .ok_or_else(|| StoreError::CorruptSnapshot {
                detail: format!("{name} missing"),
            })?;
        let payload = decode_snapshot(&bytes)?;
        if payload.generation != generation {
            return Err(StoreError::CorruptSnapshot {
                detail: format!(
                    "{name} claims generation {} (header/name mismatch)",
                    payload.generation
                ),
            });
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::checksum;
    use crate::storage::DiskStorage;
    use crate::test_dir;

    fn payload(generation: u64) -> SnapshotPayload {
        SnapshotPayload {
            generation,
            sections: vec![
                ("meta".to_string(), vec![1, 2, 3]),
                ("vocab".to_string(), b"abcdef".to_vec()),
                ("empty".to_string(), Vec::new()),
            ],
        }
    }

    #[test]
    fn two_section_payload_encodes_to_golden_bytes() {
        // Pinned by the checksum of the whole file: the bytes must not
        // change without a `FORMAT_VERSION` bump.
        let p = SnapshotPayload {
            generation: 3,
            sections: vec![
                ("vocab".to_string(), b"political leaders".to_vec()),
                ("cache".to_string(), vec![0, 1, 2, 0xff]),
            ],
        };
        let bytes = encode_snapshot(&p);
        assert_eq!(bytes.len(), 107);
        assert_eq!(checksum(&bytes), 0x360e_fe45_9418_996b);
        assert_eq!(decode_snapshot(&bytes).expect("golden decodes"), p);
    }

    /// The checksum written out independently of [`Checksum`]: the whole
    /// buffer padded with zero bytes to whole little-endian words, each
    /// folded by xor, odd multiply, rotate and odd multiply, then the
    /// byte length.
    fn reference_sum(bytes: &[u8]) -> u64 {
        const M: u64 = 0x9e37_79b9_7f4a_7c15;
        let step = |h: u64, w: u64| ((h ^ w).wrapping_mul(M).rotate_left(29)).wrapping_mul(M);
        let mut padded = bytes.to_vec();
        padded.resize(bytes.len().div_ceil(8) * 8, 0);
        let h = padded
            .chunks(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .fold(0xcbf2_9ce4_8422_2325, step);
        step(h, bytes.len() as u64)
    }

    /// Over random payloads, each section checksum is the reference sum
    /// of `name ++ payload`, the trailer is the reference sum of the
    /// header and every section's lengths and checksum, and the file
    /// decodes back.
    #[test]
    fn checksums_equal_a_word_wise_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for round in 0..50 {
            let mut sections = Vec::new();
            for i in 0..next(6) {
                let len = next(3000);
                let bytes: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
                sections.push((format!("s{round}.{i}"), bytes));
            }
            let p = SnapshotPayload {
                generation: next(1000),
                sections,
            };
            let bytes = encode_snapshot(&p);
            let mut r = ByteReader::new(&bytes);
            // magic, version, generation, section count
            let mut covered = r.take(4 + 4 + 8 + 4).expect("header").to_vec();
            for (name, payload) in &p.sections {
                assert_eq!(r.str(), Some(name.as_str()));
                assert_eq!(r.bytes(), Some(payload.as_slice()));
                let sum = reference_sum(&[name.as_bytes(), payload].concat());
                assert_eq!(r.u64(), Some(sum), "section {name}");
                for field in [name.len() as u64, payload.len() as u64, sum] {
                    covered.extend_from_slice(&field.to_le_bytes());
                }
            }
            assert_eq!(r.u64(), Some(reference_sum(&covered)), "trailer");
            assert!(r.is_empty());
            assert_eq!(decode_snapshot(&bytes), Ok(p));
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = payload(42);
        let decoded = decode_snapshot(&encode_snapshot(&p)).expect("round trip");
        assert_eq!(decoded, p);
        assert_eq!(decoded.section("vocab"), Some(&b"abcdef"[..]));
        assert_eq!(decoded.section("missing"), None);
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let bytes = encode_snapshot(&payload(7));
        for pos in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 0x40;
            assert!(
                decode_snapshot(&damaged).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_snapshot(&payload(7));
        for len in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        // Both are checked before any checksum.
        let mut bad_magic = encode_snapshot(&payload(1));
        bad_magic[0] = b'X';
        assert_eq!(decode_snapshot(&bad_magic), Err(StoreError::BadMagic));

        let mut bad_version = encode_snapshot(&payload(1));
        bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            decode_snapshot(&bad_version),
            Err(StoreError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn retention_keeps_the_newest_two() {
        let dir = test_dir("snapset-retention");
        let storage: Arc<dyn Storage> = Arc::new(DiskStorage::open(&dir).expect("open"));
        let set = SnapshotSet::open(Arc::clone(&storage)).expect("open set");
        for g in 1..=5 {
            let oldest = set.publish(&payload(g), 2).expect("publish");
            assert_eq!(oldest, g.saturating_sub(1).max(1));
        }
        assert_eq!(set.candidates(), vec![5, 4]);
        // A fresh scan of the directory agrees with the in-memory list.
        let reopened = SnapshotSet::open(storage).expect("reopen");
        assert_eq!(reopened.candidates(), vec![5, 4]);
        assert_eq!(reopened.load(4).expect("load").generation, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_publish_keeps_a_loadable_latest() {
        // Interleaving coverage for the C1 sanction on store::snapshot:
        // publishers race retention pruning while readers load whatever
        // candidate list they observe; every observed candidate must be
        // either loadable and valid or already pruned — never torn.
        let dir = test_dir("snapset-interleave");
        let storage: Arc<dyn Storage> = Arc::new(DiskStorage::open(&dir).expect("open"));
        let set = Arc::new(SnapshotSet::open(storage).expect("open set"));
        set.publish(&payload(1), 2).expect("seed generation");
        std::thread::scope(|scope| {
            let writer = {
                let set = Arc::clone(&set);
                scope.spawn(move || {
                    for g in 2..=30 {
                        set.publish(&payload(g), 2).expect("publish");
                    }
                })
            };
            for _ in 0..3 {
                let set = Arc::clone(&set);
                scope.spawn(move || {
                    for _ in 0..60 {
                        for g in set.candidates() {
                            match set.load(g) {
                                Ok(p) => assert_eq!(p.generation, g),
                                Err(StoreError::CorruptSnapshot { detail }) => {
                                    // Lost the race to retention pruning.
                                    assert!(detail.contains("missing"), "{detail}");
                                }
                                Err(e) => panic!("torn snapshot observed: {e}"),
                            }
                        }
                    }
                });
            }
            writer.join().expect("writer");
        });
        assert_eq!(set.candidates(), vec![30, 29]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
