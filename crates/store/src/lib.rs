//! Crash-safe durability for the facet pipeline (DESIGN.md §18).
//!
//! The store persists an index as two artifacts over a flat [`Storage`]
//! namespace:
//!
//! * **Versioned binary snapshots** — named, individually checksummed
//!   sections inside a magic/version/trailer frame, written atomically
//!   (temp file + fsync + rename + directory fsync) under retention
//!   (the newest [`DEFAULT_RETENTION`] = 2 generations are kept).
//! * **An append-ahead WAL** — one checksummed, length-prefixed record
//!   per `append`/`repair` publication, logged *before* the publication
//!   is applied in memory.
//!
//! Recovery ([`FacetStore::recover`]) loads the newest snapshot
//! generation that verifies — falling back through older generations on
//! checksum failure — truncates any torn WAL tail, and returns the
//! records past the snapshot for the caller to replay. Because the
//! pipeline is deterministic end-to-end, replaying those records through
//! the live `append`/`repair` paths converges **byte-identical** to the
//! in-memory build that never crashed (`tests/recovery.rs` proves this
//! under injected corruption).
//!
//! The section payloads and record payloads are opaque bytes here;
//! `facet-core`'s persistence layer defines their contents. That keeps
//! this crate byte-level, dependency-light, and exhaustively testable
//! with [`FaultyStorage`] — a seeded wrapper (sharing
//! [`facet_resources::FaultSchedule`]'s FNV machinery and the
//! [`facet_resources::VirtualClock`]) that silently damages writes with
//! short writes, flipped bytes, and tail truncations.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod bytes;
mod error;
mod snapshot;
mod storage;
mod store;
mod wal;

pub use error::StoreError;
pub use snapshot::{
    decode_snapshot, encode_snapshot, snapshot_file_name, SnapshotPayload, FORMAT_VERSION,
    SNAPSHOT_MAGIC,
};
pub use storage::{DiskStorage, FaultyStorage, Storage};
pub use store::{FacetStore, Recovery, RecoveryReport, DEFAULT_RETENTION};
pub use wal::{encode_record, WalRecord, RECORD_HEADER_LEN, RECORD_MAGIC, WAL_FILE};

/// A unique, wall-clock-free temp directory for tests: the process id
/// plus a process-wide counter (D2/D3 stay clean even in test code).
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("facet-store-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}
