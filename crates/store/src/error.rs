//! Typed durability errors.

/// Why a store operation failed. Every variant is data (no live I/O
/// handles), so errors are cheap to clone, compare in tests, and thread
/// through `facet-core`'s error types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying storage operation failed (the only variant produced
    /// by I/O itself; everything else is detected by validation).
    Io {
        /// Which operation failed (`"read"`, `"append"`, …).
        op: &'static str,
        /// The file the operation targeted.
        name: String,
        /// The OS error rendered as text.
        detail: String,
    },
    /// The snapshot file does not start with the format magic.
    BadMagic,
    /// A snapshot or the WAL was written in another format version.
    UnsupportedVersion {
        /// The version found in the snapshot header or the WAL's record
        /// magic.
        found: u32,
    },
    /// The snapshot's framing is damaged (a length prefix runs past the
    /// buffer, the trailer checksum disagrees, …).
    CorruptSnapshot {
        /// What failed to parse or verify.
        detail: String,
    },
    /// A named snapshot section failed its checksum or decoded to
    /// inconsistent state.
    CorruptSection {
        /// The damaged section's name.
        section: String,
    },
    /// Snapshot files exist but every generation failed verification, so
    /// there is nothing safe to recover from.
    NoValidSnapshot,
    /// The WAL is missing records between the recovered snapshot and its
    /// first replayable record — replaying would silently skip
    /// publications.
    WalGap {
        /// The sequence number recovery expected next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// Replaying a WAL record did not reproduce the logged publication
    /// (the record decoded but the rebuilt state disagrees).
    ReplayFailed {
        /// Sequence number of the offending record.
        seq: u64,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, name, detail } => {
                write!(f, "storage {op} on {name:?} failed: {detail}")
            }
            StoreError::BadMagic => f.write_str("snapshot magic mismatch"),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
            StoreError::CorruptSnapshot { detail } => {
                write!(f, "corrupt snapshot: {detail}")
            }
            StoreError::CorruptSection { section } => {
                write!(f, "corrupt snapshot section {section:?}")
            }
            StoreError::NoValidSnapshot => {
                f.write_str("no snapshot generation passed verification")
            }
            StoreError::WalGap { expected, found } => {
                write!(f, "WAL gap: expected record seq {expected}, found {found}")
            }
            StoreError::ReplayFailed { seq, detail } => {
                write!(f, "replaying WAL record {seq} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Construct an [`StoreError::Io`] from an OS error.
    pub fn io(op: &'static str, name: &str, err: &std::io::Error) -> Self {
        StoreError::Io {
            op,
            name: name.to_string(),
            detail: err.to_string(),
        }
    }
}
