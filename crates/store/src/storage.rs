//! The byte-level storage abstraction: a real directory-backed backend
//! with an explicit fsync discipline, plus a seeded fault-injecting
//! wrapper that silently damages writes the way a crash or failing disk
//! would — the damage is only discoverable through checksums at read
//! time, which is exactly what recovery must cope with.

use crate::error::StoreError;
use facet_resources::{FaultKind, FaultSchedule, VirtualClock};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A flat namespace of files the store persists into. Implementations
/// must make [`write_atomic`](Storage::write_atomic) all-or-nothing with
/// respect to process crash (temp file + fsync + rename for the disk
/// backend); [`append`](Storage::append) is the WAL primitive and may
/// tear at any byte on a crash — the record checksums exist to detect
/// exactly that.
pub trait Storage: Send + Sync {
    /// Read a whole file; `Ok(None)` when it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError>;

    /// Replace a file's contents atomically and durably.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Append bytes to a file (creating it if missing) and flush them.
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Cut a file down to `len` bytes (no-op if already shorter).
    fn truncate(&self, name: &str, len: u64) -> Result<(), StoreError>;

    /// Delete a file; missing files are not an error.
    fn remove(&self, name: &str) -> Result<(), StoreError>;

    /// All file names in the namespace, sorted.
    fn list(&self) -> Result<Vec<String>, StoreError>;
}

/// Directory-backed [`Storage`] with the classic atomicity discipline:
/// `write_atomic` writes `<name>.tmp`, fsyncs the file, renames it over
/// the target, then fsyncs the directory so the rename itself is
/// durable; `append` writes and fsyncs in place, and fsyncs the
/// directory too when it created the file, so a new file's entry is
/// durable with its first bytes.
#[derive(Debug)]
pub struct DiskStorage {
    dir: PathBuf,
}

impl DiskStorage {
    /// Open (creating if needed) the directory `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io("create-dir", &dir.to_string_lossy(), &e))?;
        Ok(Self { dir })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Open `name` for appending, creating it if it is missing: the file,
    /// and whether this call may have created it — then its directory
    /// entry is not durable until the directory is fsynced.
    fn open_append(&self, name: &str) -> Result<(fs::File, bool), StoreError> {
        let path = self.path(name);
        let open = |create| {
            fs::OpenOptions::new()
                .append(true)
                .create(create)
                .open(&path)
        };
        match open(false) {
            Ok(f) => Ok((f, false)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => open(true)
                .map(|f| (f, true))
                .map_err(|e| StoreError::io("open-append", name, &e)),
            Err(e) => Err(StoreError::io("open-append", name, &e)),
        }
    }

    fn sync_dir(&self) -> Result<(), StoreError> {
        let dir = fs::File::open(&self.dir)
            .map_err(|e| StoreError::io("open-dir", &self.dir.to_string_lossy(), &e))?;
        dir.sync_all()
            .map_err(|e| StoreError::io("fsync-dir", &self.dir.to_string_lossy(), &e))
    }
}

impl Storage for DiskStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        match fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::io("read", name, &e)),
        }
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.path(&format!("{name}.tmp"));
        let mut f = fs::File::create(&tmp).map_err(|e| StoreError::io("create", name, &e))?;
        f.write_all(bytes)
            .map_err(|e| StoreError::io("write", name, &e))?;
        f.sync_all()
            .map_err(|e| StoreError::io("fsync", name, &e))?;
        drop(f);
        fs::rename(&tmp, self.path(name)).map_err(|e| StoreError::io("rename", name, &e))?;
        self.sync_dir()
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let (mut f, created) = self.open_append(name)?;
        f.write_all(bytes)
            .map_err(|e| StoreError::io("append", name, &e))?;
        f.sync_all()
            .map_err(|e| StoreError::io("fsync", name, &e))?;
        if created {
            self.sync_dir()?;
        }
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), StoreError> {
        let f = fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(|e| StoreError::io("open-truncate", name, &e))?;
        f.set_len(len)
            .map_err(|e| StoreError::io("truncate", name, &e))?;
        f.sync_all().map_err(|e| StoreError::io("fsync", name, &e))
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::io("remove", name, &e)),
        }
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| StoreError::io("list", &self.dir.to_string_lossy(), &e))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io("list", "entry", &e))?;
            let is_file = entry
                .file_type()
                .map_err(|e| StoreError::io("list", "file-type", &e))?
                .is_file();
            if !is_file {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                // In-flight temp files are not part of the durable state.
                if !name.ends_with(".tmp") {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// A seeded, silently-corrupting [`Storage`] wrapper for crash testing.
///
/// Mutating operations consult the shared [`FaultSchedule`] (the same
/// FNV machinery as [`facet_resources::FaultyResource`], keyed by
/// `"<op>:<file>"`). A scheduled fault damages the write **silently** —
/// the call still returns `Ok`, modelling a crash after the write was
/// acknowledged or a disk that lied about durability:
///
/// * [`FaultKind::ShortWrite`] — only a seed-derived prefix of the bytes
///   lands (a torn WAL tail, a half-written snapshot).
/// * [`FaultKind::CorruptByte`] — the write lands, then one seed-derived
///   bit of the file flips.
/// * [`FaultKind::TruncateAt`] — the write lands, then the file loses
///   its tail past a seed-derived offset (may tear previously durable
///   records, not just the new one).
///
/// The wrapper is **one-shot**: after the first injection it
/// disarms, so a scenario damages exactly one crash point and recovery
/// runs against otherwise healthy storage. Reads are never faulted — all
/// damage must be discovered via checksums, never via errors. Every
/// operation advances the [`VirtualClock`] by a seed-derived latency, so
/// storage time is simulated like resource time (D2 stays clean).
pub struct FaultyStorage<S> {
    inner: S,
    schedule: FaultSchedule,
    clock: VirtualClock,
    armed: AtomicBool,
    injected: AtomicU64,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wrap `inner`, injecting per the schedule and advancing `clock`.
    pub fn new(inner: S, schedule: FaultSchedule, clock: VirtualClock) -> Self {
        Self {
            inner,
            schedule,
            clock,
            armed: AtomicBool::new(true),
            injected: AtomicU64::new(0),
        }
    }

    /// Disarm injection (the "crash point has passed" switch).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Re-arm injection.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The wrapped storage.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The fault kind a scheduled injection would use for this draw.
    fn kind_for(&self, key: &str, attempt: u64) -> FaultKind {
        match self.schedule.draw(key, attempt.wrapping_add(1)) % 3 {
            0 => FaultKind::ShortWrite,
            1 => FaultKind::CorruptByte,
            _ => FaultKind::TruncateAt,
        }
    }

    fn advance_clock(&self, key: &str, attempt: u64) {
        // Simulated storage latency: 10..=200 virtual microseconds.
        let draw = self.schedule.draw(key, attempt.wrapping_add(0x20_0000));
        self.clock.advance_us(10 + draw % 191);
    }

    /// Decide whether this mutating op faults; claims the attempt slot.
    fn fault_for(&self, op: &'static str, name: &str) -> Option<(FaultKind, u64, String)> {
        let key = format!("{op}:{name}");
        let attempt = self.schedule.next_attempt(&key);
        self.advance_clock(&key, attempt);
        if !self.armed.load(Ordering::Acquire) || !self.schedule.scheduled(&key, attempt) {
            return None;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.disarm();
        Some((self.kind_for(&key, attempt), attempt, key))
    }

    /// Flip one seed-derived bit of `name` in place.
    fn flip_byte(&self, name: &str, key: &str, attempt: u64) -> Result<(), StoreError> {
        let Some(mut bytes) = self.inner.read(name)? else {
            return Ok(());
        };
        if bytes.is_empty() {
            return Ok(());
        }
        let draw = self.schedule.draw(key, attempt.wrapping_add(0x30_0000));
        let pos = (draw % bytes.len() as u64) as usize;
        let bit = ((draw >> 32) % 8) as u8;
        bytes[pos] ^= 1 << bit;
        self.inner.write_atomic(name, &bytes)
    }

    /// Cut `name` to a seed-derived fraction of its current length.
    fn tear_tail(&self, name: &str, key: &str, attempt: u64) -> Result<(), StoreError> {
        let Some(bytes) = self.inner.read(name)? else {
            return Ok(());
        };
        if bytes.is_empty() {
            return Ok(());
        }
        let draw = self.schedule.draw(key, attempt.wrapping_add(0x40_0000));
        let keep = draw % bytes.len() as u64;
        self.inner.truncate(name, keep)
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read(name)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        match self.fault_for("write", name) {
            None => self.inner.write_atomic(name, bytes),
            Some((FaultKind::ShortWrite, attempt, key)) => {
                let draw = self.schedule.draw(&key, attempt.wrapping_add(0x40_0000));
                let keep = if bytes.is_empty() {
                    0
                } else {
                    (draw % bytes.len() as u64) as usize
                };
                self.inner.write_atomic(name, &bytes[..keep])
            }
            Some((FaultKind::CorruptByte, attempt, key)) => {
                self.inner.write_atomic(name, bytes)?;
                self.flip_byte(name, &key, attempt)
            }
            Some((_, attempt, key)) => {
                self.inner.write_atomic(name, bytes)?;
                self.tear_tail(name, &key, attempt)
            }
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        match self.fault_for("append", name) {
            None => self.inner.append(name, bytes),
            Some((FaultKind::ShortWrite, attempt, key)) => {
                let draw = self.schedule.draw(&key, attempt.wrapping_add(0x40_0000));
                let keep = if bytes.is_empty() {
                    0
                } else {
                    (draw % bytes.len() as u64) as usize
                };
                self.inner.append(name, &bytes[..keep])
            }
            Some((FaultKind::CorruptByte, attempt, key)) => {
                self.inner.append(name, bytes)?;
                self.flip_byte(name, &key, attempt)
            }
            Some((_, attempt, key)) => {
                self.inner.append(name, bytes)?;
                self.tear_tail(name, &key, attempt)
            }
        }
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), StoreError> {
        self.inner.truncate(name, len)
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    #[test]
    fn disk_round_trip_append_truncate_list() {
        let dir = test_dir("storage-disk");
        let s = DiskStorage::open(&dir).expect("open");
        assert_eq!(s.read("a.bin").expect("read"), None);
        s.write_atomic("a.bin", b"hello").expect("write");
        s.append("w.log", b"one").expect("append");
        s.append("w.log", b"two").expect("append");
        assert_eq!(s.read("a.bin").expect("read"), Some(b"hello".to_vec()));
        assert_eq!(s.read("w.log").expect("read"), Some(b"onetwo".to_vec()));
        s.truncate("w.log", 4).expect("truncate");
        assert_eq!(s.read("w.log").expect("read"), Some(b"onet".to_vec()));
        assert_eq!(s.list().expect("list"), vec!["a.bin", "w.log"]);
        s.remove("a.bin").expect("remove");
        s.remove("a.bin").expect("idempotent remove");
        assert_eq!(s.list().expect("list"), vec!["w.log"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The first append into a fresh directory creates the file, so it
    /// fsyncs the directory as well; the second finds the file and
    /// appends in place. Both land, in order. (Whether the entry survives
    /// a power cut is not observable from a test.)
    #[test]
    fn first_append_creates_the_file_and_the_second_extends_it() {
        let dir = test_dir("storage-first-append");
        let s = DiskStorage::open(&dir).expect("open");
        assert!(s.open_append("new.log").expect("open").1, "created");
        assert!(!dir.join("w.log").exists());
        s.append("w.log", b"first").expect("first append");
        assert!(!s.open_append("w.log").expect("open").1, "found");
        s.append("w.log", b"second").expect("second append");
        assert_eq!(
            s.read("w.log").expect("read"),
            Some(b"firstsecond".to_vec())
        );
        assert_eq!(s.list().expect("list"), vec!["new.log", "w.log"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_storage_damages_silently_and_deterministically() {
        let run = |seed: u64| {
            let dir = test_dir(&format!("storage-faulty-{seed}"));
            let clock = VirtualClock::new();
            let s = FaultyStorage::new(
                DiskStorage::open(&dir).expect("open"),
                FaultSchedule::new(seed, 1000),
                clock.clone(),
            );
            for i in 0..4u8 {
                // Silent model: the op reports success even when damaged.
                s.append("w.log", &[i; 64]).expect("append reports ok");
            }
            let bytes = s.read("w.log").expect("read").unwrap_or_default();
            let injected = s.injected_faults();
            std::fs::remove_dir_all(&dir).ok();
            (bytes, injected, clock.now_us())
        };
        let (a, injected, t) = run(0xC0FFEE);
        assert!(injected > 0, "permille 1000 injects on the first write");
        let healthy: Vec<u8> = (0..4u8).flat_map(|i| [i; 64]).collect();
        assert_ne!(a, healthy, "damage happened");
        let (b, _, t2) = run(0xC0FFEE);
        assert_eq!(a, b, "same seed, same damage");
        assert_eq!(t, t2, "same seed, same virtual timeline");
    }

    #[test]
    fn one_shot_disarms_after_first_injection() {
        let dir = test_dir("storage-oneshot");
        let s = FaultyStorage::new(
            DiskStorage::open(&dir).expect("open"),
            FaultSchedule::new(7, 1000),
            VirtualClock::new(),
        );
        for _ in 0..5 {
            s.append("w.log", &[0xAB; 32]).expect("append");
        }
        assert_eq!(s.injected_faults(), 1, "one crash point per scenario");
        std::fs::remove_dir_all(&dir).ok();
    }
}
