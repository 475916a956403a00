//! Pass-through timing wrappers handed to the program in place of its
//! real extractors, resource backends and storage. Each forwards every
//! call unchanged inside a [`probe::call`] span, so a wrapped index
//! publishes exactly the snapshot an unwrapped one does.
//!
//! The resource wrapper goes *under* the index's own `CachedResource`
//! (the sharded index wraps whatever resources it is given), so cache
//! hits never reach it: its spans are real backend work only.

use crate::probe::{self, Layer};
use facet_resources::{ContextResource, ResourceError};
use facet_store::{DiskStorage, Storage, StoreError, WAL_FILE};
use facet_termx::TermExtractor;
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`TermExtractor`] that times each `extract` call and counts the
/// terms it returns.
pub struct TimedExtractor<'a> {
    inner: &'a dyn TermExtractor,
    span: &'static str,
    terms: AtomicU64,
}

impl<'a> TimedExtractor<'a> {
    /// Wrap `inner`; its calls record as spans named `span`.
    pub fn new(inner: &'a dyn TermExtractor, span: &'static str) -> Self {
        Self {
            inner,
            span,
            terms: AtomicU64::new(0),
        }
    }

    /// Terms returned so far.
    pub fn terms(&self) -> u64 {
        self.terms.load(Ordering::Relaxed)
    }
}

impl TermExtractor for TimedExtractor<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn extract(&self, text: &str) -> Vec<String> {
        let terms = {
            let _span = probe::call(Layer::Termx, self.span, false);
            self.inner.extract(text)
        };
        self.terms.fetch_add(terms.len() as u64, Ordering::Relaxed);
        terms
    }
}

/// A [`ContextResource`] that times each backend query.
pub struct TimedResource<'a> {
    inner: &'a dyn ContextResource,
    span: &'static str,
}

impl<'a> TimedResource<'a> {
    /// Wrap `inner`; its queries record as spans named `span`.
    pub fn new(inner: &'a dyn ContextResource, span: &'static str) -> Self {
        Self { inner, span }
    }
}

impl ContextResource for TimedResource<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn context_terms(&self, term: &str) -> Vec<String> {
        let _span = probe::call(Layer::Resources, self.span, false);
        self.inner.context_terms(term)
    }

    fn try_context_terms(&self, term: &str) -> Result<Vec<String>, ResourceError> {
        let _span = probe::call(Layer::Resources, self.span, false);
        self.inner.try_context_terms(term)
    }
}

/// Directory storage that times each operation and counts the bytes
/// appended to the WAL and written as snapshot files.
pub struct TimedStorage {
    inner: DiskStorage,
    wal_bytes: AtomicU64,
    snapshot_bytes: AtomicU64,
}

impl TimedStorage {
    /// Open (creating if needed) a store directory.
    pub fn open(dir: &std::path::Path) -> Result<Self, StoreError> {
        Ok(Self {
            inner: DiskStorage::open(dir)?,
            wal_bytes: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
        })
    }

    /// Bytes appended to the WAL so far.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    /// Bytes of snapshot files written so far.
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes.load(Ordering::Relaxed)
    }
}

impl Storage for TimedStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let _span = probe::call(Layer::Store, "store.read", false);
        self.inner.read(name)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        // The WAL is rewritten atomically when a snapshot lets the store
        // prune it; every other atomic write is a snapshot file.
        if name == WAL_FILE {
            let _span = probe::call(Layer::Store, "store.wal_prune", false);
            return self.inner.write_atomic(name, bytes);
        }
        let _span = probe::call(Layer::Store, "store.snapshot_write", false);
        self.snapshot_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.write_atomic(name, bytes)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let _span = probe::call(Layer::Store, "store.wal_append", false);
        self.wal_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(name, bytes)
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), StoreError> {
        let _span = probe::call(Layer::Store, "store.truncate", false);
        self.inner.truncate(name, len)
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        let _span = probe::call(Layer::Store, "store.remove", false);
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        let _span = probe::call(Layer::Store, "store.list", false);
        self.inner.list()
    }
}
