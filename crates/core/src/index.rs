//! What the facet index hands out: snapshots, update statistics, and
//! errors.
//!
//! The index itself is [`crate::shard::ShardedFacetIndex`]. Every append
//! or repair publishes a fresh [`FacetSnapshot`] — an immutable,
//! `Arc`-shared view that browse engines and evaluation harnesses read
//! lock-free while further updates proceed — and reports what it did as
//! [`AppendStats`] or [`RepairStats`]. A rejected update surfaces as a
//! typed [`IndexError`] and leaves the published snapshot untouched.

use crate::browse::BrowseEngine;
use crate::hierarchy::FacetForest;
use crate::selection::FacetCandidate;
use facet_resources::ExpansionError;
use facet_textkit::{Fnv1a, FrozenVocabulary, RowStore};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A failure while updating a facet index.
///
/// Appends validate their internal state (document ranges, per-document
/// term alignment) before touching the published snapshot; a corrupted
/// range surfaces as a typed error to the caller instead of aborting a
/// serving process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The expansion layer rejected the append: the document range or
    /// the per-document important-term lists do not line up with the
    /// index's contextualized state.
    Expansion(ExpansionError),
    /// The durability layer rejected a persistence operation (see
    /// [`crate::persist`]): a snapshot publish or WAL append failed, so
    /// the in-memory index and the on-disk state may have diverged.
    Store(facet_store::StoreError),
    /// A [`crate::serve::FacetServer::reopen`] presented a recovered
    /// index older than the currently published generation; serving it
    /// would move readers backwards in time.
    StaleReopen {
        /// The generation readers currently see.
        published: u64,
        /// The stale generation the recovered index carries.
        recovered: u64,
    },
    /// The index's [`crate::PipelineOptions`] hold a value no pipeline
    /// can run with (see [`crate::PipelineOptions::validate`]). Checked
    /// before anything is ingested or logged.
    InvalidOptions {
        /// The option's field name.
        option: &'static str,
        /// Its value, as written by `Display`.
        value: String,
        /// The values it may take.
        expected: &'static str,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Expansion(e) => write!(f, "index append rejected: {e}"),
            IndexError::Store(e) => write!(f, "index persistence failed: {e}"),
            IndexError::StaleReopen {
                published,
                recovered,
            } => write!(
                f,
                "reopen rejected: recovered generation {recovered} is older than \
                 the published generation {published}"
            ),
            IndexError::InvalidOptions {
                option,
                value,
                expected,
            } => write!(
                f,
                "invalid pipeline options: {option} is {value}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Expansion(e) => Some(e),
            IndexError::Store(e) => Some(e),
            IndexError::StaleReopen { .. } | IndexError::InvalidOptions { .. } => None,
        }
    }
}

impl From<ExpansionError> for IndexError {
    fn from(e: ExpansionError) -> Self {
        IndexError::Expansion(e)
    }
}

impl From<facet_store::StoreError> for IndexError {
    fn from(e: facet_store::StoreError) -> Self {
        IndexError::Store(e)
    }
}

/// Degraded-coverage provenance by term string: important term →
/// resources that failed while resolving it, in resource order.
// lint:allow(string-keyed-map, reason="serving-edge degraded report; strings materialize here by design")
pub(crate) type DegradedMap = BTreeMap<String, Vec<String>>;

/// An immutable view of the index at one generation.
///
/// Snapshots are what readers hold: obtaining one is an `Arc` clone,
/// and everything inside is frozen — the vocabulary is
/// a [`FrozenVocabulary`], the document rows are a [`RowStore`] whose
/// chunks the snapshot shares with the index (later appends write only
/// to the index's own copy of the open chunk), the forest and its
/// facet-term postings live in the snapshot's [`BrowseEngine`], and no
/// method takes `&mut`. A snapshot stays valid (and cheap to query) no
/// matter how many appends land after it was taken.
#[derive(Debug)]
pub struct FacetSnapshot {
    generation: u64,
    vocab: FrozenVocabulary,
    doc_terms: RowStore,
    candidates: Vec<FacetCandidate>,
    /// The forest and its facet terms' postings.
    engine: BrowseEngine,
    /// Degraded-coverage provenance at this generation, built at publish
    /// from the expansion cache's failed resolutions. Empty for a
    /// fault-free build and after a complete
    /// [`crate::shard::ShardedFacetIndex::repair`]. The next append
    /// shares it when it resolves no term degraded.
    pub(crate) degraded: Arc<DegradedMap>,
}

impl FacetSnapshot {
    /// The append generation this snapshot was taken at (0 = empty index,
    /// incremented once per published append or repair).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of documents in the snapshot.
    pub fn n_docs(&self) -> usize {
        self.doc_terms.len()
    }

    /// The frozen vocabulary: resolves every term id appearing in this
    /// snapshot, unaffected by later appends.
    pub fn vocab(&self) -> &FrozenVocabulary {
        &self.vocab
    }

    /// The ranked candidate facet terms.
    pub fn candidates(&self) -> &[FacetCandidate] {
        &self.candidates
    }

    /// The candidate facet terms as strings, in rank order.
    pub fn facet_terms(&self) -> Vec<&str> {
        self.candidates
            .iter()
            .map(|c| self.vocab.term(c.term))
            .collect()
    }

    /// The facet hierarchies.
    pub fn forest(&self) -> &FacetForest {
        self.engine.forest()
    }

    /// Degraded-coverage provenance: for every important term whose
    /// resolution is missing at least one resource's answer, the names of
    /// the failed resources. Empty when coverage is complete.
    // lint:allow(string-keyed-map, reason="serving-edge degraded report; strings materialize here by design")
    pub fn degraded(&self) -> &BTreeMap<String, Vec<String>> {
        &self.degraded
    }

    /// True when no term resolution in this snapshot is missing a
    /// resource's answer.
    pub fn is_fully_covered(&self) -> bool {
        self.degraded.is_empty()
    }

    /// The contextualized per-document term sets (sorted, distinct), one
    /// row per document in id order: `doc_terms()[d]` is document `d`'s
    /// row, and `iter()` yields every row as a `&[TermId]`. The store
    /// shares its chunks with the index that published this snapshot, so
    /// handing it out copies nothing.
    pub fn doc_terms(&self) -> &RowStore {
        &self.doc_terms
    }

    /// The [`BrowseEngine`] over this snapshot, built at publish: nothing
    /// is computed here, and the OLAP-style slice/dice/pivot path is
    /// entirely read-only.
    pub fn browse(&self) -> &BrowseEngine {
        &self.engine
    }

    /// An FNV-1a digest over the snapshot's canonical *string* view:
    /// the generation, every candidate row (term, df, `df_C`, score
    /// bits) in rank order, every forest edge, the degraded-coverage map,
    /// and every per-document contextualized term set as its term strings
    /// in sorted order. Neither term ids nor their order enter the hash,
    /// so snapshots that are string-identical digest equal whatever order
    /// their terms were interned in — across worker counts and append
    /// splits, and across crash recovery (`tests/recovery.rs`).
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv1a::new();
        hash.write(&self.generation.to_le_bytes());
        for c in &self.candidates {
            hash.write(b"c\x1f");
            hash.write(self.vocab.try_term(c.term).unwrap_or("").as_bytes());
            hash.write(&c.df.to_le_bytes());
            hash.write(&c.df_c.to_le_bytes());
            hash.write(&c.score.to_bits().to_le_bytes());
        }
        for (parent, child) in self.forest().edges() {
            hash.write(b"e\x1f");
            hash.write(parent.as_bytes());
            hash.write(b"\x1f");
            hash.write(child.as_bytes());
        }
        for (term, failed) in self.degraded.iter() {
            hash.write(b"d\x1f");
            hash.write(term.as_bytes());
            for f in failed {
                hash.write(b"\x1f");
                hash.write(f.as_bytes());
            }
        }
        let mut strings: Vec<&str> = Vec::new();
        for row in self.doc_terms.iter() {
            strings.clear();
            strings.extend(row.iter().map(|t| self.vocab.try_term(*t).unwrap_or("")));
            strings.sort_unstable();
            hash.write(b"r");
            for t in &strings {
                hash.write(b"\x1f");
                hash.write(t.as_bytes());
            }
        }
        hash.finish()
    }

    /// Assemble a snapshot from its parts, gathering the browse engine's
    /// facet-term postings from `postings` (the index's per-term rows,
    /// ascending). Crate-internal: the index's publish path builds every
    /// non-empty snapshot — after an append, a repair, or a restore — and
    /// [`crate::shard::ShardedFacetIndex::new`] the empty one.
    pub(crate) fn assemble(
        generation: u64,
        vocab: FrozenVocabulary,
        doc_terms: RowStore,
        candidates: Vec<FacetCandidate>,
        forest: FacetForest,
        postings: &[Vec<u32>],
        degraded: Arc<DegradedMap>,
    ) -> Self {
        let engine = BrowseEngine::from_postings(forest, doc_terms.len(), postings);
        Self {
            generation,
            vocab,
            doc_terms,
            candidates,
            engine,
            degraded,
        }
    }
}

/// What one [`crate::shard::ShardedFacetIndex::append`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendStats {
    /// Documents ingested by this append.
    pub docs: usize,
    /// Distinct important terms of this append resolved for the first
    /// time.
    pub new_distinct_terms: usize,
    /// Distinct important terms of this append answered from the
    /// expansion cache.
    pub reused_terms: usize,
    /// Queries this append sent the resources that they answered: one
    /// per new distinct important term per resource that answered.
    pub resource_queries: u64,
    /// The generation of the snapshot this append published.
    pub generation: u64,
}

/// What one [`crate::shard::ShardedFacetIndex::repair`] backfill pass
/// did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Degraded terms re-queried against the resources.
    pub requeried_terms: usize,
    /// Terms whose coverage is now complete.
    pub repaired_terms: usize,
    /// Terms still degraded (their resources are still failing); a later
    /// pass can retry them.
    pub still_degraded: usize,
    /// Documents whose contextualized term rows changed.
    pub changed_docs: usize,
    /// The generation of the published snapshot after the pass (unchanged
    /// when there was nothing to re-query).
    pub generation: u64,
}
