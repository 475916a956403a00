//! Interning vocabulary: maps term strings to dense [`TermId`]s.
//!
//! Every component of the pipeline — the text database, the contextualized
//! database, the external resources — speaks `TermId` rather than `String`,
//! so frequency tables are dense `Vec`s and set operations are cheap.
//!
//! Since the global-interner refactor, [`TermId`] *is* [`Sym`](crate::Sym)
//! and [`Vocabulary`] is a thin facade over the arena-backed
//! [`Interner`](crate::Interner): term text lives once in a contiguous
//! arena, lookup is a deterministic FNV-1a probe, and per-term `String`
//! allocations are gone from the intern path. The facade keeps the
//! vocabulary vocabulary (`intern`/`term`/`freeze`) that the rest of the
//! system is written against.

use std::sync::Arc;

use crate::sym::{InternStats, Interner};

/// A dense identifier for an interned term. Valid only with respect to the
/// [`Vocabulary`] that produced it.
///
/// `TermId` is the pipeline-facing name for the global interner's
/// [`Sym`](crate::Sym) — one id space, two vocabularies of discourse. The
/// re-export (rather than a type alias) keeps the tuple constructor and
/// patterns (`TermId(0)`) working everywhere.
pub use crate::sym::Sym as TermId;

/// An append-only string interner for terms.
///
/// ```
/// use facet_textkit::Vocabulary;
/// let mut vocab = Vocabulary::new();
/// let id = vocab.intern("political leaders");
/// assert_eq!(vocab.intern("political leaders"), id);
/// assert_eq!(vocab.term(id), "political leaders");
/// ```
///
/// Interning the same string twice yields the same [`TermId`]; ids are
/// assigned densely from zero in first-seen order, which makes them usable
/// as indices into frequency vectors. Backed by the arena
/// [`Interner`](crate::Interner): no per-term heap strings, deterministic
/// layout, and hit/miss counters surfaced via [`Vocabulary::stats`].
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    interner: Interner,
}

impl Vocabulary {
    /// Create an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty vocabulary with capacity for `n` terms.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            interner: Interner::with_capacity(n),
        }
    }

    /// Intern `term`, returning its id (allocating a new one if unseen).
    pub fn intern(&mut self, term: &str) -> TermId {
        self.interner.intern(term)
    }

    /// Look up an already-interned term without allocating.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.interner.get(term)
    }

    /// Resolve an id back to its term string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this vocabulary.
    pub fn term(&self, id: TermId) -> &str {
        self.interner.resolve(id)
    }

    /// Resolve an id if it is valid for this vocabulary.
    pub fn try_term(&self, id: TermId) -> Option<&str> {
        self.interner.try_resolve(id)
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// True if no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }

    /// Iterate over `(TermId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.interner.iter()
    }

    /// Interner hit/miss/len counters (the `intern.{hits,misses,len}`
    /// observability metrics).
    pub fn stats(&self) -> InternStats {
        self.interner.stats()
    }

    /// The backing interner (serialization surface; restore via
    /// [`Vocabulary::from_interner`]).
    pub fn as_interner(&self) -> &Interner {
        &self.interner
    }

    /// Wrap a restored interner (see [`Interner::from_parts`]) back into
    /// a vocabulary.
    pub fn from_interner(interner: Interner) -> Self {
        Self { interner }
    }

    /// Take an immutable, shareable snapshot of the current state.
    ///
    /// The frozen view is detached: later `intern` calls on `self` do not
    /// affect it, and every clone of the returned [`FrozenVocabulary`]
    /// shares one allocation. This is what read paths (snapshot serving,
    /// browse engines) hold instead of a `&mut Vocabulary`.
    pub fn freeze(&self) -> FrozenVocabulary {
        FrozenVocabulary {
            inner: Arc::new(self.clone()),
        }
    }
}

/// An immutable, cheaply-clonable snapshot of a [`Vocabulary`].
///
/// Produced by [`Vocabulary::freeze`]; exposes the read-only half of the
/// vocabulary API. Term ids resolved against the frozen view are exactly
/// the ids the source vocabulary had assigned at freeze time (interning
/// is append-only, so ids never change meaning — a frozen view simply
/// does not know about terms interned after it was taken).
#[derive(Debug, Clone)]
pub struct FrozenVocabulary {
    inner: Arc<Vocabulary>,
}

impl Default for FrozenVocabulary {
    /// An empty frozen view (no terms). Useful as the placeholder
    /// vocabulary of an empty forest.
    fn default() -> Self {
        Self {
            inner: Arc::new(Vocabulary::default()),
        }
    }
}

impl FrozenVocabulary {
    /// Look up an interned term.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.inner.get(term)
    }

    /// Resolve an id back to its term string.
    ///
    /// # Panics
    /// Panics if `id` was interned after this snapshot was frozen (or
    /// belongs to a different vocabulary).
    pub fn term(&self, id: TermId) -> &str {
        self.inner.term(id)
    }

    /// Resolve an id if it is valid for this snapshot.
    pub fn try_term(&self, id: TermId) -> Option<&str> {
        self.inner.try_term(id)
    }

    /// Number of terms known to this snapshot.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if the snapshot holds no terms.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterate over `(TermId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.inner.iter()
    }

    /// Counters at freeze time.
    pub fn stats(&self) -> InternStats {
        self.inner.stats()
    }

    /// A full read-only view of the underlying vocabulary, for APIs that
    /// take `&Vocabulary`.
    pub fn as_vocabulary(&self) -> &Vocabulary {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("market");
        let b = v.intern("market");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), TermId(0));
        assert_eq!(v.intern("b"), TermId(1));
        assert_eq!(v.intern("a"), TermId(0));
        assert_eq!(v.intern("c"), TermId(2));
    }

    #[test]
    fn roundtrip() {
        let mut v = Vocabulary::new();
        let id = v.intern("jacques chirac");
        assert_eq!(v.term(id), "jacques chirac");
        assert_eq!(v.get("jacques chirac"), Some(id));
        assert_eq!(v.get("unseen"), None);
    }

    #[test]
    fn try_term_out_of_range() {
        let v = Vocabulary::new();
        assert_eq!(v.try_term(TermId(5)), None);
    }

    #[test]
    fn iter_in_order() {
        let mut v = Vocabulary::new();
        v.intern("x");
        v.intern("y");
        let all: Vec<_> = v.iter().map(|(i, s)| (i.0, s.to_string())).collect();
        assert_eq!(all, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }

    #[test]
    fn frozen_snapshot_detached_from_later_interns() {
        let mut v = Vocabulary::new();
        let x = v.intern("x");
        let frozen = v.freeze();
        let y = v.intern("y");
        assert_eq!(frozen.get("x"), Some(x));
        assert_eq!(frozen.get("y"), None, "frozen before y was interned");
        assert_eq!(frozen.try_term(y), None);
        assert_eq!(frozen.len(), 1);
        assert_eq!(v.len(), 2);
        // Shared ids keep their meaning.
        assert_eq!(frozen.term(x), v.term(x));
        // Clones share state.
        let c = frozen.clone();
        assert_eq!(c.len(), 1);
        assert_eq!(c.as_vocabulary().get("x"), Some(x));
    }

    #[test]
    fn stats_track_interns() {
        let mut v = Vocabulary::new();
        v.intern("a");
        v.intern("a");
        v.intern("b");
        let s = v.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 2, 2));
    }

    #[test]
    fn default_frozen_vocabulary_is_empty() {
        let f = FrozenVocabulary::default();
        assert!(f.is_empty());
        assert_eq!(f.get("anything"), None);
    }
}
