//! The arena-backed term vocabulary: term strings to dense [`TermId`]s.
//!
//! Every layer of the system — pipeline, index, expansion cache, the
//! search and title indexes — speaks [`TermId`]: a dense `u32` id handed
//! out by a [`Vocabulary`] in first-seen order. Term text lives once, in
//! a single contiguous byte arena, and a deterministic open-addressing
//! table maps text → id, so interning never allocates per term on the
//! hit path and id assignment depends only on the sequence of `intern`
//! calls (no `RandomState`, no pointer identity).
//!
//! Three companion types round out the substrate:
//!
//! * [`FrozenVocabulary`] — an immutable, cheaply clonable snapshot for
//!   lock-free read paths,
//! * [`SymTable`] — a dense id-indexed map replacing `HashMap<String,
//!   T>` counting tables; iteration is in id order by construction, so
//!   it *removes* unordered-map-iteration hazards instead of sanctioning
//!   them,
//! * [`InternStats`] — hit/miss/len counters surfaced as `intern.{hits,
//!   misses,len}` observability metrics by the index.
//!
//! Ids are append-only: once assigned, an id's meaning never changes,
//! which is what lets frozen snapshots and dense frequency vectors share
//! ids without coordination.

use crate::pack8;
use std::ops::Deref;
use std::sync::Arc;

/// A dense identifier for an interned term. Valid only with respect to
/// the [`Vocabulary`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interning counters: how often `intern` was answered from the table
/// (`hits`) vs. appended a new id (`misses`), and how many distinct terms
/// exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InternStats {
    /// `intern` calls answered by an existing id.
    pub hits: u64,
    /// `intern` calls that appended a new id.
    pub misses: u64,
    /// Distinct terms interned so far.
    pub len: usize,
}

impl InternStats {
    /// Fraction of `intern` calls answered from the table (0.0 when
    /// unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The probe hash of a term: one multiply per eight bytes, then a
/// finalizer that folds the high bits into the low ones the table index
/// reads.
#[inline]
fn term_hash(term: &str) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let bytes = term.as_bytes();
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ pack8(w)).wrapping_mul(K).rotate_left(29);
    }
    h = (h ^ pack8(words.remainder())).wrapping_mul(K);
    h ^= h >> 32;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 29)
}

/// Table slots for `terms` terms: the smallest power of two, at least
/// 16, that holds them under the 7/8 load bound.
fn slots_for(terms: usize) -> usize {
    let mut slots = 16;
    while terms * 8 > slots * 7 {
        slots *= 2;
    }
    slots
}

/// An append-only arena interner mapping term strings to dense
/// [`TermId`]s.
///
/// ```
/// use facet_textkit::Vocabulary;
/// let mut vocab = Vocabulary::new();
/// let id = vocab.intern("political leaders");
/// assert_eq!(vocab.intern("political leaders"), id);
/// assert_eq!(vocab.term(id), "political leaders");
/// ```
///
/// Ids are assigned densely from zero in first-seen order, which makes
/// them usable as indices into frequency vectors. All term text is
/// stored once in a single byte arena (`String`), with a span per id —
/// no per-term `String` allocations, and resolving an id is two array
/// reads. The hash table uses open addressing with linear probing over
/// a fixed, unseeded hash that reads eight bytes per multiply, so the
/// structure is fully deterministic: the same sequence of `intern` calls
/// always produces the same ids and the same memory layout. Ids and
/// persisted bytes do not depend on the hash at all: the table is
/// rebuilt on restore ([`Vocabulary::from_parts`]).
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    /// Concatenated UTF-8 text of every interned term.
    arena: String,
    /// Byte range of each id's text within `arena`.
    spans: Vec<(u32, u32)>,
    /// Open-addressing table: `0` is empty, otherwise `id.0 + 1`.
    table: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty vocabulary with room for `terms` terms of `bytes` bytes
    /// in total before it reallocates. Ids are assigned exactly as by
    /// [`Vocabulary::new`].
    pub fn with_capacity(terms: usize, bytes: usize) -> Self {
        Self {
            arena: String::with_capacity(bytes),
            spans: Vec::with_capacity(terms),
            table: if terms == 0 {
                Vec::new()
            } else {
                vec![0; slots_for(terms)]
            },
            hits: 0,
            misses: 0,
        }
    }

    /// Probe the table for `term` under `hash`.
    fn lookup_hashed(&self, term: &str, hash: u64) -> Option<TermId> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut idx = (hash as usize) & mask;
        loop {
            let slot = self.table[idx];
            if slot == 0 {
                return None;
            }
            let id = TermId(slot - 1);
            if self.term(id) == term {
                return Some(id);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Insert `id` (already appended to the arena) into the table.
    fn insert_hashed(table: &mut [u32], id: TermId, hash: u64) {
        let mask = table.len() - 1;
        let mut idx = (hash as usize) & mask;
        while table[idx] != 0 {
            idx = (idx + 1) & mask;
        }
        table[idx] = id.0 + 1;
    }

    /// Grow the table when load would exceed 7/8 and rehash every id.
    fn grow_if_needed(&mut self) {
        let terms = self.spans.len() + 1;
        if terms * 8 <= self.table.len() * 7 {
            return;
        }
        let mut table = vec![0u32; slots_for(terms)];
        for (id, term) in self.iter() {
            Self::insert_hashed(&mut table, id, term_hash(term));
        }
        self.table = table;
    }

    /// Intern `term`, returning its id (allocating a new one if unseen).
    /// Counts a hit or miss in [`Vocabulary::stats`].
    pub fn intern(&mut self, term: &str) -> TermId {
        let hash = term_hash(term);
        if let Some(id) = self.lookup_hashed(term, hash) {
            self.hits += 1;
            return id;
        }
        self.misses += 1;
        self.grow_if_needed();
        // lint:allow(panic, reason="u32 id-space exhaustion (>4B distinct terms) is unrecoverable and unreachable for supported corpora")
        let id = u32::try_from(self.spans.len()).expect("vocabulary id space exhausted");
        // lint:allow(panic, reason="4 GiB of distinct term text is unreachable for supported corpora and unrecoverable if hit")
        let start = u32::try_from(self.arena.len()).expect("vocabulary arena exhausted");
        self.arena.push_str(term);
        // lint:allow(panic, reason="4 GiB of distinct term text is unreachable for supported corpora and unrecoverable if hit")
        let end = u32::try_from(self.arena.len()).expect("vocabulary arena exhausted");
        self.spans.push((start, end));
        Self::insert_hashed(&mut self.table, TermId(id), hash);
        TermId(id)
    }

    /// Look up an already-interned term without allocating or counting.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.lookup_hashed(term, term_hash(term))
    }

    /// Resolve an id back to its term string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this vocabulary.
    #[inline]
    pub fn term(&self, id: TermId) -> &str {
        let (start, end) = self.spans[id.index()];
        &self.arena[start as usize..end as usize]
    }

    /// Resolve an id if it is valid for this vocabulary.
    pub fn try_term(&self, id: TermId) -> Option<&str> {
        (id.index() < self.spans.len()).then(|| self.term(id))
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterate over `(TermId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        (0..self.spans.len() as u32).map(|i| (TermId(i), self.term(TermId(i))))
    }

    /// Hit/miss/len counters so far (the `intern.{hits,misses,len}`
    /// observability metrics).
    pub fn stats(&self) -> InternStats {
        InternStats {
            hits: self.hits,
            misses: self.misses,
            len: self.spans.len(),
        }
    }

    /// Take an immutable, shareable snapshot of the current state.
    ///
    /// The frozen view is detached: later `intern` calls on `self` do not
    /// affect it, and every clone of the returned [`FrozenVocabulary`]
    /// shares one allocation. This is what read paths (snapshot serving,
    /// browse engines) hold instead of a `&mut Vocabulary`.
    pub fn freeze(&self) -> FrozenVocabulary {
        FrozenVocabulary(Arc::new(self.clone()))
    }

    /// The backing text arena (serialization surface; pair with
    /// [`Vocabulary::spans`] and restore via [`Vocabulary::from_parts`]).
    pub fn arena(&self) -> &str {
        &self.arena
    }

    /// The per-id byte ranges into [`Vocabulary::arena`], in id order.
    pub fn spans(&self) -> &[(u32, u32)] {
        &self.spans
    }

    /// Rebuild a vocabulary from a serialized `(arena, spans)` pair plus
    /// the hit/miss counters. The probe table is allocated at its final
    /// size and each term hashed once, in id order; progressive
    /// interning ends at the same size, and each growth rehashes in id
    /// order, so the table comes out slot for slot as it would have.
    ///
    /// Returns `None` when the parts are inconsistent: a span out of
    /// bounds, inverted, off a UTF-8 boundary, or two spans resolving to
    /// the same text (ids are distinct terms by construction).
    pub fn from_parts(
        arena: String,
        spans: Vec<(u32, u32)>,
        hits: u64,
        misses: u64,
    ) -> Option<Self> {
        let mut table = if spans.is_empty() {
            Vec::new()
        } else {
            vec![0u32; slots_for(spans.len())]
        };
        let mask = table.len().wrapping_sub(1);
        for (id, &(start, end)) in spans.iter().enumerate() {
            let term = arena.get(start as usize..end as usize)?;
            let mut idx = (term_hash(term) as usize) & mask;
            while table[idx] != 0 {
                let (s, e) = spans[table[idx] as usize - 1];
                if &arena[s as usize..e as usize] == term {
                    return None;
                }
                idx = (idx + 1) & mask;
            }
            table[idx] = u32::try_from(id + 1).ok()?;
        }
        Some(Self {
            arena,
            spans,
            table,
            hits,
            misses,
        })
    }
}

/// An immutable, cheaply-clonable snapshot of a [`Vocabulary`].
///
/// Produced by [`Vocabulary::freeze`]; dereferences to the read-only
/// half of the vocabulary API. Ids resolved against the frozen view are
/// exactly the ids the source vocabulary had assigned at freeze time
/// (interning is append-only, so ids never change meaning — a frozen
/// view simply does not know about terms interned after it was taken).
/// The default is an empty view, the placeholder vocabulary of an empty
/// forest.
#[derive(Debug, Clone, Default)]
pub struct FrozenVocabulary(Arc<Vocabulary>);

impl Deref for FrozenVocabulary {
    type Target = Vocabulary;

    fn deref(&self) -> &Vocabulary {
        &self.0
    }
}

/// A dense id-indexed map: the drop-in replacement for
/// `HashMap<String, T>` counting tables once keys are interned.
///
/// Storage is a plain `Vec<Option<T>>` indexed by [`TermId`], so lookups
/// are one bounds check and iteration replays in id (= first-interned)
/// order — deterministic by construction, with no sort step and no
/// unordered-map hazard.
#[derive(Debug, Clone)]
pub struct SymTable<T> {
    slots: Vec<Option<T>>,
    filled: usize,
}

impl<T> Default for SymTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SymTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            filled: 0,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// True if no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// True if `id` has an entry.
    pub fn contains(&self, id: TermId) -> bool {
        matches!(self.slots.get(id.index()), Some(Some(_)))
    }

    /// The entry for `id`, if any.
    pub fn get(&self, id: TermId) -> Option<&T> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable entry for `id`, if any.
    pub fn get_mut(&mut self, id: TermId) -> Option<&mut T> {
        self.slots.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// Insert (or replace) the entry for `id`, growing the table as
    /// needed. Returns the previous entry.
    pub fn insert(&mut self, id: TermId, value: T) -> Option<T> {
        if id.index() >= self.slots.len() {
            self.slots.resize_with(id.index() + 1, || None);
        }
        let prev = self.slots[id.index()].replace(value);
        if prev.is_none() {
            self.filled += 1;
        }
        prev
    }

    /// Entry for `id`, inserting `T::default()` first if vacant.
    pub fn get_or_default(&mut self, id: TermId) -> &mut T
    where
        T: Default,
    {
        if id.index() >= self.slots.len() {
            self.slots.resize_with(id.index() + 1, || None);
        }
        let slot = &mut self.slots[id.index()];
        if slot.is_none() {
            *slot = Some(T::default());
            self.filled += 1;
        }
        // lint:allow(panic, reason="slot was just filled above; unwrap cannot fail")
        slot.as_mut().expect("slot just filled")
    }

    /// Iterate over `(TermId, &T)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|t| (TermId(i as u32), t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), TermId(0));
        assert_eq!(v.intern("b"), TermId(1));
        assert_eq!(v.intern("a"), TermId(0));
        assert_eq!(v.intern("c"), TermId(2));
        assert_eq!(v.len(), 3);
        assert_eq!(
            v.stats(),
            InternStats {
                hits: 1,
                misses: 3,
                len: 3
            }
        );
    }

    #[test]
    fn symbols_stable_across_appends() {
        // Id stability: an id assigned early keeps its meaning no matter
        // how many later appends grow (and rehash) the table.
        let mut v = Vocabulary::new();
        let early: Vec<(String, TermId)> = (0..8)
            .map(|k| {
                let t = format!("early{k}");
                let id = v.intern(&t);
                (t, id)
            })
            .collect();
        for k in 0..5000 {
            v.intern(&format!("later term number {k}"));
        }
        for (t, id) in &early {
            assert_eq!(v.get(t), Some(*id));
            assert_eq!(v.term(*id), t.as_str());
        }
        assert_eq!(v.len(), 8 + 5000);
    }

    #[test]
    fn roundtrip_over_generated_corpus() {
        // Proptest-style round trip: for a few thousand generated strings
        // (deterministic LCG, varied lengths, shared prefixes to force
        // probe collisions), intern(term(id)) == id for every id and
        // get(text) agrees with the original assignment.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut v = Vocabulary::new();
        let mut assigned: Vec<(TermId, String)> = Vec::new();
        for _ in 0..3000 {
            let words = 1 + (next() % 3) as usize;
            let t: Vec<String> = (0..words).map(|_| format!("w{}", next() % 800)).collect();
            let t = t.join(" ");
            let id = v.intern(&t);
            assigned.push((id, t));
        }
        for (id, t) in &assigned {
            assert_eq!(v.term(*id), t.as_str());
            assert_eq!(v.get(t), Some(*id), "get must agree for {t:?}");
            // The round trip: re-interning resolved text is a hit on the
            // same id.
            let mut clone = v.clone();
            assert_eq!(clone.intern(clone.term(*id).to_string().as_str()), *id);
        }
        let stats = v.stats();
        assert_eq!(stats.misses as usize, v.len());
        assert_eq!(stats.hits + stats.misses, 3000);
    }

    #[test]
    fn with_capacity_assigns_ids_as_new() {
        let terms: Vec<String> = (0..300).map(|k| format!("t{}", k % 170)).collect();
        for cap in [0, 1, 14, 15, 100, 1000] {
            let mut fresh = Vocabulary::new();
            let mut sized = Vocabulary::with_capacity(cap, cap * 4);
            for t in &terms {
                assert_eq!(sized.intern(t), fresh.intern(t));
            }
            assert_eq!(sized.stats(), fresh.stats());
            assert!(terms.iter().all(|t| sized.get(t) == fresh.get(t)));
        }
    }

    #[test]
    fn empty_and_unseen_lookups() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.get("anything"), None);
        assert_eq!(v.try_term(TermId(0)), None);
    }

    #[test]
    fn iter_in_symbol_order() {
        let mut v = Vocabulary::new();
        v.intern("x");
        v.intern("y");
        let all: Vec<_> = v.iter().map(|(id, t)| (id.0, t.to_string())).collect();
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
        assert_eq!(c.get("x"), Some(x));
    }

    #[test]
    fn frozen_snapshot_isolated_under_concurrent_reads() {
        // Snapshot isolation: readers on a frozen view observe exactly
        // the freeze-time state while the source vocabulary keeps growing
        // on another thread's schedule.
        let mut v = Vocabulary::new();
        let base: Vec<TermId> = (0..100).map(|k| v.intern(&format!("base{k}"))).collect();
        let frozen = v.freeze();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let frozen = frozen.clone();
                let base = &base;
                scope.spawn(move || {
                    for _ in 0..200 {
                        assert_eq!(frozen.len(), 100);
                        for (k, id) in base.iter().enumerate() {
                            assert_eq!(frozen.term(*id), format!("base{k}"));
                        }
                        assert_eq!(frozen.get("later0"), None);
                    }
                });
            }
            // Writer: grow the source underneath the readers.
            scope.spawn(|| {
                for k in 0..500 {
                    v.intern(&format!("later{k}"));
                }
            });
        });
        assert_eq!(frozen.len(), 100, "frozen view never observes growth");
    }

    #[test]
    fn default_frozen_vocabulary_is_empty() {
        let f = FrozenVocabulary::default();
        assert!(f.is_empty());
        assert_eq!(f.get("anything"), None);
    }

    #[test]
    fn sym_table_dense_ops() {
        let mut t: SymTable<u64> = SymTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(TermId(3), 7), None);
        assert_eq!(t.insert(TermId(3), 9), Some(7));
        *t.get_or_default(TermId(1)) += 5;
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(TermId(3)), Some(&9));
        assert_eq!(t.get(TermId(0)), None);
        assert!(t.contains(TermId(1)));
        // Iteration is in id order, not insertion order.
        let all: Vec<_> = t.iter().map(|(id, &v)| (id.0, v)).collect();
        assert_eq!(all, vec![(1, 5), (3, 9)]);
    }

    #[test]
    fn stats_hit_rate() {
        let mut v = Vocabulary::new();
        v.intern("a");
        v.intern("a");
        v.intern("a");
        v.intern("b");
        let s = v.stats();
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(InternStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let mut live = Vocabulary::new();
        // Enough terms to force several table growths.
        for i in 0..100 {
            live.intern(&format!("term {i}"));
        }
        live.intern("term 5");
        let restored = Vocabulary::from_parts(
            live.arena().to_string(),
            live.spans().to_vec(),
            live.stats().hits,
            live.stats().misses,
        )
        .expect("valid parts restore");
        assert_eq!(restored.stats(), live.stats());
        for (id, term) in live.iter() {
            assert_eq!(restored.term(id), term);
            assert_eq!(restored.get(term), Some(id));
        }
        // The rebuilt probe table matches the live one's growth history,
        // so continued interning behaves identically.
        let mut a = live.clone();
        let mut b = restored;
        for i in 0..50 {
            assert_eq!(
                a.intern(&format!("late {i}")),
                b.intern(&format!("late {i}"))
            );
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.table, b.table);
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        // Span past the arena end.
        assert!(Vocabulary::from_parts("ab".into(), vec![(0, 3)], 0, 0).is_none());
        // Inverted span.
        assert!(Vocabulary::from_parts("ab".into(), vec![(2, 1)], 0, 0).is_none());
        // Span off a UTF-8 boundary.
        assert!(Vocabulary::from_parts("é".into(), vec![(0, 1)], 0, 0).is_none());
        // Two ids with identical text.
        assert!(Vocabulary::from_parts("aa".into(), vec![(0, 1), (1, 2)], 0, 0).is_none());
        // A well-formed empty vocabulary restores.
        assert!(Vocabulary::from_parts(String::new(), Vec::new(), 0, 0).is_some());
    }
}
