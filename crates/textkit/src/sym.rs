//! The global arena-backed term interner.
//!
//! Every layer of the system — pipeline, index, resource caches —
//! speaks [`Sym`]: a dense `u32` symbol handed out by an [`Interner`] in
//! first-seen order. Term text lives once, in a single contiguous byte
//! arena, and a deterministic open-addressing table maps text → symbol,
//! so interning never allocates per term on the hit path and symbol
//! assignment depends only on the sequence of `intern` calls (no
//! `RandomState`, no pointer identity).
//!
//! Three companion types round out the substrate:
//!
//! * [`FrozenInterner`] — an immutable, cheaply clonable snapshot for
//!   lock-free read paths (mirroring `FrozenVocabulary`),
//! * [`SymTable`] — a dense symbol-indexed map replacing `HashMap<String,
//!   T>` counting tables; iteration is in symbol order by construction,
//!   so it *removes* unordered-map-iteration hazards instead of
//!   sanctioning them,
//! * [`InternStats`] — hit/miss/len counters surfaced as `intern.{hits,
//!   misses,len}` observability metrics by the index layers.
//!
//! Symbols are append-only: once assigned, a symbol's meaning never
//! changes, which is what lets frozen snapshots and dense frequency
//! vectors share ids without coordination.

use std::sync::Arc;

/// A dense symbol for an interned term. Valid only with respect to the
/// [`Interner`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The symbol as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interner observability counters: how often `intern` was answered from
/// the table (`hits`) vs. appended a new symbol (`misses`), and how many
/// distinct symbols exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InternStats {
    /// `intern` calls answered by an existing symbol.
    pub hits: u64,
    /// `intern` calls that appended a new symbol.
    pub misses: u64,
    /// Distinct symbols interned so far.
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

/// FNV-1a over the term bytes: deterministic across processes and runs,
/// unlike `std`'s seeded `RandomState`.
#[inline]
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An append-only arena interner mapping term strings to dense [`Sym`]s.
///
/// ```
/// use facet_textkit::Interner;
/// let mut interner = Interner::new();
/// let s = interner.intern("political leaders");
/// assert_eq!(interner.intern("political leaders"), s);
/// assert_eq!(interner.resolve(s), "political leaders");
/// ```
///
/// All term text is stored once in a single byte arena (`String`), with a
/// span table per symbol — no per-term `String` allocations, and resolving
/// a symbol is two array reads. The hash table uses open addressing with
/// linear probing over FNV-1a, so the structure is fully deterministic:
/// the same sequence of `intern` calls always produces the same symbols
/// and the same memory layout.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Concatenated UTF-8 text of every interned term.
    arena: String,
    /// Byte range of each symbol's text within `arena`.
    spans: Vec<(u32, u32)>,
    /// Open-addressing table: `0` is empty, otherwise `sym.0 + 1`.
    table: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with capacity for about `n` terms.
    pub fn with_capacity(n: usize) -> Self {
        let table_len = (n * 8 / 7 + 1).next_power_of_two().max(16);
        Self {
            arena: String::new(),
            spans: Vec::with_capacity(n),
            table: vec![0; table_len],
            hits: 0,
            misses: 0,
        }
    }

    /// Probe the table for `term` under `hash`.
    fn lookup_hashed(&self, term: &str, hash: u64) -> Option<Sym> {
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
            let sym = Sym(slot - 1);
            if self.span_text(sym) == term {
                return Some(sym);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Insert `sym` (already appended to the arena) into the table.
    fn insert_hashed(table: &mut [u32], sym: Sym, hash: u64) {
        let mask = table.len() - 1;
        let mut idx = (hash as usize) & mask;
        while table[idx] != 0 {
            idx = (idx + 1) & mask;
        }
        table[idx] = sym.0 + 1;
    }

    /// Grow the table when load would exceed 7/8 and rehash every symbol.
    fn grow_if_needed(&mut self) {
        if (self.spans.len() + 1) * 8 <= self.table.len() * 7 {
            return;
        }
        let new_len = (self.table.len() * 2).max(16);
        let mut table = vec![0u32; new_len];
        for i in 0..self.spans.len() {
            let sym = Sym(i as u32);
            Self::insert_hashed(&mut table, sym, fnv1a(self.span_text(sym)));
        }
        self.table = table;
    }

    #[inline]
    fn span_text(&self, sym: Sym) -> &str {
        let (start, end) = self.spans[sym.index()];
        &self.arena[start as usize..end as usize]
    }

    /// Intern `term`, returning its symbol (allocating a new one if
    /// unseen). Counts a hit or miss in [`Interner::stats`].
    pub fn intern(&mut self, term: &str) -> Sym {
        let hash = fnv1a(term);
        if let Some(sym) = self.lookup_hashed(term, hash) {
            self.hits += 1;
            return sym;
        }
        self.misses += 1;
        self.grow_if_needed();
        // lint:allow(panic, reason="u32 symbol-space exhaustion (>4B distinct terms) is unrecoverable and unreachable for supported corpora")
        let id = u32::try_from(self.spans.len()).expect("interner symbol space exhausted");
        // lint:allow(panic, reason="4 GiB of distinct term text is unreachable for supported corpora and unrecoverable if hit")
        let start = u32::try_from(self.arena.len()).expect("interner arena exhausted");
        self.arena.push_str(term);
        // lint:allow(panic, reason="4 GiB of distinct term text is unreachable for supported corpora and unrecoverable if hit")
        let end = u32::try_from(self.arena.len()).expect("interner arena exhausted");
        self.spans.push((start, end));
        let sym = Sym(id);
        Self::insert_hashed(&mut self.table, sym, hash);
        sym
    }

    /// Look up an already-interned term without allocating or counting.
    pub fn get(&self, term: &str) -> Option<Sym> {
        self.lookup_hashed(term, fnv1a(term))
    }

    /// Resolve a symbol back to its term text.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.span_text(sym)
    }

    /// Resolve a symbol if it is valid for this interner.
    pub fn try_resolve(&self, sym: Sym) -> Option<&str> {
        if sym.index() < self.spans.len() {
            Some(self.span_text(sym))
        } else {
            None
        }
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterate over `(Sym, &str)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.spans.len()).map(|i| {
            let sym = Sym(i as u32);
            (sym, self.span_text(sym))
        })
    }

    /// Hit/miss/len counters so far.
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
    /// affect it, and every clone of the returned [`FrozenInterner`]
    /// shares one allocation.
    pub fn freeze(&self) -> FrozenInterner {
        FrozenInterner {
            inner: Arc::new(self.clone()),
        }
    }

    /// The backing text arena (serialization surface; pair with
    /// [`Interner::spans`] and restore via [`Interner::from_parts`]).
    pub fn arena(&self) -> &str {
        &self.arena
    }

    /// The per-symbol byte ranges into [`Interner::arena`], in symbol
    /// order.
    pub fn spans(&self) -> &[(u32, u32)] {
        &self.spans
    }

    /// Rebuild an interner from a serialized `(arena, spans)` pair plus
    /// the hit/miss counters, rehashing every span to reconstruct the
    /// probe table exactly as progressive interning would have.
    ///
    /// Returns `None` when the parts are inconsistent: a span out of
    /// bounds, inverted, off a UTF-8 boundary, or two spans resolving to
    /// the same text (symbols are distinct terms by construction).
    pub fn from_parts(
        arena: String,
        spans: Vec<(u32, u32)>,
        hits: u64,
        misses: u64,
    ) -> Option<Self> {
        for &(start, end) in &spans {
            let (s, e) = (start as usize, end as usize);
            if s > e || e > arena.len() || !arena.is_char_boundary(s) || !arena.is_char_boundary(e)
            {
                return None;
            }
        }
        let text = |i: usize| -> &str {
            let (start, end) = spans[i];
            &arena[start as usize..end as usize]
        };
        // Replay intern()'s growth sequence (double at 7/8 load, checked
        // before each insert) so the table size — and therefore future
        // growth points — matches a live interner that interned the same
        // terms in the same order.
        let mut table: Vec<u32> = Vec::new();
        for i in 0..spans.len() {
            if (i + 1) * 8 > table.len() * 7 {
                let mut grown = vec![0u32; (table.len() * 2).max(16)];
                for j in 0..i {
                    Self::insert_hashed(&mut grown, Sym(j as u32), fnv1a(text(j)));
                }
                table = grown;
            }
            let hash = fnv1a(text(i));
            let mask = table.len() - 1;
            let mut idx = (hash as usize) & mask;
            loop {
                let slot = table[idx];
                if slot == 0 {
                    break;
                }
                if text((slot - 1) as usize) == text(i) {
                    return None;
                }
                idx = (idx + 1) & mask;
            }
            table[idx] = i as u32 + 1;
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

/// An immutable, cheaply-clonable snapshot of an [`Interner`].
///
/// Produced by [`Interner::freeze`]; exposes the read-only half of the
/// interner API. Symbols resolved against the frozen view are exactly the
/// symbols the source interner had assigned at freeze time (interning is
/// append-only, so symbols never change meaning — a frozen view simply
/// does not know about terms interned after it was taken).
#[derive(Debug, Clone)]
pub struct FrozenInterner {
    inner: Arc<Interner>,
}

impl Default for FrozenInterner {
    fn default() -> Self {
        Self {
            inner: Arc::new(Interner::default()),
        }
    }
}

impl FrozenInterner {
    /// Look up an interned term.
    pub fn get(&self, term: &str) -> Option<Sym> {
        self.inner.get(term)
    }

    /// Resolve a symbol back to its term text.
    ///
    /// # Panics
    /// Panics if `sym` was interned after this snapshot was frozen (or
    /// belongs to a different interner).
    pub fn resolve(&self, sym: Sym) -> &str {
        self.inner.resolve(sym)
    }

    /// Resolve a symbol if it is valid for this snapshot.
    pub fn try_resolve(&self, sym: Sym) -> Option<&str> {
        self.inner.try_resolve(sym)
    }

    /// Number of symbols known to this snapshot.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if the snapshot holds no symbols.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterate over `(Sym, &str)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.inner.iter()
    }

    /// Counters at freeze time.
    pub fn stats(&self) -> InternStats {
        self.inner.stats()
    }

    /// A full read-only view of the underlying interner, for APIs that
    /// take `&Interner`.
    pub fn as_interner(&self) -> &Interner {
        &self.inner
    }
}

/// A dense symbol-indexed map: the drop-in replacement for
/// `HashMap<String, T>` counting tables once keys are interned.
///
/// Storage is a plain `Vec<Option<T>>` indexed by [`Sym`], so lookups are
/// one bounds check and iteration replays in symbol (= first-interned)
/// order — deterministic by construction, with no sort step and no
/// unordered-map hazard.
#[derive(Debug, Clone, Default)]
pub struct SymTable<T> {
    slots: Vec<Option<T>>,
    filled: usize,
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

    /// True if `sym` has an entry.
    pub fn contains(&self, sym: Sym) -> bool {
        matches!(self.slots.get(sym.index()), Some(Some(_)))
    }

    /// The entry for `sym`, if any.
    pub fn get(&self, sym: Sym) -> Option<&T> {
        self.slots.get(sym.index()).and_then(Option::as_ref)
    }

    /// Mutable entry for `sym`, if any.
    pub fn get_mut(&mut self, sym: Sym) -> Option<&mut T> {
        self.slots.get_mut(sym.index()).and_then(Option::as_mut)
    }

    /// Insert (or replace) the entry for `sym`, growing the table as
    /// needed. Returns the previous entry.
    pub fn insert(&mut self, sym: Sym, value: T) -> Option<T> {
        if sym.index() >= self.slots.len() {
            self.slots.resize_with(sym.index() + 1, || None);
        }
        let prev = self.slots[sym.index()].replace(value);
        if prev.is_none() {
            self.filled += 1;
        }
        prev
    }

    /// Entry for `sym`, inserting `T::default()` first if vacant.
    pub fn get_or_default(&mut self, sym: Sym) -> &mut T
    where
        T: Default,
    {
        if sym.index() >= self.slots.len() {
            self.slots.resize_with(sym.index() + 1, || None);
        }
        let slot = &mut self.slots[sym.index()];
        if slot.is_none() {
            *slot = Some(T::default());
            self.filled += 1;
        }
        // lint:allow(panic, reason="slot was just filled above; unwrap cannot fail")
        slot.as_mut().expect("slot just filled")
    }

    /// Iterate over `(Sym, &T)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|t| (Sym(i as u32), t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), Sym(0));
        assert_eq!(i.intern("b"), Sym(1));
        assert_eq!(i.intern("a"), Sym(0));
        assert_eq!(i.intern("c"), Sym(2));
        assert_eq!(i.len(), 3);
        assert_eq!(
            i.stats(),
            InternStats {
                hits: 1,
                misses: 3,
                len: 3
            }
        );
    }

    #[test]
    fn symbols_stable_across_appends() {
        // Symbol stability: a symbol assigned early keeps its meaning no
        // matter how many later appends grow (and rehash) the table.
        let mut i = Interner::new();
        let early: Vec<(String, Sym)> = (0..8)
            .map(|k| {
                let t = format!("early{k}");
                let s = i.intern(&t);
                (t, s)
            })
            .collect();
        for k in 0..5000 {
            i.intern(&format!("later term number {k}"));
        }
        for (t, s) in &early {
            assert_eq!(i.get(t), Some(*s));
            assert_eq!(i.resolve(*s), t.as_str());
        }
        assert_eq!(i.len(), 8 + 5000);
    }

    #[test]
    fn roundtrip_over_generated_corpus() {
        // Proptest-style round trip: for a few thousand generated strings
        // (deterministic LCG, varied lengths, shared prefixes to force
        // probe collisions), intern(resolve(s)) == s for every symbol and
        // get(text) agrees with the original assignment.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut i = Interner::new();
        let mut assigned: Vec<(Sym, String)> = Vec::new();
        for _ in 0..3000 {
            let words = 1 + (next() % 3) as usize;
            let t: Vec<String> = (0..words).map(|_| format!("w{}", next() % 800)).collect();
            let t = t.join(" ");
            let s = i.intern(&t);
            assigned.push((s, t));
        }
        for (s, t) in &assigned {
            assert_eq!(i.resolve(*s), t.as_str());
            assert_eq!(i.get(t), Some(*s), "get must agree for {t:?}");
            // The round trip: re-interning resolved text is a hit on the
            // same symbol.
            let mut clone = i.clone();
            assert_eq!(clone.intern(clone.resolve(*s).to_string().as_str()), *s);
        }
        let stats = i.stats();
        assert_eq!(stats.misses as usize, i.len());
        assert_eq!(stats.hits + stats.misses, 3000);
    }

    #[test]
    fn empty_and_unseen_lookups() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.get("anything"), None);
        assert_eq!(i.try_resolve(Sym(0)), None);
    }

    #[test]
    fn iter_in_symbol_order() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let all: Vec<_> = i.iter().map(|(s, t)| (s.0, t.to_string())).collect();
        assert_eq!(all, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }

    #[test]
    fn frozen_snapshot_isolated_under_concurrent_reads() {
        // Snapshot isolation: readers on a frozen view observe exactly
        // the freeze-time state while the source interner keeps growing
        // on another thread's schedule.
        let mut i = Interner::new();
        let base: Vec<Sym> = (0..100).map(|k| i.intern(&format!("base{k}"))).collect();
        let frozen = i.freeze();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let frozen = frozen.clone();
                let base = &base;
                scope.spawn(move || {
                    for _ in 0..200 {
                        assert_eq!(frozen.len(), 100);
                        for (k, s) in base.iter().enumerate() {
                            assert_eq!(frozen.resolve(*s), format!("base{k}"));
                        }
                        assert_eq!(frozen.get("later0"), None);
                    }
                });
            }
            // Writer: grow the source underneath the readers.
            scope.spawn(|| {
                for k in 0..500 {
                    i.intern(&format!("later{k}"));
                }
            });
        });
        assert_eq!(frozen.len(), 100, "frozen view never observes growth");
    }

    #[test]
    fn sym_table_dense_ops() {
        let mut t: SymTable<u64> = SymTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(Sym(3), 7), None);
        assert_eq!(t.insert(Sym(3), 9), Some(7));
        *t.get_or_default(Sym(1)) += 5;
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(Sym(3)), Some(&9));
        assert_eq!(t.get(Sym(0)), None);
        assert!(t.contains(Sym(1)));
        // Iteration is in symbol order, not insertion order.
        let all: Vec<_> = t.iter().map(|(s, &v)| (s.0, v)).collect();
        assert_eq!(all, vec![(1, 5), (3, 9)]);
    }

    #[test]
    fn stats_hit_rate() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("a");
        i.intern("a");
        i.intern("b");
        let s = i.stats();
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(InternStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let mut live = Interner::new();
        // Enough terms to force several table growths.
        for i in 0..100 {
            live.intern(&format!("term {i}"));
        }
        live.intern("term 5");
        let restored = Interner::from_parts(
            live.arena().to_string(),
            live.spans().to_vec(),
            live.stats().hits,
            live.stats().misses,
        )
        .expect("valid parts restore");
        assert_eq!(restored.stats(), live.stats());
        for (sym, term) in live.iter() {
            assert_eq!(restored.resolve(sym), term);
            assert_eq!(restored.get(term), Some(sym));
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
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        // Span past the arena end.
        assert!(Interner::from_parts("ab".into(), vec![(0, 3)], 0, 0).is_none());
        // Inverted span.
        assert!(Interner::from_parts("ab".into(), vec![(2, 1)], 0, 0).is_none());
        // Span off a UTF-8 boundary.
        assert!(Interner::from_parts("é".into(), vec![(0, 1)], 0, 0).is_none());
        // Two symbols with identical text.
        assert!(Interner::from_parts("aa".into(), vec![(0, 1), (1, 2)], 0, 0).is_none());
        // A well-formed empty interner restores.
        assert!(Interner::from_parts(String::new(), Vec::new(), 0, 0).is_some());
    }
}
