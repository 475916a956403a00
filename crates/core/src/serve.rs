//! The snapshot serving tier: browse over the published snapshot's
//! engine and a query-signature cache.
//!
//! [`crate::shard::ShardedFacetIndex`] publishes one merged
//! [`FacetSnapshot`] per append or repair. The snapshot carries its
//! [`crate::browse::BrowseEngine`]: sorted postings for every facet term,
//! gathered from the index's per-term postings at publish. The serving
//! tier puts a cache and a publication point in front of it:
//!
//! * **One browse path.** [`fanout_browse`] answers a query through the
//!   engine: it intersects the selected facet terms' postings smallest
//!   first and counts each refinement candidate's postings against the
//!   result. The candidates are fixed by the forest — the children of
//!   the first selected label that names a forest node, or the facet
//!   roots — and a label that names no facet term matches nothing.
//!   Matching documents are ids, ascending, so the answer is the same
//!   for every worker count and arrival order.
//! * **Query-signature cache.** [`ServeHandle::browse`] hashes the
//!   normalized query terms — keyed by [`TermId`] through the snapshot's
//!   frozen vocabulary — together with the snapshot generation, and serves
//!   repeated queries from the cached [`BrowseResult`] with zero
//!   re-selection. A generation bump (append or repair) invalidates by
//!   construction: old-generation entries can never match a new-
//!   generation signature and are pruned at publish.
//!
//! Concurrency: one `RwLock` guards the single atomic publication point
//! (the current [`ServeSnapshot`]) and one `Mutex` guards the cache.
//! Both are sanctioned sites in `Lint.toml` (`core::serve`), with
//! cross-thread interleaving covered by this module's tests and
//! `tests/serving.rs`.

use crate::index::{AppendStats, FacetSnapshot, IndexError, RepairStats};
use crate::shard::ShardedFacetIndex;
use facet_corpus::Document;
use facet_obs::Recorder;
use facet_textkit::{Fnv1a, FrozenVocabulary, TermId};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One published serving generation: the merged global snapshot, whose
/// browse engine answers every query.
///
/// This is the single atomic publication point — readers obtain it in
/// one `Arc` clone, so a browse never mixes the forest of one generation
/// with the postings of another.
#[derive(Debug)]
pub struct ServeSnapshot {
    merged: Arc<FacetSnapshot>,
}

impl ServeSnapshot {
    /// The index generation this snapshot serves.
    pub fn generation(&self) -> u64 {
        self.merged.generation()
    }

    /// The merged global snapshot (forest, vocabulary, candidates).
    pub fn merged(&self) -> &Arc<FacetSnapshot> {
        &self.merged
    }

    /// Total documents in the snapshot.
    pub fn n_docs(&self) -> usize {
        self.merged.n_docs()
    }
}

/// One served browse answer: the matching documents and the refinement
/// counts a faceted UI renders, at one generation.
///
/// Equality is structural; [`BrowseResult::canonical`] renders the
/// deterministic byte representation used by the cached-vs-uncached
/// identity checks and the load bench's run digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrowseResult {
    /// The generation of the snapshot that answered the query.
    pub generation: u64,
    /// The normalized query (lowercased, sorted, distinct).
    pub query: Vec<String>,
    /// Global ids of the matching documents, ascending.
    pub docs: Vec<u32>,
    /// Refinement `(label, count)` pairs: for each candidate narrowing
    /// term, how many matching documents carry it — sorted by count
    /// descending then label ascending, zero-count candidates omitted
    /// (the [`crate::browse::BrowseEngine::refinements`] discipline).
    pub refinements: Vec<(String, u64)>,
}

impl BrowseResult {
    /// Number of matching documents.
    pub fn total(&self) -> usize {
        self.docs.len()
    }

    /// The canonical byte rendering: two results are byte-identical
    /// here exactly when they are equal.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "generation={}\nquery=", self.generation);
        for (i, q) in self.query.iter().enumerate() {
            if i > 0 {
                out.push('\u{1f}');
            }
            out.push_str(q);
        }
        let _ = write!(out, "\ntotal={}\ndocs=", self.docs.len());
        for (i, d) in self.docs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{d}");
        }
        out.push('\n');
        for (label, count) in &self.refinements {
            let _ = writeln!(out, "refine\t{label}\t{count}");
        }
        out
    }
}

/// Normalize a query: trim, lowercase, drop empties, sort, dedup. Two
/// queries with the same normalization are the same cache entry.
pub fn normalize_query(query: &[&str]) -> Vec<String> {
    let mut terms: Vec<String> = query
        .iter()
        .map(|q| q.trim().to_lowercase())
        .filter(|q| !q.is_empty())
        .collect();
    terms.sort_unstable();
    terms.dedup();
    terms
}

/// The query signature: FNV-1a over the snapshot generation and the
/// normalized terms keyed by [`TermId`] through the frozen vocabulary
/// (terms unknown to the snapshot hash their bytes under a distinct
/// tag, so "known id 7" can never collide with an unknown string).
fn signature(generation: u64, normalized: &[String], vocab: &FrozenVocabulary) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(&generation.to_le_bytes());
    for term in normalized {
        match vocab.get(term) {
            Some(id) => hash.write(&[0x01]).write(&id.0.to_le_bytes()),
            None => hash.write(&[0x00]).write(term.as_bytes()).write(&[0xff]),
        };
    }
    hash.finish()
}

/// Answer a query through the snapshot's browse engine, bypassing the
/// cache.
///
/// The query is normalized ([`normalize_query`]). Every label must name a
/// facet term, or nothing matches: no documents and no refinements. The
/// refinement candidates are the children of the first selected label's
/// forest node, or the facet roots for the empty selection, in the
/// forest's order; each counts the matching documents carrying it.
/// Refinements are ordered count descending, label ascending, with zero
/// counts omitted (the [`crate::browse::BrowseEngine::refinements`]
/// rule).
pub fn fanout_browse(snapshot: &ServeSnapshot, query: &[&str]) -> BrowseResult {
    fanout_browse_normalized(snapshot, normalize_query(query))
}

fn fanout_browse_normalized(snapshot: &ServeSnapshot, normalized: Vec<String>) -> BrowseResult {
    let engine = snapshot.merged.browse();
    // A vocabulary term outside the forest has no postings, so it
    // selects nothing, like a label the vocabulary never saw.
    let selection: Option<Vec<TermId>> = normalized
        .iter()
        .map(|l| snapshot.merged.vocab().get(l))
        .collect();
    let (docs, refinements) = match selection {
        Some(selection) => {
            let docs = engine.select(&selection);
            let node = normalized.first().and_then(|l| engine.forest().find(l));
            let refinements = engine
                .refinements_within(&docs, node)
                .into_iter()
                .map(|(_, label, count)| (label, count as u64))
                .collect();
            (docs.into_iter().map(|d| d.0).collect(), refinements)
        }
        None => (Vec::new(), Vec::new()),
    };
    BrowseResult {
        generation: snapshot.generation(),
        query: normalized,
        docs,
        refinements,
    }
}

/// Cache counters, cumulative since the server was built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeCacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that fell through to a fan-out browse.
    pub misses: u64,
    /// Entries dropped by the FIFO capacity bound.
    pub evictions: u64,
    /// Entries dropped because a publish moved the generation past them.
    pub invalidations: u64,
    /// Entries currently resident.
    pub len: usize,
}

/// Cached results with the full normalized query each answers (the
/// collision guard: a signature match alone is not an answer).
type CacheBucket = Vec<(Vec<String>, Arc<BrowseResult>)>;

/// The query-signature cache. Keyed `(generation, signature)` in a
/// `BTreeMap` so pruning old generations is a deterministic range
/// split; each bucket stores the full normalized query alongside the
/// result, so a signature collision degrades to a miss instead of a
/// wrong answer. FIFO-bounded.
#[derive(Debug)]
struct QueryCache {
    entries: BTreeMap<(u64, u64), CacheBucket>,
    order: VecDeque<(u64, u64)>,
    capacity: usize,
    stats: ServeCacheStats,
}

impl QueryCache {
    fn new(capacity: usize) -> Self {
        Self {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            stats: ServeCacheStats::default(),
        }
    }

    fn lookup(&mut self, generation: u64, sig: u64, key: &[String]) -> Option<Arc<BrowseResult>> {
        let found = self
            .entries
            .get(&(generation, sig))
            .and_then(|bucket| bucket.iter().find(|(k, _)| k == key))
            .map(|(_, r)| Arc::clone(r));
        match &found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    fn insert(&mut self, generation: u64, sig: u64, key: Vec<String>, result: Arc<BrowseResult>) {
        let bucket = self.entries.entry((generation, sig)).or_default();
        if bucket.iter().any(|(k, _)| *k == key) {
            return; // two racing misses computed the same entry
        }
        if bucket.is_empty() {
            self.order.push_back((generation, sig));
        }
        bucket.push((key, result));
        self.stats.len += 1;
        while self.stats.len > self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(bucket) = self.entries.remove(&oldest) {
                self.stats.len -= bucket.len();
                self.stats.evictions += bucket.len() as u64;
            }
        }
    }

    /// Drop every entry below `generation` (publish-time invalidation).
    fn prune_below(&mut self, generation: u64) {
        let keep = self.entries.split_off(&(generation, 0));
        let stale = std::mem::replace(&mut self.entries, keep);
        if stale.is_empty() {
            return;
        }
        let dropped: usize = stale.values().map(Vec::len).sum();
        self.stats.len -= dropped;
        self.stats.invalidations += dropped as u64;
        self.order.retain(|k| k.0 >= generation);
    }
}

#[derive(Debug)]
struct ServeShared {
    current: RwLock<Arc<ServeSnapshot>>,
    cache: Mutex<QueryCache>,
    recorder: Recorder,
}

/// A cheap, clonable, thread-safe reader handle onto a [`FacetServer`].
///
/// Handles stay valid for the life of the shared state (they hold an
/// `Arc`), independent of the server's lifetime parameter — spawn them
/// across reader threads freely.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    shared: Arc<ServeShared>,
}

impl ServeHandle {
    /// The currently published serving snapshot: one `Arc` clone under
    /// a short read lock. Pin it to compare cached and uncached answers
    /// at one generation.
    pub fn snapshot(&self) -> Arc<ServeSnapshot> {
        self.shared.current.read().clone()
    }

    /// The published generation.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }

    /// Cumulative cache counters.
    pub fn cache_stats(&self) -> ServeCacheStats {
        self.shared.cache.lock().stats
    }

    /// Answer a query through the signature cache: a repeat of a
    /// normalized query at an unchanged generation returns the cached
    /// result with zero re-selection. Records `serve.hit` /
    /// `serve.miss` counters and `serve.{hit,miss}_us` latency
    /// histograms on the server's recorder.
    pub fn browse(&self, query: &[&str]) -> Arc<BrowseResult> {
        let normalized = normalize_query(query);
        let snapshot = self.snapshot();
        let generation = snapshot.generation();
        let sig = signature(generation, &normalized, snapshot.merged.vocab());
        let hit_hist = self.shared.recorder.histogram("serve.hit_us");
        let cached = hit_hist.time_if(|| {
            self.shared
                .cache
                .lock()
                .lookup(generation, sig, &normalized)
        });
        if let Some(result) = cached {
            self.shared.recorder.incr("serve.hit");
            return result;
        }
        self.shared.recorder.incr("serve.miss");
        self.shared.recorder.incr("serve.fanout");
        let miss_hist = self.shared.recorder.histogram("serve.miss_us");
        let result =
            Arc::new(miss_hist.time_if(|| fanout_browse_normalized(&snapshot, normalized.clone())));
        self.shared
            .cache
            .lock()
            .insert(generation, sig, normalized, Arc::clone(&result));
        result
    }

    /// Answer a query by a fresh browse over the current snapshot,
    /// never touching the cache (the re-selection path the
    /// cache is measured against). Records `serve.fanout`.
    pub fn browse_uncached(&self, query: &[&str]) -> BrowseResult {
        self.shared.recorder.incr("serve.fanout");
        fanout_browse(&self.snapshot(), query)
    }
}

/// The serving tier over a [`ShardedFacetIndex`]: owns the writer,
/// republishes the index's snapshot after each append/repair, and hands
/// out [`ServeHandle`]s for concurrent readers.
pub struct FacetServer<'a> {
    index: ShardedFacetIndex<'a>,
    shared: Arc<ServeShared>,
}

impl<'a> FacetServer<'a> {
    /// Wrap an index, publishing its current state. Cache capacity
    /// defaults to 4096 entries (FIFO).
    pub fn new(index: ShardedFacetIndex<'a>) -> Self {
        Self::with_cache_capacity(index, 4096)
    }

    /// Wrap an index with an explicit cache capacity (clamped ≥ 1).
    pub fn with_cache_capacity(index: ShardedFacetIndex<'a>, capacity: usize) -> Self {
        let recorder = index.recorder().clone();
        let snapshot = Arc::new(ServeSnapshot {
            merged: index.snapshot(),
        });
        Self {
            index,
            shared: Arc::new(ServeShared {
                current: RwLock::new(snapshot),
                cache: Mutex::new(QueryCache::new(capacity)),
                recorder,
            }),
        }
    }

    /// A reader handle; clone freely across threads.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The wrapped index (read-only).
    pub fn index(&self) -> &ShardedFacetIndex<'a> {
        &self.index
    }

    /// The currently published serving snapshot.
    pub fn snapshot(&self) -> Arc<ServeSnapshot> {
        self.shared.current.read().clone()
    }

    /// Append a batch through the index, then republish its snapshot.
    /// Cache entries of older generations are pruned.
    ///
    /// # Errors
    /// Propagates [`IndexError`] from the index; the published serving
    /// snapshot is left untouched on error.
    pub fn append(&mut self, batch: Vec<Document>) -> Result<AppendStats, IndexError> {
        let stats = self.index.append(batch)?;
        self.republish();
        Ok(stats)
    }

    /// Run a repair pass through the index. A pass that re-queried
    /// nothing publishes nothing; otherwise the repaired snapshot is
    /// republished and old cache generations are pruned.
    ///
    /// # Errors
    /// Propagates [`IndexError`] from the index; the published serving
    /// snapshot is left untouched on error.
    pub fn repair(&mut self) -> Result<RepairStats, IndexError> {
        let stats = self.index.repair()?;
        if stats.requeried_terms > 0 {
            self.republish();
        }
        Ok(stats)
    }

    /// Swap in a crash-recovered index (see [`crate::persist`]) behind
    /// the live reader handles. The recovered index's generation must be
    /// at or past the published one — determinism makes equal
    /// generations equal content, so readers can only move forward —
    /// and the swap publishes its snapshot and prunes cache entries of
    /// older generations, exactly like an append's publish.
    /// Records `serve.reopen`.
    ///
    /// This is a sanctioned publication point (`Lint.toml` C2); the
    /// cross-thread interleaving is covered by the unit test
    /// `reopen_swaps_behind_live_readers`.
    ///
    /// # Errors
    /// [`IndexError::StaleReopen`] when the recovered generation is
    /// older than the published one; the published snapshot, the cache,
    /// and the wrapped index are all left untouched.
    pub fn reopen(&mut self, recovered: ShardedFacetIndex<'a>) -> Result<u64, IndexError> {
        let published = self.shared.current.read().generation();
        let generation = recovered.snapshot().generation();
        if generation < published {
            return Err(IndexError::StaleReopen {
                published,
                recovered: generation,
            });
        }
        self.index = recovered;
        let snapshot = Arc::new(ServeSnapshot {
            merged: self.index.snapshot(),
        });
        *self.shared.current.write() = snapshot;
        self.shared.cache.lock().prune_below(generation);
        self.shared.recorder.incr("serve.reopen");
        Ok(generation)
    }

    fn republish(&self) {
        let snapshot = Arc::new(ServeSnapshot {
            merged: self.index.snapshot(),
        });
        let generation = snapshot.generation();
        *self.shared.current.write() = snapshot;
        self.shared.cache.lock().prune_below(generation);
        self.shared.recorder.incr("serve.publish");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineOptions;
    use facet_corpus::DocId;
    use facet_resources::ContextResource;
    use facet_termx::TermExtractor;
    use std::collections::HashMap;

    struct FixedExtractor;
    impl TermExtractor for FixedExtractor {
        fn name(&self) -> &'static str {
            "Fixed"
        }
        fn extract(&self, text: &str) -> Vec<String> {
            let mut out = Vec::new();
            for entity in ["jacques chirac", "angela merkel", "tony blair"] {
                let needle: String = entity
                    .split(' ')
                    .map(|w| {
                        let mut c = w.chars();
                        c.next()
                            .map(|f| f.to_uppercase().to_string())
                            .unwrap_or_default()
                            + c.as_str()
                    })
                    .collect::<Vec<_>>()
                    .join(" ");
                if text.contains(&needle) {
                    out.push(entity.to_string());
                }
            }
            out
        }
    }

    struct FixedResource(HashMap<&'static str, Vec<&'static str>>);
    impl FixedResource {
        fn new() -> Self {
            let mut map = HashMap::new();
            map.insert("jacques chirac", vec!["political leaders", "france"]);
            map.insert("angela merkel", vec!["political leaders", "germany"]);
            map.insert("tony blair", vec!["political leaders", "britain"]);
            Self(map)
        }
    }
    impl ContextResource for FixedResource {
        fn name(&self) -> &'static str {
            "Fixed"
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            self.0
                .get(term)
                .map(|v| v.iter().map(|s| s.to_string()).collect())
                .unwrap_or_default()
        }
    }

    fn corpus(n: usize) -> Vec<Document> {
        let texts = [
            "Jacques Chirac discussed matters with advisers in the capital.",
            "Angela Merkel spoke with ministers about the budget.",
            "Tony Blair met union leaders over the strike.",
            "Jacques Chirac and Angela Merkel held a joint summit briefing.",
        ];
        (0..n)
            .map(|i| Document {
                id: DocId(i as u32),
                source: 0,
                day: 0,
                title: "Story".into(),
                text: texts[i % texts.len()].into(),
            })
            .collect()
    }

    fn options() -> PipelineOptions {
        PipelineOptions {
            top_k: 20,
            ..Default::default()
        }
    }

    fn server<'a>(
        n: usize,
        docs: usize,
        e: &'a FixedExtractor,
        r: &'a FixedResource,
    ) -> FacetServer<'a> {
        let index = ShardedFacetIndex::build(corpus(docs), n, vec![e], vec![r], options()).unwrap();
        FacetServer::new(index)
    }

    #[test]
    fn normalization_sorts_dedups_and_lowercases() {
        assert_eq!(
            normalize_query(&["France", "  POLITICAL LEADERS ", "france", ""]),
            vec!["france".to_string(), "political leaders".to_string()]
        );
    }

    #[test]
    fn signature_distinguishes_generation_and_terms() {
        let mut v = facet_textkit::Vocabulary::new();
        v.intern("france");
        let frozen = v.freeze();
        let q1 = vec!["france".to_string()];
        let q2 = vec!["germany".to_string()];
        assert_ne!(signature(1, &q1, &frozen), signature(2, &q1, &frozen));
        assert_ne!(signature(1, &q1, &frozen), signature(1, &q2, &frozen));
        assert_eq!(signature(3, &q1, &frozen), signature(3, &q1, &frozen));
    }

    #[test]
    fn fanout_is_identical_across_shard_counts() {
        let e = FixedExtractor;
        let r = FixedResource::new();
        let baseline: Vec<String> = {
            let r = FixedResource::new();
            let srv = server(1, 24, &e, &r);
            let snap = srv.snapshot();
            ["", "political leaders", "france", "germany", "unknown term"]
                .iter()
                .map(|q| fanout_browse(&snap, &[q]).canonical())
                .collect()
        };
        for n in [2, 3, 4, 8] {
            let srv = server(n, 24, &e, &r);
            let snap = srv.snapshot();
            let got: Vec<String> = ["", "political leaders", "france", "germany", "unknown term"]
                .iter()
                .map(|q| fanout_browse(&snap, &[q]).canonical())
                .collect();
            assert_eq!(got, baseline, "{n} shards must serve identical answers");
        }
    }

    #[test]
    fn cached_result_is_byte_identical_to_uncached() {
        let e = FixedExtractor;
        let r = FixedResource::new();
        let srv = server(3, 24, &e, &r);
        let h = srv.handle();
        for q in [vec![], vec!["political leaders"], vec!["france", "germany"]] {
            let uncached = h.browse_uncached(&q);
            let first = h.browse(&q); // miss: computes and fills
            let second = h.browse(&q); // hit: served from the cache
            assert!(Arc::ptr_eq(&first, &second), "second lookup was not a hit");
            assert_eq!(uncached.canonical(), second.canonical());
        }
        let stats = h.cache_stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.len, 3);
    }

    #[test]
    fn append_bumps_generation_and_invalidates() {
        let e = FixedExtractor;
        let r = FixedResource::new();
        let index = ShardedFacetIndex::build(corpus(12), 3, vec![&e], vec![&r], options()).unwrap();
        let mut srv = FacetServer::new(index);
        let h = srv.handle();
        let before = h.browse(&["political leaders"]);
        assert_eq!(before.generation, 1);
        assert_eq!(h.cache_stats().len, 1);

        srv.append(corpus(12)).unwrap();
        assert_eq!(h.generation(), 2);
        let stats = h.cache_stats();
        assert_eq!(stats.len, 0, "publish pruned the stale generation");
        assert_eq!(stats.invalidations, 1);

        let after = h.browse(&["political leaders"]);
        assert_eq!(after.generation, 2);
        assert_eq!(after.total(), 24, "served fresh counts, not stale ones");
        assert_eq!(h.cache_stats().misses, 2, "the re-ask was a miss");
        // The pinned pre-append result is untouched (frozen views).
        assert_eq!(before.total(), 12);
    }

    #[test]
    fn repair_republishes_and_invalidates() {
        let e = FixedExtractor;
        let faulty = facet_resources::FaultyResource::new(
            FixedResource::new(),
            facet_resources::FaultPlan::seeded(7, 1000),
            facet_resources::VirtualClock::new(),
        );
        let index =
            ShardedFacetIndex::build(corpus(12), 2, vec![&e], vec![&faulty], options()).unwrap();
        let mut srv = FacetServer::new(index);
        let h = srv.handle();
        assert!(!srv.snapshot().merged().is_fully_covered());
        h.browse(&["political leaders"]);
        assert_eq!(h.cache_stats().len, 1);

        faulty.heal();
        let stats = srv.repair().unwrap();
        assert!(stats.repaired_terms >= 3);
        assert_eq!(h.generation(), stats.generation);
        assert_eq!(h.cache_stats().len, 0, "repair invalidated the cache");
        assert!(srv.snapshot().merged().is_fully_covered());

        // A converged repair is a no-op: no republish, cache kept.
        let h_result = h.browse(&["political leaders"]);
        let before = srv.snapshot().generation();
        let stats = srv.repair().unwrap();
        assert_eq!(stats.requeried_terms, 0);
        assert_eq!(srv.snapshot().generation(), before);
        assert!(Arc::ptr_eq(&h.browse(&["political leaders"]), &h_result));
    }

    #[test]
    fn fifo_capacity_evicts_oldest() {
        let e = FixedExtractor;
        let r = FixedResource::new();
        let index = ShardedFacetIndex::build(corpus(12), 2, vec![&e], vec![&r], options()).unwrap();
        let srv = FacetServer::with_cache_capacity(index, 2);
        let h = srv.handle();
        h.browse(&["france"]);
        h.browse(&["germany"]);
        h.browse(&["britain"]); // evicts "france"
        let stats = h.cache_stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 1);
        h.browse(&["france"]); // miss again
        assert_eq!(h.cache_stats().misses, 4);
    }

    #[test]
    fn unknown_query_terms_match_nothing_and_cache() {
        let e = FixedExtractor;
        let r = FixedResource::new();
        let srv = server(2, 8, &e, &r);
        let h = srv.handle();
        let result = h.browse(&["never seen anywhere"]);
        assert_eq!(result.total(), 0);
        assert!(result.refinements.is_empty());
        let again = h.browse(&["never seen anywhere"]);
        assert!(Arc::ptr_eq(&result, &again));
    }

    #[test]
    fn serve_counters_recorded() {
        let e = FixedExtractor;
        let r = FixedResource::new();
        let recorder = Recorder::enabled();
        let index = ShardedFacetIndex::build(corpus(12), 2, vec![&e], vec![&r], options())
            .unwrap()
            .with_recorder(recorder.clone());
        let mut srv = FacetServer::new(index);
        let h = srv.handle();
        h.browse(&["france"]);
        h.browse(&["france"]);
        h.browse_uncached(&["france"]);
        srv.append(corpus(4)).unwrap();
        let counts = recorder.snapshot_counts_only();
        assert_eq!(counts["counter.serve.hit"], 1);
        assert_eq!(counts["counter.serve.miss"], 1);
        assert_eq!(counts["counter.serve.fanout"], 2);
        assert_eq!(counts["counter.serve.publish"], 1);
    }

    /// Two-thread interleaving over the cache race (the C1-sanctioned
    /// site): racing readers of the same cold query both answer
    /// correctly whichever one fills the cache, and a writer
    /// republishing mid-stream never lets a reader observe a result
    /// whose generation disagrees with its content.
    #[test]
    fn concurrent_readers_race_the_cache_safely() {
        let e = FixedExtractor;
        let r = FixedResource::new();
        let srv = server(3, 24, &e, &r);
        let h = srv.handle();
        let expected = h.browse_uncached(&["political leaders"]).canonical();
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for _ in 0..4 {
                let h = h.clone();
                let expected = expected.clone();
                joins.push(s.spawn(move || {
                    for _ in 0..50 {
                        let got = h.browse(&["political leaders"]);
                        assert_eq!(got.canonical(), expected);
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        });
        let stats = h.cache_stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert!(stats.hits >= 196, "at most one miss per racing thread");
    }

    /// Interleaving coverage for the `reopen` publication point (C2):
    /// readers browse continuously while the writer swaps in a
    /// recovered index mid-stream. Every answer must be internally
    /// consistent with its own generation, generations must never move
    /// backwards, and a stale recovered index must be rejected without
    /// disturbing what readers see.
    #[test]
    fn reopen_swaps_behind_live_readers() {
        let e = FixedExtractor;
        let r = FixedResource::new();
        let r2 = FixedResource::new();
        let index = ShardedFacetIndex::build(corpus(12), 2, vec![&e], vec![&r], options()).unwrap();
        // "Recovered" stand-in: a deterministic rebuild one append ahead.
        let mut ahead =
            ShardedFacetIndex::build(corpus(12), 2, vec![&e], vec![&r2], options()).unwrap();
        ahead.append(corpus(6)).unwrap();
        let mut srv = FacetServer::new(index);
        let h = srv.handle();
        let at_gen1 = h.browse_uncached(&["political leaders"]).canonical();
        std::thread::scope(|s| {
            let reader = {
                let h = h.clone();
                s.spawn(move || {
                    let mut last_generation = 0;
                    for _ in 0..200 {
                        let got = h.browse(&["political leaders"]);
                        assert!(got.generation >= last_generation, "generation regressed");
                        last_generation = got.generation;
                        let expected = fanout_browse(&h.snapshot(), &["political leaders"]);
                        if expected.generation == got.generation {
                            assert_eq!(got.canonical(), expected.canonical());
                        }
                    }
                })
            };
            let generation = srv.reopen(ahead).expect("reopen");
            assert_eq!(generation, 2);
            reader.join().unwrap();
        });
        // Readers now see the recovered state, not the original.
        let after = h.browse(&["political leaders"]);
        assert_eq!(after.generation, 2);
        assert_eq!(after.total(), 18);
        assert_ne!(after.canonical(), at_gen1);

        // A stale index (generation 1 < published 2) is rejected and
        // nothing readers hold changes.
        let r3 = FixedResource::new();
        let stale =
            ShardedFacetIndex::build(corpus(12), 2, vec![&e], vec![&r3], options()).unwrap();
        let err = srv.reopen(stale).unwrap_err();
        assert_eq!(
            err,
            IndexError::StaleReopen {
                published: 2,
                recovered: 1
            }
        );
        assert_eq!(h.generation(), 2);
    }

    #[test]
    fn concurrent_append_keeps_readers_consistent() {
        let e = FixedExtractor;
        let r = FixedResource::new();
        let index = ShardedFacetIndex::build(corpus(8), 2, vec![&e], vec![&r], options()).unwrap();
        let mut srv = FacetServer::new(index);
        let h = srv.handle();
        std::thread::scope(|s| {
            let reader = {
                let h = h.clone();
                s.spawn(move || {
                    let mut comparisons = 0usize;
                    while comparisons < 100 {
                        let snapshot = h.snapshot();
                        let uncached = fanout_browse(&snapshot, &["political leaders"]);
                        let cached = h.browse(&["political leaders"]);
                        // Only same-generation answers are comparable:
                        // the writer may publish between the two calls.
                        if cached.generation == uncached.generation {
                            assert_eq!(cached.canonical(), uncached.canonical());
                            comparisons += 1;
                        }
                    }
                    comparisons
                })
            };
            for _ in 0..6 {
                srv.append(corpus(2)).unwrap();
            }
            assert_eq!(reader.join().unwrap(), 100);
        });
        assert_eq!(h.snapshot().n_docs(), 20);
    }
}
