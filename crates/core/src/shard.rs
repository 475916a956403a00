//! The facet index: parallel per-shard appends, one merged snapshot.
//!
//! The paper's MNYT experiment (Section V) is a *growing* archive: the
//! corpus expands month by month, yet a one-shot pipeline recomputes
//! Steps 1–4 from scratch on every run. [`ShardedFacetIndex`] keeps the
//! full pipeline state alive between updates and re-extracts only new
//! documents, resolves only newly-distinct important terms, delta-updates
//! both frequency tables, re-runs selection over the updated tables, and
//! advances the subsumption counts by the new documents and the terms
//! that enter the top k. Each update atomically swaps in a fresh
//! [`FacetSnapshot`] that readers hold lock-free while further appends
//! proceed.
//!
//! The expensive half of an append — Step-1 extraction, Step-2
//! expansion, and the df delta updates — is embarrassingly parallel
//! across documents, while Steps 3–4 (selection and subsumption) are
//! global computations over the full frequency tables. The index
//! exploits exactly that split:
//!
//! 1. **Partition.** Documents are assigned round-robin by global
//!    [`DocId`]: document `g` lives in shard `g % N` at shard-local
//!    position `g / N`. The key is a pure function of the id, so a
//!    document's shard never changes as the archive grows and any batch
//!    partition of the corpus lands every document in the same shard.
//! 2. **Parallel shard appends.** Each shard owns a full private copy of
//!    the per-document pipeline state — [`Vocabulary`], [`TextDatabase`]
//!    with its df slice, [`ExpansionCache`], and
//!    [`ContextualizedDatabase`] with its `df_C` slice — so the per-shard
//!    appends run with zero locking via `rayon::scope`. The shards share
//!    one [`CachedResource`] wrapper per external resource: its per-term
//!    latch guarantees each distinct important term hits the wrapped
//!    resource exactly once no matter how many shards race on it.
//! 3. **Deterministic merge.** Per-shard term ids are private, so the
//!    merge keeps one `shard id → merged id` mapping per shard
//!    (append-only, extended in shard order) and replays only the *new*
//!    documents, in global id order, into the merged df/`df_C` tables,
//!    per-document term sets, and per-term postings — O(new documents),
//!    not O(corpus).
//! 4. **Global ranking.** Selection reranks the merged tables in time
//!    linear in the vocabulary: rank bins come from one frequency
//!    histogram per table, not a sort, and only the top k are sorted (see
//!    [`crate::selection`]). Subsumption keeps one [`CoCounts`] table for
//!    the current candidate set across appends: a publish frees the terms that left the top k, counts the
//!    new documents' pairs among the terms that stayed, and fills the
//!    entering terms' rows from their postings, so its counting scales
//!    with the batch and the churn, not the corpus. A fresh or repaired
//!    index rebuilds the table by one scan at its next publish; a restored
//!    one scans at the publish that restore itself runs.
//!    Parent choice then walks each term's count row in slot order. The
//!    result is published through one atomically-swapped
//!    [`FacetSnapshot`], which shares the document rows with the index:
//!    the rows live in one append-only [`RowStore`] of `Arc`-shared
//!    chunks, so a publish clones the chunk list, and the next merge
//!    copies at most the one open chunk the snapshot still shares
//!    ([`crate::rows::CHUNK_ROWS`] rows) before appending to it.
//!
//! **Equivalence invariant:** for every shard count N, thread count, and
//! batch partition of the corpus, the published snapshot is
//! string-identical — facet terms, df/`df_C` statistics, score bits, and
//! forest edges — to a 1-shard index that received the corpus in one
//! append, and it matches Steps 1–4 computed straight from the paper's
//! formulas over strings (`tests/pipeline_oracle.rs`): the same facet
//! terms with the same df/`df_C`, the same forest edges, scores within a
//! relative 1e-9, and the same order up to candidates whose scores lie
//! within that tolerance of each other. Term ids may differ (each
//! history interns in its own order, and context terms interleave with
//! later batches' corpus terms), which is why ranking breaks score ties
//! by term string and every other stage is id-order-independent by
//! construction.
//!
//! The merge is serial and the shard workers are OS threads, so the
//! speedup ceiling is the parallel fraction of an append (extraction +
//! expansion + ingest) times the host's core count; at one shard the
//! index is the batch path plus a small partition/merge overhead.

use crate::config::PipelineOptions;
use crate::hierarchy::FacetForest;
use crate::index::{AppendStats, FacetSnapshot, IndexError, RepairStats};
use crate::rows::RowStore;
use crate::selection::{collect_candidates, rank_stable, SelectionInputs, SelectionStatistic};
use crate::subsumption::{choose_parents_scanned, CoCounts, SubsumptionParams};
use facet_corpus::db::TermingOptions;
use facet_corpus::{DocId, Document, TextDatabase};
use facet_obs::Recorder;
use facet_resources::{
    expand_append_recorded, intern_important_terms, repair_degraded_recorded, AppendOutcome,
    CacheStats, CachedResource, ContextResource, ContextualizedDatabase, ExpansionCache,
    ExpansionError, ExpansionOptions,
};
use facet_termx::{extract_important_terms, TermExtractor};
use facet_textkit::{InternStats, TermId, Vocabulary};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// One shard's private pipeline state. Term ids in here are meaningful
/// only against this shard's vocabulary; `to_merged` translates them.
/// [`crate::persist`] encodes every field but `to_merged`, which restore
/// looks up in the merged vocabulary.
pub(crate) struct Shard {
    pub(crate) vocab: Vocabulary,
    pub(crate) db: TextDatabase,
    pub(crate) cache: ExpansionCache,
    pub(crate) ctx: ContextualizedDatabase,
    /// `I(d)` per shard-local document as shard-local symbols, aligned
    /// with `db` — kept so a repair pass can recompute exactly the
    /// documents that use a re-resolved term.
    pub(crate) important: Vec<Vec<TermId>>,
    /// `shard TermId → merged TermId`, extended (never rewritten) at each
    /// merge.
    pub(crate) to_merged: Vec<TermId>,
}

impl Shard {
    fn new() -> Self {
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(Vec::new(), &mut vocab, TermingOptions::default());
        Self {
            vocab,
            db,
            cache: ExpansionCache::new(),
            ctx: ContextualizedDatabase::empty(),
            important: Vec::new(),
            to_merged: Vec::new(),
        }
    }
}

/// Union of the shards' degraded-coverage maps. A term degraded in
/// several shards appears once; its failed-resource list is identical in
/// every shard because resources fail (or answer) deterministically per
/// term.
// lint:allow(string-keyed-map, reason="serving-edge degraded report; strings materialize here by design")
fn merged_degraded(shards: &[Shard]) -> BTreeMap<String, Vec<String>> {
    let mut merged = BTreeMap::new();
    for shard in shards {
        for (term, failed) in shard.ctx.degraded() {
            merged.insert(term.clone(), failed.clone());
        }
    }
    merged
}

/// One shard's part of an append: its documents, and their `I(d)` when
/// the caller supplied it.
type ShardBatch = (Vec<Document>, Option<Vec<Vec<String>>>);

/// The incrementally-updatable facet index over `N ≥ 1` shards. See the
/// [module docs](self) for the partition/merge design and the
/// equivalence invariant. The `pub(crate)` fields are the state
/// [`crate::persist`] encodes and restores; outside this impl, only the
/// restore path writes them, before it rebuilds the merged tables through
/// the append path's `merge_docs` and `publish`.
///
/// ```no_run
/// # use facet_core::ShardedFacetIndex;
/// # use facet_core::PipelineOptions;
/// # fn demo(extractors: Vec<&dyn facet_termx::TermExtractor>,
/// #         resources: Vec<&dyn facet_resources::ContextResource>,
/// #         january: Vec<facet_corpus::Document>,
/// #         february: Vec<facet_corpus::Document>)
/// #     -> Result<(), facet_core::IndexError> {
/// let mut index = ShardedFacetIndex::new(1, extractors, resources, PipelineOptions::default());
/// index.append(january)?;               // initial build
/// let snapshot = index.snapshot();      // Arc<FacetSnapshot>, lock-free reads
/// let stats = index.append(february)?;  // incremental: only new terms resolved
/// assert!(snapshot.generation() < index.snapshot().generation());
/// # Ok(())
/// # }
/// ```
pub struct ShardedFacetIndex<'a> {
    extractors: Vec<&'a dyn TermExtractor>,
    /// One shared memo per external resource; all shards query through
    /// these, so the wrapped resource sees each distinct term once.
    shared: Vec<CachedResource<&'a dyn ContextResource>>,
    pub(crate) options: PipelineOptions,
    pub(crate) statistic: SelectionStatistic,
    recorder: Recorder,
    pub(crate) shards: Vec<Shard>,
    /// The merge-side vocabulary: the union of all shard vocabularies,
    /// interned in merge order.
    pub(crate) merged_vocab: Vocabulary,
    /// df over `D` in merged ids, delta-updated per append.
    merged_df: Vec<u64>,
    /// df over `C(D)` in merged ids, delta-updated per append.
    merged_df_c: Vec<u64>,
    /// Contextualized term sets per document, in global id order. Each
    /// published snapshot holds a clone sharing every chunk.
    pub(crate) merged_doc_terms: RowStore,
    /// `postings[sym]`: the rows of `merged_doc_terms` containing merged
    /// term `sym`, ascending; extended with the rows in `merge_docs`.
    postings: Vec<Vec<u32>>,
    /// Subsumption counts for the last published candidate set, advanced
    /// by each publish. `None` on a fresh or repaired index until its
    /// next publish rebuilds it by scan; restore's publish scans it too.
    /// Never persisted.
    co_counts: Option<CoCounts>,
    pub(crate) n_docs: usize,
    /// The current published snapshot. Every update, restore's included,
    /// goes through [`ShardedFacetIndex::publish`].
    snapshot: RwLock<Arc<FacetSnapshot>>,
    pub(crate) generation: u64,
}

impl<'a> ShardedFacetIndex<'a> {
    /// An empty index over `n_shards` shards (clamped to at least 1) with
    /// the paper's configuration (log-likelihood ranking, default
    /// terming).
    pub fn new(
        n_shards: usize,
        extractors: Vec<&'a dyn TermExtractor>,
        resources: Vec<&'a dyn ContextResource>,
        options: PipelineOptions,
    ) -> Self {
        let n_shards = n_shards.max(1);
        let vocab = Vocabulary::new();
        let snapshot = Arc::new(FacetSnapshot::assemble(
            0,
            vocab.freeze(),
            RowStore::new(),
            Vec::new(),
            FacetForest::default(),
            &[],
            Arc::new(BTreeMap::new()),
        ));
        Self {
            extractors,
            shared: resources.into_iter().map(CachedResource::new).collect(),
            options,
            statistic: SelectionStatistic::LogLikelihood,
            recorder: Recorder::disabled(),
            shards: (0..n_shards).map(|_| Shard::new()).collect(),
            merged_vocab: vocab,
            merged_df: Vec::new(),
            merged_df_c: Vec::new(),
            merged_doc_terms: RowStore::new(),
            postings: Vec::new(),
            co_counts: None,
            n_docs: 0,
            snapshot: RwLock::new(snapshot),
            generation: 0,
        }
    }

    /// Build an index over an initial corpus: [`ShardedFacetIndex::new`]
    /// followed by one [`ShardedFacetIndex::append`].
    pub fn build(
        docs: Vec<Document>,
        n_shards: usize,
        extractors: Vec<&'a dyn TermExtractor>,
        resources: Vec<&'a dyn ContextResource>,
        options: PipelineOptions,
    ) -> Result<Self, IndexError> {
        let mut index = Self::new(n_shards, extractors, resources, options);
        index.append(docs)?;
        Ok(index)
    }

    /// Switch the ranking statistic (ablation). Only meaningful before
    /// the first append.
    pub fn with_statistic(mut self, statistic: SelectionStatistic) -> Self {
        self.statistic = statistic;
        self
    }

    /// Attach an observability recorder. Appends record `append.*` spans
    /// (`partition`, per-shard `shard0`, `shard1`, …, `merge`, `freeze`,
    /// `select`, `subsumption`, `swap`; the shard workers run on their own
    /// threads and carry the full dotted name) and counters (`append.docs`,
    /// `append.new_distinct_terms`, `append.reused_terms`,
    /// `append.snapshot_swaps`).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The configured shard count.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The configured options.
    pub fn options(&self) -> &PipelineOptions {
        &self.options
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Number of documents currently indexed (across all shards).
    pub fn len(&self) -> usize {
        self.n_docs
    }

    /// True if no documents have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.n_docs == 0
    }

    /// Distinct important terms resolved so far, summed over the shards'
    /// expansion caches (a term resolved in `k` shards counts `k` times;
    /// at one shard this is the cache size).
    pub fn resolved_terms(&self) -> usize {
        self.shards.iter().map(|s| s.cache.len()).sum()
    }

    /// Hit/miss totals of the shared per-resource caches, in resource
    /// order. The miss counts are exactly the queries that reached the
    /// wrapped resources.
    pub fn resource_cache_stats(&self) -> Vec<CacheStats> {
        self.shared.iter().map(CachedResource::stats).collect()
    }

    /// Interner hit/miss/len counters of the merge-side vocabulary (the
    /// `textkit.intern.*` metrics `perfbench` reports).
    pub fn intern_stats(&self) -> InternStats {
        self.merged_vocab.stats()
    }

    /// The current snapshot. An `Arc` clone under a short read lock:
    /// callers keep the returned snapshot for as long as they like,
    /// entirely unaffected by concurrent appends publishing newer
    /// generations.
    pub fn snapshot(&self) -> Arc<FacetSnapshot> {
        self.snapshot.read().clone()
    }

    /// Append a batch of documents and publish a new merged snapshot.
    ///
    /// Documents get global ids `len()..len()+batch.len()` — the index
    /// owns id assignment, so month batches whose ids restart from zero
    /// can be fed directly — and are round-robined to the shards; the
    /// per-shard pipelines (ingest, extract, expand) run in parallel,
    /// then the serial merge folds only the new documents into the
    /// merged tables before selection and subsumption re-run globally.
    ///
    /// # Errors
    /// Returns [`IndexError`] if a shard's expansion state is corrupted.
    /// The published snapshot is left untouched, so a serving process
    /// can keep answering from the previous generation; the index itself
    /// should be discarded, since the failing shard may have ingested
    /// documents it could not expand.
    pub fn append(&mut self, batch: Vec<Document>) -> Result<AppendStats, IndexError> {
        self.append_with(batch, None)
    }

    /// [`ShardedFacetIndex::append`] with Step 1 already done:
    /// `important[i]` is `I(d)` for `batch[i]`, used in place of the
    /// configured extractors' output. Lets a caller share one extraction
    /// across several indexes (the evaluation grid builds one index per
    /// resource configuration over the same `I(d)`).
    ///
    /// # Errors
    /// [`IndexError::Expansion`] with
    /// [`ExpansionError::DocumentCountMismatch`] when `important` does not
    /// hold one list per document; this is checked before any shard
    /// ingests a document, so the index, its length, generation and
    /// published snapshot are unchanged. Otherwise as
    /// [`ShardedFacetIndex::append`].
    pub fn append_extracted(
        &mut self,
        batch: Vec<Document>,
        important: Vec<Vec<String>>,
    ) -> Result<AppendStats, IndexError> {
        if important.len() != batch.len() {
            return Err(IndexError::Expansion(
                ExpansionError::DocumentCountMismatch {
                    documents: batch.len(),
                    important: important.len(),
                },
            ));
        }
        self.append_with(batch, Some(important))
    }

    /// The one append path: `important` is `I(d)` per document, or `None`
    /// to have each shard worker extract it from its own documents.
    fn append_with(
        &mut self,
        mut batch: Vec<Document>,
        important: Option<Vec<Vec<String>>>,
    ) -> Result<AppendStats, IndexError> {
        // The span guard borrows its recorder; a clone (one `Arc` bump)
        // leaves `self` free for the merge and publish steps.
        let recorder = self.recorder.clone();
        let _append_span = recorder.span("append");
        _append_span.attr("docs", batch.len() as u64);
        _append_span.attr("shards", self.shards.len() as u64);
        // Capture the trace context here so worker threads (fresh span
        // stacks) can parent their shard spans under this append span.
        let trace_parent = facet_obs::current_context();
        let intern_before = self.merged_vocab.stats();
        let n = self.shards.len();
        let start = self.n_docs;
        let docs = batch.len();

        // ---- partition: round-robin by global id ------------------------
        let mut per_shard: Vec<ShardBatch> = {
            let _span = self.recorder.span("partition");
            let given = important.is_some();
            let mut per_shard: Vec<ShardBatch> =
                (0..n).map(|_| (Vec::new(), given.then(Vec::new))).collect();
            let mut important = important.into_iter().flatten();
            for (i, mut d) in batch.drain(..).enumerate() {
                let g = start + i;
                d.id = DocId(g as u32);
                let (docs, shard_important) = &mut per_shard[g % n];
                docs.push(d);
                // The next document's list; `append_extracted` checked
                // there is one per document.
                if let Some(lists) = shard_important {
                    lists.extend(important.next());
                }
            }
            per_shard
        };
        let docs_per_shard: Vec<usize> = per_shard.iter().map(|(d, _)| d.len()).collect();
        let queries_before: u64 = self.shared.iter().map(|c| c.stats().misses).sum();

        // ---- parallel per-shard ingest + extract + expand ---------------
        // Splitting the configured expansion threads across shards keeps
        // the total worker count at the configured level instead of
        // multiplying it by the shard count.
        let exp = ExpansionOptions {
            threads: (self.options.expansion.threads / n).max(1),
        };
        let extractors = &self.extractors;
        let shared = &self.shared;
        let recorder = &recorder;
        let mut results: Vec<Option<Result<AppendOutcome, ExpansionError>>> =
            (0..n).map(|_| None).collect();
        rayon::scope(|s| {
            for ((i, shard), (docs, slot)) in self
                .shards
                .iter_mut()
                .enumerate()
                .zip(per_shard.drain(..).zip(results.iter_mut()))
            {
                let exp = exp.clone();
                s.spawn(move |_| {
                    // The worker runs on its own thread (fresh span
                    // stack), so the shard span carries the full dotted
                    // name explicitly; the captured trace context links
                    // it under the append span across the thread hop.
                    let _span = recorder.span_under(trace_parent, &format!("append.shard{i}"));
                    _span.attr("shard", i as u64);
                    let (docs, important) = docs;
                    _span.attr("docs", docs.len() as u64);
                    let important = important.unwrap_or_else(|| {
                        docs.iter()
                            .map(|d| extract_important_terms(extractors, &d.full_text()))
                            .collect()
                    });
                    let range = shard.db.append_detached(docs, &mut shard.vocab);
                    let new_important = intern_important_terms(&mut shard.vocab, &important);
                    let resources: Vec<&dyn ContextResource> =
                        shared.iter().map(|c| c as &dyn ContextResource).collect();
                    *slot = Some(expand_append_recorded(
                        &shard.db,
                        range,
                        &new_important,
                        &resources,
                        &mut shard.vocab,
                        &exp,
                        recorder,
                        &mut shard.cache,
                        &mut shard.ctx,
                    ));
                    shard.important.extend(new_important);
                });
            }
        });
        let mut new_distinct_terms = 0;
        let mut reused_terms = 0;
        for (shard, outcome) in results.into_iter().enumerate() {
            let outcome = outcome.ok_or(IndexError::ShardIncomplete { shard })??;
            new_distinct_terms += outcome.new_distinct_terms;
            reused_terms += outcome.reused_terms;
        }

        // ---- serial merge of the new documents, then publish ------------
        let rows_copied = self.merge_docs(start..start + docs, true);
        self.n_docs += docs;
        self.publish(self.generation + 1, rows_copied);

        let queries_after: u64 = self.shared.iter().map(|c| c.stats().misses).sum();
        let intern_after = self.merged_vocab.stats();
        self.recorder
            .add("intern.hits", intern_after.hits - intern_before.hits);
        self.recorder
            .add("intern.misses", intern_after.misses - intern_before.misses);
        self.recorder
            .add("intern.len", (intern_after.len - intern_before.len) as u64);
        self.recorder.add("append.docs", docs as u64);
        self.recorder
            .add("append.new_distinct_terms", new_distinct_terms as u64);
        self.recorder
            .add("append.reused_terms", reused_terms as u64);
        self.recorder.incr("append.snapshot_swaps");

        Ok(AppendStats {
            docs,
            docs_per_shard,
            new_distinct_terms,
            reused_terms,
            resource_queries: queries_after - queries_before,
            generation: self.generation,
        })
    }

    /// Backfill pass over degraded-coverage terms: re-query exactly the
    /// important terms recorded in [`FacetSnapshot::degraded`], recompute
    /// the documents that use a term whose resolution changed, re-rank,
    /// and publish a new snapshot.
    ///
    /// Each shard re-queries its own degraded terms serially in shard
    /// order (through the shared per-resource caches, so a term degraded
    /// in several shards reaches the wrapped resource once) and
    /// recomputes exactly the shard-local documents that use a
    /// re-resolved term. The merged `df_C` table, per-document rows, and
    /// postings are then rebuilt by replaying every document in global id
    /// order, and the subsumption counts by one scan at publish —
    /// O(corpus), acceptable for a rare backfill. The merged df table
    /// over `D` is untouched: repair never changes the corpus itself.
    ///
    /// Once the failing resources have recovered (e.g. a circuit breaker
    /// has closed), the repaired snapshot is string-identical — facet
    /// terms, frequencies, score bits, forest edges, and (empty)
    /// degradation — to a build that never saw a fault. Terms whose
    /// resources are still failing keep their provenance and stay
    /// eligible for the next pass. Stats sum over shards, so a term
    /// degraded in `k` shards contributes `k` to `requeried_terms`. With
    /// no degradation outstanding this is a no-op: nothing is re-queried
    /// and no snapshot is published.
    ///
    /// # Errors
    /// Returns [`IndexError`] if a shard's repair state is corrupted; the
    /// published snapshot is untouched.
    pub fn repair(&mut self) -> Result<RepairStats, IndexError> {
        let recorder = self.recorder.clone();
        let _span = recorder.span("repair");
        let resources: Vec<&dyn ContextResource> = self
            .shared
            .iter()
            .map(|c| c as &dyn ContextResource)
            .collect();
        let mut totals = RepairStats::default();
        for shard in self.shards.iter_mut() {
            let outcome = repair_degraded_recorded(
                &shard.db,
                &shard.important,
                &resources,
                &mut shard.vocab,
                &recorder,
                &mut shard.cache,
                &mut shard.ctx,
            )?;
            totals.requeried_terms += outcome.requeried_terms;
            totals.repaired_terms += outcome.repaired_terms;
            totals.still_degraded += outcome.still_degraded;
            totals.changed_docs += outcome.changed_docs;
        }
        if totals.requeried_terms > 0 {
            self.merged_df_c.clear();
            self.merged_doc_terms.clear();
            self.postings.clear();
            self.co_counts = None;
            let rows_copied = self.merge_docs(0..self.n_docs, false);
            self.publish(self.generation + 1, rows_copied);
            self.recorder.incr("repair.snapshot_swaps");
        }
        totals.generation = self.generation;
        Ok(totals)
    }

    /// Fold the documents with global ids in `docs` into the merged
    /// tables, in global id order: extend every shard's id mapping for
    /// the terms it interned since the last merge, then add each
    /// document's contextualized row to `merged_df_c`, `merged_doc_terms`,
    /// and `postings`. `count_df` also adds the documents' corpus
    /// terms to `merged_df` (new documents only — repair never changes
    /// `D`). Returns the rows copied out of the published snapshot's
    /// open chunk to append (fewer than a chunk). Recorded as the `merge`
    /// span.
    pub(crate) fn merge_docs(&mut self, docs: Range<usize>, count_df: bool) -> usize {
        let _span = self.recorder.span("merge");
        // Shard-order extension is deterministic because each shard's
        // interning order depends only on its own documents.
        for shard in &mut self.shards {
            self.merged_vocab
                .extend_remap(&shard.vocab, &mut shard.to_merged);
        }
        self.merged_df.resize(self.merged_vocab.len(), 0);
        self.merged_df_c.resize(self.merged_vocab.len(), 0);
        self.postings.resize_with(self.merged_vocab.len(), Vec::new);
        let n = self.shards.len();
        let mut terms: Vec<TermId> = Vec::new();
        let mut rows_copied = 0;
        for g in docs {
            let shard = &self.shards[g % n];
            let pos = g / n;
            if count_df {
                for t in shard.db.doc_terms(DocId(pos as u32)) {
                    self.merged_df[shard.to_merged[t.index()].index()] += 1;
                }
            }
            // The shard→merged mapping is injective (distinct strings
            // map to distinct merged ids), so sorting suffices.
            terms.clear();
            terms.extend(
                shard.ctx.doc_terms[pos]
                    .iter()
                    .map(|t| shard.to_merged[t.index()]),
            );
            terms.sort_unstable();
            // Subsumption reads a term's df off its postings: each row
            // must name a term at most once.
            debug_assert!(
                terms.windows(2).all(|w| w[0] < w[1]),
                "duplicate term in row {g}"
            );
            let row = self.merged_doc_terms.len() as u32;
            for t in &terms {
                self.merged_df_c[t.index()] += 1;
                self.postings[t.index()].push(row);
            }
            rows_copied += self.merged_doc_terms.push(&terms);
        }
        rows_copied
    }

    /// Re-run Step 3 (selection) over the merged tables, bring the
    /// subsumption counts up to the new candidate set and rows (a scan if
    /// there are none yet) and run Step 4's parent choice over them, set
    /// the generation to `generation`, and atomically swap in the new
    /// snapshot — the index's one publication point (`Lint.toml` C2),
    /// shared by append, repair and restore. The snapshot
    /// shares the rows' chunks with the index; `rows_copied` is what the
    /// merge before it copied to append. Records the `freeze` span, the
    /// `select` span (attributes: `terms` scanned, `candidates` passing
    /// the shift filters), the `subsumption` span (`pairs_scanned`: count
    /// entries parent choice walked) and the `swap` span (`rows_copied`).
    pub(crate) fn publish(&mut self, generation: u64, rows_copied: usize) {
        // One freeze per publish: ranking, forest, and snapshot share it.
        let frozen = {
            let _span = self.recorder.span("freeze");
            self.merged_vocab.freeze()
        };
        let candidates = {
            let span = self.recorder.span("select");
            let found = collect_candidates(
                SelectionInputs {
                    df: &self.merged_df,
                    df_c: &self.merged_df_c,
                    n_docs: self.n_docs as u64,
                },
                self.statistic,
                self.options.min_df_c,
            );
            span.attr("terms", self.merged_vocab.len() as u64);
            span.attr("candidates", found.len() as u64);
            rank_stable(found, self.options.top_k, frozen.as_vocabulary())
        };
        let forest = {
            let span = self.recorder.span("subsumption");
            let terms: Vec<TermId> = candidates.iter().map(|c| c.term).collect();
            let counts = match &mut self.co_counts {
                Some(counts) => {
                    counts.advance(&terms, &self.merged_doc_terms, &self.postings);
                    counts
                }
                None => self
                    .co_counts
                    .insert(CoCounts::scan(&terms, &self.merged_doc_terms)),
            };
            let (sub, pairs_scanned) = choose_parents_scanned(
                &terms,
                counts,
                SubsumptionParams {
                    threshold: self.options.subsumption_threshold,
                    ..Default::default()
                },
            );
            span.attr("pairs_scanned", pairs_scanned);
            let df_c = &self.merged_df_c;
            FacetForest::from_subsumption(&sub, &frozen, |t| {
                df_c.get(t.index()).copied().unwrap_or(0)
            })
        };
        self.generation = generation;
        let span = self.recorder.span("swap");
        span.attr("rows_copied", rows_copied as u64);
        let snapshot = Arc::new(FacetSnapshot::assemble(
            self.generation,
            frozen,
            self.merged_doc_terms.clone(),
            candidates,
            forest,
            &self.postings,
            Arc::new(merged_degraded(&self.shards)),
        ));
        *self.snapshot.write() = snapshot;
    }
}

/// Fixtures shared with the other modules' index tests.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub(crate) struct FixedExtractor;
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

    pub(crate) struct CountingResource {
        map: HashMap<&'static str, Vec<&'static str>>,
        queries: AtomicUsize,
    }
    impl CountingResource {
        pub(crate) fn new() -> Self {
            let mut map = HashMap::new();
            map.insert("jacques chirac", vec!["political leaders", "france"]);
            map.insert("angela merkel", vec!["political leaders", "germany"]);
            map.insert("tony blair", vec!["political leaders", "britain"]);
            Self {
                map,
                queries: AtomicUsize::new(0),
            }
        }
    }
    impl ContextResource for CountingResource {
        fn name(&self) -> &'static str {
            "Counting"
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            self.queries.fetch_add(1, Ordering::SeqCst);
            self.map
                .get(term)
                .map(|v| v.iter().map(|s| s.to_string()).collect())
                .unwrap_or_default()
        }
    }

    const CHIRAC: &str = "Jacques Chirac discussed matters with advisers in the capital.";
    const MERKEL: &str = "Angela Merkel spoke with ministers about the budget.";

    /// `n` documents cycling through `texts`, with ids `0..n`.
    fn docs_of(texts: &[&str], n: usize) -> Vec<Document> {
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

    pub(crate) fn corpus(n: usize) -> Vec<Document> {
        docs_of(
            &[
                CHIRAC,
                MERKEL,
                "Tony Blair met union leaders over the strike.",
                "Jacques Chirac and Angela Merkel held a joint summit briefing.",
            ],
            n,
        )
    }

    pub(crate) fn options() -> PipelineOptions {
        PipelineOptions {
            top_k: 20,
            ..Default::default()
        }
    }

    /// String-level view of a snapshot: (term, df, df_c, score bits) rows
    /// plus forest edges by label.
    type SnapshotView = (Vec<(String, u64, u64, String)>, Vec<(String, String)>);

    fn outputs(snap: &FacetSnapshot) -> SnapshotView {
        let rows = snap
            .candidates()
            .iter()
            .map(|c| {
                (
                    snap.vocab().term(c.term).to_string(),
                    c.df,
                    c.df_c,
                    format!("{:x}", c.score.to_bits()),
                )
            })
            .collect();
        (rows, snap.forest().edges())
    }

    #[test]
    fn empty_index_has_generation_zero() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let index = ShardedFacetIndex::new(4, vec![&e], vec![&r], options());
        assert!(index.is_empty());
        assert_eq!(index.n_shards(), 4);
        assert_eq!(index.snapshot().generation(), 0);
    }

    #[test]
    fn zero_shards_clamped_to_one() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let index = ShardedFacetIndex::new(0, vec![&e], vec![&r], options());
        assert_eq!(index.n_shards(), 1);
    }

    #[test]
    fn round_robin_partition_is_even() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut index = ShardedFacetIndex::new(3, vec![&e], vec![&r], options());
        let stats = index.append(corpus(8)).unwrap();
        assert_eq!(stats.docs, 8);
        assert_eq!(stats.docs_per_shard, vec![3, 3, 2]);
        assert_eq!(index.len(), 8);
        // A second append keeps the global round-robin going: doc 8 → shard 2.
        let stats = index.append(corpus(1)).unwrap();
        assert_eq!(stats.docs_per_shard, vec![0, 0, 1]);
    }

    #[test]
    fn sharded_matches_unsharded_for_all_shard_counts() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let batch = ShardedFacetIndex::build(corpus(24), 1, vec![&e], vec![&r], options()).unwrap();
        let expected = outputs(&batch.snapshot());
        assert!(!expected.0.is_empty(), "the corpus must yield facet terms");
        for n in [2, 3, 4, 8] {
            let r = CountingResource::new();
            let sharded =
                ShardedFacetIndex::build(corpus(24), n, vec![&e], vec![&r], options()).unwrap();
            assert_eq!(
                outputs(&sharded.snapshot()),
                expected,
                "{n} shards must match the 1-shard index"
            );
        }
    }

    #[test]
    fn incremental_sharded_appends_match_one_shot() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let one_shot =
            ShardedFacetIndex::build(corpus(24), 3, vec![&e], vec![&r], options()).unwrap();
        let r2 = CountingResource::new();
        let mut incremental = ShardedFacetIndex::new(3, vec![&e], vec![&r2], options());
        let docs = corpus(24);
        for chunk in docs.chunks(7) {
            incremental.append(chunk.to_vec()).unwrap();
        }
        assert_eq!(incremental.snapshot().generation(), 4);
        assert_eq!(
            outputs(&incremental.snapshot()),
            outputs(&one_shot.snapshot())
        );
    }

    #[test]
    fn shared_cache_deduplicates_across_shards() {
        // All three entities appear in documents of every shard, yet the
        // wrapped resource must be queried exactly once per entity.
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut index = ShardedFacetIndex::new(4, vec![&e], vec![&r], options());
        let stats = index.append(corpus(16)).unwrap();
        assert_eq!(r.queries.load(Ordering::SeqCst), 3);
        assert_eq!(stats.resource_queries, 3);
        // Per-shard caches each discovered the terms independently…
        assert!(stats.new_distinct_terms >= 3);
        // …and the shared cache absorbed every duplicate.
        let cache = &index.resource_cache_stats()[0];
        assert_eq!(cache.misses, 3);
        assert_eq!(
            cache.hits + cache.misses,
            stats.new_distinct_terms as u64,
            "every per-shard resolution went through the shared cache"
        );

        // A later append re-resolves nothing.
        let stats = index.append(corpus(4)).unwrap();
        assert_eq!(stats.resource_queries, 0);
        assert_eq!(r.queries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn sharded_repair_converges_across_shard_counts() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let clean = ShardedFacetIndex::build(corpus(24), 1, vec![&e], vec![&r], options()).unwrap();
        let expected = outputs(&clean.snapshot());
        for n in [1, 2, 3, 4] {
            let faulty = facet_resources::FaultyResource::new(
                CountingResource::new(),
                facet_resources::FaultPlan::seeded(7, 1000),
                facet_resources::VirtualClock::new(),
            );
            let mut sharded =
                ShardedFacetIndex::build(corpus(24), n, vec![&e], vec![&faulty], options())
                    .unwrap();
            let snap = sharded.snapshot();
            assert!(!snap.is_fully_covered(), "{n} shards: build saw faults");
            assert_eq!(snap.degraded().len(), 3, "all three entities degraded");

            faulty.heal();
            let stats = sharded.repair().unwrap();
            assert!(stats.repaired_terms >= 3, "{n} shards: {stats:?}");
            assert_eq!(stats.still_degraded, 0);
            let repaired = sharded.snapshot();
            assert!(repaired.is_fully_covered());
            assert_eq!(
                outputs(&repaired),
                expected,
                "{n} shards: repaired snapshot must match the fault-free build"
            );

            // Idempotent once converged.
            let stats = sharded.repair().unwrap();
            assert_eq!(stats.requeried_terms, 0);
            assert_eq!(stats.generation, repaired.generation());
        }
    }

    #[test]
    fn append_records_per_shard_spans() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let recorder = Recorder::enabled();
        let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&r], options())
            .with_recorder(recorder.clone());
        index.append(corpus(8)).unwrap();
        let counts = recorder.snapshot_counts_only();
        assert_eq!(counts["span.append.count"], 1);
        assert_eq!(counts["span.append.partition.count"], 1);
        assert_eq!(counts["span.append.shard0.count"], 1);
        assert_eq!(counts["span.append.shard1.count"], 1);
        assert_eq!(counts["span.append.merge.count"], 1);
        assert_eq!(counts["span.append.select.count"], 1);
        assert_eq!(counts["span.append.subsumption.count"], 1);
        assert_eq!(counts["span.append.swap.count"], 1);
        assert_eq!(counts["counter.append.docs"], 8);
        assert_eq!(counts["counter.append.snapshot_swaps"], 1);
    }

    /// Tracing across the rayon thread hop: shard worker spans must be
    /// parented under the `append` root span via the captured
    /// [`facet_obs::SpanContext`], so the trace tree is structurally
    /// deterministic even though workers run on their own threads.
    #[test]
    fn traced_append_parents_shard_spans_under_append() {
        use facet_obs::{TickClock, Tracer, TracerConfig};
        let e = FixedExtractor;
        let r = CountingResource::new();
        let tracer = Tracer::with_clock(
            TracerConfig::default(),
            std::sync::Arc::new(TickClock::new()),
        );
        let recorder = Recorder::traced(tracer);
        let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&r], options())
            .with_recorder(recorder.clone());
        index.append(corpus(8)).unwrap();
        let traces = recorder.tracer().unwrap().finished();
        assert_eq!(traces.len(), 1, "one root trace per append");
        let t = &traces[0];
        let root = t
            .spans
            .iter()
            .find(|s| s.name == "append" && s.parent.is_none())
            .expect("append root span");
        for shard in ["append.shard0", "append.shard1"] {
            let s = t
                .spans
                .iter()
                .find(|s| s.name == shard)
                .unwrap_or_else(|| panic!("{shard} span missing"));
            assert_eq!(s.parent, Some(root.id), "{shard} parented under append");
        }
        // Every serial step nests in the same trace.
        for stage in [
            "partition",
            "merge",
            "freeze",
            "select",
            "subsumption",
            "swap",
        ] {
            assert!(
                t.spans.iter().any(|s| s.name == stage),
                "{stage} span missing"
            );
        }
        let attr = |t: &facet_obs::FinishedTrace, span: &str, key: &str| {
            let s = t.spans.iter().find(|s| s.name == span).unwrap();
            match s.attrs.iter().find(|(k, _)| k == key) {
                Some((_, facet_obs::AttrValue::U64(v))) => *v,
                other => panic!("{span} attribute {key}: {other:?}"),
            }
        };
        // The select span says what selection iterated over.
        let snap = index.snapshot();
        assert_eq!(attr(t, "select", "terms"), snap.vocab().len() as u64);
        assert!(attr(t, "select", "candidates") >= snap.candidates().len() as u64);
        assert!(attr(t, "select", "candidates") <= attr(t, "select", "terms"));
        // A first publish scans a fresh table, one slot per candidate, and
        // shares rows with no earlier snapshot.
        let k = snap.candidates().len() as u64;
        assert!(k > 0);
        assert_eq!(attr(t, "subsumption", "pairs_scanned"), k * k);
        assert_eq!(attr(t, "swap", "rows_copied"), 0);

        // The next append copies the open chunk the published snapshot
        // shares, once: its 8 rows.
        index.append(corpus(8)).unwrap();
        let traces = recorder.tracer().unwrap().finished();
        assert_eq!(traces.len(), 2);
        assert_eq!(attr(&traces[1], "swap", "rows_copied"), 8);
        assert!(attr(&traces[1], "subsumption", "pairs_scanned") > 0);
    }

    #[test]
    fn snapshots_are_isolated_from_later_appends() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut index =
            ShardedFacetIndex::build(corpus(8), 2, vec![&e], vec![&r], options()).unwrap();
        let old = index.snapshot();
        let old_outputs = outputs(&old);
        let old_rows: Vec<Vec<TermId>> = old.doc_terms().iter().map(<[TermId]>::to_vec).collect();
        let old_digest = old.digest();
        // Enough documents to fill the open chunk the snapshot shares
        // and spill into fresh ones.
        index.append(corpus(8)).unwrap();
        index.append(corpus(crate::rows::CHUNK_ROWS + 3)).unwrap();
        assert_eq!(outputs(&old), old_outputs, "frozen snapshot unchanged");
        assert_eq!(old.n_docs(), 8);
        assert!(old
            .doc_terms()
            .iter()
            .eq(old_rows.iter().map(Vec::as_slice)));
        assert_eq!(old.digest(), old_digest);
        assert!(index.snapshot().generation() > old.generation());
        assert_eq!(index.snapshot().n_docs(), 16 + crate::rows::CHUNK_ROWS + 3);
        // The live rows extend the old ones.
        let live = index.snapshot();
        assert!(live.doc_terms().iter().take(8).eq(old.doc_terms().iter()));
    }

    #[test]
    fn browse_engine_sees_global_doc_order() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let index = ShardedFacetIndex::build(corpus(12), 3, vec![&e], vec![&r], options()).unwrap();
        let snap = index.snapshot();
        let engine = snap.browse();
        assert_eq!(engine.n_docs(), 12);
        // "france" comes from chirac docs: global ids 0, 3, 4, 7, 8, 11
        // (texts cycle with period 4; chirac appears in texts 0 and 3).
        let france = snap.vocab().get("france").unwrap();
        let docs = engine.docs_with(france);
        let ids: Vec<u32> = docs.iter().map(|d| d.0).collect();
        assert_eq!(ids, vec![0, 3, 4, 7, 8, 11]);
    }

    #[test]
    fn append_reuses_resolved_terms() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut index = ShardedFacetIndex::new(1, vec![&e], vec![&r], options());
        let first = index.append(docs_of(&[CHIRAC], 8)).unwrap();
        assert_eq!(first.docs, 8);
        assert_eq!(first.new_distinct_terms, 1);
        assert_eq!(first.reused_terms, 0);
        assert_eq!(first.resource_queries, 1);

        // Same entity again: fully served from the cache.
        let second = index.append(docs_of(&[CHIRAC], 4)).unwrap();
        assert_eq!(second.new_distinct_terms, 0);
        assert_eq!(second.reused_terms, 1);
        assert_eq!(second.resource_queries, 0);

        // A new entity costs exactly one resolution.
        let third = index.append(docs_of(&[MERKEL], 6)).unwrap();
        assert_eq!(third.new_distinct_terms, 1);
        assert_eq!(third.resource_queries, 1);
        assert_eq!(third.generation, 3);
        assert_eq!(index.len(), 18);
        assert_eq!(index.resolved_terms(), 2);
        assert_eq!(r.queries.load(Ordering::SeqCst), 2);
    }

    /// `append_extracted` checks its input before any shard ingests a
    /// document, and given the extractors' own `I(d)` it is exactly
    /// `append`: the same snapshot, with the context facets selected, the
    /// background words left out and a forest over the candidates.
    #[test]
    fn append_extracted_validates_then_matches_append() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut index =
            ShardedFacetIndex::build(corpus(8), 2, vec![&e], vec![&r], options()).unwrap();
        let before = index.snapshot();
        let docs = corpus(6);
        let err = index
            .append_extracted(docs.clone(), vec![Vec::new(); 5])
            .unwrap_err();
        assert_eq!(
            err,
            IndexError::Expansion(ExpansionError::DocumentCountMismatch {
                documents: 6,
                important: 5,
            })
        );
        assert!(Arc::ptr_eq(&before, &index.snapshot()), "snapshot kept");
        assert_eq!(index.snapshot().generation(), before.generation());
        assert_eq!(index.len(), 8);
        assert_eq!(index.shards.iter().map(|s| s.db.len()).sum::<usize>(), 8);
        assert_eq!(index.shards.iter().map(|s| s.ctx.len()).sum::<usize>(), 8);

        let extractors: [&dyn TermExtractor; 1] = [&e];
        let important: Vec<Vec<String>> = docs
            .iter()
            .map(|d| extract_important_terms(&extractors, &d.full_text()))
            .collect();
        index.append_extracted(docs.clone(), important).unwrap();
        let r2 = CountingResource::new();
        let mut reference =
            ShardedFacetIndex::build(corpus(8), 2, vec![&e], vec![&r2], options()).unwrap();
        reference.append(docs).unwrap();
        let snap = index.snapshot();
        assert_eq!(outputs(&snap), outputs(&reference.snapshot()));
        assert_eq!(snap.digest(), reference.snapshot().digest());
        assert_eq!(snap.generation(), before.generation() + 1);

        let terms = snap.facet_terms();
        assert!(terms.contains(&"political leaders"), "{terms:?}");
        assert!(terms.contains(&"france"), "{terms:?}");
        assert!(!terms.contains(&"discussed"), "{terms:?}");
        assert!(snap.forest().total_terms() >= 2);
    }

    #[test]
    fn snapshot_browse_is_read_only_and_shared() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut index =
            ShardedFacetIndex::build(corpus(12), 1, vec![&e], vec![&r], options()).unwrap();
        index.append(corpus(12)).unwrap();
        let snap = index.snapshot();
        let engine = snap.browse();
        assert_eq!(engine.n_docs(), 24);
        let leaders = snap.vocab().get("political leaders").unwrap();
        assert_eq!(engine.docs_with(leaders).len(), 24);
        let france = snap.vocab().get("france").unwrap();
        assert_eq!(engine.docs_with(france).len(), 12);
        // Reads work from plain `&` across threads (Arc-shared state).
        let snap2 = Arc::clone(&snap);
        std::thread::scope(|s| {
            s.spawn(move || {
                let engine = snap2.browse();
                assert_eq!(engine.select(&[france]).len(), 12);
            });
        });
    }

    #[test]
    fn degraded_append_records_provenance_in_snapshot() {
        let e = FixedExtractor;
        let faulty = facet_resources::FaultyResource::new(
            CountingResource::new(),
            facet_resources::FaultPlan::seeded(2, 1000),
            facet_resources::VirtualClock::new(),
        );
        let mut index = ShardedFacetIndex::new(1, vec![&e], vec![&faulty], options());
        index.append(docs_of(&[CHIRAC], 8)).unwrap();
        let snap = index.snapshot();
        assert!(!snap.is_fully_covered());
        assert_eq!(snap.degraded().len(), 1);
        assert_eq!(
            snap.degraded().get("jacques chirac"),
            Some(&vec!["Counting".to_string()]),
            "provenance names the failed resource by its real name"
        );
        // Context facets are missing while degraded.
        assert!(!snap.facet_terms().contains(&"france"));
    }

    /// `n` documents mixing the fixture's entities with background words,
    /// so shard vocabularies intern terms in id-dependent orders.
    fn random_corpus(rng: &mut TestRng, n: usize) -> Vec<Document> {
        const WORDS: [&str; 10] = [
            "Jacques Chirac",
            "Angela Merkel",
            "Tony Blair",
            "budget",
            "summit",
            "harbor",
            "strike",
            "winter",
            "ministers",
            "council",
        ];
        (0..n)
            .map(|i| {
                let words: Vec<&str> = (0..2 + rng.below(6))
                    .map(|_| WORDS[rng.below(WORDS.len() as u64) as usize])
                    .collect();
                Document {
                    id: DocId(i as u32),
                    source: 0,
                    day: 0,
                    title: "Story".into(),
                    text: words.join(" ") + ".",
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// String-identical snapshots digest equal: any shard count 1–4,
        /// expansion thread count 1–2 and random append split publishes
        /// the digest of a 1-shard, 1-thread build that took the corpus in
        /// one append and then as many empty appends as reach the same
        /// generation.
        #[test]
        fn digest_is_equal_across_shards_threads_and_splits(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::deterministic(&format!("digest {seed}"));
            let n_docs = 4 + rng.below(36) as usize;
            let docs = random_corpus(&mut rng, n_docs);
            let mut cuts: Vec<usize> = (0..rng.below(4))
                .map(|_| rng.below(docs.len() as u64) as usize)
                .collect();
            cuts.sort_unstable();
            let e = FixedExtractor;
            let with_threads = |threads| PipelineOptions {
                expansion: ExpansionOptions { threads },
                ..options()
            };
            let r = CountingResource::new();
            let mut reference = ShardedFacetIndex::new(1, vec![&e], vec![&r], with_threads(1));
            reference.append(docs.clone()).unwrap();
            for _ in &cuts {
                reference.append(Vec::new()).unwrap();
            }
            let want = reference.snapshot().digest();
            for shards in 1..=4 {
                for threads in 1..=2 {
                    let r = CountingResource::new();
                    let mut index =
                        ShardedFacetIndex::new(shards, vec![&e], vec![&r], with_threads(threads));
                    let mut start = 0;
                    for &end in cuts.iter().chain([&docs.len()]) {
                        index.append(docs[start..end].to_vec()).unwrap();
                        start = end;
                    }
                    prop_assert_eq!(
                        index.snapshot().digest(),
                        want,
                        "{} shards, {} threads, cuts {:?}",
                        shards,
                        threads,
                        &cuts
                    );
                }
            }
        }
    }
}
