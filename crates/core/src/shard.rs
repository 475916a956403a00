//! The facet index: one pipeline state, data-parallel stages per batch.
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
//! Steps 1–2 work one document at a time; Steps 3–4 (selection and
//! subsumption) are global passes over the frequency tables. The index
//! holds every table once — one [`Vocabulary`], one [`DocTerms`] with
//! `D`'s term rows and `df`, one [`ExpansionCache`] (which also records
//! degraded coverage), one [`ContextualizedDatabase`] with `df_C` and the
//! contextualized rows, the `I(d)` lists and one postings table; the
//! per-document rows all live in chunked [`RowStore`]s — and runs an
//! append as stages over the batch, on `workers` threads where the work
//! is per document:
//!
//! 1. **Extract (parallel).** In windows of `WINDOW_DOCS` (256) documents,
//!    each worker takes a contiguous slice of the window and computes,
//!    per document, its counted term strings ([`term_strings`]) and,
//!    unless the caller supplied it, its `I(d)` from the configured
//!    extractors. Workers touch no index state.
//! 2. **Ingest (serial).** The window's term strings are interned into
//!    the vocabulary in document order and each document's row appended
//!    to `D`'s term rows, delta-updating `df`; windowing bounds the
//!    strings held at once. After the last window the batch's `I(d)`
//!    lists are interned, in document order. The documents themselves are
//!    dropped here: no later step reads their text, so the index keeps
//!    none of it, and the caller owns it
//!    ([`ShardedFacetIndex::append_logged`] keeps each batch in the WAL
//!    until the oldest retained snapshot covers it).
//! 3. **Expand.** Important terms the cache has not seen are resolved on
//!    `workers` threads, each term by one query per resource; their
//!    context terms are interned serially in id order, and each new
//!    document's contextualized row is appended, delta-updating `df_C`
//!    and the postings.
//! 4. **Publish.** Steps 3–4 cost what the batch changed. Selection
//!    keeps a `CandidateSet` across appends: both frequency histograms
//!    and the set of terms with `Shift_f > 0`. A publish moves the terms
//!    the new rows hold, takes the rank bins from the histograms (see
//!    [`crate::selection`]), and scores only the set; only the top k are
//!    sorted. Subsumption keeps one `CoCounts` table for the current
//!    candidate set: a publish frees the terms that left the top k,
//!    counts the new documents' pairs among the terms that stayed, and
//!    fills the entering terms' rows from their postings, so its counting
//!    scales with the batch and the churn, not the corpus. The table
//!    keeps each row's passing list (the counts that can clear the
//!    threshold), rewritten where the counts moved, and parent choice
//!    evaluates only those entries. A fresh, repaired or restored index
//!    builds both states at its next publish: selection by one pass over
//!    the vocabulary, the counts by one scan, its rows split into one
//!    contiguous range per worker and the ranges' counts summed. The
//!    result is published as one new [`FacetSnapshot`] behind an `Arc`,
//!    which shares the rows with the index: they live in an append-only
//!    [`RowStore`] of `Arc`-shared chunks, so a publish clones the chunk
//!    list, and the next append copies at most the one open chunk the
//!    snapshot still shares ([`facet_textkit::rows::CHUNK_ROWS`] rows)
//!    before appending to it.
//!
//! Interning happens on one thread in one order — a batch's corpus terms,
//! then its `I(d)` lists, then its new context terms — so no term id
//! depends on the worker count.
//!
//! **Equivalence invariant:** for every worker count and batch partition
//! of the corpus, the published snapshot is string-identical — facet
//! terms, df/`df_C` statistics, score bits, and forest edges — to an
//! index that received the corpus in one append, and it matches Steps 1–4
//! computed straight from the paper's formulas over strings
//! (`tests/pipeline_oracle.rs`): the same facet terms with the same
//! df/`df_C`, the same forest edges, scores within a relative 1e-9, and
//! the same order up to candidates whose scores lie within that tolerance
//! of each other. Term ids may differ across batch partitions (context
//! terms interleave with later batches' corpus terms), which is why
//! ranking breaks score ties by term string and every other stage is
//! id-order-independent by construction.
//!
//! `workers` is `max(n, options.expansion.threads)`, where `n` is the
//! count [`ShardedFacetIndex::new`] takes; the type keeps its name and
//! that argument for existing callers, and `n` sets nothing but that
//! floor.

use crate::config::PipelineOptions;
use crate::hierarchy::FacetForest;
use crate::index::{AppendStats, DegradedMap, FacetSnapshot, IndexError, RepairStats};
use crate::selection::{rank_stable, CandidateSet, SelectionInputs, SelectionStatistic};
use crate::subsumption::{choose_parents_scanned, CoCounts, RangeCounts, SubsumptionParams};
use facet_corpus::db::{term_strings, DocTerms, TermStrings, TermingOptions};
use facet_corpus::Document;
use facet_obs::{Recorder, SpanContext};
use facet_resources::{
    expand_append_recorded, intern_important_terms, repair_degraded_recorded, CacheStats,
    ContextResource, ContextualizedDatabase, ExpansionCache, ExpansionOptions,
};
use facet_termx::{extract_important_terms, TermExtractor};
use facet_textkit::{InternStats, RowStore, TermId, Vocabulary};
use std::sync::Arc;

/// Documents per extraction window: the extract stage holds the term
/// strings of at most this many documents before ingest interns them.
pub(crate) const WINDOW_DOCS: usize = 256;

/// One document's extract-stage output: its counted term strings, and
/// its `I(d)` (empty when the caller supplied the lists).
type Termed = (TermStrings, Vec<String>);

/// The incrementally-updatable facet index. See the [module docs](self)
/// for the stages of an append and the equivalence invariant. The
/// `pub(crate)` fields are the state [`crate::persist`] encodes and
/// restores; outside this impl, only the restore path writes them,
/// before it rebuilds the postings and the degraded map through the
/// crate-private `reindex`.
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
    resources: Vec<&'a dyn ContextResource>,
    /// Per resource, the queries this index sent it (see
    /// [`ShardedFacetIndex::resource_cache_stats`]). Never persisted.
    queries: Vec<CacheStats>,
    pub(crate) options: PipelineOptions,
    pub(crate) statistic: SelectionStatistic,
    recorder: Recorder,
    /// The floor on the worker count, from [`ShardedFacetIndex::new`].
    min_workers: usize,
    pub(crate) vocab: Vocabulary,
    /// `D`'s counted terms: one row per document and `df`.
    pub(crate) db: DocTerms,
    /// Every resolved important term, with its degraded-coverage
    /// provenance ([`facet_resources::ResolvedTerm::failed`]).
    pub(crate) cache: ExpansionCache,
    /// `C(D)`: the contextualized rows and `df_C`. Each published
    /// snapshot holds a clone of the rows sharing every chunk.
    pub(crate) ctx: ContextualizedDatabase,
    /// `I(d)` per document, kept so a repair pass can recompute exactly
    /// the documents that use a re-resolved term.
    pub(crate) important: RowStore,
    /// `postings[sym]`: the rows of `ctx` containing term `sym`,
    /// ascending; extended with each append's rows.
    postings: Vec<Vec<u32>>,
    /// Subsumption counts for the last published candidate set, advanced
    /// by each publish. `None` on a fresh, repaired or restored index
    /// until its next publish rebuilds it by scan. Never persisted.
    co_counts: Option<CoCounts>,
    /// Selection's histograms and `Shift_f > 0` set for the last
    /// published tables, advanced by each publish. `None` on a fresh,
    /// repaired or restored index until its next publish builds it by one
    /// pass over the vocabulary. Never persisted.
    selection: Option<CandidateSet>,
    /// The degraded map the next publish carries: every degraded term's
    /// provenance, keyed by term string. An append adds the terms it
    /// resolved degraded; repair and restore rebuild it from the cache.
    degraded: Arc<DegradedMap>,
    /// The current published snapshot. Every update, restore's included,
    /// goes through [`ShardedFacetIndex::publish`]; it takes `&mut self`,
    /// so no reader of this field can overlap it.
    snapshot: Arc<FacetSnapshot>,
    pub(crate) generation: u64,
}

impl<'a> ShardedFacetIndex<'a> {
    /// An empty index with the paper's configuration (log-likelihood
    /// ranking, default terming). Appends run their per-document stages
    /// on `max(n, options.expansion.threads)` threads (at least one).
    pub fn new(
        n: usize,
        extractors: Vec<&'a dyn TermExtractor>,
        resources: Vec<&'a dyn ContextResource>,
        options: PipelineOptions,
    ) -> Self {
        let vocab = Vocabulary::new();
        let snapshot = Arc::new(FacetSnapshot::assemble(
            0,
            vocab.freeze(),
            RowStore::new(),
            Vec::new(),
            FacetForest::default(),
            &[],
            Arc::default(),
        ));
        Self {
            extractors,
            queries: vec![
                CacheStats {
                    hits: 0,
                    misses: 0,
                    failures: 0
                };
                resources.len()
            ],
            resources,
            options,
            statistic: SelectionStatistic::LogLikelihood,
            recorder: Recorder::disabled(),
            min_workers: n,
            vocab,
            db: DocTerms::new(TermingOptions::default()),
            cache: ExpansionCache::new(),
            ctx: ContextualizedDatabase::empty(),
            important: RowStore::new(),
            postings: Vec::new(),
            co_counts: None,
            selection: None,
            degraded: Arc::default(),
            snapshot,
            generation: 0,
        }
    }

    /// Build an index over an initial corpus: [`ShardedFacetIndex::new`]
    /// followed by one [`ShardedFacetIndex::append`].
    pub fn build(
        docs: Vec<Document>,
        n: usize,
        extractors: Vec<&'a dyn TermExtractor>,
        resources: Vec<&'a dyn ContextResource>,
        options: PipelineOptions,
    ) -> Result<Self, IndexError> {
        let mut index = Self::new(n, extractors, resources, options);
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
    /// (`extract` per worker and window — the workers run on their own
    /// threads and carry the full dotted name — then `ingest`, `expand`,
    /// `freeze`, `select`, `subsumption` and `swap`) and counters
    /// (`append.docs`, `append.new_distinct_terms`,
    /// `append.reused_terms`, `append.snapshot_swaps`).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The threads an append's per-document stages run on.
    fn workers(&self) -> usize {
        self.min_workers.max(self.options.expansion.threads).max(1)
    }

    /// The configured options.
    pub fn options(&self) -> &PipelineOptions {
        &self.options
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Number of documents currently indexed.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// True if no documents have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Distinct important terms resolved so far (the expansion cache's
    /// size).
    pub fn resolved_terms(&self) -> usize {
        self.cache.len()
    }

    /// The queries this index sent each resource, in resource order:
    /// `misses` counts the ones that succeeded and `failures` the ones
    /// that failed. `hits` is always 0: the expansion cache resolves
    /// each distinct term once, so no query is ever repeated to be
    /// answered from a memo. A repair re-queries every resource of a
    /// degraded term. The counts start at 0 on a restored index.
    pub fn resource_cache_stats(&self) -> Vec<CacheStats> {
        self.queries.clone()
    }

    /// Count `terms` queries to every resource, `failed[i]` of which
    /// failed on resource `i` (as the expansion outcome counted them);
    /// returns the successful ones.
    fn count_queries(&mut self, terms: usize, failed: &[u64]) -> u64 {
        let mut answered = 0;
        for (q, &f) in self.queries.iter_mut().zip(failed) {
            q.misses += terms as u64 - f;
            q.failures += f;
            answered += terms as u64 - f;
        }
        answered
    }

    /// Hit/miss/len counters of the index's vocabulary (the
    /// `textkit.intern.*` metrics `perfbench` reports): every corpus,
    /// `I(d)` and context term the index interned.
    pub fn intern_stats(&self) -> InternStats {
        self.vocab.stats()
    }

    /// The current snapshot, as an `Arc` clone: callers keep the
    /// returned snapshot for as long as they like, entirely unaffected
    /// by later appends publishing newer generations.
    pub fn snapshot(&self) -> Arc<FacetSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// Append a batch of documents and publish a new snapshot.
    ///
    /// Documents get ids `len()..len()+batch.len()` whatever ids they
    /// carry — a document's id is its position, so month batches whose
    /// ids restart from zero can be fed directly — and go through the
    /// extract, ingest and expand stages before selection and subsumption
    /// re-run over the updated tables (see the [module docs](self)). The
    /// index keeps the documents' counted terms, not the documents.
    ///
    /// # Errors
    /// Returns [`IndexError`] if the expansion state is corrupted. The
    /// published snapshot is left untouched, so a serving process can
    /// keep answering from the previous generation; the index itself
    /// should be discarded, since it may have ingested documents it
    /// could not expand.
    pub fn append(&mut self, batch: Vec<Document>) -> Result<AppendStats, IndexError> {
        self.append_with(batch, None, self.generation + 1)
    }

    /// [`ShardedFacetIndex::append`], publishing at `generation` instead
    /// of the next one: recovery replays a run of logged appends as one
    /// batch that lands on the run's last sequence number.
    pub(crate) fn append_at(
        &mut self,
        batch: Vec<Document>,
        generation: u64,
    ) -> Result<AppendStats, IndexError> {
        self.append_with(batch, None, generation)
    }

    /// [`ShardedFacetIndex::append`] with Step 1 already done:
    /// `important[i]` is `I(d)` for `batch[i]`, used in place of the
    /// configured extractors' output. Lets a caller share one extraction
    /// across several indexes (the evaluation grid builds one index per
    /// resource configuration over the same `I(d)`).
    ///
    /// # Errors
    /// [`IndexError::Expansion`] with
    /// [`facet_resources::ExpansionError::DocumentCountMismatch`] when
    /// `important` does not hold one list per document; this is checked
    /// before any document is ingested, so the index, its length,
    /// generation and published snapshot are unchanged. Otherwise as
    /// [`ShardedFacetIndex::append`].
    pub fn append_extracted(
        &mut self,
        batch: Vec<Document>,
        important: Vec<Vec<String>>,
    ) -> Result<AppendStats, IndexError> {
        if important.len() != batch.len() {
            return Err(IndexError::Expansion(
                facet_resources::ExpansionError::DocumentCountMismatch {
                    documents: batch.len(),
                    important: important.len(),
                },
            ));
        }
        self.append_with(batch, Some(important), self.generation + 1)
    }

    /// The one append path: `important` is `I(d)` per document, or `None`
    /// to have the extract stage compute it; the result publishes at
    /// `generation`.
    fn append_with(
        &mut self,
        batch: Vec<Document>,
        important: Option<Vec<Vec<String>>>,
        generation: u64,
    ) -> Result<AppendStats, IndexError> {
        // The span guard borrows its recorder; a clone (one `Arc` bump)
        // leaves `self` free for the stages below.
        let recorder = self.recorder.clone();
        let _append_span = recorder.span("append");
        let workers = self.workers();
        _append_span.attr("docs", batch.len() as u64);
        _append_span.attr("workers", workers as u64);
        // Captured here so worker threads (fresh span stacks) can parent
        // their spans under this append span.
        let trace_parent = facet_obs::current_context();
        let intern_before = self.vocab.stats();
        let start = self.db.len();
        let docs = batch.len();

        // ---- extract (parallel) and ingest (serial), window by window ---
        let extract = important.is_none();
        let mut lists = important.unwrap_or_else(|| Vec::with_capacity(docs));
        let mut batch = batch.into_iter();
        loop {
            let window: Vec<Document> = batch.by_ref().take(WINDOW_DOCS).collect();
            if window.is_empty() {
                break;
            }
            let termed = self.extract_window(&window, extract, workers, trace_parent);
            drop(window);
            let _span = recorder.span("ingest");
            for (terms, found) in termed {
                self.db.push(&terms, &mut self.vocab);
                if extract {
                    lists.push(found);
                }
            }
        }
        let new_important = {
            let _span = recorder.span("ingest");
            intern_important_terms(&mut self.vocab, &lists)
        };
        // Interned: the strings need not outlive expansion's allocations.
        drop(lists);

        // ---- expand ------------------------------------------------------
        let outcome = {
            let _span = recorder.span("expand");
            expand_append_recorded(
                &self.db,
                start..start + docs,
                &new_important,
                &self.resources,
                &mut self.vocab,
                &ExpansionOptions { threads: workers },
                &recorder,
                &mut self.cache,
                &mut self.ctx,
            )?
        };
        for terms in &new_important {
            self.important.push(terms);
        }
        self.index_rows(start);
        self.degraded = self.add_degraded(&self.degraded, outcome.degraded);
        self.publish(generation, outcome.rows_copied);

        let resource_queries = self.count_queries(outcome.new_distinct_terms, &outcome.failures);
        let intern_after = self.vocab.stats();
        self.recorder
            .add("intern.hits", intern_after.hits - intern_before.hits);
        self.recorder
            .add("intern.misses", intern_after.misses - intern_before.misses);
        self.recorder
            .add("intern.len", (intern_after.len - intern_before.len) as u64);
        self.recorder.add("append.docs", docs as u64);
        self.recorder.add(
            "append.new_distinct_terms",
            outcome.new_distinct_terms as u64,
        );
        self.recorder
            .add("append.reused_terms", outcome.reused_terms as u64);
        self.recorder.incr("append.snapshot_swaps");

        Ok(AppendStats {
            docs,
            new_distinct_terms: outcome.new_distinct_terms,
            reused_terms: outcome.reused_terms,
            resource_queries,
            generation: self.generation,
        })
    }

    /// The extract stage over one window: per document, its counted term
    /// strings and, when `extract`, its `I(d)`, in window order. The
    /// window is cut into `workers` contiguous slices; the first runs on
    /// this thread, the rest on scoped worker threads, each under an
    /// `append.extract` span.
    fn extract_window(
        &self,
        window: &[Document],
        extract: bool,
        workers: usize,
        trace_parent: Option<SpanContext>,
    ) -> Vec<Termed> {
        let mut termed: Vec<Termed> = Vec::new();
        termed.resize_with(window.len(), Default::default);
        let extractors = &self.extractors;
        let terming = self.db.options();
        let recorder = &self.recorder;
        let work = |docs: &[Document], out: &mut [Termed], parent, span: &str| {
            let _span = recorder.span_under(parent, span);
            _span.attr("docs", docs.len() as u64);
            for (d, slot) in docs.iter().zip(out) {
                let text = d.full_text();
                if extract {
                    slot.1 = extract_important_terms(extractors, &text);
                }
                slot.0 = term_strings(&text, terming);
            }
        };
        let per = window.len().div_ceil(workers).max(1);
        rayon::scope(|s| {
            let mut parts = window.chunks(per).zip(termed.chunks_mut(per));
            let first = parts.next();
            for (docs, out) in parts {
                let work = &work;
                // A worker thread has a fresh span stack: its span carries
                // the full dotted name and the captured trace parent.
                s.spawn(move |_| work(docs, out, trace_parent, "append.extract"));
            }
            if let Some((docs, out)) = first {
                work(docs, out, None, "extract");
            }
        });
        termed
    }

    /// Backfill pass over degraded-coverage terms: re-query exactly the
    /// important terms recorded in [`FacetSnapshot::degraded`] (serially,
    /// in term order), recompute the documents that use a term whose
    /// resolution changed, re-rank, and publish a new snapshot.
    ///
    /// The postings are then rebuilt from every row, and the subsumption
    /// counts by one scan at publish — O(corpus), split over the workers,
    /// acceptable for a rare backfill. The df table over `D` is
    /// untouched: repair never changes the corpus itself.
    ///
    /// Once the failing resources have recovered (e.g. a circuit breaker
    /// has closed), the repaired snapshot is string-identical — facet
    /// terms, frequencies, score bits, forest edges, and (empty)
    /// degradation — to a build that never saw a fault. Terms whose
    /// resources are still failing keep their provenance and stay
    /// eligible for the next pass. With no degradation outstanding this
    /// is a no-op: nothing is re-queried and no snapshot is published.
    ///
    /// # Errors
    /// Returns [`IndexError`] if the repair state is corrupted; the
    /// published snapshot is untouched.
    pub fn repair(&mut self) -> Result<RepairStats, IndexError> {
        let recorder = self.recorder.clone();
        let _span = recorder.span("repair");
        let outcome = repair_degraded_recorded(
            &self.db,
            &self.important,
            &self.resources,
            &mut self.vocab,
            &recorder,
            &mut self.cache,
            &mut self.ctx,
        )?;
        self.count_queries(outcome.requeried_terms, &outcome.failures);
        if outcome.requeried_terms > 0 {
            self.reindex();
            self.publish(self.generation + 1, 0);
            self.recorder.incr("repair.snapshot_swaps");
        }
        Ok(RepairStats {
            requeried_terms: outcome.requeried_terms,
            repaired_terms: outcome.repaired_terms,
            still_degraded: outcome.still_degraded,
            changed_docs: outcome.changed_docs,
            generation: self.generation,
        })
    }

    /// Add the rows of `ctx` from `start` on to the postings.
    fn index_rows(&mut self, start: usize) {
        self.postings.resize_with(self.vocab.len(), Vec::new);
        for (row, terms) in self.ctx.rows().iter_from(start).enumerate() {
            for t in terms {
                self.postings[t.index()].push((start + row) as u32);
            }
        }
    }

    /// Rebuild the postings from every row and the degraded map from the
    /// cache, and drop the selection state and the subsumption counts so
    /// the next publish builds them afresh: what repair runs after
    /// rewriting rows and restore runs after decoding them.
    pub(crate) fn reindex(&mut self) {
        self.postings.clear();
        self.index_rows(0);
        self.co_counts = None;
        self.selection = None;
        let degraded: Vec<TermId> = self.cache.degraded().map(|(t, _)| t).collect();
        self.degraded = self.add_degraded(&Arc::default(), degraded);
    }

    /// Publish the state as it stands at `generation`: what recovery
    /// runs when a restored index has no logged append to publish it, or
    /// when a replayed repair finds nothing left to re-query.
    pub(crate) fn publish_at(&mut self, generation: u64) {
        self.publish(generation, 0);
    }

    /// `base` plus the provenance the cache holds for `terms`, keyed by
    /// term string: the degraded map a snapshot publishes. An append adds
    /// the terms it resolved degraded to the current map (shared, not
    /// copied, when there are none); repair and restore build it from
    /// every degraded entry.
    fn add_degraded(&self, base: &Arc<DegradedMap>, terms: Vec<TermId>) -> Arc<DegradedMap> {
        let mut map = Arc::clone(base);
        for t in terms {
            let failed = self.cache.resolution(t).map(|r| r.failed.clone());
            let term = self.vocab.term(t).to_string();
            Arc::make_mut(&mut map).insert(term, failed.unwrap_or_default());
        }
        map
    }

    /// Re-run Step 3 (selection) over the tables and bring the
    /// subsumption counts up to the new candidate set and rows, advancing
    /// the state each keeps (or building it, if there is none yet), run
    /// Step 4's parent choice over the counts, set the generation to
    /// `generation`, and replace the published snapshot with the new one,
    /// which carries the degraded map — the index's one publish path,
    /// shared by append, repair and restore. The snapshot shares the
    /// rows' chunks with the index; `rows_copied` is what the append
    /// before it copied to push its rows. Records the `freeze` span, the
    /// `select` span (attributes: `terms`, the vocabulary size; `scanned`,
    /// the `Shift_f > 0` terms it tested; `candidates`, those passing
    /// every filter), the `subsumption` span (`pairs_scanned`: the count
    /// entries read to choose parents — every entry of the table when it
    /// was built by scan, else the passing-list entries evaluated) and the
    /// `swap` span (`rows_copied`).
    fn publish(&mut self, generation: u64, rows_copied: usize) {
        // One freeze per publish: ranking, forest, and snapshot share it.
        let frozen = {
            let _span = self.recorder.span("freeze");
            self.vocab.freeze()
        };
        let candidates = {
            let span = self.recorder.span("select");
            let inputs = SelectionInputs {
                df: self.db.df_table(),
                df_c: self.ctx.df_table(),
                n_docs: self.db.len() as u64,
            };
            let set = match &mut self.selection {
                Some(set) => {
                    set.advance(inputs, self.db.rows(), self.ctx.rows());
                    set
                }
                None => self.selection.insert(CandidateSet::build(inputs)),
            };
            let found = set.select(inputs, self.statistic, self.options.min_df_c);
            span.attr("terms", self.vocab.len() as u64);
            span.attr("scanned", set.len() as u64);
            span.attr("candidates", found.len() as u64);
            rank_stable(found, self.options.top_k, &frozen)
        };
        let rows = self.ctx.rows();
        let forest = {
            let span = self.recorder.span("subsumption");
            let terms: Vec<TermId> = candidates.iter().map(|c| c.term).collect();
            let params = SubsumptionParams {
                threshold: self.options.subsumption_threshold,
                ..Default::default()
            };
            let (counts, fresh) = match &mut self.co_counts {
                Some(counts) => {
                    counts.advance(&terms, rows, &self.postings);
                    (counts, false)
                }
                None => (self.co_counts.insert(self.scan_counts(&terms)), true),
            };
            let (sub, evaluated) = choose_parents_scanned(&terms, counts, params);
            let k = terms.len() as u64;
            span.attr("pairs_scanned", if fresh { k * k } else { evaluated });
            let df_c = self.ctx.df_table();
            FacetForest::from_subsumption(&sub, &frozen, |t| {
                df_c.get(t.index()).copied().unwrap_or(0)
            })
        };
        self.generation = generation;
        let span = self.recorder.span("swap");
        span.attr("rows_copied", rows_copied as u64);
        self.snapshot = Arc::new(FacetSnapshot::assemble(
            self.generation,
            frozen,
            rows.clone(),
            candidates,
            forest,
            &self.postings,
            Arc::clone(&self.degraded),
        ));
    }

    /// `CoCounts::scan` of `terms` over every contextualized row, for
    /// the configured threshold, on the workers: the rows are cut into
    /// `workers` contiguous ranges, the first counted on this thread and
    /// the rest on scoped worker threads, and the ranges' counts are
    /// summed. The table is the same at any worker count.
    fn scan_counts(&self, terms: &[TermId]) -> CoCounts {
        let rows = self.ctx.rows();
        let mut counts = CoCounts::with_slots(terms, self.options.subsumption_threshold);
        let per = rows.len().div_ceil(self.workers()).max(1);
        let starts: Vec<usize> = (0..rows.len()).step_by(per).collect();
        let mut ranges: Vec<Option<RangeCounts>> = starts.iter().map(|_| None).collect();
        let table = &counts;
        let count = |start: usize| table.count_range(rows.iter_from(start).take(per));
        rayon::scope(|s| {
            let mut parts = starts.iter().zip(ranges.iter_mut());
            let first = parts.next();
            for (&start, out) in parts {
                let count = &count;
                s.spawn(move |_| *out = Some(count(start)));
            }
            if let Some((&start, out)) = first {
                *out = Some(count(start));
            }
        });
        counts.absorb(ranges.into_iter().flatten().collect());
        counts
    }
}

/// Fixtures shared with the other modules' index tests.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use facet_corpus::DocId;
    use facet_resources::ExpansionError;
    use facet_textkit::rows::CHUNK_ROWS;
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

    pub(crate) fn with_threads(threads: usize) -> PipelineOptions {
        PipelineOptions {
            expansion: ExpansionOptions { threads },
            ..options()
        }
    }

    #[test]
    fn empty_index_has_generation_zero() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let index = ShardedFacetIndex::new(4, vec![&e], vec![&r], options());
        assert!(index.is_empty());
        assert_eq!(index.snapshot().generation(), 0);
    }

    /// The count `new` takes floors the expansion threads; zero of both
    /// still leaves one worker.
    #[test]
    fn workers_are_the_larger_of_count_and_threads() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        for (n, threads, workers) in [(0, 0, 1), (0, 1, 1), (3, 2, 3), (1, 4, 4)] {
            let index = ShardedFacetIndex::new(n, vec![&e], vec![&r], with_threads(threads));
            assert_eq!(index.workers(), workers, "n {n}, threads {threads}");
        }
    }

    /// Appends assign positional ids whatever ids the batch carries: the
    /// second batch restarts its ids at 0, and browsing still finds every
    /// document under its position.
    #[test]
    fn appends_assign_positional_ids() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut index = ShardedFacetIndex::new(3, vec![&e], vec![&r], options());
        let stats = index.append(corpus(8)).unwrap();
        assert_eq!(stats.docs, 8);
        index.append(corpus(WINDOW_DOCS + 1)).unwrap();
        assert_eq!(index.len(), WINDOW_DOCS + 9);
        let snap = index.snapshot();
        assert_eq!(snap.n_docs(), WINDOW_DOCS + 9);
        let leaders = snap.vocab().get("political leaders").unwrap();
        let ids: Vec<u32> = snap
            .browse()
            .docs_with(leaders)
            .iter()
            .map(|d| d.0)
            .collect();
        assert_eq!(ids, (0..(WINDOW_DOCS + 9) as u32).collect::<Vec<_>>());
    }

    /// Every worker count interns the same terms in the same order, so
    /// the snapshots agree on ids and rows, not only on strings.
    #[test]
    fn worker_counts_do_not_change_ids() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let docs = corpus(WINDOW_DOCS + 24);
        let one =
            ShardedFacetIndex::build(docs.clone(), 1, vec![&e], vec![&r], with_threads(1)).unwrap();
        let expected = outputs(&one.snapshot());
        assert!(!expected.0.is_empty(), "the corpus must yield facet terms");
        let terms = |index: &ShardedFacetIndex<'_>| -> Vec<String> {
            index.vocab.iter().map(|(_, t)| t.to_string()).collect()
        };
        for n in [2, 3, 4, 8] {
            let r = CountingResource::new();
            let index =
                ShardedFacetIndex::build(docs.clone(), n, vec![&e], vec![&r], with_threads(1))
                    .unwrap();
            assert_eq!(outputs(&index.snapshot()), expected, "{n} workers");
            assert_eq!(terms(&index), terms(&one), "{n} workers: interning order");
            assert_eq!(index.ctx.rows(), one.ctx.rows(), "{n} workers: rows");
            assert_eq!(index.important, one.important, "{n} workers: I(d)");
        }
    }

    /// The publish path's scan, split over 1–4 workers, builds the table
    /// one serial scan builds, over more rows than one chunk holds.
    #[test]
    fn split_scan_equals_serial_scan() {
        let e = FixedExtractor;
        for n in 1..=4 {
            let r = CountingResource::new();
            let index =
                ShardedFacetIndex::build(corpus(CHUNK_ROWS + 37), n, vec![&e], vec![&r], options())
                    .unwrap();
            let terms: Vec<TermId> = index
                .snapshot()
                .candidates()
                .iter()
                .map(|c| c.term)
                .collect();
            assert!(terms.len() > 2);
            let threshold = index.options.subsumption_threshold;
            let serial = CoCounts::scan(&terms, index.ctx.rows(), threshold);
            assert_eq!(index.scan_counts(&terms), serial, "{n} workers");
            assert_eq!(index.co_counts.as_ref(), Some(&serial), "{n} workers");
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
    fn each_distinct_term_is_queried_once() {
        // All three entities recur across the batch, yet the wrapped
        // resource must be queried exactly once per entity.
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut index = ShardedFacetIndex::new(4, vec![&e], vec![&r], options());
        let stats = index.append(corpus(16)).unwrap();
        assert_eq!(r.queries.load(Ordering::SeqCst), 3);
        assert_eq!(stats.resource_queries, 3);
        assert_eq!(stats.new_distinct_terms, 3);
        let cache = &index.resource_cache_stats()[0];
        assert_eq!(cache.misses, 3);
        assert_eq!(
            cache.hits + cache.misses,
            stats.new_distinct_terms as u64,
            "every resolution went through the shared cache"
        );

        // A later append re-resolves nothing.
        let stats = index.append(corpus(4)).unwrap();
        assert_eq!(stats.resource_queries, 0);
        assert_eq!(r.queries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn repair_converges_across_worker_counts() {
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
            let mut index =
                ShardedFacetIndex::build(corpus(24), n, vec![&e], vec![&faulty], options())
                    .unwrap();
            let snap = index.snapshot();
            assert!(!snap.is_fully_covered(), "{n} workers: build saw faults");
            assert_eq!(snap.degraded().len(), 3, "all three entities degraded");

            faulty.heal();
            let stats = index.repair().unwrap();
            assert_eq!(stats.repaired_terms, 3, "{n} workers: {stats:?}");
            assert_eq!(stats.still_degraded, 0);
            let repaired = index.snapshot();
            assert!(repaired.is_fully_covered());
            assert_eq!(
                outputs(&repaired),
                expected,
                "{n} workers: repaired snapshot must match the fault-free build"
            );

            // Idempotent once converged.
            let stats = index.repair().unwrap();
            assert_eq!(stats.requeried_terms, 0);
            assert_eq!(stats.generation, repaired.generation());
        }
    }

    /// [`CountingResource`] under another name.
    struct Renamed(CountingResource);
    impl ContextResource for Renamed {
        fn name(&self) -> &'static str {
            "Renamed"
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            self.0.context_terms(term)
        }
    }

    #[test]
    fn query_counts_split_successes_from_failures() {
        let e = FixedExtractor;
        let faulty = facet_resources::FaultyResource::new(
            CountingResource::new(),
            facet_resources::FaultPlan::seeded(7, 1000),
            facet_resources::VirtualClock::new(),
        );
        let other = Renamed(CountingResource::new());
        let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&faulty, &other], options());
        let counts = |index: &ShardedFacetIndex<'_>| -> Vec<(u64, u64, u64)> {
            let stats = index.resource_cache_stats();
            stats
                .iter()
                .map(|s| (s.hits, s.misses, s.failures))
                .collect()
        };
        // Three fresh entities: every query to the faulty resource fails.
        let stats = index.append(corpus(8)).unwrap();
        assert_eq!(stats.resource_queries, 3);
        assert_eq!(counts(&index), vec![(0, 0, 3), (0, 3, 0)]);

        // Repair re-queries every resource of each degraded term.
        faulty.heal();
        assert_eq!(index.repair().unwrap().repaired_terms, 3);
        assert_eq!(counts(&index), vec![(0, 3, 3), (0, 6, 0)]);
        assert_eq!(other.0.queries.load(Ordering::SeqCst), 6);

        // Answered terms are not queried again.
        assert_eq!(index.append(corpus(4)).unwrap().resource_queries, 0);
        assert_eq!(counts(&index), vec![(0, 3, 3), (0, 6, 0)]);
    }

    #[test]
    fn append_records_stage_spans() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let recorder = Recorder::enabled();
        let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&r], with_threads(1))
            .with_recorder(recorder.clone());
        index.append(corpus(8)).unwrap();
        let counts = recorder.snapshot_counts_only();
        assert_eq!(counts["span.append.count"], 1);
        // One window over two workers; ingest once for it and once for
        // the I(d) lists.
        assert_eq!(counts["span.append.extract.count"], 2);
        assert_eq!(counts["span.append.ingest.count"], 2);
        assert_eq!(counts["span.append.expand.count"], 1);
        assert_eq!(counts["span.append.select.count"], 1);
        assert_eq!(counts["span.append.subsumption.count"], 1);
        assert_eq!(counts["span.append.swap.count"], 1);
        assert_eq!(counts["counter.append.docs"], 8);
        assert_eq!(counts["counter.append.snapshot_swaps"], 1);
    }

    /// Tracing across the rayon thread hop: extract worker spans must be
    /// parented under the `append` root span via the captured
    /// [`facet_obs::SpanContext`], so the trace tree is structurally
    /// deterministic even though workers run on their own threads.
    #[test]
    fn traced_append_parents_worker_spans_under_append() {
        use facet_obs::{TickClock, Tracer, TracerConfig};
        let e = FixedExtractor;
        let r = CountingResource::new();
        let tracer = Tracer::with_clock(
            TracerConfig::default(),
            std::sync::Arc::new(TickClock::new()),
        );
        let recorder = Recorder::traced(tracer);
        let mut index = ShardedFacetIndex::new(3, vec![&e], vec![&r], with_threads(1))
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
        // The first of three slices runs on the appending thread, the
        // other two on workers.
        let workers: Vec<_> = t
            .spans
            .iter()
            .filter(|s| s.name == "append.extract")
            .collect();
        assert_eq!(workers.len(), 2);
        for s in workers {
            assert_eq!(s.parent, Some(root.id), "worker span parented under append");
        }
        // Every serial step nests in the same trace.
        for stage in [
            "extract",
            "ingest",
            "expand",
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

    /// The publish spans count what the publish evaluated: `scanned` is
    /// the `Shift_f > 0` set, between the candidates and the vocabulary,
    /// and an advanced publish's `pairs_scanned` is the passing-list
    /// entries parent choice evaluated, not the k² a scan reads.
    #[test]
    fn publish_spans_count_the_maintained_state() {
        use facet_obs::{AttrValue, TickClock, Tracer, TracerConfig};
        let e = FixedExtractor;
        let r = CountingResource::new();
        let tracer = Tracer::with_clock(TracerConfig::default(), Arc::new(TickClock::new()));
        let recorder = Recorder::traced(tracer);
        let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&r], with_threads(1))
            .with_recorder(recorder.clone());
        index
            .append(random_corpus(&mut TestRng::deterministic("spans"), 24))
            .unwrap();
        index.append(corpus(8)).unwrap();
        let traces = recorder.tracer().unwrap().finished();
        let attr = |span: &str, key: &str| {
            let s = traces[1].spans.iter().find(|s| s.name == span).unwrap();
            match s.attrs.iter().find(|(k, _)| k == key) {
                Some((_, AttrValue::U64(v))) => *v,
                other => panic!("{span} attribute {key}: {other:?}"),
            }
        };
        let (df, df_c) = (index.db.df_table(), index.ctx.df_table());
        let shifted = (0..df_c.len())
            .filter(|&t| df_c[t] > df.get(t).copied().unwrap_or(0))
            .count() as u64;
        assert_eq!(attr("select", "scanned"), shifted);
        assert!(attr("select", "candidates") <= shifted);
        assert!(shifted < attr("select", "terms"));
        let terms: Vec<TermId> = index
            .snapshot()
            .candidates()
            .iter()
            .map(|c| c.term)
            .collect();
        let params = SubsumptionParams {
            threshold: index.options.subsumption_threshold,
            ..Default::default()
        };
        let counts = index.co_counts.as_ref().unwrap();
        let (_, evaluated) = choose_parents_scanned(&terms, counts, params);
        assert_eq!(attr("subsumption", "pairs_scanned"), evaluated);
        assert!(evaluated < (terms.len() * terms.len()) as u64);
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
        index.append(corpus(CHUNK_ROWS + 3)).unwrap();
        assert_eq!(outputs(&old), old_outputs, "frozen snapshot unchanged");
        assert_eq!(old.n_docs(), 8);
        assert!(old
            .doc_terms()
            .iter()
            .eq(old_rows.iter().map(Vec::as_slice)));
        assert_eq!(old.digest(), old_digest);
        assert!(index.snapshot().generation() > old.generation());
        assert_eq!(index.snapshot().n_docs(), 16 + CHUNK_ROWS + 3);
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

    /// `append_extracted` checks its input before it ingests a document, and given the extractors' own `I(d)` it is exactly
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
        assert_eq!(index.db.len(), 8);
        assert_eq!(index.ctx.len(), 8);
        assert_eq!(index.important.len(), 8);

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
    /// so append splits intern terms in different orders.
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

        /// String-identical snapshots digest equal: any worker floor 1–4,
        /// expansion thread count 1–2 and random append split publishes
        /// the digest of a 1-worker build that took the corpus in one
        /// append and then as many empty appends as reach the same
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
