//! Document expansion: building the contextualized database `C(D)`
//! (Figure 2 of the paper).
//!
//! For every document, each important term is sent to every configured
//! resource; the union of retrieved context terms is added to the
//! document. Since the same important term recurs across many documents,
//! resource queries are resolved once per *distinct* term (memoized), and
//! the distinct-term resolution fans out across threads with crossbeam.
//!
//! The engine is **incremental**: [`expand_append_recorded`] expands only
//! a suffix of the database (newly-appended documents) into an existing
//! [`ContextualizedDatabase`], resolving only the important terms that an
//! [`ExpansionCache`] has not seen in any earlier batch. A one-shot
//! expansion is the degenerate case: one batch over the whole database
//! with a fresh cache, which is what makes batch and incremental
//! expansion produce identical results.
//!
//! Since the global-interner refactor the whole engine speaks
//! [`TermId`]s: important terms arrive pre-interned
//! ([`intern_important_terms`]), the [`ExpansionCache`] is a dense
//! symbol-indexed table, and memoized context terms are stored as symbols
//! — so the per-document hot path copies `u32`s out of the cache instead
//! of re-hashing and re-interning strings for every document. Term
//! *strings* are materialized only at the resource backend boundary
//! (queries go out as text).
//!
//! The engine reads nothing of the corpus but its counted terms
//! ([`DocTerms`]): document text is Step 1's input only.

use crate::resource::ContextResource;
use facet_corpus::DocTerms;
use facet_obs::{Counter, HistogramHandle, Recorder};
use facet_textkit::{is_stopword, normalize_term, RowStore, SymTable, TermId, Vocabulary};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::ops::Range;

/// A structural mismatch between the expansion inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpansionError {
    /// `important_terms` does not align one-to-one with the documents to
    /// expand (one `I(d)` list per document is required).
    DocumentCountMismatch {
        /// Documents the caller asked to expand.
        documents: usize,
        /// `I(d)` lists supplied.
        important: usize,
    },
    /// An incremental append's document range does not continue the
    /// existing contextualized state (`ctx.len()` must equal the range
    /// start, and the range must end at the database's current length).
    AppendMisaligned {
        /// Documents already present in the contextualized database.
        ctx_docs: usize,
        /// The requested document range.
        range: Range<usize>,
        /// Documents in the underlying database.
        db_docs: usize,
    },
    /// A parallel distinct-term resolution worker panicked. No expansion
    /// state was modified; the append can be retried.
    WorkerPanicked,
}

impl std::fmt::Display for ExpansionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpansionError::DocumentCountMismatch {
                documents,
                important,
            } => write!(
                f,
                "one I(d) per document required: {documents} documents but {important} \
                 important-term lists"
            ),
            ExpansionError::AppendMisaligned {
                ctx_docs,
                range,
                db_docs,
            } => write!(
                f,
                "append range {range:?} does not continue the contextualized database \
                 ({ctx_docs} documents expanded, {db_docs} in the database)"
            ),
            ExpansionError::WorkerPanicked => {
                write!(f, "a distinct-term resolution worker panicked")
            }
        }
    }
}

impl std::error::Error for ExpansionError {}

/// One memoized term resolution: the context terms retrieved from the
/// resources that answered (as symbols of the expansion vocabulary),
/// plus the names of the resources that failed (empty when coverage is
/// complete).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolvedTerm {
    /// Union of context terms from every resource that answered,
    /// normalized and deduplicated in resource-priority order, interned
    /// into the expansion vocabulary.
    pub terms: Vec<TermId>,
    /// Names of resources whose query failed, in resource order; the
    /// resolution is *degraded* when non-empty and a later repair pass
    /// re-queries it. This is the index's one record of degraded
    /// coverage.
    pub failed: Vec<String>,
}

impl ResolvedTerm {
    /// True when every resource answered.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// A freshly-retrieved resolution, before its context terms are interned:
/// what the parallel workers hand back to the serial commit loop.
struct RawResolution {
    terms: Vec<String>,
    /// Positions of the resources whose query failed, ascending.
    failed: Vec<usize>,
}

impl RawResolution {
    /// Intern the context terms into `vocab` and name the failed
    /// resources, counting each failure in `failures[i]` for resource `i`.
    fn commit(
        self,
        resources: &[&dyn ContextResource],
        vocab: &mut Vocabulary,
        failures: &mut [u64],
    ) -> ResolvedTerm {
        for &i in &self.failed {
            failures[i] += 1;
        }
        ResolvedTerm {
            terms: self.terms.iter().map(|c| vocab.intern(c)).collect(),
            failed: self
                .failed
                .iter()
                .map(|&i| resources[i].name().to_string())
                .collect(),
        }
    }
}

/// Cross-batch memo of resolved important terms, keyed by symbol.
///
/// Holds `important-term symbol → context-term symbols` for every
/// distinct important term ever resolved through it, in a dense
/// [`SymTable`], so a later [`expand_append_recorded`] batch queries the
/// resources only for terms no earlier batch has seen — and answering
/// from the memo is an array read, not a string hash. Resources are
/// deterministic by contract ([`ContextResource`]), so reuse is
/// transparent. A resolution recorded while some resources were failing
/// keeps its [`ResolvedTerm::failed`] provenance and is reused as-is by
/// later batches; only [`repair_degraded_recorded`] re-queries it.
#[derive(Debug, Default)]
pub struct ExpansionCache {
    resolved: SymTable<ResolvedTerm>,
}

impl ExpansionCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct important terms resolved so far.
    pub fn len(&self) -> usize {
        self.resolved.len()
    }

    /// True if no terms have been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.resolved.is_empty()
    }

    /// True if the term with symbol `term` has already been resolved.
    pub fn contains(&self, term: TermId) -> bool {
        self.resolved.contains(term)
    }

    /// The memoized resolution for the term with symbol `term`, if any.
    pub fn resolution(&self, term: TermId) -> Option<&ResolvedTerm> {
        self.resolved.get(term)
    }

    /// Iterate every memoized resolution in symbol order (serialization
    /// surface; restore via [`ExpansionCache::restore`]).
    pub fn entries(&self) -> impl Iterator<Item = (TermId, &ResolvedTerm)> {
        self.resolved.iter()
    }

    /// Re-insert a memoized resolution (deserialization path). Resources
    /// are deterministic by contract, so restoring a persisted
    /// resolution is indistinguishable from having queried it live.
    pub fn restore(&mut self, term: TermId, resolution: ResolvedTerm) {
        self.resolved.insert(term, resolution);
    }

    /// Every degraded resolution (at least one resource failed), in
    /// symbol order. Empty for a fault-free build and after a complete
    /// repair.
    pub fn degraded(&self) -> impl Iterator<Item = (TermId, &ResolvedTerm)> {
        self.resolved.iter().filter(|(_, r)| !r.is_complete())
    }
}

/// What one incremental expansion batch did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Documents expanded in this batch.
    pub docs: usize,
    /// Distinct important terms resolved against the resources for the
    /// first time (each costs one query per resource).
    pub new_distinct_terms: usize,
    /// Distinct important terms of this batch answered from the
    /// [`ExpansionCache`] without touching any resource.
    pub reused_terms: usize,
    /// Freshly-resolved terms whose coverage is degraded (at least one
    /// resource failed), in symbol order; their provenance is their
    /// [`ResolvedTerm::failed`] in the [`ExpansionCache`].
    pub degraded: Vec<TermId>,
    /// Per resource, in resource order, the fresh terms whose query to
    /// it failed.
    pub failures: Vec<u64>,
    /// Rows copied to append this batch's rows: the open chunk's rows
    /// when a clone of [`ContextualizedDatabase::rows`] still shared it
    /// (see [`RowStore::push`]), else 0.
    pub rows_copied: usize,
}

/// Options for the expansion engine.
#[derive(Debug, Clone)]
pub struct ExpansionOptions {
    /// Worker threads for distinct-term resolution.
    pub threads: usize,
}

impl Default for ExpansionOptions {
    fn default() -> Self {
        Self { threads: 4 }
    }
}

/// The contextualized database `C(D)`: per-document term sets (original
/// terms plus context terms) and the resulting document frequencies.
#[derive(Debug)]
pub struct ContextualizedDatabase {
    /// Distinct term ids per document (sorted), original ∪ context, in
    /// `Arc`-shared chunks: a clone of the store shares every row.
    rows: RowStore,
    /// Document frequency per term id in `C(D)`.
    df_c: Vec<u64>,
}

impl ContextualizedDatabase {
    /// An empty contextualized database, ready to receive appends via
    /// [`expand_append_recorded`].
    pub fn empty() -> Self {
        Self {
            rows: RowStore::new(),
            df_c: Vec::new(),
        }
    }

    /// The per-document term sets of `C(D)` (sorted, distinct), one row
    /// per document in id order.
    pub fn rows(&self) -> &RowStore {
        &self.rows
    }

    /// Document frequency of a term in `C(D)`.
    pub fn df_c(&self, t: TermId) -> u64 {
        self.df_c.get(t.index()).copied().unwrap_or(0)
    }

    /// The df table, indexed by term id.
    pub fn df_table(&self) -> &[u64] {
        &self.df_c
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no documents.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rebuild a contextualized database from serialized rows, counting
    /// the `df_C` table from them.
    pub fn from_parts(rows: RowStore) -> Self {
        let mut df_c = Vec::new();
        add_counts(&mut df_c, rows.iter().flatten());
        Self { rows, df_c }
    }
}

/// Add one to `table[t]` for every `t` in `terms`, growing the table as
/// needed.
fn add_counts<'t>(table: &mut Vec<u64>, terms: impl IntoIterator<Item = &'t TermId>) {
    for t in terms {
        if t.index() >= table.len() {
            table.resize(t.index() + 1, 0);
        }
        table[t.index()] += 1;
    }
}

/// Intern per-document important-term lists into `vocab`, in document
/// order: the bridge from the extractors' string output to the
/// symbol-speaking expansion engine. Idempotent — re-interning the same
/// lists yields the same symbols.
pub fn intern_important_terms(
    vocab: &mut Vocabulary,
    important_terms: &[Vec<String>],
) -> Vec<Vec<TermId>> {
    important_terms
        .iter()
        .map(|doc| doc.iter().map(|t| vocab.intern(t)).collect())
        .collect()
}

/// Per-resource instrumentation handles, pre-resolved so the per-query
/// hot path never formats names or takes registry locks.
struct ResourceMetrics {
    queries: Counter,
    failures: Counter,
    latency: HistogramHandle,
}

impl ResourceMetrics {
    fn for_resources(resources: &[&dyn ContextResource], recorder: &Recorder) -> Vec<Self> {
        resources
            .iter()
            .map(|r| ResourceMetrics {
                queries: recorder.counter(&format!("resource.{}.queries", r.name())),
                failures: recorder.counter(&format!("resource.{}.failures", r.name())),
                latency: recorder.histogram(&format!("resource.{}.latency_us", r.name())),
            })
            .collect()
    }
}

/// Incrementally expand the documents `doc_range` (a suffix of `db`,
/// typically just appended) into `ctx`.
///
/// * `important_terms[i]` is `I(d)` for document `doc_range.start + i`,
///   pre-interned into `vocab` (see [`intern_important_terms`]).
/// * Only important terms absent from `cache` are sent to the resources;
///   everything else is answered from the memo with an array read. The
///   cache is updated in place, so successive batches keep getting
///   cheaper.
/// * `ctx` gains one entry per new document and its `df_c` table is
///   delta-updated; documents already expanded are untouched.
///
/// Appending a corpus in any batch partition yields a `ctx` identical to
/// one whole-corpus expansion **given the same vocabulary interning
/// history**; term *strings* and frequencies are identical under any
/// partition (ids can differ because context terms interleave with later
/// batches' corpus terms).
#[allow(clippy::too_many_arguments)]
pub fn expand_append_recorded(
    db: &DocTerms,
    doc_range: Range<usize>,
    important_terms: &[Vec<TermId>],
    resources: &[&dyn ContextResource],
    vocab: &mut Vocabulary,
    options: &ExpansionOptions,
    recorder: &Recorder,
    cache: &mut ExpansionCache,
    ctx: &mut ContextualizedDatabase,
) -> Result<AppendOutcome, ExpansionError> {
    if doc_range.len() != important_terms.len() {
        return Err(ExpansionError::DocumentCountMismatch {
            documents: doc_range.len(),
            important: important_terms.len(),
        });
    }
    if ctx.len() != doc_range.start || doc_range.end != db.len() {
        return Err(ExpansionError::AppendMisaligned {
            ctx_docs: ctx.len(),
            range: doc_range,
            db_docs: db.len(),
        });
    }

    // ---- distinct important terms not yet resolved --------------------------
    let (new_distinct, batch_distinct) = {
        let mut seen: HashSet<TermId> = HashSet::new();
        let mut fresh: Vec<TermId> = Vec::new();
        for terms in important_terms {
            for &t in terms {
                if seen.insert(t) && !cache.contains(t) {
                    fresh.push(t);
                }
            }
        }
        fresh.sort_unstable(); // deterministic order (symbol = first-interned order)
        (fresh, seen.len())
    };
    let mut outcome = AppendOutcome {
        docs: doc_range.len(),
        new_distinct_terms: new_distinct.len(),
        reused_terms: batch_distinct - new_distinct.len(),
        degraded: Vec::new(),
        failures: vec![0; resources.len()],
        rows_copied: 0,
    };
    recorder.add("expand.distinct_terms", new_distinct.len() as u64);
    recorder.add("expand.reused_terms", outcome.reused_terms as u64);

    let metrics = ResourceMetrics::for_resources(resources, recorder);
    let ctx_per_query = recorder.histogram("expand.context_terms_per_query");

    // ---- resolve context terms per new distinct term (parallel) -------------
    // Workers produce raw string resolutions; nothing touches the
    // vocabulary until the serial commit below.
    let resolve = |t: &str| resolve_term(t, resources, &metrics, &ctx_per_query);
    let mut resolutions: Vec<(TermId, RawResolution)> = {
        let fresh_terms: Vec<(TermId, &str)> =
            new_distinct.iter().map(|&s| (s, vocab.term(s))).collect();
        if options.threads <= 1 || fresh_terms.len() < 32 {
            fresh_terms.iter().map(|&(s, t)| (s, resolve(t))).collect()
        } else {
            let results: Mutex<Vec<(TermId, RawResolution)>> = Mutex::new(Vec::new());
            let chunk = fresh_terms.len().div_ceil(options.threads);
            crossbeam::scope(|sc| {
                for part in fresh_terms.chunks(chunk) {
                    let results = &results;
                    let resolve = &resolve;
                    sc.spawn(move |_| {
                        let local: Vec<(TermId, RawResolution)> =
                            part.iter().map(|&(s, t)| (s, resolve(t))).collect();
                        results.lock().extend(local);
                    });
                }
            })
            .map_err(|_| ExpansionError::WorkerPanicked)?;
            results.into_inner()
        }
    };
    // Commit in symbol order regardless of worker scheduling: context
    // terms are interned here, serially, so TermId assignment depends
    // only on the (sorted) fresh-term sequence — byte-identical across
    // thread counts.
    resolutions.sort_unstable_by_key(|&(s, _)| s);
    for (sym, raw) in resolutions {
        let resolved = raw.commit(resources, vocab, &mut outcome.failures);
        if !resolved.is_complete() {
            outcome.degraded.push(sym);
        }
        cache.resolved.insert(sym, resolved);
    }
    recorder.add("expand.degraded_terms", outcome.degraded.len() as u64);

    // ---- per-document union and frequency delta -----------------------------
    let mut row = Vec::new();
    for (i, terms) in important_terms.iter().enumerate() {
        contextualized_row(db, doc_range.start + i, terms, cache, &mut row);
        add_counts(&mut ctx.df_c, &row);
        outcome.rows_copied += ctx.rows.push(&row);
    }
    ctx.df_c.resize(ctx.df_c.len().max(vocab.len()), 0);

    Ok(outcome)
}

/// Rebuild one document's contextualized term row from the cache into
/// `row`: the sorted, distinct `original ∪ context` id set. Shared by the
/// append path and the repair pass so a repaired row is computed by
/// exactly the code that built it.
///
/// All symbols are copied straight out of the memo — the per-document
/// loop does no hashing and no interning, which is the hot-path win of
/// the symbol-keyed cache.
fn contextualized_row(
    db: &DocTerms,
    doc_index: usize,
    important: &[TermId],
    cache: &ExpansionCache,
    row: &mut Vec<TermId>,
) {
    row.clear();
    row.extend_from_slice(db.doc_terms(facet_corpus::DocId(doc_index as u32)));
    for &t in important {
        if let Some(resolved) = cache.resolved.get(t) {
            row.extend_from_slice(&resolved.terms);
        }
    }
    row.sort_unstable();
    row.dedup();
}

/// What one [`repair_degraded_recorded`] pass did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairOutcome {
    /// Degraded terms re-queried in this pass.
    pub requeried_terms: usize,
    /// Terms whose coverage is now complete (no failing resources).
    pub repaired_terms: usize,
    /// Terms still degraded after the pass (their resources are still
    /// failing); a later pass can retry them.
    pub still_degraded: usize,
    /// Documents whose term rows changed (and whose `df_c`
    /// contributions were recomputed).
    pub changed_docs: usize,
    /// Per resource, in resource order, the re-queried terms whose query
    /// to it failed again.
    pub failures: Vec<u64>,
}

/// Backfill pass over degraded-coverage terms: re-query **only** the
/// important terms whose [`ExpansionCache`] resolution is degraded
/// ([`ExpansionCache::degraded`]), serially in term-string order, then
/// recompute the term rows and `df_c` contributions of exactly the
/// documents that use a term whose resolution changed.
///
/// Once the underlying resources have recovered, the repaired `ctx` and
/// `cache` are identical (term strings, frequencies, provenance) to ones
/// built with no faults at all. Terms whose resources are still failing keep their
/// updated provenance and remain eligible for the next pass.
///
/// `important_terms` must yield `I(d_i)` for **all** documents of `db`,
/// in order (the same pre-interned lists every append batch supplied),
/// and `ctx` must cover the whole database.
pub fn repair_degraded_recorded<R: AsRef<[TermId]>>(
    db: &DocTerms,
    important_terms: impl IntoIterator<Item = R, IntoIter: ExactSizeIterator>,
    resources: &[&dyn ContextResource],
    vocab: &mut Vocabulary,
    recorder: &Recorder,
    cache: &mut ExpansionCache,
    ctx: &mut ContextualizedDatabase,
) -> Result<RepairOutcome, ExpansionError> {
    let important_terms = important_terms.into_iter();
    if important_terms.len() != db.len() {
        return Err(ExpansionError::DocumentCountMismatch {
            documents: db.len(),
            important: important_terms.len(),
        });
    }
    if ctx.len() != db.len() {
        return Err(ExpansionError::AppendMisaligned {
            ctx_docs: ctx.len(),
            range: 0..db.len(),
            db_docs: db.len(),
        });
    }
    // Re-query serially in term-string order: the repair path must be
    // deterministic regardless of how the degradation was accumulated,
    // and of the order its terms were interned in.
    let mut degraded: Vec<TermId> = cache.degraded().map(|(t, _)| t).collect();
    degraded.sort_unstable_by(|&a, &b| vocab.term(a).cmp(vocab.term(b)));
    let mut outcome = RepairOutcome {
        requeried_terms: degraded.len(),
        failures: vec![0; resources.len()],
        ..RepairOutcome::default()
    };
    if degraded.is_empty() {
        return Ok(outcome);
    }

    let metrics = ResourceMetrics::for_resources(resources, recorder);
    let ctx_per_query = recorder.histogram("expand.context_terms_per_query");
    let mut changed: HashSet<TermId> = HashSet::new();
    for sym in degraded {
        let raw = resolve_term(vocab.term(sym), resources, &metrics, &ctx_per_query);
        let resolved = raw.commit(resources, vocab, &mut outcome.failures);
        if resolved.is_complete() {
            outcome.repaired_terms += 1;
        } else {
            outcome.still_degraded += 1;
        }
        if cache
            .resolved
            .get(sym)
            .is_none_or(|old| old.terms != resolved.terms)
        {
            changed.insert(sym);
        }
        cache.resolved.insert(sym, resolved);
    }

    // Recompute exactly the documents that use a changed term into a
    // fresh row store (rows are append-only), copying every other row.
    if !changed.is_empty() {
        let mut rows = RowStore::new();
        let mut row = Vec::new();
        for (i, terms) in important_terms.enumerate() {
            let terms = terms.as_ref();
            if !terms.iter().any(|t| changed.contains(t)) {
                rows.push(&ctx.rows[i]);
                continue;
            }
            outcome.changed_docs += 1;
            for t in &ctx.rows[i] {
                ctx.df_c[t.index()] -= 1;
            }
            contextualized_row(db, i, terms, cache, &mut row);
            add_counts(&mut ctx.df_c, &row);
            rows.push(&row);
        }
        ctx.rows = rows;
    }
    ctx.df_c.resize(ctx.df_c.len().max(vocab.len()), 0);

    recorder.add("repair.requeried_terms", outcome.requeried_terms as u64);
    recorder.add("repair.repaired_terms", outcome.repaired_terms as u64);
    recorder.add("repair.changed_docs", outcome.changed_docs as u64);
    Ok(outcome)
}

/// Query every resource for one term; union, normalize, filter.
///
/// Resources are queried through the fallible
/// [`ContextResource::try_context_terms`]; a failure contributes no
/// context terms and is recorded by position, then by name in
/// [`ResolvedTerm::failed`] (and on the `resource.<name>.failures` counter) so expansion
/// degrades gracefully instead of aborting.
///
/// `metrics[i]` instruments `resources[i]`; latency timing runs inside
/// facet-obs ([`HistogramHandle::time_if`]), so a disabled recorder
/// costs nothing measurable and this crate never reads the wall clock.
fn resolve_term(
    term: &str,
    resources: &[&dyn ContextResource],
    metrics: &[ResourceMetrics],
    ctx_per_query: &HistogramHandle,
) -> RawResolution {
    // Order-preserving dedup: the Vec keeps first-seen order (resource
    // priority), the HashSet makes membership O(1) instead of the old
    // O(n²) `Vec::contains` scan per retrieved term.
    let mut out: Vec<String> = Vec::new();
    let mut failed: Vec<usize> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    for (i, (r, m)) in resources.iter().zip(metrics).enumerate() {
        m.queries.incr();
        // Inert (and allocation-free) unless a trace span is open on
        // this thread — see facet_obs::trace.
        let query_span = facet_obs::trace_span("resource.query");
        facet_obs::trace_attr("resource", r.name());
        facet_obs::trace_attr("term", term);
        let raw_terms = match m.latency.time_if(|| r.try_context_terms(term)) {
            Ok(v) => v,
            Err(_) => {
                m.failures.incr();
                if query_span.is_active() {
                    facet_obs::trace_error();
                }
                failed.push(i);
                drop(query_span);
                continue;
            }
        };
        drop(query_span);
        for raw in raw_terms {
            let c = normalize_term(&raw);
            if c.is_empty() || c == term || is_stopword(&c) || c.len() < 2 {
                continue;
            }
            if seen.insert(c.clone()) {
                out.push(c);
            }
        }
    }
    ctx_per_query.record(out.len() as u64);
    RawResolution { terms: out, failed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_corpus::db::TermingOptions;
    use facet_corpus::{DocId, Document, TextDatabase};
    use std::collections::HashMap;

    struct Fixed(&'static str, HashMap<&'static str, Vec<&'static str>>);
    impl ContextResource for Fixed {
        fn name(&self) -> &'static str {
            self.0
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            self.1
                .get(term)
                .map(|v| v.iter().map(|s| s.to_string()).collect())
                .unwrap_or_default()
        }
    }

    fn fixture() -> (TextDatabase, Vocabulary, Vec<Vec<String>>) {
        let docs = vec![
            Document {
                id: DocId(0),
                source: 0,
                day: 0,
                title: "Chirac".into(),
                text: "Jacques Chirac spoke about summit matters.".into(),
            },
            Document {
                id: DocId(1),
                source: 0,
                day: 0,
                title: "Other".into(),
                text: "Jacques Chirac met advisers.".into(),
            },
        ];
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab, TermingOptions::default());
        let important = vec![
            vec!["jacques chirac".to_string()],
            vec!["jacques chirac".to_string()],
        ];
        (db, vocab, important)
    }

    /// Expand all of `db` in one batch with a fresh cache: a one-shot
    /// expansion, by the path the index runs.
    fn expand_fresh(
        db: &DocTerms,
        important: &[Vec<String>],
        resources: &[&dyn ContextResource],
        vocab: &mut Vocabulary,
        options: &ExpansionOptions,
        recorder: &Recorder,
    ) -> Result<ContextualizedDatabase, ExpansionError> {
        let important = intern_important_terms(vocab, important);
        let mut ctx = ContextualizedDatabase::empty();
        expand_append_recorded(
            db,
            0..db.len(),
            &important,
            resources,
            vocab,
            options,
            recorder,
            &mut ExpansionCache::new(),
            &mut ctx,
        )?;
        Ok(ctx)
    }

    fn chirac_resource() -> Fixed {
        let mut m = HashMap::new();
        m.insert("jacques chirac", vec!["political leaders", "france", "the"]);
        Fixed("F", m)
    }

    #[test]
    fn context_terms_raise_df_c() {
        let (db, mut vocab, important) = fixture();
        let r = chirac_resource();
        let c = expand_fresh(
            &db,
            &important,
            &[&r],
            &mut vocab,
            &ExpansionOptions::default(),
            Recorder::disabled_ref(),
        )
        .unwrap();
        let leaders = vocab
            .get("political leaders")
            .expect("context term interned");
        assert_eq!(c.df_c(leaders), 2, "context term in both documents");
        assert_eq!(db.df(leaders), 0, "absent from the original database");
    }

    #[test]
    fn stopwords_filtered_from_context() {
        let (db, mut vocab, important) = fixture();
        let r = chirac_resource();
        let _ = expand_fresh(
            &db,
            &important,
            &[&r],
            &mut vocab,
            &ExpansionOptions::default(),
            Recorder::disabled_ref(),
        )
        .unwrap();
        assert!(vocab.get("the").is_none());
    }

    #[test]
    fn original_terms_kept() {
        let (db, mut vocab, important) = fixture();
        let r = chirac_resource();
        let c = expand_fresh(
            &db,
            &important,
            &[&r],
            &mut vocab,
            &ExpansionOptions::default(),
            Recorder::disabled_ref(),
        )
        .unwrap();
        let summit = vocab.get("summit").unwrap();
        assert_eq!(c.df_c(summit), 1);
        assert!(c.rows()[0].contains(&summit));
    }

    #[test]
    fn parallel_matches_serial() {
        // Context interning happens in the serial commit loop, in sorted
        // fresh-symbol order, so TermId assignments must be
        // *byte-identical* across thread counts — not merely equal as
        // string sets. This invariant is what lets downstream tables be
        // compared across configurations.
        let (db, mut vocab1, important) = fixture();
        let r = chirac_resource();
        let serial = expand_fresh(
            &db,
            &important,
            &[&r],
            &mut vocab1,
            &ExpansionOptions { threads: 1 },
            Recorder::disabled_ref(),
        )
        .unwrap();
        let (db2, mut vocab2, important2) = fixture();
        let parallel = expand_fresh(
            &db2,
            &important2,
            &[&r],
            &mut vocab2,
            &ExpansionOptions { threads: 4 },
            Recorder::disabled_ref(),
        )
        .unwrap();
        // Identical vocabularies: same terms assigned the same ids.
        assert_eq!(vocab1.len(), vocab2.len());
        for (id, term) in vocab1.iter() {
            assert_eq!(vocab2.term(id), term, "TermId {id:?} must agree");
        }
        // Identical per-document id sets and frequency tables, bit for bit.
        assert_eq!(serial.rows(), parallel.rows());
        assert_eq!(serial.df_table(), parallel.df_table());
    }

    #[test]
    fn no_resources_means_no_change_in_terms() {
        let (db, mut vocab, important) = fixture();
        let c = expand_fresh(
            &db,
            &important,
            &[],
            &mut vocab,
            &ExpansionOptions::default(),
            Recorder::disabled_ref(),
        )
        .unwrap();
        // Every row is exactly the document's own terms: no context.
        for i in 0..db.len() {
            assert_eq!(&c.rows()[i], db.doc_terms(DocId(i as u32)));
        }
    }

    #[test]
    fn recorded_expansion_counts_queries() {
        let (db, mut vocab, important) = fixture();
        let r = chirac_resource();
        let rec = facet_obs::Recorder::enabled();
        let c = expand_fresh(
            &db,
            &important,
            &[&r],
            &mut vocab,
            &ExpansionOptions::default(),
            &rec,
        )
        .unwrap();
        let counts = rec.snapshot_counts_only();
        // One distinct important term, queried against one resource.
        assert_eq!(counts["counter.resource.F.queries"], 1);
        assert_eq!(counts["counter.expand.distinct_terms"], 1);
        assert_eq!(counts["histogram.resource.F.latency_us.count"], 1);
        assert_eq!(counts["histogram.expand.context_terms_per_query.count"], 1);
        // Instrumentation must not change the expansion itself.
        let leaders = vocab
            .get("political leaders")
            .expect("context term interned");
        assert_eq!(c.df_c(leaders), 2);
    }

    #[test]
    fn mismatched_lengths_typed_error() {
        let (db, mut vocab, _) = fixture();
        let err = expand_fresh(
            &db,
            &[],
            &[],
            &mut vocab,
            &ExpansionOptions::default(),
            Recorder::disabled_ref(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExpansionError::DocumentCountMismatch {
                documents: 2,
                important: 0,
            }
        );
        assert!(err.to_string().contains("one I(d) per document"));
    }

    #[test]
    fn misaligned_append_rejected() {
        let (db, mut vocab, important) = fixture();
        let r = chirac_resource();
        let important_syms = intern_important_terms(&mut vocab, &important);
        let mut cache = ExpansionCache::new();
        let mut ctx = ContextualizedDatabase::empty();
        // Range does not start at ctx.len().
        let err = expand_append_recorded(
            &db,
            1..2,
            &important_syms[1..],
            &[&r],
            &mut vocab,
            &ExpansionOptions::default(),
            Recorder::disabled_ref(),
            &mut cache,
            &mut ctx,
        )
        .unwrap_err();
        assert!(matches!(err, ExpansionError::AppendMisaligned { .. }));
    }

    fn second_resource() -> Fixed {
        let mut m = HashMap::new();
        m.insert("jacques chirac", vec!["presidents", "paris"]);
        Fixed("G", m)
    }

    /// Expand `db` with resource F plus resource G behind a phase-mode
    /// fault wrapper failing every term; returns everything needed to
    /// heal and repair.
    fn degraded_build() -> (
        TextDatabase,
        Vocabulary,
        Vec<Vec<TermId>>,
        ExpansionCache,
        ContextualizedDatabase,
        crate::FaultyResource<Fixed>,
    ) {
        let (db, mut vocab, important) = fixture();
        let f = chirac_resource();
        let faulty = crate::FaultyResource::new(
            second_resource(),
            crate::FaultPlan::seeded(1, 1000),
            crate::VirtualClock::new(),
        );
        let important_syms = intern_important_terms(&mut vocab, &important);
        let mut cache = ExpansionCache::new();
        let mut ctx = ContextualizedDatabase::empty();
        expand_append_recorded(
            &db,
            0..db.len(),
            &important_syms,
            &[&f, &faulty],
            &mut vocab,
            &ExpansionOptions::default(),
            Recorder::disabled_ref(),
            &mut cache,
            &mut ctx,
        )
        .unwrap();
        (db, vocab, important_syms, cache, ctx, faulty)
    }

    #[test]
    fn failed_resource_degrades_coverage_with_provenance() {
        let (_db, vocab, _important, cache, _ctx, _faulty) = degraded_build();
        let degraded: Vec<(&str, &[String])> = cache
            .degraded()
            .map(|(t, r)| (vocab.term(t), r.failed.as_slice()))
            .collect();
        assert_eq!(
            degraded,
            [("jacques chirac", ["G".to_string()].as_slice())],
            "provenance names exactly the failed resource"
        );
        // Surviving resource F still contributed.
        assert!(vocab.get("political leaders").is_some());
        // Failed resource G contributed nothing.
        assert!(vocab.get("presidents").is_none());
        let chirac = vocab.get("jacques chirac").unwrap();
        let resolution = cache.resolution(chirac).unwrap();
        assert!(!resolution.is_complete());
    }

    #[test]
    fn repair_converges_to_the_fault_free_build() {
        let (db, mut vocab, important_syms, mut cache, mut ctx, faulty) = degraded_build();
        faulty.heal();
        let rec = facet_obs::Recorder::enabled();
        let f = chirac_resource();
        let outcome = repair_degraded_recorded(
            &db,
            &important_syms,
            &[&f, &faulty],
            &mut vocab,
            &rec,
            &mut cache,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(outcome.requeried_terms, 1);
        assert_eq!(outcome.repaired_terms, 1);
        assert_eq!(outcome.still_degraded, 0);
        assert_eq!(outcome.changed_docs, 2, "both documents use the term");
        assert_eq!(outcome.failures, [0, 0]);
        assert_eq!(cache.degraded().count(), 0);
        let counts = rec.snapshot_counts_only();
        assert_eq!(counts["counter.repair.repaired_terms"], 1);

        // Same corpus expanded with no faults at all.
        let (db2, mut vocab2, important2) = fixture();
        let f2 = chirac_resource();
        let g2 = second_resource();
        let clean = expand_fresh(
            &db2,
            &important2,
            &[&f2, &g2],
            &mut vocab2,
            &ExpansionOptions::default(),
            Recorder::disabled_ref(),
        )
        .unwrap();
        // String-level identity: same term strings per document, same
        // frequencies (ids may differ — interning order differs).
        let to_strings = |v: &Vocabulary, terms: &RowStore| -> Vec<Vec<String>> {
            terms
                .iter()
                .map(|ts| {
                    let mut s: Vec<String> = ts.iter().map(|&t| v.term(t).to_string()).collect();
                    s.sort_unstable();
                    s
                })
                .collect()
        };
        assert_eq!(
            to_strings(&vocab, ctx.rows()),
            to_strings(&vocab2, clean.rows())
        );
        for (id, term) in vocab2.iter() {
            let repaired_id = vocab.get(term).unwrap();
            assert_eq!(ctx.df_c(repaired_id), clean.df_c(id), "df_c for {term:?}");
        }
    }

    #[test]
    fn repair_while_still_failing_keeps_degradation_retryable() {
        let (db, mut vocab, important_syms, mut cache, mut ctx, faulty) = degraded_build();
        let f = chirac_resource();
        let outcome = repair_degraded_recorded(
            &db,
            &important_syms,
            &[&f, &faulty],
            &mut vocab,
            Recorder::disabled_ref(),
            &mut cache,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(outcome.repaired_terms, 0);
        assert_eq!(outcome.still_degraded, 1);
        assert_eq!(outcome.failures, [0, 1], "G failed again");
        assert_eq!(
            outcome.changed_docs, 0,
            "nothing changed, nothing recomputed"
        );
        assert_eq!(cache.degraded().count(), 1);
        // A later pass after recovery still works.
        faulty.heal();
        let outcome = repair_degraded_recorded(
            &db,
            &important_syms,
            &[&f, &faulty],
            &mut vocab,
            Recorder::disabled_ref(),
            &mut cache,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(outcome.repaired_terms, 1);
        assert_eq!(cache.degraded().count(), 0);
    }

    #[test]
    fn repair_on_clean_state_is_a_no_op() {
        let (db, mut vocab, important) = fixture();
        let r = chirac_resource();
        let important_syms = intern_important_terms(&mut vocab, &important);
        let mut cache = ExpansionCache::new();
        let mut ctx = ContextualizedDatabase::empty();
        expand_append_recorded(
            &db,
            0..db.len(),
            &important_syms,
            &[&r],
            &mut vocab,
            &ExpansionOptions::default(),
            Recorder::disabled_ref(),
            &mut cache,
            &mut ctx,
        )
        .unwrap();
        let outcome = repair_degraded_recorded(
            &db,
            &important_syms,
            &[&r],
            &mut vocab,
            Recorder::disabled_ref(),
            &mut cache,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(
            outcome,
            RepairOutcome {
                failures: vec![0],
                ..RepairOutcome::default()
            }
        );
    }

    #[test]
    fn incremental_append_reuses_cache() {
        let (db, _vocab, important) = fixture();
        let r = chirac_resource();
        let rec = facet_obs::Recorder::enabled();
        let mut cache = ExpansionCache::new();
        let mut ctx = ContextualizedDatabase::empty();

        // Rebuild the same two-document database one document at a time.
        let docs = db.docs().to_vec();
        let mut vocab_inc = Vocabulary::new();
        let mut inc_db = TextDatabase::build(vec![], &mut vocab_inc, TermingOptions::default());
        inc_db.append(docs[..1].to_vec(), &mut vocab_inc);
        let syms_first = intern_important_terms(&mut vocab_inc, &important[..1]);
        let first = expand_append_recorded(
            &inc_db,
            0..1,
            &syms_first,
            &[&r],
            &mut vocab_inc,
            &ExpansionOptions::default(),
            &rec,
            &mut cache,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(first.new_distinct_terms, 1);
        assert_eq!(first.reused_terms, 0);

        inc_db.append(docs[1..].to_vec(), &mut vocab_inc);
        let syms_second = intern_important_terms(&mut vocab_inc, &important[1..]);
        let second = expand_append_recorded(
            &inc_db,
            1..2,
            &syms_second,
            &[&r],
            &mut vocab_inc,
            &ExpansionOptions::default(),
            &rec,
            &mut cache,
            &mut ctx,
        )
        .unwrap();
        // "jacques chirac" was already resolved: no new resource queries.
        assert_eq!(second.new_distinct_terms, 0);
        assert_eq!(second.reused_terms, 1);
        let counts = rec.snapshot_counts_only();
        assert_eq!(counts["counter.resource.F.queries"], 1);

        // The incremental ctx matches the one-shot expansion of the same
        // vocabulary history (single resource, both docs share the term).
        let mut vocab_batch = Vocabulary::new();
        let mut batch_db = TextDatabase::build(vec![], &mut vocab_batch, TermingOptions::default());
        batch_db.append(docs, &mut vocab_batch);
        let batch = expand_fresh(
            &batch_db,
            &important,
            &[&r],
            &mut vocab_batch,
            &ExpansionOptions::default(),
            Recorder::disabled_ref(),
        )
        .unwrap();
        // Compare as per-document *string sets*: ids interleave differently
        // when context terms land between batches.
        let to_strings = |v: &Vocabulary, terms: &RowStore| -> Vec<Vec<String>> {
            terms
                .iter()
                .map(|ts| {
                    let mut s: Vec<String> = ts.iter().map(|&t| v.term(t).to_string()).collect();
                    s.sort_unstable();
                    s
                })
                .collect()
        };
        assert_eq!(
            to_strings(&vocab_inc, ctx.rows()),
            to_strings(&vocab_batch, batch.rows())
        );
        let leaders = vocab_inc.get("political leaders").unwrap();
        assert_eq!(ctx.df_c(leaders), 2);
    }
}
