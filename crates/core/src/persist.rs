//! Crash-safe persistence for the facet index (DESIGN.md §18).
//!
//! This module is the bridge between the byte-level durability subsystem
//! (`facet-store`: versioned snapshots, append-ahead WAL, recovery with
//! corruption fallback) and the pipeline state the index actually holds.
//! It defines what the opaque snapshot *sections* and WAL *record
//! payloads* contain:
//!
//! * [`ShardedFacetIndex::persist_to`] encodes every piece of index
//!   state — the merged interner arena, df/`df_C` tables, per-document
//!   term rows, ranked candidates, and subsumption forest, plus per
//!   shard (`shard3.vocab`, `shard3.cache`, …) the private vocabulary,
//!   document store, expansion cache, contextualized rows, degradation
//!   provenance, and id mapping — into named, individually checksummed
//!   sections and publishes them as one snapshot generation.
//! * [`ShardedFacetIndex::append_logged`] /
//!   [`ShardedFacetIndex::repair_logged`] wrap the live update paths
//!   with WAL records: an append is logged *before* it is applied
//!   (log-ahead — once the record is durable the batch survives a
//!   crash), a repair is logged *after* it publishes (a no-op repair
//!   publishes nothing and logs nothing).
//! * [`ShardedFacetIndex::open_from`] recovers: load the newest snapshot
//!   generation that verifies, decode the sections back into pipeline
//!   state, and replay the WAL tail through the ordinary
//!   `append`/`repair` code paths. Because the pipeline is
//!   deterministic end-to-end, the replayed index converges
//!   **string-identical** ([`FacetSnapshot::digest`]) to an index that
//!   never crashed — `tests/recovery.rs` proves it under injected
//!   corruption.
//!
//! ## Replay discipline
//!
//! Every WAL record's sequence number equals the generation its
//! publication produced. Replay asserts this invariant record by record
//! ([`StoreError::ReplayFailed`] on any divergence), and the store
//! already guarantees the tail is contiguous from the snapshot's
//! generation — so recovery either reproduces the exact publication
//! history or fails loudly; it never silently skips or reorders a batch.

use crate::config::PipelineOptions;
use crate::hierarchy::{FacetForest, FacetTree, TreeNode};
use crate::index::{AppendStats, FacetSnapshot, IndexError, RepairStats};
use crate::rows::RowStore;
use crate::selection::{FacetCandidate, SelectionStatistic};
use crate::shard::{merged_degraded, postings_of, Shard, ShardedFacetIndex};
use facet_corpus::db::TermingOptions;
use facet_corpus::{DocId, Document, TextDatabase};
use facet_resources::{
    ContextResource, ContextualizedDatabase, ExpansionCache, ExpansionOptions, ResolvedTerm,
};
use facet_store::bytes::{ByteReader, ByteWriter};
use facet_store::{FacetStore, RecoveryReport, SnapshotPayload, StoreError, WalRecord};
use facet_termx::TermExtractor;
use facet_textkit::{FrozenVocabulary, Interner, TermId, Vocabulary};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Version of the section *contents* (the store's `FORMAT_VERSION`
/// covers the framing). Bump when any section codec changes shape; a
/// snapshot of any other version is refused as a corrupt `meta`
/// section, never decoded.
pub const STATE_VERSION: u32 = 2;

fn corrupt(section: &str) -> StoreError {
    StoreError::CorruptSection {
        section: section.to_string(),
    }
}

fn replay_failed(seq: u64, detail: impl Into<String>) -> StoreError {
    StoreError::ReplayFailed {
        seq,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------
// Primitive codecs. Encoders write into a ByteWriter; decoders read from
// a ByteReader and return Option, so a truncated or drifted section
// surfaces as CorruptSection through `decode` at the section boundary
// (the store already checksums sections, so reaching a decode failure
// means format drift, not bit rot — but it must still never panic).
// ---------------------------------------------------------------------

/// Run `enc` on a fresh writer: one section payload or WAL record.
fn encode(enc: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    enc(&mut w);
    w.finish()
}

/// Decode section `name` of `payload` with `dec`. A missing section, a
/// decode failure, or trailing bytes after the decoded value all surface
/// as [`StoreError::CorruptSection`] naming the section.
fn decode<T>(
    payload: &SnapshotPayload,
    name: &str,
    dec: impl FnOnce(&mut ByteReader<'_>) -> Option<T>,
) -> Result<T, StoreError> {
    let mut r = ByteReader::new(payload.section(name).ok_or_else(|| corrupt(name))?);
    dec(&mut r)
        .filter(|_| r.is_empty())
        .ok_or_else(|| corrupt(name))
}

fn enc_u64s(w: &mut ByteWriter, values: &[u64]) {
    w.u64(values.len() as u64);
    for v in values {
        w.u64(*v);
    }
}

fn dec_u64s(r: &mut ByteReader<'_>) -> Option<Vec<u64>> {
    let n = r.u64()? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining() / 8 + 1));
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Some(out)
}

fn enc_terms(w: &mut ByteWriter, terms: &[TermId]) {
    w.u64(terms.len() as u64);
    for t in terms {
        w.u32(t.0);
    }
}

fn dec_terms(r: &mut ByteReader<'_>) -> Option<Vec<TermId>> {
    let n = r.u64()? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining() / 4 + 1));
    for _ in 0..n {
        out.push(TermId(r.u32()?));
    }
    Some(out)
}

fn enc_rows<R: AsRef<[TermId]>>(
    w: &mut ByteWriter,
    rows: impl IntoIterator<Item = R, IntoIter: ExactSizeIterator>,
) {
    let rows = rows.into_iter();
    w.u64(rows.len() as u64);
    for row in rows {
        enc_terms(w, row.as_ref());
    }
}

fn dec_rows(r: &mut ByteReader<'_>) -> Option<Vec<Vec<TermId>>> {
    let n = r.u64()? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining() / 8 + 1));
    for _ in 0..n {
        out.push(dec_terms(r)?);
    }
    Some(out)
}

/// [`dec_rows`] straight into a [`RowStore`], through one reused row
/// buffer: the merged rows are held once, by the store.
fn dec_row_store(r: &mut ByteReader<'_>) -> Option<RowStore> {
    let n = r.u64()?;
    let mut store = RowStore::new();
    let mut row = Vec::new();
    for _ in 0..n {
        row.clear();
        for _ in 0..r.u64()? {
            row.push(TermId(r.u32()?));
        }
        store.push(&row);
    }
    Some(store)
}

fn enc_docs(w: &mut ByteWriter, docs: &[Document]) {
    w.u64(docs.len() as u64);
    for d in docs {
        w.u32(d.id.0);
        w.u32(u32::from(d.source));
        w.u32(u32::from(d.day));
        w.str(&d.title);
        w.str(&d.text);
    }
}

fn dec_docs(r: &mut ByteReader<'_>) -> Option<Vec<Document>> {
    let n = r.u64()? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining() / 16 + 1));
    for _ in 0..n {
        let id = DocId(r.u32()?);
        let source = u16::try_from(r.u32()?).ok()?;
        let day = u16::try_from(r.u32()?).ok()?;
        let title = r.str()?.to_string();
        let text = r.str()?.to_string();
        out.push(Document {
            id,
            source,
            day,
            title,
            text,
        });
    }
    Some(out)
}

/// The interner round-trips through its raw parts; `Interner::from_parts`
/// replays the exact progressive table growth, so a restored vocabulary
/// interns future terms byte-identically to the live one it mirrors.
fn enc_vocab(w: &mut ByteWriter, vocab: &Vocabulary) {
    let interner = vocab.as_interner();
    let stats = vocab.stats();
    w.str(interner.arena());
    w.u64(interner.spans().len() as u64);
    for (s, e) in interner.spans() {
        w.u32(*s);
        w.u32(*e);
    }
    w.u64(stats.hits);
    w.u64(stats.misses);
}

fn dec_vocab(r: &mut ByteReader<'_>) -> Option<Vocabulary> {
    let arena = r.str()?.to_string();
    let n = r.u64()? as usize;
    let mut spans = Vec::with_capacity(n.min(arena.len() + 1));
    for _ in 0..n {
        let s = r.u32()?;
        let e = r.u32()?;
        spans.push((s, e));
    }
    let hits = r.u64()?;
    let misses = r.u64()?;
    let interner = Interner::from_parts(arena, spans, hits, misses)?;
    Some(Vocabulary::from_interner(interner))
}

/// Cache entries are encoded in term-id order — the backing map does not
/// guarantee an iteration order, and a canonical byte stream keeps
/// snapshots of equal state byte-identical.
fn enc_cache(w: &mut ByteWriter, cache: &ExpansionCache) {
    let mut entries: Vec<(TermId, &ResolvedTerm)> = cache.entries().collect();
    entries.sort_unstable_by_key(|(t, _)| t.0);
    w.u64(entries.len() as u64);
    for (term, resolution) in entries {
        w.u32(term.0);
        enc_terms(w, &resolution.terms);
        w.u64(resolution.failed.len() as u64);
        for f in &resolution.failed {
            w.str(f);
        }
    }
}

fn dec_cache(r: &mut ByteReader<'_>) -> Option<ExpansionCache> {
    let n = r.u64()? as usize;
    let mut cache = ExpansionCache::new();
    for _ in 0..n {
        let term = TermId(r.u32()?);
        let terms = dec_terms(r)?;
        let n_failed = r.u64()? as usize;
        let mut failed = Vec::with_capacity(n_failed.min(r.remaining() / 8 + 1));
        for _ in 0..n_failed {
            failed.push(r.str()?.to_string());
        }
        cache.restore(term, ResolvedTerm { terms, failed });
    }
    Some(cache)
}

// lint:allow(string-keyed-map, reason="serving-edge degraded report; strings materialize here by design")
fn enc_degraded(w: &mut ByteWriter, degraded: &BTreeMap<String, Vec<String>>) {
    w.u64(degraded.len() as u64);
    for (term, failed) in degraded {
        w.str(term);
        w.u64(failed.len() as u64);
        for f in failed {
            w.str(f);
        }
    }
}

// lint:allow(string-keyed-map, reason="serving-edge degraded report; strings materialize here by design")
fn dec_degraded(r: &mut ByteReader<'_>) -> Option<BTreeMap<String, Vec<String>>> {
    let n = r.u64()? as usize;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let term = r.str()?.to_string();
        let n_failed = r.u64()? as usize;
        let mut failed = Vec::with_capacity(n_failed.min(r.remaining() / 8 + 1));
        for _ in 0..n_failed {
            failed.push(r.str()?.to_string());
        }
        out.insert(term, failed);
    }
    Some(out)
}

fn enc_candidates(w: &mut ByteWriter, candidates: &[FacetCandidate]) {
    w.u64(candidates.len() as u64);
    for c in candidates {
        w.u32(c.term.0);
        w.u64(c.df);
        w.u64(c.df_c);
        w.u64(c.shift_f as u64);
        w.u64(c.shift_r as u64);
        w.f64(c.score);
    }
}

fn dec_candidates(r: &mut ByteReader<'_>) -> Option<Vec<FacetCandidate>> {
    let n = r.u64()? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining() / 44 + 1));
    for _ in 0..n {
        out.push(FacetCandidate {
            term: TermId(r.u32()?),
            df: r.u64()?,
            df_c: r.u64()?,
            shift_f: r.u64()? as i64,
            shift_r: r.u64()? as i64,
            score: r.f64()?,
        });
    }
    Some(out)
}

/// Trees encode preorder — `(term, doc_count, n_children)` per node —
/// and decode with an explicit stack, so arbitrarily deep hierarchies
/// round-trip without recursion.
fn enc_forest(w: &mut ByteWriter, forest: &FacetForest) {
    w.u64(forest.trees.len() as u64);
    for tree in &forest.trees {
        let mut stack = vec![&tree.root];
        while let Some(node) = stack.pop() {
            w.u32(node.term.0);
            w.u64(node.doc_count);
            w.u32(node.children.len() as u32);
            for child in node.children.iter().rev() {
                stack.push(child);
            }
        }
    }
}

fn dec_tree(r: &mut ByteReader<'_>) -> Option<TreeNode> {
    struct Pending {
        node: TreeNode,
        remaining: u32,
    }
    let read_one = |r: &mut ByteReader<'_>| -> Option<(TreeNode, u32)> {
        let term = TermId(r.u32()?);
        let doc_count = r.u64()?;
        let n_children = r.u32()?;
        Some((
            TreeNode {
                term,
                doc_count,
                children: Vec::new(),
            },
            n_children,
        ))
    };
    let (node, remaining) = read_one(r)?;
    let mut stack = vec![Pending { node, remaining }];
    loop {
        let top_done = stack.last().map(|p| p.remaining == 0)?;
        if top_done {
            let done = stack.pop()?;
            match stack.last_mut() {
                Some(parent) => {
                    parent.node.children.push(done.node);
                    parent.remaining -= 1;
                }
                None => return Some(done.node),
            }
        } else {
            let (node, remaining) = read_one(r)?;
            stack.push(Pending { node, remaining });
        }
    }
}

fn dec_forest(r: &mut ByteReader<'_>, vocab: FrozenVocabulary) -> Option<FacetForest> {
    let n = r.u64()? as usize;
    let mut trees = Vec::with_capacity(n.min(r.remaining() / 16 + 1));
    for _ in 0..n {
        trees.push(FacetTree { root: dec_tree(r)? });
    }
    Some(FacetForest::new(trees, vocab))
}

// ---------------------------------------------------------------------
// Meta section: the one section every snapshot must carry.
// ---------------------------------------------------------------------

struct Meta {
    generation: u64,
    statistic: SelectionStatistic,
    options: PipelineOptions,
    terming: TermingOptions,
    n_shards: u32,
    n_docs: u64,
}

fn enc_meta(w: &mut ByteWriter, meta: &Meta) {
    w.u32(STATE_VERSION);
    w.u64(meta.generation);
    w.u8(match meta.statistic {
        SelectionStatistic::LogLikelihood => 0,
        SelectionStatistic::ChiSquare => 1,
    });
    w.u64(meta.options.top_k as u64);
    w.u64(meta.options.expansion.threads as u64);
    w.f64(meta.options.subsumption_threshold);
    w.u64(meta.options.min_df_c);
    w.u8(u8::from(meta.terming.bigrams));
    w.u64(meta.terming.min_len as u64);
    w.u32(meta.n_shards);
    w.u64(meta.n_docs);
}

fn dec_meta(r: &mut ByteReader<'_>) -> Option<Meta> {
    if r.u32()? != STATE_VERSION {
        return None;
    }
    let generation = r.u64()?;
    let statistic = match r.u8()? {
        0 => SelectionStatistic::LogLikelihood,
        1 => SelectionStatistic::ChiSquare,
        _ => return None,
    };
    let options = PipelineOptions {
        top_k: r.u64()? as usize,
        expansion: ExpansionOptions {
            threads: (r.u64()? as usize).max(1),
        },
        subsumption_threshold: r.f64()?,
        min_df_c: r.u64()?,
    };
    let terming = TermingOptions {
        bigrams: r.u8()? != 0,
        min_len: r.u64()? as usize,
    };
    Some(Meta {
        generation,
        statistic,
        options,
        terming,
        n_shards: r.u32()?,
        n_docs: r.u64()?,
    })
}

// ---------------------------------------------------------------------
// WAL record payloads.
// ---------------------------------------------------------------------

const RECORD_APPEND: u8 = 0;
const RECORD_REPAIR: u8 = 1;

/// What one WAL record asks a replaying index to do.
enum ReplayOp {
    Append(Vec<Document>),
    Repair,
}

fn dec_record(record: &WalRecord) -> Result<ReplayOp, StoreError> {
    let mut r = ByteReader::new(&record.payload);
    match r.u8() {
        Some(RECORD_APPEND) => {
            let docs = dec_docs(&mut r)
                .filter(|_| r.is_empty())
                .ok_or_else(|| replay_failed(record.seq, "append record payload is malformed"))?;
            Ok(ReplayOp::Append(docs))
        }
        Some(RECORD_REPAIR) if r.is_empty() => Ok(ReplayOp::Repair),
        _ => Err(replay_failed(record.seq, "unknown record kind")),
    }
}

fn check_replayed_generation(seq: u64, landed: u64) -> Result<(), StoreError> {
    if landed == seq {
        Ok(())
    } else {
        Err(replay_failed(
            seq,
            format!("replayed publication landed on generation {landed}, record says {seq}"),
        ))
    }
}

// ---------------------------------------------------------------------
// Snapshot sections: merged tables + per-shard state.
// ---------------------------------------------------------------------

fn encode_index(index: &ShardedFacetIndex<'_>) -> SnapshotPayload {
    let snapshot = index.snapshot();
    let meta = Meta {
        generation: index.generation,
        statistic: index.statistic,
        options: index.options.clone(),
        terming: index.shards[0].db.options().clone(),
        n_shards: index.shards.len() as u32,
        n_docs: index.n_docs as u64,
    };
    let merged = [
        ("meta", encode(|w| enc_meta(w, &meta))),
        (
            "merged.vocab",
            encode(|w| enc_vocab(w, &index.merged_vocab)),
        ),
        ("merged.df", encode(|w| enc_u64s(w, &index.merged_df))),
        ("merged.df_c", encode(|w| enc_u64s(w, &index.merged_df_c))),
        (
            "merged.doc_terms",
            encode(|w| enc_rows(w, &index.merged_doc_terms)),
        ),
        (
            "candidates",
            encode(|w| enc_candidates(w, snapshot.candidates())),
        ),
        ("forest", encode(|w| enc_forest(w, snapshot.forest()))),
    ];
    let mut sections: Vec<(String, Vec<u8>)> = merged
        .into_iter()
        .map(|(name, bytes)| (name.to_string(), bytes))
        .collect();
    for (i, s) in index.shards.iter().enumerate() {
        let shard_sections = [
            ("vocab", encode(|w| enc_vocab(w, &s.vocab))),
            ("docs", encode(|w| enc_docs(w, s.db.docs()))),
            ("doc_terms", encode(|w| enc_rows(w, s.db.doc_terms_rows()))),
            ("df", encode(|w| enc_u64s(w, s.db.df_table()))),
            ("cache", encode(|w| enc_cache(w, &s.cache))),
            ("ctx_rows", encode(|w| enc_rows(w, &s.ctx.doc_terms))),
            ("ctx_df", encode(|w| enc_u64s(w, s.ctx.df_table()))),
            (
                "ctx_context",
                encode(|w| enc_rows(w, &s.ctx.doc_context_terms)),
            ),
            ("degraded", encode(|w| enc_degraded(w, s.ctx.degraded()))),
            ("important", encode(|w| enc_rows(w, &s.important))),
            ("to_merged", encode(|w| enc_terms(w, &s.to_merged))),
        ];
        sections.extend(
            shard_sections
                .into_iter()
                .map(|(suffix, bytes)| (format!("shard{i}.{suffix}"), bytes)),
        );
    }
    SnapshotPayload {
        generation: index.generation,
        sections,
    }
}

fn restore_shard(
    payload: &SnapshotPayload,
    i: usize,
    terming: TermingOptions,
) -> Result<Shard, StoreError> {
    let name = |suffix: &str| format!("shard{i}.{suffix}");
    let vocab = decode(payload, &name("vocab"), dec_vocab)?;
    let docs = decode(payload, &name("docs"), dec_docs)?;
    let doc_terms = decode(payload, &name("doc_terms"), dec_rows)?;
    let df = decode(payload, &name("df"), dec_u64s)?;
    let db = TextDatabase::from_parts(docs, doc_terms, df, terming)
        .ok_or_else(|| corrupt(&name("docs")))?;
    let cache = decode(payload, &name("cache"), dec_cache)?;
    let ctx_rows = decode(payload, &name("ctx_rows"), dec_rows)?;
    let ctx_df = decode(payload, &name("ctx_df"), dec_u64s)?;
    let ctx_context = decode(payload, &name("ctx_context"), dec_rows)?;
    let degraded = decode(payload, &name("degraded"), dec_degraded)?;
    let ctx = ContextualizedDatabase::from_parts(ctx_rows, ctx_df, ctx_context, degraded)
        .ok_or_else(|| corrupt(&name("ctx_rows")))?;
    Ok(Shard {
        vocab,
        db,
        cache,
        ctx,
        important: decode(payload, &name("important"), dec_rows)?,
        to_merged: decode(payload, &name("to_merged"), dec_terms)?,
    })
}

/// Decode a snapshot into `index` (fresh from [`ShardedFacetIndex::new`]
/// with the persisted shard count). Installs the restored snapshot
/// through `&mut` access to the lock — a constructor step on an index
/// no reader holds yet, not a publication.
fn restore_index(
    index: &mut ShardedFacetIndex<'_>,
    payload: &SnapshotPayload,
) -> Result<(), StoreError> {
    let meta = decode(payload, "meta", dec_meta)?;
    if meta.n_shards as usize != index.n_shards() || payload.generation != meta.generation {
        return Err(corrupt("meta"));
    }
    let merged_vocab = decode(payload, "merged.vocab", dec_vocab)?;
    let merged_df = decode(payload, "merged.df", dec_u64s)?;
    let merged_df_c = decode(payload, "merged.df_c", dec_u64s)?;
    let merged_doc_terms = decode(payload, "merged.doc_terms", dec_row_store)?;
    if merged_doc_terms.len() as u64 != meta.n_docs {
        return Err(corrupt("merged.doc_terms"));
    }
    let postings = postings_of(&merged_doc_terms, merged_vocab.len())
        .ok_or_else(|| corrupt("merged.doc_terms"))?;
    // Selection assumes both tables cover the vocabulary and count at
    // most `n_docs` documents; rows define `df_C`.
    if merged_df.len() != merged_vocab.len() || merged_df.iter().any(|&f| f > meta.n_docs) {
        return Err(corrupt("merged.df"));
    }
    if merged_df_c.len() != merged_vocab.len()
        || merged_df_c
            .iter()
            .zip(&postings)
            .any(|(&f, rows)| f > meta.n_docs || f != rows.len() as u64)
    {
        return Err(corrupt("merged.df_c"));
    }
    let candidates = decode(payload, "candidates", dec_candidates)?;
    let frozen = merged_vocab.freeze();
    let forest = decode(payload, "forest", |r| dec_forest(r, frozen.clone()))?;
    let shards = (0..index.n_shards())
        .map(|i| restore_shard(payload, i, meta.terming.clone()))
        .collect::<Result<Vec<_>, _>>()?;

    let snapshot = FacetSnapshot::assemble(
        meta.generation,
        frozen,
        merged_doc_terms.clone(),
        candidates,
        forest,
        &postings,
        Arc::new(merged_degraded(&shards)),
    );
    index.options = meta.options;
    index.statistic = meta.statistic;
    index.shards = shards;
    index.merged_vocab = merged_vocab;
    index.merged_df = merged_df;
    index.merged_df_c = merged_df_c;
    index.merged_doc_terms = merged_doc_terms;
    index.postings = postings;
    index.co_counts = None;
    index.n_docs = meta.n_docs as usize;
    index.generation = meta.generation;
    *index.snapshot.get_mut() = Arc::new(snapshot);
    Ok(())
}

impl<'a> ShardedFacetIndex<'a> {
    /// Publish the index's entire state — merged tables plus every
    /// shard's private vocabulary, cache, contextualized rows, and id
    /// mapping — as one snapshot generation (atomic write, retention,
    /// WAL pruning). Returns the generation written.
    ///
    /// # Errors
    /// Any [`StoreError`] from the store; the index itself is untouched.
    pub fn persist_to(&self, store: &FacetStore) -> Result<u64, StoreError> {
        let payload = encode_index(self);
        store.publish_snapshot(&payload)?;
        Ok(payload.generation)
    }

    /// Recover an index from a store: newest verified snapshot, then
    /// replay of the WAL tail through the live
    /// [`ShardedFacetIndex::append`] / [`ShardedFacetIndex::repair`]
    /// paths. `n_shards` must match the persisted shard count (the
    /// partition function is part of document identity); `options`
    /// applies only when the store is empty (a fresh directory) — a
    /// persisted snapshot restores the options it was built with.
    ///
    /// # Errors
    /// [`StoreError`] from recovery, decoding (including a shard-count
    /// mismatch or a snapshot of another [`STATE_VERSION`]), or a
    /// replayed publication that diverges from its record
    /// ([`StoreError::ReplayFailed`]).
    pub fn open_from(
        store: &FacetStore,
        n_shards: usize,
        extractors: Vec<&'a dyn TermExtractor>,
        resources: Vec<&'a dyn ContextResource>,
        options: PipelineOptions,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let recovery = store.recover()?;
        let mut index = ShardedFacetIndex::new(n_shards, extractors, resources, options);
        if recovery.snapshot.generation > 0 || !recovery.snapshot.sections.is_empty() {
            restore_index(&mut index, &recovery.snapshot)?;
        }
        for record in &recovery.tail {
            let landed = match dec_record(record)? {
                ReplayOp::Append(docs) => index.append(docs).map(|s| s.generation),
                ReplayOp::Repair => index.repair().map(|s| s.generation),
            }
            .map_err(|e| replay_failed(record.seq, e.to_string()))?;
            check_replayed_generation(record.seq, landed)?;
        }
        Ok((index, recovery.report))
    }

    /// [`ShardedFacetIndex::append`] with log-ahead durability: the batch
    /// is written to the WAL (sequence = the generation the append will
    /// publish) *before* it is applied, so a crash at any point replays
    /// to a state that includes every acknowledged batch.
    ///
    /// # Errors
    /// [`IndexError::Store`] if the WAL write fails (the batch was not
    /// applied), or any [`IndexError`] from the append itself (the
    /// record is durable; recovery replays it from the last snapshot).
    pub fn append_logged(
        &mut self,
        batch: Vec<Document>,
        store: &FacetStore,
    ) -> Result<AppendStats, IndexError> {
        let record = encode(|w| {
            w.u8(RECORD_APPEND);
            enc_docs(w, &batch);
        });
        store.log_record(self.generation + 1, &record)?;
        self.append(batch)
    }

    /// [`ShardedFacetIndex::repair`] with durability: a pass that
    /// published a new generation appends a repair record *after*
    /// applying (a no-op pass logs nothing — it published nothing to
    /// recover).
    ///
    /// # Errors
    /// Any [`IndexError`] from the repair; [`IndexError::Store`] if the
    /// repair published but its record could not be logged (the caller
    /// should [`ShardedFacetIndex::persist_to`] promptly — until then the
    /// on-disk history ends one generation early).
    pub fn repair_logged(&mut self, store: &FacetStore) -> Result<RepairStats, IndexError> {
        let before = self.generation;
        let stats = self.repair()?;
        if stats.generation > before {
            store.log_record(stats.generation, &encode(|w| w.u8(RECORD_REPAIR)))?;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::CHUNK_ROWS;
    use crate::shard::tests::{corpus, options, CountingResource, FixedExtractor};

    /// A verbatim copy of the row encoder over `Vec` rows that predates
    /// the row store: the bytes `merged.doc_terms` must keep.
    fn enc_rows_vec(w: &mut ByteWriter, rows: &[Vec<TermId>]) {
        w.u64(rows.len() as u64);
        for row in rows {
            enc_terms(w, row);
        }
    }

    /// The persisted `merged.doc_terms` section is byte for byte the old
    /// encoding of the same rows, and restore decodes it into one store
    /// that the index and the restored snapshot share.
    #[test]
    fn merged_rows_keep_their_bytes_and_restore_as_one_copy() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&r], options());
        for n in [CHUNK_ROWS - 5, 9, CHUNK_ROWS + 40] {
            index.append(corpus(n)).unwrap();
        }
        let rows: Vec<Vec<TermId>> = index
            .merged_doc_terms
            .iter()
            .map(<[TermId]>::to_vec)
            .collect();
        assert!(rows.len() > 2 * CHUNK_ROWS && rows.iter().all(|r| !r.is_empty()));
        let payload = encode_index(&index);
        let section = payload.section("merged.doc_terms").unwrap();
        assert_eq!(section, encode(|w| enc_rows_vec(w, &rows)).as_slice());

        let mut restored = ShardedFacetIndex::new(2, vec![&e], vec![&r], options());
        restore_index(&mut restored, &payload).unwrap();
        assert_eq!(restored.merged_doc_terms, index.merged_doc_terms);
        let snap = restored.snapshot();
        assert!(snap
            .doc_terms()
            .shares_chunks_with(&restored.merged_doc_terms));
        assert_eq!(snap.digest(), index.snapshot().digest());
    }
}
