//! Crash-safe persistence for the facet index (DESIGN.md §18).
//!
//! This module is the bridge between the byte-level durability subsystem
//! (`facet-store`: versioned snapshots, append-ahead WAL, recovery with
//! corruption fallback) and the pipeline state the index actually holds.
//! It defines what the opaque snapshot *sections* and WAL *record
//! payloads* contain:
//!
//! * [`ShardedFacetIndex::persist_to`] encodes the index's *source*
//!   state — the vocabulary (`vocab`), the documents (`docs`) and their
//!   term rows (`doc_terms`), the expansion cache (`cache`), the
//!   contextualized rows (`ctx_rows`), degradation provenance
//!   (`degraded`) and the `I(d)` lists (`important`), plus `meta` — into
//!   named, individually checksummed sections and publishes them as one
//!   snapshot generation. Everything else — df and `df_C` tables,
//!   postings, ranking, forest — restore recomputes.
//! * [`ShardedFacetIndex::append_logged`] /
//!   [`ShardedFacetIndex::repair_logged`] wrap the live update paths
//!   with WAL records: an append is logged *before* it is applied
//!   (log-ahead — once the record is durable the batch survives a
//!   crash), a repair is logged *after* it publishes (a no-op repair
//!   publishes nothing and logs nothing).
//! * [`ShardedFacetIndex::open_from`] recovers: load the newest snapshot
//!   generation that verifies, decode the sections back into the index's
//!   state (counting df and `df_C` from the rows), rebuild the postings
//!   and publish through the index's one publish path at the persisted
//!   generation, then replay the WAL tail through the ordinary
//!   `append`/`repair` code paths. Nothing in a snapshot depends on the
//!   worker count, so it reopens at any count. Because the
//!   pipeline is deterministic end-to-end, the replayed index converges
//!   **string-identical** ([`crate::FacetSnapshot::digest`]) to an index that
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
use crate::index::{AppendStats, IndexError, RepairStats};
use crate::selection::SelectionStatistic;
use crate::shard::ShardedFacetIndex;
use facet_corpus::db::TermingOptions;
use facet_corpus::{DocId, Document, TextDatabase};
use facet_resources::{
    ContextResource, ContextualizedDatabase, ExpansionCache, ExpansionOptions, ResolvedTerm,
};
use facet_store::bytes::{ByteReader, ByteWriter};
use facet_store::{FacetStore, RecoveryReport, SnapshotPayload, StoreError, WalRecord};
use facet_termx::TermExtractor;
use facet_textkit::{RowStore, TermId, Vocabulary};
use std::collections::BTreeMap;

/// Version of the section *contents* (the store's `FORMAT_VERSION`
/// covers the framing). Bump when any section codec changes shape; a
/// snapshot of any other version is refused as a corrupt `meta`
/// section, never decoded.
pub const STATE_VERSION: u32 = 4;

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

/// The vocabulary round-trips through its raw parts;
/// [`Vocabulary::from_parts`] replays the exact progressive table growth,
/// so a restored vocabulary interns future terms byte-identically to the
/// live one it mirrors.
fn enc_vocab(w: &mut ByteWriter, vocab: &Vocabulary) {
    let stats = vocab.stats();
    w.str(vocab.arena());
    w.u64(vocab.spans().len() as u64);
    for (s, e) in vocab.spans() {
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
    Vocabulary::from_parts(arena, spans, hits, misses)
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

// ---------------------------------------------------------------------
// Meta section: the one section every snapshot must carry.
// ---------------------------------------------------------------------

struct Meta {
    generation: u64,
    statistic: SelectionStatistic,
    options: PipelineOptions,
    terming: TermingOptions,
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
// Snapshot sections: the index's source state.
// ---------------------------------------------------------------------

fn encode_index(index: &ShardedFacetIndex<'_>) -> SnapshotPayload {
    let meta = Meta {
        generation: index.generation,
        statistic: index.statistic,
        options: index.options.clone(),
        terming: index.db.options().clone(),
        n_docs: index.db.len() as u64,
    };
    let sections = [
        ("meta", encode(|w| enc_meta(w, &meta))),
        ("vocab", encode(|w| enc_vocab(w, &index.vocab))),
        ("docs", encode(|w| enc_docs(w, index.db.docs()))),
        (
            "doc_terms",
            encode(|w| enc_rows(w, index.db.doc_terms_rows())),
        ),
        ("cache", encode(|w| enc_cache(w, &index.cache))),
        ("ctx_rows", encode(|w| enc_rows(w, index.ctx.rows()))),
        (
            "degraded",
            encode(|w| enc_degraded(w, index.ctx.degraded())),
        ),
        ("important", encode(|w| enc_rows(w, &index.important))),
    ];
    SnapshotPayload {
        generation: index.generation,
        sections: sections
            .into_iter()
            .map(|(name, bytes)| (name.to_string(), bytes))
            .collect(),
    }
}

/// Decode a snapshot's sources into `index` (fresh from
/// [`ShardedFacetIndex::new`]), checking what the rebuild indexes into:
/// the documents carry their positions as ids, one per `meta` document;
/// every row names a symbol of the vocabulary, and the rows df and `df_C`
/// count are strictly ascending, as ingest and expansion write them.
/// Then rebuild everything else the way repair does: the postings from
/// the rows, and the one publish path ranks, scans the subsumption counts
/// and publishes at the persisted generation.
fn restore_index(
    index: &mut ShardedFacetIndex<'_>,
    payload: &SnapshotPayload,
) -> Result<(), StoreError> {
    let meta = decode(payload, "meta", dec_meta)?;
    if payload.generation != meta.generation {
        return Err(corrupt("meta"));
    }
    let n_docs = usize::try_from(meta.n_docs).map_err(|_| corrupt("meta"))?;
    let vocab = decode(payload, "vocab", dec_vocab)?;
    let known = |t: &TermId| t.index() < vocab.len();
    let docs = decode(payload, "docs", |r| {
        dec_docs(r).filter(|docs| {
            docs.len() == n_docs && docs.iter().enumerate().all(|(i, d)| d.id.index() == i)
        })
    })?;
    let rows = |name: &str, ascending: bool| {
        decode(payload, name, |r| {
            dec_rows(r).filter(|rows| {
                rows.len() == n_docs
                    && rows.iter().all(|row| {
                        row.iter().all(known) && (!ascending || row.windows(2).all(|w| w[0] < w[1]))
                    })
            })
        })
        .map(|rows| {
            let mut store = RowStore::new();
            for row in &rows {
                store.push(row);
            }
            store
        })
    };
    let db = TextDatabase::from_parts(docs, rows("doc_terms", true)?, meta.terming)
        .ok_or_else(|| corrupt("docs"))?;
    let cache = decode(payload, "cache", |r| {
        dec_cache(r).filter(|c| {
            c.entries()
                .all(|(t, res)| known(&t) && res.terms.iter().all(known))
        })
    })?;
    let ctx = ContextualizedDatabase::from_parts(
        rows("ctx_rows", true)?,
        decode(payload, "degraded", dec_degraded)?,
    );
    index.important = rows("important", false)?;
    index.options = meta.options;
    index.statistic = meta.statistic;
    index.vocab = vocab;
    index.db = db;
    index.cache = cache;
    index.ctx = ctx;
    index.reindex_and_publish(meta.generation);
    Ok(())
}

impl<'a> ShardedFacetIndex<'a> {
    /// Publish the index's source state — vocabulary, documents, cache,
    /// rows, `I(d)` lists and degradation provenance — as one snapshot
    /// generation (atomic write, retention, WAL pruning). Returns the
    /// generation written.
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
    /// paths. `n` floors the worker count as in
    /// [`ShardedFacetIndex::new`]; any count reopens any snapshot.
    /// `options` applies only when the store is empty (a fresh
    /// directory) — a persisted snapshot restores the options it was
    /// built with.
    ///
    /// # Errors
    /// [`StoreError`] from recovery, decoding (including a snapshot of
    /// another [`STATE_VERSION`]), or a replayed publication that
    /// diverges from its record ([`StoreError::ReplayFailed`]).
    pub fn open_from(
        store: &FacetStore,
        n: usize,
        extractors: Vec<&'a dyn TermExtractor>,
        resources: Vec<&'a dyn ContextResource>,
        options: PipelineOptions,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let recovery = store.recover()?;
        let mut index = ShardedFacetIndex::new(n, extractors, resources, options);
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
    use crate::shard::tests::{corpus, options, CountingResource, FixedExtractor};
    use facet_textkit::rows::CHUNK_ROWS;

    /// Restore rebuilds the rows into one store that the index and the
    /// restored snapshot share, and publishes the live digest, at a worker
    /// count other than the one that persisted.
    #[test]
    fn rows_restore_as_one_copy() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&r], options());
        for n in [CHUNK_ROWS - 5, 9, CHUNK_ROWS + 40] {
            index.append(corpus(n)).unwrap();
        }
        let rows = index.ctx.rows();
        assert!(rows.len() > 2 * CHUNK_ROWS && rows.iter().all(|r| !r.is_empty()));
        let payload = encode_index(&index);

        let mut restored = ShardedFacetIndex::new(3, vec![&e], vec![&r], options());
        restore_index(&mut restored, &payload).unwrap();
        assert_eq!(restored.ctx.rows(), index.ctx.rows());
        let snap = restored.snapshot();
        assert!(snap.doc_terms().shares_chunks_with(restored.ctx.rows()));
        assert_eq!(snap.digest(), index.snapshot().digest());
    }
}
