//! Crash-safe persistence for the facet index (DESIGN.md §18).
//!
//! This module is the bridge between the byte-level durability subsystem
//! (`facet-store`: versioned snapshots, append-ahead WAL, recovery with
//! corruption fallback) and the pipeline state the index actually holds.
//! It defines what the opaque snapshot *sections* and WAL *record
//! payloads* contain:
//!
//! * [`ShardedFacetIndex::persist_to`] encodes the index's *source*
//!   state — the vocabulary (`vocab`), the documents' term rows
//!   (`doc_terms`), the expansion cache with its degradation provenance
//!   (`cache`), the contextualized rows (`ctx_rows`) and the `I(d)` lists
//!   (`important`), plus `meta` — into six named, individually
//!   checksummed sections and publishes them as one snapshot generation.
//!   Everything else — df and `df_C` tables, postings, ranking, the
//!   degraded map, forest — restore recomputes. No document text is
//!   written: the index keeps none, and the caller owns it.
//! * [`ShardedFacetIndex::append_logged`] /
//!   [`ShardedFacetIndex::repair_logged`] wrap the live update paths
//!   with WAL records: an append is logged *before* it is applied
//!   (log-ahead — once the record is durable the batch survives a
//!   crash), a repair is logged *after* it publishes (a no-op repair
//!   publishes nothing and logs nothing). An append record holds the
//!   batch's documents, so the WAL keeps each batch until the oldest
//!   retained snapshot covers it and pruning drops the record.
//! * [`ShardedFacetIndex::open_from`] recovers: load the newest snapshot
//!   generation that verifies, decode the sections back into the index's
//!   state (counting df and `df_C` from the rows) and rebuild the
//!   postings — while one more thread runs Step 1 on the WAL tail's
//!   documents until restore is done, and, from the moment the rows are
//!   decoded, `workers - 1` more count the pairs of the snapshot's top k
//!   — then replay the tail through the ordinary `append`/`repair` code
//!   paths, publishing through the index's one publish path, whose first
//!   call finishes those counts and advances them by the tail. Nothing in
//!   a snapshot depends on the worker count or
//!   the expansion threads, so it reopens at any count, with the
//!   caller's threads. Because the pipeline is deterministic end-to-end,
//!   and N appends publish what one append of the same documents
//!   publishes, the replayed index converges **string-identical**
//!   ([`crate::FacetSnapshot::digest`]) to an index that never crashed —
//!   `tests/recovery.rs` proves it under injected corruption.
//!
//! ## Replay discipline
//!
//! Every WAL record's sequence number equals the generation its
//! publication produced. Replay works run by run: each run of
//! consecutive append records is concatenated into one batch that goes
//! through the append path once and publishes at the run's last
//! sequence number, and each repair record runs one repair (a repair
//! that finds nothing to re-query — the replayed appends already
//! resolved its terms — publishes the state as it stands instead). Replay
//! asserts that the run's last sequence number, or the repair's, is the
//! generation that landed ([`StoreError::ReplayFailed`] on any
//! divergence), and the store already guarantees the tail is contiguous
//! from the snapshot's generation — so recovery either reproduces the
//! publication history's end state or fails loudly; it never silently
//! skips or reorders a batch. A record that does not decode is named by
//! its own sequence number when replay reaches it, before any batch is
//! built from it, unless restoring the snapshot failed first. A restart
//! publishes once per run and once per repair record. The restored state
//! shares the first run's publish when a run comes first; when a repair
//! record or the end of the tail comes first, it is published on its
//! own, at the snapshot's generation.

use crate::config::PipelineOptions;
use crate::index::{AppendStats, IndexError, RepairStats};
use crate::selection::SelectionStatistic;
use crate::shard::{EarlyCounts, ShardedFacetIndex, Termed};
use facet_corpus::db::DocTerms;
use facet_corpus::{DocId, Document};
use facet_resources::{
    ContextResource, ContextualizedDatabase, ExpansionCache, ExpansionOptions, ResolvedTerm,
};
use facet_store::bytes::{ByteReader, ByteWriter};
use facet_store::{FacetStore, Recovery, RecoveryReport, SnapshotPayload, StoreError, WalRecord};
use facet_termx::TermExtractor;
use facet_textkit::{RowStore, TermId, Vocabulary};

/// Version of the section *contents* (the store's `FORMAT_VERSION`
/// covers the framing). Bump when any section codec changes shape; a
/// snapshot of any other version is refused as a corrupt `meta`
/// section, never decoded.
pub const STATE_VERSION: u32 = 6;

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

/// Decode one term list into `out`, replacing what it held.
fn dec_terms_into(r: &mut ByteReader<'_>, out: &mut Vec<TermId>) -> Option<()> {
    let n = r.u64()? as usize;
    out.clear();
    out.reserve(n.min(r.remaining() / 4 + 1));
    for _ in 0..n {
        out.push(TermId(r.u32()?));
    }
    Some(())
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

/// Decode rows section `name` of `payload`, which must hold exactly `n`
/// rows, each naming only symbols below `vocab_len` and, when
/// `ascending`, strictly ascending. Each row is decoded into one reused
/// buffer, checked, and handed to `push`.
fn decode_rows(
    payload: &SnapshotPayload,
    name: &str,
    n: usize,
    vocab_len: usize,
    ascending: bool,
    mut push: impl FnMut(&[TermId]),
) -> Result<(), StoreError> {
    decode(payload, name, |r| {
        if r.u64()? != n as u64 {
            return None;
        }
        let mut row = Vec::new();
        for _ in 0..n {
            dec_terms_into(r, &mut row)?;
            let known = row.iter().all(|t| t.index() < vocab_len);
            if !known || (ascending && row.windows(2).any(|w| w[0] >= w[1])) {
                return None;
            }
            push(&row);
        }
        Some(())
    })
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
/// [`Vocabulary::from_parts`] rebuilds the probe table progressive
/// interning would have built, so a restored vocabulary interns future
/// terms byte-identically to the live one it mirrors.
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
        let mut terms = Vec::new();
        dec_terms_into(r, &mut terms)?;
        let n_failed = r.u64()? as usize;
        let mut failed = Vec::with_capacity(n_failed.min(r.remaining() / 8 + 1));
        for _ in 0..n_failed {
            failed.push(r.str()?.to_string());
        }
        cache.restore(term, ResolvedTerm { terms, failed });
    }
    Some(cache)
}

// ---------------------------------------------------------------------
// Meta section: the one section every snapshot must carry. The
// expansion thread count is not in it: it sets a worker budget, not a
// result, and a reopened index keeps the caller's.
// ---------------------------------------------------------------------

struct Meta {
    generation: u64,
    statistic: SelectionStatistic,
    options: PipelineOptions,
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
    w.f64(meta.options.subsumption_threshold);
    w.u64(meta.options.min_df_c);
    w.u64(meta.n_docs);
}

/// Decode `meta`, taking the expansion options from `expansion`.
fn dec_meta(r: &mut ByteReader<'_>, expansion: &ExpansionOptions) -> Option<Meta> {
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
        expansion: expansion.clone(),
        subsumption_threshold: r.f64()?,
        min_df_c: r.u64()?,
    };
    options.validate().ok()?;
    Some(Meta {
        generation,
        statistic,
        options,
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
    /// Append the record's documents, this many.
    Append(usize),
    Repair,
}

/// One WAL record as replay reads it: its sequence number and what it
/// asks, or why it does not decode.
type Decoded = Result<(u64, ReplayOp), StoreError>;

/// Decode `record`, moving an append record's documents onto `docs`.
fn dec_record(record: &WalRecord, docs: &mut Vec<Document>) -> Result<ReplayOp, StoreError> {
    let mut r = ByteReader::new(&record.payload);
    match r.u8() {
        Some(RECORD_APPEND) => {
            let batch = dec_docs(&mut r)
                .filter(|_| r.is_empty())
                .ok_or_else(|| replay_failed(record.seq, "append record payload is malformed"))?;
            let n = batch.len();
            docs.extend(batch);
            Ok(ReplayOp::Append(n))
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
        n_docs: index.db.len() as u64,
    };
    let sections = [
        ("meta", encode(|w| enc_meta(w, &meta))),
        ("vocab", encode(|w| enc_vocab(w, &index.vocab))),
        ("doc_terms", encode(|w| enc_rows(w, index.db.rows()))),
        ("cache", encode(|w| enc_cache(w, &index.cache))),
        ("ctx_rows", encode(|w| enc_rows(w, index.ctx.rows()))),
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
/// every row section holds one row per `meta` document, every row names a
/// symbol of the vocabulary, and the rows df and `df_C` count are
/// strictly ascending, as ingest and expansion write them
/// ([`decode_rows`], which pushes each row into its store as it checks
/// it). The row sections come first. Once `doc_terms` and `ctx_rows` are
/// in place, with df and `df_C`, `beside` runs on the index, and restore
/// returns what it returns: recovery ranks the snapshot's top k there and
/// starts counting their pairs ([`ShardedFacetIndex::start_counts`]).
/// A snapshot is still refused at its first bad section in section order
/// (`meta`, `vocab`, `doc_terms`, `cache`, `ctx_rows`, `important`).
/// Then `cache` and `important` are decoded, the persisted
/// generation set, and the postings and the degraded map rebuilt the way
/// repair does. Nothing is published: the index's snapshot stays the
/// empty one until replay publishes (see
/// [`ShardedFacetIndex::open_from`]), which ranks, counts the subsumption
/// pairs (or finishes the count `beside` started) and publishes once for
/// the restored state and the first run of appends together.
fn restore_index_with<'a, T>(
    index: &mut ShardedFacetIndex<'a>,
    payload: &SnapshotPayload,
    beside: impl FnOnce(&mut ShardedFacetIndex<'a>) -> T,
) -> Result<T, StoreError> {
    let meta = decode(payload, "meta", |r| dec_meta(r, &index.options.expansion))?;
    if payload.generation != meta.generation {
        return Err(corrupt("meta"));
    }
    let n_docs = usize::try_from(meta.n_docs).map_err(|_| corrupt("meta"))?;
    let vocab = decode(payload, "vocab", dec_vocab)?;
    let n_terms = vocab.len();
    let decode_cache = || {
        let known = |t: &TermId| t.index() < n_terms;
        decode(payload, "cache", |r| {
            dec_cache(r).filter(|c| {
                c.entries()
                    .all(|(t, res)| known(&t) && res.terms.iter().all(known))
            })
        })
    };
    let mut db = DocTerms::default();
    decode_rows(payload, "doc_terms", n_docs, n_terms, true, |row| {
        db.push_row(row)
    })?;
    let mut ctx_rows = RowStore::new();
    if let Err(e) = decode_rows(payload, "ctx_rows", n_docs, n_terms, true, |row| {
        ctx_rows.push(row);
    }) {
        // A snapshot is refused at its first bad section in section
        // order, and `cache` comes before `ctx_rows`.
        decode_cache()?;
        return Err(e);
    }
    index.options = meta.options;
    index.statistic = meta.statistic;
    index.vocab = vocab;
    index.db = db;
    index.ctx = ContextualizedDatabase::from_parts(ctx_rows);
    let started = beside(index);
    let cache = decode_cache()?;
    let mut important = RowStore::new();
    decode_rows(payload, "important", n_docs, n_terms, false, |row| {
        important.push(row);
    })?;
    index.cache = cache;
    index.important = important;
    index.generation = meta.generation;
    index.reindex();
    Ok(started)
}

/// [`restore_index_with`], running nothing beside: the next publish
/// builds selection's state and the counts.
#[cfg(test)]
fn restore_index(
    index: &mut ShardedFacetIndex<'_>,
    payload: &SnapshotPayload,
) -> Result<(), StoreError> {
    restore_index_with(index, payload, |_| ())
}

/// An open run of logged appends: their documents in log order, the
/// leading ones already through Step 1, how many records they came
/// from, and the last record's sequence number.
#[derive(Default)]
struct Run {
    extracted: Vec<Termed>,
    docs: Vec<Document>,
    records: u64,
    last_seq: u64,
}

/// Publish what replay has held back: the open `run` as one batch at its
/// last sequence number, or, with no run open, a `restored` state that
/// nothing has published yet. Either way the index is published after;
/// the first publish takes the `early` counts, if any.
fn flush(
    index: &mut ShardedFacetIndex<'_>,
    run: &mut Run,
    restored: &mut bool,
    early: &mut Option<EarlyCounts<'_>>,
) -> Result<(), StoreError> {
    let run = std::mem::take(run);
    let early = early.take();
    if run.records > 0 {
        let landed = index
            .append_resumed_at(
                run.extracted,
                run.docs,
                index.generation + run.records,
                early,
            )
            .map_err(|e| replay_failed(run.last_seq, e.to_string()))?
            .generation;
        check_replayed_generation(run.last_seq, landed)?;
    } else if *restored {
        index.publish_at(index.generation, early);
    }
    *restored = false;
    Ok(())
}

/// Decode `tail` record by record, up to and including the first record
/// that does not decode: each entry is the record's sequence number and
/// what it asks, or the error replay reports when it reaches that
/// record. The append records' documents come back in log order.
fn decode_tail(tail: &[WalRecord]) -> (Vec<Decoded>, Vec<Document>) {
    let mut ops = Vec::with_capacity(tail.len());
    let mut docs = Vec::new();
    for record in tail {
        let op = dec_record(record, &mut docs);
        let failed = op.is_err();
        ops.push(op.map(|op| (record.seq, op)));
        if failed {
            break;
        }
    }
    (ops, docs)
}

/// [`ShardedFacetIndex::open_from`] into `index`, fresh from
/// [`ShardedFacetIndex::new`]: restore the newest verified snapshot, if
/// the store holds one, and replay the tail.
///
/// Step 1 of the tail's documents is a pure function of their text, so
/// it runs beside restore on the documents it reaches before restore is
/// done; replay ingests those and extracts the rest as an append does.
/// Either way replay ingests in log order, so ids and snapshot bytes are
/// those of a serial replay. Once the row sections are decoded, the
/// snapshot generation's pair counts start on scoped threads, and
/// replay's first publish finishes them
/// ([`ShardedFacetIndex::restore_beside`]). The tail's records are
/// dropped once decoded and the snapshot's bytes once restored, so
/// neither is held through replay. Restore's error, if any, comes before
/// any record's.
fn recover_into<'a>(
    store: &FacetStore,
    mut index: ShardedFacetIndex<'a>,
) -> Result<(ShardedFacetIndex<'a>, RecoveryReport), StoreError> {
    let Recovery {
        snapshot,
        tail,
        report,
    } = store.recover()?;
    let restored = snapshot.generation > 0 || !snapshot.sections.is_empty();
    let (ops, docs) = decode_tail(&tail);
    drop(tail);
    if restored {
        index.restore_beside(
            docs,
            |index, start| {
                let restored = restore_index_with(index, &snapshot, start);
                // Decoded: the section bytes need not live through replay.
                drop(snapshot);
                restored
            },
            |index, extracted, docs, early| replay_from(index, ops, extracted, docs, true, early),
        )?;
    } else {
        replay_from(&mut index, ops, Vec::new(), docs, false, None)?;
    }
    Ok((index, report))
}

/// [`replay_from`] with no counts started beside restore.
#[cfg(test)]
fn replay(
    index: &mut ShardedFacetIndex<'_>,
    ops: Vec<Decoded>,
    extracted: Vec<Termed>,
    docs: Vec<Document>,
    restored: bool,
) -> Result<(), StoreError> {
    replay_from(index, ops, extracted, docs, restored, None)
}

/// Replay `ops`, the WAL records after the state `index` holds as
/// [`decode_tail`] returns them, run by run (see [Replay
/// discipline](self#replay-discipline)). The append records' documents
/// are `extracted`, those Step 1 already ran on, then `docs`, in log
/// order. `restored` says that state came from a snapshot and is not
/// published yet, and `early` holds its pair counts if restore started
/// them; the first publish takes them. The index is published when this
/// returns.
fn replay_from(
    index: &mut ShardedFacetIndex<'_>,
    ops: Vec<Decoded>,
    extracted: Vec<Termed>,
    docs: Vec<Document>,
    mut restored: bool,
    mut early: Option<EarlyCounts<'_>>,
) -> Result<(), StoreError> {
    let (mut extracted, mut docs) = (extracted.into_iter(), docs.into_iter());
    let mut run = Run::default();
    for op in ops {
        match op? {
            (seq, ReplayOp::Append(n)) => {
                let ready = n.min(extracted.len());
                run.extracted.extend(extracted.by_ref().take(ready));
                run.docs.extend(docs.by_ref().take(n - ready));
                run.records += 1;
                run.last_seq = seq;
            }
            (seq, ReplayOp::Repair) => {
                flush(index, &mut run, &mut restored, &mut early)?;
                let stats = index
                    .repair()
                    .map_err(|e| replay_failed(seq, e.to_string()))?;
                if stats.requeried_terms == 0 {
                    // The terms the live repair re-queried were resolved
                    // cleanly by the replayed appends (their resource
                    // healed before the restart), so the state already
                    // equals the live repaired one: publish it where the
                    // live repair did.
                    index.publish_at(index.generation + 1, None);
                }
                check_replayed_generation(seq, index.generation)?;
            }
        }
    }
    flush(index, &mut run, &mut restored, &mut early)
}

impl<'a> ShardedFacetIndex<'a> {
    /// Publish the index's source state — vocabulary, term rows, the
    /// expansion cache with its degradation provenance, contextualized
    /// rows and `I(d)` lists — as one snapshot generation (atomic write,
    /// retention, WAL pruning). No document text is written. Returns the
    /// generation written.
    ///
    /// # Errors
    /// Any [`StoreError`] from the store; the index itself is untouched.
    pub fn persist_to(&self, store: &FacetStore) -> Result<u64, StoreError> {
        let payload = encode_index(self);
        store.publish_snapshot(&payload)?;
        Ok(payload.generation)
    }

    /// Recover an index from a store: decode the newest verified
    /// snapshot, then replay the WAL tail through the live
    /// [`ShardedFacetIndex::append`] / [`ShardedFacetIndex::repair`]
    /// paths, one append per run of consecutive append records (see
    /// [Replay discipline](crate::persist#replay-discipline)). A snapshot
    /// followed by an append-only tail publishes once in all, and one
    /// with an empty tail once at the snapshot's generation; no reader
    /// sees a snapshot of the index before this returns. `n` floors the worker count as
    /// in [`ShardedFacetIndex::new`]; any count reopens any snapshot.
    /// `options.expansion.threads` always applies: it is the caller's
    /// worker budget, and results do not depend on it. The rest of
    /// `options` applies only when the store is empty (a fresh
    /// directory) — a persisted snapshot restores the ranking and
    /// subsumption options it was built with.
    ///
    /// # Errors
    /// [`StoreError`] from recovery, decoding (including a snapshot of
    /// another [`STATE_VERSION`]), a WAL record that does not decode, or
    /// a replayed publication that diverges from its record
    /// ([`StoreError::ReplayFailed`], naming the record's sequence
    /// number).
    pub fn open_from(
        store: &FacetStore,
        n: usize,
        extractors: Vec<&'a dyn TermExtractor>,
        resources: Vec<&'a dyn ContextResource>,
        options: PipelineOptions,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let index = ShardedFacetIndex::new(n, extractors, resources, options);
        recover_into(store, index)
    }

    /// [`ShardedFacetIndex::append`] with log-ahead durability: the batch
    /// is written to the WAL (sequence = the generation the append will
    /// publish) *before* it is applied, so a crash at any point replays
    /// to a state that includes every acknowledged batch.
    ///
    /// # Errors
    /// [`IndexError::InvalidOptions`] before anything is logged if the
    /// index's options fail [`PipelineOptions::validate`];
    /// [`IndexError::Store`] if the WAL write fails (the batch was not
    /// applied), or any [`IndexError`] from the append itself (the
    /// record is durable; recovery replays it from the last snapshot).
    pub fn append_logged(
        &mut self,
        batch: Vec<Document>,
        store: &FacetStore,
    ) -> Result<AppendStats, IndexError> {
        self.options.validate()?;
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
    use crate::shard::extract_document;
    use crate::shard::tests::{corpus, options, with_threads, CountingResource, FixedExtractor};
    use facet_obs::Recorder;
    use facet_resources::{FaultPlan, FaultyResource, VirtualClock};
    use facet_store::{snapshot_file_name, WAL_FILE};
    use facet_textkit::rows::CHUNK_ROWS;
    use std::path::PathBuf;

    /// A fresh store directory unique to this process and call.
    fn test_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "facet-core-persist-{tag}-{}-{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A degraded index persists its provenance in the cache alone: the
    /// recovered index publishes the live degraded map and digest, and
    /// once the resource heals, repairing the live index (logged), the
    /// recovered one, and replaying the logged repair all converge.
    #[test]
    fn degraded_index_persists_and_repairs_like_the_live_one() {
        let e = FixedExtractor;
        let faulty = FaultyResource::new(
            CountingResource::new(),
            FaultPlan::seeded(7, 1000),
            VirtualClock::new(),
        );
        let dir = test_dir("degraded");
        let store = FacetStore::open(&dir).unwrap();
        let open = || {
            ShardedFacetIndex::open_from(&store, 1, vec![&e], vec![&faulty], options())
                .unwrap()
                .0
        };
        let mut live = ShardedFacetIndex::new(2, vec![&e], vec![&faulty], options());
        live.append_logged(corpus(24), &store).unwrap();
        live.persist_to(&store).unwrap();
        let mut recovered = open();
        let snap = live.snapshot();
        assert_eq!(snap.degraded().len(), 3, "every entity degraded");
        assert_eq!(recovered.snapshot().degraded(), snap.degraded());
        assert_eq!(recovered.snapshot().digest(), snap.digest());

        faulty.heal();
        let stats = live.repair_logged(&store).unwrap();
        assert_eq!((stats.repaired_terms, stats.still_degraded), (3, 0));
        assert_eq!(recovered.repair().unwrap(), stats);
        let mut replayed = open();
        let healed = live.snapshot();
        assert!(healed.is_fully_covered());
        assert_eq!(recovered.snapshot().digest(), healed.digest());
        assert_eq!(replayed.snapshot().digest(), healed.digest());
        assert_eq!(replayed.repair().unwrap().requeried_terms, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot with degraded terms, then an append-only tail that
    /// resolves one more term degraded: the one publish of recovery
    /// carries the restored degradation and the tail's together.
    #[test]
    fn restored_degradation_survives_the_single_publish() {
        let e = FixedExtractor;
        let faulty = FaultyResource::new(
            CountingResource::new(),
            FaultPlan::seeded(7, 1000),
            VirtualClock::new(),
        );
        let dir = test_dir("degraded-tail");
        let store = FacetStore::open(&dir).unwrap();
        let mut live = ShardedFacetIndex::new(2, vec![&e], vec![&faulty], options());
        // corpus(1) names only Chirac; corpus(2) adds Merkel.
        live.append_logged(corpus(1), &store).unwrap();
        live.persist_to(&store).unwrap();
        assert_eq!(live.snapshot().degraded().len(), 1);
        live.append_logged(corpus(2), &store).unwrap();
        live.append_logged(corpus(1), &store).unwrap();
        let snap = live.snapshot();
        assert_eq!(snap.degraded().len(), 2, "the tail degraded Merkel");
        let (recovered, report) =
            ShardedFacetIndex::open_from(&store, 1, vec![&e], vec![&faulty], options()).unwrap();
        assert_eq!(report.replayed_records, 2);
        let got = recovered.snapshot();
        assert_eq!(got.generation(), snap.generation());
        assert_eq!(got.degraded(), snap.degraded());
        assert_eq!(got.digest(), snap.digest());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Append, append, repair, append after a degraded snapshot: two
    /// runs around the repair record, each publishing once, recover the
    /// live digest at one worker and at three.
    #[test]
    fn runs_around_a_repair_recover_the_live_digest() {
        let e = FixedExtractor;
        let faulty = FaultyResource::new(
            CountingResource::new(),
            FaultPlan::seeded(7, 1000),
            VirtualClock::new(),
        );
        let dir = test_dir("runs-repair");
        let store = FacetStore::open(&dir).unwrap();
        let mut live = ShardedFacetIndex::new(2, vec![&e], vec![&faulty], options());
        live.append_logged(corpus(4), &store).unwrap();
        live.persist_to(&store).unwrap();
        live.append_logged(corpus(5), &store).unwrap();
        live.append_logged(corpus(3), &store).unwrap();
        faulty.heal();
        assert_eq!(live.repair_logged(&store).unwrap().repaired_terms, 3);
        live.append_logged(corpus(6), &store).unwrap();
        let snap = live.snapshot();
        assert!(snap.is_fully_covered());
        for n in [1, 3] {
            let recorder = Recorder::enabled();
            let index = ShardedFacetIndex::new(n, vec![&e], vec![&faulty], with_threads(1))
                .with_recorder(recorder.clone());
            let (recovered, _) = recover_into(&store, index).unwrap();
            let got = recovered.snapshot();
            assert_eq!(got.generation(), snap.generation(), "{n} workers");
            assert_eq!(got.digest(), snap.digest(), "{n} workers");
            assert_eq!(publishes(&recorder), 3, "{n} workers: run, repair, run");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every degraded term is in the WAL tail, and the resource heals
    /// before the restart: the replayed appends resolve those terms
    /// cleanly, so the replayed repair record finds nothing to re-query,
    /// and recovery still lands on the live repaired state at the
    /// repair's generation.
    #[test]
    fn replayed_repair_with_nothing_to_requery_recovers_the_live_digest() {
        let e = WordExtractor;
        let faulty = FaultyResource::new(
            NeighbourResource,
            FaultPlan::seeded(3, 300),
            VirtualClock::new(),
        );
        let dir = test_dir("repair-healed");
        let store = FacetStore::open(&dir).unwrap();
        let mut live = ShardedFacetIndex::new(1, vec![&e], vec![&faulty], with_threads(1));
        for words in [&WORDS[..6], &WORDS[4..], &WORDS[..]] {
            let doc = Document {
                id: DocId(0),
                source: 0,
                day: 0,
                title: "Story".into(),
                text: words.join(" ") + ".",
            };
            live.append_logged(vec![doc], &store).unwrap();
        }
        assert!(
            !live.snapshot().is_fully_covered(),
            "the plan degrades a term"
        );
        faulty.heal();
        assert!(live.repair_logged(&store).unwrap().repaired_terms > 0);
        let snap = live.snapshot();
        let (recovered, report) =
            ShardedFacetIndex::open_from(&store, 1, vec![&e], vec![&faulty], with_threads(1))
                .unwrap();
        assert_eq!(report.replayed_records, 4, "three appends and the repair");
        let got = recovered.snapshot();
        assert_eq!(got.generation(), snap.generation());
        assert!(got.is_fully_covered());
        assert_eq!(got.digest(), snap.digest());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The publishes a recorder saw: each one records one `swap` span,
    /// under `append`, `repair` or on its own.
    fn publishes(recorder: &Recorder) -> u64 {
        recorder
            .snapshot_counts_only()
            .iter()
            .filter(|(k, _)| k.starts_with("span.") && k.ends_with("swap.count"))
            .map(|(_, v)| v)
            .sum()
    }

    /// An append-only tail of several records publishes once, at the
    /// last record's sequence number, with the live digest; so does an
    /// empty tail, at the snapshot's generation.
    #[test]
    fn append_only_tail_publishes_once() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let dir = test_dir("one-publish");
        let store = FacetStore::open(&dir).unwrap();
        let mut live = ShardedFacetIndex::new(2, vec![&e], vec![&r], options());
        live.append_logged(corpus(12), &store).unwrap();
        live.persist_to(&store).unwrap();
        let open = || {
            let recorder = Recorder::enabled();
            let index = ShardedFacetIndex::new(2, vec![&e], vec![&r], options())
                .with_recorder(recorder.clone());
            let (index, report) = recover_into(&store, index).unwrap();
            (index.snapshot(), report.replayed_records, recorder)
        };
        let (got, replayed, recorder) = open();
        assert_eq!((got.generation(), replayed), (1, 0));
        assert_eq!(got.digest(), live.snapshot().digest());
        assert_eq!(
            publishes(&recorder),
            1,
            "an empty tail publishes the snapshot"
        );

        for n in [3, 1, 7, 2, 5] {
            live.append_logged(corpus(n), &store).unwrap();
        }
        let (got, replayed, recorder) = open();
        assert_eq!(replayed, 5);
        assert_eq!(got.generation(), 6);
        assert_eq!(got.digest(), live.snapshot().digest());
        assert_eq!(publishes(&recorder), 1);
        let counts = recorder.snapshot_counts_only();
        assert_eq!(counts["span.append.count"], 1, "one append for the run");
        assert_eq!(counts["counter.append.docs"], 18);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record that does not decode fails recovery with `ReplayFailed`
    /// naming its own sequence number, after a valid record in the same
    /// run: an unknown kind byte, and an append whose payload is cut
    /// short.
    #[test]
    fn undecodable_records_are_named_by_sequence() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let append = encode(|w| {
            w.u8(RECORD_APPEND);
            enc_docs(w, &corpus(3));
        });
        let cases = [
            ("unknown kind", vec![7u8]),
            ("truncated append", append[..append.len() - 5].to_vec()),
        ];
        for (what, bad) in cases {
            let dir = test_dir("hostile");
            let store = FacetStore::open(&dir).unwrap();
            let mut live = ShardedFacetIndex::new(1, vec![&e], vec![&r], options());
            live.append_logged(corpus(8), &store).unwrap();
            live.persist_to(&store).unwrap();
            live.append_logged(corpus(4), &store).unwrap();
            store.log_record(3, &bad).unwrap();
            match ShardedFacetIndex::open_from(&store, 1, vec![&e], vec![&r], options()) {
                Err(StoreError::ReplayFailed { seq, .. }) => assert_eq!(seq, 3, "{what}"),
                Err(other) => panic!("{what}: {other}"),
                Ok(_) => panic!("{what}: recovered past a malformed record"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Step 1 of the tail, run beside restore, replays like one serial
    /// pass: tails of no run, of one run, and of runs around a repair
    /// record reopen at 1–4 workers to the live digest, and each reopened
    /// index persists a snapshot byte-identical to the one-worker
    /// replay's. So does replay with every split of the tail into
    /// documents extracted beside restore and documents left to the
    /// extract stage, which the timing of a real restart only samples.
    #[test]
    fn tail_extracted_beside_restore_replays_like_one_thread() {
        let e = FixedExtractor;
        let faulty = FaultyResource::new(
            CountingResource::new(),
            FaultPlan::seeded(7, 1000),
            VirtualClock::new(),
        );
        let dir = test_dir("beside");
        let store = FacetStore::open(&dir).unwrap();
        let mut live = ShardedFacetIndex::new(2, vec![&e], vec![&faulty], options());
        live.append_logged(corpus(4), &store).unwrap();
        live.persist_to(&store).unwrap();
        let snapshot_bytes = |index: &ShardedFacetIndex<'_>| {
            let out = test_dir("beside-out");
            let generation = index.persist_to(&FacetStore::open(&out).unwrap()).unwrap();
            let bytes = std::fs::read(out.join(snapshot_file_name(generation))).unwrap();
            std::fs::remove_dir_all(&out).ok();
            bytes
        };
        let check = |live: &ShardedFacetIndex<'_>, tail: usize| {
            let mut serial = None;
            for n in 1..=4 {
                let (index, report) = ShardedFacetIndex::open_from(
                    &store,
                    n,
                    vec![&e],
                    vec![&faulty],
                    with_threads(1),
                )
                .unwrap();
                assert_eq!(report.replayed_records, tail, "{n} workers");
                assert_eq!(
                    index.snapshot().digest(),
                    live.snapshot().digest(),
                    "{n} workers"
                );
                let bytes = snapshot_bytes(&index);
                match &serial {
                    None => serial = Some(bytes),
                    Some(serial) => assert!(bytes == *serial, "{n} workers, {tail} records"),
                }
            }
            let serial = serial.unwrap();
            let recovery = store.recover().unwrap();
            let (_, docs) = decode_tail(&recovery.tail);
            for split in 0..=docs.len() {
                let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&faulty], with_threads(1));
                restore_index(&mut index, &recovery.snapshot).unwrap();
                let (ops, mut rest) = decode_tail(&recovery.tail);
                let extracted = rest
                    .drain(..split)
                    .map(|d| extract_document(&[&e], &d))
                    .collect();
                replay(&mut index, ops, extracted, rest, true).unwrap();
                assert_eq!(index.snapshot().digest(), live.snapshot().digest());
                assert!(
                    snapshot_bytes(&index) == serial,
                    "split {split}, {tail} records"
                );
            }
        };
        check(&live, 0);
        live.append_logged(corpus(5), &store).unwrap();
        check(&live, 1);
        live.append_logged(corpus(3), &store).unwrap();
        faulty.heal();
        assert_eq!(live.repair_logged(&store).unwrap().repaired_terms, 3);
        live.append_logged(corpus(6), &store).unwrap();
        live.append_logged(corpus(2), &store).unwrap();
        check(&live, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An extractor that panics on a tail document takes `open_from`
    /// down with its panic at 1–4 workers; nobody waits for it forever.
    #[test]
    fn tail_extractor_panic_propagates_instead_of_hanging() {
        struct Fails;
        impl TermExtractor for Fails {
            fn name(&self) -> &'static str {
                "Fails"
            }
            fn extract(&self, text: &str) -> Vec<String> {
                assert!(!text.contains("Blair"), "hostile document");
                Vec::new()
            }
        }
        let (e, r) = (FixedExtractor, CountingResource::new());
        let dir = test_dir("tail-panic");
        let store = FacetStore::open(&dir).unwrap();
        let mut live = ShardedFacetIndex::new(1, vec![&e], vec![&r], options());
        live.append_logged(corpus(8), &store).unwrap();
        live.persist_to(&store).unwrap();
        live.append_logged(corpus(3), &store).unwrap();
        for n in 1..=4 {
            let opened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ShardedFacetIndex::open_from(&store, n, vec![&Fails], vec![&r], with_threads(1))
            }));
            assert!(opened.is_err(), "{n} workers");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `n` documents of random [`WORDS`], a few words each, low words more
    /// often, so the top k shifts as batches come.
    fn word_docs(rng: &mut proptest::test_runner::TestRng, n: usize) -> Vec<Document> {
        (0..n)
            .map(|i| {
                let words: Vec<&str> = WORDS
                    .iter()
                    .enumerate()
                    .filter(|&(w, _)| rng.below(w as u64 / 3 + 2) == 0)
                    .map(|(_, w)| *w)
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

    /// The pair counts started beside restore give what counting at the
    /// publish gives. Tails of 0, 1 and 5 records (two runs around a
    /// repair record), and a repair record right after the snapshot,
    /// reopen at 1–4 workers to the live digest, persist snapshot bytes
    /// equal to the one-worker replay's, and leave a co-count table, with
    /// its passing lists, and a selection state equal to fresh builds for
    /// what they published. So does replay with every split of the rows
    /// between a helper thread and the publishing thread, which the
    /// timing of a real restart only samples. A small `top_k` makes the
    /// top k churn between the snapshot and the tail.
    #[test]
    fn counts_started_beside_restore_equal_a_fresh_scan() {
        use crate::shard::tests::assert_maintained_state_is_fresh;
        use proptest::test_runner::TestRng;
        let e = WordExtractor;
        let opts = PipelineOptions {
            top_k: 4,
            min_df_c: 1,
            ..with_threads(1)
        };
        let snapshot_bytes = |index: &ShardedFacetIndex<'_>| {
            let out = test_dir("early-out");
            let generation = index.persist_to(&FacetStore::open(&out).unwrap()).unwrap();
            let bytes = std::fs::read(out.join(snapshot_file_name(generation))).unwrap();
            std::fs::remove_dir_all(&out).ok();
            bytes
        };
        let mut splits = 0;
        for repair_first in [false, true] {
            let mut rng = TestRng::deterministic(&format!("early counts {repair_first}"));
            // Every word degraded on the second resource until it heals,
            // so a repair record re-queries them.
            let faulty = FaultyResource::new(
                CountingResource::new(),
                FaultPlan::seeded(7, 1000),
                VirtualClock::new(),
            );
            let resources: Vec<&dyn ContextResource> = vec![&NeighbourResource, &faulty];
            let dir = test_dir("early");
            let store = FacetStore::open(&dir).unwrap();
            let mut check = |live: &ShardedFacetIndex<'_>, tail: usize| {
                let what =
                    |how: String| format!("repair first {repair_first}, {tail} records, {how}");
                let want = live.snapshot().digest();
                let mut serial = None;
                for n in 1..=4 {
                    let (index, report) = ShardedFacetIndex::open_from(
                        &store,
                        n,
                        vec![&e],
                        resources.clone(),
                        opts.clone(),
                    )
                    .unwrap();
                    assert_eq!(
                        report.replayed_records,
                        tail,
                        "{}",
                        what(format!("{n} workers"))
                    );
                    assert_eq!(
                        index.snapshot().digest(),
                        want,
                        "{}",
                        what(format!("{n} workers"))
                    );
                    assert_maintained_state_is_fresh(&index, &what(format!("{n} workers")));
                    let bytes = snapshot_bytes(&index);
                    match &serial {
                        None => serial = Some(bytes),
                        Some(serial) => {
                            assert!(bytes == *serial, "{}", what(format!("{n} workers")))
                        }
                    }
                }
                let serial = serial.unwrap();
                let recovery = store.recover().unwrap();
                let mut rows = None;
                let mut split = 0;
                while rows.is_none_or(|rows| split <= rows) {
                    let (ops, docs) = decode_tail(&recovery.tail);
                    let mut index =
                        ShardedFacetIndex::new(2, vec![&e], resources.clone(), opts.clone());
                    std::thread::scope(|s| {
                        let early = restore_index_with(&mut index, &recovery.snapshot, |index| {
                            rows = Some(index.ctx.len());
                            let early = index.start_counts(s, 1, 1, move |scan| scan.count(split));
                            // The helper claims its rows before the
                            // publishing thread may claim any.
                            while early.scan().claimed() < split {
                                std::thread::yield_now();
                            }
                            early
                        })
                        .unwrap();
                        replay_from(&mut index, ops, Vec::new(), docs, true, Some(early)).unwrap();
                    });
                    let how = what(format!("split {split}"));
                    assert_eq!(index.snapshot().digest(), want, "{how}");
                    assert!(snapshot_bytes(&index) == serial, "{how}");
                    assert_maintained_state_is_fresh(&index, &how);
                    split += 1;
                    splits += 1;
                }
            };
            let mut live = ShardedFacetIndex::new(2, vec![&e], resources.clone(), opts.clone());
            live.append_logged(word_docs(&mut rng, 12), &store).unwrap();
            live.persist_to(&store).unwrap();
            assert!(
                !live.snapshot().is_fully_covered(),
                "the snapshot holds degraded terms"
            );
            if repair_first {
                faulty.heal();
                assert!(live.repair_logged(&store).unwrap().requeried_terms > 0);
                live.append_logged(word_docs(&mut rng, 5), &store).unwrap();
                check(&live, 2);
            } else {
                check(&live, 0);
                live.append_logged(word_docs(&mut rng, 6), &store).unwrap();
                check(&live, 1);
                live.append_logged(word_docs(&mut rng, 5), &store).unwrap();
                faulty.heal();
                assert!(live.repair_logged(&store).unwrap().requeried_terms > 0);
                live.append_logged(word_docs(&mut rng, 7), &store).unwrap();
                live.append_logged(word_docs(&mut rng, 4), &store).unwrap();
                check(&live, 5);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(splits > 40, "{splits} splits");
    }

    /// A helper thread counting pairs beside restore that panics, after
    /// claiming rows, takes the replay down with its panic at 1–3 helpers
    /// instead of leaving the publish waiting for its counts.
    #[test]
    fn count_worker_panic_propagates_instead_of_hanging() {
        let (e, r) = (FixedExtractor, CountingResource::new());
        let dir = test_dir("count-panic");
        let store = FacetStore::open(&dir).unwrap();
        let mut live = ShardedFacetIndex::new(1, vec![&e], vec![&r], options());
        live.append_logged(corpus(40), &store).unwrap();
        live.persist_to(&store).unwrap();
        live.append_logged(corpus(3), &store).unwrap();
        let recovery = store.recover().unwrap();
        for helpers in 1..=3 {
            let replayed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (ops, docs) = decode_tail(&recovery.tail);
                let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&r], with_threads(1));
                std::thread::scope(|s| {
                    let early = restore_index_with(&mut index, &recovery.snapshot, |index| {
                        index.start_counts(s, 4, helpers, |scan| {
                            scan.count(1);
                            panic!("count worker");
                        })
                    })
                    .unwrap();
                    replay_from(&mut index, ops, Vec::new(), docs, true, Some(early))
                })
            }));
            assert!(replayed.is_err(), "{helpers} helpers");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// With Step 1 of the tail beside restore, the errors come as they
    /// did in series: an undecodable record is named by its sequence
    /// number at 1–4 workers, and once the snapshot's `meta` is also
    /// corrupt, restore's error wins.
    #[test]
    fn restore_errors_still_win_over_undecodable_records() {
        let (e, r) = (FixedExtractor, CountingResource::new());
        let dir = test_dir("error-order");
        let store = FacetStore::open(&dir).unwrap();
        let mut live = ShardedFacetIndex::new(1, vec![&e], vec![&r], options());
        live.append_logged(corpus(8), &store).unwrap();
        live.persist_to(&store).unwrap();
        live.append_logged(corpus(4), &store).unwrap();
        store.log_record(3, &[7u8]).unwrap();
        let open_err = |n| match ShardedFacetIndex::open_from(
            &store,
            n,
            vec![&e],
            vec![&r],
            with_threads(1),
        ) {
            Err(e) => e,
            Ok(_) => panic!("{n} workers: recovered past a malformed record"),
        };
        for n in 1..=4 {
            assert!(
                matches!(open_err(n), StoreError::ReplayFailed { seq: 3, .. }),
                "{n} workers"
            );
        }
        let mut payload = store.recover().unwrap().snapshot;
        let meta = &mut payload
            .sections
            .iter_mut()
            .find(|(n, _)| n == "meta")
            .unwrap()
            .1;
        meta[..4].copy_from_slice(&(STATE_VERSION + 1).to_le_bytes());
        store.publish_snapshot(&payload).unwrap();
        for n in 1..=4 {
            assert_eq!(open_err(n), corrupt("meta"), "{n} workers");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Document text reaches the WAL, which keeps each batch until the
    /// oldest retained snapshot covers it, and never a snapshot.
    #[test]
    fn snapshots_hold_no_document_text() {
        const MARKER: &str = "QzXv-Marker";
        let e = FixedExtractor;
        let r = CountingResource::new();
        let docs: Vec<Document> = corpus(12)
            .into_iter()
            .map(|mut d| {
                d.title = format!("{} {MARKER}", d.title);
                d.text = format!("{MARKER} {}", d.text);
                d
            })
            .collect();
        let holds = |path: PathBuf| {
            let bytes = std::fs::read(path).unwrap();
            bytes.windows(MARKER.len()).any(|w| w == MARKER.as_bytes())
        };
        let dir = test_dir("no-text");
        let store = FacetStore::open(&dir).unwrap();
        let mut index = ShardedFacetIndex::new(1, vec![&e], vec![&r], options());
        index.append_logged(docs.clone(), &store).unwrap();
        assert!(holds(dir.join(WAL_FILE)), "the WAL keeps the batch");
        index.persist_to(&store).unwrap();
        index.append_logged(docs, &store).unwrap();
        index.persist_to(&store).unwrap();
        for generation in [1, 2] {
            let file = dir.join(snapshot_file_name(generation));
            assert!(!holds(file), "snapshot {generation} holds document text");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A reopened index runs on the caller's expansion threads, not the
    /// ones it was persisted with, and restores the persisted ranking
    /// options.
    #[test]
    fn reopen_keeps_the_callers_threads() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let dir = test_dir("threads");
        let store = FacetStore::open(&dir).unwrap();
        let mut live = ShardedFacetIndex::new(1, vec![&e], vec![&r], with_threads(4));
        live.append(corpus(24)).unwrap();
        live.persist_to(&store).unwrap();
        let caller = PipelineOptions {
            top_k: 5,
            ..with_threads(1)
        };
        let (reopened, _) =
            ShardedFacetIndex::open_from(&store, 1, vec![&e], vec![&r], caller).unwrap();
        assert_eq!(reopened.options().expansion.threads, 1);
        assert_eq!(reopened.options().top_k, live.options().top_k);
        assert_eq!(reopened.snapshot().digest(), live.snapshot().digest());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Restore rebuilds the rows into one store that the index and the
    /// restored snapshot share, and replaying an empty tail publishes the
    /// live digest, at a worker count other than the one that persisted.
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
        replay(&mut restored, Vec::new(), Vec::new(), Vec::new(), true).unwrap();
        assert_eq!(restored.ctx.rows(), index.ctx.rows());
        let snap = restored.snapshot();
        assert!(snap.doc_terms().shares_chunks_with(restored.ctx.rows()));
        assert_eq!(snap.digest(), index.snapshot().digest());
    }

    /// Background words for [`maintained_selection_equals_a_fresh_pass`]:
    /// each is its own important term, and the resource maps it to two
    /// other words and a topic term, so `Shift_f` moves for corpus terms
    /// and context terms alike.
    const WORDS: [&str; 12] = [
        "harbor", "budget", "summit", "winter", "council", "river", "market", "garden", "bridge",
        "castle", "forest", "island",
    ];

    /// `I(d)`: the distinct lowercase words of the text.
    struct WordExtractor;
    impl facet_termx::TermExtractor for WordExtractor {
        fn name(&self) -> &'static str {
            "Words"
        }
        fn extract(&self, text: &str) -> Vec<String> {
            let mut out: Vec<String> = Vec::new();
            for w in text.split(|c: char| !c.is_alphanumeric()) {
                let w = w.to_lowercase();
                if !w.is_empty() && !out.contains(&w) {
                    out.push(w);
                }
            }
            out
        }
    }

    /// Word `i` → words `i + 1` and `i + 3` and topic `i mod 4`.
    struct NeighbourResource;
    impl facet_resources::ContextResource for NeighbourResource {
        fn name(&self) -> &'static str {
            "Neighbours"
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            let n = WORDS.len();
            WORDS
                .iter()
                .position(|w| *w == term)
                .map_or(Vec::new(), |i| {
                    vec![
                        WORDS[(i + 1) % n].to_string(),
                        WORDS[(i + 3) % n].to_string(),
                        format!("topic {}", i % 4),
                    ]
                })
        }
    }

    /// The published candidates — term, df, `df_C`, both shifts and score
    /// bits — equal `collect_candidates` and `rank_stable` run afresh over
    /// the tables the snapshot was published from.
    fn assert_fresh_selection(index: &ShardedFacetIndex<'_>, what: &str) {
        use crate::selection::rank_stable;
        use crate::selection::tests::collect_candidates;
        use crate::selection::{FacetCandidate, SelectionInputs};
        let bits = |out: &[FacetCandidate]| -> Vec<(u32, u64, u64, i64, i64, u64)> {
            out.iter()
                .map(|c| {
                    (
                        c.term.0,
                        c.df,
                        c.df_c,
                        c.shift_f,
                        c.shift_r,
                        c.score.to_bits(),
                    )
                })
                .collect()
        };
        let inputs = SelectionInputs {
            df: index.db.df_table(),
            df_c: index.ctx.df_table(),
            n_docs: index.db.len() as u64,
        };
        let found = collect_candidates(inputs, index.statistic, index.options.min_df_c);
        let want = rank_stable(found, index.options.top_k, &index.vocab);
        assert_eq!(bits(index.snapshot().candidates()), bits(&want), "{what}");
    }

    /// Selection's maintained state publishes what a fresh pass selects,
    /// on random corpora with a small `top_k`: after every append, after
    /// a repair that rewrites rows, after a reopen (snapshot plus WAL
    /// tail), and after appends to the reopened index.
    #[test]
    fn maintained_selection_equals_a_fresh_pass() {
        use facet_corpus::DocId;
        use proptest::test_runner::TestRng;
        let e = WordExtractor;
        let (mut repaired, mut published) = (0, 0);
        for seed in 0..16u64 {
            let mut rng = TestRng::deterministic(&format!("maintained selection {seed}"));
            let docs = |rng: &mut TestRng| -> Vec<Document> {
                (0..rng.below(9))
                    .map(|i| {
                        let words: Vec<&str> = WORDS
                            .iter()
                            .enumerate()
                            .filter(|&(w, _)| rng.below(w as u64 / 2 + 2) == 0)
                            .map(|(_, w)| *w)
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
            };
            let faulty = FaultyResource::new(
                NeighbourResource,
                FaultPlan::seeded(seed, 300),
                VirtualClock::new(),
            );
            let opts = PipelineOptions {
                top_k: 1 + rng.below(6) as usize,
                min_df_c: rng.below(4),
                ..with_threads(1)
            };
            let dir = test_dir("selection");
            let store = FacetStore::open(&dir).unwrap();
            let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&faulty], opts.clone());
            for step in 0..4 + rng.below(5) {
                let batch = docs(&mut rng);
                index.append_logged(batch, &store).unwrap();
                assert_fresh_selection(&index, &format!("seed {seed}, append {step}"));
                if rng.below(3) == 0 {
                    index.persist_to(&store).unwrap();
                }
            }
            // The snapshot holds the degraded terms, so replaying the
            // repair record re-queries them as the live repair did.
            index.persist_to(&store).unwrap();
            faulty.heal();
            repaired += index.repair_logged(&store).unwrap().changed_docs;
            assert_fresh_selection(&index, &format!("seed {seed}, repair"));
            let (mut reopened, _) =
                ShardedFacetIndex::open_from(&store, 1, vec![&e], vec![&faulty], opts).unwrap();
            assert_fresh_selection(&reopened, &format!("seed {seed}, reopen"));
            assert_eq!(reopened.snapshot().digest(), index.snapshot().digest());
            for step in 0..3 {
                let batch = docs(&mut rng);
                reopened.append(batch).unwrap();
                assert_fresh_selection(&reopened, &format!("seed {seed}, reopened {step}"));
            }
            published += reopened.snapshot().candidates().len();
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(repaired > 0 && published > 0, "{repaired} {published}");
    }

    /// A checksum-valid snapshot whose `meta` section holds a `top_k`
    /// above [`crate::MAX_TOP_K`] is refused as a corrupt `meta` section,
    /// at any worker count, before restore sizes a table by it; an index
    /// built with such a `top_k` refuses `append` and `append_logged`
    /// with a typed error before it ingests or logs anything. `MAX_TOP_K`
    /// itself restores.
    #[test]
    fn top_k_above_the_bound_is_refused() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut live = ShardedFacetIndex::new(1, vec![&e], vec![&r], options());
        live.append(corpus(8)).unwrap();
        let publish_with = |store: &FacetStore, top_k: usize| {
            let mut payload = encode_index(&live);
            let meta = Meta {
                generation: live.generation,
                statistic: live.statistic,
                options: PipelineOptions { top_k, ..options() },
                n_docs: live.len() as u64,
            };
            for (name, bytes) in &mut payload.sections {
                if name == "meta" {
                    *bytes = encode(|w| enc_meta(w, &meta));
                }
            }
            store.publish_snapshot(&payload).unwrap();
        };
        for k in [crate::MAX_TOP_K + 1, usize::MAX] {
            let dir = test_dir("top-k");
            let store = FacetStore::open(&dir).unwrap();
            publish_with(&store, k);
            for n in 1..=2 {
                let restored =
                    ShardedFacetIndex::open_from(&store, n, vec![&e], vec![&r], options());
                assert!(
                    matches!(&restored, Err(StoreError::CorruptSection { section }) if section == "meta"),
                    "top_k {k}, {n} workers: {:?}",
                    restored.err()
                );
            }

            let bad = PipelineOptions {
                top_k: k,
                ..options()
            };
            let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&r], bad);
            let before = index.snapshot();
            for logged in [false, true] {
                let err = if logged {
                    index.append_logged(corpus(8), &store)
                } else {
                    index.append(corpus(8))
                }
                .unwrap_err();
                assert!(
                    matches!(
                        err,
                        IndexError::InvalidOptions {
                            option: "top_k",
                            ..
                        }
                    ),
                    "top_k {k}: {err:?}"
                );
                assert_eq!((index.len(), index.generation), (0, 0), "top_k {k}");
                assert!(std::sync::Arc::ptr_eq(&before, &index.snapshot()));
            }
            assert!(store.recover().unwrap().tail.is_empty(), "nothing logged");
            std::fs::remove_dir_all(&dir).ok();
        }
        let dir = test_dir("top-k-max");
        let store = FacetStore::open(&dir).unwrap();
        publish_with(&store, crate::MAX_TOP_K);
        let (restored, _) =
            ShardedFacetIndex::open_from(&store, 2, vec![&e], vec![&r], options()).unwrap();
        assert_eq!(restored.options().top_k, crate::MAX_TOP_K);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `min_df_c` needs no bound: selection only compares `df_C` against
    /// it, so `u64::MAX` selects nothing and sizes nothing. An index
    /// built with it appends and publishes an empty selection and forest,
    /// and a re-published, checksum-valid snapshot that carries it, over
    /// an index whose selection was not empty, restores at 1 and 2
    /// workers to that same state.
    #[test]
    fn min_df_c_at_the_maximum_selects_nothing() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let max = PipelineOptions {
            min_df_c: u64::MAX,
            ..options()
        };
        let mut live = ShardedFacetIndex::new(2, vec![&e], vec![&r], max.clone());
        live.append(corpus(8)).unwrap();
        let want = live.snapshot();
        assert_eq!((want.n_docs(), want.generation()), (8, 1));
        assert!(want.candidates().is_empty());
        assert!(want.forest().edges().is_empty());

        let mut selecting = ShardedFacetIndex::new(1, vec![&e], vec![&r], options());
        selecting.append(corpus(8)).unwrap();
        assert!(!selecting.snapshot().candidates().is_empty());
        let dir = test_dir("min-df-c");
        let store = FacetStore::open(&dir).unwrap();
        let mut payload = encode_index(&selecting);
        let meta = Meta {
            generation: selecting.generation,
            statistic: selecting.statistic,
            options: max,
            n_docs: selecting.len() as u64,
        };
        for (name, bytes) in &mut payload.sections {
            if name == "meta" {
                *bytes = encode(|w| enc_meta(w, &meta));
            }
        }
        store.publish_snapshot(&payload).unwrap();
        for n in 1..=2 {
            let (restored, _) =
                ShardedFacetIndex::open_from(&store, n, vec![&e], vec![&r], options()).unwrap();
            assert_eq!(restored.options().min_df_c, u64::MAX, "{n} workers");
            assert!(restored.snapshot().candidates().is_empty(), "{n} workers");
            assert_eq!(restored.snapshot().digest(), want.digest(), "{n} workers");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checksum-valid snapshot whose `meta` section holds a subsumption
    /// threshold outside (0, 1] is refused as a corrupt `meta` section,
    /// and an index built with such a threshold refuses `append` and
    /// `append_logged` with a typed error before it ingests or logs
    /// anything.
    #[test]
    fn thresholds_outside_the_unit_interval_are_refused() {
        let e = FixedExtractor;
        let r = CountingResource::new();
        let mut live = ShardedFacetIndex::new(1, vec![&e], vec![&r], options());
        live.append(corpus(8)).unwrap();
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.25, 1.5] {
            let bad = PipelineOptions {
                subsumption_threshold: t,
                ..options()
            };
            let dir = test_dir("threshold");
            let store = FacetStore::open(&dir).unwrap();
            let mut payload = encode_index(&live);
            let meta = Meta {
                generation: live.generation,
                statistic: live.statistic,
                options: bad.clone(),
                n_docs: live.len() as u64,
            };
            for (name, bytes) in &mut payload.sections {
                if name == "meta" {
                    *bytes = encode(|w| enc_meta(w, &meta));
                }
            }
            store.publish_snapshot(&payload).unwrap();
            let restored = ShardedFacetIndex::open_from(&store, 1, vec![&e], vec![&r], options());
            assert!(
                matches!(&restored, Err(StoreError::CorruptSection { section }) if section == "meta"),
                "threshold {t}: {:?}",
                restored.err()
            );

            let mut index = ShardedFacetIndex::new(2, vec![&e], vec![&r], bad);
            let before = index.snapshot();
            for logged in [false, true] {
                let err = if logged {
                    index.append_logged(corpus(8), &store)
                } else {
                    index.append(corpus(8))
                }
                .unwrap_err();
                assert!(
                    matches!(
                        err,
                        IndexError::InvalidOptions {
                            option: "subsumption_threshold",
                            ..
                        }
                    ),
                    "threshold {t}: {err:?}"
                );
                assert_eq!((index.len(), index.generation), (0, 0), "threshold {t}");
                assert!(std::sync::Arc::ptr_eq(&before, &index.snapshot()));
            }
            assert!(store.recover().unwrap().tail.is_empty(), "nothing logged");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
