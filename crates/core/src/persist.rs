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
//!   postings, then replay the WAL tail through the ordinary
//!   `append`/`repair` code paths, publishing through the index's one
//!   publish path. Nothing in a snapshot depends on the worker count or
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
//! its own sequence number, before any batch is built from it. A restart
//! publishes once per run and once per repair record. The restored state
//! shares the first run's publish when a run comes first; when a repair
//! record or the end of the tail comes first, it is published on its
//! own, at the snapshot's generation.

use crate::config::PipelineOptions;
use crate::index::{AppendStats, IndexError, RepairStats};
use crate::selection::SelectionStatistic;
use crate::shard::ShardedFacetIndex;
use facet_corpus::db::{DocTerms, TermingOptions};
use facet_corpus::{DocId, Document};
use facet_resources::{
    ContextResource, ContextualizedDatabase, ExpansionCache, ExpansionOptions, ResolvedTerm,
};
use facet_store::bytes::{ByteReader, ByteWriter};
use facet_store::{FacetStore, RecoveryReport, SnapshotPayload, StoreError, WalRecord};
use facet_termx::TermExtractor;
use facet_textkit::{RowStore, TermId, Vocabulary};

/// Version of the section *contents* (the store's `FORMAT_VERSION`
/// covers the framing). Bump when any section codec changes shape; a
/// snapshot of any other version is refused as a corrupt `meta`
/// section, never decoded.
pub const STATE_VERSION: u32 = 5;

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
    w.f64(meta.options.subsumption_threshold);
    w.u64(meta.options.min_df_c);
    w.u8(u8::from(meta.terming.bigrams));
    w.u64(meta.terming.min_len as u64);
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
/// it). Then set the persisted generation and rebuild the postings and
/// the degraded map the way repair does. Nothing is published: the
/// index's snapshot stays the empty one until replay publishes (see
/// [`ShardedFacetIndex::open_from`]), which ranks, scans the
/// subsumption counts and publishes once for the restored state and the
/// first run of appends together.
fn restore_index(
    index: &mut ShardedFacetIndex<'_>,
    payload: &SnapshotPayload,
) -> Result<(), StoreError> {
    let meta = decode(payload, "meta", |r| dec_meta(r, &index.options.expansion))?;
    if payload.generation != meta.generation {
        return Err(corrupt("meta"));
    }
    let n_docs = usize::try_from(meta.n_docs).map_err(|_| corrupt("meta"))?;
    let vocab = decode(payload, "vocab", dec_vocab)?;
    let known = |t: &TermId| t.index() < vocab.len();
    let mut db = DocTerms::new(meta.terming);
    decode_rows(payload, "doc_terms", n_docs, vocab.len(), true, |row| {
        db.push_row(row)
    })?;
    let cache = decode(payload, "cache", |r| {
        dec_cache(r).filter(|c| {
            c.entries()
                .all(|(t, res)| known(&t) && res.terms.iter().all(known))
        })
    })?;
    let mut ctx_rows = RowStore::new();
    decode_rows(payload, "ctx_rows", n_docs, vocab.len(), true, |row| {
        ctx_rows.push(row);
    })?;
    let mut important = RowStore::new();
    decode_rows(payload, "important", n_docs, vocab.len(), false, |row| {
        important.push(row);
    })?;
    index.options = meta.options;
    index.statistic = meta.statistic;
    index.vocab = vocab;
    index.db = db;
    index.cache = cache;
    index.ctx = ContextualizedDatabase::from_parts(ctx_rows);
    index.important = important;
    index.generation = meta.generation;
    index.reindex();
    Ok(())
}

/// An open run of logged appends: their documents in log order, how
/// many records they came from, and the last record's sequence number.
#[derive(Default)]
struct Run {
    docs: Vec<Document>,
    records: u64,
    last_seq: u64,
}

/// Publish what replay has held back: the open `run` as one batch at its
/// last sequence number, or, with no run open, a `restored` state that
/// nothing has published yet. Either way the index is published after.
fn flush(
    index: &mut ShardedFacetIndex<'_>,
    run: &mut Run,
    restored: &mut bool,
) -> Result<(), StoreError> {
    let run = std::mem::take(run);
    if run.records > 0 {
        let landed = index
            .append_at(run.docs, index.generation + run.records)
            .map_err(|e| replay_failed(run.last_seq, e.to_string()))?
            .generation;
        check_replayed_generation(run.last_seq, landed)?;
    } else if *restored {
        index.publish_at(index.generation);
    }
    *restored = false;
    Ok(())
}

/// [`ShardedFacetIndex::open_from`] into `index`, fresh from
/// [`ShardedFacetIndex::new`]: restore the newest verified snapshot, if
/// the store holds one, and replay the tail.
fn recover_into<'a>(
    store: &FacetStore,
    mut index: ShardedFacetIndex<'a>,
) -> Result<(ShardedFacetIndex<'a>, RecoveryReport), StoreError> {
    let recovery = store.recover()?;
    let snapshot = &recovery.snapshot;
    let restored = snapshot.generation > 0 || !snapshot.sections.is_empty();
    if restored {
        restore_index(&mut index, snapshot)?;
    }
    replay(&mut index, &recovery.tail, restored)?;
    Ok((index, recovery.report))
}

/// Replay `tail`, the WAL records after the state `index` holds, run by
/// run (see [Replay discipline](self#replay-discipline)). `restored`
/// says that state came from a snapshot and is not published yet; the
/// index is published when this returns.
fn replay(
    index: &mut ShardedFacetIndex<'_>,
    tail: &[WalRecord],
    mut restored: bool,
) -> Result<(), StoreError> {
    let mut run = Run::default();
    for record in tail {
        match dec_record(record)? {
            ReplayOp::Append(docs) => {
                run.docs.extend(docs);
                run.records += 1;
                run.last_seq = record.seq;
            }
            ReplayOp::Repair => {
                flush(index, &mut run, &mut restored)?;
                let stats = index
                    .repair()
                    .map_err(|e| replay_failed(record.seq, e.to_string()))?;
                if stats.requeried_terms == 0 {
                    // The terms the live repair re-queried were resolved
                    // cleanly by the replayed appends (their resource
                    // healed before the restart), so the state already
                    // equals the live repaired one: publish it where the
                    // live repair did.
                    index.publish_at(index.generation + 1);
                }
                check_replayed_generation(record.seq, index.generation)?;
            }
        }
    }
    flush(index, &mut run, &mut restored)
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
        replay(&mut restored, &[], true).unwrap();
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
}
