//! Crash-safe durability: a snapshot + WAL store must recover to the
//! exact state of the in-memory build — across fault seeds, damage
//! scenarios, and worker counts — with typed errors and zero panics.
//!
//! The damage matrix mirrors the store's threat model: clean restarts,
//! torn WAL tails (a crash mid-append), and corrupted snapshot sections
//! (bit rot, half-written files). Every scenario must either converge
//! byte-identically to the reference build or surface a typed
//! [`StoreError`] — silent divergence is the one forbidden outcome.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use facet_hierarchies::core::{
    FacetServer, FacetSnapshot, PipelineOptions, ShardedFacetIndex, STATE_VERSION,
};
use facet_hierarchies::corpus::{Document, RecipeKind};
use facet_hierarchies::eval::harness::{tiny_recipe, DatasetBundle};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{FaultSchedule, VirtualClock, WikiGraphResource};
use facet_hierarchies::store::bytes::{ByteReader, ByteWriter};
use facet_hierarchies::store::{
    snapshot_file_name, DiskStorage, FacetStore, FaultyStorage, SnapshotPayload, Storage,
    StoreError, WAL_FILE,
};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor};
use facet_hierarchies::wikipedia::WikipediaGraph;

/// Wall-clock-free unique test directory (pid + process-local counter).
fn test_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("facet-recovery-{}-{tag}-{n}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Seeded deterministic draw for damage positions (FNV-1a mix).
fn mix(seed: u64, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in salt.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One candidate as bytes-comparable data: (term, df, df_c, score bits).
type CandidateRow = (String, u64, u64, String);

/// String-level view of a snapshot: candidate rows with exact score
/// bits, plus forest edges by label.
fn snapshot_rows(snap: &FacetSnapshot) -> (Vec<CandidateRow>, Vec<(String, String)>) {
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

fn options() -> PipelineOptions {
    PipelineOptions {
        top_k: 300,
        ..Default::default()
    }
}

/// The acceptance matrix: 3 fault seeds × {clean, torn-tail,
/// corrupt-section} × {1, 2, 4 shards}. Every cell
/// writes snapshot generations 1 and 2, leaves generation 3 only in the
/// WAL, damages the files per the scenario, recovers, and must converge
/// to the reference build's digest and candidate rows.
#[test]
fn recovery_matrix_converges_across_seeds_scenarios_and_shards() {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let chunks: Vec<Vec<Document>> = docs
        .chunks(docs.len().div_ceil(3))
        .map(<[Document]>::to_vec)
        .collect();
    assert_eq!(chunks.len(), 3, "the matrix script needs three batches");

    for n_shards in [1usize, 2, 4] {
        // The reference: the same three batches applied purely in
        // memory, same topology, no store in the loop.
        let reference = {
            let res = WikiGraphResource::new(&graph);
            let mut idx = ShardedFacetIndex::new(n_shards, vec![&ne], vec![&res], options());
            for chunk in &chunks {
                idx.append(chunk.clone()).expect("append");
            }
            let snap = idx.snapshot();
            (snap.digest(), snapshot_rows(&snap), snap.generation())
        };

        for seed in [0xA11CEu64, 0xB0B, 0x5EED] {
            for scenario in ["clean", "torn-tail", "corrupt-section"] {
                let dir = test_dir(&format!("matrix-{n_shards}-{seed:x}-{scenario}"));
                // Build, persisting generations 1 and 2 and leaving
                // generation 3 only in the WAL; then "crash" (drop the
                // process state, keep the files). The block yields the
                // byte offset where record 3's frame begins.
                let wal_boundary = {
                    let store = FacetStore::open(&dir).expect("open store");
                    let res = WikiGraphResource::new(&graph);
                    let mut live =
                        ShardedFacetIndex::new(n_shards, vec![&ne], vec![&res], options());
                    live.append_logged(chunks[0].clone(), &store)
                        .expect("append_logged"); // gen 1
                    live.persist_to(&store).expect("persist_to"); // snap-1; WAL pruned
                    live.append_logged(chunks[1].clone(), &store)
                        .expect("append_logged"); // gen 2, record 2
                    live.persist_to(&store).expect("persist_to"); // snap-2; record 2 retained
                    let boundary = fs::metadata(dir.join(WAL_FILE)).expect("wal meta").len();
                    live.append_logged(chunks[2].clone(), &store)
                        .expect("append_logged"); // gen 3, record 3
                    assert_eq!(
                        live.snapshot().digest(),
                        reference.0,
                        "shards={n_shards}: logged build diverged from reference"
                    );
                    boundary
                };

                let wal_path = dir.join(WAL_FILE);
                match scenario {
                    "clean" => {}
                    "torn-tail" => {
                        // Cut strictly inside record 3's frame: at least
                        // one byte of it lands, at least one is lost.
                        let len = fs::metadata(&wal_path).expect("wal meta").len();
                        let span = len - wal_boundary;
                        let cut = wal_boundary + 1 + mix(seed, 1) % (span - 1);
                        let f = fs::OpenOptions::new()
                            .write(true)
                            .open(&wal_path)
                            .expect("open wal");
                        f.set_len(cut).expect("tear tail");
                    }
                    "corrupt-section" => {
                        // Flip one seeded bit anywhere in the newest
                        // snapshot; recovery must fall back to snap-1.
                        let path = dir.join(snapshot_file_name(2));
                        let mut bytes = fs::read(&path).expect("snap-2");
                        let pos = (mix(seed, 2) % bytes.len() as u64) as usize;
                        bytes[pos] ^= 1 << (mix(seed, 3) % 8);
                        fs::write(&path, &bytes).expect("write damage");
                    }
                    _ => unreachable!(),
                }

                let store = FacetStore::open(&dir).expect("reopen store");
                let res = WikiGraphResource::new(&graph);
                let (mut recovered, report) = ShardedFacetIndex::open_from(
                    &store,
                    n_shards,
                    vec![&ne],
                    vec![&res],
                    options(),
                )
                .expect("recovery must not error in the matrix");
                let cell = format!("shards={n_shards} seed={seed:x} scenario={scenario}");
                match scenario {
                    "clean" => {
                        assert!(!report.fell_back, "{cell}: no fallback expected");
                        assert!(!report.tail_truncated, "{cell}: no truncation expected");
                        assert_eq!(report.generation, 2, "{cell}");
                        assert_eq!(report.replayed_records, 1, "{cell}");
                    }
                    "torn-tail" => {
                        assert!(report.tail_truncated, "{cell}: torn tail must be detected");
                        assert!(report.dropped_bytes > 0, "{cell}");
                        assert_eq!(report.generation, 2, "{cell}");
                        assert_eq!(report.replayed_records, 0, "{cell}");
                        // The torn batch was never durably acknowledged;
                        // the writer retries it after recovery.
                        recovered
                            .append_logged(chunks[2].clone(), &store)
                            .expect("append_logged");
                    }
                    "corrupt-section" => {
                        assert!(report.fell_back, "{cell}: fallback expected");
                        assert!(!report.corrupt_snapshots.is_empty(), "{cell}");
                        assert_eq!(report.generation, 1, "{cell}: must land on snap-1");
                        assert_eq!(report.replayed_records, 2, "{cell}");
                    }
                    _ => unreachable!(),
                }
                let snap = recovered.snapshot();
                assert_eq!(snap.generation(), reference.2, "{cell}: generation");
                assert_eq!(snap.digest(), reference.0, "{cell}: digest diverged");
                assert_eq!(snapshot_rows(&snap), reference.1, "{cell}: rows diverged");
                fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

/// A [`TermExtractor`] wrapper that counts `extract` calls; the index
/// extracts once per ingested document, so the count is the number of
/// documents it (re-)extracted.
struct CountedExtractor<'a> {
    inner: &'a dyn TermExtractor,
    calls: AtomicUsize,
}

impl TermExtractor for CountedExtractor<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn extract(&self, text: &str) -> Vec<String> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.extract(text)
    }
}

/// Recovery costs the WAL tail, not the archive: after a snapshot at
/// generation 3 and `k` more logged batches, `open_from` must run the
/// extractor on exactly the documents of those `k` batches (none when
/// `k = 0`) and land on the live index's digest.
#[test]
fn recovery_extracts_only_the_wal_tail_documents() {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let batches: Vec<&[Document]> = docs.chunks(docs.len().div_ceil(6)).collect();
    let (archive, tail) = batches.split_at(3);

    for k in 0..=tail.len() {
        let dir = test_dir(&format!("tail-work-{k}"));
        let store = FacetStore::open(&dir).expect("open store");
        let res = WikiGraphResource::new(&graph);
        let mut live = ShardedFacetIndex::new(2, vec![&ne], vec![&res], options());
        for batch in archive {
            live.append_logged(batch.to_vec(), &store)
                .expect("append_logged");
        }
        live.persist_to(&store).expect("persist_to");
        for batch in &tail[..k] {
            live.append_logged(batch.to_vec(), &store)
                .expect("append_logged");
        }

        let counted = CountedExtractor {
            inner: &ne,
            calls: AtomicUsize::new(0),
        };
        let res = WikiGraphResource::new(&graph);
        let (recovered, report) =
            ShardedFacetIndex::open_from(&store, 2, vec![&counted], vec![&res], options())
                .expect("open_from");
        let tail_docs: usize = tail[..k].iter().map(|b| b.len()).sum();
        assert_eq!(report.replayed_records, k, "k={k}");
        assert_eq!(
            counted.calls.load(Ordering::SeqCst),
            tail_docs,
            "k={k}: recovery must extract exactly the WAL-tail documents"
        );
        assert_eq!(
            recovered.snapshot().digest(),
            live.snapshot().digest(),
            "k={k}: recovered state diverged from the live index"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

/// Exhaustive torn-tail sweep: truncate the WAL at **every** byte
/// offset of its final record. Recovery must either drop the record
/// cleanly (cut at the boundary) or detect the tear and truncate it —
/// a partially-applied record must never reach replay.
#[test]
fn torn_wal_tail_truncates_cleanly_at_every_byte_offset() {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    // A one-document final batch keeps the final record small enough to
    // sweep every byte offset while staying a real multi-field payload.
    let (head, last) = docs.split_at(docs.len() - 1);

    let dir = test_dir("torn-exhaustive");
    let store = FacetStore::open(&dir).expect("open store");
    let res = WikiGraphResource::new(&graph);
    let mut live = ShardedFacetIndex::new(1, vec![&ne], vec![&res], options());
    live.append_logged(head.to_vec(), &store)
        .expect("append head");
    live.persist_to(&store).expect("persist snap-1"); // WAL pruned empty
    live.append_logged(last.to_vec(), &store)
        .expect("append last"); // record 2
    let digest_full = live.snapshot().digest();
    let digest_head = {
        let res = WikiGraphResource::new(&graph);
        let mut idx = ShardedFacetIndex::new(1, vec![&ne], vec![&res], options());
        idx.append(head.to_vec()).expect("append head");
        idx.snapshot().digest()
    };
    let wal = fs::read(dir.join(WAL_FILE)).expect("read wal");
    assert!(
        wal.len() > facet_hierarchies::store::RECORD_HEADER_LEN,
        "the final record must be a full frame"
    );

    let snap_name = snapshot_file_name(1);
    let scratch = test_dir("torn-scratch");
    for cut in 0..wal.len() {
        fs::copy(dir.join(&snap_name), scratch.join(&snap_name)).expect("copy snap");
        fs::write(scratch.join(WAL_FILE), &wal[..cut]).expect("write torn wal");
        let s = FacetStore::open(&scratch).expect("open scratch");
        let rec = s
            .recover()
            .unwrap_or_else(|e| panic!("cut={cut}: recovery must not error: {e}"));
        assert_eq!(rec.snapshot.generation, 1, "cut={cut}");
        assert!(
            rec.tail.is_empty(),
            "cut={cut}: a partial record must never reach replay"
        );
        if cut == 0 {
            assert!(!rec.report.tail_truncated, "cut=0 is a clean empty WAL");
        } else {
            assert!(rec.report.tail_truncated, "cut={cut}: tear undetected");
            assert_eq!(rec.report.dropped_bytes, cut as u64, "cut={cut}");
        }
        // Recovery repaired the file in place: a second pass is clean.
        let again = s.recover().expect("post-truncation recover");
        assert!(!again.report.tail_truncated, "cut={cut}: repair must stick");
        assert_eq!(
            fs::metadata(scratch.join(WAL_FILE))
                .expect("wal meta")
                .len(),
            0,
            "cut={cut}: the torn tail must be truncated away"
        );
    }
    // The untorn WAL replays the record in full.
    fs::copy(dir.join(&snap_name), scratch.join(&snap_name)).expect("copy snap");
    fs::write(scratch.join(WAL_FILE), &wal).expect("write full wal");
    let s = FacetStore::open(&scratch).expect("open scratch");
    let rec = s.recover().expect("full-wal recover");
    assert_eq!(rec.tail.len(), 1);
    assert_eq!(rec.tail[0].seq, 2);

    // Full-index convergence at three representative cuts: torn or
    // dropped tails recover to the head state (then a retry converges),
    // the intact tail replays to the full state.
    for cut in [0, wal.len() / 2, wal.len()] {
        fs::copy(dir.join(&snap_name), scratch.join(&snap_name)).expect("copy snap");
        fs::write(scratch.join(WAL_FILE), &wal[..cut]).expect("write torn wal");
        let s = FacetStore::open(&scratch).expect("open scratch");
        let res = WikiGraphResource::new(&graph);
        let (mut recovered, report) =
            ShardedFacetIndex::open_from(&s, 1, vec![&ne], vec![&res], options())
                .expect("open_from");
        if cut == wal.len() {
            assert_eq!(report.replayed_records, 1, "cut={cut}");
            assert_eq!(recovered.snapshot().digest(), digest_full, "cut={cut}");
        } else {
            assert_eq!(report.replayed_records, 0, "cut={cut}");
            assert_eq!(recovered.snapshot().digest(), digest_head, "cut={cut}");
            recovered.append_logged(last.to_vec(), &s).expect("retry");
            assert_eq!(recovered.snapshot().digest(), digest_full, "cut={cut}");
        }
    }
    fs::remove_dir_all(&scratch).ok();
    fs::remove_dir_all(&dir).ok();
}

/// Parse the snapshot framing and return each section's name and the
/// byte range its payload occupies in the file (framing layout: magic,
/// version, generation, count, then per section a length-prefixed name,
/// length-prefixed payload, and a u64 checksum).
fn section_payload_ranges(bytes: &[u8]) -> Vec<(String, std::ops::Range<usize>)> {
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("u32 slice"));
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("u64 slice"));
    assert_eq!(&bytes[..4], b"FSNP", "snapshot magic");
    let count = u32_at(16) as usize;
    let mut o = 20;
    let mut out = Vec::new();
    for _ in 0..count {
        let name_len = u64_at(o) as usize;
        o += 8;
        let name = String::from_utf8(bytes[o..o + name_len].to_vec()).expect("section name");
        o += name_len;
        let payload_len = u64_at(o) as usize;
        o += 8;
        out.push((name, o..o + payload_len));
        o += payload_len + 8; // payload + per-section checksum
    }
    out
}

/// Flipped-byte sweep over **every** snapshot section: each flip must
/// be attributed to the right section, force fallback to the previous
/// generation, and still converge via WAL replay.
#[test]
fn flipped_byte_in_each_snapshot_section_falls_back_and_converges() {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let chunks: Vec<Vec<Document>> = docs
        .chunks(docs.len().div_ceil(3))
        .map(<[Document]>::to_vec)
        .collect();

    let dir = test_dir("flip-sweep");
    let reference_digest;
    {
        let store = FacetStore::open(&dir).expect("open store");
        let res = WikiGraphResource::new(&graph);
        let mut live = ShardedFacetIndex::new(1, vec![&ne], vec![&res], options());
        live.append_logged(chunks[0].clone(), &store)
            .expect("append");
        live.persist_to(&store).expect("persist snap-1");
        live.append_logged(chunks[1].clone(), &store)
            .expect("append");
        live.persist_to(&store).expect("persist snap-2");
        live.append_logged(chunks[2].clone(), &store)
            .expect("append");
        reference_digest = live.snapshot().digest();
    }
    let snap1 = snapshot_file_name(1);
    let snap2 = snapshot_file_name(2);
    let healthy = fs::read(dir.join(&snap2)).expect("read snap-2");
    let wal = fs::read(dir.join(WAL_FILE)).expect("read wal");
    let sections = section_payload_ranges(&healthy);
    let names: Vec<&str> = sections.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "meta",
            "vocab",
            "doc_terms",
            "cache",
            "ctx_rows",
            "important"
        ],
        "the sweep must cover the real section inventory"
    );

    let scratch = test_dir("flip-scratch");
    for (name, range) in &sections {
        let mut damaged = healthy.clone();
        // Flip a payload byte; an empty payload's checksum byte works
        // just as well — both must be attributed to this section.
        let pos = if range.is_empty() {
            range.end
        } else {
            range.start + range.len() / 2
        };
        damaged[pos] ^= 0x01;
        fs::copy(dir.join(&snap1), scratch.join(&snap1)).expect("copy snap-1");
        fs::write(scratch.join(&snap2), &damaged).expect("write damaged snap-2");
        fs::write(scratch.join(WAL_FILE), &wal).expect("write wal");

        let s = FacetStore::open(&scratch).expect("open scratch");
        let res = WikiGraphResource::new(&graph);
        let (recovered, report) =
            ShardedFacetIndex::open_from(&s, 1, vec![&ne], vec![&res], options())
                .unwrap_or_else(|e| panic!("section {name}: fallback recovery failed: {e}"));
        assert!(report.fell_back, "section {name}: no fallback");
        assert_eq!(report.generation, 1, "section {name}: wrong generation");
        assert_eq!(report.replayed_records, 2, "section {name}: wrong replay");
        assert!(
            report
                .corrupt_snapshots
                .iter()
                .any(|m| m.contains(&format!("{name:?}"))),
            "section {name}: corruption not attributed, report: {:?}",
            report.corrupt_snapshots
        );
        assert_eq!(
            recovered.snapshot().digest(),
            reference_digest,
            "section {name}: recovered state diverged"
        );
    }
    fs::remove_dir_all(&scratch).ok();
    fs::remove_dir_all(&dir).ok();
}

/// A snapshot in the previous section layout — `STATE_VERSION` 1, whose
/// `meta` carried an index-kind byte — is refused with a typed error
/// naming `meta`: never decoded as current state, never a panic.
#[test]
fn version_one_snapshot_is_refused_as_corrupt_meta() {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();

    let dir = test_dir("v1-source");
    let store = FacetStore::open(&dir).expect("open store");
    let res = WikiGraphResource::new(&graph);
    let live = ShardedFacetIndex::build(docs, 1, vec![&ne], vec![&res], options()).expect("build");
    live.persist_to(&store).expect("persist");
    let mut payload = store.recover().expect("recover").snapshot;

    // Rewrite `meta` into the version-1 layout: version 1, the kind byte
    // (1 = sharded), then the version-2 fields unchanged.
    let meta = &mut payload
        .sections
        .iter_mut()
        .find(|(name, _)| name == "meta")
        .expect("meta section")
        .1;
    assert_eq!(
        meta[..4],
        STATE_VERSION.to_le_bytes(),
        "meta leads with the version"
    );
    let mut v1 = 1u32.to_le_bytes().to_vec();
    v1.push(1);
    v1.extend_from_slice(&meta[4..]);
    *meta = v1;

    let old_dir = test_dir("v1-snapshot");
    let old_store = FacetStore::open(&old_dir).expect("open store");
    old_store
        .publish_snapshot(&payload)
        .expect("publish v1 snapshot");
    let res = WikiGraphResource::new(&graph);
    match ShardedFacetIndex::open_from(&old_store, 1, vec![&ne], vec![&res], options()) {
        Err(StoreError::CorruptSection { section }) => assert_eq!(section, "meta"),
        Err(e) => panic!("a version-1 snapshot must be refused as corrupt meta, got: {e}"),
        Ok(_) => panic!("a version-1 snapshot must be refused"),
    }
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&old_dir).ok();
}

/// FNV-1a, the checksum of store format version 1.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A snapshot file of store format version 1: the version-2 framing
/// with FNV-1a section checksums and an FNV-1a trailer over every byte
/// before it.
fn v1_snapshot(payload: &SnapshotPayload) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.raw(b"FSNP");
    w.u32(1);
    w.u64(payload.generation);
    w.u32(payload.sections.len() as u32);
    for (name, bytes) in &payload.sections {
        w.str(name);
        w.bytes(bytes);
        w.u64(fnv1a(&[name.as_bytes(), bytes].concat()));
    }
    let trailer = fnv1a(w.as_slice());
    w.u64(trailer);
    w.finish()
}

/// A WAL frame of store format version 1.
fn v1_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.raw(b"FWR1");
    w.u64(seq);
    w.u32(payload.len() as u32);
    w.u64(fnv1a(&[&seq.to_le_bytes()[..], payload].concat()));
    w.raw(payload);
    w.finish()
}

/// A store written in format version 1 — a snapshot with a WAL tail, or
/// a WAL alone — is refused with the typed version error, and recovery
/// leaves every file byte for byte as it was: the old log is never
/// truncated as a torn tail.
#[test]
fn version_one_store_is_refused_and_left_as_it_is() {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let (first, rest) = docs.split_at(docs.len() / 2);

    // The sources: a current store, read back as payloads and records.
    let dir = test_dir("v1-store-source");
    let store = FacetStore::open(&dir).expect("open store");
    let res = WikiGraphResource::new(&graph);
    let mut live = ShardedFacetIndex::new(1, vec![&ne], vec![&res], options());
    live.append_logged(first.to_vec(), &store)
        .expect("append_logged");
    live.persist_to(&store).expect("persist");
    for chunk in rest.chunks(rest.len().div_ceil(2)) {
        live.append_logged(chunk.to_vec(), &store)
            .expect("append_logged");
    }
    let recovery = store.recover().expect("recover");
    assert_eq!(recovery.tail.len(), 2);
    let wal: Vec<u8> = recovery
        .tail
        .iter()
        .flat_map(|r| v1_record(r.seq, &r.payload))
        .collect();

    let with_snapshot = vec![
        (snapshot_file_name(1), v1_snapshot(&recovery.snapshot)),
        (WAL_FILE.to_string(), wal.clone()),
    ];
    let wal_only = vec![(WAL_FILE.to_string(), wal)];
    for files in [with_snapshot, wal_only] {
        let old_dir = test_dir("v1-store");
        for (name, bytes) in &files {
            fs::write(old_dir.join(name), bytes).expect("write v1 file");
        }
        let old_store = FacetStore::open(&old_dir).expect("open store");
        let res = WikiGraphResource::new(&graph);
        match ShardedFacetIndex::open_from(&old_store, 1, vec![&ne], vec![&res], options()) {
            Err(e) => assert_eq!(
                e,
                StoreError::UnsupportedVersion { found: 1 },
                "{} files",
                files.len()
            ),
            Ok(_) => panic!("a version-1 store must be refused"),
        }
        let mut names: Vec<String> = fs::read_dir(&old_dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().into_string().expect("name"))
            .collect();
        names.sort();
        let mut expected: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
        expected.sort();
        assert_eq!(names, expected, "recovery added or removed a file");
        for (name, bytes) in &files {
            assert!(
                fs::read(old_dir.join(name)).expect("read") == *bytes,
                "{name} changed"
            );
        }
        fs::remove_dir_all(&old_dir).ok();
    }
    fs::remove_dir_all(&dir).ok();
}

/// Nothing persisted depends on the worker count: a snapshot and WAL
/// tail written at one count reopen at any other to the live digest, and
/// the reopened index keeps evolving identically.
#[test]
fn snapshot_reopens_at_another_worker_count() {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let chunks: Vec<Vec<Document>> = docs
        .chunks(docs.len().div_ceil(3))
        .map(<[Document]>::to_vec)
        .collect();
    for (n, m) in [(1, 3), (2, 1), (4, 2)] {
        let dir = test_dir(&format!("workers-{n}-{m}"));
        let store = FacetStore::open(&dir).expect("open store");
        let res = WikiGraphResource::new(&graph);
        let mut live = ShardedFacetIndex::new(n, vec![&ne], vec![&res], options());
        live.append_logged(chunks[0].clone(), &store)
            .expect("append");
        live.persist_to(&store).expect("persist");
        live.append_logged(chunks[1].clone(), &store)
            .expect("append");

        let res = WikiGraphResource::new(&graph);
        let (mut reopened, report) =
            ShardedFacetIndex::open_from(&store, m, vec![&ne], vec![&res], options())
                .unwrap_or_else(|e| panic!("{n} → {m} workers: {e}"));
        assert_eq!(report.replayed_records, 1, "{n} → {m} workers");
        assert_eq!(
            reopened.snapshot().digest(),
            live.snapshot().digest(),
            "{n} → {m} workers: reopened state diverged"
        );
        live.append(chunks[2].clone()).expect("append");
        reopened.append(chunks[2].clone()).expect("append");
        assert_eq!(
            reopened.snapshot().digest(),
            live.snapshot().digest(),
            "{n} → {m} workers: the reopened index must keep evolving identically"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

/// A rows section: a `u64` count, then per row a `u64` length and `u32`
/// symbols.
fn rows_of(bytes: &[u8]) -> Vec<Vec<u32>> {
    let mut r = ByteReader::new(bytes);
    let n = r.u64().expect("row count");
    (0..n)
        .map(|_| {
            let len = r.u64().expect("row length");
            (0..len).map(|_| r.u32().expect("symbol")).collect()
        })
        .collect()
}

fn rows_bytes(rows: &[Vec<u32>]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(rows.len() as u64);
    for row in rows {
        w.u64(row.len() as u64);
        for &t in row {
            w.u32(t);
        }
    }
    w.finish()
}

/// `meta` with its document count, the last field, moved by `by`.
fn shift_doc_count(bytes: &[u8], by: i64) -> Vec<u8> {
    let (fields, count) = bytes.split_at(bytes.len() - 8);
    let count = u64::from_le_bytes(count.try_into().expect("u64 count"));
    let mut out = fields.to_vec();
    out.extend_from_slice(&count.wrapping_add_signed(by).to_le_bytes());
    out
}

/// `vocab` without its last term: the arena, the spans, and the
/// vocabulary's hit/miss counters, with the last span and its text cut.
fn drop_last_term(bytes: &[u8]) -> Vec<u8> {
    let mut r = ByteReader::new(bytes);
    let mut arena = r.str().expect("arena").to_string();
    let n = r.u64().expect("span count");
    let mut spans: Vec<(u32, u32)> = (0..n)
        .map(|_| (r.u32().expect("start"), r.u32().expect("end")))
        .collect();
    let (start, _) = spans.pop().expect("a term");
    arena.truncate(start as usize);
    let mut w = ByteWriter::new();
    w.str(&arena);
    w.u64(spans.len() as u64);
    for (s, e) in spans {
        w.u32(s);
        w.u32(e);
    }
    w.u64(r.u64().expect("hits"));
    w.u64(r.u64().expect("misses"));
    w.finish()
}

/// Checksum-valid snapshots whose sources break what restore's rebuild
/// indexes into — a row naming a symbol past the vocabulary, a counted
/// row naming a term twice, a `meta` document count above or below the
/// row count, a row section one row short, a vocabulary missing a term
/// the cache names — or that carry the previous `STATE_VERSION`, are
/// refused with a typed error naming the section, never restored into an
/// index whose publish would panic.
#[test]
fn shard_sources_breaking_the_rebuild_are_refused_as_corrupt() {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();

    let dir = test_dir("sources-source");
    let store = FacetStore::open(&dir).expect("open store");
    let res = WikiGraphResource::new(&graph);
    let live = ShardedFacetIndex::build(docs, 2, vec![&ne], vec![&res], options()).expect("build");
    live.persist_to(&store).expect("persist");
    let payload = store.recover().expect("recover").snapshot;

    type Damage = fn(&[u8]) -> Vec<u8>;
    let past_vocabulary: Damage = |b| {
        let mut rows = rows_of(b);
        let row = rows
            .iter_mut()
            .find(|r| !r.is_empty())
            .expect("a non-empty row");
        // The last symbol of a row: the row stays ascending.
        *row.last_mut().expect("non-empty") = u32::MAX;
        rows_bytes(&rows)
    };
    // Per case: what, the damaged section, the section refused, the
    // damage. A truncated vocabulary is well-formed on its own: the first
    // section to name its missing last term (a context term) is refused,
    // and restore decodes the cache before any row naming it. Every row
    // section's count is checked against `meta`'s, so a `meta` count off
    // by one is refused at the first row section.
    let cases: [(&str, &str, &str, Damage); 9] = [
        (
            "contextualized row past the vocabulary",
            "ctx_rows",
            "ctx_rows",
            past_vocabulary,
        ),
        (
            "term row past the vocabulary",
            "doc_terms",
            "doc_terms",
            past_vocabulary,
        ),
        (
            "contextualized row naming a term twice",
            "ctx_rows",
            "ctx_rows",
            |b| {
                let mut rows = rows_of(b);
                let row = rows
                    .iter_mut()
                    .find(|r| !r.is_empty())
                    .expect("a non-empty row");
                row.insert(0, row[0]);
                rows_bytes(&rows)
            },
        ),
        (
            "I(d) list past the vocabulary",
            "important",
            "important",
            past_vocabulary,
        ),
        (
            "meta counting one document more than the rows",
            "meta",
            "doc_terms",
            |b| shift_doc_count(b, 1),
        ),
        (
            "meta counting one document fewer than the rows",
            "meta",
            "doc_terms",
            |b| shift_doc_count(b, -1),
        ),
        (
            "contextualized rows one row short of meta's count",
            "ctx_rows",
            "ctx_rows",
            |b| {
                let mut rows = rows_of(b);
                rows.pop();
                rows_bytes(&rows)
            },
        ),
        (
            "vocabulary missing a term the cache names",
            "vocab",
            "cache",
            drop_last_term,
        ),
        ("a version-4 snapshot", "meta", "meta", |b| {
            let mut v4 = 4u32.to_le_bytes().to_vec();
            v4.extend_from_slice(&b[4..]);
            v4
        }),
    ];
    for (what, section, refused, damage) in cases {
        let mut bad = payload.clone();
        let bytes = &mut bad
            .sections
            .iter_mut()
            .find(|(name, _)| name == section)
            .unwrap_or_else(|| panic!("{what}: no section {section}"))
            .1;
        *bytes = damage(bytes);

        let bad_dir = test_dir("sources-snapshot");
        let bad_store = FacetStore::open(&bad_dir).expect("open store");
        bad_store
            .publish_snapshot(&bad)
            .expect("publish damaged snapshot");
        let res = WikiGraphResource::new(&graph);
        match ShardedFacetIndex::open_from(&bad_store, 2, vec![&ne], vec![&res], options()) {
            Err(StoreError::CorruptSection { section: got }) => assert_eq!(got, refused, "{what}"),
            Err(e) => panic!("{what}: expected corrupt {refused}, got: {e}"),
            Ok(_) => panic!("{what}: the snapshot must be refused"),
        }
        fs::remove_dir_all(&bad_dir).ok();
    }
    fs::remove_dir_all(&dir).ok();
}

/// Seeded [`FaultyStorage`] crash points: the WAL append for batch 2 is
/// silently damaged (short write, bit flip, or file tear, per seed).
/// Recovery must either converge after retrying the unacknowledged
/// batches or surface a typed [`StoreError`] — and never panic.
#[test]
fn seeded_storage_faults_lose_only_unacknowledged_batches() {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let chunks: Vec<Vec<Document>> = docs
        .chunks(docs.len().div_ceil(3))
        .map(<[Document]>::to_vec)
        .collect();
    let reference_digest = {
        let res = WikiGraphResource::new(&graph);
        let mut idx = ShardedFacetIndex::new(1, vec![&ne], vec![&res], options());
        for chunk in &chunks {
            idx.append(chunk.clone()).expect("append");
        }
        idx.snapshot().digest()
    };

    for seed in [7u64, 0xC0FFEE, 0xDEAD_BEEF] {
        let dir = test_dir(&format!("faulty-{seed:x}"));
        let faulty = Arc::new(FaultyStorage::new(
            DiskStorage::open(&dir).expect("open disk"),
            FaultSchedule::new(seed, 1000),
            VirtualClock::new(),
        ));
        faulty.disarm();
        {
            let store =
                FacetStore::open_with(faulty.clone() as Arc<dyn Storage>).expect("open store");
            let res = WikiGraphResource::new(&graph);
            let mut live = ShardedFacetIndex::new(1, vec![&ne], vec![&res], options());
            live.append_logged(chunks[0].clone(), &store)
                .expect("append");
            live.persist_to(&store).expect("persist snap-1");
            faulty.arm(); // the crash point: the next WAL append tears
            live.append_logged(chunks[1].clone(), &store)
                .expect("append");
            live.append_logged(chunks[2].clone(), &store)
                .expect("append");
            assert_eq!(
                faulty.injected_faults(),
                1,
                "seed={seed:x}: exactly one crash point per scenario"
            );
        }

        // The post-crash process sees plain disk storage — the damage is
        // only discoverable through checksums.
        let store = FacetStore::open(&dir).expect("reopen store");
        let res = WikiGraphResource::new(&graph);
        let res_fallback = WikiGraphResource::new(&graph);
        let mut recovered =
            match ShardedFacetIndex::open_from(&store, 1, vec![&ne], vec![&res], options()) {
                Ok((idx, report)) => {
                    assert_eq!(
                        report.generation, 1,
                        "seed={seed:x}: only snap-1 was durable"
                    );
                    assert_eq!(
                        report.replayed_records, 0,
                        "seed={seed:x}: the damaged record must not replay"
                    );
                    idx
                }
                // A zero-byte short write leaves record 3 contiguous in
                // the file but non-contiguous in sequence: a typed gap,
                // never silent loss. The operator discards the WAL.
                Err(StoreError::WalGap { expected, found }) => {
                    assert_eq!((expected, found), (2, 3), "seed={seed:x}");
                    fs::remove_file(dir.join(WAL_FILE)).expect("discard wal");
                    let (idx, report) = ShardedFacetIndex::open_from(
                        &store,
                        1,
                        vec![&ne],
                        vec![&res_fallback],
                        options(),
                    )
                    .expect("recovery after discarding the WAL");
                    assert_eq!(report.generation, 1, "seed={seed:x}");
                    idx
                }
                Err(e) => panic!("seed={seed:x}: unexpected recovery error: {e}"),
            };

        // Retry the batches the crash swallowed; the result must be the
        // exact reference state, and a clean round-trip must now work.
        recovered
            .append_logged(chunks[1].clone(), &store)
            .expect("retry");
        recovered
            .append_logged(chunks[2].clone(), &store)
            .expect("retry");
        assert_eq!(
            recovered.snapshot().digest(),
            reference_digest,
            "seed={seed:x}: retried recovery diverged"
        );
        recovered.persist_to(&store).expect("persist recovered");
        let res = WikiGraphResource::new(&graph);
        let (reopened, report) =
            ShardedFacetIndex::open_from(&store, 1, vec![&ne], vec![&res], options())
                .expect("clean reopen");
        assert!(!report.fell_back, "seed={seed:x}");
        assert_eq!(
            reopened.snapshot().digest(),
            reference_digest,
            "seed={seed:x}: clean reopen diverged"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

/// Serving-tier integration: a server booted from an older build swaps
/// in a store-recovered index via [`FacetServer::reopen`]; handles see
/// the recovered generation and the full document set.
#[test]
fn server_reopen_serves_store_recovered_state() {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let chunks: Vec<Vec<Document>> = docs
        .chunks(docs.len().div_ceil(3))
        .map(<[Document]>::to_vec)
        .collect();

    // The durable writer: snapshot after batch 1, WAL records for the
    // rest — the recovery has real replay work to do.
    let dir = test_dir("serve-reopen");
    let store = FacetStore::open(&dir).expect("open store");
    {
        let res = WikiGraphResource::new(&graph);
        let mut writer = ShardedFacetIndex::new(2, vec![&ne], vec![&res], options());
        writer
            .append_logged(chunks[0].clone(), &store)
            .expect("append");
        writer.persist_to(&store).expect("persist");
        writer
            .append_logged(chunks[1].clone(), &store)
            .expect("append");
        writer
            .append_logged(chunks[2].clone(), &store)
            .expect("append");
    }

    let res_old = WikiGraphResource::new(&graph);
    let res_rec = WikiGraphResource::new(&graph);
    let mut old = ShardedFacetIndex::new(2, vec![&ne], vec![&res_old], options());
    old.append(chunks[0].clone()).expect("append");
    let (recovered, report) =
        ShardedFacetIndex::open_from(&store, 2, vec![&ne], vec![&res_rec], options())
            .expect("recover");
    assert_eq!(report.generation, 1);
    assert_eq!(report.replayed_records, 2);
    let recovered_rows = snapshot_rows(&recovered.snapshot());

    let mut srv = FacetServer::new(old);
    let h = srv.handle();
    assert_eq!(h.generation(), 1, "the server boots from the stale build");
    let generation = srv.reopen(recovered).expect("reopen");
    assert_eq!(generation, 3, "three appends landed durably");
    assert_eq!(h.generation(), 3, "handles must see the recovered state");
    assert_eq!(
        h.browse(&[]).total(),
        docs.len(),
        "the recovered index must serve the full corpus"
    );
    assert_eq!(
        snapshot_rows(srv.snapshot().merged()),
        recovered_rows,
        "the served snapshot must be the recovered snapshot"
    );
    fs::remove_dir_all(&dir).ok();
}
