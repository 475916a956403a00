//! `trickle_restart`: news arriving as a stream, then a crash. An
//! initial build of 2,000 SNYT documents is set-up (logged and
//! snapshotted). Then 10-document batches arrive through
//! `ShardedFacetIndex::append_logged` on 2 shards with 1 expansion
//! thread, with a `persist_to` snapshot every 48 batches. The resource
//! cache is warm, so selection, subsumption and publication over the
//! whole growing archive dominate, plus the WAL write. Then the live
//! index goes away and the benchmark restarts from the store three
//! times — `open_from`, `FacetServer::new`, first answered browse — and
//! browses the last recovered server in a closed loop.
//!
//! A run is several such rounds, each over the same documents from a
//! fresh set-up and store; the one-shot build check runs in the last.

use crate::browse::BrowseLog;
use crate::inputs::{self, content_digest, ms, Backends, Probes, Substrates};
use crate::probe::{self, Layer};
use crate::report::{self, LayerInputs, Measured, Metrics, Samples};
use crate::wrap::TimedStorage;
use crate::Config;
use facet_core::{FacetServer, PipelineOptions, ServeCacheStats, ShardedFacetIndex};
use facet_corpus::{Document, RecipeKind};
use facet_obs::Recorder;
use facet_resources::ExpansionOptions;
use facet_store::{FacetStore, Storage};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Documents indexed in set-up.
const INITIAL: usize = 2_000;
/// Documents per append.
const BATCH: usize = 10;
/// Batches per second of a round: 200 in an 8 s round, enough for a
/// p95 with ten samples beyond it.
const BATCHES_PER_S: f64 = 25.0;
/// A snapshot every this many batches. It does not divide the batch
/// count, so the last snapshot falls short of the end and recovery has a
/// WAL tail to replay.
const SNAPSHOT_EVERY: usize = 48;
/// Simulated restarts per round; `visible_ms` is their median.
const RESTARTS: usize = 3;
/// Distinct browses of the last recovered server.
const BROWSES: usize = 4_000;

fn options() -> PipelineOptions {
    PipelineOptions {
        expansion: ExpansionOptions { threads: 1 },
        ..PipelineOptions::default()
    }
}

/// Open the store at `dir` over timed storage.
fn open_store(dir: &Path, recorder: &Recorder) -> (Arc<TimedStorage>, FacetStore) {
    let storage = Arc::new(TimedStorage::open(dir).expect("the store directory can be created"));
    let shared: Arc<dyn Storage> = storage.clone();
    let store = FacetStore::open_with(shared)
        .expect("the store opens")
        .with_recorder(recorder.clone());
    (storage, store)
}

/// Run `rounds` rounds, each set up afresh (and timed) then measured;
/// only the last runs the one-shot build check.
pub fn run(cfg: &Config, rounds: usize, traced: bool) -> Measured {
    let batches = ((cfg.round_seconds * BATCHES_PER_S).round() as usize).max(1);
    let recorder = if traced {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let dir = cfg.work.join("store");
    let mut measured = Vec::new();
    for round in 1..=rounds {
        let start = Instant::now();
        let bundle = inputs::bundle(RecipeKind::Snyt, INITIAL + BATCH * batches, cfg.seed);
        let subs = Substrates::new(&bundle);
        let backends = Backends::new(&subs);
        let probes = Probes::new(&subs, &backends);
        let docs = inputs::docs(&bundle);
        // A missing directory is what a first set-up expects.
        let _ = std::fs::remove_dir_all(&dir);
        let store = open_store(&dir, &recorder);
        let mut index =
            ShardedFacetIndex::new(2, probes.extractors(), probes.resources(), options())
                .with_recorder(recorder.clone());
        index
            .append_logged(docs[..INITIAL].to_vec(), &store.1)
            .expect("generated documents are well-formed");
        index
            .persist_to(&store.1)
            .expect("the store takes the first snapshot");
        let setup_s = start.elapsed().as_secs_f64();
        let check_batch = round == rounds;
        measured.push(measure(
            cfg,
            traced,
            &probes,
            index,
            store,
            &docs,
            setup_s,
            check_batch,
        ));
    }
    report::combine(measured)
}

#[allow(clippy::too_many_arguments)]
fn measure(
    cfg: &Config,
    traced: bool,
    probes: &Probes<'_>,
    mut index: ShardedFacetIndex<'_>,
    (storage, store): (Arc<TimedStorage>, FacetStore),
    docs: &[Document],
    setup_s: f64,
    check_batch: bool,
) -> Measured {
    let recorder = index.recorder().clone();
    let program_before = recorder.snapshot();
    let terms_before = probes.extracted_terms();
    let cache_before = report::resource_cache(&index);
    let (wal_before, snapshots_before) = (storage.wal_bytes(), storage.snapshot_bytes());
    let tail = &docs[INITIAL..];
    let mut layer = LayerInputs::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    probe::reset_allocs();
    probe::enable(traced);

    let mut step_ms = Vec::new();
    for (i, batch) in tail.chunks(BATCH).enumerate() {
        let batch = batch.to_vec();
        attempted += 1;
        let start = Instant::now();
        let appended = {
            let _span = probe::call(Layer::Index, "index.append", true);
            index.append_logged(batch, &store)
        };
        let took = start.elapsed();
        match appended {
            Ok(stats) => {
                layer.append_ms.push(ms(took));
                layer.reused_terms += stats.reused_terms as u64;
                layer.new_terms += stats.new_distinct_terms as u64;
            }
            Err(e) => {
                eprintln!("perfbench: append_logged failed: {e}");
                failed += 1;
            }
        }
        if (i + 1) % SNAPSHOT_EVERY == 0 {
            attempted += 1;
            let persisted = {
                let _span = probe::call(Layer::Store, "store.persist_to", true);
                index.persist_to(&store)
            };
            if let Err(e) = persisted {
                eprintln!("perfbench: persist_to failed: {e}");
                failed += 1;
            }
        }
        step_ms.push(ms(start.elapsed()));
    }
    let live = index.snapshot();
    let queries = inputs::distinct_queries(&inputs::label_pool(&live), BROWSES, cfg.seed);
    let (hits, misses) = report::resource_cache(&index);
    layer.cache_hits = hits - cache_before.0;
    layer.cache_misses = misses - cache_before.1;
    let intern = index.intern_stats();
    layer.intern_hit_rate = intern.hit_rate();
    layer.intern_len = intern.len as u64;
    layer.wal_bytes = storage.wal_bytes() - wal_before;
    layer.snapshot_bytes = storage.snapshot_bytes() - snapshots_before;
    layer.doc_bytes = tail
        .iter()
        .map(|d| (d.title.len() + d.text.len()) as u64)
        .sum();
    // The live process goes away; everything below starts from the store.
    drop(index);
    drop(store);

    let dir = cfg.work.join("store");
    let mut restart_ms = Vec::new();
    let mut log = BrowseLog::default();
    let mut recovered = None;
    for _ in 0..RESTARTS {
        attempted += 1;
        let start = Instant::now();
        let (_, store) = open_store(&dir, &recorder);
        let opened = {
            let _span = probe::call(Layer::Store, "store.open_from", true);
            ShardedFacetIndex::open_from(
                &store,
                2,
                probes.extractors(),
                probes.resources(),
                options(),
            )
        };
        let (index, recovery) = match opened {
            Ok(opened) => opened,
            Err(e) => {
                eprintln!("perfbench: recovery failed: {e}");
                failed += 1;
                continue;
            }
        };
        layer.replay_records = recovery.replayed_records as u64;
        let server = {
            let _span = probe::call(Layer::Serve, "serve.publish", false);
            FacetServer::new(index)
        };
        let (_, done) = log.browse(&server.handle(), &queries[0], Instant::now(), true);
        restart_ms.push(ms(done - start));
        attempted += 1;
        if server.snapshot().merged().digest() != live.digest() {
            eprintln!("perfbench: the recovered index differs from the live one");
            failed += 1;
        }
        recovered = Some(server);
    }
    if let Some(server) = &recovered {
        let handle = server.handle();
        log.closed_loop(&handle, &queries[1..]);
        report::add_serve(
            &mut layer.serve,
            ServeCacheStats::default(),
            handle.cache_stats(),
        );
    }
    probe::enable(false);
    let spans = probe::take_spans();
    drop(recovered);

    // N appends ≡ one batch: a one-shot build of the same documents
    // through the unwrapped extractors and backends.
    if check_batch {
        attempted += 1;
        match ShardedFacetIndex::build(
            docs.to_vec(),
            2,
            probes.raw_extractors(),
            probes.raw_resources(),
            options(),
        ) {
            Ok(batch) if content_digest(&batch.snapshot()) == content_digest(&live) => {}
            Ok(_) => {
                eprintln!(
                    "perfbench: the appends diverged from a one-shot build of the same documents"
                );
                failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: the one-shot build failed: {e}");
                failed += 1;
            }
        }
    }
    attempted += log.lat_us.len() as u64 + log.checks;
    failed += log.mismatches;

    let samples = Samples {
        setup_s,
        docs_per_step: BATCH as f64,
        step_ms,
        append_ms: layer.append_ms.clone(),
        visible_ms: restart_ms,
        browse_us: log.lat_us.clone(),
    };
    let primary = inputs::median(&layer.append_ms);
    let layers = if traced {
        layer.passes = 1.0;
        layer.program_ms = report::program_ms(&program_before, &recorder.snapshot());
        layer.terms_extracted = probes.extracted_terms() - terms_before;
        layer.browses = log;
        report::per_layer(&spans, &layer)
    } else {
        Metrics::default()
    };
    Measured {
        samples,
        e2e: Metrics::default(),
        layers,
        primary,
        attempted,
        failed,
        digest: live.digest(),
        spans,
    }
}
