//! `bulk_build`: cold builds of an SNB-recipe corpus with the paper's
//! full configuration — NE, Yahoo and Wikipedia extractors × Google,
//! WordNet, Wikipedia-synonym and Wikipedia-graph backends — on one
//! shard with two expansion threads and fresh resource caches every
//! build. Every distinct term misses the cache, so the extractors and
//! the backends do nearly all the work; subsumption runs once per build.
//!
//! Builds run back to back, a fixed number per round. Each is followed by
//! publishing a server over the new index and a closed-loop browse of
//! it, the way a user looks at a freshly loaded archive.

use crate::browse::BrowseLog;
use crate::inputs::{self, ms, Backends, Probes, Substrates};
use crate::probe::{self, Layer};
use crate::report::{self, LayerInputs, Measured, Metrics, Samples};
use crate::Config;
use facet_core::{FacetServer, PipelineOptions, ServeCacheStats, ShardedFacetIndex};
use facet_corpus::{Document, RecipeKind};
use facet_obs::Recorder;
use facet_resources::ExpansionOptions;
use std::time::Instant;

/// Documents per build: the SNB recipe at scale 0.3.
const DOCS: usize = 5_100;
/// Distinct browses after each build.
const BROWSES: usize = 4_000;
/// Seconds a cold build and its browses take on the development host.
/// A round runs as many builds as fit its share of `--seconds` at that
/// pace, a fixed count, so every round of a run reaches the same builds.
const BUILD_S: f64 = 4.0;

fn options() -> PipelineOptions {
    PipelineOptions {
        expansion: ExpansionOptions { threads: 2 },
        ..PipelineOptions::default()
    }
}

/// Run `rounds` rounds, each set up afresh (and timed) then measured;
/// only the last runs the unwrapped reference build.
pub fn run(cfg: &Config, rounds: usize, traced: bool) -> Measured {
    let mut measured = Vec::new();
    for round in 1..=rounds {
        let start = Instant::now();
        let bundle = inputs::bundle(RecipeKind::Snb, DOCS, cfg.seed);
        let subs = Substrates::new(&bundle);
        let backends = Backends::new(&subs);
        let probes = Probes::new(&subs, &backends);
        let docs = inputs::docs(&bundle);
        let setup_s = start.elapsed().as_secs_f64();
        measured.push(measure(
            cfg,
            traced,
            &probes,
            &docs,
            setup_s,
            round == rounds,
        ));
    }
    report::combine(measured)
}

fn measure(
    cfg: &Config,
    traced: bool,
    probes: &Probes<'_>,
    docs: &[Document],
    setup_s: f64,
    check_reference: bool,
) -> Measured {
    let recorder = if traced {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let program_before = recorder.snapshot();
    let terms_before = probes.extracted_terms();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut build_ms, mut visible_ms) = (Vec::new(), Vec::new());
    let mut log = BrowseLog::default();
    let mut layer = LayerInputs::default();
    // The first build's digest and browse queries; every later build
    // must publish the same digest.
    let mut first: Option<(u64, Vec<Vec<String>>)> = None;
    probe::reset_allocs();
    probe::enable(traced);
    let builds = ((cfg.round_seconds / BUILD_S).round() as usize).max(1);
    for _ in 0..builds {
        let batch = docs.to_vec();
        let mut index =
            ShardedFacetIndex::new(1, probes.extractors(), probes.resources(), options())
                .with_recorder(recorder.clone());
        attempted += 1;
        let start = Instant::now();
        let built = {
            let _span = probe::call(Layer::Index, "index.append", true);
            index.append(batch)
        };
        let took = start.elapsed();
        let stats = match built {
            Ok(stats) => stats,
            Err(e) => {
                eprintln!("perfbench: cold build failed: {e}");
                failed += 1;
                break;
            }
        };
        build_ms.push(ms(took));
        layer.reused_terms += stats.reused_terms as u64;
        layer.new_terms += stats.new_distinct_terms as u64;
        let server = {
            let _span = probe::call(Layer::Serve, "serve.publish", false);
            FacetServer::new(index)
        };
        let digest = server.snapshot().merged().digest();
        let (first_digest, queries) = first.get_or_insert_with(|| {
            let pool = inputs::label_pool(server.snapshot().merged());
            (digest, inputs::distinct_queries(&pool, BROWSES, cfg.seed))
        });
        let handle = server.handle();
        let (_, done) = log.browse(&handle, &queries[0], Instant::now(), true);
        visible_ms.push(ms(done - start));
        log.closed_loop(&handle, &queries[1..]);

        report::add_serve(
            &mut layer.serve,
            ServeCacheStats::default(),
            handle.cache_stats(),
        );
        let (hits, misses) = report::resource_cache(server.index());
        layer.cache_hits += hits;
        layer.cache_misses += misses;
        let intern = server.index().intern_stats();
        layer.intern_hit_rate = intern.hit_rate();
        layer.intern_len = intern.len as u64;
        attempted += 1;
        if digest != *first_digest {
            eprintln!("perfbench: two cold builds of the same documents diverged");
            failed += 1;
        }
    }
    probe::enable(false);
    let spans = probe::take_spans();
    attempted += log.lat_us.len() as u64 + log.checks;
    failed += log.mismatches;
    let digest = first.map_or(0, |(digest, _)| digest);

    // The reference: the same build through the unwrapped extractors and
    // backends must publish the same digest as the wrapped builds.
    if check_reference {
        attempted += 1;
        let reference = ShardedFacetIndex::build(
            docs.to_vec(),
            1,
            probes.raw_extractors(),
            probes.raw_resources(),
            options(),
        );
        match reference {
            Ok(reference) if reference.snapshot().digest() == digest => {}
            Ok(_) => {
                eprintln!("perfbench: a wrapped build diverged from the unwrapped reference");
                failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: the reference build failed: {e}");
                failed += 1;
            }
        }
    }

    let samples = Samples {
        setup_s,
        docs_per_step: docs.len() as f64,
        step_ms: build_ms.clone(),
        append_ms: build_ms.clone(),
        visible_ms,
        browse_us: log.lat_us.clone(),
    };
    let layers = if traced {
        layer.passes = build_ms.len() as f64;
        layer.program_ms = report::program_ms(&program_before, &recorder.snapshot());
        layer.terms_extracted = probes.extracted_terms() - terms_before;
        layer.append_ms = build_ms.clone();
        layer.browses = log;
        report::per_layer(&spans, &layer)
    } else {
        Metrics::default()
    };
    Measured {
        samples,
        e2e: Metrics::default(),
        layers,
        primary: inputs::median(&build_ms),
        attempted,
        failed,
        digest,
        spans,
    }
}
