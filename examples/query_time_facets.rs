//! Query-time facets through the serving tier: build the index ONCE,
//! answer every browse query from the published snapshot.
//!
//! ```sh
//! cargo run --release --example query_time_facets
//! cargo run --release --example query_time_facets -- --obs obs.json --trace trace.json
//! ```
//!
//! `--obs <path>` writes the recorder's metric snapshot (stage timings,
//! `serve.{hit,miss,fanout}` counters, latency histograms) as JSON;
//! `--trace <path>` writes a Chrome trace-event file of the indexing run
//! (see DESIGN.md section 15).
//!
//! Section V-D of the paper notes that with term and context extraction
//! performed offline, "we can generate facet hierarchies over the complete
//! database and dynamically over a set of lengthy query results". Earlier
//! revisions of this example re-ran term selection and forest
//! construction on every query — interactive latency paid the full
//! pipeline each time. The serving tier (`core::serve`, DESIGN.md
//! section 17) fixes that: `FacetServer` publishes a frozen snapshot
//! whose browse engine holds sorted postings for every facet term, each
//! browse intersects them, and a query-signature cache serves repeated
//! queries with zero re-selection until an append bumps the generation.

use facet_hierarchies::core::{fanout_browse, FacetServer, PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::{DatasetRecipe, RecipeKind};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::obs::{Recorder, Tracer, TracerConfig, WallTraceClock};
use facet_hierarchies::resources::{ContextResource, WikiGraphResource};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor};
use facet_hierarchies::textkit::Vocabulary;
use facet_hierarchies::wikipedia::{build_wikipedia, WikipediaConfig, WikipediaGraph};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut obs_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--obs" => {
                obs_out = argv.get(i + 1).cloned();
                i += 2;
            }
            "--trace" => {
                trace_out = argv.get(i + 1).cloned();
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other} (supported: --obs <path>, --trace <path>)");
                std::process::exit(2);
            }
        }
    }
    // Observability is opt-in: without flags the recorder is disabled
    // and every record call below is a no-op. The trace clock is the
    // wall clock here — this example measures real interactive latency,
    // so its trace is *not* byte-reproducible (unlike the seeded
    // `instrumented_run --trace` scenario).
    let recorder = match (&obs_out, &trace_out) {
        (None, None) => Recorder::disabled(),
        (_, None) => Recorder::enabled(),
        (_, Some(_)) => Recorder::traced(Tracer::with_clock(
            TracerConfig::default(),
            std::sync::Arc::new(WallTraceClock::new()),
        )),
    };

    // Full archive, split so one batch can arrive mid-session below.
    let recipe = DatasetRecipe::scaled(RecipeKind::Snyt, 0.5);
    let world = recipe.build_world();
    let mut vocab = Vocabulary::new();
    let corpus = recipe.build_corpus(&world, &mut vocab);
    let docs = corpus.db.docs().to_vec();
    let late = (docs.len() / 10).max(1);
    let (initial, late_batch) = docs.split_at(docs.len() - late);

    // Index ONCE (the expensive offline half), then serve.
    let wiki = build_wikipedia(&world, &WikipediaConfig::default());
    let graph = WikipediaGraph::new(&wiki.wiki, &wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    let tagger = NerTagger::from_world(&world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res];
    let mut index = ShardedFacetIndex::new(
        4,
        extractors,
        resources,
        PipelineOptions {
            top_k: 150,
            min_df_c: 2,
            ..Default::default()
        },
    )
    .with_recorder(recorder.clone());
    {
        let span = recorder.span("build_index");
        span.attr("docs", initial.len() as u64);
        index.append(initial.to_vec()).expect("index the archive");
    }
    let mut server = FacetServer::new(index);
    let handle = server.handle();

    let snapshot = server.snapshot();
    let forest = snapshot.merged().forest();
    println!(
        "serving generation {}: {} docs, {} facet terms across {} facets",
        snapshot.generation(),
        snapshot.n_docs(),
        forest.total_terms(),
        forest.trees.len()
    );
    print!("{}", forest.render(4));

    // The user drills into the most prominent facets. Each query is
    // answered from the snapshot's facet-term postings; asking it
    // again hits the signature cache — zero re-selection, and the
    // cached answer is byte-identical to a fresh one.
    let queries: Vec<String> = forest
        .trees
        .iter()
        .take(3)
        .map(|t| forest.label(&t.root).to_string())
        .collect();
    for label in &queries {
        let first = handle.browse(&[label.as_str()]);
        let again = handle.browse(&[label.as_str()]);
        let fresh = fanout_browse(&handle.snapshot(), &[label.as_str()]);
        assert_eq!(
            first.canonical(),
            fresh.canonical(),
            "cached browse must be byte-identical to uncached re-selection"
        );
        println!(
            "browse {:?}: {} docs, {} refinements (repeat was a cache {})",
            label,
            first.total(),
            first.refinements.len(),
            if std::sync::Arc::ptr_eq(&first, &again) {
                "hit"
            } else {
                "miss"
            }
        );
        for (child, count) in first.refinements.iter().take(4) {
            println!("  {child} ({count})");
        }
    }

    // A late batch arrives: the append bumps the generation, republishes
    // the snapshot, and invalidates the cache. The same queries now
    // re-select against the new snapshot.
    server.append(late_batch.to_vec()).expect("late batch");
    println!(
        "appended {} late docs (generation {} -> {})",
        late_batch.len(),
        snapshot.generation(),
        server.snapshot().generation()
    );
    for label in &queries {
        let result = handle.browse(&[label.as_str()]);
        println!(
            "browse {:?} @ generation {}: {} docs",
            label,
            result.generation,
            result.total()
        );
    }
    let cache = handle.cache_stats();
    println!(
        "cache: {} hits, {} misses, {} invalidated by the append",
        cache.hits, cache.misses, cache.invalidations
    );

    if let Some(path) = obs_out {
        let report = recorder.snapshot();
        let json =
            facet_hierarchies::jsonio::to_json_string_pretty(&report).expect("serialize report");
        std::fs::write(&path, json + "\n").expect("write obs report");
        println!("wrote {path} (metric snapshot)");
    }
    if let Some(path) = trace_out {
        let tracer = recorder.tracer().expect("traced recorder");
        std::fs::write(&path, tracer.chrome_trace_json()).expect("write trace");
        println!("wrote {path} — open in chrome://tracing or https://ui.perfetto.dev");
    }
}
