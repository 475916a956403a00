//! An instrumented pipeline run: attach a [`Recorder`], run the paper's
//! pipeline, and inspect where the time went and which resources were
//! queried how often.
//!
//! ```sh
//! cargo run --release --example instrumented_run
//! ```
//!
//! The same recorder can be threaded through the experiment harness
//! (`GridOptions::recorder`) or enabled on the `experiments` binary
//! with `--obs <path.json>`.
//!
//! The second half of the example is a **chaos run**: one resource is
//! wrapped in a seeded [`FaultyResource`] and a [`ResilientResource`]
//! (retries + circuit breaker), and the recorder shows the retry and
//! breaker counters alongside the degraded-coverage provenance and the
//! [`ShardedFacetIndex::repair`] backfill.
//!
//! ```sh
//! cargo run --release --example instrumented_run -- --trace out.json
//! ```
//!
//! With `--trace <path>` the example instead runs a compact, fully
//! deterministic traced scenario (appends over a flaky resource
//! behind the resilience policy, everything on one shared
//! [`VirtualClock`]) and writes a Chrome trace-event JSON file —
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev> — that is
//! byte-identical across runs. `--folded <path>` additionally writes
//! folded flamegraph stacks. The written trace is then read back, parsed
//! through `facet-jsonio`, and checked for the expected span tree
//! (`run` → `append` → `expand` → `resource.query` → `attempt`,
//! depth ≥ 4); the example exits non-zero if the check fails. See
//! DESIGN.md section 15.

use facet_hierarchies::core::{PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::{DatasetRecipe, RecipeKind};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::obs::Recorder;
use facet_hierarchies::resources::{
    BreakerConfig, ContextResource, ExpansionOptions, FaultPlan, FaultyResource, ResilientResource,
    VirtualClock, WikiGraphResource, WordNetHypernymsResource,
};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor, YahooTermExtractor};
use facet_hierarchies::textkit::Vocabulary;
use facet_hierarchies::wikipedia::{build_wikipedia, WikipediaConfig, WikipediaGraph};
use facet_hierarchies::wordnet::build_wordnet;

/// The `--trace` scenario: a build + incremental append over a flaky
/// WordNet behind the resilience policy, traced end to end. The tracer's
/// clock **is** the resilience layer's [`VirtualClock`], and the index
/// runs one worker, so extraction and expansion stay on the appending
/// thread: the whole traced region is deterministic and two runs export
/// identical bytes (the property `scripts/check.sh --trace-smoke` gates
/// on).
fn traced_run(trace_out: &str, folded_out: Option<&str>) {
    use facet_hierarchies::obs::{Tracer, TracerConfig};
    use std::sync::Arc;

    let recipe = DatasetRecipe::scaled(RecipeKind::Snyt, 0.05);
    let world = recipe.build_world();
    let mut vocab = Vocabulary::new();
    let corpus = recipe.build_corpus(&world, &mut vocab);
    let wiki = build_wikipedia(&world, &WikipediaConfig::default());
    let wordnet = build_wordnet(&world);
    let graph = WikipediaGraph::new(&wiki.wiki, &wiki.redirects);
    let tagger = NerTagger::from_world(&world);
    let ne = NamedEntityExtractor::new(tagger);
    let yahoo = YahooTermExtractor::fit(&corpus.db, &vocab);

    let clock = VirtualClock::new();
    let tracer = Tracer::with_clock(TracerConfig::default(), Arc::new(clock.clone()));
    let recorder = Recorder::traced(tracer);

    // Exactly one transient failure per faulted term: every faulted
    // query exercises one retry (an `attempt` child span + a backoff
    // event) and then succeeds, so the build stays fully covered.
    let faulty = FaultyResource::new(
        WordNetHypernymsResource::new(&wordnet),
        FaultPlan::seeded(0xC0FFEE, 300).with_failures_per_term(1),
        clock.clone(),
    );
    let resilient = ResilientResource::new(faulty, clock.clone());
    let graph_res = WikiGraphResource::new(&graph);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res, &resilient];
    let options = PipelineOptions {
        // One worker keeps resource queries on the appending thread,
        // nested under its `expand` stage span.
        expansion: ExpansionOptions { threads: 1 },
        ..Default::default()
    };

    let docs = corpus.db.docs().to_vec();
    let half = docs.len() / 2;
    {
        let run = recorder.span("run");
        run.attr("docs", docs.len() as u64);
        let mut index = ShardedFacetIndex::new(1, extractors, resources, options)
            .with_recorder(recorder.clone());
        index.append(docs[..half].to_vec()).expect("first append");
        index.append(docs[half..].to_vec()).expect("second append");
        println!(
            "traced build: {} docs in 2 appends, {} facet terms",
            docs.len(),
            index.snapshot().candidates().len()
        );
    }

    let tracer = recorder.tracer().expect("traced recorder");
    std::fs::write(trace_out, tracer.chrome_trace_json()).expect("write trace");
    println!(
        "wrote {trace_out} ({} traces, {} spans buffered) — open in chrome://tracing or https://ui.perfetto.dev",
        tracer.finished().len(),
        tracer.buffered_spans()
    );
    if let Some(folded) = folded_out {
        std::fs::write(folded, tracer.folded_stacks()).expect("write folded stacks");
        println!("wrote {folded} (folded flamegraph stacks)");
    }
    let written = std::fs::read_to_string(trace_out).expect("read the trace back");
    match verify_trace(&written) {
        Ok(depth) => println!("trace verified: required spans present, span-tree depth {depth}"),
        Err(e) => {
            eprintln!("trace verification failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Spans the traced scenario must export: the causal chain from the
/// run through an append's expand stage (the `append.expand` metric
/// span) down to a retried resource query.
const REQUIRED_SPANS: [&str; 5] = ["run", "append", "expand", "resource.query", "attempt"];

/// The minimum depth of the exported span tree.
const MIN_TRACE_DEPTH: usize = 4;

/// Re-parse a Chrome trace-event export through `facet-jsonio` and check
/// that it holds every [`REQUIRED_SPANS`] entry as a complete (`"X"`)
/// event and that its parent chains reach [`MIN_TRACE_DEPTH`]. Returns
/// the depth of the deepest chain.
fn verify_trace(json: &str) -> Result<usize, String> {
    use facet_hierarchies::jsonio::{parse_json, JsonValue};
    use std::collections::HashMap;

    let trace = parse_json(json).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let events = trace
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("no traceEvents array")?;
    let mut names = Vec::new();
    let mut parent_of: HashMap<&str, &str> = HashMap::new();
    for ev in events {
        if ev.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        names.push(ev.get("name").and_then(JsonValue::as_str).unwrap_or(""));
        let args = ev.get("args");
        let arg = |key| {
            args.and_then(|a| a.get(key))
                .and_then(JsonValue::as_str)
                .unwrap_or("")
        };
        if !arg("span_id").is_empty() {
            parent_of.insert(arg("span_id"), arg("parent_id"));
        }
    }
    let missing: Vec<&str> = REQUIRED_SPANS
        .into_iter()
        .filter(|want| !names.iter().any(|n| n == want))
        .collect();
    if !missing.is_empty() {
        return Err(format!("missing required spans {missing:?}"));
    }
    // Roots have an empty parent id; the bound guards against a cycle.
    let mut depth = 0;
    for &leaf in parent_of.keys() {
        let (mut id, mut chain) = (leaf, 0);
        while !id.is_empty() && chain <= parent_of.len() {
            chain += 1;
            id = parent_of.get(id).copied().unwrap_or("");
        }
        depth = depth.max(chain);
    }
    if depth < MIN_TRACE_DEPTH {
        return Err(format!("span-tree depth {depth} < {MIN_TRACE_DEPTH}"));
    }
    Ok(depth)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_out: Option<String> = None;
    let mut folded_out: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--trace" => {
                trace_out = argv.get(i + 1).cloned();
                i += 2;
            }
            "--folded" => {
                folded_out = argv.get(i + 1).cloned();
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other} (supported: --trace <path>, --folded <path>)");
                std::process::exit(2);
            }
        }
    }
    if let Some(trace) = trace_out {
        traced_run(&trace, folded_out.as_deref());
        return;
    }

    // Corpus and substrates, as in the quickstart.
    let recipe = DatasetRecipe::scaled(RecipeKind::Snyt, 0.2);
    let world = recipe.build_world();
    let mut vocab = Vocabulary::new();
    let corpus = recipe.build_corpus(&world, &mut vocab);
    let wiki = build_wikipedia(&world, &WikipediaConfig::default());
    let wordnet = build_wordnet(&world);
    let graph = WikipediaGraph::new(&wiki.wiki, &wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    let wn_res = WordNetHypernymsResource::new(&wordnet);
    let tagger = NerTagger::from_world(&world);
    let ne = NamedEntityExtractor::new(tagger);

    // The recorder. `Recorder::disabled()` would make every record call
    // a no-op without touching the pipeline code below.
    let recorder = Recorder::enabled();

    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
    let mut index = ShardedFacetIndex::new(
        1,
        extractors,
        resources,
        PipelineOptions {
            top_k: 400,
            ..Default::default()
        },
    )
    .with_recorder(recorder.clone());
    index
        .append(corpus.db.docs().to_vec())
        .expect("a fresh index accepts any batch");
    let snapshot = index.snapshot();
    println!(
        "{} documents -> {} candidates -> {} facet trees\n",
        corpus.db.len(),
        snapshot.candidates().len(),
        snapshot.forest().trees.len()
    );

    // Where the time went, per stage.
    let report = recorder.snapshot();
    print!("{}", report.stage_table());

    // Which resources were hot.
    println!("\ncounters:");
    for c in &report.counters {
        println!("  {:<40} {}", c.name, c.value);
    }
    println!("\nlatency/fan-out histograms (latency values are us):");
    for h in &report.histograms {
        println!(
            "  {:<40} n={} mean={} max={}",
            h.name,
            h.count,
            h.sum.checked_div(h.count).unwrap_or(0),
            h.max
        );
    }

    // The same report as machine-readable JSON (what `--obs` writes).
    let json = facet_hierarchies::jsonio::to_json_string_pretty(&report).expect("serialize");
    println!("\nJSON report is {} bytes; first lines:", json.len());
    for line in json.lines().take(12) {
        println!("  {line}");
    }

    // ── Chaos run ──────────────────────────────────────────────────────
    // The same corpus, but WordNet is flaky: a seeded fault plan makes
    // ~30% of terms fail deterministically, and a resilience policy
    // (retries with backoff on a virtual clock + a circuit breaker)
    // sits between the fault and the index. The recorder sees both
    // layers.
    println!("\n=== chaos run: flaky WordNet behind a resilience policy ===");
    let chaos_recorder = Recorder::enabled();
    let clock = VirtualClock::new();
    let faulty = FaultyResource::new(
        WordNetHypernymsResource::new(&wordnet),
        FaultPlan::seeded(0xC0FFEE, 300),
        clock.clone(),
    );
    let resilient = ResilientResource::new(faulty, clock.clone())
        .with_breaker(BreakerConfig {
            failure_threshold: 3,
            cooldown_us: 25_000,
            half_open_probes: 1,
        })
        .with_recorder(&chaos_recorder);
    // Yahoo terms include common nouns, so WordNet hypernyms actually
    // shape the contextualized database here.
    let yahoo = YahooTermExtractor::fit(&corpus.db, &vocab);

    let chaos_extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
    let chaos_resources: Vec<&dyn ContextResource> = vec![&graph_res, &resilient];
    let options = PipelineOptions {
        top_k: 400,
        // Single-threaded expansion keeps the breaker's shed set (which
        // depends on query order) reproducible for the demo.
        expansion: ExpansionOptions { threads: 1 },
        ..Default::default()
    };
    let mut index = ShardedFacetIndex::build(
        corpus.db.docs().to_vec(),
        1,
        chaos_extractors,
        chaos_resources,
        options.clone(),
    )
    .expect("chaos build")
    .with_recorder(chaos_recorder.clone());

    let snap = index.snapshot();
    println!(
        "build survived: {} facet terms, {} terms degraded, breaker now {:?}",
        snap.candidates().len(),
        snap.degraded().len(),
        resilient.breaker_state()
    );
    let chaos_report = chaos_recorder.snapshot();
    println!("resilience counters:");
    for c in &chaos_report.counters {
        if c.name.starts_with("resilient.") || c.name.ends_with(".failures") {
            println!("  {:<40} {}", c.name, c.value);
        }
    }

    // The outage ends: heal the fault, let the breaker cooldown elapse
    // on the virtual clock, and backfill only the degraded terms.
    resilient.inner().heal();
    clock.advance_us(25_000);
    let stats = index.repair().expect("repair");
    let snap = index.snapshot();
    println!(
        "\nrepair: re-queried {} terms, repaired {}, recomputed {} docs; fully covered: {}",
        stats.requeried_terms,
        stats.repaired_terms,
        stats.changed_docs,
        snap.is_fully_covered()
    );

    // The repaired index is identical to one that never saw a fault.
    let clean_extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
    let clean_resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
    let clean = ShardedFacetIndex::build(
        corpus.db.docs().to_vec(),
        1,
        clean_extractors,
        clean_resources,
        options,
    )
    .expect("clean build");
    assert_eq!(snap.facet_terms(), clean.snapshot().facet_terms());
    println!("repaired snapshot matches the fault-free build");
}
