//! Reproducibility: the whole stack — world, corpus, substrates, pipeline
//! — must be bit-stable given the recipe seeds, including under different
//! expansion thread counts and index shard counts.

use facet_hierarchies::core::{FacetSnapshot, PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::RecipeKind;
use facet_hierarchies::eval::harness::{tiny_recipe, DatasetBundle};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{ContextResource, ExpansionOptions, WikiGraphResource};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor};
use facet_hierarchies::wikipedia::WikipediaGraph;

fn facet_terms_with_threads(threads: usize) -> Vec<String> {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res];
    let index = ShardedFacetIndex::build(
        bundle.corpus.db.docs().to_vec(),
        1,
        extractors,
        resources,
        PipelineOptions {
            top_k: 300,
            expansion: ExpansionOptions { threads },
            ..Default::default()
        },
    )
    .unwrap();
    index
        .snapshot()
        .facet_terms()
        .into_iter()
        .map(str::to_string)
        .collect()
}

#[test]
fn identical_runs_identical_results() {
    assert_eq!(facet_terms_with_threads(2), facet_terms_with_threads(2));
}

#[test]
fn thread_count_does_not_change_results() {
    assert_eq!(facet_terms_with_threads(1), facet_terms_with_threads(4));
}

#[test]
fn thread_count_sweep_is_stable() {
    // Any thread count must reproduce the serial result exactly — the
    // parallel expansion path merges worker results back in term order,
    // so even byte-level term-id assignment is identical (see
    // facet-resources' `parallel_matches_serial`).
    let serial = facet_terms_with_threads(1);
    for threads in 2..=6 {
        assert_eq!(
            serial,
            facet_terms_with_threads(threads),
            "threads={threads} diverged from serial"
        );
    }
}

#[test]
fn bundles_are_reproducible() {
    let a = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snb));
    let b = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snb));
    assert_eq!(a.corpus.db.len(), b.corpus.db.len());
    assert_eq!(a.wiki.wiki.len(), b.wiki.wiki.len());
    assert_eq!(a.wiki.wiki.link_count(), b.wiki.wiki.link_count());
    assert_eq!(a.wordnet.len(), b.wordnet.len());
    assert_eq!(a.web.len(), b.web.len());
    for (da, db) in a.corpus.db.docs().iter().zip(b.corpus.db.docs()) {
        assert_eq!(da.text, db.text);
    }
}

/// One candidate as bytes-comparable data: (term, df, df_c, score bits).
type CandidateRow = (String, u64, u64, String);

/// Run the full pipeline (including hierarchy construction) through a
/// 1-shard index under the given recorder and export every output as
/// plain bytes-comparable data: candidates with their statistics, plus
/// the forest edges.
fn pipeline_outputs(
    recorder: facet_hierarchies::obs::Recorder,
) -> (Vec<CandidateRow>, Vec<(String, String)>) {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res];
    let mut index = ShardedFacetIndex::new(
        1,
        extractors,
        resources,
        PipelineOptions {
            top_k: 300,
            ..Default::default()
        },
    )
    .with_recorder(recorder);
    index.append(bundle.corpus.db.docs().to_vec()).unwrap();
    snapshot_rows(&index.snapshot())
}

#[test]
fn recorder_does_not_change_results() {
    use facet_hierarchies::obs::Recorder;
    let enabled = Recorder::enabled();
    let with_recorder = pipeline_outputs(enabled.clone());
    let without = pipeline_outputs(Recorder::disabled());
    assert_eq!(
        with_recorder, without,
        "instrumentation must be observation-only"
    );
    // And the recorder did observe the run.
    let counts = enabled.snapshot_counts_only();
    assert_eq!(counts["span.append.count"], 1);
    assert_eq!(counts["span.append.expand.count"], 1);
    assert_eq!(counts["span.append.select.count"], 1);
    assert_eq!(counts["span.append.subsumption.count"], 1);
    assert!(counts["counter.resource.Wikipedia Graph.queries"] >= 1);
}

#[test]
fn count_snapshots_are_reproducible() {
    use facet_hierarchies::obs::Recorder;
    let a = Recorder::enabled();
    let b = Recorder::enabled();
    let _ = pipeline_outputs(a.clone());
    let _ = pipeline_outputs(b.clone());
    assert_eq!(a.snapshot_counts_only(), b.snapshot_counts_only());
}

/// String-level view of an index snapshot: candidate rows with exact
/// score bits, plus forest edges by label.
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

/// A resource wrapper that counts how many queries reach the inner
/// resource (what the index's expansion cache is supposed to minimize).
struct CountedInner<'a> {
    inner: WikiGraphResource<'a>,
    queries: std::sync::atomic::AtomicUsize,
}

impl ContextResource for CountedInner<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn context_terms(&self, term: &str) -> Vec<String> {
        self.queries
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.context_terms(term)
    }
}

#[test]
fn shard_and_thread_sweep_matches_batch_pipeline() {
    // The index must reproduce its own one-shot 1-shard build exactly —
    // all candidate statistics bit-for-bit and all forest edges — for
    // every shard count and expansion thread count, whether the corpus
    // arrives in one batch or many. (tests/pipeline_oracle.rs checks the
    // 1-shard build against Steps 1–4 computed from the paper's
    // formulas.)
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let options = |threads: usize| PipelineOptions {
        top_k: 300,
        expansion: ExpansionOptions { threads },
        ..Default::default()
    };

    let batch_res = WikiGraphResource::new(&graph);
    let batch =
        ShardedFacetIndex::build(docs.clone(), 1, vec![&ne], vec![&batch_res], options(1)).unwrap();
    let expected = snapshot_rows(&batch.snapshot());
    assert!(!expected.0.is_empty(), "the corpus must yield facet terms");

    // The vocabulary is content-determined: the same documents in
    // the same chunks intern the same number of symbols at every shard
    // count.
    let mut vocab_len = None;
    for n_shards in [1, 2, 3, 4, 8] {
        for threads in [1, 4] {
            let res = WikiGraphResource::new(&graph);
            let extractors: Vec<&dyn TermExtractor> = vec![&ne];
            let resources: Vec<&dyn ContextResource> = vec![&res];
            let mut index =
                ShardedFacetIndex::new(n_shards, extractors, resources, options(threads));
            for chunk in docs.chunks(docs.len().div_ceil(3)) {
                index.append(chunk.to_vec()).expect("well-formed batches");
            }
            assert_eq!(
                snapshot_rows(&index.snapshot()),
                expected,
                "shards={n_shards} threads={threads} diverged from the batch build"
            );
            let len = index.intern_stats().len;
            assert_eq!(
                *vocab_len.get_or_insert(len),
                len,
                "shards={n_shards} threads={threads}: vocabulary size changed"
            );
        }
    }
}

#[test]
fn racing_shards_query_each_term_once() {
    // The index's expansion cache must collapse cross-worker duplicate
    // queries: however many workers race on the same important terms, the
    // resource answers each distinct term exactly once — the same query
    // count a 1-worker build issues.
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let options = PipelineOptions {
        top_k: 300,
        ..Default::default()
    };

    let counted_queries = |n_shards: usize| {
        let counted = CountedInner {
            inner: WikiGraphResource::new(&graph),
            queries: std::sync::atomic::AtomicUsize::new(0),
        };
        let extractors: Vec<&dyn TermExtractor> = vec![&ne];
        let resources: Vec<&dyn ContextResource> = vec![&counted];
        let index = ShardedFacetIndex::build(
            docs.clone(),
            n_shards,
            extractors,
            resources,
            options.clone(),
        )
        .unwrap();
        let stats = index.resource_cache_stats()[0];
        let inner = counted.queries.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(
            inner as u64, stats.misses,
            "every inner query must be a counted miss"
        );
        inner
    };

    let serial = counted_queries(1);
    assert!(serial > 0, "the corpus must produce resource queries");
    for n_shards in [2, 4, 8] {
        assert_eq!(
            counted_queries(n_shards),
            serial,
            "{n_shards} shards re-queried terms another shard already resolved"
        );
    }
}

#[test]
fn fanout_browse_is_identical_across_shard_and_thread_sweep() {
    // Serving-tier analogue of the batch invariant above: the canonical
    // rendering of every fan-out browse answer — doc ids, refinement
    // labels, refinement counts — must not depend on how the corpus was
    // partitioned or how many expansion threads built it. Candidates
    // are fixed by the merged forest before fan-out and per-shard
    // counts merge by commutative sums, so any divergence here means a
    // shard leaked local state into the merge-at-read path.
    use facet_hierarchies::core::{fanout_browse, FacetServer};

    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let options = |threads: usize| PipelineOptions {
        top_k: 300,
        expansion: ExpansionOptions { threads },
        ..Default::default()
    };

    // One canonical answer set per (shards, threads) cell: the empty
    // query, every facet root, and a two-root conjunction.
    let answers = |n_shards: usize, threads: usize| -> Vec<String> {
        let res = WikiGraphResource::new(&graph);
        let extractors: Vec<&dyn TermExtractor> = vec![&ne];
        let resources: Vec<&dyn ContextResource> = vec![&res];
        let mut index = ShardedFacetIndex::new(n_shards, extractors, resources, options(threads));
        for chunk in docs.chunks(docs.len().div_ceil(3)) {
            index.append(chunk.to_vec()).expect("well-formed batches");
        }
        let server = FacetServer::new(index);
        let snapshot = server.snapshot();
        let forest = snapshot.merged().forest();
        let roots: Vec<String> = forest
            .trees
            .iter()
            .map(|t| forest.label(&t.root).to_string())
            .collect();
        let mut queries: Vec<Vec<&str>> = vec![Vec::new()];
        queries.extend(roots.iter().map(|r| vec![r.as_str()]));
        if roots.len() >= 2 {
            queries.push(vec![roots[0].as_str(), roots[1].as_str()]);
        }
        queries
            .iter()
            .map(|q| fanout_browse(&snapshot, q).canonical())
            .collect()
    };

    let reference = answers(1, 1);
    assert!(reference.len() > 2, "the forest must have roots to browse");
    for n_shards in [2, 3, 4, 8] {
        for threads in [1, 4] {
            assert_eq!(
                answers(n_shards, threads),
                reference,
                "shards={n_shards} threads={threads}: fan-out browse diverged"
            );
        }
    }
}

#[test]
fn persist_and_reopen_round_trip_is_bit_identical() {
    // Durability-tier analogue of the shard sweep: writing an index to a
    // store and recovering it must reproduce the live index exactly —
    // candidate statistics bit-for-bit, forest edges, and the snapshot
    // digest — and the reopened index must keep evolving identically
    // (its vocabulary, caches, and frequency tables all survived).
    use facet_hierarchies::store::FacetStore;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "facet-determinism-{}-{tag}-{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let (head, tail) = docs.split_at(docs.len() / 2);
    let options = PipelineOptions {
        top_k: 300,
        ..Default::default()
    };

    // 1-shard round trip.
    {
        let dir = test_dir("flat");
        let store = FacetStore::open(&dir).expect("open store");
        let res = WikiGraphResource::new(&graph);
        let mut live =
            ShardedFacetIndex::build(head.to_vec(), 1, vec![&ne], vec![&res], options.clone())
                .expect("build");
        live.persist_to(&store).expect("persist");
        let res2 = WikiGraphResource::new(&graph);
        let (mut reopened, report) =
            ShardedFacetIndex::open_from(&store, 1, vec![&ne], vec![&res2], options.clone())
                .expect("open_from");
        assert!(!report.fell_back && !report.tail_truncated);
        assert_eq!(
            snapshot_rows(&reopened.snapshot()),
            snapshot_rows(&live.snapshot()),
            "reopened 1-shard index diverged from the live one"
        );
        assert_eq!(reopened.snapshot().digest(), live.snapshot().digest());
        live.append(tail.to_vec()).expect("append live");
        reopened.append(tail.to_vec()).expect("append reopened");
        assert_eq!(
            snapshot_rows(&reopened.snapshot()),
            snapshot_rows(&live.snapshot()),
            "the reopened 1-shard index must keep evolving identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // Sharded round trip.
    {
        let dir = test_dir("sharded");
        let store = FacetStore::open(&dir).expect("open store");
        let res = WikiGraphResource::new(&graph);
        let mut live =
            ShardedFacetIndex::build(head.to_vec(), 3, vec![&ne], vec![&res], options.clone())
                .expect("build");
        live.persist_to(&store).expect("persist");
        let res2 = WikiGraphResource::new(&graph);
        let (mut reopened, report) =
            ShardedFacetIndex::open_from(&store, 3, vec![&ne], vec![&res2], options.clone())
                .expect("open_from");
        assert!(!report.fell_back && !report.tail_truncated);
        assert_eq!(
            snapshot_rows(&reopened.snapshot()),
            snapshot_rows(&live.snapshot()),
            "reopened sharded index diverged from the live one"
        );
        assert_eq!(reopened.snapshot().digest(), live.snapshot().digest());
        live.append(tail.to_vec()).expect("append live");
        reopened.append(tail.to_vec()).expect("append reopened");
        assert_eq!(
            snapshot_rows(&reopened.snapshot()),
            snapshot_rows(&live.snapshot()),
            "the reopened sharded index must keep evolving identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn recipes_differ_across_datasets() {
    let snyt = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let snb = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snb));
    // Different worlds: entity names differ.
    let a = &snyt.world.entities[10].name;
    let b = &snb.world.entities[10].name;
    assert_ne!(a, b, "datasets must be drawn from different worlds");
}
