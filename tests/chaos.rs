//! Chaos suite: fault-injected builds must stay deterministic, record
//! accurate degraded-coverage provenance, and `repair()` must converge
//! byte-identically (at the string level — term strings, df/df_C,
//! score bits, forest edges, provenance) to a build that never saw a
//! fault, for `ShardedFacetIndex` across shard and thread counts, with
//! the 1-shard index as the baseline.
//!
//! All fault plans here are **phase mode** ([`FaultPlan`] with
//! `failures_per_term: None`): whether a term fails is a pure function
//! of `(seed, term)`, so the degraded set cannot depend on thread
//! interleaving or shard arrival order — which is exactly what makes
//! "same fault seed ⇒ byte-identical snapshot" a testable invariant.
//! Attempt-mode schedules and the circuit breaker (whose shed set is
//! interleaving-dependent by nature) are exercised single-threaded in
//! `facet-resources`' unit tests and in the breaker smoke test
//! `resilient_policy_layer_composes_with_the_index`.

use facet_hierarchies::core::{FacetSnapshot, PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::RecipeKind;
use facet_hierarchies::eval::harness::{tiny_recipe, DatasetBundle};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::obs::Recorder;
use facet_hierarchies::resources::{
    BreakerConfig, ContextResource, ExpansionOptions, FaultPlan, FaultyResource, ResilientResource,
    RetryPolicy, VirtualClock, WikiGraphResource, WordNetHypernymsResource,
};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor};
use facet_hierarchies::wikipedia::WikipediaGraph;

/// Fault seeds the acceptance sweep runs over.
const FAULT_SEEDS: [u64; 3] = [0xBAD5EED, 0x5EED2, 42];

/// Everything a snapshot exposes, as id-free comparable data: candidate
/// rows (term, df, df_c, score bits), forest edges by label, and the
/// degraded-coverage provenance.
#[derive(Debug, Clone, PartialEq)]
struct View {
    rows: Vec<(String, u64, u64, String)>,
    edges: Vec<(String, String)>,
    degraded: Vec<(String, Vec<String>)>,
}

fn view(snap: &FacetSnapshot) -> View {
    View {
        rows: snap
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
            .collect(),
        edges: snap.forest().edges(),
        degraded: snap
            .degraded()
            .iter()
            .map(|(t, f)| (t.clone(), f.clone()))
            .collect(),
    }
}

fn options(threads: usize) -> PipelineOptions {
    PipelineOptions {
        top_k: 300,
        expansion: ExpansionOptions { threads },
        ..Default::default()
    }
}

fn bundle() -> DatasetBundle {
    let mut recipe = tiny_recipe(RecipeKind::Snyt);
    recipe.generator.n_docs = 120;
    DatasetBundle::build_with(recipe)
}

/// A fault plan over the WordNet resource: phase mode, `permille`/1000
/// of terms affected, schedule fixed by `seed`.
fn faulty_wordnet<'a>(
    wordnet: &'a facet_hierarchies::wordnet::WordNet,
    seed: u64,
    permille: u16,
) -> FaultyResource<WordNetHypernymsResource<'a>> {
    FaultyResource::new(
        WordNetHypernymsResource::new(wordnet),
        FaultPlan::seeded(seed, permille),
        VirtualClock::new(),
    )
}

/// Build a 1-shard index over the bundle's corpus with the given
/// resources; returns (view, index is dropped).
fn build_index(b: &DatasetBundle, resources: Vec<&dyn ContextResource>, threads: usize) -> View {
    let tagger = NerTagger::from_world(&b.world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let docs = b.corpus.db.docs().to_vec();
    let index = ShardedFacetIndex::build(docs, 1, extractors, resources, options(threads)).unwrap();
    view(&index.snapshot())
}

#[test]
fn same_fault_seed_is_byte_identical_across_threads_shards_and_runs() {
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
    let tagger = NerTagger::from_world(&b.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = b.corpus.db.docs().to_vec();

    for seed in FAULT_SEEDS {
        let mut reference: Option<View> = None;
        // One shard across thread counts (twice at threads=1 to catch
        // run-to-run nondeterminism), then shard × thread grids: one
        // degraded view per seed, everywhere.
        for threads in [1, 1, 4] {
            let wiki = WikiGraphResource::new(&graph);
            let wn = faulty_wordnet(&b.wordnet, seed, 400);
            let extractors: Vec<&dyn TermExtractor> = vec![&ne];
            let index = ShardedFacetIndex::build(
                docs.clone(),
                1,
                extractors,
                vec![&wiki, &wn],
                options(threads),
            )
            .unwrap();
            let v = view(&index.snapshot());
            match &reference {
                None => reference = Some(v),
                Some(r) => assert_eq!(&v, r, "seed {seed:#x} threads {threads}"),
            }
        }
        let reference = reference.unwrap();
        assert!(
            !reference.degraded.is_empty(),
            "seed {seed:#x} must degrade some term at 40%"
        );
        for (shards, threads) in [(1, 1), (2, 4), (3, 2), (4, 4)] {
            let wiki = WikiGraphResource::new(&graph);
            let wn = faulty_wordnet(&b.wordnet, seed, 400);
            let extractors: Vec<&dyn TermExtractor> = vec![&ne];
            let sharded = ShardedFacetIndex::build(
                docs.clone(),
                shards,
                extractors,
                vec![&wiki, &wn],
                options(threads),
            )
            .unwrap();
            assert_eq!(
                view(&sharded.snapshot()),
                reference,
                "seed {seed:#x}, {shards} shards, {threads} threads"
            );
        }
    }
}

#[test]
fn degraded_provenance_is_accurate_per_seed() {
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
    for seed in FAULT_SEEDS {
        let wiki = WikiGraphResource::new(&graph);
        let wn = faulty_wordnet(&b.wordnet, seed, 400);
        let v = build_index(&b, vec![&wiki, &wn], 4);
        // Every degraded entry names exactly the faulted resource, and
        // the degraded set is exactly the plan's affected terms: the
        // provenance is a faithful record of what was injected.
        let probe = faulty_wordnet(&b.wordnet, seed, 400);
        for (term, failed) in &v.degraded {
            assert_eq!(failed, &vec!["WordNet Hypernyms".to_string()], "{term}");
            assert!(probe.is_affected(term), "{term} recorded but not scheduled");
        }
    }
}

#[test]
fn degraded_build_equals_clean_build_over_surviving_resources() {
    // With the WordNet resource failing on *every* term, the degraded
    // build must produce exactly the facets of a build that never had
    // the resource at all — graceful degradation, not corruption.
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);

    let wiki = WikiGraphResource::new(&graph);
    let surviving_only = build_index(&b, vec![&wiki], 4);

    let wiki = WikiGraphResource::new(&graph);
    let wn = faulty_wordnet(&b.wordnet, FAULT_SEEDS[0], 1000);
    let degraded = build_index(&b, vec![&wiki, &wn], 4);

    assert_eq!(degraded.rows, surviving_only.rows);
    assert_eq!(degraded.edges, surviving_only.edges);
    assert!(surviving_only.degraded.is_empty());
    assert!(!degraded.degraded.is_empty());
}

#[test]
fn repair_converges_byte_identical_for_both_index_kinds() {
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
    let tagger = NerTagger::from_world(&b.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = b.corpus.db.docs().to_vec();

    // The never-failed reference build.
    let wiki = WikiGraphResource::new(&graph);
    let wn = WordNetHypernymsResource::new(&b.wordnet);
    let clean = build_index(&b, vec![&wiki, &wn], 4);
    assert!(clean.degraded.is_empty());

    for seed in FAULT_SEEDS {
        // One shard, across thread counts.
        for threads in [1, 4] {
            let wiki = WikiGraphResource::new(&graph);
            let wn = faulty_wordnet(&b.wordnet, seed, 400);
            let extractors: Vec<&dyn TermExtractor> = vec![&ne];
            let mut index = ShardedFacetIndex::build(
                docs.clone(),
                1,
                extractors,
                vec![&wiki, &wn],
                options(threads),
            )
            .unwrap();
            let degraded_count = index.snapshot().degraded().len();
            assert!(degraded_count > 0);

            wn.heal();
            let stats = index.repair().unwrap();
            assert_eq!(stats.requeried_terms, degraded_count, "seed {seed:#x}");
            assert_eq!(stats.repaired_terms, degraded_count);
            assert_eq!(stats.still_degraded, 0);
            assert_eq!(
                view(&index.snapshot()),
                clean,
                "seed {seed:#x}, threads {threads}: repaired != never-failed"
            );
            // Converged: a second pass re-queries nothing.
            let again = index.repair().unwrap();
            assert_eq!(again.requeried_terms, 0);
        }
        // Shard × thread counts.
        for (shards, threads) in [(1, 1), (2, 4), (3, 2), (4, 4)] {
            let wiki = WikiGraphResource::new(&graph);
            let wn = faulty_wordnet(&b.wordnet, seed, 400);
            let extractors: Vec<&dyn TermExtractor> = vec![&ne];
            let mut sharded = ShardedFacetIndex::build(
                docs.clone(),
                shards,
                extractors,
                vec![&wiki, &wn],
                options(threads),
            )
            .unwrap();
            assert!(!sharded.snapshot().is_fully_covered());

            wn.heal();
            let stats = sharded.repair().unwrap();
            assert_eq!(stats.still_degraded, 0);
            assert_eq!(
                view(&sharded.snapshot()),
                clean,
                "seed {seed:#x}, {shards} shards, {threads} threads: repaired != never-failed"
            );
            let again = sharded.repair().unwrap();
            assert_eq!(again.requeried_terms, 0);
        }
    }
}

#[test]
fn resilient_policy_layer_composes_with_the_index() {
    // The full production stack: FaultyResource (the failing backend)
    // behind ResilientResource (retry + breaker). Phase-mode faults defeat
    // retries, the breaker opens during the build (single-threaded so the
    // shed set is deterministic), coverage degrades — and once the
    // backend heals and the cooldown elapses, repair() converges to the
    // clean build.
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
    let tagger = NerTagger::from_world(&b.world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let docs = b.corpus.db.docs().to_vec();

    let wiki = WikiGraphResource::new(&graph);
    let wn = WordNetHypernymsResource::new(&b.wordnet);
    let clean = build_index(&b, vec![&wiki, &wn], 1);

    let clock = VirtualClock::new();
    let wiki = WikiGraphResource::new(&graph);
    let faulty = FaultyResource::new(
        WordNetHypernymsResource::new(&b.wordnet),
        FaultPlan::seeded(FAULT_SEEDS[1], 1000),
        clock.clone(),
    );
    let resilient = ResilientResource::new(faulty, clock.clone())
        .with_retry(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        })
        .with_breaker(BreakerConfig {
            failure_threshold: 3,
            cooldown_us: 10_000,
            half_open_probes: 1,
        });
    let mut index =
        ShardedFacetIndex::build(docs, 1, extractors, vec![&wiki, &resilient], options(1)).unwrap();
    let snap = index.snapshot();
    assert!(!snap.is_fully_covered());
    // Provenance names the real resource even through two wrappers.
    for failed in snap.degraded().values() {
        assert_eq!(failed, &vec!["WordNet Hypernyms".to_string()]);
    }

    // Backend recovers; wait out the breaker cooldown and repair.
    resilient.inner().heal();
    clock.advance_us(10_000);
    let stats = index.repair().unwrap();
    assert_eq!(stats.still_degraded, 0);
    assert_eq!(view(&index.snapshot()), clean);
}

#[test]
fn fault_free_resilience_is_transparent() {
    // A zero-failure plan with zero simulated latency behind the policy
    // layer, around the Wikipedia graph (the resource that shapes this
    // corpus's facets): the wrapped build must equal the raw-resource
    // build, with no retry, shed or failure counted and no backoff
    // taken on the shared virtual clock.
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);

    let wiki = WikiGraphResource::new(&graph);
    let wn = WordNetHypernymsResource::new(&b.wordnet);
    let raw = build_index(&b, vec![&wiki, &wn], 4);

    let clock = VirtualClock::new();
    let recorder = Recorder::enabled();
    let plan = FaultPlan {
        latency_us: (0, 0),
        ..FaultPlan::seeded(FAULT_SEEDS[0], 0)
    };
    let faulty = FaultyResource::new(WikiGraphResource::new(&graph), plan, clock.clone());
    let resilient = ResilientResource::new(faulty, clock.clone()).with_recorder(&recorder);
    let wn = WordNetHypernymsResource::new(&b.wordnet);
    let wrapped = build_index(&b, vec![&resilient, &wn], 4);

    assert_eq!(
        wrapped, raw,
        "the policy-wrapped build diverged from the raw build"
    );
    let counts = recorder.snapshot_counts_only();
    for counter in ["retries", "shed", "failures"] {
        let name = format!("counter.resilient.Wikipedia Graph.{counter}");
        assert_eq!(counts.get(&name), Some(&0), "{name}");
    }
    assert_eq!(clock.now_us(), 0, "a fault-free build must take no backoff");
}
