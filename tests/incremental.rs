//! Incremental-vs-batch equivalence: a growing archive indexed with
//! `ShardedFacetIndex::append` must produce exactly the facets a one-shot
//! build produces — the MNYT "month of news" scenario (Section V-A) where
//! the corpus arrives day by day. (tests/pipeline_oracle.rs checks both
//! against Steps 1–4 computed from the paper's formulas.)
//!
//! Term *ids* legitimately differ between the two paths (context terms
//! interleave with later batches' corpus terms), so every comparison here
//! is at the string level: facet terms in rank order with their
//! statistics, and forest edges by label.

use facet_hierarchies::core::{FacetSnapshot, PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::{DatasetRecipe, Document, RecipeKind};
use facet_hierarchies::eval::harness::{tiny_recipe, DatasetBundle};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::obs::Recorder;
use facet_hierarchies::resources::{ContextResource, WikiGraphResource};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor};
use facet_hierarchies::wikipedia::WikipediaGraph;

/// A candidate as bytes-comparable data: (term, df, df_c, score bits).
type Row = (String, u64, u64, String);

/// Everything a run produces, id-free.
#[derive(Debug, PartialEq)]
struct Outputs {
    rows: Vec<Row>,
    edges: Vec<(String, String)>,
}

fn snapshot_outputs(snap: &FacetSnapshot) -> Outputs {
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
    Outputs {
        rows,
        edges: snap.forest().edges(),
    }
}

/// A small MNYT-style recipe: one source, 30 days, shrunk to test size.
fn mnyt_recipe() -> DatasetRecipe {
    let mut r = tiny_recipe(RecipeKind::Mnyt);
    r.generator.n_docs = 240;
    r
}

fn options() -> PipelineOptions {
    PipelineOptions {
        top_k: 300,
        ..Default::default()
    }
}

/// Split into `n` contiguous batches (sizes as equal as possible).
fn batches(docs: &[Document], n: usize) -> Vec<Vec<Document>> {
    let per = docs.len().div_ceil(n);
    docs.chunks(per).map(<[Document]>::to_vec).collect()
}

/// Per-append resource-query counts alongside the final outputs.
struct IncrementalRun {
    outputs: Outputs,
    /// (new_distinct_terms, reused_terms, resource query delta,
    /// cumulative distinct terms) per append.
    appends: Vec<(usize, usize, u64, usize)>,
}

/// Run the two paths over the same corpus under `recorder`-style
/// instrumentation: a one-shot index build and `n_batches` incremental
/// appends.
fn run_all(enabled: bool, n_batches: usize) -> (Outputs, IncrementalRun) {
    let recorder = |on: bool| {
        if on {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    };
    let bundle = DatasetBundle::build_with(mnyt_recipe());
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res];
    let docs = bundle.corpus.db.docs().to_vec();

    // Path 1: one-shot index build.
    let mut one_shot = ShardedFacetIndex::new(1, extractors.clone(), resources.clone(), options())
        .with_recorder(recorder(enabled));
    one_shot.append(docs.clone()).unwrap();
    let one_shot_outputs = snapshot_outputs(&one_shot.snapshot());

    // Path 2: incremental appends.
    let inc_recorder = recorder(enabled);
    let mut index = ShardedFacetIndex::new(1, extractors, resources, options())
        .with_recorder(inc_recorder.clone());
    let mut appends = Vec::new();
    let mut last_queries = 0u64;
    for batch in batches(&docs, n_batches) {
        let stats = index.append(batch).expect("append batches are well-formed");
        let queries = if enabled {
            inc_recorder.snapshot_counts_only()["counter.resource.Wikipedia Graph.queries"]
        } else {
            0
        };
        appends.push((
            stats.new_distinct_terms,
            stats.reused_terms,
            queries - last_queries,
            index.resolved_terms(),
        ));
        last_queries = queries;
    }
    let incremental = IncrementalRun {
        outputs: snapshot_outputs(&index.snapshot()),
        appends,
    };

    (one_shot_outputs, incremental)
}

#[test]
fn incremental_appends_match_batch_build() {
    let (one_shot, incremental) = run_all(false, 4);
    assert!(
        !one_shot.rows.is_empty(),
        "the corpus must yield facet terms"
    );
    assert_eq!(
        one_shot, incremental.outputs,
        "four appends must match the one-shot build"
    );
}

#[test]
fn equivalence_holds_under_recorder() {
    // Instrumentation must be observation-only, and the equivalence must
    // hold with counters/spans live on every path.
    let (one_shot, incremental) = run_all(true, 4);
    assert_eq!(one_shot, incremental.outputs);
    let (plain_one_shot, plain_incremental) = run_all(false, 4);
    assert_eq!(one_shot, plain_one_shot);
    assert_eq!(incremental.outputs, plain_incremental.outputs);
}

#[test]
fn batch_partition_does_not_matter() {
    let (_, four) = run_all(false, 4);
    let (_, six) = run_all(false, 6);
    assert_eq!(four.outputs, six.outputs);
}

#[test]
fn appends_query_resources_strictly_less_than_rebuild() {
    let (_, incremental) = run_all(true, 4);
    assert_eq!(incremental.appends.len(), 4);
    for (i, &(new_distinct, reused, query_delta, cumulative)) in
        incremental.appends.iter().enumerate()
    {
        // The expansion layer queries each resource once per
        // newly-distinct important term.
        assert_eq!(
            query_delta, new_distinct as u64,
            "append {i}: queries must track new-distinct terms"
        );
        if i > 0 {
            // A full rebuild at this point would resolve every distinct
            // important term seen so far; the append must do strictly
            // less work.
            assert!(
                query_delta < cumulative as u64,
                "append {i}: {query_delta} queries vs {cumulative} for a rebuild"
            );
            assert!(
                reused > 0,
                "append {i}: a month of news shares entities across days"
            );
        }
    }
}
