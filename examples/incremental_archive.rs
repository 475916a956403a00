//! A growing news archive: index a month of news day by day with
//! `ShardedFacetIndex::append` instead of rebuilding the pipeline every
//! day.
//!
//! ```sh
//! cargo run --release --example incremental_archive
//! ```
//!
//! This is the paper's MNYT scenario (one month of The New York Times)
//! under realistic operation: each day's stories arrive, the index
//! ingests only the new documents, resolves only the important terms it
//! has never seen before, and atomically publishes a fresh snapshot.
//! Readers browse whatever snapshot they hold — appends never block or
//! invalidate them.

use facet_hierarchies::core::{PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::{DatasetRecipe, Document, RecipeKind};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{ContextResource, WikiGraphResource};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor};
use facet_hierarchies::textkit::Vocabulary;
use facet_hierarchies::wikipedia::{build_wikipedia, WikipediaConfig, WikipediaGraph};

fn main() {
    // A scaled-down month of synthetic news (30 days, one source).
    let recipe = DatasetRecipe::scaled(RecipeKind::Mnyt, 0.02);
    let world = recipe.build_world();
    let mut vocab = Vocabulary::new();
    let corpus = recipe.build_corpus(&world, &mut vocab);
    let n_days = corpus.db.docs().iter().map(|d| d.day).max().unwrap_or(0) + 1;
    println!(
        "archive: {} stories across {} days\n",
        corpus.db.len(),
        n_days
    );

    // Resources and extractors, as in the quickstart.
    let wiki = build_wikipedia(&world, &WikipediaConfig::default());
    let graph = WikipediaGraph::new(&wiki.wiki, &wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    let tagger = NerTagger::from_world(&world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res];

    // One persistent index for the whole month.
    let mut index = ShardedFacetIndex::new(
        1,
        extractors,
        resources,
        PipelineOptions {
            top_k: 400,
            ..Default::default()
        },
    );

    println!(
        "{:>4} {:>6} {:>10} {:>8} {:>8} {:>7}",
        "day", "docs", "new terms", "reused", "queries", "facets"
    );
    for day in 0..n_days {
        let batch: Vec<Document> = corpus
            .db
            .docs()
            .iter()
            .filter(|d| d.day == day)
            .cloned()
            .collect();
        if batch.is_empty() {
            continue;
        }
        let stats = index.append(batch).expect("day batches are well-formed");
        let snapshot = index.snapshot();
        println!(
            "{:>4} {:>6} {:>10} {:>8} {:>8} {:>7}",
            day + 1,
            stats.docs,
            stats.new_distinct_terms,
            stats.reused_terms,
            stats.resource_queries,
            snapshot.candidates().len()
        );
    }

    // Browse the final snapshot: frozen, lock-free, shareable.
    let snapshot = index.snapshot();
    println!(
        "\nfinal snapshot: generation {}, {} documents, {} facet terms",
        snapshot.generation(),
        snapshot.n_docs(),
        snapshot.candidates().len()
    );
    let engine = snapshot.browse();
    println!("top facets with refinement counts:");
    for (_, label, count) in engine.refinements(&[], None).into_iter().take(8) {
        println!("  {label:<30} ({count})");
    }
}
