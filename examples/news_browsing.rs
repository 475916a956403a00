//! Faceted browsing over a news archive: the paper's motivating scenario
//! (Section I — exploring The New York Times archive by topic, location,
//! people, and more) driven end to end.
//!
//! ```sh
//! cargo run --release --example news_browsing
//! ```
//!
//! Builds the full pipeline, materializes the OLAP-style browse engine,
//! and walks a drill-down: start broad, narrow by two facet terms, and
//! show the refinement counts a faceted UI would render at each step.

use facet_hierarchies::core::{PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::{DatasetRecipe, RecipeKind};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{ContextResource, WikiGraphResource};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor, WikipediaTitleExtractor};
use facet_hierarchies::textkit::Vocabulary;
use facet_hierarchies::wikipedia::{build_wikipedia, TitleIndex, WikipediaConfig, WikipediaGraph};

fn main() {
    let recipe = DatasetRecipe::scaled(RecipeKind::Snyt, 0.5);
    let world = recipe.build_world();
    let mut vocab = Vocabulary::new();
    let corpus = recipe.build_corpus(&world, &mut vocab);

    let wiki = build_wikipedia(&world, &WikipediaConfig::default());
    let graph = WikipediaGraph::new(&wiki.wiki, &wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    let tagger = NerTagger::from_world(&world);
    let ne = NamedEntityExtractor::new(tagger);
    let title_index = TitleIndex::build(&wiki.wiki, &wiki.redirects);
    let wiki_x = WikipediaTitleExtractor::new(&wiki.wiki, title_index);

    let extractors: Vec<&dyn TermExtractor> = vec![&ne, &wiki_x];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res];
    let index = ShardedFacetIndex::build(
        corpus.db.docs().to_vec(),
        1,
        extractors,
        resources,
        PipelineOptions {
            top_k: 600,
            ..Default::default()
        },
    )
    .expect("a fresh index accepts any batch");
    let snapshot = index.snapshot();
    let engine = snapshot.browse();

    println!("archive: {} stories, {} facet terms\n", engine.n_docs(), {
        engine.forest().total_terms()
    });

    // Step 1: the top-level facets with their counts.
    println!("top-level facets:");
    let top = engine.refinements(&[], None);
    for (_, label, count) in top.iter().take(8) {
        println!("  {label:<28} ({count})");
    }

    // Step 2: drill into the largest facet.
    let Some((first_term, first_label, first_count)) = top.first().cloned() else {
        println!("no facets extracted");
        return;
    };
    println!("\nselect \"{first_label}\" → {first_count} stories");
    let node = engine.forest().find(&first_label).cloned();
    let refinements = engine.refinements(&[first_term], node.as_ref());
    println!("refinements under \"{first_label}\":");
    for (_, label, count) in refinements.iter().take(6) {
        println!("  {label:<28} ({count})");
    }

    // Step 3: dice with a second facet from a different tree.
    if let Some((second_term, second_label, _)) = top.get(1).cloned() {
        let slice = engine.select(&[first_term, second_term]);
        println!(
            "\nslice: \"{first_label}\" ∧ \"{second_label}\" → {} stories",
            slice.len()
        );
        for doc in slice.iter().take(3) {
            println!("  · {}", corpus.db.doc(*doc).title);
        }
    }
}
