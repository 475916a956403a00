//! Quickstart: extract facet hierarchies from a (synthetic) news archive
//! in a dozen lines of code.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The pipeline is the paper's: identify important terms per document,
//! expand them with context from external resources, select the terms
//! whose document frequency and rank both improve, and organize the
//! selected terms into browsable hierarchies.

use facet_hierarchies::core::{PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::{DatasetRecipe, RecipeKind};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{ContextResource, WikiGraphResource, WordNetHypernymsResource};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor, YahooTermExtractor};
use facet_hierarchies::textkit::Vocabulary;
use facet_hierarchies::wikipedia::{build_wikipedia, WikipediaConfig, WikipediaGraph};
use facet_hierarchies::wordnet::build_wordnet;

fn main() {
    // 1. A corpus. Here: a scaled-down single day of synthetic news.
    //    (With real data you would construct `Document`s from your own
    //    text and build a `TextDatabase` directly.)
    let recipe = DatasetRecipe::scaled(RecipeKind::Snyt, 0.3);
    let world = recipe.build_world();
    let mut vocab = Vocabulary::new();
    let corpus = recipe.build_corpus(&world, &mut vocab);
    println!("corpus: {} documents", corpus.db.len());

    // 2. External resources (all local in this reproduction).
    let wiki = build_wikipedia(&world, &WikipediaConfig::default());
    let wordnet = build_wordnet(&world);
    let graph = WikipediaGraph::new(&wiki.wiki, &wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    let wn_res = WordNetHypernymsResource::new(&wordnet);

    // 3. Important-term extractors.
    let tagger = NerTagger::from_world(&world);
    let ne = NamedEntityExtractor::new(tagger);
    let yahoo = YahooTermExtractor::fit(&corpus.db, &vocab);

    // 4. Run the pipeline: the index runs Steps 1–4 over the
    //    corpus and publishes the result as a snapshot.
    let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
    let index = ShardedFacetIndex::build(
        corpus.db.docs().to_vec(),
        1,
        extractors,
        resources,
        PipelineOptions {
            top_k: 400,
            ..Default::default()
        },
    )
    .expect("a fresh index accepts any batch");
    let snapshot = index.snapshot();
    println!(
        "selected {} candidate facet terms",
        snapshot.candidates().len()
    );
    println!("top 15 by log-likelihood:");
    for c in snapshot.candidates().iter().take(15) {
        println!(
            "  {:<28} df={:<4} df_C={:<5} -logλ={:.1}",
            snapshot.vocab().term(c.term),
            c.df,
            c.df_c,
            c.score
        );
    }

    // 5. The hierarchies: show the top facets.
    let forest = snapshot.forest();
    println!("\nfacet hierarchy (top 3 facets, 5 children each):");
    for tree in forest.trees.iter().take(3) {
        let mini =
            facet_hierarchies::core::FacetForest::new(vec![tree.clone()], forest.vocab().clone());
        print!("{}", mini.render(5));
    }
}
