//! Integration tests for the faceted browsing engine and the user-study
//! simulation over a real (small) index build.

use facet_hierarchies::core::{FacetSnapshot, PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::RecipeKind;
use facet_hierarchies::eval::harness::{tiny_recipe, DatasetBundle};
use facet_hierarchies::eval::userstudy::{run_user_study, UserStudyConfig};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::obs::Recorder;
use facet_hierarchies::resources::{ContextResource, WikiGraphResource};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor};
use facet_hierarchies::wikipedia::WikipediaGraph;
use std::sync::Arc;

fn snapshot() -> (Arc<FacetSnapshot>, usize) {
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
            ..Default::default()
        },
    )
    .unwrap();
    (index.snapshot(), bundle.corpus.db.len())
}

#[test]
fn selection_narrows_monotonically() {
    let (snapshot, n_docs) = snapshot();
    let engine = snapshot.browse();
    let top = engine.refinements(&[], None);
    assert!(!top.is_empty(), "browse engine must expose facets");
    let mut selection = Vec::new();
    let mut last = n_docs;
    for (term, _, count) in top.iter().take(3) {
        selection.push(*term);
        let docs = engine.select(&selection);
        assert!(
            docs.len() <= last,
            "selection must narrow: {} > {last}",
            docs.len()
        );
        assert!(docs.len() <= *count || selection.len() > 1);
        last = docs.len();
    }
}

#[test]
fn refinement_counts_match_actual_selection() {
    let (snapshot, _) = snapshot();
    let engine = snapshot.browse();
    let top = engine.refinements(&[], None);
    for (term, _, count) in top.iter().take(5) {
        let docs = engine.select(&[*term]);
        assert_eq!(
            docs.len(),
            *count,
            "refinement count must equal selection size"
        );
    }
}

#[test]
fn user_study_reproduces_section_v_e_shape() {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
    let stats = run_user_study(
        &bundle,
        &UserStudyConfig::default(),
        Recorder::disabled_ref(),
    );
    assert_eq!(stats.len(), 5);
    let first = &stats[0];
    let last = &stats[4];
    // Keyword use declines (paper: up to 50% by the last session).
    assert!(last.keyword_queries < first.keyword_queries);
    // Task time declines (paper: ~25%).
    assert!(last.time_seconds < first.time_seconds);
    // Satisfaction flat around 2.5/3.
    for s in &stats {
        assert!(
            s.satisfaction > 1.6 && s.satisfaction <= 3.0,
            "satisfaction {s:?}"
        );
    }
}
