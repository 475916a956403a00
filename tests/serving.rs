//! Serving-tier acceptance: the query-signature cache must serve
//! byte-identical answers to fresh fan-out re-selection, and every
//! publication (append or repair) must invalidate stale generations —
//! a reader can never see a cached answer from a snapshot that is no
//! longer published (DESIGN.md section 17).

use facet_hierarchies::core::{fanout_browse, FacetServer, PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::RecipeKind;
use facet_hierarchies::eval::harness::{tiny_recipe, DatasetBundle};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{
    ContextResource, ExpansionOptions, FaultPlan, FaultyResource, VirtualClock, WikiGraphResource,
    WordNetHypernymsResource,
};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor};
use facet_hierarchies::wikipedia::WikipediaGraph;
use std::sync::Arc;

fn options() -> PipelineOptions {
    PipelineOptions {
        top_k: 300,
        expansion: ExpansionOptions { threads: 1 },
        ..Default::default()
    }
}

fn bundle() -> DatasetBundle {
    let mut recipe = tiny_recipe(RecipeKind::Snyt);
    recipe.generator.n_docs = 120;
    DatasetBundle::build_with(recipe)
}

/// The first few facet-root labels of the served forest — the queries a
/// faceted UI issues first.
fn root_queries(server: &FacetServer<'_>, n: usize) -> Vec<String> {
    let snapshot = server.snapshot();
    let forest = snapshot.merged().forest();
    forest
        .trees
        .iter()
        .take(n)
        .map(|t| forest.label(&t.root).to_string())
        .collect()
}

#[test]
fn cached_browse_is_byte_identical_to_uncached_across_appends() {
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
    let res = WikiGraphResource::new(&graph);
    let tagger = NerTagger::from_world(&b.world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&res];
    let docs = b.corpus.db.docs().to_vec();
    let (initial, late) = docs.split_at(docs.len() - docs.len() / 4);

    let mut index = ShardedFacetIndex::new(3, extractors, resources, options());
    index.append(initial.to_vec()).unwrap();
    let mut server = FacetServer::new(index);
    let handle = server.handle();

    // At every generation: the cached answer must render byte-identical
    // to a fresh fan-out over the published snapshot, for single-term
    // and multi-term queries alike.
    for round in 0..2 {
        let queries = root_queries(&server, 4);
        assert!(!queries.is_empty(), "forest must have roots");
        let pair: Vec<&str> = queries.iter().take(2).map(String::as_str).collect();
        let mut mixes: Vec<Vec<&str>> = queries.iter().map(|q| vec![q.as_str()]).collect();
        mixes.push(pair);
        for query in &mixes {
            let cached = handle.browse(query);
            let fresh = fanout_browse(&handle.snapshot(), query);
            assert_eq!(
                cached.canonical(),
                fresh.canonical(),
                "round {round}: cached diverged from uncached for {query:?}"
            );
            // A repeat at the same generation is served from the cache
            // (same Arc), still byte-identical.
            let again = handle.browse(query);
            assert!(Arc::ptr_eq(&cached, &again), "round {round}: repeat missed");
        }
        if round == 0 {
            server.append(late.to_vec()).unwrap();
        }
    }
}

#[test]
fn append_generation_bump_invalidates_the_signature_cache() {
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
    let res = WikiGraphResource::new(&graph);
    let tagger = NerTagger::from_world(&b.world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&res];
    let docs = b.corpus.db.docs().to_vec();
    let (initial, late) = docs.split_at(docs.len() - docs.len() / 4);

    let mut index = ShardedFacetIndex::new(2, extractors, resources, options());
    index.append(initial.to_vec()).unwrap();
    let mut server = FacetServer::new(index);
    let handle = server.handle();

    let queries = root_queries(&server, 3);
    let before_gen = handle.generation();
    let cached: Vec<_> = queries
        .iter()
        .map(|q| handle.browse(&[q.as_str()]))
        .collect();
    let populated = handle.cache_stats();
    assert_eq!(populated.len as usize, queries.len());
    assert_eq!(populated.invalidations, 0);

    server.append(late.to_vec()).unwrap();
    assert_eq!(handle.generation(), before_gen + 1);

    // Every pre-append entry is gone; the same queries re-select and
    // come back under the new generation as NEW results.
    let invalidated = handle.cache_stats();
    assert_eq!(invalidated.len, 0, "append must prune stale generations");
    assert_eq!(invalidated.invalidations, populated.len as u64);
    for (q, old) in queries.iter().zip(&cached) {
        let fresh = handle.browse(&[q.as_str()]);
        assert_eq!(fresh.generation, before_gen + 1);
        assert!(
            !Arc::ptr_eq(old, &fresh),
            "post-append browse must not reuse a stale cached result"
        );
    }
    let after = handle.cache_stats();
    assert_eq!(
        after.misses,
        populated.misses + queries.len() as u64,
        "post-append browses must all re-select"
    );
}

#[test]
fn repair_generation_bump_invalidates_but_converged_repair_keeps_cache() {
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
    let wiki = WikiGraphResource::new(&graph);
    let wn = FaultyResource::new(
        WordNetHypernymsResource::new(&b.wordnet),
        FaultPlan::seeded(0xBAD5EED, 400),
        VirtualClock::new(),
    );
    let tagger = NerTagger::from_world(&b.world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&wiki, &wn];
    let docs = b.corpus.db.docs().to_vec();

    let index = ShardedFacetIndex::build(docs, 2, extractors, resources, options()).unwrap();
    assert!(
        !index.snapshot().degraded().is_empty(),
        "fault seed must degrade some expansions"
    );
    let mut server = FacetServer::new(index);
    let handle = server.handle();

    let queries = root_queries(&server, 3);
    for q in &queries {
        handle.browse(&[q.as_str()]);
    }
    let populated = handle.cache_stats();
    let before_gen = handle.generation();

    // Backend heals; repair re-queries the degraded terms, republishes,
    // and the generation bump drops every cached entry.
    wn.heal();
    let stats = server.repair().unwrap();
    assert!(stats.requeried_terms > 0, "repair must re-query something");
    assert_eq!(handle.generation(), before_gen + 1);
    let invalidated = handle.cache_stats();
    assert_eq!(invalidated.len, 0, "repair must prune stale generations");
    assert_eq!(invalidated.invalidations, populated.len as u64);

    // Post-repair answers match fresh fan-out at the new generation.
    for q in &queries {
        let cached = handle.browse(&[q.as_str()]);
        let fresh = fanout_browse(&handle.snapshot(), &[q.as_str()]);
        assert_eq!(cached.canonical(), fresh.canonical());
        assert_eq!(cached.generation, before_gen + 1);
    }
    let repopulated = handle.cache_stats();
    assert_eq!(repopulated.len as usize, queries.len());

    // A converged repair re-queries nothing, publishes nothing, and
    // keeps the warm cache intact.
    let again = server.repair().unwrap();
    assert_eq!(again.requeried_terms, 0, "second repair must converge");
    assert_eq!(handle.generation(), before_gen + 1);
    let kept = handle.cache_stats();
    assert_eq!(
        kept.len, repopulated.len,
        "converged repair must keep cache"
    );
    for q in &queries {
        let hit = handle.browse(&[q.as_str()]);
        assert_eq!(hit.generation, before_gen + 1);
    }
    assert_eq!(
        handle.cache_stats().hits,
        kept.hits + queries.len() as u64,
        "post-convergence browses must all be cache hits"
    );
}
