//! Oracle for the index's incremental subsumption.
//!
//! A publish advances one co-document count table by the new documents
//! and the terms that enter the top k instead of recounting the corpus.
//! After every append, repair, and reopen, the published forest must
//! therefore equal `build_subsumption_forest` run afresh over the
//! snapshot's own document rows and candidate order. A small `top_k`
//! makes the candidate set churn on most appends, so entering, leaving,
//! and re-entering terms (and slot reuse) are all exercised.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use facet_hierarchies::core::{
    build_subsumption_forest, FacetSnapshot, PipelineOptions, ShardedFacetIndex, SubsumptionParams,
    TreeNode,
};
use facet_hierarchies::corpus::{Document, RecipeKind};
use facet_hierarchies::eval::harness::{tiny_recipe, DatasetBundle};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{
    ContextResource, FaultPlan, FaultyResource, VirtualClock, WikiGraphResource,
    WordNetHypernymsResource,
};
use facet_hierarchies::store::FacetStore;
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor};
use facet_hierarchies::textkit::TermId;
use facet_hierarchies::wikipedia::WikipediaGraph;
use proptest::prelude::*;

fn bundle() -> &'static DatasetBundle {
    static BUNDLE: OnceLock<DatasetBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let mut recipe = tiny_recipe(RecipeKind::Snyt);
        recipe.generator.n_docs = 120;
        DatasetBundle::build_with(recipe)
    })
}

fn options(top_k: usize) -> PipelineOptions {
    PipelineOptions {
        top_k,
        ..Default::default()
    }
}

/// Wall-clock-free unique test directory (pid + process-local counter).
fn test_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "facet-subsumption-delta-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Cut `docs` into consecutive batches whose sizes cycle through `sizes`.
fn split(docs: &[Document], sizes: &[usize]) -> Vec<Vec<Document>> {
    let mut out = Vec::new();
    let mut rest = docs;
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(size.min(rest.len()));
        out.push(head.to_vec());
        rest = tail;
    }
    out
}

/// Every candidate term with its parent, read off the published forest.
fn published_parents(snap: &FacetSnapshot) -> BTreeMap<TermId, Option<TermId>> {
    fn walk(node: &TreeNode, parent: Option<TermId>, out: &mut BTreeMap<TermId, Option<TermId>>) {
        assert!(
            out.insert(node.term, parent).is_none(),
            "term twice in forest"
        );
        for child in &node.children {
            walk(child, Some(node.term), out);
        }
    }
    let mut out = BTreeMap::new();
    for tree in &snap.forest().trees {
        walk(&tree.root, None, &mut out);
    }
    out
}

/// The published forest's parents must equal a fresh build over
/// the snapshot's rows, in the snapshot's candidate order.
fn assert_matches_fresh_build(snap: &FacetSnapshot, what: &str) {
    let terms: Vec<TermId> = snap.candidates().iter().map(|c| c.term).collect();
    let fresh = build_subsumption_forest(
        &terms,
        snap.doc_terms(),
        SubsumptionParams {
            threshold: PipelineOptions::default().subsumption_threshold,
            ..Default::default()
        },
    );
    let expected: BTreeMap<TermId, Option<TermId>> = fresh
        .parent
        .iter()
        .enumerate()
        .map(|(i, p)| (terms[i], p.map(|p| terms[p])))
        .collect();
    assert_eq!(
        published_parents(snap),
        expected,
        "{what}: generation {} forest != fresh build",
        snap.generation()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random shard counts, batch splits, and small `top_k`.
    #[test]
    fn delta_forest_matches_fresh_build_after_every_append(
        shards in 1usize..=3,
        top_k in 3usize..=12,
        sizes in proptest::collection::vec(1usize..=24, 1..=6),
    ) {
        let b = bundle();
        let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
        let wiki = WikiGraphResource::new(&graph);
        let wn = WordNetHypernymsResource::new(&b.wordnet);
        let ne = NamedEntityExtractor::new(NerTagger::from_world(&b.world));
        let extractors: Vec<&dyn TermExtractor> = vec![&ne];
        let resources: Vec<&dyn ContextResource> = vec![&wiki, &wn];
        let mut index = ShardedFacetIndex::new(shards, extractors, resources, options(top_k));
        let mut changed = 0;
        let mut last: Vec<TermId> = Vec::new();
        for batch in split(b.corpus.db.docs(), &sizes) {
            index.append(batch).expect("append");
            let snap = index.snapshot();
            let terms: Vec<TermId> = snap.candidates().iter().map(|c| c.term).collect();
            changed += usize::from(terms != last);
            last = terms;
            assert_matches_fresh_build(&snap, &format!("{shards} shards, top_k {top_k}"));
        }
        prop_assert!(changed > 1, "the candidate set must churn");
    }

    /// A store round trip mid-stream: the reopened index (restored
    /// snapshot plus WAL replay) keeps matching as appends continue.
    #[test]
    fn delta_forest_matches_fresh_build_across_persist_and_reopen(
        shards in 1usize..=3,
        top_k in 3usize..=12,
        sizes in proptest::collection::vec(4usize..=20, 1..=4),
    ) {
        let b = bundle();
        let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
        let wiki = WikiGraphResource::new(&graph);
        let ne = NamedEntityExtractor::new(NerTagger::from_world(&b.world));
        let batches = split(b.corpus.db.docs(), &sizes);
        let half = batches.len() / 2;
        let dir = test_dir(&format!("{shards}-{top_k}"));
        {
            let store = FacetStore::open(&dir).expect("open store");
            let mut live = ShardedFacetIndex::new(shards, vec![&ne], vec![&wiki], options(top_k));
            for (i, batch) in batches[..half].iter().enumerate() {
                live.append_logged(batch.clone(), &store).expect("append_logged");
                if i == half / 2 {
                    live.persist_to(&store).expect("persist_to");
                }
                assert_matches_fresh_build(&live.snapshot(), "before reopen");
            }
        }
        let store = FacetStore::open(&dir).expect("reopen store");
        let (mut index, _) =
            ShardedFacetIndex::open_from(&store, shards, vec![&ne], vec![&wiki], options(top_k))
                .expect("open_from");
        assert_matches_fresh_build(&index.snapshot(), "reopened");
        for batch in &batches[half..] {
            index.append_logged(batch.clone(), &store).expect("append_logged");
            assert_matches_fresh_build(&index.snapshot(), "after reopen");
        }
        prop_assert_eq!(index.len(), b.corpus.db.docs().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A seeded fault plan degrades the Wikipedia graph, the main context
    /// source, mid-stream. The repair changes the rows of every document
    /// that uses a re-resolved term, so it must recount; appends after it
    /// keep matching.
    #[test]
    fn delta_forest_matches_fresh_build_across_repair(
        shards in 1usize..=3,
        top_k in 3usize..=12,
        seed in 0u64..1_000,
        sizes in proptest::collection::vec(4usize..=20, 1..=4),
    ) {
        let b = bundle();
        let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
        let wiki = FaultyResource::new(
            WikiGraphResource::new(&graph),
            FaultPlan::seeded(seed, 400),
            VirtualClock::new(),
        );
        let wn = WordNetHypernymsResource::new(&b.wordnet);
        let ne = NamedEntityExtractor::new(NerTagger::from_world(&b.world));
        let mut index =
            ShardedFacetIndex::new(shards, vec![&ne], vec![&wiki, &wn], options(top_k));
        let batches = split(b.corpus.db.docs(), &sizes);
        let half = batches.len() / 2;
        for batch in &batches[..half] {
            index.append(batch.clone()).expect("append");
            assert_matches_fresh_build(&index.snapshot(), "degraded");
        }
        wiki.heal();
        let stats = index.repair().expect("repair");
        prop_assert!(stats.changed_docs > 0, "the repair must change rows");
        assert_matches_fresh_build(&index.snapshot(), "repaired");
        for batch in &batches[half..] {
            index.append(batch.clone()).expect("append");
            assert_matches_fresh_build(&index.snapshot(), "after repair");
        }
        prop_assert!(index.snapshot().is_fully_covered());
    }
}
