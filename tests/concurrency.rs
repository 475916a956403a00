//! Snapshot-serving concurrency: readers hold `Arc<FacetSnapshot>` clones
//! while a writer appends and swaps in new generations. The contract
//! (crates/core/src/shard.rs) is that a handed-out snapshot is immutable —
//! appends never mutate it, they only publish a fresh `Arc` — so a serving
//! process answers from generation N while generation N+1 is being built.

#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use facet_hierarchies::core::{FacetSnapshot, PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::{Document, RecipeKind};
use facet_hierarchies::eval::harness::{tiny_recipe, DatasetBundle};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{ContextResource, WikiGraphResource};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor};
use facet_hierarchies::wikipedia::WikipediaGraph;

/// Comparable snapshot data: (generation, candidate rows, forest edges).
type Fingerprint = (u64, Vec<(String, u64, u64)>, Vec<(String, String)>);

/// Flatten a snapshot to comparable data.
fn fingerprint(snap: &FacetSnapshot) -> Fingerprint {
    let rows = snap
        .candidates()
        .iter()
        .map(|c| (snap.vocab().term(c.term).to_string(), c.df, c.df_c))
        .collect();
    (snap.generation(), rows, snap.forest().edges())
}

#[test]
fn readers_keep_generation_while_appends_publish_new_ones() {
    let bundle = DatasetBundle::build_with({
        let mut r = tiny_recipe(RecipeKind::Mnyt);
        r.generator.n_docs = 120;
        r
    });
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res];
    let docs: Vec<Document> = bundle.corpus.db.docs().to_vec();
    let batches: Vec<Vec<Document>> = docs.chunks(30).map(<[Document]>::to_vec).collect();
    assert!(batches.len() >= 3, "need several generations");

    let mut index = ShardedFacetIndex::new(
        1,
        extractors,
        resources,
        PipelineOptions {
            top_k: 200,
            ..Default::default()
        },
    );
    let mut batches = batches.into_iter();
    index.append(batches.next().unwrap()).unwrap();

    let held = index.snapshot();
    let before = fingerprint(&held);
    assert_eq!(before.0, 1, "first append publishes generation 1");

    // 4 readers hammer the held snapshot while the writer appends the
    // remaining batches. Any mutation of the published snapshot (or a
    // torn swap) shows up as a fingerprint change.
    const READERS: usize = 4;
    let start = Barrier::new(READERS + 1);
    let stop = AtomicBool::new(false);
    let remaining: Vec<Vec<Document>> = batches.collect();
    let appended = remaining.len() as u64;
    std::thread::scope(|s| {
        for _ in 0..READERS {
            let snap = held.clone();
            let before = &before;
            let start = &start;
            let stop = &stop;
            s.spawn(move || {
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(&fingerprint(&snap), before);
                }
            });
        }
        start.wait();
        for batch in remaining {
            index.append(batch).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(&fingerprint(&held), &before, "held snapshot untouched");
    let fresh = index.snapshot();
    assert_eq!(fresh.generation(), 1 + appended);
    assert!(
        !std::ptr::eq(held.as_ref(), fresh.as_ref()),
        "appends swap in a new allocation"
    );
}

#[test]
fn snapshot_reads_are_stable_between_appends() {
    let bundle = DatasetBundle::build_with({
        let mut r = tiny_recipe(RecipeKind::Mnyt);
        r.generator.n_docs = 60;
        r
    });
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res];
    let docs: Vec<Document> = bundle.corpus.db.docs().to_vec();

    let mut index = ShardedFacetIndex::new(1, extractors, resources, PipelineOptions::default());
    index.append(docs[..30].to_vec()).unwrap();

    // Without an intervening append, snapshot() hands out the same
    // published generation (same Arc — a clone, not a rebuild).
    let s1 = index.snapshot();
    let s2 = index.snapshot();
    assert!(std::ptr::eq(s1.as_ref(), s2.as_ref()));

    // An append publishes a distinct, newer generation; the earlier one
    // keeps serving its own data.
    index.append(docs[30..].to_vec()).unwrap();
    let s3 = index.snapshot();
    assert!(!std::ptr::eq(s1.as_ref(), s3.as_ref()));
    assert_eq!(s1.generation() + 1, s3.generation());
    assert_eq!(fingerprint(&s1), fingerprint(&s2));
}
