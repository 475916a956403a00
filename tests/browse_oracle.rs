//! Browse oracle: every served browse must equal a naive row scan.
//!
//! The reference below is the serving tier's row scan from before browse
//! moved onto facet-term postings: each document row of the snapshot is
//! tested for every selected term and every refinement candidate by
//! binary search, and the per-candidate counts are sorted at the end.
//! Unlike that scan it only lets facet terms (forest labels) select, the
//! rule the browse engine applies. Nothing in the library calls it.
//!
//! Three checks:
//!
//! 1. a pinned FNV digest over every single-label and every two-root
//!    answer of a fixed build, computed with the reference;
//! 2. a seeded property sweep over shard counts, append splits, and one
//!    repair after a seeded fault plan, with queries mixing forest
//!    labels, a vocabulary term that is not a facet term, and an unknown
//!    string, checked through `fanout_browse` and `ServeHandle::browse`;
//! 3. a hostile-query sweep: empty, blank, control-character, 64 KiB,
//!    10,000-label, and mixed-case duplicate queries;
//! 4. a snapshot restored from a store browses like the live one.

use std::sync::OnceLock;

use facet_hierarchies::core::{
    fanout_browse, BrowseResult, FacetServer, FacetSnapshot, PipelineOptions, ServeHandle,
    ShardedFacetIndex, TreeNode,
};
use facet_hierarchies::corpus::{Document, RecipeKind};
use facet_hierarchies::eval::harness::{tiny_recipe, DatasetBundle};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{
    ContextResource, ExpansionOptions, FaultPlan, FaultyResource, VirtualClock, WikiGraphResource,
    WordNetHypernymsResource,
};
use facet_hierarchies::store::FacetStore;
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor};
use facet_hierarchies::textkit::TermId;
use facet_hierarchies::wikipedia::WikipediaGraph;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// FNV-1a digest over the canonical rendering of every single-label and
/// every two-root answer of the fixed build in [`pinned_answers`],
/// computed with the row-scan reference.
const BROWSE_DIGEST: u64 = 0x4bc8_a3ce_585a_8811;

fn bundle() -> &'static DatasetBundle {
    static BUNDLE: OnceLock<DatasetBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let mut recipe = tiny_recipe(RecipeKind::Snyt);
        recipe.generator.n_docs = 120;
        DatasetBundle::build_with(recipe)
    })
}

fn options() -> PipelineOptions {
    PipelineOptions {
        expansion: ExpansionOptions { threads: 1 },
        ..Default::default()
    }
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

// ---- reference: the row scan --------------------------------------------

/// Trim, lowercase, drop empties, sort, dedup.
fn normalize(query: &[&str]) -> Vec<String> {
    let mut terms: Vec<String> = query
        .iter()
        .map(|q| q.trim().to_lowercase())
        .filter(|q| !q.is_empty())
        .collect();
    terms.sort();
    terms.dedup();
    terms
}

/// Every forest node in pre-order, trees in forest order.
fn nodes(snap: &FacetSnapshot) -> Vec<&TreeNode> {
    fn walk<'a>(node: &'a TreeNode, out: &mut Vec<&'a TreeNode>) {
        out.push(node);
        for c in &node.children {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    for t in &snap.forest().trees {
        walk(&t.root, &mut out);
    }
    out
}

fn reference(snap: &FacetSnapshot, query: &[&str]) -> BrowseResult {
    let normalized = normalize(query);
    let forest = snap.forest();
    let all = nodes(snap);
    let node = |label: &str| all.iter().copied().find(|n| forest.label(n) == label);
    // Refinement candidates: the children of the first selected label
    // that names a forest node, else the facet roots.
    let candidates: Vec<String> = match normalized.iter().find_map(|l| node(l)) {
        Some(n) => n
            .children
            .iter()
            .map(|c| forest.label(c).to_string())
            .collect(),
        None => forest
            .trees
            .iter()
            .map(|t| forest.label(&t.root).to_string())
            .collect(),
    };
    let selection: Option<Vec<TermId>> =
        normalized.iter().map(|l| node(l).map(|n| n.term)).collect();
    let mut docs = Vec::new();
    let mut counts = vec![0u64; candidates.len()];
    if let Some(selection) = selection {
        let cand: Vec<Option<TermId>> = candidates.iter().map(|c| snap.vocab().get(c)).collect();
        for (d, row) in snap.doc_terms().iter().enumerate() {
            if !selection.iter().all(|t| row.binary_search(t).is_ok()) {
                continue;
            }
            docs.push(d as u32);
            for (k, c) in cand.iter().enumerate() {
                if let Some(t) = c {
                    if row.binary_search(t).is_ok() {
                        counts[k] += 1;
                    }
                }
            }
        }
    }
    let mut refinements: Vec<(String, u64)> = candidates
        .into_iter()
        .zip(counts)
        .filter(|(_, c)| *c > 0)
        .collect();
    refinements.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    BrowseResult {
        generation: snap.generation(),
        query: normalized,
        docs,
        refinements,
    }
}

// ---- the checks ---------------------------------------------------------

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The reference answer, after checking that the uncached and the
/// cached serving paths both render it byte for byte. The handle's
/// generation must be the one `snap` serves (no concurrent writer).
fn assert_served(handle: &ServeHandle, query: &[&str]) -> BrowseResult {
    let snapshot = handle.snapshot();
    let want = reference(snapshot.merged(), query);
    let fresh = fanout_browse(&snapshot, query);
    assert_eq!(
        fresh.canonical(),
        want.canonical(),
        "fanout_browse {query:?}"
    );
    let cached = handle.browse(query);
    assert_eq!(
        cached.canonical(),
        want.canonical(),
        "ServeHandle::browse {query:?}"
    );
    want
}

fn forest_labels(snap: &FacetSnapshot) -> Vec<String> {
    nodes(snap)
        .iter()
        .map(|n| snap.forest().label(n).to_string())
        .collect()
}

/// A term that some document carries but that is not a facet term.
fn non_facet_term(snap: &FacetSnapshot, rng: &mut TestRng) -> Option<String> {
    let facet: Vec<TermId> = nodes(snap).iter().map(|n| n.term).collect();
    let rows = snap.doc_terms();
    if rows.is_empty() {
        return None;
    }
    let row = &rows[rng.below(rows.len() as u64) as usize];
    row.iter()
        .find(|t| !facet.contains(t))
        .map(|&t| snap.vocab().term(t).to_string())
}

#[test]
fn pinned_answers() {
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
    let wiki = WikiGraphResource::new(&graph);
    let wn = WordNetHypernymsResource::new(&b.wordnet);
    let ne = NamedEntityExtractor::new(NerTagger::from_world(&b.world));
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&wiki, &wn];
    let index = ShardedFacetIndex::build(
        b.corpus.db.docs().to_vec(),
        2,
        extractors,
        resources,
        options(),
    )
    .expect("build");
    let server = FacetServer::new(index);
    let handle = server.handle();
    let snapshot = server.snapshot();
    let labels = forest_labels(snapshot.merged());
    let forest = snapshot.merged().forest();
    let roots: Vec<&str> = forest.trees.iter().map(|t| forest.label(&t.root)).collect();
    assert!(roots.len() > 8, "only {} roots", roots.len());
    assert!(labels.len() > roots.len(), "the forest must have depth");

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |answer: BrowseResult| {
        fnv(&mut hash, answer.canonical().as_bytes());
        fnv(&mut hash, &[0xff]);
    };
    eat(assert_served(&handle, &[]));
    for label in &labels {
        eat(assert_served(&handle, &[label.as_str()]));
    }
    let mut narrowed = 0;
    for (i, a) in roots.iter().enumerate() {
        for c in &roots[i + 1..] {
            let answer = assert_served(&handle, &[a, c]);
            narrowed += usize::from(!answer.docs.is_empty());
            eat(answer);
        }
    }
    assert!(narrowed > 0, "some root pairs must share documents");
    assert_eq!(hash, BROWSE_DIGEST, "browse digest moved: {hash:#018x}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random shard counts and append splits, with the Wikipedia graph
    /// degraded by a seeded fault plan until one repair mid-stream.
    /// Every published generation answers like the reference.
    #[test]
    fn served_browse_matches_the_row_scan_reference(
        shards in 1usize..=4,
        seed in 0u64..1_000,
        sizes in proptest::collection::vec(4usize..=40, 1..=5),
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
        let index = ShardedFacetIndex::new(shards, vec![&ne], vec![&wiki, &wn], options());
        let mut server = FacetServer::new(index);
        let handle = server.handle();
        let mut rng = TestRng::deterministic(&format!("browse_oracle::{seed}"));
        let batches = split(b.corpus.db.docs(), &sizes);
        let half = batches.len().div_ceil(2);
        let mut excluded = 0;
        for (i, batch) in batches.into_iter().enumerate() {
            server.append(batch).expect("append");
            excluded += check_generation(&handle, &mut rng);
            if i + 1 == half {
                wiki.heal();
                let stats = server.repair().expect("repair");
                prop_assert!(stats.requeried_terms > 0, "the fault plan must degrade a term");
                excluded += check_generation(&handle, &mut rng);
            }
        }
        prop_assert!(handle.snapshot().merged().is_fully_covered());
        prop_assert!(excluded > 0, "no carried non-facet term was ever queried");
    }
}

/// Check random queries against the current generation. Returns how many
/// non-facet terms that documents carry were queried and matched nothing.
fn check_generation(handle: &ServeHandle, rng: &mut TestRng) -> usize {
    let snapshot = handle.snapshot();
    let snap = snapshot.merged();
    let labels = forest_labels(snap);
    let outside = non_facet_term(snap, rng);
    let mut excluded = 0;
    if let Some(term) = &outside {
        let answer = assert_served(handle, &[term.as_str()]);
        assert!(answer.docs.is_empty() && answer.refinements.is_empty());
        excluded += 1;
    }
    assert_served(handle, &["no such label anywhere"]);
    for _ in 0..24 {
        let mut query: Vec<String> = Vec::new();
        if !labels.is_empty() {
            for _ in 0..rng.below(4) {
                let label = &labels[rng.below(labels.len() as u64) as usize];
                query.push(match rng.below(4) {
                    0 => format!(" {} ", label.to_uppercase()),
                    _ => label.clone(),
                });
            }
        }
        if rng.below(4) == 0 {
            query.extend(outside.clone());
        }
        if rng.below(6) == 0 {
            query.push("no such label anywhere".to_string());
        }
        let refs: Vec<&str> = query.iter().map(String::as_str).collect();
        assert_served(handle, &refs);
    }
    excluded
}

#[test]
fn hostile_queries_never_panic_and_keep_the_cache_bounded() {
    const CAPACITY: usize = 4;
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
    let wiki = WikiGraphResource::new(&graph);
    let ne = NamedEntityExtractor::new(NerTagger::from_world(&b.world));
    let docs = b.corpus.db.docs().to_vec();
    let index =
        ShardedFacetIndex::build(docs, 3, vec![&ne], vec![&wiki], options()).expect("build");
    let server = FacetServer::with_cache_capacity(index, CAPACITY);
    let handle = server.handle();
    let snapshot = server.snapshot();
    let n_docs = snapshot.n_docs();
    let forest = snapshot.merged().forest();
    let root = forest.label(&forest.trees[0].root).to_string();
    let shouted = root.to_uppercase();
    let long = "x".repeat(64 * 1024);
    let many: Vec<String> = (0..10_000).map(|i| format!("label {i}")).collect();

    let mut cases: Vec<(Vec<&str>, Vec<String>)> = vec![
        (vec![], vec![]),
        (vec![""], vec![]),
        (vec![" ", "\t\n", "\u{3000}"], vec![]),
        (vec!["\u{0}"], vec!["\u{0}".into()]),
        (vec!["\u{7}\u{1b}[2J", "\r"], vec!["\u{7}\u{1b}[2j".into()]),
        (vec![long.as_str()], vec![long.clone()]),
        (
            vec![long.as_str(), root.as_str()],
            vec![root.clone(), long.clone()],
        ),
        (
            vec![shouted.as_str(), root.as_str(), shouted.as_str()],
            vec![root.clone()],
        ),
    ];
    let mixed = format!("\t{shouted} ");
    cases.push((vec![root.as_str(), mixed.as_str()], vec![root.clone()]));
    let mut all_many: Vec<&str> = many.iter().map(String::as_str).collect();
    let mut want_many = many.clone();
    want_many.sort();
    cases.push((all_many.clone(), want_many.clone()));
    all_many.push(root.as_str());
    want_many.push(root.clone());
    want_many.sort();
    cases.push((all_many, want_many));

    for (query, normalized) in &cases {
        let answer = assert_served(&handle, query);
        assert_eq!(&answer.query, normalized, "normalization of {query:.40?}");
        let known = normalized.iter().all(|l| forest.find(l).is_some());
        if normalized.is_empty() {
            assert_eq!(answer.total(), n_docs, "a blank query selects everything");
        } else if !known {
            assert!(answer.docs.is_empty(), "unknown labels match no documents");
            assert!(answer.refinements.is_empty(), "and offer no refinements");
        } else {
            assert!(answer.total() > 0, "{normalized:?} names a root");
        }
        assert!(
            handle.cache_stats().len <= CAPACITY,
            "cache outgrew its capacity"
        );
    }
    // The same queries again: a small cache evicts, but never grows.
    for (query, _) in &cases {
        assert_served(&handle, query);
        assert!(handle.cache_stats().len <= CAPACITY);
    }
    assert!(handle.cache_stats().evictions > 0);
}

/// The restore path gathers the snapshot's postings itself, so a
/// recovered server must answer every label exactly as the live one.
#[test]
fn restored_snapshot_browses_like_the_live_one() {
    let b = bundle();
    let graph = WikipediaGraph::new(&b.wiki.wiki, &b.wiki.redirects);
    let wiki = WikiGraphResource::new(&graph);
    let ne = NamedEntityExtractor::new(NerTagger::from_world(&b.world));
    let dir = std::env::temp_dir().join(format!("facet-browse-oracle-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = FacetStore::open(&dir).expect("open store");
    let mut live = ShardedFacetIndex::new(2, vec![&ne], vec![&wiki], options());
    for batch in split(b.corpus.db.docs(), &[50]) {
        live.append_logged(batch, &store).expect("append_logged");
    }
    // Persisting last leaves no WAL tail: the reopened snapshot is the
    // restored one, not a replayed publish.
    live.persist_to(&store).expect("persist_to");
    let (reopened, _) = ShardedFacetIndex::open_from(&store, 2, vec![&ne], vec![&wiki], options())
        .expect("open_from");
    let live = FacetServer::new(live);
    let reopened = FacetServer::new(reopened);
    assert_eq!(
        live.snapshot().generation(),
        reopened.snapshot().generation()
    );
    let labels = forest_labels(live.snapshot().merged());
    assert_eq!(labels, forest_labels(reopened.snapshot().merged()));
    let (live, reopened) = (live.handle(), reopened.handle());
    let mut queries: Vec<Vec<&str>> = vec![vec![]];
    queries.extend(labels.iter().map(|l| vec![l.as_str()]));
    queries.extend(
        labels
            .windows(2)
            .map(|w| vec![w[0].as_str(), w[1].as_str()]),
    );
    for query in &queries {
        let want = assert_served(&live, query).canonical();
        assert_eq!(
            assert_served(&reopened, query).canonical(),
            want,
            "{query:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
