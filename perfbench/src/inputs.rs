//! Seeded inputs: the corpus and its substrates, the extractors and
//! backends of the paper's full configuration, the wrapped versions the
//! index receives, the browse query streams, and small statistics
//! helpers. The seed reaches the program only through the generated
//! documents and queries.

use crate::wrap::{TimedExtractor, TimedResource};
use facet_core::FacetSnapshot;
use facet_corpus::{DatasetRecipe, Document, RecipeKind};
use facet_eval::harness::DatasetBundle;
use facet_ner::NerTagger;
use facet_resources::{
    ContextResource, GoogleResource, WikiGraphResource, WikiSynonymsResource,
    WordNetHypernymsResource,
};
use facet_termx::{
    NamedEntityExtractor, TermExtractor, WikipediaTitleExtractor, YahooTermExtractor,
};
use facet_textkit::Zipf;
use facet_wikipedia::{TitleIndex, WikipediaGraph, WikipediaSynonyms};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mix a benchmark seed into 64 well-spread bits (splitmix64 finalizer).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The dataset bundle of `kind` with exactly `n_docs` documents whose
/// article generator is seeded from `seed`. The world (the "real world"
/// the news is about) keeps the recipe's own seed.
pub fn bundle(kind: RecipeKind, n_docs: usize, seed: u64) -> DatasetBundle {
    let mut recipe = DatasetRecipe::new(kind);
    recipe.generator.n_docs = n_docs;
    recipe.generator.seed ^= mix(seed, 1);
    DatasetBundle::build_with(recipe)
}

/// The documents of a bundle, in generation order.
pub fn docs(bundle: &DatasetBundle) -> Vec<Document> {
    bundle.corpus.db.docs().to_vec()
}

/// The substrate-backed extractors plus the Wikipedia views the
/// Wikipedia backends read.
pub struct Substrates<'b> {
    bundle: &'b DatasetBundle,
    ne: NamedEntityExtractor,
    yahoo: YahooTermExtractor,
    wiki: WikipediaTitleExtractor<'b>,
    graph: WikipediaGraph<'b>,
    synonyms: WikipediaSynonyms<'b>,
}

impl<'b> Substrates<'b> {
    /// Fit the extractors and build the Wikipedia views.
    pub fn new(bundle: &'b DatasetBundle) -> Self {
        let title_index = TitleIndex::build(&bundle.wiki.wiki, &bundle.wiki.redirects);
        Self {
            bundle,
            ne: NamedEntityExtractor::new(NerTagger::from_world(&bundle.world)),
            yahoo: YahooTermExtractor::fit(&bundle.corpus.db, &bundle.vocab),
            wiki: WikipediaTitleExtractor::new(&bundle.wiki.wiki, title_index),
            graph: WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects),
            synonyms: WikipediaSynonyms::new(
                &bundle.wiki.wiki,
                &bundle.wiki.redirects,
                &bundle.wiki.anchors,
            ),
        }
    }

    fn extractors(&self) -> Vec<&dyn TermExtractor> {
        vec![&self.ne, &self.yahoo, &self.wiki]
    }
}

/// The four context backends of the paper's full configuration.
pub struct Backends<'s> {
    google: GoogleResource<'s>,
    wordnet: WordNetHypernymsResource<'s>,
    wikisyn: WikiSynonymsResource<'s>,
    wikigraph: WikiGraphResource<'s>,
}

impl<'s> Backends<'s> {
    /// Google, WordNet hypernyms, Wikipedia synonyms, Wikipedia graph.
    pub fn new(subs: &'s Substrates<'_>) -> Self {
        Self {
            google: GoogleResource::new(&subs.bundle.web),
            wordnet: WordNetHypernymsResource::new(&subs.bundle.wordnet),
            wikisyn: WikiSynonymsResource::new(&subs.synonyms),
            wikigraph: WikiGraphResource::new(&subs.graph),
        }
    }

    fn resources(&self) -> Vec<&dyn ContextResource> {
        vec![&self.google, &self.wordnet, &self.wikisyn, &self.wikigraph]
    }
}

/// Span names of the wrapped extractors: NE, Yahoo, Wikipedia.
pub const EXTRACTOR_SPANS: [&str; 3] = ["termx.ne", "termx.yahoo", "termx.wikipedia"];
/// Span names of the wrapped backends: Google, WordNet hypernyms,
/// Wikipedia synonyms, Wikipedia graph.
pub const RESOURCE_SPANS: [&str; 4] = [
    "resources.google",
    "resources.wordnet",
    "resources.wikisyn",
    "resources.wikigraph",
];

/// The extractors and backends, both as they are and wrapped in the
/// timing probes the measured indexes receive.
pub struct Probes<'p> {
    raw_extractors: Vec<&'p dyn TermExtractor>,
    raw_resources: Vec<&'p dyn ContextResource>,
    extractors: Vec<TimedExtractor<'p>>,
    resources: Vec<TimedResource<'p>>,
}

impl<'p> Probes<'p> {
    /// Wrap every extractor and backend.
    pub fn new(subs: &'p Substrates<'_>, backends: &'p Backends<'_>) -> Self {
        let raw_extractors = subs.extractors();
        let raw_resources = backends.resources();
        Self {
            extractors: raw_extractors
                .iter()
                .zip(EXTRACTOR_SPANS)
                .map(|(&e, span)| TimedExtractor::new(e, span))
                .collect(),
            resources: raw_resources
                .iter()
                .zip(RESOURCE_SPANS)
                .map(|(&r, span)| TimedResource::new(r, span))
                .collect(),
            raw_extractors,
            raw_resources,
        }
    }

    /// The wrapped extractors.
    pub fn extractors(&self) -> Vec<&dyn TermExtractor> {
        self.extractors
            .iter()
            .map(|e| e as &dyn TermExtractor)
            .collect()
    }

    /// The wrapped backends.
    pub fn resources(&self) -> Vec<&dyn ContextResource> {
        self.resources
            .iter()
            .map(|r| r as &dyn ContextResource)
            .collect()
    }

    /// The extractors, unwrapped (reference builds).
    pub fn raw_extractors(&self) -> Vec<&'p dyn TermExtractor> {
        self.raw_extractors.clone()
    }

    /// The backends, unwrapped (reference builds).
    pub fn raw_resources(&self) -> Vec<&'p dyn ContextResource> {
        self.raw_resources.clone()
    }

    /// Important terms the wrapped extractors returned so far.
    pub fn extracted_terms(&self) -> u64 {
        self.extractors.iter().map(TimedExtractor::terms).sum()
    }
}

/// Every forest-node label of a snapshot, in forest order, without
/// repeats: the vocabulary browse queries draw from.
pub fn label_pool(snapshot: &FacetSnapshot) -> Vec<String> {
    fn walk(
        forest: &facet_core::FacetForest,
        node: &facet_core::TreeNode,
        seen: &mut std::collections::HashSet<String>,
        out: &mut Vec<String>,
    ) {
        let label = forest.label(node).to_string();
        if seen.insert(label.clone()) {
            out.push(label);
        }
        for child in &node.children {
            walk(forest, child, seen, out);
        }
    }
    let forest = snapshot.forest();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for tree in &forest.trees {
        walk(forest, &tree.root, &mut seen, &mut out);
    }
    out
}

/// `n` browse queries of 1–3 labels each (probabilities 0.5 / 0.3 / 0.2),
/// every label drawn Zipf (s = 1.07) over the pool's forest order.
pub fn queries(pool: &[String], n: usize, seed: u64) -> Vec<Vec<String>> {
    assert!(!pool.is_empty(), "the built forest has no labels to browse");
    let zipf = Zipf::new(pool.len(), 1.07);
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            let k = if u < 0.5 {
                1
            } else if u < 0.8 {
                2
            } else {
                3
            };
            (0..k)
                .map(|_| pool[zipf.sample(rng.gen::<f64>())].clone())
                .collect()
        })
        .collect()
}

/// The first `n` queries of a [`queries`] stream that differ as label
/// sets, so each one misses the signature cache of a fresh server. A
/// closed loop over them measures fan-out browses only; repeats would
/// put the median on the boundary between cache hits and misses.
pub fn distinct_queries(pool: &[String], n: usize, seed: u64) -> Vec<Vec<String>> {
    let mut seen = std::collections::HashSet::new();
    queries(pool, 20 * n, seed)
        .into_iter()
        .filter(|q| {
            let mut key = q.clone();
            key.sort_unstable();
            key.dedup();
            seen.insert(key)
        })
        .take(n)
        .collect()
}

/// Borrow a query as the `&[&str]` the serving API takes.
pub fn as_query(q: &[String]) -> Vec<&str> {
    q.iter().map(String::as_str).collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a folding of `bytes` into `hash`.
pub fn fold(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// A digest of a snapshot's content that ignores its generation and
/// term ids: ranked candidates (term, df, `df_C`, score bits), forest
/// edges, and every document's contextualized terms as sorted strings.
/// Equal for any batch partition of the same documents.
pub fn content_digest(snap: &FacetSnapshot) -> u64 {
    let mut hash = FNV_OFFSET;
    for c in snap.candidates() {
        fold(&mut hash, b"c\x1f");
        fold(&mut hash, snap.vocab().term(c.term).as_bytes());
        fold(&mut hash, &c.df.to_le_bytes());
        fold(&mut hash, &c.df_c.to_le_bytes());
        fold(&mut hash, &c.score.to_bits().to_le_bytes());
    }
    for (parent, child) in snap.forest().edges() {
        fold(&mut hash, b"e\x1f");
        fold(&mut hash, parent.as_bytes());
        fold(&mut hash, b"\x1f");
        fold(&mut hash, child.as_bytes());
    }
    for row in snap.doc_terms().iter() {
        let mut terms: Vec<&str> = row.iter().map(|&t| snap.vocab().term(t)).collect();
        terms.sort_unstable();
        fold(&mut hash, b"r");
        for t in terms {
            fold(&mut hash, b"\x1f");
            fold(&mut hash, t.as_bytes());
        }
    }
    hash
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of a sample (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
