//! The experiment harness: builds a dataset bundle (world + corpus + all
//! substrates) and runs the extractor × resource grid of Tables II–VII.

use facet_core::{FacetSnapshot, PipelineOptions, ShardedFacetIndex};
use facet_corpus::{DatasetRecipe, GeneratedCorpus, RecipeKind};
use facet_knowledge::World;
use facet_ner::NerTagger;
use facet_resources::{
    CachedResource, ContextResource, GoogleResource, WikiGraphResource, WikiSynonymsResource,
    WordNetHypernymsResource,
};
use facet_termx::{
    NamedEntityExtractor, TermExtractor, WikipediaTitleExtractor, YahooTermExtractor,
};
use facet_textkit::Vocabulary;
use facet_websearch::{generate_web, SearchEngine, WebGenConfig};
use facet_wikipedia::{
    build_wikipedia, TitleIndex, WikiBundle, WikipediaConfig, WikipediaGraph, WikipediaSynonyms,
};
use facet_wordnet::{build_wordnet, WordNet};

/// Everything needed to evaluate one dataset.
pub struct DatasetBundle {
    /// The dataset recipe.
    pub recipe: DatasetRecipe,
    /// The generated world.
    pub world: World,
    /// The corpus vocabulary: the terms of `corpus`' documents.
    pub vocab: Vocabulary,
    /// The news corpus with gold labels.
    pub corpus: GeneratedCorpus,
    /// The synthetic Wikipedia.
    pub wiki: WikiBundle,
    /// The mini-WordNet.
    pub wordnet: WordNet,
    /// The web-search engine.
    pub web: SearchEngine,
}

impl DatasetBundle {
    /// Build the bundle for a dataset at the given document scale.
    pub fn build(kind: RecipeKind, scale: f64) -> Self {
        Self::build_with(DatasetRecipe::scaled(kind, scale))
    }

    /// Build from an explicit recipe (tests shrink the world here).
    pub fn build_with(recipe: DatasetRecipe) -> Self {
        let world = recipe.build_world();
        let mut vocab = Vocabulary::new();
        let corpus = recipe.build_corpus(&world, &mut vocab);
        let wiki = build_wikipedia(&world, &WikipediaConfig::default());
        let wordnet = build_wordnet(&world);
        let web = SearchEngine::new(generate_web(&world, &WebGenConfig::default()));
        Self {
            recipe,
            world,
            vocab,
            corpus,
            wiki,
            wordnet,
            web,
        }
    }
}

/// The recall/precision gold standard for a bundle: a sample of up to
/// `sample_size` stories annotated by 5 annotators with the ≥2 agreement
/// rule (paper Section V-B). Stride-sampled for determinism.
pub fn default_gold(bundle: &DatasetBundle, sample_size: usize) -> crate::GoldAnnotations {
    use crate::annotators::{annotate_sample, AnnotatorConfig};
    let n = bundle.corpus.db.len().min(sample_size);
    let stride = (bundle.corpus.db.len() / n).max(1);
    let sample: Vec<usize> = (0..bundle.corpus.db.len())
        .step_by(stride)
        .take(n)
        .collect();
    annotate_sample(
        &bundle.world,
        &bundle.corpus,
        &sample,
        &AnnotatorConfig {
            seed: 0xA770 ^ bundle.recipe.world.seed,
            ..Default::default()
        },
    )
}

/// Options for a grid run.
#[derive(Debug, Clone)]
pub struct GridOptions {
    /// Pipeline options shared by all cells.
    pub pipeline: PipelineOptions,
    /// Build the facet hierarchy per cell (needed for precision; costs a
    /// subsumption pass).
    pub build_hierarchies: bool,
    /// Maximum documents used for subsumption co-occurrence (sampled by
    /// stride when the corpus is larger; keeps hierarchy construction
    /// tractable at MNYT scale).
    pub subsumption_doc_cap: usize,
    /// Observability recorder threaded into every cell's index, the web
    /// search engine, and the resource caches (disabled by default).
    pub recorder: facet_obs::Recorder,
}

impl Default for GridOptions {
    fn default() -> Self {
        Self {
            pipeline: PipelineOptions::default(),
            build_hierarchies: true,
            subsumption_doc_cap: 3000,
            recorder: facet_obs::Recorder::disabled(),
        }
    }
}

/// One selected candidate, exported from the grid as plain data.
#[derive(Debug, Clone)]
pub struct CandidateOut {
    /// The term string.
    pub term: String,
    /// df in `D`.
    pub df: u64,
    /// df in `C(D)`.
    pub df_c: u64,
    /// Ranking statistic.
    pub score: f64,
}

/// One grid cell: a (term extractor set, resource set) configuration and
/// the facet terms it produced.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Extractor column ("NE", "Yahoo", "Wikipedia", "All").
    pub extractor: String,
    /// Resource row ("Google", …, "All").
    pub resource: String,
    /// The ranked candidate facet terms.
    pub candidates: Vec<CandidateOut>,
    /// Hierarchy placement: term → parent term (None for facet roots),
    /// present when hierarchies were built.
    pub parents: Vec<(String, Option<String>)>,
}

impl GridCell {
    /// The candidate terms as a string list.
    pub fn terms(&self) -> Vec<&str> {
        self.candidates.iter().map(|c| c.term.as_str()).collect()
    }
}

/// The extractor column labels, in paper order.
pub const EXTRACTOR_LABELS: [&str; 4] = ["NE", "Yahoo", "Wikipedia", "All"];
/// The resource row labels, in paper order.
pub const RESOURCE_LABELS: [&str; 5] = [
    "Google",
    "WordNet Hypernyms",
    "Wikipedia Synonyms",
    "Wikipedia Graph",
    "All",
];

/// Run the full 4 × 5 grid over the bundle. Returns 20 cells in
/// row-major order (resource rows × extractor columns).
pub fn run_grid(bundle: &mut DatasetBundle, options: &GridOptions) -> Vec<GridCell> {
    let recorder = options.recorder.clone();
    let _grid_span = recorder.span("grid");
    bundle.web.instrument(&recorder);

    // ---- substrate-backed extractors ---------------------------------------
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let yahoo = YahooTermExtractor::fit(&bundle.corpus.db, &bundle.vocab);
    let title_index = TitleIndex::build(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let wiki_x = WikipediaTitleExtractor::new(&bundle.wiki.wiki, title_index);

    // Precompute I(d) per base extractor once.
    let extractors: [&dyn TermExtractor; 3] = [&ne, &yahoo, &wiki_x];
    let per_extractor: Vec<Vec<Vec<String>>> = {
        let _span = recorder.span("extract");
        extractors
            .iter()
            .map(|e| {
                bundle
                    .corpus
                    .db
                    .docs()
                    .iter()
                    .map(|d| e.extract(&d.full_text()))
                    .collect()
            })
            .collect()
    };

    // ---- resources -----------------------------------------------------------
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let synonyms = WikipediaSynonyms::new(
        &bundle.wiki.wiki,
        &bundle.wiki.redirects,
        &bundle.wiki.anchors,
    );
    let google = CachedResource::new(GoogleResource::new(&bundle.web));
    let wn_res = CachedResource::new(WordNetHypernymsResource::new(&bundle.wordnet));
    let syn_res = CachedResource::new(WikiSynonymsResource::new(&synonyms));
    let graph_res = CachedResource::new(WikiGraphResource::new(&graph));
    let base_resources: [&dyn ContextResource; 4] = [&google, &wn_res, &syn_res, &graph_res];

    let mut cells = Vec::with_capacity(20);
    for (ri, r_label) in RESOURCE_LABELS.iter().enumerate() {
        let resources: Vec<&dyn ContextResource> = if ri < 4 {
            vec![base_resources[ri]]
        } else {
            base_resources.to_vec()
        };
        for (ei, e_label) in EXTRACTOR_LABELS.iter().enumerate() {
            // I(d): one extractor's terms, or the union for "All".
            let important: Vec<Vec<String>> = if ei < 3 {
                per_extractor[ei].clone()
            } else {
                (0..bundle.corpus.db.len())
                    .map(|d| {
                        let mut u: Vec<String> = Vec::new();
                        for ex in &per_extractor {
                            for t in &ex[d] {
                                if !u.contains(t) {
                                    u.push(t.clone());
                                }
                            }
                        }
                        u
                    })
                    .collect()
            };
            let _cell_span = recorder.span("cell");
            // Step 1 is shared across the grid, so each cell's index
            // starts from the precomputed I(d).
            let mut index =
                ShardedFacetIndex::new(1, Vec::new(), resources.clone(), options.pipeline.clone())
                    .with_recorder(recorder.clone());
            index
                .append_extracted(bundle.corpus.db.docs().to_vec(), important)
                .expect("one I(d) per document by construction");
            let snapshot = index.snapshot();
            let candidates: Vec<CandidateOut> = snapshot
                .candidates()
                .iter()
                .map(|c| CandidateOut {
                    term: snapshot.vocab().term(c.term).to_string(),
                    df: c.df,
                    df_c: c.df_c,
                    score: c.score,
                })
                .collect();
            let parents = if options.build_hierarchies {
                hierarchy_parents(&snapshot, options)
            } else {
                Vec::new()
            };
            cells.push(GridCell {
                extractor: e_label.to_string(),
                resource: r_label.to_string(),
                candidates,
                parents,
            });
        }
    }

    // Flush cache effectiveness into counters: `cache.<resource>.hits`
    // and `cache.<resource>.misses`.
    let flush = |name: &str, stats: facet_resources::CacheStats| {
        recorder.add(&format!("cache.{name}.hits"), stats.hits);
        recorder.add(&format!("cache.{name}.misses"), stats.misses);
    };
    flush(google.name(), google.stats());
    flush(wn_res.name(), wn_res.stats());
    flush(syn_res.name(), syn_res.stats());
    flush(graph_res.name(), graph_res.stats());

    cells
}

/// Build the hierarchy for a cell and export `(term, parent)` pairs.
/// Subsumption co-occurrence is computed over a stride sample of at most
/// `subsumption_doc_cap` of the snapshot's contextualized documents.
fn hierarchy_parents(
    snapshot: &FacetSnapshot,
    options: &GridOptions,
) -> Vec<(String, Option<String>)> {
    use facet_core::{build_subsumption_forest, SubsumptionParams};
    let _span = options.recorder.span("subsumption");
    let terms: Vec<_> = snapshot.candidates().iter().map(|c| c.term).collect();
    let rows = snapshot.doc_terms();
    let cap = options.subsumption_doc_cap.max(1);
    let stride = rows.len().div_ceil(cap).max(1);
    let forest = build_subsumption_forest(
        &terms,
        rows.iter().step_by(stride),
        SubsumptionParams {
            threshold: options.pipeline.subsumption_threshold,
            ..Default::default()
        },
    );
    let vocab = snapshot.vocab();
    forest
        .terms
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let parent = forest.parent[i].map(|p| vocab.term(forest.terms[p]).to_string());
            (vocab.term(t).to_string(), parent)
        })
        .collect()
}

/// A small-world recipe for tests and quick runs: shrinks both the world
/// and the corpus so a full grid runs in seconds.
pub fn tiny_recipe(kind: RecipeKind) -> DatasetRecipe {
    let mut r = DatasetRecipe::scaled(kind, 0.08);
    r.world.countries = 12;
    r.world.cities_per_country = 2;
    r.world.people = 60;
    r.world.corporations = 20;
    r.world.organizations = 10;
    r.world.events = 8;
    r.world.topics = 40;
    r.world.extra_concepts = 40;
    r.world.background_words = 300;
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_produces_twenty_cells() {
        let mut bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
        let options = GridOptions {
            pipeline: PipelineOptions {
                top_k: 200,
                ..Default::default()
            },
            build_hierarchies: false,
            subsumption_doc_cap: 500,
            ..Default::default()
        };
        let cells = run_grid(&mut bundle, &options);
        assert_eq!(cells.len(), 20);
        // The All × All cell should produce a healthy number of candidates.
        let all = cells
            .iter()
            .find(|c| c.extractor == "All" && c.resource == "All")
            .unwrap();
        assert!(
            all.candidates.len() > 20,
            "only {} candidates",
            all.candidates.len()
        );
    }

    #[test]
    fn all_column_dominates_each_single_extractor_on_candidates() {
        let mut bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
        let options = GridOptions {
            pipeline: PipelineOptions {
                top_k: 500,
                ..Default::default()
            },
            build_hierarchies: false,
            subsumption_doc_cap: 500,
            ..Default::default()
        };
        let cells = run_grid(&mut bundle, &options);
        let count = |e: &str, r: &str| {
            cells
                .iter()
                .find(|c| c.extractor == e && c.resource == r)
                .unwrap()
                .candidates
                .len()
        };
        // More extractors → at least as many important terms → usually at
        // least as many candidates (not guaranteed term-by-term, so we
        // check loosely).
        assert!(count("All", "All") + 25 >= count("NE", "All"));
    }
}
