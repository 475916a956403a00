//! The experiment harness: builds a dataset bundle (world + corpus + all
//! substrates), the paper's extractors ([`Substrates`]) and resources
//! ([`Backends`]) over it, and one index per configuration
//! ([`build_cell`]); runs the extractor × resource grid of Tables II–VII.

use facet_core::{FacetSnapshot, PipelineOptions, SelectionStatistic, ShardedFacetIndex};
use facet_corpus::{DatasetRecipe, Document, GeneratedCorpus, RecipeKind};
use facet_knowledge::World;
use facet_ner::NerTagger;
use facet_resources::{
    ContextResource, FaultKind, GoogleResource, ResourceError, WikiGraphResource,
    WikiSynonymsResource, WordNetHypernymsResource,
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
use std::collections::{BTreeMap, BTreeSet, HashSet};

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
    /// Observability recorder threaded into every cell's index and the
    /// web search engine (disabled by default).
    pub recorder: facet_obs::Recorder,
}

impl Default for GridOptions {
    fn default() -> Self {
        Self {
            pipeline: PipelineOptions::default(),
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
    /// Hierarchy placement, in candidate order: term → parent term (None
    /// for facet roots).
    pub parents: Vec<(String, Option<String>)>,
}

impl GridCell {
    /// The cell an index published: its ranked candidates, each placed
    /// under its parent in the snapshot's forest.
    pub fn from_snapshot(extractor: &str, resource: &str, snapshot: &FacetSnapshot) -> Self {
        let vocab = snapshot.vocab();
        let parent_of: BTreeMap<String, String> = snapshot
            .forest()
            .edges()
            .into_iter()
            .map(|(parent, child)| (child, parent))
            .collect();
        let mut candidates = Vec::with_capacity(snapshot.candidates().len());
        let mut parents = Vec::with_capacity(snapshot.candidates().len());
        for c in snapshot.candidates() {
            let term = vocab.term(c.term).to_string();
            parents.push((term.clone(), parent_of.get(&term).cloned()));
            candidates.push(CandidateOut {
                term,
                df: c.df,
                df_c: c.df_c,
                score: c.score,
            });
        }
        Self {
            extractor: extractor.to_string(),
            resource: resource.to_string(),
            candidates,
            parents,
        }
    }

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

/// One resource's answers to every important term of the grid, asked
/// once before the cells run. The cells read it in place of the
/// resource, so the 20 indexes share one query per term and resource.
struct AnswerTable<'t> {
    name: &'static str,
    answers: BTreeMap<&'t str, Result<Vec<String>, ResourceError>>,
}

impl<'t> AnswerTable<'t> {
    fn ask(resource: &dyn ContextResource, terms: &BTreeSet<&'t str>) -> Self {
        Self {
            name: resource.name(),
            answers: terms
                .iter()
                .map(|&t| (t, resource.try_context_terms(t)))
                .collect(),
        }
    }
}

impl ContextResource for AnswerTable<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn context_terms(&self, term: &str) -> Vec<String> {
        self.try_context_terms(term).unwrap_or_default()
    }

    fn try_context_terms(&self, term: &str) -> Result<Vec<String>, ResourceError> {
        self.answers.get(term).cloned().unwrap_or_else(|| {
            Err(ResourceError::new(
                self.name,
                FaultKind::Permanent,
                format!("`{term}` is not an important term of the grid"),
            ))
        })
    }
}

/// The paper's three term extractors fitted to a bundle, and the
/// Wikipedia views its Wikipedia resources read.
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

    /// NE, Yahoo and Wikipedia: the grid's single-extractor columns, in
    /// [`EXTRACTOR_LABELS`] order.
    pub fn extractors(&self) -> [&dyn TermExtractor; 3] {
        [&self.ne, &self.yahoo, &self.wiki]
    }
}

/// The paper's four context resources over a bundle's substrates.
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

    /// The grid's single-resource rows, in [`RESOURCE_LABELS`] order.
    pub fn resources(&self) -> [&dyn ContextResource; 4] {
        [&self.google, &self.wordnet, &self.wikisyn, &self.wikigraph]
    }
}

/// Where a configuration's `I(d)` lists come from.
pub enum Column<'a> {
    /// The index runs these extractors over each document.
    Extract(Vec<&'a dyn TermExtractor>),
    /// One list per document, extracted before (the grid shares one
    /// Step 1 across its cells).
    Given(Vec<Vec<String>>),
}

/// The index of one configuration over `docs`, after one append: the
/// `column` gives `I(d)`, the `row` of resources expands it and
/// `statistic` ranks the candidates. It runs on one worker, with the
/// pipeline options and the recorder of `options`.
pub fn build_cell<'a>(
    docs: &[Document],
    column: Column<'a>,
    row: Vec<&'a dyn ContextResource>,
    statistic: SelectionStatistic,
    options: &GridOptions,
) -> ShardedFacetIndex<'a> {
    let (extractors, important) = match column {
        Column::Extract(extractors) => (extractors, None),
        Column::Given(important) => (Vec::new(), Some(important)),
    };
    let mut index = ShardedFacetIndex::new(1, extractors, row, options.pipeline.clone())
        .with_statistic(statistic)
        .with_recorder(options.recorder.clone());
    match important {
        Some(important) => index.append_extracted(docs.to_vec(), important),
        None => index.append(docs.to_vec()),
    }
    .expect("a fresh index accepts one I(d) list per document");
    index
}

/// The All × All cell alone: every extractor and every live resource
/// over the bundle's documents, as [`run_grid`] builds it among the 20.
pub fn all_by_all(bundle: &mut DatasetBundle, options: &GridOptions) -> GridCell {
    bundle.web.instrument(&options.recorder);
    let bundle = &*bundle;
    let subs = Substrates::new(bundle);
    let backends = Backends::new(&subs);
    let index = build_cell(
        bundle.corpus.db.docs(),
        Column::Extract(subs.extractors().to_vec()),
        backends.resources().to_vec(),
        SelectionStatistic::LogLikelihood,
        options,
    );
    GridCell::from_snapshot("All", "All", &index.snapshot())
}

/// The members of grid line `i` over `base`: entry `i` alone, or all of
/// them for the "All" line that follows the last entry.
fn line<T: Copy>(base: &[T], i: usize) -> Vec<T> {
    base.get(i).map_or_else(|| base.to_vec(), |&one| vec![one])
}

/// Run the full 4 × 5 grid over the bundle. Returns 20 cells in
/// row-major order (resource rows × extractor columns).
pub fn run_grid(bundle: &mut DatasetBundle, options: &GridOptions) -> Vec<GridCell> {
    let recorder = &options.recorder;
    let _grid_span = recorder.span("grid");
    bundle.web.instrument(recorder);
    let bundle = &*bundle;
    let subs = Substrates::new(bundle);
    let backends = Backends::new(&subs);
    let docs = bundle.corpus.db.docs();

    // Precompute I(d) per base extractor once.
    let per_extractor: Vec<Vec<Vec<String>>> = {
        let _span = recorder.span("extract");
        subs.extractors()
            .iter()
            .map(|e| docs.iter().map(|d| e.extract(&d.full_text())).collect())
            .collect()
    };

    // Every cell's I(d) terms come from the three base extractors, so
    // their union is every term a cell sends to a resource.
    let tables: Vec<AnswerTable<'_>> = {
        let _span = recorder.span("resolve");
        let terms: BTreeSet<&str> = per_extractor
            .iter()
            .flatten()
            .flatten()
            .map(String::as_str)
            .collect();
        backends
            .resources()
            .iter()
            .map(|r| AnswerTable::ask(*r, &terms))
            .collect()
    };
    let base_resources: Vec<&dyn ContextResource> =
        tables.iter().map(|t| t as &dyn ContextResource).collect();
    // The "All" column's I(d): per document, the three extractors' terms
    // in first-seen order.
    let union: Vec<Vec<String>> = (0..docs.len())
        .map(|d| {
            let mut seen: HashSet<&str> = HashSet::new();
            per_extractor
                .iter()
                .flat_map(|ex| &ex[d])
                .filter(|t| seen.insert(t.as_str()))
                .cloned()
                .collect()
        })
        .collect();
    let columns: [&Vec<Vec<String>>; 4] = [
        &per_extractor[0],
        &per_extractor[1],
        &per_extractor[2],
        &union,
    ];

    let mut cells = Vec::with_capacity(20);
    for (ri, r_label) in RESOURCE_LABELS.iter().enumerate() {
        for (important, e_label) in columns.into_iter().zip(EXTRACTOR_LABELS) {
            let _cell_span = recorder.span("cell");
            let index = build_cell(
                docs,
                Column::Given(important.clone()),
                line(&base_resources, ri),
                SelectionStatistic::LogLikelihood,
                options,
            );
            cells.push(GridCell::from_snapshot(e_label, r_label, &index.snapshot()));
        }
    }

    cells
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

    /// A cell as plain comparable data: each candidate's term, df,
    /// `df_C`, score bits and parent.
    fn cell_rows(cell: &GridCell) -> Vec<(&str, u64, u64, u64, Option<&str>)> {
        cell.candidates
            .iter()
            .zip(&cell.parents)
            .map(|(c, (_, parent))| {
                (
                    c.term.as_str(),
                    c.df,
                    c.df_c,
                    c.score.to_bits(),
                    parent.as_deref(),
                )
            })
            .collect()
    }

    /// Every cell the grid builds over its answer tables equals the cell
    /// a fresh index builds over that cell's live resources, with no memo
    /// in front of them; so does the All × All cell built alone.
    fn assert_grid_is_transparent(mut bundle: DatasetBundle, options: &GridOptions) {
        let cells = run_grid(&mut bundle, options);
        let alone = all_by_all(&mut bundle, options);

        let subs = Substrates::new(&bundle);
        let backends = Backends::new(&subs);
        assert_eq!(cells.len(), 20);
        for (i, cell) in cells.iter().enumerate() {
            let (ri, ei) = (i / 4, i % 4);
            let fresh = build_cell(
                bundle.corpus.db.docs(),
                Column::Extract(line(&subs.extractors(), ei)),
                line(&backends.resources(), ri),
                SelectionStatistic::LogLikelihood,
                options,
            );
            let expected = GridCell::from_snapshot(
                EXTRACTOR_LABELS[ei],
                RESOURCE_LABELS[ri],
                &fresh.snapshot(),
            );
            assert_eq!(
                (cell.extractor.as_str(), cell.resource.as_str()),
                (EXTRACTOR_LABELS[ei], RESOURCE_LABELS[ri])
            );
            assert!(
                !cell.candidates.is_empty(),
                "{} x {}: no candidates",
                cell.resource,
                cell.extractor
            );
            assert_eq!(
                cell_rows(cell),
                cell_rows(&expected),
                "{} x {} differs from a fresh index over live resources",
                cell.resource,
                cell.extractor
            );
        }
        assert_eq!(
            cell_rows(&alone),
            cell_rows(&cells[19]),
            "the All x All cell built alone differs from the grid's"
        );
    }

    #[test]
    fn answer_tables_are_transparent() {
        assert_grid_is_transparent(
            DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt)),
            &GridOptions::default(),
        );
        assert_grid_is_transparent(
            DatasetBundle::build_with(tiny_recipe(RecipeKind::Snb)),
            &GridOptions {
                pipeline: PipelineOptions {
                    top_k: 300,
                    ..Default::default()
                },
                ..Default::default()
            },
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
