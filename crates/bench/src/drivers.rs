//! Shared experiment drivers: one function per paper table/figure.

use facet_core::{raw_subsumption_terms, PipelineOptions};
use facet_corpus::RecipeKind;
use facet_eval::annotators::AnnotatorConfig;
use facet_eval::efficiency::{efficiency_table, measure_efficiency};
use facet_eval::harness::{run_grid, DatasetBundle, GridOptions};
use facet_eval::pilot::pilot_study;
use facet_eval::precision::{precision_grid, PrecisionJudge};
use facet_eval::recall::recall_grid;
use facet_eval::sensitivity::sensitivity_curve;
use facet_eval::userstudy::{run_user_study, user_study_table, UserStudyConfig};
use facet_eval::GoldAnnotations;
use facet_eval::Table;

/// Build a dataset bundle at the given scale (1.0 = paper scale).
pub fn scaled_bundle(kind: RecipeKind, scale: f64) -> DatasetBundle {
    DatasetBundle::build(kind, scale)
}

/// The recall/precision gold standard: a 1,000-story sample annotated by
/// 5 annotators with the ≥2 agreement rule (Section V-B).
pub fn dataset_gold(bundle: &DatasetBundle, sample_size: usize) -> GoldAnnotations {
    facet_eval::harness::default_gold(bundle, sample_size)
}

/// Run the extractor × resource grid and return the recall and precision
/// tables (Tables II–VII) plus the gold-set size (the paper reports
/// 633 / 756 / 703 distinct facet terms).
pub fn run_dataset_tables(
    kind: RecipeKind,
    scale: f64,
    top_k: usize,
) -> (Table, Table, usize, DatasetBundle) {
    run_dataset_tables_recorded(kind, scale, top_k, facet_obs::Recorder::disabled_ref())
}

/// [`run_dataset_tables`] with an observability recorder threaded into
/// the grid: stage spans, per-resource query counts and latencies, web
/// query counts, and cache hit/miss counters all land in `recorder`.
pub fn run_dataset_tables_recorded(
    kind: RecipeKind,
    scale: f64,
    top_k: usize,
    recorder: &facet_obs::Recorder,
) -> (Table, Table, usize, DatasetBundle) {
    let mut bundle = {
        let _span = recorder.span("build_bundle");
        scaled_bundle(kind, scale)
    };
    let gold = {
        let _span = recorder.span("gold");
        dataset_gold(&bundle, 1000)
    };
    let gold_terms: Vec<String> = gold
        .gold_terms(&bundle.world)
        .into_iter()
        .map(str::to_string)
        .collect();
    let options = GridOptions {
        pipeline: PipelineOptions {
            top_k,
            ..Default::default()
        },
        recorder: recorder.clone(),
    };
    let cells = run_grid(&mut bundle, &options);
    let _score_span = recorder.span("score");
    let name = kind.name();
    let gold_refs: Vec<&str> = gold_terms.iter().map(String::as_str).collect();
    let recall = recall_grid(
        &format!("Recall of extracted facets ({name})"),
        &cells,
        &gold_refs,
    );
    let judge = PrecisionJudge::default();
    let precision = precision_grid(
        &format!("Precision of extracted facets ({name})"),
        &cells,
        &bundle.world,
        &judge,
    );
    (recall, precision, gold_terms.len(), bundle)
}

/// Table I + the 65% statistic: the pilot study over 1,000 SNYT stories
/// with 12 annotators.
pub fn run_pilot(scale: f64) -> (Table, f64) {
    let bundle = scaled_bundle(RecipeKind::Snyt, scale);
    let n = bundle.corpus.db.len().min(1000);
    let sample: Vec<usize> = (0..n).collect();
    let pilot = pilot_study(&bundle.world, &bundle.corpus, &sample, 12, 0x9170);
    let mut t = Table::new(
        "Table I: facets identified by human annotators (pilot study, SNYT)",
        &["Facet", "Sub-facets (most used)", "Annotated stories"],
    );
    for (root, count, subs) in &pilot.dimensions {
        t.row(&[root.clone(), subs.join(", "), count.to_string()]);
    }
    (t, pilot.missing_rate)
}

/// Figure 4: the most frequent annotator-identified facet terms.
pub fn run_figure4(scale: f64, top: usize) -> Vec<(String, usize)> {
    let bundle = scaled_bundle(RecipeKind::Snyt, scale);
    let gold = dataset_gold(&bundle, 1000);
    gold.term_counts
        .iter()
        .take(top)
        .map(|&(n, c)| (bundle.world.ontology.node(n).term.clone(), c))
        .collect()
}

/// Figure 5: the plain subsumption baseline's top terms (generic words).
pub fn run_figure5(scale: f64, top: usize) -> Vec<String> {
    let bundle = scaled_bundle(RecipeKind::Snyt, scale);
    let (terms, _forest) = raw_subsumption_terms(&bundle.corpus.db, &bundle.vocab, top);
    terms
        .iter()
        .map(|&t| bundle.vocab.term(t).to_string())
        .collect()
}

/// The Section V-B sensitivity study: facet-term discovery vs. sample
/// size (the paper: ~40% at 100 docs, ~80% at 500).
pub fn run_sensitivity(kind: RecipeKind, scale: f64) -> Table {
    let bundle = scaled_bundle(kind, scale);
    let max = bundle.corpus.db.len().min(1000);
    let steps: Vec<usize> = [100usize, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
        .iter()
        .copied()
        .filter(|&s| s <= max)
        .collect();
    let curve = sensitivity_curve(
        &bundle.world,
        &bundle.corpus,
        &AnnotatorConfig::default(),
        &steps,
    );
    let mut t = Table::new(
        &format!(
            "Facet-term discovery vs annotated sample size ({})",
            kind.name()
        ),
        &[
            "Documents",
            "Distinct facet terms",
            "Fraction of full gold set",
        ],
    );
    for p in curve {
        t.row(&[
            p.docs.to_string(),
            p.terms.to_string(),
            format!("{:.2}", p.fraction),
        ]);
    }
    t
}

/// The Section V-D efficiency study.
pub fn run_efficiency(kind: RecipeKind, scale: f64, sample_docs: usize) -> Table {
    let bundle = scaled_bundle(kind, scale);
    let rows = measure_efficiency(&bundle, sample_docs);
    efficiency_table(&format!("Efficiency ({})", kind.name()), &rows)
}

/// The Section V-E user study.
pub fn run_user_study_experiment(scale: f64) -> Table {
    let mut bundle = scaled_bundle(RecipeKind::Snyt, scale);
    let stats = run_user_study(&mut bundle, &UserStudyConfig::default());
    user_study_table("User study: 5 users × 5 sessions (SNYT)", &stats)
}

/// Ablation study (design choices the paper motivates):
///
/// 1. **log-likelihood vs chi-square** ranking of candidate facet terms
///    (Section IV-C argues chi-square's assumptions fail on Zipfian text);
/// 2. **plain subsumption vs evidence-combination** hierarchy
///    construction (end of Section IV cites Snow et al. as the upgrade).
///
/// Returns a rendered table of recall/precision per variant on SNYT.
pub fn run_ablation(scale: f64, top_k: usize) -> Table {
    // The ranking statistic only matters when k is tight enough that
    // ranking decides inclusion; cap it so the comparison is informative.
    let top_k = top_k.min(500);
    use facet_core::{
        build_evidence_forest, EvidenceParams, HypernymHints, SelectionStatistic, ShardedFacetIndex,
    };
    use facet_eval::harness::{default_gold, GridCell};
    use facet_eval::judge_model::JudgeModel;
    use facet_eval::precision::PrecisionJudge;
    use facet_ner::NerTagger;
    use facet_resources::{ContextResource, WikiGraphResource, WordNetHypernymsResource};
    use facet_termx::{
        NamedEntityExtractor, TermExtractor, WikipediaTitleExtractor, YahooTermExtractor,
    };
    use facet_wikipedia::{TitleIndex, WikipediaGraph};

    let bundle = scaled_bundle(RecipeKind::Snyt, scale);
    let gold = default_gold(&bundle, 1000);
    let gold_terms: Vec<String> = gold
        .gold_terms(&bundle.world)
        .into_iter()
        .map(str::to_string)
        .collect();

    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let yahoo = YahooTermExtractor::fit(&bundle.corpus.db, &bundle.vocab);
    let title_index = TitleIndex::build(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let wiki_x = WikipediaTitleExtractor::new(&bundle.wiki.wiki, title_index);
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    let wn_res = WordNetHypernymsResource::new(&bundle.wordnet);

    let judge = PrecisionJudge::default();
    let mut table = Table::new(
        "Ablation (SNYT): selection statistic and hierarchy construction",
        &["Variant", "Recall", "Precision"],
    );

    for (label, statistic, evidence) in [
        (
            "log-likelihood + subsumption (paper)",
            SelectionStatistic::LogLikelihood,
            false,
        ),
        (
            "chi-square + subsumption",
            SelectionStatistic::ChiSquare,
            false,
        ),
        (
            "log-likelihood + evidence hierarchy",
            SelectionStatistic::LogLikelihood,
            true,
        ),
    ] {
        let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo, &wiki_x];
        let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
        let mut index = ShardedFacetIndex::new(
            1,
            extractors,
            resources,
            facet_core::PipelineOptions {
                top_k,
                ..Default::default()
            },
        )
        .with_statistic(statistic);
        index
            .append(bundle.corpus.db.docs().to_vec())
            .expect("a fresh index accepts any batch");
        let snapshot = index.snapshot();
        let vocab = snapshot.vocab();
        let mut cell = GridCell::from_snapshot("All", label, &snapshot);

        // Recall.
        let selected: std::collections::HashSet<&str> = cell.terms().into_iter().collect();
        let recall = gold_terms
            .iter()
            .filter(|g| selected.contains(g.as_str()))
            .count() as f64
            / gold_terms.len().max(1) as f64;

        // Hierarchy: the index's subsumption forest, or evidence
        // combination over the same rows.
        if evidence {
            // Hints from the WordNet resource: a candidate's hypernyms
            // that are themselves candidates.
            let terms: Vec<_> = snapshot.candidates().iter().map(|c| c.term).collect();
            let mut hints = HypernymHints::new();
            let selected_ids: std::collections::HashMap<&str, facet_textkit::TermId> =
                terms.iter().map(|&t| (vocab.term(t), t)).collect();
            for &t in &terms {
                for h in wn_res.context_terms(vocab.term(t)) {
                    if let Some(&p) = selected_ids.get(h.as_str()) {
                        hints.add(t, p);
                    }
                }
            }
            let forest = build_evidence_forest(
                &terms,
                snapshot.doc_terms().iter(),
                &hints,
                EvidenceParams::default(),
            );
            cell.parents = forest
                .terms
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let parent = forest.parent[i].map(|p| vocab.term(forest.terms[p]).to_string());
                    (vocab.term(t).to_string(), parent)
                })
                .collect();
        }

        let model = JudgeModel::new(&bundle.world);
        let precision = judge.precision_with_model(&cell, &model);
        table.row(&[
            label.to_string(),
            format!("{recall:.3}"),
            format!("{precision:.3}"),
        ]);
    }
    table
}

/// Baseline comparison: our pipeline vs the related-work systems the
/// paper discusses (Castanet-style WordNet-only, the supervised approach
/// of \[18\], and the Figure 5 raw-subsumption terms).
pub fn run_baselines(scale: f64, top_k: usize) -> Table {
    use facet_eval::baselines::{castanet_baseline, supervised_baseline, supervised_vocabulary};
    use facet_eval::harness::{default_gold, run_grid, GridOptions};

    let mut bundle = scaled_bundle(RecipeKind::Snyt, scale);
    let gold = default_gold(&bundle, 1000);
    let gold_terms: Vec<String> = gold
        .gold_terms(&bundle.world)
        .into_iter()
        .map(str::to_string)
        .collect();
    let recall_of = |terms: &[String]| -> f64 {
        let set: std::collections::HashSet<&str> = terms.iter().map(String::as_str).collect();
        gold_terms
            .iter()
            .filter(|g| set.contains(g.as_str()))
            .count() as f64
            / gold_terms.len().max(1) as f64
    };

    let mut table = Table::new(
        "Baselines vs the paper's pipeline (SNYT)",
        &["System", "Facet vocabulary", "Recall of gold terms"],
    );

    // Figure 5 baseline.
    let fig5 = facet_core::raw_subsumption_terms(&bundle.corpus.db, &bundle.vocab, 400);
    let fig5_terms: Vec<String> = fig5
        .0
        .iter()
        .map(|&t| bundle.vocab.term(t).to_string())
        .collect();
    table.row(&[
        "raw subsumption (Figure 5)".into(),
        fig5_terms.len().to_string(),
        format!("{:.3}", recall_of(&fig5_terms)),
    ]);

    // Castanet-style WordNet-only.
    let castanet = castanet_baseline(&bundle, &bundle.wordnet, 600);
    table.row(&[
        "WordNet-only (Castanet-style)".into(),
        castanet.len().to_string(),
        format!("{:.3}", recall_of(&castanet)),
    ]);

    // Supervised [18] trained on half the dimensions.
    let training: Vec<_> = ["location", "people", "markets", "event"]
        .iter()
        .filter_map(|t| bundle.world.ontology.find(t))
        .collect();
    let assignments = supervised_baseline(&bundle, &bundle.wordnet, &training, 600);
    let sup_vocab = supervised_vocabulary(&assignments);
    table.row(&[
        "supervised [18] (4 training facets)".into(),
        sup_vocab.len().to_string(),
        format!("{:.3}", recall_of(&sup_vocab)),
    ]);

    // Our pipeline (All × All).
    let options = GridOptions {
        pipeline: facet_core::PipelineOptions {
            top_k,
            ..Default::default()
        },
        ..Default::default()
    };
    let cells = run_grid(&mut bundle, &options);
    let ours = cells
        .iter()
        .find(|c| c.extractor == "All" && c.resource == "All")
        .expect("grid has the All cell");
    let our_terms: Vec<String> = ours.candidates.iter().map(|c| c.term.clone()).collect();
    table.row(&[
        "this paper (All extractors × All resources)".into(),
        our_terms.len().to_string(),
        format!("{:.3}", recall_of(&our_terms)),
    ]);
    table
}

/// Supplementary analysis: recall per facet dimension plus the
/// composition of the All×All candidate list (what fraction of extracted
/// terms are facet concepts, entity names, concept nouns, or other
/// corpus terms).
pub fn run_dimensions(kind: RecipeKind, scale: f64, top_k: usize) -> (Table, Table) {
    use facet_eval::analysis::{candidate_composition, dimension_table};
    use facet_eval::harness::{default_gold, run_grid, GridOptions};
    let mut bundle = scaled_bundle(kind, scale);
    let gold = default_gold(&bundle, 1000);
    let options = GridOptions {
        pipeline: facet_core::PipelineOptions {
            top_k,
            ..Default::default()
        },
        ..Default::default()
    };
    let cells = run_grid(&mut bundle, &options);
    let all = cells
        .iter()
        .find(|c| c.extractor == "All" && c.resource == "All")
        .expect("grid has the All cell");
    let dims = dimension_table(
        &format!("Recall by facet dimension ({}, All × All)", kind.name()),
        all,
        &bundle.world,
        &gold,
    );
    let mut comp = Table::new(
        &format!("Candidate composition ({}, All × All)", kind.name()),
        &["Class", "Candidates"],
    );
    for (class, n) in candidate_composition(all, &bundle.world) {
        comp.row(&[class.to_string(), n.to_string()]);
    }
    (dims, comp)
}
