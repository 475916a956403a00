//! Shared experiment drivers: one function per paper table/figure.

use facet_core::{
    build_evidence_forest, raw_subsumption_terms, EvidenceParams, HypernymHints, PipelineOptions,
    SelectionStatistic,
};
use facet_corpus::RecipeKind;
use facet_eval::analysis::{candidate_composition, dimension_table};
use facet_eval::annotators::AnnotatorConfig;
use facet_eval::baselines::{castanet_baseline, supervised_baseline, supervised_vocabulary};
use facet_eval::efficiency::{efficiency_table, measure_efficiency};
use facet_eval::harness::{
    all_by_all, build_cell, default_gold, run_grid, Backends, Column, DatasetBundle, GridCell,
    GridOptions, Substrates,
};
use facet_eval::judge_model::JudgeModel;
use facet_eval::pilot::pilot_study;
use facet_eval::precision::{precision_grid, PrecisionJudge};
use facet_eval::recall::{recall_grid, recall_of, recall_of_terms};
use facet_eval::sensitivity::sensitivity_curve;
use facet_eval::userstudy::{run_user_study, user_study_table, UserStudyConfig};
use facet_eval::Table;
use facet_obs::Recorder;

/// Grid options at `top_k` (other pipeline options at their defaults)
/// with `recorder` attached.
fn grid_options(top_k: usize, recorder: &Recorder) -> GridOptions {
    GridOptions {
        pipeline: PipelineOptions {
            top_k,
            ..Default::default()
        },
        recorder: recorder.clone(),
    }
}

/// The bundle's recall/precision gold terms: a 1,000-story sample
/// annotated by 5 annotators with the ≥2 agreement rule (Section V-B).
fn gold_terms(bundle: &DatasetBundle) -> Vec<String> {
    default_gold(bundle, 1000)
        .gold_terms(&bundle.world)
        .into_iter()
        .map(str::to_string)
        .collect()
}

/// Run the extractor × resource grid and return the recall and precision
/// tables (Tables II–VII) plus the gold-set size (the paper reports
/// 633 / 756 / 703 distinct facet terms). Stage spans, per-resource
/// query counts and latencies, and web query counts land in `recorder`.
pub fn run_dataset_tables(
    kind: RecipeKind,
    scale: f64,
    top_k: usize,
    recorder: &Recorder,
) -> (Table, Table, usize) {
    let mut bundle = {
        let _span = recorder.span("build_bundle");
        DatasetBundle::build(kind, scale)
    };
    let gold_terms = {
        let _span = recorder.span("gold");
        gold_terms(&bundle)
    };
    let cells = run_grid(&mut bundle, &grid_options(top_k, recorder));
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
    (recall, precision, gold_terms.len())
}

/// Table I + the 65% statistic: the pilot study over 1,000 SNYT stories
/// with 12 annotators.
pub fn run_pilot(scale: f64) -> (Table, f64) {
    let bundle = DatasetBundle::build(RecipeKind::Snyt, scale);
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
    let bundle = DatasetBundle::build(RecipeKind::Snyt, scale);
    let gold = default_gold(&bundle, 1000);
    gold.term_counts
        .iter()
        .take(top)
        .map(|&(n, c)| (bundle.world.ontology.node(n).term.clone(), c))
        .collect()
}

/// Figure 5: the plain subsumption baseline's top terms (generic words).
pub fn run_figure5(scale: f64, top: usize) -> Vec<String> {
    let bundle = DatasetBundle::build(RecipeKind::Snyt, scale);
    let (terms, _forest) = raw_subsumption_terms(&bundle.corpus.db, &bundle.vocab, top);
    terms
        .iter()
        .map(|&t| bundle.vocab.term(t).to_string())
        .collect()
}

/// The Section V-B sensitivity study: facet-term discovery vs. sample
/// size (the paper: ~40% at 100 docs, ~80% at 500).
pub fn run_sensitivity(kind: RecipeKind, scale: f64) -> Table {
    let bundle = DatasetBundle::build(kind, scale);
    let max = bundle.corpus.db.len().min(1000);
    let mut steps: Vec<usize> = (100..=max).step_by(100).collect();
    if steps.is_empty() {
        // A corpus under 100 documents is one step: all of it.
        steps.push(max);
    }
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
    let bundle = DatasetBundle::build(kind, scale);
    let rows = measure_efficiency(&bundle, sample_docs);
    efficiency_table(&format!("Efficiency ({})", kind.name()), &rows)
}

/// The Section V-E user study, its index recorded into `recorder`.
pub fn run_user_study_experiment(scale: f64, recorder: &Recorder) -> Table {
    let bundle = DatasetBundle::build(RecipeKind::Snyt, scale);
    let stats = run_user_study(&bundle, &UserStudyConfig::default(), recorder);
    user_study_table("User study: 5 users × 5 sessions (SNYT)", &stats)
}

/// Ablation study (design choices the paper motivates):
///
/// 1. **log-likelihood vs chi-square** ranking of candidate facet terms
///    (Section IV-C argues chi-square's assumptions fail on Zipfian text);
/// 2. **plain subsumption vs evidence-combination** hierarchy
///    construction (end of Section IV cites Snow et al. as the upgrade).
///
/// Returns a rendered table of recall/precision per variant on SNYT; each
/// variant's index is recorded into `recorder`.
pub fn run_ablation(scale: f64, top_k: usize, recorder: &Recorder) -> Table {
    // The ranking statistic only matters when k is tight enough that
    // ranking decides inclusion; cap it so the comparison is informative.
    let options = grid_options(top_k.min(500), recorder);
    let bundle = DatasetBundle::build(RecipeKind::Snyt, scale);
    let gold_terms = gold_terms(&bundle);
    let gold_refs: Vec<&str> = gold_terms.iter().map(String::as_str).collect();
    let subs = Substrates::new(&bundle);
    let backends = Backends::new(&subs);
    let [_, wordnet, _, graph] = backends.resources();
    let judge = PrecisionJudge::default();
    let model = JudgeModel::new(&bundle.world);
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
        let index = build_cell(
            bundle.corpus.db.docs(),
            Column::Extract(subs.extractors().to_vec()),
            vec![graph, wordnet],
            statistic,
            &options,
        );
        let snapshot = index.snapshot();
        let vocab = snapshot.vocab();
        let mut cell = GridCell::from_snapshot("All", label, &snapshot);
        let recall = recall_of(&cell, &gold_refs);

        // Hierarchy: the index's subsumption forest, or evidence
        // combination over the same rows.
        if evidence {
            // Hints from the WordNet resource: a candidate's hypernyms
            // that are themselves candidates.
            let terms: Vec<_> = snapshot.candidates().iter().map(|c| c.term).collect();
            let mut hints = HypernymHints::new();
            let selected_ids: std::collections::HashMap<&str, _> =
                terms.iter().map(|&t| (vocab.term(t), t)).collect();
            for &t in &terms {
                for h in wordnet.context_terms(vocab.term(t)) {
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
/// of \[18\], and the Figure 5 raw-subsumption terms). The pipeline's
/// one index is recorded into `recorder`.
pub fn run_baselines(scale: f64, top_k: usize, recorder: &Recorder) -> Table {
    let mut bundle = DatasetBundle::build(RecipeKind::Snyt, scale);
    let gold_terms = gold_terms(&bundle);
    let gold_refs: Vec<&str> = gold_terms.iter().map(String::as_str).collect();

    let mut table = Table::new(
        "Baselines vs the paper's pipeline (SNYT)",
        &["System", "Facet vocabulary", "Recall of gold terms"],
    );
    let mut row = |system: &str, vocabulary: usize, recall: f64| {
        table.row(&[
            system.into(),
            vocabulary.to_string(),
            format!("{recall:.3}"),
        ]);
    };

    // Figure 5 baseline.
    let fig5 = raw_subsumption_terms(&bundle.corpus.db, &bundle.vocab, 400);
    let fig5_terms: Vec<&str> = fig5.0.iter().map(|&t| bundle.vocab.term(t)).collect();
    row(
        "raw subsumption (Figure 5)",
        fig5_terms.len(),
        recall_of_terms(&fig5_terms, &gold_refs),
    );

    // Castanet-style WordNet-only.
    let castanet = castanet_baseline(&bundle, &bundle.wordnet, 600);
    row(
        "WordNet-only (Castanet-style)",
        castanet.len(),
        recall_of_terms(&castanet, &gold_refs),
    );

    // Supervised [18] trained on half the dimensions.
    let training: Vec<_> = ["location", "people", "markets", "event"]
        .iter()
        .filter_map(|t| bundle.world.ontology.find(t))
        .collect();
    let assignments = supervised_baseline(&bundle, &bundle.wordnet, &training, 600);
    let sup_vocab = supervised_vocabulary(&assignments);
    row(
        "supervised [18] (4 training facets)",
        sup_vocab.len(),
        recall_of_terms(&sup_vocab, &gold_refs),
    );

    // Our pipeline (All × All).
    let ours = all_by_all(&mut bundle, &grid_options(top_k, recorder));
    row(
        "this paper (All extractors × All resources)",
        ours.candidates.len(),
        recall_of(&ours, &gold_refs),
    );
    table
}

/// Supplementary analysis: recall per facet dimension plus the
/// composition of the All×All candidate list (what fraction of extracted
/// terms are facet concepts, entity names, concept nouns, or other
/// corpus terms). The All × All index is recorded into `recorder`.
pub fn run_dimensions(
    kind: RecipeKind,
    scale: f64,
    top_k: usize,
    recorder: &Recorder,
) -> (Table, Table) {
    let mut bundle = DatasetBundle::build(kind, scale);
    let gold = default_gold(&bundle, 1000);
    let all = all_by_all(&mut bundle, &grid_options(top_k, recorder));
    let dims = dimension_table(
        &format!("Recall by facet dimension ({}, All × All)", kind.name()),
        &all,
        &bundle.world,
        &gold,
    );
    let mut comp = Table::new(
        &format!("Candidate composition ({}, All × All)", kind.name()),
        &["Class", "Candidates"],
    );
    for (class, n) in candidate_composition(&all, &bundle.world) {
        comp.row(&[class.to_string(), n.to_string()]);
    }
    (dims, comp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_covers_a_corpus_under_one_hundred_documents() {
        // SNYT at scale 0.05 has 50 documents, so no 100-document step
        // fits: the whole corpus is the one step and the whole reference.
        let rendered = run_sensitivity(RecipeKind::Snyt, 0.05).render();
        let rows: Vec<Vec<&str>> = rendered
            .lines()
            .skip(4)
            .map(|l| l.split('|').map(str::trim).collect())
            .collect();
        assert_eq!(rows.len(), 1, "{rendered}");
        assert_eq!(rows[0][0], "50");
        assert_eq!(rows[0][2], "1.00");
    }
}
