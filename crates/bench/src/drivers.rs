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
        build_hierarchies: true,
        subsumption_doc_cap: 3000,
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
    let mut bundle = scaled_bundle(kind, scale);
    let rows = measure_efficiency(&mut bundle, sample_docs);
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
        build_evidence_forest, EvidenceParams, FacetPipeline, HypernymHints, SelectionStatistic,
    };
    use facet_eval::harness::default_gold;
    use facet_eval::judge_model::JudgeModel;
    use facet_eval::precision::PrecisionJudge;
    use facet_ner::NerTagger;
    use facet_resources::{
        CachedResource, ContextResource, WikiGraphResource, WordNetHypernymsResource,
    };
    use facet_termx::{
        NamedEntityExtractor, TermExtractor, WikipediaTitleExtractor, YahooTermExtractor,
    };
    use facet_wikipedia::{TitleIndex, WikipediaGraph};

    let mut bundle = scaled_bundle(RecipeKind::Snyt, scale);
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
    let graph_res = CachedResource::new(WikiGraphResource::new(&graph));
    let wn_res = CachedResource::new(WordNetHypernymsResource::new(&bundle.wordnet));

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
        let pipeline = FacetPipeline::new(
            extractors,
            resources,
            facet_core::PipelineOptions {
                top_k,
                ..Default::default()
            },
        )
        .with_statistic(statistic);
        let extraction = pipeline.run(&bundle.corpus.db, &mut bundle.vocab);

        // Recall.
        let selected: std::collections::HashSet<&str> = extraction
            .candidates
            .iter()
            .map(|c| bundle.vocab.term(c.term))
            .collect();
        let recall = gold_terms
            .iter()
            .filter(|g| selected.contains(g.as_str()))
            .count() as f64
            / gold_terms.len().max(1) as f64;

        // Hierarchy: plain subsumption or evidence combination.
        let terms: Vec<_> = extraction.candidates.iter().map(|c| c.term).collect();
        let parents: Vec<(String, Option<String>)> = if evidence {
            // Hints from the WordNet resource: a candidate's hypernyms
            // that are themselves candidates.
            let mut hints = HypernymHints::new();
            let selected_ids: std::collections::HashMap<&str, facet_textkit::TermId> =
                terms.iter().map(|&t| (bundle.vocab.term(t), t)).collect();
            for &t in &terms {
                let term_str = bundle.vocab.term(t).to_string();
                for h in wn_res.context_terms(&term_str) {
                    if let Some(&p) = selected_ids.get(h.as_str()) {
                        hints.add(t, p);
                    }
                }
            }
            let forest = build_evidence_forest(
                &terms,
                &extraction.contextualized.doc_terms,
                &hints,
                EvidenceParams::default(),
            );
            forest
                .terms
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let parent =
                        forest.parent[i].map(|p| bundle.vocab.term(forest.terms[p]).to_string());
                    (bundle.vocab.term(t).to_string(), parent)
                })
                .collect()
        } else {
            use facet_core::{build_subsumption_forest, SubsumptionParams};
            let forest = build_subsumption_forest(
                &terms,
                &extraction.contextualized.doc_terms,
                SubsumptionParams::default(),
            );
            forest
                .terms
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let parent =
                        forest.parent[i].map(|p| bundle.vocab.term(forest.terms[p]).to_string());
                    (bundle.vocab.term(t).to_string(), parent)
                })
                .collect()
        };

        let cell = facet_eval::harness::GridCell {
            extractor: "All".into(),
            resource: label.into(),
            candidates: extraction
                .candidates
                .iter()
                .map(|c| facet_eval::harness::CandidateOut {
                    term: bundle.vocab.term(c.term).to_string(),
                    df: c.df,
                    df_c: c.df_c,
                    score: c.score,
                })
                .collect(),
            parents,
        };
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
        build_hierarchies: false,
        subsumption_doc_cap: 3000,
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

/// Interner outcome counters captured from an index vocabulary at the
/// end of a bench run (DESIGN.md §16): `intern()` calls answered from
/// the probe table (`hits`) vs. arena appends (`misses`), the final
/// distinct-symbol count, and the derived hit rate.
#[derive(Debug, serde::Serialize)]
pub struct InternMetrics {
    /// `intern` calls answered by an existing symbol.
    pub hits: u64,
    /// `intern` calls that appended a new symbol.
    pub misses: u64,
    /// Distinct symbols interned.
    pub len: usize,
    /// `hits / (hits + misses)` (0.0 when unused).
    pub hit_rate: f64,
}

impl From<facet_textkit::InternStats> for InternMetrics {
    fn from(s: facet_textkit::InternStats) -> Self {
        Self {
            hits: s.hits,
            misses: s.misses,
            len: s.len,
            hit_rate: s.hit_rate(),
        }
    }
}

/// One batch of the incremental-vs-rebuild benchmark.
#[derive(Debug, serde::Serialize)]
pub struct IncrementalBenchBatch {
    /// 1-based batch number.
    pub batch: usize,
    /// Documents in this batch.
    pub docs: usize,
    /// Wall time of the 1-shard `ShardedFacetIndex::append` for this
    /// batch.
    pub append_ms: f64,
    /// Wall time of a from-scratch 1-shard build over the prefix.
    pub rebuild_ms: f64,
    /// Resource queries the append issued (new-distinct terms only).
    pub append_resource_queries: u64,
    /// Resource queries the rebuild issued (every distinct term).
    pub rebuild_resource_queries: u64,
}

/// The incremental-vs-rebuild benchmark report (`BENCH_2.json`).
#[derive(Debug, serde::Serialize)]
pub struct IncrementalBenchReport {
    /// Dataset recipe name.
    pub dataset: String,
    /// Total documents indexed.
    pub total_docs: usize,
    /// Number of append batches.
    pub n_batches: usize,
    /// Total wall time across all appends.
    pub append_total_ms: f64,
    /// Total wall time across all from-scratch rebuilds.
    pub rebuild_total_ms: f64,
    /// `rebuild_total_ms / append_total_ms`.
    pub speedup: f64,
    /// Indexing throughput of the incremental path: net-new documents
    /// divided by total append wall time.
    pub append_docs_per_sec: f64,
    /// Indexing throughput of the rebuild path **on the same basis**:
    /// net-new documents divided by total rebuild wall time. Directly
    /// comparable with `append_docs_per_sec` — the wall-clock `speedup`
    /// equals their ratio.
    pub rebuild_docs_per_sec: f64,
    /// The rebuild path's internal processing rate: cumulatively
    /// re-indexed documents (each prefix counted once per rebuild)
    /// divided by total rebuild wall time. This measures how fast the
    /// rebuild loop chews through documents, *not* archive growth — it
    /// exceeds `rebuild_docs_per_sec` by roughly (n_batches+1)/2 because
    /// the same early documents are re-processed every round.
    pub rebuild_reprocessed_docs_per_sec: f64,
    /// Total resource queries on the incremental path.
    pub append_resource_queries: u64,
    /// Total resource queries across the rebuilds.
    pub rebuild_resource_queries: u64,
    /// Final interner counters of the incremental index's (single)
    /// shard vocabulary.
    pub intern: InternMetrics,
    /// Headline numbers of this benchmark at the commit immediately
    /// before the interner refactor (same host, default scale/batches),
    /// kept in the report so the before/after effect of symbol
    /// interning stays visible next to the regenerated numbers.
    pub before_interning: PreInterningIncremental,
    /// Per-batch breakdown.
    pub batches: Vec<IncrementalBenchBatch>,
}

/// Pre-interning headline numbers for the incremental benchmark.
#[derive(Debug, serde::Serialize)]
pub struct PreInterningIncremental {
    /// Total append wall time before the refactor.
    pub append_total_ms: f64,
    /// Total rebuild wall time before the refactor.
    pub rebuild_total_ms: f64,
    /// Append-vs-rebuild speedup before the refactor.
    pub speedup: f64,
}

/// Benchmark the incremental 1-shard `ShardedFacetIndex::append` path
/// against repeated
/// full rebuilds over a growing SNYT-style archive: the corpus arrives
/// in `n_batches` slices, and after each slice both strategies must have
/// an up-to-date facet index. Rebuilds use a fresh resource cache per
/// round (a real rebuild starts cold); the incremental index keeps its
/// cross-batch expansion cache, which is exactly the advantage being
/// measured.
pub fn run_incremental_bench(scale: f64, n_batches: usize) -> IncrementalBenchReport {
    use facet_core::ShardedFacetIndex;
    use facet_ner::NerTagger;
    use facet_obs::Recorder;
    use facet_resources::{CachedResource, ContextResource, WikiGraphResource};
    use facet_termx::{NamedEntityExtractor, TermExtractor};
    use facet_wikipedia::WikipediaGraph;
    use std::time::Instant;

    let bundle = scaled_bundle(RecipeKind::Snyt, scale);
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let per = docs.len().div_ceil(n_batches.max(1));
    let options = PipelineOptions::default();
    let queries_of = |r: &Recorder| {
        r.snapshot_counts_only()
            .get("counter.resource.Wikipedia Graph.queries")
            .copied()
            .unwrap_or(0)
    };

    // Incremental path: one persistent index, one persistent cache.
    let inc_res = CachedResource::new(WikiGraphResource::new(&graph));
    let inc_recorder = Recorder::enabled();
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&inc_res];
    let mut index = ShardedFacetIndex::new(1, extractors, resources, options.clone())
        .with_recorder(inc_recorder.clone());

    let mut batches = Vec::new();
    let mut prev_queries = 0u64;
    for (i, chunk) in docs.chunks(per).enumerate() {
        let t = Instant::now();
        index
            .append(chunk.to_vec())
            .expect("bench batches are well-formed");
        let append_ms = t.elapsed().as_secs_f64() * 1e3;
        let append_queries = queries_of(&inc_recorder) - prev_queries;
        prev_queries += append_queries;

        // Rebuild path: index the whole prefix from scratch, cold caches.
        let prefix_end = (per * (i + 1)).min(docs.len());
        let rebuild_res = CachedResource::new(WikiGraphResource::new(&graph));
        let rebuild_recorder = Recorder::enabled();
        let extractors: Vec<&dyn TermExtractor> = vec![&ne];
        let resources: Vec<&dyn ContextResource> = vec![&rebuild_res];
        let t = Instant::now();
        let rebuilt = ShardedFacetIndex::new(1, extractors, resources, options.clone())
            .with_recorder(rebuild_recorder.clone());
        let mut rebuilt = rebuilt;
        rebuilt
            .append(docs[..prefix_end].to_vec())
            .expect("bench batches are well-formed");
        let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;

        batches.push(IncrementalBenchBatch {
            batch: i + 1,
            docs: chunk.len(),
            append_ms,
            rebuild_ms,
            append_resource_queries: append_queries,
            rebuild_resource_queries: queries_of(&rebuild_recorder),
        });
    }

    let append_total_ms: f64 = batches.iter().map(|b| b.append_ms).sum();
    let rebuild_total_ms: f64 = batches.iter().map(|b| b.rebuild_ms).sum();
    let rebuild_docs: usize = (1..=batches.len()).map(|i| (per * i).min(docs.len())).sum();
    IncrementalBenchReport {
        dataset: RecipeKind::Snyt.name().to_string(),
        total_docs: docs.len(),
        n_batches: batches.len(),
        append_total_ms,
        rebuild_total_ms,
        speedup: rebuild_total_ms / append_total_ms.max(1e-9),
        append_docs_per_sec: docs.len() as f64 / (append_total_ms / 1e3).max(1e-9),
        rebuild_docs_per_sec: docs.len() as f64 / (rebuild_total_ms / 1e3).max(1e-9),
        rebuild_reprocessed_docs_per_sec: rebuild_docs as f64 / (rebuild_total_ms / 1e3).max(1e-9),
        append_resource_queries: batches.iter().map(|b| b.append_resource_queries).sum(),
        rebuild_resource_queries: batches.iter().map(|b| b.rebuild_resource_queries).sum(),
        intern: index.shard_intern_stats()[0].into(),
        // Captured at the pre-interner commit with the default
        // `--scale 0.2 --batches 5` configuration on the same host.
        before_interning: PreInterningIncremental {
            append_total_ms: 67.75,
            rebuild_total_ms: 109.73,
            speedup: 1.62,
        },
        batches,
    }
}

/// One shard count of the sharded-append benchmark sweep.
#[derive(Debug, serde::Serialize)]
pub struct ShardBenchRun {
    /// Shard count of this run.
    pub shards: usize,
    /// Total wall time across all appends.
    pub append_total_ms: f64,
    /// Net-new documents divided by total append wall time.
    pub append_docs_per_sec: f64,
    /// Baseline (1-shard run) wall time divided by this run's wall time
    /// (>1 means this run was faster). The key keeps its historical
    /// name from when the baseline was a separate unsharded index.
    pub speedup_vs_unsharded: f64,
    /// Whether this run's snapshot is string-identical (facet terms,
    /// statistics, score bits, forest edges) to the 1-shard baseline.
    pub identical_to_batch: bool,
    /// Queries that reached the wrapped resource (shared-cache misses).
    pub resource_queries: u64,
    /// Final interner counters of the merged (cross-shard) vocabulary.
    /// `len` is content-determined, so it must match across shard
    /// counts; hits count cross-shard duplicate terms folded by the
    /// u32 remap merge, so single-shard runs are mostly misses.
    pub intern: InternMetrics,
}

/// The sharded-append benchmark report (`BENCH_3.json`).
#[derive(Debug, serde::Serialize)]
pub struct ShardBenchReport {
    /// Dataset recipe name.
    pub dataset: String,
    /// Total documents indexed.
    pub total_docs: usize,
    /// Number of append batches per run.
    pub n_batches: usize,
    /// Cores the host offered the process. Shard workers are OS threads,
    /// so this bounds any parallel speedup: on a single-core host every
    /// sharded run pays partition/merge overhead with no parallelism to
    /// buy it back.
    pub host_cpus: usize,
    /// Baseline wall time over the same batches: a 1-shard run, timed
    /// before the sweep (historical key name from the unsharded index).
    pub unsharded_total_ms: f64,
    /// Final interner counters of the 1-shard baseline's shard
    /// vocabulary.
    pub unsharded_intern: InternMetrics,
    /// Headline numbers of this benchmark at the commit immediately
    /// before the interner refactor (same host, default configuration).
    pub before_interning: PreInterningShard,
    /// The sweep, in shard-count order.
    pub runs: Vec<ShardBenchRun>,
}

/// Pre-interning headline numbers for the shard benchmark.
#[derive(Debug, serde::Serialize)]
pub struct PreInterningShard {
    /// Unsharded baseline wall time before the refactor, when shard
    /// merges re-hashed every term string instead of remapping u32
    /// symbols.
    pub unsharded_total_ms: f64,
}

/// Benchmark `ShardedFacetIndex` at each shard count in `shard_counts`
/// against a 1-shard baseline run over the same growing SNYT-style
/// archive: the corpus arrives in `n_batches` slices and every run
/// indexes all of them. Every run is also checked string-identical to
/// the baseline — a sweep that gets faster by diverging is worthless.
pub fn run_shard_bench(scale: f64, n_batches: usize, shard_counts: &[usize]) -> ShardBenchReport {
    use facet_core::{FacetSnapshot, ShardedFacetIndex};
    use facet_ner::NerTagger;
    use facet_resources::{CachedResource, ContextResource, WikiGraphResource};
    use facet_termx::{NamedEntityExtractor, TermExtractor};
    use facet_wikipedia::WikipediaGraph;
    use std::time::Instant;

    let bundle = scaled_bundle(RecipeKind::Snyt, scale);
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let per = docs.len().div_ceil(n_batches.max(1));
    let options = PipelineOptions::default();

    // Id-free view of a snapshot, for the identical-to-batch check:
    // candidate rows (term, df, df_c, score bits) plus forest edges.
    type SnapshotOutputs = (Vec<(String, u64, u64, u64)>, Vec<(String, String)>);
    let outputs = |snap: &FacetSnapshot| -> SnapshotOutputs {
        let rows = snap
            .candidates()
            .iter()
            .map(|c| {
                (
                    snap.vocab().term(c.term).to_string(),
                    c.df,
                    c.df_c,
                    c.score.to_bits(),
                )
            })
            .collect();
        (rows, snap.forest().edges())
    };

    // Baseline: a 1-shard index over the same batches.
    let base_res = CachedResource::new(WikiGraphResource::new(&graph));
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&base_res];
    let mut baseline = ShardedFacetIndex::new(1, extractors, resources, options.clone());
    let t = Instant::now();
    for chunk in docs.chunks(per) {
        baseline
            .append(chunk.to_vec())
            .expect("bench batches are well-formed");
    }
    let unsharded_total_ms = t.elapsed().as_secs_f64() * 1e3;
    let expected = outputs(&baseline.snapshot());

    let mut runs = Vec::new();
    for &shards in shard_counts {
        let res = CachedResource::new(WikiGraphResource::new(&graph));
        let extractors: Vec<&dyn TermExtractor> = vec![&ne];
        let resources: Vec<&dyn ContextResource> = vec![&res];
        let mut index = ShardedFacetIndex::new(shards, extractors, resources, options.clone());
        let t = Instant::now();
        for chunk in docs.chunks(per) {
            index
                .append(chunk.to_vec())
                .expect("bench batches are well-formed");
        }
        let append_total_ms = t.elapsed().as_secs_f64() * 1e3;
        runs.push(ShardBenchRun {
            shards,
            append_total_ms,
            append_docs_per_sec: docs.len() as f64 / (append_total_ms / 1e3).max(1e-9),
            speedup_vs_unsharded: unsharded_total_ms / append_total_ms.max(1e-9),
            identical_to_batch: outputs(&index.snapshot()) == expected,
            resource_queries: index.resource_cache_stats().iter().map(|s| s.misses).sum(),
            intern: index.intern_stats().into(),
        });
    }

    ShardBenchReport {
        dataset: RecipeKind::Snyt.name().to_string(),
        total_docs: docs.len(),
        n_batches: docs.chunks(per).count(),
        host_cpus: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        unsharded_total_ms,
        unsharded_intern: baseline.shard_intern_stats()[0].into(),
        // Captured at the pre-interner commit with the default
        // `--scale 0.2 --batches 5` configuration on the same host.
        before_interning: PreInterningShard {
            unsharded_total_ms: 48.05,
        },
        runs,
    }
}

/// One fault seed of the resilience benchmark.
#[derive(Debug, serde::Serialize)]
pub struct ResilienceFaultRun {
    /// Seed of the deterministic fault plan.
    pub fault_seed: u64,
    /// Per-term failure probability in permille.
    pub failure_permille: u16,
    /// Wall time of the degraded build (faults active).
    pub build_ms: f64,
    /// Terms that lost coverage during the degraded build.
    pub degraded_terms: usize,
    /// Wall time of the [`facet_core::ShardedFacetIndex::repair`] backfill after
    /// the fault healed.
    pub repair_ms: f64,
    /// Degraded terms re-queried by the repair pass.
    pub requeried_terms: usize,
    /// Terms whose coverage the repair pass restored.
    pub repaired_terms: usize,
    /// Documents whose contextualized rows the repair recomputed.
    pub changed_docs: usize,
    /// Whether the repaired snapshot is string-identical to the
    /// fault-free build and reports full coverage.
    pub converged: bool,
}

/// The resilience benchmark report (`BENCH_4.json`).
#[derive(Debug, serde::Serialize)]
pub struct ResilienceBenchReport {
    /// Dataset recipe name.
    pub dataset: String,
    /// Total documents indexed per build.
    pub total_docs: usize,
    /// Timed iterations per configuration (wall times below are the
    /// mean across iterations, with the per-iteration samples and the
    /// sample standard deviation reported alongside).
    pub iterations: usize,
    /// Per-iteration wall times of the fault-free build with raw
    /// resources (no policy layer).
    pub baseline_samples_ms: Vec<f64>,
    /// Per-iteration wall times of the fault-free build with every
    /// resource behind a [`facet_resources::ResilientResource`]
    /// (retries + breaker armed, never triggered).
    pub resilient_samples_ms: Vec<f64>,
    /// Mean fault-free build time with raw resources.
    pub baseline_build_ms: f64,
    /// Sample standard deviation of the baseline iterations.
    pub baseline_stddev_ms: f64,
    /// Mean fault-free build time behind the policy layer.
    pub resilient_build_ms: f64,
    /// Sample standard deviation of the resilient iterations.
    pub resilient_stddev_ms: f64,
    /// `(resilient - baseline) / baseline` on the means, in percent.
    /// May be negative when the difference is inside scheduler noise.
    pub overhead_raw_pct: f64,
    /// The noise band, in percent of the baseline mean: one combined
    /// standard deviation of the two sample sets.
    pub overhead_noise_pct: f64,
    /// Whether the measured overhead is indistinguishable from noise
    /// (`|overhead_raw_pct| <= overhead_noise_pct`).
    pub overhead_within_noise: bool,
    /// Reported overhead: the raw percentage clamped below at zero —
    /// a negative measurement means "within noise", not a speedup. The
    /// acceptance bar is ≤ 5% on the fault-free path, or within noise.
    pub overhead_pct: f64,
    /// Whether the policy-wrapped fault-free build is string-identical
    /// to the baseline.
    pub resilient_identical: bool,
    /// Final interner counters of the last fault-free baseline build's
    /// (single) shard vocabulary.
    pub intern: InternMetrics,
    /// Headline numbers of this benchmark at the commit immediately
    /// before the interner refactor (same host, default configuration).
    pub before_interning: PreInterningResilience,
    /// One degraded-build + repair cycle per fault seed.
    pub fault_runs: Vec<ResilienceFaultRun>,
}

/// Pre-interning headline numbers for the resilience benchmark.
#[derive(Debug, serde::Serialize)]
pub struct PreInterningResilience {
    /// Mean fault-free build time with raw resources before the
    /// refactor.
    pub baseline_build_ms: f64,
    /// Mean fault-free build time behind the policy layer before the
    /// refactor.
    pub resilient_build_ms: f64,
    /// Raw overhead percentage before the refactor (negative = within
    /// noise).
    pub overhead_raw_pct: f64,
}

/// Mean of a non-empty sample set.
fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Sample standard deviation (Bessel-corrected); zero for n < 2.
fn sample_stddev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    let var = samples.iter().map(|s| (s - m) * (s - m)).sum::<f64>() / (samples.len() - 1) as f64;
    var.sqrt()
}

/// Benchmark the resilience layer: what does wrapping every resource in
/// a [`facet_resources::ResilientResource`] cost on the fault-free path,
/// and how expensive is a degraded build plus its
/// [`facet_core::ShardedFacetIndex::repair`] backfill under seeded faults.
///
/// Fault-free builds run `iterations` times; the report carries every
/// per-iteration sample plus mean and sample standard deviation, and the
/// overhead percentage compares the means with an explicit noise band —
/// a measured difference smaller than one combined standard deviation is
/// flagged `overhead_within_noise` and a negative raw overhead is
/// clamped to zero rather than reported as a speedup.
pub fn run_resilience_bench(scale: f64, iterations: usize, seeds: &[u64]) -> ResilienceBenchReport {
    use facet_core::{FacetSnapshot, ShardedFacetIndex};
    use facet_ner::NerTagger;
    use facet_resources::{
        ContextResource, ExpansionOptions, FaultPlan, FaultyResource, ResilientResource,
        VirtualClock, WikiGraphResource, WordNetHypernymsResource,
    };
    use facet_termx::{NamedEntityExtractor, TermExtractor, YahooTermExtractor};
    use facet_wikipedia::WikipediaGraph;
    use std::time::Instant;

    let bundle = scaled_bundle(RecipeKind::Snyt, scale);
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    // Yahoo terms include common nouns, so WordNet hypernyms (the faulted
    // resource below) genuinely shape the contextualized database.
    let yahoo = YahooTermExtractor::fit(&bundle.corpus.db, &bundle.vocab);
    let docs = bundle.corpus.db.docs().to_vec();
    let options = PipelineOptions {
        // Serial expansion keeps the breaker's shed set deterministic, so
        // the degraded-terms column is reproducible run to run.
        expansion: ExpansionOptions { threads: 1 },
        ..PipelineOptions::default()
    };
    let iterations = iterations.max(1);

    type SnapshotOutputs = (Vec<(String, u64, u64, u64)>, Vec<(String, String)>);
    let outputs = |snap: &FacetSnapshot| -> SnapshotOutputs {
        let rows = snap
            .candidates()
            .iter()
            .map(|c| {
                (
                    snap.vocab().term(c.term).to_string(),
                    c.df,
                    c.df_c,
                    c.score.to_bits(),
                )
            })
            .collect();
        (rows, snap.forest().edges())
    };

    // Fault-free comparison: raw resources vs the same resources behind
    // ResilientResource (retries and breaker armed, never triggered) —
    // the overhead the acceptance bar caps. The two configurations are
    // interleaved within each iteration so scheduler/thermal noise hits
    // both sides alike, and the means are compared.
    let mut baseline_samples_ms: Vec<f64> = Vec::with_capacity(iterations);
    let mut resilient_samples_ms: Vec<f64> = Vec::with_capacity(iterations);
    let mut resilient_identical = true;
    let mut expected: Option<SnapshotOutputs> = None;
    let mut intern_stats = facet_textkit::InternStats::default();
    for _ in 0..iterations {
        let graph_res = WikiGraphResource::new(&graph);
        let wn_res = WordNetHypernymsResource::new(&bundle.wordnet);
        let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
        let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
        let t = Instant::now();
        let index =
            ShardedFacetIndex::build(docs.clone(), 1, extractors, resources, options.clone())
                .expect("bench corpus is well-formed");
        baseline_samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        expected.get_or_insert_with(|| outputs(&index.snapshot()));
        intern_stats = index.shard_intern_stats()[0];

        let clock = VirtualClock::new();
        let graph_res = ResilientResource::new(WikiGraphResource::new(&graph), clock.clone());
        let wn_res = ResilientResource::new(
            WordNetHypernymsResource::new(&bundle.wordnet),
            clock.clone(),
        );
        let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
        let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
        let t = Instant::now();
        let index =
            ShardedFacetIndex::build(docs.clone(), 1, extractors, resources, options.clone())
                .expect("bench corpus is well-formed");
        resilient_samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        resilient_identical &=
            outputs(&index.snapshot()) == *expected.as_ref().expect("baseline ran first");
    }
    let expected = expected.expect("at least one iteration ran");

    // Degraded build + repair cycle per fault seed: WordNet fails for a
    // seeded subset of terms, the build degrades gracefully, the fault
    // heals, and repair() backfills only the degraded terms.
    let permille = 300u16;
    let mut fault_runs = Vec::new();
    for &seed in seeds {
        let clock = VirtualClock::new();
        let graph_res = WikiGraphResource::new(&graph);
        let faulty = FaultyResource::new(
            WordNetHypernymsResource::new(&bundle.wordnet),
            FaultPlan::seeded(seed, permille),
            clock.clone(),
        );
        let wn_res = ResilientResource::new(faulty, clock.clone());
        let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
        let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
        let t = Instant::now();
        let mut index =
            ShardedFacetIndex::build(docs.clone(), 1, extractors, resources, options.clone())
                .expect("bench corpus is well-formed");
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        let degraded_terms = index.snapshot().degraded().len();

        wn_res.inner().heal();
        // Let any breaker cooldown elapse on the virtual clock.
        clock.advance_us(1_000_000);
        let t = Instant::now();
        let stats = index.repair().expect("repair on a healed resource");
        let repair_ms = t.elapsed().as_secs_f64() * 1e3;
        let snap = index.snapshot();
        fault_runs.push(ResilienceFaultRun {
            fault_seed: seed,
            failure_permille: permille,
            build_ms,
            degraded_terms,
            repair_ms,
            requeried_terms: stats.requeried_terms,
            repaired_terms: stats.repaired_terms,
            changed_docs: stats.changed_docs,
            converged: snap.is_fully_covered() && outputs(&snap) == expected,
        });
    }

    let baseline_build_ms = mean(&baseline_samples_ms);
    let resilient_build_ms = mean(&resilient_samples_ms);
    let baseline_stddev_ms = sample_stddev(&baseline_samples_ms);
    let resilient_stddev_ms = sample_stddev(&resilient_samples_ms);
    let overhead_raw_pct =
        (resilient_build_ms - baseline_build_ms) / baseline_build_ms.max(1e-9) * 100.0;
    // One combined standard deviation of the difference of means, as a
    // percentage of the baseline mean.
    let overhead_noise_pct = (baseline_stddev_ms * baseline_stddev_ms
        + resilient_stddev_ms * resilient_stddev_ms)
        .sqrt()
        / baseline_build_ms.max(1e-9)
        * 100.0;
    ResilienceBenchReport {
        dataset: RecipeKind::Snyt.name().to_string(),
        total_docs: docs.len(),
        iterations,
        baseline_samples_ms,
        resilient_samples_ms,
        baseline_build_ms,
        baseline_stddev_ms,
        resilient_build_ms,
        resilient_stddev_ms,
        overhead_raw_pct,
        overhead_noise_pct,
        overhead_within_noise: overhead_raw_pct.abs() <= overhead_noise_pct,
        overhead_pct: overhead_raw_pct.max(0.0),
        resilient_identical,
        intern: intern_stats.into(),
        // Captured at the pre-interner commit with the default
        // `--scale 0.2 --iters 3` configuration on the same host.
        before_interning: PreInterningResilience {
            baseline_build_ms: 54.29,
            resilient_build_ms: 53.23,
            overhead_raw_pct: -1.97,
        },
        fault_runs,
    }
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
        build_hierarchies: false,
        subsumption_doc_cap: 3000,
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

/// Configuration of the serving-tier load benchmark.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LoadBenchConfig {
    /// Corpus scale (1.0 = paper scale).
    pub scale: f64,
    /// Shard count of the serving index.
    pub shards: usize,
    /// Concurrent reader threads in the contended phase.
    pub readers: usize,
    /// Queries each reader issues in the contended phase.
    pub queries_per_reader: usize,
    /// Append batches the writer publishes while readers run.
    pub mid_run_appends: usize,
    /// Zipf exponent of the query mix (rank 0 = most prominent facet).
    pub zipf_exponent: f64,
    /// RNG seed; reader `r` derives its stream from `seed + r`.
    pub seed: u64,
}

impl Default for LoadBenchConfig {
    fn default() -> Self {
        Self {
            scale: 0.2,
            shards: 4,
            readers: 4,
            queries_per_reader: 300,
            mid_run_appends: 3,
            zipf_exponent: 1.07,
            seed: 42,
        }
    }
}

/// The serving-tier load benchmark report (`BENCH_5.json`).
#[derive(Debug, serde::Serialize)]
pub struct LoadBenchReport {
    /// Dataset recipe name.
    pub dataset: String,
    /// The configuration that produced this report.
    pub config: LoadBenchConfig,
    /// Documents indexed before the contended phase started.
    pub initial_docs: usize,
    /// Documents indexed after all mid-run appends landed.
    pub total_docs: usize,
    /// Cores the host offered the process (bounds reader parallelism).
    pub host_cpus: usize,
    /// Distinct labels in the Zipfian query pool (forest roots first,
    /// then their children, in forest order).
    pub query_pool: usize,
    /// Published generation after the final append.
    pub final_generation: u64,
    /// Signature-cache hits during the contended phase.
    pub cache_hits: u64,
    /// Signature-cache misses during the contended phase.
    pub cache_misses: u64,
    /// `hits / (hits + misses)` of the contended phase.
    pub cache_hit_rate: f64,
    /// Cache entries dropped by generation bumps over the whole run.
    pub cache_invalidations: u64,
    /// p50 latency of `ServeHandle::browse` under contention, µs.
    pub browse_p50_us: f64,
    /// p99 latency of `ServeHandle::browse` under contention, µs.
    pub browse_p99_us: f64,
    /// p50 latency of a guaranteed cache hit (quiescent, single
    /// thread), µs.
    pub cached_hit_p50_us: f64,
    /// p99 latency of a guaranteed cache hit (quiescent, single
    /// thread), µs.
    pub cached_hit_p99_us: f64,
    /// p50 latency of an uncached fan-out re-selection over the same
    /// queries (quiescent, single thread), µs.
    pub uncached_p50_us: f64,
    /// p99 latency of an uncached fan-out re-selection over the same
    /// queries (quiescent, single thread), µs.
    pub uncached_p99_us: f64,
    /// `uncached_p50_us / cached_hit_p50_us` — the ISSUE 8 acceptance
    /// bar is ≥ 2.
    pub cached_vs_uncached_speedup: f64,
    /// Same-generation cached-vs-uncached byte-identity comparisons
    /// performed during the contended phase (one per browse whose
    /// pinned snapshot still matched the answer's generation).
    pub identity_checks: u64,
    /// Comparisons skipped because a concurrent append moved the
    /// generation between the cached answer and the pinned snapshot.
    pub identity_skipped_generation_race: u64,
    /// Byte-identity failures — must be 0.
    pub identity_mismatches: u64,
    /// FNV-1a digest over the canonical browse output of every pool
    /// query before and after the appends, plus the pool itself. Two
    /// runs of the same configuration must produce the same digest.
    pub digest: String,
}

/// Nearest-rank percentile over an unsorted sample of nanosecond
/// latencies, reported in microseconds (cache hits are sub-µs, so the
/// samples are captured at nanosecond resolution).
fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx.min(samples.len() - 1)] as f64 / 1e3
}

/// Drive a seeded Zipfian query mix against a `FacetServer` under
/// concurrent appends (the tentpole measurement of ISSUE 8).
///
/// Three phases:
/// 1. **Baseline (quiescent, single thread)** — every pool query is
///    answered uncached (timed), then twice through the cache so the
///    second answer is a guaranteed hit (timed). The cached and
///    uncached answers are asserted byte-identical; canonical outputs
///    fold into the determinism digest.
/// 2. **Contended** — `readers` threads each replay their own seeded
///    Zipfian mix through a shared [`facet_core::ServeHandle`] while
///    the writer appends `mid_run_appends` batches. Every browse is
///    re-answered uncached against a pinned snapshot and compared
///    byte-for-byte whenever the generations match (a concurrent
///    publish between the two reads is counted, not compared).
/// 3. **Post-append sweep (quiescent)** — every pool query again, at
///    the final generation, folded into the digest: same config ⇒
///    same digest, run to run.
pub fn run_load_bench(config: &LoadBenchConfig) -> LoadBenchReport {
    use facet_core::{fanout_browse, FacetServer, ShardedFacetIndex};
    use facet_ner::NerTagger;
    use facet_resources::{CachedResource, ContextResource, WikiGraphResource};
    use facet_termx::{NamedEntityExtractor, TermExtractor};
    use facet_textkit::Zipf;
    use facet_wikipedia::WikipediaGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Instant;

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let fold = |digest: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *digest ^= u64::from(b);
            *digest = digest.wrapping_mul(FNV_PRIME);
        }
    };

    let bundle = scaled_bundle(RecipeKind::Snyt, config.scale);
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let docs = bundle.corpus.db.docs().to_vec();
    let options = PipelineOptions::default();
    let res = CachedResource::new(WikiGraphResource::new(&graph));
    let extractors: Vec<&dyn TermExtractor> = vec![&ne];
    let resources: Vec<&dyn ContextResource> = vec![&res];

    // Reserve the tail of the corpus for the mid-run appends.
    let appends = config.mid_run_appends;
    let batch = (docs.len() / 20).max(1);
    let reserved = (batch * appends).min(docs.len().saturating_sub(1));
    let (initial, tail) = docs.split_at(docs.len() - reserved);
    let append_batches: Vec<Vec<_>> = tail.chunks(batch.max(1)).map(<[_]>::to_vec).collect();

    let mut index = ShardedFacetIndex::new(config.shards, extractors, resources, options);
    index
        .append(initial.to_vec())
        .expect("bench batches are well-formed");
    let mut server = FacetServer::new(index);
    let handle = server.handle();

    // Query pool: forest roots then their children, forest order.
    let snapshot = server.snapshot();
    let forest = snapshot.merged().forest();
    let mut pool: Vec<String> = Vec::new();
    for tree in &forest.trees {
        pool.push(forest.label(&tree.root).to_string());
        for child in &tree.root.children {
            pool.push(forest.label(child).to_string());
        }
    }
    let mut seen = std::collections::HashSet::new();
    pool.retain(|label| seen.insert(label.clone()));
    if pool.is_empty() {
        // Degenerate corpus (ultra-small smoke scales): fall back to
        // the ranked candidate labels so the bench still exercises the
        // cache machinery.
        let merged = snapshot.merged();
        pool = merged
            .candidates()
            .iter()
            .take(16)
            .map(|c| merged.vocab().term(c.term).to_string())
            .collect();
    }
    assert!(!pool.is_empty(), "load bench needs a non-empty query pool");

    // Pre-draw every reader's Zipfian mix so the contended phase does
    // no RNG work and two runs replay identical query streams.
    let zipf = Zipf::new(pool.len(), config.zipf_exponent);
    let mixes: Vec<Vec<Vec<String>>> = (0..config.readers)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(config.seed + r as u64);
            (0..config.queries_per_reader)
                .map(|_| {
                    let first = zipf.sample(rng.gen::<f64>());
                    let mut q = vec![pool[first].clone()];
                    if rng.gen::<f64>() < 0.25 {
                        q.push(pool[zipf.sample(rng.gen::<f64>())].clone());
                    }
                    q
                })
                .collect()
        })
        .collect();

    // Phase 1 — quiescent baseline over the whole pool.
    let mut digest = FNV_OFFSET;
    for label in &pool {
        fold(&mut digest, label.as_bytes());
        fold(&mut digest, &[0xFE]);
    }
    let mut uncached_us: Vec<u64> = Vec::with_capacity(pool.len());
    let mut hit_us: Vec<u64> = Vec::with_capacity(pool.len());
    for label in &pool {
        let query = [label.as_str()];
        let t = Instant::now();
        let uncached = handle.browse_uncached(&query);
        uncached_us.push(t.elapsed().as_nanos() as u64);
        let primed = handle.browse(&query);
        let t = Instant::now();
        let cached = handle.browse(&query);
        hit_us.push(t.elapsed().as_nanos() as u64);
        assert!(
            std::sync::Arc::ptr_eq(&primed, &cached),
            "second browse of an unchanged generation must be a cache hit"
        );
        let canon = uncached.canonical();
        assert_eq!(
            canon,
            cached.canonical(),
            "cached browse diverged from uncached re-selection for {label:?}"
        );
        fold(&mut digest, canon.as_bytes());
    }

    // Phase 2 — contended: readers replay their mixes while the writer
    // appends. Every browse is checked byte-identical against a fresh
    // fan-out whenever the pinned snapshot still has the answer's
    // generation.
    let stats_before = handle.cache_stats();
    let mut browse_us: Vec<u64> = Vec::new();
    let mut identity_checks = 0u64;
    let mut identity_skipped = 0u64;
    let mut identity_mismatches = 0u64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = mixes
            .iter()
            .map(|mix| {
                let h = handle.clone();
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(mix.len());
                    let (mut checks, mut skipped, mut bad) = (0u64, 0u64, 0u64);
                    for q in mix {
                        let query: Vec<&str> = q.iter().map(String::as_str).collect();
                        let t = Instant::now();
                        let answer = h.browse(&query);
                        lat.push(t.elapsed().as_nanos() as u64);
                        let pinned = h.snapshot();
                        if pinned.generation() == answer.generation {
                            let fresh = fanout_browse(&pinned, &query);
                            checks += 1;
                            if fresh.canonical() != answer.canonical() {
                                bad += 1;
                            }
                        } else {
                            skipped += 1;
                        }
                    }
                    (lat, checks, skipped, bad)
                })
            })
            .collect();
        for batch in append_batches {
            server.append(batch).expect("bench batches are well-formed");
            std::thread::yield_now();
        }
        for worker in workers {
            let (lat, checks, skipped, bad) = worker.join().expect("reader thread panicked");
            browse_us.extend(lat);
            identity_checks += checks;
            identity_skipped += skipped;
            identity_mismatches += bad;
        }
    });
    let stats_after = handle.cache_stats();

    // Phase 3 — post-append deterministic sweep at the final generation.
    let final_snapshot = server.snapshot();
    for label in &pool {
        let fresh = fanout_browse(&final_snapshot, &[label.as_str()]);
        fold(&mut digest, fresh.canonical().as_bytes());
    }

    let hits = stats_after.hits - stats_before.hits;
    let misses = stats_after.misses - stats_before.misses;
    let uncached_p50 = percentile_us(&mut uncached_us, 0.50);
    let hit_p50 = percentile_us(&mut hit_us, 0.50);
    LoadBenchReport {
        dataset: RecipeKind::Snyt.name().to_string(),
        config: config.clone(),
        initial_docs: initial.len(),
        total_docs: docs.len(),
        host_cpus: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        query_pool: pool.len(),
        final_generation: final_snapshot.generation(),
        cache_hits: hits,
        cache_misses: misses,
        cache_hit_rate: hits as f64 / ((hits + misses) as f64).max(1.0),
        cache_invalidations: stats_after.invalidations,
        browse_p50_us: percentile_us(&mut browse_us, 0.50),
        browse_p99_us: percentile_us(&mut browse_us, 0.99),
        cached_hit_p50_us: hit_p50,
        cached_hit_p99_us: percentile_us(&mut hit_us, 0.99),
        uncached_p50_us: uncached_p50,
        uncached_p99_us: percentile_us(&mut uncached_us, 0.99),
        cached_vs_uncached_speedup: uncached_p50 / hit_p50.max(1e-3),
        identity_checks,
        identity_skipped_generation_race: identity_skipped,
        identity_mismatches,
        digest: format!("{digest:016x}"),
    }
}

/// One corruption drill of the durability benchmark.
#[derive(Debug, serde::Serialize)]
pub struct DurabilityFaultDrill {
    /// Seed of the deterministic damage position.
    pub fault_seed: u64,
    /// Damage scenario: `"corrupt-section"` (one flipped bit in the
    /// newest snapshot file) or `"torn-tail"` (the WAL cut mid-record,
    /// as a crash during an append would leave it).
    pub scenario: String,
    /// Wall time of the `open_from` recovery under this damage.
    pub recover_ms: f64,
    /// Whether recovery fell back past the newest snapshot.
    pub fell_back: bool,
    /// Whether recovery truncated a torn WAL tail.
    pub tail_truncated: bool,
    /// WAL records replayed through the live append/repair paths.
    pub replayed_records: usize,
    /// Generation of the snapshot the recovery restarted from (the
    /// newest one that verified; replay continues past it).
    pub recovered_generation: u64,
    /// Whether the recovered index — plus, for a torn tail, a retry of
    /// the one unacknowledged batch — is digest-identical to the
    /// reference build.
    pub digest_match: bool,
}

/// The durability benchmark report (`BENCH_6.json`).
#[derive(Debug, serde::Serialize)]
pub struct DurabilityBenchReport {
    /// Dataset recipe name.
    pub dataset: String,
    /// Total documents indexed per build.
    pub total_docs: usize,
    /// Timed iterations per configuration (means below, with the
    /// per-iteration samples and sample standard deviation alongside).
    pub iterations: usize,
    /// Size of one full-corpus snapshot file on disk.
    pub snapshot_bytes: u64,
    /// Sections in that snapshot (verified by re-decoding the file).
    pub snapshot_sections: usize,
    /// Per-iteration wall times of `persist_to` into a fresh store.
    pub persist_samples_ms: Vec<f64>,
    /// Mean snapshot publication time.
    pub persist_ms: f64,
    /// Sample standard deviation of the persist iterations.
    pub persist_stddev_ms: f64,
    /// Snapshot publication throughput, decimal MB/s.
    pub snapshot_write_mb_s: f64,
    /// Per-iteration wall times of a from-scratch 1-shard build
    /// (the recovery alternative the store exists to avoid).
    pub rebuild_samples_ms: Vec<f64>,
    /// Mean from-scratch rebuild time.
    pub rebuild_ms: f64,
    /// Sample standard deviation of the rebuild iterations.
    pub rebuild_stddev_ms: f64,
    /// Per-iteration wall times of `open_from` on a healthy
    /// snapshot-only store (no WAL tail to replay).
    pub recover_samples_ms: Vec<f64>,
    /// Mean snapshot recovery time.
    pub recover_ms: f64,
    /// Sample standard deviation of the recover iterations.
    pub recover_stddev_ms: f64,
    /// `rebuild_ms / recover_ms` — the headline number; the acceptance
    /// bar requires recovery at least 5× faster than rebuilding.
    pub recovery_vs_rebuild_speedup: f64,
    /// Whether every snapshot recovery was clean (no fallback, no
    /// replay) and digest-identical to the batch build.
    pub recover_digest_match: bool,
    /// WAL records physically present in the incremental template's
    /// tail (including one already covered by the newest snapshot).
    pub wal_tail_records: usize,
    /// Bytes of that WAL tail on disk.
    pub wal_tail_bytes: u64,
    /// Wall time of `open_from` on the clean incremental template
    /// (snapshot load plus WAL-tail replay).
    pub replay_recover_ms: f64,
    /// Records the clean replay recovery applied.
    pub replay_replayed_records: usize,
    /// WAL replay throughput in records per second.
    pub wal_replay_records_per_s: f64,
    /// Whether the replay recovery converged digest-identically to the
    /// live incremental build.
    pub replay_digest_match: bool,
    /// One corrupt-section and one torn-tail drill per fault seed.
    pub fault_drills: Vec<DurabilityFaultDrill>,
}

/// Seeded deterministic draw for damage positions (FNV-1a mix; mirrors
/// the recovery integration tests).
fn damage_draw(seed: u64, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in salt.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Copy a flat store directory (snapshot files + WAL) into a fresh
/// target so each drill damages its own copy of the template.
fn copy_store_dir(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).expect("create drill dir");
    for entry in std::fs::read_dir(src).expect("read template dir") {
        let entry = entry.expect("read template entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
    }
}

/// Benchmark the durability tier: how fast is recovering an index from
/// a versioned snapshot (vs rebuilding it from the raw corpus), what
/// does WAL-tail replay cost per record, and does recovery converge
/// digest-identically under seeded corruption — a flipped byte in the
/// newest snapshot (fallback + full-tail replay) and a torn WAL tail (a
/// crash mid-append, truncate + retry).
///
/// The incremental template is built once per run — two snapshot
/// generations plus a three-record WAL tail — and every drill damages
/// its own copy, so the drills are independent and deterministic per
/// seed.
pub fn run_durability_bench(scale: f64, iterations: usize, seeds: &[u64]) -> DurabilityBenchReport {
    use facet_core::{PipelineOptions, ShardedFacetIndex};
    use facet_corpus::Document;
    use facet_ner::NerTagger;
    use facet_resources::{
        ContextResource, ExpansionOptions, WikiGraphResource, WordNetHypernymsResource,
    };
    use facet_store::{decode_snapshot, snapshot_file_name, FacetStore, WAL_FILE};
    use facet_termx::{NamedEntityExtractor, TermExtractor, YahooTermExtractor};
    use facet_wikipedia::WikipediaGraph;
    use std::fs;
    use std::time::Instant;

    let iterations = iterations.max(1);
    let bundle = scaled_bundle(RecipeKind::Snyt, scale);
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let yahoo = YahooTermExtractor::fit(&bundle.corpus.db, &bundle.vocab);
    let graph_res = WikiGraphResource::new(&graph);
    let wn_res = WordNetHypernymsResource::new(&bundle.wordnet);
    let docs = bundle.corpus.db.docs().to_vec();
    assert!(
        docs.len() >= 4,
        "durability bench needs at least 4 documents; raise --scale"
    );
    let options = PipelineOptions {
        // Serial expansion keeps builds and replays deterministic, so
        // digest comparisons are exact rather than probabilistic.
        expansion: ExpansionOptions { threads: 1 },
        ..PipelineOptions::default()
    };
    let root = std::env::temp_dir().join(format!("facet-durability-bench-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    fs::create_dir_all(&root).expect("create bench scratch dir");

    // Rebuild baseline: a from-scratch batch build — the alternative
    // recovery path the snapshot store must beat.
    let mut rebuild_samples_ms: Vec<f64> = Vec::with_capacity(iterations);
    let mut reference_digest = 0u64;
    for _ in 0..iterations {
        let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
        let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
        let t = Instant::now();
        let index =
            ShardedFacetIndex::build(docs.clone(), 1, extractors, resources, options.clone())
                .expect("bench corpus is well-formed");
        rebuild_samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        reference_digest = index.snapshot().digest();
    }

    // Snapshot publication: persist the batch build into a fresh store
    // per iteration (atomic write + fsync + rename + retention).
    let batch = {
        let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
        let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
        ShardedFacetIndex::build(docs.clone(), 1, extractors, resources, options.clone())
            .expect("bench corpus is well-formed")
    };
    let mut persist_samples_ms: Vec<f64> = Vec::with_capacity(iterations);
    let mut snap_dir = root.join("persist-0");
    for i in 0..iterations {
        let dir = root.join(format!("persist-{i}"));
        let store = FacetStore::open(&dir).expect("open fresh store");
        let t = Instant::now();
        batch.persist_to(&store).expect("persist batch snapshot");
        persist_samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        snap_dir = dir;
    }
    let snap_file = fs::read(snap_dir.join(snapshot_file_name(1))).expect("read snapshot file");
    let snapshot_bytes = snap_file.len() as u64;
    let snapshot_sections = decode_snapshot(&snap_file)
        .expect("persisted snapshot verifies")
        .sections
        .len();

    // Snapshot recovery: reopen the persisted store cold and compare
    // against rebuilding from the corpus.
    let mut recover_samples_ms: Vec<f64> = Vec::with_capacity(iterations);
    let mut recover_digest_match = true;
    for _ in 0..iterations {
        let store = FacetStore::open(&snap_dir).expect("reopen persisted store");
        let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
        let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
        let t = Instant::now();
        let (recovered, report) =
            ShardedFacetIndex::open_from(&store, 1, extractors, resources, options.clone())
                .expect("recover from a healthy snapshot");
        recover_samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        recover_digest_match &= !report.fell_back
            && report.replayed_records == 0
            && recovered.snapshot().digest() == reference_digest;
    }

    // Incremental template: two snapshot generations plus a WAL tail of
    // three records. Generation 4 lives only in the WAL, so recovery
    // must replay; the boundary before the last record lets the
    // torn-tail drills cut inside it.
    let quarter = docs.len().div_ceil(4);
    let chunks: Vec<Vec<Document>> = docs.chunks(quarter).map(<[Document]>::to_vec).collect();
    let template = root.join("template");
    let store = FacetStore::open(&template).expect("open template store");
    let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
    let mut live = ShardedFacetIndex::new(1, extractors, resources, options.clone());
    live.append_logged(chunks[0].clone(), &store)
        .expect("append chunk 0");
    live.persist_to(&store).expect("publish snapshot 1");
    live.append_logged(chunks[1].clone(), &store)
        .expect("append chunk 1");
    live.persist_to(&store).expect("publish snapshot 2");
    live.append_logged(chunks[2].clone(), &store)
        .expect("append chunk 2");
    let wal_boundary = fs::metadata(template.join(WAL_FILE))
        .expect("stat WAL")
        .len();
    live.append_logged(chunks[3].clone(), &store)
        .expect("append chunk 3");
    let incremental_digest = live.snapshot().digest();
    let wal_tail_bytes = fs::metadata(template.join(WAL_FILE))
        .expect("stat WAL")
        .len();
    // Retention keeps snapshots 1 and 2, so pruning left the record of
    // generation 2 plus the two unsnapshotted records (3 and 4).
    let wal_tail_records = 3usize;

    // Clean replay: snapshot 2 plus the two records past it.
    let replay_dir = root.join("replay");
    copy_store_dir(&template, &replay_dir);
    let store = FacetStore::open(&replay_dir).expect("open replay store");
    let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
    let t = Instant::now();
    let (replayed, report) =
        ShardedFacetIndex::open_from(&store, 1, extractors, resources, options.clone())
            .expect("recover the clean incremental template");
    let replay_recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let replay_replayed_records = report.replayed_records;
    let replay_digest_match = report.generation == 2
        && !report.fell_back
        && replayed.snapshot().digest() == incremental_digest;

    // Fault drills: each seed damages its own copy of the template.
    let mut fault_drills = Vec::new();
    for &seed in seeds {
        // A flipped bit anywhere in the newest snapshot breaks one of
        // its checksums; recovery must fall back to snapshot 1 and
        // replay the full three-record tail.
        let dir = root.join(format!("drill-corrupt-{seed:x}"));
        copy_store_dir(&template, &dir);
        let snap2 = dir.join(snapshot_file_name(2));
        let mut bytes = fs::read(&snap2).expect("read drill snapshot");
        let pos = (damage_draw(seed, 1) % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << (damage_draw(seed, 2) % 8);
        fs::write(&snap2, &bytes).expect("write damaged snapshot");
        let store = FacetStore::open(&dir).expect("open corrupt-drill store");
        let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
        let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
        let t = Instant::now();
        let (recovered, report) =
            ShardedFacetIndex::open_from(&store, 1, extractors, resources, options.clone())
                .expect("fall back past the corrupt snapshot");
        let recover_ms = t.elapsed().as_secs_f64() * 1e3;
        fault_drills.push(DurabilityFaultDrill {
            fault_seed: seed,
            scenario: "corrupt-section".to_string(),
            recover_ms,
            fell_back: report.fell_back,
            tail_truncated: report.tail_truncated,
            replayed_records: report.replayed_records,
            recovered_generation: report.generation,
            digest_match: recovered.snapshot().digest() == incremental_digest,
        });

        // A WAL cut inside the last record models a crash mid-append:
        // recovery truncates the torn tail, converges to generation 3,
        // and the caller retries the one unacknowledged batch.
        let dir = root.join(format!("drill-torn-{seed:x}"));
        copy_store_dir(&template, &dir);
        let wal = dir.join(WAL_FILE);
        let len = fs::metadata(&wal).expect("stat drill WAL").len();
        let cut = wal_boundary + 1 + damage_draw(seed, 3) % (len - wal_boundary - 1);
        fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .expect("open drill WAL")
            .set_len(cut)
            .expect("tear drill WAL");
        let store = FacetStore::open(&dir).expect("open torn-drill store");
        let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
        let resources: Vec<&dyn ContextResource> = vec![&graph_res, &wn_res];
        let t = Instant::now();
        let (mut recovered, report) =
            ShardedFacetIndex::open_from(&store, 1, extractors, resources, options.clone())
                .expect("truncate the torn tail and recover");
        let recover_ms = t.elapsed().as_secs_f64() * 1e3;
        recovered
            .append_logged(chunks[3].clone(), &store)
            .expect("retry the torn batch");
        fault_drills.push(DurabilityFaultDrill {
            fault_seed: seed,
            scenario: "torn-tail".to_string(),
            recover_ms,
            fell_back: report.fell_back,
            tail_truncated: report.tail_truncated,
            replayed_records: report.replayed_records,
            recovered_generation: report.generation,
            digest_match: recovered.snapshot().digest() == incremental_digest,
        });
    }
    fs::remove_dir_all(&root).ok();

    let persist_ms = mean(&persist_samples_ms);
    let rebuild_ms = mean(&rebuild_samples_ms);
    let recover_ms = mean(&recover_samples_ms);
    DurabilityBenchReport {
        dataset: RecipeKind::Snyt.name().to_string(),
        total_docs: docs.len(),
        iterations,
        snapshot_bytes,
        snapshot_sections,
        persist_stddev_ms: sample_stddev(&persist_samples_ms),
        persist_samples_ms,
        persist_ms,
        snapshot_write_mb_s: snapshot_bytes as f64 / 1e6 / (persist_ms / 1e3).max(1e-9),
        rebuild_stddev_ms: sample_stddev(&rebuild_samples_ms),
        rebuild_samples_ms,
        rebuild_ms,
        recover_stddev_ms: sample_stddev(&recover_samples_ms),
        recover_samples_ms,
        recover_ms,
        recovery_vs_rebuild_speedup: rebuild_ms / recover_ms.max(1e-9),
        recover_digest_match,
        wal_tail_records,
        wal_tail_bytes,
        replay_recover_ms,
        replay_replayed_records,
        wal_replay_records_per_s: replay_replayed_records as f64
            / (replay_recover_ms / 1e3).max(1e-9),
        replay_digest_match,
        fault_drills,
    }
}
