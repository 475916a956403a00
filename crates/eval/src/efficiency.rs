//! The Section V-D efficiency study.
//!
//! The paper's absolute numbers are dominated by 2005-era remote web
//! services: term extraction took 2–3 s/document *because of the Yahoo!
//! web service* (>100 docs/s without it); expansion took ~1 s/document
//! with Google but >100 docs/s with the local resources (Wikipedia,
//! WordNet); facet-term selection is milliseconds; hierarchy construction
//! 1–2 s.
//!
//! We measure our local throughputs from the index's own stage spans,
//! and additionally derive a "with simulated web latency" column by
//! adding the paper's per-document web-service round-trip times
//! arithmetically (no actual sleeping), so the *relationships* of the
//! paper's table are reproducible: web-backed stages are the bottleneck,
//! local stages are orders of magnitude faster, selection is the
//! cheapest step.
//!
//! Every number is a span of [`ShardedFacetIndex`], the path the facet
//! pipeline runs, on one worker so each span total is wall time:
//!
//! * **extract** — one index per extractor appends the sample; its
//!   `append.extract` span covers that extractor and the index's own
//!   terming of each document;
//! * **expand** — one index per resource takes the same precomputed
//!   `I(d)` through [`ShardedFacetIndex::append_extracted`]; its
//!   `append.expand` span covers the resource queries (each distinct
//!   important term once) and the contextualized rows;
//! * **select** and **subsumption** — the `append.select` and
//!   `append.subsumption` spans of one more index over all four
//!   resources.

use crate::harness::DatasetBundle;
use crate::report::Table;
use facet_core::{PipelineOptions, ShardedFacetIndex};
use facet_corpus::Document;
use facet_ner::NerTagger;
use facet_obs::Recorder;
use facet_resources::{
    ContextResource, ExpansionOptions, GoogleResource, WikiGraphResource, WikiSynonymsResource,
    WordNetHypernymsResource,
};
use facet_termx::{
    extract_important_terms, NamedEntityExtractor, TermExtractor, WikipediaTitleExtractor,
    YahooTermExtractor,
};
use facet_wikipedia::{TitleIndex, WikipediaGraph, WikipediaSynonyms};

/// Simulated 2005-era web-service round trips (seconds per document),
/// matching the paper's reported bottlenecks.
pub const SIMULATED_YAHOO_LATENCY: f64 = 2.5;
/// Simulated Google round trip (seconds per document).
pub const SIMULATED_GOOGLE_LATENCY: f64 = 1.0;

/// One efficiency measurement.
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    /// Stage name.
    pub component: String,
    /// Measured throughput, docs/second (or ms for one-shot stages).
    pub measured: String,
    /// Derived throughput with the simulated web latency added.
    pub with_web_latency: String,
    /// What the paper reports for the stage.
    pub paper: String,
}

/// Total wall seconds of the `append.<stage>` span that `recorder` saw.
fn stage_seconds(recorder: &Recorder, stage: &str) -> f64 {
    let path = format!("append.{stage}");
    let report = recorder.snapshot();
    let span = report.spans.iter().find(|s| s.path == path);
    span.map_or(0, |s| s.total_us) as f64 / 1e6
}

/// An index of `extractors` and `resources` on one worker, fed `docs`
/// (with `important` as their `I(d)` when given), and the recorder that
/// saw its spans.
fn run_index(
    extractors: Vec<&dyn TermExtractor>,
    resources: Vec<&dyn ContextResource>,
    docs: &[Document],
    important: Option<&[Vec<String>]>,
) -> Recorder {
    let recorder = Recorder::enabled();
    let options = PipelineOptions {
        expansion: ExpansionOptions { threads: 1 },
        ..Default::default()
    };
    let mut index =
        ShardedFacetIndex::new(1, extractors, resources, options).with_recorder(recorder.clone());
    match important {
        Some(lists) => index.append_extracted(docs.to_vec(), lists.to_vec()),
        None => index.append(docs.to_vec()),
    }
    .expect("one I(d) list per document");
    recorder
}

/// Measure all stages over the bundle's first `sample_docs` documents.
pub fn measure_efficiency(bundle: &DatasetBundle, sample_docs: usize) -> Vec<EfficiencyRow> {
    let n = bundle.corpus.db.len().min(sample_docs).max(1);
    let docs = &bundle.corpus.db.docs()[..n];

    let mut rows = Vec::new();
    let throughput = |elapsed_s: f64| -> f64 {
        if elapsed_s <= 0.0 {
            f64::INFINITY
        } else {
            n as f64 / elapsed_s
        }
    };
    let mut row = |component: String, local: f64, latency: f64, paper: &str| {
        let derived = if latency > 0.0 {
            1.0 / (1.0 / local + latency)
        } else {
            local
        };
        rows.push(EfficiencyRow {
            component,
            measured: format!("{local:.0} docs/s"),
            with_web_latency: format!("{derived:.2} docs/s"),
            paper: paper.to_string(),
        });
    };

    // ---- term extraction -----------------------------------------------------
    let tagger = NerTagger::from_world(&bundle.world);
    let ne = NamedEntityExtractor::new(tagger);
    let yahoo = YahooTermExtractor::fit(&bundle.corpus.db, &bundle.vocab);
    let title_index = TitleIndex::build(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let wiki_x = WikipediaTitleExtractor::new(&bundle.wiki.wiki, title_index);

    let extractors: [(&dyn TermExtractor, f64, &str); 3] = [
        (&ne, 0.0, ">100 docs/s (local)"),
        (&yahoo, SIMULATED_YAHOO_LATENCY, "2-3 s/doc (web service)"),
        (&wiki_x, 0.0, ">100 docs/s (local)"),
    ];
    for (e, latency, paper) in extractors {
        let recorder = run_index(vec![e], Vec::new(), docs, None);
        let local = throughput(stage_seconds(&recorder, "extract"));
        row(format!("extract: {}", e.name()), local, latency, paper);
    }

    // ---- expansion -----------------------------------------------------------
    let all_extractors: Vec<&dyn TermExtractor> = extractors.iter().map(|x| x.0).collect();
    let important: Vec<Vec<String>> = docs
        .iter()
        .map(|d| extract_important_terms(&all_extractors, &d.full_text()))
        .collect();
    let graph = WikipediaGraph::new(&bundle.wiki.wiki, &bundle.wiki.redirects);
    let synonyms = WikipediaSynonyms::new(
        &bundle.wiki.wiki,
        &bundle.wiki.redirects,
        &bundle.wiki.anchors,
    );
    let google = GoogleResource::new(&bundle.web);
    let wn_res = WordNetHypernymsResource::new(&bundle.wordnet);
    let syn_res = WikiSynonymsResource::new(&synonyms);
    let graph_res = WikiGraphResource::new(&graph);
    let resources: [(&dyn ContextResource, f64, &str); 4] = [
        (&google, SIMULATED_GOOGLE_LATENCY, "~1 s/doc (web service)"),
        (&wn_res, 0.0, ">100 docs/s (local)"),
        (&syn_res, 0.0, ">100 docs/s (local)"),
        (&graph_res, 0.0, ">100 docs/s (local)"),
    ];
    for (r, latency, paper) in resources {
        let recorder = run_index(Vec::new(), vec![r], docs, Some(&important));
        let local = throughput(stage_seconds(&recorder, "expand"));
        row(format!("expand: {}", r.name()), local, latency, paper);
    }

    // ---- selection and hierarchy construction --------------------------------
    let all_resources: Vec<&dyn ContextResource> = resources.iter().map(|x| x.0).collect();
    let recorder = run_index(Vec::new(), all_resources, docs, Some(&important));
    let sel_ms = stage_seconds(&recorder, "select") * 1000.0;
    rows.push(EfficiencyRow {
        component: "facet-term selection".into(),
        measured: format!("{sel_ms:.1} ms"),
        with_web_latency: format!("{sel_ms:.1} ms"),
        paper: "a few milliseconds".into(),
    });
    let hier_s = stage_seconds(&recorder, "subsumption");
    rows.push(EfficiencyRow {
        component: "hierarchy construction".into(),
        measured: format!("{hier_s:.2} s"),
        with_web_latency: format!("{hier_s:.2} s"),
        paper: "1-2 s".into(),
    });

    rows
}

/// Render the measurements as a table.
pub fn efficiency_table(title: &str, rows: &[EfficiencyRow]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "Component",
            "Measured",
            "With simulated web latency",
            "Paper",
        ],
    );
    for r in rows {
        t.row(&[
            r.component.clone(),
            r.measured.clone(),
            r.with_web_latency.clone(),
            r.paper.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tiny_recipe;
    use facet_corpus::RecipeKind;

    #[test]
    fn all_stages_measured() {
        let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
        let rows = measure_efficiency(&bundle, 20);
        assert_eq!(
            rows.len(),
            3 + 4 + 2,
            "3 extractors + 4 resources + 2 stages"
        );
        let t = efficiency_table("Efficiency", &rows);
        assert!(t.render().contains("extract: Yahoo"));
    }

    #[test]
    fn simulated_latency_dominates_web_components() {
        let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snyt));
        let rows = measure_efficiency(&bundle, 20);
        let yahoo = rows
            .iter()
            .find(|r| r.component == "extract: Yahoo")
            .unwrap();
        // With 2.5 s/doc latency the derived throughput must be < 0.5
        // docs/s — the paper's "2-3 seconds per document".
        let v: f64 = yahoo
            .with_web_latency
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(v < 0.5, "derived Yahoo throughput {v}");
    }
}
