//! The end-to-end facet pipeline (Steps 1–3 plus hierarchy construction).
//!
//! [`FacetPipeline`] is the one-shot batch facade: it borrows a
//! [`TextDatabase`] and runs the stages once. It shares its building
//! blocks — the append-based expansion engine and the interning-order
//! independent [`select_facet_terms_stable`] ranking — with the
//! incremental [`crate::shard::ShardedFacetIndex`], so a batch run and
//! a sequence of index appends over the same corpus produce identical
//! facet terms, rankings, and hierarchies.

use crate::config::PipelineOptions;
use crate::hierarchy::FacetForest;
use crate::selection::{
    select_facet_terms_stable, FacetCandidate, SelectionInputs, SelectionStatistic,
};
use crate::subsumption::{build_subsumption_forest, SubsumptionParams};
use facet_corpus::TextDatabase;
use facet_obs::Recorder;
use facet_resources::{expand_database_recorded, ContextResource, ContextualizedDatabase};
use facet_termx::{extract_important_terms, TermExtractor};
use facet_textkit::Vocabulary;

/// The result of running the pipeline on a database.
#[derive(Debug)]
pub struct FacetExtraction {
    /// `I(d)` per document.
    pub important_terms: Vec<Vec<String>>,
    /// The contextualized database `C(D)`.
    pub contextualized: ContextualizedDatabase,
    /// Ranked candidate facet terms (top-k).
    pub candidates: Vec<FacetCandidate>,
}

impl FacetExtraction {
    /// The candidate facet terms as strings.
    pub fn facet_terms<'v>(&self, vocab: &'v Vocabulary) -> Vec<&'v str> {
        self.candidates.iter().map(|c| vocab.term(c.term)).collect()
    }
}

/// The unsupervised facet-extraction pipeline.
///
/// Configure with any subset of term extractors (Section IV-A) and
/// context resources (Section IV-B); run on a [`TextDatabase`].
pub struct FacetPipeline<'a> {
    extractors: Vec<&'a dyn TermExtractor>,
    resources: Vec<&'a dyn ContextResource>,
    options: PipelineOptions,
    statistic: SelectionStatistic,
    recorder: Recorder,
}

impl<'a> FacetPipeline<'a> {
    /// Create a pipeline with the paper's configuration (log-likelihood
    /// ranking).
    pub fn new(
        extractors: Vec<&'a dyn TermExtractor>,
        resources: Vec<&'a dyn ContextResource>,
        options: PipelineOptions,
    ) -> Self {
        Self {
            extractors,
            resources,
            options,
            statistic: SelectionStatistic::LogLikelihood,
            recorder: Recorder::disabled(),
        }
    }

    /// Switch the ranking statistic (ablation).
    pub fn with_statistic(mut self, statistic: SelectionStatistic) -> Self {
        self.statistic = statistic;
        self
    }

    /// Attach an observability recorder: each stage (extract, expand,
    /// select, subsumption) records a span, and expansion records
    /// per-resource query counts and latency histograms.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The configured options.
    pub fn options(&self) -> &PipelineOptions {
        &self.options
    }

    /// The attached recorder (disabled unless set via
    /// [`FacetPipeline::with_recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Step 1 only: important terms per document.
    pub fn extract_important(&self, db: &TextDatabase) -> Vec<Vec<String>> {
        let _span = self.recorder.span("extract");
        _span.attr("docs", db.len() as u64);
        let out: Vec<Vec<String>> = db
            .docs()
            .iter()
            .map(|d| extract_important_terms(&self.extractors, &d.full_text()))
            .collect();
        self.recorder.add("extract.docs", out.len() as u64);
        self.recorder.add(
            "extract.important_terms",
            out.iter().map(|t| t.len() as u64).sum(),
        );
        out
    }

    /// Run Steps 1–3. Context terms are interned into `vocab`.
    pub fn run(&self, db: &TextDatabase, vocab: &mut Vocabulary) -> FacetExtraction {
        let important_terms = self.extract_important(db);
        self.run_with_important(db, vocab, important_terms)
    }

    /// Run Steps 2–3 with precomputed `I(d)` (lets experiments reuse the
    /// expensive extraction across resource combinations).
    pub fn run_with_important(
        &self,
        db: &TextDatabase,
        vocab: &mut Vocabulary,
        important_terms: Vec<Vec<String>>,
    ) -> FacetExtraction {
        let contextualized = {
            let _span = self.recorder.span("expand");
            expand_database_recorded(
                db,
                &important_terms,
                &self.resources,
                vocab,
                &self.options.expansion,
                &self.recorder,
            )
        };
        let candidates = {
            let _span = self.recorder.span("select");
            let df = db.df_table_resized(vocab.len());
            select_facet_terms_stable(
                SelectionInputs {
                    df: &df,
                    df_c: contextualized.df_table(),
                    n_docs: db.len() as u64,
                },
                self.statistic,
                self.options.top_k,
                self.options.min_df_c,
                vocab,
            )
        };
        self.recorder
            .add("select.candidates", candidates.len() as u64);
        FacetExtraction {
            important_terms,
            contextualized,
            candidates,
        }
    }

    /// Step 4: build the facet hierarchies over an extraction's candidate
    /// terms using subsumption in the contextualized database.
    pub fn build_hierarchies(
        &self,
        extraction: &FacetExtraction,
        vocab: &Vocabulary,
    ) -> FacetForest {
        let _span = self.recorder.span("subsumption");
        _span.attr("candidates", extraction.candidates.len() as u64);
        let terms: Vec<_> = extraction.candidates.iter().map(|c| c.term).collect();
        let sub = build_subsumption_forest(
            &terms,
            &extraction.contextualized.doc_terms,
            SubsumptionParams {
                threshold: self.options.subsumption_threshold,
                ..Default::default()
            },
        );
        FacetForest::from_subsumption(&sub, &vocab.freeze(), |t| extraction.contextualized.df_c(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_corpus::db::TermingOptions;
    use facet_corpus::{DocId, Document};
    use std::collections::HashMap;

    /// A fixed extractor that returns capitalized bigrams it has been told
    /// about, and a resource that maps them to facet context terms.
    struct FixedExtractor;
    impl TermExtractor for FixedExtractor {
        fn name(&self) -> &'static str {
            "Fixed"
        }
        fn extract(&self, text: &str) -> Vec<String> {
            if text.contains("Jacques Chirac") {
                vec!["jacques chirac".into()]
            } else {
                vec![]
            }
        }
    }

    struct FixedResource(HashMap<&'static str, Vec<&'static str>>);
    impl ContextResource for FixedResource {
        fn name(&self) -> &'static str {
            "Fixed"
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            self.0
                .get(term)
                .map(|v| v.iter().map(|s| s.to_string()).collect())
                .unwrap_or_default()
        }
    }

    fn db() -> (TextDatabase, Vocabulary) {
        let mut docs: Vec<Document> = (0..12)
            .map(|i| Document {
                id: DocId(i),
                source: 0,
                day: 0,
                title: "Story".into(),
                text: "Jacques Chirac discussed matters with advisers in the capital.".into(),
            })
            .collect();
        // A few documents without the entity (background variety).
        for i in 12..16 {
            docs.push(Document {
                id: DocId(i),
                source: 0,
                day: 0,
                title: "Filler".into(),
                text: "the markets were flat and quiet through the session".into(),
            });
        }
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab, TermingOptions::default());
        (db, vocab)
    }

    #[test]
    fn end_to_end_selects_context_facets() {
        let (db, mut vocab) = db();
        let e = FixedExtractor;
        let mut map = HashMap::new();
        map.insert("jacques chirac", vec!["political leaders", "france"]);
        let r = FixedResource(map);
        let pipeline = FacetPipeline::new(
            vec![&e],
            vec![&r],
            PipelineOptions {
                top_k: 10,
                ..Default::default()
            },
        );
        let out = pipeline.run(&db, &mut vocab);
        let terms = out.facet_terms(&vocab);
        assert!(terms.contains(&"political leaders"), "{terms:?}");
        assert!(terms.contains(&"france"), "{terms:?}");
        // Background words must not surface.
        assert!(!terms.contains(&"markets"));
    }

    #[test]
    fn hierarchies_built_over_candidates() {
        let (db, mut vocab) = db();
        let e = FixedExtractor;
        let mut map = HashMap::new();
        map.insert("jacques chirac", vec!["political leaders", "france"]);
        let r = FixedResource(map);
        let pipeline = FacetPipeline::new(
            vec![&e],
            vec![&r],
            PipelineOptions {
                top_k: 10,
                ..Default::default()
            },
        );
        let out = pipeline.run(&db, &mut vocab);
        let forest = pipeline.build_hierarchies(&out, &vocab);
        assert!(forest.total_terms() >= 2);
    }

    #[test]
    fn recorder_captures_stage_spans() {
        let (db, mut vocab) = db();
        let e = FixedExtractor;
        let mut map = HashMap::new();
        map.insert("jacques chirac", vec!["political leaders", "france"]);
        let r = FixedResource(map);
        let recorder = facet_obs::Recorder::enabled();
        let pipeline = FacetPipeline::new(
            vec![&e],
            vec![&r],
            PipelineOptions {
                top_k: 10,
                ..Default::default()
            },
        )
        .with_recorder(recorder.clone());
        let out = pipeline.run(&db, &mut vocab);
        let _forest = pipeline.build_hierarchies(&out, &vocab);
        let counts = recorder.snapshot_counts_only();
        assert_eq!(counts["span.extract.count"], 1);
        assert_eq!(counts["span.expand.count"], 1);
        assert_eq!(counts["span.select.count"], 1);
        assert_eq!(counts["span.subsumption.count"], 1);
        assert!(counts["counter.resource.Fixed.queries"] >= 1);
    }

    #[test]
    fn important_terms_reusable() {
        let (db, mut vocab) = db();
        let e = FixedExtractor;
        let r = FixedResource(HashMap::new());
        let pipeline = FacetPipeline::new(vec![&e], vec![&r], PipelineOptions::default());
        let important = pipeline.extract_important(&db);
        assert_eq!(important.len(), db.len());
        let out = pipeline.run_with_important(&db, &mut vocab, important.clone());
        assert_eq!(out.important_terms, important);
    }
}
