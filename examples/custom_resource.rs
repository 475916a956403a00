//! Plugging a domain-specific context resource into the pipeline —
//! including what happens when that resource *fails*.
//!
//! ```sh
//! cargo run --release --example custom_resource
//! ```
//!
//! The paper's conclusion (Section VII) argues that "it is relatively
//! straightforward to integrate in this framework other resources that
//! are useful within specialized contexts", giving financial glossaries
//! and taxonomies (Dow Jones Taxonomy Warehouse) as the example. This
//! example does exactly that: a hand-curated financial thesaurus is
//! implemented as a [`ContextResource`] and combined with the standard
//! resources; the distributional-analysis step automatically decides
//! which of its concepts matter for the corpus.
//!
//! Real taxonomy services also have quotas and outages, so the thesaurus
//! here implements the **fallible** side of the trait
//! ([`ContextResource::try_context_terms`]): once its per-window query
//! quota is exhausted it returns a typed [`ResourceError`] instead of
//! answering. The index keeps building with the surviving resources,
//! records which terms lost coverage (and to which resource), and
//! [`ShardedFacetIndex::repair`] backfills exactly those terms once the quota
//! window resets.

use facet_hierarchies::core::{PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::corpus::{DatasetRecipe, RecipeKind};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{
    ContextResource, ExpansionOptions, FaultKind, ResourceError, WikiGraphResource,
};
use facet_hierarchies::termx::{NamedEntityExtractor, TermExtractor, YahooTermExtractor};
use facet_hierarchies::textkit::Vocabulary;
use facet_hierarchies::wikipedia::{build_wikipedia, WikipediaConfig, WikipediaGraph};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A small financial ontology: term → broader financial concepts, served
/// through a query quota like a real metered taxonomy API. In practice
/// the table would be loaded from a taxonomy file.
struct FinancialThesaurus {
    broader: HashMap<&'static str, Vec<&'static str>>,
    /// Queries left in the current window; 0 = every call is rejected.
    quota: AtomicU64,
}

impl FinancialThesaurus {
    fn new(quota: u64) -> Self {
        let mut broader: HashMap<&'static str, Vec<&'static str>> = HashMap::new();
        for (term, parents) in [
            ("dividend", vec!["shareholder returns", "equity markets"]),
            ("shares", vec!["equity markets"]),
            ("portfolio", vec!["asset management"]),
            ("layoff", vec!["cost cutting", "corporate restructuring"]),
            ("buyout", vec!["mergers and acquisitions"]),
            ("acquisition", vec!["mergers and acquisitions"]),
            ("tariff", vec!["trade policy"]),
            ("embargo", vec!["trade policy", "sanctions"]),
            ("pension", vec!["retirement funds", "asset management"]),
            ("consumer prices", vec!["monetary policy"]),
        ] {
            broader.insert(term, parents);
        }
        Self {
            broader,
            quota: AtomicU64::new(quota),
        }
    }

    /// A new billing window: `n` more queries allowed.
    fn reset_quota(&self, n: u64) {
        self.quota.store(n, Ordering::SeqCst);
    }
}

impl ContextResource for FinancialThesaurus {
    fn name(&self) -> &'static str {
        "Financial Thesaurus"
    }

    // The infallible view degrades failures to "no context" — callers
    // that care about coverage use try_context_terms.
    fn context_terms(&self, term: &str) -> Vec<String> {
        self.try_context_terms(term).unwrap_or_default()
    }

    fn try_context_terms(&self, term: &str) -> Result<Vec<String>, ResourceError> {
        let admitted = self
            .quota
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| q.checked_sub(1))
            .is_ok();
        if !admitted {
            // Overload is retryable: the caller may retry later (e.g.
            // after the quota window resets); a malformed-request error
            // would be FaultKind::Permanent instead.
            return Err(ResourceError::new(
                self.name(),
                FaultKind::Overload,
                "query quota exhausted for this window",
            ));
        }
        Ok(self
            .broader
            .get(term)
            .map(|v| v.iter().map(|s| s.to_string()).collect())
            .unwrap_or_default())
    }
}

fn main() {
    let recipe = DatasetRecipe::scaled(RecipeKind::Snyt, 0.3);
    let world = recipe.build_world();
    let mut vocab = Vocabulary::new();
    let corpus = recipe.build_corpus(&world, &mut vocab);

    let wiki = build_wikipedia(&world, &WikipediaConfig::default());
    let graph = WikipediaGraph::new(&wiki.wiki, &wiki.redirects);
    let graph_res = WikiGraphResource::new(&graph);
    // A deliberately tight quota: the build will exhaust it mid-expansion.
    let thesaurus = FinancialThesaurus::new(8);

    let tagger = NerTagger::from_world(&world);
    let ne = NamedEntityExtractor::new(tagger);
    let yahoo = YahooTermExtractor::fit(&corpus.db, &vocab);

    let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo];
    let resources: Vec<&dyn ContextResource> = vec![&graph_res, &thesaurus];
    let mut index = ShardedFacetIndex::build(
        corpus.db.docs().to_vec(),
        1,
        extractors,
        resources,
        PipelineOptions {
            top_k: 500,
            // Serial expansion so the quota cutoff point is reproducible.
            expansion: ExpansionOptions { threads: 1 },
            ..Default::default()
        },
    )
    .expect("index build");

    // The build survived the quota exhaustion; coverage is degraded, not
    // lost, and the snapshot says exactly which terms are affected.
    let snap = index.snapshot();
    println!("facet terms: {}", snap.candidates().len());
    println!(
        "terms with degraded coverage: {} (of {} resolved)",
        snap.degraded().len(),
        index.resolved_terms()
    );
    for (term, failed) in snap.degraded().iter().take(5) {
        println!("  {term:<28} missing: {}", failed.join(", "));
    }

    // The quota window resets; repair() re-queries only the degraded
    // terms and publishes a converged snapshot.
    thesaurus.reset_quota(u64::MAX);
    let stats = index.repair().expect("repair");
    println!(
        "\nrepair: re-queried {} terms, repaired {}, recomputed {} documents (generation {})",
        stats.requeried_terms, stats.repaired_terms, stats.changed_docs, stats.generation
    );
    let snap = index.snapshot();
    assert!(snap.is_fully_covered());

    // Which thesaurus concepts did the distributional analysis promote?
    let facet_terms = snap.facet_terms();
    let domain_terms: Vec<&str> = [
        "shareholder returns",
        "equity markets",
        "asset management",
        "corporate restructuring",
        "mergers and acquisitions",
        "trade policy",
        "sanctions",
        "monetary policy",
        "retirement funds",
        "cost cutting",
    ]
    .into_iter()
    .filter(|t| facet_terms.contains(t))
    .collect();

    println!("\ndomain-specific facet terms promoted by the thesaurus:");
    for t in &domain_terms {
        let id = snap.vocab().get(t).expect("selected terms are interned");
        let c = snap
            .candidates()
            .iter()
            .find(|c| c.term == id)
            .expect("facet term has a candidate row");
        println!(
            "  {:<28} df={} df_C={} -logλ={:.1}",
            t, c.df, c.df_c, c.score
        );
    }
    if domain_terms.is_empty() {
        println!("  (none passed the shift tests on this corpus sample)");
    }
}
