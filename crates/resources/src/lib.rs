#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # facet-resources
//!
//! Step 2 of the paper's pipeline (Section IV-B, Figure 2): expand each
//! document with **context terms** by querying external resources with the
//! document's important terms.
//!
//! The four resources of the paper:
//!
//! * [`google::GoogleResource`] — frequent words/phrases from the snippets
//!   of a web search (high recall, lowest precision);
//! * [`hypernyms::WordNetHypernymsResource`] — WordNet hypernyms (highest
//!   precision, low recall: named entities are not covered);
//! * [`wiki_graph::WikiGraphResource`] — top-k Wikipedia link-graph
//!   neighbours with `log(N/in)/out` association scoring;
//! * [`wiki_synonyms::WikiSynonymsResource`] — redirect- and anchor-based
//!   term variants.
//!
//! [`expand`] ties them together: it resolves the distinct important
//! terms of a corpus (with per-resource memoization and optional
//! multi-threading via crossbeam), then materializes the contextualized
//! database `C(D)` whose per-term document frequencies feed the selection
//! statistics of Section IV-C.

pub mod clock;
pub mod expand;
pub mod fault;
pub mod google;
pub mod hypernyms;
pub mod resilient;
pub mod resource;
pub mod wiki_graph;
pub mod wiki_synonyms;

pub use clock::VirtualClock;
pub use expand::{
    expand_append_recorded, intern_important_terms, repair_degraded_recorded, AppendOutcome,
    ContextualizedDatabase, ExpansionCache, ExpansionError, ExpansionOptions, RepairOutcome,
    ResolvedTerm,
};
pub use fault::{FaultPlan, FaultSchedule, FaultyResource};
pub use google::GoogleResource;
pub use hypernyms::WordNetHypernymsResource;
pub use resilient::{BreakerConfig, BreakerState, ResilientResource, RetryPolicy};
pub use resource::{ContextResource, FaultKind, ResourceError};
pub use wiki_graph::WikiGraphResource;
pub use wiki_synonyms::WikiSynonymsResource;
