#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # facet-core
//!
//! The paper's primary contribution: **unsupervised extraction of useful
//! facet hierarchies from a text database** (Dakka & Ipeirotis, ICDE
//! 2008).
//!
//! The pipeline has three steps plus hierarchy construction:
//!
//! 1. **Important terms** ([`facet_termx`]): per-document `I(d)` from
//!    named entities, statistical keyphrases, and Wikipedia titles.
//! 2. **Context expansion** ([`facet_resources`]): each important term is
//!    sent to external resources; the retrieved context terms form the
//!    contextualized database `C(D)`.
//! 3. **Comparative frequency analysis** ([`selection`]): terms whose
//!    document frequency *and* log-rank bin both improve from `D` to
//!    `C(D)` are candidate facet terms, ranked by Dunning's
//!    log-likelihood statistic.
//! 4. **Hierarchy construction** ([`subsumption`], [`hierarchy`]):
//!    Sanderson–Croft subsumption organizes the selected terms into
//!    per-facet trees; [`browse`] exposes the resulting OLAP-style
//!    faceted browsing engine.
//!
//! [`shard::ShardedFacetIndex`] runs all four steps, for a one-shot
//! build as for a growing archive, with its per-document stages spread
//! over worker threads, and serves
//! reads through atomically-swapped [`index::FacetSnapshot`]s; a caller
//! that has already run Step 1 hands its `I(d)` to
//! [`shard::ShardedFacetIndex::append_extracted`]. [`baseline`]
//! holds the comparison systems (the raw-subsumption hierarchy of the
//! paper's Figure 5, and a chi-square selection variant for the
//! ablation study).

pub mod baseline;
pub mod browse;
pub mod config;
pub mod evidence;
pub mod hierarchy;
pub mod index;
pub mod persist;
pub mod selection;
pub mod serve;
pub mod shard;
pub mod subsumption;

pub use baseline::raw_subsumption_terms;
pub use browse::BrowseEngine;
pub use config::PipelineOptions;
pub use evidence::{build_evidence_forest, EvidenceParams, HypernymHints};
pub use facet_textkit::RowStore;
pub use hierarchy::{FacetForest, FacetTree, TreeNode};
pub use index::{AppendStats, FacetSnapshot, IndexError, RepairStats};
pub use persist::STATE_VERSION;
pub use selection::{FacetCandidate, SelectionInputs, SelectionStatistic};
pub use serve::{
    fanout_browse, normalize_query, BrowseResult, FacetServer, ServeCacheStats, ServeHandle,
    ServeSnapshot,
};
pub use shard::ShardedFacetIndex;
pub use subsumption::{build_subsumption_forest, SubsumptionForest, SubsumptionParams};
