#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # facet-corpus
//!
//! The text-database substrate and the synthetic news-archive generator.
//!
//! The paper evaluates on three datasets (Section V-A):
//!
//! * **SNYT** — 1,000 New York Times stories from a single day,
//! * **SNB** — 17,000 stories from one day of Newsblaster (24 sources),
//! * **MNYT** — 30,000 NYT stories covering one month.
//!
//! We cannot ship those corpora, so [`generator`] writes articles *about*
//! the synthetic world of `facet-knowledge`: each article is driven by a
//! topic, mentions entity surface forms and concept nouns, and — crucially
//! — only rarely mentions the facet terms themselves. The pilot-study
//! phenomenon of Section III (65% of human-chosen facet terms never appear
//! in the story text) is an explicit, measurable property of the generator
//! (see `facet-eval`'s pilot experiment).
//!
//! [`db`] holds the [`db::DocTerms`] — per-document term rows plus the
//! document frequencies the selection algorithm of Section IV-C consumes —
//! and the [`db::TextDatabase`], which keeps the documents beside them.
//! [`recipes`] pins the SNYT/SNB/MNYT dataset configurations.

pub mod db;
pub mod document;
pub mod generator;
pub mod gold;
pub mod recipes;

pub use db::{DocTerms, TextDatabase};
pub use document::{DocId, Document};
pub use generator::{CorpusGenerator, GeneratedCorpus, GeneratorConfig};
pub use gold::DocGold;
pub use recipes::{DatasetRecipe, RecipeKind};
