#![warn(missing_docs)]

//! # facet-ner
//!
//! A named-entity tagger standing in for the LingPipe tagger the paper
//! uses as its "Named Entities" term extractor (Section IV-A).
//!
//! Two stages, mirroring a classic news-domain tagger:
//!
//! 1. **Gazetteer matching** — longest-match lookup of known entity
//!    surface forms (the gazetteer is built from the world with imperfect
//!    coverage, like any real dictionary);
//! 2. **Rule-based detection** — capitalized-token runs that are not
//!    sentence-initial singletons, honorific + capitalized patterns
//!    ("Senator Brask"), and corporate/organization suffixes
//!    ("... Systems", "... Institute").
//!
//! The tagger's characteristic *failure mode* matters as much as its
//! successes: it finds named entities only, never topical noun phrases.
//! That is what drives the near-zero recall of the WordNet resource when
//! paired with this extractor (paper Table II, NE × WordNet = 0.090).

pub mod gazetteer;
pub mod rules;
pub mod tagger;

pub use gazetteer::{Gazetteer, GazetteerHit};
pub use rules::rule_based_spans;
pub use tagger::{EntitySpan, NerTagger};
