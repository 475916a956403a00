#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # facet-termx
//!
//! Step 1 of the paper's pipeline (Section IV-A, Figure 1): identify the
//! **important terms** `I(d)` of each document. Three extractors are
//! provided, matching the paper's:
//!
//! * [`NamedEntityExtractor`] — named entities via the `facet-ner` tagger
//!   (the paper uses LingPipe);
//! * [`YahooTermExtractor`] — significant words and phrases by corpus
//!   statistics (the paper calls the Yahoo Term Extraction web service, a
//!   black box returning salient words/phrases; we implement the
//!   equivalent tf·idf salience scorer locally);
//! * [`WikipediaTitleExtractor`] — document spans matching Wikipedia page
//!   titles, longest title first, redirect-aware.
//!
//! All extractors implement [`TermExtractor`] and return normalized
//! (lowercase) terms; the union over selected extractors forms `I(d)`.

pub mod extractor;
pub mod ne;
pub mod wiki;
pub mod yahoo;

pub use extractor::{extract_important_terms, TermExtractor};
pub use ne::NamedEntityExtractor;
pub use wiki::WikipediaTitleExtractor;
pub use yahoo::YahooTermExtractor;
