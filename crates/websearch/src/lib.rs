#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # facet-websearch
//!
//! A self-contained web-search substrate standing in for Google in the
//! paper's "Google" context resource (Section IV-B): "we query Google with
//! a given term, and then retrieve as context terms the most frequent
//! words and phrases that appear in the returned snippets."
//!
//! Components:
//!
//! * [`webgen`] — generates a synthetic web: pages about the world's
//!   entities (which, unlike news stories, *do* use general facet terms),
//!   plus off-topic chatter pages and noisy co-occurrences. The noise is
//!   what reproduces the paper's finding that Google expansion has the
//!   highest recall but the lowest precision of the four resources.
//! * [`index`] — every page tokenized once into a token table of
//!   interned lowercase terms, plus an inverted index with document and
//!   term statistics built from the same pass.
//! * [`rank`] — top-k BM25 ranking (k1 = 1.2, b = 0.75).
//! * [`engine`] — the query API: ranked retrieval plus snippets (a window
//!   of the page's token table around the first query hit, like a result
//!   page).

pub mod engine;
pub mod index;
pub mod rank;
pub mod webgen;

pub use engine::{SearchEngine, SearchHit};
pub use index::{InvertedIndex, WebDocId, WebPage};
pub use rank::Bm25Params;
pub use webgen::{generate_web, WebGenConfig};
