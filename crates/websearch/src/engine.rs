//! The search engine: ranked retrieval plus snippet extraction.

use crate::index::{index_terms, InvertedIndex, WebDocId, WebPage};
use crate::rank::{bm25_rank, Bm25Params};
use facet_obs::{Counter, HistogramHandle, Recorder};
use facet_textkit::{TermId, TokenKind};
use std::ops::Range;

/// One search result.
#[derive(Debug, Clone)]
pub struct SearchHit {
    /// The matching page.
    pub doc: WebDocId,
    /// BM25 score.
    pub score: f64,
    /// Result snippet: a window of the engine's token table around the
    /// first query hit, read through [`SearchEngine::snippet_tokens`].
    snippet: Range<u32>,
}

/// A search engine over a fixed web corpus.
#[derive(Debug)]
pub struct SearchEngine {
    pages: Vec<WebPage>,
    index: InvertedIndex,
    params: Bm25Params,
    /// Snippet radius in tokens on each side of the first hit.
    pub snippet_radius: usize,
    /// Total queries served (`web.queries` when instrumented).
    queries: Counter,
    /// Per-query latency (`web.latency_us` when instrumented).
    latency: HistogramHandle,
}

impl SearchEngine {
    /// Tokenize and index `pages` and return the engine.
    pub fn new(pages: Vec<WebPage>) -> Self {
        let index = InvertedIndex::build(&pages);
        Self {
            pages,
            index,
            params: Bm25Params::default(),
            snippet_radius: 40,
            queries: Counter::noop(),
            latency: HistogramHandle::noop(),
        }
    }

    /// Attach an observability recorder: every [`SearchEngine::search`]
    /// call increments `web.queries` and records `web.latency_us`.
    pub fn instrument(&mut self, recorder: &Recorder) {
        self.queries = recorder.counter("web.queries");
        self.latency = recorder.histogram("web.latency_us");
    }

    /// The underlying index (read-only).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The page with the given id.
    pub fn page(&self, id: WebDocId) -> &WebPage {
        &self.pages[id.index()]
    }

    /// Number of indexed pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if the engine has no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Search with a free-text query; returns the top `k` hits with
    /// snippets.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        self.queries.incr();
        // The wall clock stays inside facet-obs: a live latency handle
        // times the query, a noop handle runs it untimed.
        self.latency.time_if(|| {
            // A query term no page contains can neither score nor hit.
            let q_syms: Vec<TermId> = index_terms(query)
                .iter()
                .filter_map(|t| self.index.sym(t))
                .collect();
            bm25_rank(&self.index, &q_syms, self.params, k)
                .into_iter()
                .map(|(doc, score)| SearchHit {
                    doc,
                    score,
                    snippet: self.snippet(doc, &q_syms),
                })
                .collect()
        })
    }

    /// The snippet window for `doc`: `snippet_radius` tokens on each side
    /// of the first token whose lowercase text is a query term; the page
    /// start if nothing matches.
    fn snippet(&self, doc: WebDocId, q_syms: &[TermId]) -> Range<u32> {
        let page = self.index.page_tokens(doc);
        let hit = page
            .clone()
            .position(|t| q_syms.contains(&self.index.token_sym(t)))
            .unwrap_or(0);
        let start = hit.saturating_sub(self.snippet_radius);
        let end = hit
            .saturating_add(self.snippet_radius)
            .saturating_add(1)
            .min(page.len());
        // Both bounds lie within the page, so they fit its u32 positions;
        // an empty page gives an empty window.
        let at = |i: usize| page.start + i as u32;
        at(start)..at(end)
    }

    /// The tokens of `hit`'s snippet as `(symbol, class)`, where a token's
    /// symbol is that of its [`facet_textkit::lowercase`] text (look it up
    /// with [`InvertedIndex::resolve`] and [`InvertedIndex::is_index_term`]).
    pub fn snippet_tokens(
        &self,
        hit: &SearchHit,
    ) -> impl Iterator<Item = (TermId, TokenKind)> + '_ {
        hit.snippet.clone().map(|t| {
            let sym = self.index.token_sym(t);
            (sym, self.index.kind(sym))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::WebPage;

    /// The lowercase text of each token of `hit`'s snippet.
    fn snippet_words<'e>(e: &'e SearchEngine, hit: &SearchHit) -> Vec<&'e str> {
        e.snippet_tokens(hit)
            .map(|(s, _)| e.index().resolve(s))
            .collect()
    }

    fn engine() -> SearchEngine {
        SearchEngine::new(vec![
            WebPage {
                id: WebDocId(0),
                title: "France summit".into(),
                text: "Political leaders gathered for the summit in France to discuss trade."
                    .into(),
            },
            WebPage {
                id: WebDocId(1),
                title: "Markets".into(),
                text: "Markets in Asia were calm.".into(),
            },
        ])
    }

    #[test]
    fn search_returns_relevant_hit_with_snippet() {
        let e = engine();
        let hits = e.search("France summit", 5);
        assert_eq!(hits[0].doc, WebDocId(0));
        assert!(snippet_words(&e, &hits[0]).contains(&"summit"));
    }

    #[test]
    fn k_limits_results() {
        let e = engine();
        let hits = e.search("markets france", 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn no_match_empty() {
        let e = engine();
        assert!(e.search("zebra", 5).is_empty());
        assert!(e.search("", 5).is_empty());
    }

    #[test]
    fn instrumented_engine_counts_queries() {
        let mut e = engine();
        let rec = facet_obs::Recorder::enabled();
        e.instrument(&rec);
        e.search("France", 5);
        e.search("markets", 5);
        let counts = rec.snapshot_counts_only();
        assert_eq!(counts["counter.web.queries"], 2);
        assert_eq!(counts["histogram.web.latency_us.count"], 2);
    }

    #[test]
    fn snippet_is_the_token_window_around_the_first_hit() {
        let mut e = engine();
        e.snippet_radius = 1;
        let hits = e.search("France", 5);
        assert_eq!(hits[0].doc, WebDocId(0));
        // The first hit is the title word, so the window is the title.
        assert_eq!(snippet_words(&e, &hits[0]), vec!["france", "summit"]);
        e.snippet_radius = 3;
        let hits = e.search("trade", 5);
        assert_eq!(
            snippet_words(&e, &hits[0]),
            vec!["france", "to", "discuss", "trade", "."]
        );
        e.snippet_radius = 0;
        let hits = e.search("summit", 5);
        assert_eq!(snippet_words(&e, &hits[0]), vec!["summit"]);
    }

    #[test]
    fn snippet_window_bounded() {
        let mut e = engine();
        e.snippet_radius = 2;
        let hits = e.search("trade", 1);
        let snippet = snippet_words(&e, &hits[0]);
        assert!(snippet.len() <= 5, "snippet too long: {snippet:?}");
    }
}
