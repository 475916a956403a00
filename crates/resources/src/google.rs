//! The Google context resource: "query Google with a given term, and then
//! retrieve as context terms the most frequent words and phrases that
//! appear in the returned snippets" (Section IV-B).
//!
//! The paper notes this resource is noisy because only titles and snippets
//! are mined (not full pages), which "introduces a relatively large number
//! of noisy terms" and drags precision down (Section V-C). Our snippet
//! mining reproduces that: frequent chatter words in snippets become
//! context terms alongside the true facet terms.

use crate::resource::ContextResource;
use facet_textkit::{lowercase, TermId, TokenKind};
use facet_websearch::SearchEngine;

/// Frequent-snippet-term mining over the web-search substrate.
pub struct GoogleResource<'a> {
    engine: &'a SearchEngine,
    /// Results fetched per query (paper-style first page: 10).
    pub top_results: usize,
    /// Maximum context terms returned per query.
    pub max_context_terms: usize,
    /// A term must occur in at least this many snippets to be returned.
    pub min_snippet_count: usize,
}

impl<'a> GoogleResource<'a> {
    /// Wrap a search engine with default mining parameters.
    pub fn new(engine: &'a SearchEngine) -> Self {
        Self {
            engine,
            top_results: 10,
            max_context_terms: 30,
            min_snippet_count: 2,
        }
    }
}

impl ContextResource for GoogleResource<'_> {
    fn name(&self) -> &'static str {
        "Google"
    }

    fn context_terms(&self, term: &str) -> Vec<String> {
        let hits = self.engine.search(term, self.top_results);
        if hits.is_empty() {
            return Vec::new();
        }
        let index = self.engine.index();
        // A query word no page contains can never equal a snippet word.
        let query_words: Vec<TermId> = lowercase(term)
            .split_whitespace()
            .filter_map(|w| index.sym(w))
            .collect();
        // Every distinct unigram and bigram of each snippet, as u64 keys
        // over the engine's symbols: a unigram is its symbol, a bigram
        // `p w` is `(p + 1) << 32 | w`, so all unigram keys sort before
        // all bigram keys.
        let mut keys: Vec<u64> = Vec::new();
        let mut hit_keys: Vec<u64> = Vec::new();
        for hit in &hits {
            hit_keys.clear();
            let mut prev: Option<TermId> = None;
            for (w, kind) in self.engine.snippet_tokens(hit) {
                if kind != TokenKind::Word || !index.is_index_term(w) || query_words.contains(&w) {
                    prev = None;
                    continue;
                }
                hit_keys.push(u64::from(w.0));
                if let Some(p) = prev {
                    hit_keys.push((u64::from(p.0) + 1) << 32 | u64::from(w.0));
                }
                prev = Some(w);
            }
            hit_keys.sort_unstable();
            hit_keys.dedup();
            keys.extend_from_slice(&hit_keys);
        }
        // Snippet counts per key: sort, then run-length.
        keys.sort_unstable();
        let mut counts: Vec<(u64, usize)> = Vec::new();
        for key in keys {
            match counts.last_mut() {
                Some((last, c)) if *last == key => *c += 1,
                _ => counts.push((key, 1)),
            }
        }
        // Phrase absorption: a unigram that only ever occurs inside a
        // counted phrase ("organizations" inside "international
        // organizations") is subtracted away, so fragments do not shadow
        // the phrases they belong to.
        let n_unigrams = counts.partition_point(|(k, _)| k >> 32 == 0);
        let (unigrams, bigrams) = counts.split_at_mut(n_unigrams);
        for &(key, c) in bigrams.iter() {
            for word in [(key >> 32) - 1, key & 0xffff_ffff] {
                if let Ok(i) = unigrams.binary_search_by_key(&word, |&(k, _)| k) {
                    unigrams[i].1 = unigrams[i].1.saturating_sub(c);
                }
            }
        }
        let text = |word: u64| index.resolve(TermId(word as u32));
        let mut ranked: Vec<(String, usize)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= self.min_snippet_count)
            .map(|(key, c)| match key >> 32 {
                0 => (text(key).to_string(), c),
                p => (format!("{} {}", text(p - 1), text(key & 0xffff_ffff)), c),
            })
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked
            .into_iter()
            .take(self.max_context_terms)
            .map(|(t, _)| t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_websearch::{SearchEngine, WebDocId, WebPage};

    fn engine() -> SearchEngine {
        SearchEngine::new(vec![
            WebPage {
                id: WebDocId(0),
                title: "Chirac profile".into(),
                text: "Chirac is among the political leaders of France. Readers associate \
                       Chirac with politics."
                    .into(),
            },
            WebPage {
                id: WebDocId(1),
                title: "Chirac news".into(),
                text: "Chirac, one of the political leaders in France, spoke about politics."
                    .into(),
            },
            WebPage {
                id: WebDocId(2),
                title: "Unrelated".into(),
                text: "gardening tips and recipes".into(),
            },
        ])
    }

    #[test]
    fn frequent_snippet_terms_returned() {
        let e = engine();
        let g = GoogleResource::new(&e);
        let terms = g.context_terms("Chirac");
        assert!(
            terms.contains(&"political leaders".to_string()),
            "{terms:?}"
        );
        assert!(terms.contains(&"france".to_string()), "{terms:?}");
    }

    #[test]
    fn query_words_excluded() {
        let e = engine();
        let g = GoogleResource::new(&e);
        let terms = g.context_terms("Chirac");
        assert!(!terms.contains(&"chirac".to_string()));
    }

    #[test]
    fn min_count_filters_singletons() {
        let e = engine();
        let g = GoogleResource::new(&e);
        let terms = g.context_terms("Chirac");
        // "readers" appears in only one page's snippet.
        assert!(!terms.contains(&"readers".to_string()), "{terms:?}");
    }

    #[test]
    fn unknown_term_empty() {
        let e = engine();
        let g = GoogleResource::new(&e);
        assert!(g.context_terms("xyzzy").is_empty());
    }

    #[test]
    fn ranking_is_deterministic_across_runs() {
        // The ranked term list must come out identical on every run
        // (count descending, then lexicographic).
        let e = engine();
        let first = GoogleResource::new(&e).context_terms("Chirac");
        for _ in 0..5 {
            assert_eq!(GoogleResource::new(&e).context_terms("Chirac"), first);
        }
        assert!(!first.is_empty());
    }

    #[test]
    fn max_terms_respected() {
        let e = engine();
        let mut g = GoogleResource::new(&e);
        g.max_context_terms = 1;
        assert!(g.context_terms("Chirac").len() <= 1);
    }
}
