//! The Wikipedia term extractor (paper Section IV-A, "Wikipedia Terms").
//!
//! "Whenever a term in the document matches a title of a Wikipedia entry,
//! we mark the term as important. If there are multiple candidate titles,
//! we pick the longest title." Redirect titles participate, so variant
//! spellings match even when they differ from the canonical page title.
//!
//! Implementation: titles (and redirect titles) are normalized to
//! lowercase word sequences; document text is scanned left to right with a
//! greedy longest-match against the title dictionary, accelerated by a
//! first-word index.

use crate::page::{PageId, Wikipedia};
use crate::redirects::RedirectTable;
use facet_textkit::{is_stopword, normalize_term, LowerWords, SymTable, Vocabulary, WordFilter};

/// A dictionary of page titles supporting longest-match extraction.
///
/// Both the full normalized title keys and their first words are interned
/// into one arena [`Vocabulary`]; the page mapping and the first-word
/// length bound live in dense symbol-indexed [`SymTable`]s instead of
/// `String`-keyed hash maps, so the extraction scan probes by symbol. A
/// [`WordFilter`] of the first words lets the scan skip, without a
/// probe, most words that start no title.
#[derive(Debug)]
pub struct TitleIndex {
    /// Shared arena for title keys and first words.
    terms: Vocabulary,
    /// Symbol of the normalized title key → canonical page.
    map: SymTable<PageId>,
    /// Symbol of a first word → maximum title length (in words) starting
    /// with it.
    first_word_max: SymTable<usize>,
    /// The first words, as a bit filter tested before the probe.
    first_words: WordFilter,
}

impl TitleIndex {
    /// Build the index over all page titles plus all redirect titles
    /// (redirects map to their target page).
    pub fn build(wiki: &Wikipedia, redirects: &RedirectTable) -> Self {
        let mut terms = Vocabulary::new();
        let mut map: SymTable<PageId> = SymTable::new();
        let mut first_word_max: SymTable<usize> = SymTable::new();
        let mut first_words = WordFilter::default();
        let mut insert = |title: &str, page: PageId| {
            let key = normalize_term(title);
            let Some(first) = key.split(' ').next().filter(|w| !w.is_empty()) else {
                return;
            };
            let key_sym = terms.intern(&key);
            if !map.contains(key_sym) {
                map.insert(key_sym, page);
            }
            let first_sym = terms.intern(first);
            if !first_word_max.contains(first_sym) {
                first_words.insert(first);
            }
            let entry = first_word_max.get_or_default(first_sym);
            *entry = (*entry).max(key.split(' ').count());
        };
        for p in wiki.pages() {
            insert(&p.title, p.id);
        }
        for p in wiki.pages() {
            for variant in redirects.group(p.id) {
                insert(variant, p.id);
            }
        }
        Self {
            terms,
            map,
            first_word_max,
            first_words,
        }
    }

    /// Number of distinct indexed titles.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Extract all title matches from `text`, left to right, longest match
    /// first, non-overlapping. Returns `(matched surface term, page)` pairs
    /// in document order; the surface term is the normalized document text
    /// that matched (the paper marks *the document's term* as important —
    /// canonicalization is the job of the downstream resources, which
    /// resolve redirects themselves). A page may repeat.
    pub fn extract(&self, text: &str) -> Vec<(String, PageId)> {
        let mut out = Vec::new();
        self.for_each_match(text, |key, page| out.push((key.to_string(), page)));
        out
    }

    /// [`TitleIndex::extract`]'s matches passed to `found` in document
    /// order, each term borrowed from the scan's lowercase buffer, so a
    /// caller that keeps only some of them copies only those.
    pub fn for_each_match(&self, text: &str, mut found: impl FnMut(&str, PageId)) {
        // Word tokens only, lowercased into one buffer; a title never
        // crosses sentence punctuation.
        let words = LowerWords::of_text(text);
        let mut i = 0;
        while i < words.len() {
            let Some(&max_len) = Some(words.word(i))
                .filter(|w| self.first_words.may_contain(w))
                .and_then(|w| self.terms.get(w))
                .and_then(|s| self.first_word_max.get(s))
            else {
                i += 1;
                continue;
            };
            // Longest window first; a window may not contain a break
            // except at its final word.
            let upper = max_len.min(words.len() - i);
            let hit = (1..=upper).rev().find_map(|len| {
                // A single-word match must not be a function word: real
                // extractors never mark "the" important even though a
                // page titled "The" exists.
                if !words.adjacent(i, len) || (len == 1 && is_stopword(words.word(i))) {
                    return None;
                }
                let key = words.key(i, len);
                let page = self.terms.get(key).and_then(|s| self.map.get(s))?;
                Some((len, key, *page))
            });
            let Some((len, key, page)) = hit else {
                i += 1;
                continue;
            };
            found(key, page);
            i += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageSubject;
    use facet_knowledge::EntityId;

    fn fixture() -> (Wikipedia, RedirectTable) {
        let mut w = Wikipedia::new();
        let chirac = w.add_page(
            "Jacques Chirac",
            String::new(),
            PageSubject::Entity(EntityId(0)),
        );
        w.add_page("France", String::new(), PageSubject::Entity(EntityId(1)));
        w.add_page("Summit", String::new(), PageSubject::Entity(EntityId(2)));
        let mut r = RedirectTable::new();
        r.add("President Chirac", chirac);
        (w, r)
    }

    #[test]
    fn longest_match_wins() {
        let (w, r) = fixture();
        let idx = TitleIndex::build(&w, &r);
        let hits = idx.extract("Jacques Chirac visited France.");
        let titles: Vec<&str> = hits.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(titles, vec!["jacques chirac", "france"]);
    }

    #[test]
    fn redirect_titles_match_to_canonical() {
        let (w, r) = fixture();
        let idx = TitleIndex::build(&w, &r);
        let hits = idx.extract("President Chirac spoke in France");
        assert_eq!(hits[0].0, "president chirac");
        // The page still resolves to the canonical entry.
        assert_eq!(w.page(hits[0].1).title, "Jacques Chirac");
    }

    #[test]
    fn matches_do_not_cross_punctuation() {
        let (w, mut r) = fixture();
        // A two-word redirect whose words get split by a period must not match.
        let france = w.find_title("France").unwrap();
        r.add("Republic France", france);
        let idx = TitleIndex::build(&w, &r);
        let hits = idx.extract("the Republic. France acted");
        let titles: Vec<&str> = hits.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(titles, vec!["france"]);
    }

    #[test]
    fn case_insensitive() {
        let (w, r) = fixture();
        let idx = TitleIndex::build(&w, &r);
        let hits = idx.extract("JACQUES CHIRAC and france");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn repeated_mentions_repeat() {
        let (w, r) = fixture();
        let idx = TitleIndex::build(&w, &r);
        let hits = idx.extract("France, France and France");
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn no_matches() {
        let (w, r) = fixture();
        let idx = TitleIndex::build(&w, &r);
        assert!(idx.extract("completely unrelated words").is_empty());
        assert!(idx.extract("").is_empty());
    }
}
