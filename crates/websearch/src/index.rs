//! Web pages, their token tables, and the inverted index.

use facet_textkit::{
    is_counted_word, lowercase, lowercase_into, tokens, TermId, TokenKind, Vocabulary,
};
use std::ops::Range;

/// Index of a page in the web corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WebDocId(pub u32);

impl WebDocId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A web page: a title and body text.
#[derive(Debug, Clone)]
pub struct WebPage {
    /// This page's id.
    pub id: WebDocId,
    /// Page title.
    pub title: String,
    /// Body text.
    pub text: String,
}

impl WebPage {
    /// Title and body concatenated.
    pub fn full_text(&self) -> String {
        format!("{}. {}", self.title, self.text)
    }
}

/// A posting: document and term frequency within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The document.
    pub doc: WebDocId,
    /// Term frequency in the document.
    pub tf: u32,
}

/// Tokenize text into lowercase index terms: the words that pass
/// [`is_counted_word`].
pub fn index_terms(text: &str) -> Vec<String> {
    tokens(text)
        .iter()
        .filter(|t| t.kind == TokenKind::Word)
        .map(|t| lowercase(t.text))
        .filter(|w| is_counted_word(w))
        .collect()
}

/// What the index knows about a symbol's text.
#[derive(Debug, Clone, Copy)]
struct SymInfo {
    /// The lexical class of every token with this text. A token's class
    /// is a function of its lowercase text: words start with a letter
    /// (lowercasing keeps letters letters), numbers with an ASCII digit,
    /// and punctuation is one character that lowercasing leaves alone.
    kind: TokenKind,
    /// A word that passes [`is_counted_word`].
    index_term: bool,
}

/// An inverted index over web pages, plus every page's token table.
///
/// Each page's full text is tokenized once, at build. Every token's
/// lowercase text — stopwords, numbers and punctuation included — is
/// interned into one arena [`Vocabulary`]; the token table keeps each
/// token's symbol (the i-th entry of a page is the i-th token of
/// [`tokens`] over its [`WebPage::full_text`]), and the posting lists
/// live in a dense symbol-indexed table built from the same pass. Only
/// index terms have postings, and only they are listed by
/// [`InvertedIndex::iter`].
#[derive(Debug, Default)]
pub struct InvertedIndex {
    terms: Vocabulary,
    /// Per symbol: class and index-term flag.
    info: Vec<SymInfo>,
    /// Posting lists indexed by symbol (empty unless an index term).
    postings: Vec<Vec<Posting>>,
    /// The lowercase symbol of every page's tokens, page after page.
    tokens: Vec<TermId>,
    /// Page `d`'s tokens are `tokens[page_start[d]..page_start[d + 1]]`.
    page_start: Vec<u32>,
    doc_len: Vec<u32>,
    total_len: u64,
}

impl InvertedIndex {
    /// Build the index over `pages` (ids must be dense from zero).
    pub fn build(pages: &[WebPage]) -> Self {
        let mut idx = Self {
            page_start: vec![0],
            ..Self::default()
        };
        let mut text = String::new();
        let mut lower = String::new();
        // Per-symbol term frequency on the current page, and the index
        // terms it has touched so far (reset after each page).
        let mut tf: Vec<u32> = Vec::new();
        let mut touched: Vec<TermId> = Vec::new();
        for page in pages {
            debug_assert_eq!(
                page.id.index(),
                idx.doc_len.len(),
                "dense page ids required"
            );
            text.clear();
            text.push_str(&page.title);
            text.push_str(". ");
            text.push_str(&page.text);
            for t in tokens(&text) {
                lower.clear();
                lowercase_into(t.text, &mut lower);
                let sym = idx.intern(&lower, t.kind);
                if idx.info[sym.index()].index_term {
                    if sym.index() >= tf.len() {
                        tf.resize(sym.index() + 1, 0);
                    }
                    if tf[sym.index()] == 0 {
                        touched.push(sym);
                    }
                    tf[sym.index()] += 1;
                }
                idx.tokens.push(sym);
            }
            // Each page pushes at most one posting per term, in dense id
            // order, so every posting list comes out doc-ordered (asserted
            // by the `postings_sorted_by_doc` regression test).
            let mut len = 0u32;
            for sym in touched.drain(..) {
                let count = std::mem::take(&mut tf[sym.index()]);
                idx.postings[sym.index()].push(Posting {
                    doc: page.id,
                    tf: count,
                });
                len += count;
            }
            idx.doc_len.push(len);
            idx.total_len += u64::from(len);
            idx.page_start.push(to_u32(idx.tokens.len()));
        }
        idx
    }

    /// Intern `text` (a token's lowercase text) of class `kind`.
    fn intern(&mut self, text: &str, kind: TokenKind) -> TermId {
        let sym = self.terms.intern(text);
        if sym.index() == self.info.len() {
            self.info.push(SymInfo {
                kind,
                index_term: kind == TokenKind::Word && is_counted_word(text),
            });
            self.postings.push(Vec::new());
        }
        debug_assert_eq!(self.info[sym.index()].kind, kind, "class of {text:?}");
        sym
    }

    /// The symbol of a token's lowercase text, if any page has such a
    /// token.
    pub fn sym(&self, text: &str) -> Option<TermId> {
        self.terms.get(text)
    }

    /// The text of a symbol from this index.
    pub fn resolve(&self, sym: TermId) -> &str {
        self.terms.term(sym)
    }

    /// The lexical class of a symbol from this index.
    pub(crate) fn kind(&self, sym: TermId) -> TokenKind {
        self.info[sym.index()].kind
    }

    /// True if `sym` is a word that passes [`is_counted_word`]: the terms
    /// the index keeps postings for and the snippet miner counts.
    pub fn is_index_term(&self, sym: TermId) -> bool {
        self.info[sym.index()].index_term
    }

    /// Postings for a term (empty if unseen).
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.sym(term).map(|s| self.postings_of(s)).unwrap_or(&[])
    }

    /// Postings for a symbol (empty unless it is an index term).
    pub(crate) fn postings_of(&self, sym: TermId) -> &[Posting] {
        &self.postings[sym.index()]
    }

    /// Document frequency of a term.
    pub fn df(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Number of indexed documents.
    pub fn n_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Length (in indexed terms) of a document.
    pub fn doc_len(&self, doc: WebDocId) -> u32 {
        self.doc_len[doc.index()]
    }

    /// Average document length.
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.doc_len.len() as f64
        }
    }

    /// Iterate over `(term, postings)` pairs of the index terms in symbol
    /// (first-seen) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Posting])> {
        self.terms
            .iter()
            .map(|(s, t)| (t, self.postings_of(s)))
            .filter(|(_, p)| !p.is_empty())
    }

    /// The range of token-table positions holding `doc`'s tokens.
    pub(crate) fn page_tokens(&self, doc: WebDocId) -> Range<u32> {
        self.page_start[doc.index()]..self.page_start[doc.index() + 1]
    }

    /// The lowercase symbol of the token at table position `token`.
    pub(crate) fn token_sym(&self, token: u32) -> TermId {
        self.tokens[token as usize]
    }
}

/// A token-table position as `u32`.
fn to_u32(n: usize) -> u32 {
    // lint:allow(panic, reason="a web corpus of 4B tokens is unreachable for supported corpora and unrecoverable if hit")
    u32::try_from(n).expect("web corpus exceeds u32 token positions")
}

#[cfg(test)]
mod tests {
    use super::*;
    use facet_textkit::normalize_term;

    fn pages() -> Vec<WebPage> {
        vec![
            WebPage {
                id: WebDocId(0),
                title: "France".into(),
                text: "France hosted the summit in Paris.".into(),
            },
            WebPage {
                id: WebDocId(1),
                title: "Markets".into(),
                text: "The markets rallied after the summit.".into(),
            },
        ]
    }

    #[test]
    fn postings_and_df() {
        let idx = InvertedIndex::build(&pages());
        assert_eq!(idx.df("summit"), 2);
        assert_eq!(idx.df("paris"), 1);
        assert_eq!(idx.df("unknown"), 0);
        assert_eq!(idx.n_docs(), 2);
    }

    #[test]
    fn tf_counts_occurrences() {
        let idx = InvertedIndex::build(&pages());
        let france = idx.postings("france");
        assert_eq!(france.len(), 1);
        assert_eq!(france[0].tf, 2, "title + body mention");
    }

    #[test]
    fn stopwords_not_indexed() {
        let idx = InvertedIndex::build(&pages());
        assert_eq!(idx.df("the"), 0);
    }

    #[test]
    fn doc_lengths() {
        let idx = InvertedIndex::build(&pages());
        assert!(idx.doc_len(WebDocId(0)) >= 4);
        assert!(idx.avg_doc_len() > 0.0);
    }

    #[test]
    fn postings_sorted_by_doc() {
        // Guards the no-re-sort invariant in `build`: every posting list
        // must come out strictly increasing by doc id, with at most one
        // posting per (term, doc) pair.
        let pages: Vec<WebPage> = (0..30)
            .map(|i| WebPage {
                id: WebDocId(i),
                title: format!("Page {i}"),
                text: format!(
                    "shared summit text number {i} plus repeated summit word {}",
                    if i % 2 == 0 {
                        "even markets"
                    } else {
                        "odd politics"
                    }
                ),
            })
            .collect();
        let idx = InvertedIndex::build(&pages);
        assert!(idx.iter().count() > 5);
        for (term, list) in idx.iter() {
            assert!(
                list.windows(2).all(|w| w[0].doc < w[1].doc),
                "postings for {term:?} not strictly doc-ordered: {list:?}"
            );
        }
        assert_eq!(idx.df("summit"), 30);
    }

    #[test]
    fn only_index_terms_count_as_vocabulary() {
        // Stopwords, single letters, numbers and punctuation are interned
        // for the token table but carry no postings.
        let pages = vec![WebPage {
            id: WebDocId(0),
            title: "The G8".into(),
            text: "A summit, the summit of 1,000 leaders!".into(),
        }];
        let idx = InvertedIndex::build(&pages);
        let terms: Vec<&str> = idx.iter().map(|(t, _)| t).collect();
        assert_eq!(terms, vec!["summit", "leaders"]);
        assert_eq!(idx.iter().count(), 2);
        assert!(idx.sym("the").is_some_and(|s| !idx.is_index_term(s)));
        assert!(idx
            .sym("1,000")
            .is_some_and(|s| idx.postings_of(s).is_empty()));
        assert_eq!(idx.doc_len(WebDocId(0)), 3);
    }

    #[test]
    fn snippet_words_carry_their_normalize_term_symbol() {
        // A word's one symbol is its `normalize_term` text: a word-final
        // capital sigma folds to `σ` as everywhere else, so `ΟΔΟΣ` and
        // `οδος` are two index terms.
        let pages = vec![WebPage {
            id: WebDocId(0),
            title: "ΟΔΟΣ".into(),
            text: "οδος Trade".into(),
        }];
        let idx = InvertedIndex::build(&pages);
        let words: Vec<(&str, TokenKind)> = idx
            .page_tokens(WebDocId(0))
            .map(|t| {
                let sym = idx.token_sym(t);
                (idx.resolve(sym), idx.kind(sym))
            })
            .collect();
        assert_eq!(
            words,
            vec![
                ("οδοσ", TokenKind::Word),
                (".", TokenKind::Punct),
                ("οδος", TokenKind::Word),
                ("trade", TokenKind::Word),
            ]
        );
        for word in ["ΟΔΟΣ", "οδος", "Trade"] {
            let sym = idx.sym(&normalize_term(word)).unwrap();
            assert!(idx.is_index_term(sym), "{word}");
        }
        assert_eq!(idx.df("οδοσ"), 1);
        assert_eq!(idx.df("οδος"), 1);
        assert_eq!(index_terms("ΟΔΟΣ Trade"), vec!["οδοσ", "trade"]);
    }

    #[test]
    fn empty_index() {
        let idx = InvertedIndex::build(&[]);
        assert_eq!(idx.n_docs(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
        assert!(idx.postings("x").is_empty());
    }
}
