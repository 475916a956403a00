//! The text database: documents plus term/document-frequency statistics.
//!
//! This is the `D` of the paper. [`DocTerms`] holds what Steps 2–4 read
//! of it — the counted terms of each document and their document
//! frequencies — and [`TextDatabase`] keeps the documents beside them.
//! Term extraction for frequency counting uses lowercased word unigrams
//! (minus stopwords and numbers) plus stopword-free word bigrams, so that
//! both single-word terms ("war") and short phrases ("real estate")
//! participate in the comparative frequency analysis. Multi-word *context* terms added during expansion are interned
//! as single terms in the shared vocabulary, exactly like these bigrams.

use crate::document::{DocId, Document};
use facet_textkit::{
    is_counted_word, normalize_term_into, RowStore, TermId, TokenKind, Tokens, Vocabulary,
};
use std::ops::Range;

/// The counted terms of `D`: one sorted, distinct term-id row per
/// document, in id order, and the document frequency of every term over
/// those rows. This is all Steps 2–4 read of the corpus; the documents
/// themselves are Step 1's input only.
#[derive(Debug, Clone, Default)]
pub struct DocTerms {
    /// Distinct term ids per document, sorted.
    rows: RowStore,
    /// Document frequency per term id (indexed by `TermId`); term ids
    /// interned after the last push have frequency 0.
    df: Vec<u64>,
}

/// A database of text documents beside their [`DocTerms`], which it
/// dereferences to.
#[derive(Debug, Clone)]
pub struct TextDatabase {
    docs: Vec<Document>,
    terms: DocTerms,
}

/// The counted terms of one text as strings, in the order the database
/// interns them, repeats included (see [`term_strings`]). They share one
/// string buffer, so a document's terms cost two allocations, not one
/// per term.
#[derive(Debug, Clone, Default)]
pub struct TermStrings {
    text: String,
    /// End offset in `text` of each term; each term starts where the
    /// previous one ends.
    ends: Vec<usize>,
}

impl TermStrings {
    /// The terms, in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.text[s..e])
    }
}

/// The counted terms of `text`: each normalized word that passes
/// [`is_counted_word`], followed by its bigram with the previous such word
/// if the two were adjacent. The one unigram-plus-bigram rule: the
/// database counts these terms and the keyphrase extractor scores them. A
/// pure function of the text, so callers can run it on other threads and
/// intern the result later with [`DocTerms::push`].
pub fn term_strings(text: &str) -> TermStrings {
    // Sized from the input, so a document's terms rarely grow either
    // buffer: on the generated corpora the counted words and their
    // bigrams take about 1.2 bytes per input byte, and there is about
    // one term per 8 input bytes.
    let mut out = TermStrings {
        text: String::with_capacity(text.len() + text.len() / 2),
        ends: Vec::with_capacity(text.len() / 6),
    };
    // Where the previous counted word sits in `out.text`, if adjacent.
    let mut prev: Option<Range<usize>> = None;
    for t in Tokens::new(text) {
        if t.kind != TokenKind::Word {
            prev = None;
            continue;
        }
        let start = out.text.len();
        normalize_term_into(t.text, &mut out.text);
        let word = start..out.text.len();
        if !is_counted_word(&out.text[word.clone()]) {
            out.text.truncate(start);
            prev = None;
            continue;
        }
        out.ends.push(word.end);
        if let Some(p) = prev {
            out.text.extend_from_within(p);
            out.text.push(' ');
            out.text.extend_from_within(word.clone());
            out.ends.push(out.text.len());
        }
        prev = Some(word);
    }
    out
}

impl DocTerms {
    /// Append one document whose counted terms are `terms` — the
    /// [`term_strings`] of its full text — interning
    /// them into `vocab` in order.
    pub fn push(&mut self, terms: &TermStrings, vocab: &mut Vocabulary) {
        let mut row: Vec<TermId> = terms.iter().map(|t| vocab.intern(t)).collect();
        row.sort_unstable();
        row.dedup();
        self.df.resize(self.df.len().max(vocab.len()), 0);
        self.push_row(&row);
    }

    /// Append one document's row of term ids (sorted and distinct, as
    /// [`DocTerms::push`] makes them), delta-updating the df table.
    pub fn push_row(&mut self, row: &[TermId]) {
        for t in row {
            if t.index() >= self.df.len() {
                self.df.resize(t.index() + 1, 0);
            }
            self.df[t.index()] += 1;
        }
        self.rows.push(row);
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no documents.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The distinct term ids of a document (sorted).
    pub fn doc_terms(&self, id: DocId) -> &[TermId] {
        &self.rows[id.index()]
    }

    /// Every document's row, in id order.
    pub fn rows(&self) -> &RowStore {
        &self.rows
    }

    /// Document frequency of a term (0 for terms never pushed).
    pub fn df(&self, t: TermId) -> u64 {
        self.df.get(t.index()).copied().unwrap_or(0)
    }

    /// The document-frequency table, indexed by term id. Terms interned
    /// into the shared vocabulary after the last push are absent
    /// (implicitly 0).
    pub fn df_table(&self) -> &[u64] {
        &self.df
    }

    /// True if the document contains the term (by id).
    pub fn doc_contains(&self, id: DocId, t: TermId) -> bool {
        self.doc_terms(id).binary_search(&t).is_ok()
    }
}

impl TextDatabase {
    /// Build a database from `docs`, interning terms into `vocab`.
    pub fn build(docs: Vec<Document>, vocab: &mut Vocabulary) -> Self {
        let mut db = Self {
            docs: Vec::with_capacity(docs.len()),
            terms: DocTerms::default(),
        };
        for d in docs {
            db.push(d, vocab);
        }
        db.terms.df.resize(vocab.len(), 0);
        db
    }

    /// Append `docs` to the database, interning their terms into `vocab`
    /// and delta-updating the document-frequency table. Returns the index
    /// range of the newly-added documents.
    ///
    /// Appending in batches is equivalent to building once from the
    /// concatenation: the df table ends up with identical counts, and the
    /// per-document term sets are the same [`term_strings`]. Documents are
    /// expected to carry positional ids (`docs[i].id == DocId(len + i)`),
    /// matching the invariant `build` establishes.
    pub fn append(&mut self, docs: Vec<Document>, vocab: &mut Vocabulary) -> Range<usize> {
        let start = self.docs.len();
        for d in docs {
            debug_assert_eq!(
                d.id.index(),
                self.docs.len(),
                "appended documents must carry positional ids"
            );
            self.push(d, vocab);
        }
        start..self.docs.len()
    }

    fn push(&mut self, doc: Document, vocab: &mut Vocabulary) {
        let terms = term_strings(&doc.full_text());
        self.terms.push(&terms, vocab);
        self.docs.push(doc);
    }

    /// The document with the given id.
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }

    /// All documents in id order.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }
}

impl std::ops::Deref for TextDatabase {
    type Target = DocTerms;

    fn deref(&self) -> &DocTerms {
        &self.terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u32, title: &str, text: &str) -> Document {
        Document {
            id: DocId(id),
            source: 0,
            day: 0,
            title: title.into(),
            text: text.into(),
        }
    }

    #[test]
    fn df_counts_documents_not_occurrences() {
        let docs = vec![
            doc(0, "War", "The war escalated. War coverage continued."),
            doc(1, "Peace", "A peace accord was signed."),
        ];
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab);
        let war = vocab.get("war").unwrap();
        assert_eq!(db.df(war), 1, "df counts documents, not mentions");
        let peace = vocab.get("peace").unwrap();
        assert_eq!(db.df(peace), 1);
    }

    #[test]
    fn stopwords_and_numbers_excluded() {
        let docs = vec![doc(0, "T", "The summit of 2005 was a success.")];
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab);
        assert!(vocab.get("the").is_none());
        assert!(vocab.get("2005").is_none());
        assert!(vocab.get("summit").is_some());
        let _ = db;
    }

    #[test]
    fn bigrams_present_when_enabled() {
        let docs = vec![doc(0, "T", "The real estate market collapsed.")];
        let mut vocab = Vocabulary::new();
        let _db = TextDatabase::build(docs, &mut vocab);
        assert!(vocab.get("real estate").is_some());
        assert!(vocab.get("estate market").is_some());
        // Bigrams never span a stopword.
        assert!(vocab.get("the real").is_none());
    }

    /// Each counted word, then its bigram with the previous counted word;
    /// stopwords, short words and punctuation break the chain.
    #[test]
    fn term_strings_keep_interning_order() {
        let terms = term_strings("The Real  estate market, a US-led x rally.");
        let got: Vec<&str> = terms.iter().collect();
        assert_eq!(
            got,
            [
                "real",
                "estate",
                "real estate",
                "market",
                "estate market",
                "us-led",
                "rally"
            ]
        );
        let none = term_strings("the a of");
        assert_eq!(none.iter().count(), 0);
    }

    #[test]
    fn doc_terms_sorted_distinct() {
        let docs = vec![doc(0, "T", "alpha beta alpha gamma beta")];
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab);
        let terms = db.doc_terms(DocId(0));
        let mut sorted = terms.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(terms, sorted.as_slice());
    }

    #[test]
    fn unknown_term_df_zero() {
        let docs = vec![doc(0, "T", "alpha")];
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab);
        let later = vocab.intern("political leaders");
        assert_eq!(db.df(later), 0);
        assert!(db.df_table().get(later.index()).is_none());
    }

    #[test]
    fn doc_contains_works() {
        let docs = vec![doc(0, "T", "alpha beta")];
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab);
        let alpha = vocab.get("alpha").unwrap();
        assert!(db.doc_contains(DocId(0), alpha));
        let zeta = vocab.intern("zeta");
        assert!(!db.doc_contains(DocId(0), zeta));
    }

    #[test]
    fn empty_database() {
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(vec![], &mut vocab);
        assert!(db.is_empty());
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn append_matches_batch_build() {
        let all = vec![
            doc(0, "A", "the war escalated in the capital"),
            doc(1, "B", "peace talks resumed near the border"),
            doc(2, "C", "markets rallied as war fears eased"),
            doc(3, "D", "the border patrol reported calm"),
        ];
        // One-shot build.
        let mut vocab_batch = Vocabulary::new();
        let batch = TextDatabase::build(all.clone(), &mut vocab_batch);
        // Incremental: empty build + two appends.
        let mut vocab_inc = Vocabulary::new();
        let mut inc = TextDatabase::build(vec![], &mut vocab_inc);
        let r1 = inc.append(all[..2].to_vec(), &mut vocab_inc);
        assert_eq!(r1, 0..2);
        let r2 = inc.append(all[2..].to_vec(), &mut vocab_inc);
        assert_eq!(r2, 2..4);
        assert_eq!(inc.len(), batch.len());
        // Same interleaving (docs in order) → identical ids and tables.
        assert_eq!(vocab_inc.len(), vocab_batch.len());
        for i in 0..batch.len() {
            assert_eq!(
                inc.doc_terms(DocId(i as u32)),
                batch.doc_terms(DocId(i as u32))
            );
        }
        assert_eq!(inc.df_table(), batch.df_table());
    }

    #[test]
    fn append_df_accounts_only_new_docs() {
        let mut vocab = Vocabulary::new();
        let mut db = TextDatabase::build(vec![doc(0, "A", "alpha beta")], &mut vocab);
        db.append(vec![doc(1, "B", "beta gamma")], &mut vocab);
        assert_eq!(db.df(vocab.get("alpha").unwrap()), 1);
        assert_eq!(db.df(vocab.get("beta").unwrap()), 2);
        assert_eq!(db.df(vocab.get("gamma").unwrap()), 1);
        assert_eq!(db.len(), 2);
    }
}
