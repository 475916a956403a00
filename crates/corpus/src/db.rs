//! The text database: documents plus term/document-frequency statistics.
//!
//! This is the `D` of the paper. Term extraction for frequency counting
//! uses lowercased word unigrams (minus stopwords and numbers) plus
//! stopword-free word bigrams, so that both single-word terms ("war") and
//! short phrases ("real estate") participate in the comparative frequency
//! analysis. Multi-word *context* terms added during expansion are interned
//! as single terms in the shared vocabulary, exactly like these bigrams.

use crate::document::{DocId, Document};
use facet_textkit::{is_stopword, normalize_term, tokens, TermId, TokenKind, Vocabulary};

/// Options controlling how documents are reduced to counted terms.
#[derive(Debug, Clone)]
pub struct TermingOptions {
    /// Include stopword-free bigrams as phrase terms.
    pub bigrams: bool,
    /// Minimum unigram length in characters.
    pub min_len: usize,
}

impl Default for TermingOptions {
    fn default() -> Self {
        Self {
            bigrams: true,
            min_len: 2,
        }
    }
}

/// A database of text documents with document-frequency statistics over a
/// shared vocabulary.
#[derive(Debug, Clone)]
pub struct TextDatabase {
    docs: Vec<Document>,
    /// Distinct term ids per document, sorted.
    doc_terms: Vec<Vec<TermId>>,
    /// Document frequency per term id (indexed by `TermId`); term ids
    /// interned after the build have frequency 0.
    df: Vec<u64>,
    options: TermingOptions,
}

/// Extract the distinct, normalized, counted terms of `text` into `out`
/// (term ids via `vocab`). Shared by the database build and the
/// contextualized-database build.
pub fn extract_terms(
    text: &str,
    options: &TermingOptions,
    vocab: &mut Vocabulary,
    out: &mut Vec<TermId>,
) {
    let toks = tokens(text);
    let mut prev_word: Option<String> = None;
    for t in &toks {
        if t.kind != TokenKind::Word {
            prev_word = None;
            continue;
        }
        let w = normalize_term(t.text);
        let stop = is_stopword(&w) || w.len() < options.min_len;
        if !stop {
            out.push(vocab.intern(&w));
        }
        if options.bigrams {
            if let Some(p) = &prev_word {
                if !stop {
                    let bigram = format!("{p} {w}");
                    out.push(vocab.intern(&bigram));
                }
            }
        }
        prev_word = if stop { None } else { Some(w) };
    }
    out.sort_unstable();
    out.dedup();
}

impl TextDatabase {
    /// Build a database from `docs`, interning terms into `vocab`.
    pub fn build(docs: Vec<Document>, vocab: &mut Vocabulary, options: TermingOptions) -> Self {
        let mut doc_terms = Vec::with_capacity(docs.len());
        let mut scratch = Vec::new();
        for d in &docs {
            scratch.clear();
            extract_terms(&d.full_text(), &options, vocab, &mut scratch);
            doc_terms.push(scratch.clone());
        }
        let mut df = vec![0u64; vocab.len()];
        for terms in &doc_terms {
            for t in terms {
                df[t.index()] += 1;
            }
        }
        Self {
            docs,
            doc_terms,
            df,
            options,
        }
    }

    /// Append `docs` to the database, interning their terms into `vocab`
    /// and delta-updating the document-frequency table. Returns the index
    /// range of the newly-added documents.
    ///
    /// Appending in batches is equivalent to building once from the
    /// concatenation: the df table ends up with identical counts, and the
    /// per-document term sets are extracted with the same
    /// [`TermingOptions`] the database was built with. Documents are
    /// expected to carry positional ids (`docs[i].id == DocId(len + i)`),
    /// matching the invariant `build` establishes.
    pub fn append(
        &mut self,
        docs: Vec<Document>,
        vocab: &mut Vocabulary,
    ) -> std::ops::Range<usize> {
        let start = self.docs.len();
        for (offset, d) in docs.iter().enumerate() {
            debug_assert_eq!(
                d.id.index(),
                start + offset,
                "appended documents must carry positional ids"
            );
        }
        self.append_detached(docs, vocab)
    }

    /// [`TextDatabase::append`] for documents whose `id` fields carry
    /// *external* ids — e.g. the global archive ids of a sharded index,
    /// where each shard stores every N-th document. The documents are
    /// stored at the next positional slots (so positional accessors like
    /// [`TextDatabase::doc_terms`] keep working shard-locally) while
    /// `Document::id` keeps the caller's id; the df table is
    /// delta-updated exactly as in [`TextDatabase::append`].
    pub fn append_detached(
        &mut self,
        docs: Vec<Document>,
        vocab: &mut Vocabulary,
    ) -> std::ops::Range<usize> {
        let start = self.docs.len();
        let mut scratch = Vec::new();
        for d in &docs {
            scratch.clear();
            extract_terms(&d.full_text(), &self.options, vocab, &mut scratch);
            self.doc_terms.push(scratch.clone());
        }
        self.df.resize(self.df.len().max(vocab.len()), 0);
        for terms in &self.doc_terms[start..] {
            for t in terms {
                self.df[t.index()] += 1;
            }
        }
        self.docs.extend(docs);
        start..self.docs.len()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True if the database holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The document with the given id.
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }

    /// All documents in id order.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// The distinct term ids of a document (sorted).
    pub fn doc_terms(&self, id: DocId) -> &[TermId] {
        &self.doc_terms[id.index()]
    }

    /// Document frequency of a term (0 for terms unseen at build time).
    pub fn df(&self, t: TermId) -> u64 {
        self.df.get(t.index()).copied().unwrap_or(0)
    }

    /// The document-frequency table, indexed by term id. Terms interned
    /// into the shared vocabulary after the build are absent (implicitly 0).
    pub fn df_table(&self) -> &[u64] {
        &self.df
    }

    /// A copy of the df table resized to `vocab_len` entries (new terms 0).
    pub fn df_table_resized(&self, vocab_len: usize) -> Vec<u64> {
        let mut t = self.df.clone();
        t.resize(vocab_len.max(t.len()), 0);
        t
    }

    /// The terming options the database was built with.
    pub fn options(&self) -> &TermingOptions {
        &self.options
    }

    /// True if the document contains the term (by id).
    pub fn doc_contains(&self, id: DocId, t: TermId) -> bool {
        self.doc_terms[id.index()].binary_search(&t).is_ok()
    }

    /// All per-document term rows in id order (serialization surface;
    /// restore via [`TextDatabase::from_parts`]).
    pub fn doc_terms_rows(&self) -> &[Vec<TermId>] {
        &self.doc_terms
    }

    /// Rebuild a database from serialized parts, counting the df table
    /// from the rows.
    ///
    /// Returns `None` when the parts are inconsistent: row count not
    /// matching the document count, or document ids that are not
    /// strictly increasing. Databases grown with
    /// [`TextDatabase::append_detached`] keep external ids (e.g. the
    /// global archive ids of a sharded index), so strict increase — the
    /// order `append_detached` preserves — is the invariant rather than
    /// positional ids.
    pub fn from_parts(
        docs: Vec<Document>,
        doc_terms: Vec<Vec<TermId>>,
        options: TermingOptions,
    ) -> Option<Self> {
        if docs.len() != doc_terms.len() {
            return None;
        }
        if docs.windows(2).any(|w| w[0].id.index() >= w[1].id.index()) {
            return None;
        }
        let terms = doc_terms.iter().flatten();
        let mut df = vec![0; terms.clone().map(|t| t.index() + 1).max().unwrap_or(0)];
        for t in terms {
            df[t.index()] += 1;
        }
        Some(Self {
            docs,
            doc_terms,
            df,
            options,
        })
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
        let db = TextDatabase::build(docs, &mut vocab, TermingOptions::default());
        let war = vocab.get("war").unwrap();
        assert_eq!(db.df(war), 1, "df counts documents, not mentions");
        let peace = vocab.get("peace").unwrap();
        assert_eq!(db.df(peace), 1);
    }

    #[test]
    fn stopwords_and_numbers_excluded() {
        let docs = vec![doc(0, "T", "The summit of 2005 was a success.")];
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab, TermingOptions::default());
        assert!(vocab.get("the").is_none());
        assert!(vocab.get("2005").is_none());
        assert!(vocab.get("summit").is_some());
        let _ = db;
    }

    #[test]
    fn bigrams_present_when_enabled() {
        let docs = vec![doc(0, "T", "The real estate market collapsed.")];
        let mut vocab = Vocabulary::new();
        let _db = TextDatabase::build(docs, &mut vocab, TermingOptions::default());
        assert!(vocab.get("real estate").is_some());
        assert!(vocab.get("estate market").is_some());
        // Bigrams never span a stopword.
        assert!(vocab.get("the real").is_none());
    }

    #[test]
    fn bigrams_disabled() {
        let docs = vec![doc(0, "T", "real estate market")];
        let mut vocab = Vocabulary::new();
        let _db = TextDatabase::build(
            docs,
            &mut vocab,
            TermingOptions {
                bigrams: false,
                min_len: 2,
            },
        );
        assert!(vocab.get("real estate").is_none());
        assert!(vocab.get("real").is_some());
    }

    #[test]
    fn doc_terms_sorted_distinct() {
        let docs = vec![doc(0, "T", "alpha beta alpha gamma beta")];
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab, TermingOptions::default());
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
        let db = TextDatabase::build(docs, &mut vocab, TermingOptions::default());
        let later = vocab.intern("political leaders");
        assert_eq!(db.df(later), 0);
        let resized = db.df_table_resized(vocab.len());
        assert_eq!(resized[later.index()], 0);
    }

    #[test]
    fn doc_contains_works() {
        let docs = vec![doc(0, "T", "alpha beta")];
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(docs, &mut vocab, TermingOptions::default());
        let alpha = vocab.get("alpha").unwrap();
        assert!(db.doc_contains(DocId(0), alpha));
        let zeta = vocab.intern("zeta");
        assert!(!db.doc_contains(DocId(0), zeta));
    }

    #[test]
    fn empty_database() {
        let mut vocab = Vocabulary::new();
        let db = TextDatabase::build(vec![], &mut vocab, TermingOptions::default());
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
        let batch = TextDatabase::build(all.clone(), &mut vocab_batch, TermingOptions::default());
        // Incremental: empty build + two appends.
        let mut vocab_inc = Vocabulary::new();
        let mut inc = TextDatabase::build(vec![], &mut vocab_inc, TermingOptions::default());
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
    fn append_detached_keeps_external_ids_and_df_deltas() {
        // Round-robin partition of 4 docs into 2 shards: each shard
        // stores its docs at positions 0..2 while the ids stay global.
        let all = [
            doc(0, "A", "the war escalated in the capital"),
            doc(1, "B", "peace talks resumed near the border"),
            doc(2, "C", "markets rallied as war fears eased"),
            doc(3, "D", "the border patrol reported calm"),
        ];
        let mut vocab = Vocabulary::new();
        let mut shard = TextDatabase::build(vec![], &mut vocab, TermingOptions::default());
        let r = shard.append_detached(vec![all[0].clone(), all[2].clone()], &mut vocab);
        assert_eq!(r, 0..2);
        // Positional accessors address shard slots; ids stay global.
        assert_eq!(shard.docs()[1].id, DocId(2));
        let war = vocab.get("war").unwrap();
        assert_eq!(shard.df(war), 2, "df delta counts both shard docs");
        assert!(!shard.doc_terms(DocId(1)).is_empty());
        // A second detached append keeps delta-updating.
        shard.append_detached(vec![all[1].clone()], &mut vocab);
        let border = vocab.get("border").unwrap();
        assert_eq!(shard.df(border), 1);
        assert_eq!(shard.len(), 3);
    }

    #[test]
    fn append_df_accounts_only_new_docs() {
        let mut vocab = Vocabulary::new();
        let mut db = TextDatabase::build(
            vec![doc(0, "A", "alpha beta")],
            &mut vocab,
            TermingOptions::default(),
        );
        db.append(vec![doc(1, "B", "beta gamma")], &mut vocab);
        assert_eq!(db.df(vocab.get("alpha").unwrap()), 1);
        assert_eq!(db.df(vocab.get("beta").unwrap()), 2);
        assert_eq!(db.df(vocab.get("gamma").unwrap()), 1);
        assert_eq!(db.len(), 2);
    }
}
