//! The keyphrase scorer against the string-keyed scorer it replaced.
//!
//! `YahooTermExtractor::extract` counts word ids and id pairs and finds a
//! bigram's df through a table keyed by its halves' ids. The reference
//! below is the scorer as it stood before: every counted term string of
//! the document (`term_strings`) interned into a per-document vocabulary,
//! each term's df looked up by its string, and the same rank order. The
//! df tables are built to reach the cases the id path handles apart:
//!
//! - two-word entries with one or both halves absent from the table,
//! - three-word entries and entries with empty words, which no document
//!   bigram equals,
//! - entries listed twice, and entries with df at or above the document
//!   count (no positive idf),
//! - words and bigrams missing from the table,
//! - tied scores (same tf and df), so the order falls to the string,
//! - `max_terms` 0, 1 and 15.

use facet_corpus::db::term_strings;
use facet_termx::{TermExtractor, YahooTermExtractor};
use facet_textkit::{SymTable, TermId, Vocabulary};
use proptest::test_runner::TestRng;

/// The string-keyed scorer, as a test-local copy.
struct StringScorer {
    terms: Vocabulary,
    df: SymTable<u64>,
    n_docs: u64,
    max_terms: usize,
}

impl StringScorer {
    fn from_table(entries: &[(&str, u64)], n_docs: u64, max_terms: usize) -> Self {
        let mut terms = Vocabulary::new();
        let mut df = SymTable::new();
        for &(term, f) in entries {
            df.insert(terms.intern(term), f);
        }
        Self {
            terms,
            df,
            n_docs,
            max_terms,
        }
    }

    fn idf(&self, term: &str) -> f64 {
        let df = self
            .terms
            .get(term)
            .and_then(|sym| self.df.get(sym).copied())
            .unwrap_or(0) as f64;
        ((self.n_docs as f64 + 1.0) / (df + 1.0)).ln()
    }

    fn extract(&self, text: &str) -> Vec<String> {
        let mut seen = Vocabulary::new();
        let mut tf: Vec<u32> = Vec::new();
        for term in term_strings(text).iter() {
            let id = seen.intern(term).index();
            if id == tf.len() {
                tf.push(0);
            }
            tf[id] += 1;
        }
        let mut scored: Vec<(TermId, f64)> = tf
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| {
                let sym = TermId(i as u32);
                let term = seen.term(sym);
                let phrase_boost = if term.contains(' ') { 1.35 } else { 1.0 };
                let score = f as f64 * self.idf(term) * phrase_boost;
                (score > 0.0).then_some((sym, score))
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.total_cmp(&a.1)
                .then_with(|| seen.term(a.0).cmp(seen.term(b.0)))
        });
        scored.truncate(self.max_terms);
        scored
            .into_iter()
            .map(|(sym, _)| seen.term(sym).to_string())
            .collect()
    }
}

/// Words for texts and tables: in and out of the tables, stopwords,
/// one-letter words, capitals, non-ASCII, joiners and numbers.
const WORDS: &[&str] = &[
    "market",
    "Market",
    "summit",
    "chirac",
    "france",
    "trade",
    "deal",
    "real",
    "estate",
    "the",
    "of",
    "and",
    "x",
    "I",
    "g8",
    "us-led",
    "o'brien",
    "ΟΔΟΣ",
    "οδοσ",
    "İstanbul",
    "café",
    "ünïcode",
    "presidents",
    "presidency",
    "1,000",
    "2005",
    "rally",
    "oil",
    "price",
];

/// What sits between two words: spaces, odd whitespace, punctuation
/// that breaks a bigram.
const GAPS: &[&str] = &[
    " ", " ", " ", "  ", "\u{b}", "\u{a0}", ", ", ". ", "; ", " - ", "\n",
];

/// Table entries: unigrams, two-word terms with present, half-present
/// and absent halves, three-word terms, and entries with empty words.
const ENTRIES: &[&str] = &[
    "market",
    "summit",
    "chirac",
    "trade",
    "real",
    "οδοσ",
    "real estate",
    "market rally",
    "oil price",
    "trade deal",
    "chirac france",
    "summit chirac",
    "estate market",
    "presidents presidency",
    "istanbul café",
    "i̇stanbul café",
    "market the",
    "real estate market",
    "oil price rally",
    "market  rally",
    " market",
    "market ",
    " ",
    "",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

fn text(rng: &mut TestRng) -> String {
    let mut out = String::new();
    for i in 0..rng.below(40) {
        if i > 0 {
            out.push_str(pick(rng, GAPS));
        }
        out.push_str(pick(rng, WORDS));
    }
    out
}

fn assert_same(table: &[(&str, u64)], n_docs: u64, text: &str) {
    for max_terms in [0, 1, 15] {
        let mut scorer = YahooTermExtractor::from_table(table, n_docs);
        scorer.max_terms = max_terms;
        let reference = StringScorer::from_table(table, n_docs, max_terms);
        assert_eq!(
            scorer.extract(text),
            reference.extract(text),
            "max_terms {max_terms}, n_docs {n_docs}, table {table:?}, text {text:?}"
        );
    }
}

#[test]
fn id_scorer_equals_the_string_scorer_on_random_tables_and_texts() {
    let mut rng = TestRng::deterministic("yahoo_equivalence::random");
    for _ in 0..300 {
        let n_docs = 1 + rng.below(40);
        // Some entries twice (the last df counts), some at or above the
        // document count.
        let table: Vec<(&str, u64)> = (0..rng.below(2 * ENTRIES.len() as u64))
            .map(|_| (pick(&mut rng, ENTRIES), rng.below(n_docs + 3)))
            .collect();
        for _ in 0..4 {
            assert_same(&table, n_docs, &text(&mut rng));
        }
    }
}

#[test]
fn tied_scores_rank_by_string() {
    // Every word once, every entry the same df: unigrams tie with each
    // other, and so do bigrams, in and out of the table.
    let table: Vec<(&str, u64)> = ["zeta", "alpha", "mu", "zeta alpha", "alpha mu"]
        .into_iter()
        .map(|t| (t, 2))
        .collect();
    for text in [
        "zeta alpha mu beta",
        "beta. mu. alpha. zeta.",
        "mu zeta, beta alpha; zeta alpha mu beta",
    ] {
        assert_same(&table, 10, text);
    }
    let mut scorer = YahooTermExtractor::from_table(&table, 10);
    scorer.max_terms = 1;
    assert_eq!(scorer.extract("zeta alpha mu"), ["alpha mu"]);
}

#[test]
fn absent_halves_and_unmatchable_entries() {
    // "oil price" has no half in the table; "real estate" one half;
    // the three-word entry and the double-spaced one never match.
    let table = [
        ("oil price", 1),
        ("real", 5),
        ("real estate", 2),
        ("real estate market", 1),
        ("market  rally", 1),
        ("market", 30),
    ];
    for text in [
        "oil price oil price real estate market rally",
        "Real Estate market. Oil, price; market rally market",
        "",
        "the of and x",
    ] {
        assert_same(&table, 30, text);
    }
}
