//! Google expansion oracle: the production `GoogleResource` must return
//! exactly the context-term lists of a naive reference implementation.
//!
//! The reference below is the string-based Google path as it stood
//! before the search engine moved onto interned symbols: a `HashMap`
//! BM25 accumulator with a full sort, a snippet `String` cut from a
//! freshly built `full_text()` of the page, and a miner that counts
//! `normalize_term` strings into a `BTreeMap`. It is kept here verbatim
//! (modulo being free functions, and every `str::to_lowercase` replaced
//! by the char-wise fold [`ref_lowercase`]) as the oracle; nothing in the
//! library calls it.
//!
//! One test runs two checks:
//!
//! 1. every distinct important term of a small seeded SNB bundle is
//!    expanded by both paths, the lists must be equal, and an FNV digest
//!    over `(term, list)` must match [`SNB_EXPANSION_DIGEST`];
//! 2. a seeded property sweep over random pages (hyphens, digits,
//!    punctuation, repeated words, a word-final `Σ`, stopwords) and
//!    random queries (multi-word, stopword-only, out-of-vocabulary) with
//!    random mining parameters, including `snippet_radius` 0.

use facet_hierarchies::corpus::RecipeKind;
use facet_hierarchies::eval::harness::{tiny_recipe, DatasetBundle};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{ContextResource, GoogleResource};
use facet_hierarchies::termx::{
    extract_important_terms, NamedEntityExtractor, TermExtractor, WikipediaTitleExtractor,
    YahooTermExtractor,
};
use facet_hierarchies::textkit::{is_stopword, normalize_term, tokens, TokenKind};
use facet_hierarchies::websearch::index::index_terms;
use facet_hierarchies::websearch::{Bm25Params, InvertedIndex, SearchEngine, WebDocId, WebPage};
use facet_hierarchies::wikipedia::TitleIndex;
use proptest::test_runner::TestRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// FNV-1a digest over every `(term, context list)` pair of the seeded SNB
/// bundle, in term order. Computed with the string-based reference path.
const SNB_EXPANSION_DIGEST: u64 = 0x0163_2e79_ca7c_01ef;

// ---- reference: the string-based Google path --------------------------

/// Lowercase char by char through `char::to_lowercase`: a capital sigma
/// folds to `σ` wherever it stands.
fn ref_lowercase(s: &str) -> String {
    s.chars().flat_map(char::to_lowercase).collect()
}

fn idf(n_docs: usize, df: usize) -> f64 {
    let n = n_docs as f64;
    let df = df as f64;
    (((n - df + 0.5) / (df + 0.5)) + 1.0).ln()
}

fn bm25_rank(
    index: &InvertedIndex,
    query_terms: &[String],
    params: Bm25Params,
) -> Vec<(WebDocId, f64)> {
    let avg_len = index.avg_doc_len().max(1.0);
    let mut scores: HashMap<WebDocId, f64> = HashMap::new();
    for term in query_terms {
        let postings = index.postings(term);
        if postings.is_empty() {
            continue;
        }
        let w = idf(index.n_docs(), postings.len());
        for p in postings {
            let tf = p.tf as f64;
            let len_norm = 1.0 - params.b + params.b * index.doc_len(p.doc) as f64 / avg_len;
            let contrib = w * (tf * (params.k1 + 1.0)) / (tf + params.k1 * len_norm);
            *scores.entry(p.doc).or_insert(0.0) += contrib;
        }
    }
    let mut out: Vec<(WebDocId, f64)> = scores.into_iter().collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

fn snippet(engine: &SearchEngine, doc: WebDocId, q_terms: &[String]) -> String {
    let text = engine.page(doc).full_text();
    let toks = tokens(&text);
    let hit = toks
        .iter()
        .position(|t| {
            let w = ref_lowercase(t.text);
            q_terms.contains(&w)
        })
        .unwrap_or(0);
    let start = hit.saturating_sub(engine.snippet_radius);
    let end = (hit + engine.snippet_radius + 1).min(toks.len());
    if start >= end {
        return String::new();
    }
    let byte_start = toks[start].start;
    let byte_end = toks[end - 1].end;
    text[byte_start..byte_end].to_string()
}

/// `(doc, score, snippet)` for the top `k` hits of `query`.
fn search(engine: &SearchEngine, query: &str, k: usize) -> Vec<(WebDocId, f64, String)> {
    let q_terms = index_terms(query);
    let ranked = bm25_rank(engine.index(), &q_terms, Bm25Params::default());
    ranked
        .into_iter()
        .take(k)
        .map(|(doc, score)| (doc, score, snippet(engine, doc, &q_terms)))
        .collect()
}

fn context_terms(engine: &SearchEngine, g: &GoogleResource<'_>, term: &str) -> Vec<String> {
    let hits = search(engine, term, g.top_results);
    if hits.is_empty() {
        return Vec::new();
    }
    let query_words: Vec<String> = ref_lowercase(term)
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (_, _, snippet) in &hits {
        let mut seen: Vec<String> = Vec::new();
        let toks = tokens(snippet);
        let mut prev: Option<String> = None;
        for t in &toks {
            if t.kind != TokenKind::Word {
                prev = None;
                continue;
            }
            let w = normalize_term(t.text);
            if is_stopword(&w) || w.len() < 2 || query_words.contains(&w) {
                prev = None;
                continue;
            }
            if !seen.contains(&w) {
                seen.push(w.clone());
            }
            if let Some(p) = &prev {
                let bigram = format!("{p} {w}");
                if !seen.contains(&bigram) {
                    seen.push(bigram);
                }
            }
            prev = Some(w);
        }
        for s in seen {
            *counts.entry(s).or_insert(0) += 1;
        }
    }
    let phrase_counts: Vec<(String, usize)> = counts
        .iter()
        .filter(|(t, _)| t.contains(' '))
        .map(|(t, c)| (t.clone(), *c))
        .collect();
    for (phrase, c) in &phrase_counts {
        for word in phrase.split(' ') {
            if let Some(u) = counts.get_mut(word) {
                *u = u.saturating_sub(*c);
            }
        }
    }
    let mut ranked: Vec<(String, usize)> = counts
        .into_iter()
        .filter(|(_, c)| *c >= g.min_snippet_count)
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .take(g.max_context_terms)
        .map(|(t, _)| t)
        .collect()
}

// ---- the checks ---------------------------------------------------------

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Production and reference agree on the ranked hits (doc ids and
/// bit-equal scores) and on the mined context terms.
fn assert_same(engine: &SearchEngine, g: &GoogleResource<'_>, term: &str) -> Vec<String> {
    let want_hits = search(engine, term, g.top_results);
    let got_hits = engine.search(term, g.top_results);
    let want: Vec<(WebDocId, u64)> = want_hits.iter().map(|h| (h.0, h.1.to_bits())).collect();
    let got: Vec<(WebDocId, u64)> = got_hits
        .iter()
        .map(|h| (h.doc, h.score.to_bits()))
        .collect();
    assert_eq!(got, want, "ranked hits differ for {term:?}");
    let expected = context_terms(engine, g, term);
    let actual = g.context_terms(term);
    assert_eq!(actual, expected, "context terms differ for {term:?}");
    actual
}

fn snb_expansion_digest() -> u64 {
    let mut recipe = tiny_recipe(RecipeKind::Snb);
    recipe.generator.n_docs = 120;
    let bundle = DatasetBundle::build_with(recipe);
    let ne = NamedEntityExtractor::new(NerTagger::from_world(&bundle.world));
    let yahoo = YahooTermExtractor::fit(&bundle.corpus.db, &bundle.vocab);
    let wiki = WikipediaTitleExtractor::new(
        &bundle.wiki.wiki,
        TitleIndex::build(&bundle.wiki.wiki, &bundle.wiki.redirects),
    );
    let extractors: Vec<&dyn TermExtractor> = vec![&ne, &yahoo, &wiki];
    let terms: BTreeSet<String> = bundle
        .corpus
        .db
        .docs()
        .iter()
        .flat_map(|d| extract_important_terms(&extractors, &d.full_text()))
        .collect();
    assert!(terms.len() > 200, "only {} important terms", terms.len());
    let g = GoogleResource::new(&bundle.web);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut non_empty = 0;
    for term in &terms {
        let list = assert_same(&bundle.web, &g, term);
        non_empty += usize::from(!list.is_empty());
        fnv(&mut hash, term.as_bytes());
        fnv(&mut hash, &[0xff]);
        for t in &list {
            fnv(&mut hash, t.as_bytes());
            fnv(&mut hash, &[0xfe]);
        }
        fnv(&mut hash, &[0xfd]);
    }
    assert!(non_empty * 2 > terms.len(), "most terms should expand");
    hash
}

/// Words for the random pages: plain words, stopwords, single letters,
/// hyphenated and apostrophe words, digits and digit-letter mixes,
/// punctuation, and Greek words ending in a capital sigma (which
/// `str::to_lowercase` would fold to `ς`, the one fold to `σ`).
const VOCAB: &[&str] = &[
    "summit",
    "Summit",
    "SUMMIT",
    "france",
    "France",
    "leaders",
    "political",
    "trade",
    "markets",
    "the",
    "of",
    "and",
    "is",
    "a",
    "b",
    "x",
    "vice-president",
    "Vice-President",
    "O'Brien",
    "G8",
    "1,000",
    "42",
    "3.5",
    "-",
    ",",
    ".",
    "!",
    "'",
    "ΟΔΟΣ",
    "οδος",
    "Οδοσ",
    "ΣΟΦΟΣ",
    "σοφος",
    "ΣΣ",
    "ΟΔΟΣ-ΒΑ",
    "ça",
    "Ünïcode",
];

fn random_text(rng: &mut TestRng, max_words: u64) -> String {
    let n = rng.below(max_words + 1);
    let mut out = String::new();
    let mut i = 0;
    while i < n {
        let w = VOCAB[rng.below(VOCAB.len() as u64) as usize];
        // Immediate repeats exercise the `x x` bigram, whose phrase
        // absorption subtracts from the same unigram twice.
        let reps = if rng.below(6) == 0 { 2 } else { 1 };
        for _ in 0..reps {
            if !out.is_empty() && rng.below(5) != 0 {
                out.push(' ');
            }
            out.push_str(w);
            i += 1;
        }
    }
    out
}

fn random_query(rng: &mut TestRng) -> String {
    match rng.below(5) {
        0 => "the and of".to_string(),
        1 => "zebra unknownword".to_string(),
        _ => {
            let n = 1 + rng.below(3);
            (0..n)
                .map(|_| VOCAB[rng.below(VOCAB.len() as u64) as usize])
                .collect::<Vec<_>>()
                .join(" ")
        }
    }
}

fn random_pages_match_reference() {
    let mut rng = TestRng::deterministic("expansion_oracle::random_pages");
    for case in 0..96 {
        let n_pages = 1 + rng.below(12) as u32;
        let pages: Vec<WebPage> = (0..n_pages)
            .map(|i| WebPage {
                id: WebDocId(i),
                title: random_text(&mut rng, 3),
                text: random_text(&mut rng, 40),
            })
            .collect();
        let mut engine = SearchEngine::new(pages);
        engine.snippet_radius = [0, 1, 2, 5, 40][case % 5];
        let mut g = GoogleResource::new(&engine);
        g.top_results = rng.below(12) as usize;
        g.min_snippet_count = rng.below(3) as usize;
        g.max_context_terms = 1 + rng.below(30) as usize;
        for _ in 0..8 {
            let q = random_query(&mut rng);
            assert_same(&engine, &g, &q);
        }
    }
}

#[test]
fn google_expansion_matches_string_reference() {
    let digest = snb_expansion_digest();
    assert_eq!(
        digest, SNB_EXPANSION_DIGEST,
        "SNB expansion digest moved: {digest:#018x}"
    );
    random_pages_match_reference();
}
