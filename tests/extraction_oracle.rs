//! Step-1 oracle: the production extractors must return exactly what the
//! string-based path returns.
//!
//! The reference below is Step 1 as it stood before the extractors moved
//! onto one lowercase buffer per scan, one tokenization per tagger call
//! and ids until the top k: a gazetteer over two `String`-keyed
//! `HashMap`s that lowercases and joins every candidate key, a tagger
//! that tokenizes twice and checks overlaps by a quadratic `any`, a
//! title scan that keeps one `String` per word, a Yahoo scorer that
//! clones every distinct term before a full sort, `Vec::contains`
//! dedupes, a char-wise `normalize_term_into` and a `HashSet` stopword
//! test. It is kept here verbatim (modulo being free functions and
//! test-local types, every `str::to_lowercase` replaced by the char-wise
//! fold [`ref_lowercase`], and the counted terms at the one setting of
//! unigrams of two bytes or more plus bigrams) as the oracle; nothing in
//! the library calls it.
//!
//! Two tests:
//!
//! 1. on every document of the seeded tiny SNB bundle, each extractor,
//!    the tagger and its two stages, the title scan, `I(d)` and the
//!    counted term strings equal the reference, and an FNV digest over
//!    `I(d)` and the term strings matches [`SNB_STEP1_DIGEST`];
//! 2. a seeded property sweep over hostile text: non-ASCII words, a
//!    word-final `Σ`, `İ` (it lowercases to two chars), U+000B, U+0085
//!    and U+00A0 between words, hyphen and apostrophe joiners, digits
//!    with `.`/`,`, capitalized runs across sentence ends, and empty or
//!    whitespace-only text, against gazetteers, title indexes and df
//!    tables drawn from the same words.

use facet_hierarchies::corpus::db::term_strings;
use facet_hierarchies::corpus::{RecipeKind, TextDatabase};
use facet_hierarchies::eval::harness::{tiny_recipe, DatasetBundle};
use facet_hierarchies::knowledge::names::HONORIFICS;
use facet_hierarchies::knowledge::{EntityId, EntityKind, World};
use facet_hierarchies::ner::{rule_based_spans, Gazetteer, NerTagger};
use facet_hierarchies::termx::{
    extract_important_terms, NamedEntityExtractor, TermExtractor, WikipediaTitleExtractor,
    YahooTermExtractor,
};
use facet_hierarchies::textkit::stopwords::STOPWORDS;
use facet_hierarchies::textkit::{
    normalize_term, normalize_term_into, tokens, SymTable, Token, TokenKind, Vocabulary,
};
use facet_hierarchies::wikipedia::page::PageSubject;
use facet_hierarchies::wikipedia::{PageId, RedirectTable, TitleIndex, Wikipedia};
use proptest::test_runner::TestRng;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::OnceLock;

/// FNV-1a digest over every document's `I(d)` (NE, Yahoo and Wikipedia)
/// and counted term strings on the tiny SNB bundle, in document order.
/// Computed with the string-based path.
const SNB_STEP1_DIGEST: u64 = 0xe0a9_9062_f049_113b;

// ---- reference: the string-based Step-1 path --------------------------

fn ref_is_stopword(word: &str) -> bool {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| STOPWORDS.iter().copied().collect())
        .contains(word)
}

/// Lowercase char by char through `char::to_lowercase`: a capital sigma
/// folds to `σ` wherever it stands.
fn ref_lowercase(s: &str) -> String {
    s.chars().flat_map(char::to_lowercase).collect()
}

fn ref_normalize_term(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    ref_normalize_term_into(raw, &mut out);
    out
}

fn ref_normalize_term_into(raw: &str, out: &mut String) {
    let start = out.len();
    let mut last_space = true;
    for ch in raw.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        }
    }
    while out.len() > start && out.ends_with(' ') {
        out.pop();
    }
}

#[derive(Default)]
struct RefGazetteer {
    map: HashMap<String, (EntityId, EntityKind)>,
    first_word_max: HashMap<String, usize>,
}

impl RefGazetteer {
    fn from_world(world: &World) -> Self {
        let mut g = Self::default();
        for e in &world.entities {
            if !e.in_gazetteer {
                continue;
            }
            for form in e.surface_forms() {
                g.insert(form, e.id, e.kind);
            }
        }
        g
    }

    fn insert(&mut self, form: &str, entity: EntityId, kind: EntityKind) {
        let words: Vec<String> = ref_lowercase(form)
            .split_whitespace()
            .map(str::to_string)
            .collect();
        if words.is_empty() {
            return;
        }
        let key = words.join(" ");
        self.map.entry(key).or_insert((entity, kind));
        let e = self.first_word_max.entry(words[0].clone()).or_insert(0);
        *e = (*e).max(words.len());
    }

    fn get(&self, form: &str) -> Option<(EntityId, EntityKind)> {
        self.map.get(&ref_lowercase(form)).copied()
    }

    fn scan<'t>(&self, text: &'t str) -> Vec<(&'t str, usize, usize, EntityId, EntityKind)> {
        let toks = tokens(text);
        let word_idx: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokenKind::Word || t.kind == TokenKind::Number)
            .map(|(i, _)| i)
            .collect();
        let mut out = Vec::new();
        let mut wi = 0;
        while wi < word_idx.len() {
            let first = ref_lowercase(toks[word_idx[wi]].text);
            let Some(&max_len) = self.first_word_max.get(&first) else {
                wi += 1;
                continue;
            };
            let upper = max_len.min(word_idx.len() - wi);
            let mut matched = false;
            for len in (1..=upper).rev() {
                if (0..len - 1).any(|k| word_idx[wi + k + 1] != word_idx[wi + k] + 1) {
                    continue;
                }
                let key: Vec<String> = (0..len)
                    .map(|k| ref_lowercase(toks[word_idx[wi + k]].text))
                    .collect();
                let key = key.join(" ");
                if let Some(&(entity, kind)) = self.map.get(&key) {
                    let start = toks[word_idx[wi]].start;
                    let end = toks[word_idx[wi + len - 1]].end;
                    out.push((&text[start..end], start, end, entity, kind));
                    wi += len;
                    matched = true;
                    break;
                }
            }
            if !matched {
                wi += 1;
            }
        }
        out
    }
}

const COMMON_STARTERS: &[&str] = &[
    "Yesterday",
    "Today",
    "Tomorrow",
    "Meanwhile",
    "However",
    "Still",
    "Earlier",
    "Later",
    "Analysts",
    "Officials",
    "Critics",
    "Supporters",
    "Commentators",
    "Observers",
    "Readers",
    "People",
    "Shares",
    "After",
    "Before",
    "During",
    "The",
    "A",
    "An",
    "In",
    "On",
    "At",
    "He",
    "She",
    "They",
    "It",
    "More",
    "Unrelatedly",
    "See",
    "Commentary",
];

fn ref_rule_based_spans(text: &str) -> Vec<(&str, usize, usize)> {
    let toks = tokens(text);
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Word || !t.is_capitalized() {
            i += 1;
            continue;
        }
        if COMMON_STARTERS.contains(&t.text) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < toks.len()
            && toks[j].kind == TokenKind::Word
            && toks[j].is_capitalized()
            && toks[j].start == toks[j - 1].end + 1
        {
            j += 1;
        }
        let run_len = j - i;
        let sentence_initial = ref_is_sentence_initial(&toks, i);
        let is_honorific = HONORIFICS.contains(&t.text);
        let accept = if run_len >= 2 {
            true
        } else {
            !sentence_initial && !is_honorific
        };
        if accept {
            let start = toks[i].start;
            let end = toks[j - 1].end;
            out.push((&text[start..end], start, end));
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

fn ref_is_sentence_initial(toks: &[Token<'_>], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = &toks[i - 1];
    prev.kind == TokenKind::Punct && matches!(prev.text, "." | "!" | "?")
}

/// `(text, start, end, entity, kind)` of one tagged span.
type RefSpan = (String, usize, usize, Option<EntityId>, Option<EntityKind>);

fn ref_tag(g: &RefGazetteer, text: &str) -> Vec<RefSpan> {
    let mut spans: Vec<RefSpan> = g
        .scan(text)
        .into_iter()
        .map(|(t, s, e, id, kind)| (t.to_string(), s, e, Some(id), Some(kind)))
        .collect();
    for (t, s, e) in ref_rule_based_spans(text) {
        let overlaps = spans.iter().any(|sp| s < sp.2 && sp.1 < e);
        if !overlaps {
            spans.push((t.to_string(), s, e, None, None));
        }
    }
    spans.sort_by_key(|s| s.1);
    spans
}

fn ref_ne_extract(g: &RefGazetteer, text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for span in ref_tag(g, text) {
        let term = ref_normalize_term(&span.0);
        if !term.is_empty() && !out.contains(&term) {
            out.push(term);
        }
    }
    out
}

struct RefTitleIndex {
    terms: Vocabulary,
    map: SymTable<PageId>,
    first_word_max: SymTable<usize>,
}

impl RefTitleIndex {
    fn build(wiki: &Wikipedia, redirects: &RedirectTable) -> Self {
        let mut terms = Vocabulary::new();
        let mut map: SymTable<PageId> = SymTable::new();
        let mut first_word_max: SymTable<usize> = SymTable::new();
        let mut insert = |title: &str, page: PageId| {
            let words: Vec<String> = ref_lowercase(title)
                .split_whitespace()
                .map(str::to_string)
                .collect();
            if words.is_empty() {
                return;
            }
            let key_sym = terms.intern(&words.join(" "));
            if !map.contains(key_sym) {
                map.insert(key_sym, page);
            }
            let first_sym = terms.intern(&words[0]);
            let entry = first_word_max.get_or_default(first_sym);
            *entry = (*entry).max(words.len());
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
        }
    }

    fn extract(&self, text: &str) -> Vec<(String, PageId)> {
        let toks = tokens(text);
        let mut words: Vec<String> = Vec::with_capacity(toks.len());
        let mut breaks: Vec<bool> = Vec::with_capacity(toks.len());
        for t in &toks {
            match t.kind {
                TokenKind::Word | TokenKind::Number => {
                    words.push(ref_lowercase(t.text));
                    breaks.push(false);
                }
                TokenKind::Punct => {
                    if let Some(last) = breaks.last_mut() {
                        *last = true;
                    }
                }
            }
        }
        let mut out = Vec::new();
        let mut i = 0;
        while i < words.len() {
            let Some(&max_len) = self
                .terms
                .get(&words[i])
                .and_then(|s| self.first_word_max.get(s))
            else {
                i += 1;
                continue;
            };
            let mut matched = false;
            let upper = max_len.min(words.len() - i);
            for len in (1..=upper).rev() {
                if (0..len - 1).any(|k| breaks[i + k]) {
                    continue;
                }
                if len == 1 && ref_is_stopword(&words[i]) {
                    continue;
                }
                let key = words[i..i + len].join(" ");
                if let Some(&page) = self.terms.get(&key).and_then(|s| self.map.get(s)) {
                    out.push((key, page));
                    i += len;
                    matched = true;
                    break;
                }
            }
            if !matched {
                i += 1;
            }
        }
        out
    }
}

fn ref_wiki_extract(index: &RefTitleIndex, text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (title, _page) in index.extract(text) {
        if !out.contains(&title) {
            out.push(title);
        }
    }
    out
}

struct RefYahoo {
    terms: Vocabulary,
    df: SymTable<u64>,
    n_docs: u64,
    max_terms: usize,
}

impl RefYahoo {
    fn fit(db: &TextDatabase, vocab: &Vocabulary) -> Self {
        let mut terms = Vocabulary::new();
        let mut df = SymTable::new();
        for (id, term) in vocab.iter() {
            let f = db.df(id);
            if f > 0 {
                df.insert(terms.intern(term), f);
            }
        }
        Self {
            terms,
            df,
            n_docs: db.len() as u64,
            max_terms: 15,
        }
    }

    fn from_table(entries: &[(&str, u64)], n_docs: u64) -> Self {
        let mut terms = Vocabulary::new();
        let mut df = SymTable::new();
        for &(term, f) in entries {
            df.insert(terms.intern(term), f);
        }
        Self {
            terms,
            df,
            n_docs,
            max_terms: 15,
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
        let toks = tokens(text);
        let mut seen = Vocabulary::new();
        let mut tf: SymTable<u32> = SymTable::new();
        let mut prev: Option<String> = None;
        for t in &toks {
            if t.kind != TokenKind::Word {
                prev = None;
                continue;
            }
            let w = ref_normalize_term(t.text);
            if ref_is_stopword(&w) || w.len() < 2 {
                prev = None;
                continue;
            }
            *tf.get_or_default(seen.intern(&w)) += 1;
            if let Some(p) = prev {
                *tf.get_or_default(seen.intern(&format!("{p} {w}"))) += 1;
            }
            prev = Some(w);
        }
        let mut scored: Vec<(String, f64)> = tf
            .iter()
            .map(|(sym, &f)| {
                let term = seen.term(sym);
                let phrase_boost = if term.contains(' ') { 1.35 } else { 1.0 };
                let score = f as f64 * self.idf(term) * phrase_boost;
                (term.to_string(), score)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored
            .into_iter()
            .filter(|(_, s)| *s > 0.0)
            .take(self.max_terms)
            .map(|(t, _)| t)
            .collect()
    }
}

fn ref_important_terms(lists: Vec<Vec<String>>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for list in lists {
        for term in list {
            if !out.contains(&term) {
                out.push(term);
            }
        }
    }
    out
}

fn ref_term_strings(text: &str) -> Vec<String> {
    let mut text_buf = String::new();
    let mut ends: Vec<usize> = Vec::new();
    let mut prev: Option<Range<usize>> = None;
    let mut bigram = String::new();
    for t in tokens(text) {
        if t.kind != TokenKind::Word {
            prev = None;
            continue;
        }
        let start = text_buf.len();
        ref_normalize_term_into(t.text, &mut text_buf);
        let word = start..text_buf.len();
        if ref_is_stopword(&text_buf[word.clone()]) || word.len() < 2 {
            text_buf.truncate(start);
            prev = None;
            continue;
        }
        ends.push(word.end);
        if let Some(p) = prev {
            bigram.clear();
            bigram.push_str(&text_buf[p]);
            bigram.push(' ');
            bigram.push_str(&text_buf[word.clone()]);
            text_buf.push_str(&bigram);
            ends.push(text_buf.len());
        }
        prev = Some(word);
    }
    let starts = std::iter::once(0).chain(ends.iter().copied());
    starts
        .zip(&ends)
        .map(|(s, &e)| text_buf[s..e].to_string())
        .collect()
}

// ---- the checks ---------------------------------------------------------

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Production Step 1 beside its reference, over one set of inputs.
struct Pair<'a> {
    gazetteer: &'a Gazetteer,
    ref_gazetteer: &'a RefGazetteer,
    titles: &'a TitleIndex,
    ref_titles: &'a RefTitleIndex,
    ne: &'a NamedEntityExtractor,
    yahoo: &'a YahooTermExtractor,
    ref_yahoo: &'a RefYahoo,
    wiki_x: &'a WikipediaTitleExtractor<'a>,
}

impl Pair<'_> {
    /// Assert every Step-1 output on `text` equals the reference; return
    /// `I(d)` and the counted term strings.
    fn check(&self, text: &str) -> (Vec<String>, Vec<String>) {
        assert_eq!(
            self.gazetteer.scan(text),
            self.ref_gazetteer.scan(text),
            "gazetteer scan of {text:?}"
        );
        assert_eq!(
            rule_based_spans(text),
            ref_rule_based_spans(text),
            "rule spans of {text:?}"
        );
        let spans: Vec<RefSpan> = self
            .ne
            .tagger()
            .tag(text)
            .into_iter()
            .map(|s| (s.text.to_string(), s.start, s.end, s.entity, s.kind))
            .collect();
        assert_eq!(spans, ref_tag(self.ref_gazetteer, text), "tags of {text:?}");
        assert_eq!(
            self.titles.extract(text),
            self.ref_titles.extract(text),
            "title scan of {text:?}"
        );
        let ne = self.ne.extract(text);
        let yahoo = self.yahoo.extract(text);
        let wiki = self.wiki_x.extract(text);
        assert_eq!(
            ne,
            ref_ne_extract(self.ref_gazetteer, text),
            "NE of {text:?}"
        );
        assert_eq!(yahoo, self.ref_yahoo.extract(text), "Yahoo of {text:?}");
        assert_eq!(
            wiki,
            ref_wiki_extract(self.ref_titles, text),
            "Wikipedia of {text:?}"
        );
        let extractors: Vec<&dyn TermExtractor> = vec![self.ne, self.yahoo, self.wiki_x];
        let important = extract_important_terms(&extractors, text);
        assert_eq!(
            important,
            ref_important_terms(vec![ne, yahoo, wiki]),
            "I(d) of {text:?}"
        );
        let counted: Vec<String> = term_strings(text).iter().map(str::to_string).collect();
        assert_eq!(counted, ref_term_strings(text), "term strings of {text:?}");
        (important, counted)
    }
}

fn snb_step1_digest() -> u64 {
    let bundle = DatasetBundle::build_with(tiny_recipe(RecipeKind::Snb));
    let gazetteer = Gazetteer::from_world(&bundle.world);
    let ref_gazetteer = RefGazetteer::from_world(&bundle.world);
    assert_eq!(gazetteer.len(), ref_gazetteer.map.len());
    let wiki = &bundle.wiki.wiki;
    let ref_titles = RefTitleIndex::build(wiki, &bundle.wiki.redirects);
    let wiki_x =
        WikipediaTitleExtractor::new(wiki, TitleIndex::build(wiki, &bundle.wiki.redirects));
    let ne = NamedEntityExtractor::new(NerTagger::from_world(&bundle.world));
    let pair = Pair {
        gazetteer: &gazetteer,
        ref_gazetteer: &ref_gazetteer,
        titles: wiki_x.index(),
        ref_titles: &ref_titles,
        ne: &ne,
        yahoo: &YahooTermExtractor::fit(&bundle.corpus.db, &bundle.vocab),
        ref_yahoo: &RefYahoo::fit(&bundle.corpus.db, &bundle.vocab),
        wiki_x: &wiki_x,
    };
    let docs = bundle.corpus.db.docs();
    assert!(docs.len() > 1000, "only {} documents", docs.len());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut terms = 0;
    for d in docs {
        let (important, counted) = pair.check(&d.full_text());
        terms += important.len();
        for t in &important {
            fnv(&mut hash, t.as_bytes());
            fnv(&mut hash, &[0xfe]);
        }
        fnv(&mut hash, &[0xfd]);
        for t in &counted {
            fnv(&mut hash, t.as_bytes());
            fnv(&mut hash, &[0xfe]);
        }
        fnv(&mut hash, &[0xfc]);
    }
    assert!(terms > 20 * docs.len(), "only {terms} important terms");
    hash
}

#[test]
fn step1_matches_the_string_reference_on_the_snb_bundle() {
    let digest = snb_step1_digest();
    assert_eq!(
        digest, SNB_STEP1_DIGEST,
        "SNB Step-1 digest moved: {digest:#018x}"
    );
}

/// Words for the hostile texts: capitalized runs, honorifics and common
/// sentence starters, stopwords in both cases, hyphen and apostrophe
/// joiners (also dangling), digits with `.` and `,`, sentence-ending
/// punctuation, Greek words with a word-final capital sigma (which
/// `str::to_lowercase` would fold to `ς`, the one fold to `σ`), `İ`, and other
/// non-ASCII letters.
const WORDS: &[&str] = &[
    "Jacques",
    "Chirac",
    "JACQUES",
    "chirac",
    "France",
    "france",
    "Senator",
    "Brask",
    "The",
    "the",
    "Yesterday",
    "of",
    "and",
    "Zorit",
    "Systems",
    "summit",
    "Summit",
    "markets",
    "vice-president",
    "Vice-President",
    "O'Brien",
    "o'brien",
    "well-",
    "-",
    "'",
    "G8",
    "1,000",
    "3.5",
    "1.",
    "42",
    ".",
    "!",
    "?",
    ",",
    ";",
    "ΟΔΟΣ",
    "οδος",
    "Οδοσ",
    "ΣΟΦΟΣ",
    "ΟΔΟΣ-ΒΑ",
    "İstanbul",
    "İ",
    "ISTANBUL",
    "Ünïcode",
    "ça",
    "Ça",
    "x",
];

/// What goes between two words: ASCII and non-ASCII whitespace, and
/// nothing at all.
const GAPS: &[&str] = &[
    " ", " ", " ", "  ", "\n", "\t", "\u{b}", "\u{a0}", "\u{85}", "",
];

/// Multi-word forms for gazetteers and titles, drawn from the words.
const FORMS: &[&str] = &[
    "Jacques Chirac",
    "Chirac",
    "France",
    "the",
    "The Summit",
    "Zorit Systems",
    "vice-president",
    "O'Brien",
    "G8 summit",
    "1,000",
    "ΟΔΟΣ",
    "ΟΔΟΣ ΣΟΦΟΣ",
    "οδος",
    "İstanbul",
    "İ",
    "Ünïcode ça",
    "Senator Brask",
    "markets of France",
    "x",
    "   ",
];

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

fn hostile_text(rng: &mut TestRng) -> String {
    let n = rng.below(30);
    let mut out = String::new();
    if rng.below(4) == 0 {
        out.push_str(pick(rng, GAPS));
    }
    for i in 0..n {
        if i > 0 {
            out.push_str(pick(rng, GAPS));
        }
        out.push_str(pick(rng, WORDS));
    }
    if rng.below(4) == 0 {
        out.push_str(pick(rng, GAPS));
    }
    out
}

#[test]
fn step1_matches_the_string_reference_on_hostile_text() {
    let mut rng = TestRng::deterministic("extraction_oracle::hostile_text");
    for case in 0..64 {
        let mut gazetteer = Gazetteer::new();
        let mut ref_gazetteer = RefGazetteer::default();
        let mut wiki = Wikipedia::new();
        let mut redirects = RedirectTable::new();
        let mut titles: Vec<String> = Vec::new();
        for k in 0..rng.below(FORMS.len() as u64) {
            let form = pick(&mut rng, FORMS);
            let kind = [EntityKind::Person, EntityKind::Location][k as usize % 2];
            gazetteer.insert(form, EntityId(k as u32), kind);
            ref_gazetteer.insert(form, EntityId(k as u32), kind);
            let lower = ref_lowercase(form);
            if titles.contains(&lower) {
                continue;
            }
            titles.push(lower);
            let last = wiki.pages().last().map(|p| p.id);
            match last.filter(|_| rng.below(3) == 0) {
                Some(target) => redirects.add(form, target),
                None => {
                    wiki.add_page(form, String::new(), PageSubject::Entity(EntityId(k as u32)));
                }
            }
        }
        for form in FORMS {
            assert_eq!(gazetteer.get(form), ref_gazetteer.get(form), "{form:?}");
        }
        let table: Vec<(String, u64)> = (0..rng.below(12))
            .map(|_| (ref_normalize_term(pick(&mut rng, WORDS)), rng.below(40)))
            .collect();
        let table: Vec<(&str, u64)> = table.iter().map(|(t, f)| (t.as_str(), *f)).collect();
        let n_docs = 1 + rng.below(30);
        let mut yahoo = YahooTermExtractor::from_table(&table, n_docs);
        let mut ref_yahoo = RefYahoo::from_table(&table, n_docs);
        let max_terms = [0, 1, 3, 15, 100][case % 5];
        yahoo.max_terms = max_terms;
        ref_yahoo.max_terms = max_terms;
        let ref_titles = RefTitleIndex::build(&wiki, &redirects);
        let wiki_x = WikipediaTitleExtractor::new(&wiki, TitleIndex::build(&wiki, &redirects));
        let ne = NamedEntityExtractor::new(NerTagger::new(gazetteer));
        let pair = Pair {
            gazetteer: ne.tagger().gazetteer(),
            ref_gazetteer: &ref_gazetteer,
            titles: wiki_x.index(),
            ref_titles: &ref_titles,
            ne: &ne,
            yahoo: &yahoo,
            ref_yahoo: &ref_yahoo,
            wiki_x: &wiki_x,
        };
        for text in ["", " ", "\u{b}\u{a0}\u{85}\n"] {
            pair.check(text);
        }
        for _ in 0..24 {
            let text = hostile_text(&mut rng);
            pair.check(&text);
            for raw in [text.as_str(), pick(&mut rng, WORDS), pick(&mut rng, GAPS)] {
                assert_eq!(normalize_term(raw), ref_normalize_term(raw), "{raw:?}");
                let mut out = String::from("Kept ");
                let mut want = out.clone();
                normalize_term_into(raw, &mut out);
                ref_normalize_term_into(raw, &mut want);
                assert_eq!(out, want, "{raw:?}");
            }
        }
    }
}
