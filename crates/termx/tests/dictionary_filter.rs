//! The dictionary scans skip words that start no entry by testing a
//! first-word bit filter before they probe. These tests hold
//! `Gazetteer::scan` and `TitleIndex::extract` equal to test-local scans
//! that probe every word, on random dictionaries whose first words
//! include non-ASCII words, words longer than 8 bytes that share their
//! first 8 bytes (and their length), and one-letter words.

use facet_knowledge::{EntityId, EntityKind};
use facet_ner::Gazetteer;
use facet_textkit::{is_stopword, normalize_term, tokens, LowerWords, WordFilter};
use facet_wikipedia::page::PageSubject;
use facet_wikipedia::{PageId, RedirectTable, TitleIndex, Wikipedia};
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;

/// Dictionary and text words. `presidents`/`presidency` and
/// `commissioner`/`commissioned` share their first 8 bytes and their
/// length, so they share a filter bit.
const WORDS: &[&str] = &[
    "Jacques",
    "Chirac",
    "France",
    "Ünïcode",
    "ΟΔΟΣ",
    "İstanbul",
    "café",
    "presidents",
    "presidency",
    "president",
    "commissioner",
    "commissioned",
    "a",
    "I",
    "x",
    "The",
    "of",
    "new",
    "York",
    "o'brien",
    "us-led",
    "2005",
];

const GAPS: &[&str] = &[" ", " ", " ", "  ", "\u{a0}", ", ", ". ", "\n", "-"];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// One to three dictionary words joined by a space.
fn form(rng: &mut TestRng) -> String {
    let n = 1 + rng.below(3);
    (0..n)
        .map(|_| pick(rng, WORDS))
        .collect::<Vec<_>>()
        .join(" ")
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

/// A dictionary of normalized keys, first insertion winning, with the
/// longest key per first word: the scans' tables without the filter.
struct Reference<T> {
    map: BTreeMap<String, T>,
    first_word_max: BTreeMap<String, usize>,
}

impl<T: Copy> Reference<T> {
    fn new() -> Self {
        Self {
            map: BTreeMap::new(),
            first_word_max: BTreeMap::new(),
        }
    }

    fn insert(&mut self, form: &str, value: T) {
        let key = normalize_term(form);
        let Some(first) = key.split(' ').next().filter(|w| !w.is_empty()) else {
            return;
        };
        let max = self.first_word_max.entry(first.to_string()).or_default();
        *max = (*max).max(key.split(' ').count());
        self.map.entry(key).or_insert(value);
    }

    /// Longest match at every word, left to right, probing every word;
    /// `single_word_ok` decides whether a one-word key may match.
    fn scan(
        &self,
        words: &LowerWords,
        single_word_ok: impl Fn(&str) -> bool,
    ) -> Vec<(usize, usize, T)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < words.len() {
            let Some(&max_len) = self.first_word_max.get(words.word(i)) else {
                i += 1;
                continue;
            };
            let hit = (1..=max_len.min(words.len() - i)).rev().find_map(|len| {
                if !words.adjacent(i, len) || (len == 1 && !single_word_ok(words.word(i))) {
                    return None;
                }
                self.map.get(words.key(i, len)).map(|v| (len, *v))
            });
            match hit {
                Some((len, v)) => {
                    out.push((i, len, v));
                    i += len;
                }
                None => i += 1,
            }
        }
        out
    }
}

#[test]
fn gazetteer_scan_equals_a_scan_without_the_filter() {
    let mut rng = TestRng::deterministic("dictionary_filter::gazetteer");
    for _ in 0..200 {
        let mut gazetteer = Gazetteer::new();
        let mut reference = Reference::new();
        for k in 0..rng.below(30) {
            let f = form(&mut rng);
            let value = (EntityId(k as u32), EntityKind::Person);
            gazetteer.insert(&f, value.0, value.1);
            reference.insert(&f, value);
        }
        for _ in 0..8 {
            let text = text(&mut rng);
            let words = LowerWords::new(&tokens(&text));
            let want: Vec<_> = reference
                .scan(&words, |_| true)
                .into_iter()
                .map(|(i, len, (entity, kind))| {
                    let (start, end) = (words.source(i).0, words.source(i + len - 1).1);
                    (&text[start..end], start, end, entity, kind)
                })
                .collect();
            assert_eq!(gazetteer.scan(&text), want, "{text:?}");
        }
    }
}

#[test]
fn title_scan_equals_a_scan_without_the_filter() {
    let mut rng = TestRng::deterministic("dictionary_filter::titles");
    for _ in 0..200 {
        let mut wiki = Wikipedia::new();
        let mut redirects = RedirectTable::new();
        let mut reference = Reference::new();
        let mut pages: Vec<(String, PageId)> = Vec::new();
        for k in 0..rng.below(30) {
            let title = form(&mut rng);
            // Page titles are unique; a repeated one becomes a redirect.
            let taken = wiki.find_title(&title).is_some();
            match pages.last().filter(|_| taken || rng.below(3) == 0) {
                Some(&(_, target)) => redirects.add(&title, target),
                None if taken => {}
                None => {
                    let subject = PageSubject::Entity(EntityId(k as u32));
                    let id = wiki.add_page(&title, String::new(), subject);
                    pages.push((title, id));
                }
            }
        }
        // Page titles first, then each page's redirects, as the index is
        // built.
        for (title, id) in &pages {
            reference.insert(title, *id);
        }
        for (_, id) in &pages {
            for variant in redirects.group(*id) {
                reference.insert(variant, *id);
            }
        }
        let index = TitleIndex::build(&wiki, &redirects);
        for _ in 0..8 {
            let text = text(&mut rng);
            let words = LowerWords::of_text(&text);
            let want: Vec<(String, PageId)> = reference
                .scan(&words, |w| !is_stopword(w))
                .into_iter()
                .map(|(i, len, page)| (words.key(i, len).to_string(), page))
                .collect();
            assert_eq!(index.extract(&text), want, "{text:?}");
        }
    }
}

#[test]
fn filter_keeps_words_that_share_a_prefix_and_non_ascii_words() {
    let mut filter = WordFilter::default();
    for w in ["presidents", "ünïcode", "οδοσ", "i̇stanbul", "a"] {
        filter.insert(w);
    }
    for w in ["presidents", "ünïcode", "οδοσ", "i̇stanbul", "a"] {
        assert!(filter.may_contain(w), "{w}");
    }
    // Same first 8 bytes and length: the filter cannot tell them apart,
    // which costs a probe, never a match.
    assert!(filter.may_contain("presidency"));
}
