#![allow(clippy::unwrap_used)]

//! Property-based tests for the text substrate.

use facet_textkit::stopwords::STOPWORDS;
use facet_textkit::{
    is_stopword, ngrams, normalize_term, normalize_term_into, porter_stem, tokens, LowerWords,
    Token, TokenKind, Tokens, Vocabulary, Zipf,
};
use proptest::prelude::*;

/// `normalize_term_into` as a char-wise loop: every `char::is_whitespace`
/// run becomes one space, every other char lowercases through
/// `char::to_lowercase`, and the ends are trimmed.
fn charwise_normalize(raw: &str) -> String {
    let mut out = String::new();
    let mut last_space = true;
    for ch in raw.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.extend(ch.to_lowercase());
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

fn is_word_char(c: char) -> bool {
    c.is_alphabetic()
}

fn is_word_joiner(c: char) -> bool {
    c == '\'' || c == '-'
}

fn is_number_joiner(c: char) -> bool {
    c == '.' || c == ','
}

/// The tokenizer as a `Vec`-building loop over a peekable
/// `char_indices`, before the streaming [`Tokens`] scanner replaced it.
fn vec_tokens(text: &str) -> Vec<Token<'_>> {
    let mut out = Vec::new();
    let bytes_len = text.len();
    let mut iter = text.char_indices().peekable();
    while let Some(&(start, c)) = iter.peek() {
        if c.is_whitespace() {
            iter.next();
            continue;
        }
        if is_word_char(c) {
            // Word: letters, with single joiners between letters.
            let mut end = start + c.len_utf8();
            iter.next();
            while let Some(&(i, ch)) = iter.peek() {
                if is_word_char(ch) {
                    end = i + ch.len_utf8();
                    iter.next();
                } else if is_word_joiner(ch) {
                    // Only join if followed by another letter.
                    let mut ahead = iter.clone();
                    ahead.next();
                    if let Some(&(j, ch2)) = ahead.peek() {
                        if is_word_char(ch2) {
                            end = j + ch2.len_utf8();
                            iter.next();
                            iter.next();
                            continue;
                        }
                    }
                    break;
                } else {
                    break;
                }
            }
            out.push(Token {
                text: &text[start..end],
                start,
                end,
                kind: TokenKind::Word,
            });
        } else if c.is_ascii_digit() {
            let mut end = start + 1;
            iter.next();
            while let Some(&(i, ch)) = iter.peek() {
                if ch.is_ascii_digit() {
                    end = i + 1;
                    iter.next();
                } else if is_number_joiner(ch) {
                    let mut ahead = iter.clone();
                    ahead.next();
                    if let Some(&(j, ch2)) = ahead.peek() {
                        if ch2.is_ascii_digit() {
                            end = j + 1;
                            iter.next();
                            iter.next();
                            continue;
                        }
                    }
                    break;
                } else {
                    break;
                }
            }
            out.push(Token {
                text: &text[start..end],
                start,
                end,
                kind: TokenKind::Number,
            });
        } else {
            let end = start + c.len_utf8();
            iter.next();
            out.push(Token {
                text: &text[start..end],
                start,
                end,
                kind: TokenKind::Punct,
            });
        }
        debug_assert!(out.last().is_none_or(|t| t.end <= bytes_len));
    }
    out
}

/// Text whose words mix ASCII, a capital sigma, `İ` and other non-ASCII
/// letters, separated by ASCII and non-ASCII whitespace (U+000B, U+000C,
/// U+0085, U+00A0, U+2028) and punctuation.
const HOSTILE: &str = "[aAzZ Σσİé\t\n\r\u{b}\u{c}\u{85}\u{a0}\u{2028}.,'19-]{0,60}";

#[test]
fn normalize_matches_charwise_on_whitespace_edge_cases() {
    for raw in [
        "a\u{b}b",
        "\u{b}A\u{b}",
        "a\u{85}b",
        "\u{85}",
        "A\u{a0}B",
        "\u{a0}\u{a0}",
        "G8\x0C\rSUMMIT",
        "ΟΔΟΣ\u{b}İ",
        "",
        " \t\n",
    ] {
        assert_eq!(normalize_term(raw), charwise_normalize(raw), "{raw:?}");
        let mut out = String::from("Kept\u{b}");
        normalize_term_into(raw, &mut out);
        assert_eq!(
            out,
            format!("Kept\u{b}{}", charwise_normalize(raw)),
            "{raw:?}"
        );
    }
}

#[test]
fn stopwords_answer_exactly_the_list() {
    for w in STOPWORDS {
        assert!(is_stopword(w), "{w}");
        let upper = w.to_uppercase();
        let capitalized = format!("{}{}", &w[..1].to_uppercase(), &w[1..]);
        for near in [
            upper.as_str(),
            capitalized.as_str(),
            &format!("{w}s"),
            &format!(" {w}"),
            &w[..w.len() - 1],
            &format!("{w}{w}"),
        ] {
            assert_eq!(is_stopword(near), STOPWORDS.contains(&near), "{near:?}");
        }
    }
    for w in ["", " ", "themselvesx", "yourselves", "aren\u{2019}t", "é"] {
        assert_eq!(is_stopword(w), STOPWORDS.contains(&w), "{w:?}");
    }
}

proptest! {
    /// Token spans never overlap, are in order, and slice back to the text.
    #[test]
    fn token_spans_are_ordered_and_faithful(text in "\\PC{0,200}") {
        let toks = tokens(&text);
        let mut prev_end = 0;
        for t in &toks {
            prop_assert!(t.start >= prev_end);
            prop_assert!(t.end > t.start);
            prop_assert_eq!(&text[t.start..t.end], t.text);
            prev_end = t.end;
        }
    }

    /// Everything between tokens is whitespace: tokens cover all
    /// non-whitespace content.
    #[test]
    fn tokens_cover_non_whitespace(text in "[a-zA-Z0-9 .,!?'-]{0,200}") {
        let toks = tokens(&text);
        let mut covered = vec![false; text.len()];
        for t in &toks {
            for c in covered.iter_mut().take(t.end).skip(t.start) {
                *c = true;
            }
        }
        for (i, ch) in text.char_indices() {
            if !ch.is_whitespace() {
                prop_assert!(covered[i], "byte {} ({:?}) uncovered", i, ch);
            }
        }
    }

    /// Stemming never grows a word and always yields a non-empty result for
    /// non-empty lowercase input.
    #[test]
    fn stem_shrinks(word in "[a-z]{1,30}") {
        let s = porter_stem(&word);
        prop_assert!(s.len() <= word.len());
        prop_assert!(!s.is_empty());
    }

    /// Stemming is deterministic.
    #[test]
    fn stem_deterministic(word in "[a-z]{1,30}") {
        prop_assert_eq!(porter_stem(&word), porter_stem(&word));
    }

    /// normalize_term is idempotent.
    #[test]
    fn normalize_idempotent(raw in "\\PC{0,100}") {
        let once = normalize_term(&raw);
        prop_assert_eq!(normalize_term(&once), once);
    }

    /// Interning round-trips and is stable across repeats.
    #[test]
    fn vocabulary_roundtrip(words in proptest::collection::vec("[a-z ]{1,20}", 1..50)) {
        let mut v = Vocabulary::new();
        let ids: Vec<_> = words.iter().map(|w| v.intern(w)).collect();
        for (w, id) in words.iter().zip(&ids) {
            prop_assert_eq!(v.term(*id), w.as_str());
            prop_assert_eq!(v.intern(w), *id);
        }
        prop_assert!(v.len() <= words.len());
    }

    /// Zipf sampling always returns a valid rank and is monotone in u.
    #[test]
    fn zipf_sample_valid(n in 1usize..200, s in 0.1f64..3.0, u in 0.0f64..1.0) {
        let z = Zipf::new(n, s);
        let r = z.sample(u);
        prop_assert!(r < n);
        // Monotonicity: larger u never maps to a smaller rank.
        let r2 = z.sample((u + 0.1).min(0.999_999));
        prop_assert!(r2 >= r);
    }

    /// n-gram count matches the window arithmetic for punctuation-free text.
    #[test]
    fn ngram_count(words in proptest::collection::vec("[a-z]{1,8}", 0..20), n in 1usize..4) {
        let text = words.join(" ");
        let grams = ngrams(&text, n);
        let expected = words.len().saturating_sub(n - 1);
        let expected = if words.len() >= n { expected } else { 0 };
        prop_assert_eq!(grams.len(), expected);
    }

    /// The ASCII fast path of `normalize_term_into` equals the char-wise
    /// loop, on printable text and on whitespace-heavy mixed text.
    #[test]
    fn normalize_matches_charwise(raw in "\\PC{0,100}", mixed in HOSTILE) {
        prop_assert_eq!(normalize_term(&raw), charwise_normalize(&raw));
        prop_assert_eq!(normalize_term(&mixed), charwise_normalize(&mixed));
    }

    /// `is_stopword` answers list membership, also for near misses.
    #[test]
    fn stopword_is_list_membership(word in "[a-zA-Z']{0,11}") {
        prop_assert_eq!(is_stopword(&word), STOPWORDS.contains(&word.as_str()));
    }

    /// Every key of a `LowerWords` is its words' `normalize_term`
    /// joined by single spaces, and two words are adjacent exactly when
    /// no punctuation token lies between them.
    #[test]
    fn lower_words_match_joined_lowercase(text in HOSTILE) {
        let toks = tokens(&text);
        let words: Vec<(usize, String)> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokenKind::Punct)
            .map(|(i, t)| (i, normalize_term(t.text)))
            .collect();
        let lower = LowerWords::new(&toks);
        prop_assert_eq!(lower.len(), words.len());
        for i in 0..words.len() {
            prop_assert_eq!(lower.source(i), (toks[words[i].0].start, toks[words[i].0].end));
            for len in 1..=words.len() - i {
                let joined: Vec<&str> = words[i..i + len].iter().map(|w| w.1.as_str()).collect();
                prop_assert_eq!(lower.key(i, len), joined.join(" "));
                let punct = toks[words[i].0..=words[i + len - 1].0]
                    .iter()
                    .any(|t| t.kind == TokenKind::Punct);
                prop_assert_eq!(lower.adjacent(i, len), !punct);
            }
        }
    }

    /// The streaming tokenizer, and `tokens` built on it, equal the
    /// `Vec`-building reference.
    #[test]
    fn streaming_tokens_equal_the_vec_reference(
        raw in "\\PC{0,200}",
        mixed in HOSTILE,
        joined in "[aZé'.,9 -]{0,40}",
    ) {
        for text in [&raw, &mixed, &joined] {
            let want = vec_tokens(text);
            prop_assert_eq!(tokens(text), want.clone());
            prop_assert_eq!(Tokens::new(text).collect::<Vec<_>>(), want);
        }
    }
}
