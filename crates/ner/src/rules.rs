//! Rule-based entity detection: capitalization patterns and
//! suffix/honorific cues, for entities the gazetteer does not know.

use facet_knowledge::names::HONORIFICS;
use facet_textkit::{tokens, Token, TokenKind};

/// Capitalized-but-common sentence starters that must not be absorbed
/// into an entity span ("Yesterday Jacques Chirac…").
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

/// Detect entity-like spans by rule:
///
/// * runs of two or more capitalized words ("Jacques Chirac"),
/// * honorific + capitalized word ("Senator Brask"),
/// * capitalized run ending in an organization suffix ("Zorit Systems"),
/// * single capitalized words that are *not* sentence-initial.
///
/// Returns `(text, start, end)` spans, non-overlapping, document order.
pub fn rule_based_spans(text: &str) -> Vec<(&str, usize, usize)> {
    rule_spans_in(text, &tokens(text))
}

/// [`rule_based_spans`] over `toks`, the [`tokens`] of `text`.
pub(crate) fn rule_spans_in<'t>(text: &'t str, toks: &[Token<'_>]) -> Vec<(&'t str, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Word || !t.is_capitalized() {
            i += 1;
            continue;
        }
        // Common sentence starters never begin an entity span.
        if COMMON_STARTERS.contains(&t.text) {
            i += 1;
            continue;
        }
        // Gather the maximal capitalized run starting here.
        let mut j = i + 1;
        while j < toks.len()
            && toks[j].kind == TokenKind::Word
            && toks[j].is_capitalized()
            && toks[j].start == toks[j - 1].end + 1
        {
            j += 1;
        }
        // A single capitalized word is accepted only mid-sentence and
        // non-honorific (a bare "Senator" is a title, not an entity).
        let accept = j - i >= 2 || (!is_sentence_initial(toks, i) && !HONORIFICS.contains(&t.text));
        if accept {
            // Drop a leading honorific from multi-word runs: "Senator
            // Brask" → span covers both (the honorific disambiguates), but
            // plain "The" style words were never capitalized-matched here.
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

/// True if token `i` starts a sentence: it is the first token, or the
/// previous token is sentence-ending punctuation.
fn is_sentence_initial(toks: &[Token<'_>], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = &toks[i - 1];
    prev.kind == TokenKind::Punct && matches!(prev.text, "." | "!" | "?")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiword_runs_detected() {
        let spans = rule_based_spans("Yesterday Jacques Chirac spoke.");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].0, "Jacques Chirac");
    }

    #[test]
    fn sentence_initial_singleton_skipped() {
        let spans = rule_based_spans("Analysts disagreed. Supporters cheered.");
        assert!(spans.is_empty(), "got {spans:?}");
    }

    #[test]
    fn mid_sentence_singleton_accepted() {
        let spans = rule_based_spans("The leaders met in Paris yesterday.");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].0, "Paris");
    }

    #[test]
    fn honorific_plus_name() {
        let spans = rule_based_spans("He met Senator Brask at noon.");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].0, "Senator Brask");
    }

    #[test]
    fn bare_honorific_skipped() {
        let spans = rule_based_spans("A bill reached the Senator yesterday, the Governor said no.");
        // "Senator" and "Governor" alone are titles, not entities.
        assert!(spans.is_empty(), "got {spans:?}");
    }

    #[test]
    fn org_suffix_runs() {
        let spans = rule_based_spans("Shares of Zorit Systems fell sharply.");
        assert_eq!(spans[0].0, "Zorit Systems");
    }

    #[test]
    fn sentence_initial_multiword_accepted() {
        let spans = rule_based_spans("Jacques Chirac spoke first.");
        assert_eq!(spans[0].0, "Jacques Chirac");
    }
}
