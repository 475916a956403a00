//! Anchor-text statistics.
//!
//! Every link in the synthetic Wikipedia carries an anchor phrase. The
//! paper scores an anchor phrase `p` pointing at entry `t` as
//! `s(p, t) = tf(p, t) / f(p)`, where `tf(p, t)` is how many times `p`
//! links to `t` and `f(p)` is how many *distinct* entries `p` points to.
//! Unambiguous anchors score 1; anchors reused across many targets score
//! low. The Synonyms resource keeps anchors above a score threshold.

use crate::page::PageId;
use facet_textkit::lowercase;
use std::collections::HashMap;

/// Anchor-text occurrence counts.
#[derive(Debug, Default, Clone)]
pub struct AnchorTable {
    /// (anchor phrase, target) → count.
    counts: HashMap<(String, PageId), u32>,
    /// anchor phrase → distinct targets.
    // lint:allow(string-keyed-map, reason="resource-backend boundary: anchors are looked up by surface phrase from extractor output; phrases are never interned into the pipeline vocabulary")
    targets: HashMap<String, Vec<PageId>>,
    /// target → distinct anchor phrases pointing at it.
    by_target: HashMap<PageId, Vec<String>>,
}

impl AnchorTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one use of `phrase` as anchor text for a link to `target`.
    /// Phrases are normalized to lowercase.
    pub fn record(&mut self, phrase: &str, target: PageId) {
        let phrase = lowercase(phrase);
        *self.counts.entry((phrase.clone(), target)).or_insert(0) += 1;
        let targets = self.targets.entry(phrase.clone()).or_default();
        if !targets.contains(&target) {
            targets.push(target);
        }
        let phrases = self.by_target.entry(target).or_default();
        if !phrases.contains(&phrase) {
            phrases.push(phrase);
        }
    }

    /// `tf(p, t)`: times `phrase` was used to link to `target`.
    pub fn tf(&self, phrase: &str, target: PageId) -> u32 {
        self.counts
            .get(&(lowercase(phrase), target))
            .copied()
            .unwrap_or(0)
    }

    /// `f(p)`: number of distinct targets `phrase` points to.
    pub fn fanout(&self, phrase: &str) -> u32 {
        self.targets
            .get(&lowercase(phrase))
            .map_or(0, |v| v.len() as u32)
    }

    /// The paper's anchor score `s(p, t) = tf(p, t) / f(p)`; 0 if the
    /// phrase never points at the target.
    pub fn score(&self, phrase: &str, target: PageId) -> f64 {
        let tf = self.tf(phrase, target);
        if tf == 0 {
            return 0.0;
        }
        tf as f64 / self.fanout(phrase).max(1) as f64
    }

    /// All anchor phrases pointing at `target`, with their scores,
    /// descending by score (ties broken lexicographically for
    /// determinism).
    pub fn anchors_of(&self, target: PageId) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .by_target
            .get(&target)
            .map(|phrases| {
                phrases
                    .iter()
                    .map(|p| (p.clone(), self.score(p, target)))
                    .collect()
            })
            .unwrap_or_default();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Number of distinct (phrase, target) pairs.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if no anchors are recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoring_matches_paper_formula() {
        let mut a = AnchorTable::new();
        let t1 = PageId(1);
        let t2 = PageId(2);
        // "samurai tsunenaga" → t1 three times; "samurai" → t1 once, t2 twice.
        a.record("Samurai Tsunenaga", t1);
        a.record("Samurai Tsunenaga", t1);
        a.record("Samurai Tsunenaga", t1);
        a.record("samurai", t1);
        a.record("samurai", t2);
        a.record("samurai", t2);
        assert_eq!(a.tf("samurai tsunenaga", t1), 3);
        assert_eq!(a.fanout("samurai tsunenaga"), 1);
        assert_eq!(a.score("samurai tsunenaga", t1), 3.0);
        assert_eq!(a.fanout("samurai"), 2);
        assert!((a.score("samurai", t1) - 0.5).abs() < 1e-12);
        assert!((a.score("samurai", t2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anchors_of_sorted_by_score() {
        let mut a = AnchorTable::new();
        let t = PageId(1);
        a.record("good anchor", t);
        a.record("good anchor", t);
        a.record("ambiguous", t);
        a.record("ambiguous", PageId(2));
        a.record("ambiguous", PageId(3));
        let ranked = a.anchors_of(t);
        assert_eq!(ranked[0].0, "good anchor");
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn unknown_phrase_scores_zero() {
        let a = AnchorTable::new();
        assert_eq!(a.score("nothing", PageId(0)), 0.0);
        assert!(a.anchors_of(PageId(0)).is_empty());
    }
}
