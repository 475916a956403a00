//! Step 3: comparative term-frequency analysis (Section IV-C, Figure 3).
//!
//! A term `t` becomes a candidate facet term iff
//!
//! * `Shift_f(t) = df_C(t) − df(t) > 0`, and
//! * `Shift_r(t) = B_D(t) − B_C(t) > 0` with `B(t) = ⌈log2 Rank(t)⌉`,
//!
//! and candidates are ranked by the log-likelihood statistic `−log λ_t`
//! (or, for the ablation study, by chi-square).
//!
//! Selection keeps its state between publishes and never sorts the
//! vocabulary:
//!
//! * **Bins are counted, not sorted.** Competition rank depends on a term
//!   only through its frequency, `Rank(f) = 1 + #{terms with frequency
//!   > f}`, and an absent term gets `nonzero + 1`, the same formula at
//!   `f = 0`. So each table is counted into a histogram over frequency
//!   values, one suffix sum turns it into a bin per value
//!   ([`bins_from_histogram`]), and each term looks its bin up by its
//!   frequency. Terms past the end of the shorter table read as `f = 0`;
//!   no padded copy is made. This needs every `df` and `df_C` to be at
//!   most `n_docs` — a document frequency counts documents — which
//!   [`SelectionInputs`] states and a build asserts.
//! * **Only `Shift_f > 0` terms are scored.** A `CandidateSet` keeps
//!   both histograms and the set of terms with `df_C > df`. Appended rows
//!   change `df` and `df_C` only for the terms they hold, each from
//!   `new − k` to `new` for the `k` new rows holding it, so
//!   `CandidateSet::advance` moves only those terms; a publish then
//!   takes the bins from the histograms and tests `Shift_r` over the set.
//!   A fresh pass over the vocabulary (`CandidateSet::build`) runs only
//!   when there is no state to advance.
//! * **Only the top k are sorted.** The ranking comparators are total,
//!   so partial selection of the best `top_k` followed by a sort of
//!   those alone returns exactly what a full sort and truncation would —
//!   whatever order the set yields its terms in.

use facet_stats::{bins_from_histogram, chi_square_df, frequency_histogram, log_likelihood_ratio};
use facet_textkit::{RowStore, TermId, Vocabulary};
use std::cmp::Ordering;

/// Which significance statistic ranks the candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStatistic {
    /// Dunning's log-likelihood ratio (the paper's choice).
    LogLikelihood,
    /// Pearson chi-square (implemented for the ablation study; the paper
    /// explains why it is unsuitable under power-law term frequencies).
    ChiSquare,
}

/// A selected candidate facet term with its statistics.
#[derive(Debug, Clone)]
pub struct FacetCandidate {
    /// The term.
    pub term: TermId,
    /// Document frequency in the original database.
    pub df: u64,
    /// Document frequency in the contextualized database.
    pub df_c: u64,
    /// `Shift_f(t)`.
    pub shift_f: i64,
    /// `Shift_r(t)`.
    pub shift_r: i64,
    /// The ranking statistic (−log λ or chi-square).
    pub score: f64,
}

/// Inputs to the selection step.
///
/// Every entry of both tables must be at most `n_docs`: selection panics
/// otherwise, as [`log_likelihood_ratio`] does.
#[derive(Debug, Clone, Copy)]
pub struct SelectionInputs<'a> {
    /// Document-frequency table of `D`, indexed by term id.
    pub df: &'a [u64],
    /// Document-frequency table of `C(D)`, indexed by term id (may be
    /// longer than `df`: context terms extend the vocabulary).
    pub df_c: &'a [u64],
    /// Number of documents (same in `D` and `C(D)`).
    pub n_docs: u64,
}

/// Step 3's state between publishes: the frequency histograms of both
/// tables and the set of terms with `Shift_f > 0`, for the first
/// `n_docs` rows of `D` and `C(D)`. Everything else selection reads —
/// the bins, `Shift_r` and the score — is derived per publish from these
/// and the tables.
#[derive(Debug, Clone)]
pub(crate) struct CandidateSet {
    /// Rows of `D` and `C(D)` the state covers.
    n_docs: usize,
    /// Histograms of the nonzero `df` and `df_C` values
    /// ([`frequency_histogram`]).
    hist_d: Vec<u64>,
    hist_c: Vec<u64>,
    /// The terms with `df_C > df`, as a bit per term id, so a selection
    /// reads the tables in id order.
    shifted: Vec<u64>,
    /// Per term, the new rows holding it; zero between advances.
    held: Vec<u32>,
}

impl CandidateSet {
    /// The state for `inputs`, by one pass over both tables.
    ///
    /// # Panics
    /// Panics if a table entry exceeds `inputs.n_docs`.
    pub(crate) fn build(inputs: SelectionInputs<'_>) -> Self {
        let SelectionInputs { df, df_c, n_docs } = inputs;
        let max_freq = df.iter().chain(df_c).copied().max().unwrap_or(0);
        assert!(max_freq <= n_docs, "frequency {max_freq} > n_docs {n_docs}");
        let len = df.len().max(df_c.len());
        let mut set = Self {
            n_docs: n_docs as usize,
            hist_d: frequency_histogram(df, max_freq),
            hist_c: frequency_histogram(df_c, max_freq),
            shifted: vec![0; len.div_ceil(64)],
            held: vec![0; len],
        };
        for i in 0..len {
            let t = TermId(i as u32);
            set.place(t, inputs);
        }
        set
    }

    /// Bring the state up to `inputs`, whose tables count the rows of
    /// `d_rows` (`D`) and `c_rows` (`C(D)`): the rows past the ones the
    /// state covers are the only change since, and each term they hold
    /// moves by the number of them holding it. Costs O(new rows' terms +
    /// `n_docs`), independent of the vocabulary.
    pub(crate) fn advance(
        &mut self,
        inputs: SelectionInputs<'_>,
        d_rows: &RowStore,
        c_rows: &RowStore,
    ) {
        let len = inputs.df.len().max(inputs.df_c.len());
        self.shifted.resize(len.div_ceil(64), 0);
        self.held.resize(len, 0);
        let bound = inputs.n_docs as usize + 1;
        for hist in [&mut self.hist_d, &mut self.hist_c] {
            hist.resize(hist.len().max(bound), 0);
        }
        let mut touched: Vec<TermId> = Vec::new();
        for (hist, table, rows) in [
            (&mut self.hist_d, inputs.df, d_rows),
            (&mut self.hist_c, inputs.df_c, c_rows),
        ] {
            let start = touched.len();
            for row in rows.iter_from(self.n_docs) {
                for &t in row {
                    if self.held[t.index()] == 0 {
                        touched.push(t);
                    }
                    self.held[t.index()] += 1;
                }
            }
            for &t in &touched[start..] {
                let new = table[t.index()];
                let old = new - u64::from(self.held[t.index()]);
                if old > 0 {
                    hist[old as usize] -= 1;
                }
                hist[new as usize] += 1;
                self.held[t.index()] = 0;
            }
        }
        for t in touched {
            self.place(t, inputs);
        }
        self.n_docs = inputs.n_docs as usize;
    }

    /// Put `t` in the set or take it out, by its `Shift_f` in `inputs`.
    fn place(&mut self, t: TermId, inputs: SelectionInputs<'_>) {
        let d = inputs.df.get(t.index()).copied().unwrap_or(0);
        let c = inputs.df_c.get(t.index()).copied().unwrap_or(0);
        let (word, bit) = (t.index() / 64, 1u64 << (t.index() % 64));
        if c > d {
            self.shifted[word] |= bit;
        } else {
            self.shifted[word] &= !bit;
        }
    }

    /// The number of terms with `Shift_f > 0`: what a selection scores.
    pub(crate) fn len(&self) -> usize {
        self.shifted.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Every candidate passing the shift and `min_df_c` filters over
    /// `inputs` — the tables the state was built or advanced for —
    /// unranked, in term-id order. The candidate *set* depends only on
    /// the frequency tables (rank bins use competition ranking, so ties
    /// share a bin), never on term-id assignment order.
    pub(crate) fn select(
        &self,
        inputs: SelectionInputs<'_>,
        statistic: SelectionStatistic,
        min_df_c: u64,
    ) -> Vec<FacetCandidate> {
        let SelectionInputs { df, df_c, n_docs } = inputs;
        let bins_d = bins_from_histogram(&self.hist_d);
        let bins_c = bins_from_histogram(&self.hist_c);
        let mut candidates: Vec<FacetCandidate> = Vec::new();
        let members = self.shifted.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let b = bits.trailing_zeros();
                bits &= bits.wrapping_sub(1);
                (b < 64).then(|| TermId((w * 64) as u32 + b))
            })
        });
        for t in members {
            let d = df.get(t.index()).copied().unwrap_or(0);
            let c = df_c[t.index()];
            if c < min_df_c {
                continue;
            }
            let shift_r = bins_d[d as usize] as i64 - bins_c[c as usize] as i64;
            if shift_r <= 0 {
                continue;
            }
            let score = match statistic {
                SelectionStatistic::LogLikelihood => log_likelihood_ratio(d, c, n_docs),
                SelectionStatistic::ChiSquare => chi_square_df(d, c, n_docs),
            };
            candidates.push(FacetCandidate {
                term: t,
                df: d,
                df_c: c,
                shift_f: c as i64 - d as i64,
                shift_r,
                score,
            });
        }
        candidates
    }
}

/// The first `top_k` candidates under the total order `cmp`, sorted: the
/// result of a full sort and truncation, found by partial selection so
/// that only the kept `top_k` are sorted.
fn top_k_by(
    mut candidates: Vec<FacetCandidate>,
    top_k: usize,
    cmp: impl Fn(&FacetCandidate, &FacetCandidate) -> Ordering,
) -> Vec<FacetCandidate> {
    if top_k == 0 {
        return Vec::new();
    }
    if top_k < candidates.len() {
        candidates.select_nth_unstable_by(top_k - 1, &cmp);
        candidates.truncate(top_k);
    }
    candidates.sort_unstable_by(cmp);
    candidates
}

/// Rank `candidates` (from [`CandidateSet::select`]) with an
/// interning-order-independent order and keep the first `top_k`: score
/// descending, ties broken by the term *string* (then id, unreachable
/// for distinct strings in one vocabulary).
///
/// This is the order [`crate::shard::ShardedFacetIndex`] publishes:
/// appending a corpus in batches interleaves context-term interning
/// with later batches' corpus terms, so ids differ between runs, but
/// the string-ranked candidate list comes out identical.
pub(crate) fn rank_stable(
    candidates: Vec<FacetCandidate>,
    top_k: usize,
    vocab: &Vocabulary,
) -> Vec<FacetCandidate> {
    top_k_by(candidates, top_k, |a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| {
                vocab
                    .try_term(a.term)
                    .unwrap_or("")
                    .cmp(vocab.try_term(b.term).unwrap_or(""))
            })
            .then_with(|| a.term.cmp(&b.term))
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Collect every candidate passing the shift and `min_df_c` filters,
    /// unranked, in term-id order, by one loop over the whole vocabulary:
    /// the selection every publish ran before `CandidateSet`, kept as
    /// the reference it must reproduce.
    ///
    /// # Panics
    /// Panics if a table entry exceeds `inputs.n_docs`.
    pub(crate) fn collect_candidates(
        inputs: SelectionInputs<'_>,
        statistic: SelectionStatistic,
        min_df_c: u64,
    ) -> Vec<FacetCandidate> {
        use facet_stats::bins_by_frequency;
        let SelectionInputs { df, df_c, n_docs } = inputs;
        let max_freq = df.iter().chain(df_c).copied().max().unwrap_or(0);
        assert!(max_freq <= n_docs, "frequency {max_freq} > n_docs {n_docs}");
        let bins_d = bins_by_frequency(df, max_freq);
        let bins_c = bins_by_frequency(df_c, max_freq);

        let mut candidates: Vec<FacetCandidate> = Vec::new();
        for i in 0..df.len().max(df_c.len()) {
            let d = df.get(i).copied().unwrap_or(0);
            let c = df_c.get(i).copied().unwrap_or(0);
            let shift_f = c as i64 - d as i64;
            if shift_f <= 0 || c < min_df_c {
                continue;
            }
            let shift_r = bins_d[d as usize] as i64 - bins_c[c as usize] as i64;
            if shift_r <= 0 {
                continue;
            }
            let score = match statistic {
                SelectionStatistic::LogLikelihood => log_likelihood_ratio(d, c, n_docs),
                SelectionStatistic::ChiSquare => chi_square_df(d, c, n_docs),
            };
            candidates.push(FacetCandidate {
                term: TermId(i as u32),
                df: d,
                df_c: c,
                shift_f,
                shift_r,
                score,
            });
        }
        candidates
    }

    /// Build a scenario: term 0 is a background word (frequent in both),
    /// term 1 is a facet term (absent in D, frequent in C), term 2 shrinks,
    /// terms 3.. are mid-frequency fillers that keep ranks meaningful.
    fn tables() -> (Vec<u64>, Vec<u64>) {
        let mut df = vec![900, 0, 50];
        let mut df_c = vec![905, 420, 30];
        for i in 0..20 {
            df.push(300 - i * 10);
            df_c.push(305 - i * 10);
        }
        (df, df_c)
    }

    /// What the index publishes for `inputs`: a fresh `CandidateSet`'s
    /// candidates, ranked by [`rank_stable`] over `vocab`.
    fn ranked_in(
        inputs: SelectionInputs<'_>,
        statistic: SelectionStatistic,
        top_k: usize,
        min_df_c: u64,
        vocab: &Vocabulary,
    ) -> Vec<FacetCandidate> {
        let found = CandidateSet::build(inputs).select(inputs, statistic, min_df_c);
        rank_stable(found, top_k, vocab)
    }

    /// [`ranked_in`] over a vocabulary of `t<id>` strings.
    fn ranked(
        inputs: SelectionInputs<'_>,
        statistic: SelectionStatistic,
        top_k: usize,
        min_df_c: u64,
    ) -> Vec<FacetCandidate> {
        let mut vocab = Vocabulary::new();
        for i in 0..inputs.df.len().max(inputs.df_c.len()) {
            vocab.intern(&format!("t{i}"));
        }
        ranked_in(inputs, statistic, top_k, min_df_c, &vocab)
    }

    #[test]
    fn facet_term_selected_background_not() {
        let (df, df_c) = tables();
        let out = ranked(
            SelectionInputs {
                df: &df,
                df_c: &df_c,
                n_docs: 1000,
            },
            SelectionStatistic::LogLikelihood,
            100,
            1,
        );
        let terms: Vec<u32> = out.iter().map(|c| c.term.0).collect();
        assert!(terms.contains(&1), "facet term must be selected: {terms:?}");
        assert!(!terms.contains(&0), "background word must not be selected");
        assert!(!terms.contains(&2), "shrinking term must not be selected");
    }

    #[test]
    fn ranked_by_score_descending() {
        let (df, df_c) = tables();
        let out = ranked(
            SelectionInputs {
                df: &df,
                df_c: &df_c,
                n_docs: 1000,
            },
            SelectionStatistic::LogLikelihood,
            100,
            1,
        );
        for w in out.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn top_k_truncates() {
        let (df, df_c) = tables();
        let out = ranked(
            SelectionInputs {
                df: &df,
                df_c: &df_c,
                n_docs: 1000,
            },
            SelectionStatistic::LogLikelihood,
            1,
            1,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn min_df_c_filters() {
        // Background terms (ids 2..) keep the rank structure of D
        // non-degenerate so absent terms land in a high bin.
        let df = vec![0, 0, 100, 50, 30, 10];
        let df_c = vec![2, 50, 100, 50, 30, 10];
        let out = ranked(
            SelectionInputs {
                df: &df,
                df_c: &df_c,
                n_docs: 100,
            },
            SelectionStatistic::LogLikelihood,
            10,
            3,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].term, TermId(1));
    }

    #[test]
    fn context_extends_vocabulary() {
        // df_c longer than df: the new term ids must be handled.
        let df = vec![10u64];
        let df_c = vec![12u64, 40];
        let out = ranked(
            SelectionInputs {
                df: &df,
                df_c: &df_c,
                n_docs: 100,
            },
            SelectionStatistic::LogLikelihood,
            10,
            1,
        );
        assert!(out.iter().any(|c| c.term == TermId(1)));
    }

    #[test]
    fn stable_ranking_breaks_ties_by_string_not_id() {
        // "zebra" is interned before "apple"; both have identical
        // statistics, so their scores tie exactly.
        let mut vocab = Vocabulary::new();
        vocab.intern("zebra");
        vocab.intern("apple");
        let mut df = vec![0u64, 0];
        let mut df_c = vec![420u64, 420];
        for i in 0..20 {
            vocab.intern(&format!("filler{i:02}"));
            df.push(300 - i * 10);
            df_c.push(305 - i * 10);
        }
        let inputs = SelectionInputs {
            df: &df,
            df_c: &df_c,
            n_docs: 1000,
        };
        let stable = ranked_in(inputs, SelectionStatistic::LogLikelihood, 100, 1, &vocab);
        // Tie order follows strings (apple first), not ids (zebra
        // first).
        assert_eq!(stable[0].term, TermId(1), "string order puts apple first");
        assert_eq!(stable[1].term, TermId(0));
    }

    #[test]
    fn chi_square_variant_runs() {
        let (df, df_c) = tables();
        let out = ranked(
            SelectionInputs {
                df: &df,
                df_c: &df_c,
                n_docs: 1000,
            },
            SelectionStatistic::ChiSquare,
            100,
            1,
        );
        assert!(out.iter().any(|c| c.term == TermId(1)));
    }

    #[test]
    fn shifts_recorded() {
        let (df, df_c) = tables();
        let out = ranked(
            SelectionInputs {
                df: &df,
                df_c: &df_c,
                n_docs: 1000,
            },
            SelectionStatistic::LogLikelihood,
            100,
            1,
        );
        let facet = out.iter().find(|c| c.term == TermId(1)).unwrap();
        assert_eq!(facet.shift_f, 420);
        assert!(facet.shift_r > 0);
        assert_eq!(facet.df, 0);
        assert_eq!(facet.df_c, 420);
    }

    #[test]
    #[should_panic(expected = "n_docs")]
    fn frequency_above_n_docs_panics() {
        let _ = CandidateSet::build(SelectionInputs {
            df: &[1],
            df_c: &[0, 11],
            n_docs: 10,
        });
    }

    /// The selection path before bins were counted, verbatim: padded
    /// copies, sort-based `rank_bins`, a full sort with the stable
    /// comparator, then `truncate`.
    fn reference_select(
        inputs: SelectionInputs<'_>,
        statistic: SelectionStatistic,
        top_k: usize,
        min_df_c: u64,
        vocab: &Vocabulary,
    ) -> Vec<FacetCandidate> {
        use facet_stats::rank_bins;
        let vocab_len = inputs.df_c.len().max(inputs.df.len());
        let mut df = inputs.df.to_vec();
        df.resize(vocab_len, 0);
        let mut df_c = inputs.df_c.to_vec();
        df_c.resize(vocab_len, 0);

        let bins_d = rank_bins(&df);
        let bins_c = rank_bins(&df_c);

        let mut candidates: Vec<FacetCandidate> = Vec::new();
        for i in 0..vocab_len {
            let shift_f = df_c[i] as i64 - df[i] as i64;
            let shift_r = bins_d[i] as i64 - bins_c[i] as i64;
            if shift_f <= 0 || shift_r <= 0 || df_c[i] < min_df_c {
                continue;
            }
            let score = match statistic {
                SelectionStatistic::LogLikelihood => {
                    log_likelihood_ratio(df[i], df_c[i], inputs.n_docs)
                }
                SelectionStatistic::ChiSquare => chi_square_df(df[i], df_c[i], inputs.n_docs),
            };
            candidates.push(FacetCandidate {
                term: TermId(i as u32),
                df: df[i],
                df_c: df_c[i],
                shift_f,
                shift_r,
                score,
            });
        }
        candidates.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| {
                    vocab
                        .try_term(a.term)
                        .unwrap_or("")
                        .cmp(vocab.try_term(b.term).unwrap_or(""))
                })
                .then_with(|| a.term.cmp(&b.term))
        });
        candidates.truncate(top_k);
        candidates
    }

    /// Everything a candidate carries, with the score as bits.
    fn bits(out: &[FacetCandidate]) -> Vec<(u32, u64, u64, i64, i64, u64)> {
        out.iter()
            .map(|c| {
                (
                    c.term.0,
                    c.df,
                    c.df_c,
                    c.shift_f,
                    c.shift_r,
                    c.score.to_bits(),
                )
            })
            .collect()
    }

    /// Counted bins with partial top-k reproduce the sort-based path
    /// candidate for candidate — order, statistics and score bits — from
    /// a fresh `CandidateSet` and from the whole-vocabulary pass, over
    /// tables drawn from small value ranges (so scores tie and string
    /// tie-breaks fire), tables of unequal length,
    /// all-zero tables, both statistics, several `min_df_c`, and `top_k`
    /// of 0, 1, a random count inside the candidates, exactly the
    /// candidate count, and beyond it.
    #[test]
    fn selection_matches_sort_based_reference() {
        use proptest::test_runner::TestRng;
        let mut rng = TestRng::deterministic("selection_matches_sort_based_reference");
        for case in 0..600 {
            let n_docs = 1 + rng.below(60);
            let max_value = [1, 2, 4, 8, n_docs][rng.below(5) as usize].min(n_docs);
            let all_zero = case % 10 == 0;
            let df_len = rng.below(40);
            // Mostly a longer df_c (context terms extend the vocabulary),
            // sometimes the other way round.
            let df_c_len = if rng.below(4) == 0 {
                rng.below(df_len + 1)
            } else {
                df_len + rng.below(12)
            };
            let mut draw = |len: u64| -> Vec<u64> {
                (0..len)
                    .map(|_| {
                        if all_zero {
                            0
                        } else {
                            rng.below(max_value + 1)
                        }
                    })
                    .collect()
            };
            let df = draw(df_len);
            let df_c = draw(df_c_len);
            // Short words over a small alphabet, made distinct by a
            // suffix, so string order disagrees with id order.
            let mut vocab = Vocabulary::new();
            for i in 0..df_len.max(df_c_len) {
                let word: String = (0..1 + rng.below(3))
                    .map(|_| char::from(b'a' + rng.below(3) as u8))
                    .collect();
                vocab.intern(&format!("{word}{i}"));
            }
            let inputs = SelectionInputs {
                df: &df,
                df_c: &df_c,
                n_docs,
            };
            let statistic = [
                SelectionStatistic::LogLikelihood,
                SelectionStatistic::ChiSquare,
            ][rng.below(2) as usize];
            let min_df_c = [0, 1, 2, 5][rng.below(4) as usize];
            let found = reference_select(inputs, statistic, usize::MAX, min_df_c, &vocab).len();
            let inside = 1 + rng.below(found.max(1) as u64) as usize;
            for top_k in [0, 1, inside, found, found + 1 + rng.below(5) as usize] {
                let want = bits(&reference_select(
                    inputs, statistic, top_k, min_df_c, &vocab,
                ));
                assert_eq!(
                    bits(&ranked_in(inputs, statistic, top_k, min_df_c, &vocab)),
                    want,
                    "candidate set, case {case}, top_k {top_k}"
                );
                assert_eq!(
                    bits(&rank_stable(
                        collect_candidates(inputs, statistic, min_df_c),
                        top_k,
                        &vocab
                    )),
                    want,
                    "fresh pass, case {case}, top_k {top_k}"
                );
            }
        }
    }

    /// A pair of df tables over the same vocabulary with
    /// `df_c[i] >= df[i]` (context only ever adds documents).
    fn df_tables() -> impl proptest::strategy::Strategy<Value = (Vec<u64>, Vec<u64>, u64)> {
        use proptest::prelude::*;
        proptest::collection::vec((0u64..50, 0u64..30), 2..80).prop_map(|pairs| {
            let df: Vec<u64> = pairs.iter().map(|&(d, _)| d).collect();
            let df_c: Vec<u64> = pairs.iter().map(|&(d, extra)| d + extra).collect();
            let n = df_c.iter().copied().max().unwrap_or(0).max(1) + 10;
            (df, df_c, n)
        })
    }

    proptest::proptest! {
        /// Selection invariants: every candidate has both shifts positive,
        /// scores are sorted descending, and nothing exceeds top_k.
        #[test]
        fn selection_invariants((df, df_c, n) in df_tables(), top_k in 1usize..50) {
            use proptest::prelude::*;
            let out = ranked(
                SelectionInputs { df: &df, df_c: &df_c, n_docs: n },
                SelectionStatistic::LogLikelihood,
                top_k,
                1,
            );
            prop_assert!(out.len() <= top_k);
            for w in out.windows(2) {
                prop_assert!(w[0].score >= w[1].score);
            }
            for c in &out {
                prop_assert!(c.shift_f > 0);
                prop_assert!(c.shift_r > 0);
                prop_assert_eq!(c.df, df[c.term.index()]);
                prop_assert_eq!(c.df_c, df_c[c.term.index()]);
                prop_assert!(c.score >= 0.0);
            }
        }

        /// A term with no frequency gain is never selected.
        #[test]
        fn unchanged_terms_never_selected((df, _, n) in df_tables()) {
            use proptest::prelude::*;
            let out = ranked(
                SelectionInputs { df: &df, df_c: &df, n_docs: n },
                SelectionStatistic::LogLikelihood,
                100,
                1,
            );
            prop_assert!(out.is_empty(), "no term changed, none should be selected");
        }
    }
}
