#![allow(clippy::unwrap_used)]

//! Property-based tests for the statistics substrate.

use facet_stats::{
    bins_by_frequency, chi_square_df, is_candidate, log_likelihood_ratio, rank_bin, rank_bins,
    ranks_by_frequency, shift_f, shift_r,
};
use proptest::prelude::*;

proptest! {
    /// The log-likelihood ratio is non-negative and zero iff df == df_c.
    #[test]
    fn llr_nonnegative(df in 0u64..500, df_c in 0u64..500) {
        let n = 500;
        let s = log_likelihood_ratio(df, df_c, n);
        prop_assert!(s >= 0.0);
        if df == df_c {
            prop_assert!(s.abs() < 1e-9);
        }
    }

    /// The statistic is symmetric in its two frequencies.
    #[test]
    fn llr_symmetric(df in 0u64..300, df_c in 0u64..300) {
        let n = 300;
        let a = log_likelihood_ratio(df, df_c, n);
        let b = log_likelihood_ratio(df_c, df, n);
        prop_assert!((a - b).abs() < 1e-9);
    }

    /// Growing the frequency gap (same direction) never shrinks the
    /// statistic.
    #[test]
    fn llr_monotone_in_gap(df in 0u64..100, gap in 0u64..100, extra in 0u64..100) {
        let n = 400;
        let small = log_likelihood_ratio(df, df + gap, n);
        let large = log_likelihood_ratio(df, df + gap + extra, n);
        prop_assert!(large + 1e-9 >= small, "{large} < {small}");
    }

    /// Chi-square is non-negative and finite on valid inputs.
    #[test]
    fn chi_square_sane(df in 0u64..200, df_c in 0u64..200) {
        let s = chi_square_df(df, df_c, 200);
        prop_assert!(s.is_finite());
        prop_assert!(s >= 0.0);
    }

    /// Rank bins grow monotonically with rank.
    #[test]
    fn rank_bin_monotone(rank in 1u64..1_000_000) {
        prop_assert!(rank_bin(rank + 1) >= rank_bin(rank));
        // And the bin is exactly ⌈log2 rank⌉.
        let expected = (rank as f64).log2().ceil() as u32;
        prop_assert_eq!(rank_bin(rank), expected);
    }

    /// Competition ranking: higher frequency → better (smaller) rank;
    /// equal frequency → equal rank; ranks start at 1.
    #[test]
    fn ranking_respects_frequencies(freqs in proptest::collection::vec(0u64..50, 1..60)) {
        let ranks = ranks_by_frequency(&freqs);
        prop_assert_eq!(ranks.len(), freqs.len());
        for i in 0..freqs.len() {
            prop_assert!(ranks[i] >= 1);
            for j in 0..freqs.len() {
                if freqs[i] > freqs[j] && freqs[j] > 0 {
                    prop_assert!(ranks[i] < ranks[j]);
                }
                if freqs[i] == freqs[j] && freqs[i] > 0 {
                    prop_assert_eq!(ranks[i], ranks[j]);
                }
            }
        }
    }

    /// Zero-frequency terms all share the worst rank.
    #[test]
    fn absent_terms_share_worst_rank(freqs in proptest::collection::vec(0u64..10, 2..40)) {
        let ranks = ranks_by_frequency(&freqs);
        let nonzero = freqs.iter().filter(|&&f| f > 0).count() as u64;
        for (i, &f) in freqs.iter().enumerate() {
            if f == 0 {
                prop_assert_eq!(ranks[i], nonzero + 1);
            } else {
                prop_assert!(ranks[i] <= nonzero);
            }
        }
    }

    /// The candidate predicate equals the conjunction of the two shifts.
    #[test]
    fn candidate_is_conjunction(df in 0u64..100, df_c in 0u64..100, bd in 0u32..20, bc in 0u32..20) {
        let expected = shift_f(df, df_c) > 0 && shift_r(bd, bc) > 0;
        prop_assert_eq!(is_candidate(df, df_c, bd, bc), expected);
    }

    /// rank_bins composes ranks_by_frequency with rank_bin.
    #[test]
    fn bins_compose(freqs in proptest::collection::vec(0u64..30, 1..40)) {
        let bins = rank_bins(&freqs);
        let ranks = ranks_by_frequency(&freqs);
        for (b, r) in bins.iter().zip(&ranks) {
            prop_assert_eq!(*b, rank_bin(*r));
        }
    }

    /// Counted bins equal the sort-based reference term by term, and
    /// zero-padding the table (terms absent from this database) moves no
    /// bin: a padded entry reads `bins[0]`.
    #[test]
    fn counted_bins_match_rank_bins(
        freqs in proptest::collection::vec(0u64..40, 0..80),
        pad in 0usize..6,
        slack in 0u64..5,
    ) {
        let max = freqs.iter().copied().max().unwrap_or(0) + slack;
        let counted = bins_by_frequency(&freqs, max);
        prop_assert_eq!(counted.len() as u64, max + 1);
        let mut padded = freqs.clone();
        padded.resize(freqs.len() + pad, 0);
        for (f, b) in padded.iter().zip(rank_bins(&padded)) {
            prop_assert_eq!(counted[*f as usize], b);
        }
    }
}
