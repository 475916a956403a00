#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # facet-stats
//!
//! Statistical machinery for the comparative term-frequency analysis of
//! Section IV-C of the paper:
//!
//! * [`loglik`] — Dunning's log-likelihood statistic for the binomial case,
//!   exactly as defined in the paper (and in Dunning 1993),
//! * [`chisq`] — the chi-square statistic, implemented for the ablation
//!   study (the paper argues it is *unsuitable* for power-law term
//!   frequencies; we reproduce that comparison),
//! * [`binning`] — the rank-binning function `B(t) = ⌈log2(Rank(t))⌉`,
//!   counted per frequency value in linear time, and the sort-based rank
//!   computation kept as its reference,
//! * [`shift`] — the frequency- and rank-based shift functions `Shift_f`
//!   and `Shift_r`.

pub mod binning;
pub mod chisq;
pub mod loglik;
pub mod shift;

pub use binning::{
    bins_by_frequency, bins_from_histogram, frequency_histogram, rank_bin, rank_bins,
    ranks_by_frequency, RankBin,
};
pub use chisq::{chi_square_2x2, chi_square_df};
pub use loglik::{binomial_log_likelihood, log_likelihood_ratio};
pub use shift::{is_candidate, shift_f, shift_r};
