//! Frequency ranking and logarithmic rank binning.
//!
//! Section IV-C of the paper defines the rank-based shift through a binning
//! function `B(t) = ⌈log2(Rank(t))⌉`, where `Rank(t)` is the rank of term
//! `t` in a database ordered by decreasing frequency (rank 1 = most
//! frequent). Binning absorbs the rank jitter among terms of similar
//! frequency; only moves across bins count as rank shifts.

/// A logarithmic rank bin: `B(t) = ⌈log2(rank)⌉` with rank ≥ 1.
pub type RankBin = u32;

/// Compute `⌈log2(rank)⌉` for a 1-based rank.
///
/// ```
/// use facet_stats::rank_bin;
/// assert_eq!(rank_bin(1), 0);
/// assert_eq!(rank_bin(8), 3);
/// assert_eq!(rank_bin(9), 4);
/// ```
///
/// Rank 1 → bin 0, rank 2 → 1, ranks 3–4 → 2, ranks 5–8 → 3, …
///
/// # Panics
/// Panics if `rank == 0` (ranks are 1-based, as in the paper).
pub fn rank_bin(rank: u64) -> RankBin {
    assert!(rank > 0, "ranks are 1-based");
    // ceil(log2(r)) == bits needed to represent r-1 when r > 1.
    if rank == 1 {
        0
    } else {
        (u64::BITS - (rank - 1).leading_zeros()) as RankBin
    }
}

/// Given a frequency table `freqs[i] = frequency of term i`, return the
/// 1-based rank of every term when ordered by decreasing frequency.
///
/// Ties share the same rank (standard competition ranking, "1224"): all
/// terms with equal frequency get the rank of the first of their group.
/// Terms with zero frequency receive the worst possible rank
/// (`number of nonzero terms + 1`), reflecting "not present in the
/// database".
pub fn ranks_by_frequency(freqs: &[u64]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..freqs.len()).collect();
    order.sort_by(|&a, &b| freqs[b].cmp(&freqs[a]).then(a.cmp(&b)));
    let mut ranks = vec![0u64; freqs.len()];
    let nonzero = freqs.iter().filter(|&&f| f > 0).count() as u64;
    let absent_rank = nonzero + 1;
    let mut current_rank = 0u64;
    let mut prev_freq: Option<u64> = None;
    for (pos, &idx) in order.iter().enumerate() {
        let f = freqs[idx];
        if f == 0 {
            ranks[idx] = absent_rank;
            continue;
        }
        if prev_freq != Some(f) {
            current_rank = pos as u64 + 1;
            prev_freq = Some(f);
        }
        ranks[idx] = current_rank;
    }
    ranks
}

/// Compute the rank bin of every term in a frequency table:
/// `bins[i] = ⌈log2(Rank(term i))⌉`, by sorting the table. The reference
/// that [`bins_by_frequency`] is tested against.
pub fn rank_bins(freqs: &[u64]) -> Vec<RankBin> {
    ranks_by_frequency(freqs)
        .into_iter()
        .map(rank_bin)
        .collect()
}

/// The rank bin of every frequency *value* in a table whose entries are
/// all at most `max_freq`: `bins[f] = ⌈log2 Rank(f)⌉` with
/// `Rank(f) = 1 + #{entries > f}`, so a term with frequency `f` has bin
/// `bins[f]`. `bins[0]` is the bin of an absent term (`nonzero + 1`, as
/// in [`ranks_by_frequency`]), which also covers entries beyond the end
/// of a shorter table: zeros never count towards any rank.
///
/// [`frequency_histogram`] followed by [`bins_from_histogram`], so
/// `O(freqs.len() + max_freq)`.
///
/// ```
/// use facet_stats::bins_by_frequency;
/// // freqs 7, 7, 3, 1 → ranks 1, 1, 3, 4 → bins 0, 0, 2, 2; absent → rank 5.
/// let bins = bins_by_frequency(&[7, 7, 3, 1], 7);
/// assert_eq!((bins[7], bins[3], bins[1], bins[0]), (0, 2, 2, 3));
/// ```
///
/// # Panics
/// Panics if an entry exceeds `max_freq`.
pub fn bins_by_frequency(freqs: &[u64], max_freq: u64) -> Vec<RankBin> {
    bins_from_histogram(&frequency_histogram(freqs, max_freq))
}

/// The `max_freq + 1` histogram of a table's nonzero entries: `hist[f]`
/// is the number of entries equal to `f` for `f ≥ 1`, and `hist[0]` is 0,
/// since zeros never count towards any rank. A caller that keeps the
/// histogram moves an entry from `f` to `f'` by one decrement (skipped
/// for `f = 0`) and one increment.
///
/// # Panics
/// Panics if an entry exceeds `max_freq`.
pub fn frequency_histogram(freqs: &[u64], max_freq: u64) -> Vec<u64> {
    let mut hist = vec![0u64; max_freq as usize + 1];
    for &f in freqs {
        hist[f as usize] += 1;
    }
    hist[0] = 0;
    hist
}

/// The rank bin of every frequency value `f < hist.len()`, from the
/// histogram of a table's nonzero entries ([`frequency_histogram`]): one
/// suffix sum over the histogram.
pub fn bins_from_histogram(hist: &[u64]) -> Vec<RankBin> {
    // Walk frequencies downwards, `above` counting the entries seen so
    // far, i.e. those with a strictly larger frequency.
    let mut above = 0u64;
    let mut bins = vec![0; hist.len()];
    for (bin, count) in bins.iter_mut().zip(hist).rev() {
        *bin = rank_bin(above + 1);
        above += count;
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_boundaries() {
        assert_eq!(rank_bin(1), 0);
        assert_eq!(rank_bin(2), 1);
        assert_eq!(rank_bin(3), 2);
        assert_eq!(rank_bin(4), 2);
        assert_eq!(rank_bin(5), 3);
        assert_eq!(rank_bin(8), 3);
        assert_eq!(rank_bin(9), 4);
        assert_eq!(rank_bin(1024), 10);
        assert_eq!(rank_bin(1025), 11);
    }

    #[test]
    #[should_panic]
    fn rank_zero_panics() {
        let _ = rank_bin(0);
    }

    #[test]
    fn ranks_basic() {
        // freqs: t0=5, t1=9, t2=1 → ranks: t1=1, t0=2, t2=3
        assert_eq!(ranks_by_frequency(&[5, 9, 1]), vec![2, 1, 3]);
    }

    #[test]
    fn ranks_with_ties() {
        // freqs: 7, 7, 3, 3, 3, 1 → ranks 1,1,3,3,3,6 (competition ranking)
        assert_eq!(
            ranks_by_frequency(&[7, 7, 3, 3, 3, 1]),
            vec![1, 1, 3, 3, 3, 6]
        );
    }

    #[test]
    fn zero_frequency_gets_worst_rank() {
        // Two nonzero terms → absent rank is 3.
        assert_eq!(ranks_by_frequency(&[4, 0, 2]), vec![1, 3, 2]);
    }

    #[test]
    fn all_zero() {
        assert_eq!(ranks_by_frequency(&[0, 0]), vec![1, 1]);
    }

    #[test]
    fn empty_table() {
        assert!(ranks_by_frequency(&[]).is_empty());
        assert!(rank_bins(&[]).is_empty());
    }

    #[test]
    fn counted_bins_match_sorted_bins() {
        let freqs = [7, 0, 7, 3, 3, 3, 1, 0, 12];
        let counted = bins_by_frequency(&freqs, 12);
        let sorted = rank_bins(&freqs);
        for (f, b) in freqs.iter().zip(&sorted) {
            assert_eq!(counted[*f as usize], *b, "freq {f}");
        }
    }

    #[test]
    fn counted_bins_of_empty_and_zero_tables() {
        assert_eq!(bins_by_frequency(&[], 0), vec![0]);
        assert_eq!(bins_by_frequency(&[0, 0], 3), vec![0; 4]);
    }

    /// A histogram kept by moving entries gives the bins a recount of
    /// the moved table gives.
    #[test]
    fn moved_histogram_bins_equal_recounted_bins() {
        let mut freqs = vec![7, 0, 7, 3, 3, 3, 1, 0, 12];
        let mut hist = frequency_histogram(&freqs, 14);
        for (i, to) in [(1, 2), (6, 7), (8, 14), (3, 4)] {
            let from = freqs[i];
            if from > 0 {
                hist[from as usize] -= 1;
            }
            hist[to as usize] += 1;
            freqs[i] = to;
        }
        assert_eq!(hist, frequency_histogram(&freqs, 14));
        assert_eq!(bins_from_histogram(&hist), bins_by_frequency(&freqs, 14));
    }

    #[test]
    #[should_panic]
    fn counted_bins_reject_entries_above_the_bound() {
        let _ = bins_by_frequency(&[5], 4);
    }

    #[test]
    fn bins_composed() {
        // ranks 1,3,2 → bins 0,2,1
        assert_eq!(rank_bins(&[9, 1, 5]), vec![0, 2, 1]);
    }
}
