//! Zipfian distribution utilities.
//!
//! The paper leans on the Zipfian nature of term frequencies twice: the
//! frequency-based shift `Shift_f` is biased by it (Section IV-C), and the
//! chi-square test is rejected because power-law frequencies violate its
//! assumptions. The synthetic corpus generator therefore draws its
//! background vocabulary from a Zipf distribution so the reproduction
//! exhibits the same statistical regime.
//!
//! This module is RNG-agnostic: [`Zipf::sample`] maps a uniform `[0,1)`
//! value to a rank via inverse-CDF lookup, so callers can plug in any
//! random source (the generators use seeded `StdRng`).

/// A Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank = k) ∝ 1 / (k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the distribution for `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point droop at the end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Map a uniform value `u ∈ [0,1)` to a rank in `0..n` by inverse CDF.
    ///
    /// Values outside `[0,1)` are clamped.
    pub fn sample(&self, u: f64) -> usize {
        let u = u.clamp(0.0, 1.0 - f64::EPSILON);
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Zipf {
        /// The probability mass of `rank`: the reference the sampler's
        /// tests check against.
        fn pmf(&self, rank: usize) -> f64 {
            if rank >= self.cdf.len() {
                return 0.0;
            }
            if rank == 0 {
                self.cdf[0]
            } else {
                self.cdf[rank] - self.cdf[rank - 1]
            }
        }
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let z = Zipf::new(100, 1.07);
        let mut prev = 0.0;
        for k in 0..100 {
            let c = z.pmf(k) + prev;
            assert!(c >= prev);
            prev = c;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_most_probable() {
        let z = Zipf::new(50, 1.0);
        for k in 1..50 {
            assert!(z.pmf(0) >= z.pmf(k));
        }
    }

    #[test]
    fn sample_extremes() {
        let z = Zipf::new(10, 1.0);
        assert_eq!(z.sample(0.0), 0);
        assert!(z.sample(0.9999999) < 10);
        // Out-of-range inputs clamp instead of panicking.
        assert_eq!(z.sample(-1.0), 0);
        assert!(z.sample(2.0) < 10);
    }

    #[test]
    fn sample_matches_cdf_midpoints() {
        let z = Zipf::new(4, 1.0);
        // With s=1, masses ∝ 1, 1/2, 1/3, 1/4 → normalized ≈ .48, .24, .16, .12
        assert_eq!(z.sample(0.1), 0);
        assert_eq!(z.sample(0.5), 1);
        assert_eq!(z.sample(0.8), 2);
        assert_eq!(z.sample(0.95), 3);
    }

    #[test]
    fn single_rank() {
        let z = Zipf::new(1, 2.0);
        assert_eq!(z.sample(0.5), 0);
        assert_eq!(z.pmf(0), 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
