//! Pipeline configuration.

use crate::index::IndexError;
use facet_resources::ExpansionOptions;

/// The largest `top_k` a pipeline accepts. A publish counts the pairs
/// of up to `top_k` candidates in a `top_k × top_k` table of `u32`
/// (4·k² bytes), and a scan sums one such table per participant; at
/// 4,096 the table is 64 MiB. Every configuration in the repository
/// asks for at most 2,000, the `experiments` default.
pub const MAX_TOP_K: usize = 4096;

/// Options for the end-to-end facet pipeline.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// How many top-ranked candidate facet terms to keep (the paper's
    /// "return the top-k terms in Facet(D)").
    pub top_k: usize,
    /// Expansion engine options (threading).
    pub expansion: ExpansionOptions,
    /// Subsumption threshold for hierarchy construction
    /// (Sanderson & Croft use P(x|y) ≥ 0.8).
    pub subsumption_threshold: f64,
    /// Minimum document frequency in `C(D)` for a candidate to be
    /// considered at all (filters one-off noise).
    pub min_df_c: u64,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            top_k: 800,
            expansion: ExpansionOptions::default(),
            subsumption_threshold: 0.8,
            min_df_c: 3,
        }
    }
}

impl PipelineOptions {
    /// Check that a pipeline can run with these options: `top_k` is at
    /// most [`MAX_TOP_K`] and the subsumption threshold is a number in
    /// (0, 1]. An append checks this before it ingests anything, and a
    /// restore refuses a snapshot whose `meta` section fails it, before
    /// it allocates anything `top_k` sizes.
    ///
    /// # Errors
    /// [`IndexError::InvalidOptions`] naming the first bad option.
    pub fn validate(&self) -> Result<(), IndexError> {
        if self.top_k > MAX_TOP_K {
            return Err(IndexError::InvalidOptions {
                option: "top_k",
                value: self.top_k.to_string(),
                expected: "at most 4096 (MAX_TOP_K)",
            });
        }
        let t = self.subsumption_threshold;
        if t > 0.0 && t <= 1.0 {
            Ok(())
        } else {
            Err(IndexError::InvalidOptions {
                option: "subsumption_threshold",
                value: t.to_string(),
                expected: "a number in (0, 1]",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let o = PipelineOptions::default();
        assert!(o.top_k > 0);
        assert!(o.subsumption_threshold > 0.5 && o.subsumption_threshold <= 1.0);
        assert_eq!(o.validate(), Ok(()));
    }

    #[test]
    fn top_k_above_the_bound_is_rejected() {
        for k in [MAX_TOP_K + 1, usize::MAX] {
            let o = PipelineOptions {
                top_k: k,
                ..Default::default()
            };
            let err = o.validate().unwrap_err();
            assert!(
                matches!(
                    err,
                    IndexError::InvalidOptions {
                        option: "top_k",
                        ..
                    }
                ),
                "{k}: {err:?}"
            );
            assert!(err.to_string().contains(&MAX_TOP_K.to_string()), "{err}");
        }
        for k in [0, 1, 2000, MAX_TOP_K] {
            let o = PipelineOptions {
                top_k: k,
                ..Default::default()
            };
            assert_eq!(o.validate(), Ok(()), "{k}");
        }
    }

    #[test]
    fn thresholds_outside_the_unit_interval_are_rejected() {
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.5, 1.5] {
            let o = PipelineOptions {
                subsumption_threshold: t,
                ..Default::default()
            };
            let err = o.validate().unwrap_err();
            assert!(
                matches!(
                    err,
                    IndexError::InvalidOptions {
                        option: "subsumption_threshold",
                        ..
                    }
                ),
                "{t}: {err:?}"
            );
            assert!(err.to_string().contains("subsumption_threshold"), "{err}");
        }
        for t in [f64::MIN_POSITIVE, 0.5, 1.0] {
            let o = PipelineOptions {
                subsumption_threshold: t,
                ..Default::default()
            };
            assert_eq!(o.validate(), Ok(()), "{t}");
        }
    }
}
