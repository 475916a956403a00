#![warn(missing_docs)]

//! # facet-bench
//!
//! Experiment regeneration.
//!
//! The `experiments` binary (see `src/bin/experiments.rs`) regenerates
//! every table and figure of the paper's evaluation section, and `diag`
//! prints substrate and pipeline diagnostics. This library crate holds
//! the shared experiment drivers so the binaries and the integration
//! tests reuse one implementation. Performance is measured by the
//! separate `perfbench` workspace at the repository root.

pub mod drivers;

pub use drivers::{
    dataset_gold, run_ablation, run_baselines, run_dataset_tables, run_dimensions, run_efficiency,
    run_figure4, run_figure5, run_pilot, run_sensitivity, run_user_study_experiment, scaled_bundle,
};
