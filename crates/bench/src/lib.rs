#![warn(missing_docs)]

//! # facet-bench
//!
//! Experiment regeneration.
//!
//! The `experiments` binary (see `src/bin/experiments.rs`) regenerates
//! every table and figure of the paper's evaluation section. This
//! library crate holds its experiment drivers; the configurations they
//! run come from `facet_eval::harness`. Performance is measured by the
//! separate `perfbench` workspace at the repository root.

pub mod drivers;

pub use drivers::{
    run_ablation, run_baselines, run_dataset_tables, run_dimensions, run_efficiency, run_figure4,
    run_figure5, run_pilot, run_sensitivity, run_user_study_experiment,
};
