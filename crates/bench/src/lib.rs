//! # noc-bench
//!
//! Reproduction harness for the DATE 2005 CDCM paper: shared utilities
//! for the per-table/per-figure binaries (`table1`, `table2`, `figure2`,
//! `figure3`, `figure45`, `cpu_time`, `ablation_*`), the CI smoke bins
//! and the Criterion benches. Each binary prints its results and writes
//! a record under `target/experiments/`. Speed claims come from the
//! repository benchmark in `perfbench/`, not from these binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod table2;

pub use harness::{experiments_dir, write_record, TextTable};
