//! # noc-apps
//!
//! Workloads for the DATE 2005 CDCM reproduction:
//!
//! * [`paper_example`] — the Figure 1 running example (application,
//!   mesh and both mappings), the anchor of every golden test;
//! * [`tgff`] — a TGFF-like random CDCG generator calibrated to exact
//!   core/packet/bit-volume characteristics;
//! * [`suite`] — the 18-benchmark Table 1 suite built on top of it;
//! * [`embedded`] — structural generators for the paper's four embedded
//!   applications (Romberg, FFT, object recognition, image encoding);
//! * [`mod@synthetic`] — classic NoC traffic patterns (uniform, transpose,
//!   complement, hotspot) as CDCGs, for stress tests and ablations.
//!
//! # Examples
//!
//! ```
//! use noc_apps::suite::table1_suite;
//!
//! let suite = table1_suite();
//! assert_eq!(suite.len(), 18);
//! for bench in &suite {
//!     assert!(bench.matches_spec());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod embedded;
pub mod paper_example;
pub mod parse;
pub mod suite;
pub mod synthetic;
pub mod tgff;

pub use parse::{parse_cdcg, ParseError};
pub use suite::{table1_suite, Benchmark, RowSpec, TABLE1_ROWS};
pub use synthetic::{
    large_mesh_workload, layered_shift_workload, synthetic, SyntheticConfig, TrafficPattern,
};
pub use tgff::{generate, try_generate, ConfigError, TgffConfig};
