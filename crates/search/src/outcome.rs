//! Shared search-outcome type.

use noc_model::Mapping;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Outcome of one mapping search, whatever the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Best mapping found.
    pub mapping: Mapping,
    /// Objective value of `mapping`.
    pub cost: f64,
    /// Number of cost evaluations performed.
    pub evaluations: u64,
    /// Wall-clock time of the search.
    #[serde(with = "duration_secs")]
    pub elapsed: Duration,
    /// Engine label ("SA", "ES", "random", "greedy", "adaptive", …).
    pub method: String,
    /// Objective label ("CWM", "CDCM", …).
    pub objective: String,
}

mod duration_secs {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, ser: S) -> Result<S::Ok, S::Error> {
        d.as_secs_f64().serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Duration, D::Error> {
        let secs = f64::deserialize(de)?;
        Ok(Duration::from_secs_f64(secs))
    }
}
