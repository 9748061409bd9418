//! Error type of the timing engine.

use noc_model::ModelError;
use std::error::Error;
use std::fmt;

/// Errors produced by the scheduler and the flit-level simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The underlying model was inconsistent.
    Model(ModelError),
    /// The mapping covers a different number of cores than the application.
    CoreCountMismatch {
        /// Cores covered by the mapping.
        mapping: usize,
        /// Cores of the application graph.
        application: usize,
    },
    /// The flit-level simulator exceeded its cycle budget without
    /// delivering every packet (deadlock or livelock, e.g. with
    /// pathological bounded buffers).
    CycleLimitExceeded {
        /// Cycle at which the simulation gave up.
        limit: u64,
        /// Packets delivered when it gave up.
        delivered: usize,
        /// Total packets.
        total: usize,
    },
    /// A routing algorithm's name is none of the library routings', so
    /// no route tier can walk it.
    UnknownRouting {
        /// The algorithm's [`noc_model::RoutingAlgorithm::name`].
        name: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Model(e) => write!(f, "invalid model: {e}"),
            Self::CoreCountMismatch {
                mapping,
                application,
            } => write!(
                f,
                "mapping covers {mapping} cores but the application has {application}"
            ),
            Self::CycleLimitExceeded {
                limit,
                delivered,
                total,
            } => write!(
                f,
                "simulation exceeded {limit} cycles with {delivered}/{total} packets delivered"
            ),
            Self::UnknownRouting { name } => write!(
                f,
                "unknown routing `{name}`: the engine walks xy, yx, torus-xy, xyz and torus-xyz"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SimError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::CoreId;

    #[test]
    fn wraps_model_errors() {
        let err = SimError::from(ModelError::UnknownCore(CoreId::new(3)));
        assert!(err.to_string().contains("unknown core c3"));
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn mismatch_message() {
        let err = SimError::CoreCountMismatch {
            mapping: 3,
            application: 4,
        };
        assert!(err.to_string().contains('3'));
        assert!(err.to_string().contains('4'));
    }
}
