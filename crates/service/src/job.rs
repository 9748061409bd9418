//! Job model of the exploration service: requests, priorities, states
//! and results.
//!
//! A job is a self-contained work order — the application graph, the
//! target mesh, the objective strategy and the search method travel
//! *inside* the request, so a job depends on nothing but the shared
//! route-provider registry. Results are keyed by [`JobId`] and carry
//! everything a front end needs to render them; the service never
//! prints.

use noc_energy::{Energy, EnergyBreakdown, Technology};
use noc_mapping::{
    Constraints, CriticalityReport, RemapReport, SaConfig, SearchMethod, SearchOutcome,
    SearchTelemetry, Strategy,
};
use noc_model::{Cdcg, FaultScenario, FaultSet, Mapping, Mesh, RoutingKind};
use noc_sim::SimParams;
use serde::{Deserialize, Serialize};

/// Identifies a submitted job. Ids are dense (0, 1, 2, …) in submission
/// order, so the service can keep job slots in a plain `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl JobId {
    /// The dense slot index of this job.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Scheduling class of a job. Within a class, jobs run in submission
/// (FIFO) order; a higher class always dispatches before a lower one.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum Priority {
    /// Dispatched before everything else.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Dispatched only when no higher class has work.
    Low,
}

impl Priority {
    /// Queue index of the class (0 = highest).
    pub fn class(self) -> usize {
        match self {
            Self::High => 0,
            Self::Normal => 1,
            Self::Low => 2,
        }
    }

    /// Number of priority classes.
    pub const COUNT: usize = 3;

    /// Display name of the class.
    pub fn name(self) -> &'static str {
        match self {
            Self::High => "high",
            Self::Normal => "normal",
            Self::Low => "low",
        }
    }
}

/// Which route-provisioning tier a solve job asks for. Only [`Auto`]
/// requests are eligible for the shared provider registry — the explicit
/// tiers are built per job, exactly as the CLI always did.
///
/// [`Auto`]: CacheTier::Auto
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheTier {
    /// Size-based automatic choice; shared through the registry.
    #[default]
    Auto,
    /// Dense precomputed tables (fails on meshes too large to cache).
    Dense,
    /// No stored routes at all.
    Implicit,
}

impl CacheTier {
    /// Every tier, in the order usage and error texts list them.
    pub const ALL: [Self; 3] = [Self::Auto, Self::Dense, Self::Implicit];

    /// The tier's name: the `--route-cache` flag value and the wire's
    /// `"route_cache"` string.
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Dense => "dense",
            Self::Implicit => "implicit",
        }
    }

    /// Parses a tier [`name`](Self::name), ignoring ASCII case and
    /// surrounding whitespace. The CLI flag parser and the wire decoder
    /// both go through here, so a bad name gets the same error on both.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownCacheTier`] for any other name.
    pub fn from_name(name: &str) -> Result<Self, UnknownCacheTier> {
        Self::ALL
            .into_iter()
            .find(|tier| tier.name().eq_ignore_ascii_case(name.trim()))
            .ok_or_else(|| UnknownCacheTier(name.to_owned()))
    }
}

/// A route-cache tier name [`CacheTier::from_name`] does not know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCacheTier(pub String);

impl std::fmt::Display for UnknownCacheTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = CacheTier::ALL.iter().map(|tier| tier.name()).collect();
        write!(f, "unknown route cache `{}` ({})", self.0, names.join("|"))
    }
}

impl std::error::Error for UnknownCacheTier {}

/// A mapping-search work order: everything `noc-cli map` used to
/// orchestrate inline, as one self-contained request.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The application graph.
    pub app: Cdcg,
    /// The target mesh.
    pub mesh: Mesh,
    /// Cost model driving the search.
    pub strategy: Strategy,
    /// Search engine and its configuration.
    pub method: SearchMethod,
    /// Technology point for the energy terms.
    pub tech: Technology,
    /// Wormhole simulation parameters.
    pub params: SimParams,
    /// Routing algorithm of the target NoC.
    pub routing: RoutingKind,
    /// Dead links baked into the routing function. Part of the provider
    /// identity: jobs differing only in faults never share a provider.
    pub faults: FaultSet,
    /// Route-provisioning tier (only `Auto` uses the shared registry).
    pub route_cache: CacheTier,
    /// Optional core→tile pins; pinned jobs run the constrained SA.
    pub pins: Option<Constraints>,
    /// SA configuration of the constrained search (ignored without pins).
    pub sa_config: SaConfig,
    /// Attach the traffic-weighted link-criticality report.
    pub criticality: bool,
    /// Optional post-search fault injection and re-mapping experiment.
    pub fault_scenario: Option<FaultScenario>,
    /// Re-mapping evaluation budget of the fault experiment.
    pub fault_evals: u64,
    /// Seed of the fault experiment's recovery search.
    pub seed: u64,
}

impl SolveRequest {
    /// A request with the CLI's defaults: CDCM strategy, XY routing, no
    /// faults, auto tier, quick SA.
    pub fn new(app: Cdcg, mesh: Mesh, method: SearchMethod) -> Self {
        Self {
            app,
            mesh,
            strategy: Strategy::Cdcm,
            method,
            tech: Technology::t007(),
            params: SimParams::new(),
            routing: RoutingKind::Xy,
            faults: FaultSet::new(),
            route_cache: CacheTier::Auto,
            pins: None,
            sa_config: SaConfig::quick(0),
            criticality: false,
            fault_scenario: None,
            fault_evals: 20_000,
            seed: 0,
        }
    }
}

/// A single-mapping evaluation work order (`noc-cli evaluate`).
#[derive(Debug, Clone)]
pub struct EvaluateRequest {
    /// The application graph.
    pub app: Cdcg,
    /// The target mesh.
    pub mesh: Mesh,
    /// Core→tile placement to score, as tile indices per core.
    pub mapping: Mapping,
    /// Technology point for the energy terms.
    pub tech: Technology,
    /// Wormhole simulation parameters.
    pub params: SimParams,
    /// Routing algorithm to evaluate under.
    pub routing: RoutingKind,
    /// Also render the wormhole Gantt chart.
    pub gantt: bool,
}

/// The work orders the service accepts.
#[derive(Debug, Clone)]
pub enum JobRequest {
    /// Search the best mapping for an application.
    Solve(Box<SolveRequest>),
    /// Score one explicit mapping.
    Evaluate(Box<EvaluateRequest>),
}

impl JobRequest {
    /// Short display label of the work kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Solve(_) => "solve",
            Self::Evaluate(_) => "evaluate",
        }
    }
}

/// Result of a solve job: the search outcome plus the full-model
/// evaluation of the winner — everything `noc-cli map` renders.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveResult {
    /// Best mapping, cost, evaluation count, method and elapsed time.
    pub outcome: SearchOutcome,
    /// Search telemetry (absent for the constrained/pinned path).
    pub telemetry: Option<SearchTelemetry>,
    /// Equation 10 energy split of the winner.
    pub breakdown: EnergyBreakdown,
    /// Execution time of the winner in nanoseconds.
    pub texec_ns: f64,
    /// Execution time of the winner in cycles.
    pub texec_cycles: u64,
    /// The CWM view of the winner: dynamic energy only.
    pub cwm_dynamic: Energy,
    /// Routing algorithm name the job evaluated under.
    pub routing: String,
    /// Route-provider tier name the job ran on.
    pub route_tier: String,
    /// True if the job's provider came out of the shared registry.
    pub registry_hit: bool,
    /// Link-criticality report, when requested.
    pub criticality: Option<CriticalityReport>,
    /// Fault-injection / re-mapping report, when requested.
    pub remap: Option<RemapReport>,
}

/// Result of an evaluate job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluateResult {
    /// The scored placement.
    pub mapping: Mapping,
    /// Routing algorithm name.
    pub routing: String,
    /// Execution time in nanoseconds.
    pub texec_ns: f64,
    /// Equation 10 energy split.
    pub breakdown: EnergyBreakdown,
    /// Contention events of the schedule.
    pub contention_events: usize,
    /// Total contention cycles of the schedule.
    pub contention_cycles: u64,
    /// Rendered Gantt chart, when requested.
    pub gantt: Option<String>,
}

/// A completed job's payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobResult {
    /// Payload of a [`JobRequest::Solve`].
    Solve(Box<SolveResult>),
    /// Payload of a [`JobRequest::Evaluate`].
    Evaluate(Box<EvaluateResult>),
}

impl JobResult {
    /// The solve payload, if this is one.
    pub fn as_solve(&self) -> Option<&SolveResult> {
        match self {
            Self::Solve(r) => Some(r),
            Self::Evaluate(_) => None,
        }
    }

    /// The evaluate payload, if this is one.
    pub fn as_evaluate(&self) -> Option<&EvaluateResult> {
        match self {
            Self::Evaluate(r) => Some(r),
            Self::Solve(_) => None,
        }
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobState {
    /// Queued, not yet dispatched.
    Pending,
    /// Executing on a worker.
    Running,
    /// Finished successfully.
    Done(JobResult),
    /// Finished with an error (bad request, infeasible instance, …).
    Failed(String),
    /// Cancelled. Carries the partial result when the job was already
    /// running (the search returns its verified best-so-far); `None`
    /// when cancellation caught the job still in the queue.
    Cancelled(Option<JobResult>),
}

impl JobState {
    /// True once the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Self::Pending | Self::Running)
    }

    /// Display name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Pending => "pending",
            Self::Running => "running",
            Self::Done(_) => "done",
            Self::Failed(_) => "failed",
            Self::Cancelled(_) => "cancelled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_classes_are_ordered_high_first() {
        assert_eq!(Priority::High.class(), 0);
        assert_eq!(Priority::Normal.class(), 1);
        assert_eq!(Priority::Low.class(), 2);
        assert_eq!(Priority::default(), Priority::Normal);
        assert!(Priority::High < Priority::Normal);
    }

    #[test]
    fn job_states_classify_terminality() {
        assert!(!JobState::Pending.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Failed("x".into()).is_terminal());
        assert!(JobState::Cancelled(None).is_terminal());
        assert_eq!(JobState::Pending.name(), "pending");
    }
}
