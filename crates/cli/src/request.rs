//! Request building: turning a parsed [`Options`] bag into service job
//! requests.
//!
//! This is the only place the CLI interprets search flags — every
//! subcommand that runs a search (`map`/`solve`, `explore`, `submit`)
//! funnels through [`build_solve_request`], so a flag means the same
//! thing locally and over the wire.

use crate::options::{load_app, parse_fault_scenario, parse_mesh_options, parse_pins, Options};
use crate::CliError;
use noc_service::{
    names, AdaptiveConfig, Crossover, EvaluateRequest, GaConfig, PortfolioConfig, RestartBudget,
    SaConfig, SearchMethod, SolveRequest, TabuConfig,
};
use noc_sim::SimParams;

/// The flags [`build_solve_request_with_method`] reads that reach the
/// wire: the instance, the SA profile, every method's tuning flags and
/// pins.
pub(crate) const SOLVE_FLAGS: &str = "--app --mesh --depth --strategy --tech --routing \
    --seed --quick --evals --restarts --population --rounds --crossover --tenure \
    --neighborhood --pin --robustness-report";

/// The flags of the fault experiment, which runs in process only: the
/// wire carries no fault scenario, so `submit` refuses them.
pub(crate) const FAULT_FLAGS: &str = "--faults --fault-kind --fault-seed --fault-evals";

/// The flags [`build_evaluate_request`] reads.
pub(crate) const EVALUATE_FLAGS: &str = "--app --mesh --depth --mapping --tech --routing --gantt";

/// The SA profile shared by every method: `--quick` picks the short
/// profile, `--evals N` caps the evaluation budget.
///
/// # Errors
///
/// Returns an error for an unparsable `--evals` value.
pub(crate) fn sa_profile(options: &Options, seed: u64) -> Result<SaConfig, CliError> {
    let mut sa_config = if options.flag("--quick") {
        SaConfig::quick(seed)
    } else {
        SaConfig::new(seed)
    };
    if let Some(evals) = options.get("--evals") {
        sa_config.max_evaluations = evals
            .parse()
            .map_err(|_| format!("invalid value `{evals}` for `--evals`"))?;
    }
    Ok(sa_config)
}

/// Resolves a method name plus its tuning flags into a [`SearchMethod`].
/// All methods spend the same total budget (the SA profile's), so they
/// compare at equal evaluation spend.
///
/// # Errors
///
/// Returns an error for unknown method names or bad tuning values.
pub(crate) fn parse_method(
    name: &str,
    options: &Options,
    sa_config: SaConfig,
    seed: u64,
) -> Result<SearchMethod, CliError> {
    let budget = sa_config.max_evaluations;
    let method = match name {
        "sa" | "SA" => SearchMethod::SimulatedAnnealing(sa_config),
        // The total budget is divided across restarts, so `sa-multi`
        // spends the same number of evaluations as `sa` — not N× it.
        "sa-multi" | "multistart" => SearchMethod::MultiStartSa {
            config: sa_config,
            restarts: options.get_parsed("--restarts", 8u32)?,
            budget: RestartBudget::Total,
        },
        // The adaptive/GA/tabu/portfolio strategies share the same total
        // budget (`--evals` / the SA profile), so all methods compare at
        // equal evaluation spend.
        "adaptive" => {
            let mut config = AdaptiveConfig::new(seed);
            config.budget = budget;
            config.population = options.get_parsed("--population", config.population)?;
            config.rounds = options.get_parsed("--rounds", config.rounds)?;
            SearchMethod::Adaptive(config)
        }
        "ga" | "genetic" => {
            let mut config = GaConfig::new(seed);
            config.budget = budget;
            config.population = options.get_parsed("--population", config.population)?;
            config.crossover = match options.get("--crossover").unwrap_or("pmx") {
                "pmx" => Crossover::Pmx,
                "cycle" => Crossover::Cycle,
                other => return Err(format!("unknown crossover `{other}` (pmx|cycle)").into()),
            };
            SearchMethod::Genetic(config)
        }
        "tabu" => {
            let mut config = TabuConfig::new(seed);
            config.budget = budget;
            if let Some(tenure) = options.get("--tenure") {
                config.tenure = crate::options::parse_tenure(tenure)?;
            }
            config.neighborhood = options.get_parsed("--neighborhood", config.neighborhood)?;
            SearchMethod::Tabu(config)
        }
        "portfolio" => {
            let mut config = PortfolioConfig::new(seed);
            config.budget = budget;
            config.restarts = options.get_parsed("--restarts", 8u32)? as usize;
            config.population = options.get_parsed("--population", config.population)?;
            config.rounds = options.get_parsed("--rounds", config.rounds)?;
            if let Some(tenure) = options.get("--tenure") {
                config.tenure = crate::options::parse_tenure(tenure)?;
            }
            SearchMethod::Portfolio(config)
        }
        "exhaustive" | "es" | "ES" => SearchMethod::Exhaustive,
        "random" => SearchMethod::Random {
            samples: 10_000,
            seed,
        },
        "greedy" => SearchMethod::Greedy {
            restarts: options.get_parsed("--restarts", 8u32)?,
            seed,
        },
        other => {
            return Err(format!(
                "unknown method `{other}` (sa|sa-multi|adaptive|ga|tabu|portfolio|es|random|greedy)"
            )
            .into())
        }
    };
    Ok(method)
}

/// Builds the solve request for a `map`/`solve` invocation, taking the
/// method from `--method` (default `sa`).
///
/// # Errors
///
/// Returns an error on bad options, load failures, or infeasible
/// instances (more cores than tiles).
pub fn build_solve_request(options: &Options) -> Result<SolveRequest, CliError> {
    build_solve_request_with_method(options, options.get("--method").unwrap_or("sa"))
}

/// Builds a solve request with an explicit method name — the `explore`
/// subcommand uses this to fan one option bag out across methods.
///
/// # Errors
///
/// Returns an error on bad options, load failures, or infeasible
/// instances (more cores than tiles).
pub(crate) fn build_solve_request_with_method(
    options: &Options,
    method_name: &str,
) -> Result<SolveRequest, CliError> {
    let app = load_app(options)?;
    let mesh = parse_mesh_options(options)?;
    if app.core_count() > mesh.tile_count() {
        return Err(format!(
            "{} cores cannot map onto {} tiles",
            app.core_count(),
            mesh.tile_count()
        )
        .into());
    }
    let seed: u64 = options.get_parsed("--seed", 0)?;
    let sa_config = sa_profile(options, seed)?;
    let method = parse_method(method_name, options, sa_config, seed)?;
    let pins = options.get("--pin").map(parse_pins).transpose()?;
    if let Some(pins) = &pins {
        // Fail synchronously on pins that do not fit; `Explorer::search`
        // re-checks them in the worker.
        pins.validate(&mesh, app.core_count())?;
    }

    let mut request = SolveRequest::new(app, mesh, method);
    request.strategy = names::strategy(options.get("--strategy").unwrap_or("cdcm"))?;
    request.tech = names::technology(options.get("--tech").unwrap_or("0.07"))?;
    request.params = SimParams::new();
    request.routing = names::routing(options.get("--routing").unwrap_or("xy"))?;
    request.pins = pins;
    request.sa_config = sa_config;
    request.criticality = options.flag("--robustness-report");
    request.fault_scenario = parse_fault_scenario(options)?;
    request.fault_evals = options.get_parsed("--fault-evals", 20_000)?;
    request.seed = seed;
    Ok(request)
}

/// Builds the evaluate request for an `evaluate` invocation.
///
/// # Errors
///
/// Returns an error on bad options or a mapping that does not cover the
/// application's cores.
pub(crate) fn build_evaluate_request(options: &Options) -> Result<EvaluateRequest, CliError> {
    let app = load_app(options)?;
    let mesh = parse_mesh_options(options)?;
    let mapping = crate::options::parse_mapping(options.require("--mapping")?, &mesh)?;
    if mapping.core_count() != app.core_count() {
        return Err(format!(
            "mapping covers {} cores but the application has {}",
            mapping.core_count(),
            app.core_count()
        )
        .into());
    }
    Ok(EvaluateRequest {
        app,
        mesh,
        mapping,
        tech: names::technology(options.get("--tech").unwrap_or("0.07"))?,
        params: SimParams::new(),
        routing: names::routing(options.get("--routing").unwrap_or("xy"))?,
        gantt: options.flag("--gantt"),
    })
}
