//! # noc-cli
//!
//! Command-line front end for the CDCM NoC-mapping reproduction. The
//! binary (`noc-cli`) is a set of thin subcommands over the
//! `noc-service` exploration layer:
//!
//! ```text
//! noc-cli generate --cores 8 --packets 40 --bits 20000 --out app.json
//! noc-cli info     --app app.json
//! noc-cli map      --app app.json --mesh 3x3 --strategy cdcm --method sa
//! noc-cli evaluate --app app.json --mesh 3x3 --mapping 0,1,2,4,5,6,7,8 --gantt
//! noc-cli explore  --app app.json --mesh 3x3 --methods sa,ga,tabu
//! noc-cli serve    --socket /tmp/noc.sock --workers 4
//! noc-cli submit   --socket /tmp/noc.sock --app app.json --mesh 3x3 --wait
//! noc-cli metrics  --socket /tmp/noc.sock
//! noc-cli watch    --socket /tmp/noc.sock --count 20
//! noc-cli dot      --app app.json --graph cdcg
//! ```
//!
//! The CLI contains only request building and rendering: [`options`]
//! parses flags, [`request`] assembles `noc-service` job requests, the
//! subcommands submit them (to an in-process service for the one-shot
//! commands, over a Unix socket for `submit`), and [`render`] prints
//! the results. All orchestration — queueing, worker pools,
//! route-provider sharing, cancellation — lives in `noc-service`.
//!
//! Applications are exchanged as JSON-serialized CDCGs (the same format
//! `serde_json` produces for [`noc_model::Cdcg`]), so generated
//! benchmarks, hand-written graphs and downstream tooling interoperate.
//!
//! All argument parsing and command logic lives in this library so it is
//! unit-testable; `main.rs` is a thin shell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commands;
pub mod options;
pub mod render;
pub mod request;

pub use commands::{
    cmd_bench, cmd_dot, cmd_evaluate, cmd_explore, cmd_generate, cmd_info, cmd_map, cmd_metrics,
    cmd_serve, cmd_submit, cmd_suite, cmd_watch,
};
pub use options::{
    emit, load_app, parse_fault_scenario, parse_mapping, parse_mesh, parse_mesh_options,
    parse_pins, parse_routing, parse_technology, parse_tenure, Options,
};
pub use request::{
    build_evaluate_request, build_solve_request, build_solve_request_with_method, parse_method,
    parse_priority, parse_strategy, sa_profile,
};

use std::error::Error;

/// Boxed error type used across the CLI.
pub type CliError = Box<dyn Error + Send + Sync>;

/// Usage text.
pub fn usage() -> String {
    "noc-cli — energy- and timing-aware NoC mapping (DATE'05 CDCM reproduction)

USAGE:
  noc-cli generate [--cores N --packets N --bits N --seed S] [--out app.json]
  noc-cli info     --app app.json
  noc-cli map      --app app.json --mesh WxH[xD] [--depth N]
                   [--strategy cwm|cdcm]
                   [--method sa|sa-multi|adaptive|ga|tabu|portfolio|
                    es|random|greedy] [--restarts N]
                   [--population N] [--rounds N] [--tenure auto|N]
                   [--neighborhood N] [--crossover pmx|cycle]
                   [--tech paper|0.35|0.07]
                   [--routing xy|yx|torus-xy|xyz|torus-xyz]
                   [--route-cache auto|dense|implicit]
                   [--seed S] [--quick] [--evals N] [--telemetry]
                   [--pin c0:t3,c2:t0]
                   [--faults K] [--fault-kind link|tsv|region]
                   [--fault-seed S] [--fault-evals N]
                   [--robustness-report] [--workers N] [--trace FILE]
  noc-cli solve    (alias of map)
  noc-cli evaluate --app app.json --mesh WxH[xD] [--depth N]
                   --mapping t0,t1,...
                   [--tech paper|0.35|0.07]
                   [--routing xy|yx|torus-xy|xyz|torus-xyz]
                   [--gantt]
  noc-cli explore  --app app.json --mesh WxH[xD]
                   [--methods sa,sa-multi,ga,tabu,portfolio]
                   [--workers N] [map flags]
  noc-cli bench    [--jobs N] [--workers N] [--evals N]
                   [--app app.json] [--mesh WxH]
  noc-cli serve    --socket PATH [--workers N] [--trace FILE]
  noc-cli submit   --socket PATH [map/evaluate flags]
                   [--priority high|normal|low] [--wait]
                   [--op status|wait|cancel|stats|shutdown|metrics|trace]
                   [--job N]
  noc-cli metrics  --socket PATH [--json]
  noc-cli watch    --socket PATH [--count N]
  noc-cli suite    [--row N] [--out app.json]
  noc-cli dot      --app app.json [--graph cdcg|cwg] [--out graph.dot]

`generate` without --cores emits the paper's Figure 1 example.
`sa-multi` divides the evaluation budget across restarts (same total
spend as `sa`); search and reporting both follow `--routing`.
`adaptive` runs a population of SA restarts in rounds, reallocating
the budget to the best basins (successive halving + reheating);
`ga` is a permutation genetic algorithm, `tabu` a tabu search, and
`portfolio` splits the budget across all four metaheuristics. All
methods spend the same `--evals` total, so they compare fairly;
`--telemetry` prints where the budget went.
`--route-cache` picks the route-provisioning tier: `auto` (default)
precomputes densely on meshes up to 29x29 and switches to `implicit`,
which stores no routes at all, on larger ones. Results are identical
across tiers. `--evals N` caps the SA evaluation
budget.
`--mesh 4x4x4` (or `--mesh 4x4 --depth 4`) targets a 3D stacked mesh;
`xyz` is dimension-ordered 3D routing and `torus-xyz` wraps all three
axes. Vertical (TSV) hops are charged the technology's `EVbit` instead
of `ELbit`. `--tenure auto` scales the tabu tenure with sqrt(tiles).
`map --faults K` injects K seeded failures after the search (kind
`link` kills K random channels, `tsv` K vertical pillars, `region` a
KxK tile block; `--fault-seed S` picks the draw), re-routes the found
mapping on the fault-aware route tier and re-optimizes within
`--fault-evals N` (default 20000) evaluations, reporting degraded and
recovered cost. `--robustness-report` prints the traffic-weighted
link-criticality table (single-point-of-failure exposure) of the
found mapping. `--app FILE.cdcg` (or `.txt`) reads the line-oriented
text format instead of JSON; parse errors name the offending line.
`explore` fans the same instance out across methods as concurrent
service jobs; `serve` keeps a service alive behind a Unix socket and
`submit` is its line-protocol client. Job results are bit-identical
for a given seed regardless of `--workers`.
`map --trace FILE` (also on `serve`) appends every trace event —
search rounds, SA epochs, best-so-far improvements, batch-engine
stats — to FILE as JSON lines; tracing never changes the trajectory.
`metrics` prints a served instance's Prometheus exposition (`--json`
for the structured snapshot); `watch` streams its live service events
as JSON lines (`--count N` to disconnect after N events); and
`submit --op trace --job N` fetches job N's recorded flight tape.
"
    .to_owned()
}

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns an error for unknown commands or any command failure.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Ok(usage());
    };
    let options = Options::parse(&args[1..])?;
    match command.as_str() {
        "generate" => cmd_generate(&options),
        "info" => cmd_info(&options),
        "map" | "solve" => cmd_map(&options),
        "evaluate" => cmd_evaluate(&options),
        "explore" => cmd_explore(&options),
        "bench" => cmd_bench(&options),
        "serve" => cmd_serve(&options),
        "submit" => cmd_submit(&options),
        "metrics" => cmd_metrics(&options),
        "watch" => cmd_watch(&options),
        "suite" => cmd_suite(&options),
        "dot" => cmd_dot(&options),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command `{other}`; try `noc-cli help`").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::{Cdcg, FaultScenario};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn write_example_app() -> tempfile::TempPath {
        let app = noc_apps::paper_example::figure1_cdcg();
        let json = serde_json::to_string(&app).expect("serializes");
        let dir = std::env::temp_dir().join(format!("noc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!(
            "app-{}.json",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("time")
                .as_nanos()
        ));
        std::fs::write(&path, json).expect("write");
        tempfile::TempPath(path)
    }

    /// Minimal owned temp path (avoids a tempfile dependency).
    mod tempfile {
        pub struct TempPath(pub std::path::PathBuf);
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        impl TempPath {
            pub fn as_str(&self) -> &str {
                self.0.to_str().expect("utf8 path")
            }
        }
    }

    #[test]
    fn options_parse_pairs_and_flags() {
        let o = Options::parse(&strs(&["--cores", "5", "--gantt", "--seed", "7"])).unwrap();
        assert_eq!(o.get("--cores"), Some("5"));
        assert_eq!(o.get("--seed"), Some("7"));
        assert!(o.flag("--gantt"));
        assert!(!o.flag("--quick"));
        assert!(Options::parse(&strs(&["--cores"])).is_err());
        assert!(Options::parse(&strs(&["positional"])).is_err());
    }

    #[test]
    fn mesh_and_mapping_parsing() {
        let mesh = parse_mesh("3x2").unwrap();
        assert_eq!(mesh.tile_count(), 6);
        assert_eq!(mesh.depth(), 1);
        assert!(parse_mesh("3*2").is_err());
        assert!(parse_mesh("0x2").is_err());
        let mapping = parse_mapping("1, 0, 3", &parse_mesh("2x2").unwrap()).unwrap();
        assert_eq!(mapping.core_count(), 3);
        assert!(parse_mapping("1,1", &parse_mesh("2x2").unwrap()).is_err());
        assert!(parse_mapping("9", &parse_mesh("2x2").unwrap()).is_err());
        // 3D syntax.
        let cube = parse_mesh("4x4x4").unwrap();
        assert_eq!(cube.tile_count(), 64);
        assert_eq!(cube.depth(), 4);
        assert!(parse_mesh("4x4x0").is_err());
        assert!(parse_mesh("4x4x4x4").is_err());
    }

    #[test]
    fn depth_option_stacks_layers() {
        let o = Options::parse(&strs(&["--mesh", "3x3", "--depth", "2"])).unwrap();
        let mesh = parse_mesh_options(&o).unwrap();
        assert_eq!((mesh.width(), mesh.height(), mesh.depth()), (3, 3, 2));
        // --depth on an already-3D spec is a conflict.
        let o = Options::parse(&strs(&["--mesh", "3x3x2", "--depth", "2"])).unwrap();
        assert!(parse_mesh_options(&o).is_err());
        // No --depth leaves the spec alone.
        let o = Options::parse(&strs(&["--mesh", "3x3x2"])).unwrap();
        assert_eq!(parse_mesh_options(&o).unwrap().depth(), 2);
    }

    #[test]
    fn tenure_values_parse() {
        assert_eq!(parse_tenure("auto").unwrap(), noc_service::Tenure::Auto);
        assert_eq!(parse_tenure("21").unwrap(), noc_service::Tenure::Fixed(21));
        assert!(parse_tenure("huge").is_err());
    }

    #[test]
    fn technology_names() {
        assert_eq!(parse_technology("paper").unwrap().name, "paper-example");
        assert_eq!(parse_technology("0.35").unwrap().feature_nm, 350);
        assert_eq!(parse_technology("0.07um").unwrap().feature_nm, 70);
        assert!(parse_technology("5nm").is_err());
    }

    #[test]
    fn cache_tiers_and_priorities_parse_symbolically() {
        use noc_service::{CacheTier, Priority};
        assert_eq!(CacheTier::from_name("auto").unwrap(), CacheTier::Auto);
        assert_eq!(CacheTier::from_name("dense").unwrap(), CacheTier::Dense);
        assert_eq!(
            CacheTier::from_name(" Implicit ").unwrap(),
            CacheTier::Implicit
        );
        for removed in ["on-demand", "ondemand", "lazy", "hashmap"] {
            assert!(CacheTier::from_name(removed).is_err(), "{removed}");
        }
        assert_eq!(parse_priority("high").unwrap(), Priority::High);
        assert_eq!(parse_priority("normal").unwrap(), Priority::Normal);
        assert_eq!(parse_priority("low").unwrap(), Priority::Low);
        assert!(parse_priority("urgent").is_err());
    }

    #[test]
    fn generate_and_info_roundtrip() {
        let o = Options::parse(&strs(&[
            "--cores",
            "5",
            "--packets",
            "12",
            "--bits",
            "600",
            "--seed",
            "3",
        ]))
        .unwrap();
        let json = cmd_generate(&o).unwrap();
        let app: Cdcg = serde_json::from_str(&json).unwrap();
        assert_eq!(app.core_count(), 5);
        assert_eq!(app.packet_count(), 12);
        assert_eq!(app.total_volume(), 600);
    }

    #[test]
    fn generate_rejects_infeasible_flags_without_panicking() {
        for (flags, reason) in [
            (&["--cores", "1"][..], "need at least two"),
            (&["--cores", "4", "--packets", "0"][..], "zero packets"),
            (
                &["--cores", "4", "--packets", "10", "--bits", "3"][..],
                "cannot cover 10 non-empty packets",
            ),
        ] {
            let args: Vec<&str> = std::iter::once("generate")
                .chain(flags.iter().copied())
                .collect();
            let err = run(&strs(&args)).unwrap_err().to_string();
            assert!(
                err.starts_with("infeasible TGFF config") && err.contains(reason),
                "{flags:?}: {err}"
            );
        }
    }

    #[test]
    fn generate_default_is_paper_example() {
        let json = cmd_generate(&Options::default()).unwrap();
        let app: Cdcg = serde_json::from_str(&json).unwrap();
        assert_eq!(app.packet_count(), 6);
        assert_eq!(app.total_volume(), 120);
    }

    #[test]
    fn map_and_evaluate_the_paper_example() {
        let path = write_example_app();
        let map_out = run(&strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--method",
            "es",
            "--tech",
            "paper",
        ]))
        .unwrap();
        assert!(map_out.contains("texec:"), "{map_out}");
        assert!(map_out.contains("CDCM"));

        let eval_out = run(&strs(&[
            "evaluate",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--mapping",
            "1,0,3,2",
            "--tech",
            "paper",
            "--gantt",
        ]))
        .unwrap();
        // Figure 3(a): the paper mapping evaluates to 100 ns / 400 pJ...
        // with SimParams::new() (no injection serialization) the numbers
        // match the paper's example exactly because dependences already
        // serialize each core's packets there.
        assert!(eval_out.contains("texec:      100 ns"), "{eval_out}");
        assert!(eval_out.contains("400.000 pJ"), "{eval_out}");
        assert!(eval_out.contains("legend:"), "gantt requested");
    }

    #[test]
    fn solve_is_an_alias_of_map() {
        let path = write_example_app();
        let args = |cmd: &str| {
            strs(&[
                cmd,
                "--app",
                path.as_str(),
                "--mesh",
                "2x2",
                "--method",
                "es",
                "--tech",
                "paper",
            ])
        };
        let strip = |out: String| {
            out.lines()
                .filter(|l| !l.starts_with("elapsed:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        // Everything except the wall-clock line must match.
        assert_eq!(
            strip(run(&args("map")).unwrap()),
            strip(run(&args("solve")).unwrap())
        );
    }

    #[test]
    fn map_with_multistart_sa_is_deterministic() {
        let path = write_example_app();
        let args = strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--method",
            "sa-multi",
            "--restarts",
            "4",
            "--quick",
            "--tech",
            "paper",
            "--seed",
            "11",
        ]);
        let first = run(&args).unwrap();
        let second = run(&args).unwrap();
        assert!(first.contains("multistart"), "{first}");
        let tile_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("tile list:"))
                .map(str::to_owned)
                .expect("tile list printed")
        };
        assert_eq!(tile_line(&first), tile_line(&second));
    }

    #[test]
    fn map_supports_the_metaheuristic_portfolio_methods() {
        let path = write_example_app();
        for method in ["adaptive", "ga", "tabu", "portfolio"] {
            let args = strs(&[
                "map",
                "--app",
                path.as_str(),
                "--mesh",
                "2x2",
                "--method",
                method,
                "--evals",
                "400",
                "--tech",
                "paper",
                "--seed",
                "7",
                "--telemetry",
            ]);
            let first = run(&args).unwrap();
            let second = run(&args).unwrap();
            assert!(first.contains("texec:"), "{method}: {first}");
            assert!(first.contains("telemetry:"), "{method}: {first}");
            let tile_line = |out: &str| {
                out.lines()
                    .find(|l| l.starts_with("tile list:"))
                    .map(str::to_owned)
                    .expect("tile list printed")
            };
            // Same seed => same mapping, whatever the method.
            assert_eq!(tile_line(&first), tile_line(&second), "{method}");
            // Equal-budget discipline: never over the configured total.
            let evals: u64 = first
                .lines()
                .find(|l| l.starts_with("evaluations:"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|v| v.trim().parse().ok())
                .expect("evaluations printed");
            assert!(evals <= 400, "{method} overspent: {evals}");
        }
    }

    #[test]
    fn adaptive_telemetry_reports_rounds_and_survivors() {
        let path = write_example_app();
        let out = run(&strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--method",
            "adaptive",
            "--population",
            "4",
            "--rounds",
            "2",
            "--evals",
            "200",
            "--tech",
            "paper",
            "--telemetry",
        ]))
        .unwrap();
        assert!(out.contains("adaptive[4x2]"), "{out}");
        assert!(out.contains("round 0:"), "{out}");
        assert!(out.contains("survivors ["), "{out}");
        assert!(out.contains("best curve:"), "{out}");
    }

    #[test]
    fn unknown_crossover_is_rejected() {
        let path = write_example_app();
        let err = run(&strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--method",
            "ga",
            "--crossover",
            "uniform",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown crossover"), "{err}");
    }

    #[test]
    fn routing_option_threads_through_map_and_evaluate() {
        assert_eq!(parse_routing("yx").unwrap().name(), "YX");
        assert_eq!(parse_routing("torus-xy").unwrap().name(), "torus-XY");
        assert!(parse_routing("zigzag").is_err());

        let path = write_example_app();
        // Figure 1(c) under YX routing avoids the contention (see the
        // sim tests): with the CLI's default parameters texec drops from
        // the XY value of 100 ns to 93 ns, contention-free.
        let yx = run(&strs(&[
            "evaluate",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--mapping",
            "1,0,3,2",
            "--tech",
            "paper",
            "--routing",
            "yx",
        ]))
        .unwrap();
        assert!(yx.contains("routing:    YX"), "{yx}");
        assert!(yx.contains("texec:      93 ns"), "{yx}");
        assert!(yx.contains("contention: 0 events"), "{yx}");

        let mapped = run(&strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--method",
            "es",
            "--tech",
            "paper",
            "--routing",
            "yx",
        ]))
        .unwrap();
        assert!(mapped.contains("routing:      YX"), "{mapped}");
    }

    #[test]
    fn dot_exports_both_graphs() {
        let path = write_example_app();
        let cdcg = run(&strs(&["dot", "--app", path.as_str()])).unwrap();
        assert!(cdcg.contains("digraph cdcg"));
        let cwg = run(&strs(&["dot", "--app", path.as_str(), "--cwg"])).unwrap();
        assert!(cwg.contains("digraph cwg"));
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&strs(&["frobnicate"])).is_err());
        let err = run(&strs(&[
            "map",
            "--app",
            "/nonexistent.json",
            "--mesh",
            "2x2",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("/nonexistent.json"));
        let usage_text = run(&[]).unwrap();
        assert!(usage_text.contains("USAGE"));
    }

    #[test]
    fn suite_lists_and_exports() {
        let listing = run(&strs(&["suite"])).unwrap();
        assert!(listing.contains("tgff-i"));
        assert!(listing.contains("12x10"));
        let json = run(&strs(&["suite", "--row", "1"])).unwrap();
        let app: Cdcg = serde_json::from_str(&json).unwrap();
        assert_eq!(app.packet_count(), 17); // fft8-a
        assert_eq!(app.total_volume(), 174);
        assert!(run(&strs(&["suite", "--row", "99"])).is_err());
    }

    #[test]
    fn pins_parse_and_constrain_the_search() {
        let pins = parse_pins("c0:t3, c1:0").unwrap();
        assert_eq!(pins.len(), 2);
        assert!(parse_pins("c0").is_err());
        assert!(parse_pins("c0:t0,c1:t0").is_err());

        let path = write_example_app();
        let out = run(&strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--pin",
            "c0:t0",
            "--tech",
            "paper",
            "--quick",
        ]))
        .unwrap();
        // Core 0 (A) must sit on tile 0 in the reported tile list.
        let tile_line = out
            .lines()
            .find(|l| l.starts_with("tile list:"))
            .expect("tile list printed");
        let first = tile_line
            .split(':')
            .nth(1)
            .unwrap()
            .trim()
            .split(',')
            .next()
            .unwrap();
        assert_eq!(first, "0", "{out}");
    }

    #[test]
    fn route_cache_tiers_parse() {
        // Every tier name survives flag -> SolveRequest -> wire -> decoder.
        use noc_service::protocol::{encode_submit, parse_job};
        use noc_service::{CacheTier, JobRequest, Priority};
        let path = write_example_app();
        for tier in CacheTier::ALL {
            let options = Options::parse(&strs(&[
                "--app",
                path.as_str(),
                "--mesh",
                "2x2",
                "--route-cache",
                tier.name(),
            ]))
            .unwrap();
            let request = build_solve_request(&options).unwrap();
            assert_eq!(request.route_cache, tier, "{}", tier.name());
            let line = encode_submit(&JobRequest::Solve(Box::new(request)), Priority::Normal);
            let wire = serde_json::parse(&line).unwrap();
            let job = wire.get_field("job").expect("submit carries the job");
            match parse_job(job).unwrap() {
                JobRequest::Solve(decoded) => {
                    assert_eq!(decoded.route_cache, tier, "{}", tier.name())
                }
                JobRequest::Evaluate(_) => panic!("a solve job decoded as evaluate"),
            }
        }
    }

    #[test]
    fn removed_route_cache_tier_gets_one_typed_error_on_both_surfaces() {
        use noc_service::protocol::handle_line;
        use noc_service::{MappingService, ServiceConfig, UnknownCacheTier};
        let path = write_example_app();
        let cli_err = run(&strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--route-cache",
            "on-demand",
        ]))
        .unwrap_err();
        assert_eq!(
            cli_err.downcast_ref::<UnknownCacheTier>(),
            Some(&UnknownCacheTier("on-demand".to_owned()))
        );
        let message = cli_err.to_string();
        assert!(message.ends_with("(auto|dense|implicit)"), "{message}");

        let service = MappingService::start(ServiceConfig::new(1));
        let line = concat!(
            "{\"op\": \"submit\", \"job\": {\"kind\": \"solve\", ",
            "\"app_text\": \"core A\\ncore B\\npacket p0 A B comp=6 bits=15\\n\", ",
            "\"mesh\": {\"width\": 2, \"height\": 2, \"depth\": 1}, ",
            "\"method\": \"Exhaustive\", \"route_cache\": \"on-demand\"}}"
        );
        let reply = handle_line(&service.handle(), line);
        assert!(reply.line.contains("\"ok\":false"), "{}", reply.line);
        assert!(
            reply.line.contains(&format!("\"error\":\"{message}\"")),
            "{}",
            reply.line
        );
    }

    fn write_generated_app(cores: usize, packets: usize) -> tempfile::TempPath {
        let app = noc_apps::generate(&noc_apps::TgffConfig::new(
            cores,
            packets,
            64 * packets as u64,
            9,
        ));
        let json = serde_json::to_string(&app).expect("serializes");
        let dir = std::env::temp_dir().join(format!("noc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!(
            "gen-{cores}-{packets}-{}.json",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("time")
                .as_nanos()
        ));
        std::fs::write(&path, json).expect("write");
        tempfile::TempPath(path)
    }

    #[test]
    fn map_completes_on_a_64x64_mesh_with_fallback_tiers() {
        // The acceptance scenario: a 64x64-mesh CDCM SA run through the
        // CLI on `auto` and `implicit` — the mesh the dense cache refuses,
        // where `auto` resolves to the implicit tier.
        let path = write_generated_app(16, 40);
        let mut tile_lists = Vec::new();
        for tier in ["auto", "implicit"] {
            let out = run(&strs(&[
                "map",
                "--app",
                path.as_str(),
                "--mesh",
                "64x64",
                "--method",
                "sa",
                "--quick",
                "--evals",
                "300",
                "--seed",
                "3",
                "--route-cache",
                tier,
            ]))
            .unwrap();
            assert!(out.contains("route cache:  implicit"), "{tier}: {out}");
            assert!(out.contains("texec:"), "{out}");
            tile_lists.push(
                out.lines()
                    .find(|l| l.starts_with("tile list:"))
                    .map(str::to_owned)
                    .expect("tile list printed"),
            );
        }
        // Same seed, different tiers: identical search trajectory.
        assert_eq!(tile_lists[0], tile_lists[1]);
    }

    #[test]
    fn dense_tier_fails_gracefully_on_a_large_mesh() {
        let path = write_example_app();
        let err = run(&strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "64x64",
            "--route-cache",
            "dense",
            "--quick",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("route provider"), "{err}");
    }

    #[test]
    fn map_and_evaluate_run_on_a_3d_mesh() {
        // The acceptance scenario: the search portfolio on a 3D instance
        // through the CLI, with xyz routing, deterministic per seed.
        let path = write_generated_app(10, 30);
        let args = strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "3x3x2",
            "--method",
            "portfolio",
            "--evals",
            "400",
            "--routing",
            "xyz",
            "--seed",
            "5",
            "--telemetry",
        ]);
        let first = run(&args).unwrap();
        let second = run(&args).unwrap();
        assert!(first.contains("routing:      XYZ"), "{first}");
        assert!(first.contains("texec:"), "{first}");
        assert!(first.contains("telemetry:"), "{first}");
        let tile_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("tile list:"))
                .map(str::to_owned)
                .expect("tile list printed")
        };
        assert_eq!(tile_line(&first), tile_line(&second));

        // --depth is equivalent to the 3D mesh spec, trajectory and all.
        let via_depth = run(&strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "3x3",
            "--depth",
            "2",
            "--method",
            "portfolio",
            "--evals",
            "400",
            "--routing",
            "xyz",
            "--seed",
            "5",
        ]))
        .unwrap();
        assert_eq!(tile_line(&first), tile_line(&via_depth));

        // Evaluate an explicit 3D mapping under the 3D torus.
        let eval_out = run(&strs(&[
            "evaluate",
            "--app",
            path.as_str(),
            "--mesh",
            "3x3x2",
            "--mapping",
            "0,1,2,3,4,5,6,7,8,9",
            "--routing",
            "torus-xyz",
        ]))
        .unwrap();
        assert!(eval_out.contains("routing:    torus-XYZ"), "{eval_out}");
        assert!(eval_out.contains("texec:"), "{eval_out}");
    }

    #[test]
    fn tabu_tenure_auto_is_accepted_and_deterministic() {
        let path = write_example_app();
        let args = strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--method",
            "tabu",
            "--tenure",
            "auto",
            "--evals",
            "200",
            "--tech",
            "paper",
            "--seed",
            "3",
        ]);
        let first = run(&args).unwrap();
        let second = run(&args).unwrap();
        assert!(first.contains("tabu"), "{first}");
        let tile_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("tile list:"))
                .map(str::to_owned)
                .expect("tile list printed")
        };
        assert_eq!(tile_line(&first), tile_line(&second));
        // The portfolio's tabu member honors --tenure too (deterministic
        // run; the flag must be accepted, not silently dropped).
        let portfolio = run(&strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--method",
            "portfolio",
            "--tenure",
            "auto",
            "--evals",
            "200",
            "--tech",
            "paper",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(portfolio.contains("portfolio"), "{portfolio}");
        // Bad tenure values fail loudly.
        let err = run(&strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--method",
            "tabu",
            "--tenure",
            "sometimes",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("--tenure"), "{err}");
    }

    #[test]
    fn fault_scenarios_parse() {
        let o = Options::parse(&strs(&["--faults", "2", "--fault-seed", "9"])).unwrap();
        assert_eq!(
            parse_fault_scenario(&o).unwrap(),
            Some(FaultScenario::RandomLinks { count: 2, seed: 9 })
        );
        let o = Options::parse(&strs(&["--faults", "1", "--fault-kind", "tsv"])).unwrap();
        assert_eq!(
            parse_fault_scenario(&o).unwrap(),
            Some(FaultScenario::RandomTsvs { count: 1, seed: 0 })
        );
        let o = Options::parse(&strs(&["--faults", "2", "--fault-kind", "region"])).unwrap();
        assert!(matches!(
            parse_fault_scenario(&o).unwrap(),
            Some(FaultScenario::Region {
                width: 2,
                height: 2,
                ..
            })
        ));
        let o = Options::parse(&strs(&["--mesh", "3x3"])).unwrap();
        assert_eq!(parse_fault_scenario(&o).unwrap(), None);
        let o = Options::parse(&strs(&["--faults", "2", "--fault-kind", "meteor"])).unwrap();
        assert!(parse_fault_scenario(&o).is_err());
        let o = Options::parse(&strs(&["--faults", "lots"])).unwrap();
        assert!(parse_fault_scenario(&o).is_err());
    }

    #[test]
    fn map_reports_fault_tolerance_and_criticality() {
        let path = write_example_app();
        let args = strs(&[
            "map",
            "--app",
            path.as_str(),
            "--mesh",
            "3x3",
            "--method",
            "es",
            "--tech",
            "paper",
            "--faults",
            "2",
            "--fault-seed",
            "1",
            "--fault-evals",
            "500",
            "--robustness-report",
        ]);
        let out = run(&args).unwrap();
        assert!(out.contains("link load:"), "{out}");
        assert!(out.contains("max share:"), "{out}");
        assert!(out.contains("fault tolerance:"), "{out}");
        assert!(out.contains("dead links:  4"), "{out}");
        assert!(out.contains("baseline:"), "{out}");
        assert!(out.contains("degraded:"), "{out}");
        assert!(out.contains("recovered:"), "{out}");
        // Deterministic: fault injection and recovery are seed-driven
        // (the `elapsed:` wall-clock line above the section is not).
        let fault_section = |s: &str| s[s.find("link load:").unwrap()..].to_owned();
        assert_eq!(fault_section(&out), fault_section(&run(&args).unwrap()));
    }

    #[test]
    fn text_format_apps_load_and_report_line_errors() {
        let dir = std::env::temp_dir().join(format!("noc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("app.cdcg");
        std::fs::write(&path, "core A\ncore B\npacket p0 A B comp=6 bits=15\n").expect("write");
        let path = tempfile::TempPath(path);
        let out = run(&strs(&["info", "--app", path.as_str()])).unwrap();
        assert!(out.contains("cores:        2"), "{out}");

        let bad = dir.join("bad.cdcg");
        std::fs::write(&bad, "core A\npacket p0 A Z comp=1 bits=1\n").expect("write");
        let bad = tempfile::TempPath(bad);
        let err = run(&strs(&["info", "--app", bad.as_str()]))
            .unwrap_err()
            .to_string();
        assert!(err.contains(":2:"), "line context expected: {err}");
        assert!(err.contains('Z'), "{err}");
    }

    #[test]
    fn map_rejects_oversubscribed_mesh() {
        let path = write_example_app();
        let err = run(&strs(&["map", "--app", path.as_str(), "--mesh", "3x1"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("cannot map"), "{err}");
    }

    #[test]
    fn map_is_identical_across_worker_counts() {
        // The service guarantee, surfaced at the CLI: --workers never
        // changes the result, only the wall clock.
        let path = write_example_app();
        let args = |workers: &str| {
            strs(&[
                "map",
                "--app",
                path.as_str(),
                "--mesh",
                "2x2",
                "--method",
                "sa",
                "--quick",
                "--tech",
                "paper",
                "--seed",
                "13",
                "--workers",
                workers,
            ])
        };
        let strip = |out: String| {
            out.lines()
                .filter(|l| !l.starts_with("elapsed:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = strip(run(&args("1")).unwrap());
        let four = strip(run(&args("4")).unwrap());
        assert_eq!(one, four);
    }

    #[test]
    fn explore_compares_methods_deterministically() {
        let path = write_example_app();
        let args = strs(&[
            "explore",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--methods",
            "es,sa,tabu",
            "--evals",
            "200",
            "--tech",
            "paper",
            "--seed",
            "3",
        ]);
        let first = run(&args).unwrap();
        let second = run(&args).unwrap();
        // No wall-clock columns: the whole table is reproducible.
        assert_eq!(first, second);
        assert!(first.contains("method"), "{first}");
        assert!(first.contains("es"), "{first}");
        assert!(first.contains("best:"), "{first}");
        assert!(first.contains("route cache:"), "{first}");
        // One shared (mesh, routing, faults) identity across all jobs.
        assert!(first.contains("1 builds, 2 registry hits"), "{first}");

        let err = run(&strs(&[
            "explore",
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--methods",
            " , ",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("--methods"), "{err}");
    }

    #[test]
    fn bench_reports_throughput_and_registry_reuse() {
        let out = run(&strs(&[
            "bench",
            "--jobs",
            "4",
            "--workers",
            "2",
            "--evals",
            "50",
        ]))
        .unwrap();
        assert!(out.contains("jobs:         4 (2 workers)"), "{out}");
        assert!(out.contains("throughput:"), "{out}");
        assert!(
            out.contains("route cache:  1 builds, 3 registry hits"),
            "{out}"
        );
        assert!(out.contains("scratch:"), "{out}");
        assert!(run(&strs(&["bench", "--jobs", "0"])).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn serve_and_submit_round_trip_over_a_socket() {
        let path = write_example_app();
        let dir = std::env::temp_dir().join(format!("noc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let socket = dir.join("serve-test.sock");
        let socket_str = socket.to_str().expect("utf8 path").to_owned();

        let server = {
            let socket_str = socket_str.clone();
            std::thread::spawn(move || {
                run(&strs(&["serve", "--socket", &socket_str, "--workers", "1"]))
            })
        };
        // Wait for the listener to bind.
        for _ in 0..500 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(socket.exists(), "server never bound its socket");

        // Submit a solve job and wait for its result in one invocation.
        let out = run(&strs(&[
            "submit",
            "--socket",
            &socket_str,
            "--app",
            path.as_str(),
            "--mesh",
            "2x2",
            "--method",
            "es",
            "--tech",
            "paper",
            "--priority",
            "high",
            "--wait",
        ]))
        .unwrap();
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"state\":\"done\""), "{out}");
        assert!(out.contains("\"kind\":\"solve\""), "{out}");

        // Control ops work too.
        let stats = run(&strs(&["submit", "--socket", &socket_str, "--op", "stats"])).unwrap();
        assert!(stats.contains("\"done\":1"), "{stats}");
        let bye = run(&strs(&[
            "submit",
            "--socket",
            &socket_str,
            "--op",
            "shutdown",
        ]))
        .unwrap();
        assert!(bye.contains("\"ok\":true"), "{bye}");

        let served = server.join().expect("server thread").unwrap();
        assert!(served.contains("shut down"), "{served}");
    }

    #[cfg(unix)]
    #[test]
    fn observability_ops_round_trip_over_a_socket() {
        let path = write_example_app();
        let dir = std::env::temp_dir().join(format!("noc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let socket = dir.join("obs-test.sock");
        let socket_str = socket.to_str().expect("utf8 path").to_owned();

        let server = {
            let socket_str = socket_str.clone();
            std::thread::spawn(move || {
                run(&strs(&["serve", "--socket", &socket_str, "--workers", "1"]))
            })
        };
        for _ in 0..500 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(socket.exists(), "server never bound its socket");

        // A second client watches live while jobs run. The subscription
        // only sees events emitted after it connects, so keep submitting
        // until the watcher has collected its quota.
        let watcher = {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut lines = Vec::new();
                let seen = crate::commands::watch_stream(&socket, 4, |line| {
                    lines.push(line.to_owned());
                })
                .expect("watch stream");
                (seen, lines)
            })
        };
        let submit = |wait: bool| {
            let mut args = strs(&[
                "submit",
                "--socket",
                &socket_str,
                "--app",
                path.as_str(),
                "--mesh",
                "2x2",
                "--method",
                "es",
                "--tech",
                "paper",
            ]);
            if wait {
                args.push("--wait".to_owned());
            }
            run(&args).unwrap()
        };
        let first = submit(true);
        assert!(first.contains("\"state\":\"done\""), "{first}");
        for _ in 0..200 {
            if watcher.is_finished() {
                break;
            }
            submit(false);
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let (seen, lines) = watcher.join().expect("watcher thread");
        assert_eq!(seen, 4, "watcher quota");
        assert_eq!(lines.len(), 4);
        for line in &lines {
            serde_json::parse(line).expect("event lines are JSON");
        }

        // The metrics op, through both renderings.
        let text = run(&strs(&["metrics", "--socket", &socket_str])).unwrap();
        assert!(
            text.contains("# TYPE noc_jobs_completed_total counter"),
            "{text}"
        );
        assert!(
            text.contains("noc_jobs_submitted_total{class=\"normal\"}"),
            "{text}"
        );
        let json = run(&strs(&["metrics", "--socket", &socket_str, "--json"])).unwrap();
        assert!(json.contains("\"exposition\""), "{json}");
        assert!(json.contains("\"counters\""), "{json}");

        // The flight tape of the first job, via `submit --op trace`.
        let tape = run(&strs(&[
            "submit",
            "--socket",
            &socket_str,
            "--op",
            "trace",
            "--job",
            "0",
        ]))
        .unwrap();
        assert!(tape.contains("\"job\":0"), "{tape}");
        assert!(tape.contains("job_start"), "{tape}");
        assert!(tape.contains("job_end"), "{tape}");

        let bye = run(&strs(&[
            "submit",
            "--socket",
            &socket_str,
            "--op",
            "shutdown",
        ]))
        .unwrap();
        assert!(bye.contains("\"ok\":true"), "{bye}");
        server.join().expect("server thread").unwrap();
    }

    #[test]
    fn map_trace_file_records_the_run_without_changing_it() {
        let path = write_example_app();
        let dir = std::env::temp_dir().join(format!("noc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let trace = dir.join(format!(
            "trace-{}.jsonl",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("time")
                .as_nanos()
        ));
        let trace = tempfile::TempPath(trace);
        let args = |extra: &[&str]| {
            let mut v = strs(&[
                "map",
                "--app",
                path.as_str(),
                "--mesh",
                "2x2",
                "--method",
                "sa",
                "--quick",
                "--tech",
                "paper",
                "--seed",
                "11",
            ]);
            v.extend(strs(extra));
            v
        };
        let strip = |out: String| {
            out.lines()
                .filter(|l| !l.starts_with("elapsed:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let traced = strip(run(&args(&["--trace", trace.as_str()])).unwrap());
        let untraced = strip(run(&args(&[])).unwrap());
        // Tracing reads the search; it never steers it.
        assert_eq!(traced, untraced);

        let recorded = std::fs::read_to_string(&trace.0).expect("trace file written");
        let kinds: Vec<String> = recorded
            .lines()
            .map(|l| {
                let value = serde_json::parse(l).expect("trace lines are JSON");
                match value.get_field("kind") {
                    Some(serde::Value::Str(kind)) => kind.clone(),
                    other => panic!("kind missing in {l}: {other:?}"),
                }
            })
            .collect();
        assert_eq!(kinds.first().map(String::as_str), Some("job_start"));
        assert_eq!(kinds.last().map(String::as_str), Some("job_end"));
        assert!(kinds.iter().any(|k| k == "epoch"), "{kinds:?}");
        assert!(kinds.iter().any(|k| k == "best"), "{kinds:?}");
    }
}
