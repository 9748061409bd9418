//! Pins of how both request surfaces decode a job.
//!
//! Each entry of a fixed corpus is decoded the way its surface decodes
//! it, and the FNV-1a-64 digest of the decoded request's `Debug` (or of
//! the error text) is compared with the recorded one:
//!
//! * `solve`: `noc_cli::build_solve_request` over an argument vector —
//!   the request `noc-cli map` runs. With `--method NAME` appended it is
//!   also the request `noc-cli explore` builds for method `NAME`.
//! * `submit`: `noc-cli submit` against a stand-in server that records
//!   the line it is sent; the digest is of the priority and the job that
//!   `protocol::parse_job` makes of that line (`--mapping` selects an
//!   evaluate job).
//! * `run`: a whole `noc-cli` invocation that is refused; the digest is
//!   of its error text.
//! * `wire`: `protocol::parse_job` over a job object: the jobs
//!   `encode_submit` writes, hand-written ones that lean on every
//!   default, and ones the decoder refuses.
//!
//! A change to what either surface accepts, refuses, defaults or
//! resolves shows up here as a changed digest.

#![cfg(unix)]

use noc::apps::paper_example::{figure1_cdcg, mapping_c, mesh_2x2};
use noc::energy::Technology;
use noc::mapping::{
    AdaptiveConfig, Constraints, Crossover, GaConfig, PortfolioConfig, RestartBudget, SaConfig,
    SearchMethod, Strategy, TabuConfig, Tenure,
};
use noc::model::{CoreId, FaultSet, RoutingKind, TileId};
use noc::sim::SimParams;
use noc_cli::{build_solve_request, run, Options};
use noc_service::protocol::{encode_submit, parse_job};
use noc_service::{EvaluateRequest, JobRequest, Priority, SolveRequest};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The files the corpus reads, in a directory of their own; `$DIR` in
/// an argument or an error text stands for that directory.
struct Files(PathBuf);

impl Files {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("noc-decode-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let fig1 = serde_json::to_string(&figure1_cdcg()).expect("serializes");
        for (name, text) in [
            ("fig1.json", fig1.as_str()),
            (
                "pair.cdcg",
                "core A\ncore B\npacket p0 A B comp=6 bits=15\n",
            ),
            ("broken.json", "{\"core_names\": ["),
        ] {
            std::fs::write(dir.join(name), text).expect("write");
        }
        Self(dir)
    }

    fn dir(&self) -> &str {
        self.0.to_str().expect("utf8 path")
    }

    fn args(&self, args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.replace("$DIR", self.dir())).collect()
    }

    /// `text` with this directory written as `$DIR`.
    fn scrub(&self, text: &str) -> String {
        text.replace(self.dir(), "$DIR")
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What `build_solve_request` makes of `args`.
fn solve(files: &Files, args: &[&str]) -> String {
    let options = Options::parse(&files.args(args)).expect("the vector parses");
    match build_solve_request(&options) {
        Ok(request) => format!("{request:?}"),
        Err(e) => files.scrub(&e.to_string()),
    }
}

/// The priority and the decoded job of the line `noc-cli submit ARGS`
/// sends, or its error text.
fn submit(files: &Files, args: &[&str]) -> String {
    let socket = files.0.join("stand-in.sock");
    let listener = UnixListener::bind(&socket).expect("bind");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut line = String::new();
        let _ = BufReader::new(&stream).read_line(&mut line);
        let _ = (&stream).write_all(b"{\"ok\":true,\"job\":0,\"state\":\"pending\"}\n");
        line
    });
    let mut argv = vec!["submit", "--socket", socket.to_str().expect("utf8 path")];
    argv.extend_from_slice(args);
    let outcome = run(&files.args(&argv));
    if outcome.is_err() {
        // Nothing connected: let the stand-in return.
        let _ = UnixStream::connect(&socket);
    }
    let line = server.join().expect("stand-in server");
    let _ = std::fs::remove_file(&socket);
    if let Err(e) = outcome {
        return files.scrub(&e.to_string());
    }
    let envelope = serde_json::parse(&line).expect("submit sends JSON");
    let priority = envelope.get_field("priority").expect("a priority");
    let job = envelope.get_field("job").expect("a job");
    match parse_job(job) {
        Ok(request) => format!("{priority:?} {request:?}"),
        Err(e) => panic!("the server refuses what submit sends: {e}"),
    }
}

/// The error text of a refused `noc-cli` invocation.
fn refused(files: &Files, args: &[&str]) -> String {
    match run(&files.args(args)) {
        Ok(out) => panic!("{args:?} ran: {out}"),
        Err(e) => files.scrub(&e.to_string()),
    }
}

/// What `parse_job` makes of the job object `json`.
fn wire(json: &str) -> String {
    let job = serde_json::parse(json).expect("the job is JSON");
    match parse_job(&job) {
        Ok(request) => format!("{request:?}"),
        Err(e) => e,
    }
}

/// The `"job"` object of the line `encode_submit` writes for `request`.
fn encoded(request: JobRequest) -> String {
    let line = encode_submit(&request, Priority::Normal);
    let envelope = serde_json::parse(&line).expect("the encoder writes JSON");
    serde_json::to_string(envelope.get_field("job").expect("a job")).expect("serializes")
}

fn fig1_solve(method: SearchMethod) -> SolveRequest {
    SolveRequest::new(figure1_cdcg(), mesh_2x2(), method)
}

fn fig1_evaluate() -> EvaluateRequest {
    EvaluateRequest {
        app: figure1_cdcg(),
        mesh: mesh_2x2(),
        mapping: mapping_c(),
        tech: Technology::t007(),
        params: SimParams::new(),
        routing: RoutingKind::Xy,
        gantt: false,
    }
}

/// The jobs `encode_submit` writes: every search method, every solve
/// field away from its default, and evaluate jobs.
fn encoder_jobs() -> Vec<(String, String)> {
    let mut sa = SaConfig::quick(5);
    sa.max_evaluations = 300;
    let mut tabu = TabuConfig::new(3);
    tabu.tenure = Tenure::Fixed(4);
    tabu.neighborhood = 6;
    let mut ga = GaConfig::new(2);
    ga.crossover = Crossover::Cycle;
    let methods = [
        SearchMethod::Exhaustive,
        SearchMethod::SimulatedAnnealing(sa),
        SearchMethod::MultiStartSa {
            config: sa,
            restarts: 3,
            budget: RestartBudget::Total,
        },
        SearchMethod::Random {
            samples: 50,
            seed: 9,
        },
        SearchMethod::Random {
            samples: 0,
            seed: 9,
        },
        SearchMethod::Greedy {
            restarts: 2,
            seed: 4,
        },
        SearchMethod::Greedy {
            restarts: 0,
            seed: 4,
        },
        SearchMethod::Adaptive(AdaptiveConfig::new(6)),
        SearchMethod::Genetic(ga),
        SearchMethod::Tabu(tabu),
        SearchMethod::Portfolio(PortfolioConfig::new(8)),
    ];
    let mut out = Vec::new();
    for method in methods {
        let label = format!("encoded solve {}", method.name());
        out.push((
            label,
            encoded(JobRequest::Solve(Box::new(fig1_solve(method)))),
        ));
    }

    let mut every = fig1_solve(SearchMethod::SimulatedAnnealing(sa));
    every.strategy = Strategy::Cwm;
    every.tech = Technology::paper_example();
    every.params = SimParams::paper_example();
    every.routing = RoutingKind::TorusXy;
    every.faults = {
        let mut faults = FaultSet::new();
        faults.kill_between(TileId::new(0), TileId::new(1));
        faults
    };
    every.pins = Some(
        Constraints::new()
            .pin(CoreId::new(0), TileId::new(3))
            .expect("one pin"),
    );
    every.sa_config = sa;
    every.criticality = true;
    every.seed = 11;
    out.push((
        "encoded solve, every field set".to_owned(),
        encoded(JobRequest::Solve(Box::new(every))),
    ));
    let mut empty_pins = fig1_solve(SearchMethod::Exhaustive);
    empty_pins.pins = Some(Constraints::new());
    out.push((
        "encoded solve, empty pin set".to_owned(),
        encoded(JobRequest::Solve(Box::new(empty_pins))),
    ));

    out.push((
        "encoded evaluate".to_owned(),
        encoded(JobRequest::Evaluate(Box::new(fig1_evaluate()))),
    ));
    let mut gantt = fig1_evaluate();
    gantt.tech = Technology::t035();
    gantt.routing = RoutingKind::Yx;
    gantt.params = SimParams::paper_example();
    gantt.gantt = true;
    out.push((
        "encoded evaluate, every field set".to_owned(),
        encoded(JobRequest::Evaluate(Box::new(gantt))),
    ));
    out
}

/// One entry of the corpus: a label and what its surface made of it.
type Row = (String, String);

fn cli_rows(files: &Files) -> Vec<Row> {
    let mut rows = Vec::new();
    // Figure 1 on a 2x2 mesh, unless the vector names its own mesh.
    let with = |extra: &[&'static str]| -> Vec<&'static str> {
        let mut args = vec!["--app", "$DIR/fig1.json"];
        if !extra.contains(&"--mesh") {
            args.extend_from_slice(&["--mesh", "2x2"]);
        }
        args.extend_from_slice(extra);
        args
    };

    // `map`: every option, every method name and alias with its tuning
    // flags, the fault flags, and bad values.
    let solves: &[&[&str]] = &[
        &[],
        &["--depth", "1"],
        &["--depth", "2"],
        &["--strategy", "cwm"],
        &["--strategy", " CDCM "],
        &["--tech", "paper"],
        &["--tech", "0.35"],
        &["--tech", "350um"],
        &["--tech", "0.07"],
        &["--routing", "yx"],
        &["--routing", "torus-xy"],
        &["--routing", "torus"],
        &["--routing", "xyz"],
        &["--routing", "torus-xyz"],
        &["--routing", " YX "],
        &["--seed", "7"],
        &["--seed", "18446744073709551615"],
        &["--quick"],
        &["--evals", "300"],
        &["--quick", "--evals", "50"],
        &["--evals", "0"],
        &["--method", "sa"],
        &["--method", "SA", "--quick"],
        &["--method", "sa-multi"],
        &["--method", "sa-multi", "--restarts", "3", "--evals", "90"],
        &["--method", "sa-multi", "--restarts", "0"],
        &["--method", "multistart", "--restarts", "2", "--seed", "4"],
        &["--method", "adaptive"],
        &["--method", "adaptive", "--population", "6", "--rounds", "3"],
        &["--method", "adaptive", "--population", "0", "--rounds", "0"],
        &["--method", "ga"],
        &[
            "--method",
            "ga",
            "--population",
            "10",
            "--crossover",
            "cycle",
        ],
        &["--method", "genetic", "--crossover", "pmx", "--seed", "2"],
        &["--method", "tabu"],
        &["--method", "tabu", "--tenure", "5", "--neighborhood", "12"],
        &["--method", "tabu", "--tenure", "auto", "--evals", "200"],
        &["--method", "tabu", "--tenure", "0", "--neighborhood", "0"],
        &["--method", "portfolio"],
        &[
            "--method",
            "portfolio",
            "--restarts",
            "2",
            "--population",
            "4",
            "--rounds",
            "2",
            "--tenure",
            "3",
        ],
        &["--method", "portfolio", "--tenure", "auto", "--quick"],
        &["--method", "exhaustive"],
        &["--method", "es"],
        &["--method", "ES"],
        &["--method", "random"],
        &["--method", "random", "--seed", "5", "--evals", "10"],
        &["--method", "greedy"],
        &["--method", "greedy", "--restarts", "3", "--seed", "1"],
        &["--method", "greedy", "--restarts", "0"],
        &["--method", "sa", "--restarts", "3", "--tenure", "2"],
        &["--pin", "c0:t1"],
        &["--pin", "c0:t3, c1:0"],
        &["--method", "es", "--pin", "c0:t1,c2:t3"],
        &["--method", "tabu", "--pin", "c0:t0"],
        &["--robustness-report"],
        &["--faults", "2"],
        &["--faults", "1", "--fault-kind", "tsv"],
        &["--faults", "2", "--fault-kind", "region"],
        &["--faults", "1", "--fault-kind", "links"],
        &["--fault-kind", "region"],
        &["--fault-seed", "4"],
        &["--faults", "2", "--fault-seed", "9", "--fault-evals", "500"],
        &["--fault-evals", "500"],
        &[
            "--depth",
            "1",
            "--strategy",
            "cwm",
            "--tech",
            "0.35",
            "--routing",
            "yx",
            "--seed",
            "9",
            "--quick",
            "--evals",
            "120",
            "--method",
            "tabu",
            "--tenure",
            "7",
            "--neighborhood",
            "5",
            "--robustness-report",
            "--faults",
            "1",
            "--fault-seed",
            "2",
            "--fault-evals",
            "40",
        ],
        // Bad values, one per vector.
        &["--mesh", "3*2"],
        &["--mesh", "0x2"],
        &["--mesh", "2x2x2x2"],
        &["--mesh", "ax2"],
        &["--mesh", "2x2x2", "--depth", "2"],
        &["--depth", "0"],
        &["--depth", "x"],
        &["--mesh", "4000x4000"],
        &["--mesh", "4294967296x4294967296"],
        &["--mesh", "4294967296x1x4294967296"],
        &["--mesh", "256x256", "--depth", "2"],
        &["--mesh", "3x1"],
        &["--strategy", "energy"],
        &["--tech", "5nm"],
        &["--tech", ""],
        &["--routing", "zigzag"],
        &["--seed", "-1"],
        &["--seed", "x"],
        &["--evals", "x"],
        &["--evals", "-5"],
        &["--method", "bogus"],
        &["--method", "Sa"],
        &["--method", "sa-multi", "--restarts", "x"],
        &["--method", "adaptive", "--population", "x"],
        &["--method", "adaptive", "--rounds", "-1"],
        &["--method", "ga", "--crossover", "uniform"],
        &["--method", "tabu", "--tenure", "sometimes"],
        &["--method", "tabu", "--neighborhood", "x"],
        &["--method", "portfolio", "--restarts", "x"],
        &["--method", "greedy", "--restarts", "x"],
        &["--pin", "c0"],
        &["--pin", "c0:t0,c1:t0"],
        &["--pin", "cx:t0"],
        &["--pin", "c0:tx"],
        &["--pin", "c9:t0"],
        &["--pin", "c0:t9"],
        &["--faults", "lots"],
        &["--faults", "2", "--fault-kind", "meteor"],
        &["--fault-seed", "x"],
        &["--fault-evals", "x"],
    ];
    for extra in solves {
        rows.push((format!("map {extra:?}"), solve(files, &with(extra))));
    }
    for args in [
        &["--mesh", "2x2"][..],
        &["--app", "$DIR/fig1.json"],
        &["--app", "/nonexistent/app.json", "--mesh", "2x2"],
        &["--app", "$DIR/broken.json", "--mesh", "2x2"],
        &["--app", "$DIR/pair.cdcg", "--mesh", "2x1"],
        &["--app", "$DIR/pair.cdcg", "--mesh", "2x1", "--method", "es"],
    ] {
        rows.push((format!("map {args:?}"), solve(files, args)));
    }

    // `explore`: the request it builds for each method is `map`'s with
    // `--method NAME`.
    let explore = [
        "--evals",
        "200",
        "--seed",
        "3",
        "--tech",
        "paper",
        "--restarts",
        "2",
        "--population",
        "4",
        "--rounds",
        "2",
        "--tenure",
        "auto",
        "--neighborhood",
        "6",
        "--crossover",
        "cycle",
    ];
    for method in [
        "sa",
        "sa-multi",
        "ga",
        "tabu",
        "portfolio",
        "adaptive",
        "es",
        "random",
        "greedy",
    ] {
        let mut args = with(&explore);
        args.extend_from_slice(&["--method", method]);
        rows.push((format!("explore build {method}"), solve(files, &args)));
    }

    // `submit`: solve and evaluate jobs as the server decodes them.
    let submits: &[&[&str]] = &[
        &[],
        &["--priority", "high"],
        &["--priority", " LOW "],
        &["--method", "tabu", "--tenure", "4", "--seed", "2"],
        &["--method", "es", "--pin", "c0:t1"],
        &[
            "--strategy",
            "cwm",
            "--tech",
            "0.35",
            "--routing",
            "yx",
            "--seed",
            "3",
            "--quick",
            "--evals",
            "100",
            "--robustness-report",
        ],
        &["--gantt"],
        &["--mapping", "1,0,3,2"],
        &["--mapping", "1, 0, 3, 2", "--tech", "paper", "--gantt"],
        &["--mapping", "1,0,3,2", "--routing", "yx", "--depth", "1"],
        &["--mapping", "0,1,2,3", "--depth", "2", "--routing", "xyz"],
        &["--mapping", "1,0,3,2", "--method", "es", "--seed", "4"],
        &["--mapping", "1,1,3,2"],
        &["--mapping", "9,0,1,2"],
        &["--mapping", "1,0"],
        &["--mapping", "a,b"],
        &["--mapping", "0,1,2,3,4"],
        &["--mapping", "1,0,3,2", "--tech", "5nm"],
        &["--mapping", "1,0,3,2", "--mesh", "4000x4000"],
        &["--faults", "2"],
        &["--fault-evals", "5"],
        &["--mapingg", "1,0,3,2"],
        &["--priority", "urgent"],
        &["--seed", "1", "--seed", "2"],
    ];
    for extra in submits {
        rows.push((format!("submit {extra:?}"), submit(files, &with(extra))));
    }

    // Whole invocations that are refused.
    let runs: &[&[&str]] = &[
        &[
            "evaluate",
            "--app",
            "$DIR/fig1.json",
            "--mesh",
            "2x2",
            "--mapping",
            "1,0,3,2",
            "--method",
            "tabu",
        ],
        &[
            "evaluate",
            "--app",
            "$DIR/fig1.json",
            "--mesh",
            "2x2",
            "--mapping",
            "1,1,3,2",
        ],
        &[
            "evaluate",
            "--app",
            "$DIR/fig1.json",
            "--mesh",
            "4000x4000",
            "--mapping",
            "1,0,3,2",
        ],
        &["evaluate", "--app", "$DIR/fig1.json", "--mesh", "2x2"],
        &[
            "evaluate",
            "--app",
            "$DIR/fig1.json",
            "--mesh",
            "2x2",
            "--mapping",
            "1,0",
        ],
        &[
            "evaluate",
            "--app",
            "$DIR/fig1.json",
            "--mesh",
            "2x2",
            "--mapping",
            "1,0,3,2",
            "--routing",
            "zigzag",
        ],
        &["explore", "--method", "sa"],
        &["explore", "--trace", "x.jsonl"],
        &[
            "explore",
            "--app",
            "$DIR/fig1.json",
            "--mesh",
            "2x2",
            "--methods",
            "bogus",
        ],
        &[
            "map",
            "--app",
            "$DIR/fig1.json",
            "--mesh",
            "2x2",
            "--route-cache",
            "dense",
        ],
        &["map", "--seed", "1", "--seed", "2"],
        &["map", "--app", "$DIR/fig1.json", "--evlas", "5"],
        &["map", "--app", "$DIR/fig1.json", "--mapping", "0,1,2,3"],
        &["solve", "--app", "$DIR/fig1.json", "--gantt"],
    ];
    for args in runs {
        rows.push((format!("run {args:?}"), refused(files, args)));
    }
    rows
}

fn wire_rows() -> Vec<Row> {
    let mut rows: Vec<Row> = encoder_jobs()
        .into_iter()
        .map(|(label, json)| (label, wire(&json)))
        .collect();
    let text = "\"app_text\":\"core A\\ncore B\\npacket p0 A B comp=6 bits=15\\n\"";
    let mesh = "\"mesh\":{\"width\":2,\"height\":1,\"depth\":1}";
    let fig1 = serde_json::to_string(&figure1_cdcg()).expect("serializes");
    let paper = serde_json::to_string(&Technology::paper_example()).expect("serializes");
    let solve = |rest: &str| format!("{{\"kind\":\"solve\",{text},{mesh},{rest}}}");
    let evaluate = |rest: &str| format!("{{\"kind\":\"evaluate\",{text},{mesh},{rest}}}");
    let jobs = [
        // Every default.
        solve("\"method\":\"Exhaustive\""),
        solve("\"method\":\"Exhaustive\",\"tech\":\"paper\""),
        solve(&format!("\"method\":\"Exhaustive\",\"tech\":{paper}")),
        solve("\"method\":\"Exhaustive\",\"tech\":null,\"strategy\":null,\"routing\":null"),
        solve("\"method\":\"Exhaustive\",\"pins\":null,\"params\":null,\"faults\":null,\"sa_config\":null"),
        solve("\"method\":\"Exhaustive\",\"strategy\":\"CWM\",\"routing\":\" yx \",\"seed\":5,\"criticality\":true"),
        solve("\"method\":\"Exhaustive\",\"faults\":[[0,1],[1,0]]"),
        solve("\"method\":\"Exhaustive\",\"faults\":[]"),
        solve("\"method\":\"Exhaustive\",\"pins\":{\"pinned\":{}}"),
        solve("\"method\":{\"Random\":{\"samples\":0,\"seed\":1}}"),
        solve("\"method\":{\"Greedy\":{\"restarts\":0,\"seed\":1}}"),
        format!("{{\"kind\":\"solve\",\"app\":{fig1},\"mesh\":{{\"width\":2,\"height\":2,\"depth\":1}},\"method\":\"Exhaustive\"}}"),
        format!("{{\"kind\":\"solve\",\"app\":{fig1},{text},\"mesh\":{{\"width\":2,\"height\":2,\"depth\":1}},\"method\":\"Exhaustive\"}}"),
        format!("{{\"kind\":\"solve\",\"app\":null,{text},{mesh},\"method\":\"Exhaustive\"}}"),
        evaluate("\"mapping\":[0,1]"),
        evaluate("\"mapping\":[1,0],\"gantt\":true,\"tech\":\"0.35\",\"routing\":\"yx\""),
        evaluate(&format!("\"mapping\":[1,0],\"tech\":{paper},\"gantt\":null")),
        // Refused.
        "{}".to_owned(),
        "{\"kind\":\"bogus\"}".to_owned(),
        "{\"kind\":5}".to_owned(),
        "[]".to_owned(),
        format!("{{\"kind\":\"solve\",{text},\"method\":\"Exhaustive\"}}"),
        format!("{{\"kind\":\"solve\",{mesh},\"method\":\"Exhaustive\"}}"),
        format!("{{\"kind\":\"solve\",\"app_text\":5,{mesh},\"method\":\"Exhaustive\"}}"),
        solve("\"seed\":1"),
        solve("\"method\":\"Exhaustive\",\"sed\":5"),
        solve("\"method\":\"Exhaustive\",\"route_cache\":\"dense\""),
        solve("\"method\":\"Exhaustive\",\"fault_evals\":500"),
        solve("\"method\":\"Exhaustive\",\"gantt\":true"),
        solve("\"method\":\"Exhaustive\",\"mapping\":[0,1]"),
        solve("\"method\":\"Exhaustive\",\"seed\":1,\"seed\":2"),
        solve("\"method\":\"Bogus\""),
        solve("\"method\":{\"Random\":{\"samples\":\"x\",\"seed\":1}}"),
        solve("\"method\":{\"Random\":{\"seed\":1}}"),
        solve("\"method\":\"Exhaustive\",\"tech\":\"5nm\""),
        solve("\"method\":\"Exhaustive\",\"tech\":5"),
        solve("\"method\":\"Exhaustive\",\"tech\":{\"name\":\"x\"}"),
        solve("\"method\":\"Exhaustive\",\"strategy\":\"energy\""),
        solve("\"method\":\"Exhaustive\",\"routing\":\"zigzag\""),
        solve("\"method\":\"Exhaustive\",\"routing\":[]"),
        solve("\"method\":\"Exhaustive\",\"faults\":[[0]]"),
        solve("\"method\":\"Exhaustive\",\"faults\":\"all\""),
        solve("\"method\":\"Exhaustive\",\"pins\":5"),
        solve("\"method\":\"Exhaustive\",\"sa_config\":{}"),
        solve("\"method\":\"Exhaustive\",\"criticality\":\"yes\""),
        solve("\"method\":\"Exhaustive\",\"seed\":-1"),
        solve("\"method\":\"Exhaustive\",\"params\":{\"clock_period_ns\":1.0}"),
        format!("{{\"kind\":\"solve\",\"app_text\":\"core A\\npacket p0 A Z comp=1 bits=1\\n\",{mesh},\"method\":\"Exhaustive\"}}"),
        format!("{{\"kind\":\"solve\",\"app\":{{\"core_names\":5}},{mesh},\"method\":\"Exhaustive\"}}"),
        evaluate("\"mapping\":[0,1],\"gant\":true"),
        evaluate("\"mapping\":[0,1],\"tech\":\"0.35\",\"tech\":\"0.07\""),
        evaluate("\"mapping\":[0,1],\"method\":\"Exhaustive\""),
        evaluate("\"mapping\":[0,0]"),
        evaluate("\"mapping\":[0,9]"),
        evaluate("\"mapping\":[0,1,2]"),
        evaluate("\"mapping\":\"0,1\""),
        evaluate("\"gantt\":true"),
        evaluate("\"mapping\":[0,1],\"gantt\":1"),
        evaluate("\"mapping\":[0,1],\"routing\":\"zigzag\""),
    ];
    for json in jobs {
        rows.push((format!("wire {json}"), wire(&json)));
    }
    for mesh in [
        "{\"width\":0,\"height\":2,\"depth\":1}",
        "{\"width\":2,\"height\":2,\"depth\":0}",
        "{\"width\":4000,\"height\":4000,\"depth\":1}",
        "{\"width\":4294967296,\"height\":4294967296,\"depth\":1}",
        "{\"width\":2,\"height\":2}",
        "{\"width\":-2,\"height\":2,\"depth\":1}",
        "\"2x2\"",
        "null",
    ] {
        for kind in ["solve", "evaluate"] {
            let rest = if kind == "solve" {
                "\"method\":\"Exhaustive\""
            } else {
                "\"mapping\":[0,1]"
            };
            let json = format!("{{\"kind\":\"{kind}\",{text},\"mesh\":{mesh},{rest}}}");
            rows.push((format!("wire {json}"), wire(&json)));
        }
    }
    rows
}

/// Recorded digests, in corpus order.
const PINS: &[u64] = &[
    0x855513866bceefb7, // map []
    0x855513866bceefb7, // map ["--depth", "1"]
    0x46c8e9fab2cb221e, // map ["--depth", "2"]
    0x96df8a4607d2150d, // map ["--strategy", "cwm"]
    0x855513866bceefb7, // map ["--strategy", " CDCM "]
    0x2098c7ed8a1070a1, // map ["--tech", "paper"]
    0x6c14f6d313b1da6c, // map ["--tech", "0.35"]
    0x6c14f6d313b1da6c, // map ["--tech", "350um"]
    0x855513866bceefb7, // map ["--tech", "0.07"]
    0xbab888b1ca21dd15, // map ["--routing", "yx"]
    0x145e16fb17927e90, // map ["--routing", "torus-xy"]
    0x145e16fb17927e90, // map ["--routing", "torus"]
    0x5c259441853e11d9, // map ["--routing", "xyz"]
    0x732d823bddf02130, // map ["--routing", "torus-xyz"]
    0xbab888b1ca21dd15, // map ["--routing", " YX "]
    0x3e04e12ecb52cc54, // map ["--seed", "7"]
    0x6c0040f521e7f460, // map ["--seed", "18446744073709551615"]
    0x7ff93eb85bb621cd, // map ["--quick"]
    0xf056b78ba20c6f15, // map ["--evals", "300"]
    0xd655bc24c4eebdbd, // map ["--quick", "--evals", "50"]
    0x0fb97dc0998542d3, // map ["--evals", "0"]
    0x855513866bceefb7, // map ["--method", "sa"]
    0x7ff93eb85bb621cd, // map ["--method", "SA", "--quick"]
    0x2b735742441e9a1d, // map ["--method", "sa-multi"]
    0xa18d1e0501656c24, // map ["--method", "sa-multi", "--restarts", "3", "--evals", "90"]
    0x597af5b4eb5ad1c5, // map ["--method", "sa-multi", "--restarts", "0"]
    0xd9cfc847a62a1d97, // map ["--method", "multistart", "--restarts", "2", "--seed", "4"]
    0x8776718afb7a4e71, // map ["--method", "adaptive"]
    0xa6fab08343dbde70, // map ["--method", "adaptive", "--population", "6", "--rounds", "3"]
    0xc156f5b79e0c4edd, // map ["--method", "adaptive", "--population", "0", "--rounds", "0"]
    0xc622e1bd7411bd72, // map ["--method", "ga"]
    0xe8dde6f0f44fe0d4, // map ["--method", "ga", "--population", "10", "--crossover", "cycle"]
    0xccb03c5d5603dec8, // map ["--method", "genetic", "--crossover", "pmx", "--seed", "2"]
    0x380b2e4755e3071c, // map ["--method", "tabu"]
    0x9f73363924ddd64e, // map ["--method", "tabu", "--tenure", "5", "--neighborhood", "12"]
    0x9fcaa7a30fed657c, // map ["--method", "tabu", "--tenure", "auto", "--evals", "200"]
    0x0f97af4a6db530ea, // map ["--method", "tabu", "--tenure", "0", "--neighborhood", "0"]
    0xab0ee2e1d61c6dc4, // map ["--method", "portfolio"]
    0x33ee72a263905fad, // map ["--method", "portfolio", "--restarts", "2", "--population", "4", "--rounds",...
    0xe81e6e037ececc78, // map ["--method", "portfolio", "--tenure", "auto", "--quick"]
    0x27b7c9b32b09a2bd, // map ["--method", "exhaustive"]
    0x27b7c9b32b09a2bd, // map ["--method", "es"]
    0x27b7c9b32b09a2bd, // map ["--method", "ES"]
    0x2a4d314c1be39519, // map ["--method", "random"]
    0xcbf6f871d58a09fb, // map ["--method", "random", "--seed", "5", "--evals", "10"]
    0x8a121cb512f0b3ac, // map ["--method", "greedy"]
    0x4ebec5189eccc782, // map ["--method", "greedy", "--restarts", "3", "--seed", "1"]
    0x461267fb0e741b54, // map ["--method", "greedy", "--restarts", "0"]
    0x855513866bceefb7, // map ["--method", "sa", "--restarts", "3", "--tenure", "2"]
    0xe5d26764afc0197c, // map ["--pin", "c0:t1"]
    0x31a96b3dfdb420c4, // map ["--pin", "c0:t3, c1:0"]
    0xfbff0e21962f1c4a, // map ["--method", "es", "--pin", "c0:t1,c2:t3"]
    0x31b792bfcfbe4e20, // map ["--method", "tabu", "--pin", "c0:t0"]
    0x140f3002d74165dc, // map ["--robustness-report"]
    0xce5ddce51c54e2d2, // map ["--faults", "2"]
    0xe93e9bb7260a51ce, // map ["--faults", "1", "--fault-kind", "tsv"]
    0xa140beb97d9b7394, // map ["--faults", "2", "--fault-kind", "region"]
    0xb6e2f95ce9422c39, // map ["--faults", "1", "--fault-kind", "links"]
    0x855513866bceefb7, // map ["--fault-kind", "region"]
    0x855513866bceefb7, // map ["--fault-seed", "4"]
    0x6d9ee1a479c688aa, // map ["--faults", "2", "--fault-seed", "9", "--fault-evals", "500"]
    0x8e70a8ef0e723350, // map ["--fault-evals", "500"]
    0x8c58e25bf006dc2f, // map ["--depth", "1", "--strategy", "cwm", "--tech", "0.35", "--routing", "yx", "-...
    0x236e4f79020645b2, // map ["--mesh", "3*2"]
    0x5f9041cdf40ed5ed, // map ["--mesh", "0x2"]
    0xa8ec34b3c61242a1, // map ["--mesh", "2x2x2x2"]
    0x805823e4a2fcb294, // map ["--mesh", "ax2"]
    0xc31f4f225390290f, // map ["--mesh", "2x2x2", "--depth", "2"]
    0x5f9041cdf40ed5ed, // map ["--depth", "0"]
    0xd5f548cca3ce34d5, // map ["--depth", "x"]
    0x6e62453ff578ea4b, // map ["--mesh", "4000x4000"]
    0xf74d1499bd298e5f, // map ["--mesh", "4294967296x4294967296"]
    0x9ae236bd21924c11, // map ["--mesh", "4294967296x1x4294967296"]
    0x4e46433bee1c5610, // map ["--mesh", "256x256", "--depth", "2"]
    0x5a106456a43366a0, // map ["--mesh", "3x1"]
    0xac0c2ad3e5947b09, // map ["--strategy", "energy"]
    0xb119b5eb29caab39, // map ["--tech", "5nm"]
    0x8fedeff8d6883a69, // map ["--tech", ""]
    0xe283d46a684f7895, // map ["--routing", "zigzag"]
    0x522835e8bedcb207, // map ["--seed", "-1"]
    0xdcebaddc1c7b1c0b, // map ["--seed", "x"]
    0xadaaa3253ca98241, // map ["--evals", "x"]
    0xe597ce31ec07b0c9, // map ["--evals", "-5"]
    0xe9d874d74be344ae, // map ["--method", "bogus"]
    0x47be928a8c62295e, // map ["--method", "Sa"]
    0xcb20c204422cf4f4, // map ["--method", "sa-multi", "--restarts", "x"]
    0x9dbe1bfcf51cd811, // map ["--method", "adaptive", "--population", "x"]
    0xc6f489e3eed3803b, // map ["--method", "adaptive", "--rounds", "-1"]
    0x9b0b295a39ad4749, // map ["--method", "ga", "--crossover", "uniform"]
    0x2307b841360a661d, // map ["--method", "tabu", "--tenure", "sometimes"]
    0x7e02670df67c3f44, // map ["--method", "tabu", "--neighborhood", "x"]
    0xcb20c204422cf4f4, // map ["--method", "portfolio", "--restarts", "x"]
    0xcb20c204422cf4f4, // map ["--method", "greedy", "--restarts", "x"]
    0xfb655b888f8bb7d2, // map ["--pin", "c0"]
    0x4d62fc05b612c884, // map ["--pin", "c0:t0,c1:t0"]
    0x228491b38ed16b94, // map ["--pin", "cx:t0"]
    0xc289fc93a761c735, // map ["--pin", "c0:tx"]
    0x24674b096e856d30, // map ["--pin", "c9:t0"]
    0x096b42d323137b96, // map ["--pin", "c0:t9"]
    0x7faaaef8924cca69, // map ["--faults", "lots"]
    0xf39e78a5ba1bdf71, // map ["--faults", "2", "--fault-kind", "meteor"]
    0x855513866bceefb7, // map ["--fault-seed", "x"]
    0x66089b2889f4d676, // map ["--fault-evals", "x"]
    0xc797bdef364ddcca, // map ["--mesh", "2x2"]
    0x527486a8e656bb0a, // map ["--app", "fig1.json"]
    0x5da70592f3a91fc7, // map ["--app", "/nonexistent/app.json", "--mesh", "2x2"]
    0x09f592e1a13a89cb, // map ["--app", "broken.json", "--mesh", "2x2"]
    0x7120a3559b76bdf2, // map ["--app", "pair.cdcg", "--mesh", "2x1"]
    0xf149d4f50730a56e, // map ["--app", "pair.cdcg", "--mesh", "2x1", "--method", "es"]
    0x4ba0e4f4d13b025c, // explore build sa
    0x256929c69d5d6b52, // explore build sa-multi
    0xc489fe109f383a86, // explore build ga
    0xd0cde2eb54ad4b47, // explore build tabu
    0xae74a5a27c92abaf, // explore build portfolio
    0x3eba7462bf1914d2, // explore build adaptive
    0x838197e2cecba53d, // explore build es
    0x2d3bc819a8a53c10, // explore build random
    0x5a33b993cbcab0b1, // explore build greedy
    0x98e5d57f0a0a2a8a, // submit []
    0x725f682d24f3d913, // submit ["--priority", "high"]
    0x119b99b9f7f5e2e5, // submit ["--priority", " LOW "]
    0xad47f96ec79693bb, // submit ["--method", "tabu", "--tenure", "4", "--seed", "2"]
    0xf5b4e038cd05e33d, // submit ["--method", "es", "--pin", "c0:t1"]
    0x65caf76b817e52ab, // submit ["--strategy", "cwm", "--tech", "0.35", "--routing", "yx", "--seed", "3", ...
    0x98e5d57f0a0a2a8a, // submit ["--gantt"]
    0x6efd9e42ee087349, // submit ["--mapping", "1,0,3,2"]
    0x6e5779f338d0d95a, // submit ["--mapping", "1, 0, 3, 2", "--tech", "paper", "--gantt"]
    0xeab35a0bfbdf6813, // submit ["--mapping", "1,0,3,2", "--routing", "yx", "--depth", "1"]
    0x0df4824b43c03bb2, // submit ["--mapping", "0,1,2,3", "--depth", "2", "--routing", "xyz"]
    0x6efd9e42ee087349, // submit ["--mapping", "1,0,3,2", "--method", "es", "--seed", "4"]
    0x4d62fd05b612ca37, // submit ["--mapping", "1,1,3,2"]
    0x096b42d323137b96, // submit ["--mapping", "9,0,1,2"]
    0xd85b098a983966b3, // submit ["--mapping", "1,0"]
    0x42854738412f85b9, // submit ["--mapping", "a,b"]
    0x8afdf10733ce5a80, // submit ["--mapping", "0,1,2,3,4"]
    0xb119b5eb29caab39, // submit ["--mapping", "1,0,3,2", "--tech", "5nm"]
    0x6e62453ff578ea4b, // submit ["--mapping", "1,0,3,2", "--mesh", "4000x4000"]
    0x4b8cdb2163601b8d, // submit ["--faults", "2"]
    0xdcda0ab7efe7d93c, // submit ["--fault-evals", "5"]
    0xb8b3465e30650142, // submit ["--mapingg", "1,0,3,2"]
    0xcc58f4ab1b8092c6, // submit ["--priority", "urgent"]
    0xda4d35207892315d, // submit ["--seed", "1", "--seed", "2"]
    0x1ceea33241c17590, // run ["evaluate", "--app", "fig1.json", "--mesh", "2x2", "--mapping", "1,0,3,2", "...
    0x4d62fd05b612ca37, // run ["evaluate", "--app", "fig1.json", "--mesh", "2x2", "--mapping", "1,1,3,2"]
    0x6e62453ff578ea4b, // run ["evaluate", "--app", "fig1.json", "--mesh", "4000x4000", "--mapping", "1,0,3...
    0xfff30755d0800d9d, // run ["evaluate", "--app", "fig1.json", "--mesh", "2x2"]
    0xd85b098a983966b3, // run ["evaluate", "--app", "fig1.json", "--mesh", "2x2", "--mapping", "1,0"]
    0xe283d46a684f7895, // run ["evaluate", "--app", "fig1.json", "--mesh", "2x2", "--mapping", "1,0,3,2", "...
    0x35fe7e1e1ab98921, // run ["explore", "--method", "sa"]
    0x265c21e9cf66873f, // run ["explore", "--trace", "x.jsonl"]
    0xe9d874d74be344ae, // run ["explore", "--app", "fig1.json", "--mesh", "2x2", "--methods", "bogus"]
    0x3126e682a464aa75, // run ["map", "--app", "fig1.json", "--mesh", "2x2", "--route-cache", "dense"]
    0x2bfe6539d1b41725, // run ["map", "--seed", "1", "--seed", "2"]
    0x3f739c2ca28b914d, // run ["map", "--app", "fig1.json", "--evlas", "5"]
    0x72756e7ba68c9fb6, // run ["map", "--app", "fig1.json", "--mapping", "0,1,2,3"]
    0x6e40c93d02051963, // run ["solve", "--app", "fig1.json", "--gantt"]
    0xcd399f7c7c7bf193, // encoded solve es
    0x351c90979a48f4cf, // encoded solve sa
    0xc5925cb3fd77496c, // encoded solve sa-multi
    0x60d8edb8fd3b0a7c, // encoded solve random
    0x857824495055e211, // encoded solve random
    0x40a5f9622791fa8a, // encoded solve greedy
    0x6e28fad9e4503968, // encoded solve greedy
    0x692e128957c00a09, // encoded solve adaptive
    0xf042c0bb32664a1f, // encoded solve ga
    0xd2dfd25d6a5acebb, // encoded solve tabu
    0x70ac30d247698cf0, // encoded solve portfolio
    0x1ee0d53484f84903, // encoded solve, every field set
    0x35955d95bc791ef8, // encoded solve, empty pin set
    0xaade2cb6641a2c74, // encoded evaluate
    0x773d5488675d015b, // encoded evaluate, every field set
    0x90aa72bcf7d8f318, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x92a930c9a6b0426e, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x92a930c9a6b0426e, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x90aa72bcf7d8f318, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x90aa72bcf7d8f318, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xc22eb6451d5cf394, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x34cb5c1548f9dde4, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x90aa72bcf7d8f318, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x2bea129513e6c6cf, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x48b9dd3cc0bc511e, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xde999acaf00b5614, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xcd399f7c7c7bf193, // wire {"kind":"solve","app":{"core_names":["A","B","E","F"],"packets":[{"src":0,"d...
    0xcd399f7c7c7bf193, // wire {"kind":"solve","app":{"core_names":["A","B","E","F"],"packets":[{"src":0,"d...
    0x90aa72bcf7d8f318, // wire {"kind":"solve","app":null,"app_text":"core A\ncore B\npacket p0 A B comp=6 ...
    0xdd1cde94e6a2ca8b, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0x01a4227b6129ea93, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0xf24e1e49268e18d9, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0x3211a88f6f0ccb2d, // wire {}
    0xb81d6c6c22494761, // wire {"kind":"bogus"}
    0x3211a88f6f0ccb2d, // wire {"kind":5}
    0x3211a88f6f0ccb2d, // wire []
    0x116bb2b2e1cb1628, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x9b374d034267080e, // wire {"kind":"solve","mesh":{"width":2,"height":1,"depth":1},"method":"Exhaustive"}
    0x9b374d034267080e, // wire {"kind":"solve","app_text":5,"mesh":{"width":2,"height":1,"depth":1},"method...
    0x68359bb3a52019ec, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xb664af6a0c3f2106, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x4985e80473dba817, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x8ad70504d3567e1e, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x8b8b681e4d6b0633, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x3209d9081fc78a82, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xcedb45a9a25234bd, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xffc5c115a43ca743, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xf949930c231bb9ea, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xd4e5ceab2196b33a, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xb119b5eb29caab39, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x7762e82719e913b5, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x1dd47aa5880233dc, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xac0c2ad3e5947b09, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xe283d46a684f7895, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xf56afbc87906eff9, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x7ed438305d514dda, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x72d3689a9feb5407, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x773a259e96fff674, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xb881a440a8fd88ae, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xa1f3cc410c886558, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x457023a5d7794bdc, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xee84abaabe4ffc84, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xb6cf22f46afd034c, // wire {"kind":"solve","app_text":"core A\npacket p0 A Z comp=1 bits=1\n","mesh":{"...
    0xe2bd693fa8e56162, // wire {"kind":"solve","app":{"core_names":5},"mesh":{"width":2,"height":1,"depth":...
    0xa6958b3fbd62e035, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0x571dd4e55b55745a, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0xbb2239a5335db1ed, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0x4d62fc05b612c884, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0x096b42d323137b96, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0xd06db35557e96b6c, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0xecd8d3e44141a92e, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0x2286482f50e9609f, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0x5d321ceec41487a8, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0xe283d46a684f7895, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0xb059120505d1655d, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xb059120505d1655d, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0xb059120505d1655d, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xb059120505d1655d, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0x6e62453ff578ea4b, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x6e62453ff578ea4b, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0xf74d1499bd298e5f, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xf74d1499bd298e5f, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0x043939beaa69d7b8, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x043939beaa69d7b8, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0x4e0cbafe9682e8d7, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0x4e0cbafe9682e8d7, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0xa542a34582c82873, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xa542a34582c82873, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
    0xa542a34582c82873, // wire {"kind":"solve","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\n",...
    0xa542a34582c82873, // wire {"kind":"evaluate","app_text":"core A\ncore B\npacket p0 A B comp=6 bits=15\...
];

#[test]
fn both_surfaces_decode_the_corpus_as_recorded() {
    let files = Files::new();
    let mut rows = cli_rows(&files);
    rows.extend(wire_rows());
    let got: Vec<u64> = rows
        .iter()
        .map(|(_, decoded)| fnv1a64(decoded.as_bytes()))
        .collect();
    let table: String = rows
        .iter()
        .zip(&got)
        .map(|((label, decoded), digest)| {
            format!("    0x{digest:016x}, // {label}\n    //   {decoded}\n")
        })
        .collect();
    assert_eq!(got.len(), PINS.len(), "corpus size; decoded:\n{table}");
    for (i, ((label, decoded), (&got, &want))) in rows.iter().zip(got.iter().zip(PINS)).enumerate()
    {
        assert_eq!(got, want, "entry {i}, {label}: {decoded}");
    }
}
