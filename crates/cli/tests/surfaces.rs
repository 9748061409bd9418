//! The CLI flags and the socket protocol are two surfaces of one request
//! decoder. Every name one surface accepts, the other accepts with the
//! same value; every name, key or mesh one refuses, the other refuses,
//! with the same text where both surfaces parse the same thing.

use noc_cli::{build_solve_request, run, Options};
use noc_service::names::priority as parse_priority;
use noc_service::protocol::{encode_submit, handle_line, parse_job};
use noc_service::{
    JobRequest, MappingService, Priority, ServiceConfig, ServiceEvent, SolveRequest,
};
use serde::Value;
use std::path::PathBuf;
use std::time::Duration;

fn strs(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// The paper's Figure 1 application in a temporary JSON file, removed
/// on drop.
struct App(PathBuf);

impl App {
    fn new(tag: &str) -> Self {
        let app = noc_apps::paper_example::figure1_cdcg();
        let path =
            std::env::temp_dir().join(format!("noc-surfaces-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&app).expect("serializes")).expect("write");
        Self(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf8 path")
    }
}

impl Drop for App {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The solve request `noc-cli map --app APP --mesh 2x2 FLAG VALUE` builds.
fn cli_solve(app: &App, flag: &str, value: &str) -> Result<SolveRequest, String> {
    let options = Options::parse(&strs(&["--app", app.path(), "--mesh", "2x2", flag, value]))
        .expect("parses");
    build_solve_request(&options).map_err(|e| e.to_string())
}

/// `value` at `key` of the object `map`, replacing what is there.
fn set(map: &mut Value, key: &str, value: Value) {
    let Value::Map(fields) = map else {
        panic!("not an object: {map:?}")
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = value,
        None => fields.push((key.to_owned(), value)),
    }
}

/// The `"job"` object of the submit line of an exhaustive solve request.
fn wire_job(app: &App) -> Value {
    let request = cli_solve(app, "--method", "es").expect("the request builds");
    let line = encode_submit(&JobRequest::Solve(Box::new(request)), Priority::Normal);
    let envelope = serde_json::parse(&line).expect("the encoder writes JSON");
    envelope
        .get_field("job")
        .expect("submit carries a job")
        .clone()
}

/// The solve request the socket decoder makes of `job` with `key` set
/// to the string `value`.
fn wire_solve(job: &Value, key: &str, value: &str) -> Result<SolveRequest, String> {
    let mut job = job.clone();
    set(&mut job, key, Value::Str(value.to_owned()));
    match parse_job(&job)? {
        JobRequest::Solve(request) => Ok(*request),
        JobRequest::Evaluate(_) => panic!("a solve job decoded as an evaluate job"),
    }
}

#[test]
fn every_name_either_surface_accepts_means_the_same_on_both() {
    let app = App::new("names");
    let job = wire_job(&app);
    let techs = [
        "paper",
        "paper-example",
        "paperum",
        "0.35",
        "350",
        "0.35um",
        "350um",
        "0.07",
        "70",
        "0.07um",
        "70um",
        " 0.35 ",
        "PAPER",
    ];
    for spelling in techs {
        let cli = cli_solve(&app, "--tech", spelling).expect(spelling);
        let wire = wire_solve(&job, "tech", spelling).expect(spelling);
        assert_eq!(cli.tech, wire.tech, "tech `{spelling}`");
    }
    for spelling in ["cwm", "CWM", "Cwm", "cdcm", "CDCM", "cDcM", " cwm "] {
        let cli = cli_solve(&app, "--strategy", spelling).expect(spelling);
        let wire = wire_solve(&job, "strategy", spelling).expect(spelling);
        assert_eq!(cli.strategy, wire.strategy, "strategy `{spelling}`");
    }
    let routings = [
        "xy",
        "XY",
        "yx",
        "torus-xy",
        "torus",
        "Torus-XY",
        "xyz",
        "torus-xyz",
        " yx ",
    ];
    for spelling in routings {
        let cli = cli_solve(&app, "--routing", spelling).expect(spelling);
        let wire = wire_solve(&job, "routing", spelling).expect(spelling);
        assert_eq!(cli.routing, wire.routing, "routing `{spelling}`");
    }

    // Priority lives on the submit envelope: the class the service
    // announces for the submitted job is the class the CLI parses.
    let service = MappingService::start(ServiceConfig::new(1));
    let handle = service.handle();
    let events = handle.subscribe();
    for spelling in ["high", "normal", "low", "HIGH", " Low ", "Normal"] {
        let cli = parse_priority(spelling).expect(spelling);
        let mut envelope = Value::Map(vec![
            ("op".to_owned(), Value::Str("submit".to_owned())),
            ("job".to_owned(), job.clone()),
        ]);
        set(&mut envelope, "priority", Value::Str(spelling.to_owned()));
        let line = serde_json::to_string(&envelope).expect("serializes");
        let reply = handle_line(&handle, &line);
        assert!(
            reply.line.contains("\"ok\":true"),
            "{spelling}: {}",
            reply.line
        );
        let announced = loop {
            match events.recv_timeout(Duration::from_secs(30)) {
                Ok(ServiceEvent::Submitted { priority, .. }) => break priority,
                Ok(_) => {}
                Err(e) => panic!("no submit event for `{spelling}`: {e:?}"),
            }
        };
        assert_eq!(announced, cli.name(), "priority `{spelling}`");
    }
    service.wait_all();
}

#[test]
fn a_bad_name_gets_one_error_text_on_both_surfaces() {
    let app = App::new("bad-names");
    let job = wire_job(&app);
    for (flag, key, spelling) in [
        ("--tech", "tech", "5nm"),
        ("--tech", "tech", "0.13"),
        ("--tech", "tech", ""),
        ("--strategy", "strategy", "energy"),
        ("--strategy", "strategy", "cwmm"),
        ("--routing", "routing", "zigzag"),
        ("--routing", "routing", "xy-torus"),
    ] {
        let cli = cli_solve(&app, flag, spelling).unwrap_err();
        let wire = wire_solve(&job, key, spelling).unwrap_err();
        assert_eq!(cli, wire, "{key} `{spelling}`");
        assert!(cli.starts_with("unknown "), "{cli}");
    }

    let service = MappingService::start(ServiceConfig::new(1));
    let handle = service.handle();
    for spelling in ["urgent", "hi", ""] {
        let cli = parse_priority(spelling).unwrap_err().to_string();
        let line = format!("{{\"op\":\"submit\",\"priority\":\"{spelling}\",\"job\":{{}}}}");
        let reply = handle_line(&handle, &line);
        let error = serde_json::to_string(&Value::Str(cli.clone())).expect("serializes");
        assert!(reply.line.contains(&error), "{cli} vs {}", reply.line);
    }
}

#[test]
fn a_misspelled_key_is_refused_on_every_subcommand_and_wire_level() {
    let app = App::new("keys");
    let app = app.path();
    // One misspelled option per subcommand, after options it does read;
    // the refusal comes before the subcommand does anything.
    for (args, key, nearest) in [
        (
            &["generate", "--cores", "4", "--pakets", "9"][..],
            "--pakets",
            "--packets",
        ),
        (&["info", "--app", app, "--ap", "x"], "--ap", "--app"),
        (
            &["map", "--app", app, "--mesh", "2x2", "--sede", "1"],
            "--sede",
            "--seed",
        ),
        (
            &["solve", "--app", app, "--evlas", "5"],
            "--evlas",
            "--evals",
        ),
        // No request names a route tier any more.
        (
            &[
                "map",
                "--app",
                app,
                "--mesh",
                "2x2",
                "--route-cache",
                "dense",
            ],
            "--route-cache",
            "--tech",
        ),
        (
            &["evaluate", "--app", app, "--mapingg", "0"],
            "--mapingg",
            "--mapping",
        ),
        (&["explore", "--method", "sa"], "--method", "--methods"),
        (&["bench", "--jobz", "2"], "--jobz", "--jobs"),
        (
            &["serve", "--sockt", "/nonexistent/x.sock"],
            "--sockt",
            "--socket",
        ),
        (
            &[
                "submit",
                "--socket",
                "/nonexistent/x.sock",
                "--priorty",
                "low",
            ],
            "--priorty",
            "--priority",
        ),
        (
            &["metrics", "--socket", "/nonexistent/x.sock", "--jsn"],
            "--jsn",
            "--json",
        ),
        (
            &["watch", "--socket", "/nonexistent/x.sock", "--cont", "1"],
            "--cont",
            "--count",
        ),
        (&["suite", "--rw", "1"], "--rw", "--row"),
        (&["dot", "--app", app, "--grap", "cwg"], "--grap", "--graph"),
    ] {
        let err = run(&strs(args)).unwrap_err().to_string();
        let want = format!(
            "unknown option `{key}` for `noc-cli {}`; did you mean `{nearest}`?",
            args[0]
        );
        assert_eq!(err, want, "{args:?}");
    }

    // One misspelled key per wire level: the request line, a solve job
    // and an evaluate job.
    let service = MappingService::start(ServiceConfig::new(1));
    let handle = service.handle();
    let solve = "{\"kind\":\"solve\",\"app_text\":\"core A\\ncore B\\npacket p0 A B comp=6 bits=15\\n\",\"mesh\":{\"width\":2,\"height\":1,\"depth\":1},\"method\":\"Exhaustive\"";
    let evaluate = "{\"kind\":\"evaluate\",\"app_text\":\"core A\\ncore B\\npacket p0 A B comp=6 bits=15\\n\",\"mesh\":{\"width\":2,\"height\":1,\"depth\":1},\"mapping\":[0,1]";
    for (line, want) in [
        (
            format!("{{\"op\":\"submit\",\"prio\":\"low\",\"job\":{solve}}}}}"),
            "unknown key `prio` in a request; did you mean `priority`?",
        ),
        (
            format!("{{\"op\":\"submit\",\"job\":{solve},\"sed\":5}}}}"),
            "unknown key `sed` in a solve job; did you mean `seed`?",
        ),
        (
            format!("{{\"op\":\"submit\",\"job\":{evaluate},\"gant\":true}}}}"),
            "unknown key `gant` in an evaluate job; did you mean `gantt`?",
        ),
        (
            format!("{{\"op\":\"submit\",\"job\":{solve},\"route_cache\":\"dense\"}}}}"),
            "unknown key `route_cache` in a solve job; did you mean `tech`?",
        ),
        (
            format!("{{\"op\":\"submit\",\"job\":{solve},\"fault_evals\":500}}}}"),
            "unknown key `fault_evals` in a solve job; did you mean `faults`?",
        ),
    ] {
        let reply = handle_line(&handle, &line);
        assert!(
            reply.line.contains("\"ok\":false"),
            "{line}: {}",
            reply.line
        );
        assert!(reply.line.contains(want), "{line}: {}", reply.line);
    }
    // The same lines without the misspelling are accepted.
    for line in [
        format!("{{\"op\":\"submit\",\"priority\":\"low\",\"job\":{solve}}}}}"),
        format!("{{\"op\":\"submit\",\"job\":{solve},\"seed\":5}}}}"),
        format!("{{\"op\":\"submit\",\"job\":{evaluate},\"gantt\":true}}}}"),
    ] {
        let reply = handle_line(&handle, &line);
        assert!(reply.line.contains("\"ok\":true"), "{line}: {}", reply.line);
    }
    service.wait_all();
}

#[test]
fn a_repeated_key_is_refused_on_both_surfaces() {
    let app = App::new("repeats");
    let app = app.path();
    // A repeated option is refused, not resolved to one of its values.
    for (args, key) in [
        (
            &[
                "map", "--app", app, "--mesh", "2x2", "--seed", "1", "--seed", "2",
            ][..],
            "--seed",
        ),
        (
            &[
                "evaluate",
                "--app",
                app,
                "--mesh",
                "2x2",
                "--mapping",
                "1,0,3,2",
                "--tech",
                "0.35",
                "--tech",
                "0.07",
            ],
            "--tech",
        ),
        (
            &[
                "submit",
                "--socket",
                "/nonexistent/x.sock",
                "--priority",
                "low",
                "--wait",
                "--priority",
                "high",
            ],
            "--priority",
        ),
    ] {
        let err = run(&strs(args)).unwrap_err().to_string();
        let want = format!("repeated option `{key}` for `noc-cli {}`", args[0]);
        assert_eq!(err, want, "{args:?}");
    }

    // The same holds for a repeated key, at each wire level.
    let service = MappingService::start(ServiceConfig::new(1));
    let handle = service.handle();
    let solve = "{\"kind\":\"solve\",\"app_text\":\"core A\\ncore B\\npacket p0 A B comp=6 bits=15\\n\",\"mesh\":{\"width\":2,\"height\":1,\"depth\":1},\"method\":\"Exhaustive\"";
    let evaluate = "{\"kind\":\"evaluate\",\"app_text\":\"core A\\ncore B\\npacket p0 A B comp=6 bits=15\\n\",\"mesh\":{\"width\":2,\"height\":1,\"depth\":1},\"mapping\":[0,1]";
    for (line, want) in [
        (
            format!("{{\"op\":\"submit\",\"op\":\"submit\",\"job\":{solve}}}}}"),
            "repeated key `op` in a request",
        ),
        (
            format!("{{\"op\":\"submit\",\"job\":{solve},\"seed\":1,\"seed\":2}}}}"),
            "repeated key `seed` in a solve job",
        ),
        (
            format!(
                "{{\"op\":\"submit\",\"job\":{evaluate},\"tech\":\"0.35\",\"tech\":\"0.07\"}}}}"
            ),
            "repeated key `tech` in an evaluate job",
        ),
    ] {
        let reply = handle_line(&handle, &line);
        assert!(
            reply.line.contains("\"ok\":false"),
            "{line}: {}",
            reply.line
        );
        assert!(reply.line.contains(want), "{line}: {}", reply.line);
    }
    service.wait_all();
}

#[test]
fn misspelled_and_unread_flags_no_longer_run_the_default() {
    let app = App::new("repro");
    // Before, this ran SA on the default 2,000,000-evaluation budget.
    let err = run(&strs(&[
        "map",
        "--app",
        app.path(),
        "--mesh",
        "2x2",
        "--evlas",
        "5",
        "--methd",
        "tabu",
    ]))
    .unwrap_err()
    .to_string();
    assert_eq!(
        err,
        "unknown option `--evlas` for `noc-cli map`; did you mean `--evals`?"
    );
    // `evaluate` reads no method.
    let err = run(&strs(&[
        "evaluate",
        "--app",
        app.path(),
        "--mesh",
        "2x2",
        "--mapping",
        "1,0,3,2",
        "--method",
        "tabu",
    ]))
    .unwrap_err()
    .to_string();
    assert!(
        err.starts_with("unknown option `--method` for `noc-cli evaluate`"),
        "{err}"
    );
}

#[test]
fn meshes_above_the_tile_limit_are_refused_before_anything_is_sized() {
    let app = App::new("mesh");
    let limit = "exceeds the limit of 65536 tiles";
    for (command, extra) in [
        ("map", &[][..]),
        ("evaluate", &["--mapping", "1,0,3,2"][..]),
    ] {
        for mesh in [
            "4294967296x4294967296",
            "4000x4000",
            "4294967296x1x4294967296",
        ] {
            let mut args = vec![command, "--app", app.path(), "--mesh", mesh];
            args.extend_from_slice(extra);
            let err = run(&strs(&args)).unwrap_err().to_string();
            assert!(err.contains(limit), "{command} --mesh {mesh}: {err}");
        }
        // A planar mesh within the limit, stacked past it.
        let mut args = vec![
            command,
            "--app",
            app.path(),
            "--mesh",
            "256x256",
            "--depth",
            "2",
        ];
        args.extend_from_slice(extra);
        let err = run(&strs(&args)).unwrap_err().to_string();
        assert_eq!(err, format!("mesh 256x256x2 {limit}"));
    }
    let err = run(&strs(&["bench", "--mesh", "4294967296x4294967296"]))
        .unwrap_err()
        .to_string();
    assert!(err.contains(limit), "{err}");
}

/// Every option `submit` accepts reaches the server: the solve request
/// it builds survives `encode_submit` and `parse_job` unchanged. The
/// wire carries no fault experiment, so `submit` refuses its options
/// instead of dropping them.
#[test]
fn every_option_submit_accepts_survives_the_wire() {
    let app = App::new("submit");
    // Each solve option with a value other than its default.
    let groups: [&[&str]; 18] = [
        &["--depth", "1"],
        &["--strategy", "cwm"],
        &["--tech", "0.35"],
        &["--routing", "yx"],
        &["--seed", "7"],
        &["--quick"],
        &["--evals", "300"],
        &["--method", "sa-multi", "--restarts", "3"],
        &["--method", "adaptive", "--population", "6", "--rounds", "3"],
        &["--method", "ga", "--crossover", "cycle"],
        &["--method", "tabu", "--tenure", "5", "--neighborhood", "12"],
        &["--method", "es", "--pin", "c0:t1"],
        &["--fault-evals", "500"],
        &["--robustness-report"],
        &["--faults", "2"],
        &["--faults", "1", "--fault-kind", "tsv"],
        &["--fault-kind", "region"],
        &["--fault-seed", "4"],
    ];
    let mut refused = Vec::new();
    for group in groups {
        let mut args = vec!["--app", app.path(), "--mesh", "2x2"];
        args.extend_from_slice(group);
        let mut submit = vec!["submit", "--socket", "/nonexistent/x.sock"];
        submit.extend_from_slice(&args);
        let err = run(&strs(&submit)).unwrap_err().to_string();
        if err.starts_with("unknown option") {
            refused.push(group[0]);
            continue;
        }
        let options = Options::parse(&strs(&args)).expect("parses");
        let built = build_solve_request(&options).expect("the request builds");
        let line = encode_submit(
            &JobRequest::Solve(Box::new(built.clone())),
            Priority::Normal,
        );
        let envelope = serde_json::parse(&line).expect("the encoder writes JSON");
        let job = envelope.get_field("job").expect("submit carries a job");
        let JobRequest::Solve(decoded) = parse_job(job).expect("the decoder reads it") else {
            panic!("a solve job decoded as an evaluate job");
        };
        assert_eq!(
            format!("{decoded:?}"),
            format!("{built:?}"),
            "{group:?} changed on the wire"
        );
    }
    assert_eq!(
        refused,
        [
            "--fault-evals",
            "--faults",
            "--faults",
            "--fault-kind",
            "--fault-seed"
        ]
    );
}

/// The `state` of job `id` once it is terminal, and the reply that
/// says so. Panics if the job is still pending or running after 60 s, so
/// a worker that died fails the caller instead of hanging it.
fn settled(handle: &noc_service::ServiceHandle, id: u64) -> (String, String) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let status = format!("{{\"op\":\"status\",\"job\":{id}}}");
    loop {
        let reply = handle_line(handle, &status).line;
        let value = serde_json::parse(&reply).expect("a JSON reply");
        let state = match value.get_field("state") {
            Some(Value::Str(state)) => state.clone(),
            _ => panic!("no state in {reply}"),
        };
        if !matches!(state.as_str(), "pending" | "running") {
            return (state, reply);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} is still {state} after 60 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A method whose budget leaves nothing to search (greedy with zero
/// restarts, random with zero samples) fails its job with a typed error
/// on both surfaces, and the worker that ran it runs the next job.
#[test]
fn empty_search_budgets_fail_the_job_and_spare_the_worker() {
    let app = App::new("empty-budget");
    let args = strs(&[
        "map",
        "--app",
        app.path(),
        "--mesh",
        "2x2",
        "--method",
        "greedy",
        "--restarts",
        "0",
    ]);
    let (sender, receiver) = std::sync::mpsc::channel();
    std::thread::spawn(move || sender.send(run(&args).map_err(|e| e.to_string())));
    let cli = receiver
        .recv_timeout(Duration::from_secs(60))
        .expect("`map` answers within 60 s");
    assert_eq!(
        cli.unwrap_err(),
        "method `greedy` needs `restarts` of at least 1"
    );

    let service = MappingService::start(ServiceConfig::new(1));
    let handle = service.handle();
    let job = |method: &str| {
        format!(
            "{{\"op\":\"submit\",\"job\":{{\"kind\":\"solve\",\"app_text\":\"core A\\ncore B\\npacket p0 A B comp=6 bits=15\\n\",\"mesh\":{{\"width\":2,\"height\":2,\"depth\":1}},\"method\":{method}}}}}"
        )
    };
    for (id, method, want) in [
        (
            0,
            "{\"Greedy\":{\"restarts\":0,\"seed\":1}}",
            "\"error\":\"method `greedy` needs `restarts` of at least 1\"",
        ),
        (
            1,
            "{\"Random\":{\"samples\":0,\"seed\":1}}",
            "\"error\":\"method `random` needs `samples` of at least 1\"",
        ),
        (2, "\"Exhaustive\"", "\"state\":\"done\""),
    ] {
        let reply = handle_line(&handle, &job(method));
        assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
        let (state, reply) = settled(&handle, id);
        assert!(reply.contains(want), "{method}: {state}: {reply}");
    }
}
