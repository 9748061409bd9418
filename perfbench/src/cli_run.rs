//! The CLI workloads (`table1-small`, `large-mesh`): closed loop, one
//! client, each request one `noc-cli map` process.

use crate::check::{self, check_digest, Digest, MapOutput};
use crate::config::{self, Workload};
use crate::inputs::{self, Instance, Invocation};
use crate::proc;
use crate::report::Report;
use crate::stats;
use crate::trace::{Layer, Tracer};
use crate::traced::{self, Acc};
use noc_cli::Options;
use noc_service::JobRequest;
use std::path::Path;
use std::time::Instant;

/// One pass over the workload's invocations.
struct Pass {
    /// Spawn of the first to exit of the last, seconds.
    wall: f64,
    /// Per invocation: spawn to exit, seconds.
    latencies: Vec<f64>,
    /// Per invocation: the parsed output, `None` when it failed.
    outputs: Vec<Option<MapOutput>>,
    /// Largest peak RSS of the pass's processes, KiB.
    peak_rss_kb: u64,
}

impl Pass {
    fn digest(&self) -> Digest {
        let mut digest = Digest::new();
        for out in self.outputs.iter().flatten() {
            digest.add(&out.tiles, &out.objective, &out.texec, out.evaluations);
        }
        digest
    }
}

fn run_pass(
    cli: &Path,
    instances: &[Instance],
    invocations: &[Invocation],
    setup: bool,
    report: &mut Report,
) -> std::io::Result<Pass> {
    let mut latencies = Vec::new();
    let mut outputs = Vec::new();
    let mut peak_rss_kb = 0;
    let start = Instant::now();
    for inv in invocations {
        let instance = &instances[inv.instance];
        let evals = if setup { 1 } else { inv.evals };
        let run = proc::run(cli, &inv.args(instance, evals))?;
        latencies.push(run.wall.as_secs_f64());
        peak_rss_kb = peak_rss_kb.max(run.peak_rss_kb);
        let parsed = run.success.then(|| check::parse_map(&run.stdout)).flatten();
        report.operation(match &parsed {
            Some(_) => Ok(()),
            None => Err(format!(
                "{} --method {} --seed {}: exit ok={} stderr={}",
                instance.name,
                inv.method,
                inv.seed,
                run.success,
                run.stderr.trim()
            )),
        });
        outputs.push(parsed);
    }
    Ok(Pass {
        wall: start.elapsed().as_secs_f64(),
        latencies,
        outputs,
        peak_rss_kb,
    })
}

/// Re-evaluates every result of `pass` with the full model and checks
/// the printed objective and texec.
fn check_results(pass: &Pass, instances: &[Instance], invs: &[Invocation], report: &mut Report) {
    for (out, inv) in pass.outputs.iter().zip(invs) {
        if let Some(out) = out {
            report.operation(check::check_map_result(&instances[inv.instance], out));
        }
    }
}

fn params(workload: Workload, seed: u64, invs: &[Invocation], instances: &[Instance]) -> String {
    let budgets: Vec<String> = instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let evals = invs.iter().find(|v| v.instance == i).map_or(0, |v| v.evals);
            format!("{}@{}={}", inst.name, inst.mesh_arg(), evals)
        })
        .collect();
    format!(
        "workload={} seed={seed} methods={} strategy=cdcm budgets=[{}] min_passes={}",
        workload.name(),
        config::CLI_METHODS.join(","),
        budgets.join(" "),
        config::MIN_PASSES
    )
}

/// Runs a CLI workload; with `trace`, the traced variant.
pub fn run(
    cli: &Path,
    work: &Path,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    report: &mut Report,
) -> std::io::Result<()> {
    let (mut instances, invs) = inputs::cli_workload(workload, seed);
    inputs::write_instances(work, &mut instances)?;
    for line in crate::report::environment(
        workload,
        seed,
        seconds,
        &params(workload, seed, &invs, &instances),
    ) {
        report.note(line);
    }

    check::paper_goldens(cli, work, report)?;

    if trace {
        return run_traced(cli, &instances, &invs, workload, seed, report);
    }

    // A set-up pass precedes every timed pass, so both medians sample the
    // same stretch of the run; `seconds` bounds the timed passes alone.
    let mut setup = Vec::new();
    let mut peak_rss_kb = 0;
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < config::MIN_PASSES
        || passes.iter().map(|p| p.wall).sum::<f64>() < seconds as f64
    {
        let pass = run_pass(cli, &instances, &invs, true, report)?;
        setup.push(pass.wall);
        peak_rss_kb = peak_rss_kb.max(pass.peak_rss_kb);
        passes.push(run_pass(cli, &instances, &invs, false, report)?);
    }

    check_results(&passes[0], &instances, &invs, report);
    let digest = passes[0].digest().hex();
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.digest().hex() != digest {
            report.operation(Err(format!("pass {i} results differ from pass 0")));
        }
    }
    check_digest(workload, seed, &digest, report);

    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies.clone()).collect();
    peak_rss_kb = passes
        .iter()
        .map(|p| p.peak_rss_kb)
        .fold(peak_rss_kb, u64::max);
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    report.note(format!(
        "passes: {} timed, walls [{}] s (spread {:.4} of the median), {} set-up; {} invocations per pass; latency samples {} (highest resolvable percentile p{})",
        passes.len(),
        shown.join(" "),
        stats::relative_spread(&walls),
        setup.len(),
        invs.len(),
        latencies.len(),
        stats::tail_percentile(latencies.len())
    ));
    report.metric("wall_s", stats::median(&walls), "s");
    report.metric("setup_s", stats::median(&setup), "s");
    report.metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB");
    report.metric(
        "jobs_per_s",
        invs.len() as f64 / stats::median(&walls),
        "jobs/s",
    );
    report_sojourn(report, &latencies, false);
    report.count("invocations", invs.len() as u64);
    report.count(
        "evaluations",
        passes[0]
            .outputs
            .iter()
            .flatten()
            .map(|o| o.evaluations)
            .sum(),
    );
    Ok(())
}

/// Invocation latency percentiles (a closed loop's sojourn: each
/// invocation is due when the previous one exits): metrics in a traced
/// run, a report line otherwise.
fn report_sojourn(report: &mut Report, latencies: &[f64], as_metrics: bool) {
    let p50 = stats::percentile(latencies, 50.0) * 1e3;
    let p99 = stats::percentile(latencies, 99.0) * 1e3;
    if as_metrics {
        report.metric("sojourn_p50_ms", p50, "ms");
        report.metric("sojourn_p99_ms", p99, "ms");
    } else {
        report.note(format!(
            "invocation sojourn: p50 {p50:.3} ms, p99 {p99:.3} ms over {} samples",
            latencies.len()
        ));
    }
}

/// The traced run: untraced passes of the real CLI (the reference for
/// correctness and the tracing overhead, and at a one-evaluation budget
/// for `cli.overhead_ms`), then every invocation replayed in process
/// with spans.
fn run_traced(
    cli: &Path,
    instances: &[Instance],
    invs: &[Invocation],
    workload: Workload,
    seed: u64,
    report: &mut Report,
) -> std::io::Result<()> {
    let setup = run_pass(cli, instances, invs, true, report)?;
    let pass = run_pass(cli, instances, invs, false, report)?;
    check_results(&pass, instances, invs, report);
    let digest = pass.digest().hex();
    check_digest(workload, seed, &digest, report);

    let mut t = Tracer::new();
    let mut acc = Acc::default();
    let mut replayed = Digest::new();
    let traced_start = Instant::now();
    for (id, inv) in invs.iter().enumerate() {
        let instance = &instances[inv.instance];
        let outcome = t.span(Layer::Bench, "request", id, |t| {
            trace_invocation(t, &mut acc, id, instance, inv)
        });
        match outcome {
            Ok((out, in_process_ms)) => {
                acc.cli_overhead_ms
                    .push(setup.latencies[id] * 1e3 - in_process_ms);
                replayed.add(&out.tiles, &out.objective, &out.texec, out.evaluations);
            }
            Err(e) => report.operation(Err(format!("traced {}: {e}", instance.name))),
        }
    }
    let traced_wall = traced_start.elapsed().as_secs_f64();
    let replayed = replayed.hex();
    report.operation(if replayed == digest {
        Ok(())
    } else {
        Err(format!(
            "replayed searches give digest {replayed}, the program gave {digest}"
        ))
    });
    report.note(format!(
        "traced: {} requests, {} spans, replay digest {replayed}",
        invs.len(),
        t.spans().len()
    ));
    traced::report_layers(report, &t, &acc, traced_wall, pass.wall);
    report_sojourn(report, &pass.latencies, true);
    report.count("invocations", invs.len() as u64);
    report.count(
        "evaluations",
        pass.outputs.iter().flatten().map(|o| o.evaluations).sum(),
    );
    report.count("registry_hits", acc.registry_hits);
    report.count("registry_misses", acc.registry_misses);
    crate::write_spans(workload, seed, &t)?;
    Ok(())
}

/// Replays one `noc-cli map` invocation in process: option handling,
/// request building, the protocol decode of the same request, the
/// one-shot service job (and the same job at a one-evaluation budget),
/// the direct search with its lower layers, and the full evaluation of
/// the result. Returns the result as `map` prints it, and the time the
/// one-evaluation invocation spends in process (`load_app` plus its
/// one-shot job); the rest of that invocation's wall time is the CLI's
/// own overhead: process start, request building, rendering and exit.
fn trace_invocation(
    t: &mut Tracer,
    acc: &mut Acc,
    id: usize,
    instance: &Instance,
    inv: &Invocation,
) -> Result<(MapOutput, f64), String> {
    let args = inv.args(instance, inv.evals);
    let options = Options::parse(&args[1..]).map_err(|e| e.to_string())?;
    let load_start = Instant::now();
    t.span(Layer::Cli, "load_app", id, |_| noc_cli::load_app(&options))
        .map_err(|e| e.to_string())?;
    let load_ms = load_start.elapsed().as_secs_f64() * 1e3;
    let request = t
        .span(Layer::Cli, "build_solve_request", id, |_| {
            noc_cli::build_solve_request(&options)
        })
        .map_err(|e| e.to_string())?;
    let method = request.method;
    let mut one_eval = request.clone();
    one_eval.method = inputs::search_method(inv.method, 1, inv.seed);
    one_eval.sa_config.max_evaluations = 1;
    let job = JobRequest::Solve(Box::new(request));
    let line = noc_service::protocol::encode_submit(&job, noc_service::Priority::Normal);
    traced::traced_decode(t, acc, id, &line)?;

    let shot = traced::one_shot_job(t, id, "one_shot_job", job)?;
    acc.submit_us.push(shot.submit_us);
    acc.queue_wait_ms.push(shot.queue_wait_ms);
    acc.registry_hits += shot.registry.0;
    acc.registry_misses += shot.registry.1;
    let solved = shot
        .result
        .as_solve()
        .ok_or("one-shot job returned no solve result")?;
    let small = traced::one_shot_job(
        t,
        id,
        "one_shot_job_1eval",
        JobRequest::Solve(Box::new(one_eval)),
    )?;

    let provider = traced::build_provider(t, id, instance);
    let searched = traced::traced_search(
        t,
        acc,
        id,
        instance,
        &provider,
        noc_mapping::Strategy::Cdcm,
        inv.method,
        &method,
    )?;
    acc.run_overhead_ms
        .push((shot.run_time.as_secs_f64() - searched.search_time.as_secs_f64()) * 1e3);
    if searched.outcome.mapping != solved.outcome.mapping
        || searched.outcome.evaluations != solved.outcome.evaluations
    {
        return Err("direct search and service job disagree".to_owned());
    }
    let tiles: Vec<usize> = searched
        .outcome
        .mapping
        .assignments()
        .map(|(_, tile)| tile.index())
        .collect();
    let eval = traced::traced_full_eval(t, id, instance, &tiles)?;
    Ok((
        MapOutput {
            tiles,
            objective: format!("{:.3}", searched.outcome.cost),
            texec: eval.texec_ns.to_string(),
            cwm_view: String::new(),
            evaluations: searched.outcome.evaluations,
        },
        load_ms + small.wall.as_secs_f64() * 1e3,
    ))
}
