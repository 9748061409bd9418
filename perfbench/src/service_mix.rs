//! The `service-mix` workload: `noc-cli serve` fed a seeded stream of
//! jobs over its Unix socket.
//!
//! Phase 1 is a closed loop: two connections each submit a job and
//! `wait` for it. Phase 2 is an open loop at a fixed offered rate: one
//! connection submits on a seeded Poisson schedule without waiting, a
//! second runs `watch` and timestamps completions. Sojourn is measured
//! from each job's due time.

use crate::check::{self, check_digest, Digest};
use crate::config::{self, Workload};
use crate::inputs::{self, Instance, JobKind, JobSpec, Order};
use crate::proc;
use crate::report::Report;
use crate::stats::{self, OpenLoopSample};
use crate::trace::{Layer, Tracer};
use crate::traced::{self, Acc};
use noc_model::{Mesh, RouteProvider, RoutingKind};
use noc_service::protocol::{encode_op, encode_submit};
use noc_service::{EvaluateResult, JobId, JobRequest, SolveResult};
use serde::{Deserialize, Value};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long to wait for phase-2 completions after the last job was due.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One line-protocol connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn connect(path: &Path) -> io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Next non-blank line (blank lines are `watch` heartbeats).
    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            if !line.trim().is_empty() {
                return Ok(line.trim_end().to_owned());
            }
        }
    }

    fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

fn short(line: &str) -> &str {
    &line[..line.len().min(160)]
}

/// Parses a reply, turning `ok:false` into an error.
fn parse_reply(line: &str) -> Result<Value, String> {
    let value = serde_json::parse(line).map_err(|e| format!("bad reply: {e}"))?;
    match value.get_field("ok") {
        Some(Value::Bool(true)) => Ok(value),
        _ => Err(format!("ok:false reply: {}", short(line))),
    }
}

fn job_of(value: &Value) -> Option<u64> {
    match value.get_field("job") {
        Some(Value::UInt(id)) => Some(*id),
        _ => None,
    }
}

/// A running `noc-cli serve`; killed and reaped on drop unless stopped.
struct Server {
    child: Option<Child>,
}

impl Server {
    /// Spawns the server and waits until it answers `stats`.
    fn start(cli: &Path, socket: &Path) -> io::Result<(Server, Conn)> {
        let args: Vec<String> = [
            "serve",
            "--socket",
            &socket.to_string_lossy(),
            "--workers",
            &config::SERVICE_WORKERS.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = Server {
            child: Some(proc::spawn_quiet(cli, &args)?),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(mut conn) = Conn::connect(socket) {
                if let Ok(reply) = conn.request(&encode_op("stats", None)) {
                    if parse_reply(&reply).is_ok() {
                        return Ok((server, conn));
                    }
                }
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("`noc-cli serve` never answered `stats`"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sends `shutdown` on `conn` (the last open connection) and reaps
    /// the process; returns its peak RSS in KiB.
    // `proc::reap` waits for the child with `wait4`.
    #[allow(clippy::zombie_processes)]
    fn stop(mut self, mut conn: Conn) -> io::Result<u64> {
        let reply = conn.request(&encode_op("shutdown", None));
        drop(conn);
        let child = self.child.take().expect("a server is stopped once");
        let reaped = proc::reap(&child)?;
        reply?;
        Ok(reaped.peak_rss_kb)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = proc::reap(&child);
        }
    }
}

/// Spawns a server and warms it: one job per distinct mesh must finish.
/// Returns the server, a control connection and the set-up time.
fn setup(
    cli: &Path,
    socket: &Path,
    warmup: &[String],
    report: &mut Report,
) -> io::Result<(Server, Conn, f64)> {
    let start = Instant::now();
    let (server, mut conn) = Server::start(cli, socket)?;
    let mut ids = Vec::new();
    for line in warmup {
        match parse_reply(&conn.request(line)?).map(|v| job_of(&v)) {
            Ok(Some(id)) => ids.push(id),
            Ok(None) => report.operation(Err("warm-up ack without a job id".to_owned())),
            Err(e) => report.operation(Err(format!("warm-up submit: {e}"))),
        }
    }
    for id in ids {
        let reply = conn.request(&encode_op("wait", Some(JobId(id))))?;
        report.operation(parse_reply(&reply).and_then(|v| outcome(&v)).map(|_| ()));
    }
    Ok((server, conn, start.elapsed().as_secs_f64()))
}

/// A finished job as the digest and the correctness check see it.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    tiles: Vec<usize>,
    objective: f64,
    texec_ns: f64,
    evaluations: u64,
}

/// The result of a `wait`/`status` reply of a done job.
fn outcome(reply: &Value) -> Result<Outcome, String> {
    let state = reply.get_field("state");
    if state != Some(&Value::Str("done".to_owned())) {
        return Err(format!(
            "job ended as {state:?}: {:?}",
            reply.get_field("error")
        ));
    }
    let result = reply.get_field("result").ok_or("done job without result")?;
    let tiles = |m: &noc_model::Mapping| m.assignments().map(|(_, t)| t.index()).collect();
    match reply.get_field("kind") {
        Some(Value::Str(kind)) if kind == "solve" => {
            let r = SolveResult::from_value(result).map_err(|e| e.to_string())?;
            Ok(Outcome {
                tiles: tiles(&r.outcome.mapping),
                objective: r.outcome.cost,
                texec_ns: r.texec_ns,
                evaluations: r.outcome.evaluations,
            })
        }
        _ => {
            let r = EvaluateResult::from_value(result).map_err(|e| e.to_string())?;
            Ok(Outcome {
                tiles: tiles(&r.mapping),
                objective: r.breakdown.total().picojoules(),
                texec_ns: r.texec_ns,
                evaluations: 0,
            })
        }
    }
}

fn add_to_digest(digest: &mut Digest, o: &Outcome) {
    digest.add(
        &o.tiles,
        &o.objective.to_string(),
        &o.texec_ns.to_string(),
        o.evaluations,
    );
}

/// Re-evaluates a job's result with `evaluate_cdcm` (or `evaluate_cwm`
/// for a CWM search's objective); both must match bit for bit.
fn check_outcome(spec: &JobSpec, instances: &[Instance], o: &Outcome) -> Result<(), String> {
    let instance = &instances[spec.row];
    let eval = check::evaluate_cdcm(instance, &o.tiles)?;
    let objective = match &spec.kind {
        JobKind::Solve {
            strategy: noc_mapping::Strategy::Cwm,
            ..
        } => {
            let mapping = noc_model::Mapping::from_tiles(
                &instance.mesh,
                o.tiles.iter().map(|&t| noc_model::TileId::new(t)),
            )
            .map_err(|e| e.to_string())?;
            noc_energy::total::evaluate_cwm_with(
                &instance.app.to_cwg(),
                &instance.mesh,
                &mapping,
                &noc_energy::Technology::t007(),
                instance.routing.algorithm(),
            )
            .picojoules()
        }
        _ => eval.objective_pj(),
    };
    if objective != o.objective || eval.texec_ns != o.texec_ns {
        return Err(format!(
            "{}: reported {} pJ / {} ns, re-evaluated {objective} pJ / {} ns",
            spec.label(instances),
            o.objective,
            o.texec_ns,
            eval.texec_ns
        ));
    }
    Ok(())
}

/// A closed-loop job's server id and `wait` reply, or its failure.
type Reply = Result<(u64, String), String>;
/// The replies of a closed-loop pass, in job order.
type Replies = Vec<Reply>;

/// Phase 1: the closed loop. Returns the pass wall time and the replies.
fn closed_loop(socket: &Path, lines: &[String]) -> io::Result<(f64, Replies)> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Reply>>> = Mutex::new(vec![None; lines.len()]);
    let start = Instant::now();
    std::thread::scope(|s| -> io::Result<()> {
        let clients: Vec<_> = (0..config::CLOSED_LOOP_CONNECTIONS)
            .map(|_| {
                s.spawn(|| -> io::Result<()> {
                    let mut conn = Conn::connect(socket)?;
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(line) = lines.get(i) else {
                            return Ok(());
                        };
                        let result = match parse_reply(&conn.request(line)?).map(|v| job_of(&v)) {
                            Ok(Some(id)) => {
                                let reply = conn.request(&encode_op("wait", Some(JobId(id))))?;
                                Ok((id, reply))
                            }
                            Ok(None) => Err("submit ack without a job id".to_owned()),
                            Err(e) => Err(e),
                        };
                        slots.lock().expect("slot lock poisoned")[i] = Some(result);
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("closed-loop client panicked")?;
        }
        Ok(())
    })?;
    let wall = start.elapsed().as_secs_f64();
    let replies = slots
        .into_inner()
        .expect("slot lock poisoned")
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err("job never submitted".to_owned())))
        .collect();
    Ok((wall, replies))
}

/// One event seen on the `watch` stream.
#[derive(Debug, Clone)]
struct Seen {
    job: u64,
    kind: String,
    at: Instant,
}

/// The `watch` connection and the events it timestamped.
struct Watch {
    stream: UnixStream,
    log: Arc<Mutex<Vec<Seen>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Variant name and job id of a `watch` event line, e.g.
/// `{"Completed":{"job":7,…}}`, read without a full JSON parse so the
/// watcher keeps up with the stream.
fn event_key(line: &str) -> Option<(String, u64)> {
    let rest = line.strip_prefix("{\"")?;
    let (kind, rest) = rest.split_once('"')?;
    let after = rest.split_once("\"job\":")?.1;
    let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
    Some((kind.to_owned(), digits.parse().ok()?))
}

impl Watch {
    fn start(socket: &Path) -> io::Result<Self> {
        let mut conn = Conn::connect(socket)?;
        parse_reply(&conn.request("{\"op\":\"watch\"}")?).map_err(io::Error::other)?;
        let stream = conn.writer.try_clone()?;
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let thread = std::thread::spawn(move || {
            while let Ok(line) = conn.recv() {
                let at = Instant::now();
                if let Some((kind, job)) = event_key(&line) {
                    sink.lock()
                        .expect("watch log poisoned")
                        .push(Seen { job, kind, at });
                }
            }
        });
        Ok(Self {
            stream,
            log,
            thread: Some(thread),
        })
    }

    /// Terminal events seen so far for `ids`.
    fn terminal_count(&self, ids: &[u64]) -> usize {
        let log = self.log.lock().expect("watch log poisoned");
        let mut done: Vec<u64> = log
            .iter()
            .filter(|e| matches!(e.kind.as_str(), "Completed" | "Failed" | "Cancelled"))
            .map(|e| e.job)
            .filter(|j| ids.contains(j))
            .collect();
        done.sort_unstable();
        done.dedup();
        done.len()
    }

    /// Disconnects and returns every event seen.
    fn stop(mut self) -> Vec<Seen> {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        std::mem::take(&mut *self.log.lock().expect("watch log poisoned"))
    }
}

fn seen_at(events: &[Seen], job: u64, kind: &str) -> Option<Instant> {
    events
        .iter()
        .find(|e| e.job == job && e.kind == kind)
        .map(|e| e.at)
}

/// Phase 2 as measured: per job, due/sent/completed, server id and
/// submit round trip.
struct OpenLoop {
    origin: Instant,
    due: Vec<f64>,
    sent: Vec<f64>,
    ids: Vec<Option<u64>>,
    rtt_us: Vec<f64>,
    horizon: f64,
}

/// Phase 2: submits `lines` at their `due` times on one connection
/// without waiting; a reader thread collects the acks in order. Then
/// waits (bounded) until `watch` has seen every job finish.
fn open_loop(socket: &Path, lines: &[String], due: &[f64], watch: &Watch) -> io::Result<OpenLoop> {
    let stream = UnixStream::connect(socket)?;
    let mut writer = stream.try_clone()?;
    let mut reader = Conn {
        reader: BufReader::new(stream.try_clone()?),
        writer: stream,
    };
    let origin = Instant::now();
    let count = lines.len();
    let (sent, acks) = std::thread::scope(|s| -> io::Result<_> {
        let acks = s.spawn(move || {
            (0..count)
                .map(|_| {
                    let line = reader.recv().ok()?;
                    let at = origin.elapsed().as_secs_f64();
                    Some((at, parse_reply(&line).ok().and_then(|v| job_of(&v))?))
                })
                .collect::<Vec<_>>()
        });
        let mut sent = Vec::with_capacity(count);
        for (line, &due) in lines.iter().zip(due) {
            let wait = due - origin.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            sent.push(origin.elapsed().as_secs_f64());
            writer.write_all(line.as_bytes())?;
            writer.write_all(b"\n")?;
        }
        Ok((sent, acks.join().expect("ack reader panicked")))
    })?;
    let ids: Vec<Option<u64>> = acks.iter().map(|a| a.map(|(_, id)| id)).collect();
    let rtt_us = acks
        .iter()
        .zip(&sent)
        .filter_map(|(a, s)| a.map(|(at, _)| (at - s) * 1e6))
        .collect();
    let known: Vec<u64> = ids.iter().flatten().copied().collect();
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while watch.terminal_count(&known) < known.len() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(OpenLoop {
        origin,
        due: due.to_vec(),
        sent,
        ids,
        rtt_us,
        horizon: origin.elapsed().as_secs_f64(),
    })
}

impl OpenLoop {
    /// Per-job samples, completion taken from `Completed` on `watch`
    /// (a failed or unobserved job has none).
    fn samples(&self, events: &[Seen]) -> Vec<OpenLoopSample> {
        self.ids
            .iter()
            .enumerate()
            .map(|(i, id)| OpenLoopSample {
                due: self.due[i],
                sent: self.sent[i],
                completed: id
                    .and_then(|id| seen_at(events, id, "Completed"))
                    .map(|at| at.duration_since(self.origin).as_secs_f64()),
            })
            .collect()
    }
}

/// Fetches (`status`) and checks every job of a phase, folding the
/// results into `digest` in job order.
fn check_jobs(
    conn: &mut Conn,
    specs: &[JobSpec],
    ids: &[Option<u64>],
    instances: &[Instance],
    digest: &mut Digest,
    report: &mut Report,
) -> io::Result<u64> {
    let mut evaluations = 0;
    for (spec, id) in specs.iter().zip(ids) {
        let Some(id) = id else {
            report.operation(Err(format!(
                "{}: never acknowledged",
                spec.label(instances)
            )));
            continue;
        };
        let reply = conn.request(&encode_op("status", Some(JobId(*id))))?;
        let checked = parse_reply(&reply).and_then(|v| outcome(&v)).and_then(|o| {
            check_outcome(spec, instances, &o)?;
            Ok(o)
        });
        match checked {
            Ok(o) => {
                add_to_digest(digest, &o);
                evaluations += o.evaluations;
                report.operation(Ok(()));
            }
            Err(e) => report.operation(Err(e)),
        }
    }
    Ok(evaluations)
}

/// Checks phase-1 `wait` replies, returning the pass digest.
fn check_replies(
    specs: &[JobSpec],
    replies: &Replies,
    instances: &[Instance],
    check: bool,
    report: &mut Report,
) -> (Digest, u64) {
    let mut digest = Digest::new();
    let mut evaluations = 0;
    for (spec, reply) in specs.iter().zip(replies) {
        let checked = reply
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|(_, line)| parse_reply(line))
            .and_then(|v| outcome(&v))
            .and_then(|o| {
                if check {
                    check_outcome(spec, instances, &o)?;
                }
                Ok(o)
            });
        match checked {
            Ok(o) => {
                add_to_digest(&mut digest, &o);
                evaluations += o.evaluations;
                report.operation(Ok(()));
            }
            Err(e) => report.operation(Err(format!("{}: {e}", spec.label(instances)))),
        }
    }
    (digest, evaluations)
}

/// Server counters: `stats` (registry, scratch) and the dropped-events
/// metric of `metrics`.
fn server_counts(conn: &mut Conn, report: &mut Report) -> io::Result<(u64, u64)> {
    let stats = parse_reply(&conn.request(&encode_op("stats", None))?).map_err(io::Error::other)?;
    let field = |name: &str| match stats.get_field("stats").and_then(|s| s.get_field(name)) {
        Some(Value::UInt(n)) => *n,
        _ => 0,
    };
    let (hits, misses) = (field("registry_hits"), field("registry_misses"));
    report.count("registry_hits", hits);
    report.count("registry_misses", misses);
    report.count("scratch_runs", field("scratch_runs"));
    report.count("scratch_events", field("scratch_events"));
    let metrics =
        parse_reply(&conn.request(&encode_op("metrics", None))?).map_err(io::Error::other)?;
    let dropped = match metrics.get_field("exposition") {
        Some(Value::Str(text)) => text
            .lines()
            .find_map(|l| l.strip_prefix("noc_subscriber_dropped_events_total "))
            .and_then(|v| v.trim().parse::<f64>().ok()),
        _ => None,
    };
    report.count("dropped_events", dropped.map_or(u64::MAX, |d| d as u64));
    report.operation(match dropped {
        Some(0.0) => Ok(()),
        other => Err(format!(
            "noc_subscriber_dropped_events_total is {other:?}, must be 0"
        )),
    });
    Ok((hits, misses))
}

/// Everything a run needs: instances, encoded job lines and schedule.
struct Plan {
    instances: Vec<Instance>,
    warmup: Vec<String>,
    phase1: Vec<JobSpec>,
    phase1_lines: Vec<String>,
    phase2: Vec<JobSpec>,
    phase2_lines: Vec<String>,
    due: Vec<f64>,
}

fn encode(specs: &[JobSpec], instances: &[Instance]) -> Vec<String> {
    specs
        .iter()
        .map(|s| encode_submit(&s.request(instances), s.priority))
        .collect()
}

fn plan(seed: u64) -> Plan {
    let instances = inputs::service_instances();
    let warmup = encode(&inputs::warmup_jobs(&instances), &instances);
    let jobs = inputs::service_jobs(&instances, seed, 0, config::PHASE1_BLOCKS, Order::Shuffled);
    let phase2 = inputs::service_jobs(
        &instances,
        seed,
        config::PHASE1_BLOCKS,
        config::PHASE2_BLOCKS,
        Order::HeavyStride,
    );
    let due = inputs::arrival_schedule(seed, phase2.len(), config::OPEN_LOOP_RATE);
    Plan {
        phase1_lines: encode(&jobs, &instances),
        phase2_lines: encode(&phase2, &instances),
        phase1: jobs,
        phase2,
        due,
        warmup,
        instances,
    }
}

/// Number of phase-1 passes for a run of `seconds` (about 40% of the
/// run): fixed by the arguments, so the exact counts repeat.
fn phase1_passes(seconds: u64) -> usize {
    config::MIN_PASSES.max((seconds * 2 / 5) as usize)
}

/// Runs the workload; with `trace`, the traced variant.
pub fn run(
    cli: &Path,
    work: &Path,
    seed: u64,
    seconds: u64,
    trace: bool,
    report: &mut Report,
) -> io::Result<()> {
    let workload = Workload::ServiceMix;
    let plan = plan(seed);
    let params = format!(
        "workload=service-mix seed={seed} workers={} connections={} jobs: phase1={}x{} phase2={} rate={}/s budgets: small={} large={} evals; mix per row: cdcm sa,tabu,ga + cwm + evaluate; priorities high,normal,low",
        config::SERVICE_WORKERS,
        config::CLOSED_LOOP_CONNECTIONS,
        plan.phase1.len(),
        if trace { 1 } else { phase1_passes(seconds) },
        plan.phase2.len(),
        config::OPEN_LOOP_RATE,
        config::SMALL_JOB_EVALS,
        config::LARGE_JOB_EVALS
    );
    for line in crate::report::environment(workload, seed, seconds, &params) {
        report.note(line);
    }
    check::paper_goldens(cli, work, report)?;

    let socket: PathBuf = work.join("serve.sock");
    let mut setups = Vec::new();
    let mut peak_rss_kb = 0;
    let repeats = if trace { 1 } else { config::SETUP_REPEATS };
    let mut running = None;
    for i in 0..repeats {
        let (server, conn, secs) = setup(cli, &socket, &plan.warmup, report)?;
        setups.push(secs);
        if i + 1 < repeats {
            peak_rss_kb = peak_rss_kb.max(server.stop(conn)?);
        } else {
            running = Some((server, conn));
        }
    }
    let (server, mut conn) = running.expect("at least one set-up");

    let watch = Watch::start(&socket)?;
    let mut walls = Vec::new();
    let mut first: Option<(Digest, u64, Replies)> = None;
    for pass in 0..if trace { 1 } else { phase1_passes(seconds) } {
        let (wall, replies) = closed_loop(&socket, &plan.phase1_lines)?;
        walls.push(wall);
        let (digest, evals) =
            check_replies(&plan.phase1, &replies, &plan.instances, pass == 0, report);
        match &first {
            None => first = Some((digest, evals, replies)),
            Some((d, _, _)) if d.hex() != digest.hex() => report.operation(Err(format!(
                "phase-1 pass {pass} results differ from pass 0"
            ))),
            Some(_) => {}
        }
    }
    let (mut digest, phase1_evals, phase1_replies) = first.expect("at least one pass");

    let open = open_loop(&socket, &plan.phase2_lines, &plan.due, &watch)?;
    let events = watch.stop();
    let phase2_evals = check_jobs(
        &mut conn,
        &plan.phase2,
        &open.ids,
        &plan.instances,
        &mut digest,
        report,
    )?;
    let samples = open.samples(&events);
    for (spec, s) in plan.phase2.iter().zip(&samples) {
        if s.completed.is_none() {
            report.operation(Err(format!(
                "{}: completion never seen on watch",
                spec.label(&plan.instances)
            )));
        }
    }
    let (hits, misses) = server_counts(&mut conn, report)?;
    peak_rss_kb = peak_rss_kb.max(server.stop(conn)?);
    check_digest(workload, seed, &digest.hex(), report);

    let sojourn_ms: Vec<f64> = stats::sojourns(&samples, open.horizon)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let late_ms: Vec<f64> = stats::lateness(&samples).iter().map(|s| s * 1e3).collect();
    report.note(format!(
        "open loop: {} jobs at {}/s over {:.2} s; sojourn p50 {:.3} ms p99 {:.3} ms over {} samples (highest resolvable percentile p{}); generator lateness p50 {:.3} ms p99 {:.3} ms max {:.3} ms; submit rtt p50 {:.1} us",
        samples.len(),
        config::OPEN_LOOP_RATE,
        open.horizon,
        stats::percentile(&sojourn_ms, 50.0),
        stats::percentile(&sojourn_ms, 99.0),
        sojourn_ms.len(),
        stats::tail_percentile(sojourn_ms.len()),
        stats::percentile(&late_ms, 50.0),
        stats::percentile(&late_ms, 99.0),
        stats::percentile(&late_ms, 100.0),
        stats::percentile(&open.rtt_us, 50.0)
    ));
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    report.note(format!(
        "closed loop: {} passes of {} jobs, walls [{}] s (spread {:.4} of the median); {} set-ups",
        walls.len(),
        plan.phase1.len(),
        shown.join(" "),
        stats::relative_spread(&walls),
        setups.len()
    ));
    report.count("jobs", (plan.phase1.len() + plan.phase2.len()) as u64);
    report.count("evaluations", phase1_evals + phase2_evals);

    if trace {
        let mut acc = Acc::default();
        acc.registry_hits = hits;
        acc.registry_misses = misses;
        acc.submit_us = open.rtt_us.clone();
        acc.queue_wait_ms = open
            .ids
            .iter()
            .flatten()
            .filter_map(|&id| {
                let submitted = seen_at(&events, id, "Submitted")?;
                let started = seen_at(&events, id, "Started")?;
                Some(started.duration_since(submitted).as_secs_f64() * 1e3)
            })
            .collect();
        let want = digest_of(&phase1_replies);
        let (t, traced_wall) =
            trace_phase1(&plan, &phase1_replies, &events, &mut acc, &want, report);
        traced::report_layers(report, &t, &acc, traced_wall, walls[0]);
        report.metric("sojourn_p50_ms", stats::percentile(&sojourn_ms, 50.0), "ms");
        report.metric("sojourn_p99_ms", stats::percentile(&sojourn_ms, 99.0), "ms");
        crate::write_spans(workload, seed, &t)?;
        return Ok(());
    }

    report.metric("wall_s", stats::median(&walls), "s");
    report.metric("setup_s", stats::median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB");
    report.metric(
        "jobs_per_s",
        plan.phase1.len() as f64 / stats::median(&walls),
        "jobs/s",
    );
    Ok(())
}

/// Digest of the phase-1 results alone (the traced replay's reference).
fn digest_of(replies: &Replies) -> String {
    let mut digest = Digest::new();
    for reply in replies {
        if let Some(o) = reply
            .as_ref()
            .ok()
            .and_then(|(_, line)| parse_reply(line).ok())
            .and_then(|v| outcome(&v).ok())
        {
            add_to_digest(&mut digest, &o);
        }
    }
    digest.hex()
}

/// The traced replay of the phase-1 jobs: decode, direct search with its
/// lower layers, and the full evaluation, one span each. Returns the
/// tracer and the replay's wall time.
fn trace_phase1(
    plan: &Plan,
    replies: &Replies,
    events: &[Seen],
    acc: &mut Acc,
    want: &str,
    report: &mut Report,
) -> (Tracer, f64) {
    let mut t = Tracer::new();
    let mut providers: Vec<((Mesh, RoutingKind), Arc<RouteProvider>)> = Vec::new();
    let mut digest = Digest::new();
    let start = Instant::now();
    for (id, (spec, line)) in plan.phase1.iter().zip(&plan.phase1_lines).enumerate() {
        let instance = &plan.instances[spec.row];
        let replayed = t.span(
            Layer::Bench,
            "request",
            id,
            |t| -> Result<Outcome, String> {
                let request = traced::traced_decode(t, acc, id, line)?;
                match (request, &spec.kind) {
                    (JobRequest::Solve(req), JobKind::Solve { method, .. }) => {
                        let key = (instance.mesh, instance.routing);
                        let provider = match providers.iter().find(|(k, _)| *k == key) {
                            Some((_, p)) => Arc::clone(p),
                            None => {
                                let p = traced::build_provider(t, id, instance);
                                providers.push((key, Arc::clone(&p)));
                                p
                            }
                        };
                        let searched = traced::traced_search(
                            t,
                            acc,
                            id,
                            instance,
                            &provider,
                            req.strategy,
                            method,
                            &req.method,
                        )?;
                        let served = replies[id].as_ref().ok().map(|(job, _)| *job);
                        if let Some(job) = served {
                            if let (Some(started), Some(done)) = (
                                seen_at(events, job, "Started"),
                                seen_at(events, job, "Completed"),
                            ) {
                                acc.run_overhead_ms.push(
                                    (done.duration_since(started).as_secs_f64()
                                        - searched.search_time.as_secs_f64())
                                        * 1e3,
                                );
                            }
                        }
                        let tiles: Vec<usize> = searched
                            .outcome
                            .mapping
                            .assignments()
                            .map(|(_, t)| t.index())
                            .collect();
                        let eval = traced::traced_full_eval(t, id, instance, &tiles)?;
                        Ok(Outcome {
                            tiles,
                            objective: searched.outcome.cost,
                            texec_ns: eval.texec_ns,
                            evaluations: searched.outcome.evaluations,
                        })
                    }
                    (JobRequest::Evaluate(req), _) => {
                        let tiles: Vec<usize> =
                            req.mapping.assignments().map(|(_, t)| t.index()).collect();
                        let eval = traced::traced_full_eval(t, id, instance, &tiles)?;
                        Ok(Outcome {
                            tiles,
                            objective: eval.objective_pj(),
                            texec_ns: eval.texec_ns,
                            evaluations: 0,
                        })
                    }
                    _ => Err("decoded job kind differs from its spec".to_owned()),
                }
            },
        );
        match replayed {
            Ok(o) => add_to_digest(&mut digest, &o),
            Err(e) => report.operation(Err(format!("traced {}: {e}", spec.label(&plan.instances)))),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let got = digest.hex();
    report.operation(if got == want {
        Ok(())
    } else {
        Err(format!(
            "replayed jobs give digest {got}, the served phase 1 gave {want}"
        ))
    });
    report.note(format!(
        "traced: {} jobs, {} spans, replay digest {got}",
        plan.phase1.len(),
        t.spans().len()
    ));
    (t, wall)
}
