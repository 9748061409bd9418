//! Line-oriented JSON protocol of the service.
//!
//! One request per line, one response per line. The same dispatch
//! function backs both the Unix-socket server (`noc-cli serve`) and
//! in-process tests, so the wire behaviour is testable without a
//! socket.
//!
//! # Requests
//!
//! ```json
//! {"op": "submit", "priority": "normal", "job": {"kind": "solve", ...}}
//! {"op": "status", "job": 0}
//! {"op": "wait", "job": 0}
//! {"op": "cancel", "job": 0}
//! {"op": "stats"}
//! {"op": "metrics"}
//! {"op": "trace", "job": 0}
//! {"op": "watch"}
//! {"op": "shutdown"}
//! ```
//!
//! `metrics` returns the service's metric registry (`"exposition"` as
//! Prometheus-style text, `"metrics"` as a parsed JSON snapshot).
//! `trace` returns the flight recorder's tape for a job: the bounded
//! window of its structured trace events (rounds, best-so-far
//! improvements, SA accept/reject epochs) plus how many older events
//! the ring dropped. `watch` upgrades the connection to a stream: after
//! the `{"ok":true}` ack, every [`ServiceEvent`](crate::ServiceEvent)
//! is forwarded as one JSON line until the client disconnects or the
//! service shuts down — live telemetry with no polling.
//!
//! A solve job carries the application either as parsed CDCG JSON
//! (`"app"`) or as the text format (`"app_text"`), plus `"mesh"`,
//! `"method"` (a serialized [`SearchMethod`]) and optional `"strategy"`,
//! `"tech"`, `"params"`, `"routing"` (name), `"faults"` (array of
//! `[from, to]` directed-channel tile pairs), `"route_cache"`, `"pins"`, `"sa_config"`,
//! `"criticality"`, `"seed"`. An evaluate job carries `"app"`/
//! `"app_text"`, `"mesh"`, `"mapping"` (array of tile indices) and
//! optional `"tech"`, `"params"`, `"routing"`, `"gantt"`. The
//! fault-injection experiment (`fault_scenario`) is a programmatic-API
//! feature and is not exposed on the wire.
//!
//! # Responses
//!
//! Every response is an object with `"ok"`. Terminal job states carry
//! the result payload under `"result"` (the [`SolveResult`] /
//! [`EvaluateResult`] serialization) and a `"kind"` discriminator.
//!
//! The socket server reads at most [`MAX_LINE_BYTES`] per request line.
//! A longer line gets an `{"ok":false}` reply naming the cap, and the
//! server closes that connection; other connections are unaffected.
//!
//! [`SolveResult`]: crate::job::SolveResult
//! [`EvaluateResult`]: crate::job::EvaluateResult

use crate::job::{
    CacheTier, EvaluateRequest, JobId, JobRequest, JobResult, JobState, Priority, SolveRequest,
};
use crate::service::ServiceHandle;
use noc_energy::Technology;
use noc_model::{Cdcg, FaultSet, Link, Mapping, Mesh, RoutingKind, TileId};
use noc_sim::SimParams;
use serde::{Deserialize, Serialize, Value};

// ---------------------------------------------------------------------------
// Encoding (client side)
// ---------------------------------------------------------------------------

/// Encodes a submit request as one protocol line.
pub fn encode_submit(request: &JobRequest, priority: Priority) -> String {
    let job = match request {
        JobRequest::Solve(req) => solve_to_value(req),
        JobRequest::Evaluate(req) => evaluate_to_value(req),
    };
    let envelope = Value::Map(vec![
        ("op".to_owned(), Value::Str("submit".to_owned())),
        (
            "priority".to_owned(),
            Value::Str(priority.name().to_owned()),
        ),
        ("job".to_owned(), job),
    ]);
    serde_json::to_string(&envelope).expect("value serializes")
}

/// Encodes a job-less or job-addressed op (`status`, `wait`, `cancel`,
/// `stats`, `shutdown`) as one protocol line.
pub fn encode_op(op: &str, job: Option<JobId>) -> String {
    let mut fields = vec![("op".to_owned(), Value::Str(op.to_owned()))];
    if let Some(job) = job {
        fields.push(("job".to_owned(), Value::UInt(job.0)));
    }
    serde_json::to_string(&Value::Map(fields)).expect("value serializes")
}

fn fault_pairs(faults: &FaultSet) -> Value {
    // Every dead channel is an inter-router link (FaultSet::kill asserts
    // it), and dead_links() iterates in sorted order — the wire form is
    // canonical by construction.
    let pairs: Vec<Value> = faults
        .dead_links()
        .map(|link| match link {
            Link::Internal { from, to } => Value::Seq(vec![
                Value::UInt(from.index() as u64),
                Value::UInt(to.index() as u64),
            ]),
            other => unreachable!("fault sets hold inter-router links only, got {other}"),
        })
        .collect();
    Value::Seq(pairs)
}

fn solve_to_value(req: &SolveRequest) -> Value {
    Value::Map(vec![
        ("kind".to_owned(), Value::Str("solve".to_owned())),
        ("app".to_owned(), req.app.to_value()),
        ("mesh".to_owned(), req.mesh.to_value()),
        (
            "strategy".to_owned(),
            Value::Str(strategy_name(req.strategy).to_owned()),
        ),
        ("method".to_owned(), req.method.to_value()),
        ("tech".to_owned(), req.tech.to_value()),
        ("params".to_owned(), req.params.to_value()),
        (
            "routing".to_owned(),
            Value::Str(req.routing.name().to_ascii_lowercase()),
        ),
        ("faults".to_owned(), fault_pairs(&req.faults)),
        (
            "route_cache".to_owned(),
            Value::Str(req.route_cache.name().to_owned()),
        ),
        ("pins".to_owned(), req.pins.to_value()),
        ("sa_config".to_owned(), req.sa_config.to_value()),
        ("criticality".to_owned(), Value::Bool(req.criticality)),
        ("fault_evals".to_owned(), Value::UInt(req.fault_evals)),
        ("seed".to_owned(), Value::UInt(req.seed)),
    ])
}

fn evaluate_to_value(req: &EvaluateRequest) -> Value {
    let tiles: Vec<Value> = req
        .mapping
        .assignments()
        .map(|(_, tile)| Value::UInt(tile.index() as u64))
        .collect();
    Value::Map(vec![
        ("kind".to_owned(), Value::Str("evaluate".to_owned())),
        ("app".to_owned(), req.app.to_value()),
        ("mesh".to_owned(), req.mesh.to_value()),
        ("mapping".to_owned(), Value::Seq(tiles)),
        ("tech".to_owned(), req.tech.to_value()),
        ("params".to_owned(), req.params.to_value()),
        (
            "routing".to_owned(),
            Value::Str(req.routing.name().to_ascii_lowercase()),
        ),
        ("gantt".to_owned(), Value::Bool(req.gantt)),
    ])
}

fn strategy_name(strategy: noc_mapping::Strategy) -> &'static str {
    match strategy {
        noc_mapping::Strategy::Cwm => "cwm",
        noc_mapping::Strategy::Cdcm => "cdcm",
    }
}

// ---------------------------------------------------------------------------
// Decoding (server side)
// ---------------------------------------------------------------------------

fn de<T: for<'de> Deserialize<'de>>(value: &Value, what: &str) -> Result<T, String> {
    T::from_value(value).map_err(|e| format!("bad `{what}`: {e}"))
}

fn opt_field<T: for<'de> Deserialize<'de>>(
    value: &Value,
    name: &str,
    default: T,
) -> Result<T, String> {
    match value.get_field(name) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => de(v, name),
    }
}

fn parse_app(value: &Value) -> Result<Cdcg, String> {
    if let Some(app) = value.get_field("app") {
        if !matches!(app, Value::Null) {
            return de(app, "app");
        }
    }
    match value.get_field("app_text") {
        Some(Value::Str(text)) => noc_apps::parse_cdcg(text).map_err(|e| e.to_string()),
        _ => Err("a job needs `app` (CDCG JSON) or `app_text` (CDCG text)".to_owned()),
    }
}

fn parse_strategy(value: &Value) -> Result<noc_mapping::Strategy, String> {
    match value.get_field("strategy") {
        None | Some(Value::Null) => Ok(noc_mapping::Strategy::Cdcm),
        Some(Value::Str(s)) => match s.to_ascii_lowercase().as_str() {
            "cwm" => Ok(noc_mapping::Strategy::Cwm),
            "cdcm" => Ok(noc_mapping::Strategy::Cdcm),
            other => Err(format!("unknown strategy `{other}` (cwm|cdcm)")),
        },
        Some(v) => de(v, "strategy"),
    }
}

fn parse_tech(value: &Value) -> Result<Technology, String> {
    match value.get_field("tech") {
        None | Some(Value::Null) => Ok(Technology::t007()),
        Some(Value::Str(s)) => match s.trim_end_matches("um") {
            "paper" => Ok(Technology::paper_example()),
            "0.35" => Ok(Technology::t035()),
            "0.07" => Ok(Technology::t007()),
            other => Err(format!("unknown technology `{other}` (paper|0.35|0.07)")),
        },
        Some(v) => de(v, "tech"),
    }
}

fn parse_routing(value: &Value) -> Result<RoutingKind, String> {
    match value.get_field("routing") {
        None | Some(Value::Null) => Ok(RoutingKind::Xy),
        Some(Value::Str(s)) => RoutingKind::from_name(s)
            .ok_or_else(|| format!("unknown routing `{s}` (xy|yx|torus-xy|xyz|torus-xyz)")),
        Some(v) => Err(format!("bad `routing`: expected string, got {v:?}")),
    }
}

fn parse_faults(value: &Value) -> Result<FaultSet, String> {
    let mut faults = FaultSet::new();
    let Some(raw) = value.get_field("faults") else {
        return Ok(faults);
    };
    if matches!(raw, Value::Null) {
        return Ok(faults);
    }
    let pairs: Vec<(u64, u64)> = de(raw, "faults")?;
    for (a, b) in pairs {
        // Each entry kills one directed channel; a client wanting a full
        // physical link failure lists both directions (which is exactly
        // what encode_submit emits).
        faults.kill(Link::between(
            TileId::new(a as usize),
            TileId::new(b as usize),
        ));
    }
    Ok(faults)
}

fn parse_solve(value: &Value) -> Result<SolveRequest, String> {
    let app = parse_app(value)?;
    let mesh: Mesh = de(
        value.get_field("mesh").ok_or("a solve job needs `mesh`")?,
        "mesh",
    )?;
    let method = de(
        value
            .get_field("method")
            .ok_or("a solve job needs `method`")?,
        "method",
    )?;
    let mut req = SolveRequest::new(app, mesh, method);
    req.strategy = parse_strategy(value)?;
    req.tech = parse_tech(value)?;
    req.routing = parse_routing(value)?;
    req.faults = parse_faults(value)?;
    req.route_cache = match value.get_field("route_cache") {
        None | Some(Value::Null) => CacheTier::Auto,
        Some(Value::Str(s)) => CacheTier::from_name(s).map_err(|e| e.to_string())?,
        Some(v) => return Err(format!("bad `route_cache`: expected string, got {v:?}")),
    };
    req.params = opt_field(value, "params", req.params)?;
    req.pins = opt_field(value, "pins", None)?;
    req.sa_config = opt_field(value, "sa_config", req.sa_config)?;
    req.criticality = opt_field(value, "criticality", false)?;
    req.fault_evals = opt_field(value, "fault_evals", req.fault_evals)?;
    req.seed = opt_field(value, "seed", req.seed)?;
    Ok(req)
}

fn parse_evaluate(value: &Value) -> Result<EvaluateRequest, String> {
    let app = parse_app(value)?;
    let mesh: Mesh = de(
        value
            .get_field("mesh")
            .ok_or("an evaluate job needs `mesh`")?,
        "mesh",
    )?;
    let tiles: Vec<u64> = de(
        value
            .get_field("mapping")
            .ok_or("an evaluate job needs `mapping` (tile indices)")?,
        "mapping",
    )?;
    let mapping = Mapping::from_tiles(&mesh, tiles.iter().map(|&t| TileId::new(t as usize)))
        .map_err(|e| e.to_string())?;
    Ok(EvaluateRequest {
        app,
        mesh,
        mapping,
        tech: parse_tech(value)?,
        params: opt_field(value, "params", SimParams::new())?,
        routing: parse_routing(value)?,
        gantt: opt_field(value, "gantt", false)?,
    })
}

/// Decodes a submit payload (the `"job"` object) into a [`JobRequest`].
pub fn parse_job(value: &Value) -> Result<JobRequest, String> {
    match value.get_field("kind") {
        Some(Value::Str(kind)) => match kind.as_str() {
            "solve" => Ok(JobRequest::Solve(Box::new(parse_solve(value)?))),
            "evaluate" => Ok(JobRequest::Evaluate(Box::new(parse_evaluate(value)?))),
            other => Err(format!("unknown job kind `{other}` (solve|evaluate)")),
        },
        _ => Err("a job needs `kind` (solve|evaluate)".to_owned()),
    }
}

fn parse_priority(value: &Value) -> Result<Priority, String> {
    match value.get_field("priority") {
        None | Some(Value::Null) => Ok(Priority::Normal),
        Some(Value::Str(s)) => match s.as_str() {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!("unknown priority `{other}` (high|normal|low)")),
        },
        Some(v) => Err(format!("bad `priority`: expected string, got {v:?}")),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn error_line(msg: &str) -> String {
    let v = Value::Map(vec![
        ("ok".to_owned(), Value::Bool(false)),
        ("error".to_owned(), Value::Str(msg.to_owned())),
    ]);
    serde_json::to_string(&v).expect("value serializes")
}

fn ok_line(mut fields: Vec<(String, Value)>) -> String {
    fields.insert(0, ("ok".to_owned(), Value::Bool(true)));
    serde_json::to_string(&Value::Map(fields)).expect("value serializes")
}

fn result_fields(result: &JobResult, fields: &mut Vec<(String, Value)>) {
    let (kind, payload) = match result {
        JobResult::Solve(r) => ("solve", r.to_value()),
        JobResult::Evaluate(r) => ("evaluate", r.to_value()),
    };
    fields.push(("kind".to_owned(), Value::Str(kind.to_owned())));
    fields.push(("result".to_owned(), payload));
}

fn state_fields(job: JobId, state: &JobState) -> Vec<(String, Value)> {
    let mut fields = vec![
        ("job".to_owned(), Value::UInt(job.0)),
        ("state".to_owned(), Value::Str(state.name().to_owned())),
    ];
    match state {
        JobState::Done(result) | JobState::Cancelled(Some(result)) => {
            result_fields(result, &mut fields);
        }
        JobState::Failed(error) => {
            fields.push(("error".to_owned(), Value::Str(error.clone())));
        }
        _ => {}
    }
    fields
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Outcome of one protocol line: the response to write back, and whether
/// the server should stop accepting connections afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// One JSON line (no trailing newline).
    pub line: String,
    /// True after a `shutdown` op.
    pub shutdown: bool,
    /// True after a `watch` op: the server should follow the reply with
    /// a live event stream on the same connection.
    pub stream: bool,
}

impl Reply {
    fn respond(line: String) -> Self {
        Self {
            line,
            shutdown: false,
            stream: false,
        }
    }
}

/// Parses and executes one request line against the service. Never
/// panics on malformed input — bad requests produce `{"ok": false}`
/// replies.
pub fn handle_line(handle: &ServiceHandle, line: &str) -> Reply {
    let value = match serde_json::parse(line) {
        Ok(v) => v,
        Err(e) => return Reply::respond(error_line(&format!("bad request: {e}"))),
    };
    let op = match value.get_field("op") {
        Some(Value::Str(op)) => op.clone(),
        _ => return Reply::respond(error_line("request needs `op`")),
    };
    let job_id = || -> Result<JobId, String> {
        match value.get_field("job") {
            Some(v) => de::<u64>(v, "job").map(JobId),
            None => Err(format!("`{op}` needs `job`")),
        }
    };
    match op.as_str() {
        "submit" => {
            let priority = match parse_priority(&value) {
                Ok(p) => p,
                Err(e) => return Reply::respond(error_line(&e)),
            };
            let request = match value.get_field("job") {
                Some(spec) => match parse_job(spec) {
                    Ok(r) => r,
                    Err(e) => return Reply::respond(error_line(&e)),
                },
                None => return Reply::respond(error_line("`submit` needs `job`")),
            };
            let id = handle.submit(request, priority);
            Reply::respond(ok_line(vec![
                ("job".to_owned(), Value::UInt(id.0)),
                ("state".to_owned(), Value::Str("pending".to_owned())),
            ]))
        }
        "status" | "wait" => {
            let id = match job_id() {
                Ok(id) => id,
                Err(e) => return Reply::respond(error_line(&e)),
            };
            let state = if op == "wait" {
                handle.wait(id)
            } else {
                handle.status(id)
            };
            match state {
                Some(state) => Reply::respond(ok_line(state_fields(id, &state))),
                None => Reply::respond(error_line(&format!("unknown job {}", id.0))),
            }
        }
        "cancel" => {
            let id = match job_id() {
                Ok(id) => id,
                Err(e) => return Reply::respond(error_line(&e)),
            };
            let cancelled = handle.cancel(id);
            Reply::respond(ok_line(vec![
                ("job".to_owned(), Value::UInt(id.0)),
                ("cancelled".to_owned(), Value::Bool(cancelled)),
            ]))
        }
        "stats" => Reply::respond(ok_line(vec![(
            "stats".to_owned(),
            handle.stats().to_value(),
        )])),
        "metrics" => {
            // The snapshot is noc-obs's own JSON; re-parse it into a
            // Value so it embeds as structure, not as an escaped string.
            let snapshot = serde_json::parse(&handle.metrics_json())
                .unwrap_or_else(|_| Value::Map(Vec::new()));
            Reply::respond(ok_line(vec![
                (
                    "exposition".to_owned(),
                    Value::Str(handle.metrics_exposition()),
                ),
                ("metrics".to_owned(), snapshot),
            ]))
        }
        "trace" => {
            let id = match job_id() {
                Ok(id) => id,
                Err(e) => return Reply::respond(error_line(&e)),
            };
            if handle.status(id).is_none() {
                return Reply::respond(error_line(&format!("unknown job {}", id.0)));
            }
            // A known job with no tape (observability off, or evicted)
            // answers with an empty window rather than an error.
            let tape = handle.flight_snapshot(id).unwrap_or_default();
            let events: Vec<Value> = tape
                .events
                .iter()
                .filter_map(|e| serde_json::parse(&e.to_json_line(id.0)).ok())
                .collect();
            Reply::respond(ok_line(vec![
                ("job".to_owned(), Value::UInt(id.0)),
                ("dropped".to_owned(), Value::UInt(tape.dropped)),
                ("events".to_owned(), Value::Seq(events)),
            ]))
        }
        "watch" => Reply {
            line: ok_line(vec![("watch".to_owned(), Value::Bool(true))]),
            shutdown: false,
            stream: true,
        },
        "shutdown" => Reply {
            line: ok_line(vec![]),
            shutdown: true,
            stream: false,
        },
        other => Reply::respond(error_line(&format!("unknown op `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Unix-socket server and client
// ---------------------------------------------------------------------------

/// Longest request line the socket server accepts, newline included:
/// 16 MiB, about 60 times the inline app of a 64×64 mesh. The server
/// never buffers more than this for one line, so a client that sends no
/// newline cannot grow its memory without bound.
pub const MAX_LINE_BYTES: usize = 16 << 20;

#[cfg(unix)]
mod unix {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Serves the protocol on a Unix socket until a client sends
    /// `shutdown`. Binds fresh (removing a stale socket file first),
    /// accepts any number of concurrent clients, removes the socket file
    /// on exit.
    pub fn serve_unix(handle: ServiceHandle, path: &Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut connections = Vec::new();
        for stream in listener.incoming() {
            if stop.load(Ordering::Acquire) {
                break;
            }
            let stream = stream?;
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let path: PathBuf = path.to_owned();
            connections.push(std::thread::spawn(move || {
                serve_connection(&handle, stream, &stop, &path);
            }));
        }
        for connection in connections {
            let _ = connection.join();
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    fn serve_connection(
        handle: &ServiceHandle,
        stream: UnixStream,
        stop: &AtomicBool,
        path: &Path,
    ) {
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reader = BufReader::new(stream);
        loop {
            let mut buf = Vec::new();
            match (&mut reader)
                .take(MAX_LINE_BYTES as u64)
                .read_until(b'\n', &mut buf)
            {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            if buf.len() == MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
                // The rest of the line is unread, so the stream cannot be
                // resynchronized: answer, then hang up.
                let refusal = error_line(&format!(
                    "request line exceeds the {MAX_LINE_BYTES}-byte limit; closing the connection"
                ));
                let _ = writer.write_all(format!("{refusal}\n").as_bytes());
                let _ = writer.flush();
                return;
            }
            let Ok(line) = std::str::from_utf8(&buf) else {
                break;
            };
            let line = line.trim_end_matches('\n').trim_end_matches('\r');
            if line.trim().is_empty() {
                continue;
            }
            let reply = handle_line(handle, line);
            if writer
                .write_all(format!("{}\n", reply.line).as_bytes())
                .is_err()
            {
                break;
            }
            let _ = writer.flush();
            if reply.stream {
                stream_events(handle, &mut writer, stop);
                return;
            }
            if reply.shutdown {
                stop.store(true, Ordering::Release);
                // Wake the accept loop with a throwaway connection.
                let _ = UnixStream::connect(path);
                return;
            }
        }
    }

    /// The `watch` tail: forwards every service event as one JSON line
    /// until the client hangs up or the service closes the stream. The
    /// subscription is bounded (drop-oldest), so a slow client throttles
    /// only its own view, never the service.
    /// When the service is idle the loop must still notice a vanished
    /// client (and a server shutdown), so it waits in short slices and
    /// probes the socket with a blank heartbeat line between events —
    /// clients skip empty lines.
    fn stream_events(handle: &ServiceHandle, writer: &mut UnixStream, stop: &AtomicBool) {
        use std::sync::mpsc::RecvTimeoutError;
        let events = handle.subscribe();
        loop {
            match events.recv_timeout(std::time::Duration::from_millis(200)) {
                Ok(event) => {
                    let Ok(line) = serde_json::to_string(&event) else {
                        continue;
                    };
                    if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                        return; // client gone
                    }
                    let _ = writer.flush();
                }
                Err(RecvTimeoutError::Timeout) => {
                    if stop.load(Ordering::Acquire) {
                        return; // server shutting down
                    }
                    if writer.write_all(b"\n").is_err() || writer.flush().is_err() {
                        return; // client gone between events
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Sends one request line to a serving socket and returns the
    /// response line.
    pub fn request_unix(path: &Path, line: &str) -> std::io::Result<String> {
        let mut stream = UnixStream::connect(path)?;
        stream.write_all(format!("{line}\n").as_bytes())?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response)?;
        Ok(response.trim_end().to_owned())
    }
}

#[cfg(unix)]
pub use unix::{request_unix, serve_unix};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{MappingService, ServiceConfig};
    use noc_mapping::SearchMethod;

    fn service() -> MappingService {
        MappingService::start(ServiceConfig::new(2))
    }

    fn solve_request() -> JobRequest {
        let req = SolveRequest::new(
            noc_apps::paper_example::figure1_cdcg(),
            noc_apps::paper_example::mesh_2x2(),
            SearchMethod::Exhaustive,
        );
        JobRequest::Solve(Box::new(req))
    }

    #[test]
    fn submit_wait_round_trip_over_the_wire() {
        let service = service();
        let handle = service.handle();
        let line = encode_submit(&solve_request(), Priority::Normal);
        let reply = handle_line(&handle, &line);
        assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
        assert!(reply.line.contains("\"job\":0"), "{}", reply.line);

        let reply = handle_line(&handle, &encode_op("wait", Some(JobId(0))));
        assert!(reply.line.contains("\"state\":\"done\""), "{}", reply.line);
        assert!(reply.line.contains("\"kind\":\"solve\""), "{}", reply.line);
        assert!(reply.line.contains("\"outcome\""), "{}", reply.line);

        let reply = handle_line(&handle, &encode_op("stats", None));
        assert!(reply.line.contains("\"done\":1"), "{}", reply.line);
    }

    #[test]
    fn evaluate_jobs_cross_the_wire_too() {
        let service = service();
        let handle = service.handle();
        let req = EvaluateRequest {
            app: noc_apps::paper_example::figure1_cdcg(),
            mesh: noc_apps::paper_example::mesh_2x2(),
            mapping: noc_apps::paper_example::mapping_c(),
            tech: Technology::paper_example(),
            params: SimParams::new(),
            routing: RoutingKind::Xy,
            gantt: false,
        };
        let line = encode_submit(&JobRequest::Evaluate(Box::new(req)), Priority::High);
        let reply = handle_line(&handle, &line);
        assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
        let reply = handle_line(&handle, &encode_op("wait", Some(JobId(0))));
        assert!(reply.line.contains("\"state\":\"done\""), "{}", reply.line);
        assert!(
            reply.line.contains("\"kind\":\"evaluate\""),
            "{}",
            reply.line
        );
    }

    #[test]
    fn metrics_trace_and_watch_ops_answer() {
        let service = service();
        let handle = service.handle();
        handle_line(&handle, &encode_submit(&solve_request(), Priority::Normal));
        handle_line(&handle, &encode_op("wait", Some(JobId(0))));

        let reply = handle_line(&handle, &encode_op("metrics", None));
        assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
        assert!(
            reply.line.contains("noc_jobs_completed_total"),
            "{}",
            reply.line
        );
        assert!(reply.line.contains("\"metrics\""), "{}", reply.line);

        let reply = handle_line(&handle, &encode_op("trace", Some(JobId(0))));
        assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
        assert!(reply.line.contains("\"events\""), "{}", reply.line);
        assert!(reply.line.contains("job_start"), "{}", reply.line);

        let reply = handle_line(&handle, &encode_op("trace", Some(JobId(99))));
        assert!(reply.line.contains("\"ok\":false"), "{}", reply.line);

        let reply = handle_line(&handle, &encode_op("watch", None));
        assert!(reply.stream && !reply.shutdown, "{reply:?}");
        assert!(reply.line.contains("\"watch\":true"), "{}", reply.line);
    }

    #[test]
    fn malformed_lines_never_panic() {
        let service = service();
        let handle = service.handle();
        // 100,000 levels of nesting would overflow the connection
        // thread's stack without the parser's depth limit.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        for bad in [
            "not json",
            "{}",
            "{\"op\": \"submit\"}",
            "{\"op\": \"nope\"}",
            "{\"op\": \"status\"}",
            "{\"op\": \"status\", \"job\": 99}",
            "{\"op\": \"submit\", \"job\": {\"kind\": \"solve\"}}",
            &deep,
            &format!("{{\"op\": \"submit\", \"job\": {deep}}}"),
        ] {
            let reply = handle_line(&handle, bad);
            assert!(
                reply.line.contains("\"ok\":false"),
                "{bad} -> {}",
                reply.line
            );
            assert!(!reply.shutdown);
        }
    }

    #[cfg(unix)]
    #[test]
    fn an_over_long_socket_line_is_refused_and_the_server_keeps_serving() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;
        let service = service();
        let path = std::env::temp_dir().join(format!("noc-line-cap-{}.sock", std::process::id()));
        let server = {
            let (handle, path) = (service.handle(), path.clone());
            std::thread::spawn(move || serve_unix(handle, &path))
        };
        let mut stream = (0..500)
            .find_map(|_| {
                UnixStream::connect(&path).ok().or_else(|| {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    None
                })
            })
            .expect("server binds its socket");
        // A server that waited for the newline would never answer.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .expect("timeout set");
        // No newline within the cap. The server stops reading at the cap
        // and hangs up, so the tail of this write may fail.
        let _ = stream.write_all(&vec![b' '; MAX_LINE_BYTES + 1]);
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .expect("refusal arrives");
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(reply.contains(&MAX_LINE_BYTES.to_string()), "{reply}");

        let stats = request_unix(&path, &encode_op("stats", None)).expect("new connection");
        assert!(stats.contains("\"ok\":true"), "{stats}");
        assert!(stats.contains("\"stats\""), "{stats}");
        request_unix(&path, &encode_op("shutdown", None)).expect("shutdown answers");
        server
            .join()
            .expect("server thread")
            .expect("server exits cleanly");
    }

    #[test]
    fn shutdown_is_signalled_to_the_server_loop() {
        let service = service();
        let reply = handle_line(&service.handle(), &encode_op("shutdown", None));
        assert!(reply.shutdown);
        assert!(reply.line.contains("\"ok\":true"));
    }

    #[test]
    fn wire_solve_spec_accepts_text_workloads_and_defaults() {
        let service = service();
        let handle = service.handle();
        // A hand-written request a human could type: text CDCG, default
        // everything, just a mesh and a method.
        let line = concat!(
            "{\"op\": \"submit\", \"job\": {\"kind\": \"solve\", ",
            "\"app_text\": \"core A\\ncore B\\npacket p0 A B comp=6 bits=15\\n\", ",
            "\"mesh\": {\"width\": 2, \"height\": 2, \"depth\": 1}, ",
            "\"method\": \"Exhaustive\"}}"
        );
        let reply = handle_line(&handle, line);
        assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
        let reply = handle_line(&handle, &encode_op("wait", Some(JobId(0))));
        assert!(reply.line.contains("\"state\":\"done\""), "{}", reply.line);
    }
}
