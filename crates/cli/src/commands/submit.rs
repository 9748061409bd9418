//! `submit`: client side of the Unix-socket protocol.

use crate::options::Options;
use crate::CliError;

/// `submit`: send one request to a running `noc-cli serve` instance and
/// print the JSON reply. Without `--op`, the solve/evaluate flags build
/// a job exactly as `map`/`evaluate` would and submit it (`--wait`
/// blocks for the result); `--op
/// status|wait|cancel|stats|shutdown|metrics|trace` sends a control
/// request instead (`--job N` names the job — `trace` requires it and
/// returns the job's recorded flight tape).
///
/// # Errors
///
/// Returns an error on bad options or socket failures.
#[cfg(unix)]
pub(crate) fn cmd_submit(options: &Options) -> Result<String, CliError> {
    use crate::request::{build_solve_request, evaluate_request};
    use noc_service::names::{parsed, require};
    use noc_service::protocol::{encode_op, encode_submit, request_unix};
    use noc_service::{JobId, JobRequest};
    use serde::Value;
    use std::path::Path;

    let socket = require(options, "--socket")?.to_owned();
    let socket = Path::new(&socket);
    let send = |line: &str| -> Result<String, CliError> {
        request_unix(socket, line)
            .map_err(|e| format!("request to `{}`: {e}", socket.display()).into())
    };

    // Control ops bypass request building entirely.
    if let Some(op) = options.get("--op") {
        let job = options.get("--job").map(|_| parsed(options, "--job", 0));
        let job = job.transpose()?.map(JobId);
        let reply = send(&encode_op(op, job))?;
        return Ok(format!("{reply}\n"));
    }

    // `--mapping` selects an evaluate job, anything else is a solve.
    let request = if options.get("--mapping").is_some() {
        JobRequest::Evaluate(Box::new(evaluate_request(options)?))
    } else {
        JobRequest::Solve(Box::new(build_solve_request(options)?))
    };
    let priority = noc_service::names::priority(options.get("--priority").unwrap_or("normal"))?;
    let reply = send(&encode_submit(&request, priority))?;
    if !options.flag("--wait") {
        return Ok(format!("{reply}\n"));
    }

    // Block for the result: pull the job id out of the submit reply and
    // issue a `wait` op for it.
    let value = serde_json::parse(&reply).map_err(|e| format!("bad reply `{reply}`: {e}"))?;
    let job = match value.get_field("job") {
        Some(Value::UInt(id)) => JobId(*id),
        _ => return Err(format!("submit was rejected: {reply}").into()),
    };
    let outcome = send(&encode_op("wait", Some(job)))?;
    Ok(format!("{reply}\n{outcome}\n"))
}

/// `submit` needs Unix domain sockets; other platforms get an error.
///
/// # Errors
///
/// Always errors on non-Unix platforms.
#[cfg(not(unix))]
pub(crate) fn cmd_submit(_options: &Options) -> Result<String, CliError> {
    Err("`submit` requires Unix domain sockets, unavailable on this platform".into())
}
