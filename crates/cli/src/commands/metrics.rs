//! `metrics`: fetch the metrics snapshot of a running service.

use crate::options::Options;
use crate::CliError;

/// `metrics`: ask a running `noc-cli serve` instance for its metrics
/// via the `metrics` socket op. By default prints the Prometheus text
/// exposition; `--json` prints the raw JSON reply (exposition plus the
/// structured snapshot) instead.
///
/// # Errors
///
/// Returns an error on bad options, socket failures, or a malformed
/// reply.
#[cfg(unix)]
pub(crate) fn cmd_metrics(options: &Options) -> Result<String, CliError> {
    use noc_service::names::require;
    use noc_service::protocol::{encode_op, request_unix};
    use serde::Value;
    use std::path::Path;

    let socket = require(options, "--socket")?.to_owned();
    let socket = Path::new(&socket);
    let reply = request_unix(socket, &encode_op("metrics", None))
        .map_err(|e| format!("request to `{}`: {e}", socket.display()))?;
    if options.flag("--json") {
        return Ok(format!("{reply}\n"));
    }
    let value = serde_json::parse(&reply).map_err(|e| format!("bad reply `{reply}`: {e}"))?;
    match value.get_field("exposition") {
        Some(Value::Str(text)) => Ok(text.clone()),
        _ => Err(format!("server refused the metrics op: {reply}").into()),
    }
}

/// `metrics` needs Unix domain sockets; other platforms get an error.
///
/// # Errors
///
/// Always errors on non-Unix platforms.
#[cfg(not(unix))]
pub(crate) fn cmd_metrics(_options: &Options) -> Result<String, CliError> {
    Err("`metrics` requires Unix domain sockets, unavailable on this platform".into())
}
