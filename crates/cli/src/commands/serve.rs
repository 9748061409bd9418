//! `serve`: run the exploration service behind a Unix socket.

use crate::options::Options;
use crate::CliError;

/// `serve`: start a service instance and speak the line-oriented JSON
/// protocol over a Unix domain socket until a `shutdown` op arrives.
/// Pending jobs drain before the process returns. `--trace FILE`
/// appends every trace event of every served job to `FILE` as JSON
/// lines; the `metrics`, `trace` and `watch` ops expose the same
/// observability over the socket.
///
/// # Errors
///
/// Returns an error on bad options or socket failures.
#[cfg(unix)]
pub(crate) fn cmd_serve(options: &Options) -> Result<String, CliError> {
    use noc_service::names::{parsed, require};
    use noc_service::MappingService;

    let socket = require(options, "--socket")?.to_owned();
    let workers: usize = parsed(options, "--workers", 2)?;
    let service = MappingService::start(crate::commands::service_config(options, workers)?);
    // The accept loop blocks until a shutdown op; announce readiness on
    // stderr so clients scripting against the socket can wait for it.
    eprintln!("noc-service listening on {socket} ({workers} workers)");
    noc_service::protocol::serve_unix(service.handle(), std::path::Path::new(&socket))
        .map_err(|e| format!("serve on `{socket}`: {e}"))?;
    let stats = service.stats();
    Ok(format!(
        "server on {socket} shut down ({} done, {} failed, {} cancelled)\n",
        stats.done, stats.failed, stats.cancelled
    ))
}

/// `serve` needs Unix domain sockets; other platforms get an error.
///
/// # Errors
///
/// Always errors on non-Unix platforms.
#[cfg(not(unix))]
pub(crate) fn cmd_serve(_options: &Options) -> Result<String, CliError> {
    Err("`serve` requires Unix domain sockets, unavailable on this platform".into())
}
