//! `watch`: stream live service events from a running server.

use crate::options::Options;
use crate::CliError;

/// `watch`: subscribe to a running `noc-cli serve` instance via the
/// `watch` socket op and print every service event as one JSON line,
/// live, as jobs move through the queue (submit, start, per-round
/// progress, completion). `--count N` disconnects after `N` events;
/// without it the stream runs until the server shuts down. Blank
/// heartbeat lines the server uses to probe the connection are skipped.
///
/// # Errors
///
/// Returns an error on bad options, socket failures, or a rejected
/// watch handshake.
#[cfg(unix)]
pub(crate) fn cmd_watch(options: &Options) -> Result<String, CliError> {
    use noc_service::names::{parsed, require};
    use std::io::Write;

    let socket = require(options, "--socket")?.to_owned();
    let limit: u64 = parsed(options, "--count", 0)?;
    let stdout = std::io::stdout();
    let seen = watch_stream(std::path::Path::new(&socket), limit, |line| {
        // Print each event the moment it arrives: `watch` is a live
        // view, not a batch report.
        let mut out = stdout.lock();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    })?;
    Ok(format!("watched {seen} event(s) from {socket}\n"))
}

/// Connects, performs the `watch` handshake, and feeds every event line
/// to `on_event` until `limit` events arrived (0 = no limit) or the
/// server closes the stream. Returns the number of events seen.
/// Factored out of [`cmd_watch`] so tests can collect the lines instead
/// of printing them.
///
/// # Errors
///
/// Returns an error on socket failures or a rejected handshake.
#[cfg(unix)]
pub(crate) fn watch_stream(
    socket: &std::path::Path,
    limit: u64,
    mut on_event: impl FnMut(&str),
) -> Result<u64, CliError> {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let mut stream = UnixStream::connect(socket)
        .map_err(|e| format!("connect to `{}`: {e}", socket.display()))?;
    stream
        .write_all(b"{\"op\":\"watch\"}\n")
        .and_then(|()| stream.flush())
        .map_err(|e| format!("watch request to `{}`: {e}", socket.display()))?;
    let mut reader = BufReader::new(stream);

    let mut ack = String::new();
    reader
        .read_line(&mut ack)
        .map_err(|e| format!("watch handshake on `{}`: {e}", socket.display()))?;
    if !ack.contains("\"ok\":true") {
        return Err(format!("server refused the watch op: {}", ack.trim_end()).into());
    }

    let mut seen = 0u64;
    let mut line = String::new();
    while limit == 0 || seen < limit {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break, // server closed the stream
            Ok(_) => {
                let event = line.trim_end();
                if event.is_empty() {
                    continue; // heartbeat
                }
                on_event(event);
                seen += 1;
            }
        }
    }
    Ok(seen)
}

/// `watch` needs Unix domain sockets; other platforms get an error.
///
/// # Errors
///
/// Always errors on non-Unix platforms.
#[cfg(not(unix))]
pub(crate) fn cmd_watch(_options: &Options) -> Result<String, CliError> {
    Err("`watch` requires Unix domain sockets, unavailable on this platform".into())
}
