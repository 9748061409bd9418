//! `info`: summarize an application graph.

use crate::options::{load_app, Options};
use crate::CliError;
use std::fmt::Write as _;

/// `info`: summarize an application graph.
///
/// # Errors
///
/// Returns an error on load failures.
pub(crate) fn cmd_info(options: &Options) -> Result<String, CliError> {
    let app = load_app(options)?;
    let cwg = app.to_cwg();
    let mut out = String::new();
    let _ = writeln!(out, "cores:        {}", app.core_count());
    let _ = writeln!(out, "packets:      {}", app.packet_count());
    let _ = writeln!(out, "dependences:  {}", app.dependence_count());
    let _ = writeln!(out, "depth:        {}", app.depth());
    let _ = writeln!(out, "total bits:   {}", app.total_volume());
    let _ = writeln!(out, "NCC (flows):  {}", cwg.communication_count());
    let _ = writeln!(out, "NDP:          {}", app.ndp());
    let _ = writeln!(
        out,
        "start/end:    {} / {}",
        app.start_packets().count(),
        app.end_packets().count()
    );
    Ok(out)
}
