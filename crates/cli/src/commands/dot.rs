//! `dot`: Graphviz export of the application graphs.

use crate::options::{emit, load_app, Options};
use crate::CliError;

/// `dot`: Graphviz export of the CDCG (default) or collapsed CWG.
///
/// # Errors
///
/// Returns an error on load failures.
pub(crate) fn cmd_dot(options: &Options) -> Result<String, CliError> {
    let app = load_app(options)?;
    let dot = if options.flag("--cwg") || options.get("--graph") == Some("cwg") {
        noc_model::dot::cwg_to_dot(&app.to_cwg())
    } else {
        noc_model::dot::cdcg_to_dot(&app)
    };
    emit(options, &dot)
}
