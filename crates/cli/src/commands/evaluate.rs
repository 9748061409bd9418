//! `evaluate`: score one explicit mapping.

use crate::commands::run_job;
use crate::options::Options;
use crate::render::render_evaluate;
use crate::request::evaluate_request;
use crate::CliError;
use noc_service::{JobRequest, ServiceConfig};

/// `evaluate`: score one explicit mapping (optionally with a Gantt
/// chart) through the service layer.
///
/// # Errors
///
/// Returns an error on bad options or an invalid mapping.
pub(crate) fn cmd_evaluate(options: &Options) -> Result<String, CliError> {
    let request = evaluate_request(options)?;
    let result = run_job(
        JobRequest::Evaluate(Box::new(request)),
        ServiceConfig::new(1),
    )?;
    let result = result
        .as_evaluate()
        .ok_or("service returned the wrong result kind")?;
    let mut out = String::new();
    render_evaluate(&mut out, result);
    Ok(out)
}
