//! `generate`: produce a TGFF-style application (or the paper example).

use crate::options::{emit, Options};
use crate::CliError;

/// `generate`: produce a TGFF-style application (or the paper example).
///
/// # Errors
///
/// Returns an error on bad options or IO failures.
pub(crate) fn cmd_generate(options: &Options) -> Result<String, CliError> {
    let app = if options.get("--paper-example").is_some_and(|v| v == "true")
        || options.get("--cores").is_none()
    {
        noc_apps::paper_example::figure1_cdcg()
    } else {
        let cores: usize = options.get_parsed("--cores", 6)?;
        let packets: usize = options.get_parsed("--packets", 20)?;
        let bits: u64 = options.get_parsed("--bits", 10_000)?;
        let seed: u64 = options.get_parsed("--seed", 0)?;
        noc_apps::try_generate(&noc_apps::TgffConfig::new(cores, packets, bits, seed))?
    };
    let json = serde_json::to_string_pretty(&app)?;
    emit(options, &json)
}
