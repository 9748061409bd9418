//! `generate`: produce a TGFF-style application, or without `--cores` the
//! paper's Figure 1 example.

use crate::options::{emit, Options};
use crate::CliError;
use noc_service::names::parsed;

/// `generate`: produce a TGFF-style application, or without `--cores` the
/// paper's Figure 1 example.
///
/// # Errors
///
/// Returns an error on bad options or IO failures.
pub(crate) fn cmd_generate(options: &Options) -> Result<String, CliError> {
    let app = if options.get("--cores").is_none() {
        noc_apps::paper_example::figure1_cdcg()
    } else {
        let cores: usize = parsed(options, "--cores", 6)?;
        let packets: usize = parsed(options, "--packets", 20)?;
        let bits: u64 = parsed(options, "--bits", 10_000)?;
        let seed: u64 = parsed(options, "--seed", 0)?;
        noc_apps::try_generate(&noc_apps::TgffConfig::new(cores, packets, bits, seed))?
    };
    let json = serde_json::to_string_pretty(&app)?;
    emit(options, &json)
}
