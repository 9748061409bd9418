//! `suite`: the Table 1 benchmark suite.

use crate::options::{emit, Options};
use crate::CliError;
use std::fmt::Write as _;

/// `suite`: list the Table 1 benchmarks or export one as JSON.
///
/// # Errors
///
/// Returns an error for out-of-range rows or IO failures.
pub(crate) fn cmd_suite(options: &Options) -> Result<String, CliError> {
    match options.get("--row") {
        None => {
            let mut out = String::new();
            let _ = writeln!(out, "row  name       NoC    cores  packets  total bits");
            for (i, row) in noc_apps::TABLE1_ROWS.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{:3}  {:9}  {:5}  {:5}  {:7}  {}",
                    i, row.name, row.group, row.cores, row.packets, row.total_bits
                );
            }
            let _ = writeln!(out, "export one with: noc-cli suite --row N --out app.json");
            Ok(out)
        }
        Some(row) => {
            let index: usize = row.parse().map_err(|_| format!("bad row `{row}`"))?;
            let spec = noc_apps::TABLE1_ROWS
                .get(index)
                .ok_or_else(|| format!("row {index} out of range (0..18)"))?;
            let bench = noc_apps::Benchmark::from_spec(*spec);
            let json = serde_json::to_string_pretty(&bench.cdcg)?;
            emit(options, &json)
        }
    }
}
