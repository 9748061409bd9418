//! Command-line option parsing: the `--key value` bag and the parsers of
//! the options no job key reads. The parsers of the job flags sit beside
//! the job key table in [`noc_service::names`].

use crate::CliError;
use noc_model::{Cdcg, FaultScenario};
use noc_service::names::{is_text_app, parsed, read_app, require};

/// A parsed option bag: `--key value` pairs, and bare flags with an
/// empty value.
#[derive(Debug, Clone, Default)]
pub struct Options {
    pairs: Vec<(String, String)>,
}

impl Options {
    /// Parses `args` (without the program and subcommand names).
    ///
    /// # Errors
    ///
    /// Returns an error for a dangling `--key` without a value when the
    /// key is not a known flag.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        const FLAGS: &str = "--gantt --quick --cwg --telemetry --robustness-report --wait --json";
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                return Err(format!("unexpected positional argument `{arg}`").into());
            }
            let value = match FLAGS.split(' ').any(|flag| flag == arg) {
                true => "",
                false => args.next().ok_or(format!("missing value for `{arg}`"))?,
            };
            pairs.push((arg.clone(), value.to_owned()));
        }
        Ok(Options { pairs })
    }

    /// Value of `--key` (empty for a bare flag), if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// True if the bare flag was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// These options with `key` set to `value`, ahead of a value given.
    pub(crate) fn with(&self, key: &str, value: &str) -> Self {
        let mut options = self.clone();
        options.pairs.insert(0, (key.to_owned(), value.to_owned()));
        options
    }
}

/// Loads the `--app` application graph: JSON by default, the
/// line-oriented text format for `.cdcg`/`.txt` paths.
///
/// # Errors
///
/// Returns an error for IO failures, parse errors (with `path:line:`
/// context for the text format) and invalid graphs.
pub fn load_app(options: &Options) -> Result<Cdcg, CliError> {
    let path = require(options, "--app")?;
    let text = read_app(path)?;
    let cdcg: Cdcg = if is_text_app(path) {
        noc_apps::parse_cdcg(&text).map_err(|e| format!("{path}:{}: {e}", e.line()))?
    } else {
        serde_json::from_str(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))?
    };
    cdcg.validate()?;
    Ok(cdcg)
}

/// Parses the fault-injection options (`--faults K`, `--fault-kind
/// link|tsv|region`, `--fault-seed S`) into a scenario, when present.
///
/// # Errors
///
/// Returns an error for unknown kinds or unparsable counts/seeds.
pub(crate) fn parse_fault_scenario(options: &Options) -> Result<Option<FaultScenario>, CliError> {
    if options.get("--faults").is_none() {
        return Ok(None);
    }
    let count: usize = parsed(options, "--faults", 0)?;
    let seed: u64 = parsed(options, "--fault-seed", 0)?;
    let scenario = match options.get("--fault-kind").unwrap_or("link") {
        "link" | "links" => FaultScenario::RandomLinks { count, seed },
        "tsv" | "tsvs" | "pillar" => FaultScenario::RandomTsvs { count, seed },
        // `--faults K` sizes the dead region K×K tiles.
        "region" => FaultScenario::Region {
            width: count,
            height: count,
            seed,
        },
        other => return Err(format!("unknown fault kind `{other}` (link|tsv|region)").into()),
    };
    Ok(Some(scenario))
}

/// Writes `content` to `--out` when given, otherwise returns it as the
/// command output.
///
/// # Errors
///
/// Returns an error on IO failures.
pub(crate) fn emit(options: &Options, content: &str) -> Result<String, CliError> {
    match options.get("--out") {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            Ok(format!("written to {path}\n"))
        }
        None => Ok(content.to_owned()),
    }
}
