//! Command-line option parsing: the `--key value` bag and the scalar
//! parsers shared by every subcommand.
//!
//! Everything here turns strings into model types; nothing here runs a
//! search or touches the service. The request builders in
//! [`crate::request`] compose these parsers into full job requests.

use crate::CliError;
use noc_energy::Technology;
use noc_model::{Cdcg, FaultScenario, Mapping, Mesh, RoutingKind, TileId};
use noc_service::{names, Constraints, Tenure};

/// A parsed option bag: `--key value` pairs plus bare flags.
#[derive(Debug, Clone, Default)]
pub struct Options {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Options {
    /// Parses `args` (without the program and subcommand names).
    ///
    /// # Errors
    ///
    /// Returns an error for a dangling `--key` without a value when the
    /// key is not a known flag.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        const FLAGS: [&str; 7] = [
            "--gantt",
            "--quick",
            "--cwg",
            "--telemetry",
            "--robustness-report",
            "--wait",
            "--json",
        ];
        let mut options = Options::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if !arg.starts_with("--") {
                return Err(format!("unexpected positional argument `{arg}`").into());
            }
            if FLAGS.contains(&arg.as_str()) {
                options.flags.push(arg.clone());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("missing value for `{arg}`"))?;
            options.pairs.push((arg.clone(), value.clone()));
            i += 2;
        }
        Ok(options)
    }

    /// Value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Required value of `--key`.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing option.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| format!("missing required option `{key}`").into())
    }

    /// Parsed value of `--key` with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse as `T`.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for `{key}`").into()),
        }
    }

    /// True if the bare flag was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Checks that every option of `args` (each argument that starts with
/// `--`; no option value does) is one of `known`, the flags subcommand
/// `command` reads. Runs before [`Options::parse`], so a misspelled bare
/// flag is named too, not taken for a key without a value.
///
/// # Errors
///
/// [`names::UnknownKey`] for the first unknown option.
pub(crate) fn check_options(
    args: &[String],
    command: &str,
    known: &[&'static str],
) -> Result<(), CliError> {
    let options = args
        .iter()
        .map(String::as_str)
        .filter(|a| a.starts_with("--"));
    let place = format!("for `noc-cli {command}`");
    Ok(names::check_keys(options, known, "option", &place)?)
}

/// Parses `WxH` or `WxHxD` mesh syntax (e.g. `3x2`, `4x4x4`).
///
/// # Errors
///
/// Returns an error for malformed syntax or zero dimensions.
pub fn parse_mesh(spec: &str) -> Result<Mesh, CliError> {
    let dims: Result<Vec<usize>, CliError> = spec
        .split(['x', 'X'])
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("bad mesh dimension `{part}` in `{spec}`").into())
        })
        .collect();
    match dims?.as_slice() {
        [w, h] => Ok(Mesh::new(*w, *h)?),
        [w, h, d] => Ok(Mesh::new3(*w, *h, *d)?),
        _ => Err(format!("mesh must be WxH or WxHxD, got `{spec}`").into()),
    }
}

/// Resolves the `--mesh`/`--depth` pair: `--depth N` stacks `N` layers
/// of a planar `--mesh WxH` (equivalent to `--mesh WxHxN`).
///
/// # Errors
///
/// Returns an error for a zero depth, a conflicting 3D `--mesh` spec or
/// a mesh above [`noc_service::MAX_MESH_TILES`] tiles.
pub fn parse_mesh_options(options: &Options) -> Result<Mesh, CliError> {
    let mesh = parse_mesh(options.require("--mesh")?)?;
    let mesh = match options.get("--depth") {
        None => mesh,
        Some(_) if mesh.depth() > 1 => {
            return Err("pass either --mesh WxHxD or --depth N, not both".into())
        }
        Some(d) => {
            let depth: usize = d.parse().map_err(|_| format!("bad depth `{d}`"))?;
            Mesh::new3(mesh.width(), mesh.height(), depth)?
        }
    };
    noc_service::check_mesh(&mesh)?;
    Ok(mesh)
}

/// Parses a comma-separated tile list into a mapping on `mesh`.
///
/// # Errors
///
/// Returns an error for unparsable indices or invalid (non-injective /
/// out-of-mesh) placements.
pub fn parse_mapping(spec: &str, mesh: &Mesh) -> Result<Mapping, CliError> {
    let tiles: Result<Vec<TileId>, CliError> = spec
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map(TileId::new)
                .map_err(|_| format!("bad tile index `{part}`").into())
        })
        .collect();
    Ok(Mapping::from_tiles(mesh, tiles?)?)
}

/// Resolves a routing-algorithm name (`xy`, `yx`, `torus-xy`, `xyz`,
/// `torus-xyz`) through [`RoutingKind::from_name`].
///
/// # Errors
///
/// Returns an error for unknown names.
pub fn parse_routing(name: &str) -> Result<RoutingKind, CliError> {
    Ok(names::routing(name)?)
}

/// Parses a `--tenure` value: a fixed iteration count, or `auto` to
/// scale the tabu tenure with √tile_count.
///
/// # Errors
///
/// Returns an error for values that are neither `auto` nor an integer.
pub fn parse_tenure(value: &str) -> Result<Tenure, CliError> {
    match value.trim() {
        "auto" => Ok(Tenure::Auto),
        n => n
            .parse()
            .map(Tenure::Fixed)
            .map_err(|_| format!("invalid value `{n}` for `--tenure` (auto|N)").into()),
    }
}

/// Resolves a technology name (`paper`, `0.35`, `0.07`, `0.35um`, …)
/// through [`Technology::from_name`].
///
/// # Errors
///
/// Returns an error for unknown names.
pub fn parse_technology(name: &str) -> Result<Technology, CliError> {
    Ok(names::technology(name)?)
}

/// Loads the `--app` application graph: JSON by default, the
/// line-oriented text format for `.cdcg`/`.txt` paths.
///
/// # Errors
///
/// Returns an error for IO failures, parse errors (with `path:line:`
/// context for the text format) and invalid graphs.
pub fn load_app(options: &Options) -> Result<Cdcg, CliError> {
    let path = options.require("--app")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    // `.cdcg`/`.txt` files use the line-oriented text format (typed
    // errors with line context); everything else is the JSON CDCG.
    let lower = path.to_ascii_lowercase();
    let cdcg: Cdcg = if lower.ends_with(".cdcg") || lower.ends_with(".txt") {
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
pub fn parse_fault_scenario(options: &Options) -> Result<Option<FaultScenario>, CliError> {
    let Some(count) = options.get("--faults") else {
        return Ok(None);
    };
    let count: usize = count
        .parse()
        .map_err(|_| format!("invalid value `{count}` for `--faults`"))?;
    let seed: u64 = options.get_parsed("--fault-seed", 0)?;
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

/// Parses `--pin c0:t3,c2:t0` syntax into [`Constraints`].
///
/// # Errors
///
/// Returns an error for malformed entries or conflicting pins.
pub fn parse_pins(spec: &str) -> Result<Constraints, CliError> {
    let mut constraints = Constraints::new();
    for entry in spec.split(',') {
        let (core, tile) = entry
            .split_once(':')
            .ok_or_else(|| format!("pin must be core:tile, got `{entry}`"))?;
        let core: usize = core
            .trim()
            .trim_start_matches('c')
            .parse()
            .map_err(|_| format!("bad core in pin `{entry}`"))?;
        let tile: usize = tile
            .trim()
            .trim_start_matches('t')
            .parse()
            .map_err(|_| format!("bad tile in pin `{entry}`"))?;
        constraints = constraints.pin(noc_model::CoreId::new(core), TileId::new(tile))?;
    }
    Ok(constraints)
}

/// Writes `content` to `--out` when given, otherwise returns it as the
/// command output.
///
/// # Errors
///
/// Returns an error on IO failures.
pub fn emit(options: &Options, content: &str) -> Result<String, CliError> {
    match options.get("--out") {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            Ok(format!("written to {path}\n"))
        }
        None => Ok(content.to_owned()),
    }
}
