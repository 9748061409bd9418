//! The names and keys of a request, shared by the CLI flags and the
//! socket decoder so that both accept the same spellings and refuse the
//! same mistakes with the same text: one lookup per request enum,
//! [`check_keys`], and `JOB_KEYS`, each key of a job with the `noc-cli`
//! flags that spell it. The wire decoder and `noc-cli` refuse what the
//! table does not list, `noc-cli help` prints its usage, and the CLI
//! writes its flags as the job the wire carries ([`job_from_flags`]) for
//! [`parse_job`](crate::protocol::parse_job), the one decoder, to read.

use crate::job::{check_mesh, Priority};
use noc_energy::Technology;
use noc_mapping::{
    AdaptiveConfig, Constraints, Crossover, GaConfig, PortfolioConfig, RestartBudget, SaConfig,
    SearchMethod, Strategy, TabuConfig, Tenure,
};
use noc_model::{CoreId, Mapping, Mesh, RoutingKind, TileId};
use serde::{Serialize, Value};
use std::fmt;
use std::str::FromStr;

fn lookup<T>(found: Option<T>, what: &str, name: &str, expected: &str) -> Result<T, String> {
    found.ok_or_else(|| format!("unknown {what} `{}` ({expected})", name.trim()))
}

/// [`Technology::from_name`]; an unknown name gets ``unknown technology
/// `NAME` (paper|0.35|0.07)``.
pub fn technology(name: &str) -> Result<Technology, String> {
    let found = Technology::from_name(name);
    lookup(found, "technology", name, "paper|0.35|0.07")
}

/// [`Strategy::from_name`]; an unknown name gets ``unknown strategy
/// `NAME` (cwm|cdcm)``.
pub fn strategy(name: &str) -> Result<Strategy, String> {
    lookup(Strategy::from_name(name), "strategy", name, "cwm|cdcm")
}

/// [`Priority::from_name`]; an unknown name gets ``unknown priority
/// `NAME` (high|normal|low)``.
pub fn priority(name: &str) -> Result<Priority, String> {
    let found = Priority::from_name(name);
    lookup(found, "priority", name, "high|normal|low")
}

/// [`RoutingKind::from_name`]; an unknown name gets ``unknown routing
/// `NAME` (xy|yx|torus-xy|xyz|torus-xyz)``.
pub fn routing(name: &str) -> Result<RoutingKind, String> {
    let found = RoutingKind::from_name(name);
    lookup(found, "routing", name, "xy|yx|torus-xy|xyz|torus-xyz")
}

/// A key that the request it came with does not read, e.g. ``unknown
/// key `sed` in a solve job; did you mean `seed`?``, or gives twice,
/// e.g. ``repeated key `tech` in an evaluate job``.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyError(String);

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for KeyError {}

/// Checks that each of `keys` is one of `known`, whose entries each hold
/// whitespace-separated keys, and that no key comes twice; `noun`
/// (`option`, `key`) and `place` (``for `noc-cli map` ``, `in a solve
/// job`) word the error. An unknown key is named with the known key
/// nearest to it: the first one it abbreviates, else the one the fewest
/// one-character edits away.
///
/// # Errors
///
/// [`KeyError`] for the first key that is unknown or repeated.
///
/// # Panics
///
/// Panics if `known` holds no key.
pub fn check_keys<'k>(
    keys: impl IntoIterator<Item = &'k str>,
    known: &[&'static str],
    noun: &str,
    place: &str,
) -> Result<(), KeyError> {
    let known: Vec<&str> = known.iter().flat_map(|k| k.split_whitespace()).collect();
    let mut seen = Vec::new();
    for key in keys {
        if !known.contains(&key) {
            let distance = |k: &&str| (!k.starts_with(key)).then(|| edit_distance(key, k));
            let nearest = known.into_iter().min_by_key(distance).expect("known keys");
            return Err(KeyError(format!(
                "unknown {noun} `{key}` {place}; did you mean `{nearest}`?"
            )));
        }
        if seen.contains(&key) {
            return Err(KeyError(format!("repeated {noun} `{key}` {place}")));
        }
        seen.push(key);
    }
    Ok(())
}

/// Levenshtein distance over `char`s, one row at a time.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = diagonal + usize::from(ca != cb);
            diagonal = row[j + 1];
            row[j + 1] = substitute.min(row[j] + 1).min(diagonal + 1);
        }
    }
    row[b.len()]
}

/// The text of the `noc-cli` flags a job is written from.
pub trait Flags {
    /// The value given to `flag`, `""` for a bare flag that was given,
    /// `None` for a flag that was not.
    fn text(&self, flag: &str) -> Option<&str>;
}

/// Writes one key of a job from the flags' text, given the first flag
/// of its usage; `None` leaves the key out, to the decoder's default.
type Write = fn(&dyn Flags, &str) -> Result<Option<Value>, String>;

/// One key of a solve or an evaluate job: its wire name, the job kinds
/// that read it, the usage of the flags that spell it as `noc-cli help`
/// prints it (`[--depth N]`, unbracketed when required), and its writer
/// (`None` for a key only the wire spells).
struct JobKey(&'static str, Kinds, &'static str, Option<Write>);

type Kinds = &'static [&'static str];

const BOTH: Kinds = &["solve", "evaluate"];
const SOLVE: Kinds = &["solve"];
const EVALUATE: Kinds = &["evaluate"];

/// Every key of a solve or an evaluate job, in the order `encode_submit`
/// writes them. A misspelled key or flag is pointed to the first of the
/// keys nearest to it, so this order also settles ties.
const JOB_KEYS: [JobKey; 16] = [
    JobKey("kind", BOTH, "", None),
    JobKey("app", BOTH, "--app app.json", Some(app)),
    // Also spelled by `--app`, for a `.cdcg` or `.txt` file.
    JobKey("app_text", BOTH, "", Some(app_text)),
    JobKey("mesh", BOTH, "--mesh WxH[xD] [--depth N]", Some(mesh)),
    JobKey("mapping", EVALUATE, "--mapping t0,t1,...", Some(mapping)),
    JobKey("strategy", SOLVE, "[--strategy cwm|cdcm]", Some(name)),
    JobKey(
        "method",
        SOLVE,
        "[--method sa|sa-multi|adaptive|ga|tabu|portfolio|es|random|greedy] [--restarts N] \
         [--population N] [--rounds N] [--crossover pmx|cycle] [--tenure auto|N] \
         [--neighborhood N]",
        Some(|flags, _| Ok(Some(method(flags)?.to_value()))),
    ),
    JobKey("tech", BOTH, "[--tech paper|0.35|0.07]", Some(name)),
    JobKey("params", BOTH, "", None),
    JobKey(
        "routing",
        BOTH,
        "[--routing xy|yx|torus-xy|xyz|torus-xyz]",
        Some(name),
    ),
    JobKey("faults", SOLVE, "", None),
    JobKey("pins", SOLVE, "[--pin c0:t3,c2:t0]", Some(pins)),
    JobKey(
        "sa_config",
        SOLVE,
        "[--quick] [--evals N]",
        Some(|flags, _| Ok(Some(sa_config(flags)?.to_value()))),
    ),
    JobKey("criticality", SOLVE, "[--robustness-report]", Some(set)),
    JobKey("seed", SOLVE, "[--seed S]", Some(seed)),
    JobKey("gantt", EVALUATE, "[--gantt]", Some(set)),
];

fn keys_of(kind: &str) -> impl Iterator<Item = &'static JobKey> + '_ {
    JOB_KEYS.iter().filter(move |k| k.1.contains(&kind))
}

/// The wire keys of a `kind` job, in table order.
pub(crate) fn wire_keys(kind: &str) -> Vec<&'static str> {
    keys_of(kind).map(|k| k.0).collect()
}

/// The usage of each flag that spells a key of a job of one of `kinds`,
/// in table order: the job flags of a subcommand that writes such jobs.
pub fn job_flags(kinds: &[&str]) -> Vec<&'static str> {
    let keys = JOB_KEYS
        .iter()
        .filter(|k| k.1.iter().any(|kind| kinds.contains(kind)));
    keys.flat_map(|k| split_usage(k.2)).collect()
}

/// The usage of each flag `usage` lists: `--mesh WxH[xD]` and
/// `[--depth N]` of `--mesh WxH[xD] [--depth N]`.
pub fn split_usage(usage: &'static str) -> Vec<&'static str> {
    let mut flags = Vec::new();
    let mut rest = usage.trim();
    while !rest.is_empty() {
        let mut spaces = rest.match_indices(' ').map(|(i, _)| i);
        let end = spaces.find(|&i| rest[i + 1..].starts_with(['[', '-']));
        let (flag, tail) = rest.split_at(end.unwrap_or(rest.len()));
        flags.push(flag);
        rest = tail.trim_start();
    }
    flags
}

/// The flag a usage names: `--depth` of `[--depth N]`.
pub fn flag_name(usage: &str) -> &str {
    let flag = usage.trim_start_matches('[');
    flag.split([' ', ']']).next().unwrap_or(flag)
}

/// The `kind` job that `flags` spell, as the wire carries it: `kind`,
/// then each key a `kind` job reads whose flags were given (the method
/// and the SA profile always), in table order. Refuses the first flag
/// whose text does not parse and an `--app` file that cannot be read or
/// is not JSON.
pub fn job_from_flags(kind: &str, flags: &dyn Flags) -> Result<Value, String> {
    let mut job = vec![("kind".to_owned(), Value::Str(kind.to_owned()))];
    for JobKey(key, _, usage, write) in keys_of(kind) {
        if let Some(value) = write.map_or(Ok(None), |write| write(flags, flag_name(usage)))? {
            job.push(((*key).to_owned(), value));
        }
    }
    Ok(Value::Map(job))
}

/// The value given to `flag`, or ``missing required option `FLAG` ``.
pub fn require<'f>(flags: &'f dyn Flags, flag: &str) -> Result<&'f str, String> {
    flags
        .text(flag)
        .ok_or_else(|| format!("missing required option `{flag}`"))
}

/// The value given to `flag` parsed as `T`, `default` when it was not
/// given, or ``invalid value `V` for `FLAG` ``.
pub fn parsed<T: FromStr>(flags: &dyn Flags, flag: &str, default: T) -> Result<T, String> {
    match flags.text(flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value `{v}` for `{flag}`")),
    }
}

/// A name as given; the decoder resolves it.
fn name(flags: &dyn Flags, flag: &str) -> Result<Option<Value>, String> {
    Ok(flags.text(flag).map(|name| Value::Str(name.to_owned())))
}

/// A bare flag as `true`.
fn set(flags: &dyn Flags, flag: &str) -> Result<Option<Value>, String> {
    Ok(flags.text(flag).map(|_| Value::Bool(true)))
}

fn seed(flags: &dyn Flags, flag: &str) -> Result<Option<Value>, String> {
    let seed = flags.text(flag).map(|_| parsed(flags, flag, 0));
    Ok(seed.transpose()?.map(Value::UInt))
}

fn pins(flags: &dyn Flags, flag: &str) -> Result<Option<Value>, String> {
    let pins = flags.text(flag).map(parse_pins).transpose()?;
    Ok(pins.map(|pins| pins.to_value()))
}

fn mesh(flags: &dyn Flags, _: &str) -> Result<Option<Value>, String> {
    Ok(Some(parse_mesh_options(flags)?.to_value()))
}

/// True for a `.cdcg` or `.txt` application file, which holds the
/// line-oriented text format; any other holds CDCG JSON.
pub fn is_text_app(path: &str) -> bool {
    let lower = path.to_ascii_lowercase();
    lower.ends_with(".cdcg") || lower.ends_with(".txt")
}

/// The text of the application file `path`, or ``cannot read `PATH`: …``.
pub fn read_app(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// `--app FILE` of a JSON file: its parsed JSON.
fn app(flags: &dyn Flags, flag: &str) -> Result<Option<Value>, String> {
    let path = require(flags, flag)?;
    if is_text_app(path) {
        return Ok(None);
    }
    let json = serde_json::parse(&read_app(path)?);
    json.map(Some)
        .map_err(|e| format!("cannot parse `{path}`: {e}"))
}

/// `--app FILE` of a `.cdcg` or `.txt` file: its text.
fn app_text(flags: &dyn Flags, _: &str) -> Result<Option<Value>, String> {
    match flags.text("--app") {
        Some(path) if is_text_app(path) => read_app(path).map(|text| Some(Value::Str(text))),
        _ => Ok(None),
    }
}

/// `--mapping t0,t1,...` as the tile of each core, checked against the
/// mesh of `--mesh`/`--depth`.
fn mapping(flags: &dyn Flags, flag: &str) -> Result<Option<Value>, String> {
    let mapping = parse_mapping(require(flags, flag)?, &parse_mesh_options(flags)?)?;
    Ok(Some(tile_list(&mapping)))
}

/// A mapping as the wire's `mapping`: the tile of each core.
pub(crate) fn tile_list(mapping: &Mapping) -> Value {
    let tiles = mapping.assignments().map(|(_, tile)| tile.index());
    Value::Seq(tiles.map(|tile| Value::UInt(tile as u64)).collect())
}

/// The SA profile every method's budget comes from: `--quick` picks the
/// short profile, `--evals N` caps its evaluations, `--seed S` seeds it.
fn sa_config(flags: &dyn Flags) -> Result<SaConfig, String> {
    let seed = parsed(flags, "--seed", 0)?;
    let mut config = match flags.text("--quick") {
        Some(_) => SaConfig::quick(seed),
        None => SaConfig::new(seed),
    };
    config.max_evaluations = parsed(flags, "--evals", config.max_evaluations)?;
    Ok(config)
}

/// `--method NAME` (default `sa`) with its tuning flags. Every method
/// spends the evaluation budget of the SA profile, so methods compare at
/// equal spend; `sa-multi` divides it across its restarts.
fn method(flags: &dyn Flags) -> Result<SearchMethod, String> {
    let sa = sa_config(flags)?;
    let (budget, seed) = (sa.max_evaluations, sa.seed);
    let restarts = || parsed(flags, "--restarts", 8u32);
    let tenure = |default| flags.text("--tenure").map_or(Ok(default), parse_tenure);
    Ok(match flags.text("--method").unwrap_or("sa") {
        "sa" | "SA" => SearchMethod::SimulatedAnnealing(sa),
        "sa-multi" | "multistart" => SearchMethod::MultiStartSa {
            config: sa,
            restarts: restarts()?,
            budget: RestartBudget::Total,
        },
        "adaptive" => {
            let mut config = AdaptiveConfig::new(seed);
            config.budget = budget;
            config.population = parsed(flags, "--population", config.population)?;
            config.rounds = parsed(flags, "--rounds", config.rounds)?;
            SearchMethod::Adaptive(config)
        }
        "ga" | "genetic" => {
            let mut config = GaConfig::new(seed);
            config.budget = budget;
            config.population = parsed(flags, "--population", config.population)?;
            config.crossover = match flags.text("--crossover").unwrap_or("pmx") {
                "pmx" => Crossover::Pmx,
                "cycle" => Crossover::Cycle,
                other => return Err(format!("unknown crossover `{other}` (pmx|cycle)")),
            };
            SearchMethod::Genetic(config)
        }
        "tabu" => {
            let mut config = TabuConfig::new(seed);
            config.budget = budget;
            config.tenure = tenure(config.tenure)?;
            config.neighborhood = parsed(flags, "--neighborhood", config.neighborhood)?;
            SearchMethod::Tabu(config)
        }
        "portfolio" => {
            let mut config = PortfolioConfig::new(seed);
            config.budget = budget;
            config.restarts = restarts()? as usize;
            config.population = parsed(flags, "--population", config.population)?;
            config.rounds = parsed(flags, "--rounds", config.rounds)?;
            config.tenure = tenure(config.tenure)?;
            SearchMethod::Portfolio(config)
        }
        "exhaustive" | "es" | "ES" => SearchMethod::Exhaustive,
        "random" => SearchMethod::Random {
            samples: 10_000,
            seed,
        },
        "greedy" => SearchMethod::Greedy {
            restarts: restarts()?,
            seed,
        },
        other => {
            return Err(format!(
                "unknown method `{other}` (sa|sa-multi|adaptive|ga|tabu|portfolio|es|random|greedy)"
            ))
        }
    })
}

/// Parses `WxH` or `WxHxD` mesh syntax (e.g. `3x2`, `4x4x4`); refuses
/// malformed syntax and a zero dimension.
pub fn parse_mesh(spec: &str) -> Result<Mesh, String> {
    let dims: Result<Vec<usize>, String> = spec
        .split(['x', 'X'])
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("bad mesh dimension `{part}` in `{spec}`"))
        })
        .collect();
    let mesh = match dims?.as_slice() {
        [w, h] => Mesh::new(*w, *h),
        [w, h, d] => Mesh::new3(*w, *h, *d),
        _ => return Err(format!("mesh must be WxH or WxHxD, got `{spec}`")),
    };
    mesh.map_err(|e| e.to_string())
}

/// Resolves the `--mesh`/`--depth` pair: `--depth N` stacks `N` layers
/// of a planar `--mesh WxH`. Refuses a conflicting 3D `--mesh` and a
/// mesh above [`crate::MAX_MESH_TILES`] tiles.
pub fn parse_mesh_options(flags: &dyn Flags) -> Result<Mesh, String> {
    let mesh = parse_mesh(require(flags, "--mesh")?)?;
    let mesh = match flags.text("--depth") {
        None => mesh,
        Some(_) if mesh.depth() > 1 => {
            return Err("pass either --mesh WxHxD or --depth N, not both".to_owned())
        }
        Some(d) => {
            let depth: usize = d.parse().map_err(|_| format!("bad depth `{d}`"))?;
            Mesh::new3(mesh.width(), mesh.height(), depth).map_err(|e| e.to_string())?
        }
    };
    check_mesh(&mesh)?;
    Ok(mesh)
}

/// Parses a comma-separated tile list into a mapping on `mesh`; refuses
/// an unparsable index and a placement that is not injective or leaves
/// the mesh.
pub fn parse_mapping(spec: &str, mesh: &Mesh) -> Result<Mapping, String> {
    let tile = |part: &str| {
        part.trim()
            .parse()
            .map_err(|_| format!("bad tile index `{part}`"))
    };
    let tiles: Vec<usize> = spec.split(',').map(tile).collect::<Result<_, _>>()?;
    let tiles = tiles.into_iter().map(TileId::new);
    Mapping::from_tiles(mesh, tiles).map_err(|e| e.to_string())
}

/// Parses a `--tenure` value: a fixed iteration count, or `auto` to
/// scale the tabu tenure with √tile_count.
pub fn parse_tenure(value: &str) -> Result<Tenure, String> {
    match value.trim() {
        "auto" => Ok(Tenure::Auto),
        n => n
            .parse()
            .map(Tenure::Fixed)
            .map_err(|_| format!("invalid value `{n}` for `--tenure` (auto|N)")),
    }
}

/// Parses `--pin c0:t3,c2:t0` syntax into [`Constraints`]; refuses a
/// malformed entry and two pins on one tile.
pub fn parse_pins(spec: &str) -> Result<Constraints, String> {
    spec.split(',').try_fold(Constraints::new(), |pins, entry| {
        let (core, tile) = entry
            .split_once(':')
            .ok_or_else(|| format!("pin must be core:tile, got `{entry}`"))?;
        let index = |text: &str, prefix, what| {
            let index = text.trim().trim_start_matches(prefix).parse();
            index.map_err(|_| format!("bad {what} in pin `{entry}`"))
        };
        let (core, tile) = (index(core, 'c', "core")?, index(tile, 't', "tile")?);
        let pinned = pins.pin(CoreId::new(core), TileId::new(tile));
        pinned.map_err(|e| e.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_counts_single_character_edits() {
        assert_eq!(edit_distance("seed", "seed"), 0);
        assert_eq!(edit_distance("sed", "seed"), 1);
        assert_eq!(edit_distance("--methd", "--method"), 1);
        assert_eq!(edit_distance("--evlas", "--evals"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn check_keys_names_the_nearest_known_key() {
        let known = ["op priority", "job"];
        assert!(check_keys(["op", "job"], &known, "key", "in a request").is_ok());
        let error = |key| {
            let err = check_keys(["op", key, "jbo"], &known, "key", "in a request");
            err.unwrap_err().0
        };
        // The first unknown key is named, and an abbreviation names the
        // key it abbreviates.
        assert!(error("prio").ends_with("`prio` in a request; did you mean `priority`?"));
        assert!(error("jb").ends_with("did you mean `job`?"));
        // Otherwise the fewest edits win, the first of equals on a tie.
        assert!(error("pb").ends_with("did you mean `op`?"));
        let err = check_keys(["sed"], &["seed mesh"], "key", "in a solve job").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown key `sed` in a solve job; did you mean `seed`?"
        );
    }

    #[test]
    fn check_keys_refuses_a_repeated_key() {
        let known = ["tech mesh"];
        let err = check_keys(
            ["tech", "mesh", "tech"],
            &known,
            "key",
            "in an evaluate job",
        );
        assert_eq!(
            err.unwrap_err().to_string(),
            "repeated key `tech` in an evaluate job"
        );
        // An unknown key before the repeat is named first.
        let err = check_keys(
            ["tehc", "tech", "tech"],
            &known,
            "key",
            "in an evaluate job",
        );
        assert!(err.unwrap_err().0.starts_with("unknown key `tehc`"));
    }

    #[test]
    fn unknown_names_trim_and_list_the_choices() {
        assert_eq!(
            technology(" 5nm ").unwrap_err(),
            "unknown technology `5nm` (paper|0.35|0.07)"
        );
        assert_eq!(strategy("CwM").unwrap(), Strategy::Cwm);
        assert_eq!(priority(" HIGH").unwrap(), Priority::High);
        assert_eq!(routing(" torus ").unwrap(), RoutingKind::TorusXy);
    }
}
