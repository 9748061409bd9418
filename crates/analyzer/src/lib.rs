//! # noc-analyzer (`noc-verify`)
//!
//! An offline, dependency-free static-analysis pass over the workspace
//! source — the machine-checked gate for the invariants the paper
//! reproduction depends on but the compiler cannot see:
//!
//! | Rule    | Family        | Checks |
//! |---------|---------------|--------|
//! | DET01   | determinism   | `HashMap`/`HashSet` iteration, `retain`, `drain` in seed-deterministic crates |
//! | DET02   | determinism   | `Instant::now`/`SystemTime::now` outside the annotated telemetry helper |
//! | DET03   | determinism   | `available_parallelism` / environment reads flowing into search behavior |
//! | DET04   | determinism   | any `std::time` mention in `crates/obs` outside its annotated clock module |
//! | PANIC01 | panic paths   | `unwrap`/`expect`/`panic!`/`unreachable!`/unchecked indexing on route-resolution and scheduler hot files |
//! | LOCK01  | lock discipline | a second guard acquired while one is live in the same scope |
//! | LOCK02  | lock discipline | a guard held across a call into user-supplied objective/callback code |
//! | SHIM01  | shim conformance | `crates/shims/*` public surface vs the checked-in manifest |
//! | ALLOW01 | meta          | malformed/reasonless `noc-verify:` annotations |
//!
//! Suppression is explicit only: an inline
//! `// noc-verify: allow(RULE) — reason` (reason mandatory) or an entry
//! in the checked-in baseline (`crates/analyzer/baseline.txt`) for
//! grandfathered sites. Zero unsuppressed findings is the CI gate.

#![forbid(unsafe_code)]

pub mod allow;
pub mod findings;
pub mod rules;
pub mod scan;
pub mod shim;

use allow::Baseline;
use findings::{Finding, Report, Suppression};
use rules::RuleSet;
use std::path::{Path, PathBuf};

/// Every rule id the gate knows (the set `allow(…)` validates against).
pub const KNOWN_RULES: &[&str] = &[
    "DET01", "DET02", "DET03", "DET04", "PANIC01", "LOCK01", "LOCK02", "SHIM01", "ALLOW01",
];

/// Crates whose behavior must be bit-reproducible from a seed. DET
/// rules scan these; `cli` and `bench` may read clocks freely (their
/// timing output is the telemetry). The service layer is in scope: it
/// promises worker-count-independent results, so provider registry and
/// queue code must not iterate hash maps or consult the environment.
/// `obs` instruments the deterministic engines from inside their hot
/// loops, so it inherits the full determinism scope plus DET04.
pub const DET_CRATES: &[&str] = &["search", "mapping", "model", "sim", "service", "obs"];

/// The one file in `crates/obs` allowed to mention `std::time` (behind
/// an inline DET02 allow); everywhere else in the crate DET04 fires.
pub const OBS_CLOCK_MODULE: &str = "crates/obs/src/clock.rs";

/// Route-resolution and scheduler inner-loop files — the paths the
/// fault-tolerance and walk-memo changes audited by hand; PANIC01
/// keeps them audited.
pub const PANIC_HOT_FILES: &[&str] = &[
    "crates/model/src/route_provider.rs",
    "crates/model/src/fault.rs",
    "crates/model/src/route_cache.rs",
    "crates/model/src/walk_memo.rs",
    "crates/sim/src/cost.rs",
    "crates/sim/src/queue.rs",
];

/// Workspace-relative locations of the analyzer's own state files.
pub const BASELINE_PATH: &str = "crates/analyzer/baseline.txt";
/// See [`BASELINE_PATH`].
pub const SHIM_MANIFEST_PATH: &str = "crates/analyzer/shim_manifest.txt";

/// Analysis configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root.
    pub root: PathBuf,
    /// Consult the checked-in baseline (disabled by `--no-baseline`).
    pub use_baseline: bool,
}

impl Config {
    /// Configuration rooted at `root` with the baseline enabled.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            use_baseline: true,
        }
    }
}

/// Finds the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Which rule families apply to a workspace-relative path.
pub fn ruleset_for(rel_path: &str) -> RuleSet {
    if rel_path.starts_with("crates/shims/") {
        // Shims are API mirrors, not seed-deterministic engine code;
        // SHIM01 owns them (checked separately against the manifest).
        return RuleSet::default();
    }
    let determinism = DET_CRATES
        .iter()
        .any(|c| rel_path.starts_with(&format!("crates/{c}/src/")));
    RuleSet {
        determinism,
        obs_time: rel_path.starts_with("crates/obs/src/") && rel_path != OBS_CLOCK_MODULE,
        panic_paths: PANIC_HOT_FILES.contains(&rel_path),
        locks: rel_path.starts_with("crates/") && rel_path.ends_with(".rs"),
    }
}

/// Analyzes one source string as if it lived at `rel_path` — rule
/// scoping is decided by the pretend path. This is the entry the
/// fixture suite drives.
pub fn analyze_source(rel_path: &str, source: &str, baseline: &Baseline) -> Vec<Finding> {
    let lines = scan::scan(source);
    let (allows, mut findings) = allow::collect_allows(rel_path, &lines);
    let raw = rules::check_file(rel_path, &lines, ruleset_for(rel_path));
    for mut f in raw {
        if let Some(site) = allows
            .iter()
            .find(|a| a.target_line == f.line && a.rules.iter().any(|r| r == f.rule))
        {
            f.suppressed = Some(Suppression::Allow {
                reason: site.reason.clone(),
            });
        } else if baseline.covers(f.rule, rel_path, &f.snippet) {
            f.suppressed = Some(Suppression::Baseline);
        }
        findings.push(f);
    }
    findings
}

/// Runs the full workspace analysis: every `crates/*/src/**/*.rs` under
/// the configured root plus the shim-manifest diff.
pub fn analyze_workspace(config: &Config) -> std::io::Result<Report> {
    let baseline = if config.use_baseline {
        match std::fs::read_to_string(config.root.join(BASELINE_PATH)) {
            Ok(text) => Baseline::parse(&text),
            Err(_) => Baseline::default(),
        }
    } else {
        Baseline::default()
    };

    let mut report = Report::default();
    let mut files = Vec::new();
    collect_crate_sources(&config.root.join("crates"), &mut files)?;
    files.sort();

    for file in files {
        let rel = file
            .strip_prefix(&config.root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let rules = ruleset_for(&rel);
        let scanned_for_rules = rules.determinism || rules.panic_paths || rules.locks;
        if !scanned_for_rules {
            continue;
        }
        let source = std::fs::read_to_string(&file)?;
        report
            .findings
            .extend(analyze_source(&rel, &source, &baseline));
        report.files_scanned += 1;
    }

    // SHIM01: live surfaces vs the checked-in manifest.
    let manifest_text =
        std::fs::read_to_string(config.root.join(SHIM_MANIFEST_PATH)).unwrap_or_default();
    report.findings.extend(shim::check_manifest(
        &config.root,
        &manifest_text,
        SHIM_MANIFEST_PATH,
    )?);

    report.sort();
    Ok(report)
}

/// Baseline entries that match no finding in `report` — stale
/// grandfather rows whose flagged line was since fixed, moved or
/// deleted. A clean gate requires pruning them (regenerate with
/// `--update-baseline`): a stale entry is a suppression waiting to
/// silently swallow a future regression on an unrelated line.
pub fn baseline_drift(config: &Config, report: &Report) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(config.root.join(BASELINE_PATH)).unwrap_or_default();
    let baseline = Baseline::parse(&text);
    let live: std::collections::BTreeSet<(&str, &str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.snippet.as_str()))
        .collect();
    baseline
        .entries()
        .filter(|(rule, path, snippet)| {
            !live.contains(&(rule.as_str(), path.as_str(), snippet.as_str()))
        })
        .cloned()
        .collect()
}

/// Collects `src/**/*.rs` files of every crate under `dir` (skipping
/// `target/`, `fixtures/` and crate `tests/` directories — integration
/// tests are test code).
fn collect_crate_sources(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(name.as_str(), "target" | "fixtures" | "tests") {
                continue;
            }
            collect_crate_sources(&path, out)?;
        } else if name.ends_with(".rs") && path.components().any(|c| c.as_os_str() == "src") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rulesets_scope_by_path() {
        let det = ruleset_for("crates/search/src/tabu.rs");
        assert!(det.determinism && det.locks && !det.panic_paths && !det.obs_time);
        let obs = ruleset_for("crates/obs/src/trace.rs");
        assert!(obs.determinism && obs.obs_time && obs.locks);
        let clock = ruleset_for(OBS_CLOCK_MODULE);
        assert!(
            clock.determinism && !clock.obs_time,
            "the clock module is the one exemption"
        );
        let hot = ruleset_for("crates/sim/src/cost.rs");
        assert!(hot.determinism && hot.panic_paths);
        let service = ruleset_for("crates/service/src/registry.rs");
        assert!(service.determinism && service.locks && !service.panic_paths);
        let cli = ruleset_for("crates/cli/src/lib.rs");
        assert!(!cli.determinism && cli.locks);
        let shim = ruleset_for("crates/shims/rand/src/lib.rs");
        assert!(!shim.determinism && !shim.locks && !shim.panic_paths);
    }

    #[test]
    fn stale_baseline_entries_are_drift() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/drift-test");
        std::fs::create_dir_all(root.join("crates/analyzer")).expect("test scratch dir");
        std::fs::write(
            root.join(BASELINE_PATH),
            "PANIC01\tcrates/sim/src/cost.rs\tlive line\n\
             PANIC01\tcrates/sim/src/cost.rs\tgone line\n",
        )
        .expect("test baseline");
        let report = Report {
            findings: vec![Finding {
                rule: "PANIC01",
                path: "crates/sim/src/cost.rs".to_owned(),
                line: 1,
                message: String::new(),
                snippet: "live line".to_owned(),
                suppressed: Some(Suppression::Baseline),
            }],
            files_scanned: 1,
        };
        let drift = baseline_drift(&Config::new(&root), &report);
        assert_eq!(
            drift,
            vec![(
                "PANIC01".to_owned(),
                "crates/sim/src/cost.rs".to_owned(),
                "gone line".to_owned()
            )],
            "only the entry with no matching finding is stale"
        );
    }

    #[test]
    fn allow_suppresses_with_reason() {
        let src = "let t = Instant::now(); // noc-verify: allow(DET02) — telemetry only\n";
        let f = analyze_source("crates/search/src/x.rs", src, &Baseline::default());
        let det02: Vec<_> = f.iter().filter(|f| f.rule == "DET02").collect();
        assert_eq!(det02.len(), 1);
        assert!(det02[0].suppressed.is_some());
    }

    #[test]
    fn baseline_suppresses_by_content() {
        let src = "let x = spans[i];\n";
        let text = "PANIC01\tcrates/sim/src/cost.rs\tlet x = spans[i];\n";
        let f = analyze_source("crates/sim/src/cost.rs", src, &Baseline::parse(text));
        let p: Vec<_> = f.iter().filter(|f| f.rule == "PANIC01").collect();
        assert_eq!(p.len(), 1);
        assert!(p[0].suppressed.is_some());
    }
}
