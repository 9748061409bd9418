//! `noc-verify` — the workspace static-analysis gate.
//!
//! Exit codes: 0 = clean (no unsuppressed findings), 1 = findings,
//! 2 = usage or I/O error.

use noc_analyzer::{
    allow::Baseline, analyze_workspace, api, baseline_drift, find_workspace_root,
    workspace_sources, Config, NEVER_BASELINED,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
noc-verify: static-analysis gate for determinism, panic-freedom, lock discipline
and the public API surface

USAGE:
    noc-verify [OPTIONS]

OPTIONS:
    --json                   emit the machine-readable report on stdout
    --root <PATH>            workspace root (default: autodetect from cwd)
    --no-baseline            ignore the checked-in baseline file
    --baseline-drift         fail if the baseline has stale entries matching
                             no current finding (prune with --update-baseline)
    --update-baseline        rewrite the baseline to cover current findings
                             (DET/PANIC/LOCK only; API01/API02/ALLOW01 are never baselined)
    --update-api-manifest    rewrite the API manifest from the live sources
    -h, --help               show this help
";

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut use_baseline = true;
    let mut check_drift = false;
    let mut update_baseline = false;
    let mut update_manifest = false;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--no-baseline" => use_baseline = false,
            "--baseline-drift" => check_drift = true,
            "--update-baseline" => update_baseline = true,
            "--update-api-manifest" => update_manifest = true,
            "--root" => match argv.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("error: could not locate a workspace root (no Cargo.toml with [workspace]); pass --root");
            return ExitCode::from(2);
        }
    };

    if update_manifest {
        let surfaces = match workspace_sources(&root) {
            Ok(sources) => api::surfaces(&sources),
            Err(e) => {
                eprintln!("error: scanning the workspace: {e}");
                return ExitCode::from(2);
            }
        };
        let path = root.join(noc_analyzer::API_MANIFEST_PATH);
        if let Err(e) = std::fs::write(&path, api::render_manifest(&surfaces)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {} ({} entries)", path.display(), surfaces.len());
        return ExitCode::SUCCESS;
    }

    let mut config = Config::new(&root);
    config.use_baseline = use_baseline && !update_baseline;
    let report = match analyze_workspace(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    if update_baseline {
        // Grandfather every currently-unsuppressed DET/PANIC/LOCK
        // finding. API01 goes through --update-api-manifest, an API02
        // item is deleted, narrowed or allowed with a reason, and a bad
        // annotation (ALLOW01) is simply fixed.
        let eligible: Vec<_> = report
            .unsuppressed()
            .filter(|f| !NEVER_BASELINED.contains(&f.rule))
            .collect();
        let path = root.join(noc_analyzer::BASELINE_PATH);
        if let Err(e) = std::fs::write(&path, Baseline::render(&eligible)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {} ({} entries)", path.display(), eligible.len());
        let residual = report
            .unsuppressed()
            .filter(|f| NEVER_BASELINED.contains(&f.rule))
            .count();
        if residual > 0 {
            eprintln!(
                "note: {residual} API01/API02/ALLOW01 finding(s) cannot be baselined and remain open"
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if check_drift {
        let stale = baseline_drift(&config, &report);
        if stale.is_empty() {
            println!(
                "noc-verify: baseline clean ({} finding(s) checked)",
                report.findings.len()
            );
            return ExitCode::SUCCESS;
        }
        for (rule, path, snippet) in &stale {
            println!("STALE {rule} {path}: {snippet}");
        }
        eprintln!(
            "noc-verify: {} stale baseline entr(y/ies) match no current finding; \
             prune with --update-baseline",
            stale.len()
        );
        return ExitCode::FAILURE;
    }

    if json {
        print!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        let (total, open, allowed, baselined) = report.counts();
        println!(
            "noc-verify: {} file(s) scanned, {total} finding(s): {open} open, {allowed} allowed, {baselined} baselined",
            report.files_scanned
        );
    }

    if report.unsuppressed().next().is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
