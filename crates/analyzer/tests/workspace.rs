//! The gate on the repository itself, in Tier-1: a stale API manifest,
//! a new public item without a caller or a reason, or any other open
//! finding fails `cargo test`, not only the CI analysis job.

use noc_analyzer::{analyze_workspace, baseline_drift, find_workspace_root, Config};
use std::path::Path;

#[test]
fn the_workspace_passes_its_own_gate() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let config = Config::new(root);
    let report = analyze_workspace(&config).expect("the workspace scans");
    let open: Vec<String> = report.unsuppressed().map(|f| f.to_string()).collect();
    assert!(
        open.is_empty(),
        "{} open finding(s); fix them, or regenerate the API manifest with \
         `noc-verify --update-api-manifest` if the surface changed on purpose:\n{}",
        open.len(),
        open.join("\n")
    );
    let stale = baseline_drift(&config, &report);
    assert!(stale.is_empty(), "stale baseline entries: {stale:?}");
}
