//! The fixture suite: proves every rule fires exactly where the
//! `//~ RULE` markers say it does on the known-bad snippets, stays
//! silent on the known-good ones, and that suppression — inline allow
//! with a mandatory reason, or a baseline entry — actually suppresses.

use noc_analyzer::allow::Baseline;
use noc_analyzer::findings::{Finding, Suppression};
use noc_analyzer::scan::scan;
use noc_analyzer::{analyze_source, api, workspace_sources};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fixture(name: &str) -> String {
    let path = fixtures_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Expected findings, from `//~ RULE [RULE …]` trailing markers.
fn markers(src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        if let Some(rest) = line.split("//~").nth(1) {
            for rule in rest.split_whitespace() {
                out.push((idx + 1, rule.to_owned()));
            }
        }
    }
    out.sort();
    out
}

fn unsuppressed(findings: &[Finding]) -> Vec<(usize, String)> {
    let mut got: Vec<(usize, String)> = findings
        .iter()
        .filter(|f| f.suppressed.is_none())
        .map(|f| (f.line, f.rule.to_owned()))
        .collect();
    got.sort();
    got
}

/// A known-bad fixture must produce exactly the marked findings.
fn assert_bad(name: &str, pretend_path: &str) {
    let src = fixture(name);
    expect_markers(
        name,
        &src,
        &analyze_source(pretend_path, &src, &Baseline::default()),
    );
}

/// `findings` of the fixture `name` (source `src`) are exactly its
/// `//~` markers.
fn expect_markers(name: &str, src: &str, findings: &[Finding]) {
    let expected = markers(src);
    assert!(!expected.is_empty(), "{name}: fixture has no //~ markers");
    assert_eq!(
        unsuppressed(findings),
        expected,
        "{name}: findings diverge from //~ markers\nall findings: {findings:#?}"
    );
}

/// A known-good fixture must be gate-clean, with at least one finding
/// suppressed by an inline allow that carries a non-empty reason — the
/// proof that suppression-with-reason works end to end.
fn assert_good(name: &str, pretend_path: &str) {
    let src = fixture(name);
    expect_clean(
        name,
        &analyze_source(pretend_path, &src, &Baseline::default()),
    );
}

/// `findings` of the fixture `name` leave the gate clean, with at least
/// one allow that carries a reason.
fn expect_clean(name: &str, findings: &[Finding]) {
    assert_eq!(
        unsuppressed(findings),
        Vec::new(),
        "{name}: expected a clean gate\nall findings: {findings:#?}"
    );
    let allowed: Vec<_> = findings
        .iter()
        .filter_map(|f| match &f.suppressed {
            Some(Suppression::Allow { reason }) => Some(reason),
            _ => None,
        })
        .collect();
    assert!(
        !allowed.is_empty(),
        "{name}: good fixture should exercise at least one allow"
    );
    for reason in allowed {
        assert!(!reason.is_empty(), "{name}: allow accepted an empty reason");
    }
}

#[test]
fn det01_fires_and_suppresses() {
    assert_bad("det01_bad.rs", "crates/search/src/fixture.rs");
    assert_good("det01_good.rs", "crates/search/src/fixture.rs");
}

#[test]
fn det02_fires_and_suppresses() {
    assert_bad("det02_bad.rs", "crates/search/src/fixture.rs");
    assert_good("det02_good.rs", "crates/search/src/fixture.rs");
}

#[test]
fn det03_fires_and_suppresses() {
    assert_bad("det03_bad.rs", "crates/search/src/fixture.rs");
    assert_good("det03_good.rs", "crates/search/src/fixture.rs");
}

#[test]
fn det04_fires_and_suppresses() {
    // The pretend path is inside `crates/obs` but is not the clock
    // module, so the whole-crate `std::time` ban is armed.
    assert_bad("det04_bad.rs", "crates/obs/src/fixture.rs");
    assert_good("det04_good.rs", "crates/obs/src/fixture.rs");
}

#[test]
fn panic01_fires_and_suppresses() {
    // The pretend path must be on the hot list for PANIC01 to arm.
    assert_bad("panic01_bad.rs", "crates/sim/src/cost.rs");
    assert_good("panic01_good.rs", "crates/sim/src/cost.rs");
}

#[test]
fn lock01_fires_and_suppresses() {
    assert_bad("lock01_bad.rs", "crates/cli/src/fixture.rs");
    assert_good("lock01_good.rs", "crates/cli/src/fixture.rs");
}

#[test]
fn lock02_fires_and_suppresses() {
    assert_bad("lock02_bad.rs", "crates/cli/src/fixture.rs");
    assert_good("lock02_good.rs", "crates/cli/src/fixture.rs");
}

#[test]
fn allow01_fires_and_suppresses() {
    assert_bad("allow01_bad.rs", "crates/cli/src/fixture.rs");
    assert_good("allow01_good.rs", "crates/cli/src/fixture.rs");
}

#[test]
fn baseline_grandfathers_known_bad() {
    // Render a baseline from the panic fixture's own findings; with it
    // in force the same file must pass the gate, every finding marked
    // Baseline rather than silently vanishing.
    let src = fixture("panic01_bad.rs");
    let path = "crates/sim/src/cost.rs";
    let open = analyze_source(path, &src, &Baseline::default());
    let baseline = Baseline::parse(&Baseline::render(&open.iter().collect::<Vec<_>>()));
    let grandfathered = analyze_source(path, &src, &baseline);
    assert!(!grandfathered.is_empty());
    assert!(grandfathered
        .iter()
        .all(|f| f.suppressed == Some(Suppression::Baseline)));
}

#[test]
fn baseline_reopens_on_edit() {
    // Editing a flagged line invalidates its (rule, path, content) key.
    let src = fixture("panic01_bad.rs");
    let path = "crates/sim/src/cost.rs";
    let open = analyze_source(path, &src, &Baseline::default());
    let baseline = Baseline::parse(&Baseline::render(&open.iter().collect::<Vec<_>>()));
    let edited = src.replace("opt.unwrap()", "opt2.unwrap()");
    let findings = analyze_source(path, &edited, &baseline);
    let reopened = unsuppressed(&findings);
    assert_eq!(
        reopened.len(),
        1,
        "only the edited line reopens: {findings:#?}"
    );
    assert_eq!(reopened[0].1, "PANIC01");
}

/// API02 over one fixture file, as if it were the whole workspace.
fn api02(src: &str, callers: &[api::Source]) -> Vec<Finding> {
    let path = "crates/mapping/src/fixture.rs".to_owned();
    api::uncalled(&[(path, scan(src))], callers)
}

#[test]
fn api02_fires_and_suppresses() {
    let bad = fixture("api02_bad.rs");
    expect_markers("api02_bad.rs", &bad, &api02(&bad, &[]));
    expect_clean("api02_good.rs", &api02(&fixture("api02_good.rs"), &[]));
}

#[test]
fn api02_counts_callers_outside_the_crates() {
    let caller = (
        "examples/demo.rs".to_owned(),
        scan("fn main() { orphan(); }\n"),
    );
    let findings = api02(&fixture("api02_bad.rs"), &[caller]);
    let flagged: Vec<_> = findings.iter().map(|f| f.line).collect();
    assert_eq!(
        flagged,
        [7, 13, 18],
        "`orphan` has a caller now: {findings:#?}"
    );
}

#[test]
fn api01_good_manifest_is_clean() {
    let root = fixtures_dir().join("api_ws");
    let live = api::surfaces(&workspace_sources(&root).expect("scan fixture workspace"));
    for private in [
        "hidden",
        "internal",
        "main_only",
        "bin_only",
        "Hidden",
        "Internal",
    ] {
        assert!(
            live.iter().all(|e| !e.contains(private)),
            "`{private}` leaked into the surface: {live:#?}"
        );
    }
    let findings = api::check_manifest(&live, &fixture("api_ws_manifest_good.txt"), "manifest.txt");
    assert_eq!(findings, Vec::new(), "good manifest should be drift-free");
}

#[test]
fn api01_stale_manifest_reports_both_drift_directions_in_every_crate() {
    let root = fixtures_dir().join("api_ws");
    let live = api::surfaces(&workspace_sources(&root).expect("scan fixture workspace"));
    let findings =
        api::check_manifest(&live, &fixture("api_ws_manifest_stale.txt"), "manifest.txt");
    assert_eq!(
        findings.len(),
        4,
        "one grown and one vanished entry per crate: {findings:#?}"
    );
    assert!(findings.iter().all(|f| f.rule == "API01"));
    let has = |words: &[&str]| {
        findings
            .iter()
            .any(|f| words.iter().all(|w| f.message.contains(w)))
    };
    assert!(
        has(&["grew", "widget_default", "the real crate's API"]),
        "{findings:#?}"
    );
    assert!(has(&["grew", "gadget_count", "review it"]), "{findings:#?}");
    assert!(!has(&["gadget_count", "real crate"]), "{findings:#?}");
    assert!(has(&["no longer present", "retired"]), "{findings:#?}");
    assert!(
        has(&["no longer present", "removed_helper"]),
        "{findings:#?}"
    );
}
