//! Run report: the environment header, exact work counts, every metric
//! with its unit, the operation tally, and the final JSON line.

use crate::check::Digest;
use crate::config::Workload;
use crate::proc;
use std::path::{Path, PathBuf};

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted (invocations, jobs, golden checks).
    attempted: u64,
    /// Failures, one message each.
    failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    counts: Vec<(String, u64)>,
    notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            counts: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Tallies one operation; `Err` counts it as failed.
    pub fn operation(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failures.push(msg);
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records an exact work count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_owned(), value));
    }

    /// The counts recorded so far.
    pub fn counts(&self) -> &[(String, u64)] {
        &self.counts
    }

    /// Adds a human-readable line to the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the report to standard output; the last line is the JSON
    /// object `{"correct", "attempted", "failed", "metrics"}`.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("counts: {}", counts.join(" "));
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(",")
        );
    }
}

impl Default for Report {
    fn default() -> Self {
        Self::new()
    }
}

/// Content digest of the source tree the program is built from: every
/// manifest and Rust file under `crates/` plus the root manifests. It
/// identifies the code when the checkout carries no git metadata.
pub fn source_digest(root: &Path) -> String {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" {
                    collect(&path, out);
                }
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut digest = Digest::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap_or_default();
        digest.add(&[], &file.to_string_lossy(), &text, 0);
    }
    digest.hex()
}

/// The environment header: CPUs, code identity, toolchain and profile,
/// plus the workload's own parameters in `params`.
pub fn environment(workload: Workload, seed: u64, seconds: u64, params: &str) -> Vec<String> {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    // Only this checkout's own metadata: git would otherwise search the
    // parent directories.
    let commit = Path::new(".git")
        .exists()
        .then(|| proc::tool_output("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten();
    let dirty = commit.as_ref().map(|_| {
        proc::tool_output("git", &["status", "--porcelain"]).is_none_or(|s| !s.is_empty())
    });
    let rustc = proc::tool_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    vec![
        format!(
            "# perfbench workload={} seed={seed} seconds={seconds}",
            workload.name()
        ),
        format!("env: cpus={cpus} cpu_model=\"{model}\""),
        format!(
            "env: commit={} dirty={} source_digest={}",
            commit.as_deref().unwrap_or("unknown (no git metadata)"),
            dirty.map_or("unknown".to_owned(), |d| d.to_string()),
            source_digest(Path::new("."))
        ),
        format!(
            "env: rustc=\"{rustc}\" profile=release bench_profile={}",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
        ),
        format!(
            "params: {params} held_out_seed={}",
            crate::config::HELD_OUT_SEED
        ),
    ]
}

/// Compares this run's exact counts with the record of an earlier run on
/// the same workload, seed, mode and source, and records them when none
/// exists. Returns an error naming the first differing count.
pub fn check_repeat_counts(dir: &Path, key: &str, counts: &[(String, u64)]) -> Result<(), String> {
    let text: String = counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let path = dir.join(format!("{key}.counts"));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == text => Ok(()),
        Ok(previous) => {
            let differs = previous
                .lines()
                .zip(text.lines())
                .find(|(a, b)| a != b)
                .map_or("count set".to_owned(), |(a, b)| format!("{a} then {b}"));
            Err(format!(
                "exact counts differ from an earlier run of {key}: {differs}"
            ))
        }
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(|e| e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_counts_must_match() {
        let dir = std::env::temp_dir().join(format!("perfbench-counts-{}", std::process::id()));
        let counts = vec![("events".to_owned(), 10), ("evaluations".to_owned(), 3)];
        assert!(check_repeat_counts(&dir, "k", &counts).is_ok());
        assert!(check_repeat_counts(&dir, "k", &counts).is_ok());
        let changed = vec![("events".to_owned(), 11), ("evaluations".to_owned(), 3)];
        let err = check_repeat_counts(&dir, "k", &changed).unwrap_err();
        assert!(err.contains("events=10 then events=11"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
