//! Correctness: the paper goldens through the CLI, re-evaluation of every
//! workload result with the full-artifact model, and the result digest.

use crate::config::{self, Workload};
use crate::inputs::Instance;
use crate::proc;
use crate::report::Report;
use noc_energy::total::evaluate_cdcm_with;
use noc_energy::{CdcmEvaluation, Technology};
use noc_model::{Mapping, TileId};
use noc_sim::SimParams;
use std::path::Path;

/// FNV-1a (64-bit) over the results of a run, in job order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one result in: mapping, objective, texec and billed
    /// evaluations, each followed by a separator.
    pub fn add(&mut self, tiles: &[usize], objective: &str, texec: &str, evaluations: u64) {
        let tiles: Vec<String> = tiles.iter().map(usize::to_string).collect();
        for field in [&tiles.join(","), objective, texec, &evaluations.to_string()] {
            self.bytes(field.as_bytes());
            self.bytes(b"|");
        }
    }

    /// Hex form.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// The fields of `noc-cli map` output the benchmark checks.
#[derive(Debug, Clone, PartialEq)]
pub struct MapOutput {
    /// `tile list:` — tile of each core.
    pub tiles: Vec<usize>,
    /// `objective:` in pJ as printed (three decimals).
    pub objective: String,
    /// `texec:` in ns as printed.
    pub texec: String,
    /// `dynamic-only:` in pJ as printed (the CWM view).
    pub cwm_view: String,
    /// `evaluations:` — billed evaluations.
    pub evaluations: u64,
}

fn field<'a>(out: &'a str, key: &str) -> Option<&'a str> {
    out.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim())
}

fn first_word<'a>(out: &'a str, key: &str) -> Option<&'a str> {
    field(out, key)?.split_whitespace().next()
}

/// Parses `noc-cli map` output.
pub fn parse_map(out: &str) -> Option<MapOutput> {
    Some(MapOutput {
        tiles: field(out, "tile list:")?
            .split(',')
            .map(|t| t.trim().parse().ok())
            .collect::<Option<_>>()?,
        objective: first_word(out, "objective:")?.to_owned(),
        texec: first_word(out, "texec:")?.to_owned(),
        cwm_view: first_word(out, "dynamic-only:")?.to_owned(),
        evaluations: first_word(out, "evaluations:")?.parse().ok()?,
    })
}

/// Full CDCM evaluation of `tiles` on `instance`, on the full-artifact
/// schedule path (`evaluate_cdcm` under the instance's routing).
pub fn evaluate_cdcm(instance: &Instance, tiles: &[usize]) -> Result<CdcmEvaluation, String> {
    let mapping = Mapping::from_tiles(&instance.mesh, tiles.iter().map(|&t| TileId::new(t)))
        .map_err(|e| format!("invalid mapping: {e}"))?;
    evaluate_cdcm_with(
        &instance.app,
        &instance.mesh,
        &mapping,
        &Technology::t007(),
        &SimParams::new(),
        instance.routing.algorithm(),
    )
    .map_err(|e| e.to_string())
}

/// Checks a `map` result against a re-evaluation of its mapping: the
/// printed objective and texec must match exactly as printed.
pub fn check_map_result(instance: &Instance, out: &MapOutput) -> Result<(), String> {
    let eval = evaluate_cdcm(instance, &out.tiles)?;
    let objective = format!("{:.3}", eval.objective_pj());
    let texec = eval.texec_ns.to_string();
    if objective != out.objective || texec != out.texec {
        return Err(format!(
            "{}: reported {} pJ / {} ns, re-evaluated {objective} pJ / {texec} ns",
            instance.name, out.objective, out.texec
        ));
    }
    Ok(())
}

/// Runs the paper goldens through the CLI on the Figure 1 app (2×2,
/// `--tech paper`), one operation per golden.
pub fn paper_goldens(cli: &Path, work: &Path, report: &mut Report) -> std::io::Result<()> {
    let app = work.join("figure1.json");
    let json = serde_json::to_string(&noc_apps::paper_example::figure1_cdcg())
        .map_err(std::io::Error::other)?;
    std::fs::write(&app, json)?;
    let app = app.to_string_lossy().into_owned();
    let base = |cmd: &str| -> Vec<String> {
        [cmd, "--app", &app, "--mesh", "2x2", "--tech", "paper"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    };
    for (mapping, energy, texec) in [("1,0,3,2", "400.000", "100"), ("3,0,1,2", "399.000", "90")] {
        let mut args = base("evaluate");
        args.extend(["--mapping".to_owned(), mapping.to_owned()]);
        let run = proc::run(cli, &args)?;
        let got = (
            first_word(&run.stdout, "energy:"),
            first_word(&run.stdout, "texec:"),
        );
        report.operation(if run.success && got == (Some(energy), Some(texec)) {
            Ok(())
        } else {
            Err(format!(
                "golden evaluate {mapping}: want {energy} pJ / {texec} ns, got {got:?}"
            ))
        });
    }
    let mut args = base("map");
    args.extend(["--method".to_owned(), "es".to_owned()]);
    let run = proc::run(cli, &args)?;
    report.operation(match parse_map(&run.stdout) {
        Some(out) if run.success && out.objective == "399.000" && out.cwm_view == "390.000" => {
            Ok(())
        }
        other => Err(format!(
            "golden map --method es: want 399.000 pJ with a 390.000 pJ CWM view, got {other:?}"
        )),
    });
    Ok(())
}

/// Compares a run's digest with the recorded one for its seed.
pub fn check_digest(workload: Workload, seed: u64, digest: &str, report: &mut Report) {
    match config::recorded_digest(workload, seed) {
        Some(want) => {
            report.note(format!("digest: {digest} (recorded {want})"));
            report.operation(if want == digest {
                Ok(())
            } else {
                Err(format!("digest {digest} differs from the recorded {want}"))
            });
        }
        None => report.note(format!(
            "digest: {digest} (no recorded digest for this seed)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAP_OUT: &str = "strategy:     CDCM (ES)\nrouting:      XY\nroute cache:  dense\n\
        mapping:      [c0@t0, c1@t3, c2@t1, c3@t2]\ntile list:    0,3,1,2\n\
        objective:    399.000 pJ\ntexec:        90 ns\n\
        energy:       399.000 pJ (dynamic 390.000 pJ + static 9.000 pJ)\n\
        dynamic-only: 390.000 pJ (the CWM view)\nevaluations:  24\nelapsed:      0.000 s\n";

    #[test]
    fn map_output_parses() {
        let out = parse_map(MAP_OUT).unwrap();
        assert_eq!(out.tiles, vec![0, 3, 1, 2]);
        assert_eq!(out.objective, "399.000");
        assert_eq!(out.texec, "90");
        assert_eq!(out.cwm_view, "390.000");
        assert_eq!(out.evaluations, 24);
        assert_eq!(parse_map("error: nope"), None);
    }

    #[test]
    fn digest_depends_on_every_field_and_the_order() {
        let digest = |rows: &[(&[usize], &str, &str, u64)]| {
            let mut d = Digest::new();
            for (t, o, x, e) in rows {
                d.add(t, o, x, *e);
            }
            d.hex()
        };
        let a = digest(&[(&[0, 1], "1.000", "5", 3), (&[1, 0], "2.000", "6", 4)]);
        assert_eq!(
            a,
            digest(&[(&[0, 1], "1.000", "5", 3), (&[1, 0], "2.000", "6", 4)])
        );
        assert_ne!(
            a,
            digest(&[(&[1, 0], "2.000", "6", 4), (&[0, 1], "1.000", "5", 3)])
        );
        assert_ne!(
            a,
            digest(&[(&[0, 1], "1.000", "5", 3), (&[1, 0], "2.000", "6", 5)])
        );
        assert_eq!(a.len(), 16);
    }
}
