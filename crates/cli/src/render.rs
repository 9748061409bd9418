//! Rendering: turning service job results into the CLI's text output.
//!
//! The output format predates the service layer and is pinned by the
//! test suite — these functions must keep printing byte-identical lines
//! as the old inline `map`/`evaluate` implementations.

use noc_service::{CriticalityReport, EvaluateResult, RemapReport, SearchTelemetry, SolveResult};
use std::fmt::Write as _;

/// Renders a solve result: the `map` output block, plus telemetry when
/// `show_telemetry` (the `--telemetry` flag) is set. Criticality and
/// remap sections render whenever the job computed them.
pub fn render_solve(out: &mut String, result: &SolveResult, show_telemetry: bool) {
    let _ = writeln!(
        out,
        "strategy:     {} ({})",
        result.outcome.objective, result.outcome.method
    );
    let _ = writeln!(out, "routing:      {}", result.routing);
    let _ = writeln!(out, "route cache:  {}", result.route_tier);
    let _ = writeln!(out, "mapping:      {}", result.outcome.mapping);
    let tiles: Vec<String> = result
        .outcome
        .mapping
        .assignments()
        .map(|(_, t)| t.index().to_string())
        .collect();
    let _ = writeln!(out, "tile list:    {}", tiles.join(","));
    let _ = writeln!(out, "objective:    {:.3} pJ", result.outcome.cost);
    let _ = writeln!(out, "texec:        {} ns", result.texec_ns);
    let _ = writeln!(out, "energy:       {}", result.breakdown);
    let _ = writeln!(out, "dynamic-only: {} (the CWM view)", result.cwm_dynamic);
    let _ = writeln!(out, "evaluations:  {}", result.outcome.evaluations);
    let _ = writeln!(
        out,
        "elapsed:      {:.3} s",
        result.outcome.elapsed.as_secs_f64()
    );
    if show_telemetry {
        render_telemetry(out, &result.telemetry, "");
    }
    if let Some(report) = &result.criticality {
        render_criticality(out, report);
    }
    if let Some(report) = &result.remap {
        render_remap(out, report);
    }
}

/// Renders an evaluate result: the `evaluate` output block, including
/// the Gantt chart when the job produced one.
pub fn render_evaluate(out: &mut String, result: &EvaluateResult) {
    let _ = writeln!(out, "mapping:    {}", result.mapping);
    let _ = writeln!(out, "routing:    {}", result.routing);
    let _ = writeln!(out, "texec:      {} ns", result.texec_ns);
    let _ = writeln!(out, "energy:     {}", result.breakdown);
    let _ = writeln!(
        out,
        "contention: {} events, {} cycles",
        result.contention_events, result.contention_cycles
    );
    if let Some(gantt) = &result.gantt {
        let _ = writeln!(out, "{gantt}");
    }
}

/// Renders the link-criticality report of a mapping.
pub fn render_criticality(out: &mut String, report: &CriticalityReport) {
    let _ = writeln!(
        out,
        "link load:    {} links carry {} routed bits (HHI {:.4})",
        report.links_used, report.total_bits, report.hhi
    );
    let _ = writeln!(
        out,
        "max share:    {:.1}% of traffic rides the busiest link",
        report.max_share * 100.0
    );
    for load in &report.top {
        let _ = writeln!(
            out,
            "  {:>10} bits ({:>5.1}%)  {}",
            load.bits,
            load.share * 100.0,
            load.link
        );
    }
}

/// Renders a fault-injection / re-mapping report.
pub fn render_remap(out: &mut String, report: &RemapReport) {
    let _ = writeln!(out, "fault tolerance:");
    let _ = writeln!(out, "  dead links:  {}", report.dead_links);
    let _ = writeln!(out, "  baseline:    {:.3} pJ", report.baseline_cost);
    if report.partitioned {
        let _ = writeln!(out, "  degraded:    unroutable (mesh partitioned)");
    } else {
        let _ = writeln!(
            out,
            "  degraded:    {:.3} pJ ({:+.2}%)",
            report.degraded_cost,
            (report.degraded_cost / report.baseline_cost - 1.0) * 100.0
        );
    }
    if report.recovered_cost.is_finite() {
        let _ = writeln!(
            out,
            "  recovered:   {:.3} pJ ({:+.2}%) after {} evaluations",
            report.recovered_cost,
            (report.recovery_ratio - 1.0) * 100.0,
            report.evaluations
        );
    } else {
        let _ = writeln!(
            out,
            "  recovered:   never (no connected placement in {} evaluations)",
            report.evaluations
        );
    }
    match report.evals_to_recover {
        Some(0) => {
            let _ = writeln!(out, "  recovery:    immediate (faults missed this mapping)");
        }
        Some(evals) => {
            let _ = writeln!(out, "  recovery:    matched baseline after {evals} evals");
        }
        None => {
            let _ = writeln!(out, "  recovery:    baseline not matched within budget");
        }
    }
}

/// Renders search telemetry: budget rounds, survivors, best-so-far curve,
/// and portfolio children (indented).
pub fn render_telemetry(out: &mut String, telemetry: &SearchTelemetry, indent: &str) {
    let _ = writeln!(
        out,
        "{indent}telemetry:    {} ({} evals, {} curve points)",
        telemetry.strategy,
        telemetry.evaluations,
        telemetry.best_curve.len()
    );
    for round in &telemetry.rounds {
        let budgets: Vec<String> = round
            .budgets
            .iter()
            .map(|b| format!("m{}={}", b.member, b.evals))
            .collect();
        let survivors: Vec<String> = round.survivors.iter().map(usize::to_string).collect();
        let _ = writeln!(
            out,
            "{indent}  round {}: {} -> best {:.3}, survivors [{}]",
            round.round,
            budgets.join(" "),
            round.best_cost,
            survivors.join(",")
        );
    }
    if let (Some(first), Some(last)) = (telemetry.best_curve.first(), telemetry.best_curve.last()) {
        let _ = writeln!(
            out,
            "{indent}  best curve: {:.3} @ {} evals -> {:.3} @ {} evals",
            first.cost, first.evaluations, last.cost, last.evaluations
        );
    }
    for child in &telemetry.children {
        render_telemetry(out, child, &format!("{indent}  "));
    }
}
