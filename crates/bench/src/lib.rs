//! # avis-bench
//!
//! Shared helpers for the benchmark harnesses that regenerate every table
//! and figure of the paper's evaluation (§VI). Each table/figure has a
//! dedicated binary under `src/bin/` (see "Benches" in the README for
//! the index); the Criterion benches under `benches/` measure the hot paths
//! and run a scaled-down version of the Table III comparison.
//!
//! The harnesses configure campaigns through the fluent
//! [`avis::campaign::Campaign`] builder and the
//! [`avis::matrix::ScenarioMatrix`] grid API.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use avis::campaign::Campaign;
use avis::checker::{Approach, Budget, CampaignResult};
use avis::matrix::ScenarioMatrix;
use avis::runner::ExperimentConfig;
use avis_firmware::{BugSet, FirmwareProfile};
use avis_workload::ScriptedWorkload;

/// The per-run simulated-time cap shared by the harnesses (s).
pub const MAX_DURATION: f64 = 110.0;

/// Builds the standard experiment configuration used by the harnesses.
pub fn experiment(
    profile: FirmwareProfile,
    bugs: BugSet,
    workload: ScriptedWorkload,
) -> ExperimentConfig {
    let mut config = ExperimentConfig::new(profile, bugs, workload);
    config.max_duration = MAX_DURATION;
    config
}

/// Runs one campaign with default checker settings.
pub fn campaign(
    approach: Approach,
    profile: FirmwareProfile,
    bugs: BugSet,
    workload: ScriptedWorkload,
    budget: Budget,
) -> CampaignResult {
    Campaign::builder()
        .firmware(profile)
        .bugs(bugs)
        .workload(workload)
        .max_duration(MAX_DURATION)
        .approach(approach)
        .budget(budget)
        .build()
        .run()
}

/// The firmware × workload × approach grid the Table II / III / IV
/// harnesses share: every profile's "current code base" flown on the
/// given workloads under one budget, one campaign per cell.
pub fn evaluation_matrix(
    approaches: impl IntoIterator<Item = Approach>,
    workloads: impl IntoIterator<Item = ScriptedWorkload>,
    budget: Budget,
) -> ScenarioMatrix {
    ScenarioMatrix::new()
        .firmwares(FirmwareProfile::ALL)
        .workloads(workloads)
        .approaches(approaches)
        .budget(budget)
        .max_duration(MAX_DURATION)
}

/// Runs an Avis campaign against a firmware that contains only the given
/// bug and returns the campaign plus the first unsafe condition that the
/// bug caused (used by the Figure 1 / 9 / 10 case-study harnesses).
pub fn first_condition_for(
    bug: avis_firmware::BugId,
    workload: ScriptedWorkload,
    budget: Budget,
) -> (CampaignResult, Option<avis::checker::UnsafeCondition>) {
    let profile = bug.info().firmware;
    let result = campaign(Approach::Avis, profile, BugSet::only(bug), workload, budget);
    let condition = result
        .unsafe_conditions
        .iter()
        .find(|u| u.triggered_bugs.contains(&bug))
        .cloned();
    (result, condition)
}

/// Prints a golden-vs-faulted altitude comparison (the content of the
/// paper's Figure 9 / Figure 10 charts) at two-second resolution.
pub fn altitude_chart(golden: &avis::trace::Trace, faulted: &avis::trace::Trace) {
    println!(
        "{}",
        header(&["t (s)", "golden alt (m)", "faulted alt (m)", "faulted mode"])
    );
    let horizon = golden.duration.max(faulted.duration);
    let mut t = 0.0;
    while t <= horizon {
        let g = golden.sample_at(t).map(|s| s.position.z).unwrap_or(0.0);
        let f = faulted.sample_at(t).map(|s| s.position.z).unwrap_or(0.0);
        let mode = faulted
            .mode_at(t)
            .map(|m| m.name())
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{}",
            row(&[
                format!("{t:5.1}"),
                format!("{g:6.2}"),
                format!("{f:6.2}"),
                mode
            ])
        );
        t += 2.0;
    }
}

/// Renders a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Renders a markdown-style header plus separator.
pub fn header(cells: &[&str]) -> String {
    let head = row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    let sep = row(&cells.iter().map(|_| "---".to_string()).collect::<Vec<_>>());
    format!("{head}\n{sep}")
}

/// Formats a boolean as the check-mark notation used in the paper's tables.
pub fn check_mark(found: bool) -> &'static str {
    if found {
        "✓"
    } else {
        "✗"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_helpers() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
        let h = header(&["x", "y"]);
        assert!(h.contains("| x | y |"));
        assert!(h.contains("| --- | --- |"));
        assert_eq!(check_mark(true), "✓");
        assert_eq!(check_mark(false), "✗");
    }

    #[test]
    fn experiment_builder_sets_duration() {
        let cfg = experiment(
            FirmwareProfile::ArduPilotLike,
            BugSet::none(),
            avis_workload::auto_box_mission(),
        );
        assert_eq!(cfg.max_duration, MAX_DURATION);
        assert_eq!(cfg.profile, FirmwareProfile::ArduPilotLike);
    }

    #[test]
    fn evaluation_matrix_spans_the_table_iii_grid() {
        let matrix = evaluation_matrix(
            Approach::ALL,
            avis_workload::default_workloads(),
            Budget::simulations(10),
        );
        assert_eq!(matrix.cell_count(), 4 * 2 * 2);
    }
}
