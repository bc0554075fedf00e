//! # avis-bench
//!
//! Shared helpers for the benchmark harnesses that regenerate every table
//! and figure of the paper's evaluation (§VI). Each table/figure has a
//! dedicated binary under `src/bin/` (see "Benches" in the README for
//! the index). The one bench under `benches/`, `campaign_throughput`,
//! gates the campaign engine's speed-ups against a committed baseline.
//!
//! The harnesses configure campaigns through the fluent
//! [`avis::campaign::Campaign`] builder and the
//! [`avis::matrix::ScenarioMatrix`] grid API.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use avis::campaign::Campaign;
use avis::checker::{Approach, Budget, CampaignResult};
use avis::matrix::ScenarioMatrix;
use avis::runner::{ExperimentConfig, ExperimentRunner};
use avis::trace::Trace;
use avis_firmware::{BugId, BugSet, FirmwareProfile};
use avis_hinj::FaultPlan;
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

/// Re-flies a case study: the golden run and `plan` against the firmware
/// holding only `bug`, in the harnesses' [`experiment`]. Returns the
/// golden and the faulted trace.
pub fn replay(bug: BugId, workload: ScriptedWorkload, plan: &FaultPlan) -> (Trace, Trace) {
    let config = experiment(bug.info().firmware, BugSet::only(bug), workload);
    let mut runner = ExperimentRunner::new(config);
    let golden = runner.run_profiling(0).trace;
    (golden, runner.run_with_plan(plan.clone()).trace)
}

/// A case study's sequence of events, every line read off the traces:
/// each fault of `plan` with the mode the golden run is in when it fires
/// ([`Trace::mode_before`]), the faulted run's mode transitions from the
/// earliest fault on, both peak altitudes, and the collision or its
/// absence.
pub fn case_study_events(plan: &FaultPlan, golden: &Trace, faulted: &Trace) -> Vec<String> {
    let mut faults: Vec<(f64, String)> = plan.specs().map(|s| (s.time, s.to_string())).collect();
    faults.extend(
        plan.link_plan()
            .specs()
            .iter()
            .map(|s| (s.time, s.to_string())),
    );
    faults.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut events: Vec<String> = faults
        .iter()
        .map(|(time, fault)| {
            let mode = golden.mode_before(*time);
            let mode = mode.map_or_else(|| "no mode yet".to_string(), |m| m.name());
            format!("{fault} injected; the golden run is in {mode}")
        })
        .collect();
    let earliest = faults.first().map_or(0.0, |(time, _)| *time);
    events.extend(
        faulted
            .mode_transitions
            .iter()
            .filter(|tr| tr.time >= earliest)
            .map(|tr| format!("{:.1} s: the faulted run enters {}", tr.time, tr.mode)),
    );
    events.push(format!(
        "peak altitude {:.1} m (golden run {:.1} m)",
        faulted.max_altitude(),
        golden.max_altitude()
    ));
    events.push(match faulted.collision {
        Some(c) => format!("collision ({:?}) at {:.1} m/s", c.kind, c.impact_speed),
        None => "no collision".to_string(),
    });
    events
}

/// Prints [`case_study_events`] as a numbered list.
pub fn print_case_study_events(plan: &FaultPlan, golden: &Trace, faulted: &Trace) {
    for (i, event) in case_study_events(plan, golden, faulted).iter().enumerate() {
        println!("  {}. {event}", i + 1);
    }
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
    fn case_study_events_are_read_off_the_traces() {
        use avis::trace::{ModeTransition, StateSample};
        use avis_firmware::OperatingMode;
        use avis_hinj::FaultSpec;
        use avis_sim::{Collision, CollisionKind, SensorInstance, SensorKind, Vec3};

        let trace = |modes: &[(f64, OperatingMode)], peak: f64| Trace {
            sample_interval: 1.0,
            samples: vec![StateSample {
                time: 1.0,
                position: Vec3::new(0.0, 0.0, peak),
                acceleration: Vec3::ZERO,
                mode: modes[0].1,
            }],
            mode_transitions: modes
                .iter()
                .map(|&(time, mode)| ModeTransition { time, mode })
                .collect(),
            collision: None,
            fence_violations: 0,
            workload_status: avis_workload::WorkloadStatus::Running,
            duration: 10.0,
            protocol: Vec::new(),
        };
        let golden = trace(
            &[
                (0.0, OperatingMode::PreFlight),
                (2.0, OperatingMode::Takeoff),
            ],
            20.0,
        );
        let mut faulted = trace(
            &[
                (0.0, OperatingMode::PreFlight),
                (2.0, OperatingMode::Takeoff),
                (6.0, OperatingMode::Land),
            ],
            8.5,
        );
        faulted.collision = Some(Collision {
            kind: CollisionKind::Ground,
            impact_speed: 4.31,
            position: Vec3::ZERO,
        });
        let compass = SensorInstance::new(SensorKind::Compass, 0);
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(compass, 3.0)]);
        assert_eq!(
            case_study_events(&plan, &golden, &faulted),
            [
                "compass[0]@3.000s injected; the golden run is in takeoff",
                "6.0 s: the faulted run enters land",
                "peak altitude 8.5 m (golden run 20.0 m)",
                "collision (Ground) at 4.3 m/s",
            ]
        );
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
