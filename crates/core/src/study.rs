//! The sensor-bug impact study (§III, Figure 3).
//!
//! The paper manually reviewed 394 bug reports from the ArduPilot and PX4
//! GitHub repositories (2016–2019), kept 215 after pruning, and classified
//! them by root cause, reproducibility and symptom. The raw issue corpus
//! and its manual labels are not available, so this module ships (a) the
//! classification pipeline and (b) a deterministic synthetic corpus whose
//! marginals match the published findings; the Figure-3 harness then runs
//! the pipeline over that corpus. This substitution is recorded under
//! "Deviations from the paper" in the README.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Root-cause classes used by the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RootCause {
    /// Logically incorrect behaviour without a preceding hardware fault.
    Semantic,
    /// Incorrect memory allocation or invalid accesses.
    Memory,
    /// Triggered by a sensor fault.
    Sensor,
    /// Everything else (including concurrency bugs).
    Other,
}

impl fmt::Display for RootCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RootCause::Semantic => "Semantic",
            RootCause::Memory => "Memory",
            RootCause::Sensor => "Sensor",
            RootCause::Other => "Other",
        };
        f.write_str(s)
    }
}

/// Reproducibility classes (Figure 3B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Reproducibility {
    /// Reproducible with standard environment and hardware configuration.
    DefaultSettings,
    /// Requires a special environment (wind, humidity, …).
    CustomEnvironment,
    /// Requires a special environment and special hardware.
    CustomEnvironmentAndHardware,
}

/// Symptom classes (Figure 3C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Outcome {
    /// Crash or fly-away.
    Serious,
    /// Transient effects such as jerks during flight.
    Transient,
    /// No observable symptom.
    Asymptomatic,
}

/// One (synthetic) bug report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BugReportRecord {
    /// Stable identifier within the corpus.
    pub id: u32,
    /// Which firmware the report belongs to.
    pub firmware: &'static str,
    /// Root cause.
    pub cause: RootCause,
    /// Reproducibility class.
    pub reproducibility: Reproducibility,
    /// Outcome class.
    pub outcome: Outcome,
}

/// Aggregated study statistics (the content of Figure 3 and Findings 1–3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyStatistics {
    /// Total reports analysed.
    pub total: usize,
    /// Reports per root cause.
    pub per_cause: Vec<(RootCause, usize)>,
    /// Fraction of all reports that are sensor bugs (Finding 1: ~20 %).
    pub sensor_share: f64,
    /// Fraction of crash-causing reports that are sensor bugs (~40 %).
    pub sensor_share_of_serious: f64,
    /// Fraction of sensor bugs reproducible under default settings
    /// (Finding 2: ~47 %).
    pub sensor_default_reproducible: f64,
    /// Fraction of sensor bugs with serious symptoms (Finding 3: ~34 %).
    pub sensor_serious: f64,
    /// Fraction of semantic bugs that are asymptomatic (~90 %).
    pub semantic_asymptomatic: f64,
}

/// Builds the deterministic synthetic corpus (215 reports) whose marginals
/// match the paper's published statistics.
pub fn synthetic_corpus() -> Vec<BugReportRecord> {
    let mut reports = Vec::new();
    let mut id = 0;
    let mut push = |cause: RootCause,
                    reproducibility: Reproducibility,
                    outcome: Outcome,
                    count: usize,
                    reports: &mut Vec<BugReportRecord>| {
        for _ in 0..count {
            id += 1;
            let firmware = if id % 2 == 0 { "ArduPilot" } else { "PX4" };
            reports.push(BugReportRecord {
                id,
                firmware,
                cause,
                reproducibility,
                outcome,
            });
        }
    };

    use Outcome::*;
    use Reproducibility::*;
    use RootCause::*;

    // 146 semantic bugs (68 %): overwhelmingly asymptomatic, a handful of
    // transient and serious ones.
    push(Semantic, DefaultSettings, Asymptomatic, 120, &mut reports);
    push(Semantic, CustomEnvironment, Asymptomatic, 12, &mut reports);
    push(Semantic, DefaultSettings, Transient, 5, &mut reports);
    push(Semantic, CustomEnvironment, Transient, 2, &mut reports);
    push(Semantic, DefaultSettings, Serious, 7, &mut reports);

    // 44 sensor bugs (20 %): 21 (47 %) reproducible under default settings,
    // 15 (34 %) serious, the rest split between transient and asymptomatic.
    push(Sensor, DefaultSettings, Serious, 8, &mut reports);
    push(Sensor, DefaultSettings, Transient, 8, &mut reports);
    push(Sensor, DefaultSettings, Asymptomatic, 5, &mut reports);
    push(Sensor, CustomEnvironment, Serious, 5, &mut reports);
    push(Sensor, CustomEnvironment, Transient, 6, &mut reports);
    push(Sensor, CustomEnvironment, Asymptomatic, 4, &mut reports);
    push(
        Sensor,
        CustomEnvironmentAndHardware,
        Serious,
        2,
        &mut reports,
    );
    push(
        Sensor,
        CustomEnvironmentAndHardware,
        Transient,
        4,
        &mut reports,
    );
    push(
        Sensor,
        CustomEnvironmentAndHardware,
        Asymptomatic,
        2,
        &mut reports,
    );

    // 12 memory bugs and 13 "other" bugs.
    push(Memory, DefaultSettings, Transient, 6, &mut reports);
    push(Memory, DefaultSettings, Serious, 3, &mut reports);
    push(Memory, CustomEnvironment, Asymptomatic, 3, &mut reports);
    push(Other, DefaultSettings, Serious, 5, &mut reports);
    push(Other, CustomEnvironment, Transient, 5, &mut reports);
    push(
        Other,
        CustomEnvironmentAndHardware,
        Asymptomatic,
        3,
        &mut reports,
    );

    reports
}

/// Runs the classification pipeline over a corpus.
pub fn analyse(reports: &[BugReportRecord]) -> StudyStatistics {
    let total = reports.len();
    let count_cause = |cause: RootCause| reports.iter().filter(|r| r.cause == cause).count();
    let per_cause = vec![
        (RootCause::Semantic, count_cause(RootCause::Semantic)),
        (RootCause::Memory, count_cause(RootCause::Memory)),
        (RootCause::Sensor, count_cause(RootCause::Sensor)),
        (RootCause::Other, count_cause(RootCause::Other)),
    ];
    let sensor: Vec<&BugReportRecord> = reports
        .iter()
        .filter(|r| r.cause == RootCause::Sensor)
        .collect();
    let serious: Vec<&BugReportRecord> = reports
        .iter()
        .filter(|r| r.outcome == Outcome::Serious)
        .collect();
    let semantic: Vec<&BugReportRecord> = reports
        .iter()
        .filter(|r| r.cause == RootCause::Semantic)
        .collect();

    let frac = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    StudyStatistics {
        total,
        sensor_share: frac(sensor.len(), total),
        sensor_share_of_serious: frac(
            serious
                .iter()
                .filter(|r| r.cause == RootCause::Sensor)
                .count(),
            serious.len(),
        ),
        sensor_default_reproducible: frac(
            sensor
                .iter()
                .filter(|r| r.reproducibility == Reproducibility::DefaultSettings)
                .count(),
            sensor.len(),
        ),
        sensor_serious: frac(
            sensor
                .iter()
                .filter(|r| r.outcome == Outcome::Serious)
                .count(),
            sensor.len(),
        ),
        semantic_asymptomatic: frac(
            semantic
                .iter()
                .filter(|r| r.outcome == Outcome::Asymptomatic)
                .count(),
            semantic.len(),
        ),
        per_cause,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_215_reports() {
        let corpus = synthetic_corpus();
        assert_eq!(corpus.len(), 215);
        // Deterministic: building it twice gives the same corpus.
        assert_eq!(corpus, synthetic_corpus());
        // Ids are unique.
        let mut ids: Vec<u32> = corpus.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 215);
    }

    #[test]
    fn statistics_match_the_papers_findings() {
        let stats = analyse(&synthetic_corpus());
        assert_eq!(stats.total, 215);
        // Finding 1: sensor bugs ≈ 20 % of reports, semantic ≈ 68 %.
        assert!(
            (stats.sensor_share - 0.20).abs() < 0.02,
            "{}",
            stats.sensor_share
        );
        let semantic = stats
            .per_cause
            .iter()
            .find(|(c, _)| *c == RootCause::Semantic)
            .map(|(_, n)| *n)
            .unwrap();
        assert!((semantic as f64 / 215.0 - 0.68).abs() < 0.02);
        // Finding 1: sensor bugs ≈ 40 % of crash-causing reports.
        assert!(
            (stats.sensor_share_of_serious - 0.40).abs() < 0.12,
            "{}",
            stats.sensor_share_of_serious
        );
        // Finding 2: ≈ 47 % reproducible under default settings.
        assert!(
            (stats.sensor_default_reproducible - 0.47).abs() < 0.03,
            "{}",
            stats.sensor_default_reproducible
        );
        // Finding 3: ≈ 34 % of sensor bugs are serious.
        assert!(
            (stats.sensor_serious - 0.34).abs() < 0.03,
            "{}",
            stats.sensor_serious
        );
        // Semantic bugs are ≈ 90 % asymptomatic.
        assert!((stats.semantic_asymptomatic - 0.90).abs() < 0.03);
    }

    #[test]
    fn analyse_handles_empty_corpus() {
        let stats = analyse(&[]);
        assert_eq!(stats.total, 0);
        assert_eq!(stats.sensor_share, 0.0);
        assert_eq!(stats.sensor_serious, 0.0);
    }

    #[test]
    fn root_cause_display() {
        assert_eq!(RootCause::Sensor.to_string(), "Sensor");
        assert_eq!(RootCause::Semantic.to_string(), "Semantic");
    }
}
