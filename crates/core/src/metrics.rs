//! Aggregation helpers that turn campaign results into the paper's tables.

use crate::checker::{Approach, CampaignResult};
use avis_firmware::{FirmwareProfile, ModeCategory};
use std::collections::BTreeMap;

/// One row of Table III: unsafe scenarios per approach, split by firmware.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsafeScenarioRow {
    /// The approach.
    pub approach: Approach,
    /// Unsafe scenarios found on the ArduPilot-like firmware.
    pub ardupilot: usize,
    /// Unsafe scenarios found on the PX4-like firmware.
    pub px4: usize,
}

impl UnsafeScenarioRow {
    /// The total across both firmware stacks.
    pub fn total(&self) -> usize {
        self.ardupilot + self.px4
    }
}

/// Builds Table III rows (unsafe scenarios per approach per firmware) from
/// a set of campaign results. Results for the same approach and firmware
/// (e.g. different workloads) are summed.
pub fn unsafe_scenario_table(results: &[CampaignResult]) -> Vec<UnsafeScenarioRow> {
    Approach::ALL
        .iter()
        .map(|&approach| {
            let count = |profile: FirmwareProfile| {
                results
                    .iter()
                    .filter(|r| r.approach == Some(approach) && r.profile == profile)
                    .map(|r| r.unsafe_count())
                    .sum()
            };
            UnsafeScenarioRow {
                approach,
                ardupilot: count(FirmwareProfile::ArduPilotLike),
                px4: count(FirmwareProfile::Px4Like),
            }
        })
        .collect()
}

/// One row of Table IV: unsafe scenarios per approach per mode category.
#[derive(Debug, Clone, PartialEq)]
pub struct PerModeRow {
    /// The approach.
    pub approach: Approach,
    /// Count per mode category, in [`ModeCategory::ALL`] order.
    pub per_category: Vec<(ModeCategory, usize)>,
}

/// Builds Table IV rows from campaign results.
pub fn per_mode_table(results: &[CampaignResult]) -> Vec<PerModeRow> {
    Approach::ALL
        .iter()
        .map(|&approach| {
            let mut counts: BTreeMap<ModeCategory, usize> =
                ModeCategory::ALL.iter().map(|&c| (c, 0)).collect();
            for result in results.iter().filter(|r| r.approach == Some(approach)) {
                for (category, n) in result.per_category() {
                    *counts.entry(category).or_insert(0) += n;
                }
            }
            PerModeRow {
                approach,
                per_category: ModeCategory::ALL.iter().map(|&c| (c, counts[&c])).collect(),
            }
        })
        .collect()
}

/// The efficiency ratio between two approaches: unsafe conditions found per
/// unit of budget, `a` relative to `b` (the headline "2.4×" comparison).
pub fn efficiency_ratio(a: &[&CampaignResult], b: &[&CampaignResult]) -> f64 {
    let rate = |rs: &[&CampaignResult]| {
        let found: usize = rs.iter().map(|r| r.unsafe_count()).sum();
        let cost: f64 = rs.iter().map(|r| r.cost_seconds).sum();
        if cost <= 0.0 {
            0.0
        } else {
            found as f64 / cost
        }
    };
    let rb = rate(b);
    if rb <= 0.0 {
        f64::INFINITY
    } else {
        rate(a) / rb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::UnsafeCondition;
    use crate::monitor::{Violation, ViolationKind};
    use avis_firmware::OperatingMode;
    use avis_hinj::FaultPlan;

    fn fake_condition(category: ModeCategory) -> UnsafeCondition {
        UnsafeCondition {
            plan: FaultPlan::empty(),
            violations: vec![Violation {
                kind: ViolationKind::Collision { impact_speed: 3.0 },
                time: 1.0,
                mode: OperatingMode::Land,
            }],
            injection_category: category,
            injection_mode: Some(OperatingMode::Takeoff),
            triggered_bugs: Vec::new(),
            simulations_used: 1,
            cost_seconds_used: 10.0,
        }
    }

    fn fake_result(
        approach: Approach,
        profile: FirmwareProfile,
        categories: &[ModeCategory],
        cost: f64,
    ) -> CampaignResult {
        CampaignResult {
            strategy: approach.name().to_string(),
            approach: Some(approach),
            profile,
            workload: "w".to_string(),
            unsafe_conditions: categories.iter().map(|&c| fake_condition(c)).collect(),
            simulations: categories.len() + 3,
            cost_seconds: cost,
            labels_evaluated: 0,
            symmetry_pruned: 0,
            found_bug_pruned: 0,
            link_scenario: None,
            crashes: Vec::new(),
        }
    }

    #[test]
    fn table_iii_sums_across_workloads_and_profiles() {
        let results = vec![
            fake_result(
                Approach::Avis,
                FirmwareProfile::ArduPilotLike,
                &[ModeCategory::Takeoff, ModeCategory::Waypoint],
                100.0,
            ),
            fake_result(
                Approach::Avis,
                FirmwareProfile::ArduPilotLike,
                &[ModeCategory::Land],
                100.0,
            ),
            fake_result(
                Approach::Avis,
                FirmwareProfile::Px4Like,
                &[ModeCategory::Takeoff],
                100.0,
            ),
            fake_result(Approach::Bfi, FirmwareProfile::ArduPilotLike, &[], 100.0),
        ];
        let table = unsafe_scenario_table(&results);
        assert_eq!(table.len(), 4);
        let avis = &table[0];
        assert_eq!(avis.approach, Approach::Avis);
        assert_eq!(avis.ardupilot, 3);
        assert_eq!(avis.px4, 1);
        assert_eq!(avis.total(), 4);
        let bfi = table.iter().find(|r| r.approach == Approach::Bfi).unwrap();
        assert_eq!(bfi.total(), 0);
    }

    #[test]
    fn table_iv_groups_by_mode_category() {
        let results = vec![fake_result(
            Approach::Avis,
            FirmwareProfile::ArduPilotLike,
            &[
                ModeCategory::Takeoff,
                ModeCategory::Takeoff,
                ModeCategory::Land,
            ],
            100.0,
        )];
        let table = per_mode_table(&results);
        let avis = &table[0];
        let takeoff = avis
            .per_category
            .iter()
            .find(|(c, _)| *c == ModeCategory::Takeoff)
            .map(|(_, n)| *n)
            .unwrap();
        assert_eq!(takeoff, 2);
        let land = avis
            .per_category
            .iter()
            .find(|(c, _)| *c == ModeCategory::Land)
            .map(|(_, n)| *n)
            .unwrap();
        assert_eq!(land, 1);
        let manual = avis
            .per_category
            .iter()
            .find(|(c, _)| *c == ModeCategory::Manual)
            .map(|(_, n)| *n)
            .unwrap();
        assert_eq!(manual, 0);
    }

    #[test]
    fn efficiency_ratio_compares_rates() {
        let a = fake_result(
            Approach::Avis,
            FirmwareProfile::ArduPilotLike,
            &[ModeCategory::Takeoff; 6],
            100.0,
        );
        let b = fake_result(
            Approach::StratifiedBfi,
            FirmwareProfile::ArduPilotLike,
            &[ModeCategory::Takeoff; 2],
            100.0,
        );
        let ratio = efficiency_ratio(&[&a], &[&b]);
        assert!((ratio - 3.0).abs() < 1e-9);
        let zero = fake_result(Approach::Bfi, FirmwareProfile::ArduPilotLike, &[], 100.0);
        assert!(efficiency_ratio(&[&a], &[&zero]).is_infinite());
    }
}
