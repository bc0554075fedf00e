//! Scenario matrices: expand a firmware × workload × strategy grid into a
//! batch of campaigns, execute them on the campaign engine, and summarise
//! everything in one report.
//!
//! This is the programmatic form of the paper's evaluation tables — one
//! [`ScenarioMatrix`] run produces the raw material for a Table III — and
//! the seam future workload and strategy sweeps plug into.
//!
//! Cells that share a firmware × workload pair (differing only by
//! strategy) share one snapshot cache through a [`SharedSnapshotTier`],
//! so later strategies warm-start from the snapshots earlier ones
//! recorded instead of rebuilding the tree per campaign — disable with
//! [`ScenarioMatrix::share_snapshots`]`(false)`, which gives every cell
//! a cache of its own. Sharing never changes a cell result.
//!
//! ```no_run
//! use avis::checker::{Approach, Budget};
//! use avis::matrix::ScenarioMatrix;
//! use avis::strategy::RoundRobinMode;
//! use avis_firmware::FirmwareProfile;
//! use avis_workload::{auto_box_mission, fence_box_mission, manual_box_survey};
//!
//! let report = ScenarioMatrix::new()
//!     .firmwares(FirmwareProfile::ALL)
//!     .workloads([auto_box_mission(), manual_box_survey(), fence_box_mission()])
//!     .approaches(Approach::ALL)
//!     .strategy("Round-robin mode", || Box::new(RoundRobinMode::new()))
//!     .budget(Budget::simulations(40))
//!     .run();
//! println!("{}", report.summary_table());
//! ```

use crate::campaign::{Campaign, CampaignObserver, NullObserver};
use crate::checker::{Approach, Budget, CampaignResult};
use crate::snapshot::{CheckpointConfig, SharedSnapshotTier};
use crate::strategy::Strategy;
use avis_firmware::{BugId, BugSet, FirmwareProfile};
use avis_hinj::LinkFaultPlan;
use avis_sim::SensorNoise;
use avis_workload::ScriptedWorkload;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

/// A strategy column of the matrix: a display name plus a factory that
/// mints a fresh strategy instance for every cell (campaigns consume
/// their strategy, so each cell needs its own).
struct StrategySlot {
    name: String,
    approach: Option<Approach>,
    factory: Box<dyn Fn() -> Box<dyn Strategy> + Send>,
}

/// A firmware × workload × strategy × link-fault grid of campaigns
/// sharing one budget and engine configuration. See the [module
/// docs](self) for an example. The link-fault axis is optional: a matrix
/// with no [`ScenarioMatrix::link_scenario`] runs every cell over a
/// clean MAVLink link, exactly as before the axis existed.
pub struct ScenarioMatrix {
    profiles: Vec<FirmwareProfile>,
    workloads: Vec<ScriptedWorkload>,
    strategies: Vec<StrategySlot>,
    link_scenarios: Vec<(String, LinkFaultPlan)>,
    bugs: Option<BugSet>,
    budget: Budget,
    profiling_runs: usize,
    parallelism: Option<usize>,
    max_duration: Option<f64>,
    noise: Option<SensorNoise>,
    seed: u64,
    share_snapshots: bool,
    snapshot_store: Option<PathBuf>,
    store_budget: u64,
}

impl Default for ScenarioMatrix {
    fn default() -> Self {
        ScenarioMatrix {
            profiles: Vec::new(),
            workloads: Vec::new(),
            strategies: Vec::new(),
            link_scenarios: Vec::new(),
            bugs: None,
            budget: Budget::simulations(50),
            profiling_runs: 3,
            parallelism: None,
            max_duration: None,
            noise: None,
            seed: 17,
            share_snapshots: true,
            snapshot_store: None,
            store_budget: crate::store::DEFAULT_STORE_BUDGET,
        }
    }
}

impl ScenarioMatrix {
    /// An empty matrix. Axes left empty fall back to defaults at
    /// [`ScenarioMatrix::run`]: the ArduPilot-like firmware, the auto
    /// waypoint mission, and the paper's four approaches.
    pub fn new() -> Self {
        ScenarioMatrix::default()
    }

    /// Adds one firmware profile to the firmware axis.
    pub fn firmware(mut self, profile: FirmwareProfile) -> Self {
        self.profiles.push(profile);
        self
    }

    /// Adds several firmware profiles to the firmware axis.
    pub fn firmwares(mut self, profiles: impl IntoIterator<Item = FirmwareProfile>) -> Self {
        self.profiles.extend(profiles);
        self
    }

    /// Adds one workload to the workload axis.
    pub fn workload(mut self, workload: ScriptedWorkload) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Adds several workloads to the workload axis.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = ScriptedWorkload>) -> Self {
        self.workloads.extend(workloads);
        self
    }

    /// Adds one built-in approach to the strategy axis.
    pub fn approach(mut self, approach: Approach) -> Self {
        self.strategies.push(StrategySlot {
            name: approach.name().to_string(),
            approach: Some(approach),
            factory: Box::new(move || approach.strategy()),
        });
        self
    }

    /// Adds several built-in approaches to the strategy axis.
    pub fn approaches(mut self, approaches: impl IntoIterator<Item = Approach>) -> Self {
        for approach in approaches {
            self = self.approach(approach);
        }
        self
    }

    /// Adds a custom strategy to the strategy axis. The factory mints a
    /// fresh instance per cell.
    pub fn strategy(
        mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Strategy> + Send + 'static,
    ) -> Self {
        self.strategies.push(StrategySlot {
            name: name.into(),
            approach: None,
            factory: Box::new(factory),
        });
        self
    }

    /// Adds one named link-fault scenario to the protocol-fault axis:
    /// every firmware × workload × strategy cell is additionally run
    /// with `plan` pinned under its search (see
    /// [`crate::campaign::CampaignBuilder::link_faults`]), and the
    /// cell's [`CampaignResult::link_scenario`] records the name. An
    /// empty axis runs each cell once over a clean link.
    pub fn link_scenario(mut self, name: impl Into<String>, plan: LinkFaultPlan) -> Self {
        self.link_scenarios.push((name.into(), plan));
        self
    }

    /// Adds several named link-fault scenarios to the protocol-fault
    /// axis.
    pub fn link_scenarios(
        mut self,
        scenarios: impl IntoIterator<Item = (String, LinkFaultPlan)>,
    ) -> Self {
        self.link_scenarios.extend(scenarios);
        self
    }

    /// The defects compiled into every cell's firmware. Default: each
    /// profile's "current code base".
    pub fn bugs(mut self, bugs: BugSet) -> Self {
        self.bugs = Some(bugs);
        self
    }

    /// The per-campaign test budget. Default: 50 simulations.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Profiling runs per campaign. Default: 3.
    pub fn profiling_runs(mut self, runs: usize) -> Self {
        self.profiling_runs = runs;
        self
    }

    /// Worker threads per campaign. Default: the number of available CPU
    /// cores.
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = Some(parallelism.max(1));
        self
    }

    /// Hard cap on simulated time per run (s).
    pub fn max_duration(mut self, seconds: f64) -> Self {
        self.max_duration = Some(seconds);
        self
    }

    /// Sensor-noise level for every cell.
    pub fn noise(mut self, noise: SensorNoise) -> Self {
        self.noise = Some(noise);
        self
    }

    /// The deterministic campaign seed shared by every cell. Default: 17.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether cells that share a firmware × workload pair (differing
    /// only by strategy) share one snapshot cache through a
    /// [`SharedSnapshotTier`], so the second strategy's campaign
    /// warm-starts from snapshots the first one recorded instead of
    /// rebuilding the tree per campaign. Sharing never changes any cell
    /// result — a forked run is bit-identical to a cold one. Default:
    /// `true`.
    pub fn share_snapshots(mut self, share: bool) -> Self {
        self.share_snapshots = share;
        self
    }

    /// Attaches a persistent snapshot store rooted at `path` to every
    /// cell (see [`crate::campaign::CampaignBuilder::snapshot_store`]).
    /// The store keys its state by experiment fingerprint, so one root
    /// directory cleanly separates every firmware × workload cell: a
    /// re-run matrix warm-starts each cell from the chains its own
    /// experiment persisted last time, and cells never see foreign
    /// state. Persistence never changes any cell result. Default: no
    /// store.
    pub fn snapshot_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_store = Some(path.into());
        self
    }

    /// On-disk byte budget for each cell's slice of the snapshot store
    /// (see
    /// [`crate::campaign::CampaignBuilder::snapshot_store_budget`]).
    pub fn snapshot_store_budget(mut self, max_bytes: u64) -> Self {
        self.store_budget = max_bytes;
        self
    }

    /// Number of campaigns the matrix expands to (empty axes counted at
    /// their [`ScenarioMatrix::run`] fallback sizes).
    pub fn cell_count(&self) -> usize {
        let strategies = if self.strategies.is_empty() {
            Approach::ALL.len()
        } else {
            self.strategies.len()
        };
        self.profiles.len().max(1)
            * self.workloads.len().max(1)
            * strategies
            * self.link_scenarios.len().max(1)
    }

    /// Executes every cell and aggregates the results, discarding events.
    pub fn run(self) -> MatrixReport {
        self.run_with_observer(&mut NullObserver)
    }

    /// Executes every cell, streaming each campaign's events to
    /// `observer` (cells run sequentially, in strategy → firmware →
    /// workload → link-scenario order; within a cell events arrive in
    /// commit order).
    pub fn run_with_observer(mut self, observer: &mut dyn CampaignObserver) -> MatrixReport {
        if self.profiles.is_empty() {
            self.profiles.push(FirmwareProfile::ArduPilotLike);
        }
        if self.workloads.is_empty() {
            self.workloads.push(avis_workload::auto_box_mission());
        }
        if self.strategies.is_empty() {
            self = self.approaches(Approach::ALL);
        }
        // One snapshot cache per firmware × workload pair: the outer
        // loop iterates strategies, so by the time the second strategy
        // reaches a cell, the cache already holds the first strategy's
        // checkpoint tree and its campaign warm-starts instead of
        // re-recording the fault-free chain.
        let mut caches: BTreeMap<(usize, usize), Arc<SharedSnapshotTier>> = BTreeMap::new();
        let cache_budget = CheckpointConfig::default().max_bytes;
        // An empty protocol-fault axis is one unnamed clean-link cell.
        let link_scenarios: Vec<(Option<String>, LinkFaultPlan)> = if self.link_scenarios.is_empty()
        {
            vec![(None, LinkFaultPlan::empty())]
        } else {
            self.link_scenarios
                .iter()
                .map(|(name, plan)| (Some(name.clone()), plan.clone()))
                .collect()
        };
        let mut results = Vec::new();
        for slot in &self.strategies {
            for (profile_idx, &profile) in self.profiles.iter().enumerate() {
                for (workload_idx, workload) in self.workloads.iter().enumerate() {
                    for (scenario_name, link_plan) in &link_scenarios {
                        let bugs = self
                            .bugs
                            .clone()
                            .unwrap_or_else(|| BugSet::current_code_base(profile));
                        let mut builder = Campaign::builder()
                            .firmware(profile)
                            .bugs(bugs)
                            .workload(workload.clone())
                            .budget(self.budget)
                            .profiling_runs(self.profiling_runs)
                            .seed(self.seed)
                            .link_faults(link_plan.clone());
                        if self.share_snapshots {
                            // Cells over the same firmware × workload pair
                            // share one cache even across link scenarios:
                            // combined injection prefixes keep foreign
                            // snapshots from ever being misapplied, and
                            // the fault-free chain is reusable up to each
                            // scenario's first link fault.
                            let cache = caches
                                .entry((profile_idx, workload_idx))
                                .or_insert_with(|| Arc::new(SharedSnapshotTier::new(cache_budget)));
                            builder = builder.shared_snapshots(Arc::clone(cache));
                        }
                        if let Some(root) = &self.snapshot_store {
                            // Fingerprint keying inside the store separates
                            // the cells; every cell can share one root
                            // directory.
                            builder = builder
                                .snapshot_store(root.clone())
                                .snapshot_store_budget(self.store_budget);
                        }
                        if let Some(parallelism) = self.parallelism {
                            builder = builder.parallelism(parallelism);
                        }
                        if let Some(max_duration) = self.max_duration {
                            builder = builder.max_duration(max_duration);
                        }
                        if let Some(noise) = self.noise.clone() {
                            builder = builder.noise(noise);
                        }
                        builder = match slot.approach {
                            Some(approach) => builder.approach(approach),
                            None => builder.boxed_strategy((slot.factory)()),
                        };
                        let mut result = builder.build().run_with_observer(observer);
                        // Custom strategies may report a different internal
                        // name; the matrix column name wins in the report.
                        result.strategy = slot.name.clone();
                        result.link_scenario = scenario_name.clone();
                        results.push(result);
                    }
                }
            }
        }
        MatrixReport { results }
    }
}

/// The aggregated outcome of a [`ScenarioMatrix`] run: every cell's
/// [`CampaignResult`], plus summary helpers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixReport {
    /// One result per cell, in strategy → firmware → workload →
    /// link-scenario order.
    pub results: Vec<CampaignResult>,
}

impl MatrixReport {
    /// Total unsafe conditions across every cell.
    pub fn total_unsafe(&self) -> usize {
        self.results.iter().map(|r| r.unsafe_count()).sum()
    }

    /// Total simulations executed across every cell.
    pub fn total_simulations(&self) -> usize {
        self.results.iter().map(|r| r.simulations).sum()
    }

    /// The distinct injected defects exposed anywhere in the matrix.
    pub fn bugs_found(&self) -> BTreeSet<BugId> {
        self.results.iter().flat_map(|r| r.bugs_found()).collect()
    }

    /// Unsafe conditions per strategy, summed over firmware and
    /// workloads, in first-appearance order.
    pub fn per_strategy(&self) -> Vec<(String, usize)> {
        let mut order: Vec<String> = Vec::new();
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for result in &self.results {
            if !counts.contains_key(&result.strategy) {
                order.push(result.strategy.clone());
            }
            *counts.entry(result.strategy.clone()).or_insert(0) += result.unsafe_count();
        }
        order
            .into_iter()
            .map(|name| {
                let count = counts[&name];
                (name, count)
            })
            .collect()
    }

    /// The cells run for `strategy`, in firmware → workload order.
    pub fn cells_for(&self, strategy: &str) -> Vec<&CampaignResult> {
        self.results
            .iter()
            .filter(|r| r.strategy == strategy)
            .collect()
    }

    /// A markdown summary: one row per strategy, one column per
    /// firmware × workload cell, unsafe-condition counts in the cells.
    pub fn summary_table(&self) -> String {
        let mut columns: Vec<(FirmwareProfile, String)> = Vec::new();
        for result in &self.results {
            let column = (result.profile, result.workload.clone());
            if !columns.contains(&column) {
                columns.push(column);
            }
        }
        let mut out = String::from("| Strategy |");
        for (profile, workload) in &columns {
            out.push_str(&format!(" {profile} / {workload} |"));
        }
        out.push_str(" Total |\n|---|");
        for _ in &columns {
            out.push_str("---|");
        }
        out.push_str("---|\n");
        for (strategy, total) in self.per_strategy() {
            out.push_str(&format!("| {strategy} |"));
            for (profile, workload) in &columns {
                let count: usize = self
                    .results
                    .iter()
                    .filter(|r| {
                        r.strategy == strategy && r.profile == *profile && r.workload == *workload
                    })
                    .map(|r| r.unsafe_count())
                    .sum();
                out.push_str(&format!(" {count} |"));
            }
            out.push_str(&format!(" {total} |\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_count_multiplies_the_axes() {
        let matrix = ScenarioMatrix::new()
            .firmwares(FirmwareProfile::ALL)
            .workload(avis_workload::auto_box_mission())
            .approaches(Approach::ALL)
            .strategy(
                "custom",
                || Box::new(crate::strategy::RoundRobinMode::new()),
            );
        // 2 firmwares × 1 workload × 5 strategies.
        assert_eq!(matrix.cell_count(), 10);
        // Empty axes fall back to defaults in the count too.
        assert_eq!(ScenarioMatrix::new().cell_count(), 4);
        // A partially filled strategy axis is counted as-is, not clamped
        // to the empty-axis fallback.
        assert_eq!(
            ScenarioMatrix::new().approach(Approach::Avis).cell_count(),
            1
        );
        // The protocol-fault axis multiplies in like the others.
        assert_eq!(
            ScenarioMatrix::new()
                .approach(Approach::Avis)
                .link_scenario("clean-ish", LinkFaultPlan::empty())
                .link_scenario("lossy", LinkFaultPlan::empty())
                .cell_count(),
            2
        );
    }

    #[test]
    fn shared_snapshot_tiers_do_not_change_matrix_results() {
        // Cells sharing a firmware × workload pair share one checkpoint
        // tree; the aggregated report must be identical with sharing on
        // and off (a forked run is bit-identical to a cold one).
        let run = |share: bool| {
            ScenarioMatrix::new()
                .firmware(FirmwareProfile::ArduPilotLike)
                .workload(avis_workload::auto_box_mission())
                .approach(Approach::Avis)
                .approach(Approach::Random)
                .budget(Budget::simulations(5))
                .profiling_runs(1)
                .parallelism(1)
                .max_duration(110.0)
                .noise(SensorNoise::default())
                .share_snapshots(share)
                .run()
        };
        let shared = run(true);
        let unshared = run(false);
        assert_eq!(
            shared, unshared,
            "matrix-level snapshot sharing changed a cell result"
        );
    }

    #[test]
    fn report_aggregation_and_table() {
        use crate::checker::CampaignResult;
        let result = |strategy: &str, profile, unsafe_count: usize| CampaignResult {
            strategy: strategy.to_string(),
            approach: None,
            profile,
            workload: "w".to_string(),
            unsafe_conditions: Vec::new(),
            simulations: 5 + unsafe_count,
            cost_seconds: 100.0,
            labels_evaluated: 0,
            symmetry_pruned: 0,
            found_bug_pruned: 0,
            link_scenario: None,
            crashes: Vec::new(),
        };
        let report = MatrixReport {
            results: vec![
                result("Avis", FirmwareProfile::ArduPilotLike, 0),
                result("Avis", FirmwareProfile::Px4Like, 0),
                result("Random", FirmwareProfile::ArduPilotLike, 0),
                result("Random", FirmwareProfile::Px4Like, 0),
            ],
        };
        assert_eq!(report.total_unsafe(), 0);
        assert_eq!(report.total_simulations(), 20);
        assert_eq!(report.per_strategy().len(), 2);
        assert_eq!(report.cells_for("Avis").len(), 2);
        let table = report.summary_table();
        assert!(table.contains("| Avis |"));
        assert!(table.contains("| Random |"));
        assert!(table.contains("Total |"));
    }
}
