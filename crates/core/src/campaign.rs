//! The fluent campaign API: [`Campaign::builder`] configures a campaign
//! (firmware, bug set, workload, budget, parallelism, monitor, strategy),
//! and [`CampaignObserver`] streams [`CampaignEvent`]s from the engine in
//! commit order, so long campaigns report live instead of only at the
//! end.
//!
//! ```no_run
//! use avis::campaign::Campaign;
//! use avis::checker::{Approach, Budget};
//! use avis_firmware::FirmwareProfile;
//! use avis_workload::auto_box_mission;
//!
//! let result = Campaign::builder()
//!     .firmware(FirmwareProfile::ArduPilotLike)
//!     .workload(auto_box_mission())
//!     .approach(Approach::Avis)
//!     .budget(Budget::simulations(50))
//!     .parallelism(4)
//!     .build()
//!     .run();
//! println!("{} unsafe conditions", result.unsafe_count());
//! ```
//!
//! The event stream is deterministic: because the parallel engine commits
//! results in canonical round order, a campaign observed at
//! `parallelism = 8` emits exactly the events of the same campaign at
//! `parallelism = 1`, in the same order.

use crate::checker::{Approach, Budget, CampaignResult, CampaignState, UnsafeCondition};
use crate::contain;
use crate::engine::{self, EngineParams, WorkerStatsCollector};
use crate::monitor::{InvariantMonitor, MonitorConfig};
use crate::runner::{ExperimentConfig, ExperimentRunner};
use crate::sabre::SabreConfig;
use crate::snapshot::{CheckpointConfig, SharedSnapshotTier};
use crate::store::{SnapshotStore, DEFAULT_STORE_BUDGET};
use crate::strategy::{LinkScenarioStrategy, Strategy, StrategyContext};
use avis_firmware::{BugSet, FirmwareProfile};
use avis_hinj::{FaultPlan, LinkFaultPlan};
use avis_sim::{SensorNoise, SensorSuiteConfig};
use avis_workload::{auto_box_mission, ScriptedWorkload};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// One checkpoint in a campaign's life, streamed to the
/// [`CampaignObserver`] in commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// The campaign is about to set up: hydrate its persistent store, if
    /// any, then fly its profiling runs.
    CampaignStarted {
        /// Display name of the strategy driving the campaign.
        strategy: String,
        /// The firmware profile under test.
        profile: FirmwareProfile,
        /// The workload name.
        workload: String,
        /// The test budget.
        budget: Budget,
    },
    /// Profiling and monitor calibration finished; the search starts now.
    ProfilingFinished {
        /// Number of fault-free profiling runs executed.
        runs: usize,
        /// Cost consumed by profiling (s).
        cost_seconds: f64,
    },
    /// One fault-injection run was committed.
    RunFinished {
        /// Total simulations so far (profiling included).
        simulations: usize,
        /// Total cost so far (s).
        cost_seconds: f64,
        /// The fault plan the run injected.
        plan: FaultPlan,
        /// Whether the invariant monitor flagged the run unsafe.
        is_unsafe: bool,
    },
    /// The run just committed exposed an unsafe condition.
    ViolationFound {
        /// The full unsafe-condition record, as it will appear in the
        /// final [`CampaignResult`].
        condition: UnsafeCondition,
    },
    /// Budget consumption after a committed run.
    BudgetProgress {
        /// Total simulations so far (profiling included).
        simulations: usize,
        /// Total cost so far (s).
        cost_seconds: f64,
        /// Consumed share of the tighter budget axis, `0.0..=1.0`.
        consumed_fraction: f64,
    },
    /// Checkpointing was disabled for the rest of the campaign after
    /// repeated snapshot-integrity failures; remaining runs cold-start.
    /// Degradation is a wall-clock event, not a result event: the final
    /// [`CampaignResult`] is bit-identical with or without it.
    DegradedMode {
        /// Human-readable explanation of why checkpointing was disabled.
        reason: String,
    },
    /// The persistent snapshot store hydrated the campaign's snapshot
    /// cache from disk before the profiling runs, which fork from it too
    /// (see
    /// [`CampaignBuilder::snapshot_store`]), so this arrives between
    /// [`CampaignEvent::CampaignStarted`] and
    /// [`CampaignEvent::ProfilingFinished`]. Like [`DegradedMode`], this
    /// is a wall-clock observability event, not a result event: the
    /// final [`CampaignResult`] is bit-identical with or without it.
    ///
    /// [`DegradedMode`]: CampaignEvent::DegradedMode
    StoreHydrated {
        /// Snapshot chains re-materialised from disk.
        chains: u64,
        /// Individual cuts loaded into the cache.
        snapshots: u64,
        /// Blob bytes read (and verified) from disk: every cut and
        /// chunk blob payload hydration read, each once.
        bytes: u64,
    },
    /// The persistent snapshot store flushed the cache's chains to disk
    /// at campaign end (a parallel campaign also flushes write-behind
    /// before each speculative wavefront; this event reports the session
    /// totals). A wall-clock observability event, like
    /// [`DegradedMode`](CampaignEvent::DegradedMode).
    StoreFlushed {
        /// Chains now persisted for this experiment.
        chains: u64,
        /// Bytes the store holds on disk after flush + GC.
        bytes: u64,
        /// Blob writes elided because an identical content-addressed
        /// blob already existed.
        dedup_hits: u64,
    },
    /// The campaign ended (budget or search space exhausted).
    CampaignFinished {
        /// Total simulations executed.
        simulations: usize,
        /// Total cost consumed (s).
        cost_seconds: f64,
        /// Number of unsafe conditions found.
        unsafe_conditions: usize,
    },
}

/// An event sink for a running campaign. Events arrive on the thread that
/// called [`Campaign::run_with_observer`], in commit order, identically
/// at every parallelism.
pub trait CampaignObserver {
    /// Receives the next event.
    fn on_event(&mut self, event: &CampaignEvent);
}

/// The default observer: discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl CampaignObserver for NullObserver {
    fn on_event(&mut self, _event: &CampaignEvent) {}
}

/// An observer that records the full event stream — useful for tests,
/// for replaying progress into a UI, or for serialising a campaign log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<CampaignEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// The recorded events, in arrival (= commit) order.
    pub fn events(&self) -> &[CampaignEvent] {
        &self.events
    }

    /// Consumes the log, returning the recorded events.
    pub fn into_events(self) -> Vec<CampaignEvent> {
        self.events
    }
}

impl CampaignObserver for EventLog {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.events.push(event.clone());
    }
}

/// The strategy a campaign runs: a built-in approach resolved through the
/// [`Approach`] factory, or a user-supplied [`Strategy`].
enum StrategyChoice {
    Approach(Approach),
    Custom(Box<dyn Strategy>),
}

/// A fully configured campaign, ready to run. Built by
/// [`Campaign::builder`]; see the [module docs](self) for an example.
pub struct Campaign {
    experiment: ExperimentConfig,
    budget: Budget,
    profiling_runs: usize,
    monitor: MonitorConfig,
    sabre: SabreConfig,
    seed: u64,
    parallelism: usize,
    strategy: StrategyChoice,
    link: LinkFaultPlan,
    shared: Option<Arc<SharedSnapshotTier>>,
    worker_stats: Option<Arc<WorkerStatsCollector>>,
    store: Option<StoreSpec>,
}

impl Campaign {
    /// Starts configuring a campaign.
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder::default()
    }

    /// Runs the campaign to completion, discarding events.
    pub fn run(self) -> CampaignResult {
        self.run_with_observer(&mut NullObserver)
    }

    /// Runs the campaign to completion, streaming events to `observer`.
    pub fn run_with_observer(self, observer: &mut dyn CampaignObserver) -> CampaignResult {
        let (mut strategy, approach) = match self.strategy {
            StrategyChoice::Approach(approach) => (approach.strategy(), Some(approach)),
            StrategyChoice::Custom(strategy) => (strategy, None),
        };
        if !self.link.is_empty() {
            // Pin the campaign's link-fault environment under whatever
            // sensor-fault strategy runs: every proposed and decided plan
            // carries the same link part, so speculative reuse and the
            // determinism contract are untouched.
            strategy = Box::new(LinkScenarioStrategy::new(strategy, self.link));
        }
        execute_campaign(
            CampaignSpec {
                experiment: &self.experiment,
                budget: self.budget,
                profiling_runs: self.profiling_runs,
                monitor: &self.monitor,
                sabre: self.sabre,
                seed: self.seed,
                parallelism: self.parallelism,
                shared: self.shared,
                worker_stats: self.worker_stats,
                store: self.store,
            },
            strategy.as_mut(),
            approach,
            observer,
        )
    }
}

/// Fluent configuration for a [`Campaign`]. Every setter has a sensible
/// default, so `Campaign::builder().build()` is already a runnable Avis
/// campaign on the buggy ArduPilot-like code base.
///
/// Setter order never matters: `build` resolves precedence, not call
/// order. [`CampaignBuilder::experiment`] replaces the
/// firmware / bugs / workload trio wholesale;
/// [`CampaignBuilder::max_duration`] and [`CampaignBuilder::noise`] apply
/// on top of whichever experiment results.
pub struct CampaignBuilder {
    profile: FirmwareProfile,
    bugs: Option<BugSet>,
    workload: Option<ScriptedWorkload>,
    experiment: Option<ExperimentConfig>,
    max_duration: Option<f64>,
    noise: Option<SensorNoise>,
    checkpoints: Option<CheckpointConfig>,
    lockstep_lanes: Option<usize>,
    budget: Budget,
    profiling_runs: usize,
    monitor: MonitorConfig,
    sabre: SabreConfig,
    seed: u64,
    parallelism: usize,
    strategy: StrategyChoice,
    link: LinkFaultPlan,
    shared: Option<Arc<SharedSnapshotTier>>,
    worker_stats: Option<Arc<WorkerStatsCollector>>,
    store_path: Option<PathBuf>,
    store_budget: u64,
}

impl Default for CampaignBuilder {
    fn default() -> Self {
        CampaignBuilder {
            profile: FirmwareProfile::ArduPilotLike,
            bugs: None,
            workload: None,
            experiment: None,
            max_duration: None,
            noise: None,
            checkpoints: None,
            lockstep_lanes: None,
            budget: Budget::simulations(50),
            profiling_runs: 3,
            monitor: MonitorConfig::default(),
            sabre: SabreConfig::default(),
            seed: 17,
            parallelism: engine::default_parallelism(),
            strategy: StrategyChoice::Approach(Approach::Avis),
            link: LinkFaultPlan::empty(),
            shared: None,
            worker_stats: None,
            store_path: None,
            store_budget: DEFAULT_STORE_BUDGET,
        }
    }
}

impl CampaignBuilder {
    /// The firmware profile under test. Default: the ArduPilot-like stack.
    pub fn firmware(mut self, profile: FirmwareProfile) -> Self {
        self.profile = profile;
        self
    }

    /// The defects compiled into the firmware. Default: the profile's
    /// "current code base" (every previously-unknown bug present).
    pub fn bugs(mut self, bugs: BugSet) -> Self {
        self.bugs = Some(bugs);
        self
    }

    /// The workload to fly. Default: the paper's auto waypoint mission.
    pub fn workload(mut self, workload: ScriptedWorkload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Replaces the firmware / bugs / workload trio with a fully built
    /// [`ExperimentConfig`] (the escape hatch for non-default dt, sample
    /// interval or experiment seed).
    pub fn experiment(mut self, experiment: ExperimentConfig) -> Self {
        self.experiment = Some(experiment);
        self
    }

    /// Hard cap on simulated time per run (s), applied on top of the
    /// experiment.
    pub fn max_duration(mut self, seconds: f64) -> Self {
        self.max_duration = Some(seconds);
        self
    }

    /// Sensor-noise level, applied on top of the experiment.
    pub fn noise(mut self, noise: SensorNoise) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Checkpoint-tree configuration (snapshot interval and memory
    /// budget, or [`CheckpointConfig::disabled`] to cold-start every
    /// run), applied on top of the experiment. Checkpointing is purely a
    /// speed/memory trade-off: the campaign result is bit-identical
    /// either way. The memory budget applies *per campaign*: the inline
    /// runner and every engine worker share one cache. Default: enabled
    /// with the [`CheckpointConfig::default`] budget.
    pub fn checkpoints(mut self, checkpoints: CheckpointConfig) -> Self {
        self.checkpoints = Some(checkpoints);
        self
    }

    /// Number of sibling scenarios advanced in lockstep through one
    /// [`avis_sim::LaneBatch`] when a prefix family of speculative plans
    /// runs (see the `batch` module), on workers and on the serial path
    /// alike; `1` disables batching.
    /// Purely a speed knob — a batched run is bit-identical to a scalar
    /// one — so it joins neither the experiment fingerprint nor any
    /// campaign observable. Default: 4.
    pub fn lockstep_lanes(mut self, lanes: usize) -> Self {
        self.lockstep_lanes = Some(lanes);
        self
    }

    /// Runs the campaign on a caller's snapshot cache instead of a fresh
    /// one: campaigns over the *same experiment* (firmware, bugs,
    /// workload, simulation parameters, seed) handed the same cache share
    /// one checkpoint tree — the second campaign warm-starts from the
    /// first one's snapshots instead of re-recording the fault-free
    /// chain. This is how a [`crate::matrix::ScenarioMatrix`] reuses
    /// trees across strategies. The cache keeps the memory budget it was
    /// created with. Sharing never changes results (a forked run is
    /// bit-identical to a cold one). The cache is claimed by the first
    /// experiment that attaches; a campaign over a *different*
    /// experiment handed the same cache runs on a fresh one of its own
    /// rather than forking from foreign state — keep one cache per
    /// experiment.
    pub fn shared_snapshots(mut self, tier: Arc<SharedSnapshotTier>) -> Self {
        self.shared = Some(tier);
        self
    }

    /// Attaches a persistent [`SnapshotStore`] rooted at `path`: the
    /// campaign hydrates its snapshot cache from whatever chains a
    /// previous process persisted for the *same experiment* (warm start),
    /// and flushes new chains back write-behind at campaign end — and, at
    /// parallelism ≥ 2, before each speculative wavefront, so a crash
    /// mid-campaign keeps the finished wavefronts' chains. The store is
    /// content-addressed and fingerprint-keyed, so one root directory
    /// safely serves many experiments and many concurrent campaigns.
    /// Persistence is purely a wall-clock optimisation: a warm-started
    /// campaign is bit-identical to a cold one, and any corrupt or torn
    /// on-disk state quarantines and falls back cold. A campaign with
    /// checkpointing disabled leaves the store untouched. Default: no
    /// store.
    pub fn snapshot_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// On-disk byte budget for the snapshot store, enforced at flush
    /// time by evicting the least-forked, oldest chains first. The
    /// budget counts every blob the store's chains reach: their cut
    /// blobs and the history-chunk blobs those reference. The manifest
    /// file is not counted. Default: [`DEFAULT_STORE_BUDGET`].
    ///
    /// [`DEFAULT_STORE_BUDGET`]: crate::store::DEFAULT_STORE_BUDGET
    pub fn snapshot_store_budget(mut self, max_bytes: u64) -> Self {
        self.store_budget = max_bytes;
        self
    }

    /// The test budget. Default: 50 simulations.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Number of fault-free profiling runs calibrating the monitor.
    /// Default: 3.
    pub fn profiling_runs(mut self, runs: usize) -> Self {
        self.profiling_runs = runs;
        self
    }

    /// Invariant-monitor configuration.
    pub fn monitor(mut self, monitor: MonitorConfig) -> Self {
        self.monitor = monitor;
        self
    }

    /// SABRE scheduler configuration (transition-targeted strategies).
    pub fn sabre(mut self, sabre: SabreConfig) -> Self {
        self.sabre = sabre;
        self
    }

    /// The deterministic campaign seed (drives the random baseline).
    /// Default: 17.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads executing fault plans (`1` = fully serial).
    /// Default: the number of available CPU cores. The result — and the
    /// observer event stream — is bit-identical at every value.
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Attaches a [`WorkerStatsCollector`] that receives every engine
    /// worker's checkpoint statistics (plus the campaign's inline
    /// runner's, with the cache-wide and store fields) when the campaign
    /// finishes — the observability hook for cache measurements that the
    /// deterministic [`crate::checker::CampaignResult`] deliberately
    /// excludes.
    pub fn worker_stats(mut self, collector: Arc<WorkerStatsCollector>) -> Self {
        self.worker_stats = Some(collector);
        self
    }

    /// Runs one of the paper's built-in approaches. Default:
    /// [`Approach::Avis`].
    pub fn approach(mut self, approach: Approach) -> Self {
        self.strategy = StrategyChoice::Approach(approach);
        self
    }

    /// Runs a custom [`Strategy`] — the extension point for new search
    /// orders, implemented entirely outside the core crate.
    pub fn strategy<S: Strategy + 'static>(self, strategy: S) -> Self {
        self.boxed_strategy(Box::new(strategy))
    }

    /// [`CampaignBuilder::strategy`] for an already boxed strategy (what
    /// a [`crate::matrix::ScenarioMatrix`] factory produces).
    pub fn boxed_strategy(mut self, strategy: Box<dyn Strategy>) -> Self {
        self.strategy = StrategyChoice::Custom(strategy);
        self
    }

    /// Pins a protocol-fault environment under the campaign: every plan
    /// the strategy runs — sensor-fault or fault-free — additionally
    /// carries these link faults, so the campaign explores its search
    /// space *under* a degraded MAVLink link. Link faults are applied by
    /// a deterministic shim seeded from the campaign seed; the result
    /// stays bit-identical at every parallelism and with checkpointing
    /// on or off. Default: no link faults.
    pub fn link_faults(mut self, link: LinkFaultPlan) -> Self {
        self.link = link;
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> Campaign {
        let mut experiment = self.experiment.unwrap_or_else(|| {
            ExperimentConfig::new(
                self.profile,
                self.bugs
                    .unwrap_or_else(|| BugSet::current_code_base(self.profile)),
                self.workload.unwrap_or_else(auto_box_mission),
            )
        });
        if let Some(max_duration) = self.max_duration {
            experiment.max_duration = max_duration;
        }
        if let Some(noise) = self.noise {
            experiment.noise = Some(noise);
        }
        if let Some(checkpoints) = self.checkpoints {
            experiment.checkpoints = checkpoints;
        }
        if let Some(lanes) = self.lockstep_lanes {
            experiment.lockstep_lanes = lanes.max(1);
        }
        Campaign {
            experiment,
            budget: self.budget,
            profiling_runs: self.profiling_runs,
            monitor: self.monitor,
            sabre: self.sabre,
            seed: self.seed,
            parallelism: self.parallelism,
            strategy: self.strategy,
            link: self.link,
            shared: self.shared,
            worker_stats: self.worker_stats,
            store: self.store_path.map(|root| StoreSpec {
                root,
                max_bytes: self.store_budget,
            }),
        }
    }
}

/// Where (and how large) a campaign's persistent snapshot store is —
/// resolved by [`CampaignBuilder::snapshot_store`] /
/// [`CampaignBuilder::snapshot_store_budget`].
#[derive(Debug, Clone)]
pub(crate) struct StoreSpec {
    pub(crate) root: PathBuf,
    pub(crate) max_bytes: u64,
}

/// The resolved slice of configuration the campaign pipeline needs (see
/// [`Campaign::run_with_observer`]).
pub(crate) struct CampaignSpec<'a> {
    pub(crate) experiment: &'a ExperimentConfig,
    pub(crate) budget: Budget,
    pub(crate) profiling_runs: usize,
    pub(crate) monitor: &'a MonitorConfig,
    pub(crate) sabre: SabreConfig,
    pub(crate) seed: u64,
    pub(crate) parallelism: usize,
    /// A caller-supplied cross-campaign snapshot cache, if any (see
    /// [`CampaignBuilder::shared_snapshots`]).
    pub(crate) shared: Option<Arc<SharedSnapshotTier>>,
    /// Sink for per-runner checkpoint statistics, if any (see
    /// [`CampaignBuilder::worker_stats`]).
    pub(crate) worker_stats: Option<Arc<WorkerStatsCollector>>,
    /// Persistent snapshot store location, if any (see
    /// [`CampaignBuilder::snapshot_store`]).
    pub(crate) store: Option<StoreSpec>,
}

/// Runs one campaign end to end: profiling, monitor calibration, strategy
/// initialisation, the engine's round loop, and result assembly.
pub(crate) fn execute_campaign(
    spec: CampaignSpec<'_>,
    strategy: &mut dyn Strategy,
    approach: Option<Approach>,
    observer: &mut dyn CampaignObserver,
) -> CampaignResult {
    observer.on_event(&CampaignEvent::CampaignStarted {
        strategy: strategy.name().to_string(),
        profile: spec.experiment.profile,
        workload: spec.experiment.workload.name().to_string(),
        budget: spec.budget,
    });

    let mut runner = ExperimentRunner::new(spec.experiment.clone());

    // The campaign's one snapshot cache: the caller's when one was
    // supplied and could be claimed for this experiment, otherwise a
    // fresh one. The inline runner and every engine worker attach to it,
    // so they all fork from and commit to one tree under one memory
    // budget. It is attached before profiling, so profiling runs fork
    // from it too.
    let checkpoints = &spec.experiment.checkpoints;
    let cache = spec
        .shared
        .filter(|tier| tier.claim(&spec.experiment.fingerprint()))
        .unwrap_or_else(|| Arc::new(SharedSnapshotTier::new(checkpoints.max_bytes)));
    runner.set_shared_tier(Arc::clone(&cache));

    // The persistent store: hydrate the cache from disk before
    // profiling, so the profiling runs and the engine fork from last
    // session's chains instead of re-flying them. Opening can fail
    // (read-only filesystem, bad path); the campaign then simply runs
    // cold — the store never gates correctness, only wall-clock.
    let store: Option<Arc<Mutex<SnapshotStore>>> = spec
        .store
        .as_ref()
        .filter(|_| checkpoints.enabled)
        .and_then(|s| SnapshotStore::open(&s.root, spec.experiment, s.max_bytes).ok())
        .map(|s| Arc::new(Mutex::new(s)));
    if let Some(store) = &store {
        let report = contain::lock(store).hydrate(&cache, spec.experiment);
        observer.on_event(&CampaignEvent::StoreHydrated {
            chains: report.chains,
            snapshots: report.snapshots,
            bytes: report.bytes,
        });
    }

    // Profiling runs: calibrate the invariant monitor and discover the
    // mode transitions that anchor transition-targeted strategies. Each
    // forks from the terminal cut an earlier campaign over this
    // experiment left in the cache for its seed offset, and flies only
    // the grace tail.
    let mut profiling = Vec::new();
    let mut cost = 0.0;
    for i in 0..spec.profiling_runs.max(1) {
        let run = runner.run_profiling(i as u64);
        cost += run.simulated_seconds;
        profiling.push(run);
    }
    observer.on_event(&CampaignEvent::ProfilingFinished {
        runs: profiling.len(),
        cost_seconds: cost,
    });
    let monitor = InvariantMonitor::calibrate(
        profiling.iter().map(|r| r.trace.clone()).collect(),
        spec.monitor.clone(),
    );
    let golden = profiling[0].trace.clone();

    let mut state = CampaignState {
        runner,
        monitor,
        simulations: profiling.len(),
        cost_seconds: cost,
        labels: 0,
        unsafe_conditions: Vec::new(),
        crashes: Vec::new(),
        golden,
    };

    strategy.initialize(&StrategyContext {
        golden: &state.golden,
        experiment: spec.experiment,
        sabre: spec.sabre,
        seed: spec.seed,
        sensors: SensorSuiteConfig::iris(),
    });

    engine::run_campaign(
        EngineParams {
            experiment: spec.experiment,
            budget: &spec.budget,
            parallelism: spec.parallelism,
            cache: Arc::clone(&cache),
            worker_stats: spec.worker_stats.clone(),
            store: store.clone(),
        },
        strategy,
        &mut state,
        observer,
    );

    // Final write-behind flush + GC: chains recorded after the engine's
    // last wavefront flush (a serial campaign has none) reach disk before
    // the campaign returns.
    if let Some(store) = &store {
        let mut store = contain::lock(store);
        store.flush(&cache, spec.experiment);
        let stats = store.stats();
        observer.on_event(&CampaignEvent::StoreFlushed {
            chains: stats.persisted_chains,
            bytes: stats.store_bytes,
            dedup_hits: stats.dedup_hits,
        });
    }

    // The campaign's inline runner (profiling + serial / fallback
    // commits) reports its per-run counters after the pool workers', with
    // the cache-wide statistics and the persistent store's session
    // counters merged in — the one entry that carries them, so sums over
    // the collector count each cached byte and eviction once.
    if let Some(collector) = &spec.worker_stats {
        let mut stats = state.runner.checkpoint_stats();
        if let Some(store) = &store {
            let store_stats = contain::lock(store).stats();
            stats.loaded_chains = store_stats.loaded_chains;
            stats.persisted_chains = store_stats.persisted_chains;
            stats.store_bytes = store_stats.store_bytes;
            stats.dedup_hits = store_stats.dedup_hits;
        }
        collector.push(stats);
    }

    observer.on_event(&CampaignEvent::CampaignFinished {
        simulations: state.simulations,
        cost_seconds: state.cost_seconds,
        unsafe_conditions: state.unsafe_conditions.len(),
    });

    let pruning = strategy.pruning();
    CampaignResult {
        strategy: strategy.name().to_string(),
        approach,
        profile: spec.experiment.profile,
        workload: spec.experiment.workload.name().to_string(),
        unsafe_conditions: state.unsafe_conditions,
        simulations: state.simulations,
        cost_seconds: state.cost_seconds,
        labels_evaluated: state.labels,
        symmetry_pruned: pruning.symmetry_pruned,
        found_bug_pruned: pruning.found_bug_pruned,
        link_scenario: None,
        crashes: state.crashes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_an_avis_campaign() {
        let campaign = Campaign::builder().build();
        assert!(matches!(
            campaign.strategy,
            StrategyChoice::Approach(Approach::Avis)
        ));
        assert_eq!(campaign.budget, Budget::simulations(50));
        assert_eq!(campaign.profiling_runs, 3);
        assert_eq!(campaign.experiment.profile, FirmwareProfile::ArduPilotLike);
        assert_eq!(campaign.experiment.workload.name(), "auto-box-mission");
    }

    #[test]
    fn builder_overrides_apply_on_top_of_an_explicit_experiment() {
        let mut experiment =
            ExperimentConfig::new(FirmwareProfile::Px4Like, BugSet::none(), auto_box_mission());
        experiment.max_duration = 150.0;
        let campaign = Campaign::builder()
            // Ignored: the explicit experiment wins over the trio.
            .firmware(FirmwareProfile::ArduPilotLike)
            .experiment(experiment)
            .max_duration(90.0)
            .noise(SensorNoise::noiseless())
            .parallelism(0)
            .build();
        assert_eq!(campaign.experiment.profile, FirmwareProfile::Px4Like);
        assert_eq!(campaign.experiment.max_duration, 90.0);
        assert_eq!(campaign.experiment.noise, Some(SensorNoise::noiseless()));
        assert_eq!(campaign.parallelism, 1, "parallelism is clamped to >= 1");
    }
}
