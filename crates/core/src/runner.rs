//! The experiment runner: the experiment configuration, run results and
//! the public run entry points. Every entry provisions a simulator +
//! firmware + workload per test, executes its fault-injection scenarios
//! in lock-step and records each [`Trace`] through the one run loop in
//! the `batch` module (the `RunExperiment` procedure of Algorithm 1, and
//! the step loop of Figure 7).

use crate::contain;
use crate::protocol::ProtocolTracker;
use crate::snapshot::{
    next_origin, CheckpointConfig, CheckpointStats, RunSnapshot, SharedSnapshotTier,
};
use crate::trace::Trace;
use avis_firmware::{BugId, BugSet, Firmware, FirmwareProfile};
use avis_hinj::{FaultInjector, FaultPlan, FaultyLink, LinkSnapshot, SharedInjector};
use avis_sim::simulator::{SimConfig, Simulator, StepOutput};
use avis_sim::{CowVec, MotorCommands, SensorNoise, SimRng};
use avis_workload::{ScriptedWorkload, WorkloadStatus};
use std::sync::Arc;

/// Salt folded into the link fault shim's RNG seed so its stream is
/// independent of the simulator's sensor-noise stream derived from the
/// same experiment seed. Never derived from the fault plan: two plans
/// sharing an injection prefix must consume identical link-RNG streams
/// up to the first divergent fault, which is what makes checkpointed
/// link-fault runs bit-identical to cold ones.
pub(crate) const LINK_RNG_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Configuration of an experiment: which firmware, which injected defects,
/// which workload, and the simulation parameters shared by every run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Firmware profile under test.
    pub profile: FirmwareProfile,
    /// Defects compiled into the firmware ("current code base" or a single
    /// re-inserted bug).
    pub bugs: BugSet,
    /// The workload to execute.
    pub workload: ScriptedWorkload,
    /// Simulation time-step (s).
    pub dt: f64,
    /// Hard cap on simulated time per run (s).
    pub max_duration: f64,
    /// Interval at which the trace is sampled (s).
    pub sample_interval: f64,
    /// Base RNG seed for sensor noise. Each run adds its own offset so
    /// profiling runs differ realistically.
    pub seed: u64,
    /// Sensor noise level (`None` keeps the simulator default).
    pub noise: Option<SensorNoise>,
    /// Extra simulated seconds to keep running after the workload reaches a
    /// terminal state (so post-landing behaviour is captured).
    pub grace_period: f64,
    /// Checkpoint-tree configuration: whether (and how densely) the
    /// runner snapshots injection runs so later scenarios can fork from a
    /// shared prefix instead of cold-starting (see [`crate::snapshot`]).
    /// Checkpointing never changes a run's result — a forked run is
    /// bit-identical to a cold one — so this is purely a speed/memory
    /// trade-off.
    pub checkpoints: CheckpointConfig,
    /// Scenario watchdog budgets, so a non-terminating scenario cannot
    /// starve a worker forever (see [`WatchdogConfig`]).
    pub watchdog: WatchdogConfig,
    /// Number of sibling scenarios advanced in lockstep through one
    /// [`avis_sim::LaneBatch`], sharing one sensor-noise draw, when a
    /// prefix family of speculative plans runs (see the `batch` module).
    /// `1` disables batching. Purely a speed knob: a batched run is
    /// bit-identical to a scalar one, so this is excluded from the
    /// experiment fingerprint, exactly like checkpoint placement.
    pub lockstep_lanes: usize,
}

/// Per-experiment watchdog budgets. The *step* budget is the canonical
/// limit: it counts simulated lock-step iterations, so it trips at the
/// identical simulated state cold or forked, at any parallelism, and a
/// tripped run carries the deterministic [`RunVerdict::Diverged`]. The
/// *wall-clock* budget is a deliberately nondeterministic backstop for a
/// hung substrate (an infinite loop inside one simulated step, which the
/// step budget can never observe); it is lint-exempted, checked coarsely,
/// and should be set far above any plausible honest run time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WatchdogConfig {
    /// Maximum simulated lock-step iterations per run (`None` = no step
    /// budget). Deterministic: part of the experiment fingerprint.
    pub max_steps: Option<u64>,
    /// Maximum wall-clock seconds per run (`None` = no wall-clock
    /// backstop). Nondeterministic by nature; excluded from the
    /// experiment fingerprint because it can only convert a *hang* into
    /// a [`RunVerdict::Diverged`], never alter a run that terminates.
    pub wall_clock_seconds: Option<f64>,
}

impl ExperimentConfig {
    /// A stable identity of everything that determines a run's state
    /// evolution — used by [`SharedSnapshotTier`] to refuse cross-
    /// experiment snapshot reuse. Checkpoint placement is deliberately
    /// excluded: it changes which snapshots exist, never what state they
    /// capture.
    pub(crate) fn fingerprint(&self) -> String {
        // The watchdog *step* budget joins the fingerprint (it changes
        // where a run can end); the wall-clock backstop does not (it can
        // only convert a hang into `Diverged`, never alter a terminating
        // run's state evolution).
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{}|{}|{}|{}|{:?}|{}|{:?}",
            self.profile,
            self.bugs,
            self.workload.name(),
            self.workload.steps(),
            self.workload.environment(),
            self.dt,
            self.max_duration,
            self.sample_interval,
            self.seed,
            self.noise,
            self.grace_period,
            self.watchdog.max_steps
        )
    }

    /// A configuration with sensible defaults for the given profile,
    /// defects and workload.
    pub fn new(profile: FirmwareProfile, bugs: BugSet, workload: ScriptedWorkload) -> Self {
        ExperimentConfig {
            profile,
            bugs,
            workload,
            dt: 0.0025,
            max_duration: 150.0,
            sample_interval: 0.1,
            seed: 7,
            noise: None,
            grace_period: 2.0,
            checkpoints: CheckpointConfig::default(),
            watchdog: WatchdogConfig::default(),
            lockstep_lanes: 4,
        }
    }
}

/// How a run ended, beyond what the trace itself records.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RunVerdict {
    /// The run executed to its natural end (workload terminal state,
    /// grace period, or the simulated-duration cap).
    #[default]
    Completed,
    /// The firmware (or another substrate layer) panicked while
    /// executing the plan. Contained at the runner boundary (see the
    /// `contain` module) and reported as a first-class outcome — the
    /// paper's `Serious` symptom class — instead of aborting the
    /// campaign. Deterministic: the same (seed, plan) crashes at the
    /// same step with the same message at any parallelism.
    Crashed {
        /// The rendered panic payload, tagged with the experiment
        /// fingerprint (seed + canonical plan key).
        message: String,
        /// The simulated lock-step index at which the panic unwound.
        step: u64,
    },
    /// A scenario watchdog tripped before the run reached a natural end
    /// (see [`WatchdogConfig`]). The step budget trips deterministically;
    /// the wall-clock backstop only fires on a hung substrate.
    Diverged,
}

/// The outcome of one simulated test run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The fault plan that was injected.
    pub plan: FaultPlan,
    /// The recorded trace.
    pub trace: Trace,
    /// Simulated duration of the run (s) — the "cost" charged against the
    /// checker's test budget.
    pub simulated_seconds: f64,
    /// Injected defects that activated during the run (used to map unsafe
    /// conditions back to the bugs of Tables II and V).
    pub triggered_defects: Vec<BugId>,
    /// How the run ended: completed, crashed (contained panic) or
    /// diverged (watchdog).
    pub verdict: RunVerdict,
}

impl RunResult {
    /// Whether the run ended in a physical collision.
    pub fn crashed(&self) -> bool {
        self.trace.collision.is_some()
    }
}

/// The experiment runner.
#[derive(Debug)]
pub struct ExperimentRunner {
    pub(crate) config: ExperimentConfig,
    pub(crate) runs: u64,
    /// The one snapshot cache this runner forks from and commits to (see
    /// [`crate::snapshot`]): its own until [`ExperimentRunner::set_shared_tier`]
    /// attaches a campaign's or a caller's.
    pub(crate) cache: Arc<SharedSnapshotTier>,
    /// This runner's identity as the recorder of the cuts it commits.
    pub(crate) origin: u64,
    /// The per-run counters of this runner's calls (forked and cold
    /// runs, shared hits, simulated seconds skipped).
    pub(crate) run_stats: CheckpointStats,
    /// The simulated lock-step index the in-flight run last reached —
    /// read by [`ExperimentRunner::run_batch_contained`] after a
    /// contained panic, when the run's locals are gone with the unwind.
    pub(crate) step_cursor: u64,
}

impl ExperimentRunner {
    /// Creates a runner for the given configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        assert!(config.dt > 0.0, "dt must be positive");
        assert!(
            config.sample_interval >= config.dt,
            "sample interval must be >= dt"
        );
        assert!(
            config.checkpoints.interval > 0.0,
            "checkpoint interval must be positive"
        );
        ExperimentRunner {
            cache: Arc::new(SharedSnapshotTier::new(config.checkpoints.max_bytes)),
            config,
            runs: 0,
            origin: next_origin(),
            run_stats: CheckpointStats::default(),
            step_cursor: 0,
        }
    }

    /// Replaces this runner's snapshot cache with `tier`, which it then
    /// forks from and commits to alongside every other runner attached
    /// to it (see [`crate::snapshot::SharedSnapshotTier`]). Sharing never
    /// changes a run's result — a forked run is bit-identical to a cold
    /// one whichever runner recorded the cut. The cache is claimed for
    /// this runner's experiment on first attach; a runner whose
    /// experiment differs from the claim keeps its own cache (snapshot
    /// keys encode only the injection prefix, so cross-experiment reuse
    /// would resume foreign state).
    pub fn set_shared_tier(&mut self, tier: Arc<SharedSnapshotTier>) {
        if tier.claim(&self.config.fingerprint()) {
            self.cache = tier;
        }
    }

    /// The runner's configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Number of runs executed so far.
    pub fn runs_executed(&self) -> u64 {
        self.runs
    }

    /// Checkpoint statistics: this runner's per-run counters (forked vs
    /// cold runs, shared hits, simulated seconds skipped by forking) and
    /// the statistics of the cache it uses (memory held, evictions,
    /// quarantines).
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        let own = self.run_stats;
        CheckpointStats {
            forked_runs: own.forked_runs,
            cold_runs: own.cold_runs,
            shared_hits: own.shared_hits,
            simulated_seconds_skipped: own.simulated_seconds_skipped,
            ..self.cache.stats()
        }
    }

    /// Test hook: silently corrupts every cached cut, as a stuck bit in
    /// the store would. The next fork attempt must detect the mismatch,
    /// quarantine the cut and fall back to cold execution.
    #[doc(hidden)]
    pub fn corrupt_cached_chains_for_test(&mut self) {
        self.cache.lock().corrupt_entries_for_test();
    }

    /// Executes the workload with no injected faults (a golden / profiling
    /// run). `profiling_index` varies the sensor-noise seed so profiling
    /// runs differ the way real repeated flights do. The run forks from
    /// the cache's cut for this index when one exists, and records one
    /// cut of its own at the first loop top after the workload turns
    /// terminal (see [`crate::snapshot`]); the result is bit-identical
    /// either way.
    pub fn run_profiling(&mut self, profiling_index: u64) -> RunResult {
        self.execute(vec![FaultPlan::empty()], profiling_index + 1)
            .swap_remove(0)
    }

    /// Executes one fault-injection scenario.
    pub fn run_with_plan(&mut self, plan: FaultPlan) -> RunResult {
        self.execute(vec![plan], 0).swap_remove(0)
    }

    /// Executes one fault-injection scenario with panic containment (see
    /// [`ExperimentRunner::run_batch_contained`]).
    pub fn run_contained(&mut self, plan: FaultPlan) -> RunResult {
        self.run_batch_contained(vec![plan]).swap_remove(0)
    }

    /// Executes sibling fault-injection scenarios in lockstep (see the
    /// `batch` module) with panic containment: a panic raised anywhere
    /// inside the run — simulated firmware, the substrate, the workload —
    /// is caught at this boundary instead of unwinding into the engine.
    /// The panicked call's cuts are never committed to the cache (a call
    /// commits them only when it returns), so no later fork resumes the
    /// panicked run's state. A lone plan then reports
    /// [`RunVerdict::Crashed`]; a batch re-runs each of its plans alone,
    /// contained, which reproduces the other lanes' results exactly and
    /// gives the panicking one its crash. A crashing (seed, plan)
    /// therefore crashes bit-identically cold, checkpointed, batched or
    /// on any worker.
    ///
    /// Results come back in input order and are bit-identical to
    /// `plans.map(run_with_plan)` — batching, like checkpointing, is
    /// purely a speed knob.
    pub fn run_batch_contained(&mut self, plans: Vec<FaultPlan>) -> Vec<RunResult> {
        let retained = plans.clone();
        let payload = match contain::catch(|| self.execute(plans, 0)) {
            Ok(results) => return results,
            Err(payload) => payload,
        };
        if retained.len() > 1 {
            // The payload is dropped: each lone rerun reproduces the
            // crash in its own boundary, which renders the canonical
            // message with the per-plan context.
            return retained
                .into_iter()
                .map(|p| self.run_contained(p))
                .collect();
        }
        let step = self.step_cursor;
        retained
            .into_iter()
            .map(|plan| {
                let context = format!(
                    "experiment seed {}, plan {}",
                    self.config.seed,
                    plan.canonical_key()
                );
                let message = contain::render_panic(payload.as_ref(), &context);
                RunResult {
                    plan,
                    trace: Trace {
                        sample_interval: self.config.sample_interval,
                        samples: Vec::new(),
                        mode_transitions: Vec::new(),
                        collision: None,
                        fence_violations: 0,
                        workload_status: WorkloadStatus::Running,
                        duration: 0.0,
                        protocol: Vec::new(),
                    },
                    simulated_seconds: 0.0,
                    triggered_defects: Vec::new(),
                    verdict: RunVerdict::Crashed { message, step },
                }
            })
            .collect()
    }

    /// Whether the checkpoint breaker has tripped: repeated checksum
    /// failures disabled the cache this runner uses, and every subsequent
    /// run on it cold-starts (see [`crate::snapshot`]).
    pub fn checkpointing_degraded(&self) -> bool {
        self.cache.lock().degraded()
    }

    /// The deterministic `t = 0` state of a run of this configuration:
    /// the cold start every run without a fork restores (see the `batch`
    /// module), and the *genesis* snapshot every persisted cut decodes
    /// onto: a cut blob holds only dynamic state, and genesis supplies
    /// the static rest, so a cut re-materialises bit-exactly on any host
    /// that can rebuild the same [`ExperimentConfig`]. The fault
    /// plan is irrelevant here: a restore always swaps the plan in (see
    /// `into_restored_with_plan`), so genesis carries the empty one. The
    /// simulator takes one idle priming step, so the first loop top has
    /// sensor readings.
    pub(crate) fn genesis_snapshot(cfg: &ExperimentConfig, seed_offset: u64) -> RunSnapshot {
        let plan = FaultPlan::empty();
        let link_plan = plan.link_plan().clone();
        let mut sim_config = SimConfig {
            dt: cfg.dt,
            seed: cfg.seed.wrapping_add(seed_offset),
            ..SimConfig::default()
        };
        if let Some(noise) = &cfg.noise {
            sim_config.sensors.noise = noise.clone();
        }
        let mut sim = Simulator::new_shared(sim_config, cfg.workload.shared_environment());
        let injector = SharedInjector::new(FaultInjector::new(plan));
        let firmware = Firmware::new(cfg.profile, cfg.bugs.clone(), injector.clone());
        let link = FaultyLink::new(
            link_plan,
            SimRng::seed_from_u64(cfg.seed.wrapping_add(seed_offset) ^ LINK_RNG_SALT),
        );
        let mut output = StepOutput::empty();
        sim.step_into(&MotorCommands::IDLE, &mut output);
        let time = sim.time();
        RunSnapshot {
            sim: sim.snapshot(),
            firmware: firmware.snapshot(),
            injector: injector.snapshot(),
            link: LinkSnapshot::capture(&link),
            tracker: ProtocolTracker::new(),
            workload: cfg.workload.fresh(),
            // Pre-sized for the full run, so the trace never reallocates.
            samples: CowVec::with_capacity((cfg.max_duration / cfg.sample_interval) as usize + 2),
            output,
            fence_violations: 0,
            next_sample_time: 0.0,
            workload_status: WorkloadStatus::Running,
            terminal_since: None,
            time,
            prefix: crate::snapshot::InjectionPrefix::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::CheckpointStats;
    use avis_firmware::{BugId, OperatingMode};
    use avis_hinj::FaultSpec;
    use avis_sim::{SensorInstance, SensorKind};
    use avis_workload::auto_box_mission;

    fn quiet_config(bugs: BugSet) -> ExperimentConfig {
        let mut cfg =
            ExperimentConfig::new(FirmwareProfile::ArduPilotLike, bugs, auto_box_mission());
        cfg.noise = Some(SensorNoise::noiseless());
        cfg.max_duration = 120.0;
        cfg
    }

    #[test]
    fn golden_run_passes_and_does_not_crash() {
        let mut runner = ExperimentRunner::new(quiet_config(BugSet::none()));
        let result = runner.run_profiling(0);
        assert_eq!(result.trace.workload_status, WorkloadStatus::Passed);
        assert!(!result.crashed());
        assert!(
            result.trace.max_altitude() > 15.0,
            "the mission climbs to ~20 m"
        );
        assert!(
            result.trace.len() > 100,
            "trace is sampled throughout the run"
        );
        assert!(result.simulated_seconds > 30.0);
        assert_eq!(runner.runs_executed(), 1);
        // The mode transitions include takeoff, auto legs and landing.
        let modes: Vec<OperatingMode> = result
            .trace
            .mode_transitions
            .iter()
            .map(|t| t.mode)
            .collect();
        assert!(modes.contains(&OperatingMode::Takeoff));
        assert!(modes.iter().any(|m| m.is_auto()));
        assert!(modes.contains(&OperatingMode::Land));
    }

    #[test]
    fn profiling_runs_with_different_indices_differ_slightly() {
        let mut cfg = quiet_config(BugSet::none());
        cfg.noise = None; // keep the default noise so runs differ
        let mut runner = ExperimentRunner::new(cfg);
        let a = runner.run_profiling(0);
        let b = runner.run_profiling(1);
        assert_eq!(a.trace.workload_status, WorkloadStatus::Passed);
        assert_eq!(b.trace.workload_status, WorkloadStatus::Passed);
        assert_ne!(a.trace.samples, b.trace.samples, "different noise seeds");
    }

    #[test]
    fn identical_plans_replay_identically() {
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Gps, 1),
            30.0,
        )]);
        let mut runner = ExperimentRunner::new(quiet_config(BugSet::none()));
        let a = runner.run_with_plan(plan.clone());
        let b = runner.run_with_plan(plan);
        assert_eq!(
            a.trace.samples, b.trace.samples,
            "replay must be deterministic"
        );
    }

    #[test]
    fn forked_replay_is_bit_identical_to_cold_execution() {
        let gps1 = SensorInstance::new(SensorKind::Gps, 1);
        let plan_a = FaultPlan::from_specs(vec![FaultSpec::new(gps1, 40.0)]);
        let plan_b = FaultPlan::from_specs(vec![FaultSpec::new(gps1, 50.0)]);

        // Reference results from a checkpoint-disabled runner.
        let mut cold_cfg = quiet_config(BugSet::none());
        cold_cfg.checkpoints = CheckpointConfig::disabled();
        let mut cold_runner = ExperimentRunner::new(cold_cfg);
        let cold_a = cold_runner.run_with_plan(plan_a.clone());
        let cold_b = cold_runner.run_with_plan(plan_b.clone());
        assert_eq!(cold_runner.checkpoint_stats(), CheckpointStats::default());

        // The checkpointing runner cold-starts the first plan and forks
        // the second off the shared fault-free prefix (< 40 s).
        let mut runner = ExperimentRunner::new(quiet_config(BugSet::none()));
        let a = runner.run_with_plan(plan_a);
        let b = runner.run_with_plan(plan_b);
        assert_eq!(a, cold_a, "cold-started checkpointing run diverged");
        assert_eq!(b, cold_b, "forked run diverged from cold execution");

        let stats = runner.checkpoint_stats();
        assert_eq!(stats.cold_runs, 1);
        assert_eq!(stats.forked_runs, 1);
        assert!(
            stats.simulated_seconds_skipped >= 35.0,
            "the fork should resume close to the 40 s injection: {stats:?}"
        );
        assert!(stats.snapshots_recorded as usize >= stats.snapshots_cached);
        assert!(stats.cached_bytes > 0);
    }

    #[test]
    fn profiling_run_records_one_terminal_cut_into_the_tier() {
        let cfg = quiet_config(BugSet::none());
        let mut cold = cfg.clone();
        cold.checkpoints = CheckpointConfig::disabled();
        let reference = ExperimentRunner::new(cold).run_profiling(1);
        let tier = Arc::new(SharedSnapshotTier::new(cfg.checkpoints.max_bytes));

        // The first profiling run flies cold and records exactly one cut,
        // at the first loop top after its workload turned terminal.
        let mut runner = ExperimentRunner::new(cfg.clone());
        runner.set_shared_tier(Arc::clone(&tier));
        assert_eq!(runner.run_profiling(1), reference);
        let stats = runner.checkpoint_stats();
        assert_eq!((stats.cold_runs, stats.forked_runs), (1, 0));
        let cache = tier.lock();
        let keys: Vec<_> = cache.cells().map(|(key, _)| key.clone()).collect();
        assert_eq!(keys.len(), 1, "one cut per profiling run: {}", keys.len());
        assert_eq!(keys[0].seed_offset, 2);
        let cut = cache.export(&keys[0]).expect("the cut is intact").clone();
        drop(cache);
        let since = cut
            .terminal_since
            .expect("the workload is terminal at the cut");
        assert!(
            (cut.time - since - cfg.dt).abs() < 1e-9,
            "cut at {} for a workload terminal since {since}",
            cut.time
        );

        // A fresh runner sharing the cache forks from that cut, flies
        // only the grace tail and returns the same result; it records
        // nothing.
        let mut fresh = ExperimentRunner::new(cfg.clone());
        fresh.set_shared_tier(Arc::clone(&tier));
        assert_eq!(fresh.run_profiling(1), reference);
        let stats = fresh.checkpoint_stats();
        assert_eq!(
            (stats.forked_runs, stats.shared_hits, stats.cold_runs),
            (1, 1, 0)
        );
        assert_eq!(stats.simulated_seconds_skipped, cut.time);
        assert_eq!(tier.stats().snapshots_recorded, 1);

        // A standalone runner records the cut into its own cache.
        let mut standalone = ExperimentRunner::new(cfg);
        standalone.run_profiling(1);
        assert_eq!(standalone.checkpoint_stats().snapshots_cached, 1);
    }

    #[test]
    fn tiny_memory_budget_evicts_but_stays_correct() {
        let gps1 = SensorInstance::new(SensorKind::Gps, 1);
        let mut cfg = quiet_config(BugSet::none());
        // Room for roughly one snapshot: almost every record evicts.
        cfg.checkpoints = CheckpointConfig::with_max_bytes(64 * 1024);
        let mut runner = ExperimentRunner::new(cfg);
        let mut cold_cfg = quiet_config(BugSet::none());
        cold_cfg.checkpoints = CheckpointConfig::disabled();
        let mut cold_runner = ExperimentRunner::new(cold_cfg);
        for time in [30.0, 45.0, 60.0] {
            let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps1, time)]);
            let budgeted = runner.run_with_plan(plan.clone());
            let cold = cold_runner.run_with_plan(plan);
            assert_eq!(budgeted, cold, "eviction must never change results");
        }
        let stats = runner.checkpoint_stats();
        assert!(
            stats.snapshots_evicted > 0,
            "budget should evict: {stats:?}"
        );
        assert!(stats.cached_bytes <= 64 * 1024);
    }

    #[test]
    fn fault_free_run_with_current_code_base_is_still_safe() {
        // The injected defects only corrupt behaviour when their trigger
        // sensor fails; without injection the mission completes normally.
        let bugs = BugSet::current_code_base(FirmwareProfile::ArduPilotLike);
        let mut runner = ExperimentRunner::new(quiet_config(bugs));
        let result = runner.run_profiling(0);
        assert_eq!(result.trace.workload_status, WorkloadStatus::Passed);
        assert!(!result.crashed());
    }

    #[test]
    fn injected_accel_failure_during_takeoff_crashes_buggy_firmware() {
        // APM-16021: primary accelerometer failure during the climb.
        let bugs = BugSet::only(BugId::Apm16021);
        let mut runner = ExperimentRunner::new(quiet_config(bugs));
        // Profile first to find the takeoff window.
        let golden = runner.run_profiling(0);
        let takeoff_time = golden
            .trace
            .mode_transitions
            .iter()
            .find(|t| t.mode == OperatingMode::Takeoff)
            .map(|t| t.time)
            .expect("golden run takes off");
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Accelerometer, 0),
            takeoff_time + 4.0,
        )]);
        let result = runner.run_with_plan(plan);
        assert!(result.crashed(), "the APM-16021 defect crashes the vehicle");
    }

    #[test]
    fn same_failure_without_the_bug_is_handled_safely() {
        let mut runner = ExperimentRunner::new(quiet_config(BugSet::none()));
        let golden = runner.run_profiling(0);
        let takeoff_time = golden
            .trace
            .mode_transitions
            .iter()
            .find(|t| t.mode == OperatingMode::Takeoff)
            .map(|t| t.time)
            .unwrap();
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Accelerometer, 0),
            takeoff_time + 4.0,
        )]);
        let result = runner.run_with_plan(plan);
        assert!(
            !result.crashed(),
            "failover to the backup accelerometer handles this"
        );
    }
}
