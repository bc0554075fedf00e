//! Determinism suite for the campaign engine: for every built-in
//! strategy — the four [`Approach`]es plus [`RoundRobinMode`] — the
//! parallel engine must produce a [`CampaignResult`] structurally
//! identical to the serial engine — same unsafe conditions in the same
//! order, same simulation/cost accounting, same pruning counters — and
//! the simulator's buffer-reusing `step_into` must match the allocating
//! `step` sample-for-sample.

use avis::campaign::Campaign;
use avis::checker::{Approach, Budget, CampaignResult};
use avis::matrix::ScenarioMatrix;
use avis::runner::{ExperimentConfig, ExperimentRunner, RunVerdict};
use avis::snapshot::{CheckpointConfig, SharedSnapshotTier};
use avis::strategy::{
    Candidate, Decision, LinkProbeStrategy, Observation, RoundRobinMode, Strategy, StrategyContext,
};
use avis::WorkerStatsCollector;
use avis_firmware::{BugId, BugSet, FirmwareProfile};
use avis_hinj::{
    FaultPlan, FaultSpec, LinkDirection, LinkFaultKind, LinkFaultPlan, LinkFaultSpec, StormCommand,
};
use avis_sim::simulator::{SimConfig, Simulator, StepOutput};
use avis_sim::{Environment, MotorCommands, SensorInstance, SensorKind, SensorNoise};
use avis_workload::{auto_box_mission, manual_box_survey};
use std::sync::Arc;

fn experiment() -> ExperimentConfig {
    let bugs = BugSet::current_code_base(FirmwareProfile::ArduPilotLike);
    let mut experiment =
        ExperimentConfig::new(FirmwareProfile::ArduPilotLike, bugs, auto_box_mission());
    experiment.noise = Some(SensorNoise::default());
    experiment.max_duration = 110.0;
    experiment
}

fn campaign(approach: Approach, parallelism: usize) -> CampaignResult {
    Campaign::builder()
        .experiment(experiment())
        .approach(approach)
        .budget(Budget::simulations(6))
        .profiling_runs(1)
        .parallelism(parallelism)
        .build()
        .run()
}

fn assert_identical(approach: Approach) {
    let serial = campaign(approach, 1);
    let parallel = campaign(approach, 4);
    assert_eq!(
        serial, parallel,
        "{approach}: parallel campaign diverged from the serial engine"
    );
    // The budget was honoured, and the accounting carried over exactly.
    assert!(serial.simulations <= 6);
    assert_eq!(serial.simulations, parallel.simulations);
    assert_eq!(serial.cost_seconds, parallel.cost_seconds);
    assert_eq!(serial.symmetry_pruned, parallel.symmetry_pruned);
    assert_eq!(serial.found_bug_pruned, parallel.found_bug_pruned);
    assert_eq!(serial.labels_evaluated, parallel.labels_evaluated);
}

#[test]
fn avis_campaign_is_deterministic_across_engines() {
    assert_identical(Approach::Avis);
}

#[test]
fn stratified_bfi_campaign_is_deterministic_across_engines() {
    assert_identical(Approach::StratifiedBfi);
}

#[test]
fn bfi_campaign_is_deterministic_across_engines() {
    assert_identical(Approach::Bfi);
}

#[test]
fn random_campaign_is_deterministic_across_engines() {
    assert_identical(Approach::Random);
}

#[test]
fn round_robin_campaign_is_deterministic_across_engines() {
    // The fifth built-in strategy goes through the custom-strategy path
    // (no Approach), so this also pins determinism for the extension
    // seam itself.
    let run = |parallelism: usize| {
        Campaign::builder()
            .experiment(experiment())
            .strategy(RoundRobinMode::new())
            .budget(Budget::simulations(6))
            .profiling_runs(1)
            .parallelism(parallelism)
            .build()
            .run()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "round-robin: parallel campaign diverged from the serial engine"
    );
    assert!(serial.approach.is_none());
    assert_eq!(serial.strategy, "Round-robin mode");
}

#[test]
fn checkpointed_campaign_is_bit_identical_to_cold_execution() {
    // The checkpoint cache must be invisible in every campaign
    // observable: a campaign whose runs fork from cached snapshots —
    // recorded by the same runner or by another worker, or a caller's
    // cross-campaign cache — produces the same `CampaignResult` as one
    // that cold-starts every run from t = 0, at parallelism 1 (the inline
    // runner alone on the campaign's cache) and at parallelism 4 (four
    // workers forking from and committing to that one cache).
    let run = |checkpoints: CheckpointConfig,
               parallelism: usize,
               tier: Option<Arc<SharedSnapshotTier>>| {
        let mut builder = Campaign::builder()
            .experiment(experiment())
            .approach(Approach::Avis)
            .budget(Budget::simulations(8))
            .profiling_runs(1)
            .parallelism(parallelism)
            .checkpoints(checkpoints);
        if let Some(tier) = tier {
            builder = builder.shared_snapshots(tier);
        }
        builder.build().run()
    };
    let cold = run(CheckpointConfig::disabled(), 1, None);
    for parallelism in [1, 4] {
        let checkpointed = run(CheckpointConfig::default(), parallelism, None);
        assert_eq!(
            cold, checkpointed,
            "checkpointed campaign (parallelism {parallelism}) diverged from cold execution"
        );
        // A constrained memory budget (eviction on nearly every record)
        // must be equally invisible.
        let budgeted = run(
            CheckpointConfig::with_max_bytes(96 * 1024),
            parallelism,
            None,
        );
        assert_eq!(
            cold, budgeted,
            "memory-budgeted campaign (parallelism {parallelism}) diverged from cold execution"
        );
        // An explicit shared cache — including one pre-warmed by an
        // earlier campaign over the same experiment — must be equally
        // invisible: the second campaign forks from the first one's
        // snapshots and still reproduces the cold result.
        let tier = Arc::new(SharedSnapshotTier::new(48 * 1024 * 1024));
        let first = run(
            CheckpointConfig::default(),
            parallelism,
            Some(Arc::clone(&tier)),
        );
        assert_eq!(
            cold, first,
            "shared-cache campaign (parallelism {parallelism}) diverged from cold execution"
        );
        let warmed = run(
            CheckpointConfig::default(),
            parallelism,
            Some(Arc::clone(&tier)),
        );
        assert_eq!(
            cold, warmed,
            "cache-warmed campaign (parallelism {parallelism}) diverged from cold execution"
        );
        assert!(
            tier.stats().snapshots_cached > 0,
            "the shared cache should hold snapshots (parallelism {parallelism}): {:?}",
            tier.stats()
        );
        // Delta-chain encoding at either extreme — keyframes only
        // (stride 1) and delta-encoding nearly every cut under budget
        // pressure (stride 16, tight budget) — must be equally
        // invisible: re-materialised cuts are bit-exact.
        for stride in [1, 16] {
            let encoded = run(
                CheckpointConfig {
                    keyframe_stride: stride,
                    max_bytes: 512 * 1024,
                    ..CheckpointConfig::default()
                },
                parallelism,
                None,
            );
            assert_eq!(
                cold, encoded,
                "delta-chain campaign (stride {stride}, parallelism {parallelism}) \
                 diverged from cold execution"
            );
        }
    }
    assert!(
        !cold.unsafe_conditions.is_empty(),
        "the comparison should cover unsafe-condition bookkeeping too"
    );
}

#[test]
fn bug_dense_campaign_with_pruning_aware_wavefronts_is_deterministic() {
    // The bug-dense regime: most commits find bugs, so the engine keeps
    // shrinking speculation (pruning-aware wavefront sizing) and
    // regrowing it after bug-free wavefronts. Sizing decides only which
    // runs are *pre-executed*, never which commit — the parallel result
    // must stay bit-identical to the serial engine while actually
    // exercising the shrink/regrow path (the budget spans several
    // wavefronts with unsafe commits in between).
    let run = |parallelism: usize| {
        Campaign::builder()
            .experiment(experiment())
            .approach(Approach::Avis)
            .budget(Budget::simulations(12))
            .profiling_runs(1)
            .parallelism(parallelism)
            .build()
            .run()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "bug-dense parallel campaign diverged from the serial engine"
    );
    assert!(
        serial.unsafe_conditions.len() >= 2,
        "the bug-dense scenario should commit several unsafe runs: {}",
        serial.unsafe_conditions.len()
    );
}

#[test]
fn family_dispatch_is_bit_identical_on_fixed_and_buggy_code() {
    // Workers pop whole prefix families off one queue, in whatever order
    // they come free. Placement decides only which worker
    // *pre-executes* a run — the commit path is byte-for-byte shared —
    // so parallelism 4 must reproduce the serial result exactly, on the
    // fixed and the buggy code base.
    let run = |bugs: BugSet, parallelism: usize| {
        let mut experiment = experiment();
        experiment.bugs = bugs;
        let cache = Arc::new(SharedSnapshotTier::new(
            CheckpointConfig::default().max_bytes,
        ));
        let collector = Arc::new(WorkerStatsCollector::new());
        let result = Campaign::builder()
            .experiment(experiment)
            .approach(Approach::Avis)
            .budget(Budget::simulations(8))
            .profiling_runs(1)
            .parallelism(parallelism)
            .shared_snapshots(Arc::clone(&cache))
            .worker_stats(Arc::clone(&collector))
            .build()
            .run();
        // Workers report only their per-run counters; the cache-wide
        // fields ride on the campaign's inline entry alone, so a sum over
        // the collector counts the one cache once.
        let collected = collector.collected();
        let summed: usize = collected.iter().map(|s| s.cached_bytes).sum();
        let cached = cache.stats().cached_bytes;
        assert!(cached > 0, "the campaign should cache cuts");
        assert_eq!(
            summed, cached,
            "parallelism {parallelism}: {collected:?} double-counts the cache"
        );
        result
    };
    for bugs in [
        BugSet::none(),
        BugSet::current_code_base(FirmwareProfile::ArduPilotLike),
    ] {
        let serial = run(bugs.clone(), 1);
        let parallel = run(bugs.clone(), 4);
        assert_eq!(
            serial, parallel,
            "parallelism 4 diverged from the serial engine ({bugs:?})"
        );
    }
}

#[test]
fn speculation_admission_is_bit_identical_at_parallelism_4() {
    // The admission gate (`Strategy::prune_probability`) withholds
    // likely-doomed speculative jobs on the buggy code base, where bug
    // findings concentrate at shared injection sites. Withheld jobs
    // execute inline at commit, so the result must stay bit-identical to
    // the serial engine — this pins the regression at a budget large
    // enough that admission actually engages (bugs accumulate across
    // several wavefronts).
    let run = |parallelism: usize| {
        Campaign::builder()
            .experiment(experiment())
            .approach(Approach::Avis)
            .budget(Budget::simulations(16))
            .profiling_runs(1)
            .parallelism(parallelism)
            .build()
            .run()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "speculation admission changed a campaign observable"
    );
    assert!(
        serial.unsafe_conditions.len() >= 2,
        "the scenario should accumulate bug sites for the admission gate: {}",
        serial.unsafe_conditions.len()
    );
}

#[test]
fn batched_lockstep_campaign_is_bit_identical_to_scalar() {
    // The lockstep-batching pin: a campaign that steps prefix-sharing
    // plans through the SoA multi-lane batch (`lockstep_lanes` > 1) must
    // be bit-identical to the scalar single-lane engine. Lane count is a
    // speed-only knob — it never appears in a campaign observable — so
    // scalar, 4-lane and 8-lane execution agree byte-for-byte, cold and
    // checkpointed, at parallelism 1 (serial wavefront batching) and 4
    // (per-worker chunk batching).
    let run = |lanes: usize, parallelism: usize, checkpoints: CheckpointConfig| {
        Campaign::builder()
            .experiment(experiment())
            .approach(Approach::Avis)
            .budget(Budget::simulations(8))
            .profiling_runs(1)
            .parallelism(parallelism)
            .checkpoints(checkpoints)
            .lockstep_lanes(lanes)
            .build()
            .run()
    };
    let scalar = run(1, 1, CheckpointConfig::disabled());
    assert!(
        !scalar.unsafe_conditions.is_empty(),
        "the comparison should cover unsafe-condition bookkeeping"
    );
    for parallelism in [1, 4] {
        for lanes in [4, 8] {
            let batched = run(lanes, parallelism, CheckpointConfig::disabled());
            assert_eq!(
                scalar, batched,
                "cold {lanes}-lane campaign (parallelism {parallelism}) \
                 diverged from the scalar engine"
            );
        }
        let checkpointed = run(4, parallelism, CheckpointConfig::default());
        assert_eq!(
            scalar, checkpointed,
            "checkpointed 4-lane campaign (parallelism {parallelism}) \
             diverged from the cold scalar engine"
        );
    }
}

#[test]
fn batched_lockstep_link_fault_campaign_matches_scalar() {
    // Same pin under a pinned link-fault environment: lanes carry live
    // `FaultyLink` shims whose rng streams must stay aligned with the
    // scalar path, and mid-air arm storms force mode departures while
    // the departed lanes keep stepping in the batch. Cold and
    // checkpointed batched execution still reproduce the scalar result —
    // and the seeded protocol defect — exactly.
    let run = |lanes: usize, parallelism: usize, checkpoints: CheckpointConfig| {
        Campaign::builder()
            .experiment(proto_experiment())
            .approach(Approach::Avis)
            .link_faults(arm_storm())
            .budget(Budget::simulations(8))
            .profiling_runs(1)
            .parallelism(parallelism)
            .checkpoints(checkpoints)
            .lockstep_lanes(lanes)
            .build()
            .run()
    };
    let scalar = run(1, 1, CheckpointConfig::disabled());
    assert!(
        scalar.bugs_found().contains(&BugId::ProtoDoubleArm),
        "the arm storm should reproduce PROTO-101: {:?}",
        scalar.bugs_found()
    );
    for parallelism in [1, 4] {
        let batched = run(4, parallelism, CheckpointConfig::disabled());
        assert_eq!(
            scalar, batched,
            "cold 4-lane link-fault campaign (parallelism {parallelism}) \
             diverged from the scalar engine"
        );
        let checkpointed = run(4, parallelism, CheckpointConfig::default());
        assert_eq!(
            scalar, checkpointed,
            "checkpointed 4-lane link-fault campaign (parallelism {parallelism}) \
             diverged from the scalar engine"
        );
    }
}

#[test]
fn parallel_avis_campaign_still_finds_bugs() {
    // Guards against a degenerate "determinism" where both engines find
    // nothing: the buggy code base must expose unsafe conditions through
    // the parallel path too.
    let result = campaign(Approach::Avis, 4);
    assert!(
        !result.unsafe_conditions.is_empty(),
        "the parallel engine should find the same unsafe conditions the serial one does"
    );
}

/// The firmware with only the seeded protocol defect (PROTO-101)
/// compiled in: unreachable by any sensor-fault plan, exposed only when
/// a link fault duplicates or storms the arm command.
fn proto_experiment() -> ExperimentConfig {
    let mut experiment = ExperimentConfig::new(
        FirmwareProfile::ArduPilotLike,
        BugSet::only(BugId::ProtoDoubleArm),
        auto_box_mission(),
    );
    experiment.noise = Some(SensorNoise::default());
    experiment.max_duration = 110.0;
    experiment
}

/// An arm-command storm injected mid-mission, while the vehicle is
/// airborne: the duplicated `ArmDisarm` toggles the buggy handler and
/// the motors cut out in the air.
fn arm_storm() -> LinkFaultPlan {
    LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
        LinkFaultKind::Storm {
            command: StormCommand::Arm,
            count: 8,
        },
        LinkDirection::ToVehicle,
        40.0,
    )])
}

#[test]
fn link_fault_campaign_is_deterministic_across_engines() {
    // A campaign with a pinned link-fault environment must satisfy the
    // same determinism contract as a sensor-only campaign: bit-identical
    // results at every parallelism. It must also actually reproduce the
    // seeded protocol defect, which no sensor-fault plan can reach.
    let run = |parallelism: usize| {
        Campaign::builder()
            .experiment(proto_experiment())
            .approach(Approach::Avis)
            .link_faults(arm_storm())
            .budget(Budget::simulations(6))
            .profiling_runs(1)
            .parallelism(parallelism)
            .build()
            .run()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "link-fault campaign diverged between serial and parallel engines"
    );
    assert!(
        serial.bugs_found().contains(&BugId::ProtoDoubleArm),
        "the arm storm should reproduce PROTO-101: {:?}",
        serial.bugs_found()
    );
}

#[test]
fn link_fault_campaign_checkpointed_matches_cold_execution() {
    // Checkpointing must stay invisible when plans carry link faults:
    // combined (sensor ∪ link) injection prefixes guarantee a forked run
    // replays the link shim's rng stream exactly, so cold, checkpointed
    // and delta-chain execution agree bit-for-bit at every parallelism.
    let run = |checkpoints: CheckpointConfig, parallelism: usize| {
        Campaign::builder()
            .experiment(proto_experiment())
            .approach(Approach::Avis)
            .link_faults(arm_storm())
            .budget(Budget::simulations(8))
            .profiling_runs(1)
            .parallelism(parallelism)
            .checkpoints(checkpoints)
            .build()
            .run()
    };
    let cold = run(CheckpointConfig::disabled(), 1);
    assert!(
        !cold.unsafe_conditions.is_empty(),
        "the comparison should cover unsafe-condition bookkeeping"
    );
    for parallelism in [1, 4] {
        let checkpointed = run(CheckpointConfig::default(), parallelism);
        assert_eq!(
            cold, checkpointed,
            "checkpointed link-fault campaign (parallelism {parallelism}) \
             diverged from cold execution"
        );
        let delta_chain = run(
            CheckpointConfig {
                keyframe_stride: 16,
                max_bytes: 512 * 1024,
                ..CheckpointConfig::default()
            },
            parallelism,
        );
        assert_eq!(
            cold, delta_chain,
            "delta-chain link-fault campaign (parallelism {parallelism}) \
             diverged from cold execution"
        );
    }
}

#[test]
fn matrix_link_fault_sweep_reproduces_the_protocol_defect() {
    // The acceptance scenario: a `ScenarioMatrix` sweeping link-fault
    // scenarios as a fourth dimension deterministically reproduces the
    // seeded protocol defect in the faulty-link cell — and only there —
    // with a bit-identical report at parallelism 1 and 4.
    let run = |parallelism: usize| {
        ScenarioMatrix::new()
            .firmware(FirmwareProfile::ArduPilotLike)
            .workload(auto_box_mission())
            .bugs(BugSet::only(BugId::ProtoDoubleArm))
            .approach(Approach::Avis)
            .link_scenario("clean", LinkFaultPlan::empty())
            .link_scenario("arm-storm", arm_storm())
            .budget(Budget::simulations(5))
            .profiling_runs(1)
            .parallelism(parallelism)
            .max_duration(110.0)
            .noise(SensorNoise::default())
            .run()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "link-fault matrix sweep diverged between parallelism 1 and 4"
    );
    assert_eq!(serial.results.len(), 2);
    for cell in &serial.results {
        match cell.link_scenario.as_deref() {
            Some("clean") => assert!(
                cell.bugs_found().is_empty(),
                "the protocol defect must be unreachable over a clean link"
            ),
            Some("arm-storm") => assert!(
                cell.bugs_found().contains(&BugId::ProtoDoubleArm),
                "the faulty-link cell should reproduce PROTO-101: {:?}",
                cell.bugs_found()
            ),
            other => panic!("unexpected link scenario {other:?}"),
        }
    }
}

#[test]
fn link_probe_strategy_finds_the_protocol_defect() {
    // The link-fault *search* dimension: the probe enumerates drop /
    // duplicate / corrupt / reorder / delay windows and command storms at
    // the golden run's mode transitions, with no prior knowledge of
    // which scenario matters — and must still reach the arm-storm probe
    // that exposes PROTO-101, identically at every parallelism.
    let run = |parallelism: usize| {
        Campaign::builder()
            .experiment(proto_experiment())
            .strategy(LinkProbeStrategy::new())
            .budget(Budget::simulations(40))
            .profiling_runs(1)
            .parallelism(parallelism)
            .build()
            .run()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "link-probe campaign diverged between serial and parallel engines"
    );
    assert_eq!(serial.strategy, "Link probe");
    assert!(
        serial.bugs_found().contains(&BugId::ProtoDoubleArm),
        "the probe sweep should reproduce PROTO-101: {:?}",
        serial.bugs_found()
    );
}

/// A minimal deterministic strategy that proposes a fixed list of plans
/// as one round — the harness for seeding a known crashing plan into a
/// campaign without depending on any search heuristic finding it.
struct ScriptedPlans {
    plans: Vec<FaultPlan>,
    proposed: bool,
}

impl ScriptedPlans {
    fn new(plans: Vec<FaultPlan>) -> Self {
        ScriptedPlans {
            plans,
            proposed: false,
        }
    }
}

impl Strategy for ScriptedPlans {
    fn name(&self) -> &str {
        "Scripted plans"
    }

    fn initialize(&mut self, _ctx: &StrategyContext<'_>) {}

    fn propose(&mut self) -> Vec<Candidate> {
        if self.proposed {
            return Vec::new();
        }
        self.proposed = true;
        self.plans
            .iter()
            .enumerate()
            .map(|(i, plan)| Candidate::speculate(i as u64, plan.clone()))
            .collect()
    }

    fn decide(&mut self, candidate: &Candidate) -> Decision {
        Decision::run(self.plans[candidate.token() as usize].clone())
    }

    fn observe(&mut self, _observation: &Observation<'_>) {}
}

/// The firmware with only the seeded crash defect (PROTO-102) compiled
/// in: a takeoff command accepted against a stale position estimate
/// aborts the firmware instead of rejecting the climb.
fn panic_experiment() -> ExperimentConfig {
    let mut experiment = ExperimentConfig::new(
        FirmwareProfile::ArduPilotLike,
        BugSet::only(BugId::ProtoPanicOnStaleEkf),
        manual_box_survey(),
    );
    experiment.noise = Some(SensorNoise::default());
    experiment.max_duration = 110.0;
    experiment
}

/// The sensor half of the PROTO-102 trigger: both GPS units fail at
/// t = 3.6 s — after the (delayed) arm command lands at ~3.5 s but
/// before the mode change arrives, so the position estimate is stale by
/// the time the takeoff command reaches the firmware.
fn stale_ekf_gps() -> FaultPlan {
    FaultPlan::from_specs(vec![
        FaultSpec::new(SensorInstance::new(SensorKind::Gps, 0), 3.6),
        FaultSpec::new(SensorInstance::new(SensorKind::Gps, 1), 3.6),
    ])
}

/// The link half of the trigger: GCS → vehicle commands are delayed by
/// 1.5 s during the launch sequence, opening the arm-to-mode-change
/// window the GPS failure must land in. Without this delay the same GPS
/// plan completes normally (the defect is invisible to pure sensor-fault
/// campaigns).
fn command_delay() -> LinkFaultPlan {
    LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
        LinkFaultKind::Delay {
            duration: 5.0,
            seconds: 1.5,
        },
        LinkDirection::ToVehicle,
        1.0,
    )])
}

#[test]
fn crashing_run_is_contained_and_bit_identical_across_engines() {
    // The crash-containment acceptance scenario: a campaign whose
    // wavefront contains a run that panics the firmware must (a) survive
    // — the panic is converted into a `Crashed` verdict and reported in
    // `CampaignResult::crashes`, (b) keep executing every other proposed
    // job (a panicking worker must not leak its prefix family), and
    // (c) stay bit-identical at parallelism 1 and 4, with checkpointing
    // on or off.
    let plans = vec![
        FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Compass, 0),
            40.0,
        )]),
        stale_ekf_gps(),
        FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Barometer, 0),
            50.0,
        )]),
        FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Gyroscope, 0),
            60.0,
        )]),
    ];
    let run = |parallelism: usize, checkpoints: CheckpointConfig| {
        Campaign::builder()
            .experiment(panic_experiment())
            .strategy(ScriptedPlans::new(plans.clone()))
            .link_faults(command_delay())
            .budget(Budget::simulations(10))
            .profiling_runs(1)
            .parallelism(parallelism)
            .checkpoints(checkpoints)
            .build()
            .run()
    };
    let cold = run(1, CheckpointConfig::disabled());
    for parallelism in [1, 4] {
        for checkpoints in [CheckpointConfig::disabled(), CheckpointConfig::default()] {
            let other = run(parallelism, checkpoints);
            assert_eq!(
                cold, other,
                "crash-contained campaign (parallelism {parallelism}) \
                 diverged from the serial cold engine"
            );
        }
    }
    assert_eq!(
        cold.crashes.len(),
        1,
        "exactly the seeded plan should crash: {:?}",
        cold.crashes
    );
    let crash = &cold.crashes[0];
    assert!(
        crash.message.contains("PROTO-102"),
        "the crash report should carry the firmware's panic message: {}",
        crash.message
    );
    assert!(crash.step > 0, "the crash step should be recorded");
    assert!(
        crash
            .plan
            .specs()
            .any(|s| s.instance.kind == SensorKind::Gps),
        "the crash report should carry the injected plan: {}",
        crash.plan
    );
    // Job accounting: the crashing run must not swallow its wavefront —
    // every proposed plan was decided and executed (1 profiling run +
    // all 4 scripted plans).
    assert_eq!(
        cold.simulations,
        1 + plans.len(),
        "a crashed run leaked other proposed jobs"
    );
}

#[test]
fn crash_is_unreachable_without_the_link_fault() {
    // Sanity check on the seeded defect itself: the same GPS plan over a
    // healthy link completes normally — PROTO-102 needs the delayed
    // command window, so pure sensor-fault campaigns never abort.
    let result = Campaign::builder()
        .experiment(panic_experiment())
        .strategy(ScriptedPlans::new(vec![stale_ekf_gps()]))
        .budget(Budget::simulations(4))
        .profiling_runs(1)
        .parallelism(1)
        .build()
        .run();
    assert!(
        result.crashes.is_empty(),
        "PROTO-102 should be unreachable over a clean link: {:?}",
        result.crashes
    );
}

#[test]
fn matrix_crash_cell_reports_exactly_one_crashed_verdict() {
    // The CI crash-containment smoke: a matrix sweeping a clean link
    // against the delayed-command scenario reports the seeded firmware
    // crash in the faulty-link cell — and only there — identically at
    // parallelism 1 and 4.
    let plans = vec![stale_ekf_gps()];
    let run = |parallelism: usize| {
        let plans = plans.clone();
        ScenarioMatrix::new()
            .firmware(FirmwareProfile::ArduPilotLike)
            .workload(manual_box_survey())
            .bugs(BugSet::only(BugId::ProtoPanicOnStaleEkf))
            .strategy("stale-ekf probe", move || {
                Box::new(ScriptedPlans::new(plans.clone()))
            })
            .link_scenario("clean", LinkFaultPlan::empty())
            .link_scenario("delayed-commands", command_delay())
            .budget(Budget::simulations(4))
            .profiling_runs(1)
            .parallelism(parallelism)
            .max_duration(110.0)
            .noise(SensorNoise::default())
            .run()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "crash-containment matrix diverged between parallelism 1 and 4"
    );
    assert_eq!(serial.results.len(), 2);
    for cell in &serial.results {
        match cell.link_scenario.as_deref() {
            Some("clean") => assert!(
                cell.crashes.is_empty(),
                "the crash must be unreachable over a clean link"
            ),
            Some("delayed-commands") => {
                assert_eq!(
                    cell.crashes.len(),
                    1,
                    "the faulty-link cell should report exactly one crashed \
                     verdict: {:?}",
                    cell.crashes
                );
                assert!(cell.crashes[0].message.contains("PROTO-102"));
            }
            other => panic!("unexpected link scenario {other:?}"),
        }
    }
}

#[test]
fn step_budget_watchdog_marks_runs_diverged() {
    // The deterministic watchdog: a run exceeding its step budget is cut
    // off and marked `Diverged` — identically wherever it executes, since
    // the step cursor derives from simulated time, not wall clock.
    let mut experiment = experiment();
    experiment.watchdog.max_steps = Some(400);
    let mut runner = ExperimentRunner::new(experiment.clone());
    let result = runner.run_contained(FaultPlan::empty());
    assert_eq!(result.verdict, RunVerdict::Diverged);
    // The budget bounds the trace: dt = 0.005 → 400 steps = 2 s.
    let last = result.trace.samples.last().expect("truncated trace");
    assert!(
        last.time <= 400.0 * experiment.dt + 1e-9,
        "the watchdog should have cut the run at its step budget: {}",
        last.time
    );
    // A budget-less runner completes the same plan normally.
    let mut unbounded = experiment;
    unbounded.watchdog.max_steps = None;
    let mut runner = ExperimentRunner::new(unbounded);
    assert_eq!(
        runner.run_contained(FaultPlan::empty()).verdict,
        RunVerdict::Completed
    );
}

#[test]
fn crashed_call_never_publishes_its_cuts() {
    // A call commits its cuts to the cache only when it returns. The
    // PROTO-102 run panics at ~5 s; with a 1 s interval it has already
    // cut at 1, 2, 3 and 4 s by then, and none of those cuts may reach
    // the cache.
    let mut experiment = panic_experiment();
    experiment.checkpoints = CheckpointConfig {
        interval: 1.0,
        ..CheckpointConfig::default()
    };
    let mut crashing = stale_ekf_gps();
    crashing.set_link_plan(command_delay());
    let tier = Arc::new(SharedSnapshotTier::new(experiment.checkpoints.max_bytes));
    let mut first = ExperimentRunner::new(experiment.clone());
    first.set_shared_tier(Arc::clone(&tier));
    let crashed = first.run_contained(crashing);
    let RunVerdict::Crashed { step, .. } = crashed.verdict else {
        panic!("the PROTO-102 plan should crash: {:?}", crashed.verdict);
    };
    assert!(
        step as f64 * experiment.dt > 3.0,
        "the run should have cut at 1, 2 and 3 s before crashing at step {step}"
    );
    let stats = tier.stats();
    assert_eq!(
        (stats.snapshots_recorded, stats.snapshots_cached),
        (0, 0),
        "the crashed call published cuts: {stats:?}"
    );

    // A sibling that shares the crashed plan's prefix up to 3.6 s (the
    // same command delay, its GPS failure only at 30 s) could fork from
    // a published 2 s or 3 s cut. On the same cache it must fly cold,
    // and equal its cold run.
    let mut sibling = FaultPlan::from_specs(vec![FaultSpec::new(
        SensorInstance::new(SensorKind::Gps, 0),
        30.0,
    )]);
    sibling.set_link_plan(command_delay());
    let mut second = ExperimentRunner::new(experiment.clone());
    second.set_shared_tier(Arc::clone(&tier));
    let warm = second.run_contained(sibling.clone());
    let stats = second.checkpoint_stats();
    assert_eq!(
        (stats.forked_runs, stats.cold_runs),
        (0, 1),
        "the sibling forked from the crashed call's state: {stats:?}"
    );
    let mut cold = experiment;
    cold.checkpoints = CheckpointConfig::disabled();
    assert_eq!(warm, ExperimentRunner::new(cold).run_contained(sibling));
}

#[test]
fn corrupted_snapshot_chain_is_quarantined_with_cold_fallback() {
    // Snapshot quarantine: corrupting a cached delta chain must be
    // detected at materialisation time (checksum mismatch), the chain
    // quarantined, and the run transparently re-executed from t = 0 with
    // a bit-identical result — corruption costs time, never correctness.
    let forked = FaultPlan::from_specs(vec![
        FaultSpec::new(SensorInstance::new(SensorKind::Gps, 0), 30.0),
        FaultSpec::new(SensorInstance::new(SensorKind::Compass, 0), 60.0),
    ]);
    let base = FaultPlan::from_specs(vec![FaultSpec::new(
        SensorInstance::new(SensorKind::Gps, 0),
        30.0,
    )]);

    let mut cold_experiment = experiment();
    cold_experiment.checkpoints = CheckpointConfig::disabled();
    let mut cold_runner = ExperimentRunner::new(cold_experiment);
    let cold = cold_runner.run_contained(forked.clone());

    let mut warm_runner = ExperimentRunner::new(experiment());
    // Record the base chain, then flip a byte in every cached entry.
    let _ = warm_runner.run_contained(base);
    warm_runner.corrupt_cached_chains_for_test();
    let recovered = warm_runner.run_contained(forked);
    assert_eq!(
        cold, recovered,
        "the quarantine fallback diverged from cold execution"
    );
    let stats = warm_runner.checkpoint_stats();
    assert!(
        stats.checksum_failures >= 1,
        "the corruption should have been detected: {stats:?}"
    );
    assert!(
        stats.quarantined >= 1,
        "the corrupt chain should have been quarantined: {stats:?}"
    );
}

#[test]
fn repeated_checksum_failures_trip_the_checkpoint_breaker() {
    // Graceful degradation: after repeated integrity failures the
    // cache's breaker disables checkpointing for the rest of the
    // campaign; runs keep completing (cold) instead of thrashing on a
    // corrupt store.
    let plan = FaultPlan::from_specs(vec![FaultSpec::new(
        SensorInstance::new(SensorKind::Gps, 0),
        30.0,
    )]);
    let mut runner = ExperimentRunner::new(experiment());
    let reference = runner.run_contained(plan.clone());
    for _ in 0..3 {
        runner.corrupt_cached_chains_for_test();
        let rerun = runner.run_contained(plan.clone());
        assert_eq!(
            reference, rerun,
            "a corrupted store changed a run result before degrading"
        );
    }
    assert!(
        runner.checkpointing_degraded(),
        "three checksum failures should trip the breaker: {:?}",
        runner.checkpoint_stats()
    );
    // Runs still execute (cold) after degradation.
    let after = runner.run_contained(plan);
    assert_eq!(reference, after, "degraded mode changed a run result");
}

#[test]
fn step_into_matches_step_sample_for_sample() {
    let make = || {
        Simulator::new(
            SimConfig {
                seed: 11,
                ..SimConfig::default()
            },
            Environment::open_field(),
        )
    };
    let mut with_step = make();
    let mut with_step_into = make();
    let mut output = StepOutput::empty();
    for i in 0..4000 {
        let throttle = match i {
            0..=1500 => 0.85,
            1501..=3000 => 0.4,
            _ => 0.0,
        };
        let cmd = MotorCommands::uniform(throttle);
        let expected = with_step.step(&cmd);
        with_step_into.step_into(&cmd, &mut output);
        assert_eq!(output, expected, "divergence at step {i}");
    }
}
