//! Campaign-throughput bench: wall-clock time for fixed-budget Avis
//! campaigns at increasing worker counts, verifying along the way that
//! the parallel engine's `CampaignResult` is bit-identical to the serial
//! one.
//!
//! Two scenarios bracket the engine's speculation behaviour:
//!
//! - **fixed** — the repaired code base: no run is unsafe, so found-bug
//!   pruning never rejects speculated work and the engine scales ~linearly
//!   with the worker count (the realistic large-budget regime, where most
//!   scenarios are safe).
//! - **buggy** — the paper's "current code base": most runs trigger
//!   found-bug pruning, which invalidates speculated siblings, so the
//!   useful parallelism is bounded by the commit-accept ratio. This is
//!   the engine's worst case and is reported for honesty.
//!
//! A third scenario measures the **checkpoint tree** (`avis::snapshot`):
//! a *late-injection* sweep — single sensor failures injected in the last
//! ~40% of the mission, the regime SABRE's deeper anchors live in — run
//! once with checkpointing disabled (every scenario cold-starts from
//! t = 0) and once with a bounded snapshot-cache budget (scenarios fork
//! from the deepest cached prefix). The two campaigns must be
//! bit-identical; the report records cold vs checkpointed scenarios/sec.
//!
//! A **warm-start** scenario measures the persistent snapshot store
//! (`avis::store`): a very-late-injection sweep run storeless-cold,
//! then against an empty store root (persisting its chains), then
//! again against the populated root — the persisted-warm session must
//! finish its search phase >= 2x faster than cold and stay
//! bit-identical at parallelism 1 and 4. `AVIS_BENCH_WARM_SMOKE=1`
//! runs just this scenario's single-session smoke against the
//! `AVIS_BENCH_STORE` root (CI invokes the binary twice and the second
//! invocation gates the cross-process ratio).
//!
//! The **delta-density** sweep compares full snapshots (keyframe
//! stride 1) against delta chains (stride 16) under one dense-interval,
//! tight-budget configuration — resident cuts and mean fork depth must
//! come out ≥ 3× ahead for delta chains.
//!
//! Finally, two PR-6 sections cover the protocol layer: a **codec
//! microbench** (per-message encode/decode cost plus the `Link` burst
//! drain rate, guarding the linear-time `recv` path) and a
//! **link-fault smoke** (a tiny clean-vs-arm-storm matrix sweep that
//! must reproduce the seeded protocol defect bit-identically at
//! parallelism 1 and 2).
//!
//! The harness owns its `main` (`harness = false`): one campaign is
//! seconds of work, so it runs each configuration once and reports
//! wall-clock plus speedup directly, and it emits the machine-readable
//! `BENCH_campaign.json` consumed by CI as the perf-trajectory artefact.
//! With `AVIS_BENCH_BASELINE` set, the harness compares the measured
//! checkpoint speedup against the committed baseline and exits non-zero
//! on a >20% regression — the speedup is a ratio of two runs on the same
//! host, so the gate is robust to slow CI machines.
//!
//! Environment knobs:
//! - `AVIS_BENCH_SIMS` — simulation budget per campaign (default 64)
//! - `AVIS_BENCH_PARALLELISM` — comma-separated worker counts to measure
//!   (default `2,4`; `1` is always measured first as the baseline)
//! - `AVIS_BENCH_OUT` — output path (default `BENCH_campaign.json`)
//! - `AVIS_BENCH_BASELINE` — committed baseline JSON to gate against
//! - `AVIS_BENCH_WARM_SMOKE` — run only the warm-start smoke (one
//!   session) and exit
//! - `AVIS_BENCH_STORE` — persistent store root for the warm-start
//!   smoke

use avis::campaign::Campaign;
use avis::checker::{Approach, Budget, CampaignResult};
use avis::json::{self, Json};
use avis::matrix::ScenarioMatrix;
use avis::runner::{ExperimentConfig, ExperimentRunner};
use avis::snapshot::CheckpointConfig;
use avis::strategy::{Candidate, Decision, Observation, Strategy, StrategyContext};
use avis_firmware::{BugId, BugSet, FirmwareProfile};
use avis_hinj::{
    FaultPlan, FaultSpec, LinkDirection, LinkFaultKind, LinkFaultPlan, LinkFaultSpec, StormCommand,
};
use avis_mavlite::{decode_frame, encode_frame, Endpoint, Link, Message, ProtocolMode};
use avis_sim::{
    LaneBatch, MotorCommands, SensorInstance, SensorKind, SensorNoise, SimConfig, Simulator,
    StepOutput,
};
use avis_workload::auto_box_mission;
use std::time::Instant;

/// Snapshot-cache budget for the checkpointed measurement (bytes): small
/// enough to prove the memory bound is honoured, large enough to hold the
/// fault-free chain plus a few branches.
const CHECKPOINT_BUDGET_BYTES: usize = 48 * 1024 * 1024;

/// Profiling runs funding the late-injection sweep's monitor calibration
/// (shared by the campaign configuration and the scenarios/s
/// denominator).
const LATE_SWEEP_PROFILING_RUNS: usize = 2;

fn run_campaign(bugs: &BugSet, simulations: usize, parallelism: usize) -> (CampaignResult, f64) {
    let campaign = Campaign::builder()
        .firmware(FirmwareProfile::ArduPilotLike)
        .bugs(bugs.clone())
        .workload(auto_box_mission())
        .approach(Approach::Avis)
        .budget(Budget::simulations(simulations))
        .parallelism(parallelism)
        .max_duration(110.0)
        // Two profiling runs: liveliness calibration from a single golden
        // trace has no run-to-run variance to measure and flags every
        // faulted run as divergent.
        .profiling_runs(2)
        .build();
    let start = Instant::now();
    let result = campaign.run();
    (result, start.elapsed().as_secs_f64())
}

fn bench_scenario(name: &str, bugs: &BugSet, simulations: usize, worker_counts: &[usize]) -> Json {
    println!("scenario `{name}`: {simulations}-simulation Avis campaign");
    let (serial_result, serial_seconds) = run_campaign(bugs, simulations, 1);
    println!(
        "  parallelism=1: {serial_seconds:.2}s wall, {} unsafe conditions, {} simulations",
        serial_result.unsafe_count(),
        serial_result.simulations
    );

    let mut measurements = vec![(1usize, serial_seconds)];
    for &workers in worker_counts {
        if workers <= 1 {
            continue;
        }
        let (result, seconds) = run_campaign(bugs, simulations, workers);
        let identical = result == serial_result;
        println!(
            "  parallelism={workers}: {seconds:.2}s wall, speedup {:.2}x, result {}",
            serial_seconds / seconds,
            if identical {
                "bit-identical to serial"
            } else {
                "DIVERGED FROM SERIAL"
            }
        );
        assert!(
            identical,
            "parallel campaign ({name}, workers={workers}) diverged from the serial result"
        );
        measurements.push((workers, seconds));
    }

    json::object(vec![
        ("scenario", Json::String(name.to_string())),
        (
            "unsafe_conditions",
            Json::Number(serial_result.unsafe_count() as f64),
        ),
        (
            "simulations",
            Json::Number(serial_result.simulations as f64),
        ),
        (
            "measurements",
            Json::Array(
                measurements
                    .iter()
                    .map(|&(workers, seconds)| {
                        json::object(vec![
                            ("parallelism", Json::Number(workers as f64)),
                            ("wall_seconds", Json::Number(seconds)),
                            ("speedup_vs_serial", Json::Number(serial_seconds / seconds)),
                            ("result_identical", Json::Bool(true)),
                            // These campaigns never touch a snapshot
                            // store; the flag keeps every measurement
                            // object comparable with the warm-start
                            // scenario's.
                            ("warm_start", Json::Bool(false)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The late-injection sweep: one round of single sensor failures stepped
/// across the last ~40% of the golden run — every scenario shares a long
/// fault-free prefix, which is exactly what the checkpoint tree caches.
struct LateSweep {
    plans: Vec<FaultPlan>,
    proposed: bool,
}

impl LateSweep {
    fn new() -> Self {
        LateSweep {
            plans: Vec::new(),
            proposed: false,
        }
    }
}

impl Strategy for LateSweep {
    fn name(&self) -> &str {
        "Late-injection sweep"
    }

    fn initialize(&mut self, ctx: &StrategyContext<'_>) {
        let instances = [
            SensorInstance::new(SensorKind::Accelerometer, 0),
            SensorInstance::new(SensorKind::Gps, 0),
            SensorInstance::new(SensorKind::Gps, 1),
            SensorInstance::new(SensorKind::Barometer, 0),
            SensorInstance::new(SensorKind::Compass, 0),
            SensorInstance::new(SensorKind::Gyroscope, 0),
        ];
        let start = ctx.golden.duration * 0.6;
        let end = ctx.golden.duration * 0.95;
        let slots = 8;
        for slot in 0..slots {
            let time = start + (end - start) * slot as f64 / slots as f64;
            for instance in instances {
                self.plans
                    .push(FaultPlan::from_specs(vec![FaultSpec::new(instance, time)]));
            }
        }
    }

    fn propose(&mut self) -> Vec<Candidate> {
        if std::mem::replace(&mut self.proposed, true) {
            return Vec::new();
        }
        self.plans
            .iter()
            .enumerate()
            .map(|(slot, plan)| Candidate::speculate(slot as u64, plan.clone()))
            .collect()
    }

    fn decide(&mut self, candidate: &Candidate) -> Decision {
        Decision::run(self.plans[candidate.token() as usize].clone())
    }

    fn observe(&mut self, _observation: &Observation<'_>) {}
}

/// The warm-start sweep: a handful of *very* late single-sensor
/// failures (last ~10% of the golden run). Within one session only the
/// first plan pays the full fault-free prefix — the rest fork from the
/// in-memory cache — so a session that hydrates the prefix chain from a
/// persistent store skips that one cold run too, and the store's
/// benefit dominates the session's wall time.
struct WarmSweep {
    plans: Vec<FaultPlan>,
    proposed: bool,
}

/// Scenario plans per warm-start session (one very late failure each).
const WARM_SWEEP_PLANS: usize = 4;

impl WarmSweep {
    fn new() -> Self {
        WarmSweep {
            plans: Vec::new(),
            proposed: false,
        }
    }
}

impl Strategy for WarmSweep {
    fn name(&self) -> &str {
        "Warm-start sweep"
    }

    fn initialize(&mut self, ctx: &StrategyContext<'_>) {
        let instances = [
            SensorInstance::new(SensorKind::Gps, 0),
            SensorInstance::new(SensorKind::Accelerometer, 0),
            SensorInstance::new(SensorKind::Barometer, 0),
            SensorInstance::new(SensorKind::Compass, 0),
        ];
        for (slot, instance) in instances.into_iter().take(WARM_SWEEP_PLANS).enumerate() {
            let time = ctx.golden.duration * (0.90 + 0.015 * slot as f64);
            self.plans
                .push(FaultPlan::from_specs(vec![FaultSpec::new(instance, time)]));
        }
    }

    fn propose(&mut self) -> Vec<Candidate> {
        if std::mem::replace(&mut self.proposed, true) {
            return Vec::new();
        }
        self.plans
            .iter()
            .enumerate()
            .map(|(slot, plan)| Candidate::speculate(slot as u64, plan.clone()))
            .collect()
    }

    fn decide(&mut self, candidate: &Candidate) -> Decision {
        Decision::run(self.plans[candidate.token() as usize].clone())
    }

    fn observe(&mut self, _observation: &Observation<'_>) {}
}

/// Stamps the moment profiling/calibration ends, so the measurement
/// covers only the scenario-search phase, where the compared speed
/// mechanisms act (including set-up would dilute the comparison at
/// small budgets).
struct SearchPhaseClock {
    search_started: Option<Instant>,
}

impl avis::campaign::CampaignObserver for SearchPhaseClock {
    fn on_event(&mut self, event: &avis::campaign::CampaignEvent) {
        if matches!(
            event,
            avis::campaign::CampaignEvent::ProfilingFinished { .. }
        ) {
            self.search_started = Some(Instant::now());
        }
    }
}

/// Runs the late-injection sweep, returning the result and the wall time
/// of the search phase alone.
fn run_late_injection(
    simulations: usize,
    checkpoints: CheckpointConfig,
    parallelism: usize,
) -> (CampaignResult, f64) {
    let campaign = Campaign::builder()
        .firmware(FirmwareProfile::ArduPilotLike)
        .bugs(BugSet::none())
        .workload(auto_box_mission())
        .strategy(LateSweep::new())
        .budget(Budget::simulations(simulations))
        .parallelism(parallelism)
        .max_duration(110.0)
        .profiling_runs(LATE_SWEEP_PROFILING_RUNS)
        .checkpoints(checkpoints)
        // Scalar lanes: this scenario isolates the checkpoint store
        // (cold-vs-checkpointed ratio, fork depth), which lockstep
        // batching would partly absorb — the batched path has its own
        // scenario, `batched-lockstep`, including its checkpointed and
        // combined variants.
        .lockstep_lanes(1)
        .build();
    let mut clock = SearchPhaseClock {
        search_started: None,
    };
    let result = campaign.run_with_observer(&mut clock);
    let search_seconds = clock
        .search_started
        .expect("campaign emitted ProfilingFinished")
        .elapsed()
        .as_secs_f64();
    (result, search_seconds)
}

/// Runs the late-injection sweep with an explicit lockstep lane count
/// and defect set (the batched-lockstep scenario's runner).
fn run_lockstep_sweep(
    simulations: usize,
    bugs: &BugSet,
    checkpoints: CheckpointConfig,
    parallelism: usize,
    lanes: usize,
) -> (CampaignResult, f64) {
    let campaign = Campaign::builder()
        .firmware(FirmwareProfile::ArduPilotLike)
        .bugs(bugs.clone())
        .workload(auto_box_mission())
        .strategy(LateSweep::new())
        .budget(Budget::simulations(simulations))
        .parallelism(parallelism)
        .max_duration(110.0)
        .profiling_runs(LATE_SWEEP_PROFILING_RUNS)
        .checkpoints(checkpoints)
        .lockstep_lanes(lanes)
        .build();
    let mut clock = SearchPhaseClock {
        search_started: None,
    };
    let result = campaign.run_with_observer(&mut clock);
    let search_seconds = clock
        .search_started
        .expect("campaign emitted ProfilingFinished")
        .elapsed()
        .as_secs_f64();
    (result, search_seconds)
}

/// Pairs behind `lane1_step_ratio`; each pair times both kernels once.
const LANE1_PAIRS: usize = 20;

/// The physics-kernel choice behind the run loop (`avis::batch`): the
/// same scripted motor commands stepped through `Simulator::step_into`
/// and through a 1-lane `LaneBatch`, alternating which goes first, over
/// [`LANE1_PAIRS`] pairs. Returns the median per-pair ratio of 1-lane to
/// scalar time; above 1 the batch is the slower kernel for a lone plan.
fn lane1_step_ratio() -> f64 {
    const STEPS: usize = 20_000;
    let config = ExperimentConfig::new(
        FirmwareProfile::ArduPilotLike,
        BugSet::none(),
        auto_box_mission(),
    );
    let sim_config = SimConfig {
        dt: config.dt,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new_shared(sim_config, config.workload.shared_environment());
    let mut output = StepOutput::empty();
    sim.step_into(&MotorCommands::IDLE, &mut output);
    // Climb, then fly a mild attitude mix, so the steps are airborne.
    let script: Vec<MotorCommands> = (0..STEPS)
        .map(|step| {
            if step < STEPS / 4 {
                MotorCommands::uniform(0.8)
            } else {
                MotorCommands::mix(0.6, 0.01, -0.01, 0.005)
            }
        })
        .collect();
    let time_scalar = || {
        let (mut scalar, mut out) = (sim.clone(), output.clone());
        let start = Instant::now();
        for command in &script {
            scalar.step_into(command, &mut out);
        }
        let seconds = start.elapsed().as_secs_f64();
        std::hint::black_box(&out);
        seconds
    };
    let time_lane1 = || {
        let (mut batch, lane) = LaneBatch::from_simulator(sim.clone(), output.clone());
        let start = Instant::now();
        for command in &script {
            batch.step_lanes(std::slice::from_ref(command));
        }
        let seconds = start.elapsed().as_secs_f64();
        std::hint::black_box(batch.output(lane));
        seconds
    };
    let mut ratios: Vec<f64> = (0..LANE1_PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let scalar = time_scalar();
                time_lane1() / scalar
            } else {
                let lane1 = time_lane1();
                lane1 / time_scalar()
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[LANE1_PAIRS / 2 - 1] + ratios[LANE1_PAIRS / 2]) / 2.0
}

/// The batched-lockstep scenario: the late-injection sweep at equal
/// budget, scalar (`lockstep_lanes(1)`) vs SoA lockstep batches of 4 and
/// 8 lanes (`avis::batch`), on the fixed and buggy firmware. The
/// fixed-sweep cold comparison is the headline step-throughput number —
/// the sweep's same-slot siblings share a 60–95% injection prefix that
/// lockstep advances once instead of `lanes` times — and carries a
/// hard gate of >= 1.5x. Every batched variant (cold, checkpointed,
/// parallelism 1 and 4) must be bit-identical to the scalar cold
/// reference. The section also records [`lane1_step_ratio`]
/// (informational, not gated).
fn bench_batched_lockstep(simulations: usize) -> (Json, f64) {
    println!(
        "scenario `batched-lockstep`: {simulations}-simulation sweeps, scalar vs SoA lockstep lanes"
    );
    let fixed = BugSet::none();
    let buggy = BugSet::current_code_base(FirmwareProfile::ArduPilotLike);
    let cold = CheckpointConfig::disabled;
    let budgeted = || CheckpointConfig::with_max_bytes(CHECKPOINT_BUDGET_BYTES);

    // Fixed sweep, cold, parallelism 1: scalar vs 4 and 8 lanes.
    let (scalar_result, scalar_seconds) = run_lockstep_sweep(simulations, &fixed, cold(), 1, 1);
    let scenarios = scalar_result
        .simulations
        .saturating_sub(LATE_SWEEP_PROFILING_RUNS);
    let scalar_sps = scenarios as f64 / scalar_seconds;
    println!("  fixed scalar:     {scalar_seconds:.2}s wall, {scenarios} scenarios, {scalar_sps:.2} scenarios/s");
    let (lanes4_result, lanes4_seconds) = run_lockstep_sweep(simulations, &fixed, cold(), 1, 4);
    let lanes4_sps = scenarios as f64 / lanes4_seconds;
    let speedup4 = lanes4_sps / scalar_sps;
    let (lanes8_result, lanes8_seconds) = run_lockstep_sweep(simulations, &fixed, cold(), 1, 8);
    let lanes8_sps = scenarios as f64 / lanes8_seconds;
    let speedup8 = lanes8_sps / scalar_sps;
    let cold_identical = lanes4_result == scalar_result && lanes8_result == scalar_result;
    println!(
        "  fixed lanes=4:    {lanes4_seconds:.2}s wall, {lanes4_sps:.2} scenarios/s, speedup {speedup4:.2}x, result {}",
        if cold_identical { "bit-identical to scalar" } else { "DIVERGED FROM SCALAR" }
    );
    println!(
        "  fixed lanes=8:    {lanes8_seconds:.2}s wall, {lanes8_sps:.2} scenarios/s, speedup {speedup8:.2}x"
    );
    assert!(
        cold_identical,
        "batched lockstep sweep diverged from the scalar result"
    );
    assert!(
        speedup4 >= 1.5,
        "batched lockstep fixed-sweep speedup {speedup4:.2}x fell below the 1.5x gate \
         (scalar {scalar_sps:.2} vs lanes=4 {lanes4_sps:.2} scenarios/s at equal budget)"
    );

    // Result identity across the remaining execution modes: batched +
    // checkpointed, and both batched variants at parallelism 4.
    let (ckpt_result, _) = run_lockstep_sweep(simulations, &fixed, budgeted(), 1, 4);
    assert!(
        ckpt_result == scalar_result,
        "batched+checkpointed sweep diverged from the scalar cold result"
    );
    let (par4_cold_result, _) = run_lockstep_sweep(simulations, &fixed, cold(), 4, 4);
    let (par4_ckpt_result, _) = run_lockstep_sweep(simulations, &fixed, budgeted(), 4, 4);
    assert!(
        par4_cold_result == scalar_result && par4_ckpt_result == scalar_result,
        "parallel-4 batched sweep diverged from the scalar cold result"
    );
    println!("  fixed variants:   checkpointed and parallel-4 (cold + checkpointed) bit-identical");

    // Buggy sweep: unsafe commits raise the sizer's bug rate, which
    // withdraws speculative batching mid-campaign (the documented
    // bypass) — identity must hold regardless; the speedup is reported,
    // not gated.
    let (buggy_scalar_result, buggy_scalar_seconds) =
        run_lockstep_sweep(simulations, &buggy, cold(), 1, 1);
    let (buggy_lanes4_result, buggy_lanes4_seconds) =
        run_lockstep_sweep(simulations, &buggy, cold(), 1, 4);
    let buggy_speedup = buggy_scalar_seconds / buggy_lanes4_seconds;
    assert!(
        buggy_lanes4_result == buggy_scalar_result,
        "buggy batched sweep diverged from its scalar result"
    );
    println!(
        "  buggy lanes=4:    {buggy_lanes4_seconds:.2}s vs scalar {buggy_scalar_seconds:.2}s ({buggy_speedup:.2}x), {} unsafe conditions, bit-identical",
        buggy_scalar_result.unsafe_count()
    );

    let lane1_ratio = lane1_step_ratio();
    println!(
        "  kernel:           1-lane batch / scalar step time {lane1_ratio:.3} \
         (median of {LANE1_PAIRS} alternating pairs)"
    );

    let section = json::object(vec![
        ("scenario", Json::String("batched-lockstep".to_string())),
        ("simulations", Json::Number(scenarios as f64)),
        ("scalar_wall_seconds", Json::Number(scalar_seconds)),
        ("scalar_scenarios_per_sec", Json::Number(scalar_sps)),
        ("lanes4_wall_seconds", Json::Number(lanes4_seconds)),
        ("lanes4_scenarios_per_sec", Json::Number(lanes4_sps)),
        ("lanes4_speedup", Json::Number(speedup4)),
        ("lanes8_wall_seconds", Json::Number(lanes8_seconds)),
        ("lanes8_scenarios_per_sec", Json::Number(lanes8_sps)),
        ("lanes8_speedup", Json::Number(speedup8)),
        (
            "buggy_scalar_wall_seconds",
            Json::Number(buggy_scalar_seconds),
        ),
        (
            "buggy_lanes4_wall_seconds",
            Json::Number(buggy_lanes4_seconds),
        ),
        ("buggy_lanes4_speedup", Json::Number(buggy_speedup)),
        (
            "buggy_unsafe_conditions",
            Json::Number(buggy_scalar_result.unsafe_count() as f64),
        ),
        ("lane1_step_ratio", Json::Number(lane1_ratio)),
        ("result_identical", Json::Bool(true)),
    ]);
    (section, speedup4)
}

/// Cold vs checkpointed execution of the late-injection sweep. Returns
/// the JSON section and the measured speedup.
fn bench_checkpointing(simulations: usize) -> (Json, f64) {
    println!("scenario `late-injection`: {simulations}-simulation checkpoint-tree sweep");
    let (cold_result, cold_seconds) =
        run_late_injection(simulations, CheckpointConfig::disabled(), 1);
    let scenarios = cold_result
        .simulations
        .saturating_sub(LATE_SWEEP_PROFILING_RUNS);
    let cold_sps = scenarios as f64 / cold_seconds;
    println!("  cold:          {cold_seconds:.2}s wall, {scenarios} scenarios, {cold_sps:.2} scenarios/s");

    let (checkpointed_result, checkpointed_seconds) = run_late_injection(
        simulations,
        CheckpointConfig::with_max_bytes(CHECKPOINT_BUDGET_BYTES),
        1,
    );
    let checkpointed_sps = scenarios as f64 / checkpointed_seconds;
    let speedup = checkpointed_sps / cold_sps;
    let identical = checkpointed_result == cold_result;
    println!(
        "  checkpointed:  {checkpointed_seconds:.2}s wall, {checkpointed_sps:.2} scenarios/s, speedup {speedup:.2}x, result {}",
        if identical {
            "bit-identical to cold"
        } else {
            "DIVERGED FROM COLD"
        }
    );
    assert!(
        identical,
        "checkpointed campaign diverged from cold execution"
    );

    // The parallel-4 checkpointed sweep: four workers on the campaign's
    // one cache (one worker's cold chain serves every sibling as soon as
    // its call returns).
    let (par4_cold_result, par4_cold_seconds) =
        run_late_injection(simulations, CheckpointConfig::disabled(), 4);
    let (par4_result, par4_seconds) = run_late_injection(
        simulations,
        CheckpointConfig::with_max_bytes(CHECKPOINT_BUDGET_BYTES),
        4,
    );
    let par4_sps = scenarios as f64 / par4_seconds;
    let par4_speedup = (scenarios as f64 / par4_seconds) / (scenarios as f64 / par4_cold_seconds);
    assert!(
        par4_result == cold_result && par4_cold_result == cold_result,
        "parallel-4 sweep diverged from the serial cold result"
    );
    println!(
        "  parallel-4:    cold {par4_cold_seconds:.2}s, checkpointed {par4_seconds:.2}s ({par4_sps:.2} scenarios/s, {par4_speedup:.2}x vs cold-4), results bit-identical"
    );

    let section = json::object(vec![
        ("scenario", Json::String("late-injection".to_string())),
        ("simulations", Json::Number(scenarios as f64)),
        (
            "cache_budget_bytes",
            Json::Number(CHECKPOINT_BUDGET_BYTES as f64),
        ),
        ("cold_wall_seconds", Json::Number(cold_seconds)),
        ("cold_scenarios_per_sec", Json::Number(cold_sps)),
        (
            "checkpointed_wall_seconds",
            Json::Number(checkpointed_seconds),
        ),
        (
            "checkpointed_scenarios_per_sec",
            Json::Number(checkpointed_sps),
        ),
        ("speedup", Json::Number(speedup)),
        (
            "parallel4_cold_wall_seconds",
            Json::Number(par4_cold_seconds),
        ),
        (
            "parallel4_checkpointed_wall_seconds",
            Json::Number(par4_seconds),
        ),
        (
            "parallel4_checkpointed_scenarios_per_sec",
            Json::Number(par4_sps),
        ),
        ("parallel4_speedup_vs_cold", Json::Number(par4_speedup)),
        ("result_identical", Json::Bool(true)),
    ]);
    (section, speedup)
}

/// Search-phase clock that also records what the snapshot store
/// hydrated, so the warm-start scenario can tell a genuine warm start
/// from an accidentally-cold one.
struct WarmSessionClock {
    search_started: Option<Instant>,
    hydrated_chains: u64,
}

impl avis::campaign::CampaignObserver for WarmSessionClock {
    fn on_event(&mut self, event: &avis::campaign::CampaignEvent) {
        match event {
            avis::campaign::CampaignEvent::ProfilingFinished { .. } => {
                self.search_started = Some(Instant::now());
            }
            avis::campaign::CampaignEvent::StoreHydrated { chains, .. } => {
                self.hydrated_chains = *chains;
            }
            _ => {}
        }
    }
}

/// Runs one warm-start sweep session, optionally against a persistent
/// store root. Returns the result, the search-phase wall time, and the
/// number of chains hydrated from disk (0 without a store or on a
/// first session).
fn run_warm_session(
    parallelism: usize,
    store: Option<&std::path::Path>,
) -> (CampaignResult, f64, u64) {
    let mut builder = Campaign::builder()
        .firmware(FirmwareProfile::ArduPilotLike)
        .bugs(BugSet::none())
        .workload(auto_box_mission())
        .strategy(WarmSweep::new())
        .budget(Budget::simulations(
            WARM_SWEEP_PLANS + LATE_SWEEP_PROFILING_RUNS,
        ))
        .parallelism(parallelism)
        .max_duration(110.0)
        .profiling_runs(LATE_SWEEP_PROFILING_RUNS)
        .checkpoints(CheckpointConfig::with_max_bytes(CHECKPOINT_BUDGET_BYTES))
        .lockstep_lanes(1);
    if let Some(root) = store {
        builder = builder.snapshot_store(root.to_path_buf());
    }
    let campaign = builder.build();
    let mut clock = WarmSessionClock {
        search_started: None,
        hydrated_chains: 0,
    };
    let result = campaign.run_with_observer(&mut clock);
    let search_seconds = clock
        .search_started
        .expect("campaign emitted ProfilingFinished")
        .elapsed()
        .as_secs_f64();
    (result, search_seconds, clock.hydrated_chains)
}

/// The warm-start scenario (`avis::store`): the [`WarmSweep`] run three
/// times — storeless cold, first session against an empty store root
/// (persists its chains), second session against the now-populated root
/// (hydrates and forks from last session's chains). Warm search time
/// must come in >= 2x under cold, and every session — including a
/// parallelism-4 warm rerun — must be bit-identical to the cold
/// result.
fn bench_warm_start() -> (Json, f64) {
    println!(
        "scenario `warm-start`: {WARM_SWEEP_PLANS}-plan very-late sweep, cold vs persisted-warm"
    );
    let root = std::env::temp_dir().join(format!("avis-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let (cold_result, cold_seconds, _) = run_warm_session(1, None);
    let scenarios = cold_result
        .simulations
        .saturating_sub(LATE_SWEEP_PROFILING_RUNS);
    println!("  cold:          {cold_seconds:.2}s search, {scenarios} scenarios");

    let (first_result, first_seconds, first_hydrated) = run_warm_session(1, Some(&root));
    assert_eq!(
        first_hydrated, 0,
        "an empty store hydrated {first_hydrated} chains"
    );
    assert!(
        first_result == cold_result,
        "store-backed first session diverged from cold execution"
    );
    println!("  first session: {first_seconds:.2}s search (cold + write-behind flush)");

    let (warm_result, warm_seconds, warm_hydrated) = run_warm_session(1, Some(&root));
    let speedup = cold_seconds / warm_seconds;
    let identical = warm_result == cold_result;
    println!(
        "  persisted-warm: {warm_seconds:.2}s search, {warm_hydrated} chains hydrated, speedup {speedup:.2}x, result {}",
        if identical {
            "bit-identical to cold"
        } else {
            "DIVERGED FROM COLD"
        }
    );
    assert!(
        identical,
        "persisted-warm session diverged from cold execution"
    );
    assert!(
        warm_hydrated > 0,
        "the second session should warm-start from disk"
    );
    assert!(
        speedup >= 2.0,
        "warm-start speedup {speedup:.2}x below the 2x floor"
    );

    // The parallelism-4 warm rerun: chains hydrated into the campaign's
    // cache must serve every worker without perturbing the result.
    let (par4_result, par4_seconds, par4_hydrated) = run_warm_session(4, Some(&root));
    assert!(
        par4_result == cold_result,
        "parallel-4 persisted-warm session diverged from cold execution"
    );
    assert!(par4_hydrated > 0, "the parallel-4 session should hydrate");
    println!("  parallel-4 warm: {par4_seconds:.2}s search, result bit-identical");

    let _ = std::fs::remove_dir_all(&root);

    let measurement = |parallelism: usize, seconds: f64, warm: bool| {
        json::object(vec![
            ("parallelism", Json::Number(parallelism as f64)),
            ("wall_seconds", Json::Number(seconds)),
            ("speedup_vs_serial", Json::Number(cold_seconds / seconds)),
            ("result_identical", Json::Bool(true)),
            ("warm_start", Json::Bool(warm)),
        ])
    };
    let section = json::object(vec![
        ("scenario", Json::String("warm-start".to_string())),
        ("simulations", Json::Number(scenarios as f64)),
        (
            "cache_budget_bytes",
            Json::Number(CHECKPOINT_BUDGET_BYTES as f64),
        ),
        ("cold_wall_seconds", Json::Number(cold_seconds)),
        ("first_session_wall_seconds", Json::Number(first_seconds)),
        ("warm_wall_seconds", Json::Number(warm_seconds)),
        ("store_warm_start_speedup", Json::Number(speedup)),
        ("hydrated_chains", Json::Number(warm_hydrated as f64)),
        (
            "measurements",
            Json::Array(vec![
                measurement(1, cold_seconds, false),
                measurement(1, first_seconds, false),
                measurement(1, warm_seconds, true),
                measurement(4, par4_seconds, true),
            ]),
        ),
        ("result_identical", Json::Bool(true)),
    ]);
    (section, speedup)
}

/// `AVIS_BENCH_WARM_SMOKE` mode: one warm-start session against the
/// `AVIS_BENCH_STORE` root. The first invocation records its
/// search-phase seconds in a marker file inside the root; the second
/// finds the marker, asserts it actually hydrated chains, and gates the
/// first/second ratio at >= 2x. CI runs the binary twice against one
/// directory and the pair proves persisted warm starts across
/// *processes* — no shared in-memory state survives between them.
fn run_warm_smoke() {
    let root = std::path::PathBuf::from(
        std::env::var("AVIS_BENCH_STORE")
            .expect("AVIS_BENCH_WARM_SMOKE requires AVIS_BENCH_STORE to name the store root"),
    );
    let marker = root.join("warm-smoke-first.txt");
    let (result, seconds, hydrated) = run_warm_session(1, Some(&root));
    match std::fs::read_to_string(&marker) {
        Ok(text) => {
            let mut parts = text.split_whitespace();
            let first_seconds: f64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .expect("marker records the first invocation's seconds");
            let first_simulations: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .expect("marker records the first invocation's simulation count");
            assert_eq!(
                result.simulations, first_simulations,
                "warm invocation ran a different campaign shape than the first"
            );
            let ratio = first_seconds / seconds;
            println!(
                "warm-start smoke: first {first_seconds:.2}s, warm {seconds:.2}s, \
                 {hydrated} chains hydrated, ratio {ratio:.2}x"
            );
            if hydrated == 0 {
                eprintln!("REGRESSION: warm invocation hydrated nothing from the store");
                std::process::exit(1);
            }
            if ratio < 2.0 {
                eprintln!("REGRESSION: persisted warm start {ratio:.2}x below the 2x floor");
                std::process::exit(1);
            }
        }
        Err(_) => {
            std::fs::write(&marker, format!("{seconds} {}\n", result.simulations))
                .expect("write warm-smoke marker");
            println!(
                "warm-start smoke: first invocation {seconds:.2}s search \
                 ({} chains hydrated), marker written",
                hydrated
            );
        }
    }
}

/// The delta-chain density sweep: a *dense-interval* configuration — cuts
/// every simulated second, a memory budget far too small for them all —
/// executed once with full snapshots (keyframe stride 1) and once with
/// delta chains (stride 16), over the same late-injection plans on one
/// runner each. At the shared budget, delta chains must keep ≥ 3× more
/// cuts resident (equivalently, serve ≥ 3× deeper mean forks when full
/// snapshots evict the deep cuts a late injection needs), with every
/// result bit-identical to cold execution.
fn bench_delta_density() -> Json {
    use avis::snapshot::CheckpointStats;
    println!(
        "scenario `delta-density`: dense-interval sweep, full vs delta chains at equal budget"
    );
    const DENSE_BUDGET_BYTES: usize = 128 * 1024;
    let experiment = |checkpoints: CheckpointConfig| {
        let mut experiment = ExperimentConfig::new(
            FirmwareProfile::ArduPilotLike,
            BugSet::none(),
            auto_box_mission(),
        );
        experiment.max_duration = 110.0;
        experiment.checkpoints = checkpoints;
        experiment
    };
    // The late-injection plan set (the prefix-sharing regime SABRE's
    // deep anchors live in), taken from a golden run like LateSweep's.
    let mut profiler = ExperimentRunner::new(experiment(CheckpointConfig::disabled()));
    let golden = profiler.run_profiling(0);
    let duration = golden.trace.duration;
    let instances = [
        SensorInstance::new(SensorKind::Accelerometer, 0),
        SensorInstance::new(SensorKind::Gps, 0),
        SensorInstance::new(SensorKind::Barometer, 0),
        SensorInstance::new(SensorKind::Compass, 0),
    ];
    // Slots are visited in SABRE's actual order — anchors are *not*
    // swept monotonically, the queue jumps between transition depths —
    // so a store whose residency window only covers the most recent
    // depth keeps thrashing while a delta store's several-times-wider
    // window keeps serving deep forks.
    let mut plans = Vec::new();
    for slot in [7usize, 2, 5, 0, 6, 3, 1, 4] {
        let time = duration * 0.6 + duration * 0.35 * slot as f64 / 8.0;
        for instance in instances {
            plans.push(FaultPlan::from_specs(vec![FaultSpec::new(instance, time)]));
        }
    }

    let mut cold = ExperimentRunner::new(experiment(CheckpointConfig::disabled()));
    let cold_results: Vec<_> = plans
        .iter()
        .map(|p| cold.run_with_plan(p.clone()))
        .collect();
    let sweep = |keyframe_stride: usize| -> (CheckpointStats, f64) {
        let mut runner = ExperimentRunner::new(experiment(CheckpointConfig {
            interval: 1.0,
            max_bytes: DENSE_BUDGET_BYTES,
            keyframe_stride,
            ..CheckpointConfig::default()
        }));
        let start = Instant::now();
        for (plan, reference) in plans.iter().zip(&cold_results) {
            let result = runner.run_with_plan(plan.clone());
            assert!(
                result == *reference,
                "stride {keyframe_stride}: dense-interval run diverged from cold execution"
            );
        }
        (runner.checkpoint_stats(), start.elapsed().as_secs_f64())
    };
    let (full, full_seconds) = sweep(1);
    let (delta, delta_seconds) = sweep(16);
    let mean_depth = |s: &CheckpointStats| {
        let runs = s.forked_runs + s.cold_runs;
        if runs == 0 {
            0.0
        } else {
            s.simulated_seconds_skipped / runs as f64
        }
    };
    let cuts_ratio = delta.snapshots_cached as f64 / full.snapshots_cached.max(1) as f64;
    let depth_ratio = mean_depth(&delta) / mean_depth(&full).max(1e-9);
    println!(
        "  full  (stride 1):  {:>3} resident cuts, {:>4} KiB, mean fork depth {:>5.1}s/run, {full_seconds:.2}s wall",
        full.snapshots_cached,
        full.cached_bytes / 1024,
        mean_depth(&full)
    );
    println!(
        "  delta (stride 16): {:>3} resident cuts ({} delta-encoded, {} KiB of deltas), {:>4} KiB, mean fork depth {:>5.1}s/run, {delta_seconds:.2}s wall",
        delta.snapshots_cached,
        delta.delta_snapshots,
        delta.delta_bytes / 1024,
        delta.cached_bytes / 1024,
        mean_depth(&delta)
    );
    println!(
        "  at equal {} KiB budget: {cuts_ratio:.1}x resident cuts, {depth_ratio:.1}x mean fork depth",
        DENSE_BUDGET_BYTES / 1024
    );
    assert!(
        cuts_ratio >= 3.0 || depth_ratio >= 3.0,
        "delta chains should keep >=3x more cuts (or serve >=3x deeper forks) at equal budget: \
         cuts {cuts_ratio:.2}x, depth {depth_ratio:.2}x (full {full:?}, delta {delta:?})"
    );
    json::object(vec![
        ("scenario", Json::String("delta-density".to_string())),
        ("budget_bytes", Json::Number(DENSE_BUDGET_BYTES as f64)),
        ("plans", Json::Number(plans.len() as f64)),
        (
            "full_resident_cuts",
            Json::Number(full.snapshots_cached as f64),
        ),
        (
            "delta_resident_cuts",
            Json::Number(delta.snapshots_cached as f64),
        ),
        (
            "delta_encoded_cuts",
            Json::Number(delta.delta_snapshots as f64),
        ),
        ("delta_bytes", Json::Number(delta.delta_bytes as f64)),
        ("full_mean_fork_depth_s", Json::Number(mean_depth(&full))),
        ("delta_mean_fork_depth_s", Json::Number(mean_depth(&delta))),
        ("resident_cuts_ratio", Json::Number(cuts_ratio)),
        ("mean_fork_depth_ratio", Json::Number(depth_ratio)),
        ("full_wall_seconds", Json::Number(full_seconds)),
        ("delta_wall_seconds", Json::Number(delta_seconds)),
        ("result_identical", Json::Bool(true)),
    ])
}

/// The matrix-reuse scenario: two strategies over one firmware ×
/// workload pair, run as a `ScenarioMatrix` whose cells share a snapshot
/// cache. The second strategy's campaign warm-starts from the first one's
/// checkpoint tree, profiling runs included — measured as whole-campaign
/// wall time with sharing on vs off, with bit-identical reports
/// asserted.
fn bench_matrix_reuse(simulations: usize) -> Json {
    println!("scenario `matrix-reuse`: 2 strategies x shared firmware/workload");
    struct CellClock {
        started: Vec<Instant>,
        durations: Vec<f64>,
    }
    impl avis::campaign::CampaignObserver for CellClock {
        fn on_event(&mut self, event: &avis::campaign::CampaignEvent) {
            match event {
                avis::campaign::CampaignEvent::CampaignStarted { .. } => {
                    self.started.push(Instant::now());
                }
                avis::campaign::CampaignEvent::CampaignFinished { .. } => {
                    let start = self.started.last().expect("started before finished");
                    self.durations.push(start.elapsed().as_secs_f64());
                }
                _ => {}
            }
        }
    }
    let run = |share: bool| {
        let matrix = ScenarioMatrix::new()
            .firmware(FirmwareProfile::ArduPilotLike)
            .workload(auto_box_mission())
            .bugs(BugSet::none())
            .strategy("Late sweep A", || Box::new(LateSweep::new()))
            .strategy("Late sweep B", || Box::new(LateSweep::new()))
            .budget(Budget::simulations(simulations))
            .profiling_runs(LATE_SWEEP_PROFILING_RUNS)
            .parallelism(1)
            .max_duration(110.0)
            .noise(SensorNoise::default())
            .share_snapshots(share);
        let mut clock = CellClock {
            started: Vec::new(),
            durations: Vec::new(),
        };
        let report = matrix.run_with_observer(&mut clock);
        (report, clock.durations)
    };
    let (shared_report, shared_durations) = run(true);
    let (unshared_report, unshared_durations) = run(false);
    assert_eq!(
        shared_report, unshared_report,
        "matrix-level snapshot sharing changed a cell result"
    );
    let warm_speedup = unshared_durations[1] / shared_durations[1].max(1e-9);
    println!(
        "  first campaign:  shared {:.2}s vs unshared {:.2}s",
        shared_durations[0], unshared_durations[0]
    );
    println!(
        "  second campaign: shared {:.2}s vs unshared {:.2}s -> warm-start speedup {warm_speedup:.2}x, reports bit-identical",
        shared_durations[1], unshared_durations[1]
    );
    json::object(vec![
        ("scenario", Json::String("matrix-reuse".to_string())),
        ("strategies", Json::Number(2.0)),
        (
            "first_campaign_shared_seconds",
            Json::Number(shared_durations[0]),
        ),
        (
            "second_campaign_shared_seconds",
            Json::Number(shared_durations[1]),
        ),
        (
            "second_campaign_unshared_seconds",
            Json::Number(unshared_durations[1]),
        ),
        ("warm_start_speedup", Json::Number(warm_speedup)),
        ("report_identical", Json::Bool(true)),
    ])
}

/// The codec microbenchmark: per-message encode/decode cost and the
/// `Link` stream-drain rate. The drain measurement covers the `recv`
/// hot path, which now pops decoded frames off a contiguous buffer —
/// the pre-fix implementation re-shifted the queue per frame, so long
/// bursts (e.g. a command storm) decoded in quadratic time.
fn bench_codec_cost() -> Json {
    println!("microbench `mavlite-codec`: encode/decode and stream-drain cost");
    let messages = [
        Message::Heartbeat {
            mode: ProtocolMode::Auto,
            armed: true,
        },
        Message::Status {
            x: 12.5,
            y: -3.25,
            altitude: 30.0,
            climb_rate: 0.5,
            mission_seq: 3,
            landed: false,
        },
        Message::ArmDisarm { arm: true },
    ];

    let iterations = 20_000usize;
    let start = Instant::now();
    for i in 0..iterations {
        let msg = &messages[i % messages.len()];
        let frame = encode_frame(msg, i as u8);
        let (decoded, seq, consumed) = decode_frame(&frame).expect("round-trip decodes");
        assert_eq!(&decoded, msg);
        assert_eq!(seq, i as u8);
        assert_eq!(consumed, frame.len());
    }
    let round_trip_ns = start.elapsed().as_secs_f64() / iterations as f64 * 1e9;
    println!("  encode+decode round-trip: ~{round_trip_ns:.0}ns per message");

    // Stream drain: a long single-direction burst queued before any recv,
    // the shape a command storm produces on the wire.
    let burst = 5_000usize;
    let mut link = Link::new();
    for i in 0..burst {
        link.send(Endpoint::GroundStation, &messages[i % messages.len()]);
    }
    let start = Instant::now();
    let drained = link.drain(Endpoint::Vehicle);
    let drain_seconds = start.elapsed().as_secs_f64();
    assert_eq!(drained.len(), burst, "burst drained losslessly");
    assert_eq!(link.pending_bytes(Endpoint::Vehicle), 0);
    let drain_rate = burst as f64 / drain_seconds.max(1e-9);
    println!("  {burst}-message burst drained in {drain_seconds:.4}s (~{drain_rate:.0} msgs/s)");

    json::object(vec![
        ("microbench", Json::String("mavlite-codec".to_string())),
        ("round_trip_nanos", Json::Number(round_trip_ns)),
        ("burst_messages", Json::Number(burst as f64)),
        ("burst_drain_seconds", Json::Number(drain_seconds)),
        ("burst_messages_per_second", Json::Number(drain_rate)),
    ])
}

/// The link-fault smoke scenario: a tiny matrix sweep over a clean link
/// and an arm-storm link scenario against the seeded protocol defect.
/// The storm cell must reproduce `ProtoDoubleArm`, the clean cell must
/// not, and the sweep must be bit-identical at parallelism 1 and 2 —
/// a fast end-to-end check that protocol fault injection stays both
/// effective and deterministic.
fn bench_link_fault_smoke() -> Json {
    println!("scenario `link-fault-smoke`: clean vs arm-storm matrix sweep");
    let storm = LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
        LinkFaultKind::Storm {
            command: StormCommand::Arm,
            count: 8,
        },
        LinkDirection::ToVehicle,
        40.0,
    )]);
    let run = |parallelism: usize| {
        let matrix = ScenarioMatrix::new()
            .firmware(FirmwareProfile::ArduPilotLike)
            .workload(auto_box_mission())
            .bugs(BugSet::only(BugId::ProtoDoubleArm))
            .approach(Approach::Avis)
            .link_scenario("clean", LinkFaultPlan::empty())
            .link_scenario("arm-storm", storm.clone())
            .budget(Budget::simulations(5))
            .profiling_runs(1)
            .parallelism(parallelism)
            .max_duration(110.0)
            .noise(SensorNoise::default());
        let start = Instant::now();
        let report = matrix.run();
        (report, start.elapsed().as_secs_f64())
    };
    let (serial_report, serial_seconds) = run(1);
    let (parallel_report, parallel_seconds) = run(2);
    assert_eq!(
        serial_report, parallel_report,
        "link-fault sweep diverged between parallelism 1 and 2"
    );
    let storm_cell = serial_report
        .results
        .iter()
        .find(|r| r.link_scenario.as_deref() == Some("arm-storm"))
        .expect("storm cell present");
    let clean_cell = serial_report
        .results
        .iter()
        .find(|r| r.link_scenario.as_deref() == Some("clean"))
        .expect("clean cell present");
    assert!(
        storm_cell.bugs_found().contains(&BugId::ProtoDoubleArm),
        "arm-storm scenario failed to reproduce the protocol defect"
    );
    assert!(
        clean_cell.bugs_found().is_empty(),
        "clean link scenario unexpectedly exposed a defect"
    );
    println!(
        "  serial {serial_seconds:.2}s / parallel {parallel_seconds:.2}s, \
         storm cell reproduces PROTO-101, clean cell finds nothing, reports bit-identical"
    );
    json::object(vec![
        ("scenario", Json::String("link-fault-smoke".to_string())),
        ("serial_wall_seconds", Json::Number(serial_seconds)),
        ("parallel_wall_seconds", Json::Number(parallel_seconds)),
        ("defect_reproduced", Json::Bool(true)),
        ("clean_cell_silent", Json::Bool(true)),
        ("result_identical", Json::Bool(true)),
    ])
}

/// Gates the measured checkpoint speedup against the committed baseline:
/// a >20% drop fails the run. The speedup is a same-host ratio, so the
/// gate holds on hosts of any speed.
fn check_baseline(
    baseline_path: &str,
    measured_speedup: f64,
    measured_batched_speedup: f64,
    measured_warm_speedup: f64,
) {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline = Json::parse(&text).expect("baseline is valid JSON");
    let expected = baseline
        .get("checkpoint_speedup")
        .and_then(|v| v.as_f64())
        .expect("baseline has a numeric `checkpoint_speedup`");
    let floor = expected * 0.8;
    println!(
        "baseline gate: measured {measured_speedup:.2}x vs committed {expected:.2}x (floor {floor:.2}x)"
    );
    if measured_speedup < floor {
        eprintln!(
            "REGRESSION: checkpoint speedup {measured_speedup:.2}x fell more than 20% below the committed baseline {expected:.2}x"
        );
        std::process::exit(1);
    }
    // The batched-lockstep gate: same 20%-regression contract against
    // the committed ratio, on top of the absolute >= 1.5x floor the
    // scenario itself asserts.
    if let Some(expected) = baseline
        .get("batched_lockstep_speedup")
        .and_then(|v| v.as_f64())
    {
        let floor = expected * 0.8;
        println!(
            "baseline gate: batched lockstep {measured_batched_speedup:.2}x vs committed {expected:.2}x (floor {floor:.2}x)"
        );
        if measured_batched_speedup < floor {
            eprintln!(
                "REGRESSION: batched lockstep speedup {measured_batched_speedup:.2}x fell more than 20% below the committed baseline {expected:.2}x"
            );
            std::process::exit(1);
        }
    }
    // The warm-start gate: same 20%-regression contract against the
    // committed ratio, on top of the absolute >= 2x floor the scenario
    // itself asserts.
    if let Some(expected) = baseline
        .get("store_warm_start_speedup")
        .and_then(|v| v.as_f64())
    {
        let floor = expected * 0.8;
        println!(
            "baseline gate: warm start {measured_warm_speedup:.2}x vs committed {expected:.2}x (floor {floor:.2}x)"
        );
        if measured_warm_speedup < floor {
            eprintln!(
                "REGRESSION: warm-start speedup {measured_warm_speedup:.2}x fell more than 20% below the committed baseline {expected:.2}x"
            );
            std::process::exit(1);
        }
    }
}

/// Physical processor count of the host, from `/proc/cpuinfo` where it
/// exists. [`avis::engine::default_parallelism`] reflects
/// cgroup/affinity limits (`available_parallelism`), which undercounts
/// containerised CI hosts — the report records both, and the cpuinfo
/// count is the `host_cores` of record.
fn host_cpu_count() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| {
            text.lines()
                .filter(|line| line.starts_with("processor"))
                .count()
        })
        .ok()
        .filter(|&count| count > 0)
        .unwrap_or_else(avis::engine::default_parallelism)
}

fn main() {
    if std::env::var("AVIS_BENCH_WARM_SMOKE").is_ok() {
        run_warm_smoke();
        return;
    }
    let simulations: usize = std::env::var("AVIS_BENCH_SIMS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let worker_counts: Vec<usize> = std::env::var("AVIS_BENCH_PARALLELISM")
        .ok()
        .map(|s| s.split(',').filter_map(|p| p.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![2, 4]);
    let out_path =
        std::env::var("AVIS_BENCH_OUT").unwrap_or_else(|_| "BENCH_campaign.json".to_string());

    let scenarios = [
        ("fixed", BugSet::none()),
        (
            "buggy",
            BugSet::current_code_base(FirmwareProfile::ArduPilotLike),
        ),
    ];
    let reports: Vec<Json> = scenarios
        .iter()
        .map(|(name, bugs)| bench_scenario(name, bugs, simulations, &worker_counts))
        .collect();
    let (checkpoint_report, checkpoint_speedup) = bench_checkpointing(simulations);
    let (warm_report, warm_speedup) = bench_warm_start();
    let (batched_report, batched_speedup) = bench_batched_lockstep(simulations);
    let delta_report = bench_delta_density();
    let matrix_report = bench_matrix_reuse(simulations);
    let codec_report = bench_codec_cost();
    let link_fault_report = bench_link_fault_smoke();

    let doc = json::object(vec![
        ("bench", Json::String("campaign_throughput".to_string())),
        ("approach", Json::String("Avis".to_string())),
        ("budget_simulations", Json::Number(simulations as f64)),
        ("host_cores", Json::Number(host_cpu_count() as f64)),
        (
            "host_available_parallelism",
            Json::Number(avis::engine::default_parallelism() as f64),
        ),
        ("scenarios", Json::Array(reports)),
        ("checkpoint", checkpoint_report),
        ("warm_start", warm_report),
        ("batched_lockstep", batched_report),
        ("delta_chain", delta_report),
        ("matrix_reuse", matrix_report),
        ("codec_microbench", codec_report),
        ("link_fault_smoke", link_fault_report),
    ]);
    std::fs::write(&out_path, doc.to_pretty()).expect("write BENCH_campaign.json");
    println!("wrote {out_path}");

    if let Ok(baseline_path) = std::env::var("AVIS_BENCH_BASELINE") {
        check_baseline(
            &baseline_path,
            checkpoint_speedup,
            batched_speedup,
            warm_speedup,
        );
    }
}
