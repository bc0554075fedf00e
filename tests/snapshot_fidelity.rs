//! Snapshot-fidelity property suite: for every layer that participates in
//! the checkpoint tree — the simulator, the firmware, the fault injector
//! and the full experiment runner — `snapshot → restore → step N` must be
//! bit-identical to `step N` straight through. Like the rest of the
//! property tests, randomness comes from a seeded [`SimRng`], so every
//! case is deterministic across runs.

use avis::runner::{ExperimentConfig, ExperimentRunner};
use avis::snapshot::{CheckpointConfig, SharedSnapshotTier};
use avis_firmware::{BugSet, Firmware, FirmwareProfile};
use avis_hinj::{FaultInjector, FaultPlan, FaultSpec, SharedInjector};
use avis_sim::simulator::{SimConfig, Simulator, StepOutput};
use avis_sim::{Environment, MotorCommands, SensorInstance, SensorKind, SensorNoise, SimRng};
use avis_workload::auto_box_mission;
use std::sync::Arc;

const DT: f64 = 0.0025;

fn arb_instance(rng: &mut SimRng) -> SensorInstance {
    let kind = SensorKind::ALL[rng.index(SensorKind::ALL.len())];
    SensorInstance::new(kind, rng.index(3) as u8)
}

fn arb_plan(rng: &mut SimRng, lo: f64, hi: f64) -> FaultPlan {
    let specs: Vec<FaultSpec> = (0..rng.index(3) + 1)
        .map(|_| FaultSpec::new(arb_instance(rng), rng.uniform_range(lo, hi)))
        .collect();
    FaultPlan::from_specs(specs)
}

#[test]
fn simulator_snapshot_restore_continues_bit_identically() {
    let mut rng = SimRng::seed_from_u64(41);
    for case in 0..5 {
        let seed = rng.index(1000) as u64;
        let cut = 200 + rng.index(1500);
        let total = cut + 500 + rng.index(1500);
        let throttles: Vec<f64> = (0..total).map(|_| rng.uniform_range(0.0, 0.9)).collect();

        let make = || {
            Simulator::new(
                SimConfig {
                    dt: DT,
                    seed,
                    ..SimConfig::default()
                },
                Environment::open_field(),
            )
        };
        // Straight-through reference.
        let mut straight = make();
        let mut reference = StepOutput::empty();
        for &t in &throttles {
            straight.step_into(&MotorCommands::uniform(t), &mut reference);
        }
        // Snapshot at `cut`, restore, continue.
        let mut recording = make();
        let mut output = StepOutput::empty();
        for &t in &throttles[..cut] {
            recording.step_into(&MotorCommands::uniform(t), &mut output);
        }
        let snapshot = recording.snapshot();
        assert_eq!(snapshot.time(), recording.time());
        assert!(snapshot.approx_bytes() > 0);
        let mut restored = snapshot.restore();
        for &t in &throttles[cut..] {
            restored.step_into(&MotorCommands::uniform(t), &mut output);
        }
        assert_eq!(output, reference, "case {case}: restored sim diverged");
        assert_eq!(restored.time(), straight.time());
        assert_eq!(restored.steps(), straight.steps());
        assert_eq!(restored.first_collision(), straight.first_collision());
    }
}

#[test]
fn injector_snapshot_restore_preserves_prefix_and_swaps_plan() {
    let mut rng = SimRng::seed_from_u64(43);
    for case in 0..50 {
        let prefix_fault = FaultSpec::new(arb_instance(&mut rng), rng.uniform_range(0.0, 5.0));
        let original = FaultPlan::from_specs(vec![prefix_fault]);
        let mut injector = FaultInjector::new(original);
        // Drive some reads and mode reports past the prefix fault.
        for i in 0..40 {
            let t = i as f64 * 0.25;
            injector.should_fail(prefix_fault.instance, t);
            injector.should_fail(arb_instance(&mut rng), t);
            if i % 10 == 0 {
                injector.report_mode(t, avis_hinj::ModeCode(i as u32 / 10));
            }
        }
        let snapshot = injector.snapshot();
        assert_eq!(snapshot.plan().len(), 1);
        assert!(snapshot.approx_bytes() > 0);

        // Restoring with a new plan keeps all bookkeeping and the prefix
        // failure (it fired; clean failures are permanent), while the new
        // plan governs future reads.
        let new_fault = FaultSpec::new(arb_instance(&mut rng), 20.0);
        let new_plan = FaultPlan::from_specs(vec![prefix_fault, new_fault]);
        let mut restored = snapshot.restore_with_plan(new_plan.clone());
        assert_eq!(restored.plan(), &new_plan);
        assert_eq!(
            restored.mode_transitions(),
            injector.mode_transitions(),
            "case {case}: prefix transitions lost"
        );
        assert_eq!(restored.injections(), injector.injections());
        assert_eq!(restored.total_reads(), injector.total_reads());
        assert!(restored.should_fail(prefix_fault.instance, 10.0));
        assert_eq!(
            restored.should_fail(new_fault.instance, 25.0),
            new_plan.is_failed(new_fault.instance, 25.0)
        );

        // The exact restore keeps the original plan.
        assert_eq!(snapshot.restore().plan(), injector.plan());
    }
}

#[test]
fn firmware_snapshot_restore_continues_bit_identically() {
    let mut rng = SimRng::seed_from_u64(47);
    for case in 0..3 {
        let plan = arb_plan(&mut rng, 5.0, 25.0);
        let cut_steps = (rng.uniform_range(8.0, 30.0) / DT) as usize;
        let total_steps = cut_steps + (20.0 / DT) as usize;

        let run_reference = |plan: FaultPlan| {
            let injector = SharedInjector::new(FaultInjector::new(plan));
            let mut fw = Firmware::new(
                FirmwareProfile::ArduPilotLike,
                BugSet::none(),
                injector.clone(),
            );
            let mut sim = make_sim(case as u64);
            let mut output = StepOutput::empty();
            sim.step_into(&MotorCommands::IDLE, &mut output);
            let mut commands = Vec::new();
            for step in 0..total_steps {
                drive_ground_station(&mut fw, step);
                let cmd = fw.step(&output.readings, sim.time(), DT);
                commands.push(cmd);
                sim.step_into(&cmd, &mut output);
            }
            (fw, sim, commands)
        };
        let (ref_fw, ref_sim, ref_commands) = run_reference(plan.clone());

        // Same lock-step loop, but snapshot firmware + sim + injector at
        // the cut and continue from the restored copies.
        let injector = SharedInjector::new(FaultInjector::new(plan));
        let mut fw = Firmware::new(
            FirmwareProfile::ArduPilotLike,
            BugSet::none(),
            injector.clone(),
        );
        let mut sim = make_sim(case as u64);
        let mut output = StepOutput::empty();
        sim.step_into(&MotorCommands::IDLE, &mut output);
        let mut commands = Vec::new();
        for step in 0..cut_steps {
            drive_ground_station(&mut fw, step);
            let cmd = fw.step(&output.readings, sim.time(), DT);
            commands.push(cmd);
            sim.step_into(&cmd, &mut output);
        }
        let fw_snapshot = fw.snapshot();
        assert!((fw_snapshot.time() - (sim.time() - DT)).abs() < 1e-9);
        assert!(fw_snapshot.approx_bytes() > 0);
        let restored_injector = SharedInjector::new(injector.snapshot().restore());
        let mut restored_fw = fw_snapshot.restore(restored_injector.clone());
        let mut restored_sim = sim.snapshot().into_restored();
        let mut restored_output = output.clone();
        for step in cut_steps..total_steps {
            drive_ground_station(&mut restored_fw, step);
            let cmd = restored_fw.step(&restored_output.readings, restored_sim.time(), DT);
            commands.push(cmd);
            restored_sim.step_into(&cmd, &mut restored_output);
        }

        assert_eq!(
            commands, ref_commands,
            "case {case}: motor commands diverged"
        );
        assert_eq!(restored_fw.mode(), ref_fw.mode());
        assert_eq!(restored_fw.mode_history(), ref_fw.mode_history());
        assert_eq!(restored_fw.estimate(), ref_fw.estimate());
        assert_eq!(restored_sim.physical_state(), ref_sim.physical_state());
        // The restored firmware reports to the *forked* injector, not the
        // recording one.
        assert_eq!(
            restored_injector.mode_transitions(),
            ref_sim_transitions(&ref_fw)
        );
    }
}

/// The reference run's transitions as recorded by its injector-facing
/// mode reports (mode history and injector reports coincide for these
/// runs).
fn ref_sim_transitions(fw: &Firmware) -> Vec<avis_hinj::ModeTransitionRecord> {
    let mut out = Vec::new();
    let mut prev: Option<avis_hinj::ModeCode> = None;
    for &(time, mode) in fw.mode_history() {
        let code = mode.code();
        if prev != Some(code) {
            out.push(avis_hinj::ModeTransitionRecord {
                time,
                from: prev,
                to: code,
            });
            prev = Some(code);
        }
    }
    out
}

fn make_sim(seed: u64) -> Simulator {
    let mut config = SimConfig {
        dt: DT,
        seed,
        ..SimConfig::default()
    };
    config.sensors.noise = SensorNoise::noiseless();
    Simulator::new(config, Environment::open_field())
}

/// A deterministic stand-in for the workload: arm, request takeoff, then
/// leave the firmware flying on its own.
fn drive_ground_station(fw: &mut Firmware, step: usize) {
    use avis_mavlite::Message;
    fw.drain_outbox();
    if step == (1.0 / DT) as usize {
        fw.handle_message(&Message::ArmDisarm { arm: true });
        fw.handle_message(&Message::CommandTakeoff { altitude: 18.0 });
    }
}

#[test]
fn runner_forks_are_bit_identical_across_random_plans() {
    let mut rng = SimRng::seed_from_u64(53);
    let mut experiment = ExperimentConfig::new(
        FirmwareProfile::ArduPilotLike,
        BugSet::current_code_base(FirmwareProfile::ArduPilotLike),
        auto_box_mission(),
    );
    experiment.noise = Some(SensorNoise::noiseless());
    experiment.max_duration = 100.0;

    let mut cold_experiment = experiment.clone();
    cold_experiment.checkpoints = CheckpointConfig::disabled();

    let mut checkpointed = ExperimentRunner::new(experiment);
    let mut cold = ExperimentRunner::new(cold_experiment);
    for case in 0..6 {
        // Plans biased late so most of them share long prefixes (and the
        // first iterations populate the tree the later ones fork from).
        let plan = arb_plan(&mut rng, 30.0, 90.0);
        let forked_result = checkpointed.run_with_plan(plan.clone());
        let cold_result = cold.run_with_plan(plan);
        assert_eq!(
            forked_result, cold_result,
            "case {case}: forked run diverged from cold execution"
        );
    }
    let stats = checkpointed.checkpoint_stats();
    assert!(
        stats.forked_runs >= 3,
        "late plans should fork off the shared prefix: {stats:?}"
    );
    assert!(stats.simulated_seconds_skipped > 0.0);
}

#[test]
fn forked_tail_mutation_never_perturbs_a_shared_prefix() {
    // The structural-sharing aliasing property, per CoW-backed layer:
    // a fork that keeps appending to (and sealing) its own history must
    // never change what an earlier snapshot observes.
    let mut rng = SimRng::seed_from_u64(59);
    for case in 0..30 {
        // Injector layer: records are CowVec-backed.
        let fault = FaultSpec::new(arb_instance(&mut rng), rng.uniform_range(0.0, 3.0));
        let mut injector = FaultInjector::new(FaultPlan::from_specs(vec![fault]));
        for i in 0..30 {
            let t = i as f64 * 0.5;
            injector.should_fail(fault.instance, t);
            if i % 7 == 0 {
                injector.report_mode(t, avis_hinj::ModeCode(i as u32));
            }
        }
        let snapshot = injector.snapshot();
        let injections_at_cut = snapshot.restore().injections().to_vec();
        let transitions_at_cut = snapshot.restore().mode_transitions().to_vec();
        // The original keeps running (its tail grows and reseals)…
        for i in 30..200 {
            let t = i as f64 * 0.5;
            injector.should_fail(arb_instance(&mut rng), t);
            injector.report_mode(t, avis_hinj::ModeCode(i as u32));
            if i % 13 == 0 {
                let _ = injector.snapshot(); // reseals the shared chain
            }
        }
        // …and the earlier snapshot must be byte-for-byte unchanged.
        assert_eq!(
            snapshot.restore().injections().to_vec(),
            injections_at_cut,
            "case {case}: injector prefix perturbed"
        );
        assert_eq!(
            snapshot.restore().mode_transitions().to_vec(),
            transitions_at_cut,
            "case {case}: transition prefix perturbed"
        );
    }
}

#[test]
fn firmware_defect_log_prefix_is_immutable_under_forks() {
    // Firmware layer: the defect log is CowVec-backed; a snapshot taken
    // mid-run must keep its log prefix while the recording run keeps
    // appending (the buggy code base logs an entry per active-defect
    // step, so the log actually grows).
    let bugs = BugSet::current_code_base(FirmwareProfile::ArduPilotLike);
    // Fail the primary accelerometer mid-climb (altitude > 2 m, still in
    // Takeoff): APM-16021 triggers and stays latched, so the defect log
    // grows every step from the trigger on.
    let fault = FaultSpec::new(SensorInstance::new(SensorKind::Accelerometer, 0), 5.0);
    let injector = SharedInjector::new(FaultInjector::new(FaultPlan::from_specs(vec![fault])));
    let mut fw = Firmware::new(FirmwareProfile::ArduPilotLike, bugs, injector.clone());
    let mut sim = make_sim(3);
    let mut output = StepOutput::empty();
    sim.step_into(&MotorCommands::IDLE, &mut output);
    for step in 0..(20.0 / DT) as usize {
        drive_ground_station(&mut fw, step);
        let cmd = fw.step(&output.readings, sim.time(), DT);
        sim.step_into(&cmd, &mut output);
    }
    let snapshot = fw.snapshot();
    let restored_injector = SharedInjector::new(injector.snapshot().restore());
    let log_at_cut = snapshot
        .restore(restored_injector.clone())
        .defect_log()
        .to_vec();
    // Continue the original for another 20 simulated seconds.
    for step in 0..(20.0 / DT) as usize {
        drive_ground_station(&mut fw, step + (20.0 / DT) as usize);
        let cmd = fw.step(&output.readings, sim.time(), DT);
        sim.step_into(&cmd, &mut output);
        if step % 4000 == 0 {
            let _ = fw.snapshot(); // reseals the shared chain
        }
    }
    assert!(
        fw.defect_log().len() > log_at_cut.len(),
        "the continued run should keep logging defects"
    );
    assert_eq!(
        snapshot.restore(restored_injector).defect_log().to_vec(),
        log_at_cut,
        "defect-log prefix perturbed by the continued run"
    );
}

#[test]
fn sim_delta_restore_is_bit_identical_to_full_restore() {
    // Layer property: `base.apply(&cut.diff(&base))` must rebuild the
    // exact capture, so a run resumed from the re-materialised snapshot
    // is bit-identical to one resumed from the full snapshot.
    let mut rng = SimRng::seed_from_u64(61);
    for case in 0..5 {
        let seed = rng.index(1000) as u64;
        let base_cut = 200 + rng.index(800);
        let delta_cut = base_cut + 100 + rng.index(800);
        let total = delta_cut + 400 + rng.index(800);
        let throttles: Vec<f64> = (0..total).map(|_| rng.uniform_range(0.0, 0.9)).collect();

        let mut sim = make_sim(seed);
        let mut output = StepOutput::empty();
        for &t in &throttles[..base_cut] {
            sim.step_into(&MotorCommands::uniform(t), &mut output);
        }
        let base = sim.snapshot();
        for &t in &throttles[base_cut..delta_cut] {
            sim.step_into(&MotorCommands::uniform(t), &mut output);
        }
        let cut = sim.snapshot();
        let delta = cut.diff(&base);
        assert!(
            delta.approx_bytes() < cut.approx_bytes() / 2,
            "case {case}: a sim delta should be a fraction of a full capture \
             ({} vs {})",
            delta.approx_bytes(),
            cut.approx_bytes()
        );
        assert_eq!(delta.time(), cut.time());

        let drive = |mut restored: Simulator| {
            let mut out = output.clone();
            for &t in &throttles[delta_cut..] {
                restored.step_into(&MotorCommands::uniform(t), &mut out);
            }
            (restored.physical_state(), restored.steps(), out)
        };
        let from_full = drive(cut.restore());
        let from_delta = drive(base.apply(&delta).into_restored());
        assert_eq!(
            from_delta, from_full,
            "case {case}: delta-restored sim diverged from the full restore"
        );
    }
}

#[test]
fn injector_delta_restore_is_bit_identical_to_full_restore() {
    let mut rng = SimRng::seed_from_u64(67);
    for case in 0..40 {
        let fault = FaultSpec::new(arb_instance(&mut rng), rng.uniform_range(0.0, 4.0));
        let mut injector = FaultInjector::new(FaultPlan::from_specs(vec![fault]));
        for i in 0..25 {
            let t = i as f64 * 0.4;
            injector.should_fail(fault.instance, t);
            if i % 6 == 0 {
                injector.report_mode(t, avis_hinj::ModeCode(i as u32));
            }
        }
        let base = injector.snapshot();
        for i in 25..60 {
            let t = i as f64 * 0.4;
            injector.should_fail(arb_instance(&mut rng), t);
            injector.report_mode(t, avis_hinj::ModeCode(i as u32));
        }
        let cut = injector.snapshot();
        let delta = cut.diff(&base);
        let rebuilt = base.apply(&delta);
        let (a, b) = (rebuilt.restore(), cut.restore());
        assert_eq!(a.plan(), b.plan(), "case {case}: plan diverged");
        assert_eq!(a.injections(), b.injections(), "case {case}");
        assert_eq!(a.mode_transitions(), b.mode_transitions(), "case {case}");
        assert_eq!(a.total_reads(), b.total_reads(), "case {case}");
        assert_eq!(a.failed_reads(), b.failed_reads(), "case {case}");
        assert_eq!(a.current_mode(), b.current_mode(), "case {case}");
    }
}

#[test]
fn firmware_delta_restore_is_bit_identical_to_full_restore() {
    let mut rng = SimRng::seed_from_u64(71);
    for case in 0..3 {
        let plan = arb_plan(&mut rng, 5.0, 25.0);
        let base_steps = (rng.uniform_range(6.0, 15.0) / DT) as usize;
        let delta_steps = base_steps + (rng.uniform_range(4.0, 12.0) / DT) as usize;
        let total_steps = delta_steps + (15.0 / DT) as usize;

        let injector = SharedInjector::new(FaultInjector::new(plan));
        let mut fw = Firmware::new(
            FirmwareProfile::ArduPilotLike,
            BugSet::current_code_base(FirmwareProfile::ArduPilotLike),
            injector.clone(),
        );
        let mut sim = make_sim(case as u64);
        let mut output = StepOutput::empty();
        sim.step_into(&MotorCommands::IDLE, &mut output);
        let mut base = None;
        let mut base_injector = None;
        for step in 0..delta_steps {
            if step == base_steps {
                base = Some(fw.snapshot());
                base_injector = Some(injector.snapshot());
            }
            drive_ground_station(&mut fw, step);
            let cmd = fw.step(&output.readings, sim.time(), DT);
            sim.step_into(&cmd, &mut output);
        }
        let base = base.expect("base cut recorded");
        let base_injector = base_injector.expect("base injector recorded");
        let cut = fw.snapshot();
        let cut_injector = injector.snapshot();
        let delta = cut.diff(&base);
        assert_eq!(delta.time(), cut.time());
        let injector_delta = cut_injector.diff(&base_injector);

        // Drive both restores through the identical tail and compare
        // every observable.
        let drive = |firmware_snapshot: &avis_firmware::FirmwareSnapshot,
                     injector_snapshot: &avis_hinj::InjectorSnapshot| {
            let shared = SharedInjector::new(injector_snapshot.restore());
            let mut fw = firmware_snapshot.restore(shared.clone());
            let mut sim = sim.snapshot().into_restored();
            let mut out = output.clone();
            let mut commands = Vec::new();
            for step in delta_steps..total_steps {
                drive_ground_station(&mut fw, step);
                let cmd = fw.step(&out.readings, sim.time(), DT);
                commands.push(cmd);
                sim.step_into(&cmd, &mut out);
            }
            (
                commands,
                fw.mode(),
                fw.mode_history().to_vec(),
                *fw.estimate(),
                fw.defect_log().to_vec(),
                shared.mode_transitions(),
            )
        };
        let from_full = drive(&cut, &cut_injector);
        let from_delta = drive(&base.apply(&delta), &base_injector.apply(&injector_delta));
        assert_eq!(
            from_delta, from_full,
            "case {case}: delta-restored firmware diverged from the full restore"
        );
    }
}

#[test]
fn keyframe_stride_never_changes_results() {
    // The runner-level property: cold execution, full-snapshot chains
    // (stride 1), delta chains (stride 3) and a stride far beyond any
    // chain length must all produce bit-identical results — and the
    // stride governs how cuts are *stored*: deltas appear exactly when
    // the stride leaves room for them.
    let gps1 = SensorInstance::new(SensorKind::Gps, 1);
    let baro1 = SensorInstance::new(SensorKind::Barometer, 1);
    let mut base = ExperimentConfig::new(
        FirmwareProfile::ArduPilotLike,
        BugSet::none(),
        auto_box_mission(),
    );
    base.noise = Some(SensorNoise::noiseless());
    base.max_duration = 100.0;

    let plans: Vec<FaultPlan> = [35.0, 50.0, 65.0, 80.0]
        .into_iter()
        .flat_map(|t| {
            [
                FaultPlan::from_specs(vec![FaultSpec::new(gps1, t)]),
                FaultPlan::from_specs(vec![FaultSpec::new(baro1, t + 2.0)]),
            ]
        })
        .collect();
    let run_all = |checkpoints: CheckpointConfig| {
        let mut experiment = base.clone();
        experiment.checkpoints = checkpoints;
        let mut runner = ExperimentRunner::new(experiment);
        let results: Vec<_> = plans
            .iter()
            .map(|p| runner.run_with_plan(p.clone()))
            .collect();
        (results, runner.checkpoint_stats())
    };

    let (cold, _) = run_all(CheckpointConfig::disabled());
    let (full, full_stats) = run_all(CheckpointConfig::with_keyframe_stride(1));
    let (delta, delta_stats) = run_all(CheckpointConfig::with_keyframe_stride(3));
    let (sparse, sparse_stats) = run_all(CheckpointConfig::with_keyframe_stride(1000));

    assert_eq!(full, cold, "stride-1 chains diverged from cold execution");
    assert_eq!(
        delta, cold,
        "stride-3 delta chains diverged from cold execution"
    );
    assert_eq!(
        sparse, cold,
        "stride > chain length diverged from cold execution"
    );
    assert_eq!(
        full_stats.delta_snapshots, 0,
        "stride 1 must store only keyframes: {full_stats:?}"
    );
    assert!(
        delta_stats.delta_snapshots > 0 && delta_stats.delta_bytes > 0,
        "stride 3 should store delta cuts: {delta_stats:?}"
    );
    // Stride 1000 exceeds every chain this workload records, so all but
    // each run's first recorded cut are deltas.
    assert!(
        sparse_stats.delta_snapshots > delta_stats.delta_snapshots,
        "an unbounded stride should delta-encode nearly every cut \
         (sparse {sparse_stats:?} vs stride-3 {delta_stats:?})"
    );
    // And the encoded stores hold the same number of cuts for less
    // memory.
    assert!(
        delta_stats.cached_bytes < full_stats.cached_bytes,
        "delta chains should be smaller at equal cut count: \
         {delta_stats:?} vs {full_stats:?}"
    );
}

#[test]
fn delta_chains_keep_more_cuts_resident_at_equal_budget() {
    // The memory-density property the dense-interval bench measures at
    // full scale: under one tight budget, delta chains must keep several
    // times more cuts resident than full snapshots — here gated
    // conservatively at 2× (the bench asserts 3× over its larger
    // late-injection sweep) — while results stay bit-identical to cold execution.
    let gps1 = SensorInstance::new(SensorKind::Gps, 1);
    let budget = 192 * 1024;
    let mut base = ExperimentConfig::new(
        FirmwareProfile::ArduPilotLike,
        BugSet::none(),
        auto_box_mission(),
    );
    base.noise = Some(SensorNoise::noiseless());
    base.max_duration = 100.0;

    let mut cold = ExperimentRunner::new({
        let mut e = base.clone();
        e.checkpoints = CheckpointConfig::disabled();
        e
    });
    let run_all = |keyframe_stride: usize, cold: &mut ExperimentRunner| {
        let mut experiment = base.clone();
        experiment.checkpoints = CheckpointConfig {
            interval: 1.0,
            max_bytes: budget,
            keyframe_stride,
            ..CheckpointConfig::default()
        };
        let mut runner = ExperimentRunner::new(experiment);
        for time in [85.0, 90.0, 95.0] {
            let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps1, time)]);
            let result = runner.run_with_plan(plan.clone());
            assert_eq!(
                result,
                cold.run_with_plan(plan),
                "stride {keyframe_stride}: budgeted run diverged from cold"
            );
        }
        runner.checkpoint_stats()
    };
    let full = run_all(1, &mut cold);
    let delta = run_all(16, &mut cold);
    assert!(full.cached_bytes <= budget && delta.cached_bytes <= budget);
    assert!(
        delta.snapshots_cached >= 2 * full.snapshots_cached,
        "delta chains should keep ≥2× more cuts resident at equal budget: \
         delta {delta:?} vs full {full:?}"
    );
}

#[test]
fn shared_cache_eviction_under_a_tiny_budget_stays_correct() {
    // Eviction correctness under one shared cache: two runners forking
    // from and committing to one cache squeezed to a budget that evicts
    // on nearly every commit must never change a result — a fork from
    // whatever survives is still bit-identical to a cold run. The pairs
    // of failure times less than half a millisecond apart share every
    // quantised cache key but not their exact prefixes: whichever run
    // records a cell first keeps it, and the other may neither fork from
    // it nor store a delta against it.
    let gps1 = SensorInstance::new(SensorKind::Gps, 1);
    let mut experiment = ExperimentConfig::new(
        FirmwareProfile::ArduPilotLike,
        BugSet::none(),
        auto_box_mission(),
    );
    experiment.noise = Some(SensorNoise::noiseless());
    experiment.max_duration = 100.0;
    experiment.checkpoints = CheckpointConfig::with_max_bytes(96 * 1024);

    let mut cold_experiment = experiment.clone();
    cold_experiment.checkpoints = CheckpointConfig::disabled();
    let mut cold = ExperimentRunner::new(cold_experiment);

    let tier = Arc::new(SharedSnapshotTier::new(96 * 1024));
    // Two runners on the tiny cache, alternating runs.
    let mut a = ExperimentRunner::new(experiment.clone());
    a.set_shared_tier(Arc::clone(&tier));
    let mut b = ExperimentRunner::new(experiment);
    b.set_shared_tier(Arc::clone(&tier));

    let times = [
        30.0, 30.0004, 42.0, 42.0003, 55.0, 67.0, 55.0002, 80.0, 30.5,
    ];
    for (i, time) in times.into_iter().enumerate() {
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps1, time)]);
        let runner = if i % 2 == 0 { &mut a } else { &mut b };
        let result = runner.run_with_plan(plan.clone());
        let reference = cold.run_with_plan(plan);
        assert_eq!(
            result, reference,
            "run {i} (failure at {time} s): eviction changed the result"
        );
    }
    let stats = tier.stats();
    assert!(
        stats.snapshots_evicted > 0,
        "the tiny budget should evict: {stats:?}"
    );
    assert!(
        stats.cached_bytes <= 96 * 1024,
        "cache bytes over budget: {stats:?}"
    );
    let forks = a.checkpoint_stats().forked_runs + b.checkpoint_stats().forked_runs;
    assert!(forks > 0, "some runs should fork from what survives");
}
