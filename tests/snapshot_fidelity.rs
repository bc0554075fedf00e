//! Snapshot-fidelity property suite: for every layer that participates in
//! the checkpoint tree — the simulator, the firmware, the fault injector
//! and the full experiment runner — `snapshot → restore → step N` must be
//! bit-identical to `step N` straight through. Like the rest of the
//! property tests, randomness comes from a seeded [`SimRng`], so every
//! case is deterministic across runs.

use avis::runner::{ExperimentConfig, ExperimentRunner};
use avis::snapshot::{CheckpointConfig, SharedSnapshotTier};
use avis_firmware::{BugId, BugSet, Firmware, FirmwareProfile};
use avis_hinj::{FaultInjector, FaultPlan, FaultSpec, InjectorSnapshot, SharedInjector};
use avis_sim::codec::{ByteReader, ByteWriter};
use avis_sim::cow::MemoryChunkStore;
use avis_sim::simulator::{SimConfig, SimSnapshot, Simulator, StepOutput};
use avis_sim::{
    ChunkMemo, Environment, MotorCommands, SensorInstance, SensorKind, SensorNoise, SimRng,
};
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
fn firmware_defect_log_holds_one_entry_per_triggered_bug() {
    // Fail the primary accelerometer mid-climb (altitude > 2 m, still in
    // Takeoff): APM-16021 triggers and stays latched for the remaining
    // ~35 s of flight, active at every 400 Hz control step. The log still
    // names each triggered bug once, and a snapshot keeps the log it was
    // taken with while the recording run flies on.
    let bugs = BugSet::current_code_base(FirmwareProfile::ArduPilotLike);
    let fault = FaultSpec::new(SensorInstance::new(SensorKind::Accelerometer, 0), 5.0);
    let injector = SharedInjector::new(FaultInjector::new(FaultPlan::from_specs(vec![fault])));
    let mut fw = Firmware::new(FirmwareProfile::ArduPilotLike, bugs, injector.clone());
    let mut sim = make_sim(3);
    let mut output = StepOutput::empty();
    sim.step_into(&MotorCommands::IDLE, &mut output);
    let half = (20.0 / DT) as usize;
    let mut fly = |fw: &mut Firmware, steps: std::ops::Range<usize>| {
        for step in steps {
            drive_ground_station(fw, step);
            let cmd = fw.step(&output.readings, sim.time(), DT);
            sim.step_into(&cmd, &mut output);
        }
    };
    fly(&mut fw, 0..half);
    let snapshot = fw.snapshot();
    let log_at_cut = fw.defect_log().to_vec();
    assert!(
        log_at_cut
            .iter()
            .any(|(_, o)| o.active.contains(&BugId::Apm16021)),
        "the accelerometer failure should trigger APM-16021: {log_at_cut:?}"
    );
    fly(&mut fw, half..2 * half);

    let mut triggered: Vec<BugId> = fw
        .defect_log()
        .iter()
        .flat_map(|(_, o)| o.active.iter().copied())
        .collect();
    triggered.sort_unstable();
    triggered.dedup();
    assert_eq!(
        fw.defect_log().len(),
        triggered.len(),
        "one entry per triggered bug: {:?}",
        fw.defect_log()
    );
    let restored = snapshot.restore(SharedInjector::new(injector.snapshot().restore()));
    assert_eq!(
        restored.defect_log().to_vec(),
        log_at_cut,
        "the continued run changed the snapshot's defect log"
    );
}

/// Encodes a capture for the persistent store and decodes it onto
/// `genesis`, the capture of the same run at `t = 0`.
fn sim_round_trip(genesis: &SimSnapshot, cut: &SimSnapshot) -> SimSnapshot {
    let mut w = ByteWriter::new();
    cut.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    let mut decoded = genesis.clone();
    decoded.decode_onto(&mut r).expect("decode");
    r.finish().expect("no trailing bytes");
    decoded
}

fn injector_round_trip(cut: &InjectorSnapshot) -> InjectorSnapshot {
    let mut store = MemoryChunkStore::new();
    let mut w = ByteWriter::new();
    cut.encode(&mut w, &mut store);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    let decoded =
        InjectorSnapshot::decode(&mut r, &mut store, &mut ChunkMemo::default()).expect("decode");
    r.finish().expect("no trailing bytes");
    decoded
}

#[test]
fn sim_codec_restore_is_bit_identical_to_full_restore() {
    // Layer property: a capture encoded for the store and decoded onto
    // the run's genesis capture rebuilds it exactly, so a run resumed
    // from the decoded capture is bit-identical to one resumed from the
    // capture itself.
    let mut rng = SimRng::seed_from_u64(61);
    for case in 0..5 {
        let seed = rng.index(1000) as u64;
        let cut_at = 300 + rng.index(1600);
        let total = cut_at + 400 + rng.index(800);
        let throttles: Vec<f64> = (0..total).map(|_| rng.uniform_range(0.0, 0.9)).collect();

        let mut sim = make_sim(seed);
        let genesis = sim.snapshot();
        let mut output = StepOutput::empty();
        for &t in &throttles[..cut_at] {
            sim.step_into(&MotorCommands::uniform(t), &mut output);
        }
        let cut = sim.snapshot();
        let decoded = sim_round_trip(&genesis, &cut);
        assert_eq!(decoded.time(), cut.time());

        let drive = |mut restored: Simulator| {
            let mut out = output.clone();
            for &t in &throttles[cut_at..] {
                restored.step_into(&MotorCommands::uniform(t), &mut out);
            }
            (restored.physical_state(), restored.steps(), out)
        };
        assert_eq!(
            drive(decoded.into_restored()),
            drive(cut.restore()),
            "case {case}: the decoded sim diverged from the full restore"
        );
    }
}

#[test]
fn injector_codec_restore_is_bit_identical_to_full_restore() {
    let mut rng = SimRng::seed_from_u64(67);
    for case in 0..40 {
        let fault = FaultSpec::new(arb_instance(&mut rng), rng.uniform_range(0.0, 4.0));
        let mut injector = FaultInjector::new(FaultPlan::from_specs(vec![fault]));
        for i in 0..60 {
            let t = i as f64 * 0.4;
            injector.should_fail(fault.instance, t);
            injector.should_fail(arb_instance(&mut rng), t);
            if i % 6 == 0 {
                injector.report_mode(t, avis_hinj::ModeCode(i as u32));
            }
            if i == 25 {
                // Seal part of the history into a chunk of its own.
                injector.snapshot();
            }
        }
        let cut = injector.snapshot();
        let (a, b) = (injector_round_trip(&cut).restore(), cut.restore());
        assert_eq!(a.plan(), b.plan(), "case {case}: plan diverged");
        assert_eq!(a.injections(), b.injections(), "case {case}");
        assert_eq!(a.mode_transitions(), b.mode_transitions(), "case {case}");
        assert_eq!(a.total_reads(), b.total_reads(), "case {case}");
        assert_eq!(a.failed_reads(), b.failed_reads(), "case {case}");
        assert_eq!(a.current_mode(), b.current_mode(), "case {case}");
    }
}

#[test]
fn firmware_codec_restore_is_bit_identical_to_full_restore() {
    let mut rng = SimRng::seed_from_u64(71);
    for case in 0..3 {
        let plan = arb_plan(&mut rng, 5.0, 25.0);
        let cut_steps = (rng.uniform_range(10.0, 27.0) / DT) as usize;
        let total_steps = cut_steps + (15.0 / DT) as usize;

        let injector = SharedInjector::new(FaultInjector::new(plan));
        let mut fw = Firmware::new(
            FirmwareProfile::ArduPilotLike,
            BugSet::current_code_base(FirmwareProfile::ArduPilotLike),
            injector.clone(),
        );
        let genesis = fw.snapshot();
        let mut sim = make_sim(case as u64);
        let mut output = StepOutput::empty();
        sim.step_into(&MotorCommands::IDLE, &mut output);
        for step in 0..cut_steps {
            drive_ground_station(&mut fw, step);
            let cmd = fw.step(&output.readings, sim.time(), DT);
            sim.step_into(&cmd, &mut output);
        }
        let cut = fw.snapshot();
        let cut_injector = injector.snapshot();
        let mut w = ByteWriter::new();
        cut.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut decoded = genesis.clone();
        decoded.decode_onto(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        assert_eq!(decoded.time(), cut.time());

        // Drive both restores through the identical tail and compare
        // every observable.
        let drive = |firmware_snapshot: &avis_firmware::FirmwareSnapshot,
                     injector_snapshot: &InjectorSnapshot| {
            let shared = SharedInjector::new(injector_snapshot.restore());
            let mut fw = firmware_snapshot.restore(shared.clone());
            let mut sim = sim.snapshot().into_restored();
            let mut out = output.clone();
            let mut commands = Vec::new();
            for step in cut_steps..total_steps {
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
        assert_eq!(
            drive(&decoded, &injector_round_trip(&cut_injector)),
            drive(&cut, &cut_injector),
            "case {case}: the decoded firmware diverged from the full restore"
        );
    }
}

#[test]
fn shared_cache_eviction_under_a_tiny_budget_stays_correct() {
    // Eviction correctness under one shared cache: two runners forking
    // from and committing to one cache squeezed to a budget that evicts
    // on nearly every commit must never change a result — a fork from
    // whatever survives is still bit-identical to a cold run. The pairs
    // of failure times less than half a millisecond apart share every
    // quantised cache key but not their exact prefixes: whichever run
    // records a cell first keeps it, and the other may not fork from it.
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
