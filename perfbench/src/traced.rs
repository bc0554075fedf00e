//! The traced run: per-layer metrics, measured from outside by timing
//! calls into each crate's public functions.
//!
//! 1. Untraced repetitions give the baseline wall time (and the search
//!    timings) that the tracing overhead is measured against.
//! 2. Traced repetitions run the same campaigns through the timing
//!    strategy wrapper and a timestamping observer, recording spans.
//! 3. The monitor is re-calibrated on the campaign's own profiling traces
//!    and re-checks the committed traces, timing each call.
//! 4. On store-backed workloads, the store is opened, hydrated and
//!    flushed directly against the repetition's own store root.
//! 5. A shadow replay re-flies a seeded sample of the committed plans
//!    through the runner's public calls, timing every Nth tick; each
//!    replay must equal `run_with_plan` for its plan.

use crate::measure::{
    median_of, run_for, run_rep, store_root, Best, Reference, Rep, Tally, Tracing,
};
use crate::probe::{self, lock, median, ns_at, Acc, Dist, SpanLog};
use crate::shadow::{self, LayerTimes, Stepper};
use crate::workloads::{Inputs, PROFILING_RUNS};
use avis::monitor::{InvariantMonitor, MonitorConfig};
use avis::runner::{ExperimentConfig, ExperimentRunner};
use avis::snapshot::{CheckpointConfig, SharedSnapshotTier};
use avis::store::{SnapshotStore, DEFAULT_STORE_BUDGET};
use avis_hinj::FaultPlan;
use avis_sim::SimRng;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Plans the shadow replay re-flies and checks.
const REPLAYED_PLANS: usize = 12;
/// The shadow replay times the layer calls of every Nth tick.
const TIMED_EVERY: u64 = 8;
/// Cold `run_with_plan` samples behind `runner.scenario_ms`.
const COLD_SAMPLES: usize = 100;
/// Wall-time cap on the extra cold runs (s).
const COLD_SECONDS: f64 = 10.0;
/// Timed calibrations per session.
const CALIBRATIONS: usize = 3;
/// Monitor checks timed at least.
const CHECK_SAMPLES: usize = 200;
/// Direct hydrate / flush repetitions.
const STORE_REPS: usize = 3;

const MIB: f64 = 1024.0 * 1024.0;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// What the direct store calls measured.
#[derive(Debug, Default)]
struct StoreCalls {
    hydrate_ms: f64,
    flush_ms: f64,
    read_mib: f64,
    disk_mib: f64,
    dedup_hits: f64,
    quarantined_blobs: f64,
}

/// Opens the repetition's store root, hydrates a fresh tier from it and
/// flushes that tier into a second fresh root, `STORE_REPS` times.
fn direct_store(
    experiment: &ExperimentConfig,
    root: &Path,
    out: &Path,
    spans: &Mutex<SpanLog>,
) -> StoreCalls {
    let budget = CheckpointConfig::default().max_bytes;
    let mut hydrate = Vec::new();
    let mut flush = Vec::new();
    let mut calls = StoreCalls::default();
    for i in 0..STORE_REPS {
        let Ok(mut store) = SnapshotStore::open(root, experiment, DEFAULT_STORE_BUDGET) else {
            break;
        };
        let tier = SharedSnapshotTier::new(budget);
        let start = Instant::now();
        let report = store.hydrate(&tier, experiment);
        hydrate.push(ms(start));
        lock(spans).push(
            "store.hydrate",
            ns_at(start),
            probe::now_ns(),
            None,
            i as u32,
        );

        let target = store_root(out, &format!("flush{i}"));
        let Ok(mut copy) = SnapshotStore::open(&target, experiment, DEFAULT_STORE_BUDGET) else {
            break;
        };
        let start = Instant::now();
        copy.flush(&tier, experiment);
        flush.push(ms(start));
        lock(spans).push("store.flush", ns_at(start), probe::now_ns(), None, i as u32);
        let written = copy.stats();
        calls.read_mib = report.bytes as f64 / MIB;
        calls.disk_mib = written.store_bytes as f64 / MIB;
        calls.dedup_hits = written.dedup_hits as f64;
        calls.quarantined_blobs =
            (store.stats().quarantined_blobs + written.quarantined_blobs) as f64;
        let _ = std::fs::remove_dir_all(target);
    }
    calls.hydrate_ms = median(&hydrate);
    calls.flush_ms = median(&flush);
    calls
}

/// A seeded sample of up to `count` distinct plans.
fn sample_plans(plans: &[FaultPlan], count: usize, seed: u64) -> Vec<FaultPlan> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5ad0_3e71);
    let mut pool: Vec<usize> = (0..plans.len()).collect();
    let mut picked = Vec::new();
    while picked.len() < count && !pool.is_empty() {
        let i = rng.index(pool.len());
        picked.push(plans[pool.swap_remove(i)].clone());
    }
    picked
}

/// Sums one counter over a repetition's runners.
fn stat_sum(rep: &Rep, f: impl Fn(&avis::CheckpointStats) -> f64) -> f64 {
    rep.stats.iter().map(f).sum()
}

pub fn run(
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> (Vec<(&'static str, f64)>, Tally) {
    let clock_ns = probe::clock_read_ns();
    // Two reference runs: the faster one's wall time is the base of
    // `speed_stack.cold_ratio`, as the campaign side is a minimum too.
    let reference = Reference::compute(inputs);
    let cold_wall = reference.wall_s.min(Reference::compute(inputs).wall_s);
    let spans = Arc::new(Mutex::new(SpanLog::default()));

    // 1. Untraced baseline.
    let plain = run_for(inputs, out, seconds / 2.0, 2);

    // 2. Traced repetitions; the first keeps its traces, plans and store.
    let mut traced: Vec<Option<Rep>> = Vec::new();
    let mut store_calls = StoreCalls::default();
    let started = Instant::now();
    while traced.len() < 2 || started.elapsed().as_secs_f64() < seconds / 2.0 {
        let i = traced.len();
        let root = inputs
            .uses_store
            .then(|| store_root(out, &format!("traced{i}")));
        let span = lock(&spans).open("campaign.rep", None, i as u32);
        let tracing = Tracing {
            spans: Arc::clone(&spans),
            parent: Some(span),
            run: i as u32,
            keep: i == 0,
        };
        let rep = run_rep(inputs, root.as_deref(), Some(&tracing));
        lock(&spans).close(span);
        if let Some(root) = root {
            if i == 0 {
                store_calls = direct_store(&inputs.sessions[0].experiment, &root, out, &spans);
            }
            let _ = std::fs::remove_dir_all(root);
        }
        traced.push(rep);
    }
    let mut tally = Tally::check(plain.iter().chain(&traced), &reference, PROFILING_RUNS);
    let plain_wall = Best::of(&plain).wall_s;
    let traced_wall = Best::of(&traced).wall_s;
    let bugs = reference.bugs();

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let Some(first) = traced.iter().flatten().next() else {
        // Every traced repetition panicked (already failed by the tally):
        // there is nothing to attribute.
        let zeros = crate::PER_LAYER
            .iter()
            .map(|(name, _)| (*name, 0.0))
            .collect();
        return (zeros, tally);
    };
    // 3. Monitor: each session's own monitor, re-calibrated on its
    // profiling traces, re-checks that session's committed traces.
    let mut calibrate = Vec::new();
    let mut monitors = Vec::new();
    for (s, session) in inputs.sessions.iter().enumerate() {
        let mut profiler = ExperimentRunner::new(session.experiment.clone());
        let profiling: Vec<_> = (0..PROFILING_RUNS as u64)
            .map(|i| profiler.run_profiling(i).trace)
            .collect();
        for i in 0..CALIBRATIONS {
            let start = Instant::now();
            let monitor = InvariantMonitor::calibrate(profiling.clone(), MonitorConfig::default());
            calibrate.push(ms(start));
            lock(&spans).push(
                "monitor.calibrate",
                ns_at(start),
                probe::now_ns(),
                None,
                s as u32,
            );
            if i + 1 == CALIBRATIONS {
                monitors.push(monitor);
            }
        }
    }
    let mut check_us = Vec::new();
    let mut verdict_mismatches = 0;
    let committed = first
        .sessions
        .iter()
        .map(|s| s.probe.committed.len())
        .sum::<usize>();
    while committed > 0 && check_us.len() < CHECK_SAMPLES {
        for (monitor, session) in monitors.iter().zip(&first.sessions) {
            for (trace, is_unsafe) in &session.probe.committed {
                let start = Instant::now();
                let violations = monitor.check(trace);
                check_us.push(start.elapsed().as_secs_f64() * 1e6);
                if violations.is_empty() == *is_unsafe {
                    verdict_mismatches += 1;
                }
            }
        }
    }

    // 5. Shadow replay of a seeded sample of the committed plans, each
    // checked against a cold `run_with_plan`, then more cold runs for the
    // scenario-time distribution.
    let plans: Vec<FaultPlan> = first
        .sessions
        .iter()
        .flat_map(|s| s.stamps.plans.iter().map(|(p, _)| p.clone()))
        .collect();
    let experiment = &inputs.sessions[0].experiment;
    let mut cold_cfg = experiment.clone();
    cold_cfg.checkpoints = CheckpointConfig::disabled();
    let mut cold = ExperimentRunner::new(cold_cfg);
    let mut layers = LayerTimes::default();
    let mut scenario_ms = Vec::new();
    let mut cold_ticks = 0.0;
    let mut cold_ns = 0.0;
    let mut replay_mismatches = 0;
    let mut cold_run = |plan: FaultPlan, run: u32| {
        let start = Instant::now();
        let result = cold.run_with_plan(plan);
        let elapsed = start.elapsed();
        lock(&spans).push("runner.cold_run", ns_at(start), probe::now_ns(), None, run);
        scenario_ms.push(elapsed.as_secs_f64() * 1e3);
        cold_ns += elapsed.as_nanos() as f64;
        cold_ticks += (result.simulated_seconds / experiment.dt).round();
        result
    };
    let sample = sample_plans(&plans, REPLAYED_PLANS, seed);
    for (i, plan) in sample.iter().enumerate() {
        let start = Instant::now();
        let replayed = shadow::replay(
            experiment,
            plan.clone(),
            Stepper::Scalar,
            TIMED_EVERY,
            &mut layers,
        );
        lock(&spans).push(
            "shadow.replay",
            ns_at(start),
            probe::now_ns(),
            None,
            i as u32,
        );
        if replayed != cold_run(plan.clone(), i as u32) {
            replay_mismatches += 1;
        }
    }
    let cold_start = Instant::now();
    let mut next = 0;
    while !plans.is_empty()
        && next < COLD_SAMPLES.saturating_sub(sample.len())
        && cold_start.elapsed().as_secs_f64() < COLD_SECONDS
    {
        cold_run(
            plans[next % plans.len()].clone(),
            (sample.len() + next) as u32,
        );
        next += 1;
    }

    // The lockstep stepper, per lane, on the golden flight; each lane
    // replay must equal the scalar run too.
    let golden = cold_run(FaultPlan::empty(), u32::MAX);
    let mut lane_ns = [0.0; 2];
    for (slot, lanes) in [1usize, 4].into_iter().enumerate() {
        let mut times = LayerTimes::default();
        let replayed = shadow::replay(
            experiment,
            FaultPlan::empty(),
            Stepper::Lanes(lanes),
            4,
            &mut times,
        );
        if replayed != golden {
            replay_mismatches += 1;
        }
        lane_ns[slot] = median(&times.sim) / lanes as f64;
    }
    if replay_mismatches + verdict_mismatches > 0 {
        eprintln!(
            "perfbench: shadow replay differs from the runner on {replay_mismatches} plan(s); \
             monitor verdict differs on {verdict_mismatches} trace(s)"
        );
        tally.mismatched += 1;
        tally.failed = tally.attempted;
    }
    // A quarantined store blob costs a warm start: one failed scenario.
    tally.failed = (tally.failed + store_calls.quarantined_blobs as u64).min(tally.attempted);

    // Strategy and engine, over every traced repetition.
    let sessions: Vec<_> = traced.iter().flatten().flat_map(|r| &r.sessions).collect();
    let sum_acc = |f: fn(&probe::StrategyProbe) -> Acc| {
        sessions.iter().fold(Acc::default(), |mut total, s| {
            let acc = f(&s.probe);
            total.ns += acc.ns;
            total.calls += acc.calls;
            total
        })
    };
    let per_rep_calls = |f: fn(&probe::StrategyProbe) -> Acc| {
        first
            .sessions
            .iter()
            .map(|s| f(&s.probe).calls as f64)
            .sum::<f64>()
    };
    let (propose, decide, observe, admission) = (
        sum_acc(|p| p.propose),
        sum_acc(|p| p.decide),
        sum_acc(|p| p.observe),
        sum_acc(|p| p.admission),
    );
    let initialize_ms = median(
        &sessions
            .iter()
            .map(|s| s.probe.initialize_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let pruned: f64 = first
        .sessions
        .iter()
        .map(|s| (s.result.symmetry_pruned + s.result.found_bug_pruned) as f64)
        .sum();
    let pruned_share = pruned / (pruned + first.scenarios() as f64).max(1.0);
    let gaps: Vec<f64> = sessions
        .iter()
        .flat_map(|s| {
            s.stamps
                .commits
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        })
        .collect();
    let speculated: f64 = sessions.iter().map(|s| s.probe.speculated as f64).sum();
    let skipped: f64 = sessions
        .iter()
        .map(|s| s.probe.speculated_skipped as f64)
        .sum();

    // Snapshot tiers, from the first traced repetition's runners.
    let forked = stat_sum(first, |s| s.forked_runs as f64);
    let cold_runs = stat_sum(first, |s| s.cold_runs as f64);
    let shared_hits = stat_sum(first, |s| s.shared_hits as f64);
    let skipped_s = stat_sum(first, |s| s.simulated_seconds_skipped);
    let charged: f64 = first
        .sessions
        .iter()
        .map(|s| s.result.cost_seconds - s.stamps.profiling.1)
        .sum();
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let step = Dist::of(layers.sim.clone());
    let scenario = Dist::of(scenario_ms);
    let check = Dist::of(check_us);
    let gap = Dist::of(gaps);
    let plain_search = |f: &dyn Fn(&Rep) -> Option<f64>| median_of(&plain, f);
    println!("distributions:");
    println!("  sim.step_ns          {}", step.describe("ns"));
    println!("  runner.scenario_ms   {}", scenario.describe("ms"));
    println!("  monitor.check_us     {}", check.describe("us"));
    println!("  engine.commit_gap_ms {}", gap.describe("ms"));
    println!(
        "tracing: clock read {clock_ns:.1} ns; campaign wall {traced_wall:.4} s traced vs {plain_wall:.4} s untraced; \
         shadow replay timed {} of {} ticks; {} spans",
        layers.timed_ticks,
        layers.ticks,
        lock(&spans).len()
    );
    println!("reference (cold, scalar, serial) {cold_wall:.3} s; bugs in reference: {bugs:?}");

    metrics.extend([
        ("sim.step_ns.p50", step.p50),
        ("sim.step_ns.p90", step.p90),
        ("sim.step_ns.n", step.n as f64),
        ("sim.lane1_step_ns", lane_ns[0]),
        ("sim.lane4_step_ns", lane_ns[1]),
        ("firmware.step_ns", layers.per_tick_ns(layers.firmware_step)),
        ("firmware.msg_ns", layers.per_tick_ns(layers.firmware_msg)),
        ("link.tick_ns", layers.per_tick_ns(layers.link)),
        ("workload.tick_ns", layers.per_tick_ns(layers.workload)),
        ("protocol.tick_ns", layers.per_tick_ns(layers.protocol)),
        ("runner.scenario_ms.p50", scenario.p50),
        ("runner.scenario_ms.p90", scenario.p90),
        ("runner.scenario_ms.n", scenario.n as f64),
        ("runner.tick_ns", share(cold_ns, cold_ticks)),
        (
            "runner.unattributed_share",
            layers.unattributed_share(clock_ns),
        ),
        ("snapshot.fork_share", share(forked, forked + cold_runs)),
        ("snapshot.skipped_share", share(skipped_s, charged)),
        ("snapshot.mean_fork_depth_s", share(skipped_s, forked)),
        (
            "snapshot.cached_mib",
            stat_sum(first, |s| s.cached_bytes as f64) / MIB,
        ),
        (
            "snapshot.evicted",
            stat_sum(first, |s| s.snapshots_evicted as f64),
        ),
        (
            "snapshot.quarantined",
            stat_sum(first, |s| s.quarantined as f64),
        ),
        ("store.hydrate_ms", store_calls.hydrate_ms),
        ("store.flush_ms", store_calls.flush_ms),
        ("store.read_mib", store_calls.read_mib),
        ("store.disk_mib", store_calls.disk_mib),
        ("store.dedup_hits", store_calls.dedup_hits),
        ("store.quarantined_blobs", store_calls.quarantined_blobs),
        ("monitor.calibrate_ms", median(&calibrate)),
        ("monitor.check_us.p50", check.p50),
        ("monitor.check_us.p90", check.p90),
        ("monitor.check_us.n", check.n as f64),
        ("strategy.initialize_ms", initialize_ms),
        ("strategy.propose_us", propose.mean_us()),
        ("strategy.propose_calls", per_rep_calls(|p| p.propose)),
        ("strategy.decide_us", decide.mean_us()),
        ("strategy.decide_calls", per_rep_calls(|p| p.decide)),
        ("strategy.observe_us", observe.mean_us()),
        ("strategy.observe_calls", per_rep_calls(|p| p.observe)),
        ("strategy.admission_us", admission.mean_us()),
        ("strategy.admission_calls", per_rep_calls(|p| p.admission)),
        ("strategy.pruned_share", pruned_share),
        (
            "search.first_unsafe_s",
            plain_search(&|r| r.first_unsafe_s()),
        ),
        ("search.all_bugs_s", plain_search(&|r| r.all_bugs_s(&bugs))),
        ("engine.commit_gap_ms.p50", gap.p50),
        ("engine.commit_gap_ms.p90", gap.p90),
        ("engine.commit_gap_ms.n", gap.n as f64),
        ("engine.speculation_waste", share(skipped, speculated)),
        (
            "engine.local_hit_share",
            share(forked - shared_hits, forked),
        ),
        ("speed_stack.cold_ratio", share(cold_wall, plain_wall)),
        ("trace.overhead_share", share(traced_wall, plain_wall) - 1.0),
        ("trace.clock_ns", clock_ns),
    ]);

    let path = out.join(format!("spans-{}-{seed}.jsonl", inputs.workload.name()));
    if let Err(e) = lock(&spans).write(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    } else {
        println!("spans written to {}", path.display());
    }
    (metrics, tally)
}
