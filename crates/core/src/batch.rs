//! The run loop. Every run in this crate — a profiling flight, one
//! fault-injection scenario, or a batch of sibling scenarios advanced in
//! lockstep — steps through [`ExperimentRunner::execute`], the
//! `RunExperiment` procedure of Algorithm 1 and the step loop of Figure 7.
//!
//! One call flies 1..N plans sharing a seed offset. The engine hands a
//! worker whole prefix families — plans that share an injection prefix
//! (see [`crate::engine`]); those plans execute identical state
//! evolutions until their first divergent failure fires, and the loop
//! exploits exactly that window:
//!
//! - The **leader** — the plan whose first divergence from the plans'
//!   common intersection is latest (ties break to the lowest index) — is
//!   provisioned once: it forks from the deepest cut in the runner's
//!   snapshot cache at or before the earliest lane-fork time, or restores
//!   the experiment's genesis snapshot at `t = 0`. It is the only lane
//!   that records cuts, exactly as a lone run of its plan would. The
//!   resume lookup is capped because lane forks are taken from the
//!   *live* leader at loop tops — a deeper cut would skip state a sibling
//!   still needs. The call buffers its cuts and commits them to the cache
//!   in one step when it returns, so a call that panics publishes none.
//! - Every other lane is **virtual** until its divergence time: its state
//!   is the leader's, so nothing is simulated for it. At the first loop
//!   top at or past its divergence time it **forks from the leader** —
//!   the capture-and-restore a checkpoint fork uses, with the plan swapped
//!   at restore — and becomes a live lane.
//! - A live lane stays batched until it **retires**: its post-terminal
//!   grace period elapses, a watchdog trips, or simulated time runs out.
//!   A lane whose mode or arming departs the leader's keeps stepping with
//!   the batch; the shared-noise invariant of [`LaneBatch`] keeps it
//!   bit-identical to its lone run however far the states diverge.
//! - A lane that has not forked when the leader retires never will (no
//!   fault its plan disagrees on ever fired) and rides the leader's
//!   result.
//!
//! The physics kernel is picked once per call by plan count: a single
//! plan steps the scalar [`Simulator`], two or more step one SoA
//! [`LaneBatch`]. A 1-lane batch costs measurably more per tick than the
//! scalar stepper (`batched_lockstep.lane1_step_ratio` in
//! `BENCH_campaign.json`), so lone runs keep the scalar one.
//!
//! Batching is bit-identical to lone execution by construction: the SoA
//! stepper is byte-equivalent to [`Simulator::step_into`] per lane (tested
//! in `avis-sim`), all lanes share one experiment seed so their lone runs
//! would consume identical sensor-noise streams at equal simulated time,
//! and forks reuse the snapshot-cut argument from [`crate::snapshot`] (a
//! failure scheduled at `t` first fires at the firmware step at `t`, after
//! a fork taken at loop-top time `t`). Like checkpointing, it is purely a
//! speed knob and is excluded from the experiment fingerprint.

use crate::protocol::ProtocolTracker;
use crate::runner::{ExperimentConfig, ExperimentRunner, RunResult, RunVerdict};
use crate::snapshot::{injection_prefix, ChainParent, RunSnapshot};
use crate::trace::{transition_from_code, ModeTransition, StateSample, Trace};
use avis_firmware::{BugId, Firmware};
use avis_hinj::{FaultPlan, FaultyLink, LinkSnapshot, SharedInjector};
use avis_mavlite::{Endpoint, Message};
use avis_sim::simulator::{SimSnapshot, Simulator, StepOutput};
use avis_sim::{Collision, CowVec, LaneBatch, MotorCommands};
use avis_workload::{ScriptedWorkload, WorkloadStatus};

/// How often (in lock-step iterations) the wall-clock backstop is
/// consulted — coarse on purpose, so the hot loop never syscalls per step.
const WALL_CLOCK_STRIDE: u64 = 4096;

/// The physics kernel behind the run loop, picked once per call by plan
/// count.
enum Physics {
    /// One plan: [`Simulator::step_into`] into one output buffer.
    Scalar(Simulator, StepOutput),
    /// Two or more plans: one SoA [`LaneBatch`] over every live lane.
    Lanes(LaneBatch),
}

impl Physics {
    /// Wraps the leader's simulator, returning the kernel and the
    /// leader's lane id.
    fn new(sim: Simulator, output: StepOutput, plans: usize) -> (Self, u64) {
        if plans == 1 {
            (Physics::Scalar(sim, output), 0)
        } else {
            let (batch, lane) = LaneBatch::from_simulator(sim, output);
            (Physics::Lanes(batch), lane)
        }
    }

    fn time(&self) -> f64 {
        match self {
            Physics::Scalar(sim, _) => sim.time(),
            Physics::Lanes(batch) => batch.time(),
        }
    }

    fn output(&self, lane: u64) -> &StepOutput {
        match self {
            Physics::Scalar(_, output) => output,
            Physics::Lanes(batch) => batch.output(lane),
        }
    }

    fn snapshot(&self, lane: u64) -> SimSnapshot {
        match self {
            Physics::Scalar(sim, _) => sim.snapshot(),
            Physics::Lanes(batch) => batch.lane_snapshot(lane),
        }
    }

    /// Adds a lane as a bit-exact copy of `lane`, returning its id.
    fn fork(&mut self, lane: u64) -> u64 {
        match self {
            Physics::Scalar(..) => unreachable!("a single-plan run has no lane to fork"),
            Physics::Lanes(batch) => batch.clone_lane(lane),
        }
    }

    /// Advances every lane one step; `commands[i]` drives the lane in
    /// slot `i`.
    fn step(&mut self, commands: &[MotorCommands]) {
        match self {
            Physics::Scalar(sim, output) => sim.step_into(&commands[0], output),
            Physics::Lanes(batch) => batch.step_lanes(commands),
        }
    }

    /// Takes `lane` out of the kernel, returning its first collision.
    fn retire(&mut self, lane: u64) -> Option<Collision> {
        match self {
            Physics::Scalar(sim, _) => sim.first_collision(),
            Physics::Lanes(batch) => batch.extract_lane(lane).0.first_collision(),
        }
    }
}

/// Everything one lane owns besides its physics: the firmware instance,
/// the fault shims, the protocol tracker, the workload script and the
/// trace-in-progress — the non-`sim` fields of a [`RunSnapshot`].
struct LaneCtx {
    /// Position of this lane's plan in the call's plan list.
    index: usize,
    /// The lane's id inside the physics kernel.
    lane: u64,
    injector: SharedInjector,
    firmware: Firmware,
    link: FaultyLink,
    tracker: ProtocolTracker,
    workload: ScriptedWorkload,
    samples: CowVec<StateSample>,
    fence_violations: usize,
    next_sample_time: f64,
    workload_status: WorkloadStatus,
    terminal_since: Option<f64>,
}

impl LaneCtx {
    /// Restores a lane from a cut — a checkpoint, a capture of the
    /// leader, or the genesis snapshot — with `plan` swapped into both
    /// fault shims. Returns the lane (id 0 until the kernel assigns one)
    /// with its simulator and last step output.
    fn restore(
        snapshot: RunSnapshot,
        plan: FaultPlan,
        index: usize,
    ) -> (Self, Simulator, StepOutput) {
        let RunSnapshot {
            sim,
            firmware,
            injector,
            link,
            tracker,
            workload,
            samples,
            output,
            fence_violations,
            next_sample_time,
            workload_status,
            terminal_since,
            ..
        } = snapshot;
        let link = link.into_restored_with_plan(plan.link_plan().clone());
        let injector = SharedInjector::new(injector.into_restored_with_plan(plan));
        let firmware = firmware.into_restored(injector.clone());
        let ctx = LaneCtx {
            index,
            lane: 0,
            injector,
            firmware,
            link,
            tracker,
            workload,
            samples,
            fence_violations,
            next_sample_time,
            workload_status,
            terminal_since,
        };
        (ctx, sim.into_restored(), output)
    }

    /// Captures the lane at loop-top `time`, before that step's
    /// exchange, firmware step and physics step — the one capture behind
    /// both a checkpoint cut and a lane fork. The sample tail is sealed
    /// into a shared chunk, so the capture shares the history with the
    /// lane structurally: O(1) in the run length.
    fn capture(&mut self, physics: &Physics, time: f64) -> RunSnapshot {
        RunSnapshot {
            sim: physics.snapshot(self.lane),
            firmware: self.firmware.snapshot(),
            injector: self.injector.snapshot(),
            link: LinkSnapshot::capture(&self.link),
            tracker: self.tracker.clone(),
            workload: self.workload.clone(),
            samples: self.samples.sealed_clone(),
            output: physics.output(self.lane).clone(),
            fence_violations: self.fence_violations,
            next_sample_time: self.next_sample_time,
            workload_status: self.workload_status.clone(),
            terminal_since: self.terminal_since,
            time,
            prefix: injection_prefix(&self.injector.plan(), time),
        }
    }

    /// One ground-station exchange, both legs crossing the lane's fault
    /// shim: vehicle telemetry travels to the GCS, workload commands
    /// travel back — dropped, duplicated, reordered, corrupted, delayed
    /// or stormed as the link plan dictates. The tracker records what the
    /// workload *sent*, before the shim decides what survives. Returns
    /// `true` when the grace period after a terminal workload status has
    /// elapsed: the lane then finishes before stepping.
    fn exchange(&mut self, outbox: &mut Vec<Message>, time: f64, grace_period: f64) -> bool {
        self.firmware.drain_outbox_into(outbox);
        for msg in outbox.iter() {
            self.link.send(Endpoint::Vehicle, msg, time);
        }
        let telemetry = self.link.deliver(Endpoint::GroundStation, time);
        self.tracker
            .note_delivered(&telemetry, time, self.firmware.mission().items());
        let (commands, status) = self.workload.tick(&telemetry, time);
        for msg in &commands {
            self.tracker.note_sent(msg, time);
            self.link.send(Endpoint::GroundStation, msg, time);
        }
        let inbound = self.link.deliver(Endpoint::Vehicle, time);
        self.firmware.handle_messages(inbound.iter());
        self.workload_status = status;
        if self.workload_status.is_terminal() {
            let since = *self.terminal_since.get_or_insert(time);
            if time - since >= grace_period {
                return true;
            }
        }
        false
    }

    /// Post-physics bookkeeping for one step: fence-violation counting
    /// and trace sampling, against the loop-top `time`.
    fn post_step(&mut self, output: &StepOutput, time: f64, sample_interval: f64) {
        if !output.violated_fences.is_empty() {
            self.fence_violations += 1;
        }
        if time >= self.next_sample_time {
            self.samples.push(StateSample {
                time,
                position: output.state.position,
                acceleration: output.state.acceleration,
                mode: self.firmware.mode(),
            });
            self.next_sample_time += sample_interval;
        }
    }

    /// Assembles the lane's [`RunResult`] at simulated time `duration`.
    fn finish(
        self,
        duration: f64,
        collision: Option<Collision>,
        sample_interval: f64,
        verdict: RunVerdict,
    ) -> RunResult {
        let mode_transitions: Vec<ModeTransition> = self
            .injector
            .mode_transitions()
            .into_iter()
            .filter_map(|r| transition_from_code(r.time, r.to))
            .collect();
        let trace = Trace {
            sample_interval,
            samples: self.samples.into_vec(),
            mode_transitions,
            collision,
            fence_violations: self.fence_violations,
            workload_status: self.workload_status,
            duration,
            protocol: self.tracker.into_events(),
        };
        let mut triggered_defects: Vec<BugId> = self
            .firmware
            .defect_log()
            .iter()
            .flat_map(|(_, o)| o.active.iter().copied())
            .collect();
        triggered_defects.sort_unstable();
        triggered_defects.dedup();
        // The injector owned the plan for the duration of the run; take
        // it back rather than cloning it up front.
        RunResult {
            plan: self.injector.take_plan(),
            trace,
            simulated_seconds: duration,
            triggered_defects,
            verdict,
        }
    }
}

/// The plans of one call: which one leads, which lanes still wait to
/// fork from it, and which results are in.
struct Roster {
    plans: Vec<FaultPlan>,
    /// Index of the leader's plan.
    leader: usize,
    /// Lanes that have not forked yet, as `(divergence time, plan
    /// index)` in fork order. A plan that never diverges from the common
    /// intersection (it equals the leader's) waits at `f64::INFINITY`; a
    /// plan whose divergence time is NaN forks at the first loop top.
    pending: Vec<(f64, usize)>,
    /// Finished results, by plan index.
    done: Vec<(usize, RunResult)>,
}

impl Roster {
    /// The plan algebra: the plans' common intersection, each plan's
    /// first divergence from it, and the leader (latest divergence, ties
    /// to the lowest index).
    fn new(plans: Vec<FaultPlan>) -> Self {
        let common = plans
            .iter()
            .skip(1)
            .fold(plans[0].clone(), |acc, p| acc.intersection(p));
        // A strategy may propose any failure time, NaN included. A NaN
        // divergence orders against nothing, so such a lane forks at the
        // first loop top, where a fork equals a cold start of its plan.
        let divergence: Vec<f64> = plans
            .iter()
            .map(|p| match p.first_divergence_from(&common) {
                Some(d) if d.is_nan() => f64::NEG_INFINITY,
                Some(d) => d,
                None => f64::INFINITY,
            })
            .collect();
        let mut leader = 0;
        for (i, &d) in divergence.iter().enumerate() {
            if d > divergence[leader] {
                leader = i;
            }
        }
        let mut pending: Vec<(f64, usize)> = divergence
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| i != leader)
            .map(|(i, d)| (d, i))
            .collect();
        // Stable: ties keep plan order.
        pending.sort_by(|a, b| a.0.total_cmp(&b.0));
        Roster {
            done: Vec::with_capacity(plans.len()),
            plans,
            leader,
            pending,
        }
    }

    /// Takes `ctx` out of the physics and files its result. When the
    /// leader retires, every lane that has not forked yet never will:
    /// no fault its plan disagrees on ever fired, so its result is the
    /// leader's with its own plan.
    fn retire(
        &mut self,
        ctx: LaneCtx,
        physics: &mut Physics,
        verdict: RunVerdict,
        sample_interval: f64,
    ) {
        let collision = physics.retire(ctx.lane);
        let index = ctx.index;
        let result = ctx.finish(physics.time(), collision, sample_interval, verdict);
        if index == self.leader {
            for (_, idx) in self.pending.drain(..) {
                let mut rider = result.clone();
                rider.plan = self.plans[idx].clone();
                self.done.push((idx, rider));
            }
        }
        self.done.push((index, result));
    }

    /// The results in plan order.
    fn into_results(mut self) -> Vec<RunResult> {
        debug_assert_eq!(self.done.len(), self.plans.len(), "every plan settles once");
        self.done.sort_unstable_by_key(|&(index, _)| index);
        self.done.into_iter().map(|(_, result)| result).collect()
    }
}

/// When the leader records checkpoint cuts. An injection run cuts at
/// every multiple of the checkpoint interval strictly after its resume
/// time, so a forked run extends the tree instead of re-recording the
/// chain it resumed from. A profiling run records exactly one cut, at
/// the first loop top after its workload turns terminal, so a later
/// profiling run at the same seed offset forks from it and flies only the
/// grace tail (a run resumed from that cut is terminal already and
/// records nothing).
struct CutSchedule {
    interval: f64,
    next: f64,
    terminal: bool,
}

impl CutSchedule {
    /// Whether the leader cuts at loop-top `time`; a due cut moves the
    /// schedule past it.
    fn take(&mut self, time: f64, status: &WorkloadStatus) -> bool {
        let terminal_due = self.terminal && status.is_terminal();
        if !(time >= self.next || terminal_due) {
            return false;
        }
        while time >= self.next {
            self.next += self.interval;
        }
        self.terminal = false;
        true
    }
}

impl ExperimentRunner {
    /// The run loop: flies `plans` (sharing `seed_offset`) from one
    /// provisioned leader and returns one result per plan, in input
    /// order, each bit-identical to a cold lone run of its plan. See the
    /// module docs for the lane lifecycle. Per loop top the phases run in
    /// this order: lane forks, watchdogs, the leader's checkpoint cut,
    /// ground-station exchange (lanes whose grace period elapsed retire
    /// here), firmware steps, one physics step, trace sampling. The
    /// leader's cuts are committed to the cache after the loop.
    pub(crate) fn execute(&mut self, plans: Vec<FaultPlan>, seed_offset: u64) -> Vec<RunResult> {
        if plans.is_empty() {
            return Vec::new();
        }
        self.runs += plans.len() as u64;
        self.step_cursor = 0;
        // The wall-clock watchdog baseline, compared coarsely (every
        // `WALL_CLOCK_STRIDE` iterations); see
        // [`crate::runner::WatchdogConfig::wall_clock_seconds`] for why
        // this cannot perturb a deterministic run.
        let started = self
            .config
            .watchdog
            .wall_clock_seconds
            // avis-lint: allow(d1, reason = "wall-clock watchdog backstop: only ever converts a hung substrate into RunVerdict::Diverged, never observed by a terminating run")
            .map(|_| std::time::Instant::now());
        let ExperimentConfig {
            dt,
            max_duration,
            sample_interval,
            grace_period,
            watchdog,
            ..
        } = self.config;
        let mut roster = Roster::new(plans);
        let fork_cap = roster.pending.first().map_or(f64::INFINITY, |&(d, _)| d);

        // A profiling run (seed offset ≠ 0) has a sensor-noise seed of
        // its own, so no other run of its campaign resumes from its
        // state: it records only the one terminal cut a later campaign
        // over the same experiment forks from (see `CutSchedule`). A
        // tripped checksum breaker (`SnapshotCache::degraded`) forces
        // cold execution for the rest of the cache's life.
        let profiling = seed_offset != 0;
        let checkpointing = self.config.checkpoints.enabled && !self.checkpointing_degraded();

        // Provision the leader: fork from the deepest cut its plan may
        // resume from, or restore the genesis snapshot — the cold start.
        // Either way the leader's plan is swapped in at restore.
        let fork = if checkpointing {
            self.take_deepest_cut(seed_offset, &roster.plans[roster.leader], fork_cap)
        } else {
            None
        };
        let (snapshot, chain_parent) = match fork {
            Some(fork) => fork,
            None => {
                if checkpointing {
                    self.run_stats.cold_runs += 1;
                }
                (Self::genesis_snapshot(&self.config, seed_offset), None)
            }
        };
        let plan = roster.plans[roster.leader].clone();
        let (mut lead, sim, output) = LaneCtx::restore(snapshot, plan, roster.leader);
        let (mut physics, lane) = Physics::new(sim, output, roster.plans.len());
        lead.lane = lane;

        let interval_cuts = checkpointing && !profiling;
        let interval = self.config.checkpoints.interval;
        let mut cuts = CutSchedule {
            interval,
            next: if interval_cuts {
                (physics.time() / interval).floor() * interval + interval
            } else {
                f64::INFINITY
            },
            terminal: checkpointing && profiling && !lead.workload_status.is_terminal(),
        };

        // The leader's cuts, committed to the cache when the loop ends.
        let mut recorded: Vec<RunSnapshot> = Vec::new();
        // Live lanes in the kernel's slot order: a lane joins at the end
        // of both, and retiring swap-removes it from both.
        let mut ctxs: Vec<LaneCtx> = Vec::with_capacity(roster.plans.len());
        ctxs.push(lead);
        // Reused per iteration, so steady state allocates nothing.
        let mut outbox: Vec<Message> = Vec::new();
        let mut commands: Vec<MotorCommands> = Vec::with_capacity(roster.plans.len());
        let verdict = loop {
            let time = physics.time();
            if time >= max_duration {
                break RunVerdict::Completed;
            }

            // Fork every lane whose divergence time has arrived, while
            // the leader is live to fork from (its retirement settles the
            // rest). A fork at loop-top `time` is the exact state a lone
            // run of the lane's plan would hold here: every fault the two
            // plans disagree on is scheduled at or after this loop top.
            while roster.pending.first().is_some_and(|&(d, _)| time >= d) {
                let Some(li) = ctxs.iter().position(|c| c.index == roster.leader) else {
                    break;
                };
                let (_, index) = roster.pending.remove(0);
                let cut = ctxs[li].capture(&physics, time);
                let (mut forked, _, _) = LaneCtx::restore(cut, roster.plans[index].clone(), index);
                forked.lane = physics.fork(ctxs[li].lane);
                ctxs.push(forked);
            }

            // Scenario watchdogs, shared by every lane. The step cursor
            // derives from *simulated* time, so the step budget trips at
            // the identical simulated state cold or forked, at any
            // parallelism. It also survives on the runner across a panic
            // unwind, which is how `run_batch_contained` learns the crash
            // step.
            self.step_cursor = (time / dt).round() as u64;
            if watchdog.max_steps.is_some_and(|m| self.step_cursor >= m) {
                break RunVerdict::Diverged;
            }
            if let (Some(limit), Some(started)) = (watchdog.wall_clock_seconds, started) {
                if self.step_cursor.is_multiple_of(WALL_CLOCK_STRIDE)
                    && started.elapsed().as_secs_f64() > limit
                {
                    break RunVerdict::Diverged;
                }
            }

            // The leader's checkpoint cut, at the top of the loop body.
            if let Some(lead) = ctxs.iter_mut().find(|c| c.index == roster.leader) {
                if cuts.take(time, &lead.workload_status) {
                    recorded.push(lead.capture(&physics, time));
                }
            }

            // Ground-station exchange per lane; a lane whose grace period
            // elapsed retires before stepping.
            let mut slot = 0;
            while slot < ctxs.len() {
                if ctxs[slot].exchange(&mut outbox, time, grace_period) {
                    let ctx = ctxs.swap_remove(slot);
                    roster.retire(ctx, &mut physics, RunVerdict::Completed, sample_interval);
                } else {
                    slot += 1;
                }
            }
            if ctxs.is_empty() {
                break RunVerdict::Completed;
            }

            // Firmware control step per lane, then one physics + sensor
            // step for every lane, then trace bookkeeping against the
            // loop-top time.
            commands.clear();
            for ctx in ctxs.iter_mut() {
                let readings = &physics.output(ctx.lane).readings;
                commands.push(ctx.firmware.step(readings, time, dt));
            }
            physics.step(&commands);
            for ctx in ctxs.iter_mut() {
                ctx.post_step(physics.output(ctx.lane), time, sample_interval);
            }
        };

        // Every lane still flying ends with the loop's verdict: completed
        // at the duration cap, diverged when a watchdog tripped.
        for ctx in ctxs {
            roster.retire(ctx, &mut physics, verdict.clone(), sample_interval);
        }
        if !recorded.is_empty() {
            self.cache.lock().commit(
                seed_offset,
                &recorded,
                chain_parent.as_ref(),
                self.config.checkpoints.keyframe_stride,
                self.origin,
            );
        }
        roster.into_results()
    }

    /// The deepest cut a run of `plan` may resume from, at or before
    /// `cap`, plus the chain context its first cut is diffed against (kept
    /// only when the keyframe stride lets a cut be a delta). A forked run
    /// is bit-identical to a cold one: the restored state is the exact
    /// state a cold run of this plan would reach at the fork time,
    /// because the plans agree on every failure scheduled before it (see
    /// [`crate::snapshot`]). A corrupt chain is quarantined inside the
    /// cache and `None` comes back — the run then cold-starts, which is
    /// always correct, just slower.
    fn take_deepest_cut(
        &mut self,
        seed_offset: u64,
        plan: &FaultPlan,
        cap: f64,
    ) -> Option<(RunSnapshot, Option<ChainParent>)> {
        let (parent, origin) = self.cache.lock().take_deepest(seed_offset, plan, cap)?;
        self.run_stats.forked_runs += 1;
        self.run_stats.simulated_seconds_skipped += parent.snapshot.time();
        if origin != self.origin {
            self.run_stats.shared_hits += 1;
        }
        if self.config.checkpoints.keyframe_stride > 1 {
            Some((parent.snapshot.clone(), Some(parent)))
        } else {
            Some((parent.snapshot, None))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentConfig;
    use crate::snapshot::CheckpointConfig;
    use avis_firmware::{BugSet, FirmwareProfile, OperatingMode};
    use avis_hinj::{FaultSpec, LinkDirection, LinkFaultKind, LinkFaultSpec};
    use avis_sim::{SensorInstance, SensorKind, SensorNoise};
    use avis_workload::auto_box_mission;

    fn quiet_config() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(
            FirmwareProfile::ArduPilotLike,
            BugSet::current_code_base(FirmwareProfile::ArduPilotLike),
            auto_box_mission(),
        );
        cfg.noise = Some(SensorNoise::noiseless());
        cfg.max_duration = 120.0;
        cfg
    }

    fn gps_plan(time: f64) -> FaultPlan {
        FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Gps, 1),
            time,
        )])
    }

    fn scalar_reference(plans: &[FaultPlan]) -> Vec<RunResult> {
        let mut cfg = quiet_config();
        cfg.checkpoints = CheckpointConfig::disabled();
        let mut runner = ExperimentRunner::new(cfg);
        plans
            .iter()
            .map(|p| runner.run_with_plan(p.clone()))
            .collect()
    }

    #[test]
    fn batched_sweep_is_bit_identical_to_scalar() {
        let plans: Vec<FaultPlan> = [40.0, 48.0, 56.0, 64.0].map(gps_plan).to_vec();
        let reference = scalar_reference(&plans);
        let mut cfg = quiet_config();
        cfg.checkpoints = CheckpointConfig::disabled();
        let mut runner = ExperimentRunner::new(cfg);
        let batched = runner.run_batch_contained(plans);
        assert_eq!(batched, reference, "batched lockstep diverged from scalar");
    }

    #[test]
    fn batched_run_with_checkpointing_matches_cold_scalar() {
        let plans: Vec<FaultPlan> = [35.0, 50.0, 65.0].map(gps_plan).to_vec();
        let reference = scalar_reference(&plans);
        let mut runner = ExperimentRunner::new(quiet_config());
        let batched = runner.run_batch_contained(plans.clone());
        assert_eq!(batched, reference, "checkpoint recording perturbed a lane");
        // The leader's cuts must be forkable by a later scalar run.
        let follow_up = runner.run_with_plan(gps_plan(70.0));
        assert_eq!(follow_up, scalar_reference(&[gps_plan(70.0)])[0]);
        assert!(
            runner.checkpoint_stats().forked_runs >= 1,
            "the follow-up scenario should fork from the batch leader's cuts: {:?}",
            runner.checkpoint_stats()
        );
    }

    #[test]
    fn duplicate_and_identical_plans_ride_the_leader() {
        // Two identical plans: one is the leader, the other is virtual
        // (never diverges from the intersection) and clones the result.
        let plans = vec![gps_plan(45.0), gps_plan(45.0)];
        let reference = scalar_reference(&plans);
        let mut cfg = quiet_config();
        cfg.checkpoints = CheckpointConfig::disabled();
        let mut runner = ExperimentRunner::new(cfg);
        let batched = runner.run_batch_contained(plans);
        assert_eq!(batched, reference);
    }

    #[test]
    fn mixed_sensor_and_link_fault_batch_matches_scalar() {
        let mut link_plan = gps_plan(50.0);
        link_plan.add_link(LinkFaultSpec::new(
            LinkFaultKind::Drop {
                duration: 6.0,
                probability: 0.8,
            },
            LinkDirection::ToVehicle,
            42.0,
        ));
        let plans = vec![
            gps_plan(40.0),
            link_plan,
            gps_plan(60.0),
            FaultPlan::empty(),
        ];
        let reference = scalar_reference(&plans);
        let mut cfg = quiet_config();
        cfg.checkpoints = CheckpointConfig::disabled();
        let mut runner = ExperimentRunner::new(cfg);
        let batched = runner.run_batch_contained(plans);
        assert_eq!(
            batched, reference,
            "link-faulted lane diverged from its scalar run"
        );
    }

    #[test]
    fn early_divergence_forks_at_time_zero() {
        // A plan injecting at t=0 forks at the very first loop-top.
        let plans = vec![gps_plan(0.0), gps_plan(55.0)];
        let reference = scalar_reference(&plans);
        let mut cfg = quiet_config();
        cfg.checkpoints = CheckpointConfig::disabled();
        let mut runner = ExperimentRunner::new(cfg);
        let batched = runner.run_batch_contained(plans);
        assert_eq!(batched, reference);
    }

    #[test]
    fn nan_failure_time_lane_matches_its_lone_run() {
        // A custom strategy may propose a NaN failure time. The fault
        // never fires, yet it differs from every sibling's entry, so the
        // lane's divergence time is NaN: it must fork at once rather
        // than wait forever (or ride a leader that diverges later). The
        // battery failures send their lanes home, so riding the leader
        // would show.
        let battery = |time| {
            FaultPlan::from_specs(vec![FaultSpec::new(
                SensorInstance::new(SensorKind::Battery, 0),
                time,
            )])
        };
        let plans = vec![battery(15.0), battery(30.0), gps_plan(f64::NAN)];
        let reference = scalar_reference(&plans);
        assert_ne!(
            format!("{:?}", reference[1].trace),
            format!("{:?}", reference[2].trace)
        );
        let mut cfg = quiet_config();
        cfg.checkpoints = CheckpointConfig::disabled();
        let mut runner = ExperimentRunner::new(cfg);
        let batched = runner.run_batch_contained(plans);
        // NaN != NaN, so the plans make `==` false even between identical
        // results: compare the renderings instead.
        assert_eq!(format!("{batched:?}"), format!("{reference:?}"));
    }

    #[test]
    fn step_budget_trips_batched_lanes_like_scalar() {
        let plans = vec![gps_plan(30.0), gps_plan(45.0)];
        let mut cfg = quiet_config();
        cfg.checkpoints = CheckpointConfig::disabled();
        cfg.watchdog.max_steps = Some(8_000);
        let mut scalar_runner = ExperimentRunner::new(cfg.clone());
        let reference: Vec<RunResult> = plans
            .iter()
            .map(|p| scalar_runner.run_with_plan(p.clone()))
            .collect();
        assert!(reference.iter().all(|r| r.verdict == RunVerdict::Diverged));
        let mut runner = ExperimentRunner::new(cfg);
        let batched = runner.run_batch_contained(plans);
        assert_eq!(batched, reference);
    }

    #[test]
    fn lanes_leaving_the_leaders_control_path_stay_batched() {
        // One lane collides (APM-16021 with an accelerometer failure just
        // after takeoff) and flies on to the duration cap; one enters a
        // failsafe mode (a battery failure mid-mission returns to
        // launch); the fault-free leader retires between the two. Every
        // lane stays batched until it retires and equals its cold lone
        // run, with checkpoints off and on.
        let mut cfg = quiet_config();
        cfg.bugs = BugSet::only(BugId::Apm16021);
        let mut cold = cfg.clone();
        cold.checkpoints = CheckpointConfig::disabled();
        let mut lone = ExperimentRunner::new(cold.clone());
        let takeoff = lone
            .run_profiling(0)
            .trace
            .mode_transitions
            .iter()
            .find(|t| t.mode == OperatingMode::Takeoff)
            .map(|t| t.time)
            .expect("golden run takes off");
        let accel0 = SensorInstance::new(SensorKind::Accelerometer, 0);
        let battery0 = SensorInstance::new(SensorKind::Battery, 0);
        // The leader is the plan that never diverges, at index 1.
        let plans = vec![
            FaultPlan::from_specs(vec![FaultSpec::new(accel0, takeoff + 4.0)]),
            FaultPlan::empty(),
            FaultPlan::from_specs(vec![FaultSpec::new(battery0, 15.0)]),
        ];
        let reference: Vec<RunResult> = plans
            .iter()
            .map(|p| lone.run_with_plan(p.clone()))
            .collect();
        assert!(reference[0].crashed(), "the APM-16021 lane collides");
        assert!(
            reference[2]
                .trace
                .mode_transitions
                .iter()
                .any(|t| t.mode == OperatingMode::ReturnToLaunch),
            "the battery lane enters its failsafe mode"
        );
        assert!(
            reference[2].simulated_seconds < reference[1].simulated_seconds
                && reference[1].simulated_seconds < reference[0].simulated_seconds,
            "the leader retires after the failsafe lane and before the crashed one"
        );

        let batched = ExperimentRunner::new(cold).run_batch_contained(plans.clone());
        assert_eq!(batched, reference, "cold batch diverged from lone runs");
        // Checkpointed: the second batch forks its leader from the
        // first one's cuts.
        let mut runner = ExperimentRunner::new(cfg);
        for pass in 0..2 {
            let batched = runner.run_batch_contained(plans.clone());
            assert_eq!(batched, reference, "checkpointed batch, pass {pass}");
        }
        assert_eq!(runner.checkpoint_stats().forked_runs, 1);
    }

    #[test]
    fn singleton_batch_falls_back_to_scalar_contained() {
        let mut cfg = quiet_config();
        cfg.checkpoints = CheckpointConfig::disabled();
        let mut runner = ExperimentRunner::new(cfg);
        let batched = runner.run_batch_contained(vec![gps_plan(40.0)]);
        assert_eq!(batched, scalar_reference(&[gps_plan(40.0)]));
    }
}
