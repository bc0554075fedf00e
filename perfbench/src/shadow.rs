//! The shadow replay: re-flies one fault plan through the same public
//! calls `ExperimentRunner::execute` makes on a cold run, timing each
//! layer's calls on every Nth tick. Physics runs either through the
//! scalar `Simulator` or through a `LaneBatch` of identical lanes, so the
//! same loop also measures the lockstep stepper per lane.

use crate::probe::Acc;
use avis::protocol::ProtocolTracker;
use avis::runner::{ExperimentConfig, RunResult, RunVerdict};
use avis::trace::{transition_from_code, ModeTransition, StateSample, Trace};
use avis_firmware::{BugId, Firmware};
use avis_hinj::{FaultInjector, FaultPlan, FaultyLink, SharedInjector};
use avis_mavlite::{Endpoint, Message};
use avis_sim::{Collision, LaneBatch, MotorCommands, SimConfig, SimRng, Simulator, StepOutput};
use std::time::Instant;

/// The runner's salt separating the link shim's RNG stream from the
/// simulator's (mirrors `avis::runner`, where it is crate-private).
const LINK_RNG_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// How the replay steps physics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepper {
    /// `Simulator::step_into`, as the runner's scalar loop.
    Scalar,
    /// `LaneBatch::step_lanes` over this many identical lanes.
    Lanes(usize),
}

/// Layer times gathered on the timed ticks of one or more replays.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Physics step per timed tick (ns, whole batch for lane steppers).
    pub sim: Vec<f64>,
    pub firmware_step: Acc,
    /// `drain_outbox_into` + `handle_messages`.
    pub firmware_msg: Acc,
    /// Both legs of `send` + `deliver`.
    pub link: Acc,
    pub workload: Acc,
    /// `note_delivered` + `note_sent`.
    pub protocol: Acc,
    /// Every loop iteration of every replay.
    pub ticks: u64,
    /// Iterations whose layer calls were timed.
    pub timed_ticks: u64,
    /// Wall time of the replays (ns), set-up to result.
    pub wall_ns: u64,
}

impl LayerTimes {
    /// Estimated share of replay wall time that no timed layer call
    /// covers, scaling the timed ticks up to all ticks. `clock_ns`, the
    /// cost of an empty timed region, is taken off every timed call and
    /// off the replay wall time.
    pub fn unattributed_share(&self, clock_ns: f64) -> f64 {
        if self.timed_ticks == 0 || self.wall_ns == 0 {
            return 0.0;
        }
        let accs = [
            self.firmware_step,
            self.firmware_msg,
            self.link,
            self.workload,
            self.protocol,
        ];
        let calls = (self.sim.len() as u64 + accs.iter().map(|a| a.calls).sum::<u64>()) as f64;
        let timed = self.sim.iter().sum::<f64>() + accs.iter().map(|a| a.ns as f64).sum::<f64>();
        let layers = (timed - calls * clock_ns) * self.ticks as f64 / self.timed_ticks as f64;
        1.0 - layers / (self.wall_ns as f64 - calls * clock_ns)
    }

    /// Mean time per timed tick of one accumulator (ns).
    pub fn per_tick_ns(&self, acc: Acc) -> f64 {
        if self.timed_ticks == 0 {
            0.0
        } else {
            acc.ns as f64 / self.timed_ticks as f64
        }
    }
}

/// Physics behind the replay loop.
enum Physics {
    Scalar(Simulator, StepOutput),
    Lanes {
        batch: LaneBatch,
        lead: u64,
        commands: Vec<MotorCommands>,
    },
}

impl Physics {
    fn output(&self) -> &StepOutput {
        match self {
            Physics::Scalar(_, out) => out,
            Physics::Lanes { batch, lead, .. } => batch.output(*lead),
        }
    }

    fn time(&self) -> f64 {
        match self {
            Physics::Scalar(sim, _) => sim.time(),
            Physics::Lanes { batch, .. } => batch.time(),
        }
    }

    fn step(&mut self, motor: &MotorCommands) {
        match self {
            Physics::Scalar(sim, out) => sim.step_into(motor, out),
            Physics::Lanes {
                batch, commands, ..
            } => {
                commands.fill(*motor);
                batch.step_lanes(commands);
            }
        }
    }

    fn first_collision(&self) -> Option<Collision> {
        match self {
            Physics::Scalar(sim, _) => sim.first_collision(),
            Physics::Lanes { batch, lead, .. } => batch.first_collision(*lead),
        }
    }
}

/// Runs `body`, adding its duration to `acc` when `on`.
#[inline(always)]
fn region<R>(on: bool, acc: &mut Acc, body: impl FnOnce() -> R) -> R {
    if on {
        let start = Instant::now();
        let out = body();
        acc.add(start.elapsed().as_nanos() as u64);
        out
    } else {
        body()
    }
}

/// Re-flies `plan` cold (no checkpoints), timing the layer calls of
/// every `every`-th tick into `times`. Returns the run's result, which
/// must equal `ExperimentRunner::run_with_plan(plan)`.
pub fn replay(
    cfg: &ExperimentConfig,
    plan: FaultPlan,
    stepper: Stepper,
    every: u64,
    times: &mut LayerTimes,
) -> RunResult {
    let started = Instant::now();
    let link_plan = plan.link_plan().clone();
    let mut sim_config = SimConfig {
        dt: cfg.dt,
        seed: cfg.seed,
        ..SimConfig::default()
    };
    if let Some(noise) = &cfg.noise {
        sim_config.sensors.noise = noise.clone();
    }
    let mut sim = Simulator::new_shared(sim_config, cfg.workload.shared_environment());
    let injector = SharedInjector::new(FaultInjector::new(plan));
    let mut firmware = Firmware::new(cfg.profile, cfg.bugs.clone(), injector.clone());
    let mut link = FaultyLink::new(link_plan, SimRng::seed_from_u64(cfg.seed ^ LINK_RNG_SALT));
    let mut tracker = ProtocolTracker::new();
    let mut workload = cfg.workload.fresh();
    let mut samples: Vec<StateSample> =
        Vec::with_capacity((cfg.max_duration / cfg.sample_interval) as usize + 2);
    let mut fence_violations = 0usize;
    let mut next_sample_time = 0.0;
    let mut workload_status = avis_workload::WorkloadStatus::Running;
    let mut terminal_since: Option<f64> = None;
    let mut output = StepOutput::empty();
    sim.step_into(&MotorCommands::IDLE, &mut output);
    let mut physics = match stepper {
        Stepper::Scalar => Physics::Scalar(sim, output),
        Stepper::Lanes(lanes) => {
            let (mut batch, lead) = LaneBatch::from_simulator(sim, output);
            for _ in 1..lanes {
                batch.clone_lane(lead);
            }
            Physics::Lanes {
                batch,
                lead,
                commands: vec![MotorCommands::IDLE; lanes],
            }
        }
    };

    let mut outbox: Vec<Message> = Vec::new();
    let mut verdict = RunVerdict::Completed;
    let mut tick = 0u64;
    while physics.time() < cfg.max_duration {
        let time = physics.time();
        if let Some(max_steps) = cfg.watchdog.max_steps {
            if (time / cfg.dt).round() as u64 >= max_steps {
                verdict = RunVerdict::Diverged;
                break;
            }
        }
        let on = tick.is_multiple_of(every);
        tick += 1;
        times.ticks += 1;
        if on {
            times.timed_ticks += 1;
        }
        region(on, &mut times.firmware_msg, || {
            firmware.drain_outbox_into(&mut outbox)
        });
        let telemetry = region(on, &mut times.link, || {
            for msg in &outbox {
                link.send(Endpoint::Vehicle, msg, time);
            }
            link.deliver(Endpoint::GroundStation, time)
        });
        region(on, &mut times.protocol, || {
            tracker.note_delivered(&telemetry, time, firmware.mission().items())
        });
        let (commands, status) =
            region(on, &mut times.workload, || workload.tick(&telemetry, time));
        region(on, &mut times.protocol, || {
            for msg in &commands {
                tracker.note_sent(msg, time);
            }
        });
        let inbound = region(on, &mut times.link, || {
            for msg in &commands {
                link.send(Endpoint::GroundStation, msg, time);
            }
            link.deliver(Endpoint::Vehicle, time)
        });
        region(on, &mut times.firmware_msg, || {
            firmware.handle_messages(inbound.iter())
        });
        workload_status = status;
        if workload_status.is_terminal() {
            let since = *terminal_since.get_or_insert(time);
            if time - since >= cfg.grace_period {
                break;
            }
        }

        let motor = region(on, &mut times.firmware_step, || {
            firmware.step(&physics.output().readings, time, cfg.dt)
        });
        if on {
            let start = Instant::now();
            physics.step(&motor);
            times.sim.push(start.elapsed().as_nanos() as f64);
        } else {
            physics.step(&motor);
        }
        let output = physics.output();
        if !output.violated_fences.is_empty() {
            fence_violations += 1;
        }
        if time >= next_sample_time {
            samples.push(StateSample {
                time,
                position: output.state.position,
                acceleration: output.state.acceleration,
                mode: firmware.mode(),
            });
            next_sample_time += cfg.sample_interval;
        }
    }

    let mode_transitions: Vec<ModeTransition> = injector
        .mode_transitions()
        .into_iter()
        .filter_map(|r| transition_from_code(r.time, r.to))
        .collect();
    let duration = physics.time();
    let trace = Trace {
        sample_interval: cfg.sample_interval,
        samples,
        mode_transitions,
        collision: physics.first_collision(),
        fence_violations,
        workload_status,
        duration,
        protocol: tracker.into_events(),
    };
    let mut triggered_defects: Vec<BugId> = firmware
        .defect_log()
        .iter()
        .flat_map(|(_, o)| o.active.iter().copied())
        .collect();
    triggered_defects.sort_unstable();
    triggered_defects.dedup();
    let result = RunResult {
        plan: injector.take_plan(),
        trace,
        simulated_seconds: duration,
        triggered_defects,
        verdict,
    };
    times.wall_ns += started.elapsed().as_nanos() as u64;
    result
}
