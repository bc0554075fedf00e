//! Batched lockstep stepping: one [`LaneBatch`] advances N sibling
//! scenarios ("lanes") together.
//!
//! Sibling scenarios in a campaign differ only in their fault plans, not
//! in their simulation seed. Each lane is a plain [`Simulator`] stepped
//! by [`Simulator::step_into`] itself, so each lane's readings are the
//! ones its lone run would compute by construction. Nothing is shared
//! between lanes: the sensor noise is a pure function of the seed, the
//! tick and the draw's slot ([`crate::rng::noise`]), so every lane reads
//! what its lone run reads, however far their states diverge.
//!
//! # Lane lifecycle
//!
//! Lanes are created from a scalar simulator ([`LaneBatch::from_simulator`]),
//! forked by cloning an existing lane ([`LaneBatch::clone_lane`]), cut
//! through [`LaneBatch::lane_snapshot`] (a checkpoint of one lane), and
//! retired through [`LaneBatch::extract_lane`] once their run ends. Lane
//! ids are stable across removals; slot order (and therefore
//! [`LaneBatch::step_lanes`] command order) follows
//! [`LaneBatch::lane_ids`].

use crate::environment::Collision;
use crate::simulator::{Simulator, StepOutput};
use crate::vehicle::MotorCommands;

/// A batch of sibling simulations advanced in lockstep. See the module
/// docs for the lane lifecycle.
#[derive(Debug, Clone)]
pub struct LaneBatch {
    ids: Vec<u64>,
    /// Each lane's simulator and most recent step output, in slot order.
    lanes: Vec<(Simulator, StepOutput)>,
    next_id: u64,
    /// Shared simulation time (every lane is at this time).
    time: f64,
}

impl LaneBatch {
    /// Wraps a scalar simulator as the first lane of a new batch,
    /// returning the batch and the lane's id. `output` must be the
    /// simulator's most recent step output (the batch keeps producing
    /// into per-lane output buffers exactly like `Simulator::step_into`).
    pub fn from_simulator(sim: Simulator, output: StepOutput) -> (Self, u64) {
        let batch = LaneBatch {
            ids: vec![0],
            time: sim.time,
            lanes: vec![(sim, output)],
            next_id: 1,
        };
        (batch, 0)
    }

    /// Number of live lanes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Shared simulation time (every lane is at this time).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Lane ids in slot order. [`LaneBatch::step_lanes`] expects its
    /// command slice in this order; the order changes when lanes leave.
    pub fn lane_ids(&self) -> &[u64] {
        &self.ids
    }

    /// The most recent step output of the given lane.
    pub fn output(&self, id: u64) -> &StepOutput {
        &self.lanes[self.slot(id)].1
    }

    /// The first collision observed by the given lane, if any.
    pub fn first_collision(&self, id: u64) -> Option<Collision> {
        self.lanes[self.slot(id)].0.first_collision()
    }

    fn slot(&self, id: u64) -> usize {
        self.ids
            .iter()
            .position(|&i| i == id)
            .unwrap_or_else(|| panic!("lane {id} is not in the batch"))
    }

    /// Forks a new lane as a bit-exact copy of lane `src`, returning the
    /// new lane's id.
    pub fn clone_lane(&mut self, src: u64) -> u64 {
        let lane = self.lanes[self.slot(src)].clone();
        let id = self.next_id;
        self.next_id += 1;
        self.ids.push(id);
        self.lanes.push(lane);
        id
    }

    /// Captures one lane as a scalar [`Simulator`], bit-identical to a
    /// clone of a scalar simulator in the same state.
    pub fn lane_snapshot(&self, id: u64) -> Simulator {
        self.lanes[self.slot(id)].0.clone()
    }

    /// Retires a lane: removes it from the batch and returns it as a
    /// scalar [`Simulator`] plus its most recent step output — bit-exact,
    /// so the caller may read its final state or continue it scalar.
    pub fn extract_lane(&mut self, id: u64) -> (Simulator, StepOutput) {
        let slot = self.slot(id);
        self.ids.swap_remove(slot);
        self.lanes.swap_remove(slot)
    }

    /// Advances every lane by one fixed time-step. `commands[i]` drives
    /// the lane at `lane_ids()[i]`, through [`Simulator::step_into`].
    pub fn step_lanes(&mut self, commands: &[MotorCommands]) {
        debug_assert_eq!(
            commands.len(),
            self.lanes.len(),
            "one command per live lane"
        );
        for ((sim, output), command) in self.lanes.iter_mut().zip(commands) {
            sim.step_into(command, output);
            self.time = sim.time;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::{BoxObstacle, CollisionKind, Environment, Fence, FenceRegion, Wind};
    use crate::math::Vec3;
    use crate::sensors::SensorSuiteConfig;
    use crate::simulator::SimConfig;
    use crate::vehicle::VehicleParams;
    use std::sync::Arc;

    /// A primed scalar simulator with the iris suite in an open field.
    fn primed_sim(airborne: bool) -> (Simulator, StepOutput) {
        primed(
            SensorSuiteConfig::iris(),
            Environment::open_field(),
            airborne,
        )
    }

    /// A one-instance suite (a different draw count per step) in gusty
    /// wind, with an obstacle under the descent of lane 0 of [`script`]
    /// and an exclusion fence lane 2 drifts into.
    fn obstacle_course() -> (Simulator, StepOutput) {
        let env = Environment::open_field()
            .with_wind(Wind {
                mean: Vec3::new(2.0, 1.0, 0.0),
                gust_amplitude: 1.5,
                gust_period: 0.4,
            })
            .with_obstacle(BoxObstacle::new(
                Vec3::new(0.1, -0.6, 1.0),
                Vec3::new(0.6, -0.1, 2.0),
            ))
            .with_fence(Fence::exclusion(FenceRegion::Rectangle {
                min_x: -5.0,
                min_y: -5.0,
                max_x: -0.5,
                max_y: -0.5,
            }));
        primed(SensorSuiteConfig::minimal(), env, true)
    }

    /// A primed scalar simulator: one IDLE step so every GPS receiver
    /// holds a fix (mirrors how campaign runs prime before the loop),
    /// then repositioned to a falling start so collision paths get hit.
    fn primed(
        sensors: SensorSuiteConfig,
        env: Environment,
        airborne: bool,
    ) -> (Simulator, StepOutput) {
        let config = SimConfig {
            dt: 0.005,
            vehicle: VehicleParams::default(),
            sensors,
            seed: 7,
        };
        let mut sim = Simulator::new_shared(config, Arc::new(env));
        let mut output = StepOutput::empty();
        sim.step_into(&MotorCommands::IDLE, &mut output);
        if airborne {
            let mut state = *sim.true_state();
            state.position.z = 5.0;
            state.velocity = Vec3::new(0.3, -0.2, -3.0);
            sim.set_true_state(state);
        }
        (sim, output)
    }

    /// Per-step command scripts for up to three diverging lanes. Lane 0
    /// free-falls into a crash, lane 1 throttles up and recovers, lane 2
    /// flies asymmetrically — so the batch mixes crashed, airborne and
    /// grounded lanes.
    fn script(lane: usize, step: usize) -> MotorCommands {
        match lane {
            0 => MotorCommands::uniform(0.1),
            1 => MotorCommands::uniform(if step < 40 { 0.9 } else { 0.45 }),
            _ => MotorCommands::mix(0.7, 0.015, -0.02, 0.01),
        }
    }

    fn assert_outputs_equal(a: &StepOutput, b: &StepOutput, context: &str) {
        assert_eq!(a, b, "{context}");
    }

    #[test]
    fn single_lane_matches_scalar_bitwise() {
        let (sim, output) = primed_sim(true);
        let mut scalar = sim.clone();
        let mut scalar_out = output.clone();
        let (mut batch, lane) = LaneBatch::from_simulator(sim, output);
        for step in 0..240 {
            let cmd = script(0, step);
            scalar.step_into(&cmd, &mut scalar_out);
            batch.step_lanes(&[cmd]);
            assert_outputs_equal(batch.output(lane), &scalar_out, "single lane step");
            assert_eq!(batch.time(), scalar.time());
        }
        assert!(
            scalar.first_collision().is_some(),
            "script should crash the free-falling lane"
        );
        let (evicted, evicted_out) = batch.extract_lane(lane);
        assert_outputs_equal(&evicted_out, &scalar_out, "extracted output");
        assert_eq!(evicted.first_collision(), scalar.first_collision());
        assert_eq!(evicted.steps(), scalar.steps());
    }

    /// Three independent scalar runs that share a command prefix,
    /// against one batch forked from a single lane at the divergence
    /// point. Every lane's output must equal its scalar run's at every
    /// step, and each extracted lane must go on matching it scalar.
    /// Returns the scalar outputs.
    fn assert_forked_lanes_match(prime: fn() -> (Simulator, StepOutput)) -> Vec<Vec<StepOutput>> {
        const FORK: usize = 30;
        const EXTRACT: usize = 200;
        const HORIZON: usize = 240;
        let command = |lane, step| {
            if step < FORK {
                script(2, step)
            } else {
                script(lane, step)
            }
        };
        let reference: Vec<Vec<StepOutput>> = (0..3)
            .map(|lane| {
                let (mut sim, mut out) = prime();
                (0..HORIZON)
                    .map(|step| {
                        sim.step_into(&command(lane, step), &mut out);
                        out.clone()
                    })
                    .collect()
            })
            .collect();

        let (sim, output) = prime();
        let (mut batch, l0) = LaneBatch::from_simulator(sim, output);
        let mut ids = vec![l0];
        // `step` drives three reference traces, not one slice.
        #[allow(clippy::needless_range_loop)]
        for step in 0..EXTRACT {
            if step == FORK {
                ids.push(batch.clone_lane(l0));
                ids.push(batch.clone_lane(l0));
            }
            let cmds: Vec<MotorCommands> = batch
                .lane_ids()
                .iter()
                .map(|id| command(ids.iter().position(|l| l == id).unwrap(), step))
                .collect();
            batch.step_lanes(&cmds);
            for (lane, &id) in ids.iter().enumerate() {
                assert_eq!(
                    batch.output(id),
                    &reference[lane][step],
                    "forked lane {lane}, step {step}"
                );
            }
        }
        for (lane, &id) in ids.iter().enumerate() {
            let (mut sim, mut out) = batch.extract_lane(id);
            assert_eq!(out, reference[lane][EXTRACT - 1], "extracted lane {lane}");
            for (step, expected) in reference[lane].iter().enumerate().skip(EXTRACT) {
                sim.step_into(&command(lane, step), &mut out);
                assert_eq!(&out, expected, "extracted lane {lane}, step {step}");
            }
        }
        assert!(batch.is_empty());
        reference
    }

    #[test]
    fn forked_lanes_match_independent_scalar_runs() {
        assert_forked_lanes_match(|| primed_sim(true));
        let course = assert_forked_lanes_match(obstacle_course);
        // The course reaches what the open field never does: an obstacle
        // collision in lane 0 only, and a fence violation in lane 2.
        assert!(course[0].iter().any(|o| o
            .collision
            .is_some_and(|c| c.kind == CollisionKind::Obstacle(0))));
        assert!(course[1..]
            .iter()
            .all(|lane| lane.iter().all(|o| o.collision.is_none())));
        assert!(course[2].iter().any(|o| o.violated_fences == [0]));
    }

    #[test]
    fn evicting_a_lane_at_every_step_is_bit_identical() {
        const HORIZON: usize = 200;
        // Reference: two independent scalar runs, outputs recorded per step.
        let mut reference: Vec<Vec<StepOutput>> = Vec::new();
        for lane in 0..2usize {
            let (mut sim, mut out) = primed_sim(true);
            let mut outs = Vec::new();
            for step in 0..HORIZON {
                sim.step_into(&script(lane, step), &mut out);
                outs.push(out.clone());
            }
            reference.push(outs);
        }
        for evict_at in 0..HORIZON {
            let (sim, output) = primed_sim(true);
            let (mut batch, l0) = LaneBatch::from_simulator(sim, output);
            let l1 = batch.clone_lane(l0);
            for step in 0..evict_at {
                let cmds: Vec<MotorCommands> = batch
                    .lane_ids()
                    .iter()
                    .map(|&id| script(if id == l0 { 0 } else { 1 }, step))
                    .collect();
                batch.step_lanes(&cmds);
            }
            let (mut evicted, mut out) = batch.extract_lane(l1);
            // `step` drives two parallel reference traces, not one slice.
            #[allow(clippy::needless_range_loop)]
            for step in evict_at..HORIZON {
                evicted.step_into(&script(1, step), &mut out);
                assert_eq!(
                    &out, &reference[1][step],
                    "evicted-at-{evict_at} lane, step {step}"
                );
                // The remaining lane keeps batching, unaffected.
                batch.step_lanes(&[script(0, step)]);
                assert_eq!(
                    batch.output(l0),
                    &reference[0][step],
                    "surviving lane after eviction at {evict_at}, step {step}"
                );
            }
        }
    }

    #[test]
    fn lane_snapshot_restores_bit_identical_scalar() {
        let (sim, output) = primed_sim(true);
        let (mut batch, l0) = LaneBatch::from_simulator(sim, output);
        let l1 = batch.clone_lane(l0);
        for step in 0..50 {
            let cmds: Vec<MotorCommands> = batch
                .lane_ids()
                .iter()
                .map(|&id| script(if id == l0 { 0 } else { 1 }, step))
                .collect();
            batch.step_lanes(&cmds);
        }
        // A snapshot of lane 1 restored to a scalar simulator must track
        // the still-batched lane 1 exactly.
        let mut restored = batch.lane_snapshot(l1);
        let mut out = batch.output(l1).clone();
        for step in 50..150 {
            restored.step_into(&script(1, step), &mut out);
            let cmds: Vec<MotorCommands> = batch
                .lane_ids()
                .iter()
                .map(|&id| script(if id == l0 { 0 } else { 1 }, step))
                .collect();
            batch.step_lanes(&cmds);
            assert_eq!(&out, batch.output(l1), "restored snapshot step {step}");
        }
    }

    #[test]
    fn ground_start_lane_matches_scalar() {
        // A never-airborne lane (spool-up from the pad) exercises the
        // ground-contact clamp and the hover-thrust accel zeroing.
        let (sim, output) = primed_sim(false);
        let mut scalar = sim.clone();
        let mut scalar_out = output.clone();
        let (mut batch, lane) = LaneBatch::from_simulator(sim, output);
        for step in 0..300 {
            let cmd = MotorCommands::uniform(if step < 120 { 0.2 } else { 0.8 });
            scalar.step_into(&cmd, &mut scalar_out);
            batch.step_lanes(&[cmd]);
            assert_outputs_equal(batch.output(lane), &scalar_out, "ground start step");
        }
        assert!(!scalar.physical_state().on_ground, "climb should lift off");
    }
}
