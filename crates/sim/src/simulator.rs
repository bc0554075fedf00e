//! The lock-step simulator that advances physics, samples sensors and
//! detects collisions.
//!
//! One call to [`Simulator::step`] corresponds to one *simulation
//! time-step* in the paper (Fig. 7): the workload yields control, the
//! simulator advances time by a fixed unit, synthesizes sensor readings,
//! accepts actuator outputs and computes the vehicle's next physical
//! state.

use crate::environment::{Collision, Environment};
use crate::math::Vec3;
use crate::sensors::{NoiseSource, OwnStream, SensorReading, SensorSuite, SensorSuiteConfig};
use crate::vehicle::{MotorCommands, Quadcopter, RigidBodyState, VehicleParams};
use std::sync::Arc;

/// Configuration for a simulation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Fixed simulation time-step (s). The paper uses 1 ms.
    pub dt: f64,
    /// Vehicle physical parameters.
    pub vehicle: VehicleParams,
    /// Sensor complement and noise.
    pub sensors: SensorSuiteConfig,
    /// RNG seed for sensor noise.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dt: 0.001,
            vehicle: VehicleParams::default(),
            sensors: SensorSuiteConfig::iris(),
            seed: 0,
        }
    }
}

/// A compact snapshot of the physical state exposed to the invariant
/// monitor: the `(P, α, ·)` part of the state tuple in §IV.C.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalState {
    /// Simulation time (s).
    pub time: f64,
    /// World-frame position (m).
    pub position: Vec3,
    /// World-frame velocity (m/s).
    pub velocity: Vec3,
    /// World-frame acceleration (m/s²).
    pub acceleration: Vec3,
    /// Yaw heading (rad).
    pub heading: f64,
    /// Whether the vehicle is resting on the ground.
    pub on_ground: bool,
}

/// The result of advancing the simulation by one step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutput {
    /// The vehicle's new physical state.
    pub state: PhysicalState,
    /// Sensor samples for this step (true values; fault injection happens
    /// in the firmware's drivers).
    pub readings: Vec<SensorReading>,
    /// A collision detected during this step, if any.
    pub collision: Option<Collision>,
    /// Indices of fences violated at the new position.
    pub violated_fences: Vec<usize>,
}

impl StepOutput {
    /// An output buffer ready to be filled by [`Simulator::step_into`].
    /// Reusing one buffer across steps keeps the lock-step loop free of
    /// per-step heap allocations.
    pub fn empty() -> Self {
        StepOutput {
            state: PhysicalState {
                time: 0.0,
                position: Vec3::ZERO,
                velocity: Vec3::ZERO,
                acceleration: Vec3::ZERO,
                heading: 0.0,
                on_ground: true,
            },
            readings: Vec::new(),
            collision: None,
            violated_fences: Vec::new(),
        }
    }
}

impl Default for StepOutput {
    fn default() -> Self {
        StepOutput::empty()
    }
}

/// A [`StepOutput`] packed for the persistent snapshot store: the sensor
/// readings are flattened into one float array plus a compact instance
/// list instead of a `Vec` of tagged [`SensorValue`] enums — roughly a
/// third of the size, bit-exactly reversible. Every persisted cut
/// carries one.
#[derive(Debug, Clone)]
pub struct PackedStepOutput {
    state: PhysicalState,
    collision: Option<Collision>,
    violated_fences: Vec<usize>,
    /// Sample time shared by every reading of the step (readings are
    /// produced by one [`SensorSuite::sample_into`] call).
    time: f64,
    instances: Vec<crate::sensors::SensorInstance>,
    /// Per-reading float payload, concatenated in instance order (the
    /// per-kind layout is fixed: accelerometer/gyroscope 3, GPS 6,
    /// barometer/compass 1, battery 2).
    floats: Vec<f64>,
    /// Per-GPS-reading satellite counts, in instance order.
    satellites: Vec<u8>,
}

impl PackedStepOutput {
    /// Packs a step output. Readings are assumed to come from one
    /// [`Simulator::step_into`] call (one shared sample time).
    pub fn pack(output: &StepOutput) -> Self {
        use crate::sensors::SensorValue;
        let time = output.readings.first().map(|r| r.time).unwrap_or(0.0);
        debug_assert!(
            output.readings.iter().all(|r| r.time == time),
            "step readings share one sample time"
        );
        let mut packed = PackedStepOutput {
            state: output.state,
            collision: output.collision,
            violated_fences: output.violated_fences.clone(),
            time,
            instances: Vec::with_capacity(output.readings.len()),
            floats: Vec::with_capacity(output.readings.len() * 3),
            satellites: Vec::new(),
        };
        for reading in &output.readings {
            packed.instances.push(reading.instance);
            match reading.value {
                SensorValue::Acceleration(v) | SensorValue::AngularRate(v) => {
                    packed.floats.extend([v.x, v.y, v.z]);
                }
                SensorValue::GpsFix {
                    position,
                    velocity,
                    satellites,
                } => {
                    packed.floats.extend([
                        position.x, position.y, position.z, velocity.x, velocity.y, velocity.z,
                    ]);
                    packed.satellites.push(satellites);
                }
                SensorValue::PressureAltitude(v) | SensorValue::MagneticHeading(v) => {
                    packed.floats.push(v);
                }
                SensorValue::BatteryStatus { voltage, remaining } => {
                    packed.floats.extend([voltage, remaining]);
                }
            }
        }
        packed
    }

    /// Rebuilds the exact [`StepOutput`] that was packed.
    pub fn unpack(&self) -> StepOutput {
        use crate::sensors::{SensorKind, SensorValue};
        let mut readings = Vec::with_capacity(self.instances.len());
        let mut floats = self.floats.iter().copied();
        let mut next = || floats.next().expect("packed float count matches layout");
        let mut satellites = self.satellites.iter().copied();
        for &instance in &self.instances {
            let value = match instance.kind {
                SensorKind::Accelerometer => {
                    SensorValue::Acceleration(Vec3::new(next(), next(), next()))
                }
                SensorKind::Gyroscope => {
                    SensorValue::AngularRate(Vec3::new(next(), next(), next()))
                }
                SensorKind::Gps => SensorValue::GpsFix {
                    position: Vec3::new(next(), next(), next()),
                    velocity: Vec3::new(next(), next(), next()),
                    satellites: satellites.next().expect("one count per GPS reading"),
                },
                SensorKind::Barometer => SensorValue::PressureAltitude(next()),
                SensorKind::Compass => SensorValue::MagneticHeading(next()),
                SensorKind::Battery => SensorValue::BatteryStatus {
                    voltage: next(),
                    remaining: next(),
                },
            };
            readings.push(SensorReading {
                instance,
                time: self.time,
                value,
            });
        }
        StepOutput {
            state: self.state,
            readings,
            collision: self.collision,
            violated_fences: self.violated_fences.clone(),
        }
    }

    /// Serialises the packed output (bit-exact) for the persistent store.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        w.f64(self.state.time);
        self.state.position.encode(w);
        self.state.velocity.encode(w);
        self.state.acceleration.encode(w);
        w.f64(self.state.heading);
        w.bool(self.state.on_ground);
        w.option(self.collision.as_ref(), |w, c| c.encode(w));
        w.seq(&self.violated_fences, |w, i| w.usize(*i));
        w.f64(self.time);
        w.seq(&self.instances, |w, i| i.encode(w));
        w.seq(&self.floats, |w, v| w.f64(*v));
        w.bytes(&self.satellites);
    }

    /// Restores a packed output serialised by [`PackedStepOutput::encode`].
    pub fn decode(
        r: &mut crate::codec::ByteReader<'_>,
    ) -> crate::codec::CodecResult<PackedStepOutput> {
        Ok(PackedStepOutput {
            state: PhysicalState {
                time: r.f64()?,
                position: Vec3::decode(r)?,
                velocity: Vec3::decode(r)?,
                acceleration: Vec3::decode(r)?,
                heading: r.f64()?,
                on_ground: r.bool()?,
            },
            collision: r.option(Collision::decode)?,
            violated_fences: r.seq(|r| r.usize())?,
            time: r.f64()?,
            instances: r.seq(crate::sensors::SensorInstance::decode)?,
            floats: r.seq(|r| r.f64())?,
            satellites: r.bytes()?,
        })
        .and_then(|packed: PackedStepOutput| {
            // Validate the fixed per-kind layout so a corrupt blob can
            // never panic a later unpack().
            use crate::sensors::SensorKind;
            let mut expected_floats = 0usize;
            let mut expected_sats = 0usize;
            for instance in &packed.instances {
                expected_floats += match instance.kind {
                    SensorKind::Accelerometer | SensorKind::Gyroscope => 3,
                    SensorKind::Gps => {
                        expected_sats += 1;
                        6
                    }
                    SensorKind::Barometer | SensorKind::Compass => 1,
                    SensorKind::Battery => 2,
                };
            }
            if packed.floats.len() != expected_floats || packed.satellites.len() != expected_sats {
                return Err(crate::codec::CodecError::Malformed(
                    "packed reading layout mismatch",
                ));
            }
            Ok(packed)
        })
    }
}

/// A point-in-time capture of a [`Simulator`], taken mid-run by
/// [`Simulator::snapshot`]. Everything that feeds the simulation forward
/// — vehicle rigid-body state, environment, sensor-noise RNG stream,
/// accumulated time and collision bookkeeping — is captured, so a
/// restored simulator continues bit-identically to the original: the same
/// motor-command sequence produces the same [`StepOutput`]s.
///
/// Capture is O(1) in the environment: the simulator holds its
/// environment behind an `Arc`, so every snapshot along a run (and every
/// fork) shares one copy of the fence/obstacle geometry instead of
/// cloning it.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    pub(crate) sim: Simulator,
}

impl SimSnapshot {
    /// Simulation time at which the snapshot was taken (s).
    pub fn time(&self) -> f64 {
        self.sim.time
    }

    /// Rebuilds the captured simulator.
    pub fn restore(&self) -> Simulator {
        self.sim.clone()
    }

    /// Consuming form of [`SimSnapshot::restore`], for callers that own
    /// the snapshot and want to avoid the extra clone.
    pub fn into_restored(self) -> Simulator {
        self.sim
    }

    /// Approximate heap footprint *exclusively owned* by the captured
    /// state (bytes), used by checkpoint caches to enforce their memory
    /// budget. The sensor suite dominates; it is bounded per
    /// configuration, so a flat estimate suffices. The environment is
    /// `Arc`-shared across every snapshot of a run and accounted once
    /// through [`SimSnapshot::for_each_chunk`].
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Simulator>() + self.sim.config.sensors.total_instances() * 192
    }

    /// Visits the `Arc`-shared parts of the capture as `(identity,
    /// bytes)` pairs, so a snapshot store can charge each shared block
    /// exactly once however many snapshots reference it.
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        f(
            // avis-lint: allow(d2, reason = "environment identity for memory-budget dedup only; never feeds replay, hashing or ordering")
            Arc::as_ptr(&self.sim.env) as usize,
            std::mem::size_of::<Environment>() + self.sim.env.fences().len() * 128,
        );
    }

    /// The delta from `prev` to this capture: everything that evolves
    /// while a run executes (vehicle dynamics, sensor noise stream, time
    /// and collision bookkeeping). The static complement — configuration,
    /// seed-time sensor biases, the `Arc`-shared environment — is *not*
    /// stored; [`SimSnapshot::apply`] takes it from the base capture, so
    /// a persisted chain of deltas never stores it at all.
    ///
    /// Only valid between captures of the same run: both must share the
    /// configuration (and therefore the biases) of `prev`.
    pub fn diff(&self, prev: &SimSnapshot) -> SimDelta {
        debug_assert!(
            self.sim.config == prev.sim.config,
            "sim deltas only exist within one run"
        );
        SimDelta {
            quad: self.sim.quad.dynamics(),
            sensors: self.sim.sensors.dynamics(),
            time: self.sim.time,
            steps: self.sim.steps,
            first_collision: self.sim.first_collision,
            was_airborne: self.sim.was_airborne,
        }
    }

    /// Re-materialises the capture `delta` was diffed *to*, using `self`
    /// as the base capture `delta` was diffed *from* (or any earlier
    /// capture of the same run — the delta stores the complete dynamic
    /// state, so any same-run base yields the identical result).
    pub fn apply(&self, delta: &SimDelta) -> SimSnapshot {
        let mut sim = self.sim.clone();
        sim.quad.restore_dynamics(&delta.quad);
        sim.sensors.restore_dynamics(&delta.sensors);
        sim.time = delta.time;
        sim.steps = delta.steps;
        sim.first_collision = delta.first_collision;
        sim.was_airborne = delta.was_airborne;
        SimSnapshot { sim }
    }
}

/// The dynamic slice of a [`SimSnapshot`] relative to an earlier capture
/// of the same run (see [`SimSnapshot::diff`]). Far smaller than a full
/// capture: the configuration, the seed-time sensor biases and the
/// environment are all taken from the base capture at
/// [`SimSnapshot::apply`] time.
#[derive(Debug, Clone)]
pub struct SimDelta {
    quad: crate::vehicle::QuadDynamics,
    sensors: crate::sensors::SensorDynamics,
    time: f64,
    steps: u64,
    first_collision: Option<Collision>,
    was_airborne: bool,
}

impl SimDelta {
    /// Simulation time of the captured cut (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Serialises the delta (bit-exact) for the persistent store.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        self.quad.encode(w);
        self.sensors.encode(w);
        w.f64(self.time);
        w.u64(self.steps);
        w.option(self.first_collision.as_ref(), |w, c| c.encode(w));
        w.bool(self.was_airborne);
    }

    /// Restores a delta serialised by [`SimDelta::encode`].
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> crate::codec::CodecResult<SimDelta> {
        Ok(SimDelta {
            quad: crate::vehicle::QuadDynamics::decode(r)?,
            sensors: crate::sensors::SensorDynamics::decode(r)?,
            time: r.f64()?,
            steps: r.u64()?,
            first_collision: r.option(Collision::decode)?,
            was_airborne: r.bool()?,
        })
    }
}

/// The software-in-the-loop simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    pub(crate) config: SimConfig,
    pub(crate) quad: Quadcopter,
    pub(crate) env: Arc<Environment>,
    pub(crate) sensors: SensorSuite,
    pub(crate) time: f64,
    pub(crate) steps: u64,
    pub(crate) first_collision: Option<Collision>,
    pub(crate) was_airborne: bool,
}

impl Simulator {
    /// Creates a simulator with the vehicle at rest at the environment's
    /// home position.
    pub fn new(config: SimConfig, env: Environment) -> Self {
        Simulator::new_shared(config, Arc::new(env))
    }

    /// [`Simulator::new`] over an already-shared environment: the
    /// simulator keeps the `Arc`, so repeated runs of the same workload
    /// (and every snapshot they record) share one copy of the geometry.
    pub fn new_shared(config: SimConfig, env: Arc<Environment>) -> Self {
        assert!(
            config.dt > 0.0 && config.dt <= 0.1,
            "dt must be in (0, 0.1]"
        );
        let mut quad = Quadcopter::new(config.vehicle.clone());
        quad.set_state(RigidBodyState::at_rest(env.home()));
        let sensors = SensorSuite::new(config.sensors.clone(), config.seed);
        Simulator {
            config,
            quad,
            env,
            sensors,
            time: 0.0,
            steps: 0,
            first_collision: None,
            was_airborne: false,
        }
    }

    /// Creates a simulator with default configuration in an open field.
    pub fn with_defaults() -> Self {
        Simulator::new(SimConfig::default(), Environment::open_field())
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The environment model.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// The shared environment handle (cloning it is O(1)).
    pub fn shared_environment(&self) -> Arc<Environment> {
        Arc::clone(&self.env)
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The first collision observed during this run, if any.
    pub fn first_collision(&self) -> Option<Collision> {
        self.first_collision
    }

    /// Mutable access to the sensor suite (battery preconditioning, etc.).
    pub fn sensors_mut(&mut self) -> &mut SensorSuite {
        &mut self.sensors
    }

    /// The vehicle's true rigid-body state.
    pub fn true_state(&self) -> &RigidBodyState {
        self.quad.state()
    }

    /// A compact physical-state snapshot at the current time.
    pub fn physical_state(&self) -> PhysicalState {
        let s = self.quad.state();
        PhysicalState {
            time: self.time,
            position: s.position,
            velocity: s.velocity,
            acceleration: s.acceleration,
            heading: s.attitude.yaw(),
            on_ground: self.quad.on_ground(),
        }
    }

    /// Captures the simulator's complete state so a later run can resume
    /// from this exact point (see [`SimSnapshot`]).
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot { sim: self.clone() }
    }

    /// Repositions the vehicle (scenario setup / tests only).
    pub fn set_true_state(&mut self, state: RigidBodyState) {
        self.was_airborne = state.position.z > 0.05;
        self.quad.set_state(state);
    }

    /// Advances the simulation by one fixed time-step with the given motor
    /// commands, returning the new state, the sensor samples and any
    /// collision detected.
    ///
    /// Allocates a fresh [`StepOutput`] per call; hot loops should hold
    /// one buffer and call [`Simulator::step_into`] instead.
    pub fn step(&mut self, commands: &MotorCommands) -> StepOutput {
        let mut output = StepOutput::empty();
        self.step_into(commands, &mut output);
        output
    }

    /// Advances the simulation by one fixed time-step, writing the result
    /// into `output`. The `readings` and `violated_fences` buffers are
    /// cleared and refilled in place, so a buffer reused across steps
    /// reaches its steady-state capacity after the first step and the
    /// loop performs no further heap allocations.
    pub fn step_into(&mut self, commands: &MotorCommands, output: &mut StepOutput) {
        self.step_with(commands, output, &mut OwnStream);
    }

    /// [`Simulator::step_into`] with the sensor noise taken from `noise`
    /// (see [`NoiseSource`]); the one step every simulator and every
    /// lockstep lane flies.
    pub(crate) fn step_with<N: NoiseSource>(
        &mut self,
        commands: &MotorCommands,
        output: &mut StepOutput,
        noise: &mut N,
    ) {
        let dt = self.config.dt;
        let wind = self.env.wind().at(self.time);
        let airborne_before = !self.quad.on_ground();
        self.was_airborne = self.was_airborne || airborne_before;

        let commands = if self.first_collision.is_some() {
            // After a crash the airframe is destroyed; motors stop.
            self.quad.cut_motors();
            MotorCommands::IDLE
        } else {
            *commands
        };

        // Preserve the velocity of the incoming trajectory: the collision
        // check needs the impact velocity, which the ground-contact clamp in
        // the dynamics would otherwise zero out.
        let pre_step_velocity = self.quad.state().velocity;
        let new_state = self.quad.step(&commands, wind, dt);
        self.time += dt;
        self.steps += 1;

        let impact_velocity = if new_state.position.z <= 1e-9 && airborne_before {
            pre_step_velocity
        } else {
            new_state.velocity
        };
        let collision =
            self.env
                .check_collision(new_state.position, impact_velocity, self.was_airborne);
        if let Some(c) = collision {
            if self.first_collision.is_none() {
                self.first_collision = Some(c);
            }
            self.quad.cut_motors();
        }
        if new_state.position.z <= 1e-9 {
            // Back on the ground: require becoming airborne again before the
            // next ground impact can be reported.
            self.was_airborne = false;
        }

        output.readings.clear();
        let heading = self.sensors.sample_with(
            &mut output.readings,
            &new_state,
            commands.mean(),
            self.time,
            dt,
            noise,
        );
        output.violated_fences.clear();
        self.env
            .violated_fences_into(new_state.position, &mut output.violated_fences);
        output.state = PhysicalState {
            time: self.time,
            position: new_state.position,
            velocity: new_state.velocity,
            acceleration: new_state.acceleration,
            heading,
            on_ground: self.quad.on_ground(),
        };
        output.collision = collision;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::CollisionKind;
    use crate::vehicle::MotorCommands;

    #[test]
    fn simulator_advances_time() {
        let mut sim = Simulator::with_defaults();
        for _ in 0..100 {
            sim.step(&MotorCommands::IDLE);
        }
        assert!((sim.time() - 0.1).abs() < 1e-9);
        assert_eq!(sim.steps(), 100);
    }

    #[test]
    fn idle_on_ground_never_collides() {
        let mut sim = Simulator::with_defaults();
        for _ in 0..1000 {
            let out = sim.step(&MotorCommands::IDLE);
            assert!(out.collision.is_none());
            assert!(out.state.on_ground);
        }
        assert!(sim.first_collision().is_none());
    }

    #[test]
    fn climb_then_free_fall_crashes() {
        let mut sim = Simulator::with_defaults();
        // Climb hard for 4 seconds.
        for _ in 0..4000 {
            sim.step(&MotorCommands::uniform(0.9));
        }
        assert!(sim.physical_state().position.z > 5.0);
        // Cut power and fall.
        let mut crashed = false;
        for _ in 0..10_000 {
            let out = sim.step(&MotorCommands::IDLE);
            if let Some(c) = out.collision {
                assert_eq!(c.kind, CollisionKind::Ground);
                assert!(c.impact_speed >= 2.0);
                crashed = true;
                break;
            }
        }
        assert!(crashed, "expected a ground crash");
        assert!(sim.first_collision().is_some());
    }

    #[test]
    fn after_crash_motors_are_dead() {
        let mut sim = Simulator::with_defaults();
        for _ in 0..4000 {
            sim.step(&MotorCommands::uniform(0.9));
        }
        for _ in 0..10_000 {
            if sim.step(&MotorCommands::IDLE).collision.is_some() {
                break;
            }
        }
        assert!(sim.first_collision().is_some());
        // Commanding full throttle after the crash must not lift the wreck.
        for _ in 0..3000 {
            sim.step(&MotorCommands::uniform(1.0));
        }
        assert!(sim.physical_state().position.z < 0.5);
    }

    #[test]
    fn step_reports_sensor_readings() {
        let mut sim = Simulator::with_defaults();
        let out = sim.step(&MotorCommands::IDLE);
        assert_eq!(
            out.readings.len(),
            SensorSuiteConfig::iris().total_instances()
        );
    }

    #[test]
    fn fence_violations_reported() {
        use crate::environment::{Fence, FenceRegion};
        let env = Environment::open_field().with_fence(Fence::containment(FenceRegion::Circle {
            center: Vec3::ZERO,
            radius: 1000.0,
        }));
        let mut sim = Simulator::new(SimConfig::default(), env);
        let out = sim.step(&MotorCommands::IDLE);
        assert!(out.violated_fences.is_empty());
    }

    #[test]
    fn deterministic_given_seed_and_commands() {
        let run = || {
            let mut sim = Simulator::new(
                SimConfig {
                    seed: 5,
                    ..Default::default()
                },
                Environment::open_field(),
            );
            let mut last = None;
            for i in 0..2000 {
                let throttle = if i < 1500 { 0.8 } else { 0.3 };
                last = Some(sim.step(&MotorCommands::uniform(throttle)));
            }
            last.unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.state, b.state);
        assert_eq!(a.readings, b.readings);
    }

    #[test]
    #[should_panic(expected = "dt must be")]
    fn rejects_invalid_dt() {
        let config = SimConfig {
            dt: 0.0,
            ..Default::default()
        };
        let _ = Simulator::new(config, Environment::open_field());
    }
}
