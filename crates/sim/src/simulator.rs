//! The lock-step simulator that advances physics, samples sensors and
//! detects collisions.
//!
//! One call to [`Simulator::step`] corresponds to one *simulation
//! time-step* in the paper (Fig. 7): the workload yields control, the
//! simulator advances time by a fixed unit, synthesizes sensor readings,
//! accepts actuator outputs and computes the vehicle's next physical
//! state.

use crate::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use crate::environment::{Collision, Environment};
use crate::math::Vec3;
use crate::sensors::{SensorReading, SensorSuite, SensorSuiteConfig};
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
    /// Seed of the sensor noise and the seed-time sensor biases.
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

impl StepOutput {
    /// Writes the output bit-exactly for the persistent store. The
    /// readings are packed: their values are flattened into one float
    /// array beside the instance list, and their sample time is written
    /// once (every reading of a step comes from one
    /// [`SensorSuite::sample_into`] call), roughly a third of the size of
    /// the tagged [`SensorValue`](crate::sensors::SensorValue)s.
    pub fn encode(&self, w: &mut ByteWriter) {
        use crate::sensors::SensorValue;
        let time = self.readings.first().map_or(0.0, |r| r.time);
        debug_assert!(
            self.readings.iter().all(|r| r.time == time),
            "step readings share one sample time"
        );
        let mut floats = Vec::with_capacity(self.readings.len() * 3);
        let mut satellites = Vec::new();
        for reading in &self.readings {
            match reading.value {
                SensorValue::Acceleration(v) | SensorValue::AngularRate(v) => {
                    floats.extend([v.x, v.y, v.z]);
                }
                SensorValue::GpsFix {
                    position: p,
                    velocity: v,
                    satellites: n,
                } => {
                    floats.extend([p.x, p.y, p.z, v.x, v.y, v.z]);
                    satellites.push(n);
                }
                SensorValue::PressureAltitude(v) | SensorValue::MagneticHeading(v) => {
                    floats.push(v)
                }
                SensorValue::BatteryStatus { voltage, remaining } => {
                    floats.extend([voltage, remaining]);
                }
            }
        }
        w.f64(self.state.time);
        self.state.position.encode(w);
        self.state.velocity.encode(w);
        self.state.acceleration.encode(w);
        w.f64(self.state.heading);
        w.bool(self.state.on_ground);
        w.option(self.collision.as_ref(), |w, c| c.encode(w));
        w.seq(&self.violated_fences, |w, i| w.usize(*i));
        w.f64(time);
        w.seq(&self.readings, |w, r| r.instance.encode(w));
        w.seq(&floats, |w, v| w.f64(*v));
        w.bytes(&satellites);
    }

    /// Reads an output written by [`StepOutput::encode`]. A float array or
    /// satellite list that does not match the instance list's fixed
    /// per-kind layout (accelerometer and gyroscope 3 floats, GPS 6 and a
    /// satellite count, barometer and compass 1, battery 2) is malformed.
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<StepOutput> {
        use crate::sensors::{SensorInstance, SensorKind, SensorValue};
        let state = PhysicalState {
            time: r.f64()?,
            position: Vec3::decode(r)?,
            velocity: Vec3::decode(r)?,
            acceleration: Vec3::decode(r)?,
            heading: r.f64()?,
            on_ground: r.bool()?,
        };
        let collision = r.option(Collision::decode)?;
        let violated_fences = r.seq(|r| r.usize())?;
        let time = r.f64()?;
        let instances = r.seq(SensorInstance::decode)?;
        let mut floats = r.seq(|r| r.f64())?.into_iter();
        let mut satellites = r.bytes()?.into_iter();
        let malformed = || CodecError::Malformed("packed reading layout mismatch");
        let mut next = || floats.next().ok_or_else(malformed);
        let mut readings = Vec::with_capacity(instances.len());
        for instance in instances {
            let value = match instance.kind {
                SensorKind::Accelerometer => {
                    SensorValue::Acceleration(Vec3::new(next()?, next()?, next()?))
                }
                SensorKind::Gyroscope => {
                    SensorValue::AngularRate(Vec3::new(next()?, next()?, next()?))
                }
                SensorKind::Gps => SensorValue::GpsFix {
                    position: Vec3::new(next()?, next()?, next()?),
                    velocity: Vec3::new(next()?, next()?, next()?),
                    satellites: satellites.next().ok_or_else(malformed)?,
                },
                SensorKind::Barometer => SensorValue::PressureAltitude(next()?),
                SensorKind::Compass => SensorValue::MagneticHeading(next()?),
                SensorKind::Battery => SensorValue::BatteryStatus {
                    voltage: next()?,
                    remaining: next()?,
                },
            };
            readings.push(SensorReading {
                instance,
                time,
                value,
            });
        }
        if floats.next().is_some() || satellites.next().is_some() {
            return Err(malformed());
        }
        Ok(StepOutput {
            state,
            readings,
            collision,
            violated_fences,
        })
    }
}

/// The software-in-the-loop simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    // snapshot: skip(static: rebuilt from the experiment config)
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

    /// Approximate heap footprint *exclusively owned* by the simulator
    /// (bytes), used by checkpoint caches to enforce their memory budget.
    /// The sensor suite dominates; it is bounded per configuration, so a
    /// flat estimate suffices. The environment is `Arc`-shared across
    /// every cut of a run and accounted once through
    /// [`Simulator::for_each_chunk`].
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Simulator>() + self.config.sensors.total_instances() * 192
    }

    /// Visits the `Arc`-shared parts of the simulator as `(identity,
    /// bytes)` pairs, so a snapshot cache can charge each shared block
    /// exactly once however many cuts reference it.
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        f(
            // avis-lint: allow(d2, reason = "environment identity for memory-budget dedup only; never feeds replay, hashing or ordering")
            Arc::as_ptr(&self.env) as usize,
            std::mem::size_of::<Environment>() + self.env.fences().len() * 128,
        );
    }

    /// Writes the dynamic state — vehicle, held sensor state, time, step
    /// count and collision bookkeeping — bit-exactly for the persistent
    /// store. The static complement (configuration, the noise key and
    /// seed-time sensor biases, the `Arc`-shared environment) is not
    /// written:
    /// [`Simulator::decode_onto`] keeps it from the genesis simulator.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.quad.encode(w);
        self.sensors.encode(w);
        w.f64(self.time);
        w.u64(self.steps);
        w.option(self.first_collision.as_ref(), |w, c| c.encode(w));
        w.bool(self.was_airborne);
    }

    /// Reads the state [`Simulator::encode`] wrote onto this simulator,
    /// which must be the genesis simulator of the same run configuration.
    pub fn decode_onto(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        self.quad.decode_onto(r)?;
        self.sensors.decode_onto(r)?;
        self.time = r.f64()?;
        self.steps = r.u64()?;
        self.first_collision = r.option(Collision::decode)?;
        self.was_airborne = r.bool()?;
        Ok(())
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
    /// loop performs no further heap allocations. The sensors sample the
    /// noise of tick [`Simulator::steps`], counted after this step.
    pub fn step_into(&mut self, commands: &MotorCommands, output: &mut StepOutput) {
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
        let heading = self.sensors.sample_into(
            &mut output.readings,
            &new_state,
            commands.mean(),
            self.time,
            dt,
            self.steps,
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
    fn step_output_codec_round_trips_and_rejects_a_foreign_layout() {
        use crate::sensors::{SensorKind, SensorValue};
        let mut sim = Simulator::with_defaults();
        let mut output = sim.step(&MotorCommands::uniform(0.6));
        let round_trip = |output: &StepOutput| {
            let mut w = ByteWriter::new();
            output.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            StepOutput::decode(&mut r).and_then(|decoded| r.finish().map(|()| decoded))
        };
        assert!(output
            .readings
            .iter()
            .any(|r| r.instance.kind == SensorKind::Gps));
        assert_eq!(round_trip(&output), Ok(output.clone()));
        // A reading whose value does not fit its instance's kind packs a
        // float count the decoder's per-kind layout rejects.
        assert_eq!(output.readings[0].instance.kind, SensorKind::Accelerometer);
        output.readings[0].value = SensorValue::PressureAltitude(1.0);
        assert!(round_trip(&output).is_err());
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
