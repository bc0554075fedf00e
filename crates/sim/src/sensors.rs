//! Simulated sensor suite: identities, readings and noise models.
//!
//! The suite mirrors the 3DR Iris configuration used in the paper's
//! evaluation: redundant IMUs (accelerometer + gyroscope triads), dual
//! GPS, dual barometers, triple compasses and a battery monitor. Each
//! *instance* of a sensor type has a [`SensorRole`] — primary or backup —
//! which is the property Avis's sensor-instance-symmetry pruning exploits.
//!
//! The sensors here produce *true-state-derived, noisy* readings. Clean
//! failures (the paper's fault model: an instance stops communicating and
//! the driver reports it failed) are injected one layer up, by the
//! `avis-hinj` fault injector consulted from the firmware's sensor drivers.

use crate::math::Vec3;
use crate::rng::SimRng;
use crate::vehicle::{RigidBodyState, GRAVITY};
use std::fmt;

/// The kinds of sensors carried by the simulated vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SensorKind {
    /// Linear accelerometer (part of the IMU).
    Accelerometer,
    /// Rate gyroscope (part of the IMU).
    Gyroscope,
    /// Global positioning system receiver.
    Gps,
    /// Barometric altimeter.
    Barometer,
    /// Magnetometer / compass.
    Compass,
    /// Battery voltage / state-of-charge monitor.
    Battery,
}

impl SensorKind {
    /// Every sensor kind, in a stable order.
    pub const ALL: [SensorKind; 6] = [
        SensorKind::Accelerometer,
        SensorKind::Gyroscope,
        SensorKind::Gps,
        SensorKind::Barometer,
        SensorKind::Compass,
        SensorKind::Battery,
    ];

    /// Short lowercase name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            SensorKind::Accelerometer => "accelerometer",
            SensorKind::Gyroscope => "gyroscope",
            SensorKind::Gps => "gps",
            SensorKind::Barometer => "barometer",
            SensorKind::Compass => "compass",
            SensorKind::Battery => "battery",
        }
    }
}

impl fmt::Display for SensorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a sensor instance is the primary for its kind or a backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SensorRole {
    /// The instance the firmware prefers when healthy.
    Primary,
    /// A redundant instance used after the primary fails.
    Backup,
}

impl fmt::Display for SensorRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SensorRole::Primary => f.write_str("primary"),
            SensorRole::Backup => f.write_str("backup"),
        }
    }
}

/// Identifies one physical sensor instance: a kind plus an index.
///
/// Index 0 is always the primary instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SensorInstance {
    /// The sensor type.
    pub kind: SensorKind,
    /// Instance index; `0` is the primary.
    pub index: u8,
}

impl SensorInstance {
    /// Creates an instance identifier.
    pub const fn new(kind: SensorKind, index: u8) -> Self {
        SensorInstance { kind, index }
    }

    /// The role implied by the instance index.
    pub fn role(self) -> SensorRole {
        if self.index == 0 {
            SensorRole::Primary
        } else {
            SensorRole::Backup
        }
    }
}

impl fmt::Display for SensorInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.kind, self.index)
    }
}

/// The measurement carried by a sensor reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorValue {
    /// Specific force in the body frame (m/s²).
    Acceleration(Vec3),
    /// Angular rate in the body frame (rad/s).
    AngularRate(Vec3),
    /// GPS solution.
    GpsFix {
        /// Position in the local ENU frame (m).
        position: Vec3,
        /// Velocity in the local ENU frame (m/s).
        velocity: Vec3,
        /// Number of satellites in the solution.
        satellites: u8,
    },
    /// Barometric altitude above the launch point (m).
    PressureAltitude(f64),
    /// Magnetic heading (rad, wrapped to (-pi, pi]).
    MagneticHeading(f64),
    /// Battery status.
    BatteryStatus {
        /// Terminal voltage (V).
        voltage: f64,
        /// Remaining capacity fraction in `[0, 1]`.
        remaining: f64,
    },
}

/// One sample from one sensor instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReading {
    /// Which instance produced the reading.
    pub instance: SensorInstance,
    /// Simulation time of the sample (s).
    pub time: f64,
    /// The measured value.
    pub value: SensorValue,
}

/// Noise configuration for the sensor suite (standard deviations).
#[derive(Debug, Clone, PartialEq)]
pub struct SensorNoise {
    /// Accelerometer noise (m/s²).
    pub accel: f64,
    /// Gyroscope noise (rad/s).
    pub gyro: f64,
    /// GPS horizontal position noise (m).
    pub gps_horizontal: f64,
    /// GPS vertical position noise (m). The paper's Figure 1 bug hinges on
    /// GPS altitude being much coarser than IMU-derived altitude.
    pub gps_vertical: f64,
    /// GPS velocity noise (m/s).
    pub gps_velocity: f64,
    /// Barometer altitude noise (m).
    pub baro: f64,
    /// Compass heading noise (rad).
    pub compass: f64,
    /// Battery voltage noise (V).
    pub battery_voltage: f64,
}

impl Default for SensorNoise {
    fn default() -> Self {
        SensorNoise {
            accel: 0.05,
            gyro: 0.002,
            gps_horizontal: 1.2,
            gps_vertical: 2.5,
            gps_velocity: 0.15,
            baro: 0.08,
            compass: 0.02,
            battery_voltage: 0.02,
        }
    }
}

impl SensorNoise {
    /// A noiseless configuration, useful for deterministic unit tests.
    pub fn noiseless() -> Self {
        SensorNoise {
            accel: 0.0,
            gyro: 0.0,
            gps_horizontal: 0.0,
            gps_vertical: 0.0,
            gps_velocity: 0.0,
            baro: 0.0,
            compass: 0.0,
            battery_voltage: 0.0,
        }
    }
}

/// Static description of the on-board sensor complement.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSuiteConfig {
    /// Number of accelerometer instances.
    pub accelerometers: u8,
    /// Number of gyroscope instances.
    pub gyroscopes: u8,
    /// Number of GPS receivers.
    pub gps: u8,
    /// Number of barometers.
    pub barometers: u8,
    /// Number of compasses.
    pub compasses: u8,
    /// Number of battery monitors.
    pub batteries: u8,
    /// Noise model.
    pub noise: SensorNoise,
    /// Battery capacity in ampere-seconds of simulated hover time.
    pub battery_endurance_s: f64,
}

impl Default for SensorSuiteConfig {
    fn default() -> Self {
        SensorSuiteConfig::iris()
    }
}

impl SensorSuiteConfig {
    /// The 3DR Iris-like complement used by the paper's experiments:
    /// 3 accelerometers, 3 gyroscopes, 2 GPS, 2 barometers, 3 compasses
    /// and a single battery monitor.
    pub fn iris() -> Self {
        SensorSuiteConfig {
            accelerometers: 3,
            gyroscopes: 3,
            gps: 2,
            barometers: 2,
            compasses: 3,
            batteries: 1,
            noise: SensorNoise::default(),
            battery_endurance_s: 1200.0,
        }
    }

    /// A minimal single-instance complement (the "simple vehicle with 7
    /// onboard sensors and no backups" from §IV.B-style discussions).
    pub fn minimal() -> Self {
        SensorSuiteConfig {
            accelerometers: 1,
            gyroscopes: 1,
            gps: 1,
            barometers: 1,
            compasses: 1,
            batteries: 1,
            noise: SensorNoise::default(),
            battery_endurance_s: 1200.0,
        }
    }

    /// Number of instances of the given kind.
    pub fn instance_count(&self, kind: SensorKind) -> u8 {
        match kind {
            SensorKind::Accelerometer => self.accelerometers,
            SensorKind::Gyroscope => self.gyroscopes,
            SensorKind::Gps => self.gps,
            SensorKind::Barometer => self.barometers,
            SensorKind::Compass => self.compasses,
            SensorKind::Battery => self.batteries,
        }
    }

    /// Enumerates every sensor instance on the vehicle.
    pub fn instances(&self) -> Vec<SensorInstance> {
        let mut out = Vec::new();
        for kind in SensorKind::ALL {
            for idx in 0..self.instance_count(kind) {
                out.push(SensorInstance::new(kind, idx));
            }
        }
        out
    }

    /// Total number of sensor instances.
    pub fn total_instances(&self) -> usize {
        SensorKind::ALL
            .iter()
            .map(|&k| self.instance_count(k) as usize)
            .sum()
    }
}

/// The live sensor suite: holds per-instance noise state and produces a
/// batch of readings from the true physical state each simulation step.
#[derive(Debug, Clone)]
pub struct SensorSuite {
    // snapshot: skip(static: rebuilt from the experiment config)
    pub(crate) config: SensorSuiteConfig,
    pub(crate) rng: SimRng,
    /// Per-accelerometer constant bias (body frame).
    // snapshot: skip(static: rebuilt from the experiment config)
    pub(crate) accel_bias: Vec<Vec3>,
    /// Per-gyroscope constant bias (body frame).
    // snapshot: skip(static: rebuilt from the experiment config)
    pub(crate) gyro_bias: Vec<Vec3>,
    /// Last GPS fix per receiver, held between GPS epochs.
    pub(crate) last_gps: Vec<Option<SensorValue>>,
    /// GPS update interval (s).
    // snapshot: skip(static: rebuilt from the experiment config)
    pub(crate) gps_interval: f64,
    /// Time of last GPS epoch.
    pub(crate) last_gps_time: f64,
    /// Remaining battery fraction.
    pub(crate) battery_remaining: f64,
}

impl SensorKind {
    /// Serialises the kind as a one-byte tag (index into
    /// [`SensorKind::ALL`]).
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        let tag = SensorKind::ALL
            .iter()
            .position(|k| k == self)
            .expect("SensorKind::ALL covers every kind") as u8;
        w.u8(tag);
    }

    /// Restores a kind serialised by [`SensorKind::encode`].
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> crate::codec::CodecResult<SensorKind> {
        let tag = r.u8()? as usize;
        SensorKind::ALL
            .get(tag)
            .copied()
            .ok_or(crate::codec::CodecError::Malformed("sensor kind tag"))
    }
}

impl SensorInstance {
    /// Serialises the instance identifier.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        self.kind.encode(w);
        w.u8(self.index);
    }

    /// Restores an identifier serialised by [`SensorInstance::encode`].
    pub fn decode(
        r: &mut crate::codec::ByteReader<'_>,
    ) -> crate::codec::CodecResult<SensorInstance> {
        Ok(SensorInstance {
            kind: SensorKind::decode(r)?,
            index: r.u8()?,
        })
    }
}

impl SensorValue {
    /// Serialises the measurement (bit-exact) for the persistent store.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        match self {
            SensorValue::Acceleration(v) => {
                w.u8(0);
                v.encode(w);
            }
            SensorValue::AngularRate(v) => {
                w.u8(1);
                v.encode(w);
            }
            SensorValue::GpsFix {
                position,
                velocity,
                satellites,
            } => {
                w.u8(2);
                position.encode(w);
                velocity.encode(w);
                w.u8(*satellites);
            }
            SensorValue::PressureAltitude(alt) => {
                w.u8(3);
                w.f64(*alt);
            }
            SensorValue::MagneticHeading(heading) => {
                w.u8(4);
                w.f64(*heading);
            }
            SensorValue::BatteryStatus { voltage, remaining } => {
                w.u8(5);
                w.f64(*voltage);
                w.f64(*remaining);
            }
        }
    }

    /// Restores a measurement serialised by [`SensorValue::encode`].
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> crate::codec::CodecResult<SensorValue> {
        Ok(match r.u8()? {
            0 => SensorValue::Acceleration(Vec3::decode(r)?),
            1 => SensorValue::AngularRate(Vec3::decode(r)?),
            2 => SensorValue::GpsFix {
                position: Vec3::decode(r)?,
                velocity: Vec3::decode(r)?,
                satellites: r.u8()?,
            },
            3 => SensorValue::PressureAltitude(r.f64()?),
            4 => SensorValue::MagneticHeading(r.f64()?),
            5 => SensorValue::BatteryStatus {
                voltage: r.f64()?,
                remaining: r.f64()?,
            },
            _ => return Err(crate::codec::CodecError::Malformed("sensor value tag")),
        })
    }
}

impl SensorSuite {
    /// Creates a suite with per-instance biases drawn from `seed`.
    pub fn new(config: SensorSuiteConfig, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let accel_bias = (0..config.accelerometers)
            .map(|_| {
                Vec3::new(
                    rng.normal(0.0, config.noise.accel * 0.5),
                    rng.normal(0.0, config.noise.accel * 0.5),
                    rng.normal(0.0, config.noise.accel * 0.5),
                )
            })
            .collect();
        let gyro_bias = (0..config.gyroscopes)
            .map(|_| {
                Vec3::new(
                    rng.normal(0.0, config.noise.gyro * 0.5),
                    rng.normal(0.0, config.noise.gyro * 0.5),
                    rng.normal(0.0, config.noise.gyro * 0.5),
                )
            })
            .collect();
        let last_gps = vec![None; config.gps as usize];
        SensorSuite {
            config,
            rng,
            accel_bias,
            gyro_bias,
            last_gps,
            gps_interval: 0.2,
            last_gps_time: -1.0,
            battery_remaining: 1.0,
        }
    }

    /// The static configuration of the suite.
    pub fn config(&self) -> &SensorSuiteConfig {
        &self.config
    }

    /// Remaining battery fraction in `[0, 1]`.
    pub fn battery_remaining(&self) -> f64 {
        self.battery_remaining
    }

    /// Forces the battery to a specific remaining fraction (used by
    /// experiments that need a low-battery precondition, e.g. PX4-13291).
    pub fn set_battery_remaining(&mut self, remaining: f64) {
        self.battery_remaining = remaining.clamp(0.0, 1.0);
    }

    /// Writes the per-run dynamic state — the noise RNG stream, the GPS
    /// fixes held between epochs, the epoch clock and the battery charge —
    /// bit-exactly for the persistent store. The configuration, the GPS
    /// interval and the biases drawn at seed time are static per run and
    /// not written.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        self.rng.encode(w);
        w.seq(&self.last_gps, |w, fix| {
            w.option(fix.as_ref(), |w, v| v.encode(w))
        });
        w.f64(self.last_gps_time);
        w.f64(self.battery_remaining);
    }

    /// Reads the state [`SensorSuite::encode`] wrote onto this suite,
    /// which supplies the static part: the run's genesis suite.
    pub fn decode_onto(
        &mut self,
        r: &mut crate::codec::ByteReader<'_>,
    ) -> crate::codec::CodecResult<()> {
        self.rng = SimRng::decode(r)?;
        self.last_gps = r.seq(|r| r.option(SensorValue::decode))?;
        self.last_gps_time = r.f64()?;
        self.battery_remaining = r.f64()?;
        Ok(())
    }

    /// Samples every sensor instance at simulation time `time` given the
    /// true rigid-body state and mean motor throttle (battery drain model).
    ///
    /// Allocates a fresh vector per call; hot loops should reuse a buffer
    /// through [`SensorSuite::sample_into`].
    pub fn sample(
        &mut self,
        state: &RigidBodyState,
        mean_throttle: f64,
        time: f64,
        dt: f64,
    ) -> Vec<SensorReading> {
        let mut readings = Vec::with_capacity(self.config.total_instances());
        self.sample_into(&mut readings, state, mean_throttle, time, dt);
        readings
    }

    /// Samples every sensor instance, appending the readings to
    /// `readings` (which the caller clears between steps). A buffer
    /// reused across steps reaches steady-state capacity after the first
    /// step, making subsequent steps allocation-free.
    pub fn sample_into(
        &mut self,
        readings: &mut Vec<SensorReading>,
        state: &RigidBodyState,
        mean_throttle: f64,
        time: f64,
        dt: f64,
    ) {
        self.sample_with(readings, state, mean_throttle, time, dt, &mut OwnStream);
    }

    /// [`SensorSuite::sample_into`] with each noise value taken from
    /// `noise`, in the fixed draw order: accelerometer and gyroscope
    /// axes, each refreshed GPS fix, barometers, compasses, batteries.
    /// Returns the true heading the compasses read around.
    pub(crate) fn sample_with<N: NoiseSource>(
        &mut self,
        readings: &mut Vec<SensorReading>,
        state: &RigidBodyState,
        mean_throttle: f64,
        time: f64,
        dt: f64,
        noise: &mut N,
    ) -> f64 {
        let sd = &self.config.noise;

        // Battery drain: idle draw plus throttle-proportional draw.
        let drain_rate =
            (0.15 + 0.85 * mean_throttle.clamp(0.0, 1.0)) / self.config.battery_endurance_s;
        self.battery_remaining = (self.battery_remaining - drain_rate * dt).max(0.0);

        // Specific force measured by an accelerometer: f = R^T (a + g·ẑ).
        let specific_force_world = state.acceleration + Vec3::new(0.0, 0.0, GRAVITY);
        let specific_force_body = state.attitude.rotate_inverse(specific_force_world);

        for idx in 0..self.config.accelerometers {
            let bias = self.accel_bias[idx as usize];
            let value = SensorValue::Acceleration(
                specific_force_body
                    + bias
                    + Vec3::new(
                        noise.normal(&mut self.rng, sd.accel),
                        noise.normal(&mut self.rng, sd.accel),
                        noise.normal(&mut self.rng, sd.accel),
                    ),
            );
            readings.push(SensorReading {
                instance: SensorInstance::new(SensorKind::Accelerometer, idx),
                time,
                value,
            });
        }

        for idx in 0..self.config.gyroscopes {
            let bias = self.gyro_bias[idx as usize];
            let value = SensorValue::AngularRate(
                state.angular_velocity
                    + bias
                    + Vec3::new(
                        noise.normal(&mut self.rng, sd.gyro),
                        noise.normal(&mut self.rng, sd.gyro),
                        noise.normal(&mut self.rng, sd.gyro),
                    ),
            );
            readings.push(SensorReading {
                instance: SensorInstance::new(SensorKind::Gyroscope, idx),
                time,
                value,
            });
        }

        // GPS updates at its own (slower) epoch rate; between epochs the
        // receiver repeats its last fix, as real receivers do.
        let gps_epoch = self.last_gps_time < 0.0 || time - self.last_gps_time >= self.gps_interval;
        if gps_epoch {
            self.last_gps_time = time;
        }
        for idx in 0..self.config.gps {
            if gps_epoch || self.last_gps[idx as usize].is_none() {
                let fix = SensorValue::GpsFix {
                    position: state.position
                        + Vec3::new(
                            noise.normal(&mut self.rng, sd.gps_horizontal),
                            noise.normal(&mut self.rng, sd.gps_horizontal),
                            noise.normal(&mut self.rng, sd.gps_vertical),
                        ),
                    velocity: state.velocity
                        + Vec3::new(
                            noise.normal(&mut self.rng, sd.gps_velocity),
                            noise.normal(&mut self.rng, sd.gps_velocity),
                            noise.normal(&mut self.rng, sd.gps_velocity),
                        ),
                    satellites: 12,
                };
                self.last_gps[idx as usize] = Some(fix);
            }
            readings.push(SensorReading {
                instance: SensorInstance::new(SensorKind::Gps, idx),
                time,
                value: self.last_gps[idx as usize].expect("gps fix populated above"),
            });
        }

        for idx in 0..self.config.barometers {
            let value = SensorValue::PressureAltitude(
                state.position.z + noise.normal(&mut self.rng, sd.baro),
            );
            readings.push(SensorReading {
                instance: SensorInstance::new(SensorKind::Barometer, idx),
                time,
                value,
            });
        }

        let yaw = state.attitude.yaw();
        for idx in 0..self.config.compasses {
            let value = SensorValue::MagneticHeading(crate::math::wrap_angle(
                yaw + noise.normal(&mut self.rng, sd.compass),
            ));
            readings.push(SensorReading {
                instance: SensorInstance::new(SensorKind::Compass, idx),
                time,
                value,
            });
        }

        for idx in 0..self.config.batteries {
            // Simple LiPo-like discharge curve: 12.6 V full, 10.5 V empty,
            // with additional sag proportional to throttle.
            let voltage = 10.5 + 2.1 * self.battery_remaining - 0.4 * mean_throttle
                + noise.normal(&mut self.rng, sd.battery_voltage);
            let value = SensorValue::BatteryStatus {
                voltage,
                remaining: self.battery_remaining,
            };
            readings.push(SensorReading {
                instance: SensorInstance::new(SensorKind::Battery, idx),
                time,
                value,
            });
        }
        yaw
    }
}

/// Where [`SensorSuite::sample_with`] takes its noise values from.
/// Statically dispatched, so a lone simulator's sampling compiles to
/// direct draws on its own stream.
///
/// How many values a step takes does not depend on the vehicle's state:
/// noise is drawn even at zero standard deviation, and the GPS epoch
/// clock is purely time-driven. So two suites of one seed at equal
/// simulated time take the same values from their streams however far
/// their states diverge, which is what lets lockstep lanes
/// ([`crate::LaneBatch`]) share one stream: one lane draws and records
/// each step's values, the others replay them.
pub(crate) trait NoiseSource {
    /// The next noise value, a draw of `N(0, std_dev)`; `own` is the
    /// sampling suite's own stream.
    fn normal(&mut self, own: &mut SimRng, std_dev: f64) -> f64;
}

/// The suite's own stream: a lone simulator.
pub(crate) struct OwnStream;

impl NoiseSource for OwnStream {
    #[inline(always)]
    fn normal(&mut self, own: &mut SimRng, std_dev: f64) -> f64 {
        own.normal(0.0, std_dev)
    }
}

/// A stream shared by lockstep lanes, standing in for the drawing lane's
/// own. With `record` set, every value drawn is also appended to `tape`
/// for the sibling lanes to [`Replay`].
pub(crate) struct SharedStream<'a> {
    pub(crate) rng: &'a mut SimRng,
    pub(crate) tape: &'a mut Vec<f64>,
    pub(crate) record: bool,
}

impl NoiseSource for SharedStream<'_> {
    #[inline(always)]
    fn normal(&mut self, _own: &mut SimRng, std_dev: f64) -> f64 {
        let value = self.rng.normal(0.0, std_dev);
        if self.record {
            self.tape.push(value);
        }
        value
    }
}

/// The values a [`SharedStream`] recorded this step, returned in order:
/// the exact `f64`s the draws returned, so a replaying suite computes
/// the readings its lone run would.
pub(crate) struct Replay<'a> {
    tape: &'a [f64],
    cursor: usize,
}

impl<'a> Replay<'a> {
    pub(crate) fn new(tape: &'a [f64]) -> Self {
        Replay { tape, cursor: 0 }
    }

    /// Whether every recorded value was taken.
    pub(crate) fn is_spent(&self) -> bool {
        self.cursor == self.tape.len()
    }
}

impl NoiseSource for Replay<'_> {
    #[inline(always)]
    fn normal(&mut self, _own: &mut SimRng, _std_dev: f64) -> f64 {
        let value = self.tape[self.cursor];
        self.cursor += 1;
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Quat;

    fn level_state_at(altitude: f64) -> RigidBodyState {
        RigidBodyState {
            position: Vec3::new(0.0, 0.0, altitude),
            velocity: Vec3::ZERO,
            acceleration: Vec3::ZERO,
            attitude: Quat::IDENTITY,
            angular_velocity: Vec3::ZERO,
        }
    }

    fn noiseless_suite(config: SensorSuiteConfig) -> SensorSuite {
        let mut config = config;
        config.noise = SensorNoise::noiseless();
        SensorSuite::new(config, 1)
    }

    #[test]
    fn instance_roles() {
        assert_eq!(
            SensorInstance::new(SensorKind::Gps, 0).role(),
            SensorRole::Primary
        );
        assert_eq!(
            SensorInstance::new(SensorKind::Gps, 1).role(),
            SensorRole::Backup
        );
        assert_eq!(
            SensorInstance::new(SensorKind::Compass, 2).role(),
            SensorRole::Backup
        );
    }

    #[test]
    fn iris_config_counts() {
        let cfg = SensorSuiteConfig::iris();
        assert_eq!(cfg.total_instances(), 3 + 3 + 2 + 2 + 3 + 1);
        assert_eq!(cfg.instances().len(), cfg.total_instances());
        assert_eq!(cfg.instance_count(SensorKind::Compass), 3);
        // Exactly one primary per kind.
        for kind in SensorKind::ALL {
            let primaries = cfg
                .instances()
                .into_iter()
                .filter(|i| i.kind == kind && i.role() == SensorRole::Primary)
                .count();
            assert_eq!(primaries, 1, "{kind}");
        }
    }

    #[test]
    fn sample_produces_one_reading_per_instance() {
        let mut suite = noiseless_suite(SensorSuiteConfig::iris());
        let readings = suite.sample(&level_state_at(10.0), 0.4, 0.0, 0.001);
        assert_eq!(readings.len(), SensorSuiteConfig::iris().total_instances());
        // All instances distinct.
        let mut seen: Vec<SensorInstance> = readings.iter().map(|r| r.instance).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), readings.len());
    }

    #[test]
    fn noiseless_level_hover_measurements() {
        let mut suite = noiseless_suite(SensorSuiteConfig::minimal());
        let readings = suite.sample(&level_state_at(20.0), 0.4, 0.0, 0.001);
        for r in readings {
            match r.value {
                SensorValue::Acceleration(a) => {
                    // Level, unaccelerated flight: specific force = +g on body z.
                    assert!(a.x.abs() < 1e-9 && a.y.abs() < 1e-9);
                    assert!((a.z - GRAVITY).abs() < 1e-9);
                }
                SensorValue::AngularRate(w) => assert!(w.norm() < 1e-12),
                SensorValue::GpsFix {
                    position,
                    velocity,
                    satellites,
                } => {
                    assert!((position.z - 20.0).abs() < 1e-9);
                    assert!(velocity.norm() < 1e-9);
                    assert!(satellites >= 6);
                }
                SensorValue::PressureAltitude(alt) => assert!((alt - 20.0).abs() < 1e-9),
                SensorValue::MagneticHeading(h) => assert!(h.abs() < 1e-9),
                SensorValue::BatteryStatus { voltage, remaining } => {
                    assert!(voltage > 10.0 && voltage < 13.0);
                    assert!(remaining > 0.99);
                }
            }
        }
    }

    #[test]
    fn gps_updates_at_slower_rate() {
        let mut suite = SensorSuite::new(SensorSuiteConfig::iris(), 3);
        let state = level_state_at(15.0);
        let first = suite.sample(&state, 0.4, 0.0, 0.001);
        let second = suite.sample(&state, 0.4, 0.001, 0.001);
        let gps_first = first
            .iter()
            .find(|r| r.instance.kind == SensorKind::Gps)
            .unwrap()
            .value;
        let gps_second = second
            .iter()
            .find(|r| r.instance.kind == SensorKind::Gps)
            .unwrap()
            .value;
        // Between epochs the fix is repeated exactly (noise included).
        assert_eq!(gps_first, gps_second);
        // After the epoch interval the fix refreshes.
        let third = suite.sample(&state, 0.4, 0.25, 0.001);
        let gps_third = third
            .iter()
            .find(|r| r.instance.kind == SensorKind::Gps)
            .unwrap()
            .value;
        assert_ne!(gps_first, gps_third);
    }

    #[test]
    fn battery_drains_with_throttle() {
        let mut suite = noiseless_suite(SensorSuiteConfig::minimal());
        let state = level_state_at(5.0);
        for step in 0..10_000 {
            suite.sample(&state, 0.8, step as f64 * 0.01, 0.01);
        }
        assert!(suite.battery_remaining() < 1.0);
        assert!(suite.battery_remaining() > 0.0);
        let mut idle = noiseless_suite(SensorSuiteConfig::minimal());
        for step in 0..10_000 {
            idle.sample(&state, 0.0, step as f64 * 0.01, 0.01);
        }
        assert!(idle.battery_remaining() > suite.battery_remaining());
    }

    #[test]
    fn set_battery_remaining_clamps() {
        let mut suite = noiseless_suite(SensorSuiteConfig::minimal());
        suite.set_battery_remaining(2.0);
        assert_eq!(suite.battery_remaining(), 1.0);
        suite.set_battery_remaining(-1.0);
        assert_eq!(suite.battery_remaining(), 0.0);
    }

    #[test]
    fn same_seed_reproduces_readings() {
        let cfg = SensorSuiteConfig::iris();
        let mut a = SensorSuite::new(cfg.clone(), 77);
        let mut b = SensorSuite::new(cfg, 77);
        let state = level_state_at(8.0);
        for step in 0..50 {
            let t = step as f64 * 0.001;
            assert_eq!(
                a.sample(&state, 0.5, t, 0.001),
                b.sample(&state, 0.5, t, 0.001)
            );
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(SensorKind::Gps.to_string(), "gps");
        assert_eq!(
            SensorInstance::new(SensorKind::Compass, 2).to_string(),
            "compass[2]"
        );
        assert_eq!(SensorRole::Primary.to_string(), "primary");
    }
}
