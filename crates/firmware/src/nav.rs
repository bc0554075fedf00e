//! The navigation controller: translates a per-mode [`Setpoint`] into
//! motor commands through a position → velocity → attitude → mixer
//! cascade, exactly the "mode-aware navigation" block of the paper's
//! Figure 2.

use crate::estimator::EstimatorState;
use crate::params::FirmwareParams;
use avis_sim::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use avis_sim::math::{clamp, wrap_angle};
use avis_sim::{MotorCommands, Vec3, GRAVITY};

/// What the active mode asks the navigator to do this step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setpoint {
    /// Motors off (disarmed or crashed).
    Idle,
    /// Armed on the ground, motors at idle spin.
    GroundIdle,
    /// Climb to an altitude while holding a horizontal position.
    ClimbTo {
        /// Target altitude (m).
        altitude: f64,
        /// Horizontal hold position (m).
        hold: Vec3,
    },
    /// Fly to a 3-D position at a cruise speed.
    GotoPosition {
        /// Target position (z is the target altitude).
        target: Vec3,
        /// Cruise speed (m/s).
        speed: f64,
    },
    /// Hold a 3-D position.
    HoldPosition {
        /// Position to hold (z is the altitude to hold).
        target: Vec3,
    },
    /// Hold altitude only; no horizontal control.
    HoldAltitude {
        /// Altitude to hold (m).
        altitude: f64,
    },
    /// Descend at a fixed rate, optionally holding a horizontal position.
    Descend {
        /// Descent rate (m/s, positive number).
        rate: f64,
        /// Optional horizontal hold position.
        hold: Option<Vec3>,
    },
    /// Command a vertical speed directly (used by defect overrides).
    VerticalSpeed {
        /// Vertical speed (m/s, positive = climb).
        rate: f64,
        /// Optional horizontal hold position.
        hold: Option<Vec3>,
    },
    /// Command a horizontal velocity directly while holding altitude
    /// (used by defect overrides that model fly-aways).
    HorizontalVelocity {
        /// Desired world-frame horizontal velocity (m/s).
        velocity: Vec3,
        /// Altitude to hold (m).
        altitude: f64,
    },
    /// Fixed throttle with level attitude (used by defect overrides).
    RawThrottle {
        /// Collective throttle in `[0, 1]`.
        throttle: f64,
    },
}

impl Setpoint {
    /// Serialise the setpoint as a stable one-byte tag plus payload.
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            Setpoint::Idle => w.u8(0),
            Setpoint::GroundIdle => w.u8(1),
            Setpoint::ClimbTo { altitude, hold } => {
                w.u8(2);
                w.f64(*altitude);
                hold.encode(w);
            }
            Setpoint::GotoPosition { target, speed } => {
                w.u8(3);
                target.encode(w);
                w.f64(*speed);
            }
            Setpoint::HoldPosition { target } => {
                w.u8(4);
                target.encode(w);
            }
            Setpoint::HoldAltitude { altitude } => {
                w.u8(5);
                w.f64(*altitude);
            }
            Setpoint::Descend { rate, hold } => {
                w.u8(6);
                w.f64(*rate);
                w.option(hold.as_ref(), |w, v| v.encode(w));
            }
            Setpoint::VerticalSpeed { rate, hold } => {
                w.u8(7);
                w.f64(*rate);
                w.option(hold.as_ref(), |w, v| v.encode(w));
            }
            Setpoint::HorizontalVelocity { velocity, altitude } => {
                w.u8(8);
                velocity.encode(w);
                w.f64(*altitude);
            }
            Setpoint::RawThrottle { throttle } => {
                w.u8(9);
                w.f64(*throttle);
            }
        }
    }

    /// Decode a setpoint previously written by [`Setpoint::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Setpoint> {
        Ok(match r.u8()? {
            0 => Setpoint::Idle,
            1 => Setpoint::GroundIdle,
            2 => Setpoint::ClimbTo {
                altitude: r.f64()?,
                hold: Vec3::decode(r)?,
            },
            3 => Setpoint::GotoPosition {
                target: Vec3::decode(r)?,
                speed: r.f64()?,
            },
            4 => Setpoint::HoldPosition {
                target: Vec3::decode(r)?,
            },
            5 => Setpoint::HoldAltitude { altitude: r.f64()? },
            6 => Setpoint::Descend {
                rate: r.f64()?,
                hold: r.option(Vec3::decode)?,
            },
            7 => Setpoint::VerticalSpeed {
                rate: r.f64()?,
                hold: r.option(Vec3::decode)?,
            },
            8 => Setpoint::HorizontalVelocity {
                velocity: Vec3::decode(r)?,
                altitude: r.f64()?,
            },
            9 => Setpoint::RawThrottle { throttle: r.f64()? },
            _ => return Err(CodecError::Malformed("setpoint tag")),
        })
    }
}

/// Navigation gains (inner and outer loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NavGains {
    /// Position error → velocity demand (1/s).
    pub kp_pos: f64,
    /// Velocity error → acceleration demand (1/s).
    pub kp_vel: f64,
    /// Altitude error → climb-rate demand (1/s).
    pub kp_alt: f64,
    /// Climb-rate error → throttle.
    pub kp_climb: f64,
    /// Attitude error → mixer command.
    pub kp_att: f64,
    /// Body-rate damping → mixer command.
    pub kd_att: f64,
    /// Heading error → yaw mixer command.
    pub kp_yaw: f64,
    /// Yaw-rate damping → yaw mixer command.
    pub kd_yaw: f64,
    /// Maximum horizontal acceleration demand (m/s²).
    pub max_accel: f64,
    /// Baseline hover throttle.
    pub hover_throttle: f64,
}

impl Default for NavGains {
    fn default() -> Self {
        NavGains {
            kp_pos: 0.7,
            kp_vel: 1.0,
            kp_alt: 1.0,
            kp_climb: 0.12,
            kp_att: 3.0,
            kd_att: 0.25,
            kp_yaw: 1.0,
            kd_yaw: 0.5,
            max_accel: 3.0,
            hover_throttle: 0.38,
        }
    }
}

/// The navigation controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Navigator {
    // snapshot: skip(static: rebuilt from the experiment config)
    gains: NavGains,
    // snapshot: skip(static: rebuilt from the experiment config)
    max_tilt: f64,
    // snapshot: skip(static: rebuilt from the experiment config)
    max_climb_rate: f64,
    /// Slow throttle trim integrator compensating for mass/thrust mismatch.
    hover_trim: f64,
    /// Heading held while no explicit yaw command is given.
    yaw_hold: f64,
}

impl Navigator {
    /// Creates a navigator from firmware parameters.
    pub fn new(params: &FirmwareParams) -> Self {
        Navigator {
            gains: NavGains::default(),
            max_tilt: params.max_tilt,
            max_climb_rate: params.max_climb_rate,
            hover_trim: 0.0,
            yaw_hold: 0.0,
        }
    }

    /// Creates a navigator with explicit gains (tests, ablations).
    pub fn with_gains(gains: NavGains, max_tilt: f64, max_climb_rate: f64) -> Self {
        Navigator {
            gains,
            max_tilt,
            max_climb_rate,
            hover_trim: 0.0,
            yaw_hold: 0.0,
        }
    }

    /// Resets transient controller state (on arming).
    pub fn reset(&mut self, yaw: f64) {
        self.hover_trim = 0.0;
        self.yaw_hold = yaw;
    }

    /// Writes the per-run dynamic state — the hover-trim integrator and
    /// the held heading — bit-exactly for the persistent store. Gains and
    /// limits are static per run and not written.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.f64(self.hover_trim);
        w.f64(self.yaw_hold);
    }

    /// Reads the state [`Navigator::encode`] wrote onto this navigator,
    /// which supplies the gains and limits: the run's genesis navigator.
    pub fn decode_onto(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        self.hover_trim = r.f64()?;
        self.yaw_hold = r.f64()?;
        Ok(())
    }

    /// Computes motor commands for the given setpoint.
    ///
    /// `rates` are the measured body angular rates (zero if the gyroscope
    /// is unavailable — the cascade then loses its rate damping, which is
    /// the realistic degradation).
    pub fn update(
        &mut self,
        setpoint: Setpoint,
        est: &EstimatorState,
        rates: Vec3,
        dt: f64,
    ) -> MotorCommands {
        let g = self.gains;
        match setpoint {
            Setpoint::Idle => return MotorCommands::IDLE,
            Setpoint::GroundIdle => return MotorCommands::uniform(0.12),
            Setpoint::RawThrottle { throttle } => {
                let t = clamp(throttle, 0.0, 1.0);
                return self.attitude_mix(t, 0.0, 0.0, est, rates);
            }
            _ => {}
        }

        // Desired vertical speed and horizontal velocity in the world frame.
        let (vz_des, v_des): (f64, Option<Vec3>) = match setpoint {
            Setpoint::ClimbTo { altitude, hold } => (
                clamp(
                    g.kp_alt * (altitude - est.altitude),
                    -1.0,
                    self.max_climb_rate,
                ),
                Some(self.velocity_toward(hold, est, 2.0)),
            ),
            Setpoint::GotoPosition { target, speed } => (
                clamp(
                    g.kp_alt * (target.z - est.altitude),
                    -1.5,
                    self.max_climb_rate,
                ),
                Some(self.velocity_toward(target, est, speed)),
            ),
            Setpoint::HoldPosition { target } => (
                clamp(
                    g.kp_alt * (target.z - est.altitude),
                    -1.5,
                    self.max_climb_rate,
                ),
                Some(self.velocity_toward(target, est, 2.5)),
            ),
            Setpoint::HoldAltitude { altitude } => (
                clamp(
                    g.kp_alt * (altitude - est.altitude),
                    -1.5,
                    self.max_climb_rate,
                ),
                None,
            ),
            Setpoint::Descend { rate, hold } => {
                (-rate.abs(), hold.map(|h| self.velocity_toward(h, est, 1.5)))
            }
            Setpoint::VerticalSpeed { rate, hold } => {
                (rate, hold.map(|h| self.velocity_toward(h, est, 1.5)))
            }
            Setpoint::HorizontalVelocity { velocity, altitude } => (
                clamp(
                    g.kp_alt * (altitude - est.altitude),
                    -1.5,
                    self.max_climb_rate,
                ),
                Some(Vec3::new(velocity.x, velocity.y, 0.0)),
            ),
            Setpoint::Idle | Setpoint::GroundIdle | Setpoint::RawThrottle { .. } => unreachable!(),
        };

        // Throttle from the climb-rate loop plus the slow hover trim.
        let climb_err = vz_des - est.climb_rate;
        self.hover_trim = clamp(self.hover_trim + 0.02 * dt * climb_err, -0.15, 0.15);
        let throttle = clamp(
            g.hover_throttle + self.hover_trim + g.kp_climb * climb_err,
            0.05,
            1.0,
        );

        // Horizontal velocity loop → desired tilt.
        let (roll_des, pitch_des) = match v_des {
            Some(v) => {
                let ax = clamp(g.kp_vel * (v.x - est.velocity.x), -g.max_accel, g.max_accel);
                let ay = clamp(g.kp_vel * (v.y - est.velocity.y), -g.max_accel, g.max_accel);
                // Rotate the world-frame acceleration demand into the
                // heading frame.
                let (sy, cy) = est.yaw.sin_cos();
                let ax_h = cy * ax + sy * ay;
                let ay_h = -sy * ax + cy * ay;
                let pitch = clamp(ax_h / GRAVITY, -self.max_tilt, self.max_tilt);
                let roll = clamp(-ay_h / GRAVITY, -self.max_tilt, self.max_tilt);
                (roll, pitch)
            }
            None => (0.0, 0.0),
        };

        self.attitude_mix(throttle, roll_des, pitch_des, est, rates)
    }

    /// Desired world-frame velocity toward a target position.
    fn velocity_toward(&self, target: Vec3, est: &EstimatorState, speed: f64) -> Vec3 {
        let err = Vec3::new(target.x - est.position.x, target.y - est.position.y, 0.0);
        (err * self.gains.kp_pos).clamp_norm(speed.max(0.1))
    }

    /// Inner attitude loop and mixer.
    fn attitude_mix(
        &mut self,
        throttle: f64,
        roll_des: f64,
        pitch_des: f64,
        est: &EstimatorState,
        rates: Vec3,
    ) -> MotorCommands {
        let g = self.gains;
        let roll_cmd = clamp(
            g.kp_att * (roll_des - est.roll) - g.kd_att * rates.x,
            -0.4,
            0.4,
        );
        let pitch_cmd = clamp(
            g.kp_att * (pitch_des - est.pitch) - g.kd_att * rates.y,
            -0.4,
            0.4,
        );
        let yaw_cmd = clamp(
            g.kp_yaw * wrap_angle(self.yaw_hold - est.yaw) - g.kd_yaw * rates.z,
            -0.2,
            0.2,
        );
        MotorCommands::mix(throttle, roll_cmd, pitch_cmd, yaw_cmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_sim::simulator::{SimConfig, Simulator};
    use avis_sim::{Environment, SensorNoise};

    const DT: f64 = 0.001;

    /// Runs the navigator closed-loop against the true simulator state
    /// (perfect state feedback), isolating the control cascade from the
    /// estimator.
    fn run_with_perfect_state(
        nav: &mut Navigator,
        sim: &mut Simulator,
        setpoint: impl Fn(f64, &EstimatorState) -> Setpoint,
        steps: usize,
    ) -> EstimatorState {
        let mut est = perfect_estimate(sim);
        for _ in 0..steps {
            let sp = setpoint(sim.time(), &est);
            let rates = sim.true_state().angular_velocity;
            let cmd = nav.update(sp, &est, rates, DT);
            sim.step(&cmd);
            est = perfect_estimate(sim);
        }
        est
    }

    fn perfect_estimate(sim: &Simulator) -> EstimatorState {
        let s = sim.true_state();
        let (roll, pitch, yaw) = s.attitude.to_euler();
        EstimatorState {
            roll,
            pitch,
            yaw,
            altitude: s.position.z,
            climb_rate: s.velocity.z,
            position: s.position,
            velocity: s.velocity,
            position_ok: true,
            altitude_ok: true,
            gps_loss_seconds: 0.0,
        }
    }

    fn quiet_sim() -> Simulator {
        let mut config = SimConfig::default();
        config.sensors.noise = SensorNoise::noiseless();
        Simulator::new(config, Environment::open_field())
    }

    fn default_nav() -> Navigator {
        Navigator::new(&FirmwareParams::ardupilot())
    }

    #[test]
    fn climbs_to_target_altitude() {
        let mut nav = default_nav();
        let mut sim = quiet_sim();
        let est = run_with_perfect_state(
            &mut nav,
            &mut sim,
            |_, _| Setpoint::ClimbTo {
                altitude: 20.0,
                hold: Vec3::ZERO,
            },
            25_000,
        );
        assert!(
            (est.altitude - 20.0).abs() < 1.5,
            "altitude {}",
            est.altitude
        );
        assert!(est.position.horizontal_distance(Vec3::ZERO) < 2.0);
        assert!(sim.first_collision().is_none());
    }

    #[test]
    fn flies_to_waypoint() {
        let mut nav = default_nav();
        let mut sim = quiet_sim();
        // Climb first.
        run_with_perfect_state(
            &mut nav,
            &mut sim,
            |_, _| Setpoint::ClimbTo {
                altitude: 15.0,
                hold: Vec3::ZERO,
            },
            15_000,
        );
        let target = Vec3::new(20.0, 10.0, 15.0);
        let est = run_with_perfect_state(
            &mut nav,
            &mut sim,
            move |_, _| Setpoint::GotoPosition { target, speed: 5.0 },
            25_000,
        );
        assert!(
            est.position.horizontal_distance(target) < 2.5,
            "pos {:?}",
            est.position
        );
        assert!((est.altitude - 15.0).abs() < 2.0);
        assert!(sim.first_collision().is_none());
    }

    #[test]
    fn holds_position_against_wind() {
        use avis_sim::Wind;
        let mut config = SimConfig::default();
        config.sensors.noise = SensorNoise::noiseless();
        let env = Environment::open_field().with_wind(Wind::steady(Vec3::new(3.0, 0.0, 0.0)));
        let mut sim = Simulator::new(config, env);
        let mut nav = default_nav();
        run_with_perfect_state(
            &mut nav,
            &mut sim,
            |_, _| Setpoint::ClimbTo {
                altitude: 10.0,
                hold: Vec3::ZERO,
            },
            12_000,
        );
        let hold = Vec3::new(0.0, 0.0, 10.0);
        let est = run_with_perfect_state(
            &mut nav,
            &mut sim,
            move |_, _| Setpoint::HoldPosition { target: hold },
            20_000,
        );
        assert!(
            est.position.horizontal_distance(hold) < 3.0,
            "pos {:?}",
            est.position
        );
        assert!(sim.first_collision().is_none());
    }

    #[test]
    fn gentle_descent_lands_without_crash() {
        let mut nav = default_nav();
        let mut sim = quiet_sim();
        run_with_perfect_state(
            &mut nav,
            &mut sim,
            |_, _| Setpoint::ClimbTo {
                altitude: 12.0,
                hold: Vec3::ZERO,
            },
            14_000,
        );
        let est = run_with_perfect_state(
            &mut nav,
            &mut sim,
            |_, _| Setpoint::Descend {
                rate: 0.8,
                hold: Some(Vec3::ZERO),
            },
            25_000,
        );
        assert!(est.altitude < 0.3, "altitude {}", est.altitude);
        assert!(
            sim.first_collision().is_none(),
            "gentle landing must not register a crash"
        );
    }

    #[test]
    fn fast_descent_from_altitude_crashes() {
        let mut nav = default_nav();
        let mut sim = quiet_sim();
        run_with_perfect_state(
            &mut nav,
            &mut sim,
            |_, _| Setpoint::ClimbTo {
                altitude: 15.0,
                hold: Vec3::ZERO,
            },
            16_000,
        );
        run_with_perfect_state(
            &mut nav,
            &mut sim,
            |_, _| Setpoint::VerticalSpeed {
                rate: -3.0,
                hold: Some(Vec3::ZERO),
            },
            15_000,
        );
        assert!(
            sim.first_collision().is_some(),
            "a 3 m/s descent into the ground is a crash"
        );
    }

    #[test]
    fn horizontal_velocity_setpoint_moves_vehicle() {
        let mut nav = default_nav();
        let mut sim = quiet_sim();
        run_with_perfect_state(
            &mut nav,
            &mut sim,
            |_, _| Setpoint::ClimbTo {
                altitude: 15.0,
                hold: Vec3::ZERO,
            },
            16_000,
        );
        let est = run_with_perfect_state(
            &mut nav,
            &mut sim,
            |_, _| Setpoint::HorizontalVelocity {
                velocity: Vec3::new(4.0, 0.0, 0.0),
                altitude: 15.0,
            },
            10_000,
        );
        assert!(est.position.x > 15.0, "x = {}", est.position.x);
        assert!((est.altitude - 15.0).abs() < 3.0);
    }

    #[test]
    fn idle_and_ground_idle_commands() {
        let mut nav = default_nav();
        let est = EstimatorState::default();
        let idle = nav.update(Setpoint::Idle, &est, Vec3::ZERO, DT);
        assert_eq!(idle, MotorCommands::IDLE);
        let ground = nav.update(Setpoint::GroundIdle, &est, Vec3::ZERO, DT);
        assert!(ground.mean() > 0.0 && ground.mean() < 0.2);
    }

    #[test]
    fn raw_throttle_is_clamped_and_level() {
        let mut nav = default_nav();
        let est = EstimatorState::default();
        let cmd = nav.update(
            Setpoint::RawThrottle { throttle: 2.0 },
            &est,
            Vec3::ZERO,
            DT,
        );
        assert!(cmd.is_valid());
        assert!(cmd.mean() > 0.8);
    }

    #[test]
    fn reset_sets_heading_hold() {
        let mut nav = default_nav();
        nav.reset(1.0);
        let est = EstimatorState {
            yaw: 0.0,
            ..EstimatorState::default()
        };
        // With heading hold at 1.0 rad and yaw 0, the yaw command is positive,
        // which raises motors 0/1 relative to 2/3 in the mixer.
        let cmd = nav.update(
            Setpoint::HoldAltitude { altitude: 0.0 },
            &est,
            Vec3::ZERO,
            DT,
        );
        assert!(cmd.throttle[0] > cmd.throttle[2]);
    }
}
