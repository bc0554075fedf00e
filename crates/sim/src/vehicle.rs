//! Rigid-body quadcopter model: parameters, motor dynamics and the
//! force/torque mixer.
//!
//! The model is intentionally simple but physically grounded: four motors
//! in an "X" configuration produce thrust along the body z-axis and
//! torques about all three axes; linear and angular drag oppose motion;
//! gravity acts in the world frame. This is the substrate that stands in
//! for Gazebo in the paper's evaluation — the checker only observes
//! position, acceleration and attitude, all of which this model produces.

use crate::codec::{ByteReader, ByteWriter, CodecResult};
use crate::math::{clamp, Quat, Vec3};

/// Standard gravitational acceleration (m/s²).
pub const GRAVITY: f64 = 9.80665;

/// Number of motors on the simulated quadcopter.
pub const MOTOR_COUNT: usize = 4;

/// Physical parameters of the simulated quadcopter.
///
/// Defaults approximate the 3DR Iris used in the paper's evaluation
/// (≈1.5 kg all-up weight, ~0.25 m arm length).
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleParams {
    /// Vehicle mass in kilograms.
    pub mass: f64,
    /// Moment of inertia about the body x/y axes (kg·m²).
    pub inertia_xy: f64,
    /// Moment of inertia about the body z axis (kg·m²).
    pub inertia_z: f64,
    /// Distance from the centre of mass to each motor (m).
    pub arm_length: f64,
    /// Maximum thrust of a single motor at full command (N).
    pub max_motor_thrust: f64,
    /// Yaw torque produced per newton of motor thrust (N·m/N).
    pub yaw_torque_coefficient: f64,
    /// First-order motor time constant (s).
    pub motor_time_constant: f64,
    /// Linear drag coefficient (N per m/s).
    pub linear_drag: f64,
    /// Angular drag coefficient (N·m per rad/s).
    pub angular_drag: f64,
}

impl Default for VehicleParams {
    fn default() -> Self {
        VehicleParams {
            mass: 1.5,
            inertia_xy: 0.029,
            inertia_z: 0.055,
            arm_length: 0.25,
            // Hover at ~38% throttle: 4 * 9.8 N = 39.2 N total.
            max_motor_thrust: 9.8,
            yaw_torque_coefficient: 0.016,
            motor_time_constant: 0.02,
            linear_drag: 0.3,
            angular_drag: 0.02,
        }
    }
}

impl VehicleParams {
    /// Total thrust (N) needed to hover.
    pub fn hover_thrust(&self) -> f64 {
        self.mass * GRAVITY
    }

    /// Per-motor command (0..1) that produces hover thrust.
    pub fn hover_throttle(&self) -> f64 {
        self.hover_thrust() / (MOTOR_COUNT as f64 * self.max_motor_thrust)
    }
}

/// Commanded throttle for each motor, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MotorCommands {
    /// Per-motor throttle commands in X-configuration order:
    /// front-right, back-left, front-left, back-right.
    pub throttle: [f64; MOTOR_COUNT],
}

impl MotorCommands {
    /// All motors at zero throttle.
    pub const IDLE: MotorCommands = MotorCommands {
        throttle: [0.0; MOTOR_COUNT],
    };

    /// Creates commands with every motor at the same throttle.
    pub fn uniform(throttle: f64) -> Self {
        MotorCommands {
            throttle: [clamp(throttle, 0.0, 1.0); MOTOR_COUNT],
        }
    }

    /// Creates motor commands from collective throttle plus roll, pitch and
    /// yaw differential terms. This is the standard "X" mixer.
    ///
    /// All inputs are dimensionless; the output is clamped to `[0, 1]`.
    pub fn mix(throttle: f64, roll: f64, pitch: f64, yaw: f64) -> Self {
        // X configuration, motor order: FR, BL, FL, BR.
        // FR spins CW, BL spins CW, FL spins CCW, BR spins CCW.
        let m = [
            throttle - roll + pitch + yaw, // front-right
            throttle + roll - pitch + yaw, // back-left
            throttle + roll + pitch - yaw, // front-left
            throttle - roll - pitch - yaw, // back-right
        ];
        MotorCommands {
            throttle: m.map(|v| clamp(v, 0.0, 1.0)),
        }
    }

    /// Returns the mean commanded throttle.
    pub fn mean(&self) -> f64 {
        self.throttle.iter().sum::<f64>() / MOTOR_COUNT as f64
    }

    /// Returns `true` if every command is finite and within `[0, 1]`.
    pub fn is_valid(&self) -> bool {
        self.throttle
            .iter()
            .all(|t| t.is_finite() && (0.0..=1.0).contains(t))
    }
}

/// First-order motor dynamics: the realized thrust lags the command.
#[derive(Debug, Clone, PartialEq)]
pub struct MotorBank {
    /// Current realized throttle of each motor (0..1).
    pub(crate) realized: [f64; MOTOR_COUNT],
    // snapshot: skip(static: rebuilt from the experiment config)
    pub(crate) time_constant: f64,
}

impl MotorBank {
    /// Creates a motor bank at rest.
    pub fn new(time_constant: f64) -> Self {
        MotorBank {
            realized: [0.0; MOTOR_COUNT],
            time_constant: time_constant.max(1e-4),
        }
    }

    /// Advances the motor dynamics by `dt` seconds toward `commands`.
    pub fn step(&mut self, commands: &MotorCommands, dt: f64) {
        let alpha = clamp(dt / self.time_constant, 0.0, 1.0);
        for i in 0..MOTOR_COUNT {
            let target = clamp(commands.throttle[i], 0.0, 1.0);
            self.realized[i] += (target - self.realized[i]) * alpha;
        }
    }

    /// Realized throttle of each motor.
    pub fn realized(&self) -> [f64; MOTOR_COUNT] {
        self.realized
    }

    /// Immediately stops all motors (e.g. on disarm or crash).
    pub fn cut(&mut self) {
        self.realized = [0.0; MOTOR_COUNT];
    }
}

/// Instantaneous rigid-body state of the vehicle in the world (ENU) frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigidBodyState {
    /// Position (m). `z` is altitude above ground level.
    pub position: Vec3,
    /// Velocity (m/s).
    pub velocity: Vec3,
    /// Most recent linear acceleration (m/s²), including gravity reaction.
    pub acceleration: Vec3,
    /// Attitude (body → world).
    pub attitude: Quat,
    /// Body-frame angular velocity (rad/s).
    pub angular_velocity: Vec3,
}

impl Default for RigidBodyState {
    fn default() -> Self {
        RigidBodyState {
            position: Vec3::ZERO,
            velocity: Vec3::ZERO,
            acceleration: Vec3::ZERO,
            attitude: Quat::IDENTITY,
            angular_velocity: Vec3::ZERO,
        }
    }
}

impl RigidBodyState {
    /// Returns a state at rest at the given position.
    pub fn at_rest(position: Vec3) -> Self {
        RigidBodyState {
            position,
            ..Default::default()
        }
    }

    /// Altitude above ground level (m).
    pub fn altitude(&self) -> f64 {
        self.position.z
    }

    /// Returns `true` if all state components are finite.
    pub fn is_finite(&self) -> bool {
        self.position.is_finite()
            && self.velocity.is_finite()
            && self.acceleration.is_finite()
            && self.attitude.is_finite()
            && self.angular_velocity.is_finite()
    }
}

/// The rigid-body quadcopter: parameters, motors and dynamic state.
#[derive(Debug, Clone, PartialEq)]
pub struct Quadcopter {
    // snapshot: skip(static: rebuilt from the experiment config)
    pub(crate) params: VehicleParams,
    pub(crate) motors: MotorBank,
    pub(crate) state: RigidBodyState,
    pub(crate) on_ground: bool,
}

impl Quadcopter {
    /// Creates a quadcopter resting on the ground at the origin.
    pub fn new(params: VehicleParams) -> Self {
        let motors = MotorBank::new(params.motor_time_constant);
        Quadcopter {
            params,
            motors,
            state: RigidBodyState::default(),
            on_ground: true,
        }
    }

    /// The vehicle's physical parameters.
    pub fn params(&self) -> &VehicleParams {
        &self.params
    }

    /// Current rigid body state.
    pub fn state(&self) -> &RigidBodyState {
        &self.state
    }

    /// Whether the vehicle is resting on the ground.
    pub fn on_ground(&self) -> bool {
        self.on_ground
    }

    /// Overwrites the rigid body state (used by tests and scenario setup).
    pub fn set_state(&mut self, state: RigidBodyState) {
        self.on_ground = state.position.z <= 1e-6;
        self.state = state;
    }

    /// Writes the per-run dynamic state — motor spool-up, rigid-body
    /// state and ground contact — bit-exactly for the persistent store.
    /// The parameters and the motor time constant are static per run and
    /// not written.
    pub fn encode(&self, w: &mut ByteWriter) {
        for throttle in &self.motors.realized {
            w.f64(*throttle);
        }
        self.state.position.encode(w);
        self.state.velocity.encode(w);
        self.state.acceleration.encode(w);
        self.state.attitude.encode(w);
        self.state.angular_velocity.encode(w);
        w.bool(self.on_ground);
    }

    /// Reads the state [`Quadcopter::encode`] wrote onto this vehicle,
    /// which supplies the static part: the run's genesis vehicle.
    pub fn decode_onto(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        for throttle in &mut self.motors.realized {
            *throttle = r.f64()?;
        }
        self.state = RigidBodyState {
            position: Vec3::decode(r)?,
            velocity: Vec3::decode(r)?,
            acceleration: Vec3::decode(r)?,
            attitude: Quat::decode(r)?,
            angular_velocity: Vec3::decode(r)?,
        };
        self.on_ground = r.bool()?;
        Ok(())
    }

    /// Advances the dynamics by `dt` seconds with the given motor commands
    /// and world-frame wind velocity. Returns the new state.
    ///
    /// Ground contact is modeled as a hard constraint at `z = 0`: the
    /// vehicle cannot descend below the ground plane. The impact speed at
    /// ground contact is reported by the caller's collision checker.
    pub fn step(&mut self, commands: &MotorCommands, wind: Vec3, dt: f64) -> RigidBodyState {
        debug_assert!(dt > 0.0, "time step must be positive");
        self.motors.step(commands, dt);
        let realized = self.motors.realized();

        // Per-motor thrust (N).
        let thrusts: [f64; MOTOR_COUNT] = realized.map(|t| t * self.params.max_motor_thrust);
        let total_thrust: f64 = thrusts.iter().sum();

        // Torques from the X mixer geometry. Motor order: FR, BL, FL, BR.
        let l = self.params.arm_length * std::f64::consts::FRAC_1_SQRT_2;
        let roll_torque = l * (thrusts[1] + thrusts[2] - thrusts[0] - thrusts[3]);
        let pitch_torque = l * (thrusts[0] + thrusts[2] - thrusts[1] - thrusts[3]);
        let yaw_torque = self.params.yaw_torque_coefficient
            * (thrusts[0] + thrusts[1] - thrusts[2] - thrusts[3]);

        // Angular dynamics (body frame, diagonal inertia).
        let torque = Vec3::new(roll_torque, pitch_torque, yaw_torque)
            - self.state.angular_velocity * self.params.angular_drag;
        let angular_accel = Vec3::new(
            torque.x / self.params.inertia_xy,
            torque.y / self.params.inertia_xy,
            torque.z / self.params.inertia_z,
        );
        let mut omega = self.state.angular_velocity + angular_accel * dt;
        let mut attitude = self.state.attitude.integrate(omega, dt);

        // Linear dynamics (world frame).
        let thrust_world = attitude.rotate(Vec3::new(0.0, 0.0, total_thrust));
        let air_velocity = self.state.velocity - wind;
        let drag = -air_velocity * self.params.linear_drag;
        let gravity = Vec3::new(0.0, 0.0, -GRAVITY * self.params.mass);
        let force = thrust_world + drag + gravity;
        let mut accel = force / self.params.mass;

        let mut velocity = self.state.velocity + accel * dt;
        let mut position = self.state.position + velocity * dt;

        // Ground contact.
        if position.z <= 0.0 {
            position.z = 0.0;
            if velocity.z < 0.0 {
                velocity = Vec3::new(0.0, 0.0, 0.0);
                omega = Vec3::ZERO;
            }
            self.on_ground = true;
            // On the ground the airframe cannot pitch/roll into the terrain;
            // damp attitude back toward level while keeping heading.
            let yaw = attitude.yaw();
            attitude = Quat::from_euler(0.0, 0.0, yaw);
            if total_thrust <= self.params.hover_thrust() {
                accel = Vec3::ZERO;
            }
        } else {
            self.on_ground = false;
        }

        self.state = RigidBodyState {
            position,
            velocity,
            acceleration: accel,
            attitude,
            angular_velocity: omega,
        };
        debug_assert!(
            self.state.is_finite(),
            "dynamics diverged: {:?}",
            self.state
        );
        self.state
    }

    /// Cuts motor output immediately (disarm / crash).
    pub fn cut_motors(&mut self) {
        self.motors.cut();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hover_commands(params: &VehicleParams) -> MotorCommands {
        MotorCommands::uniform(params.hover_throttle())
    }

    #[test]
    fn hover_throttle_balances_gravity() {
        let params = VehicleParams::default();
        let t = params.hover_throttle();
        assert!(t > 0.0 && t < 1.0);
        let total = t * MOTOR_COUNT as f64 * params.max_motor_thrust;
        assert!((total - params.hover_thrust()).abs() < 1e-9);
    }

    #[test]
    fn resting_on_ground_stays_put_without_thrust() {
        let mut quad = Quadcopter::new(VehicleParams::default());
        for _ in 0..1000 {
            quad.step(&MotorCommands::IDLE, Vec3::ZERO, 0.001);
        }
        assert!(quad.on_ground());
        assert!(quad.state().position.norm() < 1e-6);
    }

    #[test]
    fn full_throttle_climbs() {
        let mut quad = Quadcopter::new(VehicleParams::default());
        for _ in 0..2000 {
            quad.step(&MotorCommands::uniform(0.9), Vec3::ZERO, 0.001);
        }
        assert!(!quad.on_ground());
        assert!(
            quad.state().position.z > 1.0,
            "alt = {}",
            quad.state().position.z
        );
        assert!(quad.state().velocity.z > 0.0);
    }

    #[test]
    fn hover_roughly_holds_altitude_after_reaching_it() {
        let params = VehicleParams::default();
        let mut quad = Quadcopter::new(params.clone());
        // Climb for two seconds, then hover.
        for _ in 0..2000 {
            quad.step(&MotorCommands::uniform(0.7), Vec3::ZERO, 0.001);
        }
        let alt_after_climb = quad.state().position.z;
        // With exact hover throttle, drag damps vertical speed; altitude
        // should not change dramatically over the next second.
        for _ in 0..1000 {
            quad.step(&hover_commands(&params), Vec3::ZERO, 0.001);
        }
        let alt_final = quad.state().position.z;
        assert!(alt_final > alt_after_climb * 0.8);
    }

    #[test]
    fn differential_thrust_produces_roll() {
        let mut quad = Quadcopter::new(VehicleParams::default());
        // Lift off first.
        for _ in 0..1500 {
            quad.step(&MotorCommands::uniform(0.8), Vec3::ZERO, 0.001);
        }
        // Apply a roll command.
        let cmd = MotorCommands::mix(0.5, 0.2, 0.0, 0.0);
        for _ in 0..200 {
            quad.step(&cmd, Vec3::ZERO, 0.001);
        }
        let (roll, _, _) = quad.state().attitude.to_euler();
        assert!(roll.abs() > 0.01, "roll = {roll}");
    }

    #[test]
    fn yaw_command_produces_heading_change() {
        let mut quad = Quadcopter::new(VehicleParams::default());
        for _ in 0..1500 {
            quad.step(&MotorCommands::uniform(0.8), Vec3::ZERO, 0.001);
        }
        let yaw_before = quad.state().attitude.yaw();
        let cmd = MotorCommands::mix(0.5, 0.0, 0.0, 0.3);
        for _ in 0..500 {
            quad.step(&cmd, Vec3::ZERO, 0.001);
        }
        let yaw_after = quad.state().attitude.yaw();
        assert!((yaw_after - yaw_before).abs() > 0.05);
    }

    #[test]
    fn wind_pushes_vehicle_downwind() {
        let params = VehicleParams::default();
        let mut quad = Quadcopter::new(params.clone());
        for _ in 0..1500 {
            quad.step(&MotorCommands::uniform(0.8), Vec3::ZERO, 0.001);
        }
        let x_before = quad.state().position.x;
        let wind = Vec3::new(8.0, 0.0, 0.0);
        for _ in 0..2000 {
            quad.step(&hover_commands(&params), wind, 0.001);
        }
        assert!(quad.state().position.x > x_before + 0.5);
    }

    #[test]
    fn mixer_clamps_to_unit_interval() {
        let cmd = MotorCommands::mix(1.5, 1.0, -1.0, 0.5);
        assert!(cmd.is_valid());
        let cmd = MotorCommands::mix(-1.0, 0.0, 0.0, 0.0);
        assert!(cmd.is_valid());
        assert_eq!(cmd.mean(), 0.0);
    }

    #[test]
    fn motor_bank_lags_command() {
        let mut bank = MotorBank::new(0.05);
        bank.step(&MotorCommands::uniform(1.0), 0.001);
        let first = bank.realized()[0];
        assert!(first > 0.0 && first < 0.1);
        for _ in 0..1000 {
            bank.step(&MotorCommands::uniform(1.0), 0.001);
        }
        assert!(bank.realized()[0] > 0.99);
        bank.cut();
        assert_eq!(bank.realized(), [0.0; MOTOR_COUNT]);
    }

    #[test]
    fn set_state_updates_on_ground_flag() {
        let mut quad = Quadcopter::new(VehicleParams::default());
        let mut s = RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 10.0));
        quad.set_state(s);
        assert!(!quad.on_ground());
        s.position.z = 0.0;
        quad.set_state(s);
        assert!(quad.on_ground());
    }
}
