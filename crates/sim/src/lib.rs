//! # avis-sim
//!
//! Quadcopter physics, environment and sensor simulator for the Avis
//! reproduction (DSN 2021, "Avis: In-Situ Model Checking for Unmanned
//! Aerial Vehicles").
//!
//! This crate is the substitute for the Gazebo/SITL simulation stack the
//! paper evaluates against. It provides everything the checker and the
//! firmware substrate need from a physics backend:
//!
//! - a rigid-body quadcopter model with motor dynamics ([`vehicle`]),
//! - an environment with ground, obstacles, geofences and wind
//!   ([`environment`]),
//! - a redundant sensor suite with realistic noise ([`sensors`]),
//! - a deterministic, lock-step [`simulator::Simulator`] advancing in
//!   fixed 1 ms time-steps,
//! - deterministic randomness ([`rng`]) so fault-injection scenarios can
//!   be replayed exactly.
//!
//! # Example
//!
//! ```
//! use avis_sim::simulator::Simulator;
//! use avis_sim::vehicle::MotorCommands;
//!
//! let mut sim = Simulator::with_defaults();
//! // Climb at 80% throttle for two simulated seconds.
//! for _ in 0..2000 {
//!     sim.step(&MotorCommands::uniform(0.8));
//! }
//! assert!(sim.physical_state().position.z > 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod codec;
pub mod cow;
pub mod environment;
pub mod math;
pub mod rng;
pub mod sensors;
pub mod simulator;
pub mod vehicle;

pub use batch::LaneBatch;
pub use codec::{ByteReader, ByteWriter, CodecError, CodecResult};
pub use cow::{ChunkMemo, ChunkSink, ChunkSource, CowVec};
pub use environment::{
    BoxObstacle, Collision, CollisionKind, Environment, Fence, FenceRegion, Wind,
};
pub use math::{Quat, Vec3};
pub use rng::SimRng;
pub use sensors::{
    SensorInstance, SensorKind, SensorNoise, SensorReading, SensorRole, SensorSuite,
    SensorSuiteConfig, SensorValue,
};
pub use simulator::{PhysicalState, SimConfig, Simulator, StepOutput};
pub use vehicle::{MotorCommands, Quadcopter, RigidBodyState, VehicleParams, GRAVITY, MOTOR_COUNT};
