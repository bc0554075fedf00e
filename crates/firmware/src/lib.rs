//! # avis-firmware
//!
//! A mode-based UAV control-firmware substrate standing in for ArduPilot
//! and PX4 in the Avis reproduction (DSN 2021).
//!
//! The paper checks two real firmware stacks by instrumenting their sensor
//! drivers and mode-change routine. This crate provides a firmware with
//! the same architectural shape and the same observable surface:
//!
//! - a sensor [`frontend`] whose driver reads consult the `avis-hinj`
//!   fault injector and fail over to redundant instances,
//! - a complementary-filter [`estimator`] with realistic degradation when
//!   sensors are lost,
//! - a [`failsafe`] engine (GPS / IMU / battery / compass / altitude),
//! - a mode-aware [`nav`]igation cascade driving the motor mixer,
//! - a [`mission`] manager with the vehicle-driven upload protocol,
//! - operating [`modes`] whose transitions are reported to the fault
//!   injector (the paper's `hinj_update_mode()`), and
//! - a catalog of injectable [`bugs`] with their runtime behaviour in
//!   [`defects`], reproducing the 15 defects evaluated in the paper.
//!
//! # Example
//!
//! ```
//! use avis_firmware::{BugSet, Firmware, FirmwareProfile};
//! use avis_hinj::SharedInjector;
//!
//! let injector = SharedInjector::passthrough();
//! let firmware = Firmware::new(FirmwareProfile::ArduPilotLike, BugSet::none(), injector);
//! assert!(!firmware.armed());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bugs;
pub mod defects;
pub mod estimator;
pub mod failsafe;
pub mod firmware;
pub mod frontend;
pub mod mission;
pub mod modes;
pub mod nav;
pub mod params;
pub mod pid;

pub use bugs::{BugId, BugInfo, BugSet, BugSymptom};
pub use defects::{DefectContext, DefectEngine, DefectOverrides};
pub use estimator::{EstimatorState, StateEstimator};
pub use failsafe::{FailsafeCause, FailsafeEngine, FailsafeEvent};
pub use firmware::{Firmware, FirmwareSnapshot, Telemetry};
pub use frontend::{SelectedSensors, SensorFrontend, SensorHealth};
pub use mission::MissionManager;
pub use modes::{ModeCategory, OperatingMode};
pub use nav::{NavGains, Navigator, Setpoint};
pub use params::{FailsafeAction, FirmwareParams, FirmwareProfile};
pub use pid::Pid;
