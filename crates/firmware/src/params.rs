//! Firmware profiles and tunable parameters.
//!
//! The paper evaluates two firmware stacks, ArduPilot (ArduCopter 3.6.9)
//! and PX4 (1.9.0). They share the same architectural shape — sensor
//! frontend, estimator, mode-based navigation, failsafes — but differ in
//! defaults: arming requirements, failsafe actions, descent speeds. The
//! [`FirmwareProfile`] captures which stack is being modelled (and which
//! of the paper's bugs can apply), while [`FirmwareParams`] holds the
//! tunables the failsafe and navigation code reads.

use avis_sim::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use std::fmt;

/// Which control-firmware stack the substrate is modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FirmwareProfile {
    /// ArduPilot / ArduCopter-like behaviour.
    ArduPilotLike,
    /// PX4-like behaviour.
    Px4Like,
}

impl FirmwareProfile {
    /// Both profiles, in the order the paper reports them.
    pub const ALL: [FirmwareProfile; 2] =
        [FirmwareProfile::ArduPilotLike, FirmwareProfile::Px4Like];

    /// The short name used in reports ("ArduPilot" / "PX4").
    pub fn name(self) -> &'static str {
        match self {
            FirmwareProfile::ArduPilotLike => "ArduPilot",
            FirmwareProfile::Px4Like => "PX4",
        }
    }
}

impl fmt::Display for FirmwareProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The action a failsafe takes when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailsafeAction {
    /// Continue the mission (report only).
    Warn,
    /// Hold altitude, give up horizontal position control.
    AltHold,
    /// Land at the current position.
    Land,
    /// Return to the launch point.
    ReturnToLaunch,
    /// Disarm immediately (only sensible on the ground).
    Disarm,
}

impl FailsafeAction {
    /// Serialise the action as a stable one-byte tag.
    pub fn encode(&self, w: &mut ByteWriter) {
        let tag: u8 = match self {
            FailsafeAction::Warn => 0,
            FailsafeAction::AltHold => 1,
            FailsafeAction::Land => 2,
            FailsafeAction::ReturnToLaunch => 3,
            FailsafeAction::Disarm => 4,
        };
        w.u8(tag);
    }

    /// Decode an action previously written by [`FailsafeAction::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<FailsafeAction> {
        Ok(match r.u8()? {
            0 => FailsafeAction::Warn,
            1 => FailsafeAction::AltHold,
            2 => FailsafeAction::Land,
            3 => FailsafeAction::ReturnToLaunch,
            4 => FailsafeAction::Disarm,
            _ => return Err(CodecError::Malformed("failsafe action tag")),
        })
    }
}

impl fmt::Display for FailsafeAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailsafeAction::Warn => "warn",
            FailsafeAction::AltHold => "alt-hold",
            FailsafeAction::Land => "land",
            FailsafeAction::ReturnToLaunch => "rtl",
            FailsafeAction::Disarm => "disarm",
        };
        f.write_str(s)
    }
}

/// Tunable firmware parameters (the equivalent of ArduPilot's parameter
/// table, reduced to what the reproduction needs).
#[derive(Debug, Clone, PartialEq)]
pub struct FirmwareParams {
    /// Default takeoff / mission altitude (m).
    pub default_takeoff_altitude: f64,
    /// Cruise speed between waypoints (m/s).
    pub waypoint_speed: f64,
    /// Maximum climb rate (m/s).
    pub max_climb_rate: f64,
    /// Nominal descent rate during landing, above the final approach (m/s).
    pub land_descent_rate: f64,
    /// Final-approach descent rate below `land_final_altitude` (m/s).
    pub land_final_rate: f64,
    /// Altitude below which the final landing rate applies (m).
    pub land_final_altitude: f64,
    /// Altitude flown during return-to-launch (m).
    pub rtl_altitude: f64,
    /// Descent rate used by RTL once above home (m/s).
    pub rtl_descent_rate: f64,
    /// Horizontal distance at which a waypoint counts as reached (m).
    pub waypoint_acceptance_radius: f64,
    /// Vertical tolerance for "reached altitude" checks (m).
    pub altitude_acceptance: f64,
    /// Maximum commanded tilt angle (rad).
    pub max_tilt: f64,
    /// Battery fraction below which the low-battery failsafe fires.
    pub battery_low_threshold: f64,
    /// Battery fraction below which the critical-battery failsafe fires.
    pub battery_critical_threshold: f64,
    /// Seconds without a usable position before the GPS failsafe fires.
    pub gps_loss_timeout: f64,
    /// Action taken by the GPS-loss failsafe.
    pub gps_failsafe_action: FailsafeAction,
    /// Action taken by the IMU/EKF failsafe.
    pub imu_failsafe_action: FailsafeAction,
    /// Action taken by the low-battery failsafe.
    pub battery_low_action: FailsafeAction,
    /// Action taken by the critical-battery failsafe.
    pub battery_critical_action: FailsafeAction,
    /// Whether arming requires a healthy compass.
    pub arming_requires_compass: bool,
    /// Whether arming requires a GPS fix.
    pub arming_requires_gps: bool,
}

impl FirmwareParams {
    /// ArduPilot-like defaults.
    pub fn ardupilot() -> Self {
        FirmwareParams {
            default_takeoff_altitude: 20.0,
            waypoint_speed: 5.0,
            max_climb_rate: 2.5,
            land_descent_rate: 1.0,
            land_final_rate: 0.5,
            land_final_altitude: 10.0,
            rtl_altitude: 15.0,
            rtl_descent_rate: 1.5,
            waypoint_acceptance_radius: 2.0,
            altitude_acceptance: 1.0,
            max_tilt: 0.35,
            battery_low_threshold: 0.20,
            battery_critical_threshold: 0.10,
            gps_loss_timeout: 1.0,
            gps_failsafe_action: FailsafeAction::Land,
            imu_failsafe_action: FailsafeAction::Land,
            battery_low_action: FailsafeAction::ReturnToLaunch,
            battery_critical_action: FailsafeAction::Land,
            arming_requires_compass: false,
            arming_requires_gps: true,
        }
    }

    /// PX4-like defaults: stricter arming checks, RTL-biased failsafes.
    pub fn px4() -> Self {
        FirmwareParams {
            default_takeoff_altitude: 20.0,
            waypoint_speed: 5.0,
            max_climb_rate: 3.0,
            land_descent_rate: 0.9,
            land_final_rate: 0.5,
            land_final_altitude: 8.0,
            rtl_altitude: 20.0,
            rtl_descent_rate: 1.2,
            waypoint_acceptance_radius: 2.0,
            altitude_acceptance: 1.0,
            max_tilt: 0.4,
            battery_low_threshold: 0.25,
            battery_critical_threshold: 0.12,
            gps_loss_timeout: 0.8,
            gps_failsafe_action: FailsafeAction::AltHold,
            imu_failsafe_action: FailsafeAction::Land,
            battery_low_action: FailsafeAction::ReturnToLaunch,
            battery_critical_action: FailsafeAction::Land,
            arming_requires_compass: true,
            arming_requires_gps: true,
        }
    }

    /// Defaults for the given profile.
    pub fn for_profile(profile: FirmwareProfile) -> Self {
        match profile {
            FirmwareProfile::ArduPilotLike => FirmwareParams::ardupilot(),
            FirmwareProfile::Px4Like => FirmwareParams::px4(),
        }
    }

    /// Validates parameter sanity (positive speeds, ordered thresholds).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.default_takeoff_altitude <= 0.0 {
            return Err("default takeoff altitude must be positive".to_string());
        }
        if self.waypoint_speed <= 0.0 || self.max_climb_rate <= 0.0 {
            return Err("speeds must be positive".to_string());
        }
        if self.land_final_rate > self.land_descent_rate {
            return Err("final landing rate must not exceed the nominal landing rate".to_string());
        }
        if self.battery_critical_threshold >= self.battery_low_threshold {
            return Err("critical battery threshold must be below the low threshold".to_string());
        }
        if !(0.0..=1.0).contains(&self.battery_low_threshold)
            || !(0.0..=1.0).contains(&self.battery_critical_threshold)
        {
            return Err("battery thresholds must be fractions in [0, 1]".to_string());
        }
        if self.max_tilt <= 0.0 || self.max_tilt > 1.0 {
            return Err("max tilt must be in (0, 1] radians".to_string());
        }
        Ok(())
    }
}

impl Default for FirmwareParams {
    fn default() -> Self {
        FirmwareParams::ardupilot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        FirmwareParams::ardupilot()
            .validate()
            .expect("ardupilot defaults");
        FirmwareParams::px4().validate().expect("px4 defaults");
        FirmwareParams::default().validate().expect("default");
    }

    #[test]
    fn profiles_have_distinct_defaults() {
        let apm = FirmwareParams::ardupilot();
        let px4 = FirmwareParams::px4();
        assert_ne!(apm, px4);
        assert!(px4.arming_requires_compass);
        assert!(!apm.arming_requires_compass);
        assert_eq!(FirmwareParams::for_profile(FirmwareProfile::Px4Like), px4);
        assert_eq!(
            FirmwareParams::for_profile(FirmwareProfile::ArduPilotLike),
            apm
        );
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut p = FirmwareParams::ardupilot();
        p.default_takeoff_altitude = -1.0;
        assert!(p.validate().is_err());

        let mut p = FirmwareParams::ardupilot();
        p.land_final_rate = 10.0;
        assert!(p.validate().is_err());

        let mut p = FirmwareParams::ardupilot();
        p.battery_critical_threshold = 0.5;
        assert!(p.validate().is_err());

        let mut p = FirmwareParams::ardupilot();
        p.battery_low_threshold = 1.5;
        assert!(p.validate().is_err());

        let mut p = FirmwareParams::ardupilot();
        p.max_tilt = 0.0;
        assert!(p.validate().is_err());

        let mut p = FirmwareParams::ardupilot();
        p.waypoint_speed = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn profile_names() {
        assert_eq!(FirmwareProfile::ArduPilotLike.to_string(), "ArduPilot");
        assert_eq!(FirmwareProfile::Px4Like.to_string(), "PX4");
        assert_eq!(FirmwareProfile::ALL.len(), 2);
    }

    #[test]
    fn failsafe_action_display() {
        assert_eq!(FailsafeAction::Land.to_string(), "land");
        assert_eq!(FailsafeAction::ReturnToLaunch.to_string(), "rtl");
        assert_eq!(FailsafeAction::AltHold.to_string(), "alt-hold");
    }
}
