//! Operating modes.
//!
//! An *operating mode* encompasses all code execution associated with a
//! pilot command (§II). The paper's key insight is that sensor-failure
//! handling logic is often tailored to specific modes, so the checker
//! injects failures at the *transitions* between modes. The firmware
//! reports every mode change to the fault injector (`hinj_update_mode()`
//! in the paper), including transitions between mission legs inside the
//! Auto mode — those are the "Waypoint 1 → Waypoint 2" windows that appear
//! in the paper's Table II.

use avis_hinj::ModeCode;
use avis_mavlite::ProtocolMode;
use avis_sim::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use std::fmt;

/// The firmware's operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatingMode {
    /// On the ground, disarmed, running pre-flight checks.
    PreFlight,
    /// Climbing to the commanded takeoff altitude.
    Takeoff,
    /// Executing the uploaded mission; `leg` is the active mission item.
    Auto {
        /// Index of the active mission item.
        leg: u8,
    },
    /// Guided (ground-station driven) reposition flight.
    Guided,
    /// Manual attitude stabilisation (no position or altitude hold).
    Stabilize,
    /// Altitude hold with manual horizontal control.
    AltHold,
    /// Position hold (loiter).
    PosHold,
    /// Aggressively stop and hold position.
    Brake,
    /// Descending to land at the current position.
    Land,
    /// Returning to the launch point, then landing.
    ReturnToLaunch,
    /// The airframe crashed; motors are stopped.
    Crashed,
}

impl OperatingMode {
    /// A stable numeric code for the mode, reported to the fault injector.
    ///
    /// Auto legs get distinct codes so that waypoint-to-waypoint
    /// transitions are visible to SABRE as mode transitions.
    pub fn code(self) -> ModeCode {
        match self {
            OperatingMode::PreFlight => ModeCode(0),
            OperatingMode::Takeoff => ModeCode(1),
            OperatingMode::Guided => ModeCode(2),
            OperatingMode::Stabilize => ModeCode(3),
            OperatingMode::AltHold => ModeCode(4),
            OperatingMode::PosHold => ModeCode(5),
            OperatingMode::Brake => ModeCode(6),
            OperatingMode::Land => ModeCode(7),
            OperatingMode::ReturnToLaunch => ModeCode(8),
            OperatingMode::Crashed => ModeCode(9),
            OperatingMode::Auto { leg } => ModeCode(100 + leg as u32),
        }
    }

    /// Reconstructs a mode from its code, if the code is valid.
    pub fn from_code(code: ModeCode) -> Option<OperatingMode> {
        Some(match code.0 {
            0 => OperatingMode::PreFlight,
            1 => OperatingMode::Takeoff,
            2 => OperatingMode::Guided,
            3 => OperatingMode::Stabilize,
            4 => OperatingMode::AltHold,
            5 => OperatingMode::PosHold,
            6 => OperatingMode::Brake,
            7 => OperatingMode::Land,
            8 => OperatingMode::ReturnToLaunch,
            9 => OperatingMode::Crashed,
            n if (100..=355).contains(&n) => OperatingMode::Auto {
                leg: (n - 100) as u8,
            },
            _ => return None,
        })
    }

    /// A short human-readable name.
    pub fn name(self) -> String {
        match self {
            OperatingMode::PreFlight => "pre-flight".to_string(),
            OperatingMode::Takeoff => "takeoff".to_string(),
            OperatingMode::Auto { leg } => format!("auto[wp{leg}]"),
            OperatingMode::Guided => "guided".to_string(),
            OperatingMode::Stabilize => "stabilize".to_string(),
            OperatingMode::AltHold => "alt-hold".to_string(),
            OperatingMode::PosHold => "pos-hold".to_string(),
            OperatingMode::Brake => "brake".to_string(),
            OperatingMode::Land => "land".to_string(),
            OperatingMode::ReturnToLaunch => "rtl".to_string(),
            OperatingMode::Crashed => "crashed".to_string(),
        }
    }

    /// Whether the vehicle is flying a mission leg in this mode.
    pub fn is_auto(self) -> bool {
        matches!(self, OperatingMode::Auto { .. })
    }

    /// Whether this mode requires a valid horizontal position estimate.
    pub fn requires_position(self) -> bool {
        matches!(
            self,
            OperatingMode::Auto { .. }
                | OperatingMode::Guided
                | OperatingMode::PosHold
                | OperatingMode::Brake
                | OperatingMode::ReturnToLaunch
        )
    }

    /// Whether this is one of the fail-safe "safe modes" the invariant
    /// monitor permits even when it sacrifices liveliness (§IV.C.2).
    pub fn is_safe_mode(self) -> bool {
        matches!(
            self,
            OperatingMode::Land | OperatingMode::ReturnToLaunch | OperatingMode::Brake
        )
    }

    /// Serialise the mode as its stable numeric [`ModeCode`].
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u32(self.code().0);
    }

    /// Decode a mode previously written by [`OperatingMode::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<OperatingMode> {
        OperatingMode::from_code(ModeCode(r.u32()?))
            .ok_or(CodecError::Malformed("operating mode code"))
    }

    /// The coarse category used by the paper's Table IV breakdown
    /// (Takeoff / Manual / Waypoint / Land).
    pub fn category(self) -> ModeCategory {
        match self {
            OperatingMode::PreFlight | OperatingMode::Takeoff => ModeCategory::Takeoff,
            OperatingMode::Auto { .. } => ModeCategory::Waypoint,
            OperatingMode::Land | OperatingMode::ReturnToLaunch => ModeCategory::Land,
            OperatingMode::Crashed => ModeCategory::Land,
            _ => ModeCategory::Manual,
        }
    }
}

impl fmt::Display for OperatingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Coarse mode categories, matching the columns of the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModeCategory {
    /// Pre-flight and takeoff.
    Takeoff,
    /// Manual / pilot-stabilised modes (stabilize, alt-hold, pos-hold, guided).
    Manual,
    /// Autonomous waypoint flight.
    Waypoint,
    /// Landing and return-to-launch.
    Land,
}

impl ModeCategory {
    /// All categories in Table IV column order.
    pub const ALL: [ModeCategory; 4] = [
        ModeCategory::Takeoff,
        ModeCategory::Manual,
        ModeCategory::Waypoint,
        ModeCategory::Land,
    ];
}

impl fmt::Display for ModeCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModeCategory::Takeoff => "Takeoff",
            ModeCategory::Manual => "Manual",
            ModeCategory::Waypoint => "Waypoint",
            ModeCategory::Land => "Land",
        };
        f.write_str(s)
    }
}

/// Maps a protocol-level mode request to an internal operating mode.
pub fn mode_from_protocol(mode: ProtocolMode) -> OperatingMode {
    match mode {
        ProtocolMode::Stabilize => OperatingMode::Stabilize,
        ProtocolMode::AltHold => OperatingMode::AltHold,
        ProtocolMode::PosHold => OperatingMode::PosHold,
        ProtocolMode::Auto => OperatingMode::Auto { leg: 0 },
        ProtocolMode::Guided => OperatingMode::Guided,
        ProtocolMode::Land => OperatingMode::Land,
        ProtocolMode::ReturnToLaunch => OperatingMode::ReturnToLaunch,
    }
}

/// Maps an internal operating mode back to the closest protocol mode for
/// heartbeat reporting.
pub fn mode_to_protocol(mode: OperatingMode) -> ProtocolMode {
    match mode {
        OperatingMode::PreFlight | OperatingMode::Stabilize | OperatingMode::Crashed => {
            ProtocolMode::Stabilize
        }
        OperatingMode::Takeoff | OperatingMode::Guided => ProtocolMode::Guided,
        OperatingMode::Auto { .. } => ProtocolMode::Auto,
        OperatingMode::AltHold => ProtocolMode::AltHold,
        OperatingMode::PosHold | OperatingMode::Brake => ProtocolMode::PosHold,
        OperatingMode::Land => ProtocolMode::Land,
        OperatingMode::ReturnToLaunch => ProtocolMode::ReturnToLaunch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_modes() -> Vec<OperatingMode> {
        let mut v = vec![
            OperatingMode::PreFlight,
            OperatingMode::Takeoff,
            OperatingMode::Guided,
            OperatingMode::Stabilize,
            OperatingMode::AltHold,
            OperatingMode::PosHold,
            OperatingMode::Brake,
            OperatingMode::Land,
            OperatingMode::ReturnToLaunch,
            OperatingMode::Crashed,
        ];
        for leg in [0u8, 1, 5, 255] {
            v.push(OperatingMode::Auto { leg });
        }
        v
    }

    #[test]
    fn codes_are_unique_and_round_trip() {
        let modes = all_modes();
        let mut codes: Vec<u32> = modes.iter().map(|m| m.code().0).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), modes.len());
        for m in modes {
            assert_eq!(OperatingMode::from_code(m.code()), Some(m), "{m}");
        }
        assert_eq!(OperatingMode::from_code(ModeCode(99)), None);
        assert_eq!(OperatingMode::from_code(ModeCode(10_000)), None);
    }

    #[test]
    fn auto_legs_have_distinct_codes() {
        let a = OperatingMode::Auto { leg: 1 }.code();
        let b = OperatingMode::Auto { leg: 2 }.code();
        assert_ne!(a, b);
    }

    #[test]
    fn safe_modes() {
        assert!(OperatingMode::Land.is_safe_mode());
        assert!(OperatingMode::ReturnToLaunch.is_safe_mode());
        assert!(!OperatingMode::Auto { leg: 0 }.is_safe_mode());
        assert!(!OperatingMode::Takeoff.is_safe_mode());
    }

    #[test]
    fn position_requirements() {
        assert!(OperatingMode::Auto { leg: 3 }.requires_position());
        assert!(OperatingMode::PosHold.requires_position());
        assert!(OperatingMode::ReturnToLaunch.requires_position());
        assert!(!OperatingMode::Stabilize.requires_position());
        assert!(!OperatingMode::Land.requires_position());
        assert!(!OperatingMode::AltHold.requires_position());
    }

    #[test]
    fn categories_match_table_iv_columns() {
        assert_eq!(OperatingMode::Takeoff.category(), ModeCategory::Takeoff);
        assert_eq!(OperatingMode::PreFlight.category(), ModeCategory::Takeoff);
        assert_eq!(
            OperatingMode::Auto { leg: 2 }.category(),
            ModeCategory::Waypoint
        );
        assert_eq!(OperatingMode::PosHold.category(), ModeCategory::Manual);
        assert_eq!(OperatingMode::Guided.category(), ModeCategory::Manual);
        assert_eq!(OperatingMode::Land.category(), ModeCategory::Land);
        assert_eq!(OperatingMode::ReturnToLaunch.category(), ModeCategory::Land);
        assert_eq!(ModeCategory::ALL.len(), 4);
    }

    #[test]
    fn protocol_round_trips_are_sensible() {
        for p in [
            ProtocolMode::Stabilize,
            ProtocolMode::AltHold,
            ProtocolMode::PosHold,
            ProtocolMode::Auto,
            ProtocolMode::Guided,
            ProtocolMode::Land,
            ProtocolMode::ReturnToLaunch,
        ] {
            let internal = mode_from_protocol(p);
            let back = mode_to_protocol(internal);
            assert_eq!(back, p, "protocol mode {p} did not round trip");
        }
    }

    #[test]
    fn names_are_nonempty_and_distinct_for_legs() {
        assert_eq!(OperatingMode::Auto { leg: 1 }.name(), "auto[wp1]");
        assert_ne!(
            OperatingMode::Auto { leg: 1 }.name(),
            OperatingMode::Auto { leg: 2 }.name()
        );
        for m in all_modes() {
            assert!(!m.name().is_empty());
        }
    }
}
