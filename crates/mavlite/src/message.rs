//! Message definitions for the MAVLite protocol.
//!
//! This is a deliberately compact subset of MAVLink covering exactly the
//! transactions the paper's workload framework abstracts (§V.A): heartbeat
//! and status telemetry from the vehicle, and mode/arm/mission commands
//! from the ground-control station, including the vehicle-driven mission
//! upload handshake (count → request → item → ack).

use std::fmt;

/// A navigation command carried by a mission item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MissionCommand {
    /// Take off and climb to the given altitude (m above home).
    Takeoff {
        /// Target altitude (m).
        altitude: f64,
    },
    /// Fly to a waypoint in the local ENU frame (m).
    Waypoint {
        /// East coordinate (m).
        x: f64,
        /// North coordinate (m).
        y: f64,
        /// Altitude (m).
        z: f64,
    },
    /// Land at the current horizontal position.
    Land,
    /// Return to the launch position and land.
    ReturnToLaunch,
}

/// One item of an uploaded mission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionItem {
    /// Sequence number (0-based).
    pub seq: u16,
    /// The navigation command.
    pub command: MissionCommand,
}

impl MissionItem {
    /// Creates a mission item.
    pub fn new(seq: u16, command: MissionCommand) -> Self {
        MissionItem { seq, command }
    }
}

/// Flight modes understood at the protocol level.
///
/// The firmware maps these onto its richer internal operating modes; the
/// protocol only needs the handful a ground station can command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolMode {
    /// Manual attitude stabilisation.
    Stabilize,
    /// Altitude hold.
    AltHold,
    /// Position hold / loiter.
    PosHold,
    /// Autonomous mission execution.
    Auto,
    /// Guided (companion-computer driven) flight.
    Guided,
    /// Landing.
    Land,
    /// Return to launch.
    ReturnToLaunch,
}

impl fmt::Display for ProtocolMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolMode::Stabilize => "STABILIZE",
            ProtocolMode::AltHold => "ALT_HOLD",
            ProtocolMode::PosHold => "POS_HOLD",
            ProtocolMode::Auto => "AUTO",
            ProtocolMode::Guided => "GUIDED",
            ProtocolMode::Land => "LAND",
            ProtocolMode::ReturnToLaunch => "RTL",
        };
        f.write_str(s)
    }
}

/// Result carried by a [`Message::CommandAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckResult {
    /// The command was accepted.
    Accepted,
    /// The command was rejected (e.g. arming checks failed).
    Rejected,
}

/// Commands acknowledged by [`Message::CommandAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Arm or disarm request.
    Arm,
    /// Mode change request.
    SetMode,
    /// Direct takeoff command.
    Takeoff,
}

/// A MAVLite message.
///
/// Messages flow in both directions over a [`crate::link::Link`]:
/// vehicle → GCS for telemetry, GCS → vehicle for commands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Message {
    /// Periodic vehicle heartbeat.
    Heartbeat {
        /// Current protocol-level mode.
        mode: ProtocolMode,
        /// Whether the motors are armed.
        armed: bool,
    },
    /// Periodic vehicle state telemetry.
    Status {
        /// East position (m, local frame).
        x: f64,
        /// North position (m, local frame).
        y: f64,
        /// Altitude above home (m).
        altitude: f64,
        /// Climb rate (m/s).
        climb_rate: f64,
        /// Index of the active mission item.
        mission_seq: u16,
        /// Whether the vehicle believes it is on the ground.
        landed: bool,
    },
    /// GCS request to arm or disarm.
    ArmDisarm {
        /// `true` to arm, `false` to disarm.
        arm: bool,
    },
    /// GCS request to change mode.
    SetMode {
        /// Requested mode.
        mode: ProtocolMode,
    },
    /// GCS direct takeoff command (used in guided mode).
    CommandTakeoff {
        /// Target altitude (m).
        altitude: f64,
    },
    /// GCS guided-mode reposition command ("fly to this point").
    CommandGoto {
        /// East coordinate (m, local frame).
        x: f64,
        /// North coordinate (m, local frame).
        y: f64,
        /// Altitude (m above home).
        z: f64,
    },
    /// Vehicle acknowledgement of a command.
    CommandAck {
        /// Which command is acknowledged.
        command: CommandKind,
        /// Whether it was accepted.
        result: AckResult,
    },
    /// GCS announces a mission upload of `count` items.
    MissionCount {
        /// Number of items to be uploaded.
        count: u16,
    },
    /// Vehicle requests mission item `seq`.
    MissionRequest {
        /// Requested item index.
        seq: u16,
    },
    /// GCS sends one mission item.
    MissionItemMsg {
        /// The item.
        item: MissionItem,
    },
    /// Vehicle acknowledges a completed (or failed) mission upload.
    MissionAck {
        /// `true` if the mission was accepted.
        accepted: bool,
    },
    /// Free-form status text (diagnostics only).
    StatusText {
        /// Severity, 0 = emergency … 7 = debug (MAVLink convention).
        severity: u8,
    },
}

impl Message {
    /// A numeric message identifier used by the wire codec.
    pub fn message_id(&self) -> u8 {
        match self {
            Message::Heartbeat { .. } => 0,
            Message::Status { .. } => 1,
            Message::ArmDisarm { .. } => 2,
            Message::SetMode { .. } => 3,
            Message::CommandTakeoff { .. } => 4,
            Message::CommandAck { .. } => 5,
            Message::MissionCount { .. } => 6,
            Message::MissionRequest { .. } => 7,
            Message::MissionItemMsg { .. } => 8,
            Message::MissionAck { .. } => 9,
            Message::StatusText { .. } => 10,
            Message::CommandGoto { .. } => 11,
        }
    }

    /// Returns `true` for messages that originate at the vehicle.
    pub fn is_telemetry(&self) -> bool {
        matches!(
            self,
            Message::Heartbeat { .. }
                | Message::Status { .. }
                | Message::CommandAck { .. }
                | Message::MissionRequest { .. }
                | Message::MissionAck { .. }
                | Message::StatusText { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_ids_are_unique() {
        let msgs = [
            Message::Heartbeat {
                mode: ProtocolMode::Auto,
                armed: false,
            },
            Message::Status {
                x: 0.0,
                y: 0.0,
                altitude: 0.0,
                climb_rate: 0.0,
                mission_seq: 0,
                landed: true,
            },
            Message::ArmDisarm { arm: true },
            Message::SetMode {
                mode: ProtocolMode::Land,
            },
            Message::CommandTakeoff { altitude: 20.0 },
            Message::CommandGoto {
                x: 1.0,
                y: 2.0,
                z: 3.0,
            },
            Message::CommandAck {
                command: CommandKind::Arm,
                result: AckResult::Accepted,
            },
            Message::MissionCount { count: 3 },
            Message::MissionRequest { seq: 0 },
            Message::MissionItemMsg {
                item: MissionItem::new(0, MissionCommand::Land),
            },
            Message::MissionAck { accepted: true },
            Message::StatusText { severity: 6 },
        ];
        let mut ids: Vec<u8> = msgs.iter().map(|m| m.message_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), msgs.len());
    }

    #[test]
    fn telemetry_classification() {
        assert!(Message::Heartbeat {
            mode: ProtocolMode::Auto,
            armed: true
        }
        .is_telemetry());
        assert!(Message::MissionRequest { seq: 1 }.is_telemetry());
        assert!(!Message::ArmDisarm { arm: true }.is_telemetry());
        assert!(!Message::MissionCount { count: 2 }.is_telemetry());
    }

    #[test]
    fn protocol_mode_display() {
        assert_eq!(ProtocolMode::ReturnToLaunch.to_string(), "RTL");
        assert_eq!(ProtocolMode::Auto.to_string(), "AUTO");
    }
}
