//! The mission-upload handshake.
//!
//! MAVLink mission uploads are *vehicle driven*: the ground station
//! announces how many items it has ([`Message::MissionCount`]), then waits
//! for the vehicle to request each item in turn
//! ([`Message::MissionRequest`]) before finally receiving a
//! [`Message::MissionAck`]. The paper calls out two problems this creates
//! for model checking (§V.A): the possibility of deadlock when both sides
//! wait on each other, and the sheer difficulty of writing even simple
//! missions. [`MissionUploader`] encapsulates the ground-station side of
//! the handshake with an explicit timeout so a stalled upload is reported
//! rather than deadlocking the checker.

use crate::message::{Message, MissionItem};
use std::fmt;

/// The ground-station side of a mission upload.
#[derive(Debug, Clone)]
pub struct MissionUploader {
    items: Vec<MissionItem>,
    state: UploadState,
    /// Number of ticks without protocol progress before the upload fails.
    timeout_ticks: u64,
    idle_ticks: u64,
}

/// Progress of an upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UploadState {
    /// The `MissionCount` announcement has not been sent yet.
    NotStarted,
    /// Waiting for the vehicle to request items (or ack).
    InProgress,
    /// The vehicle acknowledged the mission.
    Accepted,
    /// The vehicle rejected the mission.
    Rejected,
    /// The vehicle stopped responding.
    TimedOut,
}

impl fmt::Display for UploadState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UploadState::NotStarted => "not started",
            UploadState::InProgress => "in progress",
            UploadState::Accepted => "accepted",
            UploadState::Rejected => "rejected",
            UploadState::TimedOut => "timed out",
        };
        f.write_str(s)
    }
}

impl MissionUploader {
    /// Creates an uploader for the given mission items.
    ///
    /// `timeout_ticks` bounds how many [`MissionUploader::tick`] calls may
    /// pass without protocol progress before the upload is marked
    /// [`UploadState::TimedOut`].
    pub fn new(items: Vec<MissionItem>, timeout_ticks: u64) -> Self {
        MissionUploader {
            items,
            state: UploadState::NotStarted,
            timeout_ticks: timeout_ticks.max(1),
            idle_ticks: 0,
        }
    }

    /// Current upload state.
    pub fn state(&self) -> UploadState {
        self.state
    }

    /// Returns `true` once the handshake has finished (in any terminal state).
    pub fn is_finished(&self) -> bool {
        matches!(
            self.state,
            UploadState::Accepted | UploadState::Rejected | UploadState::TimedOut
        )
    }

    /// The items being uploaded.
    pub fn items(&self) -> &[MissionItem] {
        &self.items
    }

    /// Advances the handshake one tick: consumes any vehicle messages and
    /// returns the messages the ground station must send in response.
    pub fn tick(&mut self, incoming: &[Message]) -> Vec<Message> {
        let mut out = Vec::new();
        match self.state {
            UploadState::NotStarted => {
                out.push(Message::MissionCount {
                    count: self.items.len() as u16,
                });
                self.state = UploadState::InProgress;
                self.idle_ticks = 0;
            }
            UploadState::InProgress => {
                let mut progressed = false;
                for msg in incoming {
                    match *msg {
                        Message::MissionRequest { seq } => {
                            progressed = true;
                            if let Some(item) = self.items.get(seq as usize) {
                                out.push(Message::MissionItemMsg { item: *item });
                            }
                        }
                        Message::MissionAck { accepted } => {
                            progressed = true;
                            self.state = if accepted {
                                UploadState::Accepted
                            } else {
                                UploadState::Rejected
                            };
                        }
                        _ => {}
                    }
                }
                if progressed {
                    self.idle_ticks = 0;
                } else {
                    self.idle_ticks += 1;
                    if self.idle_ticks >= self.timeout_ticks {
                        self.state = UploadState::TimedOut;
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// Exports the uploader's full state as plain data for serialisation
    /// (the crate is dependency-free, so the caller owns the wire
    /// encoding). Exact inverse of [`MissionUploader::from_parts`].
    pub fn export_parts(&self) -> UploaderParts {
        UploaderParts {
            items: self.items.clone(),
            state: self.state,
            timeout_ticks: self.timeout_ticks,
            idle_ticks: self.idle_ticks,
        }
    }

    /// Rebuilds an uploader from [`MissionUploader::export_parts`] state.
    pub fn from_parts(parts: UploaderParts) -> Self {
        MissionUploader {
            items: parts.items,
            state: parts.state,
            timeout_ticks: parts.timeout_ticks,
            idle_ticks: parts.idle_ticks,
        }
    }
}

/// Plain-data export of a [`MissionUploader`]'s state (see
/// [`MissionUploader::export_parts`]).
#[derive(Debug, Clone, PartialEq)]
pub struct UploaderParts {
    /// The items being uploaded.
    pub items: Vec<MissionItem>,
    /// Current handshake state.
    pub state: UploadState,
    /// Ticks without progress before the upload fails.
    pub timeout_ticks: u64,
    /// Ticks elapsed since the last protocol progress.
    pub idle_ticks: u64,
}

/// Builds the "takeoff, fly a box, land" style mission used by the paper's
/// default workloads: takeoff to `altitude`, visit each waypoint, then the
/// given terminal command.
pub fn square_mission(altitude: f64, side: f64, land_at_home: bool) -> Vec<MissionItem> {
    use crate::message::MissionCommand as C;
    let mut items = vec![MissionItem::new(0, C::Takeoff { altitude })];
    let corners = [(side, 0.0), (side, side), (0.0, side), (0.0, 0.0)];
    for (i, (x, y)) in corners.iter().enumerate() {
        items.push(MissionItem::new(
            i as u16 + 1,
            C::Waypoint {
                x: *x,
                y: *y,
                z: altitude,
            },
        ));
    }
    let last_seq = items.len() as u16;
    if land_at_home {
        items.push(MissionItem::new(last_seq, C::Land));
    } else {
        items.push(MissionItem::new(last_seq, C::ReturnToLaunch));
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MissionCommand;

    fn items() -> Vec<MissionItem> {
        square_mission(20.0, 20.0, true)
    }

    #[test]
    fn square_mission_shape() {
        let m = items();
        assert_eq!(m.len(), 6);
        assert!(matches!(m[0].command, MissionCommand::Takeoff { altitude } if altitude == 20.0));
        assert!(matches!(m[5].command, MissionCommand::Land));
        // Sequence numbers are consecutive from zero.
        for (i, item) in m.iter().enumerate() {
            assert_eq!(item.seq as usize, i);
        }
        let rtl = square_mission(10.0, 5.0, false);
        assert!(matches!(
            rtl.last().unwrap().command,
            MissionCommand::ReturnToLaunch
        ));
    }

    #[test]
    fn upload_happy_path() {
        let mission = items();
        let mut uploader = MissionUploader::new(mission.clone(), 100);
        // First tick announces the count.
        let out = uploader.tick(&[]);
        assert_eq!(out, vec![Message::MissionCount { count: 6 }]);
        assert_eq!(uploader.state(), UploadState::InProgress);
        // Vehicle requests each item in turn.
        for seq in 0..6u16 {
            let out = uploader.tick(&[Message::MissionRequest { seq }]);
            assert_eq!(out.len(), 1);
            match out[0] {
                Message::MissionItemMsg { item } => assert_eq!(item.seq, seq),
                ref other => panic!("unexpected response {other:?}"),
            }
        }
        // Vehicle acks.
        let out = uploader.tick(&[Message::MissionAck { accepted: true }]);
        assert!(out.is_empty());
        assert_eq!(uploader.state(), UploadState::Accepted);
        assert!(uploader.is_finished());
    }

    #[test]
    fn upload_rejected() {
        let mut uploader = MissionUploader::new(items(), 100);
        uploader.tick(&[]);
        uploader.tick(&[Message::MissionAck { accepted: false }]);
        assert_eq!(uploader.state(), UploadState::Rejected);
    }

    #[test]
    fn upload_times_out_without_progress() {
        let mut uploader = MissionUploader::new(items(), 5);
        uploader.tick(&[]);
        for _ in 0..4 {
            uploader.tick(&[]);
            assert_eq!(uploader.state(), UploadState::InProgress);
        }
        uploader.tick(&[]);
        assert_eq!(uploader.state(), UploadState::TimedOut);
        assert!(uploader.is_finished());
    }

    #[test]
    fn unrelated_messages_do_not_reset_timeout() {
        let mut uploader = MissionUploader::new(items(), 3);
        uploader.tick(&[]);
        for _ in 0..3 {
            uploader.tick(&[Message::StatusText { severity: 6 }]);
        }
        assert_eq!(uploader.state(), UploadState::TimedOut);
    }

    #[test]
    fn export_parts_round_trips_mid_handshake() {
        let mut uploader = MissionUploader::new(items(), 5);
        uploader.tick(&[]);
        uploader.tick(&[Message::MissionRequest { seq: 0 }]);
        uploader.tick(&[]); // one idle tick accrued
        let parts = uploader.export_parts();
        let mut restored = MissionUploader::from_parts(parts.clone());
        assert_eq!(restored.export_parts(), parts);
        // Identical behaviour after restore: same responses, same timeout.
        for seq in 1..6u16 {
            assert_eq!(
                restored.tick(&[Message::MissionRequest { seq }]),
                uploader.tick(&[Message::MissionRequest { seq }])
            );
        }
        for _ in 0..5 {
            assert_eq!(restored.tick(&[]), uploader.tick(&[]));
        }
        assert_eq!(restored.state(), uploader.state());
        assert_eq!(restored.state(), UploadState::TimedOut);
    }

    #[test]
    fn out_of_range_request_is_ignored() {
        let mut uploader = MissionUploader::new(items(), 10);
        uploader.tick(&[]);
        let out = uploader.tick(&[Message::MissionRequest { seq: 99 }]);
        assert!(out.is_empty());
        assert_eq!(uploader.state(), UploadState::InProgress);
    }
}
