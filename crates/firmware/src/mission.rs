//! Mission storage and the vehicle side of the mission-upload handshake.

use avis_mavlite::{Message, MissionCommand, MissionItem};
use avis_sim::codec::{ByteReader, ByteWriter, CodecError, CodecResult};

/// Serialise a mission command as a stable one-byte tag plus payload.
///
/// Lives here (not in `avis-mavlite`) because the mavlite crate is kept
/// free of dependencies, including the shared byte codec.
pub fn encode_mission_command(w: &mut ByteWriter, cmd: &MissionCommand) {
    match cmd {
        MissionCommand::Takeoff { altitude } => {
            w.u8(0);
            w.f64(*altitude);
        }
        MissionCommand::Waypoint { x, y, z } => {
            w.u8(1);
            w.f64(*x);
            w.f64(*y);
            w.f64(*z);
        }
        MissionCommand::Land => w.u8(2),
        MissionCommand::ReturnToLaunch => w.u8(3),
    }
}

/// Decode a command previously written by [`encode_mission_command`].
pub fn decode_mission_command(r: &mut ByteReader<'_>) -> CodecResult<MissionCommand> {
    Ok(match r.u8()? {
        0 => MissionCommand::Takeoff { altitude: r.f64()? },
        1 => MissionCommand::Waypoint {
            x: r.f64()?,
            y: r.f64()?,
            z: r.f64()?,
        },
        2 => MissionCommand::Land,
        3 => MissionCommand::ReturnToLaunch,
        _ => return Err(CodecError::Malformed("mission command tag")),
    })
}

/// Serialise a mission item (sequence number + command).
pub fn encode_mission_item(w: &mut ByteWriter, item: &MissionItem) {
    w.u16(item.seq);
    encode_mission_command(w, &item.command);
}

/// Decode an item previously written by [`encode_mission_item`].
pub fn decode_mission_item(r: &mut ByteReader<'_>) -> CodecResult<MissionItem> {
    let seq = r.u16()?;
    let command = decode_mission_command(r)?;
    Ok(MissionItem { seq, command })
}

/// State of the vehicle-side mission upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UploadPhase {
    Idle,
    /// Receiving items; the value is the next sequence number expected.
    Receiving(u16),
}

/// The mission manager: stores uploaded mission items, runs the
/// vehicle-driven upload protocol and tracks the active item during Auto
/// flight.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionManager {
    items: Vec<MissionItem>,
    staged: Vec<MissionItem>,
    expected_count: u16,
    phase: UploadPhase,
    current: usize,
}

impl Default for MissionManager {
    fn default() -> Self {
        MissionManager::new()
    }
}

impl MissionManager {
    /// Creates an empty mission manager.
    pub fn new() -> Self {
        MissionManager {
            items: Vec::new(),
            staged: Vec::new(),
            expected_count: 0,
            phase: UploadPhase::Idle,
            current: 0,
        }
    }

    /// The stored mission items.
    pub fn items(&self) -> &[MissionItem] {
        &self.items
    }

    /// Whether a (non-empty) mission is loaded.
    pub fn has_mission(&self) -> bool {
        !self.items.is_empty()
    }

    /// Index of the active mission item.
    pub fn current_index(&self) -> usize {
        self.current
    }

    /// The active mission item, if the mission has not finished.
    pub fn current_item(&self) -> Option<&MissionItem> {
        self.items.get(self.current)
    }

    /// The command of the active item, if any.
    pub fn current_command(&self) -> Option<MissionCommand> {
        self.current_item().map(|i| i.command)
    }

    /// Advances to the next mission item. Returns `false` if the mission
    /// is already complete.
    pub fn advance(&mut self) -> bool {
        if self.current < self.items.len() {
            self.current += 1;
        }
        self.current < self.items.len()
    }

    /// Whether every item has been completed.
    pub fn is_complete(&self) -> bool {
        self.has_mission() && self.current >= self.items.len()
    }

    /// Restarts the mission from the first item (entering Auto mode).
    pub fn restart(&mut self) {
        self.current = 0;
    }

    /// Serialise the manager (items, staging area and upload phase).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.seq(&self.items, encode_mission_item);
        w.seq(&self.staged, encode_mission_item);
        w.u16(self.expected_count);
        match self.phase {
            UploadPhase::Idle => w.u8(0),
            UploadPhase::Receiving(next) => {
                w.u8(1);
                w.u16(next);
            }
        }
        w.usize(self.current);
    }

    /// Decode a manager previously written by [`MissionManager::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<MissionManager> {
        Ok(MissionManager {
            items: r.seq(decode_mission_item)?,
            staged: r.seq(decode_mission_item)?,
            expected_count: r.u16()?,
            phase: match r.u8()? {
                0 => UploadPhase::Idle,
                1 => UploadPhase::Receiving(r.u16()?),
                _ => return Err(CodecError::Malformed("upload phase tag")),
            },
            current: r.usize()?,
        })
    }

    /// Handles one ground-station message of the upload protocol and
    /// returns the vehicle's protocol responses.
    pub fn handle_message(&mut self, msg: &Message) -> Vec<Message> {
        match *msg {
            Message::MissionCount { count } => {
                if count == 0 {
                    self.items.clear();
                    self.staged.clear();
                    self.phase = UploadPhase::Idle;
                    return vec![Message::MissionAck { accepted: true }];
                }
                self.expected_count = count;
                self.staged.clear();
                self.phase = UploadPhase::Receiving(0);
                vec![Message::MissionRequest { seq: 0 }]
            }
            Message::MissionItemMsg { item } => match self.phase {
                UploadPhase::Receiving(expected) if item.seq == expected => {
                    self.staged.push(item);
                    let next = expected + 1;
                    if next >= self.expected_count {
                        self.items = std::mem::take(&mut self.staged);
                        self.current = 0;
                        self.phase = UploadPhase::Idle;
                        vec![Message::MissionAck { accepted: true }]
                    } else {
                        self.phase = UploadPhase::Receiving(next);
                        vec![Message::MissionRequest { seq: next }]
                    }
                }
                UploadPhase::Receiving(expected) => {
                    // Out-of-order item: re-request the one we expected.
                    vec![Message::MissionRequest { seq: expected }]
                }
                UploadPhase::Idle => vec![Message::MissionAck { accepted: false }],
            },
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_mavlite::square_mission;

    fn upload(manager: &mut MissionManager, items: &[MissionItem]) {
        let mut responses = manager.handle_message(&Message::MissionCount {
            count: items.len() as u16,
        });
        loop {
            let mut next = Vec::new();
            for resp in &responses {
                match *resp {
                    Message::MissionRequest { seq } => {
                        next.extend(manager.handle_message(&Message::MissionItemMsg {
                            item: items[seq as usize],
                        }));
                    }
                    Message::MissionAck { accepted } => {
                        assert!(accepted);
                        return;
                    }
                    ref other => panic!("unexpected response {other:?}"),
                }
            }
            responses = next;
            assert!(!responses.is_empty(), "protocol stalled");
        }
    }

    #[test]
    fn full_upload_round_trip() {
        let mut manager = MissionManager::new();
        let items = square_mission(20.0, 20.0, true);
        upload(&mut manager, &items);
        assert!(manager.has_mission());
        assert_eq!(manager.items(), &items[..]);
        assert_eq!(manager.current_index(), 0);
    }

    #[test]
    fn empty_upload_clears_mission() {
        let mut manager = MissionManager::new();
        upload(&mut manager, &square_mission(10.0, 5.0, true));
        let resp = manager.handle_message(&Message::MissionCount { count: 0 });
        assert_eq!(resp, vec![Message::MissionAck { accepted: true }]);
        assert!(!manager.has_mission());
    }

    #[test]
    fn out_of_order_item_is_rerequested() {
        let mut manager = MissionManager::new();
        let items = square_mission(20.0, 20.0, true);
        let resp = manager.handle_message(&Message::MissionCount {
            count: items.len() as u16,
        });
        assert_eq!(resp, vec![Message::MissionRequest { seq: 0 }]);
        // Send item 3 instead of item 0.
        let resp = manager.handle_message(&Message::MissionItemMsg { item: items[3] });
        assert_eq!(resp, vec![Message::MissionRequest { seq: 0 }]);
        // Now send item 0: protocol continues with request 1.
        let resp = manager.handle_message(&Message::MissionItemMsg { item: items[0] });
        assert_eq!(resp, vec![Message::MissionRequest { seq: 1 }]);
    }

    #[test]
    fn unsolicited_item_rejected() {
        let mut manager = MissionManager::new();
        let resp = manager.handle_message(&Message::MissionItemMsg {
            item: MissionItem::new(0, MissionCommand::Land),
        });
        assert_eq!(resp, vec![Message::MissionAck { accepted: false }]);
        assert!(!manager.has_mission());
    }

    #[test]
    fn advance_and_completion() {
        let mut manager = MissionManager::new();
        let items = square_mission(20.0, 20.0, true);
        upload(&mut manager, &items);
        assert!(!manager.is_complete());
        let mut advances = 0;
        while manager.advance() {
            advances += 1;
        }
        assert_eq!(advances, items.len() - 1);
        assert!(manager.is_complete());
        assert!(manager.current_item().is_none());
        manager.restart();
        assert_eq!(manager.current_index(), 0);
        assert!(!manager.is_complete());
    }

    #[test]
    fn current_command_tracks_index() {
        let mut manager = MissionManager::new();
        let items = square_mission(15.0, 10.0, true);
        upload(&mut manager, &items);
        assert!(matches!(
            manager.current_command(),
            Some(MissionCommand::Takeoff { .. })
        ));
        manager.advance();
        assert!(matches!(
            manager.current_command(),
            Some(MissionCommand::Waypoint { .. })
        ));
    }

    #[test]
    fn non_mission_messages_ignored() {
        let mut manager = MissionManager::new();
        assert!(manager
            .handle_message(&Message::ArmDisarm { arm: true })
            .is_empty());
        assert!(manager
            .handle_message(&Message::StatusText { severity: 3 })
            .is_empty());
    }
}
