//! Wire codec: frames [`Message`]s into length-prefixed, checksummed byte
//! packets and decodes them back.
//!
//! Real MAVLink frames carry a magic byte, payload length, sequence
//! number, system/component ids, a message id and an X.25 checksum. The
//! MAVLite frame keeps the same shape (magic, length, sequence, message
//! id, payload, CRC-16/X.25) so that framing bugs — truncation, bit
//! corruption, resynchronisation — are exercised realistically by tests.

use crate::message::{AckResult, CommandKind, Message, MissionCommand, MissionItem, ProtocolMode};
use std::fmt;

/// Start-of-frame marker.
pub const FRAME_MAGIC: u8 = 0xFD;

/// Errors produced while encoding or decoding frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not begin with [`FRAME_MAGIC`].
    BadMagic(u8),
    /// The buffer ended before a complete frame was read.
    Truncated,
    /// The checksum did not match the payload.
    ChecksumMismatch,
    /// The message id is not recognised.
    UnknownMessageId(u8),
    /// A payload field held an invalid value.
    InvalidField(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic(b) => write!(f, "bad frame magic byte 0x{b:02x}"),
            CodecError::Truncated => f.write_str("truncated frame"),
            CodecError::ChecksumMismatch => f.write_str("frame checksum mismatch"),
            CodecError::UnknownMessageId(id) => write!(f, "unknown message id {id}"),
            CodecError::InvalidField(which) => write!(f, "invalid value in field `{which}`"),
        }
    }
}

impl std::error::Error for CodecError {}

/// CRC-16/X.25 (the MAVLink checksum polynomial) over a byte slice.
pub fn crc16_x25(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        let mut tmp = byte ^ (crc as u8);
        tmp ^= tmp << 4;
        crc = (crc >> 8) ^ ((tmp as u16) << 8) ^ ((tmp as u16) << 3) ^ ((tmp as u16) >> 4);
    }
    !crc
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_mode(buf: &mut Vec<u8>, mode: ProtocolMode) {
    let v = match mode {
        ProtocolMode::Stabilize => 0u8,
        ProtocolMode::AltHold => 1,
        ProtocolMode::PosHold => 2,
        ProtocolMode::Auto => 3,
        ProtocolMode::Guided => 4,
        ProtocolMode::Land => 5,
        ProtocolMode::ReturnToLaunch => 6,
    };
    buf.push(v);
}

fn put_mission_item(buf: &mut Vec<u8>, item: &MissionItem) {
    put_u16(buf, item.seq);
    let (kind, [a, b, c]) = match item.command {
        MissionCommand::Takeoff { altitude } => (0u8, [altitude, 0.0, 0.0]),
        MissionCommand::Waypoint { x, y, z } => (1, [x, y, z]),
        MissionCommand::Land => (2, [0.0; 3]),
        MissionCommand::ReturnToLaunch => (3, [0.0; 3]),
    };
    buf.push(kind);
    put_f64(buf, a);
    put_f64(buf, b);
    put_f64(buf, c);
}

/// Appends a message payload (without frame header or checksum).
fn encode_payload(msg: &Message, buf: &mut Vec<u8>) {
    match *msg {
        Message::Heartbeat { mode, armed } => {
            put_mode(buf, mode);
            buf.push(u8::from(armed));
        }
        Message::Status {
            x,
            y,
            altitude,
            climb_rate,
            mission_seq,
            landed,
        } => {
            put_f64(buf, x);
            put_f64(buf, y);
            put_f64(buf, altitude);
            put_f64(buf, climb_rate);
            put_u16(buf, mission_seq);
            buf.push(u8::from(landed));
        }
        Message::ArmDisarm { arm } => buf.push(u8::from(arm)),
        Message::SetMode { mode } => put_mode(buf, mode),
        Message::CommandTakeoff { altitude } => put_f64(buf, altitude),
        Message::CommandGoto { x, y, z } => {
            put_f64(buf, x);
            put_f64(buf, y);
            put_f64(buf, z);
        }
        Message::CommandAck { command, result } => {
            buf.push(match command {
                CommandKind::Arm => 0,
                CommandKind::SetMode => 1,
                CommandKind::Takeoff => 2,
            });
            buf.push(match result {
                AckResult::Accepted => 0,
                AckResult::Rejected => 1,
            });
        }
        Message::MissionCount { count } => put_u16(buf, count),
        Message::MissionRequest { seq } => put_u16(buf, seq),
        Message::MissionItemMsg { item } => put_mission_item(buf, &item),
        Message::MissionAck { accepted } => buf.push(u8::from(accepted)),
        Message::StatusText { severity } => buf.push(severity),
    }
}

/// Big-endian reads over the payload of a frame whose length and
/// checksum already verified. Running past the end is therefore a
/// malformed payload, never a frame still arriving: reporting it as
/// [`CodecError::Truncated`] would make [`crate::Link::recv`] wait
/// forever for bytes that belong to the next frame.
struct PayloadReader<'a> {
    buf: &'a [u8],
}

impl PayloadReader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(CodecError::InvalidField("payload length"))?;
        self.buf = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        self.take().map(u8::from_be_bytes)
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        self.take().map(u16::from_be_bytes)
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        self.take().map(f64::from_be_bytes)
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    fn mode(&mut self) -> Result<ProtocolMode, CodecError> {
        Ok(match self.u8()? {
            0 => ProtocolMode::Stabilize,
            1 => ProtocolMode::AltHold,
            2 => ProtocolMode::PosHold,
            3 => ProtocolMode::Auto,
            4 => ProtocolMode::Guided,
            5 => ProtocolMode::Land,
            6 => ProtocolMode::ReturnToLaunch,
            _ => return Err(CodecError::InvalidField("mode")),
        })
    }

    fn mission_item(&mut self) -> Result<MissionItem, CodecError> {
        let seq = self.u16()?;
        let kind = self.u8()?;
        let (a, b, c) = (self.f64()?, self.f64()?, self.f64()?);
        let command = match kind {
            0 => MissionCommand::Takeoff { altitude: a },
            1 => MissionCommand::Waypoint { x: a, y: b, z: c },
            2 => MissionCommand::Land,
            3 => MissionCommand::ReturnToLaunch,
            _ => return Err(CodecError::InvalidField("mission command")),
        };
        Ok(MissionItem { seq, command })
    }
}

fn decode_payload(id: u8, payload: &[u8]) -> Result<Message, CodecError> {
    let mut r = PayloadReader { buf: payload };
    let msg = match id {
        0 => Message::Heartbeat {
            mode: r.mode()?,
            armed: r.bool()?,
        },
        1 => Message::Status {
            x: r.f64()?,
            y: r.f64()?,
            altitude: r.f64()?,
            climb_rate: r.f64()?,
            mission_seq: r.u16()?,
            landed: r.bool()?,
        },
        2 => Message::ArmDisarm { arm: r.bool()? },
        3 => Message::SetMode { mode: r.mode()? },
        4 => Message::CommandTakeoff { altitude: r.f64()? },
        5 => {
            let command = match r.u8()? {
                0 => CommandKind::Arm,
                1 => CommandKind::SetMode,
                2 => CommandKind::Takeoff,
                _ => return Err(CodecError::InvalidField("command kind")),
            };
            let result = match r.u8()? {
                0 => AckResult::Accepted,
                1 => AckResult::Rejected,
                _ => return Err(CodecError::InvalidField("ack result")),
            };
            Message::CommandAck { command, result }
        }
        6 => Message::MissionCount { count: r.u16()? },
        7 => Message::MissionRequest { seq: r.u16()? },
        8 => Message::MissionItemMsg {
            item: r.mission_item()?,
        },
        9 => Message::MissionAck {
            accepted: r.bool()?,
        },
        10 => Message::StatusText { severity: r.u8()? },
        11 => Message::CommandGoto {
            x: r.f64()?,
            y: r.f64()?,
            z: r.f64()?,
        },
        other => return Err(CodecError::UnknownMessageId(other)),
    };
    Ok(msg)
}

/// Encodes a message into a complete frame with the given sequence number.
///
/// Frame layout: `magic | seq | msg_id | payload_len | payload | crc16`.
pub fn encode_frame(msg: &Message, seq: u8) -> Vec<u8> {
    // The largest frame, a `Status`, is 41 bytes: one allocation holds
    // any frame.
    let mut frame = Vec::with_capacity(64);
    frame.extend_from_slice(&[FRAME_MAGIC, seq, msg.message_id(), 0]);
    encode_payload(msg, &mut frame);
    let payload_len = frame.len() - 4;
    debug_assert!(payload_len <= usize::from(u8::MAX), "payload too large");
    frame[3] = payload_len as u8;
    let crc = crc16_x25(&frame[1..]);
    frame.extend_from_slice(&crc.to_be_bytes());
    frame
}

/// Decodes one frame from the front of `data`, returning the message, its
/// sequence number and the number of bytes consumed.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] only when `data` ends before the
/// frame does; a complete frame that fails to decode returns another
/// [`CodecError`].
pub fn decode_frame(data: &[u8]) -> Result<(Message, u8, usize), CodecError> {
    if data.is_empty() {
        return Err(CodecError::Truncated);
    }
    if data[0] != FRAME_MAGIC {
        return Err(CodecError::BadMagic(data[0]));
    }
    if data.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let seq = data[1];
    let msg_id = data[2];
    let payload_len = data[3] as usize;
    let total = 4 + payload_len + 2;
    if data.len() < total {
        return Err(CodecError::Truncated);
    }
    let expected_crc = u16::from_be_bytes([data[total - 2], data[total - 1]]);
    let actual_crc = crc16_x25(&data[1..total - 2]);
    if expected_crc != actual_crc {
        return Err(CodecError::ChecksumMismatch);
    }
    let msg = decode_payload(msg_id, &data[4..4 + payload_len])?;
    Ok((msg, seq, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Heartbeat {
                mode: ProtocolMode::Auto,
                armed: true,
            },
            Message::Status {
                x: 1.5,
                y: -2.5,
                altitude: 19.75,
                climb_rate: -0.5,
                mission_seq: 3,
                landed: false,
            },
            Message::ArmDisarm { arm: true },
            Message::SetMode {
                mode: ProtocolMode::ReturnToLaunch,
            },
            Message::CommandTakeoff { altitude: 20.0 },
            Message::CommandGoto {
                x: -4.0,
                y: 8.5,
                z: 20.0,
            },
            Message::CommandAck {
                command: CommandKind::SetMode,
                result: AckResult::Rejected,
            },
            Message::MissionCount { count: 7 },
            Message::MissionRequest { seq: 4 },
            Message::MissionItemMsg {
                item: MissionItem::new(
                    2,
                    MissionCommand::Waypoint {
                        x: 20.0,
                        y: 20.0,
                        z: 20.0,
                    },
                ),
            },
            Message::MissionItemMsg {
                item: MissionItem::new(0, MissionCommand::Takeoff { altitude: 20.0 }),
            },
            Message::MissionItemMsg {
                item: MissionItem::new(5, MissionCommand::ReturnToLaunch),
            },
            Message::MissionAck { accepted: true },
            Message::StatusText { severity: 4 },
        ]
    }

    #[test]
    fn round_trip_all_messages() {
        for (i, msg) in sample_messages().into_iter().enumerate() {
            let frame = encode_frame(&msg, i as u8);
            let (decoded, seq, used) = decode_frame(&frame).expect("decode");
            assert_eq!(decoded, msg);
            assert_eq!(seq as usize, i);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn frame_bytes_are_stable() {
        // Store blobs embed encoded frames, so the wire bytes are pinned:
        // magic, seq, id, length, big-endian payload, CRC.
        let heartbeat = Message::Heartbeat {
            mode: ProtocolMode::Auto,
            armed: true,
        };
        assert_eq!(encode_frame(&heartbeat, 7), [253, 7, 0, 2, 3, 1, 113, 242]);
        let waypoint = Message::MissionItemMsg {
            item: MissionItem::new(
                2,
                MissionCommand::Waypoint {
                    x: 20.0,
                    y: -4.5,
                    z: 20.0,
                },
            ),
        };
        assert_eq!(
            encode_frame(&waypoint, 7),
            [
                253, 7, 8, 27, 0, 2, 1, 64, 52, 0, 0, 0, 0, 0, 0, 192, 18, 0, 0, 0, 0, 0, 0, 64,
                52, 0, 0, 0, 0, 0, 0, 36, 237
            ]
        );
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = encode_frame(&Message::ArmDisarm { arm: true }, 0);
        bytes[0] = 0x00;
        assert_eq!(decode_frame(&bytes), Err(CodecError::BadMagic(0)));
    }

    #[test]
    fn decode_rejects_corrupted_payload() {
        let mut bytes = encode_frame(&Message::MissionCount { count: 300 }, 9);
        let idx = bytes.len() - 3;
        bytes[idx] ^= 0xFF;
        assert_eq!(decode_frame(&bytes), Err(CodecError::ChecksumMismatch));
    }

    #[test]
    fn decode_rejects_truncation() {
        let frame = encode_frame(&Message::CommandTakeoff { altitude: 12.0 }, 1);
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn decode_consumes_exactly_one_frame() {
        let mut stream = encode_frame(&Message::ArmDisarm { arm: true }, 1);
        stream.extend_from_slice(&encode_frame(&Message::MissionAck { accepted: false }, 2));
        let (m1, _, used1) = decode_frame(&stream).unwrap();
        assert_eq!(m1, Message::ArmDisarm { arm: true });
        let (m2, _, used2) = decode_frame(&stream[used1..]).unwrap();
        assert_eq!(m2, Message::MissionAck { accepted: false });
        assert_eq!(used1 + used2, stream.len());
    }

    #[test]
    fn unknown_message_id_reported() {
        let mut bytes = encode_frame(&Message::StatusText { severity: 1 }, 0);
        bytes[2] = 200; // overwrite msg id
                        // Fix the checksum so only the id is wrong.
        let total = bytes.len();
        let crc = crc16_x25(&bytes[1..total - 2]);
        bytes[total - 2..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(decode_frame(&bytes), Err(CodecError::UnknownMessageId(200)));
    }

    #[test]
    fn crc_known_properties() {
        // CRC of an empty slice is the X.25 initial value complemented.
        assert_eq!(crc16_x25(&[]), !0xFFFFu16);
        // CRC changes when the data changes.
        assert_ne!(crc16_x25(b"hello"), crc16_x25(b"hellp"));
        // CRC is deterministic.
        assert_eq!(crc16_x25(b"avis"), crc16_x25(b"avis"));
    }

    #[test]
    fn error_display_strings() {
        assert!(CodecError::BadMagic(7).to_string().contains("magic"));
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(CodecError::UnknownMessageId(9).to_string().contains('9'));
        assert!(CodecError::InvalidField("mode")
            .to_string()
            .contains("mode"));
    }
}
