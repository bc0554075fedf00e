//! An in-process, bidirectional message link between the ground-control
//! station (workload) and the vehicle (firmware).
//!
//! The paper's workload framework and firmware communicate over a real
//! MAVLink transport; here both endpoints live in one process and step in
//! lock-step with the simulator, so the link is a pair of byte queues.
//! Messages are still *framed and encoded* through the wire codec so the
//! protocol path (serialisation, checksums, resynchronisation) is the one
//! exercised in tests.

use crate::codec::{decode_frame, encode_frame, CodecError};
use crate::message::Message;
use std::collections::VecDeque;

/// Which side of the link an endpoint represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// The ground-control station (the workload).
    GroundStation,
    /// The vehicle (the firmware).
    Vehicle,
}

/// A bidirectional, in-process MAVLite link.
///
/// The link owns two byte streams (GCS → vehicle and vehicle → GCS); each
/// `send_*` call appends an encoded frame and each `recv_*` call decodes
/// and removes one frame.
#[derive(Debug, Clone, Default)]
pub struct Link {
    to_vehicle: VecDeque<u8>,
    to_gcs: VecDeque<u8>,
    seq_gcs: u8,
    seq_vehicle: u8,
    /// Next sequence number each receiving endpoint expects, once it has
    /// decoded at least one frame.
    expected_at_vehicle: Option<u8>,
    expected_at_gcs: Option<u8>,
    /// Per-endpoint count of sequence numbers skipped on the wire.
    seq_gaps_at_vehicle: u64,
    seq_gaps_at_gcs: u64,
    /// Count of frames dropped due to decode errors.
    decode_errors: u64,
}

impl Link {
    /// Creates an empty link.
    pub fn new() -> Self {
        Link::default()
    }

    /// Encodes `msg` with the sender's next sequence number *without*
    /// queueing the frame.
    ///
    /// The sequence counter advances even if the frame is never injected,
    /// so a dropped frame leaves an observable gap at the receiver (see
    /// [`Link::seq_gaps`]). Pair with [`Link::inject_frame`] to deliver.
    pub fn encode_next(&mut self, from: Endpoint, msg: &Message) -> Vec<u8> {
        let seq = match from {
            Endpoint::GroundStation => {
                let s = self.seq_gcs;
                self.seq_gcs = self.seq_gcs.wrapping_add(1);
                s
            }
            Endpoint::Vehicle => {
                let s = self.seq_vehicle;
                self.seq_vehicle = self.seq_vehicle.wrapping_add(1);
                s
            }
        };
        encode_frame(msg, seq)
    }

    /// Appends raw frame bytes to the stream flowing toward `toward`.
    ///
    /// The bytes are taken verbatim — duplicated, corrupted or reordered
    /// frames go on the wire exactly as given, which is what the protocol
    /// fault injector relies on.
    pub fn inject_frame(&mut self, toward: Endpoint, frame: &[u8]) {
        match toward {
            Endpoint::GroundStation => self.to_gcs.extend(frame.iter().copied()),
            Endpoint::Vehicle => self.to_vehicle.extend(frame.iter().copied()),
        }
    }

    /// Sends a message from the given endpoint.
    pub fn send(&mut self, from: Endpoint, msg: &Message) {
        let frame = self.encode_next(from, msg);
        let toward = match from {
            Endpoint::GroundStation => Endpoint::Vehicle,
            Endpoint::Vehicle => Endpoint::GroundStation,
        };
        self.inject_frame(toward, &frame);
    }

    /// Receives the next message addressed to the given endpoint, if any.
    ///
    /// Corrupted frames are dropped (counted in
    /// [`Link::decode_error_count`]) and decoding continues with the next
    /// frame, mimicking a real link that resynchronises on the magic byte.
    pub fn recv(&mut self, at: Endpoint) -> Option<Message> {
        let queue = match at {
            Endpoint::GroundStation => &mut self.to_gcs,
            Endpoint::Vehicle => &mut self.to_vehicle,
        };
        loop {
            if queue.is_empty() {
                return None;
            }
            // Decoding borrows the queue's contiguous slice directly; the
            // borrow ends once `decode_frame` returns an owned result, so
            // no per-call copy of the whole stream is needed.
            match decode_frame(queue.make_contiguous()) {
                Ok((msg, seq, used)) => {
                    queue.drain(..used);
                    let (expected, gaps) = match at {
                        Endpoint::GroundStation => {
                            (&mut self.expected_at_gcs, &mut self.seq_gaps_at_gcs)
                        }
                        Endpoint::Vehicle => {
                            (&mut self.expected_at_vehicle, &mut self.seq_gaps_at_vehicle)
                        }
                    };
                    if let Some(e) = *expected {
                        *gaps += u64::from(seq.wrapping_sub(e));
                    }
                    *expected = Some(seq.wrapping_add(1));
                    return Some(msg);
                }
                Err(CodecError::Truncated) => return None,
                Err(_) => {
                    // Drop one byte and attempt to resynchronise on the next
                    // magic byte.
                    self.decode_errors += 1;
                    queue.pop_front();
                    while let Some(&b) = queue.front() {
                        if b == crate::codec::FRAME_MAGIC {
                            break;
                        }
                        queue.pop_front();
                    }
                }
            }
        }
    }

    /// Number of sequence numbers the given endpoint has observed to be
    /// skipped on its incoming stream.
    ///
    /// A dropped frame advances the sender's counter without a matching
    /// decode, so the receiver sees the next frame arrive `gap` numbers
    /// early; duplicated frames show up as wrap-around gaps of 255 per
    /// extra copy. Zero on a clean stream.
    pub fn seq_gaps(&self, at: Endpoint) -> u64 {
        match at {
            Endpoint::GroundStation => self.seq_gaps_at_gcs,
            Endpoint::Vehicle => self.seq_gaps_at_vehicle,
        }
    }

    /// Drains every pending message addressed to the given endpoint.
    pub fn drain(&mut self, at: Endpoint) -> Vec<Message> {
        let mut out = Vec::new();
        while let Some(m) = self.recv(at) {
            out.push(m);
        }
        out
    }

    /// Number of frames dropped because they failed to decode.
    pub fn decode_error_count(&self) -> u64 {
        self.decode_errors
    }

    /// Number of bytes currently queued toward the given endpoint.
    pub fn pending_bytes(&self, at: Endpoint) -> usize {
        match at {
            Endpoint::GroundStation => self.to_gcs.len(),
            Endpoint::Vehicle => self.to_vehicle.len(),
        }
    }

    /// Exports the full link state as plain data for serialisation.
    ///
    /// `avis-mavlite` stays dependency-free, so it cannot hand-roll bytes
    /// through the simulator crate's codec; instead the state crosses the
    /// crate boundary as a [`LinkParts`] value and the caller (the fault
    /// injector's link snapshot) owns the wire encoding. Exact inverse of
    /// [`Link::from_parts`].
    pub fn export_parts(&self) -> LinkParts {
        LinkParts {
            to_vehicle: self.to_vehicle.iter().copied().collect(),
            to_gcs: self.to_gcs.iter().copied().collect(),
            seq_gcs: self.seq_gcs,
            seq_vehicle: self.seq_vehicle,
            expected_at_vehicle: self.expected_at_vehicle,
            expected_at_gcs: self.expected_at_gcs,
            seq_gaps_at_vehicle: self.seq_gaps_at_vehicle,
            seq_gaps_at_gcs: self.seq_gaps_at_gcs,
            decode_errors: self.decode_errors,
        }
    }

    /// Rebuilds a link from state exported by [`Link::export_parts`].
    pub fn from_parts(parts: LinkParts) -> Self {
        Link {
            to_vehicle: parts.to_vehicle.into(),
            to_gcs: parts.to_gcs.into(),
            seq_gcs: parts.seq_gcs,
            seq_vehicle: parts.seq_vehicle,
            expected_at_vehicle: parts.expected_at_vehicle,
            expected_at_gcs: parts.expected_at_gcs,
            seq_gaps_at_vehicle: parts.seq_gaps_at_vehicle,
            seq_gaps_at_gcs: parts.seq_gaps_at_gcs,
            decode_errors: parts.decode_errors,
        }
    }

    /// Corrupts the next `n` bytes queued toward an endpoint (test helper
    /// for exercising link-level fault tolerance).
    pub fn corrupt_pending(&mut self, at: Endpoint, n: usize) {
        let queue = match at {
            Endpoint::GroundStation => &mut self.to_gcs,
            Endpoint::Vehicle => &mut self.to_vehicle,
        };
        for byte in queue.iter_mut().take(n) {
            *byte ^= 0xA5;
        }
    }
}

/// Plain-data export of a [`Link`]'s full state (see
/// [`Link::export_parts`]). Every field is public so a downstream crate
/// can serialise it with whatever codec it owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkParts {
    /// Bytes queued toward the vehicle.
    pub to_vehicle: Vec<u8>,
    /// Bytes queued toward the ground station.
    pub to_gcs: Vec<u8>,
    /// The GCS's next send sequence number.
    pub seq_gcs: u8,
    /// The vehicle's next send sequence number.
    pub seq_vehicle: u8,
    /// Next sequence number the vehicle expects, once it has decoded one
    /// frame.
    pub expected_at_vehicle: Option<u8>,
    /// Next sequence number the GCS expects, once it has decoded one
    /// frame.
    pub expected_at_gcs: Option<u8>,
    /// Sequence numbers observed skipped at the vehicle.
    pub seq_gaps_at_vehicle: u64,
    /// Sequence numbers observed skipped at the GCS.
    pub seq_gaps_at_gcs: u64,
    /// Frames dropped due to decode errors.
    pub decode_errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MissionCommand, MissionItem, ProtocolMode};

    #[test]
    fn gcs_to_vehicle_round_trip() {
        let mut link = Link::new();
        link.send(Endpoint::GroundStation, &Message::ArmDisarm { arm: true });
        link.send(
            Endpoint::GroundStation,
            &Message::SetMode {
                mode: ProtocolMode::Auto,
            },
        );
        assert_eq!(
            link.recv(Endpoint::Vehicle),
            Some(Message::ArmDisarm { arm: true })
        );
        assert_eq!(
            link.recv(Endpoint::Vehicle),
            Some(Message::SetMode {
                mode: ProtocolMode::Auto
            })
        );
        assert_eq!(link.recv(Endpoint::Vehicle), None);
    }

    #[test]
    fn vehicle_to_gcs_round_trip() {
        let mut link = Link::new();
        link.send(
            Endpoint::Vehicle,
            &Message::Heartbeat {
                mode: ProtocolMode::Land,
                armed: true,
            },
        );
        assert_eq!(
            link.recv(Endpoint::GroundStation),
            Some(Message::Heartbeat {
                mode: ProtocolMode::Land,
                armed: true
            })
        );
    }

    #[test]
    fn directions_are_independent() {
        let mut link = Link::new();
        link.send(Endpoint::GroundStation, &Message::MissionCount { count: 2 });
        // The GCS does not see its own message.
        assert_eq!(link.recv(Endpoint::GroundStation), None);
        assert!(link.recv(Endpoint::Vehicle).is_some());
    }

    #[test]
    fn drain_returns_all_pending() {
        let mut link = Link::new();
        for i in 0..5u16 {
            link.send(Endpoint::GroundStation, &Message::MissionRequest { seq: i });
        }
        let msgs = link.drain(Endpoint::Vehicle);
        assert_eq!(msgs.len(), 5);
        assert_eq!(msgs[4], Message::MissionRequest { seq: 4 });
        assert!(link.drain(Endpoint::Vehicle).is_empty());
    }

    #[test]
    fn corruption_drops_frame_but_recovers() {
        let mut link = Link::new();
        link.send(
            Endpoint::GroundStation,
            &Message::MissionAck { accepted: true },
        );
        link.send(
            Endpoint::GroundStation,
            &Message::MissionItemMsg {
                item: MissionItem::new(
                    1,
                    MissionCommand::Waypoint {
                        x: 1.0,
                        y: 2.0,
                        z: 3.0,
                    },
                ),
            },
        );
        // Corrupt the first frame's payload byte.
        link.corrupt_pending(Endpoint::Vehicle, 5);
        let got = link.drain(Endpoint::Vehicle);
        // First frame is dropped, second survives.
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0], Message::MissionItemMsg { .. }));
        assert!(link.decode_error_count() >= 1);
    }

    #[test]
    fn short_payload_in_a_complete_frame_is_dropped_not_waited_on() {
        // A Status frame whose length and checksum agree on an empty
        // payload: complete on the wire, but too short for its message.
        let mut frame = vec![crate::codec::FRAME_MAGIC, 0, 1, 0];
        let crc = crate::codec::crc16_x25(&frame[1..]);
        frame.extend_from_slice(&crc.to_be_bytes());
        let mut link = Link::new();
        link.inject_frame(Endpoint::Vehicle, &frame);
        link.send(Endpoint::GroundStation, &Message::ArmDisarm { arm: true });
        assert_eq!(
            link.recv(Endpoint::Vehicle),
            Some(Message::ArmDisarm { arm: true })
        );
        assert_eq!(link.decode_error_count(), 1);
        assert_eq!(link.pending_bytes(Endpoint::Vehicle), 0);
    }

    #[test]
    fn pending_bytes_tracks_queues() {
        let mut link = Link::new();
        assert_eq!(link.pending_bytes(Endpoint::Vehicle), 0);
        link.send(Endpoint::GroundStation, &Message::ArmDisarm { arm: false });
        assert!(link.pending_bytes(Endpoint::Vehicle) > 0);
        assert_eq!(link.pending_bytes(Endpoint::GroundStation), 0);
        link.recv(Endpoint::Vehicle);
        assert_eq!(link.pending_bytes(Endpoint::Vehicle), 0);
    }

    #[test]
    fn clean_stream_has_no_seq_gaps() {
        let mut link = Link::new();
        for _ in 0..300 {
            link.send(Endpoint::GroundStation, &Message::ArmDisarm { arm: true });
            assert!(link.recv(Endpoint::Vehicle).is_some());
        }
        // The sequence byte wraps twice without ever registering a gap.
        assert_eq!(link.seq_gaps(Endpoint::Vehicle), 0);
        assert_eq!(link.seq_gaps(Endpoint::GroundStation), 0);
    }

    #[test]
    fn dropped_frame_is_observable_as_a_seq_gap() {
        let mut link = Link::new();
        link.send(Endpoint::GroundStation, &Message::MissionCount { count: 1 });
        assert!(link.recv(Endpoint::Vehicle).is_some());
        // Encode-but-never-inject models a dropped frame: the sender's
        // counter advances with nothing on the wire.
        let _dropped =
            link.encode_next(Endpoint::GroundStation, &Message::MissionCount { count: 2 });
        link.send(Endpoint::GroundStation, &Message::MissionCount { count: 3 });
        assert_eq!(
            link.recv(Endpoint::Vehicle),
            Some(Message::MissionCount { count: 3 })
        );
        assert_eq!(link.seq_gaps(Endpoint::Vehicle), 1);
        // The reverse direction is unaffected.
        assert_eq!(link.seq_gaps(Endpoint::GroundStation), 0);
    }

    #[test]
    fn multiple_drops_accumulate_gaps() {
        let heartbeat = Message::Heartbeat {
            mode: ProtocolMode::Auto,
            armed: true,
        };
        let mut link = Link::new();
        link.send(Endpoint::Vehicle, &heartbeat);
        assert!(link.recv(Endpoint::GroundStation).is_some());
        for _ in 0..3 {
            let _ = link.encode_next(Endpoint::Vehicle, &heartbeat);
        }
        link.send(Endpoint::Vehicle, &heartbeat);
        assert!(link.recv(Endpoint::GroundStation).is_some());
        assert_eq!(link.seq_gaps(Endpoint::GroundStation), 3);
    }

    #[test]
    fn export_parts_round_trips_mid_stream() {
        let mut link = Link::new();
        // Leave the link mid-flight: pending bytes both ways, advanced
        // sequence counters, a registered gap and a decode error.
        link.send(Endpoint::GroundStation, &Message::ArmDisarm { arm: true });
        assert!(link.recv(Endpoint::Vehicle).is_some());
        let _ = link.encode_next(Endpoint::GroundStation, &Message::MissionCount { count: 9 });
        link.send(Endpoint::GroundStation, &Message::MissionCount { count: 1 });
        link.send(
            Endpoint::Vehicle,
            &Message::Heartbeat {
                mode: ProtocolMode::Auto,
                armed: true,
            },
        );
        link.corrupt_pending(Endpoint::GroundStation, 3);

        let parts = link.export_parts();
        let mut restored = Link::from_parts(parts.clone());
        assert_eq!(restored.export_parts(), parts);
        // Both copies behave identically from here on.
        assert_eq!(
            restored.drain(Endpoint::Vehicle),
            link.drain(Endpoint::Vehicle)
        );
        assert_eq!(
            restored.drain(Endpoint::GroundStation),
            link.drain(Endpoint::GroundStation)
        );
        assert_eq!(
            restored.seq_gaps(Endpoint::Vehicle),
            link.seq_gaps(Endpoint::Vehicle)
        );
        assert_eq!(restored.decode_error_count(), link.decode_error_count());
    }

    #[test]
    fn inject_frame_delivers_raw_bytes() {
        let mut link = Link::new();
        let frame = link.encode_next(Endpoint::GroundStation, &Message::ArmDisarm { arm: true });
        // Inject the same frame twice: a duplicated command.
        link.inject_frame(Endpoint::Vehicle, &frame);
        link.inject_frame(Endpoint::Vehicle, &frame);
        let got = link.drain(Endpoint::Vehicle);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|m| *m == Message::ArmDisarm { arm: true }));
        // The duplicate registers as a wrap-around gap at the receiver.
        assert_eq!(link.seq_gaps(Endpoint::Vehicle), 255);
    }
}
