//! Execution traces: the per-run record the invariant monitor reasons
//! about.
//!
//! The paper represents the vehicle's state at time `t` as the tuple
//! `(P, α, M)` — position, acceleration and operating mode (§IV.C.2).
//! A [`Trace`] is a uniformly sampled sequence of those tuples plus the
//! run-level outcomes (collision, workload status, mode transitions)
//! needed for safety checking and reporting.

use avis_firmware::OperatingMode;
use avis_hinj::ModeCode;
use avis_sim::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use avis_sim::{Collision, Vec3};
use avis_workload::WorkloadStatus;

/// One sampled state tuple `(P, α, M)` at a fixed time offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateSample {
    /// Time offset from the start of the run (s).
    pub time: f64,
    /// Vehicle position (m).
    pub position: Vec3,
    /// Vehicle acceleration (m/s²).
    pub acceleration: Vec3,
    /// Operating mode at the sample time.
    pub mode: OperatingMode,
}

impl StateSample {
    /// Serialise the sample.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.f64(self.time);
        self.position.encode(w);
        self.acceleration.encode(w);
        self.mode.encode(w);
    }

    /// Decode a sample previously written by [`StateSample::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<StateSample> {
        Ok(StateSample {
            time: r.f64()?,
            position: Vec3::decode(r)?,
            acceleration: Vec3::decode(r)?,
            mode: OperatingMode::decode(r)?,
        })
    }
}

/// A mode transition observed during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeTransition {
    /// Time of the transition (s).
    pub time: f64,
    /// The mode entered.
    pub mode: OperatingMode,
}

/// A protocol-level anomaly observed on the GCS ↔ vehicle link during a
/// run, recorded by the runner's protocol tracker and mapped to
/// violations by the invariant monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolEvent {
    /// Time of the observation (s).
    pub time: f64,
    /// What was observed.
    pub kind: ProtocolEventKind,
}

/// The kinds of protocol anomalies the runner tracks.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolEventKind {
    /// The GCS observed the vehicle disarm (heartbeat armed → disarmed)
    /// while telemetry showed it airborne — an in-air reboot/disarm.
    InAirDisarm {
        /// Last telemetered altitude before the disarm (m).
        altitude: f64,
    },
    /// A command the workload sent was never acknowledged within the
    /// liveness window.
    AckTimeout {
        /// Display name of the unacknowledged command.
        command: String,
        /// Time the command was sent (s).
        sent_at: f64,
        /// The liveness window that elapsed without an ack (s).
        window: f64,
    },
    /// After an accepted mission upload, the mission stored on the
    /// vehicle differs from the one the workload sent (item aliasing
    /// from corrupted or duplicated upload frames).
    MissionAliasing {
        /// Items the workload sent.
        expected_items: usize,
        /// Items (of those comparable) that match on the vehicle.
        matching_items: usize,
    },
}

impl ProtocolEvent {
    /// Serialise the event.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.f64(self.time);
        self.kind.encode(w);
    }

    /// Decode an event previously written by [`ProtocolEvent::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<ProtocolEvent> {
        Ok(ProtocolEvent {
            time: r.f64()?,
            kind: ProtocolEventKind::decode(r)?,
        })
    }
}

impl ProtocolEventKind {
    /// Serialise the kind as a stable one-byte tag plus payload.
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            ProtocolEventKind::InAirDisarm { altitude } => {
                w.u8(0);
                w.f64(*altitude);
            }
            ProtocolEventKind::AckTimeout {
                command,
                sent_at,
                window,
            } => {
                w.u8(1);
                w.str(command);
                w.f64(*sent_at);
                w.f64(*window);
            }
            ProtocolEventKind::MissionAliasing {
                expected_items,
                matching_items,
            } => {
                w.u8(2);
                w.usize(*expected_items);
                w.usize(*matching_items);
            }
        }
    }

    /// Decode a kind previously written by [`ProtocolEventKind::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<ProtocolEventKind> {
        Ok(match r.u8()? {
            0 => ProtocolEventKind::InAirDisarm { altitude: r.f64()? },
            1 => ProtocolEventKind::AckTimeout {
                command: r.str()?,
                sent_at: r.f64()?,
                window: r.f64()?,
            },
            2 => ProtocolEventKind::MissionAliasing {
                expected_items: r.usize()?,
                matching_items: r.usize()?,
            },
            _ => return Err(CodecError::Malformed("protocol event tag")),
        })
    }
}

/// The complete record of one simulated test run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Sampling interval (s).
    pub sample_interval: f64,
    /// The sampled state tuples.
    pub samples: Vec<StateSample>,
    /// Every operating-mode transition, in order.
    pub mode_transitions: Vec<ModeTransition>,
    /// The first physical collision, if one occurred.
    pub collision: Option<Collision>,
    /// Fence-violation count observed during the run.
    pub fence_violations: usize,
    /// Terminal workload status.
    pub workload_status: WorkloadStatus,
    /// Total simulated duration (s).
    pub duration: f64,
    /// Protocol anomalies observed on the link, in time order (empty for
    /// runs without link-fault instrumentation).
    pub protocol: Vec<ProtocolEvent>,
}

impl Trace {
    /// Slack subtracted when looking up "the mode active just before `t`":
    /// mode transitions are recorded at the same timestamp the anchored
    /// injection uses, so an exact lookup at `t` would return the mode
    /// *entered* at the transition rather than the mode the failure was
    /// injected into.
    pub const MODE_LOOKUP_EPSILON: f64 = 0.05;

    /// The operating mode active just before time `t` (see
    /// [`Trace::MODE_LOOKUP_EPSILON`]); the mode a failure injected at `t`
    /// lands in.
    pub fn mode_before(&self, t: f64) -> Option<OperatingMode> {
        self.mode_at((t - Self::MODE_LOOKUP_EPSILON).max(0.0))
    }

    /// The sample closest to time `t`, clamping past the end (the paper
    /// repeats the last state of shorter runs so every run has the same
    /// duration).
    pub fn sample_at(&self, t: f64) -> Option<&StateSample> {
        if self.samples.is_empty() {
            return None;
        }
        let idx = (t / self.sample_interval).round() as usize;
        Some(&self.samples[idx.min(self.samples.len() - 1)])
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Times at which the operating mode changed (the injection anchors
    /// SABRE uses).
    pub fn transition_times(&self) -> Vec<f64> {
        self.mode_transitions.iter().map(|t| t.time).collect()
    }

    /// Maximum altitude reached during the run (m).
    pub fn max_altitude(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.position.z)
            .fold(0.0, f64::max)
    }

    /// The altitude time-series `(time, altitude)` — used by the Figure 9
    /// and Figure 10 case-study harnesses.
    pub fn altitude_series(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.time, s.position.z))
            .collect()
    }

    /// The operating mode active at time `t`, according to the transition
    /// log (more precise than the sampled mode).
    pub fn mode_at(&self, t: f64) -> Option<OperatingMode> {
        let mut current = None;
        for tr in &self.mode_transitions {
            if tr.time <= t {
                current = Some(tr.mode);
            } else {
                break;
            }
        }
        current
    }
}

/// Converts a recorded [`ModeCode`] transition back into an operating mode
/// transition (unknown codes are dropped).
pub fn transition_from_code(time: f64, code: ModeCode) -> Option<ModeTransition> {
    OperatingMode::from_code(code).map(|mode| ModeTransition { time, mode })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, alt: f64, mode: OperatingMode) -> StateSample {
        StateSample {
            time: t,
            position: Vec3::new(0.0, 0.0, alt),
            acceleration: Vec3::ZERO,
            mode,
        }
    }

    fn simple_trace() -> Trace {
        Trace {
            sample_interval: 0.5,
            samples: vec![
                sample(0.0, 0.0, OperatingMode::PreFlight),
                sample(0.5, 2.0, OperatingMode::Takeoff),
                sample(1.0, 5.0, OperatingMode::Takeoff),
                sample(1.5, 8.0, OperatingMode::Auto { leg: 1 }),
            ],
            mode_transitions: vec![
                ModeTransition {
                    time: 0.0,
                    mode: OperatingMode::PreFlight,
                },
                ModeTransition {
                    time: 0.3,
                    mode: OperatingMode::Takeoff,
                },
                ModeTransition {
                    time: 1.2,
                    mode: OperatingMode::Auto { leg: 1 },
                },
            ],
            collision: None,
            fence_violations: 0,
            workload_status: WorkloadStatus::Passed,
            duration: 1.5,
            protocol: Vec::new(),
        }
    }

    #[test]
    fn sample_at_rounds_and_clamps() {
        let trace = simple_trace();
        assert_eq!(trace.sample_at(0.0).unwrap().time, 0.0);
        assert_eq!(trace.sample_at(0.6).unwrap().time, 0.5);
        assert_eq!(trace.sample_at(0.8).unwrap().time, 1.0);
        // Past the end: the last sample is repeated.
        assert_eq!(trace.sample_at(10.0).unwrap().time, 1.5);
        assert!(!trace.is_empty());
        assert_eq!(trace.len(), 4);
    }

    #[test]
    fn empty_trace_sample_is_none() {
        let trace = Trace {
            sample_interval: 0.5,
            samples: Vec::new(),
            mode_transitions: Vec::new(),
            collision: None,
            fence_violations: 0,
            workload_status: WorkloadStatus::Running,
            duration: 0.0,
            protocol: Vec::new(),
        };
        assert!(trace.sample_at(0.0).is_none());
        assert!(trace.is_empty());
    }

    #[test]
    fn transition_times_and_mode_at() {
        let trace = simple_trace();
        assert_eq!(trace.transition_times(), vec![0.0, 0.3, 1.2]);
        assert_eq!(trace.mode_at(0.1), Some(OperatingMode::PreFlight));
        assert_eq!(trace.mode_at(0.5), Some(OperatingMode::Takeoff));
        assert_eq!(trace.mode_at(5.0), Some(OperatingMode::Auto { leg: 1 }));
    }

    #[test]
    fn mode_before_steps_back_by_the_epsilon() {
        let trace = simple_trace();
        // An injection anchored exactly at the 1.2 s transition lands in
        // the mode active *before* the transition.
        assert_eq!(trace.mode_at(1.2), Some(OperatingMode::Auto { leg: 1 }));
        assert_eq!(trace.mode_before(1.2), Some(OperatingMode::Takeoff));
        // Near zero the lookup clamps instead of going negative.
        assert_eq!(trace.mode_before(0.0), Some(OperatingMode::PreFlight));
    }

    #[test]
    fn altitude_helpers() {
        let trace = simple_trace();
        assert_eq!(trace.max_altitude(), 8.0);
        let series = trace.altitude_series();
        assert_eq!(series.len(), 4);
        assert_eq!(series[3], (1.5, 8.0));
    }

    #[test]
    fn transition_from_code_round_trip() {
        let tr = transition_from_code(2.0, OperatingMode::Land.code()).unwrap();
        assert_eq!(tr.mode, OperatingMode::Land);
        assert_eq!(tr.time, 2.0);
        assert!(transition_from_code(0.0, ModeCode(9999)).is_none());
    }
}
