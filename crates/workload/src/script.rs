//! The scripted-workload framework.
//!
//! A [`ScriptedWorkload`] is a sequence of [`WorkloadStep`]s executed in
//! lock-step with the simulation: every simulation step the workload is
//! ticked with the vehicle's telemetry messages and returns the commands
//! it wants to send. This is the in-process equivalent of the paper's
//! Python framework, where each high-level call (e.g. `wait_altitude`)
//! internally yields to the checker through the `step()` RPC.

use avis_mavlite::{Message, MissionItem, MissionUploader, ProtocolMode, UploadState};
use avis_sim::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use avis_sim::Environment;
use std::fmt;
use std::sync::Arc;

/// Result of ticking a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadStatus {
    /// The workload has more steps to run.
    Running,
    /// The workload completed (`pass_test()` reached).
    Passed,
    /// The workload gave up (a step timed out or a protocol error occurred).
    Failed(String),
}

impl WorkloadStatus {
    /// Whether the workload has finished (passed or failed).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, WorkloadStatus::Running)
    }

    /// Serialise the status as a stable one-byte tag (plus the failure
    /// reason for [`WorkloadStatus::Failed`]).
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            WorkloadStatus::Running => w.u8(0),
            WorkloadStatus::Passed => w.u8(1),
            WorkloadStatus::Failed(why) => {
                w.u8(2);
                w.str(why);
            }
        }
    }

    /// Decode a status previously written by [`WorkloadStatus::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<WorkloadStatus> {
        Ok(match r.u8()? {
            0 => WorkloadStatus::Running,
            1 => WorkloadStatus::Passed,
            2 => WorkloadStatus::Failed(r.str()?),
            _ => return Err(CodecError::Malformed("workload status tag")),
        })
    }
}

impl fmt::Display for WorkloadStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadStatus::Running => f.write_str("running"),
            WorkloadStatus::Passed => f.write_str("passed"),
            WorkloadStatus::Failed(why) => write!(f, "failed: {why}"),
        }
    }
}

/// One step of a scripted workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadStep {
    /// Wait for a fixed amount of simulated time.
    WaitTime {
        /// Seconds to wait.
        seconds: f64,
    },
    /// Upload a mission through the vehicle-driven handshake.
    UploadMission {
        /// The mission items.
        items: Vec<MissionItem>,
    },
    /// Arm the vehicle and wait for the acknowledgement.
    Arm,
    /// Request a mode change and wait for the acknowledgement.
    SetMode {
        /// The requested protocol mode.
        mode: ProtocolMode,
    },
    /// Send a guided-mode takeoff command.
    Takeoff {
        /// Target altitude (m).
        altitude: f64,
    },
    /// Send a guided-mode reposition and wait until the vehicle is within
    /// `tolerance` metres horizontally (and 2 m vertically) of the target.
    GotoAndWait {
        /// Target east coordinate (m).
        x: f64,
        /// Target north coordinate (m).
        y: f64,
        /// Target altitude (m).
        z: f64,
        /// Horizontal acceptance radius (m).
        tolerance: f64,
    },
    /// Wait until the reported altitude rises above a threshold.
    WaitAltitudeAbove {
        /// Altitude threshold (m).
        altitude: f64,
    },
    /// Wait until the reported altitude falls below a threshold.
    WaitAltitudeBelow {
        /// Altitude threshold (m).
        altitude: f64,
    },
    /// Wait until the vehicle reports being landed (and, implicitly, the
    /// mission finished).
    WaitLanded,
    /// Wait until the vehicle reports being disarmed.
    WaitDisarmed,
    /// Mark the test as passed.
    PassTest,
}

/// Latest telemetry the workload has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SeenTelemetry {
    altitude: f64,
    x: f64,
    y: f64,
    landed: bool,
    armed: bool,
    have_status: bool,
    have_heartbeat: bool,
}

/// A scripted workload (cloneable so the checker can re-run it).
///
/// The immutable script — name, steps, environment — is shared behind
/// `Arc`s, so [`ScriptedWorkload::fresh`] (called once per test run) only
/// resets the runtime state instead of deep-cloning the mission items and
/// environment geometry.
#[derive(Debug, Clone)]
pub struct ScriptedWorkload {
    name: Arc<str>,
    steps: Arc<[WorkloadStep]>,
    environment: Arc<Environment>,
    step_timeout: f64,
    // runtime state
    index: usize,
    step_started: Option<f64>,
    status: WorkloadStatus,
    telemetry: SeenTelemetry,
    uploader: Option<MissionUploader>,
    sent_command: bool,
    waiting_ack: bool,
}

impl ScriptedWorkload {
    fn new(
        name: String,
        steps: Vec<WorkloadStep>,
        environment: Environment,
        step_timeout: f64,
    ) -> Self {
        ScriptedWorkload {
            name: name.into(),
            steps: steps.into(),
            environment: Arc::new(environment),
            step_timeout,
            index: 0,
            step_started: None,
            status: WorkloadStatus::Running,
            telemetry: SeenTelemetry::default(),
            uploader: None,
            sent_command: false,
            waiting_ack: false,
        }
    }

    /// The workload's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The environment this workload is designed to fly in.
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// The shared environment handle (cloning it is O(1)); the runner
    /// hands this straight to the simulator so every run — and every
    /// snapshot a run records — shares one copy of the geometry.
    pub fn shared_environment(&self) -> Arc<Environment> {
        Arc::clone(&self.environment)
    }

    /// The scripted steps.
    pub fn steps(&self) -> &[WorkloadStep] {
        &self.steps
    }

    /// The current status.
    pub fn status(&self) -> &WorkloadStatus {
        &self.status
    }

    /// Returns a fresh copy with all runtime state cleared, ready for a
    /// new test run. The script itself (steps, environment, name) is
    /// shared, not cloned.
    pub fn fresh(&self) -> ScriptedWorkload {
        ScriptedWorkload {
            name: Arc::clone(&self.name),
            steps: Arc::clone(&self.steps),
            environment: Arc::clone(&self.environment),
            step_timeout: self.step_timeout,
            index: 0,
            step_started: None,
            status: WorkloadStatus::Running,
            telemetry: SeenTelemetry::default(),
            uploader: None,
            sent_command: false,
            waiting_ack: false,
        }
    }

    /// Serialise the runtime state — script progress, seen telemetry,
    /// in-flight upload handshake — bit-exactly. The immutable script
    /// (name, steps, environment, timeout) is *not* written: it is part
    /// of the experiment configuration, so a persisted chain rebuilds it
    /// from the config and re-attaches the runtime through
    /// [`ScriptedWorkload::decode_runtime`]. Mission items inside an
    /// in-flight upload ride through the mavlite wire codec
    /// ([`avis_mavlite::encode_frame`]), reusing the protocol's framing
    /// and CRC instead of a second item format.
    pub fn encode_runtime(&self, w: &mut ByteWriter) {
        w.usize(self.index);
        w.option(self.step_started.as_ref(), |w, t| w.f64(*t));
        self.status.encode(w);
        let t = &self.telemetry;
        w.f64(t.altitude);
        w.f64(t.x);
        w.f64(t.y);
        w.bool(t.landed);
        w.bool(t.armed);
        w.bool(t.have_status);
        w.bool(t.have_heartbeat);
        w.option(self.uploader.as_ref(), |w, uploader| {
            let parts = uploader.export_parts();
            w.seq(&parts.items, |w, item| {
                w.bytes(&avis_mavlite::encode_frame(
                    &Message::MissionItemMsg { item: *item },
                    0,
                ));
            });
            let state_tag: u8 = match parts.state {
                UploadState::NotStarted => 0,
                UploadState::InProgress => 1,
                UploadState::Accepted => 2,
                UploadState::Rejected => 3,
                UploadState::TimedOut => 4,
            };
            w.u8(state_tag);
            w.u64(parts.timeout_ticks);
            w.u64(parts.idle_ticks);
        });
        w.bool(self.sent_command);
        w.bool(self.waiting_ack);
    }

    /// Rebuilds a workload from a template (`self`, providing the shared
    /// immutable script) plus runtime state previously written by
    /// [`ScriptedWorkload::encode_runtime`].
    pub fn decode_runtime(&self, r: &mut ByteReader<'_>) -> CodecResult<ScriptedWorkload> {
        let mut workload = self.fresh();
        workload.index = r.usize()?;
        workload.step_started = r.option(|r| r.f64())?;
        workload.status = WorkloadStatus::decode(r)?;
        workload.telemetry = SeenTelemetry {
            altitude: r.f64()?,
            x: r.f64()?,
            y: r.f64()?,
            landed: r.bool()?,
            armed: r.bool()?,
            have_status: r.bool()?,
            have_heartbeat: r.bool()?,
        };
        workload.uploader = r.option(|r| {
            let items = r.seq(|r| {
                let frame = r.bytes()?;
                let (msg, _seq, used) = avis_mavlite::decode_frame(&frame)
                    .map_err(|_| CodecError::Malformed("uploader item frame"))?;
                if used != frame.len() {
                    return Err(CodecError::Malformed("uploader item frame length"));
                }
                match msg {
                    Message::MissionItemMsg { item } => Ok(item),
                    _ => Err(CodecError::Malformed("uploader item message")),
                }
            })?;
            let state = match r.u8()? {
                0 => UploadState::NotStarted,
                1 => UploadState::InProgress,
                2 => UploadState::Accepted,
                3 => UploadState::Rejected,
                4 => UploadState::TimedOut,
                _ => return Err(CodecError::Malformed("upload state tag")),
            };
            Ok(MissionUploader::from_parts(avis_mavlite::UploaderParts {
                items,
                state,
                timeout_ticks: r.u64()?,
                idle_ticks: r.u64()?,
            }))
        })?;
        workload.sent_command = r.bool()?;
        workload.waiting_ack = r.bool()?;
        Ok(workload)
    }

    fn absorb_telemetry(&mut self, incoming: &[Message]) {
        for msg in incoming {
            match *msg {
                Message::Status {
                    x,
                    y,
                    altitude,
                    landed,
                    ..
                } => {
                    self.telemetry.x = x;
                    self.telemetry.y = y;
                    self.telemetry.altitude = altitude;
                    self.telemetry.landed = landed;
                    self.telemetry.have_status = true;
                }
                Message::Heartbeat { armed, .. } => {
                    self.telemetry.armed = armed;
                    self.telemetry.have_heartbeat = true;
                }
                _ => {}
            }
        }
    }

    /// Advances the workload by one simulation step.
    ///
    /// `incoming` are the vehicle's messages since the previous tick; the
    /// return value is the messages the ground station sends this step plus
    /// the workload status.
    pub fn tick(&mut self, incoming: &[Message], time: f64) -> (Vec<Message>, WorkloadStatus) {
        self.absorb_telemetry(incoming);
        if self.status.is_terminal() {
            return (Vec::new(), self.status.clone());
        }
        let Some(step) = self.steps.get(self.index).cloned() else {
            // Ran out of steps without an explicit PassTest.
            self.status = WorkloadStatus::Passed;
            return (Vec::new(), self.status.clone());
        };
        let started = *self.step_started.get_or_insert(time);
        if time - started > self.step_timeout {
            self.status =
                WorkloadStatus::Failed(format!("step {} ({step:?}) timed out", self.index));
            return (Vec::new(), self.status.clone());
        }

        let mut outgoing = Vec::new();
        let mut done = false;
        match step {
            WorkloadStep::WaitTime { seconds } => {
                done = time - started >= seconds;
            }
            WorkloadStep::UploadMission { items } => {
                let uploader = self
                    .uploader
                    .get_or_insert_with(|| MissionUploader::new(items.clone(), 400_000));
                outgoing.extend(uploader.tick(incoming));
                match uploader.state() {
                    UploadState::Accepted => {
                        self.uploader = None;
                        done = true;
                    }
                    UploadState::Rejected | UploadState::TimedOut => {
                        self.status = WorkloadStatus::Failed("mission upload failed".to_string());
                        return (outgoing, self.status.clone());
                    }
                    _ => {}
                }
            }
            WorkloadStep::Arm => {
                if !self.sent_command {
                    outgoing.push(Message::ArmDisarm { arm: true });
                    self.sent_command = true;
                    self.waiting_ack = true;
                } else if incoming.iter().any(|m| {
                    matches!(
                        m,
                        Message::CommandAck {
                            command: avis_mavlite::CommandKind::Arm,
                            result: avis_mavlite::AckResult::Accepted
                        }
                    )
                }) {
                    done = true;
                } else if incoming.iter().any(|m| {
                    matches!(
                        m,
                        Message::CommandAck {
                            command: avis_mavlite::CommandKind::Arm,
                            result: avis_mavlite::AckResult::Rejected
                        }
                    )
                }) {
                    self.status = WorkloadStatus::Failed("arming rejected".to_string());
                    return (outgoing, self.status.clone());
                }
            }
            WorkloadStep::SetMode { mode } => {
                if !self.sent_command {
                    outgoing.push(Message::SetMode { mode });
                    self.sent_command = true;
                } else if incoming.iter().any(|m| {
                    matches!(
                        m,
                        Message::CommandAck {
                            command: avis_mavlite::CommandKind::SetMode,
                            ..
                        }
                    )
                }) {
                    // Mode rejections are surfaced by later waits timing out;
                    // matching the paper's framework, the step itself only
                    // waits for the acknowledgement.
                    done = true;
                }
            }
            WorkloadStep::Takeoff { altitude } => {
                if !self.sent_command {
                    outgoing.push(Message::CommandTakeoff { altitude });
                    self.sent_command = true;
                } else if incoming.iter().any(|m| {
                    matches!(
                        m,
                        Message::CommandAck {
                            command: avis_mavlite::CommandKind::Takeoff,
                            ..
                        }
                    )
                }) {
                    done = true;
                }
            }
            WorkloadStep::GotoAndWait { x, y, z, tolerance } => {
                if !self.sent_command {
                    outgoing.push(Message::CommandGoto { x, y, z });
                    self.sent_command = true;
                } else if self.telemetry.have_status {
                    let dx = self.telemetry.x - x;
                    let dy = self.telemetry.y - y;
                    let horizontal = (dx * dx + dy * dy).sqrt();
                    if horizontal <= tolerance && (self.telemetry.altitude - z).abs() <= 2.0 {
                        done = true;
                    }
                }
            }
            WorkloadStep::WaitAltitudeAbove { altitude } => {
                done = self.telemetry.have_status && self.telemetry.altitude >= altitude;
            }
            WorkloadStep::WaitAltitudeBelow { altitude } => {
                done = self.telemetry.have_status && self.telemetry.altitude <= altitude;
            }
            WorkloadStep::WaitLanded => {
                done = self.telemetry.have_status && self.telemetry.landed;
            }
            WorkloadStep::WaitDisarmed => {
                done = self.telemetry.have_heartbeat && !self.telemetry.armed;
            }
            WorkloadStep::PassTest => {
                self.status = WorkloadStatus::Passed;
                return (outgoing, self.status.clone());
            }
        }

        if done {
            self.index += 1;
            self.step_started = None;
            self.sent_command = false;
            self.waiting_ack = false;
        }
        (outgoing, self.status.clone())
    }
}

/// Builder mirroring the paper's workload-framework API (Figure 8).
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    name: String,
    steps: Vec<WorkloadStep>,
    environment: Environment,
    step_timeout: f64,
}

impl WorkloadBuilder {
    /// Starts a new workload with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        WorkloadBuilder {
            name: name.into(),
            steps: Vec::new(),
            environment: Environment::open_field(),
            step_timeout: 120.0,
        }
    }

    /// Sets the environment the workload flies in.
    pub fn environment(mut self, environment: Environment) -> Self {
        self.environment = environment;
        self
    }

    /// Sets the per-step timeout (seconds of simulated time).
    pub fn step_timeout(mut self, seconds: f64) -> Self {
        self.step_timeout = seconds.max(1.0);
        self
    }

    /// Waits for a fixed amount of simulated time.
    pub fn wait_time(mut self, seconds: f64) -> Self {
        self.steps.push(WorkloadStep::WaitTime { seconds });
        self
    }

    /// Uploads a mission.
    pub fn upload_mission(mut self, items: Vec<MissionItem>) -> Self {
        self.steps.push(WorkloadStep::UploadMission { items });
        self
    }

    /// Arms the vehicle ("arm_system_completely" in the paper).
    pub fn arm_system_completely(mut self) -> Self {
        self.steps.push(WorkloadStep::Arm);
        self
    }

    /// Enters the autonomous mission mode ("enter_auto_mode").
    pub fn enter_auto_mode(mut self) -> Self {
        self.steps.push(WorkloadStep::SetMode {
            mode: ProtocolMode::Auto,
        });
        self
    }

    /// Requests an arbitrary mode.
    pub fn set_mode(mut self, mode: ProtocolMode) -> Self {
        self.steps.push(WorkloadStep::SetMode { mode });
        self
    }

    /// Sends a guided takeoff command.
    pub fn takeoff(mut self, altitude: f64) -> Self {
        self.steps.push(WorkloadStep::Takeoff { altitude });
        self
    }

    /// Sends a guided reposition and waits for arrival.
    pub fn goto_and_wait(mut self, x: f64, y: f64, z: f64, tolerance: f64) -> Self {
        self.steps
            .push(WorkloadStep::GotoAndWait { x, y, z, tolerance });
        self
    }

    /// Waits until the vehicle reports an altitude above the threshold
    /// ("wait_altitude" for the climb in the paper's example).
    pub fn wait_altitude_above(mut self, altitude: f64) -> Self {
        self.steps
            .push(WorkloadStep::WaitAltitudeAbove { altitude });
        self
    }

    /// Waits until the vehicle reports an altitude below the threshold.
    pub fn wait_altitude_below(mut self, altitude: f64) -> Self {
        self.steps
            .push(WorkloadStep::WaitAltitudeBelow { altitude });
        self
    }

    /// Waits until the vehicle reports being landed.
    pub fn wait_landed(mut self) -> Self {
        self.steps.push(WorkloadStep::WaitLanded);
        self
    }

    /// Waits until the vehicle disarms.
    pub fn wait_disarmed(mut self) -> Self {
        self.steps.push(WorkloadStep::WaitDisarmed);
        self
    }

    /// Marks the test as passed ("pass_test").
    pub fn pass_test(mut self) -> Self {
        self.steps.push(WorkloadStep::PassTest);
        self
    }

    /// Builds the workload.
    pub fn build(self) -> ScriptedWorkload {
        ScriptedWorkload::new(self.name, self.steps, self.environment, self.step_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_mavlite::square_mission;

    #[test]
    fn wait_time_advances_after_duration() {
        let mut w = WorkloadBuilder::new("t").wait_time(2.0).pass_test().build();
        let (_, s) = w.tick(&[], 0.0);
        assert_eq!(s, WorkloadStatus::Running);
        let (_, s) = w.tick(&[], 1.0);
        assert_eq!(s, WorkloadStatus::Running);
        let (_, s) = w.tick(&[], 2.1);
        assert_eq!(s, WorkloadStatus::Running);
        // Next tick executes PassTest.
        let (_, s) = w.tick(&[], 2.2);
        assert_eq!(s, WorkloadStatus::Passed);
    }

    #[test]
    fn arm_step_sends_and_waits_for_ack() {
        let mut w = WorkloadBuilder::new("t")
            .arm_system_completely()
            .pass_test()
            .build();
        let (out, _) = w.tick(&[], 0.0);
        assert_eq!(out, vec![Message::ArmDisarm { arm: true }]);
        // No ack yet: nothing more is sent, still running.
        let (out, s) = w.tick(&[], 0.1);
        assert!(out.is_empty());
        assert_eq!(s, WorkloadStatus::Running);
        // Ack arrives.
        let ack = Message::CommandAck {
            command: avis_mavlite::CommandKind::Arm,
            result: avis_mavlite::AckResult::Accepted,
        };
        let (_, s) = w.tick(&[ack], 0.2);
        assert_eq!(s, WorkloadStatus::Running);
        let (_, s) = w.tick(&[], 0.3);
        assert_eq!(s, WorkloadStatus::Passed);
    }

    #[test]
    fn arm_rejection_fails_workload() {
        let mut w = WorkloadBuilder::new("t")
            .arm_system_completely()
            .pass_test()
            .build();
        w.tick(&[], 0.0);
        let nack = Message::CommandAck {
            command: avis_mavlite::CommandKind::Arm,
            result: avis_mavlite::AckResult::Rejected,
        };
        let (_, s) = w.tick(&[nack], 0.1);
        assert!(matches!(s, WorkloadStatus::Failed(_)));
        // Terminal status is sticky.
        let (_, s) = w.tick(&[], 10.0);
        assert!(matches!(s, WorkloadStatus::Failed(_)));
    }

    #[test]
    fn upload_mission_step_runs_handshake() {
        let items = square_mission(20.0, 20.0, true);
        let mut w = WorkloadBuilder::new("t")
            .upload_mission(items.clone())
            .pass_test()
            .build();
        let (out, _) = w.tick(&[], 0.0);
        assert_eq!(
            out,
            vec![Message::MissionCount {
                count: items.len() as u16
            }]
        );
        // Simulate the vehicle requesting each item.
        for seq in 0..items.len() as u16 {
            let (out, s) = w.tick(&[Message::MissionRequest { seq }], 0.1 + seq as f64 * 0.1);
            assert_eq!(s, WorkloadStatus::Running);
            assert!(matches!(out[0], Message::MissionItemMsg { item } if item.seq == seq));
        }
        let (_, s) = w.tick(&[Message::MissionAck { accepted: true }], 1.0);
        assert_eq!(s, WorkloadStatus::Running);
        let (_, s) = w.tick(&[], 1.1);
        assert_eq!(s, WorkloadStatus::Passed);
    }

    #[test]
    fn altitude_waits_use_status_telemetry() {
        let mut w = WorkloadBuilder::new("t")
            .wait_altitude_above(20.0)
            .wait_altitude_below(0.5)
            .pass_test()
            .build();
        let status = |alt: f64| Message::Status {
            x: 0.0,
            y: 0.0,
            altitude: alt,
            climb_rate: 0.0,
            mission_seq: 0,
            landed: false,
        };
        let (_, s) = w.tick(&[status(5.0)], 0.0);
        assert_eq!(s, WorkloadStatus::Running);
        let (_, s) = w.tick(&[status(20.5)], 1.0);
        assert_eq!(s, WorkloadStatus::Running);
        let (_, s) = w.tick(&[status(10.0)], 2.0);
        assert_eq!(s, WorkloadStatus::Running);
        let (_, s) = w.tick(&[status(0.2)], 3.0);
        assert_eq!(s, WorkloadStatus::Running);
        let (_, s) = w.tick(&[], 3.1);
        assert_eq!(s, WorkloadStatus::Passed);
    }

    #[test]
    fn steps_time_out() {
        let mut w = WorkloadBuilder::new("t")
            .step_timeout(5.0)
            .wait_altitude_above(100.0)
            .pass_test()
            .build();
        let (_, s) = w.tick(&[], 0.0);
        assert_eq!(s, WorkloadStatus::Running);
        let (_, s) = w.tick(&[], 5.5);
        assert!(matches!(s, WorkloadStatus::Failed(ref why) if why.contains("timed out")));
    }

    #[test]
    fn fresh_resets_runtime_state() {
        let mut w = WorkloadBuilder::new("t").wait_time(1.0).pass_test().build();
        w.tick(&[], 0.0);
        w.tick(&[], 1.5);
        w.tick(&[], 1.6);
        assert_eq!(*w.status(), WorkloadStatus::Passed);
        let fresh = w.fresh();
        assert_eq!(*fresh.status(), WorkloadStatus::Running);
        assert_eq!(fresh.steps().len(), 2);
        assert_eq!(fresh.name(), "t");
    }

    #[test]
    fn running_out_of_steps_counts_as_pass() {
        let mut w = WorkloadBuilder::new("t").wait_time(0.5).build();
        w.tick(&[], 0.0);
        w.tick(&[], 0.6);
        let (_, s) = w.tick(&[], 0.7);
        assert_eq!(s, WorkloadStatus::Passed);
    }

    #[test]
    fn runtime_codec_round_trips_mid_upload() {
        use avis_sim::codec::{ByteReader, ByteWriter};

        let items = square_mission(20.0, 20.0, true);
        let template = WorkloadBuilder::new("t")
            .upload_mission(items.clone())
            .arm_system_completely()
            .wait_altitude_above(10.0)
            .pass_test()
            .build();

        // Drive the original halfway through the upload handshake so the
        // capture carries a live uploader, telemetry and step state.
        let mut original = template.fresh();
        original.tick(&[], 0.0);
        original.tick(&[Message::MissionRequest { seq: 0 }], 0.1);
        original.tick(&[Message::MissionRequest { seq: 1 }], 0.2);
        let status = Message::Status {
            x: 1.0,
            y: 2.0,
            altitude: 3.0,
            climb_rate: 0.0,
            mission_seq: 0,
            landed: false,
        };
        original.tick(&[status], 0.3);

        let mut w = ByteWriter::new();
        original.encode_runtime(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut restored = template.decode_runtime(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");

        // Both copies must continue the handshake identically.
        for (tick, incoming) in [
            (0.4, vec![Message::MissionRequest { seq: 2 }]),
            (0.5, vec![Message::MissionRequest { seq: 3 }]),
            (0.6, vec![Message::MissionRequest { seq: 4 }]),
            (0.7, vec![Message::MissionRequest { seq: 5 }]),
            (0.8, vec![Message::MissionAck { accepted: true }]),
            (0.9, Vec::new()),
        ] {
            let (out_a, s_a) = original.tick(&incoming, tick);
            let (out_b, s_b) = restored.tick(&incoming, tick);
            assert_eq!(out_a, out_b, "diverged at t = {tick}");
            assert_eq!(s_a, s_b);
        }
        // Both should have advanced to (and sent) the Arm step.
        let ack = Message::CommandAck {
            command: avis_mavlite::CommandKind::Arm,
            result: avis_mavlite::AckResult::Accepted,
        };
        let (out_a, s_a) = original.tick(&[ack], 1.0);
        let (out_b, s_b) = restored.tick(&[ack], 1.0);
        assert_eq!(out_a, out_b);
        assert_eq!(s_a, s_b);
        assert_eq!(s_a, WorkloadStatus::Running);
    }

    #[test]
    fn runtime_decode_rejects_truncated_bytes() {
        use avis_sim::codec::{ByteReader, ByteWriter};

        let template = WorkloadBuilder::new("t").wait_time(1.0).build();
        let mut original = template.fresh();
        original.tick(&[], 0.0);
        let mut w = ByteWriter::new();
        original.encode_runtime(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            let result = template.decode_runtime(&mut r).and_then(|_| r.finish());
            assert!(result.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn goto_and_wait_checks_position() {
        let mut w = WorkloadBuilder::new("t")
            .goto_and_wait(10.0, 0.0, 20.0, 2.0)
            .pass_test()
            .build();
        let (out, _) = w.tick(&[], 0.0);
        assert_eq!(
            out,
            vec![Message::CommandGoto {
                x: 10.0,
                y: 0.0,
                z: 20.0
            }]
        );
        let far = Message::Status {
            x: 3.0,
            y: 0.0,
            altitude: 20.0,
            climb_rate: 0.0,
            mission_seq: 0,
            landed: false,
        };
        let (_, s) = w.tick(&[far], 1.0);
        assert_eq!(s, WorkloadStatus::Running);
        let near = Message::Status {
            x: 9.0,
            y: 0.5,
            altitude: 19.5,
            climb_rate: 0.0,
            mission_seq: 0,
            landed: false,
        };
        let (_, s) = w.tick(&[near], 2.0);
        assert_eq!(s, WorkloadStatus::Running);
        let (_, s) = w.tick(&[], 2.1);
        assert_eq!(s, WorkloadStatus::Passed);
    }
}
