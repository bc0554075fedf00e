//! The top-level firmware: the main control loop tying together the
//! sensor frontend, estimator, failsafe engine, mission manager,
//! navigation cascade and the injected defects.
//!
//! One call to [`Firmware::step`] corresponds to one iteration of the
//! control loop in the paper's Figure 2 / Figure 7: the instrumented
//! drivers read (and possibly fail) the sensors, the estimator updates the
//! state model, the mode logic and failsafes pick a navigation setpoint,
//! and the mixer produces motor outputs that are handed back to the
//! simulator.

use crate::bugs::{BugId, BugSet};
use crate::defects::{DefectContext, DefectEngine, DefectOverrides};
use crate::estimator::{EstimatorState, StateEstimator};
use crate::failsafe::{FailsafeCause, FailsafeEngine, FailsafeEvent};
use crate::frontend::{SelectedSensors, SensorFrontend};
use crate::mission::MissionManager;
use crate::modes::{mode_from_protocol, mode_to_protocol, OperatingMode};
use crate::nav::{Navigator, Setpoint};
use crate::params::{FirmwareParams, FirmwareProfile};
use avis_hinj::SharedInjector;
use avis_mavlite::{AckResult, CommandKind, Message, MissionCommand, ProtocolMode};
use avis_sim::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use avis_sim::cow::{ChunkSink, ChunkSource};
use avis_sim::{CowVec, MotorCommands, SensorKind, SensorReading, Vec3};
use serde::{Deserialize, Serialize};

/// Compact telemetry snapshot (also broadcast as MAVLite status messages).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Simulation time of the snapshot (s).
    pub time: f64,
    /// Current operating mode.
    pub mode: OperatingMode,
    /// Whether the motors are armed.
    pub armed: bool,
    /// Estimated altitude above home (m).
    pub altitude: f64,
    /// Estimated climb rate (m/s).
    pub climb_rate: f64,
    /// Estimated horizontal position (m).
    pub position: Vec3,
    /// Index of the active mission item.
    pub mission_index: usize,
    /// Whether the firmware believes it is on the ground.
    pub landed: bool,
}

/// Internal phase of a return-to-launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum RtlPhase {
    Travel { cruise_altitude: f64 },
    Landing,
}

impl RtlPhase {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            RtlPhase::Travel { cruise_altitude } => {
                w.u8(0);
                w.f64(*cruise_altitude);
            }
            RtlPhase::Landing => w.u8(1),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> CodecResult<RtlPhase> {
        Ok(match r.u8()? {
            0 => RtlPhase::Travel {
                cruise_altitude: r.f64()?,
            },
            1 => RtlPhase::Landing,
            _ => return Err(CodecError::Malformed("rtl phase tag")),
        })
    }
}

/// A point-in-time capture of a [`Firmware`], taken mid-run by
/// [`Firmware::snapshot`]. The whole control stack is captured —
/// estimator, navigator PIDs, failsafe engine, mission progress, mode
/// state machines, outbox and defect bookkeeping — so a restored firmware
/// continues bit-identically to the original given the same sensor
/// readings.
///
/// Restoring requires a [`SharedInjector`] handle because the captured
/// firmware's handle points at the injector of the *recording* run; a
/// forked run owns a fresh injector (same prefix records, possibly a
/// different remaining plan) and the restore rebinds both the firmware's
/// own handle and its sensor frontend's.
///
/// Capture is O(1) in the run length: the growing defect log is backed
/// by a [`CowVec`], so [`Firmware::snapshot`] seals the log's tail into
/// an `Arc`-shared chunk and the capture shares the history structurally
/// instead of deep-cloning it.
#[derive(Debug, Clone)]
pub struct FirmwareSnapshot {
    firmware: Firmware,
}

impl FirmwareSnapshot {
    /// Simulation time of the capture (s) — the time of the last
    /// [`Firmware::step`] before the snapshot.
    pub fn time(&self) -> f64 {
        self.firmware.time
    }

    /// Rebuilds the captured firmware, pointing it at `injector`.
    pub fn restore(&self, injector: SharedInjector) -> Firmware {
        self.clone().into_restored(injector)
    }

    /// Consuming form of [`FirmwareSnapshot::restore`], for callers that
    /// own the snapshot and want to avoid the extra clone.
    pub fn into_restored(self, injector: SharedInjector) -> Firmware {
        let mut firmware = self.firmware;
        firmware.injector = injector.clone();
        firmware.frontend.rebind_injector(injector);
        firmware
    }

    /// Approximate heap footprint *exclusively owned* by the captured
    /// state (bytes), used by checkpoint caches to enforce their memory
    /// budget. The `Arc`-shared defect-log chunks are accounted once per
    /// distinct chunk through [`FirmwareSnapshot::for_each_chunk`].
    pub fn approx_bytes(&self) -> usize {
        let fw = &self.firmware;
        std::mem::size_of::<Firmware>()
            + fw.mode_history.len() * std::mem::size_of::<(f64, OperatingMode)>()
            + fw.outbox.len() * std::mem::size_of::<Message>()
            + fw.defect_log.exclusive_bytes()
            + std::mem::size_of_val(fw.failsafes.events())
            + fw.mission.items().len() * 64
    }

    /// Visits the `Arc`-shared defect-log chunks as `(identity, bytes)`
    /// pairs (see [`CowVec::for_each_chunk`]).
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        self.firmware.defect_log.for_each_chunk(f);
    }

    /// The delta from `prev` to this capture. The always-moving control
    /// state (estimator, navigator, mode bookkeeping, outbox) is stored
    /// whole; the rarely-moving components — sensor health, failsafe
    /// latches, defect triggers, mission progress — are stored only when
    /// they actually changed since `prev` (boxed, so an unchanged
    /// component costs one null pointer); the static components (profile,
    /// parameters) are never stored and the append-only histories are
    /// stored as suffixes / `Arc`-shared chunk lists. Only valid between
    /// captures of the same run.
    pub fn diff(&self, prev: &FirmwareSnapshot) -> FirmwareDelta {
        let fw = &self.firmware;
        let base = &prev.firmware;
        debug_assert!(
            fw.profile == base.profile && fw.params == base.params,
            "firmware deltas only exist within one run"
        );
        let (mode_history_base, mode_history_suffix) = if base.mode_history.len()
            <= fw.mode_history.len()
            && base.mode_history == fw.mode_history[..base.mode_history.len()]
        {
            (
                base.mode_history.len(),
                fw.mode_history[base.mode_history.len()..].to_vec(),
            )
        } else {
            // Defensive fallback: the history is append-only along a run,
            // but an unexpected base still yields a correct (just larger)
            // delta.
            (0, fw.mode_history.clone())
        };
        FirmwareDelta {
            estimator: fw.estimator.dynamics(),
            navigator: fw.navigator.dynamics(),
            health: (fw.frontend.health() != base.frontend.health())
                .then(|| Box::new(fw.frontend.health().clone())),
            failsafes: (fw.failsafes != base.failsafes).then(|| Box::new(fw.failsafes.clone())),
            defects: (fw.defects != base.defects).then(|| Box::new(fw.defects.clone())),
            mission: (fw.mission != base.mission).then(|| Box::new(fw.mission.clone())),
            mode: fw.mode,
            armed: fw.armed,
            home: fw.home,
            time: fw.time,
            takeoff_target: fw.takeoff_target,
            after_takeoff: fw.after_takeoff,
            guided_target: fw.guided_target,
            hold_position: fw.hold_position,
            rtl_phase: fw.rtl_phase,
            touchdown_timer: fw.touchdown_timer,
            last_heartbeat: fw.last_heartbeat,
            last_status: fw.last_status,
            last_selected: fw.last_selected,
            mode_history_base,
            mode_history_suffix,
            outbox: fw.outbox.clone(),
            defect_log: fw.defect_log.delta_from(&base.defect_log),
        }
    }

    /// Re-materialises the capture `delta` was diffed *to*, using `self`
    /// as the capture it was diffed *from*.
    pub fn apply(&self, delta: &FirmwareDelta) -> FirmwareSnapshot {
        let mut fw = self.firmware.clone();
        fw.estimator.restore_dynamics(&delta.estimator);
        fw.navigator.restore_dynamics(&delta.navigator);
        if let Some(health) = &delta.health {
            fw.frontend.restore_health((**health).clone());
        }
        if let Some(failsafes) = &delta.failsafes {
            fw.failsafes = (**failsafes).clone();
        }
        if let Some(defects) = &delta.defects {
            fw.defects = (**defects).clone();
        }
        if let Some(mission) = &delta.mission {
            fw.mission = (**mission).clone();
        }
        fw.mode = delta.mode;
        fw.armed = delta.armed;
        fw.home = delta.home;
        fw.time = delta.time;
        fw.takeoff_target = delta.takeoff_target;
        fw.after_takeoff = delta.after_takeoff;
        fw.guided_target = delta.guided_target;
        fw.hold_position = delta.hold_position;
        fw.rtl_phase = delta.rtl_phase;
        fw.touchdown_timer = delta.touchdown_timer;
        fw.last_heartbeat = delta.last_heartbeat;
        fw.last_status = delta.last_status;
        fw.last_selected = delta.last_selected;
        fw.mode_history.truncate(delta.mode_history_base);
        fw.mode_history
            .extend_from_slice(&delta.mode_history_suffix);
        fw.outbox.clone_from(&delta.outbox);
        fw.defect_log = CowVec::apply_delta(&self.firmware.defect_log, &delta.defect_log);
        FirmwareSnapshot { firmware: fw }
    }
}

/// The dynamic slice of a [`FirmwareSnapshot`] relative to an earlier
/// capture of the same run (see [`FirmwareSnapshot::diff`]). The static
/// control-stack structure — profile, parameters, mission items while
/// unchanged, defect catalog — lives once in the chain's base keyframe.
#[derive(Debug, Clone)]
pub struct FirmwareDelta {
    estimator: crate::estimator::EstimatorDynamics,
    navigator: crate::nav::NavDynamics,
    health: Option<Box<crate::frontend::SensorHealth>>,
    failsafes: Option<Box<FailsafeEngine>>,
    defects: Option<Box<DefectEngine>>,
    mission: Option<Box<MissionManager>>,
    mode: OperatingMode,
    armed: bool,
    home: Vec3,
    time: f64,
    takeoff_target: f64,
    after_takeoff: OperatingMode,
    guided_target: Option<Vec3>,
    hold_position: Vec3,
    rtl_phase: RtlPhase,
    touchdown_timer: f64,
    last_heartbeat: f64,
    last_status: f64,
    last_selected: SelectedSensors,
    mode_history_base: usize,
    mode_history_suffix: Vec<(f64, OperatingMode)>,
    outbox: Vec<Message>,
    defect_log: avis_sim::CowDelta<(f64, DefectOverrides)>,
}

impl FirmwareDelta {
    /// Simulation time of the captured cut (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Approximate heap + inline bytes exclusively owned by the delta
    /// (the `Arc`-shared defect-log chunks are accounted once per
    /// distinct chunk through [`FirmwareDelta::for_each_chunk`]).
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>()
            + self.mode_history_suffix.len() * std::mem::size_of::<(f64, OperatingMode)>()
            + self.outbox.len() * std::mem::size_of::<Message>()
            + self.defect_log.exclusive_bytes();
        if let Some(health) = &self.health {
            bytes += std::mem::size_of::<crate::frontend::SensorHealth>()
                + health.failed_instances().count() * 16
                + 128;
        }
        if self.failsafes.is_some() {
            bytes += std::mem::size_of::<FailsafeEngine>() + 64;
        }
        if self.defects.is_some() {
            bytes += std::mem::size_of::<DefectEngine>() + 64;
        }
        if let Some(mission) = &self.mission {
            bytes += std::mem::size_of::<MissionManager>() + mission.items().len() * 64;
        }
        bytes
    }

    /// Visits the `Arc`-shared defect-log chunks as `(identity, bytes)`
    /// pairs (see [`CowVec::for_each_chunk`]).
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        self.defect_log.for_each_chunk(f);
    }

    /// Serialise the delta bit-exactly. The defect-log chunks are handed
    /// to `sink` for content-addressed storage and deduplication; only
    /// their hashes land in the byte stream. The firmware outbox is
    /// serialised through the wire codec ([`avis_mavlite::encode_frame`])
    /// so the persistent format reuses the protocol's framing and CRC.
    pub fn encode(&self, w: &mut ByteWriter, sink: &mut dyn ChunkSink) {
        self.estimator.encode(w);
        self.navigator.encode(w);
        w.option(self.health.as_deref(), |w, h| h.encode(w));
        w.option(self.failsafes.as_deref(), |w, f| f.encode(w));
        w.option(self.defects.as_deref(), |w, d| d.encode(w));
        w.option(self.mission.as_deref(), |w, m| m.encode(w));
        self.mode.encode(w);
        w.bool(self.armed);
        self.home.encode(w);
        w.f64(self.time);
        w.f64(self.takeoff_target);
        self.after_takeoff.encode(w);
        w.option(self.guided_target.as_ref(), |w, v| v.encode(w));
        self.hold_position.encode(w);
        self.rtl_phase.encode(w);
        w.f64(self.touchdown_timer);
        w.f64(self.last_heartbeat);
        w.f64(self.last_status);
        self.last_selected.encode(w);
        w.usize(self.mode_history_base);
        w.seq(&self.mode_history_suffix, |w, (t, m)| {
            w.f64(*t);
            m.encode(w);
        });
        w.seq(&self.outbox, |w, m| {
            w.bytes(&avis_mavlite::encode_frame(m, 0));
        });
        self.defect_log.encode_chunked(w, sink, &mut |w, (t, o)| {
            w.f64(*t);
            o.encode(w);
        });
    }

    /// Decode a delta previously written by [`FirmwareDelta::encode`],
    /// resolving defect-log chunk references through `source`.
    pub fn decode(
        r: &mut ByteReader<'_>,
        source: &mut dyn ChunkSource,
    ) -> CodecResult<FirmwareDelta> {
        Ok(FirmwareDelta {
            estimator: crate::estimator::EstimatorDynamics::decode(r)?,
            navigator: crate::nav::NavDynamics::decode(r)?,
            health: r.option(|r| Ok(Box::new(crate::frontend::SensorHealth::decode(r)?)))?,
            failsafes: r.option(|r| Ok(Box::new(FailsafeEngine::decode(r)?)))?,
            defects: r.option(|r| Ok(Box::new(DefectEngine::decode(r)?)))?,
            mission: r.option(|r| Ok(Box::new(MissionManager::decode(r)?)))?,
            mode: OperatingMode::decode(r)?,
            armed: r.bool()?,
            home: Vec3::decode(r)?,
            time: r.f64()?,
            takeoff_target: r.f64()?,
            after_takeoff: OperatingMode::decode(r)?,
            guided_target: r.option(Vec3::decode)?,
            hold_position: Vec3::decode(r)?,
            rtl_phase: RtlPhase::decode(r)?,
            touchdown_timer: r.f64()?,
            last_heartbeat: r.f64()?,
            last_status: r.f64()?,
            last_selected: SelectedSensors::decode(r)?,
            mode_history_base: r.usize()?,
            mode_history_suffix: r.seq(|r| Ok((r.f64()?, OperatingMode::decode(r)?)))?,
            outbox: r.seq(|r| {
                let frame = r.bytes()?;
                let (msg, _seq, used) = avis_mavlite::decode_frame(&frame)
                    .map_err(|_| CodecError::Malformed("outbox frame"))?;
                if used != frame.len() {
                    return Err(CodecError::Malformed("outbox frame length"));
                }
                Ok(msg)
            })?,
            defect_log: avis_sim::CowDelta::decode_chunked(r, source, &mut |r| {
                Ok((r.f64()?, DefectOverrides::decode(r)?))
            })?,
        })
    }
}

/// The UAV control firmware.
#[derive(Debug, Clone)]
pub struct Firmware {
    profile: FirmwareProfile,
    params: FirmwareParams,
    injector: SharedInjector,
    frontend: SensorFrontend,
    estimator: StateEstimator,
    navigator: Navigator,
    failsafes: FailsafeEngine,
    defects: DefectEngine,
    mission: MissionManager,
    mode: OperatingMode,
    armed: bool,
    home: Vec3,
    time: f64,
    takeoff_target: f64,
    /// Mode to enter once the takeoff altitude is reached.
    after_takeoff: OperatingMode,
    guided_target: Option<Vec3>,
    hold_position: Vec3,
    rtl_phase: RtlPhase,
    touchdown_timer: f64,
    mode_history: Vec<(f64, OperatingMode)>,
    outbox: Vec<Message>,
    last_heartbeat: f64,
    last_status: f64,
    last_selected: SelectedSensors,
    defect_log: CowVec<(f64, DefectOverrides)>,
}

impl Firmware {
    /// Creates a firmware instance with the given profile, injected-defect
    /// set and fault injector handle.
    pub fn new(profile: FirmwareProfile, bugs: BugSet, injector: SharedInjector) -> Self {
        let params = FirmwareParams::for_profile(profile);
        let navigator = Navigator::new(&params);
        let mut fw = Firmware {
            profile,
            params,
            injector: injector.clone(),
            frontend: SensorFrontend::new(injector),
            estimator: StateEstimator::default(),
            navigator,
            failsafes: FailsafeEngine::new(),
            defects: DefectEngine::new(bugs),
            mission: MissionManager::new(),
            mode: OperatingMode::PreFlight,
            armed: false,
            home: Vec3::ZERO,
            time: 0.0,
            takeoff_target: 0.0,
            after_takeoff: OperatingMode::Guided,
            guided_target: None,
            hold_position: Vec3::ZERO,
            rtl_phase: RtlPhase::Travel {
                cruise_altitude: 15.0,
            },
            touchdown_timer: 0.0,
            mode_history: Vec::new(),
            outbox: Vec::new(),
            last_heartbeat: -10.0,
            last_status: -10.0,
            last_selected: SelectedSensors::default(),
            defect_log: CowVec::new(),
        };
        fw.record_mode(0.0);
        fw
    }

    /// Creates a firmware with custom parameters (ablation experiments).
    pub fn with_params(
        profile: FirmwareProfile,
        params: FirmwareParams,
        bugs: BugSet,
        injector: SharedInjector,
    ) -> Self {
        let mut fw = Firmware::new(profile, bugs, injector);
        fw.navigator = Navigator::new(&params);
        fw.params = params;
        fw
    }

    /// The firmware profile.
    pub fn profile(&self) -> FirmwareProfile {
        self.profile
    }

    /// The firmware parameters.
    pub fn params(&self) -> &FirmwareParams {
        &self.params
    }

    /// The current operating mode.
    pub fn mode(&self) -> OperatingMode {
        self.mode
    }

    /// Whether the motors are armed.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// The launch (home) position.
    pub fn home(&self) -> Vec3 {
        self.home
    }

    /// The current state estimate.
    pub fn estimate(&self) -> &EstimatorState {
        self.estimator.state()
    }

    /// Every mode transition so far, as `(time, mode)` pairs.
    pub fn mode_history(&self) -> &[(f64, OperatingMode)] {
        &self.mode_history
    }

    /// Failsafe events that have fired.
    pub fn failsafe_events(&self) -> &[FailsafeEvent] {
        self.failsafes.events()
    }

    /// Steps at which injected defects were active (diagnostics). Backed
    /// by a copy-on-write vector so snapshots share the history.
    pub fn defect_log(&self) -> &CowVec<(f64, DefectOverrides)> {
        &self.defect_log
    }

    /// The mission manager (read access).
    pub fn mission(&self) -> &MissionManager {
        &self.mission
    }

    /// A compact telemetry snapshot.
    pub fn telemetry(&self) -> Telemetry {
        let est = self.estimator.state();
        Telemetry {
            time: self.time,
            mode: self.mode,
            armed: self.armed,
            altitude: est.altitude,
            climb_rate: est.climb_rate,
            position: est.position,
            mission_index: self.mission.current_index(),
            landed: !self.armed || (est.altitude < 0.3 && est.climb_rate.abs() < 0.3),
        }
    }

    /// Captures the firmware's complete state so a later run can resume
    /// from this exact point (see [`FirmwareSnapshot`]). Seals the
    /// defect log's tail so the capture shares the history structurally
    /// (O(1) in the run length) rather than deep-cloning it.
    pub fn snapshot(&mut self) -> FirmwareSnapshot {
        self.defect_log.seal();
        FirmwareSnapshot {
            firmware: self.clone(),
        }
    }

    /// Drains the outgoing MAVLite messages (heartbeats, status, acks,
    /// mission protocol responses).
    pub fn drain_outbox(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains the outgoing messages into `out` (cleared first), keeping
    /// both buffers' capacity so a tick loop that reuses `out` performs no
    /// steady-state allocations.
    pub fn drain_outbox_into(&mut self, out: &mut Vec<Message>) {
        out.clear();
        out.append(&mut self.outbox);
    }

    /// Handles one incoming ground-station message.
    pub fn handle_message(&mut self, msg: &Message) {
        match *msg {
            Message::ArmDisarm { arm } => self.handle_arm(arm),
            Message::SetMode { mode } => self.handle_set_mode(mode),
            Message::CommandTakeoff { altitude } => self.handle_takeoff_command(altitude),
            Message::CommandGoto { x, y, z } if self.mode == OperatingMode::Guided => {
                self.guided_target = Some(Vec3::new(x, y, z));
            }
            Message::MissionCount { .. } | Message::MissionItemMsg { .. } => {
                let responses = self.mission.handle_message(msg);
                self.outbox.extend(responses);
            }
            _ => {}
        }
    }

    /// Handles a batch of incoming messages in order.
    pub fn handle_messages<'a, I: IntoIterator<Item = &'a Message>>(&mut self, msgs: I) {
        for m in msgs {
            self.handle_message(m);
        }
    }

    fn handle_arm(&mut self, arm: bool) {
        if !arm {
            self.armed = false;
            self.transition_to(OperatingMode::PreFlight);
            self.outbox.push(Message::CommandAck {
                command: CommandKind::Arm,
                result: AckResult::Accepted,
            });
            return;
        }
        // Seeded protocol defect (PROTO-101): the arm handler is not
        // idempotent. A correct firmware re-acknowledges an arm request
        // received while armed and changes nothing; the buggy one treats
        // it as a toggle, disarming the motors mid-air. The stock path
        // below is safe — `prearm_checks_pass` rejects arm-while-armed —
        // so this branch is only reachable when the defect is enabled
        // *and* a link fault duplicates or storms the arm command.
        if self.armed && self.defects.bugs().is_enabled(BugId::ProtoDoubleArm) {
            self.armed = false;
            self.transition_to(OperatingMode::PreFlight);
            self.defect_log.push((
                self.time,
                DefectOverrides {
                    active: vec![BugId::ProtoDoubleArm],
                    ..Default::default()
                },
            ));
            self.outbox.push(Message::CommandAck {
                command: CommandKind::Arm,
                result: AckResult::Accepted,
            });
            return;
        }
        let ok = self.prearm_checks_pass();
        if ok {
            self.armed = true;
            let est = self.estimator.state();
            self.home = Vec3::new(est.position.x, est.position.y, 0.0);
            self.hold_position = self.home;
            self.navigator.reset(est.yaw);
        }
        self.outbox.push(Message::CommandAck {
            command: CommandKind::Arm,
            result: if ok {
                AckResult::Accepted
            } else {
                AckResult::Rejected
            },
        });
    }

    fn prearm_checks_pass(&self) -> bool {
        if self.mode != OperatingMode::PreFlight {
            return false;
        }
        let health = self.frontend.health();
        if health.imu_failed() {
            return false;
        }
        if self.params.arming_requires_gps && !health.kind_available(SensorKind::Gps) {
            return false;
        }
        if self.params.arming_requires_compass && !health.kind_available(SensorKind::Compass) {
            return false;
        }
        true
    }

    fn handle_set_mode(&mut self, requested: ProtocolMode) {
        let target = mode_from_protocol(requested);
        let accepted = self.request_mode(target);
        self.outbox.push(Message::CommandAck {
            command: CommandKind::SetMode,
            result: if accepted {
                AckResult::Accepted
            } else {
                AckResult::Rejected
            },
        });
    }

    fn handle_takeoff_command(&mut self, altitude: f64) {
        let accepted = self.armed
            && matches!(self.mode, OperatingMode::Guided | OperatingMode::PreFlight)
            && altitude > 0.0;
        // Seeded crash defect (PROTO-102): the takeoff handler asserts
        // instead of rejecting when the command is accepted against a
        // position estimate that already went stale. A correct firmware
        // would refuse the climb; the buggy one aborts the process. The
        // state is only reachable when a GPS failure lands *between*
        // arming and the mode change — i.e. a delayed command link — so
        // pure sensor-fault campaigns never see it, and the checker must
        // contain the unwind to keep the campaign alive.
        if accepted
            && self.defects.bugs().is_enabled(BugId::ProtoPanicOnStaleEkf)
            && !self.estimator.state().position_ok
        {
            self.defect_log.push((
                self.time,
                DefectOverrides {
                    active: vec![BugId::ProtoPanicOnStaleEkf],
                    ..Default::default()
                },
            ));
            panic!(
                "PROTO-102: takeoff commanded on a stale position estimate \
                 ({:.3}s since last GPS fix)",
                self.estimator.state().gps_loss_seconds
            );
        }
        if accepted {
            self.takeoff_target = altitude;
            self.after_takeoff = OperatingMode::Guided;
            self.transition_to(OperatingMode::Takeoff);
        }
        self.outbox.push(Message::CommandAck {
            command: CommandKind::Takeoff,
            result: if accepted {
                AckResult::Accepted
            } else {
                AckResult::Rejected
            },
        });
    }

    /// Requests a mode change, applying the same validity checks a ground
    /// station request goes through. Returns whether the change happened.
    pub fn request_mode(&mut self, target: OperatingMode) -> bool {
        if !self.armed && !matches!(target, OperatingMode::PreFlight) {
            // ArduPilot allows selecting modes while disarmed; we accept the
            // selection only for Auto (mission start happens at arm+auto)
            // and reject flight modes that need the vehicle armed.
            if !target.is_auto() {
                return false;
            }
        }
        if target.requires_position()
            && !self.estimator.state().position_ok
            && self.frontend.health().kind_failed(SensorKind::Gps)
        {
            return false;
        }
        match target {
            OperatingMode::Auto { .. } => {
                if !self.mission.has_mission() {
                    return false;
                }
                self.mission.restart();
                self.start_current_mission_item();
                true
            }
            OperatingMode::Land => {
                self.hold_position = self.estimator.state().position;
                self.transition_to(OperatingMode::Land);
                true
            }
            OperatingMode::ReturnToLaunch => {
                self.enter_rtl();
                true
            }
            OperatingMode::PosHold | OperatingMode::Brake => {
                self.hold_position = self.estimator.state().position;
                self.transition_to(target);
                true
            }
            other => {
                self.transition_to(other);
                true
            }
        }
    }

    fn enter_rtl(&mut self) {
        let est = self.estimator.state();
        let cruise = est.altitude.max(self.params.rtl_altitude);
        self.rtl_phase = RtlPhase::Travel {
            cruise_altitude: cruise,
        };
        self.transition_to(OperatingMode::ReturnToLaunch);
    }

    /// Starts executing the current mission item, switching to the
    /// appropriate operating mode.
    fn start_current_mission_item(&mut self) {
        match self.mission.current_command() {
            Some(MissionCommand::Takeoff { altitude }) => {
                self.takeoff_target = altitude;
                self.after_takeoff = OperatingMode::Auto {
                    leg: self.mission.current_index() as u8,
                };
                self.transition_to(OperatingMode::Takeoff);
            }
            Some(MissionCommand::Waypoint { .. }) => {
                self.transition_to(OperatingMode::Auto {
                    leg: self.mission.current_index() as u8,
                });
            }
            Some(MissionCommand::Land) => {
                self.hold_position = self.estimator.state().position;
                self.transition_to(OperatingMode::Land);
            }
            Some(MissionCommand::ReturnToLaunch) => self.enter_rtl(),
            None => {
                // Mission complete: land where we are.
                self.hold_position = self.estimator.state().position;
                self.transition_to(OperatingMode::Land);
            }
        }
    }

    fn advance_mission(&mut self) {
        self.mission.advance();
        self.start_current_mission_item();
    }

    fn transition_to(&mut self, mode: OperatingMode) {
        if self.mode == mode {
            return;
        }
        self.mode = mode;
        self.touchdown_timer = 0.0;
        self.record_mode(self.time);
    }

    fn record_mode(&mut self, time: f64) {
        self.mode_history.push((time, self.mode));
        self.injector.report_mode(time, self.mode.code());
    }

    /// Runs one control-loop iteration and returns the motor commands for
    /// the simulator.
    pub fn step(&mut self, readings: &[SensorReading], time: f64, dt: f64) -> MotorCommands {
        self.time = time;
        // 1. Instrumented sensor drivers (fault injection happens here).
        let selected = self.frontend.ingest(readings, time);
        self.last_selected = selected;
        // 2. State estimation.
        let estimate = self.estimator.update(&selected, self.frontend.health(), dt);
        // 3. Injected-defect evaluation (before failsafes, since some
        //    defects suppress them).
        let battery_failsafe_fired = self.failsafes.has_fired(FailsafeCause::BatteryLow)
            || self.failsafes.has_fired(FailsafeCause::BatteryCritical);
        let overrides = {
            let ctx = DefectContext {
                mode: self.mode,
                health: self.frontend.health(),
                estimate: &estimate,
                time,
                home: self.home,
                battery_failsafe_fired,
                profile: self.profile,
            };
            self.defects.evaluate(&ctx)
        };
        if !overrides.is_empty() {
            self.defect_log.push((time, overrides.clone()));
        }
        // 4. Failsafes (unless an active defect suppresses them).
        if let Some(event) = self.failsafes.evaluate(
            self.mode,
            self.frontend.health(),
            &selected,
            &estimate,
            &self.params,
            self.armed,
            time,
        ) {
            if !overrides.suppress_failsafes {
                if let Some(new_mode) = FailsafeEngine::mode_for_action(event.action, self.mode) {
                    match new_mode {
                        OperatingMode::ReturnToLaunch => self.enter_rtl(),
                        OperatingMode::Land => {
                            self.hold_position = self.estimator.state().position;
                            self.transition_to(OperatingMode::Land);
                        }
                        OperatingMode::PreFlight => {
                            self.armed = false;
                            self.transition_to(OperatingMode::PreFlight);
                        }
                        other => self.transition_to(other),
                    }
                }
            }
        }
        // 5. Defect-forced mode change.
        if let Some(forced) = overrides.force_mode {
            if forced == OperatingMode::Land {
                self.hold_position = self.estimator.state().position;
            }
            self.transition_to(forced);
        }
        // 6. Mode logic -> setpoint.
        let mut setpoint = self.mode_setpoint(&overrides, dt);
        // 7. Defect setpoint override.
        if let Some(sp) = overrides.setpoint {
            if self.armed {
                setpoint = sp;
            }
        }
        // 8. Telemetry.
        self.emit_telemetry(time);
        // 9. Motor output.
        if overrides.cut_motors {
            return MotorCommands::IDLE;
        }
        let rates = self.last_selected.gyro.unwrap_or(Vec3::ZERO);
        let estimate = *self.estimator.state();
        self.navigator.update(setpoint, &estimate, rates, dt)
    }

    /// Computes the navigation setpoint for the current mode, advancing the
    /// mission / takeoff / landing state machines as needed.
    fn mode_setpoint(&mut self, overrides: &DefectOverrides, dt: f64) -> Setpoint {
        let est = *self.estimator.state();
        if !self.armed {
            return Setpoint::Idle;
        }
        match self.mode {
            OperatingMode::PreFlight | OperatingMode::Crashed => Setpoint::GroundIdle,
            OperatingMode::Takeoff => {
                let reached = est.altitude >= self.takeoff_target - self.params.altitude_acceptance;
                if reached && !overrides.disable_altitude_reached {
                    let next = self.after_takeoff;
                    if next.is_auto() {
                        self.advance_mission();
                    } else {
                        self.transition_to(next);
                    }
                    return self.mode_setpoint(overrides, dt);
                }
                Setpoint::ClimbTo {
                    altitude: self.takeoff_target,
                    hold: Vec3::new(self.home.x, self.home.y, 0.0),
                }
            }
            OperatingMode::Auto { .. } => match self.mission.current_command() {
                Some(MissionCommand::Waypoint { x, y, z }) => {
                    let target = Vec3::new(x, y, z);
                    let reached = est.position.horizontal_distance(target)
                        < self.params.waypoint_acceptance_radius
                        && (est.altitude - z).abs() < self.params.altitude_acceptance * 2.0;
                    if reached {
                        self.advance_mission();
                        return self.mode_setpoint(overrides, dt);
                    }
                    Setpoint::GotoPosition {
                        target,
                        speed: self.params.waypoint_speed,
                    }
                }
                Some(_) | None => {
                    // The current item is not a waypoint: let the mission
                    // state machine pick the right mode for it.
                    self.start_current_mission_item();
                    self.mode_setpoint(overrides, dt)
                }
            },
            OperatingMode::Guided => match self.guided_target {
                Some(target) => Setpoint::GotoPosition {
                    target,
                    speed: self.params.waypoint_speed,
                },
                None => Setpoint::HoldPosition {
                    target: Vec3::new(est.position.x, est.position.y, est.altitude),
                },
            },
            OperatingMode::PosHold | OperatingMode::Brake => Setpoint::HoldPosition {
                target: self.hold_position,
            },
            OperatingMode::AltHold => Setpoint::HoldAltitude {
                altitude: est.altitude,
            },
            OperatingMode::Stabilize => Setpoint::RawThrottle { throttle: 0.38 },
            OperatingMode::Land => {
                let rate = if est.altitude > self.params.land_final_altitude {
                    self.params.land_descent_rate
                } else {
                    self.params.land_final_rate
                };
                self.update_touchdown(dt, &est);
                Setpoint::Descend {
                    rate,
                    hold: Some(Vec3::new(self.hold_position.x, self.hold_position.y, 0.0)),
                }
            }
            OperatingMode::ReturnToLaunch => {
                let cruise = match self.rtl_phase {
                    RtlPhase::Travel { cruise_altitude } => cruise_altitude,
                    RtlPhase::Landing => 0.0,
                };
                match self.rtl_phase {
                    RtlPhase::Travel { .. } => {
                        let target = Vec3::new(self.home.x, self.home.y, cruise);
                        if est.position.horizontal_distance(target)
                            < self.params.waypoint_acceptance_radius
                        {
                            self.rtl_phase = RtlPhase::Landing;
                            self.hold_position = Vec3::new(self.home.x, self.home.y, 0.0);
                        }
                        Setpoint::GotoPosition {
                            target,
                            speed: self.params.waypoint_speed,
                        }
                    }
                    RtlPhase::Landing => {
                        let rate = if est.altitude > self.params.land_final_altitude {
                            self.params.rtl_descent_rate
                        } else {
                            self.params.land_final_rate
                        };
                        self.update_touchdown(dt, &est);
                        Setpoint::Descend {
                            rate,
                            hold: Some(Vec3::new(self.home.x, self.home.y, 0.0)),
                        }
                    }
                }
            }
        }
    }

    fn update_touchdown(&mut self, dt: f64, est: &EstimatorState) {
        if est.altitude < 0.3 && est.climb_rate > -0.3 {
            self.touchdown_timer += dt;
            if self.touchdown_timer > 1.0 {
                self.armed = false;
                self.transition_to(OperatingMode::PreFlight);
            }
        } else {
            self.touchdown_timer = 0.0;
        }
    }

    fn emit_telemetry(&mut self, time: f64) {
        if time - self.last_heartbeat >= 0.1 {
            self.last_heartbeat = time;
            self.outbox.push(Message::Heartbeat {
                mode: mode_to_protocol(self.mode),
                armed: self.armed,
            });
        }
        if time - self.last_status >= 0.05 {
            self.last_status = time;
            let t = self.telemetry();
            self.outbox.push(Message::Status {
                x: t.position.x,
                y: t.position.y,
                altitude: t.altitude,
                climb_rate: t.climb_rate,
                mission_seq: t.mission_index as u16,
                landed: t.landed,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_mavlite::square_mission;
    use avis_sim::simulator::{SimConfig, Simulator};
    use avis_sim::{Environment, SensorNoise};

    const DT: f64 = 0.0025;

    fn make_sim() -> Simulator {
        let mut config = SimConfig {
            dt: DT,
            ..SimConfig::default()
        };
        config.sensors.noise = SensorNoise::noiseless();
        Simulator::new(config, Environment::open_field())
    }

    fn make_firmware(bugs: BugSet) -> (Firmware, SharedInjector) {
        let injector = SharedInjector::passthrough();
        (
            Firmware::new(FirmwareProfile::ArduPilotLike, bugs, injector.clone()),
            injector,
        )
    }

    /// Runs the full firmware-in-the-loop simulation for `seconds`.
    fn run(fw: &mut Firmware, sim: &mut Simulator, seconds: f64) {
        let steps = (seconds / DT) as usize;
        let mut readings = sim.step(&MotorCommands::IDLE).readings;
        for _ in 0..steps {
            let cmd = fw.step(&readings, sim.time(), DT);
            let out = sim.step(&cmd);
            readings = out.readings;
        }
    }

    fn upload_mission(fw: &mut Firmware, items: &[avis_mavlite::MissionItem]) {
        fw.handle_message(&Message::MissionCount {
            count: items.len() as u16,
        });
        loop {
            let responses = fw.drain_outbox();
            let mut done = false;
            for r in &responses {
                match *r {
                    Message::MissionRequest { seq } => {
                        fw.handle_message(&Message::MissionItemMsg {
                            item: items[seq as usize],
                        });
                    }
                    Message::MissionAck { accepted } => {
                        assert!(accepted);
                        done = true;
                    }
                    _ => {}
                }
            }
            if done {
                break;
            }
            assert!(!responses.is_empty(), "mission upload stalled");
        }
    }

    #[test]
    fn firmware_delta_codec_round_trips_through_chunk_store() {
        use avis_sim::codec::{ByteReader, ByteWriter};
        use avis_sim::cow::MemoryChunkStore;

        // Fly a mission far enough that the delta carries real payload:
        // mode transitions, a mission, defect-log growth and outbox
        // traffic between the base and the cut.
        let (mut fw, injector) = make_firmware(BugSet::none());
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 1.0);
        upload_mission(&mut fw, &square_mission(20.0, 15.0, true));
        fw.handle_message(&Message::ArmDisarm { arm: true });
        fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::Auto,
        });
        run(&mut fw, &mut sim, 3.0);
        let base = fw.snapshot();
        run(&mut fw, &mut sim, 5.0);
        fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::ReturnToLaunch,
        });
        run(&mut fw, &mut sim, 2.0);
        let cut = fw.snapshot();
        let delta = cut.diff(&base);

        let mut store = MemoryChunkStore::default();
        let mut w = ByteWriter::new();
        delta.encode(&mut w, &mut store);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = FirmwareDelta::decode(&mut r, &mut store).expect("decode");
        r.finish().expect("no trailing bytes");

        // Both re-materialised firmwares must continue bit-identically.
        let mut via_delta = base.apply(&delta).restore(injector.clone());
        let mut via_codec = base.apply(&decoded).restore(injector);
        assert_eq!(via_delta.mode(), via_codec.mode());
        assert_eq!(via_delta.mode_history(), via_codec.mode_history());
        assert_eq!(via_delta.defect_log().len(), via_codec.defect_log().len());
        let mut readings = sim.step(&MotorCommands::IDLE).readings;
        for _ in 0..400 {
            let a = via_delta.step(&readings, sim.time(), DT);
            let b = via_codec.step(&readings, sim.time(), DT);
            assert_eq!(a, b, "restored firmwares diverged");
            readings = sim.step(&a).readings;
        }
        assert_eq!(via_delta.drain_outbox(), via_codec.drain_outbox());
    }

    #[test]
    fn starts_disarmed_in_preflight() {
        let (fw, _) = make_firmware(BugSet::none());
        assert_eq!(fw.mode(), OperatingMode::PreFlight);
        assert!(!fw.armed());
        assert_eq!(fw.mode_history().len(), 1);
    }

    #[test]
    fn arming_requires_healthy_sensors() {
        use avis_hinj::{FaultInjector, FaultPlan, FaultSpec};
        use avis_sim::SensorInstance;
        // All GPS failed: ArduPilot profile requires GPS to arm.
        let specs: Vec<FaultSpec> = (0..2)
            .map(|i| FaultSpec::new(SensorInstance::new(SensorKind::Gps, i), 0.0))
            .collect();
        let injector = SharedInjector::new(FaultInjector::new(FaultPlan::from_specs(specs)));
        let mut fw = Firmware::new(FirmwareProfile::ArduPilotLike, BugSet::none(), injector);
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 1.0);
        fw.handle_message(&Message::ArmDisarm { arm: true });
        assert!(!fw.armed());
        let acks: Vec<Message> = fw
            .drain_outbox()
            .into_iter()
            .filter(|m| {
                matches!(
                    m,
                    Message::CommandAck {
                        command: CommandKind::Arm,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(
            acks.last(),
            Some(&Message::CommandAck {
                command: CommandKind::Arm,
                result: AckResult::Rejected
            })
        );
    }

    #[test]
    fn arm_then_guided_takeoff_reaches_altitude() {
        let (mut fw, _) = make_firmware(BugSet::none());
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 1.0);
        fw.handle_message(&Message::ArmDisarm { arm: true });
        assert!(fw.armed());
        fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::Guided,
        });
        fw.handle_message(&Message::CommandTakeoff { altitude: 15.0 });
        assert_eq!(fw.mode(), OperatingMode::Takeoff);
        run(&mut fw, &mut sim, 20.0);
        assert_eq!(
            fw.mode(),
            OperatingMode::Guided,
            "takeoff should complete into guided"
        );
        assert!((sim.physical_state().position.z - 15.0).abs() < 3.0);
        assert!(sim.first_collision().is_none());
    }

    #[test]
    fn duplicated_arm_is_idempotent_on_stock_firmware() {
        let (mut fw, _) = make_firmware(BugSet::none());
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 1.0);
        fw.handle_message(&Message::ArmDisarm { arm: true });
        assert!(fw.armed());
        fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::Guided,
        });
        fw.handle_message(&Message::CommandTakeoff { altitude: 15.0 });
        run(&mut fw, &mut sim, 12.0);
        // A duplicated arm request mid-air is rejected and changes nothing.
        fw.handle_message(&Message::ArmDisarm { arm: true });
        assert!(fw.armed(), "stock firmware treats arm as idempotent");
        run(&mut fw, &mut sim, 5.0);
        assert!(sim.first_collision().is_none());
        assert!(fw.defect_log().is_empty());
    }

    #[test]
    fn proto_double_arm_defect_disarms_mid_air() {
        let (mut fw, _) = make_firmware(BugSet::only(BugId::ProtoDoubleArm));
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 1.0);
        fw.handle_message(&Message::ArmDisarm { arm: true });
        assert!(fw.armed());
        fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::Guided,
        });
        fw.handle_message(&Message::CommandTakeoff { altitude: 15.0 });
        run(&mut fw, &mut sim, 12.0);
        assert!(sim.physical_state().position.z > 5.0, "vehicle is airborne");
        // The duplicated arm toggles the buggy handler: motors off mid-air.
        fw.handle_message(&Message::ArmDisarm { arm: true });
        assert!(!fw.armed(), "PROTO-101 disarms on a duplicated arm");
        assert_eq!(fw.mode(), OperatingMode::PreFlight);
        assert!(fw
            .defect_log()
            .iter()
            .any(|(_, o)| o.active.contains(&BugId::ProtoDoubleArm)));
        run(&mut fw, &mut sim, 6.0);
        assert!(
            sim.first_collision().is_some(),
            "the unpowered vehicle falls out of the sky"
        );
    }

    #[test]
    fn full_auto_mission_flies_and_lands_safely() {
        let (mut fw, injector) = make_firmware(BugSet::none());
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 1.0);
        upload_mission(&mut fw, &square_mission(15.0, 10.0, true));
        fw.handle_message(&Message::ArmDisarm { arm: true });
        fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::Auto,
        });
        assert_eq!(fw.mode(), OperatingMode::Takeoff);
        run(&mut fw, &mut sim, 90.0);
        // Mission is over: landed at home, disarmed, no crash.
        assert!(!fw.armed(), "vehicle should have landed and disarmed");
        assert_eq!(fw.mode(), OperatingMode::PreFlight);
        assert!(sim.physical_state().position.z < 0.5);
        assert!(
            sim.physical_state()
                .position
                .horizontal_distance(Vec3::ZERO)
                < 4.0,
            "landed near home: {:?}",
            sim.physical_state().position
        );
        assert!(
            sim.first_collision().is_none(),
            "no crash in a fault-free mission"
        );
        // Mode transitions were reported to the injector, including auto legs.
        let transitions = injector.mode_transitions();
        assert!(transitions.len() >= 5, "transitions: {transitions:?}");
    }

    #[test]
    fn rtl_mission_returns_to_home() {
        let (mut fw, _) = make_firmware(BugSet::none());
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 1.0);
        upload_mission(&mut fw, &square_mission(15.0, 10.0, false));
        fw.handle_message(&Message::ArmDisarm { arm: true });
        fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::Auto,
        });
        run(&mut fw, &mut sim, 110.0);
        assert!(!fw.armed());
        assert!(
            sim.physical_state()
                .position
                .horizontal_distance(Vec3::ZERO)
                < 4.0
        );
        assert!(sim.first_collision().is_none());
    }

    #[test]
    fn gps_loss_without_bug_triggers_safe_failsafe() {
        use avis_hinj::{FaultInjector, FaultPlan, FaultSpec};
        use avis_sim::SensorInstance;
        // Fail every GPS instance while the mission is flying waypoints.
        let specs: Vec<FaultSpec> = (0..2)
            .map(|i| FaultSpec::new(SensorInstance::new(SensorKind::Gps, i), 12.0))
            .collect();
        let injector = SharedInjector::new(FaultInjector::new(FaultPlan::from_specs(specs)));
        let mut fw = Firmware::new(FirmwareProfile::ArduPilotLike, BugSet::none(), injector);
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 1.0);
        upload_mission(&mut fw, &square_mission(15.0, 10.0, true));
        fw.handle_message(&Message::ArmDisarm { arm: true });
        fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::Auto,
        });
        run(&mut fw, &mut sim, 80.0);
        // The GPS failsafe landed the vehicle without a crash.
        assert!(fw
            .failsafe_events()
            .iter()
            .any(|e| e.cause == FailsafeCause::PositionLoss));
        assert!(
            sim.first_collision().is_none(),
            "correct handling must not crash"
        );
        assert!(
            sim.physical_state().position.z < 1.0,
            "vehicle should have landed"
        );
    }

    #[test]
    fn imu_loss_without_bug_lands_safely() {
        use avis_hinj::{FaultInjector, FaultPlan, FaultSpec};
        use avis_sim::SensorInstance;
        let specs: Vec<FaultSpec> = (0..3)
            .map(|i| FaultSpec::new(SensorInstance::new(SensorKind::Accelerometer, i), 25.0))
            .collect();
        let injector = SharedInjector::new(FaultInjector::new(FaultPlan::from_specs(specs)));
        let mut fw = Firmware::new(FirmwareProfile::ArduPilotLike, BugSet::none(), injector);
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 1.0);
        upload_mission(&mut fw, &square_mission(15.0, 10.0, true));
        fw.handle_message(&Message::ArmDisarm { arm: true });
        fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::Auto,
        });
        run(&mut fw, &mut sim, 80.0);
        assert!(fw
            .failsafe_events()
            .iter()
            .any(|e| e.cause == FailsafeCause::ImuLoss));
        assert!(sim.first_collision().is_none());
    }

    #[test]
    fn telemetry_messages_are_emitted() {
        let (mut fw, _) = make_firmware(BugSet::none());
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 1.0);
        let msgs = fw.drain_outbox();
        let heartbeats = msgs
            .iter()
            .filter(|m| matches!(m, Message::Heartbeat { .. }))
            .count();
        let statuses = msgs
            .iter()
            .filter(|m| matches!(m, Message::Status { .. }))
            .count();
        assert!(heartbeats >= 8, "heartbeats: {heartbeats}");
        assert!(statuses >= 15, "statuses: {statuses}");
        // Draining empties the outbox.
        assert!(fw.drain_outbox().is_empty());
    }

    #[test]
    fn set_mode_auto_without_mission_rejected() {
        let (mut fw, _) = make_firmware(BugSet::none());
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 0.5);
        fw.handle_message(&Message::ArmDisarm { arm: true });
        fw.drain_outbox();
        fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::Auto,
        });
        let acks: Vec<Message> = fw
            .drain_outbox()
            .into_iter()
            .filter(|m| {
                matches!(
                    m,
                    Message::CommandAck {
                        command: CommandKind::SetMode,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(
            acks.last(),
            Some(&Message::CommandAck {
                command: CommandKind::SetMode,
                result: AckResult::Rejected
            })
        );
        assert_ne!(fw.mode(), OperatingMode::Takeoff);
    }

    #[test]
    fn apm16682_bug_crashes_when_imu_fails_during_final_landing() {
        use avis_hinj::{FaultInjector, FaultPlan, FaultSpec};
        use avis_sim::SensorInstance;
        // First run a golden mission to learn when the final landing happens:
        // instead, directly exercise the window by failing the primary
        // accelerometer late in the mission (during the land item).
        let bugs = BugSet::only(crate::bugs::BugId::Apm16682);
        // Find the approximate time the Land mode starts from a golden run.
        let (mut golden_fw, _) = make_firmware(BugSet::none());
        let mut golden_sim = make_sim();
        run(&mut golden_fw, &mut golden_sim, 1.0);
        upload_mission(&mut golden_fw, &square_mission(15.0, 10.0, true));
        golden_fw.handle_message(&Message::ArmDisarm { arm: true });
        golden_fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::Auto,
        });
        run(&mut golden_fw, &mut golden_sim, 90.0);
        let land_start = golden_fw
            .mode_history()
            .iter()
            .find(|(_, m)| *m == OperatingMode::Land)
            .map(|(t, _)| *t)
            .expect("golden run should land");
        // Fail the primary accelerometer late in the landing descent, when
        // the vehicle is in its final metres.
        let golden_land_duration = 18.0;
        let inject_at = land_start + golden_land_duration;
        let injector = SharedInjector::new(FaultInjector::new(FaultPlan::from_specs(vec![
            FaultSpec::new(SensorInstance::new(SensorKind::Accelerometer, 0), inject_at),
        ])));
        let mut fw = Firmware::new(FirmwareProfile::ArduPilotLike, bugs, injector);
        let mut sim = make_sim();
        run(&mut fw, &mut sim, 1.0);
        upload_mission(&mut fw, &square_mission(15.0, 10.0, true));
        fw.handle_message(&Message::ArmDisarm { arm: true });
        fw.handle_message(&Message::SetMode {
            mode: ProtocolMode::Auto,
        });
        run(&mut fw, &mut sim, 110.0);
        assert!(
            sim.first_collision().is_some(),
            "the APM-16682 defect should crash the vehicle (defect log: {} entries)",
            fw.defect_log().len()
        );
    }
}
