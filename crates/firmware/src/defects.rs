//! Runtime behaviour of the injected defects.
//!
//! [`crate::bugs`] describes *what* each bug is (its trigger sensor, mode
//! window and symptom); this module implements *how* an enabled bug
//! corrupts the firmware's behaviour once its trigger condition is met.
//! The [`DefectEngine`] is consulted once per control step and fills a
//! set of [`DefectOverrides`] that the main loop applies on top of the
//! correct behaviour: forcing a mode, replacing the navigation setpoint,
//! suppressing a failsafe, or cutting the motors. The firmware keeps one
//! set of overrides and the engine refills it in place each step, so a
//! latched defect costs no allocation.
//!
//! Each defect is written so that:
//!
//! - it only activates when its triggering sensor failure happens inside
//!   its operating-mode window (this is what makes the bugs *timing
//!   sensitive* and hard for unstratified search to find), and
//! - once active it drives the vehicle into the symptom the paper reports
//!   (crash, fly-away or takeoff failure).

use crate::bugs::{BugId, BugSet};
use crate::estimator::EstimatorState;
use crate::frontend::SensorHealth;
use crate::modes::OperatingMode;
use crate::nav::Setpoint;
use crate::params::FirmwareProfile;
use avis_sim::codec::{ByteReader, ByteWriter, CodecResult};
use avis_sim::{SensorKind, Vec3};
use std::collections::BTreeMap;

/// Everything a defect needs to decide whether it triggers this step.
#[derive(Debug, Clone, Copy)]
pub struct DefectContext<'a> {
    /// Current operating mode.
    pub mode: OperatingMode,
    /// Sensor health as seen by the frontend.
    pub health: &'a SensorHealth,
    /// Current state estimate.
    pub estimate: &'a EstimatorState,
    /// Simulation time (s).
    pub time: f64,
    /// Home (launch) position.
    pub home: Vec3,
    /// Whether the low-battery failsafe has fired this run.
    pub battery_failsafe_fired: bool,
    /// The firmware profile being simulated.
    pub profile: FirmwareProfile,
}

/// The behavioural overrides produced by active defects for one step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DefectOverrides {
    /// Force the firmware into this mode.
    pub force_mode: Option<OperatingMode>,
    /// Replace the navigation setpoint entirely.
    pub setpoint: Option<Setpoint>,
    /// Do not let failsafes change the mode this step.
    pub suppress_failsafes: bool,
    /// Stop the motors (mid-air motor cut).
    pub cut_motors: bool,
    /// Disable "target altitude reached" checks (takeoff never completes).
    pub disable_altitude_reached: bool,
    /// Bugs that are currently active.
    pub active: Vec<BugId>,
}

impl DefectOverrides {
    /// Returns `true` if no defect altered behaviour this step.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Resets every override, keeping `active`'s capacity.
    pub fn clear(&mut self) {
        self.force_mode = None;
        self.setpoint = None;
        self.suppress_failsafes = false;
        self.cut_motors = false;
        self.disable_altitude_reached = false;
        self.active.clear();
    }

    /// Serialise the overrides bit-exactly.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.option(self.force_mode.as_ref(), |w, m| m.encode(w));
        w.option(self.setpoint.as_ref(), |w, s| s.encode(w));
        w.bool(self.suppress_failsafes);
        w.bool(self.cut_motors);
        w.bool(self.disable_altitude_reached);
        w.seq(&self.active, |w, b| b.encode(w));
    }

    /// Decode overrides previously written by [`DefectOverrides::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<DefectOverrides> {
        Ok(DefectOverrides {
            force_mode: r.option(OperatingMode::decode)?,
            setpoint: r.option(Setpoint::decode)?,
            suppress_failsafes: r.bool()?,
            cut_motors: r.bool()?,
            disable_altitude_reached: r.bool()?,
            active: r.seq(BugId::decode)?,
        })
    }
}

/// Tracks trigger state for the enabled defects and produces per-step
/// overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct DefectEngine {
    bugs: BugSet,
    /// Time at which each bug first triggered.
    triggered_at: BTreeMap<BugId, f64>,
}

impl DefectEngine {
    /// Creates an engine for the given set of enabled defects.
    pub fn new(bugs: BugSet) -> Self {
        DefectEngine {
            bugs,
            triggered_at: BTreeMap::new(),
        }
    }

    /// The set of enabled defects.
    pub fn bugs(&self) -> &BugSet {
        &self.bugs
    }

    /// Bugs that have triggered so far, with their trigger times.
    pub fn triggered(&self) -> &BTreeMap<BugId, f64> {
        &self.triggered_at
    }

    /// Serialise the engine (enabled set + trigger times) deterministically.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.bugs.encode(w);
        let triggered: Vec<(BugId, f64)> =
            self.triggered_at.iter().map(|(b, t)| (*b, *t)).collect();
        w.seq(&triggered, |w, (b, t)| {
            b.encode(w);
            w.f64(*t);
        });
    }

    /// Decode an engine previously written by [`DefectEngine::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<DefectEngine> {
        Ok(DefectEngine {
            bugs: BugSet::decode(r)?,
            triggered_at: r
                .seq(|r| Ok((BugId::decode(r)?, r.f64()?)))?
                .into_iter()
                .collect(),
        })
    }

    /// Evaluates every enabled defect for this step into `out`, which is
    /// cleared first: the caller keeps one set of overrides across steps,
    /// so this runs without allocating once `out.active` has grown.
    pub fn evaluate(&mut self, ctx: &DefectContext<'_>, out: &mut DefectOverrides) {
        out.clear();
        // The enabled set iterates in catalog order. Protocol defects
        // never trigger here; they live in the message handlers (see
        // `Firmware::handle_arm`).
        for bug in self.bugs.iter() {
            if bug.is_protocol() || bug.firmware() != ctx.profile {
                continue;
            }
            if let Some(elapsed) = Self::activation(&mut self.triggered_at, bug, ctx) {
                out.active.push(bug);
                Self::apply(bug, elapsed, ctx, out);
            }
        }
    }

    /// Returns the seconds since `bug` triggered, triggering it now if its
    /// condition holds for the first time.
    fn activation(
        triggered_at: &mut BTreeMap<BugId, f64>,
        bug: BugId,
        ctx: &DefectContext<'_>,
    ) -> Option<f64> {
        if let Some(&t0) = triggered_at.get(&bug) {
            return Some(ctx.time - t0);
        }
        if Self::trigger_condition(bug, ctx) {
            triggered_at.insert(bug, ctx.time);
            return Some(0.0);
        }
        None
    }

    /// The per-bug trigger condition: the sensor failure inside the mode
    /// window listed in Tables II and V.
    fn trigger_condition(bug: BugId, ctx: &DefectContext<'_>) -> bool {
        use OperatingMode as M;
        use SensorKind as K;
        let primary = |k: K| ctx.health.primary_failed(k);
        let mode = ctx.mode;
        match bug {
            // --- Previously-unknown ArduPilot bugs (Table II) ----------
            BugId::Apm16020 => primary(K::Gps) && matches!(mode, M::Auto { leg } if leg <= 1),
            BugId::Apm16021 => {
                primary(K::Accelerometer)
                    && (mode == M::Takeoff || matches!(mode, M::Auto { leg } if leg <= 1))
                    && ctx.estimate.altitude > 2.0
            }
            BugId::Apm16027 => primary(K::Barometer) && matches!(mode, M::PreFlight | M::Takeoff),
            BugId::Apm16967 => primary(K::Compass) && matches!(mode, M::Auto { leg } if leg >= 2),
            BugId::Apm16682 => {
                primary(K::Accelerometer) && mode == M::Land && ctx.estimate.altitude < 4.0
            }
            BugId::Apm16953 => primary(K::Gyroscope) && matches!(mode, M::Land | M::ReturnToLaunch),
            // --- Previously-unknown PX4 bugs (Table II) ------------------
            BugId::Px417046 => primary(K::Gyroscope) && mode == M::ReturnToLaunch,
            BugId::Px417057 => primary(K::Gyroscope) && matches!(mode, M::PreFlight | M::Takeoff),
            BugId::Px417192 => primary(K::Compass) && matches!(mode, M::PreFlight | M::Takeoff),
            BugId::Px417181 => primary(K::Barometer) && matches!(mode, M::PreFlight | M::Takeoff),
            // --- Re-inserted known bugs (Table V) ------------------------
            BugId::Apm4455 => primary(K::Gps) && matches!(mode, M::PosHold | M::Brake),
            BugId::Apm4679 => {
                primary(K::Accelerometer) && matches!(mode, M::Auto { leg } if leg >= 1)
            }
            BugId::Apm5428 => primary(K::Barometer) && mode == M::Land,
            BugId::Apm9349 => {
                primary(K::Compass)
                    && (mode == M::Takeoff || matches!(mode, M::Auto { leg } if leg <= 1))
            }
            BugId::Px413291 => {
                // The buggy PX4 code keys on "GPS unit lost" rather than on
                // the fused position estimate, so losing the primary GPS is
                // enough to take the broken branch once the battery
                // failsafe engages.
                primary(K::Gps) && ctx.health.kind_failed(K::Battery) && ctx.battery_failsafe_fired
            }
            // Skipped by `evaluate`.
            BugId::ProtoDoubleArm | BugId::ProtoPanicOnStaleEkf => false,
        }
    }

    /// Applies the behavioural corruption of an active bug.
    fn apply(bug: BugId, elapsed: f64, ctx: &DefectContext<'_>, out: &mut DefectOverrides) {
        let est = ctx.estimate;
        let hold = Vec3::new(est.position.x, est.position.y, 0.0);
        match bug {
            BugId::Apm16020 => {
                // Position-loss failsafe skipped right after entering the
                // mission; navigation continues on a drifting estimate.
                out.suppress_failsafes = true;
                out.setpoint = Some(Setpoint::HorizontalVelocity {
                    velocity: Vec3::new(4.0, 1.5, 0.0),
                    altitude: est.altitude.max(12.0),
                });
            }
            BugId::Apm16021 => {
                // Stale climb acceleration: overshoot, then land on the
                // inflated estimate and descend into the ground.
                if elapsed < 2.5 {
                    out.setpoint = Some(Setpoint::VerticalSpeed {
                        rate: 2.5,
                        hold: Some(hold),
                    });
                } else {
                    out.force_mode = Some(OperatingMode::Land);
                    out.setpoint = Some(Setpoint::VerticalSpeed {
                        rate: -2.6,
                        hold: Some(hold),
                    });
                }
            }
            BugId::Apm16027 => {
                // Frozen altitude reference: the reached-altitude check
                // never passes and the climb continues indefinitely.
                out.disable_altitude_reached = true;
                if ctx.mode == OperatingMode::Takeoff {
                    out.setpoint = Some(Setpoint::VerticalSpeed {
                        rate: 2.0,
                        hold: Some(hold),
                    });
                }
            }
            BugId::Apm16967 => {
                // Stale compass: track error grows, then the land failsafe
                // resets the state estimate and descends far too fast.
                if elapsed < 3.0 {
                    out.setpoint = Some(Setpoint::HorizontalVelocity {
                        velocity: Vec3::new(3.0, -3.0, 0.0),
                        altitude: est.altitude,
                    });
                } else {
                    out.force_mode = Some(OperatingMode::Land);
                    out.setpoint = Some(Setpoint::VerticalSpeed {
                        rate: -2.6,
                        hold: Some(hold),
                    });
                }
            }
            BugId::Apm16682 => {
                // Figure 1: IMU loss in the final metres of landing engages
                // GPS-driven return-home; GPS altitude is too coarse and the
                // vehicle descends hard into the ground.
                out.force_mode = Some(OperatingMode::ReturnToLaunch);
                out.setpoint = Some(Setpoint::VerticalSpeed {
                    rate: -2.8,
                    hold: Some(hold),
                });
            }
            BugId::Apm16953 => {
                // Gyro loss during landing removes rate damping; the landing
                // controller keeps descending far faster than the touchdown
                // limit.
                out.setpoint = Some(Setpoint::VerticalSpeed {
                    rate: -2.7,
                    hold: Some(hold),
                });
            }
            BugId::Px417046 => {
                // Frozen heading steers the RTL away from home.
                let away = (Vec3::new(
                    est.position.x - ctx.home.x,
                    est.position.y - ctx.home.y,
                    0.0,
                ))
                .normalized()
                .unwrap_or(Vec3::new(1.0, 0.0, 0.0));
                out.setpoint = Some(Setpoint::HorizontalVelocity {
                    velocity: away * 4.0,
                    altitude: est.altitude.max(10.0),
                });
                out.suppress_failsafes = true;
            }
            BugId::Px417057 => {
                // Unstabilised climb; the tip-over protection then cuts the
                // motors in mid-air.
                if elapsed < 1.2 {
                    out.setpoint = Some(Setpoint::VerticalSpeed {
                        rate: 2.5,
                        hold: Some(hold),
                    });
                } else {
                    out.cut_motors = true;
                }
            }
            BugId::Px417192 => {
                // Heading alignment pending forever: climb capped just off
                // the ground, mission never progresses.
                out.disable_altitude_reached = true;
                out.setpoint = Some(Setpoint::ClimbTo {
                    altitude: 1.5,
                    hold,
                });
            }
            BugId::Px417181 => {
                // Altitude reference never initialised: throttle stays at the
                // spool-up level and the vehicle never leaves the ground.
                out.disable_altitude_reached = true;
                out.setpoint = Some(Setpoint::RawThrottle { throttle: 0.2 });
            }
            BugId::Apm4455 => {
                out.suppress_failsafes = true;
                out.setpoint = Some(Setpoint::HorizontalVelocity {
                    velocity: Vec3::new(3.5, 1.0, 0.0),
                    altitude: est.altitude,
                });
            }
            BugId::Apm4679 => {
                out.setpoint = Some(Setpoint::VerticalSpeed {
                    rate: -2.5,
                    hold: Some(hold),
                });
            }
            BugId::Apm5428 => {
                out.setpoint = Some(Setpoint::VerticalSpeed {
                    rate: -2.6,
                    hold: Some(hold),
                });
            }
            BugId::Apm9349 => {
                out.suppress_failsafes = true;
                out.setpoint = Some(Setpoint::HorizontalVelocity {
                    velocity: Vec3::new(-4.0, 2.0, 0.0),
                    altitude: est.altitude.max(10.0),
                });
            }
            BugId::Px413291 => {
                // Battery failsafe engages RTL without a local position.
                out.suppress_failsafes = true;
                out.setpoint = Some(Setpoint::HorizontalVelocity {
                    velocity: Vec3::new(4.0, -2.0, 0.0),
                    altitude: est.altitude.max(10.0),
                });
            }
            // Handled in the message path, not the control loop.
            BugId::ProtoDoubleArm | BugId::ProtoPanicOnStaleEkf => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::SensorFrontend;
    use avis_hinj::{FaultInjector, FaultPlan, FaultSpec, SharedInjector};
    use avis_sim::codec::fnv1a;
    use avis_sim::{
        RigidBodyState, SensorInstance, SensorNoise, SensorReading, SensorSuite, SensorSuiteConfig,
        SensorValue,
    };

    fn health_with(kind_failures: &[(SensorKind, u8)]) -> SensorHealth {
        let mut cfg = SensorSuiteConfig::iris();
        cfg.noise = SensorNoise::noiseless();
        let mut suite = SensorSuite::new(cfg, 1);
        let readings = suite.sample(
            &RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 10.0)),
            0.4,
            0.0,
            0.001,
            1,
        );
        let mut specs = Vec::new();
        for &(kind, count) in kind_failures {
            for idx in 0..count {
                specs.push(FaultSpec::new(SensorInstance::new(kind, idx), 0.0));
            }
        }
        let mut fe = SensorFrontend::new(SharedInjector::new(FaultInjector::new(
            FaultPlan::from_specs(specs),
        )));
        fe.ingest(&readings, 0.0);
        fe.health().clone()
    }

    fn estimate_at(altitude: f64) -> EstimatorState {
        EstimatorState {
            altitude,
            position: Vec3::new(5.0, 5.0, altitude),
            position_ok: true,
            altitude_ok: true,
            ..Default::default()
        }
    }

    fn ctx<'a>(
        mode: OperatingMode,
        health: &'a SensorHealth,
        estimate: &'a EstimatorState,
        profile: FirmwareProfile,
        time: f64,
    ) -> DefectContext<'a> {
        DefectContext {
            mode,
            health,
            estimate,
            time,
            home: Vec3::ZERO,
            battery_failsafe_fired: false,
            profile,
        }
    }

    #[test]
    fn no_bugs_enabled_means_no_overrides() {
        let mut engine = DefectEngine::new(BugSet::none());
        let health = health_with(&[(SensorKind::Gps, 2)]);
        let est = estimate_at(15.0);
        let mut out = DefectOverrides::default();
        engine.evaluate(
            &ctx(
                OperatingMode::Auto { leg: 0 },
                &health,
                &est,
                FirmwareProfile::ArduPilotLike,
                10.0,
            ),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn bug_requires_matching_profile() {
        let mut engine = DefectEngine::new(BugSet::only(BugId::Px417181));
        let health = health_with(&[(SensorKind::Barometer, 1)]);
        let est = estimate_at(0.0);
        let mut out = DefectOverrides::default();
        // ArduPilot profile: the PX4 bug never activates.
        engine.evaluate(
            &ctx(
                OperatingMode::Takeoff,
                &health,
                &est,
                FirmwareProfile::ArduPilotLike,
                1.0,
            ),
            &mut out,
        );
        assert!(out.is_empty());
        engine.evaluate(
            &ctx(
                OperatingMode::Takeoff,
                &health,
                &est,
                FirmwareProfile::Px4Like,
                1.0,
            ),
            &mut out,
        );
        assert_eq!(out.active, vec![BugId::Px417181]);
        assert!(out.disable_altitude_reached);
        assert!(matches!(out.setpoint, Some(Setpoint::RawThrottle { .. })));
    }

    #[test]
    fn apm16682_requires_low_altitude_landing() {
        let mut engine = DefectEngine::new(BugSet::only(BugId::Apm16682));
        let health = health_with(&[(SensorKind::Accelerometer, 1)]);
        let mut out = DefectOverrides::default();
        // High altitude: not triggered (the window is the final metres).
        let est = estimate_at(10.0);
        engine.evaluate(
            &ctx(
                OperatingMode::Land,
                &health,
                &est,
                FirmwareProfile::ArduPilotLike,
                50.0,
            ),
            &mut out,
        );
        assert!(out.is_empty());
        // Low altitude: triggered, forces RTL with a fast descent.
        let est = estimate_at(1.5);
        engine.evaluate(
            &ctx(
                OperatingMode::Land,
                &health,
                &est,
                FirmwareProfile::ArduPilotLike,
                51.0,
            ),
            &mut out,
        );
        assert_eq!(out.active, vec![BugId::Apm16682]);
        assert_eq!(out.force_mode, Some(OperatingMode::ReturnToLaunch));
        match out.setpoint {
            Some(Setpoint::VerticalSpeed { rate, .. }) => assert!(rate < -2.0),
            other => panic!("unexpected setpoint {other:?}"),
        }
    }

    #[test]
    fn apm16021_two_phase_behaviour() {
        let mut engine = DefectEngine::new(BugSet::only(BugId::Apm16021));
        let health = health_with(&[(SensorKind::Accelerometer, 1)]);
        let est = estimate_at(18.0);
        let c = |t| {
            ctx(
                OperatingMode::Takeoff,
                &health,
                &est,
                FirmwareProfile::ArduPilotLike,
                t,
            )
        };
        let mut out = DefectOverrides::default();
        engine.evaluate(&c(10.0), &mut out);
        assert!(matches!(out.setpoint, Some(Setpoint::VerticalSpeed { rate, .. }) if rate > 0.0));
        assert_eq!(out.force_mode, None);
        // After the overshoot phase the bug forces a fast landing.
        engine.evaluate(&c(13.0), &mut out);
        assert_eq!(out.force_mode, Some(OperatingMode::Land));
        assert!(matches!(out.setpoint, Some(Setpoint::VerticalSpeed { rate, .. }) if rate < 0.0));
    }

    #[test]
    fn backup_failure_does_not_trigger_primary_failure_bugs() {
        let mut engine = DefectEngine::new(BugSet::only(BugId::Apm16020));
        // Fail only the backup GPS instance.
        let mut cfg = SensorSuiteConfig::iris();
        cfg.noise = SensorNoise::noiseless();
        let mut suite = SensorSuite::new(cfg, 1);
        let readings = suite.sample(
            &RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 10.0)),
            0.4,
            0.0,
            0.001,
            1,
        );
        let mut fe = SensorFrontend::new(SharedInjector::new(FaultInjector::new(
            FaultPlan::from_specs(vec![FaultSpec::new(
                SensorInstance::new(SensorKind::Gps, 1),
                0.0,
            )]),
        )));
        fe.ingest(&readings, 0.0);
        let est = estimate_at(15.0);
        let mut out = DefectOverrides::default();
        engine.evaluate(
            &ctx(
                OperatingMode::Auto { leg: 0 },
                fe.health(),
                &est,
                FirmwareProfile::ArduPilotLike,
                5.0,
            ),
            &mut out,
        );
        assert!(out.is_empty(), "a backup-only failure is handled correctly");
    }

    #[test]
    fn px413291_requires_both_failures_and_battery_failsafe() {
        let mut engine = DefectEngine::new(BugSet::only(BugId::Px413291));
        let est = estimate_at(15.0);
        let mut out = DefectOverrides::default();
        // Only GPS failed: not triggered.
        let health = health_with(&[(SensorKind::Gps, 2)]);
        let mut c = ctx(
            OperatingMode::Auto { leg: 1 },
            &health,
            &est,
            FirmwareProfile::Px4Like,
            5.0,
        );
        c.battery_failsafe_fired = true;
        engine.evaluate(&c, &mut out);
        assert!(out.is_empty());
        // GPS + battery failed and the battery failsafe fired: triggered.
        let health = health_with(&[(SensorKind::Gps, 2), (SensorKind::Battery, 1)]);
        let mut c = ctx(
            OperatingMode::Auto { leg: 1 },
            &health,
            &est,
            FirmwareProfile::Px4Like,
            6.0,
        );
        c.battery_failsafe_fired = true;
        engine.evaluate(&c, &mut out);
        assert_eq!(out.active, vec![BugId::Px413291]);
        assert!(out.suppress_failsafes);
        // Without the battery failsafe flag: not triggered.
        let mut engine2 = DefectEngine::new(BugSet::only(BugId::Px413291));
        let c2 = ctx(
            OperatingMode::Auto { leg: 1 },
            &health,
            &est,
            FirmwareProfile::Px4Like,
            6.0,
        );
        engine2.evaluate(&c2, &mut out);
        assert!(
            out.is_empty(),
            "evaluate clears the previous step's overrides"
        );
    }

    #[test]
    fn trigger_latches_even_if_mode_changes() {
        let mut engine = DefectEngine::new(BugSet::only(BugId::Apm16953));
        let health = health_with(&[(SensorKind::Gyroscope, 1)]);
        let est = estimate_at(8.0);
        let mut out = DefectOverrides::default();
        engine.evaluate(
            &ctx(
                OperatingMode::Land,
                &health,
                &est,
                FirmwareProfile::ArduPilotLike,
                30.0,
            ),
            &mut out,
        );
        assert!(!out.is_empty());
        // Later, in a different mode, the bug remains active (latched).
        engine.evaluate(
            &ctx(
                OperatingMode::AltHold,
                &health,
                &est,
                FirmwareProfile::ArduPilotLike,
                31.0,
            ),
            &mut out,
        );
        assert_eq!(out.active, vec![BugId::Apm16953]);
        assert_eq!(engine.triggered().len(), 1);
    }

    #[test]
    fn protocol_defects_never_trigger_on_a_step() {
        let mut engine = DefectEngine::new(BugSet::with_bugs([
            BugId::ProtoDoubleArm,
            BugId::ProtoPanicOnStaleEkf,
        ]));
        let health = health_with(&[(SensorKind::Gps, 2)]);
        let est = estimate_at(0.0);
        let mut out = DefectOverrides::default();
        engine.evaluate(
            &ctx(
                OperatingMode::Takeoff,
                &health,
                &est,
                FirmwareProfile::ArduPilotLike,
                1.0,
            ),
            &mut out,
        );
        assert!(out.is_empty());
        assert!(engine.triggered().is_empty());
    }

    #[test]
    fn every_unknown_bug_has_a_trigger_and_behaviour() {
        // Smoke test: for each unknown bug, construct its nominal trigger
        // context and check it activates and produces an override.
        let mut out = DefectOverrides::default();
        for bug in BugId::UNKNOWN {
            let info = bug.info();
            let mode = match bug {
                BugId::Apm16020 => OperatingMode::Auto { leg: 0 },
                BugId::Apm16021 => OperatingMode::Takeoff,
                BugId::Apm16027 => OperatingMode::Takeoff,
                BugId::Apm16967 => OperatingMode::Auto { leg: 2 },
                BugId::Apm16682 => OperatingMode::Land,
                BugId::Apm16953 => OperatingMode::Land,
                BugId::Px417046 => OperatingMode::ReturnToLaunch,
                BugId::Px417057 => OperatingMode::Takeoff,
                BugId::Px417192 => OperatingMode::Takeoff,
                BugId::Px417181 => OperatingMode::Takeoff,
                _ => unreachable!(),
            };
            let altitude = if bug == BugId::Apm16682 { 1.5 } else { 10.0 };
            let health = health_with(&[(info.sensor, 1)]);
            let est = estimate_at(altitude);
            let mut engine = DefectEngine::new(BugSet::only(bug));
            engine.evaluate(&ctx(mode, &health, &est, info.firmware, 10.0), &mut out);
            assert_eq!(out.active, vec![bug], "{bug} should trigger in its window");
            assert!(
                out.setpoint.is_some() || out.cut_motors || out.force_mode.is_some(),
                "{bug} should corrupt behaviour"
            );
        }
    }

    /// The readings of a noiseless iris suite at rest, plus a hand-built
    /// compass past the 64 instances a `u64` mask holds.
    fn scripted_readings(time: f64) -> Vec<SensorReading> {
        let mut cfg = SensorSuiteConfig::iris();
        cfg.noise = SensorNoise::noiseless();
        let mut suite = SensorSuite::new(cfg, 1);
        let state = RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 10.0));
        let mut readings = suite.sample(&state, 0.4, time, 0.001, 1);
        readings.push(SensorReading {
            instance: SensorInstance::new(SensorKind::Compass, 70),
            time,
            value: SensorValue::MagneticHeading(0.25),
        });
        readings
    }

    #[test]
    fn health_and_defect_bytes_are_pinned() {
        // GPS 0 fails, then both barometers, then compass 70; APM-16020
        // triggers on the GPS failure in the first mission leg. The last
        // pass reads the suite backwards, so the per-kind lists come out
        // in another order. The hashes (FNV-1a over every step's
        // encoding) were recorded with the `BTreeSet`/`Vec` bookkeeping
        // the per-kind tables replaced; the store writes these bytes, so
        // they must not change without a `MANIFEST_VERSION` bump.
        const HEALTH: u64 = 0x63ad_face_a754_fb4f;
        const ENGINE: u64 = 0x8c1e_6c7d_eb72_06a0;
        let plan = FaultPlan::from_specs([
            FaultSpec::new(SensorInstance::new(SensorKind::Gps, 0), 1.0),
            FaultSpec::new(SensorInstance::new(SensorKind::Barometer, 0), 2.0),
            FaultSpec::new(SensorInstance::new(SensorKind::Barometer, 1), 2.0),
            FaultSpec::new(SensorInstance::new(SensorKind::Compass, 70), 3.0),
        ]);
        let mut frontend = SensorFrontend::new(SharedInjector::new(FaultInjector::new(plan)));
        let mut engine =
            DefectEngine::new(BugSet::current_code_base(FirmwareProfile::ArduPilotLike));
        let estimate = estimate_at(15.0);
        let mut out = DefectOverrides::default();
        let (mut health_bytes, mut engine_bytes) = (ByteWriter::new(), ByteWriter::new());
        for (time, reversed) in [
            (0.5, false),
            (1.0, false),
            (2.0, false),
            (3.0, false),
            (3.5, true),
        ] {
            let mut readings = scripted_readings(time);
            if reversed {
                readings.reverse();
            }
            frontend.ingest(&readings, time);
            engine.evaluate(
                &ctx(
                    OperatingMode::Auto { leg: 0 },
                    frontend.health(),
                    &estimate,
                    FirmwareProfile::ArduPilotLike,
                    time,
                ),
                &mut out,
            );
            frontend.health().encode(&mut health_bytes);
            engine.encode(&mut engine_bytes);
        }
        assert_eq!(engine.triggered().get(&BugId::Apm16020), Some(&1.0));
        assert_eq!(frontend.health().failed_count(SensorKind::Compass), 1);
        let health_bytes = health_bytes.into_bytes();
        let engine_bytes = engine_bytes.into_bytes();
        assert_eq!(
            (fnv1a(&health_bytes), fnv1a(&engine_bytes)),
            (HEALTH, ENGINE),
            "the sensor-health or defect-engine bytes changed"
        );

        // Both decode back to what they encode.
        let mut w = ByteWriter::new();
        frontend.health().encode(&mut w);
        engine.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(&SensorHealth::decode(&mut r).unwrap(), frontend.health());
        assert_eq!(DefectEngine::decode(&mut r).unwrap(), engine);
        r.finish().unwrap();
    }
}
