//! The failsafe engine.
//!
//! Control firmware accounts for sensor failures by failing over to
//! redundant sensors, discarding invalid readings and falling back to
//! degraded flight modes (§I). This module implements the *mode-changing*
//! part of that strategy: given the sensor health and estimator quality
//! flags, decide whether a failsafe must fire and what action it takes.
//! The paper's thesis is that exactly this logic tends to be "too narrowly
//! tailored to specific operating modes" — which is why the injected
//! defects in [`crate::defects`] mostly live at the boundaries of this
//! engine.

use crate::estimator::EstimatorState;
use crate::frontend::{SelectedSensors, SensorHealth};
use crate::modes::OperatingMode;
use crate::params::{FailsafeAction, FirmwareParams};
use avis_sim::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use avis_sim::SensorKind;
use std::fmt;

/// Why a failsafe fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailsafeCause {
    /// Horizontal position lost (all GPS failed or estimate timed out).
    PositionLoss,
    /// Inertial measurement lost (all accelerometers or all gyroscopes failed).
    ImuLoss,
    /// Altitude reference lost (all barometers failed and no GPS altitude).
    AltitudeLoss,
    /// Heading reference lost (all compasses failed).
    CompassLoss,
    /// Battery below the low threshold (or battery monitor lost).
    BatteryLow,
    /// Battery below the critical threshold.
    BatteryCritical,
}

impl FailsafeCause {
    /// Serialise the cause as a stable one-byte tag.
    pub fn encode(&self, w: &mut ByteWriter) {
        let tag: u8 = match self {
            FailsafeCause::PositionLoss => 0,
            FailsafeCause::ImuLoss => 1,
            FailsafeCause::AltitudeLoss => 2,
            FailsafeCause::CompassLoss => 3,
            FailsafeCause::BatteryLow => 4,
            FailsafeCause::BatteryCritical => 5,
        };
        w.u8(tag);
    }

    /// Decode a cause previously written by [`FailsafeCause::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<FailsafeCause> {
        Ok(match r.u8()? {
            0 => FailsafeCause::PositionLoss,
            1 => FailsafeCause::ImuLoss,
            2 => FailsafeCause::AltitudeLoss,
            3 => FailsafeCause::CompassLoss,
            4 => FailsafeCause::BatteryLow,
            5 => FailsafeCause::BatteryCritical,
            _ => return Err(CodecError::Malformed("failsafe cause tag")),
        })
    }
}

impl fmt::Display for FailsafeCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailsafeCause::PositionLoss => "position loss",
            FailsafeCause::ImuLoss => "imu loss",
            FailsafeCause::AltitudeLoss => "altitude loss",
            FailsafeCause::CompassLoss => "compass loss",
            FailsafeCause::BatteryLow => "battery low",
            FailsafeCause::BatteryCritical => "battery critical",
        };
        f.write_str(s)
    }
}

/// A failsafe decision: the cause and the action to take.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailsafeEvent {
    /// Why the failsafe fired.
    pub cause: FailsafeCause,
    /// What the firmware should do.
    pub action: FailsafeAction,
    /// Simulation time at which it fired (s).
    pub time: f64,
}

impl FailsafeEvent {
    /// Serialise the event bit-exactly.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.cause.encode(w);
        self.action.encode(w);
        w.f64(self.time);
    }

    /// Decode an event previously written by [`FailsafeEvent::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<FailsafeEvent> {
        Ok(FailsafeEvent {
            cause: FailsafeCause::decode(r)?,
            action: FailsafeAction::decode(r)?,
            time: r.f64()?,
        })
    }
}

/// The failsafe engine. Stateful so that each cause fires once per run
/// (matching the latch-style behaviour of real firmware).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailsafeEngine {
    fired: Vec<FailsafeEvent>,
}

impl FailsafeEngine {
    /// Creates an engine with no failsafes latched.
    pub fn new() -> Self {
        FailsafeEngine::default()
    }

    /// Every failsafe that has fired so far, in order.
    pub fn events(&self) -> &[FailsafeEvent] {
        &self.fired
    }

    /// Whether the given cause has already fired.
    pub fn has_fired(&self, cause: FailsafeCause) -> bool {
        self.fired.iter().any(|e| e.cause == cause)
    }

    /// Serialise the latched events in firing order.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.seq(&self.fired, |w, e| e.encode(w));
    }

    /// Decode an engine previously written by [`FailsafeEngine::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<FailsafeEngine> {
        Ok(FailsafeEngine {
            fired: r.seq(FailsafeEvent::decode)?,
        })
    }

    /// Evaluates the failsafe conditions for this step.
    ///
    /// Returns the highest-priority *new* failsafe event, if any. The
    /// caller (the firmware main loop) applies the action, unless a
    /// defect suppresses it.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate(
        &mut self,
        mode: OperatingMode,
        health: &SensorHealth,
        sensors: &SelectedSensors,
        estimate: &EstimatorState,
        params: &FirmwareParams,
        armed: bool,
        time: f64,
    ) -> Option<FailsafeEvent> {
        if !armed || matches!(mode, OperatingMode::PreFlight | OperatingMode::Crashed) {
            return None;
        }

        // Priority order: critical battery > IMU > position > altitude >
        // compass > low battery.
        let candidates = [
            self.battery_critical(sensors, health, params),
            self.imu_loss(health, params),
            self.position_loss(mode, estimate, params),
            self.altitude_loss(health),
            self.compass_loss(mode, health),
            self.battery_low(sensors, health, params),
        ];

        for candidate in candidates.into_iter().flatten() {
            if !self.has_fired(candidate.0) {
                let event = FailsafeEvent {
                    cause: candidate.0,
                    action: candidate.1,
                    time,
                };
                self.fired.push(event);
                return Some(event);
            }
        }
        None
    }

    fn battery_critical(
        &self,
        sensors: &SelectedSensors,
        _health: &SensorHealth,
        params: &FirmwareParams,
    ) -> Option<(FailsafeCause, FailsafeAction)> {
        let remaining = sensors.battery.map(|b| b.remaining)?;
        (remaining < params.battery_critical_threshold).then_some((
            FailsafeCause::BatteryCritical,
            params.battery_critical_action,
        ))
    }

    fn battery_low(
        &self,
        sensors: &SelectedSensors,
        health: &SensorHealth,
        params: &FirmwareParams,
    ) -> Option<(FailsafeCause, FailsafeAction)> {
        match sensors.battery {
            Some(b) if b.remaining < params.battery_low_threshold => {
                Some((FailsafeCause::BatteryLow, params.battery_low_action))
            }
            // A failed battery monitor is treated conservatively as a low
            // battery (the PX4-13291 scenario hinges on this path).
            None if health.kind_failed(SensorKind::Battery) => {
                Some((FailsafeCause::BatteryLow, params.battery_low_action))
            }
            _ => None,
        }
    }

    fn imu_loss(
        &self,
        health: &SensorHealth,
        params: &FirmwareParams,
    ) -> Option<(FailsafeCause, FailsafeAction)> {
        health
            .imu_failed()
            .then_some((FailsafeCause::ImuLoss, params.imu_failsafe_action))
    }

    fn position_loss(
        &self,
        mode: OperatingMode,
        estimate: &EstimatorState,
        params: &FirmwareParams,
    ) -> Option<(FailsafeCause, FailsafeAction)> {
        (mode.requires_position()
            && !estimate.position_ok
            && estimate.gps_loss_seconds >= params.gps_loss_timeout)
            .then_some((FailsafeCause::PositionLoss, params.gps_failsafe_action))
    }

    fn altitude_loss(&self, health: &SensorHealth) -> Option<(FailsafeCause, FailsafeAction)> {
        (health.kind_failed(SensorKind::Barometer) && health.kind_failed(SensorKind::Gps))
            .then_some((FailsafeCause::AltitudeLoss, FailsafeAction::Land))
    }

    fn compass_loss(
        &self,
        mode: OperatingMode,
        health: &SensorHealth,
    ) -> Option<(FailsafeCause, FailsafeAction)> {
        (health.kind_failed(SensorKind::Compass) && mode.requires_position())
            .then_some((FailsafeCause::CompassLoss, FailsafeAction::Land))
    }

    /// Maps a failsafe action to the operating mode it implies, given the
    /// current mode. Returns `None` when the action does not change modes.
    pub fn mode_for_action(
        action: FailsafeAction,
        current: OperatingMode,
    ) -> Option<OperatingMode> {
        match action {
            FailsafeAction::Warn => None,
            FailsafeAction::AltHold => Some(OperatingMode::AltHold),
            FailsafeAction::Land => Some(OperatingMode::Land),
            FailsafeAction::ReturnToLaunch => Some(OperatingMode::ReturnToLaunch),
            FailsafeAction::Disarm => Some(OperatingMode::PreFlight),
        }
        .filter(|&m| m != current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{BatteryState, SensorFrontend};
    use avis_hinj::{FaultInjector, FaultPlan, FaultSpec, SharedInjector};
    use avis_sim::{
        RigidBodyState, SensorInstance, SensorNoise, SensorSuite, SensorSuiteConfig, Vec3,
    };

    fn health_with_failures(kinds: &[(SensorKind, u8)]) -> (SensorHealth, SelectedSensors) {
        let mut cfg = SensorSuiteConfig::iris();
        cfg.noise = SensorNoise::noiseless();
        let mut suite = SensorSuite::new(cfg.clone(), 1);
        let readings = suite.sample(
            &RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 10.0)),
            0.4,
            0.0,
            0.001,
            1,
        );
        let mut specs = Vec::new();
        for &(kind, count) in kinds {
            for idx in 0..count {
                specs.push(FaultSpec::new(SensorInstance::new(kind, idx), 0.0));
            }
        }
        let mut fe = SensorFrontend::new(SharedInjector::new(FaultInjector::new(
            FaultPlan::from_specs(specs),
        )));
        let selected = fe.ingest(&readings, 0.0);
        (fe.health().clone(), selected)
    }

    fn good_estimate() -> EstimatorState {
        EstimatorState {
            position_ok: true,
            altitude_ok: true,
            ..Default::default()
        }
    }

    fn params() -> FirmwareParams {
        FirmwareParams::ardupilot()
    }

    #[test]
    fn no_failsafe_when_everything_healthy() {
        let (health, sensors) = health_with_failures(&[]);
        let mut engine = FailsafeEngine::new();
        let event = engine.evaluate(
            OperatingMode::Auto { leg: 1 },
            &health,
            &sensors,
            &good_estimate(),
            &params(),
            true,
            5.0,
        );
        assert!(event.is_none());
        assert!(engine.events().is_empty());
    }

    #[test]
    fn disarmed_or_preflight_never_fires() {
        let (health, sensors) = health_with_failures(&[(SensorKind::Accelerometer, 3)]);
        let mut engine = FailsafeEngine::new();
        assert!(engine
            .evaluate(
                OperatingMode::Auto { leg: 0 },
                &health,
                &sensors,
                &good_estimate(),
                &params(),
                false,
                1.0
            )
            .is_none());
        assert!(engine
            .evaluate(
                OperatingMode::PreFlight,
                &health,
                &sensors,
                &good_estimate(),
                &params(),
                true,
                1.0
            )
            .is_none());
    }

    #[test]
    fn imu_loss_triggers_land() {
        let (health, sensors) = health_with_failures(&[(SensorKind::Accelerometer, 3)]);
        let mut engine = FailsafeEngine::new();
        let event = engine
            .evaluate(
                OperatingMode::Auto { leg: 2 },
                &health,
                &sensors,
                &good_estimate(),
                &params(),
                true,
                3.0,
            )
            .expect("imu failsafe");
        assert_eq!(event.cause, FailsafeCause::ImuLoss);
        assert_eq!(event.action, FailsafeAction::Land);
        // Latched: does not fire twice.
        assert!(engine
            .evaluate(
                OperatingMode::Land,
                &health,
                &sensors,
                &good_estimate(),
                &params(),
                true,
                4.0
            )
            .is_none());
    }

    #[test]
    fn position_loss_requires_position_mode_and_timeout() {
        let (health, sensors) = health_with_failures(&[(SensorKind::Gps, 2)]);
        let mut engine = FailsafeEngine::new();
        let mut est = good_estimate();
        est.position_ok = false;
        est.gps_loss_seconds = 0.2;
        // Below the timeout: no event.
        assert!(engine
            .evaluate(
                OperatingMode::Auto { leg: 1 },
                &health,
                &sensors,
                &est,
                &params(),
                true,
                1.0
            )
            .is_none());
        est.gps_loss_seconds = 2.0;
        let event = engine
            .evaluate(
                OperatingMode::Auto { leg: 1 },
                &health,
                &sensors,
                &est,
                &params(),
                true,
                2.0,
            )
            .expect("gps failsafe");
        assert_eq!(event.cause, FailsafeCause::PositionLoss);
        // In a mode that does not need position (AltHold), it would not fire.
        let mut engine2 = FailsafeEngine::new();
        assert!(engine2
            .evaluate(
                OperatingMode::AltHold,
                &health,
                &sensors,
                &est,
                &params(),
                true,
                2.0
            )
            .is_none());
    }

    #[test]
    fn battery_thresholds_fire_in_priority_order() {
        let (health, mut sensors) = health_with_failures(&[]);
        let mut engine = FailsafeEngine::new();
        sensors.battery = Some(BatteryState {
            voltage: 11.0,
            remaining: 0.15,
        });
        let event = engine
            .evaluate(
                OperatingMode::Auto { leg: 0 },
                &health,
                &sensors,
                &good_estimate(),
                &params(),
                true,
                1.0,
            )
            .expect("low battery");
        assert_eq!(event.cause, FailsafeCause::BatteryLow);
        assert_eq!(event.action, FailsafeAction::ReturnToLaunch);

        sensors.battery = Some(BatteryState {
            voltage: 10.6,
            remaining: 0.05,
        });
        let event = engine
            .evaluate(
                OperatingMode::ReturnToLaunch,
                &health,
                &sensors,
                &good_estimate(),
                &params(),
                true,
                2.0,
            )
            .expect("critical battery");
        assert_eq!(event.cause, FailsafeCause::BatteryCritical);
        assert_eq!(event.action, FailsafeAction::Land);
    }

    #[test]
    fn failed_battery_monitor_treated_as_low_battery() {
        let (health, sensors) = health_with_failures(&[(SensorKind::Battery, 1)]);
        let mut engine = FailsafeEngine::new();
        let event = engine
            .evaluate(
                OperatingMode::Auto { leg: 1 },
                &health,
                &sensors,
                &good_estimate(),
                &params(),
                true,
                1.0,
            )
            .expect("battery monitor loss");
        assert_eq!(event.cause, FailsafeCause::BatteryLow);
    }

    #[test]
    fn altitude_loss_needs_both_baro_and_gps_failed() {
        let (health, sensors) = health_with_failures(&[(SensorKind::Barometer, 2)]);
        let mut engine = FailsafeEngine::new();
        assert!(engine
            .evaluate(
                OperatingMode::AltHold,
                &health,
                &sensors,
                &good_estimate(),
                &params(),
                true,
                1.0
            )
            .is_none());
        let (health, sensors) =
            health_with_failures(&[(SensorKind::Barometer, 2), (SensorKind::Gps, 2)]);
        let mut est = good_estimate();
        est.position_ok = false;
        est.gps_loss_seconds = 5.0;
        let mut engine = FailsafeEngine::new();
        // Altitude loss fires (position loss does not apply in AltHold).
        let event = engine
            .evaluate(
                OperatingMode::AltHold,
                &health,
                &sensors,
                &est,
                &params(),
                true,
                1.0,
            )
            .expect("altitude loss");
        assert_eq!(event.cause, FailsafeCause::AltitudeLoss);
        assert_eq!(event.action, FailsafeAction::Land);
    }

    #[test]
    fn compass_loss_fires_in_position_modes_only() {
        let (health, sensors) = health_with_failures(&[(SensorKind::Compass, 3)]);
        let mut engine = FailsafeEngine::new();
        assert!(engine
            .evaluate(
                OperatingMode::AltHold,
                &health,
                &sensors,
                &good_estimate(),
                &params(),
                true,
                1.0
            )
            .is_none());
        let event = engine
            .evaluate(
                OperatingMode::Auto { leg: 1 },
                &health,
                &sensors,
                &good_estimate(),
                &params(),
                true,
                1.0,
            )
            .expect("compass loss");
        assert_eq!(event.cause, FailsafeCause::CompassLoss);
    }

    #[test]
    fn imu_takes_priority_over_position() {
        let (health, sensors) =
            health_with_failures(&[(SensorKind::Accelerometer, 3), (SensorKind::Gps, 2)]);
        let mut est = good_estimate();
        est.position_ok = false;
        est.gps_loss_seconds = 10.0;
        let mut engine = FailsafeEngine::new();
        let event = engine
            .evaluate(
                OperatingMode::Auto { leg: 1 },
                &health,
                &sensors,
                &est,
                &params(),
                true,
                1.0,
            )
            .unwrap();
        assert_eq!(event.cause, FailsafeCause::ImuLoss);
        // Next evaluation surfaces the position loss.
        let event = engine
            .evaluate(
                OperatingMode::Auto { leg: 1 },
                &health,
                &sensors,
                &est,
                &params(),
                true,
                1.1,
            )
            .unwrap();
        assert_eq!(event.cause, FailsafeCause::PositionLoss);
    }

    #[test]
    fn mode_for_action_mapping() {
        use FailsafeAction::*;
        assert_eq!(
            FailsafeEngine::mode_for_action(Land, OperatingMode::Auto { leg: 1 }),
            Some(OperatingMode::Land)
        );
        assert_eq!(
            FailsafeEngine::mode_for_action(Land, OperatingMode::Land),
            None
        );
        assert_eq!(
            FailsafeEngine::mode_for_action(ReturnToLaunch, OperatingMode::Auto { leg: 0 }),
            Some(OperatingMode::ReturnToLaunch)
        );
        assert_eq!(
            FailsafeEngine::mode_for_action(AltHold, OperatingMode::PosHold),
            Some(OperatingMode::AltHold)
        );
        assert_eq!(
            FailsafeEngine::mode_for_action(Warn, OperatingMode::Auto { leg: 0 }),
            None
        );
        assert_eq!(
            FailsafeEngine::mode_for_action(Disarm, OperatingMode::Stabilize),
            Some(OperatingMode::PreFlight)
        );
    }
}
