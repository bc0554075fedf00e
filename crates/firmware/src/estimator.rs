//! The state estimator: fuses the selected sensor measurements into the
//! attitude, altitude, position and velocity estimates the navigation code
//! consumes.
//!
//! The paper's firmware (ArduPilot/PX4) runs an extended Kalman filter;
//! this substrate uses the same information flow with complementary
//! filters, which is sufficient because what the checker exercises is the
//! *degradation behaviour*: which estimates survive which sensor failures,
//! and which quality flags the failsafe logic sees.
//!
//! Degradation rules (the correct, non-buggy behaviour):
//!
//! - attitude: gyro integration corrected by accelerometer gravity
//!   direction and compass heading; loses correction terms as those
//!   sensors fail, but never invents data;
//! - altitude: accelerometer propagation corrected by the barometer,
//!   falling back to (coarse) GPS altitude when the barometer is lost;
//! - horizontal position/velocity: GPS-corrected inertial propagation;
//!   without GPS the estimate coasts and the `position_ok` flag drops
//!   after a timeout, which is what triggers the GPS failsafe.

use crate::frontend::{SelectedSensors, SensorHealth};
use avis_sim::codec::{ByteReader, ByteWriter, CodecResult};
use avis_sim::math::wrap_angle;
use avis_sim::{Quat, Vec3, GRAVITY};

/// A snapshot of the estimator outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorState {
    /// Estimated roll angle (rad).
    pub roll: f64,
    /// Estimated pitch angle (rad).
    pub pitch: f64,
    /// Estimated yaw / heading (rad).
    pub yaw: f64,
    /// Estimated altitude above home (m).
    pub altitude: f64,
    /// Estimated climb rate (m/s).
    pub climb_rate: f64,
    /// Estimated horizontal position (m; z carries the altitude).
    pub position: Vec3,
    /// Estimated velocity (m/s).
    pub velocity: Vec3,
    /// Whether the horizontal position estimate is usable.
    pub position_ok: bool,
    /// Whether the altitude estimate is usable.
    pub altitude_ok: bool,
    /// Seconds since the last usable GPS solution.
    pub gps_loss_seconds: f64,
}

impl Default for EstimatorState {
    fn default() -> Self {
        EstimatorState {
            roll: 0.0,
            pitch: 0.0,
            yaw: 0.0,
            altitude: 0.0,
            climb_rate: 0.0,
            position: Vec3::ZERO,
            velocity: Vec3::ZERO,
            position_ok: false,
            altitude_ok: false,
            gps_loss_seconds: 0.0,
        }
    }
}

impl EstimatorState {
    /// The estimated attitude as a quaternion.
    pub fn attitude(&self) -> Quat {
        Quat::from_euler(self.roll, self.pitch, self.yaw)
    }

    /// Serialise the estimate bit-exactly (all floats via their raw bits).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.f64(self.roll);
        w.f64(self.pitch);
        w.f64(self.yaw);
        w.f64(self.altitude);
        w.f64(self.climb_rate);
        self.position.encode(w);
        self.velocity.encode(w);
        w.bool(self.position_ok);
        w.bool(self.altitude_ok);
        w.f64(self.gps_loss_seconds);
    }

    /// Decode an estimate previously written by [`EstimatorState::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<EstimatorState> {
        Ok(EstimatorState {
            roll: r.f64()?,
            pitch: r.f64()?,
            yaw: r.f64()?,
            altitude: r.f64()?,
            climb_rate: r.f64()?,
            position: Vec3::decode(r)?,
            velocity: Vec3::decode(r)?,
            position_ok: r.bool()?,
            altitude_ok: r.bool()?,
            gps_loss_seconds: r.f64()?,
        })
    }
}

/// Filter gains for the complementary estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorGains {
    /// Attitude correction toward the accelerometer gravity direction (1/s).
    pub attitude_correction: f64,
    /// Heading correction toward the compass (1/s).
    pub heading_correction: f64,
    /// Altitude correction toward the barometer (1/s).
    pub baro_position: f64,
    /// Climb-rate correction toward the barometer (1/s²·s).
    pub baro_velocity: f64,
    /// Altitude correction toward GPS altitude when the barometer is lost (1/s).
    pub gps_altitude: f64,
    /// Horizontal position correction toward GPS (1/s).
    pub gps_position: f64,
    /// Horizontal velocity correction toward GPS velocity (1/s).
    pub gps_velocity: f64,
    /// Seconds without GPS before `position_ok` drops.
    pub gps_timeout: f64,
}

impl Default for EstimatorGains {
    fn default() -> Self {
        EstimatorGains {
            attitude_correction: 0.3,
            heading_correction: 2.0,
            baro_position: 3.0,
            baro_velocity: 1.5,
            gps_altitude: 0.8,
            gps_position: 1.2,
            gps_velocity: 2.5,
            gps_timeout: 1.0,
        }
    }
}

/// The complementary-filter state estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct StateEstimator {
    // snapshot: skip(static: rebuilt from the experiment config)
    gains: EstimatorGains,
    state: EstimatorState,
    baro_reference: Option<f64>,
}

impl Default for StateEstimator {
    fn default() -> Self {
        StateEstimator::new(EstimatorGains::default())
    }
}

impl StateEstimator {
    /// Creates an estimator with the given gains, at rest at the origin.
    pub fn new(gains: EstimatorGains) -> Self {
        StateEstimator {
            gains,
            state: EstimatorState::default(),
            baro_reference: None,
        }
    }

    /// The current estimate.
    pub fn state(&self) -> &EstimatorState {
        &self.state
    }

    /// The captured barometer ground reference, if initialised.
    pub fn baro_reference(&self) -> Option<f64> {
        self.baro_reference
    }

    /// Writes the per-run dynamic state — the estimate itself and the
    /// barometer ground reference — bit-exactly for the persistent store.
    /// The gains are static per run and not written.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.state.encode(w);
        w.option(self.baro_reference.as_ref(), |w, v| w.f64(*v));
    }

    /// Reads the state [`StateEstimator::encode`] wrote onto this
    /// estimator, which supplies the gains: the run's genesis estimator.
    pub fn decode_onto(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        self.state = EstimatorState::decode(r)?;
        self.baro_reference = r.option(|r| r.f64())?;
        Ok(())
    }

    /// Advances the estimate by `dt` seconds using the selected sensors.
    pub fn update(
        &mut self,
        sensors: &SelectedSensors,
        health: &SensorHealth,
        dt: f64,
    ) -> EstimatorState {
        debug_assert!(dt > 0.0);
        let g = &self.gains;
        let s = &mut self.state;

        // --- Attitude -------------------------------------------------
        if let Some(gyro) = sensors.gyro {
            // Small-angle Euler integration of body rates.
            s.roll += gyro.x * dt;
            s.pitch += gyro.y * dt;
            s.yaw = wrap_angle(s.yaw + gyro.z * dt);
        }
        if let Some(accel) = sensors.accel {
            // Gravity direction correction, only meaningful when the
            // specific force is close to 1 g (not during hard manoeuvres).
            let norm = accel.norm();
            if norm > 0.5 * GRAVITY && norm < 1.5 * GRAVITY {
                let roll_acc = accel.y.atan2(accel.z);
                let pitch_acc = (-accel.x / norm).clamp(-1.0, 1.0).asin();
                s.roll += g.attitude_correction * dt * (roll_acc - s.roll);
                s.pitch += g.attitude_correction * dt * (pitch_acc - s.pitch);
            }
        }
        if let Some(heading) = sensors.heading {
            s.yaw = wrap_angle(s.yaw + g.heading_correction * dt * wrap_angle(heading - s.yaw));
        }

        // World-frame acceleration from the specific force.
        let attitude = Quat::from_euler(s.roll, s.pitch, s.yaw);
        let accel_world = match sensors.accel {
            Some(f) => attitude.rotate(f) - Vec3::new(0.0, 0.0, GRAVITY),
            None => Vec3::ZERO,
        };

        // --- Vertical channel ------------------------------------------
        let baro_alt = sensors.baro_altitude.map(|raw| {
            let reference = *self.baro_reference.get_or_insert(raw - s.altitude);
            raw - reference
        });
        s.climb_rate += accel_world.z * dt;
        s.altitude += s.climb_rate * dt;
        if let Some(alt) = baro_alt {
            let err = alt - s.altitude;
            s.altitude += g.baro_position * dt * err;
            s.climb_rate += g.baro_velocity * dt * err;
            s.altitude_ok = true;
        } else if let Some(gps) = sensors.gps {
            // Degraded: coarse GPS altitude keeps the estimate bounded.
            let err = gps.position.z - s.altitude;
            s.altitude += g.gps_altitude * dt * err;
            s.climb_rate += 0.3 * g.gps_altitude * dt * err;
            s.altitude_ok = true;
        } else {
            // Pure inertial coasting; the estimate is unreliable.
            s.altitude_ok = health.kind_available(avis_sim::SensorKind::Accelerometer);
        }

        // --- Horizontal channel -----------------------------------------
        s.velocity.x += accel_world.x * dt;
        s.velocity.y += accel_world.y * dt;
        if let Some(gps) = sensors.gps {
            s.velocity.x += g.gps_velocity * dt * (gps.velocity.x - s.velocity.x);
            s.velocity.y += g.gps_velocity * dt * (gps.velocity.y - s.velocity.y);
            s.position.x +=
                s.velocity.x * dt + g.gps_position * dt * (gps.position.x - s.position.x);
            s.position.y +=
                s.velocity.y * dt + g.gps_position * dt * (gps.position.y - s.position.y);
            s.gps_loss_seconds = 0.0;
            s.position_ok = true;
        } else {
            s.position.x += s.velocity.x * dt;
            s.position.y += s.velocity.y * dt;
            s.gps_loss_seconds += dt;
            if s.gps_loss_seconds > g.gps_timeout {
                s.position_ok = false;
            }
        }

        s.velocity.z = s.climb_rate;
        s.position.z = s.altitude;
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{BatteryState, GpsSolution};
    use avis_sim::SensorKind;

    const DT: f64 = 0.001;

    fn hover_sensors(alt: f64) -> SelectedSensors {
        SelectedSensors {
            accel: Some(Vec3::new(0.0, 0.0, GRAVITY)),
            gyro: Some(Vec3::ZERO),
            gps: Some(GpsSolution {
                position: Vec3::new(0.0, 0.0, alt),
                velocity: Vec3::ZERO,
            }),
            baro_altitude: Some(alt),
            heading: Some(0.0),
            battery: Some(BatteryState {
                voltage: 12.0,
                remaining: 0.9,
            }),
        }
    }

    fn healthy() -> SensorHealth {
        // An empty health struct behaves as "nothing known failed"; the
        // estimator only uses `kind_available` for the degraded branches.
        SensorHealth::default()
    }

    #[test]
    fn level_hover_estimates_stay_level() {
        let mut est = StateEstimator::default();
        // The first barometer sample defines the home reference, so a
        // vehicle sitting level on the ground estimates zero everything.
        for _ in 0..2000 {
            est.update(&hover_sensors(0.0), &healthy(), DT);
        }
        let s = est.state();
        assert!(s.roll.abs() < 0.01);
        assert!(s.pitch.abs() < 0.01);
        assert!(s.yaw.abs() < 0.01);
        assert!(s.altitude.abs() < 0.5, "altitude {}", s.altitude);
        assert!(s.climb_rate.abs() < 0.2);
        assert!(s.position_ok);
        assert!(s.altitude_ok);
    }

    #[test]
    fn baro_reference_captured_on_first_reading() {
        let mut est = StateEstimator::default();
        // Barometer reports 103 m absolute while the vehicle sits on the ground.
        let mut sensors = hover_sensors(0.0);
        sensors.baro_altitude = Some(103.0);
        sensors.gps = None;
        est.update(&sensors, &healthy(), DT);
        assert_eq!(est.baro_reference(), Some(103.0));
        for _ in 0..2000 {
            est.update(&sensors, &healthy(), DT);
        }
        assert!(
            est.state().altitude.abs() < 0.2,
            "altitude should be relative to home"
        );
    }

    #[test]
    fn altitude_tracks_baro_changes() {
        let mut est = StateEstimator::default();
        for _ in 0..1000 {
            est.update(&hover_sensors(0.0), &healthy(), DT);
        }
        for _ in 0..4000 {
            est.update(&hover_sensors(20.0), &healthy(), DT);
        }
        assert!(
            (est.state().altitude - 20.0).abs() < 1.0,
            "altitude {}",
            est.state().altitude
        );
    }

    #[test]
    fn baro_loss_falls_back_to_gps_altitude() {
        let mut est = StateEstimator::default();
        for _ in 0..1000 {
            est.update(&hover_sensors(15.0), &healthy(), DT);
        }
        let mut degraded = hover_sensors(25.0);
        degraded.baro_altitude = None;
        for _ in 0..15_000 {
            est.update(&degraded, &healthy(), DT);
        }
        let s = est.state();
        assert!(s.altitude_ok);
        assert!((s.altitude - 25.0).abs() < 3.0, "altitude {}", s.altitude);
    }

    #[test]
    fn gps_loss_drops_position_ok_after_timeout() {
        let mut est = StateEstimator::default();
        for _ in 0..1000 {
            est.update(&hover_sensors(10.0), &healthy(), DT);
        }
        assert!(est.state().position_ok);
        let mut lost = hover_sensors(10.0);
        lost.gps = None;
        for _ in 0..500 {
            est.update(&lost, &healthy(), DT);
        }
        assert!(
            est.state().position_ok,
            "within the timeout the estimate coasts"
        );
        for _ in 0..1000 {
            est.update(&lost, &healthy(), DT);
        }
        assert!(!est.state().position_ok);
        assert!(est.state().gps_loss_seconds > 1.0);
    }

    #[test]
    fn heading_follows_compass() {
        let mut est = StateEstimator::default();
        let mut sensors = hover_sensors(5.0);
        sensors.heading = Some(1.2);
        for _ in 0..4000 {
            est.update(&sensors, &healthy(), DT);
        }
        assert!(
            (est.state().yaw - 1.2).abs() < 0.05,
            "yaw {}",
            est.state().yaw
        );
    }

    #[test]
    fn heading_coasts_without_compass() {
        let mut est = StateEstimator::default();
        let mut sensors = hover_sensors(5.0);
        sensors.heading = Some(0.8);
        for _ in 0..4000 {
            est.update(&sensors, &healthy(), DT);
        }
        let yaw_before = est.state().yaw;
        sensors.heading = None;
        sensors.gyro = Some(Vec3::ZERO);
        for _ in 0..2000 {
            est.update(&sensors, &healthy(), DT);
        }
        assert!(
            (est.state().yaw - yaw_before).abs() < 1e-6,
            "yaw should coast unchanged"
        );
    }

    #[test]
    fn tilt_recovered_from_accelerometer() {
        let mut est = StateEstimator::default();
        // Specific force for a 0.1 rad roll, stationary: f = g*(0, sin(roll), cos(roll))
        // (body-frame gravity direction tilts toward +y).
        let roll = 0.1f64;
        let sensors = SelectedSensors {
            accel: Some(Vec3::new(0.0, GRAVITY * roll.sin(), GRAVITY * roll.cos())),
            gyro: Some(Vec3::ZERO),
            gps: None,
            baro_altitude: Some(0.0),
            heading: Some(0.0),
            battery: None,
        };
        // The gravity-direction correction is deliberately slow (0.3 1/s),
        // so give the filter plenty of time to converge.
        for _ in 0..30_000 {
            est.update(&sensors, &healthy(), DT);
        }
        assert!(
            (est.state().roll - roll).abs() < 0.02,
            "roll {}",
            est.state().roll
        );
    }

    #[test]
    fn attitude_quaternion_matches_euler() {
        let mut est = StateEstimator::default();
        for _ in 0..100 {
            est.update(&hover_sensors(2.0), &healthy(), DT);
        }
        let q = est.state().attitude();
        let (r, p, _) = q.to_euler();
        assert!((r - est.state().roll).abs() < 1e-9);
        assert!((p - est.state().pitch).abs() < 1e-9);
    }

    #[test]
    fn full_sensor_loss_marks_estimates_unreliable() {
        let mut est = StateEstimator::default();
        for _ in 0..1000 {
            est.update(&hover_sensors(10.0), &healthy(), DT);
        }
        let blind = SelectedSensors::default();
        // Build a health struct where every accelerometer has failed by
        // ingesting through a frontend with an all-fail plan.
        use avis_hinj::{FaultInjector, FaultPlan, FaultSpec, SharedInjector};
        use avis_sim::{
            RigidBodyState, SensorInstance, SensorNoise, SensorSuite, SensorSuiteConfig,
        };
        let mut cfg = SensorSuiteConfig::iris();
        cfg.noise = SensorNoise::noiseless();
        let mut suite = SensorSuite::new(cfg.clone(), 1);
        let readings = suite.sample(&RigidBodyState::at_rest(Vec3::ZERO), 0.2, 0.0, DT, 1);
        let specs: Vec<FaultSpec> = cfg
            .instances()
            .into_iter()
            .filter(|i| i.kind == SensorKind::Accelerometer)
            .map(|i: SensorInstance| FaultSpec::new(i, 0.0))
            .collect();
        let mut fe = crate::frontend::SensorFrontend::new(SharedInjector::new(FaultInjector::new(
            FaultPlan::from_specs(specs),
        )));
        fe.ingest(&readings, 0.0);
        for _ in 0..3000 {
            est.update(&blind, fe.health(), DT);
        }
        assert!(!est.state().position_ok);
        assert!(!est.state().altitude_ok);
    }
}
