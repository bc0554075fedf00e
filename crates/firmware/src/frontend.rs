//! The sensor frontend: instrumented drivers with redundancy failover.
//!
//! This is where the paper's `libhinj` instrumentation lives (§V.B.1): the
//! `read()` path of every sensor driver consults the fault injector, and a
//! read that the injector fails is reported to the rest of the firmware as
//! a failed instance. The frontend then *fails over* to the next healthy
//! instance of the same kind — the behaviour the sensor-instance-symmetry
//! pruning policy relies on (the firmware reacts to the *role* of the
//! failed sensor, not to which physical instance failed).

use avis_hinj::SharedInjector;
use avis_sim::codec::{ByteReader, ByteWriter, CodecResult};
use avis_sim::{SensorInstance, SensorKind, SensorReading, SensorValue, Vec3};
use std::collections::BTreeSet;

/// A GPS solution selected by the frontend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsSolution {
    /// Position in the local frame (m).
    pub position: Vec3,
    /// Velocity in the local frame (m/s).
    pub velocity: Vec3,
}

/// Battery status selected by the frontend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryState {
    /// Terminal voltage (V).
    pub voltage: f64,
    /// Remaining capacity fraction.
    pub remaining: f64,
}

/// The per-step output of the sensor frontend: one selected measurement
/// per sensor kind (from the active instance), or `None` if every instance
/// of that kind has failed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelectedSensors {
    /// Body-frame specific force (m/s²).
    pub accel: Option<Vec3>,
    /// Body-frame angular rate (rad/s).
    pub gyro: Option<Vec3>,
    /// GPS solution.
    pub gps: Option<GpsSolution>,
    /// Barometric altitude (m above home).
    pub baro_altitude: Option<f64>,
    /// Magnetic heading (rad).
    pub heading: Option<f64>,
    /// Battery state.
    pub battery: Option<BatteryState>,
}

impl SelectedSensors {
    /// Serialise the selection bit-exactly (floats via their raw bits).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.option(self.accel.as_ref(), |w, v| v.encode(w));
        w.option(self.gyro.as_ref(), |w, v| v.encode(w));
        w.option(self.gps.as_ref(), |w, g| {
            g.position.encode(w);
            g.velocity.encode(w);
        });
        w.option(self.baro_altitude.as_ref(), |w, v| w.f64(*v));
        w.option(self.heading.as_ref(), |w, v| w.f64(*v));
        w.option(self.battery.as_ref(), |w, b| {
            w.f64(b.voltage);
            w.f64(b.remaining);
        });
    }

    /// Decode a selection previously written by [`SelectedSensors::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<SelectedSensors> {
        Ok(SelectedSensors {
            accel: r.option(Vec3::decode)?,
            gyro: r.option(Vec3::decode)?,
            gps: r.option(|r| {
                Ok(GpsSolution {
                    position: Vec3::decode(r)?,
                    velocity: Vec3::decode(r)?,
                })
            })?,
            baro_altitude: r.option(|r| r.f64())?,
            heading: r.option(|r| r.f64())?,
            battery: r.option(|r| {
                Ok(BatteryState {
                    voltage: r.f64()?,
                    remaining: r.f64()?,
                })
            })?,
        })
    }
}

/// Health summary per sensor kind.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SensorHealth {
    failed_instances: BTreeSet<SensorInstance>,
    active: Vec<(SensorKind, SensorInstance)>,
    total_per_kind: Vec<(SensorKind, u8)>,
}

impl SensorHealth {
    /// Whether at least one instance of `kind` is still healthy.
    pub fn kind_available(&self, kind: SensorKind) -> bool {
        self.active.iter().any(|(k, _)| *k == kind)
    }

    /// Whether the *primary* instance (index 0) of `kind` has failed.
    pub fn primary_failed(&self, kind: SensorKind) -> bool {
        self.failed_instances
            .contains(&SensorInstance::new(kind, 0))
    }

    /// Whether every instance of `kind` has failed.
    pub fn kind_failed(&self, kind: SensorKind) -> bool {
        !self.kind_available(kind) && self.total_of(kind) > 0
    }

    /// The instance currently used for `kind`, if any.
    pub fn active_instance(&self, kind: SensorKind) -> Option<SensorInstance> {
        self.active
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, i)| *i)
    }

    /// Every failed instance observed so far.
    pub fn failed_instances(&self) -> impl Iterator<Item = SensorInstance> + '_ {
        self.failed_instances.iter().copied()
    }

    /// Number of failed instances of `kind`.
    pub fn failed_count(&self, kind: SensorKind) -> usize {
        self.failed_instances
            .iter()
            .filter(|i| i.kind == kind)
            .count()
    }

    fn total_of(&self, kind: SensorKind) -> u8 {
        self.total_per_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Whether the inertial measurement unit (accelerometer + gyroscope)
    /// is fully unavailable.
    pub fn imu_failed(&self) -> bool {
        self.kind_failed(SensorKind::Accelerometer) || self.kind_failed(SensorKind::Gyroscope)
    }

    /// Serialise the health bookkeeping in deterministic order.
    pub fn encode(&self, w: &mut ByteWriter) {
        let failed: Vec<&SensorInstance> = self.failed_instances.iter().collect();
        w.seq(&failed, |w, i| i.encode(w));
        w.seq(&self.active, |w, (k, i)| {
            k.encode(w);
            i.encode(w);
        });
        w.seq(&self.total_per_kind, |w, (k, n)| {
            k.encode(w);
            w.u8(*n);
        });
    }

    /// Decode health previously written by [`SensorHealth::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<SensorHealth> {
        Ok(SensorHealth {
            failed_instances: r.seq(SensorInstance::decode)?.into_iter().collect(),
            active: r.seq(|r| Ok((SensorKind::decode(r)?, SensorInstance::decode(r)?)))?,
            total_per_kind: r.seq(|r| Ok((SensorKind::decode(r)?, r.u8()?)))?,
        })
    }
}

/// The sensor frontend.
#[derive(Debug, Clone)]
pub struct SensorFrontend {
    injector: SharedInjector,
    health: SensorHealth,
}

impl SensorFrontend {
    /// Creates a frontend reporting reads to the given injector.
    pub fn new(injector: SharedInjector) -> Self {
        SensorFrontend {
            injector,
            health: SensorHealth::default(),
        }
    }

    /// Points the frontend at a different injector handle, keeping the
    /// health bookkeeping intact. Used when a firmware restored from a
    /// snapshot must report its reads to the forked run's own injector
    /// instead of the one the snapshot was recorded against.
    pub fn rebind_injector(&mut self, injector: SharedInjector) {
        self.injector = injector;
    }

    /// The current health summary.
    pub fn health(&self) -> &SensorHealth {
        &self.health
    }

    /// Overwrites the health bookkeeping (the frontend's only mutable
    /// state). Used when a firmware capture is decoded from the
    /// persistent store onto its genesis capture.
    pub fn restore_health(&mut self, health: SensorHealth) {
        self.health = health;
    }

    /// Processes one step's raw readings: every read consults the fault
    /// injector (the instrumented driver path); surviving readings are
    /// reduced to one selected measurement per kind, preferring the lowest
    /// healthy instance index (primary first, then backups in order).
    pub fn ingest(&mut self, readings: &[SensorReading], time: f64) -> SelectedSensors {
        let mut selected = SelectedSensors::default();
        // The per-kind bookkeeping lives in the health struct's vectors and
        // is rebuilt in place each step, so the control loop performs no
        // per-step heap allocations once the vectors reach capacity.
        self.health.active.clear();
        self.health.total_per_kind.clear();

        // Readings arrive ordered by kind and instance index from the
        // simulator; iterate in order so instance 0 wins when healthy.
        for reading in readings {
            let kind = reading.instance.kind;
            match self
                .health
                .total_per_kind
                .iter_mut()
                .find(|(k, _)| *k == kind)
            {
                Some((_, n)) => *n += 1,
                None => self.health.total_per_kind.push((kind, 1)),
            }
            let failed = self.injector.should_fail(reading.instance, time);
            if failed {
                self.health.failed_instances.insert(reading.instance);
                continue;
            }
            let already_chosen = self.health.active.iter().any(|(k, _)| *k == kind);
            if already_chosen {
                continue;
            }
            self.health.active.push((kind, reading.instance));
            match reading.value {
                SensorValue::Acceleration(v) => selected.accel = Some(v),
                SensorValue::AngularRate(v) => selected.gyro = Some(v),
                SensorValue::GpsFix {
                    position, velocity, ..
                } => selected.gps = Some(GpsSolution { position, velocity }),
                SensorValue::PressureAltitude(alt) => selected.baro_altitude = Some(alt),
                SensorValue::MagneticHeading(h) => selected.heading = Some(h),
                SensorValue::BatteryStatus { voltage, remaining } => {
                    selected.battery = Some(BatteryState { voltage, remaining })
                }
            }
        }

        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_hinj::{FaultInjector, FaultPlan, FaultSpec};
    use avis_sim::{RigidBodyState, SensorNoise, SensorSuite, SensorSuiteConfig, Vec3};

    fn readings_at(alt: f64, time: f64) -> Vec<SensorReading> {
        let mut cfg = SensorSuiteConfig::iris();
        cfg.noise = SensorNoise::noiseless();
        let mut suite = SensorSuite::new(cfg, 1);
        let state = RigidBodyState::at_rest(Vec3::new(0.0, 0.0, alt));
        suite.sample(&state, 0.4, time, 0.001)
    }

    fn injector_with(specs: Vec<FaultSpec>) -> SharedInjector {
        SharedInjector::new(FaultInjector::new(FaultPlan::from_specs(specs)))
    }

    #[test]
    fn healthy_suite_selects_primaries() {
        let mut fe = SensorFrontend::new(SharedInjector::passthrough());
        let out = fe.ingest(&readings_at(12.0, 0.0), 0.0);
        assert!(out.accel.is_some());
        assert!(out.gyro.is_some());
        assert!(out.gps.is_some());
        assert_eq!(out.baro_altitude, Some(12.0));
        assert!(out.heading.is_some());
        assert!(out.battery.is_some());
        for kind in SensorKind::ALL {
            assert_eq!(
                fe.health().active_instance(kind),
                Some(SensorInstance::new(kind, 0)),
                "{kind}"
            );
            assert!(!fe.health().primary_failed(kind));
            assert!(!fe.health().kind_failed(kind));
        }
    }

    #[test]
    fn primary_failure_fails_over_to_backup() {
        let gps0 = SensorInstance::new(SensorKind::Gps, 0);
        let mut fe = SensorFrontend::new(injector_with(vec![FaultSpec::new(gps0, 0.0)]));
        let out = fe.ingest(&readings_at(12.0, 1.0), 1.0);
        assert!(out.gps.is_some(), "backup GPS should still provide a fix");
        assert_eq!(
            fe.health().active_instance(SensorKind::Gps),
            Some(SensorInstance::new(SensorKind::Gps, 1))
        );
        assert!(fe.health().primary_failed(SensorKind::Gps));
        assert!(!fe.health().kind_failed(SensorKind::Gps));
        assert_eq!(fe.health().failed_count(SensorKind::Gps), 1);
    }

    #[test]
    fn all_instances_failed_reports_kind_failed() {
        let specs = vec![
            FaultSpec::new(SensorInstance::new(SensorKind::Barometer, 0), 0.0),
            FaultSpec::new(SensorInstance::new(SensorKind::Barometer, 1), 0.0),
        ];
        let mut fe = SensorFrontend::new(injector_with(specs));
        let out = fe.ingest(&readings_at(12.0, 1.0), 1.0);
        assert!(out.baro_altitude.is_none());
        assert!(fe.health().kind_failed(SensorKind::Barometer));
        assert!(!fe.health().kind_available(SensorKind::Barometer));
        // Other kinds unaffected.
        assert!(out.gps.is_some());
        assert!(!fe.health().imu_failed());
    }

    #[test]
    fn imu_failed_when_all_gyros_fail() {
        let specs = (0..3)
            .map(|i| FaultSpec::new(SensorInstance::new(SensorKind::Gyroscope, i), 0.0))
            .collect();
        let mut fe = SensorFrontend::new(injector_with(specs));
        let out = fe.ingest(&readings_at(5.0, 1.0), 1.0);
        assert!(out.gyro.is_none());
        assert!(fe.health().imu_failed());
    }

    #[test]
    fn failure_only_applies_after_start_time() {
        let accel0 = SensorInstance::new(SensorKind::Accelerometer, 0);
        let mut fe = SensorFrontend::new(injector_with(vec![FaultSpec::new(accel0, 5.0)]));
        let before = fe.ingest(&readings_at(3.0, 1.0), 1.0);
        assert_eq!(
            fe.health().active_instance(SensorKind::Accelerometer),
            Some(accel0),
            "before the failure the primary is active"
        );
        assert!(before.accel.is_some());
        let after = fe.ingest(&readings_at(3.0, 6.0), 6.0);
        assert!(after.accel.is_some(), "backup takes over");
        assert_eq!(
            fe.health().active_instance(SensorKind::Accelerometer),
            Some(SensorInstance::new(SensorKind::Accelerometer, 1))
        );
    }

    #[test]
    fn failed_reads_are_reported_to_injector() {
        let gps0 = SensorInstance::new(SensorKind::Gps, 0);
        let shared = injector_with(vec![FaultSpec::new(gps0, 0.0)]);
        let mut fe = SensorFrontend::new(shared.clone());
        fe.ingest(&readings_at(12.0, 1.0), 1.0);
        let injections = shared.injections();
        assert_eq!(injections.len(), 1);
        assert_eq!(injections[0].instance, gps0);
    }
}
