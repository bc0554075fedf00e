//! The injectable sensor-bug catalog.
//!
//! The paper's evaluation revolves around fifteen concrete firmware
//! defects: the ten previously-unknown bugs Avis discovered (Table II) and
//! the five previously-reported bugs that were re-inserted to estimate the
//! false-negative rate (Table V). We cannot ship ArduPilot or PX4, so each
//! defect is re-expressed as a toggleable change to the equivalent
//! fault-handling logic in this firmware substrate. What matters for the
//! reproduction is preserved exactly: the affected firmware, the sensor
//! whose failure triggers the defect, the operating-mode window in which
//! it manifests, and the resulting symptom class.
//!
//! A [`BugSet`] holds which defects are compiled into a firmware instance.
//! An empty set models a (hypothetical) fixed code base; the full unknown
//! set models the "current code base" the paper checked; individual known
//! bugs are re-inserted one at a time for the Table V experiment.

use crate::modes::ModeCategory;
use crate::params::FirmwareProfile;
use avis_sim::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use avis_sim::SensorKind;
use std::collections::BTreeSet;
use std::fmt;

/// Symptom classes used throughout the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BugSymptom {
    /// The vehicle collides with the ground or an obstacle.
    Crash,
    /// The vehicle stops following its mission and departs.
    FlyAway,
    /// The vehicle fails to take off / make progress.
    TakeoffFailure,
}

impl fmt::Display for BugSymptom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BugSymptom::Crash => "Crash",
            BugSymptom::FlyAway => "Fly Away",
            BugSymptom::TakeoffFailure => "Takeoff Failure",
        };
        f.write_str(s)
    }
}

/// Identifier of one injectable defect, named after the paper's report ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum BugId {
    // Previously-unknown bugs (Table II).
    Apm16020,
    Apm16021,
    Apm16027,
    Apm16967,
    Apm16682,
    Apm16953,
    Px417046,
    Px417057,
    Px417192,
    Px417181,
    // Re-inserted known bugs (Table V).
    Apm4455,
    Apm4679,
    Apm5428,
    Apm9349,
    Px413291,
    // Seeded protocol-level defects (PR 6). Not part of the paper's
    // sensor-bug catalog — deliberately excluded from `UNKNOWN`, `KNOWN`
    // and `all()` so the Table II/V accounting stays exact — and only
    // reachable through link-fault campaigns.
    ProtoDoubleArm,
    // Seeded crash defect (PR 8): a firmware panic on a takeoff command
    // accepted against a stale position estimate. Same exclusion rules as
    // `ProtoDoubleArm`; exercises the checker's panic containment and is
    // only reachable through a sensor fault combined with a link fault.
    ProtoPanicOnStaleEkf,
}

impl BugId {
    /// The ten previously-unknown bugs of Table II, in table order.
    pub const UNKNOWN: [BugId; 10] = [
        BugId::Apm16020,
        BugId::Apm16021,
        BugId::Apm16027,
        BugId::Apm16967,
        BugId::Apm16682,
        BugId::Apm16953,
        BugId::Px417046,
        BugId::Px417057,
        BugId::Px417192,
        BugId::Px417181,
    ];

    /// The five re-inserted known bugs of Table V, in table order.
    pub const KNOWN: [BugId; 5] = [
        BugId::Apm4455,
        BugId::Apm4679,
        BugId::Apm5428,
        BugId::Apm9349,
        BugId::Px413291,
    ];

    /// Every bug in the catalog.
    pub fn all() -> Vec<BugId> {
        let mut v = Self::UNKNOWN.to_vec();
        v.extend_from_slice(&Self::KNOWN);
        v
    }

    /// The report identifier used in the paper's tables.
    pub fn report_id(self) -> &'static str {
        match self {
            BugId::Apm16020 => "APM-16020",
            BugId::Apm16021 => "APM-16021",
            BugId::Apm16027 => "APM-16027",
            BugId::Apm16967 => "APM-16967",
            BugId::Apm16682 => "APM-16682",
            BugId::Apm16953 => "APM-16953",
            BugId::Px417046 => "PX4-17046",
            BugId::Px417057 => "PX4-17057",
            BugId::Px417192 => "PX4-17192",
            BugId::Px417181 => "PX4-17181",
            BugId::Apm4455 => "APM-4455",
            BugId::Apm4679 => "APM-4679",
            BugId::Apm5428 => "APM-5428",
            BugId::Apm9349 => "APM-9349",
            BugId::Px413291 => "PX4-13291",
            BugId::ProtoDoubleArm => "PROTO-101",
            BugId::ProtoPanicOnStaleEkf => "PROTO-102",
        }
    }

    /// Serialises the id for the persistent snapshot store. The tags are
    /// stable across catalog reorderings — new bugs must append new tags.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u8(match self {
            BugId::Apm16020 => 0,
            BugId::Apm16021 => 1,
            BugId::Apm16027 => 2,
            BugId::Apm16967 => 3,
            BugId::Apm16682 => 4,
            BugId::Apm16953 => 5,
            BugId::Px417046 => 6,
            BugId::Px417057 => 7,
            BugId::Px417192 => 8,
            BugId::Px417181 => 9,
            BugId::Apm4455 => 10,
            BugId::Apm4679 => 11,
            BugId::Apm5428 => 12,
            BugId::Apm9349 => 13,
            BugId::Px413291 => 14,
            BugId::ProtoDoubleArm => 15,
            BugId::ProtoPanicOnStaleEkf => 16,
        });
    }

    /// Reads an id written by [`BugId::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        Ok(match r.u8()? {
            0 => BugId::Apm16020,
            1 => BugId::Apm16021,
            2 => BugId::Apm16027,
            3 => BugId::Apm16967,
            4 => BugId::Apm16682,
            5 => BugId::Apm16953,
            6 => BugId::Px417046,
            7 => BugId::Px417057,
            8 => BugId::Px417192,
            9 => BugId::Px417181,
            10 => BugId::Apm4455,
            11 => BugId::Apm4679,
            12 => BugId::Apm5428,
            13 => BugId::Apm9349,
            14 => BugId::Px413291,
            15 => BugId::ProtoDoubleArm,
            16 => BugId::ProtoPanicOnStaleEkf,
            _ => return Err(CodecError::Malformed("bug id tag")),
        })
    }

    /// Structured description of the defect (firmware, symptom, trigger).
    pub fn info(self) -> BugInfo {
        use BugSymptom::*;
        use FirmwareProfile::*;
        use ModeCategory::*;
        use SensorKind::*;
        match self {
            BugId::Apm16020 => BugInfo::new(
                self,
                ArduPilotLike,
                FlyAway,
                Gps,
                Takeoff,
                "Takeoff -> Autopilot",
                "GPS failover immediately after entering the mission skips the \
                 position-loss failsafe; navigation continues on a stale, drifting \
                 dead-reckoned position estimate.",
                false,
            ),
            BugId::Apm16021 => BugInfo::new(
                self,
                ArduPilotLike,
                Crash,
                Accelerometer,
                Takeoff,
                "Takeoff -> Waypoint 1",
                "An accelerometer failure during the climb leaves the vertical \
                 estimator extrapolating the last climb acceleration; the firmware \
                 overshoots, then lands using the inflated altitude estimate and \
                 descends into the ground.",
                false,
            ),
            BugId::Apm16027 => BugInfo::new(
                self,
                ArduPilotLike,
                FlyAway,
                Barometer,
                Takeoff,
                "Pre-Flight -> Takeoff",
                "A barometer failure before takeoff freezes the altitude reference; \
                 the reached-target-altitude check never passes and the vehicle keeps \
                 climbing.",
                false,
            ),
            BugId::Apm16967 => BugInfo::new(
                self,
                ArduPilotLike,
                Crash,
                Compass,
                Waypoint,
                "Waypoint 1 -> Waypoint 2",
                "A compass failure between waypoints freezes the heading estimate; \
                 after the land fail-safe engages, a late state-estimate reset \
                 commands a fast descent into the ground.",
                false,
            ),
            BugId::Apm16682 => BugInfo::new(
                self,
                ArduPilotLike,
                Crash,
                Accelerometer,
                Land,
                "Return To Launch -> Land",
                "An IMU failure in the final metres of landing triggers the \
                 GPS-driven return-home fail-safe; GPS altitude is too coarse to \
                 guide the manoeuvre at low altitude and the vehicle descends hard \
                 into the ground (the paper's Figure 1).",
                false,
            ),
            BugId::Apm16953 => BugInfo::new(
                self,
                ArduPilotLike,
                Crash,
                Gyroscope,
                Land,
                "Return to Launch -> Land",
                "A gyroscope failure during the landing sequence removes rate \
                 damping; the landing controller keeps full gains and descends \
                 far faster than the touchdown limit.",
                false,
            ),
            BugId::Px417046 => BugInfo::new(
                self,
                Px4Like,
                FlyAway,
                Gyroscope,
                Waypoint,
                "Waypoint 3 -> Return To Launch",
                "A gyroscope failure at the RTL transition freezes the heading used \
                 to steer home; the vehicle accelerates away from the launch point.",
                false,
            ),
            BugId::Px417057 => BugInfo::new(
                self,
                Px4Like,
                Crash,
                Gyroscope,
                Takeoff,
                "Pre-Flight -> Takeoff",
                "A gyroscope failure before takeoff is not caught by the arming \
                 checks; the unstabilised climb tips over and the tip-over protection \
                 cuts the motors in the air.",
                false,
            ),
            BugId::Px417192 => BugInfo::new(
                self,
                Px4Like,
                TakeoffFailure,
                Compass,
                Takeoff,
                "Pre-Flight -> Takeoff",
                "A compass failure before takeoff leaves heading alignment pending \
                 forever; the climb is capped a metre off the ground and the mission \
                 never progresses.",
                false,
            ),
            BugId::Px417181 => BugInfo::new(
                self,
                Px4Like,
                TakeoffFailure,
                Barometer,
                Takeoff,
                "Pre-Flight -> Takeoff",
                "A barometer failure before takeoff leaves the altitude reference \
                 uninitialised; the throttle never leaves the spool-up level and the \
                 vehicle stays on the ground.",
                false,
            ),
            BugId::Apm4455 => BugInfo::new(
                self,
                ArduPilotLike,
                FlyAway,
                Gps,
                Manual,
                "Position hold",
                "A GPS failure while holding position keeps the position controller \
                 engaged against a drifting dead-reckoned estimate.",
                false,
            ),
            BugId::Apm4679 => BugInfo::new(
                self,
                ArduPilotLike,
                Crash,
                Accelerometer,
                Waypoint,
                "Between waypoints",
                "An accelerometer failure mid-mission corrupts the climb-rate \
                 estimate and the altitude controller descends into the ground.",
                false,
            ),
            BugId::Apm5428 => BugInfo::new(
                self,
                ArduPilotLike,
                Crash,
                Barometer,
                Land,
                "Landing",
                "A barometer failure during landing leaves the final-approach logic \
                 using the pre-failure descent rate all the way to the ground.",
                false,
            ),
            BugId::Apm9349 => BugInfo::new(
                self,
                ArduPilotLike,
                FlyAway,
                Compass,
                Waypoint,
                "Takeoff -> Autopilot",
                "A compass failure as the mission starts yields a mirrored heading \
                 frame; the vehicle flies away from its first waypoint.",
                false,
            ),
            BugId::Px413291 => BugInfo::new(
                self,
                Px4Like,
                FlyAway,
                Battery,
                Waypoint,
                "Battery failsafe without local position",
                "When the battery drops to the failsafe level while the local \
                 position is unavailable, the return-to-launch action is engaged \
                 without a position estimate and the vehicle departs (requires a \
                 GPS failure followed by a battery failure).",
                true,
            ),
            BugId::ProtoDoubleArm => BugInfo::new(
                self,
                ArduPilotLike,
                Crash,
                // Not a sensor bug: the trigger is a duplicated ArmDisarm
                // on the command link, which the sensor-fault model cannot
                // express. The sensor field is a placeholder required by
                // the table schema.
                Gps,
                Waypoint,
                "Duplicated ArmDisarm while armed",
                "The arm-command handler does not treat an arm request as \
                 idempotent: a duplicated (or storm-replayed) ArmDisarm{arm} \
                 received while already armed toggles the motors off and drops \
                 the firmware back to pre-flight mid-air, acknowledging the \
                 command as accepted. Only reachable by duplicating or \
                 storming GCS commands on the link.",
                false,
            ),
            BugId::ProtoPanicOnStaleEkf => BugInfo::new(
                self,
                ArduPilotLike,
                Crash,
                Gps,
                Takeoff,
                "Takeoff commanded on a stale position estimate",
                "The takeoff-command handler asserts (and aborts) instead of \
                 rejecting when the command arrives while the position \
                 estimate is already stale. Reaching the handler in that \
                 state needs a GPS failure that lands between arming and \
                 the mode change — only a delayed command link opens that \
                 window, so the defect is invisible to pure sensor-fault \
                 campaigns and manifests as a firmware crash (process \
                 abort), not a flight symptom.",
                true,
            ),
        }
    }

    /// Whether this defect exists in the given firmware profile.
    pub fn applies_to(self, profile: FirmwareProfile) -> bool {
        self.info().firmware == profile
    }
}

impl fmt::Display for BugId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.report_id())
    }
}

/// Structured metadata about one defect (the row content of Tables II/V).
#[derive(Debug, Clone, PartialEq)]
pub struct BugInfo {
    /// The defect identifier.
    pub id: BugId,
    /// The firmware stack the defect belongs to.
    pub firmware: FirmwareProfile,
    /// The symptom class the paper reports.
    pub symptom: BugSymptom,
    /// The sensor whose failure triggers the defect.
    pub sensor: SensorKind,
    /// The coarse mode category of the triggering window (Table IV axis).
    pub window_category: ModeCategory,
    /// The "failure starting moment" string from the paper's table.
    pub window_description: &'static str,
    /// One-paragraph description of the defect mechanism in this substrate.
    pub mechanism: &'static str,
    /// Whether triggering requires more than one sensor failure.
    pub requires_multiple_failures: bool,
}

impl BugInfo {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: BugId,
        firmware: FirmwareProfile,
        symptom: BugSymptom,
        sensor: SensorKind,
        window_category: ModeCategory,
        window_description: &'static str,
        mechanism: &'static str,
        requires_multiple_failures: bool,
    ) -> Self {
        BugInfo {
            id,
            firmware,
            symptom,
            sensor,
            window_category,
            window_description,
            mechanism,
            requires_multiple_failures,
        }
    }
}

/// The set of defects compiled into a firmware instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BugSet {
    enabled: BTreeSet<BugId>,
}

impl BugSet {
    /// No defects: a fully fixed code base.
    pub fn none() -> Self {
        BugSet::default()
    }

    /// The "current code base" of the paper: every previously-unknown bug
    /// that applies to the given profile.
    pub fn current_code_base(profile: FirmwareProfile) -> Self {
        BugSet {
            enabled: BugId::UNKNOWN
                .iter()
                .copied()
                .filter(|b| b.applies_to(profile))
                .collect(),
        }
    }

    /// A set containing exactly the given defects.
    pub fn with_bugs<I: IntoIterator<Item = BugId>>(bugs: I) -> Self {
        BugSet {
            enabled: bugs.into_iter().collect(),
        }
    }

    /// A set containing a single defect (the Table V re-insertion setup).
    pub fn only(bug: BugId) -> Self {
        BugSet::with_bugs([bug])
    }

    /// Enables a defect.
    pub fn enable(&mut self, bug: BugId) {
        self.enabled.insert(bug);
    }

    /// Disables a defect.
    pub fn disable(&mut self, bug: BugId) {
        self.enabled.remove(&bug);
    }

    /// Whether the defect is present.
    pub fn is_enabled(&self, bug: BugId) -> bool {
        self.enabled.contains(&bug)
    }

    /// Iterates over the enabled defects.
    pub fn iter(&self) -> impl Iterator<Item = BugId> + '_ {
        self.enabled.iter().copied()
    }

    /// Serialises the set for the persistent snapshot store.
    pub fn encode(&self, w: &mut ByteWriter) {
        let bugs: Vec<BugId> = self.iter().collect();
        w.seq(&bugs, |w, b| b.encode(w));
    }

    /// Reads a set written by [`BugSet::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        Ok(BugSet::with_bugs(r.seq(BugId::decode)?))
    }

    /// Number of enabled defects.
    pub fn len(&self) -> usize {
        self.enabled.len()
    }

    /// Returns `true` if no defects are enabled.
    pub fn is_empty(&self) -> bool {
        self.enabled.is_empty()
    }
}

impl fmt::Display for BugSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("(no injected bugs)");
        }
        let names: Vec<&str> = self.iter().map(|b| b.report_id()).collect();
        f.write_str(&names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_sizes_match_paper() {
        assert_eq!(BugId::UNKNOWN.len(), 10);
        assert_eq!(BugId::KNOWN.len(), 5);
        assert_eq!(BugId::all().len(), 15);
        // 6 unknown ArduPilot bugs and 4 unknown PX4 bugs (paper §VI.A).
        let apm = BugId::UNKNOWN
            .iter()
            .filter(|b| b.applies_to(FirmwareProfile::ArduPilotLike))
            .count();
        let px4 = BugId::UNKNOWN
            .iter()
            .filter(|b| b.applies_to(FirmwareProfile::Px4Like))
            .count();
        assert_eq!(apm, 6);
        assert_eq!(px4, 4);
    }

    #[test]
    fn report_ids_are_unique() {
        let mut ids: Vec<&str> = BugId::all().iter().map(|b| b.report_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 15);
    }

    #[test]
    fn table_ii_symptoms_match_paper() {
        use BugSymptom::*;
        let expected = [
            (BugId::Apm16020, FlyAway),
            (BugId::Apm16021, Crash),
            (BugId::Apm16027, FlyAway),
            (BugId::Apm16967, Crash),
            (BugId::Apm16682, Crash),
            (BugId::Apm16953, Crash),
            (BugId::Px417046, FlyAway),
            (BugId::Px417057, Crash),
            (BugId::Px417192, TakeoffFailure),
            (BugId::Px417181, TakeoffFailure),
        ];
        for (bug, symptom) in expected {
            assert_eq!(bug.info().symptom, symptom, "{bug}");
        }
    }

    #[test]
    fn table_ii_sensors_match_paper() {
        use SensorKind::*;
        let expected = [
            (BugId::Apm16020, Gps),
            (BugId::Apm16021, Accelerometer),
            (BugId::Apm16027, Barometer),
            (BugId::Apm16967, Compass),
            (BugId::Apm16682, Accelerometer),
            (BugId::Apm16953, Gyroscope),
            (BugId::Px417046, Gyroscope),
            (BugId::Px417057, Gyroscope),
            (BugId::Px417192, Compass),
            (BugId::Px417181, Barometer),
        ];
        for (bug, sensor) in expected {
            assert_eq!(bug.info().sensor, sensor, "{bug}");
        }
    }

    #[test]
    fn only_px4_13291_requires_multiple_failures() {
        for bug in BugId::all() {
            let multi = bug.info().requires_multiple_failures;
            assert_eq!(multi, bug == BugId::Px413291, "{bug}");
        }
    }

    #[test]
    fn current_code_base_filters_by_profile() {
        let apm = BugSet::current_code_base(FirmwareProfile::ArduPilotLike);
        assert_eq!(apm.len(), 6);
        assert!(apm.is_enabled(BugId::Apm16682));
        assert!(!apm.is_enabled(BugId::Px417057));
        assert!(
            !apm.is_enabled(BugId::Apm4455),
            "known bugs are not in the current code base"
        );

        let px4 = BugSet::current_code_base(FirmwareProfile::Px4Like);
        assert_eq!(px4.len(), 4);
        assert!(px4.is_enabled(BugId::Px417181));
    }

    #[test]
    fn bug_set_operations() {
        let mut set = BugSet::none();
        assert!(set.is_empty());
        set.enable(BugId::Apm4455);
        set.enable(BugId::Apm4455);
        assert_eq!(set.len(), 1);
        assert!(set.is_enabled(BugId::Apm4455));
        set.disable(BugId::Apm4455);
        assert!(set.is_empty());
        let only = BugSet::only(BugId::Px413291);
        assert_eq!(only.iter().collect::<Vec<_>>(), vec![BugId::Px413291]);
        assert_eq!(BugSet::none().to_string(), "(no injected bugs)");
        assert!(only.to_string().contains("PX4-13291"));
    }

    #[test]
    fn bug_info_descriptions_are_nonempty() {
        for bug in BugId::all() {
            let info = bug.info();
            assert!(!info.mechanism.is_empty());
            assert!(!info.window_description.is_empty());
            assert_eq!(info.id, bug);
        }
    }
}
