//! Bug reports and replay (§IV.D).
//!
//! When the invariant monitor flags an unsafe condition, Avis records the
//! failures it injected so the scenario can be reconstructed. Replay
//! re-executes the mission with the same faults at the same offsets from
//! the mode transitions they were anchored to; the deterministic simulator
//! makes the reproduction exact, and the report records whether the
//! violation manifested again.

use crate::checker::UnsafeCondition;
use crate::json::{self, Json, JsonError};
use crate::monitor::{InvariantMonitor, Violation, ViolationKind};
use crate::runner::ExperimentRunner;
use avis_firmware::{BugId, FirmwareProfile, OperatingMode};
use avis_hinj::{FaultPlan, FaultSpec, LinkFaultSpec, ModeCode};
use avis_sim::codec::{ByteReader, ByteWriter};
use avis_sim::{SensorInstance, SensorKind};

/// A reproducible bug report generated from an unsafe condition.
#[derive(Debug, Clone, PartialEq)]
pub struct BugReport {
    /// Firmware the report applies to.
    pub profile: FirmwareProfile,
    /// The workload that was running.
    pub workload: String,
    /// The injected failures.
    pub plan: FaultPlan,
    /// The violations observed.
    pub violations: Vec<Violation>,
    /// Injected defects known to have activated (empty for real campaigns
    /// against unknown code).
    pub suspected_bugs: Vec<BugId>,
}

impl BugReport {
    /// Builds a report from an unsafe condition found by a campaign.
    pub fn from_unsafe_condition(
        profile: FirmwareProfile,
        workload: &str,
        condition: &UnsafeCondition,
    ) -> Self {
        BugReport {
            profile,
            workload: workload.to_string(),
            plan: condition.plan.clone(),
            violations: condition.violations.clone(),
            suspected_bugs: condition.triggered_bugs.clone(),
        }
    }

    /// Serialises the report to pretty JSON (the artefact format). Link
    /// faults, when the plan has any, go in a `link` array of hex strings,
    /// each one [`LinkFaultSpec::encode`]'s bytes.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("profile", Json::String(self.profile.name().to_string())),
            ("workload", Json::String(self.workload.clone())),
            (
                "plan",
                Json::Array(
                    self.plan
                        .specs()
                        .map(|s| {
                            json::object(vec![
                                ("sensor", Json::String(s.instance.kind.name().to_string())),
                                ("index", Json::Number(s.instance.index as f64)),
                                ("time", Json::Number(s.time)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "violations",
                Json::Array(self.violations.iter().map(violation_to_json).collect()),
            ),
            (
                "suspected_bugs",
                Json::Array(
                    self.suspected_bugs
                        .iter()
                        .map(|b| Json::String(b.to_string()))
                        .collect(),
                ),
            ),
        ];
        let link = self.plan.link_plan();
        if !link.is_empty() {
            let specs = link.specs().iter().map(|s| Json::String(link_to_hex(s)));
            fields.push(("link", Json::Array(specs.collect())));
        }
        json::object(fields).to_pretty()
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed input or an unknown
    /// profile / sensor / bug / mode name.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let doc = Json::parse(text)?;
        let profile_name = require_str(&doc, "profile")?;
        let profile = FirmwareProfile::ALL
            .into_iter()
            .find(|p| p.name() == profile_name)
            .ok_or_else(|| schema_error(format!("unknown firmware profile `{profile_name}`")))?;
        let workload = require_str(&doc, "workload")?.to_string();

        let mut plan = FaultPlan::empty();
        for entry in require_array(&doc, "plan")? {
            let sensor_name = require_str(entry, "sensor")?;
            let kind = SensorKind::ALL
                .into_iter()
                .find(|k| k.name() == sensor_name)
                .ok_or_else(|| schema_error(format!("unknown sensor kind `{sensor_name}`")))?;
            let index = require_f64(entry, "index")?;
            if index.fract() != 0.0 || !(0.0..=255.0).contains(&index) {
                return Err(schema_error(format!(
                    "sensor index {index} is not an integer in 0..=255"
                )));
            }
            let time = require_f64(entry, "time")?;
            plan.add(FaultSpec::new(SensorInstance::new(kind, index as u8), time));
        }
        if doc.get("link").is_some() {
            for entry in require_array(&doc, "link")? {
                let hex = entry
                    .as_str()
                    .ok_or_else(|| schema_error("link entries must be strings"))?;
                plan.add_link(link_from_hex(hex)?);
            }
        }

        let violations = require_array(&doc, "violations")?
            .iter()
            .map(violation_from_json)
            .collect::<Result<Vec<_>, _>>()?;

        let suspected_bugs = require_array(&doc, "suspected_bugs")?
            .iter()
            .map(|entry| {
                let name = entry
                    .as_str()
                    .ok_or_else(|| schema_error("bug entries must be strings"))?;
                BugId::UNKNOWN
                    .into_iter()
                    .chain(BugId::KNOWN)
                    .find(|b| b.to_string() == name)
                    .ok_or_else(|| schema_error(format!("unknown bug id `{name}`")))
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(BugReport {
            profile,
            workload,
            plan,
            violations,
            suspected_bugs,
        })
    }
}

fn schema_error(message: impl Into<String>) -> JsonError {
    JsonError {
        offset: 0,
        message: message.into(),
    }
}

fn require<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    doc.get(key)
        .ok_or_else(|| schema_error(format!("missing field `{key}`")))
}

fn require_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, JsonError> {
    require(doc, key)?
        .as_str()
        .ok_or_else(|| schema_error(format!("field `{key}` must be a string")))
}

fn require_f64(doc: &Json, key: &str) -> Result<f64, JsonError> {
    require(doc, key)?
        .as_f64()
        .ok_or_else(|| schema_error(format!("field `{key}` must be a number")))
}

fn require_array<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], JsonError> {
    require(doc, key)?
        .as_array()
        .ok_or_else(|| schema_error(format!("field `{key}` must be an array")))
}

fn link_to_hex(spec: &LinkFaultSpec) -> String {
    let mut writer = ByteWriter::new();
    spec.encode(&mut writer);
    writer
        .into_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn link_from_hex(hex: &str) -> Result<LinkFaultSpec, JsonError> {
    let malformed = || schema_error(format!("malformed link fault `{hex}`"));
    let nibble = |c: u8| char::from(c).to_digit(16);
    let bytes = hex
        .as_bytes()
        .chunks(2)
        .map(|pair| match pair {
            [hi, lo] => Some((nibble(*hi)? << 4 | nibble(*lo)?) as u8),
            _ => None,
        })
        .collect::<Option<Vec<u8>>>()
        .ok_or_else(malformed)?;
    let mut reader = ByteReader::new(&bytes);
    let spec = LinkFaultSpec::decode(&mut reader).map_err(|_| malformed())?;
    reader.finish().map_err(|_| malformed())?;
    Ok(spec)
}

fn violation_to_json(v: &Violation) -> Json {
    let kind = match &v.kind {
        ViolationKind::Collision { impact_speed } => json::object(vec![
            ("type", Json::String("collision".to_string())),
            ("impact_speed", Json::Number(*impact_speed)),
        ]),
        ViolationKind::LivelinessDivergence {
            distance,
            threshold,
        } => json::object(vec![
            ("type", Json::String("liveliness_divergence".to_string())),
            ("distance", Json::Number(*distance)),
            ("threshold", Json::Number(*threshold)),
        ]),
        ViolationKind::SafeModeStalled { mode } => json::object(vec![
            ("type", Json::String("safe_mode_stalled".to_string())),
            ("mode", Json::String(mode.clone())),
        ]),
        ViolationKind::InAirDisarm { altitude } => json::object(vec![
            ("type", Json::String("in_air_disarm".to_string())),
            ("altitude", Json::Number(*altitude)),
        ]),
        ViolationKind::CommandAckTimeout { command, window } => json::object(vec![
            ("type", Json::String("command_ack_timeout".to_string())),
            ("command", Json::String(command.clone())),
            ("window", Json::Number(*window)),
        ]),
        ViolationKind::MissionAliasing {
            expected_items,
            matching_items,
        } => json::object(vec![
            ("type", Json::String("mission_aliasing".to_string())),
            ("expected_items", Json::Number(*expected_items as f64)),
            ("matching_items", Json::Number(*matching_items as f64)),
        ]),
    };
    json::object(vec![
        ("kind", kind),
        ("time", Json::Number(v.time)),
        ("mode_code", Json::Number(v.mode.code().0 as f64)),
    ])
}

fn violation_from_json(doc: &Json) -> Result<Violation, JsonError> {
    let kind_doc = require(doc, "kind")?;
    let kind = match require_str(kind_doc, "type")? {
        "collision" => ViolationKind::Collision {
            impact_speed: require_f64(kind_doc, "impact_speed")?,
        },
        "liveliness_divergence" => ViolationKind::LivelinessDivergence {
            distance: require_f64(kind_doc, "distance")?,
            threshold: require_f64(kind_doc, "threshold")?,
        },
        "safe_mode_stalled" => ViolationKind::SafeModeStalled {
            mode: require_str(kind_doc, "mode")?.to_string(),
        },
        "in_air_disarm" => ViolationKind::InAirDisarm {
            altitude: require_f64(kind_doc, "altitude")?,
        },
        "command_ack_timeout" => ViolationKind::CommandAckTimeout {
            command: require_str(kind_doc, "command")?.to_string(),
            window: require_f64(kind_doc, "window")?,
        },
        "mission_aliasing" => ViolationKind::MissionAliasing {
            expected_items: require_f64(kind_doc, "expected_items")? as usize,
            matching_items: require_f64(kind_doc, "matching_items")? as usize,
        },
        other => return Err(schema_error(format!("unknown violation type `{other}`"))),
    };
    let time = require_f64(doc, "time")?;
    let code = require_f64(doc, "mode_code")? as u32;
    let mode = OperatingMode::from_code(ModeCode(code))
        .ok_or_else(|| schema_error(format!("unknown mode code {code}")))?;
    Ok(Violation { kind, time, mode })
}

/// The result of replaying a report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Violations observed during the replay.
    pub violations: Vec<Violation>,
    /// Whether the replay reproduced at least one violation of the same
    /// kind class as the original report.
    pub reproduced: bool,
}

/// Replays a bug report against a runner and monitor, returning whether
/// the unsafe condition manifested again.
pub fn replay(
    report: &BugReport,
    runner: &mut ExperimentRunner,
    monitor: &InvariantMonitor,
) -> ReplayOutcome {
    let result = runner.run_with_plan(report.plan.clone());
    let violations = monitor.check(&result.trace);
    let reproduced = !violations.is_empty();
    ReplayOutcome {
        violations,
        reproduced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::UnsafeCondition;
    use crate::monitor::ViolationKind;
    use avis_firmware::{ModeCategory, OperatingMode};
    use avis_hinj::{FaultSpec, LinkDirection, LinkFaultKind};
    use avis_sim::{SensorInstance, SensorKind};

    fn condition() -> UnsafeCondition {
        UnsafeCondition {
            plan: FaultPlan::from_specs(vec![FaultSpec::new(
                SensorInstance::new(SensorKind::Gps, 0),
                12.5,
            )]),
            violations: vec![Violation {
                kind: ViolationKind::Collision { impact_speed: 3.0 },
                time: 20.0,
                mode: OperatingMode::Land,
            }],
            injection_category: ModeCategory::Waypoint,
            injection_mode: Some(OperatingMode::Auto { leg: 1 }),
            triggered_bugs: vec![BugId::Apm16020],
            simulations_used: 5,
            cost_seconds_used: 400.0,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        // A sensor-only plan, and the same plan plus the link half of the
        // PROTO-102 trigger: commands to the vehicle delayed by 1.5 s.
        let mut link_fault = condition();
        link_fault.plan.add_link(LinkFaultSpec::new(
            LinkFaultKind::Delay {
                duration: 5.0,
                seconds: 1.5,
            },
            LinkDirection::ToVehicle,
            1.0,
        ));
        for c in [condition(), link_fault] {
            let report = BugReport::from_unsafe_condition(
                FirmwareProfile::ArduPilotLike,
                "auto-box-mission",
                &c,
            );
            let json = report.to_json();
            assert!(json.to_lowercase().contains("gps"));
            assert!(json.contains("auto-box-mission"));
            assert_eq!(json.contains("\"link\""), !c.plan.link_plan().is_empty());
            let parsed = BugReport::from_json(&json).expect("round trip");
            assert_eq!(parsed, report);
        }
        assert!(BugReport::from_json("{not json").is_err());
    }

    #[test]
    fn report_rejects_malformed_plan_entries() {
        let report = BugReport::from_unsafe_condition(
            FirmwareProfile::ArduPilotLike,
            "auto-box-mission",
            &condition(),
        );
        let json = report.to_json();
        for index in ["256", "-1", "0.5"] {
            let bad = json.replacen("\"index\": 0", &format!("\"index\": {index}"), 1);
            assert_ne!(bad, json);
            assert!(BugReport::from_json(&bad).is_err(), "index {index}");
        }
        let trailing = json.replacen(
            "\"suspected_bugs\"",
            "\"link\": [\"0\"], \"suspected_bugs\"",
            1,
        );
        assert!(BugReport::from_json(&trailing).is_err());
    }

    #[test]
    fn report_captures_condition_fields() {
        let c = condition();
        let report =
            BugReport::from_unsafe_condition(FirmwareProfile::Px4Like, "manual-box-survey", &c);
        assert_eq!(report.profile, FirmwareProfile::Px4Like);
        assert_eq!(report.plan, c.plan);
        assert_eq!(report.suspected_bugs, vec![BugId::Apm16020]);
        assert_eq!(report.violations.len(), 1);
    }
}
