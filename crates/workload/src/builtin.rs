//! The default workloads described in §V.A of the paper.
//!
//! 1. A "manual" box survey: ascend to 20 m, hold position, fly the
//!    perimeter of a 20 m × 20 m box with guided repositions, and land at
//!    the launch point. Position hold subsumes the orientation- and
//!    altitude-holding manual modes, so testing it also exercises them.
//! 2. An autonomous waypoint mission over the same box, uploaded through
//!    the mission protocol and flown in Auto mode.
//! 3. A geofenced variant of the waypoint mission: the environment carries
//!    a restricted-airspace fence adjacent to the route, exercising the
//!    fence-checking path without requiring avoidance manoeuvres. (The
//!    paper's fence overlaps the route; our firmware substrate does not
//!    implement automatic fence avoidance, so the fence is placed adjacent
//!    — see "Deviations from the paper" in the README.)

use crate::script::{ScriptedWorkload, WorkloadBuilder};
use avis_mavlite::{square_mission, ProtocolMode};
use avis_sim::{Environment, Fence, FenceRegion, Vec3};

/// Default mission / survey altitude used by the built-in workloads (m).
pub const DEFAULT_ALTITUDE: f64 = 20.0;
/// Side length of the survey box (m).
pub const BOX_SIDE: f64 = 20.0;

/// Workload 1: a box survey flown with "manual" modes (guided repositions
/// plus a position hold), then a landing at the launch point.
pub fn manual_box_survey() -> ScriptedWorkload {
    WorkloadBuilder::new("manual-box-survey")
        .step_timeout(90.0)
        .wait_time(2.0)
        .arm_system_completely()
        .set_mode(ProtocolMode::Guided)
        .takeoff(DEFAULT_ALTITUDE)
        .wait_altitude_above(DEFAULT_ALTITUDE - 1.5)
        .set_mode(ProtocolMode::PosHold)
        .wait_time(3.0)
        .set_mode(ProtocolMode::Guided)
        .goto_and_wait(BOX_SIDE, 0.0, DEFAULT_ALTITUDE, 2.5)
        .goto_and_wait(BOX_SIDE, BOX_SIDE, DEFAULT_ALTITUDE, 2.5)
        .goto_and_wait(0.0, BOX_SIDE, DEFAULT_ALTITUDE, 2.5)
        .goto_and_wait(0.0, 0.0, DEFAULT_ALTITUDE, 2.5)
        .set_mode(ProtocolMode::Land)
        .wait_altitude_below(0.5)
        .wait_disarmed()
        .pass_test()
        .build()
}

/// Workload 2: the autonomous waypoint-box mission (Figure 8 style):
/// upload, arm, enter auto mode, wait for the climb, wait for the landing.
pub fn auto_box_mission() -> ScriptedWorkload {
    WorkloadBuilder::new("auto-box-mission")
        .step_timeout(120.0)
        .wait_time(2.0)
        .upload_mission(square_mission(DEFAULT_ALTITUDE, BOX_SIDE, true))
        .arm_system_completely()
        .enter_auto_mode()
        .wait_altitude_above(DEFAULT_ALTITUDE - 1.5)
        .wait_altitude_below(0.5)
        .wait_disarmed()
        .pass_test()
        .build()
}

/// Workload 3: the waypoint mission flown next to restricted airspace and
/// ending with a return-to-launch instead of a straight landing.
pub fn fence_box_mission() -> ScriptedWorkload {
    let fence = Fence::exclusion(FenceRegion::Circle {
        center: Vec3::new(BOX_SIDE * 2.5, BOX_SIDE * 0.5, 0.0),
        radius: BOX_SIDE * 0.75,
    });
    let environment = Environment::open_field().with_fence(fence);
    WorkloadBuilder::new("fence-box-mission")
        .environment(environment)
        .step_timeout(150.0)
        .wait_time(2.0)
        .upload_mission(square_mission(DEFAULT_ALTITUDE, BOX_SIDE, false))
        .arm_system_completely()
        .enter_auto_mode()
        .wait_altitude_above(DEFAULT_ALTITUDE - 1.5)
        .wait_altitude_below(0.5)
        .wait_disarmed()
        .pass_test()
        .build()
}

/// The default workload set used by the checker (paper §V.A provides two
/// defaults; we also ship the geofenced variant).
pub fn default_workloads() -> Vec<ScriptedWorkload> {
    vec![auto_box_mission(), manual_box_survey()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::WorkloadStep;

    #[test]
    fn default_workloads_are_the_two_from_the_paper() {
        let defaults = default_workloads();
        assert_eq!(defaults.len(), 2);
        assert_eq!(defaults[0].name(), "auto-box-mission");
        assert_eq!(defaults[1].name(), "manual-box-survey");
    }

    #[test]
    fn auto_mission_contains_upload_and_auto_mode() {
        let w = auto_box_mission();
        assert!(w
            .steps()
            .iter()
            .any(|s| matches!(s, WorkloadStep::UploadMission { items } if items.len() == 6)));
        assert!(w.steps().iter().any(|s| matches!(
            s,
            WorkloadStep::SetMode {
                mode: ProtocolMode::Auto
            }
        )));
        assert!(w.environment().fences().is_empty());
    }

    #[test]
    fn manual_survey_uses_guided_and_poshold() {
        let w = manual_box_survey();
        let gotos = w
            .steps()
            .iter()
            .filter(|s| matches!(s, WorkloadStep::GotoAndWait { .. }))
            .count();
        assert_eq!(gotos, 4, "the survey flies the four corners of the box");
        assert!(w.steps().iter().any(|s| matches!(
            s,
            WorkloadStep::SetMode {
                mode: ProtocolMode::PosHold
            }
        )));
        assert!(w.steps().iter().any(|s| matches!(
            s,
            WorkloadStep::SetMode {
                mode: ProtocolMode::Land
            }
        )));
    }

    #[test]
    fn fence_mission_has_restricted_airspace() {
        let w = fence_box_mission();
        assert_eq!(w.environment().fences().len(), 1);
        assert!(w.environment().fences()[0].exclusion);
        // The fence must not overlap the mission box (no false violations
        // in a fault-free flight).
        for corner in [
            Vec3::new(0.0, 0.0, DEFAULT_ALTITUDE),
            Vec3::new(BOX_SIDE, 0.0, DEFAULT_ALTITUDE),
            Vec3::new(BOX_SIDE, BOX_SIDE, DEFAULT_ALTITUDE),
            Vec3::new(0.0, BOX_SIDE, DEFAULT_ALTITUDE),
        ] {
            assert!(w.environment().violated_fences(corner).is_empty());
        }
    }
}
