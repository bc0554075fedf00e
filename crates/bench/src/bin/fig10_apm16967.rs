//! Regenerates **Figure 10**: the APM-16967 case study. In the paper, a
//! compass failure between waypoints freezes the heading estimate; the
//! land fail-safe engages, the state estimate is reset near the ground
//! and the vehicle crashes. The event list printed here is read off this
//! reproduction's own traces.

use avis::checker::Budget;
use avis_bench::{altitude_chart, first_condition_for, print_case_study_events, replay};
use avis_firmware::BugId;
use avis_workload::auto_box_mission;

fn main() {
    let bug = BugId::Apm16967;
    println!(
        "Figure 10: sequence of events in {} ({})\n",
        bug,
        bug.info().window_description
    );

    let (result, condition) = first_condition_for(bug, auto_box_mission(), Budget::simulations(80));
    let Some(condition) = condition else {
        println!(
            "Avis did not trigger {bug} within {} simulations — increase the budget.",
            result.simulations
        );
        return;
    };

    let (golden, faulted) = replay(bug, auto_box_mission(), &condition.plan);

    println!("Injected faults: {}", condition.plan);
    println!("Found after {} simulations.\n", condition.simulations_used);
    altitude_chart(&golden, &faulted);

    println!("\nEvents:");
    print_case_study_events(&condition.plan, &golden, &faulted);
    println!(
        "\nMonitor verdict: {:?}",
        condition.violations.first().map(|v| v.kind.to_string())
    );
}
