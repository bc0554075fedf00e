//! Regenerates **Figure 9**: the APM-16021 case study. In the paper, an
//! accelerometer fault injected during the climb makes the vehicle
//! overshoot its target altitude, the firmware over-corrects into a
//! landing on a stale estimate and the vehicle crashes. The event list
//! printed here is read off this reproduction's own traces.

use avis::checker::Budget;
use avis_bench::{altitude_chart, first_condition_for, print_case_study_events, replay};
use avis_firmware::BugId;
use avis_workload::auto_box_mission;

fn main() {
    let bug = BugId::Apm16021;
    println!(
        "Figure 9: sequence of events in {} ({})\n",
        bug,
        bug.info().window_description
    );

    let (result, condition) = first_condition_for(bug, auto_box_mission(), Budget::simulations(60));
    let Some(condition) = condition else {
        println!(
            "Avis did not trigger {bug} within {} simulations — increase the budget.",
            result.simulations
        );
        return;
    };

    // Re-execute the golden run and the bug-triggering plan to chart them.
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
