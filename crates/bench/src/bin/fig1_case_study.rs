//! Regenerates **Figure 1** (case study APM-16682). In the paper, an IMU
//! failure at the end of the landing sequence triggers the GPS-driven
//! return-home fail-safe; GPS altitude is too coarse to guide the
//! manoeuvre and the vehicle crashes. The paper notes the vulnerable
//! window is when the vehicle is fewer than ~2 m above ground. The
//! timeline printed here is read off this reproduction's own traces.

use avis::checker::Budget;
use avis_bench::{altitude_chart, first_condition_for, print_case_study_events, replay};
use avis_firmware::BugId;
use avis_workload::auto_box_mission;

fn main() {
    let bug = BugId::Apm16682;
    println!(
        "Figure 1: execution analysis of a mishandled sensor failure ({}, {})\n",
        bug,
        bug.info().window_description
    );

    let (result, condition) =
        first_condition_for(bug, auto_box_mission(), Budget::simulations(120));
    let Some(condition) = condition else {
        println!(
            "Avis did not trigger {bug} within {} simulations — increase the budget.",
            result.simulations
        );
        return;
    };

    let (golden, faulted) = replay(bug, auto_box_mission(), &condition.plan);

    println!("Injected faults: {}", condition.plan);
    println!(
        "Found after {} simulations ({} unsafe conditions in the campaign).\n",
        condition.simulations_used,
        result.unsafe_count()
    );
    altitude_chart(&golden, &faulted);

    println!("\nTimeline (cf. the paper's Figure 1):");
    print_case_study_events(&condition.plan, &golden, &faulted);
}
