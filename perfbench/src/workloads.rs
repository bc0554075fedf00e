//! The four benchmark workloads: their seeded inputs, the plan-list
//! strategy that replays generated fault plans, and the campaign
//! configurations (default speed config for timed runs, cold scalar
//! serial for the reference).

use avis::campaign::Campaign;
use avis::checker::{Approach, Budget};
use avis::runner::{ExperimentConfig, ExperimentRunner};
use avis::snapshot::CheckpointConfig;
use avis::strategy::{Candidate, Decision, Observation, Strategy, StrategyContext};
use avis::WorkerStatsCollector;
use avis_firmware::{BugSet, FirmwareProfile};
use avis_hinj::{FaultPlan, FaultSpec};
use avis_sim::{SensorInstance, SensorKind, SimRng};
use avis_workload::auto_box_mission;
use std::path::Path;
use std::sync::Arc;

/// Campaigns per `avis-buggy` repetition, each on its own experiment
/// seed, so one run averages over several seeded flights.
const AVIS_CAMPAIGNS: u64 = 3;
/// Simulation budget of one `avis-buggy` campaign (profiling included).
const AVIS_BUDGET: usize = 22;
/// Generated plans per `early-faults` campaign.
const EARLY_PLANS: usize = 36;
/// Generated plans per `late-faults` campaign.
const LATE_PLANS: usize = 96;
/// Sessions per `store-rerun` repetition, all against one store root.
const STORE_SESSIONS: usize = 6;
/// Generated plans per `store-rerun` session.
const STORE_PLANS: usize = 6;
/// Fault-free profiling runs calibrating every campaign's monitor.
pub const PROFILING_RUNS: usize = 3;
/// Share of generated plans that fail two sensors instead of one.
const DOUBLE_FAULT_SHARE: f64 = 0.3;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SABRE on the buggy code base at parallelism 2.
    AvisBuggy,
    /// Generated sensor failures in the first 5–25% of the flight.
    EarlyFaults,
    /// Generated sensor failures in the last 60–95% of the flight.
    LateFaults,
    /// Short very-late sweeps re-run against one persistent store.
    StoreRerun,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::AvisBuggy,
        Workload::EarlyFaults,
        Workload::LateFaults,
        Workload::StoreRerun,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AvisBuggy => "avis-buggy",
            Workload::EarlyFaults => "early-faults",
            Workload::LateFaults => "late-faults",
            Workload::StoreRerun => "store-rerun",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one campaign session searches.
#[derive(Debug, Clone)]
pub enum Search {
    /// The built-in Avis (SABRE) strategy under a simulation budget.
    Avis { budget: usize },
    /// A fixed list of generated fault plans, run in order.
    Plans(Vec<FaultPlan>),
}

/// One campaign of a workload: the experiment plus its search.
#[derive(Debug, Clone)]
pub struct Session {
    pub experiment: ExperimentConfig,
    pub search: Search,
}

impl Session {
    /// A fresh strategy instance for this session.
    pub fn strategy(&self) -> Box<dyn Strategy> {
        match &self.search {
            Search::Avis { .. } => Approach::Avis.strategy(),
            Search::Plans(plans) => Box::new(PlanList::new(plans.clone())),
        }
    }

    fn budget(&self) -> Budget {
        match &self.search {
            Search::Avis { budget } => Budget::simulations(*budget),
            Search::Plans(plans) => Budget::simulations(PROFILING_RUNS + plans.len() + 1),
        }
    }

    /// The session's generated plans (empty for the Avis search).
    pub fn plans(&self) -> &[FaultPlan] {
        match &self.search {
            Search::Avis { .. } => &[],
            Search::Plans(plans) => plans,
        }
    }
}

/// A workload's generated inputs: everything the program receives.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub sessions: Vec<Session>,
    /// Engine workers of the timed runs.
    pub parallelism: usize,
    /// Whether the timed runs attach a persistent snapshot store.
    pub uses_store: bool,
}

/// How a campaign executes.
pub enum Exec<'a> {
    /// The default speed config at the workload's parallelism.
    Timed {
        store: Option<&'a Path>,
        stats: Arc<WorkerStatsCollector>,
    },
    /// Cold (no checkpoints), scalar (one lane), serial: the reference.
    Reference,
}

impl Inputs {
    /// Builds `workload`'s inputs from `seed`; the same seed always
    /// gives the same inputs.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let repaired = || {
            ExperimentConfig::new(
                FirmwareProfile::ArduPilotLike,
                BugSet::none(),
                auto_box_mission(),
            )
        };
        let plan_session = |experiment: ExperimentConfig, salt: u64, count, window| {
            let duration = golden_duration(&experiment);
            let plans = fault_plans(seed ^ salt, count, duration, window);
            Session {
                experiment,
                search: Search::Plans(plans),
            }
        };
        let (sessions, parallelism) = match workload {
            Workload::AvisBuggy => {
                let profile = FirmwareProfile::ArduPilotLike;
                let sessions = (0..AVIS_CAMPAIGNS)
                    .map(|k| {
                        let mut experiment = ExperimentConfig::new(
                            profile,
                            BugSet::current_code_base(profile),
                            auto_box_mission(),
                        );
                        experiment.seed = seed.wrapping_mul(AVIS_CAMPAIGNS).wrapping_add(k);
                        Session {
                            experiment,
                            search: Search::Avis {
                                budget: AVIS_BUDGET,
                            },
                        }
                    })
                    .collect();
                (sessions, 2)
            }
            Workload::EarlyFaults => (
                vec![plan_session(repaired(), 0xea41, EARLY_PLANS, (0.05, 0.25))],
                1,
            ),
            Workload::LateFaults => (
                vec![plan_session(repaired(), 0x1a7e, LATE_PLANS, (0.60, 0.95))],
                1,
            ),
            Workload::StoreRerun => {
                let experiment = repaired();
                let duration = golden_duration(&experiment);
                let sessions = (0..STORE_SESSIONS as u64)
                    .map(|i| Session {
                        experiment: experiment.clone(),
                        search: Search::Plans(fault_plans(
                            seed ^ (0x5702e << 8 | i),
                            STORE_PLANS,
                            duration,
                            (0.85, 0.97),
                        )),
                    })
                    .collect();
                (sessions, 1)
            }
        };
        Inputs {
            workload,
            sessions,
            parallelism,
            uses_store: workload == Workload::StoreRerun,
        }
    }

    /// Configures one session's campaign.
    pub fn campaign(
        &self,
        session: &Session,
        exec: Exec<'_>,
        strategy: Box<dyn Strategy>,
    ) -> Campaign {
        let builder = Campaign::builder()
            .experiment(session.experiment.clone())
            .budget(session.budget())
            .profiling_runs(PROFILING_RUNS)
            .boxed_strategy(strategy);
        match exec {
            Exec::Reference => builder
                .checkpoints(CheckpointConfig::disabled())
                .lockstep_lanes(1)
                .parallelism(1)
                .build(),
            Exec::Timed { store, stats } => {
                let builder = builder.parallelism(self.parallelism).worker_stats(stats);
                match store {
                    Some(root) => builder.snapshot_store(root).build(),
                    None => builder.build(),
                }
            }
        }
    }
}

/// Simulated duration of the campaign's golden flight (its first
/// profiling run), which the generators place faults against.
fn golden_duration(experiment: &ExperimentConfig) -> f64 {
    ExperimentRunner::new(experiment.clone())
        .run_profiling(0)
        .trace
        .duration
}

/// Every injectable sensor instance of the simulated vehicle (the iris
/// suite, without the battery).
fn instances() -> Vec<SensorInstance> {
    [
        (SensorKind::Accelerometer, 3),
        (SensorKind::Gyroscope, 3),
        (SensorKind::Gps, 2),
        (SensorKind::Barometer, 2),
        (SensorKind::Compass, 3),
    ]
    .into_iter()
    .flat_map(|(kind, count)| (0..count).map(move |i| SensorInstance::new(kind, i)))
    .collect()
}

/// A seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// `count` seeded single- or double-sensor failure plans inside `window`
/// (shares of `duration`). Sampling is stratified so that every seed
/// gives a workload of the same shape: failure times are jittered one
/// per equal slice of the window, sensor instances are dealt out in
/// shuffled rounds (so each fails equally often, give or take one), and a
/// fixed share of plans fails two sensors. The seed picks
/// the jitter, the pairings and the order.
pub fn fault_plans(seed: u64, count: usize, duration: f64, window: (f64, f64)) -> Vec<FaultPlan> {
    let mut rng = SimRng::seed_from_u64(seed);
    let all = instances();
    let lo = window.0 * duration;
    let slice = (window.1 - window.0) * duration / count as f64;
    let slot_time = |slot: usize, rng: &mut SimRng| lo + slice * (slot as f64 + rng.uniform());
    let mut order = Vec::with_capacity(count + all.len());
    while order.len() < count {
        let mut round = all.clone();
        shuffle(&mut round, &mut rng);
        order.extend(round);
    }
    let doubles = (count as f64 * DOUBLE_FAULT_SHARE).round() as usize;
    let mut double = vec![false; count];
    let mut picks: Vec<usize> = (0..count).collect();
    shuffle(&mut picks, &mut rng);
    for &i in &picks[..doubles] {
        double[i] = true;
    }
    let mut second_slots: Vec<usize> = (0..count).collect();
    shuffle(&mut second_slots, &mut rng);
    let mut plans: Vec<FaultPlan> = (0..count)
        .map(|i| {
            let mut specs = vec![FaultSpec::new(order[i], slot_time(i, &mut rng))];
            if double[i] {
                let mut other = all[rng.index(all.len() - 1)];
                if other == order[i] {
                    other = all[all.len() - 1];
                }
                specs.push(FaultSpec::new(other, slot_time(second_slots[i], &mut rng)));
            }
            FaultPlan::from_specs(specs)
        })
        .collect();
    shuffle(&mut plans, &mut rng);
    plans
}

/// Runs a fixed list of fault plans as one speculative round.
pub struct PlanList {
    plans: Vec<FaultPlan>,
    proposed: bool,
}

impl PlanList {
    pub fn new(plans: Vec<FaultPlan>) -> Self {
        PlanList {
            plans,
            proposed: false,
        }
    }
}

impl Strategy for PlanList {
    fn name(&self) -> &str {
        "Generated plan list"
    }

    fn initialize(&mut self, _ctx: &StrategyContext<'_>) {}

    fn propose(&mut self) -> Vec<Candidate> {
        if std::mem::replace(&mut self.proposed, true) {
            return Vec::new();
        }
        self.plans
            .iter()
            .enumerate()
            .map(|(slot, plan)| Candidate::speculate(slot as u64, plan.clone()))
            .collect()
    }

    fn decide(&mut self, candidate: &Candidate) -> Decision {
        Decision::run(self.plans[candidate.token() as usize].clone())
    }

    fn observe(&mut self, _observation: &Observation<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_plans() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 11);
            let b = Inputs::generate(workload, 11);
            assert_eq!(a.sessions.len(), b.sessions.len());
            for (x, y) in a.sessions.iter().zip(&b.sessions) {
                assert_eq!(x.plans(), y.plans(), "{}", workload.name());
                assert_eq!(x.experiment.seed, y.experiment.seed);
            }
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 11);
            let b = Inputs::generate(workload, 12);
            let differs = a
                .sessions
                .iter()
                .zip(&b.sessions)
                .any(|(x, y)| x.plans() != y.plans() || x.experiment.seed != y.experiment.seed);
            assert!(differs, "{} ignores its seed", workload.name());
        }
    }

    #[test]
    fn generated_faults_stay_inside_their_window() {
        let plans = fault_plans(3, 200, 100.0, (0.05, 0.25));
        assert_eq!(plans.len(), 200);
        for plan in &plans {
            assert!((1..=2).contains(&plan.len()));
            for spec in plan.specs() {
                assert!((5.0..=25.0).contains(&spec.time), "{}", spec.time);
            }
        }
        assert!(plans.iter().any(|p| p.len() == 2));
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
