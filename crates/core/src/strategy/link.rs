//! Link-fault scenario strategies.
//!
//! Two pieces make protocol faults a first-class campaign dimension:
//!
//! * [`LinkScenarioStrategy`] pins a fixed [`LinkFaultPlan`] under any
//!   inner sensor-fault strategy: every plan the inner strategy proposes
//!   or decides is merged with the scenario's link faults before it
//!   reaches the engine, so one campaign explores the sensor-fault space
//!   *under* a fixed protocol-fault environment. This is the wrapper
//!   [`crate::campaign::CampaignBuilder::link_faults`] installs.
//! * [`LinkProbeStrategy`] searches the link-fault space itself:
//!   drop / duplicate / corrupt / reorder / delay windows and command
//!   storms anchored at the golden trace's mode transitions, the same
//!   anchoring idea SABRE applies to sensor faults.
//!
//! Both preserve the engine's determinism contract. The wrapper merges
//! identically at propose and decide time, so a speculative plan always
//! equals the committed plan and speculative reuse keeps working; round
//! composition of the probe is a pure function of the golden trace.

use super::{Candidate, Decision, Observation, PruningCounters, Strategy, StrategyContext};
use avis_hinj::{
    FaultPlan, LinkDirection, LinkFaultKind, LinkFaultPlan, LinkFaultSpec, StormCommand,
};

/// Wraps an inner strategy so every plan it emits carries a fixed base
/// [`LinkFaultPlan`]. See the module docs.
///
/// Pruning state is unaffected: role signatures are computed from sensor
/// specs only, and every plan in the campaign carries the identical link
/// part, so the inner strategy's symmetry / found-bug pruning behaves
/// exactly as in a link-fault-free campaign.
pub struct LinkScenarioStrategy {
    inner: Box<dyn Strategy>,
    link: LinkFaultPlan,
}

impl LinkScenarioStrategy {
    /// Pins `link` under every plan `inner` produces.
    pub fn new(inner: Box<dyn Strategy>, link: LinkFaultPlan) -> Self {
        LinkScenarioStrategy { inner, link }
    }

    fn merged(&self, mut plan: FaultPlan) -> FaultPlan {
        plan.merge_link(&self.link);
        plan
    }
}

impl std::fmt::Debug for LinkScenarioStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkScenarioStrategy")
            .field("inner", &self.inner.name())
            .field("link", &self.link)
            .finish()
    }
}

impl Strategy for LinkScenarioStrategy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initialize(&mut self, ctx: &StrategyContext<'_>) {
        self.inner.initialize(ctx);
    }

    fn propose(&mut self) -> Vec<Candidate> {
        self.inner
            .propose()
            .into_iter()
            .map(|c| match c.speculative() {
                Some(plan) => Candidate::speculate(c.token(), self.merged(plan.clone())),
                None => c,
            })
            .collect()
    }

    fn revalidate(&self, candidate: &Candidate) -> bool {
        self.inner.revalidate(candidate)
    }

    fn prune_probability(&self, candidate: &Candidate) -> f64 {
        self.inner.prune_probability(candidate)
    }

    fn decide(&mut self, candidate: &Candidate) -> Decision {
        let mut decision = self.inner.decide(candidate);
        decision.plan = decision.plan.take().map(|plan| self.merged(plan));
        decision
    }

    fn observe(&mut self, observation: &Observation<'_>) {
        self.inner.observe(observation);
    }

    fn pruning(&self) -> PruningCounters {
        self.inner.pruning()
    }
}

/// Plans per round. A fixed constant — never derived from the engine's
/// parallelism — so the probe sequence is identical at every worker
/// count.
const PROBE_BATCH: usize = 8;

/// Active-window length for windowed link faults (s): long enough to
/// cover the command/ack exchange around a mode transition.
const PROBE_WINDOW: f64 = 2.0;

/// Copies injected per command storm.
const STORM_COUNT: u32 = 8;

/// Enumerates protocol-fault scenarios anchored at the golden trace's
/// mode transitions: deterministic drop / duplicate / corrupt / reorder /
/// delay windows in both link directions plus arm and return-to-launch
/// command storms, each as its own sensor-fault-free plan.
///
/// The probe space is a pure function of the golden trace, so campaigns
/// are bit-identical at every parallelism and under checkpointed replay.
#[derive(Debug, Default)]
pub struct LinkProbeStrategy {
    probes: Vec<FaultPlan>,
    cursor: usize,
    round: Vec<FaultPlan>,
}

impl LinkProbeStrategy {
    /// A probe strategy; the scenario list is built at initialisation
    /// from the golden trace.
    pub fn new() -> Self {
        LinkProbeStrategy::default()
    }

    fn scenarios_at(time: f64) -> Vec<LinkFaultSpec> {
        use LinkDirection::{ToGcs, ToVehicle};
        vec![
            LinkFaultSpec::new(
                LinkFaultKind::Drop {
                    duration: PROBE_WINDOW,
                    probability: 1.0,
                },
                ToVehicle,
                time,
            ),
            LinkFaultSpec::new(
                LinkFaultKind::Drop {
                    duration: PROBE_WINDOW,
                    probability: 1.0,
                },
                ToGcs,
                time,
            ),
            LinkFaultSpec::new(
                LinkFaultKind::Duplicate {
                    duration: PROBE_WINDOW,
                    probability: 1.0,
                },
                ToVehicle,
                time,
            ),
            LinkFaultSpec::new(
                LinkFaultKind::Corrupt {
                    duration: PROBE_WINDOW,
                    probability: 1.0,
                },
                ToVehicle,
                time,
            ),
            LinkFaultSpec::new(
                LinkFaultKind::Corrupt {
                    duration: PROBE_WINDOW,
                    probability: 1.0,
                },
                ToGcs,
                time,
            ),
            LinkFaultSpec::new(
                LinkFaultKind::Reorder {
                    duration: PROBE_WINDOW,
                    window: 4,
                },
                ToVehicle,
                time,
            ),
            LinkFaultSpec::new(
                LinkFaultKind::Delay {
                    duration: PROBE_WINDOW,
                    seconds: 0.5,
                },
                ToVehicle,
                time,
            ),
            LinkFaultSpec::new(
                LinkFaultKind::Storm {
                    command: StormCommand::Arm,
                    count: STORM_COUNT,
                },
                ToVehicle,
                time,
            ),
            LinkFaultSpec::new(
                LinkFaultKind::Storm {
                    command: StormCommand::ReturnToLaunch,
                    count: STORM_COUNT,
                },
                ToVehicle,
                time,
            ),
        ]
    }
}

impl Strategy for LinkProbeStrategy {
    fn name(&self) -> &str {
        "Link probe"
    }

    fn initialize(&mut self, ctx: &StrategyContext<'_>) {
        self.probes.clear();
        self.cursor = 0;
        let mut anchors: Vec<f64> = ctx.golden.transition_times();
        if anchors.is_empty() {
            anchors.push(0.0);
        }
        for time in anchors {
            for spec in LinkProbeStrategy::scenarios_at(time) {
                self.probes.push(FaultPlan::empty().with_link(spec));
            }
        }
    }

    fn propose(&mut self) -> Vec<Candidate> {
        let end = (self.cursor + PROBE_BATCH).min(self.probes.len());
        self.round = self.probes[self.cursor..end].to_vec();
        self.cursor = end;
        self.round
            .iter()
            .enumerate()
            .map(|(slot, plan)| Candidate::speculate(slot as u64, plan.clone()))
            .collect()
    }

    fn decide(&mut self, candidate: &Candidate) -> Decision {
        Decision::run(self.round[candidate.token() as usize].clone())
    }

    fn observe(&mut self, _observation: &Observation<'_>) {
        // The probe enumerates a fixed scenario list; results do not
        // steer it.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingInner {
        decided: usize,
    }

    impl Strategy for CountingInner {
        fn name(&self) -> &str {
            "inner"
        }

        fn initialize(&mut self, _ctx: &StrategyContext<'_>) {}

        fn propose(&mut self) -> Vec<Candidate> {
            vec![
                Candidate::speculate(0, FaultPlan::empty()),
                Candidate::skip(1),
            ]
        }

        fn decide(&mut self, candidate: &Candidate) -> Decision {
            self.decided += 1;
            if candidate.token() == 0 {
                Decision::run(FaultPlan::empty())
            } else {
                Decision::skip()
            }
        }

        fn observe(&mut self, _observation: &Observation<'_>) {}
    }

    fn storm_link() -> LinkFaultPlan {
        LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
            LinkFaultKind::Storm {
                command: StormCommand::Arm,
                count: 3,
            },
            LinkDirection::ToVehicle,
            8.0,
        )])
    }

    #[test]
    fn wrapper_merges_link_plan_into_propose_and_decide() {
        let mut wrapped =
            LinkScenarioStrategy::new(Box::new(CountingInner { decided: 0 }), storm_link());
        assert_eq!(wrapped.name(), "inner");

        let round = wrapped.propose();
        assert_eq!(round.len(), 2);
        let speculative = round[0].speculative().expect("speculated");
        assert_eq!(speculative.link_plan(), &storm_link());
        assert!(round[1].speculative().is_none());

        let decision = wrapped.decide(&round[0]);
        let plan = decision.plan.expect("ran");
        assert_eq!(plan.link_plan(), &storm_link());
        // Speculative plan must equal the decided plan, or the parallel
        // engine would discard every speculative run.
        assert_eq!(speculative, &plan);

        let skipped = wrapped.decide(&round[1]);
        assert!(skipped.plan.is_none());
    }

    #[test]
    fn probe_rounds_are_a_fixed_walk_over_the_scenario_list() {
        let mut probe = LinkProbeStrategy::new();
        probe.probes = LinkProbeStrategy::scenarios_at(10.0)
            .into_iter()
            .chain(LinkProbeStrategy::scenarios_at(40.0))
            .map(|spec| FaultPlan::empty().with_link(spec))
            .collect();
        assert_eq!(probe.probes.len(), 18);

        let first = probe.propose();
        assert_eq!(first.len(), PROBE_BATCH);
        let plan = first[0].speculative().expect("speculated");
        assert!(plan.specs().next().is_none(), "probes are sensor-free");
        assert_eq!(plan.link_plan().len(), 1);
        assert_eq!(
            probe.decide(&first[0]).plan.as_ref(),
            first[0].speculative()
        );

        let second = probe.propose();
        let third = probe.propose();
        assert_eq!(second.len(), PROBE_BATCH);
        assert_eq!(third.len(), 18 - 2 * PROBE_BATCH);
        assert!(probe.propose().is_empty(), "exhausted probe ends campaign");
    }
}
