//! Vanilla BFI as a [`Strategy`]: depth-first enumeration of individual
//! sensor-read sites, each labelled by the learned model at the measured
//! inference latency.

use super::{Candidate, Decision, Observation, Strategy, StrategyContext};
use crate::baselines::{BfiModel, DfsSiteIterator};
use crate::trace::Trace;
use avis_firmware::ModeCategory;
use avis_hinj::{FaultPlan, FaultSpec};
use avis_sim::SensorInstance;

/// Sites pulled from the depth-first iterator per round. A fixed constant
/// — never derived from the engine's parallelism — so round composition
/// is identical at every worker count (see the determinism contract in
/// the [module docs](super)).
const SITE_BATCH: usize = 32;

/// The vanilla BFI baseline: walk the fault space depth-first (latest
/// sensor reads first), label every site with the model, and inject only
/// the sites predicted unsafe. One round = `SITE_BATCH` sites.
#[derive(Debug)]
pub struct BfiStrategy {
    model: BfiModel,
    sites: Option<DfsSiteIterator>,
    golden: Option<Trace>,
    round: Vec<(SensorInstance, f64)>,
}

impl BfiStrategy {
    /// BFI with the default synthetic training corpus and the paper's
    /// ~10 s per-label inference latency.
    pub fn with_default_model() -> Self {
        BfiStrategy::with_model(BfiModel::with_default_training())
    }

    /// BFI driven by a custom model.
    pub fn with_model(model: BfiModel) -> Self {
        BfiStrategy {
            model,
            sites: None,
            golden: None,
            round: Vec::new(),
        }
    }

    fn site_category(&self, time: f64) -> ModeCategory {
        self.golden
            .as_ref()
            .expect("strategy initialised")
            .mode_before(time)
            .map(|m| m.category())
            .unwrap_or(ModeCategory::Manual)
    }
}

impl Strategy for BfiStrategy {
    fn name(&self) -> &str {
        "BFI"
    }

    fn initialize(&mut self, ctx: &StrategyContext<'_>) {
        self.sites = Some(DfsSiteIterator::new(
            &ctx.sensors,
            ctx.golden.duration,
            ctx.experiment.dt,
        ));
        self.golden = Some(ctx.golden.clone());
    }

    fn propose(&mut self) -> Vec<Candidate> {
        let sites = self.sites.as_mut().expect("strategy initialised");
        self.round = sites.by_ref().take(SITE_BATCH).collect();
        self.round
            .iter()
            .enumerate()
            .map(|(slot, &(instance, time))| {
                // The model filter is a pure function of the site, so the
                // speculation here makes the same call `decide` will.
                if self
                    .model
                    .predicts_unsafe(instance.kind, self.site_category(time))
                {
                    let plan = FaultPlan::from_specs(vec![FaultSpec::new(instance, time)]);
                    Candidate::speculate(slot as u64, plan)
                } else {
                    Candidate::skip(slot as u64)
                }
            })
            .collect()
    }

    fn decide(&mut self, candidate: &Candidate) -> Decision {
        let (instance, time) = self.round[candidate.token() as usize];
        let decision = Decision::skip().labelled(1, self.model.label_cost_seconds);
        if !self
            .model
            .predicts_unsafe(instance.kind, self.site_category(time))
        {
            return decision;
        }
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(instance, time)]);
        Decision {
            plan: Some(plan),
            ..decision
        }
    }

    fn observe(&mut self, _observation: &Observation<'_>) {
        // BFI's model is trained offline; results do not feed back.
    }
}
