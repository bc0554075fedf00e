//! The competing fault-injection approaches the paper compares against
//! (Table I): random injection, Bayesian Fault Injection (BFI) and
//! Stratified BFI (BFI's model driven by SABRE's anchor ordering).
//!
//! BFI (Jha et al., DSN'19) learns from prior unsafe conditions which
//! injection sites are likely to trigger new ones. We cannot use the
//! original autonomous-driving model or training corpus, so the model here
//! is a Laplace-smoothed conditional-probability table over
//! `(sensor kind, operating-mode category)` features, trained on a
//! synthetic corpus that encodes the same qualitative property the paper
//! describes: the training data contains unsafe conditions from the *main
//! flight modes* (waypoint flight and manual/position-hold flight, plus
//! IMU failures during takeoff) but not from the landing/RTL phases and
//! never from joint multi-sensor failures. The per-site inference latency
//! the paper measured (~10 s per labelled scenario) is charged against the
//! approach's test budget.

use avis_firmware::ModeCategory;
use avis_hinj::{FaultPlan, FaultSpec};
use avis_sim::{SensorInstance, SensorKind, SensorSuiteConfig, SimRng};
use std::collections::BTreeMap;

/// One labelled example for the BFI model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingExample {
    /// Sensor kind that failed.
    pub sensor: SensorKind,
    /// Mode category in which the failure was injected.
    pub category: ModeCategory,
    /// Whether the example led to an unsafe condition.
    pub led_to_unsafe: bool,
}

/// The Bayesian fault-injection model: a smoothed probability of "unsafe"
/// per `(sensor, mode-category)` feature pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BfiModel {
    counts: BTreeMap<(SensorKind, ModeCategory), (u32, u32)>,
    /// Seconds of (budget) time one model inference costs.
    pub label_cost_seconds: f64,
}

impl BfiModel {
    /// Trains a model from labelled examples.
    pub fn train(examples: &[TrainingExample], label_cost_seconds: f64) -> Self {
        let mut counts: BTreeMap<(SensorKind, ModeCategory), (u32, u32)> = BTreeMap::new();
        for ex in examples {
            let entry = counts.entry((ex.sensor, ex.category)).or_insert((0, 0));
            entry.1 += 1;
            if ex.led_to_unsafe {
                entry.0 += 1;
            }
        }
        BfiModel {
            counts,
            label_cost_seconds,
        }
    }

    /// The default training corpus: unsafe conditions observed in the main
    /// flight modes (see the module documentation). This reproduces the
    /// coverage bias the paper attributes to BFI's training data.
    pub fn default_training() -> Vec<TrainingExample> {
        let mut examples = Vec::new();
        let positive: &[(SensorKind, ModeCategory)] = &[
            (SensorKind::Accelerometer, ModeCategory::Waypoint),
            (SensorKind::Gyroscope, ModeCategory::Waypoint),
            (SensorKind::Gps, ModeCategory::Waypoint),
            (SensorKind::Barometer, ModeCategory::Waypoint),
            (SensorKind::Compass, ModeCategory::Waypoint),
            (SensorKind::Accelerometer, ModeCategory::Manual),
            (SensorKind::Gyroscope, ModeCategory::Manual),
            (SensorKind::Compass, ModeCategory::Manual),
            (SensorKind::Barometer, ModeCategory::Manual),
            (SensorKind::Accelerometer, ModeCategory::Takeoff),
            (SensorKind::Gyroscope, ModeCategory::Takeoff),
        ];
        for &(sensor, category) in positive {
            for _ in 0..4 {
                examples.push(TrainingExample {
                    sensor,
                    category,
                    led_to_unsafe: true,
                });
            }
            examples.push(TrainingExample {
                sensor,
                category,
                led_to_unsafe: false,
            });
        }
        // Explicit negatives: failures seen during landing / RTL and for the
        // remaining sensors were handled safely in the training fleet.
        let negative: &[(SensorKind, ModeCategory)] = &[
            (SensorKind::Accelerometer, ModeCategory::Land),
            (SensorKind::Gyroscope, ModeCategory::Land),
            (SensorKind::Barometer, ModeCategory::Land),
            (SensorKind::Compass, ModeCategory::Land),
            (SensorKind::Gps, ModeCategory::Land),
            (SensorKind::Gps, ModeCategory::Manual),
            (SensorKind::Gps, ModeCategory::Takeoff),
            (SensorKind::Barometer, ModeCategory::Takeoff),
            (SensorKind::Compass, ModeCategory::Takeoff),
            (SensorKind::Battery, ModeCategory::Waypoint),
            (SensorKind::Battery, ModeCategory::Manual),
        ];
        for &(sensor, category) in negative {
            for _ in 0..5 {
                examples.push(TrainingExample {
                    sensor,
                    category,
                    led_to_unsafe: false,
                });
            }
        }
        examples
    }

    /// A model trained on [`BfiModel::default_training`] with the paper's
    /// ~10 s per-label inference latency.
    pub fn with_default_training() -> Self {
        BfiModel::train(&BfiModel::default_training(), 10.0)
    }

    /// The Laplace-smoothed probability that failing `sensor` in
    /// `category` leads to an unsafe condition.
    pub fn probability_unsafe(&self, sensor: SensorKind, category: ModeCategory) -> f64 {
        let (unsafe_count, total) = self
            .counts
            .get(&(sensor, category))
            .copied()
            .unwrap_or((0, 0));
        (unsafe_count as f64 + 1.0) / (total as f64 + 2.0)
    }

    /// Whether the model labels the site as worth injecting (probability
    /// above one half).
    pub fn predicts_unsafe(&self, sensor: SensorKind, category: ModeCategory) -> bool {
        self.probability_unsafe(sensor, category) > 0.5
    }

    /// Labels a whole candidate failure set. BFI's model reasons about one
    /// sensor at a time, so joint failures of different kinds are labelled
    /// "not unsafe" — the limitation the PX4-13291 case study exposes.
    pub fn predicts_unsafe_set(&self, set: &[SensorInstance], category: ModeCategory) -> bool {
        let mut kinds: Vec<SensorKind> = set.iter().map(|i| i.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        match kinds.as_slice() {
            [single] => self.predicts_unsafe(*single, category),
            _ => false,
        }
    }
}

/// Random fault injection: uniformly random instance and uniformly random
/// injection time, with a uniformly random number of simultaneous
/// failures (1 or 2), as the paper's "Rnd" baseline.
#[derive(Debug, Clone)]
pub struct RandomInjection {
    rng: SimRng,
    instances: Vec<SensorInstance>,
    horizon: f64,
}

impl RandomInjection {
    /// Creates a random injector over the vehicle's sensor complement.
    pub fn new(config: &SensorSuiteConfig, horizon: f64, seed: u64) -> Self {
        RandomInjection {
            rng: SimRng::seed_from_u64(seed),
            instances: config.instances(),
            horizon,
        }
    }

    /// Draws the next random fault plan.
    pub fn next_plan(&mut self) -> FaultPlan {
        let failures = if self.rng.chance(0.3) { 2 } else { 1 };
        let mut plan = FaultPlan::empty();
        for _ in 0..failures {
            let instance = self.instances[self.rng.index(self.instances.len())];
            let time = self.rng.uniform_range(0.0, self.horizon);
            plan.add(FaultSpec::new(instance, time));
        }
        plan
    }
}

/// The site enumeration order used by the vanilla BFI baseline: a
/// depth-first walk of the fault space, which (as in the paper's Figure 5
/// discussion) explores the *latest* sensor reads first and works
/// backwards one read at a time.
#[derive(Debug, Clone)]
pub struct DfsSiteIterator {
    instances: Vec<SensorInstance>,
    time: f64,
    step: f64,
    instance_index: usize,
}

impl DfsSiteIterator {
    /// Creates the iterator over all instances, starting from `horizon` and
    /// stepping backwards by `step` seconds (one sensor-read period).
    pub fn new(config: &SensorSuiteConfig, horizon: f64, step: f64) -> Self {
        DfsSiteIterator {
            instances: config.instances(),
            time: horizon,
            step,
            instance_index: 0,
        }
    }
}

impl Iterator for DfsSiteIterator {
    type Item = (SensorInstance, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.time < 0.0 {
            return None;
        }
        let site = (self.instances[self.instance_index], self.time);
        self.instance_index += 1;
        if self.instance_index >= self.instances.len() {
            self.instance_index = 0;
            self.time -= self.step;
        }
        Some(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_reproduces_training_bias() {
        let model = BfiModel::with_default_training();
        // Main-flight-mode failures are predicted unsafe.
        assert!(model.predicts_unsafe(SensorKind::Compass, ModeCategory::Waypoint));
        assert!(model.predicts_unsafe(SensorKind::Gps, ModeCategory::Waypoint));
        assert!(model.predicts_unsafe(SensorKind::Accelerometer, ModeCategory::Takeoff));
        assert!(model.predicts_unsafe(SensorKind::Gyroscope, ModeCategory::Takeoff));
        // Landing-phase and never-seen failures are not.
        assert!(!model.predicts_unsafe(SensorKind::Accelerometer, ModeCategory::Land));
        assert!(!model.predicts_unsafe(SensorKind::Barometer, ModeCategory::Takeoff));
        assert!(!model.predicts_unsafe(SensorKind::Compass, ModeCategory::Takeoff));
        assert!(!model.predicts_unsafe(SensorKind::Gps, ModeCategory::Manual));
        assert!(!model.predicts_unsafe(SensorKind::Battery, ModeCategory::Waypoint));
        assert_eq!(model.label_cost_seconds, 10.0);
    }

    #[test]
    fn probabilities_are_smoothed() {
        let model = BfiModel::train(&[], 1.0);
        // With no data at all the smoothed probability is exactly one half,
        // which is treated as "not predicted unsafe".
        assert_eq!(
            model.probability_unsafe(SensorKind::Gps, ModeCategory::Waypoint),
            0.5
        );
        assert!(!model.predicts_unsafe(SensorKind::Gps, ModeCategory::Waypoint));
    }

    #[test]
    fn joint_failures_are_never_predicted() {
        let model = BfiModel::with_default_training();
        let set = vec![
            SensorInstance::new(SensorKind::Gps, 0),
            SensorInstance::new(SensorKind::Battery, 0),
        ];
        assert!(!model.predicts_unsafe_set(&set, ModeCategory::Waypoint));
        // Multiple instances of the same kind count as one feature.
        let same_kind = vec![
            SensorInstance::new(SensorKind::Compass, 0),
            SensorInstance::new(SensorKind::Compass, 1),
        ];
        assert!(model.predicts_unsafe_set(&same_kind, ModeCategory::Waypoint));
    }

    #[test]
    fn random_injection_is_seeded_and_in_range() {
        let config = SensorSuiteConfig::iris();
        let mut a = RandomInjection::new(&config, 80.0, 42);
        let mut b = RandomInjection::new(&config, 80.0, 42);
        for _ in 0..50 {
            let pa = a.next_plan();
            let pb = b.next_plan();
            assert_eq!(pa, pb, "same seed, same plans");
            assert!(!pa.is_empty() && pa.len() <= 2);
            for spec in pa.specs() {
                assert!((0.0..=80.0).contains(&spec.time));
            }
        }
    }

    #[test]
    fn dfs_iterator_walks_backwards_from_the_end() {
        let config = SensorSuiteConfig::minimal();
        let sites: Vec<(SensorInstance, f64)> = DfsSiteIterator::new(&config, 1.0, 0.5).collect();
        // 6 instances × 3 time points (1.0, 0.5, 0.0).
        assert_eq!(sites.len(), 18);
        assert_eq!(sites[0].1, 1.0);
        assert_eq!(sites[6].1, 0.5);
        assert_eq!(sites[17].1, 0.0);
        // Times never increase.
        for pair in sites.windows(2) {
            assert!(pair[1].1 <= pair[0].1);
        }
    }
}
