//! Redundancy elimination (§IV.B.1): sensor-instance symmetry and
//! found-bug pruning.
//!
//! * **Sensor-instance symmetry** — the firmware's failure handling
//!   depends on the *role* (primary vs backup) of the failed instances,
//!   not on which physical instance failed. For a sensor with `N`
//!   instances this reduces the `N × (2^N − 1)` instance-level failure
//!   combinations the paper counts to `2N − 1` role-level representatives.
//! * **Found-bug pruning** — once a failure set triggers a bug at a
//!   timestamp, supersets of that failure set at the same timestamp are
//!   skipped: a vehicle that cannot handle one failure is unlikely to
//!   handle that failure plus more.

use avis_hinj::FaultPlan;
use avis_sim::{SensorInstance, SensorKind, SensorRole, SensorSuiteConfig};
use std::collections::BTreeSet;

/// A role-level signature of one scheduled failure: kind, role and
/// millisecond-quantised start time. Backup indices are erased, which is
/// exactly the symmetry the pruning exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoleFailure {
    /// The failed sensor kind.
    pub kind: SensorKind,
    /// The failed instance's role.
    pub role: SensorRole,
    /// Failure start time in integer milliseconds.
    pub time_ms: i64,
}

/// The role-level signature of a complete fault plan (a multiset of
/// [`RoleFailure`]s, kept sorted).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RoleSignature(Vec<RoleFailure>);

impl RoleSignature {
    /// Computes the signature of a fault plan.
    pub fn of(plan: &FaultPlan) -> Self {
        let mut failures: Vec<RoleFailure> = plan
            .specs()
            .map(|s| RoleFailure {
                kind: s.instance.kind,
                role: s.instance.role(),
                time_ms: (s.time * 1000.0).round() as i64,
            })
            .collect();
        failures.sort_unstable();
        RoleSignature(failures)
    }

    /// Whether `self` is a sub-multiset of `other` (every failure in `self`
    /// appears in `other`, respecting multiplicity).
    ///
    /// Both signatures are kept sorted by construction, so this is a
    /// single two-pointer merge walk — no allocation, O(len) — instead of
    /// cloning `other` and position-scanning it per element.
    pub fn is_subset_of(&self, other: &RoleSignature) -> bool {
        if self.0.len() > other.0.len() {
            return false;
        }
        let mut candidates = other.0.iter();
        'next_failure: for failure in &self.0 {
            for candidate in candidates.by_ref() {
                if candidate == failure {
                    continue 'next_failure;
                }
                if candidate > failure {
                    // Both vecs are sorted: once `other` has advanced past
                    // `failure`, no later element can match it.
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// Number of role-level failures in the signature.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the signature is empty (the fault-free run).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Number of instance-level failure combinations for a sensor with `n`
/// redundant instances, as counted by the paper (`N × (2^N − 1)`).
pub fn naive_combination_count(n: u32) -> u64 {
    let subsets = 2u64.pow(n) - 1;
    n as u64 * subsets
}

/// Number of role-level representatives after sensor-instance symmetry
/// (`2N − 1`).
pub fn symmetric_combination_count(n: u32) -> u64 {
    (2 * n - 1) as u64
}

/// Representative instance subsets for one sensor kind under
/// sensor-instance symmetry: fail `k` backups (k = 1..N-1), the primary
/// alone, or the primary plus `k` backups.
pub fn representative_subsets(kind: SensorKind, instances: u8) -> Vec<Vec<SensorInstance>> {
    let mut out = Vec::new();
    if instances == 0 {
        return out;
    }
    let primary = SensorInstance::new(kind, 0);
    // Primary alone.
    out.push(vec![primary]);
    // k backups without the primary, then with the primary.
    for k in 1..instances {
        let backups: Vec<SensorInstance> = (1..=k).map(|i| SensorInstance::new(kind, i)).collect();
        out.push(backups.clone());
        let mut with_primary = vec![primary];
        with_primary.extend(backups);
        out.push(with_primary);
    }
    out
}

/// Candidate failure sets for one injection point, across every sensor
/// kind on the vehicle: all single-kind representative subsets first
/// (primary-only first within each kind), then primary+primary pairs of
/// distinct kinds. This is the concrete instantiation of Algorithm 1's
/// `PowerSet(Failures)` iteration under symmetry pruning and a cap of two
/// simultaneously failed sensor kinds (exhaustive enumeration beyond that
/// is possible but, as the paper notes, prohibitively expensive).
pub fn candidate_failure_sets(config: &SensorSuiteConfig) -> Vec<Vec<SensorInstance>> {
    let mut out = Vec::new();
    for kind in SensorKind::ALL {
        out.extend(representative_subsets(kind, config.instance_count(kind)));
    }
    // Two-kind combinations: primary of each.
    let kinds: Vec<SensorKind> = SensorKind::ALL
        .into_iter()
        .filter(|&k| config.instance_count(k) > 0)
        .collect();
    for i in 0..kinds.len() {
        for j in (i + 1)..kinds.len() {
            out.push(vec![
                SensorInstance::new(kinds[i], 0),
                SensorInstance::new(kinds[j], 0),
            ]);
        }
    }
    out
}

/// Tracks explored scenarios and found bugs to implement `CanPrune`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PruningState {
    explored: BTreeSet<RoleSignature>,
    bug_signatures: Vec<RoleSignature>,
    pruned_symmetry: u64,
    pruned_found_bug: u64,
}

impl PruningState {
    /// Creates empty pruning state.
    pub fn new() -> Self {
        PruningState::default()
    }

    /// An equivalent (role-symmetric) plan was already explored.
    fn symmetry_hit(&self, signature: &RoleSignature) -> bool {
        self.explored.contains(signature)
    }

    /// A known bug-triggering plan is strictly contained in the plan.
    fn found_bug_hit(&self, signature: &RoleSignature) -> bool {
        self.bug_signatures
            .iter()
            .any(|bug| !bug.is_empty() && bug.is_subset_of(signature) && bug != signature)
    }

    /// Returns `true` if the plan should be skipped, either because an
    /// equivalent (role-symmetric) plan was already explored or because a
    /// known bug-triggering plan is contained in it.
    pub fn should_prune(&mut self, plan: &FaultPlan) -> bool {
        let signature = RoleSignature::of(plan);
        if self.symmetry_hit(&signature) {
            self.pruned_symmetry += 1;
            return true;
        }
        if self.found_bug_hit(&signature) {
            self.pruned_found_bug += 1;
            return true;
        }
        false
    }

    /// The non-mutating form of [`PruningState::should_prune`]: the same
    /// two predicates, without touching the counters. Used to revalidate
    /// speculative work — only the authoritative commit-time
    /// `should_prune` call may count a pruned scenario.
    pub fn is_pruned(&self, plan: &FaultPlan) -> bool {
        let signature = RoleSignature::of(plan);
        self.symmetry_hit(&signature) || self.found_bug_hit(&signature)
    }

    /// An estimate, in `0.0..=1.0`, that `plan` will be pruned by commit
    /// time. A plan pruned *now* scores `1.0`. Otherwise the estimate is
    /// the share of the plan's failure timestamps at which some bug has
    /// already triggered: found-bug pruning rejects supersets of bug
    /// signatures at the same timestamps, and sites that have yielded one
    /// bug tend to yield the sibling bugs that complete such supersets —
    /// so plans concentrated on bug-yielding timestamps are the ones
    /// speculation loses on. Deliberately cheap and non-mutating; used by
    /// the engine's speculation admission gate, never by commit-time
    /// control flow.
    pub fn prune_probability(&self, plan: &FaultPlan) -> f64 {
        let signature = RoleSignature::of(plan);
        if self.symmetry_hit(&signature) || self.found_bug_hit(&signature) {
            return 1.0;
        }
        if signature.is_empty() || self.bug_signatures.is_empty() {
            return 0.0;
        }
        let bug_times: BTreeSet<i64> = self
            .bug_signatures
            .iter()
            .flat_map(|bug| bug.0.iter().map(|f| f.time_ms))
            .collect();
        let at_bug_sites = signature
            .0
            .iter()
            .filter(|f| bug_times.contains(&f.time_ms))
            .count();
        at_bug_sites as f64 / signature.0.len() as f64
    }

    /// Records that a plan has been executed.
    pub fn record_explored(&mut self, plan: &FaultPlan) {
        self.explored.insert(RoleSignature::of(plan));
    }

    /// Records that a plan triggered a bug (enables found-bug pruning).
    pub fn record_bug(&mut self, plan: &FaultPlan) {
        self.bug_signatures.push(RoleSignature::of(plan));
    }

    /// Number of distinct role-level scenarios explored.
    pub fn explored_count(&self) -> usize {
        self.explored.len()
    }

    /// Scenarios skipped by instance symmetry / duplicate elimination.
    pub fn symmetry_pruned(&self) -> u64 {
        self.pruned_symmetry
    }

    /// Scenarios skipped by found-bug pruning.
    pub fn found_bug_pruned(&self) -> u64 {
        self.pruned_found_bug
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_hinj::FaultSpec;

    fn plan(specs: &[(SensorKind, u8, f64)]) -> FaultPlan {
        FaultPlan::from_specs(
            specs
                .iter()
                .map(|&(k, i, t)| FaultSpec::new(SensorInstance::new(k, i), t)),
        )
    }

    #[test]
    fn counts_match_paper_example() {
        // Three compasses: 21 naive combinations reduced to 5 (Figure 6).
        assert_eq!(naive_combination_count(3), 21);
        assert_eq!(symmetric_combination_count(3), 5);
        assert_eq!(naive_combination_count(1), 1);
        assert_eq!(symmetric_combination_count(1), 1);
        assert_eq!(symmetric_combination_count(2), 3);
    }

    #[test]
    fn representative_subsets_match_figure_6() {
        let subsets = representative_subsets(SensorKind::Compass, 3);
        assert_eq!(subsets.len(), 5);
        // {P}, {B1}, {P,B1}, {B1,B2}, {P,B1,B2} in some order; check sizes
        // and primary membership.
        let with_primary = subsets
            .iter()
            .filter(|s| s.iter().any(|i| i.index == 0))
            .count();
        assert_eq!(with_primary, 3);
        let sizes: Vec<usize> = subsets.iter().map(|s| s.len()).collect();
        assert!(sizes.contains(&1));
        assert!(sizes.contains(&2));
        assert!(sizes.contains(&3));
    }

    #[test]
    fn candidate_sets_cover_all_kinds_and_pairs() {
        let config = SensorSuiteConfig::iris();
        let candidates = candidate_failure_sets(&config);
        // Single-kind representatives: accel 5, gyro 5, gps 3, baro 3,
        // compass 5, battery 1 = 22. Pairs: C(6,2) = 15. Total 37.
        assert_eq!(candidates.len(), 37);
        // The first candidate for each kind is the primary alone.
        assert!(candidates
            .iter()
            .any(|c| c == &vec![SensorInstance::new(SensorKind::Gps, 0)]));
        // Pairs involve exactly two distinct kinds, primaries only.
        let pairs: Vec<_> = candidates
            .iter()
            .filter(|c| c.len() == 2 && c[0].kind != c[1].kind)
            .collect();
        assert_eq!(pairs.len(), 15);
        assert!(pairs.iter().all(|p| p.iter().all(|i| i.index == 0)));
    }

    #[test]
    fn role_signature_erases_backup_indices() {
        let a = plan(&[(SensorKind::Compass, 1, 5.0)]);
        let b = plan(&[(SensorKind::Compass, 2, 5.0)]);
        assert_eq!(RoleSignature::of(&a), RoleSignature::of(&b));
        let c = plan(&[(SensorKind::Compass, 0, 5.0)]);
        assert_ne!(RoleSignature::of(&a), RoleSignature::of(&c));
        // Different times are different signatures.
        let d = plan(&[(SensorKind::Compass, 1, 6.0)]);
        assert_ne!(RoleSignature::of(&a), RoleSignature::of(&d));
    }

    #[test]
    fn is_pruned_matches_should_prune_without_counting() {
        let mut state = PruningState::new();
        let gps = plan(&[(SensorKind::Gps, 0, 10.0)]);
        assert!(!state.is_pruned(&gps));
        state.record_explored(&gps);
        state.record_bug(&gps);
        let superset = plan(&[(SensorKind::Gps, 0, 10.0), (SensorKind::Barometer, 0, 10.0)]);
        // Both pruning reasons are visible through the non-mutating form...
        assert!(state.is_pruned(&gps));
        assert!(state.is_pruned(&superset));
        assert!(!state.is_pruned(&plan(&[(SensorKind::Compass, 0, 10.0)])));
        // ...and none of the checks above touched the counters.
        assert_eq!(state.symmetry_pruned(), 0);
        assert_eq!(state.found_bug_pruned(), 0);
    }

    #[test]
    fn prune_probability_ranks_doomed_plans_highest() {
        let mut state = PruningState::new();
        let gps10 = plan(&[(SensorKind::Gps, 0, 10.0)]);
        // No pruning knowledge: everything scores zero.
        assert_eq!(state.prune_probability(&gps10), 0.0);
        state.record_explored(&gps10);
        state.record_bug(&gps10);
        // A plan pruned right now scores 1.0 (replay → symmetry hit;
        // superset at the bug's timestamp → found-bug hit).
        assert_eq!(state.prune_probability(&gps10), 1.0);
        let superset = plan(&[(SensorKind::Gps, 0, 10.0), (SensorKind::Barometer, 0, 10.0)]);
        assert_eq!(state.prune_probability(&superset), 1.0);
        // A different sensor at the bug-yielding timestamp: fully
        // concentrated on a bug site, maximal (but not certain) risk.
        let same_site = plan(&[(SensorKind::Compass, 0, 10.0)]);
        assert_eq!(state.prune_probability(&same_site), 1.0);
        assert!(!state.is_pruned(&same_site), "risky is not pruned");
        // Half the failures at a bug site: intermediate.
        let half = plan(&[
            (SensorKind::Compass, 0, 10.0),
            (SensorKind::Compass, 1, 20.0),
        ]);
        assert_eq!(state.prune_probability(&half), 0.5);
        // Nowhere near a bug site: zero.
        let elsewhere = plan(&[(SensorKind::Compass, 0, 20.0)]);
        assert_eq!(state.prune_probability(&elsewhere), 0.0);
        // Probability checks never touch the counters.
        assert_eq!(state.symmetry_pruned(), 0);
        assert_eq!(state.found_bug_pruned(), 0);
    }

    #[test]
    fn symmetry_pruning_skips_equivalent_backup_failures() {
        let mut state = PruningState::new();
        let b1 = plan(&[(SensorKind::Compass, 1, 5.0)]);
        let b2 = plan(&[(SensorKind::Compass, 2, 5.0)]);
        assert!(!state.should_prune(&b1));
        state.record_explored(&b1);
        assert!(
            state.should_prune(&b2),
            "failing B2 is equivalent to failing B1"
        );
        assert_eq!(state.symmetry_pruned(), 1);
        assert_eq!(state.explored_count(), 1);
    }

    #[test]
    fn found_bug_pruning_skips_supersets_at_same_time() {
        let mut state = PruningState::new();
        let single = plan(&[(SensorKind::Gps, 0, 10.0)]);
        state.record_explored(&single);
        state.record_bug(&single);
        // GPS + barometer at the same time: pruned.
        let superset = plan(&[(SensorKind::Gps, 0, 10.0), (SensorKind::Barometer, 0, 10.0)]);
        assert!(state.should_prune(&superset));
        assert_eq!(state.found_bug_pruned(), 1);
        // GPS at a different time plus barometer: not pruned.
        let different_time = plan(&[(SensorKind::Gps, 0, 20.0), (SensorKind::Barometer, 0, 20.0)]);
        assert!(!state.should_prune(&different_time));
        // The bug plan itself (replay) is not pruned by found-bug pruning
        // (it is pruned as already-explored instead).
        assert!(state.should_prune(&single));
        assert_eq!(state.symmetry_pruned(), 1);
    }

    #[test]
    fn two_pointer_subset_matches_naive_reference() {
        use avis_sim::SimRng;

        /// The replaced clone + position-scan implementation, kept as the
        /// oracle.
        fn naive_is_subset_of(a: &RoleSignature, b: &RoleSignature) -> bool {
            let mut remaining = b.0.clone();
            for f in &a.0 {
                match remaining.iter().position(|r| r == f) {
                    Some(idx) => {
                        remaining.swap_remove(idx);
                    }
                    None => return false,
                }
            }
            true
        }

        let mut rng = SimRng::seed_from_u64(77);
        let arb_signature = |rng: &mut SimRng| {
            let len = rng.index(6);
            let specs: Vec<FaultSpec> = (0..len)
                .map(|_| {
                    // A tiny domain so subsets, equalities and
                    // multiplicities all actually occur.
                    let kind = [SensorKind::Gps, SensorKind::Compass][rng.index(2)];
                    let index = rng.index(3) as u8;
                    let time = [5.0, 10.0][rng.index(2)];
                    FaultSpec::new(SensorInstance::new(kind, index), time)
                })
                .collect();
            RoleSignature::of(&FaultPlan::from_specs(specs))
        };
        for case in 0..500 {
            let a = arb_signature(&mut rng);
            let b = arb_signature(&mut rng);
            assert_eq!(
                a.is_subset_of(&b),
                naive_is_subset_of(&a, &b),
                "case {case}: {a:?} ⊆ {b:?} disagreed with the oracle"
            );
            // A signature is always a subset of itself.
            assert!(a.is_subset_of(&a));
        }
    }

    #[test]
    fn subset_check_respects_multiplicity() {
        let one_backup = RoleSignature::of(&plan(&[(SensorKind::Compass, 1, 5.0)]));
        let two_backups = RoleSignature::of(&plan(&[
            (SensorKind::Compass, 1, 5.0),
            (SensorKind::Compass, 2, 5.0),
        ]));
        assert!(one_backup.is_subset_of(&two_backups));
        assert!(!two_backups.is_subset_of(&one_backup));
        assert!(RoleSignature::default().is_subset_of(&one_backup));
        assert_eq!(two_backups.len(), 2);
        assert!(!two_backups.is_empty());
    }
}
