//! SABRE — the stratified breadth-first search over the fault space
//! (Algorithm 1).
//!
//! SABRE anchors fault injection at the operating-mode transitions
//! observed in a profiling run, explores every (symmetry-pruned) failure
//! set at each anchor, re-enqueues the mode transitions of each bug-free
//! result so that *additional* failures can be layered on top in later
//! runs, and finally re-enqueues the anchor one time-increment later so
//! the neighbourhood of each transition is eventually swept.

use crate::pruning::PruningState;
use avis_hinj::{FaultPlan, FaultSpec};
use avis_sim::SensorInstance;
use std::collections::VecDeque;

/// One entry of the transition queue: inject new failures at `timestamp`
/// on top of the failures already present in `base_plan`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueEntry {
    /// The anchored injection time (s).
    pub timestamp: f64,
    /// Failures inherited from the run that produced this anchor.
    pub base_plan: FaultPlan,
}

/// Configuration of the SABRE queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SabreConfig {
    /// Increment applied when re-enqueueing a dequeued anchor (the
    /// "timestamp + 1" of Algorithm 1, in seconds).
    pub time_increment: f64,
    /// Anchors past this time are not enqueued (the workload is over).
    pub horizon: f64,
    /// Upper bound on the queue length (guards against unbounded growth
    /// when the test budget is large).
    pub max_queue: usize,
}

impl Default for SabreConfig {
    fn default() -> Self {
        SabreConfig {
            time_increment: 1.0,
            horizon: 150.0,
            max_queue: 4096,
        }
    }
}

/// The SABRE scheduler state: the transition queue plus the pruning state.
#[derive(Debug, Clone)]
pub struct SabreQueue {
    config: SabreConfig,
    queue: VecDeque<QueueEntry>,
    pruning: PruningState,
    dequeued: u64,
}

impl SabreQueue {
    /// Initialises the queue from the mode-transition times of the
    /// profiling run (Line 1 of Algorithm 1).
    pub fn new(profile_transition_times: &[f64], config: SabreConfig) -> Self {
        let mut queue = VecDeque::new();
        for &t in profile_transition_times {
            if t <= config.horizon {
                queue.push_back(QueueEntry {
                    timestamp: t,
                    base_plan: FaultPlan::empty(),
                });
            }
        }
        SabreQueue {
            config,
            queue,
            pruning: PruningState::new(),
            dequeued: 0,
        }
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &SabreConfig {
        &self.config
    }

    /// Whether any anchors remain.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Current queue length.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Number of anchors dequeued so far.
    pub fn dequeued(&self) -> u64 {
        self.dequeued
    }

    /// Access to the pruning state (for statistics).
    pub fn pruning(&self) -> &PruningState {
        &self.pruning
    }

    /// Dequeues the next anchor (Line 4) and immediately re-enqueues it one
    /// time increment later (Line 20), bounded by the horizon.
    pub fn next_anchor(&mut self) -> Option<QueueEntry> {
        let entry = self.queue.pop_front()?;
        self.dequeued += 1;
        let shifted = entry.timestamp + self.config.time_increment;
        if shifted <= self.config.horizon && self.queue.len() < self.config.max_queue {
            self.queue.push_back(QueueEntry {
                timestamp: shifted,
                base_plan: entry.base_plan.clone(),
            });
        }
        Some(entry)
    }

    /// Builds the concrete (not yet pruned) plan for injecting
    /// `failure_set` at the anchor: the anchor's inherited failures plus
    /// one failure per instance at the anchor timestamp. This is the plan
    /// [`SabreQueue::plan_for`] submits to pruning; the parallel engine
    /// uses it to speculate without touching the real pruning state.
    pub fn assemble_plan(anchor: &QueueEntry, failure_set: &[SensorInstance]) -> FaultPlan {
        let mut plan = anchor.base_plan.clone();
        for &instance in failure_set {
            plan.add(FaultSpec::new(instance, anchor.timestamp));
        }
        plan
    }

    /// Builds the concrete plan for injecting `failure_set` at the anchor,
    /// returning `None` if pruning rejects it (Lines 6–9).
    pub fn plan_for(
        &mut self,
        anchor: &QueueEntry,
        failure_set: &[SensorInstance],
    ) -> Option<FaultPlan> {
        let plan = Self::assemble_plan(anchor, failure_set);
        if self.pruning.should_prune(&plan) {
            return None;
        }
        self.pruning.record_explored(&plan);
        Some(plan)
    }

    /// Records a bug-free result: every mode transition of the run becomes
    /// a new anchor carrying the run's failures (Lines 11–14).
    pub fn record_ok(&mut self, plan: &FaultPlan, mode_transition_times: &[f64]) {
        for &t in mode_transition_times {
            if t > self.config.horizon || self.queue.len() >= self.config.max_queue {
                continue;
            }
            self.queue.push_back(QueueEntry {
                timestamp: t,
                base_plan: plan.clone(),
            });
        }
    }

    /// Records a bug-triggering result (Lines 16–17): enables found-bug
    /// pruning for supersets of this plan.
    pub fn record_bug(&mut self, plan: &FaultPlan) {
        self.pruning.record_bug(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_sim::SensorKind;

    fn gps(i: u8) -> SensorInstance {
        SensorInstance::new(SensorKind::Gps, i)
    }
    fn baro(i: u8) -> SensorInstance {
        SensorInstance::new(SensorKind::Barometer, i)
    }

    #[test]
    fn initial_queue_holds_profile_transitions_in_order() {
        let mut q = SabreQueue::new(&[2.0, 10.0, 40.0], SabreConfig::default());
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_anchor().unwrap().timestamp, 2.0);
        assert_eq!(q.next_anchor().unwrap().timestamp, 10.0);
        assert_eq!(q.next_anchor().unwrap().timestamp, 40.0);
        // Re-enqueued shifted anchors follow.
        assert_eq!(q.next_anchor().unwrap().timestamp, 3.0);
        assert_eq!(q.dequeued(), 4);
    }

    #[test]
    fn horizon_limits_requeueing() {
        let config = SabreConfig {
            time_increment: 1.0,
            horizon: 5.0,
            ..Default::default()
        };
        let mut q = SabreQueue::new(&[4.5, 9.0], config);
        // 9.0 exceeds the horizon and is dropped at construction.
        assert_eq!(q.len(), 1);
        let a = q.next_anchor().unwrap();
        assert_eq!(a.timestamp, 4.5);
        // 5.5 > horizon: not re-enqueued.
        assert!(q.is_empty());
    }

    #[test]
    fn plan_for_applies_pruning() {
        let mut q = SabreQueue::new(&[2.0], SabreConfig::default());
        let anchor = q.next_anchor().unwrap();
        let p1 = q.plan_for(&anchor, &[gps(0)]);
        assert!(p1.is_some());
        // The same role-level scenario again: pruned.
        let p2 = q.plan_for(&anchor, &[gps(0)]);
        assert!(p2.is_none());
        // Backup symmetry: failing backup 1 vs backup 1 again.
        assert!(q.plan_for(&anchor, &[gps(1)]).is_some());
        assert!(q.plan_for(&anchor, &[gps(1)]).is_none());
        assert!(q.pruning().symmetry_pruned() >= 2);
    }

    #[test]
    fn found_bug_pruning_applies_to_supersets() {
        let mut q = SabreQueue::new(&[2.0], SabreConfig::default());
        let anchor = q.next_anchor().unwrap();
        let bug_plan = q.plan_for(&anchor, &[gps(0)]).unwrap();
        q.record_bug(&bug_plan);
        assert!(q.plan_for(&anchor, &[gps(0), baro(0)]).is_none());
        assert_eq!(q.pruning().found_bug_pruned(), 1);
    }

    #[test]
    fn ok_results_seed_layered_anchors() {
        let mut q = SabreQueue::new(&[2.0], SabreConfig::default());
        let anchor = q.next_anchor().unwrap();
        let plan = q.plan_for(&anchor, &[gps(0)]).unwrap();
        q.record_ok(&plan, &[2.0, 10.0, 40.0]);
        // The queue now holds: the shifted original anchor plus three new
        // anchors carrying the GPS failure.
        assert_eq!(q.len(), 4);
        let shifted = q.next_anchor().unwrap();
        assert!(shifted.base_plan.is_empty());
        let layered = q.next_anchor().unwrap();
        assert_eq!(layered.base_plan.len(), 1);
        // Layering a barometer failure on top of the inherited GPS failure.
        let combo = q.plan_for(&layered, &[baro(0)]).unwrap();
        assert_eq!(combo.len(), 2);
    }

    #[test]
    fn queue_growth_is_bounded() {
        let config = SabreConfig {
            max_queue: 5,
            ..Default::default()
        };
        let mut q = SabreQueue::new(&[1.0, 2.0, 3.0], config);
        let anchor = q.next_anchor().unwrap();
        let plan = q.plan_for(&anchor, &[gps(0)]).unwrap();
        q.record_ok(&plan, &[1.0; 100]);
        assert!(q.len() <= 5);
    }
}
