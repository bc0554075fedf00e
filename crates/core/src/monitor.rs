//! The invariant monitor: safety and liveliness checking (§IV.C).
//!
//! * **Safety** — the UAV must not collide with an obstacle (or the
//!   ground at speed). Collisions are detected by the simulator and
//!   surfaced through the trace.
//! * **Liveliness** — the UAV must keep making progress toward its goal.
//!   Liveliness is checked by comparing the test run against a set of
//!   fault-free *profiling runs*: the state tuple `(P, α, M)` at the same
//!   time offset is compared using normalized distances (positions and
//!   accelerations scaled onto the mode-graph diameter, modes compared by
//!   shortest-path distance in the observed mode graph), and a violation
//!   is reported when the test state is farther from *every* profiling run
//!   than the largest distance `τ` ever observed between profiling runs
//!   (Equation 1).
//!
//! Safe modes (landing, return-to-launch, brake) are exempt from the
//! liveliness comparison but carry their own progress invariants, exactly
//! as the paper allows safety to be preserved at the expense of liveliness.
//!
//! The check is Equation 1 as written. Calibration takes `P̄`, `Ā` and `τ`
//! as plain maxima over every pair of profiling runs at every step; the
//! mode graph computes its all-pairs distances once, when it is built. Per
//! sample, the check probes time offsets outward from 0 and stops at the
//! first profiling sample within the threshold, so only a violating
//! sample pays for the exact minimum over the whole window.

use crate::trace::{StateSample, Trace};
use avis_firmware::OperatingMode;
use avis_hinj::ModeCode;
use avis_sim::Vec3;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// The operating modes observed in profiling runs and the shortest-path
/// distances between them, over the directed graph of observed mode
/// transitions. Every pairwise distance is computed once, at
/// construction, so [`ModeGraph::distance`] is a lookup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModeGraph {
    /// Sorted mode codes: the row and column order of `distances`.
    nodes: Vec<ModeCode>,
    /// Row-major `nodes.len() × nodes.len()` distance matrix.
    distances: Vec<f64>,
    /// The longest shortest path, at least 1.
    diameter: f64,
}

impl Default for ModeGraph {
    fn default() -> Self {
        ModeGraph::from_traces(std::iter::empty())
    }
}

type Edges = BTreeMap<ModeCode, BTreeSet<ModeCode>>;

impl ModeGraph {
    /// Builds the mode graph from the transitions observed in traces.
    pub fn from_traces<'a, I: IntoIterator<Item = &'a Trace>>(traces: I) -> Self {
        let mut nodes = BTreeSet::new();
        let mut edges = Edges::new();
        for trace in traces {
            let mut prev: Option<ModeCode> = None;
            for tr in &trace.mode_transitions {
                let code = tr.mode.code();
                nodes.insert(code);
                if let Some(p) = prev {
                    if p != code {
                        edges.entry(p).or_default().insert(code);
                    }
                }
                prev = Some(code);
            }
        }
        // A directed path where one exists, else an undirected one, else
        // none (the pair is then `diameter + 1` apart).
        let nodes: Vec<ModeCode> = nodes.into_iter().collect();
        let hops: Vec<Option<usize>> = nodes
            .iter()
            .flat_map(|&a| nodes.iter().map(move |&b| (a, b)))
            .map(|(a, b)| bfs(&edges, a, b, false).or_else(|| bfs(&edges, a, b, true)))
            .collect();
        let diameter = hops.iter().flatten().fold(1, |best, &d| best.max(d)) as f64;
        let distances = hops
            .iter()
            .map(|hop| hop.map_or(diameter + 1.0, |d| d as f64))
            .collect();
        ModeGraph {
            nodes,
            distances,
            diameter,
        }
    }

    /// Number of modes in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Shortest directed path length between two modes, treating the graph
    /// as undirected for distance purposes when no directed path exists,
    /// and falling back to the diameter + 1 when the modes are not
    /// connected at all. Unknown modes are treated as maximally distant.
    pub fn distance(&self, from: ModeCode, to: ModeCode) -> f64 {
        if from == to {
            return 0.0;
        }
        match (
            self.nodes.binary_search(&from),
            self.nodes.binary_search(&to),
        ) {
            (Ok(i), Ok(j)) => self.distances[i * self.nodes.len() + j],
            _ => self.diameter + 1.0,
        }
    }

    /// The length of the longest shortest-path in the graph (`D` in the
    /// paper's normalization), at least 1.
    pub fn diameter(&self) -> f64 {
        self.diameter
    }
}

/// Breadth-first path length from `from` to `to` over `edges`, following
/// edges in both directions when `undirected`.
fn bfs(edges: &Edges, from: ModeCode, to: ModeCode, undirected: bool) -> Option<usize> {
    let mut visited = BTreeSet::new();
    let mut queue = VecDeque::new();
    queue.push_back((from, 0usize));
    visited.insert(from);
    while let Some((node, dist)) = queue.pop_front() {
        if node == to {
            return Some(dist);
        }
        let forward = edges.get(&node).into_iter().flatten().copied();
        let backward = edges
            .iter()
            .filter(|(_, dsts)| undirected && dsts.contains(&node))
            .map(|(&src, _)| src);
        for next in forward.chain(backward) {
            if visited.insert(next) {
                queue.push_back((next, dist + 1));
            }
        }
    }
    None
}

/// Why a run was flagged as unsafe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// Safety violation: physical collision.
    Collision {
        /// Impact speed (m/s).
        impact_speed: f64,
    },
    /// Liveliness violation: the run diverged from every profiling run.
    LivelinessDivergence {
        /// The normalized distance to the closest profiling run.
        distance: f64,
        /// The threshold `τ` that was exceeded.
        threshold: f64,
    },
    /// A safe mode failed its own progress invariant (e.g. RTL moving away
    /// from home, Land climbing).
    SafeModeStalled {
        /// The safe mode that stalled.
        mode: String,
    },
    /// Protocol violation: the vehicle disarmed (or rebooted) in the air.
    InAirDisarm {
        /// Last telemetered altitude before the disarm (m).
        altitude: f64,
    },
    /// Protocol violation: a GCS command was never acknowledged within
    /// the liveness window.
    CommandAckTimeout {
        /// Display name of the unacknowledged command.
        command: String,
        /// The liveness window that elapsed (s).
        window: f64,
    },
    /// Protocol violation: after an accepted upload, the mission stored
    /// on the vehicle differs from the one the workload sent.
    MissionAliasing {
        /// Items the workload sent.
        expected_items: usize,
        /// Items that match on the vehicle.
        matching_items: usize,
    },
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::Collision { impact_speed } => {
                write!(f, "collision at {impact_speed:.1} m/s")
            }
            ViolationKind::LivelinessDivergence {
                distance,
                threshold,
            } => {
                write!(
                    f,
                    "liveliness divergence ({distance:.2} > τ={threshold:.2})"
                )
            }
            ViolationKind::SafeModeStalled { mode } => write!(f, "safe mode {mode} stalled"),
            ViolationKind::InAirDisarm { altitude } => {
                write!(f, "in-air disarm at {altitude:.1} m")
            }
            ViolationKind::CommandAckTimeout { command, window } => {
                write!(f, "{command} unacknowledged for {window:.1} s")
            }
            ViolationKind::MissionAliasing {
                expected_items,
                matching_items,
            } => {
                write!(
                    f,
                    "mission aliasing: {matching_items}/{expected_items} items match after accepted upload"
                )
            }
        }
    }
}

/// An unsafe condition detected by the monitor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// What was violated.
    pub kind: ViolationKind,
    /// Time within the run at which the violation was detected (s).
    pub time: f64,
    /// Operating mode at the time of the violation.
    pub mode: OperatingMode,
}

/// Monitor configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Multiplier applied to the profiling-derived threshold `τ`; values
    /// above 1 add safety margin against false positives.
    pub tolerance_factor: f64,
    /// Floor for the position normalization constant `P̄` (m).
    pub min_position_scale: f64,
    /// Floor for the acceleration normalization constant `Ā` (m/s²).
    pub min_acceleration_scale: f64,
    /// Window over which safe-mode progress is evaluated (s).
    pub progress_window: f64,
    /// Minimum altitude loss (Land) or approach (RTL) expected over the
    /// progress window (m).
    pub min_progress: f64,
    /// Grace period after entering a safe mode before progress is required (s).
    pub safe_mode_grace: f64,
    /// Half-width of the time window (s) within which a test sample may be
    /// matched against profiling samples. Mode transitions shift by a
    /// fraction of a second between otherwise-identical runs (scheduler
    /// and sensor-noise nondeterminism, §IV.C.2); comparing against the
    /// nearest profiling sample within this window keeps those benign
    /// timing shifts from registering as divergence.
    pub time_window: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            tolerance_factor: 2.0,
            min_position_scale: 1.0,
            min_acceleration_scale: 0.5,
            progress_window: 6.0,
            min_progress: 0.5,
            safe_mode_grace: 8.0,
            time_window: 2.0,
        }
    }
}

/// The invariant monitor, calibrated from fault-free profiling runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvariantMonitor {
    config: MonitorConfig,
    profiling: Vec<Trace>,
    mode_graph: ModeGraph,
    position_scale: f64,
    acceleration_scale: f64,
    /// The calibrated threshold `τ` (before the tolerance factor).
    tau: f64,
    /// Common duration of the profiling runs (s).
    duration: f64,
    home: Vec3,
}

impl InvariantMonitor {
    /// Calibrates a monitor from fault-free profiling runs.
    ///
    /// # Panics
    ///
    /// Panics if `profiling` is empty.
    pub fn calibrate(profiling: Vec<Trace>, config: MonitorConfig) -> Self {
        assert!(
            !profiling.is_empty(),
            "at least one profiling run is required"
        );
        let mode_graph = ModeGraph::from_traces(profiling.iter());
        let duration = profiling.iter().map(|t| t.duration).fold(0.0, f64::max);
        let sample_interval = profiling[0].sample_interval;
        let steps = (duration / sample_interval).ceil() as usize;
        // Each run's samples at every step offset (clamped past its end,
        // like `sample_at`); a sample-less run has none, so every pair
        // involving it is skipped.
        let aligned: Vec<Vec<StateSample>> = profiling
            .iter()
            .map(|run| {
                (0..=steps)
                    .filter_map(|k| run.sample_at(k as f64 * sample_interval).copied())
                    .collect()
            })
            .collect();

        // Normalization constants P̄ and Ā: the largest pairwise distance at
        // the same time offset between any two profiling runs.
        let mut position_scale = config.min_position_scale;
        let mut acceleration_scale = config.min_acceleration_scale;
        for (a, b) in aligned_pairs(&aligned) {
            position_scale = position_scale.max(a.position.distance(b.position));
            acceleration_scale = acceleration_scale.max(a.acceleration.distance(b.acceleration));
        }

        let home = profiling[0]
            .samples
            .first()
            .map(|s| Vec3::new(s.position.x, s.position.y, 0.0))
            .unwrap_or(Vec3::ZERO);

        let mut monitor = InvariantMonitor {
            config,
            profiling,
            mode_graph,
            position_scale,
            acceleration_scale,
            tau: 0.0,
            duration,
            home,
        };

        // τ: the largest distance between any two profiling runs at the
        // same time offset.
        let tau = aligned_pairs(&aligned)
            .map(|(a, b)| monitor.state_distance(a, b))
            .fold(0.0, f64::max);
        // With a single profiling run (or perfectly identical runs) τ would
        // be zero; fall back to one mode-graph hop as the minimum
        // meaningful deviation.
        monitor.tau = if tau > 1e-9 { tau } else { 1.0 };
        monitor
    }

    /// The calibrated threshold `τ`.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The observed mode graph.
    pub fn mode_graph(&self) -> &ModeGraph {
        &self.mode_graph
    }

    /// The fault-free profiling runs the monitor was calibrated from.
    pub fn profiling(&self) -> &[Trace] {
        &self.profiling
    }

    /// The normalization constants `(P̄, Ā, D)`.
    pub fn normalization(&self) -> (f64, f64, f64) {
        (
            self.position_scale,
            self.acceleration_scale,
            self.mode_graph.diameter(),
        )
    }

    /// The normalized distance between two state tuples (the `d(S_i, S_j)`
    /// of §IV.C.2).
    pub fn state_distance(&self, a: &StateSample, b: &StateSample) -> f64 {
        let diameter = self.mode_graph.diameter();
        let dp = a.position.distance(b.position) * diameter / self.position_scale;
        let da = a.acceleration.distance(b.acceleration) * diameter / self.acceleration_scale;
        let dm = self.mode_graph.distance(a.mode.code(), b.mode.code());
        (dp * dp + da * da + dm * dm).sqrt()
    }

    /// Equation 1 for one sample: `None` when some profiling sample within
    /// the time window lies within `threshold`, otherwise the smallest
    /// distance to any of them (infinite when none exists). Offsets are
    /// probed outward from 0, where the nearest reference almost always
    /// sits, so a conforming sample returns after a handful of distances
    /// and only a violating one scans the whole window.
    fn divergence(
        &self,
        sample: &StateSample,
        threshold: f64,
        interval: f64,
        window: i64,
    ) -> Option<f64> {
        let mut min_distance = f64::INFINITY;
        for step in 0..=window {
            for offset in [step, -step] {
                let t = sample.time + offset as f64 * interval;
                if t < 0.0 {
                    continue;
                }
                for reference_run in &self.profiling {
                    if let Some(reference) = reference_run.sample_at(t) {
                        let distance = self.state_distance(sample, reference);
                        if distance <= threshold {
                            return None;
                        }
                        min_distance = min_distance.min(distance);
                    }
                }
                if step == 0 {
                    break; // +0 and -0 are the same probe
                }
            }
        }
        Some(min_distance)
    }

    /// Checks a test run against the calibrated invariants and returns the
    /// violations found (empty when the run is safe and live).
    pub fn check(&self, trace: &Trace) -> Vec<Violation> {
        let mut violations = Vec::new();

        // Safety: physical collision.
        if let Some(collision) = trace.collision {
            let time = trace
                .samples
                .iter()
                .find(|s| s.position.distance(collision.position) < 1.0)
                .map(|s| s.time)
                .unwrap_or(trace.duration);
            violations.push(Violation {
                kind: ViolationKind::Collision {
                    impact_speed: collision.impact_speed,
                },
                time,
                mode: trace.mode_at(time).unwrap_or(OperatingMode::Crashed),
            });
        }

        // Liveliness (Equation 1) for non-safe modes; progress invariants
        // for safe modes. The check stops at the first violation.
        let threshold = self.tau * self.config.tolerance_factor;
        let interval = self.profiling[0].sample_interval.max(1e-6);
        let window_steps = (self.config.time_window / interval).round() as i64;
        let mut safe_mode_entry: Option<(OperatingMode, f64)> = None;
        for sample in &trace.samples {
            if sample.time > self.duration {
                break;
            }
            let mode = sample.mode;
            if mode.is_safe_mode() {
                let entry = match safe_mode_entry {
                    Some((m, t)) if m == mode => t,
                    _ => {
                        safe_mode_entry = Some((mode, sample.time));
                        sample.time
                    }
                };
                if let Some(v) = self.check_safe_mode_progress(trace, mode, entry, sample) {
                    violations.push(v);
                    break;
                }
                continue;
            }
            safe_mode_entry = None;
            let divergence = self.divergence(sample, threshold, interval, window_steps);
            if let Some(distance) = divergence.filter(|d| d.is_finite()) {
                violations.push(Violation {
                    kind: ViolationKind::LivelinessDivergence {
                        distance,
                        threshold,
                    },
                    time: sample.time,
                    mode,
                });
                break;
            }
        }

        // Protocol invariants: anomalies the runner's link tracker
        // recorded map one-to-one onto violations. Appended after the
        // physical checks so sensor-only campaigns (whose traces carry no
        // protocol events) see byte-identical output.
        for event in &trace.protocol {
            let kind = match &event.kind {
                crate::trace::ProtocolEventKind::InAirDisarm { altitude } => {
                    ViolationKind::InAirDisarm {
                        altitude: *altitude,
                    }
                }
                crate::trace::ProtocolEventKind::AckTimeout {
                    command, window, ..
                } => ViolationKind::CommandAckTimeout {
                    command: command.clone(),
                    window: *window,
                },
                crate::trace::ProtocolEventKind::MissionAliasing {
                    expected_items,
                    matching_items,
                } => ViolationKind::MissionAliasing {
                    expected_items: *expected_items,
                    matching_items: *matching_items,
                },
            };
            violations.push(Violation {
                kind,
                time: event.time,
                mode: trace
                    .mode_at(event.time)
                    .unwrap_or(OperatingMode::PreFlight),
            });
        }

        violations
    }

    /// Progress invariant for safe modes — landing must keep descending,
    /// return-to-launch must keep approaching home (or descending once
    /// above it).
    fn check_safe_mode_progress(
        &self,
        trace: &Trace,
        mode: OperatingMode,
        entered_at: f64,
        sample: &StateSample,
    ) -> Option<Violation> {
        let cfg = &self.config;
        if sample.time - entered_at < cfg.safe_mode_grace {
            return None;
        }
        let earlier = trace.sample_at(sample.time - cfg.progress_window)?;
        // Only compare windows fully inside the same safe-mode stretch.
        if earlier.time < entered_at {
            return None;
        }
        let descended = earlier.position.z - sample.position.z;
        let on_ground = sample.position.z < 0.5;
        match mode {
            OperatingMode::Land | OperatingMode::Brake => {
                if on_ground || descended >= cfg.min_progress {
                    None
                } else {
                    Some(Violation {
                        kind: ViolationKind::SafeModeStalled { mode: mode.name() },
                        time: sample.time,
                        mode,
                    })
                }
            }
            OperatingMode::ReturnToLaunch => {
                let approach = earlier.position.horizontal_distance(self.home)
                    - sample.position.horizontal_distance(self.home);
                let near_home = sample.position.horizontal_distance(self.home) < 3.0;
                if on_ground
                    || near_home
                    || approach >= cfg.min_progress
                    || descended >= cfg.min_progress
                {
                    None
                } else {
                    Some(Violation {
                        kind: ViolationKind::SafeModeStalled { mode: mode.name() },
                        time: sample.time,
                        mode,
                    })
                }
            }
            _ => None,
        }
    }
}

/// Every pair of same-offset samples from two distinct profiling runs, in
/// run-pair order.
fn aligned_pairs(
    aligned: &[Vec<StateSample>],
) -> impl Iterator<Item = (&StateSample, &StateSample)> {
    (0..aligned.len()).flat_map(move |i| {
        ((i + 1)..aligned.len()).flat_map(move |j| aligned[i].iter().zip(&aligned[j]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ModeTransition;
    use avis_workload::WorkloadStatus;

    fn sample(t: f64, pos: Vec3, mode: OperatingMode) -> StateSample {
        StateSample {
            time: t,
            position: pos,
            acceleration: Vec3::ZERO,
            mode,
        }
    }

    /// Builds a synthetic "mission-like" trace: climb, cruise east, land.
    fn synthetic_run(offset: f64) -> Trace {
        let mut samples = Vec::new();
        let mut transitions = vec![ModeTransition {
            time: 0.0,
            mode: OperatingMode::PreFlight,
        }];
        let dt = 0.5;
        let mut mode = OperatingMode::PreFlight;
        for k in 0..200 {
            let t = k as f64 * dt;
            let (pos, new_mode) = if t < 2.0 {
                (Vec3::new(offset, 0.0, 0.0), OperatingMode::PreFlight)
            } else if t < 12.0 {
                (
                    Vec3::new(offset, 0.0, (t - 2.0) * 2.0),
                    OperatingMode::Takeoff,
                )
            } else if t < 40.0 {
                (
                    Vec3::new(offset + (t - 12.0) * 1.0, 0.0, 20.0),
                    OperatingMode::Auto { leg: 1 },
                )
            } else if t < 70.0 {
                (
                    Vec3::new(offset + 28.0, 0.0, (20.0 - (t - 40.0) * 0.7).max(0.0)),
                    OperatingMode::Land,
                )
            } else {
                (Vec3::new(offset + 28.0, 0.0, 0.0), OperatingMode::PreFlight)
            };
            if new_mode != mode {
                transitions.push(ModeTransition {
                    time: t,
                    mode: new_mode,
                });
                mode = new_mode;
            }
            samples.push(sample(t, pos, mode));
        }
        Trace {
            sample_interval: dt,
            samples,
            mode_transitions: transitions,
            collision: None,
            fence_violations: 0,
            workload_status: WorkloadStatus::Passed,
            duration: 100.0,
            protocol: Vec::new(),
        }
    }

    fn calibrated_monitor() -> InvariantMonitor {
        let profiling = vec![synthetic_run(0.0), synthetic_run(0.4), synthetic_run(-0.3)];
        InvariantMonitor::calibrate(profiling, MonitorConfig::default())
    }

    #[test]
    fn mode_graph_distances() {
        let trace = synthetic_run(0.0);
        let graph = ModeGraph::from_traces([&trace]);
        assert_eq!(graph.node_count(), 4);
        let pre = OperatingMode::PreFlight.code();
        let takeoff = OperatingMode::Takeoff.code();
        let auto = OperatingMode::Auto { leg: 1 }.code();
        let land = OperatingMode::Land.code();
        assert_eq!(graph.distance(pre, pre), 0.0);
        assert_eq!(graph.distance(pre, takeoff), 1.0);
        assert_eq!(graph.distance(pre, auto), 2.0);
        assert_eq!(graph.distance(pre, land), 3.0);
        // Unknown modes are maximally distant.
        assert!(graph.distance(pre, OperatingMode::PosHold.code()) > graph.diameter());
        assert!(graph.diameter() >= 3.0);
    }

    #[test]
    fn mode_graph_falls_back_to_undirected_paths() {
        let trace = synthetic_run(0.0);
        let graph = ModeGraph::from_traces([&trace]);
        // There is no directed path from Land back to PreFlight start node
        // except the recorded transition Land -> PreFlight; check reverse
        // direction uses the undirected fallback rather than "unreachable".
        let land = OperatingMode::Land.code();
        let takeoff = OperatingMode::Takeoff.code();
        let d = graph.distance(land, takeoff);
        assert!(d <= graph.diameter() + 1.0);
        assert!(d > 0.0);
    }

    #[test]
    fn calibration_produces_positive_tau_and_scales() {
        let monitor = calibrated_monitor();
        assert!(monitor.tau() > 0.0);
        let (p, a, d) = monitor.normalization();
        assert!(p >= 0.7, "position scale includes the 0.7 m offsets: {p}");
        assert!(a >= 0.5);
        assert!(d >= 3.0);
    }

    #[test]
    fn profiling_runs_check_clean_against_each_other() {
        let monitor = calibrated_monitor();
        for run in [synthetic_run(0.2), synthetic_run(-0.2)] {
            assert!(
                monitor.check(&run).is_empty(),
                "a near-profiling run must not be flagged"
            );
        }
    }

    #[test]
    fn collision_reported_as_safety_violation() {
        let monitor = calibrated_monitor();
        let mut run = synthetic_run(0.0);
        run.collision = Some(avis_sim::Collision {
            kind: avis_sim::CollisionKind::Ground,
            impact_speed: 4.2,
            position: Vec3::new(10.0, 0.0, 0.0),
        });
        let violations = monitor.check(&run);
        assert!(violations.iter().any(
            |v| matches!(v.kind, ViolationKind::Collision { impact_speed } if impact_speed > 4.0)
        ));
    }

    #[test]
    fn fly_away_reported_as_liveliness_violation() {
        let monitor = calibrated_monitor();
        let mut run = synthetic_run(0.0);
        // From t = 20 s the vehicle departs sideways at 5 m/s instead of
        // following the mission (and never enters a safe mode).
        for s in run.samples.iter_mut().filter(|s| s.time >= 20.0) {
            s.position.y = (s.time - 20.0) * 5.0;
            s.mode = OperatingMode::Auto { leg: 1 };
        }
        run.mode_transitions.retain(|t| t.time < 20.0);
        let violations = monitor.check(&run);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::LivelinessDivergence { .. })),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn safe_mode_exempts_liveliness_but_requires_progress() {
        let monitor = calibrated_monitor();
        // A run that diverges from the mission but is descending in Land
        // mode: allowed (safety preserved at the expense of liveliness).
        let mut diverted = synthetic_run(0.0);
        for s in diverted.samples.iter_mut().filter(|s| s.time >= 20.0) {
            let dt = s.time - 20.0;
            s.position = Vec3::new(40.0, 10.0, (20.0 - dt * 0.7).max(0.0));
            s.mode = OperatingMode::Land;
        }
        assert!(
            monitor.check(&diverted).is_empty(),
            "a diverted but correctly landing vehicle is not unsafe"
        );

        // The same divergence but hovering in Land mode forever: stalled.
        let mut stalled = synthetic_run(0.0);
        for s in stalled.samples.iter_mut().filter(|s| s.time >= 20.0) {
            s.position = Vec3::new(40.0, 10.0, 20.0);
            s.mode = OperatingMode::Land;
        }
        let violations = monitor.check(&stalled);
        assert!(violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::SafeModeStalled { .. })));
    }

    #[test]
    fn rtl_flying_away_from_home_is_flagged() {
        let monitor = calibrated_monitor();
        let mut run = synthetic_run(0.0);
        for s in run.samples.iter_mut().filter(|s| s.time >= 20.0) {
            let dt = s.time - 20.0;
            s.position = Vec3::new(8.0 + dt * 4.0, 0.0, 20.0);
            s.mode = OperatingMode::ReturnToLaunch;
        }
        let violations = monitor.check(&run);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::SafeModeStalled { .. })),
            "an RTL that departs from home must be flagged: {violations:?}"
        );
    }

    #[test]
    fn takeoff_failure_is_a_liveliness_violation() {
        let monitor = calibrated_monitor();
        let mut run = synthetic_run(0.0);
        // The vehicle never climbs above 1.5 m.
        for s in run.samples.iter_mut() {
            s.position.z = s.position.z.min(1.5);
            if s.time >= 2.0 && s.time < 70.0 {
                s.mode = OperatingMode::Takeoff;
            }
        }
        let violations = monitor.check(&run);
        assert!(violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::LivelinessDivergence { .. })));
    }

    #[test]
    #[should_panic(expected = "at least one profiling run")]
    fn calibrate_requires_profiling_runs() {
        let _ = InvariantMonitor::calibrate(Vec::new(), MonitorConfig::default());
    }

    #[test]
    fn calibrate_tolerates_sample_less_profiling_runs() {
        // A degenerate but previously-accepted input: profiling traces
        // with no samples. Calibration must not panic and the check must
        // keep reporting nothing, reference-free.
        let empty = Trace {
            sample_interval: 0.5,
            samples: Vec::new(),
            mode_transitions: Vec::new(),
            collision: None,
            fence_violations: 0,
            workload_status: WorkloadStatus::Passed,
            duration: 10.0,
            protocol: Vec::new(),
        };
        let monitor = InvariantMonitor::calibrate(vec![empty], MonitorConfig::default());
        let run = synthetic_run(0.0);
        assert_eq!(monitor.check(&run), brute_force_check(&monitor, &run));
        assert!(monitor.check(&run).is_empty());
    }

    /// The reference scan: Eq. 1 as a straight `runs × window` minimum
    /// per sample, with no early exit.
    fn brute_force_check(monitor: &InvariantMonitor, trace: &Trace) -> Vec<Violation> {
        let mut violations = Vec::new();
        if let Some(collision) = trace.collision {
            let time = trace
                .samples
                .iter()
                .find(|s| s.position.distance(collision.position) < 1.0)
                .map(|s| s.time)
                .unwrap_or(trace.duration);
            violations.push(Violation {
                kind: ViolationKind::Collision {
                    impact_speed: collision.impact_speed,
                },
                time,
                mode: trace.mode_at(time).unwrap_or(OperatingMode::Crashed),
            });
        }
        let threshold = monitor.tau * monitor.config.tolerance_factor;
        let mut safe_mode_entry: Option<(OperatingMode, f64)> = None;
        for sample in &trace.samples {
            if sample.time > monitor.duration {
                break;
            }
            let mode = sample.mode;
            if mode.is_safe_mode() {
                let entry = match safe_mode_entry {
                    Some((m, t)) if m == mode => t,
                    _ => {
                        safe_mode_entry = Some((mode, sample.time));
                        sample.time
                    }
                };
                if let Some(v) = monitor.check_safe_mode_progress(trace, mode, entry, sample) {
                    violations.push(v);
                    break;
                }
                continue;
            }
            safe_mode_entry = None;
            let interval = monitor.profiling[0].sample_interval.max(1e-6);
            let window_steps = (monitor.config.time_window / interval).round() as i64;
            let mut min_distance = f64::INFINITY;
            for reference_run in &monitor.profiling {
                for offset in -window_steps..=window_steps {
                    let t = sample.time + offset as f64 * interval;
                    if t < 0.0 {
                        continue;
                    }
                    if let Some(reference) = reference_run.sample_at(t) {
                        min_distance = min_distance.min(monitor.state_distance(sample, reference));
                    }
                }
            }
            if min_distance.is_finite() && min_distance > threshold {
                violations.push(Violation {
                    kind: ViolationKind::LivelinessDivergence {
                        distance: min_distance,
                        threshold,
                    },
                    time: sample.time,
                    mode,
                });
                break;
            }
        }
        violations
    }

    #[test]
    fn outward_probe_matches_full_scan_on_perturbed_runs() {
        use avis_sim::SimRng;
        let monitor = calibrated_monitor();
        let mut rng = SimRng::seed_from_u64(2024);
        for case in 0..40 {
            let mut run = synthetic_run(rng.uniform_range(-0.5, 0.5));
            // Random perturbations covering conforming runs, timing
            // shifts, marginal drifts and outright fly-aways.
            let drift = rng.uniform_range(0.0, 8.0);
            let start = rng.uniform_range(5.0, 60.0);
            let wrong_mode = rng.chance(0.3);
            for s in run.samples.iter_mut().filter(|s| s.time >= start) {
                s.position.y += (s.time - start) * drift / 10.0;
                if rng.chance(0.1) {
                    s.acceleration.x += rng.uniform_range(-2.0, 2.0);
                }
                if wrong_mode {
                    s.mode = OperatingMode::Guided;
                }
            }
            if wrong_mode {
                run.mode_transitions.retain(|t| t.time < start);
            }
            assert_eq!(
                monitor.check(&run),
                brute_force_check(&monitor, &run),
                "case {case}: outward probe diverged from the full scan (drift {drift}, start {start}, wrong_mode {wrong_mode})"
            );
        }
    }

    #[test]
    fn outward_probe_matches_full_scan_on_existing_scenarios() {
        let monitor = calibrated_monitor();
        // The named scenarios the other tests exercise, pinned one-by-one
        // against the full scan.
        let mut fly_away = synthetic_run(0.0);
        for s in fly_away.samples.iter_mut().filter(|s| s.time >= 20.0) {
            s.position.y = (s.time - 20.0) * 5.0;
            s.mode = OperatingMode::Auto { leg: 1 };
        }
        fly_away.mode_transitions.retain(|t| t.time < 20.0);
        let mut stalled = synthetic_run(0.0);
        for s in stalled.samples.iter_mut().filter(|s| s.time >= 20.0) {
            s.position = Vec3::new(40.0, 10.0, 20.0);
            s.mode = OperatingMode::Land;
        }
        let mut crashed = synthetic_run(0.1);
        crashed.collision = Some(avis_sim::Collision {
            kind: avis_sim::CollisionKind::Ground,
            impact_speed: 4.2,
            position: Vec3::new(10.0, 0.0, 0.0),
        });
        for run in [synthetic_run(0.2), fly_away, stalled, crashed] {
            assert_eq!(monitor.check(&run), brute_force_check(&monitor, &run));
        }
    }

    #[test]
    fn outward_probe_matches_full_scan_on_safe_mode_stretches() {
        use avis_sim::SimRng;
        // Randomised safe-mode behaviour — clean landings, stalls,
        // hovering RTLs, approaches, late descents, landed tails — between
        // liveliness-checked stretches must produce byte-identical
        // violations through the outward probe and the full scan.
        let monitor = calibrated_monitor();
        let mut rng = SimRng::seed_from_u64(77);
        for case in 0..60 {
            let mut run = synthetic_run(rng.uniform_range(-0.4, 0.4));
            let start = rng.uniform_range(10.0, 50.0);
            let mode = match rng.index(3) {
                0 => OperatingMode::Land,
                1 => OperatingMode::Brake,
                _ => OperatingMode::ReturnToLaunch,
            };
            // 0: stall (hover), 1: descend, 2: approach home, 3: descend
            // then hold just above ground, 4: land fully (long landed tail).
            let behaviour = rng.index(5);
            let rate = rng.uniform_range(0.05, 1.2);
            for s in run.samples.iter_mut().filter(|s| s.time >= start) {
                let dt = s.time - start;
                s.mode = mode;
                match behaviour {
                    0 => s.position = Vec3::new(25.0, 8.0, 18.0),
                    1 => s.position = Vec3::new(25.0, 8.0, (18.0 - dt * rate).max(0.0)),
                    2 => {
                        s.position = Vec3::new((25.0 - dt * rate).max(0.0), 0.0, 18.0);
                    }
                    3 => s.position = Vec3::new(25.0, 8.0, (18.0 - dt * rate).max(0.6)),
                    _ => s.position = Vec3::new(25.0, 8.0, (18.0 - dt * 2.0).max(0.0)),
                }
            }
            run.mode_transitions.retain(|t| t.time < start);
            assert_eq!(
                monitor.check(&run),
                brute_force_check(&monitor, &run),
                "case {case}: outward probe diverged from the full scan (mode {mode:?}, behaviour {behaviour}, start {start}, rate {rate})"
            );
        }
    }

    #[test]
    fn violation_kind_display() {
        let c = ViolationKind::Collision { impact_speed: 3.5 };
        assert!(c.to_string().contains("3.5"));
        let l = ViolationKind::LivelinessDivergence {
            distance: 9.0,
            threshold: 2.0,
        };
        assert!(l.to_string().contains("9.00"));
        let s = ViolationKind::SafeModeStalled {
            mode: "rtl".to_string(),
        };
        assert!(s.to_string().contains("rtl"));
        let d = ViolationKind::InAirDisarm { altitude: 12.5 };
        assert!(d.to_string().contains("12.5"));
        let a = ViolationKind::CommandAckTimeout {
            command: "Arm".to_string(),
            window: 5.0,
        };
        assert!(a.to_string().contains("Arm"));
        let m = ViolationKind::MissionAliasing {
            expected_items: 6,
            matching_items: 4,
        };
        assert!(m.to_string().contains("4/6"));
    }

    #[test]
    fn protocol_events_map_to_violations() {
        use crate::trace::{ProtocolEvent, ProtocolEventKind};
        let monitor = calibrated_monitor();
        let mut run = synthetic_run(0.0);
        assert!(
            monitor.check(&run).is_empty(),
            "the protocol-free run is clean"
        );
        run.protocol = vec![
            ProtocolEvent {
                time: 30.0,
                kind: ProtocolEventKind::InAirDisarm { altitude: 12.0 },
            },
            ProtocolEvent {
                time: 40.0,
                kind: ProtocolEventKind::AckTimeout {
                    command: "Arm".to_string(),
                    sent_at: 35.0,
                    window: 5.0,
                },
            },
            ProtocolEvent {
                time: 5.0,
                kind: ProtocolEventKind::MissionAliasing {
                    expected_items: 6,
                    matching_items: 4,
                },
            },
        ];
        let violations = monitor.check(&run);
        assert_eq!(violations.len(), 3);
        assert!(matches!(
            violations[0].kind,
            ViolationKind::InAirDisarm { altitude } if altitude == 12.0
        ));
        assert_eq!(violations[0].time, 30.0);
        assert!(matches!(
            violations[1].kind,
            ViolationKind::CommandAckTimeout { ref command, .. } if command == "Arm"
        ));
        assert!(matches!(
            violations[2].kind,
            ViolationKind::MissionAliasing {
                expected_items: 6,
                matching_items: 4
            }
        ));
        // The mode is looked up from the transition log at the event time.
        assert_eq!(violations[0].mode, run.mode_at(30.0).unwrap());
    }
}
