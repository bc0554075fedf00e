//! Campaign repetitions: one repetition runs every session of a workload
//! once, in order, through the public `Campaign` API, and records what the
//! user waits for. Also the reference run and the correctness gate.

use crate::probe::{lock, median, ns_at, SharedSpans, Stamps, StrategyProbe, TimedStrategy};
use crate::workloads::{Exec, Inputs};
use avis::checker::CampaignResult;
use avis::snapshot::CheckpointStats;
use avis::WorkerStatsCollector;
use avis_firmware::BugId;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One session's campaign, as the benchmark saw it.
pub struct SessionRun {
    pub result: CampaignResult,
    pub stamps: Stamps,
    pub probe: StrategyProbe,
    /// The campaign call, the strategy's `initialize` (end of set-up) and
    /// the return.
    pub start: Instant,
    pub setup_end: Instant,
    pub end: Instant,
}

/// Commits per timed slice of a campaign's search (see [`Best`]).
const SLICE_COMMITS: usize = 8;

impl SessionRun {
    /// The campaign cut into consecutive slices of wall time (s): the
    /// set-up first, then every [`SLICE_COMMITS`] commits, then the tail
    /// up to the return. Runs of one campaign commit the same runs in
    /// the same order, so slice `i` covers the same work in every
    /// repetition.
    fn slices(&self) -> Vec<f64> {
        let mut marks = vec![self.start, self.setup_end];
        marks.extend(
            self.stamps
                .commits
                .iter()
                .skip(SLICE_COMMITS - 1)
                .step_by(SLICE_COMMITS),
        );
        marks.push(self.end);
        marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }

    /// Committed fault-injection scenarios (profiling excluded).
    pub fn scenarios(&self) -> usize {
        self.result.simulations - self.stamps.profiling.0
    }
}

/// One repetition of a workload.
pub struct Rep {
    pub sessions: Vec<SessionRun>,
    /// Checkpoint statistics of every runner, across all sessions.
    pub stats: Vec<CheckpointStats>,
}

/// Tracing options for a repetition.
pub struct Tracing {
    pub spans: SharedSpans,
    /// The repetition's span, parent of each session's span.
    pub parent: Option<usize>,
    pub run: u32,
    /// Keep committed traces and plans (for the monitor and replay).
    pub keep: bool,
}

impl Rep {
    /// Wall time from the first campaign call to the last return (s).
    pub fn wall_s(&self) -> f64 {
        self.sessions
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    pub fn scenarios(&self) -> usize {
        self.sessions.iter().map(SessionRun::scenarios).sum()
    }

    /// Seconds from the repetition's start to its first unsafe condition.
    pub fn first_unsafe_s(&self) -> Option<f64> {
        let start = self.sessions.first()?.start;
        self.sessions
            .iter()
            .flat_map(|s| s.stamps.violations.iter())
            .map(|(at, _)| (*at - start).as_secs_f64())
            .next()
    }

    /// Seconds from the start until every bug in `bugs` has appeared in
    /// a `ViolationFound`.
    pub fn all_bugs_s(&self, bugs: &BTreeSet<BugId>) -> Option<f64> {
        if bugs.is_empty() {
            return None;
        }
        let start = self.sessions.first()?.start;
        let mut seen = BTreeSet::new();
        for (at, found) in self
            .sessions
            .iter()
            .flat_map(|s| s.stamps.violations.iter())
        {
            seen.extend(found.iter().copied());
            if bugs.is_subset(&seen) {
                return Some((*at - start).as_secs_f64());
            }
        }
        None
    }

    pub fn quarantined(&self) -> u64 {
        self.stats.iter().map(|s| s.quarantined).sum()
    }
}

/// A fresh store root for one repetition (removed again by the caller).
pub fn store_root(out: &Path, tag: &str) -> PathBuf {
    let root = out.join(format!("store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Runs every session once, on its own thread so a panic fails only
/// this repetition. `None` means the repetition panicked.
pub fn run_rep(inputs: &Inputs, store: Option<&Path>, tracing: Option<&Tracing>) -> Option<Rep> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let collector = Arc::new(WorkerStatsCollector::new());
                let sessions = inputs
                    .sessions
                    .iter()
                    .map(|session| {
                        let probe = Arc::new(Mutex::new(StrategyProbe::default()));
                        let span = tracing
                            .map(|t| lock(&t.spans).open("campaign.session", t.parent, t.run));
                        let strategy = match tracing {
                            None => TimedStrategy::new(session.strategy(), Arc::clone(&probe)),
                            Some(t) => TimedStrategy::traced(
                                session.strategy(),
                                Arc::clone(&probe),
                                Arc::clone(&t.spans),
                                span,
                                t.run,
                                t.keep,
                            ),
                        };
                        let exec = Exec::Timed {
                            store,
                            stats: Arc::clone(&collector),
                        };
                        let campaign = inputs.campaign(session, exec, Box::new(strategy));
                        let mut stamps = Stamps::new(tracing.is_some_and(|t| t.keep));
                        let start = Instant::now();
                        let result = campaign.run_with_observer(&mut stamps);
                        let end = Instant::now();
                        let probe = std::mem::take(&mut *lock(&probe));
                        let setup_end = probe.setup_end.unwrap_or(start);
                        if let (Some(t), Some(span)) = (tracing, span) {
                            let mut spans = lock(&t.spans);
                            spans.close(span);
                            let (s, m, e) = (ns_at(start), ns_at(setup_end), ns_at(end));
                            spans.push("campaign.setup", s, m, Some(span), t.run);
                            spans.push("campaign.search", m, e, Some(span), t.run);
                            for pair in stamps.commits.windows(2) {
                                let (a, b) = (ns_at(pair[0]), ns_at(pair[1]));
                                spans.push("engine.commit_gap", a, b, Some(span), t.run);
                            }
                        }
                        SessionRun {
                            result,
                            stamps,
                            probe,
                            start,
                            setup_end,
                            end,
                        }
                    })
                    .collect();
                Rep {
                    sessions,
                    stats: collector.collected(),
                }
            })
            .join()
            .ok()
    })
}

/// The reference: every session cold, scalar and serial.
pub struct Reference {
    pub results: Vec<CampaignResult>,
    pub wall_s: f64,
}

impl Reference {
    pub fn compute(inputs: &Inputs) -> Reference {
        let start = Instant::now();
        let results = inputs
            .sessions
            .iter()
            .map(|session| {
                inputs
                    .campaign(session, Exec::Reference, session.strategy())
                    .run()
            })
            .collect();
        Reference {
            results,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Every bug the reference found, across sessions.
    pub fn bugs(&self) -> BTreeSet<BugId> {
        self.results.iter().flat_map(|r| r.bugs_found()).collect()
    }

    /// Committed fault-injection scenarios per repetition.
    pub fn scenarios(&self, profiling_runs: usize) -> usize {
        self.results
            .iter()
            .map(|r| r.simulations - profiling_runs)
            .sum()
    }
}

/// The correctness gate's tally over a set of repetitions.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Repetitions whose results differ from the reference (or panicked).
    pub mismatched: usize,
}

impl Tally {
    /// Checks every repetition against the reference. A panicked or
    /// mismatching repetition fails all its scenarios; each snapshot
    /// quarantine fails one more.
    pub fn check<'a>(
        reps: impl IntoIterator<Item = &'a Option<Rep>>,
        reference: &Reference,
        profiling_runs: usize,
    ) -> Tally {
        let expected = reference.scenarios(profiling_runs) as u64;
        let mut tally = Tally::default();
        for rep in reps {
            match rep {
                None => {
                    tally.attempted += expected;
                    tally.failed += expected;
                    tally.mismatched += 1;
                }
                Some(rep) => {
                    tally.attempted += rep.scenarios() as u64;
                    let same = rep.sessions.len() == reference.results.len()
                        && rep
                            .sessions
                            .iter()
                            .zip(&reference.results)
                            .all(|(s, r)| same_result(&s.result, r));
                    if !same {
                        tally.failed += rep.scenarios() as u64;
                        tally.mismatched += 1;
                    }
                    tally.failed += rep.quarantined();
                }
            }
        }
        tally.failed = tally.failed.min(tally.attempted);
        tally
    }
}

/// Result equality, ignoring the `approach` label a wrapped strategy
/// drops.
fn same_result(a: &CampaignResult, b: &CampaignResult) -> bool {
    let mut a = a.clone();
    a.approach = b.approach;
    &a == b
}

/// Runs at least `min_reps` repetitions, then more while another one
/// (as long as the last) still fits in `seconds`. Each store-backed
/// repetition gets a fresh root.
pub fn run_for(inputs: &Inputs, out: &Path, seconds: f64, min_reps: usize) -> Vec<Option<Rep>> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut last = 0.0;
    while reps.len() < min_reps || start.elapsed().as_secs_f64() + last <= seconds {
        let rep_start = Instant::now();
        let root = inputs
            .uses_store
            .then(|| store_root(out, &reps.len().to_string()));
        reps.push(run_rep(inputs, root.as_deref(), None));
        if let Some(root) = root {
            let _ = std::fs::remove_dir_all(root);
        }
        last = rep_start.elapsed().as_secs_f64();
    }
    reps
}

/// The end-to-end figures of a set of repetitions. Every campaign is cut
/// into slices of the same work in each repetition (its set-up, then
/// every few commits); each slice's time is the minimum over the
/// repetitions, and the figures sum those minima. The host shares its
/// cores with other tenants, whose bursts only ever add time, so the
/// fastest repetition of each slice is the steadiest estimate of what
/// the campaign costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Best {
    pub wall_s: f64,
    pub setup_s: f64,
    pub scenarios_per_s: f64,
}

impl Best {
    pub fn of(reps: &[Option<Rep>]) -> Best {
        let reps: Vec<&Rep> = reps.iter().flatten().collect();
        let Some(first) = reps.first() else {
            return Best::default();
        };
        let (mut wall_s, mut setup_s) = (0.0, 0.0);
        for s in 0..first.sessions.len() {
            let cut: Vec<Vec<f64>> = reps.iter().map(|r| r.sessions[s].slices()).collect();
            // Every repetition commits the same runs; should the commit
            // counts ever differ, fall back to whole-campaign minima.
            let aligned = cut.iter().all(|c| c.len() == cut[0].len());
            let fastest =
                |f: &dyn Fn(&Vec<f64>) -> f64| cut.iter().map(f).fold(f64::INFINITY, f64::min);
            setup_s += fastest(&|c| c[0]);
            wall_s += if aligned {
                (0..cut[0].len()).map(|i| fastest(&|c| c[i])).sum::<f64>()
            } else {
                fastest(&|c| c.iter().sum())
            };
        }
        Best {
            wall_s,
            setup_s,
            scenarios_per_s: first.scenarios() as f64 / (wall_s - setup_s),
        }
    }
}

/// Median of a per-repetition figure over the repetitions that ran.
pub fn median_of(reps: &[Option<Rep>], f: impl Fn(&Rep) -> Option<f64>) -> f64 {
    let values: Vec<f64> = reps.iter().flatten().filter_map(f).collect();
    median(&values)
}
