//! Outside-in instrumentation: a process-wide clock, an in-memory span
//! log, a pass-through strategy wrapper that times every call into the
//! strategy, a timestamping campaign observer, and the statistics helpers
//! the report uses.

use avis::campaign::{CampaignEvent, CampaignObserver};
use avis::json::{self, Json};
use avis::runner::RunVerdict;
use avis::strategy::{
    Candidate, Decision, Observation, PruningCounters, Strategy, StrategyContext,
};
use avis::trace::Trace;
use avis_firmware::BugId;
use avis_hinj::FaultPlan;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's first clock read.
pub fn now_ns() -> u64 {
    ns_at(Instant::now())
}

/// `at` in nanoseconds since the process's first clock read.
pub fn ns_at(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Locks a benchmark-side mutex; only a panic elsewhere in the benchmark
/// can poison one.
pub fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .expect("benchmark mutex poisoned by an earlier panic")
}

/// One timed region: name, start, end, the span that caused it, and the
/// run (campaign repetition or replayed plan) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

/// Spans kept in memory and written out when the benchmark ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

/// A span log shared between the benchmark and the wrapped strategy.
pub type SharedSpans = Arc<Mutex<SpanLog>>;

impl SpanLog {
    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        run: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Starts a span now; [`SpanLog::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: u32) -> usize {
        let now = now_ns();
        self.push(name, now, now, parent, run)
    }

    /// Ends a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = now_ns();
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = json::object(vec![
                ("id", Json::Number(id as f64)),
                ("name", Json::String(span.name.to_string())),
                ("start_ns", Json::Number(span.start as f64)),
                ("end_ns", Json::Number(span.end as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
                ),
                ("run", Json::Number(span.run as f64)),
            ]);
            writeln!(out, "{}", line.to_compact())?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Time and call count of one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    pub fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    /// Mean time per call in microseconds (0 with no calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// What the strategy wrapper saw during one campaign.
#[derive(Debug, Default)]
pub struct StrategyProbe {
    /// When the campaign handed over to the strategy: the end of set-up.
    pub setup_end: Option<Instant>,
    pub initialize_ns: u64,
    pub propose: Acc,
    pub decide: Acc,
    pub observe: Acc,
    pub admission: Acc,
    /// Candidates proposed with a speculative plan.
    pub speculated: u64,
    /// Speculated candidates whose commit-time decision was to skip.
    pub speculated_skipped: u64,
    /// Committed runs that left a trace (contained crashes leave none),
    /// with their monitor verdicts; kept only on request.
    pub committed: Vec<(Trace, bool)>,
}

/// A pass-through strategy. Every campaign the benchmark times runs
/// through it, so all runs pay the same single clock read at
/// `initialize`; with `detail` on it also times every call and records
/// spans.
pub struct TimedStrategy {
    inner: Box<dyn Strategy>,
    probe: Arc<Mutex<StrategyProbe>>,
    detail: Option<Detail>,
}

struct Detail {
    spans: SharedSpans,
    parent: Option<usize>,
    run: u32,
    keep_traces: bool,
}

impl TimedStrategy {
    /// The plain wrapper: one clock read at `initialize`.
    pub fn new(inner: Box<dyn Strategy>, probe: Arc<Mutex<StrategyProbe>>) -> Self {
        TimedStrategy {
            inner,
            probe,
            detail: None,
        }
    }

    /// The traced wrapper: times every call and records spans under
    /// `parent`.
    pub fn traced(
        inner: Box<dyn Strategy>,
        probe: Arc<Mutex<StrategyProbe>>,
        spans: SharedSpans,
        parent: Option<usize>,
        run: u32,
        keep_traces: bool,
    ) -> Self {
        TimedStrategy {
            inner,
            probe,
            detail: Some(Detail {
                spans,
                parent,
                run,
                keep_traces,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StrategyProbe> {
        lock(&self.probe)
    }

    fn span(&self, name: &'static str, start: u64, end: u64) {
        if let Some(d) = &self.detail {
            lock(&d.spans).push(name, start, end, d.parent, d.run);
        }
    }
}

impl Strategy for TimedStrategy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initialize(&mut self, ctx: &StrategyContext<'_>) {
        self.lock().setup_end = Some(Instant::now());
        if self.detail.is_none() {
            self.inner.initialize(ctx);
            return;
        }
        let start = now_ns();
        self.inner.initialize(ctx);
        let end = now_ns();
        self.lock().initialize_ns = end - start;
        self.span("strategy.initialize", start, end);
    }

    fn propose(&mut self) -> Vec<Candidate> {
        if self.detail.is_none() {
            return self.inner.propose();
        }
        let start = now_ns();
        let round = self.inner.propose();
        let end = now_ns();
        let mut probe = self.lock();
        probe.propose.add(end - start);
        probe.speculated += round.iter().filter(|c| c.speculative().is_some()).count() as u64;
        drop(probe);
        self.span("strategy.propose", start, end);
        round
    }

    fn revalidate(&self, candidate: &Candidate) -> bool {
        if self.detail.is_none() {
            return self.inner.revalidate(candidate);
        }
        let start = now_ns();
        let keep = self.inner.revalidate(candidate);
        self.lock().admission.add(now_ns() - start);
        keep
    }

    fn prune_probability(&self, candidate: &Candidate) -> f64 {
        if self.detail.is_none() {
            return self.inner.prune_probability(candidate);
        }
        let start = now_ns();
        let p = self.inner.prune_probability(candidate);
        self.lock().admission.add(now_ns() - start);
        p
    }

    fn decide(&mut self, candidate: &Candidate) -> Decision {
        if self.detail.is_none() {
            return self.inner.decide(candidate);
        }
        let start = now_ns();
        let decision = self.inner.decide(candidate);
        let end = now_ns();
        let mut probe = self.lock();
        probe.decide.add(end - start);
        if candidate.speculative().is_some() && decision.plan.is_none() {
            probe.speculated_skipped += 1;
        }
        drop(probe);
        self.span("strategy.decide", start, end);
        decision
    }

    fn observe(&mut self, observation: &Observation<'_>) {
        let Some(detail) = &self.detail else {
            return self.inner.observe(observation);
        };
        let keep = detail.keep_traces;
        let start = now_ns();
        self.inner.observe(observation);
        let end = now_ns();
        let mut probe = self.lock();
        probe.observe.add(end - start);
        if keep && !matches!(observation.result.verdict, RunVerdict::Crashed { .. }) {
            probe
                .committed
                .push((observation.result.trace.clone(), observation.is_unsafe));
        }
        drop(probe);
        self.span("strategy.observe", start, end);
    }

    fn pruning(&self) -> PruningCounters {
        self.inner.pruning()
    }
}

/// Timestamps the campaign's event stream.
#[derive(Debug, Default)]
pub struct Stamps {
    /// Profiling runs and their simulated cost.
    pub profiling: (usize, f64),
    /// Commit time of every `RunFinished`.
    pub commits: Vec<Instant>,
    /// Committed plans and their monitor verdicts (kept on request).
    pub plans: Vec<(FaultPlan, bool)>,
    /// Time and triggered bugs of every `ViolationFound`.
    pub violations: Vec<(Instant, Vec<BugId>)>,
    keep_plans: bool,
}

impl Stamps {
    pub fn new(keep_plans: bool) -> Self {
        Stamps {
            keep_plans,
            ..Stamps::default()
        }
    }
}

impl CampaignObserver for Stamps {
    fn on_event(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::ProfilingFinished { runs, cost_seconds } => {
                self.profiling = (*runs, *cost_seconds);
            }
            CampaignEvent::RunFinished {
                plan, is_unsafe, ..
            } => {
                self.commits.push(Instant::now());
                if self.keep_plans {
                    self.plans.push((plan.clone(), *is_unsafe));
                }
            }
            CampaignEvent::ViolationFound { condition } => {
                self.violations
                    .push((Instant::now(), condition.triggered_bugs.clone()));
            }
            _ => {}
        }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Percentile levels the report may quote, highest first.
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// A timing distribution: median, p90, and the highest percentile with
/// at least ten samples beyond it, with the sample count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    /// The highest quotable level (`None` when fewer than 20 samples).
    pub tail_level: Option<f64>,
    pub tail: f64,
}

/// Nearest-rank percentile of an ascending slice.
fn rank_value(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest level in [`LADDER`] that leaves at least ten of `n`
/// samples above its nearest rank.
pub fn tail_level(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&q| n >= (q * n as f64).ceil() as usize + 10)
}

impl Dist {
    pub fn of(mut samples: Vec<f64>) -> Dist {
        if samples.is_empty() {
            return Dist::default();
        }
        samples.sort_by(f64::total_cmp);
        let level = tail_level(samples.len());
        Dist {
            n: samples.len(),
            p50: rank_value(&samples, 0.5),
            p90: rank_value(&samples, 0.9),
            tail_level: level,
            tail: level.map_or(0.0, |q| rank_value(&samples, q)),
        }
    }

    /// `"p50 … p90 … (n=…, highest quotable pXX …)"` for the text report.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail_level {
            Some(q) => format!("p{} {:.4} {unit}", q * 100.0, self.tail),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        format!(
            "p50 {:.4} {unit}, p90 {:.4} {unit} (n={}, highest quotable: {tail})",
            self.p50, self.p90, self.n
        )
    }
}

/// Peak resident set of this process so far (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The filesystem type holding `path` (longest matching mount point).
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Cost of an empty timed region (two back-to-back clock reads), in ns:
/// the floor under every per-call figure in the trace.
pub fn clock_read_ns() -> f64 {
    let samples: Vec<f64> = (0..20_000)
        .map(|_| {
            let start = Instant::now();
            let end = Instant::now();
            (end - start).as_nanos() as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(0.50));
        assert_eq!(tail_level(40), Some(0.75));
        assert_eq!(tail_level(100), Some(0.90));
        assert_eq!(tail_level(199), Some(0.90));
        assert_eq!(tail_level(200), Some(0.95));
        assert_eq!(tail_level(1000), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));
    }

    #[test]
    fn dist_reports_levels_and_count() {
        let d = Dist::of((1..=100).map(f64::from).collect());
        assert_eq!(d.n, 100);
        assert_eq!(d.p50, 50.0);
        assert_eq!(d.p90, 90.0);
        assert_eq!(d.tail_level, Some(0.90));
        assert_eq!(d.tail, 90.0);
        let beyond = (1..=100).filter(|&x| f64::from(x) > d.tail).count();
        assert!(beyond >= 10);
        assert_eq!(Dist::of(Vec::new()).n, 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
