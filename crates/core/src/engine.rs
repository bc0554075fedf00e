//! The campaign engine: drives any [`Strategy`] through its
//! propose / decide / observe lifecycle, serially or on a scoped worker
//! pool, while producing a [`crate::checker::CampaignResult`]
//! **bit-identical** at every parallelism and streaming
//! [`CampaignEvent`]s to the observer in commit order.
//!
//! # Why parallelism cannot change the result
//!
//! A test run is a pure function of its [`FaultPlan`]: the runner
//! provisions a fresh simulator + firmware + workload per run and seeds
//! every noise source from the experiment configuration alone, so two
//! executions of the same plan — on any thread, in any order — yield the
//! same [`RunResult`]. What is *not* order-independent is the campaign
//! bookkeeping around the runs: budget accounting, pruning feedback and
//! the discovery order of unsafe conditions. The engine therefore splits
//! each strategy round into three phases:
//!
//! 1. **Proposal.** [`Strategy::propose`] emits the round's candidates.
//!    Rounds are the strategy's natural work units (a SABRE anchor's
//!    candidate sets, a fixed batch of BFI sites) and never depend on the
//!    worker count — see the determinism contract in [`crate::strategy`].
//! 2. **Speculative execution.** Candidates carrying a speculative plan
//!    are executed concurrently on the worker pool (skipped entirely in
//!    the serial case), in *wavefronts* of a small multiple of the pool
//!    size (`BATCH_FACTOR`) so that a bug committed mid-round cancels
//!    its now-pruned siblings ([`Strategy::revalidate`]) instead of
//!    wasting workers on them. Speculation past the remaining simulation
//!    budget is capped; wrong or missing speculation is repaired at
//!    commit by executing inline.
//! 3. **Sequential commit.** For every candidate, in round order, the
//!    engine applies the authoritative control flow: budget check,
//!    [`Strategy::decide`] (label charges, pruning), post-charge budget
//!    re-check, run execution (pool result or inline fallback),
//!    absorption into the campaign state, observer events and
//!    [`Strategy::observe`] feedback.
//!
//! The commit phase performs precisely the serial sequence of decisions
//! and mutations, so the pruning counters, cost accounting,
//! unsafe-condition order, observer event stream and every other
//! observable of the campaign match the serial engine exactly — the
//! determinism suite in `tests/engine_determinism.rs` asserts structural
//! equality of the full campaign result and of the event stream.
//!
//! # Dispatch and the snapshot cache
//!
//! Every runner of a campaign — the inline runner and each engine worker
//! — forks from and commits to the campaign's one snapshot cache (see
//! [`crate::snapshot`]), so placement never decides which cuts a run can
//! resume from. One admission and family planner serves both speculative
//! paths: it groups a wavefront's admitted plans into *prefix families*
//! (plans that fork from the same chain), and each family is run as
//! lockstep batches of [`ExperimentConfig::lockstep_lanes`] siblings —
//! by workers popping whole families off one FIFO queue, or by the
//! inline runner in the serial engine.

use crate::campaign::{CampaignEvent, CampaignObserver};
use crate::checker::{Budget, CampaignState};
use crate::contain;
use crate::runner::{ExperimentConfig, ExperimentRunner, RunResult};
use crate::snapshot::{CheckpointStats, SharedSnapshotTier};
use crate::store::SnapshotStore;
use crate::strategy::{Candidate, Observation, Strategy};
use avis_hinj::FaultPlan;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};

/// The default worker count: the number of available CPU cores.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Collects checkpoint statistics when a campaign finishes, so callers
/// (benches, tuning tools) can observe cache behaviour — fork shares and
/// depths, memory held, evictions — that the deterministic
/// [`crate::checker::CampaignResult`] deliberately excludes (the numbers
/// vary with scheduling; results never do).
///
/// Each engine worker pushes its per-run counters at pool shutdown; the
/// campaign's inline runner then pushes its own together with the
/// cache-wide and persistent-store fields, which appear on that entry
/// only. Summing a field over [`WorkerStatsCollector::collected`]
/// therefore counts each cached byte, eviction and quarantine once.
#[derive(Debug, Default)]
pub struct WorkerStatsCollector {
    stats: Mutex<Vec<CheckpointStats>>,
}

impl WorkerStatsCollector {
    /// An empty collector.
    pub fn new() -> Self {
        WorkerStatsCollector::default()
    }

    /// The statistics pushed so far: one entry per engine worker, then
    /// the campaign's inline entry, for every campaign that reported here.
    pub fn collected(&self) -> Vec<CheckpointStats> {
        contain::lock(&self.stats).clone()
    }

    pub(crate) fn push(&self, stats: CheckpointStats) {
        contain::lock(&self.stats).push(stats);
    }
}

/// The engine-facing slice of a campaign configuration.
pub(crate) struct EngineParams<'a> {
    /// The experiment each worker provisions its runner from.
    pub experiment: &'a ExperimentConfig,
    /// The shared test budget.
    pub budget: &'a Budget,
    /// Worker count; `1` executes every run inline on the calling thread.
    pub parallelism: usize,
    /// The campaign's snapshot cache, attached to every worker's runner.
    pub cache: Arc<SharedSnapshotTier>,
    /// Sink for the workers' checkpoint statistics, filled at pool
    /// shutdown.
    pub worker_stats: Option<Arc<WorkerStatsCollector>>,
    /// The persistent snapshot store, if the campaign configured one:
    /// the pool path flushes the cache's new chains write-behind before
    /// each speculative wavefront, so a crash mid-campaign still leaves
    /// the completed wavefronts' chains on disk for the next session.
    pub store: Option<Arc<Mutex<SnapshotStore>>>,
}

/// Simulations left before the hard budget cap (`usize::MAX` for
/// cost-only budgets). Speculating past this is guaranteed waste.
fn remaining_simulations(budget: &Budget, state: &CampaignState) -> usize {
    if budget.max_simulations == usize::MAX {
        usize::MAX
    } else {
        budget.max_simulations.saturating_sub(state.simulations)
    }
}

/// Takes the speculative result for `token`, or — when speculation was
/// capped, filtered or wrong — executes the plan inline. Runs are pure
/// functions of their plan, so the fallback preserves bit-identical
/// results; a stale speculative result whose plan diverged from the
/// committed plan is discarded rather than absorbed.
fn take_or_run(
    results: &mut BTreeMap<u64, RunResult>,
    token: u64,
    plan: FaultPlan,
    state: &mut CampaignState,
) -> RunResult {
    match results.remove(&token) {
        Some(result) if result.plan == plan => result,
        // Contained: a panicking run comes back as a first-class
        // `RunVerdict::Crashed` result instead of unwinding through the
        // commit loop — the inline path is the repair of last resort, so
        // it must be exactly as fault-tolerant as the workers.
        _ => state.runner.run_contained(plan),
    }
}

/// A unit of speculative work: the candidate token the result must be
/// committed under, plus the plan to execute.
type Job = (u64, FaultPlan);

/// Order key within a prefix family: earliest failure time first, then
/// failure count, then the canonical plan key. Consecutive jobs in this
/// order are the siblings whose shared prefix one lockstep batch advances
/// once. Results are keyed by candidate token and committed strictly in
/// round order, so dispatch order can never change a campaign observable.
fn prefix_dispatch_key(plan: &FaultPlan) -> (i64, usize, String) {
    let earliest = plan
        .specs()
        .map(|s| s.time)
        .chain(plan.link_plan().fault_times())
        .map(|t| (t * 1000.0).round() as i64)
        .min()
        .unwrap_or(i64::MAX);
    (earliest, plan.len(), plan.canonical_key())
}

/// The *prefix family* of a plan: the injection prefix shared with its
/// siblings (every failure except the deepest one). Plans of one family
/// fork from the same chain and run together in lockstep batches.
///
/// Single-failure plans all share the *empty* parent prefix; one family
/// would starve the pool, so the empty prefix is split by the checkpoint
/// bucket the failure falls in (plans forking at nearby depths reuse the
/// same stretch of the fault-free chain). The bucket width is the
/// checkpoint interval — the resolution at which forks actually differ.
fn family_key(plan: &FaultPlan, bucket_seconds: f64) -> String {
    let Some(deepest) = plan
        .specs()
        .map(|s| s.time)
        .chain(plan.link_plan().fault_times())
        .fold(None, |acc: Option<f64>, t| {
            Some(acc.map_or(t, |a| a.max(t)))
        })
    else {
        return String::new();
    };
    let parent = plan.before(deepest);
    if parent.is_empty() {
        let bucket = (deepest / bucket_seconds.max(1e-3)).floor() as i64;
        format!("#{bucket}")
    } else {
        parent.canonical_key()
    }
}

/// Admission and family planning for one wavefront, shared by the pool
/// and the serial lockstep path. Admission drops hints the strategy has
/// withdrawn ([`Strategy::revalidate`]) or rates as probably doomed
/// ([`Strategy::prune_probability`]) — skipping a doomed job entirely
/// beats merely shrinking the wavefront around it — and caps speculation
/// at the remaining simulation budget (`cap`). The admitted jobs are
/// grouped into prefix families, each sorted by [`prefix_dispatch_key`].
/// The commit's inline fallback covers any plan these filters wrongly
/// skip.
fn plan_families(
    wavefront: &[Candidate],
    strategy: &dyn Strategy,
    cap: usize,
    bucket_seconds: f64,
) -> Vec<Vec<Job>> {
    let mut families: BTreeMap<String, Vec<Job>> = BTreeMap::new();
    for (token, plan) in wavefront
        .iter()
        .filter(|c| strategy.revalidate(c))
        .filter(|c| strategy.prune_probability(c) < SPECULATION_ADMISSION_CEILING)
        .filter_map(|c| c.speculative().map(|plan| (c.token(), plan.clone())))
        .take(cap)
    {
        families
            .entry(family_key(&plan, bucket_seconds))
            .or_default()
            .push((token, plan));
    }
    families
        .into_values()
        .map(|mut family| {
            family.sort_by_cached_key(|(_, plan)| prefix_dispatch_key(plan));
            family
        })
        .collect()
}

/// What a worker sends back: a completed run, or the rendered panic of a
/// worker that died *outside* the per-run containment — a harness fault,
/// not a scenario crash; the collector then stops waiting and the
/// commit's inline fallback covers the lost jobs instead of deadlocking
/// the wavefront.
type WorkerOutcome = Result<(u64, RunResult), String>;

/// The job queue shared by the engine and its workers: whole prefix
/// families, first in first out.
#[derive(Debug, Default)]
struct Queue {
    families: VecDeque<Vec<Job>>,
    shutdown: bool,
}

#[derive(Debug, Default)]
struct Dispatcher {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl Dispatcher {
    /// The next family to run, blocking until one arrives or the pool
    /// shuts down.
    fn next_family(&self) -> Option<Vec<Job>> {
        let mut queue = contain::lock(&self.queue);
        loop {
            if let Some(family) = queue.families.pop_front() {
                return Some(family);
            }
            if queue.shutdown {
                return None;
            }
            queue = self.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wakes every worker and lets them drain out. Idempotent; also runs
    /// on unwind (see the guard in [`run_campaign`]) so a panicking
    /// wavefront can never leave workers parked on the condvar.
    fn shutdown(&self) {
        contain::lock(&self.queue).shutdown = true;
        self.ready.notify_all();
    }
}

/// Unparks the worker pool on drop, so a panic unwinding through
/// [`run_rounds`] still releases the scope's joins.
struct ShutdownGuard(Arc<Dispatcher>);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Hands wavefronts of fault plans to the worker pool and collects the
/// results keyed by candidate token.
struct Wavefront {
    dispatcher: Arc<Dispatcher>,
    result_rx: Receiver<WorkerOutcome>,
}

impl Wavefront {
    /// Queues one wavefront's families and blocks until every result is
    /// in.
    ///
    /// Scenario crashes never surface here — they come back as ordinary
    /// results carrying [`crate::runner::RunVerdict::Crashed`]. A worker
    /// that dies *outside* the per-run containment (a harness fault)
    /// sends one final `Err`; the collector then stops waiting — its
    /// in-flight family is unrecoverable, and results from still-healthy
    /// workers keep arriving into later collections, where stale tokens
    /// are ignored by the commit's plan-equality check. Every job whose
    /// speculative result is missing is re-executed inline at commit
    /// (see [`take_or_run`]), so no proposed job is ever leaked.
    fn execute(&self, families: Vec<Vec<Job>>) -> BTreeMap<u64, RunResult> {
        let expected: usize = families.iter().map(Vec::len).sum();
        contain::lock(&self.dispatcher.queue)
            .families
            .extend(families);
        self.dispatcher.ready.notify_all();
        let mut results = BTreeMap::new();
        while results.len() < expected {
            // A closed channel means every worker exited — nothing more
            // can arrive; stop collecting and let the commit repair the
            // missing results inline.
            let Ok(outcome) = self.result_rx.recv() else {
                break;
            };
            match outcome {
                Ok((token, result)) => {
                    results.insert(token, result);
                }
                Err(harness_panic) => {
                    // A worker died outside the per-run containment. Its
                    // in-flight family is gone — waiting for it would
                    // hang forever, so stop here and let the inline
                    // fallback account for every undelivered job. The
                    // message carries the scenario fingerprint (see
                    // `run_campaign`), so the surviving log identifies
                    // which scenario took the worker down.
                    eprintln!("avis: campaign worker died: {harness_panic}");
                    break;
                }
            }
        }
        results
    }
}

/// Runs the campaign body (everything after profiling/calibration):
/// drives `strategy` round by round until the budget or its search space
/// is exhausted. Serial when `params.parallelism <= 1`, otherwise on a
/// scoped worker pool.
pub(crate) fn run_campaign(
    params: EngineParams<'_>,
    strategy: &mut dyn Strategy,
    state: &mut CampaignState,
    observer: &mut dyn CampaignObserver,
) {
    let workers = params.parallelism.max(1);
    if workers == 1 {
        run_rounds(&params, strategy, state, observer, None);
        return;
    }
    std::thread::scope(|scope| {
        let dispatcher = Arc::new(Dispatcher::default());
        let (result_tx, result_rx) = channel::<WorkerOutcome>();
        for me in 0..workers {
            let dispatcher = Arc::clone(&dispatcher);
            let result_tx = result_tx.clone();
            let experiment = params.experiment.clone();
            let cache = Arc::clone(&params.cache);
            let collector = params.worker_stats.clone();
            scope.spawn(move || {
                // One runner per worker, kept alive across jobs and
                // attached to the campaign's snapshot cache, which every
                // worker forks from and commits to. Cache state affects
                // only run *timing* — a forked run is bit-identical to a
                // cold one — so results stay pure functions of their plan.
                let mut runner = ExperimentRunner::new(experiment);
                runner.set_shared_tier(cache);
                let seed = runner.config().seed;
                // The plan currently executing, tracked so a panic that
                // escapes the per-run containment still renders with the
                // scenario fingerprint (seed + canonical plan key).
                let in_flight = std::cell::RefCell::new(String::new());
                // Scenario crashes are contained *inside*
                // `run_batch_contained` and come back as
                // `RunVerdict::Crashed` results. This
                // outer boundary is belt-and-braces for harness faults
                // (dispatcher, channel, stats code): the worker sends one
                // final `Err` instead of silently dying with the result
                // channel open, which would hang the wavefront collector.
                let body = contain::catch(|| {
                    // A family is sorted by dispatch key, so consecutive
                    // chunks are exactly the plans whose shared prefix a
                    // `LaneBatch` advances once instead of N times (see
                    // `crate::batch`). Every chunk, a lone plan included,
                    // goes through the one contained entry. Bit-identical
                    // either way — lockstep, like checkpointing, is
                    // purely a speed knob.
                    let lanes = runner.config().lockstep_lanes.max(1);
                    'drain: while let Some(family) = dispatcher.next_family() {
                        for chunk in family.chunks(lanes) {
                            let (tokens, plans): (Vec<u64>, Vec<FaultPlan>) =
                                chunk.iter().cloned().unzip();
                            *in_flight.borrow_mut() = plans
                                .iter()
                                .map(|p| p.canonical_key())
                                .collect::<Vec<_>>()
                                .join(" | ");
                            let results = runner.run_batch_contained(plans);
                            for (token, result) in tokens.into_iter().zip(results) {
                                if result_tx.send(Ok((token, result))).is_err() {
                                    break 'drain;
                                }
                            }
                        }
                    }
                });
                if let Err(payload) = body {
                    let context = format!(
                        "worker {me}, experiment seed {seed}, plan {}",
                        in_flight.borrow()
                    );
                    let _ = result_tx.send(Err(contain::render_panic(payload.as_ref(), &context)));
                }
                if let Some(collector) = collector {
                    collector.push(runner.run_stats);
                }
            });
        }
        drop(result_tx);
        // Unparks the workers even when a wavefront panics mid-collect,
        // so the scope's implicit joins can never deadlock.
        let _guard = ShutdownGuard(Arc::clone(&dispatcher));
        let pool = Wavefront {
            dispatcher: Arc::clone(&dispatcher),
            result_rx,
        };
        run_rounds(&params, strategy, state, observer, Some(&pool));
        // The guard (and the normal return path) wake the workers; they
        // drain any leftover speculative families and exit, and the scope
        // joins them.
    })
}

/// How many speculative jobs the engine dispatches per wavefront, as a
/// multiple of the worker count. Larger factors amortise channel traffic
/// and keep workers busy across the sequential commit, but every
/// speculative run the commit rejects (pruned by a bug found earlier in
/// the same round, or past the budget) is wasted work — so wavefronts
/// are kept a small multiple of the pool size rather than, say, a whole
/// SABRE anchor's candidate list at once. Between wavefronts the engine
/// re-asks the strategy ([`Strategy::revalidate`]) whether each hint is
/// still worth running, so a bug committed in one wavefront cancels its
/// now-pruned siblings in the next.
const BATCH_FACTOR: usize = 4;

/// Pruning-aware wavefront sizing. Speculation only pays off when the
/// speculated runs actually commit; every unsafe commit triggers
/// found-bug pruning that invalidates speculated siblings, turning them
/// into pure waste (painfully visible on one core, where wasted runs
/// steal cycles from useful ones). The sizer tracks an exponentially
/// weighted unsafe-commit rate and
///
/// * **withdraws speculation entirely** while the rate is high — the
///   commit then executes runs inline, which *is* the serial engine, so
///   a bug-dense campaign degrades to serial cost instead of paying for
///   doomed wavefronts;
/// * **shrinks the wavefront** (quartering, regrowing by doubling)
///   around isolated bug findings, so a mixed regime speculates
///   shallowly instead of `BATCH_FACTOR × workers` deep.
///
/// The rate decays with every clean commit, so the engine re-enters the
/// speculative regime a handful of clean commits after a bug-dense
/// stretch ends. Sizing and gating only decide which runs are
/// *pre-executed*, never which runs commit, so they cannot change a
/// campaign observable.
#[derive(Debug, Clone, Copy)]
struct WavefrontSizer {
    max: usize,
    size: usize,
    /// Exponentially weighted rate of unsafe commits (decay 0.9).
    bug_rate: f64,
}

/// Unsafe-commit rate above which speculation is withdrawn: at one bug
/// per four commits, a full wavefront loses more to pruned siblings
/// than it gains from overlap.
const SPECULATION_BUG_RATE_CEILING: f64 = 0.25;

/// Per-candidate admission ceiling: a speculative job whose
/// [`Strategy::prune_probability`] estimate reaches this is not
/// dispatched at all — the strategy's own pruning state considers it
/// likely doomed (a sibling bug at the same injection site tends to
/// prune it before commit), so pre-executing it is expected waste. The
/// commit's inline fallback covers any candidate the estimate wrongly
/// withholds, so admission can never change a campaign observable.
const SPECULATION_ADMISSION_CEILING: f64 = 0.75;

impl WavefrontSizer {
    fn new(workers: usize) -> Self {
        let max = workers.max(1) * BATCH_FACTOR;
        WavefrontSizer {
            max,
            size: max,
            bug_rate: 0.0,
        }
    }

    fn size(&self) -> usize {
        self.size
    }

    /// Whether the next wavefront is worth dispatching to the pool at
    /// all.
    fn speculate(&self) -> bool {
        self.bug_rate < SPECULATION_BUG_RATE_CEILING
    }

    /// Feeds one committed run's verdict into the rate estimate.
    fn observe_commit(&mut self, is_unsafe: bool) {
        self.bug_rate = 0.9 * self.bug_rate + if is_unsafe { 0.1 } else { 0.0 };
    }

    fn observe_wavefront(&mut self, found_bug: bool) {
        self.size = if found_bug {
            (self.size / 4).max(1)
        } else {
            (self.size * 2).min(self.max)
        };
    }
}

/// The DegradedMode event, sent the first time the campaign's cache
/// breaker is seen tripped.
fn announce_degraded(
    state: &CampaignState,
    announced: &mut bool,
    observer: &mut dyn CampaignObserver,
) {
    if *announced || !state.runner.checkpointing_degraded() {
        return;
    }
    *announced = true;
    observer.on_event(&CampaignEvent::DegradedMode {
        reason: "repeated snapshot checksum failures tripped the checkpoint \
                 breaker; checkpointing is disabled and remaining runs \
                 cold-start"
            .to_string(),
    });
}

/// The round loop shared by the serial and parallel paths. The only
/// difference between them is where speculative plans execute; the
/// commit-order control flow — and with it every campaign observable —
/// is byte-for-byte the same, because wavefront boundaries only decide
/// which runs are *pre-executed*, never which runs commit.
fn run_rounds(
    params: &EngineParams<'_>,
    strategy: &mut dyn Strategy,
    state: &mut CampaignState,
    observer: &mut dyn CampaignObserver,
    pool: Option<&Wavefront>,
) {
    let mut sizer = WavefrontSizer::new(params.parallelism.max(1));
    // Serial lockstep: with no pool and more than one configured lane,
    // the inline runner pre-executes each wavefront's admitted families
    // in lockstep batches — the serial engine's version of speculative
    // execution, identical in admission and repair semantics to the pool
    // path, and bit-identical in every campaign observable (batched
    // results equal scalar results, and a stale or missing one is re-run
    // inline at commit).
    let lanes = params.experiment.lockstep_lanes.max(1);
    let serial_batching = pool.is_none() && lanes > 1;
    let family_bucket = if params.experiment.checkpoints.enabled {
        params.experiment.checkpoints.interval
    } else {
        5.0
    };
    // Degraded mode is announced at most once per campaign.
    let mut degraded_announced = false;
    loop {
        if state.out_of_budget(params.budget) {
            break;
        }
        let round = strategy.propose();
        if round.is_empty() {
            break;
        }

        let mut start = 0;
        while start < round.len() {
            let wavefront_size = match pool {
                Some(_) => sizer.size(),
                // Serial lockstep: bounded wavefronts, so a bug found at
                // commit cancels the speculative batches of the *next*
                // wavefront instead of the whole round's.
                None if serial_batching => lanes * BATCH_FACTOR,
                // Serial scalar: no speculation, one "wavefront" per
                // round.
                None => usize::MAX,
            };
            let end = round.len().min(start.saturating_add(wavefront_size));
            let wavefront = &round[start..end];

            // Phase 2: speculative execution of the wavefront's admitted
            // families. In a bug-dense stretch the sizer withdraws
            // speculation entirely (`speculate()` false) and the commit
            // runs inline, exactly like the serial engine.
            let mut results = BTreeMap::new();
            if (pool.is_some() || serial_batching) && sizer.speculate() {
                if let (Some(_), Some(store)) = (pool, &params.store) {
                    // Commit-boundary write-behind: persist the chains
                    // recorded since the last flush. Incremental (already
                    // persisted cuts are skipped) and purely
                    // observational — a flush failure degrades the next
                    // session's warm start, never this campaign's results.
                    contain::lock(store).flush(&params.cache, params.experiment);
                }
                let cap = remaining_simulations(params.budget, state);
                let families = plan_families(wavefront, &*strategy, cap, family_bucket);
                match pool {
                    Some(pool) => results = pool.execute(families),
                    None => {
                        for chunk in families.iter().flat_map(|family| family.chunks(lanes)) {
                            // Singletons gain nothing from lockstep; the
                            // commit runs them inline as the serial engine
                            // always has.
                            if chunk.len() < 2 {
                                continue;
                            }
                            let (tokens, plans): (Vec<u64>, Vec<FaultPlan>) =
                                chunk.iter().cloned().unzip();
                            let batch = state.runner.run_batch_contained(plans);
                            results.extend(tokens.into_iter().zip(batch));
                        }
                    }
                }
            }
            announce_degraded(state, &mut degraded_announced, observer);

            // Phase 3: sequential commit in round order.
            let mut wavefront_found_bug = false;
            for candidate in wavefront {
                if state.out_of_budget(params.budget) {
                    return;
                }
                let decision = strategy.decide(candidate);
                state.labels += decision.labels;
                state.cost_seconds += decision.cost_seconds;
                let Some(plan) = decision.plan else { continue };
                // Label charges may themselves exhaust a cost budget;
                // never start a run the budget no longer covers.
                if state.out_of_budget(params.budget) {
                    return;
                }
                let result = take_or_run(&mut results, candidate.token(), plan, state);
                let is_unsafe = state.absorb(&result);
                wavefront_found_bug |= is_unsafe;
                sizer.observe_commit(is_unsafe);
                observer.on_event(&CampaignEvent::RunFinished {
                    simulations: state.simulations,
                    cost_seconds: state.cost_seconds,
                    plan: result.plan.clone(),
                    is_unsafe,
                });
                if is_unsafe {
                    let condition = state
                        .unsafe_conditions
                        .last()
                        // avis-lint: allow(p1, reason = "absorb just returned is_unsafe = true, which always pushes a condition; losing the event would silently drop a found bug")
                        .expect("absorb recorded the condition")
                        .clone();
                    observer.on_event(&CampaignEvent::ViolationFound { condition });
                }
                observer.on_event(&CampaignEvent::BudgetProgress {
                    simulations: state.simulations,
                    cost_seconds: state.cost_seconds,
                    consumed_fraction: params
                        .budget
                        .consumed_fraction(state.simulations, state.cost_seconds),
                });
                strategy.observe(&Observation {
                    candidate,
                    result: &result,
                    is_unsafe,
                });
            }
            // Re-check after the commits: an inline repair run may have
            // tripped the breaker during this very wavefront.
            announce_degraded(state, &mut degraded_announced, observer);
            sizer.observe_wavefront(wavefront_found_bug);
            start = end;
        }
    }
}
