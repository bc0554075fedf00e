//! The checkpoint store: copy-on-write snapshots of mid-run state, held
//! in one LRU-evicted checkpoint tree per campaign, so a scenario can
//! fork from the deepest cached state whose *injection prefix* matches
//! instead of replaying the shared prefix from `t = 0`.
//!
//! # Why this is sound
//!
//! A test run is a pure function of its [`FaultPlan`]: the simulator, the
//! firmware, the injector and the workload are all deterministic given
//! the experiment seed, and the *only* way the plan influences the run is
//! through `should_fail(instance, time)` queries, whose answers depend
//! solely on the failures scheduled at or before the query time. Two
//! plans whose failures scheduled before time `T` are identical therefore
//! drive bit-identical executions up to `T` — everything before the first
//! divergent injection is shared work.
//!
//! The store exploits exactly that: while a run executes, the runner
//! records a [`RunSnapshot`] (simulator + firmware + injector +
//! workload + trace bookkeeping) every [`CheckpointConfig::interval`]
//! simulated seconds, keyed by the quantised injection prefix at the
//! snapshot time. A later run looks up the deepest snapshot whose key
//! matches one of its own prefixes, *verifies the un-quantised
//! prefixes match exactly* (quantisation is a hash key, never a
//! correctness argument) and resumes from there with its own plan swapped
//! in. Runs that fork mid-scenario extend the tree with deeper,
//! prefix-specific branches — hence checkpoint *tree*, not checkpoint
//! list.
//!
//! # Copy-on-write recording
//!
//! Recording is O(1) in the run length. Every growing history that a
//! snapshot captures — the trace samples (runner) and the
//! injection/transition records (injector) — is backed by an
//! [`avis_sim::CowVec`]: at snapshot time the mutable tail is sealed into
//! an immutable `Arc`-shared chunk and the snapshot clones the chunk
//! *list*, not the elements. Snapshots along one run (and forks off it)
//! share the sealed prefix structurally; the memory budget charges each
//! distinct chunk exactly once (a chunk ledger tracks chunk identities),
//! so dense checkpoint intervals do not multiply the sample history.
//! The firmware's defect log needs no sharing: it holds one entry per
//! triggered bug, so it stays a few entries long however long the run.
//!
//! # One cache per campaign
//!
//! A campaign holds exactly one [`SnapshotCache`], behind a
//! [`SharedSnapshotTier`] handle (an experiment-fingerprint claim plus a
//! mutex). Its inline runner and every engine worker fork from and
//! record into that one cache, so one worker's cold run warms every
//! worker, and one memory budget ([`CheckpointConfig::max_bytes`])
//! covers the whole campaign. A caller can hand the same handle to
//! several campaigns over one experiment (a
//! [`crate::matrix::ScenarioMatrix`] does, per firmware × workload
//! pair), and the persistent [`crate::store`] hydrates it at campaign
//! start and flushes it back. A standalone runner owns a private one.
//! The cache holds every cut whole: a fork is one clone of its cut, and
//! a cut that fails its checksum is removed alone.
//!
//! A run's cuts become visible when the call that recorded them
//! returns: the runner buffers them and commits them in one step, so a
//! call that panics never publishes a cut.
//!
//! Injection runs (`seed_offset == 0`) record a cut every interval, and
//! nowhere else. Profiling runs (`seed_offset != 0`) each use a distinct
//! sensor-noise seed, so no other run of their campaign resumes from
//! them: each records exactly one cut, at the first loop top after its
//! workload turns terminal. A profiling plan is empty, so every cut at
//! its seed offset matches, and a later campaign over the same
//! experiment — sharing the cache in this process, or hydrating it from
//! the store — flies only the grace tail of each profiling run.

use crate::contain;
use crate::protocol::ProtocolTracker;
use crate::trace::StateSample;
use avis_firmware::FirmwareSnapshot;
use avis_hinj::{FaultInjector, FaultPlan, FaultSpec, FaultyLink, LinkFaultSpec};
use avis_sim::simulator::{Simulator, StepOutput};
use avis_sim::{CowVec, SensorReading};
use avis_workload::{ScriptedWorkload, WorkloadStatus};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Configuration of the runner's checkpoint store.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Whether the runner records and reuses snapshots at all. Disabled,
    /// every run cold-starts from `t = 0` (the pre-checkpoint behaviour).
    pub enabled: bool,
    /// Simulated seconds between snapshots along a run. Smaller intervals
    /// give forks a deeper resume point but cost more recording time and
    /// memory.
    pub interval: f64,
    /// Memory budget for the campaign's snapshot cache (approximate
    /// bytes). When an insert pushes the total past this, the
    /// least-recently-used snapshots are evicted until it fits again.
    /// `Arc`-shared history chunks are charged once per distinct chunk,
    /// not once per snapshot.
    ///
    /// The budget is **per campaign**: the inline runner and every engine
    /// worker share one cache, whatever the parallelism.
    pub max_bytes: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            enabled: true,
            interval: 5.0,
            max_bytes: 64 * 1024 * 1024,
        }
    }
}

impl CheckpointConfig {
    /// A configuration that disables checkpointing entirely.
    pub fn disabled() -> Self {
        CheckpointConfig {
            enabled: false,
            ..CheckpointConfig::default()
        }
    }

    /// A configuration with the given memory budget (bytes).
    pub fn with_max_bytes(max_bytes: usize) -> Self {
        CheckpointConfig {
            max_bytes,
            ..CheckpointConfig::default()
        }
    }
}

/// Everything the runner needs to resume a run mid-flight: the run's own
/// substrate state plus its loop bookkeeping at the cut point (the top of
/// the lock-step loop, before ground-station traffic for that step is
/// exchanged). A fork swaps its plan into the injector and the link.
///
/// Cloning a `RunSnapshot` is O(1) in the run length: every growing
/// history inside it is an `Arc`-chunked [`CowVec`] (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct RunSnapshot {
    /// Simulator state (vehicle, environment, sensor RNG stream, time).
    pub(crate) sim: Simulator,
    /// Firmware state (estimator, navigator, failsafes, mission, modes).
    pub(crate) firmware: FirmwareSnapshot,
    /// Injector state (records + read counters; plan swapped at restore).
    pub(crate) injector: FaultInjector,
    /// Link fault-shim state (queues, seq counters, RNG stream, storm
    /// dedup; link plan swapped at restore exactly like the injector's).
    pub(crate) link: FaultyLink,
    /// GCS-side protocol-invariant tracker state.
    pub(crate) tracker: ProtocolTracker,
    /// Workload runtime state (script progress, seen telemetry).
    pub(crate) workload: ScriptedWorkload,
    /// Trace samples recorded so far (chunk-shared with the recording
    /// run and with every other snapshot along it).
    pub(crate) samples: CowVec<StateSample>,
    /// The step/telemetry output buffer as of the last simulator step.
    pub(crate) output: StepOutput,
    /// Fence-violation count so far.
    pub(crate) fence_violations: usize,
    /// Next trace-sample time.
    pub(crate) next_sample_time: f64,
    /// Workload status at the cut point.
    pub(crate) workload_status: WorkloadStatus,
    /// When the workload reached a terminal state, if it has.
    pub(crate) terminal_since: Option<f64>,
    /// Simulation time of the cut (s); equals the captured simulator's
    /// clock.
    pub(crate) time: f64,
    /// The exact injection prefix of the recording run at `time`: its
    /// plan's failures scheduled before the cut ([`FaultPlan::before`]).
    pub(crate) prefix: FaultPlan,
}

impl RunSnapshot {
    /// Simulation time of the cut (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The exact injection prefix the snapshot was recorded under.
    pub fn prefix(&self) -> &FaultPlan {
        &self.prefix
    }

    /// Approximate heap bytes *exclusively owned* by this snapshot (the
    /// fixed-size substrate state and unsealed tails). `Arc`-shared
    /// history chunks are visited through [`RunSnapshot::for_each_chunk`]
    /// and charged once per distinct chunk by the cache.
    pub fn approx_bytes(&self) -> usize {
        self.sim.approx_bytes()
            + self.firmware.approx_bytes()
            + self.injector.approx_bytes()
            + self.link.approx_bytes()
            + self.tracker.approx_bytes()
            + self.samples.exclusive_bytes()
            + self.output.readings.len() * std::mem::size_of::<SensorReading>()
            + self.prefix.len() * std::mem::size_of::<FaultSpec>()
            + self.prefix.link_plan().len() * std::mem::size_of::<LinkFaultSpec>()
            // Workload runtime state plus per-snapshot bookkeeping. The
            // script itself (steps, environment) is Arc-shared, not copied.
            + 1024
    }

    /// Visits every `Arc`-shared block the snapshot references —
    /// sample-history chunks, injector record chunks and the environment
    /// — as `(identity, bytes)` pairs.
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        self.samples.for_each_chunk(f);
        self.injector.for_each_chunk(f);
        self.sim.for_each_chunk(f);
    }
}

/// Composite cache key: experiment seed offset, quantised injection
/// prefix, quantised snapshot time. Ordered so one prefix's snapshots
/// ("a chain of the checkpoint tree") are contiguous and time-sorted,
/// which makes deepest-first scans a reverse range iteration.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SnapshotKey {
    pub(crate) seed_offset: u64,
    pub(crate) prefix: String,
    pub(crate) time_ms: i64,
}

impl SnapshotKey {
    fn for_snapshot(seed_offset: u64, snapshot: &RunSnapshot) -> Self {
        SnapshotKey {
            seed_offset,
            prefix: snapshot.prefix.canonical_key(),
            time_ms: (snapshot.time * 1000.0).round() as i64,
        }
    }
}

/// Reference-counted accounting of the distinct `Arc`-shared chunks the
/// cache's snapshots reference, so the memory budget charges each chunk's
/// bytes exactly once however many snapshots share it — the accounting
/// side of copy-on-write.
#[derive(Debug, Clone, Default)]
struct ChunkLedger {
    chunks: BTreeMap<usize, (usize, usize)>, // identity -> (bytes, refs)
    bytes: usize,
}

impl ChunkLedger {
    /// References one chunk, charging its bytes on the first reference.
    fn add_chunk(&mut self, id: usize, bytes: usize) {
        let entry = self.chunks.entry(id).or_insert((bytes, 0));
        if entry.1 == 0 {
            self.bytes += bytes;
        }
        entry.1 += 1;
    }

    /// Releases one reference to a chunk, refunding its bytes when the
    /// last referent goes away.
    fn remove_chunk(&mut self, id: usize) {
        if let Some(entry) = self.chunks.get_mut(&id) {
            entry.1 -= 1;
            if entry.1 == 0 {
                self.bytes -= entry.0;
                self.chunks.remove(&id);
            }
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    /// The cut, held whole (boxed: the map moves entries on insert).
    snapshot: Box<RunSnapshot>,
    bytes: usize,
    /// Record-time checksum over the cut's identity and size (see
    /// [`entry_checksum`]), re-validated before every fork. A mismatch
    /// quarantines the cut instead of serving it.
    checksum: u64,
    last_used: u64,
    /// The runner that recorded the cut, or [`STORE_ORIGIN`].
    origin: u64,
    /// Forks this entry served; the persistent store's GC ranks chains
    /// by it.
    hits: u64,
}

impl CacheEntry {
    /// Whether the entry still matches its record-time checksum.
    fn intact(&self) -> bool {
        entry_checksum(&self.snapshot) == self.checksum
    }
}

/// FNV-1a over `bytes`, continuing from `hash` (seed with
/// [`FNV_OFFSET_BASIS`]).
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The record-time checksum of one cached cut: its time, quantised
/// prefix key and approximate exclusive size. Computed when the cut is
/// stored and re-validated before a run forks from it, so silent
/// corruption of the bookkeeping a fork depends on is detected and
/// quarantined instead of resuming a wrong state.
fn entry_checksum(snapshot: &RunSnapshot) -> u64 {
    let hash = fnv1a(FNV_OFFSET_BASIS, &snapshot.time.to_bits().to_le_bytes());
    let hash = fnv1a(hash, snapshot.prefix.canonical_key().as_bytes());
    fnv1a(hash, &(snapshot.approx_bytes() as u64).to_le_bytes())
}

/// Counters describing how the checkpoint store behaved, surfaced through
/// [`crate::runner::ExperimentRunner::checkpoint_stats`] and reported by
/// the campaign-throughput bench. The four per-run counters
/// ([`forked_runs`](CheckpointStats::forked_runs),
/// [`cold_runs`](CheckpointStats::cold_runs),
/// [`shared_hits`](CheckpointStats::shared_hits),
/// [`simulated_seconds_skipped`](CheckpointStats::simulated_seconds_skipped))
/// belong to the runner that flew the runs; every other field describes
/// the one cache the runner shares with the rest of its campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckpointStats {
    /// Runs that resumed from a snapshot.
    pub forked_runs: u64,
    /// Runs that cold-started from `t = 0` with checkpointing on.
    pub cold_runs: u64,
    /// Forks served from a cut that another runner recorded or the
    /// persistent store hydrated (a subset of
    /// [`CheckpointStats::forked_runs`]).
    pub shared_hits: u64,
    /// Snapshots currently held in the cache.
    pub snapshots_cached: usize,
    /// Approximate bytes currently held (exclusive state plus each
    /// distinct shared chunk counted once).
    pub cached_bytes: usize,
    /// Of [`CheckpointStats::cached_bytes`], the bytes in `Arc`-shared
    /// history chunks — the part copy-on-write de-duplicates across the
    /// snapshots of a run.
    pub chunk_bytes: usize,
    /// Snapshots recorded over the cache's lifetime.
    pub snapshots_recorded: u64,
    /// Snapshots evicted by the memory budget.
    pub snapshots_evicted: u64,
    /// Cuts removed by quarantine: a cut whose record-time checksum no
    /// longer matched when a run tried to fork from it is removed alone
    /// and never served again; that run transparently cold-starts
    /// instead.
    pub quarantined: u64,
    /// Checksum-validation failures observed when forking (one per
    /// failed fork attempt). Reaching the breaker threshold disables
    /// checkpointing for the rest of the cache's life — for every runner
    /// on it, so campaign-wide — and the campaign is notified through
    /// `CampaignEvent::DegradedMode`.
    pub checksum_failures: u64,
    /// Total simulated seconds *not* re-executed thanks to forking (the
    /// sum of fork-point times).
    pub simulated_seconds_skipped: f64,
    /// Chains hydrated from the persistent snapshot store at campaign
    /// start (see [`crate::store`]); `0` when no store was attached.
    pub loaded_chains: u64,
    /// Chains the persistent store holds for this experiment after the
    /// campaign's final flush.
    pub persisted_chains: u64,
    /// Bytes held by the persistent store (blobs plus manifest) after
    /// the campaign's final flush and GC pass.
    pub store_bytes: u64,
    /// Blob writes the persistent store skipped because an identical
    /// content-addressed blob was already on disk — cross-cut and
    /// cross-campaign dedup hits.
    pub dedup_hits: u64,
}

/// The origin of cuts the persistent store hydrated. Runner origins
/// ([`next_origin`]) start above it.
pub(crate) const STORE_ORIGIN: u64 = 0;

/// A recorder identity for a new runner, unique in the process.
pub(crate) fn next_origin() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(STORE_ORIGIN + 1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The memory-budgeted, LRU-evicted snapshot store. Every cut is held
/// whole (see the module docs). Runners reach it through a
/// [`SharedSnapshotTier`].
#[derive(Debug, Clone, Default)]
pub struct SnapshotCache {
    entries: BTreeMap<SnapshotKey, CacheEntry>,
    exclusive_bytes: usize,
    ledger: ChunkLedger,
    max_bytes: usize,
    /// The LRU clock, bumped by every insert and fork.
    clock: u64,
    stats: CheckpointStats,
    /// The checksum breaker: set once
    /// [`CheckpointStats::checksum_failures`] reaches
    /// [`CHECKSUM_BREAKER_THRESHOLD`]. A tripped breaker disables
    /// checkpointing for the rest of the cache's life (every run
    /// cold-starts) — repeated validation failures mean the store cannot
    /// be trusted, and correctness must not depend on it.
    disabled: bool,
}

/// Checksum failures tolerated before the breaker disables checkpointing
/// (see [`SnapshotCache::degraded`]).
const CHECKSUM_BREAKER_THRESHOLD: u64 = 3;

impl SnapshotCache {
    /// An empty cache with the given memory budget (bytes).
    pub fn new(max_bytes: usize) -> Self {
        SnapshotCache {
            max_bytes,
            ..SnapshotCache::default()
        }
    }

    fn total_bytes(&self) -> usize {
        self.exclusive_bytes + self.ledger.bytes
    }

    /// Current statistics: the cache-wide fields (the per-run counters
    /// are the runners').
    pub fn stats(&self) -> CheckpointStats {
        CheckpointStats {
            snapshots_cached: self.entries.len(),
            cached_bytes: self.total_bytes(),
            chunk_bytes: self.ledger.bytes,
            ..self.stats
        }
    }

    /// Whether the checksum breaker has tripped (see
    /// [`CheckpointStats::checksum_failures`]).
    pub(crate) fn degraded(&self) -> bool {
        self.disabled
    }

    /// The deepest entry a run of `plan` may resume from: among every
    /// entry whose quantised key matches one of the plan's own injection
    /// prefixes *and* whose exact prefix equals the plan's exact prefix
    /// at the cut time, the one with the latest cut time at or before
    /// `cap`. A batch leader passes its earliest lane-fork time as `cap`:
    /// forks are taken from the live leader at loop tops, so a deeper cut
    /// would skip past them.
    fn deepest(&self, seed_offset: u64, plan: &FaultPlan, cap: f64) -> Option<SnapshotKey> {
        // The plan's prefix only changes at its own failure times — sensor
        // *or* link — so there are at most `plan.len() + 1` distinct prefixes
        // to probe; probe each one's chain from its deepest snapshot down.
        let mut boundaries: Vec<f64> = plan
            .specs()
            .map(|s| s.time)
            .chain(plan.link_plan().fault_times())
            .collect();
        boundaries.sort_by(f64::total_cmp);
        boundaries.dedup();
        // `FaultPlan::before` is strict (`time < probe`), so probing at
        // boundary `k` selects the prefix *excluding* that boundary's
        // failures — i.e. the failures before it — and f64::INFINITY probes
        // the full-plan prefix. Together the probes enumerate every distinct
        // prefix of the plan.
        let mut best: Option<(f64, &SnapshotKey)> = None;
        for probe in boundaries.into_iter().chain([f64::INFINITY]) {
            let prefix = plan.before(probe).canonical_key();
            let lo = SnapshotKey {
                seed_offset,
                prefix: prefix.clone(),
                time_ms: i64::MIN,
            };
            let hi = SnapshotKey {
                seed_offset,
                prefix,
                time_ms: i64::MAX,
            };
            for (key, entry) in self.entries.range(lo..=hi).rev() {
                let cut = &entry.snapshot;
                if cut.time > cap {
                    continue; // too deep for the caller; shallower cuts may fit
                }
                // Exact validity guard: the plan's exact prefix at the
                // snapshot's cut time must equal the recorded prefix. This
                // rejects both quantisation collisions and snapshots cut
                // *after* one of the plan's failures that the recording run
                // did not inject.
                if plan.before(cut.time) == cut.prefix {
                    if best.is_none_or(|(t, _)| cut.time > t) {
                        best = Some((cut.time, key));
                    }
                    break; // deeper entries of this chain are shallower in time
                }
            }
        }
        best.map(|(_, key)| key.clone())
    }

    /// Takes a copy of the deepest cut a run of `plan` may resume from at
    /// or before `cap`, together with the cut's origin, and refreshes the
    /// cut's LRU stamp. The cut is checksum-validated first: a corrupt
    /// cut is quarantined (counted in [`CheckpointStats::quarantined`]),
    /// one [`CheckpointStats::checksum_failures`] is charged, the breaker
    /// is advanced, and `None` comes back — the caller cold-starts.
    pub(crate) fn take_deepest(
        &mut self,
        seed_offset: u64,
        plan: &FaultPlan,
        cap: f64,
    ) -> Option<(RunSnapshot, u64)> {
        let key = self.deepest(seed_offset, plan, cap)?;
        if !self.entries.get(&key)?.intact() {
            self.remove(&key);
            self.stats.quarantined += 1;
            self.stats.checksum_failures += 1;
            if self.stats.checksum_failures >= CHECKSUM_BREAKER_THRESHOLD {
                self.disabled = true;
            }
            return None;
        }
        self.clock += 1;
        let entry = self.entries.get_mut(&key)?;
        entry.last_used = self.clock;
        entry.hits += 1;
        Some(((*entry.snapshot).clone(), entry.origin))
    }

    /// Commits the cuts one call recorded, in recording order. A cell
    /// that is already occupied keeps its earlier recording. After each
    /// insert, least-recently-used cuts are evicted until the memory
    /// budget is respected again — with a budget too small for even one
    /// cut, the fresh cut itself goes again.
    pub(crate) fn commit(&mut self, seed_offset: u64, cuts: Vec<RunSnapshot>, origin: u64) {
        for cut in cuts {
            let key = SnapshotKey::for_snapshot(seed_offset, &cut);
            if self.entries.contains_key(&key) {
                continue;
            }
            let bytes = cut.approx_bytes();
            let ledger = &mut self.ledger;
            cut.for_each_chunk(&mut |id, chunk_bytes| ledger.add_chunk(id, chunk_bytes));
            self.clock += 1;
            self.entries.insert(
                key,
                CacheEntry {
                    checksum: entry_checksum(&cut),
                    snapshot: Box::new(cut),
                    bytes,
                    last_used: self.clock,
                    origin,
                    hits: 0,
                },
            );
            self.exclusive_bytes += bytes;
            self.stats.snapshots_recorded += 1;
            while self.total_bytes() > self.max_bytes {
                let Some(lru) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                else {
                    break; // empty cache: only the fixed overhead remains
                };
                self.remove(&lru);
                self.stats.snapshots_evicted += 1;
            }
        }
    }

    /// Removes the cut at `key` and releases its bytes — the core shared
    /// by budget eviction and quarantine.
    fn remove(&mut self, key: &SnapshotKey) {
        if let Some(entry) = self.entries.remove(key) {
            self.exclusive_bytes -= entry.bytes;
            let ledger = &mut self.ledger;
            entry
                .snapshot
                .for_each_chunk(&mut |id, _| ledger.remove_chunk(id));
        }
    }

    /// Every cached cut's key and the forks it served, in key order: the
    /// cuts of one `(seed offset, quantised prefix)` chain are contiguous
    /// and time-ordered.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (&SnapshotKey, u64)> {
        self.entries.iter().map(|(key, entry)| (key, entry.hits))
    }

    /// The cut at `key`, for the persistent store's flush, leaving LRU
    /// state and statistics alone. `None` when the cut is gone or fails
    /// its checksum.
    pub(crate) fn export(&self, key: &SnapshotKey) -> Option<&RunSnapshot> {
        let entry = self.entries.get(key).filter(|e| e.intact())?;
        Some(&entry.snapshot)
    }

    /// Test hook: flips the stored cut time of every entry (a silent
    /// single-byte store corruption), leaving the record-time checksums
    /// untouched — the next fork from a corrupted cut must detect the
    /// mismatch.
    #[doc(hidden)]
    pub(crate) fn corrupt_entries_for_test(&mut self) {
        for entry in self.entries.values_mut() {
            entry.snapshot.time = f64::from_bits(entry.snapshot.time.to_bits() ^ 1);
        }
    }
}

/// The handle through which runners share one [`SnapshotCache`]: a
/// campaign's, a caller's handed to several campaigns, or a standalone
/// runner's private one (see the [module docs](self)).
#[derive(Debug)]
pub struct SharedSnapshotTier {
    /// Fingerprint of the experiment whose snapshots the cache holds,
    /// claimed by the first runner or store that attaches. Snapshot keys
    /// encode only the injection prefix — state equivalence additionally
    /// needs the *same experiment* (firmware, bugs, workload, simulation
    /// parameters, seed) — so a runner whose experiment fingerprint
    /// differs from the claim refuses to attach.
    fingerprint: Mutex<Option<String>>,
    cache: Mutex<SnapshotCache>,
}

impl SharedSnapshotTier {
    /// An empty cache with the given memory budget (bytes).
    pub fn new(max_bytes: usize) -> Self {
        SharedSnapshotTier {
            fingerprint: Mutex::new(None),
            cache: Mutex::new(SnapshotCache::new(max_bytes)),
        }
    }

    /// Claims the cache for an experiment: the first caller's fingerprint
    /// sticks, later callers get `true` only when theirs matches. A
    /// mismatch means the caller must not attach (its runs would fork
    /// from another experiment's state).
    pub(crate) fn claim(&self, fingerprint: &str) -> bool {
        let mut claimed = contain::lock(&self.fingerprint);
        match claimed.as_deref() {
            Some(existing) => existing == fingerprint,
            None => {
                *claimed = Some(fingerprint.to_string());
                true
            }
        }
    }

    /// The cache's statistics (see [`SnapshotCache::stats`]).
    pub fn stats(&self) -> CheckpointStats {
        self.lock().stats()
    }

    /// Locks the cache (see [`contain::lock`]).
    pub(crate) fn lock(&self) -> MutexGuard<'_, SnapshotCache> {
        contain::lock(&self.cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_sim::{SensorInstance, SensorKind};

    fn genesis() -> RunSnapshot {
        use crate::runner::{ExperimentConfig, ExperimentRunner};
        use avis_firmware::{BugSet, FirmwareProfile};
        use avis_workload::auto_box_mission;

        let cfg = ExperimentConfig::new(
            FirmwareProfile::ArduPilotLike,
            BugSet::none(),
            auto_box_mission(),
        );
        ExperimentRunner::genesis_snapshot(&cfg, 0)
    }

    fn spec(kind: SensorKind, index: u8, time: f64) -> FaultSpec {
        FaultSpec::new(SensorInstance::new(kind, index), time)
    }

    #[test]
    fn prefix_cache_key_is_order_independent_and_quantised() {
        let genesis = genesis();
        let cut = |prefix: FaultPlan| RunSnapshot {
            time: 30.0,
            prefix,
            ..genesis.clone()
        };
        let key = |specs: Vec<FaultSpec>| {
            SnapshotKey::for_snapshot(0, &cut(FaultPlan::from_specs(specs))).prefix
        };
        let a = key(vec![
            spec(SensorKind::Gps, 0, 10.0),
            spec(SensorKind::Barometer, 1, 20.0),
        ]);
        let b = key(vec![
            spec(SensorKind::Barometer, 1, 20.0),
            spec(SensorKind::Gps, 0, 10.0),
        ]);
        assert_eq!(a, b);
        assert_eq!(key(Vec::new()), "");
        let c = key(vec![spec(SensorKind::Gps, 0, 10.0001)]);
        let d = key(vec![spec(SensorKind::Gps, 0, 10.0004)]);
        // Sub-millisecond times collide in key space by design…
        assert_eq!(c, d);
        // …and differ at millisecond granularity.
        assert_ne!(c, key(vec![spec(SensorKind::Gps, 0, 10.001)]));
        // The cache compares exact prefixes before serving a cut, so a
        // collided key never hands one plan's cut to the other.
        let recorded = FaultPlan::from_specs(vec![spec(SensorKind::Gps, 0, 10.0001)]);
        let sibling = FaultPlan::from_specs(vec![spec(SensorKind::Gps, 0, 10.0004)]);
        let mut cache = SnapshotCache::new(usize::MAX);
        cache.commit(0, vec![cut(recorded.clone())], 1);
        assert!(cache.take_deepest(0, &sibling, 40.0).is_none());
        assert!(cache.take_deepest(0, &recorded, 40.0).is_some());
    }

    #[test]
    fn checkpoint_config_defaults_and_constructors() {
        let cfg = CheckpointConfig::default();
        assert!(cfg.enabled);
        assert!(cfg.interval > 0.0);
        assert!(cfg.max_bytes > 0);
        assert!(!CheckpointConfig::disabled().enabled);
        assert_eq!(CheckpointConfig::with_max_bytes(123).max_bytes, 123);
    }

    #[test]
    fn corrupt_cut_is_quarantined_alone() {
        let genesis = genesis();
        let cut = |time: f64| RunSnapshot {
            time,
            ..genesis.clone()
        };
        let mut cache = SnapshotCache::new(usize::MAX);
        cache.commit(0, vec![cut(5.0), cut(10.0), cut(15.0)], 1);
        cache.corrupt_entries_for_test();
        // The deepest cut fails its checksum: it goes, its elders stay.
        assert!(cache.take_deepest(0, &FaultPlan::empty(), 20.0).is_none());
        let stats = cache.stats();
        assert_eq!((stats.quarantined, stats.checksum_failures), (1, 1));
        assert_eq!(stats.snapshots_cached, 2);
        assert_eq!(stats.snapshots_evicted, 0);
    }

    #[test]
    fn chunk_ledger_counts_each_chunk_once() {
        // Two "snapshots" sharing chunk 1: its bytes are charged once,
        // stay charged while either referent lives, and are refunded
        // only when the last referent is removed.
        let mut ledger = ChunkLedger::default();
        for &(id, bytes) in &[(1, 100), (2, 50)] {
            ledger.add_chunk(id, bytes);
        }
        for &(id, bytes) in &[(1, 100), (3, 25)] {
            ledger.add_chunk(id, bytes);
        }
        assert_eq!(ledger.bytes, 175);
        // Removing one referent of chunk 1 keeps its bytes charged…
        ledger.remove_chunk(1);
        assert_eq!(ledger.bytes, 175);
        // …and removing the last one refunds exactly its bytes.
        ledger.remove_chunk(1);
        assert_eq!(ledger.bytes, 75);
        // Unknown ids are ignored (snapshots evicted twice cannot
        // corrupt the accounting).
        ledger.remove_chunk(99);
        assert_eq!(ledger.bytes, 75);
        ledger.remove_chunk(2);
        ledger.remove_chunk(3);
        assert_eq!(ledger.bytes, 0);
        assert!(ledger.chunks.is_empty());
    }
}
