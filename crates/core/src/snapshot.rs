//! The checkpoint store: copy-on-write snapshots of mid-run state, held
//! in one LRU-evicted delta-chain tree per campaign, so a scenario can
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
//! snapshot captures — the trace samples (runner), the defect log
//! (firmware), the injection/transition records (injector) — is backed
//! by an [`avis_sim::CowVec`]: at snapshot time the mutable tail is
//! sealed into an immutable `Arc`-shared chunk and the snapshot clones
//! the chunk *list*, not the elements. Snapshots along one run (and forks
//! off it) share the sealed prefix structurally; the memory budget
//! charges each distinct chunk exactly once (a chunk ledger tracks
//! chunk identities), so dense checkpoint intervals no longer multiply
//! the sample history.
//!
//! # Delta-encoded chains
//!
//! Copy-on-write removes the *history* cost of dense checkpointing, but
//! every snapshot still cloned the full fixed-size substrate state
//! (vehicle + sensors + firmware control stack). The cache therefore
//! stores each chain as **one full keyframe plus per-cut deltas**: every
//! [`CheckpointConfig::keyframe_stride`]-th cut of a run is held whole,
//! and the cuts between are held as the per-layer dynamic
//! slice ([`SimSnapshot::diff`], [`avis_firmware::FirmwareSnapshot::diff`],
//! [`avis_hinj::InjectorSnapshot::diff`]) against the previous cut —
//! static structure (configuration, parameters, environment, seed-time
//! biases, unchanged mission/failsafe/defect state) lives once per
//! keyframe. Restoring a delta cut walks the chain from its keyframe and
//! applies each delta in order (bounded by the stride); eviction is
//! chain-aware (evicting an entry also evicts the deltas diffed against
//! it) and the ledger charges delta bytes exactly like full-snapshot
//! bytes. Encoding never changes a result: re-materialisation is
//! bit-exact, so a fork from a delta cut is bit-identical to a fork from
//! a full snapshot — and memory budgets admit several times more
//! resident cuts per MiB.
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
//!
//! A run's cuts become visible when the call that recorded them
//! returns: the runner buffers them and commits them in one step, so a
//! call that panics never publishes a cut. A delta is stored only
//! against the exact entry it was diffed from — an entry id checked
//! under the lock — because another runner may evict that entry (and
//! re-record a colliding cell) between the fork and the commit.
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
use avis_firmware::{FirmwareDelta, FirmwareSnapshot};
use avis_hinj::{
    FaultPlan, FaultSpec, InjectorDelta, InjectorSnapshot, LinkDelta, LinkFaultSpec, LinkSnapshot,
};
use avis_sim::codec::{ByteReader, ByteWriter, CodecResult};
use avis_sim::cow::{ChunkSink, ChunkSource};
use avis_sim::simulator::StepOutput;
use avis_sim::{CowDelta, CowVec, PackedStepOutput, SensorReading, SimDelta, SimSnapshot};
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
    /// Delta-chain keyframe stride: along one recording run, every
    /// `keyframe_stride`-th cut stores a *full* snapshot (a keyframe) and
    /// the cuts between them store per-layer deltas against the previous
    /// cut (see [`RunSnapshot::diff`]). Restoring a delta cut walks the
    /// chain from its keyframe, so larger strides trade a little restore
    /// work for far more resident cuts per MiB of budget. `1` stores only
    /// full snapshots (the pre-delta behaviour). Encoding never changes a
    /// result — a run forked from a re-materialised delta cut is
    /// bit-identical to one forked from a full snapshot.
    pub keyframe_stride: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            enabled: true,
            interval: 5.0,
            max_bytes: 64 * 1024 * 1024,
            keyframe_stride: 8,
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

    /// A configuration with the given delta-chain keyframe stride
    /// (`1` = full snapshots only, the pre-delta behaviour).
    pub fn with_keyframe_stride(keyframe_stride: usize) -> Self {
        CheckpointConfig {
            keyframe_stride,
            ..CheckpointConfig::default()
        }
    }
}

/// The failures of a plan scheduled strictly before a cut time, across
/// *both* injection surfaces: sensor failures and protocol-level link
/// faults. Two plans with equal prefixes at `t` drive bit-identical
/// executions on `[0, t)` — the link fault shim, like the sensor
/// injector, only consults faults scheduled before the current step.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InjectionPrefix {
    pub(crate) sensor: Vec<FaultSpec>,
    pub(crate) link: Vec<LinkFaultSpec>,
}

impl InjectionPrefix {
    /// Whether no failure of either surface precedes the cut.
    pub fn is_empty(&self) -> bool {
        self.sensor.is_empty() && self.link.is_empty()
    }

    /// Total number of failures in the prefix (both surfaces).
    pub fn len(&self) -> usize {
        self.sensor.len() + self.link.len()
    }

    /// Serialise the prefix for the persistent store.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.seq(&self.sensor, |w, s| s.encode(w));
        w.seq(&self.link, |w, s| s.encode(w));
    }

    /// Decode a prefix previously written by [`InjectionPrefix::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<InjectionPrefix> {
        Ok(InjectionPrefix {
            sensor: r.seq(FaultSpec::decode)?,
            link: r.seq(LinkFaultSpec::decode)?,
        })
    }
}

/// The failures of `plan` scheduled strictly before `t` — the *injection
/// prefix* that fully determines the run's behaviour on `[0, t)`.
/// (A failure scheduled exactly at `t` first fires at the firmware step
/// at `t`, which happens after a snapshot taken at loop-top time `t`.)
pub(crate) fn injection_prefix(plan: &FaultPlan, t: f64) -> InjectionPrefix {
    InjectionPrefix {
        sensor: plan.specs().filter(|s| s.time < t).collect(),
        link: plan
            .link_plan()
            .specs()
            .iter()
            .filter(|s| s.time < t)
            .copied()
            .collect(),
    }
}

/// The millisecond-quantised cache key of an injection prefix. Purely a
/// lookup key: before a snapshot is reused, the exact (`f64`) prefixes
/// are compared, so two plans that collide in quantised space can never
/// contaminate each other's results. Link faults contribute their
/// canonical parts, so a link-fault plan's snapshots can never collide
/// with a sensor-only sibling's.
pub(crate) fn prefix_cache_key(prefix: &InjectionPrefix) -> String {
    let mut parts: Vec<String> = prefix
        .sensor
        .iter()
        .map(|s| {
            format!(
                "{}:{}:{}",
                s.instance.kind.name(),
                s.instance.index,
                (s.time * 1000.0).round() as i64
            )
        })
        .collect();
    parts.extend(prefix.link.iter().map(|s| s.canonical_part()));
    parts.sort();
    parts.join("|")
}

/// Everything the runner needs to resume a run mid-flight: the three
/// substrate snapshots plus the runner's own loop bookkeeping at the cut
/// point (the top of the lock-step loop, before ground-station traffic
/// for that step is exchanged).
///
/// Cloning a `RunSnapshot` is O(1) in the run length: every growing
/// history inside it is an `Arc`-chunked [`CowVec`] (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct RunSnapshot {
    /// Simulator state (vehicle, environment, sensor RNG stream, time).
    pub(crate) sim: SimSnapshot,
    /// Firmware state (estimator, navigator, failsafes, mission, modes).
    pub(crate) firmware: FirmwareSnapshot,
    /// Injector state (records + read counters; plan swapped at restore).
    pub(crate) injector: InjectorSnapshot,
    /// Link fault-shim state (queues, seq counters, RNG stream, storm
    /// dedup; link plan swapped at restore exactly like the injector's).
    pub(crate) link: LinkSnapshot,
    /// GCS-side protocol-invariant tracker state.
    pub(crate) tracker: ProtocolTracker,
    /// Workload runtime state (script progress, seen telemetry).
    pub(crate) workload: ScriptedWorkload,
    /// Trace samples recorded so far (chunk-shared with the recording
    /// run and with every other snapshot along the same chain).
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
    /// The exact injection prefix of the recording run at `time`.
    pub(crate) prefix: InjectionPrefix,
}

impl RunSnapshot {
    /// Simulation time of the cut (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The exact injection prefix the snapshot was recorded under.
    pub fn prefix(&self) -> &InjectionPrefix {
        &self.prefix
    }

    /// Approximate heap bytes *exclusively owned* by this snapshot (the
    /// fixed-size substrate state and unsealed tails). `Arc`-shared
    /// history chunks are visited through [`RunSnapshot::for_each_chunk`]
    /// and charged once per distinct chunk by the stores.
    pub fn approx_bytes(&self) -> usize {
        self.sim.approx_bytes()
            + self.firmware.approx_bytes()
            + self.injector.approx_bytes()
            + self.link.approx_bytes()
            + self.tracker.approx_bytes()
            + self.samples.exclusive_bytes()
            + self.output.readings.len() * std::mem::size_of::<SensorReading>()
            + self.prefix.sensor.len() * std::mem::size_of::<FaultSpec>()
            + self.prefix.link.len() * std::mem::size_of::<LinkFaultSpec>()
            // Workload runtime state plus per-snapshot bookkeeping. The
            // script itself (steps, environment) is Arc-shared, not copied.
            + 1024
    }

    /// Visits every `Arc`-shared block the snapshot references —
    /// sample-history chunks, firmware defect-log chunks, injector
    /// record chunks and the environment — as `(identity, bytes)` pairs.
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        self.samples.for_each_chunk(f);
        self.firmware.for_each_chunk(f);
        self.injector.for_each_chunk(f);
        self.sim.for_each_chunk(f);
    }

    /// The delta from `prev` (an earlier cut of the same run, or the cut
    /// this run forked from) to this snapshot: each substrate layer
    /// contributes its own delta (see [`SimSnapshot::diff`],
    /// [`FirmwareSnapshot::diff`], [`InjectorSnapshot::diff`]) and the
    /// runner-level bookkeeping rides along — the sample history as an
    /// `Arc`-chunk-shared list, everything else by value. A delta is a
    /// fraction of a full snapshot's exclusive bytes, which is what lets
    /// dense chains stay resident under a fixed memory budget.
    pub fn diff(&self, prev: &RunSnapshot) -> RunDelta {
        RunDelta {
            sim: self.sim.diff(&prev.sim),
            firmware: self.firmware.diff(&prev.firmware),
            injector: self.injector.diff(&prev.injector),
            link: self.link.diff(&prev.link),
            tracker: self.tracker.clone(),
            workload: self.workload.clone(),
            samples: self.samples.delta_from(&prev.samples),
            output: PackedStepOutput::pack(&self.output),
            fence_violations: self.fence_violations,
            next_sample_time: self.next_sample_time,
            workload_status: self.workload_status.clone(),
            terminal_since: self.terminal_since,
            time: self.time,
            prefix: self.prefix.clone(),
        }
    }

    /// Re-materialises the snapshot `delta` was diffed *to*, using `self`
    /// as the base it was diffed *from* — the restore step of a delta
    /// chain walk. Bit-exact: `base.apply(&cut.diff(&base)) == cut` for
    /// every pair of cuts along one run.
    pub fn apply(&self, delta: &RunDelta) -> RunSnapshot {
        RunSnapshot {
            sim: self.sim.apply(&delta.sim),
            firmware: self.firmware.apply(&delta.firmware),
            injector: self.injector.apply(&delta.injector),
            link: self.link.apply(&delta.link),
            tracker: delta.tracker.clone(),
            workload: delta.workload.clone(),
            samples: CowVec::apply_delta(&self.samples, &delta.samples),
            output: delta.output.unpack(),
            fence_violations: delta.fence_violations,
            next_sample_time: delta.next_sample_time,
            workload_status: delta.workload_status.clone(),
            terminal_since: delta.terminal_since,
            time: delta.time,
            prefix: delta.prefix.clone(),
        }
    }
}

/// The delta-encoded form of a [`RunSnapshot`]: the dynamic slice of
/// every substrate layer relative to the previous cut of the same chain
/// (see [`RunSnapshot::diff`]). The static structure — configuration,
/// parameters, environment, seed-time biases — lives once in the chain's
/// base keyframe.
#[derive(Debug, Clone)]
pub struct RunDelta {
    sim: SimDelta,
    firmware: FirmwareDelta,
    injector: InjectorDelta,
    link: LinkDelta,
    tracker: ProtocolTracker,
    workload: ScriptedWorkload,
    samples: CowDelta<StateSample>,
    output: PackedStepOutput,
    fence_violations: usize,
    next_sample_time: f64,
    workload_status: WorkloadStatus,
    terminal_since: Option<f64>,
    time: f64,
    prefix: InjectionPrefix,
}

impl RunDelta {
    /// Simulation time of the encoded cut (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Approximate heap + inline bytes *exclusively owned* by the delta.
    /// `Arc`-shared history chunks are visited through
    /// [`RunDelta::for_each_chunk`] and charged once per distinct chunk
    /// by the stores.
    pub fn approx_bytes(&self) -> usize {
        self.sim.approx_bytes()
            + self.firmware.approx_bytes()
            + self.injector.approx_bytes()
            + self.link.approx_bytes()
            + self.tracker.approx_bytes()
            + self.samples.exclusive_bytes()
            + self.output.approx_bytes()
            + self.prefix.sensor.len() * std::mem::size_of::<FaultSpec>()
            + self.prefix.link.len() * std::mem::size_of::<LinkFaultSpec>()
            // Workload runtime state plus per-delta bookkeeping (the
            // script itself is Arc-shared, not copied).
            + 256
    }

    /// Visits every `Arc`-shared block the delta references as
    /// `(identity, bytes)` pairs (see [`RunSnapshot::for_each_chunk`]).
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        self.samples.for_each_chunk(f);
        self.firmware.for_each_chunk(f);
        self.injector.for_each_chunk(f);
    }

    /// Serialises the delta for the persistent store. History chunks
    /// (trace samples, firmware defect log, injector records) go to
    /// `sink` content-addressed; everything else is written inline.
    pub fn encode(&self, w: &mut ByteWriter, sink: &mut dyn ChunkSink) {
        self.sim.encode(w);
        self.firmware.encode(w, sink);
        self.injector.encode(w, sink);
        self.link.encode(w);
        self.tracker.encode(w);
        self.workload.encode_runtime(w);
        self.samples
            .encode_chunked(w, sink, &mut |w, s: &StateSample| s.encode(w));
        self.output.encode(w);
        w.usize(self.fence_violations);
        w.f64(self.next_sample_time);
        self.workload_status.encode(w);
        w.option(self.terminal_since.as_ref(), |w, t| w.f64(*t));
        w.f64(self.time);
        self.prefix.encode(w);
    }

    /// Restores a delta serialised by [`RunDelta::encode`].
    ///
    /// `workload_template` supplies the static script structure (steps,
    /// name, environment, timeout), which is derived from the experiment
    /// configuration and never persisted — only the runtime progress is
    /// read from the byte stream (see
    /// [`ScriptedWorkload::decode_runtime`]).
    pub fn decode(
        r: &mut ByteReader<'_>,
        source: &mut dyn ChunkSource,
        workload_template: &ScriptedWorkload,
    ) -> CodecResult<RunDelta> {
        Ok(RunDelta {
            sim: SimDelta::decode(r)?,
            firmware: FirmwareDelta::decode(r, source)?,
            injector: InjectorDelta::decode(r, source)?,
            link: LinkDelta::decode(r)?,
            tracker: ProtocolTracker::decode(r)?,
            workload: workload_template.decode_runtime(r)?,
            samples: CowDelta::decode_chunked(r, source, &mut StateSample::decode)?,
            output: PackedStepOutput::decode(r)?,
            fence_violations: r.usize()?,
            next_sample_time: r.f64()?,
            workload_status: WorkloadStatus::decode(r)?,
            terminal_since: r.option(|r| r.f64())?,
            time: r.f64()?,
            prefix: InjectionPrefix::decode(r)?,
        })
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
            prefix: prefix_cache_key(&snapshot.prefix),
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

/// How one cut is physically held by the cache: a full snapshot (a
/// chain keyframe) or a delta against its parent cut.
#[derive(Debug, Clone)]
enum StoredRun {
    Full(Box<RunSnapshot>),
    Delta {
        /// The cut this delta was diffed against. Materialising walks
        /// parent links until it reaches a [`StoredRun::Full`] keyframe;
        /// the walk is bounded by [`CheckpointConfig::keyframe_stride`].
        parent: SnapshotKey,
        delta: Box<RunDelta>,
    },
}

impl StoredRun {
    fn approx_bytes(&self) -> usize {
        match self {
            StoredRun::Full(snapshot) => snapshot.approx_bytes(),
            StoredRun::Delta { delta, .. } => delta.approx_bytes(),
        }
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        match self {
            StoredRun::Full(snapshot) => snapshot.for_each_chunk(f),
            StoredRun::Delta { delta, .. } => delta.for_each_chunk(f),
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    payload: StoredRun,
    /// Cut time (s) — duplicated out of the payload so probes never
    /// materialise a delta chain.
    time: f64,
    /// Exact injection prefix at the cut — the probe's validity guard.
    prefix: InjectionPrefix,
    /// Chain depth: 0 for a keyframe, parent depth + 1 for a delta.
    depth: usize,
    bytes: usize,
    /// Record-time checksum over the entry's identity and payload shape
    /// (see [`entry_checksum`]), re-validated on every materialisation.
    /// A mismatch quarantines the whole chain instead of serving it.
    checksum: u64,
    last_used: u64,
    /// Unique per insert. A chain parent is named by key *and* id, so a
    /// delta is never stored against another entry that re-occupied the
    /// parent's cell after an eviction.
    id: u64,
    /// The runner that recorded the cut, or [`STORE_ORIGIN`].
    origin: u64,
    /// Forks this entry served; the persistent store's GC ranks chains
    /// by it.
    hits: u64,
}

impl CacheEntry {
    /// Whether the entry still matches its record-time checksum.
    fn intact(&self) -> bool {
        entry_checksum(self.time, &self.prefix, &self.payload) == self.checksum
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

/// The record-time checksum of one cache entry: cut time, quantised
/// prefix key, payload form (keyframe vs delta, and the delta's parent
/// key) and the payload's approximate exclusive size. Computed when the
/// entry is stored and re-validated link by link when a chain is
/// materialised, so silent store corruption — a flipped byte in the
/// bookkeeping a chain walk depends on — is detected and quarantined
/// instead of resuming a wrong state.
fn entry_checksum(time: f64, prefix: &InjectionPrefix, payload: &StoredRun) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET_BASIS, &time.to_bits().to_le_bytes());
    hash = fnv1a(hash, prefix_cache_key(prefix).as_bytes());
    match payload {
        StoredRun::Full(snapshot) => {
            hash = fnv1a(hash, &[1]);
            hash = fnv1a(hash, &snapshot.time.to_bits().to_le_bytes());
        }
        StoredRun::Delta { parent, delta } => {
            hash = fnv1a(hash, &[2]);
            hash = fnv1a(hash, parent.prefix.as_bytes());
            hash = fnv1a(hash, &parent.time_ms.to_le_bytes());
            hash = fnv1a(hash, &delta.time.to_bits().to_le_bytes());
        }
    }
    fnv1a(hash, &(payload.approx_bytes() as u64).to_le_bytes())
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
    /// snapshots of a chain.
    pub chunk_bytes: usize,
    /// Of [`CheckpointStats::snapshots_cached`], the cuts held as
    /// per-layer deltas against their chain parent rather than as full
    /// keyframes (see [`CheckpointConfig::keyframe_stride`]).
    pub delta_snapshots: usize,
    /// Exclusive bytes held by the delta-encoded cuts alone — the part of
    /// [`CheckpointStats::cached_bytes`] that delta encoding shrinks.
    pub delta_bytes: usize,
    /// Snapshots recorded over the cache's lifetime.
    pub snapshots_recorded: u64,
    /// Snapshots evicted by the memory budget.
    pub snapshots_evicted: u64,
    /// Snapshots removed by quarantine: chain links whose record-time
    /// checksum no longer matched at materialisation, with every delta
    /// cut that depends on them. Quarantined entries are never served
    /// again; the affected runs transparently cold-start instead.
    pub quarantined: u64,
    /// Checksum-validation failures observed while materialising chains
    /// (one per failed fork attempt, however many links the quarantine
    /// then removed). Reaching the breaker threshold disables
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
    /// Chains the campaign flushed to the persistent store.
    pub persisted_chains: u64,
    /// Bytes held by the persistent store (blobs plus manifest) after
    /// the campaign's final flush and GC pass.
    pub store_bytes: u64,
    /// Blob writes the persistent store skipped because an identical
    /// content-addressed blob was already on disk — cross-cut and
    /// cross-campaign dedup hits.
    pub dedup_hits: u64,
}

/// The chain context of a cut about to be committed: the cache entry it
/// continues (key and id) plus that entry's exact snapshot, which the
/// cut is diffed against.
#[derive(Debug, Clone)]
pub(crate) struct ChainParent {
    pub(crate) key: SnapshotKey,
    pub(crate) id: u64,
    pub(crate) snapshot: RunSnapshot,
}

/// The origin of cuts the persistent store hydrated. Runner origins
/// ([`next_origin`]) start above it.
pub(crate) const STORE_ORIGIN: u64 = 0;

/// A recorder identity for a new runner, unique in the process.
pub(crate) fn next_origin() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(STORE_ORIGIN + 1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The memory-budgeted, LRU-evicted snapshot store. Cuts along one run
/// are held as delta chains — one full keyframe every
/// [`CheckpointConfig::keyframe_stride`] cuts, per-layer deltas in
/// between — so a fixed budget keeps several times more cuts resident
/// (see the module docs). Runners reach it through a
/// [`SharedSnapshotTier`].
#[derive(Debug, Clone, Default)]
pub struct SnapshotCache {
    entries: BTreeMap<SnapshotKey, CacheEntry>,
    /// Reverse dependency index: keyframe/delta key -> the delta entries
    /// diffed directly against it. Evicting an entry must also evict its
    /// transitive dependents (their chains can no longer materialise).
    dependents: BTreeMap<SnapshotKey, Vec<SnapshotKey>>,
    exclusive_bytes: usize,
    ledger: ChunkLedger,
    max_bytes: usize,
    /// The LRU clock, bumped by every insert and fork; an entry's id is
    /// the clock value at its insert.
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
        let (delta_snapshots, delta_bytes) = self
            .entries
            .values()
            .filter(|e| matches!(e.payload, StoredRun::Delta { .. }))
            .fold((0usize, 0usize), |(n, b), e| (n + 1, b + e.bytes));
        CheckpointStats {
            snapshots_cached: self.entries.len(),
            cached_bytes: self.total_bytes(),
            chunk_bytes: self.ledger.bytes,
            delta_snapshots,
            delta_bytes,
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
        // `injection_prefix` is strict (`time < probe`), so probing at
        // boundary `k` selects the prefix *excluding* that boundary's
        // failures — i.e. the failures before it — and f64::INFINITY probes
        // the full-plan prefix. Together the probes enumerate every distinct
        // prefix of the plan.
        let mut best: Option<(f64, &SnapshotKey)> = None;
        for probe in boundaries.into_iter().chain([f64::INFINITY]) {
            let prefix = prefix_cache_key(&injection_prefix(plan, probe));
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
                if entry.time > cap {
                    continue; // too deep for the caller; shallower cuts may fit
                }
                // Exact validity guard: the plan's exact prefix at the
                // snapshot's cut time must equal the recorded prefix. This
                // rejects both quantisation collisions and snapshots cut
                // *after* one of the plan's failures that the recording run
                // did not inject.
                if injection_prefix(plan, entry.time) == entry.prefix {
                    if best.is_none_or(|(t, _)| entry.time > t) {
                        best = Some((entry.time, key));
                    }
                    break; // deeper entries of this chain are shallower in time
                }
            }
        }
        best.map(|(_, key)| key.clone())
    }

    /// The chain of keys from `key` down to (and including) its keyframe.
    /// Cascade eviction keeps every link of a resident delta resident.
    fn chain_of(&self, key: &SnapshotKey) -> Vec<SnapshotKey> {
        let mut chain = vec![key.clone()];
        while let Some(StoredRun::Delta { parent, .. }) = chain
            .last()
            .and_then(|link| self.entries.get(link))
            .map(|e| &e.payload)
        {
            chain.push(parent.clone());
        }
        chain
    }

    /// Rebuilds the cut at the head of `chain` (as returned by
    /// [`SnapshotCache::chain_of`]): clones the keyframe at its end and
    /// applies each delta in order. `None` when a link is missing or
    /// fails its record-time checksum.
    fn materialise(&self, chain: &[SnapshotKey]) -> Option<RunSnapshot> {
        let (root, links) = chain.split_last()?;
        let root = self.entries.get(root).filter(|e| e.intact())?;
        let StoredRun::Full(keyframe) = &root.payload else {
            return None;
        };
        let mut snapshot = (**keyframe).clone();
        for link in links.iter().rev() {
            let entry = self.entries.get(link).filter(|e| e.intact())?;
            let StoredRun::Delta { delta, .. } = &entry.payload else {
                return None;
            };
            snapshot = snapshot.apply(delta);
        }
        Some(snapshot)
    }

    /// Takes (a re-materialised copy of) the deepest cut a run of `plan`
    /// may resume from at or before `cap`, as the chain parent of the
    /// run's first cut, together with the cut's origin. A keyframe is a
    /// plain clone; a delta cut is rebuilt by walking its chain. The
    /// whole chain's LRU stamps are refreshed — materialisation *uses*
    /// every link, so a hot cut keeps its keyframe alive. Every link is
    /// checksum-validated: a corrupt chain is quarantined from its
    /// keyframe (counted in [`CheckpointStats::quarantined`]), one
    /// [`CheckpointStats::checksum_failures`] is charged, the breaker is
    /// advanced, and `None` comes back — the caller cold-starts.
    pub(crate) fn take_deepest(
        &mut self,
        seed_offset: u64,
        plan: &FaultPlan,
        cap: f64,
    ) -> Option<(ChainParent, u64)> {
        let key = self.deepest(seed_offset, plan, cap)?;
        let chain = self.chain_of(&key);
        let Some(snapshot) = self.materialise(&chain) else {
            if let Some(root) = chain.last() {
                let removed = self.remove_with_dependents(root);
                self.stats.quarantined += removed as u64;
            }
            self.stats.checksum_failures += 1;
            if self.stats.checksum_failures >= CHECKSUM_BREAKER_THRESHOLD {
                self.disabled = true;
            }
            return None;
        };
        self.clock += 1;
        for link in &chain {
            if let Some(entry) = self.entries.get_mut(link) {
                entry.last_used = self.clock;
            }
        }
        let entry = self.entries.get_mut(&key)?;
        entry.hits += 1;
        let (id, origin) = (entry.id, entry.origin);
        Some((ChainParent { key, id, snapshot }, origin))
    }

    /// Commits the cuts one call recorded, in recording order. Each cut
    /// is stored as a delta against the previous cut of the call that
    /// was stored — the fork source `parent` for the first — when that
    /// entry is still the exact one the cut continues (same key and id)
    /// and the keyframe stride leaves room; otherwise as a keyframe. A
    /// cell that is already occupied keeps its earlier recording. After
    /// each insert, least-recently-used chains are evicted until the
    /// memory budget is respected again.
    pub(crate) fn commit(
        &mut self,
        seed_offset: u64,
        cuts: &[RunSnapshot],
        parent: Option<&ChainParent>,
        keyframe_stride: usize,
        origin: u64,
    ) {
        let mut parent = parent.map(|p| (p.key.clone(), p.id, &p.snapshot));
        for cut in cuts {
            let key = SnapshotKey::for_snapshot(seed_offset, cut);
            if self.entries.contains_key(&key) {
                continue;
            }
            let base = parent.as_ref().and_then(|(key, id, snapshot)| {
                let entry = self.entries.get(key).filter(|e| e.id == *id)?;
                (entry.depth + 1 < keyframe_stride).then_some((key, *snapshot, entry.depth + 1))
            });
            let (payload, depth) = match base {
                Some((key, snapshot, depth)) => (
                    StoredRun::Delta {
                        parent: key.clone(),
                        delta: Box::new(cut.diff(snapshot)),
                    },
                    depth,
                ),
                None => (StoredRun::Full(Box::new(cut.clone())), 0),
            };
            if let StoredRun::Delta { parent, .. } = &payload {
                self.dependents
                    .entry(parent.clone())
                    .or_default()
                    .push(key.clone());
            }
            let bytes = payload.approx_bytes();
            let ledger = &mut self.ledger;
            payload.for_each_chunk(&mut |id, chunk_bytes| ledger.add_chunk(id, chunk_bytes));
            self.clock += 1;
            let id = self.clock;
            self.entries.insert(
                key.clone(),
                CacheEntry {
                    checksum: entry_checksum(cut.time, &cut.prefix, &payload),
                    payload,
                    time: cut.time,
                    prefix: cut.prefix.clone(),
                    depth,
                    bytes,
                    last_used: id,
                    id,
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
                let removed = self.remove_with_dependents(&lru);
                self.stats.snapshots_evicted += removed as u64;
            }
            // The budget is enforced unconditionally: with a budget too
            // small for even one chain, the fresh entry itself may be gone
            // again, and the next cut then starts a new chain.
            if self.entries.contains_key(&key) {
                parent = Some((key, id, cut));
            }
        }
    }

    /// Removes `key` and every transitive dependent from the cache,
    /// returning how many entries went — the core shared by budget
    /// eviction and quarantine.
    fn remove_with_dependents(&mut self, key: &SnapshotKey) -> usize {
        let mut removed = 0usize;
        let mut pending = vec![key.clone()];
        while let Some(victim) = pending.pop() {
            if let Some(children) = self.dependents.remove(&victim) {
                pending.extend(children);
            }
            let Some(evicted) = self.entries.remove(&victim) else {
                continue;
            };
            self.exclusive_bytes -= evicted.bytes;
            let ledger = &mut self.ledger;
            evicted
                .payload
                .for_each_chunk(&mut |id, _| ledger.remove_chunk(id));
            // Unlink from the parent's dependent list so the reverse
            // index cannot accumulate stale keys.
            if let StoredRun::Delta { parent, .. } = &evicted.payload {
                if let Some(children) = self.dependents.get_mut(parent) {
                    children.retain(|k| k != &victim);
                    if children.is_empty() {
                        self.dependents.remove(parent);
                    }
                }
            }
            removed += 1;
        }
        removed
    }

    /// Every cached cut's key and the forks it served, in key order: the
    /// cuts of one `(seed offset, quantised prefix)` chain are contiguous
    /// and time-ordered.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (&SnapshotKey, u64)> {
        self.entries.iter().map(|(key, entry)| (key, entry.hits))
    }

    /// Re-materialises the cut at `key` for the persistent store's flush,
    /// leaving LRU state and statistics alone. `None` when the cut is
    /// gone or a link of its chain fails its checksum.
    pub(crate) fn export(&self, key: &SnapshotKey) -> Option<RunSnapshot> {
        self.materialise(&self.chain_of(key))
    }

    /// Test hook: flips the stored cut time of every entry (a silent
    /// single-byte store corruption), leaving the record-time checksums
    /// untouched — the next materialisation must detect the mismatch.
    #[doc(hidden)]
    pub(crate) fn corrupt_entries_for_test(&mut self) {
        for entry in self.entries.values_mut() {
            entry.time = f64::from_bits(entry.time.to_bits() ^ 1);
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

    fn spec(kind: SensorKind, index: u8, time: f64) -> FaultSpec {
        FaultSpec::new(SensorInstance::new(kind, index), time)
    }

    fn sensor_prefix(sensor: Vec<FaultSpec>) -> InjectionPrefix {
        InjectionPrefix {
            sensor,
            link: Vec::new(),
        }
    }

    #[test]
    fn injection_prefix_is_strictly_before_the_cut() {
        let plan = FaultPlan::from_specs(vec![
            spec(SensorKind::Gps, 0, 10.0),
            spec(SensorKind::Barometer, 0, 20.0),
        ]);
        assert!(injection_prefix(&plan, 5.0).is_empty());
        // A failure scheduled exactly at the cut has not fired yet.
        assert!(injection_prefix(&plan, 10.0).is_empty());
        assert_eq!(injection_prefix(&plan, 10.001).len(), 1);
        assert_eq!(injection_prefix(&plan, 30.0).len(), 2);
    }

    #[test]
    fn injection_prefix_covers_link_faults() {
        use avis_hinj::{LinkDirection, LinkFaultKind, LinkFaultSpec};
        let plan = FaultPlan::from_specs(vec![spec(SensorKind::Gps, 0, 25.0)]).with_link(
            LinkFaultSpec::new(
                LinkFaultKind::Drop {
                    duration: 2.0,
                    probability: 1.0,
                },
                LinkDirection::ToVehicle,
                15.0,
            ),
        );
        assert!(injection_prefix(&plan, 10.0).is_empty());
        // The link fault at 15 s enters the prefix before the sensor one.
        assert_eq!(injection_prefix(&plan, 15.0).len(), 0);
        assert_eq!(injection_prefix(&plan, 20.0).len(), 1);
        assert_eq!(injection_prefix(&plan, 30.0).len(), 2);
        // Link faults change the cache key: a link-fault plan's snapshots
        // can never be served to a sensor-only sibling.
        let with_link = injection_prefix(&plan, 20.0);
        let without = sensor_prefix(Vec::new());
        assert_ne!(prefix_cache_key(&with_link), prefix_cache_key(&without));
        assert!(prefix_cache_key(&with_link).contains("link:drop:tv"));
    }

    #[test]
    fn prefix_cache_key_is_order_independent_and_quantised() {
        let a = sensor_prefix(vec![
            spec(SensorKind::Gps, 0, 10.0),
            spec(SensorKind::Barometer, 1, 20.0),
        ]);
        let b = sensor_prefix(vec![
            spec(SensorKind::Barometer, 1, 20.0),
            spec(SensorKind::Gps, 0, 10.0),
        ]);
        assert_eq!(prefix_cache_key(&a), prefix_cache_key(&b));
        assert_eq!(prefix_cache_key(&InjectionPrefix::default()), "");
        let c = sensor_prefix(vec![spec(SensorKind::Gps, 0, 10.0001)]);
        let d = sensor_prefix(vec![spec(SensorKind::Gps, 0, 10.0004)]);
        // Sub-millisecond times collide in key space by design…
        assert_eq!(prefix_cache_key(&c), prefix_cache_key(&d));
        // …and differ at millisecond granularity.
        let e = sensor_prefix(vec![spec(SensorKind::Gps, 0, 10.001)]);
        assert_ne!(prefix_cache_key(&c), prefix_cache_key(&e));
    }

    #[test]
    fn checkpoint_config_defaults_and_constructors() {
        let cfg = CheckpointConfig::default();
        assert!(cfg.enabled);
        assert!(cfg.interval > 0.0);
        assert!(cfg.max_bytes > 0);
        assert!(!CheckpointConfig::disabled().enabled);
        assert_eq!(CheckpointConfig::with_max_bytes(123).max_bytes, 123);
        assert_eq!(
            CheckpointConfig::with_keyframe_stride(16).keyframe_stride,
            16
        );
    }

    #[test]
    fn delta_is_stored_only_against_the_entry_it_was_diffed_from() {
        use crate::runner::{ExperimentConfig, ExperimentRunner};
        use avis_firmware::{BugSet, FirmwareProfile};
        use avis_workload::auto_box_mission;

        let cfg = ExperimentConfig::new(
            FirmwareProfile::ArduPilotLike,
            BugSet::none(),
            auto_box_mission(),
        );
        let genesis = ExperimentRunner::genesis_snapshot(&cfg, 0);
        // A cut at `time` after a GPS failure at `failed`.
        let cut = |time: f64, failed: f64| RunSnapshot {
            time,
            prefix: sensor_prefix(vec![spec(SensorKind::Gps, 0, failed)]),
            ..genesis.clone()
        };
        let deltas = |fresh_parent: bool| {
            let mut cache = SnapshotCache::new(usize::MAX);
            cache.commit(0, &[cut(10.0, 5.0)], None, 8, 1);
            let key = cache.cells().map(|(key, _)| key.clone()).next();
            let key = key.expect("the first cut is cached");
            let id = cache.entries[&key].id;
            let parent = ChainParent {
                key: key.clone(),
                id,
                snapshot: cut(10.0, 5.0),
            };
            if fresh_parent {
                // Another runner evicts the parent and re-records its
                // cell from a plan failing 0.4 ms later: same quantised
                // key, different state.
                cache.remove_with_dependents(&key);
                cache.commit(0, &[cut(10.0, 5.0004)], None, 8, 2);
                assert_ne!(cache.entries[&key].id, id);
            }
            cache.commit(0, &[cut(15.0, 5.0)], Some(&parent), 8, 1);
            cache.stats().delta_snapshots
        };
        assert_eq!(deltas(false), 1, "the resident parent takes the delta");
        assert_eq!(deltas(true), 0, "a re-occupied parent cell gets a keyframe");
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
