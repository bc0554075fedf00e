//! The persistent snapshot store: a disk-backed, content-addressed
//! serialisation of a campaign's snapshot cache
//! ([`SnapshotCache`](crate::snapshot::SnapshotCache),
//! reached through its [`SharedSnapshotTier`] handle), so a campaign can
//! *warm-start* from the checkpoint tree a previous process recorded
//! instead of re-flying the shared prefix from `t = 0`. The campaign
//! hydrates the cache from the store before its profiling runs and
//! flushes the cache back when it ends. A parallel campaign (parallelism
//! ≥ 2) also flushes before each speculative wavefront, so a crash
//! mid-campaign leaves the finished wavefronts' cuts on disk; a serial
//! campaign flushes once, at its end.
//!
//! # Layout
//!
//! Everything lives under one store root, keyed by experiment
//! fingerprint so unrelated experiments can share a directory without
//! any risk of cross-experiment snapshot reuse:
//!
//! ```text
//! <root>/<fnv1a(fingerprint) as hex>/
//!     manifest.json        chain manifests (avis::json, atomic rename)
//!     blobs/<hex>.blob     content-addressed blobs (FNV-1a of payload)
//!     quarantine/          corrupt blobs, moved aside on load failure
//! ```
//!
//! Two blob kinds share the `blobs/` namespace, both written in the
//! same length-prefixed binary envelope (magic, payload length, payload,
//! FNV-1a checksum):
//!
//! - **chunk blobs** — the `Arc`-shared history chunks ([`avis_sim::CowVec`]
//!   sample history, injector record logs), stored once per distinct
//!   content hash however many cuts, chains or campaigns reference them —
//!   the on-disk mirror of the in-memory chunk ledger;
//! - **cut blobs** — one per cut, standing alone: every substrate layer
//!   writes its dynamic state straight from the cut, and the history
//!   chunks it references by hash. A cut decodes onto the deterministic
//!   **genesis** state (the `t = 0` snapshot rebuilt from the
//!   [`ExperimentConfig`] alone, see `ExperimentRunner::genesis_snapshot`)
//!   and nothing else. Static structure — configuration, parameters,
//!   environment — is never written to disk at all: genesis rebuilds it
//!   from the experiment config, which the fingerprint pins exactly.
//!
//! The manifest groups cuts into *chains*, one per `(seed offset,
//! quantised injection prefix)` cell, and lists with each chain the
//! chunk blobs its cuts reference. Hydration reads each distinct chunk
//! blob once and shares the decoded chunk across every cut that
//! references it, as the recording cache did.
//!
//! # Soundness
//!
//! The store can make a campaign *slower* (a cold start) but never
//! *wrong*:
//!
//! - the store directory is keyed by experiment fingerprint **and** the
//!   manifest records the full fingerprint string, which is compared
//!   exactly before hydration — the same claim guard the in-memory cache
//!   enforces (`SharedSnapshotTier::claim`);
//! - every blob carries its payload length and FNV-1a checksum, and its
//!   file name *is* its content hash; all three are re-verified on
//!   load. A mismatch quarantines the blob (moved to `quarantine/`) and
//!   drops only the cuts that reference it — the affected scenarios
//!   transparently cold-start, exactly like an in-memory checksum
//!   failure;
//! - writes are write-behind and atomic, but not durable: blobs and the
//!   manifest are written to a temporary file and renamed into place, so
//!   a crashed process leaves at worst a stale store. Nothing is
//!   fsync'd, so after a power loss a renamed blob or manifest can be
//!   empty. The blob then fails its length and checksum check and is
//!   quarantined, or the manifest fails to parse and the session
//!   hydrates nothing; either costs only warm-start speed;
//! - hydrated cuts enter the cache through the same commit path as the
//!   cuts a run records, so every existing guard (exact un-quantised
//!   prefix comparison before reuse, record-time checksums, the
//!   checksum breaker) applies unchanged.
//!
//! # GC
//!
//! The store enforces a byte budget at flush time over every blob the
//! manifest reaches: each chain's cut blobs and the chunk blobs it lists
//! (the manifest file itself is not counted). Chains are ranked by
//! `(accrued fork hits, insertion sequence)` and the least-hit, oldest
//! chains are dropped first until the budget fits; blobs no longer
//! reached by any surviving chain are deleted. GC reads the manifest
//! only, never a blob.

use crate::json::Json;
use crate::protocol::ProtocolTracker;
use crate::runner::{ExperimentConfig, ExperimentRunner};
use crate::snapshot::{InjectionPrefix, RunSnapshot, SharedSnapshotTier, STORE_ORIGIN};
use crate::trace::StateSample;
use avis_hinj::{InjectorSnapshot, LinkSnapshot};
use avis_sim::codec::{fnv1a, ByteReader, ByteWriter, CodecResult};
use avis_sim::{ChunkMemo, ChunkSink, ChunkSource, CowVec, PackedStepOutput};
use avis_workload::WorkloadStatus;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// Magic bytes opening every blob file.
const BLOB_MAGIC: &[u8; 8] = b"AVISBLB1";

/// Manifest format version. Nothing in a blob names its layout, so a
/// change to the cut-blob layout bumps this: a manifest of another
/// version hydrates nothing, and the session's flush replaces it.
/// Version 2 carried the firmware's defect log inline instead of as
/// chunk blobs; version 3 writes every cut whole, decoded onto genesis
/// alone, and lists each chain's chunk blobs.
const MANIFEST_VERSION: f64 = 3.0;

/// Default store byte budget: large enough for several campaigns' chains
/// of the reference workloads, small enough to stay polite on CI hosts.
pub const DEFAULT_STORE_BUDGET: u64 = 256 * 1024 * 1024;

/// Counters describing what the persistent store did this session,
/// merged into [`crate::snapshot::CheckpointStats`] by the campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreStats {
    /// Chains hydrated from disk into the snapshot cache.
    pub loaded_chains: u64,
    /// Chains flushed to disk (new or extended this session).
    pub persisted_chains: u64,
    /// Bytes held on disk (blobs + manifest) after the last flush/GC.
    pub store_bytes: u64,
    /// Blob writes skipped because an identical content-addressed blob
    /// was already on disk.
    pub dedup_hits: u64,
    /// Blobs moved to `quarantine/` after failing verification.
    pub quarantined_blobs: u64,
}

/// What one hydrate or flush pass touched, surfaced to observers through
/// `CampaignEvent::{StoreHydrated, StoreFlushed}`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreReport {
    /// Chains loaded (hydrate) or written (flush).
    pub chains: u64,
    /// Individual cuts loaded or written.
    pub snapshots: u64,
    /// Bytes read from (hydrate: every cut and chunk blob payload, each
    /// once) or held on (flush) disk.
    pub bytes: u64,
}

/// One cut recorded in the manifest: its quantised time plus the content
/// hash of its cut blob.
#[derive(Debug, Clone, PartialEq)]
struct ManifestCut {
    time_ms: i64,
    blob: u64,
}

/// One persisted chain: the cuts of one `(seed offset, quantised
/// injection prefix)` cell, time-ordered, and the chunk blobs they
/// reference.
#[derive(Debug, Clone, PartialEq)]
struct ManifestChain {
    seed_offset: u64,
    prefix_key: String,
    hits: u64,
    seq: u64,
    cuts: Vec<ManifestCut>,
    chunks: BTreeSet<u64>,
}

impl ManifestChain {
    fn key(&self) -> (u64, &str) {
        (self.seed_offset, &self.prefix_key)
    }

    /// Every blob the chain reaches: its cut blobs and the chunk blobs
    /// they reference.
    fn blobs(&self) -> impl Iterator<Item = u64> + '_ {
        self.cuts
            .iter()
            .map(|cut| cut.blob)
            .chain(self.chunks.iter().copied())
    }

    /// Adds `other`'s cuts to this record of the same chain, a union by
    /// cut time: a cell this record holds keeps its blob, the hit count
    /// takes the maximum and the insertion sequence stays.
    fn merge(&mut self, other: ManifestChain) {
        self.hits = self.hits.max(other.hits);
        self.chunks.extend(other.chunks);
        for cut in other.cuts {
            if !self.cuts.iter().any(|held| held.time_ms == cut.time_ms) {
                self.cuts.push(cut);
            }
        }
        self.cuts.sort_by_key(|cut| cut.time_ms);
    }
}

/// The parsed `manifest.json`.
#[derive(Debug, Clone, Default)]
struct Manifest {
    fingerprint: String,
    next_seq: u64,
    chains: Vec<ManifestChain>,
}

fn hex(hash: u64) -> Json {
    Json::String(format!("{hash:016x}"))
}

fn parse_hex(json: &Json) -> Option<u64> {
    u64::from_str_radix(json.as_str()?, 16).ok()
}

impl Manifest {
    fn to_json(&self) -> Json {
        crate::json::object(vec![
            ("version", Json::Number(MANIFEST_VERSION)),
            ("fingerprint", Json::String(self.fingerprint.clone())),
            ("next_seq", Json::Number(self.next_seq as f64)),
            (
                "chains",
                Json::Array(
                    self.chains
                        .iter()
                        .map(|chain| {
                            crate::json::object(vec![
                                ("seed_offset", Json::Number(chain.seed_offset as f64)),
                                ("prefix", Json::String(chain.prefix_key.clone())),
                                ("hits", Json::Number(chain.hits as f64)),
                                ("seq", Json::Number(chain.seq as f64)),
                                (
                                    "cuts",
                                    Json::Array(
                                        chain
                                            .cuts
                                            .iter()
                                            .map(|cut| {
                                                crate::json::object(vec![
                                                    ("time_ms", Json::Number(cut.time_ms as f64)),
                                                    ("blob", hex(cut.blob)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "chunks",
                                    Json::Array(chain.chunks.iter().map(|&h| hex(h)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Option<Manifest> {
        if json.get("version")?.as_f64()? != MANIFEST_VERSION {
            return None;
        }
        let mut manifest = Manifest {
            fingerprint: json.get("fingerprint")?.as_str()?.to_string(),
            next_seq: json.get("next_seq")?.as_u64()?,
            chains: Vec::new(),
        };
        for chain in json.get("chains")?.as_array()? {
            let mut cuts = Vec::new();
            for cut in chain.get("cuts")?.as_array()? {
                cuts.push(ManifestCut {
                    time_ms: cut.get("time_ms")?.as_f64()? as i64,
                    blob: parse_hex(cut.get("blob")?)?,
                });
            }
            let chunks = chain.get("chunks")?.as_array()?;
            manifest.chains.push(ManifestChain {
                seed_offset: chain.get("seed_offset")?.as_u64()?,
                prefix_key: chain.get("prefix")?.as_str()?.to_string(),
                hits: chain.get("hits")?.as_u64()?,
                seq: chain.get("seq")?.as_u64()?,
                cuts,
                chunks: chunks.iter().map(parse_hex).collect::<Option<_>>()?,
            });
        }
        Some(manifest)
    }
}

impl RunSnapshot {
    /// Writes the cut as one standalone cut-blob payload: each substrate
    /// layer writes its dynamic state ([`avis_sim::SimSnapshot::encode`],
    /// [`avis_firmware::FirmwareSnapshot::encode`],
    /// [`InjectorSnapshot::encode`], [`LinkSnapshot::encode`]) and the
    /// runner bookkeeping rides along. History chunks (trace samples,
    /// injector records) go to `sink` content-addressed; the payload
    /// lists their hashes.
    fn encode(&self, w: &mut ByteWriter, sink: &mut dyn ChunkSink) {
        self.sim.encode(w);
        self.firmware.encode(w);
        self.injector.encode(w, sink);
        self.link.encode(w);
        self.tracker.encode(w);
        self.workload.encode_runtime(w);
        self.samples
            .encode_chunked(w, sink, &mut |w, s: &StateSample| s.encode(w));
        PackedStepOutput::pack(&self.output).encode(w);
        w.usize(self.fence_violations);
        w.f64(self.next_sample_time);
        self.workload_status.encode(w);
        w.option(self.terminal_since.as_ref(), |w, t| w.f64(*t));
        w.f64(self.time);
        self.prefix.encode(w);
    }

    /// Rebuilds a cut [`RunSnapshot::encode`] wrote, from its payload and
    /// `genesis` alone: the experiment's `t = 0` snapshot at the cut's
    /// seed offset supplies every static part. Chunks already in `memo`
    /// are shared instead of read again.
    fn decode(
        genesis: &RunSnapshot,
        r: &mut ByteReader<'_>,
        source: &mut dyn ChunkSource,
        memo: &mut ChunkMemo,
    ) -> CodecResult<RunSnapshot> {
        let mut sim = genesis.sim.clone();
        sim.decode_onto(r)?;
        let mut firmware = genesis.firmware.clone();
        firmware.decode_onto(r)?;
        Ok(RunSnapshot {
            sim,
            firmware,
            injector: InjectorSnapshot::decode(r, source, memo)?,
            link: LinkSnapshot::decode(r)?,
            tracker: ProtocolTracker::decode(r)?,
            workload: genesis.workload.decode_runtime(r)?,
            samples: CowVec::decode_chunked(r, source, memo, &mut StateSample::decode)?,
            output: PackedStepOutput::decode(r)?.unpack(),
            fence_violations: r.usize()?,
            next_sample_time: r.f64()?,
            workload_status: WorkloadStatus::decode(r)?,
            terminal_since: r.option(|r| r.f64())?,
            time: r.f64()?,
            prefix: InjectionPrefix::decode(r)?,
        })
    }
}

/// Wraps `payload` in the store's blob envelope: magic, payload length,
/// payload, FNV-1a checksum.
fn encode_blob(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + 24);
    bytes.extend_from_slice(BLOB_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes
}
/// Unwraps a blob envelope, verifying magic, length, trailing checksum
/// *and* the expected content hash (the file name). Any mismatch returns
/// `None` — the caller quarantines the file.
fn decode_blob(bytes: &[u8], expected_hash: u64) -> Option<Vec<u8>> {
    let rest = bytes.strip_prefix(BLOB_MAGIC)?;
    if rest.len() < 16 {
        return None;
    }
    // The length comes from disk: a torn or hostile header may hold any
    // value, so the size check must not overflow.
    let len = usize::try_from(u64::from_le_bytes(rest[..8].try_into().ok()?)).ok()?;
    let rest = &rest[8..];
    if len.checked_add(8) != Some(rest.len()) {
        return None;
    }
    let payload = &rest[..len];
    let stored = u64::from_le_bytes(rest[len..].try_into().ok()?);
    let hash = fnv1a(payload);
    if hash != stored || hash != expected_hash {
        return None;
    }
    Some(payload.to_vec())
}

/// A write-behind tmp-file tag unique per writer: the process id alone
/// is not enough, because two campaigns in one process (threads) racing
/// on one store cell would truncate and rename each other's tmp files
/// mid-write, breaking the atomic-rename guarantee the blob and
/// manifest writers rely on.
fn tmp_tag() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// The content-addressed blob directory, doubling as the [`ChunkSource`]
/// hydration reads history chunks through.
#[derive(Debug)]
struct BlobDir {
    dir: PathBuf,
    quarantine: PathBuf,
    /// Hashes known to be on disk (scanned at open, maintained since),
    /// so dedup probes never stat the filesystem.
    known: BTreeSet<u64>,
    dedup_hits: u64,
    quarantined: u64,
    /// Payload bytes of every blob read and verified.
    bytes_read: u64,
    /// Set when a write failed; the flush that observes it withholds the
    /// manifest update, so a full store or permission error degrades to
    /// "nothing persisted", never to a manifest pointing at missing
    /// blobs.
    write_failed: bool,
}

impl BlobDir {
    fn blob_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.blob"))
    }

    /// Writes one blob write-behind: tmp file in the same directory,
    /// then an atomic rename. Content-addressing makes the operation
    /// idempotent across processes — two campaigns racing on the same
    /// hash rename identical bytes over each other.
    fn put(&mut self, payload: &[u8]) -> u64 {
        let hash = fnv1a(payload);
        if self.known.contains(&hash) {
            self.dedup_hits += 1;
            return hash;
        }
        let path = self.blob_path(hash);
        if path.exists() {
            self.known.insert(hash);
            self.dedup_hits += 1;
            return hash;
        }
        let tmp = self.dir.join(format!("{hash:016x}.{}.tmp", tmp_tag()));
        let bytes = encode_blob(payload);
        match std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path)) {
            Ok(()) => {
                self.known.insert(hash);
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
                self.write_failed = true;
            }
        }
        hash
    }

    /// Reads and verifies one blob; a corrupt file is moved to
    /// `quarantine/` and `None` is returned (the cuts that reference it
    /// fall back cold).
    fn get(&mut self, hash: u64) -> Option<Vec<u8>> {
        let path = self.blob_path(hash);
        let bytes = std::fs::read(&path).ok()?;
        match decode_blob(&bytes, hash) {
            Some(payload) => {
                self.bytes_read += payload.len() as u64;
                Some(payload)
            }
            None => {
                self.quarantined += 1;
                self.known.remove(&hash);
                let target = self.quarantine.join(format!("{hash:016x}.blob"));
                if std::fs::rename(&path, &target).is_err() {
                    let _ = std::fs::remove_file(&path);
                }
                None
            }
        }
    }
}

impl ChunkSource for BlobDir {
    fn get_chunk(&mut self, hash: u64) -> Option<Vec<u8>> {
        self.get(hash)
    }
}

/// The blob directory as the [`ChunkSink`] of one chain's cuts: it
/// records every chunk hash the cuts reference, so the manifest can list
/// them and GC never has to read a cut to learn what it reaches.
struct ChainSink<'a> {
    blobs: &'a mut BlobDir,
    chunks: &'a mut BTreeSet<u64>,
}

impl ChunkSink for ChainSink<'_> {
    fn put_chunk(&mut self, bytes: Vec<u8>) -> u64 {
        let hash = self.blobs.put(&bytes);
        self.chunks.insert(hash);
        hash
    }
}

/// The disk-backed snapshot store (see the [module docs](self)).
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    fingerprint: String,
    max_bytes: u64,
    blobs: BlobDir,
    /// Cut cells `(seed offset, prefix key, time ms)` known to be on
    /// disk — hydrated, or flushed this session — so a flush encodes only
    /// the cuts outside this set.
    persisted: BTreeSet<(u64, String, i64)>,
    stats: StoreStats,
}

impl SnapshotStore {
    /// Opens (creating if needed) the store cell for `experiment` under
    /// `root`. The cell directory is keyed by the experiment fingerprint,
    /// so one root can serve many experiments.
    pub fn open(
        root: impl AsRef<Path>,
        experiment: &ExperimentConfig,
        max_bytes: u64,
    ) -> io::Result<SnapshotStore> {
        let fingerprint = experiment.fingerprint();
        let dir = root
            .as_ref()
            .join(format!("{:016x}", fnv1a(fingerprint.as_bytes())));
        let blob_dir = dir.join("blobs");
        let quarantine = dir.join("quarantine");
        std::fs::create_dir_all(&blob_dir)?;
        std::fs::create_dir_all(&quarantine)?;
        let mut known = BTreeSet::new();
        for entry in std::fs::read_dir(&blob_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name.strip_suffix(".blob") {
                if let Ok(hash) = u64::from_str_radix(hex, 16) {
                    known.insert(hash);
                }
            }
        }
        Ok(SnapshotStore {
            dir,
            fingerprint,
            max_bytes,
            blobs: BlobDir {
                dir: blob_dir,
                quarantine,
                known,
                dedup_hits: 0,
                quarantined: 0,
                bytes_read: 0,
                write_failed: false,
            },
            persisted: BTreeSet::new(),
            stats: StoreStats::default(),
        })
    }

    /// The store cell's directory (fingerprint-keyed).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Session counters, for merging into
    /// [`crate::snapshot::CheckpointStats`].
    pub fn stats(&self) -> StoreStats {
        let mut stats = self.stats;
        stats.dedup_hits = self.blobs.dedup_hits;
        stats.quarantined_blobs = self.blobs.quarantined;
        stats
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    /// Reads and validates the on-disk manifest. A missing, unparsable
    /// or foreign-fingerprint manifest yields `None` — the store then
    /// behaves as empty (cold fallback, never a wrong result).
    fn read_manifest(&self) -> Option<Manifest> {
        let text = std::fs::read_to_string(self.manifest_path()).ok()?;
        let manifest = Manifest::from_json(&Json::parse(&text).ok()?)?;
        (manifest.fingerprint == self.fingerprint).then_some(manifest)
    }

    /// Writes the manifest write-behind (tmp + atomic rename).
    fn write_manifest(&self, manifest: &Manifest) -> io::Result<()> {
        let tmp = self.dir.join(format!("manifest.{}.tmp", tmp_tag()));
        std::fs::write(&tmp, manifest.to_json().to_pretty())?;
        std::fs::rename(&tmp, self.manifest_path())
    }

    /// Total bytes the store holds on disk (blobs + manifest).
    pub fn store_bytes(&self) -> u64 {
        let mut total = std::fs::metadata(self.manifest_path())
            .map(|m| m.len())
            .unwrap_or(0);
        if let Ok(entries) = std::fs::read_dir(&self.blobs.dir) {
            for entry in entries.flatten() {
                if let Ok(meta) = entry.metadata() {
                    total += meta.len();
                }
            }
        }
        total
    }

    /// Hydrates the snapshot cache from disk: decodes every manifest cut
    /// on its own onto its seed offset's genesis snapshot and commits it
    /// to the cache whole. Claims the cache for this store's experiment
    /// first — the same guard the runners use — and returns a zero
    /// report if another experiment already holds it. Each distinct chunk
    /// blob is read and decoded once, and every cut that references it
    /// shares the decoded chunk. A corrupt or missing cut or chunk blob
    /// is quarantined and costs only the cuts that reference it.
    pub fn hydrate(
        &mut self,
        tier: &SharedSnapshotTier,
        experiment: &ExperimentConfig,
    ) -> StoreReport {
        if !tier.claim(&self.fingerprint) {
            return StoreReport::default();
        }
        let Some(manifest) = self.read_manifest() else {
            return StoreReport::default();
        };
        let read_before = self.blobs.bytes_read;
        let mut report = StoreReport::default();
        let mut memo = ChunkMemo::default();
        let mut genesis_cache: BTreeMap<u64, RunSnapshot> = BTreeMap::new();
        for chain in &manifest.chains {
            let genesis = genesis_cache.entry(chain.seed_offset).or_insert_with(|| {
                ExperimentRunner::genesis_snapshot(experiment, chain.seed_offset)
            });
            let mut cuts = Vec::with_capacity(chain.cuts.len());
            for cut in &chain.cuts {
                let Some(snapshot) = self.read_cut(cut.blob, genesis, &mut memo) else {
                    continue;
                };
                cuts.push(snapshot);
                // Already on disk: later flushes need not encode it again.
                self.persisted
                    .insert((chain.seed_offset, chain.prefix_key.clone(), cut.time_ms));
            }
            if !cuts.is_empty() {
                report.chains += 1;
                report.snapshots += cuts.len() as u64;
                tier.lock().commit(chain.seed_offset, cuts, STORE_ORIGIN);
            }
        }
        report.bytes = self.blobs.bytes_read - read_before;
        self.stats.loaded_chains += report.chains;
        report
    }

    /// Reads, verifies and decodes one cut blob onto `genesis`. `None`
    /// when the blob or a chunk it references is missing, corrupt or
    /// malformed.
    fn read_cut(
        &mut self,
        blob: u64,
        genesis: &RunSnapshot,
        memo: &mut ChunkMemo,
    ) -> Option<RunSnapshot> {
        let payload = self.blobs.get(blob)?;
        let mut reader = ByteReader::new(&payload);
        let cut = RunSnapshot::decode(genesis, &mut reader, &mut self.blobs, memo).ok()?;
        reader.finish().ok()?;
        Some(cut)
    }

    /// Flushes the snapshot cache to disk: encodes each cut not on disk
    /// yet (neither hydrated nor flushed before) as its own cut blob,
    /// writes new blobs write-behind, merges the manifest with whatever
    /// is on disk and enforces the byte budget with hit-weighted GC.
    /// Concurrent campaigns flush the same store safely: blobs are
    /// content-addressed, and the merge is a per-chain union of cuts by
    /// time (see `ManifestChain::merge`). Chains without a new cut
    /// contribute just the fork hits they accrued. A cut blob needs no
    /// genesis to be written, so `_experiment` is not read.
    pub fn flush(
        &mut self,
        tier: &SharedSnapshotTier,
        _experiment: &ExperimentConfig,
    ) -> StoreReport {
        let cache = tier.lock();
        // The cache lists one chain's cuts contiguously, in time order.
        let mut chains: Vec<ManifestChain> = Vec::new();
        let mut new_cuts = Vec::new();
        for (key, hits) in cache.cells() {
            let same_chain = chains.last().is_some_and(|chain| {
                chain.seed_offset == key.seed_offset && chain.prefix_key == key.prefix
            });
            if !same_chain {
                chains.push(ManifestChain {
                    seed_offset: key.seed_offset,
                    prefix_key: key.prefix.clone(),
                    hits: 0,
                    seq: 0, // assigned at merge below
                    cuts: Vec::new(),
                    chunks: BTreeSet::new(),
                });
            }
            let Some(chain) = chains.last_mut() else {
                continue;
            };
            chain.hits = chain.hits.max(hits);
            let cell = (key.seed_offset, key.prefix.clone(), key.time_ms);
            if self.persisted.contains(&cell) {
                continue;
            }
            // A cut failing its checksum is left out alone.
            let Some(snapshot) = cache.export(key) else {
                continue;
            };
            let mut writer = ByteWriter::with_capacity(4096);
            let mut sink = ChainSink {
                blobs: &mut self.blobs,
                chunks: &mut chain.chunks,
            };
            snapshot.encode(&mut writer, &mut sink);
            let blob = self.blobs.put(&writer.into_bytes());
            chain.cuts.push(ManifestCut {
                time_ms: key.time_ms,
                blob,
            });
            new_cuts.push(cell);
        }
        drop(cache);
        if new_cuts.is_empty() {
            return StoreReport {
                bytes: self.stats.store_bytes,
                ..StoreReport::default()
            };
        }
        if self.blobs.write_failed {
            // A blob failed to reach disk (full disk, permissions): do
            // not publish a manifest that references it. The store stays
            // at its previous state; warm-starting degrades, correctness
            // does not.
            self.blobs.write_failed = false;
            return StoreReport::default();
        }

        // Merge with the on-disk manifest (another campaign may have
        // flushed since we last looked).
        let mut manifest = self.read_manifest().unwrap_or_else(|| Manifest {
            fingerprint: self.fingerprint.clone(),
            next_seq: 0,
            chains: Vec::new(),
        });
        let mut report = StoreReport {
            snapshots: new_cuts.len() as u64,
            ..StoreReport::default()
        };
        for mut chain in chains {
            report.chains += u64::from(!chain.cuts.is_empty());
            match manifest.chains.iter_mut().find(|c| c.key() == chain.key()) {
                Some(existing) => existing.merge(chain),
                // A chain without new cuts that the manifest no longer
                // holds has nothing on disk to name.
                None if chain.cuts.is_empty() => {}
                None => {
                    chain.seq = manifest.next_seq;
                    manifest.next_seq += 1;
                    manifest.chains.push(chain);
                }
            }
        }

        self.gc(&mut manifest);
        if self.write_manifest(&manifest).is_err() {
            return StoreReport::default();
        }
        // The new cuts count as on disk only once the manifest names
        // them: a failed flush leaves them dirty, so the next one retries.
        self.persisted.extend(new_cuts);
        self.stats.persisted_chains = manifest.chains.len() as u64;
        self.stats.store_bytes = self.store_bytes();
        report.bytes = self.stats.store_bytes;
        report
    }

    /// Enforces the byte budget over every blob the manifest reaches —
    /// each chain's cut blobs and the chunk blobs it lists — by dropping
    /// whole chains lowest-`(hits, seq)` first, then deletes blobs no
    /// surviving chain reaches. The manifest names every blob a chain
    /// reaches, so GC reads none.
    fn gc(&mut self, manifest: &mut Manifest) {
        let sizes: BTreeMap<u64, u64> = manifest
            .chains
            .iter()
            .flat_map(ManifestChain::blobs)
            .map(|hash| {
                let size = std::fs::metadata(self.blobs.blob_path(hash)).map_or(0, |m| m.len());
                (hash, size)
            })
            .collect();
        let live = loop {
            let live: BTreeSet<u64> = manifest
                .chains
                .iter()
                .flat_map(ManifestChain::blobs)
                .collect();
            let total: u64 = live.iter().filter_map(|hash| sizes.get(hash)).sum();
            let victim = manifest
                .chains
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| (c.hits, c.seq))
                .map(|(i, _)| i);
            match victim {
                Some(victim) if total > self.max_bytes => {
                    manifest.chains.remove(victim);
                }
                _ => break live,
            }
        };
        let on_disk: Vec<u64> = self.blobs.known.iter().copied().collect();
        for hash in on_disk {
            if !live.contains(&hash) {
                let _ = std::fs::remove_file(self.blobs.blob_path(hash));
                self.blobs.known.remove(&hash);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::CheckpointConfig;
    use avis_firmware::{BugSet, FirmwareProfile};
    use avis_sim::SensorNoise;
    use avis_workload::auto_box_mission;
    use std::sync::Arc;

    fn experiment() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(
            FirmwareProfile::ArduPilotLike,
            BugSet::none(),
            auto_box_mission(),
        );
        cfg.noise = Some(SensorNoise::noiseless());
        cfg.max_duration = 60.0;
        cfg
    }

    /// A cache holding the chain one fault-free injection run records
    /// (a profiling run records only its terminal cut, so the fault-free
    /// *plan* run is the cheapest way to a populated chain).
    fn populated_tier(cfg: &ExperimentConfig) -> Arc<SharedSnapshotTier> {
        let tier = Arc::new(SharedSnapshotTier::new(
            CheckpointConfig::default().max_bytes,
        ));
        let mut runner = ExperimentRunner::new(cfg.clone());
        runner.set_shared_tier(Arc::clone(&tier));
        runner.run_with_plan(avis_hinj::FaultPlan::empty());
        assert!(
            tier.stats().snapshots_cached > 0,
            "the fault-free run records snapshots"
        );
        tier
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("avis-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn blob_names(store: &SnapshotStore) -> BTreeSet<String> {
        std::fs::read_dir(store.dir().join("blobs"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    }

    #[test]
    fn blob_envelope_rejects_any_tampering() {
        let payload = b"snapshot payload".to_vec();
        let blob = encode_blob(&payload);
        let hash = fnv1a(&payload);
        assert_eq!(decode_blob(&blob, hash), Some(payload.clone()));
        // Wrong expected hash (file renamed / cross-wired manifest).
        assert_eq!(decode_blob(&blob, hash ^ 1), None);
        // Truncation.
        assert_eq!(decode_blob(&blob[..blob.len() - 1], hash), None);
        // A single flipped payload bit.
        let mut flipped = blob.clone();
        flipped[BLOB_MAGIC.len() + 8] ^= 0x40;
        assert_eq!(decode_blob(&flipped, hash), None);
        // A length field of u64::MAX must fail the size check, not
        // overflow it.
        let mut huge = blob.clone();
        huge[BLOB_MAGIC.len()..BLOB_MAGIC.len() + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_blob(&huge, hash), None);
        // Foreign magic.
        let mut foreign = blob;
        foreign[0] ^= 0xff;
        assert_eq!(decode_blob(&foreign, hash), None);
    }

    #[test]
    fn flush_then_hydrate_round_trips_bit_identically() {
        let cfg = experiment();
        let tier = populated_tier(&cfg);
        let root = temp_store("round-trip");

        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        let flushed = store.flush(&tier, &cfg);
        assert!(flushed.chains >= 1, "the fault-free chain is persisted");
        assert!(flushed.snapshots >= 1);
        assert!(store.stats().persisted_chains >= 1);
        let first_blobs = blob_names(&store);
        drop(store);

        // A fresh process hydrates a fresh cache from the same root.
        let tier2 = Arc::new(SharedSnapshotTier::new(
            CheckpointConfig::default().max_bytes,
        ));
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        let hydrated = store.hydrate(&tier2, &cfg);
        assert_eq!(hydrated.chains, flushed.chains);
        assert_eq!(hydrated.snapshots, flushed.snapshots);
        assert_eq!(store.stats().quarantined_blobs, 0);

        // Re-flushing the hydrated cache into a second root produces the
        // exact same content-addressed blob set: the round trip is
        // bit-identical, not merely structurally similar.
        let root2 = temp_store("round-trip-2");
        let mut store2 = SnapshotStore::open(&root2, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        store2.flush(&tier2, &cfg);
        assert_eq!(blob_names(&store2), first_blobs);

        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&root2);
    }

    #[test]
    fn corrupt_blob_is_quarantined_with_cold_fallback() {
        let cfg = experiment();
        let tier = populated_tier(&cfg);
        let root = temp_store("quarantine");
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        let flushed = store.flush(&tier, &cfg);
        let blobs_dir = store.dir().join("blobs");
        let quarantine_dir = store.dir().join("quarantine");
        drop(store);

        // Flip one payload byte in one blob (first in directory order).
        let victim = std::fs::read_dir(&blobs_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .min()
            .unwrap();
        let mut bytes = std::fs::read(&victim).unwrap();
        let idx = BLOB_MAGIC.len() + 8;
        bytes[idx] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();

        let tier2 = Arc::new(SharedSnapshotTier::new(
            CheckpointConfig::default().max_bytes,
        ));
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        let hydrated = store.hydrate(&tier2, &cfg);
        // Hydration survives — it loads at most what it can verify.
        assert!(hydrated.snapshots < flushed.snapshots);
        assert_eq!(store.stats().quarantined_blobs, 1);
        assert!(!victim.exists(), "the corrupt blob is moved aside");
        assert_eq!(
            std::fs::read_dir(&quarantine_dir).unwrap().count(),
            1,
            "the corrupt blob lands in quarantine/"
        );

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_blob_is_rejected_not_panicked() {
        // Half a blob, and an empty one: what a power loss leaves of a
        // blob whose rename reached the disk before its data.
        let cfg = experiment();
        let tier = populated_tier(&cfg);
        for empty in [false, true] {
            let root = temp_store("truncated");
            let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
            store.flush(&tier, &cfg);
            let blobs_dir = store.dir().join("blobs");
            drop(store);

            let victim = std::fs::read_dir(&blobs_dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .max()
                .unwrap();
            let bytes = std::fs::read(&victim).unwrap();
            let kept = if empty { 0 } else { bytes.len() / 2 };
            std::fs::write(&victim, &bytes[..kept]).unwrap();

            let tier2 = Arc::new(SharedSnapshotTier::new(
                CheckpointConfig::default().max_bytes,
            ));
            let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
            let _ = store.hydrate(&tier2, &cfg);
            assert_eq!(store.stats().quarantined_blobs, 1, "empty: {empty}");

            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn gc_enforces_the_byte_budget() {
        let cfg = experiment();
        let tier = populated_tier(&cfg);
        let blob_bytes = |store: &SnapshotStore, names: &BTreeSet<String>| -> u64 {
            names
                .iter()
                .map(|name| {
                    let path = store.dir().join("blobs").join(name);
                    std::fs::metadata(path).unwrap().len()
                })
                .sum()
        };

        // Unbounded: the chain's cut blobs, and every blob in all (its
        // cut blobs plus the chunk blobs they reference).
        let root = temp_store("gc-unbounded");
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        store.flush(&tier, &cfg);
        let cut_names: BTreeSet<String> = store
            .read_manifest()
            .unwrap()
            .chains
            .iter()
            .flat_map(|c| c.cuts.iter().map(|cut| format!("{:016x}.blob", cut.blob)))
            .collect();
        let cut_bytes = blob_bytes(&store, &cut_names);
        let all_bytes = blob_bytes(&store, &blob_names(&store));
        assert!(cut_bytes < all_bytes, "the chain references chunk blobs");
        drop(store);
        let _ = std::fs::remove_dir_all(&root);

        // A budget the cut blobs alone fit but the whole chain does not,
        // and a zero budget: either way the chain is dropped and the
        // blobs left on disk fit the budget.
        for budget in [(cut_bytes + all_bytes) / 2, 0] {
            let root = temp_store(&format!("gc-{budget}"));
            let mut store = SnapshotStore::open(&root, &cfg, budget).unwrap();
            store.flush(&tier, &cfg);
            let on_disk = blob_bytes(&store, &blob_names(&store));
            assert!(
                on_disk <= budget,
                "{on_disk} blob bytes on disk exceed the {budget}-byte budget"
            );
            assert_eq!(store.stats().persisted_chains, 0);
            drop(store);

            let tier2 = Arc::new(SharedSnapshotTier::new(
                CheckpointConfig::default().max_bytes,
            ));
            let mut store = SnapshotStore::open(&root, &cfg, budget).unwrap();
            assert_eq!(store.hydrate(&tier2, &cfg), StoreReport::default());
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn hydrate_respects_the_tier_claim_guard() {
        let cfg = experiment();
        let tier = populated_tier(&cfg);
        let root = temp_store("claim");
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        store.flush(&tier, &cfg);
        drop(store);

        // A cache already claimed by a *different* experiment refuses the
        // hydration wholesale.
        let foreign = Arc::new(SharedSnapshotTier::new(
            CheckpointConfig::default().max_bytes,
        ));
        assert!(foreign.claim("some other experiment"));
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        assert_eq!(store.hydrate(&foreign, &cfg), StoreReport::default());
        assert_eq!(foreign.stats().snapshots_cached, 0);

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn warm_flush_encodes_only_chains_with_new_cuts() {
        // A warm session hydrates N cuts, then one run records a new
        // chain of k cuts: the flush encodes those k alone, while the
        // manifest keeps all N + k and merges the hit the hydrated chain
        // served.
        let cfg = experiment();
        let root = temp_store("incremental");
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        store.flush(&populated_tier(&cfg), &cfg);
        drop(store);

        let tier = Arc::new(SharedSnapshotTier::new(
            CheckpointConfig::default().max_bytes,
        ));
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        let hydrated = store.hydrate(&tier, &cfg).snapshots;
        assert!(hydrated > 0);
        let mut runner = ExperimentRunner::new(cfg.clone());
        runner.set_shared_tier(Arc::clone(&tier));
        let gps = avis_sim::SensorInstance::new(avis_sim::SensorKind::Gps, 0);
        runner.run_with_plan(avis_hinj::FaultPlan::from_specs(vec![
            avis_hinj::FaultSpec::new(gps, 30.0),
        ]));
        assert_eq!(runner.checkpoint_stats().shared_hits, 1);
        let new_cuts = tier.stats().snapshots_cached as u64 - hydrated;
        assert!(new_cuts > 0);

        let flushed = store.flush(&tier, &cfg);
        assert_eq!(flushed.chains, 1, "only the new chain is encoded");
        assert_eq!(flushed.snapshots, new_cuts);
        let manifest = store.read_manifest().unwrap();
        let cuts: usize = manifest.chains.iter().map(|c| c.cuts.len()).sum();
        assert_eq!(cuts as u64, hydrated + new_cuts);
        assert!(
            manifest.chains.iter().any(|c| c.hits > 0),
            "the forked-from chain's hit is merged: {:?}",
            manifest.chains
        );

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_middle_cut_costs_only_that_cut() {
        let cfg = experiment();
        let tier = populated_tier(&cfg);
        let root = temp_store("middle-cut");
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        let flushed = store.flush(&tier, &cfg);
        let manifest = store.read_manifest().unwrap();
        let chain = &manifest.chains[0];
        assert!(chain.cuts.len() >= 3, "the chain has a middle cut");
        let victim = store.blobs.blob_path(chain.cuts[chain.cuts.len() / 2].blob);
        drop(store);
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[BLOB_MAGIC.len() + 8] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();

        let tier2 = Arc::new(SharedSnapshotTier::new(
            CheckpointConfig::default().max_bytes,
        ));
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        let hydrated = store.hydrate(&tier2, &cfg);
        assert_eq!(store.stats().quarantined_blobs, 1);
        assert_eq!(hydrated.chains, flushed.chains);
        assert_eq!(
            hydrated.snapshots,
            flushed.snapshots - 1,
            "every cut but the corrupt one hydrates"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn hydration_shares_the_history_of_forked_chains() {
        // The fault-free chain plus a chain forked from it mid-flight:
        // the two share their history up to the fork. Hydrated into a
        // fresh cache, they share it again, each chunk blob is read once,
        // and the flush that wrote them read no blob at all.
        let cfg = experiment();
        let tier = populated_tier(&cfg);
        let mut runner = ExperimentRunner::new(cfg.clone());
        runner.set_shared_tier(Arc::clone(&tier));
        let gps = avis_sim::SensorInstance::new(avis_sim::SensorKind::Gps, 0);
        runner.run_with_plan(avis_hinj::FaultPlan::from_specs(vec![
            avis_hinj::FaultSpec::new(gps, 30.0),
        ]));
        assert_eq!(runner.checkpoint_stats().shared_hits, 1, "the run forks");

        let root = temp_store("forked-history");
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        let flushed = store.flush(&tier, &cfg);
        assert_eq!(flushed.chains, 2);
        assert_eq!(store.blobs.bytes_read, 0, "flush and GC read no blob");
        let payload_bytes: u64 = blob_names(&store)
            .iter()
            .map(|name| {
                std::fs::metadata(store.dir().join("blobs").join(name))
                    .unwrap()
                    .len()
                    - 24
            })
            .sum();
        drop(store);

        let fresh = Arc::new(SharedSnapshotTier::new(
            CheckpointConfig::default().max_bytes,
        ));
        let mut store = SnapshotStore::open(&root, &cfg, DEFAULT_STORE_BUDGET).unwrap();
        let hydrated = store.hydrate(&fresh, &cfg);
        assert_eq!(hydrated.snapshots, flushed.snapshots);
        assert_eq!(
            hydrated.bytes, payload_bytes,
            "hydration reads every blob on disk, each once"
        );
        let (recorded, loaded) = (tier.stats().chunk_bytes, fresh.stats().chunk_bytes);
        assert!(loaded > 0);
        assert!(
            loaded <= recorded,
            "hydrated chunk bytes {loaded} exceed the recording cache's {recorded}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_json_round_trips() {
        let manifest = Manifest {
            fingerprint: "fp|test".to_string(),
            next_seq: 7,
            chains: vec![ManifestChain {
                seed_offset: 3,
                prefix_key: "s:1@12.5".to_string(),
                hits: 9,
                seq: 2,
                cuts: vec![
                    ManifestCut {
                        time_ms: 1500,
                        blob: 0xdead_beef_0bad_f00d,
                    },
                    ManifestCut {
                        time_ms: 2500,
                        blob: 0x0123_4567_89ab_cdef,
                    },
                ],
                chunks: BTreeSet::from([0x1111_2222_3333_4444, u64::MAX]),
            }],
        };
        let text = manifest.to_json().to_pretty();
        let parsed = Manifest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.fingerprint, manifest.fingerprint);
        assert_eq!(parsed.next_seq, manifest.next_seq);
        assert_eq!(parsed.chains, manifest.chains);
    }
}
