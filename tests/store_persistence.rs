//! Acceptance suite for the persistent snapshot store: a campaign that
//! warm-starts from chains a previous *process* persisted must be
//! bit-identical to a cold campaign — at parallelism 1 and 4, with and
//! without link faults — and two campaigns flushing into one store root
//! concurrently must never corrupt each other. Persistence is a
//! wall-clock optimisation only; every test here pins that it is
//! invisible in campaign observables.

use avis::campaign::{Campaign, CampaignBuilder, CampaignEvent, EventLog};
use avis::checker::{Approach, Budget, CampaignResult};
use avis::json::Json;
use avis::matrix::ScenarioMatrix;
use avis::runner::ExperimentConfig;
use avis::snapshot::{CheckpointConfig, CheckpointStats, SharedSnapshotTier};
use avis::WorkerStatsCollector;
use avis_firmware::{BugId, BugSet, FirmwareProfile};
use avis_hinj::{LinkDirection, LinkFaultKind, LinkFaultPlan, LinkFaultSpec, StormCommand};
use avis_sim::SensorNoise;
use avis_workload::auto_box_mission;
use std::path::PathBuf;
use std::sync::Arc;

/// Profiling runs of the profiling-fork tests: a warm session's set-up
/// is mostly these flights.
const PROFILING_RUNS: usize = 3;

fn experiment() -> ExperimentConfig {
    let bugs = BugSet::current_code_base(FirmwareProfile::ArduPilotLike);
    let mut experiment =
        ExperimentConfig::new(FirmwareProfile::ArduPilotLike, bugs, auto_box_mission());
    experiment.noise = Some(SensorNoise::default());
    experiment.max_duration = 110.0;
    experiment
}

fn temp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avis-store-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn campaign(parallelism: usize, store: Option<&PathBuf>) -> (CampaignResult, Vec<CampaignEvent>) {
    let mut builder = Campaign::builder()
        .experiment(experiment())
        .approach(Approach::Avis)
        .budget(Budget::simulations(8))
        .profiling_runs(1)
        .parallelism(parallelism);
    if let Some(root) = store {
        builder = builder.snapshot_store(root.clone());
    }
    let mut log = EventLog::new();
    let result = builder.build().run_with_observer(&mut log);
    (result, log.into_events())
}

fn hydrated_chains(events: &[CampaignEvent]) -> u64 {
    events
        .iter()
        .find_map(|e| match e {
            CampaignEvent::StoreHydrated { chains, .. } => Some(*chains),
            _ => None,
        })
        .expect("a store-backed campaign emits StoreHydrated")
}

/// The chains and bytes the store holds after the campaign's flush.
fn store_flushed(events: &[CampaignEvent]) -> (u64, u64) {
    events
        .iter()
        .find_map(|e| match e {
            CampaignEvent::StoreFlushed { chains, bytes, .. } => Some((*chains, *bytes)),
            _ => None,
        })
        .expect("a store-backed campaign emits StoreFlushed")
}

#[test]
fn persisted_warm_campaign_is_bit_identical_to_cold() {
    // The headline acceptance: session 1 populates the store, session 2
    // hydrates from disk and forks from last session's chains — and both
    // produce exactly the cold result, at parallelism 1 and 4.
    let (cold, _) = campaign(1, None);
    assert!(
        !cold.unsafe_conditions.is_empty(),
        "the comparison should cover unsafe-condition bookkeeping"
    );
    for parallelism in [1, 4] {
        let root = temp_root(&format!("warm-p{parallelism}"));

        let (first, first_events) = campaign(parallelism, Some(&root));
        assert_eq!(
            cold, first,
            "store-backed first session (parallelism {parallelism}) \
             diverged from cold execution"
        );
        assert_eq!(
            hydrated_chains(&first_events),
            0,
            "an empty store hydrates nothing"
        );
        assert!(
            store_flushed(&first_events).0 > 0,
            "the first session should persist its chains: {first_events:?}"
        );

        let (second, second_events) = campaign(parallelism, Some(&root));
        assert_eq!(
            cold, second,
            "persisted-warm session (parallelism {parallelism}) \
             diverged from cold execution"
        );
        assert!(
            hydrated_chains(&second_events) > 0,
            "the second session should warm-start from disk: {second_events:?}"
        );

        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Persists one session's chains under a fresh root, rewrites the
/// manifest with `rewrite`, and checks what a stale manifest may cost:
/// the next session hydrates nothing and returns the storeless result,
/// and the manifest it writes warms the session after it.
fn stale_manifest_costs_only_the_warm_start(name: &str, rewrite: impl Fn(&str) -> String) {
    let (cold, _) = campaign(1, None);
    let root = temp_root(name);
    let (first, _) = campaign(1, Some(&root));
    assert_eq!(cold, first);
    let cell = std::fs::read_dir(&root)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let manifest = cell.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, rewrite(&text)).unwrap();

    let (stale, stale_events) = campaign(1, Some(&root));
    assert_eq!(cold, stale, "{name}: the stale manifest changed the result");
    assert_eq!(
        hydrated_chains(&stale_events),
        0,
        "{name}: a stale manifest hydrates nothing"
    );

    let (next, next_events) = campaign(1, Some(&root));
    assert_eq!(cold, next);
    assert!(
        hydrated_chains(&next_events) > 0,
        "{name}: the rewritten manifest should warm the next session: {next_events:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn empty_manifest_after_a_power_loss_costs_only_the_warm_start() {
    // The store renames its writes into place but never fsyncs them, so
    // a power loss can leave `manifest.json` empty.
    stale_manifest_costs_only_the_warm_start("empty-manifest", |_| String::new());
}

/// Marks the manifest as written by an older build: `version`, a
/// cut-blob layout this build cannot read. No blob names its layout, so
/// the manifest's version is the only guard.
fn older_manifest(text: &str, version: f64) -> String {
    let mut json = Json::parse(text).unwrap();
    let Json::Object(fields) = &mut json else {
        panic!("the manifest is a JSON object");
    };
    let current = fields.iter_mut().find(|(key, _)| key == "version");
    let (_, current) = current.expect("the manifest names its version");
    assert_eq!(*current, Json::Number(4.0));
    *current = Json::Number(version);
    json.to_pretty()
}

#[test]
fn version_1_manifest_hydrates_nothing_once() {
    // Version 1 stores carry the firmware defect log as chunk blobs.
    stale_manifest_costs_only_the_warm_start("version-1", |text| older_manifest(text, 1.0));
}

#[test]
fn version_2_manifest_hydrates_nothing_once() {
    // Version 2 stores write each cut but a chain's first as a delta
    // from the cut before it.
    stale_manifest_costs_only_the_warm_start("version-2", |text| older_manifest(text, 2.0));
}

#[test]
fn version_3_manifest_hydrates_nothing_once() {
    // Version 3 stores write the sensor suite's noise generator, and the
    // link generator's Box-Muller spare, into every cut.
    stale_manifest_costs_only_the_warm_start("version-3", |text| older_manifest(text, 3.0));
}

/// An arm storm on the command link at t = 40 s: the pinned link-fault
/// environment of the link-fault tests.
fn arm_storm() -> LinkFaultPlan {
    LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
        LinkFaultKind::Storm {
            command: StormCommand::Arm,
            count: 8,
        },
        LinkDirection::ToVehicle,
        40.0,
    )])
}

/// A campaign over [`experiment`] calibrated by [`PROFILING_RUNS`]
/// profiling runs, within a budget of `simulations`.
fn profiled(parallelism: usize, simulations: usize) -> CampaignBuilder {
    Campaign::builder()
        .experiment(experiment())
        .approach(Approach::Avis)
        .budget(Budget::simulations(simulations))
        .profiling_runs(PROFILING_RUNS)
        .parallelism(parallelism)
}

/// Runs `builder`, returning its result, its events and its inline
/// entry's checkpoint statistics. Engine workers push their per-run
/// counters at pool shutdown, before the campaign pushes the inline
/// runner's (profiling runs plus serial and fallback commits, with the
/// cache-wide and store fields), so that is the last entry.
fn session(builder: CampaignBuilder) -> (CampaignResult, Vec<CampaignEvent>, CheckpointStats) {
    let collector = Arc::new(WorkerStatsCollector::new());
    let mut log = EventLog::new();
    let result = builder
        .worker_stats(Arc::clone(&collector))
        .build()
        .run_with_observer(&mut log);
    let inline = *collector
        .collected()
        .last()
        .expect("the campaign reports its inline runner's statistics");
    (result, log.into_events(), inline)
}

/// Simulated seconds the campaign's profiling runs cost.
fn profiling_cost(events: &[CampaignEvent]) -> f64 {
    events
        .iter()
        .find_map(|e| match e {
            CampaignEvent::ProfilingFinished { cost_seconds, .. } => Some(*cost_seconds),
            _ => None,
        })
        .expect("every campaign emits ProfilingFinished")
}

#[test]
fn warm_sessions_fork_their_profiling_runs_from_the_store() {
    // A warm session's profiling runs fork from the terminal cuts the
    // first session persisted and fly only their grace tail, and the
    // session still reproduces the cold result — at parallelism 1 and 4,
    // with and without a link-fault environment.
    const SIMULATIONS: usize = PROFILING_RUNS + 3;
    for link in [false, true] {
        let build = |parallelism: usize, simulations: usize, store: Option<&PathBuf>| {
            let mut builder = profiled(parallelism, simulations);
            if link {
                builder = builder.link_faults(arm_storm());
            }
            if let Some(root) = store {
                builder = builder.snapshot_store(root.clone());
            }
            session(builder)
        };
        let (cold, _, _) = build(1, SIMULATIONS, None);
        let (cold_profiling, _, _) = build(1, PROFILING_RUNS, None);
        for parallelism in [1, 4] {
            let label = format!("parallelism {parallelism}, link faults {link}");
            let root = temp_root(&format!("profiling-p{parallelism}-{link}"));
            let (first, _, _) = build(parallelism, SIMULATIONS, Some(&root));
            assert_eq!(cold, first, "first session ({label}) diverged from cold");

            let (warm, warm_events, stats) = build(parallelism, SIMULATIONS, Some(&root));
            assert_eq!(cold, warm, "warm session ({label}) diverged from cold");
            let store = store_flushed(&warm_events);
            assert!(
                store.0 > 0 && store.1 > 0,
                "the store ({label}) holds chains"
            );
            assert!(
                stats.shared_hits >= PROFILING_RUNS as u64,
                "warm profiling runs ({label}) should fork from the store: {stats:?}"
            );

            // A profiling-only session isolates the profiling forks.
            let (profiling, events, stats) = build(parallelism, PROFILING_RUNS, Some(&root));
            assert_eq!(
                cold_profiling, profiling,
                "warm profiling ({label}) diverged from cold"
            );
            assert_eq!(
                (stats.forked_runs, stats.shared_hits, stats.cold_runs),
                (PROFILING_RUNS as u64, PROFILING_RUNS as u64, 0),
                "every warm profiling run ({label}) forks from the store: {stats:?}"
            );
            // It records no new cut, and still reports the store it leaves.
            assert_eq!(store_flushed(&events), store, "flushed store ({label})");
            assert_eq!(
                (stats.persisted_chains, stats.store_bytes),
                store,
                "store statistics ({label})"
            );
            let cost = profiling_cost(&events);
            assert!(
                stats.simulated_seconds_skipped >= 0.9 * cost,
                "profiling forks ({label}) skipped {:.1} of {cost:.1} simulated seconds",
                stats.simulated_seconds_skipped
            );
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

#[test]
fn corrupt_profiling_blob_falls_back_to_a_cold_profiling_run() {
    // Flip one byte of the blob holding the first profiling run's
    // terminal cut: hydration quarantines it, that profiling run flies
    // cold, and the session still produces the cold result.
    let (cold, _, _) = session(profiled(1, PROFILING_RUNS));
    let root = temp_root("profiling-quarantine");
    let (first, _, _) = session(profiled(1, PROFILING_RUNS).snapshot_store(root.clone()));
    assert_eq!(cold, first);

    let cell = std::fs::read_dir(&root)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let manifest =
        Json::parse(&std::fs::read_to_string(cell.join("manifest.json")).unwrap()).unwrap();
    let blob = manifest
        .get("chains")
        .and_then(Json::as_array)
        .into_iter()
        .flatten()
        .find(|chain| chain.get("seed_offset").and_then(Json::as_u64) == Some(1))
        .and_then(|chain| {
            chain
                .get("cuts")?
                .as_array()?
                .first()?
                .get("blob")?
                .as_str()
        })
        .expect("the first profiling run's terminal cut is persisted")
        .to_string();
    let victim = cell.join("blobs").join(format!("{blob}.blob"));
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[16] ^= 0x01; // the first payload byte, past the magic and length
    std::fs::write(&victim, &bytes).unwrap();

    let (warm, _, stats) = session(profiled(1, PROFILING_RUNS).snapshot_store(root.clone()));
    assert_eq!(cold, warm, "the cold fallback changed the result");
    assert!(
        cell.join("quarantine")
            .join(format!("{blob}.blob"))
            .exists(),
        "the corrupt blob is quarantined"
    );
    assert_eq!(
        (stats.forked_runs, stats.cold_runs),
        (PROFILING_RUNS as u64 - 1, 1),
        "only the corrupted profiling run flies cold: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn campaigns_sharing_a_tier_fork_their_profiling_runs() {
    // In one process, a second campaign handed the first one's cache
    // forks its profiling runs from the terminal cuts the first one
    // recorded; both campaigns still match their unshared runs.
    const SIMULATIONS: usize = PROFILING_RUNS + 3;
    let tier = Arc::new(SharedSnapshotTier::new(
        CheckpointConfig::default().max_bytes,
    ));
    let shared = |approach: Approach| {
        session(
            profiled(1, SIMULATIONS)
                .approach(approach)
                .shared_snapshots(Arc::clone(&tier)),
        )
    };
    let tierless = |approach: Approach| session(profiled(1, SIMULATIONS).approach(approach)).0;
    let (first, _, _) = shared(Approach::Avis);
    let (second, _, stats) = shared(Approach::Bfi);
    assert!(
        stats.shared_hits >= PROFILING_RUNS as u64,
        "the second campaign's profiling runs should fork from the cache: {stats:?}"
    );
    assert_eq!(first, tierless(Approach::Avis));
    assert_eq!(second, tierless(Approach::Bfi));
}

#[test]
fn persisted_warm_link_fault_campaign_matches_cold() {
    // Same pin under a pinned link-fault environment: persisted chains
    // carry live link-shim state (rng stream, in-flight queues), so a
    // fork from a hydrated snapshot must replay the protocol defect
    // exactly as a cold run does.
    let proto_experiment = || {
        let mut experiment = ExperimentConfig::new(
            FirmwareProfile::ArduPilotLike,
            BugSet::only(BugId::ProtoDoubleArm),
            auto_box_mission(),
        );
        experiment.noise = Some(SensorNoise::default());
        experiment.max_duration = 110.0;
        experiment
    };
    let run = |parallelism: usize, store: Option<&PathBuf>| {
        let mut builder = Campaign::builder()
            .experiment(proto_experiment())
            .approach(Approach::Avis)
            .link_faults(arm_storm())
            .budget(Budget::simulations(6))
            .profiling_runs(1)
            .parallelism(parallelism);
        if let Some(root) = store {
            builder = builder.snapshot_store(root.clone());
        }
        builder.build().run()
    };
    let cold = run(1, None);
    assert!(
        cold.bugs_found().contains(&BugId::ProtoDoubleArm),
        "the arm storm should reproduce PROTO-101: {:?}",
        cold.bugs_found()
    );
    for parallelism in [1, 4] {
        let root = temp_root(&format!("link-p{parallelism}"));
        let first = run(parallelism, Some(&root));
        assert_eq!(
            cold, first,
            "store-backed link-fault session (parallelism {parallelism}) \
             diverged from cold execution"
        );
        let warm = run(parallelism, Some(&root));
        assert_eq!(
            cold, warm,
            "persisted-warm link-fault session (parallelism {parallelism}) \
             diverged from cold execution"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn concurrent_campaigns_share_one_store_root_safely() {
    // Two campaigns over the same experiment flushing into one store
    // root at once: content-addressed blobs make racing writes
    // idempotent and the manifest merge is atomic (tmp + rename), so
    // both campaigns produce the cold result and the store stays fully
    // hydratable afterwards.
    let (cold, _) = campaign(1, None);
    let root = temp_root("concurrent");
    let (a, b) = std::thread::scope(|scope| {
        let root_a = root.clone();
        let root_b = root.clone();
        let ta = scope.spawn(move || campaign(2, Some(&root_a)).0);
        let tb = scope.spawn(move || campaign(2, Some(&root_b)).0);
        (
            ta.join().expect("campaign a"),
            tb.join().expect("campaign b"),
        )
    });
    assert_eq!(cold, a, "concurrent campaign A diverged from cold");
    assert_eq!(cold, b, "concurrent campaign B diverged from cold");

    // The store the two campaigns raced on still warm-starts a third,
    // and the third still reproduces the cold result.
    let (third, events) = campaign(1, Some(&root));
    assert_eq!(cold, third, "post-race warm session diverged from cold");
    assert!(
        hydrated_chains(&events) > 0,
        "the post-race store should still hydrate: {events:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn store_keys_experiments_apart_by_fingerprint() {
    // Two *different* experiments sharing one store root never see each
    // other's chains: each hydrates only from its own
    // fingerprint-keyed cell.
    let root = temp_root("fingerprint");
    let (_, first_events) = campaign(1, Some(&root));
    assert!(store_flushed(&first_events).0 > 0);

    // A different bug set → different fingerprint → fresh cell.
    let mut other = experiment();
    other.bugs = BugSet::none();
    let mut log = EventLog::new();
    Campaign::builder()
        .experiment(other)
        .approach(Approach::Avis)
        .budget(Budget::simulations(4))
        .profiling_runs(1)
        .parallelism(1)
        .snapshot_store(root.clone())
        .build()
        .run_with_observer(&mut log);
    assert_eq!(
        hydrated_chains(log.events()),
        0,
        "a foreign experiment must not hydrate this experiment's chains"
    );
    // Two fingerprint cells now live under the root.
    let cells = std::fs::read_dir(&root).unwrap().count();
    assert_eq!(cells, 2, "each experiment gets its own store cell");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn matrix_with_persistent_store_reproduces_the_storeless_report() {
    // The ScenarioMatrix integration: a matrix re-run against a store
    // root warm-starts every firmware × workload cell from its own
    // fingerprint-keyed chains and still reproduces the storeless
    // report exactly — with cells sharing one cache, and with every
    // cell on a cache of its own.
    let run = |share: bool, store: Option<&PathBuf>| {
        let mut matrix = ScenarioMatrix::new()
            .firmware(FirmwareProfile::ArduPilotLike)
            .workload(auto_box_mission())
            .approaches([Approach::Avis, Approach::Bfi])
            .budget(Budget::simulations(5))
            .profiling_runs(1)
            .parallelism(2)
            .max_duration(110.0)
            .noise(SensorNoise::default())
            .share_snapshots(share);
        if let Some(root) = store {
            matrix = matrix.snapshot_store(root.clone());
        }
        let mut log = EventLog::new();
        let report = matrix.run_with_observer(&mut log);
        let hydrated: u64 = log
            .events()
            .iter()
            .map(|e| match e {
                CampaignEvent::StoreHydrated { chains, .. } => *chains,
                _ => 0,
            })
            .sum();
        (report, hydrated)
    };
    let (storeless, _) = run(true, None);
    for share in [true, false] {
        let root = temp_root(&format!("matrix-share-{share}"));
        let (first, _) = run(share, Some(&root));
        assert_eq!(
            storeless, first,
            "store-backed matrix (share_snapshots({share})) diverged from the storeless report"
        );
        let (warm, hydrated) = run(share, Some(&root));
        assert_eq!(
            storeless, warm,
            "persisted-warm matrix (share_snapshots({share})) diverged from the storeless report"
        );
        assert!(
            hydrated > 0,
            "the warm matrix (share_snapshots({share})) should hydrate from disk"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn store_survives_checkpointing_disabled() {
    // A store configured alongside disabled checkpointing is inert: no
    // Store events fire and the campaign still matches cold execution.
    let root = temp_root("disabled");
    let mut log = EventLog::new();
    let result = Campaign::builder()
        .experiment(experiment())
        .approach(Approach::Avis)
        .budget(Budget::simulations(6))
        .profiling_runs(1)
        .parallelism(1)
        .checkpoints(CheckpointConfig::disabled())
        .snapshot_store(root.clone())
        .build()
        .run_with_observer(&mut log);
    let cold = Campaign::builder()
        .experiment(experiment())
        .approach(Approach::Avis)
        .budget(Budget::simulations(6))
        .profiling_runs(1)
        .parallelism(1)
        .build()
        .run();
    assert_eq!(cold, result, "an inert store changed a campaign result");
    assert!(
        !log.events()
            .iter()
            .any(|e| matches!(e, CampaignEvent::StoreHydrated { .. })),
        "no checkpointing, no hydration"
    );
    let _ = std::fs::remove_dir_all(&root);
}
