//! Property-based tests over the core data structures and invariants,
//! spanning the simulator math, the wire codec, fault plans, the pruning
//! signatures and the fluent campaign builder.
//!
//! The build environment has no crates.io access, so instead of
//! `proptest` these use a seeded [`SimRng`] to draw a few hundred random
//! cases per property — fully deterministic across runs, with the case
//! data included in assertion messages for shrink-free debugging.

use avis::campaign::{Campaign, CampaignBuilder};
use avis::checker::{Approach, Budget};
use avis::pruning::RoleSignature;
use avis_firmware::{SensorFrontend, SensorHealth};
use avis_hinj::{FaultInjector, FaultPlan, FaultSpec, InjectionRecord, SharedInjector};
use avis_mavlite::{
    decode_frame, encode_frame, Endpoint, Link, Message, MissionCommand, MissionItem, ProtocolMode,
    FRAME_MAGIC,
};
use avis_sim::cow::MemoryChunkStore;
use avis_sim::math::{wrap_angle, Quat, Vec3};
use avis_sim::{
    ByteReader, ByteWriter, ChunkMemo, SensorInstance, SensorKind, SensorReading, SensorValue,
    SimRng,
};

const CASES: usize = 300;

fn arb_vec3(rng: &mut SimRng) -> Vec3 {
    Vec3::new(
        rng.uniform_range(-1e3, 1e3),
        rng.uniform_range(-1e3, 1e3),
        rng.uniform_range(-1e3, 1e3),
    )
}

fn arb_sensor_kind(rng: &mut SimRng) -> SensorKind {
    SensorKind::ALL[rng.index(SensorKind::ALL.len())]
}

fn arb_instance(rng: &mut SimRng) -> SensorInstance {
    SensorInstance::new(arb_sensor_kind(rng), rng.index(3) as u8)
}

fn arb_spec(rng: &mut SimRng) -> FaultSpec {
    FaultSpec::new(arb_instance(rng), rng.uniform_range(0.0, 200.0))
}

fn arb_message(rng: &mut SimRng) -> Message {
    match rng.index(10) {
        0 => Message::Heartbeat {
            mode: if rng.chance(0.5) {
                ProtocolMode::Auto
            } else {
                ProtocolMode::Land
            },
            armed: rng.chance(0.5),
        },
        1 => Message::Status {
            x: rng.uniform_range(-500.0, 500.0),
            y: rng.uniform_range(-500.0, 500.0),
            altitude: rng.uniform_range(0.0, 120.0),
            climb_rate: rng.uniform_range(-10.0, 10.0),
            mission_seq: rng.index(20) as u16,
            landed: rng.chance(0.5),
        },
        2 => Message::ArmDisarm {
            arm: rng.chance(0.5),
        },
        3 => Message::CommandTakeoff {
            altitude: rng.uniform_range(0.0, 100.0),
        },
        4 => Message::CommandGoto {
            x: rng.uniform_range(-200.0, 200.0),
            y: rng.uniform_range(-200.0, 200.0),
            z: rng.uniform_range(0.0, 100.0),
        },
        5 => Message::MissionCount {
            count: rng.index(100) as u16,
        },
        6 => Message::MissionRequest {
            seq: rng.index(100) as u16,
        },
        7 => Message::MissionItemMsg {
            item: MissionItem::new(
                rng.index(30) as u16,
                MissionCommand::Waypoint {
                    x: rng.uniform_range(-100.0, 100.0),
                    y: rng.uniform_range(-100.0, 100.0),
                    z: rng.uniform_range(1.0, 60.0),
                },
            ),
        },
        8 => Message::MissionAck {
            accepted: rng.chance(0.5),
        },
        _ => Message::StatusText {
            severity: rng.index(8) as u8,
        },
    }
}

/// Rotating any vector by any attitude preserves its length, and rotating
/// back recovers the original vector.
#[test]
fn quaternion_rotation_preserves_norm() {
    let mut rng = SimRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let v = arb_vec3(&mut rng);
        let roll = rng.uniform_range(-3.0, 3.0);
        let pitch = rng.uniform_range(-1.5, 1.5);
        let yaw = rng.uniform_range(-3.0, 3.0);
        let q = Quat::from_euler(roll, pitch, yaw);
        let rotated = q.rotate(v);
        assert!(
            (rotated.norm() - v.norm()).abs() < 1e-6,
            "norm not preserved: v={v:?} rpy=({roll},{pitch},{yaw})"
        );
        let back = q.rotate_inverse(rotated);
        assert!(
            back.distance(v) < 1e-6,
            "inverse rotation diverged: v={v:?}"
        );
    }
}

/// Wrapped angles always land in (-pi, pi] and wrapping is idempotent.
#[test]
fn wrap_angle_stays_in_range() {
    let mut rng = SimRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let angle = rng.uniform_range(-1e4, 1e4);
        let wrapped = wrap_angle(angle);
        assert!(wrapped > -std::f64::consts::PI - 1e-9, "angle={angle}");
        assert!(wrapped <= std::f64::consts::PI + 1e-9, "angle={angle}");
        assert!(
            (wrap_angle(wrapped) - wrapped).abs() < 1e-9,
            "angle={angle}"
        );
    }
}

/// The triangle inequality holds for the Euclidean position distance used
/// by the invariant monitor.
#[test]
fn position_distance_triangle_inequality() {
    let mut rng = SimRng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let (a, b, c) = (arb_vec3(&mut rng), arb_vec3(&mut rng), arb_vec3(&mut rng));
        assert!(
            a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9,
            "triangle inequality failed: a={a:?} b={b:?} c={c:?}"
        );
        assert!(a.distance(b) >= 0.0);
        assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
    }
}

/// Every MAVLite message survives an encode/decode round trip.
#[test]
fn mavlite_frames_round_trip() {
    let mut rng = SimRng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let msg = arb_message(&mut rng);
        let seq = rng.index(256) as u8;
        let frame = encode_frame(&msg, seq);
        let (decoded, decoded_seq, used) = decode_frame(&frame).expect("well-formed frame");
        assert_eq!(decoded, msg);
        assert_eq!(decoded_seq, seq);
        assert_eq!(used, frame.len());
    }
}

/// Corrupting any single payload byte of a frame never yields a wrong
/// message: decoding either fails or (for the rare case where the
/// corrupted byte is outside the checksummed region boundary) returns the
/// original message.
#[test]
fn mavlite_detects_single_byte_corruption() {
    let mut rng = SimRng::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let msg = arb_message(&mut rng);
        let mut bytes = encode_frame(&msg, 7);
        let idx = (1 + rng.index(63)) % bytes.len();
        let bit = rng.index(8) as u8;
        if idx == 0 {
            // Corrupting the magic byte is always detected as BadMagic.
            bytes[0] ^= 1 << bit;
            assert!(decode_frame(&bytes).is_err(), "msg={msg:?}");
        } else {
            bytes[idx] ^= 1 << bit;
            match decode_frame(&bytes) {
                Err(_) => {}
                Ok((decoded, _, _)) => {
                    assert_eq!(
                        decoded, msg,
                        "corrupted byte {idx} bit {bit} changed message"
                    )
                }
            }
        }
    }
}

/// The codec never panics on adversarial input: any byte string — random
/// garbage, truncated frames, multi-bit-corrupted frames — either decodes
/// to some message or fails cleanly.
#[test]
fn mavlite_decoder_never_panics_on_adversarial_bytes() {
    let mut rng = SimRng::seed_from_u64(0xC1);
    for case in 0..CASES {
        let bytes: Vec<u8> = match case % 3 {
            // Pure garbage of arbitrary length (including empty).
            0 => (0..rng.index(80)).map(|_| rng.index(256) as u8).collect(),
            // A real frame truncated at an arbitrary point.
            1 => {
                let msg = arb_message(&mut rng);
                let frame = encode_frame(&msg, rng.index(256) as u8);
                let cut = rng.index(frame.len() + 1);
                frame[..cut].to_vec()
            }
            // A real frame with several random bytes flipped.
            _ => {
                let msg = arb_message(&mut rng);
                let mut frame = encode_frame(&msg, rng.index(256) as u8);
                for _ in 0..1 + rng.index(4) {
                    let idx = rng.index(frame.len());
                    frame[idx] ^= rng.index(256) as u8;
                }
                frame
            }
        };
        // Must not panic, whatever it returns.
        let _ = decode_frame(&bytes);
    }
}

/// A garbage prefix free of magic bytes never costs a frame: the
/// receiver resynchronises on the first real `FRAME_MAGIC` and every
/// intact frame after the garbage decodes exactly.
#[test]
fn mavlite_link_resynchronises_past_a_garbage_prefix() {
    let mut rng = SimRng::seed_from_u64(0xC2);
    for case in 0..CASES {
        let mut link = Link::new();
        let garbage: Vec<u8> = (0..1 + rng.index(40))
            .map(|_| {
                let b = rng.index(256) as u8;
                if b == FRAME_MAGIC {
                    b ^ 0xFF
                } else {
                    b
                }
            })
            .collect();
        link.inject_frame(Endpoint::Vehicle, &garbage);
        let intact: Vec<Message> = (0..1 + rng.index(4))
            .map(|_| arb_message(&mut rng))
            .collect();
        for msg in &intact {
            link.send(Endpoint::GroundStation, msg);
        }
        assert_eq!(
            link.drain(Endpoint::Vehicle),
            intact,
            "case {case}: garbage prefix {garbage:?} cost a frame"
        );
        assert!(link.decode_error_count() > 0, "case {case}");
        assert_eq!(link.pending_bytes(Endpoint::Vehicle), 0, "case {case}");
    }
}

/// A link stream *recovers* from arbitrary damage: garbage that may embed
/// fake frame headers plus a corrupted frame can swallow a bounded amount
/// of following traffic (a fake header claims at most one max-size frame),
/// but the receiver always resynchronises within a few frames, after which
/// intact traffic decodes exactly, forever.
#[test]
fn mavlite_link_recovers_from_adversarial_damage() {
    let mut rng = SimRng::seed_from_u64(0xC3);
    for case in 0..CASES {
        let mut link = Link::new();
        // Adversarial garbage, with magic bytes deliberately over-
        // represented so resync has to reject fake headers too.
        let garbage: Vec<u8> = (0..rng.index(40))
            .map(|_| {
                if rng.chance(0.2) {
                    FRAME_MAGIC
                } else {
                    rng.index(256) as u8
                }
            })
            .collect();
        link.inject_frame(Endpoint::Vehicle, &garbage);
        // A damaged frame: encode then flip one non-magic byte.
        let damaged_msg = arb_message(&mut rng);
        let mut damaged = encode_frame(&damaged_msg, 0);
        let idx = 1 + rng.index(damaged.len() - 1);
        damaged[idx] ^= 1 + rng.index(255) as u8;
        link.inject_frame(Endpoint::Vehicle, &damaged);
        // Feed sync traffic until the receiver has fully drained its
        // stream: a pending byte count of zero after a drain means every
        // fake header has been consumed and rejected, i.e. the stream is
        // frame-aligned again. Each round adds one frame, and a fake
        // header can claim at most one max-size frame of look-ahead, so
        // alignment must return within a small bounded number of rounds.
        let mut recovered = false;
        for _ in 0..64 {
            link.send(
                Endpoint::GroundStation,
                &Message::StatusText { severity: 6 },
            );
            link.drain(Endpoint::Vehicle);
            if link.pending_bytes(Endpoint::Vehicle) == 0 {
                recovered = true;
                break;
            }
        }
        assert!(
            recovered,
            "case {case}: stream never resynchronised after {garbage:?}"
        );
        // Once re-aligned, intact traffic decodes exactly.
        let intact: Vec<Message> = (0..1 + rng.index(4))
            .map(|_| arb_message(&mut rng))
            .collect();
        for msg in &intact {
            link.send(Endpoint::GroundStation, msg);
        }
        assert_eq!(
            link.drain(Endpoint::Vehicle),
            intact,
            "case {case}: recovered stream must decode intact frames exactly"
        );
    }
}

/// Fault plans are order-independent sets: building a plan from any
/// permutation of the same specs yields the same canonical key, and a
/// sensor never fails more than once.
#[test]
fn fault_plan_canonicalisation() {
    let mut rng = SimRng::seed_from_u64(0xA6);
    for _ in 0..CASES {
        let specs: Vec<FaultSpec> = (0..rng.index(8)).map(|_| arb_spec(&mut rng)).collect();
        let plan = FaultPlan::from_specs(specs.clone());
        let mut reversed = specs.clone();
        reversed.reverse();
        let plan_rev = FaultPlan::from_specs(reversed);
        assert_eq!(
            plan.canonical_key(),
            plan_rev.canonical_key(),
            "specs={specs:?}"
        );
        // At most one failure per instance, at the earliest requested time.
        let distinct: std::collections::BTreeSet<_> = specs.iter().map(|s| s.instance).collect();
        assert_eq!(plan.len(), distinct.len(), "specs={specs:?}");
        for spec in &specs {
            let time = plan
                .failure_time(spec.instance)
                .expect("instance scheduled");
            assert!(time <= spec.time + 1e-9, "specs={specs:?}");
        }
        // The failure predicate is monotone in time.
        for spec in plan.specs() {
            assert!(!plan.is_failed(spec.instance, spec.time - 0.001));
            assert!(plan.is_failed(spec.instance, spec.time));
            assert!(plan.is_failed(spec.instance, spec.time + 1000.0));
        }
    }
}

/// Role signatures are invariant under backup-index renaming and a plan
/// is always a subset of any plan that extends it.
#[test]
fn role_signature_symmetry_and_subsets() {
    let mut rng = SimRng::seed_from_u64(0xA7);
    for _ in 0..CASES {
        let specs: Vec<FaultSpec> = (0..1 + rng.index(5)).map(|_| arb_spec(&mut rng)).collect();
        let extra = arb_spec(&mut rng);
        let plan = FaultPlan::from_specs(specs.clone());
        // Rename backups: index 1 <-> 2 (index 0 stays primary).
        let renamed: Vec<FaultSpec> = specs
            .iter()
            .map(|s| {
                let index = match s.instance.index {
                    1 => 2,
                    2 => 1,
                    other => other,
                };
                FaultSpec::new(SensorInstance::new(s.instance.kind, index), s.time)
            })
            .collect();
        let renamed_plan = FaultPlan::from_specs(renamed);
        assert_eq!(
            RoleSignature::of(&plan),
            RoleSignature::of(&renamed_plan),
            "specs={specs:?}"
        );

        // Adding a failure of a *new* instance extends the plan, so the
        // original signature must be contained in the extended one. (When
        // `extra` re-schedules an instance already in the plan, the earlier
        // time wins and the original entry is replaced, so containment is
        // not expected.)
        if plan.failure_time(extra.instance).is_none() {
            let extended = plan.with(extra);
            assert!(
                RoleSignature::of(&plan).is_subset_of(&RoleSignature::of(&extended)),
                "specs={specs:?} extra={extra:?}"
            );
        }
    }
}

/// Builder setters applied in any order produce the same campaign as the
/// same setters applied in a fixed order: each setter writes its own
/// field, so the fluent API has no order-dependent state.
#[test]
fn builder_permutations_match_fixed_order_builder() {
    use avis_firmware::{BugSet, FirmwareProfile};
    use avis_workload::{auto_box_mission, manual_box_survey};

    let mut rng = SimRng::seed_from_u64(0xB1);
    for case in 0..3 {
        // Draw one random campaign configuration...
        let approach = Approach::ALL[rng.index(Approach::ALL.len())];
        let budget = Budget::simulations(4 + rng.index(3));
        let profiling_runs = 1 + rng.index(2);
        let parallelism = 1 + rng.index(3);
        let seed = 11 + rng.index(50) as u64;
        let workload = if rng.chance(0.5) {
            auto_box_mission()
        } else {
            manual_box_survey()
        };
        let profile = FirmwareProfile::ArduPilotLike;
        let bugs = BugSet::current_code_base(profile);

        // ...as a list of setters...
        type Setter = Box<dyn FnOnce(CampaignBuilder) -> CampaignBuilder>;
        let setters = || -> Vec<Setter> {
            let wl = workload.clone();
            let bg = bugs.clone();
            vec![
                Box::new(move |b| b.firmware(profile)),
                Box::new(move |b| b.bugs(bg)),
                Box::new(move |b| b.workload(wl)),
                Box::new(move |b| b.max_duration(110.0)),
                Box::new(move |b| b.approach(approach)),
                Box::new(move |b| b.budget(budget)),
                Box::new(move |b| b.profiling_runs(profiling_runs)),
                Box::new(move |b| b.parallelism(parallelism)),
                Box::new(move |b| b.seed(seed)),
            ]
        };
        let build = |setters: Vec<Setter>| {
            setters
                .into_iter()
                .fold(Campaign::builder(), |builder, setter| setter(builder))
                .build()
                .run()
        };

        // ...applied in the listed order, and in a random order
        // (Fisher–Yates over the setter list).
        let fixed = build(setters());
        let mut permuted = setters();
        for i in (1..permuted.len()).rev() {
            let j = rng.index(i + 1);
            permuted.swap(i, j);
        }
        let fluent = build(permuted);

        assert_eq!(
            fixed, fluent,
            "case {case}: {approach} budget={budget:?} profiling={profiling_runs} \
             parallelism={parallelism} seed={seed} diverged between the fixed-order \
             and a permuted builder"
        );
    }
}

/// An instance of any kind whose index may be one the iris suite lacks
/// (it has at most three per kind) or one past a 64-bit instance mask.
fn arb_wide_instance(rng: &mut SimRng) -> SensorInstance {
    const INDICES: [u8; 11] = [0, 1, 2, 3, 5, 63, 64, 65, 127, 200, 255];
    SensorInstance::new(arb_sensor_kind(rng), INDICES[rng.index(INDICES.len())])
}

/// A fault onset or query time: NaN, ±∞, an earlier draw again, a time
/// exactly on a 2.5 ms step, or any time around the flight.
fn arb_edge_time(rng: &mut SimRng, earlier: &[f64]) -> f64 {
    match rng.index(10) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 | 4 if !earlier.is_empty() => earlier[rng.index(earlier.len())],
        3..=6 => rng.index(400) as f64 * 0.0025,
        _ => rng.uniform_range(-0.1, 1.1),
    }
}

/// A plan of 0–4 faults on wide instances at edge times; the onsets are
/// appended to `times`, so later draws repeat them.
fn arb_edge_plan(rng: &mut SimRng, times: &mut Vec<f64>) -> FaultPlan {
    let mut plan = FaultPlan::empty();
    for _ in 0..rng.index(5) {
        let time = arb_edge_time(rng, times);
        times.push(time);
        plan.add(FaultSpec::new(arb_wide_instance(rng), time));
    }
    plan
}

/// The injector's semantics written out: a plan lookup per read and a
/// scan of the log for each instance's first failed read.
#[derive(Clone)]
struct InjectorModel {
    plan: FaultPlan,
    injections: Vec<InjectionRecord>,
    reads: u64,
    failed_reads: u64,
}

impl InjectorModel {
    fn new(plan: FaultPlan) -> Self {
        InjectorModel {
            plan,
            injections: Vec::new(),
            reads: 0,
            failed_reads: 0,
        }
    }

    fn should_fail(&mut self, instance: SensorInstance, time: f64) -> bool {
        self.reads += 1;
        let failed = self.plan.is_failed(instance, time);
        if failed {
            self.failed_reads += 1;
            if !self.injections.iter().any(|r| r.instance == instance) {
                self.injections.push(InjectionRecord {
                    instance,
                    first_failed_read: time,
                });
            }
        }
        failed
    }

    fn assert_matches(&self, injector: &FaultInjector, context: &str) {
        assert_eq!(injector.total_reads(), self.reads, "{context}");
        assert_eq!(injector.failed_reads(), self.failed_reads, "{context}");
        assert_eq!(injector.injections().to_vec(), self.injections, "{context}");
    }
}

/// The store round trip of a run's injector, as a cut takes it.
fn injector_round_trip(injector: &mut FaultInjector) -> FaultInjector {
    let mut store = MemoryChunkStore::new();
    let mut w = ByteWriter::new();
    injector.sealed_clone().encode(&mut w, &mut store);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    let decoded =
        FaultInjector::decode(&mut r, &mut store, &mut ChunkMemo::default()).expect("decode");
    r.finish().expect("no trailing bytes");
    decoded
}

/// Every read the injector answers equals the plan lookup, and its read
/// counters and injection log equal a log scan, whatever the query order,
/// onsets, instance indices, forks and store round trips.
#[test]
fn fault_injector_answers_equal_the_plan() {
    let mut rng = SimRng::seed_from_u64(0xD1);
    for case in 0..CASES {
        let mut times = Vec::new();
        let plan = arb_edge_plan(&mut rng, &mut times);
        let mut injector = FaultInjector::new(plan.clone());
        let mut model = InjectorModel::new(plan);
        let mut clock = 0.0;
        for op in 0..150 {
            let context = format!("case {case} op {op}: plan {:?}", model.plan);
            match rng.index(20) {
                // A fork: the prefix's records, another plan.
                0 => {
                    let plan = if rng.chance(0.3) {
                        model.plan.clone()
                    } else {
                        arb_edge_plan(&mut rng, &mut times)
                    };
                    let mut fork = injector.sealed_clone();
                    fork.set_plan(plan.clone());
                    injector = fork;
                    model.plan = plan;
                }
                1 => injector = injector_round_trip(&mut injector),
                2 => {
                    let plan = injector.take_plan();
                    // Bitwise, since a NaN onset equals nothing.
                    let bits = |plan: &FaultPlan| -> Vec<(SensorInstance, u64)> {
                        plan.specs()
                            .map(|s| (s.instance, s.time.to_bits()))
                            .collect()
                    };
                    assert_eq!(bits(&plan), bits(&model.plan), "{context}");
                    if rng.chance(0.5) {
                        injector.set_plan(plan);
                    } else {
                        model.plan = FaultPlan::empty();
                    }
                }
                // A read: mostly at the 400 Hz clock, sometimes anywhere.
                _ => {
                    let specs: Vec<FaultSpec> = model.plan.specs().collect();
                    let instance = if !specs.is_empty() && rng.chance(0.6) {
                        specs[rng.index(specs.len())].instance
                    } else {
                        arb_wide_instance(&mut rng)
                    };
                    let time = if rng.chance(0.7) {
                        if rng.chance(0.5) {
                            clock += 0.0025;
                        }
                        clock
                    } else {
                        arb_edge_time(&mut rng, &times)
                    };
                    let context = format!("{context}: {instance} at {time}");
                    assert_eq!(
                        injector.should_fail(instance, time),
                        model.should_fail(instance, time),
                        "{context}"
                    );
                }
            }
            model.assert_matches(&injector, &context);
        }
    }
}

/// The sensor health's bookkeeping written out: a failed set, and the
/// active instances and per-kind totals as lists rebuilt by linear search
/// at every read pass.
#[derive(Default)]
struct HealthModel {
    failed: std::collections::BTreeSet<SensorInstance>,
    active: Vec<(SensorKind, SensorInstance)>,
    totals: Vec<(SensorKind, u8)>,
}

impl HealthModel {
    /// One read pass; returns the first healthy reading of each kind.
    fn ingest(
        &mut self,
        readings: &[SensorReading],
        injector: &mut InjectorModel,
        time: f64,
    ) -> Vec<SensorReading> {
        let mut chosen = Vec::new();
        self.active.clear();
        self.totals.clear();
        for reading in readings {
            let kind = reading.instance.kind;
            match self.totals.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => self.totals.push((kind, 1)),
            }
            if injector.should_fail(reading.instance, time) {
                self.failed.insert(reading.instance);
                continue;
            }
            if !self.active.iter().any(|(k, _)| *k == kind) {
                self.active.push((kind, reading.instance));
                chosen.push(*reading);
            }
        }
        chosen
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let failed: Vec<SensorInstance> = self.failed.iter().copied().collect();
        w.seq(&failed, |w, i| i.encode(w));
        w.seq(&self.active, |w, (k, i)| {
            k.encode(w);
            i.encode(w);
        });
        w.seq(&self.totals, |w, (k, n)| {
            k.encode(w);
            w.u8(*n);
        });
        w.into_bytes()
    }

    fn assert_matches(&self, health: &SensorHealth, context: &str) {
        let available = |kind| self.active.iter().any(|(k, _)| *k == kind);
        let kind_failed =
            |kind| !available(kind) && self.totals.iter().any(|&(k, n)| k == kind && n > 0);
        for kind in SensorKind::ALL {
            let context = format!("{context}: {kind}");
            assert_eq!(health.kind_available(kind), available(kind), "{context}");
            assert_eq!(health.kind_failed(kind), kind_failed(kind), "{context}");
            assert_eq!(
                health.primary_failed(kind),
                self.failed.contains(&SensorInstance::new(kind, 0)),
                "{context}"
            );
            assert_eq!(
                health.active_instance(kind),
                self.active
                    .iter()
                    .find(|(k, _)| *k == kind)
                    .map(|(_, i)| *i),
                "{context}"
            );
            assert_eq!(
                health.failed_count(kind),
                self.failed.iter().filter(|i| i.kind == kind).count(),
                "{context}"
            );
        }
        assert_eq!(
            health.imu_failed(),
            kind_failed(SensorKind::Accelerometer) || kind_failed(SensorKind::Gyroscope),
            "{context}"
        );
        assert_eq!(
            health.failed_instances().collect::<Vec<_>>(),
            self.failed.iter().copied().collect::<Vec<_>>(),
            "{context}"
        );
        let mut w = ByteWriter::new();
        health.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, self.encode(), "{context}: encoded bytes");
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            &SensorHealth::decode(&mut r).expect("decode"),
            health,
            "{context}"
        );
        r.finish().expect("no trailing bytes");
    }
}

fn arb_reading(rng: &mut SimRng, instance: SensorInstance, time: f64) -> SensorReading {
    let x = rng.uniform_range(-10.0, 10.0);
    let value = match instance.kind {
        SensorKind::Accelerometer => SensorValue::Acceleration(Vec3::new(x, 0.0, 9.8)),
        SensorKind::Gyroscope => SensorValue::AngularRate(Vec3::new(0.0, x, 0.0)),
        SensorKind::Gps => SensorValue::GpsFix {
            position: Vec3::new(x, 1.0, 2.0),
            velocity: Vec3::new(0.0, 0.0, x),
            satellites: 9,
        },
        SensorKind::Barometer => SensorValue::PressureAltitude(x),
        SensorKind::Compass => SensorValue::MagneticHeading(x),
        SensorKind::Battery => SensorValue::BatteryStatus {
            voltage: 12.0 + x,
            remaining: 0.5,
        },
    };
    SensorReading {
        instance,
        time,
        value,
    }
}

/// After every read pass, the frontend's selection and each health query
/// equal a linear scan of the readings against the plan, and the health
/// encodes to the bytes of the list-based bookkeeping, whatever the
/// readings' order, kinds, duplicates and instance indices.
#[test]
fn sensor_health_queries_equal_a_linear_scan() {
    let mut rng = SimRng::seed_from_u64(0xD2);
    for case in 0..CASES {
        let mut times = Vec::new();
        let plan = arb_edge_plan(&mut rng, &mut times);
        let shared = SharedInjector::new(FaultInjector::new(plan.clone()));
        let mut frontend = SensorFrontend::new(shared.clone());
        let mut injector = InjectorModel::new(plan.clone());
        let mut model = HealthModel::default();
        // Readings mostly of the plan's instances, plus a suite of up to
        // three kinds.
        let kinds: Vec<SensorKind> = (0..1 + rng.index(3))
            .map(|_| arb_sensor_kind(&mut rng))
            .collect();
        for pass in 0..12 {
            let time = arb_edge_time(&mut rng, &times);
            let mut readings = Vec::new();
            for spec in plan.specs() {
                if rng.chance(0.8) {
                    readings.push(arb_reading(&mut rng, spec.instance, time));
                }
            }
            for _ in 0..rng.index(12) {
                let mut instance = arb_wide_instance(&mut rng);
                instance.kind = kinds[rng.index(kinds.len())];
                readings.push(arb_reading(&mut rng, instance, time));
            }
            for i in (1..readings.len()).rev() {
                readings.swap(i, rng.index(i + 1));
            }
            let context = format!("case {case} pass {pass}: plan {plan:?} at {time}");
            let selected = frontend.ingest(&readings, time);
            let chosen = model.ingest(&readings, &mut injector, time);
            let value = |kind| {
                chosen
                    .iter()
                    .find(|r| r.instance.kind == kind)
                    .map(|r| r.value)
            };
            let expected = (
                value(SensorKind::Accelerometer),
                value(SensorKind::Gyroscope),
                value(SensorKind::Gps),
                value(SensorKind::Barometer),
                value(SensorKind::Compass),
                value(SensorKind::Battery),
            );
            let got = (
                selected.accel.map(SensorValue::Acceleration),
                selected.gyro.map(SensorValue::AngularRate),
                selected.gps.map(|g| SensorValue::GpsFix {
                    position: g.position,
                    velocity: g.velocity,
                    satellites: 9,
                }),
                selected.baro_altitude.map(SensorValue::PressureAltitude),
                selected.heading.map(SensorValue::MagneticHeading),
                selected.battery.map(|b| SensorValue::BatteryStatus {
                    voltage: b.voltage,
                    remaining: b.remaining,
                }),
            );
            assert_eq!(got, expected, "{context}");
            model.assert_matches(frontend.health(), &context);
            shared.with(|live| injector.assert_matches(live, &context));
        }
    }
}
