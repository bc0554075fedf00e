//! Protocol-level fault injection on the GCS ↔ vehicle link.
//!
//! The paper's fault model stops at sensors; this module extends the
//! injection surface to the MAVLink-like transport itself. A
//! [`FaultyLink`] wraps [`avis_mavlite::Link`] and applies a
//! [`LinkFaultPlan`] to every frame crossing the wire: per-message drop,
//! duplication, reorder-within-window, byte corruption, fixed delay and
//! mid-mission command storms. Every stochastic decision draws from a
//! seeded [`SimRng`] — never wall-clock — so link-fault runs replay
//! bit-identically and compose with the checkpoint/fork machinery the
//! same way sensor faults do.
//!
//! The shim's observable state at any simulation time `t` is a pure
//! function of the specs whose start time is `< t` (plus the rng stream
//! they consumed), which is exactly the contract the snapshot cache's
//! prefix keys rely on.

use avis_mavlite::{Endpoint, Link, LinkParts, Message, ProtocolMode};
use avis_sim::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use avis_sim::SimRng;
use std::collections::BTreeSet;
use std::fmt;

/// Which of the link's two byte streams a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkDirection {
    /// GCS → vehicle (commands and mission uploads).
    ToVehicle,
    /// Vehicle → GCS (heartbeats, telemetry and acks).
    ToGcs,
}

impl LinkDirection {
    /// The endpoint that receives frames on this stream.
    pub fn receiver(self) -> Endpoint {
        match self {
            LinkDirection::ToVehicle => Endpoint::Vehicle,
            LinkDirection::ToGcs => Endpoint::GroundStation,
        }
    }

    /// The endpoint that sends frames on this stream.
    pub fn sender(self) -> Endpoint {
        match self {
            LinkDirection::ToVehicle => Endpoint::GroundStation,
            LinkDirection::ToGcs => Endpoint::Vehicle,
        }
    }

    /// The stream a frame sent from `from` travels on.
    pub fn from_sender(from: Endpoint) -> Self {
        match from {
            Endpoint::GroundStation => LinkDirection::ToVehicle,
            Endpoint::Vehicle => LinkDirection::ToGcs,
        }
    }

    fn short_name(self) -> &'static str {
        match self {
            LinkDirection::ToVehicle => "tv",
            LinkDirection::ToGcs => "tg",
        }
    }

    /// Serialises the direction for the persistent snapshot store.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u8(match self {
            LinkDirection::ToVehicle => 0,
            LinkDirection::ToGcs => 1,
        });
    }

    /// Reads a direction written by [`LinkDirection::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        match r.u8()? {
            0 => Ok(LinkDirection::ToVehicle),
            1 => Ok(LinkDirection::ToGcs),
            _ => Err(CodecError::Malformed("link direction tag")),
        }
    }
}

/// The command a [`LinkFaultKind::Storm`] floods the link with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StormCommand {
    /// A burst of `ArmDisarm { arm: true }` requests.
    Arm,
    /// A burst of `SetMode { mode: ReturnToLaunch }` requests.
    ReturnToLaunch,
}

impl StormCommand {
    fn message(self) -> Message {
        match self {
            StormCommand::Arm => Message::ArmDisarm { arm: true },
            StormCommand::ReturnToLaunch => Message::SetMode {
                mode: ProtocolMode::ReturnToLaunch,
            },
        }
    }

    fn short_name(self) -> &'static str {
        match self {
            StormCommand::Arm => "arm",
            StormCommand::ReturnToLaunch => "rtl",
        }
    }

    /// Serialises the command for the persistent snapshot store.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u8(match self {
            StormCommand::Arm => 0,
            StormCommand::ReturnToLaunch => 1,
        });
    }

    /// Reads a command written by [`StormCommand::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        match r.u8()? {
            0 => Ok(StormCommand::Arm),
            1 => Ok(StormCommand::ReturnToLaunch),
            _ => Err(CodecError::Malformed("storm command tag")),
        }
    }
}

/// One protocol-level fault behaviour.
///
/// Window kinds (`Drop`, `Duplicate`, `Reorder`, `Corrupt`, `Delay`) act
/// on every frame sent on their stream while `spec.time <= now <
/// spec.time + duration`; `Storm` fires once, at the first delivery on
/// its stream at or after `spec.time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFaultKind {
    /// Silently discard frames (the sender's sequence counter still
    /// advances, so the receiver observes the gap).
    Drop {
        /// Length of the active window (s).
        duration: f64,
        /// Per-frame drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Deliver an extra copy of frames.
    Duplicate {
        /// Length of the active window (s).
        duration: f64,
        /// Per-frame duplication probability in `[0, 1]`.
        probability: f64,
    },
    /// Hold frames and release them in reversed order once `window`
    /// frames have accumulated (or the active window ends).
    Reorder {
        /// Length of the active window (s).
        duration: f64,
        /// Number of frames held back before a reversed flush.
        window: usize,
    },
    /// Flip one frame byte chosen by the seeded rng, exercising the
    /// codec's checksum/resynchronisation path.
    Corrupt {
        /// Length of the active window (s).
        duration: f64,
        /// Per-frame corruption probability in `[0, 1]`.
        probability: f64,
    },
    /// Deliver frames a fixed number of seconds late.
    Delay {
        /// Length of the active window (s).
        duration: f64,
        /// Added latency per frame (s).
        seconds: f64,
    },
    /// Inject a burst of identical GCS-style commands onto the stream
    /// (a hijacked or misbehaving ground station).
    Storm {
        /// The command to flood with.
        command: StormCommand,
        /// Number of copies injected.
        count: u32,
    },
}

impl LinkFaultKind {
    /// The active-window length of this kind (0 for one-shot storms).
    pub fn duration(&self) -> f64 {
        match *self {
            LinkFaultKind::Drop { duration, .. }
            | LinkFaultKind::Duplicate { duration, .. }
            | LinkFaultKind::Reorder { duration, .. }
            | LinkFaultKind::Corrupt { duration, .. }
            | LinkFaultKind::Delay { duration, .. } => duration,
            LinkFaultKind::Storm { .. } => 0.0,
        }
    }

    /// Serialises the fault behaviour for the persistent snapshot store.
    pub fn encode(&self, w: &mut ByteWriter) {
        match *self {
            LinkFaultKind::Drop {
                duration,
                probability,
            } => {
                w.u8(0);
                w.f64(duration);
                w.f64(probability);
            }
            LinkFaultKind::Duplicate {
                duration,
                probability,
            } => {
                w.u8(1);
                w.f64(duration);
                w.f64(probability);
            }
            LinkFaultKind::Reorder { duration, window } => {
                w.u8(2);
                w.f64(duration);
                w.usize(window);
            }
            LinkFaultKind::Corrupt {
                duration,
                probability,
            } => {
                w.u8(3);
                w.f64(duration);
                w.f64(probability);
            }
            LinkFaultKind::Delay { duration, seconds } => {
                w.u8(4);
                w.f64(duration);
                w.f64(seconds);
            }
            LinkFaultKind::Storm { command, count } => {
                w.u8(5);
                command.encode(w);
                w.u32(count);
            }
        }
    }

    /// Reads a fault behaviour written by [`LinkFaultKind::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        Ok(match r.u8()? {
            0 => LinkFaultKind::Drop {
                duration: r.f64()?,
                probability: r.f64()?,
            },
            1 => LinkFaultKind::Duplicate {
                duration: r.f64()?,
                probability: r.f64()?,
            },
            2 => LinkFaultKind::Reorder {
                duration: r.f64()?,
                window: r.usize()?,
            },
            3 => LinkFaultKind::Corrupt {
                duration: r.f64()?,
                probability: r.f64()?,
            },
            4 => LinkFaultKind::Delay {
                duration: r.f64()?,
                seconds: r.f64()?,
            },
            5 => LinkFaultKind::Storm {
                command: StormCommand::decode(r)?,
                count: r.u32()?,
            },
            _ => return Err(CodecError::Malformed("link fault kind tag")),
        })
    }
}

/// One scheduled protocol fault: `kind` applied to `direction` starting
/// at simulation time `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultSpec {
    /// The fault behaviour.
    pub kind: LinkFaultKind,
    /// The stream it applies to.
    pub direction: LinkDirection,
    /// Simulation time at which the fault starts (s).
    pub time: f64,
}

impl LinkFaultSpec {
    /// Creates a link fault specification.
    pub fn new(kind: LinkFaultKind, direction: LinkDirection, time: f64) -> Self {
        LinkFaultSpec {
            kind,
            direction,
            time,
        }
    }

    /// Returns `true` if this spec's window is active at `now`.
    pub fn active_at(&self, now: f64) -> bool {
        now >= self.time && now < self.time + self.kind.duration()
    }

    /// A canonical, quantised string identifying this spec — the link
    /// analogue of the sensor plan's `kind:index:time_ms` parts. Times
    /// and probabilities are quantised (ms / 1e-3) so replay jitter does
    /// not create spurious distinct plans.
    pub fn canonical_part(&self) -> String {
        let q = |v: f64| (v * 1000.0).round() as i64;
        let dir = self.direction.short_name();
        let t = q(self.time);
        match self.kind {
            LinkFaultKind::Drop {
                duration,
                probability,
            } => format!("link:drop:{dir}:{t}:{}:{}", q(duration), q(probability)),
            LinkFaultKind::Duplicate {
                duration,
                probability,
            } => format!("link:dup:{dir}:{t}:{}:{}", q(duration), q(probability)),
            LinkFaultKind::Reorder { duration, window } => {
                format!("link:reorder:{dir}:{t}:{}:{window}", q(duration))
            }
            LinkFaultKind::Corrupt {
                duration,
                probability,
            } => format!("link:corrupt:{dir}:{t}:{}:{}", q(duration), q(probability)),
            LinkFaultKind::Delay { duration, seconds } => {
                format!("link:delay:{dir}:{t}:{}:{}", q(duration), q(seconds))
            }
            LinkFaultKind::Storm { command, count } => {
                format!("link:storm:{dir}:{t}:{}:{count}", command.short_name())
            }
        }
    }

    /// Serialises the spec for the persistent snapshot store.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.kind.encode(w);
        self.direction.encode(w);
        w.f64(self.time);
    }

    /// Reads a spec written by [`LinkFaultSpec::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        Ok(LinkFaultSpec {
            kind: LinkFaultKind::decode(r)?,
            direction: LinkDirection::decode(r)?,
            time: r.f64()?,
        })
    }
}

impl fmt::Display for LinkFaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{:.3}s", self.canonical_part(), self.time)
    }
}

/// The complete set of protocol faults to inject during one test run —
/// the link analogue of [`crate::FaultPlan`].
///
/// Specs are kept sorted by `(start time, canonical part)` so two plans
/// built from the same specs in any order compare equal, display the
/// same, and produce the same canonical key and injection prefixes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFaultPlan {
    specs: Vec<LinkFaultSpec>,
}

impl LinkFaultPlan {
    /// An empty plan: a transparent link.
    pub fn empty() -> Self {
        LinkFaultPlan::default()
    }

    /// Builds a plan from specifications (duplicates are kept — two
    /// identical drop windows behave like one with doubled odds).
    pub fn from_specs<I: IntoIterator<Item = LinkFaultSpec>>(specs: I) -> Self {
        let mut plan = LinkFaultPlan::default();
        for spec in specs {
            plan.add(spec);
        }
        plan
    }

    /// Adds a fault, keeping the canonical ordering.
    pub fn add(&mut self, spec: LinkFaultSpec) {
        self.specs.push(spec);
        self.normalise();
    }

    /// Returns a new plan equal to `self` plus the given fault.
    pub fn with(&self, spec: LinkFaultSpec) -> Self {
        let mut next = self.clone();
        next.add(spec);
        next
    }

    /// Merges every fault of `other` into `self`.
    pub fn merge(&mut self, other: &LinkFaultPlan) {
        self.specs.extend(other.specs.iter().copied());
        self.normalise();
    }

    fn normalise(&mut self) {
        self.specs.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then_with(|| a.canonical_part().cmp(&b.canonical_part()))
        });
    }

    /// Returns `true` if no protocol faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of scheduled protocol faults.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// The scheduled faults in canonical `(time, part)` order.
    pub fn specs(&self) -> &[LinkFaultSpec] {
        &self.specs
    }

    /// A canonical, order-independent key for de-duplicating plans,
    /// matching the quantisation of [`crate::FaultPlan::canonical_key`].
    pub fn canonical_key(&self) -> String {
        let parts: Vec<String> = self.specs.iter().map(|s| s.canonical_part()).collect();
        parts.join("|")
    }

    /// The faults starting strictly before `t` — the link half of
    /// [`crate::FaultPlan::before`].
    pub fn before(&self, t: f64) -> LinkFaultPlan {
        LinkFaultPlan {
            specs: self.specs.iter().filter(|s| s.time < t).copied().collect(),
        }
    }

    /// Sorted, deduplicated start times of every scheduled fault — the
    /// candidate snapshot-boundary times a forked run must respect.
    pub fn fault_times(&self) -> Vec<f64> {
        let mut times: Vec<f64> = self.specs.iter().map(|s| s.time).collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        times
    }
}

impl fmt::Display for LinkFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("(no link faults)");
        }
        let parts: Vec<String> = self.specs.iter().map(|s| s.canonical_part()).collect();
        f.write_str(&parts.join(", "))
    }
}

/// Counters for the fault behaviours actually applied to traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaultStats {
    /// Frames silently discarded.
    pub dropped: u64,
    /// Extra frame copies delivered.
    pub duplicated: u64,
    /// Frames with a flipped byte.
    pub corrupted: u64,
    /// Frames delivered late.
    pub delayed: u64,
    /// Frames released out of order.
    pub reordered: u64,
    /// Frames injected by command storms.
    pub storm_frames: u64,
}

impl LinkFaultStats {
    /// Serialises the counters for the persistent snapshot store.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.dropped);
        w.u64(self.duplicated);
        w.u64(self.corrupted);
        w.u64(self.delayed);
        w.u64(self.reordered);
        w.u64(self.storm_frames);
    }

    /// Reads counters written by [`LinkFaultStats::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        Ok(LinkFaultStats {
            dropped: r.u64()?,
            duplicated: r.u64()?,
            corrupted: r.u64()?,
            delayed: r.u64()?,
            reordered: r.u64()?,
            storm_frames: r.u64()?,
        })
    }
}

/// A deterministic fault-injecting shim around [`Link`].
///
/// All traffic goes through [`FaultyLink::send`] /
/// [`FaultyLink::deliver`], which apply the plan's active faults using
/// the shim's seeded rng. With an empty plan the shim is byte-for-byte
/// transparent: `send` + `deliver` behave exactly like `Link::send` +
/// `Link::drain`.
#[derive(Debug, Clone)]
pub struct FaultyLink {
    link: Link,
    plan: LinkFaultPlan,
    rng: SimRng,
    /// Frames held back by a `Delay` fault: `(release_time, stream,
    /// bytes)`, in send order.
    delayed: Vec<(f64, LinkDirection, Vec<u8>)>,
    /// Frames held back by an active `Reorder` fault, per stream.
    reorder_to_vehicle: Vec<Vec<u8>>,
    reorder_to_gcs: Vec<Vec<u8>>,
    /// Canonical parts of the storms that already fired. Keyed by part —
    /// not by plan index — so the set stays valid across the snapshot
    /// fork's plan substitution.
    storms_fired: BTreeSet<String>,
    stats: LinkFaultStats,
}

impl FaultyLink {
    /// Creates a shim executing `plan`, drawing from `rng`.
    pub fn new(plan: LinkFaultPlan, rng: SimRng) -> Self {
        FaultyLink {
            link: Link::new(),
            plan,
            rng,
            delayed: Vec::new(),
            reorder_to_vehicle: Vec::new(),
            reorder_to_gcs: Vec::new(),
            storms_fired: BTreeSet::new(),
            stats: LinkFaultStats::default(),
        }
    }

    /// A transparent shim (no faults; the rng is never consumed).
    pub fn passthrough() -> Self {
        FaultyLink::new(LinkFaultPlan::empty(), SimRng::seed_from_u64(0))
    }

    /// The plan being executed.
    pub fn plan(&self) -> &LinkFaultPlan {
        &self.plan
    }

    /// Replaces the plan being executed, keeping the queues, the rng
    /// stream and the fired storms: the fork primitive of checkpointed
    /// replay, as [`crate::FaultInjector::set_plan`] is for the sensor
    /// injector. Only valid when `plan` agrees with the replaced plan on
    /// every fault starting before the fork time, which the snapshot
    /// cache's prefix keys guarantee.
    pub fn set_plan(&mut self, plan: LinkFaultPlan) {
        self.plan = plan;
    }

    /// The wrapped link (sequence-gap and decode-error observability).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Counters of the faults applied so far.
    pub fn stats(&self) -> LinkFaultStats {
        self.stats
    }

    /// Sends `msg` from `from` at simulation time `now`, applying every
    /// fault window active on the frame's stream.
    ///
    /// The sender's sequence counter always advances — dropped frames
    /// leave a receiver-observable gap, exactly like a lossy radio.
    pub fn send(&mut self, from: Endpoint, msg: &Message, now: f64) {
        let dir = LinkDirection::from_sender(from);
        self.release_due(dir, now);
        let frame = self.link.encode_next(from, msg);
        let mut frames: Vec<Vec<u8>> = vec![frame];
        let mut delay: Option<f64> = None;
        let mut reorder_window: Option<usize> = None;
        // Walk the active windows in canonical plan order; each draws
        // from the rng only while active, so the rng stream (and thus
        // every downstream byte) is a pure function of the plan prefix.
        for i in 0..self.plan.specs.len() {
            let spec = self.plan.specs[i];
            if spec.direction != dir || !spec.active_at(now) {
                continue;
            }
            match spec.kind {
                LinkFaultKind::Drop { probability, .. } => {
                    if !frames.is_empty() && self.rng.chance(probability) {
                        self.stats.dropped += frames.len() as u64;
                        frames.clear();
                    }
                }
                LinkFaultKind::Duplicate { probability, .. } => {
                    if !frames.is_empty() && self.rng.chance(probability) {
                        frames.push(frames[0].clone());
                        self.stats.duplicated += 1;
                    }
                }
                LinkFaultKind::Corrupt { probability, .. } => {
                    for frame in frames.iter_mut() {
                        if self.rng.chance(probability) {
                            let idx = self.rng.index(frame.len());
                            // XOR with a non-zero mask guarantees the byte
                            // actually changes.
                            let mask = (self.rng.index(255) + 1) as u8;
                            frame[idx] ^= mask;
                            self.stats.corrupted += 1;
                        }
                    }
                }
                LinkFaultKind::Delay { seconds, .. } => delay = Some(seconds),
                LinkFaultKind::Reorder { window, .. } => reorder_window = Some(window.max(2)),
                LinkFaultKind::Storm { .. } => {}
            }
        }
        for frame in frames {
            if let Some(seconds) = delay {
                // Delay wins over reorder: a late frame is already out of
                // order by the time it is released.
                self.stats.delayed += 1;
                self.delayed.push((now + seconds, dir, frame));
            } else if let Some(window) = reorder_window {
                let buffer = self.reorder_buffer(dir);
                buffer.push(frame);
                if buffer.len() >= window {
                    self.flush_reorder(dir);
                }
            } else {
                self.link.inject_frame(dir.receiver(), &frame);
            }
        }
    }

    /// Delivers every message pending at `at`, first releasing delayed
    /// frames that have come due, flushing reorder buffers whose window
    /// has ended, and firing any storms scheduled at or before `now`.
    pub fn deliver(&mut self, at: Endpoint, now: f64) -> Vec<Message> {
        let dir = match at {
            Endpoint::Vehicle => LinkDirection::ToVehicle,
            Endpoint::GroundStation => LinkDirection::ToGcs,
        };
        self.release_due(dir, now);
        let reorder_active = self.plan.specs.iter().any(|s| {
            s.direction == dir
                && matches!(s.kind, LinkFaultKind::Reorder { .. })
                && s.active_at(now)
        });
        if !reorder_active && !self.reorder_buffer(dir).is_empty() {
            self.flush_reorder(dir);
        }
        self.fire_storms(dir, now);
        self.link.drain(at)
    }

    /// Injects frames held by `Delay` faults whose release time has come.
    fn release_due(&mut self, dir: LinkDirection, now: f64) {
        let mut i = 0;
        while i < self.delayed.len() {
            let (release, d, _) = &self.delayed[i];
            if *d == dir && *release <= now {
                let (_, _, frame) = self.delayed.remove(i);
                self.link.inject_frame(dir.receiver(), &frame);
            } else {
                i += 1;
            }
        }
    }

    fn reorder_buffer(&mut self, dir: LinkDirection) -> &mut Vec<Vec<u8>> {
        match dir {
            LinkDirection::ToVehicle => &mut self.reorder_to_vehicle,
            LinkDirection::ToGcs => &mut self.reorder_to_gcs,
        }
    }

    /// Releases a reorder buffer in reversed (last-in, first-out) order.
    fn flush_reorder(&mut self, dir: LinkDirection) {
        let mut held = std::mem::take(self.reorder_buffer(dir));
        held.reverse();
        self.stats.reordered += held.len() as u64;
        for frame in held {
            self.link.inject_frame(dir.receiver(), &frame);
        }
    }

    /// Fires every storm on `dir` scheduled at or before `now` that has
    /// not fired yet.
    fn fire_storms(&mut self, dir: LinkDirection, now: f64) {
        for i in 0..self.plan.specs.len() {
            let spec = self.plan.specs[i];
            let LinkFaultKind::Storm { command, count } = spec.kind else {
                continue;
            };
            if spec.direction != dir || now < spec.time {
                continue;
            }
            let part = spec.canonical_part();
            if !self.storms_fired.insert(part) {
                continue;
            }
            let msg = command.message();
            for _ in 0..count {
                let frame = self.link.encode_next(dir.sender(), &msg);
                self.link.inject_frame(dir.receiver(), &frame);
                self.stats.storm_frames += 1;
            }
        }
    }

    /// Approximate heap footprint of the shim's state (bytes), used by
    /// the snapshot cache's memory budget. At a loop-top cut the queues
    /// are normally empty, so the state is small and the store writes it
    /// whole.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<FaultyLink>()
            + self.link.pending_bytes(Endpoint::Vehicle)
            + self.link.pending_bytes(Endpoint::GroundStation)
            + self.plan.len() * std::mem::size_of::<LinkFaultSpec>()
            + self
                .delayed
                .iter()
                .map(|(_, _, b)| b.len() + 24)
                .sum::<usize>()
            + self
                .reorder_to_vehicle
                .iter()
                .map(|b| b.len())
                .sum::<usize>()
            + self.reorder_to_gcs.iter().map(|b| b.len()).sum::<usize>()
            + self.storms_fired.iter().map(|s| s.len()).sum::<usize>()
    }

    /// Serialises the shim for the persistent snapshot store.
    pub fn encode(&self, w: &mut ByteWriter) {
        let parts = self.link.export_parts();
        w.bytes(&parts.to_vehicle);
        w.bytes(&parts.to_gcs);
        w.u8(parts.seq_gcs);
        w.u8(parts.seq_vehicle);
        w.option(parts.expected_at_vehicle.as_ref(), |w, s| w.u8(*s));
        w.option(parts.expected_at_gcs.as_ref(), |w, s| w.u8(*s));
        w.u64(parts.seq_gaps_at_vehicle);
        w.u64(parts.seq_gaps_at_gcs);
        w.u64(parts.decode_errors);
        w.seq(self.plan.specs(), |w, s| s.encode(w));
        self.rng.encode(w);
        w.seq(&self.delayed, |w, (release, dir, bytes)| {
            w.f64(*release);
            dir.encode(w);
            w.bytes(bytes);
        });
        w.seq(&self.reorder_to_vehicle, |w, b| w.bytes(b));
        w.seq(&self.reorder_to_gcs, |w, b| w.bytes(b));
        let storms: Vec<&String> = self.storms_fired.iter().collect();
        w.seq(&storms, |w, s| w.str(s));
        self.stats.encode(w);
    }

    /// Reads a shim written by [`FaultyLink::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let parts = LinkParts {
            to_vehicle: r.bytes()?,
            to_gcs: r.bytes()?,
            seq_gcs: r.u8()?,
            seq_vehicle: r.u8()?,
            expected_at_vehicle: r.option(|r| r.u8())?,
            expected_at_gcs: r.option(|r| r.u8())?,
            seq_gaps_at_vehicle: r.u64()?,
            seq_gaps_at_gcs: r.u64()?,
            decode_errors: r.u64()?,
        };
        Ok(FaultyLink {
            link: Link::from_parts(parts),
            plan: LinkFaultPlan::from_specs(r.seq(LinkFaultSpec::decode)?),
            rng: SimRng::decode(r)?,
            delayed: r.seq(|r| Ok((r.f64()?, LinkDirection::decode(r)?, r.bytes()?)))?,
            reorder_to_vehicle: r.seq(|r| r.bytes())?,
            reorder_to_gcs: r.seq(|r| r.bytes())?,
            storms_fired: r.seq(|r| r.str())?.into_iter().collect(),
            stats: LinkFaultStats::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_all(dir: LinkDirection, time: f64, duration: f64) -> LinkFaultSpec {
        LinkFaultSpec::new(
            LinkFaultKind::Drop {
                duration,
                probability: 1.0,
            },
            dir,
            time,
        )
    }

    fn heartbeat() -> Message {
        Message::Heartbeat {
            mode: ProtocolMode::Auto,
            armed: true,
        }
    }

    #[test]
    fn passthrough_is_transparent() {
        let mut faulty = FaultyLink::passthrough();
        for i in 0..10u16 {
            faulty.send(
                Endpoint::GroundStation,
                &Message::MissionRequest { seq: i },
                i as f64,
            );
        }
        let got = faulty.deliver(Endpoint::Vehicle, 10.0);
        assert_eq!(got.len(), 10);
        assert_eq!(got[9], Message::MissionRequest { seq: 9 });
        assert_eq!(faulty.link().seq_gaps(Endpoint::Vehicle), 0);
        assert_eq!(faulty.stats(), LinkFaultStats::default());
    }

    #[test]
    fn drop_window_discards_frames_and_leaves_seq_gaps() {
        let plan = LinkFaultPlan::from_specs(vec![drop_all(LinkDirection::ToVehicle, 5.0, 2.0)]);
        let mut faulty = FaultyLink::new(plan, SimRng::seed_from_u64(1));
        // Before, inside and after the window.
        faulty.send(Endpoint::GroundStation, &heartbeat(), 4.0);
        faulty.send(Endpoint::GroundStation, &heartbeat(), 5.5);
        faulty.send(Endpoint::GroundStation, &heartbeat(), 6.9);
        faulty.send(Endpoint::GroundStation, &heartbeat(), 7.5);
        let got = faulty.deliver(Endpoint::Vehicle, 8.0);
        assert_eq!(got.len(), 2, "the two in-window frames are dropped");
        assert_eq!(faulty.stats().dropped, 2);
        assert_eq!(faulty.link().seq_gaps(Endpoint::Vehicle), 2);
        // The reverse stream is untouched.
        faulty.send(Endpoint::Vehicle, &heartbeat(), 6.0);
        assert_eq!(faulty.deliver(Endpoint::GroundStation, 6.0).len(), 1);
    }

    #[test]
    fn duplicate_window_delivers_extra_copies() {
        let plan = LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
            LinkFaultKind::Duplicate {
                duration: 10.0,
                probability: 1.0,
            },
            LinkDirection::ToVehicle,
            0.0,
        )]);
        let mut faulty = FaultyLink::new(plan, SimRng::seed_from_u64(2));
        faulty.send(
            Endpoint::GroundStation,
            &Message::ArmDisarm { arm: true },
            1.0,
        );
        let got = faulty.deliver(Endpoint::Vehicle, 1.0);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|m| *m == Message::ArmDisarm { arm: true }));
        assert_eq!(faulty.stats().duplicated, 1);
    }

    #[test]
    fn corrupt_window_exercises_codec_recovery() {
        let plan = LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
            LinkFaultKind::Corrupt {
                duration: 100.0,
                probability: 1.0,
            },
            LinkDirection::ToGcs,
            0.0,
        )]);
        let mut faulty = FaultyLink::new(plan, SimRng::seed_from_u64(3));
        for _ in 0..20 {
            faulty.send(Endpoint::Vehicle, &heartbeat(), 1.0);
        }
        let got = faulty.deliver(Endpoint::GroundStation, 1.0);
        assert_eq!(faulty.stats().corrupted, 20);
        // Every frame had a byte flipped; a lucky flip can still decode
        // (e.g. the seq byte), but most must be dropped by the codec.
        assert!(got.len() < 20);
        assert!(faulty.link().decode_error_count() > 0);
    }

    #[test]
    fn delay_holds_frames_until_release_time() {
        let plan = LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
            LinkFaultKind::Delay {
                duration: 10.0,
                seconds: 2.0,
            },
            LinkDirection::ToVehicle,
            0.0,
        )]);
        let mut faulty = FaultyLink::new(plan, SimRng::seed_from_u64(4));
        faulty.send(Endpoint::GroundStation, &heartbeat(), 1.0);
        assert!(faulty.deliver(Endpoint::Vehicle, 1.0).is_empty());
        assert!(faulty.deliver(Endpoint::Vehicle, 2.9).is_empty());
        assert_eq!(faulty.deliver(Endpoint::Vehicle, 3.0).len(), 1);
        assert_eq!(faulty.stats().delayed, 1);
    }

    #[test]
    fn reorder_window_reverses_frames() {
        let plan = LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
            LinkFaultKind::Reorder {
                duration: 10.0,
                window: 3,
            },
            LinkDirection::ToVehicle,
            0.0,
        )]);
        let mut faulty = FaultyLink::new(plan, SimRng::seed_from_u64(5));
        for i in 0..3u16 {
            faulty.send(
                Endpoint::GroundStation,
                &Message::MissionRequest { seq: i },
                1.0,
            );
        }
        let got = faulty.deliver(Endpoint::Vehicle, 1.0);
        let seqs: Vec<u16> = got
            .iter()
            .map(|m| match m {
                Message::MissionRequest { seq } => *seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![2, 1, 0]);
        assert_eq!(faulty.stats().reordered, 3);
    }

    #[test]
    fn reorder_buffer_flushes_when_window_ends() {
        let plan = LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
            LinkFaultKind::Reorder {
                duration: 2.0,
                window: 10,
            },
            LinkDirection::ToVehicle,
            0.0,
        )]);
        let mut faulty = FaultyLink::new(plan, SimRng::seed_from_u64(6));
        faulty.send(Endpoint::GroundStation, &heartbeat(), 1.0);
        assert!(faulty.deliver(Endpoint::Vehicle, 1.5).is_empty());
        // Past the window's end the held frame is released.
        assert_eq!(faulty.deliver(Endpoint::Vehicle, 2.5).len(), 1);
    }

    #[test]
    fn storm_fires_once_at_first_delivery() {
        let plan = LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
            LinkFaultKind::Storm {
                command: StormCommand::Arm,
                count: 5,
            },
            LinkDirection::ToVehicle,
            3.0,
        )]);
        let mut faulty = FaultyLink::new(plan, SimRng::seed_from_u64(7));
        assert!(faulty.deliver(Endpoint::Vehicle, 2.9).is_empty());
        let got = faulty.deliver(Endpoint::Vehicle, 3.0);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|m| *m == Message::ArmDisarm { arm: true }));
        // Subsequent deliveries do not re-fire.
        assert!(faulty.deliver(Endpoint::Vehicle, 4.0).is_empty());
        assert_eq!(faulty.stats().storm_frames, 5);
    }

    #[test]
    fn same_seed_same_fault_decisions() {
        let plan = LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
            LinkFaultKind::Drop {
                duration: 50.0,
                probability: 0.5,
            },
            LinkDirection::ToVehicle,
            0.0,
        )]);
        let run = || {
            let mut faulty = FaultyLink::new(plan.clone(), SimRng::seed_from_u64(99));
            for i in 0..100u16 {
                faulty.send(
                    Endpoint::GroundStation,
                    &Message::MissionRequest { seq: i },
                    i as f64 * 0.1,
                );
            }
            faulty.deliver(Endpoint::Vehicle, 10.0)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() < 100, "p=0.5 drops some, not all");
    }

    #[test]
    fn snapshot_restores_bit_identical_state() {
        let plan = LinkFaultPlan::from_specs(vec![LinkFaultSpec::new(
            LinkFaultKind::Drop {
                duration: 100.0,
                probability: 0.5,
            },
            LinkDirection::ToVehicle,
            0.0,
        )]);
        let mut faulty = FaultyLink::new(plan, SimRng::seed_from_u64(42));
        for i in 0..50u16 {
            faulty.send(
                Endpoint::GroundStation,
                &Message::MissionRequest { seq: i },
                i as f64,
            );
        }
        let mut resumed = faulty.clone();
        // Both continue with the identical rng stream and queue state.
        for i in 50..100u16 {
            faulty.send(
                Endpoint::GroundStation,
                &Message::MissionRequest { seq: i },
                i as f64,
            );
            resumed.send(
                Endpoint::GroundStation,
                &Message::MissionRequest { seq: i },
                i as f64,
            );
        }
        assert_eq!(
            faulty.deliver(Endpoint::Vehicle, 100.0),
            resumed.deliver(Endpoint::Vehicle, 100.0)
        );
        assert_eq!(faulty.stats(), resumed.stats());
    }

    #[test]
    fn storm_dedup_survives_plan_substitution() {
        let storm = LinkFaultSpec::new(
            LinkFaultKind::Storm {
                command: StormCommand::Arm,
                count: 3,
            },
            LinkDirection::ToVehicle,
            1.0,
        );
        let base = LinkFaultPlan::from_specs(vec![storm]);
        let mut faulty = FaultyLink::new(base.clone(), SimRng::seed_from_u64(8));
        assert_eq!(faulty.deliver(Endpoint::Vehicle, 1.0).len(), 3);
        // Fork with an extended plan containing the same storm in its
        // prefix plus a later one: only the later one fires.
        let extended = base.with(LinkFaultSpec::new(
            LinkFaultKind::Storm {
                command: StormCommand::ReturnToLaunch,
                count: 2,
            },
            LinkDirection::ToVehicle,
            5.0,
        ));
        let mut forked = faulty.clone();
        forked.set_plan(extended);
        let got = forked.deliver(Endpoint::Vehicle, 6.0);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|m| matches!(
            m,
            Message::SetMode {
                mode: ProtocolMode::ReturnToLaunch
            }
        )));
    }

    #[test]
    fn snapshot_codec_round_trips_mid_stream_state() {
        // Exercise every queue: delayed frames, reorder buffers, fired
        // storms, consumed rng, and non-trivial stats.
        let plan = LinkFaultPlan::from_specs(vec![
            LinkFaultSpec::new(
                LinkFaultKind::Drop {
                    duration: 100.0,
                    probability: 0.5,
                },
                LinkDirection::ToVehicle,
                0.0,
            ),
            LinkFaultSpec::new(
                LinkFaultKind::Delay {
                    duration: 100.0,
                    seconds: 5.0,
                },
                LinkDirection::ToGcs,
                0.0,
            ),
            LinkFaultSpec::new(
                LinkFaultKind::Storm {
                    command: StormCommand::Arm,
                    count: 2,
                },
                LinkDirection::ToVehicle,
                1.0,
            ),
        ]);
        let mut faulty = FaultyLink::new(plan, SimRng::seed_from_u64(11));
        for i in 0..30u16 {
            faulty.send(
                Endpoint::GroundStation,
                &Message::MissionRequest { seq: i },
                i as f64 * 0.1,
            );
            faulty.send(Endpoint::Vehicle, &heartbeat(), i as f64 * 0.1);
        }
        faulty.deliver(Endpoint::Vehicle, 2.0);
        let mut w = ByteWriter::new();
        faulty.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut b = FaultyLink::decode(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");

        // Both shims continue bit-identically from the restore point.
        let mut a = faulty;
        assert_eq!(a.stats(), b.stats());
        for i in 30..60u16 {
            a.send(
                Endpoint::GroundStation,
                &Message::MissionRequest { seq: i },
                3.0 + i as f64 * 0.1,
            );
            b.send(
                Endpoint::GroundStation,
                &Message::MissionRequest { seq: i },
                3.0 + i as f64 * 0.1,
            );
        }
        assert_eq!(
            a.deliver(Endpoint::Vehicle, 20.0),
            b.deliver(Endpoint::Vehicle, 20.0)
        );
        assert_eq!(
            a.deliver(Endpoint::GroundStation, 20.0),
            b.deliver(Endpoint::GroundStation, 20.0)
        );
        assert_eq!(a.stats(), b.stats());
        assert_eq!(
            a.link().seq_gaps(Endpoint::Vehicle),
            b.link().seq_gaps(Endpoint::Vehicle)
        );
    }

    #[test]
    fn snapshot_decode_rejects_truncated_bytes() {
        let mut w = ByteWriter::new();
        FaultyLink::passthrough().encode(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(FaultyLink::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn canonical_key_and_prefix_are_order_independent() {
        let a = drop_all(LinkDirection::ToVehicle, 1.0, 2.0);
        let b = LinkFaultSpec::new(
            LinkFaultKind::Storm {
                command: StormCommand::Arm,
                count: 4,
            },
            LinkDirection::ToGcs,
            3.0,
        );
        let p1 = LinkFaultPlan::from_specs(vec![a, b]);
        let p2 = LinkFaultPlan::from_specs(vec![b, a]);
        assert_eq!(p1, p2);
        assert_eq!(p1.canonical_key(), p2.canonical_key());
        assert_eq!(LinkFaultPlan::empty().canonical_key(), "");
        // Strictly-before prefix semantics, matching the sensor plan's.
        assert!(p1.before(1.0).is_empty());
        assert_eq!(p1.before(1.5), LinkFaultPlan::from_specs(vec![a]));
        assert_eq!(p1.before(100.0), p2);
        assert_eq!(p1.fault_times(), vec![1.0, 3.0]);
    }
}
