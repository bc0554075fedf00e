//! # avis-hinj
//!
//! The Hardware-fault INJection interface of the Avis reproduction — the
//! analogue of the paper's `libhinj` library (§V.B).
//!
//! `libhinj` sits between the model checker and the UAV firmware:
//!
//! 1. every instrumented sensor-driver `read()` asks the injector whether
//!    the read should fail (a *clean failure*: the instance stops
//!    communicating and the driver reports it failed, permanently for the
//!    rest of the run);
//! 2. the firmware's set-mode routine reports every operating-mode change
//!    through [`FaultInjector::report_mode`], which is how SABRE learns
//!    where the mode transitions are;
//! 3. the injector records everything it did (injections, mode
//!    transitions) so a bug-triggering scenario can be replayed.
//!
//! In the paper this interface is an RPC between the C-instrumented
//! firmware and the checker process; here both live in one process, so the
//! interface is a [`SharedInjector`] handle (an `Arc<Mutex<_>>`) held by
//! both the firmware's sensor frontend and the experiment runner.
//!
//! # Example
//!
//! ```
//! use avis_hinj::{FaultInjector, FaultPlan, FaultSpec, ModeCode};
//! use avis_sim::{SensorInstance, SensorKind};
//!
//! let gps0 = SensorInstance::new(SensorKind::Gps, 0);
//! let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps0, 2.5)]);
//! let mut injector = FaultInjector::new(plan);
//!
//! assert!(!injector.should_fail(gps0, 1.0));
//! assert!(injector.should_fail(gps0, 2.5));
//! // Clean failures are permanent for the rest of the run.
//! assert!(injector.should_fail(gps0, 100.0));
//! injector.report_mode(0.0, ModeCode(3));
//! assert_eq!(injector.mode_transitions().len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod link;

pub use link::{
    FaultyLink, LinkDirection, LinkFaultKind, LinkFaultPlan, LinkFaultSpec, LinkFaultStats,
    LinkSnapshot, StormCommand,
};

use avis_sim::codec::{ByteReader, ByteWriter, CodecResult};
use avis_sim::{ChunkMemo, ChunkSink, ChunkSource, CowVec, SensorInstance};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An opaque operating-mode code reported by the firmware.
///
/// The firmware maps its mode enumeration onto these codes; the injector
/// does not interpret them, it only records transitions between them —
/// exactly the information `hinj_update_mode()` carries in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModeCode(pub u32);

impl fmt::Display for ModeCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mode#{}", self.0)
    }
}

/// A single clean sensor failure: `instance` stops communicating at `time`
/// (seconds of simulation time) and never recovers within the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The sensor instance that fails.
    pub instance: SensorInstance,
    /// Simulation time at which the failure begins (s).
    pub time: f64,
}

impl FaultSpec {
    /// Creates a fault specification.
    pub fn new(instance: SensorInstance, time: f64) -> Self {
        FaultSpec { instance, time }
    }

    /// Serialises the spec (bit-exact) for the persistent store.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.instance.encode(w);
        w.f64(self.time);
    }

    /// Restores a spec serialised by [`FaultSpec::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<FaultSpec> {
        Ok(FaultSpec {
            instance: SensorInstance::decode(r)?,
            time: r.f64()?,
        })
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{:.3}s", self.instance, self.time)
    }
}

/// The complete set of failures to inject during one test run.
///
/// This is the `failures` set manipulated by Algorithm 1 (SABRE): a set of
/// `(sensor instance, timestamp)` pairs. At most one failure per instance
/// is meaningful (the fault model is permanent clean failure), so the plan
/// keeps the earliest start time per instance.
///
/// Since PR 6 a plan also carries an optional [`LinkFaultPlan`]: protocol
/// faults on the GCS ↔ vehicle link, injected by the same scenario. The
/// two surfaces are orthogonal — sensor faults go through the injector's
/// `should_fail` path, link faults through the [`FaultyLink`] shim — but
/// they travel in one plan so the campaign engine's de-duplication,
/// prefix dispatch and snapshot forking treat a scenario as one unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: BTreeMap<SensorInstance, f64>,
    link: LinkFaultPlan,
}

impl FaultPlan {
    /// An empty plan: the fault-free golden/profiling run.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from fault specifications, keeping the earliest start
    /// time when an instance appears more than once.
    pub fn from_specs<I: IntoIterator<Item = FaultSpec>>(specs: I) -> Self {
        let mut plan = FaultPlan::default();
        for spec in specs {
            plan.add(spec);
        }
        plan
    }

    /// Adds a failure to the plan. If the instance is already scheduled to
    /// fail, the earlier start time wins (a sensor cannot fail twice).
    pub fn add(&mut self, spec: FaultSpec) {
        self.faults
            .entry(spec.instance)
            .and_modify(|t| *t = t.min(spec.time))
            .or_insert(spec.time);
    }

    /// Returns a new plan equal to `self` plus the given failure.
    pub fn with(&self, spec: FaultSpec) -> Self {
        let mut next = self.clone();
        next.add(spec);
        next
    }

    /// Returns `true` if no failures are scheduled on either surface —
    /// neither sensor faults nor link faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.link.is_empty()
    }

    /// Number of scheduled sensor failures (link faults are counted by
    /// [`LinkFaultPlan::len`] on [`FaultPlan::link_plan`]).
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The protocol faults carried by this plan (empty by default).
    pub fn link_plan(&self) -> &LinkFaultPlan {
        &self.link
    }

    /// Adds a protocol fault to the plan.
    pub fn add_link(&mut self, spec: LinkFaultSpec) {
        self.link.add(spec);
    }

    /// Returns a new plan equal to `self` plus the given protocol fault.
    pub fn with_link(&self, spec: LinkFaultSpec) -> Self {
        let mut next = self.clone();
        next.add_link(spec);
        next
    }

    /// Replaces the plan's protocol faults wholesale.
    pub fn set_link_plan(&mut self, link: LinkFaultPlan) {
        self.link = link;
    }

    /// Merges every protocol fault of `link` into this plan's link plan.
    pub fn merge_link(&mut self, link: &LinkFaultPlan) {
        self.link.merge(link);
    }

    /// The scheduled failure start time for an instance, if any.
    pub fn failure_time(&self, instance: SensorInstance) -> Option<f64> {
        self.faults.get(&instance).copied()
    }

    /// Iterates over the scheduled failures in instance order.
    pub fn specs(&self) -> impl Iterator<Item = FaultSpec> + '_ {
        self.faults
            .iter()
            .map(|(&instance, &time)| FaultSpec { instance, time })
    }

    /// Returns `true` if `instance` has failed by `time` under this plan.
    pub fn is_failed(&self, instance: SensorInstance, time: f64) -> bool {
        self.failure_time(instance).is_some_and(|t| time >= t)
    }

    /// Serialises the plan for the persistent store: the sensor specs in
    /// instance order plus the link specs, both reconstructible through
    /// the plan builders.
    pub fn encode(&self, w: &mut ByteWriter) {
        let specs: Vec<FaultSpec> = self.specs().collect();
        w.seq(&specs, |w, s| s.encode(w));
        w.seq(self.link.specs(), |w, s| s.encode(w));
    }

    /// Restores a plan serialised by [`FaultPlan::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<FaultPlan> {
        let specs = r.seq(FaultSpec::decode)?;
        let link = r.seq(LinkFaultSpec::decode)?;
        let mut plan = FaultPlan::from_specs(specs);
        plan.set_link_plan(LinkFaultPlan::from_specs(link));
        Ok(plan)
    }

    /// The largest plan contained in both `self` and `other`: the sensor
    /// faults scheduled at the *same* time on the *same* instance in both
    /// plans, plus the link faults present in both. Folding this over a
    /// set of sibling plans yields their shared injection prefix — the
    /// portion of the campaign schedule every sibling executes
    /// identically, which is what lockstep batching runs once.
    pub fn intersection(&self, other: &FaultPlan) -> FaultPlan {
        let mut common = FaultPlan::default();
        for (&instance, &time) in &self.faults {
            if other.faults.get(&instance) == Some(&time) {
                common.faults.insert(instance, time);
            }
        }
        for spec in self.link.specs() {
            if other.link.specs().contains(spec) {
                common.link.add(*spec);
            }
        }
        common
    }

    /// The earliest time at which this plan's behaviour can depart from
    /// `base` (typically the intersection of a sibling set): the minimum
    /// start time over sensor faults absent from `base` or scheduled at a
    /// different time, and link faults absent from `base`. Returns `None`
    /// when the plan never diverges (it is contained in `base`), i.e. a
    /// lockstep lane for this plan can ride its leader to the end.
    pub fn first_divergence_from(&self, base: &FaultPlan) -> Option<f64> {
        let sensor = self
            .faults
            .iter()
            .filter(|(instance, time)| base.faults.get(instance) != Some(time))
            .map(|(_, &time)| time);
        let link = self
            .link
            .specs()
            .iter()
            .filter(|spec| !base.link.specs().contains(spec))
            .map(|spec| spec.time);
        sensor.chain(link).fold(None, |acc: Option<f64>, t| {
            Some(acc.map_or(t, |a| a.min(t)))
        })
    }

    /// A canonical, order-independent key for de-duplicating plans (the
    /// hash-set of explored scenarios in §V.B.2). Times are quantised to
    /// milliseconds so replay jitter does not create spurious new plans.
    pub fn canonical_key(&self) -> String {
        let mut parts: Vec<String> = self
            .specs()
            .map(|s| {
                format!(
                    "{}:{}:{}",
                    s.instance.kind.name(),
                    s.instance.index,
                    (s.time * 1000.0).round() as i64
                )
            })
            .collect();
        parts.extend(self.link.specs().iter().map(|s| s.canonical_part()));
        parts.sort();
        parts.join("|")
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("(no faults)");
        }
        let mut parts: Vec<String> = self.specs().map(|s| s.to_string()).collect();
        parts.extend(self.link.specs().iter().map(|s| s.to_string()));
        f.write_str(&parts.join(", "))
    }
}

/// A record of one injected failure actually delivered to a driver read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionRecord {
    /// The failed instance.
    pub instance: SensorInstance,
    /// The time of the first failed read delivered to the firmware (s).
    pub first_failed_read: f64,
}

/// A record of one operating-mode transition reported by the firmware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeTransitionRecord {
    /// Simulation time of the transition (s).
    pub time: f64,
    /// Mode before the transition, if any mode had been reported before.
    pub from: Option<ModeCode>,
    /// Mode after the transition.
    pub to: ModeCode,
}

/// The fault injector: decides per-read whether a sensor instance has
/// failed and records mode transitions and delivered injections.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    injections: CowVec<InjectionRecord>,
    transitions: CowVec<ModeTransitionRecord>,
    current_mode: Option<ModeCode>,
    reads: u64,
    failed_reads: u64,
}

impl FaultInjector {
    /// Creates an injector executing the given fault plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            ..Default::default()
        }
    }

    /// Creates an injector that never injects (golden / profiling runs).
    pub fn passthrough() -> Self {
        FaultInjector::new(FaultPlan::empty())
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Removes and returns the plan, leaving an empty one behind. The
    /// experiment runner uses this to hand the plan back to the caller at
    /// the end of a run without cloning it up front.
    pub fn take_plan(&mut self) -> FaultPlan {
        std::mem::take(&mut self.plan)
    }

    /// Replaces the plan being executed, keeping every record (delivered
    /// injections, mode transitions, read counters) intact. This is the
    /// fork primitive of checkpointed replay: a run restored from a
    /// snapshot keeps the injector bookkeeping of the shared prefix and
    /// swaps in the new scenario's plan for the remainder of the run.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Captures the injector's complete state — plan, delivered
    /// injections, mode transitions and read counters — so a later run
    /// can resume from this exact point (see [`InjectorSnapshot`]).
    /// Seals the record logs' tails first, so the capture shares the
    /// history structurally (O(1) in the record count) instead of
    /// deep-cloning it.
    pub fn snapshot(&mut self) -> InjectorSnapshot {
        self.injections.seal();
        self.transitions.seal();
        InjectorSnapshot {
            injector: self.clone(),
        }
    }

    /// Called from an instrumented sensor-driver read. Returns `true` if
    /// the read must be reported as failed, and records the first failed
    /// read per instance for the replay log.
    pub fn should_fail(&mut self, instance: SensorInstance, time: f64) -> bool {
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

    /// Non-mutating variant of [`FaultInjector::should_fail`] for callers
    /// that only need the decision, not the bookkeeping.
    pub fn would_fail(&self, instance: SensorInstance, time: f64) -> bool {
        self.plan.is_failed(instance, time)
    }

    /// Called from the firmware's set-mode routine (the
    /// `hinj_update_mode()` call site). Records a transition when the mode
    /// actually changes.
    pub fn report_mode(&mut self, time: f64, mode: ModeCode) {
        if self.current_mode == Some(mode) {
            return;
        }
        self.transitions.push(ModeTransitionRecord {
            time,
            from: self.current_mode,
            to: mode,
        });
        self.current_mode = Some(mode);
    }

    /// The most recently reported mode, if any.
    pub fn current_mode(&self) -> Option<ModeCode> {
        self.current_mode
    }

    /// Injections actually delivered so far (first failed read per
    /// instance). Backed by a copy-on-write vector so snapshots share
    /// the records.
    pub fn injections(&self) -> &CowVec<InjectionRecord> {
        &self.injections
    }

    /// Mode transitions reported so far. Backed by a copy-on-write
    /// vector so snapshots share the records.
    pub fn mode_transitions(&self) -> &CowVec<ModeTransitionRecord> {
        &self.transitions
    }

    /// Total number of driver reads that consulted the injector.
    pub fn total_reads(&self) -> u64 {
        self.reads
    }

    /// Number of reads that were failed.
    pub fn failed_reads(&self) -> u64 {
        self.failed_reads
    }
}

/// A point-in-time capture of a [`FaultInjector`], taken mid-run by
/// [`FaultInjector::snapshot`]. Restoring yields an injector that behaves
/// bit-identically to the captured one;
/// [`InjectorSnapshot::restore_with_plan`] additionally swaps the fault
/// plan, which is how a checkpointed runner forks a new scenario off a
/// shared injection prefix.
#[derive(Debug, Clone)]
pub struct InjectorSnapshot {
    injector: FaultInjector,
}

impl InjectorSnapshot {
    /// Rebuilds the captured injector exactly.
    pub fn restore(&self) -> FaultInjector {
        self.injector.clone()
    }

    /// Rebuilds the captured injector with `plan` substituted for the
    /// captured plan. Only valid when `plan` agrees with the captured
    /// plan on every failure that starts before the capture time — the
    /// caller (the runner's snapshot cache) guarantees this by keying
    /// snapshots on the quantised injection prefix.
    pub fn restore_with_plan(&self, plan: FaultPlan) -> FaultInjector {
        let mut injector = self.injector.clone();
        injector.set_plan(plan);
        injector
    }

    /// Consuming form of [`InjectorSnapshot::restore_with_plan`], for
    /// callers that own the snapshot and want to avoid the extra clone.
    pub fn into_restored_with_plan(self, plan: FaultPlan) -> FaultInjector {
        let mut injector = self.injector;
        injector.set_plan(plan);
        injector
    }

    /// The plan that was active when the snapshot was taken.
    pub fn plan(&self) -> &FaultPlan {
        self.injector.plan()
    }

    /// Approximate heap footprint *exclusively owned* by the captured
    /// state (bytes), used by the snapshot cache's memory budget. The
    /// `Arc`-shared record chunks are accounted once per distinct chunk
    /// through [`InjectorSnapshot::for_each_chunk`].
    pub fn approx_bytes(&self) -> usize {
        self.injector.plan.len() * std::mem::size_of::<(SensorInstance, f64)>()
            + self.injector.injections.exclusive_bytes()
            + self.injector.transitions.exclusive_bytes()
            + std::mem::size_of::<FaultInjector>()
    }

    /// Visits the `Arc`-shared record chunks as `(identity, bytes)`
    /// pairs (see [`CowVec::for_each_chunk`]).
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        self.injector.injections.for_each_chunk(f);
        self.injector.transitions.for_each_chunk(f);
    }

    /// Writes the capture for the persistent store: the plan, the record
    /// logs as full chunk-hash lists (chunk contents go to `sink`
    /// content-addressed, see [`CowVec::encode_chunked`]), the current
    /// mode and the read counters. An injector has no static part, so
    /// [`InjectorSnapshot::decode`] needs no genesis capture.
    pub fn encode(&self, w: &mut ByteWriter, sink: &mut dyn ChunkSink) {
        let injector = &self.injector;
        injector.plan.encode(w);
        injector
            .injections
            .encode_chunked(w, sink, &mut |w, rec: &InjectionRecord| rec.encode(w));
        injector
            .transitions
            .encode_chunked(w, sink, &mut |w, rec: &ModeTransitionRecord| rec.encode(w));
        w.option(injector.current_mode.as_ref(), |w, m| w.u32(m.0));
        w.u64(injector.reads);
        w.u64(injector.failed_reads);
    }

    /// Reads a capture written by [`InjectorSnapshot::encode`], sharing
    /// the record chunks already in `memo` (see [`CowVec::decode_chunked`]).
    pub fn decode(
        r: &mut ByteReader<'_>,
        source: &mut dyn ChunkSource,
        memo: &mut ChunkMemo,
    ) -> CodecResult<InjectorSnapshot> {
        Ok(InjectorSnapshot {
            injector: FaultInjector {
                plan: FaultPlan::decode(r)?,
                injections: CowVec::decode_chunked(r, source, memo, &mut InjectionRecord::decode)?,
                transitions: CowVec::decode_chunked(
                    r,
                    source,
                    memo,
                    &mut ModeTransitionRecord::decode,
                )?,
                current_mode: r.option(|r| Ok(ModeCode(r.u32()?)))?,
                reads: r.u64()?,
                failed_reads: r.u64()?,
            },
        })
    }
}

impl InjectionRecord {
    /// Serialises the record for the persistent store.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.instance.encode(w);
        w.f64(self.first_failed_read);
    }

    /// Restores a record serialised by [`InjectionRecord::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<InjectionRecord> {
        Ok(InjectionRecord {
            instance: SensorInstance::decode(r)?,
            first_failed_read: r.f64()?,
        })
    }
}

impl ModeTransitionRecord {
    /// Serialises the record for the persistent store.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.f64(self.time);
        w.option(self.from.as_ref(), |w, m| w.u32(m.0));
        w.u32(self.to.0);
    }

    /// Restores a record serialised by [`ModeTransitionRecord::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<ModeTransitionRecord> {
        Ok(ModeTransitionRecord {
            time: r.f64()?,
            from: r.option(|r| Ok(ModeCode(r.u32()?)))?,
            to: ModeCode(r.u32()?),
        })
    }
}

/// A cloneable, thread-safe handle to a [`FaultInjector`], shared between
/// the firmware's sensor frontend and the experiment runner.
#[derive(Debug, Clone, Default)]
pub struct SharedInjector {
    inner: Arc<Mutex<FaultInjector>>,
}

impl SharedInjector {
    /// Wraps an injector in a shared handle.
    pub fn new(injector: FaultInjector) -> Self {
        SharedInjector {
            inner: Arc::new(Mutex::new(injector)),
        }
    }

    /// A shared injector that never injects.
    pub fn passthrough() -> Self {
        SharedInjector::new(FaultInjector::passthrough())
    }

    /// Locks the injector, recovering the guard if a panic poisoned it.
    /// The checker contains firmware panics and discards the panicked
    /// run, injector state included, so the poison carries nothing a
    /// later caller must act on.
    fn lock(&self) -> MutexGuard<'_, FaultInjector> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Driver-side query: should this read fail?
    pub fn should_fail(&self, instance: SensorInstance, time: f64) -> bool {
        self.lock().should_fail(instance, time)
    }

    /// Firmware-side mode report.
    pub fn report_mode(&self, time: f64, mode: ModeCode) {
        self.lock().report_mode(time, mode);
    }

    /// Runs a closure with exclusive access to the underlying injector.
    pub fn with<R>(&self, f: impl FnOnce(&mut FaultInjector) -> R) -> R {
        f(&mut self.lock())
    }

    /// Snapshot of the mode transitions recorded so far.
    pub fn mode_transitions(&self) -> Vec<ModeTransitionRecord> {
        self.lock().mode_transitions().to_vec()
    }

    /// Snapshot of the injections delivered so far.
    pub fn injections(&self) -> Vec<InjectionRecord> {
        self.lock().injections().to_vec()
    }

    /// The plan being executed.
    pub fn plan(&self) -> FaultPlan {
        self.lock().plan().clone()
    }

    /// Removes and returns the plan (see [`FaultInjector::take_plan`]).
    pub fn take_plan(&self) -> FaultPlan {
        self.lock().take_plan()
    }

    /// Captures the underlying injector's state (see
    /// [`FaultInjector::snapshot`]).
    pub fn snapshot(&self) -> InjectorSnapshot {
        self.lock().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_sim::SensorKind;

    fn gps(i: u8) -> SensorInstance {
        SensorInstance::new(SensorKind::Gps, i)
    }
    fn baro(i: u8) -> SensorInstance {
        SensorInstance::new(SensorKind::Barometer, i)
    }

    #[test]
    fn empty_plan_never_fails() {
        let mut inj = FaultInjector::passthrough();
        for t in 0..100 {
            assert!(!inj.should_fail(gps(0), t as f64));
        }
        assert_eq!(inj.failed_reads(), 0);
        assert_eq!(inj.total_reads(), 100);
        assert!(inj.injections().is_empty());
    }

    #[test]
    fn failure_is_permanent_after_start_time() {
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 5.0)]);
        let mut inj = FaultInjector::new(plan);
        assert!(!inj.should_fail(gps(0), 4.999));
        assert!(inj.should_fail(gps(0), 5.0));
        assert!(inj.should_fail(gps(0), 5.001));
        assert!(inj.should_fail(gps(0), 500.0));
        // Other instances of the same kind are unaffected.
        assert!(!inj.should_fail(gps(1), 500.0));
    }

    #[test]
    fn duplicate_instance_keeps_earliest_time() {
        let mut plan = FaultPlan::empty();
        plan.add(FaultSpec::new(baro(0), 7.0));
        plan.add(FaultSpec::new(baro(0), 3.0));
        plan.add(FaultSpec::new(baro(0), 9.0));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.failure_time(baro(0)), Some(3.0));
    }

    #[test]
    fn with_does_not_mutate_original() {
        let base = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 1.0)]);
        let extended = base.with(FaultSpec::new(baro(0), 2.0));
        assert_eq!(base.len(), 1);
        assert_eq!(extended.len(), 2);
    }

    #[test]
    fn canonical_key_is_order_independent() {
        let a = FaultPlan::from_specs(vec![
            FaultSpec::new(gps(0), 1.0),
            FaultSpec::new(baro(1), 2.0),
        ]);
        let b = FaultPlan::from_specs(vec![
            FaultSpec::new(baro(1), 2.0),
            FaultSpec::new(gps(0), 1.0),
        ]);
        assert_eq!(a.canonical_key(), b.canonical_key());
        let c = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 1.001)]);
        let d = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 1.0)]);
        assert_ne!(c.canonical_key(), d.canonical_key());
        assert_eq!(FaultPlan::empty().canonical_key(), "");
    }

    #[test]
    fn injection_records_first_failed_read_only() {
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 2.0)]);
        let mut inj = FaultInjector::new(plan);
        inj.should_fail(gps(0), 1.0);
        inj.should_fail(gps(0), 2.25);
        inj.should_fail(gps(0), 3.0);
        assert_eq!(inj.injections().len(), 1);
        assert_eq!(inj.injections()[0].first_failed_read, 2.25);
        assert_eq!(inj.failed_reads(), 2);
    }

    #[test]
    fn mode_transitions_deduplicated() {
        let mut inj = FaultInjector::passthrough();
        inj.report_mode(0.0, ModeCode(0));
        inj.report_mode(0.5, ModeCode(0));
        inj.report_mode(1.0, ModeCode(3));
        inj.report_mode(1.5, ModeCode(3));
        inj.report_mode(2.0, ModeCode(0));
        let t = inj.mode_transitions();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].from, None);
        assert_eq!(t[0].to, ModeCode(0));
        assert_eq!(t[1].from, Some(ModeCode(0)));
        assert_eq!(t[1].to, ModeCode(3));
        assert_eq!(t[2].to, ModeCode(0));
        assert_eq!(inj.current_mode(), Some(ModeCode(0)));
    }

    #[test]
    fn shared_injector_clones_share_state() {
        let shared = SharedInjector::new(FaultInjector::new(FaultPlan::from_specs(vec![
            FaultSpec::new(gps(0), 1.0),
        ])));
        let other = shared.clone();
        assert!(other.should_fail(gps(0), 2.0));
        shared.report_mode(0.1, ModeCode(7));
        assert_eq!(other.mode_transitions().len(), 1);
        assert_eq!(other.injections().len(), 1);
        assert_eq!(shared.plan().len(), 1);
    }

    #[test]
    fn shared_injector_survives_a_panic_holding_its_lock() {
        let shared = SharedInjector::new(FaultInjector::new(FaultPlan::from_specs(vec![
            FaultSpec::new(gps(0), 1.0),
        ])));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.with(|injector| {
                injector.report_mode(0.1, ModeCode(7));
                panic!("firmware panic while holding the injector")
            })
        }));
        assert!(caught.is_err());
        assert!(shared.inner.is_poisoned());
        assert!(shared.should_fail(gps(0), 2.0));
        assert_eq!(shared.mode_transitions().len(), 1);
        assert_eq!(shared.injections().len(), 1);
    }

    #[test]
    fn would_fail_does_not_record() {
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 1.0)]);
        let inj = FaultInjector::new(plan);
        assert!(inj.would_fail(gps(0), 2.0));
        assert_eq!(inj.total_reads(), 0);
        assert!(inj.injections().is_empty());
    }

    #[test]
    fn link_faults_extend_the_canonical_key() {
        let sensor_only = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 1.0)]);
        let storm = LinkFaultSpec::new(
            LinkFaultKind::Storm {
                command: StormCommand::Arm,
                count: 4,
            },
            LinkDirection::ToVehicle,
            2.0,
        );
        let with_link = sensor_only.with_link(storm);
        assert_ne!(sensor_only, with_link);
        assert_ne!(sensor_only.canonical_key(), with_link.canonical_key());
        assert!(with_link.canonical_key().contains("link:storm"));
        assert!(with_link.canonical_key().contains("gps"));
        // The sensor-side view is unchanged.
        assert_eq!(with_link.len(), 1);
        assert_eq!(with_link.specs().count(), 1);
        assert_eq!(with_link.link_plan().len(), 1);
        // A link-only plan is not empty.
        let link_only = FaultPlan::empty().with_link(storm);
        assert!(!link_only.is_empty());
        assert_eq!(link_only.len(), 0);
        assert!(link_only.to_string().contains("link:storm"));
    }

    #[test]
    fn merge_link_combines_protocol_faults() {
        let a = LinkFaultSpec::new(
            LinkFaultKind::Drop {
                duration: 1.0,
                probability: 1.0,
            },
            LinkDirection::ToGcs,
            5.0,
        );
        let b = LinkFaultSpec::new(
            LinkFaultKind::Delay {
                duration: 1.0,
                seconds: 0.5,
            },
            LinkDirection::ToVehicle,
            2.0,
        );
        let mut plan = FaultPlan::empty().with_link(a);
        plan.merge_link(&LinkFaultPlan::from_specs(vec![b]));
        assert_eq!(plan.link_plan().len(), 2);
        // Canonical ordering: the earlier fault comes first.
        assert_eq!(plan.link_plan().specs()[0].time, 2.0);
    }

    #[test]
    fn injector_codec_round_trips_through_chunk_store() {
        let plan = FaultPlan::from_specs(vec![
            FaultSpec::new(gps(0), 2.0),
            FaultSpec::new(baro(1), 4.0),
        ])
        .with_link(LinkFaultSpec::new(
            LinkFaultKind::Corrupt {
                duration: 3.0,
                probability: 0.25,
            },
            LinkDirection::ToGcs,
            1.0,
        ));
        let mut inj = FaultInjector::new(plan);
        for t in 0..40 {
            inj.should_fail(gps(0), t as f64 * 0.2);
            inj.should_fail(baro(1), t as f64 * 0.2);
            if t % 10 == 0 {
                inj.report_mode(t as f64 * 0.2, ModeCode(t as u32 / 10));
            }
        }
        let base = inj.snapshot();
        for t in 40..80 {
            inj.should_fail(gps(0), t as f64 * 0.2);
        }
        inj.report_mode(16.0, ModeCode(9));
        let cut = inj.snapshot();

        // Both captures decode on their own; through one memo, the cut
        // shares the record chunks it has in common with the base.
        let mut store = avis_sim::cow::MemoryChunkStore::new();
        let mut memo = ChunkMemo::default();
        let mut round_trip = |snapshot: &InjectorSnapshot| {
            let mut w = ByteWriter::new();
            snapshot.encode(&mut w, &mut store);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let decoded = InjectorSnapshot::decode(&mut r, &mut store, &mut memo).expect("decode");
            r.finish().expect("no trailing bytes");
            decoded
        };
        let decoded_base = round_trip(&base);
        let decoded = round_trip(&cut);
        let (restored, original) = (decoded.restore(), cut.restore());
        assert_eq!(restored.plan(), original.plan());
        assert_eq!(
            restored.injections().to_vec(),
            original.injections().to_vec()
        );
        assert_eq!(
            restored.mode_transitions().to_vec(),
            original.mode_transitions().to_vec()
        );
        assert_eq!(restored.current_mode(), original.current_mode());
        assert_eq!(restored.total_reads(), original.total_reads());
        assert_eq!(restored.failed_reads(), original.failed_reads());
        let (mut base_ids, mut cut_ids) = (Vec::new(), Vec::new());
        decoded_base.for_each_chunk(&mut |id, _| base_ids.push(id));
        decoded.for_each_chunk(&mut |id, _| cut_ids.push(id));
        assert!(!base_ids.is_empty());
        assert!(base_ids.iter().all(|id| cut_ids.contains(id)));
    }

    #[test]
    fn display_formats() {
        let spec = FaultSpec::new(gps(1), 2.5);
        assert_eq!(spec.to_string(), "gps[1]@2.500s");
        assert_eq!(FaultPlan::empty().to_string(), "(no faults)");
        let plan = FaultPlan::from_specs(vec![spec]);
        assert!(plan.to_string().contains("gps[1]"));
        assert_eq!(ModeCode(4).to_string(), "mode#4");
    }
}
