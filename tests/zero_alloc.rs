//! Proves the zero-allocation property of the hot step loop: once the
//! reused buffers reach steady-state capacity, advancing the simulator
//! performs no heap allocations at all, and the full firmware-in-the-loop
//! step stays allocation-free outside the (rate-limited) telemetry path.
//!
//! A counting global allocator wraps the system allocator; the tests run
//! a warm-up phase, snapshot the allocation counter, run the measured
//! phase and compare. The counter is per thread, so tests running in
//! parallel never see each other's allocations.

// The workspace denies `unsafe_code`; a `GlobalAlloc` impl is the one
// place this test harness genuinely needs it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // Const-initialised and drop-free, so reading it from inside the
    // allocator never allocates and never fails during thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

// Tracking only allocation events (not frees) is enough: the property
// under test is "no new allocations per step".
//
// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter update is a thread-local side
// effect with no memory-safety impact.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: delegates to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: same contract as ours; layout passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: delegates to `System.dealloc` with the caller's pointer/layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr was produced by `System.alloc` via our `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: delegates to `System.realloc` with the caller's arguments.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: ptr/layout come from a prior `System` allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn simulator_step_loop_is_allocation_free_in_steady_state() {
    use avis_sim::simulator::{SimConfig, Simulator, StepOutput};
    use avis_sim::{Environment, Fence, FenceRegion, MotorCommands, Vec3};

    // Include a fence so the violated-fences path is exercised too.
    let env = Environment::open_field().with_fence(Fence::containment(FenceRegion::Circle {
        center: Vec3::ZERO,
        radius: 500.0,
    }));
    let mut sim = Simulator::new(SimConfig::default(), env);
    let mut output = StepOutput::empty();
    let climb = MotorCommands::uniform(0.8);

    // Warm-up: the readings/fences buffers grow to steady-state capacity.
    for _ in 0..1000 {
        sim.step_into(&climb, &mut output);
    }

    let before = allocations();
    for _ in 0..10_000 {
        sim.step_into(&climb, &mut output);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "the simulator step loop must not allocate once buffers are warm"
    );
}

/// Steps a `lanes`-wide [`avis_sim::LaneBatch`] — every batched run's
/// physics kernel — and asserts the measured phase allocates nothing.
fn assert_lane_batch_step_is_allocation_free(lanes: usize) {
    use avis_sim::simulator::{SimConfig, Simulator, StepOutput};
    use avis_sim::{Environment, LaneBatch, MotorCommands};

    let mut sim = Simulator::new(SimConfig::default(), Environment::open_field());
    let mut output = StepOutput::empty();
    sim.step_into(&MotorCommands::IDLE, &mut output);
    let (mut batch, lead) = LaneBatch::from_simulator(sim, output);
    for _ in 1..lanes {
        batch.clone_lane(lead);
    }
    // Lanes fly different commands, so their states (and any
    // state-dependent buffers) diverge.
    let commands: Vec<MotorCommands> = (0..lanes)
        .map(|lane| MotorCommands::uniform(0.6 + 0.05 * lane as f64))
        .collect();

    for _ in 0..1000 {
        batch.step_lanes(&commands);
    }

    let before = allocations();
    for _ in 0..10_000 {
        batch.step_lanes(&commands);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "the {lanes}-lane batch step must not allocate once buffers are warm"
    );
}

#[test]
fn lane_batch_step_is_allocation_free_in_steady_state() {
    assert_lane_batch_step_is_allocation_free(1);
    assert_lane_batch_step_is_allocation_free(4);
}

#[test]
fn firmware_in_the_loop_step_is_allocation_free_between_telemetry_bursts() {
    use avis_firmware::{BugSet, Firmware, FirmwareProfile};
    use avis_hinj::SharedInjector;
    use avis_sim::simulator::{SimConfig, Simulator, StepOutput};
    use avis_sim::{Environment, MotorCommands};

    let dt = 0.0025;
    let mut sim = Simulator::new(
        SimConfig {
            dt,
            ..SimConfig::default()
        },
        Environment::open_field(),
    );
    let injector = SharedInjector::passthrough();
    let mut firmware = Firmware::new(FirmwareProfile::ArduPilotLike, BugSet::none(), injector);
    let mut output = StepOutput::empty();
    let mut telemetry = Vec::new();
    sim.step_into(&MotorCommands::IDLE, &mut output);

    let mut run = |steps: usize| {
        for _ in 0..steps {
            let time = sim.time();
            firmware.drain_outbox_into(&mut telemetry);
            let motor = firmware.step(&output.readings, time, dt);
            sim.step_into(&motor, &mut output);
        }
    };

    // Warm-up: buffers, outbox and failsafe/defect state reach steady
    // capacity (~5 simulated seconds).
    run(2000);

    let before = allocations();
    let steps = 20_000;
    run(steps);
    let grew = allocations() - before;
    // The disarmed control loop allocates only for rate-limited telemetry
    // formatting, if anything; it must be far below one allocation per
    // step. (The strict zero bound lives on the simulator loop above.)
    assert!(
        (grew as f64) < steps as f64 * 0.01,
        "firmware loop allocated {grew} times over {steps} steps"
    );
}
