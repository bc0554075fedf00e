//! Criterion bench: the normalized state-distance computation at the core
//! of the liveliness check, with and without the mode-graph component
//! (the ablation noted under "Benches" in the README).

use avis::monitor::{InvariantMonitor, ModeGraph, MonitorConfig};
use avis::trace::{ModeTransition, StateSample, Trace};
use avis_firmware::OperatingMode;
use avis_sim::Vec3;
use avis_workload::WorkloadStatus;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn flat_trace() -> Trace {
    let dt = 0.1;
    let samples: Vec<StateSample> = (0..600)
        .map(|k| {
            let t = k as f64 * dt;
            StateSample {
                time: t,
                position: Vec3::new(t, 0.5 * t, 15.0),
                acceleration: Vec3::new(0.1, 0.0, 0.0),
                mode: OperatingMode::Auto { leg: 1 },
            }
        })
        .collect();
    Trace {
        sample_interval: dt,
        samples,
        mode_transitions: vec![
            ModeTransition {
                time: 0.0,
                mode: OperatingMode::PreFlight,
            },
            ModeTransition {
                time: 1.0,
                mode: OperatingMode::Takeoff,
            },
            ModeTransition {
                time: 5.0,
                mode: OperatingMode::Auto { leg: 1 },
            },
            ModeTransition {
                time: 50.0,
                mode: OperatingMode::Land,
            },
        ],
        collision: None,
        fence_violations: 0,
        workload_status: WorkloadStatus::Passed,
        protocol: Vec::new(),
        duration: 60.0,
    }
}

fn bench_distance(c: &mut Criterion) {
    let profiling = vec![flat_trace(), flat_trace()];
    let monitor = InvariantMonitor::calibrate(profiling, MonitorConfig::default());
    let a = StateSample {
        time: 10.0,
        position: Vec3::new(10.0, 5.0, 15.0),
        acceleration: Vec3::new(0.1, 0.0, 0.0),
        mode: OperatingMode::Auto { leg: 1 },
    };
    let b_sample = StateSample {
        time: 10.0,
        position: Vec3::new(30.0, -5.0, 2.0),
        acceleration: Vec3::new(2.0, 1.0, -3.0),
        mode: OperatingMode::Land,
    };

    c.bench_function("state_distance_full_tuple", |bench| {
        bench.iter(|| black_box(monitor.state_distance(&a, &b_sample)));
    });

    // Ablation: position-only distance (what the paper says takes tens of
    // seconds to detect violations with, versus seconds for the full tuple).
    c.bench_function("state_distance_position_only", |bench| {
        bench.iter(|| black_box(a.position.distance(b_sample.position)));
    });

    let graph = ModeGraph::from_traces([&flat_trace()]);
    c.bench_function("mode_graph_distance", |bench| {
        bench.iter(|| {
            black_box(graph.distance(OperatingMode::PreFlight.code(), OperatingMode::Land.code()))
        });
    });
}

criterion_group!(benches, bench_distance);
criterion_main!(benches);
