//! Campaign benchmark for the Avis reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's campaigns back to back for
//! `--seconds` (a closed loop: one campaign at a time, one process) and
//! reports the end-to-end metrics from the fastest repetition of each
//! campaign (see `measure::Best`). With
//! `--trace 1` it reports per-layer metrics instead, timed from outside
//! around calls into each crate's public functions (see `traced.rs`).
//! Either way every campaign's result is checked against a cold, scalar,
//! serial reference run of the same inputs. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod measure;
mod probe;
mod shadow;
mod traced;
mod workloads;

use avis::json::{self, Json};
use measure::{run_for, Best, Reference, Tally};
use std::path::Path;
use std::process::ExitCode;
use workloads::{Inputs, Workload, PROFILING_RUNS};

/// End-to-end metrics (`--trace 0`), as named in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("campaign_wall_s", "s"),
    ("setup_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as named in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.step_ns.p50", "ns"),
    ("sim.step_ns.p90", "ns"),
    ("sim.step_ns.n", "count"),
    ("sim.lane1_step_ns", "ns"),
    ("sim.lane4_step_ns", "ns"),
    ("firmware.step_ns", "ns"),
    ("firmware.msg_ns", "ns"),
    ("link.tick_ns", "ns"),
    ("workload.tick_ns", "ns"),
    ("protocol.tick_ns", "ns"),
    ("runner.scenario_ms.p50", "ms"),
    ("runner.scenario_ms.p90", "ms"),
    ("runner.scenario_ms.n", "count"),
    ("runner.tick_ns", "ns"),
    ("runner.unattributed_share", "ratio"),
    ("snapshot.fork_share", "ratio"),
    ("snapshot.skipped_share", "ratio"),
    ("snapshot.mean_fork_depth_s", "s"),
    ("snapshot.cached_mib", "MiB"),
    ("snapshot.evicted", "count"),
    ("snapshot.quarantined", "count"),
    ("store.hydrate_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("store.read_mib", "MiB"),
    ("store.disk_mib", "MiB"),
    ("store.dedup_hits", "count"),
    ("store.quarantined_blobs", "count"),
    ("monitor.calibrate_ms", "ms"),
    ("monitor.check_us.p50", "us"),
    ("monitor.check_us.p90", "us"),
    ("monitor.check_us.n", "count"),
    ("strategy.initialize_ms", "ms"),
    ("strategy.propose_us", "us"),
    ("strategy.propose_calls", "count"),
    ("strategy.decide_us", "us"),
    ("strategy.decide_calls", "count"),
    ("strategy.observe_us", "us"),
    ("strategy.observe_calls", "count"),
    ("strategy.admission_us", "us"),
    ("strategy.admission_calls", "count"),
    ("strategy.pruned_share", "ratio"),
    ("search.first_unsafe_s", "s"),
    ("search.all_bugs_s", "s"),
    ("engine.commit_gap_ms.p50", "ms"),
    ("engine.commit_gap_ms.p90", "ms"),
    ("engine.commit_gap_ms.n", "count"),
    ("engine.speculation_waste", "ratio"),
    ("engine.local_hit_share", "ratio"),
    ("speed_stack.cold_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.clock_ns", "ns"),
];

/// Minimum campaign repetitions per untraced run, whatever `--seconds`.
const MIN_REPS: usize = 3;

/// Where runs leave spans and temporary store roots.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checks the metric tables above against `BENCHMARK.json`, both ways.
fn check_registry(benchmark: &Json) -> Result<(), String> {
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String)> = benchmark
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let printed: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if listed != printed {
            return Err(format!(
                "{key} in BENCHMARK.json does not match the metrics this benchmark prints"
            ));
        }
    }
    Ok(())
}

/// The untraced run: end-to-end metrics over repeated campaigns.
fn end_to_end(inputs: &Inputs, args: &Args, out: &Path) -> (Vec<(&'static str, f64)>, Tally) {
    let reps = run_for(inputs, out, args.seconds, MIN_REPS);
    let rss = probe::peak_rss_mib();
    let reference = Reference::compute(inputs);
    let tally = Tally::check(&reps, &reference, PROFILING_RUNS);
    let best = Best::of(&reps);
    let walls: Vec<String> = reps
        .iter()
        .map(|r| {
            r.as_ref()
                .map_or("panicked".to_string(), |r| format!("{:.3}", r.wall_s()))
        })
        .collect();
    println!("campaign wall per repetition (s): {}", walls.join(" "));
    println!(
        "repetitions: {} ({} match the reference); cold scalar serial reference {:.3} s \
         ({:.1} simulated s), {:.2}x the campaign",
        reps.len(),
        reps.len() - tally.mismatched,
        reference.wall_s,
        reference
            .results
            .iter()
            .map(|r| r.cost_seconds)
            .sum::<f64>(),
        reference.wall_s / best.wall_s
    );
    let metrics = vec![
        ("campaign_wall_s", best.wall_s),
        ("setup_s", best.setup_s),
        ("scenarios_per_s", best.scenarios_per_s),
        ("peak_rss_mib", rss),
    ];
    (metrics, tally)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        let checked = Json::parse(&text)
            .map_err(|e| format!("BENCHMARK.json: {e}"))
            .and_then(|b| check_registry(&b));
        if let Err(message) = checked {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    }
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }

    let inputs = Inputs::generate(args.workload, args.seed);
    println!(
        "workload {} seed {}: {} session(s), {} generated plan(s)",
        args.workload.name(),
        args.seed,
        inputs.sessions.len(),
        inputs
            .sessions
            .iter()
            .map(|s| s.plans().len())
            .sum::<usize>()
    );
    println!(
        "host: nproc {}, engine parallelism {}, store root filesystem {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        inputs.parallelism,
        probe::filesystem_of(out)
    );

    let (metrics, tally, table) = if args.trace {
        let (metrics, tally) = traced::run(&inputs, args.seed, args.seconds, out);
        (metrics, tally, PER_LAYER)
    } else {
        let (metrics, tally) = end_to_end(&inputs, &args, out);
        (metrics, tally, END_TO_END)
    };
    let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
    let expected: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected, "every metric is printed, in table order");
    for ((name, value), (_, unit)) in metrics.iter().zip(table) {
        println!("  {name:<28} {value:>14.6} {unit}");
    }

    let correct = tally.mismatched == 0;
    let result = json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Number(tally.attempted.max(1) as f64)),
        ("failed", Json::Number(tally.failed as f64)),
        (
            "metrics",
            Json::Object(
                metrics
                    .iter()
                    .zip(table)
                    .map(|((name, value), (_, unit))| {
                        (
                            name.to_string(),
                            json::object(vec![
                                ("value", Json::Number(*value)),
                                ("unit", Json::String(unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} repetition(s) differ from the reference result",
            tally.mismatched
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let benchmark = Json::parse(&text).expect("BENCHMARK.json parses");
        check_registry(&benchmark).expect("metric names agree both ways");
        let workloads: Vec<&str> = benchmark
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn registry_check_rejects_drift() {
        let benchmark = json::object(vec![
            ("end_to_end", Json::Array(Vec::new())),
            ("per_layer", Json::Array(Vec::new())),
        ]);
        assert!(check_registry(&benchmark).is_err());
    }
}
