//! The Carac benchmark: one command, four seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cspa-unopt|csda-deep|tc-live|tc-point-query> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a single-process, single-client closed loop: the next operation
//! starts when the previous one returns, and every engine evaluates
//! serially (`parallelism = 1`).  Every answer is compared with a reference
//! computed without the engine.  With `--trace 0` the run reports the
//! end-to-end metrics, measured with tracing off; with `--trace 1` it runs
//! the traced pass, which calls each layer's public functions itself and
//! reports per-layer metrics, and writes a chrome trace and a per-layer
//! JSON file under `perfbench/out/`.  The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.  The
//! exit code is non-zero whenever any answer was wrong.

mod harness;
mod inputs;
mod json;
mod layers;
mod live;
mod oneshot;
mod oracle;
mod point_query;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use harness::{E2e, Traced, END_TO_END, PER_LAYER};
use json::Json;
use oneshot::Kind;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["cspa-unopt", "csda-deep", "tc-live", "tc-point-query"];

#[derive(Debug)]
struct Args {
    workload: String,
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
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// End-to-end metrics from the untraced samples; prints the readable
/// summary and returns the `metrics` object.
fn end_to_end(workload: &str, e2e: &E2e) -> Json {
    let lat = &e2e.latency_ms;
    let (tail_p, tail_ms) = stats::tail(lat);
    let [q1, _, q3] = stats::quartiles(lat);
    let total_s: f64 = lat.iter().sum::<f64>() / 1e3;
    let values: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&e2e.setup_s)),
        ("latency_ms_p50", stats::median(lat)),
        ("latency_ms_tail", tail_ms),
        ("ops_per_s", lat.len() as f64 / total_s),
        (
            "pool_mib",
            stats::median(&e2e.pool_bytes) / (1024.0 * 1024.0),
        ),
        ("recover_ms", stats::median(&e2e.recover_ms)),
    ]
    .into_iter()
    .collect();
    let error_rate = e2e.tally.failed as f64 / e2e.tally.attempted.max(1) as f64;
    println!("workload {workload}: {} operations timed", lat.len());
    for (name, unit) in END_TO_END {
        println!("  {name:<16} {:>14.6} {unit}", values[name]);
    }
    println!(
        "  latency_ms_tail is p{tail_p} of {} samples ({} beyond it); latency quartiles {q1:.4} / {q3:.4} ms",
        lat.len(),
        lat.len() - ((tail_p / 100.0) * lat.len() as f64).ceil() as usize
    );
    println!(
        "  error_rate       {error_rate:>14.6} ratio ({} of {} attempted)",
        e2e.tally.failed, e2e.tally.attempted
    );
    Json::obj(
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, metric(values[name], unit))),
    )
}

/// Per-layer metrics from the traced pass; writes the trace files, prints
/// the readable summary and returns the `metrics` object.
fn per_layer(workload: &str, seed: u64, traced: &Traced) -> Json {
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let first = traced.rounds.first().cloned().unwrap_or_default();
    for (name, value) in &first {
        values.insert(name, *value);
    }
    for (name, samples) in &traced.samples {
        values.insert(name, stats::median(samples));
    }
    let ratio = |num: &str, den: &str, values: &BTreeMap<&str, f64>| {
        let d = values.get(den).copied().unwrap_or(0.0);
        if d > 0.0 {
            values.get(num).copied().unwrap_or(0.0) / d
        } else {
            0.0
        }
    };
    values.insert(
        "exec.useful_ratio",
        ratio("exec.tuples_inserted", "exec.tuples_emitted", &values),
    );
    values.insert(
        "incremental.waste_ratio",
        ratio("incremental.rederived", "incremental.overdeleted", &values),
    );
    let traced_median = stats::median(&traced.traced_ms);
    let untraced_median = stats::median(&traced.untraced_ms);
    values.insert("trace.overhead_ratio", traced_median / untraced_median);
    values.insert("trace.dropped_events", traced.dropped as f64);
    values.insert(
        "trace.ops",
        traced.traced_ms.len() as f64 / traced.rounds.len() as f64,
    );

    println!(
        "workload {workload}: traced pass, {} rounds of {} operations",
        traced.rounds.len(),
        values["trace.ops"]
    );
    for (name, unit) in PER_LAYER {
        match values.get(name) {
            Some(v) => println!("  {name:<34} {v:>16.6} {unit}"),
            None => println!("  {name:<34} {:>16} {unit} (layer not called)", "0"),
        }
    }
    let metrics = Json::obj(
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, metric(values.get(name).copied().unwrap_or(0.0), unit))),
    );
    let self_ms = Json::obj(
        traced
            .self_ms
            .iter()
            .map(|(&layer, samples)| (layer, metric(stats::median(samples), "ms"))),
    );
    let layer_json = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed)),
        ("rounds", Json::Int(traced.rounds.len() as u64)),
        ("metrics", metrics.clone()),
        ("self_ms_per_operation", self_ms),
    ]);
    let dir = harness::out_dir();
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{workload}-{seed}.layers.json")),
                layer_json.render(),
            )
        })
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{workload}-{seed}.trace.json")),
                traced.rec.chrome_trace().render(),
            )
        });
    match written {
        Ok(()) => println!(
            "  wrote {}/{workload}-{seed}.{{layers,trace}}.json",
            dir.display()
        ),
        Err(err) => eprintln!("could not write the trace files: {err}"),
    }
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds) = (args.seed, args.seconds);
    let (correct, attempted, failed, metrics) = if args.trace {
        let traced = match args.workload.as_str() {
            "cspa-unopt" => oneshot::trace(Kind::Cspa, seed, seconds),
            "csda-deep" => oneshot::trace(Kind::Csda, seed, seconds),
            "tc-live" => live::trace(seed, seconds),
            _ => point_query::trace(seed, seconds),
        };
        let unstable = traced.nondeterministic();
        if !unstable.is_empty() {
            eprintln!("NONDETERMINISTIC counts across same-seed rounds: {unstable:?}");
        }
        if traced.dropped > 0 {
            eprintln!("the engine dropped {} trace events", traced.dropped);
        }
        let metrics = per_layer(&args.workload, seed, &traced);
        let correct = traced.tally.failed == 0 && unstable.is_empty() && traced.dropped == 0;
        (
            correct,
            traced.tally.attempted,
            traced.tally.failed,
            metrics,
        )
    } else {
        let e2e = match args.workload.as_str() {
            "cspa-unopt" => oneshot::measure(Kind::Cspa, seed, seconds),
            "csda-deep" => oneshot::measure(Kind::Csda, seed, seconds),
            "tc-live" => live::measure(seed, seconds),
            _ => point_query::measure(seed, seconds),
        };
        let metrics = end_to_end(&args.workload, &e2e);
        (
            e2e.tally.failed == 0,
            e2e.tally.attempted,
            e2e.tally.failed,
            metrics,
        )
    };
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            let entry = format!("\"name\": \"{workload}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
            "BENCHMARK.json names something the benchmark does not report"
        );
    }
}
