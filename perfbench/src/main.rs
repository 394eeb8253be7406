//! End-to-end and per-layer benchmark of the qaoa-gnn pipeline and serving
//! loop. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline_label --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`;
//! a human-readable account goes to standard error. The exit code is
//! non-zero when any output check fails.

mod inputs;
mod loadgen;
mod pipeline;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "pipeline_label",
    "pipeline_train",
    "serve_verify",
    "serve_repeat",
];

/// End-to-end metrics (`--trace 0`): name, unit and better direction.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("label_ar_mean", "ratio", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("goodput_rps", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Layers whose self time the traced run reports as `self_s.<layer>`.
pub const SELF_LAYERS: [&str; 15] = [
    "core.dataset",
    "core.pipeline",
    "core.sdp",
    "core.fixed",
    "gnn",
    "tensor",
    "qaoa",
    "core.eval",
    "core.store",
    "qgraph.io",
    "qgraph.canon",
    "core.cache",
    "core.serve.envelope",
    "core.serve.verify",
    "core.serve_loop",
];

/// Per-layer metrics (`--trace 1`) other than self times: name, unit and
/// which direction is better.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("label.s", "s", "lower"),
    ("label.share", "ratio", "lower"),
    ("label.graph_ms.n2-9", "ms", "lower"),
    ("label.graph_ms.n10-12", "ms", "lower"),
    ("label.graph_ms.n13-15", "ms", "lower"),
    ("label.worker_util", "ratio", "higher"),
    ("label.failed", "count", "lower"),
    ("label.retried", "count", "lower"),
    ("qaoa.expectation_us.n10", "us", "lower"),
    ("qaoa.expectation_us.n12", "us", "lower"),
    ("qaoa.expectation_us.n15", "us", "lower"),
    ("prep.s", "s", "lower"),
    ("train.s", "s", "lower"),
    ("train.share", "ratio", "lower"),
    ("train.forward_us", "us", "lower"),
    ("train.backward_us", "us", "lower"),
    ("train.adam_step_us", "us", "lower"),
    ("train.examples_per_s", "1/s", "higher"),
    ("gnn.test_mse", "mse", "lower"),
    ("gnn.context_us", "us", "lower"),
    ("gnn.forward_us", "us", "lower"),
    ("eval.s", "s", "lower"),
    ("store.artifact_save_ms", "ms", "lower"),
    ("store.artifact_bytes", "bytes", "lower"),
    ("qgraph.parse_us", "us", "lower"),
    ("qgraph.wl_hash_us", "us", "lower"),
    ("qgraph.iso_candidates_per_lookup", "count", "lower"),
    ("qgraph.iso_us", "us", "lower"),
    ("cache.lookups", "count", "higher"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.collision_rate", "ratio", "lower"),
    ("cache.lookup_us_p50", "us", "lower"),
    ("cache.lookup_us_p99", "us", "lower"),
    ("cache.resident_bytes", "bytes", "lower"),
    ("serve.verify_us_p50", "us", "lower"),
    ("serve.verify_us_p99", "us", "lower"),
    ("serve.envelope_us", "us", "lower"),
    ("serve.gnn_rung_frac", "ratio", "higher"),
    ("loop.queue_wait_us_p50", "us", "lower"),
    ("loop.queue_wait_us_p99", "us", "lower"),
    ("loop.shed", "count", "lower"),
    ("loop.breaker_trips", "count", "lower"),
    ("loop.respawns", "count", "lower"),
    ("loadgen.lag_ms_p99", "ms", "lower"),
    ("loadgen.nominal_p50_ms", "ms", "lower"),
    ("loadgen.nominal_p99_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

/// Every per-layer metric name with its unit and better direction, self
/// times included.
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .chain(
            SELF_LAYERS
                .iter()
                .map(|l| (format!("self_s.{l}"), "s", "lower")),
        )
        .collect()
}

/// Sets `self_s.<layer>` for every layer in [`SELF_LAYERS`] (0 for layers
/// the run did not enter).
pub fn set_self_times(out: &mut Outcome, tracer: &trace::Tracer) {
    let by_layer = tracer.self_time_by_layer();
    for layer in SELF_LAYERS {
        out.set(
            &format!("self_s.{layer}"),
            by_layer.get(layer).copied().unwrap_or(0.0),
        );
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty when every output was correct.
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Scratch directory for artifacts and span logs, inside the build
/// directory so that nothing lands in the source tree.
pub fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = target.join("perfbench");
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

/// Threads this process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} on {} core(s)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores()
    );
    let mut outcome = match args.workload.as_str() {
        "pipeline_label" => pipeline::run(&pipeline::LABEL, &args),
        "pipeline_train" => pipeline::run(&pipeline::TRAIN, &args),
        "serve_verify" => serving::run(&serving::VERIFY, &args),
        "serve_repeat" => serving::run(&serving::REPEAT, &args),
        _ => unreachable!("workload validated"),
    };
    if !args.trace && !outcome.metrics.iter().any(|(n, _)| n == "peak_rss_mb") {
        outcome.set("peak_rss_mb", peak_rss_mb());
    }

    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer_metrics()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        eprintln!("  {name:<36} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for (name, _) in &outcome.metrics {
        assert!(
            wanted.iter().any(|(w, _)| w == name),
            "metric {name} is not declared for this mode"
        );
    }
    for p in &outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaoa_gnn::Json;

    fn names_are_clean(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for name in WORKLOADS
            .iter()
            .map(|w| w.to_string())
            .chain(END_TO_END.iter().map(|m| m.0.to_string()))
            .chain(per_layer_metrics().into_iter().map(|m| m.0))
        {
            assert!(names_are_clean(&name), "bad metric name {name:?}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str, field: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            listed("workloads", "name"),
            WORKLOADS.map(String::from).to_vec()
        );
        for (field, column) in [("name", 0), ("unit", 1), ("better", 2)] {
            let pick = |m: (&str, &str, &str)| [m.0, m.1, m.2][column].to_string();
            assert_eq!(listed("end_to_end", field), END_TO_END.map(pick).to_vec());
            let per_layer: Vec<String> = per_layer_metrics()
                .iter()
                .map(|m| pick((m.0.as_str(), m.1, m.2)))
                .collect();
            assert_eq!(listed("per_layer", field), per_layer);
        }
    }
}
