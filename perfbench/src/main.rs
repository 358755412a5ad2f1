//! The RayFlex-RS benchmark: three workloads driven through the public API of `rtunit`, `core`,
//! `server` and `workloads::wire`, with every output checked against a reference answer.
//!
//! ```text
//! rayflex-perfbench --workload frame|vector_search|serve --seed N --seconds S --trace 0|1 \
//!                   [--server-bin PATH] [--trace-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` is the separate traced run
//! that records spans around each call into a layer and reports the per-layer metrics.  Every
//! metric is printed by name with its unit; the last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`).  See `README.md` for the metric definitions.

mod frame;
mod kernel;
mod replay;
mod serve;
mod stats;
mod sys;
mod trace;
mod vector;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// How a metric was obtained.  Modeled numbers come from the simulator's device model and are
/// never wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Wall,
    Modeled,
    Count,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Wall => "wall",
            Kind::Modeled => "modeled",
            Kind::Count => "count",
        }
    }
}

/// The end-to-end metrics of an untraced run, in report order.  Every workload reports all of
/// them; `README.md` defines each per workload.
pub const END_TO_END: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Kind::Wall),
    ("ops_per_s", "1/s", Kind::Wall),
    ("p50_ms", "ms", Kind::Wall),
    ("p99_ms", "ms", Kind::Wall),
    ("max_rate_rps", "req/s", Kind::Wall),
    ("peak_rss_mb", "MiB", Kind::Wall),
];

/// The per-layer metrics of a traced run, in report order.  A workload that never calls into a
/// layer reports that layer's metrics as 0: it spent no time and did no work there.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("rtunit.bvh_build_ms", "ms", Kind::Wall),
    ("rtunit.primary_ms", "ms", Kind::Wall),
    ("rtunit.shadow_ms", "ms", Kind::Wall),
    ("rtunit.ao_ms", "ms", Kind::Wall),
    ("rtunit.rays_per_op", "count", Kind::Count),
    ("rtunit.box_ops_per_op", "count", Kind::Count),
    ("rtunit.triangle_ops_per_op", "count", Kind::Count),
    ("rtunit.nodes_visited_per_op", "count", Kind::Count),
    ("rtunit.distances_ms", "ms", Kind::Wall),
    ("rtunit.select_k_ms", "ms", Kind::Wall),
    ("rtunit.radius_ms", "ms", Kind::Wall),
    ("rtunit.scored_fraction", "ratio", Kind::Count),
    ("core.beats_per_op.ray_box", "count", Kind::Count),
    ("core.beats_per_op.ray_triangle", "count", Kind::Count),
    ("core.beats_per_op.euclidean", "count", Kind::Count),
    ("core.beats_per_op.cosine", "count", Kind::Count),
    ("core.passes_per_op", "count", Kind::Count),
    ("core.fused_passes_per_op", "count", Kind::Count),
    ("core.host_ns_per_beat", "ns", Kind::Wall),
    ("core.kernel_ns_per_beat.ray_box", "ns", Kind::Wall),
    ("core.kernel_ns_per_beat.ray_triangle", "ns", Kind::Wall),
    ("core.kernel_ns_per_beat.euclidean", "ns", Kind::Wall),
    ("core.kernel_ns_per_beat.cosine", "ns", Kind::Wall),
    ("modeled.lane_occupancy", "ratio", Kind::Modeled),
    ("modeled.lane_slots_per_op", "count", Kind::Modeled),
    ("server.queue_wait_us_p50", "us", Kind::Wall),
    ("server.queue_wait_us_p99", "us", Kind::Wall),
    ("server.execute_us_p50", "us", Kind::Wall),
    ("server.execute_us_p99", "us", Kind::Wall),
    ("server.requests_per_batch", "count", Kind::Count),
    ("server.spawned_requests_per_batch", "count", Kind::Count),
    ("server.transport_us_p50", "us", Kind::Wall),
    ("wire.encode_us_p50", "us", Kind::Wall),
    ("wire.decode_us_p50", "us", Kind::Wall),
    ("wire.bytes_per_request", "bytes", Kind::Count),
    ("wire.bytes_per_response", "bytes", Kind::Count),
    ("loadgen.late_ms_p99", "ms", Kind::Wall),
    ("trace.overhead_frac", "ratio", Kind::Wall),
    ("closure.frame_residual_frac", "ratio", Kind::Wall),
];

/// What a workload run produced: named metric values plus the correctness tally.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    /// Ops (frames, queries, requests) whose output was checked.
    pub attempted: u64,
    /// Checked ops that failed: an error, a timeout, a dropped connection, or an output that
    /// differs from the reference answer.
    pub failed: u64,
    /// Self-checks other than per-op outputs (determinism, closure) that did not hold.
    pub check_failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(existing, _)| *existing != name);
        self.metrics.push((name, value));
    }

    pub fn check(&mut self, holds: bool, what: impl Into<String>) {
        if !holds {
            self.check_failures.push(what.into());
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(existing, _)| *existing == name)
            .map(|&(_, value)| value)
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub traced: bool,
    pub server_bin: Option<PathBuf>,
    pub trace_dir: PathBuf,
}

const USAGE: &str = "usage: rayflex-perfbench --workload frame|vector_search|serve --seed N \
                     --seconds S --trace 0|1 [--server-bin PATH] [--trace-dir DIR]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut server_bin = None;
    let mut trace_dir = PathBuf::from("perfbench/traces");
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--trace-dir" => trace_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    if !["frame", "vector_search", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    }
    let seconds = seconds.ok_or(format!("--seconds is required\n{USAGE}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    if workload == "serve" && server_bin.is_none() {
        return Err(format!("the serve workload needs --server-bin\n{USAGE}"));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or(format!("--seed is required\n{USAGE}"))?,
        run: Duration::from_secs_f64(seconds),
        traced: traced.ok_or(format!("--trace is required\n{USAGE}"))?,
        server_bin,
        trace_dir,
    })
}

/// Prints every metric of the run by name, unit and kind, then the one-line JSON result.
fn report(options: &Options, outcome: &Outcome) {
    let catalog = if options.traced {
        PER_LAYER
    } else {
        END_TO_END
    };
    for (name, _) in &outcome.metrics {
        assert!(
            catalog.iter().any(|(known, _, _)| known == name),
            "metric {name} is not in the {} catalog",
            if options.traced {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
    }
    for failure in &outcome.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<38} {:>16} {:<6} [count]  ({} of {} ops failed)",
        "failed_frac", failed_frac, "ratio", outcome.failed, outcome.attempted
    );
    let mut json = String::from("{");
    let correct = outcome.failed == 0 && outcome.check_failures.is_empty() && outcome.attempted > 0;
    let _ = write!(
        json,
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (index, (name, unit, kind)) in catalog.iter().enumerate() {
        let measured = outcome.value(name);
        let value = measured.filter(|value| value.is_finite()).unwrap_or(0.0);
        println!(
            "{name:<38} {value:>16.6} {unit:<6} [{}]{}",
            kind.label(),
            if measured.is_none() {
                "  (layer not used by this workload)"
            } else {
                ""
            }
        );
        if index > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match options.workload.as_str() {
        "frame" => frame::run(&options),
        "vector_search" => vector::run(&options),
        _ => serve::run(&options),
    };
    match outcome {
        Ok(outcome) => {
            report(&options, &outcome);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("rayflex-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
