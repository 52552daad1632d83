//! The repository benchmark: three seeded workloads (`flow`, `sca`, `serve`) driven
//! through the public APIs of the campaign engine, the sca attack and the serve daemon.
//!
//! ```text
//! perfbench --workload <flow|sca|serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's span recorder off;
//! `--trace 1` runs the same inputs once untraced and once traced and prints the
//! per-layer metrics. Every run checks the program's outputs. The last line of stdout
//! is one JSON object (`correct`, `attempted`, `failed`, `metrics`); the lines before
//! it are the same numbers for people, with sample counts and percentiles. The process
//! exits non-zero when any output check failed. See README.md.

mod flow;
mod sca;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("result_ms", "ms"),
    ("request_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A workload that
/// does not exercise a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("floorplan.sa_s", "s"),
    ("floorplan.evals_per_s", "1/s"),
    ("floorplan.repair_rounds", "count"),
    ("floorplan.first_pass_legal_ratio", "ratio"),
    ("power.assign_s", "s"),
    ("thermal.verify_s", "s"),
    ("core.post_process_s", "s"),
    ("core.unattributed_share", "ratio"),
    ("thermal.network_build_s", "s"),
    ("thermal.transient_steps", "count"),
    ("thermal.steps_per_s", "1/s"),
    ("sca.flow_s", "s"),
    ("sca.attack_baseline_s", "s"),
    ("sca.attack_mitigated_s", "s"),
    ("sca.mitigated_slowdown", "ratio"),
    ("sca.cpa_s", "s"),
    ("sca.unattributed_share", "ratio"),
    ("sca.traces_per_s", "1/s"),
    ("campaign.job_s_p50", "s"),
    ("campaign.job_s_max", "s"),
    ("exec.busy_ratio", "ratio"),
    ("serve.http_p50_ms", "ms"),
    ("serve.http_p99_ms", "ms"),
    ("serve.result_p50_ms", "ms"),
    ("serve.result_tail_ms", "ms"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.submit_ms_p99", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_ms_p99", "ms"),
    ("serve.poll_ms_p50", "ms"),
    ("serve.poll_ms_p99", "ms"),
    ("serve.stats_ms_p50", "ms"),
    ("serve.stats_ms_p99", "ms"),
    ("serve.metrics_ms_p50", "ms"),
    ("serve.metrics_ms_p99", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.refused", "count"),
    ("serve.errors", "count"),
    ("gen.lag_ms_p99", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `flow`, `sca` or `serve`.
    pub workload: String,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Measurement time of the run.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory of this run, inside the working directory.
    pub scratch: PathBuf,
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, requests, output checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced mismatched output.
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub problems: Vec<String>,
    /// Metric name → (value, note printed beside it).
    pub metrics: BTreeMap<&'static str, (f64, String)>,
}

impl Outcome {
    /// Records one operation; `problem` is `Some` when it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    /// Sets a metric without a note.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, (value, String::new()));
    }

    /// Sets a metric with a note (sample count, percentile) printed beside it.
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.metrics.insert(name, (value, note));
    }
}

/// `a / b`, or 0 when `b` is not positive (keeps the JSON output finite).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

const USAGE: &str =
    "usage: perfbench --workload <flow|sca|serve> --seed N --seconds S --trace <0|1>\n       \
     perfbench --print-golden <flow|sca>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
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
    if !matches!(workload.as_str(), "flow" | "sca" | "serve") {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer".to_string())?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a positive integer".to_string())?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    let scratch = PathBuf::from(".perfbench-tmp").join(format!(
        "{workload}-{seed}-{}-{}",
        u8::from(trace),
        std::process::id()
    ));
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        scratch,
    })
}

/// Peak resident set of this process so far in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = argv.iter().position(|a| a == "--print-golden") {
        return match argv.get(at + 1).map(String::as_str) {
            Some("flow") => {
                print!("{}", flow::golden_lines());
                ExitCode::SUCCESS
            }
            Some("sca") => {
                print!("{}", sca::golden_lines());
                ExitCode::SUCCESS
            }
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        return ExitCode::from(2);
    }
    let mut outcome = match args.workload.as_str() {
        "flow" => flow::run(&args),
        "sca" => sca::run(&args),
        _ => serve::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    let _ = std::fs::remove_dir(".perfbench-tmp");

    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, _) in expected {
        if !outcome.metrics.contains_key(name) {
            if args.trace {
                outcome.set_noted(name, 0.0, "layer not exercised by this workload".into());
            } else {
                outcome.check(Some(format!("{name} was not measured")));
                outcome.set(name, 0.0);
            }
        }
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut json = Vec::new();
    for &(name, unit) in expected {
        let (value, note) = &outcome.metrics[name];
        let value = if value.is_finite() { *value } else { 0.0 };
        println!("  {name:<34} {value:>14.4} {unit:<6} {note}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0;
    println!(
        "  operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
