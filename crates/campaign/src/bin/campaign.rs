//! The `campaign` CLI: run, resume and report sharded batch experiments.
//!
//! ```text
//! campaign run    --benchmarks n100,ibm01 --seeds 1,2,3 --out results.jsonl [--workers 8]
//!                 [--shard 0/4] [--stages N] [--moves N] [--grid-bins N]
//!                 [--verification-bins N] [--paper] [--smoke] [--sweep-tsv-budget a,b]
//! campaign resume --out results.jsonl [--workers 8] [--shard 0/4]
//! campaign report --out results.jsonl [--csv table.csv]
//! ```
//!
//! `run` writes a self-describing results file (first line: the spec), streams one JSON
//! line per finished job, and prints the aggregated Table-2-style report. `resume`
//! rebuilds the spec from the file and executes only the jobs without a record. `report`
//! aggregates the file without running anything. `--smoke` is the CI preset: a small
//! multi-design, multi-setup, multi-seed campaign on 4 workers.

use std::path::PathBuf;
use std::process::ExitCode;
use tsc3d::{FlowConfig, Setup};
use tsc3d_campaign::{
    aggregate, aggregate_sca, read_campaign_file, read_sca_file, render_csv, render_report,
    render_sca_report, resume_from_file, resume_sca_from_file, run_campaign, run_sca_campaign,
    CampaignOptions, CampaignSpec, CampaignSummary, JobRetryPolicy, OverrideSet, ScaCampaignSpec,
    ScaSensorSet, Shard,
};
use tsc3d_exec::{CancelToken, FaultPlan, FaultRecord};
use tsc3d_floorplan::SaSchedule;
use tsc3d_netlist::suite::Benchmark;
use tsc3d_obs::{log_error, log_info, log_warn};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `--trace-out PATH` turns on structured tracing for the whole run; the collected
    // spans are written as JSONL on the way out (success or failure — a failed run's
    // partial trace is exactly what one wants to look at).
    let trace_out = arg_value(&args, "--trace-out").map(PathBuf::from);
    if trace_out.is_some() {
        tsc3d_obs::set_tracing(true);
    }
    // `--progress` renders a live one-line status on stderr; `--events-out PATH` captures
    // the full event stream as JSONL. Both consume the event bus read-only, so stdout
    // (reports, records) stays byte-identical with or without them.
    let progress = arg_present(&args, "--progress");
    let events_out = arg_value(&args, "--events-out").map(PathBuf::from);
    let monitor = (progress || events_out.is_some()).then(|| {
        tsc3d_campaign::progress::EventMonitor::start_with(
            progress,
            events_out,
            arg_present(&args, "--fsync"),
        )
    });
    // `--fault-plan SPEC` arms the deterministic fault-injection harness on the
    // campaign's cancel token (chaos testing: `site:hit:action` entries, e.g.
    // `sa-epoch:3:panic`); `--fault-log PATH` writes the fired faults as JSONL on the way
    // out.
    let fault_log = arg_value(&args, "--fault-log").map(PathBuf::from);
    let armed = arg_value(&args, "--fault-plan").is_some();
    let cancel = match arg_value(&args, "--fault-plan").map(|plan| FaultPlan::parse(&plan)) {
        None => CancelToken::new(),
        Some(Ok(plan)) => {
            log_info!("campaign", "fault plan armed: {plan}");
            CancelToken::new().with_fault_plan(plan)
        }
        Some(Err(message)) => {
            eprintln!("error: --fault-plan: {message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "run" => cmd_run(&args[1..], false, &cancel),
        "resume" => cmd_run(&args[1..], true, &cancel),
        "report" => cmd_report(&args[1..]),
        "sca-run" => cmd_sca_run(&args[1..], false, &cancel),
        "sca-resume" => cmd_sca_run(&args[1..], true, &cancel),
        "sca-report" => cmd_sca_report(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    if let Some(monitor) = monitor {
        monitor.finish();
    }
    if armed {
        let fired = cancel.fired_faults();
        log_info!("campaign", "fault harness: {} fault(s) fired", fired.len());
        if let Some(path) = &fault_log {
            write_fault_log(path, &fired);
        }
    }
    if let Some(path) = &trace_out {
        write_trace(path);
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the fired-fault log as JSONL (one `{site, hit, action}` object per line) —
/// the CI chaos-smoke artifact. Always written when requested, even if empty: an empty
/// log proves the plan did not fire.
fn write_fault_log(path: &PathBuf, fired: &[FaultRecord]) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    let mut lines = String::new();
    for record in fired {
        lines.push_str(&format!(
            "{{\"site\":\"{}\",\"hit\":{},\"action\":\"{}\"}}\n",
            record.site, record.hit, record.action
        ));
    }
    match std::fs::write(path, lines) {
        Ok(()) => log_info!(
            "campaign",
            "wrote {} fired fault(s) to {}",
            fired.len(),
            path.display()
        ),
        Err(e) => log_error!(
            "campaign",
            "could not write fault log to {}: {e}",
            path.display()
        ),
    }
}

/// Drains the span collector to `path` as JSONL; render with `obs report PATH`.
fn write_trace(path: &PathBuf) {
    let spans = tsc3d_obs::drain_spans();
    let dropped = tsc3d_obs::dropped_spans();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(path, tsc3d_obs::spans_to_jsonl(&spans)) {
        Ok(()) => log_info!(
            "campaign",
            "wrote {} spans to {} ({dropped} dropped); render with `obs report`",
            spans.len(),
            path.display()
        ),
        Err(e) => log_error!(
            "campaign",
            "could not write trace to {}: {e}",
            path.display()
        ),
    }
}

const USAGE: &str = "usage:
  campaign run        [--benchmarks a,b] [--setups pa,tsc] [--seeds 1,2,3 | --runs N [--seed-base S]]
                      [--out FILE] [--workers N] [--shard K/N]
                      [--stages N] [--moves N] [--grid-bins N] [--verification-bins N]
                      [--sweep-tsv-budget a,b] [--paper] [--smoke] [--csv PATH]
                      [--retries N] [--retry-on kinds] [--job-deadline-ms MS] [--fsync]
                      [--fault-plan SPEC] [--fault-log PATH]
                      [--trace-out PATH] [--progress] [--events-out PATH]
  campaign resume     --out FILE [--workers N] [--shard K/N] [--csv PATH] [--trace-out PATH]
                      [--progress] [--events-out PATH]
  campaign report     --out FILE [--csv PATH]
  campaign sca-run    [--benchmarks a,b] [--seeds 1,2] [--key-seeds 11,12] [--traces N]
                      [--noise a,b] [--stages N] [--moves N] [--grid-bins N]
                      [--verification-bins N] [--paper] [--out FILE] [--workers N]
                      [--shard K/N] [--smoke] [--report-out PATH]
                      [--retries N] [--retry-on kinds] [--job-deadline-ms MS] [--fsync]
                      [--fault-plan SPEC] [--fault-log PATH] [--trace-out PATH]
                      [--progress] [--events-out PATH]
  campaign sca-resume --out FILE [--workers N] [--shard K/N] [--report-out PATH]
                      [--trace-out PATH] [--progress] [--events-out PATH]
  campaign sca-report --out FILE [--report-out PATH]

  --progress renders a live one-line status on stderr; --events-out PATH writes the
  full progress-event stream (job/stage/progress/checkpoint/eta) as JSONL.

  fault tolerance: --retries N bounds attempts per job (default 3); --retry-on lists
  the failure kinds worth re-running (default panic,fault-injected,deadline);
  --job-deadline-ms bounds each attempt's wall clock; --fsync syncs every record line
  to disk. chaos testing: --fault-plan takes comma-separated site:hit:action entries
  (action: panic | error | delay:<ms>; sites: flow-stage, sa-epoch, solver-sweep,
  sca-batch, exec-worker) and --fault-log PATH writes the fired faults as JSONL.";

/// Parses `--flag value` from an argument list.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_usize(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    arg_value(args, flag)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{flag} expects an integer, got '{v}'"))
        })
        .transpose()
}

fn parse_options(
    args: &[String],
    resume: bool,
    cancel: &CancelToken,
) -> Result<CampaignOptions, String> {
    let workers =
        parse_usize(args, "--workers")?.unwrap_or_else(tsc3d::experiment::default_workers);
    let shard = match arg_value(args, "--shard") {
        None => Shard::full(),
        Some(text) => Shard::parse(&text)
            .ok_or_else(|| format!("--shard expects K/N with K < N, got '{text}'"))?,
    };
    let mut retry = JobRetryPolicy::default();
    if let Some(attempts) = parse_usize(args, "--retries")? {
        if attempts == 0 {
            return Err("--retries expects at least 1 attempt".into());
        }
        retry.max_attempts = attempts as u32;
    }
    if let Some(kinds) = arg_value(args, "--retry-on") {
        retry.retry_on = kinds
            .split(',')
            .map(|k| k.trim().to_string())
            .filter(|k| !k.is_empty())
            .collect();
    }
    if let Some(ms) = parse_usize(args, "--job-deadline-ms")? {
        retry.attempt_deadline_ms = Some(ms as u64);
    }
    let mut options = CampaignOptions::in_memory(workers);
    options.shard = shard;
    options.results_path = arg_value(args, "--out").map(PathBuf::from);
    options.resume = resume;
    options.retry = retry;
    options.fsync = arg_present(args, "--fsync");
    options.cancel = cancel.clone();
    Ok(options)
}

/// Builds the campaign spec from `run` flags.
fn parse_spec(args: &[String]) -> Result<CampaignSpec, String> {
    if arg_present(args, "--smoke") {
        return Ok(smoke_spec());
    }

    let benchmarks = match arg_value(args, "--benchmarks") {
        None => vec![Benchmark::N100],
        Some(spec) => spec
            .split(',')
            .map(|name| {
                Benchmark::from_name(name.trim())
                    .ok_or_else(|| format!("unknown benchmark '{}'", name.trim()))
            })
            .collect::<Result<_, _>>()?,
    };

    let setups = match arg_value(args, "--setups") {
        None => vec![Setup::PowerAware, Setup::TscAware],
        Some(spec) => spec
            .split(',')
            .map(|name| match name.trim().to_ascii_lowercase().as_str() {
                "pa" | "power-aware" => Ok(Setup::PowerAware),
                "tsc" | "tsc-aware" => Ok(Setup::TscAware),
                other => Err(format!("unknown setup '{other}' (use pa or tsc)")),
            })
            .collect::<Result<_, _>>()?,
    };

    let seeds: Vec<u64> = match arg_value(args, "--seeds") {
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("--seeds expects integers, got '{}'", s.trim()))
            })
            .collect::<Result<_, _>>()?,
        None => {
            let runs = parse_usize(args, "--runs")?.unwrap_or(3);
            let base = arg_value(args, "--seed-base")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed-base expects an integer, got '{v}'"))
                })
                .transpose()?
                .unwrap_or(1);
            (0..runs as u64).map(|r| base + r).collect()
        }
    };

    let paper = arg_present(args, "--paper");
    let mut power_aware = if paper {
        FlowConfig::paper(Setup::PowerAware)
    } else {
        FlowConfig::quick(Setup::PowerAware)
    };
    let mut tsc_aware = if paper {
        FlowConfig::paper(Setup::TscAware)
    } else {
        FlowConfig::quick(Setup::TscAware)
    };
    for config in [&mut power_aware, &mut tsc_aware] {
        if let Some(stages) = parse_usize(args, "--stages")? {
            config.schedule.stages = stages;
        }
        if let Some(moves) = parse_usize(args, "--moves")? {
            config.schedule.moves_per_stage = moves;
        }
        if let Some(bins) = parse_usize(args, "--grid-bins")? {
            config.schedule.grid_bins = bins;
        }
        if let Some(bins) = parse_usize(args, "--verification-bins")? {
            config.verification_bins = bins;
        }
    }

    let mut overrides = vec![OverrideSet::base()];
    if let Some(budgets) = arg_value(args, "--sweep-tsv-budget") {
        for budget in budgets.split(',') {
            let budget: usize = budget
                .trim()
                .parse()
                .map_err(|_| format!("--sweep-tsv-budget expects integers, got '{budget}'"))?;
            let mut set = OverrideSet::base();
            set.name = format!("tsv-budget-{budget}");
            set.tsv_budget = Some(budget);
            overrides.push(set);
        }
    }

    Ok(CampaignSpec {
        benchmarks,
        setups,
        seeds,
        overrides,
        power_aware,
        tsc_aware,
    })
}

/// The CI smoke preset: two designs, both setups, two seeds each, tiny schedules.
fn smoke_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(vec![Benchmark::N100, Benchmark::N200], vec![1, 2]);
    let schedule = SaSchedule {
        stages: 8,
        moves_per_stage: 16,
        cooling: 0.85,
        initial_acceptance: 0.8,
        grid_bins: 12,
    };
    for config in [&mut spec.power_aware, &mut spec.tsc_aware] {
        config.schedule = schedule;
        config.verification_bins = 12;
    }
    if let Some(pp) = spec.tsc_aware.post_process.as_mut() {
        pp.activity_samples = 8;
        pp.max_insertions = 4;
    }
    spec
}

fn print_spec(spec: &CampaignSpec, options: &CampaignOptions) {
    log_info!(
        "campaign",
        "{} jobs ({} benchmarks × {} setups × {} seeds × {} overrides), shard {}, {} workers",
        spec.job_count(),
        spec.benchmarks.len(),
        spec.setups.len(),
        spec.seeds.len(),
        spec.overrides.len(),
        options.shard,
        options.workers,
    );
}

fn cmd_run(args: &[String], resume: bool, cancel: &CancelToken) -> Result<(), String> {
    let mut options = parse_options(args, resume, cancel)?;
    let outcome = if resume {
        // One read of the results file: spec from the header, completed jobs skipped,
        // torn tail repaired. Without an explicit --shard the file's own shard is
        // restored, so a sharded campaign never resumes into the other shards' jobs.
        let path = options
            .results_path
            .clone()
            .ok_or("resume requires --out FILE")?;
        let shard_override = arg_value(args, "--shard").map(|_| options.shard);
        let (spec, outcome) =
            resume_from_file(&path, options.workers, shard_override).map_err(|e| e.to_string())?;
        options.shard = outcome.shard;
        print_spec(&spec, &options);
        outcome
    } else {
        if arg_present(args, "--smoke") {
            if options.results_path.is_none() {
                // The smoke preset must be re-runnable in CI without manual cleanup, so
                // its *default* results file is disposable; a user-supplied --out is
                // never deleted (an existing file is refused like any other run).
                options.results_path = Some(PathBuf::from("target/campaign/smoke.jsonl"));
                if let Some(path) = options.results_path.as_deref() {
                    let _ = std::fs::remove_file(path);
                }
            }
            if parse_usize(args, "--workers")?.is_none() {
                options.workers = 4;
            }
        }
        let spec = parse_spec(args)?;
        print_spec(&spec, &options);
        run_campaign(&spec, &options).map_err(|e| e.to_string())?
    };

    log_info!(
        "campaign",
        "executed {} job(s), resumed {} from file, {} outside this shard",
        outcome.executed,
        outcome.resumed,
        outcome.out_of_shard
    );
    if let Some(path) = &options.results_path {
        log_info!("campaign", "results: {}", path.display());
    }
    let summary = aggregate(&outcome.records);
    write_csv_if_requested(args, &summary)?;
    print!("\n{}", render_report(&summary));
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let path = arg_value(args, "--out").ok_or("report requires --out FILE")?;
    let file = read_campaign_file(PathBuf::from(&path).as_path()).map_err(|e| e.to_string())?;
    if file.truncated_tail {
        log_warn!(
            "campaign",
            "{path} ends in a truncated line (killed campaign?); resume will rerun that job"
        );
    }
    let summary = aggregate(&file.records);
    write_csv_if_requested(args, &summary)?;
    print!("{}", render_report(&summary));
    Ok(())
}

/// Builds an sca campaign spec from `sca-run` flags.
///
/// `--smoke` selects the calibrated CI preset as the *base*; explicit flags still apply
/// on top (so `--smoke --traces 96` runs the preset at 96 traces rather than silently
/// ignoring the flag). Without `--smoke`, the base is the full quick (or `--paper`)
/// TSC-aware flow with the calibrated noise-limited attack regime.
fn parse_sca_spec(args: &[String]) -> Result<ScaCampaignSpec, String> {
    let smoke = arg_present(args, "--smoke");
    let parse_u64_list = |flag: &str| -> Result<Option<Vec<u64>>, String> {
        match arg_value(args, flag) {
            None => Ok(None),
            Some(spec) => spec
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("{flag} expects integers, got '{}'", s.trim()))
                })
                .collect::<Result<_, _>>()
                .map(Some),
        }
    };

    let mut spec = if smoke {
        ScaCampaignSpec::smoke()
    } else {
        let mut spec = ScaCampaignSpec::new(vec![Benchmark::N200], vec![1]);
        spec.attack = tsc3d_sca::AttackConfig::smoke();
        if arg_present(args, "--paper") {
            spec.flow = FlowConfig::paper(Setup::TscAware);
        }
        spec
    };
    if let Some(names) = arg_value(args, "--benchmarks") {
        spec.benchmarks = names
            .split(',')
            .map(|name| {
                Benchmark::from_name(name.trim())
                    .ok_or_else(|| format!("unknown benchmark '{}'", name.trim()))
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(seeds) = parse_u64_list("--seeds")? {
        spec.seeds = seeds;
    }
    if let Some(key_seeds) = parse_u64_list("--key-seeds")? {
        spec.key_seeds = key_seeds;
    }
    if let Some(stages) = parse_usize(args, "--stages")? {
        spec.flow.schedule.stages = stages;
    }
    if let Some(moves) = parse_usize(args, "--moves")? {
        spec.flow.schedule.moves_per_stage = moves;
    }
    if let Some(bins) = parse_usize(args, "--grid-bins")? {
        spec.flow.schedule.grid_bins = bins;
    }
    if let Some(bins) = parse_usize(args, "--verification-bins")? {
        spec.flow.verification_bins = bins;
    }
    if let Some(traces) = parse_usize(args, "--traces")? {
        spec.attack.traces = traces;
        spec.attack.mtd_checkpoints = traces;
    }
    if let Some(noise) = arg_value(args, "--noise") {
        let mut sensors = Vec::new();
        for sigma in noise.split(',') {
            let sigma: f64 = sigma
                .trim()
                .parse()
                .map_err(|_| format!("--noise expects numbers, got '{}'", sigma.trim()))?;
            let mut config = spec.attack.sensors;
            config.sigma_k = sigma;
            sensors.push(ScaSensorSet {
                name: format!("sigma-{sigma}"),
                config,
            });
        }
        spec.sensors = sensors;
    } else if !smoke {
        spec.sensors = vec![ScaSensorSet {
            name: format!("sigma-{}", spec.attack.sensors.sigma_k),
            config: spec.attack.sensors,
        }];
    }
    Ok(spec)
}

fn cmd_sca_run(args: &[String], resume: bool, cancel: &CancelToken) -> Result<(), String> {
    let mut options = parse_options(args, resume, cancel)?;
    let outcome = if resume {
        let path = options
            .results_path
            .clone()
            .ok_or("sca-resume requires --out FILE")?;
        let shard_override = arg_value(args, "--shard").map(|_| options.shard);
        let (spec, outcome) = resume_sca_from_file(&path, options.workers, shard_override)
            .map_err(|e| e.to_string())?;
        options.shard = outcome.shard;
        log_info!(
            "campaign",
            "sca: {} jobs ({} benchmarks × {} seeds × {} keys × {} sensors × {} \
             mitigations), shard {}, {} workers",
            spec.job_count(),
            spec.benchmarks.len(),
            spec.seeds.len(),
            spec.key_seeds.len(),
            spec.sensors.len(),
            spec.mitigations.len(),
            options.shard,
            options.workers,
        );
        outcome
    } else {
        if arg_present(args, "--smoke") {
            if options.results_path.is_none() {
                // Like `run --smoke`: the default results file is disposable so CI can
                // re-run without manual cleanup; a user-supplied --out is never deleted.
                options.results_path = Some(PathBuf::from("target/campaign/sca-smoke.jsonl"));
                if let Some(path) = options.results_path.as_deref() {
                    let _ = std::fs::remove_file(path);
                }
            }
            if parse_usize(args, "--workers")?.is_none() {
                options.workers = 4;
            }
        }
        let spec = parse_sca_spec(args)?;
        log_info!(
            "campaign",
            "sca: {} jobs ({} benchmarks × {} seeds × {} keys × {} sensors × {} \
             mitigations), shard {}, {} workers",
            spec.job_count(),
            spec.benchmarks.len(),
            spec.seeds.len(),
            spec.key_seeds.len(),
            spec.sensors.len(),
            spec.mitigations.len(),
            options.shard,
            options.workers,
        );
        run_sca_campaign(&spec, &options).map_err(|e| e.to_string())?
    };

    log_info!(
        "campaign",
        "sca: executed {} job(s), resumed {} from file, {} outside this shard",
        outcome.executed,
        outcome.resumed,
        outcome.out_of_shard
    );
    if let Some(path) = &options.results_path {
        log_info!("campaign", "results: {}", path.display());
    }
    let report = render_sca_report(&aggregate_sca(&outcome.records));
    write_report_if_requested(args, &report)?;
    print!("\n{report}");
    Ok(())
}

fn cmd_sca_report(args: &[String]) -> Result<(), String> {
    let path = arg_value(args, "--out").ok_or("sca-report requires --out FILE")?;
    let file = read_sca_file(PathBuf::from(&path).as_path()).map_err(|e| e.to_string())?;
    if file.truncated_tail {
        log_warn!(
            "campaign",
            "{path} ends in a truncated line (killed campaign?); resume will rerun that job"
        );
    }
    let report = render_sca_report(&aggregate_sca(&file.records));
    write_report_if_requested(args, &report)?;
    print!("{report}");
    Ok(())
}

/// Writes the rendered sca report to `--report-out PATH` (if given) alongside stdout —
/// the CI-artifact path.
fn write_report_if_requested(args: &[String], report: &str) -> Result<(), String> {
    let Some(path) = arg_value(args, "--report-out") else {
        return Ok(());
    };
    let path = PathBuf::from(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("could not create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&path, report)
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    log_info!("campaign", "report: {}", path.display());
    Ok(())
}

/// Writes the aggregate table to `--csv PATH` (if given) alongside the printed report.
fn write_csv_if_requested(args: &[String], summary: &CampaignSummary) -> Result<(), String> {
    let Some(path) = arg_value(args, "--csv") else {
        return Ok(());
    };
    let path = PathBuf::from(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("could not create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&path, render_csv(summary))
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    log_info!("campaign", "csv: {}", path.display());
    Ok(())
}
