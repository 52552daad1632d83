//! The `flow` workload: a flow campaign through the campaign engine.
//!
//! n200 and n100 × {PA, TSC} × design seeds 1–4 on the quick annealing schedule, with
//! 2 pool workers, results streamed to a file. Annealing is nearly all of the job time,
//! so this workload moves with `floorplan`, `leakage` and `power` and never touches
//! transient simulation, CPA or HTTP.
//!
//! Why a fixed design-seed pool: outline repair re-anneals a rejected floorplan at 4×,
//! 16×, … the schedule, so one job takes 0.5 s or 18 s depending on its seed. Drawing
//! fresh design seeds per run would make `jobs_per_s` differ by ~30% between benchmark
//! seeds on two cores. Every run therefore runs the same 16 jobs; the benchmark seed
//! sets the order of the design seeds. n200 is queued before n100 so the long jobs do
//! not land at the end, where one worker would idle.

use crate::schedule::{rng, shuffle};
use crate::trace::Tracer;
use crate::{mean, ratio, secs, stats, Args, Outcome};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tsc3d::exec::Pool;
use tsc3d::{FlowError, FlowResult, TscFlow};
use tsc3d_campaign::{
    execute_job, read_campaign_file, run_campaign_on, CampaignOptions, CampaignSpec, JobOutcome,
    JobRecord, ResultSink, Shard,
};
use tsc3d_netlist::suite::{generate, Benchmark};

const BENCHMARKS: [Benchmark; 2] = [Benchmark::N200, Benchmark::N100];
const DESIGN_SEEDS: [u64; 4] = [1, 2, 3, 4];
/// Pool workers of every workload (the machine the bounds were set on has 2 cores).
pub const WORKERS: usize = 2;
/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPEATS: usize = 5;

fn spec(seeds: Vec<u64>) -> CampaignSpec {
    CampaignSpec::new(BENCHMARKS.to_vec(), seeds)
}

/// One record with the fields that legitimately differ between runs (job id, which
/// depends on the queue order, and wall-clock runtime) zeroed, as one JSON line.
fn normalized(record: &JobRecord) -> String {
    let mut record = record.clone();
    record.job_id = 0;
    if let JobOutcome::Success(metrics) = &mut record.outcome {
        metrics.runtime_s = 0.0;
    }
    record.to_json_line()
}

fn key(record: &JobRecord) -> String {
    format!(
        "{}\t{}\t{}",
        record.benchmark.name(),
        record.setup.label(),
        record.seed
    )
}

/// The golden file: every job of the pool, run once on this code.
pub fn golden_lines() -> String {
    let outcome = tsc3d_campaign::run_campaign(
        &spec(DESIGN_SEEDS.to_vec()),
        &CampaignOptions::in_memory(WORKERS),
    )
    .expect("the golden campaign runs");
    let mut lines: Vec<String> = outcome
        .records
        .iter()
        .map(|r| format!("{}\t{}\n", key(r), normalized(r)))
        .collect();
    lines.sort();
    lines.concat()
}

fn golden() -> BTreeMap<String, String> {
    include_str!("../golden/flow.tsv")
        .lines()
        .filter_map(|line| {
            let (key, value) = line.rsplit_once('\t')?;
            Some((key.to_string(), value.to_string()))
        })
        .collect()
}

/// Checks one record against the golden file: the seeded results must match exactly.
fn check_record(out: &mut Outcome, golden: &BTreeMap<String, String>, record: &JobRecord) {
    let key = key(record);
    let problem = match golden.get(&key) {
        None => Some(format!("flow {key}: no golden record")),
        Some(expected) if *expected != normalized(record) => Some(format!(
            "flow {key}: record differs from golden\n  got  {}\n  want {expected}",
            normalized(record)
        )),
        Some(_) => None,
    };
    out.check(problem);
}

/// The results file must hold exactly the records the engine returned.
fn check_file(out: &mut Outcome, path: &Path, records: &[JobRecord]) {
    let problem = match read_campaign_file(path) {
        Err(e) => Some(format!("flow results file: {e}")),
        Ok(file) => {
            let mut on_disk = file.records;
            on_disk.sort_by_key(|r| r.job_id);
            (on_disk != records).then(|| "flow results file differs from the records".into())
        }
    };
    out.check(problem);
}

/// Program-reported figures of one flow run, attached to its span.
pub fn flow_attrs(result: &Result<FlowResult, FlowError>) -> Vec<(&'static str, f64)> {
    match result {
        Err(_) => Vec::new(),
        Ok(flow) => {
            let t = &flow.stage_timings;
            vec![
                ("floorplan_s", t.floorplan_s),
                ("assign_s", t.assign_s),
                ("verify_s", t.verify_s),
                ("post_process_s", t.post_process_s),
                ("evaluations", flow.sa.evaluations as f64),
                (
                    "repair_rounds",
                    flow.outline_repair.map_or(0.0, |r| r.rounds as f64),
                ),
                (
                    "first_pass_legal",
                    f64::from(u8::from(flow.outline_repair.is_none())),
                ),
            ]
        }
    }
}

/// The `floorplan`, `power`, `thermal.verify` and `core` metrics from the spans named
/// `span` (each a `TscFlow::run` call carrying [`flow_attrs`]); `job` names the spans
/// of the whole jobs those runs belong to, the base of `core.unattributed_share`.
pub fn set_flow_layers(out: &mut Outcome, tracer: &Tracer, span: &str, job: &str) {
    let runs = tracer.named(span).len() as f64;
    let sa = tracer.attr_sum(span, "floorplan_s");
    let stages = sa
        + tracer.attr_sum(span, "assign_s")
        + tracer.attr_sum(span, "verify_s")
        + tracer.attr_sum(span, "post_process_s");
    out.set("floorplan.sa_s", sa);
    out.set(
        "floorplan.evals_per_s",
        ratio(tracer.attr_sum(span, "evaluations"), sa),
    );
    out.set(
        "floorplan.repair_rounds",
        tracer.attr_sum(span, "repair_rounds"),
    );
    out.set_noted(
        "floorplan.first_pass_legal_ratio",
        ratio(tracer.attr_sum(span, "first_pass_legal"), runs),
        format!("{runs} flow runs"),
    );
    out.set("power.assign_s", tracer.attr_sum(span, "assign_s"));
    out.set("thermal.verify_s", tracer.attr_sum(span, "verify_s"));
    out.set(
        "core.post_process_s",
        tracer.attr_sum(span, "post_process_s"),
    );
    out.set(
        "core.unattributed_share",
        1.0 - ratio(stages, tracer.total_s(job)),
    );
}

/// `campaign.job_s_*` and `exec.busy_ratio` from the `campaign.job` spans of a pass
/// that took `wall_s` on [`WORKERS`] workers; `other_busy_s` is pool time outside
/// those spans (the sca round's shared flow).
pub fn set_campaign_layers(out: &mut Outcome, tracer: &Tracer, wall_s: f64, other_busy_s: f64) {
    let jobs: Vec<f64> = tracer
        .named("campaign.job")
        .iter()
        .map(|s| s.dur_s)
        .collect();
    let sorted = stats::sorted(&jobs);
    out.set_noted(
        "campaign.job_s_p50",
        stats::percentile(&sorted, 50.0),
        format!("n={}", sorted.len()),
    );
    out.set_noted(
        "campaign.job_s_max",
        sorted.last().copied().unwrap_or(0.0),
        format!("n={}", sorted.len()),
    );
    out.set(
        "exec.busy_ratio",
        ratio(
            jobs.iter().sum::<f64>() + other_busy_s,
            WORKERS as f64 * wall_s,
        ),
    );
}

/// The program's own count of transient grid steps (its metrics registry).
pub fn transient_steps() -> u64 {
    tsc3d_obs::global()
        .counter(
            "tsc3d_sca_transient_steps_total",
            "Explicit-Euler transient steps performed by trace simulations",
        )
        .get()
}

/// Design generation, pool start and a warm-up job on each worker, repeated
/// [`SETUP_REPEATS`] times; returns the last pool and the median set-up time.
fn set_up(out: &mut Outcome) -> (Pool, f64) {
    let mut warm = CampaignSpec::new(vec![Benchmark::N100], vec![0]);
    for config in [&mut warm.power_aware, &mut warm.tsc_aware] {
        config.schedule.stages = 2;
        config.schedule.moves_per_stage = 4;
    }
    let mut times = Vec::new();
    let mut pool: Option<Pool> = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        for benchmark in BENCHMARKS {
            for seed in DESIGN_SEEDS {
                std::hint::black_box(generate(benchmark, seed));
            }
        }
        if let Some(old) = pool.take() {
            old.shutdown();
        }
        let fresh = Pool::with_batch_workers(WORKERS);
        let records = fresh.run_batch(warm.expand(), |_, job| execute_job(&job));
        times.push(secs(started));
        for record in records {
            out.check((!record.is_success()).then(|| "flow warm-up job failed".to_string()));
        }
        pool = Some(fresh);
    }
    (pool.expect("set-up ran"), stats::median(&times))
}

/// Runs one campaign round through the engine, checks it, and returns its wall time
/// and the jobs' runtimes as the engine recorded them.
fn engine_round(
    out: &mut Outcome,
    pool: &Pool,
    spec: &CampaignSpec,
    path: &Path,
    golden: &BTreeMap<String, String>,
) -> (f64, Vec<f64>) {
    let mut options = CampaignOptions::in_memory(WORKERS);
    options.results_path = Some(path.to_path_buf());
    let started = Instant::now();
    let result = run_campaign_on(pool, spec, &options);
    let wall = secs(started);
    match result {
        Err(e) => {
            out.check(Some(format!("flow campaign: {e}")));
            (wall, Vec::new())
        }
        Ok(outcome) => {
            for record in &outcome.records {
                check_record(out, golden, record);
            }
            check_file(out, path, &outcome.records);
            let runtimes = outcome
                .records
                .iter()
                .filter_map(JobRecord::metrics)
                .map(|m| m.runtime_s)
                .collect();
            (wall, runtimes)
        }
    }
}

/// Replays a round job by job on the pool — the engine's per-job calls, made from
/// here so each is wrapped in a span — and checks it like an engine round.
fn traced_round(
    out: &mut Outcome,
    pool: &Pool,
    spec: &CampaignSpec,
    path: &Path,
    golden: &BTreeMap<String, String>,
    tracer: &Arc<Tracer>,
) -> f64 {
    let sink = match ResultSink::create_with(path, spec, Shard::full(), false) {
        Ok(sink) => Arc::new(sink),
        Err(e) => {
            out.check(Some(format!("flow traced sink: {e}")));
            return 0.0;
        }
    };
    let started = Instant::now();
    let tr = Arc::clone(tracer);
    let results = pool.run_batch(spec.expand(), move |_, job| {
        let span = tr.open("campaign.job");
        let design = generate(job.benchmark, job.seed);
        let run = tr.open("core.flow");
        let result = TscFlow::new(job.config).run(&design, job.run_seed());
        tr.close(run, &flow_attrs(&result));
        let record = JobRecord {
            job_id: job.id,
            benchmark: job.benchmark,
            setup: job.setup,
            override_name: job.override_name.clone(),
            seed: job.seed,
            outcome: JobOutcome::from_flow(&result),
        };
        let appended = sink.append(&record).map_err(|e| e.to_string());
        tr.close(span, &[]);
        (record, appended)
    });
    let wall = secs(started);
    let mut records = Vec::new();
    for (record, appended) in results {
        out.check(appended.err());
        check_record(out, golden, &record);
        records.push(record);
    }
    check_file(out, path, &records);
    wall
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let golden = golden();
    let (pool, setup_s) = set_up(&mut out);
    let mut order = DESIGN_SEEDS.to_vec();
    let mut rng = rng(args.seed, 1);
    shuffle(&mut order, &mut rng);

    if args.trace {
        // Half the pool, replayed twice: with the span recorder off, then on. The
        // replays differ only in the recorder, so their walls give its overhead.
        let half = spec(order[..DESIGN_SEEDS.len() / 2].to_vec());
        let untraced = traced_round(
            &mut out,
            &pool,
            &half,
            &args.scratch.join("untraced.jsonl"),
            &golden,
            &Arc::new(Tracer::new(false)),
        );
        let tracer = Arc::new(Tracer::new(true));
        let steps_before = transient_steps();
        let traced = traced_round(
            &mut out,
            &pool,
            &half,
            &args.scratch.join("traced.jsonl"),
            &golden,
            &tracer,
        );
        set_flow_layers(&mut out, &tracer, "core.flow", "campaign.job");
        set_campaign_layers(&mut out, &tracer, traced, 0.0);
        out.set(
            "thermal.transient_steps",
            (transient_steps() - steps_before) as f64,
        );
        out.set("obs.trace_overhead_ratio", ratio(traced, untraced) - 1.0);
    } else {
        let started = Instant::now();
        let mut walls = Vec::new();
        let mut runtimes = Vec::new();
        for round in 0.. {
            if round > 0 {
                shuffle(&mut order, &mut rng);
            }
            let path = args.scratch.join(format!("round-{round}.jsonl"));
            let (wall, jobs) = engine_round(&mut out, &pool, &spec(order.clone()), &path, &golden);
            walls.push(wall);
            runtimes.extend(jobs);
            if secs(started) + stats::median(&walls) > args.seconds {
                break;
            }
        }
        let round_s = stats::median(&walls);
        let jobs = (BENCHMARKS.len() * 2 * DESIGN_SEEDS.len()) as f64;
        out.set_noted(
            "jobs_per_s",
            ratio(jobs, round_s),
            format!("{jobs} jobs per round, median of {} rounds", walls.len()),
        );
        out.set_noted(
            "result_ms",
            mean(&runtimes) * 1e3,
            format!("mean job runtime_s, n={}", runtimes.len()),
        );
        out.set_noted(
            "request_p50_ms",
            round_s * 1e3,
            format!("campaign call, median of {}", walls.len()),
        );
    }
    out.set_noted("setup_s", setup_s, format!("median of {SETUP_REPEATS}"));
    out.set("peak_rss_mb", crate::peak_rss_mb());
    pool.shutdown();
    out
}
