//! The campaign engine: expands a spec into jobs, filters them by shard, skips jobs that
//! already have a record (resume), executes the rest on the shared work-stealing pool
//! ([`tsc3d::exec`]) and streams every finished job to the results sink.

use crate::job::{CampaignJob, CampaignSpec, Shard};
use crate::record::{JobOutcome, JobRecord};
use crate::retry::{is_cancellation_kind, JobRetryPolicy};
use crate::sink::{read_campaign_file, repair_torn_tail, CampaignFile, ResultSink, SinkError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tsc3d::exec::{CancelToken, Pool};
use tsc3d::TscFlow;
use tsc3d_netlist::suite::generate;

/// Execution options of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Number of worker threads.
    pub workers: usize,
    /// The shard of the job space this process runs.
    pub shard: Shard,
    /// Path of the JSONL results file; `None` keeps results in memory only.
    pub results_path: Option<PathBuf>,
    /// Resume mode: load the results file and skip jobs that already completed. Without
    /// resume, an existing results file is an error (refusing to silently mix campaigns).
    pub resume: bool,
    /// Per-job retry/backoff/quarantine policy (see [`JobRetryPolicy`]).
    pub retry: JobRetryPolicy,
    /// Campaign-wide cancel token: once it fires, queued jobs are skipped (left
    /// record-less, so a resume re-runs them) and in-flight jobs stop at their next
    /// checkpoint. A fault plan armed on it ([`CancelToken::with_fault_plan`]) reaches
    /// every job of the run and no other run.
    pub cancel: CancelToken,
    /// Sync every appended record line to disk (`fsync`) instead of just flushing to the
    /// OS — per-line crash durability at a per-job I/O cost.
    pub fsync: bool,
}

impl CampaignOptions {
    /// In-memory execution on `workers` threads (no results file, full shard, default
    /// retry policy, no cancellation, no fsync).
    pub fn in_memory(workers: usize) -> Self {
        Self {
            workers,
            shard: Shard::full(),
            results_path: None,
            resume: false,
            retry: JobRetryPolicy::default(),
            cancel: CancelToken::new(),
            fsync: false,
        }
    }

    /// The pool a campaign run owns: `workers` threads execute its batch (the caller
    /// helps), and the workers reach the `exec-worker` site under `cancel`'s fault plan.
    pub(crate) fn pool(&self) -> Pool {
        Pool::with_faults(self.workers.max(1) - 1, &self.cancel)
    }
}

/// Outcome of a campaign run.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// All records of this shard — prior (resumed) and newly executed — sorted by job id.
    pub records: Vec<JobRecord>,
    /// Number of jobs executed by this run.
    pub executed: usize,
    /// Number of jobs skipped because the results file already had their record.
    pub resumed: usize,
    /// Number of jobs outside this shard.
    pub out_of_shard: usize,
    /// The shard the run actually executed (on a bare resume, restored from the file
    /// header rather than the caller's default).
    pub shard: Shard,
}

/// Errors of the campaign engine.
#[derive(Debug)]
pub enum CampaignError {
    /// The results file could not be read or written.
    Sink(SinkError),
    /// The results file exists but resume was not requested.
    WouldOverwrite {
        /// The existing file.
        path: PathBuf,
    },
    /// The results file does not belong to this campaign spec.
    SpecMismatch {
        /// Description of the first divergence.
        reason: String,
    },
    /// The spec expands to no jobs (empty benchmark/seed/setup/override axis).
    EmptySpec,
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Sink(e) => write!(f, "{e}"),
            CampaignError::WouldOverwrite { path } => write!(
                f,
                "results file {} already exists; use resume (or remove it) instead of overwriting",
                path.display()
            ),
            CampaignError::SpecMismatch { reason } => {
                write!(f, "results file does not match the campaign spec: {reason}")
            }
            CampaignError::EmptySpec => write!(f, "the campaign spec expands to zero jobs"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Sink(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SinkError> for CampaignError {
    fn from(e: SinkError) -> Self {
        CampaignError::Sink(e)
    }
}

/// Executes one job: generates the design instance and runs the flow.
pub fn execute_job(job: &CampaignJob) -> JobRecord {
    execute_job_with_cancel(job, &CancelToken::new())
}

/// [`execute_job`] polling `cancel` at the flow's stage/epoch/sweep checkpoints; an
/// interrupt lands as a typed [`JobOutcome::Failure`] (kind `cancelled`, `shutdown`,
/// `deadline` or `fault-injected`).
pub fn execute_job_with_cancel(job: &CampaignJob, cancel: &CancelToken) -> JobRecord {
    let _span = tsc3d_obs::span!("campaign_job");
    let metrics = crate::obs_metrics::get();
    let running = crate::obs_metrics::RunningGuard::enter();
    let design = generate(job.benchmark, job.seed);
    let result = TscFlow::new(job.config).run_with_cancel(&design, job.run_seed(), cancel);
    drop(running);
    metrics.done.inc();
    let outcome = JobOutcome::from_flow(&result);
    if let JobOutcome::Failure { kind, .. } = &outcome {
        crate::obs_metrics::record_failure(kind);
    }
    JobRecord {
        job_id: job.id,
        benchmark: job.benchmark,
        setup: job.setup,
        override_name: job.override_name.clone(),
        seed: job.seed,
        outcome,
    }
}

/// Executes one job under a [`JobRetryPolicy`]: panics are contained as typed `panic`
/// failures, retryable kinds re-run with seeded backoff, and a job that exhausts its
/// attempts is quarantined — its typed failure returned while the campaign continues.
///
/// A retried-then-succeeded job re-runs the identical seeded computation, so its record
/// is indistinguishable from a first-try success.
pub fn execute_job_with_retry(
    job: &CampaignJob,
    policy: &JobRetryPolicy,
    cancel: &CancelToken,
) -> JobRecord {
    let (record, _attempts) = crate::retry::run_attempts(
        policy,
        job.run_seed(),
        cancel,
        |token| execute_job_with_cancel(job, token),
        |record| match &record.outcome {
            JobOutcome::Failure { kind, .. } => Some(kind.clone()),
            JobOutcome::Success(_) => None,
        },
        |message| {
            crate::obs_metrics::record_failure("panic");
            JobRecord {
                job_id: job.id,
                benchmark: job.benchmark,
                setup: job.setup,
                override_name: job.override_name.clone(),
                seed: job.seed,
                outcome: JobOutcome::Failure {
                    kind: "panic".to_string(),
                    message,
                },
            }
        },
    );
    record
}

/// Checks that a record loaded from disk matches the job the spec expands to under the
/// same id — the guard against resuming with a different spec than the one that wrote
/// the file.
fn record_matches(record: &JobRecord, job: &CampaignJob) -> bool {
    record.benchmark == job.benchmark
        && record.setup == job.setup
        && record.seed == job.seed
        && record.override_name == job.override_name
}

/// Runs (or resumes) a campaign.
///
/// Completed jobs stream to the results file as they finish; the returned outcome holds
/// every record of this shard sorted by job id. Job failures ([`JobOutcome::Failure`])
/// are *data*, not errors — the campaign always runs to completion and the aggregation
/// layer counts failures per kind.
///
/// # Errors
///
/// Returns a [`CampaignError`] when the spec is empty, the results file cannot be
/// read/written, it already exists without `resume`, or it belongs to a different spec.
pub fn run_campaign(
    spec: &CampaignSpec,
    options: &CampaignOptions,
) -> Result<CampaignOutcome, CampaignError> {
    let pool = options.pool();
    let outcome = run_campaign_on(&pool, spec, options);
    pool.shutdown();
    outcome
}

/// [`run_campaign`] on a caller-provided (typically long-lived, shared) pool — the serve
/// daemon's entry point, where one persistent executor backs every submitted campaign.
/// `options.workers` is ignored in favour of the pool's own parallelism.
///
/// # Errors
///
/// Same contract as [`run_campaign`].
pub fn run_campaign_on(
    pool: &Pool,
    spec: &CampaignSpec,
    options: &CampaignOptions,
) -> Result<CampaignOutcome, CampaignError> {
    // A killed campaign can leave a torn final line; cut it off *before* reading so the
    // prior-record set and the file agree (a torn fragment that happens to parse must not
    // count as completed and then be truncated), and so appended records start on a
    // fresh line.
    let prior_file = match options.results_path.as_deref() {
        Some(path) if options.resume && path.exists() => {
            repair_torn_tail(path)?;
            Some(read_campaign_file(path)?)
        }
        _ => None,
    };
    // Resuming a sharded file with the default (full) shard restores the file's own
    // shard: re-executing the other shards' jobs would duplicate work already owned by
    // other machines and double-count records when the per-shard files are concatenated.
    // An explicit non-full shard in `options` still wins.
    let mut options = options.clone();
    if options.shard == Shard::full() {
        if let Some(file_shard) = prior_file.as_ref().and_then(|f| f.shard) {
            options.shard = file_shard;
        }
    }
    run_with_prior(pool, spec, &options, prior_file)
}

/// Resumes a campaign from its self-describing results file: repairs a torn tail, reads
/// the file once, rebuilds the spec from the header and runs the jobs without a record.
/// Returns the spec alongside the outcome.
///
/// # Errors
///
/// Returns a [`CampaignError`] when the file cannot be read/repaired, has no campaign
/// header, or its records do not match the header's spec.
pub fn resume_from_file(
    path: &Path,
    workers: usize,
    shard_override: Option<Shard>,
) -> Result<(CampaignSpec, CampaignOutcome), CampaignError> {
    repair_torn_tail(path)?;
    let file = read_campaign_file(path)?;
    let spec = file
        .spec
        .clone()
        .ok_or_else(|| CampaignError::SpecMismatch {
            reason: format!("{} has no campaign header", path.display()),
        })?;
    // Without an explicit override, a sharded file resumes its own shard — never the
    // other shards' jobs (those belong to the other machines' files).
    let shard = shard_override.or(file.shard).unwrap_or_else(Shard::full);
    let options = CampaignOptions {
        shard,
        results_path: Some(path.to_path_buf()),
        resume: true,
        ..CampaignOptions::in_memory(workers)
    };
    let pool = options.pool();
    let outcome = run_with_prior(&pool, &spec, &options, Some(file));
    pool.shutdown();
    Ok((spec, outcome?))
}

/// The execution core shared by [`run_campaign`], [`run_campaign_on`] and
/// [`resume_from_file`]; `prior_file` is the already-read (and tail-repaired) results
/// file of a resume, `None` for a fresh run.
fn run_with_prior(
    pool: &Pool,
    spec: &CampaignSpec,
    options: &CampaignOptions,
    prior_file: Option<CampaignFile>,
) -> Result<CampaignOutcome, CampaignError> {
    let jobs = spec.expand();
    if jobs.is_empty() {
        return Err(CampaignError::EmptySpec);
    }
    let total = jobs.len();
    let sharded: Vec<CampaignJob> = jobs
        .into_iter()
        .filter(|job| options.shard.contains(job.id))
        .collect();
    let out_of_shard = total - sharded.len();

    // Resume: retain the prior records matching this spec's jobs.
    let prior: BTreeMap<u64, JobRecord> = match &prior_file {
        Some(file) => load_prior_records(file, spec, &sharded)?,
        None => BTreeMap::new(),
    };

    let pending: Vec<CampaignJob> = sharded
        .iter()
        .filter(|job| !prior.contains_key(&job.id))
        .cloned()
        .collect();

    let sink: Arc<Option<ResultSink>> = Arc::new(match options.results_path.as_deref() {
        None => None,
        Some(path) => Some(if prior_file.is_some() {
            ResultSink::append_to_with(path, options.fsync)?
        } else if path.exists() {
            return Err(CampaignError::WouldOverwrite {
                path: path.to_path_buf(),
            });
        } else {
            ResultSink::create_with(path, spec, options.shard, options.fsync)?
        }),
    });

    // Execute on the shared pool, streaming each record to the sink as it lands. The
    // first sink failure (e.g. a full disk) aborts the remaining jobs — results that
    // cannot be persisted are not worth hours of compute — and is surfaced after the
    // batch drains.
    let sink_error: Arc<Mutex<Option<SinkError>>> = Arc::new(Mutex::new(None));
    let abort = Arc::new(AtomicBool::new(false));
    let executed = pending.len();
    crate::obs_metrics::get().queued.add(executed as u64);
    crate::obs_metrics::get().resumed.add(prior.len() as u64);
    let eta = Arc::new(crate::progress::EtaTracker::new(executed, pool.threads()));
    let new_records = {
        let sink = Arc::clone(&sink);
        let sink_error = Arc::clone(&sink_error);
        let abort = Arc::clone(&abort);
        let eta = Arc::clone(&eta);
        let retry = options.retry.clone();
        let cancel = options.cancel.clone();
        pool.run_batch(pending, move |_, job| {
            // A fired campaign token drops queued jobs without a record, so a later
            // resume re-runs them — same contract as a killed process.
            if abort.load(Ordering::Relaxed) || cancel.is_cancelled().is_some() {
                return None;
            }
            let record = crate::progress::run_job_instrumented(
                job.id,
                "flow",
                &eta,
                || execute_job_with_retry(&job, &retry, &cancel),
                |record| matches!(record.outcome, JobOutcome::Failure { .. }),
            );
            // An in-flight job interrupted by the campaign token is also left
            // record-less: persisting its `cancelled` failure would make the resume
            // skip it forever.
            if let JobOutcome::Failure { kind, .. } = &record.outcome {
                if cancel.is_cancelled().is_some() && is_cancellation_kind(kind) {
                    return None;
                }
            }
            if let Some(sink) = sink.as_ref() {
                if let Err(e) = sink.append(&record) {
                    sink_error.lock().expect("sink error slot").get_or_insert(e);
                    abort.store(true, Ordering::Relaxed);
                }
            }
            Some(record)
        })
    };
    if let Some(e) = sink_error.lock().expect("sink error slot").take() {
        return Err(e.into());
    }
    let new_records = new_records.into_iter().flatten();

    let resumed = prior.len();
    let mut records: Vec<JobRecord> = prior.into_values().chain(new_records).collect();
    records.sort_by_key(|r| r.job_id);
    Ok(CampaignOutcome {
        records,
        executed,
        resumed,
        out_of_shard,
        shard: options.shard,
    })
}

/// Validates the prior records of a resumed campaign against the spec's expansion.
fn load_prior_records(
    file: &CampaignFile,
    spec: &CampaignSpec,
    sharded: &[CampaignJob],
) -> Result<BTreeMap<u64, JobRecord>, CampaignError> {
    if let Some(file_spec) = &file.spec {
        if file_spec != spec {
            return Err(CampaignError::SpecMismatch {
                reason: "the file header's spec differs from the requested spec".into(),
            });
        }
    }
    let by_id: BTreeMap<u64, &CampaignJob> = sharded.iter().map(|j| (j.id, j)).collect();
    let mut prior = BTreeMap::new();
    for record in file.records.iter().cloned() {
        match by_id.get(&record.job_id) {
            Some(job) if record_matches(&record, job) => {
                prior.insert(record.job_id, record);
            }
            Some(_) => {
                return Err(CampaignError::SpecMismatch {
                    reason: format!(
                        "record of job {} (benchmark {}, setup {}, seed {}) does not match \
                         the spec's expansion of that id",
                        record.job_id,
                        record.benchmark.name(),
                        record.setup.label(),
                        record.seed
                    ),
                });
            }
            // Records outside this shard (e.g. a file shared by several shards) are fine.
            None => {}
        }
    }
    Ok(prior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_netlist::suite::Benchmark;

    /// A spec small enough for unit tests: one tiny-schedule benchmark, one seed.
    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new(vec![Benchmark::N100], vec![1]);
        for template in [&mut spec.power_aware, &mut spec.tsc_aware] {
            template.schedule.stages = 4;
            template.schedule.moves_per_stage = 8;
            template.schedule.grid_bins = 10;
            template.verification_bins = 10;
        }
        spec
    }

    #[test]
    fn in_memory_campaign_runs_all_jobs() {
        let spec = tiny_spec();
        let outcome = run_campaign(&spec, &CampaignOptions::in_memory(2)).unwrap();
        assert_eq!(outcome.executed, 2);
        assert_eq!(outcome.resumed, 0);
        assert_eq!(outcome.out_of_shard, 0);
        assert_eq!(outcome.records.len(), 2);
        // Records come back sorted by job id and carry the jobs' identities.
        assert_eq!(outcome.records[0].job_id, 0);
        assert_eq!(outcome.records[1].job_id, 1);
    }

    #[test]
    fn empty_spec_is_rejected() {
        let mut spec = tiny_spec();
        spec.seeds.clear();
        let err = run_campaign(&spec, &CampaignOptions::in_memory(1)).unwrap_err();
        assert!(matches!(err, CampaignError::EmptySpec));
    }

    #[test]
    fn existing_file_without_resume_is_refused() {
        let dir = std::env::temp_dir().join("tsc3d-campaign-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("exists-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{}\n").unwrap();
        let mut options = CampaignOptions::in_memory(1);
        options.results_path = Some(path.clone());
        let err = run_campaign(&tiny_spec(), &options).unwrap_err();
        assert!(matches!(err, CampaignError::WouldOverwrite { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
