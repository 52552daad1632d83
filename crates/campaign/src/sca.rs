//! The `sca` campaign job kind: trace-level side-channel evaluations as a first-class,
//! sharded, resumable batch workload.
//!
//! An [`ScaCampaignSpec`] expands benchmarks × design seeds × key seeds × sensor
//! configurations × mitigation on/off into deterministic, individually-seeded
//! [`ScaJob`]s. Each job runs the TSC-aware flow, then mounts the CPA attack of
//! `tsc3d-sca` against the chosen mitigation state of the *same* flow result, and
//! streams an [`ScaJobRecord`] — recovered key bytes, guessing entropy and
//! measurements-to-disclosure — to a self-describing JSONL results file with the same
//! torn-tail-tolerant resume semantics as the flow campaign. The aggregation layer folds
//! records into per-(benchmark, sensor, mitigation) groups and renders an MTD report
//! whose verdict line states whether the dummy-TSV mitigation measurably hurt the
//! attacker, byte-identical across worker counts, shards and resume boundaries.

use crate::codec::{flow_config_from_json, flow_config_to_json, DecodeError};
use crate::engine::{CampaignError, CampaignOptions};
use crate::job::{fnv1a, splitmix64, Shard};
use crate::json::Json;
use crate::retry::{is_cancellation_kind, JobRetryPolicy};
use crate::sink::{repair_torn_tail, SinkError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tsc3d::exec::{CancelToken, Pool};
use tsc3d::{display_chain, FlowConfig, Setup, TscFlow};
use tsc3d_netlist::suite::Benchmark;
use tsc3d_sca::{
    run_on_flow_with_cancel, AttackConfig, LeakageModel, Mitigation, ScaOutcome, SensorConfig,
    TargetPolicy, WorkloadConfig,
};

/// A named sensor configuration — one value of the spec's sensor axis.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaSensorSet {
    /// Label of the sensor set (appears in records and reports).
    pub name: String,
    /// The sensor configuration the attack runs with.
    pub config: SensorConfig,
}

/// The declarative description of an sca campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaCampaignSpec {
    /// Benchmarks (designs) to attack.
    pub benchmarks: Vec<Benchmark>,
    /// Design/flow seeds.
    pub seeds: Vec<u64>,
    /// Key seeds (each derives one secret key).
    pub key_seeds: Vec<u64>,
    /// Sensor configurations to sweep.
    pub sensors: Vec<ScaSensorSet>,
    /// Mitigation states to compare (normally both).
    pub mitigations: Vec<Mitigation>,
    /// The flow template every job floorplans with (TSC-aware, so dummy TSVs exist).
    pub flow: FlowConfig,
    /// The attack template; each job replaces its `sensors` with its sensor set.
    pub attack: AttackConfig,
}

impl ScaCampaignSpec {
    /// A spec over the given benchmarks and seeds with one key, the attack template's
    /// sensor set, and both mitigation states.
    pub fn new(benchmarks: Vec<Benchmark>, seeds: Vec<u64>) -> Self {
        let attack = AttackConfig::quick();
        Self {
            benchmarks,
            seeds,
            key_seeds: vec![11],
            sensors: vec![ScaSensorSet {
                name: "base".to_string(),
                config: attack.sensors,
            }],
            mitigations: vec![Mitigation::Baseline, Mitigation::DummyTsvs],
            flow: FlowConfig::quick(Setup::TscAware),
            attack,
        }
    }

    /// The CI smoke preset: one benchmark/seed whose flow inserts a substantial dummy-TSV
    /// field, two keys, two sensor noise levels, both mitigation states — 8 jobs,
    /// calibrated so the mitigated floorplan shows a strictly higher MTD.
    pub fn smoke() -> Self {
        let attack = AttackConfig::smoke();
        let mut flow = FlowConfig::quick(Setup::TscAware);
        flow.schedule.stages = 8;
        flow.schedule.moves_per_stage = 16;
        flow.schedule.grid_bins = 12;
        flow.verification_bins = 12;
        if let Some(pp) = flow.post_process.as_mut() {
            pp.activity_samples = 8;
            pp.max_insertions = 16;
        }
        let mut quiet = attack.sensors;
        quiet.sigma_k = 0.5;
        let mut noisy = attack.sensors;
        noisy.sigma_k = 0.7;
        Self {
            benchmarks: vec![Benchmark::N100],
            seeds: vec![5],
            key_seeds: vec![11, 12],
            sensors: vec![
                ScaSensorSet {
                    name: "sigma-0.5".to_string(),
                    config: quiet,
                },
                ScaSensorSet {
                    name: "sigma-0.7".to_string(),
                    config: noisy,
                },
            ],
            mitigations: vec![Mitigation::Baseline, Mitigation::DummyTsvs],
            flow,
            attack,
        }
    }

    /// Total number of jobs the spec expands into.
    pub fn job_count(&self) -> usize {
        self.benchmarks.len()
            * self.seeds.len()
            * self.key_seeds.len()
            * self.sensors.len()
            * self.mitigations.len()
    }

    /// Expands the cartesian product into jobs with stable ids (expansion order:
    /// benchmarks, seeds, key seeds, sensors, then mitigations — so a
    /// baseline/mitigated pair on identical inputs sits on adjacent ids).
    pub fn expand(&self) -> Vec<ScaJob> {
        let mut jobs = Vec::with_capacity(self.job_count());
        for &benchmark in &self.benchmarks {
            for &seed in &self.seeds {
                for &key_seed in &self.key_seeds {
                    for sensor in &self.sensors {
                        for &mitigation in &self.mitigations {
                            jobs.push(ScaJob {
                                id: jobs.len() as u64,
                                benchmark,
                                seed,
                                key_seed,
                                sensor: sensor.clone(),
                                mitigation,
                            });
                        }
                    }
                }
            }
        }
        jobs
    }
}

/// One unit of sca campaign work.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaJob {
    /// Stable id: the job's position in the spec's expansion order.
    pub id: u64,
    /// The benchmark whose design the job attacks.
    pub benchmark: Benchmark,
    /// The design/flow seed.
    pub seed: u64,
    /// The key seed (derives the secret key).
    pub key_seed: u64,
    /// The sensor set.
    pub sensor: ScaSensorSet,
    /// Whether the attack sees the dummy-TSV-mitigated floorplan.
    pub mitigation: Mitigation,
}

impl ScaJob {
    /// The flow run seed — derived from benchmark and design seed only, exactly like
    /// [`crate::CampaignJob::run_seed`], so every mitigation/sensor/key scenario attacks
    /// the identical floorplan.
    pub fn run_seed(&self) -> u64 {
        splitmix64(self.seed ^ fnv1a(self.benchmark.name()))
    }

    /// The attack trace seed — derived from the design seed, benchmark and key seed, but
    /// *not* from the sensor set or the mitigation, so the baseline and mitigated jobs
    /// observe identical plaintexts, background traffic and sensor-noise draws (the
    /// paired-comparison property behind the MTD verdict).
    pub fn trace_seed(&self) -> u64 {
        splitmix64(self.run_seed() ^ splitmix64(self.key_seed ^ 0x5CA7))
    }
}

/// The scalar metrics of one successful sca job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaJobMetrics {
    /// Attacked key bytes.
    pub key_bytes: f64,
    /// Recovered key bytes (rank 1).
    pub recovered_bytes: f64,
    /// Measurements to full-key disclosure in traces; `+inf` when the key stays
    /// unrecovered (renders as the `"Infinity"` sentinel).
    pub mtd_traces: f64,
    /// Guessing entropy in bits.
    pub guessing_entropy_bits: f64,
    /// Best absolute correlation of any guess.
    pub best_correlation: f64,
    /// Traces observed.
    pub traces: f64,
    /// Transient kernel lane-steps of the attack: substeps × sensors for the adjoint
    /// engine's one pass (one lane per sensor), independent of the trace count.
    pub transient_steps: f64,
    /// Dummy TSVs of the flow's final plan (0 for baseline jobs by construction of the
    /// attack's TSV fields, but recorded from the flow for context).
    pub dummy_tsvs: f64,
    /// The attacked module index.
    pub target_module: f64,
    /// Job runtime in seconds: the attack, plus the flow when this job was the one that
    /// computed it (flows are memoized per (benchmark, seed) within a campaign run).
    pub runtime_s: f64,
}

impl ScaJobMetrics {
    /// Builds the metrics from an attack outcome.
    pub fn from_outcome(outcome: &ScaOutcome, dummy_tsvs: usize, runtime_s: f64) -> Self {
        Self {
            key_bytes: outcome.key_bytes() as f64,
            recovered_bytes: outcome.recovered_bytes() as f64,
            mtd_traces: outcome
                .mtd_traces()
                .map(|mtd| mtd as f64)
                .unwrap_or(f64::INFINITY),
            guessing_entropy_bits: outcome.guessing_entropy_bits(),
            best_correlation: outcome.best_correlation(),
            traces: outcome.cpa.traces as f64,
            transient_steps: outcome.transient_steps as f64,
            dummy_tsvs: dummy_tsvs as f64,
            target_module: outcome.target_module as f64,
            runtime_s,
        }
    }

    /// Whether the full key was disclosed within the trace budget.
    pub fn disclosed(&self) -> bool {
        self.mtd_traces.is_finite()
    }

    /// Encodes the metrics as a JSON object (also used by the serve daemon's sca
    /// responses).
    pub fn to_json(self) -> Json {
        Json::Obj(vec![
            ("key_bytes".into(), Json::Num(self.key_bytes)),
            ("recovered_bytes".into(), Json::Num(self.recovered_bytes)),
            ("mtd_traces".into(), Json::Num(self.mtd_traces)),
            (
                "guessing_entropy_bits".into(),
                Json::Num(self.guessing_entropy_bits),
            ),
            ("best_correlation".into(), Json::Num(self.best_correlation)),
            ("traces".into(), Json::Num(self.traces)),
            ("transient_steps".into(), Json::Num(self.transient_steps)),
            ("dummy_tsvs".into(), Json::Num(self.dummy_tsvs)),
            ("target_module".into(), Json::Num(self.target_module)),
            ("runtime_s".into(), Json::Num(self.runtime_s)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, DecodeError> {
        let num = |key: &str| -> Result<f64, DecodeError> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| DecodeError(format!("sca metrics field '{key}' missing")))
        };
        Ok(Self {
            key_bytes: num("key_bytes")?,
            recovered_bytes: num("recovered_bytes")?,
            mtd_traces: num("mtd_traces")?,
            guessing_entropy_bits: num("guessing_entropy_bits")?,
            best_correlation: num("best_correlation")?,
            traces: num("traces")?,
            transient_steps: num("transient_steps")?,
            dummy_tsvs: num("dummy_tsvs")?,
            target_module: num("target_module")?,
            runtime_s: num("runtime_s")?,
        })
    }
}

/// How an sca job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaJobOutcome {
    /// The flow and attack completed.
    Success(ScaJobMetrics),
    /// The flow or the attack failed with a typed error.
    Failure {
        /// Stable kind tag (`flow-…` or `sca-…`), the aggregation key.
        kind: String,
        /// Full error chain for the failure log.
        message: String,
    },
}

/// One line of the sca results file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaJobRecord {
    /// The job's stable id within its spec.
    pub job_id: u64,
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The design/flow seed.
    pub seed: u64,
    /// The key seed.
    pub key_seed: u64,
    /// The sensor-set name.
    pub sensor_name: String,
    /// The mitigation state.
    pub mitigation: Mitigation,
    /// Success metrics or typed failure.
    pub outcome: ScaJobOutcome,
}

impl ScaJobRecord {
    /// `true` for a successful job.
    pub fn is_success(&self) -> bool {
        matches!(self.outcome, ScaJobOutcome::Success(_))
    }

    /// The metrics of a successful job.
    pub fn metrics(&self) -> Option<&ScaJobMetrics> {
        match &self.outcome {
            ScaJobOutcome::Success(metrics) => Some(metrics),
            ScaJobOutcome::Failure { .. } => None,
        }
    }

    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut members = vec![
            ("job_id".to_string(), Json::UInt(self.job_id)),
            (
                "benchmark".to_string(),
                Json::Str(self.benchmark.name().to_string()),
            ),
            ("seed".to_string(), Json::UInt(self.seed)),
            ("key_seed".to_string(), Json::UInt(self.key_seed)),
            ("sensor".to_string(), Json::Str(self.sensor_name.clone())),
            (
                "mitigation".to_string(),
                Json::Str(self.mitigation.label().to_string()),
            ),
        ];
        match &self.outcome {
            ScaJobOutcome::Success(metrics) => {
                members.push(("status".into(), Json::Str("ok".into())));
                members.push(("metrics".into(), metrics.to_json()));
            }
            ScaJobOutcome::Failure { kind, message } => {
                members.push(("status".into(), Json::Str("failed".into())));
                members.push(("error_kind".into(), Json::Str(kind.clone())));
                members.push(("error".into(), Json::Str(message.clone())));
            }
        }
        Json::Obj(members).render()
    }

    /// Parses one JSONL line.
    pub fn from_json(value: &Json) -> Result<Self, DecodeError> {
        let u64_of = |key: &str| -> Result<u64, DecodeError> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| DecodeError(format!("sca record is missing '{key}'")))
        };
        let str_of = |key: &str| -> Result<&str, DecodeError> {
            value
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| DecodeError(format!("sca record is missing '{key}'")))
        };
        let benchmark = Benchmark::from_name(str_of("benchmark")?)
            .ok_or_else(|| DecodeError("unknown benchmark in sca record".into()))?;
        let mitigation = Mitigation::from_label(str_of("mitigation")?)
            .ok_or_else(|| DecodeError("unknown mitigation label in sca record".into()))?;
        let outcome = match str_of("status")? {
            "ok" => ScaJobOutcome::Success(ScaJobMetrics::from_json(
                value
                    .get("metrics")
                    .ok_or_else(|| DecodeError("ok sca record is missing 'metrics'".into()))?,
            )?),
            "failed" => ScaJobOutcome::Failure {
                kind: value
                    .get("error_kind")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: value
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            },
            other => return Err(DecodeError(format!("unknown sca record status '{other}'"))),
        };
        Ok(Self {
            job_id: u64_of("job_id")?,
            benchmark,
            seed: u64_of("seed")?,
            key_seed: u64_of("key_seed")?,
            sensor_name: str_of("sensor")?.to_string(),
            mitigation,
            outcome,
        })
    }
}

// --- Spec codec -------------------------------------------------------------------

fn sensor_config_to_json(config: &SensorConfig) -> Json {
    Json::Obj(vec![
        ("die".into(), Json::UInt(config.die as u64)),
        (
            "sensors_per_axis".into(),
            Json::UInt(config.sensors_per_axis as u64),
        ),
        (
            "samples_per_trace".into(),
            Json::UInt(config.samples_per_trace as u64),
        ),
        ("dwell_s".into(), Json::Num(config.dwell_s)),
        ("sigma_k".into(), Json::Num(config.sigma_k)),
        ("quantization_k".into(), Json::Num(config.quantization_k)),
    ])
}

fn num_field(value: &Json, key: &str) -> Result<f64, DecodeError> {
    match value.get(key) {
        Some(Json::Num(x)) => Ok(*x),
        Some(Json::UInt(u)) => Ok(*u as f64),
        _ => Err(DecodeError(format!("sca field '{key}' is not a number"))),
    }
}

fn usize_field(value: &Json, key: &str) -> Result<usize, DecodeError> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .map(|u| u as usize)
        .ok_or_else(|| DecodeError(format!("sca field '{key}' is not an integer")))
}

fn str_field<'a>(value: &'a Json, key: &str) -> Result<&'a str, DecodeError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| DecodeError(format!("sca field '{key}' is not a string")))
}

/// Decodes a sensor configuration (the inverse of the encoding in sca spec headers and
/// serve submissions).
pub fn sensor_config_from_json(value: &Json) -> Result<SensorConfig, DecodeError> {
    Ok(SensorConfig {
        die: usize_field(value, "die")?,
        sensors_per_axis: usize_field(value, "sensors_per_axis")?,
        samples_per_trace: usize_field(value, "samples_per_trace")?,
        dwell_s: num_field(value, "dwell_s")?,
        sigma_k: num_field(value, "sigma_k")?,
        quantization_k: num_field(value, "quantization_k")?,
    })
}

/// Encodes an attack configuration (used in spec headers and serve submissions).
pub fn attack_config_to_json(config: &AttackConfig) -> Json {
    Json::Obj(vec![
        ("grid_bins".into(), Json::UInt(config.grid_bins as u64)),
        ("traces".into(), Json::UInt(config.traces as u64)),
        ("target".into(), Json::Str(config.target.label())),
        (
            "key_bytes".into(),
            Json::UInt(config.workload.key_bytes as u64),
        ),
        (
            "leakage".into(),
            Json::Str(config.workload.leakage.label().to_string()),
        ),
        (
            "watts_per_hw".into(),
            Json::Num(config.workload.watts_per_hw),
        ),
        (
            "background_sigma".into(),
            Json::Num(config.workload.background_sigma),
        ),
        ("sensors".into(), sensor_config_to_json(&config.sensors)),
        (
            "mtd_checkpoints".into(),
            Json::UInt(config.mtd_checkpoints as u64),
        ),
    ])
}

/// Decodes an attack configuration.
pub fn attack_config_from_json(value: &Json) -> Result<AttackConfig, DecodeError> {
    let target_label = str_field(value, "target")?;
    let leakage_label = str_field(value, "leakage")?;
    Ok(AttackConfig {
        grid_bins: usize_field(value, "grid_bins")?,
        traces: usize_field(value, "traces")?,
        target: TargetPolicy::from_label(target_label)
            .ok_or_else(|| DecodeError(format!("unknown target policy '{target_label}'")))?,
        workload: WorkloadConfig {
            key_bytes: usize_field(value, "key_bytes")?,
            leakage: LeakageModel::from_label(leakage_label)
                .ok_or_else(|| DecodeError(format!("unknown leakage model '{leakage_label}'")))?,
            watts_per_hw: num_field(value, "watts_per_hw")?,
            background_sigma: num_field(value, "background_sigma")?,
        },
        sensors: sensor_config_from_json(
            value
                .get("sensors")
                .ok_or_else(|| DecodeError("sca attack config is missing 'sensors'".into()))?,
        )?,
        mtd_checkpoints: usize_field(value, "mtd_checkpoints")?,
    })
}

/// Encodes an sca campaign spec (the content of an sca results-file header).
pub fn sca_spec_to_json(spec: &ScaCampaignSpec) -> Json {
    Json::Obj(vec![
        (
            "benchmarks".into(),
            Json::Arr(
                spec.benchmarks
                    .iter()
                    .map(|b| Json::Str(b.name().to_string()))
                    .collect(),
            ),
        ),
        (
            "seeds".into(),
            Json::Arr(spec.seeds.iter().map(|&s| Json::UInt(s)).collect()),
        ),
        (
            "key_seeds".into(),
            Json::Arr(spec.key_seeds.iter().map(|&s| Json::UInt(s)).collect()),
        ),
        (
            "sensors".into(),
            Json::Arr(
                spec.sensors
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(s.name.clone())),
                            ("config".into(), sensor_config_to_json(&s.config)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "mitigations".into(),
            Json::Arr(
                spec.mitigations
                    .iter()
                    .map(|m| Json::Str(m.label().to_string()))
                    .collect(),
            ),
        ),
        ("flow".into(), flow_config_to_json(&spec.flow)),
        ("attack".into(), attack_config_to_json(&spec.attack)),
    ])
}

/// Decodes an sca campaign spec.
pub fn sca_spec_from_json(value: &Json) -> Result<ScaCampaignSpec, DecodeError> {
    let arr = |key: &str| -> Result<&[Json], DecodeError> {
        value
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| DecodeError(format!("sca spec field '{key}' is not an array")))
    };
    let seeds = |key: &str| -> Result<Vec<u64>, DecodeError> {
        arr(key)?
            .iter()
            .map(|s| {
                s.as_u64()
                    .ok_or_else(|| DecodeError(format!("sca spec '{key}' entry is not an integer")))
            })
            .collect()
    };
    Ok(ScaCampaignSpec {
        benchmarks: arr("benchmarks")?
            .iter()
            .map(|b| {
                b.as_str()
                    .and_then(Benchmark::from_name)
                    .ok_or_else(|| DecodeError("unknown benchmark in sca spec".into()))
            })
            .collect::<Result<_, _>>()?,
        seeds: seeds("seeds")?,
        key_seeds: seeds("key_seeds")?,
        sensors: arr("sensors")?
            .iter()
            .map(|s| {
                Ok(ScaSensorSet {
                    name: str_field(s, "name")?.to_string(),
                    config: sensor_config_from_json(
                        s.get("config")
                            .ok_or_else(|| DecodeError("sensor set is missing 'config'".into()))?,
                    )?,
                })
            })
            .collect::<Result<_, _>>()?,
        mitigations: arr("mitigations")?
            .iter()
            .map(|m| {
                m.as_str()
                    .and_then(Mitigation::from_label)
                    .ok_or_else(|| DecodeError("unknown mitigation in sca spec".into()))
            })
            .collect::<Result<_, _>>()?,
        flow: flow_config_from_json(
            value
                .get("flow")
                .ok_or_else(|| DecodeError("sca spec is missing 'flow'".into()))?,
        )?,
        attack: attack_config_from_json(
            value
                .get("attack")
                .ok_or_else(|| DecodeError("sca spec is missing 'attack'".into()))?,
        )?,
    })
}

// --- Execution --------------------------------------------------------------------

/// The per-(benchmark, seed) flow product shared by every job of that group.
struct FlowProduct {
    design: tsc3d_netlist::Design,
    /// The flow result, or its typed failure as `(kind, message)`.
    flow: Result<tsc3d::FlowResult, (String, String)>,
}

/// Memo of flow results within one campaign run: [`ScaJob::run_seed`] depends only on
/// (benchmark, seed), so the key/sensor/mitigation axes all attack the *identical*
/// floorplan — computing it once per group keeps the 8-job smoke from re-annealing the
/// same design 8 times. Per-group mutexes let distinct groups anneal in parallel while
/// same-group jobs wait for (and then share) the first computation.
/// One lazily filled, independently lockable cache slot.
type FlowSlot = Arc<Mutex<Option<Arc<FlowProduct>>>>;

#[derive(Default)]
pub(crate) struct FlowCache {
    slots: Mutex<std::collections::HashMap<(Benchmark, u64), FlowSlot>>,
}

impl FlowCache {
    fn get(&self, spec: &ScaCampaignSpec, job: &ScaJob) -> Arc<FlowProduct> {
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("flow cache index")
                .entry((job.benchmark, job.seed))
                .or_default(),
        );
        // Same-group jobs block here while the first one runs the flow.
        let mut guard = {
            let _span = tsc3d_obs::span!("flow_cache_wait");
            slot.lock().expect("flow cache slot")
        };
        if let Some(product) = guard.as_ref() {
            return Arc::clone(product);
        }
        let design = tsc3d_netlist::suite::generate(job.benchmark, job.seed);
        let flow = TscFlow::new(spec.flow)
            .run(&design, job.run_seed())
            .map_err(|error| (format!("flow-{}", error.kind()), display_chain(&error)));
        let product = Arc::new(FlowProduct { design, flow });
        *guard = Some(Arc::clone(&product));
        product
    }
}

/// Executes one sca job: flow (or its memoized result), then the attack against the
/// job's mitigation state. `runtime_s` covers the work this job actually performed — the
/// flow is included only for the job that computed it.
pub fn execute_sca_job(spec: &ScaCampaignSpec, job: &ScaJob) -> ScaJobRecord {
    execute_with_flows(spec, job, &FlowCache::default(), &CancelToken::new())
}

fn execute_with_flows(
    spec: &ScaCampaignSpec,
    job: &ScaJob,
    flows: &FlowCache,
    cancel: &CancelToken,
) -> ScaJobRecord {
    let _span = tsc3d_obs::span!("campaign_sca_job");
    let metrics = crate::obs_metrics::get();
    let running = crate::obs_metrics::RunningGuard::enter();
    let started = std::time::Instant::now();
    // The memoized flow is a shared product (other jobs of the same (benchmark, seed)
    // group attack it), so it runs uncancellable; only this job's own attack polls the
    // token at the `sca-batch` checkpoint.
    let product = flows.get(spec, job);
    let outcome = match &product.flow {
        Err((kind, message)) => ScaJobOutcome::Failure {
            kind: kind.clone(),
            message: message.clone(),
        },
        Ok(flow) => {
            let mut attack = spec.attack;
            attack.sensors = job.sensor.config;
            match run_on_flow_with_cancel(
                &product.design,
                flow,
                &attack,
                job.trace_seed(),
                job.key_seed,
                job.mitigation,
                None,
                cancel,
            ) {
                Err(error) => ScaJobOutcome::Failure {
                    kind: error.kind().to_string(),
                    message: display_chain(&error),
                },
                Ok(outcome) => ScaJobOutcome::Success(ScaJobMetrics::from_outcome(
                    &outcome,
                    flow.dummy_tsvs(),
                    started.elapsed().as_secs_f64(),
                )),
            }
        }
    };
    drop(running);
    metrics.done.inc();
    if let ScaJobOutcome::Failure { kind, .. } = &outcome {
        crate::obs_metrics::record_failure(kind);
    }
    ScaJobRecord {
        job_id: job.id,
        benchmark: job.benchmark,
        seed: job.seed,
        key_seed: job.key_seed,
        sensor_name: job.sensor.name.clone(),
        mitigation: job.mitigation,
        outcome,
    }
}

/// [`execute_sca_job`] under a [`JobRetryPolicy`]: panics are contained as typed `panic`
/// failures, retryable kinds re-run with seeded backoff, and the final record is returned
/// once the job succeeds or exhausts its attempts (quarantine).
pub(crate) fn execute_sca_with_retry(
    spec: &ScaCampaignSpec,
    job: &ScaJob,
    flows: &FlowCache,
    policy: &JobRetryPolicy,
    cancel: &CancelToken,
) -> ScaJobRecord {
    let (record, _attempts) = crate::retry::run_attempts(
        policy,
        job.run_seed(),
        cancel,
        |token| execute_with_flows(spec, job, flows, token),
        |record| match &record.outcome {
            ScaJobOutcome::Failure { kind, .. } => Some(kind.clone()),
            ScaJobOutcome::Success(_) => None,
        },
        |message| {
            crate::obs_metrics::record_failure("panic");
            ScaJobRecord {
                job_id: job.id,
                benchmark: job.benchmark,
                seed: job.seed,
                key_seed: job.key_seed,
                sensor_name: job.sensor.name.clone(),
                mitigation: job.mitigation,
                outcome: ScaJobOutcome::Failure {
                    kind: "panic".to_string(),
                    message,
                },
            }
        },
    );
    record
}

// --- Results file -----------------------------------------------------------------

/// The parsed content of an sca results file.
#[derive(Debug)]
pub struct ScaCampaignFile {
    /// The spec from the header line, when present.
    pub spec: Option<ScaCampaignSpec>,
    /// The shard recorded in the header, when present.
    pub shard: Option<Shard>,
    /// All intact records, in file order.
    pub records: Vec<ScaJobRecord>,
    /// Whether a torn (unterminated) final line was ignored.
    pub truncated_tail: bool,
}

/// Reads an sca results file, tolerating a torn final line (same contract as
/// [`crate::read_campaign_file`]; the header key is `sca_campaign`).
///
/// # Errors
///
/// Returns [`SinkError`] on I/O failures or interior corruption.
pub fn read_sca_file(path: &Path) -> Result<ScaCampaignFile, SinkError> {
    let content = std::fs::read_to_string(path).map_err(|e| SinkError::Io {
        path: path.to_path_buf(),
        source: e,
    })?;
    let has_torn_tail = !content.is_empty() && !content.ends_with('\n');
    let lines: Vec<&str> = content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mut spec = None;
    let mut shard = None;
    let mut records = Vec::new();
    let mut truncated_tail = false;
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.iter().enumerate() {
        let parsed: Result<(), String> = match Json::parse(line) {
            Err(e) => Err(e.to_string()),
            Ok(value) => {
                if let Some(header) = value.get("sca_campaign") {
                    if i != 0 {
                        return Err(SinkError::Corrupt {
                            path: path.to_path_buf(),
                            line: i + 1,
                            reason: "sca campaign header not on the first line".into(),
                        });
                    }
                    match sca_spec_from_json(header) {
                        Ok(parsed_spec) => {
                            spec = Some(parsed_spec);
                            shard = value
                                .get("shard")
                                .and_then(Json::as_str)
                                .and_then(Shard::parse);
                            Ok(())
                        }
                        Err(e) => Err(e.to_string()),
                    }
                } else {
                    match ScaJobRecord::from_json(&value) {
                        Ok(record) => {
                            records.push(record);
                            Ok(())
                        }
                        Err(e) => Err(e.to_string()),
                    }
                }
            }
        };
        match parsed {
            Ok(()) => {}
            Err(_) if i == last && has_torn_tail => truncated_tail = true,
            Err(reason) => {
                return Err(SinkError::Corrupt {
                    path: path.to_path_buf(),
                    line: i + 1,
                    reason,
                })
            }
        }
    }
    Ok(ScaCampaignFile {
        spec,
        shard,
        records,
        truncated_tail,
    })
}

/// A thread-safe appending writer of the sca results file (the sca analogue of
/// [`crate::ResultSink`]).
#[derive(Debug)]
pub struct ScaResultSink {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
    fsync: bool,
}

impl ScaResultSink {
    /// Creates the file and writes the `sca_campaign` header line. The header is
    /// installed atomically (temp file + fsync + rename), so a crash during creation
    /// cannot leave a torn header behind.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] on I/O failure.
    pub fn create(path: &Path, spec: &ScaCampaignSpec, shard: Shard) -> Result<Self, SinkError> {
        Self::create_with(path, spec, shard, false)
    }

    /// [`ScaResultSink::create`] with optional per-line fsync durability.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] on I/O failure.
    pub fn create_with(
        path: &Path,
        spec: &ScaCampaignSpec,
        shard: Shard,
        fsync: bool,
    ) -> Result<Self, SinkError> {
        let header = Json::Obj(vec![
            ("sca_campaign".into(), sca_spec_to_json(spec)),
            ("shard".into(), Json::Str(shard.to_string())),
        ])
        .render();
        crate::sink::write_header_atomically(path, &header)?;
        Self::append_to_with(path, fsync)
    }

    /// Opens an existing file for appending (the resume path).
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] on I/O failure.
    pub fn append_to(path: &Path) -> Result<Self, SinkError> {
        Self::append_to_with(path, false)
    }

    /// [`ScaResultSink::append_to`] with optional per-line fsync durability.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] on I/O failure.
    pub fn append_to_with(path: &Path, fsync: bool) -> Result<Self, SinkError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| SinkError::Io {
                path: path.to_path_buf(),
                source: e,
            })?;
        Ok(Self {
            path: path.to_path_buf(),
            writer: Mutex::new(BufWriter::new(file)),
            fsync,
        })
    }

    /// Appends one record and flushes (plus fsyncs, when enabled).
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] on I/O failure.
    pub fn append(&self, record: &ScaJobRecord) -> Result<(), SinkError> {
        self.append_line(&record.to_json_line())
    }

    fn append_line(&self, line: &str) -> Result<(), SinkError> {
        let mut writer = self.writer.lock().expect("sca sink writer poisoned");
        writeln!(writer, "{line}")
            .and_then(|()| writer.flush())
            .and_then(|()| {
                if self.fsync {
                    writer.get_ref().sync_data()
                } else {
                    Ok(())
                }
            })
            .map_err(|e| SinkError::Io {
                path: self.path.clone(),
                source: e,
            })
    }
}

// --- Engine -----------------------------------------------------------------------

/// Outcome of an sca campaign run.
#[derive(Debug)]
pub struct ScaCampaignOutcome {
    /// All records of this shard — prior (resumed) and newly executed — sorted by job id.
    pub records: Vec<ScaJobRecord>,
    /// Jobs executed by this run.
    pub executed: usize,
    /// Jobs skipped because the results file already had their record.
    pub resumed: usize,
    /// Jobs outside this shard.
    pub out_of_shard: usize,
    /// The shard the run actually executed.
    pub shard: Shard,
}

/// Runs (or resumes) an sca campaign on an internally managed pool.
///
/// # Errors
///
/// Same contract as [`crate::run_campaign`].
pub fn run_sca_campaign(
    spec: &ScaCampaignSpec,
    options: &CampaignOptions,
) -> Result<ScaCampaignOutcome, CampaignError> {
    let pool = Pool::with_batch_workers(options.workers);
    let outcome = run_sca_campaign_on(&pool, spec, options);
    pool.shutdown();
    outcome
}

/// [`run_sca_campaign`] on a caller-provided (typically shared) pool.
///
/// # Errors
///
/// Same contract as [`crate::run_campaign`].
pub fn run_sca_campaign_on(
    pool: &Pool,
    spec: &ScaCampaignSpec,
    options: &CampaignOptions,
) -> Result<ScaCampaignOutcome, CampaignError> {
    let prior_file = match options.results_path.as_deref() {
        Some(path) if options.resume && path.exists() => {
            repair_torn_tail(path)?;
            Some(read_sca_file(path)?)
        }
        _ => None,
    };
    let mut options = options.clone();
    if options.shard == Shard::full() {
        if let Some(file_shard) = prior_file.as_ref().and_then(|f| f.shard) {
            options.shard = file_shard;
        }
    }
    run_sca_with_prior(pool, spec, &options, prior_file)
}

/// Resumes an sca campaign from its self-describing results file.
///
/// # Errors
///
/// Same contract as [`crate::resume_from_file`].
pub fn resume_sca_from_file(
    path: &Path,
    workers: usize,
    shard_override: Option<Shard>,
) -> Result<(ScaCampaignSpec, ScaCampaignOutcome), CampaignError> {
    repair_torn_tail(path)?;
    let file = read_sca_file(path)?;
    let spec = file
        .spec
        .clone()
        .ok_or_else(|| CampaignError::SpecMismatch {
            reason: format!("{} has no sca campaign header", path.display()),
        })?;
    let shard = shard_override.or(file.shard).unwrap_or_else(Shard::full);
    let options = CampaignOptions {
        shard,
        results_path: Some(path.to_path_buf()),
        resume: true,
        ..CampaignOptions::in_memory(workers)
    };
    let pool = Pool::with_batch_workers(workers);
    let outcome = run_sca_with_prior(&pool, &spec, &options, Some(file));
    pool.shutdown();
    Ok((spec, outcome?))
}

fn record_matches(record: &ScaJobRecord, job: &ScaJob) -> bool {
    record.benchmark == job.benchmark
        && record.seed == job.seed
        && record.key_seed == job.key_seed
        && record.sensor_name == job.sensor.name
        && record.mitigation == job.mitigation
}

fn run_sca_with_prior(
    pool: &Pool,
    spec: &ScaCampaignSpec,
    options: &CampaignOptions,
    prior_file: Option<ScaCampaignFile>,
) -> Result<ScaCampaignOutcome, CampaignError> {
    let jobs = spec.expand();
    if jobs.is_empty() {
        return Err(CampaignError::EmptySpec);
    }
    let total = jobs.len();
    let sharded: Vec<ScaJob> = jobs
        .into_iter()
        .filter(|job| options.shard.contains(job.id))
        .collect();
    let out_of_shard = total - sharded.len();

    let prior: BTreeMap<u64, ScaJobRecord> = match &prior_file {
        Some(file) => {
            if let Some(file_spec) = &file.spec {
                if file_spec != spec {
                    return Err(CampaignError::SpecMismatch {
                        reason: "the sca file header's spec differs from the requested spec".into(),
                    });
                }
            }
            let by_id: BTreeMap<u64, &ScaJob> = sharded.iter().map(|j| (j.id, j)).collect();
            let mut prior = BTreeMap::new();
            for record in file.records.iter().cloned() {
                match by_id.get(&record.job_id) {
                    Some(job) if record_matches(&record, job) => {
                        prior.insert(record.job_id, record);
                    }
                    Some(_) => {
                        return Err(CampaignError::SpecMismatch {
                            reason: format!(
                                "sca record of job {} does not match the spec's expansion of \
                                 that id",
                                record.job_id
                            ),
                        });
                    }
                    None => {}
                }
            }
            prior
        }
        None => BTreeMap::new(),
    };

    let pending: Vec<ScaJob> = sharded
        .iter()
        .filter(|job| !prior.contains_key(&job.id))
        .cloned()
        .collect();

    let sink: Arc<Option<ScaResultSink>> = Arc::new(match options.results_path.as_deref() {
        None => None,
        Some(path) => Some(if prior_file.is_some() {
            ScaResultSink::append_to_with(path, options.fsync)?
        } else if path.exists() {
            return Err(CampaignError::WouldOverwrite {
                path: path.to_path_buf(),
            });
        } else {
            ScaResultSink::create_with(path, spec, options.shard, options.fsync)?
        }),
    });

    let sink_error: Arc<Mutex<Option<SinkError>>> = Arc::new(Mutex::new(None));
    let abort = Arc::new(AtomicBool::new(false));
    let executed = pending.len();
    crate::obs_metrics::get().queued.add(executed as u64);
    crate::obs_metrics::get().resumed.add(prior.len() as u64);
    let spec_for_jobs = Arc::new(spec.clone());
    let flows = Arc::new(FlowCache::default());
    let eta = Arc::new(crate::progress::EtaTracker::new(executed, pool.threads()));
    let new_records = {
        let sink = Arc::clone(&sink);
        let sink_error = Arc::clone(&sink_error);
        let abort = Arc::clone(&abort);
        let spec = Arc::clone(&spec_for_jobs);
        let flows = Arc::clone(&flows);
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
                "sca",
                &eta,
                || execute_sca_with_retry(&spec, &job, &flows, &retry, &cancel),
                |record| matches!(record.outcome, ScaJobOutcome::Failure { .. }),
            );
            // An in-flight job interrupted by the campaign token is also left
            // record-less: persisting its `cancelled` failure would make the resume
            // skip it forever.
            if let ScaJobOutcome::Failure { kind, .. } = &record.outcome {
                if cancel.is_cancelled().is_some() && is_cancellation_kind(kind) {
                    return None;
                }
            }
            if let Some(sink) = sink.as_ref() {
                if let Err(e) = sink.append(&record) {
                    sink_error
                        .lock()
                        .expect("sca sink error slot")
                        .get_or_insert(e);
                    abort.store(true, Ordering::Relaxed);
                }
            }
            Some(record)
        })
    };
    if let Some(e) = sink_error.lock().expect("sca sink error slot").take() {
        return Err(e.into());
    }

    let resumed = prior.len();
    let mut records: Vec<ScaJobRecord> = prior
        .into_values()
        .chain(new_records.into_iter().flatten())
        .collect();
    records.sort_by_key(|r| r.job_id);
    Ok(ScaCampaignOutcome {
        records,
        executed,
        resumed,
        out_of_shard,
        shard: options.shard,
    })
}

// --- Aggregation ------------------------------------------------------------------

/// Aggregated results of one (benchmark, sensor, mitigation) group.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaGroupSummary {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The sensor-set name.
    pub sensor_name: String,
    /// The mitigation state.
    pub mitigation: Mitigation,
    /// Total jobs recorded.
    pub jobs: usize,
    /// Successful jobs.
    pub succeeded: usize,
    /// Jobs whose full key was disclosed within the trace budget.
    pub disclosed: usize,
    /// Failure counts keyed by error kind.
    pub failures: BTreeMap<String, usize>,
    /// MTD statistics over the *disclosed* jobs (traces).
    pub mtd: crate::aggregate::Stat,
    /// Recovered-key-bytes statistics over successful jobs.
    pub recovered_bytes: crate::aggregate::Stat,
    /// Guessing-entropy statistics over successful jobs (bits).
    pub guessing_entropy_bits: crate::aggregate::Stat,
    /// Best-correlation statistics over successful jobs.
    pub best_correlation: crate::aggregate::Stat,
    /// Dummy-TSV counts of the underlying flows.
    pub dummy_tsvs: crate::aggregate::Stat,
    /// Transient grid steps per job.
    pub transient_steps: crate::aggregate::Stat,
    /// Job runtimes in seconds.
    pub runtime_s: crate::aggregate::Stat,
    /// Trace-simulation throughput of the group: total simulated traces over total job
    /// runtime (0 when no successful job recorded runtime). Runtime includes the flow
    /// for the one job per (benchmark, seed) that computed it, so this is a conservative
    /// floor on the batched trace engine's rate.
    pub traces_per_sec: f64,
}

/// The full sca campaign aggregation, in first-seen job-id group order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScaCampaignSummary {
    /// The group summaries.
    pub groups: Vec<ScaGroupSummary>,
}

impl ScaCampaignSummary {
    /// Looks up a group.
    pub fn group(
        &self,
        benchmark: Benchmark,
        sensor_name: &str,
        mitigation: Mitigation,
    ) -> Option<&ScaGroupSummary> {
        self.groups.iter().find(|g| {
            g.benchmark == benchmark && g.sensor_name == sensor_name && g.mitigation == mitigation
        })
    }

    /// The MTD verdict of a benchmark/sensor pair: `Some(true)` when the mitigated group
    /// measurably hurt the attacker (more undisclosed keys, or a strictly higher mean MTD
    /// over disclosed jobs), `Some(false)` when not, `None` when either side is missing
    /// or has no successful jobs.
    pub fn mitigation_verdict(&self, benchmark: Benchmark, sensor_name: &str) -> Option<bool> {
        let baseline = self.group(benchmark, sensor_name, Mitigation::Baseline)?;
        let mitigated = self.group(benchmark, sensor_name, Mitigation::DummyTsvs)?;
        if baseline.succeeded == 0 || mitigated.succeeded == 0 {
            return None;
        }
        let baseline_undisclosed = baseline.succeeded - baseline.disclosed;
        let mitigated_undisclosed = mitigated.succeeded - mitigated.disclosed;
        if mitigated_undisclosed != baseline_undisclosed {
            return Some(mitigated_undisclosed > baseline_undisclosed);
        }
        if mitigated.disclosed == 0 {
            // Neither side disclosed anything: the mitigation cannot be credited.
            return Some(false);
        }
        Some(mitigated.mtd.mean > baseline.mtd.mean)
    }

    /// Total records aggregated.
    pub fn jobs(&self) -> usize {
        self.groups.iter().map(|g| g.jobs).sum()
    }

    /// Total successful records.
    pub fn succeeded(&self) -> usize {
        self.groups.iter().map(|g| g.succeeded).sum()
    }

    /// Campaign-wide trace-simulation throughput: total simulated traces over total
    /// recorded job runtime (0 without any successful record).
    pub fn traces_per_sec(&self) -> f64 {
        let mut traces = 0.0;
        let mut runtime = 0.0;
        for group in &self.groups {
            // Reconstruct the group sums from the stat means (count × mean).
            let group_runtime = group.runtime_s.mean * group.runtime_s.count as f64;
            runtime += group_runtime;
            traces += group.traces_per_sec * group_runtime;
        }
        if runtime > 0.0 {
            traces / runtime
        } else {
            0.0
        }
    }
}

/// Aggregates sca records into group summaries (input-order independent: records are
/// sorted by job id internally).
pub fn aggregate_sca(records: &[ScaJobRecord]) -> ScaCampaignSummary {
    use crate::aggregate::Stat;
    let mut sorted: Vec<&ScaJobRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.job_id);

    let mut order: Vec<(Benchmark, String, Mitigation)> = Vec::new();
    let mut buckets: BTreeMap<usize, Vec<&ScaJobRecord>> = BTreeMap::new();
    for record in sorted {
        let key = (
            record.benchmark,
            record.sensor_name.clone(),
            record.mitigation,
        );
        let index = match order.iter().position(|k| *k == key) {
            Some(index) => index,
            None => {
                order.push(key);
                order.len() - 1
            }
        };
        buckets.entry(index).or_default().push(record);
    }

    let groups = order
        .into_iter()
        .enumerate()
        .map(|(index, (benchmark, sensor_name, mitigation))| {
            let records = buckets.remove(&index).unwrap_or_default();
            let mut failures: BTreeMap<String, usize> = BTreeMap::new();
            let metrics: Vec<&ScaJobMetrics> = records
                .iter()
                .filter_map(|r| match &r.outcome {
                    ScaJobOutcome::Success(m) => Some(m),
                    ScaJobOutcome::Failure { kind, .. } => {
                        *failures.entry(kind.clone()).or_insert(0) += 1;
                        None
                    }
                })
                .collect();
            let stat = |extract: fn(&ScaJobMetrics) -> f64| -> Stat {
                let values: Vec<f64> = metrics.iter().map(|m| extract(m)).collect();
                Stat::of(&values)
            };
            let disclosed_mtds: Vec<f64> = metrics
                .iter()
                .filter(|m| m.disclosed())
                .map(|m| m.mtd_traces)
                .collect();
            let total_traces: f64 = metrics.iter().map(|m| m.traces).sum();
            let total_runtime: f64 = metrics.iter().map(|m| m.runtime_s).sum();
            let traces_per_sec = if total_runtime > 0.0 {
                total_traces / total_runtime
            } else {
                0.0
            };
            ScaGroupSummary {
                benchmark,
                sensor_name,
                mitigation,
                jobs: records.len(),
                succeeded: metrics.len(),
                disclosed: disclosed_mtds.len(),
                failures,
                mtd: Stat::of(&disclosed_mtds),
                recovered_bytes: stat(|m| m.recovered_bytes),
                guessing_entropy_bits: stat(|m| m.guessing_entropy_bits),
                best_correlation: stat(|m| m.best_correlation),
                dummy_tsvs: stat(|m| m.dummy_tsvs),
                transient_steps: stat(|m| m.transient_steps),
                runtime_s: stat(|m| m.runtime_s),
                traces_per_sec,
            }
        })
        .collect();
    ScaCampaignSummary { groups }
}

/// Renders the sca campaign report: one block per benchmark/sensor with a line per
/// mitigation state and the MTD verdict.
pub fn render_sca_report(summary: &ScaCampaignSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sca campaign report — {} jobs, {} ok, {} failed, {:.0} traces/s",
        summary.jobs(),
        summary.succeeded(),
        summary.jobs() - summary.succeeded(),
        summary.traces_per_sec()
    );

    let mut blocks: Vec<(Benchmark, String)> = Vec::new();
    for group in &summary.groups {
        let key = (group.benchmark, group.sensor_name.clone());
        if !blocks.contains(&key) {
            blocks.push(key);
        }
    }

    for (benchmark, sensor_name) in blocks {
        let _ = writeln!(out, "\n=== {} · {} ===", benchmark.name(), sensor_name);
        for group in summary
            .groups
            .iter()
            .filter(|g| g.benchmark == benchmark && g.sensor_name == sensor_name)
        {
            let undisclosed = group.succeeded - group.disclosed;
            let _ = writeln!(
                out,
                "  {:<9} n={:<3} MTD {:>8.1} ±{:.1} traces ({} undisclosed) | \
                 bytes {:>4.2}  GE {:>5.2} bit  r {:>5.3} | dTSV {:>6.0}  t {:>6.2} s  \
                 {:>5.0} tr/s",
                group.mitigation.label(),
                group.succeeded,
                group.mtd.mean,
                group.mtd.stddev,
                undisclosed,
                group.recovered_bytes.mean,
                group.guessing_entropy_bits.mean,
                group.best_correlation.mean,
                group.dummy_tsvs.mean,
                group.runtime_s.mean,
                group.traces_per_sec,
            );
            for (kind, count) in &group.failures {
                let _ = writeln!(out, "       [FAILED {kind}×{count}]");
            }
        }
        match summary.mitigation_verdict(benchmark, &sensor_name) {
            Some(true) => {
                let baseline = summary.group(benchmark, &sensor_name, Mitigation::Baseline);
                let mitigated = summary.group(benchmark, &sensor_name, Mitigation::DummyTsvs);
                if let (Some(b), Some(m)) = (baseline, mitigated) {
                    if b.disclosed > 0 && m.disclosed > 0 && b.mtd.mean > 0.0 {
                        let _ = writeln!(
                            out,
                            "  -> mitigation effective: MTD ×{:.2} ({:.1} → {:.1} traces)",
                            m.mtd.mean / b.mtd.mean,
                            b.mtd.mean,
                            m.mtd.mean
                        );
                    } else {
                        let _ =
                            writeln!(out, "  -> mitigation effective: key bytes stay unrecovered");
                    }
                }
            }
            Some(false) => {
                let _ = writeln!(out, "  -> mitigation NOT effective under this sensor");
            }
            None => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics(mtd: f64) -> ScaJobMetrics {
        ScaJobMetrics {
            key_bytes: 2.0,
            recovered_bytes: 2.0,
            mtd_traces: mtd,
            guessing_entropy_bits: 0.0,
            best_correlation: 0.625,
            traces: 192.0,
            transient_steps: 100_000.0,
            dummy_tsvs: 4437.0,
            target_module: 40.0,
            runtime_s: 1.5,
        }
    }

    fn record(job_id: u64, mitigation: Mitigation, mtd: f64) -> ScaJobRecord {
        ScaJobRecord {
            job_id,
            benchmark: Benchmark::N200,
            seed: 1,
            key_seed: 11,
            sensor_name: "sigma-0.5".into(),
            mitigation,
            outcome: ScaJobOutcome::Success(sample_metrics(mtd)),
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScaCampaignSpec::smoke();
        let encoded = sca_spec_to_json(&spec).render();
        let decoded = sca_spec_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, spec);

        let custom = {
            let mut spec = ScaCampaignSpec::new(vec![Benchmark::N100], vec![3]);
            spec.attack.target = tsc3d_sca::TargetPolicy::Block(17);
            spec.attack.workload.leakage = LeakageModel::HammingDistance;
            spec.mitigations = vec![Mitigation::DummyTsvs];
            spec
        };
        let encoded = sca_spec_to_json(&custom).render();
        let decoded = sca_spec_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, custom);
    }

    #[test]
    fn records_round_trip_including_infinite_mtd() {
        let ok = record(3, Mitigation::DummyTsvs, f64::INFINITY);
        let line = ok.to_json_line();
        assert!(line.contains("\"Infinity\""), "{line}");
        let back = ScaJobRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, ok);
        assert!(!back.metrics().unwrap().disclosed());

        let failed = ScaJobRecord {
            job_id: 4,
            benchmark: Benchmark::N100,
            seed: 2,
            key_seed: 12,
            sensor_name: "base".into(),
            mitigation: Mitigation::Baseline,
            outcome: ScaJobOutcome::Failure {
                kind: "flow-solve".into(),
                message: "solver did not converge".into(),
            },
        };
        let back = ScaJobRecord::from_json(&Json::parse(&failed.to_json_line()).unwrap()).unwrap();
        assert_eq!(back, failed);
    }

    #[test]
    fn expansion_is_cartesian_with_adjacent_mitigation_pairs() {
        let spec = ScaCampaignSpec::smoke();
        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.job_count());
        assert_eq!(jobs.len(), 8); // 1 benchmark x 1 seed x 2 keys x 2 sensors x 2 mitigations
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, i as u64);
        }
        // Mitigation is the innermost axis: pairs share everything else.
        assert_eq!(jobs[0].mitigation, Mitigation::Baseline);
        assert_eq!(jobs[1].mitigation, Mitigation::DummyTsvs);
        assert_eq!(jobs[0].key_seed, jobs[1].key_seed);
        assert_eq!(jobs[0].sensor.name, jobs[1].sensor.name);
        // Identical flow and traces across the pair.
        assert_eq!(jobs[0].run_seed(), jobs[1].run_seed());
        assert_eq!(jobs[0].trace_seed(), jobs[1].trace_seed());
        // Different keys get different trace streams.
        assert_ne!(jobs[0].trace_seed(), jobs[4].trace_seed());
    }

    #[test]
    fn aggregation_verdict_compares_mitigation_groups() {
        let records = vec![
            record(0, Mitigation::Baseline, 27.0),
            record(1, Mitigation::DummyTsvs, 33.0),
            record(2, Mitigation::Baseline, 42.0),
            record(3, Mitigation::DummyTsvs, 51.0),
        ];
        let summary = aggregate_sca(&records);
        assert_eq!(summary.groups.len(), 2);
        assert_eq!(summary.jobs(), 4);
        assert_eq!(
            summary.mitigation_verdict(Benchmark::N200, "sigma-0.5"),
            Some(true)
        );
        let report = render_sca_report(&summary);
        assert!(report.contains("mitigation effective"), "{report}");
        assert!(report.contains("MTD ×"), "{report}");

        // Reversed ordering: the verdict flips.
        let records = vec![
            record(0, Mitigation::Baseline, 50.0),
            record(1, Mitigation::DummyTsvs, 30.0),
        ];
        let summary = aggregate_sca(&records);
        assert_eq!(
            summary.mitigation_verdict(Benchmark::N200, "sigma-0.5"),
            Some(false)
        );
        assert!(render_sca_report(&summary).contains("NOT effective"));
    }

    #[test]
    fn undisclosed_keys_count_towards_the_mitigation() {
        let records = vec![
            record(0, Mitigation::Baseline, 40.0),
            record(1, Mitigation::DummyTsvs, f64::INFINITY),
        ];
        let summary = aggregate_sca(&records);
        let mitigated = summary
            .group(Benchmark::N200, "sigma-0.5", Mitigation::DummyTsvs)
            .unwrap();
        assert_eq!(mitigated.disclosed, 0);
        assert_eq!(mitigated.mtd.count, 0);
        assert_eq!(
            summary.mitigation_verdict(Benchmark::N200, "sigma-0.5"),
            Some(true)
        );
        let report = render_sca_report(&summary);
        assert!(report.contains("key bytes stay unrecovered"), "{report}");
    }

    #[test]
    fn aggregation_is_input_order_independent() {
        let mut records = vec![
            record(0, Mitigation::Baseline, 27.0),
            record(1, Mitigation::DummyTsvs, 33.0),
            record(2, Mitigation::Baseline, 42.0),
            record(3, Mitigation::DummyTsvs, 51.0),
        ];
        let forward = aggregate_sca(&records);
        records.reverse();
        let reversed = aggregate_sca(&records);
        assert_eq!(forward, reversed);
        assert_eq!(render_sca_report(&forward), render_sca_report(&reversed));
    }
}
