//! End-to-end trace-level attack scenarios on flow-produced floorplans.
//!
//! A scenario takes the outputs of the TSC-aware flow — the floorplan, the
//! voltage-scaled block powers and the final TSV plan — and evaluates the CPA attack
//! twice out of the same [`FlowResult`]: once against the unmitigated baseline (signal
//! TSVs only) and once against the decorrelated floorplan (signal *plus* dummy TSVs),
//! reporting the [`ScaVerdict`]: did the mitigation raise the attacker's
//! measurements-to-disclosure?

use crate::cpa::{CpaAccumulator, CpaResult};
use crate::sensor::SensorConfig;
use crate::workload::{derive_key, LeakageModel, Workload, WorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tsc3d::FlowResult;
use tsc3d_exec::{CancelToken, Interrupt, Pool};
use tsc3d_floorplan::{plan_signal_tsvs, Floorplan, PowerStamps};
use tsc3d_geometry::{DieId, Grid, GridMap, GridPos};
use tsc3d_netlist::Design;
use tsc3d_thermal::{BatchTransientSolver, SolveError, ThermalConfig, TransientSolver, TsvField};

/// How the attacked module (the "crypto core") is chosen on the instrumented die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TargetPolicy {
    /// The highest-powered block on the sensor die.
    HighestPower,
    /// The block nearest the die's power-density hotspot (argmax of the power map).
    Hotspot,
    /// The block nearest the flow's correlation-stability argmax — the most *stably*
    /// leaking location, i.e. the paper's own exploitability criterion (and the spot the
    /// dummy-TSV defense flattens first). Falls back to [`TargetPolicy::Hotspot`] when
    /// the flow ran without post-processing (no stability map).
    MostStable,
    /// An explicit module index (reproducing a known scenario).
    Block(usize),
}

impl TargetPolicy {
    /// Stable label used in records and submissions (`block:N` for explicit targets).
    pub fn label(self) -> String {
        match self {
            TargetPolicy::HighestPower => "highest-power".into(),
            TargetPolicy::Hotspot => "hotspot".into(),
            TargetPolicy::MostStable => "most-stable".into(),
            TargetPolicy::Block(index) => format!("block:{index}"),
        }
    }

    /// Parses [`TargetPolicy::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "highest-power" => Some(TargetPolicy::HighestPower),
            "hotspot" => Some(TargetPolicy::Hotspot),
            "most-stable" => Some(TargetPolicy::MostStable),
            other => other
                .strip_prefix("block:")
                .and_then(|index| index.parse().ok())
                .map(TargetPolicy::Block),
        }
    }
}

/// The full configuration of one trace-level attack evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Analysis-grid resolution (bins per axis) of the transient simulation.
    pub grid_bins: usize,
    /// Number of traces (encryptions) the attacker observes.
    pub traces: usize,
    /// How the attacked module is chosen.
    pub target: TargetPolicy,
    /// The key-dependent workload.
    pub workload: WorkloadConfig,
    /// The attacker's sensor array and acquisition chain.
    pub sensors: SensorConfig,
    /// Trace-count checkpoints at which disclosure is evaluated.
    pub mtd_checkpoints: usize,
}

impl AttackConfig {
    /// A fast configuration for tests and demos: a coarse grid, few traces, two key
    /// bytes.
    pub fn quick() -> Self {
        Self {
            grid_bins: 10,
            traces: 96,
            target: TargetPolicy::MostStable,
            workload: WorkloadConfig {
                key_bytes: 2,
                leakage: LeakageModel::HammingWeight,
                watts_per_hw: 0.08,
                background_sigma: 0.02,
            },
            sensors: SensorConfig {
                die: 0,
                sensors_per_axis: 3,
                samples_per_trace: 2,
                dwell_s: 0.01,
                sigma_k: 0.004,
                quantization_k: 0.002,
            },
            mtd_checkpoints: 12,
        }
    }

    /// The calibrated smoke configuration used by the campaign/serve sca smokes: a
    /// noise-limited sensing regime (long dwell into the conductance-dominated response,
    /// ~0.5 K sensor noise) with per-trace disclosure checkpoints, so the dummy-TSV
    /// mitigation's SNR reduction is resolvable as a strictly higher MTD.
    pub fn smoke() -> Self {
        Self {
            grid_bins: 10,
            traces: 192,
            target: TargetPolicy::MostStable,
            workload: WorkloadConfig {
                key_bytes: 2,
                leakage: LeakageModel::HammingWeight,
                watts_per_hw: 0.04,
                background_sigma: 0.02,
            },
            sensors: SensorConfig {
                die: 0,
                sensors_per_axis: 3,
                samples_per_trace: 1,
                dwell_s: 0.08,
                sigma_k: 0.5,
                quantization_k: 0.01,
            },
            mtd_checkpoints: 192,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ScaError::InvalidConfig`] describing the first problem.
    pub fn validate(&self) -> Result<(), ScaError> {
        let fail = |reason: String| Err(ScaError::InvalidConfig { reason });
        if self.grid_bins < 2 {
            return fail(format!("grid_bins must be >= 2, got {}", self.grid_bins));
        }
        if self.traces < 8 {
            return fail(format!("traces must be >= 8, got {}", self.traces));
        }
        if !(1..=16).contains(&self.workload.key_bytes) {
            return fail(format!(
                "key_bytes must be in 1..=16, got {}",
                self.workload.key_bytes
            ));
        }
        if !(self.workload.watts_per_hw > 0.0 && self.workload.watts_per_hw.is_finite()) {
            return fail(format!(
                "watts_per_hw must be positive and finite, got {}",
                self.workload.watts_per_hw
            ));
        }
        if self.workload.background_sigma < 0.0 {
            return fail("background_sigma must be non-negative".into());
        }
        if self.sensors.sensors_per_axis == 0 || self.sensors.samples_per_trace == 0 {
            return fail("the sensor array and sampling must be non-empty".into());
        }
        if !(self.sensors.dwell_s > 0.0 && self.sensors.dwell_s.is_finite()) {
            return fail(format!(
                "dwell_s must be positive and finite, got {}",
                self.sensors.dwell_s
            ));
        }
        if self.sensors.sigma_k < 0.0 || self.sensors.quantization_k < 0.0 {
            return fail("sensor sigma and quantization must be non-negative".into());
        }
        if self.mtd_checkpoints == 0 {
            return fail("mtd_checkpoints must be >= 1".into());
        }
        Ok(())
    }
}

/// Errors of a scenario run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaError {
    /// The attack configuration is invalid.
    InvalidConfig {
        /// What is wrong.
        reason: String,
    },
    /// The transient engine rejected its inputs.
    Solve(SolveError),
    /// The attacker's die hosts no modules (no target to monitor).
    NoTargetModule {
        /// The instrumented die.
        die: usize,
    },
    /// The attack was cancelled at a trace-batch checkpoint.
    Cancelled {
        /// Why the token fired.
        reason: tsc3d_exec::CancelReason,
    },
    /// The attack's deadline expired at a trace-batch checkpoint.
    DeadlineExceeded,
    /// A fault-injection hook fired at a checkpoint (chaos testing only).
    Fault {
        /// The fault site that fired.
        site: &'static str,
    },
}

impl std::fmt::Display for ScaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaError::InvalidConfig { reason } => write!(f, "invalid sca config: {reason}"),
            ScaError::Solve(e) => write!(f, "transient setup failed: {e}"),
            ScaError::NoTargetModule { die } => {
                write!(f, "no module placed on the instrumented die {die}")
            }
            ScaError::Cancelled { reason } => write!(f, "sca attack cancelled ({reason})"),
            ScaError::DeadlineExceeded => write!(f, "sca attack deadline exceeded"),
            ScaError::Fault { site } => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for ScaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScaError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for ScaError {
    fn from(e: SolveError) -> Self {
        match e {
            SolveError::Interrupted { interrupt, .. } => ScaError::from_interrupt(interrupt),
            other => ScaError::Solve(other),
        }
    }
}

impl ScaError {
    /// Stable variant tag for failure aggregation.
    ///
    /// Cancellation kinds match the flow's: `cancelled`, `shutdown`, `deadline`,
    /// `fault-injected`.
    pub fn kind(&self) -> &'static str {
        match self {
            ScaError::InvalidConfig { .. } => "sca-invalid-config",
            ScaError::Solve(_) => "sca-solve",
            ScaError::NoTargetModule { .. } => "sca-no-target",
            ScaError::Cancelled { reason } => reason.kind(),
            ScaError::DeadlineExceeded => "deadline",
            ScaError::Fault { .. } => "fault-injected",
        }
    }

    /// Maps a checkpoint [`Interrupt`] to the matching typed variant (deadline
    /// cancellations become [`ScaError::DeadlineExceeded`]).
    pub fn from_interrupt(interrupt: Interrupt) -> ScaError {
        match interrupt {
            Interrupt::Cancelled(tsc3d_exec::CancelReason::Deadline) => ScaError::DeadlineExceeded,
            Interrupt::Cancelled(reason) => ScaError::Cancelled { reason },
            Interrupt::Fault(fault) => ScaError::Fault { site: fault.site },
        }
    }
}

/// The outcome of one attack evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaOutcome {
    /// The full CPA result.
    pub cpa: CpaResult,
    /// The module the workload keyed (index into the design's blocks).
    pub target_module: usize,
    /// Transient kernel lane-steps (substeps × lanes): one lane per sensor for the
    /// adjoint engine, one per trace for the stepped oracle.
    pub transient_steps: u64,
}

impl ScaOutcome {
    /// Recovered key bytes.
    pub fn recovered_bytes(&self) -> usize {
        self.cpa.recovered_bytes()
    }

    /// Attacked key bytes.
    pub fn key_bytes(&self) -> usize {
        self.cpa.bytes.len()
    }

    /// Guessing entropy in bits.
    pub fn guessing_entropy_bits(&self) -> f64 {
        self.cpa.guessing_entropy_bits()
    }

    /// Measurements to full-key disclosure (`None` = key not recovered).
    pub fn mtd_traces(&self) -> Option<usize> {
        self.cpa.mtd_traces()
    }

    /// Best absolute correlation of any guess.
    pub fn best_correlation(&self) -> f64 {
        self.cpa.best_correlation()
    }
}

/// Whether to evaluate the attack against the mitigated or the unmitigated floorplan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mitigation {
    /// Signal TSVs only — the floorplan before the decorrelation post-process.
    Baseline,
    /// Signal plus the flow's dummy thermal TSVs.
    DummyTsvs,
}

impl Mitigation {
    /// Stable label ("baseline" / "mitigated").
    pub fn label(self) -> &'static str {
        match self {
            Mitigation::Baseline => "baseline",
            Mitigation::DummyTsvs => "mitigated",
        }
    }

    /// Parses [`Mitigation::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "baseline" => Some(Mitigation::Baseline),
            "mitigated" => Some(Mitigation::DummyTsvs),
            _ => None,
        }
    }
}

/// The side-by-side evaluation out of one [`FlowResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaVerdict {
    /// The attack against the signal-TSV-only floorplan.
    pub baseline: ScaOutcome,
    /// The attack against the dummy-TSV-decorrelated floorplan.
    pub mitigated: ScaOutcome,
}

impl ScaVerdict {
    /// `true` when the mitigation measurably hurt the attacker: strictly higher MTD, or
    /// the key (or more of it) stays unrecovered.
    pub fn mitigation_effective(&self) -> bool {
        match (self.baseline.mtd_traces(), self.mitigated.mtd_traces()) {
            (Some(base), Some(mitigated)) => mitigated > base,
            (Some(_), None) => true,
            (None, None) => self.mitigated.recovered_bytes() < self.baseline.recovered_bytes(),
            (None, Some(_)) => false,
        }
    }

    /// The MTD gain factor (`mitigated / baseline`), `None` when either side lacks a
    /// finite MTD.
    pub fn mtd_gain(&self) -> Option<f64> {
        match (self.baseline.mtd_traces(), self.mitigated.mtd_traces()) {
            (Some(base), Some(mitigated)) if base > 0 => Some(mitigated as f64 / base as f64),
            _ => None,
        }
    }
}

/// The TSV fields the attack sees on its own analysis grid: the signal TSVs re-planned
/// for the grid, plus (for [`Mitigation::DummyTsvs`]) the flow's dummy sites re-splatted
/// onto it.
pub fn attack_tsv_fields(
    design: &Design,
    flow: &FlowResult,
    grid: Grid,
    mitigation: Mitigation,
) -> Vec<TsvField> {
    let _span = tsc3d_obs::span!("attack_tsv_fields");
    let mut plan = plan_signal_tsvs(design, flow.floorplan(), grid);
    if mitigation == Mitigation::DummyTsvs {
        for (interface, field) in flow.final_tsv_plan.dummy().iter().enumerate() {
            for site in field.sites() {
                plan.add_dummy(interface, *site);
            }
        }
    }
    plan.combined()
}

/// The block on `die` whose centre lies nearest `point` (ties towards the lowest id).
fn nearest_block_on_die(
    floorplan: &Floorplan,
    die: usize,
    point: tsc3d_geometry::Point,
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for placement in floorplan.placements() {
        if placement.die != DieId(die) {
            continue;
        }
        let index = placement.block.index();
        let distance = placement.rect.center().distance(point);
        let better = match best {
            None => true,
            Some((best_distance, _)) => distance < best_distance,
        };
        if better {
            best = Some((distance, index));
        }
    }
    best.map(|(_, index)| index)
}

/// Resolves the attacked module under a [`TargetPolicy`].
///
/// `grid` is the attack's analysis grid (hotspot policies), `stability` the flow's
/// correlation-stability map when available (its own grid may differ from `grid`).
///
/// # Errors
///
/// Returns [`ScaError::NoTargetModule`] when the die hosts no blocks, or
/// [`ScaError::InvalidConfig`] for an out-of-range explicit block.
pub fn resolve_target(
    policy: TargetPolicy,
    floorplan: &Floorplan,
    powers: &[f64],
    die: usize,
    grid: Grid,
    stability: Option<&tsc3d_leakage::StabilityMap>,
) -> Result<usize, ScaError> {
    match policy {
        TargetPolicy::Block(index) => {
            if index >= powers.len() {
                return Err(ScaError::InvalidConfig {
                    reason: format!(
                        "explicit target block {index} outside the {}-module design",
                        powers.len()
                    ),
                });
            }
            Ok(index)
        }
        TargetPolicy::HighestPower => {
            let mut best: Option<(f64, usize)> = None;
            for placement in floorplan.placements() {
                if placement.die != DieId(die) {
                    continue;
                }
                let index = placement.block.index();
                let power = powers[index];
                let better = match best {
                    None => true,
                    Some((best_power, _)) => power > best_power,
                };
                if better {
                    best = Some((power, index));
                }
            }
            best.map(|(_, index)| index)
                .ok_or(ScaError::NoTargetModule { die })
        }
        TargetPolicy::Hotspot => {
            let map = &floorplan.power_maps(grid, powers)[die];
            let centre = grid.bin_center(map.argmax());
            nearest_block_on_die(floorplan, die, centre).ok_or(ScaError::NoTargetModule { die })
        }
        TargetPolicy::MostStable => match stability {
            Some(stability) => {
                let (pos, _) = stability.most_stable();
                let centre = stability.map().grid().bin_center(pos);
                nearest_block_on_die(floorplan, die, centre).ok_or(ScaError::NoTargetModule { die })
            }
            None => resolve_target(TargetPolicy::Hotspot, floorplan, powers, die, grid, None),
        },
    }
}

/// Traces per chunk: the unit of the `sca-batch` checkpoint and of the `trace_eval` /
/// `cpa_fold` spans, so a fault plan's hit numbers mean `ceil(traces / 8)` chunks.
const CHUNK_TRACES: usize = 8;

/// Which thermal engine turns a trace's block powers into sensor temperatures.
///
/// Both engines draw every trace from the same per-trace rng stream, acquire it through
/// the same sensor chain in the same order and fold the same streaming CPA; they differ
/// only in the noise-free readings. Those agree within 1e-9 K per sample (the adjoint
/// engine sums in a different order, so they are not bit-identical); verdicts — MTD,
/// recovered bytes, target — are equivalence-tested equal for both mitigation states.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceEngine {
    /// One adjoint kernel pass per attack
    /// ([`BatchTransientSolver::step_response`], one lane per sensor), projected once
    /// onto the floorplan's [`PowerStamps`]; each trace then costs `modules × points`
    /// multiply-adds.
    #[default]
    Adjoint,
    /// Every trace's transient integrated through the grid, `batch_traces` traces in
    /// lockstep: the oracle the adjoint engine is tested and benchmarked against.
    Stepped {
        /// Traces per lockstep batch (at least 1); also the checkpoint chunk.
        batch_traces: usize,
    },
}

/// The per-trace seed: decorrelates consecutive trace indices (SplitMix64 finalizer).
fn trace_seed(seed: u64, trace: u64) -> u64 {
    let mut z = seed
        .wrapping_add(trace.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one attack evaluation against explicit TSV fields.
///
/// `nominal_powers` are the per-block baseline powers (voltage-scaled); `stability` is
/// the flow's correlation-stability map when available (the
/// [`TargetPolicy::MostStable`] input); `seed` drives the traces (plaintexts, background
/// traffic, sensor noise) and `key_seed` the secret key. Trace evaluation is a serial
/// loop of microseconds per trace, so `pool` is accepted for API stability but unused;
/// per-trace seeding makes the result independent of any scheduling.
///
/// # Errors
///
/// Returns a [`ScaError`] for invalid configurations, mismatched TSV fields, or a die
/// without modules.
#[allow(clippy::too_many_arguments)]
pub fn run_attack(
    floorplan: &Floorplan,
    nominal_powers: &[f64],
    tsv_fields: &[TsvField],
    stability: Option<&tsc3d_leakage::StabilityMap>,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    pool: Option<&Pool>,
) -> Result<ScaOutcome, ScaError> {
    run_attack_with(
        floorplan,
        nominal_powers,
        tsv_fields,
        stability,
        config,
        seed,
        key_seed,
        TraceEngine::default(),
        pool,
    )
}

/// The validated, target-resolved inputs shared by both trace engines.
struct AttackSetup {
    solver: BatchTransientSolver,
    stamps: PowerStamps,
    target: usize,
    key: Vec<u8>,
    workload: Workload,
    sensors: SensorConfig,
    positions: Vec<GridPos>,
    sample_dt: f64,
}

/// The thermal half of an attack: noise-free sensor readings of a chunk of traces from
/// their block powers, written trace-major (`trace · points + sample · sensors + sensor`).
impl AttackSetup {
    /// The adjoint engine's `points × modules` weight matrix — one kernel pass, projected
    /// onto the power stamps — and the pass's lane-steps.
    fn adjoint_weights(&self) -> (Vec<f64>, u64) {
        let _span = tsc3d_obs::span!("sca_kernel");
        let sources: Vec<(usize, GridPos)> = self
            .positions
            .iter()
            .map(|&pos| (self.sensors.die, pos))
            .collect();
        let samples = self.sensors.samples_per_trace;
        let response = self.solver.step_response(&sources, self.sample_dt, samples);
        let mut weights = Vec::new();
        for sample in 0..samples {
            for source in 0..sources.len() {
                weights.extend(self.stamps.block_weights(response.weights(sample, source)));
            }
        }
        tsc3d_obs::add_to_span("transient_steps", response.lane_steps());
        (weights, response.lane_steps())
    }

    /// Adjoint readings: `ambient + W·powers` per trace and point.
    fn adjoint_readings(&self, weights: &[f64], powers: &[Vec<f64>], truth: &mut [f64]) {
        let ambient = self.solver.inner().ambient();
        let points = self.sensors.points();
        for (p, out) in powers.iter().zip(truth.chunks_exact_mut(points)) {
            for (value, w) in out.iter_mut().zip(weights.chunks_exact(p.len())) {
                *value = ambient + w.iter().zip(p).map(|(w, p)| w * p).sum::<f64>();
            }
        }
    }

    /// Stepped readings (the oracle): the whole chunk integrated in lockstep, one lane per
    /// trace. Returns the lane-steps taken.
    fn stepped_readings(&self, powers: &[Vec<f64>], truth: &mut [f64]) -> u64 {
        let _span = tsc3d_obs::span!("sca_kernel");
        let lanes = powers.len();
        let points = self.sensors.points();
        let mut state = self.solver.state(lanes);
        let mut maps: Vec<GridMap> = Vec::new();
        for (lane, p) in powers.iter().enumerate() {
            self.stamps.power_maps_into(p, &mut maps);
            self.solver
                .set_power(&mut state, lane, &maps)
                .expect("power stamps are built on the solver grid");
        }
        let mut steps = 0u64;
        for sample in 0..self.sensors.samples_per_trace {
            steps += self.solver.advance(&mut state, self.sample_dt) as u64 * lanes as u64;
            for lane in 0..lanes {
                for (s, &pos) in self.positions.iter().enumerate() {
                    truth[lane * points + sample * self.positions.len() + s] = self
                        .solver
                        .temperature_at(&state, lane, self.sensors.die, pos);
                }
            }
        }
        tsc3d_obs::add_to_span("transient_steps", steps);
        steps
    }
}

/// Validates the configuration and resolves everything both engines share: the
/// (once-per-mitigation-state) transient network and power stamps, the attacked module,
/// the key and the sensor positions.
fn prepare_attack(
    floorplan: &Floorplan,
    nominal_powers: &[f64],
    tsv_fields: &[TsvField],
    stability: Option<&tsc3d_leakage::StabilityMap>,
    config: &AttackConfig,
    key_seed: u64,
) -> Result<AttackSetup, ScaError> {
    config.validate()?;
    if config.sensors.die >= floorplan.stack().dies() {
        return Err(ScaError::InvalidConfig {
            reason: format!(
                "sensor die {} outside the {}-die stack",
                config.sensors.die,
                floorplan.stack().dies()
            ),
        });
    }
    let grid = floorplan.analysis_grid(config.grid_bins);
    let (solver, stamps) = {
        let _span = tsc3d_obs::span!("network_build");
        let thermal_config = ThermalConfig::default_for(floorplan.stack());
        let solver = TransientSolver::new(&thermal_config, grid, tsv_fields)?;
        (
            BatchTransientSolver::new(Arc::new(solver)),
            floorplan.power_stamps(grid),
        )
    };
    let target = {
        let _span = tsc3d_obs::span!("resolve_target");
        resolve_target(
            config.target,
            floorplan,
            nominal_powers,
            config.sensors.die,
            grid,
            stability,
        )?
    };
    let key = derive_key(key_seed, config.workload.key_bytes);
    let workload = Workload::new(
        config.workload,
        key.clone(),
        nominal_powers.to_vec(),
        target,
    );
    Ok(AttackSetup {
        solver,
        stamps,
        target,
        key,
        workload,
        sensors: config.sensors,
        positions: config.sensors.positions(grid),
        sample_dt: config.sensors.dwell_s / config.sensors.samples_per_trace as f64,
    })
}

/// [`run_attack`] with an explicit [`TraceEngine`] — the extension point the bench
/// harness and the equivalence tests use to select the stepped oracle.
///
/// # Errors
///
/// See [`run_attack`]; additionally rejects a zero stepped batch size.
#[allow(clippy::too_many_arguments)]
pub fn run_attack_with(
    floorplan: &Floorplan,
    nominal_powers: &[f64],
    tsv_fields: &[TsvField],
    stability: Option<&tsc3d_leakage::StabilityMap>,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    engine: TraceEngine,
    _pool: Option<&Pool>,
) -> Result<ScaOutcome, ScaError> {
    run_attack_impl(
        floorplan,
        nominal_powers,
        tsv_fields,
        stability,
        config,
        seed,
        key_seed,
        engine,
        &CancelToken::new(),
    )
}

/// The cancellable core behind every attack entry point: polls `cancel` at the
/// `sca-batch` checkpoint once per trace chunk.
#[allow(clippy::too_many_arguments)]
fn run_attack_impl(
    floorplan: &Floorplan,
    nominal_powers: &[f64],
    tsv_fields: &[TsvField],
    stability: Option<&tsc3d_leakage::StabilityMap>,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    engine: TraceEngine,
    cancel: &CancelToken,
) -> Result<ScaOutcome, ScaError> {
    let _span = tsc3d_obs::span!("sca_attack");
    if let TraceEngine::Stepped { batch_traces: 0 } = engine {
        return Err(ScaError::InvalidConfig {
            reason: "batch_traces must be >= 1".into(),
        });
    }
    let setup = prepare_attack(
        floorplan,
        nominal_powers,
        tsv_fields,
        stability,
        config,
        key_seed,
    )?;
    let sensors = config.sensors;
    let points = sensors.points();
    let (adjoint, chunk, mut transient_steps) = match engine {
        TraceEngine::Adjoint => {
            let (weights, steps) = setup.adjoint_weights();
            (Some(weights), CHUNK_TRACES, steps)
        }
        TraceEngine::Stepped { batch_traces } => (None, batch_traces, 0),
    };

    let key_bytes = config.workload.key_bytes;
    let mut cpa = CpaAccumulator::new(
        &setup.key,
        config.workload.leakage,
        points,
        config.traces,
        config.mtd_checkpoints,
    );
    let mut plaintexts = Vec::with_capacity(chunk * key_bytes);
    let mut powers = Vec::with_capacity(chunk);
    let mut rngs = Vec::with_capacity(chunk);
    let mut samples = vec![0.0; chunk * points];
    for lo in (0..config.traces).step_by(chunk) {
        tsc3d_exec::checkpoint("sca-batch", cancel).map_err(ScaError::from_interrupt)?;
        let traces = chunk.min(config.traces - lo);
        let samples = &mut samples[..traces * points];
        {
            let _span = tsc3d_obs::span!("trace_eval");
            plaintexts.clear();
            powers.clear();
            rngs.clear();
            for trace in lo..lo + traces {
                let mut rng = ChaCha8Rng::seed_from_u64(trace_seed(seed, trace as u64));
                let activity = setup.workload.draw_trace(&mut rng);
                plaintexts.extend_from_slice(&activity.plaintexts);
                powers.push(activity.powers);
                rngs.push(rng);
            }
            match &adjoint {
                Some(weights) => setup.adjoint_readings(weights, &powers, samples),
                None => transient_steps += setup.stepped_readings(&powers, samples),
            }
            // The acquisition chain per trace, per sample, per sensor: each trace's rng
            // continues where its draw left off.
            for (trace, rng) in rngs.iter_mut().enumerate() {
                for value in &mut samples[trace * points..(trace + 1) * points] {
                    *value = sensors.acquire(*value, rng);
                }
            }
            tsc3d_obs::add_to_span("traces", traces as u64);
        }
        let _span = tsc3d_obs::span!("cpa_fold");
        for (text, trace) in plaintexts
            .chunks_exact(key_bytes)
            .zip(samples.chunks_exact(points))
        {
            cpa.push(text, trace);
        }
    }
    let outcome = ScaOutcome {
        cpa: cpa.finish(),
        target_module: setup.target,
        transient_steps,
    };
    let metrics = crate::obs_metrics::get();
    metrics.attacks.inc();
    metrics.traces.add(config.traces as u64);
    metrics.transient_steps.add(outcome.transient_steps);
    tsc3d_obs::add_to_span("traces", config.traces as u64);
    tsc3d_obs::add_to_span("transient_steps", outcome.transient_steps);
    Ok(outcome)
}

/// Runs one attack evaluation out of a [`FlowResult`], against the chosen mitigation
/// state of the *same* floorplan.
///
/// # Errors
///
/// See [`run_attack`].
pub fn run_on_flow(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    mitigation: Mitigation,
    _pool: Option<&Pool>,
) -> Result<ScaOutcome, ScaError> {
    run_on_flow_impl(
        design,
        flow,
        config,
        seed,
        key_seed,
        mitigation,
        TraceEngine::default(),
        &CancelToken::new(),
    )
}

/// [`run_on_flow`] with an explicit [`TraceEngine`] (see [`run_attack_with`]).
///
/// # Errors
///
/// See [`run_attack`].
#[allow(clippy::too_many_arguments)]
pub fn run_on_flow_with(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    mitigation: Mitigation,
    engine: TraceEngine,
    _pool: Option<&Pool>,
) -> Result<ScaOutcome, ScaError> {
    run_on_flow_impl(
        design,
        flow,
        config,
        seed,
        key_seed,
        mitigation,
        engine,
        &CancelToken::new(),
    )
}

/// [`run_on_flow`] polling `cancel` at the `sca-batch` checkpoint (once per 8-trace
/// chunk), so a running attack can be stopped — or bounded by a deadline — within one
/// chunk's worth of work. A run that completes is bit-identical to an uncancelled
/// [`run_on_flow`].
///
/// # Errors
///
/// See [`run_attack`], plus [`ScaError::Cancelled`]/[`ScaError::DeadlineExceeded`] when
/// the token fires mid-attack.
#[allow(clippy::too_many_arguments)]
pub fn run_on_flow_with_cancel(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    mitigation: Mitigation,
    _pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<ScaOutcome, ScaError> {
    run_on_flow_impl(
        design,
        flow,
        config,
        seed,
        key_seed,
        mitigation,
        TraceEngine::default(),
        cancel,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_on_flow_impl(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    mitigation: Mitigation,
    engine: TraceEngine,
    cancel: &CancelToken,
) -> Result<ScaOutcome, ScaError> {
    config.validate()?;
    let grid = flow.floorplan().analysis_grid(config.grid_bins);
    let fields = attack_tsv_fields(design, flow, grid, mitigation);
    run_attack_impl(
        flow.floorplan(),
        &flow.scaled_powers,
        &fields,
        flow.post_process.as_ref().map(|pp| &pp.stability),
        config,
        seed,
        key_seed,
        engine,
        cancel,
    )
}

/// Evaluates the attack against both mitigation states of one [`FlowResult`] — identical
/// traces (same seeds), identical sensors, only the dummy TSVs differ — and returns the
/// [`ScaVerdict`].
///
/// # Errors
///
/// See [`run_attack`].
pub fn run_verdict(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    pool: Option<&Pool>,
) -> Result<ScaVerdict, ScaError> {
    run_verdict_with_cancel(
        design,
        flow,
        config,
        seed,
        key_seed,
        pool,
        &CancelToken::new(),
    )
}

/// [`run_verdict`] polling `cancel` at the `sca-batch` checkpoint (once per 8-trace chunk
/// of either mitigation state) — the serve daemon's cancellation and deadline path.
///
/// A run that completes is bit-identical to an uncancelled [`run_verdict`]: the token is
/// only *read* at checkpoints and never touches the seeded trace streams.
///
/// # Errors
///
/// See [`run_attack`]; additionally [`ScaError::Cancelled`],
/// [`ScaError::DeadlineExceeded`] or [`ScaError::Fault`] when the token (or an armed
/// fault plan) fires mid-attack.
pub fn run_verdict_with_cancel(
    design: &Design,
    flow: &FlowResult,
    config: &AttackConfig,
    seed: u64,
    key_seed: u64,
    _pool: Option<&Pool>,
    cancel: &CancelToken,
) -> Result<ScaVerdict, ScaError> {
    let attack = |mitigation| {
        run_on_flow_impl(
            design,
            flow,
            config,
            seed,
            key_seed,
            mitigation,
            TraceEngine::default(),
            cancel,
        )
    };
    Ok(ScaVerdict {
        baseline: attack(Mitigation::Baseline)?,
        mitigated: attack(Mitigation::DummyTsvs)?,
    })
}
