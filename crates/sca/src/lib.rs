//! Trace-level thermal side-channel analysis (`tsc3d-sca`).
//!
//! The rest of the workspace scores *steady-state* thermal maps with correlation and
//! entropy statistics — defender-side metrics. This crate states the mitigation's value
//! in the **attacker's own currency**: it simulates a key-dependent workload over time,
//! reads the stack through a realistic sensor model, mounts a CPA attack, and reports
//! **measurements-to-disclosure (MTD)** — how many traces until the key falls — for the
//! dummy-TSV-decorrelated floorplan vs. the unmitigated baseline, both derived from the
//! *same* [`tsc3d::FlowResult`]. The approach follows the trace-based thermal attacks of
//! Gu et al. ("Thermal-Aware 3D Design for Side-Channel Information Leakage") layered on
//! this repo's flow.
//!
//! The pipeline has four layers:
//!
//! 1. **Workload** ([`workload`]): a toy AES-128 first-round S-box target. Each trace is
//!    one encryption of a random plaintext dwelt on long enough for the thermal response
//!    to integrate the data-dependent power (Hamming-weight or Hamming-distance model),
//!    plus Gaussian background traffic on every module (the
//!    [`tsc3d_power::ActivitySampler`] convention).
//! 2. **Transient thermal response**: temperature is a linear RC filter of power, and
//!    each trace holds a constant power map over its dwell, so one adjoint pass of the
//!    spatial engine ([`tsc3d_thermal::BatchTransientSolver::step_response`], one lane
//!    per sensor) over the flow's floorplan (signal and dummy TSVs) yields a
//!    `modules × points` weight matrix; a trace's readings are then `ambient + W·powers`.
//! 3. **Sensors** ([`sensor`]): an `s × s` array on the exposed die, sampled at a finite
//!    period, quantized and noisy (the [`tsc3d_attack::NoisyOracle`] noise conventions).
//! 4. **CPA + MTD** ([`cpa`]): Pearson correlation of hypothetical leakage against the
//!    sensor traces per key-byte guess — recovered bytes, guessing entropy and MTD, with
//!    disclosure evaluated at checkpoints so MTD is a first-class number.
//!
//! [`scenario::run_verdict`] ties it together: identical traces against both mitigation
//! states of one flow, returning a [`ScaVerdict`]. Every stage is deterministic under a
//! seed, with per-trace rng streams and a serial trace loop, so results are
//! bit-identical for any [`tsc3d_exec::Pool`] worker count — the property the campaign
//! layer's resumable, sharded sca jobs rely on.
//!
//! # Example
//!
//! ```no_run
//! use tsc3d::{FlowConfig, Setup, TscFlow};
//! use tsc3d_netlist::suite::{generate, Benchmark};
//! use tsc3d_sca::{run_verdict, AttackConfig};
//!
//! let design = generate(Benchmark::N100, 1);
//! let flow = TscFlow::new(FlowConfig::quick(Setup::TscAware))
//!     .run(&design, 3)
//!     .unwrap();
//! let verdict = run_verdict(&design, &flow, &AttackConfig::quick(), 7, 11, None).unwrap();
//! println!(
//!     "baseline MTD {:?}, mitigated MTD {:?}",
//!     verdict.baseline.mtd_traces(),
//!     verdict.mitigated.mtd_traces()
//! );
//! ```

#![warn(missing_docs)]

pub mod cpa;
pub mod scenario;
pub mod sensor;
pub mod workload;

/// Cached handles into the global registry for the `tsc3d_sca_*` metric family
/// (shared by the scenario engine and the CPA accumulator).
pub(crate) mod obs_metrics {
    pub(crate) struct ScaMetrics {
        /// Attack evaluations completed (one per mitigation state).
        pub attacks: tsc3d_obs::Counter,
        /// Simulated traces (observed encryptions) across all attacks.
        pub traces: tsc3d_obs::Counter,
        /// Transient kernel lane-steps across all attacks (substeps × lanes: one lane
        /// per sensor for the adjoint engine, per trace for the stepped oracle).
        pub transient_steps: tsc3d_obs::Counter,
        /// CPA disclosure checkpoints evaluated.
        pub cpa_checkpoints: tsc3d_obs::Counter,
    }

    pub(crate) fn get() -> &'static ScaMetrics {
        static METRICS: std::sync::OnceLock<ScaMetrics> = std::sync::OnceLock::new();
        METRICS.get_or_init(|| {
            let registry = tsc3d_obs::global();
            ScaMetrics {
                attacks: registry.counter(
                    "tsc3d_sca_attacks_total",
                    "Trace-level attack evaluations completed",
                ),
                traces: registry.counter(
                    "tsc3d_sca_traces_total",
                    "Thermal traces simulated (one per observed encryption)",
                ),
                transient_steps: registry.counter(
                    "tsc3d_sca_transient_steps_total",
                    "Transient kernel lane-steps (substeps x lanes) performed by sca attacks",
                ),
                cpa_checkpoints: registry.counter(
                    "tsc3d_sca_cpa_checkpoints_total",
                    "CPA disclosure checkpoints evaluated",
                ),
            }
        })
    }
}

pub use cpa::{run_cpa, ByteResult, CpaAccumulator, CpaResult, TraceSet};
pub use scenario::{
    attack_tsv_fields, resolve_target, run_attack, run_attack_with, run_on_flow, run_on_flow_with,
    run_on_flow_with_cancel, run_verdict, run_verdict_with_cancel, AttackConfig, Mitigation,
    ScaError, ScaOutcome, ScaVerdict, TargetPolicy, TraceEngine,
};
pub use sensor::SensorConfig;
pub use workload::{derive_key, LeakageModel, TraceActivity, Workload, WorkloadConfig, SBOX};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use tsc3d::{FlowConfig, FlowResult, Setup, TscFlow};
    use tsc3d_exec::Pool;
    use tsc3d_netlist::suite::{generate, Benchmark};
    use tsc3d_netlist::Design;

    /// One shared quick flow for every end-to-end test (the flow is the expensive part).
    fn flow_fixture() -> &'static (Design, FlowResult) {
        static FIXTURE: OnceLock<(Design, FlowResult)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let design = generate(Benchmark::N100, 1);
            let mut config = FlowConfig::quick(Setup::TscAware);
            config.schedule.stages = 6;
            config.schedule.moves_per_stage = 10;
            config.schedule.grid_bins = 12;
            config.verification_bins = 12;
            let flow = TscFlow::new(config)
                .run(&design, 3)
                .expect("quick flow converges");
            (design, flow)
        })
    }

    fn test_config() -> AttackConfig {
        let mut config = AttackConfig::quick();
        config.grid_bins = 8;
        config.traces = 64;
        config.sensors.samples_per_trace = 1;
        config.sensors.dwell_s = 0.008;
        config.mtd_checkpoints = 8;
        config
    }

    #[test]
    fn cpa_recovers_the_key_at_zero_noise() {
        let (design, flow) = flow_fixture();
        let mut config = test_config();
        config.sensors.sigma_k = 0.0;
        config.sensors.quantization_k = 0.0;
        config.workload.background_sigma = 0.0;
        let outcome =
            run_on_flow(design, flow, &config, 5, 11, Mitigation::Baseline, None).unwrap();
        assert_eq!(
            outcome.recovered_bytes(),
            outcome.key_bytes(),
            "noise-free traces must disclose the key (entropy {})",
            outcome.guessing_entropy_bits()
        );
        assert!(outcome.mtd_traces().is_some());
        assert!(outcome.best_correlation() > 0.5);
        assert!(outcome.transient_steps > 0);
    }

    #[test]
    fn cpa_fails_at_saturating_noise() {
        let (design, flow) = flow_fixture();
        let mut config = test_config();
        config.sensors.sigma_k = 1e4;
        let outcome =
            run_on_flow(design, flow, &config, 5, 11, Mitigation::Baseline, None).unwrap();
        assert!(
            outcome.recovered_bytes() < outcome.key_bytes(),
            "saturating sensor noise must defeat the attack"
        );
        assert!(outcome.mtd_traces().is_none());
    }

    #[test]
    fn attack_is_bit_identical_across_worker_counts() {
        let (design, flow) = flow_fixture();
        let config = test_config();
        let serial = run_on_flow(design, flow, &config, 5, 11, Mitigation::Baseline, None).unwrap();
        for workers in [2usize, 5] {
            let pool = Pool::new(workers);
            let pooled = run_on_flow(
                design,
                flow,
                &config,
                5,
                11,
                Mitigation::Baseline,
                Some(&pool),
            )
            .unwrap();
            assert_eq!(pooled, serial, "{workers} workers");
            pool.shutdown();
        }
    }

    #[test]
    fn adjoint_engine_matches_the_stepped_oracle() {
        let (design, flow) = flow_fixture();
        let config = test_config();
        for mitigation in [Mitigation::Baseline, Mitigation::DummyTsvs] {
            let run = |engine| {
                run_on_flow_with(design, flow, &config, 5, 11, mitigation, engine, None).unwrap()
            };
            let oracle = run(TraceEngine::Stepped { batch_traces: 8 });
            // Stepped lanes never mix: the batch size cannot change a single bit.
            for batch_traces in [1usize, 3] {
                assert_eq!(
                    run(TraceEngine::Stepped { batch_traces }),
                    oracle,
                    "stepped batch {batch_traces}, {mitigation:?}"
                );
            }
            let adjoint = run(TraceEngine::Adjoint);
            assert_eq!(adjoint.mtd_traces(), oracle.mtd_traces(), "{mitigation:?}");
            assert_eq!(adjoint.recovered_bytes(), oracle.recovered_bytes());
            assert_eq!(adjoint.target_module, oracle.target_module);
            assert_eq!(adjoint.cpa.traces, oracle.cpa.traces);
            for (a, o) in adjoint.cpa.bytes.iter().zip(&oracle.cpa.bytes) {
                assert_eq!((a.best_guess, a.rank), (o.best_guess, o.rank));
                assert!(
                    (a.best_correlation - o.best_correlation).abs() <= 1e-9,
                    "{mitigation:?} byte {}: r {} vs {}",
                    a.byte,
                    a.best_correlation,
                    o.best_correlation
                );
            }
            // The adjoint pass costs one lane per sensor, not one per trace.
            let sensors = config.sensors.sensors_per_axis.pow(2) as u64;
            let lanes = config.traces as u64;
            assert_eq!(
                adjoint.transient_steps * lanes,
                oracle.transient_steps * sensors
            );
        }
    }

    #[test]
    fn zero_batch_size_is_rejected_typed() {
        let (design, flow) = flow_fixture();
        let config = test_config();
        let err = run_on_flow_with(
            design,
            flow,
            &config,
            5,
            11,
            Mitigation::Baseline,
            TraceEngine::Stepped { batch_traces: 0 },
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ScaError::InvalidConfig { .. }));
    }

    #[test]
    fn verdict_compares_the_same_floorplan_with_and_without_dummy_tsvs() {
        let (design, flow) = flow_fixture();
        let config = test_config();
        let verdict = run_verdict(design, flow, &config, 5, 11, None).unwrap();
        // Same target module, same key, same trace count on both sides.
        assert_eq!(
            verdict.baseline.target_module,
            verdict.mitigated.target_module
        );
        assert_eq!(verdict.baseline.cpa.traces, verdict.mitigated.cpa.traces);
        // The dummy TSVs change the thermal response, so the attacks must not be
        // literally identical (the flow inserted at least one dummy TSV).
        if flow.dummy_tsvs() > 0 {
            assert_ne!(verdict.baseline, verdict.mitigated);
        }
    }

    #[test]
    fn invalid_configs_fail_typed() {
        let (design, flow) = flow_fixture();
        let mut config = test_config();
        config.traces = 2;
        let err =
            run_on_flow(design, flow, &config, 5, 11, Mitigation::Baseline, None).unwrap_err();
        assert!(matches!(err, ScaError::InvalidConfig { .. }));
        assert_eq!(err.kind(), "sca-invalid-config");

        let mut config = test_config();
        config.sensors.die = 9;
        let err =
            run_on_flow(design, flow, &config, 5, 11, Mitigation::Baseline, None).unwrap_err();
        assert!(matches!(err, ScaError::InvalidConfig { .. }));
    }

    #[test]
    fn cancelled_and_expired_tokens_interrupt_the_attack_typed() {
        let (design, flow) = flow_fixture();
        let config = test_config();

        let cancel = tsc3d_exec::CancelToken::new();
        cancel.cancel(tsc3d_exec::CancelReason::User);
        let err = run_verdict_with_cancel(design, flow, &config, 5, 11, None, &cancel).unwrap_err();
        assert!(matches!(
            err,
            ScaError::Cancelled {
                reason: tsc3d_exec::CancelReason::User
            }
        ));
        assert_eq!(err.kind(), "cancelled");

        let expired = tsc3d_exec::CancelToken::new().with_deadline(std::time::Duration::ZERO);
        let err =
            run_verdict_with_cancel(design, flow, &config, 5, 11, None, &expired).unwrap_err();
        assert!(matches!(err, ScaError::DeadlineExceeded));
        assert_eq!(err.kind(), "deadline");
    }
}
