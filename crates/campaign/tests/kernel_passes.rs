//! The work side of kernel sharing: an sca campaign runs one adjoint kernel pass per
//! distinct (flow, mitigation, sensor geometry), not one per job.
//!
//! It reads the process-wide `tsc3d_sca_transient_steps_total` counter, so it lives in a
//! test binary of its own: no other test's attacks can move the counter meanwhile.

use tsc3d_campaign::{run_sca_campaign, CampaignOptions, ScaCampaignSpec};
use tsc3d_sca::Mitigation;

fn transient_steps_total() -> u64 {
    tsc3d_obs::global()
        .counter(
            "tsc3d_sca_transient_steps_total",
            "Transient kernel lane-steps (substeps x lanes) performed by sca attacks",
        )
        .get()
}

#[test]
fn a_smoke_campaign_runs_one_kernel_pass_per_mitigation_state() {
    let spec = ScaCampaignSpec::smoke();
    let before = transient_steps_total();
    let outcome = run_sca_campaign(&spec, &CampaignOptions::in_memory(4)).unwrap();
    let executed = transient_steps_total() - before;

    // 8 jobs (2 keys × 2 noise levels × 2 mitigation states) share one geometry, so
    // there are two kernels; every record carries its kernel's lane-steps.
    assert_eq!(outcome.records.len(), 8);
    let steps_of = |mitigation| {
        let steps: Vec<u64> = outcome
            .records
            .iter()
            .filter(|r| r.mitigation == mitigation)
            .map(|r| r.metrics().expect("smoke jobs succeed").transient_steps as u64)
            .collect();
        assert!(steps.windows(2).all(|w| w[0] == w[1]), "{steps:?}");
        steps[0]
    };
    let (baseline, mitigated) = (
        steps_of(Mitigation::Baseline),
        steps_of(Mitigation::DummyTsvs),
    );
    assert!(baseline > 0 && mitigated > 0);
    assert_eq!(
        executed,
        baseline + mitigated,
        "exactly two kernel passes ran (baseline {baseline}, mitigated {mitigated})"
    );
}
