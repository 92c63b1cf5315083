//! Cross-commit replay pins: same-seed runs must reproduce digests
//! recorded from an earlier build of the simulator, bit for bit.
//!
//! The within-build suites (`pooling`, `chaos`) compare two runs of the
//! same binary, so a change that shifts every run identically slips past
//! them. These digests were recorded once and are compared against every
//! later build: a refactor that moves a single event, byte or loss bit
//! fails here. Each digest folds `wall_time`, `global_rounds`,
//! `comm_bytes`, `probe_retries` and the bits of `final_loss`.
//!
//! If a change is *meant* to alter the simulated behaviour, re-record the
//! digest and say why in the commit.

use rna_core::fault::NetFaultPlan;
use rna_core::hier::HierRnaProtocol;
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TrainSpec};
use rna_core::{RnaConfig, RunResult};
use rna_workload::HeterogeneityModel;

/// FNV-1a over the pinned fields, plus the fields themselves for the
/// failure message.
fn digest(r: &RunResult) -> (u64, String) {
    let loss_bits = r
        .final_loss()
        .expect("run evaluated at least once")
        .to_bits();
    let fields = [
        r.wall_time.as_nanos(),
        r.global_rounds,
        r.comm_bytes,
        r.probe_retries,
        loss_bits,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in fields {
        for b in f.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let shown = format!(
        "wall_time={}ns global_rounds={} comm_bytes={} probe_retries={} final_loss={:#x}",
        fields[0], fields[1], fields[2], fields[3], fields[4]
    );
    (h, shown)
}

fn assert_digest(r: &RunResult, want: u64) {
    let (got, shown) = digest(r);
    assert_eq!(
        got, want,
        "replay digest moved: {shown} (digest {got:#018x})"
    );
}

#[test]
fn flat_rna_under_lossy_links_replays_the_recorded_digest() {
    // Half of the probe traffic to workers 0 and 1 is dropped, so the
    // retry timer (and its backoff) decides when elections re-issue.
    let n = 4;
    let spec = TrainSpec::smoke_test(n, 19)
        .with_max_rounds(120)
        .with_net_fault_plan(
            NetFaultPlan::none()
                .with_seed(7)
                .drop_link(n, 0, 0.5)
                .drop_link(n, 1, 0.5),
        );
    let r = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    assert!(r.probe_retries > 0, "the plan must make probes retry");
    assert_digest(&r, 0xec9c_029b_4aa0_79d2);
}

#[test]
fn hierarchical_rna_replays_the_recorded_digest() {
    let n = 6;
    let spec = TrainSpec::smoke_test(n, 11)
        .with_hetero(HeterogeneityModel::mixed_groups(n, 0, 10, 50, 60))
        .with_max_rounds(80);
    let protocol = HierRnaProtocol::auto(&spec, RnaConfig::default());
    let r = Engine::new(spec, protocol).run();
    assert_digest(&r, 0xbd1c_f746_10fe_bd81);
}
