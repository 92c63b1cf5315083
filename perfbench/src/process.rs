//! The process-world workload: `run_process` with real `rna-worker`
//! subprocesses over loopback TCP.
//!
//! The benchmark binary is its own worker executable (see `main`), so the
//! run needs nothing but this package built. `run_process` does not expose
//! its phases, so set-up is the wall time of a one-round run of the same
//! configuration (spawn, handshake, first round, teardown) and the steady
//! round rate of a repetition is `(rounds - 1) / (wall - setup)`.

use std::path::Path;
use std::time::{Duration, Instant};

use rna_runtime::{run_process, Compression, ProcessConfig, ProcessResult, SyncMode};

use crate::layers::{self, Shape};
use crate::report::Outcome;
use crate::stats::{failed_rounds, mean, median};

/// Worker subprocesses (one per core on a 2-core host).
const WORKERS: usize = 2;
/// Configured compute per iteration, µs (uniform).
const COMPUTE_US: (u64, u64) = (200, 400);
/// Rounds per timed repetition.
const ROUNDS: u64 = 1_000;
/// One-round runs timed for `setup_s`. Their mean is reported, not the
/// median: teardown polls the exiting workers every 5 ms, so single
/// samples cluster around two values and a median flips between them.
const SETUP_RUNS: usize = 40;
/// Distinct sub-seeds cycled through the repetitions: enough that a
/// run's mean loss averages over the task's seed-to-seed spread.
const SUBSEEDS: u64 = 64;
/// Low enough that the 36-parameter task is still learning after
/// [`ROUNDS`] rounds; the default rate drives its loss to ~0.
const LR: f32 = 1e-3;

fn config(seed: u64, rounds: u64, exe: &Path) -> ProcessConfig {
    let mut c = ProcessConfig::quick(WORKERS, SyncMode::Rna).with_worker_exe(exe);
    c.base.rounds = rounds;
    c.base.seed = seed;
    c.base.compute_us = vec![COMPUTE_US; WORKERS];
    c.base.lr = LR;
    c.base = c.base.with_compression(Compression::Int8);
    c
}

/// The process world's shapes for the layer microcalls: the fixed
/// 8-feature, 4-class blob task the worker trains (36 parameters).
fn shape(contributors: usize) -> Shape {
    Shape {
        dim: 8,
        classes: 4,
        samples: 256,
        spread: 0.4,
        batch: 16,
        codec: Compression::Int8,
        contributors: contributors.max(1),
        groups: 1,
        queue_depth: WORKERS,
    }
}

/// Checks one run's counters and tallies its rounds.
fn check_run(out: &mut Outcome, p: &ProcessResult, rounds: u64) {
    let r = &p.run;
    out.attempted += rounds;
    out.failed += failed_rounds(rounds, r.rounds, r.rounds_degraded);
    if r.rounds != rounds || r.rounds_degraded != 0 {
        out.fail(format!(
            "{} of {rounds} rounds, {} degraded",
            r.rounds, r.rounds_degraded
        ));
    }
    if r.live_workers() != WORKERS
        || p.worker_respawns != 0
        || p.reconnect_attempts != 0
        || p.auth_rejects != 0
        || p.sockets_severed != 0
    {
        out.fail(format!(
            "fault-free run saw faults: {} live, {} respawns, {} reconnects, {} auth rejects",
            r.live_workers(),
            p.worker_respawns,
            p.reconnect_attempts,
            p.auth_rejects
        ));
    }
    // Socket totals must satisfy the exact frame identity: every gradient
    // frame that crossed as int8 would have crossed as one lossless frame.
    let n = shape(1).params();
    let lossless = Compression::Lossless.frame_bytes(n) as u128;
    let int8 = Compression::Int8.frame_bytes(n) as u128;
    let wire = u128::from(r.bytes_on_wire);
    let saved = u128::from(r.bytes_saved);
    if wire == 0 || wire * lossless != (wire + saved) * int8 {
        out.fail(format!(
            "wire identity broken: {wire} B on wire, {saved} B saved, frames {int8}/{lossless}"
        ));
    }
    if !r.final_loss.is_finite() {
        out.fail("final loss is not finite");
    }
}

/// Runs the workload for `seconds`; see [`crate::des::run`] for the shape
/// of the outcome.
pub fn run(seed: u64, seconds: f64, trace: bool, exe: &Path) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let sub = |i: u64| crate::des::subseed(seed, i % SUBSEEDS);

    let mut setups = Vec::new();
    for i in 0..SETUP_RUNS as u64 {
        let c = config(sub(i), 1, exe);
        let t = Instant::now();
        let p = run_process(&c);
        setups.push(t.elapsed().as_secs_f64());
        check_run(&mut out, &p, 1);
    }
    let setup = median(&setups);

    let rep_budget = if trace { 0.6 * seconds } else { seconds };
    let mut rates = Vec::new();
    let mut samples = Vec::new();
    let mut losses = Vec::new();
    let mut participation = Vec::new();
    let (mut wire, mut rounds, mut retries) = (0u64, 0u64, 0u64);
    let (mut reconnects, mut rejects, mut degraded) = (0u64, 0u64, 0u64);
    let mut first_peak_mb = f64::NAN;
    let mut i = 0;
    while rates.len() < 3 || start.elapsed().as_secs_f64() < rep_budget {
        let c = config(sub(i), ROUNDS, exe);
        let t = Instant::now();
        let p = run_process(&c);
        let wall = t.elapsed().as_secs_f64();
        check_run(&mut out, &p, ROUNDS);
        let steady = (wall - setup).max(wall / ROUNDS as f64);
        rates.push((p.run.rounds.saturating_sub(1)) as f64 / steady);
        let iters: u64 = p.run.worker_iterations.iter().sum();
        samples.push((iters * c.base.batch_size as u64) as f64 / steady);
        losses.push(f64::from(p.run.final_loss));
        participation.push(p.run.mean_participation * WORKERS as f64);
        wire += p.run.bytes_on_wire;
        rounds += p.run.rounds;
        retries += p.run.probe_retries;
        reconnects += p.reconnect_attempts;
        rejects += p.auth_rejects;
        degraded += p.run.rounds_degraded;
        if i == 0 {
            first_peak_mb = crate::peak_rss_mb();
        }
        i += 1;
    }

    // After the timed runs, so its echo thread stays out of `peak_rss_mb`.
    if let Err(e) = layers::check(&shape(WORKERS), seed) {
        out.fail(format!("layer microcall: {e}"));
    }

    if !trace {
        out.median("rounds_per_s", rates);
        out.median("samples_per_s", samples);
        out.mean("setup_s", setups);
        out.mean("final_loss", losses);
        out.value("peak_rss_mb", first_peak_mb);
        out.check_complete(false);
        return out;
    }

    let rate = median(&rates);
    let round_us = 1e6 / rate;
    let compute_us = (COMPUTE_US.0 + COMPUTE_US.1) as f64 / 2.0;
    let contributors = mean(&participation);
    // No DES on this path: its spans and counters read 0.
    for name in [
        "core.reply_ms",
        "core.probe_us",
        "core.compute_done_us",
        "core.reduce_done_ms",
        "core.ps_done_ms",
        "core.events_per_round",
        "core.probe_useful_ratio",
        "sim.engine_self_ms_per_round",
        "sim.virtual_s",
    ] {
        out.value(name, 0.0);
    }
    out.value("core.contributors_per_round", contributors);
    out.value("core.probe_retries", retries as f64);
    out.value("runtime.round_overhead_us", round_us - compute_us);
    out.value(
        "runtime.wire_bytes_per_round",
        wire as f64 / rounds.max(1) as f64,
    );
    out.value("runtime.reconnects", reconnects as f64);
    out.value("runtime.auth_rejects", rejects as f64);
    out.value("runtime.rounds_degraded", degraded as f64);
    // Nothing is traced inside the process world: both rates are the same
    // untraced runs, and what configured compute does not cover is the
    // unattributed remainder.
    out.value("trace.rounds_per_s_untraced", rate);
    out.value("trace.rounds_per_s_traced", rate);
    out.value("trace.overhead_share", 0.0);
    out.value(
        "trace.unattributed_share",
        (round_us - compute_us) / round_us,
    );

    let remaining = (seconds - start.elapsed().as_secs_f64()).max(0.7);
    let budget = Duration::from_secs_f64(remaining / 14.0);
    let shape = shape(contributors.round() as usize);
    if let Err(e) = layers::measure(&shape, seed, budget, &mut out) {
        out.fail(format!("layer microcall: {e}"));
    }
    out.check_complete(true);
    out
}
