//! The two DES workloads: `Engine::new` / `Engine::run` over RNA.
//!
//! A run cycles through a fixed set of sub-seeds derived from the workload
//! seed, one engine per repetition, until its time is spent. End-to-end
//! rates are medians over the repetitions; `final_loss` is the mean over
//! the sub-seeds, so it depends on the seed only and is bit-exact across
//! machines. Every sub-seed that runs twice must replay bit-identically.

use std::time::{Duration, Instant};

use rna_core::hier::HierRnaProtocol;
use rna_core::rna::{RnaMsg, RnaProtocol};
use rna_core::sim::{Engine, Protocol, TaskKind, TrainSpec};
use rna_core::{Compression, RnaConfig, RunResult, StopReason};
use rna_simnet::SimDuration;
use rna_training::LrSchedule;
use rna_workload::HeterogeneityModel;

use crate::layers::{self, Shape};
use crate::report::Outcome;
use crate::stats::{failed_rounds, mean, median};
use crate::trace::{Span, SpanLog, Traced};

/// One DES workload.
pub struct DesWorkload {
    workers: usize,
    /// Hierarchical RNA over the ζ-split groups, or flat RNA.
    hier: bool,
    codec: Compression,
    dim: usize,
    classes: usize,
    samples: usize,
    spread: f32,
    lr: f32,
    batch: usize,
    /// Round budget of one engine run.
    rounds: u64,
    eval_every: u64,
    hetero: fn(usize) -> HeterogeneityModel,
}

/// Distinct sub-seeds per run. `final_loss` averages over all of them.
const SUBSEEDS: usize = 8;

/// The paper's §4 hierarchical setting with a gradient wide enough for
/// the data path to do real work: a 2048×32 softmax (65,568 parameters),
/// int8 wire, two speed classes so the ζ-split forms two groups, random
/// per-iteration delays inside each. The learning rate keeps the task
/// learning through the whole budget (see the README: a saturated task
/// measures float underflow, not the system).
pub const HIER_WIDE: DesWorkload = DesWorkload {
    workers: 16,
    hier: true,
    codec: Compression::Int8,
    dim: 2048,
    classes: 32,
    samples: 4096,
    spread: 4.0,
    lr: 3e-4,
    batch: 16,
    rounds: 20,
    eval_every: 10,
    hetero: |n| HeterogeneityModel::mixed_groups(n, 0, 20, 40, 60),
};

/// 10,000 workers on the 36-parameter smoke model: tensor work is nil, so
/// O(workers) round bookkeeping and the event loop dominate. The learning
/// rate is small because RNA scales it by the contributor count.
pub const FLAT_10K: DesWorkload = DesWorkload {
    workers: 10_000,
    hier: false,
    codec: Compression::Lossless,
    dim: 8,
    classes: 4,
    samples: 4096,
    spread: 1.0,
    lr: 1e-6,
    batch: 16,
    rounds: 20,
    eval_every: 5,
    hetero: |n| HeterogeneityModel::dynamic_uniform(n, 0, 20),
};

/// splitmix64: decorrelated sub-seeds from one workload seed.
pub fn subseed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one engine run produced. Only these figures are kept: holding
/// every `RunResult` (timelines included) would grow the heap run over run
/// and slow later engines.
struct Rep {
    sub: usize,
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    rounds: u64,
    stop: StopReason,
    iterations: u64,
    final_loss: f64,
    virtual_time: SimDuration,
    participation: f64,
    probe_retries: u64,
    bytes_on_wire: u64,
    learning: Result<(), String>,
}

impl Rep {
    fn new(sub: usize, traced: bool, setup_s: f64, wall_s: f64, r: &RunResult) -> Rep {
        Rep {
            sub,
            traced,
            setup_s,
            wall_s,
            rounds: r.global_rounds,
            stop: r.stop_reason,
            iterations: r.total_iterations(),
            final_loss: r.final_loss().unwrap_or(f64::NAN),
            virtual_time: r.wall_time,
            participation: r.mean_participation(),
            probe_retries: r.probe_retries,
            bytes_on_wire: r.bytes_on_wire,
            learning: still_learning(r),
        }
    }

    fn rate(&self) -> f64 {
        self.rounds as f64 / self.wall_s
    }
}

impl DesWorkload {
    fn spec(&self, seed: u64) -> TrainSpec {
        let n = self.workers;
        let mut spec = TrainSpec::smoke_test(n, seed)
            .with_hetero((self.hetero)(n))
            .with_max_rounds(self.rounds)
            .with_max_time(SimDuration::from_secs(86_400));
        spec.task = TaskKind::Classification {
            dim: self.dim,
            classes: self.classes,
            hidden: None,
            samples: self.samples,
            spread: self.spread,
        };
        spec.lr = LrSchedule::Constant(self.lr);
        spec.batch_size = self.batch;
        spec.eval_every = self.eval_every;
        spec
    }

    fn config(&self) -> RnaConfig {
        RnaConfig::default().with_compression(self.codec)
    }

    /// One engine: set-up (spec, protocol, `Engine::new`) and run, each
    /// timed. With a log the protocol runs inside the tracing adapter.
    fn rep(&self, seed: u64, log: Option<&mut SpanLog>) -> (f64, f64, RunResult, usize) {
        let t = Instant::now();
        let spec = self.spec(seed);
        if self.hier {
            let proto = HierRnaProtocol::auto(&spec, self.config());
            let groups = proto.num_groups();
            let (setup, wall, r) = drive(spec, proto, t, log);
            (setup, wall, r, groups)
        } else {
            let proto = RnaProtocol::new(self.workers, self.config(), 0);
            let (setup, wall, r) = drive(spec, proto, t, log);
            (setup, wall, r, 1)
        }
    }

    /// The workload's shapes for the layer microcalls.
    fn shape(&self, contributors: usize, groups: usize) -> Shape {
        Shape {
            dim: self.dim,
            classes: self.classes,
            samples: self.samples,
            spread: self.spread,
            batch: self.batch,
            codec: self.codec,
            contributors: contributors.max(1),
            groups: groups.max(1),
            // One compute completion in flight per worker plus a few
            // protocol timers.
            queue_depth: self.workers + 4,
        }
    }
}

fn drive<P: Protocol<Msg = RnaMsg>>(
    spec: TrainSpec,
    proto: P,
    t0: Instant,
    log: Option<&mut SpanLog>,
) -> (f64, f64, RunResult) {
    match log {
        None => {
            let engine = Engine::new(spec, proto);
            let setup = t0.elapsed().as_secs_f64();
            let t = Instant::now();
            let r = engine.run();
            (setup, t.elapsed().as_secs_f64(), r)
        }
        Some(log) => {
            let mut local = SpanLog::default();
            let engine = Engine::new(spec, Traced::new(proto, &mut local));
            let setup = t0.elapsed().as_secs_f64();
            let t = Instant::now();
            let r = engine.run();
            let wall = t.elapsed();
            local.run_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
            local.rounds = r.global_rounds;
            log.merge(&local);
            (setup, wall.as_secs_f64(), r)
        }
    }
}

/// Runs the workload for `seconds` and reports end-to-end metrics, or with
/// `trace` the per-layer ones.
pub fn run(w: &DesWorkload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let subs: Vec<u64> = (0..SUBSEEDS as u64).map(|i| subseed(seed, i)).collect();

    let mut reps: Vec<Rep> = Vec::new();
    let mut log = SpanLog::default();
    let mut groups = 1;
    let mut first_peak_mb = f64::NAN;
    // Untraced: cycle the sub-seeds; one repeat at least, for the replay
    // check. Traced: each sub-seed untraced then traced, leaving time for
    // the microcalls.
    let rep_budget = if trace { 0.6 * seconds } else { seconds };
    let min_reps = if trace { 2 } else { SUBSEEDS + 1 };
    let mut i = 0;
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < rep_budget {
        let (sub, traced) = if trace {
            ((i / 2) % SUBSEEDS, i % 2 == 1)
        } else {
            (i % SUBSEEDS, false)
        };
        let l = if traced { Some(&mut log) } else { None };
        let (setup_s, wall_s, result, g) = w.rep(subs[sub], l);
        groups = g;
        reps.push(Rep::new(sub, traced, setup_s, wall_s, &result));
        if i == 0 {
            first_peak_mb = crate::peak_rss_mb();
        }
        i += 1;
    }

    // Correctness: the microcalls are right, every run finishes its
    // budget, and the same sub-seed gives the same bits. The microcalls run
    // after the timed engines so their inputs stay out of `peak_rss_mb`.
    if let Err(e) = layers::check(&w.shape(w.workers.min(64), 2), seed) {
        out.fail(format!("layer microcall: {e}"));
    }
    for r in &reps {
        out.attempted += w.rounds;
        out.failed += failed_rounds(w.rounds, r.rounds, 0);
        if r.stop != StopReason::MaxRounds || r.rounds != w.rounds {
            out.fail(format!(
                "sub-seed {} stopped with {:?} after {} of {} rounds",
                r.sub, r.stop, r.rounds, w.rounds
            ));
        }
        let first = reps.iter().find(|o| o.sub == r.sub).expect("r itself");
        if first.final_loss.to_bits() != r.final_loss.to_bits()
            || first.virtual_time != r.virtual_time
        {
            out.fail(format!(
                "sub-seed {} did not replay: final loss {} vs {}, virtual {:?} vs {:?}",
                r.sub, first.final_loss, r.final_loss, first.virtual_time, r.virtual_time
            ));
        }
        if let Err(e) = &r.learning {
            out.fail(format!("sub-seed {}: {e}", r.sub));
        }
    }

    // Per-sub-seed values, from the first run of each sub-seed seen.
    let firsts: Vec<&Rep> = (0..SUBSEEDS)
        .filter_map(|s| reps.iter().find(|r| r.sub == s))
        .collect();
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();

    if !trace {
        out.median("rounds_per_s", untraced.iter().map(|r| r.rate()).collect());
        out.median(
            "samples_per_s",
            untraced
                .iter()
                .map(|r| (r.iterations * w.batch as u64) as f64 / r.wall_s)
                .collect(),
        );
        out.median("setup_s", reps.iter().map(|r| r.setup_s).collect());
        out.mean("final_loss", firsts.iter().map(|r| r.final_loss).collect());
        out.value("peak_rss_mb", first_peak_mb);
        out.check_complete(false);
        return out;
    }

    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let rounds = log.rounds.max(1) as f64;
    let untraced_rate = median(&untraced.iter().map(|r| r.rate()).collect::<Vec<_>>());
    let traced_rate = median(&traced.iter().map(|r| r.rate()).collect::<Vec<_>>());
    let contributors = mean(
        &traced
            .iter()
            .map(|r| r.participation * w.workers as f64 / groups as f64)
            .collect::<Vec<_>>(),
    );
    out.value("core.reply_ms", log.stat(Span::ProbeReply).mean_ns() / 1e6);
    out.value("core.probe_us", log.stat(Span::Probe).mean_ns() / 1e3);
    out.value(
        "core.compute_done_us",
        log.stat(Span::ComputeDone).mean_ns() / 1e3,
    );
    out.value(
        "core.reduce_done_ms",
        log.stat(Span::ReduceDone).mean_ns() / 1e6,
    );
    out.value("core.ps_done_ms", log.stat(Span::PsDone).mean_ns() / 1e6);
    out.value("core.events_per_round", log.calls() as f64 / rounds);
    let probes = log.stat(Span::Probe).calls;
    out.value(
        "core.probe_useful_ratio",
        if probes == 0 {
            0.0
        } else {
            log.rounds as f64 / probes as f64
        },
    );
    out.value("core.contributors_per_round", contributors);
    out.value(
        "core.probe_retries",
        traced.iter().map(|r| r.probe_retries as f64).sum(),
    );
    out.value(
        "sim.engine_self_ms_per_round",
        log.unattributed_ns() as f64 / 1e6 / rounds,
    );
    out.value(
        "sim.virtual_s",
        mean(
            &firsts
                .iter()
                .map(|r| r.virtual_time.as_secs_f64())
                .collect::<Vec<_>>(),
        ),
    );
    out.value(
        "runtime.wire_bytes_per_round",
        traced.iter().map(|r| r.bytes_on_wire as f64).sum::<f64>() / rounds,
    );
    for name in [
        "runtime.round_overhead_us",
        "runtime.reconnects",
        "runtime.auth_rejects",
        "runtime.rounds_degraded",
    ] {
        out.value(name, 0.0);
    }
    out.value("trace.rounds_per_s_untraced", untraced_rate);
    out.value("trace.rounds_per_s_traced", traced_rate);
    out.value("trace.overhead_share", 1.0 - traced_rate / untraced_rate);
    out.value(
        "trace.unattributed_share",
        log.unattributed_ns() as f64 / log.run_ns.max(1) as f64,
    );

    for span in Span::ALL {
        let st = log.stat(span);
        if st.calls > 0 {
            out.notes.push(format!(
                "span {:<20} {:>9} calls {:>12.1} us/call {:>6.1}% of Engine::run",
                span.name(),
                st.calls,
                st.mean_ns() / 1e3,
                100.0 * st.ns as f64 / log.run_ns.max(1) as f64
            ));
        }
    }
    out.notes.push(format!(
        "span {:<20} {:>9} {:>12.1} ms/round {:>6.1}% of Engine::run",
        "unattributed",
        "",
        log.unattributed_ns() as f64 / 1e6 / rounds,
        100.0 * log.unattributed_ns() as f64 / log.run_ns.max(1) as f64
    ));

    let remaining = (seconds - start.elapsed().as_secs_f64()).max(0.7);
    let shape = w.shape(contributors.round() as usize, groups);
    let budget = Duration::from_secs_f64(remaining / 14.0);
    if let Err(e) = layers::measure(&shape, seed, budget, &mut out) {
        out.fail(format!("layer microcall: {e}"));
    }
    out.check_complete(true);
    out
}

/// The task must still be learning when the budget ends: the loss fell
/// from its first evaluation, and stayed above a twentieth of it. A
/// saturated task (loss near 0) runs at the speed of float underflow.
fn still_learning(r: &RunResult) -> Result<(), String> {
    let points = r.history.points();
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return Err("no evaluation recorded".into());
    };
    if !(last.loss.is_finite() && last.loss < first.loss && last.loss > first.loss / 20.0) {
        return Err(format!(
            "loss went {} -> {}: not learning, or saturated",
            first.loss, last.loss
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subseeds_are_distinct_and_repeatable() {
        let a: Vec<u64> = (0..4).map(|i| subseed(7, i)).collect();
        let b: Vec<u64> = (0..4).map(|i| subseed(7, i)).collect();
        assert_eq!(a, b);
        let mut c = a.clone();
        c.dedup();
        assert_eq!(c.len(), 4);
        assert_ne!(subseed(8, 0), a[0]);
    }

    #[test]
    fn workload_specs_have_the_declared_shapes() {
        let s = HIER_WIDE.spec(1);
        assert_eq!(HIER_WIDE.shape(1, 2).params(), 65_568);
        assert_eq!(s.num_workers, 16);
        let proto = HierRnaProtocol::auto(&s, HIER_WIDE.config());
        assert_eq!(proto.num_groups(), 2, "two speed classes, two groups");
        assert_eq!(FLAT_10K.shape(1, 1).params(), 36);
        assert_eq!(FLAT_10K.spec(1).num_workers, 10_000);
    }
}
