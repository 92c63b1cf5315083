//! Spans recorded from outside the program.
//!
//! [`Traced`] wraps any RNA-family [`Protocol`] and times every handler
//! call the engine makes, keyed by what the call handles: the start hook,
//! a finished compute, or a delivered message of one [`RnaMsg`] kind. It
//! forwards every call unchanged, so a traced run replays the bare run
//! bit for bit; only the clock reads are added.
//!
//! The engine calls one handler at a time and handlers never nest, so the
//! handler spans are disjoint children of the `Engine::run` span. What no
//! handler covers — the event loop itself, the queue, the final
//! evaluation — is the run span's self time, reported as the
//! unattributed remainder.

use std::time::Instant;

use rna_core::rna::RnaMsg;
use rna_core::sim::{Ctx, Protocol};

/// What one handler span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Protocol::on_start` / `on_resume`.
    Start,
    /// `Protocol::on_compute_done` (includes the next iteration's
    /// gradient, which `Ctx::begin_compute` computes eagerly).
    ComputeDone,
    /// A `Probe` delivered to a worker.
    Probe,
    /// A `ProbeReply` delivered to the controller: the reduce launch,
    /// including the wire codec and the partial reduce.
    ProbeReply,
    /// A `ProbeRetry` timer.
    ProbeRetry,
    /// A `ReduceDone` completion: apply, round edge, evaluation.
    ReduceDone,
    /// A hierarchical `PsDone` completion: PS blend and broadcast.
    PsDone,
    /// Any other message kind (standby takeover, future kinds).
    OtherMsg,
    /// `Protocol::on_crash` / `on_rejoin`.
    Fault,
}

impl Span {
    /// Every span kind, in report order.
    pub const ALL: [Span; 9] = [
        Span::Start,
        Span::ComputeDone,
        Span::Probe,
        Span::ProbeReply,
        Span::ProbeRetry,
        Span::ReduceDone,
        Span::PsDone,
        Span::OtherMsg,
        Span::Fault,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Span::Start => "on_start",
            Span::ComputeDone => "on_compute_done",
            Span::Probe => "msg.Probe",
            Span::ProbeReply => "msg.ProbeReply",
            Span::ProbeRetry => "msg.ProbeRetry",
            Span::ReduceDone => "msg.ReduceDone",
            Span::PsDone => "msg.PsDone",
            Span::OtherMsg => "msg.other",
            Span::Fault => "on_crash/on_rejoin",
        }
    }

    /// The span kind of a delivered message.
    pub fn of_msg(msg: &RnaMsg) -> Span {
        // The wildcard also counts message kinds added later, without an
        // edit here.
        match msg {
            RnaMsg::Probe { .. } => Span::Probe,
            RnaMsg::ProbeReply { .. } => Span::ProbeReply,
            RnaMsg::ProbeRetry { .. } => Span::ProbeRetry,
            RnaMsg::ReduceDone { .. } => Span::ReduceDone,
            RnaMsg::PsDone { .. } => Span::PsDone,
            _ => Span::OtherMsg,
        }
    }

    /// Position in [`Span::ALL`], which lists the kinds in declaration
    /// order.
    fn index(self) -> usize {
        self as usize
    }
}

/// Calls and total time of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of spans recorded.
    pub calls: u64,
    /// Their summed duration in nanoseconds.
    pub ns: u64,
}

impl SpanStat {
    /// Mean duration per call in nanoseconds (0 with no calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Aggregated handler spans of one or more traced runs, kept in memory
/// until the run ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    stats: [SpanStat; Span::ALL.len()],
    /// Summed duration of the enclosing `Engine::run` spans.
    pub run_ns: u64,
    /// Rounds completed by the traced runs.
    pub rounds: u64,
}

impl SpanLog {
    /// Adds one span.
    pub fn record(&mut self, span: Span, ns: u64) {
        let s = &mut self.stats[span.index()];
        s.calls += 1;
        s.ns += ns;
    }

    /// The aggregate of one span kind.
    pub fn stat(&self, span: Span) -> SpanStat {
        self.stats[span.index()]
    }

    /// Handler calls of every kind.
    pub fn calls(&self) -> u64 {
        self.stats.iter().map(|s| s.calls).sum()
    }

    /// Time the handler spans cover.
    pub fn covered_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.ns).sum()
    }

    /// The run spans' self time: their duration minus what the handler
    /// spans cover. Handler spans are disjoint and lie inside the run
    /// spans, so the covered time is their plain sum.
    pub fn unattributed_ns(&self) -> u64 {
        self_time_ns(self.run_ns, self.covered_ns())
    }

    /// Folds another log into this one.
    pub fn merge(&mut self, other: &SpanLog) {
        for (a, b) in self.stats.iter_mut().zip(&other.stats) {
            a.calls += b.calls;
            a.ns += b.ns;
        }
        self.run_ns += other.run_ns;
        self.rounds += other.rounds;
    }
}

/// Self time of a span of `total_ns` whose disjoint children cover
/// `children_ns`. Clock reads taken at slightly different instants can
/// make the children sum past the parent by a few nanoseconds; the self
/// time then floors at zero.
pub fn self_time_ns(total_ns: u64, children_ns: u64) -> u64 {
    total_ns.saturating_sub(children_ns)
}

/// A protocol wrapped so every handler call is timed into a [`SpanLog`].
pub struct Traced<'a, P> {
    inner: P,
    log: &'a mut SpanLog,
}

impl<'a, P> Traced<'a, P> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: P, log: &'a mut SpanLog) -> Self {
        Traced { inner, log }
    }

    fn timed<R>(&mut self, span: Span, f: impl FnOnce(&mut P) -> R) -> R {
        let t = Instant::now();
        let out = f(&mut self.inner);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.log.record(span, ns);
        out
    }
}

impl<P: Protocol<Msg = RnaMsg>> Protocol for Traced<'_, P> {
    type Msg = RnaMsg;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        self.timed(Span::Start, |p| p.on_start(ctx));
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize, iter: u64) {
        self.timed(Span::ComputeDone, |p| p.on_compute_done(ctx, worker, iter));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, RnaMsg>, from: usize, to: usize, msg: RnaMsg) {
        let span = Span::of_msg(&msg);
        self.timed(span, |p| p.on_message(ctx, from, to, msg));
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize) {
        self.timed(Span::Fault, |p| p.on_crash(ctx, worker));
    }

    fn on_rejoin(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize) {
        self.timed(Span::Fault, |p| p.on_rejoin(ctx, worker));
    }

    fn restore(&mut self, blob: &[u8]) -> bool {
        self.inner.restore(blob)
    }

    fn on_resume(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        self.timed(Span::Start, |p| p.on_resume(ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rna_core::hier::HierRnaProtocol;
    use rna_core::rna::RnaProtocol;
    use rna_core::sim::{Engine, TrainSpec};
    use rna_core::{Compression, RnaConfig};
    use rna_workload::HeterogeneityModel;

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        assert_eq!(self_time_ns(100, 30), 70);
        assert_eq!(self_time_ns(100, 100), 0);
        assert_eq!(self_time_ns(100, 103), 0);
    }

    #[test]
    fn unattributed_is_run_time_minus_every_handler_span() {
        let mut log = SpanLog::default();
        log.record(Span::ComputeDone, 40);
        log.record(Span::ComputeDone, 20);
        log.record(Span::ProbeReply, 25);
        log.run_ns = 100;
        log.rounds = 1;
        assert_eq!(log.calls(), 3);
        assert_eq!(log.covered_ns(), 85);
        assert_eq!(log.unattributed_ns(), 15);
        assert_eq!(log.stat(Span::ComputeDone).mean_ns(), 30.0);
        assert_eq!(log.stat(Span::PsDone).mean_ns(), 0.0);

        let mut sum = log.clone();
        sum.merge(&log);
        assert_eq!(sum.run_ns, 200);
        assert_eq!(sum.unattributed_ns(), 30);
        assert_eq!(sum.stat(Span::ProbeReply).calls, 2);
    }

    #[test]
    fn all_lists_every_kind_at_its_index() {
        for (i, span) in Span::ALL.into_iter().enumerate() {
            assert_eq!(span.index(), i);
        }
    }

    #[test]
    fn message_kinds_map_to_their_spans() {
        let reply = RnaMsg::ProbeReply {
            group: 0,
            round: 1,
            worker: 2,
        };
        assert_eq!(Span::of_msg(&reply), Span::ProbeReply);
        let takeover = RnaMsg::StandbyTakeover { term: 1 };
        assert_eq!(Span::of_msg(&takeover), Span::OtherMsg);
    }

    fn spec(n: usize) -> TrainSpec {
        TrainSpec::smoke_test(n, 5)
            .with_hetero(HeterogeneityModel::mixed_groups(n, 0, 10, 20, 30))
            .with_max_rounds(25)
    }

    /// The adapter forwards every handler unchanged: a traced run ends
    /// bit-identical to the bare run, flat and hierarchical.
    #[test]
    fn traced_flat_run_matches_bare_run() {
        let config = RnaConfig::default().with_compression(Compression::Int8);
        let bare = Engine::new(spec(8), RnaProtocol::new(8, config.clone(), 0)).run();
        let mut log = SpanLog::default();
        let traced = Engine::new(
            spec(8),
            Traced::new(RnaProtocol::new(8, config, 0), &mut log),
        )
        .run();
        assert_eq!(
            bare.final_loss().map(f64::to_bits),
            traced.final_loss().map(f64::to_bits)
        );
        assert_eq!(bare.wall_time, traced.wall_time);
        assert_eq!(bare.global_rounds, traced.global_rounds);
        assert_eq!(bare.bytes_on_wire, traced.bytes_on_wire);
        assert_eq!(traced.protocol, "rna");
        assert_eq!(log.stat(Span::Start).calls, 1);
        assert!(log.stat(Span::ComputeDone).calls >= traced.total_iterations());
        assert!(log.stat(Span::ProbeReply).calls >= bare.global_rounds);
        assert_eq!(log.stat(Span::ReduceDone).calls, bare.global_rounds);
    }

    #[test]
    fn traced_hier_run_matches_bare_run() {
        let config = RnaConfig::default().with_compression(Compression::Int8);
        let s = spec(8);
        let bare = Engine::new(s.clone(), HierRnaProtocol::auto(&s, config.clone())).run();
        let mut log = SpanLog::default();
        let proto = Traced::new(HierRnaProtocol::auto(&s, config), &mut log);
        let traced = Engine::new(s, proto).run();
        assert_eq!(
            bare.final_loss().map(f64::to_bits),
            traced.final_loss().map(f64::to_bits)
        );
        assert_eq!(bare.wall_time, traced.wall_time);
        assert_eq!(bare.global_rounds, traced.global_rounds);
        assert!(log.stat(Span::PsDone).calls > 0);
    }
}
