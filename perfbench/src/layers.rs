//! Per-layer microcalls at a workload's own shapes.
//!
//! Each layer's public functions are called directly from the benchmark
//! with the sizes the workload runs them at: model size, batch, codec,
//! wire threads, contributors per reduce, PS groups and event-queue depth.
//! [`check`] runs every microcall once and verifies its output;
//! [`measure`] times them.

use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rna_collectives::partial_allreduce_pooled;
use rna_ps::ReplicatedGroupServer;
use rna_runtime::proto::{
    compute_mac, read_frame_body, read_msg, verify_mac, write_msg, EncodedGradBatch, GradBatch, Msg,
};
use rna_runtime::AuthKey;
use rna_simnet::{EventQueue, SimRng, SimTime};
use rna_tensor::codec::{self, Compression};
use rna_tensor::{Tensor, TensorPool};
use rna_training::model::SoftmaxClassifier;
use rna_training::{BatchSampler, Dataset, Model, Sgd};

use crate::report::Outcome;

/// The sizes one workload runs each layer at.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Feature dimension of the softmax task.
    pub dim: usize,
    /// Classes of the softmax task.
    pub classes: usize,
    /// Corpus size; the validation split is a fifth of it.
    pub samples: usize,
    /// Blob spread of the task.
    pub spread: f32,
    /// Per-worker mini-batch.
    pub batch: usize,
    /// Gradient wire codec.
    pub codec: Compression,
    /// Contributors per partial reduce.
    pub contributors: usize,
    /// PS groups (1 where the workload has no PS).
    pub groups: usize,
    /// Pending events in the DES queue.
    pub queue_depth: usize,
}

impl Shape {
    /// Parameters of the softmax model (`dim × classes` weights plus
    /// biases).
    pub fn params(&self) -> usize {
        self.dim * self.classes + self.classes
    }
}

/// Inputs built once from the workload seed.
struct Inputs {
    train: Dataset,
    val: Dataset,
    model: SoftmaxClassifier,
    grad: Tensor,
    contributions: Vec<Tensor>,
    draw_rng: SimRng,
    key: AuthKey,
}

impl Inputs {
    fn new(shape: &Shape, seed: u64) -> Inputs {
        let mut rng = SimRng::seed(seed);
        let ds = Dataset::blobs(
            shape.samples,
            shape.dim,
            shape.classes,
            shape.spread,
            &mut rng,
        );
        let (train, val) = ds.split(0.2);
        let model = SoftmaxClassifier::new(shape.dim, shape.classes, &mut rng);
        let mut sampler = BatchSampler::new(rng.fork(1), shape.batch);
        let (_, grad) = model.loss_and_grad(&sampler.sample(&train));
        let contributions = (0..shape.contributors.max(1))
            .map(|_| gaussian(&mut rng, shape.params()))
            .collect();
        let key = AuthKey {
            k0: rng.uniform_u64(0..u64::MAX),
            k1: rng.uniform_u64(0..u64::MAX),
        };
        Inputs {
            train,
            val,
            model,
            grad,
            contributions,
            draw_rng: rng.fork(2),
            key,
        }
    }
}

fn gaussian(rng: &mut SimRng, len: usize) -> Tensor {
    (0..len).map(|_| rng.normal(0.0, 1.0) as f32).collect()
}

/// Verifies every microcall's output once at `shape`: the codec round trip
/// stays within its bound, the fused reduce matches the unfused reference,
/// the PS blend is the slot mean, a worker frame parses back to the wire
/// gradient, a loopback echo returns the frame intact and the handshake
/// MAC verifies (and a tampered one does not).
///
/// # Errors
///
/// A description of the first wrong output.
pub fn check(shape: &Shape, seed: u64) -> Result<(), String> {
    let mut inp = Inputs::new(shape, seed);
    let n = shape.params();
    let threads = codec::wire_threads(n);

    // Codec round trip.
    let x = inp.contributions[0].clone();
    let mut frame = Vec::new();
    let rng = &mut inp.draw_rng;
    let mut draw = || rng.uniform_u64(0..1 << 32) as u32;
    shape
        .codec
        .encode_slice_mt(x.as_slice(), &mut frame, &mut draw, threads);
    if frame.len() as u64 != shape.codec.frame_bytes(n) {
        return Err(format!(
            "codec {} framed {} bytes, expected {}",
            shape.codec.name(),
            frame.len(),
            shape.codec.frame_bytes(n)
        ));
    }
    let mut back = vec![0.0f32; n];
    shape
        .codec
        .decode_slice_mt(&frame, &mut back, threads)
        .map_err(|e| format!("codec {} rejected its own frame: {e:?}", shape.codec.name()))?;
    let bound = codec_bound(shape.codec, x.as_slice());
    for (i, (&a, &b)) in x.as_slice().iter().zip(&back).enumerate() {
        if (a - b).abs() > bound(a) {
            return Err(format!(
                "codec {} element {i}: {a} came back as {b}",
                shape.codec.name()
            ));
        }
    }

    // Fused partial reduce against the unfused reference.
    let mut pool = TensorPool::new();
    let refs: Vec<Option<&Tensor>> = inp.contributions.iter().map(Some).collect();
    let out = partial_allreduce_pooled(&refs, &mut pool).ok_or("reduce returned nothing")?;
    let reference = unfused_mean(&inp.contributions);
    for (i, (&a, &b)) in out.reduced.as_slice().iter().zip(&reference).enumerate() {
        if (a - b).abs() > 1e-5 * (1.0 + b.abs()) {
            return Err(format!("reduce element {i}: fused {a} vs unfused {b}"));
        }
    }

    // PS blend: the mean of the slots.
    let mut ps = ReplicatedGroupServer::new(Tensor::zeros(n), shape.groups);
    for g in 0..shape.groups {
        ps.push(g, &inp.contributions[g % inp.contributions.len()]);
    }
    let blended = ps.pull_blended();
    let slots: Vec<Tensor> = (0..shape.groups)
        .map(|g| inp.contributions[g % inp.contributions.len()].clone())
        .collect();
    for (i, (&a, &b)) in blended
        .as_slice()
        .iter()
        .zip(&unfused_mean(&slots))
        .enumerate()
    {
        if (a - b).abs() > 1e-5 * (1.0 + b.abs()) {
            return Err(format!("ps blend element {i}: {a} vs slot mean {b}"));
        }
    }

    // Worker frame round trip.
    let mut wire = FrameEncoder::new(shape.codec, n);
    let mut g = inp.grad.clone();
    wire.encode(7, &mut g, &mut inp.draw_rng);
    let mut decoded = vec![0.0f32; n];
    let entries = frame_decode(wire.body(), shape.codec, &mut decoded)?;
    if entries != vec![7]
        || decoded
            .iter()
            .zip(g.as_slice())
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err("worker frame did not parse back to the wire gradient".into());
    }

    // Loopback echo.
    let mut echo = Echo::start()?;
    let sent = Msg::Grad {
        iter: 3,
        grad: inp.grad.clone(),
    };
    let got = echo.round_trip(&sent)?;
    echo.stop()?;
    if got != sent {
        return Err("loopback echo changed the frame".into());
    }

    // Handshake MAC.
    let mac = compute_mac(&inp.key, 11, 2, 1, 0);
    if verify_mac(&inp.key, 11, 2, 1, 0, mac).is_err() {
        return Err("handshake MAC did not verify".into());
    }
    if verify_mac(&inp.key, 11, 2, 1, 0, mac ^ 1).is_ok() {
        return Err("tampered handshake MAC verified".into());
    }
    Ok(())
}

/// Largest round-trip error the codec may make on element `x`.
fn codec_bound(codec: Compression, xs: &[f32]) -> Box<dyn Fn(f32) -> f32> {
    match codec {
        Compression::Lossless => Box::new(|_| 0.0),
        // Stochastic rounding lands on one of the two neighbouring levels.
        Compression::Int8 => {
            let max = xs.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let step = max / 127.0;
            Box::new(move |_| step * (1.0 + 1e-5))
        }
        // Half precision: relative 2^-11 plus the subnormal floor.
        Compression::Fp16 => Box::new(|x| x.abs() * 1e-3 + 6e-8),
        // Top-k drops elements outright.
        Compression::TopK { .. } => Box::new(|x| x.abs() * (1.0 + 1e-6)),
    }
}

/// Element-wise mean, summed in input order then scaled: the reference the
/// fused kernel must match.
fn unfused_mean(inputs: &[Tensor]) -> Vec<f32> {
    let mut out = vec![0.0f32; inputs[0].len()];
    for t in inputs {
        for (o, &v) in out.iter_mut().zip(t.as_slice()) {
            *o += v;
        }
    }
    let inv = 1.0 / inputs.len() as f32;
    out.iter_mut().for_each(|o| *o *= inv);
    out
}

/// The worker's write path: one batch frame, codec payload appended in
/// place, heartbeat piggybacked. Like the worker, it looks the wire thread
/// count up on every gradient (as the coordinator's read path does per
/// frame).
struct FrameEncoder {
    codec: Compression,
    residual: Tensor,
    batch: GradBatch,
}

impl FrameEncoder {
    fn new(codec: Compression, n: usize) -> Self {
        FrameEncoder {
            codec,
            residual: Tensor::zeros(n),
            batch: GradBatch::new(),
        }
    }

    fn encode(&mut self, iter: u64, grad: &mut Tensor, rng: &mut SimRng) {
        self.batch.reset();
        let threads = codec::wire_threads(grad.len());
        let out = self.batch.begin_entry(iter);
        let mut draw = || rng.uniform_u64(0..1 << 32) as u32;
        let (_, err) = codec::encode_with_feedback_append(
            self.codec,
            grad,
            &mut self.residual,
            out,
            &mut draw,
            threads,
        );
        self.batch.finish_entry(err);
        let _ = self.batch.frame();
        self.batch.piggyback(&Msg::Heartbeat { iter: iter + 1 });
    }

    /// The batch frame's body: behind the length prefix, up to the
    /// piggybacked heartbeat.
    fn body(&self) -> &[u8] {
        let bytes = self.batch.wire_bytes();
        let len = u32::from_le_bytes(bytes[..4].try_into().expect("prefix")) as usize;
        &bytes[4..4 + len]
    }
}

/// The coordinator's read path for one batch frame; returns the entries'
/// iterations.
fn frame_decode(body: &[u8], codec: Compression, out: &mut [f32]) -> Result<Vec<u64>, String> {
    let threads = codec::wire_threads(out.len());
    let mut iters = Vec::new();
    for entry in EncodedGradBatch::parse(body).map_err(|e| format!("{e}"))? {
        let entry = entry.map_err(|e| format!("{e}"))?;
        codec
            .decode_slice_mt(entry.frame, out, threads)
            .map_err(|e| format!("{e:?}"))?;
        iters.push(entry.iter);
    }
    Ok(iters)
}

/// A loopback `TcpStream` pair whose far end echoes every frame back.
struct Echo {
    client: TcpStream,
    scratch: Vec<u8>,
    thread: std::thread::JoinHandle<()>,
}

impl Echo {
    fn start() -> Result<Echo, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
        let client = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let (mut server, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        client
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        server
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let thread = std::thread::spawn(move || {
            let mut body = Vec::new();
            let mut out = Vec::new();
            // Ends when the client closes its side.
            while read_frame_body(&mut server, &mut body).is_ok() {
                out.clear();
                out.extend_from_slice(&(body.len() as u32).to_le_bytes());
                out.extend_from_slice(&body);
                if server.write_all(&out).is_err() {
                    break;
                }
            }
        });
        Ok(Echo {
            client,
            scratch: Vec::new(),
            thread,
        })
    }

    fn round_trip(&mut self, msg: &Msg) -> Result<Msg, String> {
        write_msg(&mut self.client, msg, &mut self.scratch).map_err(|e| format!("write: {e}"))?;
        read_msg(&mut self.client).map_err(|e| format!("read: {e}"))
    }

    fn stop(self) -> Result<(), String> {
        self.client
            .shutdown(std::net::Shutdown::Both)
            .map_err(|e| format!("shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "echo thread panicked".to_string())
    }
}

/// Mean nanoseconds per call of `f`: batches of calls sized to about a
/// millisecond each, repeated until `budget` is spent; the median batch
/// mean is reported so a descheduled batch does not skew it.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let one = t.elapsed().as_nanos().max(1) as f64;
    let per_batch = ((1e6 / one) as usize).clamp(1, 1_000_000);
    let mut means = Vec::new();
    let start = Instant::now();
    while means.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        means.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    crate::stats::median(&means)
}

/// Times every microcall at `shape`, spending about `budget` on each, and
/// records the per-call times (and the exact wire ratio) in `out`.
pub fn measure(
    shape: &Shape,
    seed: u64,
    budget: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut inp = Inputs::new(shape, seed);
    let n = shape.params();
    let threads = codec::wire_threads(n);
    out.value(
        "tensor.wire_ratio",
        shape.codec.frame_bytes(n) as f64 / Compression::Lossless.frame_bytes(n) as f64,
    );

    // Event queue in steady state: pop the earliest event, schedule its
    // successor a random delay later, at the workload's pending depth.
    let mut queue = EventQueue::with_capacity(shape.queue_depth + 1);
    let mut rng = SimRng::seed(seed ^ 0x51);
    for i in 0..shape.queue_depth.max(1) {
        queue.schedule(SimTime::from_nanos(rng.uniform_u64(0..20_000_000)), i);
    }
    out.value(
        "simnet.queue_ns_per_event",
        time_ns(budget, || {
            let (at, ev) = queue.pop().expect("queue stays at depth");
            let delay = rng.uniform_u64(1..20_000_000);
            queue.schedule(SimTime::from_nanos(at.as_nanos() + delay), black_box(ev));
        }),
    );

    // Training: gradient, optimizer step, evaluation.
    let mut sampler = BatchSampler::new(SimRng::seed(seed ^ 0x52), shape.batch);
    let batch = sampler.sample(&inp.train);
    out.value(
        "training.grad_us",
        time_ns(budget, || {
            black_box(inp.model.loss_and_grad(black_box(&batch)));
        }) / 1e3,
    );
    let mut params = inp.model.params().clone();
    let mut sgd = Sgd::new(0.01, 0.0, 0.0, n);
    out.value(
        "training.apply_us",
        time_ns(budget, || sgd.step(&mut params, black_box(&inp.grad), 1.0)) / 1e3,
    );
    let val = inp.val.full_batch();
    out.value(
        "training.eval_ms",
        time_ns(budget, || {
            black_box(inp.model.loss(black_box(&val)));
        }) / 1e6,
    );

    // Wire codec with error feedback, and the decode leg alone.
    let mut grad = inp.grad.clone();
    let mut residual = Tensor::zeros(n);
    let mut frame = Vec::new();
    let draw_rng = &mut inp.draw_rng;
    out.value(
        "tensor.encode_us",
        time_ns(budget, || {
            let mut draw = || draw_rng.uniform_u64(0..1 << 32) as u32;
            black_box(codec::encode_with_feedback_mt(
                shape.codec,
                &mut grad,
                &mut residual,
                &mut frame,
                &mut draw,
                threads,
            ));
        }) / 1e3,
    );
    let mut decoded = vec![0.0f32; n];
    out.value(
        "tensor.decode_us",
        time_ns(budget, || {
            shape
                .codec
                .decode_slice_mt(black_box(&frame), &mut decoded, threads)
                .expect("self-encoded frame decodes");
        }) / 1e3,
    );

    // Pooled partial reduce over the round's contributors.
    let mut pool = TensorPool::new();
    let refs: Vec<Option<&Tensor>> = inp.contributions.iter().map(Some).collect();
    out.value(
        "tensor.reduce_us",
        time_ns(budget, || {
            let o = partial_allreduce_pooled(black_box(&refs), &mut pool).expect("contributors");
            pool.release(black_box(o.reduced));
        }) / 1e3,
    );

    // Parameter server: the exchange's push (with the read-repairing pull
    // it pairs with) and the blended pull.
    let mut ps = ReplicatedGroupServer::new(Tensor::zeros(n), shape.groups);
    let mut g = 0;
    out.value(
        "ps.push_us",
        time_ns(budget, || {
            ps.push(g, black_box(&inp.grad));
            black_box(ps.pull_slot(g));
            g = (g + 1) % shape.groups;
        }) / 1e3,
    );
    out.value(
        "ps.pull_blended_us",
        time_ns(budget, || {
            black_box(ps.pull_blended());
        }) / 1e3,
    );

    // Runtime framing: the worker's write path and the coordinator's read
    // path for one gradient.
    let mut wire = FrameEncoder::new(shape.codec, n);
    let mut wgrad = inp.grad.clone();
    let mut iter = 0;
    let frame_rng = &mut inp.draw_rng;
    out.value(
        "runtime.frame_encode_us",
        time_ns(budget, || {
            iter += 1;
            wire.encode(iter, &mut wgrad, frame_rng);
        }) / 1e3,
    );
    let body = wire.body().to_vec();
    out.value(
        "runtime.frame_decode_us",
        time_ns(budget, || {
            black_box(
                frame_decode(black_box(&body), shape.codec, &mut decoded).expect("frame parses"),
            );
        }) / 1e3,
    );

    // One gradient frame over loopback TCP and back.
    let mut echo = Echo::start()?;
    let msg = Msg::Grad {
        iter: 1,
        grad: inp.grad.clone(),
    };
    let mut failed = None;
    out.value(
        "runtime.loopback_rtt_us",
        time_ns(budget, || {
            if let Err(e) = echo.round_trip(&msg) {
                failed = Some(e);
            }
        }) / 1e3,
    );
    echo.stop()?;
    if let Some(e) = failed {
        return Err(format!("loopback echo failed: {e}"));
    }

    // Handshake MAC, both sides.
    let key = inp.key;
    let mut nonce = 0u64;
    out.value(
        "runtime.handshake_us",
        time_ns(budget, || {
            nonce += 1;
            let mac = compute_mac(&key, nonce, 1, 0, 0);
            verify_mac(&key, nonce, 1, 0, 0, black_box(mac)).expect("own MAC verifies");
        }) / 1e3,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(codec: Compression) -> Shape {
        Shape {
            dim: 64,
            classes: 4,
            samples: 200,
            spread: 1.0,
            batch: 8,
            codec,
            contributors: 3,
            groups: 2,
            queue_depth: 16,
        }
    }

    #[test]
    fn microcalls_check_out_for_every_codec() {
        for codec in [Compression::Lossless, Compression::Int8, Compression::Fp16] {
            check(&small(codec), 3).unwrap();
        }
    }

    #[test]
    fn int8_bound_is_one_quantization_step() {
        let xs = [1.27f32, -0.5, 0.0];
        let bound = codec_bound(Compression::Int8, &xs);
        assert!((bound(0.3) - 0.01).abs() < 1e-6);
    }

    #[test]
    fn unfused_mean_is_elementwise() {
        let a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![3.0, 6.0]);
        assert_eq!(unfused_mean(&[a, b]), vec![2.0, 4.0]);
    }

    #[test]
    fn measure_reports_every_microcall() {
        let mut out = Outcome::default();
        measure(
            &small(Compression::Int8),
            1,
            Duration::from_millis(5),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.metrics.len(), 14);
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            out.metrics
        );
        let ratio = out
            .metrics
            .iter()
            .find(|m| m.name == "tensor.wire_ratio")
            .unwrap();
        assert!((ratio.value - (16.0 + 4.0 + 260.0) / (16.0 + 4.0 * 260.0)).abs() < 1e-12);
    }
}
