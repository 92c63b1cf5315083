//! The worker subprocess's side of the process-world protocol.
//!
//! [`run_worker`] is what the `rna-worker` binary calls after parsing its
//! command line: connect, prove key possession through the
//! `Hello`/`Challenge`/`Auth` exchange, receive the `Setup` frame, replay
//! the run's shared RNG sequence so its sampler/compute streams are
//! identical to the threaded world's worker threads, then loop compute →
//! gradient frame, heartbeating and honoring the bounded-lead gate
//! against the round counter the coordinator streams back. A dead socket
//! does not end the incarnation: the worker re-handshakes under capped
//! exponential backoff and resumes where its local state left off.
//!
//! Fault directives come down in the `Setup` frame and are executed by the
//! same [`FaultExecutor`] the threaded workers use, with one difference
//! that is the whole point of this world: a crash or crash-restart
//! directive calls [`std::process::abort`] — the process genuinely
//! vanishes mid-protocol, and rejoining is the *coordinator's* problem
//! (it respawns the binary with the next incarnation number and a `Setup`
//! that resumes from the checkpointed iteration).

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rna_core::fault::{FaultPlan, WorkerFate, WorkerFault};
use rna_simnet::SimRng;
use rna_tensor::Tensor;
use rna_training::model::SoftmaxClassifier;
use rna_training::{BatchSampler, Dataset, Model};

use rna_tensor::codec::{self, Compression};

use crate::fault::{FaultExecutor, IterDirective};
use crate::proto::{
    compute_mac, read_msg, write_msg, AuthKey, GradBatch, Msg, ProtoError, WorkerSetup,
};
use crate::threaded::{interruptible_sleep, sleep_range};
use crate::transport::{lock, STREAM_COMPUTE, STREAM_RECONNECT, STREAM_SAMPLER, STREAM_WIRE};

/// How long the worker keeps retrying its initial connect: the coordinator
/// spawns the whole cluster before some listeners' backlogs drain.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-read timeout during the handshake, so a half-open connection (or a
/// fault proxy eating a Challenge/Setup frame) costs one bounded cycle
/// instead of wedging the worker on a read that will never complete.
const HANDSHAKE_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// First backoff interval of the reconnect loop, microseconds.
const RECONNECT_BASE_US: u64 = 10_000;

/// Backoff ceiling of the reconnect loop, microseconds.
const RECONNECT_CAP_US: u64 = 640_000;

/// Total reconnect budget after a socket death. Generous: it must cover a
/// coordinator lease expiry plus a restart-from-disk, and a worker that
/// gives up early turns a survivable outage into a lost worker.
const RECONNECT_TIMEOUT: Duration = Duration::from_secs(20);

/// Batches below this wire length may coalesce another gradient instead
/// of flushing — small-tensor rounds amortize header and syscall cost.
const DEFER_MAX_WIRE_BYTES: usize = 4096;

/// Most gradients one coalesced batch frame may carry.
const DEFER_MAX_ENTRIES: u32 = 4;

/// The worker's side of the compressed hop: the run codec, the
/// error-feedback residual, the stochastic-rounding stream, and the
/// reusable outgoing frame batch.
///
/// All of it is *worker* state, owned at [`run_worker`] scope outside the
/// connection loop: the residual survives a reconnect (error feedback
/// continues across socket deaths) and is rebuilt from zero only by a
/// genuine respawn — exactly like the model and sampler position — so
/// same-seed replays stay bit-identical.
struct WireEncoder {
    codec: Compression,
    residual: Tensor,
    rng: SimRng,
    batch: GradBatch,
    /// Iteration value of the last piggybacked heartbeat, so the compute
    /// loop can skip the redundant standalone heartbeat that follows a
    /// flush. Cleared on reconnect (a fresh socket owes fresh liveness).
    last_hb: Option<u64>,
}

impl WireEncoder {
    /// Encodes one gradient (error feedback included) directly into the
    /// outgoing batch frame. `grad` is left holding the wire values.
    fn push(&mut self, iter: u64, grad: &mut Tensor) {
        // The encode leg must stay off the tensor allocator in steady
        // state: the residual is preallocated and the codec appends
        // straight into the frame buffer.
        let allocs = rna_tensor::alloc::count();
        let threads = codec::wire_threads(grad.len());
        let out = self.batch.begin_entry(iter);
        let (_, err) = codec::encode_with_feedback_append(
            self.codec,
            grad,
            &mut self.residual,
            out,
            &mut self.rng,
            threads,
        );
        self.batch.finish_entry(err);
        debug_assert_eq!(
            rna_tensor::alloc::count(),
            allocs,
            "worker encode path allocated a tensor buffer in steady state"
        );
    }

    /// Writes the pending batch (if any) and the next heartbeat in one
    /// socket write. A no-op on an empty batch.
    fn flush(&mut self, stream: &mut TcpStream, next_iter: u64) -> std::io::Result<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let _ = self.batch.frame();
        self.batch.piggyback(&Msg::Heartbeat { iter: next_iter });
        let sent = stream.write_all(self.batch.wire_bytes());
        self.batch.reset();
        self.last_hb = Some(next_iter);
        sent
    }
}

/// What the socket reader thread shares with the compute loop.
struct Link {
    /// The coordinator's round counter (drives the bounded-lead gate).
    round: AtomicU64,
    /// Freshest parameter snapshot not yet applied.
    fresh_params: Mutex<Option<Tensor>>,
    /// Set on `Stop`, socket death, or any protocol violation.
    stop: AtomicBool,
    /// Set *only* on a `Stop` frame: the run ended on purpose. A halt
    /// without this flag is a dead socket, which the reconnect loop owns.
    graceful: AtomicBool,
    gate: Mutex<()>,
    cv: Condvar,
}

impl Link {
    fn new(round: u64) -> Self {
        Link {
            round: AtomicU64::new(round),
            fresh_params: Mutex::new(None),
            stop: AtomicBool::new(false),
            graceful: AtomicBool::new(false),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        self.cv.notify_all();
    }
}

/// Rebuilds a single-worker [`FaultPlan`] from the directives the `Setup`
/// frame shipped (the coordinator already filtered out triggers this
/// incarnation must not re-fire).
fn plan_from(faults: &[WorkerFault]) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for f in faults {
        plan = match *f {
            WorkerFault::CrashAt { at_iter } => plan.crash(0, at_iter),
            WorkerFault::HangAt { at_iter, for_us } => plan.hang(0, at_iter, for_us),
            WorkerFault::SlowFrom {
                from_iter,
                extra_us,
            } => plan.slow(0, from_iter, extra_us),
            WorkerFault::GrayFrom {
                from_iter,
                step_us,
                cap_us,
            } => plan.gray(0, from_iter, step_us, cap_us),
            WorkerFault::RestartAt {
                at_iter,
                rejoin_after_us,
            } => plan.restart(0, at_iter, rejoin_after_us),
        };
    }
    plan
}

fn connect_retry(addr: &str) -> Result<TcpStream, ProtoError> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(ProtoError::Io(e)),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Consumes coordinator frames: parameter snapshots and round advances
/// update the link (waking the lead gate); `Stop`, a dead socket, or a
/// protocol violation halts the worker.
fn reader_loop(mut stream: TcpStream, link: &Link) {
    loop {
        match read_msg(&mut stream) {
            Ok(Msg::Params { round: _, params }) => {
                *lock(&link.fresh_params) = Some(params);
                link.cv.notify_all();
            }
            Ok(Msg::Round { round }) => {
                // A plain store, not a max: a controller failover rolls
                // the counter back, and the lead gate must honor that.
                link.round.store(round, Ordering::Release);
                link.cv.notify_all();
            }
            Ok(Msg::Stop) => {
                link.graceful.store(true, Ordering::Release);
                link.halt();
                return;
            }
            Ok(_) | Err(_) => {
                link.halt();
                return;
            }
        }
    }
}

/// One connect + challenge–response + `Setup` exchange: `Hello` names the
/// worker, the coordinator answers with a fresh nonce and its term, the
/// worker proves key possession with the MAC, and the `Setup` frame
/// follows. Fails when the coordinator is unreachable, drops the
/// connection (it rejects Hellos it is not yet willing to admit, and
/// responses that fail verification), or answers with garbage.
fn try_handshake(
    addr: &str,
    worker: u32,
    key: &AuthKey,
    incarnation: u32,
    retry_connect: bool,
) -> Result<(TcpStream, WorkerSetup), ProtoError> {
    let mut stream = if retry_connect {
        connect_retry(addr)?
    } else {
        TcpStream::connect(addr)?
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT));
    let mut scratch = Vec::new();
    write_msg(
        &mut stream,
        &Msg::Hello {
            worker,
            incarnation,
        },
        &mut scratch,
    )?;
    let (nonce, term) = match read_msg(&mut stream)? {
        Msg::Challenge { nonce, term } => (nonce, term),
        _ => {
            return Err(ProtoError::Garbage {
                what: "expected a Challenge frame after Hello",
            })
        }
    };
    let mac = compute_mac(key, nonce, term, worker, incarnation);
    write_msg(&mut stream, &Msg::Auth { mac }, &mut scratch)?;
    let setup = match read_msg(&mut stream)? {
        Msg::Setup(s) => s,
        _ => {
            return Err(ProtoError::Garbage {
                what: "expected a Setup frame after Auth",
            })
        }
    };
    if setup.worker != worker || setup.params.is_empty() {
        return Err(ProtoError::Garbage {
            what: "setup frame does not match this worker",
        });
    }
    let _ = stream.set_read_timeout(None);
    Ok((stream, setup))
}

/// Runs one worker incarnation against the coordinator at `addr`.
///
/// Returns when the coordinator sends `Stop` (after reporting the
/// worker's fate) or when the setup's churn schedule retires or evicts
/// this worker; a crash/restart directive never returns — it aborts the
/// process. A *dead socket* no longer ends the incarnation: the worker
/// re-handshakes under capped exponential backoff (jitter drawn from its
/// own deterministic RNG stream), keeping its model, sampler position,
/// and fired fault triggers — reconnection is a socket event, not a
/// respawn — and gives up only after the reconnect budget is spent.
///
/// # Errors
///
/// [`ProtoError`] when the coordinator cannot be reached, rejects the
/// handshake past the retry window, or stays unreachable past the
/// reconnect budget.
pub fn run_worker(
    addr: &str,
    worker: u32,
    key: &AuthKey,
    incarnation: u32,
) -> Result<(), ProtoError> {
    // An address-book joiner dials in whenever it likes — possibly before
    // its join round, in which case the coordinator drops the Hello. Keep
    // re-offering the handshake until the admission window opens or the
    // retry budget runs out.
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let (mut stream, mut setup) = loop {
        match try_handshake(addr, worker, key, incarnation, true) {
            Ok(pair) => break pair,
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let mut scratch = Vec::new();

    // Replay the shared RNG sequence from the master seed: dataset,
    // template, then every worker's fork pair in worker order. This is
    // what makes the process world's data streams identical to the
    // threaded world's without shipping the dataset over the socket.
    let mut rng = SimRng::seed(setup.seed);
    let dataset = Dataset::blobs(256, 8, 4, 0.4, &mut rng);
    let mut model = SoftmaxClassifier::new(8, 4, &mut rng);
    for v in 0..u64::from(worker) {
        let _ = rng.fork(STREAM_SAMPLER + v);
        let _ = rng.fork(STREAM_COMPUTE + v);
    }
    // A mid-run joiner draws its streams from the disjoint grant namespace
    // instead of the standard keys. Either way the fork advances the
    // parent identically, so original members replay the same sequence
    // without knowing who joined later.
    let (sampler_key, compute_key) = if setup.rng_grant == 0 {
        (
            STREAM_SAMPLER + u64::from(worker),
            STREAM_COMPUTE + u64::from(worker),
        )
    } else {
        (setup.rng_grant, setup.rng_grant + 1)
    };
    let mut sampler = BatchSampler::new(
        rng.fork(sampler_key),
        usize::try_from(setup.batch_size).unwrap_or(usize::MAX),
    );
    let mut wrng = rng.fork(compute_key);
    // Reconnect-backoff jitter comes from this worker's own stream, so a
    // soak with a fixed kill schedule replays the same backoff intervals.
    let mut rrng = rng.fork(STREAM_RECONNECT + u64::from(worker));
    // The worker owns the encode leg of the wire codec: residual and
    // stochastic-rounding stream live here, beside the model and sampler,
    // and survive reconnects the same way they do.
    let mut wire = WireEncoder {
        codec: setup.compression,
        residual: Tensor::zeros(setup.params.len()),
        rng: rng.fork(STREAM_WIRE + u64::from(worker)),
        batch: GradBatch::new(),
        last_hb: None,
    };
    // Fast-forward the sampler so a rejoined incarnation continues the
    // data stream instead of repeating its predecessor's batches.
    for _ in 0..setup.start_iter {
        let _ = sampler.sample(&dataset);
    }
    model.set_params(&setup.params);
    let mut faults = FaultExecutor::new(&plan_from(&setup.faults), 0);

    let range = (setup.compute_lo_us, setup.compute_hi_us);
    // Beat at least every quarter liveness window, even while parked, so
    // the coordinator never presumes a waiting worker dead.
    let park_recheck = Duration::from_micros((setup.liveness_timeout_us / 4).max(1_000));
    let mut local_iter = setup.start_iter;
    let mut departed: Option<WorkerFate> = None;
    loop {
        let link = Arc::new(Link::new(setup.round));
        let reader = {
            let stream = stream.try_clone()?;
            let link = Arc::clone(&link);
            std::thread::spawn(move || reader_loop(stream, &link))
        };
        'run: while !link.stop.load(Ordering::Acquire) {
            // Scheduled departures, observed on the streamed round counter:
            // an evictee leaves before contributing to its eviction round, a
            // retiree works *through* its retirement round (the coordinator
            // drains that last contribution) and leaves once the counter
            // passes it.
            let round_now = link.round.load(Ordering::Acquire);
            if round_now >= setup.evict_round {
                departed = Some(WorkerFate::Evicted {
                    at_round: setup.evict_round,
                });
                break 'run;
            }
            if round_now > setup.retire_round {
                departed = Some(WorkerFate::Retired {
                    at_round: setup.retire_round,
                });
                break 'run;
            }
            match faults.on_iteration_start(local_iter) {
                IterDirective::Crash | IterDirective::Restart(_) => {
                    // A real death, not a simulated one: the process vanishes
                    // mid-protocol exactly like `kill -9`. For a restart the
                    // coordinator owns the rejoin (down window, respawn,
                    // checkpointed Setup). Coalesced gradients drain first:
                    // the abort models a compute death, not a lost send.
                    let _ = wire.flush(&mut stream, local_iter);
                    std::process::abort();
                }
                IterDirective::HangFor(d) => {
                    if wire.flush(&mut stream, local_iter).is_err() {
                        break 'run;
                    }
                    interruptible_sleep(d, &link.stop);
                }
                IterDirective::Proceed => {}
            }
            if wire.last_hb != Some(local_iter)
                && write_msg(
                    &mut stream,
                    &Msg::Heartbeat { iter: local_iter },
                    &mut scratch,
                )
                .is_err()
            {
                break 'run;
            }
            // A parking worker must not sit on coalesced gradients — the
            // coordinator may need exactly those contributions to advance
            // the round this park waits for.
            if local_iter.saturating_sub(link.round.load(Ordering::Acquire)) >= setup.max_lead
                && wire.flush(&mut stream, local_iter).is_err()
            {
                break 'run;
            }
            // Bounded lead: park until the round counter catches up, still
            // heartbeating. The reader's Round frames notify the condvar; the
            // timeout only bounds a missed wakeup.
            while !link.stop.load(Ordering::Acquire)
                && local_iter.saturating_sub(link.round.load(Ordering::Acquire)) >= setup.max_lead
            {
                let guard = lock(&link.gate);
                let _unused = link
                    .cv
                    .wait_timeout(guard, park_recheck)
                    .unwrap_or_else(PoisonError::into_inner);
                if write_msg(
                    &mut stream,
                    &Msg::Heartbeat { iter: local_iter },
                    &mut scratch,
                )
                .is_err()
                {
                    break 'run;
                }
            }
            if link.stop.load(Ordering::Acquire) {
                break;
            }
            if let Some(p) = lock(&link.fresh_params).take() {
                model.set_params(&p);
            }
            let batch = sampler.sample(&dataset);
            let (_, mut grad) = model.loss_and_grad(&batch);
            sleep_range(&mut wrng, range);
            let extra = faults.extra_compute_delay(local_iter);
            if !extra.is_zero() {
                std::thread::sleep(extra);
            }
            // Error-feedback encode straight into the outgoing frame, then
            // either flush (one write carries the batch and the next
            // heartbeat) or coalesce: a small frame with lead headroom may
            // wait for company, amortizing header and syscall cost.
            wire.push(local_iter, &mut grad);
            local_iter += 1;
            let lead = local_iter.saturating_sub(link.round.load(Ordering::Acquire));
            let defer = wire.batch.wire_len() < DEFER_MAX_WIRE_BYTES
                && wire.batch.entries() < DEFER_MAX_ENTRIES
                && lead + 2 <= setup.max_lead;
            if !defer && wire.flush(&mut stream, local_iter).is_err() {
                break 'run;
            }
        }
        if departed.is_some() || link.graceful.load(Ordering::Acquire) {
            // Graceful exit: report the post-mortem. The socket may already
            // be gone (severed), in which case the coordinator composes the
            // fate itself — exactly the information a real network would
            // have. Coalesced gradients drain first: a retiree's final
            // contribution must reach the coordinator before its fate.
            let _ = wire.flush(&mut stream, local_iter);
            let fate = departed.unwrap_or_else(|| faults.fate());
            let _ = write_msg(&mut stream, &Msg::Fate(fate), &mut scratch);
            let _ = stream.shutdown(Shutdown::Both);
            let _ = reader.join();
            return Ok(());
        }
        // The socket died under us — severed, or the coordinator itself is
        // gone. Re-handshake under capped exponential backoff. The same
        // incarnation number is offered: nothing about this process changed,
        // and the coordinator counts the accepted re-handshake as a
        // reconnect, not a respawn.
        let _ = stream.shutdown(Shutdown::Both);
        let _ = reader.join();
        let reconnect_deadline = Instant::now() + RECONNECT_TIMEOUT;
        let mut backoff_us = RECONNECT_BASE_US;
        let pair = loop {
            let jitter_us = rrng.uniform_u64(0..backoff_us / 2 + 1);
            std::thread::sleep(Duration::from_micros(backoff_us + jitter_us));
            match try_handshake(addr, worker, key, incarnation, false) {
                Ok(pair) => break pair,
                Err(e) => {
                    if Instant::now() >= reconnect_deadline {
                        return Err(e);
                    }
                    backoff_us = (backoff_us * 2).min(RECONNECT_CAP_US);
                }
            }
        };
        stream = pair.0;
        setup = pair.1;
        // Adopt the coordinator's current view — the published master and the
        // (possibly rolled-back) round counter — but keep the local iteration
        // count, sampler position, fired fault triggers, and the codec
        // residual: the Setup's start_iter and fault list describe a fresh
        // incarnation, and this is not one. Error feedback continues across
        // the socket death; only the unsent batch is gone (frames the old
        // socket ate are lost like any other in-flight write).
        model.set_params(&setup.params);
        wire.batch.reset();
        wire.last_hb = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_from_rebuilds_every_fault_kind() {
        let faults = vec![
            WorkerFault::CrashAt { at_iter: 3 },
            WorkerFault::HangAt {
                at_iter: 1,
                for_us: 50,
            },
            WorkerFault::SlowFrom {
                from_iter: 0,
                extra_us: 9,
            },
            WorkerFault::GrayFrom {
                from_iter: 2,
                step_us: 40,
                cap_us: 400,
            },
            WorkerFault::RestartAt {
                at_iter: 7,
                rejoin_after_us: 11,
            },
        ];
        let plan = plan_from(&faults);
        let rebuilt: Vec<WorkerFault> = plan.for_worker(0).collect();
        assert_eq!(rebuilt, faults);
        // All directives land on worker 0 — the subprocess only knows
        // itself.
        assert_eq!(plan.max_worker(), Some(0));
    }
}
