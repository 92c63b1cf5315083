use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use rna_core::cache::GradientCache;
use rna_core::fault::{FaultPlan, NetFaultPlan, ToleranceConfig, WorkerFate};
use rna_core::membership::{ChurnEvent, ChurnPlan};
use rna_core::recovery::{CheckpointStore, RecoveryConfig, RecoveryError};
use rna_simnet::SimRng;
use rna_tensor::{Compression, Tensor, TensorPool};
use rna_training::model::SoftmaxClassifier;
use rna_training::{BatchSampler, Dataset, Model, Sgd};

use crate::fault::{FaultExecutor, IterDirective};
use crate::transport::{
    decode_ctrl_checkpoint, lock, reduce_contributions_into, supervise, ChurnCounters,
    CtrlCheckpoint, DatapathCounters, NetCounters, RecoveryCounters, Supervised, Transport,
    STREAM_COMPUTE, STREAM_JOIN, STREAM_SAMPLER,
};

/// Which synchronization strategy the threaded runtime runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Strict barrier: every round waits for all workers (Horovod-style).
    Bsp,
    /// Randomized non-blocking AllReduce with power-of-d probing.
    Rna,
    /// Majority-triggered partial collectives (eager-SGD): like RNA but
    /// the round fires when more than half the live caches are ready.
    EagerMajority,
}

/// Configuration of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Number of worker threads.
    pub num_workers: usize,
    /// Number of synchronization rounds to execute.
    pub rounds: u64,
    /// Probes per round (RNA only).
    pub probes: usize,
    /// Per-worker compute time as a uniform microsecond range.
    pub compute_us: Vec<(u64, u64)>,
    /// Master seed.
    pub seed: u64,
    /// Synchronization mode.
    pub mode: SyncMode,
    /// Learning rate.
    pub lr: f32,
    /// Gradient-cache staleness bound (RNA only).
    pub staleness_bound: usize,
    /// Maximum iterations a worker may lead the round counter (RNA only).
    pub max_lead: u64,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Injected worker faults (crashes, hangs, slowdowns, restarts). The
    /// partial-collective modes tolerate all of them; BSP tolerates only
    /// hangs and slowdowns (a crashed worker would stall its barrier
    /// forever).
    pub fault_plan: FaultPlan,
    /// Injected network faults (lossy links, flaps, partitions), executed
    /// by the controller through a [`crate::fault::NetShim`]. BSP rejects
    /// these too: a single lost gradient wedges its barrier.
    pub net_fault_plan: NetFaultPlan,
    /// Liveness / deadline / backoff knobs for the fault-tolerance paths.
    pub tolerance: ToleranceConfig,
    /// Rounds between controller checkpoints (warm-standby slot, plus disk
    /// when `recovery_dir` is set). Must be nonzero.
    pub checkpoint_every: u64,
    /// When set, controller checkpoints are also written to this directory
    /// (crash-consistently, via [`CheckpointStore`]) so a killed process
    /// can be resumed with [`resume_threaded`].
    pub recovery_dir: Option<PathBuf>,
    /// Gradient wire codec for the partial-collective modes (RNA and
    /// eager-majority): every drained contribution really crosses the
    /// controller boundary as `decode(encode(grad + residual))`, with the
    /// dropped remainder carried in a per-worker error-feedback residual.
    /// BSP ignores it (its strict barrier predates the compressed wire
    /// path). The default `Lossless` leaves gradients untouched.
    pub compression: Compression,
    /// Deterministic mid-run membership changes (joins, retirements,
    /// evictions), replayed at global round edges. `num_workers` is the
    /// slot *capacity*: workers named in a join event start dormant (no
    /// compute, no elections, no majorities) until their round arrives.
    /// BSP rejects a non-empty plan — its barrier counts every worker.
    pub churn_plan: ChurnPlan,
}

impl ThreadedConfig {
    /// A fast homogeneous configuration for tests: 1–2 ms compute, 30
    /// rounds.
    pub fn quick(num_workers: usize, mode: SyncMode) -> Self {
        ThreadedConfig {
            num_workers,
            rounds: 30,
            probes: 2,
            compute_us: vec![(1_000, 2_000); num_workers],
            seed: 7,
            mode,
            lr: 0.2,
            staleness_bound: 4,
            max_lead: 8,
            batch_size: 16,
            fault_plan: FaultPlan::none(),
            net_fault_plan: NetFaultPlan::none(),
            tolerance: ToleranceConfig::default(),
            checkpoint_every: 5,
            recovery_dir: None,
            compression: Compression::Lossless,
            churn_plan: ChurnPlan::none(),
        }
    }

    /// Makes the last worker a straggler with the given compute range.
    ///
    /// # Panics
    ///
    /// Panics if there are no workers.
    pub fn with_straggler(mut self, lo_us: u64, hi_us: u64) -> Self {
        let last = self
            .compute_us
            .last_mut()
            .expect("need at least one worker");
        *last = (lo_us, hi_us);
        self
    }

    /// Installs a fault plan (see [`crate::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Installs a network fault plan (see [`crate::fault::NetShim`]).
    pub fn with_net_fault_plan(mut self, plan: NetFaultPlan) -> Self {
        self.net_fault_plan = plan;
        self
    }

    /// Overrides the tolerance knobs (liveness timeout, round deadline,
    /// probe backoff). [`ToleranceConfig::tight`] makes fault tests fast.
    pub fn with_tolerance(mut self, tolerance: ToleranceConfig) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the controller checkpoint cadence (rounds between warm-standby
    /// and disk checkpoints).
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Enables disk checkpoints under `dir` so the run can be resumed with
    /// [`resume_threaded`] after a process kill.
    pub fn with_recovery_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.recovery_dir = Some(dir.into());
        self
    }

    /// Installs an elastic-membership plan (see [`ChurnPlan`]). The plan
    /// is validated against the worker capacity and tolerance knobs when
    /// the run starts.
    pub fn with_churn_plan(mut self, plan: ChurnPlan) -> Self {
        self.churn_plan = plan;
        self
    }

    /// Selects the gradient wire codec (partial-collective modes only).
    ///
    /// # Panics
    ///
    /// Panics if the codec is `TopK` with `permille` outside `1..=1000`.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        if let Compression::TopK { permille } = compression {
            assert!(
                (1..=1000).contains(&permille),
                "TopK permille must be in 1..=1000, got {permille}"
            );
        }
        self.compression = compression;
        self
    }
}

/// The outcome of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedResult {
    /// Rounds executed (degraded rounds included — the controller never
    /// blocks indefinitely, it completes every budgeted round).
    pub rounds: u64,
    /// Rounds that completed without applying an update because no
    /// gradient could be assembled (cluster dead or every cached gradient
    /// beyond the staleness bound).
    pub rounds_degraded: u64,
    /// Microseconds degraded rounds ran past `round_deadline_us`, summed.
    /// Waits are clamped to the true remaining budget, so this measures
    /// scheduler wake-up latency only; the earlier 1 ms-floored waits
    /// could legally overshoot by a millisecond per late contributor.
    pub deadline_overshoot_us: u64,
    /// Real elapsed wall-clock time.
    pub wall: Duration,
    /// Final loss over the full dataset.
    pub final_loss: f32,
    /// Final accuracy over the full dataset.
    pub final_accuracy: f32,
    /// Local iterations completed per worker.
    pub worker_iterations: Vec<u64>,
    /// Mean fraction of workers contributing per round.
    pub mean_participation: f64,
    /// Each worker's post-mortem, reported by the worker threads
    /// themselves as they execute the fault plan.
    pub worker_fates: Vec<WorkerFate>,
    /// Logical messages the network shim dropped (lossy links, flaps,
    /// partitions). Always 0 on a clean fabric.
    pub messages_dropped: u64,
    /// Probe rounds re-issued because the fabric ate the previous attempt.
    pub probe_retries: u64,
    /// Rounds during which at least one live worker was severed from the
    /// controller by a down-window or partition.
    pub partition_rounds: u64,
    /// Times the controller thread died and the warm standby took over
    /// from the last checkpoint.
    pub controller_failovers: u64,
    /// Rounds of progress redone across all failovers (crash round minus
    /// checkpoint round, summed) — the real downtime cost, unlike the
    /// simulator where worker state survives and only the probe round is
    /// lost.
    pub failover_rounds_lost: u64,
    /// Controller checkpoints written (warm-standby slot updates; the same
    /// count lands on disk when a recovery directory is configured).
    pub checkpoints_written: u64,
    /// Fresh tensor-buffer heap allocations the controller's fused reduce
    /// region (cache drain, codec transform, partial collective, apply)
    /// performed over the run. Debug-only hook: always 0 in release
    /// builds. With the pooled data path this stays flat after warm-up.
    pub datapath_allocs: u64,
    /// Bytes the drained gradient contributions would occupy on the wire
    /// after encoding (codec frames, per-message headers included). The
    /// parameter broadcast stays full precision and is not counted, so
    /// lossy-vs-lossless ratios measure the gradient path alone.
    pub bytes_on_wire: u64,
    /// `lossless-equivalent − bytes_on_wire` over the same contributions
    /// (0 under `Lossless`).
    pub bytes_saved: u64,
    /// Accumulated L2 norm of the error-feedback residuals left behind by
    /// lossy encodes (exactly 0.0 under `Lossless`).
    pub codec_error_l2: f64,
    /// Workers admitted mid-run under the churn plan (each streamed a
    /// model snapshot and granted fresh RNG streams).
    pub workers_joined: u64,
    /// Workers that left mid-run under the churn plan — graceful
    /// retirements (final contribution drained) plus evictions.
    pub workers_retired: u64,
    /// Online regroup events. Always 0 in the flat runtime worlds; the
    /// field exists for result-shape parity with the simulator.
    pub regroup_events: u64,
    /// Parameter-server keys rehomed during regroups. Always 0 in the
    /// flat runtime worlds.
    pub ps_keys_rebalanced: u64,
    /// Bytes of model snapshot streamed to joining workers at admission
    /// (parameters only; framing excluded).
    pub snapshot_bytes_streamed: u64,
}

impl ThreadedResult {
    /// Workers still alive when the run finished.
    pub fn live_workers(&self) -> usize {
        self.worker_fates.iter().filter(|f| !f.is_dead()).count()
    }
}

pub(crate) struct WorkerSlot {
    cache: Mutex<GradientCache>,
    /// The worker's view of the parameters. The controller publishes each
    /// round's master as one shared `Arc` snapshot — replacing `n` deep
    /// tensor clones with `n` refcount bumps — and workers clone the `Arc`
    /// (not the tensor) out of the lock. Snapshots are immutable once
    /// published; when the last slot lets go of one, the controller
    /// reclaims its buffer into the pool.
    params: RwLock<Arc<Tensor>>,
    iterations: AtomicU64,
    /// Microseconds since run start at the worker's last sign of life.
    heartbeat_us: AtomicU64,
    /// Cleared by the worker itself when its fault plan kills it.
    alive: AtomicBool,
}

pub(crate) struct Shared {
    slots: Vec<WorkerSlot>,
    round: AtomicU64,
    stop: AtomicBool,
    pause_lock: Mutex<()>,
    pause_cv: Condvar,
    start: Instant,
    liveness_timeout_us: u64,
}

impl Shared {
    fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn heartbeat(&self, w: usize) {
        self.slots[w]
            .heartbeat_us
            .store(self.now_us(), Ordering::Release);
    }

    /// Permanently-dead view: the worker thread exited via its crash
    /// directive. Presumed-dead-by-silence workers are *not* in this set —
    /// they may be hung and can return.
    fn is_dead(&self, w: usize) -> bool {
        !self.slots[w].alive.load(Ordering::Acquire)
    }

    /// Liveness view used for initiator election and majority counting:
    /// alive and heard from within the liveness timeout. A hung worker
    /// drops out of this set when its heartbeat goes stale and is
    /// re-admitted automatically once it beats again.
    fn live_view(&self) -> Vec<bool> {
        let now = self.now_us();
        self.slots
            .iter()
            .map(|s| {
                s.alive.load(Ordering::Acquire)
                    && now.saturating_sub(s.heartbeat_us.load(Ordering::Acquire))
                        < self.liveness_timeout_us
            })
            .collect()
    }
}

/// [`Transport`] over shared memory: the controller reads the worker
/// slots directly and "pushes" parameters by swapping `Arc` snapshots.
struct ThreadedTransport<'a> {
    shared: &'a Shared,
    ready_rx: Receiver<usize>,
}

impl Transport for ThreadedTransport<'_> {
    fn now_us(&self) -> u64 {
        self.shared.now_us()
    }

    fn is_dead(&self, w: usize) -> bool {
        self.shared.is_dead(w)
    }

    fn live_view(&self) -> Vec<bool> {
        self.shared.live_view()
    }

    fn heartbeat_us(&self, w: usize) -> u64 {
        self.shared.slots[w].heartbeat_us.load(Ordering::Acquire)
    }

    fn cache_ready(&self, w: usize) -> bool {
        !lock(&self.shared.slots[w].cache).is_empty()
    }

    fn drain(&mut self, w: usize, round: u64, pool: &mut TensorPool) -> Option<Tensor> {
        lock(&self.shared.slots[w].cache).take_contribution_pooled(round, pool)
    }

    fn purge(&mut self, w: usize, staleness_bound: usize) {
        *lock(&self.shared.slots[w].cache) = GradientCache::new(staleness_bound, true);
    }

    fn push_params(
        &mut self,
        w: usize,
        _round: u64,
        snap: &Arc<Tensor>,
        pool: &mut TensorPool,
    ) -> bool {
        let prev = std::mem::replace(
            &mut *self.shared.slots[w]
                .params
                .write()
                .unwrap_or_else(PoisonError::into_inner),
            Arc::clone(snap),
        );
        // The last reference to the previous round's snapshot recycles its
        // buffer.
        if let Some(t) = Arc::into_inner(prev) {
            pool.release(t);
        }
        true
    }

    fn advance_round(&mut self, k: u64) {
        self.shared.round.store(k, Ordering::Release);
        self.shared.pause_cv.notify_all();
    }

    fn wait_ready(&mut self, timeout: Duration) {
        let _ = self.ready_rx.recv_timeout(timeout);
    }

    fn drain_ready(&mut self) {
        while self.ready_rx.try_recv().is_ok() {}
    }
}

/// Runs a full training session on real OS threads and returns the result.
///
/// The controller never blocks indefinitely: every wait carries a timeout,
/// probe rounds are resampled away from dead workers, the eager majority
/// is recomputed over live workers only, and a round that cannot assemble
/// any gradient by the round deadline completes *degraded* (no update)
/// instead of stalling.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (zero workers/rounds, a
/// `compute_us` list of the wrong length, a fault plan naming an absent
/// worker, or a crash injected under [`SyncMode::Bsp`], whose barrier
/// cannot survive one).
pub fn run_threaded(config: &ThreadedConfig) -> ThreadedResult {
    validate_config(config);
    let mut rng = SimRng::seed(config.seed);
    let dataset = Arc::new(Dataset::blobs(256, 8, 4, 0.4, &mut rng));
    let template = SoftmaxClassifier::new(8, 4, &mut rng);
    match config.mode {
        SyncMode::Bsp => run_bsp(config, dataset, template, rng),
        SyncMode::Rna | SyncMode::EagerMajority => run_rna(config, dataset, template, rng, None),
    }
}

/// Resumes a run whose process died, from the newest disk checkpoint under
/// `config.recovery_dir`.
///
/// The checkpoint captures the *control plane*: master parameters,
/// optimizer velocity, the round counter, and the controller tallies.
/// Worker threads restart fresh (their in-memory caches died with the
/// process) and pull the checkpointed master on their first iteration, so
/// the resumed loss trajectory matches the uninterrupted run approximately
/// rather than bit-for-bit — real threads are wall-clock nondeterministic
/// anyway. Both runs converge to the same region; the deterministic
/// bit-identical resume story lives in the simulator
/// (`rna_core::sim::Engine::resume`).
///
/// # Errors
///
/// [`RecoveryError::Missing`] when no checkpoint exists,
/// [`RecoveryError::Corrupt`] when both generations fail validation, and
/// [`RecoveryError::Io`] for filesystem failures.
///
/// # Panics
///
/// Panics on an invalid configuration (see [`run_threaded`]), if
/// `recovery_dir` is unset, or under [`SyncMode::Bsp`], which has no
/// checkpoint machinery.
pub fn resume_threaded(config: &ThreadedConfig) -> Result<ThreadedResult, RecoveryError> {
    validate_config(config);
    assert!(
        config.mode != SyncMode::Bsp,
        "checkpoint/resume is implemented for the partial-collective modes"
    );
    let dir = config
        .recovery_dir
        .as_ref()
        .expect("resume_threaded requires recovery_dir");
    let store = CheckpointStore::new(dir).map_err(RecoveryError::Io)?;
    let loaded = store.load_latest()?;
    let ck = decode_ctrl_checkpoint(&loaded.payload).ok_or_else(|| {
        RecoveryError::Corrupt("threaded checkpoint payload failed to decode".into())
    })?;
    let mut rng = SimRng::seed(config.seed);
    let dataset = Arc::new(Dataset::blobs(256, 8, 4, 0.4, &mut rng));
    let template = SoftmaxClassifier::new(8, 4, &mut rng);
    if ck.master.len() != template.params().len() {
        return Err(RecoveryError::Corrupt(
            "checkpointed model size does not match the configuration".into(),
        ));
    }
    if ck.round > config.rounds {
        return Err(RecoveryError::Corrupt(
            "checkpointed round exceeds the round budget".into(),
        ));
    }
    Ok(run_rna(config, dataset, template, rng, Some(ck)))
}

pub(crate) fn validate_config(config: &ThreadedConfig) {
    assert!(config.num_workers > 0, "need at least one worker");
    assert!(config.rounds > 0, "need at least one round");
    assert_eq!(
        config.compute_us.len(),
        config.num_workers,
        "one compute range per worker"
    );
    if let Some(max) = config.fault_plan.max_worker() {
        assert!(max < config.num_workers, "fault plan names worker {max}");
    }
    config.net_fault_plan.validate(config.num_workers);
    if let Err(e) = config.tolerance.validate() {
        panic!("invalid tolerance config: {e}");
    }
    if let Err(e) = config
        .churn_plan
        .validate(config.num_workers, &config.tolerance)
    {
        panic!("invalid churn plan: {e}");
    }
    if let Err(e) = (RecoveryConfig {
        every: config.checkpoint_every,
    })
    .validate()
    {
        panic!("invalid checkpoint cadence: {e}");
    }
    if config.mode == SyncMode::Bsp {
        assert!(
            (0..config.num_workers).all(|w| config.fault_plan.kills(w).is_none()),
            "BSP cannot survive a crash: its barrier waits for every worker"
        );
        assert!(
            config.net_fault_plan.is_empty(),
            "BSP cannot survive network faults: one lost gradient wedges its barrier"
        );
        assert!(
            config.fault_plan.controller_crashes().is_empty(),
            "BSP has no standby controller: a controller crash ends the run"
        );
        assert!(
            config.churn_plan.is_empty(),
            "BSP cannot change membership: its barrier counts every worker"
        );
    }
}

pub(crate) fn sleep_range(rng: &mut SimRng, (lo, hi): (u64, u64)) {
    let us = if hi > lo { rng.uniform_u64(lo..hi) } else { lo };
    std::thread::sleep(Duration::from_micros(us));
}

/// Sleeps `total` in small slices, bailing out early when `stop` is set,
/// so a long injected hang cannot outlive the run by more than one slice.
pub(crate) fn interruptible_sleep(total: Duration, stop: &AtomicBool) {
    let slice = Duration::from_millis(10);
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        std::thread::sleep(slice.min(deadline - now));
    }
}

fn run_bsp(
    config: &ThreadedConfig,
    dataset: Arc<Dataset>,
    template: SoftmaxClassifier,
    mut rng: SimRng,
) -> ThreadedResult {
    let n = config.num_workers;
    let (grad_tx, grad_rx) = channel::<(usize, Tensor)>();
    let stop = Arc::new(AtomicBool::new(false));
    let mut param_txs = Vec::new();
    let mut handles = Vec::new();
    let start = Instant::now();
    for w in 0..n {
        let (ptx, prx) = channel::<Option<Arc<Tensor>>>();
        param_txs.push(ptx);
        let grad_tx = grad_tx.clone();
        let stop = Arc::clone(&stop);
        let dataset = Arc::clone(&dataset);
        let mut model = template.clone();
        let mut sampler = BatchSampler::new(rng.fork(STREAM_SAMPLER + w as u64), config.batch_size);
        let mut wrng = rng.fork(STREAM_COMPUTE + w as u64);
        let range = config.compute_us[w];
        let mut faults = FaultExecutor::new(&config.fault_plan, w);
        handles.push(std::thread::spawn(move || -> (u64, WorkerFate) {
            let mut iters: u64 = 0;
            while let Ok(Some(params)) = prx.recv() {
                match faults.on_iteration_start(iters) {
                    IterDirective::Crash | IterDirective::Restart(_) => {
                        unreachable!("crashes rejected for BSP")
                    }
                    IterDirective::HangFor(d) => interruptible_sleep(d, &stop),
                    IterDirective::Proceed => {}
                }
                model.set_params(&params);
                let batch = sampler.sample(&dataset);
                let (_, grad) = model.loss_and_grad(&batch);
                sleep_range(&mut wrng, range);
                let extra = faults.extra_compute_delay(iters);
                if !extra.is_zero() {
                    std::thread::sleep(extra);
                }
                iters += 1;
                if grad_tx.send((w, grad)).is_err() {
                    break;
                }
            }
            (iters, faults.fate())
        }));
    }

    let mut master = template.params().clone();
    let mut opt = Sgd::new(config.lr, 0.0, 0.0, master.len());
    let mut pool = TensorPool::new();
    let snapshot = Arc::new(master.clone());
    for tx in &param_txs {
        let _ = tx.send(Some(Arc::clone(&snapshot)));
    }
    drop(snapshot);
    let mut rounds_degraded: u64 = 0;
    let mut deadline_overshoot_us: u64 = 0;
    let round_deadline = Duration::from_micros(config.tolerance.round_deadline_us);
    for round in 0..config.rounds {
        let round_start = Instant::now();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        let mut received = 0;
        let mut degraded = false;
        while received < n {
            // A worker thread that panicked (or wedged) must not stall the
            // barrier forever: the round completes degraded at the
            // deadline instead, recorded as a fate at join time. The wait
            // is the *true* remaining budget — the earlier 1 ms floor let
            // every late contributor push the round up to 1 ms past its
            // deadline.
            let elapsed = round_start.elapsed();
            if elapsed >= round_deadline {
                degraded = true;
                break;
            }
            match grad_rx.recv_timeout(round_deadline - elapsed) {
                Ok((w, g)) => {
                    if grads[w].is_none() {
                        received += 1;
                    }
                    grads[w] = Some(g);
                }
                Err(_) => {
                    degraded = true;
                    break;
                }
            }
        }
        if degraded {
            // Strict barrier semantics: an incomplete round applies no
            // update (BSP has no notion of a partial collective). Whatever
            // the scheduler added past the deadline is accounted, not
            // silently swallowed.
            rounds_degraded += 1;
            deadline_overshoot_us += u64::try_from(
                round_start
                    .elapsed()
                    .saturating_sub(round_deadline)
                    .as_micros(),
            )
            .unwrap_or(u64::MAX);
            for g in grads.into_iter().flatten() {
                pool.release(g);
            }
        } else {
            // Fused mean (bit-identical to uniformly weighted averaging)
            // into a pooled buffer; the drained gradients feed the pool
            // afterwards.
            let mut mean = pool.acquire(master.len());
            reduce_contributions_into(&mut mean, &grads, n as f32);
            opt.step(&mut master, &mean, 1.0);
            pool.release(mean);
            for g in grads.into_iter().flatten() {
                pool.release(g);
            }
        }
        if round + 1 < config.rounds {
            // One shared snapshot per round instead of one deep clone per
            // worker.
            let mut snap = pool.acquire(master.len());
            snap.copy_from(&master);
            let snapshot = Arc::new(snap);
            for tx in &param_txs {
                let _ = tx.send(Some(Arc::clone(&snapshot)));
            }
        }
    }
    stop.store(true, Ordering::Release);
    for tx in &param_txs {
        let _ = tx.send(None);
    }
    let mut worker_iterations = Vec::with_capacity(n);
    let mut worker_fates = Vec::with_capacity(n);
    for h in handles {
        match h.join() {
            Ok((iters, fate)) => {
                worker_iterations.push(iters);
                worker_fates.push(fate);
            }
            Err(_) => {
                // The thread panicked: its iteration count died with it.
                worker_iterations.push(0);
                worker_fates.push(WorkerFate::Crashed { at_iter: 0 });
            }
        }
    }
    // A degraded round applied nothing, so it counts as zero
    // participation, exactly as the RNA controller tallies it.
    let participation = (config.rounds - rounds_degraded) as f64 / config.rounds as f64;
    finish(
        config,
        dataset,
        template,
        master,
        start,
        worker_iterations,
        participation,
        worker_fates,
        rounds_degraded,
        deadline_overshoot_us,
        NetCounters::default(),
        RecoveryCounters::default(),
        DatapathCounters::default(),
        ChurnCounters::default(),
    )
}

fn run_rna(
    config: &ThreadedConfig,
    dataset: Arc<Dataset>,
    template: SoftmaxClassifier,
    mut rng: SimRng,
    resume: Option<CtrlCheckpoint>,
) -> ThreadedResult {
    let n = config.num_workers;
    let start = Instant::now();
    let state = resume.unwrap_or_else(|| CtrlCheckpoint::initial(template.params().clone()));
    let init_params = Arc::new(state.master.clone());
    let shared = Arc::new(Shared {
        slots: (0..n)
            .map(|w| WorkerSlot {
                cache: Mutex::new(GradientCache::new(config.staleness_bound, true)),
                params: RwLock::new(Arc::clone(&init_params)),
                iterations: AtomicU64::new(0),
                heartbeat_us: AtomicU64::new(0),
                // Dormant joiners stay out of every liveness view until
                // their admission round arrives.
                alive: AtomicBool::new(config.churn_plan.join_of(w).is_none()),
            })
            .collect(),
        round: AtomicU64::new(state.round),
        stop: AtomicBool::new(false),
        pause_lock: Mutex::new(()),
        pause_cv: Condvar::new(),
        start,
        liveness_timeout_us: config.tolerance.liveness_timeout_us,
    });
    let (ready_tx, ready_rx): (Sender<usize>, Receiver<usize>) = channel();
    // Parked workers re-check the round counter (and heartbeat) at this
    // cadence even without a wake-up; it only bounds how stale a missed
    // notify can go, so a healthy fraction of the liveness window is
    // enough — no 1 ms polling.
    let park_recheck = Duration::from_micros((config.tolerance.liveness_timeout_us / 4).max(1_000));
    let mut handles = Vec::new();
    for w in 0..n {
        let shared = Arc::clone(&shared);
        let ready_tx = ready_tx.clone();
        let dataset = Arc::clone(&dataset);
        let mut model = template.clone();
        // A planned joiner draws its streams from the disjoint grant
        // namespace; the forks still sit at worker `w`'s position in the
        // shared sequence, so everyone else replays unchanged.
        let join_round = config.churn_plan.join_of(w).map(|(r, _)| r);
        let (sampler_key, compute_key) = if join_round.is_some() {
            (STREAM_JOIN + 2 * w as u64, STREAM_JOIN + 2 * w as u64 + 1)
        } else {
            (STREAM_SAMPLER + w as u64, STREAM_COMPUTE + w as u64)
        };
        let mut sampler = BatchSampler::new(rng.fork(sampler_key), config.batch_size);
        let mut wrng = rng.fork(compute_key);
        let range = config.compute_us[w];
        let max_lead = config.max_lead;
        let retire_round = config.churn_plan.retire_of(w);
        let evict_round = config.churn_plan.evict_of(w);
        let mut faults = FaultExecutor::new(&config.fault_plan, w);
        handles.push(std::thread::spawn(move || -> WorkerFate {
            if let Some(j) = join_round {
                // Dormant until admission: park against the round counter.
                // The controller streams the model snapshot into this
                // worker's parameter slot before advancing the counter, so
                // waking implies the snapshot is in place.
                while !shared.stop.load(Ordering::Acquire)
                    && shared.round.load(Ordering::Acquire) < j
                {
                    let guard = lock(&shared.pause_lock);
                    let _unused = shared
                        .pause_cv
                        .wait_timeout(guard, park_recheck)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if shared.stop.load(Ordering::Acquire) {
                    return faults.fate();
                }
                shared.slots[w].alive.store(true, Ordering::Release);
                shared.heartbeat(w);
                let _ = ready_tx.send(w);
            }
            let mut departed: Option<WorkerFate> = None;
            let mut local_iter: u64 = 0;
            while !shared.stop.load(Ordering::Acquire) {
                let round_now = shared.round.load(Ordering::Acquire);
                if let Some(r) = retire_round {
                    // Graceful: keep contributing through round `r`; the
                    // controller drains that final contribution before the
                    // counter moves past it.
                    if round_now > r {
                        departed = Some(WorkerFate::Retired { at_round: r });
                        break;
                    }
                }
                if let Some(r) = evict_round {
                    // Forced: out as soon as the eviction round starts;
                    // the controller purges whatever was left behind.
                    if round_now >= r {
                        departed = Some(WorkerFate::Evicted { at_round: r });
                        break;
                    }
                }
                match faults.on_iteration_start(local_iter) {
                    IterDirective::Crash => {
                        // Dead forever: flag it so the controller stops
                        // probing / counting this worker immediately, and
                        // wake it — a death changes the electorate just
                        // like a deposit does.
                        shared.slots[w].alive.store(false, Ordering::Release);
                        let _ = ready_tx.send(w);
                        break;
                    }
                    IterDirective::Restart(down_for) => {
                        // Crash-restart: indistinguishable from a crash
                        // while down, then the process comes back, pulls
                        // the current model from its parameter slot (the
                        // controller keeps pushing to it), and re-enters
                        // the liveness view via its next heartbeat.
                        shared.slots[w].alive.store(false, Ordering::Release);
                        let _ = ready_tx.send(w);
                        interruptible_sleep(down_for, &shared.stop);
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        faults.mark_rejoined();
                        shared.slots[w].alive.store(true, Ordering::Release);
                        let _ = ready_tx.send(w);
                    }
                    IterDirective::HangFor(d) => {
                        // Frozen: no heartbeats until the hang lifts.
                        interruptible_sleep(d, &shared.stop);
                    }
                    IterDirective::Proceed => {}
                }
                shared.heartbeat(w);
                // Bounded lead: park until the round counter catches up,
                // heartbeating so a parked worker is not presumed dead.
                // The controller's `advance_round` notifies the condvar;
                // the timeout is only a missed-wakeup backstop.
                while !shared.stop.load(Ordering::Acquire)
                    && local_iter.saturating_sub(shared.round.load(Ordering::Acquire)) >= max_lead
                {
                    let guard = lock(&shared.pause_lock);
                    let _unused = shared
                        .pause_cv
                        .wait_timeout(guard, park_recheck)
                        .unwrap_or_else(PoisonError::into_inner);
                    shared.heartbeat(w);
                }
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                // Clone the Arc, not the tensor: the snapshot is immutable
                // once published, so the read lock is held only for a
                // refcount bump.
                let params = Arc::clone(
                    &shared.slots[w]
                        .params
                        .read()
                        .unwrap_or_else(PoisonError::into_inner),
                );
                model.set_params(&params);
                let batch = sampler.sample(&dataset);
                let (_, grad) = model.loss_and_grad(&batch);
                sleep_range(&mut wrng, range);
                let extra = faults.extra_compute_delay(local_iter);
                if !extra.is_zero() {
                    std::thread::sleep(extra);
                }
                shared.heartbeat(w);
                lock(&shared.slots[w].cache).write(local_iter, grad);
                shared.slots[w].iterations.fetch_add(1, Ordering::AcqRel);
                local_iter += 1;
                let _ = ready_tx.send(w);
            }
            if let Some(fate) = departed {
                shared.slots[w].alive.store(false, Ordering::Release);
                let _ = ready_tx.send(w);
                return fate;
            }
            faults.fate()
        }));
    }

    let store = config
        .recovery_dir
        .as_ref()
        .map(|dir| CheckpointStore::new(dir).expect("recovery directory must be writable"));
    let mut transport = ThreadedTransport {
        shared: &shared,
        ready_rx,
    };
    let (final_state, recovery) = match supervise(
        config,
        &mut transport,
        &mut rng,
        state,
        store.as_ref(),
        0,
        None,
    ) {
        Supervised::Done(state, recovery) => (state, recovery),
        // Coordinator-level kills exist only in the process world.
        Supervised::Killed { .. } => unreachable!("no abort round was scheduled"),
    };
    shared.stop.store(true, Ordering::Release);
    shared.pause_cv.notify_all();
    let worker_fates: Vec<WorkerFate> = handles
        .into_iter()
        .enumerate()
        .map(|(w, h)| {
            h.join().unwrap_or_else(|_| {
                // The worker thread panicked; record the crash instead of
                // taking the whole run down with it.
                shared.slots[w].alive.store(false, Ordering::Release);
                WorkerFate::Crashed {
                    at_iter: shared.slots[w].iterations.load(Ordering::Acquire),
                }
            })
        })
        .collect();
    let worker_iterations: Vec<u64> = shared
        .slots
        .iter()
        .map(|s| s.iterations.load(Ordering::Acquire))
        .collect();
    // Rounds redone after a failover died with their incarnation's tallies,
    // so the surviving lineage counts every round exactly once.
    let participation = final_state.participation_sum / config.rounds as f64;
    finish(
        config,
        dataset,
        template,
        final_state.master,
        start,
        worker_iterations,
        participation,
        worker_fates,
        final_state.rounds_degraded,
        final_state.deadline_overshoot_us,
        final_state.net,
        recovery,
        final_state.data,
        final_state.churn,
    )
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn finish(
    config: &ThreadedConfig,
    dataset: Arc<Dataset>,
    template: SoftmaxClassifier,
    master: Tensor,
    start: Instant,
    worker_iterations: Vec<u64>,
    mean_participation: f64,
    worker_fates: Vec<WorkerFate>,
    rounds_degraded: u64,
    deadline_overshoot_us: u64,
    net: NetCounters,
    recovery: RecoveryCounters,
    data: DatapathCounters,
    churn: ChurnCounters,
) -> ThreadedResult {
    let wall = start.elapsed();
    let mut model = template;
    model.set_params(&master);
    let batch = dataset.full_batch();
    // The controller is authoritative for planned departures: a retiree
    // whose round has passed may still be mid-exit when the stop flag
    // lands (its self-report would say Healthy), so compose the fate from
    // the plan. Only Healthy is upgraded — a worker that died before its
    // scheduled departure keeps the death verdict.
    let mut worker_fates = worker_fates;
    for &(w, ev) in config.churn_plan.events() {
        if worker_fates[w] != WorkerFate::Healthy {
            continue;
        }
        match ev {
            ChurnEvent::Retire { at_round } if at_round < config.rounds => {
                worker_fates[w] = WorkerFate::Retired { at_round };
            }
            ChurnEvent::Evict { at_round } if at_round <= config.rounds => {
                worker_fates[w] = WorkerFate::Evicted { at_round };
            }
            _ => {}
        }
    }
    ThreadedResult {
        rounds: config.rounds,
        rounds_degraded,
        deadline_overshoot_us,
        wall,
        final_loss: model.loss(&batch),
        final_accuracy: model.accuracy(&batch),
        worker_iterations,
        mean_participation,
        worker_fates,
        messages_dropped: net.messages_dropped,
        probe_retries: net.probe_retries,
        partition_rounds: net.partition_rounds,
        controller_failovers: recovery.controller_failovers,
        failover_rounds_lost: recovery.failover_rounds_lost,
        checkpoints_written: recovery.checkpoints_written,
        datapath_allocs: data.allocs,
        bytes_on_wire: data.bytes_on_wire,
        bytes_saved: data.bytes_saved,
        codec_error_l2: data.codec_error_l2,
        workers_joined: churn.workers_joined,
        workers_retired: churn.workers_retired,
        regroup_events: churn.regroup_events,
        ps_keys_rebalanced: churn.ps_keys_rebalanced,
        snapshot_bytes_streamed: churn.snapshot_bytes_streamed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsp_threaded_trains() {
        let config = ThreadedConfig::quick(3, SyncMode::Bsp);
        let r = run_threaded(&config);
        assert_eq!(r.rounds, 30);
        assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
        assert!(r.final_accuracy > 0.5, "acc {}", r.final_accuracy);
        // BSP: every worker did exactly one iteration per round.
        assert!(r.worker_iterations.iter().all(|&i| i == 30));
        assert_eq!(r.mean_participation, 1.0);
        assert!(r.worker_fates.iter().all(|f| *f == WorkerFate::Healthy));
        assert_eq!(r.rounds_degraded, 0);
        assert_eq!(r.deadline_overshoot_us, 0);
    }

    #[test]
    fn rna_threaded_trains() {
        let config = ThreadedConfig::quick(3, SyncMode::Rna);
        let r = run_threaded(&config);
        assert_eq!(r.rounds, 30);
        assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
        assert!(r.mean_participation > 0.0 && r.mean_participation <= 1.0);
        assert!(r.worker_iterations.iter().all(|&i| i > 0));
        assert_eq!(r.live_workers(), 3);
    }

    #[test]
    fn rna_tolerates_straggler_better_than_bsp() {
        // Worker 3 sleeps 20 ms per iteration vs 1–2 ms for the others.
        // BSP's 30 rounds cost ≥ 600 ms; RNA's rounds are driven by the
        // fast workers.
        let bsp =
            run_threaded(&ThreadedConfig::quick(4, SyncMode::Bsp).with_straggler(20_000, 21_000));
        let rna =
            run_threaded(&ThreadedConfig::quick(4, SyncMode::Rna).with_straggler(20_000, 21_000));
        assert!(
            bsp.wall >= Duration::from_millis(550),
            "bsp wall {:?}",
            bsp.wall
        );
        assert!(
            rna.wall < bsp.wall,
            "rna {:?} should beat bsp {:?}",
            rna.wall,
            bsp.wall
        );
        // And RNA still learned something.
        assert!(rna.final_loss < 1.4);
    }

    #[test]
    fn eager_majority_threaded_trains() {
        let config = ThreadedConfig::quick(4, SyncMode::EagerMajority);
        let r = run_threaded(&config);
        assert_eq!(r.rounds, 30);
        assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
        // Majority trigger: at least half the workers contribute per round
        // on a homogeneous cluster.
        assert!(
            r.mean_participation >= 0.5,
            "participation {}",
            r.mean_participation
        );
    }

    #[test]
    fn bsp_degraded_rounds_account_the_deadline_overshoot() {
        // Every round must time out: a 3 ms deadline against 80 ms
        // compute (wide enough that even a controller woken tens of
        // milliseconds late by a loaded scheduler still finds no
        // gradient). The overshoot counter records the scheduler's
        // wake-up latency past the deadline — with the clamped wait it
        // is bounded by OS jitter, not by a 1 ms-per-contributor floor.
        let mut config = ThreadedConfig::quick(2, SyncMode::Bsp);
        config.rounds = 3;
        config.compute_us = vec![(80_000, 81_000); 2];
        config.tolerance = ToleranceConfig {
            round_deadline_us: 3_000,
            ..ToleranceConfig::default()
        };
        let r = run_threaded(&config);
        assert_eq!(r.rounds_degraded, 3);
        assert_eq!(r.mean_participation, 0.0, "no round applied an update");
        assert!(
            r.deadline_overshoot_us < 3 * 1_000_000,
            "overshoot {} µs is not plausibly scheduler latency",
            r.deadline_overshoot_us
        );
    }

    #[test]
    #[should_panic(expected = "one compute range per worker")]
    fn config_validates_compute_ranges() {
        let mut config = ThreadedConfig::quick(2, SyncMode::Rna);
        config.compute_us.pop();
        run_threaded(&config);
    }

    #[test]
    #[should_panic(expected = "fault plan names worker")]
    fn config_validates_fault_plan_targets() {
        let config =
            ThreadedConfig::quick(2, SyncMode::Rna).with_fault_plan(FaultPlan::none().crash(7, 1));
        run_threaded(&config);
    }

    #[test]
    #[should_panic(expected = "BSP cannot survive a crash")]
    fn bsp_rejects_crash_plans() {
        let config =
            ThreadedConfig::quick(2, SyncMode::Bsp).with_fault_plan(FaultPlan::none().crash(0, 1));
        run_threaded(&config);
    }

    #[test]
    fn controller_round_is_bit_identical_to_the_naive_data_path() {
        use rna_core::cache::GradientCache;
        use rna_tensor::reduce::weighted_average;
        // Replays one controller round on fixed inputs through both the
        // pooled/fused path and the seed's allocate-per-round path. (The
        // full threaded run is wall-clock nondeterministic, so bit-identity
        // is asserted component-wise; see DESIGN.md.)
        let len = 36;
        let mut pool = TensorPool::new();
        for k in 0..4u64 {
            let mut caches: Vec<GradientCache> =
                (0..3).map(|_| GradientCache::new(4, true)).collect();
            let mut caches_pooled: Vec<GradientCache> =
                (0..3).map(|_| GradientCache::new(4, true)).collect();
            for (w, (a, b)) in caches.iter_mut().zip(&mut caches_pooled).enumerate() {
                for i in 0..=w as u64 {
                    let g: Tensor = (0..len)
                        .map(|j| ((k * 91 + w as u64 * 17 + i * 5 + j as u64) as f32).cos())
                        .collect();
                    a.write(k + i, g.clone());
                    b.write(k + i, g);
                }
            }
            // Worker 1 sits the round out in both worlds.
            let naive: Vec<Option<Tensor>> = caches
                .iter_mut()
                .enumerate()
                .map(|(w, c)| (w != 1).then(|| c.take_contribution(k)).flatten())
                .collect();
            let pooled: Vec<Option<Tensor>> = caches_pooled
                .iter_mut()
                .enumerate()
                .map(|(w, c)| {
                    (w != 1)
                        .then(|| c.take_contribution_pooled(k, &mut pool))
                        .flatten()
                })
                .collect();
            let m = naive.iter().flatten().count() as f32;
            let null = Tensor::zeros(len);
            let refs: Vec<&Tensor> = naive.iter().map(|c| c.as_ref().unwrap_or(&null)).collect();
            let weights: Vec<f32> = naive
                .iter()
                .map(|c| if c.is_some() { 1.0 } else { 0.0 })
                .collect();
            let expected = weighted_average(&refs, &weights).unwrap();
            let mut reduced = pool.acquire(len);
            reduce_contributions_into(&mut reduced, &pooled, m);
            assert_eq!(reduced.as_slice(), expected.as_slice(), "round {k}");
            pool.release(reduced);
            for g in pooled.into_iter().flatten() {
                pool.release(g);
            }
        }
        assert!(pool.hits() > 0, "round buffers must be recycled");
    }

    #[test]
    fn poisoned_lock_is_recovered_not_propagated() {
        let m = Arc::new(Mutex::new(17u64));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("die while holding the lock");
        })
        .join();
        assert!(m.is_poisoned());
        // The degraded-run policy: the value is still consistent, use it.
        assert_eq!(*lock(&m), 17);
    }

    #[test]
    fn controller_failover_resumes_from_warm_standby() {
        let config = ThreadedConfig::quick(4, SyncMode::Rna)
            .with_tolerance(ToleranceConfig::tight())
            .with_checkpoint_every(4)
            .with_fault_plan(FaultPlan::none().crash_controller(10));
        let r = run_threaded(&config);
        assert_eq!(r.rounds, 30);
        assert_eq!(r.controller_failovers, 1);
        // Crash at round 10 with cadence 4 → last checkpoint at round 8 →
        // exactly 2 rounds of real progress redone.
        assert_eq!(r.failover_rounds_lost, 2);
        assert!(r.checkpoints_written > 0);
        assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
        assert_eq!(r.live_workers(), 4);
    }

    #[test]
    fn repeated_controller_crashes_are_each_survived() {
        let config = ThreadedConfig::quick(3, SyncMode::EagerMajority)
            .with_tolerance(ToleranceConfig::tight())
            .with_checkpoint_every(3)
            .with_fault_plan(FaultPlan::none().crash_controller(5).crash_controller(12));
        let r = run_threaded(&config);
        assert_eq!(r.rounds, 30);
        assert_eq!(r.controller_failovers, 2);
        assert!(r.final_loss < 1.5, "loss {}", r.final_loss);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rna-threaded-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn killed_process_resumes_from_disk_checkpoint() {
        let dir = scratch_dir("resume");
        // "Process one": dies (run ends) with 10 of 30 rounds budgeted, so
        // the newest checkpoint on disk is from round 10.
        let mut config = ThreadedConfig::quick(3, SyncMode::Rna)
            .with_checkpoint_every(5)
            .with_recovery_dir(&dir);
        config.rounds = 10;
        let first = run_threaded(&config);
        assert!(first.checkpoints_written >= 2);
        // "Process two": same config with the full budget picks up at
        // round 10 and finishes the remaining 20.
        config.rounds = 30;
        let resumed = resume_threaded(&config).expect("resume from disk");
        assert_eq!(resumed.rounds, 30);
        assert!(
            resumed.final_loss < first.final_loss,
            "resumed {} vs first {}",
            resumed.final_loss,
            first.final_loss
        );
        // Resuming the *finished* run replays nothing: the model is served
        // straight from the final checkpoint, bit-for-bit.
        let replay = resume_threaded(&config).expect("resume a finished run");
        assert_eq!(replay.final_loss.to_bits(), resumed.final_loss.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_any_checkpoint_is_a_typed_error() {
        let dir = scratch_dir("missing");
        let config = ThreadedConfig::quick(2, SyncMode::Rna).with_recovery_dir(&dir);
        match resume_threaded(&config) {
            Err(RecoveryError::Missing) => {}
            other => panic!("expected Missing, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "invalid checkpoint cadence")]
    fn zero_checkpoint_cadence_is_rejected() {
        let config = ThreadedConfig::quick(2, SyncMode::Rna).with_checkpoint_every(0);
        run_threaded(&config);
    }

    #[test]
    #[should_panic(expected = "BSP has no standby controller")]
    fn bsp_rejects_controller_crash_plans() {
        let config = ThreadedConfig::quick(2, SyncMode::Bsp)
            .with_fault_plan(FaultPlan::none().crash_controller(3));
        run_threaded(&config);
    }

    #[test]
    fn lossless_wire_accounts_bytes_but_saves_nothing() {
        let r = run_threaded(&ThreadedConfig::quick(3, SyncMode::Rna));
        assert!(r.bytes_on_wire > 0, "drained gradients must be accounted");
        assert_eq!(r.bytes_saved, 0);
        assert_eq!(r.codec_error_l2, 0.0);
    }

    #[test]
    fn lossy_wire_shrinks_bytes_and_still_trains() {
        let lossless = run_threaded(&ThreadedConfig::quick(3, SyncMode::Rna));
        for codec in [
            Compression::Fp16,
            Compression::Int8,
            Compression::top_k_10pct(),
        ] {
            let r = run_threaded(&ThreadedConfig::quick(3, SyncMode::Rna).with_compression(codec));
            assert!(r.bytes_on_wire > 0, "{codec:?}");
            assert!(r.bytes_saved > 0, "{codec:?} saved nothing");
            assert!(
                r.codec_error_l2 > 0.0 && r.codec_error_l2.is_finite(),
                "{codec:?} error {}",
                r.codec_error_l2
            );
            // Real threads make byte totals run-dependent (participation
            // varies), so compare rates, not totals: the mean encoded
            // frame must be smaller than the mean lossless frame.
            let frames = |x: &ThreadedResult| (x.bytes_on_wire + x.bytes_saved) as f64;
            assert!(
                r.bytes_on_wire as f64 / frames(&r) < 0.95,
                "{codec:?} frame shrink {} / {}",
                r.bytes_on_wire,
                frames(&r)
            );
            assert!(
                r.final_loss.is_finite() && r.final_loss < lossless.final_loss * 3.0 + 1.0,
                "{codec:?} diverged: {} vs {}",
                r.final_loss,
                lossless.final_loss
            );
        }
    }
}
