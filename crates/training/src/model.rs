//! Differentiable models.
//!
//! Every model stores its parameters as one flat [`Tensor`] — the same
//! flattened view a Horovod-style AllReduce synchronizes — and computes real
//! gradients by backpropagation. Gradient correctness is verified against
//! finite differences in the tests, so convergence results downstream are
//! genuine optimization dynamics.

use rna_simnet::SimRng;
use rna_tensor::Tensor;

use crate::dataset::Batch;
use crate::loss::{cross_entropy, mse_grad, softmax, softmax_xent_grad};

/// A supervised model trained by mini-batch SGD.
///
/// Implementations are exchangeable replicas: the protocol engines clone one
/// template model per worker and keep the replicas in sync through
/// collectives.
pub trait Model: Send {
    /// Short human-readable name.
    fn name(&self) -> &'static str;

    /// Number of trainable parameters.
    fn num_params(&self) -> usize;

    /// The flattened parameter vector.
    fn params(&self) -> &Tensor;

    /// Overwrites the parameters.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from [`Model::num_params`].
    fn set_params(&mut self, p: &Tensor);

    /// Mean loss over the batch and its gradient w.r.t. the parameters.
    fn loss_and_grad(&self, batch: &Batch<'_>) -> (f32, Tensor);

    /// Mean loss over the batch.
    fn loss(&self, batch: &Batch<'_>) -> f32 {
        self.loss_and_grad(batch).0
    }

    /// Classification accuracy over the batch (0.0 for regression models).
    fn accuracy(&self, batch: &Batch<'_>) -> f32;

    /// Per-class scores (logits) for sample `i` of the batch's dataset, or
    /// `None` for non-classification models.
    fn class_scores(&self, batch: &Batch<'_>, i: usize) -> Option<Vec<f32>> {
        let _ = (batch, i);
        None
    }

    /// Top-`k` accuracy over the batch: the fraction of samples whose true
    /// label is among the `k` highest-scoring classes (0.0 for regression
    /// models or an empty batch). Table 4 of the paper reports top-1 and
    /// top-5.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    fn top_k_accuracy(&self, batch: &Batch<'_>, k: usize) -> f32 {
        assert!(k > 0, "k must be at least one");
        if batch.is_empty() {
            return 0.0;
        }
        let ds = batch.dataset();
        let mut correct = 0usize;
        let mut scored = 0usize;
        for &i in batch.indices() {
            let Some(scores) = self.class_scores(batch, i) else {
                return 0.0;
            };
            scored += 1;
            if label_in_top_k(&scores, ds.label(i), k) {
                correct += 1;
            }
        }
        correct as f32 / scored.max(1) as f32
    }

    /// Evaluation metrics over the batch: `(loss, accuracy, top-5
    /// accuracy)`, each bit-identical to [`Model::loss`],
    /// [`Model::accuracy`] and [`Model::top_k_accuracy`]`(batch, 5)`.
    /// Models that can score each sample once override this with one pass.
    fn evaluate(&self, batch: &Batch<'_>) -> (f32, f32, f32) {
        (
            self.loss(batch),
            self.accuracy(batch),
            self.top_k_accuracy(batch, 5),
        )
    }

    /// A boxed deep copy (replica for another worker).
    fn clone_model(&self) -> Box<dyn Model>;
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// Whether `label` is among the first `k` classes of a stable descending
/// sort of `scores` (ties keep class order).
///
/// # Panics
///
/// Panics if a score is NaN.
fn label_in_top_k(scores: &[f32], label: usize, k: usize) -> bool {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("NaN score"));
    order.iter().take(k).any(|&c| c == label)
}

/// Index of the largest score (the last one among equal maxima).
fn argmax(scores: &[f32]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(c, _)| c)
        .unwrap()
}

fn init_params(n: usize, scale: f32, rng: &mut SimRng) -> Tensor {
    (0..n).map(|_| rng.uniform_init(scale)).collect()
}

/// A linear softmax classifier (`logits = W x + b`) — convex, so every
/// convergence comparison on it is deterministic in shape.
///
/// # Examples
///
/// ```
/// use rna_simnet::SimRng;
/// use rna_training::{model::SoftmaxClassifier, Dataset, Model};
///
/// let mut rng = SimRng::seed(0);
/// let ds = Dataset::blobs(64, 4, 3, 0.2, &mut rng);
/// let model = SoftmaxClassifier::new(4, 3, &mut rng);
/// let (loss, grad) = model.loss_and_grad(&ds.full_batch());
/// assert!(loss > 0.0);
/// assert_eq!(grad.len(), model.num_params());
/// ```
#[derive(Debug, Clone)]
pub struct SoftmaxClassifier {
    dim: usize,
    classes: usize,
    params: Tensor,
}

impl SoftmaxClassifier {
    /// Creates a classifier with small random weights.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `classes < 2`.
    pub fn new(dim: usize, classes: usize, rng: &mut SimRng) -> Self {
        assert!(dim > 0, "input dimension must be positive");
        assert!(classes >= 2, "need at least two classes");
        SoftmaxClassifier {
            dim,
            classes,
            params: init_params(classes * dim + classes, 0.01, rng),
        }
    }

    /// Per-class scores `W x + b`.
    ///
    /// Classes run eight at a time as eight lock-step accumulators (eight
    /// independent add chains instead of one); each accumulator starts from
    /// −0.0 and adds its row's products in index order, exactly as
    /// `Iterator::sum` does, so every logit is bit-identical to the
    /// one-row-at-a-time sum. The last `classes % 8` rows take that sum.
    fn logits(&self, x: &[f32]) -> Vec<f32> {
        let (w, bias) = self.params.as_slice().split_at(self.classes * self.dim);
        let mut out = Vec::with_capacity(self.classes);
        let mut groups = w.chunks_exact(8 * self.dim);
        for group in groups.by_ref() {
            out.extend(dot8(group, self.dim, x));
        }
        for row in groups.remainder().chunks_exact(self.dim) {
            out.push(row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f32>());
        }
        for (l, b) in out.iter_mut().zip(bias) {
            *l += b;
        }
        out
    }
}

/// Dot products of eight consecutive `dim`-long rows of `group` with `x`,
/// each summed in index order from −0.0 (`Iterator::sum`'s order), with
/// the eight sums advancing in lock step.
fn dot8(group: &[f32], dim: usize, x: &[f32]) -> [f32; 8] {
    let n = dim.min(x.len());
    let x = &x[..n];
    let rows: [&[f32]; 8] = std::array::from_fn(|l| &group[l * dim..l * dim + n]);
    let mut acc = [-0.0f32; 8];
    for (d, &xi) in x.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += row[d] * xi;
        }
    }
    acc
}

impl Model for SoftmaxClassifier {
    fn name(&self) -> &'static str {
        "softmax"
    }

    fn num_params(&self) -> usize {
        self.classes * self.dim + self.classes
    }

    fn params(&self) -> &Tensor {
        &self.params
    }

    fn set_params(&mut self, p: &Tensor) {
        assert_eq!(p.len(), self.num_params(), "parameter length mismatch");
        self.params.copy_from(p);
    }

    fn loss_and_grad(&self, batch: &Batch<'_>) -> (f32, Tensor) {
        let mut grad = Tensor::zeros(self.num_params());
        let mut total = 0.0f32;
        let ds = batch.dataset();
        for &i in batch.indices() {
            let x = ds.input(i);
            let (loss, dlogits) = softmax_xent_grad(&self.logits(x), ds.label(i));
            total += loss;
            let g = grad.as_mut_slice();
            for c in 0..self.classes {
                let dc = dlogits[c];
                for (d, &xi) in x.iter().enumerate() {
                    g[c * self.dim + d] += dc * xi;
                }
                g[self.classes * self.dim + c] += dc;
            }
        }
        let n = batch.len().max(1) as f32;
        grad.scale(1.0 / n);
        (total / n, grad)
    }

    fn accuracy(&self, batch: &Batch<'_>) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let ds = batch.dataset();
        let correct = batch
            .indices()
            .iter()
            .filter(|&&i| argmax(&self.logits(ds.input(i))) == ds.label(i))
            .count();
        correct as f32 / batch.len() as f32
    }

    fn class_scores(&self, batch: &Batch<'_>, i: usize) -> Option<Vec<f32>> {
        Some(self.logits(batch.dataset().input(i)))
    }

    /// One logits pass per sample feeds all three metrics; the sums and
    /// divisions are the ones the three separate methods perform.
    fn evaluate(&self, batch: &Batch<'_>) -> (f32, f32, f32) {
        if batch.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let ds = batch.dataset();
        let (mut total, mut correct, mut top5) = (0.0f32, 0usize, 0usize);
        for &i in batch.indices() {
            let logits = self.logits(ds.input(i));
            let label = ds.label(i);
            total += cross_entropy(&softmax(&logits), label);
            correct += usize::from(argmax(&logits) == label);
            top5 += usize::from(label_in_top_k(&logits, label, 5));
        }
        let n = batch.len() as f32;
        (total / n, correct as f32 / n, top5 as f32 / n)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// A one-hidden-layer MLP with tanh activation and softmax output — the
/// non-convex stand-in for the CNN workloads.
#[derive(Debug, Clone)]
pub struct Mlp {
    dim: usize,
    hidden: usize,
    classes: usize,
    params: Tensor,
}

impl Mlp {
    /// Creates an MLP with Xavier-ish initialization.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `classes < 2`.
    pub fn new(dim: usize, hidden: usize, classes: usize, rng: &mut SimRng) -> Self {
        assert!(dim > 0 && hidden > 0, "dimensions must be positive");
        assert!(classes >= 2, "need at least two classes");
        let n = hidden * dim + hidden + classes * hidden + classes;
        let scale = (1.0 / dim as f32).sqrt();
        Mlp {
            dim,
            hidden,
            classes,
            params: init_params(n, scale, rng),
        }
    }

    // Parameter layout offsets.
    fn off_b1(&self) -> usize {
        self.hidden * self.dim
    }
    fn off_w2(&self) -> usize {
        self.off_b1() + self.hidden
    }
    fn off_b2(&self) -> usize {
        self.off_w2() + self.classes * self.hidden
    }

    /// Forward pass: returns `(hidden_activations, logits)`.
    fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let p = self.params.as_slice();
        let h: Vec<f32> = (0..self.hidden)
            .map(|j| {
                let row = &p[j * self.dim..(j + 1) * self.dim];
                let pre =
                    row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f32>() + p[self.off_b1() + j];
                pre.tanh()
            })
            .collect();
        let logits: Vec<f32> = (0..self.classes)
            .map(|c| {
                let row =
                    &p[self.off_w2() + c * self.hidden..self.off_w2() + (c + 1) * self.hidden];
                row.iter().zip(&h).map(|(w, hj)| w * hj).sum::<f32>() + p[self.off_b2() + c]
            })
            .collect();
        (h, logits)
    }
}

impl Model for Mlp {
    fn name(&self) -> &'static str {
        "mlp"
    }

    fn num_params(&self) -> usize {
        self.hidden * self.dim + self.hidden + self.classes * self.hidden + self.classes
    }

    fn params(&self) -> &Tensor {
        &self.params
    }

    fn set_params(&mut self, p: &Tensor) {
        assert_eq!(p.len(), self.num_params(), "parameter length mismatch");
        self.params.copy_from(p);
    }

    fn loss_and_grad(&self, batch: &Batch<'_>) -> (f32, Tensor) {
        let mut grad = Tensor::zeros(self.num_params());
        let mut total = 0.0f32;
        let ds = batch.dataset();
        let p = self.params.as_slice();
        for &i in batch.indices() {
            let x = ds.input(i);
            let (h, logits) = self.forward(x);
            let (loss, dlogits) = softmax_xent_grad(&logits, ds.label(i));
            total += loss;
            let g = grad.as_mut_slice();
            // Output layer.
            let mut dh = vec![0.0f32; self.hidden];
            for c in 0..self.classes {
                let dc = dlogits[c];
                for j in 0..self.hidden {
                    g[self.off_w2() + c * self.hidden + j] += dc * h[j];
                    dh[j] += dc * p[self.off_w2() + c * self.hidden + j];
                }
                g[self.off_b2() + c] += dc;
            }
            // Hidden layer (tanh' = 1 - h²).
            for j in 0..self.hidden {
                let dpre = dh[j] * (1.0 - h[j] * h[j]);
                for (d, &xi) in x.iter().enumerate() {
                    g[j * self.dim + d] += dpre * xi;
                }
                g[self.off_b1() + j] += dpre;
            }
        }
        let n = batch.len().max(1) as f32;
        grad.scale(1.0 / n);
        (total / n, grad)
    }

    fn accuracy(&self, batch: &Batch<'_>) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let ds = batch.dataset();
        let correct = batch
            .indices()
            .iter()
            .filter(|&&i| argmax(&self.forward(ds.input(i)).1) == ds.label(i))
            .count();
        correct as f32 / batch.len() as f32
    }

    fn class_scores(&self, batch: &Batch<'_>, i: usize) -> Option<Vec<f32>> {
        Some(self.forward(batch.dataset().input(i)).1)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// Plain linear regression with MSE loss — the convergence-analysis
/// workhorse in the tests (its optimum is known in closed form).
#[derive(Debug, Clone)]
pub struct LinearRegression {
    dim: usize,
    params: Tensor,
}

impl LinearRegression {
    /// Creates a regressor initialized at zero.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "input dimension must be positive");
        LinearRegression {
            dim,
            params: Tensor::zeros(dim + 1),
        }
    }

    fn predict(&self, x: &[f32]) -> f32 {
        let p = self.params.as_slice();
        p[..self.dim]
            .iter()
            .zip(x)
            .map(|(w, xi)| w * xi)
            .sum::<f32>()
            + p[self.dim]
    }
}

impl Model for LinearRegression {
    fn name(&self) -> &'static str {
        "linreg"
    }

    fn num_params(&self) -> usize {
        self.dim + 1
    }

    fn params(&self) -> &Tensor {
        &self.params
    }

    fn set_params(&mut self, p: &Tensor) {
        assert_eq!(p.len(), self.num_params(), "parameter length mismatch");
        self.params.copy_from(p);
    }

    fn loss_and_grad(&self, batch: &Batch<'_>) -> (f32, Tensor) {
        let mut grad = Tensor::zeros(self.num_params());
        let mut total = 0.0f32;
        let ds = batch.dataset();
        for &i in batch.indices() {
            let x = ds.input(i);
            let (loss, dpred) = mse_grad(self.predict(x), ds.target(i));
            total += loss;
            let g = grad.as_mut_slice();
            for (d, &xi) in x.iter().enumerate() {
                g[d] += dpred * xi;
            }
            g[self.dim] += dpred;
        }
        let n = batch.len().max(1) as f32;
        grad.scale(1.0 / n);
        (total / n, grad)
    }

    fn accuracy(&self, _batch: &Batch<'_>) -> f32 {
        0.0
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// An Elman recurrent network trained with full back-propagation through
/// time — the variable-length stand-in for the paper's LSTM:
///
/// ```text
/// h_t = tanh(Wx x_t + Wh h_{t−1} + bh),   logits = Wo h_T + bo
/// ```
///
/// Compute cost is genuinely proportional to sequence length, reproducing
/// the §2.3.1 imbalance at the numerical level, not just the timing level.
#[derive(Debug, Clone)]
pub struct ElmanRnn {
    dim: usize,
    hidden: usize,
    classes: usize,
    params: Tensor,
}

impl ElmanRnn {
    /// Creates an RNN with small random weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `classes < 2`.
    pub fn new(dim: usize, hidden: usize, classes: usize, rng: &mut SimRng) -> Self {
        assert!(dim > 0 && hidden > 0, "dimensions must be positive");
        assert!(classes >= 2, "need at least two classes");
        let n = hidden * dim + hidden * hidden + hidden + classes * hidden + classes;
        let scale = (1.0 / (dim + hidden) as f32).sqrt();
        ElmanRnn {
            dim,
            hidden,
            classes,
            params: init_params(n, scale, rng),
        }
    }

    fn off_wh(&self) -> usize {
        self.hidden * self.dim
    }
    fn off_bh(&self) -> usize {
        self.off_wh() + self.hidden * self.hidden
    }
    fn off_wo(&self) -> usize {
        self.off_bh() + self.hidden
    }
    fn off_bo(&self) -> usize {
        self.off_wo() + self.classes * self.hidden
    }

    /// Unrolls the network over a sequence; returns hidden states per step
    /// (index 0 is the initial zero state) and final logits.
    fn forward(&self, seq: &[f32], len: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let p = self.params.as_slice();
        let mut hs: Vec<Vec<f32>> = Vec::with_capacity(len + 1);
        hs.push(vec![0.0; self.hidden]);
        for t in 0..len {
            let x = &seq[t * self.dim..(t + 1) * self.dim];
            let prev = &hs[t];
            let h: Vec<f32> = (0..self.hidden)
                .map(|j| {
                    let wx = &p[j * self.dim..(j + 1) * self.dim];
                    let wh =
                        &p[self.off_wh() + j * self.hidden..self.off_wh() + (j + 1) * self.hidden];
                    let pre = wx.iter().zip(x).map(|(w, xi)| w * xi).sum::<f32>()
                        + wh.iter().zip(prev).map(|(w, hi)| w * hi).sum::<f32>()
                        + p[self.off_bh() + j];
                    pre.tanh()
                })
                .collect();
            hs.push(h);
        }
        let last = &hs[len];
        let logits: Vec<f32> = (0..self.classes)
            .map(|c| {
                let row =
                    &p[self.off_wo() + c * self.hidden..self.off_wo() + (c + 1) * self.hidden];
                row.iter().zip(last).map(|(w, hj)| w * hj).sum::<f32>() + p[self.off_bo() + c]
            })
            .collect();
        (hs, logits)
    }
}

impl Model for ElmanRnn {
    fn name(&self) -> &'static str {
        "rnn"
    }

    fn num_params(&self) -> usize {
        self.hidden * self.dim
            + self.hidden * self.hidden
            + self.hidden
            + self.classes * self.hidden
            + self.classes
    }

    fn params(&self) -> &Tensor {
        &self.params
    }

    fn set_params(&mut self, p: &Tensor) {
        assert_eq!(p.len(), self.num_params(), "parameter length mismatch");
        self.params.copy_from(p);
    }

    fn loss_and_grad(&self, batch: &Batch<'_>) -> (f32, Tensor) {
        let mut grad = Tensor::zeros(self.num_params());
        let mut total = 0.0f32;
        let ds = batch.dataset();
        let p = self.params.as_slice();
        for &i in batch.indices() {
            let len = ds.seq_len(i);
            let seq = ds.input(i);
            let (hs, logits) = self.forward(seq, len);
            let (loss, dlogits) = softmax_xent_grad(&logits, ds.label(i));
            total += loss;
            let g = grad.as_mut_slice();
            // Output layer → gradient into the final hidden state.
            let mut dh = vec![0.0f32; self.hidden];
            for c in 0..self.classes {
                let dc = dlogits[c];
                for j in 0..self.hidden {
                    g[self.off_wo() + c * self.hidden + j] += dc * hs[len][j];
                    dh[j] += dc * p[self.off_wo() + c * self.hidden + j];
                }
                g[self.off_bo() + c] += dc;
            }
            // BPTT over all time steps.
            for t in (0..len).rev() {
                let x = &seq[t * self.dim..(t + 1) * self.dim];
                let h = &hs[t + 1];
                let prev = &hs[t];
                let mut dprev = vec![0.0f32; self.hidden];
                for j in 0..self.hidden {
                    let dpre = dh[j] * (1.0 - h[j] * h[j]);
                    for (d, &xi) in x.iter().enumerate() {
                        g[j * self.dim + d] += dpre * xi;
                    }
                    for k in 0..self.hidden {
                        g[self.off_wh() + j * self.hidden + k] += dpre * prev[k];
                        dprev[k] += dpre * p[self.off_wh() + j * self.hidden + k];
                    }
                    g[self.off_bh() + j] += dpre;
                }
                dh = dprev;
            }
        }
        let n = batch.len().max(1) as f32;
        grad.scale(1.0 / n);
        (total / n, grad)
    }

    fn accuracy(&self, batch: &Batch<'_>) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let ds = batch.dataset();
        let correct = batch
            .indices()
            .iter()
            .filter(|&&i| argmax(&self.forward(ds.input(i), ds.seq_len(i)).1) == ds.label(i))
            .count();
        correct as f32 / batch.len() as f32
    }

    fn class_scores(&self, batch: &Batch<'_>, i: usize) -> Option<Vec<f32>> {
        let ds = batch.dataset();
        Some(self.forward(ds.input(i), ds.seq_len(i)).1)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::optimizer::Sgd;

    /// Finite-difference check of a model's analytic gradient.
    fn check_gradient(model: &mut dyn Model, batch: &Batch<'_>, tol: f32) {
        let (_, grad) = model.loss_and_grad(batch);
        let base = model.params().clone();
        let eps = 1e-3;
        // Spot-check a spread of coordinates to keep the test fast.
        let n = model.num_params();
        let step = (n / 17).max(1);
        for idx in (0..n).step_by(step) {
            let mut plus = base.clone();
            plus[idx] += eps;
            model.set_params(&plus);
            let lp = model.loss(batch);
            let mut minus = base.clone();
            minus[idx] -= eps;
            model.set_params(&minus);
            let lm = model.loss(batch);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grad[idx] - fd).abs() < tol,
                "param {idx}: analytic {} vs fd {fd}",
                grad[idx]
            );
        }
        model.set_params(&base);
    }

    #[test]
    fn softmax_gradient_matches_finite_difference() {
        let mut rng = SimRng::seed(1);
        let ds = Dataset::blobs(16, 5, 3, 0.3, &mut rng);
        let mut m = SoftmaxClassifier::new(5, 3, &mut rng);
        check_gradient(&mut m, &ds.full_batch(), 2e-3);
    }

    #[test]
    fn mlp_gradient_matches_finite_difference() {
        let mut rng = SimRng::seed(2);
        let ds = Dataset::blobs(12, 4, 3, 0.3, &mut rng);
        let mut m = Mlp::new(4, 6, 3, &mut rng);
        check_gradient(&mut m, &ds.full_batch(), 2e-3);
    }

    #[test]
    fn linreg_gradient_matches_finite_difference() {
        let mut rng = SimRng::seed(3);
        let ds = Dataset::regression(16, 4, 0.1, &mut rng);
        let mut m = LinearRegression::new(4);
        check_gradient(&mut m, &ds.full_batch(), 2e-3);
    }

    #[test]
    fn rnn_gradient_matches_finite_difference() {
        let mut rng = SimRng::seed(4);
        let lens = [3usize, 5, 2, 4];
        let ds = Dataset::sequences(&lens, 3, 2, 0.2, &mut rng);
        let mut m = ElmanRnn::new(3, 5, 2, &mut rng);
        check_gradient(&mut m, &ds.full_batch(), 3e-3);
    }

    #[test]
    fn sgd_reduces_softmax_loss() {
        let mut rng = SimRng::seed(5);
        let ds = Dataset::blobs(200, 6, 3, 0.3, &mut rng);
        let mut m = SoftmaxClassifier::new(6, 3, &mut rng);
        let batch = ds.full_batch();
        let initial = m.loss(&batch);
        let mut opt = Sgd::new(0.5, 0.0, 0.0, m.num_params());
        for _ in 0..100 {
            let (_, g) = m.loss_and_grad(&batch);
            let mut p = m.params().clone();
            opt.step(&mut p, &g, 1.0);
            m.set_params(&p);
        }
        let trained = m.loss(&batch);
        assert!(trained < initial * 0.5, "loss {initial} -> {trained}");
        assert!(m.accuracy(&batch) > 0.9);
    }

    #[test]
    fn sgd_trains_rnn_on_sequences() {
        let mut rng = SimRng::seed(6);
        let lens: Vec<usize> = (0..120).map(|_| 3 + (rng.choose_one(6))).collect();
        let ds = Dataset::sequences(&lens, 3, 2, 0.3, &mut rng);
        let mut m = ElmanRnn::new(3, 8, 2, &mut rng);
        let batch = ds.full_batch();
        let initial = m.loss(&batch);
        let mut opt = Sgd::new(0.3, 0.5, 0.0, m.num_params());
        for _ in 0..120 {
            let (_, g) = m.loss_and_grad(&batch);
            let mut p = m.params().clone();
            opt.step(&mut p, &g, 1.0);
            m.set_params(&p);
        }
        assert!(m.loss(&batch) < initial * 0.6);
        assert!(m.accuracy(&batch) > 0.8);
    }

    #[test]
    fn linreg_recovers_ground_truth() {
        let mut rng = SimRng::seed(7);
        let ds = Dataset::regression(300, 3, 0.0, &mut rng);
        let mut m = LinearRegression::new(3);
        let batch = ds.full_batch();
        let mut opt = Sgd::new(0.1, 0.0, 0.0, m.num_params());
        for _ in 0..500 {
            let (_, g) = m.loss_and_grad(&batch);
            let mut p = m.params().clone();
            opt.step(&mut p, &g, 1.0);
            m.set_params(&p);
        }
        assert!(m.loss(&batch) < 1e-3);
        assert_eq!(m.accuracy(&batch), 0.0);
    }

    #[test]
    fn clone_model_is_independent() {
        let mut rng = SimRng::seed(8);
        let m = SoftmaxClassifier::new(3, 2, &mut rng);
        let mut c = m.clone_model();
        c.set_params(&Tensor::zeros(m.num_params()));
        assert_ne!(m.params().as_slice(), c.params().as_slice());
        assert_eq!(m.name(), c.name());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_params_validates_length() {
        let mut rng = SimRng::seed(9);
        let mut m = SoftmaxClassifier::new(3, 2, &mut rng);
        m.set_params(&Tensor::zeros(1));
    }

    #[test]
    fn num_params_layouts() {
        let mut rng = SimRng::seed(10);
        assert_eq!(SoftmaxClassifier::new(4, 3, &mut rng).num_params(), 15);
        assert_eq!(Mlp::new(4, 5, 3, &mut rng).num_params(), 4 * 5 + 5 + 15 + 3);
        assert_eq!(LinearRegression::new(4).num_params(), 5);
        assert_eq!(
            ElmanRnn::new(3, 4, 2, &mut rng).num_params(),
            12 + 16 + 4 + 8 + 2
        );
    }

    #[test]
    fn top_k_accuracy_ranks_classes() {
        let mut rng = SimRng::seed(20);
        let ds = Dataset::blobs(120, 6, 6, 0.4, &mut rng);
        let mut m = SoftmaxClassifier::new(6, 6, &mut rng);
        let batch = ds.full_batch();
        let mut opt = Sgd::new(0.5, 0.0, 0.0, m.num_params());
        for _ in 0..60 {
            let (_, g) = m.loss_and_grad(&batch);
            let mut p = m.params().clone();
            opt.step(&mut p, &g, 1.0);
            m.set_params(&p);
        }
        let top1 = m.top_k_accuracy(&batch, 1);
        let top5 = m.top_k_accuracy(&batch, 5);
        // Top-1 coincides with accuracy(); top-5 dominates top-1 and, with
        // 6 classes, is near-perfect after training.
        assert!((top1 - m.accuracy(&batch)).abs() < 1e-6);
        assert!(top5 >= top1);
        assert!(top5 > 0.95, "top5 {top5}");
        // k beyond the class count is trivially 1.
        assert_eq!(m.top_k_accuracy(&batch, 6), 1.0);
    }

    #[test]
    fn lockstep_logits_match_the_iterator_sum() {
        let dim = 11;
        let mut rng = SimRng::seed(23);
        // Signed zeros in both factors, so some products (and whole rows'
        // sums) are −0.0 and the accumulators' −0.0 start shows.
        let x: Vec<f32> = (0..dim)
            .map(|d| match d % 4 {
                0 => -0.0,
                1 => 0.0,
                _ => rng.uniform_f64(-1.0..1.0) as f32,
            })
            .collect();
        for classes in 2..=17 {
            let mut m = SoftmaxClassifier::new(dim, classes, &mut rng);
            let p: Tensor = (0..m.num_params())
                .map(|i| match i % 7 {
                    0 | 3 => -0.0,
                    5 => 0.0,
                    _ => rng.uniform_f64(-2.0..2.0) as f32,
                })
                .collect();
            m.set_params(&p);
            let p = p.as_slice();
            for (c, logit) in m.logits(&x).iter().enumerate() {
                let row = &p[c * dim..(c + 1) * dim];
                let reference =
                    row.iter().zip(&x).map(|(w, xi)| w * xi).sum::<f32>() + p[classes * dim + c];
                assert_eq!(
                    logit.to_bits(),
                    reference.to_bits(),
                    "classes={classes} c={c}"
                );
            }
            // A row of only −0.0 products sums to −0.0, as `sum` does.
            let zero_row = |w: f32| (0..dim).map(|_| w).collect::<Vec<f32>>();
            let mut q = p.to_vec();
            q[..dim].copy_from_slice(&zero_row(-0.0));
            q[classes * dim] = -0.0;
            m.set_params(&Tensor::from_vec(q));
            let positive_x: Vec<f32> = x.iter().map(|v| v.abs() + 1.0).collect();
            assert_eq!(m.logits(&positive_x)[0].to_bits(), (-0.0f32).to_bits());
        }
    }

    #[test]
    fn one_pass_evaluation_matches_the_three_metrics() {
        let mut rng = SimRng::seed(24);
        let ds = Dataset::blobs(90, 12, 9, 0.6, &mut rng);
        let m = SoftmaxClassifier::new(12, 9, &mut rng);
        for batch in [ds.full_batch(), ds.batch(vec![3, 1, 4]), ds.batch(vec![])] {
            let (loss, acc, top5) = m.evaluate(&batch);
            assert_eq!(loss.to_bits(), m.loss(&batch).to_bits());
            assert_eq!(acc.to_bits(), m.accuracy(&batch).to_bits());
            assert_eq!(top5.to_bits(), m.top_k_accuracy(&batch, 5).to_bits());
        }
    }

    #[test]
    fn top_k_is_zero_for_regression() {
        let mut rng = SimRng::seed(21);
        let ds = Dataset::regression(16, 3, 0.1, &mut rng);
        let m = LinearRegression::new(3);
        assert_eq!(m.top_k_accuracy(&ds.full_batch(), 3), 0.0);
        assert!(m.class_scores(&ds.full_batch(), 0).is_none());
    }

    #[test]
    fn rnn_class_scores_exist() {
        let mut rng = SimRng::seed(22);
        let lens = [3usize, 5];
        let ds = Dataset::sequences(&lens, 2, 3, 0.2, &mut rng);
        let m = ElmanRnn::new(2, 4, 3, &mut rng);
        let batch = ds.full_batch();
        assert_eq!(m.class_scores(&batch, 0).unwrap().len(), 3);
        let t = m.top_k_accuracy(&batch, 2);
        assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn empty_batch_loss_is_finite() {
        let mut rng = SimRng::seed(11);
        let ds = Dataset::blobs(4, 3, 2, 0.3, &mut rng);
        let m = SoftmaxClassifier::new(3, 2, &mut rng);
        let batch = ds.batch(vec![]);
        let (loss, grad) = m.loss_and_grad(&batch);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
        assert_eq!(m.accuracy(&batch), 0.0);
    }
}
