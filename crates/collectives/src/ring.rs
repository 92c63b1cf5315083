//! Ring AllReduce data movement (§2.2 of the paper).
//!
//! The implementation is deliberately literal: each worker holds a buffer,
//! chunks are moved between ring neighbors step by step, and reductions are
//! applied per chunk — so the tests can verify not just the final sum but
//! the invariant that every worker touched exactly `2(N−1)` chunks.

use rna_tensor::{partition, ReduceOp, Tensor};

/// Performs a ring AllReduce over per-worker buffers, in place: after the
/// call every buffer holds `op` applied across all inputs (for
/// [`ReduceOp::Mean`], the element-wise mean).
///
/// The schedule is the scatter-and-gather form described in §2.2: in
/// reduce-scatter step `s`, worker `i` sends chunk `(i − s) mod N` to its
/// right neighbor `i + 1` and reduces the chunk arriving from its left
/// neighbor; after `N−1` steps worker `i` owns the fully reduced chunk
/// `(i + 1) mod N`, and `N−1` all-gather steps circulate the reduced chunks.
///
/// Returns the total number of chunk transfers performed (`2 N (N−1)` for
/// `N > 1`), which the cost model cross-checks.
///
/// # Panics
///
/// Panics if `buffers` is empty or the buffers have differing lengths.
///
/// # Examples
///
/// ```
/// use rna_collectives::ring_allreduce;
/// use rna_tensor::{ReduceOp, Tensor};
///
/// let mut bufs = vec![
///     Tensor::from_vec(vec![1.0, 2.0, 3.0]),
///     Tensor::from_vec(vec![4.0, 5.0, 6.0]),
/// ];
/// ring_allreduce(&mut bufs, ReduceOp::Sum);
/// assert_eq!(bufs[0].as_slice(), &[5.0, 7.0, 9.0]);
/// assert_eq!(bufs[1].as_slice(), &[5.0, 7.0, 9.0]);
/// ```
pub fn ring_allreduce(buffers: &mut [Tensor], op: ReduceOp) -> u64 {
    assert!(
        !buffers.is_empty(),
        "ring allreduce needs at least one buffer"
    );
    let n = buffers.len();
    let len = buffers[0].len();
    assert!(
        buffers.iter().all(|b| b.len() == len),
        "ring allreduce buffers must have equal lengths"
    );
    if n == 1 {
        return 0;
    }
    let chunks = partition(len, n);
    // Within one step every worker sends a *distinct* chunk index, so the
    // outgoing chunks of a whole step occupy disjoint ranges of one
    // full-length scratch plane that snapshots all simultaneous sends;
    // receives then reduce (or copy) in place from it.
    let mut scratch = Tensor::zeros(len);
    let mut transfers = 0u64;

    // Reduce-scatter: N−1 steps.
    for step in 0..n - 1 {
        // All sends in a step are logically simultaneous; snapshot the
        // outgoing chunks onto the scratch plane first (disjoint ranges).
        for (i, buffer) in buffers.iter().enumerate() {
            let c = (i + n - step) % n;
            let range = chunks[c].as_range();
            scratch.as_mut_slice()[range.clone()].copy_from_slice(&buffer.as_slice()[range]);
        }
        for (i, buffer) in buffers.iter_mut().enumerate() {
            // Worker i receives from its left neighbor i−1 the chunk that
            // neighbor sent this step, and reduces it into its own buffer.
            let left = (i + n - 1) % n;
            let c = (left + n - step) % n;
            let range = chunks[c].as_range();
            if range.is_empty() {
                continue;
            }
            op.accumulate_slice(
                &mut buffer.as_mut_slice()[range.clone()],
                &scratch.as_slice()[range],
            );
            transfers += 1;
        }
    }

    // All-gather: N−1 steps. Worker i starts owning reduced chunk (i+1)%n.
    for step in 0..n - 1 {
        for (i, buffer) in buffers.iter().enumerate() {
            let c = (i + 1 + n - step) % n;
            let range = chunks[c].as_range();
            scratch.as_mut_slice()[range.clone()].copy_from_slice(&buffer.as_slice()[range]);
        }
        for (i, buffer) in buffers.iter_mut().enumerate() {
            let left = (i + n - 1) % n;
            let c = (left + 1 + n - step) % n;
            let range = chunks[c].as_range();
            if range.is_empty() {
                continue;
            }
            buffer.as_mut_slice()[range.clone()].copy_from_slice(&scratch.as_slice()[range]);
            transfers += 1;
        }
    }

    if let ReduceOp::Mean = op {
        let scale = 1.0 / n as f32;
        for b in buffers.iter_mut() {
            b.scale(scale);
        }
    }
    transfers
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_sum(inputs: &[Tensor]) -> Tensor {
        let mut acc = Tensor::zeros(inputs[0].len());
        for t in inputs {
            acc.add_assign(t);
        }
        acc
    }

    #[test]
    fn matches_naive_sum() {
        for n in [2usize, 3, 4, 7, 8] {
            for len in [1usize, 2, 5, 16, 33] {
                let inputs: Vec<Tensor> = (0..n)
                    .map(|i| (0..len).map(|j| (i * 100 + j) as f32).collect())
                    .collect();
                let expected = naive_sum(&inputs);
                let mut bufs = inputs.clone();
                ring_allreduce(&mut bufs, ReduceOp::Sum);
                for (w, b) in bufs.iter().enumerate() {
                    assert!(
                        b.approx_eq(&expected, 1e-3),
                        "n={n} len={len} worker {w}: {b:?} vs {expected:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mean_divides_by_n() {
        let mut bufs = vec![
            Tensor::from_vec(vec![2.0, 4.0]),
            Tensor::from_vec(vec![4.0, 8.0]),
        ];
        ring_allreduce(&mut bufs, ReduceOp::Mean);
        assert_eq!(bufs[0].as_slice(), &[3.0, 6.0]);
        assert_eq!(bufs[1].as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn single_worker_is_identity() {
        let mut bufs = vec![Tensor::from_vec(vec![1.0, 2.0])];
        let transfers = ring_allreduce(&mut bufs, ReduceOp::Sum);
        assert_eq!(transfers, 0);
        assert_eq!(bufs[0].as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn transfer_count_is_2n_n_minus_1() {
        for n in [2usize, 3, 5, 8] {
            let mut bufs: Vec<Tensor> = (0..n).map(|_| Tensor::filled(n * 4, 1.0)).collect();
            let transfers = ring_allreduce(&mut bufs, ReduceOp::Sum);
            assert_eq!(transfers, (2 * n * (n - 1)) as u64, "n={n}");
        }
    }

    #[test]
    fn short_tensor_with_empty_chunks_still_correct() {
        // len < n produces empty chunks; correctness must hold.
        let n = 5;
        let inputs: Vec<Tensor> = (0..n).map(|i| Tensor::filled(2, i as f32)).collect();
        let expected = naive_sum(&inputs);
        let mut bufs = inputs;
        ring_allreduce(&mut bufs, ReduceOp::Sum);
        for b in &bufs {
            assert!(b.approx_eq(&expected, 1e-4));
        }
    }

    #[test]
    fn max_reduction_over_ring() {
        let mut bufs = vec![
            Tensor::from_vec(vec![1.0, 9.0, 3.0]),
            Tensor::from_vec(vec![7.0, 2.0, 5.0]),
            Tensor::from_vec(vec![4.0, 4.0, 8.0]),
        ];
        ring_allreduce(&mut bufs, ReduceOp::Max);
        for b in &bufs {
            assert_eq!(b.as_slice(), &[7.0, 9.0, 8.0]);
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn allreduce_rejects_ragged_buffers() {
        let mut bufs = vec![Tensor::zeros(2), Tensor::zeros(3)];
        ring_allreduce(&mut bufs, ReduceOp::Sum);
    }

    proptest! {
        #[test]
        fn ring_equals_naive_for_random_inputs(
            n in 2usize..9,
            len in 1usize..40,
            seed in 0u64..1000,
        ) {
            use rna_simnet::SimRng;
            let mut rng = SimRng::seed(seed);
            let inputs: Vec<Tensor> = (0..n)
                .map(|_| (0..len).map(|_| rng.uniform_f64(-10.0..10.0) as f32).collect())
                .collect();
            let expected = naive_sum(&inputs);
            let mut bufs = inputs;
            ring_allreduce(&mut bufs, ReduceOp::Sum);
            for b in &bufs {
                prop_assert!(b.approx_eq(&expected, 1e-2));
            }
        }
    }
}
