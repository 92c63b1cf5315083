use rna_tensor::Tensor;

/// Weight applied to a gradient that sat out `missed` PS exchanges while
/// its group was partitioned from the server: `1 / (1 + missed)`.
///
/// A group that never missed an exchange reconciles at full weight; a
/// long-isolated group's accumulated sum is damped proportionally to its
/// staleness so healing cannot yank the master parameters — the same
/// recency-biased reading the protocol applies to per-worker gradient
/// caches (§3.3), lifted to the group level.
///
/// # Examples
///
/// ```
/// assert_eq!(rna_ps::staleness_discount(0), 1.0);
/// assert_eq!(rna_ps::staleness_discount(3), 0.25);
/// ```
pub fn staleness_discount(missed: u64) -> f32 {
    1.0 / (1.0 + missed as f32)
}

/// A model-averaging parameter server with one slot per registered group.
///
/// Semantics follow §4 and §6 of the paper:
///
/// 1. **push** — a group initiator uploads its group's current parameters;
///    the slot for that group is overwritten and the server's global
///    estimate becomes the mean of all group slots.
/// 2. **update** — only parameter summation / averaging happens on the
///    server (cheap; "modern CPUs are good at summation").
/// 3. **pull** — the caller receives the blended global parameters.
///
/// [`GroupServer::push_pull`] performs all three atomically, matching the
/// paper's `PSPushPull()`; the asynchrony between groups comes from *when*
/// each group calls it, which the protocol engine schedules.
///
/// # Examples
///
/// ```
/// use rna_ps::GroupServer;
/// use rna_tensor::Tensor;
///
/// let mut ps = GroupServer::new(Tensor::from_vec(vec![0.0]), 2);
/// let blended = ps.push_pull(0, &Tensor::from_vec(vec![2.0]));
/// // Group 1 has not pushed yet, so its slot still holds the init value.
/// assert_eq!(blended.as_slice(), &[1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct GroupServer {
    slots: Vec<Tensor>,
    global: Tensor,
    version: u64,
    group_versions: Vec<u64>,
}

impl GroupServer {
    /// Creates a server for `num_groups` groups, every slot initialized to
    /// `init` (all replicas start from the same parameters).
    ///
    /// # Panics
    ///
    /// Panics if `num_groups == 0` or `init` is empty.
    pub fn new(init: Tensor, num_groups: usize) -> Self {
        assert!(num_groups > 0, "need at least one group");
        assert!(!init.is_empty(), "empty parameter vector");
        GroupServer {
            slots: vec![init.clone(); num_groups],
            global: init,
            version: 0,
            group_versions: vec![0; num_groups],
        }
    }

    /// Number of registered groups.
    pub fn num_groups(&self) -> usize {
        self.slots.len()
    }

    /// The server's update counter (increments on every push).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How many global updates `group` has missed since its last push —
    /// the staleness signal used in the evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn staleness(&self, group: usize) -> u64 {
        self.version - self.group_versions[group]
    }

    /// The raw parameter copy currently held in the group's slot.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn slot(&self, group: usize) -> &Tensor {
        &self.slots[group]
    }

    /// The server version at which the group's slot was last written (0 if
    /// the group never pushed).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn slot_version(&self, group: usize) -> u64 {
        self.group_versions[group]
    }

    /// Stores `params` in the group's slot and refreshes the global average.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range or the parameter length differs
    /// from the server's.
    pub fn push(&mut self, group: usize, params: &Tensor) {
        assert!(group < self.slots.len(), "group out of range");
        assert_eq!(params.len(), self.global.len(), "parameter length mismatch");
        self.slots[group].copy_from(params);
        self.version += 1;
        self.group_versions[group] = self.version;
        self.recompute_global();
    }

    /// The current blended global parameters.
    pub fn pull(&self) -> &Tensor {
        &self.global
    }

    /// Atomic push + update + pull (`PSPushPull` in the paper). Returns the
    /// blended parameters *including* this push.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GroupServer::push`].
    pub fn push_pull(&mut self, group: usize, params: &Tensor) -> Tensor {
        self.push(group, params);
        self.global.clone()
    }

    fn recompute_global(&mut self) {
        self.global.fill_zero();
        for slot in &self.slots {
            self.global.add_assign(slot);
        }
        self.global.scale(1.0 / self.slots.len() as f32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn staleness_discount_decays_harmonically() {
        assert_eq!(staleness_discount(0), 1.0);
        assert_eq!(staleness_discount(1), 0.5);
        assert_eq!(staleness_discount(4), 0.2);
        assert!(staleness_discount(1_000_000) > 0.0);
    }

    #[test]
    fn single_group_passthrough() {
        let mut ps = GroupServer::new(Tensor::from_vec(vec![0.0, 0.0]), 1);
        let out = ps.push_pull(0, &Tensor::from_vec(vec![3.0, 4.0]));
        assert_eq!(out.as_slice(), &[3.0, 4.0]);
        assert_eq!(ps.num_groups(), 1);
    }

    #[test]
    fn global_is_mean_of_slots() {
        let mut ps = GroupServer::new(Tensor::from_vec(vec![0.0]), 2);
        ps.push(0, &Tensor::from_vec(vec![2.0]));
        ps.push(1, &Tensor::from_vec(vec![4.0]));
        assert_eq!(ps.pull().as_slice(), &[3.0]);
    }

    #[test]
    fn repeated_push_overwrites_slot() {
        let mut ps = GroupServer::new(Tensor::from_vec(vec![0.0]), 2);
        ps.push(0, &Tensor::from_vec(vec![2.0]));
        ps.push(0, &Tensor::from_vec(vec![6.0]));
        // Slot 1 is still at 0.0 → global (6 + 0) / 2.
        assert_eq!(ps.pull().as_slice(), &[3.0]);
    }

    #[test]
    fn versions_and_staleness() {
        let mut ps = GroupServer::new(Tensor::from_vec(vec![0.0]), 3);
        assert_eq!(ps.version(), 0);
        assert_eq!(ps.staleness(2), 0);
        ps.push(0, &Tensor::from_vec(vec![1.0]));
        ps.push(1, &Tensor::from_vec(vec![1.0]));
        assert_eq!(ps.version(), 2);
        assert_eq!(ps.staleness(0), 1); // one update since its push
        assert_eq!(ps.staleness(1), 0);
        assert_eq!(ps.staleness(2), 2); // never pushed
    }

    #[test]
    fn async_groups_see_each_others_progress() {
        // Group 1 pushes twice while group 0 is slow; group 0's next pull
        // reflects group 1's latest state — the mechanism that stops slow
        // groups drifting (deterministic slowdown mitigation, §4).
        let mut ps = GroupServer::new(Tensor::from_vec(vec![0.0]), 2);
        ps.push_pull(1, &Tensor::from_vec(vec![10.0]));
        ps.push_pull(1, &Tensor::from_vec(vec![20.0]));
        let seen_by_0 = ps.push_pull(0, &Tensor::from_vec(vec![0.0]));
        assert_eq!(seen_by_0.as_slice(), &[10.0]);
    }

    #[test]
    #[should_panic(expected = "group out of range")]
    fn push_to_unknown_group_panics() {
        let mut ps = GroupServer::new(Tensor::from_vec(vec![0.0]), 1);
        ps.push(1, &Tensor::from_vec(vec![0.0]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn push_wrong_length_panics() {
        let mut ps = GroupServer::new(Tensor::from_vec(vec![0.0]), 1);
        ps.push(0, &Tensor::from_vec(vec![0.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_panics() {
        GroupServer::new(Tensor::from_vec(vec![0.0]), 0);
    }

    proptest! {
        #[test]
        fn global_stays_in_convex_hull(
            pushes in proptest::collection::vec((0usize..4, -100.0f32..100.0), 1..20),
        ) {
            let mut ps = GroupServer::new(Tensor::from_vec(vec![0.0]), 4);
            let mut lo = 0.0f32;
            let mut hi = 0.0f32;
            for (g, v) in pushes {
                ps.push(g, &Tensor::from_vec(vec![v]));
                lo = lo.min(v);
                hi = hi.max(v);
                let global = ps.pull().as_slice()[0];
                prop_assert!(global >= lo - 1e-4 && global <= hi + 1e-4);
            }
        }
    }
}
