//! The dynamic address pool (§V-A.2, Figure 5).
//!
//! *"The dynamic address pool is a table that contains a number of entries,
//! equal to the number of clusters in the ML model. Each entry … contains a
//! free-list of the available memory locations that belong to the same
//! cluster."* Addresses are removed when allocated to a K/V pair and
//! reinserted on delete, exactly as the paper describes (this is what
//! amortizes the per-address availability flag).
//!
//! When the predicted cluster's free list is empty the pool falls back to
//! the nearest non-empty cluster by centroid distance (§V-C's stall-
//! avoidance, with the load factor warning the store to retrain before this
//! becomes common).
//!
//! ## Wear deprioritization
//!
//! Each cluster keeps **two** free lists: a fresh tier and a worn tier for
//! buckets whose hottest word is approaching the media's endurance budget.
//! Allocation exhausts every fresh list (predicted cluster, then ranked
//! fallbacks) before touching any worn list, so near-end-of-life cells only
//! absorb new data when nothing healthier is left — the wear-aware half of
//! the lifetime argument, composing with the bit-similarity placement that
//! minimizes flips *per* write.

use std::collections::VecDeque;

/// Per-cluster free lists of data-zone bucket ids.
///
/// Lists rotate FIFO: an address freed by a DELETE goes to the back of its
/// cluster's queue and allocation takes from the front, so writes cycle
/// through every free address of a cluster instead of hammering the most
/// recently freed one — this rotation is what spreads write activity
/// "across the whole PCM chip" (Figure 12) while keeping allocations inside
/// the bit-similar cluster.
#[derive(Debug, Clone)]
pub struct DynamicAddressPool {
    lists: Vec<VecDeque<u32>>,
    /// Deprioritized tier: free buckets whose hottest word is near the
    /// endurance budget. Popped only when every fresh list is empty.
    worn: Vec<VecDeque<u32>>,
    capacity: usize,
    free: usize,
    /// Allocations that missed their predicted cluster (telemetry for the
    /// `ablation_fallback` bench and the load-factor tests).
    fallbacks: u64,
}

impl DynamicAddressPool {
    /// An empty pool with `clusters` entries for a data zone of `capacity`
    /// buckets.
    pub fn new(clusters: usize, capacity: usize) -> Self {
        DynamicAddressPool {
            lists: vec![VecDeque::new(); clusters.max(1)],
            worn: vec![VecDeque::new(); clusters.max(1)],
            capacity,
            free: 0,
            fallbacks: 0,
        }
    }

    /// Rebuilds the pool from `(bucket, label)` pairs — Algorithm 1 lines
    /// 4–5 (`DAP[labels[i]].append(A(i))`). All entries land in the fresh
    /// tier; use [`DynamicAddressPool::rebuild_tiered`] when wear is known.
    pub fn rebuild(&mut self, clusters: usize, entries: impl IntoIterator<Item = (u32, usize)>) {
        self.rebuild_tiered(clusters, entries.into_iter().map(|(b, l)| (b, l, false)));
    }

    /// Rebuilds from `(bucket, label, worn)` triples, placing each bucket
    /// in its cluster's fresh or worn tier.
    pub fn rebuild_tiered(
        &mut self,
        clusters: usize,
        entries: impl IntoIterator<Item = (u32, usize, bool)>,
    ) {
        self.lists = vec![VecDeque::new(); clusters.max(1)];
        self.worn = vec![VecDeque::new(); clusters.max(1)];
        self.free = 0;
        for (bucket, label, worn) in entries {
            self.push_tier(label, bucket, worn);
        }
    }

    /// Number of cluster entries.
    pub fn clusters(&self) -> usize {
        self.lists.len()
    }

    /// Total free addresses.
    pub fn free(&self) -> usize {
        self.free
    }

    /// Free addresses in one cluster (both tiers).
    pub fn free_in(&self, cluster: usize) -> usize {
        self.lists.get(cluster).map_or(0, VecDeque::len)
            + self.worn.get(cluster).map_or(0, VecDeque::len)
    }

    /// Free addresses sitting in the deprioritized worn tier.
    pub fn worn_free(&self) -> usize {
        self.worn.iter().map(VecDeque::len).sum()
    }

    /// Fraction of the data zone that is free.
    pub fn availability(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.free as f64 / self.capacity as f64
        }
    }

    /// Occupancy = `1 - availability` (compared against the load factor).
    pub fn occupancy(&self) -> f64 {
        1.0 - self.availability()
    }

    /// Times an allocation had to fall back to another cluster.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Updates the data-zone capacity (after a §V-C zone extension), which
    /// is the denominator of [`DynamicAddressPool::availability`].
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Pops a free address from `cluster`, or — if it is empty — from the
    /// first non-empty cluster in the order `ranked` produces (nearest
    /// centroid first). Returns the bucket and whether a fallback occurred.
    ///
    /// `ranked` is a closure so the ranking (an argsort of K distances) is
    /// only computed when the predicted cluster actually misses — on the
    /// hit path, which dominates under a healthy load factor, the pop costs
    /// one deque operation and the ranking is never materialized.
    pub fn pop<R: AsRef<[usize]>>(
        &mut self,
        cluster: usize,
        ranked: impl FnOnce() -> R,
    ) -> Option<(u32, bool)> {
        let (worn, c, fallback) = self.locate(cluster, ranked)?;
        let tier = if worn { &mut self.worn } else { &mut self.lists };
        let b = tier[c].pop_front().expect("located a non-empty list");
        self.free -= 1;
        self.fallbacks += u64::from(fallback);
        Some((b, fallback))
    }

    /// The bucket [`DynamicAddressPool::pop`] would return for the same
    /// arguments, without taking it — the same search, so a caller that
    /// prices this candidate prices exactly what the next `pop` allocates.
    pub fn peek<R: AsRef<[usize]>>(
        &self,
        cluster: usize,
        ranked: impl FnOnce() -> R,
    ) -> Option<u32> {
        let (worn, c, _) = self.locate(cluster, ranked)?;
        let tier = if worn { &self.worn } else { &self.lists };
        tier[c].front().copied()
    }

    /// The one allocation search behind `pop` and `peek`: which tier
    /// (`true` = worn) and list the next bucket comes from, and whether
    /// that is a fallback.
    #[inline]
    fn locate<R: AsRef<[usize]>>(
        &self,
        cluster: usize,
        ranked: impl FnOnce() -> R,
    ) -> Option<(bool, usize, bool)> {
        let nonempty =
            |tier: &[VecDeque<u32>], c: usize| tier.get(c).is_some_and(|l| !l.is_empty());
        if nonempty(&self.lists, cluster) {
            return Some((false, cluster, false));
        }
        if self.free == 0 {
            // Nothing anywhere: don't pay for the ranking either.
            return None;
        }
        // Fresh tier first — every healthy bucket anywhere beats a worn
        // bucket in the right cluster: a cross-cluster placement costs a
        // few extra flips once, a near-endurance word lost costs capacity
        // forever. The ranking is computed exactly once and reused for
        // both tiers. In each tier: the predicted cluster (in the worn
        // tier; still bit-similar, not a fallback), then ranked, then any
        // non-empty list (ranked may be partial).
        let order = ranked();
        let order = order.as_ref();
        for (worn, tier) in [(false, &self.lists), (true, &self.worn)] {
            if worn && nonempty(tier, cluster) {
                return Some((true, cluster, false));
            }
            let ranked_hit = order.iter().find(|&&c| c != cluster && nonempty(tier, c));
            let any = || tier.iter().position(|l| !l.is_empty());
            if let Some(c) = ranked_hit.copied().or_else(any) {
                return Some((worn, c, true));
            }
        }
        None
    }

    /// Returns a freed address to the back of `cluster`'s fresh queue
    /// (Algorithm 3 line 4).
    pub fn push(&mut self, cluster: usize, bucket: u32) {
        self.push_tier(cluster, bucket, false);
    }

    /// Returns a freed address to `cluster`'s fresh or worn queue.
    pub fn push_tier(&mut self, cluster: usize, bucket: u32, worn: bool) {
        let c = cluster.min(self.lists.len() - 1);
        let tier = if worn { &mut self.worn } else { &mut self.lists };
        tier[c].push_back(bucket);
        self.free += 1;
    }

    /// Every free bucket with the cluster whose list it sits in (either
    /// tier) — for the label-consistency checker.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        let tiers = self
            .lists
            .iter()
            .enumerate()
            .chain(self.worn.iter().enumerate());
        tiers.flat_map(|(c, list)| list.iter().map(move |&b| (c, b)))
    }

    /// Drains all free buckets from both tiers (used when retraining
    /// relabels them).
    pub fn drain_all(&mut self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.free);
        for list in self.lists.iter_mut().chain(self.worn.iter_mut()) {
            out.extend(list.drain(..));
        }
        self.free = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ranking order used by most tests (was previously a pre-built slice
    /// argument; now a lazily-invoked closure).
    fn ranked() -> [usize; 3] {
        [0, 1, 2]
    }

    #[test]
    fn push_pop_same_cluster() {
        let mut p = DynamicAddressPool::new(3, 10);
        p.push(1, 42);
        assert_eq!(p.free(), 1);
        assert_eq!(p.free_in(1), 1);
        let (b, fb) = p.pop(1, ranked).unwrap();
        assert_eq!(b, 42);
        assert!(!fb);
        assert_eq!(p.free(), 0);
    }

    #[test]
    fn fallback_follows_ranking() {
        let mut p = DynamicAddressPool::new(3, 10);
        p.push(0, 1);
        p.push(2, 2);
        // Cluster 1 is empty; ranking prefers 2 then 0.
        let (b, fb) = p.pop(1, || [1, 2, 0]).unwrap();
        assert_eq!(b, 2);
        assert!(fb);
        assert_eq!(p.fallbacks(), 1);
    }

    #[test]
    fn ranking_is_not_computed_on_a_pool_hit() {
        let mut p = DynamicAddressPool::new(3, 10);
        p.push(1, 42);
        p.push(2, 43);
        let mut ranked_calls = 0u32;
        let (b, fb) = p
            .pop(1, || {
                ranked_calls += 1;
                [0, 1, 2]
            })
            .unwrap();
        assert_eq!((b, fb), (42, false));
        assert_eq!(ranked_calls, 0, "hit path must never rank");
        // The miss path computes it exactly once.
        let (_, fb) = p
            .pop(1, || {
                ranked_calls += 1;
                [2, 0, 1]
            })
            .unwrap();
        assert!(fb);
        assert_eq!(ranked_calls, 1);
    }

    #[test]
    fn empty_pool_skips_ranking_entirely() {
        let mut p = DynamicAddressPool::new(2, 4);
        let mut ranked_calls = 0u32;
        assert!(p
            .pop(0, || {
                ranked_calls += 1;
                [0, 1]
            })
            .is_none());
        assert_eq!(ranked_calls, 0, "nothing to allocate: no ranking");
        assert_eq!(p.fallbacks(), 0);
    }

    #[test]
    fn pop_exhausted_returns_none() {
        let mut p = DynamicAddressPool::new(2, 4);
        assert!(p.pop(0, || [0, 1]).is_none());
        p.push(0, 7);
        p.pop(0, || [0, 1]).unwrap();
        assert!(p.pop(0, || [0, 1]).is_none());
    }

    #[test]
    fn availability_tracks_capacity() {
        let mut p = DynamicAddressPool::new(2, 4);
        assert_eq!(p.availability(), 0.0);
        p.push(0, 0);
        p.push(1, 1);
        assert!((p.availability() - 0.5).abs() < 1e-12);
        assert!((p.occupancy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rebuild_relabels() {
        let mut p = DynamicAddressPool::new(2, 8);
        p.push(0, 1);
        p.push(0, 2);
        p.rebuild(4, vec![(1, 3), (2, 3), (5, 0)]);
        assert_eq!(p.clusters(), 4);
        assert_eq!(p.free(), 3);
        assert_eq!(p.free_in(3), 2);
        assert_eq!(p.free_in(0), 1);
    }

    #[test]
    fn out_of_range_label_clamps() {
        let mut p = DynamicAddressPool::new(2, 4);
        p.push(99, 5); // clamped into the last cluster
        assert_eq!(p.free_in(1), 1);
    }

    #[test]
    fn drain_all_empties() {
        let mut p = DynamicAddressPool::new(3, 8);
        p.push(0, 1);
        p.push(1, 2);
        p.push(2, 3);
        let mut drained = p.drain_all();
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2, 3]);
        assert_eq!(p.free(), 0);
    }

    #[test]
    fn last_resort_fallback_without_ranking() {
        let mut p = DynamicAddressPool::new(4, 8);
        p.push(3, 9);
        // Ranking mentions only empty clusters; the pool must still find 9.
        let (b, fb) = p.pop(0, || [0, 1]).unwrap();
        assert_eq!(b, 9);
        assert!(fb);
    }

    #[test]
    fn worn_buckets_allocate_last() {
        let mut p = DynamicAddressPool::new(3, 10);
        p.push_tier(1, 50, true); // worn, in the predicted cluster
        p.push_tier(2, 60, false); // fresh, in a fallback cluster
        assert_eq!(p.free(), 2);
        assert_eq!(p.worn_free(), 1);
        // A fresh bucket in the wrong cluster beats a worn one in the
        // right cluster.
        let (b, fb) = p.pop(1, || [1, 2, 0]).unwrap();
        assert_eq!(b, 60);
        assert!(fb);
        // Only the worn bucket remains; it allocates (no stall) and the
        // predicted-cluster worn hit is not a fallback.
        let (b, fb) = p.pop(1, || [1, 2, 0]).unwrap();
        assert_eq!(b, 50);
        assert!(!fb);
        assert_eq!(p.free(), 0);
        assert_eq!(p.worn_free(), 0);
    }

    #[test]
    fn worn_tier_ranked_and_scanned_like_fresh() {
        let mut p = DynamicAddressPool::new(3, 10);
        p.push_tier(0, 7, true);
        p.push_tier(2, 8, true);
        // Predicted 1 is empty in both tiers; ranking prefers 2.
        let (b, fb) = p.pop(1, || [1, 2, 0]).unwrap();
        assert_eq!(b, 8);
        assert!(fb);
        // Ranking mentions nothing useful; the worn scan still finds 7.
        let (b, fb) = p.pop(1, || [1]).unwrap();
        assert_eq!(b, 7);
        assert!(fb);
    }

    /// `peek` is `pop`'s search without the removal: through a hit, a
    /// ranked fallback, the last-resort scan and the worn tier, the bucket
    /// it names is the one the following `pop` hands out, and it changes
    /// nothing (counters included).
    #[test]
    fn peek_agrees_with_the_following_pop() {
        let mut p = DynamicAddressPool::new(4, 16);
        p.push(1, 10);
        p.push(1, 11);
        p.push(3, 30);
        p.push_tier(2, 20, true);
        p.push_tier(0, 40, true);
        let order = || [1, 0, 2, 3];
        let mut popped = Vec::new();
        for cluster in [1, 1, 1, 0, 2] {
            let (free, fallbacks) = (p.free(), p.fallbacks());
            let peeked = p.peek(cluster, order);
            assert_eq!((p.free(), p.fallbacks()), (free, fallbacks), "peek is read-only");
            let got = p.pop(cluster, order).map(|(b, _)| b);
            assert_eq!(peeked, got, "cluster {cluster}");
            popped.push(got.unwrap());
        }
        assert_eq!(popped, vec![10, 11, 30, 40, 20]);
        assert_eq!(p.peek(0, order), None);
        assert_eq!(p.pop(0, order), None);
    }

    #[test]
    fn rebuild_tiered_and_drain_cover_both_tiers() {
        let mut p = DynamicAddressPool::new(2, 8);
        p.rebuild_tiered(2, vec![(1, 0, false), (2, 0, true), (3, 1, true)]);
        assert_eq!(p.free(), 3);
        assert_eq!(p.worn_free(), 2);
        assert_eq!(p.free_in(0), 2, "free_in counts both tiers");
        let mut drained = p.drain_all();
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2, 3]);
        assert_eq!(p.free(), 0);
        assert_eq!(p.worn_free(), 0);
    }
}
