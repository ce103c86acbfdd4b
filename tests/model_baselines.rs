//! The Figure 9 ordering of the baseline stores as a property across
//! seeds. That every baseline behaves exactly like a map under arbitrary
//! operation sequences is `proptest_store.rs`'s
//! `baselines_match_the_reference`, through the store contract oracle.

use pnw_baselines::{FpTreeLike, PathHashStore, Store};

/// The Figure 9 ordering holds as a *property* across seeds, not just at
/// one measured point: PNW and Path hashing write fewer lines per request
/// than the B+-tree and the LSM.
#[test]
fn figure9_ordering_is_stable_across_seeds() {
    use pnw_workloads::{DatasetKind, Workload};
    for seed in [1u64, 7, 42] {
        let mut w = DatasetKind::Normal.build(seed);
        let vs = w.value_size();
        let n = 512;
        let values = w.take_values(n);

        let mut lines = Vec::new();
        let stores: Vec<Box<dyn Store>> = vec![
            Box::new(FpTreeLike::new(n * 2, vs)),
            Box::new(PathHashStore::new(n * 2, vs)),
        ];
        for s in &stores {
            for (i, v) in values.iter().enumerate() {
                s.put(i as u64, v).expect("room");
            }
            lines.push(s.device_stats().totals.lines_written as f64 / n as f64);
        }
        assert!(
            lines[0] > lines[1],
            "seed {seed}: FPTree ({}) must write more lines than path hashing ({})",
            lines[0],
            lines[1]
        );
    }
}
