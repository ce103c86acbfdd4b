//! Property-based tests: the PNW store against a reference model, and
//! core data-structure invariants under arbitrary operation sequences.

use std::collections::HashMap;

use proptest::prelude::*;

use pnw_core::{IndexPlacement, PnwConfig, PnwStore};

#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Get(u64),
    Delete(u64),
    Retrain,
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..24, proptest::collection::vec(any::<u8>(), 8))
            .prop_map(|(k, v)| Op::Put(k, v)),
        3 => (0u64..24).prop_map(Op::Get),
        2 => (0u64..24).prop_map(Op::Delete),
        1 => Just(Op::Retrain),
        1 => Just(Op::Crash),
    ]
}

/// The shard counts every store property runs at.
fn shards_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(4usize)]
}

fn check_against_model(
    ops: Vec<Op>,
    shards: usize,
    placement: IndexPlacement,
    integrity: bool,
) -> Result<(), TestCaseError> {
    // 32 buckets per shard: even if every key routes to one shard it fits.
    let store = PnwStore::new(
        PnwConfig::new(32 * shards, 8)
            .with_clusters(3)
            .with_seed(17)
            .with_shards(shards)
            .with_index(placement)
            .with_integrity(integrity),
    );
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();

    for op in ops {
        match op {
            Op::Put(k, v) => {
                store.put(k, &v).expect("shard capacity 32 > key space 24");
                model.insert(k, v);
            }
            Op::Get(k) => {
                let got = store.get(k).expect("device ok");
                prop_assert_eq!(got.as_ref(), model.get(&k), "get({})", k);
            }
            Op::Delete(k) => {
                let existed = store.delete(k).expect("device ok");
                prop_assert_eq!(existed, model.remove(&k).is_some(), "delete({})", k);
            }
            Op::Retrain => {
                store.retrain_now().expect("train");
            }
            Op::Crash => {
                store.crash_and_recover().expect("recovery");
            }
        }
        prop_assert_eq!(store.len(), model.len());
    }
    // Final audit.
    for (k, v) in &model {
        let got = store.get(*k).expect("ok");
        prop_assert_eq!(got.as_ref(), Some(v));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The store behaves exactly like a hash map, under both index
    /// placements, with integrity on and off (off, a priced in-place
    /// update takes its unsealed value-only write), at 1 and at 4 shards,
    /// with retraining and crashes interleaved arbitrarily.
    #[test]
    fn store_matches_hashmap_dram_deleteput(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        shards in shards_strategy(),
    ) {
        check_against_model(ops, shards, IndexPlacement::Dram, true)?;
    }

    #[test]
    fn store_matches_hashmap_dram_inplace(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        shards in shards_strategy(),
    ) {
        check_against_model(ops, shards, IndexPlacement::Dram, false)?;
    }

    #[test]
    fn store_matches_hashmap_nvm_index(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        shards in shards_strategy(),
    ) {
        check_against_model(ops, shards, IndexPlacement::Nvm, true)?;
    }

    /// Device-level conservation: differential flips never exceed the
    /// payload size and stored bytes always equal the last write.
    #[test]
    fn device_diff_write_conservation(
        writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 32), 1..20)
    ) {
        use pnw_nvm_sim::{NvmConfig, NvmDevice, WriteMode};
        let mut dev = NvmDevice::new(NvmConfig::default().with_size(256));
        for v in &writes {
            let s = dev.write(64, v, WriteMode::Diff).expect("in range");
            prop_assert!(s.bit_flips <= 32 * 8);
            prop_assert!(s.words_written <= 4);
            prop_assert!(s.lines_written <= 2);
            prop_assert_eq!(dev.peek(64, 32).expect("ok"), &v[..]);
        }
    }

    /// Pool conservation: pops + frees always account for every bucket.
    #[test]
    fn pool_conserves_buckets(ops in proptest::collection::vec(any::<u8>(), 1..200)) {
        use pnw_core::DynamicAddressPool;
        let mut pool = DynamicAddressPool::new(4, 64);
        for b in 0..64u32 {
            pool.push((b % 4) as usize, b);
        }
        let mut held: Vec<u32> = Vec::new();
        for op in ops {
            if op % 2 == 0 {
                if let Some((b, _)) = pool.pop((op % 4) as usize, || [0, 1, 2, 3]) {
                    prop_assert!(!held.contains(&b), "bucket {} double-allocated", b);
                    held.push(b);
                }
            } else if let Some(b) = held.pop() {
                pool.push((op % 4) as usize, b);
            }
            prop_assert_eq!(pool.free() + held.len(), 64);
        }
    }
}
