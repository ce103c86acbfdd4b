//! Property-based tests: every `Store` backend against the oracle's
//! `BTreeMap` reference on seeded random op scripts (`common/oracle.rs`),
//! and core data-structure invariants under arbitrary operation
//! sequences.

mod common;

use common::oracle::{baselines, durable_ttl, fuzz, matrix, pnw_cfg, ttl_background, Backend, CASES};
use pnw_core::IndexPlacement;
use proptest::prelude::*;

/// [`fuzz`] on the PNW store at 1 and at 4 shards, built by `cfg`.
fn fuzz_pnw(name: &str, cfg: impl Fn(usize) -> pnw_core::PnwConfig) {
    for shards in [1, 4] {
        fuzz(&Backend::pnw(&format!("PNW, {name}, shards = {shards}"), cfg(shards)), CASES);
    }
}

/// The store behaves exactly like the reference, under both index
/// placements, with integrity on and off (off, a priced in-place update
/// takes its unsealed value-only write), at 1 and at 4 shards, with
/// retrains, scrubs and crashes interleaved arbitrarily.
#[test]
fn store_matches_hashmap_dram_deleteput() {
    fuzz_pnw("DRAM index", pnw_cfg);
}

#[test]
fn store_matches_hashmap_dram_inplace() {
    fuzz_pnw("integrity off", |shards| pnw_cfg(shards).with_integrity(false));
}

#[test]
fn store_matches_hashmap_nvm_index() {
    fuzz_pnw("NVM index", |shards| pnw_cfg(shards).with_index(IndexPlacement::Nvm));
}

/// TTL puts, lazy expiry and scrub reclaim beside background retrains.
#[test]
fn store_matches_the_reference_with_ttl_and_background_retrain() {
    fuzz(&ttl_background(), CASES);
}

/// TTL puts beside drop-and-reopen (WAL replay) and close-and-reopen.
#[test]
fn durable_store_matches_the_reference_across_reopens() {
    fuzz(&durable_ttl("fuzz"), CASES);
}

#[test]
fn baselines_match_the_reference() {
    for b in baselines(128, 8) {
        fuzz(&b, CASES);
    }
}

/// The long lane: every backend of the matrix at 10 000 cases. Run it
/// optimised, with the durable directory on tmpfs:
/// `TMPDIR=/dev/shm cargo test --release -q --test proptest_store -- --ignored`.
#[test]
#[ignore = "long run: 10 000 cases per backend"]
fn every_backend_matches_the_reference_at_10k_cases() {
    for b in matrix("long") {
        fuzz(&b, 10_000);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
