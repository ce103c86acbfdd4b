//! The answers of a GET whose index entry names no live bucket — an
//! address past the device, or one inside a bucket rather than at its
//! base — on the NVM index, with integrity and TTL each on and off. The
//! engine's GET and the store's lock-free one must give the same typed
//! answer and count it the same way.

use pnw_nvm_sim::NvmError;

use super::ShardedPnwStore;
use crate::config::{IndexPlacement, PnwConfig};
use crate::error::StoreError;
use crate::metrics::{StoreSnapshot, TrainStats};
use crate::shard::{BucketLayout, ShardEngine};

const VALUE: usize = 16;
const KEY: u64 = 1;

/// `(gets, crc_failures, read_waits)` of a snapshot.
fn counts(s: &StoreSnapshot) -> (u64, u64, u64) {
    (s.gets, s.scrub.crc_failures, s.read_waits)
}

#[test]
fn a_get_through_an_entry_that_names_no_bucket_raises_the_typed_error() {
    for integrity in [true, false] {
        for ttl in [true, false] {
            let mut cfg = PnwConfig::new(16, VALUE)
                .with_clusters(1)
                .with_index(IndexPlacement::Nvm)
                .with_integrity(integrity);
            if ttl {
                cfg = cfg.with_ttl();
            }
            let mut engine = ShardEngine::new(cfg.clone());
            let store = ShardedPnwStore::new(cfg);
            engine.put(KEY, &[1; VALUE]).unwrap();
            store.put(KEY, &[1; VALUE]).unwrap();
            let size = engine.device().size();
            let start = engine.data_zone_range().0 as u64;
            let case = format!("integrity {integrity}, ttl {ttl}");

            let past = size as u64 + 64;
            let mid = start + 8;
            let out_of_bounds = |addr: u64, len| {
                Err(StoreError::Nvm(NvmError::OutOfBounds {
                    addr: addr as usize,
                    len,
                    size,
                }))
            };
            let expected = [
                // The value's bytes lie past the device.
                (past, out_of_bounds(past + 16, VALUE)),
                // Inside bucket 0: its header is no seal of this key;
                // without a seal, a TTL store finds no deadline slot for
                // it, and a store with neither serves the bytes.
                (
                    mid,
                    match (integrity, ttl) {
                        (true, _) => Err(StoreError::Corruption { key: KEY, shard: 0 }),
                        (false, true) => out_of_bounds(mid, BucketLayout::stride(VALUE)),
                        (false, false) => Ok(true),
                    },
                ),
            ];
            for (addr, answer) in expected {
                engine.aim_index_entry(KEY, addr);
                store.shards[0]
                    .hold(&store.model)
                    .aim_index_entry(KEY, addr);
                let corrupt = u64::from(matches!(answer, Err(StoreError::Corruption { .. })));

                let before = counts(&engine.snapshot(TrainStats::default()));
                let mut out = [0u8; VALUE];
                assert_eq!(
                    engine.get_into(KEY, &mut out),
                    answer,
                    "engine, {case}, {addr}"
                );
                let after = counts(&engine.snapshot(TrainStats::default()));
                assert_eq!(
                    after,
                    (before.0 + 1, before.1 + corrupt, 0),
                    "engine, {case}"
                );

                let before = counts(&store.snapshot());
                assert_eq!(
                    store.get_into(KEY, &mut out),
                    answer,
                    "store, {case}, {addr}"
                );
                assert_eq!(store.get(KEY).map(|v| v.is_some()), answer, "store, {case}");
                let after = counts(&store.snapshot());
                assert_eq!(
                    after,
                    (before.0 + 2, before.1 + 2 * corrupt, 0),
                    "store, {case}"
                );
            }
        }
    }
}

#[test]
fn an_entry_at_the_top_of_the_address_space_is_out_of_bounds_not_a_wrapped_read() {
    // The value would start 16 bytes on, past `u64::MAX`: the answer is the
    // typed error (its address saturated), in a debug and a release build
    // alike, not an overflow panic or the bytes at the wrapped address.
    let addr = u64::MAX - 8;
    for integrity in [true, false] {
        for ttl in [true, false] {
            let mut cfg = PnwConfig::new(16, VALUE)
                .with_clusters(1)
                .with_index(IndexPlacement::Nvm)
                .with_integrity(integrity);
            if ttl {
                cfg = cfg.with_ttl();
            }
            let mut engine = ShardEngine::new(cfg.clone());
            let store = ShardedPnwStore::new(cfg);
            engine.put(KEY, &[1; VALUE]).unwrap();
            store.put(KEY, &[1; VALUE]).unwrap();
            engine.aim_index_entry(KEY, addr);
            store.shards[0]
                .hold(&store.model)
                .aim_index_entry(KEY, addr);
            let case = format!("integrity {integrity}, ttl {ttl}");
            let expected = NvmError::OutOfBounds {
                addr: usize::MAX,
                len: VALUE,
                size: engine.device().size(),
            };
            let mut out = [0u8; VALUE];
            assert_eq!(
                engine.get_into(KEY, &mut out),
                Err(StoreError::Nvm(expected.clone())),
                "engine, {case}"
            );
            assert_eq!(
                store.get_into(KEY, &mut out),
                Err(StoreError::Nvm(expected.clone())),
                "store, {case}"
            );
            assert_eq!(out, [0; VALUE], "nothing was read, {case}");
            assert!(expected.to_string().contains(&format!("at {}", usize::MAX)));
        }
    }
}
