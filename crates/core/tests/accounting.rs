//! What a reported PUT says it wrote, against a twin engine that still
//! takes the numbers the old way.
//!
//! [`OpReport::value_write`] used to be a `diff_stats` preview of the value
//! bytes taken just before the whole-bucket write; it now falls out of that
//! write's own pass. Here a twin engine in the same state takes the preview
//! on its own (still untouched) device and then runs the op unreported, so
//! its device-stats delta is what the op charged with no reporting code in
//! the way. Both numbers must match the report for every kind of PUT.

use pnw_core::{ModelManager, OpReport, PnwConfig, PutPath, ShardEngine};
use pnw_nvm_sim::WriteStats;

/// Bucket header: flag byte, padding, CRC, then the key at byte 8.
const HDR: usize = 16;
const VALUE: usize = 20;

/// Address of the valid bucket holding `key`, if the key is stored.
fn locate(e: &ShardEngine, key: u64) -> Option<usize> {
    let (start, len) = e.data_zone_range();
    let image = e.device().to_image();
    let stride = (HDR + VALUE).next_multiple_of(8);
    let mut hits = (start..start + len)
        .step_by(stride)
        .filter(|&a| image[a] & 1 == 1 && image[a + 8..a + HDR] == key.to_le_bytes());
    let addr = hits.next();
    assert!(hits.next().is_none(), "key {key} is valid in two buckets");
    addr
}

/// One PUT on both engines; returns what the reporting side said.
fn put_both(
    a: &mut ShardEngine,
    twin: &mut ShardEngine,
    key: u64,
    v: &[u8],
) -> (OpReport, PutPath) {
    let old_addr = locate(a, key);
    let (report, path) = a.put(key, v).unwrap();
    let addr = locate(a, key).expect("the PUT stored the key");

    let preview = twin.device().diff_stats(addr + HDR, v).unwrap();
    // A relocating update also clears the vacated bucket's flag; that write
    // is charged to the device but has never been part of the PUT's report.
    let unreported = match old_addr {
        Some(old) if path == PutPath::Fresh => twin.device().diff_stats(old, &[0]).unwrap(),
        _ => WriteStats::default(),
    };
    let before = twin.device_stats().clone();
    assert_eq!(twin.put_unreported(key, v).unwrap(), path);
    let charged = twin.device_stats().since(&before).totals;

    assert_eq!(report.value_write, preview, "value share of key {key}");
    assert_eq!(
        report.total_write + unreported,
        charged,
        "total of key {key}"
    );
    assert_eq!(a.device().to_image(), twin.device().to_image());
    (report, path)
}

fn value(key: u64, round: u8) -> [u8; VALUE] {
    let mut v = [if key.is_multiple_of(2) { 0x0F } else { 0xF0 }; VALUE];
    v[0] = key as u8;
    v[VALUE - 1] = round.wrapping_mul(0x3B);
    v
}

#[test]
fn reported_puts_charge_what_the_preview_and_the_device_say() {
    for integrity in [true, false] {
        let cfg = PnwConfig::new(64, VALUE)
            .with_clusters(2)
            .with_seed(5)
            .with_integrity(integrity);
        let mut a = ShardEngine::new(cfg.clone());
        let mut twin = ShardEngine::new(cfg.clone());
        let mut value_bits = WriteStats::default();

        // Fresh PUTs into virgin buckets.
        for k in 0..32u64 {
            let (r, path) = put_both(&mut a, &mut twin, k, &value(k, 0));
            assert_eq!(path, PutPath::Fresh);
            value_bits += r.value_write;
        }
        // A real model, so updates are priced and steered between clusters.
        let mut trainer = ModelManager::new(&cfg);
        trainer.train(&a.training_values(usize::MAX));
        a.install_model(trainer.snapshot());
        twin.install_model(trainer.snapshot());
        // Updates, over old data — past the in-place run cap, so some must
        // relocate.
        let mut paths = [0u32; 2];
        for round in 1..10u8 {
            for k in (0..32u64).rev() {
                let (r, path) = put_both(&mut a, &mut twin, k, &value(k, round));
                paths[usize::from(path == PutPath::InPlace)] += 1;
                // The value's share never exceeds the whole write's.
                assert!(r.value_write.bit_flips <= r.total_write.bit_flips);
                value_bits += r.value_write;
            }
            assert!(a.delete(u64::from(round)).unwrap());
            assert!(twin.delete(u64::from(round)).unwrap());
            put_both(&mut a, &mut twin, u64::from(round), &value(9, round));
        }
        assert!(paths.iter().all(|&n| n > 0), "both paths taken: {paths:?}");
        assert!(value_bits.bit_flips > 0 && value_bits.words_written > 0);
        assert_eq!(a.device_stats(), twin.device_stats(), "{integrity}");
    }
}
