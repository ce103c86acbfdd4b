//! Property-based crash consistency. At the device level, a
//! [`NvmDevice`] backed by a file of the host's takes word-aligned writes
//! in both [`WriteMode`]s with a torn write armed at a random index, then
//! recovers and writes its image back; the reopened device's cells must
//! equal the shadow image in which the torn write applied only its
//! persisted word prefix. At the store level, on the simulated file
//! system, a random script of puts and deletes crashes at a random device
//! or WAL write, torn each way, and the reopened store must pass the
//! crash matrix's checks (`common/crash.rs`). The matrix in `tests/recovery.rs` crashes one
//! seeded script at every write; these sample the scripts instead.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use common::crash::{self, Script, Site, WAL};
use common::oracle::{Backend, Step};
use pnw_core::{IndexPlacement, PnwConfig};
use pnw_nvm_sim::{DeviceBacking, Fs, NvmConfig, NvmDevice, Open, OsFs, WriteMode};

/// A unique scratch directory per proptest case (cases share one process).
fn case_dir(prefix: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "pnw_prop_{prefix}_{}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&dir);
    dir
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0u64..16, any::<u8>()).prop_map(|(k, fill)| Step::Put(k, fill)),
        1 => (0u64..16).prop_map(Step::Delete),
    ]
}

/// Crashes `steps` at write `k` of a shard's device (`Some(shard)`,
/// wrapped to the shards there are) or of the WAL (`None`), torn the way
/// `tear` picks from the site's tears. `k` wraps to the steps that site
/// sees, about one write each, so most draws fire; a draw that does not
/// checks the clean close.
fn crash_random_script(
    steps: Vec<Step>,
    device: Option<usize>,
    k: u64,
    tear: usize,
    shards: usize,
    placement: IndexPlacement,
) {
    // 32 buckets per shard: even if every key routes to one shard it fits.
    let cfg = PnwConfig::new(32 * shards, 8)
        .with_clusters(2)
        .with_seed(17)
        .with_shards(shards)
        .with_index(placement);
    let backend = Backend::pnw(&format!("{shards} shards, {placement:?} index"), cfg);
    let (site, seen) = match device {
        Some(s) => (Site::Device(s % shards), steps.len() / shards),
        None => (WAL, steps.len()),
    };
    let k = k % seen.max(1) as u64;
    // One fresh store image per configuration, which every case copies.
    static FRESH: [OnceLock<Script>; 4] = [const { OnceLock::new() }; 4];
    let fresh = &FRESH[usize::from(shards > 1) * 2 + usize::from(placement == IndexPlacement::Nvm)];
    let script = fresh.get_or_init(|| Script::new(&backend)).with(steps);
    let tear = site.tears()[tear % site.tears().len()];
    if !crash::run(&backend, &script, Some((site, k, tear)), true).fired {
        crash::run(&backend, &script, None, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DRAM-index durable store: reopen after a random crash serves every
    /// key its last acknowledged state.
    #[test]
    fn crashed_store_reopens_prefix_consistent_dram(
        steps in proptest::collection::vec(step_strategy(), 1..30),
        device in prop_oneof![(0usize..4).prop_map(Some), Just(None)],
        k in 0u64..32,
        tear in 0usize..4,
        shards in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        crash_random_script(steps, device, k, tear, shards, IndexPlacement::Dram);
    }

    /// NVM Path-Hashing index: the torn index region is rebuilt from the
    /// committed set at reopen.
    #[test]
    fn crashed_store_reopens_prefix_consistent_nvm(
        steps in proptest::collection::vec(step_strategy(), 1..30),
        device in prop_oneof![(0usize..4).prop_map(Some), Just(None)],
        k in 0u64..32,
        tear in 0usize..4,
        shards in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        crash_random_script(steps, device, k, tear, shards, IndexPlacement::Nvm);
    }

    /// Device backed by a file of the host's, both write modes, torn write
    /// at a random index, then a write-back: the reopened cell array equals
    /// the shadow image where the torn write contributed only its
    /// persisted word prefix.
    #[test]
    fn torn_device_file_holds_exact_prefix(
        writes in proptest::collection::vec(
            (0usize..28, proptest::collection::vec(any::<u8>(), 32), any::<bool>()),
            1..16,
        ),
        tear_at in 0usize..16,
        tear_words in 0usize..4,
    ) {
        let dir = case_dir("dev");
        let fs = OsFs::new(&dir).expect("the case directory");
        let cfg = || {
            let file = fs.open("data.0", Open::Create).expect("the backing file");
            NvmConfig::default().with_size(256).with_backing(DeviceBacking::File(file))
        };
        let mut shadow = vec![0u8; 256];
        {
            let mut dev = NvmDevice::open(cfg()).expect("fresh device");
            for (i, (word, payload, raw)) in writes.iter().enumerate() {
                let mode = if *raw { WriteMode::Raw } else { WriteMode::Diff };
                let offset = word * 8;
                if i == tear_at {
                    dev.arm_torn_write(tear_words);
                    // A torn write reports the persisted prefix as Ok and
                    // leaves the device crashed.
                    dev.write(offset, payload, mode).expect("torn write reports prefix");
                    prop_assert!(dev.is_crashed());
                    let kept = tear_words * 8;
                    shadow[offset..offset + kept].copy_from_slice(&payload[..kept]);
                    break;
                }
                dev.write(offset, payload, mode).expect("in range");
                shadow[offset..offset + 32].copy_from_slice(payload);
            }
            if writes.len() > tear_at {
                // Everything after the tear fails: nothing else may reach
                // the image, and a crashed image is not written back.
                prop_assert!(dev.write(0, &[0u8; 8], WriteMode::Raw).is_err());
                prop_assert!(dev.sync().is_err());
                dev.recover();
            }
            dev.sync().expect("write-back");
        }
        let dev = NvmDevice::open(cfg()).expect("reopen from file");
        prop_assert_eq!(dev.peek(0, 256).expect("peek"), &shadow[..]);
        drop(dev);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
