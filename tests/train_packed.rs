//! Equivalence of the packed bit-domain *training* pipeline with the float
//! reference at the public-API level, plus the reservoir-sampling contract
//! of `train_sample_cap`.
//!
//! Exactness contract (mirroring `tests/predict_packed.rs` for the predict
//! side): k-means++ seeding is *identical* — sample-to-sample distances on
//! 0/1 data are exact integers in both representations, so both paths draw
//! the same centers from the same RNG stream — and the fitted centroids
//! agree to f32 tolerance on family-structured data whose margins are
//! decisive. The packed fit assigns through the store's quantized scorer,
//! so a genuine near-tie (inside the scorer's bound) may go the other way
//! and cascade.

use pnw::core_api::model::reservoir_sample;
use pnw::core_api::{ModelManager, PnwConfig, PnwStore};
use pnw_ml::featurize::{bits_to_features, featurize_values};
use pnw_ml::kmeans::{KMeans, KMeansConfig};
use pnw_ml::pca::FoldedPredictor;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Byte-fill families with one random tail byte: decisive cluster margins.
fn family_values(n: usize, bytes: usize, families: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let fill = ((i % families) * 255 / families) as u8;
            (0..bytes)
                .map(|b| if b == bytes - 1 { rng.gen() } else { fill })
                .collect()
        })
        .collect()
}

proptest! {
    /// `ModelManager::train` (which fits on the packed representation for
    /// raw bit-feature models, assigning through the word table) reproduces
    /// the float pipeline's model: same K, tolerance-level centroids, same
    /// labeling — and its snapshot predicts within the scorer's bound.
    #[test]
    fn manager_training_matches_float_reference(
        seed in 0u64..200,
        value_bytes in 2usize..12,
        families in 2usize..5,
    ) {
        let cfg = PnwConfig::new(256, value_bytes)
            .with_clusters(families)
            .with_seed(seed);
        let values = family_values(64, value_bytes, families, seed ^ 0x5EED);
        let mut m = ModelManager::new(&cfg);
        m.train(&values);
        let m = m.snapshot();
        // The snapshot predicts its own centroids' float argmin wherever the
        // float margin is wider than the scorer's bound.
        let scale = FoldedPredictor::from_centroids(m.kmeans().centroids()).scale();
        for v in &values {
            let mut dist = vec![0.0f32; m.k()];
            let best = m.kmeans().distances_into(&bits_to_features(v), &mut dist);
            let set_bits: u32 = v.iter().map(|b| b.count_ones()).sum();
            let twice = (f64::from(set_bits) + 1.0 + 1e-3) / scale;
            let runner_up = (0..m.k())
                .filter(|&c| c != best)
                .map(|c| f64::from(dist[c] - dist[best]))
                .fold(f64::INFINITY, f64::min);
            if runner_up > twice {
                prop_assert_eq!(m.predict(v), best);
            }
        }

        // The float reference: exactly what the manager ran before this PR
        // (featurize + dense Lloyd, same seed / threads / iteration cap).
        let floats = featurize_values(&values);
        let float = KMeans::fit(
            &floats,
            &KMeansConfig::new(cfg.clusters)
                .with_seed(cfg.seed)
                .with_threads(cfg.train_threads)
                .with_max_iters(cfg.train_iters),
        );
        prop_assert_eq!(m.k(), float.k());
        prop_assert_eq!(m.kmeans().labels(&floats), float.labels(&floats));
        for c in 0..float.k() {
            for (p, f) in m.kmeans().centroid(c).iter().zip(float.centroid(c)) {
                prop_assert!((p - f).abs() <= 1e-4, "centroid {}: {} vs {}", c, p, f);
            }
        }
    }

    /// Reservoir sampling is deterministic, exact-capped, sorted, unique
    /// and in-range for arbitrary (n, cap, seed).
    #[test]
    fn reservoir_contract(n in 0usize..2000, cap in 1usize..300, seed in 0u64..1000) {
        let a = reservoir_sample(n, cap, seed);
        prop_assert_eq!(&a, &reservoir_sample(n, cap, seed));
        prop_assert_eq!(a.len(), n.min(cap));
        prop_assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted + unique");
        prop_assert!(a.iter().all(|&i| i < n));
        if n <= cap {
            let identity: Vec<usize> = (0..n).collect();
            prop_assert_eq!(a, identity);
        }
    }
}

/// Store-level cap enforcement: a store with a tiny `train_sample_cap`
/// trains on exactly that many samples, reports both counts, and stays
/// deterministic.
#[test]
fn store_reservoir_cap_is_enforced_and_deterministic() {
    let cfg = PnwConfig::new(128, 8)
        .with_clusters(2)
        .with_seed(9)
        .with_train_sample_cap(16);
    let run = || {
        let s = PnwStore::new(cfg.clone());
        for k in 0..96u64 {
            let fill = if k % 2 == 0 { 0x00u8 } else { 0xFF };
            s.put(k, &[fill; 8]).unwrap();
        }
        s.retrain_now().unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.train.samples_pre_cap, 128, "full data-zone snapshot");
        assert_eq!(snap.train.samples_post_cap, 16, "reservoir cap");
        assert_eq!(snap.train.epoch, 1);
        assert!(snap.train.last_train_wall.as_nanos() > 0);
        s.model_snapshot().kmeans().centroids().clone()
    };
    assert_eq!(run(), run(), "capped training must be reproducible");
}

/// Uncapped stores report pre == post (the cap is the identity there).
#[test]
fn uncapped_store_reports_identity_counts() {
    let s = PnwStore::new(PnwConfig::new(32, 8).with_clusters(2));
    for k in 0..24u64 {
        s.put(k, &k.to_le_bytes()).unwrap();
    }
    s.retrain_now().unwrap();
    let snap = s.snapshot();
    assert_eq!(snap.train.samples_pre_cap, 32);
    assert_eq!(snap.train.samples_post_cap, 32);
}
