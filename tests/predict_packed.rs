//! Equivalence of the bit-domain prediction kernels with their reference
//! float paths: the byte-LUT kernel against featurize-then-scan on the
//! [`ModelManager`]'s published snapshot (random trained models, the
//! post-retrain LUT-rebuild case), and the folded per-bit kernel of PCA-configured
//! models against project-then-scan.
//!
//! Exactness contract: distances agree within f32 ulp-level tolerance (the
//! two paths sum in different orders), and argmin/ranking agree whenever
//! the float path's distance margins exceed that tolerance — genuine
//! near-ties may resolve either way under reordered f32 summation, which
//! is as exact as f32 arithmetic admits. The folded kernel never computes
//! the per-value constant `‖y‖²`, so for it the contract is on distance
//! *differences* between clusters, not on absolute distances.

use pnw::core_api::{ModelManager, ModelSnapshot, PnwConfig, PnwStore, PredictScratch};
use pnw_ml::featurize::bits_to_features;
use pnw_ml::kmeans::{KMeans, KMeansConfig};
use pnw_ml::matrix::sq_dist;
use pnw_ml::packedmatrix::PackedMatrix;
use pnw_ml::pca::Pca;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Structured random values: a few byte-fill families plus random noise
/// bytes, so K-means finds real clusters (pure noise collapses them).
fn random_values(n: usize, bytes: usize, families: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let fill = ((i % families.max(1)) * 255 / families.max(1)) as u8;
            (0..bytes)
                .map(|b| if b % 3 == 2 { rng.gen() } else { fill })
                .collect()
        })
        .collect()
}

/// Distance tolerance scaled to the magnitude (both paths round f32).
fn tol(reference: f32) -> f32 {
    1e-3 * (1.0 + reference.abs())
}

/// Asserts packed and float paths agree on `values` for `m`: distances
/// within tolerance, argmin and ranking identical up to near-ties.
fn assert_equivalent(m: &ModelSnapshot, values: &[Vec<u8>]) {
    let mut scratch = PredictScratch::new();
    for v in values {
        let packed_argmin = m.predict_into(v, &mut scratch);
        let packed_dist = scratch.distances().to_vec();
        let f = bits_to_features(v);
        let float_dist: Vec<f32> = (0..m.k())
            .map(|c| sq_dist(m.kmeans().centroid(c), &f))
            .collect();
        for (c, (&p, &fl)) in packed_dist.iter().zip(&float_dist).enumerate() {
            assert!(
                (p - fl).abs() <= tol(fl),
                "cluster {c}: packed {p} vs float {fl}"
            );
        }
        // Argmin agrees when the float margin is decisive.
        let float_argmin = m.kmeans().predict(&f);
        let mut sorted = float_dist.clone();
        sorted.sort_by(f32::total_cmp);
        let margin = if sorted.len() > 1 {
            sorted[1] - sorted[0]
        } else {
            f32::INFINITY
        };
        if margin > tol(sorted[0]) {
            assert_eq!(packed_argmin, float_argmin, "value {v:?}");
        }
        // The lazy ranking is a valid nearest-first order under the float
        // distances (within tolerance), starting at the packed argmin.
        let ranking = m.ranked_after_predict(&mut scratch);
        assert_eq!(ranking.len(), m.k());
        assert_eq!(ranking[0], packed_argmin);
        for w in ranking.windows(2) {
            assert!(
                float_dist[w[0]] <= float_dist[w[1]] + tol(float_dist[w[1]]),
                "ranking {ranking:?} not sorted under float distances {float_dist:?}"
            );
        }
    }
}

proptest! {
    /// Random small models: the packed kernel reproduces the float path's
    /// distances and ordering on trained managers.
    #[test]
    fn manager_packed_matches_float(
        seed in 0u64..500,
        value_bytes in 1usize..16,
        k in 1usize..6,
    ) {
        let cfg = PnwConfig::new(128, value_bytes).with_clusters(k).with_seed(seed);
        let mut m = ModelManager::new(&cfg);
        let values = random_values(48, value_bytes, k.max(2), seed);
        // Untrained (single zero centroid) first…
        assert_equivalent(&m.snapshot(), &values[..8]);
        // …then trained.
        m.train(&values);
        let m = m.snapshot();
        prop_assert!(m.uses_packed());
        assert_equivalent(&m, &values);
    }
}

proptest! {
    /// Folding the PCA basis into the centroids changes no decision: for
    /// each probe the folded scores and project-then-`distances_into`
    /// agree on every pairwise difference `d[a] − d[b]` within tolerance,
    /// on the argmin whenever the float margin is decisive, and on the
    /// nearest-first ranking up to near-ties. One fitted model serves 16
    /// probes per case (64 cases): values it trained on and fresh ones.
    #[test]
    fn folded_scores_match_project_then_scan(
        seed in 0u64..10_000,
        value_bytes in 129usize..200,
        k in 1usize..12,
        components in 1usize..12,
    ) {
        let values = random_values(64, value_bytes, 4, seed);
        let basis: Vec<&Vec<u8>> = values.iter().step_by(2).collect();
        let projector = Pca::fit_packed(&PackedMatrix::from_values(&basis), components)
            .bit_projector();
        let kmeans = KMeans::fit(
            &projector.project_values(&values),
            &KMeansConfig::new(k).with_seed(seed),
        );
        let folded = projector.fold(kmeans.centroids());
        prop_assert_eq!(folded.k(), kmeans.k());

        let mut probes = values[..8].to_vec();
        probes.extend(random_values(8, value_bytes, 5, seed ^ 0xF01D));
        let mut features = vec![0.0f32; projector.n_components()];
        let (mut dist, mut scores) = (vec![0.0f32; kmeans.k()], vec![0.0f32; kmeans.k()]);
        for v in &probes {
            projector.project_into(v, &mut features);
            let float_argmin = kmeans.distances_into(&features, &mut dist);
            let folded_argmin = folded.scores_into(v, &mut scores);
            let tol = tol(dist.iter().copied().fold(0.0, f32::max));

            for a in 0..kmeans.k() {
                for b in 0..a {
                    let (want, got) = (dist[a] - dist[b], scores[a] - scores[b]);
                    prop_assert!(
                        (want - got).abs() <= tol,
                        "d[{}] - d[{}]: float {} vs folded {}", a, b, want, got
                    );
                }
            }
            let mut sorted = dist.clone();
            sorted.sort_by(f32::total_cmp);
            if sorted.len() == 1 || sorted[1] - sorted[0] > tol {
                prop_assert_eq!(folded_argmin, float_argmin);
            }
            let mut ranking: Vec<usize> = (0..kmeans.k()).collect();
            ranking.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
            prop_assert_eq!(ranking[0], folded_argmin);
            for w in ranking.windows(2) {
                prop_assert!(
                    dist[w[0]] <= dist[w[1]] + tol,
                    "ranking {:?} not sorted under float distances {:?}", ranking, dist
                );
            }
        }
    }
}

/// PCA-configured managers score through the folded per-bit table from the
/// placeholder on; the split scratch prediction is self-consistent and the
/// trained model separates the families it was trained on.
#[test]
fn pca_model_predicts_identically_through_scratch() {
    // 160 B = 1280 bits > the default 1024-bit PCA threshold.
    let cfg = PnwConfig::new(128, 160).with_clusters(3).with_seed(21);
    assert!(cfg.uses_pca());
    let mut m = ModelManager::new(&cfg);
    assert!(
        !m.snapshot().uses_packed(),
        "a byte LUT over 160 B would not fit cache"
    );
    let values = random_values(60, 160, 3, 77);
    m.train(&values);
    let m = m.snapshot();
    assert!(!m.uses_packed());
    assert!(m.feature_dims() <= cfg.pca.components);
    let mut scratch = PredictScratch::new();
    let mut labels = Vec::new();
    for v in &values {
        // The prediction must be the argmin of the scratch scores exactly.
        let c = m.predict_into(v, &mut scratch);
        let best = scratch
            .distances()
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(c, best);
        let ranked = m.ranked_after_predict(&mut scratch);
        assert_eq!(c, ranked[0]);
        assert_eq!(ranked.len(), m.k());
        labels.push(c);
    }
    // `random_values` deals the three fill families round-robin.
    for (i, &l) in labels.iter().enumerate() {
        assert_eq!(l, labels[i % 3], "value {i} left its family's cluster");
    }
    assert!(labels[0] != labels[1] && labels[1] != labels[2] && labels[0] != labels[2]);
}

/// Retraining swaps centroids; the packed LUTs must be rebuilt with them
/// (stale tables would keep predicting under the old geometry).
#[test]
fn retrain_rebuilds_luts_and_stays_equivalent() {
    let cfg = PnwConfig::new(256, 8).with_clusters(2).with_seed(5);
    let mut m = ModelManager::new(&cfg);
    let first = random_values(64, 8, 2, 1);
    m.train(&first);
    assert_equivalent(&m.snapshot(), &first);

    // Retrain on a shifted distribution (different families, different K
    // structure) — equivalence must hold against the *new* centroids.
    let second = random_values(64, 8, 4, 2);
    let cfg4 = PnwConfig::new(256, 8).with_clusters(4).with_seed(5);
    let mut m4 = ModelManager::new(&cfg4);
    m4.train(&first);
    m4.train(&second);
    assert_eq!(m4.retrains(), 2);
    let m4 = m4.snapshot();
    assert!(m4.uses_packed());
    assert_equivalent(&m4, &second);
    assert_equivalent(&m4, &first);
}

/// A background retrain builds its model through the same fit, so the
/// model the store's worker installs must have rebuilt its LUTs too.
#[test]
fn background_install_rebuilds_luts() {
    let cfg = PnwConfig::new(256, 8).with_clusters(3).with_seed(9);
    let store = PnwStore::new(cfg);
    let values = random_values(96, 8, 3, 3);
    for (k, v) in values.iter().enumerate() {
        store.put(k as u64, v).unwrap();
    }
    store.retrain_in_background();
    store.wait_for_retrain();
    let m = store.model_snapshot();
    assert_eq!(m.epoch(), 1);
    assert!(m.uses_packed());
    assert_equivalent(&m, &values);
}
