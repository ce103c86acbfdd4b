//! Equivalence of the store's one prediction scorer with the reference
//! float paths: models over the raw bits against featurize-then-scan on the
//! [`ModelManager`]'s published snapshot (random trained models, the
//! post-retrain table-rebuild case, `put-steady`-shaped values and Figure
//! 6's datasets), and PCA-configured models against project-then-scan in
//! f64.
//!
//! Exactness contract: the scorer is integer. Each of its weights and
//! biases is within ½ of the float one times the model's scale `s`, after
//! shifts that add one constant to all of a value's scores, so a score is
//! within `(set_bits + 1) / 2` of `s ×` the float score less that constant
//! (the float score omits a per-value constant too: the popcount over the
//! raw bits, `‖y‖²` in PCA space), and its argmin is the float one wherever
//! the float margin exceeds twice that bound.

use pnw::core_api::{ModelManager, ModelSnapshot, PnwConfig, PnwStore, PredictScratch};
use pnw_bench::figures::{fig6_datasets, FIG6_KS};
use pnw_ml::kmeans::{KMeans, KMeansConfig};
use pnw_ml::matrix::Matrix;
use pnw_ml::packedmatrix::PackedMatrix;
use pnw_ml::pca::{BitProjector, FoldedPredictor, Pca};
use pnw_ml::simd::popcount_bytes;
use pnw_workloads::{ImageStyle, TemplateImages, Workload};
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

/// Asserts that `m` scores each of `values` through the word table of its
/// own centroids (a stale table would not match), within the bound of the
/// f64 squared distances, with the float argmin wherever the float margin
/// exceeds twice the bound, and a nearest-first ranking sorted under the
/// float distances up to twice the bound.
fn assert_equivalent(m: &ModelSnapshot, values: &[Vec<u8>]) {
    let table = FoldedPredictor::from_centroids(m.kmeans().centroids());
    let mut scratch = PredictScratch::new();
    let mut scores = vec![0.0f32; m.k()];
    for v in values {
        let argmin = m.predict_into(v, &mut scratch);
        assert_eq!(table.distances_into(v, &mut scores), argmin);
        assert_eq!(scratch.distances(), &scores[..], "a stale or foreign table");
        let reference = bit_distances(m.kmeans().centroids(), v);
        assert_within_bound(&table, &scores, &reference, v);
        let twice = 2.0 * bound(v) / table.scale();
        let (best, margin) = argmin_and_margin(&reference);
        if margin > twice {
            assert_eq!(argmin, best, "value {v:?}");
        }
        let ranking = m.ranked_after_predict(&mut scratch);
        assert_eq!(ranking.len(), m.k());
        assert_eq!(ranking[0], argmin);
        for w in ranking.windows(2) {
            assert!(
                reference[w[0]] <= reference[w[1]] + twice,
                "ranking {ranking:?} not sorted under float distances {reference:?}"
            );
        }
    }
}

proptest! {
    /// Random small models: the scorer reproduces the float path's
    /// distances and ordering on trained managers, within the bound.
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
        assert_equivalent(&m.snapshot(), &values);
    }
}

/// Slack for the f64 references' own rounding, in score units: far below
/// the quantization bound, far above an f64 sum's error.
const F64_SLACK: f64 = 1e-6;

/// `‖x − c_k‖²` in f64 for every centroid over the raw bits.
fn bit_distances(centroids: &Matrix, v: &[u8]) -> Vec<f64> {
    centroids
        .iter_rows()
        .map(|c| {
            c.iter()
                .enumerate()
                .map(|(j, &c)| (f64::from(v[j / 8] >> (j % 8) & 1) - f64::from(c)).powi(2))
                .sum()
        })
        .collect()
}

/// The set bits of `v`, LSB-first within each byte.
fn set_bits(v: &[u8]) -> impl Iterator<Item = usize> + '_ {
    (0..v.len() * 8).filter(move |j| v[j / 8] >> (j % 8) & 1 == 1)
}

/// The float scores the fold quantizes, projected then scanned in f64:
/// `‖y − c_k‖² − ‖y‖²` with `y = o + Σ_{set bits j} W[:, j]`.
fn project_then_scan(projector: &BitProjector, centroids: &Matrix, v: &[u8]) -> Vec<f64> {
    let mut y: Vec<f64> = projector.offset().iter().map(|&o| f64::from(o)).collect();
    for j in set_bits(v) {
        for (y, &w) in y.iter_mut().zip(projector.bit_weights(j)) {
            *y += f64::from(w);
        }
    }
    (0..centroids.rows())
        .map(|k| {
            let c = centroids.row(k).iter().map(|&c| f64::from(c));
            c.zip(&y).map(|(c, &y)| c * (c - 2.0 * y)).sum()
        })
        .collect()
}

/// The quantization bound for a value: each score is within this of
/// `s ×` its float score less one constant of the value.
fn bound(v: &[u8]) -> f64 {
    (popcount_bytes(v) as f64 + 1.0) / 2.0 + F64_SLACK
}

/// The reference argmin and the gap to the runner-up (∞ for one cluster).
fn argmin_and_margin(reference: &[f64]) -> (usize, f64) {
    let mut order: Vec<usize> = (0..reference.len()).collect();
    order.sort_by(|&a, &b| reference[a].total_cmp(&reference[b]).then(a.cmp(&b)));
    let margin = order
        .get(1)
        .map_or(f64::INFINITY, |&o| reference[o] - reference[order[0]]);
    (order[0], margin)
}

/// Asserts each integer score of `folded` on `v` is within the bound of
/// `s ×` its reference less one constant of the value (the shifts the fold
/// takes out): the scores' errors spread over at most twice the bound.
fn assert_within_bound(folded: &FoldedPredictor, scores: &[f32], reference: &[f64], v: &[u8]) {
    let errors: Vec<f64> = scores
        .iter()
        .zip(reference)
        .map(|(&got, &r)| f64::from(got) - folded.scale() * r)
        .collect();
    let spread = errors.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - errors.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        spread <= 2.0 * bound(v),
        "errors {errors:?} spread past twice the bound {}",
        bound(v)
    );
}

proptest! {
    /// Folding the PCA basis into the centroids and quantizing it moves no
    /// score past its bound: for each probe every integer score is within
    /// `(set_bits + 1) / 2` of `s ×` its f64 project-then-scan score, the
    /// argmin is the reference's wherever the reference margin exceeds
    /// twice that bound, and the nearest-first ranking is sorted under the
    /// reference up to twice the bound. One fitted model serves 16 probes
    /// per case (64 cases): values it trained on and fresh ones.
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
        let mut scores = vec![0.0f32; kmeans.k()];
        for v in &probes {
            let reference = project_then_scan(&projector, kmeans.centroids(), v);
            let folded_argmin = folded.distances_into(v, &mut scores);
            assert_within_bound(&folded, &scores, &reference, v);
            let twice = 2.0 * bound(v) / folded.scale();

            let (best, margin) = argmin_and_margin(&reference);
            if margin > twice {
                prop_assert_eq!(folded_argmin, best);
            }
            let mut ranking: Vec<usize> = (0..kmeans.k()).collect();
            ranking.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
            prop_assert_eq!(ranking[0], folded_argmin);
            for w in ranking.windows(2) {
                prop_assert!(
                    reference[w[0]] <= reference[w[1]] + twice,
                    "ranking {:?} not sorted under float scores {:?}", ranking, reference
                );
            }
        }
    }
}

/// The image dataset seed of the repository's benchmark.
const IMAGE_DATASET: u64 = 0x4D4E_4953_5400;

/// `n` 784 B images of `style` (both styles alternating for `None`) from
/// the stream `stream`.
fn images(style: Option<ImageStyle>, stream: u64, n: usize) -> Vec<Vec<u8>> {
    let mut digits =
        TemplateImages::new(ImageStyle::Digits, IMAGE_DATASET).with_stream_seed(stream);
    let mut fashion =
        TemplateImages::new(ImageStyle::Fashion, IMAGE_DATASET).with_stream_seed(stream);
    (0..n)
        .map(|i| match style {
            Some(ImageStyle::Digits) => digits.next_value(),
            Some(ImageStyle::Fashion) => fashion.next_value(),
            None if i % 2 == 0 => digits.next_value(),
            None => fashion.next_value(),
        })
        .collect()
}

/// The quantized scorer picks the float scorer's cluster on image values:
/// Digits, Fashion and mixed models (32 components, K = 10, as a
/// PCA-configured store trains them) each score 10 000 fresh Digits and
/// 10 000 fresh Fashion images, on two dataset streams (one thread each).
/// Agreement with the f64 argmin is at least 99.5% where the model's style
/// matches the probes or the model is mixed, and at least 98.5% across
/// styles (the drift case); every disagreement is a near-tie inside the
/// bound.
#[test]
fn quantized_argmin_agrees_with_the_float_scorer_on_images() {
    std::thread::scope(|s| {
        for seed in [11u64, 29] {
            s.spawn(move || agreement_on_images(seed));
        }
    });
}

fn agreement_on_images(seed: u64) {
    const PROBES: usize = 10_000;
    let probes = [ImageStyle::Digits, ImageStyle::Fashion]
        .map(|style| (style, images(Some(style), seed ^ 0x9E37, PROBES)));
    for model_style in [Some(ImageStyle::Digits), Some(ImageStyle::Fashion), None] {
        let train = images(model_style, seed, 2048);
        let basis: Vec<&Vec<u8>> = train.iter().step_by(8).collect();
        let projector = Pca::fit_packed(&PackedMatrix::from_values(&basis), 32).bit_projector();
        let kmeans = KMeans::fit(
            &projector.project_values(&train),
            &KMeansConfig::new(10).with_seed(seed),
        );
        let folded = projector.fold(kmeans.centroids());
        let reference = ByteReference::new(&projector, kmeans.centroids());
        for (probe_style, values) in &probes {
            let agree = agreement(&folded, values, |v| reference.scores(v));
            let floor = if model_style.is_none_or(|m| m == *probe_style) {
                0.995
            } else {
                0.985
            };
            let share = agree as f64 / PROBES as f64;
            assert!(
                share >= floor,
                "seed {seed}, {model_style:?} model on {probe_style:?}: {share}"
            );
        }
    }
}

/// Scores `probes` through `folded` and through the f64 `reference`,
/// asserts every score within the bound and every disagreement of the
/// argmins a near-tie inside twice the bound, and returns how many argmins
/// agree.
fn agreement(
    folded: &FoldedPredictor,
    probes: &[Vec<u8>],
    reference: impl Fn(&[u8]) -> Vec<f64>,
) -> usize {
    let mut scores = vec![0.0f32; folded.k()];
    let mut agree = 0;
    for v in probes {
        let reference = reference(v);
        let got = folded.distances_into(v, &mut scores);
        assert_within_bound(folded, &scores, &reference, v);
        let (best, _) = argmin_and_margin(&reference);
        if got == best {
            agree += 1;
        } else {
            let gap = folded.scale() * (reference[got] - reference[best]);
            assert!(
                gap <= 2.0 * bound(v),
                "a disagreement past the bound: {gap}"
            );
        }
    }
    agree
}

/// `n` values shaped as `put-steady` writes them: a fill byte by key
/// (`0x00`, `0xFF`, `0x0F`, `0xAA`), then a 4-byte version and a 4-byte
/// check word.
fn put_steady_values(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let key = rng.gen_range(0..16_384usize);
            let mut v = vec![[0x00, 0xFF, 0x0F, 0xAA][key % 4]; 56];
            v.extend(rng.gen_range(1u32..64).to_le_bytes());
            v.extend(rng.gen::<u32>().to_le_bytes());
            v
        })
        .collect()
}

/// The scorer picks the float scorer's cluster on the store's workloads,
/// 1 000 fresh probes per model (the full lane below probes 10 000).
#[test]
fn argmin_agrees_with_the_float_scorer_on_put_steady_and_figure_6() {
    agreement_on_workloads(1_000);
}

/// [`argmin_agrees_with_the_float_scorer_on_put_steady_and_figure_6`] at
/// 10 000 probes per model, the agreement printed — run it optimised:
/// `cargo test --release --test predict_packed -- --ignored --nocapture`.
#[test]
#[ignore = "10 000 probes per model: the release-build report lane"]
fn argmin_agreement_report_at_10k_probes() {
    agreement_on_workloads(10_000);
}

/// `put-steady`'s 64 B values at its K = 4, and each of Figure 6's six
/// datasets at every K of its sweep, trained as a store trains them (the
/// manager over the raw bits; basis, projection and fold above the PCA
/// threshold) and probed with `probes` fresh values each. Every score is
/// within the bound and every disagreement a near-tie inside it; the
/// agreement is printed, and on `put-steady` it is at least 99.5%.
fn agreement_on_workloads(probes: usize) {
    let cfg = PnwConfig::new(4096, 64).with_clusters(4).with_seed(11);
    let mut m = ModelManager::new(&cfg);
    m.train(&put_steady_values(4096, 11));
    let m = m.snapshot();
    let values = put_steady_values(probes, 29);
    assert_equivalent(&m, &values[..64]);
    let folded = FoldedPredictor::from_centroids(m.kmeans().centroids());
    let agree = agreement(&folded, &values, |v| {
        bit_distances(m.kmeans().centroids(), v)
    });
    println!("put-steady, K = 4: {agree}/{probes}");
    assert!(agree as f64 >= 0.995 * probes as f64);

    std::thread::scope(|s| {
        for dataset in fig6_datasets() {
            s.spawn(move || {
                let mut w = dataset.build(0xF1_60 + dataset as u64);
                let vs = w.value_size();
                let train: Vec<Vec<u8>> = (0..512).map(|_| w.next_value()).collect();
                let probes: Vec<Vec<u8>> = (0..probes).map(|_| w.next_value()).collect();
                let pca = PnwConfig::new(512, vs).uses_pca().then(|| {
                    let basis: Vec<&Vec<u8>> = train.iter().step_by(2).collect();
                    let projector =
                        Pca::fit_packed(&PackedMatrix::from_values(&basis), 32).bit_projector();
                    let projected = projector.project_values(&train);
                    (projector, projected)
                });
                for k in FIG6_KS {
                    let cfg = PnwConfig::new(512, vs).with_clusters(k).with_seed(k as u64);
                    let agree = if let Some((projector, projected)) = &pca {
                        let kmeans =
                            KMeans::fit(projected, &KMeansConfig::new(k).with_seed(cfg.seed));
                        let reference = ByteReference::new(projector, kmeans.centroids());
                        let folded = projector.fold(kmeans.centroids());
                        agreement(&folded, &probes, |v| reference.scores(v))
                    } else {
                        let mut m = ModelManager::new(&cfg);
                        m.train(&train);
                        let m = m.snapshot();
                        assert_equivalent(&m, &probes[..64]);
                        let centroids = m.kmeans().centroids();
                        let folded = FoldedPredictor::from_centroids(centroids);
                        agreement(&folded, &probes, |v| bit_distances(centroids, v))
                    };
                    println!("{}, K = {k}: {agree}/{}", dataset.name(), probes.len());
                }
            });
        }
    });
}

/// [`project_then_scan`]'s scores by linearity, `b_k + Σ_{set j} w_jk` in
/// f64, summed a value byte at a time from a table of every byte's
/// contribution — it runs 120 000 times in an unoptimised build.
struct ByteReference {
    bias: Vec<f64>,
    k: usize,
    /// `(position · 256 + byte) · k + c`: the byte's set bits' weights for
    /// cluster c, summed.
    lut: Vec<f64>,
}

impl ByteReference {
    fn new(projector: &BitProjector, centroids: &Matrix) -> Self {
        let (bytes, k) = (projector.input_bytes(), centroids.rows());
        // w_jk = −2 Σ_c W[c][j] · c_k[c], as the fold defines it.
        let weight: Vec<f64> = (0..bytes * 8)
            .flat_map(|j| (0..k).map(move |c| (j, c)))
            .map(|(j, c)| {
                let w = projector.bit_weights(j).iter().map(|&w| f64::from(w));
                -2.0 * w
                    .zip(centroids.row(c))
                    .map(|(w, &c)| w * f64::from(c))
                    .sum::<f64>()
            })
            .collect();
        let mut lut = vec![0.0f64; bytes * 256 * k];
        for pos in 0..bytes {
            for byte in 1..256usize {
                let (rest, bit) = (byte & (byte - 1), byte.trailing_zeros() as usize);
                for c in 0..k {
                    lut[(pos * 256 + byte) * k + c] =
                        lut[(pos * 256 + rest) * k + c] + weight[(pos * 8 + bit) * k + c];
                }
            }
        }
        ByteReference {
            bias: project_then_scan(projector, centroids, &vec![0; bytes]),
            k,
            lut,
        }
    }

    fn scores(&self, v: &[u8]) -> Vec<f64> {
        let mut scores = self.bias.clone();
        for (pos, &byte) in v.iter().enumerate().filter(|(_, &b)| b != 0) {
            let row = &self.lut[(pos * 256 + usize::from(byte)) * self.k..][..self.k];
            for (s, &w) in scores.iter_mut().zip(row) {
                *s += w;
            }
        }
        scores
    }
}

/// PCA-configured managers score through the quantized folded table from the
/// placeholder on; the split scratch prediction is self-consistent and the
/// trained model separates the families it was trained on.
#[test]
fn pca_model_predicts_identically_through_scratch() {
    // 160 B = 1280 bits > the default 1024-bit PCA threshold.
    let cfg = PnwConfig::new(128, 160).with_clusters(3).with_seed(21);
    assert!(cfg.uses_pca());
    let mut m = ModelManager::new(&cfg);
    let values = random_values(60, 160, 3, 77);
    m.train(&values);
    let m = m.snapshot();
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

/// Retraining swaps centroids; the word table must be rebuilt with them
/// (a stale table would keep predicting under the old geometry).
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
    assert_equivalent(&m4, &second);
    assert_equivalent(&m4, &first);
}

/// A background retrain builds its model through the same fit, so the
/// model the store's worker installs must have rebuilt its table too.
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
    assert_equivalent(&m, &values);
}
