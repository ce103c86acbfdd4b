//! Packed-vs-float retraining benchmark.
//!
//! Prediction runs in the packed bit domain; this harness measures the
//! same move on the *training* side: the old pipeline
//! (featurize every sampled value into one `f32` per bit — a 32× memory
//! blow-up — then dense float Lloyd iterations) against the packed pipeline
//! ([`pnw_ml::packedmatrix::PackedMatrix`]: the store's integer word-table
//! scorer, rebuilt once per iteration, for the assignment step; integer
//! bit-count accumulators for the centroid update and a closed-form SSE;
//! Hamming-popcount k-means++ seeding). Both paths run the same
//! algorithm from the same seed; the packed one assigns through the
//! quantized scorer, so a near-tie may go the other way, and the recorded
//! `inertia_ratio` guards against quality drift.
//!
//! PCA-configured models get their own row ([`measure_pca_case`]): the
//! packed route (AND-popcount Gram fit on a packed subsample, byte-domain
//! projection, fold) against the float route it replaced (featurize the
//! whole training set, float Gram fit, matrix transform), on 784 B image
//! values at K = 10 — and beside the cold basis fit, what a background
//! retrain pays instead: the warm refresh of the previous basis, and the
//! label pass over the zone ([`measure_label_pass`]).
//!
//! `pnw-bench train` records the numbers in `BENCH_train.json`; the
//! acceptance point is 64 B / K = 16 / 100k samples.

use std::hint::black_box;
use std::time::Instant;

use pnw_core::model::stride_sample;
use pnw_core::{BasisFit, PcaPolicy, PnwConfig, ShardedPnwStore};
use pnw_ml::featurize::featurize_values;
use pnw_ml::kmeans::{KMeans, KMeansConfig};
use pnw_ml::packedmatrix::PackedMatrix;
use pnw_ml::pca::{Pca, RefreshScratch};

use crate::predictbench::{gen_values, image_values};
use crate::report::{num, rows_table, Json, Report};
use crate::{obj, Scale};

/// Lloyd iteration cap for both paths: enough for family-structured data
/// to converge, low enough that the float baseline finishes in CI time.
const MAX_ITERS: usize = 10;

/// One (value size, cluster count, sample count) measurement point.
#[derive(Debug, Clone, Copy)]
pub struct TrainCase {
    /// Value size in bytes.
    pub value_size: usize,
    /// Cluster count K.
    pub k: usize,
    /// Training-set size in samples.
    pub samples: usize,
}

/// The default sweep: value sizes around the paper's small-item regime, a
/// K sweep at 64 B, and sample counts up to the acceptance point
/// (64 B / K = 16 / 100k). `Scale::Quick` divides sample counts by 20 for
/// CI smoke runs.
pub fn default_cases(scale: Scale) -> Vec<TrainCase> {
    let div = scale.pick(20, 1);
    [
        (16, 16, 50_000),
        (64, 4, 100_000),
        (64, 16, 100_000),
        (64, 64, 50_000),
        (256, 16, 25_000),
    ]
    .into_iter()
    .map(|(value_size, k, samples)| TrainCase {
        value_size,
        k,
        samples: (samples / div).max(256),
    })
    .collect()
}

/// Wall-clock results for one case, in milliseconds per full retrain
/// (tensor construction + fit, i.e. what a background retrain pays).
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Value size in bytes.
    pub value_size: usize,
    /// Cluster count K actually fitted.
    pub k: usize,
    /// Samples trained on.
    pub samples: usize,
    /// Packed pipeline: pack + bit-domain Lloyd, milliseconds.
    pub packed_ms: f64,
    /// Float pipeline: featurize + dense float Lloyd, milliseconds.
    pub float_ms: f64,
    /// `float_ms / packed_ms`.
    pub speedup: f64,
    /// `packed.inertia / float.inertia` — 1.0 when the two fits converge to
    /// the same objective (quality guard; representation must not cost SSE).
    pub inertia_ratio: f64,
}

/// Measures one case: one full retrain per path on identical values with
/// identical seeds and iteration caps.
pub fn measure_case(case: TrainCase, seed: u64) -> TrainResult {
    let values = gen_values(case.samples, case.value_size, case.k.max(4), seed ^ 0xFEED);
    let cfg = KMeansConfig::new(case.k)
        .with_seed(seed)
        .with_max_iters(MAX_ITERS);

    // Packed pipeline: pack the bytes, fit in the bit domain.
    let t0 = Instant::now();
    let packed_set = PackedMatrix::from_values(&values);
    let packed = KMeans::fit_set(black_box(&packed_set), &cfg);
    let packed_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Float pipeline: what every retrain paid before this PR — expand to
    // one f32 per bit, then dense Lloyd.
    let t0 = Instant::now();
    let floats = featurize_values(&values);
    let float = KMeans::fit(black_box(&floats), &cfg);
    let float_ms = t0.elapsed().as_secs_f64() * 1e3;

    TrainResult {
        value_size: case.value_size,
        k: packed.k(),
        samples: case.samples,
        packed_ms,
        float_ms,
        speedup: float_ms / packed_ms.max(1e-9),
        inertia_ratio: packed.inertia as f64 / (float.inertia as f64).max(1e-9),
    }
}

/// Wall-clock results for the PCA-configured case, in milliseconds.
#[derive(Debug, Clone)]
pub struct PcaTrainResult {
    /// Value size in bytes.
    pub value_size: usize,
    /// Cluster count K actually fitted.
    pub k: usize,
    /// Samples trained on.
    pub samples: usize,
    /// Rows the PCA basis was fit on.
    pub basis_rows: usize,
    /// Packed basis fit alone: pack the subsample, AND-popcount Gram,
    /// eigensolve, axes.
    pub packed_fit_ms: f64,
    /// The same basis refreshed warm on the same subsample: pack, two
    /// orthogonal-iteration steps — what a background retrain pays in place
    /// of `packed_fit_ms`.
    pub warm_fit_ms: f64,
    /// Float basis fit alone on the (already featurized) subsample.
    pub float_fit_ms: f64,
    /// Whole packed retrain: basis fit, byte-domain projection, K-means,
    /// fold.
    pub packed_ms: f64,
    /// Whole float retrain: featurize every sample, basis fit, matrix
    /// transform, K-means, projector table.
    pub float_ms: f64,
    /// `float_ms / packed_ms`.
    pub speedup: f64,
    /// `packed.inertia / float.inertia` in their (near-identical) PCA
    /// spaces — the quality guard.
    pub inertia_ratio: f64,
}

/// Measures one PCA-configured retrain per route on identical image values
/// with identical seeds, iteration caps and the default [`PcaPolicy`].
pub fn measure_pca_case(samples: usize, k: usize, seed: u64) -> PcaTrainResult {
    let policy = PcaPolicy::default();
    let values = image_values(samples, seed ^ 0xFEED);
    let basis_idx = stride_sample(values.len(), policy.sample);
    let cfg = KMeansConfig::new(k)
        .with_seed(seed)
        .with_max_iters(MAX_ITERS);

    let t0 = Instant::now();
    let basis: Vec<&Vec<u8>> = basis_idx.iter().map(|&i| &values[i]).collect();
    let pca = Pca::fit_packed(&PackedMatrix::from_values(&basis), policy.components);
    let packed_fit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let projector = pca.bit_projector();
    let packed = KMeans::fit(&projector.project_values(black_box(&values)), &cfg);
    black_box(projector.fold(packed.centroids()));
    let packed_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut warm = pca.clone();
    let t0 = Instant::now();
    let refreshed = warm.refresh_packed(
        &PackedMatrix::from_values(&basis),
        &mut RefreshScratch::default(),
    );
    let warm_fit_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(refreshed, "image samples keep every axis");
    black_box(warm);

    // What every PCA-configured retrain paid before: the whole training set
    // as one f32 per bit.
    let t0 = Instant::now();
    let bits = featurize_values(black_box(&values));
    let sample = bits.select_rows(&basis_idx);
    let t1 = Instant::now();
    let pca = Pca::fit(&sample, policy.components);
    let float_fit_ms = t1.elapsed().as_secs_f64() * 1e3;
    let float = KMeans::fit(&pca.transform(&bits), &cfg);
    black_box(pca.bit_projector());
    let float_ms = t0.elapsed().as_secs_f64() * 1e3;

    PcaTrainResult {
        value_size: values[0].len(),
        k: packed.k(),
        samples,
        basis_rows: basis_idx.len(),
        packed_fit_ms,
        warm_fit_ms,
        float_fit_ms,
        packed_ms,
        float_ms,
        speedup: float_ms / packed_ms.max(1e-9),
        inertia_ratio: packed.inertia as f64 / (float.inertia as f64).max(1e-9),
    }
}

/// The label pass of one background retrain, in milliseconds per 32 768
/// buckets: a 4-shard store of `buckets` 784 B image values (every bucket
/// written, as the paper's set-up has it), trained once synchronously, then
/// retrained in the background on a quiet zone — the worker thread's
/// lock-free walk, read off [`pnw_core::TrainPhases::label`].
pub fn measure_label_pass(buckets: usize, k: usize, seed: u64) -> f64 {
    let cfg = PnwConfig::new(buckets, 784).with_clusters(k).with_shards(4);
    let store = ShardedPnwStore::new(cfg.with_seed(seed));
    // A prime count, so that a strided sample of the cycle never aliases
    // onto a handful of images.
    let mut values = image_values(buckets.min(4099), seed ^ 0xFEED)
        .into_iter()
        .cycle();
    let filled = store.prefill_free_buckets(|| values.next().expect("cycled"));
    assert_eq!(filled.expect("image values fit"), buckets);
    store.retrain_now().expect("first training");
    store.retrain_in_background();
    store.wait_for_retrain();
    let train = store.snapshot().train;
    assert_eq!((train.labelled, train.basis), (buckets, BasisFit::Warm));
    assert_eq!(
        train.predicted_at_install, 0,
        "a quiet zone installs for free"
    );
    train.phases.label.as_secs_f64() * 1e3 * 32_768.0 / buckets as f64
}

/// Runs the whole sweep.
pub fn run_sweep(cases: &[TrainCase], seed: u64) -> Vec<TrainResult> {
    cases.iter().map(|&c| measure_case(c, seed)).collect()
}

/// The whole benchmark: runs the packed-vs-float sweep and the
/// PCA-configured case, prints both result tables and returns them as the
/// `train` report.
pub fn run(scale: Scale) -> Report {
    let results: Vec<Json> = run_sweep(&default_cases(scale), 0xACE5)
        .iter()
        .map(|r| {
            obj! {
                "value_size": r.value_size,
                "k": r.k,
                "samples": r.samples,
                "packed_ms": num(r.packed_ms, 1),
                "float_ms": num(r.float_ms, 1),
                "speedup": num(r.speedup, 2),
                "inertia_ratio": num(r.inertia_ratio, 4),
            }
        })
        .collect();
    println!("Training pipeline — packed bit-domain vs float featurize+Lloyd, ms/retrain");
    println!("{}", rows_table(&results).render());

    let r = measure_pca_case(scale.pick(512, 4096), 10, 0xACE5);
    let label_ms = measure_label_pass(scale.pick(4096, 32_768), 10, 0xACE5);
    let pca = vec![obj! {
        "value_size": r.value_size,
        "k": r.k,
        "samples": r.samples,
        "basis_rows": r.basis_rows,
        "packed_fit_ms": num(r.packed_fit_ms, 1),
        "warm_fit_ms": num(r.warm_fit_ms, 1),
        "label_ms_per_32k": num(label_ms, 1),
        "float_fit_ms": num(r.float_fit_ms, 1),
        "packed_ms": num(r.packed_ms, 1),
        "float_ms": num(r.float_ms, 1),
        "speedup": num(r.speedup, 2),
        "inertia_ratio": num(r.inertia_ratio, 4),
    }];
    println!(
        "PCA-configured retrain — packed Gram fit + byte-domain projection vs float pipeline;"
    );
    println!(
        "a background retrain pays warm_fit_ms for the basis and label_ms_per_32k for the zone"
    );
    println!("{}", rows_table(&pca).render());

    Report::new("train", scale)
        .field("unit", "ms/retrain")
        .field("results", results)
        .field("pca_results", pca)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_case_produces_sane_numbers() {
        let r = measure_case(
            TrainCase {
                value_size: 16,
                k: 4,
                samples: 400,
            },
            7,
        );
        assert_eq!(r.value_size, 16);
        assert_eq!(r.k, 4);
        assert!(r.packed_ms > 0.0);
        assert!(r.float_ms > 0.0);
        assert!(r.speedup > 0.0);
        // Same seed, same algorithm: the fits converge to the same
        // objective (decisive family margins, so no tie-cascade drift).
        assert!(
            (r.inertia_ratio - 1.0).abs() < 0.01,
            "inertia_ratio {}",
            r.inertia_ratio
        );
    }

    #[test]
    fn pca_case_routes_agree_on_quality() {
        let r = measure_pca_case(96, 4, 7);
        assert_eq!(
            (r.value_size, r.k, r.samples, r.basis_rows),
            (784, 4, 96, 96)
        );
        assert!(r.packed_fit_ms > 0.0 && r.float_fit_ms > 0.0 && r.warm_fit_ms > 0.0);
        assert!(r.packed_ms >= r.packed_fit_ms && r.float_ms >= r.float_fit_ms);
        // Same basis up to rounding, same seed: the same clustering.
        assert!(
            (r.inertia_ratio - 1.0).abs() < 0.01,
            "inertia_ratio {}",
            r.inertia_ratio
        );
    }

    #[test]
    fn label_pass_is_measured_on_a_quiet_background_retrain() {
        assert!(measure_label_pass(1024, 4, 7) > 0.0);
    }

    #[test]
    fn quick_cases_are_scaled_down() {
        let quick = default_cases(Scale::Quick);
        let full = default_cases(Scale::Full);
        assert_eq!(quick.len(), full.len());
        for (q, f) in quick.iter().zip(&full) {
            assert!(q.samples < f.samples);
            assert_eq!(q.k, f.k);
        }
        // The acceptance point is present at full scale.
        assert!(full
            .iter()
            .any(|c| c.value_size == 64 && c.k == 16 && c.samples == 100_000));
    }
}
