//! Bit-domain-vs-float prediction microbenchmark.
//!
//! The paper budgets 5–6 µs of model latency per PUT (§VI-D, Figure 6);
//! the store's one scorer ([`pnw_ml::pca::FoldedPredictor`]: the feature
//! map folded into the centroids as `i8` weights, each value word dotted
//! with K rows in integers) replaces the float paths on that budget's
//! critical path. This module measures it against the float path it
//! replaced on the *same trained model*, reporting ns/op — the numbers
//! `pnw-bench predict` records in `BENCH_predict.json`:
//!
//! * models over the raw bits against featurize + dense scan, across value
//!   sizes and cluster counts — 4 B at K = 10 and 30 are Figure 6's
//!   many-cluster panels. PCA is disabled for these cases (threshold raised
//!   above every measured size) so the float baseline is always the full
//!   pipeline the scorer replaces;
//! * PCA-configured models (the basis folded in) against project +
//!   PCA-space scan, on 784 B image values at K = 10
//!   ([`measure_pca_case`]).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pnw_core::model::stride_sample;
use pnw_core::{ModelManager, ModelSnapshot, PcaPolicy, PnwConfig, PredictScratch};
use pnw_ml::featurize::bits_to_features;
use pnw_ml::kmeans::{KMeans, KMeansConfig};
use pnw_ml::packedmatrix::PackedMatrix;
use pnw_ml::pca::Pca;
use pnw_ml::simd::popcount_bytes;
use pnw_workloads::{ImageStyle, TemplateImages, Workload as _};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::report::{num, rows_table, Json, Report};
use crate::{obj, Scale};

/// One (value size, cluster count) measurement point.
#[derive(Debug, Clone, Copy)]
pub struct PredictCase {
    /// Value size in bytes.
    pub value_size: usize,
    /// Cluster count K.
    pub k: usize,
}

/// The default sweep: value sizes around the paper's small-item regime
/// with a K sweep at 64 B (the acceptance point is 64 B / K = 16), and the
/// 4 B values of Figure 6's `Normal` and `Uniform` panels at K = 10 and 30.
pub fn default_cases() -> Vec<PredictCase> {
    [(4, 10), (4, 30), (8, 16), (64, 4), (64, 16), (64, 64), (256, 16)]
        .into_iter()
        .map(|(value_size, k)| PredictCase { value_size, k })
        .collect()
}

/// ns/op results for one case.
#[derive(Debug, Clone)]
pub struct PredictResult {
    /// Value size in bytes.
    pub value_size: usize,
    /// Cluster count K actually fitted (may be below the request on tiny
    /// data; the generator provides ≥ K distinct patterns so it never is).
    pub k: usize,
    /// Timed iterations per path.
    pub iters: u64,
    /// The store's scorer (the word table over the raw bits, the fastest
    /// compilation this CPU runs), nanoseconds per prediction.
    pub packed_ns: f64,
    /// Float featurize + dense scan, nanoseconds per prediction.
    pub float_ns: f64,
    /// `float_ns / packed_ns`.
    pub speedup: f64,
}

/// Deterministic value generator: `families` byte-fill patterns plus a
/// random tail — enough structure for K-means to find real clusters.
pub(crate) fn gen_values(n: usize, value_size: usize, families: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let fill = (255 / families.max(1) * (i % families.max(1))) as u8;
            let mut v = vec![fill; value_size];
            let tail = value_size.min(4);
            for b in &mut v[value_size - tail..] {
                *b = rng.gen();
            }
            v
        })
        .collect()
}

/// Trains a model for one case (PCA disabled so the float baseline is the
/// full bit-feature scan at every size).
pub fn trained_model(case: PredictCase, seed: u64) -> Arc<ModelSnapshot> {
    let cfg = PnwConfig::new(1024, case.value_size)
        .with_clusters(case.k)
        .with_seed(seed)
        .with_pca(PcaPolicy {
            threshold_bits: usize::MAX,
            ..PcaPolicy::default()
        });
    let mut m = ModelManager::new(&cfg);
    m.train(&gen_values(512, case.value_size, case.k.max(4), seed ^ 0xFEED));
    m.snapshot()
}

/// ns per call of `predict` over `iters` probes drawn in rotation, after an
/// eighth of that as warm-up. The predictions are folded into `sink` so
/// the calls cannot be elided.
fn time_ns(
    probes: &[Vec<u8>],
    iters: u64,
    sink: &mut usize,
    mut predict: impl FnMut(&[u8]) -> usize,
) -> f64 {
    for v in probes.iter().cycle().take((iters / 8).max(1) as usize) {
        *sink ^= predict(v);
    }
    let t0 = Instant::now();
    for v in probes.iter().cycle().take(iters as usize) {
        *sink ^= predict(black_box(v));
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Measures one case: `iters` timed predictions per path (clamped to ≥ 1
/// so the ns/op division is always defined) over a rotating probe set,
/// after an eighth of that as warm-up.
pub fn measure_case(case: PredictCase, iters: u64, seed: u64) -> PredictResult {
    let iters = iters.max(1);
    let m = trained_model(case, seed);
    let probes = gen_values(64, case.value_size, case.k.max(4), seed ^ 0xBEEF);
    let mut scratch = PredictScratch::new();

    let mut sink = 0usize;
    let packed_ns = time_ns(&probes, iters, &mut sink, |v| {
        m.predict_into(v, &mut scratch)
    });

    // Reference float path: featurize into a fresh feature vector, dense
    // K×d scan — exactly what every PUT paid before the packed kernel.
    let float_ns = time_ns(&probes, iters, &mut sink, |v| {
        m.kmeans().predict(&bits_to_features(v))
    });
    black_box(sink);

    PredictResult {
        value_size: case.value_size,
        k: m.k(),
        iters,
        packed_ns,
        float_ns,
        speedup: float_ns / packed_ns.max(1e-9),
    }
}

/// ns/op results for the PCA-configured case.
#[derive(Debug, Clone)]
pub struct PcaPredictResult {
    /// Value size in bytes.
    pub value_size: usize,
    /// Cluster count K actually fitted.
    pub k: usize,
    /// PCA components retained.
    pub components: usize,
    /// Timed iterations per path.
    pub iters: u64,
    /// Mean set bits per probe value — the projection's cost driver (the
    /// integer scorer's cost is words × K, whatever the set bits).
    pub set_bits: f64,
    /// Integer scorer (K dot products per value word), nanoseconds per
    /// prediction.
    pub folded_ns: f64,
    /// Byte-domain projection (`components` lanes per set bit) followed by
    /// the K × `components` PCA-space scan, nanoseconds per prediction.
    pub project_scan_ns: f64,
    /// `project_scan_ns / folded_ns`.
    pub speedup: f64,
}

/// `n` 784 B image values, Digits and Fashion alternating — sparse strokes
/// and dense textures, the two ends of the set-bit range the per-bit
/// projection's cost tracks.
pub fn image_values(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut digits = TemplateImages::new(ImageStyle::Digits, seed);
    let mut fashion = TemplateImages::new(ImageStyle::Fashion, seed);
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                digits.next_value()
            } else {
                fashion.next_value()
            }
        })
        .collect()
}

/// Measures the PCA-configured point: one model (basis on a ≤256-row
/// subsample of `samples` image values, K-means in PCA space, K = `k`)
/// predicted through both paths over a rotating probe set.
///
/// # Panics
/// Panics if the two paths pick different clusters for a probe whose float
/// distances to them lie further apart than the integer scorer's
/// quantization allows: `s ×` the margin within `set_bits + 1` score units
/// (twice the per-score bound `(set_bits + 1)/2`, see
/// [`pnw_ml::pca::FoldedPredictor::scale`]).
pub fn measure_pca_case(samples: usize, k: usize, iters: u64, seed: u64) -> PcaPredictResult {
    let iters = iters.max(1);
    let policy = PcaPolicy::default();
    let values = image_values(samples, seed ^ 0xFEED);
    let basis: Vec<&Vec<u8>> = stride_sample(values.len(), policy.sample)
        .into_iter()
        .map(|i| &values[i])
        .collect();
    let projector =
        Pca::fit_packed(&PackedMatrix::from_values(&basis), policy.components).bit_projector();
    let kmeans = KMeans::fit(
        &projector.project_values(&values),
        &KMeansConfig::new(k).with_seed(seed),
    );
    let folded = projector.fold(kmeans.centroids());

    let probes = image_values(64, seed ^ 0xBEEF);
    let mut features = vec![0.0f32; projector.n_components()];
    let mut dist = vec![0.0f32; kmeans.k()];
    let mut scores = vec![0.0f32; kmeans.k()];
    for (i, v) in probes.iter().enumerate() {
        projector.project_into(v, &mut features);
        let best = kmeans.distances_into(&features, &mut dist);
        let got = folded.distances_into(v, &mut scores);
        let gap = folded.scale() * (f64::from(dist[got]) - f64::from(dist[best]));
        assert!(
            gap <= popcount_bytes(v) as f64 + 1.0,
            "probe {i}: the integer scorer picks cluster {got}, project-then-scan {best}, \
             {gap} score units apart, past the quantization bound"
        );
    }

    let mut sink = 0usize;
    let folded_ns = time_ns(&probes, iters, &mut sink, |v| {
        folded.distances_into(v, &mut dist)
    });
    // What every PCA-configured PUT paid before the fold.
    let project_scan_ns = time_ns(&probes, iters, &mut sink, |v| {
        projector.project_into(v, &mut features);
        kmeans.distances_into(&features, &mut dist)
    });
    black_box(sink);

    PcaPredictResult {
        value_size: values[0].len(),
        k: kmeans.k(),
        components: projector.n_components(),
        iters,
        set_bits: probes.iter().map(|v| popcount_bytes(v) as f64).sum::<f64>()
            / probes.len() as f64,
        folded_ns,
        project_scan_ns,
        speedup: project_scan_ns / folded_ns.max(1e-9),
    }
}

/// Runs the whole sweep.
pub fn run_sweep(cases: &[PredictCase], iters: u64, seed: u64) -> Vec<PredictResult> {
    cases.iter().map(|&c| measure_case(c, iters, seed)).collect()
}

/// The whole benchmark: runs the raw-bit sweep (`iters` timed
/// predictions per path and case, by default 20 000 quick / 200 000 full)
/// and the PCA-configured case at a quarter of that, prints both result
/// tables and returns them as the `predict` report.
pub fn run(scale: Scale, iters: Option<u64>) -> Report {
    let iters = iters.unwrap_or(scale.pick(20_000, 200_000));
    let results: Vec<Json> = run_sweep(&default_cases(), iters, 0xACE5)
        .iter()
        .map(|r| {
            obj! {
                "value_size": r.value_size,
                "k": r.k,
                "iters": r.iters,
                "packed_ns": num(r.packed_ns, 1),
                "float_ns": num(r.float_ns, 1),
                "speedup": num(r.speedup, 2),
            }
        })
        .collect();
    println!("Prediction — the word-table scorer over the raw bits vs float featurize+scan, ns/op");
    println!("{}", rows_table(&results).render());

    let r = measure_pca_case(scale.pick(512, 4096), 10, iters / 4, 0xACE5);
    let pca = vec![obj! {
        "value_size": r.value_size,
        "k": r.k,
        "components": r.components,
        "iters": r.iters,
        "set_bits": num(r.set_bits, 0),
        "folded_ns": num(r.folded_ns, 1),
        "project_scan_ns": num(r.project_scan_ns, 1),
        "speedup": num(r.speedup, 2),
    }];
    println!("PCA-configured model — integer scorer vs project + PCA-space scan, ns/op");
    println!("{}", rows_table(&pca).render());

    Report::new("predict", scale)
        .field("unit", "ns/op")
        .field("results", results)
        .field("pca_results", pca)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_sane_numbers() {
        let r = measure_case(PredictCase { value_size: 16, k: 4 }, 200, 7);
        assert_eq!(r.value_size, 16);
        assert_eq!(r.k, 4);
        assert!(r.packed_ns > 0.0);
        assert!(r.float_ns > 0.0);
        assert!(r.speedup > 0.0);
    }

    #[test]
    fn pca_case_produces_sane_numbers() {
        let r = measure_pca_case(96, 4, 200, 7);
        assert_eq!((r.value_size, r.k), (784, 4));
        assert!(r.components > 0 && r.components <= PcaPolicy::default().components);
        assert!(r.set_bits > 0.0 && r.folded_ns > 0.0 && r.project_scan_ns > 0.0);
        assert!(r.speedup > 0.0);
    }

    #[test]
    fn both_paths_agree_on_predictions() {
        let case = PredictCase { value_size: 32, k: 8 };
        let m = trained_model(case, 11);
        let mut scratch = PredictScratch::new();
        for v in gen_values(32, 32, 8, 99) {
            assert_eq!(
                m.predict_into(&v, &mut scratch),
                m.kmeans().predict(&bits_to_features(&v)),
            );
        }
    }
}
