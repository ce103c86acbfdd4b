//! Packed-vs-float retraining benchmark.
//!
//! ```text
//! cargo run --release -p pnw-bench --bin train -- [--quick]
//!     [--out BENCH_train.json]
//! ```
//!
//! Prints the ms/retrain tables (packed vs float Lloyd; the PCA-configured
//! route, packed vs float, on 784 B images) and writes `BENCH_train.json`
//! (the training perf-trajectory file) in the working directory. `--quick`
//! divides the sample counts for CI smoke runs.

use pnw_bench::trainbench::{default_cases, measure_pca_case, run_sweep, write_json};
use pnw_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let mut out = std::path::PathBuf::from("BENCH_train.json");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {} // consumed by Scale::from_env
            "--out" => {
                out = it.next().map(Into::into).unwrap_or_else(|| {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("error: unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }

    println!("Training pipeline — packed bit-domain vs float featurize+Lloyd");
    println!(
        "{:>10} {:>6} {:>9} {:>12} {:>12} {:>9} {:>9}",
        "value", "K", "samples", "packed(ms)", "float(ms)", "speedup", "SSE-ratio"
    );
    let results = run_sweep(&default_cases(scale), 0xACE5);
    for r in &results {
        println!(
            "{:>9}B {:>6} {:>9} {:>12.1} {:>12.1} {:>8.1}x {:>9.4}",
            r.value_size, r.k, r.samples, r.packed_ms, r.float_ms, r.speedup, r.inertia_ratio
        );
    }

    println!(
        "\nPCA-configured retrain — packed Gram fit + byte-domain projection vs float pipeline"
    );
    println!(
        "{:>10} {:>6} {:>9} {:>11} {:>11} {:>12} {:>12} {:>9} {:>9}",
        "value",
        "K",
        "samples",
        "fit pk(ms)",
        "fit fl(ms)",
        "packed(ms)",
        "float(ms)",
        "speedup",
        "SSE-ratio"
    );
    let pca = [measure_pca_case(scale.pick(512, 4096), 10, 0xACE5)];
    for r in &pca {
        println!(
            "{:>9}B {:>6} {:>9} {:>11.1} {:>11.1} {:>12.1} {:>12.1} {:>8.1}x {:>9.4}",
            r.value_size,
            r.k,
            r.samples,
            r.packed_fit_ms,
            r.float_fit_ms,
            r.packed_ms,
            r.float_ms,
            r.speedup,
            r.inertia_ratio
        );
    }
    match write_json(&out, &results, &pca, scale == Scale::Quick) {
        Ok(()) => println!("\nwrote {}", out.display()),
        Err(e) => eprintln!("error writing {}: {e}", out.display()),
    }
}
