//! Bit-domain-vs-float prediction microbenchmark.
//!
//! ```text
//! cargo run --release -p pnw-bench --bin predict -- [--quick]
//!     [--iters N] [--out BENCH_predict.json]
//! ```
//!
//! Prints the ns/op tables (byte-LUT kernel vs float scan; folded per-bit
//! kernel vs project + scan on 784 B images) and writes `BENCH_predict.json`
//! (the prediction perf-trajectory file) in the working directory.
//! `--quick` shrinks the iteration and training-sample counts for CI smoke
//! runs.

use pnw_bench::predictbench::{default_cases, measure_pca_case, run_sweep, write_json};
use pnw_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let mut iters: u64 = scale.pick(20_000u64, 200_000u64);
    let mut out = std::path::PathBuf::from("BENCH_predict.json");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {} // consumed by Scale::from_env
            "--iters" => {
                iters = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("error: --iters needs a number");
                        std::process::exit(2);
                    })
            }
            "--out" => {
                out = it
                    .next()
                    .map(Into::into)
                    .unwrap_or_else(|| {
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

    println!("Prediction kernel — packed LUT (SIMD and scalar) vs float featurize+scan ({iters} iters/case)");
    println!(
        "{:>10} {:>6} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "value", "K", "packed(ns)", "scalar(ns)", "float(ns)", "vs float", "vs scalar"
    );
    let results = run_sweep(&default_cases(), iters, 0xACE5);
    for r in &results {
        println!(
            "{:>9}B {:>6} {:>12.1} {:>12.1} {:>12.1} {:>8.1}x {:>8.1}x",
            r.value_size, r.k, r.packed_ns, r.packed_scalar_ns, r.float_ns, r.speedup, r.simd_speedup
        );
    }

    let pca_iters = iters / 4;
    println!("\nPCA-configured model — folded per-bit kernel vs project + PCA-space scan ({pca_iters} iters)");
    println!(
        "{:>10} {:>6} {:>6} {:>9} {:>12} {:>14} {:>9}",
        "value", "K", "comps", "set bits", "folded(ns)", "proj+scan(ns)", "speedup"
    );
    let pca = [measure_pca_case(
        scale.pick(512, 4096),
        10,
        pca_iters,
        0xACE5,
    )];
    for r in &pca {
        println!(
            "{:>9}B {:>6} {:>6} {:>9.0} {:>12.1} {:>14.1} {:>8.1}x",
            r.value_size, r.k, r.components, r.set_bits, r.folded_ns, r.project_scan_ns, r.speedup
        );
    }
    match write_json(&out, &results, &pca, scale == Scale::Quick) {
        Ok(()) => println!("\nwrote {}", out.display()),
        Err(e) => eprintln!("error writing {}: {e}", out.display()),
    }
}
