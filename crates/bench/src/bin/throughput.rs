//! Multi-threaded throughput sweep over any [`Store`](pnw_core::Store)
//! backend, per-op or batched.
//!
//! ```text
//! cargo run --release -p pnw-bench --bin throughput -- [--quick]
//!     [--store pnw|fptree|lsm|path] [--batch N]
//!     [--threads 1,2,4] [--shards N] [--ops N] [--value-size N]
//!     [--mix mixed|write|read] [--write-only]
//!     [--no-latency] [--out BENCH_throughput.json]
//! ```
//!
//! With no backend/batch/mix flags, the full suite runs: the classic mixed
//! per-op sweep over the sharded PNW store (with emulated device latency),
//! a GET-heavy 90/10 read-scaling sweep over the lock-free read path,
//! then a batched-vs-per-op PUT comparison at batch 64 with latency
//! emulation off — the configuration where software-path overhead, which
//! batching amortizes, is what's measured. All rows land in one
//! `BENCH_throughput.json` (the perf-trajectory file).

use pnw_bench::throughput::{
    run, write_json, Backend, OpMix, ThroughputConfig, ThroughputReport,
};
use pnw_bench::Scale;

struct Args {
    threads: Vec<usize>,
    cfg: ThroughputConfig,
    /// `--store` and/or `--batch` given: run exactly what was asked.
    explicit: bool,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let scale = Scale::from_env();
    let mut out = Args {
        threads: vec![1, 2, 4],
        cfg: ThroughputConfig {
            ops_per_thread: scale.pick(500, 2_000),
            ..Default::default()
        },
        explicit: false,
        out: "BENCH_throughput.json".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--quick" => {} // consumed by Scale::from_env
            "--store" => {
                let s = grab("--store")?;
                out.cfg.backend = Backend::parse(&s)
                    .ok_or_else(|| format!("unknown backend '{s}' (pnw|fptree|lsm|path)"))?;
                out.explicit = true;
            }
            "--batch" => {
                out.cfg.batch = grab("--batch")?.parse().map_err(|e| format!("{e}"))?;
                out.explicit = true;
            }
            "--threads" => {
                out.threads = grab("--threads")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("bad thread count: {e}")))
                    .collect::<Result<_, _>>()?;
                if out.threads.is_empty() {
                    return Err("--threads needs at least one value".into());
                }
            }
            "--shards" => {
                out.cfg.shards = grab("--shards")?.parse().map_err(|e| format!("{e}"))?
            }
            "--ops" => {
                out.cfg.ops_per_thread = grab("--ops")?.parse().map_err(|e| format!("{e}"))?
            }
            "--value-size" => {
                out.cfg.value_size = grab("--value-size")?.parse().map_err(|e| format!("{e}"))?
            }
            "--mix" => {
                let m = grab("--mix")?;
                out.cfg.mix = match m.as_str() {
                    "mixed" => OpMix::mixed(),
                    "write" => OpMix::write_only(),
                    "read" => OpMix::read_heavy(),
                    other => return Err(format!("unknown mix '{other}' (mixed|write|read)")),
                };
                out.explicit = true;
            }
            "--write-only" => {
                out.cfg.mix = OpMix::write_only();
                out.explicit = true;
            }
            "--no-latency" => out.cfg.emulate_latency = false,
            "--out" => out.out = grab("--out")?.into(),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(out)
}

fn print_header() {
    println!(
        "{:>12} {:>7} {:>7} {:>6} {:>10} {:>12} {:>12} {:>12} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "backend",
        "threads",
        "shards",
        "batch",
        "ops",
        "ops/sec",
        "p50(ns)",
        "p99(ns)",
        "pr50(ns)",
        "pr99(ns)",
        "puts",
        "gets",
        "dels"
    );
}

fn print_row(r: &ThroughputReport) {
    println!(
        "{:>12} {:>7} {:>7} {:>6} {:>10} {:>12.0} {:>12} {:>12} {:>9} {:>9} {:>8} {:>8} {:>8}",
        r.backend,
        r.threads,
        r.shards,
        r.batch,
        r.total_ops,
        r.ops_per_sec,
        r.p50_modeled_ns,
        r.p99_modeled_ns,
        r.predict_p50_ns,
        r.predict_p99_ns,
        r.puts,
        r.gets,
        r.deletes,
    );
}

fn run_sweep(base: &ThroughputConfig, threads: &[usize], reports: &mut Vec<ThroughputReport>) {
    for &t in threads {
        let r = run(&ThroughputConfig {
            threads: t,
            ..base.clone()
        });
        print_row(&r);
        if r.retrains > 0 {
            println!(
                "        model: epoch {}, {} retrains, last train {:.2} ms on {} samples ({} pre-cap)",
                r.model_epoch,
                r.retrains,
                r.last_train_ms,
                r.train_samples_post_cap,
                r.train_samples_pre_cap,
            );
        }
        reports.push(r);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "Throughput sweep — {} backend, {} ops/thread, {} shards, {}% put / {}% get / {}% del, Zipf θ={}",
        args.cfg.backend.flag(),
        args.cfg.ops_per_thread,
        args.cfg.shards,
        args.cfg.mix.put_pct,
        args.cfg.mix.get_pct,
        args.cfg.mix.del_pct,
        args.cfg.zipf_theta,
    );
    print_header();
    let mut reports = Vec::new();
    run_sweep(&args.cfg, &args.threads, &mut reports);

    if !args.explicit {
        // Read scaling: the 90/10 GET-heavy mix. Latency emulation stays
        // on (clients wait on the modeled device, as in the mixed sweep).
        println!("\nGET-heavy read scaling (90% get / 10% put):");
        print_header();
        let read_base = ThroughputConfig {
            mix: OpMix::read_heavy(),
            ..args.cfg.clone()
        };
        run_sweep(&read_base, &args.threads, &mut reports);

        // The batched-vs-per-op comparison: write-only, latency emulation
        // off (the sleep would otherwise mask the amortized software
        // path). The two modes are interleaved per thread count and each
        // keeps its best of three runs, so a slow host window (shared-CPU
        // noisy neighbors) hits both modes alike instead of whichever
        // section it lands on.
        println!("\nBatched vs per-op PUT path (write-only, no latency emulation, best of 3):");
        print_header();
        let base = ThroughputConfig {
            mix: OpMix::write_only(),
            emulate_latency: false,
            ..args.cfg.clone()
        };
        let mut per_op_rows = Vec::new();
        let mut batched_rows = Vec::new();
        for &t in &args.threads {
            let mut best: [Option<ThroughputReport>; 2] = [None, None];
            for _ in 0..3 {
                for (slot, batch) in [(0usize, 0usize), (1, 64)] {
                    let r = run(&ThroughputConfig {
                        threads: t,
                        batch,
                        ..base.clone()
                    });
                    if best[slot]
                        .as_ref()
                        .is_none_or(|b| r.ops_per_sec > b.ops_per_sec)
                    {
                        best[slot] = Some(r);
                    }
                }
            }
            let [per_op, batched] = best.map(|r| r.expect("three runs per mode"));
            print_row(&per_op);
            print_row(&batched);
            per_op_rows.push(per_op);
            batched_rows.push(batched);
        }
        reports.extend(per_op_rows);
        reports.extend(batched_rows);
    }

    match write_json(&args.out, &reports) {
        Ok(()) => println!("\nwrote {}", args.out.display()),
        Err(e) => eprintln!("error writing {}: {e}", args.out.display()),
    }
}
