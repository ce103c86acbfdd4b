//! End-to-end smoke of the benchmark binary at `--quick` size: all four
//! workloads run, verify, and report every metric the catalogue promises.

use std::path::PathBuf;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_pnw-benchmark");

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Plain substring counting is enough for a smoke test; the crate's JSON
/// parser is unit-tested where it lives.
fn count_occurrences(text: &str, needle: &str) -> usize {
    text.matches(needle).count()
}

#[test]
fn quick_traced_run_of_all_four_workloads_verifies_and_reports_everything() {
    let out = out_dir("all");
    let status = Command::new(EXE)
        .args(["run", "--quick", "--trace", "--seed", "29", "--out"])
        .arg(&out)
        .status()
        .expect("start the benchmark");
    assert!(status.success(), "the quick run failed");

    let result = std::fs::read_to_string(out.join("result.json")).expect("result.json");
    assert_eq!(count_occurrences(&result, "\"correct\": true"), 4);
    assert_eq!(count_occurrences(&result, "\"quick\": true"), 4);
    assert_eq!(count_occurrences(&result, "\"seed\": 29"), 4);
    for stamp in [
        "git_commit",
        "host_cores",
        "cpu_model",
        "store_dir_fs",
        "counts",
    ] {
        assert_eq!(
            count_occurrences(&result, &format!("\"{stamp}\"")),
            4,
            "{stamp}"
        );
    }
    // Every workload reports these; the rest only where they apply.
    for metric in [
        "ops_per_s",
        "put_p50_us",
        "flips_per_put",
        "lines_per_put",
        "failed_share",
        "setup_s",
        "peak_rss_mb",
    ] {
        assert_eq!(
            count_occurrences(&result, &format!("\"{metric}\": {{")),
            4,
            "{metric}"
        );
    }
    for (metric, workloads) in [
        ("put_p99_us", 3),
        ("max_word_writes", 3),
        ("get_p50_us", 1),
        ("get_p99_us", 1),
        ("recover_ms", 1),
        ("disk_bytes_per_put", 1),
    ] {
        assert_eq!(
            count_occurrences(&result, &format!("\"{metric}\": {{")),
            workloads,
            "{metric}"
        );
    }
    // A traced run carries every per-layer metric for every workload.
    for metric in [
        "ml.packed_predict_ns",
        "model.stall_share",
        "durable.put_extra_us",
        "server.overhead_us_p50",
        "durable.fsync_floor_us_p50",
        "trace.overhead_pct",
        "trace.unattributed_share",
    ] {
        assert_eq!(
            count_occurrences(&result, &format!("\"{metric}\": {{")),
            4,
            "{metric}"
        );
    }
    for workload in ["put-steady", "get-heavy", "drift-retrain", "served-durable"] {
        let trace = std::fs::read_to_string(out.join(format!("trace-{workload}.jsonl")))
            .expect("trace file");
        assert!(
            trace.lines().count() > 10,
            "{workload}: trace is nearly empty"
        );
        assert!(trace
            .lines()
            .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
    }
    assert!(
        !out.join("served-durable-store").exists(),
        "the store directory is cleaned up"
    );

    // A smoke run is not a measurement: compare must refuse it.
    let result = out.join("result.json");
    let compare = Command::new(EXE)
        .arg("compare")
        .arg(&result)
        .arg("--")
        .arg(&result)
        .output()
        .expect("start compare");
    assert_eq!(compare.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&compare.stderr).contains("--quick"));
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn one_workload_ends_its_output_with_the_drivers_line() {
    let out = out_dir("one");
    let run = Command::new(EXE)
        .args([
            "run",
            "--workload",
            "put-steady",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--quick",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("start the benchmark");
    assert!(run.status.success());
    let stdout = String::from_utf8(run.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    for key in [
        "\"failed\":0",
        "\"metrics\":{",
        "\"ops_per_s\":{\"value\":",
        "\"setup_s\":{\"value\":",
        "\"unit\":\"op/s\"",
    ] {
        assert!(last.contains(key), "{key} missing from {last}");
    }
    assert!(
        !last.contains("pool.pop_push_ns"),
        "an untraced run carries no layer metrics"
    );
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--seconds", "-1"],
        &["compare", "a.json"],
        &["frobnicate"],
    ] {
        let status = Command::new(EXE).args(args).output().expect("start").status;
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
