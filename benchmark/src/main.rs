//! `pnw-benchmark`: the repository's benchmark. See `README.md`.
//!
//! ```text
//! pnw-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--quick] [--out DIR]
//! pnw-benchmark compare A.json… -- B.json…
//! ```
//!
//! `run --workload W` runs one workload in this process and ends its standard
//! output with one JSON line for the acceptance driver. `run` without
//! `--workload` runs all four, each in a child process of its own so that
//! `setup_s` and `peak_rss_mb` are per workload, and writes
//! `<out>/result.json`.

mod compare;
mod gen;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod sysinfo;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use report::RunRecord;
use workloads::drift_retrain::DriftRetrain;
use workloads::get_heavy::GetHeavy;
use workloads::put_steady::PutSteady;
use workloads::served_durable::ServedDurable;
use workloads::{Params, Workload};

/// Set-up runs this many times before the measured pass; `setup_s` is the
/// median, so one slow page-fault storm does not set it.
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage:
  pnw-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--quick] [--out DIR]
  pnw-benchmark compare A.json... -- B.json...
workloads: put-steady get-heavy drift-retrain served-durable";

struct RunArgs {
    workload: Option<String>,
    trace: bool,
    params: Params,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (11u64, None, false, false);
    let mut out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                spec::workload_index(&w).ok_or(format!("unknown workload '{w}'"))?;
                workload = Some(w);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--out" => out = PathBuf::from(value("--out")?),
            "--quick" => quick = true,
            "--trace" => {
                // Bare `--trace`, or `--trace 0|1` as the acceptance driver
                // passes it.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let threads = sysinfo::host_cores().min(4);
    let seconds = seconds.unwrap_or(if quick { 0.5 } else { 10.0 });
    Ok(RunArgs {
        workload,
        trace,
        params: Params {
            seed,
            seconds,
            quick,
            out,
            threads,
        },
    })
}

/// One workload, in this process: set-up (several times), the untraced pass,
/// and for a traced run a second, traced pass followed by the layer replays.
fn run_one<W: Workload>(p: &Params, trace: bool) -> RunRecord {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Let go of the last store before building the next.
        drop(state.take());
        let t = Instant::now();
        state = Some(W::setup(p, false));
        setups.push(t.elapsed().as_secs_f64());
    }
    let untraced = W::pass(state.take().expect("set-up ran"), p, false);
    // Read before the traced pass and the replays can raise it.
    let peak_rss_mb = sysinfo::peak_rss_mb();

    let mut rec = RunRecord {
        workload: W::NAME,
        traced: trace,
        attempted: untraced.attempted,
        failed: untraced.failed,
        e2e: untraced.e2e.clone(),
        layer: Vec::new(),
        counts: untraced
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
    };
    rec.e2e.push((
        "failed_share",
        untraced.failed as f64 / untraced.attempted.max(1) as f64,
    ));
    rec.e2e.push(("setup_s", stats::median(&setups)));
    rec.e2e.push(("peak_rss_mb", peak_rss_mb));
    for (i, s) in setups.iter().enumerate() {
        rec.counts.push((format!("setup_s_{i}"), *s));
    }

    if trace {
        let mut traced = W::pass(W::setup(p, true), p, true);
        let path = p.out.join(format!("trace-{}.jsonl", W::NAME));
        trace::write_jsonl(&path, &mut traced.spans).expect("write the trace");
        rec.counts
            .push(("trace_spans".into(), traced.spans.len() as f64));
        rec.attempted += traced.attempted;
        rec.failed += traced.failed;

        let inputs = W::replay_inputs(p);
        rec.layer = traced.layer.clone();
        rec.layer.extend(layers::in_process(&inputs, p));
        rec.layer.extend(W::extra_replays(&inputs, p));
        let rate = |pass: &workloads::Pass| workloads::value_of(&pass.e2e, "ops_per_s");
        rec.layer.push((
            "trace.overhead_pct",
            (rate(&untraced) - rate(&traced)) / rate(&untraced).max(f64::EPSILON) * 100.0,
        ));
        let put_p50_us = workloads::value_of(&untraced.e2e, "put_p50_us");
        rec.layer.push((
            "trace.unattributed_share",
            report::unattributed_share(put_p50_us, &rec.layer),
        ));
    }
    rec
}

fn run_named(workload: &str, p: &Params, trace: bool) -> RunRecord {
    match workload {
        PutSteady::NAME => run_one::<PutSteady>(p, trace),
        GetHeavy::NAME => run_one::<GetHeavy>(p, trace),
        DriftRetrain::NAME => run_one::<DriftRetrain>(p, trace),
        ServedDurable::NAME => run_one::<ServedDurable>(p, trace),
        other => unreachable!("'{other}' passed the argument check"),
    }
}

fn run_file(out: &Path, workload: &str) -> PathBuf {
    out.join(format!("run-{workload}.json"))
}

/// `run --workload W`: measure, print, write the run's file, and end with the
/// acceptance driver's line. Fails the process if any output was wrong.
fn run_child(workload: &str, p: &Params, trace: bool) -> ExitCode {
    std::fs::create_dir_all(&p.out).expect("create the output directory");
    let rec = run_named(workload, p, trace);
    rec.print();
    let doc = Json::obj([("runs", Json::Arr(vec![rec.to_json(p)]))]);
    std::fs::write(run_file(&p.out, workload), doc.pretty()).expect("write the run file");
    println!("{}", rec.driver_line());
    if rec.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{workload}: {} of {} operations failed verification",
            rec.failed, rec.attempted
        );
        ExitCode::FAILURE
    }
}

/// `run` without `--workload`: all four, a child process each.
fn run_all(args: &RunArgs) -> ExitCode {
    let p = &args.params;
    std::fs::create_dir_all(&p.out).expect("create the output directory");
    let exe = std::env::current_exe().expect("own path");
    let (mut runs, mut all_ok) = (Vec::new(), true);
    for workload in spec::WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", workload])
            .args(["--seed", &p.seed.to_string()])
            .args(["--seconds", &p.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&p.out);
        if p.quick {
            cmd.arg("--quick");
        }
        let status = cmd.status().expect("start a workload process");
        all_ok &= status.success();
        match std::fs::read_to_string(run_file(&p.out, workload)).map(|t| Json::parse(&t)) {
            Ok(Ok(doc)) => runs.extend(
                doc.get("runs")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .to_vec(),
            ),
            _ => all_ok = false,
        }
    }
    report::print_summary(&runs);
    let result = p.out.join("result.json");
    std::fs::write(&result, Json::obj([("runs", Json::Arr(runs))]).pretty())
        .expect("write result.json");
    println!(
        "\nwrote {}{}",
        result.display(),
        if p.quick {
            " (a --quick smoke run)"
        } else {
            ""
        }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload failed");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run) => match &run.workload {
                Some(w) => run_child(w, &run.params, run.trace),
                None => run_all(&run),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") => {
            let paths: Vec<&String> = args[1..].iter().collect();
            let Some(split) = paths.iter().position(|a| a.as_str() == "--") else {
                eprintln!("compare needs '--' between the two sides\n{USAGE}");
                return ExitCode::from(2);
            };
            let side = |s: &[&String]| s.iter().map(PathBuf::from).collect::<Vec<_>>();
            match compare::run(&side(&paths[..split]), &side(&paths[split + 1..])) {
                Ok(code) => ExitCode::from(code as u8),
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(3)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// A scratch directory for a unit test, under the crate's ignored `out/`.
#[cfg(test)]
pub fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a test directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_acceptance_drivers_argument_form_parses() {
        let run = parse_run(&args(
            "--workload get-heavy --seed 29 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(run.workload.as_deref(), Some("get-heavy"));
        assert_eq!(
            (run.params.seed, run.params.seconds, run.trace),
            (29, 10.0, false)
        );
        assert!(
            parse_run(&args("--trace 1 --workload put-steady"))
                .unwrap()
                .trace
        );
        assert!(parse_run(&args("--trace --quick")).unwrap().trace);
        assert!(!parse_run(&args("--quick")).unwrap().trace);
        assert_eq!(parse_run(&args("--quick")).unwrap().params.seconds, 0.5);
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--seconds 0")).is_err());
        assert!(parse_run(&args("--seed")).is_err());
    }
}
