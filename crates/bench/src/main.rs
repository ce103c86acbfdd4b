//! `pnw-bench` — the paper-reproduction harness, one binary:
//! `cargo run --release -p pnw-bench -- <subcommand> [--quick] [flags]`.
//! See `USAGE` for the subcommands. The arguments are parsed once, here;
//! the library modules take the [`Scale`] and their own parameters.

use std::path::PathBuf;
use std::process::ExitCode;

use pnw_bench::{ablations, figures, predictbench, scrub, trainbench, Scale};
use pnw_workloads::DatasetKind;

const USAGE: &str = "\
usage: pnw-bench <subcommand> [--quick] [flags]

  fig N [dataset]  paper figure N (3 4 6 7 8 9 10 11 12 13); `fig 6` takes one
                   panel: amazon road sherbrooke traffic normal uniform
  table N          paper table 1 or 2
  repro-all        every table and figure in sequence
  ablations        design-choice ablations
  predict          prediction-kernel microbench    [--iters N] [--out PATH]
  train            retraining benchmark            [--out PATH]
  scrub            integrity / scrub overhead      [--threads N] [--ops N] [--out PATH]

--quick shrinks a run to seconds. Without --out, a full predict / train /
scrub run writes BENCH_<subcommand>.json in the working directory; a
--quick run prints the report instead.";

/// The paper's numbered figures (Figure 5 is a diagram).
const FIGS: [u32; 10] = [3, 4, 6, 7, 8, 9, 10, 11, 12, 13];

#[derive(Debug, PartialEq)]
enum Cmd {
    Fig(u32, Option<DatasetKind>),
    Table(u32),
    ReproAll,
    Ablations,
    Predict { iters: Option<u64> },
    Train,
    Scrub { threads: usize, ops: Option<usize> },
}

#[derive(Debug)]
struct Args {
    cmd: Cmd,
    scale: Scale,
    out: Option<PathBuf>,
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} needs a number, got '{v}'"))
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut positional: Vec<&str> = Vec::new();
    let mut flags: Vec<(&str, &str)> = Vec::new();
    let mut it = argv.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--quick" => flags.push((a, "")),
            "--out" | "--iters" | "--threads" | "--ops" => {
                flags.push((a, it.next().ok_or_else(|| format!("{a} needs a value"))?))
            }
            _ if a.starts_with('-') => return Err(format!("unknown flag '{a}'")),
            _ => positional.push(a),
        }
    }

    let mut cmd = match positional.as_slice() {
        ["fig", n] | ["fig", n @ "6", _] => {
            let n = n.parse().ok().filter(|n| FIGS.contains(n));
            let n = n.ok_or_else(|| format!("no figure '{}'", positional[1]))?;
            Cmd::Fig(n, positional.get(2).map(|d| d.parse()).transpose()?)
        }
        ["table", n @ ("1" | "2")] => Cmd::Table(if *n == "1" { 1 } else { 2 }),
        ["table", n] => return Err(format!("no table '{n}'")),
        ["repro-all"] => Cmd::ReproAll,
        ["ablations"] => Cmd::Ablations,
        ["predict"] => Cmd::Predict { iters: None },
        ["train"] => Cmd::Train,
        ["scrub"] => Cmd::Scrub {
            threads: 4,
            ops: None,
        },
        [] => return Err("missing subcommand".into()),
        other => {
            return Err(format!(
                "unknown subcommand or arguments '{}'",
                other.join(" ")
            ))
        }
    };

    let mut scale = Scale::Full;
    let mut out = None;
    for (flag, v) in flags {
        match (flag, &mut cmd) {
            ("--quick", _) => scale = Scale::Quick,
            ("--out", Cmd::Predict { .. } | Cmd::Train | Cmd::Scrub { .. }) => {
                out = Some(PathBuf::from(v))
            }
            ("--iters", Cmd::Predict { iters }) => *iters = Some(number(flag, v)?),
            ("--threads", Cmd::Scrub { threads, .. }) => *threads = number(flag, v)?,
            ("--ops", Cmd::Scrub { ops, .. }) => *ops = Some(number(flag, v)?),
            _ => return Err(format!("{flag} does not apply to '{}'", positional[0])),
        }
    }
    Ok(Args { cmd, scale, out })
}

fn table(n: u32) {
    if n == 1 {
        println!(
            "Table I — memory technologies\n\n{}",
            figures::table1().render()
        );
    } else {
        println!(
            "Table II — worked clustering example\n\n{}",
            figures::table2().render()
        );
    }
}

fn fig(n: u32, dataset: Option<DatasetKind>, scale: Scale) {
    match n {
        3 => println!(
            "Figure 3 — PCA cumulative explained variance (MNIST-like)\n\n{}",
            figures::fig3(scale).render()
        ),
        4 => {
            let (t, elbow) = figures::fig4(scale);
            println!(
                "Figure 4 — Sum of Squared Error vs K (MNIST-like)\n\n{}",
                t.render()
            );
            println!("Detected elbow: K = {elbow} (paper: K = 5 on MNIST)");
        }
        6 => {
            let panels = dataset.map_or_else(|| figures::fig6_datasets().to_vec(), |d| vec![d]);
            for d in panels {
                println!(
                    "Figure 6 — {}\n\n{}",
                    d.name(),
                    figures::fig6(d, scale).render()
                );
            }
        }
        7 => println!(
            "Figure 7 — normalized end-to-end write latency (conv = 1.0)\n\n{}",
            figures::fig7(scale).render()
        ),
        8 => println!(
            "Figure 8 — write latency vs K (PubMed-like, insert:delete 1:1)\n\n{}",
            figures::fig8(scale).render()
        ),
        9 => println!(
            "Figure 9 — avg written cache lines per request\n\n{}",
            figures::fig9(scale).render()
        ),
        10 => {
            let (t, _) = figures::fig10(scale);
            println!(
                "Figure 10 — bit updates over time across the workload shift\n\n{}",
                t.render()
            );
            println!(
                "(phase 1: MNIST; 2: Fashion:MNIST 2:1; 3: Fashion; 4: Fashion after retrain)"
            );
        }
        11 => println!(
            "Figure 11 — model training time (video datasets)\n\n{}",
            figures::fig11(scale).render()
        ),
        12 | 13 => {
            for k in [5usize, 30] {
                let (words, bits) = figures::wear_tables(k, &figures::fig12_13(k, scale));
                if n == 12 {
                    println!(
                        "Figure 12 — max update addresses CDF, k={k}\n\n{}",
                        words.render()
                    );
                } else {
                    println!(
                        "Figure 13 — wear-leveling CDF (bit level), k={k}\n\n{}",
                        bits.render()
                    );
                }
            }
        }
        _ => unreachable!("parse admits only FIGS"),
    }
}

fn run(Args { cmd, scale, out }: Args) -> Result<(), String> {
    let report = match cmd {
        Cmd::Fig(n, dataset) => {
            fig(n, dataset, scale);
            None
        }
        Cmd::Table(n) => {
            table(n);
            None
        }
        Cmd::ReproAll => {
            println!("== PNW reproduction: all tables and figures ({scale:?}) ==\n");
            table(1);
            table(2);
            for n in FIGS {
                fig(n, None, scale);
            }
            None
        }
        Cmd::Ablations => {
            ablations::run(scale);
            None
        }
        Cmd::Predict { iters } => Some(("predict", predictbench::run(scale, iters))),
        Cmd::Train => Some(("train", trainbench::run(scale))),
        Cmd::Scrub { threads, ops } => Some(("scrub", scrub::run(scale, threads, ops))),
    };
    let Some((name, report)) = report else {
        return Ok(());
    };
    // The committed artifacts are full runs: only a full run defaults to
    // the artifact's path, so a smoke never overwrites one.
    let path =
        out.or_else(|| (scale == Scale::Full).then(|| PathBuf::from(format!("BENCH_{name}.json"))));
    report
        .write_json(path.as_deref())
        .map_err(|e| format!("cannot write the {name} report: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pnw-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    fn ok(line: &str) -> (Cmd, Scale, Option<PathBuf>) {
        let a = parse_str(line).unwrap_or_else(|e| panic!("'{line}': {e}"));
        (a.cmd, a.scale, a.out)
    }

    #[test]
    fn arg_parsing() {
        use Scale::{Full, Quick};
        // Every subcommand, with its own flags.
        for n in FIGS {
            assert_eq!(ok(&format!("fig {n}")), (Cmd::Fig(n, None), Full, None));
        }
        assert_eq!(
            ok("fig 6 road --quick"),
            (Cmd::Fig(6, Some(DatasetKind::Road)), Quick, None)
        );
        assert_eq!(ok("--quick fig 12"), (Cmd::Fig(12, None), Quick, None));
        assert_eq!(ok("table 2"), (Cmd::Table(2), Full, None));
        assert_eq!(ok("repro-all --quick"), (Cmd::ReproAll, Quick, None));
        assert_eq!(ok("ablations"), (Cmd::Ablations, Full, None));
        assert_eq!(
            ok("predict --iters 50 --out /tmp/p.json"),
            (
                Cmd::Predict { iters: Some(50) },
                Full,
                Some("/tmp/p.json".into())
            )
        );
        assert_eq!(ok("train --quick"), (Cmd::Train, Quick, None));
        assert_eq!(
            ok("scrub --threads 2 --ops 100"),
            (
                Cmd::Scrub {
                    threads: 2,
                    ops: Some(100)
                },
                Full,
                None
            )
        );

        // Typed errors, never a silent fallback.
        let err = |line: &str| parse_str(line).expect_err(line);
        assert_eq!(err(""), "missing subcommand");
        assert_eq!(err("predict --out"), "--out needs a value");
        assert_eq!(
            err("predict --iters many"),
            "--iters needs a number, got 'many'"
        );
        assert_eq!(err("train --bogus"), "unknown flag '--bogus'");
        assert_eq!(err("train --iters 5"), "--iters does not apply to 'train'");
        assert_eq!(err("fig 3 --out x.json"), "--out does not apply to 'fig'");
        assert_eq!(err("fig 6 mars"), "unknown dataset 'mars'");
        assert_eq!(err("fig 5"), "no figure '5'");
        assert_eq!(err("fig"), "unknown subcommand or arguments 'fig'");
        assert_eq!(
            err("fig 7 road"),
            "unknown subcommand or arguments 'fig 7 road'"
        );
        assert_eq!(err("table 3"), "no table '3'");
        assert_eq!(err("train --scenario drift"), "unknown flag '--scenario'");
        for gone in ["throughput", "opcost", "server-load", "scenario"] {
            assert_eq!(
                err(gone),
                format!("unknown subcommand or arguments '{gone}'")
            );
        }
    }
}
