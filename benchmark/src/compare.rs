//! `compare A… -- B…`: applies each end-to-end metric's bound to two sets of
//! result files (A is the baseline, B the candidate) and prints one row per
//! (metric, workload).

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound, so a move of the size
    /// of the bound could not be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate values `b` against baseline values `a`.
///
/// * An exact count must read the same in every run of both sides.
/// * If every candidate run reads better than every baseline run, the verdict
///   is `better` however wide the spread.
/// * Otherwise a spread (interquartile distance over the median, the larger
///   of the two sides) beyond the bound is `unresolved`.
/// * Otherwise the medians decide: worse by more than the bound is `worse`,
///   better by more than the bound is `better`, anything between is `same`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64, exact: bool) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    if exact {
        let first = a[0];
        return if a.iter().chain(b).all(|&v| v == first) {
            Verdict::Same
        } else {
            Verdict::Worse
        };
    }
    // Fold the direction in: after this, larger is always worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worst_b = b.iter().map(|v| v * sign).fold(f64::MIN, f64::max);
    let best_a = a.iter().map(|v| v * sign).fold(f64::MAX, f64::min);
    if worst_b < best_a {
        return Verdict::Better;
    }
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let (med_a, med_b) = (quartiles(a).1, quartiles(b).1);
    let worse_by = if med_a == med_b {
        0.0
    } else if med_a == 0.0 {
        // No base for a ratio: any move off zero in the bad direction counts.
        (med_b * sign).signum()
    } else {
        (med_b - med_a) * sign / med_a.abs()
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One side's values: `(workload, metric) -> one value per run`.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &[PathBuf]) -> Result<Values, String> {
    let mut values = Values::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: no \"runs\" array", path.display()))?;
        for run in runs {
            if run.get("quick").and_then(Json::as_bool) != Some(false) {
                return Err(format!(
                    "{}: a --quick run is a smoke test, not a measurement; compare refuses it",
                    path.display()
                ));
            }
            // End-to-end numbers always come from the untraced pass, which a
            // traced run makes too, so both kinds of run contribute.
            let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
            for (name, m) in run.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]) {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(values)
}

/// Prints the table and returns the process exit code: 1 if any row is
/// `worse`, else 2 if any is `unresolved`, else 0.
pub fn run(a_paths: &[PathBuf], b_paths: &[PathBuf]) -> Result<i32, String> {
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    println!(
        "{:<15} {:<19} {:<6} {:>13} {:>13} {:>13} {:>13} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "change",
        "bound"
    );
    let (mut worse, mut unresolved, mut rows) = (0, 0, 0);
    for (w, workload) in spec::WORKLOADS.iter().enumerate() {
        for m in spec::END_TO_END.iter().filter(|m| m.applies_to(w)) {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let v = verdict(va, vb, m.better, m.bound_on(w), m.exact_on(w));
            let ((a1, am, a3), (b1, bm, b3)) = (quartiles(va), quartiles(vb));
            let change = if am == 0.0 {
                0.0
            } else {
                (bm - am) / am.abs() * 100.0
            };
            println!(
                "{:<15} {:<19} {:<6} {:>13.6} {:>13} {:>13.6} {:>13} {:>+6.1}% {:>6}  {}",
                workload,
                m.name,
                m.unit,
                am,
                format!("{:.4}..{:.4}", a1, a3),
                bm,
                format!("{:.4}..{:.4}", b1, b3),
                change,
                if m.exact_on(w) {
                    "exact".to_string()
                } else {
                    format!("{}%", m.bound_on(w) * 100.0)
                },
                v.as_str()
            );
            rows += 1;
            worse += i32::from(v == Verdict::Worse);
            unresolved += i32::from(v == Verdict::Unresolved);
        }
    }
    if rows == 0 {
        return Err("the two sides share no (workload, metric) pair".into());
    }
    println!("{rows} rows: {worse} worse, {unresolved} unresolved");
    Ok(if worse > 0 {
        1
    } else if unresolved > 0 {
        2
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::Verdict::{Better, Same, Unresolved, Worse};
    use super::*;
    use crate::spec::Better::{Higher, Lower};

    #[test]
    fn medians_within_the_bound_are_the_same() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 103.0], Lower, 0.10, false),
            Same
        );
        assert_eq!(verdict(&a, &[100.0, 96.0, 95.0], Higher, 0.10, false), Same);
    }

    #[test]
    fn direction_decides_which_move_is_worse() {
        let a = [100.0, 101.0, 99.0];
        let up = [120.0, 121.0, 119.0];
        assert_eq!(verdict(&a, &up, Lower, 0.10, false), Worse);
        assert_eq!(verdict(&a, &up, Higher, 0.10, false), Better);
        let down = [80.0, 81.0, 79.0];
        assert_eq!(verdict(&a, &down, Lower, 0.10, false), Better);
        assert_eq!(verdict(&a, &down, Higher, 0.10, false), Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 130.0, 70.0, 115.0, 85.0];
        assert_eq!(
            verdict(
                &noisy,
                &[101.0, 131.0, 71.0, 116.0, 86.0],
                Lower,
                0.10,
                false
            ),
            Unresolved
        );
        // Every candidate run beats every baseline run: better, spread or not.
        assert_eq!(
            verdict(&noisy, &[60.0, 40.0, 65.0], Lower, 0.10, false),
            Better
        );
        assert_eq!(
            verdict(&noisy, &[140.0, 200.0], Higher, 0.10, false),
            Better
        );
    }

    #[test]
    fn exact_counts_must_be_identical_in_every_run() {
        let a = [256_686_886.0; 3];
        assert_eq!(verdict(&a, &a, Lower, 0.0, true), Same);
        assert_eq!(
            verdict(&a, &[256_686_886.0, 256_686_887.0], Lower, 0.0, true),
            Worse
        );
        // Even a lower count is a change in what the program does.
        assert_eq!(verdict(&a, &[256_686_885.0; 3], Lower, 0.0, true), Worse);
    }

    #[test]
    fn a_zero_baseline_has_no_ratio_but_still_a_direction() {
        assert_eq!(verdict(&[0.0; 3], &[0.0; 3], Lower, 0.1, false), Same);
        assert_eq!(verdict(&[0.0; 3], &[1.0; 3], Lower, 0.1, false), Worse);
        assert_eq!(verdict(&[0.0; 3], &[1.0; 3], Higher, 0.1, false), Better);
        // failed_share is held to zero as an exact count.
        assert_eq!(
            verdict(&[0.0; 3], &[0.0, 0.01, 0.01], Lower, 0.0, true),
            Worse
        );
        assert_eq!(verdict(&[], &[1.0], Lower, 0.1, false), Unresolved);
    }

    #[test]
    fn quick_runs_are_refused_and_full_runs_are_read() {
        let dir = crate::test_dir("compare");
        let file = |name: &str, quick: bool, ops: f64| {
            let run = Json::obj([
                ("workload", Json::str("put-steady")),
                ("quick", Json::Bool(quick)),
                (
                    "end_to_end",
                    Json::obj([("ops_per_s", Json::obj([("value", Json::Num(ops))]))]),
                ),
            ]);
            let path = dir.join(name);
            std::fs::write(&path, Json::obj([("runs", Json::Arr(vec![run]))]).pretty()).unwrap();
            path
        };
        let (full, slow, quick) = (
            file("a", false, 1e6),
            file("b", false, 5e5),
            file("q", true, 1e6),
        );
        let (full, slow, quick) = ([full], [slow], [quick]);
        assert!(run(&full, &quick).unwrap_err().contains("--quick"));
        assert_eq!(run(&full, &full), Ok(0));
        assert_eq!(run(&full, &slow), Ok(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
