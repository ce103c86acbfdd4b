//! What one run leaves behind: the stamped result record, the line the
//! acceptance driver reads, and the tables people read.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::sysinfo;
use crate::workloads::{value_of, Metrics, Params};

/// Everything one run of one workload measured.
pub struct RunRecord {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics the workload reports, from the untraced pass.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layer: Metrics,
    /// Op counts, sample counts per percentile, and every set-up time.
    pub counts: Vec<(String, f64)>,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of an end-to-end or per-layer metric (names are unique
    /// across the two); 0 when this run did not take it.
    fn value(&self, name: &str) -> f64 {
        value_of(&self.e2e, name) + value_of(&self.layer, name)
    }

    /// The result-file record: every number with its unit, direction and
    /// bound, stamped with what it takes to trace it to a host and a commit.
    pub fn to_json(&self, p: &Params) -> Json {
        let w = spec::workload_index(self.workload).expect("a catalogued workload");
        let e2e = self.e2e.iter().map(|(name, value)| {
            let m = spec::end_to_end(name).expect("a catalogued metric");
            let entry = Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound_on(w))),
                ("exact", Json::Bool(m.exact_on(w))),
            ]);
            (name.to_string(), entry)
        });
        let layer_metrics = if self.traced {
            &spec::PER_LAYER[..]
        } else {
            &[]
        };
        let layer = layer_metrics.iter().map(|(name, unit, better)| {
            let entry = Json::obj([
                ("value", Json::Num(self.value(name))),
                ("unit", Json::str(*unit)),
                ("better", Json::str(better.as_str())),
            ]);
            (name.to_string(), entry)
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(p.seed as f64)),
            ("seconds", Json::Num(p.seconds)),
            ("quick", Json::Bool(p.quick)),
            ("traced", Json::Bool(self.traced)),
            ("threads", Json::Num(p.threads as f64)),
            ("git_commit", Json::str(sysinfo::git_commit())),
            ("host_cores", Json::Num(sysinfo::host_cores() as f64)),
            ("cpu_model", Json::str(sysinfo::cpu_model())),
            ("store_dir_fs", Json::str(sysinfo::fs_type(&p.out))),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "counts",
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("end_to_end", Json::Obj(e2e.collect())),
            ("per_layer", Json::Obj(layer.collect())),
        ])
    }

    /// The last line of standard output, in the acceptance driver's shape:
    /// an untraced run carries every driver-contract end-to-end metric, a
    /// traced run every per-layer metric.
    pub fn driver_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(String, Json)> = if self.traced {
            spec::driver_per_layer()
                .map(|(name, unit, _)| (name.to_string(), metric(self.value(name), unit)))
                .collect()
        } else {
            spec::END_TO_END
                .iter()
                .filter(|m| m.in_driver_contract())
                .map(|m| (m.name.to_string(), metric(self.value(m.name), m.unit)))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .encode()
    }

    /// Every metric by name with its unit, then (traced) the ledger.
    pub fn print(&self) {
        let arrow = |b: Better| {
            if b == Better::Higher {
                "higher is better"
            } else {
                "lower is better"
            }
        };
        let w = spec::workload_index(self.workload).expect("a catalogued workload");
        println!("== {} ==\n  {}", self.workload, spec::WORKLOAD_WHY[w]);
        for (name, value) in &self.e2e {
            let m = spec::end_to_end(name).expect("a catalogued metric");
            println!(
                "  {:<36} {:>16.6} {:<6} ({})",
                name,
                value,
                m.unit,
                arrow(m.better)
            );
        }
        for (name, value) in &self.counts {
            println!("  # {:<34} {:>16.6}", name, value);
        }
        if self.traced {
            for (name, unit, better) in spec::PER_LAYER {
                println!(
                    "  {:<36} {:>16.6} {:<6} ({})",
                    name,
                    self.value(name),
                    unit,
                    arrow(better)
                );
            }
            self.print_ledger();
        }
    }

    /// The outside-in ladder for one PUT: each rung's self time, in
    /// nanoseconds and as a share of the workload's PUT median, then what the
    /// rungs leave unexplained.
    fn print_ledger(&self) {
        let put_ns = self.value("put_p50_us") * 1e3;
        let l = |name: &str| self.value(name);
        let rungs: Vec<(&str, f64)> = [
            ("server.overhead_us_p50", l("server.overhead_us_p50") * 1e3),
            ("durable.put_extra_us", l("durable.put_extra_us") * 1e3),
            (
                "  of which durable.fsync_floor_us_p50",
                l("durable.fsync_floor_us_p50") * 1e3,
            ),
            ("sharded.frontend_put_ns", l("sharded.frontend_put_ns")),
            ("shard.put_self_ns", l("shard.put_self_ns")),
            ("ml.packed_predict_ns", l("ml.packed_predict_ns")),
            ("ml.pca_project_ns", l("ml.pca_project_ns")),
            ("pool.pop_push_ns", l("pool.pop_push_ns")),
            ("nvm.write_diff_ns_64", l("nvm.write_diff_ns_64")),
            ("nvm.write_diff_ns_784", l("nvm.write_diff_ns_784")),
            ("nvm.crc32c_ns_64", l("nvm.crc32c_ns_64")),
            ("nvm.crc32c_ns_784", l("nvm.crc32c_ns_784")),
            ("index.insert_ns", l("index.insert_ns")),
        ]
        .into_iter()
        .filter(|(_, ns)| *ns != 0.0)
        .collect();
        println!(
            "  -- ledger: one PUT, outside in (put_p50_us = {:.3} us) --",
            put_ns / 1e3
        );
        for (name, ns) in rungs {
            println!(
                "  {:<40} {:>12.1} ns {:>7.1}%",
                name,
                ns,
                ns / put_ns.max(1.0) * 100.0
            );
        }
        println!(
            "  {:<40} {:>12} {:>9.1}%",
            "trace.unattributed_share",
            "",
            l("trace.unattributed_share") * 100.0
        );
        println!(
            "  {:<40} {:>12} {:>9.1}%  (of wall time, blocked in installs)",
            "model.stall_share",
            "",
            l("model.stall_share") * 100.0
        );
    }
}

/// The share of the workload's PUT median the ladder's rungs do not add up
/// to: the in-process PUT as replayed (`sharded.put_ns`, which is its rungs
/// by construction), plus, when served, the server's and the durable layer's
/// shares.
pub fn unattributed_share(put_p50_us: f64, layer: &[(&'static str, f64)]) -> f64 {
    let l = |name: &str| value_of(layer, name);
    let explained_ns =
        l("sharded.put_ns") + (l("server.overhead_us_p50") + l("durable.put_extra_us")) * 1e3;
    1.0 - explained_ns / (put_p50_us * 1e3).max(f64::EPSILON)
}

/// The thirteen end-to-end metrics for every workload that ran, side by side.
pub fn print_summary(runs: &[Json]) {
    println!(
        "\n{:<20} {:<6} {:>16} {:>16} {:>16} {:>16}",
        "metric", "unit", "put-steady", "get-heavy", "drift-retrain", "served-durable"
    );
    for m in &spec::END_TO_END {
        let cells: Vec<String> = spec::WORKLOADS
            .iter()
            .map(|w| {
                runs.iter()
                    .find(|r| r.get("workload").and_then(Json::as_str) == Some(w))
                    .and_then(|r| r.get("end_to_end")?.get(m.name)?.get("value")?.as_f64())
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.4}"))
            })
            .collect();
        println!(
            "{:<20} {:<6} {:>16} {:>16} {:>16} {:>16}",
            m.name, m.unit, cells[0], cells[1], cells[2], cells[3]
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_share_is_what_the_rungs_leave_over() {
        let layer = [("sharded.put_ns", 500.0)];
        assert!((unattributed_share(0.625, &layer) - 0.2).abs() < 1e-12);
        let served = [
            ("sharded.put_ns", 1_000.0),
            ("server.overhead_us_p50", 40.0),
            ("durable.put_extra_us", 159.0),
        ];
        assert!((unattributed_share(400.0, &served) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_driver_line_has_exactly_the_contract_keys() {
        let mut rec = RunRecord {
            workload: "put-steady",
            traced: false,
            attempted: 10,
            failed: 0,
            e2e: vec![
                ("ops_per_s", 1.5e6),
                ("put_p50_us", 0.54),
                ("put_p99_us", 0.8),
            ],
            layer: vec![("pool.pop_push_ns", 9.0)],
            counts: vec![],
        };
        let line = Json::parse(&rec.driver_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "ops_per_s",
                "put_p50_us",
                "flips_per_put",
                "lines_per_put",
                "setup_s",
                "peak_rss_mb"
            ]
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

        rec.traced = true;
        rec.failed = 1;
        let line = Json::parse(&rec.driver_line()).unwrap();
        let metrics = line.get("metrics").unwrap();
        assert_eq!(
            metrics.as_obj().unwrap().len(),
            spec::driver_per_layer().count()
        );
        assert_eq!(
            metrics.get("pool.pop_push_ns").unwrap().get("value"),
            Some(&Json::Num(9.0))
        );
        assert_eq!(
            metrics.get("put_p99_us").unwrap().get("value"),
            Some(&Json::Num(0.8))
        );
        assert_eq!(
            metrics.get("recover_ms").unwrap().get("value"),
            Some(&Json::Num(0.0))
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}
