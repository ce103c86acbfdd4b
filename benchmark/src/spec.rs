//! The benchmark's catalogue: the four workloads, the thirteen end-to-end
//! metrics with the workloads each applies to and its regression bound, and
//! every per-layer metric. `../BENCHMARK.json` is this catalogue in the
//! acceptance driver's format; a unit test keeps the two in step.

/// Workload names, in the order every table prints them.
pub const WORKLOADS: [&str; 4] = ["put-steady", "get-heavy", "drift-retrain", "served-durable"];

/// One line per workload for `BENCHMARK.json` and the README.
pub const WORKLOAD_WHY: [&str; 4] = [
    "Zipf PUT updates on a volatile store that fits cache, 1 thread: the raw predict-pool-write-seal-index path; counts repeat exactly",
    "95% GET / 5% PUT over 524288 keys (beyond LLC), nproc threads: seqlock GET, index probe and CRC verify beside writers",
    "784 B image values, Digits to Fashion and back with background retraining: training, install stall and pool fallback on the blocking path",
    "File-backed store behind the server on a Unix socket, closed loop then open loop at 2000 op/s, then abort and WAL recovery",
];

const P: u8 = 1 << 0;
const G: u8 = 1 << 1;
const D: u8 = 1 << 2;
const S: u8 = 1 << 3;
const ALL: u8 = P | G | D | S;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the store would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median it may worsen by before `compare` says
    /// `worse`.
    pub bound: f64,
    /// Workloads that report it (bit `i` = `WORKLOADS[i]`).
    on: u8,
    /// Workloads on which it is a count that must repeat exactly between
    /// runs of one seed and one commit (bound 0, checked by `compare`).
    exact_on: u8,
}

impl EndToEnd {
    pub fn applies_to(&self, workload: usize) -> bool {
        self.on & (1 << workload) != 0
    }

    pub fn exact_on(&self, workload: usize) -> bool {
        self.exact_on & (1 << workload) != 0
    }

    /// The bound `compare` applies on this workload: 0 for an exact count.
    pub fn bound_on(&self, workload: usize) -> f64 {
        if self.exact_on(workload) {
            0.0
        } else {
            self.bound
        }
    }

    /// Reported by all four workloads and never zero: the subset the
    /// acceptance driver's `end_to_end` list can hold, because it wants every
    /// workload to report every metric. `failed_share` is carried by the
    /// driver's own `attempted`/`failed` fields instead.
    pub fn in_driver_contract(&self) -> bool {
        self.on == ALL && self.name != "failed_share"
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: u8,
    exact_on: u8,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        on,
        exact_on,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 13] = [
    e2e("ops_per_s", "op/s", Higher, 0.10, ALL, 0),
    e2e("put_p50_us", "us", Lower, 0.10, ALL, 0),
    e2e("put_p99_us", "us", Lower, 0.15, P | G | D, 0),
    e2e("get_p50_us", "us", Lower, 0.10, G, 0),
    e2e("get_p99_us", "us", Lower, 0.15, G, 0),
    e2e("flips_per_put", "bits", Lower, 0.05, ALL, P),
    e2e("lines_per_put", "lines", Lower, 0.05, ALL, P),
    e2e("max_word_writes", "writes", Lower, 0.25, P | G | D, P),
    e2e("failed_share", "ratio", Lower, 0.0, ALL, ALL),
    e2e("setup_s", "s", Lower, 0.25, ALL, 0),
    e2e("peak_rss_mb", "MiB", Lower, 0.10, ALL, 0),
    e2e("recover_ms", "ms", Lower, 0.10, S, 0),
    e2e("disk_bytes_per_put", "B", Lower, 0.05, S, S),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| *w == name)
}

/// A per-layer metric: `(name, unit, better)`. The prefix before the dot is
/// the layer (a module of the repository). A traced run reports every one of
/// them; a layer the workload does not execute reads 0.
///
/// The acceptance driver's `per_layer` list is these followed by the
/// end-to-end metrics that are not `in_driver_contract` (the driver wants
/// every workload to report every end-to-end metric, so the ones only some
/// workloads have are shown to it as layer metrics, taken from the traced
/// run's untraced pass; `compare` still holds them to their bounds).
pub const PER_LAYER: [(&str, &str, Better); 81] = [
    ("workloads.gen_ns_per_value", "ns", Lower),
    ("ml.packed_predict_ns", "ns", Lower),
    ("ml.pca_project_ns", "ns", Lower),
    ("ml.kmeans_fit_ms", "ms", Lower),
    ("ml.pca_fit_ms", "ms", Lower),
    ("ml.simd_active", "count", Higher),
    ("model.predict_ns_p50", "ns", Lower),
    ("model.predict_ns_p99", "ns", Lower),
    ("model.train_ms", "ms", Lower),
    ("model.retrains", "count", Lower),
    ("model.install_stall_ms_p50", "ms", Lower),
    ("model.install_stall_ms_max", "ms", Lower),
    ("model.stall_share", "ratio", Lower),
    ("model.adapt_puts", "count", Lower),
    ("model.adapt_ratio", "ratio", Lower),
    ("pool.pop_push_ns", "ns", Lower),
    ("pool.fallback_share", "ratio", Lower),
    ("pool.availability_end", "ratio", Higher),
    ("shard.put_ns", "ns", Lower),
    ("shard.get_ns", "ns", Lower),
    ("shard.delete_ns", "ns", Lower),
    ("shard.put_self_ns", "ns", Lower),
    ("sharded.put_ns", "ns", Lower),
    ("sharded.get_ns", "ns", Lower),
    ("sharded.frontend_put_ns", "ns", Lower),
    ("sharded.get_slowdown_under_writes", "ratio", Lower),
    ("sharded.apply64_ns_per_put", "ns", Lower),
    ("sharded.scan_us_per_1k", "us", Lower),
    ("sharded.backpressure", "count", Lower),
    ("durable.put_extra_us", "us", Lower),
    ("durable.apply64_us_per_put", "us", Lower),
    ("durable.wal_bytes_per_put", "B", Lower),
    ("durable.syscw_per_put", "count", Lower),
    ("durable.wchar_per_put", "B", Lower),
    ("durable.checkpoint_ms", "ms", Lower),
    ("durable.open_ms", "ms", Lower),
    ("durable.fsync_floor_us_p50", "us", Lower),
    ("durable.fsync_floor_us_p99", "us", Lower),
    ("nvm.write_diff_ns_64", "ns", Lower),
    ("nvm.write_diff_ns_784", "ns", Lower),
    ("nvm.crc32c_ns_64", "ns", Lower),
    ("nvm.crc32c_ns_784", "ns", Lower),
    ("nvm.value_flips_per_512", "bits", Lower),
    ("nvm.words_per_put", "count", Lower),
    ("nvm.modeled_put_ns_p50", "ns", Lower),
    ("nvm.modeled_get_ns", "ns", Lower),
    ("nvm.wear_p50", "writes", Lower),
    ("nvm.wear_p99", "writes", Lower),
    ("nvm.wear_p999", "writes", Lower),
    ("nvm.wear_max", "writes", Lower),
    ("index.insert_ns", "ns", Lower),
    ("index.lookup_ns", "ns", Lower),
    ("index.remove_ns", "ns", Lower),
    ("protocol.encode_put_ns", "ns", Lower),
    ("protocol.decode_put_ns", "ns", Lower),
    ("protocol.encode_get_resp_ns", "ns", Lower),
    ("protocol.frame_ns", "ns", Lower),
    ("server.ping_rtt_us_p50", "us", Lower),
    ("server.get_rtt_us_p50", "us", Lower),
    ("server.put_rtt_us_p50", "us", Lower),
    ("server.overhead_us_p50", "us", Lower),
    ("server.overhead_us_p99", "us", Lower),
    ("server.store_put_us_p50", "us", Lower),
    ("server.store_get_us_p50", "us", Lower),
    ("server.sojourn_p50_us", "us", Lower),
    ("server.sojourn_p90_us", "us", Lower),
    ("server.sojourn_p99_us", "us", Lower),
    ("server.gen_late_p50_us", "us", Lower),
    ("server.gen_late_p99_us", "us", Lower),
    ("server.p50_us_at_1000", "us", Lower),
    ("server.p50_us_at_4000", "us", Lower),
    ("server.max_rate_ok", "op/s", Higher),
    ("server.requests_err", "count", Lower),
    ("server.overload_rejects", "count", Lower),
    ("server.deadline_rejects", "count", Lower),
    ("server.backpressure_errors", "count", Lower),
    ("server.quarantined", "count", Lower),
    ("baselines.inplace_flips_per_put", "bits", Lower),
    ("baselines.flip_reduction", "ratio", Higher),
    ("trace.overhead_pct", "%", Lower),
    ("trace.unattributed_share", "ratio", Lower),
];

/// The `per_layer` list as the acceptance driver sees it.
pub fn driver_per_layer() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
    PER_LAYER.into_iter().chain(
        END_TO_END
            .iter()
            .filter(|m| !m.in_driver_contract())
            .map(|m| (m.name, m.unit, m.better)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_names_and_units_fit_the_driver_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS);
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!((0.0..=0.25).contains(&m.bound));
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.1), "bad unit {}", m.1);
        }
        assert!(driver_per_layer().count() <= 128);
        assert!(WORKLOAD_WHY
            .iter()
            .all(|w| w.len() <= 200 && !w.contains('\n')));
    }

    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        let listed: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(listed, WORKLOADS);
        for (w, why) in workloads.iter().zip(WORKLOAD_WHY) {
            assert_eq!(w.get("why").unwrap().as_str().unwrap(), why);
        }

        let listed = doc.get("end_to_end").unwrap().as_arr().unwrap();
        let expect: Vec<&EndToEnd> = END_TO_END
            .iter()
            .filter(|m| m.in_driver_contract())
            .collect();
        assert_eq!(listed.len(), expect.len());
        for (got, want) in listed.iter().zip(expect) {
            assert_eq!(got.get("name").unwrap().as_str().unwrap(), want.name);
            assert_eq!(got.get("unit").unwrap().as_str().unwrap(), want.unit);
            assert_eq!(
                got.get("better").unwrap().as_str().unwrap(),
                want.better.as_str()
            );
            let bound = got.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", want.name);
        }
        assert!(listed
            .iter()
            .any(|m| m.get("name").unwrap().as_str() == Some("setup_s")));

        let listed = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), driver_per_layer().count());
        for (got, want) in listed.iter().zip(driver_per_layer()) {
            assert_eq!(got.get("name").unwrap().as_str().unwrap(), want.0);
            assert_eq!(got.get("unit").unwrap().as_str().unwrap(), want.1);
            assert_eq!(
                got.get("better").unwrap().as_str().unwrap(),
                want.2.as_str()
            );
        }
    }
}
