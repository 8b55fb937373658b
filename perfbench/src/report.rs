//! Metric catalogue, run context and the result line.

use crate::stats::{valid_metric_name, valid_unit};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: every workload reports every one, from the
/// untraced run. What each means on each workload, and why the tail
/// latencies are reported but not listed here, is in NOTES.md.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("predict_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run. A layer a workload leaves
/// idle reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("sim.shard_s.max", "s"),
    ("sim.shard_s.p50", "s"),
    ("sim.straggler_ratio", "ratio"),
    ("sim.events", "count"),
    ("sim.reallocations", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.realloc_share", "ratio"),
    ("sim.tail_days", "days"),
    ("features.extract_s", "s"),
    ("window.push_ns", "ns"),
    ("window.features_s", "s"),
    ("model.fit_s", "s"),
    ("model.fit_edge_s.max", "s"),
    ("ml.fit_rows_per_s", "1/s"),
    ("retrain.refit_ms.p50", "ms"),
    ("retrain.refits", "count"),
    ("model.predict_ns_per_row", "ns"),
    ("model.explain_ns_per_row", "ns"),
    ("model.mdape_pct", "%"),
    ("http.parse_ns_per_req", "ns"),
    ("serve.batch_size.p50", "count"),
    ("serve.queue_depth.max", "count"),
    ("serve.reload_ms", "ms"),
    ("swap.visible_ms.p50", "ms"),
    ("gen.late_us.p99", "us"),
    ("ingest.offer_wait_us.p99", "us"),
    ("ingest.shed", "count"),
    ("store.append_mb_per_s", "MB/s"),
    ("traced.throughput_per_s", "1/s"),
    ("traced.predict_p50_us", "us"),
];

/// The named metrics a workload prints in its human-readable
/// report, with units. Not all apply to every workload.
pub const REPORTED: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fail_ratio", "ratio"),
    ("predict_p50_us", "us"),
    ("predict_p99_us", "us"),
    ("explain_p99_us", "us"),
    ("max_rps", "1/s"),
    ("records_per_s", "1/s"),
    ("mdape_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("swap_p99_us", "us"),
    ("swap_visible_ms", "ms"),
];

/// Everything shared by one workload run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Working directory for model artifacts and segment files, inside
    /// the build directory; removed when the run ends.
    pub work: PathBuf,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, work: PathBuf) -> Ctx {
        Ctx { seed, seconds, tracer: Tracer::new(trace), work }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// What a workload returns.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Named metric → value, for the human-readable report ([`REPORTED`]).
    pub reported: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: `--trace 0` carries the end-to-end metrics,
    /// `--trace 1` the per-layer ones.
    pub fn result_json(&self, traced: bool) -> String {
        let (list, values) =
            if traced { (PER_LAYER, &self.layer) } else { (END_TO_END, &self.e2e) };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(v))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable report lines (before the result line).
    pub fn human(&self, workload: &str) -> Vec<String> {
        let mut out = vec![format!("== {workload}")];
        let fail_ratio =
            if self.attempted == 0 { 1.0 } else { self.failed as f64 / self.attempted as f64 };
        for (name, unit) in REPORTED {
            let v = if *name == "fail_ratio" {
                Some(fail_ratio)
            } else {
                self.reported.get(name).copied()
            };
            match v {
                Some(v) => out.push(format!("  {name:<18} {v:>14.4} {unit}")),
                None => out.push(format!(
                    "  {name:<18} {:>14} {unit}  (not exercised by this workload)",
                    "n/a"
                )),
            }
        }
        for (name, ok) in &self.checks {
            out.push(format!("  check {:<40} {}", name, if *ok { "ok" } else { "FAILED" }));
        }
        out.extend(self.notes.iter().map(|n| format!("  {n}")));
        out
    }
}

/// A finite JSON number with all its digits (non-finite → 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every catalogue name and unit obeys the naming rules.
pub fn catalogue_is_valid() -> bool {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(REPORTED)
        .all(|(n, u)| valid_metric_name(n) && valid_unit(u))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        assert!(catalogue_is_valid());
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = wdt_types::JsonValue::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.field("name").unwrap().as_str().unwrap().to_string(),
                        m.field("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), want(END_TO_END));
        assert_eq!(names("per_layer"), want(PER_LAYER));
        let workloads: Vec<String> = doc
            .field("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn result_line_has_every_metric_of_its_mode() {
        let mut o = Outcome { attempted: 10, ..Default::default() };
        o.e2e.insert("setup_s", 1.25);
        o.check("x", true);
        let line = o.result_json(false);
        let v = wdt_types::JsonValue::parse(&line).unwrap();
        assert_eq!(v.field("correct").unwrap(), &wdt_types::JsonValue::Bool(true));
        let m = v.field("metrics").unwrap();
        for (name, unit) in END_TO_END {
            assert_eq!(m.field(name).unwrap().field("unit").unwrap().as_str().unwrap(), *unit);
        }
        assert_eq!(m.field("setup_s").unwrap().field("value").unwrap().as_f64().unwrap(), 1.25);
        let traced = wdt_types::JsonValue::parse(&o.result_json(true)).unwrap();
        for (name, _) in PER_LAYER {
            assert!(traced.field("metrics").unwrap().field(name).is_ok(), "{name}");
        }
        o.failed = 1;
        assert!(!o.correct());
    }
}
