//! Metric names, collection, and the one-line JSON result.

use crate::fixture::{CELLS, TX64_PHASES};

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_geomean_ms", "ms"),
    ("mcycles_per_query", "Mcycles"),
    ("code_kib_per_query", "KiB"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics with their units, reported by traced runs, in
/// layer order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| names.push((name, unit));
    for (name, unit) in [
        ("calib.ms", "ms"),
        ("raw.latency_geomean_ms", "ms"),
        ("raw.latency_p50_ms", "ms"),
        ("raw.queries_per_s", "1/s"),
        ("storage.datagen_ms", "ms"),
        ("plan.decompose_ms", "ms"),
        ("plan.irgen_ms", "ms"),
        ("plan.ir_insts_per_query", "count"),
        ("plan.pipelines_per_query", "count"),
        ("session.stmt_hit_ratio", "ratio"),
    ] {
        add(name.to_string(), unit);
    }
    for cell in CELLS {
        add(format!("codegen.{cell}.ms_per_query"), "ms");
        add(format!("codegen.{cell}.code_kib_per_query"), "KiB");
    }
    for (cell, phases) in TX64_PHASES {
        for phase in phases {
            add(format!("phase.{cell}.{phase}_share"), "ratio");
        }
    }
    for cell in CELLS {
        add(format!("link.{cell}.instantiate_ms_per_query"), "ms");
    }
    for cell in CELLS {
        add(format!("exec.{cell}.ms_per_query"), "ms");
        add(format!("exec.{cell}.ns_per_cycle"), "ns");
        add(format!("exec.{cell}.mcycles_per_query"), "Mcycles");
    }
    for (name, unit) in [
        ("morsel_exec.model_speedup_w2", "ratio"),
        ("morsel_exec.model_speedup_w4", "ratio"),
        ("morsel_exec.extra_cycles_w4", "cycles"),
        ("compile_service.l1_hit_ratio", "ratio"),
        ("compile_service.l1_evictions", "count"),
        ("compile_service.warm_compile_ms", "ms"),
        ("artifact_store.disk_hits", "count"),
        ("artifact_store.disk_writes", "count"),
        ("artifact_store.disk_hit_ratio", "ratio"),
        ("artifact_store.disk_compile_ms", "ms"),
        ("artifact_store.corrupt_rejected", "count"),
        ("scheduler.queue_wait_p50_ms", "ms"),
        ("scheduler.utilization", "ratio"),
        ("scheduler.tiered_up_share", "ratio"),
        ("scheduler.failed", "count"),
        ("scheduler.shed", "count"),
        ("scheduler.killed", "count"),
        ("timing.trace_overhead_pct", "%"),
        ("error_rate", "ratio"),
    ] {
        add(name.to_string(), unit);
    }
    names
}

/// Metric values by name; a later `set` of a name replaces the earlier.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Renders the result line with exactly the metrics of `wanted`.
    ///
    /// # Errors
    /// Names a wanted metric that was not measured or is not finite.
    pub fn render(
        &self,
        wanted: &[(String, &str)],
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut body = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && attempted > 0,
            body.join(", ")
        ))
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` fields of one top-level array of BENCHMARK.json.
    fn declared(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared(&json, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared(&json, "per_layer"), layers);
        assert!(layers.len() <= 128);
    }

    #[test]
    fn render_requires_every_wanted_metric() {
        let wanted = vec![("a".to_string(), "ms"), ("b".to_string(), "s")];
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert!(m.render(&wanted, 1, 0).is_err());
        m.set("b", 0.25);
        m.set("extra", 9.0);
        let line = m.render(&wanted, 3, 0).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        m.set("a", f64::NAN);
        assert!(m.render(&wanted, 3, 0).is_err());
        assert!(m
            .render(&wanted[1..], 3, 1)
            .expect("ok")
            .contains("\"correct\": false"));
    }
}
