//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit and direction, plus the name
//! rules `BENCHMARK.json` is held to and the result line's encoding.

use std::collections::BTreeMap;

/// Which way a metric improves.
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

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher as H, Lower as L};

/// Metrics of an untraced run, reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", L),
    m("peak_rss_mb", "MB", L),
    m("work_per_s", "1/s", H),
    m("op_p50_ms", "ms", L),
];

/// The MiniJava programs of `jvm_batch`, in catalogue order.
pub const PROGRAMS: [&str; 7] = [
    "disasm",
    "compilerbench",
    "recursive",
    "binarytrees",
    "nqueens",
    "deltablue",
    "pidigits",
];

/// The fs operation kinds timed per op.
pub const FS_OPS: [&str; 7] = [
    "read", "write", "stat", "readdir", "unlink", "rename", "mkdir",
];

/// Metrics of a traced run, reported by every workload; a layer the
/// workload never reaches reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The run as a whole.
    m("error_rate", "ratio", L),
    m("op_samples", "count", H),
    m("op_tail_pct", "pct", H),
    m("op_tail_ms", "ms", L),
    m("overhead.work_per_s", "ratio", L),
    m("overhead.op_p50_ms", "ratio", L),
    m("bench.self_s", "s", L),
    m("calib.kernel_ms", "ms", L),
    // Workload headline figures.
    m("run_s_geomean", "s", L),
    m("insns_per_s", "1/s", H),
    m("users_per_s_per_core", "1/s", H),
    m("click_p50_ms", "ms", L),
    m("click_p99_ms", "ms", L),
    m("clicks", "count", H),
    m("fs_ops_per_s.memory", "1/s", H),
    m("fs_ops_per_s.replicated", "1/s", H),
    m("fs_op_p99_us.memory", "us", L),
    m("fs_op_p99_us.replicated", "us", L),
    // Set-up.
    m("minijava.compile_s", "s", L),
    m("fs.mount_s", "s", L),
    m("fs.preload_s.memory", "s", L),
    m("storage.launch_s", "s", L),
    // jvm.
    m("jvm.run_s.disasm", "s", L),
    m("jvm.run_s.compilerbench", "s", L),
    m("jvm.run_s.recursive", "s", L),
    m("jvm.run_s.binarytrees", "s", L),
    m("jvm.run_s.nqueens", "s", L),
    m("jvm.run_s.deltablue", "s", L),
    m("jvm.run_s.pidigits", "s", L),
    m("jvm.insns.disasm", "count", L),
    m("jvm.insns.compilerbench", "count", L),
    m("jvm.insns.recursive", "count", L),
    m("jvm.insns.binarytrees", "count", L),
    m("jvm.insns.nqueens", "count", L),
    m("jvm.insns.deltablue", "count", L),
    m("jvm.insns.pidigits", "count", L),
    m("jvm.class_fetches", "count", L),
    m("jvm.cp_cache.hit_rate", "ratio", H),
    m("jvm.icache.hit_rate", "ratio", H),
    m("jvm.tier.compiled", "count", H),
    m("jvm.tier.deopt", "count", L),
    m("jvm.tier.super_hit", "count", H),
    // jsengine and core.
    m("jsengine.events_run", "count", L),
    m("jsengine.events_per_s", "1/s", H),
    m("jsengine.watchdog_kills", "count", L),
    m("jsengine.run_until_idle_s", "s", L),
    m("core.suspensions", "count", L),
    m("core.suspended_ms", "ms", L),
    m("core.report_s", "s", L),
    // trace and scale.
    m("trace.causal_s", "s", L),
    m("trace.dropped", "count", L),
    m("scale.tenant_s_p50", "s", L),
    m("scale.tenant_s_max", "s", L),
    m("scale.merge_s", "s", L),
    // fs.
    m("fs.read_us_p50.memory", "us", L),
    m("fs.read_us_p99.memory", "us", L),
    m("fs.write_us_p50.memory", "us", L),
    m("fs.write_us_p99.memory", "us", L),
    m("fs.stat_us_p50.memory", "us", L),
    m("fs.stat_us_p99.memory", "us", L),
    m("fs.readdir_us_p50.memory", "us", L),
    m("fs.readdir_us_p99.memory", "us", L),
    m("fs.unlink_us_p50.memory", "us", L),
    m("fs.unlink_us_p99.memory", "us", L),
    m("fs.rename_us_p50.memory", "us", L),
    m("fs.rename_us_p99.memory", "us", L),
    m("fs.mkdir_us_p50.memory", "us", L),
    m("fs.mkdir_us_p99.memory", "us", L),
    m("fs.read_us_p50.replicated", "us", L),
    m("fs.read_us_p99.replicated", "us", L),
    m("fs.write_us_p50.replicated", "us", L),
    m("fs.write_us_p99.replicated", "us", L),
    m("fs.stat_us_p50.replicated", "us", L),
    m("fs.stat_us_p99.replicated", "us", L),
    m("fs.readdir_us_p50.replicated", "us", L),
    m("fs.readdir_us_p99.replicated", "us", L),
    m("fs.unlink_us_p50.replicated", "us", L),
    m("fs.unlink_us_p99.replicated", "us", L),
    m("fs.rename_us_p50.replicated", "us", L),
    m("fs.rename_us_p99.replicated", "us", L),
    m("fs.mkdir_us_p50.replicated", "us", L),
    m("fs.mkdir_us_p99.replicated", "us", L),
    m("fs.ops", "count", H),
    m("fs.bytes_read", "bytes", H),
    m("fs.bytes_written", "bytes", H),
    m("fs.retries", "count", L),
    // storage and sockets.
    m("storage.cache.hit_rate", "ratio", H),
    m("storage.cache.invalidate", "count", L),
    m("storage.journal.append", "count", L),
    m("storage.replicate.sent", "count", L),
    m("storage.replicate.resent", "count", L),
    m("storage.client.retry", "count", L),
    m("sockets.deliveries", "count", L),
];

/// The per-layer catalogue's name equal to `name`, which must be
/// catalogued.
pub fn per_layer(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|d| d.name)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a catalogued per-layer metric"))
}

/// Whether `name` is a valid metric or workload name: a letter or
/// digit, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check a catalogue: every name and unit valid, no name twice.
pub fn validate(defs: &[MetricDef]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for d in defs {
        if !valid_name(d.name) {
            return Err(format!("invalid metric name {:?}", d.name));
        }
        if !valid_unit(d.unit) {
            return Err(format!("invalid unit {:?} of {}", d.unit, d.name));
        }
        if !seen.insert(d.name) {
            return Err(format!("metric {} listed twice", d.name));
        }
    }
    Ok(())
}

/// Measured values, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Render the result line: exactly the metrics of `defs`, in order,
/// each with its unit. A metric the run did not set reads 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, v, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_trace::json::{self, Json};

    #[test]
    fn catalogues_are_valid() {
        validate(END_TO_END).unwrap();
        validate(PER_LAYER).unwrap();
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == L));
        for p in PROGRAMS {
            assert!(PER_LAYER.iter().any(|d| d.name == format!("jvm.run_s.{p}")));
        }
        for op in FS_OPS {
            for backend in ["memory", "replicated"] {
                for q in ["p50", "p99"] {
                    let name = format!("fs.{op}_us_{q}.{backend}");
                    assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
                }
            }
        }
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("fs_ops_per_s.memory"));
        assert!(valid_name("0day"));
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit(&"s".repeat(17)));
        let dup = [m("a", "s", L), m("a", "s", L)];
        assert!(validate(&dup).is_err());
        assert!(validate(&[m("bad name", "s", L)]).is_err());
        assert!(validate(&[m("ok", "bad unit", L)]).is_err());
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut values = Values::new();
        values.insert("setup_s", 0.812_734_5);
        values.insert("work_per_s", f64::NAN);
        let line = result_line(true, 10, 0, END_TO_END, &values);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(10.0));
        let metrics = v.get("metrics").unwrap();
        for d in END_TO_END {
            let entry = metrics.get(d.name).unwrap_or_else(|| panic!("{}", d.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
        }
        let setup = metrics
            .get("setup_s")
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(setup, Some(0.812_734_5), "values keep all their digits");
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// catalogue's metrics, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = json::parse(&doc).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = v.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(d.better.as_str())
                );
            }
        }
        let workloads = v.get("workloads").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }
}
