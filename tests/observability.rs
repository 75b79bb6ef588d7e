//! End-to-end checks of the observability stack: the virtual-clock
//! sampling profiler is byte-deterministic, the `RunReport` artifact is
//! byte-deterministic, ring-buffer truncation surfaces everywhere it
//! should, and the Prometheus text exposition matches its golden file.

use std::rc::Rc;

use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Engine, ObservabilityOptions};
use doppio::jvm::{fsutil, Jvm};
use doppio::minijava::compile_to_bytes;
use doppio::report::RunReport;
use doppio::trace::json;
use doppio::trace::{chrome, MetricsRegistry, Profiler, RingSink};

const CRUNCHER: &str = r#"
    class Main {
        static int work(int x) { return x * 31 + 17; }
        static void main(String[] args) {
            int acc = 0;
            for (int i = 0; i < 200000; i++) { acc = work(acc); }
            System.out.println("crunched: " + acc);
        }
    }
"#;

/// One fully-instrumented segmented run: profiler + histograms + a
/// trace ring of `ring_capacity`. Returns the folded profile, the
/// report JSON, and the Chrome export.
fn instrumented_run(ring_capacity: usize) -> (String, String, String) {
    let sink = Rc::new(RingSink::with_capacity(ring_capacity));
    let engine = Engine::builder(Browser::Chrome)
        .trace_sink(sink.clone())
        .histograms(true)
        .observability(ObservabilityOptions::new().profiler(Profiler::new(1_000_000)))
        .build();
    sink.set_drop_counter(engine.metrics().counter("trace.dropped"));
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    let classes = compile_to_bytes(CRUNCHER).expect("compiles");
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Main", &[]);
    let result = jvm.run_to_completion().expect("no deadlock");
    assert!(result.stdout.starts_with("crunched:"));

    let report = RunReport::collect("observability", &engine)
        .with_runtime(jvm.runtime())
        .with_trace(&sink);
    (
        engine.profiler().expect("profiler attached").folded(),
        report.to_json_string(),
        chrome::export_sink(&sink),
    )
}

#[test]
fn profiler_and_report_are_byte_deterministic() {
    let (folded_a, report_a, _) = instrumented_run(1 << 16);
    let (folded_b, report_b, _) = instrumented_run(1 << 16);
    assert!(!folded_a.is_empty(), "profiler collected no samples");
    assert_eq!(folded_a, folded_b, "folded stacks differ across runs");
    assert_eq!(report_a, report_b, "report JSON differs across runs");

    // Folded stacks carry the expected shape: event kind; thread;
    // Class.method frames, whitespace-separated from the weight.
    let first = folded_a.lines().next().unwrap();
    let (stack, weight) = first.rsplit_once(' ').unwrap();
    assert!(stack.contains(';'), "no stack separator in {first:?}");
    weight.parse::<u64>().expect("weight is an integer");
    assert!(
        folded_a.contains("Main.work"),
        "hot frame missing from profile:\n{folded_a}"
    );
}

#[test]
fn report_reflects_the_run_and_parses() {
    let (_, report_json, _) = instrumented_run(1 << 16);
    let v = json::parse(&report_json).expect("report JSON parses");
    let hists = v.get("histograms").expect("histograms section");
    for name in [
        "engine.event_latency",
        "core.slice_ns",
        "core.suspend_counter",
        "fs.op_ns",
    ] {
        let row = hists
            .get(name)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        assert!(row.get("count").unwrap().as_f64().unwrap() > 0.0);
        let p50 = row.get("p50").unwrap().as_f64().unwrap();
        let p95 = row.get("p95").unwrap().as_f64().unwrap();
        let max = row.get("max").unwrap().as_f64().unwrap();
        assert!(
            p50 <= p95 && p95 <= max,
            "{name}: p50 {p50} p95 {p95} max {max}"
        );
    }
    let profile = v.get("profile").expect("profile section");
    assert!(profile.get("samples").unwrap().as_f64().unwrap() > 0.0);
    assert!(
        v.get("waitgraph").and_then(|w| w.get("deadlock")).is_some(),
        "waitgraph section present"
    );
    assert_eq!(
        v.get("trace")
            .and_then(|t| t.get("dropped"))
            .and_then(json::Json::as_f64),
        Some(0.0),
        "a 64k ring must not drop this run"
    );
}

#[test]
fn ring_truncation_surfaces_in_report_and_chrome_export() {
    // A tiny ring guarantees evictions on a run this size.
    let (_, report_json, chrome_doc) = instrumented_run(64);
    let v = json::parse(&report_json).expect("report JSON parses");
    let dropped = v
        .get("trace")
        .and_then(|t| t.get("dropped"))
        .and_then(json::Json::as_f64)
        .expect("trace.dropped in report");
    assert!(dropped > 0.0, "64-slot ring cannot hold this run");
    assert_eq!(
        v.get("counters")
            .and_then(|c| c.get("trace.dropped"))
            .and_then(json::Json::as_f64),
        Some(dropped),
        "registry counter mirrors the ring's eviction count"
    );

    // The Chrome export flags the truncation both in its metadata and
    // as an in-stream metadata event tools can see.
    let t = json::parse(&chrome_doc).expect("chrome JSON parses");
    assert_eq!(
        t.get("metadata")
            .and_then(|m| m.get("dropped_events"))
            .and_then(json::Json::as_f64),
        Some(dropped)
    );
    let events = t
        .get("traceEvents")
        .and_then(json::Json::as_array)
        .expect("traceEvents");
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(json::Json::as_str) == Some("trace.dropped")
                && e.get("cat").and_then(json::Json::as_str) == Some("__metadata")
        }),
        "no trace.dropped metadata event in the stream"
    );
}

#[test]
fn prometheus_exposition_matches_the_golden_file() {
    let reg = MetricsRegistry::default();
    reg.set_histograms_enabled(true);
    reg.counter("engine.events_run").add(42);
    reg.counter("trace.dropped").add(7);
    let h = reg.histogram("fs.op_ns");
    for v in [0, 1, 7, 8, 9, 100, 1_000, 123_456, 5_000_000] {
        h.record(v);
    }
    // An empty histogram must not appear in the exposition.
    let _ = reg.histogram("net.delivery_ns");

    let got = reg.prometheus();
    let want = include_str!("golden/prometheus.txt");
    assert_eq!(
        got, want,
        "Prometheus exposition drifted from tests/golden/prometheus.txt;\n\
         if the change is intentional, update the golden file.\n--- got ---\n{got}"
    );
}
