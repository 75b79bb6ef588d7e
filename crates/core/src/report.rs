//! The end-of-run report: one artifact answering "where did the
//! virtual time go?"
//!
//! [`RunReport`] aggregates everything the observability stack knows
//! about a finished run — counter snapshots, histogram percentiles,
//! profiler top-N frames, the wait-graph's verdict, fault/retry
//! counts, and trace-drop statistics — and renders it as markdown (for
//! humans and CI artifacts) and JSON (for tooling). Both renderings
//! are byte-deterministic: every number in them comes from the virtual
//! clock or deterministic interpreter state, and every collection is
//! sorted, so equal runs produce equal reports.
//!
//! Build one with [`RunReport::collect`], then chain
//! [`with_runtime`](RunReport::with_runtime) /
//! [`with_trace`](RunReport::with_trace) /
//! [`with_kernel`](RunReport::with_kernel) for the optional sections.

use std::collections::BTreeMap;

use doppio_jsengine::Engine;
use doppio_trace::json::{self, Json};
use doppio_trace::{CausalReport, HistogramSnapshot, RingSink};

use crate::kernel::{Kernel, ProcessSummary};
use crate::runtime::DoppioRuntime;

/// How many frames the profiler sections keep.
const TOP_N: usize = 10;

/// Percentile summary of one named histogram.
#[derive(Clone, Debug)]
pub struct HistRow {
    /// Registry name (`engine.event_latency`, `fs.op_ns`, …).
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Mean sample value.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistRow {
    /// Summarize a snapshot under `name`.
    pub fn from_snapshot(name: &str, snap: &HistogramSnapshot) -> HistRow {
        HistRow {
            name: name.to_string(),
            count: snap.count,
            mean: snap.mean(),
            p50: snap.percentile(50.0),
            p90: snap.percentile(90.0),
            p95: snap.percentile(95.0),
            p99: snap.percentile(99.0),
            max: snap.max,
        }
    }
}

/// What the sampling profiler saw.
#[derive(Clone, Debug, Default)]
pub struct ProfileSummary {
    /// Total sample weight.
    pub samples: u64,
    /// Sampling interval, virtual ns.
    pub interval_ns: u64,
    /// Heaviest leaf frames (self weight).
    pub top_self: Vec<(String, u64)>,
    /// Heaviest frames anywhere on a stack (total weight).
    pub top_total: Vec<(String, u64)>,
}

/// The wait-graph's verdict on the run.
#[derive(Clone, Debug, Default)]
pub struct WaitGraphSummary {
    /// Rendered deadlock cycle, if one was detected.
    pub deadlock: Option<String>,
    /// Rendered lock-order-inversion warnings.
    pub lock_order_warnings: Vec<String>,
}

/// Ring-buffer truncation statistics for the recorded trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Events still in the ring at export time.
    pub recorded: u64,
    /// Ring capacity.
    pub capacity: u64,
    /// Events evicted for lack of space.
    pub dropped: u64,
}

/// The aggregated end-of-run artifact. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Report title (workload id, browser, …).
    pub title: String,
    /// Virtual time at collection, ns.
    pub now_ns: u64,
    /// Every registry counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Every non-empty histogram, summarized, sorted by name.
    pub histograms: Vec<HistRow>,
    /// Raw snapshots behind [`RunReport::histograms`], sorted by name.
    /// Kept so reports stay mergeable ([`RunReport::merge`]) and
    /// renderable as Prometheus text after the engine is gone; not
    /// part of the markdown/JSON renderings.
    pub snapshots: Vec<(String, HistogramSnapshot)>,
    /// Profiler section (present when a profiler was attached).
    pub profile: Option<ProfileSummary>,
    /// Wait-graph section (present after `with_runtime`).
    pub waitgraph: Option<WaitGraphSummary>,
    /// Trace section (present after `with_trace`).
    pub trace: Option<TraceSummary>,
    /// Critical-path section (present after `with_causal`): per-class
    /// latency attribution from the recorded causal trace.
    pub causal: Option<CausalReport>,
    /// Per-process section (present after `with_kernel`): the kernel's
    /// process table, in pid order.
    pub processes: Option<Vec<ProcessSummary>>,
}

impl RunReport {
    /// Snapshot the engine's registry (counters + histograms) and
    /// attached profiler.
    pub fn collect(title: impl Into<String>, engine: &Engine) -> RunReport {
        let metrics = engine.metrics();
        let snapshots = metrics.histograms_with_prefix("");
        let histograms = snapshots
            .iter()
            .map(|(name, snap)| HistRow::from_snapshot(name, snap))
            .collect();
        let profile = engine.profiler().map(|p| ProfileSummary {
            samples: p.samples(),
            interval_ns: p.interval_ns(),
            top_self: p.top_self(TOP_N),
            top_total: p.top_total(TOP_N),
        });
        let counters = metrics.with_prefix("");
        RunReport {
            title: title.into(),
            now_ns: engine.now_ns(),
            counters,
            histograms,
            snapshots,
            profile,
            waitgraph: None,
            trace: None,
            causal: None,
            processes: None,
        }
    }

    /// Add the wait-graph section from `runtime`.
    pub fn with_runtime(mut self, runtime: &DoppioRuntime) -> RunReport {
        self.waitgraph = Some(WaitGraphSummary {
            deadlock: runtime.deadlock_report().map(|r| r.to_string()),
            lock_order_warnings: runtime
                .lock_order_warnings()
                .iter()
                .map(|w| w.to_string())
                .collect(),
        });
        self
    }

    /// Add the trace-truncation section from `sink`.
    pub fn with_trace(mut self, sink: &RingSink) -> RunReport {
        self.trace = Some(TraceSummary {
            recorded: sink.len() as u64,
            capacity: sink.capacity() as u64,
            dropped: sink.dropped(),
        });
        self
    }

    /// Add the critical-path section: replay the causal events in
    /// `sink` into a [`CausalReport`] (per-request critical paths and
    /// per-class latency attribution). Truncated rings degrade to a
    /// verdict rather than a wrong path.
    pub fn with_causal(mut self, sink: &RingSink) -> RunReport {
        self.causal = Some(CausalReport::analyze(&sink.events(), sink.dropped()));
        self
    }

    /// Add the per-process section: `kernel`'s process table (pids,
    /// exit statuses, slice counts, pipe traffic, lifetimes).
    pub fn with_kernel(mut self, kernel: &Kernel) -> RunReport {
        self.processes = Some(kernel.process_table());
        self
    }

    /// Merge per-shard reports into one aggregate report, the building
    /// block of `doppio-scale`'s sharded runs.
    ///
    /// The merge is order-independent by construction: counters are
    /// summed with saturating addition into a name-keyed map,
    /// histogram snapshots are merged with the associative/commutative
    /// [`HistogramSnapshot::merge`], percentile rows are recomputed
    /// from the merged snapshots, and every collection comes out in
    /// canonical sorted-name order — so a parallel fold and a serial
    /// fold over the same shard set render byte-identical artifacts.
    /// `now_ns` is the maximum across shards (each shard owns an
    /// independent virtual clock). The profiler, wait-graph, trace,
    /// and process sections are per-shard artifacts and are left out;
    /// causal critical-path sections DO merge (via the
    /// order-independent [`CausalReport::merge`]) because cross-shard
    /// attribution tables are the whole point of a scale run.
    pub fn merge(title: impl Into<String>, reports: &[RunReport]) -> RunReport {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut snaps: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        let mut now_ns = 0u64;
        for r in reports {
            now_ns = now_ns.max(r.now_ns);
            for (name, v) in &r.counters {
                let slot = counters.entry(name.clone()).or_insert(0);
                *slot = slot.saturating_add(*v);
            }
            for (name, snap) in &r.snapshots {
                let merged = match snaps.get(name) {
                    Some(prev) => prev.merge(snap),
                    None => snap.clone(),
                };
                snaps.insert(name.clone(), merged);
            }
        }
        let snapshots: Vec<(String, HistogramSnapshot)> = snaps.into_iter().collect();
        let histograms = snapshots
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(name, snap)| HistRow::from_snapshot(name, snap))
            .collect();
        let causal_parts: Vec<CausalReport> =
            reports.iter().filter_map(|r| r.causal.clone()).collect();
        let causal = if causal_parts.is_empty() {
            None
        } else {
            Some(CausalReport::merge(&causal_parts))
        };
        RunReport {
            title: title.into(),
            now_ns,
            counters: counters.into_iter().collect(),
            histograms,
            snapshots,
            profile: None,
            waitgraph: None,
            trace: None,
            causal,
            processes: None,
        }
    }

    /// Prometheus text exposition of this report's counters and raw
    /// histogram snapshots — byte-identical to what a live
    /// [`MetricsRegistry`](doppio_trace::MetricsRegistry) holding the
    /// same data would serve, and available for merged reports where
    /// no single registry ever existed.
    pub fn prometheus(&self) -> String {
        doppio_trace::prometheus::render_parts(&self.counters, &self.snapshots)
    }

    /// The summarized row for histogram `name`, if it recorded samples.
    pub fn histogram(&self, name: &str) -> Option<&HistRow> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Counters that record injected faults and recovery retries
    /// (`fault.*`, `*.retries`, `*.reconnect*`).
    pub fn fault_counters(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|(n, _)| {
                n.starts_with("fault.") || n.ends_with(".retries") || n.contains(".reconnect")
            })
            .cloned()
            .collect()
    }

    /// Counters from the replicated storage tier (`storage.*`):
    /// journal appends/replays, replication traffic, node crashes and
    /// restarts, cache hits/misses/invalidations, client reconnects.
    pub fn storage_counters(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with("storage."))
            .cloned()
            .collect()
    }

    /// One human paragraph: the headline numbers a run ends with.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}: ran {} events over {:.1} ms of virtual time",
            self.title,
            self.counter("engine.events_run"),
            self.now_ns as f64 / 1e6,
        );
        if let Some(h) = self.histogram("engine.event_latency") {
            s.push_str(&format!(
                "; event latency p50 {:.3} ms / p95 {:.3} ms / max {:.3} ms over {} events",
                h.p50 as f64 / 1e6,
                h.p95 as f64 / 1e6,
                h.max as f64 / 1e6,
                h.count,
            ));
        }
        let kills = self.counter("engine.watchdog_kills");
        s.push_str(&format!("; {kills} watchdog kills"));
        let faults: u64 = self.fault_counters().iter().map(|(_, v)| v).sum();
        if faults > 0 {
            s.push_str(&format!("; {faults} faults/retries"));
        }
        if let Some(p) = &self.profile {
            s.push_str(&format!("; {} profile samples", p.samples));
            if let Some((frame, _)) = p.top_self.first() {
                s.push_str(&format!(" (hottest: {frame})"));
            }
        }
        if let Some(t) = &self.trace {
            if t.dropped > 0 {
                s.push_str(&format!("; trace TRUNCATED: {} events dropped", t.dropped));
            }
        }
        if let Some(c) = &self.causal {
            let reqs: u64 = c.classes.values().map(|cl| cl.requests).sum();
            s.push_str(&format!(
                "; {} traced requests across {} classes",
                reqs,
                c.classes.len()
            ));
        }
        if let Some(w) = &self.waitgraph {
            if w.deadlock.is_some() {
                s.push_str("; DEADLOCK detected");
            }
        }
        if let Some(procs) = &self.processes {
            let exited = procs.iter().filter(|p| p.status != "running").count();
            s.push_str(&format!("; {} processes ({} exited)", procs.len(), exited));
        }
        s.push('.');
        s
    }

    /// Render the full report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut md = format!("# Run report: {}\n\n{}\n", self.title, self.summary());

        if !self.histograms.is_empty() {
            md.push_str("\n## Latency histograms\n\n");
            md.push_str("| histogram | count | mean | p50 | p90 | p95 | p99 | max |\n");
            md.push_str("|---|---:|---:|---:|---:|---:|---:|---:|\n");
            for h in &self.histograms {
                md.push_str(&format!(
                    "| `{}` | {} | {:.1} | {} | {} | {} | {} | {} |\n",
                    h.name, h.count, h.mean, h.p50, h.p90, h.p95, h.p99, h.max
                ));
            }
        }

        if let Some(p) = &self.profile {
            md.push_str(&format!(
                "\n## Profile ({} samples, every {} virtual ns)\n",
                p.samples, p.interval_ns
            ));
            for (label, frames) in [("self", &p.top_self), ("total", &p.top_total)] {
                md.push_str(&format!("\n### Top frames by {label} weight\n\n"));
                for (frame, w) in frames {
                    md.push_str(&format!("- `{frame}` — {w}\n"));
                }
            }
        }

        let faults = self.fault_counters();
        if !faults.is_empty() {
            md.push_str("\n## Faults and retries\n\n");
            for (name, v) in &faults {
                md.push_str(&format!("- `{name}`: {v}\n"));
            }
        }

        let storage = self.storage_counters();
        if !storage.is_empty() {
            md.push_str("\n## Storage\n\n");
            for (name, v) in &storage {
                md.push_str(&format!("- `{name}`: {v}\n"));
            }
        }

        if let Some(w) = &self.waitgraph {
            md.push_str("\n## Wait graph\n\n");
            match &w.deadlock {
                Some(d) => md.push_str(&format!("- **deadlock**: {d}\n")),
                None => md.push_str("- no deadlock detected\n"),
            }
            for warn in &w.lock_order_warnings {
                md.push_str(&format!("- lock-order warning: {warn}\n"));
            }
        }

        if let Some(procs) = &self.processes {
            md.push_str("\n## Processes\n\n");
            md.push_str(
                "| pid | name | argv | group | status | slices | pipe in | pipe out | spawned (ns) | exited (ns) |\n",
            );
            md.push_str("|---:|---|---|---|---|---:|---:|---:|---:|---:|\n");
            for p in procs {
                md.push_str(&format!(
                    "| {} | `{}` | `{}` | {} | {} | {} | {} | {} | {} | {} |\n",
                    p.pid,
                    p.name,
                    p.argv.join(" "),
                    p.group.as_deref().unwrap_or("-"),
                    p.status,
                    p.slices,
                    p.pipe_in,
                    p.pipe_out,
                    p.spawned_at_ns,
                    p.exited_at_ns
                        .map(|n| n.to_string())
                        .unwrap_or_else(|| "-".to_string()),
                ));
            }
        }

        if let Some(c) = &self.causal {
            md.push_str("\n## Critical paths\n\n");
            md.push_str(&c.to_markdown());
        }

        if let Some(t) = &self.trace {
            md.push_str(&format!(
                "\n## Trace\n\n- {} events recorded (capacity {}), {} dropped{}\n",
                t.recorded,
                t.capacity,
                t.dropped,
                if t.dropped > 0 {
                    " — **trace is truncated**"
                } else {
                    ""
                }
            ));
        }

        md.push_str("\n## Counters\n\n");
        for (name, v) in &self.counters {
            md.push_str(&format!("- `{name}`: {v}\n"));
        }
        md
    }

    /// Render the full report as a JSON document (deterministic key
    /// order, trailing newline).
    pub fn to_json_string(&self) -> String {
        json::to_string(&self.to_json())
    }

    /// The report as a [`Json`] value.
    pub fn to_json(&self) -> Json {
        let mut root = BTreeMap::new();
        root.insert("title".into(), Json::Str(self.title.clone()));
        root.insert("now_ns".into(), Json::Num(self.now_ns as f64));

        let counters: BTreeMap<String, Json> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect();
        root.insert("counters".into(), Json::Obj(counters));

        let hists: BTreeMap<String, Json> = self
            .histograms
            .iter()
            .map(|h| {
                let mut o = BTreeMap::new();
                o.insert("count".into(), Json::Num(h.count as f64));
                o.insert("mean".into(), Json::Num(h.mean));
                o.insert("p50".into(), Json::Num(h.p50 as f64));
                o.insert("p90".into(), Json::Num(h.p90 as f64));
                o.insert("p95".into(), Json::Num(h.p95 as f64));
                o.insert("p99".into(), Json::Num(h.p99 as f64));
                o.insert("max".into(), Json::Num(h.max as f64));
                (h.name.clone(), Json::Obj(o))
            })
            .collect();
        root.insert("histograms".into(), Json::Obj(hists));

        if let Some(p) = &self.profile {
            let mut o = BTreeMap::new();
            o.insert("samples".into(), Json::Num(p.samples as f64));
            o.insert("interval_ns".into(), Json::Num(p.interval_ns as f64));
            let frames = |v: &[(String, u64)]| {
                Json::Arr(
                    v.iter()
                        .map(|(f, w)| Json::Arr(vec![Json::Str(f.clone()), Json::Num(*w as f64)]))
                        .collect(),
                )
            };
            o.insert("top_self".into(), frames(&p.top_self));
            o.insert("top_total".into(), frames(&p.top_total));
            root.insert("profile".into(), Json::Obj(o));
        }

        if let Some(w) = &self.waitgraph {
            let mut o = BTreeMap::new();
            o.insert(
                "deadlock".into(),
                match &w.deadlock {
                    Some(d) => Json::Str(d.clone()),
                    None => Json::Null,
                },
            );
            o.insert(
                "lock_order_warnings".into(),
                Json::Arr(
                    w.lock_order_warnings
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            );
            root.insert("waitgraph".into(), Json::Obj(o));
        }

        if let Some(t) = &self.trace {
            let mut o = BTreeMap::new();
            o.insert("recorded".into(), Json::Num(t.recorded as f64));
            o.insert("capacity".into(), Json::Num(t.capacity as f64));
            o.insert("dropped".into(), Json::Num(t.dropped as f64));
            root.insert("trace".into(), Json::Obj(o));
        }

        if let Some(c) = &self.causal {
            root.insert("causal".into(), c.to_json());
        }

        if let Some(procs) = &self.processes {
            let rows = procs
                .iter()
                .map(|p| {
                    let mut o = BTreeMap::new();
                    o.insert("pid".into(), Json::Num(p.pid as f64));
                    o.insert("name".into(), Json::Str(p.name.clone()));
                    o.insert(
                        "argv".into(),
                        Json::Arr(p.argv.iter().map(|a| Json::Str(a.clone())).collect()),
                    );
                    o.insert(
                        "group".into(),
                        match &p.group {
                            Some(g) => Json::Str(g.clone()),
                            None => Json::Null,
                        },
                    );
                    o.insert("status".into(), Json::Str(p.status.clone()));
                    o.insert("slices".into(), Json::Num(p.slices as f64));
                    o.insert("pipe_in".into(), Json::Num(p.pipe_in as f64));
                    o.insert("pipe_out".into(), Json::Num(p.pipe_out as f64));
                    o.insert("spawned_at_ns".into(), Json::Num(p.spawned_at_ns as f64));
                    o.insert(
                        "exited_at_ns".into(),
                        match p.exited_at_ns {
                            Some(n) => Json::Num(n as f64),
                            None => Json::Null,
                        },
                    );
                    Json::Obj(o)
                })
                .collect();
            root.insert("processes".into(), Json::Arr(rows));
        }

        Json::Obj(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_jsengine::{Browser, EngineBuilder, ObservabilityOptions};
    use doppio_trace::Profiler;

    fn sample_engine() -> Engine {
        let e = EngineBuilder::new(Browser::Chrome)
            .histograms(true)
            .observability(ObservabilityOptions::new().profiler(Profiler::new(1_000)))
            .build();
        for _ in 0..5 {
            e.send_message(|eng| eng.advance_ns(10_000));
        }
        e.run_until_idle();
        e
    }

    #[test]
    fn collect_summarizes_counters_and_histograms() {
        let e = sample_engine();
        let r = RunReport::collect("unit", &e);
        assert_eq!(r.counter("engine.events_run"), 5);
        let h = r.histogram("engine.event_latency").expect("latency rows");
        assert_eq!(h.count, 5);
        assert!(h.p50 <= h.p95 && h.p95 <= h.max);
        assert!(r.profile.as_ref().unwrap().samples > 0);
        let md = r.to_markdown();
        assert!(md.contains("# Run report: unit"));
        assert!(md.contains("engine.event_latency"));
        assert!(r.summary().contains("ran 5 events"));
    }

    #[test]
    fn storage_counters_get_their_own_section() {
        let e = sample_engine();
        e.metrics().counter("storage.journal.append").add(4);
        e.metrics().counter("storage.journal.replayed").add(4);
        e.metrics().counter("storage.node.crash").inc();
        e.metrics().counter("fault.storage.replica_crash").inc();
        let r = RunReport::collect("unit", &e);
        let storage = r.storage_counters();
        let names: Vec<&str> = storage.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "storage.journal.append",
                "storage.journal.replayed",
                "storage.node.crash"
            ]
        );
        let md = r.to_markdown();
        assert!(md.contains("## Storage"));
        assert!(md.contains("`storage.journal.replayed`: 4"));
        // Injected storage faults stay in the faults section.
        assert!(r
            .fault_counters()
            .iter()
            .any(|(n, _)| n == "fault.storage.replica_crash"));
    }

    #[test]
    fn json_rendering_parses_and_is_deterministic() {
        let r1 = RunReport::collect("unit", &sample_engine());
        let r2 = RunReport::collect("unit", &sample_engine());
        let (j1, j2) = (r1.to_json_string(), r2.to_json_string());
        assert_eq!(j1, j2, "same workload, byte-identical report");
        let parsed = json::parse(&j1).expect("report JSON parses");
        assert_eq!(parsed.get("title").unwrap().as_str(), Some("unit"));
        assert!(parsed
            .get("histograms")
            .unwrap()
            .get("engine.event_latency")
            .is_some());
    }

    #[test]
    fn merge_is_order_independent_and_prometheus_matches_registry() {
        let e1 = sample_engine();
        let r1 = RunReport::collect("shard-a", &e1);
        // A report's exposition equals what the live registry serves.
        assert_eq!(r1.prometheus(), e1.metrics().prometheus());

        let e2 = EngineBuilder::new(Browser::Firefox)
            .histograms(true)
            .build();
        for _ in 0..3 {
            e2.send_message(|eng| eng.advance_ns(2_000));
        }
        e2.run_until_idle();
        let r2 = RunReport::collect("shard-b", &e2);

        let ab = RunReport::merge("merged", &[r1.clone(), r2.clone()]);
        let ba = RunReport::merge("merged", &[r2.clone(), r1.clone()]);
        assert_eq!(
            ab.to_json_string(),
            ba.to_json_string(),
            "order-independent"
        );
        assert_eq!(ab.prometheus(), ba.prometheus(), "order-independent prom");
        assert_eq!(
            ab.counter("engine.events_run"),
            r1.counter("engine.events_run") + r2.counter("engine.events_run")
        );
        let h = ab.histogram("engine.event_latency").expect("merged rows");
        assert_eq!(h.count, 8);
        assert_eq!(ab.now_ns, r1.now_ns.max(r2.now_ns));
    }

    #[test]
    fn trace_section_reports_truncation() {
        use doppio_trace::{cat, Phase, TraceEvent, TraceSink};
        let sink = RingSink::with_capacity(4);
        for i in 0..9u64 {
            sink.record(TraceEvent {
                name: "tick".into(),
                cat: cat::ENGINE,
                phase: Phase::Instant,
                ts_ns: i,
                dur_ns: 0,
                tid: 0,
                id: 0,
                args: vec![],
            });
        }
        let e = EngineBuilder::new(Browser::Chrome).build();
        let r = RunReport::collect("t", &e).with_trace(&sink);
        let t = r.trace.as_ref().unwrap();
        assert_eq!(t.capacity, 4);
        assert_eq!(t.dropped, 5);
        assert!(r.summary().contains("TRUNCATED"));
        assert!(r.to_markdown().contains("trace is truncated"));
    }

    #[test]
    fn causal_section_renders_and_merges() {
        use doppio_trace::{RingSink, Tracer};
        use std::rc::Rc;

        let run = |seed: u64| {
            let sink = Rc::new(RingSink::with_capacity(4096));
            let e = EngineBuilder::new(Browser::Chrome)
                .rng_seed(seed)
                .tracer(Tracer::new(sink.clone()))
                .build();
            for _ in 0..3 {
                e.inject_user_input(|eng| eng.advance_ns(25_000));
            }
            e.run_until_idle();
            RunReport::collect("causal", &e).with_causal(&sink)
        };

        let r = run(7);
        let c = r.causal.as_ref().expect("causal section");
        assert_eq!(c.truncated, 0);
        let input = c.classes.get("input").expect("input request class");
        assert_eq!(input.requests, 3);
        assert!(r.summary().contains("3 traced requests"));
        let md = r.to_markdown();
        assert!(md.contains("## Critical paths"));
        assert!(md.contains("`input`"));
        let json = r.to_json_string();
        assert!(json.contains("\"causal\""));

        // Merging shard reports folds their attribution tables, and
        // stays byte-identical regardless of shard order.
        let (a, b) = (run(7), run(8));
        let ab = RunReport::merge("m", &[a.clone(), b.clone()]);
        let ba = RunReport::merge("m", &[b, a]);
        let merged = ab.causal.as_ref().expect("merged causal");
        assert_eq!(merged.classes.get("input").unwrap().requests, 6);
        assert_eq!(
            ab.causal.as_ref().unwrap().to_json_string(),
            ba.causal.as_ref().unwrap().to_json_string()
        );
    }
}
