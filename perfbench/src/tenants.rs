//! `browser_tenants`: rounds of K tenants, each running DeltaBlue on
//! a seeded Chrome-profile engine with a user click every 16 virtual
//! ms (an open loop in virtual time), histograms and the causal ring
//! on, run by the `scale` shard pool and merged into one `ScaleReport`
//! — the `tenant_storm` shape.
//!
//! Measured rounds run on one pool thread: two threads on a shared
//! host slow each other by amounts that differ from run to run, which
//! swamped the tenants' own cost. After the timed phase the first
//! round runs again on the full pool (at most two threads) and must
//! merge to byte-identical artifacts.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use doppio_core::report::RunReport;
use doppio_jsengine::{Browser, Engine, EngineBuilder};
use doppio_jvm::Jvm;
use doppio_scale::{run_sharded, tenant_seeds, ScaleReport, TenantRun, TenantSpec};
use doppio_trace::RingSink;
use doppio_workloads::CacheStats;

use crate::jvm_batch::{compile, mount, output_ok, Program};
use crate::spans::Spans;
use crate::stats::{self, Positions};
use crate::{Phase, Workload};

/// Tenants per round: short rounds repeat often enough for typical
/// tenant times.
pub const TENANTS: usize = 2;
/// Virtual milliseconds between clicks.
pub const CLICK_INTERVAL_MS: f64 = 16.0;
/// Causal ring capacity per tenant, in events.
const RING: usize = 1 << 18;

/// What one tenant produced besides its `TenantRun` and spans.
struct TenantOut {
    /// Virtual ns from each click's injection to its dispatch.
    latencies: Vec<u64>,
    host_s: f64,
    run_s: f64,
    insns: u64,
    class_fetches: u64,
    events: u64,
    watchdog_kills: u64,
    suspensions: u64,
    suspended_ns: u64,
    dropped: u64,
    caches: CacheStats,
    tier: [u64; 3],
    /// Own checks: exit ok, output right, no truncation, and one
    /// traced `input` request per click.
    ok: bool,
}

/// Re-arm a click every `interval_ms`; each records its latency.
fn arm_click(e: &Engine, interval_ms: f64, lat: Rc<RefCell<Vec<u64>>>) {
    e.set_timeout(interval_ms, move |e| {
        let t0 = e.now_ns();
        let lat2 = lat.clone();
        e.inject_user_input(move |e| lat2.borrow_mut().push(e.now_ns() - t0));
        arm_click(e, interval_ms, lat);
    });
}

/// One tenant's whole world, built on the calling thread.
fn tenant(spec: TenantSpec, op: u64, program: &Program, on: bool) -> (TenantRun, TenantOut, Spans) {
    let mut spans = Spans::new(on, 1 + spec.tenant as u32);
    let t0 = Instant::now();
    let (run, mut out) = spans.op("bench.op", op, |s| {
        let sink = Rc::new(RingSink::with_capacity(RING));
        let engine = EngineBuilder::new(Browser::Chrome)
            .rng_seed(spec.seed)
            .histograms(true)
            .tier_up(true)
            .trace_sink(sink.clone())
            .build();
        let fs = mount(&engine, program, s);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Main", &[]);
        engine.reset_stats();
        let latencies = Rc::new(RefCell::new(Vec::new()));
        arm_click(&engine, CLICK_INTERVAL_MS, latencies.clone());
        let r0 = Instant::now();
        let result = s.span("jvm.run_to_completion", |_| jvm.run_to_completion());
        let run_s = r0.elapsed().as_secs_f64();
        let report = s.span("core.report", |_| {
            RunReport::collect("deltablue on Chrome", &engine).with_runtime(jvm.runtime())
        });
        let report = s.span("trace.causal", |_| report.with_causal(&sink));
        let (stdout, uncaught, insns, class_fetches, runtime) = match result {
            Ok(r) => (
                r.stdout,
                r.uncaught,
                r.instructions,
                r.class_fetches,
                r.runtime,
            ),
            Err(e) => (String::new(), Some(e.to_string()), 0, 0, Default::default()),
        };
        let latencies = latencies.borrow().clone();
        let clicks = report
            .histogram("engine.event_latency.user_input")
            .map_or(0, |h| h.count);
        let causal_ok = report.causal.as_ref().is_some_and(|c| {
            c.truncated == 0 && c.classes.get("input").map_or(0, |i| i.requests) == clicks
        });
        let ok = uncaught.is_none()
            && output_ok("deltablue", &stdout)
            && clicks == latencies.len() as u64
            && causal_ok;
        let m = engine.metrics();
        let stats = engine.stats();
        let run = TenantRun {
            ok: uncaught.is_none(),
            status: match &uncaught {
                None => "exit(0)".to_string(),
                Some(u) => format!("uncaught: {u}"),
            },
            report,
        };
        let out = TenantOut {
            latencies,
            host_s: 0.0,
            run_s,
            insns,
            class_fetches,
            events: stats.events_run,
            watchdog_kills: stats.watchdog_kills,
            suspensions: runtime.suspensions,
            suspended_ns: runtime.suspended_ns,
            dropped: sink.dropped(),
            caches: CacheStats::from_engine(&engine),
            tier: [
                m.get("jvm.tier.compiled"),
                m.get("jvm.tier.deopt"),
                m.get("jvm.tier.super_hit"),
            ],
            ok,
        };
        (run, out)
    });
    out.host_s = t0.elapsed().as_secs_f64();
    (run, out, spans)
}

/// A pooled round: every tenant, then the merge.
fn round(
    seed: u64,
    first_op: u64,
    threads: usize,
    program: &Program,
    spans: &mut Spans,
) -> (Vec<TenantOut>, ScaleReport) {
    let seeds = tenant_seeds(seed, TENANTS);
    let on = spans.is_on();
    let spec = |i: usize| TenantSpec {
        tenant: i,
        seed: seeds[i],
    };
    let results = run_sharded(TENANTS, threads, |i| {
        tenant(spec(i), first_op + i as u64, program, on)
    });
    let mut runs = Vec::with_capacity(TENANTS);
    let mut outs = Vec::with_capacity(TENANTS);
    for (i, (run, out, tenant_spans)) in results.into_iter().enumerate() {
        runs.push((spec(i), run));
        outs.push(out);
        spans.absorb(tenant_spans);
    }
    let report = spans.span("scale.merge", |_| {
        ScaleReport::merge("browser_tenants", seed, &runs)
    });
    (outs, report)
}

/// A merged report's three renderings, compared byte for byte.
fn artifacts(r: &ScaleReport) -> [String; 3] {
    [r.to_markdown(), r.to_json_string(), r.prometheus()]
}

pub struct BrowserTenants {
    program: Program,
    /// Master seed of every round's tenant seeds: rounds repeat the
    /// same work, so their times compare.
    seed: u64,
    op: u64,
    /// The first measured round's artifacts, for the pooled check.
    reference: Option<[String; 3]>,
}

impl Workload for BrowserTenants {
    fn setup(seed: u64, spans: &mut Spans) -> BrowserTenants {
        let program = compile("deltablue", spans);
        BrowserTenants {
            program,
            seed,
            op: 0,
            reference: None,
        }
    }

    fn measure(&mut self, deadline: Instant, spans: &mut Spans, phase: &mut Phase) {
        let mut outs: Vec<TenantOut> = Vec::new();
        let (mut round_s, mut tenant_s) = (Vec::new(), Positions::default());
        while phase.next_unit(deadline) {
            let t0 = Instant::now();
            let (round_outs, report) = round(self.seed, self.op + 1, 1, &self.program, spans);
            round_s.push(t0.elapsed().as_secs_f64());
            self.op += TENANTS as u64;
            let all_ok = report.all_ok();
            if self.reference.is_none() {
                self.reference = Some(artifacts(&report));
            }
            for (i, o) in round_outs.iter().enumerate() {
                tenant_s.push(i, o.host_s);
                phase.check(o.ok && all_ok);
            }
            outs.extend(round_outs);
        }
        let clicks: usize = outs.iter().map(|o| o.latencies.len()).sum();
        // Rounds repeat the same tenants, so each tenant position has a
        // typical host time; clicks per second of a tenant's thread.
        let round_clicks = clicks as f64 / round_s.len() as f64;
        phase.work_per_s = stats::ratio(round_clicks, tenant_s.typical_s());
        phase.op_p50_ms = stats::median(tenant_s.typicals()) * 1e3;
        phase.op_s = outs.iter().map(|o| o.host_s).collect();

        let sum = |f: fn(&TenantOut) -> u64| outs.iter().map(f).sum::<u64>() as f64;
        let mut lat: Vec<f64> = outs
            .iter()
            .flat_map(|o| o.latencies.iter().map(|&ns| ns as f64 / 1e6))
            .collect();
        lat = stats::sorted(&lat);
        let run_s: Vec<f64> = outs.iter().map(|o| o.run_s).collect();
        let run_total: f64 = run_s.iter().sum();
        let mut caches = CacheStats::default();
        for o in &outs {
            caches.cp_hit += o.caches.cp_hit;
            caches.cp_miss += o.caches.cp_miss;
            caches.ic_hit += o.caches.ic_hit;
            caches.ic_miss += o.caches.ic_miss;
        }
        let tier = |i: usize| outs.iter().map(|o| o.tier[i]).sum::<u64>() as f64;
        let tenant_sorted = stats::sorted(&phase.op_s);
        let l = &mut phase.layers;
        // The pool's figure: rounds include the merge.
        let pool_s = stats::median(&round_s);
        l.insert("users_per_s_per_core", stats::ratio(round_clicks, pool_s));
        l.insert("clicks", clicks as f64);
        l.insert("click_p50_ms", stats::percentile(&lat, 50.0).unwrap_or(0.0));
        l.insert("click_p99_ms", stats::percentile(&lat, 99.0).unwrap_or(0.0));
        l.insert("jvm.run_s.deltablue", stats::typical(&run_s));
        l.insert(
            "jvm.insns.deltablue",
            outs.first().map_or(0.0, |o| o.insns as f64),
        );
        l.insert("insns_per_s", stats::ratio(sum(|o| o.insns), run_total));
        l.insert("jvm.class_fetches", sum(|o| o.class_fetches));
        l.insert("jvm.cp_cache.hit_rate", caches.cp_hit_rate());
        l.insert("jvm.icache.hit_rate", caches.ic_hit_rate());
        l.insert("jvm.tier.compiled", tier(0));
        l.insert("jvm.tier.deopt", tier(1));
        l.insert("jvm.tier.super_hit", tier(2));
        l.insert("jsengine.events_run", sum(|o| o.events));
        l.insert(
            "jsengine.events_per_s",
            stats::ratio(sum(|o| o.events), run_total),
        );
        l.insert("jsengine.watchdog_kills", sum(|o| o.watchdog_kills));
        l.insert("core.suspensions", sum(|o| o.suspensions));
        l.insert("core.suspended_ms", sum(|o| o.suspended_ns) / 1e6);
        l.insert("trace.dropped", sum(|o| o.dropped));
        l.insert(
            "scale.tenant_s_p50",
            stats::percentile(&tenant_sorted, 50.0).unwrap_or(0.0),
        );
        l.insert(
            "scale.tenant_s_max",
            tenant_sorted.last().copied().unwrap_or(0.0),
        );
        l.insert("core.report_s", spans.total_s("core.report"));
        l.insert("trace.causal_s", spans.total_s("trace.causal"));
        l.insert("scale.merge_s", spans.total_s("scale.merge"));
        l.insert("fs.mount_s", stats::median(&spans.durations_s("fs.mount")));
    }

    /// The first round, re-run on the full pool, must merge to
    /// byte-identical artifacts.
    fn verify(&mut self, phase: &mut Phase) {
        if let Some(serial) = self.reference.take() {
            let threads = doppio_scale::default_threads().clamp(1, 2);
            let mut off = Spans::new(false, 0);
            let (_, pooled) = round(self.seed, 0, threads, &self.program, &mut off);
            phase.check(artifacts(&pooled) == serial);
        }
    }
}
