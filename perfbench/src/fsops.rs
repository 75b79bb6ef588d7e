//! One fs operation at a time against a `FileSystem`, timed in host
//! µs from the call that issues it to its callback, on either of the
//! two backends the fs workloads compare.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use doppio_fs::{backends, FileSystem, FsResult};
use doppio_jsengine::{Browser, Engine};
use doppio_sockets::Network;
use doppio_storage::{StorageCluster, StorageConfig};

use crate::metrics::{per_layer, Values, FS_OPS};
use crate::spans::Spans;
use crate::stats;

/// One fs operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read a whole file.
    Read(String),
    /// Create or overwrite a whole file.
    Write(String, Vec<u8>),
    Stat(String),
    Readdir(String),
    Unlink(String),
    Rename(String, String),
    Mkdir(String),
}

impl Op {
    /// Index into [`FS_OPS`].
    pub fn kind(&self) -> usize {
        match self {
            Op::Read(_) => 0,
            Op::Write(..) => 1,
            Op::Stat(_) => 2,
            Op::Readdir(_) => 3,
            Op::Unlink(_) => 4,
            Op::Rename(..) => 5,
            Op::Mkdir(_) => 6,
        }
    }
}

const SPAN: [&str; 7] = [
    "fs.read",
    "fs.write",
    "fs.stat",
    "fs.readdir",
    "fs.unlink",
    "fs.rename",
    "fs.mkdir",
];

/// What an operation's callback delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    Data(Vec<u8>),
    Size(usize),
    Names(Vec<String>),
    Done,
    Failed(String),
}

fn reply<T>(r: FsResult<T>, f: impl FnOnce(T) -> Reply) -> Reply {
    match r {
        Ok(v) => f(v),
        Err(e) => Reply::Failed(e.to_string()),
    }
}

/// A Chrome-profile engine with a file system on one backend.
pub struct World {
    pub engine: Engine,
    pub fs: FileSystem,
    /// The three-node cluster behind a replicated fs, kept alive with it.
    cluster: Option<StorageCluster>,
}

impl World {
    /// A fresh engine and fs; `replicated` launches a 3-node cluster
    /// and mounts it through one caching client session.
    pub fn new(replicated: bool, spans: &mut Spans) -> World {
        let engine = Engine::builder(Browser::Chrome).tier_up(true).build();
        let (backend, cluster) = if replicated {
            let cluster = spans.span("storage.launch", |_| {
                let net = Network::new(&engine);
                let c = StorageCluster::launch(&engine, &net, StorageConfig::default(), None);
                engine.run_until_idle();
                c
            });
            (
                doppio_storage::replicated(&cluster, "perfbench"),
                Some(cluster),
            )
        } else {
            (backends::in_memory(&engine), None)
        };
        let fs = FileSystem::new(&engine, backend);
        World {
            engine,
            fs,
            cluster,
        }
    }

    /// Issue `op`, run the event loop until it completes, and return
    /// the reply with the host seconds from issue to callback and from
    /// issue to an idle event loop.
    pub fn run(&self, op: Op, spans: &mut Spans) -> (Reply, f64, f64) {
        let slot: Rc<RefCell<Option<(Instant, Reply)>>> = Rc::new(RefCell::new(None));
        let done = slot.clone();
        let fin = move |r: Reply| *done.borrow_mut() = Some((Instant::now(), r));
        let fs = &self.fs;
        let t0 = Instant::now();
        spans.span(SPAN[op.kind()], |s| {
            s.span("fs.issue", |_| match op {
                Op::Read(p) => fs.read_file(&p, move |_, r| fin(reply(r, Reply::Data))),
                Op::Write(p, data) => {
                    fs.write_file(&p, data, move |_, r| fin(reply(r, |_| Reply::Done)))
                }
                Op::Stat(p) => fs.stat(&p, move |_, r| fin(reply(r, |st| Reply::Size(st.size)))),
                Op::Readdir(p) => fs.readdir(&p, move |_, r| fin(reply(r, Reply::Names))),
                Op::Unlink(p) => fs.unlink(&p, move |_, r| fin(reply(r, |_| Reply::Done))),
                Op::Rename(a, b) => fs.rename(&a, &b, move |_, r| fin(reply(r, |_| Reply::Done))),
                Op::Mkdir(p) => fs.mkdir(&p, move |_, r| fin(reply(r, |_| Reply::Done))),
            });
            s.span("jsengine.run_until_idle", |_| self.engine.run_until_idle());
        });
        let idle_s = t0.elapsed().as_secs_f64();
        let taken = slot.borrow_mut().take();
        match taken {
            Some((t1, r)) => (r, (t1 - t0).as_secs_f64(), idle_s),
            None => (Reply::Failed("callback never ran".into()), idle_s, idle_s),
        }
    }

    /// Counters of the fs, engine, storage and network layers.
    pub fn counters(&self, l: &mut Values) {
        let fs = self.fs.stats();
        let m = self.engine.metrics();
        let add = |l: &mut Values, k: &'static str, v: f64| *l.entry(k).or_default() += v;
        add(l, "fs.ops", fs.ops as f64);
        add(l, "fs.bytes_read", fs.bytes_read as f64);
        add(l, "fs.bytes_written", fs.bytes_written as f64);
        add(l, "fs.retries", fs.retries as f64);
        let events = self.engine.stats().events_run;
        add(l, "jsengine.events_run", events as f64);
        if self.cluster.is_some() {
            for name in [
                "storage.cache.invalidate",
                "storage.journal.append",
                "storage.replicate.sent",
                "storage.replicate.resent",
                "storage.client.retry",
            ] {
                add(l, name, m.get(name) as f64);
            }
            add(l, "storage.cache.hit", m.get("storage.cache.hit") as f64);
            add(l, "storage.cache.miss", m.get("storage.cache.miss") as f64);
            let deliveries = m.histograms_with_prefix("net.delivery_ns");
            add(
                l,
                "sockets.deliveries",
                deliveries.iter().map(|(_, h)| h.count).sum::<u64>() as f64,
            );
        }
    }

    /// Zero the counters [`World::counters`] reads. Histograms, which
    /// count network deliveries, are on only when `traced`.
    pub fn reset_counters(&self, traced: bool) {
        self.engine.metrics().set_histograms_enabled(traced);
        self.fs.reset_stats();
        self.engine.reset_stats();
        for prefix in ["storage.", "net."] {
            self.engine.metrics().reset_prefix(prefix);
        }
    }
}

/// Per-op-kind latency samples of one phase.
#[derive(Debug, Default)]
pub struct Latencies {
    by_kind: [Vec<f64>; 7],
}

impl Latencies {
    pub fn push(&mut self, kind: usize, s: f64) {
        self.by_kind[kind].push(s);
    }

    /// `fs.<op>_us_{p50,p99}.<backend>` for every op kind.
    pub fn report(&self, backend: &str, l: &mut Values) {
        for (kind, samples) in self.by_kind.iter().enumerate() {
            let sorted = stats::sorted(samples);
            for (q, p) in [("p50", 50.0), ("p99", 99.0)] {
                let name = per_layer(&format!("fs.{}_us_{q}.{backend}", FS_OPS[kind]));
                l.insert(name, stats::percentile(&sorted, p).unwrap_or(0.0) * 1e6);
            }
        }
    }
}

/// Finish an fs phase: throughput, per-op percentiles and counters.
pub fn finish(
    backend: &'static str,
    counters: Values,
    lat: &Latencies,
    phase: &mut crate::Phase,
    spans: &Spans,
) {
    let sorted = stats::sorted(&phase.op_s);
    let per_s = per_layer(&format!("fs_ops_per_s.{backend}"));
    let p99 = per_layer(&format!("fs_op_p99_us.{backend}"));
    let l = &mut phase.layers;
    l.insert(per_s, phase.work_per_s);
    l.insert(p99, stats::percentile(&sorted, 99.0).unwrap_or(0.0) * 1e6);
    lat.report(backend, l);
    l.extend(counters);
    let hits = l.remove("storage.cache.hit").unwrap_or(0.0);
    let misses = l.remove("storage.cache.miss").unwrap_or(0.0);
    l.insert("storage.cache.hit_rate", stats::ratio(hits, hits + misses));
    let events = l.get("jsengine.events_run").copied().unwrap_or(0.0);
    l.insert(
        "jsengine.events_per_s",
        stats::ratio(events, spans.total_s("jsengine.run_until_idle")),
    );
}
