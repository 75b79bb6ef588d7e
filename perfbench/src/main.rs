//! The repository benchmark: one workload per invocation, measured in
//! host time, its outputs checked, and every metric printed by name.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics with span
//! recording off. With `--trace 1` it measures half the time untraced
//! and half traced, reports the per-layer metrics of the traced half
//! and the tracing overhead between the two, and writes the spans as a
//! Chrome `trace_event` file. The last line of stdout is the result as
//! one JSON object; see `perfbench/README.md` for every metric.

mod calib;
mod churn;
mod fsops;
mod javac;
mod jvm_batch;
mod metrics;
mod spans;
mod stats;
mod tenants;

use std::time::{Duration, Instant};

use metrics::{Values, END_TO_END, PER_LAYER};
use spans::Spans;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "jvm_batch",
    "browser_tenants",
    "fs_javac_read.memory",
    "fs_churn_write.memory",
    "fs_churn_write.replicated",
];

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2014;

/// A run sets its workload up at least `.0` times, and up to `.1`
/// times while the set-ups so far took under [`SETUP_BUDGET_S`];
/// `setup_s` is the median.
pub const SETUP_REPS: (usize, usize) = (3, 25);
/// Host seconds of set-up after which no further repetition starts.
pub const SETUP_BUDGET_S: f64 = 1.0;

/// What a measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations attempted (programs, tenants or fs ops).
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Units of work (bytecodes, clicks or fs ops) per host second and
    /// worker thread, from typical step times (see [`stats::typical`]).
    pub work_per_s: f64,
    /// Median over the operations of a unit of each one's typical host
    /// ms (a geometric mean over programs on `jvm_batch`).
    pub op_p50_ms: f64,
    /// Host seconds of every operation run, for the tail.
    pub op_s: Vec<f64>,
    /// Per-layer metrics the workload measured.
    pub layers: Values,
    /// Units of work (rounds or passes) started.
    units: u64,
}

impl Phase {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether to start another unit of work: always the first, then
    /// until `deadline`. Calibrates the host's speed when due.
    pub fn next_unit(&mut self, deadline: Instant) -> bool {
        calib::tick();
        self.units += 1;
        self.units == 1 || Instant::now() < deadline
    }
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Build the inputs and the world the operations run in.
    fn setup(seed: u64, spans: &mut Spans) -> Self;
    /// Run operations until `deadline`, recording into `phase`.
    fn measure(&mut self, deadline: Instant, spans: &mut Spans, phase: &mut Phase);
    /// Checks made outside the timed phase.
    fn verify(&mut self, _phase: &mut Phase) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc` does not report it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set the workload up (see [`SETUP_REPS`]), keep the last, measure.
fn run<W: Workload>(args: &Args) -> (Values, u64, u64, Spans) {
    let mut spans = Spans::new(args.trace, 0);
    let mut setups: Vec<f64> = Vec::new();
    let mut world: Option<W> = None;
    while setups.len() < SETUP_REPS.0
        || (setups.len() < SETUP_REPS.1 && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(world.take());
        calib::tick();
        let t0 = Instant::now();
        world = Some(spans.span("bench.setup", |s| W::setup(args.seed, s)));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up");

    let mut values = Values::new();
    let (mut attempted, mut failed) = (0, 0);
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut untraced = Phase::default();
    let mut off = Spans::new(false, 0);
    if args.trace {
        // Half untraced, half traced: the difference is the overhead.
        world.measure(Instant::now() + seconds / 2, &mut off, &mut untraced);
        let mut traced = Phase::default();
        world.measure(Instant::now() + seconds / 2, &mut spans, &mut traced);
        world.verify(&mut traced);
        attempted += untraced.attempted + traced.attempted;
        failed += untraced.failed + traced.failed;
        values.extend(traced.layers.iter().map(|(k, v)| (*k, *v)));
        values.insert(
            "bench.self_s",
            spans.totals("bench.op").self_ns as f64 / 1e9,
        );
        values.insert("calib.kernel_ms", calib::fastest_s() * 1e3);
        let per_setup = |name: &str| spans.total_s(name) / setups.len() as f64;
        values.insert("minijava.compile_s", per_setup("minijava.compile"));
        values.insert(
            "storage.launch_s",
            stats::median(&spans.durations_s("storage.launch")),
        );
        values.insert(
            "jsengine.run_until_idle_s",
            spans.total_s("jsengine.run_until_idle"),
        );
        values.insert("error_rate", stats::ratio(failed as f64, attempted as f64));
        let sorted = stats::sorted(&traced.op_s);
        values.insert("op_samples", sorted.len() as f64);
        if let Some(p) = stats::tail_percentile(sorted.len()) {
            values.insert("op_tail_pct", p);
            values.insert(
                "op_tail_ms",
                stats::percentile(&sorted, p).unwrap_or(0.0) * 1e3,
            );
        }
        let lost = |u: f64, t: f64| stats::ratio(u - t, u);
        values.insert(
            "overhead.work_per_s",
            lost(untraced.work_per_s, traced.work_per_s),
        );
        values.insert(
            "overhead.op_p50_ms",
            -lost(untraced.op_p50_ms, traced.op_p50_ms),
        );
    } else {
        world.measure(Instant::now() + seconds, &mut off, &mut untraced);
        // Peak memory of set-up and the measured phase. Read before the
        // checks: the tenants' pooled re-run allocates in other threads'
        // allocator arenas than the measured rounds used.
        values.insert("peak_rss_mb", peak_rss_mb());
        world.verify(&mut untraced);
        attempted = untraced.attempted;
        failed = untraced.failed;
        // End-to-end times in reference seconds (see `calib`).
        let scale = calib::scale();
        values.insert("setup_s", stats::median(&setups) * scale);
        values.insert("work_per_s", untraced.work_per_s / scale);
        values.insert("op_p50_ms", untraced.op_p50_ms * scale);
        println!(
            "host speed: calibration kernel {:.3} ms, times scaled by {scale:.4}; unscaled \
             setup_s {:.6} work_per_s {:.3} op_p50_ms {:.6}",
            calib::fastest_s() * 1e3,
            stats::median(&setups),
            untraced.work_per_s,
            untraced.op_p50_ms
        );
    }
    (values, attempted, failed, spans)
}

fn main() {
    if let Err(e) = metrics::validate(END_TO_END).and(metrics::validate(PER_LAYER)) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (values, attempted, failed, spans) = match args.workload.as_str() {
        "jvm_batch" => run::<jvm_batch::JvmBatch>(&args),
        "browser_tenants" => run::<tenants::BrowserTenants>(&args),
        "fs_javac_read.memory" => run::<javac::JavacRead>(&args),
        "fs_churn_write.memory" => run::<churn::ChurnWrite<false>>(&args),
        "fs_churn_write.replicated" => run::<churn::ChurnWrite<true>>(&args),
        _ => unreachable!("workload validated by parse_args"),
    };

    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {}: {attempted} operations, {failed} failed",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for d in defs {
        let v = values.get(d.name).copied().unwrap_or(0.0);
        println!(
            "  {:<32} {:>20.6} {:<6} ({} is better)",
            d.name,
            v,
            d.unit,
            d.better.as_str()
        );
    }
    if args.trace {
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| format!("perfbench/out/trace.{}.{}.json", args.workload, args.seed));
        let path = std::path::Path::new(&path);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create the trace output directory");
        }
        std::fs::write(path, spans.chrome()).expect("write the span trace");
        println!(
            "  spans: {} written to {} ({} more only counted)",
            spans.spans().len(),
            path.display(),
            spans.dropped()
        );
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, defs, &values)
    );
}
