//! `jvm_batch`: the seven MiniJava programs, each on a fresh
//! Native-profile engine with an in-memory fs, in a seed-shuffled
//! order each round — a closed loop with one client.

use std::time::Instant;

use doppio_fs::{backends, FileSystem};
use doppio_jsengine::{Browser, Engine};
use doppio_jvm::{fsutil, Jvm};
use doppio_prng::SplitMix64;
use doppio_workloads::{datasets, workload, CacheStats};

use crate::metrics::{per_layer, PROGRAMS};
use crate::spans::Spans;
use crate::{stats, Phase, Workload};

type Files = Vec<(String, Vec<u8>)>;

/// A compiled program and the data files it reads.
pub struct Program {
    pub id: &'static str,
    pub classes: Files,
    /// Directories to create, then files to write, under `/data`.
    pub dirs: &'static [&'static str],
    pub data: Files,
}

/// What one program run produced.
pub struct ProgramRun {
    pub stdout: String,
    pub ok: bool,
    pub run_s: f64,
    pub insns: u64,
    pub class_fetches: u64,
}

/// Compile `id` and generate its data set (the inputs
/// `doppio_workloads::run_workload` mounts under `/data`).
pub fn compile(id: &'static str, spans: &mut Spans) -> Program {
    let source = workload(id).expect("a catalogued workload").source;
    let classes = spans.span("minijava.compile", |_| {
        doppio_minijava::compile_to_bytes(source).expect("catalogued programs compile")
    });
    let (dirs, data): (&[&str], Files) = match id {
        "disasm" => (
            &["/data", "/data/classes"],
            datasets::synth_class_files(180, 491)
                .into_iter()
                .map(|(n, b)| (format!("/data/classes/{n}"), b))
                .collect(),
        ),
        "compilerbench" => (
            &["/data", "/data/src"],
            datasets::expression_sources(19, 40, 19)
                .into_iter()
                .map(|(n, t)| (format!("/data/src/{n}"), t.into_bytes()))
                .collect(),
        ),
        _ => (&[], Vec::new()),
    };
    Program {
        id,
        classes,
        dirs,
        data,
    }
}

/// Mount `p`'s classes and data on a fresh in-memory fs of `engine`.
pub fn mount(engine: &Engine, p: &Program, spans: &mut Spans) -> FileSystem {
    spans.span("fs.mount", |_| {
        let fs = FileSystem::new(engine, backends::in_memory(engine));
        fsutil::mount_class_files(engine, &fs, "/classes", &p.classes);
        for d in p.dirs {
            fs.mkdir(d, |_, r| r.expect("mkdir of a data directory"));
            engine.run_until_idle();
        }
        for (path, bytes) in &p.data {
            fs.write_file(path, bytes.clone(), |_, r| r.expect("write of a data file"));
        }
        engine.run_until_idle();
        fs
    })
}

/// Launch `Main` and time `Jvm::run_to_completion`.
pub fn run(engine: &Engine, fs: FileSystem, spans: &mut Spans) -> ProgramRun {
    let jvm = Jvm::new(engine, fs);
    jvm.launch("Main", &[]);
    engine.reset_stats();
    let t0 = Instant::now();
    let result = spans.span("jvm.run_to_completion", |_| jvm.run_to_completion());
    let run_s = t0.elapsed().as_secs_f64();
    match result {
        Ok(r) => ProgramRun {
            ok: r.uncaught.is_none(),
            stdout: r.stdout,
            run_s,
            insns: r.instructions,
            class_fetches: r.class_fetches,
        },
        Err(_) => ProgramRun {
            stdout: String::new(),
            ok: false,
            run_s,
            insns: 0,
            class_fetches: 0,
        },
    }
}

/// `recursive`'s answer, computed in Rust.
pub fn recursive_expected() -> String {
    fn fib(n: i32) -> i32 {
        if n < 2 {
            n
        } else {
            fib(n - 1) + fib(n - 2)
        }
    }
    fn ack(m: i32, n: i32) -> i32 {
        if m == 0 {
            n + 1
        } else if n == 0 {
            ack(m - 1, 1)
        } else {
            ack(m - 1, ack(m, n - 1))
        }
    }
    fn tak(x: i32, y: i32, z: i32) -> i32 {
        if y >= x {
            z
        } else {
            tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
        }
    }
    let mut result = 0i32;
    for i in 3..=5 {
        result = result.wrapping_add(ack(3, i));
        result = result.wrapping_add(fib(17 + i % 2));
        result = result.wrapping_add(tak(3 * i + 3, 2 * i + 2, i + 1));
    }
    format!("recursive: {result}\n")
}

/// `binarytrees`' answer, computed in Rust (32-bit wrapping, as the
/// JVM's `int`).
pub fn binarytrees_expected() -> String {
    // A complete tree built by bottomUp(item, depth) checks to
    // item + check(2*item-1, d-1) - check(2*item, d-1).
    fn check(item: i32, depth: i32) -> i32 {
        if depth == 0 {
            return item;
        }
        let l = check(item.wrapping_mul(2).wrapping_sub(1), depth - 1);
        let r = check(item.wrapping_mul(2), depth - 1);
        item.wrapping_add(l).wrapping_sub(r)
    }
    let (min_depth, max_depth) = (4, 10);
    let check_stretch = check(0, max_depth + 1);
    let long_lived = check(0, max_depth);
    let mut total = 0i32;
    let mut depth = min_depth;
    while depth <= max_depth {
        let iterations = 1 << (max_depth - depth + min_depth);
        for i in 1..=iterations {
            total = total.wrapping_add(check(i, depth));
            total = total.wrapping_add(check(-i, depth));
        }
        depth += 2;
    }
    format!(
        "binarytrees: {}\n",
        check_stretch.wrapping_add(total).wrapping_add(long_lived)
    )
}

/// Whether `stdout` is `id`'s correct output.
pub fn output_ok(id: &str, stdout: &str) -> bool {
    match id {
        "disasm" => stdout.starts_with("disasm: ") && stdout.contains("classes=180"),
        "compilerbench" => stdout.starts_with("compilerbench: ") && stdout.contains("files=19"),
        "recursive" => stdout == recursive_expected(),
        "binarytrees" => stdout == binarytrees_expected(),
        "nqueens" => stdout == "nqueens: 1840\n",
        "deltablue" => stdout == "deltablue: ok\n",
        "pidigits" => stdout.starts_with("pidigits: 3141592653"),
        _ => false,
    }
}

/// The seven programs in the order of round `round`.
pub fn round_order(rng: &mut SplitMix64) -> [usize; 7] {
    let mut order = [0, 1, 2, 3, 4, 5, 6];
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    order
}

pub struct JvmBatch {
    programs: Vec<Program>,
    rng: SplitMix64,
    op: u64,
}

impl Workload for JvmBatch {
    fn setup(seed: u64, spans: &mut Spans) -> JvmBatch {
        JvmBatch {
            programs: PROGRAMS.iter().map(|id| compile(id, spans)).collect(),
            rng: SplitMix64::new(seed),
            op: 0,
        }
    }

    fn measure(&mut self, deadline: Instant, spans: &mut Spans, phase: &mut Phase) {
        let mut run_s: Vec<Vec<f64>> = vec![Vec::new(); PROGRAMS.len()];
        let mut insns = [0u64; 7];
        let (mut class_fetches, mut cp, mut ic) = (0, CacheStats::default(), CacheStats::default());
        let mut tier = [0u64; 3];
        // Whole rounds only, so every program weighs the same.
        while phase.next_unit(deadline) {
            for i in round_order(&mut self.rng) {
                crate::calib::tick();
                let p = &self.programs[i];
                self.op += 1;
                let r = spans.op("bench.op", self.op, |s| {
                    let engine = Engine::builder(Browser::Native).tier_up(true).build();
                    let fs = mount(&engine, p, s);
                    let r = run(&engine, fs, s);
                    let c = CacheStats::from_engine(&engine);
                    cp.cp_hit += c.cp_hit;
                    cp.cp_miss += c.cp_miss;
                    ic.ic_hit += c.ic_hit;
                    ic.ic_miss += c.ic_miss;
                    let m = engine.metrics();
                    for (t, name) in tier.iter_mut().zip([
                        "jvm.tier.compiled",
                        "jvm.tier.deopt",
                        "jvm.tier.super_hit",
                    ]) {
                        *t += m.get(name);
                    }
                    r
                });
                phase.check(r.ok && output_ok(p.id, &r.stdout));
                phase.op_s.push(r.run_s);
                run_s[i].push(r.run_s);
                insns[i] = r.insns;
                class_fetches += r.class_fetches;
            }
        }
        let typical: Vec<f64> = run_s.iter().map(|v| stats::typical(v)).collect();
        let geomean = stats::geomean(&typical);
        // Each program's bytecodes per host second of its typical run,
        // geometric mean over the programs so each weighs the same.
        let rates: Vec<f64> = insns
            .iter()
            .zip(&typical)
            .map(|(&n, &s)| stats::ratio(n as f64, s))
            .collect();
        phase.work_per_s = stats::geomean(&rates);
        phase.op_p50_ms = geomean * 1e3;
        let l = &mut phase.layers;
        l.insert("run_s_geomean", geomean);
        l.insert("insns_per_s", phase.work_per_s);
        for (i, id) in PROGRAMS.iter().enumerate() {
            l.insert(per_layer(&format!("jvm.run_s.{id}")), typical[i]);
            l.insert(per_layer(&format!("jvm.insns.{id}")), insns[i] as f64);
        }
        l.insert("jvm.class_fetches", class_fetches as f64);
        l.insert("jvm.cp_cache.hit_rate", cp.cp_hit_rate());
        l.insert("jvm.icache.hit_rate", ic.ic_hit_rate());
        l.insert("jvm.tier.compiled", tier[0] as f64);
        l.insert("jvm.tier.deopt", tier[1] as f64);
        l.insert("jvm.tier.super_hit", tier[2] as f64);
        l.insert("fs.mount_s", stats::median(&spans.durations_s("fs.mount")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rust_references_match_known_answers() {
        assert_eq!(recursive_expected(), "recursive: 7226\n");
        assert_eq!(binarytrees_expected(), "binarytrees: -2722\n");
    }

    #[test]
    fn round_order_is_a_seeded_permutation() {
        let orders = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..4).map(|_| round_order(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(orders(5), orders(5));
        assert_ne!(orders(5), orders(6));
        for o in orders(7) {
            let mut s = o;
            s.sort_unstable();
            assert_eq!(s, [0, 1, 2, 3, 4, 5, 6]);
        }
    }

    #[test]
    fn checks_reject_wrong_output() {
        assert!(output_ok("nqueens", "nqueens: 1840\n"));
        assert!(!output_ok("nqueens", "nqueens: 1841\n"));
        assert!(!output_ok("deltablue", ""));
        assert!(!output_ok("unknown", "x"));
    }
}
