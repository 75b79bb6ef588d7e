//! `fs_churn_write.<backend>`: a seeded write-heavy op mix — about 60%
//! whole-file create or overwrite (log-uniform 1–64 KiB), 10% unlink,
//! 5% rename or mkdir and 25% read or stat with read-back — that grows
//! a tree to a few thousand files. Each pass replays the sequence on a
//! fresh fs; every reply is checked against the generator's model.

use std::collections::BTreeMap;
use std::time::Instant;

use doppio_prng::SplitMix64;

use crate::fsops::{self, Latencies, Op, Reply, World};
use crate::spans::Spans;
use crate::stats::{self, Positions};
use crate::{Phase, Workload};

/// Operations per pass on the memory and the replicated backend. The
/// replicated store journals every version of the directory index, so
/// its memory grows with the square of the tree and its pass is shorter.
pub const PASS_OPS: [usize; 2] = [8_000, 3_000];
/// Directory every churned path lives under.
const ROOT: &str = "/churn";
/// Directories created before the first op.
const START_DIRS: usize = 8;

/// A generated op and the reply the model predicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gen {
    /// Write the contents of version `id`, `len` bytes long.
    Write {
        path: String,
        id: u64,
        len: usize,
    },
    Unlink(String),
    Rename(String, String),
    Mkdir(String),
    /// Read a file whose contents must be version `id`.
    Read {
        path: String,
        id: u64,
        len: usize,
    },
    /// Stat a file whose size must be `len`.
    Stat {
        path: String,
        len: usize,
    },
}

/// The bytes of file version `id`, `len` long.
pub fn content(id: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(id);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The op sequence of one pass, generated from `seed`.
pub fn generate(seed: u64, n: usize) -> Vec<Gen> {
    let mut rng = SplitMix64::new(seed);
    let mut dirs: Vec<String> = (0..START_DIRS).map(|i| format!("{ROOT}/d{i:03}")).collect();
    // Path → (version, len), plus a list for uniform picks.
    let mut files: BTreeMap<String, (u64, usize)> = BTreeMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut next_file = 0u64;
    let mut next_id = seed.rotate_left(17);
    let mut ops = Vec::with_capacity(n);
    let pick = |rng: &mut SplitMix64, v: &[String]| v[rng.gen_range(0..v.len())].clone();
    while ops.len() < n {
        let r = rng.gen_range(0..100u32);
        if names.is_empty() || r < 60 {
            // Create (three times in four) or overwrite.
            let path = if names.is_empty() || rng.gen_range(0..4u32) > 0 {
                let dir = pick(&mut rng, &dirs);
                next_file += 1;
                let p = format!("{dir}/f{next_file:06}");
                names.push(p.clone());
                p
            } else {
                pick(&mut rng, &names)
            };
            // Log-uniform 1–64 KiB.
            let len = (1024.0 * 64f64.powf(rng.gen_range(0.0f64..1.0))) as usize;
            next_id = next_id.wrapping_add(1);
            files.insert(path.clone(), (next_id, len));
            ops.push(Gen::Write {
                path,
                id: next_id,
                len,
            });
        } else if r < 70 {
            let i = rng.gen_range(0..names.len());
            let path = names.swap_remove(i);
            files.remove(&path);
            ops.push(Gen::Unlink(path));
        } else if r < 75 {
            if rng.gen_range(0..2u32) == 0 {
                let i = rng.gen_range(0..names.len());
                let from = names.swap_remove(i);
                let dir = pick(&mut rng, &dirs);
                next_file += 1;
                let to = format!("{dir}/f{next_file:06}");
                let v = files.remove(&from).expect("listed files are modelled");
                files.insert(to.clone(), v);
                names.push(to.clone());
                ops.push(Gen::Rename(from, to));
            } else {
                let dir = format!("{ROOT}/d{:03}", dirs.len());
                dirs.push(dir.clone());
                ops.push(Gen::Mkdir(dir));
            }
        } else {
            let path = pick(&mut rng, &names);
            let (id, len) = files[&path];
            if rng.gen_range(0..5u32) < 3 {
                ops.push(Gen::Read { path, id, len });
            } else {
                ops.push(Gen::Stat { path, len });
            }
        }
    }
    ops
}

fn to_op(g: &Gen) -> Op {
    match g {
        Gen::Write { path, id, len } => Op::Write(path.clone(), content(*id, *len)),
        Gen::Unlink(p) => Op::Unlink(p.clone()),
        Gen::Rename(a, b) => Op::Rename(a.clone(), b.clone()),
        Gen::Mkdir(p) => Op::Mkdir(p.clone()),
        Gen::Read { path, .. } => Op::Read(path.clone()),
        Gen::Stat { path, .. } => Op::Stat(path.clone()),
    }
}

fn reply_ok(g: &Gen, reply: &Reply) -> bool {
    match (g, reply) {
        (Gen::Read { id, len, .. }, Reply::Data(d)) => *d == content(*id, *len),
        (Gen::Stat { len, .. }, Reply::Size(n)) => n == len,
        (Gen::Write { .. } | Gen::Unlink(_) | Gen::Rename(..) | Gen::Mkdir(_), Reply::Done) => true,
        _ => false,
    }
}

/// A fresh world with the starting directories.
fn fresh(replicated: bool, spans: &mut Spans) -> World {
    let world = World::new(replicated, spans);
    let mut ok = true;
    for i in 0..=START_DIRS {
        let dir = if i == 0 {
            ROOT.to_string()
        } else {
            format!("{ROOT}/d{:03}", i - 1)
        };
        ok &= world.run(Op::Mkdir(dir), &mut Spans::default()).0 == Reply::Done;
    }
    assert!(ok, "a fresh fs accepts the starting directories");
    world
}

pub struct ChurnWrite<const REPLICATED: bool> {
    ops: Vec<Gen>,
    world: Option<World>,
    op: u64,
}

impl<const REPLICATED: bool> ChurnWrite<REPLICATED> {
    const BACKEND: &'static str = if REPLICATED { "replicated" } else { "memory" };
}

impl<const REPLICATED: bool> Workload for ChurnWrite<REPLICATED> {
    fn setup(seed: u64, spans: &mut Spans) -> Self {
        ChurnWrite {
            ops: generate(seed, PASS_OPS[REPLICATED as usize]),
            world: Some(fresh(REPLICATED, spans)),
            op: 0,
        }
    }

    fn measure(&mut self, deadline: Instant, spans: &mut Spans, phase: &mut Phase) {
        let mut lat = Latencies::default();
        let (mut positions, mut latency) = (Positions::default(), Positions::default());
        let mut counters = crate::metrics::Values::new();
        // Whole passes only, so every pass weighs the same.
        while phase.next_unit(deadline) {
            let world = match self.world.take() {
                Some(w) => w,
                None => spans.span("bench.reset", |s| fresh(REPLICATED, s)),
            };
            world.reset_counters(spans.is_on());
            for (pos, g) in self.ops.iter().enumerate() {
                crate::calib::tick();
                self.op += 1;
                let op = to_op(g);
                let kind = op.kind();
                let (reply, issue_s, idle_s) = spans.op("bench.op", self.op, |s| world.run(op, s));
                phase.check(reply_ok(g, &reply));
                latency.push(pos, issue_s);
                if spans.is_on() {
                    // Raw samples feed the traced run's tails only.
                    phase.op_s.push(issue_s);
                    lat.push(kind, issue_s);
                }
                positions.push(pos, idle_s);
            }
            world.counters(&mut counters);
        }
        let pass_ops = positions.len();
        phase.work_per_s = stats::ratio(pass_ops as f64, positions.typical_s());
        phase.op_p50_ms = stats::median(latency.typicals()) * 1e3;
        fsops::finish(Self::BACKEND, counters, &lat, phase, spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Files left after applying `ops`.
    fn live_files(ops: &[Gen]) -> usize {
        let mut live = std::collections::BTreeSet::new();
        for op in ops {
            match op {
                Gen::Write { path, .. } => {
                    live.insert(path);
                }
                Gen::Unlink(p) => {
                    live.remove(p);
                }
                Gen::Rename(a, b) => {
                    live.remove(a);
                    live.insert(b);
                }
                _ => {}
            }
        }
        live.len()
    }

    #[test]
    fn same_seed_same_ops_and_different_seeds_differ() {
        assert_eq!(generate(11, 2_000), generate(11, 2_000));
        assert_ne!(generate(11, 2_000), generate(12, 2_000));
        // A shorter sequence is a prefix of a longer one.
        assert_eq!(generate(11, 500)[..], generate(11, 2_000)[..500]);
    }

    #[test]
    fn mix_matches_the_specification() {
        let ops = generate(2014, PASS_OPS[0]);
        let share =
            |f: fn(&Gen) -> bool| ops.iter().filter(|g| f(g)).count() as f64 / ops.len() as f64;
        let writes = share(|g| matches!(g, Gen::Write { .. }));
        let unlinks = share(|g| matches!(g, Gen::Unlink(_)));
        let moves = share(|g| matches!(g, Gen::Rename(..) | Gen::Mkdir(_)));
        let reads = share(|g| matches!(g, Gen::Read { .. } | Gen::Stat { .. }));
        assert!((0.57..0.63).contains(&writes), "writes {writes}");
        assert!((0.08..0.12).contains(&unlinks), "unlinks {unlinks}");
        assert!(
            (0.035..0.065).contains(&moves),
            "renames and mkdirs {moves}"
        );
        assert!((0.22..0.28).contains(&reads), "reads and stats {reads}");
        for g in &ops {
            if let Gen::Write { len, .. } = g {
                assert!((1024..=64 * 1024).contains(len), "size {len}");
            }
        }
        let files = live_files(&ops);
        assert!(
            (2_000..4_000).contains(&files),
            "memory pass ends with {files} files"
        );
        let files = live_files(&generate(2014, PASS_OPS[1]));
        assert!(
            (800..2_000).contains(&files),
            "replicated pass ends with {files} files"
        );
    }

    #[test]
    fn content_is_a_pure_function_of_version_and_length() {
        assert_eq!(content(5, 1000), content(5, 1000));
        assert_ne!(content(5, 1000), content(6, 1000));
        assert_eq!(content(5, 1001).len(), 1001);
        assert_eq!(content(5, 1001)[..1000], content(5, 1000)[..]);
    }

    #[test]
    fn a_pass_on_the_memory_backend_checks_clean() {
        let ops = generate(3, 600);
        let world = fresh(false, &mut Spans::default());
        for g in &ops {
            let (reply, _, _) = world.run(to_op(g), &mut Spans::default());
            assert!(reply_ok(g, &reply), "{g:?} got {reply:?}");
        }
        // A wrong model is caught.
        let read = ops.iter().find(|g| matches!(g, Gen::Read { .. })).unwrap();
        if let Gen::Read { path, id, len } = read {
            let wrong = Gen::Read {
                path: path.clone(),
                id: id + 1,
                len: *len,
            };
            let (reply, _, _) = world.run(to_op(read), &mut Spans::default());
            assert!(!reply_ok(&wrong, &reply));
        }
    }
}
