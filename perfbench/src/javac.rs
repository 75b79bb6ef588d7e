//! `fs_javac_read.memory`: the Figure 6 javac trace, preloaded once
//! during set-up and then replayed with one op outstanding, pass after
//! pass, on a Chrome-profile engine with the in-memory backend.

use std::collections::BTreeMap;
use std::time::Instant;

use doppio_workloads::fstrace::{self, javac_trace, Trace, TraceOp};

use crate::fsops::{self, Latencies, Op, Reply, World};
use crate::spans::Spans;
use crate::stats::{self, Positions};
use crate::{Phase, Workload};

/// Byte the trace's preloaded files are filled with.
const PRELOAD_BYTE: u8 = 0xCA;

/// A trace op with the reply it must get.
struct Step {
    op: Op,
    /// Size of the file a read or stat names.
    size: Option<usize>,
}

pub struct JavacRead {
    world: Option<World>,
    trace: Trace,
    steps: Vec<Step>,
    op: u64,
}

/// The trace's ops, each with its expected file size.
fn steps(trace: &Trace) -> Vec<Step> {
    let sizes: BTreeMap<&str, usize> = trace
        .preload
        .iter()
        .map(|(p, s)| (p.as_str(), *s))
        .collect();
    trace
        .ops
        .iter()
        .map(|op| match op {
            TraceOp::ReadFile(p) => Step {
                op: Op::Read(p.clone()),
                size: sizes.get(p.as_str()).copied(),
            },
            TraceOp::Stat(p) => Step {
                op: Op::Stat(p.clone()),
                size: sizes.get(p.as_str()).copied(),
            },
            TraceOp::Readdir(p) => Step {
                op: Op::Readdir(p.clone()),
                size: None,
            },
            TraceOp::WriteFile(p, n) => Step {
                op: Op::Write(p.clone(), vec![0xAB; *n]),
                size: None,
            },
        })
        .collect()
}

fn reply_ok(step: &Step, reply: &Reply) -> bool {
    match (&step.op, reply) {
        (Op::Read(_), Reply::Data(d)) => {
            Some(d.len()) == step.size && d.iter().all(|&b| b == PRELOAD_BYTE)
        }
        (Op::Stat(_), Reply::Size(n)) => Some(*n) == step.size,
        (Op::Readdir(_), Reply::Names(names)) => !names.is_empty(),
        (Op::Write(..), Reply::Done) => true,
        _ => false,
    }
}

impl Workload for JavacRead {
    fn setup(seed: u64, spans: &mut Spans) -> Self {
        let trace = javac_trace(seed);
        let world = World::new(false, spans);
        spans.span("fs.preload", |_| {
            fstrace::preload(&world.engine, &world.fs, &trace)
        });
        let world = Some(world);
        let steps = steps(&trace);
        JavacRead {
            world,
            trace,
            steps,
            op: 0,
        }
    }

    fn measure(&mut self, deadline: Instant, spans: &mut Spans, phase: &mut Phase) {
        let world = self.world.take().expect("a world between phases");
        world.reset_counters(spans.is_on());
        let mut counters = crate::metrics::Values::new();
        let mut lat = Latencies::default();
        let (mut positions, mut latency) = (Positions::default(), Positions::default());
        let expect_bytes = self.trace.read_bytes() as u64;
        while phase.next_unit(deadline) {
            let before = world.fs.stats().bytes_read;
            for (pos, step) in self.steps.iter().enumerate() {
                crate::calib::tick();
                self.op += 1;
                let kind = step.op.kind();
                let (reply, issue_s, idle_s) =
                    spans.op("bench.op", self.op, |s| world.run(step.op.clone(), s));
                phase.check(reply_ok(step, &reply));
                latency.push(pos, issue_s);
                if spans.is_on() {
                    // Raw samples feed the traced run's tails only.
                    phase.op_s.push(issue_s);
                    lat.push(kind, issue_s);
                }
                positions.push(pos, idle_s);
            }
            // The fs's own byte count agrees with the trace's.
            if world.fs.stats().bytes_read - before != expect_bytes {
                phase.failed += 1;
            }
        }
        let preload_s = stats::median(&spans.durations_s("fs.preload"));
        phase.layers.insert("fs.preload_s.memory", preload_s);
        world.counters(&mut counters);
        self.world = Some(world);
        let pass_ops = positions.len();
        phase.work_per_s = stats::ratio(pass_ops as f64, positions.typical_s());
        phase.op_p50_ms = stats::median(latency.typicals()) * 1e3;
        fsops::finish("memory", counters, &lat, phase, spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_trace_comes_from_the_seed() {
        let ops = |seed| javac_trace(seed).ops;
        assert_eq!(ops(4), ops(4));
        assert_ne!(ops(4), ops(5));
    }

    #[test]
    fn a_replay_reads_the_traced_bytes() {
        let mut spans = Spans::default();
        let mut w = <JavacRead as Workload>::setup(9, &mut spans);
        let mut phase = Phase::default();
        w.measure(Instant::now(), &mut spans, &mut phase);
        // One whole pass runs even with the deadline already past.
        assert_eq!(phase.attempted as usize, w.trace.ops.len());
        assert_eq!(phase.failed, 0);
        assert_eq!(phase.layers["fs.bytes_read"] as usize, w.trace.read_bytes());
    }
}
