//! Host-machine throughput of each Doppio component, plus the
//! trace-overhead check. These are not paper figures — the paper's
//! numbers are virtual-time ratios regenerated by the `fig*` binaries —
//! but they keep the implementation honest about its own constant
//! factors. Runs under `cargo bench` via the offline harness in
//! `doppio_bench::harness`.

use std::hint::black_box;
use std::rc::Rc;

use doppio_bench::harness::{bench, bench_bytes};
use doppio_buffer::{Buffer, Encoding};
use doppio_fs::{backends, FileSystem};
use doppio_heap::UnmanagedHeap;
use doppio_jsengine::{Browser, Cost, Engine};
use doppio_jvm::{fsutil, Jvm};
use doppio_minijava::compile_to_bytes;
use doppio_sockets::frames::{decode, encode, Frame};
use doppio_sockets::sha1::sha1;
use doppio_trace::{NullSink, Profiler, RingSink};

/// Run `Main` of `classes` on a fresh Native-profile JVM; the
/// instruction count keeps the run observable.
fn run_native(classes: &[(String, Vec<u8>)]) -> u64 {
    let engine = Engine::new(Browser::Native);
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_class_files(&engine, &fs, "/classes", classes);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Main", &[]);
    jvm.run_to_completion().unwrap().instructions
}

fn bench_interpreter() {
    let int_loop = compile_to_bytes(
        r#"
        class Main {
            static int work() {
                int acc = 0;
                for (int i = 0; i < 20000; i++) { acc = acc * 31 + i; }
                return acc;
            }
            static void main(String[] args) { System.out.println(work()); }
        }
        "#,
    )
    .unwrap();
    bench("interpreter", "run_20k_iter_loop_native", || {
        black_box(run_native(&int_loop))
    });
    // Heap alloc: instances of a two-level class chain, written and read
    // through getfield/putfield.
    let object_churn = compile_to_bytes(
        r#"
        class Cell { int value; }
        class Node extends Cell { Node next; }
        class Main {
            static void main(String[] args) {
                int sum = 0;
                for (int round = 0; round < 16; round++) {
                    Node head = null;
                    for (int i = 0; i < 1000; i++) {
                        Node n = new Node();
                        n.value = i;
                        n.next = head;
                        head = n;
                    }
                    while (head != null) { sum = sum + head.value; head = head.next; }
                }
                System.out.println(sum);
            }
        }
        "#,
    )
    .unwrap();
    bench("interpreter", "object_churn", || {
        black_box(run_native(&object_churn))
    });
    // Interpreter op: invoke and return, argument passing included.
    let call_return = compile_to_bytes(
        r#"
        class Main {
            static int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            static void main(String[] args) { System.out.println(fib(21)); }
        }
        "#,
    )
    .unwrap();
    bench("interpreter", "call_return", || {
        black_box(run_native(&call_return))
    });
}

fn bench_buffer() {
    let engine = Engine::new(Browser::Chrome);
    let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    let buf = Buffer::from_slice(&engine, &payload);
    let bytes = payload.len() as u64;
    for enc in [Encoding::Base64, Encoding::Hex, Encoding::BinaryString] {
        bench_bytes("buffer", &format!("encode_{}", enc.name()), bytes, || {
            black_box(buf.to_js_string_full(enc).unwrap().len())
        });
    }
    let packed = buf.to_js_string_full(Encoding::BinaryString).unwrap();
    bench_bytes("buffer", "decode_binary_string", bytes, || {
        black_box(
            Buffer::from_js_string(&engine, Encoding::BinaryString, &packed)
                .unwrap()
                .len(),
        )
    });
}

fn bench_heap() {
    let engine = Engine::native();
    bench("unmanaged_heap", "malloc_free_churn", || {
        let mut heap = UnmanagedHeap::new(&engine, 1 << 20);
        let mut ptrs = Vec::with_capacity(128);
        for i in 0..128 {
            ptrs.push(heap.malloc(16 + (i % 7) * 8).unwrap());
        }
        for p in ptrs.drain(..).step_by(2) {
            heap.free(p).unwrap();
        }
        black_box(heap.free_block_count())
    });
    let mut heap = UnmanagedHeap::new(&engine, 4096);
    let p = heap.malloc(64).unwrap();
    bench("unmanaged_heap", "write_read_i64", || {
        heap.write_i64(p, black_box(-12345)).unwrap();
        black_box(heap.read_i64(p).unwrap())
    });
}

fn bench_fs() {
    // The same write-then-read into a 64-file tree and into a 2k-file
    // one: a mutation whose host cost grew with the tree (re-serializing
    // the directory index, say) shows up as a gap between the two rows.
    for (name, tree) in [
        ("write_read_1k_file", 64),
        ("write_1k_file_into_2k_tree", 2048),
    ] {
        let engine = Engine::native();
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        for i in 0..tree {
            fs.write_file(&format!("/f{i}"), vec![7u8; 1024], |_, r| {
                r.unwrap();
            });
        }
        engine.run_until_idle();
        let mut i = 0u32;
        bench("filesystem", name, move || {
            i += 1;
            let path = format!("/f{}", i % tree);
            fs.write_file(&path, vec![7u8; 1024], |_, r| {
                r.unwrap();
            });
            engine.run_until_idle();
            let out = std::rc::Rc::new(std::cell::Cell::new(0usize));
            let o = out.clone();
            fs.read_file(&path, move |_, r| o.set(r.unwrap().len()));
            engine.run_until_idle();
            black_box(out.get())
        });
    }
}

fn bench_sockets() {
    let frame = Frame::binary(vec![0xAB; 4096]);
    bench_bytes("sockets", "ws_frame_roundtrip_4k", 4096, || {
        let wire = encode(&frame, Some([1, 2, 3, 4]));
        black_box(decode(&wire, true).unwrap().0.payload.len())
    });
    let data = vec![0x55u8; 4096];
    bench_bytes("sockets", "sha1_4k", 4096, || black_box(sha1(&data)));
}

fn bench_minijava() {
    let src = doppio_workloads::workload("deltablue").unwrap().source;
    bench("minijava", "compile_deltablue", || {
        black_box(compile_to_bytes(src).unwrap().len())
    });
}

/// Dispatch `n` immediate events, each charging a handful of costs —
/// the hot path the tracer instruments.
fn run_events(engine: &Engine, n: u32) -> u64 {
    for _ in 0..n {
        engine
            .set_immediate(|e| {
                for _ in 0..16 {
                    e.charge(Cost::IntOp);
                    e.charge(Cost::FieldGet);
                }
                e.charge(Cost::Alloc);
            })
            .unwrap();
    }
    engine.run_until_idle()
}

/// The zero-overhead acceptance check: event dispatch with a tracer
/// that was never configured (baseline) vs. an explicit disabled
/// `NullSink` must be within noise of each other (≤2%); the enabled
/// path is reported alongside for context.
///
/// Baseline and disabled batches are interleaved — measuring the two
/// back-to-back instead lets CPU frequency drift masquerade as a
/// code-path difference far larger than the effect being bounded.
fn bench_trace_overhead() {
    const EVENTS: u32 = 256;
    const BATCHES: u32 = 9;

    let baseline_engine = Engine::new(Browser::Native);
    let disabled_engine = Engine::builder(Browser::Native)
        .trace_sink(Rc::new(NullSink))
        .build();

    // Size one batch to ~10 ms using the baseline engine.
    let mut iters: u64 = 1;
    loop {
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            black_box(run_events(&baseline_engine, EVENTS));
        }
        if t0.elapsed().as_millis() >= 10 || iters >= 1 << 22 {
            break;
        }
        iters *= 2;
    }

    let timed = |engine: &Engine| {
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            black_box(run_events(engine, EVENTS));
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    };
    let (mut baseline, mut disabled) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..BATCHES {
        baseline = baseline.min(timed(&baseline_engine));
        disabled = disabled.min(timed(&disabled_engine));
    }
    println!("tracing/events_baseline        {baseline:>12.1} ns/iter");
    println!("tracing/events_trace_disabled  {disabled:>12.1} ns/iter");

    let enabled_engine = Engine::builder(Browser::Native)
        .trace_sink(Rc::new(RingSink::with_capacity(1 << 16)))
        .build();
    bench("tracing", "events_trace_enabled", || {
        black_box(run_events(&enabled_engine, EVENTS))
    });

    let delta = (disabled - baseline) / baseline * 100.0;
    println!("tracing/disabled_vs_baseline   {delta:>+11.2} %  (acceptance: <=2%)");

    // Zero-cost-when-on for *virtual* time: histograms and the
    // sampling profiler only read the clock, they never charge it, so
    // enabling the whole observability stack must leave the simulated
    // timeline bit-identical to a bare engine's.
    let plain = Engine::new(Browser::Native);
    black_box(run_events(&plain, EVENTS));
    let instrumented = Engine::builder(Browser::Native)
        .histograms(true)
        .profiler(Profiler::new(1_000_000))
        .build();
    black_box(run_events(&instrumented, EVENTS));
    assert_eq!(
        plain.now_ns(),
        instrumented.now_ns(),
        "enabling histograms/profiler moved the virtual clock"
    );
    println!(
        "tracing/virtual_time_invariant          ok  ({} ns either way)",
        plain.now_ns()
    );
}

fn main() {
    bench_interpreter();
    bench_buffer();
    bench_heap();
    bench_fs();
    bench_sockets();
    bench_minijava();
    bench_trace_overhead();
}
