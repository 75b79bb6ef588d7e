//! The bytecode executor end to end.
//!
//! Every virtual observable of a guest run is pinned by a golden file
//! under `tests/golden/executor/`: stdout, virtual wall time, the
//! instruction count and the `RunReport` JSON of each guest, and the
//! schedule-exploration pick log of a threaded guest. Together they fix
//! the executor's contract — the exact cost sequence, cache-counter
//! bumps and scheduling points of every bytecode — so any drift shows
//! up as a diff. The malformed-code tests check that no bytecode can
//! panic the host: bad code becomes a guest `InternalError`.

use std::path::Path;

use doppio::classfile::access::{ACC_PUBLIC, ACC_STATIC};
use doppio::classfile::builder::{ClassBuilder, MethodBuilder};
use doppio::classfile::opcodes as op;
use doppio::classfile::parse;
use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Engine};
use doppio::jvm::{fsutil, Jvm, JvmRunResult};
use doppio::minijava::compile_to_bytes;
use doppio::prng::SplitMix64;
use doppio::report::RunReport;
use doppio::schedtest::{explore, ExploreConfig};
use doppio::workloads;

const SEED: u64 = 0x71E2_0008;

/// Compare `got` with the golden file `name`.
fn assert_golden(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/executor")
        .join(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert!(
        got == want,
        "{} drifted from its golden file\n--- got ---\n{got}\n--- want ---\n{want}",
        path.display()
    );
}

/// Run `Main` of the given classes on a fresh Chrome engine.
fn run_classes(classes: &[(String, Vec<u8>)]) -> (JvmRunResult, Engine) {
    let engine = Engine::new(Browser::Chrome);
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_class_files(&engine, &fs, "/classes", classes);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Main", &[]);
    let r = jvm.run_to_completion().expect("the run completes");
    (r, engine)
}

/// A guest's virtual observables, rendered for its golden file.
fn observables(src: &str) -> String {
    let (r, engine) = run_classes(&compile_to_bytes(src).unwrap());
    assert!(r.uncaught.is_none(), "uncaught: {:?}", r.uncaught);
    let report = RunReport::collect("executor", &engine).to_json_string();
    format!(
        "stdout: {:?}\nwall_ns: {}\ninstructions: {}\nreport: {report}\n",
        r.stdout, r.wall_ns, r.instructions
    )
}

/// A hot loop with every superinstruction shape in its body:
/// `iload;iload;iadd` (`a + b`), `aload;getfield` (`acc.bias`) and the
/// `iinc;goto` latch of the `for`.
const HOT_LOOP: &str = r#"
    class Acc {
        int bias;
        Acc(int b) { this.bias = b; }
    }
    class Main {
        static void main(String[] args) {
            Acc acc = new Acc(3);
            int sum = 0;
            for (int i = 0; i < 5000; i++) {
                int a = i;
                int b = sum;
                sum = a + b;
                sum = sum + acc.bias;
            }
            System.out.println("sum=" + sum);
        }
    }
"#;

#[test]
fn hot_loop_matches_its_golden() {
    let got = observables(HOT_LOOP);
    // Σ(i + 3) for i in 0..5000.
    assert!(got.starts_with("stdout: \"sum=12512500\\n\""), "{got}");
    assert_golden("hot_loop.txt", &got);
}

/// The inline-cache canary: `poll` goes monomorphic on `A`, then a
/// mid-run subclass load sends a `B` receiver through the same call
/// site, which must miss and re-dispatch.
const SUBCLASS_SWAP: &str = r#"
    class A {
        int tag() { return 1; }
    }
    class B extends A {
        int tag() { return 2; }
    }
    class Main {
        static int poll(A a) { return a.tag(); }
        static void main(String[] args) {
            A a = new A();
            int sum = 0;
            for (int i = 0; i < 1000; i++) { sum = sum + poll(a); }
            A b = new B();
            for (int i = 0; i < 10; i++) { sum = sum + poll(b); }
            System.out.println("sum=" + sum);
        }
    }
"#;

#[test]
fn subclass_swap_matches_its_golden() {
    let got = observables(SUBCLASS_SWAP);
    assert!(got.starts_with("stdout: \"sum=1020\\n\""), "{got}");
    assert_golden("subclass_swap.txt", &got);
}

/// Two workers yielding between bursts, so the scheduler has real
/// choices to make.
const THREADED_HOT: &str = r#"
    class Worker extends Thread {
        int total;
        void run() {
            int sum = 0;
            for (int burst = 0; burst < 8; burst++) {
                for (int j = 0; j < 50; j++) { sum = sum + j; }
                Thread.yield();
            }
            total = sum;
        }
    }
    class Main {
        static void main(String[] args) {
            Worker w1 = new Worker();
            Worker w2 = new Worker();
            w1.start();
            w2.start();
            w1.join();
            w2.join();
            System.out.println("t=" + (w1.total + w2.total));
        }
    }
"#;

#[test]
fn threaded_guest_and_its_explore_pick_log_match_their_goldens() {
    assert_golden("threaded_hot.txt", &observables(THREADED_HOT));

    // The executor must not move, add or remove a scheduling point: the
    // same seed explores the same schedules pick for pick.
    let classes = compile_to_bytes(THREADED_HOT).unwrap();
    let report = explore(&ExploreConfig::new(6, SEED), move |sched| {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
        let jvm = Jvm::new(&engine, fs);
        jvm.runtime().set_scheduler(sched);
        jvm.launch("Main", &[]);
        match jvm.run_to_completion() {
            Err(e) => Err(e.to_string()),
            Ok(r) if r.uncaught.is_some() => Err(format!("uncaught: {:?}", r.uncaught)),
            Ok(r) if r.stdout != "t=19600\n" => Err(format!("stdout {:?}", r.stdout)),
            Ok(_) => Ok(()),
        }
    });
    assert!(
        report.all_passed(),
        "{:?}",
        report.failure.map(|f| f.message)
    );
    let picks: String = report
        .runs
        .iter()
        .map(|r| {
            let line: Vec<String> = r.picks.iter().map(|p| p.to_string()).collect();
            line.join(" ") + "\n"
        })
        .collect();
    assert_golden("threaded_hot.picks", &picks);
}

/// Class `Main` with `main` calling `bad()` inside a handler for
/// `java/lang/InternalError` that prints `caught`, where `bad`'s body
/// is `bad_code` verbatim.
fn caller_of_bad_code(bad_code: Vec<u8>) -> Vec<(String, Vec<u8>)> {
    let mut main = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 1);
    let (start, end, done) = (main.new_label(), main.new_label(), main.new_label());
    main.bind(start);
    main.invokestatic("Main", "bad", "()V");
    main.goto_(done);
    main.bind(end);
    main.pop();
    main.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
    main.ldc_string("caught");
    main.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
    main.bind(done);
    main.return_void();
    main.add_exception_handler(start, end, end, Some("java/lang/InternalError"));
    let mut bad = MethodBuilder::new(ACC_STATIC, "bad", "()V", 0);
    bad.return_void();
    let mut class = ClassBuilder::new("Main", "java/lang/Object");
    class.add_method(main);
    class.add_method(bad);
    let mut cf = class.finish();
    let bad = cf.methods.iter_mut().find(|m| m.name == "bad").unwrap();
    bad.code.as_mut().unwrap().bytecode = bad_code;
    vec![("Main".to_string(), cf.to_bytes())]
}

#[test]
fn malformed_code_throws_internal_error_at_invocation() {
    for (bad_code, why) in [
        // A bare `sipush` missing its operand.
        (vec![op::SIPUSH], "truncated operand at pc 0"),
        // `goto +1` lands inside its own operand.
        (
            vec![op::GOTO, 0, 1, op::RETURN],
            "targets pc 1, not an instruction",
        ),
        (vec![op::ICONST_0], "runs off its end"),
        (vec![], "runs off its end"),
    ] {
        // The caller catches the error thrown at the call...
        let (r, _) = run_classes(&caller_of_bad_code(bad_code.clone()));
        assert_eq!((r.stdout.as_str(), r.uncaught), ("caught\n", None));

        // ...and as `main` itself, it is the thread's uncaught exception.
        let mut classes = caller_of_bad_code(vec![op::RETURN]);
        let mut cf = parse(&classes[0].1).unwrap();
        let main = cf.methods.iter_mut().find(|m| m.name == "main").unwrap();
        let code = main.code.as_mut().unwrap();
        code.bytecode = bad_code;
        code.exception_table.clear();
        classes[0].1 = cf.to_bytes();
        let (r, _) = run_classes(&classes);
        let uncaught = r.uncaught.expect("malformed main throws");
        assert!(
            uncaught.contains("java.lang.InternalError") && uncaught.contains(why),
            "{uncaught}"
        );
    }
}

/// Seeded truncation fuzz over MiniJava-compiled workloads: cut one
/// method's code at a random offset. Every mutant must run to the end
/// or die of an uncaught guest exception — never panic the host.
#[test]
fn truncated_methods_never_panic_the_host() {
    let mut rng = SplitMix64::new(0x7e3c_a7ed);
    for id in ["nqueens", "binarytrees"] {
        let classes = compile_to_bytes(workloads::workload(id).unwrap().source).unwrap();
        let (mut rejected, mut ran) = (0, 0);
        for _ in 0..24 {
            let mut mutant = classes.clone();
            let c = rng.gen_range(0..mutant.len());
            let mut cf = parse(&mutant[c].1).unwrap();
            let with_code: Vec<usize> = (0..cf.methods.len())
                .filter(|&m| cf.methods[m].code.is_some())
                .collect();
            let m = with_code[rng.gen_range(0..with_code.len())];
            let code = cf.methods[m].code.as_mut().unwrap();
            let cut = rng.gen_range(0..code.bytecode.len());
            code.bytecode.truncate(cut);
            mutant[c].1 = cf.to_bytes();
            let (r, _) = run_classes(&mutant);
            match r.uncaught {
                Some(u) if u.contains("java.lang.InternalError") => rejected += 1,
                _ => ran += 1,
            }
        }
        assert!(rejected > 0, "{id}: no mutant was rejected ({ran} ran)");
    }
}
