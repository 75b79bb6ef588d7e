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

/// Class files by binary name.
type Classes = Vec<(String, Vec<u8>)>;

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

/// Class `Main` whose `main` runs `call` inside a handler for
/// `java/lang/InternalError` that prints `caught`, plus `extra` methods.
fn main_catching(
    call: impl FnOnce(&mut MethodBuilder),
    extra: Vec<MethodBuilder>,
) -> (String, Vec<u8>) {
    let mut main = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 1);
    let (start, end, done) = (main.new_label(), main.new_label(), main.new_label());
    main.bind(start);
    call(&mut main);
    main.goto_(done);
    main.bind(end);
    main.pop();
    main.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
    main.ldc_string("caught");
    main.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
    main.bind(done);
    main.return_void();
    main.add_exception_handler(start, end, end, Some("java/lang/InternalError"));
    let mut class = ClassBuilder::new("Main", "java/lang/Object");
    class.add_method(main);
    for m in extra {
        class.add_method(m);
    }
    ("Main".to_string(), class.finish().to_bytes())
}

/// A `void` method `name` of `desc` that returns at once, with
/// `max_locals` local slots.
fn empty_method(flags: u16, name: &str, desc: &str, max_locals: u16) -> MethodBuilder {
    let mut m = MethodBuilder::new(flags, name, desc, max_locals);
    m.return_void();
    m
}

/// Class `Main` with `main` calling `bad()` inside a handler for
/// `java/lang/InternalError` that prints `caught`, where `bad`'s body
/// is `bad_code` verbatim.
fn caller_of_bad_code(bad_code: Vec<u8>) -> Classes {
    let (name, bytes) = main_catching(
        |m| m.invokestatic("Main", "bad", "()V"),
        vec![empty_method(ACC_STATIC, "bad", "()V", 0)],
    );
    let mut cf = parse(&bytes).unwrap();
    let bad = cf.methods.iter_mut().find(|m| m.name == "bad").unwrap();
    bad.code.as_mut().unwrap().bytecode = bad_code;
    vec![(name, cf.to_bytes())]
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

/// A guest run's virtual observables, including its error stream and
/// uncaught exception, rendered for a golden file.
fn render(r: &JvmRunResult, engine: &Engine) -> String {
    let report = RunReport::collect("executor", engine).to_json_string();
    format!(
        "stdout: {:?}\nstderr: {:?}\nuncaught: {:?}\nwall_ns: {}\ninstructions: {}\nreport: {report}\n",
        r.stdout, r.stderr, r.uncaught, r.wall_ns, r.instructions
    )
}

/// The object model: a three-level class chain, a field name declared
/// in both a subclass and its superclass, default reads of every field
/// kind, and a linked list built and walked through inherited fields.
const OBJECT_MODEL: &str = r#"
    class Base {
        int x;
        long big;
        double ratio;
        boolean flag;
        Base link;
        int baseX() { return x; }
        void setBaseX(int v) { x = v; }
    }
    class Mid extends Base {
        int y;
        Mid next;
    }
    class Leaf extends Mid {
        int x;
        String label;
    }
    class Main {
        static void main(String[] args) {
            Leaf leaf = new Leaf();
            System.out.println(leaf.x);
            System.out.println(leaf.baseX());
            System.out.println(leaf.big);
            System.out.println(leaf.ratio);
            System.out.println(leaf.flag);
            System.out.println(leaf.link == null);
            System.out.println(leaf.label == null);
            System.out.println(leaf.next == null);
            leaf.x = 7;
            leaf.setBaseX(11);
            leaf.big = 5000000000L;
            leaf.ratio = 0.25;
            leaf.flag = true;
            leaf.label = "leaf";
            System.out.println("x=" + leaf.x + " baseX=" + leaf.baseX());
            System.out.println(leaf.big);
            System.out.println(leaf.ratio);
            System.out.println(leaf.flag);
            System.out.println(leaf.label);
            Mid head = null;
            for (int i = 0; i < 50; i++) {
                Mid m = new Mid();
                if (i % 2 == 0) { m = new Leaf(); }
                m.y = i;
                m.setBaseX(i * 3);
                m.next = head;
                m.link = leaf;
                head = m;
            }
            int sum = 0;
            int links = 0;
            Mid cur = head;
            while (cur != null) {
                sum = sum + cur.y + cur.baseX();
                if (cur.link == leaf) { links = links + 1; }
                cur = cur.next;
            }
            System.out.println("sum=" + sum + " links=" + links);
        }
    }
"#;

#[test]
fn object_model_matches_its_golden() {
    let (r, engine) = run_classes(&compile_to_bytes(OBJECT_MODEL).unwrap());
    assert!(r.uncaught.is_none(), "uncaught: {:?}", r.uncaught);
    // Σ(i + 3i) for i in 0..50, and every node links to `leaf`.
    assert!(r.stdout.ends_with("sum=4900 links=50\n"), "{}", r.stdout);
    assert_golden("object_model.txt", &render(&r, &engine));
}

/// Append `System.out.println(I)` of the int on top of the stack.
fn print_int(m: &mut MethodBuilder) {
    m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
    m.swap();
    m.invokevirtual("java/io/PrintStream", "println", "(I)V");
}

/// An unverified guest that reads and writes field `A.x` through a
/// receiver of the unrelated class `B`, which declares its own `x`.
fn ill_typed_receiver_classes() -> Classes {
    let mut a = ClassBuilder::new("A", "java/lang/Object");
    a.add_field(ACC_PUBLIC, "x", "I");
    let mut b = ClassBuilder::new("B", "java/lang/Object");
    b.add_field(ACC_PUBLIC, "x", "I");
    b.add_field(ACC_PUBLIC, "y", "J");
    let mut main = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 2);
    main.new_object("B");
    main.astore(1);
    // A.x on a B: absent, so the default.
    main.aload(1);
    main.getfield("A", "x", "I");
    print_int(&mut main);
    // Write A.x on the B, then read it back.
    main.aload(1);
    main.ldc_int(42);
    main.putfield("A", "x", "I");
    main.aload(1);
    main.getfield("A", "x", "I");
    print_int(&mut main);
    // B's own x is a different field and is untouched.
    main.aload(1);
    main.getfield("B", "x", "I");
    print_int(&mut main);
    main.aload(1);
    main.ldc_int(9);
    main.putfield("B", "x", "I");
    main.aload(1);
    main.getfield("B", "x", "I");
    print_int(&mut main);
    main.aload(1);
    main.getfield("A", "x", "I");
    print_int(&mut main);
    // A second write to the stray field replaces the first.
    main.aload(1);
    main.ldc_int(43);
    main.putfield("A", "x", "I");
    main.aload(1);
    main.getfield("A", "x", "I");
    print_int(&mut main);
    // B.y is a long beside the stray entry.
    main.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
    main.aload(1);
    main.getfield("B", "y", "J");
    main.invokevirtual("java/io/PrintStream", "println", "(J)V");
    main.return_void();
    let mut class = ClassBuilder::new("Main", "java/lang/Object");
    class.add_method(main);
    [("A", a), ("B", b), ("Main", class)]
        .into_iter()
        .map(|(n, c)| (n.to_string(), c.finish().to_bytes()))
        .collect()
}

#[test]
fn ill_typed_receiver_matches_its_golden() {
    let (r, engine) = run_classes(&ill_typed_receiver_classes());
    assert_eq!(r.stdout, "0\n42\n0\n9\n42\n43\n0\n");
    assert_golden("ill_typed_receiver.txt", &render(&r, &engine));
}

/// The natives that read fields by name: `getClass().getName()`,
/// `System.err`, and a thrown exception's message and trace, printed by
/// `printStackTrace` and then left uncaught.
fn field_reading_native_classes() -> Classes {
    let mut main = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 2);
    main.line(1);
    main.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
    main.new_object("Main");
    main.invokevirtual("java/lang/Object", "getClass", "()Ljava/lang/Class;");
    main.invokevirtual("java/lang/Class", "getName", "()Ljava/lang/String;");
    main.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
    main.line(2);
    main.getstatic("java/lang/System", "err", "Ljava/io/PrintStream;");
    main.ldc_string("to stderr");
    main.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
    main.line(3);
    main.invokestatic("Main", "fail", "()V");
    main.return_void();
    let mut fail = MethodBuilder::new(ACC_STATIC, "fail", "()V", 1);
    fail.line(7);
    fail.new_object("java/lang/IllegalStateException");
    fail.dup();
    fail.ldc_string("boom");
    fail.invokespecial(
        "java/lang/IllegalStateException",
        "<init>",
        "(Ljava/lang/String;)V",
    );
    fail.astore(0);
    fail.line(8);
    fail.aload(0);
    fail.invokevirtual("java/lang/Throwable", "printStackTrace", "()V");
    fail.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
    fail.aload(0);
    fail.invokevirtual("java/lang/Throwable", "getMessage", "()Ljava/lang/String;");
    fail.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
    fail.line(9);
    fail.aload(0);
    fail.athrow();
    let mut class = ClassBuilder::new("Main", "java/lang/Object");
    class.add_method(main);
    class.add_method(fail);
    vec![("Main".to_string(), class.finish().to_bytes())]
}

#[test]
fn field_reading_natives_match_their_golden() {
    let (r, engine) = run_classes(&field_reading_native_classes());
    assert_eq!(r.stdout, "Main\nboom\n");
    assert!(r
        .stderr
        .starts_with("to stderr\njava.lang.IllegalStateException: boom\n\tat "));
    let uncaught = r.uncaught.as_deref().expect("the exception escapes main");
    assert!(uncaught.contains("boom"), "{uncaught}");
    assert_golden("field_reading_natives.txt", &render(&r, &engine));
}

/// Unverified code can pass arguments that do not fit: more argument
/// slots than the callee's `max_locals`, or fewer operand-stack slots
/// than the descriptor takes. Each is a guest `InternalError` thrown
/// from the caller, never a host panic.
#[test]
fn ill_fitting_arguments_throw_internal_error_from_the_caller() {
    let cases: Vec<(&str, Classes)> = vec![
        (
            "max_locals",
            vec![main_catching(
                |m| {
                    m.ldc_int(1);
                    m.ldc_int(2);
                    m.invokestatic("Main", "f", "(II)V");
                },
                vec![empty_method(ACC_STATIC, "f", "(II)V", 1)],
            )],
        ),
        (
            "operand stack holds 1",
            vec![main_catching(
                |m| {
                    m.ldc_int(1);
                    m.invokestatic("Main", "f", "(II)V");
                },
                vec![empty_method(ACC_STATIC, "f", "(II)V", 2)],
            )],
        ),
        (
            "operand stack holds 0",
            vec![main_catching(
                |m| m.invokevirtual("Main", "h", "()V"),
                vec![empty_method(ACC_PUBLIC, "h", "()V", 1)],
            )],
        ),
        ("max_locals 0", {
            let mut t = ClassBuilder::new("T", "java/lang/Thread");
            let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
            init.aload(0);
            init.invokespecial("java/lang/Thread", "<init>", "()V");
            init.return_void();
            t.add_method(init);
            t.add_method(empty_method(ACC_PUBLIC, "run", "()V", 0));
            vec![
                ("T".to_string(), t.finish().to_bytes()),
                main_catching(
                    |m| {
                        m.new_object("T");
                        m.dup();
                        m.invokespecial("T", "<init>", "()V");
                        m.invokevirtual("T", "start", "()V");
                    },
                    vec![],
                ),
            ]
        }),
    ];
    for (why, classes) in cases {
        let (r, _) = run_classes(&classes);
        assert_eq!((r.stdout.as_str(), r.uncaught), ("caught\n", None), "{why}");

        // Without the handler it is the thread's uncaught exception.
        let mut classes = classes;
        let main = classes.iter_mut().find(|(n, _)| n == "Main").unwrap();
        let mut cf = parse(&main.1).unwrap();
        for m in &mut cf.methods {
            m.code.as_mut().unwrap().exception_table.clear();
        }
        main.1 = cf.to_bytes();
        let (r, _) = run_classes(&classes);
        let uncaught = r.uncaught.expect("the error escapes main");
        assert!(
            uncaught.contains("java.lang.InternalError") && uncaught.contains(why),
            "{why}: {uncaught}"
        );
    }
}

/// A call-heavy guest: `fib` and `ack` recursion, virtual dispatch
/// across a subclass, `String.length`/`charAt` loops over an ASCII and
/// a non-ASCII string, and the virtual clock read inside every loop, so
/// each call, return and native boundary is pinned to its virtual time.
const CALL_HEAVY: &str = r#"
    class Shape {
        int area(int k) { return k; }
    }
    class Square extends Shape {
        int area(int k) { return k * k; }
    }
    class Main {
        static int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        static int ack(int m, int n) {
            if (m == 0) { return n + 1; }
            if (n == 0) { return ack(m - 1, 1); }
            return ack(m - 1, ack(m, n - 1));
        }
        static int count(String text, char a, char b) {
            int hits = 0;
            for (int i = 0; i < text.length(); i++) {
                char c = text.charAt(i);
                if (c == a || c == b) { hits = hits + 1; }
            }
            return hits;
        }
        static void main(String[] args) {
            long t0 = System.currentTimeMillis();
            long n0 = System.nanoTime();
            long ticks = 0L;
            int f = 0;
            for (int r = 0; r < 4; r++) {
                f = f + fib(14);
                ticks = ticks + (System.nanoTime() - n0) % 1000L;
            }
            int a = ack(2, 3);
            Shape plain = new Shape();
            Shape square = new Square();
            int total = 0;
            for (int i = 0; i < 600; i++) {
                Shape s = plain;
                if (i % 3 == 0) { s = square; }
                total = total + s.area(i);
                ticks = ticks + (System.nanoTime() - n0) % 7L;
            }
            String ascii = "the quick brown fox jumps over the lazy dog";
            String wide = "naïve café über résumé";
            int hits = 0;
            for (int r = 0; r < 30; r++) {
                hits = hits + count(ascii, 'o', 'e') + count(wide, 'e', 'é');
                ticks = ticks + (System.currentTimeMillis() - t0);
            }
            System.out.println("fib=" + f + " ack=" + a + " total=" + total + " hits=" + hits);
            System.out.println("ticks=" + ticks + " len=" + wide.length() + " c=" + (int) wide.charAt(2));
        }
    }
"#;

/// Run `src` on a fresh engine with histograms and a 200 µs sampling
/// profiler attached; render its observables plus the folded profile.
fn observed_run(src: &str, browser: Browser, check_backedges: bool) -> String {
    let engine = doppio::EngineBuilder::new(browser)
        .observability(
            doppio::ObservabilityOptions::new()
                .histograms(true)
                .profiler(doppio::trace::Profiler::new(200_000)),
        )
        .build();
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_class_files(&engine, &fs, "/classes", &compile_to_bytes(src).unwrap());
    let jvm = Jvm::new(&engine, fs);
    jvm.set_check_backedges(check_backedges);
    jvm.launch("Main", &[]);
    let r = jvm.run_to_completion().expect("the run completes");
    let folded = engine.profiler().expect("profiler attached").folded();
    format!(
        "{}runtime: {:?}\nprofile:\n{folded}",
        render(&r, &engine),
        r.runtime
    )
}

#[test]
fn call_heavy_guest_matches_its_golden() {
    let got = observed_run(CALL_HEAVY, Browser::Chrome, false);
    assert!(got.starts_with("stdout: \"fib=1508 ack=9 total="), "{got}");
    assert!(!got.contains("suspensions: 0,"), "{got}");
    assert_golden("call_heavy.txt", &got);
}

#[test]
fn call_heavy_guest_with_backedge_checks_matches_its_golden() {
    let got = observed_run(CALL_HEAVY, Browser::Chrome, true);
    assert_golden("call_heavy_backedges.txt", &got);
}

/// `byte[]` churn on Safari, whose typed arrays leak: residency passes
/// the 4 MiB paging threshold part-way, so the arithmetic between the
/// allocations is charged at a growing paging penalty.
const PAGING_CHURN: &str = r#"
    class Main {
        static int mix(int acc, int j) { return acc * 31 + j; }
        static void main(String[] args) {
            int acc = 0;
            long t0 = System.currentTimeMillis();
            for (int i = 0; i < 320; i++) {
                byte[] buf = new byte[20000];
                for (int j = 0; j < 40; j++) {
                    acc = mix(acc, j + buf[i] + buf.length);
                }
            }
            System.out.println("acc=" + acc + " ms=" + (System.currentTimeMillis() - t0));
        }
    }
"#;

#[test]
fn paging_churn_on_safari_matches_its_golden() {
    let got = observed_run(PAGING_CHURN, Browser::Safari, false);
    assert!(got.starts_with("stdout: \"acc="), "{got}");
    assert_golden("paging_churn_safari.txt", &got);
}
