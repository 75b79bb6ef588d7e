//! DoppioJVM: a Java Virtual Machine interpreter on the Doppio runtime
//! system (§6 of the Doppio paper, PLDI 2014).
//!
//! DoppioJVM interprets real JVM class files entirely on top of the
//! simulated browser substrate: it implements the full JVMS2 bytecode
//! set, keeps its call stacks in explicit frame objects (§6.1) so it
//! can suspend-and-resume through the Doppio execution environment,
//! emulates JVM exception handling by walking that virtual stack
//! (§6.6), maps objects to class-reference + field-dictionary pairs
//! (§6.7), loads classes lazily through asynchronous file-system
//! downloads (§6.4), and bridges native methods to the Doppio file
//! system, unmanaged heap, and sockets (§6.3, §6.5).
//!
//! # Example
//!
//! ```
//! use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC};
//! use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
//! use doppio_fs::{backends, FileSystem};
//! use doppio_jsengine::{Browser, Engine};
//! use doppio_jvm::{fsutil, Jvm};
//!
//! // Assemble: class Hello { public static void main(String[] a) {
//! //   System.out.println("Hello from the browser!"); } }
//! let mut b = ClassBuilder::new("Hello", "java/lang/Object");
//! let mut m = MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 1);
//! m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
//! m.ldc_string("Hello from the browser!");
//! m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
//! m.return_void();
//! b.add_method(m);
//!
//! let engine = Engine::new(Browser::Chrome);
//! let fs = FileSystem::new(&engine, backends::in_memory(&engine));
//! fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
//!
//! let jvm = Jvm::new(&engine, fs);
//! jvm.launch("Hello", &[]);
//! let result = jvm.run_to_completion().unwrap();
//! assert_eq!(result.stdout, "Hello from the browser!\n");
//! ```

#![forbid(unsafe_code)]

pub mod class;
mod exec;
pub mod frame;
pub mod fsutil;
pub mod interp;
pub mod jvm;
pub mod loader;
pub mod natives;
pub mod object;
pub mod process;
pub mod rtlib;
pub mod state;
pub mod thread;
pub mod value;

pub use jvm::{Jvm, JvmRunResult, JvmStdin, UserNative};
pub use natives::{NativeCtx, NativeOutcome};
pub use process::spawn_jvm;
pub use value::{ObjRef, Value};

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC, ACC_SYNCHRONIZED};
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
    use doppio_classfile::opcodes as op;
    use doppio_classfile::ClassFile;
    use doppio_fs::{backends, FileSystem};
    use doppio_jsengine::{Browser, Engine};

    const MAIN_DESC: &str = "([Ljava/lang/String;)V";
    const PS: &str = "java/io/PrintStream";
    const PUB_STATIC: u16 = ACC_PUBLIC | ACC_STATIC;

    fn run_classes(classes: Vec<ClassFile>, main: &str) -> JvmRunResult {
        run_classes_on(Browser::Chrome, classes, main)
    }

    fn run_classes_on(browser: Browser, classes: Vec<ClassFile>, main: &str) -> JvmRunResult {
        let engine = Engine::new(browser);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &classes);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch(main, &[]);
        jvm.run_to_completion().unwrap()
    }

    /// `System.out.println(<string produced by f>)`.
    fn println_str(m: &mut MethodBuilder, f: impl FnOnce(&mut MethodBuilder)) {
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        f(m);
        m.invokevirtual(PS, "println", "(Ljava/lang/String;)V");
    }

    fn println_int(m: &mut MethodBuilder, f: impl FnOnce(&mut MethodBuilder)) {
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        f(m);
        m.invokevirtual(PS, "println", "(I)V");
    }

    #[test]
    fn hello_world() {
        let mut b = ClassBuilder::new("Hello", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        println_str(&mut m, |m| m.ldc_string("Hello, browser!"));
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Hello");
        assert_eq!(r.stdout, "Hello, browser!\n");
        assert!(r.uncaught.is_none());
        assert!(r.instructions > 0);
    }

    #[test]
    fn loop_arithmetic_sums() {
        let mut b = ClassBuilder::new("Sum", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 3);
        let top = m.new_label();
        let done = m.new_label();
        m.ldc_int(0);
        m.istore(1);
        m.ldc_int(0);
        m.istore(2);
        m.bind(top);
        m.iload(2);
        m.ldc_int(100);
        m.branch(op::IF_ICMPGE, done);
        m.iload(1);
        m.iload(2);
        m.iadd();
        m.istore(1);
        m.iinc(2, 1);
        m.goto_(top);
        m.bind(done);
        println_int(&mut m, |m| m.iload(1));
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Sum");
        assert_eq!(r.stdout, "4950\n");
    }

    #[test]
    fn recursion_computes_factorial() {
        let mut b = ClassBuilder::new("Fact", "java/lang/Object");
        let mut f = MethodBuilder::new(PUB_STATIC, "f", "(I)I", 1);
        let rec = f.new_label();
        f.iload(0);
        f.ldc_int(1);
        f.branch(op::IF_ICMPGT, rec);
        f.ldc_int(1);
        f.ireturn();
        f.bind(rec);
        f.iload(0);
        f.iload(0);
        f.ldc_int(1);
        f.isub();
        f.invokestatic("Fact", "f", "(I)I");
        f.imul();
        f.ireturn();
        b.add_method(f);
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        println_int(&mut m, |m| {
            m.ldc_int(10);
            m.invokestatic("Fact", "f", "(I)I");
        });
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Fact");
        assert_eq!(r.stdout, "3628800\n");
    }

    #[test]
    fn long_arithmetic_and_comparison() {
        let mut b = ClassBuilder::new("Longs", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 5);
        m.ldc_long(1i64 << 40);
        m.lstore(1);
        m.lload(1);
        m.ldc_long(3);
        m.simple(op::LMUL);
        m.ldc_long(7);
        m.simple(op::LADD);
        m.lstore(3);
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.lload(3);
        m.invokevirtual(PS, "println", "(J)V");
        let gt = m.new_label();
        let end = m.new_label();
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.lload(3);
        m.lload(1);
        m.simple(op::LCMP);
        m.branch(op::IFGT, gt);
        m.ldc_int(0);
        m.goto_(end);
        m.bind(gt);
        m.ldc_int(1);
        m.bind(end);
        m.invokevirtual(PS, "println", "(Z)V");
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Longs");
        assert_eq!(r.stdout, format!("{}\ntrue\n", (1i64 << 40) * 3 + 7));
    }

    fn animal_classes() -> Vec<ClassFile> {
        let mut animal = ClassBuilder::new("Animal", "java/lang/Object");
        {
            let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
            init.aload(0);
            init.invokespecial("java/lang/Object", "<init>", "()V");
            init.return_void();
            animal.add_method(init);
            let mut s = MethodBuilder::new(ACC_PUBLIC, "sound", "()Ljava/lang/String;", 1);
            s.ldc_string("...");
            s.areturn();
            animal.add_method(s);
            let mut d = MethodBuilder::new(ACC_PUBLIC, "describe", "()Ljava/lang/String;", 1);
            d.aload(0);
            d.invokevirtual("Animal", "sound", "()Ljava/lang/String;");
            d.areturn();
            animal.add_method(d);
        }
        let mut dog = ClassBuilder::new("Dog", "Animal");
        {
            let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
            init.aload(0);
            init.invokespecial("Animal", "<init>", "()V");
            init.return_void();
            dog.add_method(init);
            let mut s = MethodBuilder::new(ACC_PUBLIC, "sound", "()Ljava/lang/String;", 1);
            s.ldc_string("woof");
            s.areturn();
            dog.add_method(s);
        }
        vec![animal.finish(), dog.finish()]
    }

    #[test]
    fn virtual_dispatch_through_supertype() {
        let mut main = ClassBuilder::new("Zoo", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.new_object("Dog");
        m.dup();
        m.invokespecial("Dog", "<init>", "()V");
        m.astore(1);
        println_str(&mut m, |m| {
            m.aload(1);
            m.invokevirtual("Animal", "describe", "()Ljava/lang/String;");
        });
        m.return_void();
        main.add_method(m);
        let mut classes = animal_classes();
        classes.push(main.finish());
        let r = run_classes(classes, "Zoo");
        assert_eq!(r.stdout, "woof\n");
        // Three user classes were fetched through the fs (§6.4).
        assert_eq!(r.class_fetches, 3);
    }

    #[test]
    fn interface_dispatch() {
        let mut task = ClassBuilder::new("Task", "java/lang/Object");
        task.add_interface("java/lang/Runnable");
        let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
        init.aload(0);
        init.invokespecial("java/lang/Object", "<init>", "()V");
        init.return_void();
        task.add_method(init);
        let mut run = MethodBuilder::new(ACC_PUBLIC, "run", "()V", 1);
        println_str(&mut run, |m| m.ldc_string("ran"));
        run.return_void();
        task.add_method(run);

        let mut main = ClassBuilder::new("Iface", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.new_object("Task");
        m.dup();
        m.invokespecial("Task", "<init>", "()V");
        m.astore(1);
        m.aload(1);
        m.invokeinterface("java/lang/Runnable", "run", "()V");
        m.return_void();
        main.add_method(m);
        let r = run_classes(vec![task.finish(), main.finish()], "Iface");
        assert_eq!(r.stdout, "ran\n");
    }

    #[test]
    fn caught_exception_reaches_handler() {
        let mut b = ClassBuilder::new("Catch", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        let start = m.new_label();
        let end = m.new_label();
        let handler = m.new_label();
        let out = m.new_label();
        m.bind(start);
        m.ldc_int(1);
        m.ldc_int(0);
        m.simple(op::IDIV);
        m.pop();
        m.bind(end);
        m.goto_(out);
        m.bind(handler);
        m.astore(1);
        println_str(&mut m, |m| {
            m.ldc_string("caught: ");
            m.aload(1);
            m.invokevirtual("java/lang/Throwable", "getMessage", "()Ljava/lang/String;");
            m.invokevirtual(
                "java/lang/String",
                "concat",
                "(Ljava/lang/String;)Ljava/lang/String;",
            );
        });
        m.bind(out);
        m.return_void();
        m.add_exception_handler(start, end, handler, Some("java/lang/ArithmeticException"));
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Catch");
        assert_eq!(r.stdout, "caught: / by zero\n");
        assert!(r.uncaught.is_none());
    }

    #[test]
    fn uncaught_exception_is_reported() {
        let mut b = ClassBuilder::new("Boom", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        m.new_object("java/lang/RuntimeException");
        m.dup();
        m.ldc_string("kaboom");
        m.invokespecial(
            "java/lang/RuntimeException",
            "<init>",
            "(Ljava/lang/String;)V",
        );
        m.athrow();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Boom");
        assert_eq!(
            r.uncaught.as_deref(),
            Some("java.lang.RuntimeException: kaboom")
        );
        assert!(r.stderr.contains("Exception in thread \"main\""));
        assert!(r.stderr.contains("kaboom"));
    }

    #[test]
    fn array_operations_and_bounds_check() {
        let mut b = ClassBuilder::new("Arrays", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.ldc_int(5);
        m.newarray(10); // int[]
        m.astore(1);
        m.aload(1);
        m.ldc_int(3);
        m.ldc_int(42);
        m.simple(op::IASTORE);
        println_int(&mut m, |m| {
            m.aload(1);
            m.ldc_int(3);
            m.simple(op::IALOAD);
            m.aload(1);
            m.arraylength();
            m.iadd();
        });
        let s = m.new_label();
        let e = m.new_label();
        let h = m.new_label();
        let done = m.new_label();
        m.bind(s);
        m.aload(1);
        m.ldc_int(9);
        m.simple(op::IALOAD);
        m.pop();
        m.bind(e);
        m.goto_(done);
        m.bind(h);
        m.pop();
        println_str(&mut m, |m| m.ldc_string("bounds!"));
        m.bind(done);
        m.return_void();
        m.add_exception_handler(s, e, h, Some("java/lang/ArrayIndexOutOfBoundsException"));
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Arrays");
        assert_eq!(r.stdout, "47\nbounds!\n");
    }

    #[test]
    fn string_builder_concatenation() {
        let mut b = ClassBuilder::new("Strings", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        println_str(&mut m, |m| {
            m.new_object("java/lang/StringBuilder");
            m.dup();
            m.invokespecial("java/lang/StringBuilder", "<init>", "()V");
            m.ldc_string("answer=");
            m.invokevirtual(
                "java/lang/StringBuilder",
                "append",
                "(Ljava/lang/String;)Ljava/lang/StringBuilder;",
            );
            m.ldc_int(42);
            m.invokevirtual(
                "java/lang/StringBuilder",
                "append",
                "(I)Ljava/lang/StringBuilder;",
            );
            m.ldc_long(7);
            m.invokevirtual(
                "java/lang/StringBuilder",
                "append",
                "(J)Ljava/lang/StringBuilder;",
            );
            m.invokevirtual(
                "java/lang/StringBuilder",
                "toString",
                "()Ljava/lang/String;",
            );
        });
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Strings");
        assert_eq!(r.stdout, "answer=427\n");
    }

    #[test]
    fn static_initializer_runs_once_before_use() {
        let mut holder = ClassBuilder::new("Holder", "java/lang/Object");
        holder.add_field(PUB_STATIC, "value", "I");
        let mut clinit = MethodBuilder::new(ACC_STATIC, "<clinit>", "()V", 0);
        println_str(&mut clinit, |m| m.ldc_string("init!"));
        clinit.ldc_int(99);
        clinit.putstatic("Holder", "value", "I");
        clinit.return_void();
        holder.add_method(clinit);

        let mut main = ClassBuilder::new("UseHolder", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        println_int(&mut m, |m| m.getstatic("Holder", "value", "I"));
        println_int(&mut m, |m| m.getstatic("Holder", "value", "I"));
        m.return_void();
        main.add_method(m);
        let r = run_classes(vec![holder.finish(), main.finish()], "UseHolder");
        assert_eq!(r.stdout, "init!\n99\n99\n");
    }

    #[test]
    fn switches_select_correctly() {
        let mut b = ClassBuilder::new("Switches", "java/lang/Object");
        let mut pick = MethodBuilder::new(PUB_STATIC, "pick", "(I)I", 1);
        let c0 = pick.new_label();
        let c1 = pick.new_label();
        let def = pick.new_label();
        pick.iload(0);
        pick.tableswitch(0, vec![c0, c1], def);
        pick.bind(c0);
        pick.ldc_int(100);
        pick.ireturn();
        pick.bind(c1);
        pick.ldc_int(200);
        pick.ireturn();
        pick.bind(def);
        pick.ldc_int(-1);
        pick.ireturn();
        b.add_method(pick);
        let mut look = MethodBuilder::new(PUB_STATIC, "look", "(I)I", 1);
        let ca = look.new_label();
        let cb = look.new_label();
        let df = look.new_label();
        look.iload(0);
        look.lookupswitch(vec![(-5, ca), (1000, cb)], df);
        look.bind(ca);
        look.ldc_int(11);
        look.ireturn();
        look.bind(cb);
        look.ldc_int(22);
        look.ireturn();
        look.bind(df);
        look.ldc_int(-1);
        look.ireturn();
        b.add_method(look);
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        for (method, arg) in [
            ("pick", 0),
            ("pick", 1),
            ("pick", 7),
            ("look", -5),
            ("look", 1000),
            ("look", 3),
        ] {
            println_int(&mut m, |m| {
                m.ldc_int(arg);
                m.invokestatic("Switches", method, "(I)I");
            });
        }
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Switches");
        assert_eq!(r.stdout, "100\n200\n-1\n11\n22\n-1\n");
    }

    #[test]
    fn checkcast_and_instanceof() {
        let mut main = ClassBuilder::new("Casts", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.new_object("Dog");
        m.dup();
        m.invokespecial("Dog", "<init>", "()V");
        m.astore(1);
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.aload(1);
        m.instanceof("Animal");
        m.invokevirtual(PS, "println", "(Z)V");
        m.aload(1);
        m.checkcast("Animal");
        m.pop();
        let s = m.new_label();
        let e = m.new_label();
        let h = m.new_label();
        let done = m.new_label();
        m.bind(s);
        m.aload(1);
        m.checkcast("java/lang/String");
        m.pop();
        m.bind(e);
        m.goto_(done);
        m.bind(h);
        m.pop();
        println_str(&mut m, |m| m.ldc_string("bad cast"));
        m.bind(done);
        m.return_void();
        m.add_exception_handler(s, e, h, Some("java/lang/ClassCastException"));
        main.add_method(m);
        let mut classes = animal_classes();
        classes.push(main.finish());
        let r = run_classes(classes, "Casts");
        assert_eq!(r.stdout, "true\nbad cast\n");
    }

    #[test]
    fn unsafe_heap_round_trips() {
        let mut b = ClassBuilder::new("Mem", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 4);
        m.invokestatic("sun/misc/Unsafe", "getUnsafe", "()Lsun/misc/Unsafe;");
        m.astore(1);
        m.aload(1);
        m.ldc_long(16);
        m.invokevirtual("sun/misc/Unsafe", "allocateMemory", "(J)J");
        m.lstore(2);
        m.aload(1);
        m.lload(2);
        m.ldc_int(0x1234);
        m.invokevirtual("sun/misc/Unsafe", "putInt", "(JI)V");
        println_int(&mut m, |m| {
            m.aload(1);
            m.lload(2);
            m.invokevirtual("sun/misc/Unsafe", "getInt", "(J)I");
        });
        m.aload(1);
        m.lload(2);
        m.invokevirtual("sun/misc/Unsafe", "freeMemory", "(J)V");
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Mem");
        assert_eq!(r.stdout, format!("{}\n", 0x1234));
    }

    #[test]
    fn stack_overflow_is_an_error_not_a_crash() {
        let mut b = ClassBuilder::new("Deep", "java/lang/Object");
        let mut f = MethodBuilder::new(PUB_STATIC, "f", "()V", 0);
        f.invokestatic("Deep", "f", "()V");
        f.return_void();
        b.add_method(f);
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        m.invokestatic("Deep", "f", "()V");
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Deep");
        assert!(r
            .uncaught
            .as_deref()
            .unwrap_or_default()
            .contains("StackOverflowError"));
    }

    #[test]
    fn synchronized_threads_do_not_lose_updates() {
        let mut counter = ClassBuilder::new("Counter", "java/lang/Object");
        counter.add_field(PUB_STATIC, "n", "I");
        let mut bump = MethodBuilder::new(PUB_STATIC | ACC_SYNCHRONIZED, "bump", "()V", 0);
        bump.getstatic("Counter", "n", "I");
        bump.ldc_int(1);
        bump.iadd();
        bump.putstatic("Counter", "n", "I");
        bump.return_void();
        counter.add_method(bump);

        let mut worker = ClassBuilder::new("Worker", "java/lang/Thread");
        let mut init = MethodBuilder::new(ACC_PUBLIC, "<init>", "()V", 1);
        init.aload(0);
        init.invokespecial("java/lang/Thread", "<init>", "()V");
        init.return_void();
        worker.add_method(init);
        let mut run = MethodBuilder::new(ACC_PUBLIC, "run", "()V", 2);
        let top = run.new_label();
        let done = run.new_label();
        run.ldc_int(0);
        run.istore(1);
        run.bind(top);
        run.iload(1);
        run.ldc_int(500);
        run.branch(op::IF_ICMPGE, done);
        run.invokestatic("Counter", "bump", "()V");
        run.iinc(1, 1);
        run.goto_(top);
        run.bind(done);
        run.return_void();
        worker.add_method(run);

        let mut main = ClassBuilder::new("Race", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 3);
        for slot in [1u16, 2] {
            m.new_object("Worker");
            m.dup();
            m.invokespecial("Worker", "<init>", "()V");
            m.astore(slot);
            m.aload(slot);
            m.invokevirtual("java/lang/Thread", "start", "()V");
        }
        for slot in [1u16, 2] {
            m.aload(slot);
            m.invokevirtual("java/lang/Thread", "join", "()V");
        }
        println_int(&mut m, |m| m.getstatic("Counter", "n", "I"));
        m.return_void();
        main.add_method(m);
        let r = run_classes(
            vec![counter.finish(), worker.finish(), main.finish()],
            "Race",
        );
        assert_eq!(r.stdout, "1000\n");
        assert!(r.runtime.context_switches > 0);
    }

    #[test]
    fn blocking_stdin_read_resumes_on_input() {
        let mut b = ClassBuilder::new("Greeter", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.ldc_string("Please enter your name: ");
        m.invokevirtual(PS, "print", "(Ljava/lang/String;)V");
        m.invokestatic("doppio/runtime/Console", "readLine", "()Ljava/lang/String;");
        m.astore(1);
        println_str(&mut m, |m| {
            m.ldc_string("Your name is ");
            m.aload(1);
            m.invokevirtual(
                "java/lang/String",
                "concat",
                "(Ljava/lang/String;)Ljava/lang/String;",
            );
        });
        m.return_void();
        b.add_method(m);

        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Greeter", &[]);
        jvm.runtime().start();
        engine.run_until_idle();
        assert!(!jvm.is_finished());
        assert!(jvm
            .with_state(|s| s.stdout_text())
            .contains("enter your name"));
        jvm.push_stdin(b"Ada\n");
        engine.run_until_idle();
        assert!(jvm.is_finished());
        assert!(jvm
            .with_state(|s| s.stdout_text())
            .ends_with("Your name is Ada\n"));
    }

    #[test]
    fn long_computation_stays_responsive_in_browser() {
        let mut b = ClassBuilder::new("Busy", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 3);
        let top = m.new_label();
        let done = m.new_label();
        m.ldc_int(0);
        m.istore(1);
        m.bind(top);
        m.iload(1);
        m.ldc_int(300_000);
        m.branch(op::IF_ICMPGE, done);
        m.ldc_int(3);
        m.invokestatic("Busy", "twice", "(I)I");
        m.pop();
        m.iinc(1, 1);
        m.goto_(top);
        m.bind(done);
        println_str(&mut m, |m| m.ldc_string("done"));
        m.return_void();
        b.add_method(m);
        let mut twice = MethodBuilder::new(PUB_STATIC, "twice", "(I)I", 1);
        twice.iload(0);
        twice.ldc_int(2);
        twice.imul();
        twice.ireturn();
        b.add_method(twice);
        let r = run_classes(vec![b.finish()], "Busy");
        assert_eq!(r.stdout, "done\n");
        assert!(r.runtime.suspensions > 10, "{:?}", r.runtime);
    }

    #[test]
    fn js_interop_eval() {
        let mut b = ClassBuilder::new("Evals", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        println_str(&mut m, |m| {
            m.ldc_string("6*7");
            m.invokestatic(
                "doppio/runtime/JS",
                "eval",
                "(Ljava/lang/String;)Ljava/lang/String;",
            );
        });
        m.return_void();
        b.add_method(m);

        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.set_js_eval(|_, src| {
            if src == "6*7" {
                "42".to_string()
            } else {
                "undefined".to_string()
            }
        });
        jvm.launch("Evals", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert_eq!(r.stdout, "42\n");
    }

    #[test]
    fn file_natives_use_the_doppio_fs() {
        let mut b = ClassBuilder::new("Files", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
        m.ldc_string("/data/in.txt");
        m.invokestatic(
            "doppio/runtime/FileSystem",
            "readFileBytes",
            "(Ljava/lang/String;)[B",
        );
        m.astore(1);
        println_str(&mut m, |m| {
            m.new_object("java/lang/String");
            m.dup();
            m.aload(1);
            m.invokespecial("java/lang/String", "<init>", "([B)V");
        });
        m.ldc_string("/data/out.txt");
        m.aload(1);
        m.invokestatic(
            "doppio/runtime/FileSystem",
            "writeFileBytes",
            "(Ljava/lang/String;[B)V",
        );
        m.return_void();
        b.add_method(m);

        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
        fs.mkdir("/data", |_, r| r.unwrap());
        engine.run_until_idle();
        fs.write_file("/data/in.txt", b"file payload".to_vec(), |_, r| r.unwrap());
        engine.run_until_idle();

        let jvm = Jvm::new(&engine, fs.clone());
        jvm.launch("Files", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert_eq!(r.stdout, "file payload\n");
        let out = std::rc::Rc::new(std::cell::RefCell::new(None));
        let o = out.clone();
        fs.read_file("/data/out.txt", move |_, r| {
            *o.borrow_mut() = Some(r.unwrap())
        });
        engine.run_until_idle();
        assert_eq!(out.borrow().as_deref(), Some(&b"file payload"[..]));
    }

    #[test]
    fn missing_class_raises_noclassdef() {
        let mut b = ClassBuilder::new("Missing", "java/lang/Object");
        let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
        m.invokestatic("does/not/Exist", "f", "()V");
        m.return_void();
        b.add_method(m);
        let r = run_classes(vec![b.finish()], "Missing");
        assert!(r
            .uncaught
            .as_deref()
            .unwrap_or_default()
            .contains("NoClassDefFoundError"));
    }

    #[test]
    fn runs_on_every_browser_profile() {
        for browser in Browser::EVALUATED {
            let mut b = ClassBuilder::new("Porta", "java/lang/Object");
            let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 1);
            println_int(&mut m, |m| {
                m.ldc_int(21);
                m.ldc_int(2);
                m.imul();
            });
            m.return_void();
            b.add_method(m);
            let r = run_classes_on(browser, vec![b.finish()], "Porta");
            assert_eq!(r.stdout, "42\n", "browser {browser}");
        }
    }

    #[test]
    fn wall_clock_ordering_matches_figure3_shape() {
        let make = || {
            let mut b = ClassBuilder::new("Bench", "java/lang/Object");
            let mut m = MethodBuilder::new(PUB_STATIC, "main", MAIN_DESC, 2);
            let top = m.new_label();
            let done = m.new_label();
            m.ldc_int(0);
            m.istore(1);
            m.bind(top);
            m.iload(1);
            m.ldc_int(50_000);
            m.branch(op::IF_ICMPGE, done);
            m.iinc(1, 1);
            m.goto_(top);
            m.bind(done);
            m.return_void();
            b.add_method(m);
            vec![b.finish()]
        };
        let native = run_classes_on(Browser::Native, make(), "Bench").wall_ns;
        let chrome = run_classes_on(Browser::Chrome, make(), "Bench").wall_ns;
        let opera = run_classes_on(Browser::Opera, make(), "Bench").wall_ns;
        assert!(chrome > 10 * native, "chrome {chrome} native {native}");
        assert!(opera > chrome, "opera {opera} chrome {chrome}");
    }
}

#[cfg(test)]
mod backedge_tests {
    use super::*;
    use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC};
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
    use doppio_classfile::opcodes as op;
    use doppio_fs::{backends, FileSystem};
    use doppio_jsengine::{Browser, Engine};

    /// A call-free loop long enough (> 5 virtual seconds in Chrome)
    /// that, with suspend checks only at call boundaries (§6.1), the
    /// whole method runs as one event and the watchdog kills the page.
    fn spin_class() -> doppio_classfile::ClassFile {
        let mut b = ClassBuilder::new("Spin", "java/lang/Object");
        let mut m =
            MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 2);
        let top = m.new_label();
        let done = m.new_label();
        m.ldc_int(0);
        m.istore(1);
        m.bind(top);
        m.iload(1);
        m.ldc_int(12_000_000);
        m.branch(op::IF_ICMPGE, done);
        m.iinc(1, 1);
        m.goto_(top);
        m.bind(done);
        m.return_void();
        b.add_method(m);
        b.finish()
    }

    fn run_spin(check_backedges: bool) -> (u64, u64) {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[spin_class()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.set_check_backedges(check_backedges);
        jvm.launch("Spin", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert!(r.uncaught.is_none());
        (engine.stats().watchdog_kills, r.runtime.suspensions)
    }

    #[test]
    fn call_free_loops_defeat_call_boundary_checks() {
        // The §6.1 caveat, demonstrated: no calls → no suspend checks
        // → one monolithic multi-second event → watchdog kill.
        let (kills, suspensions) = run_spin(false);
        assert_eq!(suspensions, 0);
        assert!(kills >= 1, "the watchdog should have fired");
    }

    #[test]
    fn backedge_instrumentation_fixes_the_starvation() {
        // The fix the paper sketches: checks on loop back edges keep
        // every event finite.
        let (kills, suspensions) = run_spin(true);
        assert_eq!(kills, 0);
        assert!(suspensions > 10, "suspended {suspensions} times");
    }
}

#[cfg(test)]
mod opcode_coverage_tests {
    use super::*;
    use doppio_classfile::access::{ACC_PUBLIC, ACC_STATIC};
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};
    use doppio_classfile::opcodes as op;
    use doppio_fs::{backends, FileSystem};
    use doppio_jsengine::{Browser, Engine};

    fn run_main(build: impl FnOnce(&mut MethodBuilder)) -> String {
        let mut b = ClassBuilder::new("Ops", "java/lang/Object");
        let mut m =
            MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 8);
        build(&mut m);
        m.return_void();
        b.add_method(m);
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Ops", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert!(r.uncaught.is_none(), "{:?} / {}", r.uncaught, r.stderr);
        r.stdout
    }

    fn println_top_int(m: &mut MethodBuilder) {
        // ..., value → print it (value computed before out is loaded,
        // so swap them into call order).
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.swap();
        m.invokevirtual("java/io/PrintStream", "println", "(I)V");
    }

    #[test]
    fn single_slot_shuffles() {
        // dup_x1: a b -> b a b ; dup_x2: a b c -> c a b c ; swap.
        let out = run_main(|m| {
            // (10 - 3) via swap: push 3, push 10, swap, isub = 10-3
            m.ldc_int(3);
            m.ldc_int(10);
            m.swap();
            m.isub();
            println_top_int(m); // -7? no: swap makes 3 - ... wait: stack [3,10] -> swap -> [10,3]; isub = 10-3 = 7
                                // dup_x1: compute a*b + b with one load of b:
                                // push a=6, push b=7, dup_x1 -> [7,6,7], imul -> [7,42], iadd -> 49
            m.ldc_int(6);
            m.ldc_int(7);
            m.simple(op::DUP_X1);
            m.pop(); // [7,6]
            m.imul(); // 42
            println_top_int(m);
            // dup_x2 with three category-1 values: a b c -> c a b c
            m.ldc_int(1);
            m.ldc_int(2);
            m.ldc_int(4);
            m.simple(op::DUP_X2); // [4,1,2,4]
            m.iadd(); // [4,1,6]
            m.iadd(); // [4,7]
            m.imul(); // 28
            println_top_int(m);
        });
        assert_eq!(out, "7\n42\n28\n");
    }

    #[test]
    fn two_slot_shuffles_with_longs() {
        let out = run_main(|m| {
            // dup2 on a long: [L] -> [L,L]; ladd doubles it.
            m.ldc_long(21);
            m.simple(op::DUP2);
            m.simple(op::LADD); // 42
            m.simple(op::L2I);
            println_top_int(m);
            // dup2_x1: [i, L] -> [L, i, L]
            m.ldc_int(5);
            m.ldc_long(100);
            m.simple(op::DUP2_X1); // [L100, 5, L100]
            m.simple(op::L2I); // [L100, 5, 100]
            m.iadd(); // [L100, 105]
            println_top_int(m);
            m.simple(op::POP2); // drop the leftover long
                                // dup2_x2: [L, L] -> [L2, L1, L2]
            m.ldc_long(7);
            m.ldc_long(8);
            m.simple(op::DUP2_X2); // [L8, L7, L8]
            m.simple(op::LADD); // [L8, L15]
            m.simple(op::L2I);
            println_top_int(m);
            m.simple(op::POP2);
        });
        assert_eq!(out, "42\n105\n15\n");
    }

    #[test]
    fn jsr_ret_subroutine() {
        // The classic finally-block encoding: jsr to a subroutine that
        // stores its return address with astore, does work, and rets.
        let out = run_main(|m| {
            let sub = m.new_label();
            let after1 = m.new_label();
            let after2 = m.new_label();
            m.ldc_int(0);
            m.istore(1); // counter
            m.branch(op::JSR, sub);
            m.bind(after1);
            m.branch(op::JSR, sub);
            m.bind(after2);
            m.iload(1);
            println_top_int(m);
            let done = m.new_label();
            m.goto_(done);
            // Subroutine: locals[4] = return address; counter += 10.
            m.bind(sub);
            m.astore(4);
            m.iinc(1, 10);
            m.ret(4);
            m.bind(done);
        });
        assert_eq!(out, "20\n");
    }

    #[test]
    fn negative_array_size_and_null_checks() {
        // Runtime exception arms not covered elsewhere.
        let mut b = ClassBuilder::new("Ops", "java/lang/Object");
        let mut m =
            MethodBuilder::new(ACC_PUBLIC | ACC_STATIC, "main", "([Ljava/lang/String;)V", 3);
        // new int[-1] caught:
        let s1 = m.new_label();
        let e1 = m.new_label();
        let h1 = m.new_label();
        let next = m.new_label();
        m.bind(s1);
        m.ldc_int(-1);
        m.newarray(10);
        m.pop();
        m.bind(e1);
        m.goto_(next);
        m.bind(h1);
        m.pop();
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.ldc_string("negsize");
        m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
        m.bind(next);
        // null.length caught:
        let s2 = m.new_label();
        let e2 = m.new_label();
        let h2 = m.new_label();
        let done = m.new_label();
        m.bind(s2);
        m.aconst_null();
        m.checkcast("[I");
        m.arraylength();
        m.pop();
        m.bind(e2);
        m.goto_(done);
        m.bind(h2);
        m.pop();
        m.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
        m.ldc_string("npe");
        m.invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V");
        m.bind(done);
        m.return_void();
        m.add_exception_handler(s1, e1, h1, Some("java/lang/NegativeArraySizeException"));
        m.add_exception_handler(s2, e2, h2, Some("java/lang/NullPointerException"));
        b.add_method(m);

        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        fsutil::mount_classes(&engine, &fs, "/classes", &[b.finish()]);
        let jvm = Jvm::new(&engine, fs);
        jvm.launch("Ops", &[]);
        let r = jvm.run_to_completion().unwrap();
        assert_eq!(r.stdout, "negsize\nnpe\n");
    }

    #[test]
    fn multianewarray_builds_nested_arrays() {
        let out = run_main(|m| {
            // int[3][4] -> set [2][3] = 42, read it back; length checks.
            m.ldc_int(3);
            m.ldc_int(4);
            m.multianewarray("[[I", 2);
            m.astore(1);
            m.aload(1);
            m.ldc_int(2);
            m.simple(op::AALOAD);
            m.ldc_int(3);
            m.ldc_int(42);
            m.simple(op::IASTORE);
            m.aload(1);
            m.ldc_int(2);
            m.simple(op::AALOAD);
            m.ldc_int(3);
            m.simple(op::IALOAD);
            println_top_int(m);
            m.aload(1);
            m.arraylength();
            println_top_int(m);
            m.aload(1);
            m.ldc_int(0);
            m.simple(op::AALOAD);
            m.arraylength();
            println_top_int(m);
        });
        assert_eq!(out, "42\n3\n4\n");
    }
}
