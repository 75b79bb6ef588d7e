//! Shared JVM state: heap, classes, monitors, I/O, and the Doppio
//! services the native methods bridge to (§6.3).

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::{Rc, Weak};

use doppio_core::ThreadId;
use doppio_fs::FileSystem;
use doppio_heap::UnmanagedHeap;
use doppio_jsengine::Engine;
use doppio_sockets::{DoppioSocket, Network};
use doppio_trace::Counter;

use crate::class::{ClassId, ClassRegistry, MethodRef};
use crate::exec::OpStream;
use crate::frame::Frame;
use crate::loader::LoaderState;
use crate::object::{Heap, HeapObj};
use crate::value::{ObjRef, Value};

/// A JVM monitor (the lock behind `monitorenter`/`synchronized`).
#[derive(Debug, Default)]
pub struct Monitor {
    /// Owning thread and recursion count.
    pub owner: Option<(ThreadId, u32)>,
    /// Threads blocked trying to enter.
    pub entry_queue: VecDeque<ThreadId>,
    /// Threads in `Object.wait`, with the recursion count to restore.
    pub wait_set: Vec<(ThreadId, u32)>,
}

/// One invoke site's cached resolution state, held by its invoke op.
///
/// The symbolic part (`cname`/`name`/`desc`/`arg_slots`) is decoded
/// from the constant pool exactly once. `direct` binds sites whose
/// target never depends on the receiver (`invokestatic` once the
/// `<clinit>` chain is `Initialized`, `invokespecial` immediately).
/// `mono` is the monomorphic inline cache for `invokevirtual` /
/// `invokeinterface`: it is keyed on the receiver's [`ClassId`], so a
/// subclass loaded mid-run gets a fresh id, misses, and re-dispatches
/// through `select_virtual` — the cache self-invalidates on class
/// loading without any registry hook.
#[derive(Debug)]
pub struct CallSite {
    /// Referenced class name from the CP entry.
    pub cname: Rc<str>,
    /// Method name.
    pub name: Rc<str>,
    /// Method descriptor.
    pub desc: Rc<str>,
    /// Argument slot count computed from the descriptor (receiver not
    /// included).
    pub arg_slots: usize,
    /// Resolved id of `cname`, filled once that class is defined.
    pub ref_class: Cell<Option<ClassId>>,
    /// Receiver-independent target (method + access flags).
    pub direct: Cell<Option<(MethodRef, u16)>>,
    /// Monomorphic cache: receiver class → (target, access flags).
    pub mono: Cell<Option<(ClassId, MethodRef, u16)>>,
}

/// A shared, precompiled view of one method body (built once per
/// method, cached).
#[derive(Debug)]
pub struct CodeBlob {
    /// Declaring class.
    pub class: ClassId,
    /// Index into the class's method list.
    pub method_index: usize,
    /// Method name (for traces).
    pub name: String,
    /// Method descriptor.
    pub descriptor: String,
    /// The bytecode.
    pub bytecode: Vec<u8>,
    /// Exception handlers.
    pub exceptions: Vec<doppio_classfile::ExceptionEntry>,
    /// Local slots.
    pub max_locals: u16,
    /// Whether the method is `synchronized`.
    pub synchronized: bool,
    /// Whether the method is `static`.
    pub is_static: bool,
    /// Whether the method is `<clinit>` (popping its frame finishes the
    /// class's initialization).
    pub is_clinit: bool,
    /// Line-number table.
    pub line_numbers: Vec<(u16, u16)>,
    /// The method's op stream, decoded the first time one of its
    /// frames runs (see [`CodeBlob::ops`]).
    pub(crate) ops: OnceCell<Result<OpStream, String>>,
}

impl CodeBlob {
    /// The method's op stream, decoding it on first use. `Err` says why
    /// the decoder rejected the bytecode.
    pub(crate) fn ops(&self) -> &Result<OpStream, String> {
        self.ops
            .get_or_init(|| crate::exec::decode(&self.bytecode, &self.exceptions))
    }
}

/// Counter handles for the resolution caches, resolved once from the
/// shared [`MetricsRegistry`](doppio_trace::MetricsRegistry) so the
/// interpreter bumps an `Rc<Cell<u64>>` instead of doing name lookups.
#[derive(Clone, Debug)]
pub struct PerfCounters {
    /// Constant-pool cache hits (`jvm.cp_cache.hit`).
    pub cp_hit: Counter,
    /// Constant-pool cache misses — first resolution (`jvm.cp_cache.miss`).
    pub cp_miss: Counter,
    /// Inline-cache hits at invoke sites (`jvm.icache.hit`).
    pub ic_hit: Counter,
    /// Inline-cache misses (`jvm.icache.miss`).
    pub ic_miss: Counter,
}

impl PerfCounters {
    /// Resolve the handles from `engine`'s metrics registry.
    pub fn new(engine: &Engine) -> PerfCounters {
        let m = engine.metrics();
        PerfCounters {
            cp_hit: m.counter("jvm.cp_cache.hit"),
            cp_miss: m.counter("jvm.cp_cache.miss"),
            ic_hit: m.counter("jvm.icache.hit"),
            ic_miss: m.counter("jvm.icache.miss"),
        }
    }
}

/// Everything the JVM's threads share.
#[allow(clippy::type_complexity)] // callback plumbing, not public API surface
pub struct JvmState {
    /// The simulated browser engine.
    pub engine: Engine,
    /// Defined classes.
    pub registry: ClassRegistry,
    /// The object heap.
    pub heap: Heap,
    /// Interned `String` constants (`ldc` of the same literal yields
    /// the same object).
    pub string_pool: HashMap<String, ObjRef>,
    /// Monitors, lazily created per object.
    pub monitors: HashMap<ObjRef, Monitor>,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: Vec<u8>,
    /// Optional stdout tee (the §6.8 "custom functions to redirect
    /// standard input and output").
    pub stdout_hook: Option<Box<dyn FnMut(&str)>>,
    /// Buffered standard input bytes.
    pub stdin: VecDeque<u8>,
    /// Whether stdin has reached end-of-file.
    pub stdin_closed: bool,
    /// The unmanaged heap backing `sun.misc.Unsafe` (§6.5).
    pub unmanaged: UnmanagedHeap,
    /// The Doppio file system the class loader and file natives use.
    pub fs: FileSystem,
    /// Optional socket fabric for the socket natives (§5.3).
    pub network: Option<Network>,
    /// Open sockets by descriptor.
    pub sockets: Vec<Option<DoppioSocket>>,
    /// Class-loading bookkeeping.
    pub loader: LoaderState,
    /// Classpath entries (directories on `fs`).
    pub classpath: Vec<String>,
    /// Method code by class id, then method index, built on first use.
    code_blobs: Vec<Vec<Option<Rc<CodeBlob>>>>,
    /// The `locals` and `stack` buffers of popped frames, reused by the
    /// next push so a call allocates nothing once the pool is warm.
    frame_buffers: Vec<(Vec<Value>, Vec<Value>)>,
    /// `System.exit` code, if called.
    pub exit_code: Option<i32>,
    /// JavaScript-interop hook (§6.8 `eval`).
    pub js_eval: Option<Box<dyn FnMut(&Engine, &str) -> String>>,
    /// Instructions executed (all threads).
    pub instructions: u64,
    /// Whether to also perform suspend checks on backward branches
    /// (§6.1 discusses instrumenting loop back edges; off by default,
    /// matching DoppioJVM).
    pub check_backedges: bool,
    /// Whether the engine has a watchdog, so the §6.1 suspend checks
    /// run (fixed with the engine's profile).
    pub(crate) hosted: bool,
    /// The `String` and `StringBuilder` class ids, once defined: the
    /// runtime classes of the two heap objects that carry no class.
    pub(crate) string_classes: [Option<ClassId>; 2],
    /// JVM threads that are live (indexes parallel the runtime's ids).
    pub live_threads: usize,
    /// Deterministic RNG state for `Math.random`.
    pub rng_state: u64,
    /// Threads blocked waiting for stdin bytes.
    pub stdin_waiters: Vec<ThreadId>,
    /// User-registered native methods (the §6.3 JNI path).
    pub user_natives: HashMap<(String, String, String), crate::jvm::UserNative>,
    /// `java/lang/Thread` objects per runtime thread id.
    pub thread_objs: HashMap<usize, ObjRef>,
    /// Inverse: runtime thread id per Thread object.
    pub thread_of_obj: HashMap<ObjRef, usize>,
    /// Runtime thread ids that have finished.
    pub finished_threads: HashSet<usize>,
    /// Threads blocked in `join`, keyed by the joined thread's id.
    pub join_waiters: HashMap<usize, Vec<ThreadId>>,
    /// Back-reference for natives that must spawn threads.
    pub self_rc: Option<Weak<RefCell<JvmState>>>,
    /// Resolution-cache counters (shared with the metrics registry).
    pub perf: PerfCounters,
}

impl JvmState {
    /// Fresh state over an engine and file system.
    pub fn new(engine: &Engine, fs: FileSystem) -> JvmState {
        JvmState {
            engine: engine.clone(),
            registry: ClassRegistry::new(),
            heap: Heap::new(),
            string_pool: HashMap::new(),
            monitors: HashMap::new(),
            stdout: Vec::new(),
            stderr: Vec::new(),
            stdout_hook: None,
            stdin: VecDeque::new(),
            stdin_closed: false,
            unmanaged: UnmanagedHeap::new(engine, 16 * 1024 * 1024),
            fs,
            network: None,
            sockets: Vec::new(),
            loader: LoaderState::default(),
            classpath: vec!["/classes".to_string()],
            code_blobs: Vec::new(),
            frame_buffers: Vec::new(),
            exit_code: None,
            js_eval: None,
            instructions: 0,
            check_backedges: false,
            hosted: engine.profile().watchdog_limit_ns.is_some(),
            string_classes: [None; 2],
            live_threads: 0,
            rng_state: 0x5DEECE66D,
            stdin_waiters: Vec::new(),
            user_natives: HashMap::new(),
            thread_objs: HashMap::new(),
            thread_of_obj: HashMap::new(),
            finished_threads: HashSet::new(),
            join_waiters: HashMap::new(),
            self_rc: None,
            perf: PerfCounters::new(engine),
        }
    }

    /// Intern a string literal, returning its heap reference.
    pub fn intern_string(&mut self, s: &str) -> ObjRef {
        if let Some(&r) = self.string_pool.get(s) {
            return r;
        }
        let r = self.heap.alloc_string(s);
        self.string_pool.insert(s.to_string(), r);
        r
    }

    /// Write to captured stdout (and the hook, if set).
    pub fn write_stdout(&mut self, text: &str) {
        self.stdout.extend_from_slice(text.as_bytes());
        if let Some(hook) = &mut self.stdout_hook {
            hook(text);
        }
    }

    /// Captured stdout as UTF-8.
    pub fn stdout_text(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }

    /// Queue bytes on standard input.
    pub fn push_stdin(&mut self, bytes: &[u8]) {
        self.stdin.extend(bytes);
    }

    /// The dictionary entry `key` (`"DeclaringClass.fieldName"`) of
    /// object `obj`, looked up by name: `None` when absent or not an
    /// instance. Natives read fields this way; so does a field access
    /// whose receiver fails the slot guard, hence cold.
    #[cold]
    pub fn field(&self, obj: ObjRef, key: &str) -> Option<Value> {
        let HeapObj::Instance {
            class,
            fields,
            stray,
        } = self.heap.get(obj)
        else {
            return None;
        };
        match self.registry.get(*class).layout.slot_of(key) {
            Some(slot) => Some(fields[slot]),
            None => stray.iter().find(|(k, _)| **k == *key).map(|&(_, v)| v),
        }
    }

    /// Set the dictionary entry `key` of object `obj`, adding it beside
    /// the slots if its class lacks it; anything but an instance ignores
    /// the write.
    #[cold]
    pub fn set_field(&mut self, obj: ObjRef, key: &str, v: Value) {
        let HeapObj::Instance {
            class,
            fields,
            stray,
        } = self.heap.get_mut(obj)
        else {
            return;
        };
        if let Some(slot) = self.registry.get(*class).layout.slot_of(key) {
            fields[slot] = v;
        } else if let Some(entry) = stray.iter_mut().find(|(k, _)| **k == *key) {
            entry.1 = v;
        } else {
            stray.push((Rc::from(key), v));
        }
    }

    /// The code blob for a method, building it on first use.
    pub fn code_blob(&mut self, class: ClassId, method_index: usize) -> Option<Rc<CodeBlob>> {
        if let Some(Some(b)) = self.code_blobs.get(class).and_then(|t| t.get(method_index)) {
            return Some(b.clone());
        }
        let rc = self.registry.get(class);
        let cf = rc.cf.as_ref()?;
        let m = cf.methods.get(method_index)?;
        let code = m.code.as_ref()?;
        let is_clinit = m.name == "<clinit>";
        let blob = Rc::new(CodeBlob {
            class,
            method_index,
            name: m.name.clone(),
            descriptor: m.descriptor.clone(),
            bytecode: code.bytecode.clone(),
            exceptions: code.exception_table.clone(),
            max_locals: code.max_locals,
            synchronized: m.access_flags & doppio_classfile::access::ACC_SYNCHRONIZED != 0
                && !is_clinit,
            is_static: m.is_static(),
            is_clinit,
            line_numbers: code.line_numbers.clone(),
            ops: OnceCell::new(),
        });
        if self.code_blobs.len() <= class {
            self.code_blobs.resize_with(class + 1, Vec::new);
        }
        let table = &mut self.code_blobs[class];
        if table.len() <= method_index {
            table.resize(method_index + 1, None);
        }
        table[method_index] = Some(blob.clone());
        Some(blob)
    }

    /// A frame for `code`, its locals zeroed, on the buffers of a popped
    /// frame when one is pooled.
    pub fn new_frame(&mut self, code: Rc<CodeBlob>) -> Frame {
        let (mut locals, stack) = self
            .frame_buffers
            .pop()
            .unwrap_or_else(|| (Vec::new(), Vec::with_capacity(8)));
        locals.resize(code.max_locals as usize, Value::Int(0));
        Frame {
            code,
            pc: 0,
            locals,
            stack,
            held_monitor: None,
        }
    }

    /// Return a popped frame's buffers to the pool.
    pub fn free_frame(&mut self, frame: Frame) {
        let Frame {
            mut locals,
            mut stack,
            ..
        } = frame;
        locals.clear();
        stack.clear();
        self.frame_buffers.push((locals, stack));
    }
}
