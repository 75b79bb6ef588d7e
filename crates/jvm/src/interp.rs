//! The interpreter's runtime (§6): resolution, invocation, exceptions,
//! monitors and allocation.
//!
//! [`run`] executes the top frame of a thread's explicit frame stack
//! through its decoded op stream (see [`crate::exec`]). Anything that
//! cannot complete synchronously — a class that must be downloaded, a
//! native method waiting on an asynchronous browser API, a contended
//! monitor — is reported to the hosting thread, which suspends through
//! the Doppio execution environment and retries or resumes later.
//! Instructions that may block never mutate the operand stack before
//! deciding to block, so retrying is sound.
//!
//! Exception handling (§6.6) never touches the JavaScript exception
//! machinery: [`dispatch_exception`] walks the virtual frame stack for
//! a handler, exactly as the paper describes.

use std::cell::{Cell, OnceCell};
use std::rc::Rc;

use doppio_classfile::{access, opcodes as op, Constant};
use doppio_core::{Resource, ThreadContext, ThreadId};
use doppio_jsengine::Cost;
use doppio_trace::cat;

use crate::class::{ClassConst, ClassId, ClinitState, CpEntry, ResolvedField};
use crate::exec;
use crate::frame::Frame;
use crate::natives::{self, NativeCtx, PendingNative};
use crate::object::HeapObj;
use crate::state::{CallSite, JvmState};
use crate::value::{ObjRef, Value};

/// Why the interpreter handed control back to the hosting thread.
pub enum StepResult {
    /// Keep running: re-enter the top frame at its pc.
    Continue,
    /// A frame was pushed or popped: the §6.1 suspend-check boundary.
    CallBoundary,
    /// A class must be loaded before the instruction can retry.
    NeedClass(String),
    /// A native method blocked on an asynchronous API (§4.2); resume
    /// the pending computation when woken.
    NativeBlocked(PendingNative),
    /// The thread is queued on the monitor of this object; retry the
    /// instruction when woken (§6.2 context-switch point).
    MonitorBlocked(ObjRef),
    /// Voluntary context switch (`Thread.yield`): end the slice with
    /// the thread still ready, regardless of the suspend timer — this
    /// is what makes yields real schedule-exploration switch points.
    VoluntaryYield,
    /// The frame stack emptied: the thread finished.
    Finished,
    /// An exception unwound past the last frame.
    Uncaught(ObjRef),
    /// `System.exit` was called.
    Exit(i32),
}

/// Run the top frame until the thread must leave the interpreter: the
/// hosting thread's slice loop calls this, and sees only results other
/// than `Continue`.
///
/// A method is decoded the first time one of its frames runs. A method
/// the decoder rejects throws `java/lang/InternalError` at its
/// invocation: its frame is popped unrun and the error dispatched from
/// the caller.
pub fn run(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
) -> StepResult {
    loop {
        let Some(frame) = frames.last() else {
            return StepResult::Finished;
        };
        let blob = frame.code.clone();
        let sr = match blob.ops() {
            Ok(code) => exec::execute(state, frames, ctx, tid, blob.class, code),
            Err(why) => {
                let msg = format!(
                    "{}.{}: {why}",
                    state.registry.get(blob.class).name,
                    blob.name
                );
                pop_frame(state, frames, ctx, tid);
                throw_vm(state, frames, ctx, tid, "java/lang/InternalError", &msg)
            }
        };
        if !matches!(sr, StepResult::Continue) {
            return sr;
        }
    }
}

/// The runtime class id of a heap object.
pub fn runtime_class_of(state: &mut JvmState, obj: ObjRef) -> Result<ClassId, StepResult> {
    let name = match state.heap.get(obj) {
        HeapObj::Instance { class, .. } => return Ok(*class),
        HeapObj::JavaString(_) => "java/lang/String".to_string(),
        HeapObj::StringBuilder(_) => "java/lang/StringBuilder".to_string(),
        other => other.array_class_name().expect("array"),
    };
    if name.starts_with('[') {
        state
            .registry
            .ensure_array_class(&name)
            .map_err(|_| StepResult::NeedClass(name))
    } else {
        state
            .registry
            .lookup(&name)
            .ok_or(StepResult::NeedClass(name))
    }
}

/// Look up a class, requesting a load if undefined.
pub fn ensure_class(state: &mut JvmState, name: &str) -> Result<ClassId, StepResult> {
    if name.starts_with('[') {
        return state
            .registry
            .ensure_array_class(name)
            .map_err(|_| StepResult::NeedClass(name.to_string()));
    }
    state
        .registry
        .lookup(name)
        .ok_or_else(|| StepResult::NeedClass(name.to_string()))
}

// ----------------------------------------------------------------
// Resolution caches (the interpreter fast path)
//
// The slow paths of the quickening ops in `crate::exec`. Each one
// fills its op's cell exactly when the class's constant-pool cache (or,
// for call sites, the op itself) holds the resolution, so the op's
// fast path counts the same cache hit a cache probe would have.
// ----------------------------------------------------------------

/// Install a quickened entry for CP index `idx` of `class`.
fn quicken(state: &JvmState, class: ClassId, idx: u16, entry: CpEntry) {
    state
        .registry
        .get(class)
        .cp_cache
        .borrow_mut()
        .insert(idx, entry);
}

/// The quickened field entry at `idx` of `class`, if installed.
fn cp_field(state: &JvmState, class: ClassId, idx: u16) -> Option<Rc<ResolvedField>> {
    match state.registry.get(class).cp_cache.borrow().get(&idx) {
        Some(CpEntry::Field(f)) => Some(f.clone()),
        _ => None,
    }
}

/// The quickened class constant at `idx` of `class`: returns the cached
/// entry (a cp-cache hit) or decodes the name from the constant pool
/// and installs a fresh one (a miss). `Err` carries a CP decode error.
fn cp_class(
    state: &JvmState,
    ctx: &ThreadContext<'_>,
    class: ClassId,
    idx: u16,
) -> Result<Rc<ClassConst>, String> {
    if let Some(CpEntry::Class(cc)) = state.registry.get(class).cp_cache.borrow().get(&idx) {
        state.perf.cp_hit.inc();
        return Ok(cc.clone());
    }
    note_cp_miss(state, ctx, "class");
    let rc = state.registry.get(class);
    let cf = rc.cf.as_ref().expect("class file");
    let name = cf
        .constant_pool
        .class_name(idx)
        .map_err(|e| e.to_string())?;
    let cc = Rc::new(ClassConst {
        name: Rc::from(name),
        init_id: Cell::new(None),
        mirror: Cell::new(None),
    });
    rc.cp_cache
        .borrow_mut()
        .insert(idx, CpEntry::Class(cc.clone()));
    Ok(cc)
}

/// The class constant at `idx` of `class`, memoized in the op's `cell`
/// (a hit, as [`cp_class`] would count once the entry exists).
pub(crate) fn class_const<'c>(
    state: &JvmState,
    ctx: &ThreadContext<'_>,
    class: ClassId,
    idx: u16,
    cell: &'c OnceCell<Rc<ClassConst>>,
) -> Result<&'c ClassConst, String> {
    if let Some(cc) = cell.get() {
        state.perf.cp_hit.inc();
        return Ok(cc);
    }
    let cc = cp_class(state, ctx, class, idx)?;
    Ok(cell.get_or_init(|| cc))
}

/// The executing frame's class, whose constant pool an op refers to.
fn code_class(frames: &[Frame]) -> ClassId {
    frames.last().expect("executing frame").code.class
}

/// The hit path of a quickened `ldc`: an interned object or class
/// mirror costs one map-sized operation, a long its 64-bit op.
pub(crate) fn ldc_hit(state: &JvmState, v: Value) {
    state.perf.cp_hit.inc();
    match v {
        Value::Long(_) => state.engine.charge(Cost::LongOp),
        Value::Ref(_) => state.engine.charge(Cost::MapOp),
        _ => {}
    }
}

/// `ldc` of constant `idx` whose op has not memoized it: a cache hit
/// fills `cell`; a miss decodes the constant and quickens it.
pub(crate) fn ldc(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    idx: u16,
    cell: &OnceCell<Value>,
) -> Result<Value, StepResult> {
    let class = code_class(frames);
    let cached = state
        .registry
        .get(class)
        .cp_cache
        .borrow()
        .get(&idx)
        .cloned();
    let hit = match &cached {
        Some(CpEntry::Value(v)) => Some(*v),
        Some(CpEntry::Obj(r)) => Some(Value::Ref(Some(*r))),
        Some(CpEntry::Class(cc)) => cc.mirror.get().map(|r| Value::Ref(Some(r))),
        _ => None,
    };
    if let Some(v) = hit {
        ldc_hit(state, v);
        let _ = cell.set(v);
        return Ok(v);
    }
    note_cp_miss(state, ctx, "ldc");
    let cf = state.registry.get(class).cf.as_ref().expect("code class");
    let constant = match cf.constant_pool.get(idx) {
        Ok(c) => c.clone(),
        Err(e) => {
            let msg = format!("bad ldc: {e}");
            return Err(throw_vm(
                state,
                frames,
                ctx,
                tid,
                "java/lang/InternalError",
                &msg,
            ));
        }
    };
    let (v, entry) = match constant {
        Constant::Integer(v) => (Value::Int(v), CpEntry::Value(Value::Int(v))),
        Constant::Float(v) => (Value::Float(v), CpEntry::Value(Value::Float(v))),
        Constant::Long(v) => {
            state.engine.charge(Cost::LongOp);
            (Value::Long(v), CpEntry::Value(Value::Long(v)))
        }
        Constant::Double(v) => (Value::Double(v), CpEntry::Value(Value::Double(v))),
        Constant::String { .. } => {
            let s = cf.constant_pool.string(idx).unwrap_or_default().to_string();
            state.engine.charge_n(Cost::StringOp, s.len() as u64);
            let r = state.intern_string(&s);
            (Value::Ref(Some(r)), CpEntry::Obj(r))
        }
        Constant::Class { .. } => {
            let name = cf
                .constant_pool
                .class_name(idx)
                .unwrap_or_default()
                .to_string();
            // Keep an entry installed by `new` etc. so its resolved id
            // survives the mirror fill.
            let cc = match cached {
                Some(CpEntry::Class(cc)) => cc,
                _ => Rc::new(ClassConst {
                    name: Rc::from(name.as_str()),
                    init_id: Cell::new(None),
                    mirror: Cell::new(None),
                }),
            };
            let r = class_object(state, &name);
            cc.mirror.set(Some(r));
            (Value::Ref(Some(r)), CpEntry::Class(cc))
        }
        other => {
            let msg = format!("ldc of unsupported constant {other:?}");
            return Err(throw_vm(
                state,
                frames,
                ctx,
                tid,
                "java/lang/InternalError",
                &msg,
            ));
        }
    };
    quicken(state, class, idx, entry);
    Ok(v)
}

/// Resolve field reference `idx` for a get/put whose op has not
/// memoized it, running a static field's `<clinit>` protocol. Fills
/// `cell` once the resolution is quickened.
pub(crate) fn resolve_field(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    idx: u16,
    is_static: bool,
    cell: &OnceCell<Rc<ResolvedField>>,
) -> Result<Rc<ResolvedField>, StepResult> {
    let class = code_class(frames);
    if let Some(f) = cp_field(state, class, idx) {
        state.perf.cp_hit.inc();
        let _ = cell.set(f.clone());
        return Ok(f);
    }
    note_cp_miss(state, ctx, if is_static { "static_field" } else { "field" });
    let cf = state.registry.get(class).cf.as_ref().expect("class file");
    let (cname, fname) = match cf.constant_pool.member_ref(idx) {
        Ok(t) => (t.0.to_string(), t.1.to_string()),
        Err(e) => {
            let msg = e.to_string();
            return Err(throw_vm(
                state,
                frames,
                ctx,
                tid,
                "java/lang/InternalError",
                &msg,
            ));
        }
    };
    let class_id = ensure_class(state, &cname)?;
    if is_static {
        if let InitAction::Pushed = ensure_initialized(state, frames, tid, class_id) {
            return Err(StepResult::CallBoundary);
        }
    }
    let Some(resolved) = state.registry.resolve_field(class_id, &fname) else {
        let msg = format!("{cname}.{fname}");
        return Err(throw_vm(
            state,
            frames,
            ctx,
            tid,
            "java/lang/NoSuchFieldError",
            &msg,
        ));
    };
    let resolved = Rc::new(resolved);
    // Instance-field resolution is stable (classes are never redefined).
    // A static one quickens only once the `<clinit>` chain completed, so
    // the hit path may skip the init protocol.
    if !is_static
        || matches!(
            state.registry.get(class_id).clinit,
            ClinitState::Initialized
        )
    {
        quicken(state, class, idx, CpEntry::Field(resolved.clone()));
        let _ = cell.set(resolved.clone());
    }
    Ok(resolved)
}

/// The class `new` instantiates, for an op that has not memoized it:
/// resolves the class constant and runs the `<clinit>` protocol.
pub(crate) fn new_class(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    idx: u16,
    cell: &OnceCell<ClassId>,
) -> Result<ClassId, StepResult> {
    let class = code_class(frames);
    let cached = match state.registry.get(class).cp_cache.borrow().get(&idx) {
        Some(CpEntry::Class(cc)) => Some(cc.clone()),
        _ => None,
    };
    let cc = match cached {
        Some(cc) => {
            if let Some(id) = cc.init_id.get() {
                // Fully quickened: class resolved and its `<clinit>`
                // chain already ran.
                state.perf.cp_hit.inc();
                let _ = cell.set(id);
                return Ok(id);
            }
            note_cp_miss(state, ctx, "new");
            cc
        }
        None => match cp_class(state, ctx, class, idx) {
            Ok(cc) => cc,
            Err(msg) => {
                return Err(throw_vm(
                    state,
                    frames,
                    ctx,
                    tid,
                    "java/lang/InternalError",
                    &msg,
                ))
            }
        },
    };
    let class_id = ensure_class(state, &cc.name)?;
    if let InitAction::Pushed = ensure_initialized(state, frames, tid, class_id) {
        return Err(StepResult::CallBoundary);
    }
    if matches!(
        state.registry.get(class_id).clinit,
        ClinitState::Initialized
    ) {
        cc.init_id.set(Some(class_id));
    }
    Ok(class_id)
}

/// Decode invoke site `idx` — its symbolic reference and descriptor —
/// into the op's `cell` (a constant-pool cache miss).
pub(crate) fn call_site<'c>(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    idx: u16,
    cell: &'c OnceCell<Rc<CallSite>>,
) -> Result<&'c Rc<CallSite>, StepResult> {
    note_cp_miss(state, ctx, "invoke");
    let cf = state
        .registry
        .get(code_class(frames))
        .cf
        .as_ref()
        .expect("class file");
    let decoded = cf
        .constant_pool
        .member_ref(idx)
        .and_then(|(cname, mname, mdesc)| {
            let desc = doppio_classfile::descriptor::parse_method_descriptor(mdesc)?;
            Ok(CallSite {
                cname: Rc::from(cname),
                name: Rc::from(mname),
                desc: Rc::from(mdesc),
                arg_slots: desc.param_slots() as usize,
                ref_class: Cell::new(None),
                direct: Cell::new(None),
                mono: Cell::new(None),
            })
        });
    match decoded {
        Ok(site) => Ok(cell.get_or_init(|| Rc::new(site))),
        Err(e) => {
            let msg = e.to_string();
            Err(throw_vm(
                state,
                frames,
                ctx,
                tid,
                "java/lang/InternalError",
                &msg,
            ))
        }
    }
}

/// The access flags of a resolved method.
fn method_flags_of(state: &JvmState, target: crate::class::MethodRef) -> u16 {
    state
        .registry
        .get(target.class)
        .cf
        .as_ref()
        .expect("method class")
        .methods[target.index]
        .access_flags
}

/// Count a constant-pool cache miss and, when tracing, mark the
/// quickening point under the `perf` category.
fn note_cp_miss(state: &JvmState, ctx: &ThreadContext<'_>, what: &'static str) {
    state.perf.cp_miss.inc();
    let tracer = state.engine.tracer();
    if tracer.enabled() {
        tracer.instant(
            cat::PERF,
            "cp_quicken",
            state.engine.now_ns(),
            ctx.trace_lane(),
            vec![("kind", what.into())],
        );
    }
}

/// Count an inline-cache miss at an invoke site and, when tracing, mark
/// the re-dispatch under the `perf` category.
fn note_ic_miss(state: &JvmState, ctx: &ThreadContext<'_>, method: &Rc<str>) {
    state.perf.ic_miss.inc();
    let tracer = state.engine.tracer();
    if tracer.enabled() {
        tracer.instant(
            cat::PERF,
            "icache_miss",
            state.engine.now_ns(),
            ctx.trace_lane(),
            vec![("method", method.to_string().into())],
        );
    }
}

enum InitAction {
    Ready,
    Pushed,
}

/// Ensure a class (and its superclasses) are initialized; pushes the
/// outermost pending `<clinit>` frame if needed (the caller's current
/// instruction retries afterwards).
fn ensure_initialized(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    tid: ThreadId,
    class: ClassId,
) -> InitAction {
    // Find the outermost un-initialized ancestor.
    let mut chain = Vec::new();
    let mut cur = Some(class);
    while let Some(id) = cur {
        chain.push(id);
        cur = state.registry.get(id).super_id;
    }
    for &id in chain.iter().rev() {
        match state.registry.get(id).clinit {
            ClinitState::Initialized => continue,
            ClinitState::InProgress(owner) if owner == tid.0 => continue,
            ClinitState::InProgress(_) => continue, // simplification: no cross-thread wait
            ClinitState::NotStarted => {
                // Look for a <clinit>.
                let clinit = state.registry.get(id).cf.as_ref().and_then(|cf| {
                    cf.methods
                        .iter()
                        .position(|m| m.name == "<clinit>" && m.descriptor == "()V")
                });
                state.registry.get_mut(id).clinit = match clinit {
                    None => ClinitState::Initialized,
                    Some(_) => ClinitState::InProgress(tid.0),
                };
                if let Some(midx) = clinit {
                    let blob = state.code_blob(id, midx).expect("clinit has code");
                    frames.push(state.new_frame(blob));
                    return InitAction::Pushed;
                }
            }
        }
    }
    InitAction::Ready
}

/// Allocate an instance with every field defaulted, charged as §6.7's
/// dictionary: one map operation per field.
pub fn alloc_instance(state: &mut JvmState, class: ClassId) -> ObjRef {
    state.engine.charge(Cost::Alloc);
    let layout = &state.registry.get(class).layout;
    state.engine.charge_n(Cost::MapOp, layout.keys.len() as u64);
    let obj = HeapObj::instance(class, layout);
    state.heap.alloc(obj)
}

pub(crate) fn alloc_multi(state: &mut JvmState, desc: &str, sizes: &[i32]) -> ObjRef {
    let len = sizes[0] as usize;
    // The element descriptor (empty for a malformed non-array `desc`).
    let inner_desc = desc.get(1..).unwrap_or_default();
    if sizes.len() == 1 {
        // Innermost dimension: choose representation by component.
        let component = inner_desc;
        return match component.as_bytes().first() {
            Some(b'I') => state.heap.alloc(HeapObj::ArrayInt(vec![0; len])),
            Some(b'J') => state.heap.alloc(HeapObj::ArrayLong(vec![0; len])),
            Some(b'F') => state.heap.alloc(HeapObj::ArrayFloat(vec![0.0; len])),
            Some(b'D') => state.heap.alloc(HeapObj::ArrayDouble(vec![0.0; len])),
            Some(b'B') | Some(b'Z') => state.heap.alloc(HeapObj::ArrayByte(vec![0; len])),
            Some(b'C') => state.heap.alloc(HeapObj::ArrayChar(vec![0; len])),
            Some(b'S') => state.heap.alloc(HeapObj::ArrayShort(vec![0; len])),
            _ => {
                let comp = component
                    .strip_prefix('L')
                    .map(|s| s.trim_end_matches(';').to_string())
                    .unwrap_or_else(|| component.to_string());
                state.heap.alloc(HeapObj::ArrayRef {
                    component: comp,
                    data: vec![None; len],
                })
            }
        };
    }
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        data.push(Some(alloc_multi(state, inner_desc, &sizes[1..])));
    }
    state.heap.alloc(HeapObj::ArrayRef {
        component: inner_desc.to_string(),
        data,
    })
}

/// A java/lang/Class mirror object for `name` (cached).
pub fn class_object(state: &mut JvmState, name: &str) -> ObjRef {
    let key = format!("\u{0}class:{name}");
    if let Some(&r) = state.string_pool.get(&key) {
        return r;
    }
    let class_id = state.registry.lookup("java/lang/Class");
    let r = match class_id {
        Some(cid) => {
            let name_ref = state.intern_string(name);
            let mirror = HeapObj::instance(cid, &state.registry.get(cid).layout);
            let r = state.heap.alloc(mirror);
            state.set_field(r, "java/lang/Class.name", Value::Ref(Some(name_ref)));
            r
        }
        None => state.heap.alloc_string(name),
    };
    state.string_pool.insert(key, r);
    r
}

// ----------------------------------------------------------------
// Monitors (§6.2 context-switch points)
// ----------------------------------------------------------------

/// Try to acquire a monitor; true on success (including recursion).
/// Outermost acquisitions feed the runtime's wait-for graph and
/// lock-order-inversion detector.
pub fn try_enter_monitor(
    state: &mut JvmState,
    ctx: &mut ThreadContext<'_>,
    obj: ObjRef,
    tid: ThreadId,
) -> bool {
    let m = state.monitors.entry(obj).or_default();
    match &mut m.owner {
        None => {
            m.owner = Some((tid, 1));
            ctx.runtime()
                .note_acquire(tid, Resource::Monitor(obj as u64));
            true
        }
        Some((owner, count)) if *owner == tid => {
            *count += 1;
            true
        }
        _ => false,
    }
}

/// Queue the thread on a contended monitor.
pub fn queue_on_monitor(state: &mut JvmState, obj: ObjRef, tid: ThreadId) {
    let m = state.monitors.entry(obj).or_default();
    if !m.entry_queue.contains(&tid) {
        m.entry_queue.push_back(tid);
    }
}

/// Release one recursion level; wakes the next queued thread when the
/// monitor becomes free.
pub fn exit_monitor(
    state: &mut JvmState,
    ctx: &mut ThreadContext<'_>,
    obj: ObjRef,
    tid: ThreadId,
) -> Result<(), String> {
    let m = state
        .monitors
        .get_mut(&obj)
        .ok_or_else(|| "monitor not held".to_string())?;
    match &mut m.owner {
        Some((owner, count)) if *owner == tid => {
            *count -= 1;
            if *count == 0 {
                m.owner = None;
                let next = m.entry_queue.pop_front();
                ctx.runtime()
                    .note_release(tid, Resource::Monitor(obj as u64));
                if let Some(next) = next {
                    ctx.wake(next);
                }
            }
            Ok(())
        }
        _ => Err("monitor owned by another thread".to_string()),
    }
}

/// "Class.method" for the thread's innermost frame — the site string
/// deadlock blame and wait-for edges carry.
pub fn current_site(state: &JvmState, frames: &[Frame]) -> String {
    match frames.last() {
        Some(f) => format!("{}.{}", state.registry.get(f.code.class).name, f.code.name),
        None => "<no frame>".to_string(),
    }
}

/// The thread's whole frame stack as "Class.method" strings, outermost
/// first — the shape the sampling profiler folds into `a;b;c` stacks.
pub fn stack_trace(state: &JvmState, frames: &[Frame]) -> Vec<String> {
    frames
        .iter()
        .map(|f| format!("{}.{}", state.registry.get(f.code.class).name, f.code.name))
        .collect()
}

// ----------------------------------------------------------------
// Exceptions (§6.6)
// ----------------------------------------------------------------

/// Allocate and throw a VM exception by class name.
pub fn throw_vm(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    class_name: &str,
    message: &str,
) -> StepResult {
    let ex = make_exception(state, class_name, message);
    dispatch_exception(state, frames, ctx, tid, ex)
}

/// Build an exception instance (class must be defined — the runtime
/// library guarantees the VM exception classes are).
pub fn make_exception(state: &mut JvmState, class_name: &str, message: &str) -> ObjRef {
    let msg_ref = state.intern_string(message);
    match state.registry.lookup(class_name) {
        Some(cid) => {
            let r = alloc_instance(state, cid);
            state.set_field(r, "java/lang/Throwable.message", Value::Ref(Some(msg_ref)));
            r
        }
        // Bootstrap fallback: a bare string stands in for the object.
        None => state.heap.alloc_string(format!("{class_name}: {message}")),
    }
}

/// Walk the virtual stack for a handler — "DoppioJVM emulates JVM
/// exception handling semantics by iterating through its virtual stack
/// representation until it finds a stack frame with an applicable
/// exception handler, or until it empties the stack".
pub fn dispatch_exception(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    ex: ObjRef,
) -> StepResult {
    let ex_class = runtime_class_of(state, ex).ok();
    while let Some(frame) = frames.last_mut() {
        let pc = frame.pc as u16;
        let code = frame.code.clone();
        let mut matched = None;
        for entry in &code.exceptions {
            if pc < entry.start_pc || pc >= entry.end_pc {
                continue;
            }
            let applies = if entry.catch_type == 0 {
                true
            } else {
                let cf = state
                    .registry
                    .get(code.class)
                    .cf
                    .as_ref()
                    .expect("class file");
                match (cf.constant_pool.class_name(entry.catch_type), ex_class) {
                    (Ok(catch_name), Some(exc)) => {
                        let catch_name = catch_name.to_string();
                        state.registry.is_assignable(exc, &catch_name)
                    }
                    _ => false,
                }
            };
            if applies {
                matched = Some(entry.handler_pc);
                break;
            }
        }
        if let Some(handler_pc) = matched {
            let frame = frames.last_mut().expect("frame");
            frame.stack.clear();
            frame.push(Value::Ref(Some(ex)));
            frame.pc = handler_pc as usize;
            return StepResult::Continue;
        }
        pop_frame(state, frames, ctx, tid);
    }
    StepResult::Uncaught(ex)
}

/// Pop the top frame: a `<clinit>` counts as finished, and a
/// synchronized method releases its monitor.
fn pop_frame(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
) {
    let popped = frames.pop().expect("frame");
    if popped.code.is_clinit {
        state.registry.get_mut(popped.code.class).clinit = ClinitState::Initialized;
    }
    if let Some(mon) = popped.held_monitor {
        let _ = exit_monitor(state, ctx, mon, tid);
    }
    state.free_frame(popped);
}

// ----------------------------------------------------------------
// Calls and returns
// ----------------------------------------------------------------

/// Pop a frame, delivering `value` to the caller.
pub fn do_return(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    value: Option<Value>,
) -> StepResult {
    pop_frame(state, frames, ctx, tid);
    match frames.last_mut() {
        None => StepResult::Finished,
        Some(caller) => {
            if let Some(v) = value {
                caller.push(v);
            }
            StepResult::CallBoundary
        }
    }
}

/// The body of an invoke once its call site is decoded: dispatch,
/// synchronization, argument transfer and the frame push. Returns to
/// `next_pc` in the caller.
pub(crate) fn invoke_with_site(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    opcode: u8,
    next_pc: usize,
    site: &Rc<CallSite>,
) -> StepResult {
    let arg_slots = site.arg_slots;
    let has_receiver = opcode != op::INVOKESTATIC;
    let total_slots = arg_slots + usize::from(has_receiver);
    // Unverified code can invoke with too few operands.
    let caller_stack = &frames.last().expect("frame").stack;
    let Some(split) = caller_stack.len().checked_sub(total_slots) else {
        let msg = format!(
            "{}.{}{} takes {total_slots} argument slots; the operand stack holds {}",
            site.cname,
            site.name,
            site.desc,
            caller_stack.len()
        );
        return throw_vm(state, frames, ctx, tid, "java/lang/InternalError", &msg);
    };
    // The receiver, under the arguments.
    let recv = caller_stack.get(split).copied().filter(|_| has_receiver);

    // Select the target method.
    let (target, method_flags) = if opcode == op::INVOKEVIRTUAL || opcode == op::INVOKEINTERFACE {
        // Dispatch on the receiver.
        let recv = match recv {
            Some(Value::Ref(Some(r))) => r,
            Some(Value::Ref(None)) => {
                let msg = format!("invoke {}", site.name);
                return throw_vm(
                    state,
                    frames,
                    ctx,
                    tid,
                    "java/lang/NullPointerException",
                    &msg,
                );
            }
            other => {
                let msg = format!("receiver is {other:?}");
                return throw_vm(state, frames, ctx, tid, "java/lang/InternalError", &msg);
            }
        };
        let runtime_class = match runtime_class_of(state, recv) {
            Ok(c) => c,
            Err(r) => return r,
        };
        match site.mono.get() {
            Some((cls, t, flags)) if cls == runtime_class => {
                // Monomorphic hit: the §6.7 method dictionary lookup
                // (and its Cost::MapOp) is skipped entirely. A subclass
                // loaded mid-run has a fresh ClassId and lands in the
                // arm below, so the cache self-invalidates.
                state.perf.ic_hit.inc();
                (t, flags)
            }
            _ => {
                note_ic_miss(state, ctx, &site.name);
                if site.ref_class.get().is_none() {
                    match ensure_class(state, &site.cname) {
                        Ok(id) => site.ref_class.set(Some(id)),
                        Err(r) => return r,
                    }
                }
                // §6.7's method dictionary lookup.
                state.engine.charge(Cost::MapOp);
                let Some(t) = state
                    .registry
                    .select_virtual(runtime_class, &site.name, &site.desc)
                else {
                    let msg = format!("{}.{}{}", site.cname, site.name, site.desc);
                    return throw_vm(state, frames, ctx, tid, "java/lang/NoSuchMethodError", &msg);
                };
                let flags = method_flags_of(state, t);
                site.mono.set(Some((runtime_class, t, flags)));
                (t, flags)
            }
        }
    } else {
        if opcode == op::INVOKESPECIAL {
            // invokespecial still null-checks its receiver.
            if matches!(recv, Some(Value::Ref(None))) {
                let msg = format!("invokespecial {}", site.name);
                return throw_vm(
                    state,
                    frames,
                    ctx,
                    tid,
                    "java/lang/NullPointerException",
                    &msg,
                );
            }
        }
        match site.direct.get() {
            Some((t, flags)) => {
                // Statically-bound hit: resolution (and, for
                // invokestatic, the `<clinit>` protocol) already done.
                state.perf.ic_hit.inc();
                (t, flags)
            }
            None => {
                note_ic_miss(state, ctx, &site.name);
                let ref_class = match site.ref_class.get() {
                    Some(id) => id,
                    None => match ensure_class(state, &site.cname) {
                        Ok(id) => {
                            site.ref_class.set(Some(id));
                            id
                        }
                        Err(r) => return r,
                    },
                };
                if opcode == op::INVOKESTATIC {
                    match ensure_initialized(state, frames, tid, ref_class) {
                        InitAction::Ready => {}
                        InitAction::Pushed => return StepResult::CallBoundary,
                    }
                }
                let Some(t) = state
                    .registry
                    .resolve_method(ref_class, &site.name, &site.desc)
                else {
                    let msg = format!("{}.{}{}", site.cname, site.name, site.desc);
                    return throw_vm(state, frames, ctx, tid, "java/lang/NoSuchMethodError", &msg);
                };
                let flags = method_flags_of(state, t);
                // invokespecial binds statically; invokestatic binds
                // once its class finished `<clinit>` (so the hit path
                // may skip the initialization protocol).
                if opcode == op::INVOKESPECIAL
                    || matches!(
                        state.registry.get(ref_class).clinit,
                        ClinitState::Initialized
                    )
                {
                    site.direct.set(Some((t, flags)));
                }
                (t, flags)
            }
        }
    };

    // Synchronized methods: acquire the monitor before popping args.
    let mut acquired_monitor = None;
    if method_flags & access::ACC_SYNCHRONIZED != 0 && &*site.name != "<clinit>" {
        let lock_obj = if method_flags & access::ACC_STATIC != 0 {
            let cls_name = state.registry.get(target.class).name.clone();
            class_object(state, &cls_name)
        } else {
            match recv {
                Some(Value::Ref(Some(r))) => r,
                _ => {
                    return throw_vm(
                        state,
                        frames,
                        ctx,
                        tid,
                        "java/lang/NullPointerException",
                        "sync",
                    )
                }
            }
        };
        if try_enter_monitor(state, ctx, lock_obj, tid) {
            acquired_monitor = Some(lock_obj);
        } else {
            queue_on_monitor(state, lock_obj, tid);
            return StepResult::MonitorBlocked(lock_obj);
        }
    }

    let caller = frames.last_mut().expect("frame");
    caller.pc = next_pc; // the call returns past the invoke

    // Native?
    if method_flags & access::ACC_NATIVE != 0 {
        // Natives see logical values, not stack slots: drop the
        // padding slots of wide arguments.
        let mut args = caller.stack.split_off(split);
        args.retain(|v| !matches!(v, Value::Padding));
        let class_name = state.registry.get(target.class).name.clone();
        let outcome = natives::call_native(
            &mut NativeCtx {
                state,
                frames,
                ctx,
                tid,
            },
            &class_name,
            &site.name,
            &site.desc,
            args,
        );
        return natives::apply_outcome(state, frames, ctx, tid, outcome);
    }

    if frames.len() >= 8192 {
        return throw_vm(
            state,
            frames,
            ctx,
            tid,
            "java/lang/StackOverflowError",
            &format!("invoking {}", site.name),
        );
    }
    let Some(blob) = state.code_blob(target.class, target.index) else {
        return throw_vm(
            state,
            frames,
            ctx,
            tid,
            "java/lang/AbstractMethodError",
            &format!("{}.{}{}", site.cname, site.name, site.desc),
        );
    };
    if usize::from(blob.max_locals) < total_slots {
        // Like malformed code: the callee never runs, and the error is
        // thrown from the caller.
        if let Some(mon) = acquired_monitor {
            let _ = exit_monitor(state, ctx, mon, tid);
        }
        let msg = format!(
            "{}.{}{}: {total_slots} argument slots exceed max_locals {}",
            site.cname, site.name, site.desc, blob.max_locals
        );
        return throw_vm(state, frames, ctx, tid, "java/lang/InternalError", &msg);
    }
    let mut callee = state.new_frame(blob);
    callee.held_monitor = acquired_monitor;
    // Move the argument slots (already slot-expanded) from the caller's
    // operand stack straight into the callee's locals.
    let caller = frames.last_mut().expect("frame");
    callee.locals[..total_slots].copy_from_slice(&caller.stack[split..]);
    caller.stack.truncate(split);
    frames.push(callee);
    StepResult::CallBoundary
}
