//! Native methods (§6.3).
//!
//! "The Java Class Library exposes JVM interfaces to a wide variety of
//! native functionality, such as the file system, unsafe memory
//! operations, and network connections. ... DoppioJVM implements a
//! wide variety of these native methods directly in JavaScript. The
//! methods corresponding to the file system API use the Doppio file
//! system, the methods corresponding to unsafe memory operations use
//! the Doppio heap, and the methods corresponding to network
//! connections use Doppio sockets. When a native method needs to use
//! an asynchronous browser API, DoppioJVM uses the suspend-and-resume
//! mechanism ... to 'pause' execution until the browser triggers the
//! resumption callback" — here, [`NativeOutcome::Block`] plus a poll
//! closure the thread re-runs when woken.
//!
//! User-defined natives (the JNI story of §6.3: "reimplemented ... and
//! registered with DoppioJVM") register through
//! [`crate::jvm::Jvm::register_native`].

use doppio_core::{Resource, ThreadContext, ThreadId};
use doppio_jsengine::Cost;

use crate::frame::Frame;
use crate::interp::{self, StepResult};
use crate::object::{HeapObj, JavaStr};
use crate::state::JvmState;
use crate::value::{ObjRef, Value};

/// The value in `Ok`; an `Err` outcome (a guest exception) returns
/// from the native.
macro_rules! or_throw {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(outcome) => return outcome,
        }
    };
}

/// What a native method call produced.
pub enum NativeOutcome {
    /// Completed with an optional return value.
    Return(Option<Value>),
    /// Threw an exception.
    Throw {
        /// Exception class name.
        class: String,
        /// Exception message.
        message: String,
    },
    /// Blocked on an asynchronous operation: poll `resume` when woken.
    Block(PendingNative),
    /// Voluntary context switch (`Thread.yield`).
    Yield,
    /// `System.exit`.
    Exit(i32),
}

/// A blocked native: polled on wake; `None` means still waiting.
pub type PendingNative = Box<dyn FnMut(&mut NativeCtx<'_, '_, '_>) -> Option<NativeOutcome>>;

/// Everything a native method can touch.
pub struct NativeCtx<'a, 'b, 'rt> {
    /// The shared JVM state.
    pub state: &'a mut JvmState,
    /// The calling thread's frame stack (for stack introspection).
    pub frames: &'a mut Vec<Frame>,
    /// The Doppio thread context (async bridge, spawn, wake).
    pub ctx: &'b mut ThreadContext<'rt>,
    /// The calling thread.
    pub tid: ThreadId,
}

impl NativeCtx<'_, '_, '_> {
    fn string_arg(&self, v: &Value) -> Result<String, NativeOutcome> {
        match v {
            Value::Ref(Some(r)) => match self.state.heap.get(*r) {
                HeapObj::JavaString(s) => Ok(s.to_string()),
                _ => Err(NativeOutcome::Throw {
                    class: "java/lang/InternalError".into(),
                    message: "expected a String".into(),
                }),
            },
            _ => Err(NativeOutcome::Throw {
                class: "java/lang/NullPointerException".into(),
                message: "null String".into(),
            }),
        }
    }

    fn ret_string(&mut self, s: impl Into<String>) -> NativeOutcome {
        let s = s.into();
        self.state.engine.charge_n(Cost::StringOp, s.len() as u64);
        let r = self.state.heap.alloc_string(s);
        NativeOutcome::Return(Some(Value::Ref(Some(r))))
    }
}

fn throw(class: &str, message: impl Into<String>) -> NativeOutcome {
    NativeOutcome::Throw {
        class: class.to_string(),
        message: message.into(),
    }
}

fn npe(what: &str) -> NativeOutcome {
    throw("java/lang/NullPointerException", what)
}

/// Record an `Async` wait-for edge for the calling thread, with the
/// innermost guest frame as the blame site.
fn note_async_block(n: &mut NativeCtx<'_, '_, '_>, label: &str) {
    let site = interp::current_site(n.state, n.frames);
    n.ctx.note_block(Resource::Async(label.to_string()), site);
}

/// Block on an asynchronous completion, labeled in the wait-for graph.
/// The edge is restored on every poll that stays blocked (a wake from
/// an unrelated source would otherwise erase it and deadlock blame
/// would go blind).
fn block_labeled(
    n: &mut NativeCtx<'_, '_, '_>,
    label: String,
    mut poll: PendingNative,
) -> NativeOutcome {
    note_async_block(n, &label);
    NativeOutcome::Block(Box::new(move |n2| {
        let out = poll(n2);
        if out.is_none() {
            note_async_block(n2, &label);
        }
        out
    }))
}

/// Turn a native outcome into a step result (pushing return values
/// onto the caller's frame). A normal return is a call boundary and
/// takes the §6.1 suspend check.
pub fn apply_outcome(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
    outcome: NativeOutcome,
) -> StepResult {
    match outcome {
        NativeOutcome::Return(v) => {
            if let (Some(frame), Some(v)) = (frames.last_mut(), v) {
                frame.push(v);
            }
            if frames.is_empty() {
                StepResult::Finished
            } else {
                interp::suspend_check(state, ctx)
            }
        }
        NativeOutcome::Throw { class, message } => {
            interp::throw_vm(state, frames, ctx, tid, &class, &message)
        }
        NativeOutcome::Block(p) => StepResult::NativeBlocked(p),
        NativeOutcome::Yield => {
            // The instruction already completed (no return value); the
            // thread ends its slice unconditionally so yields are real
            // context-switch points for schedule exploration.
            StepResult::VoluntaryYield
        }
        NativeOutcome::Exit(code) => StepResult::Exit(code),
    }
}

/// Dispatch a native method call.
pub fn call_native(
    n: &mut NativeCtx<'_, '_, '_>,
    class: &str,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    // User-registered natives take precedence (the §6.3 JNI path).
    if !n.state.user_natives.is_empty() {
        let key = (class.to_string(), name.to_string(), desc.to_string());
        if let Some(f) = n.state.user_natives.get(&key).cloned() {
            return f(n, args);
        }
    }
    match class {
        "java/lang/Object" => object_native(n, name, desc, args),
        "java/lang/System" => system_native(n, name, desc, args),
        "java/io/PrintStream" => printstream_native(n, name, desc, args),
        "java/lang/String" => string_native(n, name, desc, args),
        "java/lang/StringBuilder" => stringbuilder_native(n, name, desc, args),
        "java/lang/Math" => math_native(n, name, desc, args),
        "java/lang/Integer" => integer_native(n, name, desc, args),
        "java/lang/Long" => long_native(n, name, desc, args),
        "java/lang/Double" => double_native(n, name, desc, args),
        "java/lang/Thread" => thread_native(n, name, desc, args),
        "java/lang/Throwable" => throwable_native(n, name, desc, args),
        "java/lang/Class" => class_native(n, name, desc, args),
        "sun/misc/Unsafe" => unsafe_native(n, name, desc, args),
        "doppio/runtime/FileSystem" => fs_native(n, name, desc, args),
        "doppio/runtime/Console" => console_native(n, name, desc, args),
        "doppio/runtime/JS" => js_native(n, name, desc, args),
        "doppio/net/Socket" => socket_native(n, name, desc, args),
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("{class}.{name}{desc}"),
        ),
    }
}

// ----------------------------------------------------------------
// java/lang/Object
// ----------------------------------------------------------------

fn object_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    let recv = args.first().and_then(Value::as_ref);
    match (name, desc) {
        ("hashCode", "()I") | ("identityHashCode", "(Ljava/lang/Object;)I") => {
            let r = recv.or_else(|| args.last().and_then(Value::as_ref));
            NativeOutcome::Return(Some(Value::Int(r.map(|r| r as i32).unwrap_or(0))))
        }
        ("getClass", "()Ljava/lang/Class;") => {
            let Some(r) = recv else {
                return npe("getClass");
            };
            match interp::runtime_class_of(n.state, r) {
                Ok(cid) => {
                    let cname = n.state.registry.get(cid).name.clone();
                    let mirror = interp::class_object(n.state, &cname);
                    NativeOutcome::Return(Some(Value::Ref(Some(mirror))))
                }
                Err(_) => throw("java/lang/InternalError", "getClass"),
            }
        }
        ("toString", "()Ljava/lang/String;") => {
            let Some(r) = recv else {
                return npe("toString");
            };
            let text = match n.state.heap.get(r) {
                HeapObj::JavaString(s) => s.to_string(),
                HeapObj::StringBuilder(s) => s.clone(),
                HeapObj::Instance { class, .. } => {
                    format!("{}@{:x}", n.state.registry.get(*class).name, r)
                }
                other => format!("{}@{:x}", other.array_class_name().unwrap_or_default(), r),
            };
            n.ret_string(text)
        }
        ("wait", "()V") => {
            let Some(r) = recv else { return npe("wait") };
            monitor_wait(n, r)
        }
        ("notify", "()V") => {
            let Some(r) = recv else { return npe("notify") };
            monitor_notify(n, r, false)
        }
        ("notifyAll", "()V") => {
            let Some(r) = recv else {
                return npe("notifyAll");
            };
            monitor_notify(n, r, true)
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("Object.{name}{desc}"),
        ),
    }
}

fn monitor_wait(n: &mut NativeCtx<'_, '_, '_>, obj: ObjRef) -> NativeOutcome {
    let tid = n.tid;
    let Some(m) = n.state.monitors.get_mut(&obj) else {
        return throw(
            "java/lang/IllegalMonitorStateException",
            "wait without monitor",
        );
    };
    let Some((owner, count)) = m.owner else {
        return throw(
            "java/lang/IllegalMonitorStateException",
            "wait without monitor",
        );
    };
    if owner != tid {
        return throw(
            "java/lang/IllegalMonitorStateException",
            "wait by non-owner",
        );
    }
    // Release fully, remember the recursion count, join the wait set.
    m.owner = None;
    m.wait_set.push((tid, count));
    let next = m.entry_queue.pop_front();
    n.ctx.note_release(Resource::Monitor(obj as u64));
    if let Some(next) = next {
        n.ctx.wake(next);
    }
    let site = interp::current_site(n.state, n.frames);
    n.ctx.note_block(Resource::Cond(obj as u64), site.clone());
    // Resume: once notified we are moved to the entry queue; we must
    // reacquire with the saved count before returning.
    let mut reacquiring = false;
    NativeOutcome::Block(Box::new(move |n2| {
        let tid = n2.tid;
        let m = n2.state.monitors.entry(obj).or_default();
        if !reacquiring {
            // Only proceed once notify moved us out of the wait set.
            if m.wait_set.iter().any(|(t, _)| *t == tid) {
                n2.ctx.note_block(Resource::Cond(obj as u64), site.clone());
                return None;
            }
            reacquiring = true;
        }
        match m.owner {
            None => {
                m.owner = Some((tid, count));
                n2.ctx.note_acquire(Resource::Monitor(obj as u64));
                Some(NativeOutcome::Return(None))
            }
            Some((o, _)) if o == tid => Some(NativeOutcome::Return(None)),
            Some(_) => {
                if !m.entry_queue.contains(&tid) {
                    m.entry_queue.push_back(tid);
                }
                // Notified but the monitor is contended: the wait-for
                // edge sharpens from the condition to the monitor.
                n2.ctx
                    .note_block(Resource::Monitor(obj as u64), site.clone());
                None
            }
        }
    }))
}

fn monitor_notify(n: &mut NativeCtx<'_, '_, '_>, obj: ObjRef, all: bool) -> NativeOutcome {
    let tid = n.tid;
    let Some(m) = n.state.monitors.get_mut(&obj) else {
        return throw(
            "java/lang/IllegalMonitorStateException",
            "notify without monitor",
        );
    };
    match m.owner {
        Some((owner, _)) if owner == tid => {}
        _ => {
            return throw(
                "java/lang/IllegalMonitorStateException",
                "notify by non-owner",
            )
        }
    }
    let to_wake: Vec<ThreadId> = if all {
        m.wait_set.drain(..).map(|(t, _)| t).collect()
    } else if m.wait_set.is_empty() {
        Vec::new()
    } else {
        vec![m.wait_set.remove(0).0]
    };
    for t in to_wake {
        n.ctx.wake(t);
    }
    NativeOutcome::Return(None)
}

// ----------------------------------------------------------------
// java/lang/System, java/io/PrintStream
// ----------------------------------------------------------------

fn system_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    match (name, desc) {
        ("currentTimeMillis", "()J") => {
            NativeOutcome::Return(Some(Value::Long(n.state.engine.now_ms() as i64)))
        }
        ("nanoTime", "()J") => {
            NativeOutcome::Return(Some(Value::Long(n.state.engine.now_ns() as i64)))
        }
        ("exit", "(I)V") => {
            let code = args[0].as_int();
            n.state.exit_code = Some(code);
            NativeOutcome::Exit(code)
        }
        ("identityHashCode", "(Ljava/lang/Object;)I") => NativeOutcome::Return(Some(Value::Int(
            args[0].as_ref().map(|r| r as i32).unwrap_or(0),
        ))),
        ("arraycopy", "(Ljava/lang/Object;ILjava/lang/Object;II)V") => {
            let (src, src_pos, dst, dst_pos, len) = (
                args[0].as_ref(),
                args[1].as_int(),
                args[2].as_ref(),
                args[3].as_int(),
                args[4].as_int(),
            );
            let (Some(src), Some(dst)) = (src, dst) else {
                return npe("arraycopy");
            };
            if src_pos < 0 || dst_pos < 0 || len < 0 {
                return throw("java/lang/ArrayIndexOutOfBoundsException", "arraycopy");
            }
            let (sp, dp, l) = (src_pos as usize, dst_pos as usize, len as usize);
            n.state.engine.charge_n(Cost::ArrayGet, l as u64);
            n.state.engine.charge_n(Cost::ArrayPut, l as u64);
            // Copy out, then in (handles src == dst).
            macro_rules! copy {
                ($variant:ident) => {{
                    let chunk = match n.state.heap.get(src) {
                        HeapObj::$variant(v) => {
                            if sp + l > v.len() {
                                return throw(
                                    "java/lang/ArrayIndexOutOfBoundsException",
                                    "arraycopy src",
                                );
                            }
                            v[sp..sp + l].to_vec()
                        }
                        _ => return throw("java/lang/ArrayStoreException", "type mismatch"),
                    };
                    match n.state.heap.get_mut(dst) {
                        HeapObj::$variant(v) => {
                            if dp + l > v.len() {
                                return throw(
                                    "java/lang/ArrayIndexOutOfBoundsException",
                                    "arraycopy dst",
                                );
                            }
                            v[dp..dp + l].copy_from_slice(&chunk);
                        }
                        _ => return throw("java/lang/ArrayStoreException", "type mismatch"),
                    }
                }};
            }
            match n.state.heap.get(src) {
                HeapObj::ArrayInt(_) => copy!(ArrayInt),
                HeapObj::ArrayLong(_) => copy!(ArrayLong),
                HeapObj::ArrayFloat(_) => copy!(ArrayFloat),
                HeapObj::ArrayDouble(_) => copy!(ArrayDouble),
                HeapObj::ArrayByte(_) => copy!(ArrayByte),
                HeapObj::ArrayChar(_) => copy!(ArrayChar),
                HeapObj::ArrayShort(_) => copy!(ArrayShort),
                HeapObj::ArrayRef { .. } => {
                    let chunk = match n.state.heap.get(src) {
                        HeapObj::ArrayRef { data, .. } => {
                            if sp + l > data.len() {
                                return throw(
                                    "java/lang/ArrayIndexOutOfBoundsException",
                                    "arraycopy src",
                                );
                            }
                            data[sp..sp + l].to_vec()
                        }
                        _ => unreachable!(),
                    };
                    match n.state.heap.get_mut(dst) {
                        HeapObj::ArrayRef { data, .. } => {
                            if dp + l > data.len() {
                                return throw(
                                    "java/lang/ArrayIndexOutOfBoundsException",
                                    "arraycopy dst",
                                );
                            }
                            data[dp..dp + l].copy_from_slice(&chunk);
                        }
                        _ => return throw("java/lang/ArrayStoreException", "type mismatch"),
                    }
                }
                _ => return throw("java/lang/ArrayStoreException", "not an array"),
            }
            NativeOutcome::Return(None)
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("System.{name}{desc}"),
        ),
    }
}

fn printstream_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    let Some(recv) = args.first().and_then(Value::as_ref) else {
        return npe("PrintStream");
    };
    let is_err = matches!(
        n.state.field(recv, "java/io/PrintStream.fd"),
        Some(Value::Int(2))
    );
    let newline = name == "println";
    if name != "print" && name != "println" {
        return throw(
            "java/lang/UnsatisfiedLinkError",
            format!("PrintStream.{name}{desc}"),
        );
    }
    let text = match desc {
        "()V" => String::new(),
        "(Ljava/lang/String;)V" => match args[1] {
            Value::Ref(Some(r)) => match n.state.heap.get(r) {
                HeapObj::JavaString(s) => s.to_string(),
                _ => "<object>".to_string(),
            },
            Value::Ref(None) => "null".to_string(),
            _ => return throw("java/lang/InternalError", "print arg"),
        },
        "(I)V" => args[1].as_int().to_string(),
        "(J)V" => args[1].as_long().to_string(),
        "(C)V" => char::from_u32(args[1].as_int() as u32)
            .unwrap_or('\u{FFFD}')
            .to_string(),
        "(Z)V" => (args[1].as_int() != 0).to_string(),
        "(F)V" => format_double(f64::from(args[1].as_float())),
        "(D)V" => format_double(args[1].as_double()),
        _ => {
            return throw(
                "java/lang/UnsatisfiedLinkError",
                format!("PrintStream.{name}{desc}"),
            )
        }
    };
    let full = if newline { format!("{text}\n") } else { text };
    n.state.engine.charge_n(Cost::StringOp, full.len() as u64);
    if is_err {
        n.state.stderr.extend_from_slice(full.as_bytes());
    } else {
        n.state.write_stdout(&full);
    }
    NativeOutcome::Return(None)
}

/// Render a double roughly as Java does (integral values keep ".0").
fn format_double(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

// ----------------------------------------------------------------
// java/lang/String & StringBuilder
// ----------------------------------------------------------------

fn string_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    match (name, desc) {
        // Constructors rewrite the freshly `new`ed instance in place.
        ("<init>", "()V") => {
            let Some(r) = args[0].as_ref() else {
                return npe("<init>");
            };
            *n.state.heap.get_mut(r) = HeapObj::JavaString(String::new().into());
            NativeOutcome::Return(None)
        }
        ("<init>", "([B)V") => {
            let Some(r) = args[0].as_ref() else {
                return npe("<init>");
            };
            let Some(b) = args[1].as_ref() else {
                return npe("byte[]");
            };
            let bytes: Vec<u8> = match n.state.heap.get(b) {
                HeapObj::ArrayByte(v) => v.iter().map(|&x| x as u8).collect(),
                _ => return throw("java/lang/InternalError", "expected byte[]"),
            };
            n.state.engine.charge_n(Cost::StringOp, bytes.len() as u64);
            let s = String::from_utf8_lossy(&bytes).into_owned();
            *n.state.heap.get_mut(r) = HeapObj::JavaString(s.into());
            NativeOutcome::Return(None)
        }
        ("<init>", "([C)V") => {
            let Some(r) = args[0].as_ref() else {
                return npe("<init>");
            };
            let Some(c) = args[1].as_ref() else {
                return npe("char[]");
            };
            let units: Vec<u16> = match n.state.heap.get(c) {
                HeapObj::ArrayChar(v) => v.clone(),
                _ => return throw("java/lang/InternalError", "expected char[]"),
            };
            n.state.engine.charge_n(Cost::StringOp, units.len() as u64);
            let s: String = char::decode_utf16(units)
                .map(|r| r.unwrap_or(char::REPLACEMENT_CHARACTER))
                .collect();
            *n.state.heap.get_mut(r) = HeapObj::JavaString(s.into());
            NativeOutcome::Return(None)
        }
        ("length", "()I") => {
            let s = or_throw!(this_str(n.state, &args));
            NativeOutcome::Return(Some(Value::Int(s.utf16_len() as i32)))
        }
        ("charAt", "(I)C") => {
            let s = or_throw!(this_str(n.state, &args));
            let i = args[1].as_int();
            n.state.engine.charge(Cost::StringOp);
            match s.utf16_at(i.max(0) as usize) {
                Some(u) if i >= 0 => NativeOutcome::Return(Some(Value::Int(i32::from(u)))),
                _ => throw("java/lang/StringIndexOutOfBoundsException", i.to_string()),
            }
        }
        ("equals", "(Ljava/lang/Object;)Z") => {
            let s = or_throw!(this_str(n.state, &args));
            let eq = match args[1] {
                Value::Ref(Some(r)) => {
                    matches!(n.state.heap.get(r), HeapObj::JavaString(t) if t == s)
                }
                _ => false,
            };
            n.state.engine.charge_n(Cost::StringOp, s.len() as u64);
            NativeOutcome::Return(Some(Value::Int(i32::from(eq))))
        }
        ("hashCode", "()I") => {
            let s = or_throw!(this_str(n.state, &args));
            n.state.engine.charge_n(Cost::StringOp, s.len() as u64);
            let mut h: i32 = 0;
            for u in s.encode_utf16() {
                h = h.wrapping_mul(31).wrapping_add(i32::from(u));
            }
            NativeOutcome::Return(Some(Value::Int(h)))
        }
        ("compareTo", "(Ljava/lang/String;)I") => {
            let s = or_throw!(this_str(n.state, &args));
            let t = or_throw!(n.string_arg(&args[1]));
            let a: Vec<u16> = s.encode_utf16().collect();
            let b: Vec<u16> = t.encode_utf16().collect();
            n.state
                .engine
                .charge_n(Cost::StringOp, a.len().min(b.len()) as u64);
            let r = match a.cmp(&b) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            };
            NativeOutcome::Return(Some(Value::Int(r)))
        }
        ("concat", "(Ljava/lang/String;)Ljava/lang/String;") => {
            let s = or_throw!(this_str(n.state, &args));
            let t = or_throw!(n.string_arg(&args[1]));
            n.ret_string(format!("{}{t}", &**s))
        }
        ("substring", "(II)Ljava/lang/String;") | ("substring", "(I)Ljava/lang/String;") => {
            let s = or_throw!(this_str(n.state, &args));
            let units: Vec<u16> = s.encode_utf16().collect();
            let begin = args[1].as_int();
            let end = if desc == "(II)Ljava/lang/String;" {
                args[2].as_int()
            } else {
                units.len() as i32
            };
            if begin < 0 || end > units.len() as i32 || begin > end {
                return throw(
                    "java/lang/StringIndexOutOfBoundsException",
                    format!("begin {begin}, end {end}, length {}", units.len()),
                );
            }
            let sub: String =
                char::decode_utf16(units[begin as usize..end as usize].iter().copied())
                    .map(|r| r.unwrap_or(char::REPLACEMENT_CHARACTER))
                    .collect();
            n.ret_string(sub)
        }
        ("indexOf", "(I)I") => {
            let s = or_throw!(this_str(n.state, &args));
            let c = args[1].as_int();
            let idx = s
                .encode_utf16()
                .position(|u| i32::from(u) == c)
                .map(|i| i as i32)
                .unwrap_or(-1);
            NativeOutcome::Return(Some(Value::Int(idx)))
        }
        ("indexOf", "(Ljava/lang/String;)I") => {
            let s = or_throw!(this_str(n.state, &args));
            let t = or_throw!(n.string_arg(&args[1]));
            n.state.engine.charge_n(Cost::StringOp, s.len() as u64);
            let idx = s
                .find(&t)
                .map(|b| s[..b].encode_utf16().count() as i32)
                .unwrap_or(-1);
            NativeOutcome::Return(Some(Value::Int(idx)))
        }
        ("startsWith", "(Ljava/lang/String;)Z") => {
            let s = or_throw!(this_str(n.state, &args));
            let t = or_throw!(n.string_arg(&args[1]));
            NativeOutcome::Return(Some(Value::Int(i32::from(s.starts_with(&t)))))
        }
        ("toCharArray", "()[C") => {
            let s = or_throw!(this_str(n.state, &args));
            n.state.engine.charge_n(Cost::StringOp, s.len() as u64);
            let units: Vec<u16> = s.encode_utf16().collect();
            let r = n.state.heap.alloc(HeapObj::ArrayChar(units));
            NativeOutcome::Return(Some(Value::Ref(Some(r))))
        }
        ("getBytes", "()[B") => {
            let s = or_throw!(this_str(n.state, &args));
            n.state.engine.charge_n(Cost::StringOp, s.len() as u64);
            let bytes: Vec<i8> = s.bytes().map(|b| b as i8).collect();
            let r = n.state.heap.alloc(HeapObj::ArrayByte(bytes));
            NativeOutcome::Return(Some(Value::Ref(Some(r))))
        }
        ("intern", "()Ljava/lang/String;") => {
            let s = or_throw!(this_str(n.state, &args)).to_string();
            let r = n.state.intern_string(&s);
            NativeOutcome::Return(Some(Value::Ref(Some(r))))
        }
        ("valueOf", "(I)Ljava/lang/String;") => {
            let v = args[0].as_int();
            n.ret_string(v.to_string())
        }
        ("valueOf", "(J)Ljava/lang/String;") => {
            let v = args[0].as_long();
            n.ret_string(v.to_string())
        }
        ("valueOf", "(D)Ljava/lang/String;") => {
            let v = args[0].as_double();
            n.ret_string(format_double(v))
        }
        ("valueOf", "(C)Ljava/lang/String;") => {
            let v = args[0].as_int();
            n.ret_string(char::from_u32(v as u32).unwrap_or('\u{FFFD}').to_string())
        }
        ("valueOf", "(Z)Ljava/lang/String;") => {
            let v = args[0].as_int();
            n.ret_string((v != 0).to_string())
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("String.{name}{desc}"),
        ),
    }
}

/// The `String` receiver of a `String` method, by reference.
fn this_str<'s>(state: &'s JvmState, args: &[Value]) -> Result<&'s JavaStr, NativeOutcome> {
    match args.first() {
        Some(Value::Ref(Some(r))) => match state.heap.get(*r) {
            HeapObj::JavaString(s) => Ok(s),
            _ => Err(throw("java/lang/InternalError", "not a String")),
        },
        _ => Err(npe("String method")),
    }
}

fn stringbuilder_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    let Some(recv) = args.first().and_then(Value::as_ref) else {
        return npe("StringBuilder");
    };
    if (name, desc) == ("<init>", "()V") {
        *n.state.heap.get_mut(recv) = HeapObj::StringBuilder(String::new());
        return NativeOutcome::Return(None);
    }
    match (name, desc) {
        ("append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;") => {
            let text = match args[1] {
                Value::Ref(Some(r)) => match n.state.heap.get(r) {
                    HeapObj::JavaString(s) => s.to_string(),
                    _ => "<object>".into(),
                },
                _ => "null".into(),
            };
            n.state.engine.charge_n(Cost::StringOp, text.len() as u64);
            if let HeapObj::StringBuilder(s) = n.state.heap.get_mut(recv) {
                s.push_str(&text);
            }
            NativeOutcome::Return(Some(Value::Ref(Some(recv))))
        }
        ("append", "(I)Ljava/lang/StringBuilder;") => {
            let text = args[1].as_int().to_string();
            sb_push(n, recv, &text)
        }
        ("append", "(J)Ljava/lang/StringBuilder;") => {
            let text = args[1].as_long().to_string();
            sb_push(n, recv, &text)
        }
        ("append", "(C)Ljava/lang/StringBuilder;") => {
            let c = char::from_u32(args[1].as_int() as u32).unwrap_or('\u{FFFD}');
            sb_push(n, recv, &c.to_string())
        }
        ("append", "(Z)Ljava/lang/StringBuilder;") => {
            let text = (args[1].as_int() != 0).to_string();
            sb_push(n, recv, &text)
        }
        ("append", "(D)Ljava/lang/StringBuilder;") => {
            let text = format_double(args[1].as_double());
            sb_push(n, recv, &text)
        }
        ("toString", "()Ljava/lang/String;") => {
            let s = match n.state.heap.get(recv) {
                HeapObj::StringBuilder(s) => s.clone(),
                _ => String::new(),
            };
            n.ret_string(s)
        }
        ("length", "()I") => {
            let len = match n.state.heap.get(recv) {
                HeapObj::StringBuilder(s) => s.encode_utf16().count(),
                _ => 0,
            };
            NativeOutcome::Return(Some(Value::Int(len as i32)))
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("StringBuilder.{name}{desc}"),
        ),
    }
}

fn sb_push(n: &mut NativeCtx<'_, '_, '_>, recv: ObjRef, text: &str) -> NativeOutcome {
    n.state.engine.charge_n(Cost::StringOp, text.len() as u64);
    if let HeapObj::StringBuilder(s) = n.state.heap.get_mut(recv) {
        s.push_str(text);
    }
    NativeOutcome::Return(Some(Value::Ref(Some(recv))))
}

// ----------------------------------------------------------------
// java/lang/Math, boxed-type helpers
// ----------------------------------------------------------------

fn math_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    n.state.engine.charge(Cost::FloatOp);
    let ret = |v: Value| NativeOutcome::Return(Some(v));
    match (name, desc) {
        ("sqrt", "(D)D") => ret(Value::Double(args[0].as_double().sqrt())),
        ("floor", "(D)D") => ret(Value::Double(args[0].as_double().floor())),
        ("ceil", "(D)D") => ret(Value::Double(args[0].as_double().ceil())),
        ("pow", "(DD)D") => ret(Value::Double(args[0].as_double().powf(args[1].as_double()))),
        ("log", "(D)D") => ret(Value::Double(args[0].as_double().ln())),
        ("sin", "(D)D") => ret(Value::Double(args[0].as_double().sin())),
        ("cos", "(D)D") => ret(Value::Double(args[0].as_double().cos())),
        ("abs", "(D)D") => ret(Value::Double(args[0].as_double().abs())),
        ("abs", "(I)I") => ret(Value::Int(args[0].as_int().wrapping_abs())),
        ("abs", "(J)J") => ret(Value::Long(args[0].as_long().wrapping_abs())),
        ("max", "(II)I") => ret(Value::Int(args[0].as_int().max(args[1].as_int()))),
        ("min", "(II)I") => ret(Value::Int(args[0].as_int().min(args[1].as_int()))),
        ("max", "(JJ)J") => ret(Value::Long(args[0].as_long().max(args[1].as_long()))),
        ("min", "(JJ)J") => ret(Value::Long(args[0].as_long().min(args[1].as_long()))),
        ("max", "(DD)D") => ret(Value::Double(args[0].as_double().max(args[1].as_double()))),
        ("min", "(DD)D") => ret(Value::Double(args[0].as_double().min(args[1].as_double()))),
        ("random", "()D") => {
            // Deterministic xorshift so runs are reproducible.
            let s = &mut n.state.rng_state;
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            ret(Value::Double((*s >> 11) as f64 / (1u64 << 53) as f64))
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("Math.{name}{desc}"),
        ),
    }
}

fn integer_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    match (name, desc) {
        ("parseInt", "(Ljava/lang/String;)I") => {
            let s = or_throw!(n.string_arg(&args[0]));
            match s.trim().parse::<i32>() {
                Ok(v) => NativeOutcome::Return(Some(Value::Int(v))),
                Err(_) => throw("java/lang/NumberFormatException", s),
            }
        }
        ("toString", "(I)Ljava/lang/String;") => {
            let v = args[0].as_int();
            n.ret_string(v.to_string())
        }
        ("toHexString", "(I)Ljava/lang/String;") => {
            let v = args[0].as_int();
            n.ret_string(format!("{:x}", v as u32))
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("Integer.{name}{desc}"),
        ),
    }
}

fn long_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    n.state.engine.charge(Cost::LongOp);
    match (name, desc) {
        ("parseLong", "(Ljava/lang/String;)J") => {
            let s = or_throw!(n.string_arg(&args[0]));
            match s.trim().parse::<i64>() {
                Ok(v) => NativeOutcome::Return(Some(Value::Long(v))),
                Err(_) => throw("java/lang/NumberFormatException", s),
            }
        }
        ("toString", "(J)Ljava/lang/String;") => {
            let v = args[0].as_long();
            n.ret_string(v.to_string())
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("Long.{name}{desc}"),
        ),
    }
}

fn double_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    match (name, desc) {
        ("parseDouble", "(Ljava/lang/String;)D") => {
            let s = or_throw!(n.string_arg(&args[0]));
            match s.trim().parse::<f64>() {
                Ok(v) => NativeOutcome::Return(Some(Value::Double(v))),
                Err(_) => throw("java/lang/NumberFormatException", s),
            }
        }
        ("toString", "(D)Ljava/lang/String;") => {
            let v = args[0].as_double();
            n.ret_string(format_double(v))
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("Double.{name}{desc}"),
        ),
    }
}

// ----------------------------------------------------------------
// Threads (§4.3, §6.2)
// ----------------------------------------------------------------

fn thread_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    match (name, desc) {
        ("start", "()V") => {
            let Some(recv) = args[0].as_ref() else {
                return npe("Thread.start");
            };
            crate::thread::spawn_java_thread(n, recv)
        }
        ("yield", "()V") => NativeOutcome::Yield,
        ("sleep", "(J)V") => {
            let ms = args[0].as_long().max(0) as f64;
            let cell = n.ctx.block_on(move |engine, resolver| {
                engine.set_timeout(ms, move |_| resolver.resolve(()));
            });
            block_labeled(
                n,
                format!("thread.sleep({}ms)", ms as u64),
                Box::new(move |_| cell.take().map(|_| NativeOutcome::Return(None))),
            )
        }
        ("currentThread", "()Ljava/lang/Thread;") => {
            let r = crate::thread::current_thread_object(n);
            NativeOutcome::Return(Some(Value::Ref(Some(r))))
        }
        ("join", "()V") => {
            let Some(recv) = args[0].as_ref() else {
                return npe("Thread.join");
            };
            crate::thread::join_thread(n, recv)
        }
        ("isAlive", "()Z") => {
            let Some(recv) = args[0].as_ref() else {
                return npe("Thread.isAlive");
            };
            let alive = crate::thread::is_alive(n.state, recv);
            NativeOutcome::Return(Some(Value::Int(i32::from(alive))))
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("Thread.{name}{desc}"),
        ),
    }
}

fn throwable_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    match (name, desc) {
        // §6.1: the explicit call stack makes introspection trivial.
        ("fillInStackTrace", "()Ljava/lang/Throwable;") => {
            let trace: Vec<String> = n
                .frames
                .iter()
                .rev()
                .map(|f| {
                    let cls = &n.state.registry.get(f.code.class).name;
                    let line = f
                        .code
                        .line_numbers
                        .iter()
                        .rev()
                        .find(|&&(pc, _)| (pc as usize) <= f.pc)
                        .map(|&(_, l)| l);
                    match line {
                        Some(l) => format!("{cls}.{}({}:{l})", f.code.name, cls),
                        None => format!("{cls}.{}", f.code.name),
                    }
                })
                .collect();
            let text = trace.join("\n\tat ");
            let trace_ref = n.state.heap.alloc_string(text);
            if let Some(r) = args[0].as_ref() {
                n.state.set_field(
                    r,
                    "java/lang/Throwable.stackTrace",
                    Value::Ref(Some(trace_ref)),
                );
            }
            NativeOutcome::Return(Some(args[0]))
        }
        ("printStackTrace", "()V") => {
            let Some(r) = args[0].as_ref() else {
                return npe("printStackTrace");
            };
            let (cls, msg, trace) = describe_throwable(n.state, r);
            let mut text = cls;
            if !msg.is_empty() {
                text = format!("{text}: {msg}");
            }
            if !trace.is_empty() {
                text = format!("{text}\n\tat {trace}");
            }
            text.push('\n');
            n.state.stderr.extend_from_slice(text.as_bytes());
            NativeOutcome::Return(None)
        }
        ("getMessage", "()Ljava/lang/String;") => {
            let Some(r) = args[0].as_ref() else {
                return npe("getMessage");
            };
            let msg = n
                .state
                .field(r, "java/lang/Throwable.message")
                .unwrap_or(Value::null());
            NativeOutcome::Return(Some(msg))
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("Throwable.{name}{desc}"),
        ),
    }
}

/// `(class name, message, stack trace)` of a throwable object.
pub fn describe_throwable(state: &JvmState, r: ObjRef) -> (String, String, String) {
    match state.heap.get(r) {
        HeapObj::Instance { class, .. } => {
            let cls = state.registry.get(*class).name.replace('/', ".");
            let text = |key| match state.field(r, key) {
                Some(Value::Ref(Some(s))) => state.heap.java_string(s).unwrap_or("").to_string(),
                _ => String::new(),
            };
            let msg = text("java/lang/Throwable.message");
            let trace = text("java/lang/Throwable.stackTrace");
            (cls, msg, trace)
        }
        HeapObj::JavaString(s) => ("java.lang.Throwable".into(), s.to_string(), String::new()),
        _ => ("java.lang.Throwable".into(), String::new(), String::new()),
    }
}

fn class_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    match (name, desc) {
        ("getName", "()Ljava/lang/String;") => {
            let Some(r) = args[0].as_ref() else {
                return npe("getName");
            };
            let n2 = match n.state.field(r, "java/lang/Class.name") {
                Some(Value::Ref(Some(s))) => {
                    n.state.heap.java_string(s).unwrap_or("?").replace('/', ".")
                }
                _ => "?".to_string(),
            };
            n.ret_string(n2)
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("Class.{name}{desc}"),
        ),
    }
}

// ----------------------------------------------------------------
// sun/misc/Unsafe (§6.5)
// ----------------------------------------------------------------

fn unsafe_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    // Instance methods: args[0] is the Unsafe singleton; statics skip it.
    let a = |i: usize| -> Value { args[i] };
    let heap_err = |e: doppio_heap::HeapError| -> NativeOutcome {
        throw("java/lang/InternalError", e.to_string())
    };
    match (name, desc) {
        ("getUnsafe", "()Lsun/misc/Unsafe;") => {
            let cid = match n.state.registry.lookup("sun/misc/Unsafe") {
                Some(c) => c,
                None => return throw("java/lang/NoClassDefFoundError", "sun/misc/Unsafe"),
            };
            let r = interp::alloc_instance(n.state, cid);
            NativeOutcome::Return(Some(Value::Ref(Some(r))))
        }
        ("allocateMemory", "(J)J") => {
            let size = a(1).as_long();
            match n.state.unmanaged.malloc(size.max(0) as usize) {
                Ok(addr) => NativeOutcome::Return(Some(Value::Long(addr as i64))),
                Err(e) => throw("java/lang/OutOfMemoryError", e.to_string()),
            }
        }
        ("freeMemory", "(J)V") => match n.state.unmanaged.free(a(1).as_long() as usize) {
            Ok(()) => NativeOutcome::Return(None),
            Err(e) => heap_err(e),
        },
        ("reallocateMemory", "(JJ)J") => {
            let addr = a(1).as_long() as usize;
            let size = a(2).as_long().max(0) as usize;
            match n.state.unmanaged.realloc(addr, size) {
                Ok(p) => NativeOutcome::Return(Some(Value::Long(p as i64))),
                Err(e) => heap_err(e),
            }
        }
        ("putInt", "(JI)V") => match n
            .state
            .unmanaged
            .write_i32(a(1).as_long() as usize, a(2).as_int())
        {
            Ok(()) => NativeOutcome::Return(None),
            Err(e) => heap_err(e),
        },
        ("getInt", "(J)I") => match n.state.unmanaged.read_i32(a(1).as_long() as usize) {
            Ok(v) => NativeOutcome::Return(Some(Value::Int(v))),
            Err(e) => heap_err(e),
        },
        ("putLong", "(JJ)V") => {
            match n
                .state
                .unmanaged
                .write_i64(a(1).as_long() as usize, a(2).as_long())
            {
                Ok(()) => NativeOutcome::Return(None),
                Err(e) => heap_err(e),
            }
        }
        ("getLong", "(J)J") => match n.state.unmanaged.read_i64(a(1).as_long() as usize) {
            Ok(v) => NativeOutcome::Return(Some(Value::Long(v))),
            Err(e) => heap_err(e),
        },
        ("putByte", "(JB)V") => {
            match n
                .state
                .unmanaged
                .write_i8(a(1).as_long() as usize, a(2).as_int() as i8)
            {
                Ok(()) => NativeOutcome::Return(None),
                Err(e) => heap_err(e),
            }
        }
        ("getByte", "(J)B") => match n.state.unmanaged.read_i8(a(1).as_long() as usize) {
            Ok(v) => NativeOutcome::Return(Some(Value::Int(i32::from(v)))),
            Err(e) => heap_err(e),
        },
        ("putDouble", "(JD)V") => {
            match n
                .state
                .unmanaged
                .write_f64(a(1).as_long() as usize, a(2).as_double())
            {
                Ok(()) => NativeOutcome::Return(None),
                Err(e) => heap_err(e),
            }
        }
        ("getDouble", "(J)D") => match n.state.unmanaged.read_f64(a(1).as_long() as usize) {
            Ok(v) => NativeOutcome::Return(Some(Value::Double(v))),
            Err(e) => heap_err(e),
        },
        ("addressSize", "()I") => NativeOutcome::Return(Some(Value::Int(4))),
        ("pageSize", "()I") => NativeOutcome::Return(Some(Value::Int(4096))),
        // The JCL uses Unsafe at startup to probe endianness (§6.5);
        // Doppio's heap is little endian like typed arrays.
        ("isLittleEndian", "()Z") => NativeOutcome::Return(Some(Value::Int(1))),
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("Unsafe.{name}{desc}"),
        ),
    }
}

// ----------------------------------------------------------------
// Doppio runtime services: file system, console, JS interop, sockets
// ----------------------------------------------------------------

fn fs_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    let fs = n.state.fs.clone();
    match (name, desc) {
        ("readFileBytes", "(Ljava/lang/String;)[B") => {
            let path = or_throw!(n.string_arg(&args[0]));
            let label = doppio_fs::wait_label("read", &path);
            let cell = n.ctx.block_on(move |_, resolver| {
                fs.read_file(&path, move |_, r| resolver.resolve(r));
            });
            block_labeled(
                n,
                label,
                Box::new(move |n2| {
                    cell.take().map(|r| match r {
                        Ok(bytes) => {
                            // The JVM-side byte[] is a typed array in the
                            // browser — visible to the Safari leak model.
                            if n2.state.engine.profile().has_typed_arrays {
                                n2.state.engine.typed_array_alloc(bytes.len());
                                n2.state.engine.typed_array_free(bytes.len());
                            }
                            let data: Vec<i8> = bytes.into_iter().map(|b| b as i8).collect();
                            let arr = n2.state.heap.alloc(HeapObj::ArrayByte(data));
                            NativeOutcome::Return(Some(Value::Ref(Some(arr))))
                        }
                        Err(e) => throw("java/io/IOException", e.to_string()),
                    })
                }),
            )
        }
        ("writeFileBytes", "(Ljava/lang/String;[B)V") => {
            let path = or_throw!(n.string_arg(&args[0]));
            let Some(arr) = args[1].as_ref() else {
                return npe("byte[]");
            };
            let bytes: Vec<u8> = match n.state.heap.get(arr) {
                HeapObj::ArrayByte(v) => v.iter().map(|&b| b as u8).collect(),
                _ => return throw("java/lang/InternalError", "expected byte[]"),
            };
            let label = doppio_fs::wait_label("write", &path);
            let cell = n.ctx.block_on(move |_, resolver| {
                fs.write_file(&path, bytes, move |_, r| resolver.resolve(r));
            });
            block_labeled(
                n,
                label,
                Box::new(move |_| {
                    cell.take().map(|r| match r {
                        Ok(()) => NativeOutcome::Return(None),
                        Err(e) => throw("java/io/IOException", e.to_string()),
                    })
                }),
            )
        }
        ("listDir", "(Ljava/lang/String;)[Ljava/lang/String;") => {
            let path = or_throw!(n.string_arg(&args[0]));
            let label = doppio_fs::wait_label("readdir", &path);
            let cell = n.ctx.block_on(move |_, resolver| {
                fs.readdir(&path, move |_, r| resolver.resolve(r));
            });
            block_labeled(
                n,
                label,
                Box::new(move |n2| {
                    cell.take().map(|r| match r {
                        Ok(names) => {
                            let refs: Vec<Option<ObjRef>> = names
                                .into_iter()
                                .map(|s| Some(n2.state.heap.alloc_string(s)))
                                .collect();
                            let arr = n2.state.heap.alloc(HeapObj::ArrayRef {
                                component: "java/lang/String".to_string(),
                                data: refs,
                            });
                            NativeOutcome::Return(Some(Value::Ref(Some(arr))))
                        }
                        Err(e) => throw("java/io/IOException", e.to_string()),
                    })
                }),
            )
        }
        ("exists", "(Ljava/lang/String;)Z") => {
            let path = or_throw!(n.string_arg(&args[0]));
            let label = doppio_fs::wait_label("exists", &path);
            let cell = n.ctx.block_on(move |_, resolver| {
                fs.exists(&path, move |_, ok| resolver.resolve(ok));
            });
            block_labeled(
                n,
                label,
                Box::new(move |_| {
                    cell.take()
                        .map(|ok| NativeOutcome::Return(Some(Value::Int(i32::from(ok)))))
                }),
            )
        }
        ("fileSize", "(Ljava/lang/String;)I") => {
            let path = or_throw!(n.string_arg(&args[0]));
            let label = doppio_fs::wait_label("stat", &path);
            let cell = n.ctx.block_on(move |_, resolver| {
                fs.stat(&path, move |_, r| resolver.resolve(r));
            });
            block_labeled(
                n,
                label,
                Box::new(move |_| {
                    cell.take().map(|r| match r {
                        Ok(st) => NativeOutcome::Return(Some(Value::Int(st.size as i32))),
                        Err(e) => throw("java/io/IOException", e.to_string()),
                    })
                }),
            )
        }
        ("mkdir", "(Ljava/lang/String;)V") => {
            let path = or_throw!(n.string_arg(&args[0]));
            let label = doppio_fs::wait_label("mkdir", &path);
            let cell = n.ctx.block_on(move |_, resolver| {
                fs.mkdir(&path, move |_, r| resolver.resolve(r));
            });
            block_labeled(
                n,
                label,
                Box::new(move |_| {
                    cell.take().map(|r| match r {
                        Ok(()) => NativeOutcome::Return(None),
                        Err(e) => throw("java/io/IOException", e.to_string()),
                    })
                }),
            )
        }
        ("unlink", "(Ljava/lang/String;)V") => {
            let path = or_throw!(n.string_arg(&args[0]));
            let label = doppio_fs::wait_label("unlink", &path);
            let cell = n.ctx.block_on(move |_, resolver| {
                fs.unlink(&path, move |_, r| resolver.resolve(r));
            });
            block_labeled(
                n,
                label,
                Box::new(move |_| {
                    cell.take().map(|r| match r {
                        Ok(()) => NativeOutcome::Return(None),
                        Err(e) => throw("java/io/IOException", e.to_string()),
                    })
                }),
            )
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("FileSystem.{name}{desc}"),
        ),
    }
}

fn console_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    _args: Vec<Value>,
) -> NativeOutcome {
    match (name, desc) {
        // Blocking line read over asynchronous keyboard input — the
        // exact scenario of §3.2's C++ example.
        ("readLine", "()Ljava/lang/String;") => {
            if let Some(line) = take_stdin_line(n.state) {
                return n.ret_string(line);
            }
            if n.state.stdin_closed {
                return NativeOutcome::Return(Some(Value::null()));
            }
            enlist_stdin_waiter(n);
            block_labeled(
                n,
                "stdin.readLine".to_string(),
                Box::new(move |n2| {
                    if let Some(line) = take_stdin_line(n2.state) {
                        Some(n2.ret_string(line))
                    } else if n2.state.stdin_closed {
                        Some(NativeOutcome::Return(Some(Value::null())))
                    } else {
                        enlist_stdin_waiter(n2);
                        None
                    }
                }),
            )
        }
        ("readByte", "()I") => {
            if let Some(b) = n.state.stdin.pop_front() {
                return NativeOutcome::Return(Some(Value::Int(i32::from(b))));
            }
            if n.state.stdin_closed {
                return NativeOutcome::Return(Some(Value::Int(-1)));
            }
            enlist_stdin_waiter(n);
            block_labeled(
                n,
                "stdin.readByte".to_string(),
                Box::new(move |n2| {
                    if let Some(b) = n2.state.stdin.pop_front() {
                        Some(NativeOutcome::Return(Some(Value::Int(i32::from(b)))))
                    } else if n2.state.stdin_closed {
                        Some(NativeOutcome::Return(Some(Value::Int(-1))))
                    } else {
                        enlist_stdin_waiter(n2);
                        None
                    }
                }),
            )
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("Console.{name}{desc}"),
        ),
    }
}

/// Register the calling thread as a stdin waiter, without duplicating
/// the entry — `push_stdin` wakes every listed waiter, and a duplicate
/// would wake the thread twice, leaving a stale `wake_pending`.
fn enlist_stdin_waiter(n: &mut NativeCtx<'_, '_, '_>) {
    if !n.state.stdin_waiters.contains(&n.tid) {
        n.state.stdin_waiters.push(n.tid);
    }
}

fn take_stdin_line(state: &mut JvmState) -> Option<String> {
    let pos = state.stdin.iter().position(|&b| b == b'\n')?;
    let line: Vec<u8> = state.stdin.drain(..=pos).collect();
    let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
    Some(text)
}

fn js_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    match (name, desc) {
        // §6.8: "DoppioJVM exposes an eval method that lets JVM
        // programs execute snippets of JavaScript. This method returns
        // a JVM String."
        ("eval", "(Ljava/lang/String;)Ljava/lang/String;") => {
            let src = or_throw!(n.string_arg(&args[0]));
            let engine = n.state.engine.clone();
            let result = match n.state.js_eval.as_mut() {
                Some(f) => f(&engine, &src),
                None => "undefined".to_string(),
            };
            n.ret_string(result)
        }
        _ => throw("java/lang/UnsatisfiedLinkError", format!("JS.{name}{desc}")),
    }
}

fn socket_native(
    n: &mut NativeCtx<'_, '_, '_>,
    name: &str,
    desc: &str,
    args: Vec<Value>,
) -> NativeOutcome {
    use doppio_sockets::{DoppioSocket, SocketState};
    match (name, desc) {
        ("connect", "(Ljava/lang/String;I)I") => {
            let _host = or_throw!(n.string_arg(&args[0]));
            let port = args[1].as_int() as u16;
            let Some(net) = n.state.network.clone() else {
                return throw("java/io/IOException", "no network configured");
            };
            let engine = n.state.engine.clone();
            let sock = match DoppioSocket::connect(&engine, &net, port) {
                Ok(s) => s,
                Err(e) => return throw("java/io/IOException", e.to_string()),
            };
            // Wake the thread whenever the socket changes state.
            let cell = n.ctx.block_on(|_, resolver| {
                // resolved immediately; the waker below does the real
                // signalling — block_on just parks the thread.
                resolver.resolve(());
            });
            let _ = cell.take();
            let fd = n.state.sockets.len() as i32;
            let tid = n.tid;
            let runtime = n.ctx.runtime().clone();
            sock.set_data_waker(Box::new(move |_| runtime.wake(tid)));
            n.state.sockets.push(Some(sock));
            block_labeled(
                n,
                doppio_sockets::wait_label("connect", fd as usize),
                Box::new(move |n2| {
                    let st = n2.state.sockets[fd as usize]
                        .as_ref()
                        .map(DoppioSocket::state);
                    match st {
                        Some(SocketState::Open) => {
                            Some(NativeOutcome::Return(Some(Value::Int(fd))))
                        }
                        Some(SocketState::Closed) | None => {
                            Some(throw("java/io/IOException", "connection failed"))
                        }
                        Some(SocketState::Connecting) => None,
                    }
                }),
            )
        }
        ("write", "(I[B)V") => {
            let fd = args[0].as_int() as usize;
            let Some(arr) = args[1].as_ref() else {
                return npe("byte[]");
            };
            let bytes: Vec<u8> = match n.state.heap.get(arr) {
                HeapObj::ArrayByte(v) => v.iter().map(|&b| b as u8).collect(),
                _ => return throw("java/lang/InternalError", "expected byte[]"),
            };
            match n.state.sockets.get(fd).and_then(Option::as_ref) {
                Some(s) => match s.send(&bytes) {
                    Ok(()) => NativeOutcome::Return(None),
                    Err(e) => throw("java/io/IOException", e.to_string()),
                },
                None => throw("java/io/IOException", "bad socket"),
            }
        }
        ("available", "(I)I") => {
            let fd = args[0].as_int() as usize;
            let avail = n
                .state
                .sockets
                .get(fd)
                .and_then(Option::as_ref)
                .map(DoppioSocket::available)
                .unwrap_or(0);
            NativeOutcome::Return(Some(Value::Int(avail as i32)))
        }
        // Blocking read of up to `len` bytes; -1 at end of stream.
        ("read", "(II)[B") => {
            let fd = args[0].as_int() as usize;
            let len = args[1].as_int().max(0) as usize;
            let read_now = move |n2: &mut NativeCtx<'_, '_, '_>| -> Option<NativeOutcome> {
                let sock = n2.state.sockets.get(fd).and_then(Option::as_ref)?;
                if sock.available() > 0 {
                    let data: Vec<i8> = sock.recv(len).into_iter().map(|b| b as i8).collect();
                    let arr = n2.state.heap.alloc(HeapObj::ArrayByte(data));
                    Some(NativeOutcome::Return(Some(Value::Ref(Some(arr)))))
                } else if sock.state() == SocketState::Closed {
                    Some(NativeOutcome::Return(Some(Value::null())))
                } else {
                    None
                }
            };
            if let Some(out) = read_now(n) {
                return out;
            }
            block_labeled(
                n,
                doppio_sockets::wait_label("read", fd),
                Box::new(move |n2| read_now(n2)),
            )
        }
        ("close", "(I)V") => {
            let fd = args[0].as_int() as usize;
            if let Some(slot) = n.state.sockets.get_mut(fd) {
                if let Some(s) = slot.take() {
                    s.close();
                }
            }
            NativeOutcome::Return(None)
        }
        _ => throw(
            "java/lang/UnsatisfiedLinkError",
            format!("Socket.{name}{desc}"),
        ),
    }
}
