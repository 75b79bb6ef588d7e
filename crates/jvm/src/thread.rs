//! JVM threads as Doppio guest threads (§4.3, §6.2).
//!
//! Each JVM thread owns its explicit frame stack and plugs into the
//! Doppio runtime's thread pool. "DoppioJVM checks for waiting threads
//! at fixed context switch points" — monitor operations and the §6.1
//! suspend checks at method call boundaries — so multithreading is
//! cooperative in JavaScript but preemptive in JVM semantics.

use std::cell::RefCell;
use std::rc::Rc;

use doppio_core::{AsyncCell, GuestThread, Resource, ThreadContext, ThreadStep};
use doppio_trace::{cat, ArgValue};

use crate::frame::Frame;
use crate::interp::{self, StepResult};
use crate::loader::{self, AfterFetch};
use crate::natives::{self, NativeCtx, NativeOutcome, PendingNative};
use crate::object::HeapObj;
use crate::state::JvmState;
use crate::value::{ObjRef, Value};

enum Pending {
    Native(PendingNative),
    ClassLoad {
        want: String,
        fetching: String,
        cell: AsyncCell<Result<Vec<u8>, String>>,
    },
}

/// One JVM thread hosted on the Doppio runtime.
pub struct JvmThread {
    state: Rc<RefCell<JvmState>>,
    frames: Vec<Frame>,
    pending: Option<Pending>,
    name: String,
    /// Uncaught exception, readable after the thread finishes.
    pub uncaught: Rc<RefCell<Option<ObjRef>>>,
}

impl JvmThread {
    /// A thread that will execute the given initial frame.
    pub fn new(state: Rc<RefCell<JvmState>>, name: impl Into<String>, frame: Frame) -> JvmThread {
        JvmThread {
            state,
            frames: vec![frame],
            pending: None,
            name: name.into(),
            uncaught: Rc::new(RefCell::new(None)),
        }
    }

    fn finish(&self, state: &mut JvmState, ctx: &mut ThreadContext<'_>) {
        let id = ctx.thread_id().0;
        state.finished_threads.insert(id);
        state.live_threads = state.live_threads.saturating_sub(1);
        if let Some(waiters) = state.join_waiters.remove(&id) {
            for w in waiters {
                ctx.wake(w);
            }
        }
    }
}

impl GuestThread for JvmThread {
    fn run(&mut self, ctx: &mut ThreadContext<'_>) -> ThreadStep {
        let tid = ctx.thread_id();
        let state_rc = self.state.clone();
        let mut state = state_rc.borrow_mut();
        let hosted = state.engine.profile().watchdog_limit_ns.is_some();

        // Resume whatever we were blocked on.
        if let Some(pending) = self.pending.take() {
            match pending {
                Pending::Native(mut poll) => {
                    let outcome = poll(&mut NativeCtx {
                        state: &mut state,
                        frames: &mut self.frames,
                        ctx,
                        tid,
                    });
                    match outcome {
                        None => {
                            self.pending = Some(Pending::Native(poll));
                            return ThreadStep::Blocked;
                        }
                        Some(o) => {
                            let sr =
                                natives::apply_outcome(&mut state, &mut self.frames, ctx, tid, o);
                            match self.after_step(sr, &mut state, ctx) {
                                ControlFlow::Go => {}
                                ControlFlow::Out(step) => return step,
                            }
                        }
                    }
                }
                Pending::ClassLoad {
                    want,
                    fetching,
                    cell,
                } => match cell.take() {
                    None => {
                        ctx.note_block(
                            Resource::Async(format!("classload({fetching})")),
                            interp::current_site(&state, &self.frames),
                        );
                        self.pending = Some(Pending::ClassLoad {
                            want,
                            fetching,
                            cell,
                        });
                        return ThreadStep::Blocked;
                    }
                    Some(result) => match loader::after_fetch(&mut state, &fetching, result) {
                        AfterFetch::Fail(e) => {
                            let sr = interp::throw_vm(
                                &mut state,
                                &mut self.frames,
                                ctx,
                                tid,
                                "java/lang/NoClassDefFoundError",
                                &e,
                            );
                            match self.after_step(sr, &mut state, ctx) {
                                ControlFlow::Go => {}
                                ControlFlow::Out(step) => return step,
                            }
                        }
                        AfterFetch::Fetch(dep) => {
                            let cell = loader::start_fetch(&mut state, ctx, &dep);
                            self.pending = Some(Pending::ClassLoad {
                                want,
                                fetching: dep,
                                cell,
                            });
                            return ThreadStep::Blocked;
                        }
                        AfterFetch::Ready => {
                            if state.registry.lookup(&want).is_none() {
                                let cell = loader::start_fetch(&mut state, ctx, &want);
                                self.pending = Some(Pending::ClassLoad {
                                    fetching: want.clone(),
                                    want,
                                    cell,
                                });
                                return ThreadStep::Blocked;
                            }
                            // Defined: the instruction retries below.
                        }
                    },
                },
            }
        }

        // The interpreter loop: run until something yields control.
        // `interp::run` only surfaces non-Continue results.
        loop {
            let sr = interp::run(&mut state, &mut self.frames, ctx, tid);
            match sr {
                StepResult::Continue => {}
                StepResult::CallBoundary => {
                    // §6.1: suspend checks at method call boundaries.
                    if hosted && ctx.should_suspend() {
                        profiler_sample(&state, &self.frames, &self.name);
                        trace_method_sample(&state, &self.frames, ctx);
                        return ThreadStep::Yielded;
                    }
                }
                other => match self.after_step(other, &mut state, ctx) {
                    ControlFlow::Go => {}
                    ControlFlow::Out(step) => return step,
                },
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Virtual-clock sampling profiler hook: when a suspend check fires at
/// a call boundary and the profiler's deadline has passed, fold the
/// whole explicit frame stack — rooted at the engine event that hosts
/// the slice and this thread's name — into the profile. Suspend checks
/// fire roughly once per time slice, so sampling here costs nothing on
/// the interpreter fast path.
fn profiler_sample(state: &JvmState, frames: &[Frame], thread_name: &str) {
    let Some(profiler) = state.engine.profiler() else {
        return;
    };
    let now = state.engine.now_ns();
    if !profiler.due(now) {
        return;
    }
    let mut stack = Vec::with_capacity(frames.len() + 2);
    stack.push(
        state
            .engine
            .current_event()
            .map(|k| k.name())
            .unwrap_or("run")
            .to_string(),
    );
    stack.push(thread_name.to_string());
    stack.extend(interp::stack_trace(state, frames));
    profiler.sample(now, stack);
}

/// Sampled method profiling: when a suspend check fires at a call
/// boundary, record the method the thread is executing. The adaptive
/// suspend timer fires roughly once per time slice, so this yields a
/// time-based sample with no extra fast-path bookkeeping (§6.1).
fn trace_method_sample(state: &JvmState, frames: &[Frame], ctx: &ThreadContext<'_>) {
    let tracer = state.engine.tracer();
    if !tracer.enabled() {
        return;
    }
    if let Some(frame) = frames.last() {
        // Tag the sample with the ambient causal context so a trace
        // viewer (or `CausalGraph`) can tie hot JVM methods back to
        // the request whose critical path they sit on.
        let mut args = vec![(
            "descriptor",
            ArgValue::Str(frame.code.descriptor.clone().into()),
        )];
        if let Some(c) = state.engine.causal().current() {
            args.push(("trace", ArgValue::U64(c.trace_id)));
            args.push(("span", ArgValue::U64(c.span_id)));
        }
        tracer.instant(
            cat::JVM,
            frame.code.name.clone(),
            state.engine.now_ns(),
            ctx.trace_lane(),
            args,
        );
    }
}

enum ControlFlow {
    /// Keep interpreting.
    Go,
    /// Leave the slice with this step.
    Out(ThreadStep),
}

impl JvmThread {
    fn after_step(
        &mut self,
        sr: StepResult,
        state: &mut JvmState,
        ctx: &mut ThreadContext<'_>,
    ) -> ControlFlow {
        let tid = ctx.thread_id();
        match sr {
            StepResult::Continue => ControlFlow::Go,
            StepResult::CallBoundary => {
                let hosted = state.engine.profile().watchdog_limit_ns.is_some();
                if hosted && ctx.should_suspend() {
                    profiler_sample(state, &self.frames, &self.name);
                    trace_method_sample(state, &self.frames, ctx);
                    ControlFlow::Out(ThreadStep::Yielded)
                } else {
                    ControlFlow::Go
                }
            }
            StepResult::NeedClass(name) => {
                if let Some(reason) = state.loader.failed.get(&name).cloned() {
                    let sr2 = interp::throw_vm(
                        state,
                        &mut self.frames,
                        ctx,
                        tid,
                        "java/lang/NoClassDefFoundError",
                        &reason,
                    );
                    return self.after_step(sr2, state, ctx);
                }
                let cell = loader::start_fetch(state, ctx, &name);
                ctx.note_block(
                    Resource::Async(format!("classload({name})")),
                    interp::current_site(state, &self.frames),
                );
                self.pending = Some(Pending::ClassLoad {
                    want: name.clone(),
                    fetching: name,
                    cell,
                });
                ControlFlow::Out(ThreadStep::Blocked)
            }
            StepResult::NativeBlocked(p) => {
                self.pending = Some(Pending::Native(p));
                ControlFlow::Out(ThreadStep::Blocked)
            }
            StepResult::MonitorBlocked(obj) => {
                ctx.note_block(
                    Resource::Monitor(obj as u64),
                    interp::current_site(state, &self.frames),
                );
                ControlFlow::Out(ThreadStep::Blocked)
            }
            StepResult::VoluntaryYield => ControlFlow::Out(ThreadStep::Yielded),
            StepResult::Finished => {
                self.finish(state, ctx);
                ControlFlow::Out(ThreadStep::Finished)
            }
            StepResult::Uncaught(ex) => {
                *self.uncaught.borrow_mut() = Some(ex);
                let (cls, msg, trace) = natives::describe_throwable(state, ex);
                let mut text = format!("Exception in thread \"{}\" {cls}", self.name);
                if !msg.is_empty() {
                    text.push_str(&format!(": {msg}"));
                }
                if !trace.is_empty() {
                    text.push_str(&format!("\n\tat {trace}"));
                }
                text.push('\n');
                state.stderr.extend_from_slice(text.as_bytes());
                self.finish(state, ctx);
                ControlFlow::Out(ThreadStep::Finished)
            }
            StepResult::Exit(code) => {
                state.exit_code = Some(code);
                self.finish(state, ctx);
                ControlFlow::Out(ThreadStep::Finished)
            }
        }
    }
}

// ----------------------------------------------------------------
// Native helpers (Thread.start / currentThread / join)
// ----------------------------------------------------------------

/// `Thread.start()`: spawn a new JVM thread running the receiver's
/// `run()` method.
pub fn spawn_java_thread(n: &mut NativeCtx<'_, '_, '_>, thread_obj: ObjRef) -> NativeOutcome {
    let Some(weak) = n.state.self_rc.clone() else {
        return NativeOutcome::Throw {
            class: "java/lang/InternalError".into(),
            message: "no state handle for Thread.start".into(),
        };
    };
    let Some(state_rc) = weak.upgrade() else {
        return NativeOutcome::Throw {
            class: "java/lang/InternalError".into(),
            message: "state dropped".into(),
        };
    };
    let cid = match interp::runtime_class_of(n.state, thread_obj) {
        Ok(c) => c,
        Err(_) => {
            return NativeOutcome::Throw {
                class: "java/lang/InternalError".into(),
                message: "bad thread object".into(),
            }
        }
    };
    let Some(target) = n.state.registry.select_virtual(cid, "run", "()V") else {
        return NativeOutcome::Throw {
            class: "java/lang/NoSuchMethodError".into(),
            message: "run()V".into(),
        };
    };
    let Some(blob) = n.state.code_blob(target.class, target.index) else {
        return NativeOutcome::Throw {
            class: "java/lang/AbstractMethodError".into(),
            message: "run()V".into(),
        };
    };
    if blob.max_locals == 0 {
        return NativeOutcome::Throw {
            class: "java/lang/InternalError".into(),
            message: "run()V: 1 argument slot exceeds max_locals 0".into(),
        };
    }
    let mut frame = n.state.new_frame(blob);
    frame.locals[0] = Value::Ref(Some(thread_obj));
    let name = format!("Thread-{}", n.state.thread_objs.len());
    let thread = JvmThread::new(state_rc, name.clone(), frame);
    let tid = n.ctx.spawn(name, Box::new(thread));
    n.state.thread_objs.insert(tid.0, thread_obj);
    n.state.thread_of_obj.insert(thread_obj, tid.0);
    n.state.live_threads += 1;
    NativeOutcome::Return(None)
}

/// The `java/lang/Thread` object for the calling thread (created
/// lazily for threads that were not started through `Thread.start`,
/// like main).
pub fn current_thread_object(n: &mut NativeCtx<'_, '_, '_>) -> ObjRef {
    let id = n.tid.0;
    if let Some(&r) = n.state.thread_objs.get(&id) {
        return r;
    }
    let r = match n.state.registry.lookup("java/lang/Thread") {
        Some(cid) => interp::alloc_instance(n.state, cid),
        None => n.state.heap.alloc(HeapObj::JavaString("main".into())),
    };
    n.state.thread_objs.insert(id, r);
    n.state.thread_of_obj.insert(r, id);
    r
}

/// Whether a thread object's thread has started and not yet finished.
pub fn is_alive(state: &JvmState, thread_obj: ObjRef) -> bool {
    match state.thread_of_obj.get(&thread_obj) {
        None => false,
        Some(id) => !state.finished_threads.contains(id),
    }
}

/// `Thread.join()`: block until the target thread finishes.
pub fn join_thread(n: &mut NativeCtx<'_, '_, '_>, thread_obj: ObjRef) -> NativeOutcome {
    let Some(&target) = n.state.thread_of_obj.get(&thread_obj) else {
        return NativeOutcome::Return(None); // never started
    };
    if n.state.finished_threads.contains(&target) {
        return NativeOutcome::Return(None);
    }
    enlist_join_waiter(n, target);
    NativeOutcome::Block(Box::new(move |n2| {
        if n2.state.finished_threads.contains(&target) {
            Some(NativeOutcome::Return(None))
        } else {
            // Spurious wake: stay enlisted (without duplicating the
            // entry — a duplicate would make `finish` wake us twice,
            // leaving a stale `wake_pending` that corrupts the next
            // unrelated block) and restore the wait-for edge.
            enlist_join_waiter(n2, target);
            None
        }
    }))
}

/// Register the calling thread as a join waiter (idempotent) and record
/// the `Join` wait-for edge.
fn enlist_join_waiter(n: &mut NativeCtx<'_, '_, '_>, target: usize) {
    let waiters = n.state.join_waiters.entry(target).or_default();
    if !waiters.contains(&n.tid) {
        waiters.push(n.tid);
    }
    let site = interp::current_site(n.state, n.frames);
    n.ctx.note_block(Resource::Join(target), site);
}
