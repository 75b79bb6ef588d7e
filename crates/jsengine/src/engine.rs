//! The engine: virtual clock, cost charging, event dispatch, and the
//! browser APIs Doppio builds on.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use doppio_trace::{
    cat, ArgValue, Causal, Counter, Histogram, MetricsRegistry, Profiler, SpanContext, TraceSink,
    Tracer,
};

use crate::error::{EngineError, EngineResult};
use crate::event_loop::{EventKind, EventQueue, ScheduledEvent};
use crate::memory::MemoryModel;
use crate::profile::{Browser, BrowserProfile, Cost, COST_CATEGORIES};
use crate::stats::EngineStats;
use crate::storage::StorageSet;

/// A callback scheduled on the event loop. It receives the engine so it
/// can schedule further work, exactly like a JavaScript closure sees its
/// global environment.
pub type Callback = Box<dyn FnOnce(&Engine)>;

/// Identifies a `setTimeout` timer so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

/// The simulated browser JavaScript environment.
///
/// `Engine` is cheaply cloneable (it is a handle to shared state) and
/// strictly single-threaded, mirroring the JavaScript execution model of
/// §3.1: one thread, a queue of finite-duration events, no preemption.
///
/// All Doppio components charge their work to the engine's *virtual
/// clock* via [`Engine::charge`]; asynchronous browser APIs complete by
/// scheduling events on the queue. Time therefore advances in two ways:
/// synchronously as running code charges costs, and in jumps when the
/// loop pops an event whose deadline is in the future.
#[derive(Clone)]
pub struct Engine {
    inner: Rc<Inner>,
}

struct Inner {
    profile: BrowserProfile,
    clock_ns: Cell<u64>,
    seq: Cell<u64>,
    queue: RefCell<EventQueue>,
    cancelled: RefCell<HashSet<u64>>,
    metrics: MetricsRegistry,
    counters: EngineCounters,
    tracer: Tracer,
    /// Causal-tracing handle: mints span ids (from its own seeded
    /// stream, never the simulation RNG) and carries the ambient
    /// request context across event hops. See `doppio_trace::causal`.
    causal: Causal,
    rng_state: Cell<u64>,
    memory: RefCell<MemoryModel>,
    storage: RefCell<StorageSet>,
    event_depth: Cell<u32>,
    /// Kind of the event whose callback is currently running; the
    /// profiler uses it as the stack root for attribution.
    current_event: Cell<Option<EventKind>>,
    profiler: Option<Profiler>,
}

/// Counter handles resolved once at construction, so the charge path
/// costs the same as the direct field increments it replaced. The
/// registry (`engine.*` names) is the source of truth; see
/// [`EngineStats`] for the snapshot view.
struct EngineCounters {
    events_run: Counter,
    watchdog_kills: Counter,
    max_event_ns: Counter,
    total_event_ns: Counter,
    ops: [Counter; COST_CATEGORIES],
    ns: [Counter; COST_CATEGORIES],
    events_by_kind: [Counter; 5],
    /// Queue-wait + dispatch latency per event (virtual ns): how long
    /// after its due time a callback actually started. The Figure 5
    /// responsiveness metric. Gated by the registry's histogram flag.
    event_latency: Histogram,
    event_latency_by_kind: [Histogram; 5],
}

impl EngineCounters {
    fn new(reg: &MetricsRegistry) -> EngineCounters {
        EngineCounters {
            events_run: reg.counter("engine.events_run"),
            watchdog_kills: reg.counter("engine.watchdog_kills"),
            max_event_ns: reg.counter("engine.max_event_ns"),
            total_event_ns: reg.counter("engine.total_event_ns"),
            ops: std::array::from_fn(|i| {
                reg.counter(&format!("engine.ops.{}", Cost::ALL[i].name()))
            }),
            ns: std::array::from_fn(|i| reg.counter(&format!("engine.ns.{}", Cost::ALL[i].name()))),
            events_by_kind: std::array::from_fn(|i| {
                reg.counter(&format!("engine.events.{}", EventKind::ALL[i].name()))
            }),
            event_latency: reg.histogram("engine.event_latency"),
            event_latency_by_kind: std::array::from_fn(|i| {
                reg.histogram(&format!(
                    "engine.event_latency.{}",
                    EventKind::ALL[i].name()
                ))
            }),
        }
    }
}

/// The observability knobs, gathered in one place.
///
/// Histograms (a registry-wide switch) and the sampling profiler (a
/// per-engine attachment) are accepted uniformly here, by
/// [`EngineBuilder::observability`] and by the kernel. Fields left
/// unset fall back to whatever the accepting side already had.
///
/// ```
/// use doppio_jsengine::{Browser, EngineBuilder, ObservabilityOptions};
///
/// let engine = EngineBuilder::new(Browser::Chrome)
///     .observability(ObservabilityOptions::new().histograms(true))
///     .build();
/// assert!(engine.metrics().histograms_enabled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObservabilityOptions {
    /// Enable latency histograms on the metrics registry. Histograms
    /// never advance the virtual clock, so this cannot change
    /// simulated results.
    pub histograms: Option<bool>,
    /// Attach a virtual-clock sampling profiler.
    pub profiler: Option<Profiler>,
}

impl ObservabilityOptions {
    /// No opinions: every field falls back to the accepting side.
    pub fn new() -> ObservabilityOptions {
        ObservabilityOptions::default()
    }

    /// Turn latency histograms on (or explicitly off).
    pub fn histograms(mut self, on: bool) -> ObservabilityOptions {
        self.histograms = Some(on);
        self
    }

    /// Attach a sampling [`Profiler`].
    pub fn profiler(mut self, profiler: Profiler) -> ObservabilityOptions {
        self.profiler = Some(profiler);
        self
    }

    /// `self`, with unset fields filled from `fallback`.
    pub fn or(mut self, fallback: &ObservabilityOptions) -> ObservabilityOptions {
        if self.histograms.is_none() {
            self.histograms = fallback.histograms;
        }
        if self.profiler.is_none() {
            self.profiler = fallback.profiler.clone();
        }
        self
    }
}

/// Configures and constructs an [`Engine`].
///
/// Replaces positional construction: profile, trace sink, watchdog
/// threshold, metrics registry, and RNG seed are all independent knobs,
/// so adding one no longer ripples a parameter through every call site.
///
/// ```
/// use doppio_jsengine::{Browser, EngineBuilder};
///
/// let engine = EngineBuilder::new(Browser::Chrome)
///     .rng_seed(7)
///     .watchdog_limit_ns(None) // disable the watchdog
///     .build();
/// assert_eq!(engine.browser(), Browser::Chrome);
/// ```
#[derive(Debug)]
pub struct EngineBuilder {
    profile: BrowserProfile,
    tracer: Tracer,
    metrics: MetricsRegistry,
    watchdog_override: Option<Option<u64>>,
    rng_seed: u64,
    obs: ObservabilityOptions,
}

impl EngineBuilder {
    /// Start from the stock profile of `browser`.
    pub fn new(browser: Browser) -> EngineBuilder {
        EngineBuilder::with_profile(BrowserProfile::of(browser))
    }

    /// Start from a custom profile (the §8 ablation experiments).
    pub fn with_profile(profile: BrowserProfile) -> EngineBuilder {
        EngineBuilder {
            profile,
            tracer: Tracer::disabled(),
            metrics: MetricsRegistry::new(),
            watchdog_override: None,
            rng_seed: 0,
            obs: ObservabilityOptions::default(),
        }
    }

    /// Record trace events into `sink`. Equivalent to
    /// `tracer(Tracer::new(sink))`.
    pub fn trace_sink(self, sink: Rc<dyn TraceSink>) -> EngineBuilder {
        self.tracer(Tracer::new(sink))
    }

    /// Use an existing tracer handle (e.g. one shared with another
    /// engine).
    pub fn tracer(mut self, tracer: Tracer) -> EngineBuilder {
        self.tracer = tracer;
        self
    }

    /// Use an existing metrics registry instead of a fresh one (lets
    /// several engines aggregate into one set of counters).
    pub fn metrics(mut self, metrics: MetricsRegistry) -> EngineBuilder {
        self.metrics = metrics;
        self
    }

    /// Override the profile's watchdog threshold: `Some(ns)` to set a
    /// limit, `None` to disable the watchdog entirely.
    pub fn watchdog_limit_ns(mut self, limit: Option<u64>) -> EngineBuilder {
        self.watchdog_override = Some(limit);
        self
    }

    /// Seed for the engine's deterministic RNG (see
    /// [`Engine::random_u64`]). Defaults to 0.
    pub fn rng_seed(mut self, seed: u64) -> EngineBuilder {
        self.rng_seed = seed;
        self
    }

    /// Accepted for source compatibility and ignored: guest
    /// interpreters have a single executor, so there is no tier to
    /// switch.
    pub fn tier_up(self, _on: bool) -> EngineBuilder {
        self
    }

    /// Set the observability knobs in one call. Fields `opts` leaves
    /// unset keep whatever earlier calls established.
    pub fn observability(mut self, opts: ObservabilityOptions) -> EngineBuilder {
        self.obs = opts.or(&self.obs);
        self
    }

    /// Fill observability fields *not yet set on this builder* from
    /// `opts` (the kernel's defaults lose to explicit builder calls).
    pub fn observability_fallback(mut self, opts: &ObservabilityOptions) -> EngineBuilder {
        self.obs = self.obs.or(opts);
        self
    }

    /// Turn latency histograms on (or explicitly off) for the metrics
    /// registry. Off by default; when off, every
    /// [`Histogram::record`] site is a single branch. Histograms never
    /// advance the virtual clock, so enabling them cannot change
    /// simulated results.
    ///
    /// Delegates to [`ObservabilityOptions`]; prefer
    /// [`observability`](Self::observability) when setting more than
    /// one knob.
    pub fn histograms(mut self, on: bool) -> EngineBuilder {
        self.obs.histograms = Some(on);
        self
    }

    /// Construct a standalone engine — the one-process convenience.
    ///
    /// Note: new multi-guest code should prefer `build_on(&Kernel)`
    /// (see `doppio_core::BuildOnKernel`), which hosts the engine on a
    /// kernel so several guest processes can share its event loop,
    /// metrics, and wait-for graph. `build()` remains fully supported
    /// for single-guest embeddings.
    pub fn build(self) -> Engine {
        let mut profile = self.profile;
        if let Some(limit) = self.watchdog_override {
            profile.watchdog_limit_ns = limit;
        }
        let memory = MemoryModel::new(profile.leaks_typed_arrays, profile.paging_threshold_bytes);
        let storage = StorageSet::for_profile(&profile);
        if let Some(on) = self.obs.histograms {
            self.metrics.set_histograms_enabled(on);
        }
        let counters = EngineCounters::new(&self.metrics);
        let tracer = self.tracer;
        if tracer.enabled() {
            tracer.name_lane(0, "browser event loop");
        }
        Engine {
            inner: Rc::new(Inner {
                profile,
                clock_ns: Cell::new(0),
                seq: Cell::new(0),
                queue: RefCell::new(EventQueue::default()),
                cancelled: RefCell::new(HashSet::new()),
                metrics: self.metrics,
                counters,
                causal: Causal::new(self.rng_seed, tracer.clone()),
                tracer,
                rng_state: Cell::new(self.rng_seed),
                memory: RefCell::new(memory),
                storage: RefCell::new(storage),
                event_depth: Cell::new(0),
                current_event: Cell::new(None),
                profiler: self.obs.profiler,
            }),
        }
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("browser", &self.inner.profile.browser)
            .field("now_ns", &self.now_ns())
            .field("pending_events", &self.pending_events())
            .finish()
    }
}

impl Engine {
    /// Create an engine simulating the given browser.
    pub fn new(browser: Browser) -> Engine {
        Engine::with_profile(BrowserProfile::of(browser))
    }

    /// Create an engine for the native baseline (the HotSpot
    /// interpreter / Node JS environment of the paper's comparisons).
    pub fn native() -> Engine {
        Engine::new(Browser::Native)
    }

    /// Create an engine from a custom profile (used by the §8 ablation
    /// experiments, which toggle proposed browser extensions).
    pub fn with_profile(profile: BrowserProfile) -> Engine {
        EngineBuilder::with_profile(profile).build()
    }

    /// Start configuring an engine; see [`EngineBuilder`].
    pub fn builder(browser: Browser) -> EngineBuilder {
        EngineBuilder::new(browser)
    }

    /// The active browser profile.
    pub fn profile(&self) -> &BrowserProfile {
        &self.inner.profile
    }

    /// Which browser this engine simulates.
    pub fn browser(&self) -> Browser {
        self.inner.profile.browser
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner.clock_ns.get()
    }

    /// Current virtual time in milliseconds (what `Date.now()`-style
    /// JavaScript code would observe).
    pub fn now_ms(&self) -> f64 {
        self.now_ns() as f64 / 1e6
    }

    // ----------------------------------------------------------------
    // Cost charging
    // ----------------------------------------------------------------

    /// Charge one operation of the given category to the virtual clock.
    #[inline]
    pub fn charge(&self, kind: Cost) {
        self.charge_n(kind, 1);
    }

    /// Charge `n` operations of the given category.
    #[inline]
    pub fn charge_n(&self, kind: Cost, n: u64) {
        let unit = self.inner.profile.cost(kind);
        let raw = unit.saturating_mul(n);
        let cost = self.inner.memory.borrow().apply_paging(raw);
        self.inner.clock_ns.set(self.inner.clock_ns.get() + cost);
        self.inner.counters.ops[kind as usize].add(n);
        self.inner.counters.ns[kind as usize].add(cost);
    }

    /// Charge `counts[k]` single operations of category `k` (a
    /// `Cost as usize`) and zero the counts. The clock and the
    /// `engine.ops.*`/`engine.ns.*` counters end exactly as after that
    /// many [`charge`](Self::charge) calls, provided typed-array
    /// residency did not change in between: one charge costs
    /// `apply_paging(unit)`, which depends on nothing else.
    pub fn charge_counts(&self, counts: &mut [u64; COST_CATEGORIES]) {
        let memory = self.inner.memory.borrow();
        let mut total = 0;
        for (k, n) in counts.iter_mut().enumerate() {
            if *n == 0 {
                continue;
            }
            let cost = memory.apply_paging(self.inner.profile.cost_ns[k]) * *n;
            total += cost;
            self.inner.counters.ops[k].add(*n);
            self.inner.counters.ns[k].add(cost);
            *n = 0;
        }
        self.inner.clock_ns.set(self.inner.clock_ns.get() + total);
    }

    /// Advance the clock without attributing the time to an operation
    /// category (used for modeled external latencies).
    pub fn advance_ns(&self, ns: u64) {
        self.inner.clock_ns.set(self.inner.clock_ns.get() + ns);
    }

    // ----------------------------------------------------------------
    // Scheduling APIs (§4.4)
    // ----------------------------------------------------------------

    fn next_seq(&self) -> u64 {
        let s = self.inner.seq.get();
        self.inner.seq.set(s + 1);
        s
    }

    fn enqueue(&self, due_ns: u64, kind: EventKind, timer: Option<TimerId>, cb: Callback) {
        let ev = ScheduledEvent {
            due_ns,
            seq: self.next_seq(),
            kind,
            timer,
            // The scheduled callback inherits the request the scheduler
            // was serving; the hop is silent (no flow event) — domain
            // edges that matter emit their own flows.
            ctx: self.inner.causal.current(),
            cb,
        };
        self.inner.queue.borrow_mut().push(ev);
    }

    /// `setTimeout(cb, ms)`. The HTML5 specification clamps the delay to
    /// the profile's minimum (4 ms in real browsers), which is why
    /// Doppio avoids `setTimeout` for suspend-and-resume when it can.
    pub fn set_timeout(&self, ms: f64, cb: impl FnOnce(&Engine) + 'static) -> TimerId {
        let ms = ms.max(self.inner.profile.min_timeout_ms);
        let delay = (ms * 1e6) as u64;
        let id = TimerId(self.next_seq());
        self.enqueue(
            self.now_ns() + delay,
            EventKind::Timer,
            Some(id),
            Box::new(cb),
        );
        id
    }

    /// `clearTimeout`.
    pub fn clear_timeout(&self, id: TimerId) {
        self.inner.cancelled.borrow_mut().insert(id.0);
    }

    /// `sendMessage`/`postMessage` to self: places a message event at
    /// the back of the queue immediately (no 4 ms clamp).
    ///
    /// On Internet Explorer 8 this is *synchronous*: the handler runs
    /// before `send_message` returns (§4.4), which makes it useless for
    /// suspend-and-resume there.
    pub fn send_message(&self, cb: impl FnOnce(&Engine) + 'static) {
        if self.inner.profile.synchronous_send_message {
            // The IE8 bug: the message handler is invoked inline.
            cb(self);
        } else {
            self.enqueue(
                self.now_ns() + self.inner.profile.message_latency_ns,
                EventKind::Message,
                None,
                Box::new(cb),
            );
        }
    }

    /// `setImmediate`: queue an event with no delay. Only IE10 (and the
    /// native baseline) provide it.
    pub fn set_immediate(&self, cb: impl FnOnce(&Engine) + 'static) -> EngineResult<()> {
        if !self.inner.profile.has_set_immediate {
            return Err(EngineError::UnsupportedApi {
                api: "setImmediate",
                browser: self.inner.profile.browser.name(),
            });
        }
        self.enqueue(
            self.now_ns() + self.inner.profile.immediate_latency_ns,
            EventKind::Immediate,
            None,
            Box::new(cb),
        );
        Ok(())
    }

    /// Schedule completion of a simulated asynchronous browser API
    /// (XHR, IndexedDB, network) after `delay_ns` of external latency.
    pub fn complete_async_after(&self, delay_ns: u64, cb: impl FnOnce(&Engine) + 'static) {
        self.enqueue(
            self.now_ns() + delay_ns,
            EventKind::AsyncCompletion,
            None,
            Box::new(cb),
        );
    }

    /// Inject a synthetic user-input event (used by responsiveness
    /// tests: if Doppio's segmentation works, these run promptly even
    /// while a long computation is in progress).
    ///
    /// Input injection is a causal ingress point: when causal tracing
    /// is on and no request is ambient, the event roots a fresh
    /// `input` request whose wall time starts now (so queue wait
    /// behind a long computation is attributed, not hidden).
    pub fn inject_user_input(&self, cb: impl FnOnce(&Engine) + 'static) {
        let causal = &self.inner.causal;
        if causal.enabled() && causal.current().is_none() {
            let ctx = causal.begin_request("input", self.now_ns());
            let prev = causal.set_current(Some(ctx));
            self.enqueue(self.now_ns(), EventKind::UserInput, None, Box::new(cb));
            causal.set_current(prev);
        } else {
            self.enqueue(self.now_ns(), EventKind::UserInput, None, Box::new(cb));
        }
    }

    // ----------------------------------------------------------------
    // The dispatch loop (§3.1)
    // ----------------------------------------------------------------

    /// Dispatch the next event, if any. Returns whether one ran.
    ///
    /// Mirrors one turn of the browser's event loop: pop the earliest
    /// event, jump the clock to its deadline, run it to completion, and
    /// let the watchdog judge it afterwards.
    pub fn run_one(&self) -> bool {
        let ev = loop {
            let ev = match self.inner.queue.borrow_mut().pop() {
                Some(ev) => ev,
                None => return false,
            };
            if let Some(TimerId(id)) = ev.timer {
                if self.inner.cancelled.borrow_mut().remove(&id) {
                    continue; // cancelled timer: skip silently
                }
            }
            break ev;
        };

        if ev.due_ns > self.now_ns() {
            self.inner.clock_ns.set(ev.due_ns);
        }
        let dispatch_start = self.now_ns();
        self.charge(Cost::EventDispatch);
        let start = self.now_ns();
        // Event latency: how long past its due time the callback
        // started (queue wait behind earlier events + the dispatch
        // charge). For an input injected at t0 this equals the
        // `now_ns() - t0` a responsiveness probe measures on entry.
        let counters = &self.inner.counters;
        if counters.event_latency.is_enabled() {
            let latency = start - ev.due_ns;
            counters.event_latency.record(latency);
            counters.event_latency_by_kind[ev.kind.index()].record(latency);
        }
        self.inner.event_depth.set(self.inner.event_depth.get() + 1);
        let prev_event = self.inner.current_event.replace(Some(ev.kind));
        // Carry the causal context across the queue hop: the callback
        // runs as a child span of whatever scheduled it.
        let causal = &self.inner.causal;
        let dispatch_ctx = ev.ctx.map(|parent| causal.child(parent));
        let prev_ctx = causal.set_current(dispatch_ctx);
        (ev.cb)(self);
        // A callback that ran no deeper sample point (no JVM slice, no
        // fs/net boundary) still shows up in the profile under its
        // event kind.
        if let Some(p) = self.inner.profiler.as_ref() {
            let now = self.now_ns();
            if p.due(now) {
                p.sample(now, [ev.kind.name()]);
            }
        }
        if let (Some(ctx), Some(parent)) = (dispatch_ctx, ev.ctx) {
            // The gap between the parent's hand-off and this dispatch
            // is queue wait (or a modeled async delay); name it so the
            // critical-path walk can attribute it.
            let wait = match ev.kind {
                EventKind::Timer => "wait.timer",
                EventKind::AsyncCompletion => "wait.async",
                _ => doppio_trace::causal::WAIT_SCHED,
            };
            causal.span(
                "dispatch",
                ctx,
                parent.span_id,
                dispatch_start,
                self.now_ns(),
                0,
                Some(wait),
            );
            if ev.kind == EventKind::UserInput {
                // Input requests end when their handler returns — the
                // responsiveness metric this event kind exists for. An
                // input injected from inside another request emits a
                // req.end with no open request; the analyzer ignores it.
                causal.end_request(parent, self.now_ns());
            }
        }
        causal.set_current(prev_ctx);
        self.inner.current_event.set(prev_event);
        self.inner.event_depth.set(self.inner.event_depth.get() - 1);
        let elapsed = self.now_ns() - start;

        counters.events_run.inc();
        counters.events_by_kind[ev.kind.index()].inc();
        counters.total_event_ns.add(elapsed);
        counters.max_event_ns.record_max(elapsed);
        let mut killed = false;
        if let Some(limit) = self.inner.profile.watchdog_limit_ns {
            if elapsed > limit {
                // A real browser would have killed the page's script;
                // we record the violation so tests and benches can
                // assert Doppio's segmentation prevents it.
                counters.watchdog_kills.inc();
                killed = true;
            }
        }
        if self.inner.tracer.enabled() {
            let mut args = vec![("kind", ArgValue::from(ev.kind.name()))];
            if killed {
                args.push(("watchdog_kill", ArgValue::Bool(true)));
            }
            self.inner.tracer.complete(
                cat::ENGINE,
                ev.kind.name(),
                dispatch_start,
                self.now_ns() - dispatch_start,
                0,
                args,
            );
        }
        true
    }

    /// Run events until the queue is empty. Returns how many ran.
    pub fn run_until_idle(&self) -> u64 {
        let mut n = 0;
        while self.run_one() {
            n += 1;
        }
        n
    }

    /// Run events until `done()` reports true or the queue drains.
    /// Returns whether `done()` was satisfied.
    pub fn run_until(&self, mut done: impl FnMut() -> bool) -> bool {
        while !done() {
            if !self.run_one() {
                return done();
            }
        }
        true
    }

    /// Whether the loop is currently inside an event callback.
    pub fn in_event(&self) -> bool {
        self.inner.event_depth.get() > 0
    }

    /// Kind of the event whose callback is currently running, if any.
    pub fn current_event(&self) -> Option<EventKind> {
        self.inner.current_event.get()
    }

    /// The attached sampling profiler, if any. Suspend/slice
    /// boundaries call [`Profiler::due`] here and feed it their stacks.
    #[inline]
    pub fn profiler(&self) -> Option<&Profiler> {
        self.inner.profiler.as_ref()
    }

    /// Number of events waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    // ----------------------------------------------------------------
    // Statistics, tracing and memory accounting
    // ----------------------------------------------------------------

    /// The shared metrics registry. Every subsystem attached to this
    /// engine (fs, sockets, jvm) registers its counters here; snapshot
    /// views are available via
    /// [`MetricsRegistry::snapshot`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The trace recorder. Subsystems check
    /// [`Tracer::enabled`] before constructing span
    /// arguments, so a disabled tracer costs one branch per site.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The causal-tracing handle: span-context minting, the ambient
    /// request context, and flow-event emission. Ids come from a
    /// dedicated stream seeded by [`EngineBuilder::rng_seed`], so
    /// minting never perturbs [`Engine::random_u64`] and same-seed
    /// runs mint byte-identical ids.
    pub fn causal(&self) -> &Causal {
        &self.inner.causal
    }

    /// Run `f` with `ctx` installed as the ambient causal context
    /// (restored afterwards). Subsystems use this to re-root work they
    /// perform on behalf of a propagated request.
    pub fn with_causal_ctx<R>(&self, ctx: Option<SpanContext>, f: impl FnOnce() -> R) -> R {
        let prev = self.inner.causal.set_current(ctx);
        let r = f();
        self.inner.causal.set_current(prev);
        r
    }

    /// A snapshot of the engine's counters — a view over
    /// [`Engine::metrics`], kept for compatibility.
    pub fn stats(&self) -> EngineStats {
        self.inner.metrics.snapshot()
    }

    /// Reset the engine's counters (the clock keeps running). A view
    /// over [`MetricsRegistry::reset_prefix`], kept for compatibility;
    /// other subsystems' counters are untouched.
    pub fn reset_stats(&self) {
        self.inner.metrics.reset_prefix("engine.");
    }

    /// Next value of the engine's deterministic RNG (SplitMix64, seeded
    /// via [`EngineBuilder::rng_seed`]). Simulated nondeterminism —
    /// jittered latencies, dropped frames — draws from here so runs
    /// stay reproducible.
    pub fn random_u64(&self) -> u64 {
        let mut s = self.inner.rng_state.get();
        let v = doppio_prng::split_mix64(&mut s);
        self.inner.rng_state.set(s);
        v
    }

    /// Record a typed-array allocation (Buffer and heap backings call
    /// this so the Safari leak model sees the traffic).
    pub fn typed_array_alloc(&self, bytes: usize) {
        self.inner.memory.borrow_mut().alloc(bytes);
    }

    /// Record a typed-array free.
    pub fn typed_array_free(&self, bytes: usize) {
        self.inner.memory.borrow_mut().free(bytes);
    }

    /// Resident typed-array bytes (grows without bound on Safari).
    pub fn typed_array_resident_bytes(&self) -> usize {
        self.inner.memory.borrow().resident_bytes()
    }

    /// Whether the simulated machine is currently paging.
    pub fn is_paging(&self) -> bool {
        self.inner.memory.borrow().is_paging()
    }

    /// Access the browser's persistent storage mechanisms.
    pub fn with_storage<R>(&self, f: impl FnOnce(&mut StorageSet, &Engine) -> R) -> R {
        let mut guard = self.inner.storage.borrow_mut();
        f(&mut guard, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell as StdCell;

    #[test]
    fn charging_advances_the_clock() {
        let e = Engine::new(Browser::Chrome);
        let t0 = e.now_ns();
        e.charge(Cost::Dispatch);
        assert!(e.now_ns() > t0);
        let stats = e.stats();
        assert_eq!(stats.ops[Cost::Dispatch as usize], 1);
    }

    #[test]
    fn charged_counts_match_single_charges_while_paging() {
        let (one, all) = (Engine::new(Browser::Safari), Engine::new(Browser::Safari));
        let mut counts = [0; COST_CATEGORIES];
        for e in [&one, &all] {
            e.typed_array_alloc(5 << 20);
        }
        for (k, n) in [(Cost::Dispatch, 5), (Cost::LongOp, 3), (Cost::Branch, 1)] {
            counts[k as usize] = n;
            for _ in 0..n {
                one.charge(k);
            }
        }
        all.charge_counts(&mut counts);
        assert_eq!(counts, [0; COST_CATEGORIES]);
        assert_eq!(one.now_ns(), all.now_ns());
        assert_eq!(one.stats().ops, all.stats().ops);
        assert_eq!(one.stats().ns, all.stats().ns);
    }

    #[test]
    fn set_timeout_respects_the_4ms_clamp() {
        let e = Engine::new(Browser::Chrome);
        let fired_at = Rc::new(StdCell::new(0u64));
        let f = fired_at.clone();
        e.set_timeout(0.0, move |eng| f.set(eng.now_ns()));
        e.run_until_idle();
        assert!(fired_at.get() >= 4_000_000, "clamped to >= 4ms");
    }

    #[test]
    fn native_profile_has_no_clamp() {
        let e = Engine::native();
        let fired_at = Rc::new(StdCell::new(u64::MAX));
        let f = fired_at.clone();
        e.set_timeout(0.0, move |eng| f.set(eng.now_ns()));
        e.run_until_idle();
        assert!(fired_at.get() < 4_000_000);
    }

    #[test]
    fn send_message_is_much_faster_than_set_timeout() {
        let e = Engine::new(Browser::Chrome);
        let fired_at = Rc::new(StdCell::new(0u64));
        let f = fired_at.clone();
        e.send_message(move |eng| f.set(eng.now_ns()));
        e.run_until_idle();
        assert!(fired_at.get() < 1_000_000, "sendMessage lands in < 1ms");
    }

    #[test]
    fn ie8_send_message_is_synchronous() {
        let e = Engine::new(Browser::Ie8);
        let ran = Rc::new(StdCell::new(false));
        let r = ran.clone();
        e.send_message(move |_| r.set(true));
        // Handler already ran, before any event dispatch.
        assert!(ran.get());
        assert_eq!(e.pending_events(), 0);
    }

    #[test]
    fn set_immediate_only_on_ie10() {
        let chrome = Engine::new(Browser::Chrome);
        assert!(matches!(
            chrome.set_immediate(|_| {}),
            Err(EngineError::UnsupportedApi { .. })
        ));
        let ie10 = Engine::new(Browser::Ie10);
        assert!(ie10.set_immediate(|_| {}).is_ok());
        assert_eq!(ie10.run_until_idle(), 1);
    }

    #[test]
    fn cleared_timers_do_not_fire() {
        let e = Engine::new(Browser::Chrome);
        let ran = Rc::new(StdCell::new(false));
        let r = ran.clone();
        let id = e.set_timeout(1.0, move |_| r.set(true));
        e.clear_timeout(id);
        e.run_until_idle();
        assert!(!ran.get());
    }

    #[test]
    fn watchdog_records_overlong_events() {
        let e = Engine::new(Browser::Chrome);
        e.send_message(|eng| {
            // Simulate a computation that hogs the thread for > 5s.
            eng.advance_ns(6_000_000_000);
        });
        e.run_until_idle();
        assert_eq!(e.stats().watchdog_kills, 1);
    }

    #[test]
    fn short_events_do_not_trip_the_watchdog() {
        let e = Engine::new(Browser::Chrome);
        for _ in 0..100 {
            e.send_message(|eng| eng.advance_ns(1_000_000));
        }
        e.run_until_idle();
        let s = e.stats();
        assert_eq!(s.watchdog_kills, 0);
        assert_eq!(s.events_run, 100);
    }

    #[test]
    fn events_nest_and_chain() {
        let e = Engine::new(Browser::Chrome);
        let order = Rc::new(RefCell::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        e.send_message(move |eng| {
            o1.borrow_mut().push(1);
            let o = o1.clone();
            eng.send_message(move |_| o.borrow_mut().push(3));
            o1.borrow_mut().push(2);
        });
        e.send_message(move |_| o2.borrow_mut().push(10));
        e.run_until_idle();
        // First event fully completes (1,2) before the next queued event
        // (10), and the nested message lands after both.
        assert_eq!(*order.borrow(), vec![1, 2, 10, 3]);
    }

    #[test]
    fn builder_watchdog_override_and_seed() {
        let e = EngineBuilder::new(Browser::Chrome)
            .watchdog_limit_ns(None)
            .rng_seed(99)
            .build();
        e.send_message(|eng| eng.advance_ns(600_000_000_000));
        e.run_until_idle();
        assert_eq!(e.stats().watchdog_kills, 0, "watchdog disabled");

        let f = EngineBuilder::new(Browser::Chrome).rng_seed(99).build();
        assert_eq!(e.random_u64(), f.random_u64(), "same seed, same stream");
        let g = EngineBuilder::new(Browser::Chrome).rng_seed(100).build();
        assert_ne!(f.random_u64(), g.random_u64());
    }

    #[test]
    fn stats_are_views_over_the_shared_registry() {
        let e = Engine::new(Browser::Chrome);
        e.charge_n(Cost::IntOp, 5);
        assert_eq!(e.metrics().get("engine.ops.int_op"), 5);
        assert_eq!(e.stats().ops[Cost::IntOp as usize], 5);
        // A foreign counter survives an engine reset.
        e.metrics().counter("fs.opens").add(2);
        e.reset_stats();
        assert_eq!(e.stats().total_ops(), 0);
        assert_eq!(e.metrics().get("fs.opens"), 2);
    }

    #[test]
    fn traced_engine_emits_one_span_per_event() {
        let sink = Rc::new(doppio_trace::RingSink::with_capacity(64));
        let e = EngineBuilder::new(Browser::Chrome)
            .trace_sink(sink.clone())
            .build();
        e.send_message(|_| {});
        e.set_timeout(10.0, |_| {});
        e.run_until_idle();
        let spans: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|ev| ev.phase == doppio_trace::Phase::Complete)
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "message");
        assert_eq!(spans[1].name, "timer");
        assert_eq!(spans[0].cat, cat::ENGINE);
    }

    #[test]
    fn paging_inflates_charges_on_safari() {
        let e = Engine::new(Browser::Safari);
        let unit = e.profile().cost(Cost::Dispatch);
        e.typed_array_alloc(400 * 1024 * 1024); // past the 192 MB threshold
        e.typed_array_free(400 * 1024 * 1024); // leak: ignored
        assert!(e.is_paging());
        let t0 = e.now_ns();
        e.charge(Cost::Dispatch);
        assert!(e.now_ns() - t0 > unit);
    }

    #[test]
    fn user_input_runs_between_segmented_events() {
        let e = Engine::new(Browser::Chrome);
        let log = Rc::new(RefCell::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        // A "computation" split across two events...
        e.send_message(move |eng| {
            l1.borrow_mut().push("work-1");
            let l = l1.clone();
            eng.send_message(move |_| l.borrow_mut().push("work-2"));
        });
        // ...lets user input injected after the first segment run
        // before the second.
        e.run_one();
        e.inject_user_input(move |_| l2.borrow_mut().push("input"));
        e.run_until_idle();
        assert_eq!(*log.borrow(), vec!["work-1", "input", "work-2"]);
    }
}
