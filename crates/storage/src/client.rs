//! The client tier: one connection to the primary, a write-through
//! cache with push invalidation, transparent reconnect, and pending-op
//! retry.
//!
//! Every key-value operation is correlated by request id. If the
//! connection drops (a primary crash, typically), pending operations
//! stay queued and are re-sent on the next successful dial — safe
//! because the protocol's writes are idempotent whole-blob puts and
//! deletes, and gets are read-only. The cache holds whole blobs keyed
//! by object key; the primary pushes `Invalidate` frames to every
//! *other* client session on a write, so a session never serves a
//! blob another session has since overwritten (its own writes update
//! the cache write-through).
//!
//! [`StorageClient`] implements [`BlobStore`], so
//! `doppio_fs::backends::replicated(cluster.client(...))` yields a full
//! FS backend over the cluster. Every answer arrives from a later event
//! (a cache hit after `CACHE_HIT_NS`, anything else over the network),
//! so the fs core hands it on as it comes; only answers the core gives
//! from its own index pay `LOCAL_LATENCY_NS`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use doppio_fs::backend::FsCallback;
use doppio_fs::backends::BlobStore;
use doppio_jsengine::Engine;
use doppio_sockets::{ClientHandlers, ConnId, Network};
use doppio_trace::SpanContext;

use crate::history::{HistoryRecorder, OpKind};
use crate::proto::{Frame, FrameBuffer, RequestOp, WriteOp};

/// Virtual latency of a cache hit (no network round trip).
const CACHE_HIT_NS: u64 = 2_000;

/// Virtual latency of an answer the fs core gives from its own index,
/// without asking the cluster (matching the in-memory store).
const LOCAL_LATENCY_NS: u64 = 1_200;

/// Backoff between reconnect attempts.
const RECONNECT_NS: u64 = 2_000_000;

/// Completion callback for a raw request: `None` means not-found (get)
/// or, for writes, is ignored.
type DoneFn = Box<dyn FnOnce(&Engine, Option<Vec<u8>>)>;

struct Pending {
    op: RequestOp,
    done: DoneFn,
    sent_once: bool,
    /// Causal bookkeeping for the op, if tracing is on.
    trace: Option<OpTrace>,
    /// The op was re-sent after a connection loss; its client span is
    /// categorized `retry.backoff` so the reconnect window is named on
    /// the critical path.
    retried: bool,
}

/// Causal identity of one client operation: the span frames are
/// stamped with, who opened the request window, and when.
struct OpTrace {
    ctx: SpanContext,
    parent: u64,
    /// This op minted the trace (top-level ingress) and must close it.
    owns_request: bool,
    begin_ns: u64,
}

/// Start causal tracking for one op: nested under the ambient context
/// when there is one, otherwise a fresh request of class `class`.
fn begin_op(engine: &Engine, class: &'static str) -> Option<OpTrace> {
    let causal = engine.causal();
    if !causal.enabled() {
        return None;
    }
    let begin_ns = engine.now_ns();
    Some(match causal.current() {
        Some(amb) => OpTrace {
            ctx: causal.child(amb),
            parent: amb.span_id,
            owns_request: false,
            begin_ns,
        },
        None => OpTrace {
            ctx: causal.begin_request(class, begin_ns),
            parent: 0,
            owns_request: true,
            begin_ns,
        },
    })
}

/// Close causal tracking: emit the op's client-side span (categorized
/// by whether a retry happened) and the request end if this op opened
/// the window.
fn finish_op(engine: &Engine, trace: &Option<OpTrace>, retried: bool) {
    let Some(t) = trace else { return };
    let causal = engine.causal();
    let category: &'static str = if retried {
        "retry.backoff"
    } else {
        "storage.client"
    };
    causal.span(category, t.ctx, t.parent, t.begin_ns, t.begin_ns, 0, None);
    if t.owns_request {
        causal.end_request(t.ctx, engine.now_ns());
    }
}

struct ClientState {
    conn: Option<ConnId>,
    connecting: bool,
    next_req: u64,
    pending: BTreeMap<u64, Pending>,
    cache: BTreeMap<String, Option<Vec<u8>>>,
}

struct ClientInner {
    net: Network,
    port: u16,
    label: String,
    cache_enabled: bool,
    state: RefCell<ClientState>,
    history: RefCell<Option<HistoryRecorder>>,
    // Keeps the simulated world this session talks to (the cluster's
    // nodes, timers, listeners) alive: server state is reachable only
    // through weak refs from its own timers, so a session must anchor
    // it or the store vanishes when the caller drops its handle.
    world: RefCell<Option<Rc<dyn std::any::Any>>>,
}

/// A client session against the cluster's primary.
#[derive(Clone)]
pub struct StorageClient {
    inner: Rc<ClientInner>,
}

fn counter(engine: &Engine, name: &str) {
    engine.metrics().counter(name).inc();
}

impl StorageClient {
    /// A fresh session dialing `port` lazily on first use.
    pub fn new(net: &Network, port: u16, label: &str, cache: bool) -> StorageClient {
        StorageClient {
            inner: Rc::new(ClientInner {
                net: net.clone(),
                port,
                label: label.to_string(),
                cache_enabled: cache,
                state: RefCell::new(ClientState {
                    conn: None,
                    connecting: false,
                    next_req: 1,
                    pending: BTreeMap::new(),
                    cache: BTreeMap::new(),
                }),
                history: RefCell::new(None),
                world: RefCell::new(None),
            }),
        }
    }

    /// Anchor `world` to this session's lifetime.
    pub(crate) fn hold_world(&self, world: Rc<dyn std::any::Any>) {
        *self.inner.world.borrow_mut() = Some(world);
    }

    /// Record every operation of this session into `recorder`.
    pub fn set_history(&self, recorder: HistoryRecorder) {
        *self.inner.history.borrow_mut() = Some(recorder);
    }

    /// This session's label (the tenant name in histories).
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// Fetch the blob at `key` (`Ok(None)` if absent).
    pub fn kv_get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
        let hist = self.begin_history(engine, key, || OpKind::Read);
        let trace = begin_op(engine, "storage:get");
        let inner = self.inner.clone();
        if self.inner.cache_enabled {
            let cached = self.inner.state.borrow().cache.get(key).cloned();
            if let Some(value) = cached {
                counter(engine, "storage.cache.hit");
                let ctx = trace.as_ref().map(|t| t.ctx);
                engine.with_causal_ctx(ctx, || {
                    engine.complete_async_after(CACHE_HIT_NS, move |e| {
                        finish_op(e, &trace, false);
                        complete_history(&inner, hist, e, &value);
                        cb(e, Ok(value));
                    });
                });
                return;
            }
            counter(engine, "storage.cache.miss");
        }
        let fill_key = key.to_string();
        submit(
            &self.inner,
            engine,
            RequestOp::Get {
                key: key.to_string(),
            },
            trace,
            Box::new(move |e, value| {
                if inner.cache_enabled {
                    inner
                        .state
                        .borrow_mut()
                        .cache
                        .insert(fill_key, value.clone());
                }
                complete_history(&inner, hist, e, &value);
                cb(e, Ok(value));
            }),
        );
    }

    /// Execute a journaled, replicated write.
    pub fn kv_write(&self, engine: &Engine, op: WriteOp, cb: FsCallback<()>) {
        let hist = self.begin_history(engine, op.key(), || match &op {
            WriteOp::Put { data, .. } => {
                OpKind::Write(Some(String::from_utf8_lossy(data).into_owned()))
            }
            WriteOp::Delete { .. } => OpKind::Write(None),
        });
        let trace = begin_op(
            engine,
            match &op {
                WriteOp::Put { .. } => "storage:put",
                WriteOp::Delete { .. } => "storage:delete",
            },
        );
        if self.inner.cache_enabled {
            // Write-through: this session always sees its own writes.
            let entry = match &op {
                WriteOp::Put { key, data } => (key.clone(), Some(data.clone())),
                WriteOp::Delete { key } => (key.clone(), None),
            };
            self.inner.state.borrow_mut().cache.insert(entry.0, entry.1);
        }
        let inner = self.inner.clone();
        submit(
            &self.inner,
            engine,
            RequestOp::Write(op),
            trace,
            Box::new(move |e, _| {
                complete_history(&inner, hist, e, &None);
                cb(e, Ok(()));
            }),
        );
    }

    /// Record the op's invocation; `kind` is built only if a recorder is attached.
    fn begin_history(&self, e: &Engine, key: &str, kind: impl FnOnce() -> OpKind) -> Option<usize> {
        self.inner
            .history
            .borrow()
            .as_ref()
            .map(|h| h.begin(&self.inner.label, key, kind(), e.now_ns()))
    }
}

/// Record a recorded op's completion, rendering what a read observed.
fn complete_history(
    inner: &Rc<ClientInner>,
    token: Option<usize>,
    engine: &Engine,
    value: &Option<Vec<u8>>,
) {
    if let (Some(t), Some(h)) = (token, inner.history.borrow().as_ref()) {
        let obs = value
            .as_deref()
            .map(|v| String::from_utf8_lossy(v).into_owned());
        h.complete(t, engine.now_ns(), obs);
    }
}

fn submit(
    inner: &Rc<ClientInner>,
    engine: &Engine,
    op: RequestOp,
    trace: Option<OpTrace>,
    done: DoneFn,
) {
    let ctx = trace.as_ref().map(|t| t.ctx);
    let (req_id, frame) = {
        let mut st = inner.state.borrow_mut();
        let req_id = st.next_req;
        st.next_req += 1;
        st.pending.insert(
            req_id,
            Pending {
                op: op.clone(),
                done,
                sent_once: false,
                trace,
                retried: false,
            },
        );
        (req_id, Frame::Request { req_id, op, ctx }.encode())
    };
    let conn = inner.state.borrow().conn;
    match conn {
        Some(id) => {
            // Install the op's context so the fabric's "net" flow (and
            // the delivery dispatch) chain from the op, not the caller.
            let sent = engine.with_causal_ctx(ctx, || inner.net.client_send(id, frame));
            if sent.is_ok() {
                inner
                    .state
                    .borrow_mut()
                    .pending
                    .get_mut(&req_id)
                    .unwrap()
                    .sent_once = true;
            } else {
                // Raced a close we have not been told about yet.
                handle_close(inner, engine, id);
            }
        }
        None => ensure_connected(inner, engine),
    }
}

fn ensure_connected(inner: &Rc<ClientInner>, engine: &Engine) {
    {
        let st = inner.state.borrow();
        if st.conn.is_some() || st.connecting {
            return;
        }
    }
    inner.state.borrow_mut().connecting = true;
    attempt_connect(inner, engine);
}

fn attempt_connect(inner: &Rc<ClientInner>, engine: &Engine) {
    let my_conn: Rc<std::cell::Cell<Option<ConnId>>> = Rc::new(std::cell::Cell::new(None));
    let mut buf = FrameBuffer::new();
    let w = Rc::downgrade(inner);
    let wd = w.clone();
    let mc = my_conn.clone();
    let handlers = ClientHandlers {
        on_connect: None,
        on_data: Some(Box::new(move |e, data| {
            let Some(inner) = w.upgrade() else { return };
            for frame in buf.push(&data) {
                handle_frame(&inner, e, frame);
            }
        })),
        on_close: Some(Box::new(move |e| {
            let Some(inner) = wd.upgrade() else { return };
            if let Some(id) = mc.get() {
                handle_close(&inner, e, id);
            }
        })),
    };
    match inner.net.connect(inner.port, handlers) {
        Ok(id) => {
            my_conn.set(Some(id));
            {
                let mut st = inner.state.borrow_mut();
                st.conn = Some(id);
                st.connecting = false;
            }
            flush_pending(inner, engine, id);
        }
        Err(_) => {
            // Primary down (or restarting): retry with backoff. The
            // `connecting` flag stays up so callers do not double-dial.
            counter(engine, "storage.client.refused");
            let w = Rc::downgrade(inner);
            engine.complete_async_after(RECONNECT_NS, move |e| {
                let Some(inner) = w.upgrade() else { return };
                attempt_connect(&inner, e);
            });
        }
    }
}

/// Re-send every pending request on a (re)established connection.
/// Safe: gets are read-only, writes are idempotent whole-blob ops.
fn flush_pending(inner: &Rc<ClientInner>, engine: &Engine, conn: ConnId) {
    let frames: Vec<(u64, Vec<u8>, bool, Option<SpanContext>)> = {
        let st = inner.state.borrow();
        st.pending
            .iter()
            .map(|(id, p)| {
                let ctx = p.trace.as_ref().map(|t| t.ctx);
                (
                    *id,
                    Frame::Request {
                        req_id: *id,
                        op: p.op.clone(),
                        ctx,
                    }
                    .encode(),
                    p.sent_once,
                    ctx,
                )
            })
            .collect()
    };
    for (req_id, frame, was_sent, ctx) in frames {
        // Re-enter the op's own trace: the retried send (and everything
        // downstream of it) must stay on the op's causal path.
        let sent = engine.with_causal_ctx(ctx, || inner.net.client_send(conn, frame));
        if sent.is_err() {
            return; // closed again already; the close handler re-dials
        }
        if was_sent {
            counter(engine, "storage.client.retry");
        }
        if let Some(p) = inner.state.borrow_mut().pending.get_mut(&req_id) {
            p.sent_once = true;
            if was_sent {
                p.retried = true;
            }
        }
    }
}

fn handle_frame(inner: &Rc<ClientInner>, engine: &Engine, frame: Frame) {
    match frame {
        Frame::Response { req_id, value } => {
            let Some(p) = inner.state.borrow_mut().pending.remove(&req_id) else {
                return; // duplicate answer after a retry; ignore
            };
            finish_op(engine, &p.trace, p.retried);
            (p.done)(engine, value);
        }
        Frame::Invalidate { key } if inner.cache_enabled => {
            counter(engine, "storage.cache.invalidate");
            inner.state.borrow_mut().cache.remove(&key);
        }
        _ => {}
    }
}

fn handle_close(inner: &Rc<ClientInner>, engine: &Engine, id: ConnId) {
    {
        let mut st = inner.state.borrow_mut();
        if st.conn != Some(id) {
            return; // stale notification for a superseded connection
        }
        st.conn = None;
        if st.pending.is_empty() {
            // Nothing outstanding: reconnect lazily on the next op.
            st.connecting = false;
            counter(engine, "storage.client.reconnect");
            return;
        }
        st.connecting = true;
    }
    counter(engine, "storage.client.reconnect");
    let w = Rc::downgrade(inner);
    engine.complete_async_after(RECONNECT_NS, move |e| {
        let Some(inner) = w.upgrade() else { return };
        attempt_connect(&inner, e);
    });
}

impl BlobStore for StorageClient {
    fn name(&self) -> &'static str {
        "Replicated"
    }

    fn op_latency_ns(&self) -> u64 {
        LOCAL_LATENCY_NS
    }

    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
        self.kv_get(engine, key, cb);
    }

    fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>) {
        self.kv_write(
            engine,
            WriteOp::Put {
                key: key.to_string(),
                data,
            },
            cb,
        );
    }

    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
        self.kv_write(
            engine,
            WriteOp::Delete {
                key: key.to_string(),
            },
            cb,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{StorageCluster, StorageConfig};
    use doppio_jsengine::Browser;
    use std::cell::Cell;

    fn put(c: &StorageClient, e: &Engine, key: &str, data: &[u8]) {
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        c.kv_write(
            e,
            WriteOp::Put {
                key: key.into(),
                data: data.to_vec(),
            },
            Box::new(move |_, r| {
                r.unwrap();
                o.set(true);
            }),
        );
        e.run_until_idle();
        assert!(ok.get());
    }

    fn get(c: &StorageClient, e: &Engine, key: &str) -> Option<Vec<u8>> {
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        c.kv_get(
            e,
            key,
            Box::new(move |_, r| *o.borrow_mut() = Some(r.unwrap())),
        );
        e.run_until_idle();
        let v = out.borrow_mut().take().unwrap();
        v
    }

    #[test]
    fn cache_serves_repeat_reads_and_invalidation_evicts() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let cluster = StorageCluster::launch(
            &engine,
            &net,
            StorageConfig {
                replicas: 1,
                ..StorageConfig::default()
            },
            None,
        );
        let a = cluster.client("a", true);
        let b = cluster.client("b", true);
        put(&a, &engine, "/k", b"v1");
        // a's write-through cache serves the read; miss count stays 0.
        assert_eq!(get(&a, &engine, "/k").unwrap(), b"v1");
        assert!(engine.metrics().counter("storage.cache.hit").get() >= 1);
        // b misses, fills, then hits.
        assert_eq!(get(&b, &engine, "/k").unwrap(), b"v1");
        assert_eq!(get(&b, &engine, "/k").unwrap(), b"v1");
        // a overwrites; the push invalidation must evict b's entry.
        put(&a, &engine, "/k", b"v2");
        assert_eq!(
            get(&b, &engine, "/k").unwrap(),
            b"v2",
            "stale cache served after invalidation"
        );
        assert!(engine.metrics().counter("storage.cache.invalidate").get() >= 1);
    }

    #[test]
    fn a_recorder_attached_mid_session_records_only_later_ops() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let cluster = StorageCluster::launch(&engine, &net, StorageConfig::default(), None);
        let c = cluster.client("t", true);
        put(&c, &engine, "/early", b"e");
        assert_eq!(get(&c, &engine, "/early").unwrap(), b"e");
        // In flight when the recorder arrives: invoked unrecorded, so
        // its completion is not recorded either.
        c.kv_write(
            &engine,
            WriteOp::Put {
                key: "/early".into(),
                data: b"e2".to_vec(),
            },
            Box::new(|_, r| r.unwrap()),
        );
        let history = HistoryRecorder::new();
        c.set_history(history.clone());
        engine.run_until_idle();

        put(&c, &engine, "/k", b"v\xff");
        assert_eq!(get(&c, &engine, "/k").unwrap(), b"v\xff");
        assert_eq!(get(&c, &engine, "/missing"), None);
        c.kv_write(
            &engine,
            WriteOp::Delete { key: "/k".into() },
            Box::new(|_, r| r.unwrap()),
        );
        engine.run_until_idle();

        let seen: Vec<_> = history
            .events()
            .into_iter()
            .map(|ev| {
                assert!(ev.complete_ns.is_some(), "{ev:?}");
                (ev.key, ev.kind, ev.observed)
            })
            .collect();
        let lossy = Some("v\u{fffd}".to_string());
        assert_eq!(
            seen,
            [
                ("/k".into(), OpKind::Write(lossy.clone()), None),
                ("/k".into(), OpKind::Read, lossy),
                ("/missing".into(), OpKind::Read, None),
                ("/k".into(), OpKind::Write(None), None),
            ]
        );
        history.check_read_your_writes().unwrap();
    }

    #[test]
    fn pending_ops_survive_a_primary_crash() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let cluster = StorageCluster::launch(
            &engine,
            &net,
            StorageConfig {
                replicas: 2,
                ..StorageConfig::default()
            },
            None,
        );
        let c = cluster.client("t", false);
        put(&c, &engine, "/k", b"v");
        // Crash the primary, then immediately issue a get: the op rides
        // out the reconnect loop and completes after recovery.
        cluster.crash(0, 8_000_000);
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        c.kv_get(
            &engine,
            "/k",
            Box::new(move |_, r| *o.borrow_mut() = Some(r.unwrap())),
        );
        engine.run_until_idle();
        assert_eq!(out.borrow().clone().unwrap().unwrap(), b"v");
        assert!(engine.metrics().counter("storage.client.reconnect").get() >= 1);
    }
}
