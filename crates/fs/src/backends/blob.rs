//! The one backend core, its store trait, and the in-process stores.
//!
//! §5.1's utility classes make writing a backend cheap: the directory
//! index, the load-whole-file/sync-on-close file model, and the Buffer
//! string bridge are shared. [`BlobBackend`] holds those utilities once:
//! the ten file operations over a [`DirIndex`] plus the sizes and mtimes
//! it knows, around a [`BlobStore`], the only part each storage
//! mechanism provides. A store moves whole blobs by key and answers
//! each call through a callback. The paper's backends map to:
//!
//! * [`MemoryStore`] — "temporary in-memory storage"
//! * [`LocalStorageStore`] — browser-local persistent storage, going
//!   through the Buffer binary-string bridge and the localStorage
//!   quota
//! * [`XhrStore`] — "read-only access to files served by the web
//!   server", with download latency and bandwidth
//! * [`DropboxStore`] — "access to Dropbox cloud storage", with
//!   round-trip latency
//!
//! and `doppio-storage`'s `StorageClient`, a session on a replicated
//! cluster, is one more store. (The mountable file system composes
//! backends and lives in [`mount`](crate::backends::mount).)
//!
//! # When an answer is delivered
//!
//! The four in-process stores answer *inline*: their callback runs
//! before the store call returns. A replicated client answers from a
//! later event. The core tells the two apart by whether a callback runs
//! while the call that issued it is still on the stack, and applies one
//! rule to every operation:
//!
//! * if every store answer arrived inline, or the operation needed no
//!   store call, the result is delivered through the event loop once,
//!   after the store's latency `op_latency_ns + ns_per_kib ×
//!   ⌈payload / 1 KiB⌉`. The payload is the data `open` returns or
//!   `sync` writes, and 0 otherwise;
//! * once a store answer has crossed the event loop, the result is
//!   handed on as soon as the last answer arrives, with no extra hop.
//!
//! `close` always completes after 1 µs.
//!
//! # Order of updates
//!
//! A write records the file's index entry, size and mtime before its
//! put is issued, so operations behind a remote put see them. When the
//! put answered inline, the mtime is taken again, after the store has
//! charged its cost. When the put fails, the write is undone: the entry
//! goes if the put was creating it, and the old size and mtime come
//! back otherwise. Every mutation that succeeds ends by persisting the
//! index ([`BlobStore::persist_index`]) on a store that keeps it. No
//! borrow of the core's state
//! is held across a store call, because an inline answer re-enters the
//! core.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use doppio_buffer::{Buffer, Encoding};
use doppio_jsengine::storage::{KvStore, SyncMechanism};
use doppio_jsengine::{Cost, Engine, EngineError, EngineResult};

use crate::backend::{deliver, Backend, DirIndex, FileKind, FsCallback, OpenFlags, Stat};
use crate::error::{Errno, FsError, FsResult};

/// Key under which a store that keeps the directory index among its
/// blobs persists it (NUL-prefixed so it can never collide with a
/// path).
pub const INDEX_KEY: &str = "\u{0}index";

/// The storage mechanism under a [`BlobBackend`]: where file contents
/// live, what moving them costs, and how answers come back.
///
/// A store may call `cb` before the call returns (inline) or from a
/// later event; either way it must release any borrow of its own state
/// first, because the core may issue the next call from inside `cb`.
pub trait BlobStore {
    /// Name for diagnostics.
    fn name(&self) -> &'static str;

    /// Whether writes are rejected (`EROFS`).
    fn is_read_only(&self) -> bool {
        false
    }

    /// Fixed virtual latency of an answer the core delivers (see the
    /// module doc).
    fn op_latency_ns(&self) -> u64;

    /// Additional virtual latency per KiB of payload (bandwidth).
    fn ns_per_kib(&self) -> u64 {
        0
    }

    /// Fetch the blob at `key` (`Ok(None)` if absent).
    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>);

    /// Store the blob at `key`.
    fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>);

    /// Remove the blob at `key` (missing is fine).
    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>);

    /// Load the persisted directory index (`Ok(None)` if there is
    /// none). By default it is the blob under [`INDEX_KEY`].
    fn load_index(&self, engine: &Engine, cb: FsCallback<Option<DirIndex>>) {
        self.get(
            engine,
            INDEX_KEY,
            Box::new(move |e, r| {
                let index = |b: Vec<u8>| DirIndex::deserialize(&String::from_utf8_lossy(&b));
                cb(e, r.map(|blob| blob.map(index)));
            }),
        );
    }

    /// Whether the directory tree outlives this backend, so the core
    /// persists the index after every successful mutation. A store
    /// that answers `false` never pays for serializing it.
    fn keeps_index(&self) -> bool {
        true
    }

    /// Persist `image`, the serialized directory index. By default it
    /// becomes the blob under [`INDEX_KEY`].
    fn persist_index(&self, engine: &Engine, image: String, cb: FsCallback<()>) {
        self.put(engine, INDEX_KEY, image.into_bytes(), cb);
    }
}

/// The tree as the core knows it.
#[derive(Default)]
struct Tree {
    index: DirIndex,
    /// File sizes known without a fetch.
    sizes: HashMap<String, usize>,
    mtimes: HashMap<String, u64>,
}

/// What a write replaced, to put back if its put fails.
struct Undo {
    created: bool,
    size: Option<usize>,
    mtime: Option<u64>,
}

fn restore<V>(map: &mut HashMap<String, V>, key: &str, old: Option<V>) {
    match old {
        Some(v) => map.insert(key.to_string(), v),
        None => map.remove(key),
    };
}

impl Tree {
    /// Record a whole-file write of `len` bytes at `now`, ahead of its
    /// put. A directory is never written, even on a `read_only` store
    /// (as in `open`); anything else is `EROFS` there.
    fn record_write(
        &mut self,
        path: &str,
        len: usize,
        now: u64,
        read_only: bool,
    ) -> FsResult<Undo> {
        let created = match self.index.kind(path) {
            Some(FileKind::Directory) => return Err(FsError::new(Errno::Eisdir, path)),
            _ if read_only => return Err(FsError::new(Errno::Erofs, path)),
            Some(FileKind::File) => false,
            None => {
                self.index.insert_file(path)?;
                true
            }
        };
        Ok(Undo {
            created,
            size: self.sizes.insert(path.to_string(), len),
            mtime: self.mtimes.insert(path.to_string(), now),
        })
    }

    fn undo(&mut self, path: &str, undo: Undo) {
        if undo.created {
            let _ = self.index.remove_file(path);
        }
        restore(&mut self.sizes, path, undo.size);
        restore(&mut self.mtimes, path, undo.mtime);
    }

    /// Rename in the index, carrying each moved file's size and mtime.
    fn rename(&mut self, from: &str, to: &str) -> FsResult<Vec<(String, String)>> {
        let moved = self.index.rename(from, to)?;
        for (old, new) in &moved {
            if let Some(s) = self.sizes.remove(old) {
                self.sizes.insert(new.clone(), s);
            }
            if let Some(t) = self.mtimes.remove(old) {
                self.mtimes.insert(new.clone(), t);
            }
        }
        Ok(moved)
    }
}

/// A rename's blob moves still to do, shared by its loop and its store
/// callbacks.
struct Moves {
    left: std::vec::IntoIter<(String, String)>,
    cb: Option<FsCallback<()>>,
    crossed: bool,
    /// The loop is on the stack: a move that finishes inline hands
    /// control back to it (through `resume`) instead of recursing.
    looping: bool,
    resume: bool,
}

struct Core<S> {
    store: S,
    tree: RefCell<Tree>,
    /// Set while a store call is being issued: a callback that finds it
    /// set is answering inline.
    issuing: Cell<bool>,
}

impl<S: BlobStore + 'static> Core<S> {
    /// Issue one store call. `then` gets the answer and whether the
    /// operation has crossed the event loop by now.
    fn call<T: 'static>(
        self: &Rc<Self>,
        crossed: bool,
        issue: impl FnOnce(&S, FsCallback<T>),
        then: impl FnOnce(&Rc<Self>, &Engine, bool, FsResult<T>) + 'static,
    ) {
        let core = Rc::clone(self);
        let outer = self.issuing.replace(true);
        issue(
            &self.store,
            Box::new(move |e, r| {
                let crossed = crossed || !core.issuing.get();
                then(&core, e, crossed, r);
            }),
        );
        self.issuing.set(outer);
    }

    /// Deliver `result` to `cb` under the completion rule.
    fn answer<T: 'static>(
        &self,
        engine: &Engine,
        crossed: bool,
        payload: usize,
        cb: FsCallback<T>,
        result: FsResult<T>,
    ) {
        if crossed {
            cb(engine, result);
        } else {
            let kib = (payload as u64).div_ceil(1024);
            let latency = self.store.op_latency_ns() + self.store.ns_per_kib() * kib;
            deliver(engine, latency, cb, result);
        }
    }

    /// Finish a mutation: persist the index if it succeeded and the
    /// store keeps it, then answer.
    fn settle<T: 'static>(
        self: &Rc<Self>,
        engine: &Engine,
        crossed: bool,
        payload: usize,
        cb: FsCallback<T>,
        result: FsResult<T>,
    ) {
        let value = match result {
            Ok(value) if self.store.keeps_index() => value,
            done => return self.answer(engine, crossed, payload, cb, done),
        };
        let image = self.tree.borrow().index.serialize();
        self.call(
            crossed,
            |s, k| s.persist_index(engine, image, k),
            move |core, e, crossed, r| core.answer(e, crossed, payload, cb, r.map(|()| value)),
        );
    }

    fn read_only_guard(&self, path: &str) -> FsResult<()> {
        if self.store.is_read_only() {
            Err(FsError::new(Errno::Erofs, path))
        } else {
            Ok(())
        }
    }

    /// Store `data` as the whole of `path` (`sync`, and `open`'s
    /// create), answering `value` on success.
    fn write<T: 'static>(
        self: &Rc<Self>,
        engine: &Engine,
        path: &str,
        data: Vec<u8>,
        payload: usize,
        cb: FsCallback<T>,
        value: T,
    ) {
        let recorded = self.tree.borrow_mut().record_write(
            path,
            data.len(),
            engine.now_ns(),
            self.store.is_read_only(),
        );
        let undo = match recorded {
            Ok(undo) => undo,
            Err(err) => return self.answer(engine, false, payload, cb, Err(err)),
        };
        let owned = path.to_string();
        self.call(
            false,
            |s, k| s.put(engine, path, data, k),
            move |core, e, crossed, r| {
                match &r {
                    // An inline put has charged its cost by now.
                    Ok(()) if !crossed => {
                        core.tree.borrow_mut().mtimes.insert(owned, e.now_ns());
                    }
                    Ok(()) => {}
                    Err(_) => core.tree.borrow_mut().undo(&owned, undo),
                }
                core.settle(e, crossed, payload, cb, r.map(|()| value));
            },
        );
    }

    /// Move one renamed file's blob: get, put, delete.
    fn move_blob(
        self: &Rc<Self>,
        engine: &Engine,
        crossed: bool,
        (old, new): (String, String),
        done: impl FnOnce(&Rc<Self>, &Engine, bool, FsResult<()>) + 'static,
    ) {
        let key = old.clone();
        self.call(
            crossed,
            move |s, k| s.get(engine, &key, k),
            move |core, e, crossed, r| match r {
                Ok(Some(data)) => core.call(
                    crossed,
                    |s, k| s.put(e, &new, data, k),
                    move |core, e, crossed, r| match r {
                        Ok(()) => core.call(crossed, |s, k| s.delete(e, &old, k), done),
                        Err(err) => done(core, e, crossed, Err(err)),
                    },
                ),
                Ok(None) => done(core, e, crossed, Ok(())),
                Err(err) => done(core, e, crossed, Err(err)),
            },
        );
    }

    /// Move every renamed blob in order, then persist and answer. Moves
    /// that finish inline continue this loop, so renaming a large
    /// subtree on an in-process store does not deepen the stack.
    fn move_blobs(self: &Rc<Self>, engine: &Engine, moves: Rc<RefCell<Moves>>) {
        moves.borrow_mut().looping = true;
        loop {
            let (next, crossed) = {
                let m = &mut *moves.borrow_mut();
                (m.left.next(), m.crossed)
            };
            let Some(pair) = next else {
                if let Some(cb) = moves.borrow_mut().cb.take() {
                    self.settle(engine, crossed, 0, cb, Ok(()));
                }
                return;
            };
            let m = moves.clone();
            self.move_blob(engine, crossed, pair, move |core, e, crossed, r| {
                let mut st = m.borrow_mut();
                st.crossed = crossed;
                match r {
                    Err(err) => {
                        let cb = st.cb.take();
                        drop(st);
                        if let Some(cb) = cb {
                            core.answer(e, crossed, 0, cb, Err(err));
                        }
                    }
                    Ok(()) if st.looping => st.resume = true,
                    Ok(()) => {
                        drop(st);
                        core.move_blobs(e, m);
                    }
                }
            });
            let mut st = moves.borrow_mut();
            if !std::mem::take(&mut st.resume) {
                st.looping = false;
                return;
            }
        }
    }
}

/// A full [`Backend`] over any [`BlobStore`].
pub struct BlobBackend<S: BlobStore + 'static> {
    core: Rc<Core<S>>,
}

impl<S: BlobStore + 'static> BlobBackend<S> {
    /// A backend over `store` holding only the root directory;
    /// [`hydrate`](Self::hydrate) loads a persisted tree.
    pub fn empty(store: S) -> BlobBackend<S> {
        BlobBackend {
            core: Rc::new(Core {
                store,
                tree: RefCell::default(),
                issuing: Cell::new(false),
            }),
        }
    }

    /// A backend over `store` that restores the tree the store
    /// persisted. An in-process store restores it before this returns.
    pub fn new(engine: &Engine, store: S) -> BlobBackend<S> {
        let backend = BlobBackend::empty(store);
        backend.hydrate(engine, Box::new(|_, _| {}));
        backend
    }

    /// Load the persisted directory index from the store (for example
    /// a client attaching to a cluster that already holds data). The
    /// store's answer is handed on as it arrives, inline for an
    /// in-process store. Completes with `Ok` when no index was ever
    /// persisted (the tree stays as it is).
    pub fn hydrate(&self, engine: &Engine, cb: FsCallback<()>) {
        let core = self.core.clone();
        self.core.store.load_index(
            engine,
            Box::new(move |e, r| {
                let r = r.map(|index| {
                    if let Some(index) = index {
                        core.tree.borrow_mut().index = index;
                    }
                });
                cb(e, r);
            }),
        );
    }
}

impl<S: BlobStore + 'static> Backend for BlobBackend<S> {
    fn name(&self) -> &'static str {
        self.core.store.name()
    }

    fn is_read_only(&self) -> bool {
        self.core.store.is_read_only()
    }

    fn stat(&self, engine: &Engine, path: &str, cb: FsCallback<Stat>) {
        let core = &self.core;
        let (kind, size, mtime_ns) = {
            let t = core.tree.borrow();
            let mtime_ns = t.mtimes.get(path).copied().unwrap_or(0);
            (t.index.kind(path), t.sizes.get(path).copied(), mtime_ns)
        };
        let stat = move |kind, size| Stat {
            kind,
            size,
            mtime_ns,
        };
        let known = match (kind, size) {
            (None, _) => Err(FsError::new(Errno::Enoent, path)),
            (Some(FileKind::Directory), _) => Ok(stat(FileKind::Directory, 0)),
            (Some(FileKind::File), Some(size)) => Ok(stat(FileKind::File, size)),
            (Some(FileKind::File), None) => {
                // Size unknown (a restored index): fetch the blob.
                let key = path.to_string();
                return core.call(
                    false,
                    |s, k| s.get(engine, path, k),
                    move |core, e, crossed, r| {
                        let r = r.map(|data| {
                            let size = data.map_or(0, |d| d.len());
                            core.tree.borrow_mut().sizes.insert(key, size);
                            stat(FileKind::File, size)
                        });
                        core.answer(e, crossed, 0, cb, r);
                    },
                );
            }
        };
        core.answer(engine, false, 0, cb, known);
    }

    fn open(&self, engine: &Engine, path: &str, flags: OpenFlags, cb: FsCallback<Vec<u8>>) {
        let core = &self.core;
        let kind = core.tree.borrow().index.kind(path);
        let local = match kind {
            Some(FileKind::Directory) => Err(FsError::new(Errno::Eisdir, path)),
            Some(FileKind::File) if flags.exclusive => Err(FsError::new(Errno::Eexist, path)),
            // Truncation is recorded locally; the empty image lands at
            // sync time.
            Some(FileKind::File) if flags.truncate => core.read_only_guard(path).map(|()| {
                core.tree.borrow_mut().sizes.insert(path.to_string(), 0);
                Vec::new()
            }),
            Some(FileKind::File) => {
                let key = path.to_string();
                return core.call(
                    false,
                    |s, k| s.get(engine, path, k),
                    move |core, e, crossed, r| {
                        let r = match r {
                            Ok(Some(data)) => {
                                core.tree.borrow_mut().sizes.insert(key, data.len());
                                Ok(data)
                            }
                            Ok(None) => Err(FsError::new(Errno::Eio, key)),
                            Err(err) => Err(err),
                        };
                        let payload = r.as_ref().map_or(0, Vec::len);
                        core.answer(e, crossed, payload, cb, r);
                    },
                );
            }
            None if !flags.create => Err(FsError::new(Errno::Enoent, path)),
            None => return core.write(engine, path, Vec::new(), 0, cb, Vec::new()),
        };
        core.answer(engine, false, 0, cb, local);
    }

    fn sync(&self, engine: &Engine, path: &str, data: Vec<u8>, cb: FsCallback<()>) {
        let payload = data.len();
        self.core.write(engine, path, data, payload, cb, ());
    }

    fn close(&self, engine: &Engine, _path: &str, cb: FsCallback<()>) {
        deliver(engine, 1_000, cb, Ok(()));
    }

    fn rename(&self, engine: &Engine, from: &str, to: &str, cb: FsCallback<()>) {
        let core = &self.core;
        let moved = core
            .read_only_guard(from)
            .and_then(|()| core.tree.borrow_mut().rename(from, to));
        match moved {
            Err(err) => core.answer(engine, false, 0, cb, Err(err)),
            Ok(moved) => {
                let moves = Moves {
                    left: moved.into_iter(),
                    cb: Some(cb),
                    crossed: false,
                    looping: false,
                    resume: false,
                };
                core.move_blobs(engine, Rc::new(RefCell::new(moves)));
            }
        }
    }

    fn unlink(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        let core = &self.core;
        let removed = core.read_only_guard(path).and_then(|()| {
            let t = &mut *core.tree.borrow_mut();
            t.index.remove_file(path)?;
            t.sizes.remove(path);
            t.mtimes.remove(path);
            Ok(())
        });
        match removed {
            Err(err) => core.answer(engine, false, 0, cb, Err(err)),
            Ok(()) => core.call(
                false,
                |s, k| s.delete(engine, path, k),
                move |core, e, crossed, r| core.settle(e, crossed, 0, cb, r),
            ),
        }
    }

    fn mkdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        let core = &self.core;
        let made = core.read_only_guard(path).and_then(|()| {
            let t = &mut *core.tree.borrow_mut();
            t.index.insert_dir(path)?;
            t.mtimes.insert(path.to_string(), engine.now_ns());
            Ok(())
        });
        core.settle(engine, false, 0, cb, made);
    }

    fn rmdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        let core = &self.core;
        let removed = core.read_only_guard(path).and_then(|()| {
            let t = &mut *core.tree.borrow_mut();
            t.index.remove_dir(path)?;
            t.mtimes.remove(path);
            Ok(())
        });
        core.settle(engine, false, 0, cb, removed);
    }

    fn readdir(&self, engine: &Engine, path: &str, cb: FsCallback<Vec<String>>) {
        let names = self.core.tree.borrow().index.list(path);
        self.core.answer(engine, false, 0, cb, names);
    }

    fn utimes(&self, engine: &Engine, path: &str, mtime_ns: u64, cb: FsCallback<()>) {
        let touched = {
            let t = &mut *self.core.tree.borrow_mut();
            if t.index.contains(path) {
                t.mtimes.insert(path.to_string(), mtime_ns);
                Ok(())
            } else {
                Err(FsError::new(Errno::Enoent, path))
            }
        };
        self.core.answer(engine, false, 0, cb, touched);
    }
}

// ----------------------------------------------------------------
// In-process stores: each answers inline
// ----------------------------------------------------------------

/// Charge reading `len` bytes into a buffer. The read buffer is a typed
/// array (§7.1: "DOPPIO's file system implementation makes heavy use of
/// typed arrays"), or a plain array on browsers without them; on Safari
/// the matching free is ignored and the buffer stays resident — the
/// leak behind javap's pathology.
fn charge_read(engine: &Engine, len: usize) {
    if engine.profile().has_typed_arrays {
        engine.typed_array_alloc(len);
        engine.typed_array_free(len);
        engine.charge_n(Cost::TypedArrayByte, len as u64);
    } else {
        engine.charge_n(Cost::JsArrayByte, len as u64);
    }
}

/// Temporary in-memory storage: fast, lost on reload.
#[derive(Debug, Default)]
pub struct MemoryStore {
    blobs: RefCell<HashMap<String, Vec<u8>>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }
}

impl BlobStore for MemoryStore {
    fn name(&self) -> &'static str {
        "InMemory"
    }

    fn op_latency_ns(&self) -> u64 {
        1_200
    }

    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
        let data = self.blobs.borrow().get(key).cloned();
        if let Some(d) = &data {
            charge_read(engine, d.len());
        }
        cb(engine, Ok(data));
    }

    fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>) {
        engine.charge_n(Cost::TypedArrayByte, data.len() as u64);
        self.blobs.borrow_mut().insert(key.to_string(), data);
        cb(engine, Ok(()));
    }

    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
        self.blobs.borrow_mut().remove(key);
        cb(engine, Ok(()));
    }

    /// Nothing here survives a reload.
    fn keeps_index(&self) -> bool {
        false
    }
}

/// Browser-local persistent storage over `localStorage`: binary data
/// crosses the Buffer binary-string bridge, and the 5 MB quota
/// surfaces as `ENOSPC`.
#[derive(Debug, Default)]
pub struct LocalStorageStore {
    _priv: (),
}

const LS_INDEX_KEY: &str = "doppio-fs-index";

impl LocalStorageStore {
    /// A store over the engine's localStorage.
    pub fn new() -> LocalStorageStore {
        LocalStorageStore::default()
    }

    fn key(path: &str) -> String {
        format!("doppio-file:{path}")
    }

    /// Run `f` on the engine's localStorage, mapping its errors for `key`.
    fn with<R>(
        engine: &Engine,
        key: &str,
        f: impl FnOnce(&mut KvStore, &'static str) -> EngineResult<R>,
    ) -> FsResult<R> {
        let browser = engine.profile().browser.name();
        engine
            .with_storage(|s, _| f(s.sync_store(SyncMechanism::LocalStorage), browser))
            .map_err(|e| {
                let errno = match e {
                    EngineError::QuotaExceeded { .. } => Errno::Enospc,
                    _ => Errno::Eio,
                };
                FsError::new(errno, key).with_detail(e.to_string())
            })
    }

    fn read(engine: &Engine, key: &str) -> FsResult<Option<Vec<u8>>> {
        let Some(js) = Self::with(engine, key, |s, b| s.get_item_js(b, &Self::key(key)))? else {
            return Ok(None);
        };
        let buf = Buffer::from_js_string(engine, Encoding::BinaryString, &js)
            .map_err(|e| FsError::new(Errno::Eio, key).with_detail(e.to_string()))?;
        Ok(Some(buf.as_slice().to_vec()))
    }

    fn write(engine: &Engine, key: &str, data: &[u8]) -> FsResult<()> {
        let js = Buffer::from_slice(engine, data)
            .to_js_string_full(Encoding::BinaryString)
            .map_err(|e| FsError::new(Errno::Eio, key).with_detail(e.to_string()))?;
        Self::with(engine, key, |s, b| s.set_item_js(b, &Self::key(key), js))
    }
}

impl BlobStore for LocalStorageStore {
    fn name(&self) -> &'static str {
        "LocalStorage"
    }

    fn op_latency_ns(&self) -> u64 {
        25_000
    }

    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
        cb(engine, Self::read(engine, key));
    }

    fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>) {
        cb(engine, Self::write(engine, key, &data));
    }

    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
        let removed = Self::with(engine, key, |s, b| s.remove_item(b, &Self::key(key)));
        cb(engine, removed);
    }

    /// The index lives under its own key, as plain text.
    fn load_index(&self, engine: &Engine, cb: FsCallback<Option<DirIndex>>) {
        let text = Self::with(engine, LS_INDEX_KEY, |s, b| s.get_item(b, LS_INDEX_KEY));
        let index = text.ok().flatten().map(|t| DirIndex::deserialize(&t));
        cb(engine, Ok(index));
    }

    fn persist_index(&self, engine: &Engine, image: String, cb: FsCallback<()>) {
        let set = Self::with(engine, LS_INDEX_KEY, |s, b| {
            s.set_item(b, LS_INDEX_KEY, &image)
        });
        cb(engine, set);
    }
}

/// Read-only access to files served by the web server, downloaded on
/// demand (DoppioJVM's class loader runs on this: "the file system
/// backend launches an asynchronous download request for the particular
/// file", §6.4).
#[derive(Debug)]
pub struct XhrStore {
    files: BTreeMap<String, Vec<u8>>,
    rtt_ns: u64,
    ns_per_kib: u64,
}

impl XhrStore {
    /// A server store over `files` with default 2013-era latencies
    /// (~3 ms request RTT, ~30 MB/s transfer).
    pub fn new(files: BTreeMap<String, Vec<u8>>) -> XhrStore {
        XhrStore::with_network(files, 3_000_000, 32_000)
    }

    /// A server store with an explicit network model.
    pub fn with_network(
        files: BTreeMap<String, Vec<u8>>,
        rtt_ns: u64,
        ns_per_kib: u64,
    ) -> XhrStore {
        XhrStore {
            files,
            rtt_ns,
            ns_per_kib,
        }
    }
}

impl BlobStore for XhrStore {
    fn name(&self) -> &'static str {
        "XmlHttpRequest"
    }

    fn is_read_only(&self) -> bool {
        true
    }

    fn op_latency_ns(&self) -> u64 {
        self.rtt_ns
    }

    fn ns_per_kib(&self) -> u64 {
        self.ns_per_kib
    }

    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
        let data = self.files.get(key).cloned();
        if let Some(d) = &data {
            charge_read(engine, d.len());
        }
        cb(engine, Ok(data));
    }

    fn put(&self, engine: &Engine, key: &str, _data: Vec<u8>, cb: FsCallback<()>) {
        cb(engine, Err(FsError::new(Errno::Erofs, key)));
    }

    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
        cb(engine, Err(FsError::new(Errno::Erofs, key)));
    }

    /// The tree is the server's listing.
    fn load_index(&self, engine: &Engine, cb: FsCallback<Option<DirIndex>>) {
        let listing = DirIndex::from_file_paths(self.files.keys().map(String::as_str));
        cb(engine, Ok(Some(listing)));
    }
}

/// Dropbox cloud storage: read-write, but every operation pays a cloud
/// round trip. Clones share one account, so a second backend over a
/// clone sees what the first one stored (a page reload).
#[derive(Debug, Clone)]
pub struct DropboxStore {
    blobs: Rc<RefCell<HashMap<String, Vec<u8>>>>,
    rtt_ns: u64,
    ns_per_kib: u64,
}

impl DropboxStore {
    /// An empty cloud store with default latencies (~40 ms RTT,
    /// ~8 MB/s transfer).
    pub fn new() -> DropboxStore {
        DropboxStore::with_network(40_000_000, 128_000)
    }

    /// A cloud store with an explicit network model.
    pub fn with_network(rtt_ns: u64, ns_per_kib: u64) -> DropboxStore {
        DropboxStore {
            blobs: Rc::default(),
            rtt_ns,
            ns_per_kib,
        }
    }
}

impl Default for DropboxStore {
    fn default() -> Self {
        DropboxStore::new()
    }
}

impl BlobStore for DropboxStore {
    fn name(&self) -> &'static str {
        "Dropbox"
    }

    fn op_latency_ns(&self) -> u64 {
        self.rtt_ns
    }

    fn ns_per_kib(&self) -> u64 {
        self.ns_per_kib
    }

    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
        let data = self.blobs.borrow().get(key).cloned();
        cb(engine, Ok(data));
    }

    fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>) {
        self.blobs.borrow_mut().insert(key.to_string(), data);
        cb(engine, Ok(()));
    }

    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
        self.blobs.borrow_mut().remove(key);
        cb(engine, Ok(()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::local_storage;
    use doppio_jsengine::Browser;

    /// An in-memory store that counts how often the index is persisted.
    struct CountingStore {
        blobs: MemoryStore,
        read_only: bool,
        persists: Rc<Cell<usize>>,
    }

    impl BlobStore for CountingStore {
        fn name(&self) -> &'static str {
            "Counting"
        }

        fn is_read_only(&self) -> bool {
            self.read_only
        }

        fn op_latency_ns(&self) -> u64 {
            1_000
        }

        fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
            self.blobs.get(engine, key, cb)
        }

        fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>) {
            self.blobs.put(engine, key, data, cb)
        }

        fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
            self.blobs.delete(engine, key, cb)
        }

        fn persist_index(&self, engine: &Engine, _image: String, cb: FsCallback<()>) {
            self.persists.set(self.persists.get() + 1);
            cb(engine, Ok(()));
        }
    }

    fn counting(engine: &Engine, read_only: bool) -> (BlobBackend<CountingStore>, Rc<Cell<usize>>) {
        let persists = Rc::new(Cell::new(0));
        let store = CountingStore {
            blobs: MemoryStore::new(),
            read_only,
            persists: persists.clone(),
        };
        (BlobBackend::new(engine, store), persists)
    }

    /// An out-of-process store: the blob map behind one event-loop hop,
    /// standing in for the replicated cluster.
    type Blobs = Rc<RefCell<BTreeMap<String, Vec<u8>>>>;

    struct LoopbackStore {
        blobs: Blobs,
    }

    impl BlobStore for LoopbackStore {
        fn name(&self) -> &'static str {
            "Loopback"
        }

        fn op_latency_ns(&self) -> u64 {
            1_200
        }

        fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
            let data = self.blobs.borrow().get(key).cloned();
            deliver(engine, 5_000, cb, Ok(data));
        }

        fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>) {
            self.blobs.borrow_mut().insert(key.to_string(), data);
            deliver(engine, 5_000, cb, Ok(()));
        }

        fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
            self.blobs.borrow_mut().remove(key);
            deliver(engine, 5_000, cb, Ok(()));
        }
    }

    fn loopback() -> (BlobBackend<LoopbackStore>, Blobs) {
        let blobs = Blobs::default();
        let store = LoopbackStore {
            blobs: blobs.clone(),
        };
        (BlobBackend::empty(store), blobs)
    }

    /// Run one backend operation to completion.
    fn run<T: 'static>(engine: &Engine, op: impl FnOnce(FsCallback<T>)) -> FsResult<T> {
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        op(Box::new(move |_, r| *o.borrow_mut() = Some(r)));
        engine.run_until_idle();
        let result = out.borrow_mut().take();
        result.expect("operation did not complete")
    }

    fn errno<T>(r: FsResult<T>) -> Errno {
        r.err().expect("operation should fail").errno
    }

    fn flags(f: &str) -> OpenFlags {
        OpenFlags::parse(f).unwrap()
    }

    #[test]
    fn persist_index_runs_once_per_successful_mutation_only() {
        let e = &Engine::new(Browser::Chrome);
        let (b, persists) = counting(e, false);
        let persisted = |n: usize| assert_eq!(persists.replace(0), n);

        run(e, |cb| b.mkdir(e, "/d", cb)).unwrap();
        persisted(1);
        run(e, |cb| b.open(e, "/d/f", flags("w"), cb)).unwrap();
        persisted(1);
        run(e, |cb| b.sync(e, "/d/f", b"hi".to_vec(), cb)).unwrap();
        persisted(1);
        run(e, |cb| b.rename(e, "/d/f", "/d/g", cb)).unwrap();
        persisted(1);

        // Reads leave the index alone.
        run(e, |cb| b.stat(e, "/d/g", cb)).unwrap();
        run(e, |cb| b.open(e, "/d/g", flags("r"), cb)).unwrap();
        run(e, |cb| b.readdir(e, "/d", cb)).unwrap();
        persisted(0);

        // Failed mutations persist nothing.
        assert_eq!(errno(run(e, |cb| b.mkdir(e, "/d", cb))), Errno::Eexist);
        let exclusive = run(e, |cb| b.open(e, "/d/g", flags("wx"), cb));
        assert_eq!(errno(exclusive), Errno::Eexist);
        assert_eq!(errno(run(e, |cb| b.unlink(e, "/nope", cb))), Errno::Enoent);
        let rename = run(e, |cb| b.rename(e, "/nope", "/x", cb));
        assert_eq!(errno(rename), Errno::Enoent);
        let sync = run(e, |cb| b.sync(e, "/nope/x", vec![1], cb));
        assert_eq!(errno(sync), Errno::Enoent);
        assert_eq!(errno(run(e, |cb| b.rmdir(e, "/d", cb))), Errno::Enotempty);
        persisted(0);

        run(e, |cb| b.unlink(e, "/d/g", cb)).unwrap();
        persisted(1);
        run(e, |cb| b.rmdir(e, "/d", cb)).unwrap();
        persisted(1);
    }

    #[test]
    fn read_only_store_never_persists_the_index() {
        let e = &Engine::new(Browser::Chrome);
        let (b, persists) = counting(e, true);
        assert_eq!(errno(run(e, |cb| b.mkdir(e, "/d", cb))), Errno::Erofs);
        let create = run(e, |cb| b.open(e, "/f", flags("w"), cb));
        assert_eq!(errno(create), Errno::Erofs);
        let sync = run(e, |cb| b.sync(e, "/f", vec![1], cb));
        assert_eq!(errno(sync), Errno::Erofs);
        assert_eq!(errno(run(e, |cb| b.unlink(e, "/f", cb))), Errno::Erofs);
        let rename = run(e, |cb| b.rename(e, "/f", "/g", cb));
        assert_eq!(errno(rename), Errno::Erofs);
        assert_eq!(errno(run(e, |cb| b.rmdir(e, "/d", cb))), Errno::Erofs);
        assert_eq!(persists.get(), 0);
    }

    #[test]
    fn local_storage_persists_the_exact_index_string() {
        let e = &Engine::new(Browser::Chrome);
        let b = local_storage(e);
        run(e, |cb| b.mkdir(e, "/a", cb)).unwrap();
        run(e, |cb| b.sync(e, "/a/b.txt", b"x".to_vec(), cb)).unwrap();
        run(e, |cb| b.sync(e, "/a-b", b"y".to_vec(), cb)).unwrap();
        run(e, |cb| b.mkdir(e, "/a/c", cb)).unwrap();
        run(e, |cb| b.rename(e, "/a/b.txt", "/a/c/b.txt", cb)).unwrap();
        run(e, |cb| b.sync(e, "/z", b"z".to_vec(), cb)).unwrap();
        run(e, |cb| b.unlink(e, "/z", cb)).unwrap();

        let browser = e.profile().browser.name();
        let persisted = e
            .with_storage(|s, _| {
                s.sync_store(SyncMechanism::LocalStorage)
                    .get_item(browser, LS_INDEX_KEY)
            })
            .unwrap();
        assert_eq!(persisted.as_deref(), Some("D/a\nF/a-b\nD/a/c\nF/a/c/b.txt"));

        // A reload restores the same tree from that string.
        let reloaded = local_storage(e);
        assert_eq!(run(e, |cb| reloaded.readdir(e, "/a", cb)).unwrap(), ["c"]);
    }

    #[test]
    fn a_failed_store_write_leaves_no_phantom_file() {
        let e = &Engine::new(Browser::Chrome);
        let b = local_storage(e);
        run(e, |cb| b.sync(e, "/kept", b"old".to_vec(), cb)).unwrap();
        let too_big = vec![7u8; 6 << 20];
        let sync = run(e, |cb| b.sync(e, "/new", too_big.clone(), cb));
        assert_eq!(errno(sync), Errno::Enospc);
        assert_eq!(errno(run(e, |cb| b.stat(e, "/new", cb))), Errno::Enoent);
        let open = run(e, |cb| b.open(e, "/new", flags("r"), cb));
        assert_eq!(errno(open), Errno::Enoent);
        assert_eq!(run(e, |cb| b.readdir(e, "/", cb)).unwrap(), ["kept"]);
        let reloaded = local_storage(e);
        assert_eq!(run(e, |cb| reloaded.readdir(e, "/", cb)).unwrap(), ["kept"]);

        // A failed overwrite keeps the old contents and their size.
        let sync = run(e, |cb| b.sync(e, "/kept", too_big, cb));
        assert_eq!(errno(sync), Errno::Enospc);
        assert_eq!(run(e, |cb| b.stat(e, "/kept", cb)).unwrap().size, 3);
        let read = run(e, |cb| b.open(e, "/kept", flags("r"), cb)).unwrap();
        assert_eq!(read, b"old");
    }

    #[test]
    fn renaming_a_large_subtree_inline_keeps_the_stack_flat() {
        let e = &Engine::new(Browser::Chrome);
        let b = BlobBackend::new(e, MemoryStore::new());
        run(e, |cb| b.mkdir(e, "/big", cb)).unwrap();
        for i in 0..20_000 {
            let path = format!("/big/f{i}");
            b.sync(e, &path, vec![1], Box::new(|_, r| r.unwrap()));
        }
        e.run_until_idle();
        run(e, |cb| b.rename(e, "/big", "/moved", cb)).unwrap();
        let names = run(e, |cb| b.readdir(e, "/moved", cb)).unwrap();
        assert_eq!(names.len(), 20_000);
        let data = run(e, |cb| b.open(e, "/moved/f19999", flags("r"), cb)).unwrap();
        assert_eq!(data, [1]);
    }

    #[test]
    fn whole_file_round_trip_and_index_persistence() {
        let e = &Engine::new(Browser::Chrome);
        let (be, blobs) = loopback();

        run(e, |cb| be.mkdir(e, "/d", cb)).unwrap();
        run(e, |cb| be.open(e, "/d/f", flags("w"), cb)).unwrap();
        run(e, |cb| be.sync(e, "/d/f", b"hello".to_vec(), cb)).unwrap();
        let data = run(e, |cb| be.open(e, "/d/f", flags("r"), cb)).unwrap();
        assert_eq!(data, b"hello");
        // The index is persisted as an object alongside the blobs.
        assert!(blobs.borrow().contains_key(INDEX_KEY));
        assert_eq!(blobs.borrow().get("/d/f").unwrap(), b"hello");

        // A fresh backend hydrates the persisted tree; sizes are fetched.
        let be2 = BlobBackend::empty(LoopbackStore {
            blobs: blobs.clone(),
        });
        run(e, |cb| be2.hydrate(e, cb)).unwrap();
        let st = run(e, |cb| be2.stat(e, "/d/f", cb)).unwrap();
        assert!(st.is_file());
        assert_eq!(st.size, 5);
        assert_eq!(run(e, |cb| be2.readdir(e, "/d", cb)).unwrap(), ["f"]);
    }

    #[test]
    fn remote_answers_are_handed_on_and_index_answers_wait_the_store_latency() {
        let e = &Engine::new(Browser::Chrome);
        let (be, _) = loopback();
        let elapsed = |op: &dyn Fn(FsCallback<()>)| {
            let start = e.now_ns();
            let done = Rc::new(Cell::new(0));
            let d = done.clone();
            op(Box::new(move |e, _| d.set(e.now_ns())));
            e.run_until_idle();
            done.get() - start
        };
        // Index only: one event, after the store's 1.2 µs latency.
        let local = elapsed(&|cb| be.utimes(e, "/", 1, cb));
        // One remote put (the index): handed on from the store's own
        // 5 µs event, with no second hop.
        let remote = elapsed(&|cb| be.mkdir(e, "/d", cb));
        let dispatch = local - 1_200;
        assert_eq!(remote, 5_000 + dispatch);
    }

    #[test]
    fn rename_moves_blobs_and_subtrees() {
        let e = &Engine::new(Browser::Chrome);
        let (be, blobs) = loopback();
        run(e, |cb| be.mkdir(e, "/a", cb)).unwrap();
        run(e, |cb| be.sync(e, "/a/x", b"1".to_vec(), cb)).unwrap();
        run(e, |cb| be.sync(e, "/a/y", b"2".to_vec(), cb)).unwrap();
        run(e, |cb| be.rename(e, "/a", "/b", cb)).unwrap();
        assert_eq!(run(e, |cb| be.readdir(e, "/b", cb)).unwrap(), ["x", "y"]);
        assert!(blobs.borrow().get("/a/x").is_none());
        assert_eq!(blobs.borrow().get("/b/x").unwrap(), b"1");
        let data = run(e, |cb| be.open(e, "/b/y", flags("r"), cb)).unwrap();
        assert_eq!(data, b"2");
    }
}
