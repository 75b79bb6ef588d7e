//! The generic blob-store backend and its four concrete stores.
//!
//! §5.1's utility classes make writing a backend cheap: the directory
//! index, the load-whole-file/sync-on-close file model, and the Buffer
//! string bridge are shared. [`BlobBackend`] packages those utilities
//! around a [`BlobStore`] — the only part each storage mechanism has to
//! provide. The paper's five backends map to:
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
//! (The fifth, the mountable file system, composes backends and lives
//! in [`mount`](crate::backends::mount).)

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use doppio_buffer::{Buffer, Encoding};
use doppio_jsengine::storage::SyncMechanism;
use doppio_jsengine::{Cost, Engine, EngineError};

use crate::backend::{deliver, Backend, DirIndex, FileKind, FsCallback, OpenFlags, Stat};
use crate::backends::replicated::INDEX_KEY;
use crate::error::{Errno, FsError, FsResult};

/// The storage mechanism under a [`BlobBackend`]: where file contents
/// live and what moving them costs.
pub trait BlobStore {
    /// Name for diagnostics.
    fn name(&self) -> &'static str;

    /// Whether writes are rejected (`EROFS`).
    fn is_read_only(&self) -> bool {
        false
    }

    /// Fixed virtual latency per operation.
    fn op_latency_ns(&self) -> u64;

    /// Additional virtual latency per KiB transferred (bandwidth).
    fn ns_per_kib(&self) -> u64 {
        0
    }

    /// Fetch the blob at `key`.
    fn get(&mut self, engine: &Engine, key: &str) -> FsResult<Option<Vec<u8>>>;

    /// Store the blob at `key`.
    fn put(&mut self, engine: &Engine, key: &str, data: &[u8]) -> FsResult<()>;

    /// Remove the blob at `key` (missing is fine).
    fn delete(&mut self, engine: &Engine, key: &str) -> FsResult<()>;

    /// Persist the directory index after a successful mutation (no-op
    /// for stores whose structure is not durable). Stores that keep the
    /// index serialize it here, so the others never pay for it.
    fn persist_index(&mut self, _engine: &Engine, _index: &DirIndex) -> FsResult<()> {
        Ok(())
    }

    /// Load a previously persisted index, if one exists.
    fn load_index(&mut self, _engine: &Engine) -> Option<String> {
        None
    }
}

struct BlobState<S> {
    store: S,
    index: DirIndex,
    sizes: HashMap<String, usize>,
    mtimes: HashMap<String, u64>,
}

/// A full [`Backend`] implementation over any [`BlobStore`].
pub struct BlobBackend<S: BlobStore> {
    state: RefCell<BlobState<S>>,
}

impl<S: BlobStore> BlobBackend<S> {
    /// Wrap a store, restoring its persisted index if it has one.
    pub fn new(engine: &Engine, mut store: S) -> BlobBackend<S> {
        let index = match store.load_index(engine) {
            Some(s) => DirIndex::deserialize(&s),
            None => DirIndex::new(),
        };
        // Restore sizes lazily: stat() falls back to a get().
        BlobBackend {
            state: RefCell::new(BlobState {
                store,
                index,
                sizes: HashMap::new(),
                mtimes: HashMap::new(),
            }),
        }
    }

    /// Pre-populate with an index built elsewhere (the server-backed
    /// store derives its listing from the web server).
    pub fn with_index(engine: &Engine, store: S, index: DirIndex) -> BlobBackend<S> {
        let b = BlobBackend::new(engine, store);
        b.state.borrow_mut().index = index;
        b
    }

    fn latency(&self, bytes: usize) -> u64 {
        let st = self.state.borrow();
        st.store.op_latency_ns() + st.store.ns_per_kib() * (bytes as u64).div_ceil(1024)
    }

    fn persist(&self, engine: &Engine) -> FsResult<()> {
        let st = &mut *self.state.borrow_mut();
        st.store.persist_index(engine, &st.index)
    }

    fn write_guard(&self, path: &str) -> FsResult<()> {
        if self.state.borrow().store.is_read_only() {
            Err(FsError::new(Errno::Erofs, path))
        } else {
            Ok(())
        }
    }
}

impl<S: BlobStore> Backend for BlobBackend<S> {
    fn name(&self) -> &'static str {
        self.state.borrow().store.name()
    }

    fn is_read_only(&self) -> bool {
        self.state.borrow().store.is_read_only()
    }

    fn stat(&self, engine: &Engine, path: &str, cb: FsCallback<Stat>) {
        let result = (|| {
            let mut st = self.state.borrow_mut();
            match st.index.kind(path) {
                None => Err(FsError::new(Errno::Enoent, path)),
                Some(FileKind::Directory) => Ok(Stat {
                    kind: FileKind::Directory,
                    size: 0,
                    mtime_ns: st.mtimes.get(path).copied().unwrap_or(0),
                }),
                Some(FileKind::File) => {
                    let size = match st.sizes.get(path) {
                        Some(&s) => s,
                        None => {
                            let data = st.store.get(engine, path)?.unwrap_or_default();
                            let s = data.len();
                            st.sizes.insert(path.to_string(), s);
                            s
                        }
                    };
                    Ok(Stat {
                        kind: FileKind::File,
                        size,
                        mtime_ns: st.mtimes.get(path).copied().unwrap_or(0),
                    })
                }
            }
        })();
        deliver(engine, self.latency(0), cb, result);
    }

    fn open(&self, engine: &Engine, path: &str, flags: OpenFlags, cb: FsCallback<Vec<u8>>) {
        let result = (|| {
            let mut st = self.state.borrow_mut();
            match st.index.kind(path) {
                Some(FileKind::Directory) => Err(FsError::new(Errno::Eisdir, path)),
                Some(FileKind::File) => {
                    if flags.exclusive {
                        return Err(FsError::new(Errno::Eexist, path));
                    }
                    if flags.truncate {
                        if st.store.is_read_only() {
                            return Err(FsError::new(Errno::Erofs, path));
                        }
                        st.sizes.insert(path.to_string(), 0);
                        Ok(Vec::new())
                    } else {
                        let data = st
                            .store
                            .get(engine, path)?
                            .ok_or_else(|| FsError::new(Errno::Eio, path))?;
                        st.sizes.insert(path.to_string(), data.len());
                        Ok(data)
                    }
                }
                None => {
                    if !flags.create {
                        return Err(FsError::new(Errno::Enoent, path));
                    }
                    if st.store.is_read_only() {
                        return Err(FsError::new(Errno::Erofs, path));
                    }
                    st.index.insert_file(path)?;
                    st.store.put(engine, path, &[])?;
                    st.sizes.insert(path.to_string(), 0);
                    st.mtimes.insert(path.to_string(), engine.now_ns());
                    drop(st);
                    self.persist(engine)?;
                    Ok(Vec::new())
                }
            }
        })();
        let bytes = result.as_ref().map(Vec::len).unwrap_or(0);
        deliver(engine, self.latency(bytes), cb, result);
    }

    fn sync(&self, engine: &Engine, path: &str, data: Vec<u8>, cb: FsCallback<()>) {
        let bytes = data.len();
        let result = (|| {
            self.write_guard(path)?;
            let mut st = self.state.borrow_mut();
            if !st.index.contains(path) {
                st.index.insert_file(path)?;
            }
            st.store.put(engine, path, &data)?;
            st.sizes.insert(path.to_string(), data.len());
            st.mtimes.insert(path.to_string(), engine.now_ns());
            Ok(())
        })()
        .and_then(|_| self.persist(engine));
        deliver(engine, self.latency(bytes), cb, result);
    }

    fn close(&self, engine: &Engine, _path: &str, cb: FsCallback<()>) {
        deliver(engine, 1_000, cb, Ok(()));
    }

    fn rename(&self, engine: &Engine, from: &str, to: &str, cb: FsCallback<()>) {
        let result = (|| {
            self.write_guard(from)?;
            let mut st = self.state.borrow_mut();
            let moved = st.index.rename(from, to)?;
            for (old, new) in moved {
                if let Some(data) = st.store.get(engine, &old)? {
                    st.store.put(engine, &new, &data)?;
                    st.store.delete(engine, &old)?;
                }
                if let Some(s) = st.sizes.remove(&old) {
                    st.sizes.insert(new.clone(), s);
                }
                if let Some(t) = st.mtimes.remove(&old) {
                    st.mtimes.insert(new, t);
                }
            }
            Ok(())
        })()
        .and_then(|_| self.persist(engine));
        deliver(engine, self.latency(0), cb, result);
    }

    fn unlink(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        let result = (|| {
            self.write_guard(path)?;
            let mut st = self.state.borrow_mut();
            st.index.remove_file(path)?;
            st.store.delete(engine, path)?;
            st.sizes.remove(path);
            st.mtimes.remove(path);
            Ok(())
        })()
        .and_then(|_| self.persist(engine));
        deliver(engine, self.latency(0), cb, result);
    }

    fn mkdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        let result = (|| {
            self.write_guard(path)?;
            let mut st = self.state.borrow_mut();
            st.index.insert_dir(path)?;
            st.mtimes.insert(path.to_string(), engine.now_ns());
            Ok(())
        })()
        .and_then(|_| self.persist(engine));
        deliver(engine, self.latency(0), cb, result);
    }

    fn rmdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        let result = (|| {
            self.write_guard(path)?;
            let mut st = self.state.borrow_mut();
            st.index.remove_dir(path)?;
            st.mtimes.remove(path);
            Ok(())
        })()
        .and_then(|_| self.persist(engine));
        deliver(engine, self.latency(0), cb, result);
    }

    fn readdir(&self, engine: &Engine, path: &str, cb: FsCallback<Vec<String>>) {
        let result = self.state.borrow().index.list(path);
        deliver(engine, self.latency(0), cb, result);
    }

    fn utimes(&self, engine: &Engine, path: &str, mtime_ns: u64, cb: FsCallback<()>) {
        let result = (|| {
            let mut st = self.state.borrow_mut();
            if !st.index.contains(path) {
                return Err(FsError::new(Errno::Enoent, path));
            }
            st.mtimes.insert(path.to_string(), mtime_ns);
            Ok(())
        })();
        deliver(engine, self.latency(0), cb, result);
    }
}

// ----------------------------------------------------------------
// Concrete stores
// ----------------------------------------------------------------

/// Temporary in-memory storage: fast, lost on reload.
#[derive(Debug, Default)]
pub struct MemoryStore {
    blobs: HashMap<String, Vec<u8>>,
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

    fn get(&mut self, engine: &Engine, key: &str) -> FsResult<Option<Vec<u8>>> {
        let data = self.blobs.get(key).cloned();
        if let Some(d) = &data {
            // The read buffer is a typed array (§7.1: "DOPPIO's file
            // system implementation makes heavy use of typed arrays");
            // on Safari the matching free is ignored and the buffer
            // stays resident — the leak behind javap's pathology.
            if engine.profile().has_typed_arrays {
                engine.typed_array_alloc(d.len());
                engine.typed_array_free(d.len());
                engine.charge_n(Cost::TypedArrayByte, d.len() as u64);
            } else {
                engine.charge_n(Cost::JsArrayByte, d.len() as u64);
            }
        }
        Ok(data)
    }

    fn put(&mut self, engine: &Engine, key: &str, data: &[u8]) -> FsResult<()> {
        engine.charge_n(Cost::TypedArrayByte, data.len() as u64);
        self.blobs.insert(key.to_string(), data.to_vec());
        Ok(())
    }

    fn delete(&mut self, _engine: &Engine, key: &str) -> FsResult<()> {
        self.blobs.remove(key);
        Ok(())
    }
}

/// Browser-local persistent storage over `localStorage`: binary data
/// crosses the Buffer binary-string bridge, and the 5 MB quota
/// surfaces as `ENOSPC`.
#[derive(Debug, Default)]
pub struct LocalStorageStore {
    _priv: (),
}

impl LocalStorageStore {
    /// A store over the engine's localStorage.
    pub fn new() -> LocalStorageStore {
        LocalStorageStore::default()
    }

    fn key(path: &str) -> String {
        format!("doppio-file:{path}")
    }
}

const LS_INDEX_KEY: &str = "doppio-fs-index";

impl BlobStore for LocalStorageStore {
    fn name(&self) -> &'static str {
        "LocalStorage"
    }

    fn op_latency_ns(&self) -> u64 {
        25_000
    }

    fn get(&mut self, engine: &Engine, key: &str) -> FsResult<Option<Vec<u8>>> {
        let browser = engine.profile().browser.name();
        let js = engine
            .with_storage(|s, _| {
                s.sync_store(SyncMechanism::LocalStorage)
                    .get_item_js(browser, &Self::key(key))
            })
            .map_err(|e| FsError::new(Errno::Eio, key).with_detail(e.to_string()))?;
        match js {
            None => Ok(None),
            Some(js) => {
                let buf = Buffer::from_js_string(engine, Encoding::BinaryString, &js)
                    .map_err(|e| FsError::new(Errno::Eio, key).with_detail(e.to_string()))?;
                Ok(Some(buf.as_slice().to_vec()))
            }
        }
    }

    fn put(&mut self, engine: &Engine, key: &str, data: &[u8]) -> FsResult<()> {
        let browser = engine.profile().browser.name();
        let js = Buffer::from_slice(engine, data)
            .to_js_string_full(Encoding::BinaryString)
            .map_err(|e| FsError::new(Errno::Eio, key).with_detail(e.to_string()))?;
        engine
            .with_storage(|s, _| {
                s.sync_store(SyncMechanism::LocalStorage)
                    .set_item_js(browser, &Self::key(key), js)
            })
            .map_err(|e| match e {
                EngineError::QuotaExceeded { .. } => {
                    FsError::new(Errno::Enospc, key).with_detail(e.to_string())
                }
                other => FsError::new(Errno::Eio, key).with_detail(other.to_string()),
            })
    }

    fn delete(&mut self, engine: &Engine, key: &str) -> FsResult<()> {
        let browser = engine.profile().browser.name();
        engine
            .with_storage(|s, _| {
                s.sync_store(SyncMechanism::LocalStorage)
                    .remove_item(browser, &Self::key(key))
            })
            .map_err(|e| FsError::new(Errno::Eio, key).with_detail(e.to_string()))
    }

    fn persist_index(&mut self, engine: &Engine, index: &DirIndex) -> FsResult<()> {
        let browser = engine.profile().browser.name();
        engine
            .with_storage(|s, _| {
                s.sync_store(SyncMechanism::LocalStorage).set_item(
                    browser,
                    LS_INDEX_KEY,
                    &index.serialize(),
                )
            })
            .map_err(|e| match e {
                EngineError::QuotaExceeded { .. } => {
                    FsError::new(Errno::Enospc, LS_INDEX_KEY).with_detail(e.to_string())
                }
                other => FsError::new(Errno::Eio, LS_INDEX_KEY).with_detail(other.to_string()),
            })
    }

    fn load_index(&mut self, engine: &Engine) -> Option<String> {
        let browser = engine.profile().browser.name();
        engine
            .with_storage(|s, _| {
                s.sync_store(SyncMechanism::LocalStorage)
                    .get_item(browser, LS_INDEX_KEY)
            })
            .ok()
            .flatten()
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

    /// The server's listing (used to build the directory index).
    pub fn listing(&self) -> DirIndex {
        DirIndex::from_file_paths(self.files.keys().map(String::as_str))
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

    fn get(&mut self, engine: &Engine, key: &str) -> FsResult<Option<Vec<u8>>> {
        let data = self.files.get(key).cloned();
        if let Some(d) = &data {
            // The downloaded body lands in a typed array (or string on
            // browsers without them) — visible to the Safari leak.
            if engine.profile().has_typed_arrays {
                engine.typed_array_alloc(d.len());
                engine.typed_array_free(d.len());
                engine.charge_n(Cost::TypedArrayByte, d.len() as u64);
            } else {
                engine.charge_n(Cost::JsArrayByte, d.len() as u64);
            }
        }
        Ok(data)
    }

    fn put(&mut self, _engine: &Engine, key: &str, _data: &[u8]) -> FsResult<()> {
        Err(FsError::new(Errno::Erofs, key))
    }

    fn delete(&mut self, _engine: &Engine, key: &str) -> FsResult<()> {
        Err(FsError::new(Errno::Erofs, key))
    }
}

/// Dropbox cloud storage: read-write, but every operation pays a cloud
/// round trip.
#[derive(Debug)]
pub struct DropboxStore {
    blobs: HashMap<String, Vec<u8>>,
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
            blobs: HashMap::new(),
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

    fn get(&mut self, _engine: &Engine, key: &str) -> FsResult<Option<Vec<u8>>> {
        Ok(self.blobs.get(key).cloned())
    }

    fn put(&mut self, _engine: &Engine, key: &str, data: &[u8]) -> FsResult<()> {
        self.blobs.insert(key.to_string(), data.to_vec());
        Ok(())
    }

    fn delete(&mut self, _engine: &Engine, key: &str) -> FsResult<()> {
        self.blobs.remove(key);
        Ok(())
    }

    fn persist_index(&mut self, _engine: &Engine, index: &DirIndex) -> FsResult<()> {
        self.blobs
            .insert(INDEX_KEY.to_string(), index.serialize().into_bytes());
        Ok(())
    }

    fn load_index(&mut self, _engine: &Engine) -> Option<String> {
        self.blobs
            .get(INDEX_KEY)
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_jsengine::Browser;
    use std::cell::Cell;
    use std::rc::Rc;

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

        fn get(&mut self, engine: &Engine, key: &str) -> FsResult<Option<Vec<u8>>> {
            self.blobs.get(engine, key)
        }

        fn put(&mut self, engine: &Engine, key: &str, data: &[u8]) -> FsResult<()> {
            self.blobs.put(engine, key, data)
        }

        fn delete(&mut self, engine: &Engine, key: &str) -> FsResult<()> {
            self.blobs.delete(engine, key)
        }

        fn persist_index(&mut self, _engine: &Engine, _index: &DirIndex) -> FsResult<()> {
            self.persists.set(self.persists.get() + 1);
            Ok(())
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

    #[test]
    fn persist_index_runs_once_per_successful_mutation_only() {
        let e = &Engine::new(Browser::Chrome);
        let (b, persists) = counting(e, false);
        let persisted = |n: usize| assert_eq!(persists.replace(0), n);
        let flags = |f: &str| OpenFlags::parse(f).unwrap();

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
        let create = OpenFlags::parse("w").unwrap();
        assert_eq!(errno(run(e, |cb| b.mkdir(e, "/d", cb))), Errno::Erofs);
        assert_eq!(
            errno(run(e, |cb| b.open(e, "/f", create, cb))),
            Errno::Erofs
        );
        assert_eq!(
            errno(run(e, |cb| b.sync(e, "/f", vec![1], cb))),
            Errno::Erofs
        );
        assert_eq!(errno(run(e, |cb| b.unlink(e, "/f", cb))), Errno::Erofs);
        assert_eq!(
            errno(run(e, |cb| b.rename(e, "/f", "/g", cb))),
            Errno::Erofs
        );
        assert_eq!(errno(run(e, |cb| b.rmdir(e, "/d", cb))), Errno::Erofs);
        assert_eq!(persists.get(), 0);
    }

    #[test]
    fn local_storage_persists_the_exact_index_string() {
        let e = &Engine::new(Browser::Chrome);
        let b = BlobBackend::new(e, LocalStorageStore::new());
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
        let reloaded = BlobBackend::new(e, LocalStorageStore::new());
        assert_eq!(run(e, |cb| reloaded.readdir(e, "/a", cb)).unwrap(), ["c"]);
    }
}
