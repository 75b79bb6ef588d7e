//! The replicated object-store backend seam.
//!
//! §5.1's utility classes already factor a backend into "directory
//! structure + whole-blob movement" ([`BlobBackend`](super::blob)
//! packages them around a *synchronous* [`BlobStore`](super::blob)).
//! A replicated store cannot be synchronous: every data operation is a
//! network round trip to a primary node, completing through the event
//! loop turns later. [`ObjectStoreBackend`] is the asynchronous twin:
//! the same [`DirIndex`]/sizes/mtimes bookkeeping, sync-on-close
//! whole-blob semantics, and errno surface as the blob backend, over an
//! [`ObjectStoreClient`] whose get/put/delete complete by callback.
//!
//! The concrete client — a primary/backup replicated cluster with a
//! write-back journal and an invalidating cache tier — lives in the
//! `doppio-storage` crate; this module owns only the fs-semantics
//! layer, so the conformance suite can pin both backends to the same
//! oracle behavior.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use doppio_jsengine::Engine;

use crate::backend::{deliver, Backend, DirIndex, FileKind, FsCallback, OpenFlags, Stat};
use crate::error::{Errno, FsError};

/// Key under which the serialized directory index is persisted in an
/// object store or the Dropbox store (NUL-prefixed so it can never
/// collide with a path).
pub const INDEX_KEY: &str = "\u{0}index";

/// Latency of a purely client-local operation (an index lookup that
/// never leaves the client), matching the in-memory store.
const LOCAL_LATENCY_NS: u64 = 1_200;

/// An asynchronous whole-blob object store: the only thing a
/// replicated (or otherwise remote) storage service has to provide.
pub trait ObjectStoreClient {
    /// Client name for diagnostics.
    fn name(&self) -> &'static str;

    /// Fetch the blob at `key` (`Ok(None)` if absent).
    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>);

    /// Store the blob at `key`.
    fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>);

    /// Remove the blob at `key` (missing is fine).
    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>);
}

struct ReplState {
    index: DirIndex,
    sizes: HashMap<String, usize>,
    mtimes: HashMap<String, u64>,
}

struct ReplInner<C> {
    client: C,
    state: RefCell<ReplState>,
}

/// A full [`Backend`] over any [`ObjectStoreClient`] — the
/// asynchronous counterpart of [`BlobBackend`](super::blob::BlobBackend).
pub struct ObjectStoreBackend<C: ObjectStoreClient + 'static> {
    inner: Rc<ReplInner<C>>,
}

impl<C: ObjectStoreClient + 'static> Clone for ObjectStoreBackend<C> {
    fn clone(&self) -> Self {
        ObjectStoreBackend {
            inner: self.inner.clone(),
        }
    }
}

/// One asynchronous step in a sequential chain (see [`run_steps`]).
type Step = Box<dyn FnOnce(&Engine, FsCallback<()>)>;

/// Run `steps` strictly in order, short-circuiting on the first error.
fn run_steps(engine: &Engine, mut steps: VecDeque<Step>, done: FsCallback<()>) {
    match steps.pop_front() {
        None => done(engine, Ok(())),
        Some(step) => step(
            engine,
            Box::new(move |e, r| match r {
                Ok(()) => run_steps(e, steps, done),
                Err(err) => done(e, Err(err)),
            }),
        ),
    }
}

impl<C: ObjectStoreClient + 'static> ObjectStoreBackend<C> {
    /// A backend over `client` with an empty directory tree.
    pub fn new(client: C) -> ObjectStoreBackend<C> {
        ObjectStoreBackend {
            inner: Rc::new(ReplInner {
                client,
                state: RefCell::new(ReplState {
                    index: DirIndex::new(),
                    sizes: HashMap::new(),
                    mtimes: HashMap::new(),
                }),
            }),
        }
    }

    /// Load the persisted directory index from the store (for a client
    /// attaching to a cluster that already holds data, e.g. after a
    /// crash/restart cycle). Completes with `Ok` even when no index
    /// has ever been persisted (the tree is simply empty).
    pub fn hydrate(&self, engine: &Engine, cb: FsCallback<()>) {
        let inner = self.inner.clone();
        self.inner.client.get(
            engine,
            INDEX_KEY,
            Box::new(move |e, r| match r {
                Ok(Some(bytes)) => {
                    let text = String::from_utf8_lossy(&bytes).into_owned();
                    inner.state.borrow_mut().index = DirIndex::deserialize(&text);
                    cb(e, Ok(()));
                }
                Ok(None) => cb(e, Ok(())),
                Err(err) => cb(e, Err(err)),
            }),
        );
    }

    /// A step that persists the current index serialization.
    fn persist_step(&self) -> Step {
        let inner = self.inner.clone();
        Box::new(move |e, done| {
            let ser = inner.state.borrow().index.serialize();
            inner.client.put(e, INDEX_KEY, ser.into_bytes(), done);
        })
    }
}

impl<C: ObjectStoreClient + 'static> Backend for ObjectStoreBackend<C> {
    fn name(&self) -> &'static str {
        self.inner.client.name()
    }

    fn stat(&self, engine: &Engine, path: &str, cb: FsCallback<Stat>) {
        let st = self.inner.state.borrow();
        match st.index.kind(path) {
            None => deliver(
                engine,
                LOCAL_LATENCY_NS,
                cb,
                Err(FsError::new(Errno::Enoent, path)),
            ),
            Some(FileKind::Directory) => {
                let stat = Stat {
                    kind: FileKind::Directory,
                    size: 0,
                    mtime_ns: st.mtimes.get(path).copied().unwrap_or(0),
                };
                deliver(engine, LOCAL_LATENCY_NS, cb, Ok(stat));
            }
            Some(FileKind::File) => {
                let mtime_ns = st.mtimes.get(path).copied().unwrap_or(0);
                if let Some(&size) = st.sizes.get(path) {
                    let stat = Stat {
                        kind: FileKind::File,
                        size,
                        mtime_ns,
                    };
                    deliver(engine, LOCAL_LATENCY_NS, cb, Ok(stat));
                    return;
                }
                drop(st);
                // Size unknown (e.g. a hydrated index): fetch the blob.
                let inner = self.inner.clone();
                let path = path.to_string();
                self.inner.client.get(
                    engine,
                    &path.clone(),
                    Box::new(move |e, r| match r {
                        Ok(data) => {
                            let size = data.map(|d| d.len()).unwrap_or(0);
                            inner.state.borrow_mut().sizes.insert(path, size);
                            cb(
                                e,
                                Ok(Stat {
                                    kind: FileKind::File,
                                    size,
                                    mtime_ns,
                                }),
                            );
                        }
                        Err(err) => cb(e, Err(err)),
                    }),
                );
            }
        }
    }

    fn open(&self, engine: &Engine, path: &str, flags: OpenFlags, cb: FsCallback<Vec<u8>>) {
        let mut st = self.inner.state.borrow_mut();
        match st.index.kind(path) {
            Some(FileKind::Directory) => deliver(
                engine,
                LOCAL_LATENCY_NS,
                cb,
                Err(FsError::new(Errno::Eisdir, path)),
            ),
            Some(FileKind::File) => {
                if flags.exclusive {
                    deliver(
                        engine,
                        LOCAL_LATENCY_NS,
                        cb,
                        Err(FsError::new(Errno::Eexist, path)),
                    );
                    return;
                }
                if flags.truncate {
                    // Like the blob backend, truncation is recorded
                    // locally; the zero-length image lands at sync time.
                    st.sizes.insert(path.to_string(), 0);
                    deliver(engine, LOCAL_LATENCY_NS, cb, Ok(Vec::new()));
                    return;
                }
                drop(st);
                let inner = self.inner.clone();
                let key = path.to_string();
                let err_path = path.to_string();
                self.inner.client.get(
                    engine,
                    path,
                    Box::new(move |e, r| match r {
                        Ok(Some(data)) => {
                            inner.state.borrow_mut().sizes.insert(key, data.len());
                            cb(e, Ok(data));
                        }
                        Ok(None) => cb(e, Err(FsError::new(Errno::Eio, err_path))),
                        Err(err) => cb(e, Err(err)),
                    }),
                );
            }
            None => {
                if !flags.create {
                    deliver(
                        engine,
                        LOCAL_LATENCY_NS,
                        cb,
                        Err(FsError::new(Errno::Enoent, path)),
                    );
                    return;
                }
                if let Err(err) = st.index.insert_file(path) {
                    deliver(engine, LOCAL_LATENCY_NS, cb, Err(err));
                    return;
                }
                st.sizes.insert(path.to_string(), 0);
                st.mtimes.insert(path.to_string(), engine.now_ns());
                drop(st);
                let key = path.to_string();
                let create = {
                    let inner = self.inner.clone();
                    Box::new(move |e: &Engine, done: FsCallback<()>| {
                        inner.client.put(e, &key, Vec::new(), done);
                    }) as Step
                };
                let steps = VecDeque::from([create, self.persist_step()]);
                run_steps(
                    engine,
                    steps,
                    Box::new(move |e, r| cb(e, r.map(|_| Vec::new()))),
                );
            }
        }
    }

    fn sync(&self, engine: &Engine, path: &str, data: Vec<u8>, cb: FsCallback<()>) {
        {
            let mut st = self.inner.state.borrow_mut();
            if !st.index.contains(path) {
                if let Err(err) = st.index.insert_file(path) {
                    deliver(engine, LOCAL_LATENCY_NS, cb, Err(err));
                    return;
                }
            }
            st.sizes.insert(path.to_string(), data.len());
            st.mtimes.insert(path.to_string(), engine.now_ns());
        }
        let key = path.to_string();
        let write = {
            let inner = self.inner.clone();
            Box::new(move |e: &Engine, done: FsCallback<()>| {
                inner.client.put(e, &key, data, done);
            }) as Step
        };
        let steps = VecDeque::from([write, self.persist_step()]);
        run_steps(engine, steps, cb);
    }

    fn close(&self, engine: &Engine, _path: &str, cb: FsCallback<()>) {
        deliver(engine, 1_000, cb, Ok(()));
    }

    fn rename(&self, engine: &Engine, from: &str, to: &str, cb: FsCallback<()>) {
        let moved = {
            let mut st = self.inner.state.borrow_mut();
            match st.index.rename(from, to) {
                Ok(moved) => {
                    for (old, new) in &moved {
                        if let Some(s) = st.sizes.remove(old) {
                            st.sizes.insert(new.clone(), s);
                        }
                        if let Some(t) = st.mtimes.remove(old) {
                            st.mtimes.insert(new.clone(), t);
                        }
                    }
                    moved
                }
                Err(err) => {
                    deliver(engine, LOCAL_LATENCY_NS, cb, Err(err));
                    return;
                }
            }
        };
        let mut steps: VecDeque<Step> = VecDeque::new();
        for (old, new) in moved {
            let inner = self.inner.clone();
            steps.push_back(Box::new(move |e: &Engine, done: FsCallback<()>| {
                let inner2 = inner.clone();
                inner.client.get(
                    e,
                    &old.clone(),
                    Box::new(move |e, r| match r {
                        Ok(Some(data)) => {
                            let inner3 = inner2.clone();
                            inner2.client.put(
                                e,
                                &new,
                                data,
                                Box::new(move |e, r| match r {
                                    Ok(()) => inner3.client.delete(e, &old, done),
                                    Err(err) => done(e, Err(err)),
                                }),
                            );
                        }
                        Ok(None) => done(e, Ok(())),
                        Err(err) => done(e, Err(err)),
                    }),
                );
            }));
        }
        steps.push_back(self.persist_step());
        run_steps(engine, steps, cb);
    }

    fn unlink(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        {
            let mut st = self.inner.state.borrow_mut();
            if let Err(err) = st.index.remove_file(path) {
                deliver(engine, LOCAL_LATENCY_NS, cb, Err(err));
                return;
            }
            st.sizes.remove(path);
            st.mtimes.remove(path);
        }
        let key = path.to_string();
        let del = {
            let inner = self.inner.clone();
            Box::new(move |e: &Engine, done: FsCallback<()>| {
                inner.client.delete(e, &key, done);
            }) as Step
        };
        let steps = VecDeque::from([del, self.persist_step()]);
        run_steps(engine, steps, cb);
    }

    fn mkdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        {
            let mut st = self.inner.state.borrow_mut();
            if let Err(err) = st.index.insert_dir(path) {
                deliver(engine, LOCAL_LATENCY_NS, cb, Err(err));
                return;
            }
            st.mtimes.insert(path.to_string(), engine.now_ns());
        }
        run_steps(engine, VecDeque::from([self.persist_step()]), cb);
    }

    fn rmdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        {
            let mut st = self.inner.state.borrow_mut();
            if let Err(err) = st.index.remove_dir(path) {
                deliver(engine, LOCAL_LATENCY_NS, cb, Err(err));
                return;
            }
            st.mtimes.remove(path);
        }
        run_steps(engine, VecDeque::from([self.persist_step()]), cb);
    }

    fn readdir(&self, engine: &Engine, path: &str, cb: FsCallback<Vec<String>>) {
        let result = self.inner.state.borrow().index.list(path);
        deliver(engine, LOCAL_LATENCY_NS, cb, result);
    }

    fn utimes(&self, engine: &Engine, path: &str, mtime_ns: u64, cb: FsCallback<()>) {
        let result = {
            let mut st = self.inner.state.borrow_mut();
            if st.index.contains(path) {
                st.mtimes.insert(path.to_string(), mtime_ns);
                Ok(())
            } else {
                Err(FsError::new(Errno::Enoent, path))
            }
        };
        deliver(engine, LOCAL_LATENCY_NS, cb, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FsResult;
    use doppio_jsengine::Browser;
    use std::collections::BTreeMap;

    /// An in-process async store: the blob map behind one event-loop
    /// hop, standing in for the replicated cluster in unit tests.
    type Blobs = Rc<RefCell<BTreeMap<String, Vec<u8>>>>;

    struct LoopbackStore {
        blobs: Blobs,
    }

    impl LoopbackStore {
        fn new() -> (LoopbackStore, Blobs) {
            let blobs = Rc::new(RefCell::new(BTreeMap::new()));
            (
                LoopbackStore {
                    blobs: blobs.clone(),
                },
                blobs,
            )
        }
    }

    impl ObjectStoreClient for LoopbackStore {
        fn name(&self) -> &'static str {
            "Loopback"
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

    fn wait<T: 'static>(engine: &Engine, run: impl FnOnce(FsCallback<T>)) -> FsResult<T> {
        let slot: Rc<RefCell<Option<FsResult<T>>>> = Rc::new(RefCell::new(None));
        let s = slot.clone();
        run(Box::new(move |_, r| *s.borrow_mut() = Some(r)));
        engine.run_until_idle();
        let out = slot.borrow_mut().take().expect("operation completed");
        out
    }

    #[test]
    fn whole_file_round_trip_and_index_persistence() {
        let engine = Engine::new(Browser::Chrome);
        let (store, blobs) = LoopbackStore::new();
        let be = ObjectStoreBackend::new(store);

        wait(&engine, |cb| be.mkdir(&engine, "/d", cb)).unwrap();
        wait(&engine, |cb| {
            be.open(&engine, "/d/f", OpenFlags::parse("w").unwrap(), cb)
        })
        .unwrap();
        wait(&engine, |cb| {
            be.sync(&engine, "/d/f", b"hello".to_vec(), cb)
        })
        .unwrap();
        let data = wait(&engine, |cb| {
            be.open(&engine, "/d/f", OpenFlags::parse("r").unwrap(), cb)
        })
        .unwrap();
        assert_eq!(data, b"hello");
        // The index is persisted as an object alongside the blobs.
        assert!(blobs.borrow().contains_key(INDEX_KEY));
        assert_eq!(blobs.borrow().get("/d/f").unwrap(), b"hello");

        // A fresh backend hydrates the persisted tree.
        let be2 = ObjectStoreBackend::new(LoopbackStore {
            blobs: blobs.clone(),
        });
        wait(&engine, |cb| be2.hydrate(&engine, cb)).unwrap();
        let st = wait(&engine, |cb| be2.stat(&engine, "/d/f", cb)).unwrap();
        assert!(st.is_file());
        assert_eq!(st.size, 5);
        assert_eq!(
            wait(&engine, |cb| be2.readdir(&engine, "/d", cb)).unwrap(),
            vec!["f"]
        );
    }

    #[test]
    fn errno_surface_matches_the_blob_backend() {
        let engine = Engine::new(Browser::Chrome);
        let (store, _) = LoopbackStore::new();
        let be = ObjectStoreBackend::new(store);

        let e = wait(&engine, |cb| be.stat(&engine, "/missing", cb)).unwrap_err();
        assert_eq!(e.errno, Errno::Enoent);
        let e = wait(&engine, |cb| {
            be.open(&engine, "/no/parent", OpenFlags::parse("w").unwrap(), cb)
        })
        .unwrap_err();
        assert_eq!(e.errno, Errno::Enoent);
        wait(&engine, |cb| be.mkdir(&engine, "/d", cb)).unwrap();
        let e = wait(&engine, |cb| be.mkdir(&engine, "/d", cb)).unwrap_err();
        assert_eq!(e.errno, Errno::Eexist);
        let e = wait(&engine, |cb| {
            be.open(&engine, "/d", OpenFlags::parse("r").unwrap(), cb)
        })
        .unwrap_err();
        assert_eq!(e.errno, Errno::Eisdir);
        wait(&engine, |cb| be.sync(&engine, "/d/f", b"x".to_vec(), cb)).unwrap();
        let e = wait(&engine, |cb| be.rmdir(&engine, "/d", cb)).unwrap_err();
        assert_eq!(e.errno, Errno::Enotempty);
    }

    #[test]
    fn rename_moves_blobs_and_subtrees() {
        let engine = Engine::new(Browser::Chrome);
        let (store, blobs) = LoopbackStore::new();
        let be = ObjectStoreBackend::new(store);
        wait(&engine, |cb| be.mkdir(&engine, "/a", cb)).unwrap();
        wait(&engine, |cb| be.sync(&engine, "/a/x", b"1".to_vec(), cb)).unwrap();
        wait(&engine, |cb| be.sync(&engine, "/a/y", b"2".to_vec(), cb)).unwrap();
        wait(&engine, |cb| be.rename(&engine, "/a", "/b", cb)).unwrap();
        assert_eq!(
            wait(&engine, |cb| be.readdir(&engine, "/b", cb)).unwrap(),
            vec!["x", "y"]
        );
        assert!(blobs.borrow().get("/a/x").is_none());
        assert_eq!(blobs.borrow().get("/b/x").unwrap(), b"1");
        let data = wait(&engine, |cb| {
            be.open(&engine, "/b/y", OpenFlags::parse("r").unwrap(), cb)
        })
        .unwrap();
        assert_eq!(data, b"2");
    }
}
