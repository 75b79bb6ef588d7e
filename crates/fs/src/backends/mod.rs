//! The concrete file-system backends (§5.1, Figure 2).

pub mod blob;
pub mod faulty;
pub mod mount;

pub use blob::{
    BlobBackend, BlobStore, DropboxStore, LocalStorageStore, MemoryStore, XhrStore, INDEX_KEY,
};
pub use faulty::FaultyBackend;
pub use mount::MountableFs;

use doppio_jsengine::Engine;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::backend::SharedBackend;

/// An in-memory backend (temporary storage, like `/tmp`).
pub fn in_memory(engine: &Engine) -> SharedBackend {
    Rc::new(BlobBackend::new(engine, MemoryStore::new()))
}

/// A backend persisted in the browser's `localStorage` (5 MB quota,
/// binary data packed through the Buffer binary-string bridge).
pub fn local_storage(engine: &Engine) -> SharedBackend {
    Rc::new(BlobBackend::new(engine, LocalStorageStore::new()))
}

/// A read-only backend over files served by the web server, downloaded
/// on demand.
pub fn xhr(engine: &Engine, files: BTreeMap<String, Vec<u8>>) -> SharedBackend {
    Rc::new(BlobBackend::new(engine, XhrStore::new(files)))
}

/// A Dropbox-style cloud backend (read-write, high latency).
pub fn dropbox(engine: &Engine) -> SharedBackend {
    Rc::new(BlobBackend::new(engine, DropboxStore::new()))
}

/// A mountable file system over `root`.
pub fn mountable(root: SharedBackend) -> Rc<MountableFs> {
    Rc::new(MountableFs::new(root))
}

/// Wrap `inner` in a fault-injecting decorator drawing from `plan`.
pub fn faulty(inner: SharedBackend, plan: doppio_faults::FaultPlan) -> SharedBackend {
    Rc::new(FaultyBackend::new(inner, plan))
}

/// A backend over a remote store that starts with an empty tree and
/// issues no request until its first operation — the seam the
/// replicated store in `doppio-storage` plugs into.
/// [`BlobBackend::hydrate`] loads a tree the store already holds.
pub fn replicated<C: BlobStore + 'static>(client: C) -> SharedBackend {
    Rc::new(BlobBackend::empty(client))
}
