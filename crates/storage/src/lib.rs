//! `doppio-storage` — a simulated replicated object store behind the
//! Doppio FS backend trait (ROADMAP item 4's cloud-scale story).
//!
//! The paper's pluggable-backend file system (§5.1, Figure 2) stops at
//! in-memory / localStorage / blob / cloud stores. This crate supplies
//! the missing tier: a **primary/backup replicated cluster** of
//! storage-node processes wired over `doppio-sockets`, with
//!
//! - a **write-back journal** per node — the durable log a crashed
//!   node replays on restart (replay is idempotent: records at or
//!   below the applied sequence number are no-ops),
//! - **acked replication** — the primary streams `Replicate{seq}`
//!   frames to every backup; `Ack{seq}` cursors drive retransmission
//!   across partitions and backup restarts,
//! - a **client cache tier** — write-through per session, with push
//!   invalidation fanned out to the other sessions on every write,
//!
//! all on the virtual clock, so a seeded run is byte-identical
//! end-to-end. Faults come from
//! [`FaultPlan::storage_fault`](doppio_faults::FaultPlan::storage_fault):
//! replica crashes at each protocol step and partitions on
//! replication links.
//!
//! The crash-consistency harness lives in `tests/storage_consistency.rs`
//! and `examples/storage_consistency.rs` at the workspace root: a
//! [`HistoryRecorder`] records every client op with virtual
//! invoke/complete timestamps, [`check_read_your_writes`]
//! (per-tenant session guarantee) and [`check_linearizable`]
//! (per-key Wing–Gong search) audit the history, and
//! `schedtest::explore` sweeps replication-protocol interleavings —
//! with [`StorageConfig::ack_before_journal`] switching in a real
//! crash-consistency bug for the canary to find, shrink, and replay.
//!
//! ```
//! use doppio_jsengine::{Browser, Engine};
//! use doppio_sockets::Network;
//! use doppio_storage::{StorageCluster, StorageConfig};
//!
//! let engine = Engine::new(Browser::Chrome);
//! let net = Network::new(&engine);
//! let cluster = StorageCluster::launch(&engine, &net, StorageConfig::default(), None);
//! let backend = doppio_storage::replicated(&cluster, "tenant0");
//! // `backend` is a doppio_fs::SharedBackend: mount it, run javac on it...
//! # let _ = backend;
//! ```
//!
//! [`check_read_your_writes`]: HistoryRecorder::check_read_your_writes
//! [`check_linearizable`]: HistoryRecorder::check_linearizable

pub mod client;
pub mod cluster;
pub mod history;
pub mod proto;

pub use client::StorageClient;
pub use cluster::{StorageCluster, StorageConfig};
pub use history::{HistEvent, HistoryRecorder, OpKind};
pub use proto::{Frame, FrameBuffer, RequestOp, WriteOp};

use doppio_fs::backend::SharedBackend;

/// A full FS backend over `cluster` for one client session (cache
/// enabled): the replicated twin of `doppio_fs::backends::dropbox`.
pub fn replicated(cluster: &StorageCluster, label: &str) -> SharedBackend {
    doppio_fs::backends::replicated(cluster.client(label, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_fs::backend::OpenFlags;
    use doppio_jsengine::{Browser, Engine};
    use doppio_sockets::Network;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn fs_backend_round_trips_through_the_cluster() {
        let engine = Engine::new(Browser::Chrome);
        let net = Network::new(&engine);
        let cluster = StorageCluster::launch(&engine, &net, StorageConfig::default(), None);
        let be = replicated(&cluster, "t0");

        let done = Rc::new(RefCell::new(Vec::new()));
        let d = done.clone();
        be.mkdir(&engine, "/d", Box::new(move |_, r| d.borrow_mut().push(r)));
        engine.run_until_idle();
        let d = done.clone();
        be.sync(
            &engine,
            "/d/f",
            b"replicated".to_vec(),
            Box::new(move |_, r| d.borrow_mut().push(r)),
        );
        engine.run_until_idle();
        assert!(done.borrow().iter().all(|r| r.is_ok()));

        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        be.open(
            &engine,
            "/d/f",
            OpenFlags::parse("r").unwrap(),
            Box::new(move |_, r| *o.borrow_mut() = Some(r)),
        );
        engine.run_until_idle();
        assert_eq!(out.borrow().clone().unwrap().unwrap(), b"replicated");
        // The blob and the persisted index both reached the backups.
        assert_eq!(cluster.object(1, "/d/f").unwrap(), b"replicated");
        assert_eq!(cluster.object(2, "/d/f").unwrap(), b"replicated");
        assert!(cluster.object(1, doppio_fs::backends::INDEX_KEY).is_some());
    }
}
