//! Virtual-timing goldens for every fs backend (§5.1, Figure 2).
//!
//! `tests/fs_conformance.rs` compares answers only. This suite pins
//! *when* each answer arrives: one deterministic script drives a
//! backend through the `Backend` API, and every op is recorded with
//! its normalized result (a `stat` includes `mtime_ns`), the virtual
//! time its callback ran, the virtual time and event count once the
//! engine went idle, and, for the replicated store, every `storage.*`
//! counter. The transcripts live under `tests/golden/fs/`; a change to
//! a backend's latency model, completion path or event count shows up
//! as a diff.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;

use doppio::fs::backend::{FileKind, FsCallback, OpenFlags, SharedBackend};
use doppio::fs::backends;
use doppio::fs::error::FsResult;
use doppio::jsengine::{Browser, Engine};
use doppio::sockets::Network;
use doppio::storage::{StorageCluster, StorageConfig};

// ---- the constructors the public `backends::*` functions do not cover ----

/// A Dropbox-backed fs and a way to build a second one over the same
/// cloud account (a page reload).
fn dropbox_with_reload(engine: &Engine) -> (SharedBackend, impl Fn(&Engine) -> SharedBackend) {
    let store = backends::DropboxStore::new();
    let first: SharedBackend = Rc::new(backends::BlobBackend::new(engine, store.clone()));
    (first, move |e: &Engine| -> SharedBackend {
        Rc::new(backends::BlobBackend::new(e, store.clone()))
    })
}

/// A fresh client session over `cluster` that loads the persisted tree
/// with `hydrate`, recorded as one op of `run`.
fn hydrated_replica(run: &mut Run, cluster: &StorageCluster) -> SharedBackend {
    let be = backends::BlobBackend::empty(cluster.client("t1", true));
    run.record("hydrate", |e, cb| be.hydrate(e, cb), |()| "hydrated".into());
    Rc::new(be)
}

// ---- recording ----

/// Compare `got` with the golden file `name`.
fn assert_golden(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/fs")
        .join(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert!(
        got == want,
        "{} drifted from its golden file\n--- got ---\n{got}\n--- want ---\n{want}",
        path.display()
    );
}

/// `n` deterministic bytes.
fn bytes(n: usize, salt: u8) -> Vec<u8> {
    (0..n).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect()
}

/// FNV-1a of `data`, so a transcript pins contents without dumping them.
fn fnv(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One backend's transcript under construction.
struct Run<'a> {
    engine: &'a Engine,
    lines: Vec<String>,
    /// Append the `storage.*` counters to every line.
    storage_counters: bool,
}

impl<'a> Run<'a> {
    fn new(engine: &'a Engine, storage_counters: bool) -> Run<'a> {
        Run {
            engine,
            lines: Vec::new(),
            storage_counters,
        }
    }

    /// Start one op, run the engine to idle, and record the outcome.
    fn record<T: 'static>(
        &mut self,
        label: &str,
        start: impl FnOnce(&Engine, FsCallback<T>),
        show: impl FnOnce(T) -> String,
    ) {
        let e = self.engine;
        let slot = Rc::new(RefCell::new(None));
        let s = slot.clone();
        start(
            e,
            Box::new(move |e, r| *s.borrow_mut() = Some((r, e.now_ns()))),
        );
        e.run_until_idle();
        let (result, done_ns): (FsResult<T>, u64) = slot
            .borrow_mut()
            .take()
            .unwrap_or_else(|| panic!("{label} did not complete"));
        let shown = match result {
            Ok(v) => format!("ok {}", show(v)),
            Err(err) => format!("err {}", err.errno.code()),
        };
        let mut line = format!(
            "{label} => {shown} | done@{done_ns} idle@{} events={}",
            e.now_ns(),
            e.metrics().get("engine.events_run")
        );
        if self.storage_counters {
            for (name, v) in e.metrics().with_prefix("storage.") {
                line.push_str(&format!(" {name}={v}"));
            }
        }
        self.lines.push(line);
    }

    fn stat(&mut self, be: &SharedBackend, p: &str) {
        self.record(
            &format!("stat {p}"),
            |e, cb| be.stat(e, p, cb),
            |s| {
                let kind = match s.kind {
                    FileKind::File => "file",
                    FileKind::Directory => "dir",
                };
                format!("{kind} size={} mtime={}", s.size, s.mtime_ns)
            },
        );
    }

    fn open(&mut self, be: &SharedBackend, p: &str, flags: &str) {
        let f = OpenFlags::parse(flags).expect("valid flags");
        self.record(
            &format!("open({flags}) {p}"),
            |e, cb| be.open(e, p, f, cb),
            |d| format!("len={} fnv={:016x}", d.len(), fnv(&d)),
        );
    }

    fn sync(&mut self, be: &SharedBackend, p: &str, len: usize, salt: u8) {
        self.record(
            &format!("sync {p} ({len} bytes)"),
            |e, cb| be.sync(e, p, bytes(len, salt), cb),
            |()| "synced".into(),
        );
    }

    fn close(&mut self, be: &SharedBackend, p: &str) {
        self.record(
            &format!("close {p}"),
            |e, cb| be.close(e, p, cb),
            |()| "closed".into(),
        );
    }

    fn rename(&mut self, be: &SharedBackend, a: &str, b: &str) {
        self.record(
            &format!("rename {a} -> {b}"),
            |e, cb| be.rename(e, a, b, cb),
            |()| "renamed".into(),
        );
    }

    fn unlink(&mut self, be: &SharedBackend, p: &str) {
        self.record(
            &format!("unlink {p}"),
            |e, cb| be.unlink(e, p, cb),
            |()| "unlinked".into(),
        );
    }

    fn mkdir(&mut self, be: &SharedBackend, p: &str) {
        self.record(
            &format!("mkdir {p}"),
            |e, cb| be.mkdir(e, p, cb),
            |()| "made".into(),
        );
    }

    fn rmdir(&mut self, be: &SharedBackend, p: &str) {
        self.record(
            &format!("rmdir {p}"),
            |e, cb| be.rmdir(e, p, cb),
            |()| "removed".into(),
        );
    }

    fn readdir(&mut self, be: &SharedBackend, p: &str) {
        self.record(
            &format!("readdir {p}"),
            |e, cb| be.readdir(e, p, cb),
            |names| format!("{names:?}"),
        );
    }

    fn utimes(&mut self, be: &SharedBackend, p: &str, mtime_ns: u64) {
        self.record(
            &format!("utimes {p} {mtime_ns}"),
            |e, cb| be.utimes(e, p, mtime_ns, cb),
            |()| "touched".into(),
        );
    }

    fn text(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }
}

// ---- scripts ----

/// Every read-write operation and errno the `Backend` API has.
fn read_write_script(run: &mut Run, be: &SharedBackend) {
    run.mkdir(be, "/d");
    run.mkdir(be, "/d"); // EEXIST
    run.mkdir(be, "/nope/d"); // ENOENT
    run.open(be, "/d/new", "w"); // create
    run.sync(be, "/d/new", 1_500, 1);
    run.close(be, "/d/new");
    run.stat(be, "/d/new"); // known size
    run.open(be, "/d/new", "r");
    run.open(be, "/d/new", "wx"); // EEXIST
    run.open(be, "/d/made", "wx"); // exclusive create
    run.open(be, "/d/log", "a"); // append create
    run.sync(be, "/d/log", 7, 2);
    run.open(be, "/d/log", "a+");
    run.open(be, "/d", "r"); // EISDIR
    run.open(be, "/missing", "r"); // ENOENT
    run.open(be, "/nope/f", "w"); // ENOENT parent
    run.sync(be, "/d/big", 5_000, 3); // created by sync
    run.sync(be, "/d/k", 2_048, 4);
    run.open(be, "/d/k", "w"); // truncate
    run.stat(be, "/d/k");
    run.sync(be, "/d/k", 3, 5);
    run.open(be, "/d/k", "r+");
    run.sync(be, "/d", 10, 6); // EISDIR
    run.sync(be, "/nope/f", 10, 6); // ENOENT parent
    run.mkdir(be, "/d/sub");
    run.sync(be, "/d/sub/x", 700, 7);
    run.sync(be, "/d/sub/y", 1_025, 8);
    run.mkdir(be, "/d/sub/deeper");
    run.sync(be, "/d/sub/deeper/z", 1, 9);
    run.rename(be, "/d/new", "/d/renamed"); // file
    run.rename(be, "/d/sub", "/moved"); // subtree
    run.rename(be, "/d/big", "/d/k"); // over an existing file
    run.rename(be, "/nope", "/x"); // ENOENT
    run.rename(be, "/d/k", "/moved"); // EISDIR
    run.rename(be, "/moved", "/d/renamed"); // ENOTDIR
    run.readdir(be, "/");
    run.readdir(be, "/d");
    run.readdir(be, "/moved");
    run.readdir(be, "/d/k"); // ENOTDIR
    run.readdir(be, "/gone"); // ENOENT
    run.stat(be, "/moved/x");
    run.stat(be, "/moved/deeper/z");
    run.open(be, "/d/k", "r");
    run.open(be, "/moved/y", "r");
    run.utimes(be, "/moved/x", 123_456_789);
    run.stat(be, "/moved/x");
    run.utimes(be, "/moved", 5);
    run.stat(be, "/moved");
    run.utimes(be, "/nope", 1); // ENOENT
    run.rmdir(be, "/moved"); // ENOTEMPTY
    run.rmdir(be, "/d/k"); // ENOTDIR
    run.rmdir(be, "/nope"); // ENOENT
    run.unlink(be, "/moved/x");
    run.unlink(be, "/moved/y");
    run.unlink(be, "/moved/deeper/z");
    run.rmdir(be, "/moved/deeper");
    run.rmdir(be, "/moved");
    run.unlink(be, "/d/gone"); // ENOENT
    run.unlink(be, "/d"); // EISDIR
    run.stat(be, "/d");
    run.stat(be, "/moved"); // ENOENT
    run.readdir(be, "/d");
}

/// Reads on a backend that restored its tree from storage: every file
/// size is unknown until fetched.
fn reload_script(run: &mut Run, be: &SharedBackend) {
    run.readdir(be, "/");
    run.readdir(be, "/d");
    run.stat(be, "/d/k"); // unknown size
    run.stat(be, "/d/k"); // known now
    run.stat(be, "/d");
    run.open(be, "/d/renamed", "r");
    run.stat(be, "/d/renamed");
    run.open(be, "/d/log", "w");
    run.sync(be, "/d/log", 2_000, 10);
    run.stat(be, "/d/log");
    run.unlink(be, "/d/made");
    run.readdir(be, "/d");
}

/// The transcript of `script` on a fresh Chrome engine.
fn transcript(make: impl FnOnce(&Engine) -> SharedBackend) -> String {
    let engine = Engine::new(Browser::Chrome);
    let be = make(&engine);
    let mut run = Run::new(&engine, false);
    read_write_script(&mut run, &be);
    run.text()
}

#[test]
fn in_memory_timing_matches_its_golden() {
    assert_golden("in_memory.txt", &transcript(backends::in_memory));
}

#[test]
fn mountable_in_memory_timing_matches_its_golden() {
    let got = transcript(|e| {
        let m: SharedBackend = backends::mountable(backends::in_memory(e));
        m
    });
    assert_golden("mountable_in_memory.txt", &got);
}

#[test]
fn local_storage_timing_and_reload_match_their_golden() {
    let engine = Engine::new(Browser::Chrome);
    let mut run = Run::new(&engine, false);
    read_write_script(&mut run, &backends::local_storage(&engine));
    run.lines.push("-- reload".into());
    reload_script(&mut run, &backends::local_storage(&engine));
    assert_golden("local_storage.txt", &run.text());
}

#[test]
fn dropbox_timing_and_reload_match_their_golden() {
    let engine = Engine::new(Browser::Chrome);
    let (be, reload) = dropbox_with_reload(&engine);
    let mut run = Run::new(&engine, false);
    read_write_script(&mut run, &be);
    run.lines.push("-- reload".into());
    reload_script(&mut run, &reload(&engine));
    assert_golden("dropbox.txt", &run.text());
}

#[test]
fn xhr_reads_and_erofs_timing_match_their_golden() {
    let engine = Engine::new(Browser::Chrome);
    let files = BTreeMap::from([
        ("/lib/A.class".to_string(), bytes(1_500, 11)),
        ("/lib/B.class".to_string(), bytes(3_072, 12)),
        ("/lib/deep/C.class".to_string(), bytes(1, 13)),
        ("/readme.txt".to_string(), bytes(10, 14)),
    ]);
    let be = backends::xhr(&engine, files);
    let mut run = Run::new(&engine, false);
    let r = &mut run;
    r.readdir(&be, "/");
    r.readdir(&be, "/lib");
    r.stat(&be, "/lib/A.class"); // unknown size
    r.stat(&be, "/lib/A.class"); // known now
    r.stat(&be, "/lib");
    r.stat(&be, "/nope"); // ENOENT
    r.open(&be, "/lib/B.class", "r");
    r.stat(&be, "/lib/B.class");
    r.open(&be, "/lib/deep/C.class", "r");
    r.open(&be, "/readme.txt", "r");
    r.open(&be, "/lib", "r"); // EISDIR
    r.open(&be, "/nope", "r"); // ENOENT
    r.open(&be, "/readme.txt", "wx"); // EEXIST
    r.open(&be, "/readme.txt", "w"); // EROFS (truncate)
    r.open(&be, "/new", "w"); // EROFS (create)
    r.sync(&be, "/readme.txt", 3_000, 15); // EROFS
    r.sync(&be, "/new", 10, 15); // EROFS
    r.sync(&be, "/lib", 10, 15); // EISDIR
    r.rename(&be, "/readme.txt", "/x"); // EROFS
    r.unlink(&be, "/readme.txt"); // EROFS
    r.mkdir(&be, "/d"); // EROFS
    r.rmdir(&be, "/lib/deep"); // EROFS
    r.utimes(&be, "/readme.txt", 42);
    r.stat(&be, "/readme.txt");
    r.close(&be, "/readme.txt");
    assert_golden("xhr.txt", &run.text());
}

#[test]
fn replicated_timing_counters_and_hydrate_match_their_golden() {
    let engine = Engine::new(Browser::Chrome);
    let net = Network::new(&engine);
    let cluster = StorageCluster::launch(&engine, &net, StorageConfig::default(), None);
    let be = doppio::storage::replicated(&cluster, "t0");
    let mut run = Run::new(&engine, true);
    read_write_script(&mut run, &be);
    run.lines.push("-- hydrate".into());
    let fresh = hydrated_replica(&mut run, &cluster);
    reload_script(&mut run, &fresh);
    assert_golden("replicated.txt", &run.text());
}
