//! A deterministic, single-threaded simulation of the browser JavaScript
//! environment that the Doppio runtime system (PLDI 2014) targets.
//!
//! The original Doppio is a TypeScript runtime that runs inside real web
//! browsers. This crate substitutes those browsers with a *mechanistic
//! simulation*: a single-threaded event loop with a virtual clock, the
//! asynchronous scheduling primitives browsers actually expose
//! (`setTimeout` with its 4 ms clamp, `postMessage`/`sendMessage`,
//! `setImmediate`), the browser watchdog that kills long-running events,
//! the browser-local persistent storage mechanisms of Table 2 of the
//! paper, and per-browser cost/feature profiles.
//!
//! Everything that matters to the paper's claims is reproduced as a
//! *mechanism* (queue ordering, timer clamping, quota enforcement,
//! watchdog kills, Safari's typed-array leak); only unit costs are
//! calibrated constants, documented in [`profile`].
//!
//! # Quick start
//!
//! ```
//! use doppio_jsengine::{Engine, Browser};
//!
//! let engine = Engine::new(Browser::Chrome);
//! let hit = std::rc::Rc::new(std::cell::Cell::new(false));
//! let hit2 = hit.clone();
//! engine.set_timeout(0.0, move |_| hit2.set(true));
//! engine.run_until_idle();
//! assert!(hit.get());
//! // The HTML5 spec clamps a 0 ms timeout to at least 4 ms:
//! assert!(engine.now_ns() >= 4_000_000);
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod event_loop;
pub mod jsstring;
pub mod memory;
pub mod profile;
pub mod stats;
pub mod storage;

mod engine;

pub use engine::{Callback, Engine, EngineBuilder, ObservabilityOptions, TimerId};
pub use error::{EngineError, EngineResult};
pub use event_loop::EventKind;
pub use jsstring::JsString;
pub use profile::{Browser, BrowserProfile, Cost};
pub use stats::EngineStats;
