//! Host-time spans recorded by the benchmark around its calls into
//! each crate's public functions.
//!
//! A span has a name, a start, an end and the span that encloses it;
//! spans of one operation (a program, a tenant, an fs op) share an op
//! id. Every span is folded into per-name totals (count, time, self
//! time) as it closes; the first [`KEPT_SPANS`] are also kept in memory
//! and written as a Chrome `trace_event` document at exit. When
//! recording is off, [`Spans::span`] only calls its closure.

use std::borrow::Cow;
use std::sync::OnceLock;
use std::time::Instant;

use doppio_trace::{cat, ArgValue, Phase, TraceEvent};

/// Spans kept for the trace file; later ones are only counted.
pub const KEPT_SPANS: usize = 200_000;

/// One recorded span, times in ns since the process epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span among the kept spans.
    pub parent: Option<usize>,
    /// Operation the span belongs to (0 outside any operation).
    pub op: u64,
    /// Lane: 0 for the main thread, 1 + tenant index for pool jobs.
    pub tid: u32,
}

/// Totals of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Time not covered by child spans.
    pub self_ns: u64,
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span: its kept index (if kept), start and child time.
#[derive(Debug)]
struct Open {
    name: &'static str,
    kept: Option<usize>,
    start_ns: u64,
    child_ns: u64,
}

/// A span recorder for one thread.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    tid: u32,
    kept: Vec<Span>,
    dropped: u64,
    totals: Vec<(&'static str, Totals)>,
    open: Vec<Open>,
    op: u64,
}

impl Spans {
    pub fn new(on: bool, tid: u32) -> Spans {
        Spans {
            on,
            tid,
            ..Spans::default()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start_ns = now_ns();
        let kept = (self.kept.len() < KEPT_SPANS).then(|| {
            self.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().and_then(|o| o.kept),
                op: self.op,
                tid: self.tid,
            });
            self.kept.len() - 1
        });
        if kept.is_none() {
            self.dropped += 1;
        }
        self.open.push(Open {
            name,
            kept,
            start_ns,
            child_ns: 0,
        });
        let out = f(self);
        let end_ns = now_ns();
        let o = self.open.pop().expect("spans close in order");
        let dur = end_ns - o.start_ns;
        if let Some(i) = o.kept {
            self.kept[i].end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        self.add(
            o.name,
            Totals {
                count: 1,
                total_ns: dur,
                self_ns: dur.saturating_sub(o.child_ns),
            },
        );
        out
    }

    /// Run `f` as operation `op`: a root span whose descendants carry
    /// the same op id.
    pub fn op<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Spans) -> R) -> R {
        let outer = std::mem::replace(&mut self.op, op);
        let out = self.span(name, f);
        self.op = outer;
        out
    }

    fn add(&mut self, name: &'static str, t: Totals) {
        let entry = match self.totals.iter_mut().find(|(n, _)| *n == name) {
            Some((_, e)) => e,
            None => {
                self.totals.push((name, Totals::default()));
                &mut self.totals.last_mut().expect("just pushed").1
            }
        };
        entry.count += t.count;
        entry.total_ns += t.total_ns;
        entry.self_ns += t.self_ns;
    }

    /// Move another recorder's spans and totals into this one.
    pub fn absorb(&mut self, other: Spans) {
        for (name, t) in other.totals {
            self.add(name, t);
        }
        let base = self.kept.len();
        let room = KEPT_SPANS.saturating_sub(base);
        self.dropped += other.dropped + other.kept.len().saturating_sub(room) as u64;
        self.kept
            .extend(other.kept.into_iter().take(room).map(|mut s| {
                // A parent beyond the cut is gone with it.
                s.parent = s.parent.map(|p| p + base).filter(|&p| p < KEPT_SPANS);
                s
            }));
    }

    /// The kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.kept
    }

    /// Spans recorded but not kept.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Totals of the spans named `name`.
    pub fn totals(&self, name: &str) -> Totals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Totals::default, |(_, t)| *t)
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals(name).total_ns as f64 / 1e9
    }

    /// Durations, in seconds, of the kept spans named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.kept
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// The kept spans as Chrome `trace_event` complete events: `trace`
    /// is the op id, `span` the span's index, `parent` its parent's.
    pub fn chrome(&self) -> String {
        let events: Vec<TraceEvent> = self
            .kept
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("trace", ArgValue::U64(s.op)),
                    ("span", ArgValue::U64(i as u64)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent", ArgValue::U64(p as u64)));
                }
                TraceEvent {
                    name: Cow::Borrowed(s.name),
                    cat: cat::PERF,
                    phase: Phase::Complete,
                    ts_ns: s.start_ns,
                    dur_ns: s.end_ns - s.start_ns,
                    tid: s.tid,
                    id: 0,
                    args,
                }
            })
            .collect();
        doppio_trace::chrome::export(&events, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span of `ms` milliseconds of busy time.
    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut s = Spans::new(true, 0);
        s.op("root", 1, |s| {
            busy(2);
            s.span("child", |s| s.span("leaf", |_| busy(3)));
            s.span("child", |_| busy(2));
        });
        let (root, child, leaf) = (s.totals("root"), s.totals("child"), s.totals("leaf"));
        assert_eq!((root.count, child.count, leaf.count), (1, 2, 1));
        assert_eq!(root.self_ns, root.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns - leaf.total_ns);
        assert_eq!(leaf.self_ns, leaf.total_ns);
        assert!(root.self_ns >= 2_000_000 && leaf.total_ns >= 3_000_000);
    }

    #[test]
    fn spans_nest_and_share_the_op_id() {
        let mut s = Spans::new(true, 3);
        let v = s.op("outer", 7, |s| s.span("inner", |_| 42));
        s.span("free", |_| ());
        assert_eq!(v, 42);
        let spans = s.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("outer", None, 7)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].op),
            ("inner", Some(0), 7)
        );
        assert_eq!((spans[2].op, spans[2].tid), (0, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false, 0);
        assert_eq!(s.span("x", |s| s.span("y", |_| 5)), 5);
        assert!(s.spans().is_empty());
        assert_eq!(s.totals("x"), Totals::default());
    }

    #[test]
    fn only_the_first_spans_are_kept_but_all_are_counted() {
        let mut s = Spans::new(true, 0);
        for _ in 0..KEPT_SPANS + 5 {
            s.span("x", |_| ());
        }
        assert_eq!(s.spans().len(), KEPT_SPANS);
        assert_eq!(s.dropped(), 5);
        assert_eq!(s.totals("x").count, KEPT_SPANS as u64 + 5);
    }

    #[test]
    fn absorb_rebases_parents_and_adds_totals() {
        let mut a = Spans::new(true, 0);
        a.span("a", |_| ());
        let mut b = Spans::new(true, 1);
        b.op("b", 2, |s| s.span("c", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.totals("c").count, 1);
    }

    #[test]
    fn chrome_export_round_trips_through_the_repo_parser() {
        let mut s = Spans::new(true, 0);
        s.op("fs.read", 9, |s| s.span("jsengine.run_until_idle", |_| ()));
        let (events, dropped) = doppio_trace::chrome::import(&s.chrome()).unwrap();
        assert_eq!(dropped, 0);
        let spans: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.phase == Phase::Complete)
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "jsengine.run_until_idle");
        assert!(spans[1].args.contains(&("parent", ArgValue::U64(0))));
        assert!(spans[1].args.contains(&("trace", ArgValue::U64(9))));
    }
}
