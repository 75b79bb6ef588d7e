//! Host-speed calibration.
//!
//! A shared host runs this benchmark at a speed that drifts by up to
//! half for minutes at a time, as other machines' work contends for the
//! same cores and caches. A fixed kernel of the benchmark's own code —
//! allocation, tree walks, ordered-map churn and a `match`-dispatched
//! stack machine, the kinds of work the interpreter and the fs do — runs
//! between units of work, and its fastest time in the run measures the
//! host's speed. End-to-end times are scaled by `NOMINAL_S / fastest`,
//! so they read in the seconds of a host on which the kernel takes
//! `NOMINAL_S`, and a slow period of the host does not read as a slower
//! program. The kernel is part of the benchmark: a change to the
//! program cannot change it.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Kernel seconds on the reference host the scaled times are quoted in.
pub const NOMINAL_S: f64 = 0.012;

/// Least host time between two kernel runs: about a tenth of the run
/// goes to calibration, so its fastest time comes from ~100 runs.
const EVERY: Duration = Duration::from_millis(100);

thread_local! {
    /// Fastest kernel time so far and when the kernel last ran.
    static STATE: Cell<(f64, Option<Instant>)> = const { Cell::new((f64::INFINITY, None)) };
}

/// The calibration kernel; returns a checksum so it cannot be elided.
pub fn kernel() -> u64 {
    // Allocate and walk complete binary trees.
    enum Tree {
        Leaf,
        Node(Box<Tree>, Box<Tree>, i64),
    }
    fn make(i: i64, depth: u32) -> Tree {
        if depth == 0 {
            Tree::Leaf
        } else {
            Tree::Node(
                Box::new(make(2 * i - 1, depth - 1)),
                Box::new(make(2 * i, depth - 1)),
                i,
            )
        }
    }
    fn check(t: &Tree) -> i64 {
        match t {
            Tree::Leaf => 0,
            Tree::Node(l, r, i) => i.wrapping_add(check(l)).wrapping_sub(check(r)),
        }
    }
    let mut sum = 0i64;
    for i in 0..20 {
        sum = sum.wrapping_add(check(&make(i, 13)));
    }

    // Ordered-map churn over small byte vectors.
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut x = 7u64;
    for i in 0..20_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = x % 8_000;
        if i % 3 == 0 {
            map.remove(&k);
        } else {
            map.entry(k)
                .or_insert_with(|| vec![0; (x % 64) as usize])
                .push(1);
        }
    }

    // A stack machine running a fixed pseudo-random program.
    let code: Vec<u8> = (0..4096u64)
        .map(|i| ((i.wrapping_mul(0x9E3779B97F4A7C15) >> 59) % 8) as u8)
        .collect();
    let mut stack: Vec<i64> = vec![1, 2, 3];
    let mut acc = 0i64;
    for round in 0..50i64 {
        for (pc, &op) in code.iter().enumerate() {
            match op {
                0 => stack.push(pc as i64),
                1 => {
                    let a = stack.pop().unwrap_or(1);
                    let b = stack.pop().unwrap_or(2);
                    stack.push(a.wrapping_add(b));
                }
                2 => {
                    let a = stack.pop().unwrap_or(1);
                    stack.push(a.wrapping_mul(3) ^ round);
                }
                3 if stack.len() > 64 => stack.truncate(4),
                4 => acc = acc.wrapping_add(stack.last().copied().unwrap_or(0)),
                5 => stack.push(acc >> 3),
                6 => {
                    let a = stack.pop().unwrap_or(7);
                    stack.push(a.wrapping_sub(pc as i64));
                }
                _ => acc ^= round,
            }
        }
    }
    (sum ^ acc) as u64 ^ map.len() as u64 ^ stack.len() as u64
}

/// Run the kernel if this thread has not run it for [`EVERY`],
/// keeping its fastest time. Cheap when not due.
pub fn tick() {
    let (fastest, last) = STATE.get();
    if last.is_none_or(|t| t.elapsed() >= EVERY) {
        let t0 = Instant::now();
        std::hint::black_box(kernel());
        let s = t0.elapsed().as_secs_f64();
        STATE.set((fastest.min(s), Some(Instant::now())));
    }
}

/// The kernel's fastest time so far on this thread, in seconds
/// (running it once if it has not run).
pub fn fastest_s() -> f64 {
    tick();
    STATE.get().0
}

/// Factor that turns this host's seconds into reference seconds.
pub fn scale() -> f64 {
    NOMINAL_S / fastest_s()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scale_is_positive() {
        assert_eq!(kernel(), kernel());
        let s = scale();
        assert!(s.is_finite() && s > 0.0);
        // A later tick never makes the fastest time slower.
        let before = fastest_s();
        tick();
        assert!(fastest_s() <= before);
    }
}
