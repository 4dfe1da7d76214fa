//! Host-speed calibration of the end-to-end host times.
//!
//! The benchmark's host is shared: a fixed CPU-bound loop there runs up
//! to half again as slow in some minutes as in others, and such phases
//! outlast a run, so raw host times of one program spread more between
//! runs than any useful bound. Host times are therefore reported in
//! *calibrated* units. A fixed reference kernel, which lives in this file
//! and in no crate the benchmark measures, runs in a short slice after
//! every measured chunk (before and after every fleet device), and each
//! host time is scaled by the speed of the slice run beside it:
//!
//! ```text
//! calibrated = measured × NOMINAL_NS_PER_UNIT / (reference ns per unit beside it)
//! ```
//!
//! A change to the emulator moves the measured time and not the
//! reference, so it moves the calibrated time by the same factor; a slow
//! phase of the host slows both and cancels out. The kernel is built
//! from what the emulator spends its time on (a binary heap, an ordered
//! map, small short-lived vectors): of the kernels tried, it tracked the
//! emulator's speed best, halving the spread of raw host times between
//! 25-second windows on `secure_churn` and `observed_readmostly`. The
//! raw host times are printed beside the calibrated ones.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel nanoseconds per unit that calibrated time assumes:
/// the kernel's median speed on a 2-core x86-64 container, so calibrated
/// times there read close to raw ones.
pub const NOMINAL_NS_PER_UNIT: f64 = 50_000.0;

/// Operations per unit: each pushes onto a heap and inserts a 4-element
/// vector into an ordered map; every third also pops the heap.
const OPS_PER_UNIT: u64 = 256;

/// One unit of reference work; the same work on every call.
fn unit() -> u64 {
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..OPS_PER_UNIT {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        heap.push((x >> 20, i));
        map.insert(x >> 30, vec![i; 4]);
        if i % 3 == 0 {
            heap.pop();
        }
    }
    map.values().map(|v| v[0]).sum::<u64>() ^ heap.peek().map_or(0, |p| p.0)
}

/// Runs one slice of `units` units; returns its nanoseconds per unit.
pub fn slice(units: usize) -> f64 {
    let units = units.max(1);
    let t0 = Instant::now();
    for _ in 0..units {
        black_box(unit());
    }
    t0.elapsed().as_nanos() as f64 / units as f64
}

/// Factor turning host time measured beside slices that ran at
/// `ns_per_unit` into calibrated time.
pub fn factor(ns_per_unit: f64) -> f64 {
    crate::stats::ratio(NOMINAL_NS_PER_UNIT, ns_per_unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_deterministic_and_slices_are_timed() {
        assert_eq!(unit(), unit());
        let ns = slice(2);
        assert!(ns > 0.0);
        assert!(factor(ns) > 0.0);
        assert_eq!(factor(NOMINAL_NS_PER_UNIT), 1.0);
    }
}
