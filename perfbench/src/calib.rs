//! Machine-speed calibration of the end-to-end timings.
//!
//! On a shared 2-core VM the speed of the machine drifts by 10–20% over
//! tens of seconds as other tenants come and go, and the drift moves
//! every timing of a run together: the same seed, run four times in a
//! row, read 2 398 to 2 640 events/s on `fleet-churn-durable`. Right
//! before each timed input (a scenario or a task set) the benchmark
//! times a fixed kernel that shares no code with tagio: sorting and a
//! B-tree build over pseudo-random keys, allocation-heavy like the
//! admission path. The input's end-to-end timings are scaled by
//! [`REFERENCE_S`] ÷ that kernel time, so they read as seconds on the
//! reference box at its typical speed. With the scaling, the same four
//! runs agreed within 1.4%. The raw rate is printed as a note, and the
//! traced run reports the slow-down as `calib.slowdown`.
//!
//! The kernel does not run inside any timed region, so a change to
//! tagio moves the scaled timings exactly as it moves the raw ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's typical time on the reference box (2-core VM).
pub const REFERENCE_S: f64 = 2.75e-3;

/// Keys the kernel sorts and inserts.
const KEYS: u64 = 20_000;

/// One run of the kernel; returns its wall time in seconds.
#[must_use]
pub fn kernel() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut tree = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        tree.insert(k % (KEYS * 5 / 2), i);
    }
    black_box(tree.values().sum::<usize>());
    started.elapsed().as_secs_f64()
}

/// The factor that maps the timings of the input about to run to
/// reference seconds: [`REFERENCE_S`] ÷ the faster of two kernel runs
/// (the faster one, so that an interrupt during one run does not skew
/// it).
#[must_use]
pub fn scale() -> f64 {
    REFERENCE_S / kernel().min(kernel())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_time_is_positive_and_scale_finite() {
        let s = scale();
        assert!(s.is_finite() && s > 0.0, "{s}");
        assert!(kernel() > 0.0);
    }
}
