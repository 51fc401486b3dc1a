//! Machine-speed calibration.
//!
//! The benchmark shares its machine with other tenants, whose load slows
//! everything it runs by up to ~1.8× for minutes at a time. So the run
//! also times a fixed slice of work of its own — sorting a fixed stream
//! of keys, code the program under test never changes — interleaved
//! with the operations. Host times are reported as measured ×
//! (reference slice time / slice time), with the slice time taken the
//! way the times it calibrates are:
//!
//! - raw samples (every request, every set-up) by the **median** slice:
//!   the neighbours' load slows a typical slice as it slows a typical
//!   operation, so a run on a busy machine has slower operations *and* a
//!   slower median slice, and the ratio cancels;
//! - best-of-repeats times by the **best** slice: both are what the
//!   machine does in its quietest moments.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Keys sorted by one slice (a 320 KiB working set, like the
/// simulator's).
const SLICE_KEYS: usize = 40_000;

/// Slice time on the reference machine (a 2-vCPU Sapphire Rapids VM)
/// when quiet, µs. Calibrated times are in that machine's microseconds.
pub const REFERENCE_SLICE_US: f64 = 850.0;

/// Every slice time of a run.
pub struct Calibration {
    keys: Vec<u64>,
    slices_us: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            keys: vec![0; SLICE_KEYS],
            slices_us: Vec::new(),
        }
    }
}

impl Calibration {
    /// Times one slice: refill the keys from a fixed xorshift stream and
    /// sort them. Returns the slice's time, µs.
    pub fn slice(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        self.keys.sort_unstable();
        black_box(&self.keys);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.slices_us.push(us);
        us
    }

    /// Folds another calibration's slices into this one.
    pub fn merge(&mut self, other: &Calibration) {
        self.slices_us.extend_from_slice(&other.slices_us);
    }

    /// Median slice time, µs (infinite before the first slice).
    pub fn median_us(&self) -> f64 {
        median_or_inf(&self.slices_us)
    }

    /// Best slice time, µs (infinite before the first slice).
    pub fn best_us(&self) -> f64 {
        self.slices_us.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Multiplier from this run's raw times to reference-machine times.
    pub fn median_factor(&self) -> f64 {
        REFERENCE_SLICE_US / self.median_us()
    }

    /// Multiplier from this run's best-of-repeats times to
    /// reference-machine times.
    pub fn best_factor(&self) -> f64 {
        REFERENCE_SLICE_US / self.best_us()
    }
}

fn median_or_inf(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::INFINITY
    } else {
        stats::median(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_median_and_best_slices_set_the_factors() {
        let mut c = Calibration::default();
        assert!(c.median_us().is_infinite());
        c.slice();
        assert!(c.median_us() > 0.0 && c.median_us().is_finite());
        assert!(c.keys.windows(2).all(|w| w[0] <= w[1]));
        let other = Calibration {
            keys: Vec::new(),
            slices_us: vec![1e6, 1e6],
        };
        c.merge(&other);
        assert_eq!(c.median_us(), 1e6, "median of three slices");
        assert_eq!(c.median_factor(), REFERENCE_SLICE_US / 1e6);
        assert!(c.best_us() < 1e6);
        assert_eq!(c.best_factor(), REFERENCE_SLICE_US / c.best_us());
    }
}
