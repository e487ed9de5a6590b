//! Cancelling the host's speed changes out of the timings.
//!
//! The reference box switches between speed regimes (turbo, a busy
//! sibling hyper-thread) that last seconds and move every timing by
//! −20 % … +15 % — identical passes measured 3.5, 4.4 and 5.1 µs per frame
//! delivered within one run. A median cannot remove a regime that lasts
//! the whole run. So after every job the benchmark times a slice of a
//! fixed integer dependency chain, about 2 % of the job's own time, and
//! scales the pass's wall time by `nominal / measured` chain speed. The
//! chain touches no memory and none of the program under test, so a
//! change to the program moves the wall time and not the chain, and
//! shows in full; a change of host speed moves both and cancels. On the
//! same six runs the calibrated medians agreed within 1 % where the raw
//! ones spanned 6 %.
//!
//! What it cannot cancel: contention for memory or cache that leaves
//! integer speed alone.

use std::time::{Duration, Instant};

/// Nanoseconds per chain step on the reference box in its usual regime.
/// Calibrated times equal raw times when the host runs at this speed.
pub const NOMINAL_NS_PER_STEP: f64 = 1.55;

/// Share of each job's wall time spent calibrating after it.
const SHARE: f64 = 0.02;

/// Shortest slice, in steps (~0.15 ms): long enough for the clock reads
/// around it not to matter.
const MIN_STEPS: u64 = 100_000;

/// Times slices of the reference chain and accumulates the result.
#[derive(Debug)]
pub struct Calibrator {
    x: u32,
    steps: u64,
    spent: Duration,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut c = Calibrator {
            x: 1,
            steps: 0,
            spent: Duration::ZERO,
        };
        // Warm up so the first timed slice does not pay for the page
        // fault on this code.
        c.slice(MIN_STEPS);
        c.take();
        c
    }
}

impl Calibrator {
    #[inline(never)]
    fn slice(&mut self, steps: u64) {
        let started = Instant::now();
        let mut x = self.x;
        for _ in 0..steps {
            // One rotate, one multiply, one xor, each waiting for the
            // last: a pure latency chain. `black_box` keeps the loop.
            x = std::hint::black_box(x.rotate_left(5).wrapping_mul(0x9e37_79b1) ^ 0x5bd1_e995);
        }
        self.x = x;
        self.spent += started.elapsed();
        self.steps += steps;
    }

    /// Calibrates after a job that took `job_wall`.
    pub fn after(&mut self, job_wall: Duration) {
        let steps = (job_wall.as_nanos() as f64 * SHARE / NOMINAL_NS_PER_STEP) as u64;
        self.slice(steps.max(MIN_STEPS));
    }

    /// `nominal / measured` chain speed since the last call: above 1
    /// when the host ran faster than nominal. Multiply a wall time by it
    /// to get the calibrated time. Resets the accumulator.
    pub fn take(&mut self) -> f64 {
        let measured = self.spent.as_nanos() as f64 / self.steps.max(1) as f64;
        self.steps = 0;
        self.spent = Duration::ZERO;
        if measured > 0.0 {
            NOMINAL_NS_PER_STEP / measured
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_near_one_on_any_sane_host_and_resets() {
        let mut c = Calibrator::default();
        c.after(Duration::from_millis(50));
        let f = c.take();
        assert!((0.05..20.0).contains(&f), "speed factor {f}");
        assert_eq!(c.steps, 0);
        assert_eq!(c.take(), 1.0, "nothing measured since the reset");
    }
}
