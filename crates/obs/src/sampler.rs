//! Probe sampler: decides with one relaxed `fetch_add` whether an event
//! should carry *expensive* telemetry (clock reads). Cheap telemetry
//! (counters, value histograms) stays exact; only the wall-clock-derived
//! metrics are sampled.

use std::sync::atomic::{AtomicU64, Ordering};

/// How often the sampler says yes: the first tick and every
/// `SAMPLE_PERIOD`-th tick after it.
pub const SAMPLE_PERIOD: u64 = 64;

const _: () = assert!(SAMPLE_PERIOD.is_power_of_two());

/// A 1-in-[`SAMPLE_PERIOD`] event sampler.
///
/// `tick()` costs one relaxed `fetch_add` — no clock, no branch
/// mispredict in the steady state — so hot paths can consult it on
/// every event and only pay for `Instant::now()` on the sampled ones.
/// The first tick always samples, so short-lived tests and processes
/// still observe at least one data point.
///
/// With `obs` off it is zero-sized and never samples, so the clock reads
/// it gates compile out.
#[derive(Debug)]
pub struct Sampler {
    #[cfg(feature = "obs")]
    ticks: AtomicU64,
}

impl Sampler {
    /// New sampler; its first `tick()` returns `true`.
    pub const fn new() -> Self {
        Sampler {
            #[cfg(feature = "obs")]
            ticks: AtomicU64::new(0),
        }
    }

    /// `true` when this event should carry expensive telemetry.
    #[inline]
    pub fn tick(&self) -> bool {
        #[cfg(feature = "obs")]
        {
            self.ticks.fetch_add(1, Ordering::Relaxed) & (SAMPLE_PERIOD - 1) == 0
        }
        #[cfg(not(feature = "obs"))]
        {
            false
        }
    }

    /// Rewind to the always-sampling first tick (test support).
    pub fn reset(&self) {
        #[cfg(feature = "obs")]
        self.ticks.store(0, Ordering::Relaxed);
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    #[test]
    fn first_tick_samples_then_every_period() {
        let s = Sampler::new();
        assert!(s.tick(), "first tick must sample");
        let mut sampled = 0;
        for _ in 0..(SAMPLE_PERIOD * 10 - 1) {
            if s.tick() {
                sampled += 1;
            }
        }
        assert_eq!(sampled, 9, "exactly one sample per period");
        s.reset();
        assert!(s.tick(), "reset rewinds to the sampling tick");
    }
}
