//! A virtual clock for deterministic resilience policy.
//!
//! Everything in the fault-tolerance layer — fault-injection latency
//! schedules ([`crate::FaultyResource`]), retry backoff, circuit-breaker
//! cooldowns, and per-query time budgets ([`crate::ResilientResource`])
//! — measures time against this counter instead of the wall clock. Time
//! only moves when a component *advances* it (a simulated query latency,
//! a backoff wait), so every failure scenario replays identically and
//! the facet-lint D2 wall-clock rule stays clean outside facet-obs.
//!
//! The counter is an `Arc`-shared atomic: clones observe the same
//! timeline, and concurrent advances accumulate (totals are
//! deterministic even when per-thread observation order is not).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, monotonically non-decreasing virtual time in microseconds.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A new clock at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Advance the clock by `us` microseconds; returns the new time.
    /// All clones of this clock observe the advance.
    pub fn advance_us(&self, us: u64) -> u64 {
        self.0.fetch_add(us, Ordering::AcqRel) + us
    }
}

/// A virtual clock can drive trace timestamps, so traces of
/// fault-injection scenarios share the simulated timeline with the
/// backoff/cooldown schedules — and are byte-reproducible when the
/// traced region is serial (see `facet_obs::export`).
impl facet_obs::TraceClock for VirtualClock {
    fn trace_now_us(&self) -> u64 {
        self.now_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_timeline() {
        let a = VirtualClock::new();
        let b = a.clone();
        assert_eq!(a.now_us(), 0);
        assert_eq!(a.advance_us(500), 500);
        assert_eq!(b.now_us(), 500);
        b.advance_us(250);
        assert_eq!(a.now_us(), 750);
    }

    #[test]
    fn concurrent_advances_accumulate() {
        let c = VirtualClock::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        c.advance_us(3);
                    }
                });
            }
        });
        assert_eq!(c.now_us(), 8 * 100 * 3);
    }
}
