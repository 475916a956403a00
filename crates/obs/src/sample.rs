//! Bounded trace buffering and head-based sampling.
//!
//! The tracer must be safe to leave on under a serving tier, so finished
//! traces land in a bounded ring ([`TraceRing`]) that evicts whole
//! traces oldest-first once the configured span budget is exceeded, and
//! roots are admitted by a head sampler ([`HeadSampler`]) that keeps
//! 1-in-N root spans. Sampling is decided at the *head* (when the root
//! opens) so every child span of an unsampled trace can be discarded at
//! trace finalization — except that traces marked as errored/degraded
//! are always kept regardless of the sampling decision (see
//! [`crate::trace::Tracer`]).
//!
//! Both structures are shared mutable state: the sampler is a pair of
//! atomics, and the ring is mutated under the tracer's single state
//! mutex. This is a sanctioned concurrency site (`obs::sample` in
//! `Lint.toml`, rule C1); `ring_interleaving_is_bounded_and_lossless`
//! below is its interleaving test.

use crate::trace::FinishedTrace;
use std::sync::atomic::{AtomicU64, Ordering};

/// Head-based sampler: admits 1-in-`every` root spans.
///
/// The decision is made once per root, in root-start order; children
/// inherit it through their [`crate::trace::SpanContext`]. `every <= 1`
/// admits everything.
#[derive(Debug)]
pub(crate) struct HeadSampler {
    every: u64,
    roots_seen: AtomicU64,
}

impl HeadSampler {
    pub(crate) fn new(every: u64) -> Self {
        Self {
            every,
            roots_seen: AtomicU64::new(0),
        }
    }

    /// Register one root start and decide whether its trace is sampled.
    /// The first root is always admitted.
    pub(crate) fn admit(&self) -> bool {
        let n = self.roots_seen.fetch_add(1, Ordering::Relaxed);
        self.every <= 1 || n.is_multiple_of(self.every)
    }
}

/// A bounded ring of finished traces.
///
/// Eviction is trace-granular: a trace is never split, so an exported
/// span tree is always complete. When pushing a trace would exceed
/// `max_spans`, the oldest traces are evicted until it fits — except
/// that the newest trace is always kept even if it alone exceeds the
/// budget (a truncated tree would be worse than a briefly oversized
/// buffer).
#[derive(Debug)]
pub(crate) struct TraceRing {
    max_spans: usize,
    buffered_spans: usize,
    traces: std::collections::VecDeque<FinishedTrace>,
    evicted_traces: u64,
}

impl TraceRing {
    pub(crate) fn new(max_spans: usize) -> Self {
        Self {
            max_spans: max_spans.max(1),
            buffered_spans: 0,
            traces: std::collections::VecDeque::new(),
            evicted_traces: 0,
        }
    }

    /// Append a finished trace, evicting oldest-first to stay within the
    /// span budget.
    pub(crate) fn push(&mut self, trace: FinishedTrace) {
        self.buffered_spans += trace.spans.len();
        self.traces.push_back(trace);
        while self.buffered_spans > self.max_spans && self.traces.len() > 1 {
            if let Some(evicted) = self.traces.pop_front() {
                self.buffered_spans -= evicted.spans.len();
                self.evicted_traces += 1;
            }
        }
    }

    /// The buffered traces, oldest first.
    pub(crate) fn traces(&self) -> impl Iterator<Item = &FinishedTrace> {
        self.traces.iter()
    }

    /// Spans currently buffered across all traces.
    pub(crate) fn buffered_spans(&self) -> usize {
        self.buffered_spans
    }

    /// Whole traces evicted to respect the span budget.
    pub(crate) fn evicted_traces(&self) -> u64 {
        self.evicted_traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanRecord, TickClock, Tracer, TracerConfig};
    use std::sync::Arc;

    fn trace_with(trace_id: u64, n_spans: usize) -> FinishedTrace {
        FinishedTrace {
            trace_id,
            error: false,
            spans: (0..n_spans as u64)
                .map(|i| SpanRecord {
                    id: trace_id + i,
                    parent: if i == 0 { None } else { Some(trace_id) },
                    trace_id,
                    name: format!("s{i}"),
                    start_us: 0,
                    end_us: 0,
                    attrs: Vec::new(),
                    events: Vec::new(),
                    error: false,
                })
                .collect(),
        }
    }

    #[test]
    fn sampler_keeps_one_in_n_starting_with_the_first() {
        let s = HeadSampler::new(3);
        let kept: Vec<bool> = (0..7).map(|_| s.admit()).collect();
        assert_eq!(kept, [true, false, false, true, false, false, true]);
        let all = HeadSampler::new(1);
        assert!((0..5).all(|_| all.admit()));
        let zero = HeadSampler::new(0);
        assert!((0..5).all(|_| zero.admit()));
    }

    #[test]
    fn ring_evicts_whole_traces_oldest_first() {
        let mut ring = TraceRing::new(10);
        ring.push(trace_with(100, 4));
        ring.push(trace_with(200, 4));
        ring.push(trace_with(300, 4)); // 12 spans: evict trace 100
        assert_eq!(ring.buffered_spans(), 8);
        assert_eq!(ring.evicted_traces(), 1);
        let ids: Vec<u64> = ring.traces().map(|t| t.trace_id).collect();
        assert_eq!(ids, [200, 300]);
    }

    #[test]
    fn ring_keeps_an_oversized_newest_trace() {
        let mut ring = TraceRing::new(3);
        ring.push(trace_with(100, 2));
        ring.push(trace_with(200, 8)); // alone exceeds the budget
        assert_eq!(ring.evicted_traces(), 1);
        let ids: Vec<u64> = ring.traces().map(|t| t.trace_id).collect();
        assert_eq!(ids, [200], "the newest trace survives intact");
        assert_eq!(ring.buffered_spans(), 8);
    }

    /// C1 interleaving test for the ring buffer's interior mutability:
    /// many threads finish root spans into one tracer concurrently; the
    /// ring must stay within its span budget, never split a trace, and
    /// account for every root either as buffered or evicted.
    #[test]
    fn ring_interleaving_is_bounded_and_lossless() {
        let tracer = Tracer::with_clock(
            TracerConfig {
                seed: 1,
                max_buffered_spans: 16,
                sample_one_in: 1,
            },
            Arc::new(TickClock::new()),
        );
        std::thread::scope(|s| {
            for t in 0..8 {
                let tracer = tracer.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let _root = tracer.root_span(&format!("root{t}_{i}"));
                        let _child = crate::trace::trace_span("child");
                    }
                });
            }
        });
        let finished = tracer.finished();
        let buffered: usize = finished.iter().map(|t| t.spans.len()).sum();
        assert!(buffered <= 16, "span budget respected, got {buffered}");
        for t in &finished {
            assert_eq!(t.spans.len(), 2, "traces are never split");
        }
        let kept = finished.len() as u64;
        assert_eq!(kept + tracer.evicted_traces(), 8 * 50);
    }
}
