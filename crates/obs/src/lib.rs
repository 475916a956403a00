//! Observability layer for the facet-extraction pipeline.
//!
//! Everything hangs off a [`Recorder`]: a thread-safe registry of
//! hierarchical span timers, named counters, and log-bucketed
//! histograms. A recorder is either *enabled* (allocating) or
//! *disabled* (a `None` inner — every operation is a cheap no-op), so
//! instrumented code paths can unconditionally call into it:
//!
//! ```
//! use facet_obs::Recorder;
//!
//! let recorder = Recorder::enabled();
//! {
//!     let _run = recorder.span("run");
//!     let _sel = recorder.span("selection"); // nests: "run.selection"
//!     recorder.incr("resource.google.queries");
//!     recorder.observe("resource.google.latency_us", 180);
//! }
//! let report = recorder.snapshot();
//! assert_eq!(report.counters[0].value, 1);
//! ```
//!
//! Span nesting is tracked per thread: a span entered while another is
//! open records under the dot-joined path (`"run.selection"`). Counters
//! and histograms can also be pre-resolved into [`Counter`] /
//! [`HistogramHandle`] handles for hot loops, skipping the name lookup.
//!
//! Snapshots ([`Recorder::snapshot`]) serialize with `serde` and are
//! deterministic modulo timing fields;
//! [`Recorder::snapshot_counts_only`] is byte-identical across runs.

#![warn(missing_docs)]

pub mod export;
mod hist;
mod report;
mod sample;
pub mod trace;

pub use hist::{bucket_index, bucket_upper_bound, Histogram};
pub use report::{BucketReport, CounterReport, HistogramReport, MetricsReport, SpanReport};
pub use trace::{
    current_context, trace_attr, trace_error, trace_event, trace_span, AttrValue, FinishedTrace,
    SpanContext, SpanRecord, TickClock, TraceClock, TraceEvent, TraceSpanGuard, Tracer,
    TracerConfig, WallTraceClock,
};

use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Default)]
struct SpanStat {
    count: u64,
    total_us: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Mutex<HashMap<String, SpanStat>>,
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    /// When attached ([`Recorder::traced`]), every [`Recorder::span`]
    /// call site also opens a hierarchical trace span.
    tracer: Option<Tracer>,
}

thread_local! {
    /// Per-thread stack of open span names, for dotted-path nesting.
    static SPAN_PATH: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// A registry of spans, counters, and histograms.
///
/// Construct with [`Recorder::enabled`] or [`Recorder::disabled`]; the
/// disabled form never allocates and all its operations are no-ops, so
/// a `&Recorder` can be threaded through code unconditionally. Cloning
/// is cheap and clones share the same registry.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

/// The shared disabled recorder returned by [`Recorder::disabled_ref`].
static DISABLED: Recorder = Recorder { inner: None };

impl Recorder {
    /// A recording (allocating) recorder.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A recording recorder with a [`Tracer`] attached: every
    /// [`Recorder::span`] call site also opens a hierarchical trace
    /// span (a root when no span is open on the thread, a child
    /// otherwise), so the whole instrumented pipeline produces causal
    /// traces without any call-site changes.
    pub fn traced(tracer: Tracer) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                tracer: Some(tracer),
                ..Inner::default()
            })),
        }
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.as_ref().and_then(|inner| inner.tracer.as_ref())
    }

    /// A no-op recorder: every operation returns immediately.
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// A `'static` reference to a shared no-op recorder, for call sites
    /// that need a `&Recorder` default.
    pub fn disabled_ref() -> &'static Recorder {
        &DISABLED
    }

    /// Enter a named span; timing stops when the guard drops. Spans
    /// entered while another span is open on the same thread record
    /// under the dot-joined path (`"outer.inner"`).
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.span_under(None, name)
    }

    /// [`Recorder::span`] with explicit cross-thread trace parenting:
    /// when a [`Tracer`] is attached and no span is open on this thread,
    /// the trace span is parented at `parent` (captured on the spawning
    /// thread with [`current_context`]) instead of starting a new trace.
    /// The flat metric side is identical to [`Recorder::span`].
    pub fn span_under(&self, parent: Option<SpanContext>, name: &str) -> SpanGuard<'_> {
        match &self.inner {
            None => SpanGuard {
                inner: None,
                traced: false,
            },
            Some(inner) => {
                let path = SPAN_PATH.with(|stack| {
                    let mut stack = stack.borrow_mut();
                    stack.push(name.to_string());
                    stack.join(".")
                });
                let traced = trace::attach_span(inner.tracer.as_ref(), parent, name);
                SpanGuard {
                    inner: Some((inner.as_ref(), path, Instant::now(), self)),
                    traced,
                }
            }
        }
    }

    /// Add `delta` to the named counter (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            counter_handle(inner, name).fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increment the named counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Record one observation into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            histogram_handle(inner, name).record(value);
        }
    }

    /// Pre-resolve a counter for hot loops: the returned handle
    /// increments without any name lookup or locking.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| counter_handle(inner, name)),
        }
    }

    /// Pre-resolve a histogram for hot loops.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle {
            hist: self
                .inner
                .as_ref()
                .map(|inner| histogram_handle(inner, name)),
        }
    }

    /// Snapshot all metrics, sorted by name. Safe to call while other
    /// threads are still recording (counts may trail by in-flight
    /// updates).
    pub fn snapshot(&self) -> MetricsReport {
        let Some(inner) = &self.inner else {
            return MetricsReport {
                spans: Vec::new(),
                counters: Vec::new(),
                histograms: Vec::new(),
            };
        };
        let mut spans: Vec<SpanReport> = inner
            .spans
            .lock()
            .iter()
            .map(|(path, s)| SpanReport {
                path: path.clone(),
                count: s.count,
                total_us: s.total_us,
            })
            .collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        let mut counters: Vec<CounterReport> = inner
            .counters
            .read()
            .iter()
            .map(|(name, v)| CounterReport {
                name: name.clone(),
                value: v.load(Ordering::Relaxed),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramReport> = inner
            .histograms
            .read()
            .iter()
            .map(|(name, h)| HistogramReport {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                min: h.min().unwrap_or(0),
                max: h.max().unwrap_or(0),
                buckets: h
                    .nonzero_buckets()
                    .into_iter()
                    .map(|(le, count)| BucketReport { le, count })
                    .collect(),
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsReport {
            spans,
            counters,
            histograms,
        }
    }

    /// Fully deterministic snapshot: counts only, no wall-clock fields.
    pub fn snapshot_counts_only(&self) -> BTreeMap<String, u64> {
        self.snapshot().counts_only()
    }
}

fn counter_handle(inner: &Inner, name: &str) -> Arc<AtomicU64> {
    if let Some(c) = inner.counters.read().get(name) {
        return Arc::clone(c);
    }
    let mut map = inner.counters.write();
    Arc::clone(map.entry(name.to_string()).or_default())
}

fn histogram_handle(inner: &Inner, name: &str) -> Arc<Histogram> {
    if let Some(h) = inner.histograms.read().get(name) {
        return Arc::clone(h);
    }
    let mut map = inner.histograms.write();
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new())),
    )
}

/// RAII guard for an open span; records elapsed time on drop.
#[derive(Debug)]
#[must_use = "a span records when the guard drops; binding to _ drops immediately"]
pub struct SpanGuard<'a> {
    /// `(registry, full path, start, owner)` — `None` when disabled.
    inner: Option<(&'a Inner, String, Instant, &'a Recorder)>,
    /// Whether this guard also opened a trace span (closed on drop).
    traced: bool,
}

impl SpanGuard<'_> {
    /// Set a typed attribute on this guard's trace span. No-op without
    /// an attached [`Tracer`]. Set attributes before opening child
    /// spans: they attach to the innermost open span.
    pub fn attr(&self, key: &str, value: impl Into<AttrValue>) {
        if self.traced {
            trace::trace_attr(key, value);
        }
    }

    /// Mark this guard's trace span (and so its trace) as errored;
    /// errored traces bypass head sampling.
    pub fn set_error(&self) {
        if self.traced {
            trace::trace_error();
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((inner, path, start, _)) = self.inner.take() {
            let elapsed_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            SPAN_PATH.with(|stack| {
                stack.borrow_mut().pop();
            });
            let mut spans = inner.spans.lock();
            let stat = spans.entry(path).or_default();
            stat.count += 1;
            stat.total_us += elapsed_us;
        }
        if self.traced {
            trace::finish_top();
        }
    }
}

/// A pre-resolved counter handle; see [`Recorder::counter`].
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A handle that discards increments (disabled recorder).
    pub const fn noop() -> Self {
        Self { cell: None }
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A pre-resolved histogram handle; see [`Recorder::histogram`].
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle {
    hist: Option<Arc<Histogram>>,
}

impl HistogramHandle {
    /// A handle that discards observations (disabled recorder).
    pub const fn noop() -> Self {
        Self { hist: None }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.hist {
            h.record(value);
        }
    }

    /// Run `f`, recording its wall-clock duration when this handle is
    /// live (a [`HistogramHandle::noop`] skips the clock entirely).
    ///
    /// This is the sanctioned way for pipeline crates to time work: the
    /// `Instant` stays inside facet-obs, so instrumented code never
    /// touches the wall clock itself (lint rule D2).
    pub fn time_if<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.hist {
            None => f(),
            Some(h) => {
                let start = Instant::now();
                let out = f();
                h.record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
                out
            }
        }
    }
}

/// Time a closure under a span only if `recorder` is enabled; the
/// closure runs either way.
pub fn timed<T>(recorder: &Recorder, name: &str, f: impl FnOnce() -> T) -> T {
    let _guard = recorder.span(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        {
            let _g = r.span("run");
            r.incr("hits");
            r.observe("latency", 10);
            r.counter("hot").add(5);
        }
        let report = r.snapshot();
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.histograms.is_empty());
        assert!(r.snapshot_counts_only().is_empty());
        let shared = Recorder::disabled_ref();
        shared.incr("hits");
        assert!(shared.snapshot_counts_only().is_empty());
    }

    #[test]
    fn spans_nest_per_thread() {
        let r = Recorder::enabled();
        {
            let _outer = r.span("run");
            {
                let _inner = r.span("expand");
            }
            {
                let _inner = r.span("expand");
            }
            {
                let _inner = r.span("select");
            }
        }
        {
            let _top = r.span("select");
        }
        let report = r.snapshot();
        let paths: Vec<(&str, u64)> = report
            .spans
            .iter()
            .map(|s| (s.path.as_str(), s.count))
            .collect();
        assert_eq!(
            paths,
            vec![
                ("run", 1),
                ("run.expand", 2),
                ("run.select", 1),
                ("select", 1)
            ]
        );
    }

    #[test]
    fn counters_and_histograms_register() {
        let r = Recorder::enabled();
        r.incr("a");
        r.add("a", 4);
        r.observe("lat", 100);
        r.observe("lat", 3);
        let report = r.snapshot();
        assert_eq!(report.counters.len(), 1);
        assert_eq!(report.counters[0].value, 5);
        assert_eq!(report.histograms[0].count, 2);
        assert_eq!(report.histograms[0].sum, 103);
        assert_eq!(report.histograms[0].min, 3);
        assert_eq!(report.histograms[0].max, 100);
    }

    #[test]
    fn concurrent_counter_increments_are_exact() {
        let r = Recorder::enabled();
        let handle = r.counter("shared");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = handle.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        h.incr();
                    }
                });
            }
            // Name-based updates race with handle-based ones safely.
            for _ in 0..1000 {
                r.incr("shared");
            }
        });
        assert_eq!(handle.get(), 8 * 10_000 + 1000);
        let counts = r.snapshot_counts_only();
        assert_eq!(counts["counter.shared"], 81_000);
    }

    #[test]
    fn concurrent_histogram_recording() {
        let r = Recorder::enabled();
        let h = r.histogram("lat");
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let report = r.snapshot();
        assert_eq!(report.histograms[0].count, 4000);
        assert_eq!(report.histograms[0].min, 0);
        assert_eq!(report.histograms[0].max, 3999);
    }

    #[test]
    fn timed_runs_closure() {
        let r = Recorder::enabled();
        let v = timed(&r, "work", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(r.snapshot().spans[0].count, 1);
        let d = Recorder::disabled();
        assert_eq!(timed(&d, "work", || 7), 7);
    }

    #[test]
    fn snapshot_serializes_deterministically() {
        let r = Recorder::enabled();
        r.incr("b");
        r.incr("a");
        let counts = r.snapshot_counts_only();
        let keys: Vec<&String> = counts.keys().collect();
        assert_eq!(keys, ["counter.a", "counter.b"]);
    }
}
