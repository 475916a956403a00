//! Hierarchical causal tracing: span trees, typed attributes, and
//! deterministic identity.
//!
//! The flat [`crate::Recorder`] metrics answer *how much*; a
//! [`Tracer`] answers *which query, which stage, which retry*. Every
//! span records its parent, so a traced run reconstructs as a tree
//! (`run → append → expand → resource.query → attempt`), and
//! spans carry typed key/value attributes ([`AttrValue`]) and point
//! events ([`TraceEvent`]) such as cache hits or breaker transitions.
//!
//! **Determinism.** Span ids come from a seeded counter
//! ([`TracerConfig::seed`]), never from RNG, and timestamps come from a
//! pluggable [`TraceClock`] — the wall clock ([`WallTraceClock`]) for
//! production profiles, or a deterministic clock (a [`TickClock`], or
//! the resource layer's virtual clock) when byte-identical exports are
//! required. With a deterministic clock and a serial traced region, two
//! runs produce byte-identical exports (see [`crate::export`]). No
//! wall-clock read or RNG escapes this crate, keeping lint rules D2/D3
//! clean.
//!
//! **Propagation.** The active span is tracked in a thread-local stack:
//! opening a span under an open span parents it automatically, and the
//! free functions ([`trace_span`], [`trace_attr`], [`trace_event`],
//! [`trace_error`]) attach to the innermost open span without any
//! handle plumbing — which is how deep layers (the resource cache, the
//! retry loop) annotate traces they never knew existed. Crossing a
//! thread boundary is explicit: capture a [`SpanContext`] with
//! [`current_context`] and open the child with
//! [`crate::Recorder::span_under`] on the worker.
//!
//! **Bounded memory.** Finished traces land in a bounded ring with
//! head-based sampling (see the `sample` module); traces containing an
//! errored span are always retained, sampled or not.

use crate::sample::{HeadSampler, TraceRing};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// clocks
// ---------------------------------------------------------------------------

/// A time source for trace timestamps, in microseconds.
///
/// Implemented by [`WallTraceClock`] (wall time, inside facet-obs so
/// lint rule D2 stays clean) and [`TickClock`] (deterministic), and by
/// the resource layer's virtual clock so traces of fault-injection
/// scenarios share the simulated timeline.
pub trait TraceClock: Send + Sync + std::fmt::Debug {
    /// Current time in microseconds on this clock's timeline.
    fn trace_now_us(&self) -> u64;
}

/// Wall-clock time source: microseconds since the clock was created.
///
/// This is the only wall-clock read in the tracing layer; it lives in
/// facet-obs so instrumented crates never touch `Instant` themselves
/// (lint rule D2).
#[derive(Debug)]
pub struct WallTraceClock {
    epoch: Instant,
}

impl WallTraceClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallTraceClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceClock for WallTraceClock {
    fn trace_now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

/// A deterministic clock that advances by one microsecond per read.
///
/// Serial traced regions get strictly increasing, run-independent
/// timestamps — the clock used by the byte-determinism tests.
#[derive(Debug, Default)]
pub struct TickClock {
    ticks: AtomicU64,
}

impl TickClock {
    /// A tick clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceClock for TickClock {
    fn trace_now_us(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// span data
// ---------------------------------------------------------------------------

/// A typed attribute value on a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (doc counts, shard indices, retry attempts…).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Boolean flag.
    Bool(bool),
    /// String (term, resource name, breaker state…).
    Str(String),
}

impl AttrValue {
    /// Render as a plain string, as the exporters emit it.
    pub fn render(&self) -> String {
        match self {
            AttrValue::U64(v) => v.to_string(),
            AttrValue::I64(v) => v.to_string(),
            AttrValue::Bool(v) => v.to_string(),
            AttrValue::Str(s) => s.clone(),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// A point-in-time event inside a span (cache hit, breaker transition…).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (e.g. `"cache.hit"`).
    pub name: String,
    /// Timestamp on the tracer's clock.
    pub at_us: u64,
    /// Typed attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id, unique per tracer (seeded counter).
    pub id: u64,
    /// Parent span id; `None` for a trace root.
    pub parent: Option<u64>,
    /// Id of the root span of this span's trace.
    pub trace_id: u64,
    /// Span name (e.g. `"append.shard0"`).
    pub name: String,
    /// Start timestamp on the tracer's clock.
    pub start_us: u64,
    /// End timestamp on the tracer's clock.
    pub end_us: u64,
    /// Typed attributes, in the order they were set.
    pub attrs: Vec<(String, AttrValue)>,
    /// Point events, in the order they occurred.
    pub events: Vec<TraceEvent>,
    /// Whether this span was marked as errored ([`trace_error`]).
    pub error: bool,
}

/// A finalized trace: the complete span set of one root.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedTrace {
    /// Root span id.
    pub trace_id: u64,
    /// Whether any span in the trace errored (such traces bypass
    /// sampling and are always retained).
    pub error: bool,
    /// All spans of the trace, in completion order. Exporters rebuild
    /// and canonically order the tree from the parent links.
    pub spans: Vec<SpanRecord>,
}

/// The portable identity of an open span, for explicit cross-thread
/// parenting: capture with [`current_context`] before spawning, open the
/// child with [`crate::Recorder::span_under`] on the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Trace (root span) id.
    pub trace_id: u64,
    /// The span that will become the child's parent.
    pub span_id: u64,
    /// The trace's head-sampling decision, inherited by children.
    pub sampled: bool,
}

// ---------------------------------------------------------------------------
// tracer
// ---------------------------------------------------------------------------

/// Configuration for a [`Tracer`].
#[derive(Debug, Clone)]
pub struct TracerConfig {
    /// First span id of the seeded id counter. Ids are `seed, seed+1, …`
    /// in span-open order, so a serial traced region is id-deterministic.
    pub seed: u64,
    /// Span budget of the finished-trace ring; oldest whole traces are
    /// evicted beyond it (see the `sample` module).
    pub max_buffered_spans: usize,
    /// Head sampling: keep 1-in-N root spans (error traces are always
    /// kept). `1` keeps everything.
    pub sample_one_in: u64,
}

impl Default for TracerConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            max_buffered_spans: 1 << 16,
            sample_one_in: 1,
        }
    }
}

/// An in-progress trace: spans buffered until the root finishes.
#[derive(Debug, Default)]
struct PendingTrace {
    spans: Vec<SpanRecord>,
    error: bool,
    sampled: bool,
}

#[derive(Debug)]
struct TracerState {
    pending: HashMap<u64, PendingTrace>,
    ring: TraceRing,
    /// Unsampled, error-free traces discarded at finalization.
    unsampled_traces: u64,
}

#[derive(Debug)]
struct TracerInner {
    clock: Arc<dyn TraceClock>,
    next_id: AtomicU64,
    sampler: HeadSampler,
    state: Mutex<TracerState>,
}

/// A hierarchical span recorder. Cloning is cheap; clones share the
/// same clock, id counter, and buffers.
///
/// Attach to a [`crate::Recorder`] with [`crate::Recorder::traced`] so
/// every `recorder.span(..)` call site in the pipeline opens a trace
/// span automatically, or open roots directly with
/// [`Tracer::root_span`].
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer on the wall clock ([`WallTraceClock`]).
    pub fn new(config: TracerConfig) -> Self {
        Self::with_clock(config, Arc::new(WallTraceClock::new()))
    }

    /// A tracer on an explicit clock — a [`TickClock`] or the resource
    /// layer's virtual clock for byte-deterministic exports.
    pub fn with_clock(config: TracerConfig, clock: Arc<dyn TraceClock>) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                clock,
                next_id: AtomicU64::new(config.seed),
                sampler: HeadSampler::new(config.sample_one_in),
                state: Mutex::new(TracerState {
                    pending: HashMap::new(),
                    ring: TraceRing::new(config.max_buffered_spans),
                    unsampled_traces: 0,
                }),
            }),
        }
    }

    fn alloc_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn now_us(&self) -> u64 {
        self.inner.clock.trace_now_us()
    }

    /// Open a new root span (a new trace) on this thread, regardless of
    /// any open span. The returned guard finishes the span on drop.
    pub fn root_span(&self, name: &str) -> TraceSpanGuard {
        let id = self.alloc_id();
        let sampled = self.inner.sampler.admit();
        self.inner.state.lock().pending.insert(
            id,
            PendingTrace {
                spans: Vec::new(),
                error: false,
                sampled,
            },
        );
        push_open(OpenSpan {
            tracer: self.clone(),
            id,
            parent: None,
            trace_id: id,
            sampled,
            name: name.to_string(),
            start_us: self.now_us(),
            attrs: Vec::new(),
            events: Vec::new(),
            error: false,
        });
        TraceSpanGuard { active: true }
    }

    /// Open a span under an explicit parent context (cross-thread
    /// propagation). The guard finishes the span on drop.
    pub fn span_under(&self, parent: SpanContext, name: &str) -> TraceSpanGuard {
        push_open(OpenSpan {
            tracer: self.clone(),
            id: self.alloc_id(),
            parent: Some(parent.span_id),
            trace_id: parent.trace_id,
            sampled: parent.sampled,
            name: name.to_string(),
            start_us: self.now_us(),
            attrs: Vec::new(),
            events: Vec::new(),
            error: false,
        });
        TraceSpanGuard { active: true }
    }

    /// Snapshot the finished traces currently buffered, oldest first.
    pub fn finished(&self) -> Vec<FinishedTrace> {
        self.inner.state.lock().ring.traces().cloned().collect()
    }

    /// Spans currently buffered across all finished traces.
    pub fn buffered_spans(&self) -> usize {
        self.inner.state.lock().ring.buffered_spans()
    }

    /// Whole traces evicted from the ring to respect the span budget.
    pub fn evicted_traces(&self) -> u64 {
        self.inner.state.lock().ring.evicted_traces()
    }

    /// Error-free traces discarded by head sampling.
    pub fn unsampled_traces(&self) -> u64 {
        self.inner.state.lock().unsampled_traces
    }

    /// Total root spans started, sampled or not.
    pub fn roots_started(&self) -> u64 {
        self.inner.sampler.roots_seen()
    }

    /// Export the buffered traces as Chrome trace-event JSON (see
    /// [`crate::export::chrome_trace_json`]).
    pub fn chrome_trace_json(&self) -> String {
        crate::export::chrome_trace_json(&self.finished())
    }

    /// Export the buffered traces as folded flamegraph stacks (see
    /// [`crate::export::folded_stacks`]).
    pub fn folded_stacks(&self) -> String {
        crate::export::folded_stacks(&self.finished())
    }

    /// File a completed span under its trace; finalize the trace when
    /// the root completes.
    fn finish_record(&self, record: SpanRecord) {
        let is_root = record.parent.is_none() && record.id == record.trace_id;
        let trace_id = record.trace_id;
        let error = record.error;
        let mut state = self.inner.state.lock();
        let Some(pending) = state.pending.get_mut(&trace_id) else {
            // The root finished and was finalized before this span
            // reported in (a straggler thread outliving its parent
            // guard); drop the orphan rather than resurrect the trace.
            return;
        };
        pending.error |= error;
        pending.spans.push(record);
        if is_root {
            let done = state.pending.remove(&trace_id).unwrap_or_default();
            if done.sampled || done.error {
                state.ring.push(FinishedTrace {
                    trace_id,
                    error: done.error,
                    spans: done.spans,
                });
            } else {
                state.unsampled_traces += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// thread-local active-span stack
// ---------------------------------------------------------------------------

/// One open span owned by the thread-local stack. Attributes and events
/// accumulate here until the span closes.
struct OpenSpan {
    tracer: Tracer,
    id: u64,
    parent: Option<u64>,
    trace_id: u64,
    sampled: bool,
    name: String,
    start_us: u64,
    attrs: Vec<(String, AttrValue)>,
    events: Vec<TraceEvent>,
    error: bool,
}

thread_local! {
    /// Innermost-last stack of open trace spans on this thread.
    static TRACE_STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

fn push_open(span: OpenSpan) {
    TRACE_STACK.with(|stack| stack.borrow_mut().push(span));
}

/// Pop and finish the innermost open span. Called by guard drops, so
/// nesting is structural (LIFO) by construction.
pub(crate) fn finish_top() {
    let Some(open) = TRACE_STACK.with(|stack| stack.borrow_mut().pop()) else {
        return;
    };
    let end_us = open.tracer.now_us();
    let record = SpanRecord {
        id: open.id,
        parent: open.parent,
        trace_id: open.trace_id,
        name: open.name,
        start_us: open.start_us,
        end_us,
        attrs: open.attrs,
        events: open.events,
        error: open.error,
    };
    open.tracer.finish_record(record);
}

/// Open a trace span for a `Recorder` span call site: nested under the
/// innermost open span when there is one, else rooted (or parented at
/// `parent`) on `tracer` when one is attached. Returns whether a span
/// was opened (the guard must then call [`finish_top`] on drop).
pub(crate) fn attach_span(
    tracer: Option<&Tracer>,
    parent: Option<SpanContext>,
    name: &str,
) -> bool {
    let nested = TRACE_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        match stack.last() {
            None => false,
            Some(top) => {
                let child = OpenSpan {
                    tracer: top.tracer.clone(),
                    id: top.tracer.alloc_id(),
                    parent: Some(top.id),
                    trace_id: top.trace_id,
                    sampled: top.sampled,
                    name: name.to_string(),
                    start_us: top.tracer.now_us(),
                    attrs: Vec::new(),
                    events: Vec::new(),
                    error: false,
                };
                stack.push(child);
                true
            }
        }
    });
    if nested {
        return true;
    }
    match (tracer, parent) {
        (Some(t), Some(ctx)) => {
            t.span_under(ctx, name).dismiss();
            true
        }
        (Some(t), None) => {
            t.root_span(name).dismiss();
            true
        }
        (None, _) => false,
    }
}

/// RAII guard for a span opened through the [`Tracer`] API or the free
/// [`trace_span`] function; finishes the span on drop. An inert guard
/// (no active trace) drops without effect.
#[derive(Debug)]
#[must_use = "a trace span records when the guard drops; binding to _ drops immediately"]
pub struct TraceSpanGuard {
    active: bool,
}

impl TraceSpanGuard {
    /// Disarm the guard without finishing the span — used when span
    /// lifetime is managed by another guard (see `Recorder::span`).
    fn dismiss(mut self) {
        self.active = false;
    }

    /// Whether this guard actually opened a span.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Drop for TraceSpanGuard {
    fn drop(&mut self) {
        if self.active {
            finish_top();
        }
    }
}

// ---------------------------------------------------------------------------
// free functions: annotate the innermost open span
// ---------------------------------------------------------------------------

/// The context of the innermost open span on this thread, if any — the
/// handle to pass across a thread boundary for explicit parenting.
pub fn current_context() -> Option<SpanContext> {
    TRACE_STACK.with(|stack| {
        stack.borrow().last().map(|top| SpanContext {
            trace_id: top.trace_id,
            span_id: top.id,
            sampled: top.sampled,
        })
    })
}

/// Open a child span of the innermost open span. Inert (and
/// allocation-free) when no span is active on this thread, so deep
/// layers can call it unconditionally.
pub fn trace_span(name: &str) -> TraceSpanGuard {
    let opened = attach_span(None, None, name);
    TraceSpanGuard { active: opened }
}

/// Set a typed attribute on the innermost open span. No-op without an
/// active span.
pub fn trace_attr(key: &str, value: impl Into<AttrValue>) {
    TRACE_STACK.with(|stack| {
        if let Some(top) = stack.borrow_mut().last_mut() {
            top.attrs.push((key.to_string(), value.into()));
        }
    });
}

/// Record a point event on the innermost open span. The attribute
/// closure only runs when a span is active, so call sites on hot paths
/// pay nothing when tracing is off.
pub fn trace_event(name: &str, attrs: impl FnOnce() -> Vec<(String, AttrValue)>) {
    TRACE_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(top) = stack.last_mut() {
            let at_us = top.tracer.now_us();
            top.events.push(TraceEvent {
                name: name.to_string(),
                at_us,
                attrs: attrs(),
            });
        }
    });
}

/// Mark the innermost open span (and so its whole trace) as errored.
/// Errored traces bypass head sampling and are always retained.
pub fn trace_error() {
    TRACE_STACK.with(|stack| {
        if let Some(top) = stack.borrow_mut().last_mut() {
            top.error = true;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick_tracer(sample_one_in: u64) -> Tracer {
        Tracer::with_clock(
            TracerConfig {
                seed: 100,
                max_buffered_spans: 1 << 16,
                sample_one_in,
            },
            Arc::new(TickClock::new()),
        )
    }

    #[test]
    fn span_tree_records_parent_links_and_seeded_ids() {
        let tracer = tick_tracer(1);
        {
            let _root = tracer.root_span("run");
            trace_attr("docs", 8u64);
            {
                let _child = trace_span("expand");
                trace_event("cache.hit", || vec![("term".to_string(), "paris".into())]);
                let _grand = trace_span("resource.query");
            }
            let _child2 = trace_span("select");
        }
        let traces = tracer.finished();
        assert_eq!(traces.len(), 1);
        let spans = &traces[0].spans;
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("run");
        assert_eq!(root.id, 100, "ids start at the seed");
        assert_eq!(root.parent, None);
        assert_eq!(root.attrs, vec![("docs".to_string(), AttrValue::U64(8))]);
        let expand = by_name("expand");
        assert_eq!(expand.parent, Some(root.id));
        assert_eq!(expand.events.len(), 1);
        assert_eq!(expand.events[0].name, "cache.hit");
        assert_eq!(by_name("resource.query").parent, Some(expand.id));
        assert_eq!(by_name("select").parent, Some(root.id));
        assert!(spans.iter().all(|s| s.trace_id == root.id));
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
    }

    #[test]
    fn free_functions_are_inert_without_an_active_span() {
        let _g = trace_span("orphan");
        assert!(!_g.is_active());
        trace_attr("k", 1u64);
        trace_event("e", || unreachable!("attrs must not be built"));
        trace_error();
        assert!(current_context().is_none());
    }

    #[test]
    fn cross_thread_parenting_via_span_context() {
        let tracer = tick_tracer(1);
        {
            let _root = tracer.root_span("run");
            let ctx = current_context().unwrap();
            std::thread::scope(|s| {
                for i in 0..2 {
                    let tracer = tracer.clone();
                    s.spawn(move || {
                        let _w = tracer.span_under(ctx, &format!("shard{i}"));
                        let _q = trace_span("query");
                    });
                }
            });
        }
        let traces = tracer.finished();
        assert_eq!(traces.len(), 1, "worker spans joined the root's trace");
        let spans = &traces[0].spans;
        assert_eq!(spans.len(), 5);
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        for i in 0..2 {
            let shard = spans
                .iter()
                .find(|s| s.name == format!("shard{i}"))
                .unwrap();
            assert_eq!(shard.parent, Some(root.id));
            let q = spans
                .iter()
                .find(|s| s.name == "query" && s.parent == Some(shard.id))
                .unwrap();
            assert_eq!(q.trace_id, root.id);
        }
    }

    #[test]
    fn head_sampling_keeps_one_in_n_and_all_error_traces() {
        let tracer = tick_tracer(4);
        for i in 0..8 {
            let _root = tracer.root_span("req");
            if i == 6 {
                trace_error();
            }
        }
        let traces = tracer.finished();
        // Roots 0 and 4 are sampled; root 6 is retained by its error.
        assert_eq!(traces.len(), 3);
        assert_eq!(traces.iter().filter(|t| t.error).count(), 1);
        assert_eq!(tracer.unsampled_traces(), 5);
        assert_eq!(tracer.roots_started(), 8);
    }

    #[test]
    fn tick_clock_makes_serial_runs_identical() {
        let run = || {
            let tracer = tick_tracer(1);
            {
                let _root = tracer.root_span("run");
                let _a = trace_span("a");
            }
            tracer.finished()
        };
        assert_eq!(run(), run());
    }
}
