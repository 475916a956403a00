//! Bench-side instrumentation: in-memory spans around every call into a
//! layer, a counting global allocator attributed per layer, and the
//! `VmHWM` peak-RSS reader.
//!
//! Everything here is off unless [`enable`] was called (the traced run):
//! a disabled [`call`] is one relaxed atomic load, and the allocator
//! forwards to the system allocator after the same load. Spans live in a
//! global buffer until [`take_spans`] drains it at the end of the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers the benchmark attributes time and allocations to, named
/// after the workspace modules they call into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Layer {
    /// Not inside any layer call: the benchmark's own work.
    Bench = 0,
    /// `facet-termx` extractors.
    Termx = 1,
    /// `facet-resources` backends (below the index's resource cache).
    Resources = 2,
    /// `core::index` / `core::shard`: append, merge, select, subsume.
    Index = 3,
    /// `core::serve`: browse and view publication.
    Serve = 4,
    /// `core::persist` + `facet-store`.
    Store = 5,
}

/// Layers in report order.
pub const LAYERS: [Layer; 6] = [
    Layer::Bench,
    Layer::Termx,
    Layer::Resources,
    Layer::Index,
    Layer::Serve,
    Layer::Store,
];

impl Layer {
    /// The metric-name segment of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Termx => "termx",
            Layer::Resources => "resources",
            Layer::Index => "index",
            Layer::Serve => "serve",
            Layer::Store => "store",
        }
    }

    fn from_u8(v: u8) -> Self {
        LAYERS.get(usize::from(v)).copied().unwrap_or(Layer::Bench)
    }
}

/// Marker for "this thread has no layer of its own": threads the program
/// spawns inside a call inherit the layer of the call in flight.
const UNSET: u8 = u8::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);
/// `(span id, request id)` of the adopting call in flight, packed as two
/// atomics; spans opened on program-spawned threads parent to it.
static ADOPT_SPAN: AtomicU64 = AtomicU64::new(0);
static ADOPT_REQUEST: AtomicU64 = AtomicU64::new(0);
static ADOPT_LAYER: AtomicU8 = AtomicU8::new(Layer::Bench as u8);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ALLOC_COUNT: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];
static ALLOC_BYTES: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];

thread_local! {
    static LAYER: Cell<u8> = const { Cell::new(UNSET) };
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the benchmark's epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn spans and allocation counting on (the traced run) or off.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans and allocation counting are on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Mark the calling thread as one of the benchmark's own threads: its
/// spans with no open parent start new requests instead of being adopted
/// by a call in flight on another thread.
pub fn bench_thread() {
    LAYER.with(|l| l.set(Layer::Bench as u8));
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a request root.
    pub parent: u64,
    /// Id shared by every span of one request.
    pub request: u64,
    /// Call name, e.g. `resources.google`.
    pub name: &'static str,
    /// Layer the call enters.
    pub layer: Layer,
    /// Start, ns since the benchmark epoch.
    pub start_ns: u64,
    /// End, ns since the benchmark epoch.
    pub end_ns: u64,
}

/// An open span; records itself when dropped.
#[must_use = "the span ends when the guard drops"]
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    layer: Layer,
    start_ns: u64,
    prev_layer: u8,
    adopting: Option<(u64, u64, u8)>,
}

/// Open a span around a call into `layer`. With `adopt`, spans that
/// threads spawned by the program open during this call become its
/// children (used around index, persist and recovery calls, whose
/// extractor and backend calls run on worker threads).
pub fn call(layer: Layer, name: &'static str, adopt: bool) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let prev_layer = LAYER.with(|l| l.replace(layer as u8));
    let (parent, request) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, request) = match s.last() {
            Some(&top) => top,
            None if prev_layer == UNSET && ADOPT_SPAN.load(Ordering::SeqCst) != 0 => (
                ADOPT_SPAN.load(Ordering::SeqCst),
                ADOPT_REQUEST.load(Ordering::SeqCst),
            ),
            None => (0, NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)),
        };
        s.push((id, request));
        (parent, request)
    });
    let adopting = adopt.then(|| {
        (
            ADOPT_SPAN.swap(id, Ordering::SeqCst),
            ADOPT_REQUEST.swap(request, Ordering::SeqCst),
            ADOPT_LAYER.swap(layer as u8, Ordering::SeqCst),
        )
    });
    Guard {
        open: Some(Open {
            id,
            parent,
            request,
            name,
            layer,
            start_ns: now_ns(),
            prev_layer,
            adopting,
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        if let Some((span, request, layer)) = open.adopting {
            ADOPT_SPAN.store(span, Ordering::SeqCst);
            ADOPT_REQUEST.store(request, Ordering::SeqCst);
            ADOPT_LAYER.store(layer, Ordering::SeqCst);
        }
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        LAYER.with(|l| l.set(open.prev_layer));
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            layer: open.layer,
            start_ns: open.start_ns,
            end_ns,
        };
        // Drop must not panic: a poisoned buffer loses the span.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Drain every recorded span, in completion order.
pub fn take_spans() -> Vec<Span> {
    SPANS
        .lock()
        .map(|mut s| std::mem::take(&mut *s))
        .unwrap_or_default()
}

/// Allocation `(count, bytes)` per layer since the last [`reset_allocs`].
pub fn alloc_totals() -> Vec<(Layer, u64, u64)> {
    LAYERS
        .iter()
        .map(|&l| {
            let i = l as usize;
            (
                l,
                ALLOC_COUNT[i].load(Ordering::Relaxed),
                ALLOC_BYTES[i].load(Ordering::Relaxed),
            )
        })
        .collect()
}

/// Zero the allocation counters.
pub fn reset_allocs() {
    for i in 0..LAYERS.len() {
        ALLOC_COUNT[i].store(0, Ordering::Relaxed);
        ALLOC_BYTES[i].store(0, Ordering::Relaxed);
    }
}

fn count_alloc(bytes: usize) {
    // `try_with`: the thread-local may already be gone during thread
    // teardown; such late allocations count as the fallback layer.
    let own = LAYER.try_with(Cell::get).unwrap_or(UNSET);
    let layer = if own == UNSET {
        ADOPT_LAYER.load(Ordering::Relaxed)
    } else {
        own
    };
    let i = usize::from(Layer::from_u8(layer) as u8);
    ALLOC_COUNT[i].fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES[i].fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The system allocator plus per-layer allocation counts while tracing.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting only touches atomics and a const-initialized
// thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if enabled() {
            count_alloc(layout.size());
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if enabled() {
            count_alloc(layout.size());
        }
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if enabled() {
            count_alloc(new_size);
        }
        // SAFETY: `ptr` came from `System` with `layout`; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
