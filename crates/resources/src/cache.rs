//! A memoizing wrapper around any context resource.
//!
//! The experiment grids of Tables II–VII run the pipeline 20 times per
//! dataset (4 extractor sets × 5 resource sets); the same important terms
//! are sent to the same resources over and over. `CachedResource` wraps a
//! resource with an interior-mutability memo so repeated queries are
//! answered from memory. Resources are deterministic by contract
//! ([`ContextResource`]), so caching is transparent.
//!
//! The memo is safe to share across threads — the grid's 20 indexes
//! share one per resource, each resolving terms on its own expansion
//! workers — and it guarantees the wrapped resource is queried **exactly once per distinct
//! term that resolves successfully** no matter how many threads race on
//! it: each term owns a slot whose state machine (idle → in-flight →
//! ready) admits one querying thread at a time, so concurrent callers of
//! the same term block on the single in-flight query instead of
//! re-issuing it, while queries for *different* terms proceed in
//! parallel.
//!
//! **Failures never latch.** A failed resolution
//! ([`ContextResource::try_context_terms`] returning `Err`) puts the slot
//! back to *idle* instead of memoizing anything: the error is returned to
//! the caller that issued the query, waiters blocked on the in-flight
//! attempt claim the slot and retry with their own query, and any later
//! caller starts fresh. Only successful results are cached forever. (The
//! previous `OnceLock`-latch design would have pinned whatever the first
//! resolution produced — with a fallible backend that meant a transient
//! outage could permanently latch an empty result for a term.)

use crate::resource::{ContextResource, ResourceError};
use facet_textkit::Vocabulary;
use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hit/miss/failure totals of a [`CachedResource`], as observed so far
/// (also the per-resource query counts an index reports, with no hits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo (including callers that blocked on
    /// another thread's in-flight query for the same term).
    pub hits: u64,
    /// Queries that consulted the wrapped resource and succeeded —
    /// exactly one per distinct term ever resolved.
    pub misses: u64,
    /// Queries that consulted the wrapped resource and failed. Failed
    /// terms are not memoized, so the same term can contribute several
    /// failures before its first (cached) success.
    pub failures: u64,
}

impl CacheStats {
    /// Fraction of successful queries served from the memo (0.0 when
    /// unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One term's resolution slot. `Idle` means no value and no query in
/// flight (fresh, or the last attempt failed); `InFlight` means exactly
/// one caller is inside the wrapped resource; `Ready` memoizes a
/// successful resolution forever.
enum SlotState {
    Idle,
    InFlight,
    Ready(Vec<String>),
}

struct TermSlot {
    state: Mutex<SlotState>,
    resolved: Condvar,
}

impl TermSlot {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState::Idle),
            resolved: Condvar::new(),
        }
    }
}

/// The term → slot map: a deterministic [`Vocabulary`] assigns each term
/// a dense id, and `slots[id.index()]` holds its resolution slot. One
/// arena and one `Vec` replace the old `HashMap<String, Arc<TermSlot>>`
/// — no per-term key `String`s, and the latch is effectively keyed by
/// term id.
struct SlotMap {
    terms: Vocabulary,
    slots: Vec<Arc<TermSlot>>,
}

/// Memoizing decorator for a [`ContextResource`].
pub struct CachedResource<R> {
    inner: R,
    /// One slot per term: interned under the write lock, driven through
    /// its state machine outside it.
    cache: RwLock<SlotMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    failures: AtomicU64,
}

impl<R: ContextResource> CachedResource<R> {
    /// Wrap `inner` with an empty cache.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            cache: RwLock::new(SlotMap {
                terms: Vocabulary::new(),
                slots: Vec::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// Number of terms with a resolution slot (memoized, in flight, or
    /// awaiting retry after a failure).
    pub fn cached_queries(&self) -> usize {
        self.cache.read().terms.len()
    }

    /// Hit/miss/failure totals so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }

    /// The wrapped resource.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    fn slot_for(&self, term: &str) -> Arc<TermSlot> {
        // Fast path: the term's slot already exists — a short read lock
        // and an id lookup suffice.
        {
            let cache = self.cache.read();
            if let Some(id) = cache.terms.get(term) {
                return Arc::clone(&cache.slots[id.index()]);
            }
        }
        // Double-check under the write lock: another thread may have
        // interned the term between our read and write (then `intern`
        // is a hit and no slot is pushed).
        let mut cache = self.cache.write();
        let id = cache.terms.intern(term);
        if id.index() == cache.slots.len() {
            cache.slots.push(Arc::new(TermSlot::new()));
        }
        Arc::clone(&cache.slots[id.index()])
    }
}

impl<R: ContextResource> ContextResource for CachedResource<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn context_terms(&self, term: &str) -> Vec<String> {
        // The infallible view degrades failures to "no context terms";
        // nothing is memoized for the term, so a later caller retries.
        self.try_context_terms(term).unwrap_or_default()
    }

    fn try_context_terms(&self, term: &str) -> Result<Vec<String>, ResourceError> {
        let slot = self.slot_for(term);
        {
            let mut state = slot.state.lock();
            loop {
                match &*state {
                    SlotState::Ready(v) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        facet_obs::trace_event("cache.hit", || {
                            vec![("term".to_string(), term.into())]
                        });
                        return Ok(v.clone());
                    }
                    // Exactly one caller is inside the wrapped resource;
                    // park until it resolves, then re-examine: a success
                    // is a hit, a failure leaves the slot Idle and we
                    // claim it for our own retry.
                    SlotState::InFlight => slot.resolved.wait(&mut state),
                    SlotState::Idle => {
                        *state = SlotState::InFlight;
                        break;
                    }
                }
            }
        }
        // We own the in-flight query. The query itself runs outside the
        // map and slot locks so resolutions of *different* terms never
        // serialize behind it.
        let result = self.inner.try_context_terms(term);
        let mut state = slot.state.lock();
        match result {
            Ok(v) => {
                *state = SlotState::Ready(v.clone());
                self.misses.fetch_add(1, Ordering::Relaxed);
                facet_obs::trace_event("cache.miss", || vec![("term".to_string(), term.into())]);
                slot.resolved.notify_all();
                Ok(v)
            }
            Err(e) => {
                // Failure: back to Idle, memoizing nothing. Waiters wake
                // and retry; the term stays retryable forever.
                *state = SlotState::Idle;
                self.failures.fetch_add(1, Ordering::Relaxed);
                facet_obs::trace_event("cache.failure", || vec![("term".to_string(), term.into())]);
                slot.resolved.notify_all();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::FaultKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counting(AtomicUsize);
    impl ContextResource for Counting {
        fn name(&self) -> &'static str {
            "Counting"
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            self.0.fetch_add(1, Ordering::SeqCst);
            vec![format!("ctx of {term}")]
        }
    }

    fn stats(hits: u64, misses: u64, failures: u64) -> CacheStats {
        CacheStats {
            hits,
            misses,
            failures,
        }
    }

    #[test]
    fn second_query_served_from_cache() {
        let c = CachedResource::new(Counting(AtomicUsize::new(0)));
        assert_eq!(c.context_terms("x"), vec!["ctx of x"]);
        assert_eq!(c.context_terms("x"), vec!["ctx of x"]);
        assert_eq!(c.inner().0.load(Ordering::SeqCst), 1);
        assert_eq!(c.cached_queries(), 1);
    }

    #[test]
    fn distinct_terms_computed_separately() {
        let c = CachedResource::new(Counting(AtomicUsize::new(0)));
        c.context_terms("x");
        c.context_terms("y");
        assert_eq!(c.inner().0.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let c = CachedResource::new(Counting(AtomicUsize::new(0)));
        assert_eq!(c.stats(), stats(0, 0, 0));
        c.context_terms("x");
        c.context_terms("x");
        c.context_terms("x");
        c.context_terms("y");
        let s = c.stats();
        assert_eq!(s, stats(2, 2, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_queries_stay_consistent() {
        let c = CachedResource::new(Counting(AtomicUsize::new(0)));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..50 {
                        let term = format!("t{}", i % 5);
                        assert_eq!(c.context_terms(&term), vec![format!("ctx of {term}")]);
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8 * 50);
        assert_eq!(c.cached_queries(), 5);
        // The slot guarantees exactly one inner query — and thus one
        // counted miss — per distinct term, no matter the interleaving.
        assert_eq!(s.misses, 5);
        assert_eq!(c.inner().0.load(Ordering::SeqCst), 5);
    }

    /// A resource whose query for "slow" parks until released, announcing
    /// entry on a channel — lets tests pin down exact interleavings of the
    /// per-term resolution slot.
    struct Blocking {
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
        count: AtomicUsize,
        /// Queries 1..=fail_first (by arrival order) fail Transient.
        fail_first: usize,
    }

    impl Blocking {
        fn new(
            fail_first: usize,
        ) -> (
            Self,
            std::sync::mpsc::Receiver<()>,
            std::sync::mpsc::Sender<()>,
        ) {
            let (entered_tx, entered_rx) = std::sync::mpsc::channel();
            let (release_tx, release_rx) = std::sync::mpsc::channel();
            (
                Self {
                    entered: entered_tx,
                    release: std::sync::Mutex::new(release_rx),
                    count: AtomicUsize::new(0),
                    fail_first,
                },
                entered_rx,
                release_tx,
            )
        }
    }

    impl ContextResource for Blocking {
        fn name(&self) -> &'static str {
            "Blocking"
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            self.try_context_terms(term).unwrap_or_default()
        }
        fn try_context_terms(&self, term: &str) -> Result<Vec<String>, ResourceError> {
            let n = self.count.fetch_add(1, Ordering::SeqCst) + 1;
            if term == "slow" {
                self.entered.send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
            if n <= self.fail_first {
                return Err(ResourceError::new(
                    "Blocking",
                    FaultKind::Transient,
                    format!("scripted failure {n}"),
                ));
            }
            Ok(vec![format!("ctx of {term}")])
        }
    }

    #[test]
    fn interleaving_second_caller_joins_inflight_miss() {
        // Order 1 of the two-thread schedule: B's query for the same term
        // lands while A's miss is still inside the wrapped resource. B
        // must block on A's slot (never re-query) and count as a hit.
        let (inner, entered, release) = Blocking::new(0);
        let c = CachedResource::new(inner);
        std::thread::scope(|s| {
            let a = s.spawn(|| c.context_terms("slow"));
            // A is now parked inside the wrapped resource; its slot is
            // in the map, in flight.
            entered.recv().unwrap();
            let b = s.spawn(|| c.context_terms("slow"));
            // Give B a window to reach the slot; whether it wins the
            // window or arrives after release, the exactly-once guarantee
            // below must hold.
            std::thread::sleep(std::time::Duration::from_millis(30));
            release.send(()).unwrap();
            assert_eq!(a.join().unwrap(), vec!["ctx of slow"]);
            assert_eq!(b.join().unwrap(), vec!["ctx of slow"]);
        });
        assert_eq!(c.inner().count.load(Ordering::SeqCst), 1, "one inner query");
        assert_eq!(c.stats(), stats(1, 1, 0));
    }

    #[test]
    fn interleaving_second_caller_after_resolved_miss() {
        // Order 2 of the two-thread schedule: A's miss fully resolves
        // before B ever looks — B takes the read-lock fast path and the
        // memoized slot, again a hit with no second inner query.
        let (inner, entered, release) = Blocking::new(0);
        let c = CachedResource::new(inner);
        std::thread::scope(|s| {
            let a = s.spawn(|| c.context_terms("slow"));
            entered.recv().unwrap();
            release.send(()).unwrap();
            assert_eq!(a.join().unwrap(), vec!["ctx of slow"]);
        });
        // A has fully completed; B runs strictly after.
        assert_eq!(c.context_terms("slow"), vec!["ctx of slow"]);
        assert_eq!(c.inner().count.load(Ordering::SeqCst), 1, "one inner query");
        assert_eq!(c.stats(), stats(1, 1, 0));
    }

    #[test]
    fn inflight_miss_does_not_serialize_other_terms() {
        // While "slow" is parked inside the wrapped resource, a miss on a
        // *different* term must complete — the inner query runs outside
        // the map and slot locks. A regression here deadlocks (test
        // hangs).
        let (inner, entered, release) = Blocking::new(0);
        let c = CachedResource::new(inner);
        std::thread::scope(|s| {
            let a = s.spawn(|| c.context_terms("slow"));
            entered.recv().unwrap();
            assert_eq!(c.context_terms("fast"), vec!["ctx of fast"]);
            release.send(()).unwrap();
            assert_eq!(a.join().unwrap(), vec!["ctx of slow"]);
        });
        assert_eq!(c.inner().count.load(Ordering::SeqCst), 2);
        assert_eq!(c.stats(), stats(0, 2, 0));
    }

    #[test]
    fn racing_threads_query_inner_exactly_once_per_term() {
        // Many threads, same term, synchronized to maximize the racing
        // window on a cold cache: the wrapped resource must be queried
        // exactly once, with every other caller counted as a hit.
        let c = CachedResource::new(Counting(AtomicUsize::new(0)));
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    assert_eq!(c.context_terms("hot"), vec!["ctx of hot"]);
                });
            }
        });
        assert_eq!(c.inner().0.load(Ordering::SeqCst), 1, "one inner query");
        let s = c.stats();
        assert_eq!(s, stats(7, 1, 0));
    }

    #[test]
    fn failure_is_not_latched_for_later_callers() {
        // The regression this module's redesign exists to prevent: a
        // first resolution that fails must leave the term retryable —
        // the old OnceLock latch would have pinned the first outcome
        // forever.
        let (inner, _entered, _release) = Blocking::new(1);
        let c = CachedResource::new(inner);
        let err = c.try_context_terms("x").unwrap_err();
        assert_eq!(err.kind, FaultKind::Transient);
        // Retry reaches the wrapped resource again and memoizes the
        // success.
        assert_eq!(c.try_context_terms("x").unwrap(), vec!["ctx of x"]);
        assert_eq!(c.try_context_terms("x").unwrap(), vec!["ctx of x"]);
        assert_eq!(c.inner().count.load(Ordering::SeqCst), 2);
        assert_eq!(c.stats(), stats(1, 1, 1));
    }

    #[test]
    fn interleaving_waiter_retries_after_inflight_failure() {
        // Two-thread interleaving on a fallible backend: B joins while
        // A's query is in flight; A's query fails. B must wake, claim
        // the idle slot, and issue its *own* query (which succeeds) —
        // never receive a latched empty result.
        let (inner, entered, release) = Blocking::new(1);
        let c = CachedResource::new(inner);
        std::thread::scope(|s| {
            let a = s.spawn(|| c.try_context_terms("slow"));
            // A is parked inside the wrapped resource (attempt 1, which
            // is scripted to fail on release).
            entered.recv().unwrap();
            let b = s.spawn(|| c.try_context_terms("slow"));
            std::thread::sleep(std::time::Duration::from_millis(30));
            // Release A (fails), then B's retry (parks next, succeeds).
            release.send(()).unwrap();
            entered.recv().unwrap();
            release.send(()).unwrap();
            assert!(a.join().unwrap().is_err(), "A sees its own failure");
            assert_eq!(b.join().unwrap().unwrap(), vec!["ctx of slow"]);
        });
        assert_eq!(
            c.inner().count.load(Ordering::SeqCst),
            2,
            "A's failed query plus B's retry"
        );
        let s = c.stats();
        assert_eq!((s.misses, s.failures), (1, 1));
        // The term is memoized now: no third inner query.
        assert_eq!(c.try_context_terms("slow").unwrap(), vec!["ctx of slow"]);
        assert_eq!(c.inner().count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn infallible_view_degrades_failures_to_empty_and_stays_retryable() {
        let (inner, _entered, _release) = Blocking::new(1);
        let c = CachedResource::new(inner);
        assert!(c.context_terms("x").is_empty(), "failure → no context");
        // Not latched: the retry succeeds and is memoized.
        assert_eq!(c.context_terms("x"), vec!["ctx of x"]);
        assert_eq!(c.context_terms("x"), vec!["ctx of x"]);
        assert_eq!(c.inner().count.load(Ordering::SeqCst), 2);
    }
}
