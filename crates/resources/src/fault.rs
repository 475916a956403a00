//! Deterministic, seeded fault injection for context resources.
//!
//! Production resource backends fail: timeouts, overload shedding,
//! transient network errors. [`FaultyResource`] wraps any
//! [`ContextResource`] and injects such failures on a **deterministic
//! schedule** derived from a seed — no wall clock, no OS entropy — so
//! every failure scenario is a reproducible test case (and the facet-lint
//! D2/D3 rules stay clean). Simulated latency advances a shared
//! [`VirtualClock`], which is also what retry backoff and circuit-breaker
//! cooldowns in [`crate::ResilientResource`] measure against.
//!
//! Two schedule modes, chosen by [`FaultPlan::failures_per_term`]:
//!
//! * **Phase mode** (`None`): an *affected* term — a pure function of
//!   `(seed, term)` — fails on every attempt until [`FaultyResource::heal`]
//!   is called. The degraded-term set is therefore independent of thread
//!   interleaving, worker count, and arrival order, which is what the
//!   chaos determinism sweep in `tests/chaos.rs` relies on.
//! * **Attempt mode** (`Some(k)`): an affected term's first `k` attempts
//!   fail, then every later attempt succeeds — the schedule for
//!   exercising retry/backoff policy.

use crate::clock::VirtualClock;
use crate::resource::{ContextResource, FaultKind, ResourceError};
use facet_textkit::Fnv1a;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A seeded fault-injection schedule. See the [module docs](self) for
/// the two modes.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the per-term schedule; same seed ⇒ same faults.
    pub seed: u64,
    /// Per-mille (0..=1000) of distinct terms affected by faults while
    /// the plan is active. 1000 = every term fails.
    pub term_failure_permille: u16,
    /// `Some(k)`: an affected term's first `k` attempts fail, then
    /// succeed (retry testing). `None`: affected terms fail on every
    /// attempt until [`FaultyResource::heal`].
    pub failures_per_term: Option<u32>,
    /// Simulated per-query latency bounds in virtual microseconds
    /// `(min, max)`; the actual value is seed-derived per attempt.
    pub latency_us: (u64, u64),
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0xFACE7,
            term_failure_permille: 250,
            failures_per_term: None,
            latency_us: (500, 5_000),
        }
    }
}

impl FaultPlan {
    /// A phase-mode plan with the given seed and failure rate.
    pub fn seeded(seed: u64, term_failure_permille: u16) -> Self {
        Self {
            seed,
            term_failure_permille,
            ..Self::default()
        }
    }

    /// Switch to attempt mode: affected terms fail their first
    /// `failures` attempts, then succeed.
    pub fn with_failures_per_term(mut self, failures: u32) -> Self {
        self.failures_per_term = Some(failures);
        self
    }
}

/// The seeded schedule machinery behind [`FaultyResource`], factored out
/// so other injectors — notably `facet-store`'s `FaultyStorage` — reuse
/// the exact same deterministic draws instead of duplicating the FNV
/// chain. Keys are opaque strings: a query term for resources, an
/// operation label for storage.
///
/// * [`is_affected`](Self::is_affected) is a pure function of
///   `(seed, key)` — independent of call history.
/// * [`next_attempt`](Self::next_attempt) hands out a per-key attempt
///   counter (0-based) under a lock, so concurrent callers get distinct
///   attempts.
/// * [`scheduled`](Self::scheduled) combines both with the optional
///   attempt-mode cap (`Some(k)`: only the first `k` attempts fire).
/// * [`draw`](Self::draw) exposes the raw seeded hash for derived
///   quantities (fault kind variants, latency, corruption offsets).
#[derive(Debug)]
pub struct FaultSchedule {
    seed: u64,
    permille: u16,
    failures_per_key: Option<u32>,
    /// Per-key attempt counters; also drive the seed-derived variation
    /// across retries of the same key.
    // lint:allow(string-keyed-map, reason="injection-boundary bookkeeping keyed by the opaque fault key (query term or storage operation label)")
    attempts: Mutex<HashMap<String, u64>>,
}

impl FaultSchedule {
    /// A schedule with the given seed affecting `permille`/1000 of keys.
    pub fn new(seed: u64, permille: u16) -> Self {
        Self {
            seed,
            permille,
            failures_per_key: None,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Attempt mode: an affected key's first `failures` attempts fire,
    /// later attempts do not.
    pub fn with_failures_per_key(mut self, failures: u32) -> Self {
        self.failures_per_key = Some(failures);
        self
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw seeded FNV-1a draw for `(key, salt)`, over the seed, key
    /// and salt bytes — the primitive all derived quantities come from:
    /// cheap, deterministic, and with enough diffusion to decorrelate
    /// nearby seeds.
    pub fn draw(&self, key: &str, salt: u64) -> u64 {
        Fnv1a::new()
            .write(&self.seed.to_le_bytes())
            .write(key.as_bytes())
            .write(&salt.to_le_bytes())
            .finish()
    }

    /// Whether the schedule targets `key` — a pure function of
    /// `(seed, key)`, independent of call history.
    pub fn is_affected(&self, key: &str) -> bool {
        self.draw(key, 0) % 1000 < u64::from(self.permille)
    }

    /// Claim the next attempt number for `key` (0-based).
    pub fn next_attempt(&self, key: &str) -> u64 {
        let mut attempts = self.attempts.lock();
        let slot = attempts.entry(key.to_string()).or_insert(0);
        let a = *slot;
        *slot += 1;
        a
    }

    /// Whether a fault fires for `key` on the given attempt.
    pub fn scheduled(&self, key: &str, attempt: u64) -> bool {
        self.is_affected(key)
            && match self.failures_per_key {
                None => true,
                Some(k) => attempt < u64::from(k),
            }
    }
}

/// A fault-injecting decorator for a [`ContextResource`]. Forwards the
/// wrapped resource's [`name`](ContextResource::name) so degraded-coverage
/// provenance matches a fault-free build of the same resource set.
pub struct FaultyResource<R> {
    inner: R,
    plan: FaultPlan,
    schedule: FaultSchedule,
    clock: VirtualClock,
    healed: AtomicBool,
    injected: AtomicU64,
}

impl<R: ContextResource> FaultyResource<R> {
    /// Wrap `inner` with the given plan, advancing `clock` by the
    /// simulated latency of every attempt.
    pub fn new(inner: R, plan: FaultPlan, clock: VirtualClock) -> Self {
        let mut schedule = FaultSchedule::new(plan.seed, plan.term_failure_permille);
        if let Some(k) = plan.failures_per_term {
            schedule = schedule.with_failures_per_key(k);
        }
        Self {
            inner,
            plan,
            schedule,
            clock,
            healed: AtomicBool::new(false),
            injected: AtomicU64::new(0),
        }
    }

    /// End the fault phase: every attempt from now on reaches the
    /// wrapped resource. (Attempt-mode schedules are also disabled.)
    pub fn heal(&self) {
        self.healed.store(true, Ordering::Release);
    }

    /// Whether [`heal`](Self::heal) has been called.
    pub fn is_healed(&self) -> bool {
        self.healed.load(Ordering::Acquire)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Total failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The wrapped resource.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Whether the plan targets `term` while active — a pure function of
    /// `(seed, term)`, independent of call history.
    pub fn is_affected(&self, term: &str) -> bool {
        self.schedule.is_affected(term)
    }

    fn kind_for(&self, term: &str, attempt: u64) -> FaultKind {
        match self.schedule.draw(term, attempt.wrapping_add(1)) % 3 {
            0 => FaultKind::Transient,
            1 => FaultKind::Timeout,
            _ => FaultKind::Overload,
        }
    }

    fn latency_for(&self, term: &str, attempt: u64) -> u64 {
        let (lo, hi) = self.plan.latency_us;
        let span = hi.saturating_sub(lo).saturating_add(1);
        lo + self.schedule.draw(term, attempt.wrapping_add(0x10_0000)) % span
    }
}

impl<R: ContextResource> ContextResource for FaultyResource<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn context_terms(&self, term: &str) -> Vec<String> {
        self.try_context_terms(term).unwrap_or_default()
    }

    fn try_context_terms(&self, term: &str) -> Result<Vec<String>, ResourceError> {
        let attempt = self.schedule.next_attempt(term);
        self.clock.advance_us(self.latency_for(term, attempt));
        if !self.is_healed() && self.schedule.scheduled(term, attempt) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(ResourceError::new(
                self.inner.name(),
                self.kind_for(term, attempt),
                format!(
                    "injected fault (seed {:#x}, attempt {attempt})",
                    self.plan.seed
                ),
            ));
        }
        self.inner.try_context_terms(term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl ContextResource for Echo {
        fn name(&self) -> &'static str {
            "Echo"
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            vec![format!("about {term}")]
        }
    }

    fn all_faulty(seed: u64) -> FaultyResource<Echo> {
        FaultyResource::new(Echo, FaultPlan::seeded(seed, 1000), VirtualClock::new())
    }

    #[test]
    fn phase_mode_fails_until_healed() {
        let f = all_faulty(7);
        for _ in 0..3 {
            assert!(f.try_context_terms("x").is_err());
        }
        assert_eq!(f.injected_failures(), 3);
        f.heal();
        assert_eq!(f.try_context_terms("x").unwrap(), vec!["about x"]);
        assert_eq!(f.injected_failures(), 3);
    }

    #[test]
    fn affected_set_is_a_pure_function_of_seed() {
        let f = FaultyResource::new(Echo, FaultPlan::seeded(42, 500), VirtualClock::new());
        let g = FaultyResource::new(Echo, FaultPlan::seeded(42, 500), VirtualClock::new());
        let terms = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
        let fa: Vec<bool> = terms.iter().map(|t| f.is_affected(t)).collect();
        let ga: Vec<bool> = terms.iter().map(|t| g.is_affected(t)).collect();
        assert_eq!(fa, ga, "same seed, same affected set");
        assert!(fa.iter().any(|&b| b), "at 50% some term is affected");
        assert!(fa.iter().any(|&b| !b), "at 50% some term is spared");
        // Outcomes match the predicate exactly.
        for t in terms {
            assert_eq!(f.try_context_terms(t).is_err(), f.is_affected(t));
        }
        // A different seed gives a different schedule (with overwhelming
        // probability over six terms; this seed pair differs).
        let h = FaultyResource::new(Echo, FaultPlan::seeded(43, 500), VirtualClock::new());
        let ha: Vec<bool> = terms.iter().map(|t| h.is_affected(t)).collect();
        assert_ne!(fa, ha);
    }

    #[test]
    fn attempt_mode_recovers_after_scheduled_failures() {
        let f = FaultyResource::new(
            Echo,
            FaultPlan::seeded(9, 1000).with_failures_per_term(2),
            VirtualClock::new(),
        );
        assert!(f.try_context_terms("x").is_err());
        assert!(f.try_context_terms("x").is_err());
        assert_eq!(f.try_context_terms("x").unwrap(), vec!["about x"]);
        assert_eq!(f.injected_failures(), 2);
        // Counters are per term.
        assert!(f.try_context_terms("y").is_err());
    }

    #[test]
    fn latency_advances_the_virtual_clock_deterministically() {
        let run = |seed: u64| {
            let clock = VirtualClock::new();
            let f = FaultyResource::new(Echo, FaultPlan::seeded(seed, 0), clock.clone());
            for t in ["a", "b", "c"] {
                f.try_context_terms(t).unwrap();
            }
            clock.now_us()
        };
        let t1 = run(5);
        assert!(t1 > 0, "queries cost virtual time");
        assert_eq!(t1, run(5), "same seed, same virtual timeline");
    }

    #[test]
    fn schedule_is_the_shared_machinery() {
        // FaultyResource's targeting is exactly the shared FaultSchedule:
        // same seed, same affected set, same raw draws.
        let sched = FaultSchedule::new(42, 500);
        let f = FaultyResource::new(Echo, FaultPlan::seeded(42, 500), VirtualClock::new());
        for t in ["alpha", "beta", "gamma", "delta"] {
            assert_eq!(sched.is_affected(t), f.is_affected(t));
        }
        assert_eq!(sched.draw("k", 7), FaultSchedule::new(42, 500).draw("k", 7));
        assert_eq!(sched.seed(), 42);
        // Attempt mode caps scheduled firings per key; counters are
        // handed out per key.
        let capped = FaultSchedule::new(9, 1000).with_failures_per_key(2);
        assert!(capped.scheduled("x", capped.next_attempt("x")));
        assert!(capped.scheduled("x", capped.next_attempt("x")));
        assert!(!capped.scheduled("x", capped.next_attempt("x")));
        assert_eq!(capped.next_attempt("y"), 0);
    }

    #[test]
    fn error_carries_inner_name_and_retryable_kind() {
        let f = all_faulty(11);
        let err = f.try_context_terms("x").unwrap_err();
        assert_eq!(err.resource, "Echo", "provenance names the real resource");
        assert!(err.is_retryable(), "generated kinds are retryable");
    }
}
