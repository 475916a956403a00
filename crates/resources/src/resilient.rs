//! Retry, backoff, circuit breaking, and time budgets for context
//! resources.
//!
//! [`ResilientResource`] wraps any [`ContextResource`] with the policy
//! layer a production deployment needs in front of network backends:
//!
//! * **Bounded retries with deterministic backoff.** Retryable failures
//!   ([`FaultKind::is_retryable`]) are retried up to
//!   [`RetryPolicy::max_retries`] times; each retry "waits" by advancing
//!   the shared [`VirtualClock`] by an exponential backoff, so the
//!   schedule is reproducible and costs no wall time in tests.
//! * **A per-query time budget.** Virtual time spent across attempts and
//!   backoffs is capped by [`RetryPolicy::query_budget_us`]; when the
//!   next backoff would exceed it, the query gives up with a
//!   [`FaultKind::Timeout`] error.
//! * **A circuit breaker.** Consecutive failures open the circuit;
//!   while open, queries are shed immediately (a fast
//!   [`FaultKind::Overload`] error) instead of hammering a dead backend.
//!   After [`BreakerConfig::cooldown_us`] of virtual time the breaker
//!   admits probe queries (half-open) and closes again after
//!   [`BreakerConfig::half_open_probes`] successes.
//!
//! State transitions, retries, and shed queries are counted on an
//! attached [`Recorder`] (`resilient.<name>.*`), feeding the same obs
//! reports as the per-resource latency histograms.
//!
//! The breaker is shared mutable state: under concurrent callers the
//! *set* of shed queries depends on arrival order (only the totals are
//! meaningful), which is why the chaos determinism sweeps either run the
//! breaker single-threaded or disable it with a high threshold — see
//! DESIGN.md §14. Degradation recorded either way is repaired by
//! `ShardedFacetIndex::repair` once the breaker closes, and that convergence
//! *is* interleaving-independent.

use crate::clock::VirtualClock;
use crate::resource::{ContextResource, FaultKind, ResourceError};
use facet_obs::{Counter, Recorder};
use parking_lot::Mutex;

/// Retry/backoff/budget parameters for one resource.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry, in virtual microseconds.
    pub backoff_base_us: u64,
    /// Multiplier applied to the backoff per further retry.
    pub backoff_multiplier: u32,
    /// Virtual-time budget for one query including retries and backoffs.
    pub query_budget_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_base_us: 1_000,
            backoff_multiplier: 2,
            query_budget_us: 50_000,
        }
    }
}

/// Circuit-breaker parameters for one resource.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures (across queries) that open the circuit.
    pub failure_threshold: u32,
    /// Virtual microseconds the circuit stays open before admitting
    /// half-open probes.
    pub cooldown_us: u64,
    /// Successful half-open probes required to close the circuit.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown_us: 25_000,
            half_open_probes: 1,
        }
    }
}

impl BreakerConfig {
    /// A breaker that never opens (threshold effectively infinite) —
    /// used by determinism sweeps where shedding would make the degraded
    /// set depend on arrival order.
    pub fn disabled() -> Self {
        Self {
            failure_threshold: u32::MAX,
            ..Self::default()
        }
    }
}

/// Circuit-breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    Closed,
    /// Shedding: queries fail fast until the cooldown elapses.
    Open,
    /// Probing: queries are admitted; a success closes, a failure
    /// re-opens.
    HalfOpen,
}

struct BreakerCore {
    state: BreakerState,
    consecutive_failures: u32,
    open_until_us: u64,
    probes_succeeded: u32,
}

struct ResilientMetrics {
    retries: Counter,
    shed: Counter,
    failures: Counter,
    opens: Counter,
    half_opens: Counter,
    closes: Counter,
}

impl ResilientMetrics {
    fn for_resource(recorder: &Recorder, name: &str) -> Self {
        Self {
            retries: recorder.counter(&format!("resilient.{name}.retries")),
            shed: recorder.counter(&format!("resilient.{name}.shed")),
            failures: recorder.counter(&format!("resilient.{name}.failures")),
            opens: recorder.counter(&format!("resilient.{name}.breaker_open")),
            half_opens: recorder.counter(&format!("resilient.{name}.breaker_half_open")),
            closes: recorder.counter(&format!("resilient.{name}.breaker_close")),
        }
    }
}

/// Retry + circuit-breaker + budget decorator for a [`ContextResource`].
/// Forwards the wrapped resource's [`name`](ContextResource::name), so
/// it is transparent to provenance.
pub struct ResilientResource<R> {
    inner: R,
    retry: RetryPolicy,
    config: BreakerConfig,
    breaker: Mutex<BreakerCore>,
    clock: VirtualClock,
    metrics: ResilientMetrics,
}

impl<R: ContextResource> ResilientResource<R> {
    /// Wrap `inner` with default policy, measuring time on `clock`.
    pub fn new(inner: R, clock: VirtualClock) -> Self {
        Self {
            inner,
            retry: RetryPolicy::default(),
            config: BreakerConfig::default(),
            breaker: Mutex::new(BreakerCore {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                open_until_us: 0,
                probes_succeeded: 0,
            }),
            clock,
            metrics: ResilientMetrics::for_resource(Recorder::disabled_ref(), ""),
        }
    }

    /// Replace the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replace the breaker configuration.
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach an observability recorder; counters are registered as
    /// `resilient.<name>.{retries,shed,failures,breaker_open,breaker_half_open,breaker_close}`.
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.metrics = ResilientMetrics::for_resource(recorder, self.inner.name());
        self
    }

    /// The current breaker state, as last driven by queries. An open
    /// breaker whose cooldown has elapsed still reports `Open` until the
    /// next query arrives and transitions it to half-open.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().state
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The wrapped resource.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Admission control: `Err` when the circuit is open and still
    /// cooling down (the query is shed).
    fn admit(&self) -> Result<(), ResourceError> {
        let mut b = self.breaker.lock();
        match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                if self.clock.now_us() >= b.open_until_us {
                    b.state = BreakerState::HalfOpen;
                    b.probes_succeeded = 0;
                    self.metrics.half_opens.incr();
                    facet_obs::trace_event("breaker.half_open", Vec::new);
                    Ok(())
                } else {
                    self.metrics.shed.incr();
                    facet_obs::trace_event("shed", Vec::new);
                    Err(ResourceError::new(
                        self.inner.name(),
                        FaultKind::Overload,
                        "circuit open: query shed",
                    ))
                }
            }
        }
    }

    fn on_success(&self) {
        let mut b = self.breaker.lock();
        match b.state {
            BreakerState::Closed => b.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                b.probes_succeeded += 1;
                if b.probes_succeeded >= self.config.half_open_probes {
                    b.state = BreakerState::Closed;
                    b.consecutive_failures = 0;
                    self.metrics.closes.incr();
                    facet_obs::trace_event("breaker.close", Vec::new);
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Record a backend failure; returns `true` if the circuit is now
    /// open (callers stop retrying — further attempts would be shed
    /// anyway).
    fn on_failure(&self) -> bool {
        let mut b = self.breaker.lock();
        match b.state {
            BreakerState::Closed => {
                b.consecutive_failures += 1;
                if b.consecutive_failures >= self.config.failure_threshold {
                    Self::trip(&mut b, &self.clock, &self.config, &self.metrics);
                }
            }
            // A failed probe re-opens immediately for a fresh cooldown.
            BreakerState::HalfOpen => Self::trip(&mut b, &self.clock, &self.config, &self.metrics),
            BreakerState::Open => {}
        }
        b.state == BreakerState::Open
    }

    fn trip(
        b: &mut BreakerCore,
        clock: &VirtualClock,
        config: &BreakerConfig,
        metrics: &ResilientMetrics,
    ) {
        b.state = BreakerState::Open;
        b.open_until_us = clock.now_us().saturating_add(config.cooldown_us);
        b.consecutive_failures = 0;
        b.probes_succeeded = 0;
        metrics.opens.incr();
        let open_until_us = b.open_until_us;
        facet_obs::trace_event("breaker.open", || {
            vec![("open_until_us".to_string(), open_until_us.into())]
        });
    }
}

impl<R: ContextResource> ContextResource for ResilientResource<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn context_terms(&self, term: &str) -> Vec<String> {
        self.try_context_terms(term).unwrap_or_default()
    }

    fn try_context_terms(&self, term: &str) -> Result<Vec<String>, ResourceError> {
        let start = self.clock.now_us();
        let mut attempt: u32 = 0;
        loop {
            // Each admit+query round is one child span; the final
            // attempt's span carries the error mark when the query
            // ultimately fails (shed, exhausted retries, or budget).
            let span = facet_obs::trace_span("attempt");
            if span.is_active() {
                facet_obs::trace_attr("resource", self.inner.name());
                facet_obs::trace_attr("attempt", u64::from(attempt));
            }
            if let Err(e) = self.admit() {
                facet_obs::trace_error();
                return Err(e);
            }
            match self.inner.try_context_terms(term) {
                Ok(v) => {
                    self.on_success();
                    return Ok(v);
                }
                Err(e) => {
                    self.metrics.failures.incr();
                    let opened = self.on_failure();
                    if !e.is_retryable() || opened || attempt >= self.retry.max_retries {
                        facet_obs::trace_error();
                        return Err(e);
                    }
                    let backoff = self
                        .retry
                        .backoff_base_us
                        .saturating_mul(u64::from(self.retry.backoff_multiplier).pow(attempt));
                    let elapsed = self.clock.now_us().saturating_sub(start);
                    if elapsed.saturating_add(backoff) > self.retry.query_budget_us {
                        facet_obs::trace_error();
                        return Err(ResourceError::new(
                            self.inner.name(),
                            FaultKind::Timeout,
                            format!(
                                "query budget exhausted after {attempt} retries \
                                 ({elapsed} of {} virtual us)",
                                self.retry.query_budget_us
                            ),
                        ));
                    }
                    facet_obs::trace_event("backoff", || {
                        vec![("backoff_us".to_string(), backoff.into())]
                    });
                    self.clock.advance_us(backoff);
                    self.metrics.retries.incr();
                    attempt += 1;
                    drop(span);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyResource};

    struct Echo;
    impl ContextResource for Echo {
        fn name(&self) -> &'static str {
            "Echo"
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            vec![format!("about {term}")]
        }
    }

    fn flaky(k: u32, clock: &VirtualClock) -> FaultyResource<Echo> {
        FaultyResource::new(
            Echo,
            FaultPlan::seeded(3, 1000).with_failures_per_term(k),
            clock.clone(),
        )
    }

    #[test]
    fn retries_absorb_transient_failures() {
        let clock = VirtualClock::new();
        let rec = Recorder::enabled();
        let r = ResilientResource::new(flaky(2, &clock), clock.clone()).with_recorder(&rec);
        assert_eq!(r.try_context_terms("x").unwrap(), vec!["about x"]);
        let counts = rec.snapshot_counts_only();
        assert_eq!(counts["counter.resilient.Echo.retries"], 2);
        assert_eq!(counts["counter.resilient.Echo.failures"], 2);
        assert_eq!(r.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn retries_exhausted_surface_the_error() {
        let clock = VirtualClock::new();
        let r = ResilientResource::new(flaky(5, &clock), clock.clone())
            .with_retry(RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            })
            // 5 scheduled failures would trip the default breaker; this
            // test is about retry exhaustion only.
            .with_breaker(BreakerConfig::disabled());
        assert!(r.try_context_terms("x").is_err());
        // Attempts 0 and 1 consumed; after attempt 4 fails the retry
        // (attempt 5) recovers through the same wrapper.
        assert!(r.try_context_terms("x").is_err());
        assert_eq!(r.try_context_terms("x").unwrap(), vec!["about x"]);
    }

    #[test]
    fn backoff_advances_virtual_time_exponentially() {
        let clock = VirtualClock::new();
        let inner = FaultyResource::new(
            Echo,
            FaultPlan {
                latency_us: (0, 0), // isolate the backoff contribution
                ..FaultPlan::seeded(3, 1000).with_failures_per_term(2)
            },
            clock.clone(),
        );
        let r = ResilientResource::new(inner, clock.clone()).with_retry(RetryPolicy {
            max_retries: 2,
            backoff_base_us: 100,
            backoff_multiplier: 3,
            query_budget_us: 10_000,
        });
        r.try_context_terms("x").unwrap();
        // Two retries: 100 + 300 virtual us of backoff.
        assert_eq!(clock.now_us(), 400);
    }

    #[test]
    fn query_budget_caps_total_retry_time() {
        let clock = VirtualClock::new();
        let r = ResilientResource::new(flaky(10, &clock), clock.clone()).with_retry(RetryPolicy {
            max_retries: 10,
            backoff_base_us: 4_000,
            backoff_multiplier: 2,
            query_budget_us: 10_000,
        });
        let err = r.try_context_terms("x").unwrap_err();
        assert_eq!(err.kind, FaultKind::Timeout);
        assert!(err.detail.contains("budget"));
        assert!(
            clock.now_us() <= 20_000,
            "gave up near the budget, not after 10 retries"
        );
    }

    #[test]
    fn breaker_opens_after_threshold_and_sheds() {
        let clock = VirtualClock::new();
        let rec = Recorder::enabled();
        let r = ResilientResource::new(flaky(u32::MAX, &clock), clock.clone())
            .with_retry(RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            })
            .with_breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown_us: 1_000_000,
                half_open_probes: 1,
            })
            .with_recorder(&rec);
        for _ in 0..3 {
            assert!(r.try_context_terms("x").is_err());
        }
        assert_eq!(r.breaker_state(), BreakerState::Open);
        // Shed: the wrapped resource is not consulted while open.
        let before = r.inner().injected_failures();
        let err = r.try_context_terms("y").unwrap_err();
        assert_eq!(err.kind, FaultKind::Overload);
        assert!(err.detail.contains("circuit open"));
        assert_eq!(r.inner().injected_failures(), before);
        let counts = rec.snapshot_counts_only();
        assert_eq!(counts["counter.resilient.Echo.breaker_open"], 1);
        assert_eq!(counts["counter.resilient.Echo.shed"], 1);
    }

    #[test]
    fn breaker_half_open_probe_closes_on_success() {
        let clock = VirtualClock::new();
        let rec = Recorder::enabled();
        let inner = flaky(u32::MAX, &clock);
        let r = ResilientResource::new(inner, clock.clone())
            .with_retry(RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            })
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown_us: 10_000,
                half_open_probes: 1,
            })
            .with_recorder(&rec);
        assert!(r.try_context_terms("x").is_err());
        assert!(r.try_context_terms("x").is_err());
        assert_eq!(r.breaker_state(), BreakerState::Open);
        // Cooldown elapses; the backend has recovered.
        clock.advance_us(10_000);
        r.inner().heal();
        assert_eq!(r.try_context_terms("x").unwrap(), vec!["about x"]);
        assert_eq!(r.breaker_state(), BreakerState::Closed);
        let counts = rec.snapshot_counts_only();
        assert_eq!(counts["counter.resilient.Echo.breaker_half_open"], 1);
        assert_eq!(counts["counter.resilient.Echo.breaker_close"], 1);
    }

    #[test]
    fn breaker_failed_probe_reopens_for_a_fresh_cooldown() {
        let clock = VirtualClock::new();
        let r = ResilientResource::new(flaky(u32::MAX, &clock), clock.clone())
            .with_retry(RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            })
            .with_breaker(BreakerConfig {
                failure_threshold: 1,
                cooldown_us: 10_000,
                half_open_probes: 1,
            });
        assert!(r.try_context_terms("x").is_err());
        assert_eq!(r.breaker_state(), BreakerState::Open);
        clock.advance_us(10_000);
        // Probe admitted (half-open) but the backend is still down.
        assert!(r.try_context_terms("x").is_err());
        assert_eq!(r.breaker_state(), BreakerState::Open);
        // Still shedding until the *new* cooldown elapses.
        assert!(r
            .try_context_terms("x")
            .unwrap_err()
            .detail
            .contains("circuit open"));
    }

    #[test]
    fn half_open_requires_configured_probe_count() {
        let clock = VirtualClock::new();
        let inner = flaky(u32::MAX, &clock);
        let r = ResilientResource::new(inner, clock.clone())
            .with_retry(RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            })
            .with_breaker(BreakerConfig {
                failure_threshold: 1,
                cooldown_us: 1_000,
                half_open_probes: 2,
            });
        assert!(r.try_context_terms("x").is_err());
        clock.advance_us(1_000);
        r.inner().heal();
        assert!(r.try_context_terms("x").is_ok());
        assert_eq!(
            r.breaker_state(),
            BreakerState::HalfOpen,
            "one probe is not enough"
        );
        assert!(r.try_context_terms("x").is_ok());
        assert_eq!(r.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        struct Permanent;
        impl ContextResource for Permanent {
            fn name(&self) -> &'static str {
                "Permanent"
            }
            fn context_terms(&self, term: &str) -> Vec<String> {
                self.try_context_terms(term).unwrap_or_default()
            }
            fn try_context_terms(&self, _term: &str) -> Result<Vec<String>, ResourceError> {
                Err(ResourceError::new(
                    "Permanent",
                    FaultKind::Permanent,
                    "bad request",
                ))
            }
        }
        let clock = VirtualClock::new();
        let rec = Recorder::enabled();
        let r = ResilientResource::new(Permanent, clock.clone()).with_recorder(&rec);
        assert_eq!(
            r.try_context_terms("x").unwrap_err().kind,
            FaultKind::Permanent
        );
        let counts = rec.snapshot_counts_only();
        assert_eq!(counts["counter.resilient.Permanent.failures"], 1);
        assert_eq!(counts.get("counter.resilient.Permanent.retries"), Some(&0));
    }

    #[test]
    fn fault_free_path_is_transparent() {
        let clock = VirtualClock::new();
        let r = ResilientResource::new(Echo, clock.clone());
        assert_eq!(r.name(), "Echo");
        assert_eq!(r.context_terms("x"), vec!["about x"]);
        assert_eq!(r.try_context_terms("x").unwrap(), vec!["about x"]);
        assert_eq!(clock.now_us(), 0, "no backoff, no virtual time spent");
        assert_eq!(r.breaker_state(), BreakerState::Closed);
    }
}
