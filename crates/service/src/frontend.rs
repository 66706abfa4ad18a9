//! The request frontend: everything between a tenant's arrival stream and
//! the SoC's DAG releases. The simulator owns event order, DAG instances
//! and cancellation; it calls one [`Frontend`] hook per service-relevant
//! event and acts on the answer (the next arrival to schedule, a request
//! to launch, a timeout to arm). The frontend schedules nothing itself,
//! so the simulator keeps one event queue and one `(time, seq)` order.

use crate::{AdmissionState, QosClass, SelfHealConfig, ShedReason, StreamConfig, StreamPlan};
use relief_metrics::{Histogram, ServiceStats};
use relief_sim::{Dur, Time};
use relief_trace::{EventKind, ServiceClass, ShedCause, Tracer};

/// Steady-state sojourn histogram layout: 50 µs bins spanning 30 ms.
const SOJOURN_BIN_PS: u64 = 50_000_000;
const SOJOURN_BINS: usize = 600;
/// Steady-state node-latency histogram layout: 20 µs bins spanning 10 ms.
const NODE_LATENCY_BIN_PS: u64 = 20_000_000;
const NODE_LATENCY_BINS: usize = 500;
/// Breaker time-in-open histogram layout: 250 µs bins spanning 30 ms.
const OPEN_BIN_PS: u64 = 250_000_000;
const OPEN_BINS: usize = 120;
/// Retry-count histogram layout: unit bins, attempts 0..15 (overflow above).
const RETRY_BIN: u64 = 1;
const RETRY_BINS: usize = 16;

impl From<QosClass> for ServiceClass {
    fn from(q: QosClass) -> Self {
        match q {
            QosClass::Latency => ServiceClass::Latency,
            QosClass::Standard => ServiceClass::Standard,
            QosClass::BestEffort => ServiceClass::BestEffort,
        }
    }
}

/// The request a DAG instance serves. The simulator stores one per
/// instance (the default in closed loop) and hands it back at the
/// instance's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Request {
    /// Stream index within the tenant (hedges inherit the original's, so
    /// the hedge draw chain stays per-request).
    index: u64,
    /// First arrival: a hedged completion's sojourn spans every attempt.
    first_arrival: Time,
    /// 0-based delivery attempt: +1 per hedged relaunch.
    attempt: u32,
}

/// Circuit-breaker phase (closed → open → half-open → closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum BreakerPhase {
    #[default]
    Closed,
    Open,
    HalfOpen,
}

/// One tenant's circuit breaker. Every transition happens lazily at an
/// arrival or outcome hook, so it schedules no events of its own.
#[derive(Debug, Clone, Copy, Default)]
struct Breaker {
    phase: BreakerPhase,
    /// Consecutive request failures while closed.
    failures: u32,
    /// Consecutive probe successes while half-open.
    successes: u32,
    /// When the breaker last entered `Open`; carried through half-open so
    /// the close event reports the full open duration.
    opened_at: Time,
}

/// The open-loop service frontend of one simulation run: arrival
/// accounting, circuit breakers, token-bucket and in-flight admission,
/// request timeouts and hedges, and the per-class [`ServiceStats`]. Built
/// only when the stream is enabled.
#[derive(Debug)]
pub struct Frontend {
    plan: StreamPlan,
    /// Token buckets + in-flight cap; evolves in event order within the run.
    admission: AdmissionState,
    stats: ServiceStats,
    /// Next request index per tenant.
    next_index: Vec<u64>,
    tenant_class: Vec<QosClass>,
    heal: SelfHealConfig,
    /// Per-tenant circuit breakers; empty when the breaker is off.
    breakers: Vec<Breaker>,
    tracer: Tracer,
}

impl Frontend {
    /// A frontend for `cfg`'s tenants with fresh admission state, closed
    /// breakers and empty statistics.
    #[must_use]
    pub fn new(cfg: StreamConfig) -> Self {
        let heal = cfg.self_heal.clone();
        let mut stats = ServiceStats {
            warmup_ps: cfg.warmup_ps,
            duration_ps: cfg.duration_ps,
            ..ServiceStats::default()
        };
        for c in &mut stats.classes {
            c.sojourn = Histogram::new(SOJOURN_BIN_PS, SOJOURN_BINS);
            c.node_latency = Histogram::new(NODE_LATENCY_BIN_PS, NODE_LATENCY_BINS);
        }
        // The self-heal histograms exist only when the knobs are on, so a
        // knobs-off run's stats stay `Default`-equal bit for bit.
        if heal.enabled() {
            stats.retry_hist = Histogram::new(RETRY_BIN, RETRY_BINS);
            stats.open_hist = Histogram::new(OPEN_BIN_PS, OPEN_BINS);
        }
        let n = if heal.breaker_enabled() { cfg.tenants.len() } else { 0 };
        Frontend {
            admission: AdmissionState::new(&cfg),
            stats,
            next_index: vec![0; cfg.tenants.len()],
            tenant_class: cfg.tenants.iter().map(|t| t.qos).collect(),
            breakers: vec![Breaker::default(); n],
            heal,
            plan: StreamPlan::new(cfg),
            tracer: Tracer::off(),
        }
    }

    /// Replaces the tracer the service events are emitted through.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Consumes the frontend, returning its statistics.
    #[must_use]
    pub fn into_stats(self) -> ServiceStats {
        self.stats
    }

    /// When arrival `index` of `tenant` fires, given the previous one
    /// fired at `from` (`Time::ZERO` for index 0); `None` when the tenant
    /// is silent or the arrival lands past the duration horizon.
    #[must_use]
    pub fn next_arrival(&self, tenant: usize, index: u64, from: Time) -> Option<Time> {
        let gap = self.plan.gap_ps(tenant as u32, index, from.as_ps())?;
        let at = from.as_ps().saturating_add(gap);
        (at <= self.plan.cfg().duration_ps).then(|| Time::from_ps(at))
    }

    /// A request of `tenant` arrived at `now`: count it and run the
    /// breaker and admission gates. Returns the tenant's next arrival (if
    /// inside the horizon) and the request to launch (if admitted); a
    /// shed request is only counted and traced.
    pub fn arrive(&mut self, now: Time, tenant: usize) -> (Option<Time>, Option<Request>) {
        let index = self.next_index[tenant];
        self.next_index[tenant] = index + 1;
        let class = self.tenant_class[tenant];
        self.stats.classes[class.index()].arrivals += 1;
        self.tracer.emit(now.as_ps(), || EventKind::StreamArrival {
            tenant: tenant as u32,
            index,
            class: class.into(),
        });
        // `now` is arrival `index`'s exact time, so the gap draw stays a
        // pure function of the identity.
        let next = self.next_arrival(tenant, index + 1, now);
        let admitted = self.admit(now, tenant, class, index);
        (next, admitted.then_some(Request { index, first_arrival: now, attempt: 0 }))
    }

    /// The breaker gate, then the token bucket and in-flight cap.
    fn admit(&mut self, now: Time, tenant: usize, class: QosClass, index: u64) -> bool {
        let cause = if !self.breaker_admits(now, tenant, index) {
            self.stats.classes[class.index()].shed_breaker += 1;
            ShedCause::Breaker
        } else {
            let c = &mut self.stats.classes[class.index()];
            match self.admission.try_admit(now.as_ps(), tenant, class) {
                Ok(()) => {
                    c.admitted += 1;
                    return true;
                }
                Err(ShedReason::Bucket) => {
                    c.shed_bucket += 1;
                    ShedCause::Bucket
                }
                Err(ShedReason::Capacity) => {
                    c.shed_capacity += 1;
                    ShedCause::Capacity
                }
            }
        };
        self.tracer.emit(now.as_ps(), || EventKind::RequestShed {
            tenant: tenant as u32,
            index,
            class: class.into(),
            cause,
        });
        false
    }

    /// Circuit breaker: a tenant whose requests keep failing is cut off
    /// before the token bucket ever sees it. Open sheds outright; the
    /// first arrival past the open window half-opens the breaker, and
    /// half-open admits a seeded fraction of arrivals as probes.
    fn breaker_admits(&mut self, now: Time, tenant: usize, index: u64) -> bool {
        let Some(b) = self.breakers.get_mut(tenant) else { return true };
        match b.phase {
            BreakerPhase::Closed => true,
            BreakerPhase::Open
                if now.saturating_since(b.opened_at) >= Dur::from_ps(self.heal.breaker_open_ps) =>
            {
                b.phase = BreakerPhase::HalfOpen;
                b.successes = 0;
                self.tracer.emit(now.as_ps(), || EventKind::BreakerHalfOpen {
                    tenant: tenant as u32,
                });
                self.plan.probe_admit(tenant as u32, index)
            }
            BreakerPhase::Open => false,
            BreakerPhase::HalfOpen => self.plan.probe_admit(tenant as u32, index),
        }
    }

    /// The simulator released `instance` for `req` (an admitted arrival,
    /// or a hedge). Returns the delay to its timeout when timeouts are on:
    /// the app's relative `deadline` times the timeout factor.
    pub fn launched(&mut self, now: Time, tenant: usize, instance: u32, req: Request, deadline: Dur) -> Option<Dur> {
        let (tenant, attempt) = (tenant as u32, req.attempt);
        self.tracer.emit(now.as_ps(), || match attempt {
            0 => EventKind::RequestAdmitted { tenant, index: req.index, instance },
            _ => EventKind::HedgeLaunched { tenant, instance, attempt },
        });
        self.heal.timeouts_enabled().then(|| {
            Dur::from_ps((deadline.as_ps() as f64 * self.heal.timeout_factor) as u64)
        })
    }

    /// A node of one of `tenant`'s instances (released at `arrival`, node
    /// deadline `deadline`) completed at `now`. Samples before the warm-up
    /// cutoff are cold-start transient and excluded.
    pub fn node_done(&mut self, now: Time, tenant: usize, deadline: Time, arrival: Time) {
        if now.as_ps() < self.stats.warmup_ps {
            return;
        }
        let c = &mut self.stats.classes[self.tenant_class[tenant].index()];
        c.nodes_measured += 1;
        if now <= deadline {
            c.node_deadlines_met += 1;
        }
        c.node_latency.record(now.saturating_since(arrival).as_ps());
    }

    /// `instance`, serving `req`, completed at `now`: its in-flight slot
    /// frees and its sojourn from the request's *first* arrival (what the
    /// client waited, hedges included) feeds the steady-state histogram.
    /// Met or missed, a completion is a breaker success.
    pub fn completed(&mut self, now: Time, tenant: usize, instance: u32, req: Request, met: bool) {
        self.admission.release();
        let sojourn_ps = now.saturating_since(req.first_arrival).as_ps();
        let class = self.tenant_class[tenant];
        let c = &mut self.stats.classes[class.index()];
        c.completed += 1;
        if met {
            c.dag_deadlines_met += 1;
        }
        if now.as_ps() >= self.stats.warmup_ps {
            c.sojourn.record(sojourn_ps);
        }
        if self.heal.enabled() {
            self.stats.retry_hist.record(u64::from(req.attempt));
            self.breaker_outcome(now, tenant, true);
        }
        self.tracer.emit(now.as_ps(), || EventKind::RequestCompleted {
            tenant: tenant as u32,
            instance,
            class: class.into(),
            sojourn_ps,
            met,
        });
    }

    /// One of `tenant`'s instances aborted at `now` (a node exhausted its
    /// fault retries) and will never complete: free its in-flight slot and
    /// report a breaker failure. Called once per instance.
    pub fn aborted(&mut self, now: Time, tenant: usize) {
        self.admission.release();
        self.breaker_outcome(now, tenant, false);
    }

    /// `instance`, serving `req`, timed out at `now`; the simulator
    /// cancelled it with `cancelled_xfers` transfers in flight. Frees its
    /// slot, reports a breaker failure, and returns the hedge to launch if
    /// the class budget, a seeded draw and the class capacity share allow
    /// one. The hedge skips the token bucket (the original paid it); its
    /// deadline restarts while its sojourn stays anchored to the first
    /// arrival.
    pub fn timed_out(&mut self, now: Time, tenant: usize, instance: u32, req: Request, cancelled_xfers: u64) -> Option<Request> {
        let class = self.tenant_class[tenant];
        self.stats.timeout_cancelled_xfers += cancelled_xfers;
        self.stats.classes[class.index()].timed_out += 1;
        self.tracer.emit(now.as_ps(), || EventKind::RequestTimedOut {
            tenant: tenant as u32,
            instance,
            class: class.into(),
            attempt: req.attempt,
        });
        self.admission.release();
        self.breaker_outcome(now, tenant, false);
        let next = req.attempt + 1;
        let hedge = next <= self.heal.hedge_budget[class.index()]
            && self.plan.hedge_launch(tenant as u32, req.index, req.attempt)
            && self.admission.try_occupy(class);
        self.stats.classes[class.index()].hedged += u64::from(hedge);
        hedge.then_some(Request { attempt: next, ..req })
    }

    /// Feeds one request outcome of `tenant` into its circuit breaker:
    /// timeouts and aborts fail, completions succeed. While `Open`,
    /// outcomes are ignored; in `HalfOpen` *any* outcome is a probe, even
    /// one of a request admitted before the breaker opened.
    fn breaker_outcome(&mut self, now: Time, tenant: usize, success: bool) {
        let Some(b) = self.breakers.get_mut(tenant) else { return };
        match (b.phase, success) {
            (BreakerPhase::Closed, true) => b.failures = 0,
            (BreakerPhase::Closed, false) => {
                b.failures += 1;
                if b.failures >= self.heal.breaker_failures {
                    b.phase = BreakerPhase::Open;
                    b.opened_at = now;
                    let failures = b.failures;
                    self.tracer.emit(now.as_ps(), || EventKind::BreakerOpened {
                        tenant: tenant as u32,
                        failures,
                    });
                }
            }
            (BreakerPhase::HalfOpen, true) => {
                b.successes += 1;
                if b.successes >= self.heal.probes_to_close {
                    b.phase = BreakerPhase::Closed;
                    b.failures = 0;
                    let open_ps = now.saturating_since(b.opened_at).as_ps();
                    self.stats.open_hist.record(open_ps);
                    self.tracer.emit(now.as_ps(), || EventKind::BreakerClosed {
                        tenant: tenant as u32,
                        open_ps,
                    });
                }
            }
            (BreakerPhase::HalfOpen, false) => {
                // A failed probe re-opens immediately: the failure count
                // reported is the probe itself.
                b.phase = BreakerPhase::Open;
                b.opened_at = now;
                b.failures = 0;
                self.tracer.emit(now.as_ps(), || EventKind::BreakerOpened {
                    tenant: tenant as u32,
                    failures: 1,
                });
            }
            (BreakerPhase::Open, _) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdmissionConfig, TenantCfg};
    use relief_trace::RingBufferSink;
    use std::cell::RefCell;
    use std::rc::Rc;

    const OPEN_PS: u64 = 1_000_000;

    /// Two tenants (Latency, BestEffort) with the given knobs.
    fn frontend(heal: SelfHealConfig, admission: AdmissionConfig) -> (Frontend, Rc<RefCell<RingBufferSink>>) {
        let cfg = StreamConfig {
            duration_ps: 1_000_000_000,
            tenants: vec![
                TenantCfg::new(QosClass::Latency, 1_000.0),
                TenantCfg::new(QosClass::BestEffort, 1_000.0),
            ],
            admission,
            self_heal: heal,
            ..StreamConfig::default()
        };
        cfg.validate().unwrap();
        let ring = RingBufferSink::shared(1024);
        let mut tracer = Tracer::off();
        tracer.attach(ring.clone());
        let mut fe = Frontend::new(cfg);
        fe.set_tracer(tracer);
        (fe, ring)
    }

    /// A breaker that trips after `failures` and closes after `probes`
    /// successful probes; every half-open arrival probes.
    fn breaker(failures: u32, probes: u32) -> SelfHealConfig {
        SelfHealConfig {
            breaker_failures: failures,
            breaker_open_ps: OPEN_PS,
            probes_to_close: probes,
            ..SelfHealConfig::default()
        }
    }

    fn t(ps: u64) -> Time {
        Time::from_ps(ps)
    }

    fn drain(ring: &Rc<RefCell<RingBufferSink>>) -> Vec<EventKind> {
        ring.borrow_mut().take().into_iter().map(|e| e.kind).collect()
    }

    fn phase(fe: &Frontend, tenant: usize) -> BreakerPhase {
        fe.breakers[tenant].phase
    }

    #[test]
    fn breaker_opens_after_the_configured_failures() {
        let (mut fe, ring) = frontend(breaker(3, 1), AdmissionConfig::default());
        fe.aborted(t(10), 0);
        fe.aborted(t(20), 0);
        assert_eq!(phase(&fe, 0), BreakerPhase::Closed);
        assert!(drain(&ring).is_empty());
        fe.aborted(t(30), 0);
        assert_eq!(phase(&fe, 0), BreakerPhase::Open);
        assert_eq!(drain(&ring), vec![EventKind::BreakerOpened { tenant: 0, failures: 3 }]);
        // The other tenant's breaker is independent.
        assert_eq!(phase(&fe, 1), BreakerPhase::Closed);
    }

    #[test]
    fn a_completion_resets_the_failure_count() {
        let (mut fe, _) = frontend(breaker(2, 1), AdmissionConfig::default());
        let (_, req) = fe.arrive(t(1), 0);
        fe.aborted(t(2), 0);
        // A missed deadline is still a success for the breaker.
        fe.completed(t(3), 0, 0, req.unwrap(), false);
        fe.aborted(t(4), 0);
        assert_eq!(phase(&fe, 0), BreakerPhase::Closed);
    }

    #[test]
    fn open_breaker_sheds_then_half_opens_lazily_at_the_first_arrival_past_the_window() {
        let (mut fe, ring) = frontend(breaker(1, 1), AdmissionConfig::default());
        fe.aborted(t(100), 0);
        drain(&ring);
        let (_, shed) = fe.arrive(t(100 + OPEN_PS - 1), 0);
        assert_eq!(shed, None);
        assert_eq!(fe.stats.classes[0].shed_breaker, 1);
        assert_eq!(fe.stats.classes[0].admitted, 0);
        assert_eq!(
            drain(&ring)[1],
            EventKind::RequestShed {
                tenant: 0,
                index: 0,
                class: ServiceClass::Latency,
                cause: ShedCause::Breaker,
            }
        );
        // Nothing happens between arrivals: still open.
        assert_eq!(phase(&fe, 0), BreakerPhase::Open);
        let (_, probe) = fe.arrive(t(100 + OPEN_PS), 0);
        assert_eq!(probe.map(|r| r.index), Some(1));
        assert_eq!(phase(&fe, 0), BreakerPhase::HalfOpen);
        assert_eq!(
            drain(&ring),
            vec![
                EventKind::StreamArrival { tenant: 0, index: 1, class: ServiceClass::Latency },
                EventKind::BreakerHalfOpen { tenant: 0 },
            ]
        );
    }

    #[test]
    fn probe_successes_close_the_breaker_and_record_the_open_time() {
        let (mut fe, ring) = frontend(breaker(1, 2), AdmissionConfig::default());
        fe.aborted(t(100), 0);
        let (_, a) = fe.arrive(t(100 + OPEN_PS), 0);
        let (_, b) = fe.arrive(t(200 + OPEN_PS), 0);
        drain(&ring);
        fe.completed(t(300 + OPEN_PS), 0, 0, a.unwrap(), true);
        assert_eq!(phase(&fe, 0), BreakerPhase::HalfOpen);
        assert_eq!(fe.stats.open_hist.count(), 0);
        fe.completed(t(400 + OPEN_PS), 0, 1, b.unwrap(), true);
        assert_eq!(phase(&fe, 0), BreakerPhase::Closed);
        assert_eq!(fe.stats.open_hist.count(), 1);
        assert!(drain(&ring)
            .contains(&EventKind::BreakerClosed { tenant: 0, open_ps: 300 + OPEN_PS }));
    }

    #[test]
    fn a_failed_probe_reopens_with_one_failure() {
        let (mut fe, ring) = frontend(breaker(3, 2), AdmissionConfig::default());
        for at in 1..=3 {
            fe.aborted(t(at), 0);
        }
        let (_, probe) = fe.arrive(t(3 + OPEN_PS), 0);
        assert!(probe.is_some());
        drain(&ring);
        fe.aborted(t(5 + OPEN_PS), 0);
        assert_eq!(phase(&fe, 0), BreakerPhase::Open);
        assert_eq!(fe.breakers[0].opened_at, t(5 + OPEN_PS));
        assert_eq!(drain(&ring), vec![EventKind::BreakerOpened { tenant: 0, failures: 1 }]);
        // The new window runs from the re-open.
        assert_eq!(fe.arrive(t(4 + 2 * OPEN_PS), 0).1, None);
    }

    #[test]
    fn a_pre_open_request_completing_during_half_open_counts_as_a_probe() {
        let (mut fe, _) = frontend(breaker(1, 1), AdmissionConfig::default());
        let (_, early) = fe.arrive(t(1), 0);
        fe.aborted(t(2), 0);
        // While open, its outcome would be ignored; half-open first.
        fe.arrive(t(2 + OPEN_PS), 0);
        assert_eq!(phase(&fe, 0), BreakerPhase::HalfOpen);
        fe.completed(t(3 + OPEN_PS), 0, 0, early.unwrap(), true);
        assert_eq!(phase(&fe, 0), BreakerPhase::Closed);
    }

    #[test]
    fn outcomes_while_open_are_ignored() {
        let (mut fe, _) = frontend(breaker(1, 1), AdmissionConfig::default());
        let (_, early) = fe.arrive(t(1), 0);
        fe.aborted(t(2), 0);
        fe.completed(t(3), 0, 0, early.unwrap(), true);
        fe.aborted(t(4), 0);
        assert_eq!(phase(&fe, 0), BreakerPhase::Open);
        assert_eq!(fe.breakers[0].opened_at, t(2));
    }

    #[test]
    fn hedges_respect_the_class_budget_and_the_capacity_share() {
        let heal = SelfHealConfig {
            timeout_factor: 2.0,
            hedge_budget: [1, 0, 0],
            ..SelfHealConfig::default()
        };
        let admission = AdmissionConfig { max_in_flight: 10, ..AdmissionConfig::default() };
        let (mut fe, _) = frontend(heal.clone(), admission.clone());
        let (_, req) = fe.arrive(t(1), 0);
        let req = req.unwrap();
        assert_eq!(fe.launched(t(1), 0, 0, req, Dur::from_ps(500)), Some(Dur::from_ps(1000)));
        let hedge = fe.timed_out(t(1001), 0, 0, req, 4).unwrap();
        assert_eq!(hedge, Request { attempt: 1, ..req });
        assert_eq!(fe.stats.classes[0].hedged, 1);
        assert_eq!(fe.stats.timeout_cancelled_xfers, 4);
        // The hedge holds the released slot; its own timeout is the last
        // attempt the budget allows.
        assert_eq!(fe.admission.in_flight(), 1);
        assert_eq!(fe.timed_out(t(2001), 0, 1, hedge, 0), None);
        assert_eq!(fe.stats.classes[0].timed_out, 2);
        assert_eq!(fe.admission.in_flight(), 0);
        // BestEffort has no budget.
        let (_, be) = fe.arrive(t(3000), 1);
        assert_eq!(fe.timed_out(t(4000), 1, 2, be.unwrap(), 0), None);

        // `try_occupy` gates a budgeted hedge: a BestEffort request times
        // out while Latency traffic fills the cap past BestEffort's 60 %.
        let heal = SelfHealConfig { hedge_budget: [1, 1, 1], ..heal };
        let (mut fe, _) = frontend(heal, admission);
        let (_, be) = fe.arrive(t(1), 1);
        for i in 0..7 {
            assert!(fe.arrive(t(2 + i), 0).1.is_some());
        }
        assert_eq!(fe.admission.in_flight(), 8);
        assert_eq!(fe.timed_out(t(100), 1, 0, be.unwrap(), 0), None);
        assert_eq!(fe.admission.in_flight(), 7);
        assert_eq!(fe.stats.classes[2].hedged, 0);
    }

    #[test]
    fn an_abort_releases_exactly_one_in_flight_slot() {
        let admission = AdmissionConfig { max_in_flight: 2, ..AdmissionConfig::default() };
        let (mut fe, _) = frontend(SelfHealConfig::default(), admission);
        assert!(fe.arrive(t(1), 0).1.is_some());
        assert!(fe.arrive(t(2), 0).1.is_some());
        assert!(fe.arrive(t(3), 0).1.is_none(), "cap reached");
        fe.aborted(t(4), 0);
        assert_eq!(fe.admission.in_flight(), 1);
        assert!(fe.arrive(t(5), 0).1.is_some(), "the freed slot admits again");
        assert_eq!(fe.stats.classes[0].shed_capacity, 1);
    }

    #[test]
    fn default_self_heal_builds_no_breakers_and_no_heal_histograms() {
        let (mut fe, ring) = frontend(SelfHealConfig::default(), AdmissionConfig::default());
        assert!(fe.breakers.is_empty());
        assert_eq!(fe.stats.retry_hist, Histogram::default());
        assert_eq!(fe.stats.open_hist, Histogram::default());
        // Outcomes feed nothing: no breaker events, no retry samples, no
        // timeout.
        let (_, req) = fe.arrive(t(1), 0);
        let req = req.unwrap();
        assert_eq!(fe.launched(t(1), 0, 0, req, Dur::from_ps(500)), None);
        fe.aborted(t(2), 0);
        fe.completed(t(3), 0, 1, req, true);
        let stats = fe.into_stats();
        assert_eq!(stats.retry_hist, Histogram::default());
        assert_eq!(stats.open_hist, Histogram::default());
        assert!(ring.borrow().snapshot().iter().all(|e| !matches!(
            e.kind,
            EventKind::BreakerOpened { .. }
                | EventKind::BreakerHalfOpen { .. }
                | EventKind::BreakerClosed { .. }
        )));
    }
}
