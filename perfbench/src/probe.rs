//! Timing wrappers for the traced run.
//!
//! [`TimedPredictor`] wraps an [`ExpertPredictor`] (layer `core`) and
//! [`TimedPolicy`] wraps an [`EvictionPolicy`] (layer `cache`). Both
//! forward every trait method, including the defaulted ones, so a wrapped
//! run makes exactly the decisions of an unwrapped one: DeepSpeed's
//! whole-layer loads go through `loads_entire_layer`, and SIEVE mutates
//! its hand inside `choose_victim_mut`. The unit tests at the bottom pin
//! each forward; `workload::tests` pins whole runs.

use fmoe_cache::EvictionPolicy;
use fmoe_model::ExpertId;
use fmoe_serving::{ExpertPredictor, IterationContext, PredictorTiming, PrefetchPlan};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Host time and call count of one wrapped method.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub calls: u64,
    pub time: Duration,
}

impl Span {
    fn record<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.time += start.elapsed();
        self.calls += 1;
        out
    }

    pub fn add(&mut self, other: &Span) {
        self.calls += other.calls;
        self.time += other.time;
    }

    pub fn ms(&self) -> f64 {
        self.time.as_secs_f64() * 1e3
    }
}

/// What the `core` wrapper measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreStats {
    pub begin: Span,
    pub observe: Span,
    pub end: Span,
    pub affinity: Span,
    pub plans_fetch: u64,
    pub plans_advisory: u64,
}

impl CoreStats {
    pub fn add(&mut self, other: &CoreStats) {
        self.begin.add(&other.begin);
        self.observe.add(&other.observe);
        self.end.add(&other.end);
        self.affinity.add(&other.affinity);
        self.plans_fetch += other.plans_fetch;
        self.plans_advisory += other.plans_advisory;
    }

    pub fn total(&self) -> Duration {
        self.begin.time + self.observe.time + self.end.time + self.affinity.time
    }

    fn count_plans(&mut self, plans: &[PrefetchPlan]) {
        for plan in plans {
            if plan.advisory {
                self.plans_advisory += 1;
            } else {
                self.plans_fetch += 1;
            }
        }
    }
}

/// A predictor and its measurements, shared between the wrapper the
/// engine (or cluster) owns and the benchmark, which reads both after
/// the run — the cluster API hands no predictor back.
pub struct CoreCell {
    pub predictor: Box<dyn ExpertPredictor>,
    pub stats: CoreStats,
}

pub type CoreHandle = Arc<Mutex<CoreCell>>;

pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark probe is never held across a panic")
}

/// Times every call into the wrapped predictor.
pub struct TimedPredictor(CoreHandle);

impl TimedPredictor {
    /// Wraps `predictor`; the returned handle reads the measurements.
    pub fn wrap(predictor: Box<dyn ExpertPredictor>) -> (Self, CoreHandle) {
        let cell = Arc::new(Mutex::new(CoreCell {
            predictor,
            stats: CoreStats::default(),
        }));
        (Self(Arc::clone(&cell)), cell)
    }
}

impl ExpertPredictor for TimedPredictor {
    fn name(&self) -> String {
        lock(&self.0).predictor.name()
    }

    fn timing(&self) -> PredictorTiming {
        lock(&self.0).predictor.timing()
    }

    fn begin_iteration(&mut self, ctx: &IterationContext) -> Vec<PrefetchPlan> {
        let cell = &mut *lock(&self.0);
        let plans = cell
            .stats
            .begin
            .record(|| cell.predictor.begin_iteration(ctx));
        cell.stats.count_plans(&plans);
        plans
    }

    fn observe_gate(
        &mut self,
        ctx: &IterationContext,
        layer: u32,
        distribution: &[f64],
    ) -> Vec<PrefetchPlan> {
        let cell = &mut *lock(&self.0);
        let plans = cell
            .stats
            .observe
            .record(|| cell.predictor.observe_gate(ctx, layer, distribution));
        cell.stats.count_plans(&plans);
        plans
    }

    fn end_iteration(&mut self, ctx: &IterationContext, realized_map: &[Vec<f64>]) {
        let cell = &mut *lock(&self.0);
        cell.stats
            .end
            .record(|| cell.predictor.end_iteration(ctx, realized_map));
    }

    fn reset(&mut self) {
        lock(&self.0).predictor.reset();
    }

    fn loads_entire_layer(&self) -> bool {
        lock(&self.0).predictor.loads_entire_layer()
    }

    fn semantic_affinity(&self, embedding: &[f64]) -> Option<f64> {
        let cell = &mut *lock(&self.0);
        cell.stats
            .affinity
            .record(|| cell.predictor.semantic_affinity(embedding))
    }

    fn warm_state(&self) -> Option<Vec<u8>> {
        lock(&self.0).predictor.warm_state()
    }

    fn restore_warm_state(&mut self, snapshot: &[u8]) -> bool {
        lock(&self.0).predictor.restore_warm_state(snapshot)
    }
}

/// What the `cache` wrapper measured.
#[derive(Debug, Default, Clone)]
pub struct CacheProbe {
    /// Every policy call except victim selection.
    pub policy: Span,
    /// `choose_victim` / `choose_victim_mut`.
    pub victim: Span,
    pub inserted: u64,
    /// Inserted experts that were hit at least once before removal.
    pub useful_removed: u64,
    /// Resident experts → "hit since insertion".
    resident: HashMap<ExpertId, bool>,
}

impl CacheProbe {
    /// Inserted experts hit at least once before removal or now.
    pub fn useful(&self) -> u64 {
        self.useful_removed + self.resident.values().filter(|&&hit| hit).count() as u64
    }

    /// Adds `other`'s totals (its residents count as at run end).
    pub fn merge(&mut self, other: &CacheProbe) {
        self.policy.add(&other.policy);
        self.victim.add(&other.victim);
        self.inserted += other.inserted;
        self.useful_removed += other.useful();
    }
}

pub type CacheHandle = Arc<Mutex<CacheProbe>>;

/// Times every call into the wrapped eviction policy and tracks which
/// insertions were ever hit.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn EvictionPolicy>,
    probe: CacheHandle,
}

impl TimedPolicy {
    /// Wraps `inner`; the returned handle reads the measurements.
    pub fn wrap(inner: Box<dyn EvictionPolicy>) -> (Self, CacheHandle) {
        let probe = CacheHandle::default();
        (
            Self {
                inner,
                probe: Arc::clone(&probe),
            },
            probe,
        )
    }
}

impl EvictionPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_insert(&mut self, expert: ExpertId, now: u64) {
        let probe = &mut *lock(&self.probe);
        probe.policy.record(|| self.inner.on_insert(expert, now));
        probe.inserted += 1;
        probe.resident.insert(expert, false);
    }

    fn on_hit(&mut self, expert: ExpertId, now: u64) {
        let probe = &mut *lock(&self.probe);
        probe.policy.record(|| self.inner.on_hit(expert, now));
        if let Some(hit) = probe.resident.get_mut(&expert) {
            *hit = true;
        }
    }

    fn on_remove(&mut self, expert: ExpertId) {
        let probe = &mut *lock(&self.probe);
        probe.policy.record(|| self.inner.on_remove(expert));
        if probe.resident.remove(&expert) == Some(true) {
            probe.useful_removed += 1;
        }
    }

    fn choose_victim(&self, candidates: &[ExpertId]) -> Option<ExpertId> {
        lock(&self.probe)
            .victim
            .record(|| self.inner.choose_victim(candidates))
    }

    fn choose_victim_mut(&mut self, candidates: &[ExpertId]) -> Option<ExpertId> {
        let probe = &mut *lock(&self.probe);
        probe
            .victim
            .record(|| self.inner.choose_victim_mut(candidates))
    }

    fn update_probability(&mut self, expert: ExpertId, probability: f64) {
        lock(&self.probe)
            .policy
            .record(|| self.inner.update_probability(expert, probability));
    }

    fn on_iteration_boundary(&mut self) {
        lock(&self.probe)
            .policy
            .record(|| self.inner.on_iteration_boundary());
    }

    fn expire_layer(&mut self, layer: u32) {
        lock(&self.probe)
            .policy
            .record(|| self.inner.expire_layer(layer));
    }

    fn reset(&mut self) {
        let probe = &mut *lock(&self.probe);
        probe.policy.record(|| self.inner.reset());
        probe.resident.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmoe_cache::{FmoePriorityPolicy, SievePolicy};
    use fmoe_model::gate::TokenSpan;
    use fmoe_model::RequestRouting;

    /// Records which methods were reached and answers non-default values.
    #[derive(Default)]
    struct Spy {
        calls: Arc<Mutex<Vec<&'static str>>>,
    }

    impl Spy {
        fn hit(&self, name: &'static str) {
            lock(&self.calls).push(name);
        }
    }

    impl ExpertPredictor for Spy {
        fn name(&self) -> String {
            "spy".into()
        }
        fn timing(&self) -> PredictorTiming {
            PredictorTiming::free()
        }
        fn begin_iteration(&mut self, _: &IterationContext) -> Vec<PrefetchPlan> {
            self.hit("begin");
            vec![PrefetchPlan::fetch(ExpertId::new(0, 1), 0.5)]
        }
        fn observe_gate(&mut self, _: &IterationContext, _: u32, _: &[f64]) -> Vec<PrefetchPlan> {
            self.hit("observe");
            vec![PrefetchPlan::advise(ExpertId::new(1, 1), 0.1)]
        }
        fn end_iteration(&mut self, _: &IterationContext, _: &[Vec<f64>]) {
            self.hit("end");
        }
        fn reset(&mut self) {
            self.hit("reset");
        }
        fn loads_entire_layer(&self) -> bool {
            true
        }
        fn semantic_affinity(&self, _: &[f64]) -> Option<f64> {
            Some(0.25)
        }
        fn warm_state(&self) -> Option<Vec<u8>> {
            Some(vec![7; 3])
        }
        fn restore_warm_state(&mut self, snapshot: &[u8]) -> bool {
            self.hit("restore");
            snapshot.len() == 3
        }
    }

    fn ctx() -> IterationContext {
        IterationContext {
            element: 0,
            request_id: 1,
            iteration: 0,
            is_prefill: true,
            span: TokenSpan::prefill(4),
            embedding: vec![1.0],
            routing: RequestRouting {
                cluster: 0,
                request_seed: 0,
            },
        }
    }

    #[test]
    fn predictor_wrapper_forwards_every_method() {
        let spy = Spy::default();
        let calls = Arc::clone(&spy.calls);
        let (mut timed, handle) = TimedPredictor::wrap(Box::new(spy));
        assert_eq!(timed.name(), "spy");
        assert_eq!(timed.timing(), PredictorTiming::free());
        assert_eq!(timed.begin_iteration(&ctx()).len(), 1);
        assert_eq!(timed.observe_gate(&ctx(), 0, &[1.0]).len(), 1);
        timed.end_iteration(&ctx(), &[]);
        timed.reset();
        assert!(timed.loads_entire_layer());
        assert_eq!(timed.semantic_affinity(&[1.0]), Some(0.25));
        assert_eq!(timed.warm_state(), Some(vec![7; 3]));
        assert!(timed.restore_warm_state(&[0; 3]));
        assert_eq!(
            *lock(&calls),
            ["begin", "observe", "end", "reset", "restore"]
        );
        let stats = lock(&handle).stats;
        assert_eq!(
            (stats.begin.calls, stats.observe.calls, stats.end.calls),
            (1, 1, 1)
        );
        assert_eq!(stats.affinity.calls, 1);
        assert_eq!((stats.plans_fetch, stats.plans_advisory), (1, 1));
    }

    /// SIEVE's scan mutates its hand: a wrapper that routed
    /// `choose_victim_mut` to the immutable scan would pick differently
    /// on the second eviction.
    #[test]
    fn policy_wrapper_keeps_sieve_scan_state() {
        let experts: Vec<ExpertId> = (0..4).map(|j| ExpertId::new(0, j)).collect();
        let mut plain = SievePolicy::new();
        let (mut timed, probe) = TimedPolicy::wrap(Box::new(SievePolicy::new()));
        for (t, &e) in experts.iter().enumerate() {
            plain.on_insert(e, t as u64);
            timed.on_insert(e, t as u64);
        }
        plain.on_hit(experts[0], 9);
        timed.on_hit(experts[0], 9);
        for _ in 0..3 {
            let a = plain.choose_victim_mut(&experts);
            let b = timed.choose_victim_mut(&experts);
            assert_eq!(a, b);
        }
        assert_eq!(timed.name(), plain.name());
        let probe = lock(&probe);
        assert_eq!(probe.victim.calls, 3);
        assert_eq!((probe.inserted, probe.useful()), (4, 1));
    }

    #[test]
    fn policy_wrapper_forwards_probability_hooks() {
        let a = ExpertId::new(2, 0);
        let b = ExpertId::new(2, 1);
        let mut plain = FmoePriorityPolicy::new();
        let (mut timed, probe) = TimedPolicy::wrap(Box::new(FmoePriorityPolicy::new()));
        for p in [&mut plain as &mut dyn EvictionPolicy, &mut timed] {
            p.on_insert(a, 0);
            p.on_insert(b, 1);
            p.update_probability(a, 0.9);
            p.update_probability(b, 0.01);
        }
        assert_eq!(timed.choose_victim(&[a, b]), plain.choose_victim(&[a, b]));
        for p in [&mut plain as &mut dyn EvictionPolicy, &mut timed] {
            p.expire_layer(2);
            p.on_iteration_boundary();
        }
        assert_eq!(timed.choose_victim(&[a, b]), plain.choose_victim(&[a, b]));
        timed.on_remove(a);
        timed.reset();
        let probe = lock(&probe);
        assert_eq!(probe.policy.calls, 8);
        assert_eq!(probe.useful(), 0);
    }
}
