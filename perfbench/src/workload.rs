//! The three benchmark workloads: seeded input generation, set-up, and
//! one serving session each, driven through the public API only
//! (`serve`, `Cluster::dispatch`, `populate_from_history`).
//!
//! A run serves `sessions` independent sessions. Each session generates
//! its own LMSYS-style prompts on a bursty Azure-style arrival trace,
//! builds fresh predictors (stores warmed from the session's 70% history
//! split) and a fresh engine or fleet, and replays the trace open-loop in
//! virtual time. Pooling several short sessions gives the percentile
//! metrics enough samples while each session yields one host-time sample.

use crate::cpu;
use crate::probe::{
    lock, CacheHandle, CacheProbe, CoreHandle, CoreStats, TimedPolicy, TimedPredictor,
};
use fmoe::predictor::HistoryRequest;
use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_baselines::DeepSpeedPredictor;
use fmoe_cache::{CacheStats, EvictionPolicy, FmoePriorityPolicy, LfuPolicy};
use fmoe_cluster::{AffinityConfig, Cluster, RoutingPolicy};
use fmoe_memsim::{Topology, TransferStats};
use fmoe_model::{presets, GateParams, GateSimulator, GpuSpec, ModelConfig};
use fmoe_serving::{
    serve, Breakdown, EngineBuilder, EngineConfig, ExpertPredictor, OnlineResult, ServeOptions,
    ServingEngine,
};
use fmoe_workload::{split, AzureTraceSpec, DatasetSpec, Prompt, TraceEvent};
use std::time::{Duration, Instant};

/// Prompts sampled per session before the paper's 70/30 split; the 70%
/// warms the fMoE stores.
const HISTORY_POOL: u64 = 120;
/// Iterations replayed into the store per history prompt.
const HISTORY_ITERATIONS: u64 = 6;
/// Continuous-batching width of the online engine.
const ONLINE_SLOTS: usize = 4;
/// Replicas in the fleet workload.
const FLEET_REPLICAS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OnlineFmoe,
    OnlineOndemand,
    FleetAffinity,
}

/// One workload: what it serves and at which load.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Independent sessions per run (the sim sample is pooled over them).
    pub sessions: usize,
    /// Requests per session.
    pub requests: u64,
    /// Mean arrival rate in requests per virtual second (whole fleet).
    pub rate_per_s: f64,
    /// Decode iterations served per request at most.
    pub max_decode: u64,
    /// A request meets its SLO when TTFT (from its scheduled arrival) and
    /// TPOT both stay within these limits.
    pub ttft_slo_ms: f64,
    pub tpot_slo_ms: f64,
}

/// Rates sit below the highest rate with a flat backlog: close to it,
/// queueing puts a knee in the TTFT distribution near p90, and p90 TTFT
/// then moves by a third between seeds. Session sizes make one run of
/// each workload about 20 s of serving on a 2-core x86-64 host.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "online-fmoe",
        kind: Kind::OnlineFmoe,
        sessions: 4,
        requests: 160,
        rate_per_s: 0.035,
        max_decode: 8,
        ttft_slo_ms: 1000.0,
        tpot_slo_ms: 400.0,
    },
    Workload {
        name: "online-ondemand",
        kind: Kind::OnlineOndemand,
        sessions: 4,
        requests: 300,
        rate_per_s: 0.02,
        max_decode: 8,
        ttft_slo_ms: 2000.0,
        tpot_slo_ms: 850.0,
    },
    Workload {
        name: "fleet-affinity",
        kind: Kind::FleetAffinity,
        sessions: 3,
        requests: 800,
        rate_per_s: 15.0,
        max_decode: 8,
        ttft_slo_ms: 25.0,
        tpot_slo_ms: 1.5,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeds one session derives from the run's `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Router identity of the served model (shared by every session).
    pub gate: u64,
    pub dataset: u64,
    pub trace: u64,
}

impl Seeds {
    pub fn new(seed: u64, session: usize) -> Self {
        let session = session as u64;
        Self {
            gate: derive(seed, 1),
            dataset: derive(derive(seed, 2), session),
            trace: derive(derive(seed, 3), session),
        }
    }
}

/// The generated inputs of one session: all the program receives.
pub struct Inputs {
    pub history: Vec<Prompt>,
    pub trace: Vec<TraceEvent>,
}

impl Workload {
    pub fn layers(&self) -> u32 {
        self.model().num_layers
    }

    fn model(&self) -> ModelConfig {
        match self.kind {
            Kind::OnlineFmoe | Kind::OnlineOndemand => presets::mixtral_8x7b(),
            Kind::FleetAffinity => presets::small_test_model(),
        }
    }

    /// LMSYS-style prompts and a bursty Azure-style trace. The trace is
    /// rescaled so its last arrival lands at `requests / rate_per_s`: the
    /// burst pattern stays the generator's, but every seed offers the
    /// same mean load.
    pub fn inputs(&self, seeds: Seeds) -> Inputs {
        let dataset = DatasetSpec {
            seed: seeds.dataset,
            ..DatasetSpec::lmsys_chat()
        };
        let (history, _) = split::paper_split(&dataset.prompts(HISTORY_POOL));
        let mut spec = AzureTraceSpec::paper_online_serving(dataset);
        spec.num_requests = self.requests;
        spec.seed = seeds.trace;
        let mut trace = spec.generate();
        let span = trace.last().map_or(0, |e| e.arrival_ns);
        let target = self.requests as f64 / self.rate_per_s * 1e9;
        if span > 0 {
            for event in &mut trace {
                event.arrival_ns = (event.arrival_ns as f64 * target / span as f64) as u64;
            }
        }
        Inputs { history, trace }
    }
}

/// Host time of the set-up steps measured per layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Input generation (`fmoe-workload`).
    pub gen: Duration,
    /// Store warm-up (`populate_from_history`, `fmoe-core`).
    pub populate: Duration,
    /// The whole set-up, generation to a ready engine or fleet, on the
    /// process CPU clock.
    pub cpu: Duration,
}

enum Target {
    Online {
        engine: Box<ServingEngine>,
        predictor: Box<dyn ExpertPredictor>,
    },
    Fleet(Box<Cluster>),
}

/// Timing wrappers of a traced session, one per replica.
#[derive(Default)]
struct Probes {
    core: Vec<CoreHandle>,
    cache: Vec<CacheHandle>,
}

/// A session ready to serve.
pub struct Session {
    target: Target,
    trace: Vec<TraceEvent>,
    pub setup: SetupTimes,
    probes: Option<Probes>,
}

fn fmoe_predictor(model: &ModelConfig, gate: &GateSimulator, history: &[Prompt]) -> FmoePredictor {
    let mut p = FmoePredictor::new(model.clone(), FmoeConfig::for_model(model));
    let hist: Vec<HistoryRequest> = history
        .iter()
        .map(|pr| HistoryRequest {
            routing: pr.routing,
            prompt_tokens: pr.prompt_tokens,
            iterations: pr.iterations().min(HISTORY_ITERATIONS),
        })
        .collect();
    p.populate_from_history(gate, &hist, HISTORY_ITERATIONS);
    p
}

fn fmoe_cache_policy(model: &ModelConfig) -> Box<dyn EvictionPolicy> {
    Box::new(
        FmoePriorityPolicy::new()
            .with_neutral_probability(1.0 / f64::from(model.experts_per_layer.max(1))),
    )
}

/// Installs the timing wrappers when `probes` is present.
fn instrument(
    predictor: Box<dyn ExpertPredictor>,
    policy: Box<dyn EvictionPolicy>,
    probes: &mut Option<Probes>,
) -> (Box<dyn ExpertPredictor>, Box<dyn EvictionPolicy>) {
    match probes {
        None => (predictor, policy),
        Some(probes) => {
            let (predictor, core) = TimedPredictor::wrap(predictor);
            let (policy, cache) = TimedPolicy::wrap(policy);
            probes.core.push(core);
            probes.cache.push(cache);
            (Box::new(predictor), Box::new(policy))
        }
    }
}

impl Workload {
    fn gate(&self, seeds: Seeds) -> GateSimulator {
        let model = self.model();
        let params = GateParams::for_model(&model).with_seed(seeds.gate);
        GateSimulator::new(model, params)
    }

    /// Generates a session's inputs and builds everything it serves
    /// with; `traced` installs the timing wrappers.
    pub fn setup(&self, seed: u64, session: usize, traced: bool) -> Session {
        let seeds = Seeds::new(seed, session);
        let cpu = cpu::Stopwatch::start();
        let start = Instant::now();
        let Inputs { history, trace } = self.inputs(seeds);
        let gen = start.elapsed();
        let model = self.model();
        let gate = self.gate(seeds);
        let mut probes = traced.then(Probes::default);
        let mut populate = Duration::ZERO;
        let target = match self.kind {
            Kind::OnlineFmoe | Kind::OnlineOndemand => {
                let (predictor, policy): (Box<dyn ExpertPredictor>, Box<dyn EvictionPolicy>) =
                    if self.kind == Kind::OnlineFmoe {
                        let t = Instant::now();
                        let p = fmoe_predictor(&model, &gate, &history);
                        populate = t.elapsed();
                        (Box::new(p), fmoe_cache_policy(&model))
                    } else {
                        (
                            Box::new(DeepSpeedPredictor::new()),
                            Box::new(LfuPolicy::new()),
                        )
                    };
                let (predictor, policy) = instrument(predictor, policy, &mut probes);
                let config = EngineConfig {
                    cache_budget_bytes: (model.total_expert_bytes() as f64 * 0.4) as u64,
                    max_decode_iterations: Some(self.max_decode),
                    ..EngineConfig::paper_default()
                };
                let engine =
                    ServingEngine::builder(gate, GpuSpec::rtx_3090(), Topology::paper_testbed())
                        .policy(policy)
                        .config(config)
                        .build();
                Target::Online {
                    engine: Box::new(engine),
                    predictor,
                }
            }
            Kind::FleetAffinity => {
                let mut cluster = Cluster::new(
                    gate.clone(),
                    RoutingPolicy::SemanticAffinity(AffinityConfig::default()),
                    None,
                );
                for replica in 0..FLEET_REPLICAS {
                    // Disjoint shards: each replica's store starts on its
                    // own share of the semantic clusters.
                    let shard: Vec<Prompt> = history
                        .iter()
                        .filter(|p| p.routing.cluster as usize % FLEET_REPLICAS == replica)
                        .copied()
                        .collect();
                    let t = Instant::now();
                    let p = fmoe_predictor(&model, &gate, &shard);
                    populate += t.elapsed();
                    let (predictor, policy) =
                        instrument(Box::new(p), fmoe_cache_policy(&model), &mut probes);
                    let config = EngineConfig {
                        // A quarter of the experts fit, so routing
                        // locality decides the hit rate.
                        cache_budget_bytes: model.expert_bytes() * 16,
                        max_decode_iterations: Some(self.max_decode),
                        context_collection_ns: 10_000,
                        framework_overhead_per_layer_ns: 50_000,
                        ..EngineConfig::paper_default()
                    };
                    let engine = EngineBuilder::new(
                        gate.clone(),
                        GpuSpec::rtx_3090(),
                        Topology::single_gpu(8 << 30),
                    )
                    .policy(policy)
                    .config(config);
                    cluster.add_replica(engine, predictor);
                }
                Target::Fleet(Box::new(cluster))
            }
        };
        Session {
            target,
            trace,
            setup: SetupTimes {
                gen,
                populate,
                cpu: cpu.elapsed(),
            },
            probes,
        }
    }
}

/// The simulated outcome of one request — what traced, untraced and
/// repeated runs must agree on exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    pub request_id: u64,
    pub arrival_ns: u64,
    pub start_ns: u64,
    pub finish_ns: u64,
    pub ttft_ns: u64,
    pub decode_ns: u64,
    pub decode_iterations: u64,
    pub hits: u64,
    pub misses: u64,
}

impl Served {
    fn new(r: &OnlineResult) -> Self {
        Self {
            request_id: r.request_id,
            arrival_ns: r.arrival_ns,
            start_ns: r.start_ns,
            finish_ns: r.finish_ns,
            ttft_ns: r.metrics.ttft_ns,
            decode_ns: r.metrics.decode_ns,
            decode_iterations: r.metrics.decode_iterations,
            hits: r.metrics.expert_hits,
            misses: r.metrics.expert_misses,
        }
    }

    /// Time to first token from the scheduled arrival (queueing included).
    pub fn ttft_from_arrival_ns(&self) -> u64 {
        self.start_ns - self.arrival_ns + self.ttft_ns
    }

    pub fn queueing_ns(&self) -> u64 {
        self.start_ns - self.arrival_ns
    }

    /// Output tokens: the prefill emits the first, each decode one more.
    pub fn tokens(&self) -> u64 {
        1 + self.decode_iterations
    }
}

/// Fleet-level outcome of a fleet session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSummary {
    pub affinity_routed: u64,
    pub jsq_fallbacks: u64,
    pub cold_fallbacks: u64,
    pub replica_hit_rates: Vec<f64>,
    pub replica_served: Vec<u64>,
    pub max_queue_depth: u64,
}

/// Everything one served session produced.
pub struct Outcome {
    /// Served requests, sorted by request id.
    pub served: Vec<Served>,
    pub shed: u64,
    pub attempted: u64,
    /// Host time of the `serve` / `dispatch` call.
    pub host: Duration,
    /// `host` on the process CPU clock.
    pub cpu: Duration,
    pub cache: CacheStats,
    pub transfer: TransferStats,
    /// Per-iteration breakdown (online engines; the cluster exposes its
    /// engines read-only, and `take_breakdown` needs exclusive access).
    pub breakdown: Option<Breakdown>,
    pub fleet: Option<FleetSummary>,
    pub core: CoreStats,
    pub store_bytes: u64,
    pub cache_probe: CacheProbe,
    /// Correctness-gate failures found in this session.
    pub failures: Vec<String>,
}

fn add_transfer(a: &mut TransferStats, b: &TransferStats) {
    a.prefetch_jobs += b.prefetch_jobs;
    a.prefetch_bytes += b.prefetch_bytes;
    a.on_demand_loads += b.on_demand_loads;
    a.on_demand_bytes += b.on_demand_bytes;
    a.on_demand_blocked_ns += b.on_demand_blocked_ns;
    a.cancelled_jobs += b.cancelled_jobs;
}

impl Session {
    /// Replays the trace and checks the accounting identities.
    pub fn serve(self) -> Outcome {
        let Session {
            target,
            trace,
            probes,
            ..
        } = self;
        let attempted = trace.len() as u64;
        let mut failures = Vec::new();
        let mut served: Vec<Served>;
        let shed: u64;
        let host: Duration;
        let cpu: Duration;
        let mut cache = CacheStats::default();
        let mut transfer = TransferStats::default();
        let mut breakdown = None;
        let mut fleet = None;
        match target {
            Target::Online {
                mut engine,
                mut predictor,
            } => {
                let cpu_start = cpu::Stopwatch::start();
                let start = Instant::now();
                let report = serve(
                    &mut engine,
                    &trace,
                    predictor.as_mut(),
                    &ServeOptions::continuous(ONLINE_SLOTS),
                );
                host = start.elapsed();
                cpu = cpu_start.elapsed();
                match report {
                    Ok(report) => {
                        served = report.results.iter().map(Served::new).collect();
                        shed = report.shed.len() as u64;
                    }
                    Err(e) => {
                        failures.push(format!("serve failed: {e}"));
                        served = Vec::new();
                        shed = 0;
                    }
                }
                cache = engine.cache_stats();
                transfer = engine.transfer_stats();
                breakdown = Some(engine.take_breakdown());
            }
            Target::Fleet(mut cluster) => {
                let cpu_start = cpu::Stopwatch::start();
                let start = Instant::now();
                let report = cluster.dispatch(&trace);
                host = start.elapsed();
                cpu = cpu_start.elapsed();
                if !report.accounting_balances() {
                    failures.push("ClusterReport::accounting_balances() is false".into());
                }
                if !report.cache_accounting_balances() {
                    failures.push("ClusterReport::cache_accounting_balances() is false".into());
                }
                served = report
                    .replicas
                    .iter()
                    .flat_map(|r| r.results.iter().map(Served::new))
                    .collect();
                shed = report.total_shed() as u64;
                for (i, replica) in report.replicas.iter().enumerate() {
                    cache = cache.merged(&replica.cache);
                    if let Some(engine) = cluster.replica_engine(i) {
                        add_transfer(&mut transfer, &engine.transfer_stats());
                    }
                }
                fleet = Some(FleetSummary {
                    affinity_routed: report.routing.affinity_routed,
                    jsq_fallbacks: report.routing.jsq_fallbacks,
                    cold_fallbacks: report.routing.cold_fallbacks,
                    replica_hit_rates: report.replicas.iter().map(|r| r.cache.hit_rate()).collect(),
                    replica_served: report
                        .replicas
                        .iter()
                        .map(|r| r.results.len() as u64)
                        .collect(),
                    max_queue_depth: report
                        .replicas
                        .iter()
                        .map(|r| r.max_queue_depth as u64)
                        .max()
                        .unwrap_or(0),
                });
            }
        }
        served.sort_by_key(|s| s.request_id);

        if served.len() as u64 + shed != attempted {
            failures.push(format!(
                "served {} + shed {shed} != attempted {attempted}",
                served.len()
            ));
        }
        if !cache.check_invariants() {
            failures.push(format!(
                "cache hits {} + misses {} != lookups {}",
                cache.hits, cache.misses, cache.lookups
            ));
        }
        let (hits, misses) = served
            .iter()
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        if (hits, misses) != (cache.hits, cache.misses) {
            failures.push(format!(
                "per-request hits/misses {hits}/{misses} != cache stats {}/{}",
                cache.hits, cache.misses
            ));
        }
        for s in &served {
            if s.start_ns < s.arrival_ns || s.finish_ns <= s.start_ns || s.ttft_ns == 0 {
                failures.push(format!(
                    "request {} has an impossible timeline",
                    s.request_id
                ));
                break;
            }
        }

        let mut core = CoreStats::default();
        let mut store_bytes = 0;
        let mut cache_probe = CacheProbe::default();
        if let Some(probes) = probes {
            for handle in &probes.core {
                let cell = lock(handle);
                core.add(&cell.stats);
                store_bytes += cell.predictor.warm_state().map_or(0, |s| s.len() as u64);
            }
            for handle in &probes.cache {
                cache_probe.merge(&lock(handle));
            }
        }
        Outcome {
            served,
            shed,
            attempted,
            host,
            cpu,
            cache,
            transfer,
            breakdown,
            fleet,
            core,
            store_bytes,
            cache_probe,
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few requests of `w`, so a debug-build test stays quick.
    fn small(mut w: Workload) -> Workload {
        w.requests = 12;
        w.max_decode = 3;
        w
    }

    /// MoE-Infinity (synchronous prediction) over SIEVE (a victim scan
    /// that mutates the policy): neither is a benchmark workload, so this
    /// pins the wrappers on the two behaviours the workloads miss.
    #[test]
    fn wrappers_keep_moe_infinity_over_sieve_identical() {
        use fmoe_baselines::MoeInfinityPredictor;
        use fmoe_cache::SievePolicy;
        let w = small(WORKLOADS[0]);
        let model = w.model();
        let inputs = w.inputs(Seeds::new(3, 0));
        let run = |wrap: bool| {
            let mut probes = wrap.then(Probes::default);
            let (mut predictor, policy) = instrument(
                Box::new(MoeInfinityPredictor::new(&model)),
                Box::new(SievePolicy::new()),
                &mut probes,
            );
            let gate = w.gate(Seeds::new(3, 0));
            let mut engine =
                ServingEngine::builder(gate, GpuSpec::rtx_3090(), Topology::paper_testbed())
                    .policy(policy)
                    .cache_budget(model.total_expert_bytes() / 4)
                    .max_decode(w.max_decode)
                    .build();
            let report = serve(
                &mut engine,
                &inputs.trace,
                predictor.as_mut(),
                &ServeOptions::continuous(ONLINE_SLOTS),
            )
            .expect("continuous serving without an SLO succeeds");
            let served: Vec<Served> = report.results.iter().map(Served::new).collect();
            (served, engine.cache_stats(), probes.map(|p| p.cache.len()))
        };
        let (plain, plain_cache, _) = run(false);
        let (traced, traced_cache, probes) = run(true);
        assert_eq!(plain, traced);
        assert_eq!(plain_cache, traced_cache);
        assert!(plain_cache.evictions > 0, "SIEVE must have scanned");
        assert_eq!(probes, Some(1));
    }

    /// The wrappers forward every trait method, so a traced session
    /// must reproduce the untraced session request for request.
    #[test]
    fn wrapped_runs_match_unwrapped_runs() {
        for w in WORKLOADS.map(small) {
            let plain = w.setup(7, 0, false).serve();
            let traced = w.setup(7, 0, true).serve();
            assert!(
                plain.failures.is_empty(),
                "{}: {:?}",
                w.name,
                plain.failures
            );
            assert!(
                traced.failures.is_empty(),
                "{}: {:?}",
                w.name,
                traced.failures
            );
            assert_eq!(plain.served, traced.served, "{}", w.name);
            assert_eq!(plain.cache, traced.cache, "{}", w.name);
            assert_eq!(plain.fleet, traced.fleet, "{}", w.name);
            assert_eq!(plain.served.len(), 12);
        }
    }

    #[test]
    fn seeds_change_inputs_and_repeat_exactly() {
        let w = small(WORKLOADS[0]);
        let a = w.inputs(Seeds::new(1, 0));
        let b = w.inputs(Seeds::new(1, 0));
        let c = w.inputs(Seeds::new(2, 0));
        assert_eq!(a.trace, b.trace);
        assert_ne!(a.trace, c.trace);
        assert_ne!(Seeds::new(1, 0).dataset, Seeds::new(1, 1).dataset);
        let last = a.trace.last().expect("non-empty trace").arrival_ns;
        let target = w.requests as f64 / w.rate_per_s * 1e9;
        assert!((last as f64 - target).abs() < 1e3);
    }
}
