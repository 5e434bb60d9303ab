//! Metric computation and output: the end-to-end metrics of an untraced
//! run, the per-layer metrics of a traced run, and the result line.

use crate::probe::{CacheProbe, CoreStats};
use crate::workload::{FleetSummary, Outcome, Served, Workload};
use std::time::Duration;

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Virtual time or simulated counts: deterministic per seed.
    Sim,
    /// Wall clock or process state of this run.
    Host,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    /// Samples behind a percentile or median, printed beside it.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str, clock: Clock) -> Metric {
    Metric {
        name,
        value,
        unit,
        clock,
        samples: None,
    }
}

fn sampled(m: Metric, samples: usize) -> Metric {
    Metric {
        samples: Some(samples),
        ..m
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted values; 0 when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn served<'a>(outcomes: &'a [Outcome]) -> impl Iterator<Item = &'a Served> + 'a {
    outcomes.iter().flat_map(|o| o.served.iter())
}

fn tokens(o: &Outcome) -> u64 {
    o.served.iter().map(Served::tokens).sum()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process right now.
pub fn threads() -> f64 {
    proc_status("Threads:").unwrap_or(0.0)
}

fn proc_status(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Simulated output tokens of all sessions per host second of serving,
/// each session's serve time taken as the mean CPU time of its serves.
/// Other work on the machine slows serves down for tens of seconds at a
/// time, and it shows even on the CPU clock (it shares the cores' caches
/// and memory bandwidth, not just their time): the mean over every serve
/// of the run averages those periods out, where the least or the median
/// serve follows whether a few serves happened to miss or catch one.
fn host_tok_per_s(sessions: &[Outcome], hosts: &[Vec<Duration>]) -> f64 {
    let toks: u64 = sessions.iter().map(tokens).sum();
    let secs: f64 = hosts
        .iter()
        .filter(|h| !h.is_empty())
        .map(|h| h.iter().sum::<Duration>().as_secs_f64() / h.len() as f64)
        .sum();
    ratio(toks as f64, secs)
}

/// The ten end-to-end metrics of an untraced run. `sessions` holds one
/// outcome per distinct session (the sim sample), `hosts[k]` the serve
/// CPU times of session `k` (repeats included), `setups` the CPU time of
/// every set-up.
pub fn end_to_end(
    w: &Workload,
    sessions: &[Outcome],
    hosts: &[Vec<Duration>],
    setups: &[Duration],
) -> Vec<Metric> {
    let rates: Vec<String> = sessions
        .iter()
        .zip(hosts)
        .map(|(o, h)| {
            let per_serve: Vec<String> = h
                .iter()
                .map(|d| format!("{:.0}", tokens(o) as f64 / d.as_secs_f64()))
                .collect();
            per_serve.join("/")
        })
        .collect();
    println!("host tok/s per session serve: {}", rates.join(" "));
    let ttft: Vec<f64> = served(sessions)
        .map(|s| s.ttft_from_arrival_ns() as f64 / 1e6)
        .collect();
    let tpot: Vec<f64> = served(sessions)
        .filter(|s| s.decode_iterations > 0)
        .map(|s| s.decode_ns as f64 / s.decode_iterations as f64 / 1e6)
        .collect();
    let attempted: u64 = sessions.iter().map(|o| o.attempted).sum();
    let within_slo = served(sessions)
        .filter(|s| {
            let tpot_ms = ratio(s.decode_ns as f64, s.decode_iterations as f64) / 1e6;
            s.ttft_from_arrival_ns() as f64 / 1e6 <= w.ttft_slo_ms && tpot_ms <= w.tpot_slo_ms
        })
        .count();
    let (hits, misses) = sessions
        .iter()
        .fold((0, 0), |(h, m), o| (h + o.cache.hits, m + o.cache.misses));
    let setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    vec![
        sampled(
            metric("setup_s", median(&setup_s), "s", Clock::Host),
            setups.len(),
        ),
        sampled(
            metric(
                "host_tok_per_s",
                host_tok_per_s(sessions, hosts),
                "tok/s",
                Clock::Host,
            ),
            hosts.iter().map(Vec::len).sum(),
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB", Clock::Host),
        sampled(
            metric("ttft_p50_ms", percentile(&ttft, 0.5), "ms", Clock::Sim),
            ttft.len(),
        ),
        sampled(
            metric("ttft_p90_ms", percentile(&ttft, 0.9), "ms", Clock::Sim),
            ttft.len(),
        ),
        sampled(
            metric("tpot_p50_ms", percentile(&tpot, 0.5), "ms", Clock::Sim),
            tpot.len(),
        ),
        sampled(
            metric("tpot_p90_ms", percentile(&tpot, 0.9), "ms", Clock::Sim),
            tpot.len(),
        ),
        metric(
            "expert_hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
            Clock::Sim,
        ),
        sampled(
            metric(
                "slo_attainment",
                ratio(within_slo as f64, attempted as f64),
                "ratio",
                Clock::Sim,
            ),
            attempted as usize,
        ),
        sampled(
            metric(
                "goodput",
                ratio(ttft.len() as f64, attempted as f64),
                "ratio",
                Clock::Sim,
            ),
            attempted as usize,
        ),
    ]
}

/// Mean queueing of the last quarter of each session's arrivals over that
/// of the first quarter, pooled over sessions. Both sides add the mean
/// service time (start to finish), so the ratio counts queueing growth in
/// units of a request's own service: bursts that happen to land in one
/// quarter move it by a few percent, a backlog that keeps growing lifts
/// it far above 1.
fn backlog_growth(sessions: &[Outcome]) -> f64 {
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for o in sessions {
        let mut queueing: Vec<(u64, u64)> = o
            .served
            .iter()
            .map(|s| (s.arrival_ns, s.queueing_ns()))
            .collect();
        queueing.sort_unstable();
        let quarter = queueing.len() / 4;
        first.extend(queueing[..quarter].iter().map(|q| q.1 as f64));
        last.extend(
            queueing[queueing.len() - quarter..]
                .iter()
                .map(|q| q.1 as f64),
        );
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let service: Vec<f64> = served(sessions)
        .map(|s| (s.finish_ns - s.start_ns) as f64)
        .collect();
    ratio(mean(&last) + mean(&service), mean(&first) + mean(&service))
}

/// Per-layer metrics of a traced run. `traced[i]` and `plain[i]` served
/// the same session with and without the timing wrappers; `gen` and
/// `populate` hold the input-generation and store warm-up times (ms) of
/// every set-up of the run.
pub fn per_layer(
    w: &Workload,
    traced: &[Outcome],
    plain: &[Outcome],
    gen: &[f64],
    populate: &[f64],
) -> Vec<Metric> {
    let mut core = CoreStats::default();
    let mut cache_probe = CacheProbe::default();
    for o in traced {
        core.add(&o.core);
        cache_probe.merge(&o.cache_probe);
    }
    let sum = |f: &dyn Fn(&Outcome) -> f64| traced.iter().map(f).sum::<f64>();
    let serve_ms = sum(&|o| ms(o.host));
    let plain_ms: f64 = plain.iter().map(|o| ms(o.host)).sum();
    let cache_ms = cache_probe.policy.ms() + cache_probe.victim.ms();
    let toks = sum(&|o| tokens(o) as f64);
    let layers = f64::from(w.layers());
    let fleet = traced.iter().any(|o| o.fleet.is_some());
    let iterations = if fleet {
        toks
    } else {
        sum(&|o| o.breakdown.map_or(0.0, |b| b.iterations as f64))
    };
    let per_iter = |f: &dyn Fn(&fmoe_serving::Breakdown) -> u64| {
        let total = traced
            .iter()
            .filter_map(|o| o.breakdown.as_ref())
            .fold(0.0, |acc, b| acc + f(b) as f64);
        ratio(total, iterations) / 1e6
    };
    let mb = |b: f64| b / (1u64 << 20) as f64;
    let queue: Vec<f64> = served(traced)
        .map(|s| s.queueing_ns() as f64 / 1e6)
        .collect();
    let fleets: Vec<_> = traced.iter().filter_map(|o| o.fleet.as_ref()).collect();
    let fleet_sum = |f: &dyn Fn(&FleetSummary) -> f64| fleets.iter().fold(0.0, |acc, s| acc + f(s));
    let fleet_mean = |f: &dyn Fn(&FleetSummary) -> f64| ratio(fleet_sum(f), fleets.len() as f64);
    let spread = |v: &[f64]| {
        v.iter().copied().fold(f64::MIN, f64::max) - v.iter().copied().fold(f64::MAX, f64::min)
    };
    let imbalance = |v: &[u64]| {
        let mean = v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        ratio(v.iter().copied().max().unwrap_or(0) as f64, mean)
    };
    let c = |name, value: f64| metric(name, value, "count", Clock::Sim);
    let host_ms = |name, value: f64| metric(name, value, "ms", Clock::Host);
    let sim_ms = |name, value: f64| metric(name, value, "ms", Clock::Sim);
    let r = |name, value: f64| metric(name, value, "ratio", Clock::Sim);
    vec![
        sampled(host_ms("workload.gen_ms", median(gen)), gen.len()),
        sampled(
            host_ms("core.populate_ms", median(populate)),
            populate.len(),
        ),
        host_ms("core.begin_ms", core.begin.ms()),
        host_ms("core.observe_ms", core.observe.ms()),
        host_ms("core.end_ms", core.end.ms()),
        c("core.observe_calls", core.observe.calls as f64),
        c("core.end_calls", core.end.calls as f64),
        host_ms("core.affinity_ms", core.affinity.ms()),
        c("core.affinity_calls", core.affinity.calls as f64),
        c("core.plans_fetch", core.plans_fetch as f64),
        c("core.plans_advisory", core.plans_advisory as f64),
        metric(
            "core.store_bytes",
            ratio(sum(&|o| o.store_bytes as f64), traced.len() as f64),
            "bytes",
            Clock::Sim,
        ),
        c("cache.hits", sum(&|o| o.cache.hits as f64)),
        c("cache.misses", sum(&|o| o.cache.misses as f64)),
        c("cache.insertions", sum(&|o| o.cache.insertions as f64)),
        c("cache.evictions", sum(&|o| o.cache.evictions as f64)),
        host_ms("cache.policy_ms", cache_probe.policy.ms()),
        host_ms("cache.victim_ms", cache_probe.victim.ms()),
        c(
            "cache.policy_calls",
            (cache_probe.policy.calls + cache_probe.victim.calls) as f64,
        ),
        r(
            "cache.useful_insert_ratio",
            ratio(cache_probe.useful() as f64, cache_probe.inserted as f64),
        ),
        c(
            "memsim.prefetch_jobs",
            sum(&|o| o.transfer.prefetch_jobs as f64),
        ),
        metric(
            "memsim.prefetch_mb",
            mb(sum(&|o| o.transfer.prefetch_bytes as f64)),
            "MB",
            Clock::Sim,
        ),
        c(
            "memsim.cancelled_jobs",
            sum(&|o| o.transfer.cancelled_jobs as f64),
        ),
        r(
            "memsim.prefetch_kept_ratio",
            ratio(
                sum(&|o| o.transfer.prefetch_jobs as f64),
                sum(&|o| (o.transfer.prefetch_jobs + o.transfer.cancelled_jobs) as f64),
            ),
        ),
        c(
            "memsim.on_demand_loads",
            sum(&|o| o.transfer.on_demand_loads as f64),
        ),
        metric(
            "memsim.on_demand_mb",
            mb(sum(&|o| o.transfer.on_demand_bytes as f64)),
            "MB",
            Clock::Sim,
        ),
        sim_ms(
            "memsim.on_demand_blocked_ms",
            sum(&|o| o.transfer.on_demand_blocked_ns as f64) / 1e6,
        ),
        host_ms("serving.serve_ms", serve_ms),
        host_ms("serving.self_ms", serve_ms - ms(core.total()) - cache_ms),
        metric(
            "serving.host_ns_per_layer_step",
            ratio(plain_ms * 1e6, toks * layers),
            "ns",
            Clock::Host,
        ),
        c("serving.iterations", iterations),
        r("serving.mean_batch", ratio(toks, iterations)),
        sim_ms(
            "serving.on_demand_wait_ms",
            per_iter(&|b| b.on_demand_wait_ns),
        ),
        sim_ms("serving.compute_ms", per_iter(&|b| b.compute_ns)),
        sim_ms("serving.matching_ms", per_iter(&|b| b.matching_ns)),
        sim_ms(
            "serving.blocking_prefetch_ms",
            per_iter(&|b| b.blocking_prefetch_ns),
        ),
        sim_ms("serving.iteration_ms", per_iter(&|b| b.iteration_total_ns)),
        sampled(
            sim_ms("serving.queue_p50_ms", percentile(&queue, 0.5)),
            queue.len(),
        ),
        sampled(
            sim_ms("serving.queue_p90_ms", percentile(&queue, 0.9)),
            queue.len(),
        ),
        r("serving.backlog_growth", backlog_growth(traced)),
        host_ms("cluster.dispatch_ms", if fleet { serve_ms } else { 0.0 }),
        c(
            "cluster.affinity_routed",
            fleet_sum(&|s| s.affinity_routed as f64),
        ),
        c(
            "cluster.jsq_fallbacks",
            fleet_sum(&|s| s.jsq_fallbacks as f64),
        ),
        c(
            "cluster.cold_fallbacks",
            fleet_sum(&|s| s.cold_fallbacks as f64),
        ),
        r(
            "cluster.replica_hit_spread",
            fleet_mean(&|s| spread(&s.replica_hit_rates)),
        ),
        c(
            "cluster.max_queue_depth",
            fleets.iter().map(|s| s.max_queue_depth).max().unwrap_or(0) as f64,
        ),
        r(
            "cluster.load_imbalance",
            fleet_mean(&|s| imbalance(&s.replica_served)),
        ),
        c(
            "cluster.shed",
            traced
                .iter()
                .filter(|o| o.fleet.is_some())
                .fold(0.0, |acc, o| acc + o.shed as f64),
        ),
        metric(
            "bench.trace_overhead",
            ratio(serve_ms, plain_ms) - 1.0,
            "ratio",
            Clock::Host,
        ),
    ]
}

/// Prints one human-readable line per metric.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let clock = match m.clock {
            Clock::Sim => "sim",
            Clock::Host => "host",
        };
        let samples = m.samples.map_or(String::new(), |n| format!(", n={n}"));
        println!(
            "  {:<34} {:>16.4} {:<6} ({clock}{samples})",
            m.name, m.value, m.unit
        );
    }
}

/// The result line: one JSON object, printed last.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[metric("setup_s", 0.25, "s", Clock::Host)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
