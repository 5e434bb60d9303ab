//! Serving benchmark for the fMoE reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload online-fmoe --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` serves every session twice, without and with the timing
//! wrappers, and prints the per-layer metrics. Either way the last line
//! of standard output is one JSON object, and the process exits non-zero
//! when a correctness check fails. See `perfbench/README.md`.

mod cpu;
mod probe;
mod report;
mod workload;

use report::Metric;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Outcome, Workload};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 40.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Totals of one run for the result line and the correctness gate.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, label: &str, o: &Outcome) {
        self.attempted += o.attempted;
        self.failed += o.shed;
        for f in &o.failures {
            self.failures.push(format!("{label}: {f}"));
        }
    }

    /// Two serves of the same session must agree on every simulated
    /// result.
    fn same_sim(&mut self, label: &str, a: &Outcome, b: &Outcome) {
        if a.served != b.served || a.cache != b.cache || a.fleet != b.fleet {
            self.failures
                .push(format!("{label}: simulated results differ between serves"));
        }
    }
}

/// Set-ups cheap enough to repeat on their own are repeated until the
/// median has this many samples, or for at most `SETUP_BUDGET`.
const SETUP_SAMPLES: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Untraced run: every session once (the sim sample), then repeats of
/// the sessions in turn while time remains. Repeats add host-time
/// samples (CPU time, see `cpu`) and must reproduce the first serve
/// exactly.
fn untraced(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let w = &args.workload;
    let start = Instant::now();
    let mut first = Vec::with_capacity(w.sessions);
    let mut hosts = vec![Vec::new(); w.sessions];
    let mut setups = Vec::new();
    for (k, host) in hosts.iter_mut().enumerate() {
        let session = w.setup(args.seed, k, false);
        setups.push(session.setup.cpu);
        let outcome = session.serve();
        host.push(outcome.cpu);
        tally.add(&format!("session {k}"), &outcome);
        first.push(outcome);
    }
    let extra = Instant::now();
    for k in (0..w.sessions).cycle() {
        if setups.len() >= SETUP_SAMPLES || extra.elapsed() >= SETUP_BUDGET {
            break;
        }
        setups.push(w.setup(args.seed, k, false).setup.cpu);
    }
    let per_session = start.elapsed() / w.sessions as u32;
    let budget = Duration::from_secs_f64(args.seconds);
    for k in (0..w.sessions).cycle() {
        if start.elapsed() + per_session > budget {
            break;
        }
        let session = w.setup(args.seed, k, false);
        setups.push(session.setup.cpu);
        let outcome = session.serve();
        hosts[k].push(outcome.cpu);
        let label = format!("repeat of session {k}");
        tally.add(&label, &outcome);
        tally.same_sim(&label, &first[k], &outcome);
    }
    report::end_to_end(w, &first, &hosts, &setups)
}

/// Traced run: each session served without and then with the timing
/// wrappers; the two must agree exactly.
fn traced(args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let w = &args.workload;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut gen = Vec::new();
    let mut populate = Vec::new();
    for k in 0..w.sessions {
        for wrapped in [false, true] {
            let session = w.setup(args.seed, k, wrapped);
            gen.push(session.setup.gen.as_secs_f64() * 1e3);
            populate.push(session.setup.populate.as_secs_f64() * 1e3);
            let outcome = session.serve();
            let label = format!(
                "session {k} ({})",
                if wrapped { "traced" } else { "untraced" }
            );
            tally.add(&label, &outcome);
            if wrapped {
                traced.push(outcome);
            } else {
                plain.push(outcome);
            }
        }
        tally.same_sim(
            &format!("session {k} traced vs untraced"),
            &plain[k],
            &traced[k],
        );
    }
    report::per_layer(w, &traced, &plain, &gen, &populate)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    println!(
        "workload {} seed {} ({} sessions x {} requests at {} req/s, virtual time)",
        w.name, args.seed, w.sessions, w.requests, w.rate_per_s
    );
    println!(
        "open-loop replay in virtual time: every request is issued exactly at its \
         scheduled arrival (generator lateness 0 ns); TTFT counts from that arrival"
    );
    println!(
        "SLO: TTFT <= {} ms and TPOT <= {} ms; shed requests miss",
        w.ttft_slo_ms, w.tpot_slo_ms
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&args, &mut tally)
    } else {
        untraced(&args, &mut tally)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            tally.failures.push(format!("{} is not finite", m.name));
        }
    }
    println!(
        "{} metrics ({} threads in this process):",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        report::threads()
    );
    report::print_metrics(&metrics);
    println!(
        "attempted {} failed {} correctness checks: {}",
        tally.attempted,
        tally.failed,
        if tally.failures.is_empty() {
            "all passed".to_string()
        } else {
            format!("{} FAILED", tally.failures.len())
        }
    );
    for f in &tally.failures {
        eprintln!("correctness: {f}");
    }
    let correct = tally.failures.is_empty();
    println!(
        "{}",
        report::result_json(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload fleet-affinity --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.name, "fleet-affinity");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, true));
        let d = args("--workload online-fmoe").unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload online-fmoe --trace 2").is_err());
        assert!(args("--workload online-fmoe --seconds -1").is_err());
        assert!(args("--workload online-fmoe --seed").is_err());
        assert!(args("--workload online-fmoe --bogus 1").is_err());
    }
}
