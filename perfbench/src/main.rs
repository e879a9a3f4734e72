//! The repository benchmark: three workloads run against the public API of
//! the SHIL crates, end-to-end metrics from an untraced pass and per-layer
//! metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <predict|network|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Stdout carries a human-readable summary,
//! then one JSON line with the run envelope (seed, revision, cores, pinned
//! thread counts, build profile, sample counts, oracle results and the
//! reported facts), and last one JSON line with `correct`, `attempted`,
//! `failed` and `metrics`: every end-to-end metric of `BENCHMARK.json`
//! with `--trace 0`, every per-layer metric with `--trace 1`. The process
//! exits 1 when any correctness oracle fails.
//!
//! Runs write under `perfbench/out/`: traced spans, and each serve run's
//! data directories (tens of MB), which are kept; delete the directory by
//! hand when done.

mod client;
mod common;
mod layers;
mod network;
mod predict;
mod serve;
mod storage;
mod trace;

use std::fmt::Write as _;
use std::time::Duration;

use common::{median, percentile, Report};

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
];

pub const WORKLOADS: [&str; 3] = ["predict", "network", "serve"];

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// Length of the untraced pass: the whole run, or half of a traced
    /// run (whose traced pass then replays the same operations).
    pub fn untraced_time(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{}`",
            cfg.workload
        ));
    }
    Ok(cfg)
}

/// The end-to-end metric values of an untraced run.
fn end_to_end(report: &Report) -> Vec<(String, f64, &'static str)> {
    let p = &report.pass;
    let values = [
        median(&report.setup_s),
        p.throughput(),
        percentile(&p.latencies, 0.5),
        percentile(&p.latencies, 0.9),
        report.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    shil::runtime::json::push_str(&mut out, s);
    out
}

fn json_num(v: f64) -> String {
    shil::runtime::json::fmt_f64(if v.is_finite() { v } else { 0.0 })
}

fn envelope(cfg: &Config, report: &Report) -> String {
    let p = &report.pass;
    let threads: Vec<String> = report
        .threads
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let facts: Vec<String> = report
        .facts
        .iter()
        .map(|(k, v, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(k),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    let checks: Vec<String> = report
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"passed\":{},\"detail\":{}}}",
                json_str(c.name),
                c.passed,
                json_str(&c.detail)
            )
        })
        .collect();
    format!(
        "{{\"envelope\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"git_revision\":{},\"nproc\":{},\"threads\":{{{}}},\"build_profile\":{}}},\
         \"samples\":{{\"setup_s\":{},\"latency\":{},\"throughput_windows\":{},\"measured_wall_s\":{}}},\
         \"facts\":{{{}}},\"checks\":[{}]}}",
        json_str(&cfg.workload),
        cfg.seed,
        json_num(cfg.seconds),
        u8::from(cfg.trace),
        json_str(&common::git_revision()),
        common::nproc(),
        threads.join(","),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        report.setup_s.len(),
        p.latencies.len(),
        p.rates.len(),
        json_num(p.wall_s),
        facts.join(","),
        checks.join(","),
    )
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match cfg.workload.as_str() {
        "predict" => predict::run(&cfg),
        "network" => network::run(&cfg),
        "serve" => serve::run(&cfg),
        _ => unreachable!("validated by parse_args"),
    };
    let p = &report.pass;
    let failed_frac = p.failed as f64 / p.attempted.max(1) as f64;
    report.facts.insert(0, ("failed_frac", failed_frac, "1"));

    let metrics: Vec<(String, f64, &str)> = if cfg.trace {
        layers::write_spans(&cfg.workload, cfg.seed, &report.spans);
        layers::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = report.layer.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        end_to_end(&report)
    };

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "{} seed {} ({}): {} operations attempted, {} failed; samples: {} latencies, \
         {} throughput windows, {} set-ups",
        cfg.workload,
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        p.attempted,
        p.failed,
        p.latencies.len(),
        p.rates.len(),
        report.setup_s.len()
    );
    for (name, v, unit) in &metrics {
        let _ = writeln!(summary, "  {name:<40} {v:>14.6} {unit}");
    }
    for (name, v, unit) in &report.facts {
        let _ = writeln!(summary, "  {name:<40} {v:>14.6} {unit}");
    }
    for c in &report.checks {
        let verdict = if c.passed { "ok" } else { "FAILED" };
        let _ = writeln!(summary, "  check {:<34} {verdict}: {}", c.name, c.detail);
    }
    print!("{summary}");
    println!("{}", envelope(&cfg, &report));
    let correct = report.checks.iter().all(|c| c.passed);
    println!(
        "{}",
        result_line(correct, p.attempted.max(1), p.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> shil::runtime::json::Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        shil::runtime::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &shil::runtime::json::Json, key: &str) -> Vec<(String, String)> {
        let shil::runtime::json::Json::Arr(items) = doc.get(key).expect(key) else {
            panic!("{key} is not an array");
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(|v| v.as_str())
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(|v| v.as_str())
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layer: Vec<(String, String)> = layers::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layer);
        let workloads: Vec<String> = names(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn end_to_end_values_come_from_the_untraced_pass() {
        let report = Report {
            setup_s: vec![0.3, 0.1, 0.2],
            pass: common::Pass {
                latencies: (1..=10).map(f64::from).collect(),
                attempted: 11,
                failed: 1,
                wall_s: 5.0,
                rates: vec![],
            },
            peak_rss_mb: 42.0,
            ..Report::default()
        };
        let m = end_to_end(&report);
        let get = |k: &str| m.iter().find(|(n, ..)| n == k).expect(k).1;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("throughput_per_s"), 2.0);
        assert_eq!(get("latency_p50_s"), 5.5);
        assert!((get("latency_p90_s") - 9.1).abs() < 1e-12);
        assert_eq!(get("peak_rss_mb"), 42.0);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(predict::queries(7, 3), predict::queries(7, 3));
        assert_ne!(predict::queries(7, 3), predict::queries(8, 3));
        assert_eq!(network::points(7, 3), network::points(7, 3));
        assert_ne!(network::points(7, 3), network::points(8, 3));
        assert_eq!(serve::jobs(7, 50), serve::jobs(7, 50));
        assert_ne!(serve::jobs(7, 50), serve::jobs(8, 50));
    }

    #[test]
    fn a_predict_cycle_has_the_same_make_up_for_every_seed() {
        let key = |q: &predict::Query| (q.design, q.n, q.vi.to_bits());
        let sorted = |seed| {
            let mut v: Vec<_> = predict::queries(seed, 2).iter().map(key).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(1), sorted(2));
        // Within a cycle every repeat follows its key's first query.
        let qs = predict::queries(5, 1);
        assert_eq!(qs.len(), predict::CYCLE_LEN);
        let mut seen = std::collections::BTreeSet::new();
        let firsts = qs.iter().filter(|q| seen.insert(key(q))).count();
        assert_eq!(firsts, 9, "8 analytic keys and the diff pair");
    }

    #[test]
    fn arguments_are_validated() {
        let ok = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let cfg = ok("--workload network --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (9, 3.0, true));
        assert!(ok("--workload nope").is_err());
        assert!(ok("--workload network --trace 2").is_err());
        assert!(ok("--workload network --seconds -1").is_err());
        assert!(ok("--workload network --seed").is_err());
    }
}
