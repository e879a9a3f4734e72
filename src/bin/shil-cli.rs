//! `shil-cli` — run circuit analyses on SPICE-flavoured netlist files.
//!
//! ```text
//! shil-cli op <file.cir>
//! shil-cli tran <file.cir> --dt 2e-8 --stop 2e-4 --probe <node> [--probe <node>]
//!          [--timeout <s>] [--csv out.csv]
//! shil-cli ac <file.cir> --port <node-a> <node-b> --from 1e5 --to 1e6 --points 200 [--csv out.csv]
//! shil-cli sweep <file.cir> --dt 2e-8 --stop 2e-4 --probe <node> --scale 0.5,1,2
//!          [--threads <n>] [--timeout <s>] [--item-timeout <s>] [--retries <n>]
//!          [--checkpoint [path]] [--resume] [--csv out.csv]
//! ```
//!
//! `sweep` re-runs the transient once per `--scale` factor, with every
//! independent source scaled by that factor, and reports each probe's final
//! voltage plus a deterministic whole-sweep aggregate. Execution is
//! policy-driven (`shil_runtime`): `--timeout` bounds the whole sweep,
//! `--item-timeout` each run, `--retries` grants extra attempts, and
//! `--checkpoint`/`--resume` make the sweep durable — a killed run resumes
//! where it stopped with bit-identical results. Each worker thread runs one
//! transient at a time; results do not depend on `--threads`.
//!
//! `sweep` exits with the worst per-item outcome's code from the
//! six-way `shil_runtime::ItemOutcome` taxonomy: `0` ok, `10` degraded,
//! `11` failed, `12` timed out, `13` panicked, `14` cancelled (`1` and `2`
//! stay reserved for I/O errors and usage errors respectively).
//!
//! ```text
//! shil-cli atlas [--nx <n>] [--ny <n>] [--coarse <n>] [--spp <n>] [--horizon <periods>]
//!          [--n <order>] [--no-early-exit] [--no-warm-start] [--threads <n>]
//!          [--timeout <s>] [--item-timeout <s>] [--retries <n>]
//!          [--checkpoint [path]] [--resume] [--csv out.csv] [--progress]
//! ```
//!
//! `atlas` maps the Arnold tongue of the paper's tanh LC oscillator under
//! sub-harmonic injection: an adaptive (amplitude × frequency) lock map
//! that refines only the lock/unlock boundary, warm-starts refined cells
//! from their parents, and cuts each transient short once its verdict is
//! confirmed (`shil_circuit::analysis::AtlasSpec`). Output is one CSV row
//! per pixel plus a deterministic aggregate footer. Exit codes follow the
//! sweep taxonomy (`14` if the deadline cancelled refinement, `11` if any
//! cell failed outright).
//!
//! `--progress` (also on `sweep`) publishes items-done/ETA as the
//! `shil_sweep_eta_s` gauge and prints progress lines to stderr; the lines
//! are suppressed under `--quiet` and default off in JSONL (`--events-out`)
//! mode, where the event stream itself carries progress.
//!
//! ```text
//! shil-cli network [--n <count>] [--topology chain|ring|star|all-to-all]
//!          [--coupling resistive|capacitive|mutual] --strength <v[,v...]>
//!          [--detune <d[,d...]>] [--settle <periods>] [--record <periods>]
//!          [--ppp <samples>] [--solver auto|dense|sparse]
//!          [--threads <n>] [--csv out.csv]
//! ```
//!
//! `network` builds a coupled-oscillator network
//! (`shil_circuit::network`): `--n` tanh LC oscillators wired by
//! `--topology`, coupled by the `--coupling` element at each swept
//! `--strength` (ohms, farads, or coupling coefficient `k`), optionally
//! detuned per oscillator by the cyclic `--detune` list. Each strength
//! runs one transient (`--settle` mean periods discarded, `--record`
//! analyzed at `--ppp` samples per period) and reports the network lock
//! classification: per-oscillator lock against the consensus frequency,
//! pairwise relative-phase stationarity, and the mutual-lock verdict.
//! `--solver` forces the transient's linear-solver tier (the two-tier
//! `auto` ladder, dense LU up to 12 unknowns and sparse LU above, is the
//! default); both tiers give bit-identical waveforms.
//!
//! ```text
//! shil-cli serve [--addr <ip:port>] [--data-dir <dir>] [--queue <n>]
//!          [--workers <n>] [--http-threads <n>] [--cache <entries>]
//!          [--max-body <bytes>] [--grace <s>] [--sweep-threads <n>]
//! ```
//!
//! `serve` runs the crash-tolerant HTTP job service (`shil_serve`): it
//! prints `listening <addr>` on stdout (and persists it to
//! `<data-dir>/addr.txt`), then serves until `SIGTERM`/`SIGINT`, at which
//! point it drains gracefully — running jobs get `--grace` seconds to
//! finish, stragglers park back to the queue with their checkpoints and
//! resume bit-identically on the next start.
//!
//! Global flags (any subcommand):
//!
//! - `--quiet` — suppress progress events on stderr (errors still show;
//!   data output on stdout is unaffected).
//! - `--metrics-out [path]` — enable the process-wide metric registry and
//!   write a run manifest (default `results/manifest_shil_cli.json`).
//! - `--events-out [path]` — additionally mirror every progress event to a
//!   JSONL file (default `results/events_shil_cli.jsonl`).
//!
//! A `--flag` that neither the subcommand's usage line nor the global list
//! names is a usage error (exit `2`), so a misspelt or retired flag is not
//! silently ignored.
//!
//! See `shil_circuit::netlist` for the accepted netlist cards.

use std::process::ExitCode;
use std::time::Duration;

use shil::circuit::analysis::{
    ac_impedance, operating_point, transient, AcOptions, AtlasMap, AtlasSpec, NetlistSweepSpec,
    OpOptions, SolverKind, SweepEngine, TranOptions,
};
use shil::circuit::network::{Coupling, NetworkLockOptions, NetworkSpec, Topology};
use shil::circuit::{netlist, Circuit, SolveReport};
use shil::observe::{self, EventLog, RunManifest};
use shil::runtime::shutdown::{install_shutdown_handler, shutdown_requested};
use shil::runtime::{Budget, CheckpointFile, ItemOutcome, SweepPolicy};
use shil::serve::{Server, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  shil-cli op <file.cir>\n  shil-cli tran <file.cir> --dt <s> --stop <s> \
         --probe <node> [--probe <node>] [--timeout <s>] [--csv <out>]\n  shil-cli ac <file.cir> \
         --port <a> <b> --from <hz> --to <hz> [--points <n>] [--csv <out>]\n  shil-cli sweep \
         <file.cir> --dt <s> --stop <s> --probe <node> [--probe <node>] --scale <k[,k...]> \
         [--threads <n>] [--timeout <s>] [--item-timeout <s>] [--retries <n>] \
         [--checkpoint [path]] [--resume] [--csv <out>] [--progress]\n  \
         shil-cli atlas [--nx <n>] [--ny <n>] [--coarse <n>] [--spp <n>] \
         [--horizon <periods>] [--n <order>] [--no-early-exit] [--no-warm-start] \
         [--threads <n>] [--timeout <s>] [--item-timeout <s>] [--retries <n>] \
         [--checkpoint [path]] [--resume] [--csv <out>] [--progress]\n  shil-cli network \
         [--n <count>] [--topology chain|ring|star|all-to-all] \
         [--coupling resistive|capacitive|mutual] --strength <v[,v...]> [--detune <d[,d...]>] \
         [--settle <periods>] [--record <periods>] [--ppp <samples>] \
         [--solver auto|dense|sparse] [--threads <n>] [--csv <out>]\n  shil-cli serve \
         [--addr <ip:port>] [--data-dir <dir>] [--queue <n>] [--workers <n>] \
         [--http-threads <n>] [--cache <entries>] [--max-body <bytes>] [--grace <s>] \
         [--sweep-threads <n>] [--quarantine-after <n>] [--allow-chaos] \
         [--chaos-storage <rate>:<seed>]\n\
         global flags: [--quiet] [--metrics-out [path]] [--events-out [path]]"
    );
    ExitCode::from(2)
}

/// Flags every subcommand accepts.
const GLOBAL_FLAGS: [&str; 3] = ["--quiet", "--metrics-out", "--events-out"];

/// The flags `cmd`'s usage line lists; `None` for an unknown subcommand.
fn subcommand_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "op" => &[],
        "tran" => &["--dt", "--stop", "--probe", "--timeout", "--csv"],
        "ac" => &["--port", "--from", "--to", "--points", "--csv"],
        "sweep" => &[
            "--dt",
            "--stop",
            "--probe",
            "--scale",
            "--threads",
            "--timeout",
            "--item-timeout",
            "--retries",
            "--checkpoint",
            "--resume",
            "--csv",
            "--progress",
        ],
        "atlas" => &[
            "--nx",
            "--ny",
            "--coarse",
            "--spp",
            "--horizon",
            "--n",
            "--no-early-exit",
            "--no-warm-start",
            "--threads",
            "--timeout",
            "--item-timeout",
            "--retries",
            "--checkpoint",
            "--resume",
            "--csv",
            "--progress",
        ],
        "network" => &[
            "--n",
            "--topology",
            "--coupling",
            "--strength",
            "--detune",
            "--settle",
            "--record",
            "--ppp",
            "--solver",
            "--threads",
            "--csv",
        ],
        "serve" => &[
            "--addr",
            "--data-dir",
            "--queue",
            "--workers",
            "--http-threads",
            "--cache",
            "--max-body",
            "--grace",
            "--sweep-threads",
            "--quarantine-after",
            "--allow-chaos",
            "--chaos-storage",
        ],
        _ => return None,
    })
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
        }
    }
    out
}

/// A flag whose value is optional: absent → `None`, `--flag` alone →
/// `Some(default)`, `--flag path` → `Some(path)`. A following token that
/// looks like another flag does not count as the value.
fn optional_path(args: &[String], flag: &str, default: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => Some(default.to_string()),
    }
}

/// `--progress` lines go to stderr only when a human is plausibly watching
/// it: `--quiet` silences them like every other progress event, and in
/// JSONL (`--events-out`) mode the event stream itself carries progress, so
/// the stderr ticker defaults off. The `shil_sweep_eta_s` gauge is
/// published either way.
fn progress_silent(args: &[String]) -> bool {
    args.iter().any(|a| a == "--quiet" || a == "--events-out")
}

/// Items-done/ETA watcher behind `--progress`: samples the process-wide
/// metric registry for a per-item counter, publishes the remaining-time
/// estimate as the `shil_sweep_eta_s` gauge, and (unless silenced) prints
/// progress lines to stderr.
struct Progress {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Progress {
    /// `total` is the item count the run converges to — for adaptive runs
    /// an upper bound, which makes the ETA conservative.
    fn spawn(counter: &'static str, total: usize, silent: bool) -> Progress {
        // The watcher reads the same registry the engines write to, so
        // metrics must be on even without `--metrics-out`.
        observe::set_enabled(true);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        // Counters are process-cumulative; progress is relative to the
        // count at spawn time.
        let base = observe::snapshot().counter(counter);
        let started = std::time::Instant::now();
        let handle = std::thread::spawn(move || {
            let mut last = u64::MAX;
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(200));
                let done = observe::snapshot().counter(counter).saturating_sub(base);
                let eta = if done == 0 || done as usize >= total {
                    0.0
                } else {
                    let remaining = (total - done as usize) as f64;
                    started.elapsed().as_secs_f64() * remaining / done as f64
                };
                observe::gauge_set("shil_sweep_eta_s", eta);
                if !silent && done != last {
                    eprintln!("progress {done}/{total} items, eta {eta:.1}s");
                    last = done;
                }
            }
            observe::gauge_set("shil_sweep_eta_s", 0.0);
        });
        Progress {
            stop,
            handle: Some(handle),
        }
    }

    fn finish(mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn load(path: &str, log: &EventLog) -> Result<Circuit, ()> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        log.error(
            "netlist_read_failed",
            &[("path", path.into()), ("error", e.to_string().into())],
        );
    })?;
    netlist::parse(&text).map_err(|e| {
        log.error(
            "netlist_parse_failed",
            &[("path", path.into()), ("error", e.to_string().into())],
        );
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let metrics_out = optional_path(&args, "--metrics-out", "results/manifest_shil_cli.json");
    let events_out = optional_path(&args, "--events-out", "results/events_shil_cli.jsonl");
    if metrics_out.is_some() {
        observe::set_enabled(true);
    }
    let log = match &events_out {
        Some(path) => match EventLog::to_path(path.as_ref(), quiet) {
            Ok(log) => log,
            Err(e) => {
                eprintln!("cannot open event log {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => EventLog::terminal(quiet),
    };

    let mut manifest = RunManifest::start("shil-cli");
    manifest.push_config("quiet", quiet);
    if let Some(cmd) = args.first() {
        manifest.push_config("command", cmd.as_str());
    }
    if let Some(file) = args.get(1) {
        manifest.push_config("netlist", file.as_str());
    }

    let code = run(&args, &log);

    if let Some(path) = &metrics_out {
        let manifest = manifest.finish(observe::global());
        match manifest.write(path.as_ref()) {
            Ok(()) => log.info("manifest_written", &[("path", path.as_str().into())]),
            Err(e) => {
                log.error(
                    "manifest_write_failed",
                    &[
                        ("path", path.as_str().into()),
                        ("error", e.to_string().into()),
                    ],
                );
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

fn run(args: &[String], log: &EventLog) -> ExitCode {
    let Some(cmd) = args.first() else {
        return usage();
    };
    let Some(known) = subcommand_flags(cmd) else {
        return usage();
    };
    if let Some(flag) = args[1..].iter().find(|a| {
        a.starts_with("--") && !known.contains(&a.as_str()) && !GLOBAL_FLAGS.contains(&a.as_str())
    }) {
        eprintln!("unknown flag for `{cmd}`: {flag}");
        return usage();
    }
    if cmd == "serve" {
        return serve_cmd(&args[1..], log);
    }
    // `atlas` synthesises the paper oscillator itself, so like `serve` it
    // takes no netlist file.
    if cmd == "atlas" {
        return atlas_cmd(&args[1..], log, progress_silent(args));
    }
    // `network` synthesises its coupled-oscillator circuit too.
    if cmd == "network" {
        return network_cmd(&args[1..], log);
    }
    let Some(file) = args.get(1) else {
        return usage();
    };
    let Ok(ckt) = load(file, log) else {
        return ExitCode::FAILURE;
    };
    log.info(
        "netlist_loaded",
        &[
            ("path", file.as_str().into()),
            ("nodes", (ckt.num_nodes() as u64).into()),
        ],
    );
    let rest = &args[2..];
    match cmd.as_str() {
        "op" => {
            let op = match operating_point(&ckt, &OpOptions::default()) {
                Ok(op) => op,
                Err(e) => {
                    log.error("op_failed", &[("error", e.to_string().into())]);
                    return ExitCode::FAILURE;
                }
            };
            log.info(
                "op_solved",
                &[("attempts", (op.report.attempts as u64).into())],
            );
            println!("node voltages:");
            for id in 1..ckt.num_nodes() {
                println!(
                    "  {:>12} = {:.9e} V",
                    ckt.node_name(id),
                    op.node_voltage(id)
                );
            }
            ExitCode::SUCCESS
        }
        "tran" => {
            let (Some(dt), Some(stop)) = (
                flag_value(rest, "--dt").and_then(|v| v.parse::<f64>().ok()),
                flag_value(rest, "--stop").and_then(|v| v.parse::<f64>().ok()),
            ) else {
                return usage();
            };
            let probes: Vec<String> = flag_values(rest, "--probe");
            if probes.is_empty() {
                log.error("tran_needs_probe", &[]);
                return ExitCode::from(2);
            }
            let mut probe_ids = Vec::new();
            for p in &probes {
                match ckt.find_node(p) {
                    Some(id) => probe_ids.push(id),
                    None => {
                        log.error("unknown_probe_node", &[("node", p.as_str().into())]);
                        return ExitCode::FAILURE;
                    }
                }
            }
            log.info(
                "tran_started",
                &[("dt_s", dt.into()), ("stop_s", stop.into())],
            );
            let mut opts = TranOptions::new(dt, stop);
            if let Some(t) = flag_value(rest, "--timeout").and_then(|v| v.parse::<f64>().ok()) {
                opts = opts.with_budget(Budget::with_deadline(Duration::from_secs_f64(t)));
            }
            let res = match transient(&ckt, &opts) {
                Ok(r) => r,
                Err(e) => {
                    log.error("tran_failed", &[("error", e.to_string().into())]);
                    return ExitCode::FAILURE;
                }
            };
            log.info(
                "tran_finished",
                &[
                    ("steps", (res.time.len() as u64).into()),
                    ("attempts", (res.report.attempts as u64).into()),
                    ("reuses", (res.report.reuses as u64).into()),
                ],
            );
            let mut out = String::from("t");
            for p in &probes {
                out.push(',');
                out.push_str(p);
            }
            out.push('\n');
            for k in 0..res.time.len() {
                out.push_str(&format!("{:e}", res.time[k]));
                for &id in &probe_ids {
                    let v = res.node_voltage(id).expect("probed node");
                    out.push_str(&format!(",{:e}", v[k]));
                }
                out.push('\n');
            }
            emit(rest, &out, log)
        }
        "sweep" => {
            let (Some(dt), Some(stop)) = (
                flag_value(rest, "--dt").and_then(|v| v.parse::<f64>().ok()),
                flag_value(rest, "--stop").and_then(|v| v.parse::<f64>().ok()),
            ) else {
                return usage();
            };
            let probes: Vec<String> = flag_values(rest, "--probe");
            if probes.is_empty() {
                log.error("sweep_needs_probe", &[]);
                return ExitCode::from(2);
            }
            let scales: Vec<f64> = flag_values(rest, "--scale")
                .iter()
                .flat_map(|v| v.split(','))
                .filter_map(|v| v.trim().parse::<f64>().ok())
                .collect();
            if scales.is_empty() {
                log.error("sweep_needs_scale", &[]);
                return ExitCode::from(2);
            }
            let threads = flag_value(rest, "--threads").and_then(|v| v.parse::<usize>().ok());
            let secs = |flag: &str| {
                flag_value(rest, flag)
                    .and_then(|v| v.parse::<f64>().ok())
                    .map(Duration::from_secs_f64)
            };
            let policy = SweepPolicy {
                deadline: secs("--timeout"),
                item_timeout: secs("--item-timeout"),
                max_retries: flag_value(rest, "--retries")
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(0),
                ..SweepPolicy::default()
            };
            // The declarative spec is the same validated path `shil-cli
            // serve` jobs run through; compiling it front-loads netlist,
            // probe and grid errors.
            let Ok(text) = std::fs::read_to_string(file) else {
                return ExitCode::FAILURE;
            };
            let spec = NetlistSweepSpec {
                netlist: text,
                dt,
                stop,
                probes: probes.clone(),
                scales: scales.clone(),
            };
            let compiled = match spec.compile() {
                Ok(c) => c,
                Err(e) => {
                    log.error("sweep_spec_invalid", &[("error", e.to_string().into())]);
                    return ExitCode::FAILURE;
                }
            };
            let resume = rest.iter().any(|a| a == "--resume");
            let checkpoint_path = optional_path(
                rest,
                "--checkpoint",
                "results/checkpoint_shil_cli_sweep.jsonl",
            );
            let checkpoint_file = match &checkpoint_path {
                Some(path) => {
                    if !resume {
                        // A fresh (non-resume) run must not inherit records.
                        let _ = std::fs::remove_file(path);
                    }
                    // The checkpoint is bound to the sweep's exact inputs:
                    // netlist text, time grid and scale factors.
                    let fp = compiled.fingerprint();
                    match CheckpointFile::open(path.as_ref(), &fp, scales.len()) {
                        Ok(cp) => Some(cp),
                        Err(e) => {
                            log.error(
                                "checkpoint_open_failed",
                                &[
                                    ("path", path.as_str().into()),
                                    ("error", e.to_string().into()),
                                ],
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                }
                None => None,
            };
            log.info(
                "sweep_started",
                &[
                    ("points", (scales.len() as u64).into()),
                    (
                        "restored",
                        (checkpoint_file.as_ref().map_or(0, |cp| cp.restored().len()) as u64)
                            .into(),
                    ),
                ],
            );
            let engine = SweepEngine::new(threads);
            let watcher = rest.iter().any(|a| a == "--progress").then(|| {
                Progress::spawn(
                    "shil_sweep_items_total",
                    scales.len(),
                    progress_silent(args),
                )
            });
            let sweep = compiled.run(
                &engine,
                &policy,
                &Budget::unlimited(),
                checkpoint_file.as_ref(),
            );
            if let Some(w) = watcher {
                w.finish();
            }
            log.info(
                "sweep_finished",
                &[
                    ("ok", (sweep.ok_count() as u64).into()),
                    ("cancelled", sweep.cancelled.into()),
                ],
            );
            let mut out = String::from("scale,outcome,tries,restored");
            for p in &probes {
                out.push_str(&format!(",v({p})"));
            }
            out.push('\n');
            for (scale, item) in scales.iter().zip(&sweep.items) {
                out.push_str(&format!(
                    "{:e},{},{},{}",
                    scale,
                    item.outcome,
                    item.tries,
                    u8::from(item.restored)
                ));
                match &item.value {
                    Some(finals) => {
                        for v in finals {
                            out.push_str(&format!(",{v:e}"));
                        }
                    }
                    None => {
                        for _ in &probes {
                            out.push(',');
                        }
                    }
                }
                out.push('\n');
            }
            out.push_str(&aggregate_line(&sweep.aggregate, sweep.ok_count()));
            // Exit with the worst item's outcome from the six-way taxonomy
            // (0 ok, 10 degraded, 11 failed, 12 timed out, 13 panicked,
            // 14 cancelled); emit failures keep their own code.
            let worst = ItemOutcome::worst(sweep.items.iter().map(|i| i.outcome));
            let emitted = emit(rest, &out, log);
            match worst {
                ItemOutcome::Ok => emitted,
                other => ExitCode::from(other.exit_code()),
            }
        }
        "ac" => {
            let ports = flag_values(rest, "--port");
            let port_b = rest
                .iter()
                .position(|a| a == "--port")
                .and_then(|i| rest.get(i + 2))
                .cloned();
            let (Some(pa), Some(pb)) = (ports.first().cloned(), port_b) else {
                log.error("ac_needs_port_pair", &[]);
                return ExitCode::from(2);
            };
            let (Some(from), Some(to)) = (
                flag_value(rest, "--from").and_then(|v| v.parse::<f64>().ok()),
                flag_value(rest, "--to").and_then(|v| v.parse::<f64>().ok()),
            ) else {
                return usage();
            };
            let points = flag_value(rest, "--points")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(100)
                .max(2);
            let node = |name: &str| {
                if name == "0" {
                    Some(Circuit::GROUND)
                } else {
                    ckt.find_node(name)
                }
            };
            let (Some(a), Some(b)) = (node(&pa), node(&pb)) else {
                log.error("unknown_port_node", &[]);
                return ExitCode::FAILURE;
            };
            let freqs: Vec<f64> = (0..points)
                .map(|k| from * (to / from).powf(k as f64 / (points - 1) as f64))
                .collect();
            log.info(
                "ac_started",
                &[
                    ("from_hz", from.into()),
                    ("to_hz", to.into()),
                    ("points", (points as u64).into()),
                ],
            );
            let z = match ac_impedance(&ckt, a, b, &freqs, &AcOptions::default()) {
                Ok(z) => z,
                Err(e) => {
                    log.error("ac_failed", &[("error", e.to_string().into())]);
                    return ExitCode::FAILURE;
                }
            };
            let mut out = String::from("f_hz,mag_ohm,phase_rad\n");
            for (f, zk) in freqs.iter().zip(&z) {
                out.push_str(&format!("{:e},{:e},{:e}\n", f, zk.abs(), zk.arg()));
            }
            emit(rest, &out, log)
        }
        _ => usage(),
    }
}

/// Maps the paper oscillator's Arnold tongue with the adaptive atlas
/// engine (`shil_circuit::analysis::AtlasSpec`): coarse lock/unlock grid,
/// boundary-only refinement, warm-started and early-exiting interior
/// cells, with the finest two levels run at full fidelity so boundary
/// pixels match a dense cold-start sweep exactly.
fn atlas_cmd(rest: &[String], log: &EventLog, silent_progress: bool) -> ExitCode {
    let num = |flag: &str, default: usize| {
        flag_value(rest, flag)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(default)
    };
    let nx = num("--nx", 64);
    let ny = num("--ny", 64);
    // Default coarse tile: the largest power of two ≤ 8 that divides both
    // axes while leaving at least two tiles per axis, so the coarse pass
    // can actually bracket the tongue.
    let default_coarse = {
        let mut c = 1;
        while c < 8
            && nx.is_multiple_of(2 * c)
            && ny.is_multiple_of(2 * c)
            && 2 * (2 * c) <= nx.min(ny)
        {
            c *= 2;
        }
        c
    };
    let mut spec = AtlasSpec::paper_oscillator(nx, ny, num("--coarse", default_coarse));
    spec.steps_per_period = num("--spp", spec.steps_per_period);
    spec.horizon_periods = num("--horizon", spec.horizon_periods);
    spec.n = flag_value(rest, "--n")
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(spec.n);
    if rest.iter().any(|a| a == "--no-early-exit") {
        spec.early_exit = false;
    }
    if rest.iter().any(|a| a == "--no-warm-start") {
        spec.warm_start = false;
    }
    let compiled = match spec.compile() {
        Ok(c) => c,
        Err(e) => {
            log.error("atlas_spec_invalid", &[("error", e.to_string().into())]);
            return ExitCode::from(2);
        }
    };
    let resume = rest.iter().any(|a| a == "--resume");
    let checkpoint_path = optional_path(
        rest,
        "--checkpoint",
        "results/checkpoint_shil_cli_atlas.jsonl",
    );
    let checkpoint_file = match &checkpoint_path {
        Some(path) => {
            if !resume {
                // A fresh (non-resume) run must not inherit records.
                let _ = std::fs::remove_file(path);
            }
            match CheckpointFile::open(
                path.as_ref(),
                &compiled.fingerprint(),
                compiled.checkpoint_slots(),
            ) {
                Ok(cp) => Some(cp),
                Err(e) => {
                    log.error(
                        "checkpoint_open_failed",
                        &[
                            ("path", path.as_str().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let secs = |flag: &str| {
        flag_value(rest, flag)
            .and_then(|v| v.parse::<f64>().ok())
            .map(Duration::from_secs_f64)
    };
    let policy = SweepPolicy {
        deadline: secs("--timeout"),
        item_timeout: secs("--item-timeout"),
        max_retries: flag_value(rest, "--retries")
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0),
        ..SweepPolicy::default()
    };
    let threads = flag_value(rest, "--threads").and_then(|v| v.parse::<usize>().ok());
    let engine = SweepEngine::new(threads);
    log.info(
        "atlas_started",
        &[
            ("pixels", (compiled.pixels() as u64).into()),
            ("coarse", (spec.coarse as u64).into()),
            (
                "restored",
                (checkpoint_file.as_ref().map_or(0, |cp| cp.restored().len()) as u64).into(),
            ),
        ],
    );
    let watcher = rest.iter().any(|a| a == "--progress").then(|| {
        Progress::spawn(
            "shil_atlas_cells_simulated_total",
            compiled.pixels(),
            silent_progress,
        )
    });
    let mut on_pass = |map: &AtlasMap| {
        log.info(
            "atlas_pass",
            &[
                ("passes", (map.stats.passes as u64).into()),
                ("simulated", (map.stats.items_simulated as u64).into()),
                ("locked", (map.locked_count() as u64).into()),
            ],
        );
    };
    let map = compiled.run(
        &engine,
        &policy,
        &Budget::unlimited(),
        checkpoint_file.as_ref(),
        Some(&mut on_pass),
    );
    if let Some(w) = watcher {
        w.finish();
    }
    let st = &map.stats;
    log.info(
        "atlas_finished",
        &[
            ("simulated", (st.items_simulated as u64).into()),
            ("naive_items", (st.naive_items as u64).into()),
            ("steps_run", (st.steps_run as u64).into()),
            ("naive_steps", (st.naive_steps as u64).into()),
            ("locked", (map.locked_count() as u64).into()),
            ("errors", (st.errors as u64).into()),
            ("cancelled", map.cancelled.into()),
        ],
    );
    let mut out = String::from("ix,iy,f_hz,vi,verdict,simulated,cell_size\n");
    for iy in 0..map.ny {
        for ix in 0..map.nx {
            let i = iy * map.nx + ix;
            out.push_str(&format!(
                "{},{},{:e},{:e},{},{},{}\n",
                ix,
                iy,
                map.freqs[ix],
                map.amps[iy],
                map.verdicts[i].name(),
                u8::from(map.simulated[i]),
                map.cell_size[i],
            ));
        }
    }
    // Deterministic footer, mirroring the sweep aggregate: effort counters
    // identical at any thread count and across kill/resume (`restored` and
    // wall time are deliberately excluded).
    out.push_str(&format!(
        "# aggregate locked={} passes={} simulated={}/{} steps={}/{} early_exits={} \
         warm_starts={} warm_start_hits={} cold_fallbacks={} errors={}\n",
        map.locked_count(),
        st.passes,
        st.items_simulated,
        st.naive_items,
        st.steps_run,
        st.naive_steps,
        st.early_exits,
        st.warm_starts,
        st.warm_start_hits,
        st.cold_fallbacks,
        st.errors,
    ));
    let emitted = emit(rest, &out, log);
    if map.cancelled {
        return ExitCode::from(ItemOutcome::Cancelled.exit_code());
    }
    if st.errors > 0 {
        return ExitCode::from(ItemOutcome::Failed.exit_code());
    }
    emitted
}

/// Builds and classifies a coupled-oscillator network
/// (`shil_circuit::network`): one transient + network lock analysis per
/// swept coupling strength, fanned out through the sweep engine, with the
/// per-oscillator / pairwise / mutual verdicts reported as CSV.
fn network_cmd(rest: &[String], log: &EventLog) -> ExitCode {
    let count = flag_value(rest, "--n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8);
    let topology_name = flag_value(rest, "--topology").unwrap_or_else(|| "ring".into());
    let Some(topology) = Topology::parse(&topology_name) else {
        log.error(
            "unknown_topology",
            &[("topology", topology_name.as_str().into())],
        );
        return ExitCode::from(2);
    };
    let coupling_name = flag_value(rest, "--coupling").unwrap_or_else(|| "resistive".into());
    let strengths: Vec<f64> = flag_values(rest, "--strength")
        .iter()
        .flat_map(|v| v.split(','))
        .filter_map(|v| v.trim().parse::<f64>().ok())
        .collect();
    if strengths.is_empty() {
        log.error("network_needs_strength", &[]);
        return ExitCode::from(2);
    }
    let Some(coupling) = Coupling::parse(&coupling_name, strengths[0]) else {
        log.error(
            "unknown_coupling",
            &[("coupling", coupling_name.as_str().into())],
        );
        return ExitCode::from(2);
    };
    let detuning: Vec<f64> = flag_values(rest, "--detune")
        .iter()
        .flat_map(|v| v.split(','))
        .filter_map(|v| v.trim().parse::<f64>().ok())
        .collect();
    let fnum = |flag: &str, default: f64| {
        flag_value(rest, flag)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(default)
    };
    let settle = fnum("--settle", 60.0);
    let record = fnum("--record", 60.0);
    let ppp = flag_value(rest, "--ppp")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(64);
    let solver = match flag_value(rest, "--solver").as_deref() {
        None | Some("auto") => SolverKind::Auto,
        Some("dense") => SolverKind::Dense,
        Some("sparse") => SolverKind::Sparse,
        Some(other) => {
            log.error("unknown_solver", &[("solver", other.into())]);
            return usage();
        }
    };
    let base = NetworkSpec::new(count, topology, coupling).with_detuning(detuning);
    // Front-load build errors (n, detuning, coupling range) before the fan-out.
    if let Err(e) = base.build() {
        log.error("network_spec_invalid", &[("error", e.to_string().into())]);
        return ExitCode::from(2);
    }
    // Lock windows sized to ~90 % of the recorded tail (6 windows, ≥ 2
    // periods each): the slack absorbs detuned consensus frequencies whose
    // periods run longer than the nominal mean the recording was sized on.
    let mut lock_opts = NetworkLockOptions::default();
    lock_opts.lock.windows = 6;
    lock_opts.lock.periods_per_window = ((0.9 * record / 6.0).floor() as usize).max(2);
    log.info(
        "network_started",
        &[
            ("oscillators", (count as u64).into()),
            ("topology", topology.name().into()),
            ("coupling", coupling.kind().into()),
            ("points", (strengths.len() as u64).into()),
        ],
    );
    let threads = flag_value(rest, "--threads").and_then(|v| v.parse::<usize>().ok());
    let engine = SweepEngine::new(threads);
    let runs = engine.map(&strengths, |_, &strength| {
        let mut spec = base.clone();
        spec.coupling = Coupling::parse(coupling.kind(), strength).expect("kind re-parses");
        let net = spec.build()?;
        let mut opts = net.transient_options(settle, record, ppp);
        opts.solver = solver;
        let result = net.simulate(&opts)?;
        let report = net.probe_lock(&result, &lock_opts)?;
        Ok::<_, shil::circuit::CircuitError>((net, report))
    });
    let mut out =
        String::from("strength,mutual,locked_fraction,consensus_hz,locked_pairs,total_pairs\n");
    let mut failures = 0usize;
    for (strength, run) in strengths.iter().zip(&runs) {
        match run {
            Ok((net, report)) => {
                log.info(
                    "network_point",
                    &[
                        ("strength", (*strength).into()),
                        ("mutual", report.mutual_lock.into()),
                        ("locked_fraction", report.locked_fraction.into()),
                        ("oscillators", (net.probes.len() as u64).into()),
                    ],
                );
                out.push_str(&format!(
                    "{:e},{},{:e},{:e},{},{}\n",
                    strength,
                    u8::from(report.mutual_lock),
                    report.locked_fraction,
                    report.consensus_frequency_hz,
                    report.pairs.iter().filter(|p| p.locked).count(),
                    report.pairs.len(),
                ));
            }
            Err(e) => {
                failures += 1;
                log.error(
                    "network_point_failed",
                    &[
                        ("strength", (*strength).into()),
                        ("error", e.to_string().into()),
                    ],
                );
                out.push_str(&format!("{strength:e},,,,,\n"));
            }
        }
    }
    let emitted = emit(rest, &out, log);
    if failures > 0 {
        return ExitCode::from(ItemOutcome::Failed.exit_code());
    }
    emitted
}

/// Runs the HTTP job service until a shutdown signal arrives, then drains
/// gracefully (running jobs get `--grace` seconds, stragglers park back to
/// the queue with their checkpoints for the next start to resume).
fn serve_cmd(rest: &[String], log: &EventLog) -> ExitCode {
    let num = |flag: &str, default: usize| {
        flag_value(rest, flag)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(default)
    };
    let defaults = ServerConfig::default();
    // `--chaos-storage <rate>:<seed>` routes every durable write through the
    // deterministic fault injector — a test-harness hook for out-of-process
    // chaos runs (injected I/O faults + kill -9) against the real binary.
    let storage: std::sync::Arc<dyn shil::runtime::Storage> =
        match flag_value(rest, "--chaos-storage") {
            None => shil::runtime::FsStorage::shared(),
            Some(v) => {
                let (rate, seed) = match v.split_once(':') {
                    Some((r, s)) => match (r.parse::<f64>(), s.parse::<u64>()) {
                        (Ok(r), Ok(s)) if (0.0..=1.0).contains(&r) => (r, s),
                        _ => {
                            eprintln!(
                                "error: --chaos-storage wants <rate>:<seed> \
                                 (rate in [0,1]), got {v:?}"
                            );
                            return ExitCode::from(2);
                        }
                    },
                    None => {
                        eprintln!("error: --chaos-storage wants <rate>:<seed>, got {v:?}");
                        return ExitCode::from(2);
                    }
                };
                std::sync::Arc::new(shil_fault::FaultyStorage::over_fs(
                    shil_fault::StorageFaultSpec::new(rate, seed),
                ))
            }
        };
    let config = ServerConfig {
        addr: flag_value(rest, "--addr").unwrap_or(defaults.addr),
        data_dir: flag_value(rest, "--data-dir")
            .map_or(defaults.data_dir, std::path::PathBuf::from),
        queue_capacity: num("--queue", defaults.queue_capacity),
        workers: num("--workers", defaults.workers),
        http_threads: num("--http-threads", defaults.http_threads),
        cache_entries: num("--cache", defaults.cache_entries),
        max_body_bytes: num("--max-body", defaults.max_body_bytes),
        drain_grace: flag_value(rest, "--grace")
            .and_then(|v| v.parse::<f64>().ok())
            .map_or(defaults.drain_grace, Duration::from_secs_f64),
        sweep_threads: flag_value(rest, "--sweep-threads").and_then(|v| v.parse::<usize>().ok()),
        quarantine_after: num("--quarantine-after", defaults.quarantine_after),
        allow_chaos: rest.iter().any(|a| a == "--allow-chaos"),
        storage,
    };
    // Fail fast on an unusable data directory: a serve process that cannot
    // persist jobs would otherwise limp along 500-ing every submission. The
    // probe creates the directory, round-trips a marker file through the
    // configured storage, and deletes it.
    if let Err(e) =
        shil::runtime::storage::probe_writable(&*config.storage, &config.data_dir.join("jobs"))
    {
        eprintln!(
            "error: data dir {} is not writable: {e}",
            config.data_dir.display()
        );
        log.error(
            "serve_data_dir_unwritable",
            &[
                ("data_dir", config.data_dir.display().to_string().into()),
                ("error", e.to_string().into()),
            ],
        );
        return ExitCode::FAILURE;
    }
    install_shutdown_handler();
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            log.error("serve_start_failed", &[("error", e.to_string().into())]);
            return ExitCode::FAILURE;
        }
    };
    // Out-of-process clients discover a port-0 bind from this line (and
    // from <data-dir>/addr.txt).
    println!("listening {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    log.info(
        "serve_started",
        &[("addr", server.addr().to_string().into())],
    );
    while !shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    log.info("serve_draining", &[]);
    server.shutdown();
    log.info("serve_stopped", &[]);
    ExitCode::SUCCESS
}

/// The deterministic whole-sweep footer: solver-effort counters that are
/// identical at any thread count and across kill/resume (wall time is
/// deliberately excluded). CI diffs this line between a clean run and a
/// killed-and-resumed one.
fn aggregate_line(report: &SolveReport, ok: usize) -> String {
    let fallbacks: Vec<String> = report.fallbacks.iter().map(|f| f.to_string()).collect();
    format!(
        "# aggregate ok={} attempts={} halvings={} factorizations={} reuses={} fallbacks=[{}]\n",
        ok,
        report.attempts,
        report.halvings,
        report.factorizations,
        report.reuses,
        fallbacks.join("; ")
    )
}

fn emit(rest: &[String], content: &str, log: &EventLog) -> ExitCode {
    match flag_value(rest, "--csv") {
        Some(path) => match std::fs::write(&path, content) {
            Ok(()) => {
                log.info("csv_written", &[("path", path.as_str().into())]);
                ExitCode::SUCCESS
            }
            Err(e) => {
                log.error(
                    "csv_write_failed",
                    &[
                        ("path", path.as_str().into()),
                        ("error", e.to_string().into()),
                    ],
                );
                ExitCode::FAILURE
            }
        },
        None => {
            print!("{content}");
            ExitCode::SUCCESS
        }
    }
}
