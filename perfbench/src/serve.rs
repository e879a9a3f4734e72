//! `serve`: an in-process `Server` (2 workers, 2 HTTP threads, sweeps on 1
//! thread) fed by 2 closed-loop clients. After a think time of up to 5 ms
//! (outside the job's latency), each client submits a job
//! (`POST /jobs`), polls `GET /jobs/<id>` every millisecond until it is
//! done, then fetches `GET /jobs/<id>/results`. Three jobs in four are
//! checkpointed `sweep` jobs, which write checkpoints and results; the
//! fourth is a `lockrange` job, which reads the shared pre-characterization
//! cache. A sweep job's transient takes about a third of its latency, so
//! the `serve` HTTP layer and the `runtime` persist+fsync path dominate
//! it; this is the one workload with storage on the blocking path. (With
//! an even smaller transient the latency follows the machine's scheduling
//! and disk noise so closely that runs disagree beyond the bound.)

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use shil::runtime::json::{self, Json};
use shil::serve::{Server, ServerConfig};

use crate::client::request;
use crate::common::{nproc, time, Pass, Report, Rng, Stop};
use crate::storage::TimedStorage;
use crate::{layers, trace, Config};

/// Worker, HTTP and client threads: two each, never more than the cores.
fn threads() -> usize {
    nproc().min(2)
}
const SWEEP_THREADS: usize = 1;
const SETUP_REPS: usize = 41;
/// Finished jobs in the data directory each set-up recovers.
const HISTORY_JOBS: usize = 200;
/// Pause between two status polls of one job.
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Width of the windows whose completion rates give `throughput_per_s`.
const WINDOW_S: f64 = 2.0;
/// Upper end of a client's think time before each submit, drawn per job
/// index and uniform: the server's HTTP threads sleep 5 ms whenever no
/// connection is waiting, and a client that submits the moment its last
/// job's results arrive stays phase-locked to their wake-ups. Job latencies
/// then cluster 5 ms apart, and a median between two clusters jumps by a
/// quarter when the machine's speed shifts a few percent.
const THINK_MAX_US: usize = 5_000;

/// The seeded job stream: request bodies, one `lockrange` job in every
/// four. The kinds' latencies differ by about 5x, so the mix keeps the
/// median inside the sweep jobs and the 90th percentile inside the
/// lock-range jobs, away from the gap between them.
pub fn jobs(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|i| {
            if i % 4 == 0 {
                // Four injection levels on one oscillator: after the first
                // few jobs every grid comes from the shared cache.
                let vi = [0.01, 0.02, 0.03, 0.04][rng.below(4)];
                format!(
                    "{{\"kind\":\"lockrange\",\"r\":1000.0,\"l\":1e-5,\"c\":1e-8,\
                     \"i_sat\":1e-3,\"gain\":20.0,\"n\":3,\"vi\":[{vi}]}}"
                )
            } else {
                let r2 = 500 + 100 * rng.below(11);
                let scales = [0.5, 1.0, 1.5, 2.0];
                let (a, b) = (scales[rng.below(4)], scales[rng.below(4)]);
                format!(
                    "{{\"kind\":\"sweep\",\"netlist\":\"V1 in 0 DC 10\\nR1 in out 3k\\n\
                     R2 out 0 {r2}\\nC1 out 0 1n\\n.end\\n\",\"dt\":1e-7,\"stop\":1e-3,\
                     \"probes\":[\"out\"],\"scales\":[{a},{b}]}}"
                )
            }
        })
        .collect()
}

fn config(dir: &Path, storage: &Arc<TimedStorage>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: dir.to_path_buf(),
        workers: threads(),
        http_threads: threads(),
        sweep_threads: Some(SWEEP_THREADS),
        storage: Arc::clone(storage) as Arc<dyn shil::runtime::Storage>,
        ..ServerConfig::default()
    }
}

/// One job's client-side record.
#[derive(Debug, Clone)]
struct JobRun {
    spec: usize,
    ok: bool,
    latency: f64,
    polls: usize,
    results: String,
    /// Completion time, seconds from the start of the pass.
    done_at: f64,
}

fn run_job(addr: &str, body: &str, spec: usize) -> JobRun {
    let mut run = JobRun {
        spec,
        ok: false,
        latency: 0.0,
        polls: 0,
        results: String::new(),
        done_at: 0.0,
    };
    let ((), dt) = time(|| {
        let submitted = {
            let _s = trace::span("serve.http.submit");
            request(addr, "POST", "/jobs", Some(body))
        };
        let id = match submitted {
            Ok(r) if r.status == 202 => {
                json::parse(&r.body).and_then(|d| d.get("id").and_then(Json::as_u64))
            }
            Ok(r) => {
                eprintln!("serve: submit answered {}: {}", r.status, r.body.trim());
                None
            }
            Err(e) => {
                eprintln!("serve: submit failed: {e}");
                None
            }
        };
        let Some(id) = id else { return };
        let state = loop {
            run.polls += 1;
            let status = {
                let _s = trace::span("serve.http.status");
                request(addr, "GET", &format!("/jobs/{id}"), None)
            };
            let state = match status {
                Ok(r) if r.status == 200 => json::parse(&r.body)
                    .and_then(|d| d.get("state").and_then(Json::as_str).map(str::to_string)),
                _ => None,
            };
            match state.as_deref() {
                Some("queued" | "running") => std::thread::sleep(POLL_INTERVAL),
                other => break other.map(str::to_string),
            }
        };
        if state.as_deref() != Some("done") {
            eprintln!("serve: job {id} ended {state:?}");
            return;
        }
        let results = {
            let _s = trace::span("serve.http.results");
            request(addr, "GET", &format!("/jobs/{id}/results"), None)
        };
        if let Ok(r) = results {
            run.ok = r.status == 200 && r.header("x-shil-partial").is_none();
            run.results = r.body;
        }
    });
    run.latency = dt;
    run
}

struct PassOut {
    pass: Pass,
    runs: Vec<JobRun>,
    bytes_written: u64,
}

/// Closed-loop clients working through `bodies` against `addr`.
fn pass(addr: &str, bodies: &[String], stop: Stop) -> Vec<JobRun> {
    let next = AtomicUsize::new(0);
    let start = std::time::Instant::now();
    let runs: Mutex<Vec<(usize, JobRun)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= bodies.len() || !stop.allows(i) {
                    break;
                }
                let think = Rng::new(i as u64).below(THINK_MAX_US);
                std::thread::sleep(Duration::from_micros(think as u64));
                let _op = trace::op_span("serve.job", i as u64 + 1);
                let mut run = run_job(addr, &bodies[i], i);
                run.done_at = start.elapsed().as_secs_f64();
                runs.lock().expect("client panicked").push((i, run));
            });
        }
    });
    let mut runs = runs.into_inner().expect("client panicked");
    runs.sort_by_key(|(i, _)| *i);
    runs.into_iter().map(|(_, r)| r).collect()
}

/// A running server, its address and the storage decorator it writes
/// through.
struct Running {
    server: Server,
    addr: String,
    storage: Arc<TimedStorage>,
}

/// `Server::start` through a 200 from `/readyz`.
fn start(dir: &Path) -> Running {
    let storage = Arc::new(TimedStorage::new());
    let server = Server::start(config(dir, &storage)).expect("server starts");
    let addr = server.addr().to_string();
    loop {
        match request(&addr, "GET", "/readyz", None) {
            Ok(r) if r.status == 200 => break,
            _ => std::thread::sleep(POLL_INTERVAL),
        }
    }
    Running {
        server,
        addr,
        storage,
    }
}

/// Runs the clients against `running`, then shuts it down.
fn measured(running: Running, bodies: &[String], stop: Stop) -> PassOut {
    let (runs, wall) = time(|| pass(&running.addr, bodies, stop));
    running.server.shutdown();
    let mut out = Pass {
        attempted: runs.len(),
        wall_s: wall,
        ..Pass::default()
    };
    let mut done_at = Vec::new();
    for r in &runs {
        if r.ok {
            out.latencies.push(r.latency);
            done_at.push(r.done_at);
        } else {
            out.failed += 1;
        }
    }
    out.rates = crate::common::window_rates(&done_at, WINDOW_S, wall);
    PassOut {
        pass: out,
        runs,
        bytes_written: running.storage.bytes_written(),
    }
}

fn data_root() -> PathBuf {
    PathBuf::from(format!("perfbench/out/serve-{}", std::process::id()))
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report {
        threads: vec![
            ("workers", threads()),
            ("http", threads()),
            ("sweep", SWEEP_THREADS),
            ("clients", threads()),
        ],
        ..Report::default()
    };
    let root = data_root();
    let _ = std::fs::remove_dir_all(&root);
    let bodies = jobs(cfg.seed, 100_000);

    // Set-up is a restart: `Server::start` recovers a data directory
    // holding the finished jobs of an earlier session, then answers
    // `/readyz`.
    let dir = root.join("untraced");
    let history = start(&dir);
    pass(
        &history.addr,
        &jobs(!cfg.seed, HISTORY_JOBS),
        Stop::Count(HISTORY_JOBS),
    );
    history.server.shutdown();
    let mut server: Option<Running> = None;
    for _ in 0..SETUP_REPS {
        if let Some(r) = server.take() {
            r.server.shutdown();
        }
        let (r, dt) = time(|| start(&dir));
        report.setup_s.push(dt);
        server = Some(r);
    }
    let untraced = measured(
        server.expect("at least one set-up"),
        &bodies,
        Stop::after(cfg.untraced_time()),
    );
    report.peak_rss_mb = crate::common::peak_rss_mb();
    report.pass = untraced.pass.clone();

    let checked = if cfg.trace {
        layers::begin_traced_pass();
        let traced = measured(
            start(&root.join("traced")),
            &bodies,
            Stop::Count(untraced.pass.attempted),
        );
        let spans = layers::end_traced_pass();
        let snap = shil::observe::snapshot();
        let l = &mut report.layer;
        let polls: usize = traced.runs.iter().map(|r| r.polls).sum();
        l.insert(
            "serve.polls_per_job".into(),
            polls as f64 / traced.runs.len().max(1) as f64,
        );
        l.insert(
            "serve.shed".into(),
            snap.counter("shil_serve_jobs_shed_total") as f64,
        );
        l.insert(
            "runtime.storage.bytes_written".into(),
            traced.bytes_written as f64,
        );
        layers::fill(
            &mut report,
            spans,
            "serve.job",
            &untraced.pass,
            &traced.pass,
        );
        traced
    } else {
        untraced
    };

    // Oracle: every finished job's results must be byte-identical to a
    // reference run of the same spec on a fresh server.
    let mut specs: Vec<String> = checked
        .runs
        .iter()
        .map(|r| bodies[r.spec].clone())
        .collect();
    specs.sort_unstable();
    specs.dedup();
    let reference = start(&root.join("reference"));
    let want: BTreeMap<&str, JobRun> = specs
        .iter()
        .map(String::as_str)
        .zip(pass(&reference.addr, &specs, Stop::Count(specs.len())))
        .collect();
    reference.server.shutdown();
    let finished: Vec<&JobRun> = checked.runs.iter().filter(|r| r.ok).collect();
    let differ = finished
        .iter()
        .filter(|r| {
            let w = &want[bodies[r.spec].as_str()];
            !(w.ok && r.results == w.results)
        })
        .count();
    report.check(
        "results_match_reference",
        differ == 0 && !finished.is_empty(),
        format!(
            "{differ} of {} finished jobs differ from a reference run of their spec \
             ({} distinct specs)",
            finished.len(),
            specs.len()
        ),
    );
    // The run's data directories stay under `perfbench/out/` (about 10 MB).
    // Deleting thousands of job files makes file creation and fsync slower
    // for minutes afterwards on a filesystem mounted with online discard,
    // so every later run on the machine would measure this run's clean-up.
    report
}
