//! End-to-end API tests against in-process servers: admission control,
//! validation, lifecycle, drain semantics, and checkpoint-backed restart
//! recovery with byte-identical results.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use shil_runtime::json::{self, Json};
use shil_serve::{client, Server, ServerConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shil-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(tag: &str) -> ServerConfig {
    ServerConfig {
        data_dir: temp_dir(tag),
        ..ServerConfig::default()
    }
}

fn get(addr: &str, path: &str) -> client::Response {
    client::request(addr, "GET", path, None).expect("GET")
}

fn post(addr: &str, path: &str, body: &str) -> client::Response {
    client::request(addr, "POST", path, Some(body)).expect("POST")
}

fn sweep_body(scales: &str, stop: f64) -> String {
    format!(
        r#"{{"kind":"sweep","netlist":"V1 in 0 DC 10\nR1 in out 3k\nR2 out 0 1k\nC1 out 0 1n\n.end\n","dt":1e-7,"stop":{stop},"probes":["out"],"scales":{scales}}}"#
    )
}

fn job_id(resp: &client::Response) -> u64 {
    json::parse(&resp.body)
        .and_then(|d| d.get("id").and_then(Json::as_u64))
        .unwrap_or_else(|| panic!("no id in {}", resp.body))
}

fn wait_state(addr: &str, id: u64, want: &str, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let resp = get(addr, &format!("/jobs/{id}"));
        let doc = json::parse(&resp.body).expect("status json");
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("?");
        if state == want {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in `{state}` waiting for `{want}`"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn health_readiness_and_drain() {
    let server = Server::start(config("health")).expect("start");
    let addr = server.addr().to_string();

    assert_eq!(get(&addr, "/healthz").status, 200);
    assert_eq!(get(&addr, "/readyz").status, 200);
    assert_eq!(get(&addr, "/nope").status, 404);
    let metrics = get(&addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("shil_serve_http_requests_total"),
        "{}",
        metrics.body
    );

    // Draining flips readiness and refuses new work, but liveness holds.
    assert_eq!(post(&addr, "/drain", "").status, 202);
    assert_eq!(get(&addr, "/readyz").status, 503);
    assert_eq!(get(&addr, "/healthz").status, 200);
    let refused = post(&addr, "/jobs", &sweep_body("[1.0]", 1e-5));
    assert_eq!(refused.status, 503);
    assert!(refused.header("retry-after").is_some());

    server.shutdown();
}

#[test]
fn admission_control_sheds_with_429_and_rolls_back() {
    // No workers: admitted jobs stay queued, so capacity fills precisely.
    let server = Server::start(ServerConfig {
        workers: 0,
        queue_capacity: 1,
        ..config("admission")
    })
    .expect("start");
    let addr = server.addr().to_string();

    // Validation failures are 400s with actionable messages.
    assert_eq!(post(&addr, "/jobs", "not json").status, 400);
    let bad = post(
        &addr,
        "/jobs",
        &sweep_body("[1.0]", 1e-5).replace("3k", "3q"),
    );
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("col"), "{}", bad.body);

    let first = post(&addr, "/jobs", &sweep_body("[1.0]", 1e-5));
    assert_eq!(first.status, 202, "{}", first.body);
    let first_id = job_id(&first);

    let shed = post(&addr, "/jobs", &sweep_body("[2.0]", 1e-5));
    assert_eq!(shed.status, 429, "{}", shed.body);
    // Retry-After is jittered (anti-thundering-herd), but stays bounded.
    let retry: u64 = shed
        .header("retry-after")
        .and_then(|v| v.parse().ok())
        .expect("numeric retry-after");
    assert!((1..=4).contains(&retry), "retry-after {retry} out of range");
    // The shed job left no trace: no status, no directory.
    let shed_dir = server_data_dir(&addr).join("jobs").join("2");
    assert!(!shed_dir.exists(), "shed job left {shed_dir:?}");
    assert_eq!(get(&addr, &format!("/jobs/{}", first_id + 1)).status, 404);

    // Cancelling the queued job frees capacity.
    let cancelled = post(&addr, &format!("/jobs/{first_id}/cancel"), "");
    assert_eq!(cancelled.status, 200, "{}", cancelled.body);
    assert!(
        cancelled.body.contains("\"cancelled\""),
        "{}",
        cancelled.body
    );
    // A second cancel of a terminal job is a conflict.
    assert_eq!(
        post(&addr, &format!("/jobs/{first_id}/cancel"), "").status,
        409
    );
    let third = post(&addr, "/jobs", &sweep_body("[3.0]", 1e-5));
    assert_eq!(third.status, 202, "{}", third.body);

    let metrics = get(&addr, "/metrics").body;
    assert!(
        metrics.contains("shil_serve_jobs_shed_total 1"),
        "{metrics}"
    );

    server.shutdown();
}

/// Reads back the data dir a test server wrote its address into.
fn server_data_dir(addr: &str) -> PathBuf {
    // Tests create one server per data dir and know both; this helper only
    // documents the linkage for the rollback assertion.
    let dir = temp_dir_existing("admission");
    assert_eq!(
        std::fs::read_to_string(dir.join("addr.txt"))
            .ok()
            .as_deref(),
        Some(addr),
        "no data dir advertises {addr}"
    );
    dir
}

fn temp_dir_existing(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("shil-serve-test-{tag}-{}", std::process::id()))
}

#[test]
fn jobs_run_to_completion_with_streamed_results() {
    let server = Server::start(ServerConfig {
        workers: 1,
        sweep_threads: Some(2),
        ..config("complete")
    })
    .expect("start");
    let addr = server.addr().to_string();

    // A netlist sweep…
    let resp = post(&addr, "/jobs", &sweep_body("[0.5,1.0,2.0]", 1e-5));
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = job_id(&resp);
    let done = wait_state(&addr, id, "done", Duration::from_secs(60));
    assert_eq!(done.get("ok").and_then(Json::as_u64), Some(3));
    assert_eq!(done.get("worst").and_then(Json::as_str), Some("ok"));
    assert_eq!(done.get("exit_code").and_then(Json::as_u64), Some(0));

    let results = get(&addr, &format!("/jobs/{id}/results"));
    assert_eq!(results.status, 200);
    assert!(results.header("x-shil-partial").is_none());
    let lines: Vec<&str> = results.body.lines().collect();
    assert_eq!(lines.len(), 4, "{}", results.body); // 3 items + aggregate
    assert!(lines[0].contains("\"scale\":0.5"), "{}", lines[0]);
    assert!(lines[3].contains("\"aggregate\":true"), "{}", lines[3]);
    // Determinism contract: no wall times, no restored markers.
    assert!(!results.body.contains("wall"), "{}", results.body);
    assert!(!results.body.contains("restored"), "{}", results.body);

    // …and a lock-range sweep served from the shared bounded cache.
    let lock_body = r#"{"kind":"lockrange","r":1000.0,"l":1e-5,"c":1e-8,"i_sat":1e-3,"gain":20.0,"n":3,"vi":[0.02,0.03]}"#;
    let resp = post(&addr, "/jobs", lock_body);
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = job_id(&resp);
    let done = wait_state(&addr, id, "done", Duration::from_secs(120));
    assert_eq!(done.get("ok").and_then(Json::as_u64), Some(2));
    let results = get(&addr, &format!("/jobs/{id}/results")).body;
    assert!(results.contains("\"vi\":0.02"), "{results}");
    // The shared pre-characterization cache saw traffic.
    let metrics = get(&addr, "/metrics").body;
    assert!(
        metrics.contains("shil_prechar_cache_miss_total"),
        "{metrics}"
    );

    server.shutdown();
}

#[test]
fn drain_parks_running_jobs_and_restart_resumes_bit_identically() {
    let body = sweep_body("[0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0]", 4e-3);

    // Reference: an uninterrupted run of the same job.
    let clean_dir = temp_dir("restart-clean");
    let clean = Server::start(ServerConfig {
        workers: 1,
        sweep_threads: Some(1),
        data_dir: clean_dir.clone(),
        ..ServerConfig::default()
    })
    .expect("start clean");
    let clean_addr = clean.addr().to_string();
    let id = job_id(&post(&clean_addr, "/jobs", &body));
    wait_state(&clean_addr, id, "done", Duration::from_secs(120));
    let clean_results = std::fs::read(clean_dir.join("jobs/1/results.jsonl")).expect("clean run");
    clean.shutdown();

    // Interrupted: drain lands mid-job, the job parks back to `queued`
    // with its checkpoint, and a new server over the same data dir
    // finishes it.
    let dir = temp_dir("restart");
    let first = Server::start(ServerConfig {
        workers: 1,
        sweep_threads: Some(1),
        drain_grace: Duration::from_millis(1),
        data_dir: dir.clone(),
        ..ServerConfig::default()
    })
    .expect("start first");
    let addr = first.addr().to_string();
    let id = job_id(&post(&addr, "/jobs", &body));
    assert_eq!(id, 1);

    // Wait until at least one item is checkpointed, then pull the plug.
    let checkpoint = dir.join("jobs/1/checkpoint.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    while count_records(&checkpoint) < 1 {
        assert!(Instant::now() < deadline, "no checkpoint records appeared");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Partial results stream from the checkpoint while the job runs.
    let partial = get(&addr, &format!("/jobs/{id}/results"));
    if partial.header("x-shil-partial").is_some() {
        for line in partial.body.lines() {
            assert!(line.contains("\"scale\""), "{line}");
        }
    }
    first.shutdown();

    let status = std::fs::read_to_string(dir.join("jobs/1/status.json")).expect("status");
    let finished_before_drain = status.contains("\"done\"");
    if !finished_before_drain {
        assert!(status.contains("\"queued\""), "{status}");
    }

    let second = Server::start(ServerConfig {
        workers: 1,
        sweep_threads: Some(1),
        data_dir: dir.clone(),
        ..ServerConfig::default()
    })
    .expect("start second");
    let addr = second.addr().to_string();
    let done = wait_state(&addr, id, "done", Duration::from_secs(120));
    if !finished_before_drain {
        // The resumed run restored the interrupted run's completed items
        // instead of recomputing them.
        assert!(
            done.get("restored").and_then(Json::as_u64).unwrap_or(0) >= 1,
            "{}",
            get(&addr, &format!("/jobs/{id}")).body
        );
    }
    let resumed_results = std::fs::read(dir.join("jobs/1/results.jsonl")).expect("resumed run");
    assert_eq!(
        resumed_results, clean_results,
        "resumed results differ from an uninterrupted run"
    );
    // New submissions get ids past the recovered ones.
    let next = job_id(&post(&addr, "/jobs", &sweep_body("[1.0]", 1e-5)));
    assert!(next > id, "id {next} not past recovered {id}");
    second.shutdown();
}

fn count_records(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|t| t.lines().count().saturating_sub(1))
        .unwrap_or(0)
}

#[test]
fn chaos_jobs_are_rejected_unless_enabled() {
    let server = Server::start(ServerConfig {
        workers: 0,
        ..config("chaos-gate")
    })
    .expect("start");
    let addr = server.addr().to_string();
    let refused = post(&addr, "/jobs", r#"{"kind":"chaos","mode":"panic"}"#);
    assert_eq!(refused.status, 400, "{}", refused.body);
    assert!(refused.body.contains("--allow-chaos"), "{}", refused.body);
    // The gate rejects before persistence: no job directory appears.
    assert_eq!(get(&addr, "/jobs/1").status, 404);
    server.shutdown();
}

#[test]
fn panicking_job_is_quarantined_while_siblings_complete() {
    let server = Server::start(ServerConfig {
        workers: 1,
        sweep_threads: Some(1),
        allow_chaos: true,
        quarantine_after: 2,
        ..config("quarantine")
    })
    .expect("start");
    let addr = server.addr().to_string();

    // A poison pill that panics its worker every time it runs, plus an
    // honest sibling job sharing the single worker.
    let poison = post(&addr, "/jobs", r#"{"kind":"chaos","mode":"panic"}"#);
    assert_eq!(poison.status, 202, "{}", poison.body);
    let poison_id = job_id(&poison);
    let sibling = post(&addr, "/jobs", &sweep_body("[1.0]", 1e-5));
    assert_eq!(sibling.status, 202, "{}", sibling.body);
    let sibling_id = job_id(&sibling);

    // The poison job crashes, requeues, crashes again, and lands in the
    // terminal quarantined state — while the sibling still completes.
    let quarantined = wait_state(&addr, poison_id, "quarantined", Duration::from_secs(60));
    wait_state(&addr, sibling_id, "done", Duration::from_secs(120));

    assert_eq!(quarantined.get("crashes").and_then(Json::as_u64), Some(2));
    let reason = quarantined
        .get("reason")
        .and_then(Json::as_str)
        .expect("quarantine reason");
    assert!(reason.contains("2 consecutive worker crashes"), "{reason}");
    let Some(Json::Arr(trail)) = quarantined.get("trail") else {
        panic!(
            "no trail in {}",
            get(&addr, &format!("/jobs/{poison_id}")).body
        )
    };
    assert_eq!(trail.len(), 2, "{trail:?}");
    assert!(
        trail
            .iter()
            .all(|t| t.as_str().is_some_and(|s| s.contains("panicked"))),
        "{trail:?}"
    );

    // Terminal semantics: no results, cancel conflicts, metric exported.
    assert_eq!(
        get(&addr, &format!("/jobs/{poison_id}/results")).status,
        409
    );
    assert_eq!(
        post(&addr, &format!("/jobs/{poison_id}/cancel"), "").status,
        409
    );
    let metrics = get(&addr, "/metrics").body;
    assert!(
        metrics.contains("shil_serve_jobs_quarantined_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("shil_serve_jobs_crash_requeued_total 1"),
        "{metrics}"
    );

    server.shutdown();
}

#[test]
fn faulty_storage_submissions_fail_loud_not_silent() {
    // Storage that fails every data-path write: the server must refuse to
    // start (the write probe catches it at the door).
    let spec = shil_fault::StorageFaultSpec {
        rate: 1.0,
        seed: 1,
        grace_ops: 0,
    };
    let err = Server::start(ServerConfig {
        storage: std::sync::Arc::new(shil_fault::FaultyStorage::over_fs(spec)),
        ..config("faulty-probe")
    })
    .map(|s| s.shutdown())
    .expect_err("a server over broken storage must not start");
    assert!(err.to_string().contains("injected"), "{err}");

    // Storage that starts healthy and degrades later: submissions either
    // persist fully or roll back with a 500 — never a half-admitted job.
    let faulty = std::sync::Arc::new(shil_fault::FaultyStorage::over_fs(
        shil_fault::StorageFaultSpec {
            rate: 0.45,
            seed: 7,
            grace_ops: 32,
        },
    ));
    let server = Server::start(ServerConfig {
        workers: 0,
        storage: faulty.clone(),
        ..config("faulty-submit")
    })
    .expect("healthy during startup grace");
    let addr = server.addr().to_string();
    let mut accepted = Vec::new();
    let mut refused = 0;
    for k in 0..24 {
        let resp = post(&addr, "/jobs", &sweep_body(&format!("[{}.0]", k + 1), 1e-5));
        match resp.status {
            202 => accepted.push(job_id(&resp)),
            500 => refused += 1,
            other => panic!("unexpected status {other}: {}", resp.body),
        }
    }
    assert!(refused > 0, "fault rate 0.45 must refuse some submissions");
    faulty.disarm();
    // Every accepted job is fully persisted and listed; every refused one
    // left no registered trace.
    for id in &accepted {
        let resp = get(&addr, &format!("/jobs/{id}"));
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let listed = get(&addr, "/jobs").body.matches("\"queued\"").count();
    assert_eq!(listed, accepted.len(), "{}", get(&addr, "/jobs").body);
    assert!(
        !faulty.trail().is_empty(),
        "the injector records a failure trail"
    );
    server.shutdown();
}

#[test]
fn atlas_jobs_map_the_tongue_and_stream_partials() {
    let server = Server::start(ServerConfig {
        workers: 1,
        sweep_threads: Some(4),
        ..config("atlas")
    })
    .expect("start");
    let addr = server.addr().to_string();

    // Bad submissions are 400s at the door, not worker crashes.
    let bad = r#"{"kind":"atlas","nx":7,"ny":8,"coarse":4}"#;
    let resp = post(&addr, "/jobs", bad);
    assert_eq!(resp.status, 400, "{}", resp.body);

    let body =
        r#"{"kind":"atlas","nx":8,"ny":8,"coarse":4,"steps_per_period":16,"horizon_periods":170}"#;
    let resp = post(&addr, "/jobs", body);
    assert_eq!(resp.status, 202, "{}", resp.body);
    let id = job_id(&resp);
    let done = wait_state(&addr, id, "done", Duration::from_secs(120));
    assert_eq!(done.get("kind").and_then(Json::as_str), Some("atlas"));
    assert_eq!(done.get("items").and_then(Json::as_u64), Some(64));
    assert_eq!(done.get("worst").and_then(Json::as_str), Some("ok"));
    assert_eq!(done.get("exit_code").and_then(Json::as_u64), Some(0));

    let results = get(&addr, &format!("/jobs/{id}/results"));
    assert_eq!(results.status, 200);
    assert!(results.header("x-shil-partial").is_none());
    let lines: Vec<&str> = results.body.lines().collect();
    assert_eq!(lines.len(), 65, "{}", results.body); // 64 pixels + aggregate
    assert!(lines[0].contains("\"verdict\":"), "{}", lines[0]);
    assert!(lines[64].contains("\"aggregate\":true"), "{}", lines[64]);
    assert!(lines[64].contains("\"naive_items\":64"), "{}", lines[64]);
    // Determinism contract carries over from the sweep kinds.
    assert!(!results.body.contains("wall"), "{}", results.body);
    assert!(!results.body.contains("restored"), "{}", results.body);

    // Every refinement pass streamed a painted partial map.
    let partial = std::fs::read_to_string(
        temp_dir_existing("atlas")
            .join("jobs")
            .join(id.to_string())
            .join("partial.json"),
    )
    .expect("partial.json streamed");
    let doc = json::parse(&partial).expect("partial json");
    assert_eq!(doc.get("nx").and_then(Json::as_u64), Some(8));
    let verdicts = doc.get("verdicts").and_then(Json::as_str).unwrap();
    assert_eq!(verdicts.len(), 64);
    assert!(verdicts.chars().all(|c| c == 'L' || c == 'U'), "{verdicts}");

    server.shutdown();
}

/// Runs `server.shutdown()` on a helper thread and fails, instead of
/// hanging, if it has not returned within `limit`.
fn shutdown_within(server: Server, limit: Duration, what: &str) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("shutdown of {what} did not return within {limit:?}"));
}

#[test]
fn shutdown_wakes_acceptors_blocked_in_accept() {
    for http_threads in [1, 4] {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let tag = format!("wake-{http_threads}-{}", bind.replace(['.', ':'], "_"));
            let server = Server::start(ServerConfig {
                addr: bind.into(),
                http_threads,
                ..config(&tag)
            })
            .expect("start");
            // Idle, so every acceptor is parked in `accept()`.
            std::thread::sleep(Duration::from_millis(100));
            shutdown_within(
                server,
                Duration::from_secs(2),
                &format!("{http_threads} acceptor(s) on {bind}"),
            );
        }
    }
}

#[test]
fn drain_returns_when_the_last_running_job_finishes() {
    // A grace far longer than the job: drain must wake when the job ends,
    // not when the grace runs out, and the job must finish, not park.
    let dir = temp_dir("drain-wake");
    let server = Server::start(ServerConfig {
        workers: 1,
        sweep_threads: Some(1),
        drain_grace: Duration::from_secs(60),
        data_dir: dir.clone(),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr().to_string();
    let id = job_id(&post(
        &addr,
        "/jobs",
        &sweep_body("[0.5,1.0,1.5,2.0]", 4e-3),
    ));
    let deadline = Instant::now() + Duration::from_secs(60);
    while get(&addr, &format!("/jobs/{id}"))
        .body
        .contains("\"queued\"")
    {
        assert!(Instant::now() < deadline, "job {id} never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    shutdown_within(server, Duration::from_secs(30), "a server draining one job");
    let status =
        std::fs::read_to_string(dir.join(format!("jobs/{id}/status.json"))).expect("status");
    assert!(status.contains("\"done\""), "{status}");
}

/// `shil_serve_jobs_live` as `/metrics` reports it. Tests in this binary
/// share one process-wide registry, so a concurrent test's server can
/// publish its own gauge between this server's publish and the snapshot;
/// poll until this server's value (0 here) shows.
fn wait_jobs_live_zero(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = get(addr, "/metrics").body;
        if metrics.lines().any(|l| l == "shil_serve_jobs_live 0") {
            return;
        }
        assert!(Instant::now() < deadline, "jobs stayed live:\n{metrics}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn finished_jobs_leave_memory_and_are_served_from_disk() {
    let dir = temp_dir("retire");
    let server = Server::start(ServerConfig {
        workers: 1,
        sweep_threads: Some(1),
        data_dir: dir.clone(),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr().to_string();
    let ids: Vec<u64> = (1..=4)
        .map(|k| {
            job_id(&post(
                &addr,
                "/jobs",
                &sweep_body(&format!("[{k}.0]"), 1e-5),
            ))
        })
        .collect();
    for &id in &ids {
        wait_state(&addr, id, "done", Duration::from_secs(60));
    }
    wait_jobs_live_zero(&addr);

    // Every finished job is still served, byte for byte from its directory.
    let mut statuses = Vec::new();
    for &id in &ids {
        let status = get(&addr, &format!("/jobs/{id}"));
        assert_eq!(status.status, 200);
        let on_disk =
            std::fs::read_to_string(dir.join(format!("jobs/{id}/status.json"))).expect("status");
        assert_eq!(status.body, on_disk);
        let results = get(&addr, &format!("/jobs/{id}/results"));
        assert_eq!(results.status, 200);
        assert!(results.header("x-shil-partial").is_none());
        let on_disk =
            std::fs::read_to_string(dir.join(format!("jobs/{id}/results.jsonl"))).expect("results");
        assert_eq!(results.body, on_disk);
        // A finished job cannot be cancelled, in memory or not.
        let cancel = post(&addr, &format!("/jobs/{id}/cancel"), "");
        assert_eq!((cancel.status, &cancel.body), (409, &status.body));
        statuses.push(status.body);
    }
    // The listing merges them in id order.
    assert_eq!(
        get(&addr, "/jobs").body,
        format!("[{}]", statuses.join(","))
    );
    assert_eq!(get(&addr, "/jobs/99").status, 404);
    assert_eq!(get(&addr, "/jobs/99/results").status, 404);
    server.shutdown();

    // A restart loads no finished job, and needs no spec to serve one.
    std::fs::write(dir.join(format!("jobs/{}/spec.json", ids[0])), "{torn").expect("corrupt");
    let server = Server::start(ServerConfig {
        workers: 1,
        data_dir: dir.clone(),
        ..ServerConfig::default()
    })
    .expect("restart");
    let addr = server.addr().to_string();
    wait_jobs_live_zero(&addr);
    for (&id, before) in ids.iter().zip(&statuses) {
        assert_eq!(&get(&addr, &format!("/jobs/{id}")).body, before);
    }
    let results = get(&addr, &format!("/jobs/{}/results", ids[0]));
    assert_eq!(results.status, 200);
    assert!(
        results.body.contains("\"aggregate\":true"),
        "{}",
        results.body
    );
    // Fresh ids continue past the finished ones.
    let next = job_id(&post(&addr, "/jobs", &sweep_body("[1.0]", 1e-5)));
    assert_eq!(next, ids[ids.len() - 1] + 1);
    server.shutdown();
}

#[test]
fn status_and_results_served_from_disk_match_the_live_job() {
    // No workers: the job stays queued (live) until it is cancelled.
    let server = Server::start(ServerConfig {
        workers: 0,
        ..config("retire-identity")
    })
    .expect("start");
    let addr = server.addr().to_string();
    let id = job_id(&post(&addr, "/jobs", &sweep_body("[1.0,2.0]", 1e-5)));
    let live_results = get(&addr, &format!("/jobs/{id}/results"));
    // The cancel reply is rendered from the in-memory job; every later
    // request is answered from disk.
    let live_status = post(&addr, &format!("/jobs/{id}/cancel"), "");
    assert_eq!(live_status.status, 200, "{}", live_status.body);
    assert!(live_status.body.contains("\"cancelled\""));
    wait_jobs_live_zero(&addr);
    assert_eq!(get(&addr, &format!("/jobs/{id}")).body, live_status.body);
    let stored_results = get(&addr, &format!("/jobs/{id}/results"));
    assert_eq!(stored_results.status, live_results.status);
    assert_eq!(stored_results.body, live_results.body);
    assert_eq!(
        stored_results.header("x-shil-partial"),
        live_results.header("x-shil-partial")
    );
    server.shutdown();
}
