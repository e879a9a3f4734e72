//! The job server: HTTP front-end, bounded work queue, worker pool,
//! graceful drain and restart recovery.
//!
//! # Lifecycle
//!
//! ```text
//!            POST /jobs                    worker pops
//!   client ───────────────► Queued ───────────────────► Running
//!                             │  ▲                        │
//!               cancel        │  │ drain/crash requeue    │ finishes
//!                             ▼  └────────────────────────┤
//!                         Cancelled                       ▼
//!                                              Done / Failed
//! ```
//!
//! - **Admission control**: the queue is bounded; a submission beyond
//!   capacity gets `429 Too Many Requests` with `Retry-After`, and its
//!   on-disk trace is rolled back. Memory use never grows with offered
//!   load.
//! - **Graceful drain**: `drain()` (wired to `SIGTERM` by `shil-cli
//!   serve`) stops admissions (`/readyz` → 503, `POST /jobs` → 503),
//!   gives running jobs a grace period to finish, then cancels them
//!   cooperatively. A cancelled-by-drain job is parked back to `Queued`
//!   with its checkpoint intact — the *checkpoint-on-shutdown* path.
//! - **Restart recovery**: on startup every persisted job directory is
//!   scanned; jobs that were `Queued` or `Running` when the previous
//!   process died (even by `SIGKILL`) are re-enqueued past the admission
//!   bound. Their checkpoints make the re-run skip completed items, so
//!   the final `results.jsonl` is byte-identical to an uninterrupted run.

use std::collections::BTreeMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use shil_circuit::analysis::{decode_final_voltages, encode_final_voltages, AtlasMap, SweepEngine};
use shil_circuit::{CircuitError, SolveReport};
use shil_core::cache::PrecharCache;
use shil_core::nonlinearity::NegativeTanh;
use shil_core::oscillator::Oscillator;
use shil_core::tank::ParallelRlc;
use shil_runtime::storage::probe_writable;
use shil_runtime::{Budget, CancelToken, CheckpointFile, FsStorage, Storage};

use crate::http::{read_request, respond, ReadOutcome, Request};
use crate::job::{self, ChaosMode, JobKind, JobSpec, JobState, JobStatus};
use crate::queue::WorkQueue;

/// How a [`Server`] is shaped. `Default` suits tests and local tooling.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Root of the persisted state (`<data_dir>/jobs/<id>/…`).
    pub data_dir: PathBuf,
    /// Admission bound: queued jobs beyond this are shed with 429.
    pub queue_capacity: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// HTTP acceptor threads.
    pub http_threads: usize,
    /// Entry bound of the shared pre-characterization cache.
    pub cache_entries: usize,
    /// Largest accepted request body, bytes.
    pub max_body_bytes: usize,
    /// How long [`Server::drain`] waits for running jobs before cancelling
    /// them (they park back to `Queued` for restart recovery).
    pub drain_grace: Duration,
    /// Threads each sweep fans out to (`None` → one per core).
    pub sweep_threads: Option<usize>,
    /// Backend for every durable write (job specs, statuses, checkpoints,
    /// results). Tests swap in `shil_fault::FaultyStorage` to prove the
    /// durability story; production uses [`FsStorage`].
    pub storage: Arc<dyn Storage>,
    /// Consecutive worker crashes before a job is quarantined instead of
    /// requeued. A poison job stops crash-looping the pool after this many
    /// attempts (counted across restarts via the persisted status).
    pub quarantine_after: usize,
    /// Whether `kind: "chaos"` jobs (deliberate worker panic/abort) are
    /// admitted. Off by default; only test harnesses turn this on.
    pub allow_chaos: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: PathBuf::from("shil-serve-data"),
            queue_capacity: 64,
            workers: 2,
            http_threads: 2,
            cache_entries: 64,
            max_body_bytes: 1 << 20,
            drain_grace: Duration::from_secs(5),
            sweep_threads: None,
            storage: FsStorage::shared(),
            quarantine_after: 3,
            allow_chaos: false,
        }
    }
}

/// One job's live state.
struct Job {
    id: u64,
    spec: JobSpec,
    dir: PathBuf,
    cancel: CancelToken,
    user_cancelled: AtomicBool,
    status: Mutex<JobStatus>,
    storage: Arc<dyn Storage>,
}

impl Job {
    fn status(&self) -> MutexGuard<'_, JobStatus> {
        self.status.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Persists the current status atomically; `false` if the write
    /// failed. A persistence failure is counted, not fatal — the in-memory
    /// view stays authoritative while the process lives.
    fn persist_status(&self) -> bool {
        let doc = self.status().to_json();
        let persisted =
            job::write_atomic(&*self.storage, &self.dir.join("status.json"), &doc).is_ok();
        if !persisted {
            shil_observe::incr("shil_serve_status_write_failures_total");
        }
        persisted
    }
}

struct ServerInner {
    config: ServerConfig,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    queue: WorkQueue,
    seq: AtomicU64,
    draining: AtomicBool,
    stop: AtomicBool,
    /// Jobs a worker is running; `idle` is signalled when it drops to 0.
    in_flight: Mutex<usize>,
    idle: Condvar,
    cache: PrecharCache,
}

impl ServerInner {
    fn jobs(&self) -> MutexGuard<'_, BTreeMap<u64, Arc<Job>>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn in_flight(&self) -> MutexGuard<'_, usize> {
        self.in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs().get(&id).cloned()
    }

    fn jobs_root(&self) -> PathBuf {
        self.config.data_dir.join("jobs")
    }

    /// Persists `jb`'s status. Once a terminal status is on disk the job
    /// leaves memory and its directory serves it from then on; a job whose
    /// terminal status could not be persisted stays in memory, which is
    /// then its only correct copy.
    fn persist(&self, jb: &Job) {
        if jb.persist_status() && jb.status().state.is_terminal() {
            self.jobs().remove(&jb.id);
        }
    }

    fn set_state(&self, jb: &Job, state: JobState) {
        jb.status().state = state;
        self.persist(jb);
    }

    /// The persisted status document of job `id` when it is terminal —
    /// the source of truth for a job no longer in memory.
    fn stored_status(&self, id: u64) -> Option<String> {
        let path = self.jobs_root().join(id.to_string()).join("status.json");
        let text = self.config.storage.read(&path).ok()?;
        JobStatus::parse(&text)
            .filter(|st| st.state.is_terminal())
            .map(|_| text)
    }

    /// `/jobs/<id>/results` of a terminal job no longer in memory, read
    /// from its directory exactly as the live job would have served it.
    fn stored_results(&self, id: u64) -> Option<Reply> {
        self.stored_status(id)?;
        let storage = &*self.config.storage;
        let dir = self.jobs_root().join(id.to_string());
        if let Ok(text) = storage.read(&dir.join("results.jsonl")) {
            return Some((200, "application/jsonl", Vec::new(), text));
        }
        let spec = JobSpec::from_json(&storage.read(&dir.join("spec.json")).ok()?).ok()?;
        Some(results(storage, &dir, &spec))
    }

    fn publish_gauges(&self) {
        shil_observe::gauge_set("shil_serve_queue_depth", self.queue.len() as f64);
        let in_flight = *self.in_flight();
        shil_observe::gauge_set("shil_serve_in_flight", in_flight as f64);
        shil_observe::gauge_set("shil_serve_jobs_live", self.jobs().len() as f64);
        shil_observe::gauge_set(
            "shil_serve_draining",
            if self.draining.load(Ordering::Relaxed) {
                1.0
            } else {
                0.0
            },
        );
    }
}

/// A running job service. Dropping the handle does *not* stop the server;
/// call [`Server::shutdown`] (or [`Server::drain`] first for a graceful
/// stop).
pub struct Server {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers persisted jobs, and starts the HTTP and worker
    /// threads.
    ///
    /// # Errors
    ///
    /// Propagates bind and data-directory I/O failures; in particular a
    /// data directory that cannot actually be written (read-only mount,
    /// full disk, bad permissions) fails here, before any job is accepted.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        // A long-running service wants its metrics on; the registry is a
        // process-wide switch that defaults to off for library users.
        shil_observe::set_enabled(true);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        probe_writable(&*config.storage, &config.data_dir.join("jobs"))?;

        let inner = Arc::new(ServerInner {
            queue: WorkQueue::new(config.queue_capacity),
            cache: PrecharCache::bounded(config.cache_entries),
            jobs: Mutex::new(BTreeMap::new()),
            seq: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            in_flight: Mutex::new(0),
            idle: Condvar::new(),
            config,
        });
        recover_jobs(&inner)?;
        inner.publish_gauges();

        // The bound address is persisted so out-of-process clients (tests,
        // the CI smoke job) can find a port-0 server.
        job::write_atomic(
            &*inner.config.storage,
            &inner.config.data_dir.join("addr.txt"),
            &addr.to_string(),
        )?;

        let mut threads = Vec::new();
        for t in 0..inner.config.http_threads.max(1) {
            let inner = Arc::clone(&inner);
            let listener = listener.try_clone()?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("shil-serve-http-{t}"))
                    .spawn(move || http_loop(&inner, &listener))?,
            );
        }
        for t in 0..inner.config.workers {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("shil-serve-worker-{t}"))
                    .spawn(move || worker_loop(&inner))?,
            );
        }
        Ok(Server {
            inner,
            addr,
            threads,
        })
    }

    /// The bound socket address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the server has stopped admitting work.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Relaxed)
    }

    /// Stops admissions, then waits up to `drain_grace` for running jobs
    /// to finish; stragglers are cancelled cooperatively and park back to
    /// `Queued` (checkpoint intact) for the next process to resume.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.publish_gauges();
        let busy = {
            let in_flight = self.inner.in_flight();
            let (in_flight, _) = self
                .inner
                .idle
                .wait_timeout_while(in_flight, self.inner.config.drain_grace, |n| *n > 0)
                .unwrap_or_else(PoisonError::into_inner);
            *in_flight > 0
        };
        if busy {
            for jb in self.inner.jobs().values() {
                if jb.status().state == JobState::Running
                    && !jb.user_cancelled.load(Ordering::SeqCst)
                {
                    jb.cancel.cancel();
                }
            }
        }
    }

    /// Graceful stop: [`Server::drain`], then join every thread. Running
    /// jobs have either finished or been parked back to `Queued` with
    /// their status persisted by the time this returns.
    pub fn shutdown(self) {
        self.drain();
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.queue.wake_all();
        let _wakers = self.wake_acceptors();
        for t in self.threads {
            let _ = t.join();
        }
        self.inner.publish_gauges();
    }

    /// Opens one loopback connection per HTTP thread, so every acceptor
    /// blocked in `accept()` returns, sees `stop`, and exits. The streams
    /// are held until the threads are joined.
    fn wake_acceptors(&self) -> Vec<TcpStream> {
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        (0..self.inner.config.http_threads.max(1))
            .filter_map(|_| TcpStream::connect_timeout(&target, Duration::from_secs(1)).ok())
            .collect()
    }
}

/// Re-registers persisted jobs. Jobs that were `Queued` or `Running` when
/// the previous process died are parked to `Queued` and re-enqueued
/// *past* the admission bound: work admitted once is never shed.
///
/// A job found `Running` counts a worker crash against it (the previous
/// process died mid-job — graceful drains park to `Queued` first, so a
/// `Running` status at recovery always means an ungraceful death). A job
/// that has crashed `quarantine_after` consecutive times lands in the
/// terminal `Quarantined` state instead of re-entering the queue, ending
/// the crash loop.
fn recover_jobs(inner: &Arc<ServerInner>) -> io::Result<()> {
    let storage = &inner.config.storage;
    let mut max_id = 0u64;
    let mut resume: Vec<u64> = Vec::new();
    for dir in storage.list_dir(&inner.jobs_root())? {
        let Some(id) = dir
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        max_id = max_id.max(id);
        let read_text = |name: &str| storage.read(&dir.join(name)).unwrap_or_default();
        let mut status = JobStatus::parse(&read_text("status.json"))
            .unwrap_or_else(|| JobStatus::queued(id, "unknown", 0));
        if status.state.is_terminal() {
            // Finished before the restart: its directory serves it, and
            // its spec is never needed again.
            continue;
        }
        let spec = match JobSpec::from_json(&read_text("spec.json")) {
            Ok(spec) => spec,
            Err(e) => {
                // Unreadable spec: the job can never run again; make that
                // visible rather than silently dropping the directory.
                status.state = JobState::Failed;
                status.error = Some(format!("unrecoverable spec: {e}"));
                let _ = job::write_atomic(&**storage, &dir.join("status.json"), &status.to_json());
                shil_observe::incr("shil_serve_jobs_failed_total");
                continue;
            }
        };
        if status.state == JobState::Running {
            // The previous process died while this job ran: that is one
            // crash on this job's record. `record_crash` either parks it
            // back to `Queued` or quarantines it for good.
            let quarantined = status.record_crash(
                "process died while the job was running (found at restart recovery)".into(),
                inner.config.quarantine_after,
            );
            job::write_atomic(&**storage, &dir.join("status.json"), &status.to_json())?;
            if quarantined {
                shil_observe::incr("shil_serve_jobs_quarantined_total");
                continue;
            }
        } else {
            status.state = JobState::Queued;
            job::write_atomic(&**storage, &dir.join("status.json"), &status.to_json())?;
        }
        let jb = Arc::new(Job {
            id,
            spec,
            dir,
            cancel: CancelToken::new(),
            user_cancelled: AtomicBool::new(false),
            status: Mutex::new(status),
            storage: Arc::clone(storage),
        });
        inner.jobs().insert(id, jb);
        resume.push(id);
        shil_observe::incr("shil_serve_jobs_recovered_total");
    }
    resume.sort_unstable();
    for id in resume {
        inner.queue.force_push(id);
    }
    inner.seq.store(max_id + 1, Ordering::SeqCst);
    Ok(())
}

// ---------------------------------------------------------------------------
// HTTP front-end
// ---------------------------------------------------------------------------

/// Pause after an accept error that retrying cannot clear at once
/// (EMFILE, ENFILE, ENOBUFS), so running out of descriptors cannot spin a
/// core.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// One HTTP thread: blocks in `accept()`, so a request is served the
/// moment it arrives. [`Server::shutdown`] sets `stop` and then connects
/// once per thread; the connection that wakes a thread after `stop` is
/// dropped uncounted.
fn http_loop(inner: &Arc<ServerInner>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let mut stream = match accepted {
            Ok((stream, _)) => stream,
            Err(e) => {
                use io::ErrorKind::{ConnectionAborted, Interrupted};
                if !matches!(e.kind(), Interrupted | ConnectionAborted) {
                    shil_observe::incr("shil_serve_http_accept_errors_total");
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                }
                continue;
            }
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        shil_observe::incr("shil_serve_http_requests_total");
        let (status, content_type, extra, body) =
            match read_request(&mut stream, inner.config.max_body_bytes) {
                ReadOutcome::Request(req) => handle(inner, &req),
                ReadOutcome::BodyTooLarge => (
                    413,
                    "application/json",
                    Vec::new(),
                    format!(
                        "{{\"error\":\"body exceeds {} bytes\"}}",
                        inner.config.max_body_bytes
                    ),
                ),
                ReadOutcome::Malformed => (
                    400,
                    "application/json",
                    Vec::new(),
                    "{\"error\":\"malformed request\"}".into(),
                ),
                ReadOutcome::Disconnected => continue,
            };
        let _ = respond(&mut stream, status, content_type, &extra, body.as_bytes());
    }
}

type Reply = (u16, &'static str, Vec<(&'static str, String)>, String);

fn json_reply(status: u16, body: String) -> Reply {
    (status, "application/json", Vec::new(), body)
}

fn error_reply(status: u16, msg: &str) -> Reply {
    let mut body = String::from("{\"error\":");
    shil_runtime::json::push_str(&mut body, msg);
    body.push('}');
    json_reply(status, body)
}

fn handle(inner: &Arc<ServerInner>, req: &Request) -> Reply {
    let path = req.path.split('?').next().unwrap_or("");
    let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
    match (req.method.as_str(), parts.as_slice()) {
        ("GET", ["healthz"]) => (200, "text/plain", Vec::new(), "ok\n".into()),
        ("GET", ["readyz"]) => {
            if inner.draining.load(Ordering::SeqCst) {
                (503, "text/plain", Vec::new(), "draining\n".into())
            } else {
                (200, "text/plain", Vec::new(), "ready\n".into())
            }
        }
        ("GET", ["metrics"]) => {
            inner.publish_gauges();
            (
                200,
                "text/plain",
                Vec::new(),
                shil_observe::to_prometheus(&shil_observe::snapshot()),
            )
        }
        ("GET", ["jobs"]) => json_reply(200, format!("[{}]", list_jobs(inner).join(","))),
        ("POST", ["jobs"]) => submit(inner, &req.body),
        // A job no longer in memory is terminal; its directory answers.
        ("GET", ["jobs", id]) => match parse_id(id) {
            Some(id) => match inner.job(id) {
                Some(jb) => json_reply(200, jb.status().to_json()),
                None => inner.stored_status(id).map_or_else(
                    || error_reply(404, "no such job"),
                    |doc| json_reply(200, doc),
                ),
            },
            None => error_reply(404, "no such job"),
        },
        ("GET", ["jobs", id, "results"]) => match parse_id(id) {
            Some(id) => match inner.job(id) {
                Some(jb) => results(&*jb.storage, &jb.dir, &jb.spec),
                None => inner
                    .stored_results(id)
                    .unwrap_or_else(|| error_reply(404, "no such job")),
            },
            None => error_reply(404, "no such job"),
        },
        ("POST", ["jobs", id, "cancel"]) => match parse_id(id) {
            Some(id) => match inner.job(id) {
                Some(jb) => cancel(inner, &jb),
                None => inner.stored_status(id).map_or_else(
                    || error_reply(404, "no such job"),
                    |doc| json_reply(409, doc),
                ),
            },
            None => error_reply(404, "no such job"),
        },
        ("POST", ["drain"]) => {
            inner.draining.store(true, Ordering::SeqCst);
            inner.publish_gauges();
            (202, "text/plain", Vec::new(), "draining\n".into())
        }
        ("GET" | "POST", _) => error_reply(404, "no such route"),
        _ => error_reply(405, "method not allowed"),
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}

/// Every job's status document in id order: live jobs from memory, then
/// the terminal statuses of jobs that have left it, from disk.
fn list_jobs(inner: &ServerInner) -> Vec<String> {
    let mut docs: BTreeMap<u64, String> = inner
        .jobs()
        .iter()
        .map(|(&id, jb)| (id, jb.status().to_json()))
        .collect();
    let dirs = inner
        .config
        .storage
        .list_dir(&inner.jobs_root())
        .unwrap_or_default();
    for id in dirs
        .iter()
        .filter_map(|dir| dir.file_name().and_then(|n| n.to_str()).and_then(parse_id))
    {
        if let std::collections::btree_map::Entry::Vacant(slot) = docs.entry(id) {
            if let Some(doc) = inner.stored_status(id) {
                slot.insert(doc);
            }
        }
    }
    docs.into_values().collect()
}

/// A `Retry-After` value in `base..base + spread` seconds. The jitter
/// desynchronises clients that were all shed by the same burst — without
/// it they retry in lockstep and collide again ("thundering herd").
fn jittered_retry_after(base: u64, spread: u64) -> String {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let x = NONCE.fetch_add(1, Ordering::Relaxed) ^ std::process::id() as u64;
    // splitmix64 finalizer: cheap, stateless, uniform enough for jitter.
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (base + z % spread.max(1)).to_string()
}

fn submit(inner: &Arc<ServerInner>, body: &[u8]) -> Reply {
    if inner.draining.load(Ordering::SeqCst) {
        shil_observe::incr("shil_serve_jobs_rejected_total");
        let mut reply = error_reply(503, "server is draining; resubmit elsewhere or later");
        reply.2.push(("Retry-After", jittered_retry_after(5, 5)));
        return reply;
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return error_reply(400, "body is not UTF-8");
    };
    let spec = match JobSpec::from_json(text) {
        Ok(spec) => spec,
        Err(e) => {
            shil_observe::incr("shil_serve_jobs_rejected_total");
            return error_reply(400, &e);
        }
    };
    if matches!(spec.kind, JobKind::Chaos(_)) && !inner.config.allow_chaos {
        shil_observe::incr("shil_serve_jobs_rejected_total");
        return error_reply(
            400,
            "chaos jobs are disabled; start the server with --allow-chaos to admit them",
        );
    }

    let storage = &inner.config.storage;
    let id = inner.seq.fetch_add(1, Ordering::SeqCst);
    let dir = inner.jobs_root().join(id.to_string());
    let status = JobStatus::queued(id, spec.kind.name(), spec.items());
    if storage.create_dir_all(&dir).is_err()
        || job::write_atomic(&**storage, &dir.join("spec.json"), &spec.to_json()).is_err()
        || job::write_atomic(&**storage, &dir.join("status.json"), &status.to_json()).is_err()
    {
        let _ = storage.remove_dir_all(&dir);
        return error_reply(500, "could not persist job");
    }
    let jb = Arc::new(Job {
        id,
        spec,
        dir: dir.clone(),
        cancel: CancelToken::new(),
        user_cancelled: AtomicBool::new(false),
        status: Mutex::new(status),
        storage: Arc::clone(storage),
    });
    inner.jobs().insert(id, Arc::clone(&jb));

    // Admission control: persisted first, pushed second, rolled back on
    // refusal — a 429'd submission leaves no trace in memory or on disk.
    match inner.queue.try_push(id) {
        Ok(_) => {
            shil_observe::incr("shil_serve_jobs_submitted_total");
            inner.publish_gauges();
            json_reply(202, jb.status().to_json())
        }
        Err(full) => {
            inner.jobs().remove(&id);
            let _ = storage.remove_dir_all(&dir);
            shil_observe::incr("shil_serve_jobs_shed_total");
            inner.publish_gauges();
            let mut reply =
                error_reply(429, &format!("queue full ({} jobs waiting)", full.capacity));
            reply.2.push(("Retry-After", jittered_retry_after(1, 4)));
            reply
        }
    }
}

fn results(storage: &dyn Storage, dir: &Path, spec: &JobSpec) -> Reply {
    let read_text = |name: &str| storage.read(&dir.join(name)).ok();
    if let Some(text) = read_text("results.jsonl") {
        return (200, "application/jsonl", Vec::new(), text);
    }
    // No final file yet: stream the completed prefix. An atlas job
    // streams the last finished pass's painted map; item sweeps stream
    // the completed items out of the checkpoint, rendered exactly as
    // they will be in the final file.
    let (x_key, xs): (&str, &[f64]) = match &spec.kind {
        JobKind::Sweep(s) => ("scale", &s.scales),
        JobKind::LockRange(s) => ("vi", &s.vis),
        JobKind::Network(s) => ("strength", &s.strengths),
        JobKind::Chaos(_) => return error_reply(409, "chaos jobs produce no results"),
        JobKind::Atlas(_) => {
            let body = read_text("partial.json").unwrap_or_else(|| "{}".into());
            return (
                200,
                "application/json",
                vec![("X-Shil-Partial", "true".into())],
                body,
            );
        }
    };
    let checkpoint = read_text("checkpoint.jsonl").unwrap_or_default();
    let body = job::partial_lines(x_key, xs, &checkpoint);
    (
        200,
        "application/jsonl",
        vec![("X-Shil-Partial", "true".into())],
        body,
    )
}

fn cancel(inner: &Arc<ServerInner>, jb: &Arc<Job>) -> Reply {
    if jb.status().state.is_terminal() {
        return json_reply(409, jb.status().to_json());
    }
    jb.user_cancelled.store(true, Ordering::SeqCst);
    jb.cancel.cancel();
    // A still-queued job is finalized here; a running one is finalized by
    // its worker when the cancellation lands.
    if inner.queue.remove(jb.id) {
        inner.set_state(jb, JobState::Cancelled);
        shil_observe::incr("shil_serve_jobs_cancelled_total");
        inner.publish_gauges();
    }
    json_reply(200, jb.status().to_json())
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(inner: &Arc<ServerInner>) {
    while !inner.stop.load(Ordering::SeqCst) {
        if inner.draining.load(Ordering::SeqCst) {
            // Queued jobs stay parked (status already `queued` on disk) so
            // the next process picks them up; just wait for stop.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        let Some(id) = inner.queue.pop_timeout(Duration::from_millis(50)) else {
            continue;
        };
        let Some(jb) = inner.job(id) else { continue };
        if jb.user_cancelled.load(Ordering::SeqCst) {
            inner.set_state(&jb, JobState::Cancelled);
            shil_observe::incr("shil_serve_jobs_cancelled_total");
            continue;
        }
        *inner.in_flight() += 1;
        inner.publish_gauges();
        // Item-level panics are isolated inside the sweep engine; this
        // guards the job-level plumbing so a worker thread never dies.
        if let Err(panic_msg) = shil_runtime::isolate(|| run_job(inner, &jb)) {
            crash_job(inner, &jb, format!("job runner panicked: {panic_msg}"));
        }
        {
            let mut in_flight = inner.in_flight();
            *in_flight -= 1;
            if *in_flight == 0 {
                inner.idle.notify_all();
            }
        }
        inner.publish_gauges();
    }
}

/// Books one worker crash against `jb`: the job is requeued for another
/// attempt, or — after `quarantine_after` consecutive crashes — moved to
/// the terminal `Quarantined` state so a poison job cannot crash-loop the
/// pool forever. The crash trail rides along in the persisted status.
fn crash_job(inner: &Arc<ServerInner>, jb: &Arc<Job>, cause: String) {
    let quarantined = jb
        .status()
        .record_crash(cause, inner.config.quarantine_after);
    inner.persist(jb);
    if quarantined {
        shil_observe::incr("shil_serve_jobs_quarantined_total");
    } else {
        shil_observe::incr("shil_serve_jobs_crash_requeued_total");
        // Past the admission bound: a job admitted once is never shed.
        inner.queue.force_push(jb.id);
    }
    inner.publish_gauges();
}

fn run_job(inner: &Arc<ServerInner>, jb: &Arc<Job>) {
    inner.set_state(jb, JobState::Running);

    // Chaos jobs are poison pills for resilience testing: they take the
    // same `Running` path as real work and then kill their worker. The
    // panic mode unwinds into `worker_loop`'s isolation (crash counted,
    // job requeued or quarantined); the abort mode kills the whole
    // process, exercising restart recovery's crash accounting.
    if let JobKind::Chaos(spec) = &jb.spec.kind {
        match spec.mode {
            ChaosMode::Panic => panic!("chaos job {}: deliberate worker panic", jb.id),
            ChaosMode::Abort => {
                eprintln!("chaos job {}: deliberate process abort", jb.id);
                std::process::abort();
            }
        }
    }

    let engine = SweepEngine::new(inner.config.sweep_threads);
    let policy = jb.spec.policy();
    let budget = Budget::unlimited().with_token(jb.cancel.clone());

    if let JobKind::Atlas(spec) = &jb.spec.kind {
        match run_atlas(jb, &engine, &policy, &budget, spec) {
            Ok(map) => finalize_atlas(inner, jb, &map),
            Err(error) => {
                let mut st = jb.status();
                st.state = JobState::Failed;
                st.error = Some(error);
                drop(st);
                inner.persist(jb);
                shil_observe::incr("shil_serve_jobs_failed_total");
            }
        }
        return;
    }

    let outcome: Result<(Vec<f64>, shil_circuit::analysis::PolicySweep<Vec<f64>>), String> =
        match &jb.spec.kind {
            JobKind::Sweep(spec) => match spec.compile() {
                Ok(compiled) => {
                    match CheckpointFile::open_with(
                        &*jb.storage,
                        &jb.dir.join("checkpoint.jsonl"),
                        &compiled.fingerprint(),
                        compiled.len(),
                    ) {
                        Ok(cp) => Ok((
                            spec.scales.clone(),
                            compiled.run(&engine, &policy, &budget, Some(&cp)),
                        )),
                        Err(e) => Err(format!("checkpoint unavailable: {e}")),
                    }
                }
                Err(e) => Err(format!("spec no longer compiles: {e}")),
            },
            JobKind::LockRange(spec) => run_lockrange(inner, jb, &engine, &policy, &budget, spec),
            JobKind::Network(spec) => run_network(jb, &engine, &policy, &budget, spec),
            JobKind::Atlas(_) => unreachable!("atlas jobs are dispatched above"),
            JobKind::Chaos(_) => unreachable!("chaos jobs never return from the dispatch above"),
        };

    match outcome {
        Err(error) => {
            let mut st = jb.status();
            st.state = JobState::Failed;
            st.error = Some(error);
            drop(st);
            inner.persist(jb);
            shil_observe::incr("shil_serve_jobs_failed_total");
        }
        Ok((xs, sweep)) => finalize(inner, jb, &xs, &sweep),
    }
}

fn run_lockrange(
    inner: &Arc<ServerInner>,
    jb: &Arc<Job>,
    engine: &SweepEngine,
    policy: &shil_runtime::SweepPolicy,
    budget: &Budget,
    spec: &crate::job::LockRangeSpec,
) -> Result<(Vec<f64>, shil_circuit::analysis::PolicySweep<Vec<f64>>), String> {
    let tank = ParallelRlc::new(spec.r, spec.l, spec.c).map_err(|e| e.to_string())?;
    let osc = Oscillator::new(NegativeTanh::new(spec.i_sat, spec.gain), tank);
    let mut inputs = vec![
        spec.r,
        spec.l,
        spec.c,
        spec.i_sat,
        spec.gain,
        f64::from(spec.n),
    ];
    inputs.extend_from_slice(&spec.vis);
    let fp = shil_runtime::checkpoint::fingerprint("shil-serve/lockrange", &inputs);
    let cp = CheckpointFile::open_with(
        &*jb.storage,
        &jb.dir.join("checkpoint.jsonl"),
        &fp,
        spec.vis.len(),
    )
    .map_err(|e| format!("checkpoint unavailable: {e}"))?;
    let n = spec.n;
    let cache = &inner.cache;
    let sweep = engine.run_checkpointed(
        &spec.vis,
        policy,
        budget,
        Some(&cp),
        |_, &vi, _| {
            let lock = osc
                .shil_cached(n, vi, cache)
                .and_then(|a| a.lock_range())
                .map_err(|e| CircuitError::InvalidRequest(e.to_string()))?;
            Ok((
                vec![
                    lock.lower_injection_hz,
                    lock.upper_injection_hz,
                    lock.injection_span_hz,
                    lock.amplitude_at_center,
                ],
                SolveReport::new(),
            ))
        },
        |v| encode_final_voltages(v),
        decode_final_voltages,
    );
    Ok((spec.vis.clone(), sweep))
}

/// Runs a coupled-oscillator network job: one transient + network lock
/// classification per coupling strength, checkpointed per item so a
/// crashed or drained job resumes without recomputation.
///
/// Each item's result vector is
/// `[mutual_lock (0/1), locked_fraction, consensus_frequency_hz,
///   locked_pairs]` — fully derived from the deterministic transient, so
/// the byte-identity oracle of `results.jsonl` holds across crash/resume.
fn run_network(
    jb: &Arc<Job>,
    engine: &SweepEngine,
    policy: &shil_runtime::SweepPolicy,
    budget: &Budget,
    spec: &crate::job::NetworkSpecJob,
) -> Result<(Vec<f64>, shil_circuit::analysis::PolicySweep<Vec<f64>>), String> {
    let base = spec.base_spec()?;
    let lock_opts = spec.lock_options();
    let mut inputs = vec![
        base.n as f64,
        spec.settle_periods,
        spec.record_periods,
        spec.points_per_period as f64,
    ];
    inputs.extend_from_slice(&spec.detuning);
    inputs.extend_from_slice(&spec.strengths);
    let fp = shil_runtime::checkpoint::fingerprint(
        &format!("shil-serve/network/{}/{}", spec.topology, spec.coupling),
        &inputs,
    );
    let cp = CheckpointFile::open_with(
        &*jb.storage,
        &jb.dir.join("checkpoint.jsonl"),
        &fp,
        spec.strengths.len(),
    )
    .map_err(|e| format!("checkpoint unavailable: {e}"))?;
    let sweep = engine.run_checkpointed(
        &spec.strengths,
        policy,
        budget,
        Some(&cp),
        |_, &strength, item_budget| {
            let coupling = shil_circuit::network::Coupling::parse(base.coupling.kind(), strength)
                .expect("kind() strings always re-parse");
            let mut point = base.clone();
            point.coupling = coupling;
            let net = point.build()?;
            let opts = net
                .transient_options(
                    spec.settle_periods,
                    spec.record_periods,
                    spec.points_per_period,
                )
                .with_budget(item_budget.clone());
            let result = net.simulate(&opts)?;
            let report = net.probe_lock(&result, &lock_opts)?;
            Ok((
                vec![
                    if report.mutual_lock { 1.0 } else { 0.0 },
                    report.locked_fraction,
                    report.consensus_frequency_hz,
                    report.pairs.iter().filter(|p| p.locked).count() as f64,
                ],
                result.report,
            ))
        },
        |v| encode_final_voltages(v),
        decode_final_voltages,
    );
    Ok((spec.strengths.clone(), sweep))
}

fn run_atlas(
    jb: &Arc<Job>,
    engine: &SweepEngine,
    policy: &shil_runtime::SweepPolicy,
    budget: &Budget,
    spec: &shil_circuit::analysis::AtlasSpec,
) -> Result<AtlasMap, String> {
    let compiled = spec
        .compile()
        .map_err(|e| format!("spec no longer compiles: {e}"))?;
    let cp = CheckpointFile::open_with(
        &*jb.storage,
        &jb.dir.join("checkpoint.jsonl"),
        &compiled.fingerprint(),
        compiled.checkpoint_slots(),
    )
    .map_err(|e| format!("checkpoint unavailable: {e}"))?;
    // Stream each pass's painted map so clients polling `/results` watch
    // the tongue sharpen while the job runs.
    let partial_path = jb.dir.join("partial.json");
    let mut on_pass = |map: &AtlasMap| {
        if job::write_atomic(&*jb.storage, &partial_path, &job::atlas_partial_json(map)).is_err() {
            shil_observe::incr("shil_serve_status_write_failures_total");
        }
    };
    Ok(compiled.run(engine, policy, budget, Some(&cp), Some(&mut on_pass)))
}

/// Atlas twin of [`finalize`]: classifies the finished (or interrupted)
/// map into the job's terminal or re-queued state and persists the
/// deterministic per-pixel results.
fn finalize_atlas(inner: &Arc<ServerInner>, jb: &Arc<Job>, map: &AtlasMap) {
    if jb.cancel.is_cancelled() {
        if jb.user_cancelled.load(Ordering::SeqCst) {
            inner.set_state(jb, JobState::Cancelled);
            shil_observe::incr("shil_serve_jobs_cancelled_total");
        } else {
            // Checkpoint-on-shutdown: simulated cells are on disk; park
            // the job for the next process to resume the remaining passes.
            inner.set_state(jb, JobState::Queued);
            shil_observe::incr("shil_serve_jobs_requeued_total");
        }
        return;
    }
    let lines = job::atlas_result_lines(map);
    if let Err(e) = job::write_atomic(&*jb.storage, &jb.dir.join("results.jsonl"), &lines) {
        let mut st = jb.status();
        st.state = JobState::Failed;
        st.error = Some(format!("could not persist results: {e}"));
        drop(st);
        inner.persist(jb);
        shil_observe::incr("shil_serve_jobs_failed_total");
        return;
    }
    let mut st = jb.status();
    st.state = JobState::Done;
    st.ok = map.stats.items_simulated;
    st.worst = Some(if map.cancelled {
        shil_runtime::ItemOutcome::Cancelled
    } else if map.stats.errors > 0 {
        shil_runtime::ItemOutcome::Failed
    } else {
        shil_runtime::ItemOutcome::Ok
    });
    st.restored = map.stats.restored;
    drop(st);
    inner.persist(jb);
    shil_observe::incr("shil_serve_jobs_completed_total");
}

/// Classifies a finished sweep into the job's terminal (or re-queued)
/// state and persists results.
fn finalize(
    inner: &Arc<ServerInner>,
    jb: &Arc<Job>,
    xs: &[f64],
    sweep: &shil_circuit::analysis::PolicySweep<Vec<f64>>,
) {
    // The job's own cancel token fires for exactly two reasons: a client
    // cancel, or a drain that ran out of grace. Everything else (deadline,
    // per-item outcomes) is a regular completion.
    if jb.cancel.is_cancelled() {
        if jb.user_cancelled.load(Ordering::SeqCst) {
            inner.set_state(jb, JobState::Cancelled);
            shil_observe::incr("shil_serve_jobs_cancelled_total");
        } else {
            // Checkpoint-on-shutdown: completed items are on disk; park the
            // job for the next process to resume.
            inner.set_state(jb, JobState::Queued);
            shil_observe::incr("shil_serve_jobs_requeued_total");
        }
        return;
    }
    let lines = job::result_lines(
        match &jb.spec.kind {
            JobKind::Sweep(_) => "scale",
            JobKind::LockRange(_) => "vi",
            JobKind::Network(_) => "strength",
            JobKind::Atlas(_) => unreachable!("atlas jobs use finalize_atlas"),
            JobKind::Chaos(_) => unreachable!("chaos jobs never finalize"),
        },
        xs,
        sweep,
    );
    if let Err(e) = job::write_atomic(&*jb.storage, &jb.dir.join("results.jsonl"), &lines) {
        let mut st = jb.status();
        st.state = JobState::Failed;
        st.error = Some(format!("could not persist results: {e}"));
        drop(st);
        inner.persist(jb);
        shil_observe::incr("shil_serve_jobs_failed_total");
        return;
    }
    let mut st = jb.status();
    st.state = JobState::Done;
    st.ok = sweep.ok_count();
    st.worst = Some(shil_runtime::ItemOutcome::worst(
        sweep.items.iter().map(|i| i.outcome),
    ));
    st.restored = sweep.items.iter().filter(|i| i.restored).count();
    drop(st);
    inner.persist(jb);
    shil_observe::incr("shil_serve_jobs_completed_total");
}
