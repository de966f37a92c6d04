//! The job server: TCP accept loop, HTTP routing, worker pool, job
//! registry, and graceful shutdown.
//!
//! Threading model: one accept thread spawns a detached handler thread
//! per connection (keep-alive, bounded by read timeouts), and a fixed
//! pool of simulation workers drains the priority queue, each running
//! one job at a time on its own thread (the det scheduler, see
//! [`crate::worker`]). All shared state lives in one `Arc` — queue,
//! result memo, telemetry, job registry.
//!
//! `GET /jobs/<id>?wait_ms=N` is a long-poll: the handler blocks on the
//! job's condvar until the job is terminal or `min(N, MAX_WAIT_MS)` ms
//! pass, then answers with the status document as it stands.
//!
//! Overload behaviour is the point, not an afterthought: a full queue or
//! an over-quota tenant gets `429` with `Retry-After`, the server stays
//! live, and every shed is counted in the `sk-serve-metrics` dump.

use crate::cache::ResultCache;
use crate::http::{read_request, write_response, HttpError, Request};
use crate::job::{Job, JobSpec, JobState};
use crate::queue::{Admission, JobQueue};
use crate::worker::{finish, run_job};
use sk_obs::json::{self, Json};
use sk_obs::ServeObs;
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest a `GET /jobs/<id>?wait_ms=` request blocks, in ms. Below the
/// client's 30 s socket read timeout, so a capped wait always answers.
pub const MAX_WAIT_MS: u64 = 10_000;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Queue slots; admissions beyond this shed with 429.
    pub queue_capacity: usize,
    /// Max in-flight (queued + running) jobs per tenant.
    pub tenant_quota: usize,
    /// Result memo entries, one per (program/config key, scheme) result.
    pub cache_entries: usize,
    /// Terminal jobs retained for status queries before eviction.
    pub retain_jobs: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 32,
            tenant_quota: 8,
            cache_entries: 1024,
            retain_jobs: 4096,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// State shared by every connection handler and worker.
struct Shared {
    queue: JobQueue,
    cache: ResultCache,
    obs: ServeObs,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// Terminal job ids in completion order, for bounded retention.
    done: Mutex<VecDeque<u64>>,
    next_id: AtomicU64,
    shutting_down: AtomicBool,
    retain_jobs: usize,
}

impl Shared {
    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap().get(&id).cloned()
    }

    /// Record a terminal job and evict the oldest terminal jobs beyond
    /// the retention bound so the registry cannot grow without limit.
    fn retire(&self, id: u64) {
        let mut done = self.done.lock().unwrap();
        done.push_back(id);
        while done.len() > self.retain_jobs {
            if let Some(old) = done.pop_front() {
                self.jobs.lock().unwrap().remove(&old);
            }
        }
    }
}

/// A running server. Dropping the handle does NOT stop it; call
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the pool, and start accepting.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_capacity, cfg.tenant_quota),
            cache: ResultCache::new(cfg.cache_entries),
            obs: ServeObs::new(),
            jobs: Mutex::new(HashMap::new()),
            done: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            retain_jobs: cfg.retain_jobs.max(1),
        });

        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sk-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = shared.clone();
            let timeout = cfg.read_timeout;
            std::thread::Builder::new()
                .name("sk-serve-accept".into())
                .spawn(move || accept_loop(listener, shared, timeout))
                .expect("spawn accept loop")
        };

        Ok(Server { addr, shared, accept: Some(accept), workers })
    }

    /// The bound address (real port even when configured with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-wide telemetry (the same hub `GET /metrics` dumps).
    pub fn obs(&self) -> &ServeObs {
        &self.shared.obs
    }

    /// Block until the server is shut down remotely (`POST /shutdown`),
    /// then join every thread. The foreground-process counterpart of
    /// [`Server::shutdown`].
    pub fn wait(mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Stop admitting, drain queued jobs, and join every thread.
    pub fn shutdown(mut self) {
        begin_shutdown(&self.shared, self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Flip the flag, close the queue, and poke the accept loop awake.
fn begin_shutdown(shared: &Shared, addr: SocketAddr) {
    if shared.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue.close();
    // accept() has no timeout; a throwaway connection unblocks it so it
    // can observe the flag.
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, timeout: Duration) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                let _ = stream.set_read_timeout(Some(timeout));
                // Responses are small; without this, Nagle + delayed ACK
                // costs ~40ms per request on loopback.
                let _ = stream.set_nodelay(true);
                let shared = shared.clone();
                let _ = std::thread::Builder::new()
                    .name("sk-serve-conn".into())
                    .spawn(move || handle_connection(stream, &shared));
            }
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        let Some(job) = shared.job(id) else { continue };
        // A panicking simulation must not take the worker down with it.
        let state = catch_unwind(AssertUnwindSafe(|| run_job(&job, &shared.cache, &shared.obs)))
            .unwrap_or_else(|_| JobState::Failed("panic during simulation".into()));
        // The memo owns the eviction count; the dump mirrors it (raise_to:
        // workers race here and the max is the truth).
        shared.obs.cache_evictions.raise_to(shared.cache.evictions());
        // Free the tenant's slot before the terminal state wakes its
        // client, which may submit again at once.
        shared.queue.release(&job.spec.tenant);
        finish(&job, &shared.obs, state);
        shared.retire(id);
    }
}

/// Keep-alive request loop for one connection.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(HttpError::Io(_)) => return,
            Err(HttpError::Malformed(what)) => {
                shared.obs.bad_requests.inc();
                let _ = respond_error(&mut write_half, 400, "Bad Request", &what);
                return;
            }
            Err(e @ HttpError::TooLarge(_)) => {
                shared.obs.bad_requests.inc();
                let _ = respond_error(&mut write_half, 413, "Payload Too Large", &e.to_string());
                return;
            }
        };
        let close = req.wants_close();
        if route(&mut write_half, &req, shared).is_err() || close {
            return;
        }
    }
}

fn respond(
    w: &mut TcpStream,
    status: u16,
    reason: &str,
    headers: &[(&str, &str)],
    body: Json,
) -> std::io::Result<()> {
    write_response(w, status, reason, headers, body.to_string().as_bytes())
}

fn respond_error(w: &mut TcpStream, status: u16, reason: &str, what: &str) -> std::io::Result<()> {
    respond(w, status, reason, &[], Json::obj([("error", what)]))
}

fn route(w: &mut TcpStream, req: &Request, shared: &Shared) -> std::io::Result<()> {
    let path: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), path.as_slice()) {
        ("POST", ["jobs"]) => post_job(w, req, shared),
        ("GET", ["jobs", id]) => match wait_ms(&req.query) {
            Ok(wait) => with_job(w, shared, id, |w, job| {
                if wait > 0 {
                    job.wait_terminal(Duration::from_millis(wait.min(MAX_WAIT_MS)));
                }
                write_response(w, 200, "OK", &[], job.to_json().as_bytes())
            }),
            Err(why) => {
                shared.obs.bad_requests.inc();
                respond_error(w, 400, "Bad Request", why)
            }
        },
        ("GET", ["jobs", id, "metrics"]) => with_job(w, shared, id, |w, job| {
            let dumps = job.metrics_dumps().into_iter().map(|(scheme, dump)| {
                Json::obj([("scheme", Json::from(scheme)), ("metrics", dump)])
            });
            respond(
                w,
                200,
                "OK",
                &[],
                Json::obj([("job", Json::from(job.id)), ("dumps", dumps.collect())]),
            )
        }),
        ("DELETE", ["jobs", id]) => with_job(w, shared, id, |w, job| {
            job.request_cancel();
            let body =
                Json::obj([("job", Json::from(job.id)), ("state", job.state().name().into())]);
            respond(w, 202, "Accepted", &[], body)
        }),
        ("GET", ["metrics"]) => write_response(w, 200, "OK", &[], shared.obs.to_json().as_bytes()),
        ("GET", ["healthz"]) => respond(w, 200, "OK", &[], Json::obj([("ok", true)])),
        ("GET", ["benches"]) => {
            let names = sk_kernels::KERNELS.iter().map(|k| k.name);
            respond(w, 200, "OK", &[], Json::obj([("benches", Json::from_iter(names))]))
        }
        ("POST", ["shutdown"]) => {
            respond(w, 200, "OK", &[], Json::obj([("ok", true)]))?;
            // Reply first: the initiator sees the ack before accept dies.
            if let Ok(addr) = w.local_addr() {
                begin_shutdown(shared, addr);
            }
            Ok(())
        }
        _ => respond_error(w, 404, "Not Found", "no such endpoint"),
    }
}

/// The `wait_ms` query parameter of a status request; 0 when absent.
fn wait_ms(query: &str) -> Result<u64, &'static str> {
    match query.split('&').find_map(|kv| kv.strip_prefix("wait_ms=")) {
        None => Ok(0),
        Some(v) => v.parse().map_err(|_| "wait_ms must be a non-negative integer"),
    }
}

fn with_job(
    w: &mut TcpStream,
    shared: &Shared,
    id: &str,
    f: impl FnOnce(&mut TcpStream, &Job) -> std::io::Result<()>,
) -> std::io::Result<()> {
    match id.parse::<u64>().ok().and_then(|id| shared.job(id)) {
        Some(job) => f(w, &job),
        None => respond_error(w, 404, "Not Found", "no such job"),
    }
}

fn post_job(w: &mut TcpStream, req: &Request, shared: &Shared) -> std::io::Result<()> {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return respond_error(w, 503, "Service Unavailable", "shutting down");
    }
    let tenant = req.header("x-tenant").unwrap_or("default").to_string();
    let spec = std::str::from_utf8(&req.body)
        .map_err(|_| "body is not utf-8".to_string())
        .and_then(|text| json::parse(text).map_err(|e| e.to_string()))
        .and_then(|v| JobSpec::from_json(&v, &tenant).map_err(|e| e.to_string()));
    let spec = match spec {
        Ok(spec) => spec,
        Err(why) => {
            shared.obs.bad_requests.inc();
            return respond_error(w, 400, "Bad Request", &why);
        }
    };

    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job::new(id, spec));
    shared.jobs.lock().unwrap().insert(id, job.clone());
    let (admission, depth) = shared.queue.push(id, &job.spec.tenant, job.spec.priority);
    match admission {
        Admission::Enqueued => {
            shared.obs.jobs_submitted.inc();
            shared.obs.queue_depth.record(depth as u64);
            respond(w, 202, "Accepted", &[], Json::obj([("job", id)]))
        }
        Admission::QueueFull | Admission::QuotaExceeded => {
            shared.jobs.lock().unwrap().remove(&id);
            let (counter, why) = match admission {
                Admission::QueueFull => (&shared.obs.jobs_shed, "queue full"),
                _ => (&shared.obs.quota_rejections, "tenant quota exceeded"),
            };
            counter.inc();
            respond(
                w,
                429,
                "Too Many Requests",
                &[("Retry-After", "1")],
                Json::obj([("error", why)]),
            )
        }
    }
}
