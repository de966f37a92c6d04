//! The `serve_jobs` workload: an in-process `sk-serve` server driven in a
//! closed loop by one client connection, the way a sweep script waits for
//! each report before it sends the next request. One client, because on a
//! 2-CPU host a second concurrent job (five more threads) makes latency a
//! measure of oversubscription luck: measured run-to-run spread was
//! 8–11 % with two clients and 4–8 % with one, where latency is service
//! time. Jobs run on the threaded engine, so times are host time (see
//! `calib`), and a job that misses the gate is submitted once more before
//! it counts as failed (see `serve_job`).
//!
//! Three of every four jobs repeat one of eight fixed specs (warm: fork
//! the cached snapshot, run, report); the fourth posts a scenario whose
//! name was never seen, so its cache key is new (cold: CC probe to the
//! region of interest, snapshot, fork, run). A cold share of a quarter
//! keeps `job_p50_ms` inside the warm path and `job_p90_ms` inside the
//! cold path, neither on the boundary. Cold jobs differ only in name, so
//! their cost does not depend on which seed drew them.

use crate::cells::{Backend, Cell};
use crate::layers;
use crate::metrics::Outcome;
use crate::sim::{fingerprinted, fnv1a64, FNV_OFFSET, SETUPS};
use crate::span::Recorder;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::Opts;
use sk_core::{DetEngine, Engine, Scheme};
use sk_serve::job::JobSpec;
use sk_serve::json::{self, Json};
use sk_serve::{Client, Server, ServerConfig};
use std::time::{Duration, Instant};

const TENANT: &str = "bench";
/// One job in `COLD_EVERY` is cold.
const COLD_EVERY: usize = 4;
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// The repeat-key pool. Test-scale kernels on 2–4 cores: the paper
/// kernels under slack, and two zero-slack specs whose fingerprints the
/// gate compares bit for bit.
const POOL: [&str; 8] = [
    r#"{"bench":"FFT","cores":4,"schemes":["S10"]}"#,
    r#"{"bench":"LU","cores":4,"schemes":["S10","S100"]}"#,
    r#"{"bench":"Radix","cores":2,"schemes":["S10"]}"#,
    r#"{"bench":"Ocean","cores":4,"schemes":["S100"]}"#,
    r#"{"bench":"pipeline","cores":4,"schemes":["CC"]}"#,
    r#"{"bench":"treiber_stack","cores":2,"schemes":["CC","S10"]}"#,
    r#"{"bench":"Water-Nsquared","cores":4,"schemes":["S10"]}"#,
    r#"{"bench":"lock_sweep","cores":2,"schemes":["S10*"]}"#,
];

/// The request body of a cold job: a scenario identical to every other
/// cold job's but for its name, which joins the snapshot cache key.
fn cold_body(name: &str) -> String {
    let skn = format!(
        "[scenario]\nname = \"{name}\"\n[target]\ncores = 4\nmodel = \"inorder\"\n\
         [run]\nscheme = \"S10\"\n[kernel]\nname = \"FFT\"\nlog2 = 6\n"
    );
    format!("{{\"scenario\":\"{}\"}}", json::escape(&skn))
}

/// What the in-process reference run of a request body says its reports
/// must contain.
struct Reference {
    /// Committed target instructions of one run; the same under every
    /// scheme, since contended sync queues at the manager and never spins.
    committed: u64,
    /// `SchemeResult.fingerprint` of a zero-slack run.
    cc_fingerprint: String,
}

fn spec_of(body: &str) -> JobSpec {
    let doc = json::parse(body).expect("benchmark request bodies are valid json");
    JobSpec::from_json(&doc, TENANT).expect("benchmark request bodies are valid specs")
}

fn reference(body: &str, seed: u64) -> Reference {
    let spec = spec_of(body);
    let kernel = spec.workload().expect("spec validated its benchmark");
    let mut det = DetEngine::new(&kernel.program, Scheme::CycleByCycle, &spec.config(), seed);
    det.run();
    let report = det.into_report();
    Reference {
        committed: report.total_committed(),
        cc_fingerprint: format!("{:016x}", fnv1a64(FNV_OFFSET, report.fingerprint().as_bytes())),
    }
}

/// One scheme's entry in a job's status document.
pub struct SchemeOutcome {
    zero_slack: bool,
    exec_cycles: u64,
    fingerprint: String,
    output_ok: bool,
    cache_hit: bool,
    wall_ms: u64,
}

pub enum JobEnd {
    Done(Vec<SchemeOutcome>),
    /// 429: queue full or tenant over quota.
    Shed,
    Failed(String),
}

/// One job as its client saw it.
pub struct JobRecord {
    /// Index into [`POOL`], or `None` for a cold job.
    pool: Option<usize>,
    submit_start: Instant,
    submit_end: Instant,
    done: Instant,
    end: JobEnd,
    /// The job missed the gate once and this is its second submission;
    /// `submit_start` is the first one's, so the retry costs latency.
    retried: bool,
}

impl JobRecord {
    /// `POST /jobs` sent to terminal status fetched.
    fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.submit_start).as_secs_f64() * 1e3
    }

    fn results(&self) -> &[SchemeOutcome] {
        match &self.end {
            JobEnd::Done(r) => r,
            _ => &[],
        }
    }

    fn cache_hit(&self) -> bool {
        self.results().first().is_some_and(|r| r.cache_hit)
    }
}

fn parse_results(doc: &Json) -> Result<Vec<SchemeOutcome>, String> {
    if doc.get("state").and_then(Json::as_str) != Some("done") {
        return Err(format!("job ended {:?}", doc.get("state")));
    }
    let results = doc.get("results").and_then(Json::as_arr).ok_or("no results array")?;
    results
        .iter()
        .map(|r| {
            let int = |k: &str| r.get(k).and_then(Json::as_i64).ok_or(format!("no {k}"));
            let flag = |k: &str| r.get(k).and_then(Json::as_bool).ok_or(format!("no {k}"));
            Ok(SchemeOutcome {
                zero_slack: flag("deterministic")?,
                exec_cycles: int("exec_cycles")? as u64,
                fingerprint: r.get("fingerprint").and_then(Json::as_str).unwrap_or("").to_string(),
                output_ok: flag("output_ok")?,
                cache_hit: flag("cache_hit")?,
                wall_ms: int("wall_ms")? as u64,
            })
        })
        .collect()
}

/// Submit one job and wait for its terminal status.
fn submit_and_wait(client: &mut Client, body: &str, pool: Option<usize>) -> JobRecord {
    let submit_start = Instant::now();
    let posted = client.post_job(body, TENANT);
    let submit_end = Instant::now();
    let end = match posted {
        Err(e) => JobEnd::Failed(format!("POST /jobs: {e}")),
        Ok(resp) if resp.status == 429 => JobEnd::Shed,
        Ok(resp) if resp.status != 202 => JobEnd::Failed(format!("POST /jobs: {}", resp.status)),
        Ok(resp) => match resp.json().ok().and_then(|d| d.get("job").and_then(Json::as_i64)) {
            None => JobEnd::Failed("202 without a job id".into()),
            Some(id) => match client.wait_job(id as u64, JOB_DEADLINE) {
                Err(e) => JobEnd::Failed(format!("job {id}: {e}")),
                Ok(doc) => parse_results(&doc).map_or_else(JobEnd::Failed, JobEnd::Done),
            },
        },
    };
    JobRecord { pool, submit_start, submit_end, done: Instant::now(), end, retried: false }
}

/// Why a job misses the gate, if it does. It passes if it completed,
/// every report's output is right, and every zero-slack report is
/// bit-identical to the in-process reference — cold or warm, so
/// warm ≡ cold follows.
fn miss(job: &JobRecord, reference: &Reference) -> Option<String> {
    match &job.end {
        JobEnd::Done(results) => results
            .iter()
            .find(|r| !r.output_ok || (r.zero_slack && r.fingerprint != reference.cc_fingerprint))
            .map(|r| {
                format!(
                    "job (pool {:?}): output_ok {}, fingerprint {} against reference {}",
                    job.pool, r.output_ok, r.fingerprint, reference.cc_fingerprint
                )
            }),
        JobEnd::Shed => Some("job shed with 429".into()),
        JobEnd::Failed(why) => Some(format!("job failed: {why}")),
    }
}

/// Run one job the way the sweep scripts this client stands for do:
/// submit, wait, and if the job was refused, failed or came back wrong,
/// submit it once more. The record spans both submissions. Jobs run on
/// OS threads on a shared host: a simulator defect misses twice and is a
/// failed operation, a host hiccup is a retried one (`Outcome::retry`).
fn serve_job(
    client: &mut Client,
    body: &str,
    pool: Option<usize>,
    reference: &Reference,
    out: &mut Outcome,
) -> JobRecord {
    let first = submit_and_wait(client, body, pool);
    let Some(why) = miss(&first, reference) else {
        out.check(true, String::new);
        return first;
    };
    out.retry(|| why);
    let second = submit_and_wait(client, body, pool);
    let again = miss(&second, reference);
    out.check(again.is_none(), || again.unwrap_or_default());
    JobRecord {
        submit_start: first.submit_start,
        submit_end: first.submit_end,
        retried: true,
        ..second
    }
}

/// A started server with its pool warm, and what its reports must say.
struct Service {
    server: Server,
    pool_refs: Vec<Reference>,
    cold_ref: Reference,
}

/// Start the server and run every pool spec once: the cache holds all
/// eight snapshots before the first timed job.
fn set_up(seed: u64, out: &mut Outcome) -> Service {
    let server = Server::start(ServerConfig::default()).expect("bind a loopback port");
    let pool_refs: Vec<Reference> = POOL.iter().map(|body| reference(body, seed)).collect();
    let cold_ref = reference(&cold_body("reference"), seed);
    let mut client = Client::new(server.addr());
    for (i, body) in POOL.iter().enumerate() {
        let job = serve_job(&mut client, body, Some(i), &pool_refs[i], out);
        out.check(job.retried || !job.cache_hit(), || {
            format!("pre-warm job {i} found a warm cache")
        });
    }
    Service { server, pool_refs, cold_ref }
}

/// SplitMix64: the benchmark's only randomness (which job comes next).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The k-th job of the stream for `seed`: `(body, pool index)`. Every
/// block of `COLD_EVERY` jobs holds exactly one cold job at a seeded
/// position; warm jobs draw their spec uniformly.
fn job_at(seed: u64, k: usize) -> (String, Option<usize>) {
    let block = (k / COLD_EVERY) as u64;
    let cold_slot = Rng(seed ^ block.wrapping_mul(0xa076_1d64_78bd_642f)).below(COLD_EVERY);
    if k % COLD_EVERY == cold_slot {
        (cold_body(&format!("cold-{seed}-{k}")), None)
    } else {
        let i = Rng(seed.wrapping_add(k as u64)).below(POOL.len());
        (POOL[i].to_string(), Some(i))
    }
}

/// Drive the seeded job stream, one job at a time, until `seconds` have
/// passed, checking every job as it completes.
fn drive(service: &Service, seed: u64, seconds: f64, out: &mut Outcome) -> Vec<JobRecord> {
    let mut client = Client::new(service.server.addr());
    let mut jobs = Vec::new();
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < seconds {
        let (body, pool) = job_at(seed, jobs.len());
        let reference = pool.map_or(&service.cold_ref, |i| &service.pool_refs[i]);
        jobs.push(serve_job(&mut client, &body, pool, reference, out));
    }
    jobs
}

fn latencies(jobs: &[JobRecord]) -> Vec<f64> {
    jobs.iter().map(JobRecord::latency_ms).collect()
}

/// The end-to-end run.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut service = None::<Service>;
    for _ in 0..SETUPS {
        if let Some(old) = service.take() {
            old.server.shutdown();
        }
        let t0 = Instant::now();
        service = Some(set_up(opts.seed, &mut out));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut service = service.expect("SETUPS is at least one");
    if opts.perturb {
        service.pool_refs[4].cc_fingerprint.push('!');
    }

    let jobs = drive(&service, opts.seed, opts.seconds, &mut out);
    let shed = service.server.obs().jobs_shed.get() + service.server.obs().quota_rejections.get();
    service.server.shutdown();

    let (mut committed, mut cycles) = (0u64, 0u64);
    for job in &jobs {
        let reference = job.pool.map_or(&service.cold_ref, |i| &service.pool_refs[i]);
        committed += reference.committed * job.results().len() as u64;
        cycles += job.results().iter().map(|r| r.exec_cycles).sum::<u64>();
    }
    let lat = latencies(&jobs);
    // With one closed-loop client the time jobs took is the time served.
    let served_s = lat.iter().sum::<f64>() / 1e3;
    let v = &mut out.values;
    v.set("kips", committed as f64 / 1e3 / served_s);
    v.set("host_ns_per_cycle", served_s * 1e9 / cycles as f64);
    v.set("job_p50_ms", median(&lat));
    v.set("job_p90_ms", percentile(&lat, 90.0));
    v.set("jobs_per_s", jobs.len() as f64 / served_s);
    v.set("peak_rss_mb", crate::peak_rss_mb());
    v.set("setup_s", median(&setups));
    out.notes.push(format!(
        "{} jobs ({} cold, {} retried) from one closed-loop client, {shed} shed; highest \
         percentile with 10 samples beyond: {:?}",
        jobs.len(),
        jobs.iter().filter(|j| j.pool.is_none()).count(),
        jobs.iter().filter(|j| j.retried).count(),
        highest_supported_percentile(jobs.len())
    ));
    out
}

/// Replay in-process, span by span, the public calls `run_job` makes for
/// one request body: parse, then (cold path) CC probe to the region of
/// interest and snapshot, then (both paths) fork, run, report.
fn replay(rec: &mut Recorder, group: u64, body: &str, out: &mut Outcome) -> usize {
    let top = rec.open("replay", None, group);
    let (spec, _) = rec.time("spec_parse", Some(top), group, || spec_of(body));
    let (kernel, _) =
        rec.time("workload", Some(top), group, || spec.workload().expect("validated at parse"));
    let cfg = spec.config();

    let probe = rec.open("probe", Some(top), group);
    let (mut engine, _) = rec.time("engine.build", Some(probe), group, || {
        Engine::new(&kernel.program, Scheme::CycleByCycle, &cfg)
    });
    let mut target = 1u64 << 10;
    rec.time("probe.run", Some(probe), group, || {
        while !engine.is_finished() {
            engine.run_until(Some(target));
            if engine.roi_started() {
                break;
            }
            target *= 2;
        }
    });
    let (snapshot, _) = rec.time("snapshot", Some(probe), group, || engine.snapshot());
    rec.close(probe);
    let Ok(bytes) = snapshot else {
        // `run_job` runs such a job uncached; nothing is left to replay.
        out.notes.push(format!("replay of {body}: the probe safe-point refused a snapshot"));
        rec.close(top);
        return 0;
    };

    // Same-scheme resume is the snapshot layer's own cost; the fork onto
    // the job's scheme is what a served job pays.
    let (resumed, _) = rec.time("resume", Some(top), group, || Engine::resume(&bytes, None));
    drop(resumed);
    for &scheme in &spec.schemes {
        let (forked, _) =
            rec.time("fork", Some(top), group, || Engine::resume(&bytes, Some(scheme)));
        let Ok(mut forked) = forked else {
            out.check(false, || format!("replay of {body}: fork failed"));
            continue;
        };
        rec.time("run", Some(top), group, || forked.run_until(None));
        let (report, _) =
            rec.time("engine.report", Some(top), group, || fingerprinted(forked.into_report()));
        let printed = report.printed().into_iter().map(|(_, v)| v);
        out.check(printed.eq(kernel.expected.iter().copied()), || {
            format!("replay of {body} under {}: wrong output", report.scheme)
        });
    }
    rec.close(top);
    bytes.len()
}

/// The traced run: the same job stream with client-side spans, the
/// in-process replay, and the backend ladder over the pool's cells.
pub fn run_traced(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    let service = set_up(opts.seed, &mut out);
    let jobs = drive(&service, opts.seed, opts.seconds / 2.0, &mut out);
    let obs = service.server.obs();
    let shed = obs.jobs_shed.get() + obs.quota_rejections.get();
    service.server.shutdown();

    for (k, job) in jobs.iter().enumerate() {
        let group = k as u64;
        let top = rec.push("job", None, group, job.submit_start, job.done);
        rec.push("submit", Some(top), group, job.submit_start, job.submit_end);
        rec.push("wait", Some(top), group, job.submit_end, job.done);
    }
    let lat = latencies(&jobs);
    let of = |cold: bool| -> Vec<f64> {
        jobs.iter().filter(|j| j.pool.is_none() == cold).map(JobRecord::latency_ms).collect()
    };
    // The job whose latency is the reported percentile: was it warm?
    let hit_at = |p: f64| -> f64 {
        let at = percentile(&lat, p);
        let job = jobs.iter().find(|j| j.latency_ms() == at).expect("percentile is a sample");
        f64::from(u8::from(job.cache_hit()))
    };
    let non_run: Vec<f64> = jobs
        .iter()
        .map(|j| j.latency_ms() - j.results().iter().map(|r| r.wall_ms as f64).sum::<f64>())
        .collect();
    let hits = jobs.iter().filter(|j| j.cache_hit()).count();
    let v = &mut out.values;
    v.set("serve.submit_ms", median(&rec.durations("submit")) / 1e6);
    v.set("serve.non_run_ms", median(&non_run));
    v.set("serve.cache_hit_rate", hits as f64 / jobs.len() as f64);
    v.set("serve.warm_speedup", median(&of(true)) / median(&of(false)));
    v.set("serve.shed_429", shed as f64);
    v.set("serve.retried", jobs.iter().filter(|j| j.retried).count() as f64);
    v.set("serve.p50_cache_hit", hit_at(50.0));
    v.set("serve.p90_cache_hit", hit_at(90.0));

    let mut snap_bytes = Vec::new();
    let cold = cold_body("replay");
    for (i, body) in POOL.iter().copied().chain([cold.as_str()]).enumerate() {
        snap_bytes.push(replay(&mut rec, (jobs.len() + i) as u64, body, &mut out) as f64);
    }
    let ms = |name: &str| median(&rec.durations(name)) / 1e6;
    let v = &mut out.values;
    v.set("serve.spec_parse_us", median(&rec.durations("spec_parse")) / 1e3);
    v.set("serve.probe_ms", ms("probe"));
    v.set("serve.fork_ms", ms("fork"));
    v.set("serve.run_ms", ms("run"));
    v.set("snap.snapshot_ms", ms("snapshot"));
    v.set("snap.resume_ms", ms("resume"));
    snap_bytes.retain(|&b| b > 0.0);
    v.set("snap.bytes", median(&snap_bytes));
    let (build_ms, report_ms) = (ms("engine.build"), ms("engine.report"));

    // Where a job's run time goes: the pool's cells up the backend ladder.
    let cells: Vec<Cell> = POOL
        .iter()
        .map(|body| {
            let spec = spec_of(body);
            let kernel = spec.workload().expect("validated at parse");
            Cell::new(kernel, spec.schemes[0], spec.config(), Backend::Threads)
        })
        .collect();
    let half = Opts { seconds: opts.seconds / 2.0, ..*opts };
    layers::ladder_pass(&cells, &half, &mut rec, &mut out);
    // The replay's engines are the ones a served job builds and reports.
    out.values.set("engine.build_ms", build_ms);
    out.values.set("engine.report_ms", report_ms);

    let per_spec: Vec<String> = (0..POOL.len())
        .map(|i| {
            let of_spec: Vec<f64> =
                jobs.iter().filter(|j| j.pool == Some(i)).map(JobRecord::latency_ms).collect();
            format!("{:.1}", median(&of_spec))
        })
        .collect();
    out.notes.push(format!(
        "{} traced jobs, {} replays; median latency ms: cold {:.1}, warm by pool spec [{}]",
        jobs.len(),
        POOL.len() + 1,
        median(&of(true)),
        per_spec.join(", ")
    ));
    crate::write_trace("serve_jobs", &rec, &mut out);
    out
}
