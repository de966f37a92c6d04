//! Job model: the request spec, its validation, workload lookup, cache
//! keying, and the shared per-job record.
//!
//! Validation is front-loaded: a [`JobSpec`] is only constructed from a
//! request body if the benchmark exists, every scheme parses, and the
//! derived [`TargetConfig`] passes [`TargetConfig::validate`]. Anything
//! wrong is a typed [`SpecError`] → HTTP 400 at admission, so workers
//! never fail on malformed input — worker-side `Failed` is reserved for
//! genuine simulation faults.

use crate::cache::MemoKey;
use sk_core::{CoreModel, Scheme, TargetConfig};
use sk_isa::Program;
use sk_kernels::{Scale, Workload};
use sk_obs::json::Json;
use sk_scenario::Scenario;
use sk_snap::{Persist, Writer};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Caps enforced on untrusted request parameters.
pub const MAX_CORES: usize = 16;
pub const MAX_SCHEMES: usize = 16;
pub const PRIORITY_RANGE: std::ops::RangeInclusive<i64> = -10..=10;

/// A rejected job request. The message is safe to echo to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

fn bad(what: impl Into<String>) -> SpecError {
    SpecError(what.into())
}

/// A fully validated simulation request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub bench: String,
    pub cores: usize,
    pub scale: Scale,
    pub schemes: Vec<Scheme>,
    pub tenant: String,
    pub priority: i32,
    /// Attach an sk-obs hub to every scheme run and keep the dumps. Such
    /// a job runs every scheme: telemetry belongs to a run, and the
    /// result memo holds none.
    pub metrics: bool,
    pub model: CoreModel,
    /// Jobs posted as a declarative `.skn` scenario carry the parsed
    /// artifact: it supplies the workload + config, and its content hash
    /// joins the result memo's key.
    pub scenario: Option<Scenario>,
}

impl JobSpec {
    /// Parse and validate a `POST /jobs` body. `tenant` comes from the
    /// `X-Tenant` header (defaulted by the caller).
    pub fn from_json(v: &Json, tenant: &str) -> Result<JobSpec, SpecError> {
        if !matches!(v, Json::Obj(_)) {
            return Err(bad("request body must be a json object"));
        }
        if tenant.is_empty() || tenant.len() > 64 || !tenant.is_ascii() {
            return Err(bad("tenant must be non-empty ascii, at most 64 bytes"));
        }
        let (tenant, priority, metrics) =
            (tenant.to_string(), Self::parse_priority(v)?, Self::parse_metrics(v)?);
        // Scenario-file jobs: `{"scenario": "<.skn text>"}`. The file pins
        // the whole run shape, so the flag-style fields are rejected — a
        // request must not say the same thing twice, differently.
        let spec = if let Some(text) = v.get("scenario") {
            let text =
                text.as_str().ok_or_else(|| bad("\"scenario\" must be a string (.skn text)"))?;
            for key in ["bench", "cores", "scale", "schemes", "model"] {
                if v.get(key).is_some() {
                    return Err(bad(format!(
                        "\"scenario\" pins the run shape; drop the \"{key}\" field"
                    )));
                }
            }
            let sc = Scenario::parse(text).map_err(|e| bad(format!("bad scenario: {e}")))?;
            // Every served scheme is the det seed 0 run of its spec, so a
            // scenario naming another schedule cannot be answered as asked.
            if let Some(seed) = sc.seed {
                return Err(bad(format!(
                    "scenario names det seed {seed}; served jobs run seed 0 (drop [run] seed)"
                )));
            }
            if sc.cores > MAX_CORES {
                return Err(bad(format!(
                    "scenario asks for {} cores; this server caps jobs at {MAX_CORES}",
                    sc.cores
                )));
            }
            JobSpec {
                bench: sc.kernel.clone(),
                cores: sc.cores,
                scale: Scale::Test,
                schemes: vec![sc.scheme],
                tenant,
                priority,
                metrics,
                model: sc.model,
                scenario: Some(sc),
            }
        } else {
            let bench = v
                .get("bench")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing string field \"bench\""))?
                .to_string();
            let cores = match v.get("cores") {
                None => 4,
                Some(c) => {
                    let c = c.as_i64().ok_or_else(|| bad("\"cores\" must be an integer"))?;
                    if !(1..=MAX_CORES as i64).contains(&c) {
                        return Err(bad(format!("\"cores\" must be in 1..={MAX_CORES}")));
                    }
                    c as usize
                }
            };
            // Unknown benchmarks and too few cores fail here, at
            // admission, without building the program.
            sk_kernels::kernel(&bench, cores)
                .map_err(|e| bad(format!("{e} (see GET /benches)")))?;
            let scale = match v.get("scale") {
                None => Scale::Test,
                Some(s) => s.as_str().unwrap_or("").parse().map_err(bad)?,
            };
            let model = match v.get("model") {
                None => CoreModel::InOrder,
                Some(m) => m.as_str().unwrap_or("").parse().map_err(bad)?,
            };
            let schemes = Self::parse_schemes(v)?;
            JobSpec {
                bench,
                cores,
                scale,
                schemes,
                tenant,
                priority,
                metrics,
                model,
                scenario: None,
            }
        };
        spec.config().validate().map_err(|e| bad(format!("config rejected: {e}")))?;
        Ok(spec)
    }

    fn parse_schemes(v: &Json) -> Result<Vec<Scheme>, SpecError> {
        let Some(arr) = v.get("schemes") else { return Ok(vec![Scheme::CycleByCycle]) };
        let arr = arr.as_arr().ok_or_else(|| bad("\"schemes\" must be an array"))?;
        if arr.is_empty() || arr.len() > MAX_SCHEMES {
            return Err(bad(format!("\"schemes\" must list 1..={MAX_SCHEMES} schemes")));
        }
        arr.iter()
            .map(|s| {
                let s = s.as_str().ok_or_else(|| bad("schemes must be strings"))?;
                s.parse::<Scheme>().map_err(|e| bad(format!("bad scheme {s:?}: {e}")))
            })
            .collect()
    }

    fn parse_priority(v: &Json) -> Result<i32, SpecError> {
        match v.get("priority") {
            None => Ok(0),
            Some(p) => {
                let p = p.as_i64().ok_or_else(|| bad("\"priority\" must be an integer"))?;
                if !PRIORITY_RANGE.contains(&p) {
                    return Err(bad(format!(
                        "\"priority\" must be in {}..={}",
                        PRIORITY_RANGE.start(),
                        PRIORITY_RANGE.end()
                    )));
                }
                Ok(p as i32)
            }
        }
    }

    fn parse_metrics(v: &Json) -> Result<bool, SpecError> {
        match v.get("metrics") {
            None => Ok(false),
            Some(m) => m.as_bool().ok_or_else(|| bad("\"metrics\" must be a boolean")),
        }
    }

    /// Materialise the workload, building only the kernel it names: the
    /// scenario's, or the registry row `bench` names at `scale`. `None` if
    /// admission would refuse the benchmark.
    pub fn workload(&self) -> Option<Workload> {
        match &self.scenario {
            Some(sc) => sc.workload().ok(),
            None => sk_kernels::kernel(&self.bench, self.cores)
                .ok()
                .map(|k| k.at(self.cores, self.scale)),
        }
    }

    /// The target config every run of this job uses. Scheme is per-run;
    /// everything else is fixed here so the cache key covers it.
    pub fn config(&self) -> TargetConfig {
        let mut cfg = match &self.scenario {
            Some(sc) => sc.config(),
            None => {
                let mut cfg = TargetConfig::small(self.cores);
                cfg.core.model = self.model;
                cfg
            }
        };
        cfg.max_cycles = 50_000_000;
        cfg
    }

    /// Content address of what this job simulates: FNV digests of the
    /// program image and the serialised config. Scheme is excluded: the
    /// result memo pairs the key with each scheme itself.
    pub fn memo_key(&self, program: &Program, cfg: &TargetConfig) -> MemoKey {
        let mut pw = Writer::new();
        pw.put_u64(program.entry);
        pw.put_usize(program.text_len());
        for (addr, word) in program.image() {
            pw.put_u64(addr);
            pw.put_u64(word);
        }
        let mut cw = Writer::new();
        cfg.save(&mut cw);
        // A scenario's content hash joins the key: two scenario files that
        // compile to the same program/config but differ in declared intent
        // (e.g. name, future fields) still share results only when the
        // canonical form agrees.
        if let Some(sc) = &self.scenario {
            cw.put_u64(sc.hash());
        }
        MemoKey::new(&pw.into_bytes(), &cw.into_bytes())
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed(String),
    Cancelled,
}

impl JobState {
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed(_) | JobState::Cancelled)
    }
}

/// Outcome of one scheme in the job's grid. A memo hit (`cache_hit`)
/// carries the stored result of the run that computed it: the same
/// `exec_cycles`, `fingerprint`, `output_ok`, `deterministic` and `kips`,
/// with `wall_ms` 0 because nothing ran for this job.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    pub scheme: String,
    pub exec_cycles: u64,
    /// FNV-1a digest (hex) of the full report fingerprint — compact and
    /// still bit-exact for comparing runs.
    pub fingerprint: String,
    /// Printed output matched the workload's expected values.
    pub output_ok: bool,
    /// Served from the result memo, not run.
    pub cache_hit: bool,
    /// Zero-slack: equals CC's fingerprint (`slack_bound() == Some(0)`).
    /// Every scheme repeats bit for bit; this flag marks the runs whose
    /// fingerprint also matches a CC run of the spec.
    pub deterministic: bool,
    pub wall_ms: u64,
    pub kips: f64,
}

impl From<&SchemeResult> for Json {
    fn from(r: &SchemeResult) -> Json {
        Json::obj([
            ("scheme", Json::from(r.scheme.as_str())),
            ("exec_cycles", r.exec_cycles.into()),
            ("fingerprint", r.fingerprint.as_str().into()),
            ("output_ok", r.output_ok.into()),
            ("cache_hit", r.cache_hit.into()),
            ("deterministic", r.deterministic.into()),
            ("wall_ms", r.wall_ms.into()),
            ("kips", r.kips.into()),
        ])
    }
}

/// One admitted job, shared between the connection handlers and the
/// worker that runs it.
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    pub spec: JobSpec,
    state: Mutex<JobState>,
    /// Notified when `state` turns terminal (`GET /jobs/<id>?wait_ms=`).
    terminal: Condvar,
    results: Mutex<Vec<SchemeResult>>,
    /// Per-scheme sk-obs dumps, populated when `spec.metrics`.
    metrics_dumps: Mutex<Vec<(String, Json)>>,
    /// Raised by `DELETE /jobs/<id>`; checked by the worker between
    /// schemes and propagated into the running engine's cancel token.
    cancel_requested: AtomicBool,
    /// The active engine's cancel token while a scheme run is in flight,
    /// so a cancel lands mid-simulation, not just between schemes.
    engine_token: Mutex<Option<Arc<AtomicBool>>>,
}

impl Job {
    pub fn new(id: u64, spec: JobSpec) -> Self {
        Job {
            id,
            spec,
            state: Mutex::new(JobState::Queued),
            terminal: Condvar::new(),
            results: Mutex::new(Vec::new()),
            metrics_dumps: Mutex::new(Vec::new()),
            cancel_requested: AtomicBool::new(false),
            engine_token: Mutex::new(None),
        }
    }

    pub fn state(&self) -> JobState {
        self.state.lock().unwrap().clone()
    }

    /// Transition; refuses to leave a terminal state (a cancel that wins
    /// the race stays a cancel). A terminal state wakes every
    /// [`Job::wait_terminal`]. Returns the state now in effect.
    pub fn set_state(&self, next: JobState) -> JobState {
        let mut g = self.state.lock().unwrap();
        if !g.is_terminal() {
            *g = next;
        }
        let now = g.clone();
        drop(g);
        if now.is_terminal() {
            self.terminal.notify_all();
        }
        now
    }

    /// Block until the job is terminal or `timeout` passes; the state
    /// then in effect.
    pub fn wait_terminal(&self, timeout: Duration) -> JobState {
        let g = self.state.lock().unwrap();
        let (g, _) = self.terminal.wait_timeout_while(g, timeout, |s| !s.is_terminal()).unwrap();
        g.clone()
    }

    pub fn push_result(&self, r: SchemeResult) {
        self.results.lock().unwrap().push(r);
    }

    pub fn results(&self) -> Vec<SchemeResult> {
        self.results.lock().unwrap().clone()
    }

    pub fn push_metrics_dump(&self, scheme: &str, dump: Json) {
        self.metrics_dumps.lock().unwrap().push((scheme.to_string(), dump));
    }

    pub fn metrics_dumps(&self) -> Vec<(String, Json)> {
        self.metrics_dumps.lock().unwrap().clone()
    }

    /// Request cancellation: flips the sticky flag and raises the active
    /// engine's token, if one is running right now.
    pub fn request_cancel(&self) {
        self.cancel_requested.store(true, Ordering::Relaxed);
        if let Some(t) = self.engine_token.lock().unwrap().as_ref() {
            t.store(true, Ordering::Relaxed);
        }
    }

    pub fn cancel_requested(&self) -> bool {
        self.cancel_requested.load(Ordering::Relaxed)
    }

    /// Publish the engine token for the scheme run about to start. If a
    /// cancel already arrived, raise the token immediately — the request
    /// must not fall through the gap between check and publish.
    pub fn arm_engine_token(&self, token: Arc<AtomicBool>) {
        let mut g = self.engine_token.lock().unwrap();
        if self.cancel_requested() {
            token.store(true, Ordering::Relaxed);
        }
        *g = Some(token);
    }

    pub fn disarm_engine_token(&self) {
        *self.engine_token.lock().unwrap() = None;
    }

    /// Status document for `GET /jobs/<id>`.
    pub fn to_json(&self) -> String {
        let state = self.state();
        let mut fields = vec![
            ("job", Json::from(self.id)),
            ("state", state.name().into()),
            ("tenant", self.spec.tenant.as_str().into()),
            ("bench", self.spec.bench.as_str().into()),
            ("cores", self.spec.cores.into()),
            ("priority", i64::from(self.spec.priority).into()),
        ];
        if let JobState::Failed(why) = &state {
            fields.push(("error", why.as_str().into()));
        }
        fields.push(("results", self.results().iter().map(Json::from).collect()));
        Json::obj(fields).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sk_obs::json::{escape, parse};

    fn spec(body: &str) -> Result<JobSpec, SpecError> {
        JobSpec::from_json(&parse(body).unwrap(), "alice")
    }

    #[test]
    fn minimal_request_gets_defaults() {
        let s = spec(r#"{"bench":"FFT"}"#).unwrap();
        assert_eq!(s.cores, 4);
        assert_eq!(s.scale, Scale::Test);
        assert_eq!(s.schemes, vec![Scheme::CycleByCycle]);
        assert_eq!(s.priority, 0);
        assert!(!s.metrics);
        assert!(s.workload().is_some());
    }

    #[test]
    fn full_request_parses() {
        let s = spec(
            r#"{"bench":"lock_sweep","cores":2,"scale":"test",
                "schemes":["CC","Q100","S9*"],"priority":7,"metrics":true}"#,
        )
        .unwrap();
        assert_eq!(s.cores, 2);
        assert_eq!(s.schemes.len(), 3);
        assert_eq!(s.priority, 7);
        assert!(s.metrics);
    }

    #[test]
    fn bad_requests_are_typed() {
        assert!(spec(r#"[1,2]"#).is_err(), "non-object body");
        assert!(spec(r#"{"cores":4}"#).is_err(), "missing bench");
        assert!(spec(r#"{"bench":"no-such-kernel"}"#).is_err());
        assert!(spec(r#"{"bench":"FFT","cores":0}"#).is_err());
        assert!(spec(r#"{"bench":"FFT","cores":999}"#).is_err());
        assert!(spec(r#"{"bench":"FFT","schemes":[]}"#).is_err());
        assert!(spec(r#"{"bench":"FFT","schemes":["XYZ"]}"#).is_err(), "scheme parse error");
        assert!(spec(r#"{"bench":"FFT","schemes":["A16"]}"#).is_err(), "no adaptive scheme");
        assert!(spec(r#"{"bench":"FFT","priority":99}"#).is_err());
        assert!(spec(r#"{"bench":"FFT","scale":"galactic"}"#).is_err());
        assert!(JobSpec::from_json(&parse(r#"{"bench":"FFT"}"#).unwrap(), "").is_err());
    }

    #[test]
    fn memo_key_separates_programs_and_configs() {
        let a = spec(r#"{"bench":"FFT"}"#).unwrap();
        let b = spec(r#"{"bench":"LU"}"#).unwrap();
        let (wa, wb) = (a.workload().unwrap(), b.workload().unwrap());
        let (ca, cb) = (a.config(), b.config());
        let ka = a.memo_key(&wa.program, &ca);
        assert_eq!(ka, a.memo_key(&wa.program, &ca), "key is deterministic");
        assert_ne!(ka, b.memo_key(&wb.program, &cb), "different program, different key");

        // Same program, different config → different key.
        let c2 = spec(r#"{"bench":"FFT","model":"ooo"}"#).unwrap().config();
        assert_ne!(ka, a.memo_key(&wa.program, &c2));

        // Scheme is NOT part of the key: the spec's schemes never enter it.
        let multi = spec(r#"{"bench":"FFT","schemes":["CC","Q100"]}"#).unwrap();
        assert_eq!(ka, multi.memo_key(&wa.program, &multi.config()));
    }

    const SKN: &str = "[target]\ncores = 4\n[run]\nscheme = \"S10\"\n\
                       [kernel]\nname = \"pipeline\"\nitems = 8\n";

    #[test]
    fn scenario_spec_parses_and_pins_the_run_shape() {
        let body = format!("{{\"scenario\":\"{}\",\"priority\":3}}", escape(SKN));
        let s = spec(&body).unwrap();
        assert_eq!(s.bench, "pipeline");
        assert_eq!(s.cores, 4);
        assert_eq!(s.schemes, vec![Scheme::BoundedSlack(10)]);
        assert_eq!(s.priority, 3);
        assert!(s.scenario.is_some());
        assert!(s.workload().is_some());
        assert!(s.config().validate().is_ok());
    }

    #[test]
    fn scenario_rejects_redundant_flag_fields() {
        let body = format!("{{\"scenario\":\"{}\",\"bench\":\"FFT\"}}", escape(SKN));
        assert!(spec(&body).is_err(), "scenario + bench must be rejected");
        let body = format!("{{\"scenario\":\"{}\",\"cores\":2}}", escape(SKN));
        assert!(spec(&body).is_err(), "scenario + cores must be rejected");
        assert!(spec(r#"{"scenario":"not a scenario"}"#).is_err(), "bad scenario text");
        assert!(spec(r#"{"scenario":17}"#).is_err(), "non-string scenario");
        // A scenario over the server core cap is admission-rejected even
        // though the scenario crate itself allows up to 256 cores.
        let big = SKN.replace("cores = 4", "cores = 32");
        assert!(spec(&format!("{{\"scenario\":\"{}\"}}", escape(&big))).is_err());
    }

    #[test]
    fn a_seeded_scenario_is_refused() {
        let seeded = SKN.replace("[kernel]", "seed = 3\n[kernel]");
        let err = spec(&format!("{{\"scenario\":\"{}\"}}", escape(&seeded))).unwrap_err();
        assert!(err.0.contains("seed 3"), "{err}");
        let unseeded = SKN.replace("[kernel]", "seed = 0\n[kernel]");
        assert!(spec(&format!("{{\"scenario\":\"{}\"}}", escape(&unseeded))).is_err());
    }

    #[test]
    fn scenario_hash_joins_the_memo_key() {
        let a = spec(&format!("{{\"scenario\":\"{}\"}}", escape(SKN))).unwrap();
        let named = format!("[scenario]\nname = \"other\"\n{SKN}");
        let b = spec(&format!("{{\"scenario\":\"{}\"}}", escape(&named))).unwrap();
        let (wa, wb) = (a.workload().unwrap(), b.workload().unwrap());
        let ka = a.memo_key(&wa.program, &a.config());
        let kb = b.memo_key(&wb.program, &b.config());
        // Same program and config, but distinct scenario content hashes.
        assert_ne!(ka, kb);
        assert_eq!(ka, a.memo_key(&wa.program, &a.config()), "key is deterministic");
    }

    /// Admission checks the name and the registry's minimum core count
    /// without building a program; whatever it admits must then build.
    #[test]
    fn admission_follows_the_registry() {
        for k in sk_kernels::KERNELS {
            for cores in [1, 2, 4] {
                let body = format!("{{\"bench\":\"{}\",\"cores\":{cores}}}", k.name);
                match spec(&body) {
                    Ok(s) => {
                        assert!(cores >= k.min_cores, "{} admitted on {cores} cores", k.name);
                        assert!(s.workload().is_some(), "{} at {cores} cores", k.name);
                    }
                    Err(e) => assert!(cores < k.min_cores, "{} at {cores} cores: {e}", k.name),
                }
            }
        }
        assert!(spec(r#"{"bench":"pingpong","cores":1}"#).is_err(), "pingpong needs a peer");
        assert!(spec(r#"{"bench":"work_steal","cores":1}"#).is_ok());
        assert!(spec(r#"{"bench":"fft"}"#).is_ok(), "names match in any case");
    }

    #[test]
    fn terminal_states_are_sticky() {
        let j = Job::new(1, spec(r#"{"bench":"FFT"}"#).unwrap());
        assert_eq!(j.set_state(JobState::Running), JobState::Running);
        assert_eq!(j.set_state(JobState::Cancelled), JobState::Cancelled);
        // A late Done from the worker loses to the cancel.
        assert_eq!(j.set_state(JobState::Done), JobState::Cancelled);
    }

    #[test]
    fn cancel_before_arm_raises_the_token() {
        let j = Job::new(1, spec(r#"{"bench":"FFT"}"#).unwrap());
        j.request_cancel();
        let token = Arc::new(AtomicBool::new(false));
        j.arm_engine_token(token.clone());
        assert!(token.load(Ordering::Relaxed), "pre-existing cancel lands on the token");
    }
}
