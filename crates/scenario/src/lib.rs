//! # sk-scenario — declarative `.skn` run descriptions
//!
//! A scenario file pins a complete simulation run — topology, core count,
//! memory shards, slack scheme, kernel and its inputs, checkpoint and ROI
//! markers — in one declarative artifact, so the *same* run can be driven
//! bit-identically through the CLI (`slacksim run --scenario`), the
//! deterministic schedule fuzzer (`--det-schedules`) and an sk-serve job
//! (`POST /jobs` with a `scenario` body). A scenario with a `[run] seed`
//! also names one det-scheduler interleaving: it is what the fuzzer dumps
//! for a violating seed and what `slacksim run --scenario` replays (the
//! job server, whose jobs are det seed 0 runs, refuses it).
//!
//! The format is a strict, hand-rolled TOML subset (zero dependencies):
//!
//! ```text
//! # one-file run description
//! [scenario]
//! name = "pipeline-smoke"        # optional identity
//!
//! [target]
//! cores = 4                      # 1..=256
//! mem_shards = 0                 # 0 = classic single manager
//! model = "ooo"                  # "ooo" | "inorder"
//!
//! [run]
//! scheme = "S10"                 # Figure-8 notation (CC, Q10, S9*, SU, ...)
//! track_violations = true
//! checkpoint_at = 5000           # optional: snapshot marker, cycles
//! roi_instructions = 100000      # optional: StopCondition::RoiInstructions
//! seed = 3                       # optional: det-scheduler seed (a replay)
//!
//! [kernel]
//! name = "pipeline"              # any registered kernel
//! items = 8                      # integer inputs; unknown keys rejected
//! ```
//!
//! Values are `i64` integers, `true`/`false`, or `"quoted strings"`
//! (no escape sequences); `#` starts a comment. Parsing is total: any
//! byte sequence yields either a valid [`Scenario`] or a typed
//! [`ScenarioParseError`] with a line number — never a panic. A parsed
//! scenario is valid by construction (the kernel registry has vetted the
//! kernel name and its parameters), [`Scenario::emit`] is a canonical
//! re-serialization with `parse(emit(s)) == s`, and [`Scenario::hash`]
//! over the canonical form gives servers a content address (sk-serve
//! folds it into its result memo's key).

use sk_core::{CoreModel, Scheme, StopCondition, TargetConfig};
use sk_kernels::{Kernel, KernelError, Scale, Workload};
use std::collections::BTreeMap;
use std::fmt;

/// Upper bound on `[target] cores`.
pub const MAX_CORES: usize = 256;
/// Upper bound on `[target] mem_shards`.
pub const MAX_SHARDS: usize = 64;
/// Upper bound on any `[kernel]` integer parameter (keeps the assembled
/// data segment small enough to simulate).
pub const MAX_PARAM: i64 = 16_384;

/// A fully-validated scenario: one declarative run description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Display identity from `[scenario] name` (may be empty).
    pub name: String,
    /// Target core count.
    pub cores: usize,
    /// Sharded memory-manager threads (0 = single manager).
    pub mem_shards: usize,
    /// Per-core microarchitecture.
    pub model: CoreModel,
    /// Slack scheme driving the run.
    pub scheme: Scheme,
    /// Record conflicting-access reorderings (paper §3.2.3) and bus and
    /// directory timestamp inversions.
    pub track_violations: bool,
    /// Optional mid-run snapshot marker, in simulated cycles.
    pub checkpoint_at: Option<u64>,
    /// Optional ROI instruction budget ([`StopCondition::RoiInstructions`]).
    pub roi_instructions: Option<u64>,
    /// Optional det-scheduler seed: the scenario then names one whole
    /// interleaving, run from cycle 0 to the end.
    pub seed: Option<u64>,
    /// Kernel name as written in the file (looked up case-insensitively).
    pub kernel: String,
    /// Kernel inputs; keys missing here take the registry defaults.
    pub params: BTreeMap<String, i64>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: String::new(),
            cores: 4,
            mem_shards: 0,
            model: CoreModel::OutOfOrder,
            scheme: Scheme::CycleByCycle,
            track_violations: false,
            checkpoint_at: None,
            roi_instructions: None,
            seed: None,
            kernel: String::new(),
            params: BTreeMap::new(),
        }
    }
}

/// Why a scenario failed to parse or validate. Every variant carries
/// enough context to point at the offending line or key; parsing never
/// panics on any input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioParseError {
    /// Not `[section]` / `key = value` shaped.
    Syntax {
        /// 1-based source line.
        line: usize,
        /// What was malformed.
        what: String,
    },
    /// A section header other than scenario/target/run/kernel.
    UnknownSection {
        /// 1-based source line.
        line: usize,
        /// The unrecognized section name.
        section: String,
    },
    /// A key this section does not define.
    UnknownKey {
        /// 1-based source line.
        line: usize,
        /// The unrecognized `section.key`.
        key: String,
    },
    /// The same key (or section) appeared twice.
    DuplicateKey {
        /// 1-based source line.
        line: usize,
        /// The duplicated `section.key` or `[section]`.
        key: String,
    },
    /// The value has the wrong type or is out of range.
    BadValue {
        /// 1-based source line.
        line: usize,
        /// The offending `section.key`.
        key: String,
        /// What was wrong with the value.
        what: String,
    },
    /// No `[kernel] name` was given.
    MissingKernel,
    /// `[kernel] name` is not in the registry.
    UnknownKernel {
        /// The unrecognized kernel name.
        kernel: String,
    },
    /// A `[kernel]` parameter the named kernel does not take, or a
    /// parameter/core-count combination the kernel rejects.
    BadParam {
        /// The kernel being configured.
        kernel: String,
        /// Which parameter (or constraint) failed.
        param: String,
        /// Why.
        what: String,
    },
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioParseError::Syntax { line, what } => write!(f, "line {line}: {what}"),
            ScenarioParseError::UnknownSection { line, section } => {
                write!(f, "line {line}: unknown section [{section}]")
            }
            ScenarioParseError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key '{key}'")
            }
            ScenarioParseError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate '{key}'")
            }
            ScenarioParseError::BadValue { line, key, what } => {
                write!(f, "line {line}: bad value for '{key}': {what}")
            }
            ScenarioParseError::MissingKernel => write!(f, "scenario has no [kernel] name"),
            ScenarioParseError::UnknownKernel { kernel } => {
                write!(f, "unknown kernel '{kernel}' (see sk_kernels::KERNELS)")
            }
            ScenarioParseError::BadParam { kernel, param, what } => {
                write!(f, "kernel '{kernel}': parameter '{param}': {what}")
            }
        }
    }
}

impl std::error::Error for ScenarioParseError {}

impl Scenario {
    /// Build the scenario's workload. Errors (typed, never panics) if the
    /// kernel is unknown, a parameter is not accepted or out of range, or
    /// the core count is below the kernel's minimum — `parse` has already
    /// run this check, so scenarios from files cannot fail here.
    pub fn workload(&self) -> Result<Workload, ScenarioParseError> {
        let (kernel, inputs) = self.resolve()?;
        Ok(kernel.build(self.cores, &inputs))
    }

    /// The registry row ([`sk_kernels::KERNELS`]) the scenario names and
    /// its inputs: each `[kernel]` key, or else the kernel's `test` rung.
    fn resolve(&self) -> Result<(&'static Kernel, Vec<i64>), ScenarioParseError> {
        let kernel = sk_kernels::kernel(&self.kernel, self.cores).map_err(|e| match e {
            KernelError::Unknown(_) => {
                ScenarioParseError::UnknownKernel { kernel: self.kernel.clone() }
            }
            KernelError::TooFewCores { kernel, .. } => ScenarioParseError::BadParam {
                kernel: kernel.to_string(),
                param: "cores".into(),
                what: e.to_string(),
            },
        })?;
        let bad = |param: &str, what: String| ScenarioParseError::BadParam {
            kernel: kernel.name.to_string(),
            param: param.to_string(),
            what,
        };
        for key in self.params.keys() {
            if !kernel.params.iter().any(|(k, _)| k == key) {
                return Err(bad(key, "not a parameter of this kernel".into()));
            }
        }
        let mut inputs = kernel.inputs(Scale::Test);
        for ((key, _), v) in kernel.params.iter().zip(&mut inputs) {
            *v = *self.params.get(*key).unwrap_or(v);
            if !(1..=MAX_PARAM).contains(v) {
                return Err(bad(key, format!("must be in 1..={MAX_PARAM}, got {v}")));
            }
        }
        Ok((kernel, inputs))
    }

    /// A [`TargetConfig`] realizing the scenario's `[target]`/`[run]`
    /// sections on the small-core baseline config.
    pub fn config(&self) -> TargetConfig {
        let mut cfg = TargetConfig::small(self.cores);
        cfg.core.model = self.model;
        cfg.mem_shards = self.mem_shards;
        cfg.track_workload_violations = self.track_violations;
        if let Some(roi) = self.roi_instructions {
            cfg.stop = StopCondition::RoiInstructions(roi);
        }
        cfg
    }

    /// Canonical serialization: `parse(s.emit())` reconstructs `s`
    /// exactly (defaults are written out, params sorted by key). Strings
    /// containing `"` cannot be represented and are emitted with the
    /// quote stripped.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        let clean = |s: &str| s.replace('"', "");
        if !self.name.is_empty() {
            out.push_str("[scenario]\n");
            out.push_str(&format!("name = \"{}\"\n\n", clean(&self.name)));
        }
        out.push_str("[target]\n");
        out.push_str(&format!("cores = {}\n", self.cores));
        out.push_str(&format!("mem_shards = {}\n", self.mem_shards));
        out.push_str(&format!("model = \"{}\"\n\n", self.model.name()));
        out.push_str("[run]\n");
        out.push_str(&format!("scheme = \"{}\"\n", self.scheme.short_name()));
        out.push_str(&format!("track_violations = {}\n", self.track_violations));
        if let Some(c) = self.checkpoint_at {
            out.push_str(&format!("checkpoint_at = {c}\n"));
        }
        if let Some(r) = self.roi_instructions {
            out.push_str(&format!("roi_instructions = {r}\n"));
        }
        if let Some(seed) = self.seed {
            out.push_str(&format!("seed = {seed}\n"));
        }
        out.push_str("\n[kernel]\n");
        out.push_str(&format!("name = \"{}\"\n", clean(&self.kernel)));
        for (k, v) in &self.params {
            out.push_str(&format!("{} = {}\n", clean(k), v));
        }
        out
    }

    /// FNV-1a over the canonical form: the scenario's content address.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.emit().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Parse and fully validate scenario text. Total over arbitrary
    /// input: returns a typed error, never panics.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioParseError> {
        let mut sc = Scenario::default();
        let mut section: Option<&'static str> = None;
        let mut seen: Vec<String> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let stripped = strip_comment(raw);
            let body = stripped.trim();
            if body.is_empty() {
                continue;
            }
            if let Some(rest) = body.strip_prefix('[') {
                let name = rest.strip_suffix(']').ok_or_else(|| ScenarioParseError::Syntax {
                    line,
                    what: "section header missing closing ']'".into(),
                })?;
                let canon = match name.trim() {
                    "scenario" => "scenario",
                    "target" => "target",
                    "run" => "run",
                    "kernel" => "kernel",
                    other => {
                        return Err(ScenarioParseError::UnknownSection {
                            line,
                            section: other.to_string(),
                        })
                    }
                };
                let tag = format!("[{canon}]");
                if seen.contains(&tag) {
                    return Err(ScenarioParseError::DuplicateKey { line, key: tag });
                }
                seen.push(tag);
                section = Some(canon);
                continue;
            }
            let (key, val_txt) =
                body.split_once('=').ok_or_else(|| ScenarioParseError::Syntax {
                    line,
                    what: format!("expected 'key = value', got '{body}'"),
                })?;
            let key = key.trim();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(ScenarioParseError::Syntax {
                    line,
                    what: format!("bad key name '{key}'"),
                });
            }
            let sect = section.ok_or_else(|| ScenarioParseError::Syntax {
                line,
                what: format!("key '{key}' before any [section]"),
            })?;
            let full = format!("{sect}.{key}");
            if seen.contains(&full) {
                return Err(ScenarioParseError::DuplicateKey { line, key: full });
            }
            seen.push(full.clone());
            let val = parse_value(val_txt.trim(), line, &full)?;
            apply_key(&mut sc, sect, key, val, line, &full)?;
        }
        if sc.kernel.is_empty() {
            return Err(ScenarioParseError::MissingKernel);
        }
        // Vet kernel name + params + core floor now, so a parsed scenario
        // is runnable by construction.
        sc.resolve()?;
        Ok(sc)
    }
}

/// Drop a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

enum Val {
    Int(i64),
    Bool(bool),
    Str(String),
}

fn parse_value(txt: &str, line: usize, key: &str) -> Result<Val, ScenarioParseError> {
    let bad = |what: String| ScenarioParseError::BadValue { line, key: key.to_string(), what };
    if let Some(rest) = txt.strip_prefix('"') {
        let inner = rest.strip_suffix('"').ok_or_else(|| bad("unterminated string".into()))?;
        if inner.contains('"') {
            return Err(bad("embedded '\"' is not supported".into()));
        }
        if inner.chars().any(|c| c.is_control()) {
            return Err(bad("control character in string".into()));
        }
        return Ok(Val::Str(inner.to_string()));
    }
    match txt {
        "true" => Ok(Val::Bool(true)),
        "false" => Ok(Val::Bool(false)),
        _ => txt
            .parse::<i64>()
            .map(Val::Int)
            .map_err(|_| bad(format!("expected integer, bool or \"string\", got '{txt}'"))),
    }
}

fn apply_key(
    sc: &mut Scenario,
    sect: &str,
    key: &str,
    val: Val,
    line: usize,
    full: &str,
) -> Result<(), ScenarioParseError> {
    let bad = |what: String| ScenarioParseError::BadValue { line, key: full.to_string(), what };
    let unknown = || ScenarioParseError::UnknownKey { line, key: full.to_string() };
    let want_int = |v: Val| match v {
        Val::Int(i) => Ok(i),
        _ => Err(bad("expected an integer".into())),
    };
    let want_str = |v: Val| match v {
        Val::Str(s) => Ok(s),
        _ => Err(bad("expected a \"string\"".into())),
    };
    match (sect, key) {
        ("scenario", "name") => sc.name = want_str(val)?,
        ("target", "cores") => {
            let c = want_int(val)?;
            if !(1..=MAX_CORES as i64).contains(&c) {
                return Err(bad(format!("must be in 1..={MAX_CORES}")));
            }
            sc.cores = c as usize;
        }
        ("target", "mem_shards") => {
            let s = want_int(val)?;
            if !(0..=MAX_SHARDS as i64).contains(&s) {
                return Err(bad(format!("must be in 0..={MAX_SHARDS}")));
            }
            sc.mem_shards = s as usize;
        }
        ("target", "model") => sc.model = want_str(val)?.parse().map_err(bad)?,
        ("run", "scheme") => {
            sc.scheme = want_str(val)?.parse::<Scheme>().map_err(|e| bad(e.to_string()))?;
        }
        ("run", "track_violations") => {
            sc.track_violations = match val {
                Val::Bool(b) => b,
                _ => return Err(bad("expected true or false".into())),
            }
        }
        ("run", "checkpoint_at") => {
            let c = want_int(val)?;
            if c < 1 {
                return Err(bad("must be >= 1".into()));
            }
            sc.checkpoint_at = Some(c as u64);
        }
        ("run", "roi_instructions") => {
            let r = want_int(val)?;
            if r < 1 {
                return Err(bad("must be >= 1".into()));
            }
            sc.roi_instructions = Some(r as u64);
        }
        ("run", "seed") => {
            let seed = want_int(val)?;
            if seed < 0 {
                return Err(bad("must be >= 0".into()));
            }
            sc.seed = Some(seed as u64);
        }
        ("kernel", "name") => sc.kernel = want_str(val)?,
        ("kernel", _) => {
            sc.params.insert(key.to_string(), want_int(val)?);
        }
        ("scenario", _) | ("target", _) | ("run", _) => return Err(unknown()),
        _ => unreachable!("sections are vetted at the header"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# message-passing smoke scenario
[scenario]
name = "mailbox-smoke"

[target]
cores = 4
mem_shards = 2
model = "inorder"

[run]
scheme = "S10"          # bounded slack, window 10
track_violations = true
checkpoint_at = 5000

[kernel]
name = "mailbox_actors"
rounds = 3
"#;

    #[test]
    fn example_parses_and_round_trips() {
        let sc = Scenario::parse(EXAMPLE).expect("example parses");
        assert_eq!(sc.name, "mailbox-smoke");
        assert_eq!(sc.cores, 4);
        assert_eq!(sc.mem_shards, 2);
        assert_eq!(sc.model, CoreModel::InOrder);
        assert_eq!(sc.scheme, Scheme::BoundedSlack(10));
        assert!(sc.track_violations);
        assert_eq!(sc.checkpoint_at, Some(5000));
        assert_eq!(sc.params.get("rounds"), Some(&3));
        let rt = Scenario::parse(&sc.emit()).expect("canonical form parses");
        assert_eq!(rt, sc);
        assert_eq!(rt.hash(), sc.hash());
    }

    #[test]
    fn defaults_fill_unwritten_keys() {
        let sc = Scenario::parse("[kernel]\nname = \"lock_sweep\"\n").unwrap();
        assert_eq!(sc.cores, 4);
        assert_eq!(sc.scheme, Scheme::CycleByCycle);
        assert_eq!(sc.model, CoreModel::OutOfOrder);
        let w = sc.workload().unwrap();
        assert_eq!(w.name, "lock_sweep");
        assert_eq!(w.n_threads, 4);
    }

    #[test]
    fn workload_uses_declared_params() {
        let sc = Scenario::parse("[kernel]\nname = \"pipeline\"\nitems = 11\n").unwrap();
        let w = sc.workload().unwrap();
        assert!(w.input.contains("11 items"), "input was {}", w.input);
        assert_eq!(w.n_threads, 4);
    }

    #[test]
    fn every_registered_kernel_builds_with_every_parameter_at_one() {
        for k in sk_kernels::KERNELS {
            let mut text =
                format!("[target]\ncores = {}\n[kernel]\nname = \"{}\"\n", k.min_cores, k.name);
            for (key, _) in k.params {
                text.push_str(&format!("{key} = 1\n"));
            }
            let w = Scenario::parse(&text).unwrap().workload().unwrap();
            w.program.validate().expect("kernel program validates");
        }
    }

    #[test]
    fn every_registered_kernel_builds_at_four_cores() {
        for k in sk_kernels::KERNELS {
            let sc = Scenario::parse(&format!("[kernel]\nname = \"{}\"\n", k.name)).unwrap();
            let w = sc.workload().unwrap();
            w.program.validate().expect("kernel program validates");
            // racy_increment is racy by design: no host-expected values.
            assert!(!w.expected.is_empty() || w.name == "racy_increment");
        }
    }

    #[test]
    fn typed_errors_cover_the_failure_modes() {
        use ScenarioParseError as E;
        type Check = fn(&E) -> bool;
        let cases: &[(&str, Check)] = &[
            ("[kernel]\nname = \"nope\"\n", |e| matches!(e, E::UnknownKernel { .. })),
            ("[weird]\n", |e| matches!(e, E::UnknownSection { .. })),
            ("cores = 4\n", |e| matches!(e, E::Syntax { .. })),
            ("[target]\ncores = 4\ncores = 8\n", |e| matches!(e, E::DuplicateKey { .. })),
            ("[target]\ncores = \"four\"\n", |e| matches!(e, E::BadValue { .. })),
            ("[target]\ncores = 0\n", |e| matches!(e, E::BadValue { .. })),
            ("[target]\nbananas = 1\n", |e| matches!(e, E::UnknownKey { .. })),
            ("[run]\nscheme = \"Z9\"\n", |e| matches!(e, E::BadValue { .. })),
            ("[run]\nscheme = \"Q0\"\n", |e| matches!(e, E::BadValue { .. })),
            ("[target]\ncores = 4\n", |e| matches!(e, E::MissingKernel)),
            ("[kernel]\nname = \"pipeline\"\nbodies = 3\n", |e| matches!(e, E::BadParam { .. })),
            ("[kernel]\nname = \"pipeline\"\nitems = 0\n", |e| matches!(e, E::BadParam { .. })),
            ("[target]\ncores = 1\n[kernel]\nname = \"pipeline\"\n", |e| {
                matches!(e, E::BadParam { .. })
            }),
            ("[scenario]\nname = \"x\nitems\"\n", |e| {
                matches!(e, E::Syntax { .. } | E::BadValue { .. })
            }),
        ];
        for (txt, check) in cases {
            match Scenario::parse(txt) {
                Err(e) => assert!(check(&e), "wrong error for {txt:?}: {e:?}"),
                Ok(sc) => panic!("{txt:?} unexpectedly parsed: {sc:?}"),
            }
        }
    }

    #[test]
    fn comments_respect_quoted_strings() {
        let sc =
            Scenario::parse("[scenario]\nname = \"a#b\"\n[kernel]\nname = \"lock_sweep\" # ok\n")
                .unwrap();
        assert_eq!(sc.name, "a#b");
        assert_eq!(sc.kernel, "lock_sweep");
    }

    #[test]
    fn a_seed_round_trips_and_only_a_seeded_form_writes_it() {
        let text = "[run]\nscheme = \"SU\"\nseed = 3\n[kernel]\nname = \"racy_increment\"\n";
        let sc = Scenario::parse(text).unwrap();
        assert_eq!(sc.seed, Some(3));
        assert!(sc.emit().contains("seed = 3\n"));
        assert_eq!(Scenario::parse(&sc.emit()).unwrap(), sc);
        let unseeded = Scenario { seed: None, ..sc.clone() };
        assert!(!unseeded.emit().contains("seed"));
        assert_ne!(unseeded.hash(), sc.hash());
        assert!(Scenario::parse(&text.replace("seed = 3", "seed = -1")).is_err());
    }

    #[test]
    fn hash_is_content_addressed() {
        let a = Scenario::parse("[kernel]\nname = \"pipeline\"\nitems = 8\n").unwrap();
        // Spelling the default explicitly yields the same canonical form.
        let b = Scenario::parse("[target]\ncores = 4\n[kernel]\nname = \"pipeline\"\nitems = 8\n")
            .unwrap();
        let c = Scenario::parse("[kernel]\nname = \"pipeline\"\nitems = 9\n").unwrap();
        assert_eq!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn config_reflects_target_and_run_sections() {
        let sc = Scenario::parse(
            "[target]\ncores = 6\nmem_shards = 2\nmodel = \"inorder\"\n\
             [run]\ntrack_violations = true\nroi_instructions = 1234\n\
             [kernel]\nname = \"work_steal\"\n",
        )
        .unwrap();
        let cfg = sc.config();
        assert_eq!(cfg.n_cores, 6);
        assert_eq!(cfg.mem_shards, 2);
        assert_eq!(cfg.core.model, CoreModel::InOrder);
        assert!(cfg.track_workload_violations);
        assert_eq!(cfg.stop, StopCondition::RoiInstructions(1234));
        cfg.validate().expect("scenario config validates");
    }
}
