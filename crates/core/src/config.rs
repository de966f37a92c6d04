//! Target-machine and simulation configuration.

use sk_isa::FuClass;
use sk_mem::MemConfig;
use sk_snap::{Persist, Reader, SnapError, Writer};

/// Which core timing model simulates each target core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreModel {
    /// 4-wide out-of-order core, NetBurst-like (paper §2.2/§4.1): values
    /// are fetched just before execution, instructions execute when they
    /// reach an execution unit.
    OutOfOrder,
    /// Single-issue in-order core that stalls on cache misses. Used for
    /// ablations ("the simulation continuation can be as simple as just
    /// incrementing the local clock", §2.2).
    InOrder,
}

impl CoreModel {
    /// The name `--model`, a scenario's `model` key and a job's `"model"`
    /// field use.
    pub fn name(self) -> &'static str {
        match self {
            CoreModel::OutOfOrder => "ooo",
            CoreModel::InOrder => "inorder",
        }
    }
}

/// Parses [`CoreModel::name`].
impl std::str::FromStr for CoreModel {
    type Err = String;

    fn from_str(s: &str) -> Result<CoreModel, String> {
        [CoreModel::OutOfOrder, CoreModel::InOrder]
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown model {s:?} (expected ooo or inorder)"))
    }
}

/// Microarchitectural parameters of one target core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Timing model.
    pub model: CoreModel,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries ("64 in-flight instructions", §4.1).
    pub rob_entries: usize,
    /// Load/store-queue entries.
    pub lsq_entries: usize,
    /// Fetch-queue entries.
    pub fetch_queue: usize,
    /// Post-commit store-buffer entries.
    pub store_buffer: usize,
    /// Bimodal branch-predictor table size (entries, power of two).
    pub bpred_entries: usize,
    /// Pipeline refill penalty after a branch misprediction, cycles.
    pub mispredict_penalty: u64,
}

impl CoreConfig {
    /// The paper's target core: 4-way OoO with 64 in-flight instructions.
    pub fn paper_ooo() -> Self {
        CoreConfig {
            model: CoreModel::OutOfOrder,
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_entries: 64,
            lsq_entries: 32,
            fetch_queue: 8,
            store_buffer: 8,
            bpred_entries: 2048,
            mispredict_penalty: 5,
        }
    }

    /// A simple in-order core (ablation / fast simulation).
    pub fn simple_inorder() -> Self {
        CoreConfig { model: CoreModel::InOrder, ..Self::paper_ooo() }
    }

    /// Execution latency of a functional-unit class, cycles.
    pub fn fu_latency(&self, class: FuClass) -> u64 {
        match class {
            FuClass::IntAlu | FuClass::Branch | FuClass::Jump | FuClass::Nop => 1,
            FuClass::IntMul => 3,
            FuClass::IntDiv => 20,
            FuClass::FpAdd => 4,
            FuClass::FpMul => 4,
            FuClass::FpDiv => 12,
            FuClass::FpSqrt => 20,
            FuClass::Load => 1,  // address generation; memory adds on top
            FuClass::Store => 1, // address generation
            FuClass::Syscall => 1,
        }
    }

    /// Number of functional units of each class the issue stage can use
    /// per cycle.
    pub fn fu_count(&self, class: FuClass) -> usize {
        match class {
            FuClass::IntAlu | FuClass::Branch | FuClass::Jump | FuClass::Nop => 2,
            FuClass::IntMul | FuClass::IntDiv => 1,
            FuClass::FpAdd | FuClass::FpMul => 2,
            FuClass::FpDiv | FuClass::FpSqrt => 1,
            FuClass::Load | FuClass::Store => 2,
            FuClass::Syscall => 1,
        }
    }

    /// Whether a class's unit pipelines back-to-back operations.
    pub fn fu_pipelined(&self, class: FuClass) -> bool {
        !matches!(class, FuClass::IntDiv | FuClass::FpDiv | FuClass::FpSqrt)
    }
}

/// A structurally impossible [`TargetConfig`], caught by
/// [`TargetConfig::validate`]. Typed (like `SchemeParseError`) so servers
/// building configurations from untrusted request bodies can reject a bad
/// one with a clean 4xx instead of hitting an `expect` in the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `n_cores` outside the supported 1..=256 range.
    CoreCountOutOfRange { n_cores: usize },
    /// More memory shards than L2 banks to partition across them.
    ShardsExceedBanks { mem_shards: usize, n_banks: usize },
    /// A core pipeline width, the ROB, the LSQ or the fetch queue is zero.
    ZeroCoreResource,
    /// The branch-predictor table size is not a power of two.
    BpredNotPowerOfTwo { bpred_entries: usize },
    /// Zero MSHRs or a zero-entry store buffer.
    ZeroMemResource,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::CoreCountOutOfRange { n_cores } => {
                write!(f, "n_cores {n_cores} out of range 1..=256")
            }
            ConfigError::ShardsExceedBanks { mem_shards, n_banks } => {
                write!(f, "mem_shards {mem_shards} exceeds the {n_banks} L2 banks")
            }
            ConfigError::ZeroCoreResource => {
                write!(f, "core widths, ROB, LSQ and fetch queue must be nonzero")
            }
            ConfigError::BpredNotPowerOfTwo { bpred_entries } => {
                write!(f, "bpred_entries {bpred_entries} not a power of two")
            }
            ConfigError::ZeroMemResource => write!(f, "MSHRs and store buffer must be nonzero"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// When the simulation stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCondition {
    /// All workload threads called `exit`.
    ProgramExit,
    /// Stop once this many instructions have been committed inside the
    /// region of interest, across all cores (the paper simulates 100 M).
    RoiInstructions(u64),
}

/// Full configuration of one simulation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TargetConfig {
    /// Number of target cores (8 throughout the paper's evaluation).
    pub n_cores: usize,
    /// Per-core microarchitecture.
    pub core: CoreConfig,
    /// Memory hierarchy.
    pub mem: MemConfig,
    /// Stop condition.
    pub stop: StopCondition,
    /// Hard safety limit on simulated cycles (deadlock backstop).
    pub max_cycles: u64,
    /// Detect conflicting-access reorderings (paper §3.2.3, Fig. 7).
    pub track_workload_violations: bool,
    /// Compensate detected Store/Load reorderings by fast-forwarding
    /// (paper §3.2.3; SlackSim itself did *not* compensate — off by
    /// default to match).
    pub fast_forward_compensation: bool,
    /// Record the manager's slack profile ([`SimReport::slack_profile`]:
    /// sampled global time and observed slack). Such runs cannot be
    /// snapshotted.
    ///
    /// [`SimReport::slack_profile`]: crate::SimReport::slack_profile
    pub record_trace: bool,
    /// Number of sharded memory managers (0 = the classic single
    /// manager of the paper's Figure 1). The paper's §2.2 notes the
    /// manager can be split "into several threads" if it bottlenecks;
    /// shards partition the directory by L2 bank.
    pub mem_shards: usize,
    /// Dispatch fused superblock runs on the fast path (in-order cores).
    /// Purely a host-speed knob: the
    /// simulated timing, stats and report fingerprint are bit-identical
    /// either way (`--no-superblocks` is the escape hatch / A-B control).
    pub superblocks: bool,
}

impl TargetConfig {
    /// The paper's evaluated target: 8-core CMP, 4-way OoO cores, 16 KB
    /// L1s, 256 KB shared NUCA L2, directory MESI.
    pub fn paper_8core() -> Self {
        TargetConfig {
            n_cores: 8,
            core: CoreConfig::paper_ooo(),
            mem: MemConfig::paper_8core(),
            stop: StopCondition::ProgramExit,
            max_cycles: 2_000_000_000,
            track_workload_violations: false,
            fast_forward_compensation: false,
            record_trace: false,
            mem_shards: 0,
            superblocks: true,
        }
    }

    /// A small configuration for unit tests: 2–4 simple cores.
    pub fn small(n_cores: usize) -> Self {
        TargetConfig {
            n_cores,
            core: CoreConfig::simple_inorder(),
            mem: MemConfig::paper_8core(),
            stop: StopCondition::ProgramExit,
            max_cycles: 50_000_000,
            track_workload_violations: false,
            fast_forward_compensation: false,
            record_trace: false,
            mem_shards: 0,
            superblocks: true,
        }
    }

    /// A many-core scale-out target (64/128/256 cores): simple in-order
    /// cores over the paper memory hierarchy widened to one NUCA bank per
    /// core ([`MemConfig::many_core`]), so directory banks, interconnect
    /// channels and manager shards all scale with the core count.
    pub fn many_core(n_cores: usize) -> Self {
        TargetConfig { mem: MemConfig::many_core(n_cores), ..Self::small(n_cores) }
    }

    /// The critical latency of this target (bounds safe quantum/slack).
    pub fn critical_latency(&self) -> u64 {
        self.mem.critical_latency()
    }

    /// Structural sanity checks, run once per simulation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_cores == 0 || self.n_cores > 256 {
            return Err(ConfigError::CoreCountOutOfRange { n_cores: self.n_cores });
        }
        if self.mem_shards > self.mem.n_banks {
            return Err(ConfigError::ShardsExceedBanks {
                mem_shards: self.mem_shards,
                n_banks: self.mem.n_banks,
            });
        }
        let c = &self.core;
        let sizes = [c.fetch_width, c.issue_width, c.commit_width, c.rob_entries];
        if sizes.contains(&0) || c.lsq_entries == 0 || c.fetch_queue == 0 {
            return Err(ConfigError::ZeroCoreResource);
        }
        if !c.bpred_entries.is_power_of_two() {
            return Err(ConfigError::BpredNotPowerOfTwo { bpred_entries: c.bpred_entries });
        }
        if self.mem.mshrs == 0 || self.core.store_buffer == 0 {
            return Err(ConfigError::ZeroMemResource);
        }
        Ok(())
    }
}

sk_snap::persist_enum!(CoreModel, "core-model" { 0 => OutOfOrder, 1 => InOrder });
sk_snap::persist_record!(CoreConfig {
    model,
    fetch_width,
    issue_width,
    commit_width,
    rob_entries,
    lsq_entries,
    fetch_queue,
    store_buffer,
    bpred_entries,
    mispredict_penalty,
});
sk_snap::persist_enum!(StopCondition, "stop-condition" {
    0 => ProgramExit,
    1 => RoiInstructions(n),
});

/// Loading runs [`TargetConfig::validate`], so a snapshot can never smuggle
/// in a structurally impossible target.
impl Persist for TargetConfig {
    fn save(&self, w: &mut Writer) {
        w.put_usize(self.n_cores);
        self.core.save(w);
        self.mem.save(w);
        self.stop.save(w);
        w.put_u64(self.max_cycles);
        w.put_bool(self.track_workload_violations);
        w.put_bool(self.fast_forward_compensation);
        w.put_bool(self.record_trace);
        w.put_usize(self.mem_shards);
        w.put_bool(self.superblocks);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let cfg = TargetConfig {
            n_cores: r.get_usize()?,
            core: CoreConfig::load(r)?,
            mem: MemConfig::load(r)?,
            stop: StopCondition::load(r)?,
            max_cycles: r.get_u64()?,
            track_workload_violations: r.get_bool()?,
            fast_forward_compensation: r.get_bool()?,
            record_trace: r.get_bool()?,
            mem_shards: r.get_usize()?,
            superblocks: r.get_bool()?,
        };
        cfg.validate().map_err(|e| SnapError::Corrupt(e.to_string()))?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_4_1() {
        let t = TargetConfig::paper_8core();
        assert_eq!(t.n_cores, 8);
        assert_eq!(t.core.rob_entries, 64);
        assert_eq!(t.core.issue_width, 4);
        assert_eq!(t.mem.l1d.size_bytes, 16 * 1024);
        assert_eq!(t.critical_latency(), 10);
    }

    #[test]
    fn many_core_targets_validate() {
        for n in [64, 128, 256] {
            let t = TargetConfig::many_core(n);
            assert_eq!(t.n_cores, n);
            assert_eq!(t.mem.n_banks, n);
            assert!(t.validate().is_ok(), "{n}-core target must validate");
        }
    }

    #[test]
    fn validation_errors_are_typed() {
        let mut t = TargetConfig::small(2);
        t.n_cores = 257;
        assert_eq!(t.validate(), Err(ConfigError::CoreCountOutOfRange { n_cores: 257 }));
        let mut t = TargetConfig::small(2);
        t.mem_shards = t.mem.n_banks + 1;
        assert!(matches!(t.validate(), Err(ConfigError::ShardsExceedBanks { .. })));
        for zero in [
            |c: &mut CoreConfig| c.rob_entries = 0,
            |c: &mut CoreConfig| c.commit_width = 0,
            |c: &mut CoreConfig| c.lsq_entries = 0,
            |c: &mut CoreConfig| c.fetch_queue = 0,
        ] {
            let mut t = TargetConfig::small(2);
            zero(&mut t.core);
            assert_eq!(t.validate(), Err(ConfigError::ZeroCoreResource), "{:?}", t.core);
        }
        let mut t = TargetConfig::small(2);
        t.core.bpred_entries = 1000;
        assert_eq!(t.validate(), Err(ConfigError::BpredNotPowerOfTwo { bpred_entries: 1000 }));
        let mut t = TargetConfig::small(2);
        t.core.store_buffer = 0;
        assert_eq!(t.validate(), Err(ConfigError::ZeroMemResource));
        // Display stays human-actionable for API error bodies.
        assert!(ConfigError::ZeroCoreResource.to_string().contains("nonzero"));
    }

    #[test]
    fn fu_latencies_are_positive_and_classified() {
        let c = CoreConfig::paper_ooo();
        for class in [
            FuClass::IntAlu,
            FuClass::IntMul,
            FuClass::IntDiv,
            FuClass::FpAdd,
            FuClass::FpMul,
            FuClass::FpDiv,
            FuClass::FpSqrt,
            FuClass::Load,
            FuClass::Store,
            FuClass::Branch,
            FuClass::Jump,
            FuClass::Syscall,
            FuClass::Nop,
        ] {
            assert!(c.fu_latency(class) >= 1);
            assert!(c.fu_count(class) >= 1);
        }
        assert!(!c.fu_pipelined(FuClass::IntDiv));
        assert!(c.fu_pipelined(FuClass::IntMul));
    }
}
