//! Core timing models.
//!
//! Two interchangeable models implement [`Cpu`]:
//!
//! * [`ooo::OooCpu`] — the paper's 4-way out-of-order, 64-in-flight,
//!   NetBurst-like core (§2.2, §4.1), with bimodal branch prediction, a
//!   load/store queue with forwarding, non-blocking L1D through MSHRs and a
//!   post-commit store buffer;
//! * [`inorder::InOrderCpu`] — a single-issue core that stalls on misses.
//!
//! A model interacts with the world only through [`CoreHost`], implemented
//! by the core thread (`crate::core_thread`): functional memory accesses
//! (timestamped, so violation tracking sees them), OutQ event emission, and
//! the syscall protocol. Incoming InQ messages are applied by the core
//! thread through the `Cpu` trait's reply methods.
//!
//! The core thread holds its model as a [`CpuModel`], which forwards every
//! `Cpu` method with a `match`, so the per-cycle calls are static.

pub mod bpred;
pub mod inorder;
pub mod ooo;

use crate::stats::CoreStats;
use inorder::InOrderCpu;
use ooo::OooCpu;
use sk_mem::{BlockAddr, LineState};
use sk_snap::{Reader, SnapError, Writer};

/// Disposition of a syscall, as decided by the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SysOutcome {
    /// Completed; optionally write a return value to `a0`.
    Done(Option<u64>),
    /// In flight (sync reply pending or spin-wait); poll again next cycle.
    Pending,
    /// The workload thread exits.
    Exit,
}

/// Services the core thread provides to its CPU model.
pub trait CoreHost {
    /// Functional load of one word at simulated time `ts`.
    fn load(&mut self, addr: u64, ts: u64) -> u64;
    /// Functional store of one word at simulated time `ts`.
    fn store(&mut self, addr: u64, val: u64, ts: u64);
    /// Read an instruction word (not violation-tracked: text is immutable).
    fn fetch_word(&mut self, addr: u64) -> u64;
    /// Predecoded instruction at `pc`, when the host carries a predecode
    /// table covering it. `None` sends the model down the
    /// `fetch_word` + `decode` path, which keeps runaway-PC / bad-fetch
    /// semantics identical for PCs outside the text segment.
    fn decoded(&mut self, pc: u64) -> Option<sk_isa::DecodedInstr> {
        let _ = pc;
        None
    }
    /// Emit an OutQ event (the host stamps timestamp and sequence).
    fn emit(&mut self, kind: crate::msg::OutKind);
    /// A syscall reached the commit point. `args` are `a0..a3`.
    fn sys_start(&mut self, code: u16, args: [u64; 4], now: u64) -> SysOutcome;
    /// Poll a pending syscall.
    fn sys_poll(&mut self, now: u64) -> SysOutcome;
}

/// Superblock dispatch telemetry, accumulated by a [`Cpu`] model and
/// drained into `sk-obs` by the core thread once per batch. Purely
/// observational: none of these counts feed back into timing or into
/// [`CoreStats`] (which must stay bit-identical with superblocks off).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SbEvents {
    /// Run ended on its anchoring control-flow instruction.
    pub exit_branch: u64,
    /// Run cancelled because the core left the Ready phase (L1 miss,
    /// I-fetch miss, or any stall that parks the pipeline mid-run).
    pub exit_miss: u64,
    /// Run ended at a syscall that went Pending (sync / spin-wait).
    pub exit_sync: u64,
    /// Run ended at a syscall that completed immediately.
    pub exit_syscall: u64,
    /// Run split at the slack-window edge (budget exhausted mid-run);
    /// the run resumes in the next batch, so nothing is cancelled.
    pub exit_window: u64,
    /// Run ended by falling back to live decode (off-table pc, refused
    /// instruction, or bad fetch).
    pub exit_fallback: u64,
    /// Histogram of dynamic run lengths: `len_counts[n]` counts runs
    /// that retired `n` uops before exiting (index 0 collects runs cut
    /// before their first uop; the last bucket clamps longer runs).
    pub len_counts: [u64; 65],
}

impl Default for SbEvents {
    fn default() -> Self {
        SbEvents {
            exit_branch: 0,
            exit_miss: 0,
            exit_sync: 0,
            exit_syscall: 0,
            exit_window: 0,
            exit_fallback: 0,
            len_counts: [0; 65],
        }
    }
}

impl SbEvents {
    /// Record a completed (or cancelled) run of dynamic length `len`.
    pub fn record_len(&mut self, len: u16) {
        self.len_counts[(len as usize).min(64)] += 1;
    }

    /// True when nothing has been recorded since the last [`Self::clear`].
    pub fn is_empty(&self) -> bool {
        self == &SbEvents::default()
    }

    /// Reset all counters (after the core thread drained them).
    pub fn clear(&mut self) {
        *self = SbEvents::default();
    }
}

/// Per-cycle context handed to [`Cpu::step`].
pub struct CpuCtx<'a> {
    /// The cycle being simulated (local time + 1).
    pub now: u64,
    /// Host services.
    pub host: &'a mut dyn CoreHost,
    /// Statistics sink.
    pub stats: &'a mut CoreStats,
}

/// A core timing model.
pub trait Cpu: Send {
    /// Simulate one cycle.
    fn step(&mut self, ctx: &mut CpuCtx<'_>);

    /// Begin executing a workload thread.
    fn start_thread(&mut self, entry: u64, arg: u64, tid: u32);

    /// Has a thread been started on this core?
    fn running(&self) -> bool;

    /// Did the workload thread exit?
    fn finished(&self) -> bool;

    /// A data-cache miss reply: install `block` as `granted` effective at
    /// simulated time `ts` (already clamped to ≥ local by the caller).
    fn mem_reply(&mut self, block: BlockAddr, granted: LineState, ts: u64);

    /// An instruction-cache miss reply.
    fn imem_reply(&mut self, block: BlockAddr, ts: u64);

    /// An incoming invalidation (`downgrade` = keep a Shared copy).
    fn invalidate(&mut self, block: BlockAddr, downgrade: bool);

    /// Extra idle cycles to absorb (fast-forward compensation).
    fn add_stall(&mut self, cycles: u64);

    /// Cycles from `now` on that [`Cpu::step`] would spend only booking a
    /// stall if no InQ message applied meanwhile (`next_msg`: the earliest
    /// queued one's timestamp). 0, the default, when it may do more.
    fn quiet_cycles(&self, _now: u64, _next_msg: Option<u64>) -> u64 {
        0
    }

    /// Book `k ≤ quiet_cycles(now, ..)` cycles as `k` steps from `now` would.
    fn skip_quiet(&mut self, _k: u64, _stats: &mut CoreStats) {
        unreachable!("a model without quiet cycles is never asked to skip one");
    }

    /// Copy cache counters into `stats` (called once at end of run).
    fn flush_cache_stats(&self, stats: &mut CoreStats);

    /// Is the pipeline completely drained (used by tests)?
    fn quiesced(&self) -> bool;

    /// Serialize all dynamic state (registers, pipeline, caches, MSHRs) to
    /// `w`. Static configuration is *not* written: a restored CPU is first
    /// constructed from the snapshot's [`crate::TargetConfig`], then
    /// [`Cpu::restore_state`] overwrites its dynamic state. The pipeline
    /// need not be drained — in-flight ROB entries, MSHRs and store buffers
    /// round-trip exactly.
    fn save_state(&self, w: &mut Writer);

    /// Restore dynamic state previously written by [`Cpu::save_state`] on
    /// a CPU constructed with the same configuration. Returns an error
    /// (never panics) on corrupt input.
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError>;

    /// One-line diagnostic of the pipeline state (for stall debugging).
    fn debug_state(&self) -> String {
        String::new()
    }

    /// Hand the model a superblock table for its fused fast path. Models
    /// without one ignore it: the out-of-order core fetches, predicts and
    /// dispatches every instruction individually.
    fn attach_superblocks(&mut self, table: std::sync::Arc<sk_isa::SuperblockTable>) {
        let _ = table;
    }

    /// Superblock telemetry accumulated since the last drain, if this
    /// model dispatches through superblocks.
    fn sb_events(&mut self) -> Option<&mut SbEvents> {
        None
    }

    /// Is a fused run currently suspended mid-block (so a batch boundary
    /// here is a window split, not a natural exit)?
    fn sb_mid_run(&self) -> bool {
        false
    }
}

/// The model one simulated core runs, as a closed set: the core thread
/// calls it through this enum rather than a `Box<dyn Cpu>`, so `step` and
/// the per-cycle getters are direct calls the compiler can inline. The
/// in-order core sits inline, next to the fields the batch loop reads, on
/// purpose (hence the lint allowance); the out-of-order core, a third
/// larger, stays boxed.
#[allow(clippy::large_enum_variant)]
pub enum CpuModel {
    /// [`InOrderCpu`].
    InOrder(InOrderCpu),
    /// [`OooCpu`].
    Ooo(Box<OooCpu>),
}

/// `$body` with `$c` bound to the model inside `$model`, whichever it is.
macro_rules! each_model {
    ($model:expr, $c:ident => $body:expr) => {
        match $model {
            CpuModel::InOrder($c) => $body,
            CpuModel::Ooo($c) => $body,
        }
    };
}

/// Every method forwards, the defaulted ones too: a missed forward would
/// fall back to the trait default without any simulated outcome showing it
/// (quiet skips and superblocks are invisible by design).
impl Cpu for CpuModel {
    #[inline]
    fn step(&mut self, ctx: &mut CpuCtx<'_>) {
        each_model!(self, c => c.step(ctx))
    }
    fn start_thread(&mut self, entry: u64, arg: u64, tid: u32) {
        each_model!(self, c => c.start_thread(entry, arg, tid))
    }
    #[inline]
    fn running(&self) -> bool {
        each_model!(self, c => c.running())
    }
    #[inline]
    fn finished(&self) -> bool {
        each_model!(self, c => c.finished())
    }
    fn mem_reply(&mut self, block: BlockAddr, granted: LineState, ts: u64) {
        each_model!(self, c => c.mem_reply(block, granted, ts))
    }
    fn imem_reply(&mut self, block: BlockAddr, ts: u64) {
        each_model!(self, c => c.imem_reply(block, ts))
    }
    fn invalidate(&mut self, block: BlockAddr, downgrade: bool) {
        each_model!(self, c => c.invalidate(block, downgrade))
    }
    fn add_stall(&mut self, cycles: u64) {
        each_model!(self, c => c.add_stall(cycles))
    }
    #[inline]
    fn quiet_cycles(&self, now: u64, next_msg: Option<u64>) -> u64 {
        each_model!(self, c => c.quiet_cycles(now, next_msg))
    }
    fn skip_quiet(&mut self, k: u64, stats: &mut CoreStats) {
        each_model!(self, c => c.skip_quiet(k, stats))
    }
    fn flush_cache_stats(&self, stats: &mut CoreStats) {
        each_model!(self, c => c.flush_cache_stats(stats))
    }
    fn quiesced(&self) -> bool {
        each_model!(self, c => c.quiesced())
    }
    fn save_state(&self, w: &mut Writer) {
        each_model!(self, c => c.save_state(w))
    }
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        each_model!(self, c => c.restore_state(r))
    }
    fn debug_state(&self) -> String {
        each_model!(self, c => c.debug_state())
    }
    fn attach_superblocks(&mut self, table: std::sync::Arc<sk_isa::SuperblockTable>) {
        each_model!(self, c => c.attach_superblocks(table))
    }
    fn sb_events(&mut self) -> Option<&mut SbEvents> {
        each_model!(self, c => c.sb_events())
    }
    #[inline]
    fn sb_mid_run(&self) -> bool {
        each_model!(self, c => c.sb_mid_run())
    }
}

/// Host-work units contributed by one simulated cycle, used by the
/// virtual-host trace (rough proxy: how much host CPU this cycle costs).
pub fn cycle_work(committed: u64, issued: u64, fetched: u64, events: u64) -> u16 {
    // Base cost of ticking the pipeline + per-activity increments. The
    // absolute scale is arbitrary; the virtual host only uses ratios.
    let w = 2 + committed * 2 + issued + fetched + events * 6;
    w.min(u16::MAX as u64) as u16
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! A minimal single-core harness: fixed-latency memory replies, no
    //! manager thread, print/exit syscalls only. Used by the CPU models'
    //! unit tests; full-system behaviour is tested through the engine.

    use super::*;
    use crate::config::TargetConfig;
    use crate::msg::OutKind;
    use sk_isa::{Program, Syscall};
    use sk_mem::l1::ReqKind;
    use sk_mem::FuncMemory;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Pending reply to deliver to the CPU at a future cycle.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Reply {
        DMem { block: BlockAddr, granted: LineState },
        IMem { block: BlockAddr },
    }

    pub struct TestHost {
        pub mem: FuncMemory,
        pub printed: Vec<i64>,
        pub queued: BinaryHeap<Reverse<(u64, u64, ReplyBox)>>,
        pub seq: u64,
        pub mem_latency: u64,
        pub now: u64,
    }

    // BinaryHeap needs Ord; wrap Reply.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    pub struct ReplyBox(pub u64, pub u8); // (block, kind+granted tag)

    impl ReplyBox {
        fn pack(r: Reply) -> Self {
            match r {
                Reply::DMem { block, granted } => ReplyBox(
                    block,
                    match granted {
                        LineState::Shared => 0,
                        LineState::Exclusive => 1,
                        LineState::Modified => 2,
                    },
                ),
                Reply::IMem { block } => ReplyBox(block, 3),
            }
        }
        fn unpack(self) -> Reply {
            match self.1 {
                0 => Reply::DMem { block: self.0, granted: LineState::Shared },
                1 => Reply::DMem { block: self.0, granted: LineState::Exclusive },
                2 => Reply::DMem { block: self.0, granted: LineState::Modified },
                _ => Reply::IMem { block: self.0 },
            }
        }
    }

    impl CoreHost for TestHost {
        fn load(&mut self, addr: u64, _ts: u64) -> u64 {
            self.mem.read(addr)
        }
        fn store(&mut self, addr: u64, val: u64, _ts: u64) {
            self.mem.write(addr, val);
        }
        fn fetch_word(&mut self, addr: u64) -> u64 {
            self.mem.read(addr)
        }
        fn emit(&mut self, kind: OutKind) {
            let reply = match kind {
                OutKind::DMem { req, block } => match req {
                    ReqKind::GetS => Some(Reply::DMem { block, granted: LineState::Exclusive }),
                    ReqKind::GetM | ReqKind::Upgrade => {
                        Some(Reply::DMem { block, granted: LineState::Modified })
                    }
                    ReqKind::PutS | ReqKind::PutM => None,
                },
                OutKind::IMem { block } => Some(Reply::IMem { block }),
                _ => None,
            };
            if let Some(r) = reply {
                self.seq += 1;
                self.queued.push(Reverse((
                    self.now + self.mem_latency,
                    self.seq,
                    ReplyBox::pack(r),
                )));
            }
        }
        fn sys_start(&mut self, code: u16, args: [u64; 4], now: u64) -> SysOutcome {
            match Syscall::from_code(code) {
                Some(Syscall::Exit) => SysOutcome::Exit,
                Some(Syscall::PrintInt) => {
                    self.printed.push(args[0] as i64);
                    SysOutcome::Done(None)
                }
                Some(Syscall::PrintFloat) => {
                    self.printed.push(f64::from_bits(args[0]) as i64);
                    SysOutcome::Done(None)
                }
                Some(Syscall::GetTid) => SysOutcome::Done(Some(0)),
                Some(Syscall::GetNcores) => SysOutcome::Done(Some(1)),
                Some(Syscall::ReadCycle) => SysOutcome::Done(Some(now)),
                Some(Syscall::Cas) => {
                    // Single-core host: apply directly.
                    let addr = args[0] & !7;
                    let old = self.mem.read(addr);
                    if old == args[1] {
                        self.mem.write(addr, args[2]);
                    }
                    SysOutcome::Done(Some(old))
                }
                other => panic!("syscall {other:?} unsupported in the CPU unit-test host"),
            }
        }
        fn sys_poll(&mut self, _now: u64) -> SysOutcome {
            unreachable!("TestHost never returns Pending")
        }
    }

    impl TestHost {
        /// A host with `program` loaded and nothing in flight.
        pub fn new(program: &Program, cfg: &TargetConfig) -> Self {
            let host = TestHost {
                mem: FuncMemory::new(),
                printed: vec![],
                queued: BinaryHeap::new(),
                seq: 0,
                mem_latency: cfg.mem.critical_latency(),
                now: 0,
            };
            host.mem.load(program.image());
            host
        }

        /// Deliver the replies due by `now`, then simulate cycle `now`.
        pub fn cycle(&mut self, cpu: &mut dyn Cpu, stats: &mut CoreStats, now: u64) {
            self.now = now;
            while let Some(&Reverse((ts, _, rb))) = self.queued.peek() {
                if ts > now {
                    break;
                }
                self.queued.pop();
                match rb.unpack() {
                    Reply::DMem { block, granted } => cpu.mem_reply(block, granted, ts),
                    Reply::IMem { block } => cpu.imem_reply(block, ts),
                }
            }
            cpu.step(&mut CpuCtx { now, host: self, stats });
            stats.cycles = now;
        }
    }

    /// Run `program` on a freshly constructed CPU until the thread exits
    /// (panics after `max_cycles`). Returns the host and core stats.
    pub fn run_to_exit(
        ctor: impl Fn(&TargetConfig) -> Box<dyn Cpu>,
        program: &Program,
        max_cycles: u64,
    ) -> (TestHost, CoreStats) {
        let cfg = TargetConfig::small(1);
        let mut cpu = ctor(&cfg);
        let mut host = TestHost::new(program, &cfg);
        cpu.start_thread(program.entry, 0, 0);
        let mut stats = CoreStats::default();
        for now in 1..=max_cycles {
            host.cycle(cpu.as_mut(), &mut stats, now);
            if cpu.finished() {
                cpu.flush_cache_stats(&mut stats);
                return (host, stats);
            }
        }
        panic!("program did not exit within {max_cycles} cycles");
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn cycle_work_scales_with_activity() {
        use super::cycle_work;
        assert!(cycle_work(0, 0, 0, 0) > 0, "idle cycles still cost host work");
        assert!(cycle_work(4, 4, 4, 0) > cycle_work(0, 0, 0, 0));
        assert!(cycle_work(0, 0, 0, 2) > cycle_work(0, 0, 0, 0));
    }
}
