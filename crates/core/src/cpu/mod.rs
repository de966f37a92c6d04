//! Core timing models.
//!
//! A simulated core is one `CoreShell` — static core parameters, thread
//! state, the two L1s with their coherence bookkeeping, the compensation
//! stall — embedded in one of two pipelines:
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
//! the syscall protocol. The core thread holds its model as a [`CpuModel`],
//! a closed enum whose inherent methods are the only interface: it applies
//! incoming InQ messages through its reply methods, and every per-cycle
//! call is static.

pub mod bpred;
pub mod inorder;
pub mod ooo;

use crate::config::{CoreConfig, CoreModel, TargetConfig};
use crate::msg::OutKind;
use crate::stats::CoreStats;
use inorder::InOrderCpu;
use ooo::OooCpu;
use sk_isa::{layout, Reg, SuperblockTable};
use sk_mem::l1::ReqKind;
use sk_mem::{BlockAddr, L1Cache, LineState};
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::sync::Arc;

/// Disposition of a syscall, as decided by the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SysOutcome {
    /// Completed; optionally write a return value to `a0`.
    Done(Option<u64>),
    /// In flight (the manager's sync reply is pending); poll again next
    /// cycle.
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
    fn emit(&mut self, kind: OutKind);
    /// A syscall reached the commit point. `args` are `a0..a3`.
    fn sys_start(&mut self, code: u16, args: [u64; 4], now: u64) -> SysOutcome;
    /// Poll a pending syscall.
    fn sys_poll(&mut self, now: u64) -> SysOutcome;
}

/// Superblock dispatch telemetry, accumulated by the in-order model and
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
    /// Run ended at a syscall that went Pending (awaiting a sync reply).
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

/// Per-cycle context handed to [`CpuModel::step`].
pub struct CpuCtx<'a> {
    /// The cycle being simulated (local time + 1).
    pub now: u64,
    /// Host services.
    pub host: &'a mut dyn CoreHost,
    /// Statistics sink.
    pub stats: &'a mut CoreStats,
}

/// What every core carries whichever pipeline it runs: the static core
/// parameters, the architectural thread state, the two L1s with the
/// coherence bookkeeping around them, and the compensation stall. Both
/// models embed one; [`CpuModel`] saves and restores it.
struct CoreShell {
    cfg: CoreConfig,
    l1_hit_lat: u64,
    pc: u64,
    regs: [u64; 32],
    fregs: [f64; 32],
    running: bool,
    finished: bool,
    l1i: L1Cache,
    l1d: L1Cache,
    /// Fast-forward compensation cycles still to burn.
    extra_stall: u64,
    /// L1D victims whose write-back / eviction notice goes out next cycle.
    pending_evictions: Vec<(ReqKind, BlockAddr)>,
    /// Blocks invalidated while their fill was outstanding; the fill is
    /// immediately undone to keep directory bookkeeping authoritative.
    inv_while_pending: Vec<BlockAddr>,
}

impl CoreShell {
    fn new(cfg: &TargetConfig) -> Self {
        CoreShell {
            cfg: cfg.core,
            l1_hit_lat: cfg.mem.l1_hit_lat,
            pc: 0,
            regs: [0; 32],
            fregs: [0.0; 32],
            running: false,
            finished: false,
            l1i: L1Cache::new(cfg.mem.l1i),
            l1d: L1Cache::new(cfg.mem.l1d),
            extra_stall: 0,
            pending_evictions: Vec::new(),
            inv_while_pending: Vec::new(),
        }
    }

    #[inline]
    fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Write integer register `r` (writes to `zero` are dropped).
    #[inline]
    fn set_reg(&mut self, r: Reg, v: u64) {
        self.set_idx(r.0, v);
    }

    #[inline]
    fn set_idx(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// The work every cycle starts with, in either pipeline: send last
    /// cycle's evictions, then book the cycle as idle (no thread) or as a
    /// compensation stall. True when the pipeline runs this cycle.
    #[inline]
    fn begin_cycle(&mut self, ctx: &mut CpuCtx<'_>) -> bool {
        for (kind, block) in self.pending_evictions.drain(..) {
            ctx.host.emit(OutKind::DMem { req: kind, block });
        }
        if !self.running || self.finished {
            ctx.stats.idle_cycles += 1;
            return false;
        }
        if self.extra_stall > 0 {
            self.extra_stall -= 1;
            ctx.stats.ff_stall_cycles += 1;
            return false;
        }
        true
    }

    /// Install a data fill, queue the victim's notice, and undo the fill at
    /// once if the block was invalidated while it was outstanding.
    fn fill_tracked(&mut self, block: BlockAddr, granted: LineState) {
        if let Some(e) = self.l1d.fill(block, granted) {
            self.pending_evictions.push((e.kind, e.block));
        }
        if let Some(pos) = self.inv_while_pending.iter().position(|&b| b == block) {
            self.inv_while_pending.swap_remove(pos);
            self.l1d.apply_invalidate(block);
        }
    }

    /// Drop `block` from both L1s; `fill_pending` (the pipeline's answer)
    /// remembers it for the fill still on its way.
    fn invalidate(&mut self, block: BlockAddr, fill_pending: bool) {
        if fill_pending {
            self.inv_while_pending.push(block);
        }
        self.l1d.apply_invalidate(block);
        self.l1i.apply_invalidate(block);
    }
}

/// The model one simulated core runs, as a closed set: the core thread
/// calls it through this enum, so `step` and the per-cycle getters are
/// direct calls the compiler can inline. What both models share is one
/// `CoreShell` each embeds and the methods below handle; what only one
/// model has is answered here for the other, so a new method is a compile
/// error until every model answers it. The in-order core sits inline,
/// next to the fields the batch loop reads, on purpose (hence the lint
/// allowance); the out-of-order core, several times larger, stays boxed.
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

impl CpuModel {
    /// An idle core (no thread started) of the model `cfg.core` names.
    pub fn new(cfg: &TargetConfig) -> Self {
        match cfg.core.model {
            CoreModel::OutOfOrder => CpuModel::Ooo(Box::new(OooCpu::new(cfg))),
            CoreModel::InOrder => CpuModel::InOrder(InOrderCpu::new(cfg)),
        }
    }

    #[inline]
    fn shell(&self) -> &CoreShell {
        each_model!(self, c => &c.sh)
    }

    #[inline]
    fn shell_mut(&mut self) -> &mut CoreShell {
        each_model!(self, c => &mut c.sh)
    }

    /// Simulate one cycle.
    #[inline]
    pub fn step(&mut self, ctx: &mut CpuCtx<'_>) {
        each_model!(self, c => {
            if c.sh.begin_cycle(ctx) {
                c.step(ctx)
            }
        })
    }

    /// Begin executing a workload thread.
    pub fn start_thread(&mut self, entry: u64, arg: u64, tid: u32) {
        let sh = self.shell_mut();
        sh.pc = entry;
        sh.regs = [0; 32];
        sh.fregs = [0.0; 32];
        sh.set_reg(Reg::arg(0), arg);
        sh.set_reg(Reg::TP, tid as u64);
        sh.set_reg(Reg::SP, layout::stack_top(tid as usize));
        sh.set_reg(Reg::GP, layout::DATA_BASE);
        sh.running = true;
        if let CpuModel::InOrder(c) = self {
            c.reset_run();
        }
    }

    /// Has a thread been started on this core?
    #[inline]
    pub fn running(&self) -> bool {
        self.shell().running
    }

    /// Did the workload thread exit?
    #[inline]
    pub fn finished(&self) -> bool {
        self.shell().finished
    }

    /// A data-cache miss reply: install `block` as `granted` effective at
    /// simulated time `ts` (already clamped to ≥ local by the caller).
    pub fn mem_reply(&mut self, block: BlockAddr, granted: LineState, ts: u64) {
        each_model!(self, c => {
            c.sh.fill_tracked(block, granted);
            c.wake_on_fill(block, ts)
        })
    }

    /// An instruction-cache miss reply.
    pub fn imem_reply(&mut self, block: BlockAddr, ts: u64) {
        each_model!(self, c => {
            c.sh.l1i.fill(block, LineState::Shared);
            c.wake_on_ifill(block, ts)
        })
    }

    /// An incoming invalidation (`downgrade` = keep a Shared copy).
    pub fn invalidate(&mut self, block: BlockAddr, downgrade: bool) {
        each_model!(self, c => {
            if downgrade {
                c.sh.l1d.apply_downgrade(block);
            } else {
                let fill_pending = c.fill_pending(block);
                c.sh.invalidate(block, fill_pending);
            }
        })
    }

    /// Extra idle cycles to absorb (fast-forward compensation).
    pub fn add_stall(&mut self, cycles: u64) {
        self.shell_mut().extra_stall += cycles;
    }

    /// Cycles from `now` on that [`CpuModel::step`] would spend only
    /// booking a stall if no InQ message applied meanwhile (`next_msg`: the
    /// earliest queued one's timestamp). 0 when it may do more; always 0
    /// for the out-of-order core, whose stages run every cycle.
    #[inline]
    pub fn quiet_cycles(&self, now: u64, next_msg: Option<u64>) -> u64 {
        match self {
            CpuModel::InOrder(c) => c.quiet_cycles(now, next_msg),
            CpuModel::Ooo(_) => 0,
        }
    }

    /// Book `k ≤ quiet_cycles(now, ..)` cycles as `k` steps from `now` would.
    pub fn skip_quiet(&mut self, k: u64, stats: &mut CoreStats) {
        let sh = self.shell_mut();
        if sh.extra_stall > 0 {
            sh.extra_stall -= k;
            stats.ff_stall_cycles += k;
        } else {
            stats.stall_cycles += k;
        }
    }

    /// Copy cache counters into `stats` (called once at end of run).
    pub fn flush_cache_stats(&self, stats: &mut CoreStats) {
        let sh = self.shell();
        stats.l1d = sh.l1d.stats();
        stats.l1i = sh.l1i.stats();
    }

    /// Serialize all dynamic state (registers, pipeline, caches, MSHRs) to
    /// `w`. Static configuration is *not* written: a restored CPU is first
    /// constructed from the snapshot's [`TargetConfig`], then
    /// [`CpuModel::restore_state`] overwrites its dynamic state. The
    /// pipeline need not be drained — in-flight ROB entries, MSHRs and
    /// store buffers round-trip exactly. The shell's fields frame the
    /// model's own: thread state, the out-of-order window, the L1s, the
    /// pipeline, then the stall and the coherence bookkeeping.
    pub fn save_state(&self, w: &mut Writer) {
        let sh = self.shell();
        w.put_u64(sh.pc);
        sh.regs.save(w);
        sh.fregs.save(w);
        w.put_bool(sh.running);
        w.put_bool(sh.finished);
        if let CpuModel::Ooo(c) = self {
            c.save_window(w);
        }
        sh.l1i.save(w);
        sh.l1d.save(w);
        each_model!(self, c => c.save_pipeline(w));
        w.put_u64(sh.extra_stall);
        sh.pending_evictions.save(w);
        sh.inv_while_pending.save(w);
    }

    /// Restore dynamic state previously written by [`CpuModel::save_state`]
    /// on a CPU constructed with the same configuration. Returns an error
    /// (never panics) on corrupt input.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let sh = self.shell_mut();
        sh.pc = r.get_u64()?;
        sh.regs = Persist::load(r)?;
        sh.fregs = Persist::load(r)?;
        sh.running = r.get_bool()?;
        sh.finished = r.get_bool()?;
        if let CpuModel::Ooo(c) = self {
            c.restore_window(r)?;
        }
        let sh = self.shell_mut();
        sh.l1i = L1Cache::load(r)?;
        sh.l1d = L1Cache::load(r)?;
        each_model!(&mut *self, c => c.restore_pipeline(r))?;
        let sh = self.shell_mut();
        sh.extra_stall = r.get_u64()?;
        sh.pending_evictions = Vec::load(r)?;
        sh.inv_while_pending = Vec::load(r)?;
        Ok(())
    }

    /// One-line diagnostic of the pipeline state (for stall debugging);
    /// empty for the in-order core, whose state is one phase.
    pub fn debug_state(&self) -> String {
        match self {
            CpuModel::InOrder(_) => String::new(),
            CpuModel::Ooo(c) => c.debug_state(),
        }
    }

    /// Hand the model a superblock table for its fused fast path. The
    /// out-of-order core ignores it: it fetches, predicts and dispatches
    /// every instruction individually.
    pub fn attach_superblocks(&mut self, table: Arc<SuperblockTable>) {
        if let CpuModel::InOrder(c) = self {
            c.sbt = Some(table);
        }
    }

    /// Superblock telemetry accumulated since the last drain, if this
    /// model dispatches through superblocks.
    #[inline]
    pub fn sb_events(&mut self) -> Option<&mut SbEvents> {
        match self {
            CpuModel::InOrder(c) => c.sb_events(),
            CpuModel::Ooo(_) => None,
        }
    }

    /// Is a fused run currently suspended mid-block (so a batch boundary
    /// here is a window split, not a natural exit)?
    #[inline]
    pub fn sb_mid_run(&self) -> bool {
        match self {
            CpuModel::InOrder(c) => c.sb_mid_run(),
            CpuModel::Ooo(_) => false,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! A minimal single-core harness: fixed-latency memory replies, no
    //! manager thread, print/exit syscalls only. Used by the CPU models'
    //! unit tests; full-system behaviour is tested through the engine.

    use super::*;
    use sk_isa::{Program, Syscall};
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
        pub fn cycle(&mut self, cpu: &mut CpuModel, stats: &mut CoreStats, now: u64) {
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

    /// Run `program` on a freshly constructed CPU of `cfg.core.model` until
    /// the thread exits (panics after `max_cycles`). Returns the host and
    /// core stats.
    pub fn run_to_exit(
        cfg: &TargetConfig,
        program: &Program,
        max_cycles: u64,
    ) -> (TestHost, CoreStats) {
        let mut cpu = CpuModel::new(cfg);
        let mut host = TestHost::new(program, cfg);
        cpu.start_thread(program.entry, 0, 0);
        let mut stats = CoreStats::default();
        for now in 1..=max_cycles {
            host.cycle(&mut cpu, &mut stats, now);
            if cpu.finished() {
                cpu.flush_cache_stats(&mut stats);
                return (host, stats);
            }
        }
        panic!("program did not exit within {max_cycles} cycles");
    }
}
