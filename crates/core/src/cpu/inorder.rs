//! Single-issue in-order core that stalls on cache misses.
//!
//! The paper notes the simplest core thread "just increment\[s\] the local
//! clock of the core if the core is a simple in-order core that stalls on a
//! cache miss" (§2.2). This model is that core: one instruction at a time,
//! blocking L1 misses, no speculation. It shares the L1/MSHR-free request
//! protocol with the OoO model and is used for ablations and fast tests.
//! A stall that only counts (busy unit, compensation, queued miss reply) is
//! advanced in one step by the core thread's batch
//! ([`CpuModel::quiet_cycles`](super::CpuModel::quiet_cycles)).

use super::{CoreShell, CpuCtx, SbEvents, SysOutcome};
use crate::config::TargetConfig;
use crate::exec::{self, Operands};
use crate::msg::OutKind;
use sk_isa::superblock::{SuperblockTable, Uop};
use sk_isa::{decode, DecodedInstr, DecodedProgram, FuClass, Instr, Reg, WORD_BYTES};
use sk_mem::l1::ReqKind;
use sk_mem::{block_of, BlockAddr, L1Outcome};
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::sync::Arc;

/// Destination of an in-flight load.
#[derive(Clone, Copy, Debug)]
enum LoadDst {
    Int(u8),
    Fp(u8),
}

#[derive(Clone, Copy, Debug)]
enum Phase {
    /// Ready to fetch/execute the next instruction.
    Ready,
    /// Waiting for an instruction-cache fill.
    WaitIFetch { block: BlockAddr, ready: Option<u64> },
    /// Waiting for a data fill to complete a load.
    WaitLoad { block: BlockAddr, addr: u64, dst: LoadDst, ready: Option<u64> },
    /// Waiting for write permission to complete a store.
    WaitStore { block: BlockAddr, addr: u64, val: u64, ready: Option<u64> },
    /// A syscall is pending at the host.
    SysPending,
}

/// The in-order core model.
pub struct InOrderCpu {
    pub(super) sh: CoreShell,
    phase: Phase,
    busy_until: u64,
    /// Static superblock table (engine-attached; shared across cores).
    pub(super) sbt: Option<Arc<SuperblockTable>>,
    /// Cursor into the fused run currently being dispatched. Derived
    /// cache over (sbt, pc): never persisted — a restored core re-enters
    /// its run through `SuperblockTable::lookup` at the saved pc, which
    /// is execution-identical because dispatch stays one uop per cycle.
    run_idx: usize,
    run_rem: u16,
    /// Dynamic length of the current run chain (telemetry only).
    sb_dyn_len: u16,
    /// The last run was cut by the length cap (or a refused successor),
    /// not by control flow: the next fetch either chains into a new run
    /// (no exit) or classifies the exit on the per-instruction path.
    sb_truncated: bool,
    /// Telemetry drained by the core thread once per batch.
    sb_events: SbEvents,
}

impl InOrderCpu {
    /// Build an idle core (no thread started).
    pub(super) fn new(cfg: &TargetConfig, text: Arc<DecodedProgram>) -> Self {
        InOrderCpu {
            sh: CoreShell::new(cfg, text),
            phase: Phase::Ready,
            busy_until: 0,
            sbt: None,
            run_idx: 0,
            run_rem: 0,
            sb_dyn_len: 0,
            sb_truncated: false,
            sb_events: SbEvents::default(),
        }
    }

    /// Abandon the current fused run (it resumes through a fresh lookup).
    #[inline]
    fn cancel_run(&mut self) {
        self.run_rem = 0;
        self.sb_truncated = false;
    }

    /// Forget the run cursor, a derived cache never snapshotted: a started
    /// or restored core re-enters its run via lookup at its pc.
    pub(super) fn reset_run(&mut self) {
        self.cancel_run();
        self.sb_dyn_len = 0;
    }

    /// Count a run exit of `kind` closing a chain of `sb_dyn_len` uops.
    #[inline]
    fn sb_exit(&mut self, kind: fn(&mut SbEvents) -> &mut u64) {
        *kind(&mut self.sb_events) += 1;
        self.sb_events.record_len(self.sb_dyn_len);
        self.sb_dyn_len = 0;
    }

    fn operands(&self, i: &DecodedInstr) -> Operands {
        let [s1, s2] = i.int_srcs;
        let [f1, f2] = i.fp_srcs;
        Operands {
            rs1: s1.map_or(0, |r| self.sh.reg(r)),
            rs2: s2.map_or(0, |r| self.sh.reg(r)),
            fs1: f1.map_or(0.0, |f| self.sh.fregs[f.index()]),
            fs2: f2.map_or(0.0, |f| self.sh.fregs[f.index()]),
            pc: self.sh.pc,
        }
    }

    /// Execute one fetched instruction: it retires this cycle, or leaves
    /// the core waiting on memory or a syscall.
    fn execute_one(&mut self, i: DecodedInstr, ctx: &mut CpuCtx<'_>) {
        let now = ctx.now;
        let ops = self.operands(&i);
        let fx = exec::execute(&i.instr, ops);
        ctx.stats.issued += 1;

        if let Instr::Syscall { code } = i.instr {
            let args = [
                self.sh.reg(Reg::arg(0)),
                self.sh.reg(Reg::arg(1)),
                self.sh.reg(Reg::arg(2)),
                self.sh.reg(Reg::arg(3)),
            ];
            match ctx.host.sys_start(code, args, now) {
                SysOutcome::Done(ret) => {
                    if let Some(v) = ret {
                        self.sh.set_reg(Reg::arg(0), v);
                    }
                    self.retire(now + 1, ctx);
                }
                SysOutcome::Pending => self.phase = Phase::SysPending,
                SysOutcome::Exit => {
                    self.sh.finished = true;
                    ctx.stats.committed += 1;
                }
            }
            return;
        }

        if let Some(mem) = fx.mem {
            if mem.is_store {
                self.store(mem.addr, mem.store_val, ctx);
            } else {
                let dst = match i.instr {
                    Instr::Fld { fd, .. } => LoadDst::Fp(fd.0),
                    _ => LoadDst::Int(i.int_dst.map_or(0, |r| r.0)),
                };
                self.load(mem.addr, dst, ctx);
            }
            return;
        }

        if let Some(br) = fx.branch {
            if let Some(v) = fx.int_result {
                if let Some(rd) = i.int_dst {
                    self.sh.set_reg(rd, v);
                }
            }
            if i.is_cond_branch() {
                ctx.stats.branches += 1;
            }
            if br.taken {
                self.sh.pc = br.target;
                // Taken control transfers cost one fetch bubble in-order.
                self.busy_until = now + 2;
            } else {
                self.sh.pc += WORD_BYTES;
                self.busy_until = now + 1;
            }
            ctx.stats.committed += 1;
            return;
        }

        if let Some(v) = fx.int_result {
            if let Some(rd) = i.int_dst {
                self.sh.set_reg(rd, v);
            }
        }
        if let Some(v) = fx.fp_result {
            if let Some(fd) = i.fp_dst {
                self.sh.fregs[fd.index()] = v;
            }
        }
        self.retire_alu(now, i.fu, ctx);
    }

    /// Retire the instruction at `pc` this cycle, holding the pipeline
    /// until `busy_until`.
    #[inline]
    fn retire(&mut self, busy_until: u64, ctx: &mut CpuCtx<'_>) {
        self.sh.pc += WORD_BYTES;
        self.busy_until = busy_until;
        ctx.stats.committed += 1;
    }

    /// Retire a non-memory, non-control instruction this cycle.
    #[inline]
    fn retire_alu(&mut self, now: u64, fu: FuClass, ctx: &mut CpuCtx<'_>) {
        self.retire(now + self.sh.cfg.fu_latency(fu), ctx);
    }

    fn write_load(&mut self, dst: LoadDst, v: u64) {
        match dst {
            LoadDst::Int(r) => self.sh.set_idx(r, v),
            LoadDst::Fp(f) => self.sh.fregs[f as usize] = f64::from_bits(v),
        }
    }

    /// A load on either dispatch route: an L1D hit retires it, a miss
    /// requests the block and waits.
    fn load(&mut self, addr: u64, dst: LoadDst, ctx: &mut CpuCtx<'_>) {
        let now = ctx.now;
        let block = block_of(addr);
        match self.sh.l1d.read(block) {
            L1Outcome::Hit => {
                let v = ctx.host.load(addr, now);
                self.write_load(dst, v);
                self.retire(now + self.sh.l1_hit_lat, ctx);
                ctx.stats.loads += 1;
            }
            _ => {
                ctx.host.emit(OutKind::DMem { req: ReqKind::GetS, block });
                self.phase = Phase::WaitLoad { block, addr, dst, ready: None };
            }
        }
    }

    /// A store on either dispatch route: a writable L1D line retires it,
    /// anything else requests write permission and waits.
    fn store(&mut self, addr: u64, val: u64, ctx: &mut CpuCtx<'_>) {
        let now = ctx.now;
        let block = block_of(addr);
        match self.sh.l1d.write(block) {
            L1Outcome::Hit => {
                ctx.host.store(addr, val, now);
                self.retire(now + self.sh.l1_hit_lat, ctx);
                ctx.stats.stores += 1;
            }
            outcome => {
                let req = if outcome == L1Outcome::MissUpgrade {
                    ReqKind::Upgrade
                } else {
                    ReqKind::GetM
                };
                ctx.host.emit(OutKind::DMem { req, block });
                self.phase = Phase::WaitStore { block, addr, val, ready: None };
            }
        }
    }

    /// Execute one compiled uop on the superblock fast path. Mirrors
    /// [`Self::execute_one`] effect-for-effect and counter-for-counter:
    /// the report fingerprint embeds every [`CoreStats`] field, so the
    /// two dispatch routes must be indistinguishable, timing included.
    /// Runs never contain syscalls or refused uops (run length 0), so
    /// neither appears here.
    fn execute_uop(&mut self, u: Uop, ctx: &mut CpuCtx<'_>) {
        let now = ctx.now;
        ctx.stats.issued += 1;
        match u {
            Uop::AluRR { op, rd, rs1, rs2 } => {
                let v = op.eval(self.sh.regs[rs1 as usize], self.sh.regs[rs2 as usize]);
                self.sh.set_idx(rd, v);
                self.retire_alu(now, op.fu(), ctx);
            }
            Uop::AluRI { op, rd, rs1, imm } => {
                let v = op.eval(self.sh.regs[rs1 as usize], imm);
                self.sh.set_idx(rd, v);
                self.retire_alu(now, FuClass::IntAlu, ctx);
            }
            Uop::Li { rd, imm } => {
                self.sh.set_idx(rd, imm as i64 as u64);
                self.retire_alu(now, FuClass::IntAlu, ctx);
            }
            Uop::Ld { rd, rs1, imm } => {
                let addr = self.sh.regs[rs1 as usize].wrapping_add(imm as i64 as u64) & !7;
                self.load(addr, LoadDst::Int(rd), ctx);
            }
            Uop::Fld { fd, rs1, imm } => {
                let addr = self.sh.regs[rs1 as usize].wrapping_add(imm as i64 as u64) & !7;
                self.load(addr, LoadDst::Fp(fd), ctx);
            }
            Uop::St { rs2, rs1, imm } => {
                let addr = self.sh.regs[rs1 as usize].wrapping_add(imm as i64 as u64) & !7;
                let val = self.sh.regs[rs2 as usize];
                self.store(addr, val, ctx);
            }
            Uop::Fst { fs, rs1, imm } => {
                let addr = self.sh.regs[rs1 as usize].wrapping_add(imm as i64 as u64) & !7;
                let val = self.sh.fregs[fs as usize].to_bits();
                self.store(addr, val, ctx);
            }
            Uop::Br { cond, rs1, rs2, target } => {
                ctx.stats.branches += 1;
                if cond.taken(self.sh.regs[rs1 as usize], self.sh.regs[rs2 as usize]) {
                    self.sh.pc = target;
                    self.busy_until = now + 2;
                } else {
                    self.sh.pc += WORD_BYTES;
                    self.busy_until = now + 1;
                }
                ctx.stats.committed += 1;
            }
            Uop::J { target } => {
                self.sh.pc = target;
                self.busy_until = now + 2;
                ctx.stats.committed += 1;
            }
            Uop::Jal { rd, target } => {
                self.sh.set_idx(rd, self.sh.pc.wrapping_add(WORD_BYTES));
                self.sh.pc = target;
                self.busy_until = now + 2;
                ctx.stats.committed += 1;
            }
            Uop::Jalr { rd, rs1, imm } => {
                // Target reads rs1 before the link write (rd may alias).
                let target = self.sh.regs[rs1 as usize].wrapping_add(imm as i64 as u64) & !7;
                self.sh.set_idx(rd, self.sh.pc.wrapping_add(WORD_BYTES));
                self.sh.pc = target;
                self.busy_until = now + 2;
                ctx.stats.committed += 1;
            }
            Uop::FpBin { op, fd, fs1, fs2 } => {
                self.sh.fregs[fd as usize] =
                    op.eval(self.sh.fregs[fs1 as usize], self.sh.fregs[fs2 as usize]);
                self.retire_alu(now, op.fu(), ctx);
            }
            Uop::FpUn { op, fd, fs1 } => {
                self.sh.fregs[fd as usize] = op.eval(self.sh.fregs[fs1 as usize]);
                self.retire_alu(now, op.fu(), ctx);
            }
            Uop::FpCmp { op, rd, fs1, fs2 } => {
                let v = op.eval(self.sh.fregs[fs1 as usize], self.sh.fregs[fs2 as usize]);
                self.sh.set_idx(rd, v);
                self.retire_alu(now, FuClass::FpAdd, ctx);
            }
            Uop::Fcvtlf { fd, rs1 } => {
                self.sh.fregs[fd as usize] = self.sh.regs[rs1 as usize] as i64 as f64;
                self.retire_alu(now, FuClass::FpAdd, ctx);
            }
            Uop::Fcvtfl { rd, fs1 } => {
                self.sh.set_idx(rd, self.sh.fregs[fs1 as usize] as i64 as u64);
                self.retire_alu(now, FuClass::FpAdd, ctx);
            }
            Uop::Fmvxf { rd, fs1 } => {
                self.sh.set_idx(rd, self.sh.fregs[fs1 as usize].to_bits());
                self.retire_alu(now, FuClass::FpAdd, ctx);
            }
            Uop::Fmvfx { fd, rs1 } => {
                self.sh.fregs[fd as usize] = f64::from_bits(self.sh.regs[rs1 as usize]);
                self.retire_alu(now, FuClass::FpAdd, ctx);
            }
            Uop::Nop => self.retire_alu(now, FuClass::Nop, ctx),
            Uop::Other => unreachable!("refused uops have run length 0"),
        }
    }

    /// The cycle after the shell's prologue (`CoreShell::begin_cycle`):
    /// wait out a busy unit or a fill, or retire one instruction.
    pub(super) fn step(&mut self, ctx: &mut CpuCtx<'_>) {
        let now = ctx.now;
        if now < self.busy_until {
            ctx.stats.stall_cycles += 1;
            return;
        }
        match self.phase {
            Phase::SysPending => match ctx.host.sys_poll(now) {
                SysOutcome::Done(ret) => {
                    if let Some(v) = ret {
                        self.sh.set_reg(Reg::arg(0), v);
                    }
                    self.retire(now + 1, ctx);
                    self.phase = Phase::Ready;
                }
                SysOutcome::Pending => {
                    ctx.stats.stall_cycles += 1;
                }
                SysOutcome::Exit => {
                    self.sh.finished = true;
                    ctx.stats.committed += 1;
                }
            },
            Phase::WaitIFetch { ready, .. } => match ready {
                Some(ts) if ts <= now => self.phase = Phase::Ready,
                _ => ctx.stats.stall_cycles += 1,
            },
            Phase::WaitLoad { addr, dst, ready, .. } => match ready {
                Some(ts) if ts <= now => {
                    let v = ctx.host.load(addr, now);
                    self.write_load(dst, v);
                    self.retire(now + 1, ctx);
                    self.phase = Phase::Ready;
                    ctx.stats.loads += 1;
                }
                _ => ctx.stats.stall_cycles += 1,
            },
            Phase::WaitStore { addr, val, ready, .. } => match ready {
                Some(ts) if ts <= now => {
                    ctx.host.store(addr, val, now);
                    self.retire(now + 1, ctx);
                    self.phase = Phase::Ready;
                    ctx.stats.stores += 1;
                }
                _ => ctx.stats.stall_cycles += 1,
            },
            Phase::Ready => {
                let block = block_of(self.sh.pc);
                match self.sh.l1i.read(block) {
                    L1Outcome::Hit => {
                        ctx.stats.fetched += 1;
                        // Superblock fast path: resume a suspended run, or
                        // enter one at this pc. Dispatch stays one uop per
                        // cycle — the fusion only removes the virtual
                        // predecode lookup and the general effects
                        // plumbing, never a cycle — so timing, stats and
                        // message interleavings are bit-identical to the
                        // per-instruction route below.
                        if self.run_rem == 0 {
                            if let Some(t) = &self.sbt {
                                if let Some((idx, len)) = t.lookup(self.sh.pc) {
                                    if len > 0 {
                                        self.run_idx = idx;
                                        self.run_rem = len;
                                        // A cap-cut run chaining into a new
                                        // one is one long dynamic run.
                                        self.sb_truncated = false;
                                    }
                                }
                            }
                        }
                        if self.run_rem > 0 {
                            let u = *self
                                .sbt
                                .as_ref()
                                .expect("mid-run implies table")
                                .uop(self.run_idx);
                            let was_control = u.is_control();
                            self.run_idx += 1;
                            self.run_rem -= 1;
                            self.execute_uop(u, ctx);
                            if matches!(self.phase, Phase::Ready) {
                                self.sb_dyn_len = self.sb_dyn_len.saturating_add(1);
                                if self.run_rem == 0 {
                                    if was_control {
                                        self.sb_exit(|e| &mut e.exit_branch);
                                    } else {
                                        self.sb_truncated = true;
                                    }
                                }
                            } else {
                                // The uop left Ready (L1D miss): cancel the
                                // run. The access completes through the wait
                                // path; the next fetch re-enters by lookup.
                                self.cancel_run();
                                self.sb_exit(|e| &mut e.exit_miss);
                            }
                            return;
                        }
                        // Predecode fast path; PCs outside the table fall
                        // back to reading and decoding the word.
                        let di = self.sh.text.lookup(self.sh.pc).copied().or_else(|| {
                            decode(ctx.host.fetch_word(self.sh.pc)).ok().map(DecodedInstr::new)
                        });
                        match di {
                            Some(i) => {
                                let was_sys = matches!(i.instr, Instr::Syscall { .. });
                                self.execute_one(i, ctx);
                                if std::mem::take(&mut self.sb_truncated) {
                                    if !was_sys {
                                        self.sb_exit(|e| &mut e.exit_fallback);
                                    } else if matches!(self.phase, Phase::SysPending) {
                                        self.sb_exit(|e| &mut e.exit_sync);
                                    } else {
                                        self.sb_exit(|e| &mut e.exit_syscall);
                                    }
                                }
                            }
                            None => {
                                // Fetching garbage means the workload ran off
                                // its text segment: treat as thread exit.
                                self.sh.finished = true;
                                if std::mem::take(&mut self.sb_truncated) {
                                    self.sb_exit(|e| &mut e.exit_fallback);
                                }
                            }
                        }
                    }
                    _ => {
                        if self.run_rem > 0 {
                            self.cancel_run();
                            self.sb_exit(|e| &mut e.exit_miss);
                        }
                        ctx.host.emit(OutKind::IMem { block });
                        self.phase = Phase::WaitIFetch { block, ready: None };
                    }
                }
            }
        }
    }

    /// The data fill of `block` arrived, effective at `ts`.
    pub(super) fn wake_on_fill(&mut self, block: BlockAddr, ts: u64) {
        match &mut self.phase {
            Phase::WaitLoad { block: b, ready, .. } if *b == block => *ready = Some(ts),
            Phase::WaitStore { block: b, ready, .. } if *b == block => *ready = Some(ts),
            _ => {}
        }
    }

    /// The instruction fill of `block` arrived, effective at `ts`.
    pub(super) fn wake_on_ifill(&mut self, block: BlockAddr, ts: u64) {
        if let Phase::WaitIFetch { block: b, ready } = &mut self.phase {
            if *b == block {
                *ready = Some(ts);
            }
        }
    }

    /// Is a data fill of `block` still on its way?
    pub(super) fn fill_pending(&self, block: BlockAddr) -> bool {
        matches!(
            self.phase,
            Phase::WaitLoad { block: b, ready: None, .. } | Phase::WaitStore { block: b, ready: None, .. } if b == block
        )
    }

    pub(super) fn quiet_cycles(&self, now: u64, next_msg: Option<u64>) -> u64 {
        let sh = &self.sh;
        if !sh.running || sh.finished || !sh.pending_evictions.is_empty() {
            return 0;
        }
        if sh.extra_stall > 0 {
            return sh.extra_stall;
        }
        if now < self.busy_until {
            return self.busy_until - now;
        }
        match self.phase {
            // A wait ends when its reply applies: not before the next queued
            // message, and it is open-ended while none is queued.
            Phase::WaitIFetch { ready: None, .. }
            | Phase::WaitLoad { ready: None, .. }
            | Phase::WaitStore { ready: None, .. } => {
                next_msg.map_or(0, |ts| ts.saturating_sub(now))
            }
            _ => 0,
        }
    }

    /// The model's part of the snapshot, between the L1s and the stall.
    pub(super) fn save_pipeline(&self, w: &mut Writer) {
        self.phase.save(w);
        w.put_u64(self.busy_until);
    }

    pub(super) fn restore_pipeline(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.phase = Phase::load(r)?;
        self.busy_until = r.get_u64()?;
        self.reset_run();
        Ok(())
    }

    pub(super) fn sb_events(&mut self) -> Option<&mut SbEvents> {
        self.sbt.as_ref().map(|_| &mut self.sb_events)
    }

    pub(super) fn sb_mid_run(&self) -> bool {
        self.run_rem > 0
    }
}

sk_snap::persist_enum!(LoadDst, "load-dst" { 0 => Int(r), 1 => Fp(f) });
sk_snap::persist_enum!(Phase, "inorder phase" {
    0 => Ready,
    1 => WaitIFetch { block, ready },
    2 => WaitLoad { block, addr, dst, ready },
    3 => WaitStore { block, addr, val, ready },
    4 => SysPending,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::tests_support::{core_for, run_to_exit, TestHost};
    use crate::cpu::CpuModel;
    use crate::stats::CoreStats;
    use sk_isa::{FReg, Program, ProgramBuilder, Syscall};
    use std::cmp::Reverse;

    #[test]
    fn straight_line_arithmetic_commits() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::tmp(0), 6);
        b.li(Reg::tmp(1), 7);
        b.mul(Reg::arg(0), Reg::tmp(0), Reg::tmp(1));
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, stats) = run_to_exit(&TargetConfig::small(1), &p, 10_000);
        assert_eq!(host.printed, vec![42]);
        assert_eq!(stats.committed, 5);
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let mut b = ProgramBuilder::new();
        let buf = b.zeros("buf", 4);
        b.li(Reg::tmp(2), buf as i64);
        b.li(Reg::tmp(0), 1234);
        b.st(Reg::tmp(0), Reg::tmp(2), 8);
        b.ld(Reg::arg(0), Reg::tmp(2), 8);
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, stats) = run_to_exit(&TargetConfig::small(1), &p, 10_000);
        assert_eq!(host.printed, vec![1234]);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.stores, 1);
    }

    #[test]
    fn loop_branches_execute() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::tmp(0), 10);
        b.li(Reg::arg(0), 0);
        let top = b.here("top");
        b.add(Reg::arg(0), Reg::arg(0), Reg::tmp(0));
        b.addi(Reg::tmp(0), Reg::tmp(0), -1);
        b.bne(Reg::tmp(0), Reg::ZERO, top);
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, stats) = run_to_exit(&TargetConfig::small(1), &p, 10_000);
        assert_eq!(host.printed, vec![55]);
        assert_eq!(stats.branches, 10);
    }

    #[test]
    fn fp_pipeline_computes() {
        use sk_isa::FReg;
        let mut b = ProgramBuilder::new();
        let c = b.floats("c", &[2.0, 8.0]);
        b.li(Reg::tmp(2), c as i64);
        b.fld(FReg::new(1), Reg::tmp(2), 0);
        b.fld(FReg::new(2), Reg::tmp(2), 8);
        b.fmul(FReg::new(3), FReg::new(1), FReg::new(2)); // 16.0
        b.fsqrt(FReg::new(3), FReg::new(3)); // 4.0
        b.emit(Instr::Fcvtfl { rd: Reg::arg(0), fs1: FReg::new(3) });
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, _) = run_to_exit(&TargetConfig::small(1), &p, 10_000);
        assert_eq!(host.printed, vec![4]);
    }

    #[test]
    fn miss_costs_more_than_hit() {
        // Two identical loads: the first misses (cold), the second hits.
        let mut b = ProgramBuilder::new();
        let buf = b.zeros("buf", 1);
        b.li(Reg::tmp(2), buf as i64);
        b.ld(Reg::tmp(0), Reg::tmp(2), 0);
        b.ld(Reg::tmp(1), Reg::tmp(2), 0);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (_, stats) = run_to_exit(&TargetConfig::small(1), &p, 10_000);
        assert_eq!(stats.l1d.misses, 1);
        assert_eq!(stats.l1d.hits, 1);
    }

    #[test]
    fn runaway_pc_terminates_thread() {
        let mut b = ProgramBuilder::new();
        b.nop(); // falls through past the end of text
        let p = b.build().unwrap();
        let (_, stats) = run_to_exit(&TargetConfig::small(1), &p, 10_000);
        assert!(stats.committed >= 1);
    }

    fn state(cpu: &CpuModel) -> Vec<u8> {
        let mut w = Writer::new();
        cpu.save_state(&mut w);
        w.into_bytes()
    }

    /// Run `p` cycle by cycle on the test host. Wherever the model claims
    /// a quiet span, step it here and book it on a copy restored from the
    /// state before: the two must agree byte for byte, and the stats may
    /// move by the booked stall only. `stall = (every, n)` adds `n`
    /// compensation cycles after every `every`-th commit. Returns the final
    /// stats and the cycles the spans covered.
    fn quiet_spans_are_exact(p: &Program, stall: Option<(u64, u64)>) -> (CoreStats, u64) {
        let cfg = TargetConfig::small(1);
        let mut cpu = core_for(&cfg, p);
        let mut host = TestHost::new(p, &cfg);
        cpu.start_thread(p.entry, 0, 0);
        let mut stats = CoreStats::default();
        let (mut now, mut quiet) = (1, 0);
        while !cpu.finished() {
            assert!(now < 1_000_000, "program did not exit");
            let next = host.queued.peek().map(|Reverse((ts, ..))| *ts);
            let k = cpu.quiet_cycles(now, next).min(next.map_or(u64::MAX, |ts| ts - now));
            if k == 0 {
                let committed = stats.committed;
                host.cycle(&mut cpu, &mut stats, now);
                if let Some((every, n)) = stall {
                    if stats.committed > committed && stats.committed % every == 0 {
                        cpu.add_stall(n);
                    }
                }
                now += 1;
                continue;
            }
            let before = state(&cpu);
            let mut booked = core_for(&cfg, p);
            booked.restore_state(&mut Reader::new(&before)).expect("restore");
            let mut want = stats.clone();
            booked.skip_quiet(k, &mut want);
            for t in now..now + k {
                host.cycle(&mut cpu, &mut stats, t);
            }
            want.cycles = stats.cycles;
            assert_eq!(state(&cpu), state(&booked), "state after cycles {now}..+{k}");
            assert_eq!(format!("{stats:?}"), format!("{want:?}"), "stats after cycles {now}..+{k}");
            now += k;
            quiet += k;
        }
        cpu.flush_cache_stats(&mut stats);
        (stats, quiet)
    }

    /// An FP chain whose `fdiv` / `fsqrt` hold the pipeline for 12 / 20
    /// cycles at a time.
    fn fu_bound(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let c = b.floats("c", &[3.0, 1.5]);
        b.li(Reg::tmp(2), c as i64);
        b.fld(FReg::new(1), Reg::tmp(2), 0);
        b.fld(FReg::new(2), Reg::tmp(2), 8);
        b.li(Reg::tmp(0), iters);
        let top = b.here("top");
        b.fmul(FReg::new(1), FReg::new(1), FReg::new(2));
        b.fsqrt(FReg::new(1), FReg::new(1));
        b.fdiv(FReg::new(1), FReg::new(1), FReg::new(2));
        b.fadd(FReg::new(1), FReg::new(1), FReg::new(2));
        b.addi(Reg::tmp(0), Reg::tmp(0), -1);
        b.bne(Reg::tmp(0), Reg::ZERO, top);
        b.emit(Instr::Fcvtfl { rd: Reg::arg(0), fs1: FReg::new(1) });
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        b.build().unwrap()
    }

    /// Touches a new block on every load and every store: each waits for
    /// a fill.
    fn miss_bound(blocks: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let src = b.zeros("src", 8 * blocks as usize);
        let dst = b.zeros("dst", 8 * blocks as usize);
        b.li(Reg::tmp(0), blocks);
        b.li(Reg::tmp(1), src as i64);
        b.li(Reg::tmp(2), dst as i64);
        b.li(Reg::arg(0), 0);
        let top = b.here("top");
        b.ld(Reg::tmp(3), Reg::tmp(1), 0);
        b.addi(Reg::tmp(3), Reg::tmp(3), 1);
        b.st(Reg::tmp(3), Reg::tmp(2), 0);
        b.add(Reg::arg(0), Reg::arg(0), Reg::tmp(3));
        b.addi(Reg::tmp(1), Reg::tmp(1), 64);
        b.addi(Reg::tmp(2), Reg::tmp(2), 64);
        b.addi(Reg::tmp(0), Reg::tmp(0), -1);
        b.bne(Reg::tmp(0), Reg::ZERO, top);
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        b.build().unwrap()
    }

    #[test]
    fn fu_stalls_are_quiet_and_booked_exactly() {
        let (stats, quiet) = quiet_spans_are_exact(&fu_bound(50), None);
        assert!(quiet * 2 > stats.cycles, "{quiet} of {} cycles quiet", stats.cycles);
        assert_eq!(stats.stall_cycles, quiet, "every FU stall is in a quiet span");
    }

    #[test]
    fn miss_waits_with_a_queued_reply_are_quiet_and_booked_exactly() {
        let (stats, quiet) = quiet_spans_are_exact(&miss_bound(64), None);
        assert!(stats.l1d.misses >= 128 && stats.loads == 64 && stats.stores == 64);
        assert!(quiet * 2 > stats.cycles, "{quiet} of {} cycles quiet", stats.cycles);
    }

    #[test]
    fn compensation_stalls_are_quiet_and_booked_exactly() {
        for p in [fu_bound(50), miss_bound(64)] {
            let (stats, quiet) = quiet_spans_are_exact(&p, Some((3, 5)));
            assert!(stats.ff_stall_cycles > 0);
            assert!(quiet >= stats.ff_stall_cycles + stats.stall_cycles / 2);
        }
    }
}
