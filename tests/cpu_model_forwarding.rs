//! `CpuModel`, the enum a core thread calls its timing model through,
//! forwards every `Cpu` method to the model it holds.
//!
//! The defaulted methods are the ones a forward can silently miss: the enum
//! would fall back to the trait's default (no quiet cycles, no superblock
//! telemetry, an empty diagnostic) and no simulated outcome would show it,
//! because quiet skips and superblocks are invisible by design. So each
//! variant is driven cycle by cycle next to the bare model on an identical
//! host, and every query must answer the same, every update must leave the
//! same snapshot bytes.

use sk_core::cpu::{inorder::InOrderCpu, ooo::OooCpu, CoreHost, Cpu, CpuCtx, CpuModel, SysOutcome};
use sk_core::msg::OutKind;
use sk_core::snap::{Reader, Writer};
use sk_core::{CoreModel, CoreStats, TargetConfig};
use sk_isa::{
    DecodedInstr, DecodedProgram, FReg, Program, ProgramBuilder, Reg, SuperblockTable, Syscall,
};
use sk_mem::{l1::ReqKind, FuncMemory, LineState};
use std::collections::VecDeque;
use std::sync::Arc;

/// One core on its own: functional memory, the predecode table, every
/// miss answered a fixed latency later, and an exit syscall.
struct LoneHost {
    mem: FuncMemory,
    text: DecodedProgram,
    now: u64,
    latency: u64,
    replies: VecDeque<(u64, OutKind)>,
}

impl LoneHost {
    fn new(p: &Program, cfg: &TargetConfig) -> Self {
        let host = LoneHost {
            mem: FuncMemory::new(),
            text: DecodedProgram::from_program(p),
            now: 0,
            latency: cfg.mem.critical_latency(),
            replies: VecDeque::new(),
        };
        host.mem.load(p.image());
        host
    }

    /// Timestamp of the earliest queued reply.
    fn next_msg(&self) -> Option<u64> {
        self.replies.front().map(|&(ts, _)| ts)
    }

    /// Deliver the replies due at `now`.
    fn deliver(&mut self, cpu: &mut dyn Cpu, now: u64) {
        while self.replies.front().is_some_and(|&(ts, _)| ts <= now) {
            let (ts, kind) = self.replies.pop_front().unwrap();
            match kind {
                OutKind::DMem { req: ReqKind::GetS, block } => {
                    cpu.mem_reply(block, LineState::Exclusive, ts)
                }
                OutKind::DMem { req: ReqKind::GetM | ReqKind::Upgrade, block } => {
                    cpu.mem_reply(block, LineState::Modified, ts)
                }
                OutKind::IMem { block } => cpu.imem_reply(block, ts),
                _ => {}
            }
        }
    }
}

impl CoreHost for LoneHost {
    fn load(&mut self, addr: u64, _ts: u64) -> u64 {
        self.mem.read(addr)
    }
    fn store(&mut self, addr: u64, val: u64, _ts: u64) {
        self.mem.write(addr, val);
    }
    fn fetch_word(&mut self, addr: u64) -> u64 {
        self.mem.read(addr)
    }
    fn decoded(&mut self, pc: u64) -> Option<DecodedInstr> {
        self.text.lookup(pc).copied()
    }
    fn emit(&mut self, kind: OutKind) {
        self.replies.push_back((self.now + self.latency, kind));
    }
    fn sys_start(&mut self, code: u16, _args: [u64; 4], _now: u64) -> SysOutcome {
        match Syscall::from_code(code) {
            Some(Syscall::Exit) => SysOutcome::Exit,
            _ => SysOutcome::Done(None),
        }
    }
    fn sys_poll(&mut self, _now: u64) -> SysOutcome {
        unreachable!("this host never answers Pending")
    }
}

/// A loop that misses in the L1D on every load, holds the pipeline on
/// `fdiv` / `fsqrt`, and runs straight-line integer code in between: stalls
/// to skip and fused runs to split.
fn program() -> Program {
    let mut b = ProgramBuilder::new();
    let src = b.zeros("src", 8 * 40);
    let c = b.floats("c", &[3.0, 1.5]);
    b.li(Reg::tmp(2), c as i64);
    b.fld(FReg::new(1), Reg::tmp(2), 0);
    b.fld(FReg::new(2), Reg::tmp(2), 8);
    b.li(Reg::tmp(1), src as i64);
    b.li(Reg::tmp(0), 40);
    let top = b.here("top");
    b.ld(Reg::tmp(3), Reg::tmp(1), 0);
    b.fsqrt(FReg::new(1), FReg::new(1));
    b.fdiv(FReg::new(1), FReg::new(1), FReg::new(2));
    for i in 0..6 {
        b.addi(Reg::saved(i), Reg::saved(i), i as i32 + 1);
    }
    b.add(Reg::saved(0), Reg::saved(0), Reg::tmp(3));
    b.addi(Reg::tmp(1), Reg::tmp(1), 64);
    b.addi(Reg::tmp(0), Reg::tmp(0), -1);
    b.bne(Reg::tmp(0), Reg::ZERO, top);
    b.sys(Syscall::Exit);
    b.build().unwrap()
}

fn state(cpu: &dyn Cpu) -> Vec<u8> {
    let mut w = Writer::new();
    cpu.save_state(&mut w);
    w.into_bytes()
}

/// What the run saw of the defaulted methods.
#[derive(Default)]
struct Seen {
    quiet_spans: u64,
    mid_run_cycles: u64,
    sb_drains: u64,
}

/// Drive `model` and `bare` (constructed alike, superblocks attached to
/// both or neither) to the thread's exit on twin hosts, asking both the
/// same thing at every cycle and requiring the same answers. Quiet spans
/// are skipped, not stepped, and every tenth cycle adds a compensation
/// stall, so `skip_quiet` and `add_stall` run on both paths.
fn lockstep(model: &mut CpuModel, bare: &mut dyn Cpu, cfg: &TargetConfig) -> Seen {
    let p = program();
    let (mut mh, mut bh) = (LoneHost::new(&p, cfg), LoneHost::new(&p, cfg));
    let (mut ms, mut bs) = (CoreStats::default(), CoreStats::default());
    model.start_thread(p.entry, 0, 0);
    bare.start_thread(p.entry, 0, 0);
    let mut seen = Seen::default();
    let mut now = 1;
    while !bare.finished() {
        assert!(now < 200_000, "program did not exit");
        assert_eq!(model.running(), bare.running());
        assert_eq!(model.finished(), bare.finished());
        assert_eq!(model.quiesced(), bare.quiesced());
        // The out-of-order core lists its MSHRs in hash order, which differs
        // between two instances: compare the length, not the text.
        assert_eq!(model.debug_state().len(), bare.debug_state().len(), "cycle {now}");
        assert_eq!(model.sb_mid_run(), bare.sb_mid_run(), "cycle {now}");
        seen.mid_run_cycles += bare.sb_mid_run() as u64;
        assert_eq!(model.sb_events().cloned(), bare.sb_events().cloned(), "cycle {now}");
        if let Some(e) = bare.sb_events() {
            seen.sb_drains += 1;
            e.clear();
            model.sb_events().expect("forwarded").clear();
        }

        let next = bh.next_msg();
        assert_eq!(mh.next_msg(), next);
        let q = bare.quiet_cycles(now, next);
        assert_eq!(model.quiet_cycles(now, next), q, "cycle {now}");
        let k = q.min(next.map_or(u64::MAX, |ts| ts - now));
        if k > 0 {
            model.skip_quiet(k, &mut ms);
            bare.skip_quiet(k, &mut bs);
            seen.quiet_spans += 1;
            now += k;
        } else {
            for (cpu, host, stats) in
                [(&mut *model as &mut dyn Cpu, &mut mh, &mut ms), (&mut *bare, &mut bh, &mut bs)]
            {
                host.now = now;
                host.deliver(cpu, now);
                cpu.step(&mut CpuCtx { now, host, stats });
                if now % 10 == 0 {
                    cpu.add_stall(3);
                }
            }
            now += 1;
        }
        assert_eq!(state(model), state(bare), "state after cycle {now}");
    }
    assert!(model.finished());
    model.flush_cache_stats(&mut ms);
    bare.flush_cache_stats(&mut bs);
    assert_eq!(format!("{ms:?}"), format!("{bs:?}"));
    assert!(bs.committed > 200 && bs.l1d.misses >= 40, "{bs:?}");

    // A model restored from the bare one's bytes writes them back.
    let bytes = state(bare);
    let mut restored = match model {
        CpuModel::InOrder(_) => CpuModel::InOrder(InOrderCpu::new(cfg)),
        CpuModel::Ooo(_) => CpuModel::Ooo(Box::new(OooCpu::new(cfg))),
    };
    restored.restore_state(&mut Reader::new(&bytes)).expect("restore");
    assert_eq!(state(&restored), bytes);
    seen
}

fn cfg(model: CoreModel) -> TargetConfig {
    let mut cfg = TargetConfig::small(1);
    cfg.core.model = model;
    cfg
}

#[test]
fn in_order_variant_forwards_quiet_cycles_and_superblocks() {
    let cfg = cfg(CoreModel::InOrder);
    let sbt = Arc::new(SuperblockTable::build(&DecodedProgram::from_program(&program())));
    let mut model = CpuModel::InOrder(InOrderCpu::new(&cfg));
    assert!(model.sb_events().is_none(), "no table attached yet");
    model.attach_superblocks(sbt.clone());
    assert!(model.sb_events().is_some(), "attach_superblocks not forwarded");
    let mut bare = InOrderCpu::new(&cfg);
    bare.attach_superblocks(sbt);
    let seen = lockstep(&mut model, &mut bare, &cfg);
    assert!(seen.quiet_spans > 0, "a stalled core reports quiet cycles");
    assert!(seen.mid_run_cycles > 0, "fused runs were suspended mid-block");
    assert!(seen.sb_drains > 0);
}

#[test]
fn in_order_variant_forwards_without_superblocks() {
    let cfg = cfg(CoreModel::InOrder);
    let mut model = CpuModel::InOrder(InOrderCpu::new(&cfg));
    let seen = lockstep(&mut model, &mut InOrderCpu::new(&cfg), &cfg);
    assert!(seen.quiet_spans > 0);
    assert_eq!((seen.mid_run_cycles, seen.sb_drains), (0, 0));
}

#[test]
fn ooo_variant_forwards_every_method() {
    let cfg = cfg(CoreModel::OutOfOrder);
    let mut model = CpuModel::Ooo(Box::new(OooCpu::new(&cfg)));
    assert!(!model.debug_state().is_empty(), "debug_state not forwarded");
    let sbt = Arc::new(SuperblockTable::build(&DecodedProgram::from_program(&program())));
    model.attach_superblocks(sbt.clone());
    let mut bare = OooCpu::new(&cfg);
    bare.attach_superblocks(sbt);
    let seen = lockstep(&mut model, &mut bare, &cfg);
    // The out-of-order core has neither quiet cycles nor fused runs.
    assert_eq!((seen.quiet_spans, seen.mid_run_cycles, seen.sb_drains), (0, 0, 0));
}
