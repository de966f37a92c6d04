//! Microbenchmarks of the per-cycle hot paths: the lock-free paged
//! functional memory (with and without the per-core µTLB cursor) and
//! instruction predecode (per-word `decode` vs the `DecodedProgram` table
//! lookup); of superblock dispatch; and of an out-of-order core's `step`
//! on four loops that load its stages differently, alone and as eight
//! cores taking turns (`ooo_hot`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sk_core::cpu::{CoreHost, CpuCtx, CpuModel, SysOutcome};
use sk_core::msg::OutKind;
use sk_core::{CoreModel, TargetConfig};
use sk_isa::{
    decode, encode, DecodedInstr, DecodedProgram, ProgramBuilder, Reg, Syscall, WORD_BYTES,
};
use sk_mem::FuncMemory;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;

/// Strided read/write mix over a working set spanning several pages —
/// the access shape of the kernels' inner loops.
fn bench_mem_hot(c: &mut Criterion) {
    const WORDS: u64 = 64 * 1024; // 512 KiB: 16 pages
    let mem = FuncMemory::new();
    for i in 0..WORDS {
        mem.write(i * 8, i);
    }

    c.bench_function("mem_hot/direct_read_write", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 17) % WORDS;
            let a = i * 8;
            let v = mem.read(a);
            mem.write(a, v.wrapping_add(1));
            black_box(v)
        })
    });

    c.bench_function("mem_hot/cursor_read_write", |b| {
        let mut cur = mem.cursor();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 17) % WORDS;
            let a = i * 8;
            let v = cur.read(a);
            cur.write(a, v.wrapping_add(1));
            black_box(v)
        })
    });

    c.bench_function("mem_hot/cursor_sequential", |b| {
        let mut cur = mem.cursor();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % WORDS;
            black_box(cur.read(i * 8))
        })
    });
}

/// A representative text segment: an arithmetic/memory/branch loop body.
fn sample_program() -> sk_isa::Program {
    let a0 = Reg::arg(0);
    let t0 = Reg::tmp(0);
    let t1 = Reg::tmp(1);
    let mut b = ProgramBuilder::new();
    let buf = b.zeros("buf", 64);
    let main = b.here("main");
    b.li(t0, buf as i64);
    b.li(a0, 64);
    let top = b.here("top");
    b.ld(t1, t0, 0);
    b.addi(t1, t1, 3);
    b.st(t1, t0, 0);
    b.addi(t0, t0, 8);
    b.addi(a0, a0, -1);
    b.bne(a0, Reg::ZERO, top);
    b.sys(Syscall::Exit);
    b.entry(main);
    b.build().unwrap()
}

fn bench_decode_hot(c: &mut Criterion) {
    let p = sample_program();
    let words: Vec<u64> = p.text.iter().map(encode).collect();
    let n = words.len() as u64;

    c.bench_function("decode_hot/decode_per_fetch", |b| {
        let mut idx = 0u64;
        b.iter(|| {
            idx = (idx + 1) % n;
            let i = decode(words[idx as usize]).unwrap();
            black_box(DecodedInstr::new(i).fu)
        })
    });

    let table = DecodedProgram::from_program(&p);
    c.bench_function("decode_hot/table_lookup", |b| {
        let base = sk_isa::layout::TEXT_BASE;
        let mut idx = 0u64;
        b.iter(|| {
            idx = (idx + 1) % n;
            black_box(table.lookup(base + idx * WORD_BYTES).unwrap().fu)
        })
    });
}

/// A hot loop with a long branch-free body — the shape superblock
/// dispatch is built for. `unroll` straight-line op groups per iteration
/// keep the block cap (64 uops) in play without saturating it.
fn superblock_loop(unroll: usize, iters: i64) -> sk_isa::Program {
    let a0 = Reg::arg(0);
    let t0 = Reg::tmp(0);
    let t1 = Reg::tmp(1);
    let acc = Reg::saved(0);
    let mut b = ProgramBuilder::new();
    let buf = b.zeros("buf", 64);
    let main = b.here("main");
    b.li(t0, buf as i64);
    b.li(acc, 1);
    b.li(a0, iters);
    let top = b.here("top");
    for k in 0..unroll {
        let w = ((k * 3) % 8) as i32 * 8;
        b.ld(t1, t0, w);
        b.add(acc, acc, t1);
        b.slli(t1, acc, 1);
        b.st(t1, t0, w);
    }
    b.addi(a0, a0, -1);
    b.bne(a0, Reg::ZERO, top);
    b.sys(Syscall::Exit);
    b.entry(main);
    b.build().unwrap()
}

/// Per-instruction dispatch vs superblock dispatch on one in-order core
/// of the sequential engine — the same program and config, with only
/// `cfg.superblocks` flipped (mirrors `mem_hot`'s replica pattern: the
/// slow variant IS the fast path with the optimisation turned off).
fn bench_superblock_hot(c: &mut Criterion) {
    let p = superblock_loop(12, 1500);
    let mut cfg = TargetConfig::small(1);
    cfg.core.model = CoreModel::InOrder;

    for (name, superblocks) in
        [("superblock_hot/per_instruction", false), ("superblock_hot/block_dispatch", true)]
    {
        cfg.superblocks = superblocks;
        c.bench_function(name, |b| {
            b.iter(|| black_box(sk_core::run_sequential(&p, &cfg).exec_cycles))
        });
    }
}

/// The least a lone out-of-order core needs from its surroundings:
/// functional memory and every miss answered a fixed latency later (the
/// queue stays in time order).
struct LoneCoreHost {
    mem: FuncMemory,
    now: u64,
    latency: u64,
    replies: VecDeque<(u64, OutKind)>,
}

impl CoreHost for LoneCoreHost {
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
        self.replies.push_back((self.now + self.latency, kind));
    }
    fn sys_start(&mut self, _code: u16, _args: [u64; 4], _now: u64) -> SysOutcome {
        SysOutcome::Exit
    }
    fn sys_poll(&mut self, _now: u64) -> SysOutcome {
        SysOutcome::Exit
    }
}

/// One out-of-order core on the paper's target with its own host.
struct LoneCore {
    cpu: CpuModel,
    host: LoneCoreHost,
    stats: sk_core::CoreStats,
}

impl LoneCore {
    /// A core running `p` from its entry; `chain`, when given, is the
    /// base of `NODES` one-block nodes linked into a pointer chase.
    fn new(p: &sk_isa::Program, chain: Option<u64>) -> Self {
        let cfg = TargetConfig::paper_8core();
        let host = LoneCoreHost {
            mem: FuncMemory::new(),
            now: 0,
            latency: cfg.mem.critical_latency(),
            replies: VecDeque::new(),
        };
        host.mem.load(p.image());
        if let Some(chain) = chain {
            // A stride coprime to the node count visits every block.
            for i in 0..NODES {
                host.mem.write(chain + i * 64, chain + (i + 387) % NODES * 64);
            }
        }
        let mut cpu = CpuModel::new(&cfg, Arc::new(DecodedProgram::from_program(p)));
        cpu.start_thread(p.entry, 0, 0);
        LoneCore { cpu, host, stats: sk_core::CoreStats::default() }
    }

    /// Deliver due replies, then simulate one cycle.
    fn cycle(&mut self) {
        let LoneCore { cpu, host, stats } = self;
        host.now += 1;
        while host.replies.front().is_some_and(|&(ts, _)| ts <= host.now) {
            let (ts, kind) = host.replies.pop_front().unwrap();
            match kind {
                OutKind::DMem { req, block } => {
                    use sk_mem::{l1::ReqKind, LineState};
                    match req {
                        ReqKind::GetS => cpu.mem_reply(block, LineState::Exclusive, ts),
                        ReqKind::GetM | ReqKind::Upgrade => {
                            cpu.mem_reply(block, LineState::Modified, ts)
                        }
                        ReqKind::PutS | ReqKind::PutM => {}
                    }
                }
                OutKind::IMem { block } => cpu.imem_reply(block, ts),
                _ => {}
            }
        }
        cpu.step(&mut CpuCtx { now: host.now, host, stats });
    }

    /// `name: ipc …, mispredict rate …, l1d miss rate …`, if it ran.
    fn report(&mut self, name: &str) {
        assert!(!self.cpu.finished(), "{name} ran off its loop");
        if self.host.now == 0 {
            return; // filtered out
        }
        self.cpu.flush_cache_stats(&mut self.stats);
        let l1d = self.stats.l1d;
        println!(
            "ooo_hot/{name}: ipc {:.2}, mispredict rate {:.3}, l1d miss rate {:.3}",
            self.stats.committed as f64 / self.host.now as f64,
            self.stats.mispredict_rate(),
            l1d.misses as f64 / (l1d.hits + l1d.misses).max(1) as f64
        );
    }
}

/// One-block nodes of the pointer-chase loop: four times the L1D.
const NODES: u64 = 1024;

/// The four loops of `ooo_hot`, each with its chain base if it chases
/// pointers. They put the time in different stages: wakeup/select/complete
/// at full width; a ROB parked behind L1D misses (MSHRs, waiters, almost
/// no issue); flush recovery and refetch; a ROB of ready loads held back
/// by memory order behind stores whose addresses wait on a divide.
fn ooo_loops() -> [(&'static str, (sk_isa::Program, Option<u64>)); 4] {
    let forever = i64::MAX / 2;

    let ilp = {
        let mut b = ProgramBuilder::new();
        for i in 0..8 {
            b.li(Reg::saved(i), 1);
        }
        b.li(Reg::tmp(0), forever);
        let top = b.here("top");
        for i in 0..8 {
            b.addi(Reg::saved(i), Reg::saved(i), 1);
        }
        b.addi(Reg::tmp(0), Reg::tmp(0), -1);
        b.bne(Reg::tmp(0), Reg::ZERO, top);
        b.sys(Syscall::Exit);
        (b.build().unwrap(), None)
    };
    let chase = {
        let mut b = ProgramBuilder::new();
        let chain = b.zeros("chain", (NODES * 8) as usize);
        b.li(Reg::tmp(1), chain as i64);
        let top = b.here("top");
        b.ld(Reg::tmp(1), Reg::tmp(1), 0);
        b.addi(Reg::tmp(2), Reg::tmp(2), 1);
        b.j(top);
        (b.build().unwrap(), Some(chain))
    };
    let mispredict = {
        // Branch on one bit of a linear congruential sequence: a coin flip
        // the bimodal predictor cannot learn.
        let mut b = ProgramBuilder::new();
        b.li(Reg::tmp(0), 12345);
        b.li(Reg::tmp(3), 1_103_515_245);
        let top = b.here("top");
        let skip = b.new_label("skip");
        b.mul(Reg::tmp(0), Reg::tmp(0), Reg::tmp(3));
        b.addi(Reg::tmp(0), Reg::tmp(0), 12345);
        b.srli(Reg::tmp(1), Reg::tmp(0), 16);
        b.andi(Reg::tmp(1), Reg::tmp(1), 1);
        b.beq(Reg::tmp(1), Reg::ZERO, skip);
        b.addi(Reg::saved(0), Reg::saved(0), 1);
        b.bind(skip);
        b.addi(Reg::saved(1), Reg::saved(1), 1);
        b.j(top);
        (b.build().unwrap(), None)
    };
    let store_order = {
        // Each iteration's store address waits twenty cycles on the
        // unpipelined divider; the six loads behind it are independent and
        // ready at once, but may not pass a store with an unknown address.
        let mut b = ProgramBuilder::new();
        let buf = b.zeros("buf", 8);
        b.li(Reg::tmp(2), buf as i64);
        b.li(Reg::tmp(1), 7);
        let top = b.here("top");
        b.div(Reg::tmp(3), Reg::tmp(1), Reg::tmp(1)); // 1
        b.slli(Reg::tmp(3), Reg::tmp(3), 3);
        b.add(Reg::tmp(4), Reg::tmp(2), Reg::tmp(3));
        b.st(Reg::tmp(1), Reg::tmp(4), 0);
        for i in 0..6 {
            b.ld(Reg::saved(i), Reg::tmp(2), 16 + 8 * i as i32);
        }
        b.j(top);
        (b.build().unwrap(), None)
    };
    [
        ("ilp_loop", ilp),
        ("pointer_chase_l1d_miss", chase),
        ("mispredict_loop", mispredict),
        ("loads_behind_unknown_store", store_order),
    ]
}

/// Host nanoseconds per simulated core-cycle of an out-of-order
/// `CpuModel::step`: each sample is `CYCLES` core-cycles of loops that
/// never exit, so the reported rate in Kelem/s is thousands of
/// core-cycles per second (ns per cycle = 1e6 ÷ that). One case per loop
/// of [`ooo_loops`] on a lone core, whose state stays in the host's L1;
/// then `eight_cores_round_robin`: eight cores, two on each loop, stepped
/// `BATCH` cycles at a time in turn, as the det scheduler steps
/// `ooo_compute`'s eight cores under S10, so every core's state is
/// evicted by the other seven's between its batches.
fn bench_ooo_hot(c: &mut Criterion) {
    const CYCLES: u64 = 50_000;
    const BATCH: u64 = 10;

    let mut group = c.benchmark_group("ooo_hot");
    group.throughput(Throughput::Elements(CYCLES));
    for (name, (p, chain)) in ooo_loops() {
        let mut core = LoneCore::new(&p, chain);
        group.bench_function(format!("{name}/{CYCLES}_cycles"), |b| {
            b.iter(|| {
                for _ in 0..CYCLES {
                    core.cycle();
                }
                black_box(core.stats.committed)
            })
        });
        core.report(name);
    }

    let loops = ooo_loops();
    let mut cores: Vec<LoneCore> = (0..8)
        .map(|i| &loops[i % loops.len()].1)
        .map(|(p, chain)| LoneCore::new(p, *chain))
        .collect();
    let rounds = CYCLES / BATCH / cores.len() as u64;
    group.bench_function(format!("eight_cores_round_robin/{CYCLES}_cycles"), |b| {
        b.iter(|| {
            for _ in 0..rounds {
                for core in cores.iter_mut() {
                    for _ in 0..BATCH {
                        core.cycle();
                    }
                }
            }
            black_box(cores.iter().map(|c| c.stats.committed).sum::<u64>())
        })
    });
    for (i, core) in cores.iter_mut().enumerate() {
        core.report(&format!("eight_cores_round_robin/core{i}"));
    }
    group.finish();
}

criterion_group!(hot_paths, bench_mem_hot, bench_decode_hot, bench_superblock_hot, bench_ooo_hot);
criterion_main!(hot_paths);
