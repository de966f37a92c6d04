//! Microbenchmarks of the PR-4 hot paths: the lock-free paged functional
//! memory (with and without the per-core µTLB cursor) and instruction
//! predecode (per-word `decode` vs the `DecodedProgram` table lookup);
//! of superblock dispatch; of one out-of-order core's `step` on three
//! loops that load its stages differently (`ooo_hot`); and of the
//! deterministic scheduler's picks and the manager iteration body
//! (`det_sched_hot`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sk_core::cpu::{ooo::OooCpu, CoreHost, Cpu, CpuCtx, SysOutcome};
use sk_core::msg::OutKind;
use sk_isa::{
    decode, encode, DecodedInstr, DecodedProgram, ProgramBuilder, Reg, Syscall, WORD_BYTES,
};
use sk_mem::FuncMemory;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Replica of the pre-PR4 functional memory (mutex-guarded page map,
/// Arc clone per access) so the per-access cost delta stays measurable
/// after the original is gone.
struct MutexMemory {
    pages: Mutex<HashMap<u64, Arc<Vec<AtomicU64>>>>,
}

impl MutexMemory {
    fn new() -> Self {
        MutexMemory { pages: Mutex::new(HashMap::new()) }
    }
    fn page(&self, pno: u64) -> Arc<Vec<AtomicU64>> {
        let mut pages = self.pages.lock().unwrap();
        pages
            .entry(pno)
            .or_insert_with(|| Arc::new((0..4096).map(|_| AtomicU64::new(0)).collect()))
            .clone()
    }
    fn read(&self, addr: u64) -> u64 {
        let p = self.page(addr >> 15);
        p[((addr >> 3) & 4095) as usize].load(Ordering::Relaxed)
    }
    fn write(&self, addr: u64, v: u64) {
        let p = self.page(addr >> 15);
        p[((addr >> 3) & 4095) as usize].store(v, Ordering::Relaxed);
    }
}

/// Strided read/write mix over a working set spanning several pages —
/// the access shape of the kernels' inner loops.
fn bench_mem_hot(c: &mut Criterion) {
    const WORDS: u64 = 64 * 1024; // 512 KiB: 16 pages
    let mem = FuncMemory::new();
    for i in 0..WORDS {
        mem.write(i * 8, i);
    }

    c.bench_function("mem_hot/mutex_hashmap_read_write", |b| {
        let old = MutexMemory::new();
        for i in 0..WORDS {
            old.write(i * 8, i);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 17) % WORDS;
            let a = i * 8;
            let v = old.read(a);
            old.write(a, v.wrapping_add(1));
            black_box(v)
        })
    });

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

/// Per-instruction dispatch vs superblock dispatch on the interpreter —
/// the same program through the same `interpret_with` entry point, with
/// only the dispatch mode flipped (mirrors `mem_hot`'s replica pattern:
/// the slow variant IS the fast path with the optimisation turned off).
fn bench_superblock_hot(c: &mut Criterion) {
    let p = superblock_loop(12, 1500);

    c.bench_function("superblock_hot/per_instruction", |b| {
        b.iter(|| {
            let r = sk_core::interpret_with(&p, 1, u64::MAX, false);
            black_box(r.executed[0])
        })
    });

    c.bench_function("superblock_hot/block_dispatch", |b| {
        b.iter(|| {
            let r = sk_core::interpret_with(&p, 1, u64::MAX, true);
            black_box(r.executed[0])
        })
    });
}

/// The least a lone out-of-order core needs from its surroundings:
/// functional memory, the predecode table, and every miss answered a
/// fixed latency later (the queue stays in time order).
struct LoneCoreHost {
    mem: FuncMemory,
    text: DecodedProgram,
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
    fn decoded(&mut self, pc: u64) -> Option<DecodedInstr> {
        self.text.lookup(pc).copied()
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

/// Deliver due replies, then simulate one cycle.
fn lone_core_cycle(cpu: &mut OooCpu, host: &mut LoneCoreHost, stats: &mut sk_core::CoreStats) {
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

/// Host nanoseconds per simulated core-cycle of `OooCpu::step`: each
/// sample is `CYCLES` cycles of a loop that never exits, so the reported
/// rate in Kelem/s is thousands of core-cycles per second (ns per cycle =
/// 1e6 ÷ that). The three loops put the time in different stages:
/// wakeup/select/complete at full width; a ROB parked behind L1D misses
/// (MSHRs, waiters, almost no issue); flush recovery and refetch.
fn bench_ooo_hot(c: &mut Criterion) {
    const CYCLES: u64 = 50_000;
    const NODES: u64 = 1024; // one 64-byte block each: four times the L1D
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

    let mut group = c.benchmark_group("ooo_hot");
    group.throughput(Throughput::Elements(CYCLES));
    for (name, (p, chain)) in
        [("ilp_loop", ilp), ("pointer_chase_l1d_miss", chase), ("mispredict_loop", mispredict)]
    {
        let cfg = sk_core::TargetConfig::paper_8core();
        let mut host = LoneCoreHost {
            mem: FuncMemory::new(),
            text: DecodedProgram::from_program(&p),
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
        let mut cpu = OooCpu::new(&cfg);
        cpu.start_thread(p.entry, 0, 0);
        let mut stats = sk_core::CoreStats::default();
        group.bench_function(format!("{name}/{CYCLES}_cycles"), |b| {
            b.iter(|| {
                for _ in 0..CYCLES {
                    lone_core_cycle(&mut cpu, &mut host, &mut stats);
                }
                black_box(stats.committed)
            })
        });
        assert!(!cpu.finished(), "{name} ran off its loop");
        println!(
            "ooo_hot/{name}: ipc {:.2}, mispredict rate {:.3}, l1d miss rate {:.3}",
            stats.committed as f64 / host.now as f64,
            stats.mispredict_rate(),
            {
                cpu.flush_cache_stats(&mut stats);
                stats.l1d.misses as f64 / (stats.l1d.hits + stats.l1d.misses).max(1) as f64
            }
        );
    }
    group.finish();
}

/// Host nanoseconds per deterministic-scheduler pick and per manager
/// iteration body, on 8 cores with one manager and on 64 cores over 4
/// shards, all under CC.
///
/// *Picks* are whole `DetEngine` runs of `private_compute` under a pick
/// hook that shapes the schedule, divided by the run's pick count (the
/// rate in Kelem/s is thousands of picks per second; ns per pick = 1e6 ÷
/// that; engine construction is inside the sample and under 1 % of it).
/// `round_robin` cycles through the runnable set, so nearly every pick is
/// a core stepping one cycle or the manager closing it. `futile_core`
/// takes every core four times in a row, then the manager once: the
/// first pick steps the core, the other three find it at its window (8
/// cores only — a sharded set does not hold a core at its window, so the
/// shape does not exist there). `futile_manager` takes every task once
/// and then the last one — the manager, or on the sharded target a
/// signalled shard when there is one — three more times, with no news in
/// between. The printed futile share says how much of each run was
/// elided dispatches.
///
/// *Bodies* are `Engine::manager_iter` through `ManagerProbe`, clocks
/// moved by hand: `clean` with nothing moved since the last body,
/// `one_dirty` with one core ticking ahead of a pack that stands still
/// (global time cannot move), `all_dirty` with every core having ticked
/// (the body that closes a lockstep cycle: minimum, horizon, one window
/// raise per core).
fn bench_det_sched_hot(c: &mut Criterion) {
    use sk_core::engine::ManagerProbe;
    use sk_core::{DetEngine, Engine, Scheme, TargetConfig};
    use sk_kernels::micro::private_compute;

    let small = (8usize, TargetConfig::small(8), "8c");
    let mut many_cfg = TargetConfig::many_core(64);
    many_cfg.mem_shards = 4;
    let many = (64usize, many_cfg, "64c_4shards");

    let mut group = c.benchmark_group("det_sched_hot");
    for (n, cfg, target) in [small, many] {
        let w = private_compute(n, if n == 8 { 1500 } else { 60 });
        type Hook = fn(u64, usize) -> Option<usize>;
        let shapes: [(&str, Hook); 3] = [
            ("round_robin", |idx, n| Some(idx as usize % n)),
            ("futile_core", |idx, n| {
                let slot = idx as usize % (4 * (n - 1) + 1);
                Some(slot / 4)
            }),
            ("futile_manager", |idx, n| Some((idx as usize % (n + 3)).min(n - 1))),
        ];
        for (shape, hook) in shapes {
            if shape == "futile_core" && cfg.mem_shards > 0 {
                continue;
            }
            let run = || {
                let mut det = DetEngine::new(&w.program, Scheme::CycleByCycle, &cfg, 1);
                det.set_pick_hook(Box::new(hook));
                det.run();
                det
            };
            let det = run();
            let (picks, futile) = (det.picks(), det.futile_picks());
            let r = det.into_report();
            assert_eq!(r.printed().into_iter().map(|(_, v)| v).collect::<Vec<_>>(), w.expected);
            println!(
                "det_sched_hot/pick/{shape}/{target}: {picks} picks over {} cycles, {:.1} % futile",
                r.exec_cycles,
                100.0 * futile as f64 / picks as f64
            );
            group.throughput(Throughput::Elements(picks));
            group.bench_function(format!("pick/{shape}/{target}"), |b| {
                b.iter(|| black_box(run().picks()))
            });
        }

        // Timestamp-ordered like CC, with a window wide enough that one
        // core can run ahead of the pack for the whole sample.
        let ordered = Scheme::OldestFirstBounded(1 << 40);
        const BODIES: u64 = 20_000;
        group.throughput(Throughput::Elements(BODIES));
        for dirty in ["clean", "one_dirty", "all_dirty"] {
            let mut probe = ManagerProbe::new(Engine::new(&w.program, ordered, &cfg));
            let ticking = match dirty {
                "clean" => 0,
                "one_dirty" => 1,
                _ => n,
            };
            let mut now = 0u64;
            probe.body();
            group.bench_function(format!("body/{dirty}/{target}"), |b| {
                b.iter(|| {
                    let mut ingested = 0;
                    for _ in 0..BODIES {
                        now += 1;
                        for core in 0..ticking {
                            probe.board().advance_local(core, now);
                        }
                        ingested += probe.body();
                    }
                    black_box(ingested)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    hot_paths,
    bench_mem_hot,
    bench_decode_hot,
    bench_superblock_hot,
    bench_ooo_hot,
    bench_det_sched_hot
);
criterion_main!(hot_paths);
