//! Microbenchmarks of the engine's hot primitives: the SPSC event queues,
//! cache tag lookups, directory transitions, branch prediction, and the
//! functional executor.

use criterion::{criterion_group, criterion_main, Criterion};
use sk_core::cpu::bpred::Bimodal;
use sk_core::exec::{execute, Operands};
use sk_core::spsc;
use sk_isa::{Instr, Reg};
use sk_mem::l1::ReqKind;
use sk_mem::{Cache, CacheConfig, Directory, MemConfig};
use std::hint::black_box;

fn bench_spsc(c: &mut Criterion) {
    // 64 items per iteration in every row. With 32-slot blocks that is two
    // block crossings on each side, every one of them a hand-back or a
    // reuse (the queue is in steady state after the first iteration).
    c.bench_function("spsc/push_drain_into", |b| {
        let (mut p, mut q) = spsc::channel::<u64>();
        let mut out = Vec::with_capacity(64);
        b.iter(|| {
            for i in 0..64u64 {
                p.push(i);
            }
            out.clear();
            q.drain_into(&mut out);
            black_box(out.iter().sum::<u64>())
        })
    });
    // Depth one, the common case of an OutQ: a block boundary every 32nd
    // pair, nothing else.
    c.bench_function("spsc/push_drain_depth1", |b| {
        let (mut p, mut q) = spsc::channel::<u64>();
        let mut out = Vec::with_capacity(1);
        b.iter(|| {
            let mut acc = 0;
            for i in 0..64u64 {
                p.push(i);
                out.clear();
                q.drain_into(&mut out);
                acc += out[0];
            }
            black_box(acc)
        })
    });
    c.bench_function("spsc/push_batch_drain_into", |b| {
        let (mut p, mut q) = spsc::channel::<u64>();
        let items: Vec<u64> = (0..64).collect();
        let mut out = Vec::with_capacity(64);
        b.iter(|| {
            p.push_batch(black_box(&items));
            out.clear();
            black_box(q.drain_into(&mut out))
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/lookup_hit", |b| {
        let mut cache: Cache<u8> =
            Cache::new(CacheConfig { size_bytes: 16 * 1024, assoc: 2, block_bytes: 64 });
        for blk in 0..128u64 {
            cache.fill(blk, 1);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 128;
            black_box(cache.lookup(i))
        })
    });
}

fn bench_directory(c: &mut Criterion) {
    c.bench_function("directory/gets_getm_cycle", |b| {
        let mut dir = Directory::new(8, MemConfig::paper_8core(), false);
        let mut ts = 0u64;
        b.iter(|| {
            ts += 20;
            let a = dir.handle(0, ReqKind::GetS, 100, ts);
            let bq = dir.handle(1, ReqKind::GetM, 100, ts + 5);
            black_box((a.done_ts, bq.done_ts))
        })
    });
}

fn bench_bpred(c: &mut Criterion) {
    c.bench_function("bpred/predict_update", |b| {
        let mut p = Bimodal::new(2048);
        let mut pc = 0x1000u64;
        b.iter(|| {
            pc = pc.wrapping_add(8) & 0xffff;
            let t = p.predict(pc);
            p.update(pc, !t);
            black_box(t)
        })
    });
}

fn bench_exec(c: &mut Criterion) {
    c.bench_function("exec/alu_mix", |b| {
        let instrs = [
            Instr::Add { rd: Reg(1), rs1: Reg(2), rs2: Reg(3) },
            Instr::Mul { rd: Reg(1), rs1: Reg(2), rs2: Reg(3) },
            Instr::Slti { rd: Reg(1), rs1: Reg(2), imm: 5 },
            Instr::Beq { rs1: Reg(1), rs2: Reg(2), off: -4 },
        ];
        let ops = Operands { rs1: 7, rs2: 9, fs1: 0.0, fs2: 0.0, pc: 0x1000 };
        b.iter(|| {
            let mut acc = 0u64;
            for i in &instrs {
                let fx = execute(i, ops);
                acc = acc.wrapping_add(fx.int_result.unwrap_or(1));
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench_spsc, bench_cache, bench_directory, bench_bpred, bench_exec);
criterion_main!(benches);
