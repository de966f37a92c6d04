//! Property tests for superblock dispatch: random straight-line bodies
//! with a back-edge that lands *inside* the maximal block (so block
//! entry points and block interiors are the same addresses), executed
//! with and without superblocks on the timed sequential engine, and
//! checked against the per-instruction architectural interpreter.

use proptest::prelude::*;
use sk_isa::{Program, ProgramBuilder, Reg, Syscall};
use slacksim_suite::prelude::*;

#[derive(Clone, Debug)]
struct Shape {
    seed: i32,
    iters: u8,
    ops: Vec<u8>,
    /// Index into `ops` where the loop back-edge lands. Everything before
    /// it is dead code that still occupies the front of the superblock,
    /// so the loop repeatedly enters the block mid-body.
    entry: usize,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (any::<i32>(), 1u8..10, proptest::collection::vec(0u8..6, 1..90), any::<u16>()).prop_map(
        |(seed, iters, ops, e)| {
            let entry = e as usize % (ops.len() + 1);
            Shape { seed, iters, ops, entry }
        },
    )
}

/// Single thread: `j mid` into the interior of a long branch-free body,
/// loop `iters` times over the tail, fold to 32 bits, print, exit.
fn build(s: &Shape) -> Program {
    let mut b = ProgramBuilder::new();
    let scratch = b.zeros("scratch", 8);
    let acc = Reg::saved(0);
    let it = Reg::saved(1);
    let base = Reg::saved(2);

    let main = b.here("main");
    b.li(acc, s.seed as i64);
    b.li(it, s.iters as i64);
    b.li(base, scratch as i64);
    let mid = b.new_label("mid");
    b.j(mid);
    for (k, &op) in s.ops.iter().enumerate() {
        if k == s.entry {
            b.bind(mid);
        }
        let w = ((k * 3) % 8) as i32 * 8;
        match op {
            0 => b.addi(acc, acc, 13),
            1 => b.emit(sk_isa::Instr::Xori { rd: acc, rs1: acc, imm: 0x5a5a }),
            2 => b.st(acc, base, w),
            3 => {
                b.ld(Reg::tmp(0), base, w);
                b.add(acc, acc, Reg::tmp(0));
            }
            4 => b.mul(acc, acc, acc),
            _ => {
                b.slli(Reg::tmp(0), acc, 1);
                b.sub(acc, Reg::tmp(0), acc);
            }
        }
    }
    if s.entry == s.ops.len() {
        b.bind(mid);
    }
    b.addi(it, it, -1);
    b.bne(it, Reg::ZERO, mid);
    b.emit(sk_isa::Instr::Srli { rd: Reg::tmp(0), rs1: acc, imm: 32 });
    b.xor(acc, acc, Reg::tmp(0));
    b.mv(Reg::arg(0), acc);
    b.sys(Syscall::PrintInt);
    b.sys(Syscall::Exit);
    b.entry(main);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn timed_engine_is_bit_identical_on_random_programs(s in arb_shape()) {
        let p = build(&s);
        let mut cfg = TargetConfig::small(1);
        cfg.core.model = CoreModel::InOrder;
        cfg.max_cycles = 20_000_000;
        let on = run_sequential(&p, &cfg);
        cfg.superblocks = false;
        let off = run_sequential(&p, &cfg);
        prop_assert_eq!(on.fingerprint(), off.fingerprint(), "timed run diverged");

        // Both dispatches print what the per-instruction oracle prints.
        let oracle = sk_core::interpret(&p, 1, 10_000_000);
        prop_assert_eq!(oracle.stop, sk_core::InterpStop::Completed);
        prop_assert_eq!(oracle.printed_by_tid(), on.printed(), "superblock run vs the oracle");
    }
}
