//! Bounded producer/consumer pipeline (PDES-style message traffic).
//!
//! `n` stages form a chain: stage 0 produces `items` values, stages
//! `1..n-1` each transform and forward, and the last stage accumulates.
//! Adjacent stages are joined by a bounded ring of `CAP` slots guarded
//! by a classic semaphore pair (`items`/`spaces`), so every cross-stage
//! word is ordered by two sema edges and the kernel is data-race-free:
//! the final sum is bit-identical under every slack scheme. The slot
//! words themselves are conflicting Load/Store pairs between neighbouring
//! cores, so bounded-slack schemes still record workload-state conflicts
//! whose timestamps the violation tracker can invert — exactly the
//! observable the paper's Figure 7 taxonomy needs.

use crate::common::{self, barrier, unless_tid0_skip};
use crate::Workload;
use sk_isa::{ProgramBuilder, Reg, Syscall};

/// Ring capacity of each inter-stage buffer (power of two).
const CAP: i64 = 4;

/// `n_stages` threads in a pipeline; stage `s` applies `v = 2v + s`.
/// Thread 0 prints the accumulated sum of the last stage.
pub fn pipeline(n_stages: usize, items: i64) -> Workload {
    assert!(n_stages >= 2, "a pipeline needs a producer and a consumer");
    assert!(items >= 1);
    let a0 = Reg::arg(0);
    let t = Reg::tmp;
    let s = Reg::saved;
    let mut b = ProgramBuilder::new();
    let slots = b.zeros("slots", (n_stages - 1) * CAP as usize);
    let result = b.zeros("result", 1);

    let worker = b.new_label("worker");
    let main = b.here("main");
    // Buffer s (stage s -> s+1): items sema 2s (starts empty), spaces
    // sema 2s+1 (starts at CAP).
    for st in 0..n_stages - 1 {
        common::sys2(&mut b, Syscall::InitSema, 2 * st as i64, 0);
        common::sys2(&mut b, Syscall::InitSema, 2 * st as i64 + 1, CAP);
    }
    common::standard_main(&mut b, n_stages, worker);

    b.bind(worker);
    common::get_tid(&mut b, s(2));
    let producer = b.new_label("producer");
    let consumer = b.new_label("consumer");
    let fin = b.new_label("fin");
    b.beq(s(2), Reg::ZERO, producer);
    b.li(t(0), n_stages as i64 - 1);
    b.beq(s(2), t(0), consumer);

    // ---- middle stage s: receive from buffer s-1, v = 2v + s, forward ----
    b.li(s(0), 0); // k
    b.li(s(1), items);
    b.addi(s(3), s(2), -1);
    b.slli(s(3), s(3), 1); // in items id = 2(s-1); spaces = +1
    b.slli(s(4), s(2), 1); // out items id = 2s; spaces = +1
    b.addi(t(1), s(2), -1);
    b.li(t(2), CAP * 8);
    b.mul(t(1), t(1), t(2));
    b.li(s(5), slots as i64);
    b.add(s(5), s(5), t(1)); // in slot base
    b.li(t(2), CAP * 8);
    b.add(s(6), s(5), t(2)); // out slot base
    let m_loop = b.here("m_loop");
    b.bge(s(0), s(1), fin);
    b.mv(a0, s(3));
    b.sys(Syscall::SemaWait); // in items
    b.andi(t(1), s(0), (CAP - 1) as i32);
    b.slli(t(1), t(1), 3);
    b.add(t(1), t(1), s(5));
    b.ld(t(0), t(1), 0); // v
    b.addi(a0, s(3), 1);
    b.sys(Syscall::SemaSignal); // in spaces
    b.slli(t(0), t(0), 1);
    b.add(t(0), t(0), s(2)); // v = 2v + s
    b.addi(a0, s(4), 1);
    b.sys(Syscall::SemaWait); // out spaces
    b.andi(t(1), s(0), (CAP - 1) as i32);
    b.slli(t(1), t(1), 3);
    b.add(t(1), t(1), s(6));
    b.st(t(0), t(1), 0);
    b.mv(a0, s(4));
    b.sys(Syscall::SemaSignal); // out items
    b.addi(s(0), s(0), 1);
    b.j(m_loop);

    // ---- stage 0: produce v_k = 7k + 1 into buffer 0 ----
    b.bind(producer);
    b.li(s(0), 0);
    b.li(s(1), items);
    b.li(s(5), slots as i64);
    let p_loop = b.here("p_loop");
    b.bge(s(0), s(1), fin);
    b.li(t(2), 7);
    b.mul(t(0), s(0), t(2));
    b.addi(t(0), t(0), 1);
    common::sys1(&mut b, Syscall::SemaWait, 1); // spaces of buffer 0
    b.andi(t(1), s(0), (CAP - 1) as i32);
    b.slli(t(1), t(1), 3);
    b.add(t(1), t(1), s(5));
    b.st(t(0), t(1), 0);
    common::sys1(&mut b, Syscall::SemaSignal, 0); // items of buffer 0
    b.addi(s(0), s(0), 1);
    b.j(p_loop);

    // ---- last stage: receive, transform, accumulate ----
    b.bind(consumer);
    b.li(s(0), 0);
    b.li(s(1), items);
    b.li(s(7), 0); // acc
    b.addi(s(3), s(2), -1);
    b.slli(s(3), s(3), 1); // in items id
    b.li(s(5), slots as i64 + (n_stages as i64 - 2) * CAP * 8);
    let c_done = b.new_label("c_done");
    let c_loop = b.here("c_loop");
    b.bge(s(0), s(1), c_done);
    b.mv(a0, s(3));
    b.sys(Syscall::SemaWait);
    b.andi(t(1), s(0), (CAP - 1) as i32);
    b.slli(t(1), t(1), 3);
    b.add(t(1), t(1), s(5));
    b.ld(t(0), t(1), 0);
    b.addi(a0, s(3), 1);
    b.sys(Syscall::SemaSignal);
    b.slli(t(0), t(0), 1);
    b.add(t(0), t(0), s(2)); // the last stage transforms too
    b.add(s(7), s(7), t(0));
    b.addi(s(0), s(0), 1);
    b.j(c_loop);
    b.bind(c_done);
    b.li(t(1), result as i64);
    b.st(s(7), t(1), 0);

    b.bind(fin);
    barrier(&mut b);
    let done = b.new_label("done");
    unless_tid0_skip(&mut b, done);
    b.li(t(1), result as i64);
    b.ld(a0, t(1), 0);
    b.sys(Syscall::PrintInt);
    b.bind(done);
    b.sys(Syscall::Exit);

    b.entry(main);
    // Host reference with the simulated machine's wrapping arithmetic.
    let mut acc: i64 = 0;
    for k in 0..items {
        let mut v: i64 = 7i64.wrapping_mul(k).wrapping_add(1);
        for st in 1..n_stages as i64 {
            v = (v << 1).wrapping_add(st);
        }
        acc = acc.wrapping_add(v);
    }
    Workload {
        name: "pipeline".into(),
        input: format!("{n_stages} stages x {items} items, cap {CAP}"),
        program: b.build().expect("pipeline assembles"),
        expected: vec![acc],
        n_threads: n_stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sk_core::{run_sequential, CoreModel, TargetConfig};

    fn run(w: &Workload, n: usize) -> Vec<i64> {
        let mut cfg = TargetConfig::small(n);
        cfg.core.model = CoreModel::InOrder;
        let r = run_sequential(&w.program, &cfg);
        r.printed().into_iter().map(|(_, v)| v).collect()
    }

    #[test]
    fn two_stage_pipeline_sums() {
        let w = pipeline(2, 6);
        assert_eq!(run(&w, 2), w.expected);
        // v_k = 2(7k+1) + 1 summed over k = 0..6
        let manual: i64 = (0..6).map(|k| 2 * (7 * k + 1) + 1).sum();
        assert_eq!(w.expected, vec![manual]);
    }

    #[test]
    fn four_stage_pipeline_matches_host_reference() {
        let w = pipeline(4, 10);
        assert_eq!(run(&w, 4), w.expected);
    }

    #[test]
    fn deep_pipeline_wraps_past_the_ring_capacity() {
        // items >> CAP forces every ring to wrap several times.
        let w = pipeline(3, 4 * CAP + 3);
        assert_eq!(run(&w, 3), w.expected);
    }
}
