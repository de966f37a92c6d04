//! A pure architectural interpreter: the timing-free reference machine.
//!
//! Executes a program's threads round-robin, one instruction each per
//! step, with functional memory and the same Table 1 sync semantics as
//! the engines — but **no** caches, pipelines, queues or clocks. For
//! data-race-free programs its output must equal every engine's under
//! every scheme, which makes it a third, independent oracle:
//!
//! * the kernels' host-side Rust references validate the *algorithms*;
//! * the interpreter validates the *assembly* against the ISA semantics;
//! * the engines validate the *timing models* preserve architecture.
//!
//! It runs one instruction per step through the predecode table and
//! `exec::execute`, never through the superblock uop table, so the
//! engines' superblock dispatch is checked against it and shares none of
//! its code.
//!
//! Scheduling is deterministic (thread 0 first each round), so race-free
//! workloads produce identical output on every run.

use crate::exec::{self, Operands};
use crate::msg::SyncOp;
use crate::sync::SyncTable;
use sk_isa::{layout, DecodedProgram, Instr, Program, Reg, Syscall};
use sk_mem::FuncMemory;

/// Why the interpreter stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterpStop {
    /// Every started thread exited.
    Completed,
    /// The step budget ran out (livelock/deadlock or runaway program).
    StepLimit,
    /// All live threads are blocked in sync calls that can never be
    /// released (workload deadlock).
    Deadlock,
}

/// Result of an interpretation run.
#[derive(Clone, Debug)]
pub struct InterpResult {
    /// Values printed, in (tid, value) order of execution.
    pub printed: Vec<(usize, i64)>,
    /// Instructions executed per thread.
    pub executed: Vec<u64>,
    /// Why the run ended.
    pub stop: InterpStop,
}

impl InterpResult {
    /// Printed values grouped per thread then flattened by tid — the
    /// same shape as [`crate::stats::SimReport::printed`], for direct
    /// comparison with engine output.
    pub fn printed_by_tid(&self) -> Vec<(usize, i64)> {
        let mut per: Vec<Vec<i64>> = vec![Vec::new(); self.executed.len()];
        for &(tid, v) in &self.printed {
            per[tid].push(v);
        }
        per.into_iter()
            .enumerate()
            .flat_map(|(tid, vs)| vs.into_iter().map(move |v| (tid, v)))
            .collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TStatus {
    /// No thread assigned yet.
    Empty,
    /// Executing.
    Ready,
    /// Blocked in a sync call awaiting a grant.
    SyncBlocked,
    /// Exited.
    Done,
}

struct Thread {
    regs: [u64; 32],
    fregs: [f64; 32],
    pc: u64,
    status: TStatus,
}

impl Thread {
    fn new() -> Self {
        Thread { regs: [0; 32], fregs: [0.0; 32], pc: 0, status: TStatus::Empty }
    }

    fn start(&mut self, entry: u64, arg: u64, tid: usize) {
        self.regs = [0; 32];
        self.fregs = [0.0; 32];
        self.pc = entry;
        self.regs[Reg::arg(0).index()] = arg;
        self.regs[Reg::TP.index()] = tid as u64;
        self.regs[Reg::SP.index()] = layout::stack_top(tid);
        self.regs[Reg::GP.index()] = layout::DATA_BASE;
        self.status = TStatus::Ready;
    }
}

/// Interpret `program` with up to `max_threads` workload threads, for at
/// most `max_steps` instructions in total, one instruction per step.
pub fn interpret(program: &Program, max_threads: usize, max_steps: u64) -> InterpResult {
    program.validate().expect("program failed validation");
    let text = DecodedProgram::from_program(program);
    let mem = FuncMemory::new();
    mem.load(program.image());
    let mut sync = SyncTable::new();
    let mut threads: Vec<Thread> = (0..max_threads).map(|_| Thread::new()).collect();
    threads[0].start(program.entry, 0, 0);

    let mut printed = Vec::new();
    let mut executed = vec![0u64; max_threads];
    let mut steps = 0u64;
    let mut clock = 0u64; // logical timestamp for the sync table

    loop {
        let mut any_ready = false;
        let mut any_live = false;
        for tid in 0..max_threads {
            if threads[tid].status != TStatus::Ready {
                if threads[tid].status == TStatus::SyncBlocked {
                    any_live = true;
                }
                continue;
            }
            any_ready = true;
            any_live = true;

            steps += 1;
            clock += 1;
            executed[tid] += 1;

            let pc = threads[tid].pc;
            let Some(&d) = text.lookup(pc) else {
                // Ran off the text segment: treat as exit (as the cores do).
                threads[tid].status = TStatus::Done;
                continue;
            };
            let i = d.instr;

            if let Instr::Syscall { code } = i {
                step_syscall(
                    code,
                    tid,
                    &mut threads,
                    &mut sync,
                    &mem,
                    program,
                    clock,
                    &mut printed,
                );
                // The step budget applies to every executed instruction,
                // syscalls included — otherwise a syscall-heavy runaway
                // overshoots `max_steps`.
                if steps >= max_steps {
                    return InterpResult { printed, executed, stop: InterpStop::StepLimit };
                }
                continue;
            }

            let t = &threads[tid];
            let [s1, s2] = d.int_srcs;
            let [f1, f2] = d.fp_srcs;
            let ops = Operands {
                rs1: s1.map_or(0, |r| t.regs[r.index()]),
                rs2: s2.map_or(0, |r| t.regs[r.index()]),
                fs1: f1.map_or(0.0, |f| t.fregs[f.index()]),
                fs2: f2.map_or(0.0, |f| t.fregs[f.index()]),
                pc,
            };
            let fx = exec::execute(&i, ops);
            let t = &mut threads[tid];
            if let Some(m) = fx.mem {
                if m.is_store {
                    mem.write(m.addr, m.store_val);
                } else {
                    let v = mem.read(m.addr);
                    if let Some(fd) = d.fp_dst {
                        t.fregs[fd.index()] = f64::from_bits(v);
                    } else if let Some(rd) = d.int_dst {
                        if rd.index() != 0 {
                            t.regs[rd.index()] = v;
                        }
                    }
                }
            }
            if let Some(v) = fx.int_result {
                if let Some(rd) = d.int_dst {
                    if rd.index() != 0 {
                        t.regs[rd.index()] = v;
                    }
                }
            }
            if let Some(v) = fx.fp_result {
                if let Some(fd) = d.fp_dst {
                    t.fregs[fd.index()] = v;
                }
            }
            t.pc = match fx.branch {
                Some(br) if br.taken => br.target,
                _ => pc + 8,
            };

            if steps >= max_steps {
                return InterpResult { printed, executed, stop: InterpStop::StepLimit };
            }
        }
        if !any_live {
            return InterpResult { printed, executed, stop: InterpStop::Completed };
        }
        if !any_ready {
            return InterpResult { printed, executed, stop: InterpStop::Deadlock };
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn step_syscall(
    code: u16,
    tid: usize,
    threads: &mut [Thread],
    sync: &mut SyncTable,
    mem: &FuncMemory,
    _program: &Program,
    clock: u64,
    printed: &mut Vec<(usize, i64)>,
) {
    let a = |threads: &[Thread], n: u8| threads[tid].regs[Reg::arg(n).index()];
    let Some(sc) = Syscall::from_code(code) else {
        threads[tid].pc += 8;
        return;
    };
    match sc {
        Syscall::Exit => threads[tid].status = TStatus::Done,
        Syscall::PrintInt => {
            printed.push((tid, a(threads, 0) as i64));
            threads[tid].pc += 8;
        }
        Syscall::PrintFloat => {
            printed.push((tid, f64::from_bits(a(threads, 0)) as i64));
            threads[tid].pc += 8;
        }
        Syscall::GetTid => {
            threads[tid].regs[Reg::arg(0).index()] = tid as u64;
            threads[tid].pc += 8;
        }
        Syscall::GetNcores => {
            threads[tid].regs[Reg::arg(0).index()] = threads.len() as u64;
            threads[tid].pc += 8;
        }
        Syscall::ReadCycle => {
            threads[tid].regs[Reg::arg(0).index()] = clock;
            threads[tid].pc += 8;
        }
        Syscall::RoiBegin | Syscall::RoiEnd => threads[tid].pc += 8,
        Syscall::Cas => {
            // Single-threaded interpretation: the round-robin scheduler is
            // the event order, so the swap applies immediately.
            let addr = a(threads, 0) & !7;
            let old = match mem.compare_exchange(addr, a(threads, 1), a(threads, 2)) {
                Ok(prev) => prev,
                Err(prev) => prev,
            };
            threads[tid].regs[Reg::arg(0).index()] = old;
            threads[tid].pc += 8;
        }
        Syscall::Spawn => {
            let entry = a(threads, 0);
            let arg = a(threads, 1);
            let slot = threads.iter().position(|t| t.status == TStatus::Empty);
            let ret = match slot {
                Some(s) => {
                    threads[s].start(entry, arg, s);
                    s as u64
                }
                None => u64::MAX, // -1
            };
            threads[tid].regs[Reg::arg(0).index()] = ret;
            threads[tid].pc += 8;
        }
        _ => {
            // Table 1 sync ops share the engines' SyncTable semantics.
            let op = match sc {
                Syscall::InitLock => SyncOp::InitLock { id: a(threads, 0) as u32 },
                Syscall::Lock => SyncOp::Lock { id: a(threads, 0) as u32 },
                Syscall::Unlock => SyncOp::Unlock { id: a(threads, 0) as u32 },
                Syscall::InitBarrier => {
                    SyncOp::InitBarrier { id: a(threads, 0) as u32, count: a(threads, 1) as u32 }
                }
                Syscall::Barrier => SyncOp::BarrierArrive { id: a(threads, 0) as u32 },
                Syscall::InitSema => {
                    SyncOp::InitSema { id: a(threads, 0) as u32, count: a(threads, 1) as i64 }
                }
                Syscall::SemaWait => SyncOp::SemaWait { id: a(threads, 0) as u32 },
                Syscall::SemaSignal => SyncOp::SemaSignal { id: a(threads, 0) as u32 },
                _ => unreachable!("handled above"),
            };
            let out = sync.apply(tid, op, clock);
            // Releases unblock their targets: each was parked *at* its
            // blocking syscall, so completing it advances past it. A
            // barrier's last arriver may release itself.
            let mut self_released = false;
            for (t, _v, _ts) in out.releases {
                if t == tid {
                    self_released = true;
                    continue;
                }
                debug_assert_eq!(threads[t].status, TStatus::SyncBlocked);
                threads[t].status = TStatus::Ready;
                threads[t].pc += 8;
            }
            match out.reply {
                Some(_) => threads[tid].pc += 8, // immediate grant
                None if self_released => threads[tid].pc += 8,
                None => threads[tid].status = TStatus::SyncBlocked,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sk_isa::{ProgramBuilder, Syscall};

    #[test]
    fn straight_line_program() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::tmp(0), 6);
        b.li(Reg::tmp(1), 7);
        b.mul(Reg::arg(0), Reg::tmp(0), Reg::tmp(1));
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let r = interpret(&p, 1, 10_000);
        assert_eq!(r.stop, InterpStop::Completed);
        assert_eq!(r.printed, vec![(0, 42)]);
    }

    #[test]
    fn spawn_and_barrier() {
        let mut b = ProgramBuilder::new();
        let worker = b.new_label("worker");
        let main = b.here("main");
        b.li(Reg::arg(0), 0);
        b.li(Reg::arg(1), 2);
        b.sys(Syscall::InitBarrier);
        b.la_text(Reg::arg(0), worker);
        b.li(Reg::arg(1), 5);
        b.sys(Syscall::Spawn);
        b.j(worker);
        b.bind(worker);
        b.li(Reg::arg(0), 0);
        b.sys(Syscall::Barrier);
        b.sys(Syscall::GetTid);
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        b.entry(main);
        let p = b.build().unwrap();
        let r = interpret(&p, 2, 10_000);
        assert_eq!(r.stop, InterpStop::Completed);
        let mut tids: Vec<usize> = r.printed.iter().map(|&(t, _)| t).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1]);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::arg(0), 0);
        b.li(Reg::arg(1), 2);
        b.sys(Syscall::InitBarrier);
        b.li(Reg::arg(0), 0);
        b.sys(Syscall::Barrier); // nobody else ever arrives
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let r = interpret(&p, 1, 10_000);
        assert_eq!(r.stop, InterpStop::Deadlock);
    }

    #[test]
    fn step_limit_applies_to_syscall_steps() {
        // A loop that is mostly syscalls: the budget must bind on those
        // steps too, not just on ordinary instructions.
        let mut b = ProgramBuilder::new();
        let top = b.here("top");
        b.sys(Syscall::GetTid);
        b.j(top);
        let p = b.build().unwrap();
        let r = interpret(&p, 1, 500);
        assert_eq!(r.stop, InterpStop::StepLimit);
        assert_eq!(r.executed[0], 500);
    }

    #[test]
    fn step_limit_stops_runaways() {
        let mut b = ProgramBuilder::new();
        let top = b.here("top");
        b.addi(Reg::tmp(0), Reg::tmp(0), 1);
        b.j(top);
        let p = b.build().unwrap();
        let r = interpret(&p, 1, 500);
        assert_eq!(r.stop, InterpStop::StepLimit);
        assert_eq!(r.executed[0], 500);
    }
}
