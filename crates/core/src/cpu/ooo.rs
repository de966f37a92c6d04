//! The 4-way out-of-order core model (paper §2.2, §4.1).
//!
//! A NetBurst-like window machine: 64-entry reorder buffer, unified
//! load/store queue with store-to-load forwarding, bimodal branch
//! prediction with squash-and-redirect recovery, non-blocking L1D through
//! MSHRs, and a post-commit store buffer. As the paper emphasizes for
//! SlackSim, "register values are fetched just before execution" and
//! "each instruction \[executes\] when it reaches an execution unit" — the
//! functional work happens at issue/complete, never at dispatch.
//!
//! Pipeline stages, processed oldest-machinery-first each cycle:
//! complete → commit → store-buffer drain → issue → dispatch → fetch.
//!
//! The model is event-driven on the host side: no stage walks the ROB.
//! Entries live in a ring addressed by dispatch sequence number, a
//! completing producer wakes its consumers through a dependence matrix,
//! issue selects oldest-first from a ready set, a load held back by an
//! older store's unknown address sleeps until a store resolves, and
//! completion visits only the entries in flight in a functional unit
//! (DESIGN.md, "OoO core").
//! What is simulated — issue order, forwarding choice, flush recovery,
//! every counter — is what a per-cycle scan of the ROB would produce.

use super::{CoreShell, CpuCtx, SysOutcome};
use crate::config::TargetConfig;
use crate::exec::{self, Operands};
use crate::msg::OutKind;
use sk_isa::{decode, DecodedInstr, DecodedProgram, FuClass, Instr, Reg, WORD_BYTES};
use sk_mem::l1::ReqKind;
use sk_mem::mshr::MshrAlloc;
use sk_mem::{block_of, BlockAddr, L1Outcome, MshrFile};
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::collections::VecDeque;
use std::sync::Arc;

/// Unique, monotone, never reused: names one dispatched instruction for
/// good, squashed or not.
type RobId = u64;

/// Dispatch sequence number: the ROB holds exactly the sequence numbers
/// `head_seq..tail_seq`, entry `s` in slot `s & slot_mask`. A flush rolls
/// `tail_seq` back, so a squashed number is handed out again — safe for
/// references between live entries (a consumer only names older entries,
/// and a flush removes a suffix), not for references that outlive a flush.
type Seq = u64;

/// "No in-flight producer" in a source or rename-map slot. Like any
/// sequence number outside `head_seq..tail_seq` it reads the register file.
const NO_SRC: Seq = u64::MAX;

/// MSHR waiter tokens.
///
/// A reply can arrive after its load was squashed and its sequence number
/// reused, so the waiter carries the load's `RobId` too: `seq` finds the
/// slot in O(1), `id` proves the slot still holds that load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Waiter {
    /// A load in the ROB.
    Load { id: RobId, seq: Seq },
    /// The post-commit store buffer.
    StoreBuf,
}

/// What `try_issue_mem` made of a ready memory instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MemIssue {
    Issued,
    /// No MSHR is free: it stays ready and probes the L1D again next
    /// cycle (each probe is a counted access).
    Retry,
    /// A load behind an older store whose address is unknown: it parks in
    /// `order_blocked` until a store computes its address.
    OrderBlocked,
}

/// What the older in-flight stores decide for a load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StoreOrder {
    /// The deciding store's address is unknown: the load must wait.
    Blocked,
    /// The deciding store writes the load's address: its data.
    Forward(u64),
    /// No older store decides: the store buffer or the L1D answers.
    Clear,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EState {
    /// In the ROB, waiting for operands / a functional unit.
    Dispatched,
    /// Occupying a functional unit until `done`.
    Executing { done: u64 },
    /// A load waiting for its MSHR reply.
    WaitMem,
    /// Result available.
    Completed,
}

/// One ROB slot, packed into two cache lines (it was three and a half).
/// An instruction has at most one destination, so one result word serves
/// both register files (FP values by bit pattern) — and, before there is a
/// register result, what a memory instruction carries instead.
#[derive(Clone, Debug)]
#[repr(align(64))]
struct RobEntry {
    state: EState,
    /// Producers of `[int_srcs[0], int_srcs[1], fp_srcs[0], fp_srcs[1]]`.
    src: [Seq; 4],
    /// Producers this entry still waits for (derived, set by `subscribe`).
    pending: u8,
    pred_taken: bool,
    /// `mem_addr` (and a store's data) have been computed.
    addr_known: bool,
    /// The load's value was forwarded from an older store, into `result`.
    forwarded: bool,
    mispredicted: bool,
    /// Fetch ran off the text segment; commit terminates the thread.
    bad_fetch: bool,
    /// The register result once Completed. A store has none and keeps its
    /// data here; a forwarded load holds its value here from issue on.
    result: u64,
    mem_addr: u64,
    pc: u64,
    pred_target: u64,
    id: RobId,
    instr: DecodedInstr,
}

impl RobEntry {
    fn empty() -> Self {
        RobEntry {
            state: EState::Completed,
            src: [NO_SRC; 4],
            pending: 0,
            pred_taken: false,
            addr_known: false,
            forwarded: false,
            mispredicted: false,
            bad_fetch: false,
            result: 0,
            mem_addr: 0,
            pc: 0,
            pred_target: 0,
            id: 0,
            instr: DecodedInstr::new(Instr::Nop),
        }
    }
    /// Syscalls execute at commit and bad fetches never execute.
    fn issuable(&self) -> bool {
        !self.instr.is_syscall() && !self.bad_fetch
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SbState {
    /// Needs an L1D write access (and possibly a GetM/Upgrade request).
    Need,
    /// Waiting for the directory grant.
    Waiting,
    /// Grant arrived; write at `ts`.
    Ready(u64),
}

#[derive(Clone, Copy, Debug)]
struct SbEntry {
    addr: u64,
    val: u64,
    state: SbState,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SysState {
    Idle,
    Pending,
}

/// `FetchRec::idx` of an instruction that is not in the predecoded table:
/// a word decoded off the table, or a bad fetch.
const OFF_TABLE: u32 = u32::MAX;

/// A fetched, predicted instruction awaiting dispatch. The instruction
/// stays where fetch found it: in the shared predecoded table at `idx`,
/// or, when `idx` is [`OFF_TABLE`], in the core's `off_table` queue,
/// which holds those in fetch order.
#[derive(Clone, Copy, Debug)]
struct FetchRec {
    pc: u64,
    pred_target: u64,
    idx: u32,
    pred_taken: bool,
    bad_fetch: bool,
}

/// A fetch record with its instruction: the snapshot's record of a
/// fetch-queue entry.
#[derive(Clone, Copy, Debug)]
struct Fetched {
    pc: u64,
    instr: DecodedInstr,
    pred_taken: bool,
    pred_target: u64,
    bad_fetch: bool,
}

const N_CLASSES: usize = 13;

/// Return-address-stack depth.
const RAS_DEPTH: usize = 8;

fn class_idx(c: FuClass) -> usize {
    match c {
        FuClass::IntAlu => 0,
        FuClass::IntMul => 1,
        FuClass::IntDiv => 2,
        FuClass::FpAdd => 3,
        FuClass::FpMul => 4,
        FuClass::FpDiv => 5,
        FuClass::FpSqrt => 6,
        FuClass::Load => 7,
        FuClass::Store => 8,
        FuClass::Branch => 9,
        FuClass::Jump => 10,
        FuClass::Syscall => 11,
        FuClass::Nop => 12,
    }
}

// ---- sets of ROB slots, one bit per slot, whole 64-bit words ----

#[inline]
fn set_bit(words: &mut [u64], slot: usize) {
    words[slot >> 6] |= 1 << (slot & 63);
}

#[inline]
fn clear_bit(words: &mut [u64], slot: usize) {
    words[slot >> 6] &= !(1 << (slot & 63));
}

/// The smallest age `>= from_age` whose slot `(head_slot + age) % capacity`
/// is in the set: iterating with it visits a set oldest entry first.
#[inline]
fn next_set(words: &[u64], head_slot: usize, from_age: usize) -> Option<usize> {
    if let [word] = words {
        // One word (a ROB of up to 64 slots): rotated so the head is bit
        // 0, bit positions are ages.
        let rest = word.rotate_right(head_slot as u32).checked_shr(from_age as u32).unwrap_or(0);
        return (rest != 0).then(|| from_age + rest.trailing_zeros() as usize);
    }
    let cap = words.len() * 64;
    let mut age = from_age;
    while age < cap {
        let slot = (head_slot + age) & (cap - 1);
        let rest = words[slot >> 6] >> (slot & 63);
        if rest != 0 {
            // Past the wrap the word's high bits are ages already visited;
            // they land at or beyond `cap`.
            let found = age + rest.trailing_zeros() as usize;
            return (found < cap).then_some(found);
        }
        age += 64 - (slot & 63);
    }
    None
}

/// The out-of-order core.
pub struct OooCpu {
    pub(super) sh: CoreShell,

    int_map: [Seq; 32],
    fp_map: [Seq; 32],
    /// The ROB ring: a power of two (at least 64) slots, of which at most
    /// `cfg.rob_entries` are live.
    rob: Vec<RobEntry>,
    slot_mask: usize,
    head_seq: Seq,
    tail_seq: Seq,
    next_id: RobId,
    fetch_q: VecDeque<FetchRec>,
    /// The instructions of the [`OFF_TABLE`] records in `fetch_q`, oldest
    /// first. Empty unless fetch left the predecoded text.
    off_table: VecDeque<DecodedInstr>,
    bpred: super::bpred::Bimodal,

    // Derived scheduling state: a function of the ROB contents, never
    // snapshotted, rebuilt by `rebuild_schedule`.
    /// Dispatched, issuable, all producers completed: issue's candidates.
    ready: Vec<u64>,
    /// Ready loads parked by memory order (an older store's address is
    /// unknown): out of `ready` until a store computes its address.
    order_blocked: Vec<u64>,
    /// In `EState::Executing`: completion's candidates.
    executing: Vec<u64>,
    /// In-flight stores: what a load's ordering check looks at.
    stores: Vec<u64>,
    /// Row `p` (`words` words): the slots subscribed to producer `p`.
    dependents: Vec<u64>,
    /// The slots a flush is squashing.
    squashed_scratch: Vec<u64>,
    /// Lower bound on every `Executing { done }` in the ROB.
    next_done: u64,
    lsq_used: usize,
    syscalls_in_rob: usize,

    mshr: MshrFile<Waiter>,
    ifetch: Option<(BlockAddr, Option<u64>)>,
    fetch_stall_until: u64,
    wait_jalr: bool,
    /// Return-address stack: call sites push their link, `ret` pops a
    /// predicted target so returns don't stall fetch (extension beyond
    /// the paper's NetBurst-like core; corrupted entries are corrected by
    /// the ordinary mispredict flush). A ring: a push onto a full stack
    /// overwrites the oldest link.
    ras: [u64; RAS_DEPTH],
    /// Slot the next push writes.
    ras_top: usize,
    ras_len: usize,
    fu_busy_until: [u64; N_CLASSES],

    store_buffer: VecDeque<SbEntry>,
    sys_state: SysState,
}

impl OooCpu {
    /// Build an idle core.
    pub(super) fn new(cfg: &TargetConfig, text: Arc<DecodedProgram>) -> Self {
        let capacity = cfg.core.rob_entries.next_power_of_two().max(64);
        let words = capacity / 64;
        OooCpu {
            sh: CoreShell::new(cfg, text),
            int_map: [NO_SRC; 32],
            fp_map: [NO_SRC; 32],
            rob: vec![RobEntry::empty(); capacity],
            slot_mask: capacity - 1,
            head_seq: 0,
            tail_seq: 0,
            next_id: 0,
            fetch_q: VecDeque::with_capacity(cfg.core.fetch_queue),
            off_table: VecDeque::new(),
            bpred: super::bpred::Bimodal::new(cfg.core.bpred_entries),
            ready: vec![0; words],
            order_blocked: vec![0; words],
            executing: vec![0; words],
            stores: vec![0; words],
            dependents: vec![0; capacity * words],
            squashed_scratch: vec![0; words],
            next_done: u64::MAX,
            lsq_used: 0,
            syscalls_in_rob: 0,
            mshr: MshrFile::new(cfg.mem.mshrs),
            ifetch: None,
            fetch_stall_until: 0,
            wait_jalr: false,
            ras: [0; RAS_DEPTH],
            ras_top: 0,
            ras_len: 0,
            fu_busy_until: [0; N_CLASSES],
            store_buffer: VecDeque::with_capacity(cfg.core.store_buffer),
            sys_state: SysState::Idle,
        }
    }

    #[inline]
    fn rob_len(&self) -> usize {
        (self.tail_seq - self.head_seq) as usize
    }

    #[inline]
    fn slot_of(&self, seq: Seq) -> usize {
        seq as usize & self.slot_mask
    }

    /// The slot of `seq` if that entry is in the ROB. Anything else — no
    /// producer, or one that committed to the register file — is `None`.
    #[inline]
    fn live_slot(&self, seq: Seq) -> Option<usize> {
        (seq.wrapping_sub(self.head_seq) < self.tail_seq - self.head_seq).then(|| self.slot_of(seq))
    }

    #[inline]
    fn src_bits(&self, src: Seq, committed: u64) -> u64 {
        match self.live_slot(src) {
            Some(slot) => self.rob[slot].result,
            None => committed,
        }
    }

    /// Operand values of a ready entry (every in-flight producer completed).
    fn operands_for(&self, e: &RobEntry) -> Operands {
        let [s1, s2] = e.instr.int_srcs;
        let [f1, f2] = e.instr.fp_srcs;
        let fp = |src, f: sk_isa::FReg| {
            f64::from_bits(self.src_bits(src, self.sh.fregs[f.index()].to_bits()))
        };
        Operands {
            rs1: s1.map_or(0, |r| self.src_bits(e.src[0], self.sh.regs[r.index()])),
            rs2: s2.map_or(0, |r| self.src_bits(e.src[1], self.sh.regs[r.index()])),
            fs1: f1.map_or(0.0, |f| fp(e.src[2], f)),
            fs2: f2.map_or(0.0, |f| fp(e.src[3], f)),
            pc: e.pc,
        }
    }

    /// Subscribe the Dispatched entry in `slot` to each distinct producer
    /// that has not completed, and count the wakeups it now waits for;
    /// with none to wait for it is ready at once.
    fn subscribe(&mut self, slot: usize) {
        let words = self.ready.len();
        let mut pending = 0;
        for src in self.rob[slot].src {
            let Some(p) = self.live_slot(src) else { continue };
            if self.rob[p].state == EState::Completed {
                continue;
            }
            let word = &mut self.dependents[p * words + (slot >> 6)];
            if *word & (1 << (slot & 63)) == 0 {
                *word |= 1 << (slot & 63);
                pending += 1;
            }
        }
        self.rob[slot].pending = pending;
        if pending == 0 {
            set_bit(&mut self.ready, slot);
        }
    }

    /// The entry in `slot` has its result: mark it and wake its consumers.
    fn complete_entry(&mut self, slot: usize) {
        self.rob[slot].state = EState::Completed;
        let words = self.ready.len();
        for w in 0..words {
            let mut bits = std::mem::take(&mut self.dependents[slot * words + w]);
            while bits != 0 {
                let c = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.rob[c].pending -= 1;
                if self.rob[c].pending == 0 {
                    set_bit(&mut self.ready, c);
                }
            }
        }
    }

    fn begin_executing(&mut self, slot: usize, done: u64) {
        self.rob[slot].state = EState::Executing { done };
        set_bit(&mut self.executing, slot);
        self.next_done = self.next_done.min(done);
    }

    /// Recompute every derived index from the ROB entries (after restore).
    /// A load that was parked by memory order comes back ready: its next
    /// ordering check parks it again, exactly.
    fn rebuild_schedule(&mut self) {
        for set in [
            &mut self.ready,
            &mut self.order_blocked,
            &mut self.executing,
            &mut self.stores,
            &mut self.dependents,
        ] {
            set.fill(0);
        }
        self.next_done = u64::MAX;
        self.lsq_used = 0;
        self.syscalls_in_rob = 0;
        for seq in self.head_seq..self.tail_seq {
            let slot = self.slot_of(seq);
            let e = &self.rob[slot];
            self.lsq_used += e.instr.is_mem() as usize;
            self.syscalls_in_rob += e.instr.is_syscall() as usize;
            if e.instr.is_store() {
                set_bit(&mut self.stores, slot);
            }
            match e.state {
                EState::Dispatched if e.issuable() => self.subscribe(slot),
                EState::Executing { done } => self.begin_executing(slot, done),
                _ => {}
            }
        }
    }

    fn ras_push(&mut self, link: u64) {
        self.ras[self.ras_top] = link;
        self.ras_top = (self.ras_top + 1) % RAS_DEPTH;
        self.ras_len = (self.ras_len + 1).min(RAS_DEPTH);
    }

    fn ras_pop(&mut self) -> Option<u64> {
        if self.ras_len == 0 {
            return None;
        }
        self.ras_len -= 1;
        self.ras_top = (self.ras_top + RAS_DEPTH - 1) % RAS_DEPTH;
        Some(self.ras[self.ras_top])
    }

    /// The stack's links, oldest first.
    fn ras_links(&self) -> impl Iterator<Item = u64> + '_ {
        let oldest = self.ras_top + RAS_DEPTH - self.ras_len;
        (0..self.ras_len).map(move |i| self.ras[(oldest + i) % RAS_DEPTH])
    }

    /// Squash everything younger than `keep` and redirect fetch. Linear in
    /// the ROB: runs once per mispredicted branch, not per cycle.
    fn flush_after(&mut self, keep: Seq, new_pc: u64, now: u64) {
        self.squashed_scratch.fill(0);
        for seq in keep + 1..self.tail_seq {
            let slot = self.slot_of(seq);
            set_bit(&mut self.squashed_scratch, slot);
            let instr = &self.rob[slot].instr;
            self.lsq_used -= instr.is_mem() as usize;
            self.syscalls_in_rob -= instr.is_syscall() as usize;
        }
        self.tail_seq = keep + 1;
        for (w, &squashed) in self.squashed_scratch.iter().enumerate() {
            self.ready[w] &= !squashed;
            self.order_blocked[w] &= !squashed;
            self.executing[w] &= !squashed;
            self.stores[w] &= !squashed;
        }
        // Rebuild the rename maps from the surviving entries, and drop the
        // squashed consumers' subscriptions: their slots are about to be
        // dispatched into again.
        self.int_map = [NO_SRC; 32];
        self.fp_map = [NO_SRC; 32];
        let words = self.squashed_scratch.len();
        for seq in self.head_seq..self.tail_seq {
            let slot = self.slot_of(seq);
            for (w, &squashed) in self.squashed_scratch.iter().enumerate() {
                self.dependents[slot * words + w] &= !squashed;
            }
            let instr = &self.rob[slot].instr;
            if let Some(rd) = instr.int_dst {
                if rd.index() != 0 {
                    self.int_map[rd.index()] = seq;
                }
            }
            if let Some(fd) = instr.fp_dst {
                self.fp_map[fd.index()] = seq;
            }
        }
        self.fetch_q.clear();
        self.off_table.clear();
        self.sh.pc = new_pc;
        self.fetch_stall_until = now + self.sh.cfg.mispredict_penalty;
        self.wait_jalr = false;
        self.ifetch = None;
    }

    // ---- pipeline stages ----

    fn stage_complete(&mut self, ctx: &mut CpuCtx<'_>) {
        let now = ctx.now;
        if now < self.next_done {
            return;
        }
        // Oldest first, as a mispredict squashes the younger completions
        // of the same cycle before they happen.
        let head_slot = self.slot_of(self.head_seq);
        let mut next_done = u64::MAX;
        let mut age = 0;
        while let Some(found) = next_set(&self.executing, head_slot, age) {
            age = found + 1;
            let slot = (head_slot + found) & self.slot_mask;
            let EState::Executing { done } = self.rob[slot].state else {
                unreachable!("executing set names {:?}", self.rob[slot])
            };
            if done > now {
                next_done = next_done.min(done);
                continue;
            }
            clear_bit(&mut self.executing, slot);
            let e = &self.rob[slot];

            if e.instr.is_mem() {
                // A store recorded its address and data at issue; a load
                // reads memory now unless an older store forwarded to it.
                if e.instr.is_load() && !e.forwarded {
                    self.rob[slot].result = ctx.host.load(e.mem_addr, now);
                }
                self.complete_entry(slot);
                continue;
            }

            let fx = exec::execute(&e.instr.instr, self.operands_for(e));
            let e = &mut self.rob[slot];
            e.result = fx.int_result.or(fx.fp_result.map(f64::to_bits)).unwrap_or(0);
            let mut redirect = None;
            if let Some(br) = fx.branch {
                let actual_target = if br.taken { br.target } else { e.pc + WORD_BYTES };
                let predicted = if e.pred_taken { e.pred_target } else { e.pc + WORD_BYTES };
                if actual_target != predicted {
                    e.mispredicted = true;
                    if e.instr.is_cond_branch() {
                        ctx.stats.mispredicts += 1;
                    }
                    redirect = Some(actual_target);
                }
            }
            self.complete_entry(slot);
            if let Some(target) = redirect {
                // Everything younger is gone; everything older was visited.
                self.flush_after(self.head_seq + found as u64, target, now);
                break;
            }
        }
        self.next_done = next_done;
    }

    fn stage_commit(&mut self, ctx: &mut CpuCtx<'_>) -> u64 {
        let now = ctx.now;
        let mut committed = 0;
        while committed < self.sh.cfg.commit_width as u64 && self.head_seq < self.tail_seq {
            let slot = self.slot_of(self.head_seq);
            let head = &self.rob[slot];

            if head.bad_fetch {
                // Architecturally reached a non-instruction: thread is done.
                self.sh.finished = true;
                break;
            }

            if head.instr.is_syscall() {
                // Serializing: wait for the store buffer to drain so the
                // syscall observes (and is observed after) all prior stores.
                if !self.store_buffer.is_empty() {
                    break;
                }
                let outcome = match self.sys_state {
                    SysState::Idle => {
                        let code = match head.instr.instr {
                            Instr::Syscall { code } => code,
                            _ => unreachable!(),
                        };
                        let args = [
                            self.sh.regs[Reg::arg(0).index()],
                            self.sh.regs[Reg::arg(1).index()],
                            self.sh.regs[Reg::arg(2).index()],
                            self.sh.regs[Reg::arg(3).index()],
                        ];
                        ctx.host.sys_start(code, args, now)
                    }
                    SysState::Pending => ctx.host.sys_poll(now),
                };
                match outcome {
                    SysOutcome::Done(ret) => {
                        if let Some(v) = ret {
                            self.sh.regs[Reg::arg(0).index()] = v;
                        }
                        self.sys_state = SysState::Idle;
                        self.head_seq += 1;
                        self.syscalls_in_rob -= 1;
                        committed += 1;
                        ctx.stats.committed += 1;
                    }
                    SysOutcome::Pending => {
                        self.sys_state = SysState::Pending;
                        ctx.stats.sys_retries += 1;
                    }
                    SysOutcome::Exit => {
                        self.sh.finished = true;
                        ctx.stats.committed += 1;
                    }
                }
                break; // at most one syscall interaction per cycle
            }

            if head.state != EState::Completed {
                break;
            }

            if head.instr.is_store() {
                if self.store_buffer.len() >= self.sh.cfg.store_buffer {
                    break;
                }
                self.store_buffer.push_back(SbEntry {
                    addr: head.mem_addr,
                    val: head.result,
                    state: SbState::Need,
                });
                clear_bit(&mut self.stores, slot);
                ctx.stats.stores += 1;
            }
            if head.instr.is_load() {
                ctx.stats.loads += 1;
            }
            if head.instr.is_cond_branch() {
                ctx.stats.branches += 1;
                let taken = head.mispredicted != head.pred_taken;
                self.bpred.update(head.pc, taken);
            }

            self.lsq_used -= head.instr.is_mem() as usize;
            if let Some(rd) = head.instr.int_dst {
                if rd.index() != 0 {
                    self.sh.regs[rd.index()] = head.result;
                    if self.int_map[rd.index()] == self.head_seq {
                        self.int_map[rd.index()] = NO_SRC;
                    }
                }
            }
            if let Some(fd) = head.instr.fp_dst {
                self.sh.fregs[fd.index()] = f64::from_bits(head.result);
                if self.fp_map[fd.index()] == self.head_seq {
                    self.fp_map[fd.index()] = NO_SRC;
                }
            }
            self.head_seq += 1;
            committed += 1;
            ctx.stats.committed += 1;
        }
        committed
    }

    fn stage_store_buffer(&mut self, ctx: &mut CpuCtx<'_>) {
        let now = ctx.now;
        let Some(head) = self.store_buffer.front().copied() else { return };
        let block = block_of(head.addr);
        match head.state {
            SbState::Need => match self.sh.l1d.write(block) {
                L1Outcome::Hit => {
                    ctx.host.store(head.addr, head.val, now);
                    self.store_buffer.pop_front();
                }
                outcome => {
                    let req = if outcome == L1Outcome::MissUpgrade {
                        ReqKind::Upgrade
                    } else {
                        ReqKind::GetM
                    };
                    match self.mshr.allocate(block, Waiter::StoreBuf) {
                        MshrAlloc::Primary => {
                            ctx.host.emit(OutKind::DMem { req, block });
                            self.store_buffer.front_mut().unwrap().state = SbState::Waiting;
                        }
                        MshrAlloc::Secondary => {
                            self.store_buffer.front_mut().unwrap().state = SbState::Waiting;
                        }
                        MshrAlloc::Full => {} // retry next cycle
                    }
                }
            },
            SbState::Waiting => {}
            SbState::Ready(ts) if ts <= now => {
                // The store performs at grant time even if a later
                // transaction's invalidation already landed (its timestamp
                // can precede our reply because 3-hop latencies are folded
                // into completion times): the write happened in the window
                // where this core held M. Without this, two cores writing
                // the same block can livelock, each fill annihilated by the
                // other's invalidation before its store drains.
                let _ = self.sh.l1d.write(block); // touch LRU/state if present
                ctx.host.store(head.addr, head.val, now);
                self.store_buffer.pop_front();
            }
            SbState::Ready(_) => {}
        }
    }

    /// Select oldest-first among the ready entries, within the issue width
    /// and the functional-unit limits. A load that cannot go for want of
    /// an MSHR stays ready and is asked again; one held back by memory
    /// order parks until a store resolves its address. That store is
    /// older, so a load it unblocks is still ahead of the walk and issues
    /// in the same cycle, as if it had been asked every cycle.
    fn stage_issue(&mut self, ctx: &mut CpuCtx<'_>) {
        let now = ctx.now;
        let mut used = [0usize; N_CLASSES];
        let mut budget = self.sh.cfg.issue_width;
        let head_slot = self.slot_of(self.head_seq);
        let mut age = 0;
        while budget > 0 {
            let Some(found) = next_set(&self.ready, head_slot, age) else { break };
            age = found + 1;
            let slot = (head_slot + found) & self.slot_mask;
            let class = self.rob[slot].instr.fu;
            let ci = class_idx(class);
            if used[ci] >= self.sh.cfg.fu_count(class)
                || (!self.sh.cfg.fu_pipelined(class) && self.fu_busy_until[ci] > now)
            {
                continue;
            }
            if self.rob[slot].instr.is_mem() {
                match self.try_issue_mem(slot, found, now, ctx) {
                    MemIssue::Issued => {}
                    MemIssue::Retry => continue,
                    MemIssue::OrderBlocked => {
                        clear_bit(&mut self.ready, slot);
                        set_bit(&mut self.order_blocked, slot);
                        continue;
                    }
                }
            } else {
                let lat = self.sh.cfg.fu_latency(class);
                self.begin_executing(slot, now + lat);
                if !self.sh.cfg.fu_pipelined(class) {
                    self.fu_busy_until[ci] = now + lat;
                }
            }
            clear_bit(&mut self.ready, slot);
            used[ci] += 1;
            budget -= 1;
            ctx.stats.issued += 1;
        }
    }

    /// Try to issue the ready memory instruction in `slot`, `age` entries
    /// behind the ROB head.
    fn try_issue_mem(
        &mut self,
        slot: usize,
        age: usize,
        now: u64,
        ctx: &mut CpuCtx<'_>,
    ) -> MemIssue {
        if !self.rob[slot].addr_known {
            // Operands are final once ready: a retry reuses the address.
            let e = &self.rob[slot];
            let m = exec::execute(&e.instr.instr, self.operands_for(e)).mem;
            let m = m.expect("memory instruction");
            let e = &mut self.rob[slot];
            e.mem_addr = m.addr;
            e.result = m.store_val;
            e.addr_known = true;
            if e.instr.is_store() {
                // Only a store resolving can lift an ordering block: every
                // parked load is asked again (younger ones later this walk).
                for (r, parked) in self.ready.iter_mut().zip(&mut self.order_blocked) {
                    *r |= std::mem::take(parked);
                }
            }
        }
        if self.rob[slot].instr.is_store() {
            // Stores "execute" by recording address + value; the access
            // happens post-commit through the store buffer.
            self.begin_executing(slot, now + 1);
            return MemIssue::Issued;
        }
        let addr = self.rob[slot].mem_addr;

        let forward = match self.older_stores(age, addr) {
            StoreOrder::Blocked => return MemIssue::OrderBlocked,
            StoreOrder::Forward(v) => Some(v),
            // The post-commit store buffer also forwards (youngest first).
            StoreOrder::Clear => {
                self.store_buffer.iter().rev().find(|sb| sb.addr == addr).map(|sb| sb.val)
            }
        };

        if let Some(v) = forward {
            let e = &mut self.rob[slot];
            e.result = v;
            e.forwarded = true;
            self.begin_executing(slot, now + 1);
            return MemIssue::Issued;
        }

        let block = block_of(addr);
        match self.sh.l1d.read(block) {
            L1Outcome::Hit => self.begin_executing(slot, now + self.sh.l1_hit_lat),
            _ => {
                let waiter =
                    Waiter::Load { id: self.rob[slot].id, seq: self.head_seq + age as u64 };
                match self.mshr.allocate(block, waiter) {
                    MshrAlloc::Primary => {
                        ctx.host.emit(OutKind::DMem { req: ReqKind::GetS, block });
                    }
                    MshrAlloc::Secondary => {}
                    MshrAlloc::Full => return MemIssue::Retry,
                }
                self.rob[slot].state = EState::WaitMem;
            }
        }
        MemIssue::Issued
    }

    /// The memory-ordering check of a load `age` entries behind the head,
    /// reading `addr`. Conservative: all older stores must have known
    /// addresses, unless a still younger one already forwards; the
    /// youngest older store that is either decides. Reads only: a blocked
    /// verdict changes only when an older store computes its address.
    fn older_stores(&self, age: usize, addr: u64) -> StoreOrder {
        let head_slot = self.slot_of(self.head_seq);
        let mut order = StoreOrder::Clear;
        let mut from = 0;
        while let Some(older) = next_set(&self.stores, head_slot, from).filter(|&a| a < age) {
            from = older + 1;
            let st = &self.rob[(head_slot + older) & self.slot_mask];
            if !st.addr_known {
                order = StoreOrder::Blocked;
            } else if st.mem_addr == addr {
                order = StoreOrder::Forward(st.result);
            }
        }
        order
    }

    fn stage_dispatch(&mut self) {
        let mut budget = self.sh.cfg.issue_width;
        // Serialize on syscalls: nothing dispatches past one.
        while budget > 0 && self.rob_len() < self.sh.cfg.rob_entries && self.syscalls_in_rob == 0 {
            let Some(&f) = self.fetch_q.front() else { break };
            let instr = match f.idx {
                OFF_TABLE => &self.off_table[0],
                idx => &self.sh.text[idx as usize],
            };
            if instr.is_mem() && self.lsq_used >= self.sh.cfg.lsq_entries {
                break;
            }

            let [s1, s2] = instr.int_srcs;
            let [f1, f2] = instr.fp_srcs;
            let src = [
                s1.map_or(NO_SRC, |r| self.int_map[r.index()]),
                s2.map_or(NO_SRC, |r| self.int_map[r.index()]),
                f1.map_or(NO_SRC, |r| self.fp_map[r.index()]),
                f2.map_or(NO_SRC, |r| self.fp_map[r.index()]),
            ];
            let seq = self.tail_seq;
            let slot = self.slot_of(seq);
            self.tail_seq += 1;
            let id = self.next_id;
            self.next_id += 1;
            self.lsq_used += instr.is_mem() as usize;
            self.syscalls_in_rob += instr.is_syscall() as usize;
            if instr.is_store() {
                set_bit(&mut self.stores, slot);
            }
            if let Some(rd) = instr.int_dst {
                if rd.index() != 0 {
                    self.int_map[rd.index()] = seq;
                }
            }
            if let Some(fd) = instr.fp_dst {
                self.fp_map[fd.index()] = seq;
            }
            let state = if matches!(instr.instr, Instr::Nop) && !f.bad_fetch {
                EState::Completed
            } else {
                EState::Dispatched
            };
            // Every field, one by one: the slot still holds its previous
            // tenant. (A struct literal would build a 128-byte aligned
            // temporary and copy it in, once per dispatched instruction.)
            // The instruction is copied once, from where fetch left it
            // straight into the slot.
            let e = &mut self.rob[slot];
            e.state = state;
            e.src = src;
            e.pending = 0;
            e.pred_taken = f.pred_taken;
            e.addr_known = false;
            e.forwarded = false;
            e.mispredicted = false;
            e.bad_fetch = f.bad_fetch;
            e.result = 0;
            e.mem_addr = 0;
            e.pc = f.pc;
            e.pred_target = f.pred_target;
            e.id = id;
            e.instr = *instr;
            self.fetch_q.pop_front();
            if f.idx == OFF_TABLE {
                self.off_table.pop_front();
            }
            // A squashed entry may have left subscribers behind in this row.
            let words = self.ready.len();
            self.dependents[slot * words..(slot + 1) * words].fill(0);
            if state == EState::Dispatched && self.rob[slot].issuable() {
                self.subscribe(slot);
            }
            budget -= 1;
        }
    }

    fn stage_fetch(&mut self, ctx: &mut CpuCtx<'_>) {
        let now = ctx.now;
        if self.wait_jalr || now < self.fetch_stall_until || self.ifetch.is_some() {
            return;
        }
        let mut budget = self.sh.cfg.fetch_width;
        while budget > 0 && self.fetch_q.len() < self.sh.cfg.fetch_queue {
            let pc = self.sh.pc;
            let block = block_of(pc);
            match self.sh.l1i.read(block) {
                L1Outcome::Hit => {}
                _ => {
                    ctx.host.emit(OutKind::IMem { block });
                    self.ifetch = Some((block, None));
                    return;
                }
            }
            // The predecoded table, or else the word read and decoded here
            // (into `off_table`), so running off the text segment still
            // yields a bad fetch exactly as before.
            let (idx, instr, bad) = match self.sh.text.index(pc) {
                Some(idx) => (idx as u32, self.sh.text[idx], false),
                None => {
                    let di = decode(ctx.host.fetch_word(pc)).ok().map(DecodedInstr::new);
                    let bad = di.is_none();
                    let di = di.unwrap_or_else(|| DecodedInstr::new(Instr::Nop));
                    self.off_table.push_back(di);
                    (OFF_TABLE, di, bad)
                }
            };
            ctx.stats.fetched += 1;

            let mut pred_taken = false;
            let mut pred_target = 0;
            let mut redirect: Option<u64> = None;
            let mut stop_fetch = bad; // don't fetch past garbage
            match instr.instr {
                Instr::J { off } => {
                    pred_taken = true;
                    pred_target = exec::rel_target(pc, off);
                    redirect = Some(pred_target);
                }
                Instr::Jal { rd, off } => {
                    if rd == Reg::RA {
                        // A call: remember the return address.
                        self.ras_push(pc + WORD_BYTES);
                    }
                    pred_taken = true;
                    pred_target = exec::rel_target(pc, off);
                    redirect = Some(pred_target);
                }
                Instr::Jalr { rd, rs1, .. } if rd == Reg::ZERO && rs1 == Reg::RA => {
                    // A return: predict through the RAS; fall back to a
                    // fetch stall when the stack is empty. A wrong pop is
                    // repaired by the normal mispredict flush at execute.
                    match self.ras_pop() {
                        Some(t) => {
                            pred_taken = true;
                            pred_target = t;
                            redirect = Some(t);
                        }
                        None => {
                            self.wait_jalr = true;
                            stop_fetch = true;
                        }
                    }
                }
                Instr::Jalr { rd, .. } => {
                    if rd == Reg::RA {
                        // Indirect call: push the link even though the
                        // target itself stalls fetch.
                        self.ras_push(pc + WORD_BYTES);
                    }
                    // Target unknown until execute: stall fetch.
                    self.wait_jalr = true;
                    stop_fetch = true;
                }
                _ if instr.is_cond_branch() => {
                    let off = instr.rel_target.expect("conditional branches are direct");
                    let target = exec::rel_target(pc, off);
                    if self.bpred.predict(pc) {
                        pred_taken = true;
                        pred_target = target;
                        redirect = Some(target);
                    } else {
                        pred_target = target;
                    }
                }
                _ => {}
            }

            self.fetch_q.push_back(FetchRec { pc, pred_target, idx, pred_taken, bad_fetch: bad });
            budget -= 1;
            match redirect {
                Some(t) => {
                    self.sh.pc = t;
                    // A taken control transfer ends the fetch group.
                    break;
                }
                None => self.sh.pc += WORD_BYTES,
            }
            if stop_fetch {
                break;
            }
        }
    }

    /// The cycle after the shell's prologue (`CoreShell::begin_cycle`):
    /// every stage, oldest machinery first.
    pub(super) fn step(&mut self, ctx: &mut CpuCtx<'_>) {
        self.stage_complete(ctx);
        let committed = self.stage_commit(ctx);
        if committed == 0 && !self.sh.finished {
            ctx.stats.stall_cycles += 1;
        }
        if self.sh.finished {
            return;
        }
        self.stage_store_buffer(ctx);
        self.stage_issue(ctx);
        self.stage_dispatch();
        self.stage_fetch(ctx);
    }

    /// The data fill of `block` arrived, effective at `ts`: wake its
    /// waiters.
    pub(super) fn wake_on_fill(&mut self, block: BlockAddr, ts: u64) {
        for w in self.mshr.complete(block) {
            match w {
                Waiter::Load { id, seq } => {
                    // A squashed load is gone, or its slot holds another
                    // id; a load that survived a flush of younger entries
                    // still gets its wakeup.
                    let Some(slot) = self.live_slot(seq) else { continue };
                    if self.rob[slot].id == id && self.rob[slot].state == EState::WaitMem {
                        self.begin_executing(slot, ts);
                    }
                }
                Waiter::StoreBuf => {
                    for sb in self.store_buffer.iter_mut() {
                        if block_of(sb.addr) == block && sb.state == SbState::Waiting {
                            sb.state = SbState::Ready(ts);
                        }
                    }
                }
            }
        }
    }

    /// The instruction fill of `block` arrived, effective at `ts`.
    pub(super) fn wake_on_ifill(&mut self, block: BlockAddr, ts: u64) {
        if let Some((b, _)) = self.ifetch {
            if b == block {
                // Fetch resumes once the fill's timestamp has passed.
                self.fetch_stall_until = self.fetch_stall_until.max(ts);
                self.ifetch = None;
            }
        }
    }

    /// Is a data fill of `block` still on its way?
    pub(super) fn fill_pending(&self, block: BlockAddr) -> bool {
        self.mshr.contains(block)
    }

    /// The instruction window's part of the snapshot, between the thread
    /// state and the L1s: rename maps, ROB, fetch queue, predictor. A
    /// fetch record is written whole, as a [`Fetched`] with its instruction.
    pub(super) fn save_window(&self, w: &mut Writer) {
        self.int_map.save(w);
        self.fp_map.save(w);
        w.put_u64(self.head_seq);
        w.put_usize(self.rob_len());
        for seq in self.head_seq..self.tail_seq {
            self.rob[self.slot_of(seq)].save(w);
        }
        w.put_u64(self.next_id);
        w.put_usize(self.fetch_q.len());
        let mut off_table = self.off_table.iter();
        for f in &self.fetch_q {
            let instr = match f.idx {
                OFF_TABLE => *off_table.next().expect("one off-table instruction per record"),
                idx => self.sh.text[idx as usize],
            };
            let (pc, pred_taken, pred_target, bad_fetch) =
                (f.pc, f.pred_taken, f.pred_target, f.bad_fetch);
            Fetched { pc, instr, pred_taken, pred_target, bad_fetch }.save(w);
        }
        self.bpred.save(w);
    }

    /// The rest of the pipeline's part, between the L1s and the stall.
    pub(super) fn save_pipeline(&self, w: &mut Writer) {
        self.mshr.save(w);
        self.ifetch.save(w);
        w.put_u64(self.fetch_stall_until);
        w.put_bool(self.wait_jalr);
        w.put_usize(self.ras_len);
        for link in self.ras_links() {
            w.put_u64(link);
        }
        self.fu_busy_until.save(w);
        self.store_buffer.save(w);
        self.sys_state.save(w);
    }

    pub(super) fn restore_window(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.int_map = Persist::load(r)?;
        self.fp_map = Persist::load(r)?;
        // The ROB is indexed directly by sequence number from here on, so
        // every sequence reference in the image is range-checked now and
        // every derived index is recomputed, not read.
        self.head_seq = r.get_u64()?;
        let n = r.get_count(16)?;
        if n > self.sh.cfg.rob_entries {
            return corrupt("more ROB entries than the configured ROB holds");
        }
        let Some(tail_seq) = self.head_seq.checked_add(n as u64).filter(|&t| t < NO_SRC) else {
            return corrupt("ROB sequence numbers overflow");
        };
        self.tail_seq = tail_seq;
        let mut prev_id = None;
        for seq in self.head_seq..self.tail_seq {
            let e = RobEntry::load(r)?;
            if prev_id.is_some_and(|p| p >= e.id) {
                return corrupt("ROB ids not strictly increasing");
            }
            prev_id = Some(e.id);
            if e.src.iter().any(|&s| s != NO_SRC && s >= seq) {
                return corrupt("ROB entry names a producer that is not older");
            }
            let has_addr = e.state != EState::Dispatched && e.instr.is_mem();
            if (has_addr && !e.addr_known) || (e.forwarded && !(e.instr.is_load() && e.addr_known))
            {
                return corrupt("ROB memory entry past issue without an address");
            }
            if e.state == EState::WaitMem && !e.instr.is_load() {
                return corrupt("ROB entry waits for memory but is not a load");
            }
            let slot = self.slot_of(seq);
            self.rob[slot] = e;
        }
        self.next_id = r.get_u64()?;
        if prev_id.is_some_and(|p| p >= self.next_id) {
            return corrupt("next ROB id not past the youngest entry");
        }
        for (reg, &m) in self.int_map.iter().chain(&self.fp_map).enumerate() {
            let Some(slot) = self.live_slot(m) else {
                if m == NO_SRC {
                    continue;
                }
                return corrupt("rename map names a sequence number outside the ROB");
            };
            let instr = &self.rob[slot].instr;
            let dst = if reg < 32 {
                instr.int_dst.map(|rd| rd.index())
            } else {
                instr.fp_dst.map(|fd| fd.index() + 32)
            };
            if dst != Some(reg) {
                return corrupt("rename map names an entry that does not write the register");
            }
        }
        self.rebuild_schedule();
        let n = r.get_count(16)?;
        if n > self.sh.cfg.fetch_queue {
            return corrupt("more fetched instructions than the fetch queue holds");
        }
        self.fetch_q.clear();
        self.off_table.clear();
        for _ in 0..n {
            let f = Fetched::load(r)?;
            // A record names the table when the table holds its
            // instruction at its pc; anything else waits off the table.
            let idx = match self.sh.text.index(f.pc) {
                Some(idx) if !f.bad_fetch && self.sh.text[idx].instr == f.instr.instr => idx as u32,
                _ => {
                    self.off_table.push_back(f.instr);
                    OFF_TABLE
                }
            };
            let (pc, pred_target, pred_taken, bad_fetch) =
                (f.pc, f.pred_target, f.pred_taken, f.bad_fetch);
            self.fetch_q.push_back(FetchRec { pc, pred_target, idx, pred_taken, bad_fetch });
        }
        self.bpred = super::bpred::Bimodal::load(r)?;
        Ok(())
    }

    pub(super) fn restore_pipeline(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.mshr = MshrFile::load(r)?;
        self.ifetch = Option::load(r)?;
        self.fetch_stall_until = r.get_u64()?;
        self.wait_jalr = r.get_bool()?;
        self.ras_len = r.get_count(8)?;
        if self.ras_len > RAS_DEPTH {
            return corrupt("return-address stack deeper than its ring");
        }
        for link in self.ras.iter_mut().take(self.ras_len) {
            *link = r.get_u64()?;
        }
        self.ras_top = self.ras_len % RAS_DEPTH;
        self.fu_busy_until = Persist::load(r)?;
        let n = r.get_count(16)?;
        if n > self.sh.cfg.store_buffer {
            return corrupt("more store-buffer entries than the store buffer holds");
        }
        self.store_buffer.clear();
        for _ in 0..n {
            self.store_buffer.push_back(SbEntry::load(r)?);
        }
        self.sys_state = SysState::load(r)?;
        Ok(())
    }

    pub(super) fn debug_state(&self) -> String {
        let head = self.live_slot(self.head_seq).map(|slot| &self.rob[slot]);
        format!(
            "pc={:#x} rob[{}] head={:?} sb={:?} mshr=[{}] ifetch={:?} wait_jalr={} sys={:?} fq={}",
            self.sh.pc,
            self.rob_len(),
            head.map(|e| (e.id, e.instr.instr, e.state)),
            self.store_buffer
                .iter()
                .map(|e| (sk_mem::block_of(e.addr), e.state))
                .collect::<Vec<_>>(),
            self.mshr.iter().map(|(b, w)| format!("{b}:{w:?}")).collect::<Vec<_>>().join(","),
            self.ifetch,
            self.wait_jalr,
            self.sys_state,
            self.fetch_q.len(),
        )
    }
}

fn corrupt<T>(what: &str) -> Result<T, SnapError> {
    Err(SnapError::Corrupt(what.into()))
}

/// Instructions round-trip through the ISA's canonical 64-bit encoding,
/// so the snapshot format stays stable against `Instr` layout changes.
mod instr_word {
    use sk_isa::{decode, encode, DecodedInstr};
    use sk_snap::{Reader, SnapError, Writer};

    pub(super) const MIN_BYTES: usize = 8;

    pub(super) fn save(i: &DecodedInstr, w: &mut Writer) {
        w.put_u64(encode(&i.instr));
    }

    pub(super) fn load(r: &mut Reader<'_>) -> Result<DecodedInstr, SnapError> {
        let word = r.get_u64()?;
        decode(word)
            .map(DecodedInstr::new)
            .map_err(|e| SnapError::Corrupt(format!("instr word {word:#x}: {e:?}")))
    }
}

sk_snap::persist_enum!(Waiter, "mshr waiter" { 0 => Load { id, seq }, 1 => StoreBuf });
sk_snap::persist_enum!(EState, "rob state" {
    0 => Dispatched,
    1 => Executing { done },
    2 => WaitMem,
    3 => Completed,
});
sk_snap::persist_record!(RobEntry {
    id,
    pc,
    instr @ instr_word,
    state,
    src,
    result,
    pred_taken,
    pred_target,
    mem_addr,
    addr_known,
    forwarded,
    mispredicted,
    bad_fetch,
} unsaved { pending: 0 });
sk_snap::persist_enum!(SbState, "store-buffer state" { 0 => Need, 1 => Waiting, 2 => Ready(ts) });
sk_snap::persist_record!(SbEntry { addr, val, state });
sk_snap::persist_enum!(SysState, "sys state" { 0 => Idle, 1 => Pending });
sk_snap::persist_record!(Fetched { pc, instr @ instr_word, pred_taken, pred_target, bad_fetch });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::cpu::tests_support::{core_for, run_model_to_exit, run_to_exit, TestHost};
    use crate::cpu::CpuModel;
    use crate::stats::CoreStats;
    use sk_isa::{FReg, ProgramBuilder, Syscall};
    use sk_mem::LineState;
    use std::collections::{BTreeMap, BTreeSet};

    /// The paper's core on the one-core test target.
    fn ooo() -> TargetConfig {
        ooo_cfg(64)
    }

    /// The out-of-order pipeline inside `cpu`.
    fn pipe(cpu: &CpuModel) -> &OooCpu {
        match cpu {
            CpuModel::Ooo(c) => c,
            CpuModel::InOrder(_) => unreachable!("built from an out-of-order config"),
        }
    }

    fn pipe_mut(cpu: &mut CpuModel) -> &mut OooCpu {
        match cpu {
            CpuModel::Ooo(c) => c,
            CpuModel::InOrder(_) => unreachable!("built from an out-of-order config"),
        }
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::tmp(0), 6);
        b.li(Reg::tmp(1), 7);
        b.mul(Reg::arg(0), Reg::tmp(0), Reg::tmp(1));
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, stats) = run_to_exit(&ooo(), &p, 10_000);
        assert_eq!(host.printed, vec![42]);
        assert_eq!(stats.committed, 5);
    }

    #[test]
    fn dependent_chain_respects_dataflow() {
        // r = ((((1+1)+1)...)+1) 20 times; any renaming bug corrupts it.
        let mut b = ProgramBuilder::new();
        b.li(Reg::arg(0), 1);
        for _ in 0..20 {
            b.addi(Reg::arg(0), Reg::arg(0), 1);
        }
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, _) = run_to_exit(&ooo(), &p, 10_000);
        assert_eq!(host.printed, vec![21]);
    }

    #[test]
    fn loop_with_branches() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::tmp(0), 100);
        b.li(Reg::arg(0), 0);
        let top = b.here("top");
        b.add(Reg::arg(0), Reg::arg(0), Reg::tmp(0));
        b.addi(Reg::tmp(0), Reg::tmp(0), -1);
        b.bne(Reg::tmp(0), Reg::ZERO, top);
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, stats) = run_to_exit(&ooo(), &p, 50_000);
        assert_eq!(host.printed, vec![5050]);
        assert_eq!(stats.branches, 100);
        // The predictor learns the loop after a couple of iterations.
        assert!(stats.mispredicts < 10, "mispredicts = {}", stats.mispredicts);
    }

    #[test]
    fn wrong_path_work_is_squashed() {
        // A data-dependent unpredictable branch alternates each iteration.
        let mut b = ProgramBuilder::new();
        b.li(Reg::tmp(0), 50);
        b.li(Reg::arg(0), 0);
        b.li(Reg::tmp(1), 0); // parity
        let top = b.here("top");
        let skip = b.new_label("skip");
        b.andi(Reg::tmp(2), Reg::tmp(0), 1);
        b.beq(Reg::tmp(2), Reg::ZERO, skip);
        b.addi(Reg::arg(0), Reg::arg(0), 1); // odd iterations only
        b.bind(skip);
        b.addi(Reg::tmp(0), Reg::tmp(0), -1);
        b.bne(Reg::tmp(0), Reg::ZERO, top);
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, stats) = run_to_exit(&ooo(), &p, 50_000);
        assert_eq!(host.printed, vec![25]);
        assert!(stats.fetched > stats.committed, "speculation fetches extra work");
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut b = ProgramBuilder::new();
        let buf = b.zeros("buf", 1);
        b.li(Reg::tmp(2), buf as i64);
        b.li(Reg::tmp(0), 777);
        b.st(Reg::tmp(0), Reg::tmp(2), 0);
        b.ld(Reg::arg(0), Reg::tmp(2), 0); // must see 777 via forwarding
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, _) = run_to_exit(&ooo(), &p, 10_000);
        assert_eq!(host.printed, vec![777]);
    }

    #[test]
    fn memory_results_round_trip() {
        let mut b = ProgramBuilder::new();
        let buf = b.zeros("buf", 8);
        b.li(Reg::tmp(2), buf as i64);
        for i in 0..8 {
            b.li(Reg::tmp(0), (i * i) as i64);
            b.st(Reg::tmp(0), Reg::tmp(2), i * 8);
        }
        b.li(Reg::arg(0), 0);
        for i in 0..8 {
            b.ld(Reg::tmp(1), Reg::tmp(2), i * 8);
            b.add(Reg::arg(0), Reg::arg(0), Reg::tmp(1));
        }
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, stats) = run_to_exit(&ooo(), &p, 50_000);
        assert_eq!(host.printed, vec![(0..8).map(|i| i * i).sum::<i64>()]);
        assert_eq!(stats.stores, 8);
        assert_eq!(stats.loads, 8);
    }

    #[test]
    fn fp_dataflow() {
        let mut b = ProgramBuilder::new();
        let c = b.floats("c", &[3.0, 4.0]);
        b.li(Reg::tmp(2), c as i64);
        b.fld(FReg::new(1), Reg::tmp(2), 0);
        b.fld(FReg::new(2), Reg::tmp(2), 8);
        b.fmul(FReg::new(1), FReg::new(1), FReg::new(1)); // 9
        b.fmul(FReg::new(2), FReg::new(2), FReg::new(2)); // 16
        b.fadd(FReg::new(3), FReg::new(1), FReg::new(2)); // 25
        b.fsqrt(FReg::new(3), FReg::new(3)); // 5
        b.emit(Instr::Fcvtfl { rd: Reg::arg(0), fs1: FReg::new(3) });
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, _) = run_to_exit(&ooo(), &p, 10_000);
        assert_eq!(host.printed, vec![5]);
    }

    #[test]
    fn function_calls_through_jalr() {
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        let double = b.new_label("double");
        b.entry(main);
        b.bind(double);
        b.add(Reg::arg(0), Reg::arg(0), Reg::arg(0));
        b.ret();
        b.bind(main);
        b.li(Reg::arg(0), 21);
        b.call(double);
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, _) = run_to_exit(&ooo(), &p, 10_000);
        assert_eq!(host.printed, vec![42]);
    }

    /// A loop whose body is 8 independent adds (high ILP, warm I-cache).
    fn ilp_loop(iters: i64) -> sk_isa::Program {
        let mut b = ProgramBuilder::new();
        for i in 0..8 {
            b.li(Reg::saved(i), 1);
        }
        b.li(Reg::tmp(0), iters);
        let top = b.here("top");
        for i in 0..8 {
            b.addi(Reg::saved(i), Reg::saved(i), 1);
        }
        b.addi(Reg::tmp(0), Reg::tmp(0), -1);
        b.bne(Reg::tmp(0), Reg::ZERO, top);
        b.sys(Syscall::Exit);
        b.build().unwrap()
    }

    #[test]
    fn ooo_is_faster_than_inorder_on_ilp() {
        let (_, ooo_stats) = run_to_exit(&ooo(), &ilp_loop(200), 100_000);
        let (_, io_stats) = run_to_exit(&TargetConfig::small(1), &ilp_loop(200), 100_000);
        assert!(
            ooo_stats.cycles * 2 < io_stats.cycles,
            "OoO {} cycles vs in-order {} cycles",
            ooo_stats.cycles,
            io_stats.cycles
        );
    }

    #[test]
    fn ilp_ipc_exceeds_one() {
        let (_, stats) = run_to_exit(&ooo(), &ilp_loop(200), 100_000);
        assert!(stats.ipc() > 1.2, "ipc = {}", stats.ipc());
    }

    #[test]
    fn returns_are_predicted_through_the_ras() {
        // A tight call loop: with the RAS, returns should not stall fetch,
        // so the loop runs much faster than one call per ~10 cycles.
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        let f = b.new_label("f");
        b.entry(main);
        b.bind(f);
        b.addi(Reg::arg(0), Reg::arg(0), 1);
        b.ret();
        b.bind(main);
        b.li(Reg::arg(0), 0);
        b.li(Reg::tmp(0), 100);
        let top = b.here("top");
        b.call(f);
        b.addi(Reg::tmp(0), Reg::tmp(0), -1);
        b.bne(Reg::tmp(0), Reg::ZERO, top);
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, stats) = run_to_exit(&ooo(), &p, 50_000);
        assert_eq!(host.printed, vec![100]);
        // 100 iterations x 4 instructions + overhead: with predicted
        // returns this takes ~2-4 cycles/iteration; a stalling return
        // would cost >= 7 cycles/iteration.
        assert!(stats.cycles < 600, "cycles = {} (RAS not effective?)", stats.cycles);
    }

    #[test]
    fn unpipelined_divides_serialize_on_their_unit() {
        // Two independent divides must serialize (1 unpipelined divider);
        // two independent multiplies pipeline back to back.
        let mk = |div: bool| {
            let mut b = ProgramBuilder::new();
            b.li(Reg::tmp(0), 1000);
            b.li(Reg::tmp(1), 7);
            for i in 0..6 {
                if div {
                    b.div(Reg::saved(i), Reg::tmp(0), Reg::tmp(1));
                } else {
                    b.mul(Reg::saved(i), Reg::tmp(0), Reg::tmp(1));
                }
            }
            b.sys(Syscall::Exit);
            b.build().unwrap()
        };
        let (_, div_stats) = run_to_exit(&ooo(), &mk(true), 10_000);
        let (_, mul_stats) = run_to_exit(&ooo(), &mk(false), 10_000);
        // 6 divides at 20 cycles unpipelined >= 120 cycles; 6 pipelined
        // multiplies complete in a small fraction of that.
        assert!(
            div_stats.cycles > mul_stats.cycles + 80,
            "div {} vs mul {}",
            div_stats.cycles,
            mul_stats.cycles
        );
    }

    #[test]
    fn rename_map_survives_a_flush() {
        // A mispredicted branch flushes younger instructions; values
        // produced before the branch must still reach consumers dispatched
        // after the recovery (exercises the map rebuild).
        let mut b = ProgramBuilder::new();
        b.li(Reg::saved(0), 17); // produced before the branch
        b.li(Reg::tmp(0), 1);
        let skip = b.new_label("skip");
        // Data-dependent branch the bimodal cannot know yet: taken.
        b.bne(Reg::tmp(0), Reg::ZERO, skip);
        b.li(Reg::saved(0), 999); // wrong path
        b.bind(skip);
        b.addi(Reg::arg(0), Reg::saved(0), 5); // must read 17
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, _) = run_to_exit(&ooo(), &p, 10_000);
        assert_eq!(host.printed, vec![22]);
    }

    #[test]
    fn store_buffer_drains_in_order() {
        // More committed stores than store-buffer slots: all must land,
        // later loads must see the final values.
        let mut b = ProgramBuilder::new();
        let buf = b.zeros("buf", 16);
        b.li(Reg::tmp(2), buf as i64);
        for round in 0..2 {
            for i in 0..16 {
                b.li(Reg::tmp(0), (round * 100 + i) as i64);
                b.st(Reg::tmp(0), Reg::tmp(2), i * 8);
            }
        }
        b.li(Reg::arg(0), 0);
        for i in 0..16 {
            b.ld(Reg::tmp(1), Reg::tmp(2), i * 8);
            b.add(Reg::arg(0), Reg::arg(0), Reg::tmp(1));
        }
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        let (host, _) = run_to_exit(&ooo(), &p, 50_000);
        let expected: i64 = (0..16).map(|i| 100 + i).sum();
        assert_eq!(host.printed, vec![expected]);
    }

    #[test]
    fn next_set_walks_a_set_oldest_first_across_the_wrap() {
        let ages = |words: &[u64], head: usize| {
            let mut seen = vec![];
            let mut from = 0;
            while let Some(age) = next_set(words, head, from) {
                seen.push(age);
                from = age + 1;
            }
            seen
        };
        // One word, head at slot 60: slots 61 and 63, then (wrapped) 0 and 5.
        let one = [(1 << 61) | (1 << 63) | 1 | (1 << 5)];
        assert_eq!(ages(&one, 60), vec![1, 3, 4, 9]);
        assert_eq!(ages(&one, 0), vec![0, 5, 61, 63]);
        assert_eq!(ages(&[0], 17), Vec::<usize>::new());
        assert_eq!(ages(&[u64::MAX], 33), (0..64).collect::<Vec<_>>());
        // Two words, head at slot 100: 127 (age 27), 3 (age 31), 99 (age 127).
        let two = [1 << 3, (1 << 63) | (1 << (99 - 64))];
        assert_eq!(ages(&two, 100), vec![27, 31, 127]);
    }

    #[test]
    fn return_address_ring_drops_the_oldest_link_when_full() {
        let mut cpu = OooCpu::new(&TargetConfig::small(1), Arc::default());
        assert_eq!(cpu.ras_pop(), None);
        for link in 1..=RAS_DEPTH as u64 + 3 {
            cpu.ras_push(link * 8);
        }
        let kept: Vec<u64> = (4..=RAS_DEPTH as u64 + 3).map(|l| l * 8).collect();
        assert_eq!(cpu.ras_links().collect::<Vec<_>>(), kept);
        for &link in kept.iter().rev() {
            assert_eq!(cpu.ras_pop(), Some(link));
        }
        assert_eq!(cpu.ras_pop(), None);
    }

    /// A loop that misses the L1D on a new block every iteration and
    /// stores back to it: loads in the MSHRs, stores in the store buffer
    /// and a full ROB at the same time. Prints the sum of what it stored.
    fn miss_and_store_loop(iters: i64) -> sk_isa::Program {
        let mut b = ProgramBuilder::new();
        let src = b.zeros("src", iters as usize * 8);
        let dst = b.zeros("dst", iters as usize * 8);
        b.li(Reg::tmp(2), src as i64);
        b.li(Reg::tmp(4), dst as i64);
        b.li(Reg::tmp(0), iters);
        b.li(Reg::arg(0), 0);
        let top = b.here("top");
        b.ld(Reg::tmp(1), Reg::tmp(2), 0);
        b.add(Reg::tmp(1), Reg::tmp(1), Reg::tmp(0));
        b.st(Reg::tmp(1), Reg::tmp(4), 0);
        b.ld(Reg::tmp(3), Reg::tmp(4), 0); // forwarded from the store
        b.add(Reg::arg(0), Reg::arg(0), Reg::tmp(3));
        b.addi(Reg::tmp(2), Reg::tmp(2), 64);
        b.addi(Reg::tmp(4), Reg::tmp(4), 64);
        b.addi(Reg::tmp(0), Reg::tmp(0), -1);
        b.bne(Reg::tmp(0), Reg::ZERO, top);
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        b.build().unwrap()
    }

    fn ooo_cfg(rob_entries: usize) -> TargetConfig {
        let mut cfg = TargetConfig::small(1);
        cfg.core = CoreConfig { rob_entries, ..CoreConfig::paper_ooo() };
        cfg
    }

    /// Step a fresh core on `p` until the ROB, the store buffer and the
    /// MSHRs are all occupied; returns the core, its host and the cycle.
    fn run_until_busy(
        p: &sk_isa::Program,
        cfg: &TargetConfig,
    ) -> (CpuModel, TestHost, CoreStats, u64) {
        let mut cpu = core_for(cfg, p);
        let mut host = TestHost::new(p, cfg);
        let mut stats = CoreStats::default();
        cpu.start_thread(p.entry, 0, 0);
        for now in 1..5_000 {
            host.cycle(&mut cpu, &mut stats, now);
            let c = pipe(&cpu);
            if c.rob_len() > 8 && !c.store_buffer.is_empty() && c.mshr.outstanding() > 1 {
                return (cpu, host, stats, now);
            }
        }
        panic!("the pipeline never got busy");
    }

    fn saved(cpu: &CpuModel) -> Vec<u8> {
        let mut w = Writer::new();
        cpu.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn window_sizes_off_the_64_slot_word_compute_the_same_values() {
        for rob in [1, 3, 64, 100] {
            let (host, stats) = run_to_exit(&ooo_cfg(rob), &miss_and_store_loop(40), 100_000);
            assert_eq!(host.printed, vec![(1..=40).sum::<i64>()], "rob_entries = {rob}");
            assert_eq!(stats.committed, 4 + 40 * 9 + 2, "rob_entries = {rob}");
        }
    }

    #[test]
    fn mid_flight_state_roundtrips_and_the_restored_core_finishes_the_run() {
        let p = miss_and_store_loop(40);
        for rob in [64, 100] {
            let cfg = ooo_cfg(rob);
            let (live, mut host, mut stats, at) = run_until_busy(&p, &cfg);
            let bytes = saved(&live);
            let mut resumed = core_for(&cfg, &p);
            resumed.restore_state(&mut Reader::new(&bytes)).expect("restore");
            assert_eq!(saved(&resumed), bytes, "re-save drifted (rob_entries = {rob})");
            // Derived state is rebuilt, not read: it must equal the live one,
            // except that a parked load comes back ready.
            let (cpu, restored) = (pipe(&live), pipe(&resumed));
            assert_eq!(restored.ready, ready_or_parked(cpu));
            assert!(restored.order_blocked.iter().all(|&w| w == 0));
            assert_eq!(restored.executing, cpu.executing);
            assert_eq!(restored.stores, cpu.stores);
            assert_eq!((restored.lsq_used, restored.syscalls_in_rob), (cpu.lsq_used, 0));
            for seq in cpu.head_seq..cpu.tail_seq {
                let slot = cpu.slot_of(seq);
                let words = cpu.ready.len();
                assert_eq!(restored.rob[slot].pending, cpu.rob[slot].pending, "seq {seq}");
                assert_eq!(
                    restored.dependents[slot * words..(slot + 1) * words],
                    cpu.dependents[slot * words..(slot + 1) * words],
                    "seq {seq}"
                );
            }
            // The restored core takes over from the original's host.
            for now in at + 1..100_000 {
                host.cycle(&mut resumed, &mut stats, now);
                if resumed.finished() {
                    break;
                }
            }
            let (ref_host, ref_stats) = run_to_exit(&cfg, &p, 100_000);
            assert_eq!(host.printed, ref_host.printed);
            assert_eq!(stats.cycles, ref_stats.cycles, "resumed run took a different time");
            assert_eq!(stats.issued, ref_stats.issued);
        }
    }

    fn has_bit(words: &[u64], slot: usize) -> bool {
        words[slot >> 6] >> (slot & 63) & 1 == 1
    }

    /// What a rebuilt `ready` holds: the live one plus every parked load.
    fn ready_or_parked(cpu: &OooCpu) -> Vec<u64> {
        cpu.ready.iter().zip(&cpu.order_blocked).map(|(r, parked)| r | parked).collect()
    }

    /// Every parked load is still held back by the ordering rule: none
    /// slept through the store that would have let it go.
    fn assert_parked_loads_blocked(cpu: &OooCpu) {
        let head_slot = cpu.slot_of(cpu.head_seq);
        let mut from = 0;
        while let Some(age) = next_set(&cpu.order_blocked, head_slot, from) {
            from = age + 1;
            let slot = (head_slot + age) & cpu.slot_mask;
            let e = &cpu.rob[slot];
            assert!(age < cpu.rob_len(), "parked slot {slot} is outside the ROB");
            assert!(e.instr.is_load() && e.state == EState::Dispatched && e.addr_known, "{e:?}");
            assert!(!has_bit(&cpu.ready, slot), "slot {slot} is both parked and ready");
            let order = cpu.older_stores(age, e.mem_addr);
            assert_eq!(order, StoreOrder::Blocked, "load id {} missed its wakeup", e.id);
        }
    }

    /// A loop whose store address waits on an unpipelined divide, with two
    /// loads behind the store: one to its address (forwarded) and one to
    /// the next word. Prints 4 + 3 + 2 + 1 + 4 × 5 = 30.
    fn loads_behind_a_divided_store_address() -> sk_isa::Program {
        let mut b = ProgramBuilder::new();
        let buf = b.words("buf", &[0, 5]);
        b.li(Reg::tmp(2), buf as i64);
        b.li(Reg::tmp(1), 7);
        b.li(Reg::tmp(0), 4);
        b.li(Reg::arg(0), 0);
        let top = b.here("top");
        b.div(Reg::tmp(3), Reg::tmp(0), Reg::tmp(1)); // 0, twenty cycles on
        b.add(Reg::tmp(4), Reg::tmp(2), Reg::tmp(3));
        b.st(Reg::tmp(0), Reg::tmp(4), 0);
        b.ld(Reg::tmp(5), Reg::tmp(2), 0);
        b.ld(Reg::tmp(6), Reg::tmp(2), 8);
        b.add(Reg::arg(0), Reg::arg(0), Reg::tmp(5));
        b.add(Reg::arg(0), Reg::arg(0), Reg::tmp(6));
        b.addi(Reg::tmp(0), Reg::tmp(0), -1);
        b.bne(Reg::tmp(0), Reg::ZERO, top);
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        b.build().unwrap()
    }

    /// By ROB id: the cycle each store computed its address, the cycle
    /// each load issued, and the loads that were ever parked.
    #[derive(Debug, Default, PartialEq)]
    struct OrderLog {
        resolved: BTreeMap<RobId, u64>,
        issued: BTreeMap<RobId, u64>,
        parked: BTreeSet<RobId>,
    }

    /// Simulate cycle `now`, check that no parked load missed its wakeup,
    /// and log what the cycle did to the memory instructions.
    fn step_logged(
        model: &mut CpuModel,
        host: &mut TestHost,
        stats: &mut CoreStats,
        now: u64,
        log: &mut OrderLog,
    ) {
        host.cycle(model, stats, now);
        let cpu = pipe(model);
        assert_parked_loads_blocked(cpu);
        for seq in cpu.head_seq..cpu.tail_seq {
            let slot = cpu.slot_of(seq);
            let e = &cpu.rob[slot];
            if e.instr.is_store() && e.addr_known {
                log.resolved.entry(e.id).or_insert(now);
            }
            if e.instr.is_load() && e.state != EState::Dispatched {
                log.issued.entry(e.id).or_insert(now);
            }
            if has_bit(&cpu.order_blocked, slot) {
                log.parked.insert(e.id);
            }
        }
    }

    #[test]
    fn parked_loads_issue_in_the_cycle_their_store_resolves() {
        let p = loads_behind_a_divided_store_address();
        for rob_entries in [3, 64, 100] {
            for lsq_entries in [1, 32] {
                let mut cfg = TargetConfig::small(1);
                cfg.core = CoreConfig { rob_entries, lsq_entries, ..CoreConfig::paper_ooo() };
                let why = format!("rob_entries = {rob_entries}, lsq_entries = {lsq_entries}");
                let start = || {
                    let mut cpu = core_for(&cfg, &p);
                    cpu.start_thread(p.entry, 0, 0);
                    (cpu, TestHost::new(&p, &cfg), CoreStats::default(), OrderLog::default(), 0)
                };

                let (mut cpu, mut host, mut stats, mut log, mut now) = start();
                while !cpu.finished() {
                    now += 1;
                    assert!(now < 10_000, "{why}: no exit");
                    step_logged(&mut cpu, &mut host, &mut stats, now, &mut log);
                }
                assert_eq!(host.printed, vec![30], "{why}");
                // A parked load goes in the cycle the youngest older store
                // resolves (every older one resolved before it), unless a
                // flush took it first.
                for load in &log.parked {
                    let Some(&at) = log.issued.get(load) else { continue };
                    let (_, &resolved) = log.resolved.range(..load).next_back().unwrap();
                    assert_eq!(at, resolved, "{why}: load id {load}");
                }
                if rob_entries >= 64 && lsq_entries > 1 {
                    // Both loads of all four iterations, at least.
                    assert!(log.parked.len() >= 8, "{why}: {log:?}");
                }

                // Saved while loads are parked, restored, resumed on the
                // same host: the uninterrupted run, cycle for cycle.
                let (mut live, mut host2, mut stats2, mut log2, mut now2) = start();
                while pipe(&live).order_blocked.iter().all(|&w| w == 0) && !live.finished() {
                    now2 += 1;
                    step_logged(&mut live, &mut host2, &mut stats2, now2, &mut log2);
                }
                if live.finished() {
                    assert!(log.parked.is_empty(), "{why}");
                    continue;
                }
                let mut restored = core_for(&cfg, &p);
                restored.restore_state(&mut Reader::new(&saved(&live))).expect("restore");
                assert_eq!(pipe(&restored).ready, ready_or_parked(pipe(&live)), "{why}");
                assert!(pipe(&restored).order_blocked.iter().all(|&w| w == 0), "{why}");
                while !restored.finished() {
                    now2 += 1;
                    assert!(now2 < 10_000, "{why}: resumed run never exits");
                    step_logged(&mut restored, &mut host2, &mut stats2, now2, &mut log2);
                }
                assert_eq!(host2.printed, host.printed, "{why}");
                assert_eq!((stats2.cycles, stats2.issued), (stats.cycles, stats.issued), "{why}");
                assert_eq!(log2, log, "{why}");
            }
        }
    }

    /// A host that answers nothing: enough to step a restored core.
    struct NullHost;
    impl crate::cpu::CoreHost for NullHost {
        fn load(&mut self, _: u64, _: u64) -> u64 {
            0
        }
        fn store(&mut self, _: u64, _: u64, _: u64) {}
        fn fetch_word(&mut self, _: u64) -> u64 {
            0
        }
        fn emit(&mut self, _: OutKind) {}
        fn sys_start(&mut self, _: u16, _: [u64; 4], _: u64) -> SysOutcome {
            SysOutcome::Done(None)
        }
        fn sys_poll(&mut self, _: u64) -> SysOutcome {
            SysOutcome::Done(None)
        }
    }

    #[test]
    fn damaged_state_is_rejected_or_runs_but_never_indexes_out_of_bounds() {
        // No checksum here: every damaged image reaches `restore_state`.
        // Whatever it accepts must also step (every slot and sequence
        // reference in range) and take its memory replies.
        let cfg = ooo_cfg(64);
        let p = miss_and_store_loop(40);
        let (cpu, ..) = run_until_busy(&p, &cfg);
        let bytes = saved(&cpu);
        // Registers, rename maps and the whole ROB, byte by byte; the
        // caches, MSHRs and queues behind them at a stride.
        let rob_end = 8 + 2 * 32 * 8 + 2 + 2 * 32 * 8 + 16 + pipe(&cpu).rob_len() * 102;
        let positions = (0..rob_end).chain((rob_end..bytes.len()).step_by(7));
        let (mut accepted, mut rejected) = (0, 0);
        for pos in positions {
            for flip in [0x01, 0x10, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[pos] ^= flip;
                let mut c = core_for(&cfg, &p);
                if c.restore_state(&mut Reader::new(&bad)).is_err() {
                    rejected += 1;
                    continue;
                }
                accepted += 1;
                let mut stats = CoreStats::default();
                for now in 1..=48 {
                    if now == 24 {
                        let blocks: Vec<BlockAddr> =
                            pipe(&c).mshr.iter().map(|(b, _)| *b).collect();
                        for block in blocks {
                            c.mem_reply(block, LineState::Exclusive, now);
                        }
                    }
                    c.step(&mut CpuCtx { now, host: &mut NullHost, stats: &mut stats });
                }
            }
            for cut in [pos, pos + 1] {
                let mut c = core_for(&cfg, &p);
                assert!(c.restore_state(&mut Reader::new(&bytes[..cut])).is_err(), "cut {cut}");
            }
        }
        assert!(accepted > 100 && rejected > 100, "{accepted} accepted, {rejected} rejected");
    }

    #[test]
    fn restore_rejects_references_outside_the_rob() {
        let cfg = ooo_cfg(64);
        let p = miss_and_store_loop(40);
        let (live, ..) = run_until_busy(&p, &cfg);
        let cpu = pipe(&live);
        let rejects = |damage: &dyn Fn(&mut OooCpu), why: &str| {
            let mut bad = core_for(&cfg, &p);
            bad.restore_state(&mut Reader::new(&saved(&live))).unwrap();
            damage(pipe_mut(&mut bad));
            let err = core_for(&cfg, &p).restore_state(&mut Reader::new(&saved(&bad)));
            assert!(matches!(err, Err(SnapError::Corrupt(_))), "{why}: {err:?}");
        };
        let youngest = cpu.slot_of(cpu.tail_seq - 1);
        rejects(&|c| c.rob[youngest].src[0] = c.tail_seq, "source not older than its consumer");
        rejects(&|c| c.int_map[5] = c.tail_seq + 7, "rename map past the tail");
        rejects(&|c| c.int_map[0] = c.head_seq, "rename map names a non-writer of the register");
        rejects(&|c| c.rob[youngest].id = 0, "ids not increasing");
        rejects(&|c| c.next_id = 0, "next id behind the ROB");
        let first = FetchRec {
            pc: sk_isa::layout::TEXT_BASE,
            pred_target: 0,
            idx: 0,
            pred_taken: false,
            bad_fetch: false,
        };
        rejects(&|c| c.fetch_q.resize(c.sh.cfg.fetch_queue + 1, first), "fetch queue overfull");
        let sb = SbEntry { addr: 0, val: 0, state: SbState::Need };
        rejects(&|c| c.store_buffer.resize(c.sh.cfg.store_buffer + 1, sb), "store buffer overfull");
        // `head_seq` sits behind pc, both register files, two flags and
        // both rename maps: move it to where the entries overflow u64.
        let mut bytes = saved(&live);
        let head_at = 8 + 2 * 32 * 8 + 2 + 2 * 32 * 8;
        assert_eq!(bytes[head_at..head_at + 8], cpu.head_seq.to_le_bytes());
        bytes[head_at..head_at + 8].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        let wrapped = core_for(&cfg, &p).restore_state(&mut Reader::new(&bytes));
        assert!(matches!(wrapped, Err(SnapError::Corrupt(_))), "{wrapped:?}");
        // More entries than the configured ROB: a 64-entry image into an
        // 8-entry core.
        let small = core_for(&ooo_cfg(8), &p).restore_state(&mut Reader::new(&saved(&live)));
        assert!(matches!(small, Err(SnapError::Corrupt(_))), "{small:?}");
    }

    #[test]
    fn runaway_pc_terminates() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let p = b.build().unwrap();
        let cfg = ooo();
        let mut cpu = core_for(&cfg, &p);
        let mut host = TestHost::new(&p, &cfg);
        let mut stats = CoreStats::default();
        cpu.start_thread(p.entry, 0, 0);
        for now in 1..10_000 {
            host.cycle(&mut cpu, &mut stats, now);
            if cpu.finished() {
                break;
            }
        }
        // It ran off the text and stopped at the first word that does not
        // decode, which reached the head of the ROB as a bad fetch.
        let c = pipe(&cpu);
        assert!(cpu.finished(), "{}", c.debug_state());
        assert!(c.rob[c.slot_of(c.head_seq)].bad_fetch, "{}", c.debug_state());
        let off_records = c.fetch_q.iter().filter(|f| f.idx == OFF_TABLE).count();
        assert_eq!(c.off_table.len(), off_records);
    }

    /// Calls a routine in the data segment: three words that decode but
    /// that no predecoded table covers, the last a return. Prints 1 + 5 + 7.
    fn call_into_data() -> sk_isa::Program {
        let a0 = Reg::arg(0);
        let routine = [
            Instr::Addi { rd: a0, rs1: a0, imm: 5 },
            Instr::Addi { rd: a0, rs1: a0, imm: 7 },
            Instr::Jalr { rd: Reg::ZERO, rs1: Reg::RA, imm: 0 },
        ];
        let mut b = ProgramBuilder::new();
        let at = b.words("routine", &routine.map(|i| sk_isa::encode(&i)));
        b.li(a0, 1);
        b.li(Reg::tmp(0), at as i64);
        b.emit(Instr::Jalr { rd: Reg::RA, rs1: Reg::tmp(0), imm: 0 });
        b.sys(Syscall::PrintInt);
        b.sys(Syscall::Exit);
        b.build().unwrap()
    }

    /// Instructions fetched off the predecoded table run exactly as table
    /// ones: with no table at all, every fetch takes that path, and the run
    /// is the same cycle for cycle.
    #[test]
    fn off_table_fetches_run_like_table_fetches() {
        let cfg = ooo();
        for p in [call_into_data(), miss_and_store_loop(20), loads_behind_a_divided_store_address()]
        {
            let (host, stats) = run_to_exit(&cfg, &p, 100_000);
            let no_table = CpuModel::new(&cfg, Arc::default());
            let (bare_host, bare_stats) = run_model_to_exit(no_table, &cfg, &p, 100_000);
            assert_eq!(bare_host.printed, host.printed);
            assert_eq!(format!("{bare_stats:?}"), format!("{stats:?}"));
        }
        let (host, stats) = run_to_exit(&cfg, &call_into_data(), 10_000);
        assert_eq!(host.printed, vec![13]);
        assert_eq!(stats.committed, 3 + 3 + 2);
    }

    /// A snapshot taken while an off-table instruction waits in the fetch
    /// queue, or sits in the ROB, restores to the same core and finishes
    /// as the uninterrupted run does. (Fetch also runs on past `exit`, off
    /// the end of the text, so the queue holds more of them.)
    #[test]
    fn a_snapshot_with_off_table_instructions_in_flight_resumes_exactly() {
        let cfg = ooo();
        let p = call_into_data();
        let (ref_host, ref_stats) = run_to_exit(&cfg, &p, 10_000);
        let off_in_rob = |c: &OooCpu| {
            (c.head_seq..c.tail_seq).any(|s| c.sh.text.index(c.rob[c.slot_of(s)].pc).is_none())
        };
        let off_in_queue = |c: &OooCpu| c.fetch_q.iter().any(|f| f.idx == OFF_TABLE);
        for (what, stop_at) in
            [("fetch queue", &off_in_queue as &dyn Fn(&OooCpu) -> bool), ("ROB", &off_in_rob)]
        {
            let mut live = core_for(&cfg, &p);
            let mut host = TestHost::new(&p, &cfg);
            let mut stats = CoreStats::default();
            live.start_thread(p.entry, 0, 0);
            let mut now = 0;
            while !stop_at(pipe(&live)) {
                now += 1;
                assert!(now < 1_000, "no off-table instruction in the {what}");
                host.cycle(&mut live, &mut stats, now);
            }
            let bytes = saved(&live);
            let mut resumed = core_for(&cfg, &p);
            resumed.restore_state(&mut Reader::new(&bytes)).expect("restore");
            assert_eq!(saved(&resumed), bytes, "{what}: re-save drifted");
            let (a, b) = (pipe(&live), pipe(&resumed));
            assert_eq!(a.off_table, b.off_table, "{what}");
            let idx = |c: &OooCpu| c.fetch_q.iter().map(|f| f.idx).collect::<Vec<_>>();
            assert_eq!(idx(a), idx(b), "{what}");
            while !resumed.finished() {
                now += 1;
                assert!(now < 10_000, "{what}: the resumed run never exits");
                host.cycle(&mut resumed, &mut stats, now);
            }
            resumed.flush_cache_stats(&mut stats);
            assert_eq!(host.printed, ref_host.printed, "{what}");
            assert_eq!(format!("{stats:?}"), format!("{ref_stats:?}"), "{what}");
        }
    }
}
