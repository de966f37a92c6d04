//! Superblock fusion over the predecoded text table.
//!
//! [`DecodedProgram`] (see [`crate::decoded`]) already folds operand/class
//! derivation into load time, but the executors still dispatch one
//! [`crate::Instr`] at a time through a general effects structure. This
//! module takes the next step in the processor-based-emulation spirit:
//! compile the text segment **once** into a flat table of [`Uop`]s —
//! a threaded-code form with operand register numbers, immediates, and
//! absolute branch targets fully pre-resolved — and precompute, for every
//! instruction, the length of the maximal straight-line *run* that starts
//! there.
//!
//! A **superblock** is such a run: it is branch-anchored (every entry
//! point starts a block, including back-edges into the interior of a
//! longer block — the `run_len` table makes every pc a valid entry), ends
//! *with* its terminating control transfer, and is cut short by syscalls
//! (which serialize through the host), by any instruction the fuser
//! refuses ([`Uop::Other`]), and by [`MAX_BLOCK_LEN`]. The dispatcher
//! (the in-order core) executes a run's uops back to back on the fast
//! path — no per-instruction table lookup, no `Option`-driven operand
//! gathering — and falls back to the existing per-instruction model at
//! block exits, cache misses, syscalls and PCs outside the table (bad-fetch semantics are preserved by the
//! fall-back, exactly as for the predecode table).
//!
//! The table is purely architectural and static: it never changes after
//! [`SuperblockTable::build`], so it is shared read-only across core
//! threads and is *rebuilt* (never serialized) on snapshot resume, like
//! the predecode table it mirrors.

use crate::decoded::DecodedProgram;
use crate::instr::{FuClass, Instr};
use crate::layout::TEXT_BASE;
use crate::WORD_BYTES;

/// Fusion stops after this many instructions; longer straight-line code
/// chains into consecutive blocks. Keeps a block comfortably inside any
/// scheme's run-ahead batch cap so window-edge splits stay rare.
pub const MAX_BLOCK_LEN: u16 = 64;

/// Integer register-register ALU operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // 1:1 with the like-named `Instr` variants
pub enum AluRROp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
}

impl AluRROp {
    /// Architectural result, bit-identical to [`Instr`] execution.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluRROp::Add => a.wrapping_add(b),
            AluRROp::Sub => a.wrapping_sub(b),
            AluRROp::Mul => a.wrapping_mul(b),
            AluRROp::Div => {
                let (x, y) = (a as i64, b as i64);
                if y == 0 {
                    u64::MAX
                } else {
                    x.wrapping_div(y) as u64
                }
            }
            AluRROp::Rem => {
                let (x, y) = (a as i64, b as i64);
                if y == 0 {
                    a
                } else {
                    x.wrapping_rem(y) as u64
                }
            }
            AluRROp::And => a & b,
            AluRROp::Or => a | b,
            AluRROp::Xor => a ^ b,
            AluRROp::Sll => a.wrapping_shl(b as u32 & 63),
            AluRROp::Srl => a.wrapping_shr(b as u32 & 63),
            AluRROp::Sra => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
            AluRROp::Slt => ((a as i64) < (b as i64)) as u64,
            AluRROp::Sltu => (a < b) as u64,
        }
    }

    /// Functional-unit class (for the timing models).
    #[inline]
    pub fn fu(self) -> FuClass {
        match self {
            AluRROp::Mul => FuClass::IntMul,
            AluRROp::Div | AluRROp::Rem => FuClass::IntDiv,
            _ => FuClass::IntAlu,
        }
    }
}

/// Integer register-immediate ALU operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluRIOp {
    Addi,
    Andi,
    Ori,
    Xori,
    Slli,
    Srli,
    Srai,
    Slti,
    Addih,
}

impl AluRIOp {
    /// Architectural result, bit-identical to [`Instr`] execution.
    #[inline]
    pub fn eval(self, a: u64, imm: i32) -> u64 {
        match self {
            AluRIOp::Addi => a.wrapping_add(imm as i64 as u64),
            AluRIOp::Andi => a & (imm as i64 as u64),
            AluRIOp::Ori => a | (imm as i64 as u64),
            AluRIOp::Xori => a ^ (imm as i64 as u64),
            AluRIOp::Slli => a.wrapping_shl(imm as u32 & 63),
            AluRIOp::Srli => a.wrapping_shr(imm as u32 & 63),
            AluRIOp::Srai => ((a as i64).wrapping_shr(imm as u32 & 63)) as u64,
            AluRIOp::Slti => ((a as i64) < (imm as i64)) as u64,
            AluRIOp::Addih => a.wrapping_add(((imm as i64) << 32) as u64),
        }
    }
}

/// Conditional-branch predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BrCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

impl BrCond {
    /// Branch direction for operand values `a`, `b`.
    #[inline]
    pub fn taken(self, a: u64, b: u64) -> bool {
        match self {
            BrCond::Eq => a == b,
            BrCond::Ne => a != b,
            BrCond::Lt => (a as i64) < (b as i64),
            BrCond::Ge => (a as i64) >= (b as i64),
            BrCond::Ltu => a < b,
            BrCond::Geu => a >= b,
        }
    }
}

/// Two-source floating-point operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FpBinOp {
    Fadd,
    Fsub,
    Fmul,
    Fdiv,
    Fmin,
    Fmax,
}

impl FpBinOp {
    /// Architectural result, bit-identical to [`Instr`] execution.
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            FpBinOp::Fadd => a + b,
            FpBinOp::Fsub => a - b,
            FpBinOp::Fmul => a * b,
            FpBinOp::Fdiv => a / b,
            FpBinOp::Fmin => a.min(b),
            FpBinOp::Fmax => a.max(b),
        }
    }

    /// Functional-unit class (for the timing models).
    #[inline]
    pub fn fu(self) -> FuClass {
        match self {
            FpBinOp::Fmul => FuClass::FpMul,
            FpBinOp::Fdiv => FuClass::FpDiv,
            _ => FuClass::FpAdd,
        }
    }
}

/// Single-source floating-point operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FpUnOp {
    Fsqrt,
    Fneg,
    Fabs,
}

impl FpUnOp {
    /// Architectural result, bit-identical to [`Instr`] execution.
    #[inline]
    pub fn eval(self, a: f64) -> f64 {
        match self {
            FpUnOp::Fsqrt => a.sqrt(),
            FpUnOp::Fneg => -a,
            FpUnOp::Fabs => a.abs(),
        }
    }

    /// Functional-unit class (for the timing models).
    #[inline]
    pub fn fu(self) -> FuClass {
        match self {
            FpUnOp::Fsqrt => FuClass::FpSqrt,
            _ => FuClass::FpAdd,
        }
    }
}

/// Floating-point compare writing an integer register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FpCmpOp {
    Feq,
    Flt,
    Fle,
}

impl FpCmpOp {
    /// Architectural result (0/1), bit-identical to [`Instr`] execution.
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> u64 {
        match self {
            FpCmpOp::Feq => (a == b) as u64,
            FpCmpOp::Flt => (a < b) as u64,
            FpCmpOp::Fle => (a <= b) as u64,
        }
    }
}

/// One threaded-code micro-op: an [`Instr`] with register numbers
/// flattened to raw indices and direct branch targets resolved to
/// absolute PCs at compile time. Destination index 0 encodes the
/// hardwired-zero register; executors must discard those writes.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // operand fields follow the `Instr` naming
pub enum Uop {
    AluRR {
        op: AluRROp,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    AluRI {
        op: AluRIOp,
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    Li {
        rd: u8,
        imm: i32,
    },
    /// `rd = mem[(rs1 + imm) & !7]`.
    Ld {
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    /// `fd = mem[(rs1 + imm) & !7]` (bit pattern).
    Fld {
        fd: u8,
        rs1: u8,
        imm: i32,
    },
    /// `mem[(rs1 + imm) & !7] = rs2`.
    St {
        rs2: u8,
        rs1: u8,
        imm: i32,
    },
    /// `mem[(rs1 + imm) & !7] = fs` (bit pattern).
    Fst {
        fs: u8,
        rs1: u8,
        imm: i32,
    },
    /// Conditional branch; `target` is the absolute taken PC.
    Br {
        cond: BrCond,
        rs1: u8,
        rs2: u8,
        target: u64,
    },
    J {
        target: u64,
    },
    /// `rd = pc + 8`, then jump to `target`.
    Jal {
        rd: u8,
        target: u64,
    },
    /// `rd = pc + 8; pc = (rs1 + imm) & !7`.
    Jalr {
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    FpBin {
        op: FpBinOp,
        fd: u8,
        fs1: u8,
        fs2: u8,
    },
    FpUn {
        op: FpUnOp,
        fd: u8,
        fs1: u8,
    },
    FpCmp {
        op: FpCmpOp,
        rd: u8,
        fs1: u8,
        fs2: u8,
    },
    Fcvtlf {
        fd: u8,
        rs1: u8,
    },
    Fcvtfl {
        rd: u8,
        fs1: u8,
    },
    Fmvxf {
        rd: u8,
        fs1: u8,
    },
    Fmvfx {
        fd: u8,
        rs1: u8,
    },
    Nop,
    /// The fuser refused this instruction (syscalls, and anything a
    /// future ISA extension adds before it is taught here). Dispatchers
    /// must fall back to the per-instruction model.
    Other,
}

/// Absolute taken-target of a direct branch at `pc` with instruction
/// offset `off` (mirrors the executor's `rel_target`).
#[inline]
fn branch_target(pc: u64, off: i32) -> u64 {
    pc.wrapping_add(WORD_BYTES).wrapping_add((off as i64).wrapping_mul(WORD_BYTES as i64) as u64)
}

impl Uop {
    /// Compile one instruction sitting at absolute `pc`.
    pub fn compile(i: &Instr, pc: u64) -> Self {
        use Instr::*;
        let rr = |op: AluRROp, rd: crate::Reg, rs1: crate::Reg, rs2: crate::Reg| Uop::AluRR {
            op,
            rd: rd.0,
            rs1: rs1.0,
            rs2: rs2.0,
        };
        let ri = |op: AluRIOp, rd: crate::Reg, rs1: crate::Reg, imm: i32| Uop::AluRI {
            op,
            rd: rd.0,
            rs1: rs1.0,
            imm,
        };
        let br = |cond: BrCond, rs1: crate::Reg, rs2: crate::Reg, off: i32| Uop::Br {
            cond,
            rs1: rs1.0,
            rs2: rs2.0,
            target: branch_target(pc, off),
        };
        match *i {
            Add { rd, rs1, rs2 } => rr(AluRROp::Add, rd, rs1, rs2),
            Sub { rd, rs1, rs2 } => rr(AluRROp::Sub, rd, rs1, rs2),
            Mul { rd, rs1, rs2 } => rr(AluRROp::Mul, rd, rs1, rs2),
            Div { rd, rs1, rs2 } => rr(AluRROp::Div, rd, rs1, rs2),
            Rem { rd, rs1, rs2 } => rr(AluRROp::Rem, rd, rs1, rs2),
            And { rd, rs1, rs2 } => rr(AluRROp::And, rd, rs1, rs2),
            Or { rd, rs1, rs2 } => rr(AluRROp::Or, rd, rs1, rs2),
            Xor { rd, rs1, rs2 } => rr(AluRROp::Xor, rd, rs1, rs2),
            Sll { rd, rs1, rs2 } => rr(AluRROp::Sll, rd, rs1, rs2),
            Srl { rd, rs1, rs2 } => rr(AluRROp::Srl, rd, rs1, rs2),
            Sra { rd, rs1, rs2 } => rr(AluRROp::Sra, rd, rs1, rs2),
            Slt { rd, rs1, rs2 } => rr(AluRROp::Slt, rd, rs1, rs2),
            Sltu { rd, rs1, rs2 } => rr(AluRROp::Sltu, rd, rs1, rs2),
            Addi { rd, rs1, imm } => ri(AluRIOp::Addi, rd, rs1, imm),
            Andi { rd, rs1, imm } => ri(AluRIOp::Andi, rd, rs1, imm),
            Ori { rd, rs1, imm } => ri(AluRIOp::Ori, rd, rs1, imm),
            Xori { rd, rs1, imm } => ri(AluRIOp::Xori, rd, rs1, imm),
            Slli { rd, rs1, imm } => ri(AluRIOp::Slli, rd, rs1, imm),
            Srli { rd, rs1, imm } => ri(AluRIOp::Srli, rd, rs1, imm),
            Srai { rd, rs1, imm } => ri(AluRIOp::Srai, rd, rs1, imm),
            Slti { rd, rs1, imm } => ri(AluRIOp::Slti, rd, rs1, imm),
            Addih { rd, rs1, imm } => ri(AluRIOp::Addih, rd, rs1, imm),
            Li { rd, imm } => Uop::Li { rd: rd.0, imm },
            Ld { rd, rs1, imm } => Uop::Ld { rd: rd.0, rs1: rs1.0, imm },
            Fld { fd, rs1, imm } => Uop::Fld { fd: fd.0, rs1: rs1.0, imm },
            St { rs2, rs1, imm } => Uop::St { rs2: rs2.0, rs1: rs1.0, imm },
            Fst { fs, rs1, imm } => Uop::Fst { fs: fs.0, rs1: rs1.0, imm },
            Beq { rs1, rs2, off } => br(BrCond::Eq, rs1, rs2, off),
            Bne { rs1, rs2, off } => br(BrCond::Ne, rs1, rs2, off),
            Blt { rs1, rs2, off } => br(BrCond::Lt, rs1, rs2, off),
            Bge { rs1, rs2, off } => br(BrCond::Ge, rs1, rs2, off),
            Bltu { rs1, rs2, off } => br(BrCond::Ltu, rs1, rs2, off),
            Bgeu { rs1, rs2, off } => br(BrCond::Geu, rs1, rs2, off),
            J { off } => Uop::J { target: branch_target(pc, off) },
            Jal { rd, off } => Uop::Jal { rd: rd.0, target: branch_target(pc, off) },
            Jalr { rd, rs1, imm } => Uop::Jalr { rd: rd.0, rs1: rs1.0, imm },
            Fadd { fd, fs1, fs2 } => {
                Uop::FpBin { op: FpBinOp::Fadd, fd: fd.0, fs1: fs1.0, fs2: fs2.0 }
            }
            Fsub { fd, fs1, fs2 } => {
                Uop::FpBin { op: FpBinOp::Fsub, fd: fd.0, fs1: fs1.0, fs2: fs2.0 }
            }
            Fmul { fd, fs1, fs2 } => {
                Uop::FpBin { op: FpBinOp::Fmul, fd: fd.0, fs1: fs1.0, fs2: fs2.0 }
            }
            Fdiv { fd, fs1, fs2 } => {
                Uop::FpBin { op: FpBinOp::Fdiv, fd: fd.0, fs1: fs1.0, fs2: fs2.0 }
            }
            Fmin { fd, fs1, fs2 } => {
                Uop::FpBin { op: FpBinOp::Fmin, fd: fd.0, fs1: fs1.0, fs2: fs2.0 }
            }
            Fmax { fd, fs1, fs2 } => {
                Uop::FpBin { op: FpBinOp::Fmax, fd: fd.0, fs1: fs1.0, fs2: fs2.0 }
            }
            Fsqrt { fd, fs1 } => Uop::FpUn { op: FpUnOp::Fsqrt, fd: fd.0, fs1: fs1.0 },
            Fneg { fd, fs1 } => Uop::FpUn { op: FpUnOp::Fneg, fd: fd.0, fs1: fs1.0 },
            Fabs { fd, fs1 } => Uop::FpUn { op: FpUnOp::Fabs, fd: fd.0, fs1: fs1.0 },
            Feq { rd, fs1, fs2 } => {
                Uop::FpCmp { op: FpCmpOp::Feq, rd: rd.0, fs1: fs1.0, fs2: fs2.0 }
            }
            Flt { rd, fs1, fs2 } => {
                Uop::FpCmp { op: FpCmpOp::Flt, rd: rd.0, fs1: fs1.0, fs2: fs2.0 }
            }
            Fle { rd, fs1, fs2 } => {
                Uop::FpCmp { op: FpCmpOp::Fle, rd: rd.0, fs1: fs1.0, fs2: fs2.0 }
            }
            Fcvtlf { fd, rs1 } => Uop::Fcvtlf { fd: fd.0, rs1: rs1.0 },
            Fcvtfl { rd, fs1 } => Uop::Fcvtfl { rd: rd.0, fs1: fs1.0 },
            Fmvxf { rd, fs1 } => Uop::Fmvxf { rd: rd.0, fs1: fs1.0 },
            Fmvfx { fd, rs1 } => Uop::Fmvfx { fd: fd.0, rs1: rs1.0 },
            Syscall { .. } => Uop::Other,
            Nop => Uop::Nop,
        }
    }

    /// Control transfer (ends a run, with a resolved next PC)?
    #[inline]
    pub fn is_control(&self) -> bool {
        matches!(self, Uop::Br { .. } | Uop::J { .. } | Uop::Jal { .. } | Uop::Jalr { .. })
    }

    /// Memory access?
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(self, Uop::Ld { .. } | Uop::Fld { .. } | Uop::St { .. } | Uop::Fst { .. })
    }

    /// Functional-unit class, identical to the source instruction's (the
    /// timing models key execution latency off this).
    #[inline]
    pub fn fu(&self) -> FuClass {
        match self {
            Uop::AluRR { op, .. } => op.fu(),
            Uop::AluRI { .. } | Uop::Li { .. } => FuClass::IntAlu,
            Uop::Ld { .. } | Uop::Fld { .. } => FuClass::Load,
            Uop::St { .. } | Uop::Fst { .. } => FuClass::Store,
            Uop::Br { .. } => FuClass::Branch,
            Uop::J { .. } | Uop::Jal { .. } | Uop::Jalr { .. } => FuClass::Jump,
            Uop::FpBin { op, .. } => op.fu(),
            Uop::FpUn { op, .. } => op.fu(),
            Uop::FpCmp { .. }
            | Uop::Fcvtlf { .. }
            | Uop::Fcvtfl { .. }
            | Uop::Fmvxf { .. }
            | Uop::Fmvfx { .. } => FuClass::FpAdd,
            Uop::Nop => FuClass::Nop,
            Uop::Other => FuClass::Syscall,
        }
    }
}

/// Flat superblock view of a program's text segment.
///
/// `uops[idx]` is the compiled form of the instruction at text index
/// `idx`; `run_len[idx]` is the number of uops (1..=[`MAX_BLOCK_LEN`]) a
/// dispatcher entering at `idx` may execute back to back, where only the
/// *last* uop of a run can be a control transfer and refused uops
/// ([`Uop::Other`]) have run length 0. Because the run length is stored
/// per instruction, every pc is a valid block entry — a back-edge into
/// the interior of a longer block simply starts a (shorter) block there.
#[derive(Debug, Default)]
pub struct SuperblockTable {
    uops: Vec<Uop>,
    run_len: Vec<u16>,
    blocks_formed: u64,
}

impl SuperblockTable {
    /// Compile a predecoded program into superblock form.
    pub fn build(p: &DecodedProgram) -> Self {
        let n = p.len();
        let mut uops = Vec::with_capacity(n);
        for idx in 0..n {
            let pc = TEXT_BASE + idx as u64 * WORD_BYTES;
            uops.push(Uop::compile(&p.get(idx).expect("idx < len").instr, pc));
        }
        // One backward pass: a control uop terminates its own run; a
        // refused uop has no run; everything else extends the successor's
        // run, clamped at the block cap.
        let mut run_len = vec![0u16; n];
        for idx in (0..n).rev() {
            run_len[idx] = match &uops[idx] {
                Uop::Other => 0,
                u if u.is_control() => 1,
                _ => {
                    let next = if idx + 1 < n { run_len[idx + 1] } else { 0 };
                    (1 + next).min(MAX_BLOCK_LEN)
                }
            };
        }
        // Formation census: an anchor is an entry pc no straight-line
        // predecessor flows into (start of text, after a refused uop, or
        // after a control transfer). Back-edge entries into interiors are
        // dynamic and not counted here.
        let mut blocks_formed = 0u64;
        for idx in 0..n {
            if run_len[idx] == 0 {
                continue;
            }
            if idx == 0 || run_len[idx - 1] == 0 || uops[idx - 1].is_control() {
                blocks_formed += 1;
            }
        }
        SuperblockTable { uops, run_len, blocks_formed }
    }

    /// Number of compiled uops (== text length).
    #[inline]
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// True when the text segment is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Uop at text index `idx` (callers obtain valid indices from
    /// [`SuperblockTable::lookup`]).
    #[inline]
    pub fn uop(&self, idx: usize) -> &Uop {
        &self.uops[idx]
    }

    /// `(text index, run length)` for entry pc `pc`, or `None` when `pc`
    /// lies outside the text segment or is misaligned (mirrors
    /// [`DecodedProgram::lookup`]). A run length of 0 means the pc holds
    /// a refused uop: the dispatcher must take the per-instruction path.
    #[inline]
    pub fn lookup(&self, pc: u64) -> Option<(usize, u16)> {
        if pc < TEXT_BASE || !pc.is_multiple_of(WORD_BYTES) {
            return None;
        }
        let idx = ((pc - TEXT_BASE) / WORD_BYTES) as usize;
        self.run_len.get(idx).map(|&l| (idx, l))
    }

    /// Number of maximal blocks the fuser formed (static census over the
    /// text; dynamic back-edge entries are not counted).
    #[inline]
    pub fn blocks_formed(&self) -> u64 {
        self.blocks_formed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::{FReg, Reg};
    use crate::syscall::Syscall;

    fn table(b: ProgramBuilder) -> SuperblockTable {
        let p = b.build().expect("program builds");
        SuperblockTable::build(&DecodedProgram::from_program(&p))
    }

    #[test]
    fn runs_end_with_control_and_stop_at_syscalls() {
        let mut b = ProgramBuilder::new();
        let top = b.here("top");
        b.addi(Reg::new(5), Reg::new(5), 1); // idx 0
        b.add(Reg::new(6), Reg::new(5), Reg::new(5)); // idx 1
        b.bne(Reg::new(5), Reg::ZERO, top); // idx 2 (control)
        b.sys(Syscall::Exit); // idx 3 (refused)
        let t = table(b);
        assert_eq!(t.run_len[0], 3, "run includes its terminating branch");
        assert_eq!(t.run_len[1], 2, "interior pcs are valid entries");
        assert_eq!(t.run_len[2], 1, "a control uop is a run of one");
        assert_eq!(t.run_len[3], 0, "syscalls are refused");
        assert_eq!(t.blocks_formed(), 1);
    }

    #[test]
    fn straight_line_runs_clamp_at_the_cap() {
        let mut b = ProgramBuilder::new();
        for _ in 0..(MAX_BLOCK_LEN as usize * 2) {
            b.addi(Reg::new(5), Reg::new(5), 1);
        }
        b.sys(Syscall::Exit);
        let t = table(b);
        assert_eq!(t.run_len[0], MAX_BLOCK_LEN);
        assert_eq!(t.run_len[MAX_BLOCK_LEN as usize * 2 - 1], 1);
        // Two chained maximal blocks (cap does not split the census; the
        // anchor rule does): only the start of text anchors here.
        assert_eq!(t.blocks_formed(), 1);
    }

    #[test]
    fn branch_targets_resolve_to_absolute_pcs() {
        let mut b = ProgramBuilder::new();
        let skip = b.new_label("skip");
        b.beq(Reg::new(5), Reg::new(6), skip); // idx 0
        b.addi(Reg::new(7), Reg::new(7), 13); // idx 1
        b.bind(skip);
        b.sys(Syscall::Exit); // idx 2
        let t = table(b);
        match *t.uop(0) {
            Uop::Br { cond: BrCond::Eq, target, .. } => {
                assert_eq!(target, TEXT_BASE + 2 * WORD_BYTES);
            }
            ref u => panic!("expected Br, got {u:?}"),
        }
    }

    #[test]
    fn lookup_mirrors_the_predecode_table() {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.sys(Syscall::Exit);
        let t = table(b);
        assert!(t.lookup(0).is_none());
        assert!(t.lookup(TEXT_BASE + 3).is_none(), "misaligned pc misses");
        assert_eq!(t.lookup(TEXT_BASE).map(|(i, _)| i), Some(0));
        assert!(t.lookup(TEXT_BASE + 64 * WORD_BYTES).is_none(), "past text misses");
    }

    #[test]
    fn every_instr_kind_compiles_to_a_real_uop_except_syscall() {
        let mut b = ProgramBuilder::new();
        b.add(Reg::new(5), Reg::new(6), Reg::new(7));
        b.fld(FReg::new(1), Reg::new(5), 8);
        b.fadd(FReg::new(2), FReg::new(1), FReg::new(1));
        b.emit(crate::Instr::Fcvtfl { rd: Reg::new(8), fs1: FReg::new(2) });
        b.emit(crate::Instr::Jalr { rd: Reg::RA, rs1: Reg::new(8), imm: 0 });
        b.sys(Syscall::Exit);
        let t = table(b);
        for idx in 0..t.len() - 1 {
            assert_ne!(*t.uop(idx), Uop::Other, "uop {idx} should compile");
        }
        assert_eq!(*t.uop(t.len() - 1), Uop::Other);
    }

    #[test]
    fn fu_classes_match_the_source_instructions() {
        let mut b = ProgramBuilder::new();
        let top = b.here("top");
        b.mul(Reg::new(5), Reg::new(6), Reg::new(7));
        b.fmul(FReg::new(1), FReg::new(2), FReg::new(3));
        b.fsqrt(FReg::new(1), FReg::new(2));
        b.ld(Reg::new(5), Reg::new(6), 0);
        b.st(Reg::new(5), Reg::new(6), 0);
        b.j(top);
        b.sys(Syscall::Exit);
        let p = b.build().expect("program builds");
        let dp = DecodedProgram::from_program(&p);
        let t = SuperblockTable::build(&dp);
        for idx in 0..t.len() {
            assert_eq!(t.uop(idx).fu(), dp.get(idx).unwrap().fu, "idx {idx}");
        }
    }
}
