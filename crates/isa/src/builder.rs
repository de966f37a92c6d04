//! Programmatic assembly: the [`ProgramBuilder`] DSL.
//!
//! The SPLASH-2-like kernels in `sk-kernels` are too large to write as text
//! assembly, so they are emitted through this builder, which provides
//! labels with automatic branch fixups, a data segment allocator and
//! pseudo-instructions (`li` for 64-bit constants, `la_text` for function
//! addresses, `call`/`ret`).
//!
//! ```
//! use sk_isa::{ProgramBuilder, Reg, Syscall};
//!
//! let mut b = ProgramBuilder::new();
//! let counter = b.zeros("counter", 1);
//! let loop_top = b.new_label("loop");
//! b.li(Reg::tmp(0), 10);
//! b.li(Reg::tmp(2), counter as i64);
//! b.bind(loop_top);
//! b.ld(Reg::tmp(1), Reg::tmp(2), 0);
//! b.addi(Reg::tmp(1), Reg::tmp(1), 1);
//! b.st(Reg::tmp(1), Reg::tmp(2), 0);
//! b.addi(Reg::tmp(0), Reg::tmp(0), -1);
//! b.bne(Reg::tmp(0), Reg::ZERO, loop_top);
//! b.sys(Syscall::Exit);
//! let program = b.build().unwrap();
//! assert_eq!(program.text_len(), 8);
//! ```

use crate::instr::Instr;
use crate::layout::DATA_BASE;
use crate::program::{Program, ProgramError};
use crate::reg::{FReg, Reg};
use crate::syscall::Syscall;
use crate::WORD_BYTES;
use std::collections::BTreeMap;

/// A forward-referenceable code label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Clone, Copy, Debug)]
enum BranchKind {
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
}

#[derive(Clone, Debug)]
enum Item {
    /// A fully resolved instruction.
    Fixed(Instr),
    /// Conditional branch to a label (1 word).
    Branch { kind: BranchKind, rs1: Reg, rs2: Reg, label: Label },
    /// Unconditional jump to a label (1 word).
    Jump { label: Label },
    /// Jump-and-link to a label (1 word).
    JumpLink { rd: Reg, label: Label },
    /// Load the byte address of a text label (always 2 words: Li + Addih).
    LaText { rd: Reg, label: Label },
}

impl Item {
    fn words(&self) -> usize {
        match self {
            Item::LaText { .. } => 2,
            _ => 1,
        }
    }
}

/// Incremental program constructor with labels and a data allocator.
///
/// All emit methods append at the current position and return `&mut Self`
/// only implicitly (they take `&mut self`); sequencing is by statement
/// order, as in an assembler listing.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    items: Vec<(usize, Item)>, // (instruction index, item)
    next_index: usize,
    labels: Vec<Option<usize>>, // label id -> bound instruction index
    label_names: Vec<String>,
    data: Vec<u64>,
    symbols: BTreeMap<String, u64>,
    entry_label: Option<Label>,
}

impl ProgramBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- labels ----

    /// Create a new unbound label. The name is kept for diagnostics and the
    /// final symbol table.
    pub fn new_label(&mut self, name: &str) -> Label {
        self.labels.push(None);
        self.label_names.push(name.to_string());
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label {:?} bound twice",
            self.label_names[label.0]
        );
        self.labels[label.0] = Some(self.next_index);
    }

    /// Create a label already bound to the current position.
    pub fn here(&mut self, name: &str) -> Label {
        let l = self.new_label(name);
        self.bind(l);
        l
    }

    /// Mark `label` as the program entry point (defaults to index 0).
    pub fn entry(&mut self, label: Label) {
        self.entry_label = Some(label);
    }

    // ---- data segment ----

    /// Append named words to the data segment; returns their byte address.
    pub fn words(&mut self, name: &str, values: &[u64]) -> u64 {
        let addr = DATA_BASE + (self.data.len() as u64) * WORD_BYTES;
        self.data.extend_from_slice(values);
        self.symbols.insert(name.to_string(), addr);
        addr
    }

    /// Append named f64 constants; returns their byte address.
    pub fn floats(&mut self, name: &str, values: &[f64]) -> u64 {
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        self.words(name, &bits)
    }

    /// Reserve `n` zeroed words; returns their byte address.
    pub fn zeros(&mut self, name: &str, n: usize) -> u64 {
        let addr = DATA_BASE + (self.data.len() as u64) * WORD_BYTES;
        self.data.resize(self.data.len() + n, 0);
        self.symbols.insert(name.to_string(), addr);
        addr
    }

    // ---- raw emission ----

    /// Append one resolved instruction.
    pub fn emit(&mut self, i: Instr) {
        self.push(Item::Fixed(i));
    }

    fn push(&mut self, item: Item) {
        let w = item.words();
        self.items.push((self.next_index, item));
        self.next_index += w;
    }

    /// Index of the next instruction to be emitted.
    pub fn position(&self) -> usize {
        self.next_index
    }

    // ---- pseudo-instructions ----

    /// Load an arbitrary 64-bit constant with the minimal sequence
    /// (1 instruction if it fits in a sign-extended i32, else 2).
    pub fn li(&mut self, rd: Reg, value: i64) {
        let low = value as i32;
        if low as i64 == value {
            self.emit(Instr::Li { rd, imm: low });
        } else {
            // value = sign_extend(low) + (high << 32) under wrapping
            // arithmetic, solve for high.
            let high = (value.wrapping_sub(low as i64) >> 32) as i32;
            self.emit(Instr::Li { rd, imm: low });
            self.emit(Instr::Addih { rd, rs1: rd, imm: high });
        }
    }

    /// Load the address of a text label (fixed 2-word sequence).
    pub fn la_text(&mut self, rd: Reg, label: Label) {
        self.push(Item::LaText { rd, label });
    }

    /// Register-to-register move.
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instr::Addi { rd, rs1: rs, imm: 0 });
    }

    /// FP register move.
    pub fn fmv(&mut self, fd: FReg, fs: FReg) {
        self.emit(Instr::Fmin { fd, fs1: fs, fs2: fs });
    }

    /// Call a function (jump-and-link through `ra`).
    pub fn call(&mut self, label: Label) {
        self.push(Item::JumpLink { rd: Reg::RA, label });
    }

    /// Return from a function.
    pub fn ret(&mut self) {
        self.emit(Instr::Jalr { rd: Reg::ZERO, rs1: Reg::RA, imm: 0 });
    }

    /// Emit a syscall.
    pub fn sys(&mut self, s: Syscall) {
        self.emit(Instr::Syscall { code: s.code() });
    }

    /// No-op.
    pub fn nop(&mut self) {
        self.emit(Instr::Nop);
    }

    // ---- control flow ----

    /// Unconditional jump to a label.
    pub fn j(&mut self, label: Label) {
        self.push(Item::Jump { label });
    }

    /// Jump-and-link to a label with an explicit link register.
    pub fn jal(&mut self, rd: Reg, label: Label) {
        self.push(Item::JumpLink { rd, label });
    }

    fn branch(&mut self, kind: BranchKind, rs1: Reg, rs2: Reg, label: Label) {
        self.push(Item::Branch { kind, rs1, rs2, label });
    }

    /// Branch if equal.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchKind::Beq, rs1, rs2, label);
    }
    /// Branch if not equal.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchKind::Bne, rs1, rs2, label);
    }
    /// Branch if less-than (signed).
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchKind::Blt, rs1, rs2, label);
    }
    /// Branch if greater-or-equal (signed).
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchKind::Bge, rs1, rs2, label);
    }
    /// Branch if less-than (unsigned).
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchKind::Bltu, rs1, rs2, label);
    }
    /// Branch if greater-or-equal (unsigned).
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchKind::Bgeu, rs1, rs2, label);
    }

    // ---- common instruction helpers ----

    /// `rd = rs1 + rs2`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Add { rd, rs1, rs2 });
    }
    /// `rd = rs1 - rs2`.
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Sub { rd, rs1, rs2 });
    }
    /// `rd = rs1 * rs2`.
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Mul { rd, rs1, rs2 });
    }
    /// `rd = rs1 / rs2` (signed).
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Div { rd, rs1, rs2 });
    }
    /// `rd = rs1 % rs2` (signed).
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Rem { rd, rs1, rs2 });
    }
    /// `rd = rs1 + imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Instr::Addi { rd, rs1, imm });
    }
    /// `rd = rs1 << imm`.
    pub fn slli(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Instr::Slli { rd, rs1, imm });
    }
    /// `rd = rs1 >> imm` (logical).
    pub fn srli(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Instr::Srli { rd, rs1, imm });
    }
    /// `rd = rs1 & imm`.
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Instr::Andi { rd, rs1, imm });
    }
    /// `rd = rs1 ^ rs2`.
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Xor { rd, rs1, rs2 });
    }
    /// `rd = (rs1 < rs2) ? 1 : 0` (signed).
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Slt { rd, rs1, rs2 });
    }
    /// `rd = mem[rs1 + imm]`.
    pub fn ld(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Instr::Ld { rd, rs1, imm });
    }
    /// `mem[rs1 + imm] = rs2`.
    pub fn st(&mut self, rs2: Reg, rs1: Reg, imm: i32) {
        self.emit(Instr::St { rs2, rs1, imm });
    }
    /// `fd = mem[rs1 + imm]`.
    pub fn fld(&mut self, fd: FReg, rs1: Reg, imm: i32) {
        self.emit(Instr::Fld { fd, rs1, imm });
    }
    /// `mem[rs1 + imm] = fs`.
    pub fn fst(&mut self, fs: FReg, rs1: Reg, imm: i32) {
        self.emit(Instr::Fst { fs, rs1, imm });
    }
    /// `fd = fs1 + fs2`.
    pub fn fadd(&mut self, fd: FReg, fs1: FReg, fs2: FReg) {
        self.emit(Instr::Fadd { fd, fs1, fs2 });
    }
    /// `fd = fs1 - fs2`.
    pub fn fsub(&mut self, fd: FReg, fs1: FReg, fs2: FReg) {
        self.emit(Instr::Fsub { fd, fs1, fs2 });
    }
    /// `fd = fs1 * fs2`.
    pub fn fmul(&mut self, fd: FReg, fs1: FReg, fs2: FReg) {
        self.emit(Instr::Fmul { fd, fs1, fs2 });
    }
    /// `fd = fs1 / fs2`.
    pub fn fdiv(&mut self, fd: FReg, fs1: FReg, fs2: FReg) {
        self.emit(Instr::Fdiv { fd, fs1, fs2 });
    }
    /// `fd = sqrt(fs1)`.
    pub fn fsqrt(&mut self, fd: FReg, fs1: FReg) {
        self.emit(Instr::Fsqrt { fd, fs1 });
    }

    // ---- linking ----

    fn resolve(&self, label: Label) -> Result<usize, String> {
        self.labels[label.0].ok_or_else(|| format!("unbound label {:?}", self.label_names[label.0]))
    }

    /// Resolve all fixups and produce a validated [`Program`].
    ///
    /// Fails if a referenced label was never bound or if a resolved branch
    /// leaves the text segment ([`ProgramError`]).
    pub fn build(self) -> Result<Program, String> {
        let mut text = Vec::with_capacity(self.next_index);
        for &(at, ref item) in &self.items {
            debug_assert_eq!(at, text.len());
            match *item {
                Item::Fixed(i) => text.push(i),
                Item::Branch { kind, rs1, rs2, label } => {
                    let tgt = self.resolve(label)?;
                    let off = tgt as i64 - (at as i64 + 1);
                    let off = i32::try_from(off).map_err(|_| "branch offset overflow")?;
                    text.push(match kind {
                        BranchKind::Beq => Instr::Beq { rs1, rs2, off },
                        BranchKind::Bne => Instr::Bne { rs1, rs2, off },
                        BranchKind::Blt => Instr::Blt { rs1, rs2, off },
                        BranchKind::Bge => Instr::Bge { rs1, rs2, off },
                        BranchKind::Bltu => Instr::Bltu { rs1, rs2, off },
                        BranchKind::Bgeu => Instr::Bgeu { rs1, rs2, off },
                    });
                }
                Item::Jump { label } => {
                    let tgt = self.resolve(label)?;
                    let off = i32::try_from(tgt as i64 - (at as i64 + 1))
                        .map_err(|_| "jump offset overflow")?;
                    text.push(Instr::J { off });
                }
                Item::JumpLink { rd, label } => {
                    let tgt = self.resolve(label)?;
                    let off = i32::try_from(tgt as i64 - (at as i64 + 1))
                        .map_err(|_| "jump offset overflow")?;
                    text.push(Instr::Jal { rd, off });
                }
                Item::LaText { rd, label } => {
                    let tgt = self.resolve(label)?;
                    let addr = Program::text_addr(tgt);
                    let low = addr as i32;
                    let high = ((addr as i64).wrapping_sub(low as i64) >> 32) as i32;
                    text.push(Instr::Li { rd, imm: low });
                    text.push(Instr::Addih { rd, rs1: rd, imm: high });
                }
            }
        }

        let entry = match self.entry_label {
            Some(l) => Program::text_addr(self.resolve(l)?),
            None => Program::text_addr(0),
        };

        let mut symbols = self.symbols;
        for (id, bound) in self.labels.iter().enumerate() {
            if let Some(idx) = bound {
                symbols
                    .entry(self.label_names[id].clone())
                    .or_insert_with(|| Program::text_addr(*idx));
            }
        }

        let p = Program { text, data: self.data, entry, symbols };
        p.validate().map_err(|e: ProgramError| e.to_string())?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut b = ProgramBuilder::new();
        let fwd = b.new_label("fwd");
        let top = b.here("top");
        b.addi(Reg::tmp(0), Reg::tmp(0), 1);
        b.beq(Reg::tmp(0), Reg::ZERO, fwd);
        b.j(top);
        b.bind(fwd);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        // beq at index 1 targets index 3 -> off = 1; j at 2 targets 0 -> off = -3
        assert_eq!(p.text[1], Instr::Beq { rs1: Reg::tmp(0), rs2: Reg::ZERO, off: 1 });
        assert_eq!(p.text[2], Instr::J { off: -3 });
        assert_eq!(p.symbol("top"), Some(Program::text_addr(0)));
        assert_eq!(p.symbol("fwd"), Some(Program::text_addr(3)));
    }

    #[test]
    fn unbound_label_fails_build() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label("nowhere");
        b.j(l);
        assert!(b.build().unwrap_err().contains("nowhere"));
    }

    #[test]
    fn li_uses_one_word_when_possible() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::tmp(0), 42);
        b.li(Reg::tmp(0), -42);
        b.sys(Syscall::Exit);
        assert_eq!(b.build().unwrap().text_len(), 3);
    }

    #[test]
    fn li_handles_full_64_bit_range() {
        for v in [i64::MAX, i64::MIN, 0x1234_5678_9abc_def0u64 as i64, -1, 1 << 32] {
            let mut b = ProgramBuilder::new();
            b.li(Reg::tmp(0), v);
            b.sys(Syscall::Exit);
            let p = b.build().unwrap();
            // Reconstruct the constant the way the core would execute it.
            let mut acc: i64 = 0;
            for ins in &p.text {
                match *ins {
                    Instr::Li { imm, .. } => acc = imm as i64,
                    Instr::Addih { imm, .. } => acc = acc.wrapping_add((imm as i64) << 32),
                    _ => {}
                }
            }
            assert_eq!(acc, v, "li of {v:#x}");
        }
    }

    #[test]
    fn la_text_is_always_two_words() {
        let mut b = ProgramBuilder::new();
        let f = b.new_label("f");
        b.la_text(Reg::arg(0), f);
        b.sys(Syscall::Exit);
        b.bind(f);
        b.ret();
        let p = b.build().unwrap();
        assert_eq!(p.text_len(), 4);
        assert_eq!(p.text[0], Instr::Li { rd: Reg::arg(0), imm: Program::text_addr(3) as i32 });
        assert_eq!(p.text[1], Instr::Addih { rd: Reg::arg(0), rs1: Reg::arg(0), imm: 0 });
    }

    #[test]
    fn data_allocator_assigns_disjoint_addresses() {
        let mut b = ProgramBuilder::new();
        let a = b.words("a", &[1, 2]);
        let c = b.floats("c", &[1.5]);
        let z = b.zeros("z", 4);
        assert_eq!(c, a + 16);
        assert_eq!(z, c + 8);
        b.sys(Syscall::Exit);
        let p = b.build().unwrap();
        assert_eq!(p.data.len(), 7);
        assert_eq!(p.data[2], 1.5f64.to_bits());
        assert_eq!(p.symbol("z"), Some(z));
    }

    #[test]
    fn entry_label_is_respected() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let main = b.here("main");
        b.sys(Syscall::Exit);
        b.entry(main);
        let p = b.build().unwrap();
        assert_eq!(p.entry, Program::text_addr(1));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label("l");
        b.bind(l);
        b.bind(l);
    }
}
