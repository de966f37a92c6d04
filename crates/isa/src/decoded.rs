//! Predecoded instruction tables.
//!
//! The timing models and the interpreter all sit in per-cycle loops that used
//! to re-derive operand registers (`int_srcs()`, `fp_srcs()`, `fu_class()`,
//! `rel_target()`, ...) from the [`Instr`] enum on every fetch. Those
//! accessors are cheap individually but each is a full match over ~50
//! variants, and the hot path runs several of them per instruction per cycle.
//!
//! [`DecodedProgram`] folds all of that work into load time: the text segment
//! is decoded **once** into a flat table of [`DecodedInstr`] records with the
//! operand registers, functional-unit class, branch target offset, and
//! classification flags pre-resolved. At fetch time the models do one bounds
//! check and an array index.
//!
//! The table is built from the program image and is *not* updated by stores
//! to the text segment. The simulated machine has no self-modifying-code
//! contract (nothing in the workload API can branch into written data), so
//! this matches the architectural model; the deviation is documented in
//! DESIGN.md. PCs outside the table (runaway jumps) simply miss and fall back
//! to the fetch-word-and-decode path, preserving the exact bad-fetch
//! semantics of the pre-table models.

use crate::encode::decode;
use crate::instr::{FuClass, Instr};
use crate::layout::TEXT_BASE;
use crate::program::Program;
use crate::reg::{FReg, Reg};
use crate::WORD_BYTES;

/// One predecoded instruction: the original [`Instr`] plus every derived
/// fact the timing models ask for on the per-cycle hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedInstr {
    /// The architectural instruction (still needed by the executors).
    pub instr: Instr,
    /// Functional-unit class (`instr.fu_class()`).
    pub fu: FuClass,
    /// Integer destination register, if any.
    pub int_dst: Option<Reg>,
    /// Floating-point destination register, if any.
    pub fp_dst: Option<FReg>,
    /// Integer source registers (`instr.int_srcs()`).
    pub int_srcs: [Option<Reg>; 2],
    /// Floating-point source registers (`instr.fp_srcs()`).
    pub fp_srcs: [Option<FReg>; 2],
    /// PC-relative branch/jump offset (`instr.rel_target()`).
    pub rel_target: Option<i32>,
    flags: u8,
}

const F_LOAD: u8 = 1 << 0;
const F_STORE: u8 = 1 << 1;
const F_COND_BRANCH: u8 = 1 << 2;
const F_CONTROL: u8 = 1 << 3;

impl DecodedInstr {
    /// Predecode one instruction, resolving every derived accessor once.
    pub fn new(instr: Instr) -> Self {
        let mut flags = 0;
        if instr.is_load() {
            flags |= F_LOAD;
        }
        if instr.is_store() {
            flags |= F_STORE;
        }
        if instr.is_cond_branch() {
            flags |= F_COND_BRANCH;
        }
        if instr.is_control() {
            flags |= F_CONTROL;
        }
        DecodedInstr {
            fu: instr.fu_class(),
            int_dst: instr.int_dst(),
            fp_dst: instr.fp_dst(),
            int_srcs: instr.int_srcs(),
            fp_srcs: instr.fp_srcs(),
            rel_target: instr.rel_target(),
            flags,
            instr,
        }
    }

    /// Memory load (`Ld`/`Fld`)?
    #[inline]
    pub fn is_load(&self) -> bool {
        self.flags & F_LOAD != 0
    }

    /// Memory store (`St`/`Fst`)?
    #[inline]
    pub fn is_store(&self) -> bool {
        self.flags & F_STORE != 0
    }

    /// Any memory access?
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.flags & (F_LOAD | F_STORE) != 0
    }

    /// Conditional branch?
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        self.flags & F_COND_BRANCH != 0
    }

    /// Control transfer (branch, jump, call, return)?
    #[inline]
    pub fn is_control(&self) -> bool {
        self.flags & F_CONTROL != 0
    }

    /// Syscall instruction?
    #[inline]
    pub fn is_syscall(&self) -> bool {
        self.fu == FuClass::Syscall
    }
}

/// Flat predecoded view of a program's text segment, indexed by PC.
///
/// Built once at load (or snapshot-resume) time and shared read-only by
/// every core thread.
#[derive(Debug, Default)]
pub struct DecodedProgram {
    table: Vec<DecodedInstr>,
}

impl DecodedProgram {
    /// Predecode a program's text segment.
    pub fn from_program(p: &Program) -> Self {
        DecodedProgram { table: p.text.iter().map(|i| DecodedInstr::new(*i)).collect() }
    }

    /// Rebuild a table from raw encoded text words (snapshot resume reads
    /// them back out of functional memory). Decoding stops at the first
    /// word that is not a valid instruction: later PCs then miss the table
    /// and take the fall-back fetch path, which reproduces the exact
    /// bad-fetch behaviour the word would have produced anyway.
    pub fn from_words<I: IntoIterator<Item = u64>>(words: I) -> Self {
        let mut table = Vec::new();
        for w in words {
            match decode(w) {
                Ok(i) => table.push(DecodedInstr::new(i)),
                Err(_) => break,
            }
        }
        DecodedProgram { table }
    }

    /// Number of predecoded instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the text segment is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Predecoded instruction at text index `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&DecodedInstr> {
        self.table.get(idx)
    }

    /// Text index of program counter `pc`, or `None` when `pc` lies
    /// outside the (decodable) text segment or is misaligned. Mirrors
    /// [`Program::text_index`].
    #[inline]
    pub fn index(&self, pc: u64) -> Option<usize> {
        if pc < TEXT_BASE || !pc.is_multiple_of(WORD_BYTES) {
            return None;
        }
        let idx = ((pc - TEXT_BASE) / WORD_BYTES) as usize;
        (idx < self.table.len()).then_some(idx)
    }

    /// Predecoded instruction at program counter `pc` (see [`Self::index`]).
    #[inline]
    pub fn lookup(&self, pc: u64) -> Option<&DecodedInstr> {
        self.index(pc).map(|idx| &self.table[idx])
    }
}

impl std::ops::Index<usize> for DecodedProgram {
    type Output = DecodedInstr;

    /// Predecoded instruction at text index `idx` (panics past the end).
    #[inline]
    fn index(&self, idx: usize) -> &DecodedInstr {
        &self.table[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::encode::encode;
    use crate::syscall::Syscall;

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new();
        let start = b.here("start");
        b.addi(Reg::new(1), Reg::ZERO, 7);
        b.ld(Reg::new(2), Reg::new(1), 0);
        b.st(Reg::new(2), Reg::new(1), 8);
        b.beq(Reg::new(1), Reg::new(2), start);
        b.fadd(FReg::new(1), FReg::new(2), FReg::new(3));
        b.sys(Syscall::Exit);
        b.build().expect("sample program builds")
    }

    #[test]
    fn predecode_matches_accessors_for_whole_text() {
        let p = sample_program();
        let dp = DecodedProgram::from_program(&p);
        assert_eq!(dp.len(), p.text.len());
        for (idx, i) in p.text.iter().enumerate() {
            let d = dp.get(idx).unwrap();
            assert_eq!(d.instr, *i);
            assert_eq!(d.fu, i.fu_class());
            assert_eq!(d.int_dst, i.int_dst());
            assert_eq!(d.fp_dst, i.fp_dst());
            assert_eq!(d.int_srcs, i.int_srcs());
            assert_eq!(d.fp_srcs, i.fp_srcs());
            assert_eq!(d.rel_target, i.rel_target());
            assert_eq!(d.is_load(), i.is_load());
            assert_eq!(d.is_store(), i.is_store());
            assert_eq!(d.is_mem(), i.is_mem());
            assert_eq!(d.is_cond_branch(), i.is_cond_branch());
            assert_eq!(d.is_control(), i.is_control());
            assert_eq!(d.is_syscall(), matches!(i, Instr::Syscall { .. }));
        }
    }

    #[test]
    fn lookup_mirrors_text_index() {
        let p = sample_program();
        let dp = DecodedProgram::from_program(&p);
        // In-range, aligned PCs hit; everything else misses exactly like
        // Program::text_index.
        for pc in [0u64, TEXT_BASE - 8, TEXT_BASE, TEXT_BASE + 8, TEXT_BASE + 3, TEXT_BASE + 4096] {
            match p.text_index(pc) {
                Some(idx) => {
                    let d = dp.lookup(pc).expect("in-text pc must hit the table");
                    assert_eq!(d.instr, p.text[idx]);
                    assert_eq!(dp.index(pc), Some(idx));
                }
                None => {
                    assert!(dp.lookup(pc).is_none(), "pc {pc:#x} should miss");
                    assert_eq!(dp.index(pc), None);
                }
            }
        }
    }

    #[test]
    fn from_words_round_trips_encoded_text() {
        let p = sample_program();
        let dp = DecodedProgram::from_words(p.text.iter().map(encode));
        assert_eq!(dp.len(), p.text.len());
        for (idx, i) in p.text.iter().enumerate() {
            assert_eq!(dp.get(idx).unwrap().instr, *i);
        }
    }

    #[test]
    fn from_words_stops_at_first_undecodable_word() {
        let p = sample_program();
        let mut words: Vec<u64> = p.text.iter().map(encode).collect();
        words.insert(2, u64::MAX); // not a valid encoding
        let dp = DecodedProgram::from_words(words);
        assert_eq!(dp.len(), 2);
    }
}
