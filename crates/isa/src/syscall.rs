//! Syscall numbers for services emulated *outside* the simulator.
//!
//! SlackSim inherited SimpleScalar's strategy of emulating system functions
//! outside the simulated machine, and implemented the Pthread-style workload
//! API of the paper's Table 1 the same way ("no new instructions were added
//! to the PISA instruction set to support our APIs"). We reproduce that: the
//! API below is invoked through the single `syscall` instruction and handled
//! functionally by the runtime in `sk-core`.
//!
//! Calling convention: the code is the instruction immediate; arguments are
//! read from `a0..a3` and a result, if any, is written to `a0`.

/// Identifiers for the emulated services.
///
/// The sync-object ids passed in `a0` index per-simulation tables of locks,
/// barriers and semaphores (`sk-core::sync`), matching Table 1 of the paper:
/// `init_lock/lock/unlock`, `init_barrier/barrier`,
/// `init_sema/sema_wait/sema_signal`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Syscall {
    /// Terminate this workload thread. `a0` = exit code.
    Exit = 0,
    /// Print the integer in `a0` (host-side stdout, for debugging).
    PrintInt = 1,
    /// Print the f64 whose bits are in `a0`.
    PrintFloat = 2,
    /// Write this thread's id (0-based) to `a0`.
    GetTid = 3,
    /// Write the number of target cores to `a0`.
    GetNcores = 4,
    /// Spawn a workload thread on a free core: `a0` = entry PC, `a1` =
    /// argument (delivered in the child's `a0`). Returns child tid in `a0`,
    /// or -1 if no core is free.
    Spawn = 5,
    /// Read the core's current local cycle into `a0` (for self-timing).
    ReadCycle = 6,

    /// Initialize lock `a0`.
    InitLock = 10,
    /// Acquire lock `a0`; blocks until the manager grants it (waiters
    /// are granted in FIFO order).
    Lock = 11,
    /// Release lock `a0`.
    Unlock = 12,
    /// Initialize barrier `a0` for `a1` participants.
    InitBarrier = 13,
    /// Wait on barrier `a0`.
    Barrier = 14,
    /// Initialize semaphore `a0` with count `a1`.
    InitSema = 15,
    /// P operation on semaphore `a0`.
    SemaWait = 16,
    /// V operation on semaphore `a0`.
    SemaSignal = 17,
    /// Atomic compare-and-swap on the word at address `a0`: if it equals
    /// `a1`, store `a2`. Returns the observed (pre-swap) value in `a0`.
    /// Like the Table 1 sync API, the operation is emulated outside the
    /// simulated machine and routed through the manager thread, so the
    /// order of contended CAS winners is governed by the active slack
    /// scheme — deterministic under cycle-by-cycle, arrival-ordered under
    /// slack (`Cas(a, x, x)` is the idiomatic scheme-ordered read).
    Cas = 18,

    /// Begin the region of interest: reset statistics (the paper starts
    /// collecting after all workload threads are created).
    RoiBegin = 20,
    /// End the region of interest: freeze statistics.
    RoiEnd = 21,
}

impl Syscall {
    /// Decode a syscall code from an instruction immediate.
    pub fn from_code(code: u16) -> Option<Syscall> {
        use Syscall::*;
        Some(match code {
            0 => Exit,
            1 => PrintInt,
            2 => PrintFloat,
            3 => GetTid,
            4 => GetNcores,
            5 => Spawn,
            6 => ReadCycle,
            10 => InitLock,
            11 => Lock,
            12 => Unlock,
            13 => InitBarrier,
            14 => Barrier,
            15 => InitSema,
            16 => SemaWait,
            17 => SemaSignal,
            18 => Cas,
            20 => RoiBegin,
            21 => RoiEnd,
            _ => return None,
        })
    }

    /// The instruction-immediate encoding of this syscall.
    pub fn code(self) -> u16 {
        self as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        use Syscall::*;
        for s in [
            Exit,
            PrintInt,
            PrintFloat,
            GetTid,
            GetNcores,
            Spawn,
            ReadCycle,
            InitLock,
            Lock,
            Unlock,
            InitBarrier,
            Barrier,
            InitSema,
            SemaWait,
            SemaSignal,
            Cas,
            RoiBegin,
            RoiEnd,
        ] {
            assert_eq!(Syscall::from_code(s.code()), Some(s));
        }
    }

    #[test]
    fn unknown_codes_are_none() {
        assert_eq!(Syscall::from_code(9), None);
        assert_eq!(Syscall::from_code(19), None);
        assert_eq!(Syscall::from_code(22), None);
        assert_eq!(Syscall::from_code(u16::MAX), None);
    }
}
