//! Deterministic schedule exploration for the SlackSim DetEngine backend.
//!
//! The parallel engine's correctness contract ("conservative schemes admit
//! zero simulation-state violations; bounded-slack schemes admit only
//! window-bounded ones") is a statement about *all* legal interleavings of
//! the core and manager threads, but the threaded backend only ever
//! exercises whatever interleavings the host OS happens to produce. This
//! crate supplies the missing half: a seedable [`Interleaver`] that a
//! cooperative single-threaded scheduler consults for every "which runnable
//! task steps next?" decision, plus a [`Schedule`] seed-file format so a
//! violating seed found by fuzzing can be committed as a replayable
//! regression artifact.
//!
//! Design constraints:
//!
//! * Same seed ⇒ bit-identical pick sequence, across processes and
//!   platforms. The RNG is a self-contained SplitMix64 — no host entropy,
//!   no `std::hash` (which is seeded per-process).
//! * The interleaver never sees simulator state; it only maps
//!   `(seed, decision index, n_runnable)` to a choice. Legality of the
//!   resulting interleaving is entirely the scheduler's responsibility.
//! * Recording is O(1) per decision (a running hash plus a count), so a
//!   full run can be fingerprinted cheaply; a run is replayed from its
//!   seed.

mod interleave;
mod schedule;

pub use interleave::{Interleaver, PickHook, SplitMix64};
pub use schedule::{Schedule, ScheduleParseError, SCHEDULE_FORMAT_VERSION};
