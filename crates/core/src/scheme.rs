//! Slack simulation schemes (paper §3).
//!
//! A scheme answers two questions for the simulation manager:
//!
//! 1. **Window** — given the current global time, how far may each core
//!    thread run? (its *max local time*)
//! 2. **Event ordering** — when and in what order do OutQ requests become
//!    globally visible?
//!
//! | scheme | max local time | event processing |
//! |---|---|---|
//! | CC  | `g + 1` | ts ≤ g, (ts, core, seq) order |
//! | Q*q* | next multiple of `q` above `g` | at the barrier, ordered |
//! | S*s* | `g + s` (sliding window) | eagerly, arrival order |
//! | S*s*\* | `g + s` | ts ≤ g, ordered (oldest-first; `L`*s* parses as this) |
//! | SU | unbounded | eagerly, arrival order |
//!
//! The invariant `global ≤ local ≤ max_local` (paper §2.1) holds for every
//! scheme; `window()` is monotone in `g`, which makes max-local updates
//! monotone and lets cores read them without locks.

use sk_snap::{Persist, Reader, SnapError, Writer};
use std::fmt;
use std::str::FromStr;

/// A slack simulation scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Cycle-by-cycle synchronization — the accuracy gold standard.
    CycleByCycle,
    /// Barrier synchronization every `quantum` cycles (WWT-style).
    Quantum(u64),
    /// Bounded slack: sliding window of `s` cycles, eager processing.
    BoundedSlack(u64),
    /// Bounded slack with oldest-first (timestamp-ordered) processing —
    /// conservative, same accuracy as quantum, higher speedup.
    OldestFirstBounded(u64),
    /// Unbounded slack: no synchronization at all.
    Unbounded,
}

/// How the manager consumes the global queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventOrdering {
    /// Process events as they arrive (bounded/unbounded slack).
    Eager,
    /// Process in (ts, core, seq) order, only events with `ts ≤ global`.
    TimestampOrdered,
    /// Like `TimestampOrdered`, but only when all cores sit at the
    /// quantum barrier.
    AtBarrier,
}

impl Scheme {
    /// The max local time allowed when the global time is `g`.
    ///
    /// Monotone in `g` for every scheme. The parameters may come from
    /// outside the program (a scheme string, a snapshot), so the sliding
    /// windows saturate at `u64::MAX` instead of wrapping below `g`.
    pub fn window(&self, g: u64) -> u64 {
        debug_assert!(self.is_valid(), "degenerate scheme parameter: {self:?}");
        match *self {
            Scheme::CycleByCycle => g + 1,
            Scheme::Quantum(q) => (g / q.max(1) + 1) * q.max(1),
            Scheme::BoundedSlack(n) | Scheme::OldestFirstBounded(n) => g.saturating_add(n),
            Scheme::Unbounded => u64::MAX,
        }
    }

    /// The event-ordering discipline of this scheme.
    pub fn ordering(&self) -> EventOrdering {
        match self {
            Scheme::CycleByCycle | Scheme::OldestFirstBounded(_) => EventOrdering::TimestampOrdered,
            Scheme::Quantum(_) => EventOrdering::AtBarrier,
            Scheme::BoundedSlack(_) | Scheme::Unbounded => EventOrdering::Eager,
        }
    }

    /// A scheme is valid when its parameter allows progress (no zero
    /// quanta/slacks).
    pub fn is_valid(&self) -> bool {
        match *self {
            Scheme::CycleByCycle | Scheme::Unbounded => true,
            Scheme::Quantum(n) | Scheme::BoundedSlack(n) | Scheme::OldestFirstBounded(n) => n >= 1,
        }
    }

    /// Upper bound on cycles a core may simulate between local-clock
    /// publications (run-ahead batching, the window permitting).
    ///
    /// Conservative schemes publish every cycle: their determinism
    /// contract rests on the manager observing each local tick in order,
    /// so they degenerate to a batch of 1 and stay bit-identical to the
    /// unbatched engine. Eager slack schemes already tolerate reordering
    /// within their slack window, so they may amortize the publication
    /// atomics across it — clamped by the slack itself (publishing less
    /// often than the slack allows could stall the other cores' windows)
    /// and by a fixed ceiling that bounds how stale the published clock
    /// can get.
    pub fn batch_cap(&self) -> u64 {
        // Staleness ceiling: far below any practical slack, far above
        // the point of diminishing returns for atomics amortization.
        const MAX_BATCH: u64 = 64;
        match *self {
            Scheme::BoundedSlack(s) => s.clamp(1, MAX_BATCH),
            Scheme::Unbounded => MAX_BATCH,
            _ => 1,
        }
    }

    /// The scheme's bound on access-order inversion timestamps, in
    /// simulated cycles: a violation recorded on a racy workload under
    /// this scheme can never be inverted by more than this many cycles
    /// (`None` = unbounded). CC admits no inversions at all. This is the
    /// schedule-fuzzing failure oracle (`--det-schedules`), asserted
    /// across the scheme matrix by `tests/conformance.rs`.
    pub fn slack_bound(&self) -> Option<u64> {
        match *self {
            Scheme::CycleByCycle => Some(0),
            Scheme::Quantum(q) => Some(q),
            Scheme::BoundedSlack(s) | Scheme::OldestFirstBounded(s) => Some(s),
            Scheme::Unbounded => None,
        }
    }

    /// CC, Q and S*n*\*: the schemes the paper calls conservative (§3.2),
    /// violation-free, it argues, while the parameter stays at or below the
    /// target's critical latency. The flag names the class and promises
    /// nothing more: CC records no violation, but Q10 records workload-state
    /// violations on `racy_increment` under some det seeds (inversions
    /// within its 10 cycles), and Q100's outcome on 8-core `lock_sweep`
    /// depends on the det seed.
    pub fn is_conservative(&self) -> bool {
        matches!(self, Scheme::CycleByCycle | Scheme::Quantum(_) | Scheme::OldestFirstBounded(_))
    }

    /// Short name as used in the paper's Figure 8 (CC, Q10, S9, S9*, S100,
    /// SU; the paper's L10 is S10*).
    pub fn short_name(&self) -> String {
        match *self {
            Scheme::CycleByCycle => "CC".into(),
            Scheme::Quantum(q) => format!("Q{q}"),
            Scheme::BoundedSlack(s) => format!("S{s}"),
            Scheme::OldestFirstBounded(s) => format!("S{s}*"),
            Scheme::Unbounded => "SU".into(),
        }
    }

    /// The paper's evaluated scheme set for a target whose critical latency
    /// is `crit` (10 in the paper): CC, Q*crit*, S*crit*\* (the paper's
    /// L*crit*), S*crit-1*, S*crit-1*\*, S100, SU.
    pub fn paper_suite(crit: u64) -> Vec<Scheme> {
        vec![
            Scheme::CycleByCycle,
            Scheme::Quantum(crit),
            Scheme::OldestFirstBounded(crit),
            Scheme::BoundedSlack(crit - 1),
            Scheme::OldestFirstBounded(crit - 1),
            Scheme::BoundedSlack(100),
            Scheme::Unbounded,
        ]
    }
}

impl Persist for Scheme {
    fn save(&self, w: &mut Writer) {
        match *self {
            Scheme::CycleByCycle => w.put_u8(0),
            Scheme::Quantum(q) => {
                w.put_u8(1);
                w.put_u64(q);
            }
            Scheme::BoundedSlack(s) => {
                w.put_u8(3);
                w.put_u64(s);
            }
            Scheme::OldestFirstBounded(s) => {
                w.put_u8(4);
                w.put_u64(s);
            }
            Scheme::Unbounded => w.put_u8(5),
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let scheme = match r.get_u8()? {
            0 => Scheme::CycleByCycle,
            1 => Scheme::Quantum(r.get_u64()?),
            4 => Scheme::OldestFirstBounded(r.get_u64()?),
            3 => Scheme::BoundedSlack(r.get_u64()?),
            5 => Scheme::Unbounded,
            t => return Err(SnapError::Corrupt(format!("scheme tag {t}"))),
        };
        if !scheme.is_valid() {
            return Err(SnapError::Corrupt(format!("degenerate scheme {scheme:?}")));
        }
        Ok(scheme)
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_name())
    }
}

/// Why a scheme string failed to parse. Degenerate-but-well-formed
/// parameters ([`SchemeParseError::Degenerate`]) are rejected here, at
/// parse time, so a `Scheme` in the running system is valid by
/// construction — `Q0` or `S0` would freeze every window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemeParseError {
    /// The leading letter is not one of the Figure-8 scheme forms.
    UnknownScheme(String),
    /// The numeric parameter is missing or not a number.
    BadParameter(String),
    /// Well-formed, but the parameter admits no progress (zero
    /// quantum/lookahead/slack). The payload is the parsed-but-rejected
    /// scheme.
    Degenerate(Scheme),
}

impl fmt::Display for SchemeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeParseError::UnknownScheme(s) => write!(f, "unknown scheme '{s}'"),
            SchemeParseError::BadParameter(s) => write!(f, "bad scheme parameter in '{s}'"),
            SchemeParseError::Degenerate(scheme) => {
                write!(f, "degenerate scheme parameter '{scheme}': window admits no progress")
            }
        }
    }
}

impl std::error::Error for SchemeParseError {}

impl FromStr for Scheme {
    type Err = SchemeParseError;

    /// Parse the Figure-8 notation: `CC`, `Q10`, `S9`, `S9*`, `SU`, and
    /// `L10` as an alias of `S10*`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        match s {
            "CC" | "cc" => return Ok(Scheme::CycleByCycle),
            "SU" | "su" => return Ok(Scheme::Unbounded),
            _ => {}
        }
        if !s.is_char_boundary(1) || s.is_empty() {
            return Err(SchemeParseError::UnknownScheme(s.to_string()));
        }
        let (head, rest) = s.split_at(1);
        let parse_n = |txt: &str| -> Result<u64, SchemeParseError> {
            txt.parse::<u64>().map_err(|_| SchemeParseError::BadParameter(s.to_string()))
        };
        let scheme = match head {
            "Q" | "q" => Scheme::Quantum(parse_n(rest)?),
            "L" | "l" => Scheme::OldestFirstBounded(parse_n(rest)?),
            "S" | "s" => {
                if let Some(core) = rest.strip_suffix('*') {
                    Scheme::OldestFirstBounded(parse_n(core)?)
                } else {
                    Scheme::BoundedSlack(parse_n(rest)?)
                }
            }
            _ => return Err(SchemeParseError::UnknownScheme(s.to_string())),
        };
        if !scheme.is_valid() {
            return Err(SchemeParseError::Degenerate(scheme));
        }
        Ok(scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_match_paper_semantics() {
        // CC: a core may simulate exactly one cycle past the global time.
        assert_eq!(Scheme::CycleByCycle.window(0), 1);
        assert_eq!(Scheme::CycleByCycle.window(7), 8);
        // Quantum 3: barrier at 3, 6, 9, ...
        let q = Scheme::Quantum(3);
        assert_eq!(q.window(0), 3);
        assert_eq!(q.window(2), 3);
        assert_eq!(q.window(3), 6);
        // Bounded slack 2: sliding window [g, g+2].
        let s = Scheme::BoundedSlack(2);
        assert_eq!(s.window(0), 2);
        assert_eq!(s.window(5), 7);
        assert_eq!(Scheme::Unbounded.window(123), u64::MAX);
    }

    #[test]
    fn slack_bounds_cap_inversions_per_scheme() {
        assert_eq!(Scheme::CycleByCycle.slack_bound(), Some(0));
        assert_eq!(Scheme::Quantum(100).slack_bound(), Some(100));
        assert_eq!(Scheme::BoundedSlack(9).slack_bound(), Some(9));
        assert_eq!(Scheme::OldestFirstBounded(9).slack_bound(), Some(9));
        assert_eq!(Scheme::Unbounded.slack_bound(), None);
    }

    #[test]
    fn windows_are_monotone() {
        // Parameters near `u64::MAX` arrive from scheme strings and
        // snapshots; their windows must saturate, not wrap.
        let huge = ["S18446744073709551615", "S18446744073709551615*", "L18446744073709551610"]
            .map(|s| s.parse::<Scheme>().unwrap());
        for scheme in Scheme::paper_suite(10).into_iter().chain(huge) {
            let mut prev = 0;
            for g in 0..200 {
                let w = scheme.window(g);
                assert!(w >= prev, "{scheme} window not monotone at g={g}");
                assert!(w > g || w == u64::MAX, "{scheme} must allow progress at g={g}");
                prev = w;
            }
        }
    }

    #[test]
    fn ordering_classification() {
        assert_eq!(Scheme::CycleByCycle.ordering(), EventOrdering::TimestampOrdered);
        assert_eq!(Scheme::Quantum(10).ordering(), EventOrdering::AtBarrier);
        assert_eq!(Scheme::BoundedSlack(9).ordering(), EventOrdering::Eager);
        assert_eq!(Scheme::OldestFirstBounded(9).ordering(), EventOrdering::TimestampOrdered);
        assert_eq!(Scheme::Unbounded.ordering(), EventOrdering::Eager);
    }

    #[test]
    fn conservative_flags() {
        assert!(Scheme::CycleByCycle.is_conservative());
        assert!(Scheme::Quantum(10).is_conservative());
        assert!(Scheme::OldestFirstBounded(9).is_conservative());
        assert!(!Scheme::BoundedSlack(9).is_conservative());
        assert!(!Scheme::Unbounded.is_conservative());
    }

    #[test]
    fn names_round_trip_through_parse() {
        for s in Scheme::paper_suite(10) {
            assert_eq!(s.short_name().parse::<Scheme>().unwrap(), s);
        }
        assert!("X5".parse::<Scheme>().is_err());
        assert!("Sx".parse::<Scheme>().is_err());
        // Degenerate parameters are rejected, not deadlocked on.
        assert!("Q0".parse::<Scheme>().is_err());
        assert!("S0".parse::<Scheme>().is_err());
        assert!("L0".parse::<Scheme>().is_err());
        // `L<n>` is an alias of `S<n>*`.
        assert_eq!("L10".parse::<Scheme>(), Ok(Scheme::OldestFirstBounded(10)));
    }

    #[test]
    fn parse_errors_are_typed() {
        use SchemeParseError::*;
        assert_eq!("X5".parse::<Scheme>(), Err(UnknownScheme("X5".into())));
        assert_eq!("".parse::<Scheme>(), Err(UnknownScheme("".into())));
        assert_eq!("Sx".parse::<Scheme>(), Err(BadParameter("Sx".into())));
        assert_eq!("Q".parse::<Scheme>(), Err(BadParameter("Q".into())));
        // `A…` names no scheme: rejected, not mis-parsed as another one.
        for a in ["A16", "A10-100", "A0"] {
            assert_eq!(a.parse::<Scheme>(), Err(UnknownScheme(a.into())));
        }
        // Every zero-window parameterization comes back as Degenerate with
        // the offending scheme attached — callers can report precisely.
        assert_eq!("Q0".parse::<Scheme>(), Err(Degenerate(Scheme::Quantum(0))));
        assert_eq!("S0".parse::<Scheme>(), Err(Degenerate(Scheme::BoundedSlack(0))));
        assert_eq!("S0*".parse::<Scheme>(), Err(Degenerate(Scheme::OldestFirstBounded(0))));
        assert_eq!("L0".parse::<Scheme>(), Err(Degenerate(Scheme::OldestFirstBounded(0))));
        // A multi-byte first character must not panic the parser.
        assert_eq!("é10".parse::<Scheme>(), Err(UnknownScheme("é10".into())));
        // Errors render as readable one-liners for the CLI.
        assert_eq!(
            Degenerate(Scheme::Quantum(0)).to_string(),
            "degenerate scheme parameter 'Q0': window admits no progress"
        );
        assert!(std::error::Error::source(&UnknownScheme("X".into())).is_none());
    }

    #[test]
    fn paper_suite_matches_figure_8() {
        let names: Vec<String> = Scheme::paper_suite(10).iter().map(|s| s.short_name()).collect();
        assert_eq!(names, vec!["CC", "Q10", "S10*", "S9", "S9*", "S100", "SU"]);
    }
}
