//! Figure 2 — pedagogical timelines of cycle-by-cycle, quantum-based,
//! bounded-slack and unbounded-slack simulation on four threads.
//!
//! The paper's Figure 2 shows four threads simulating cycles 1..End under
//! each discipline, with simulation (host) time on the X axis. Given
//! per-thread, per-cycle host costs, [`schedule`] computes when each thread
//! simulates each cycle on an idealized host (one core per thread, zero
//! synchronization overhead — the paper's figure makes the same
//! idealization) and [`render`] draws the ASCII timeline.

use sk_core::Scheme;

/// Print Figure 2's four timelines and their makespans.
pub fn fig2() {
    println!("Figure 2: four threads simulating 6 target cycles");
    println!("(digit = simulated cycle being worked on; '.' = waiting)\n");
    let costs = paper_example(6);
    let schemes =
        [Scheme::CycleByCycle, Scheme::Quantum(3), Scheme::BoundedSlack(2), Scheme::Unbounded];
    for scheme in schemes {
        println!("{}", render(&costs, scheme));
    }
    println!("Makespans:");
    for scheme in schemes {
        println!("  {:<4} {}", scheme.short_name(), makespan(&costs, scheme));
    }
    println!("\nAs in the paper: CC >= Q3 >= S2 >= SU, with S2 overlapping quanta");
    println!("instead of synchronizing at every third cycle.");
}

/// `schedule(costs, scheme)[i][c]` = (start, end) host time of thread `i`
/// simulating cycle `c+1`.
fn schedule(costs: &[Vec<u32>], scheme: Scheme) -> Vec<Vec<(u32, u32)>> {
    let n = costs.len();
    assert!(n > 0);
    let cycles = costs[0].len();
    assert!(costs.iter().all(|c| c.len() == cycles), "equal-length cost rows");

    // finish[i][c] = host time thread i finishes cycle c (1-based c).
    let mut finish = vec![vec![0u32; cycles + 1]; n];
    let mut out = vec![vec![(0u32, 0u32); cycles]; n];

    for c in 1..=cycles {
        // Cycle c may start once every thread has completed the earliest
        // global time g at which window(g) >= c.
        let need = required_global(scheme, c as u64) as usize;
        let gate = if need == 0 { 0 } else { (0..n).map(|j| finish[j][need]).max().unwrap() };
        for i in 0..n {
            let start = finish[i][c - 1].max(gate);
            let end = start + costs[i][c - 1];
            finish[i][c] = end;
            out[i][c - 1] = (start, end);
        }
    }
    out
}

/// Smallest global time whose window admits simulating cycle `c`
/// (i.e. min g with `scheme.window(g) >= c`). Every scheme's window at
/// `c - 1` reaches `c`, so the search ends by then.
fn required_global(scheme: Scheme, c: u64) -> u64 {
    (0..c).find(|&g| scheme.window(g) >= c).unwrap_or(c)
}

/// Render the timeline: one row per thread, one column per host time unit;
/// the digit is the simulated cycle (mod 10), `.` is waiting.
fn render(costs: &[Vec<u32>], scheme: Scheme) -> String {
    let sched = schedule(costs, scheme);
    let n = sched.len();
    let total = sched.iter().flat_map(|r| r.iter().map(|&(_, e)| e)).max().unwrap_or(0) as usize;
    let mut out = String::new();
    out.push_str(&format!("{} (host time -->, total {total})\n", scheme.short_name()));
    for i in (0..n).rev() {
        let mut row = vec![b'.'; total];
        for (c, &(s, e)) in sched[i].iter().enumerate() {
            let digit = b'0' + ((c as u8 + 1) % 10);
            for slot in row.iter_mut().take(e as usize).skip(s as usize) {
                *slot = digit;
            }
        }
        out.push_str(&format!("P{} |{}|\n", i + 1, String::from_utf8(row).unwrap()));
    }
    out
}

/// Total host time of the schedule (the makespan).
fn makespan(costs: &[Vec<u32>], scheme: Scheme) -> u32 {
    schedule(costs, scheme).iter().flat_map(|r| r.iter().map(|&(_, e)| e)).max().unwrap_or(0)
}

/// The paper's pedagogical example: four threads with uneven per-cycle
/// costs. P1 is steadily slow, P2 and P3 have early/late slow phases, P4
/// is fast — so different threads bottleneck different cycles, which is
/// what separates the four schemes in Figure 2.
fn paper_example(cycles: usize) -> Vec<Vec<u32>> {
    let pattern: [[u32; 6]; 4] = [
        [5, 5, 5, 5, 5, 5], // P1
        [8, 5, 3, 3, 3, 3], // P2: slow early
        [3, 3, 3, 8, 5, 3], // P3: slow late
        [2, 2, 2, 2, 2, 2], // P4
    ];
    pattern.iter().map(|row| (0..cycles).map(|c| row[c % 6]).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_by_cycle_synchronizes_every_cycle() {
        let costs = paper_example(4);
        let s = schedule(&costs, Scheme::CycleByCycle);
        // No thread starts cycle c+1 before every thread finished cycle c.
        for c in 1..4 {
            let all_done = (0..4).map(|i| s[i][c - 1].1).max().unwrap();
            for (i, row) in s.iter().enumerate() {
                assert!(row[c].0 >= all_done, "P{} started cycle {} early", i + 1, c + 1);
            }
        }
    }

    #[test]
    fn bounded_slack_lets_fast_threads_run_ahead() {
        let costs = paper_example(6);
        let cc = schedule(&costs, Scheme::CycleByCycle);
        let s2 = schedule(&costs, Scheme::BoundedSlack(2));
        // P4 (fastest) starts its 3rd cycle earlier under S2 than CC.
        assert!(s2[3][2].0 < cc[3][2].0);
        // But never runs more than 2 cycles past the slowest.
        for c in 0..6 {
            let (start, _) = s2[3][c];
            // At `start`, thread 1 must have completed cycle c+1-2.
            if c >= 2 {
                assert!(s2[0][c - 2].1 <= start, "slack bound violated at cycle {}", c + 1);
            }
        }
    }

    #[test]
    fn makespan_ordering_matches_figure_2() {
        let costs = paper_example(6);
        let cc = makespan(&costs, Scheme::CycleByCycle);
        let q3 = makespan(&costs, Scheme::Quantum(3));
        let s2 = makespan(&costs, Scheme::BoundedSlack(2));
        let su = makespan(&costs, Scheme::Unbounded);
        assert!(cc > q3, "CC {cc} > Q3 {q3}");
        assert!(q3 >= s2, "Q3 {q3} >= S2 {s2}");
        assert!(s2 >= su, "S2 {s2} >= SU {su}");
        assert!(cc > su, "CC {cc} > SU {su}");
        // SU = the heaviest thread running freely.
        let heaviest: u32 = paper_example(6).iter().map(|r| r.iter().sum()).max().unwrap();
        assert_eq!(su, heaviest);
    }

    #[test]
    fn unbounded_never_waits() {
        let costs = paper_example(5);
        let s = schedule(&costs, Scheme::Unbounded);
        for row in &s {
            for c in 1..5 {
                assert_eq!(row[c].0, row[c - 1].1, "no gaps under SU");
            }
        }
    }

    #[test]
    fn render_produces_one_row_per_thread() {
        let costs = paper_example(3);
        let txt = render(&costs, Scheme::Quantum(3));
        assert_eq!(txt.lines().count(), 5); // header + 4 threads
        assert!(txt.contains("Q3"));
        assert!(txt.contains("P1 |"));
        assert!(txt.contains('1') && txt.contains('3'));
    }

    #[test]
    fn required_global_is_minimal() {
        for scheme in [
            Scheme::CycleByCycle,
            Scheme::Quantum(3),
            Scheme::BoundedSlack(2),
            Scheme::OldestFirstBounded(4),
        ] {
            for c in 1..40u64 {
                let g = required_global(scheme, c);
                assert!(scheme.window(g) >= c, "{scheme} window at g={g} admits c={c}");
                if g > 0 {
                    assert!(scheme.window(g - 1) < c, "{scheme} g={g} not minimal for c={c}");
                }
            }
        }
    }
}
