//! Figure 2 — pedagogical timelines of cycle-by-cycle, quantum-based,
//! bounded-slack and unbounded-slack simulation on four threads.

use sk_core::Scheme;
use sk_hostsim::gantt::{makespan, paper_example, render};

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
