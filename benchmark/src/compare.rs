//! `compare PARENT.json CHANGE.json`: the verdict rule of the
//! choosing-metrics guide (§6 and §8) over two result files.
//!
//! A result file holds one `run --out` summary per line. Line *i* of the
//! parent file and line *i* of the change file are one pair: the caller
//! alternates which side runs first and appends each side to its file.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{quartiles, relative_iqr};
use crate::suite::{metric_value, number};
use crate::WORKLOADS;
use sk_serve::json::{self, Json};
use std::process::ExitCode;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    /// The change wins at least nine tenths of all pairs (ties count for
    /// neither side) and the medians differ by more than the spread of
    /// the parent's own runs.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Regressed,
    /// Not worse by more than the bound, but the parent's own runs spread
    /// wider than the bound, so "unchanged" cannot be told from "worse".
    Unresolved,
    WithinBound,
    /// A per-layer metric: no bound, and not improved by the rule.
    NoBound,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within-bound",
            Verdict::NoBound => "no-bound",
        }
    }
}

pub struct Comparison {
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    /// Pairs the change won ÷ all pairs.
    pub win_frac: f64,
    pub verdict: Verdict,
}

/// Compare paired samples of one metric on one workload.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Comparison {
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| match better {
            Better::Higher => c > p,
            Better::Lower => c < p,
        })
        .count();
    let win_frac = if pairs == 0 { 0.0 } else { wins as f64 / pairs as f64 };
    let (p, c) = (quartiles(&parent[..pairs]), quartiles(&change[..pairs]));
    // Positive when the change's median is the better one.
    let gain = match better {
        Better::Higher => c.1 - p.1,
        Better::Lower => p.1 - c.1,
    };
    let parent_spread = p.2 - p.0;
    let verdict = if win_frac >= 0.9 && gain > parent_spread {
        Verdict::Improved
    } else {
        match bound {
            None => Verdict::NoBound,
            Some(b) if -gain > b * p.1.abs() => Verdict::Regressed,
            Some(b) if relative_iqr(&parent[..pairs]) > b => Verdict::Unresolved,
            Some(_) => Verdict::WithinBound,
        }
    };
    Comparison { parent: p, change: c, win_frac, verdict }
}

/// The bound `BENCHMARK.json` fixes for an end-to-end metric.
fn bound_of(benchmark: &Json, name: &str) -> Option<f64> {
    benchmark
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
        .get("bound")
        .and_then(number)
}

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| json::parse(l).map_err(|e| format!("{path} line {}: {e}", i + 1)))
        .collect()
}

/// Every run's value of `def` on `workload`; `None` if no run has it.
fn series(runs: &[Json], workload: &str, def: &MetricDef) -> Option<Vec<f64>> {
    runs.iter()
        .map(|r| metric_value(r.get("workloads")?.get(workload)?, def.name))
        .collect::<Option<Vec<f64>>>()
        .filter(|v| !v.is_empty())
}

pub fn main(parent_path: &str, change_path: &str) -> ExitCode {
    let (parent, change) = match (load(parent_path), load(change_path)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("skbench compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let benchmark = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    let pairs = parent.len().min(change.len());
    println!(
        "{pairs} pairs ({parent_path}: {} runs, {change_path}: {} runs); quartiles as q1/median/q3; \
         a gain needs >= 10 pairs",
        parent.len(),
        change.len()
    );
    let mut regressed = false;
    for workload in WORKLOADS {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(p), Some(c)) =
                (series(&parent, workload, def), series(&change, workload, def))
            else {
                continue;
            };
            let bound = bound_of(&benchmark, def.name);
            let cmp = judge(&p, &c, def.better, bound);
            regressed |= cmp.verdict == Verdict::Regressed;
            let ratio = if cmp.parent.1 == 0.0 { 1.0 } else { cmp.change.1 / cmp.parent.1 };
            println!(
                "{workload:15} {:34} parent {:.4}/{:.4}/{:.4} change {:.4}/{:.4}/{:.4} {} \
                 change/parent {ratio:.4} (base: parent median {:.4} {}) wins {:.2} bound {} -> {}",
                def.name,
                cmp.parent.0,
                cmp.parent.1,
                cmp.parent.2,
                cmp.change.0,
                cmp.change.1,
                cmp.change.2,
                def.better.name(),
                cmp.parent.1,
                def.unit,
                cmp.win_frac,
                bound.map_or("none".to_string(), |b| format!("{:.1}%", 100.0 * b)),
                cmp.verdict.name()
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| center * (1.0 + 0.002 * (i as f64 - n as f64 / 2.0))).collect()
    }

    #[test]
    fn a_clear_win_on_every_pair_is_improved() {
        let parent = around(100.0, 10);
        let change = around(120.0, 10);
        let cmp = judge(&parent, &change, Better::Higher, Some(0.08));
        assert_eq!(cmp.verdict, Verdict::Improved);
        assert_eq!(cmp.win_frac, 1.0);
        // The same numbers on a lower-is-better metric are a regression.
        assert_eq!(judge(&parent, &change, Better::Lower, Some(0.08)).verdict, Verdict::Regressed);
    }

    #[test]
    fn a_gain_inside_the_parents_spread_is_not_claimed() {
        // Parent spreads ±20 %; the change is 5 % better on every pair.
        let parent: Vec<f64> = (0..10).map(|i| 80.0 + 4.0 * i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        let cmp = judge(&parent, &change, Better::Higher, Some(0.08));
        assert_eq!(cmp.win_frac, 1.0);
        assert_eq!(cmp.verdict, Verdict::Unresolved, "spread wider than the bound");
    }

    #[test]
    fn small_moves_stay_within_bound_and_ties_win_nothing() {
        let parent = around(100.0, 10);
        let cmp = judge(&parent, &parent, Better::Lower, Some(0.08));
        assert_eq!(cmp.win_frac, 0.0);
        assert_eq!(cmp.verdict, Verdict::WithinBound);
        let worse: Vec<f64> = parent.iter().map(|p| p * 1.03).collect();
        assert_eq!(judge(&parent, &worse, Better::Lower, Some(0.08)).verdict, Verdict::WithinBound);
        assert_eq!(judge(&parent, &worse, Better::Lower, None).verdict, Verdict::NoBound);
    }

    #[test]
    fn eight_wins_of_ten_are_not_enough() {
        let parent = around(100.0, 10);
        let mut change = around(130.0, 10);
        change[0] = 50.0;
        change[1] = 50.0;
        let cmp = judge(&parent, &change, Better::Higher, Some(0.08));
        assert_eq!(cmp.win_frac, 0.8);
        assert_ne!(cmp.verdict, Verdict::Improved);
    }
}
