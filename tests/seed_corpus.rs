//! The committed seed corpus replays bit-exactly.
//!
//! Every `tests/schedules/*.skn` is a seeded scenario: the whole run shape
//! (target, scheme, kernel inputs, violation oracle) plus the det-scheduler
//! seed of one interleaving, the artifact `slacksim run --det-schedules`
//! dumps for a violating seed. Each must replay to the violations, worst
//! inversion and output recorded in `tests/golden/seed_corpus.txt`: the
//! determinism contract that makes a dumped seed a usable bug report. CI
//! replays the same files through `slacksim run --scenario`.

// This binary uses the golden-file helpers, not the shared digest.
#[allow(dead_code)]
mod common;

use common::printed;
use sk_core::DetEngine;
use sk_scenario::Scenario;
use slacksim_suite::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn schedules_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/schedules")
}

/// Run a seeded scenario on the det scheduler: the program, scheme and
/// config all come from the one `Scenario`.
fn replay(sc: &Scenario) -> (Workload, SimReport) {
    let w = sc.workload().expect("a parsed scenario builds");
    let seed = sc.seed.expect("corpus scenarios carry [run] seed");
    let mut det = DetEngine::new(&w.program, sc.scheme, &sc.config(), seed);
    det.run();
    (w, det.into_report())
}

/// What a corpus entry records: the golden line's body and the dump's
/// `#` header.
fn note(w: &Workload, r: &SimReport) -> String {
    format!(
        "violations={} max_inversion={} output={}",
        r.violations.total(),
        r.violations.max_inversion_cycles,
        if printed(r) == w.expected { "ok" } else { "MISMATCH" }
    )
}

fn corpus() -> Vec<PathBuf> {
    let dir = schedules_dir();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing seed corpus {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "skn"))
        .collect();
    files.sort();
    files
}

fn stem(path: &Path) -> &str {
    path.file_stem().and_then(|s| s.to_str()).expect("utf-8 file name")
}

#[test]
fn seed_corpus_replays_bit_exactly() {
    let mut actual = String::new();
    for path in corpus() {
        let text = std::fs::read_to_string(&path).unwrap();
        let sc = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("{}: bad scenario: {e}", path.display()));
        let (w, r) = replay(&sc);
        assert_eq!(printed(&r), w.expected, "{}: wrong output", path.display());
        actual += &format!("{} {}\n", stem(&path), note(&w, &r));
    }
    common::check_golden(
        "seed_corpus.txt",
        &actual,
        "a committed seed no longer replays its recorded run; regenerate the corpus \
         (and this golden) only for an engine change that moves violation counts",
    );
}

/// Rewrite the corpus after an engine change that legitimately moves
/// violation counts:
/// `cargo test --test seed_corpus regen_seed_corpus -- --ignored`, then
/// `SK_REGEN_GOLDEN=1 cargo test --test seed_corpus`.
#[test]
#[ignore = "writes tests/schedules/; run explicitly to regenerate the corpus"]
fn regen_seed_corpus() {
    const SEEDS: [u64; 8] = [0, 1, 2, 3, 5, 8, 13, 21];
    // One violating seed per racy scheme on the racy kernel, a clean S10
    // control and a CC control that must stay clean. The irregular kernels
    // are sync-pinned, so only wide windows skew timestamps past a
    // conflicting access: their `None` seeds take the first seed of the
    // budget that records a violation (S10 on `pipeline` finds none and
    // keeps seed 0 as a clean control).
    type Pick = (&'static str, &'static str, i64, Scheme, Option<u64>, usize);
    let picks: [Pick; 7] = [
        ("racy_increment", "iters", 30, Scheme::BoundedSlack(10), Some(1), 3),
        ("racy_increment", "iters", 30, Scheme::Unbounded, Some(0), 3),
        ("false_sharing", "iters", 30, Scheme::BoundedSlack(10), Some(2), 3),
        ("lock_sweep", "iters", 8, Scheme::CycleByCycle, Some(3), 3),
        ("pipeline", "items", 8, Scheme::BoundedSlack(10), None, 4),
        ("mailbox_actors", "rounds", 2, Scheme::Unbounded, None, 4),
        ("work_steal", "tasks", 24, Scheme::BoundedSlack(100), None, 4),
    ];
    let dir = schedules_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (kernel, param, value, scheme, seed, cores) in picks {
        let mut sc = Scenario {
            cores,
            model: CoreModel::InOrder,
            scheme,
            track_violations: true,
            kernel: kernel.to_string(),
            params: BTreeMap::from([(param.to_string(), value)]),
            ..Scenario::default()
        };
        let violates = |sc: &Scenario, s: u64| {
            replay(&Scenario { seed: Some(s), ..sc.clone() }).1.violations.total() > 0
        };
        let seed = seed.or_else(|| SEEDS.into_iter().find(|&s| violates(&sc, s)));
        sc.seed = Some(seed.unwrap_or(SEEDS[0]));
        let (w, r) = replay(&sc);
        assert_eq!(printed(&r), w.expected, "{kernel}: wrong output");
        let slug = scheme.short_name().to_lowercase().replace('*', "star");
        let name = format!("{kernel}-{slug}-{}.skn", sc.seed.unwrap());
        std::fs::write(dir.join(name), format!("# {}\n{}", note(&w, &r), sc.emit())).unwrap();
    }
}

/// One switch arms every inversion counter: the `racy_increment-su-0`
/// shape built by hand with only `track_workload_violations` set reports
/// the bus and directory inversions of the scenario's own run, and with the
/// switch off both read 0.
#[test]
fn one_switch_counts_bus_and_directory_inversions() {
    let text = std::fs::read_to_string(schedules_dir().join("racy_increment-su-0.skn")).unwrap();
    let (w, scenario_run) = replay(&Scenario::parse(&text).unwrap());
    let inversions = |r: &SimReport| (r.bus.inversions, r.dir.transition_inversions);
    let run = |track: bool| {
        let mut cfg = TargetConfig::small(3);
        cfg.core.model = CoreModel::InOrder;
        cfg.track_workload_violations = track;
        let mut det = DetEngine::new(&w.program, Scheme::Unbounded, &cfg, 0);
        det.run();
        inversions(&det.into_report())
    };
    let (bus, dir) = inversions(&scenario_run);
    assert!(bus > 0 && dir > 0, "the SU seed inverts nothing: bus {bus}, dir {dir}");
    assert_eq!(run(true), (bus, dir));
    assert_eq!(run(false), (0, 0));
}
