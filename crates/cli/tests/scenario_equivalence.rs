//! A `.skn` scenario file and the equivalent flag-spelled command line
//! must drive the *same* run: identical report JSON modulo wall-clock
//! noise and the scenario echo itself. This is the CLI leg of the
//! acceptance property — one artifact, three consumers (CLI, det fuzzer,
//! sk-serve job), one bit-identical simulation. The serve leg is CI's
//! serve-smoke, which posts `scenarios/mailbox_s10.skn` to a running
//! server and compares its cycles with `slacksim run --det-seed 0`.

use sk_obs::json::{parse, Json};
use std::path::PathBuf;
use std::process::Command;

const SKN: &str = "[scenario]\nname = \"equivalence\"\n\n\
                   [target]\ncores = 4\nmem_shards = 0\nmodel = \"ooo\"\n\n\
                   [run]\nscheme = \"CC\"\ntrack_violations = true\n\n\
                   [kernel]\nname = \"pipeline\"\nitems = 8\n";

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skn-equiv-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_slacksim(args: &[&str]) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_slacksim")).args(args).output().expect("spawn slacksim");
    assert!(
        out.status.success(),
        "slacksim {:?} failed:\n{}\n{}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Compare two report documents field by field, skipping host-timing
/// noise (`wall_seconds`, `kips`) and `config` (the scenario echo is
/// *supposed* to differ between the two spellings — that asymmetry is
/// asserted separately).
fn assert_reports_equivalent(a: &Json, b: &Json) {
    let (Json::Obj(ka), Json::Obj(kb)) = (a, b) else { panic!("reports must be objects") };
    let keys = |m: &[(String, Json)]| {
        let mut v: Vec<String> = m.iter().map(|(k, _)| k.clone()).collect();
        v.sort();
        v
    };
    assert_eq!(keys(ka), keys(kb), "report field sets differ");
    for (key, va) in ka {
        if matches!(key.as_str(), "wall_seconds" | "kips" | "config" | "cores") {
            continue;
        }
        assert_eq!(Some(va), b.get(key), "field {key:?} diverged");
    }
    // Per-core stats carry no wall-clock values; compare them whole.
    assert_eq!(a.get("cores"), b.get("cores"), "per-core stats diverged");
}

#[test]
fn scenario_file_equals_flag_spelled_run() {
    let dir = workdir("cmp");
    let skn = dir.join("equivalence.skn");
    std::fs::write(&skn, SKN).expect("write scenario");
    let j_scenario = dir.join("scenario.json");
    let j_flags = dir.join("flags.json");

    // Deterministic backend on both sides so the comparison is exact.
    run_slacksim(&[
        "run",
        "--scenario",
        skn.to_str().unwrap(),
        "--det-seed",
        "0",
        "--json",
        j_scenario.to_str().unwrap(),
    ]);
    run_slacksim(&[
        "run",
        "--bench",
        "pipeline",
        "--cores",
        "4",
        "--shards",
        "0",
        "--model",
        "ooo",
        "--scale",
        "test",
        "--scheme",
        "CC",
        "--track-violations",
        "--det-seed",
        "0",
        "--json",
        j_flags.to_str().unwrap(),
    ]);

    let a = parse(&std::fs::read_to_string(&j_scenario).unwrap()).expect("scenario report json");
    let b = parse(&std::fs::read_to_string(&j_flags).unwrap()).expect("flags report json");
    assert_reports_equivalent(&a, &b);

    // The scenario run echoes its provenance; the flag run echoes null.
    let echo = a.get("config").and_then(|c| c.get("scenario")).expect("config.scenario");
    assert_eq!(echo.get("kernel").and_then(Json::as_str), Some("pipeline"));
    assert_eq!(echo.get("name").and_then(Json::as_str), Some("equivalence"));
    assert!(echo.get("hash").and_then(Json::as_str).is_some());
    assert_eq!(b.get("config").and_then(|c| c.get("scenario")), Some(&Json::Null));

    std::fs::remove_dir_all(&dir).ok();
}

/// The same scenario also drives the det schedule fuzzer: a conservative
/// DRF kernel must survive every seed with a clean exit.
#[test]
fn scenario_file_drives_the_det_fuzzer() {
    let dir = workdir("fuzz");
    let skn = dir.join("fuzz.skn");
    std::fs::write(&skn, SKN).expect("write scenario");
    run_slacksim(&["run", "--scenario", skn.to_str().unwrap(), "--det-schedules", "8"]);
    std::fs::remove_dir_all(&dir).ok();
}
