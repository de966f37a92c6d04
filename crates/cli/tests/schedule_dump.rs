//! A `--det-schedules` dump is a seeded `.skn` scenario, and
//! `slacksim run --scenario <dump>` replays the run it was found in: the
//! same report as the flag-spelled `--det-seed` run of that seed. Flag
//! shapes a scenario cannot carry, and a seed stated twice, are refused
//! with one `error:` line instead.

use sk_obs::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const FLAGS: [&str; 10] = [
    "--bench",
    "racy_increment",
    "--cores",
    "3",
    "--scheme",
    "SU",
    "--model",
    "inorder",
    "--scale",
    "test",
];

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sk-dump-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn slacksim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slacksim")).args(args).output().expect("spawn slacksim")
}

fn run_ok(args: &[&str]) {
    let out = slacksim(args);
    assert!(
        out.status.success(),
        "slacksim {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn report(path: &Path) -> Json {
    parse(&std::fs::read_to_string(path).expect("report written")).expect("report parses")
}

/// The first dump of a fuzz over four seeds, and its seed.
fn first_dump(dir: &Path) -> (PathBuf, String) {
    let out = dir.to_str().unwrap();
    run_ok(&[&["run"][..], &FLAGS, &["--det-schedules", "4", "--schedule-out", out]].concat());
    let mut dumps: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    dumps.sort();
    let dump = dumps.into_iter().next().expect("SU on racy_increment violates on some seed");
    let text = std::fs::read_to_string(&dump).unwrap();
    assert!(text.starts_with("# violations="), "the dump notes its run:\n{text}");
    let seed = text.lines().find_map(|l| l.strip_prefix("seed = ")).expect("a seeded dump");
    (dump, seed.to_string())
}

#[test]
fn a_dumped_seed_replays_its_run() {
    let dir = workdir("replay");
    let (dump, seed) = first_dump(&dir.join("seeds"));
    let (replayed, direct) = (dir.join("replayed.json"), dir.join("direct.json"));
    run_ok(&["run", "--scenario", dump.to_str().unwrap(), "--json", replayed.to_str().unwrap()]);
    let det = ["--det-seed", &seed, "--track-violations", "--json", direct.to_str().unwrap()];
    run_ok(&[&["run"][..], &FLAGS, &det].concat());
    let (a, b) = (report(&replayed), report(&direct));
    for key in ["exec_cycles", "violations", "cores"] {
        assert!(a.get(key).is_some(), "report has no {key:?}");
        assert_eq!(a.get(key), b.get(key), "{key:?}: the replay is not the dumped run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shapes_a_scenario_cannot_carry_are_one_line_errors() {
    let dir = workdir("refuse");
    let (dump, _) = first_dump(&dir.join("seeds"));
    let dump = dump.to_str().unwrap();
    let fuzz = [&["run"][..], &FLAGS, &["--det-schedules", "2", "--schedule-out"]].concat();
    let out = dir.join("refused");
    let out = out.to_str().unwrap();
    for args in [
        [&fuzz[..], &[out, "--fast-forward"]].concat(),
        [&fuzz[..], &[out, "--scale", "full"]].concat(),
        vec!["run", "--scenario", dump, "--det-seed", "1"],
        vec!["run", "--scenario", dump, "--det-schedules", "2", "--schedule-out", out],
        vec!["run", "--scenario", dump, "--seq"],
        vec!["run", "--replay", dump],
    ] {
        let res = slacksim(&args);
        let stderr = String::from_utf8_lossy(&res.stderr);
        assert_eq!(res.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
    assert!(!Path::new(out).exists(), "a refused fuzz dumped nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
