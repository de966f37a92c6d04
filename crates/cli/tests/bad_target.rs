//! A target the engine cannot build, or a kernel the core count cannot run,
//! is a one-line error and exit code 1: nothing is built first, and nothing
//! panics.

use std::process::Command;

#[test]
fn a_bad_target_is_a_one_line_error() {
    for args in [
        &["run", "--cores", "0"][..],
        &["run", "--cores", "300"],
        &["run", "--shards", "99"],
        &["run", "--bench", "pingpong", "--cores", "1"],
        &["run", "--bench", "no_such_kernel"],
        &["suite", "--cores", "0"],
        // A bare word is not an option: `run LU` must not run the default.
        &["run", "LU", "--cores", "2"],
        &["suite", "extra"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_slacksim"))
            .args(args)
            .args(["--scale", "test"])
            .output()
            .expect("spawn slacksim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}

/// `asm` takes its source file wherever it stands among the options, and
/// refuses a second bare argument.
#[test]
fn asm_keeps_its_file_and_nothing_more() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs/token_ring.s");
    let asm = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_slacksim"))
            .arg("asm")
            .args(args)
            .output()
            .expect("spawn slacksim")
    };
    let out = asm(&["--cores", "4", "--scheme", "CC", file, "--seq"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("cycles="), "{stdout}");
    let out = asm(&["--cores", "4", file, "extra.s"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: unexpected argument 'extra.s'"), "{stderr}");
}
