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
