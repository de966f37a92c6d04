//! `slacksim reproduce`: Figure 2 prints the pinned timelines byte for
//! byte, and a bad command line ends in an `error:` line and a non-zero
//! exit, never a panic or a silent default.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slacksim"))
        .arg("reproduce")
        .args(args)
        .output()
        .expect("spawn slacksim")
}

#[test]
fn fig2_prints_the_pinned_timelines() {
    let out = reproduce(&["fig2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), include_str!("golden/fig2.txt"));
}

#[test]
fn bad_command_lines_fail_with_an_error_line() {
    for args in [
        &["table3", "--scale", "bogus"][..],
        &["table3", "--reps"],
        &["table3", "--reps", "0"],
        &["nosuch"],
        &["fig2", "--bogus"],
        &["fig2", "--scale", "test"],
    ] {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} exit status; stderr:\n{stderr}");
        assert!(stderr.starts_with("error: "), "{args:?} stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} stderr:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a harness");
    }
}
