//! Helpers shared by the golden-file tests.

use slacksim_suite::prelude::SimReport;

/// FNV-1a: the digest golden lines carry of a report fingerprint or a
/// snapshot.
pub fn fnv1a64(s: impl AsRef<[u8]>) -> u64 {
    s.as_ref()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The values a run printed, in order, without the printing core.
pub fn printed(r: &SimReport) -> Vec<i64> {
    r.printed().into_iter().map(|(_, v)| v).collect()
}

/// Compare `actual` with the committed `tests/golden/<file>` line by line
/// (a mismatch panics with `what_moved`), or rewrite the file when
/// `SK_REGEN_GOLDEN` is set.
pub fn check_golden(file: &str, actual: &str, what_moved: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("SK_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file is committed");
    for (want, got) in golden.lines().zip(actual.lines()) {
        assert_eq!(got, want, "{file}: {what_moved}");
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "{file}: line count");
}
