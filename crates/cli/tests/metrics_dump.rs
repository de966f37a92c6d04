//! `--metrics-out` writes a telemetry dump a consumer can read: it parses,
//! names the `sk-obs-metrics` schema at version 1 or later, carries one
//! entry per core, and under a slack scheme its per-core `slack`
//! histograms are not empty.

use sk_obs::json::parse;
use std::process::Command;

#[test]
fn metrics_out_dump_is_schema_valid_with_a_non_empty_slack_histogram() {
    let dir = std::env::temp_dir().join(format!("sk-metrics-dump-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_slacksim"))
        .args(["run", "--bench", "pingpong", "--scheme", "S10", "--scale", "test", "--metrics-out"])
        .arg(&path)
        .output()
        .expect("spawn slacksim");
    assert!(
        out.status.success(),
        "slacksim failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&path).expect("read the metrics dump");
    let doc = parse(&text).expect("the metrics dump parses");
    assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("sk-obs-metrics"));
    assert!(doc.get("version").and_then(|v| v.as_i64()).is_some_and(|v| v >= 1));

    let cores = doc.get("cores").and_then(|v| v.as_arr()).expect("a `cores` array");
    assert_eq!(Some(cores.len() as i64), doc.get("n_cores").and_then(|v| v.as_i64()));
    let slack_samples: i64 = cores
        .iter()
        .map(|c| {
            c.get("hist")
                .and_then(|h| h.get("slack"))
                .and_then(|s| s.get("count"))
                .and_then(|n| n.as_i64())
                .expect("every core has a `hist.slack.count`")
        })
        .sum();
    assert!(slack_samples > 0, "no slack samples under S10");
    std::fs::remove_dir_all(&dir).ok();
}
