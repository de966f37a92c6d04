//! Every paper harness but `scaleout` (which CI runs as its smoke) runs
//! to completion at test scale: each panics if a run computes a wrong
//! result or, for `gridfork`'s `verify`, if a CC fork is not bit-identical
//! to its from-scratch run.

use sk_core::CoreModel;
use sk_kernels::Scale;
use std::num::NonZeroUsize;

#[test]
fn every_harness_runs_at_test_scale() {
    let model = CoreModel::OutOfOrder;
    sk_bench::fig2();
    sk_bench::table2(Scale::Test, model);
    sk_bench::table3(Scale::Test, model, NonZeroUsize::MIN);
    sk_bench::violations(model);
    sk_bench::fig8(Scale::Test, model);
    let metrics = std::env::temp_dir().join(format!("sk-bench-grid-{}.json", std::process::id()));
    sk_bench::gridfork(Scale::Test, model, true, Some(&metrics));
    let dump = std::fs::read_to_string(&metrics).expect("gridfork writes its metrics dump");
    std::fs::remove_file(&metrics).ok();
    let doc = sk_obs::json::parse(&dump).expect("the metrics dump parses");
    assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("sk-obs-metrics"));
    sk_bench::ablation(Scale::Test);
}
