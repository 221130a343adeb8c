//! The Table-1 machine's report, pinned byte for byte.
//!
//! Every other byte-identity check (the determinism suite, the golden
//! figure CSVs, the `all_figures` worker-count diff) runs 4–8 cores on the
//! 4-way `small_for_tests` L2. This test runs the geometry the benchmark
//! measures — 64 tiles, 8-way 256 KB L2 slices, ACKwise-4, Limited_3 — on
//! short ocean-nc and matmul traces and compares the full pretty-printed
//! [`SimReport`] against a committed golden under `results/golden/`.
//!
//! On a mismatch the actual report is written next to the test binary's
//! scratch directory (the path is in the panic message), so an intended
//! change can be reviewed with `diff` and copied over the golden.

use lacc::experiments::config_for_cores;
use lacc::prelude::*;

fn check(bench: Benchmark, scale: f64, golden: &str) {
    let cfg = config_for_cores(64);
    assert_eq!(cfg.l2.associativity, 8, "Table 1: 8-way L2 slices");
    assert_eq!(cfg.directory, DirectoryKind::ackwise4());
    assert_eq!(cfg.classifier.tracking, TrackingKind::Limited { k: 3 });
    let report = Simulator::new(cfg, bench.build(64, scale)).unwrap().run();
    assert_eq!(report.monitor.violations, 0, "{}", bench.name());
    let actual = format!("{report:#?}\n");
    let path = format!("{}/../../results/golden/{golden}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != expected {
        let out = format!("{}/{golden}.actual", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&out, &actual).unwrap();
        panic!("{} report differs from {path}; actual written to {out}", bench.name());
    }
}

#[test]
fn ocean_nc_64core_report_matches_golden() {
    check(Benchmark::OceanNc, 0.01, "report64_ocean-nc.txt");
}

#[test]
fn matmul_64core_report_matches_golden() {
    check(Benchmark::Matmul, 0.01, "report64_matmul.txt");
}
