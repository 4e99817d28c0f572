//! Every workload, traced and untraced, at tiny size: the run must
//! finish, pass its own correctness checks, report every metric, and
//! leave no scratch directory or server process behind.

use std::process::Command;

fn result_line(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("result line").to_string()
}

fn check(workload: &str) {
    for (trace, names) in [
        (
            "0",
            &[
                "setup_s",
                "ops_per_s",
                "lat_p95_us",
                "watch_lag_p50_us",
                "ingest_lat_p95_us",
            ][..],
        ),
        (
            "1",
            &[
                "wire.jsonl_decode_ns",
                "core.push_batch_ns",
                "query.exec_us.window",
                "server.unexplained_us",
                "trace.overhead.lat_p50",
            ][..],
        ),
    ] {
        let line = result_line(workload, trace);
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":"),
            "{line}"
        );
        for name in names {
            assert!(
                line.contains(&format!("\"{name}\":{{\"value\":")),
                "{name} missing: {line}"
            );
        }
    }
}

/// One test, so the runs go one after another and the scratch check
/// sees no other run's directory.
#[test]
fn every_workload_at_tiny_size() {
    for w in ["ingest_durable", "ingest_bulk", "read_watch_mix"] {
        check(w);
    }
    assert!(
        std::fs::read_dir(".perfbench_tmp").map_or(true, |mut d| d.next().is_none()),
        "scratch directory left behind"
    );
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
