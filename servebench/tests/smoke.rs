//! Smoke mode end to end: every workload at tiny size, untraced and
//! traced. Each run must pass its oracle checks and print every metric
//! `BENCHMARK.json` lists for its mode.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["ba-wire", "chunglu-hubs", "ws-durable-shards"];

/// The `name` of every entry of the `section` array of `BENCHMARK.json`.
fn metric_names(bench: &str, section: &str) -> Vec<String> {
    let start = bench
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &bench[start..];
    let body = &body[..body.find(']').expect("the section array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("quoted name")].to_string())
        .collect()
}

fn result_line(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("servebench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    if trace == "1" {
        assert!(stderr.contains("purpose ("), "no ledger:\n{stderr}");
    }
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_passes_its_oracle_and_prints_every_metric() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = metric_names(&bench, section);
        assert!(!names.is_empty());
        for workload in WORKLOADS {
            let line = result_line(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, "),
                "{workload}: {line}"
            );
            for name in &names {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} misses {name}: {line}"
                );
            }
            assert_eq!(
                line.matches("\"value\": ").count(),
                names.len(),
                "{workload} --trace {trace} prints extra metrics: {line}"
            );
        }
    }
}

#[test]
fn a_bad_argument_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("servebench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
