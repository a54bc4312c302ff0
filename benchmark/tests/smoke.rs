//! The whole benchmark, end to end, against a real `bbmark-host`
//! process — shrunk (`smoke`: 8 pods, low rates, 2 s phases) so a
//! debug-build daemon keeps up. Numbers from these runs mean nothing;
//! what is asserted is that every answer verifies, every declared
//! metric is emitted exactly once, and nothing undeclared is.

use bbmark::report::Manifest;
use bbmark::run::{run, Opts};
use bbmark::workload::WORKLOADS;

fn smoke(workload: &str, trace: bool) {
    let manifest = Manifest::load().expect("BENCHMARK.json beside benchmark/");
    let outcome = run(&Opts {
        workload: workload.into(),
        seed: 42,
        seconds: 4.0,
        trace,
        smoke: true,
    })
    .expect("the run itself succeeds");
    assert!(outcome.smoke, "marked not-for-claims");
    assert!(
        outcome.correct,
        "{workload} trace={trace}: {} failed of {}\n{}",
        outcome.failed,
        outcome.attempted,
        outcome.table()
    );
    assert!(outcome.attempted > 1_000, "{}", outcome.table());
    // Smoke phases are too short for the far tail: those percentiles
    // are withheld — absent, never zero — and the self-check says so.
    const THIN_IN_SMOKE: [&str; 2] = ["`setup_p99_us`", "`client.setup_p999_us`"];
    let problems: Vec<String> = manifest
        .check(&outcome)
        .into_iter()
        .filter(|p| !(trace && THIN_IN_SMOKE.iter().any(|m| p.contains(m))))
        .collect();
    assert!(
        problems.is_empty(),
        "{workload} trace={trace}: {problems:?}"
    );
    // The contract's result line parses and carries every metric.
    let line = serde::json::parse(&outcome.result_line()).expect("result line is JSON");
    for m in &outcome.metrics {
        let entry = line.field("metrics").unwrap().field(&m.name).unwrap();
        assert!(entry.field("value").unwrap().as_f64().is_ok());
    }
}

// One test per workload so they run in parallel and fail by name; each
// spawns its own daemon on ephemeral ports and its own scratch dir.

#[test]
fn rate_churn_end_to_end() {
    smoke(WORKLOADS[0], false);
}

#[test]
fn mixed_churn_end_to_end() {
    smoke(WORKLOADS[1], false);
}

#[test]
fn class_churn_end_to_end() {
    smoke(WORKLOADS[2], false);
}

#[test]
fn durable_churn_end_to_end() {
    smoke(WORKLOADS[3], false);
}

#[test]
fn rate_churn_per_layer_with_knee_and_overload() {
    smoke(WORKLOADS[0], true);
}

#[test]
fn class_churn_per_layer() {
    smoke(WORKLOADS[2], true);
}

#[test]
fn durable_churn_per_layer_with_restart() {
    smoke(WORKLOADS[3], true);
}
