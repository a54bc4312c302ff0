//! `BENCHMARK.json` and the code agree.

use bbmark::report::Manifest;
use bbmark::workload::WORKLOADS;

#[test]
fn manifest_declares_exactly_the_four_workloads_and_a_setup_metric() {
    let m = Manifest::load().expect("BENCHMARK.json");
    assert_eq!(m.workloads, WORKLOADS);
    let setup = m
        .end_to_end
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is mandatory");
    assert_eq!(setup.unit, "s");
    assert!(!setup.higher_is_better);
    for d in &m.end_to_end {
        let bound = d.bound.expect("every end-to-end metric is bounded");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        assert!(
            bound <= setup.bound.unwrap(),
            "setup_s carries the largest bound"
        );
    }
    assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
}
