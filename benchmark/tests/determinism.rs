//! The traffic is a pure function of (workload, seed).

use bbmark::workload::{trace_text, Spec, WORKLOADS};

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for name in WORKLOADS {
        let spec = Spec::named(name, false).expect("declared workload");
        // Past the fill prefix, so departures and clocks are compared too.
        let n = spec.fill_per_conn() as usize + 2_000;
        let a = trace_text(&spec, 7, n);
        assert_eq!(
            a,
            trace_text(&spec, 7, n),
            "{name}: seed 7 is not reproducible"
        );
        assert_ne!(a, trace_text(&spec, 8, n), "{name}: seeds 7 and 8 coincide");
        assert!(
            a.contains(" DRQ "),
            "{name}: no departure in the compared prefix"
        );
    }
}

#[test]
fn durable_churn_replays_rate_churns_events() {
    // Same flows, pods and order; only the clock differs, by the ratio
    // of the two frozen rates.
    let rate = Spec::named("rate_churn", false).unwrap();
    let durable = Spec::named("durable_churn", false).unwrap();
    let n = rate.fill_per_conn() as usize + 2_000;
    let a = bbmark::workload::TraceGen::new(&rate, 3, 1).take(n);
    let b = bbmark::workload::TraceGen::new(&durable, 3, 1).take(n);
    let stretch = rate.r_fixed / durable.r_fixed;
    for (x, y) in a.zip(b) {
        assert_eq!(
            (x.flow, x.pod, x.variant, x.arrival),
            (y.flow, y.pod, y.variant, y.arrival)
        );
        // Both clocks are truncated to whole nanoseconds before the
        // comparison stretches one of them.
        let want = x.at_ns as f64 * stretch;
        assert!(
            (y.at_ns as f64 - want).abs() <= stretch + 1e-9 * want + 2.0,
            "{} vs {want}",
            y.at_ns
        );
    }
}

#[test]
fn the_process_is_stationary_around_its_offered_erlangs() {
    let spec = Spec::named("mixed_churn", false).unwrap();
    let fill = i64::from(spec.fill_per_conn());
    let mut present = 0i64;
    let mut worst = 0i64;
    let events = bbmark::workload::TraceGen::new(&spec, 5, 0).take(fill as usize + 200_000);
    for (i, ev) in events.enumerate() {
        present += if ev.arrival { 1 } else { -1 };
        if i as i64 >= fill {
            worst = worst.max((present - fill).abs());
        }
    }
    // Poisson fluctuation of a population of `fill` is ~sqrt(fill); ten
    // standard deviations would mean the chain drifts.
    let bound = 10 * (fill as f64).sqrt() as i64;
    assert!(worst < bound, "population strayed {worst} from {fill}");
}
