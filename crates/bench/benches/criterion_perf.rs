//! Statistical micro-benchmarks (Criterion).
//!
//! Complements `e9_perf`: per-operation costs of the building blocks —
//! the dining state machine's event handler, the simulator kernel, the
//! coloring algorithms, and an end-to-end contended scenario.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ekbd_dining::{DiningAlgorithm, DiningInput, DiningMsg, DiningProcess};
use ekbd_graph::{coloring, topology, ProcessId};
use ekbd_harness::{Scenario, Workload};
use ekbd_sim::Time;
use std::collections::BTreeSet;
use std::hint::black_box;

/// Cost of one dining-process event (ping round-trip on a δ=8 star hub).
fn bench_handle(c: &mut Criterion) {
    let g = topology::star(9);
    let colors = coloring::greedy(&g);
    let nobody: BTreeSet<ProcessId> = BTreeSet::new();
    c.bench_function("dining_handle_ping", |b| {
        let mut proc_ = DiningProcess::from_graph(&g, &colors, ProcessId(0));
        let mut sends = Vec::with_capacity(16);
        b.iter(|| {
            sends.clear();
            proc_.handle(
                DiningInput::Message {
                    from: ProcessId(3),
                    msg: DiningMsg::Ping,
                },
                &nobody,
                &mut sends,
            );
            black_box(&sends);
        });
    });
}

/// Cost of a full contended scenario end to end, by ring size.
fn bench_scenario(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_ring");
    group.sample_size(10);
    for n in [8usize, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let report = Scenario::new(topology::ring(n))
                    .seed(7)
                    .workload(Workload {
                        sessions: 5,
                        think: (1, 10),
                        eat: (1, 10),
                    })
                    .horizon(Time(100_000))
                    .run_algorithm1();
                black_box(report.total_eat_sessions())
            });
        });
    }
    group.finish();
}

/// Coloring algorithms on a mid-size random graph.
fn bench_coloring(c: &mut Criterion) {
    let g = ekbd_graph::random::connected_gnp(200, 0.05, 11);
    c.bench_function("coloring_greedy_200", |b| {
        b.iter(|| black_box(coloring::greedy(&g)))
    });
    c.bench_function("coloring_dsatur_200", |b| {
        b.iter(|| black_box(coloring::dsatur(&g)))
    });
}

/// The doorway algorithms handling the same hot-path event — a ping from a
/// genuine neighbor arriving at the thinking δ=8 hub — for a like-for-like
/// cost comparison. (Each iteration sends one ack and leaves the state
/// unchanged, so the measurement is steady.)
fn bench_algorithms(c: &mut Criterion) {
    use ekbd_baselines::ChoySinghProcess;
    let g = topology::star(9);
    let colors = coloring::greedy(&g);
    let nobody: BTreeSet<ProcessId> = BTreeSet::new();
    let mut group = c.benchmark_group("handle_ping_at_hub");
    let input = || DiningInput::Message {
        from: ProcessId(3),
        msg: DiningMsg::Ping,
    };
    group.bench_function("algorithm1", |b| {
        let mut proc_ = DiningProcess::from_graph(&g, &colors, ProcessId(0));
        let mut sends = Vec::with_capacity(4);
        b.iter(|| {
            sends.clear();
            proc_.handle(input(), &nobody, &mut sends);
            black_box(&sends);
        });
    });
    group.bench_function("budgeted_m3", |b| {
        let mut proc_ = DiningProcess::from_graph(&g, &colors, ProcessId(0)).with_ack_budget(3);
        let mut sends = Vec::with_capacity(4);
        b.iter(|| {
            sends.clear();
            proc_.handle(input(), &nobody, &mut sends);
            black_box(&sends);
        });
    });
    group.bench_function("choy_singh", |b| {
        let mut proc_ = ChoySinghProcess::from_graph(&g, &colors, ProcessId(0));
        let mut sends = Vec::with_capacity(4);
        b.iter(|| {
            sends.clear();
            proc_.handle(input(), &nobody, &mut sends);
            black_box(&sends);
        });
    });
    group.finish();
}

/// Heartbeat detector hot paths: timer tick (send + check) and heartbeat
/// receipt, at fan-out 8.
fn bench_detector(c: &mut Criterion) {
    use ekbd_detector::{
        DetectorEvent, DetectorModule, DetectorMsg, DetectorOutput, HeartbeatConfig,
        HeartbeatDetector,
    };
    use ekbd_sim::Time;
    let neighbors: Vec<ProcessId> = (1..9).map(ProcessId::from).collect();
    c.bench_function("heartbeat_timer_tick", |b| {
        let mut d = HeartbeatDetector::new(HeartbeatConfig::default(), neighbors.clone());
        d.handle(
            DetectorEvent::Start { now: Time::ZERO },
            &mut DetectorOutput::new(),
        );
        let mut now = 0u64;
        b.iter(|| {
            now += 10;
            let mut out = DetectorOutput::new();
            d.handle(
                DetectorEvent::Timer {
                    now: Time(now),
                    tag: 1,
                },
                &mut out,
            );
            black_box(out.sends.len())
        });
    });
    c.bench_function("heartbeat_receive", |b| {
        let mut d = HeartbeatDetector::new(HeartbeatConfig::default(), neighbors.clone());
        d.handle(
            DetectorEvent::Start { now: Time::ZERO },
            &mut DetectorOutput::new(),
        );
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            let mut out = DetectorOutput::new();
            d.handle(
                DetectorEvent::Message {
                    now: Time(now),
                    from: ProcessId(3),
                    msg: DetectorMsg::Heartbeat,
                },
                &mut out,
            );
            black_box(out.changed)
        });
    });
}

criterion_group!(
    benches,
    bench_handle,
    bench_scenario,
    bench_coloring,
    bench_algorithms,
    bench_detector
);
criterion_main!(benches);
