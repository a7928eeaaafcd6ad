//! Sharded-kernel golden gate (scale-tier satellite): shard-count
//! invariance, rerun byte-identity, and cross-check against the full
//! simulator's semantics on small graphs.
//!
//! The packed kernel promises that its result is a pure function of
//! `(graph, colors, seed)` — the shard count and thread interleaving must
//! be unobservable. These tests pin that promise over the reference
//! topologies and both random-graph families.

use ekbd_graph::partition::greedy_edge_cut;
use ekbd_graph::{coloring, random, topology, ConflictGraph};
use ekbd_sim::{run_sharded, PackedKernel, ScaleConfig, ScaleRunReport};

fn run(g: &ConflictGraph, shards: usize, seed: u64) -> ScaleRunReport {
    let colors = coloring::greedy(g);
    let part = greedy_edge_cut(g, shards);
    let kernel = PackedKernel::new(g, &colors, &part, ScaleConfig::default().seed(seed));
    run_sharded(kernel)
}

/// Same verdict, per-process eat counts, and full fingerprint for shard
/// counts 1, 2, and 4.
fn assert_shard_invariant(g: &ConflictGraph, seed: u64, label: &str) {
    let one = run(g, 1, seed);
    assert!(one.verdict(), "{label}: single-shard run must pass");
    assert_eq!(one.mistakes, 0, "{label}: fault-free run must be clean");
    for shards in [2, 4] {
        let many = run(g, shards, seed);
        assert_eq!(
            many.verdict(),
            one.verdict(),
            "{label}: verdict diverged at {shards} shards"
        );
        assert_eq!(
            many.eats, one.eats,
            "{label}: per-process eat counts diverged at {shards} shards"
        );
        assert_eq!(
            many.fingerprint(),
            one.fingerprint(),
            "{label}: fingerprint diverged at {shards} shards"
        );
    }
}

#[test]
fn ring_is_shard_count_invariant() {
    assert_shard_invariant(&topology::ring(32), 3, "ring-32");
}

#[test]
fn grid_is_shard_count_invariant() {
    assert_shard_invariant(&topology::grid(6, 6), 7, "grid-6x6");
}

#[test]
fn gnp_is_shard_count_invariant() {
    assert_shard_invariant(&random::connected_gnp(48, 0.1, 5), 9, "gnp-48");
}

#[test]
fn powerlaw_is_shard_count_invariant() {
    assert_shard_invariant(&random::powerlaw(64, 3, 2), 4, "powerlaw-64");
}

#[test]
fn reruns_are_byte_identical_per_shard_count() {
    let g = random::powerlaw(60, 2, 13);
    for shards in [1, 2, 4] {
        let a = run(&g, shards, 21);
        let b = run(&g, shards, 21);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "rerun diverged at {shards} shards"
        );
        assert_eq!(a.eats, b.eats);
        assert_eq!(a.excerpts, b.excerpts);
        assert_eq!(a.final_tick, b.final_tick);
    }
}

#[test]
fn packed_semantics_cross_check_against_full_simulator() {
    // The packed kernel is a re-implementation of Algorithm 1, not a
    // re-skin of the simulator, so traces are not comparable event by
    // event — but the *safety theorems* must hold in both worlds. On the
    // reference topologies the packed run must be mistake-free and
    // wait-free, exactly as the golden-trace-pinned full simulator is.
    for (g, label) in [
        (topology::ring(8), "ring-8"),
        (topology::clique(6), "clique-6"),
        (topology::grid(3, 4), "grid-3x4"),
    ] {
        let r = run(&g, 2, 17);
        assert!(r.verdict(), "{label}: {}", r.fingerprint());
        assert_eq!(r.mistakes, 0, "{label}: exclusion violated");
        assert_eq!(r.starving, 0, "{label}: wait-freedom violated");
        assert!(
            r.eats.iter().all(|&e| e == ScaleConfig::default().sessions),
            "{label}: every process must finish its sessions"
        );
    }
}
