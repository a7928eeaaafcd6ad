//! Sharded-kernel golden gate (scale-tier satellite): pinned
//! fingerprints, shard-count invariance, rerun byte-identity, and
//! cross-check against the full simulator's semantics on small graphs.
//!
//! The packed kernel promises that its result is a pure function of
//! `(graph, colors, seed)` — the shard count and thread interleaving must
//! be unobservable. These tests pin that promise over the reference
//! topologies and both random-graph families. The literal fingerprints in
//! [`GOLDEN`] were recorded from the kernel whose guards rescanned every
//! adjacency slot after each event; any optimisation of the dispatch path
//! must reproduce them byte for byte.

use ekbd_graph::partition::greedy_edge_cut;
use ekbd_graph::{coloring, random, topology, ConflictGraph};
use ekbd_sim::{run_sharded, InteractiveScale, PackedKernel, ScaleConfig, ScaleRunReport};

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

/// `(label, seed, fingerprint)` of the pinned batch runs; the graph for
/// each label comes from [`golden_graph`].
const GOLDEN: &[(&str, u64, &str)] = &[
    ("ring-32", 3, "packed-scale-v1 n=32 events=1074 msgs=690 ticks=167 eats#3872de70f0e012fb mistakes=0 starving=0 lat[n=96 min=4 p50=14 p99=38 max=38 mean=15.1] ex#923257a311cad2d5"),
    ("grid-6x6", 7, "packed-scale-v1 n=36 events=1894 msgs=1318 ticks=184 eats#db69daaba98738e2 mistakes=0 starving=0 lat[n=108 min=4 p50=17 p99=33 max=33 mean=18.0] ex#d9799b2a0221f14e"),
    ("gnp-48", 9, "packed-scale-v1 n=48 events=4746 msgs=3498 ticks=236 eats#a36f9c3d03d10a3e mistakes=0 starving=0 lat[n=144 min=8 p50=31 p99=76 max=80 mean=33.2] ex#16ba893b8a96eb60"),
    ("powerlaw-64", 4, "packed-scale-v1 n=64 events=5548 msgs=4048 ticks=262 eats#bf79601cf2f359f5 mistakes=0 starving=0 lat[n=192 min=5 p50=26 p99=80 max=91 mean=29.0] ex#0a9db8cd45fe4c69"),
    ("powerlaw-60", 21, "packed-scale-v1 n=60 events=3614 msgs=2552 ticks=208 eats#48c7523069115838 mistakes=0 starving=0 lat[n=180 min=4 p50=19 p99=62 max=64 mean=22.3] ex#fd86d714f26840c8"),
    ("clique-6", 17, "packed-scale-v1 n=6 events=454 msgs=328 ticks=203 eats#5c52e84640434deb mistakes=0 starving=0 lat[n=18 min=13 p50=35 p99=54 max=54 mean=32.9] ex#12d758fbcba7f4c7"),
    ("ring-8", 17, "packed-scale-v1 n=8 events=272 msgs=176 ticks=135 eats#4d6d7ba1883d4651 mistakes=0 starving=0 lat[n=24 min=6 p50=13 p99=26 max=26 mean=14.1] ex#e64db26bd863f42a"),
    ("grid-3x4", 17, "packed-scale-v1 n=12 events=526 msgs=352 ticks=150 eats#7d705c4ce70173bc mistakes=0 starving=0 lat[n=36 min=5 p50=15 p99=31 max=31 mean=16.3] ex#b1e82abb2c0e3072"),
];

fn golden_graph(label: &str) -> ConflictGraph {
    match label {
        "ring-32" => topology::ring(32),
        "grid-6x6" => topology::grid(6, 6),
        "gnp-48" => random::connected_gnp(48, 0.1, 5),
        "powerlaw-64" => random::powerlaw(64, 3, 2),
        "powerlaw-60" => random::powerlaw(60, 2, 13),
        "clique-6" => topology::clique(6),
        "ring-8" => topology::ring(8),
        "grid-3x4" => topology::grid(3, 4),
        other => unreachable!("no golden graph {other}"),
    }
}

#[test]
fn pinned_fingerprints_reproduce_at_every_shard_count() {
    for &(label, seed, want) in GOLDEN {
        let g = golden_graph(label);
        for shards in [1, 2, 4] {
            assert_eq!(
                run(&g, shards, seed).fingerprint(),
                want,
                "{label} seed {seed} at {shards} shards"
            );
        }
    }
}

#[test]
fn pinned_hub_heavy_powerlaw_reproduces() {
    // Max degree 331: the hubs' many-slot doorway and eat paths run.
    let g = random::powerlaw(10_000, 3, 1);
    assert_eq!(g.max_degree(), 331);
    let want = "packed-scale-v1 n=10000 events=870448 msgs=630484 ticks=455 \
                eats#8d3ead1d2463892e mistakes=0 starving=0 \
                lat[n=30000 min=3 p50=27 p99=156 max=225 mean=41.1] ex#23f8391e1c32ce18";
    for shards in [1, 2] {
        assert_eq!(run(&g, shards, 1).fingerprint(), want, "{shards} shards");
    }
}

/// Folds an observation stream into one word, order-sensitively.
fn fold_obs(h: &mut u64, obs: &mut Vec<ekbd_sim::EatObs>) {
    for o in obs.drain(..) {
        *h = h.wrapping_mul(0x100_0000_01b3)
            ^ (o.tick << 8)
            ^ (u64::from(o.process) << 1)
            ^ u64::from(o.started);
    }
}

#[test]
fn pinned_interactive_schedule_reproduces() {
    // The served backend's path: hunger injected between bounded steps,
    // including injections refused while a process is still busy.
    let g = topology::ring(32);
    let colors = coloring::greedy(&g);
    let mut ik = InteractiveScale::new(&g, &colors, ScaleConfig::default().seed(5));
    let (mut obs, mut h) = (Vec::new(), 0u64);
    for round in 0..40u32 {
        for p in 0..32u32 {
            if (p * 7 + round) % 3 != 0 {
                ik.inject_hungry(p);
            }
        }
        ik.step(3 + u64::from(round % 5), &mut obs);
        fold_obs(&mut h, &mut obs);
    }
    while ik.has_pending() {
        ik.step(1 << 20, &mut obs);
    }
    fold_obs(&mut h, &mut obs);
    assert_eq!(h, 0x9a68_255a_6c39_e329, "observation stream");
    assert_eq!(
        ik.finish().fingerprint(),
        "packed-scale-v1 n=32 events=2542 msgs=1658 ticks=221 eats#1e77079c954a957e \
         mistakes=0 starving=0 lat[n=221 min=3 p50=20 p99=37 max=39 mean=19.8] \
         ex#2781a059af483dbd"
    );
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
