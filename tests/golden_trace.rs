//! Golden-trace determinism suite for the simulation kernel.
//!
//! Each scenario's run is pinned to a committed digest at the strongest
//! available granularity: the full kernel trace — every send, delivery,
//! loss, duplication, reorder, crash, recovery, corruption, and timer
//! firing, in order, with timestamps — plus the scheduling events, the
//! event and message counts, and the final states and incarnations, under
//! every fault configuration the E-suite exercises. Repeat runs of the same
//! seed must be byte-identical.
//!
//! The digests were recorded from two independent kernels that agreed on
//! every one: the timer-wheel rewrite that remains, and the binary-heap +
//! hash-map original it replaced, which shared none of its queue or
//! interning code. Reproducing them means a change altered the kernel's
//! cost, not its behavior.

use ekbd::harness::{Campaign, RunReport, Scenario, Workload};
use ekbd::sim::{FaultPlan, ProcessId, Time, TraceEvent};
use ekbd_link::LinkConfig;

fn p(i: usize) -> ProcessId {
    ProcessId::from(i)
}

/// FNV-1a over the debug rendering of a sequence: stable, dependency
/// free, and sensitive to every field of every item.
fn fnv<T: std::fmt::Debug>(items: &[T]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for item in items {
        for b in format!("{item:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= b'\n' as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn trace_hash(trace: &[TraceEvent]) -> u64 {
    fnv(trace)
}

/// Everything a run reports that the golden suite pins, in order: FNV-1a
/// of the full kernel trace, FNV-1a of the scheduling events, the events
/// processed, the messages sent, and FNV-1a of the final per-process
/// states mixed with the incarnations.
type Digest = [u64; 5];

fn digest(r: &RunReport) -> Digest {
    [
        trace_hash(&r.kernel_trace),
        fnv(&r.events),
        r.events_processed,
        r.total_messages,
        fnv(&r.final_states) ^ fnv(&r.incarnations).rotate_left(1),
    ]
}

/// The E-suite's fault configurations, each applied to the given base
/// scenario. Returned labels name the configuration in assertion messages.
fn fault_configs(base: Scenario) -> Vec<(&'static str, Scenario)> {
    vec![
        ("reliable", base.clone()),
        ("loss", base.clone().faults(FaultPlan::new().loss(0.10))),
        (
            "duplication",
            base.clone().faults(FaultPlan::new().duplication(0.15)),
        ),
        (
            "reorder",
            base.clone().faults(FaultPlan::new().reorder(0.20, 12)),
        ),
        (
            "partition",
            base.clone().faults(FaultPlan::new().loss(0.05).partition(
                vec![p(0), p(1)],
                Time(500),
                Time(3_000),
            )),
        ),
        (
            "loss+dup+reorder",
            base.faults(
                FaultPlan::new()
                    .loss(0.05)
                    .duplication(0.10)
                    .reorder(0.15, 12),
            ),
        ),
    ]
}

fn base_scenario(graph: ekbd::graph::ConflictGraph, seed: u64) -> Scenario {
    Scenario::new(graph)
        .seed(seed)
        .adversarial_oracle(Time(2_000), 40)
        .workload(Workload {
            sessions: 5,
            think: (1, 25),
            eat: (1, 10),
        })
        .reliable_link(LinkConfig::default())
        .horizon(Time(60_000))
        .record_trace(true)
}

/// Runs one scenario, asserts that it reproduces the committed digest, and
/// that a repeat run of the same seed is byte-identical.
fn assert_golden(label: &str, scenario: &Scenario, want: Digest, run: fn(Scenario) -> RunReport) {
    let report = run(scenario.clone());
    assert!(
        !report.kernel_trace.is_empty(),
        "{label}: trace recording must be on for this test to mean anything"
    );
    assert_eq!(digest(&report), want, "{label}: committed golden digest");
    let again = run(scenario.clone());
    assert_eq!(
        trace_hash(&report.kernel_trace),
        trace_hash(&again.kernel_trace),
        "{label}: repeat run must be deterministic"
    );
}

/// Runs every fault configuration of `base` against its committed digest
/// (the table lists them in [`fault_configs`] order).
fn assert_golden_table(topology: &str, base: Scenario, golden: &[Digest]) {
    let configs = fault_configs(base);
    assert_eq!(configs.len(), golden.len(), "one digest per config");
    for ((label, scenario), &want) in configs.iter().zip(golden) {
        let label = format!("{topology}/{label}");
        assert_golden(&label, scenario, want, |s| s.run_algorithm1());
    }
}

// Recorded at commit 31ebf16 from both of the simulator's engines then in
// the tree — the binary-heap + hash-map original and the timer-wheel +
// dense-channel rewrite — which agreed on every digest. Only the rewrite
// remains; these tables are what it must keep reproducing.

#[rustfmt::skip]
const RING8_GOLDEN: [Digest; 6] = [
    // reliable
    [0x3f1a3bb87d9048bc, 0xb4cd79ea085f0d6a, 917, 354, 0x7280afc717565b6e],
    // loss
    [0x6be6cb3530a447a0, 0x40343d598fb0b68c, 886, 350, 0x7280afc717565b6e],
    // duplication
    [0xb042c06f6a6ab880, 0x978ef538532bae7c, 999, 388, 0x7280afc717565b6e],
    // reorder
    [0x46be8d31ed982c6a, 0x1060fa93f8bdc047, 953, 388, 0x7280afc717565b6e],
    // partition
    [0xd678df55308427f7, 0x8e582e1375ec5ec4, 904, 353, 0x7280afc717565b6e],
    // loss+dup+reorder
    [0x291a95e6c0e192d6, 0x39603fe653a76106, 1022, 435, 0x7280afc717565b6e],
];

#[rustfmt::skip]
const CLIQUE6_GOLDEN: [Digest; 6] = [
    // reliable
    [0xc49fbd190e7815e6, 0xd5a00d3bc730df69, 1154, 650, 0xc378361fac1b0eee],
    // loss
    [0x00537c9ad7b97bc0, 0xa72ab89b0e4de09f, 1117, 655, 0xc378361fac1b0eee],
    // duplication
    [0xef25cfae03af9d65, 0x22b890994b687b27, 1277, 682, 0xc378361fac1b0eee],
    // reorder
    [0xcc47a78d8eec5680, 0xd33a2c448b6feb6f, 1128, 620, 0xc378361fac1b0eee],
    // partition
    [0x80020318a30b2629, 0x42a5bb0bc3ef5f9b, 1127, 651, 0xc378361fac1b0eee],
    // loss+dup+reorder
    [0xd4faf6be4de7a9e5, 0x820fbc5c3a8f0758, 1148, 624, 0xc378361fac1b0eee],
];

#[rustfmt::skip]
const CRASH_RECOVERY_GOLDEN: Digest =
    [0xde727fcbdc9aaac7, 0x426b0c83b6cde0cd, 40287, 22327, 0x7280afc717565b6e];

#[rustfmt::skip]
const RESTARTS_GOLDEN: Digest =
    [0xef6730941a80a269, 0xfe458a2503681721, 55085, 31119, 0x05a09f7b9305f937];

#[test]
fn ring8_traces_identical_across_engines_and_faults() {
    let base = base_scenario(ekbd::graph::topology::ring(8), 42);
    assert_golden_table("ring-8", base, &RING8_GOLDEN);
}

#[test]
fn clique6_traces_identical_across_engines_and_faults() {
    let base = base_scenario(ekbd::graph::topology::clique(6), 7);
    assert_golden_table("clique-6", base, &CLIQUE6_GOLDEN);
}

#[test]
fn crash_recovery_traces_identical_across_engines() {
    // Crash + recovery (one blank, one corrupted reboot) and a live-state
    // corruption, under loss — the crash-recovery E-suite configuration.
    // Note the order: `faults` replaces the whole plan, recoveries and the
    // corruption included, so this first scenario keeps only the crashes.
    let crash_only = base_scenario(ekbd::graph::topology::ring(8), 11)
        .crash(p(2), Time(4_000))
        .recover(p(2), Time(9_000))
        .crash(p(5), Time(6_000))
        .recover_corrupted(p(5), Time(12_000))
        .corrupt_state(p(0), Time(15_000))
        .faults(FaultPlan::new().loss(0.05));
    assert_golden("crash-recovery", &crash_only, CRASH_RECOVERY_GOLDEN, |s| {
        s.run_recoverable()
    });
    // The same schedule with the loss plan set first, so both restarts and
    // the corruption really fire.
    let restarts = base_scenario(ekbd::graph::topology::ring(8), 11)
        .faults(FaultPlan::new().loss(0.05))
        .crash(p(2), Time(4_000))
        .recover(p(2), Time(9_000))
        .crash(p(5), Time(6_000))
        .recover_corrupted(p(5), Time(12_000))
        .corrupt_state(p(0), Time(15_000));
    let report = restarts.run_recoverable();
    assert_eq!(report.incarnations[2], 1, "p2 restarted once");
    assert_eq!(report.incarnations[5], 1, "p5 restarted once");
    assert_golden("crash-recovery/restarts", &restarts, RESTARTS_GOLDEN, |s| {
        s.run_recoverable()
    });
}

#[test]
fn journaling_without_restarts_is_trace_invisible() {
    // The stable-storage journal is written on every transition but only
    // ever *read* during a restart. With no restarts scheduled, a
    // journaled run must therefore be byte-identical to an unjournaled
    // one: commits touch no RNG, no timers, no channels. This pins the
    // zero-overhead-when-unused contract of the journal layer.
    for (label, scenario) in fault_configs(base_scenario(ekbd::graph::topology::ring(8), 42)) {
        let plain = scenario.clone().journal(false).run_recoverable();
        let journaled = scenario.clone().journal(true).run_recoverable();
        assert!(
            !plain.kernel_trace.is_empty(),
            "{label}: trace recording must be on"
        );
        assert_eq!(
            plain.kernel_trace, journaled.kernel_trace,
            "{label}: journaling must not perturb the kernel trace"
        );
        assert_eq!(plain.events, journaled.events, "{label}: sched events");
        assert_eq!(
            plain.total_messages, journaled.total_messages,
            "{label}: total messages"
        );
        assert_eq!(
            trace_hash(&plain.kernel_trace),
            trace_hash(&journaled.kernel_trace),
            "{label}: trace hashes must match"
        );
    }
}

#[test]
fn campaign_parallel_merge_matches_serial_byte_for_byte() {
    // The campaign runner must be a pure parallelization: fanning the same
    // jobs across workers cannot change any report, and the merged
    // (seed-ordered) rendering must be byte-identical to the serial one.
    let base = Scenario::new(ekbd::graph::topology::ring(8))
        .adversarial_oracle(Time(2_000), 40)
        .workload(Workload {
            sessions: 4,
            think: (1, 20),
            eat: (1, 10),
        })
        .faults(FaultPlan::new().loss(0.05))
        .reliable_link(LinkConfig::default())
        .horizon(Time(40_000));
    let campaign = Campaign::new().seeds("ring-8", &base, 1..=12);
    let serial = campaign.run_serial();
    let parallel = campaign.run_with_workers(4);
    assert_eq!(
        serial.merged(),
        parallel.merged(),
        "parallel campaign must merge to the serial bytes"
    );
    assert_eq!(serial.total_events(), parallel.total_events());
    assert_eq!(serial.total_sessions(), parallel.total_sessions());
}

/// E10's scenario: a lowest-priority hub on `star(6)` under heavy
/// contention, the shape where the `k = m + 1` overtaking bound is reached.
fn ack_budget_scenario(seed: u64) -> Scenario {
    let mut colors = vec![1; 6];
    colors[0] = 0;
    Scenario::new(ekbd::graph::topology::star(6))
        .colors(colors)
        .seed(seed)
        .workload(Workload {
            sessions: 120,
            think: (1, 4),
            eat: (6, 14),
        })
        .horizon(Time(500_000))
        .record_trace(true)
}

// Recorded at commit 6bb546b from the ack-budget copy of Algorithm 1 then
// in `crates/core/src/budgeted.rs`, with every m = 1 digest asserted equal
// to `DiningProcess`'s. The budget now lives on `DiningProcess` itself;
// these digests are what it must keep reproducing.
// One row per budget m ∈ {1, 2, 3, 4}, one digest per seed 0..6. On this
// star the hub never spends more than two acks on one leaf in a session,
// so the m = 3 and m = 4 rows repeat m = 2's.

#[rustfmt::skip]
const ACK_BUDGET_GOLDEN: [[Digest; 6]; 4] = [
    [
        [0x2af5fa2ed2cc7d91, 0x1cb221057d821fe1, 5314, 3874, 0xc378361fac1b0eee],
        [0xb2144998dccd2c9f, 0x086fe70c6e465a92, 5334, 3894, 0xc378361fac1b0eee],
        [0x89b254987c02e3cd, 0x4bc6f74a06e9bb5b, 5318, 3878, 0xc378361fac1b0eee],
        [0xe88b4d6e018a0b0e, 0x3d7707c096694004, 5326, 3886, 0xc378361fac1b0eee],
        [0x192bbbab1dbb2e20, 0x79cca09857c189e3, 5310, 3870, 0xc378361fac1b0eee],
        [0x107a1749c335c248, 0xadc95a4050893d94, 5298, 3858, 0xc378361fac1b0eee],
    ],
    [
        [0x20c4462b14f5f6e6, 0xed59d04ad03f6f21, 5306, 3866, 0xc378361fac1b0eee],
        [0x4fec59999aacb8f0, 0x2db07dabee850789, 5338, 3898, 0xc378361fac1b0eee],
        [0x89b254987c02e3cd, 0x4bc6f74a06e9bb5b, 5318, 3878, 0xc378361fac1b0eee],
        [0x2016dfe57e02c4e2, 0x1d7b7a3ca6fbf9e1, 5326, 3886, 0xc378361fac1b0eee],
        [0xefba7291ad15b1f7, 0xbf952b843abf1e81, 5290, 3850, 0xc378361fac1b0eee],
        [0x09b377a9aa908b80, 0x63d287860f6bda58, 5294, 3854, 0xc378361fac1b0eee],
    ],
    [
        [0x20c4462b14f5f6e6, 0xed59d04ad03f6f21, 5306, 3866, 0xc378361fac1b0eee],
        [0x4fec59999aacb8f0, 0x2db07dabee850789, 5338, 3898, 0xc378361fac1b0eee],
        [0x89b254987c02e3cd, 0x4bc6f74a06e9bb5b, 5318, 3878, 0xc378361fac1b0eee],
        [0x2016dfe57e02c4e2, 0x1d7b7a3ca6fbf9e1, 5326, 3886, 0xc378361fac1b0eee],
        [0xefba7291ad15b1f7, 0xbf952b843abf1e81, 5290, 3850, 0xc378361fac1b0eee],
        [0x09b377a9aa908b80, 0x63d287860f6bda58, 5294, 3854, 0xc378361fac1b0eee],
    ],
    [
        [0x20c4462b14f5f6e6, 0xed59d04ad03f6f21, 5306, 3866, 0xc378361fac1b0eee],
        [0x4fec59999aacb8f0, 0x2db07dabee850789, 5338, 3898, 0xc378361fac1b0eee],
        [0x89b254987c02e3cd, 0x4bc6f74a06e9bb5b, 5318, 3878, 0xc378361fac1b0eee],
        [0x2016dfe57e02c4e2, 0x1d7b7a3ca6fbf9e1, 5326, 3886, 0xc378361fac1b0eee],
        [0xefba7291ad15b1f7, 0xbf952b843abf1e81, 5290, 3850, 0xc378361fac1b0eee],
        [0x09b377a9aa908b80, 0x63d287860f6bda58, 5294, 3854, 0xc378361fac1b0eee],
    ],
];

/// E10's staircase: the worst overtaking over the six seeds, per budget.
const ACK_BUDGET_WORST_OVERTAKES: [usize; 4] = [2, 3, 3, 3];

#[test]
fn ack_budget_traces_match_golden() {
    use ekbd::dining::DiningProcess;
    for (m, (golden, &staircase)) in
        (1u32..).zip(ACK_BUDGET_GOLDEN.iter().zip(&ACK_BUDGET_WORST_OVERTAKES))
    {
        let mut worst = 0;
        for (seed, &want) in (0u64..).zip(golden) {
            let report = ack_budget_scenario(seed).run_with(|s, p| {
                DiningProcess::from_graph(&s.graph, &s.colors, p).with_ack_budget(m)
            });
            assert_eq!(digest(&report), want, "m = {m}, seed {seed}");
            assert!(report.progress().wait_free(), "m = {m}, seed {seed}");
            worst = worst.max(report.fairness().max_overtakes());
        }
        assert_eq!(worst, staircase, "m = {m}: worst overtaking");
    }
}
