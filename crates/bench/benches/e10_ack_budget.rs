//! E10 — ablation: the doorway ack budget is the "k" in eventually
//! k-bounded waiting.
//!
//! Algorithm 1 grants one ack per neighbor per hungry session and achieves
//! ◇2-BW. Generalizing the `replied` bit to a budget of `m` acks predicts
//! ◇(m+1)-BW: `m` in-session grants plus at most one ack already in flight
//! when the session began. This experiment measures the worst suffix
//! overtaking for m ∈ {1, 2, 3, 4} and checks the `k = m + 1` staircase —
//! an ablation of the design choice behind the paper's title.

use ekbd_bench::{banner, conclude, verdict, Table};
use ekbd_dining::DiningProcess;
use ekbd_graph::topology;
use ekbd_harness::{Scenario, Workload};
use ekbd_sim::Time;

fn main() {
    banner(
        "E10",
        "ablation — ack budget m ⇒ eventual (m+1)-bounded waiting",
    );
    let mut table = Table::new(&[
        "ack budget m",
        "bound m+1",
        "max overtakes (suffix)",
        "tight?",
        "verdict",
    ]);
    // Lowest-priority hub star under heavy contention: the worst case for
    // overtaking, and the shape where the bound is reached.
    let g = topology::star(6);
    let mut colors = vec![1; 6];
    colors[0] = 0;
    let mut all_ok = true;
    for m in 1u32..=4 {
        let mut worst = 0usize;
        let seeds = 6;
        for seed in 0..seeds {
            let report = Scenario::new(g.clone())
                .colors(colors.clone())
                .seed(seed)
                .workload(Workload {
                    sessions: 120,
                    think: (1, 4),
                    eat: (6, 14),
                })
                .horizon(Time(500_000))
                .run_with(|s, p| {
                    DiningProcess::from_graph(&s.graph, &s.colors, p).with_ack_budget(m)
                });
            assert!(report.progress().wait_free());
            // Silent oracle, no crashes: the suffix is the whole run.
            worst = worst.max(report.fairness().max_overtakes());
        }
        let bound = (m + 1) as usize;
        let ok = worst <= bound;
        all_ok &= ok;
        table.row([
            m.to_string(),
            bound.to_string(),
            worst.to_string(),
            (worst == bound).to_string(),
            verdict(ok),
        ]);
    }
    table.print();
    println!(
        "\nShape: the measured worst overtaking tracks the predicted k = m + 1\n\
         staircase; m = 1 is Algorithm 1 (the paper's ◇2-BW)."
    );
    conclude("E10", all_ok);
}
