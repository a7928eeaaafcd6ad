//! The simulated workloads: Algorithm 1 on the discrete-event simulator
//! (crash-stop, and crash-recovery with the journal), and the bit-packed
//! scale kernel.
//!
//! Both run in virtual time. Their grant latency is the hungry → eat wait
//! counted in the engine ticks it spans (a grant in the tick the process
//! became hungry spans one), converted to wall time at the window's
//! measured engine time per tick: how long a simulated philosopher's wait
//! takes to play out. It moves with both the protocol (ticks waited) and
//! the engine (time per tick). Every figure is pooled over all the runs of
//! the window, so it weighs the host's fast and slow phases by the time
//! spent in each.

use crate::stats::{beyond, median_of, MIN_BEYOND};
use crate::trace::Tracer;
use crate::{host, mix, Outcome, RunCfg};
use ekbd_dining::DiningObs;
use ekbd_graph::partition::{greedy_edge_cut, Partition};
use ekbd_graph::{coloring, random, topology, ConflictGraph, ProcessId};
use ekbd_harness::{Scenario, Workload, AUDIT_PERIOD};
use ekbd_sim::{run_sharded, LatencyHistogram, PackedKernel, ScaleConfig, Time};
use std::time::Instant;

/// §7: at most four messages in flight per channel.
const CHANNEL_BOUND: usize = 4;

const GRID: usize = 16;
const CRASHES: usize = 4;

/// grid-16×16, adversarial oracle, 100 sessions per process and four
/// crashes at seeded victims; with `recover`, each crash is followed by a
/// restart that resumes from the in-memory journal.
fn scenario(seed: u64, recover: bool) -> Scenario {
    let n = GRID * GRID;
    let mut s = Scenario::new(topology::grid(GRID, GRID))
        .seed(seed)
        .adversarial_oracle(Time(3_000), 40)
        .workload(Workload {
            sessions: 100,
            think: (1, 30),
            eat: (1, 8),
        })
        .journal(recover)
        // Every session ends by tick ~8 000; a longer horizon only adds
        // idle audit rounds.
        .horizon(Time(20_000));
    let mut victims: Vec<usize> = Vec::with_capacity(CRASHES);
    let mut state = mix(seed, 0xc4a5);
    while victims.len() < CRASHES {
        state = mix(state, victims.len() as u64);
        let v = (state % n as u64) as usize;
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    for (i, &v) in victims.iter().enumerate() {
        let crash = 1_000 + 600 * i as u64;
        s = s.crash(ProcessId::from(v), Time(crash));
        if recover {
            s = s.recover(ProcessId::from(v), Time(crash + 1_500));
        }
    }
    s
}

/// Scenario workers running side by side, one per core of the 2-vCPU
/// host the benchmark was tuned on: a single thread's speed there follows
/// whichever core it lands on, while two threads see both cores.
pub const SIM_WORKERS: usize = 2;

/// One worker's tally over its scenario runs.
struct SimTally {
    runs: u64,
    eats: u64,
    starving: u64,
    events: u64,
    messages: u64,
    suspicions: u64,
    /// Wall time inside the engine, and the virtual ticks it covered.
    wall_s: f64,
    ticks: u64,
    /// Hungry → eat waits in ticks spanned.
    waits: LatencyHistogram,
    /// Wall time of each scenario build, in seconds.
    builds_s: Vec<f64>,
    readmit_ticks: Vec<f64>,
    wait_free: bool,
    wx_ok: bool,
    high_water: usize,
}

impl SimTally {
    fn new() -> Self {
        SimTally {
            runs: 0,
            eats: 0,
            starving: 0,
            events: 0,
            messages: 0,
            suspicions: 0,
            wall_s: 0.0,
            ticks: 0,
            waits: LatencyHistogram::new(),
            builds_s: Vec::new(),
            readmit_ticks: Vec::new(),
            wait_free: true,
            wx_ok: true,
            high_water: 0,
        }
    }

    fn absorb(&mut self, o: SimTally) {
        self.runs += o.runs;
        self.eats += o.eats;
        self.starving += o.starving;
        self.events += o.events;
        self.messages += o.messages;
        self.suspicions += o.suspicions;
        self.wall_s += o.wall_s;
        self.ticks += o.ticks;
        self.waits.merge(&o.waits);
        self.builds_s.extend(o.builds_s);
        self.readmit_ticks.extend(o.readmit_ticks);
        self.wait_free &= o.wait_free;
        self.wx_ok &= o.wx_ok;
        self.high_water = self.high_water.max(o.high_water);
    }

    /// Builds and runs one scenario and folds its report in.
    fn run(&mut self, seed: u64, recover: bool, tr: &mut Tracer) {
        let t = Instant::now();
        let s = tr.span("sim.scenario_build", || scenario(seed, recover));
        self.builds_s.push(t.elapsed().as_secs_f64());
        let last_fault = s
            .crashes
            .iter()
            .chain(s.recoveries().iter())
            .map(|&(_, t)| t)
            .max()
            .unwrap_or(Time(0));
        let t = Instant::now();
        let report = if recover {
            tr.span("sim.run_recoverable", || s.run_recoverable())
        } else {
            tr.span("sim.run_algorithm1", || s.run_algorithm1())
        };
        self.wall_s += t.elapsed().as_secs_f64();
        self.runs += 1;
        let starving = report.progress().starving().len() as u64;
        self.eats += report.total_eat_sessions() as u64;
        self.starving += starving;
        self.events += report.events_processed;
        self.messages += report.total_messages;
        self.suspicions += report.suspicions.len() as u64;
        // Theorem 1 (◇WX): no mistake once the detector has converged
        // and the last fault has had ten audit periods to be repaired.
        let stable = report
            .detector_convergence()
            .max(Time(last_fault.0 + 10 * AUDIT_PERIOD));
        self.wx_ok &= report.exclusion().after(stable) == 0;
        self.wait_free &= starving == 0;
        self.high_water = self.high_water.max(report.max_channel_high_water);
        self.ticks += report.events.last().map_or(1, |e| e.time.0.max(1));
        let mut hungry_at = vec![None; report.graph.len()];
        for e in &report.events {
            match e.obs {
                DiningObs::BecameHungry => hungry_at[e.process.index()] = Some(e.time.0),
                DiningObs::StartedEating => {
                    if let Some(h) = hungry_at[e.process.index()].take() {
                        self.waits.record(e.time.0 - h + 1);
                    }
                }
                _ => {}
            }
        }
        self.readmit_ticks.extend(
            report
                .readmissions()
                .iter()
                .filter_map(|r| r.time_to_readmission())
                .map(|t| t as f64),
        );
    }
}

/// Crash-stop Algorithm 1: the paper's own setting.
pub fn sim_crash(rc: &RunCfg, tr: &mut Tracer) -> Result<Outcome, String> {
    run_sim(rc, tr, false)
}

/// Crash-recovery Algorithm 1 with the in-memory journal.
pub fn sim_recovery(rc: &RunCfg, tr: &mut Tracer) -> Result<Outcome, String> {
    run_sim(rc, tr, true)
}

fn run_sim(rc: &RunCfg, tr: &mut Tracer, recover: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Each worker builds and runs scenarios back to back for the window;
    // worker `w` takes the scenario seeds `w`, `w + SIM_WORKERS`, ...
    // Every build is a set-up, so the set-ups are spread over the window
    // and both workers, and `setup_s` is their median.
    let start = Instant::now();
    let epoch = tr.epoch();
    let tallies: Vec<(SimTally, Tracer)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..SIM_WORKERS)
            .map(|w| {
                sc.spawn(move || {
                    let mut t = Tracer::new(rc.trace, epoch, 1 + w as u32);
                    let mut tally = SimTally::new();
                    while tally.runs == 0 || start.elapsed() < rc.window {
                        let i = tally.runs * SIM_WORKERS as u64 + w as u64;
                        tally.run(mix(rc.seed, 1_000 + i), recover, &mut t);
                    }
                    (tally, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scenario worker panicked"))
            .collect()
    });
    let mut all = SimTally::new();
    for (tally, t) in tallies {
        all.absorb(tally);
        tr.merge(t);
    }
    out.metric("setup_s", median_of(&all.builds_s), "s");
    out.metric("peak_rss_mib", host::peak_rss_mib(), "MiB");
    out.attempted = all.eats + all.starving;
    out.failed = all.starving;
    out.check("every run wait-free (Theorem 2)", all.wait_free);
    out.check(
        "no exclusion mistake after convergence (Theorem 1, ◇WX)",
        all.wx_ok,
    );
    out.check(
        format!(
            "no channel above {CHANNEL_BOUND} messages in transit (§7; high water {})",
            all.high_water
        ),
        all.high_water <= CHANNEL_BOUND,
    );
    if beyond(all.waits.count() as usize, 0.99) < MIN_BEYOND {
        return Err(format!("only {} waits; p99 needs 1000", all.waits.count()));
    }
    // Eats per second of engine time, and waits at the window's engine
    // time per tick, both pooled over every run of both workers.
    let eats_per_s = all.eats as f64 / all.wall_s;
    let us_per_tick = all.wall_s * 1e6 / all.ticks as f64;
    let spanned = |q: f64| all.waits.quantile(q) as f64 * us_per_tick;
    out.note(format!(
        "{} runs on {SIM_WORKERS} workers, {} eats in {:.2} s of engine time ({eats_per_s:.0}/s), \
         {} events, {:.2} µs per tick; grant p50 {} ticks, p99 {} ticks over {} waits",
        all.runs,
        all.eats,
        all.wall_s,
        all.events,
        us_per_tick,
        all.waits.quantile(0.5),
        all.waits.quantile(0.99),
        all.waits.count()
    ));
    out.metric("eats_per_s", eats_per_s, "1/s");
    out.metric("grant_p50_us", spanned(0.5), "us");
    out.metric("grant_p99_us", spanned(0.99), "us");
    if rc.trace {
        out.metric("sim.events_per_s", all.events as f64 / all.wall_s, "1/s");
        out.metric(
            "sim.events_per_eat",
            all.events as f64 / all.eats.max(1) as f64,
            "count",
        );
        out.metric("sim.channel_high_water", all.high_water as f64, "count");
        out.metric(
            "core.messages_per_eat",
            all.messages as f64 / all.eats.max(1) as f64,
            "count",
        );
        out.metric(
            "detector.suspicions",
            all.suspicions as f64 / all.runs as f64,
            "count",
        );
        if recover {
            out.metric(
                "sim.readmit_p50_ticks",
                median_of(&all.readmit_ticks),
                "ticks",
            );
        }
    }
    Ok(out)
}

const KERNEL_N: usize = 100_000;
const SHARDS: usize = 2;
/// One fixed graph (E19's): per-seed graphs differ in work per eat by
/// more than the bounds allow; the seed varies the kernel's dynamics.
const GRAPH_SEED: u64 = 1;

/// E19's configuration: three sessions per process, so the kernel's
/// re-hunger after each eat (think, then contend again) is measured, not
/// only the cold-start wave.
fn kernel_cfg(seed: u64) -> ScaleConfig {
    ScaleConfig::default().seed(seed)
}

/// Graph, coloring, partition and kernel: one set-up, with each step's
/// time in seconds.
struct KernelSetup {
    graph: ConflictGraph,
    part: Partition,
    kernel: PackedKernel,
    /// Build, color, partition, pack.
    steps_s: [f64; 4],
}

fn kernel_setup(seed: u64, tr: &mut Tracer) -> KernelSetup {
    let t0 = Instant::now();
    let graph = tr.span("graph.build", || random::powerlaw(KERNEL_N, 3, GRAPH_SEED));
    let t1 = Instant::now();
    let colors = tr.span("graph.color", || coloring::greedy(&graph));
    let t2 = Instant::now();
    let part = tr.span("graph.partition", || greedy_edge_cut(&graph, SHARDS));
    let t3 = Instant::now();
    let kernel = tr.span("sim.packed_build", || {
        PackedKernel::new(&graph, &colors, &part, kernel_cfg(seed))
    });
    let t4 = Instant::now();
    let steps_s = [t1 - t0, t2 - t1, t3 - t2, t4 - t3].map(|d| d.as_secs_f64());
    KernelSetup {
        graph,
        part,
        kernel,
        steps_s,
    }
}

/// Every kernel run is set up from scratch, so the set-ups are spread over
/// the window like the runs, and `setup_s` is their median.
pub fn kernel_scale(rc: &RunCfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut steps: [Vec<f64>; 4] = Default::default();
    let mut setup = Vec::new();
    let (mut state_bytes, mut cut_edges) = (0, 0);
    let start = Instant::now();
    let (mut wall_s, mut eats, mut events, mut runs, mut ticks) = (0.0, 0u64, 0u64, 0u64, 0u64);
    let mut waits = LatencyHistogram::new();
    let (mut verdict, mut starving) = (true, 0u64);
    while runs == 0 || start.elapsed() < rc.window {
        let su = kernel_setup(mix(rc.seed, runs), tr);
        setup.push(su.steps_s.iter().sum());
        for (all, s) in steps.iter_mut().zip(su.steps_s) {
            all.push(s);
        }
        if runs == 0 {
            state_bytes = su.kernel.state_bytes();
            cut_edges = su.part.cut_edges(&su.graph);
        }
        // The run consumes the kernel; the graph goes first, so peak
        // RSS never holds two set-ups.
        let k = su.kernel;
        drop((su.graph, su.part));
        let t = Instant::now();
        let report = tr.span("sim.run_sharded", || run_sharded(k));
        wall_s += t.elapsed().as_secs_f64();
        runs += 1;
        verdict &= report.verdict();
        starving += report.starving;
        let run_eats = report.eats.iter().map(|&e| u64::from(e)).sum::<u64>();
        eats += run_eats;
        out.attempted += run_eats + report.starving;
        out.failed += report.starving;
        events += report.events;
        ticks += report.final_tick.max(1);
        waits.merge(&report.latency);
    }
    out.metric("setup_s", median_of(&setup), "s");
    out.metric("peak_rss_mib", host::peak_rss_mib(), "MiB");
    out.check("scale verdict (zero mistakes, everyone ate)", verdict);
    out.check("no process left starving", starving == 0);
    if beyond(waits.count() as usize, 0.99) < MIN_BEYOND {
        return Err(format!("only {} waits; p99 needs 1000", waits.count()));
    }
    // Pooled over the window's runs, like the simulator's figures; the
    // kernel records waits in ticks elapsed, so a wait spans one more.
    let eats_per_s = eats as f64 / wall_s;
    let us_per_tick = wall_s * 1e6 / ticks as f64;
    let spanned = |q: f64| (waits.quantile(q) + 1) as f64 * us_per_tick;
    out.note(format!(
        "{runs} runs of n={KERNEL_N} on {SHARDS} shards, {eats} eats in {wall_s:.2} s \
         ({eats_per_s:.0}/s), {events} events, {us_per_tick:.2} µs per tick"
    ));
    out.metric("eats_per_s", eats_per_s, "1/s");
    out.metric("grant_p50_us", spanned(0.5), "us");
    out.metric("grant_p99_us", spanned(0.99), "us");
    if rc.trace {
        out.metric("sim.events_per_s", events as f64 / wall_s, "1/s");
        out.metric(
            "sim.events_per_eat",
            events as f64 / eats.max(1) as f64,
            "count",
        );
        let [build_s, color_s, part_s, packed_s] = steps.map(|v| median_of(&v));
        out.metric("graph.build_s", build_s, "s");
        out.metric("graph.color_s", color_s, "s");
        out.metric("graph.partition_s", part_s, "s");
        out.metric("sim.packed_build_s", packed_s, "s");
        out.metric("graph.cut_edges", cut_edges as f64, "count");
        out.metric(
            "sim.packed_state_bytes_per_process",
            state_bytes as f64 / KERNEL_N as f64,
            "B",
        );
    }
    Ok(out)
}
