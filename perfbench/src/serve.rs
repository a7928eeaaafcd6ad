//! The served workloads: a closed-loop load generator multiplexing dining
//! processes over [`MuxClient`] connections to a [`DaemonServer`], one
//! thread per connection and at most two of each.
//!
//! A cycle is hungry → granted → released. Grant latency is timed per
//! cycle from the moment `Hungry` has been written to the moment the
//! matching `Granted` is decoded, so it excludes the eat interval that
//! the older E20/E21 "latency" figures (hungry → *released*) include.

use crate::stats::{median_of, sorted, tail};
use crate::trace::Tracer;
use crate::{host, mix, Outcome, RunCfg, SETUPS};
use ekbd_dining::DiningObs;
use ekbd_graph::{topology, ConflictGraph};
use ekbd_journal::{replay, FileJournal, JournalStore};
use ekbd_metrics::{ExclusionReport, SchedEvent};
use ekbd_net::wire::{decode_frame, encode_frame};
use ekbd_net::{
    AdmitPath, BackendSpec, ClientConfig, ClientError, DaemonServer, Frame, MuxClient, MuxEvent,
    ServerAddr, ServerConfig, ServerRun,
};
use ekbd_runtime::RuntimeConfig;
use ekbd_sim::Time;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Shape of one served workload.
/// Connections, one load thread each: the host's two cores.
pub const CONNS: usize = 2;

/// Load before the measured window starts.
const WARMUP: Duration = Duration::from_secs(1);

/// A cycle not granted this long after its `Hungry` has failed.
const GRANT_DEADLINE: Duration = Duration::from_secs(8);

/// The conflict graph is a ring of `CONNS × per_conn` processes.
struct Shape {
    backend: BackendSpec,
    per_conn: usize,
    think: Duration,
    /// The threaded runtime's eat interval; the scale kernel's eats are
    /// virtual.
    eat_ms: u64,
    journal: bool,
    /// Hard-kill and reconnect a connection after this many of its own
    /// completed cycles.
    kill_every: Option<u64>,
    /// `peak_rss_mib` is read once the server has released this many
    /// cycles, warm-up included: the server keeps its whole schedule
    /// trace, so memory read after a fixed time would grow with
    /// throughput.
    rss_at_cycles: u64,
}

/// ring-512 on the packed scale kernel, 2 × 256 processes, think 0.
pub fn serve_scale(rc: &RunCfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let shape = Shape {
        backend: BackendSpec::Scale { seed: rc.seed },
        per_conn: 256,
        think: Duration::ZERO,
        eat_ms: 0,
        journal: false,
        kill_every: None,
        rss_at_cycles: 300_000,
    };
    run(&shape, rc, tr)
}

/// ring-32 on the threaded runtime, 2 × 16 processes, think 0, eat 1 ms,
/// no journal and no kills.
pub fn serve_threaded(rc: &RunCfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let shape = Shape {
        backend: BackendSpec::Threaded,
        per_conn: 16,
        think: Duration::ZERO,
        eat_ms: 1,
        journal: false,
        kill_every: None,
        rss_at_cycles: 10_000,
    };
    run(&shape, rc, tr)
}

/// ring-32 on the threaded runtime with a file journal, 2 × 16
/// processes, think 2 ms, eat 5 ms, periodic hard kills.
pub fn serve_journal_churn(rc: &RunCfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let shape = Shape {
        backend: BackendSpec::Threaded,
        per_conn: 16,
        think: Duration::from_millis(2),
        eat_ms: 5,
        journal: true,
        kill_every: Some(100),
        rss_at_cycles: 200,
    };
    run(&shape, rc, tr)
}

fn client_cfg(seed: u64, conn: usize) -> ClientConfig {
    ClientConfig {
        seed: mix(seed, conn as u64),
        // Wake often enough that a philosopher whose think time ended
        // goes hungry promptly even when no frame arrives.
        read_timeout_ms: 1,
        ..ClientConfig::default()
    }
}

/// One connection's tally over a run.
#[derive(Default)]
struct ConnStats {
    /// Grants and releases inside the window, by slice.
    slices: Vec<Slice>,
    /// Cycles that missed the grant deadline inside the window.
    failed: u64,
    /// Cycles in flight when the benchmark's own kill hit.
    cut_by_kill: u64,
    readmit_ms: Vec<f64>,
    readmit_paths: Vec<AdmitPath>,
    /// Per-call `hungry` cost (µs), traced runs only.
    send_us: Vec<f64>,
    /// Time spent inside `next_event` and in the whole load loop.
    wait_ns: u64,
    loop_ns: u64,
    error: Option<String>,
}

#[derive(Clone, Copy)]
enum Slot {
    Thinking,
    Hungry { sent: Instant, missed: bool },
    Eating { missed: bool },
}

/// The measured window is cut into slices of this length; throughput and
/// grant p50 are medians over slices, so a short stall of the host moves
/// one slice, not the figure.
const SLICE: Duration = Duration::from_secs(1);

/// One slice's tally.
#[derive(Clone, Default)]
struct Slice {
    /// Cycles released in the slice.
    completed: u64,
    /// Grant latencies (µs) of cycles sent in the window and granted in
    /// the slice.
    grant_us: Vec<f64>,
}

/// The measured window, shared by every connection thread.
#[derive(Clone, Copy)]
struct Window {
    from: Instant,
    to: Instant,
}

impl Window {
    fn holds(&self, t: Instant) -> bool {
        t >= self.from && t < self.to
    }

    fn slices(&self) -> usize {
        (self.to - self.from).div_duration_f64(SLICE).ceil() as usize
    }

    /// The slice `t` falls in, if it is inside the window.
    fn slice(&self, t: Instant) -> Option<usize> {
        self.holds(t)
            .then(|| ((t - self.from).div_duration_f64(SLICE) as usize).min(self.slices() - 1))
    }
}

/// Reads `peak_rss_mib` when the fleet's released cycles reach a fixed
/// count, from whichever load thread releases that cycle.
struct RssProbe {
    released: AtomicU64,
    at: u64,
    mib: OnceLock<f64>,
}

impl RssProbe {
    fn new(at: u64) -> Self {
        RssProbe {
            released: AtomicU64::new(0),
            at,
            mib: OnceLock::new(),
        }
    }

    fn released(&self) {
        if self.released.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let _ = self.mib.set(host::peak_rss_mib());
        }
    }
}

fn span_err<T>(
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> Result<T, ClientError>,
) -> Result<T, String> {
    tr.span(name, f).map_err(|e| format!("{name}: {e}"))
}

/// Drives connection `conn`'s block of processes in a closed loop until
/// the window ends, then drains the cycles still in flight.
fn drive(
    client: &mut MuxClient,
    conn: usize,
    shape: &Shape,
    seed: u64,
    window: Window,
    rss: &RssProbe,
    tr: &mut Tracer,
) -> ConnStats {
    let base = (conn * shape.per_conn) as u32;
    let order = order(seed, conn, shape.per_conn);
    let first_kill = shape.kill_every.map_or(u64::MAX, |k| {
        k / 2 + mix(seed, 0xc111 + conn as u64) % (k / 2).max(1)
    });
    // Sample buffers are reserved up front so they grow page by page
    // instead of by doubling copies, which would make peak RSS jump.
    let slice = Slice {
        completed: 0,
        grant_us: Vec::with_capacity(1 << 17),
    };
    let mut st = ConnStats {
        slices: vec![slice; window.slices()],
        ..ConnStats::default()
    };
    let k = shape.per_conn;
    let mut slots = vec![Slot::Thinking; k];
    let start = Instant::now();
    // Processes due to go hungry; think time is constant, so due times
    // are pushed in order.
    let mut ready: VecDeque<(Instant, usize)> = order.iter().map(|&j| (start, j)).collect();
    let mut since_kill = 0u64;
    let mut next_kill = first_kill;
    let drain_until = window.to + GRANT_DEADLINE;
    let mut next_scan = start;
    const TICK: Duration = Duration::from_millis(5);
    tr.begin("bench.load");
    let result = (|| -> Result<(), String> {
        loop {
            let now = Instant::now();
            let open = now < window.to;
            if shape.kill_every.is_some() && open && since_kill >= next_kill {
                // Hard kill: every process bound here crashes; one
                // reconnect must readmit the whole block.
                tr.begin("client.reconnect");
                let t0 = Instant::now();
                client.kill();
                let paths = client.reconnect();
                st.readmit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                tr.end();
                let paths = paths.map_err(|e| format!("reconnect: {e}"))?;
                if paths.len() != k {
                    return Err(format!(
                        "reconnect rebound {} of {k} processes",
                        paths.len()
                    ));
                }
                st.readmit_paths.extend(paths.iter().map(|&(_, p)| p));
                let now = Instant::now();
                ready.clear();
                for &j in &order {
                    if !matches!(slots[j], Slot::Thinking) {
                        st.cut_by_kill += 1;
                    }
                    slots[j] = Slot::Thinking;
                    ready.push_back((now, j));
                }
                since_kill = 0;
                next_kill = shape.kill_every.unwrap_or(u64::MAX);
            }
            if open {
                while let Some(&(at, j)) = ready.front() {
                    if at > now {
                        break;
                    }
                    ready.pop_front();
                    let p = base + j as u32;
                    let t0 = Instant::now();
                    tr.begin("client.hungry");
                    let sent = client.hungry(p);
                    tr.end_req(u64::from(p));
                    sent.map_err(|e| format!("hungry p{p}: {e}"))?;
                    let sent = Instant::now();
                    if tr.enabled() {
                        st.send_us.push((sent - t0).as_secs_f64() * 1e6);
                    }
                    slots[j] = Slot::Hungry {
                        sent,
                        missed: false,
                    };
                }
            } else if slots.iter().all(|s| matches!(s, Slot::Thinking)) {
                return Ok(());
            } else if now >= drain_until {
                // Cycles still open a deadline after the window never
                // finished: each fails once.
                st.failed += slots
                    .iter()
                    .filter(|s| {
                        matches!(
                            s,
                            Slot::Hungry { missed: false, .. } | Slot::Eating { missed: false }
                        )
                    })
                    .count() as u64;
                return Ok(());
            }
            if now >= next_scan {
                next_scan = now + TICK;
                for (j, s) in slots.iter_mut().enumerate() {
                    if let Slot::Hungry { sent, missed } = s {
                        if now.duration_since(*sent) > GRANT_DEADLINE {
                            // A missed deadline fails the cycle; re-asking
                            // is idempotent and keeps the loop closed.
                            if window.holds(*sent) && !*missed {
                                st.failed += 1;
                            }
                            *missed = true;
                            client
                                .hungry(base + j as u32)
                                .map_err(|e| format!("re-hungry: {e}"))?;
                            *sent = Instant::now();
                        }
                    }
                }
            }
            let timeout = ready
                .front()
                .filter(|_| open)
                .map_or(TICK, |&(at, _)| at.saturating_duration_since(now).min(TICK));
            let w0 = Instant::now();
            tr.begin("client.next_event");
            let event = client.next_event(timeout);
            let req = match event {
                Ok(MuxEvent::Granted { process, .. } | MuxEvent::Released { process, .. }) => {
                    u64::from(process)
                }
                Err(_) => 0,
            };
            tr.end_req(req);
            let t = Instant::now();
            st.wait_ns += (t - w0).as_nanos() as u64;
            match event {
                Ok(MuxEvent::Granted { process, .. }) => {
                    let j = process.wrapping_sub(base) as usize;
                    if let Some(Slot::Hungry { sent, missed }) = slots.get(j).copied() {
                        if let (true, Some(i), false) =
                            (window.holds(sent), window.slice(t), missed)
                        {
                            st.slices[i].grant_us.push((t - sent).as_secs_f64() * 1e6);
                        }
                        slots[j] = Slot::Eating { missed };
                    }
                }
                Ok(MuxEvent::Released { process, .. }) => {
                    let j = process.wrapping_sub(base) as usize;
                    if let Some(Slot::Eating { missed }) = slots.get(j).copied() {
                        slots[j] = Slot::Thinking;
                        since_kill += 1;
                        rss.released();
                        if let (Some(i), false) = (window.slice(t), missed) {
                            st.slices[i].completed += 1;
                        }
                        if t < window.to {
                            ready.push_back((t + shape.think, j));
                        }
                    }
                }
                Err(ClientError::Timeout) => {}
                Err(e) => return Err(format!("next_event: {e}")),
            }
        }
    })();
    tr.end();
    st.loop_ns = start.elapsed().as_nanos() as u64;
    st.error = result.err();
    st
}

/// A started server with its bound connections.
struct Fleet {
    server: DaemonServer,
    clients: Vec<MuxClient>,
    journal_dir: Option<PathBuf>,
}

/// Starts the server and binds every process; returns the fleet and the
/// per-call connect/bind latencies (µs).
fn set_up(
    shape: &Shape,
    rc: &RunCfg,
    attempt: usize,
    tr: &mut Tracer,
) -> Result<(Fleet, Vec<f64>), String> {
    let journal_dir = if shape.journal {
        let dir = rc.work_dir.join(format!("journal-{attempt}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Some(dir)
    } else {
        None
    };
    let n = CONNS * shape.per_conn;
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            eat_ms: shape.eat_ms,
            journal_dir: journal_dir.clone(),
            ..RuntimeConfig::default()
        },
        backend: shape.backend.clone(),
        max_sessions: n,
        // Room for a grant and a release per bound process, twice over.
        send_queue: 4 * shape.per_conn.max(16),
        // One reactor: with the two load threads and the backend's own
        // thread the busy threads stay near the host's two cores.
        reactor_threads: 1,
        ..ServerConfig::default()
    };
    let server = tr
        .span("server.start", || {
            DaemonServer::start(
                topology::ring(n),
                &ServerAddr::Tcp("127.0.0.1:0".into()),
                cfg,
            )
        })
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().clone();
    let mut bind_us = Vec::with_capacity(n);
    let mut clients = Vec::with_capacity(CONNS);
    for c in 0..CONNS {
        let base = (c * shape.per_conn) as u32;
        let t = Instant::now();
        let mut client = span_err(tr, "client.connect", || {
            MuxClient::connect(&addr, base, client_cfg(rc.seed, c))
        })?;
        bind_us.push(t.elapsed().as_secs_f64() * 1e6);
        for j in 1..shape.per_conn {
            let t = Instant::now();
            let path = span_err(tr, "client.bind", || client.bind(base + j as u32))?;
            bind_us.push(t.elapsed().as_secs_f64() * 1e6);
            if path != AdmitPath::Fresh {
                return Err(format!(
                    "first bind of p{} took path {path:?}",
                    base + j as u32
                ));
            }
        }
        clients.push(client);
    }
    Ok((
        Fleet {
            server,
            clients,
            journal_dir,
        },
        bind_us,
    ))
}

fn tear_down(fleet: Fleet, tr: &mut Tracer) -> ServerRun {
    for c in fleet.clients {
        c.bye();
    }
    tr.span("server.shutdown", || fleet.server.shutdown())
}

/// Seeded permutation of `0..k`: the order a block first goes hungry.
fn order(seed: u64, conn: usize, k: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..k).collect();
    let mut state = mix(seed, 0x5e7 + conn as u64);
    for i in (1..k).rev() {
        state = mix(state, i as u64);
        v.swap(i, (state % (i as u64 + 1)) as usize);
    }
    v
}

fn run(shape: &Shape, rc: &RunCfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let n = CONNS * shape.per_conn;
    let graph = topology::ring(n);

    // Set-up, repeated; the last fleet serves the load.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bind_us = Vec::new();
    let mut fleet = None;
    for attempt in 0..SETUPS {
        tr.begin("bench.setup");
        let t = Instant::now();
        let built = set_up(shape, rc, attempt, tr);
        setup_s.push(t.elapsed().as_secs_f64());
        tr.end();
        let (f, binds) = built?;
        bind_us.extend(binds);
        if attempt + 1 < SETUPS {
            let dir = f.journal_dir.clone();
            tear_down(f, tr);
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        } else {
            fleet = Some(f);
        }
    }
    let mut fleet = fleet.expect("SETUPS ≥ 1");
    out.metric("setup_s", median_of(&setup_s), "s");

    // Load: one thread per connection.
    let start = Instant::now();
    let window = Window {
        from: start + WARMUP,
        to: start + WARMUP + rc.window,
    };
    // Threads share the main tracer's epoch so their spans line up.
    let epoch = tr.epoch();
    let rss = RssProbe::new(shape.rss_at_cycles);
    let rss = &rss;
    let results: Vec<(ConnStats, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = fleet
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut t = Tracer::new(rc.trace, epoch, 1 + c as u32);
                    let st = drive(client, c, shape, rc.seed, window, rss, &mut t);
                    (st, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let journal_dir = fleet.journal_dir.clone();
    let run = tear_down(fleet, tr);
    let rss_mib = match rss.mib.get() {
        Some(&mib) => mib,
        None => {
            out.note(format!(
                "only {} cycles released, fewer than the {} peak_rss_mib is read at: read at the end",
                rss.released.load(Ordering::Relaxed),
                rss.at
            ));
            host::peak_rss_mib()
        }
    };
    out.metric("peak_rss_mib", rss_mib, "MiB");

    let mut slices = vec![Slice::default(); window.slices()];
    let (mut failed, mut cut) = (0, 0);
    let (mut readmit_ms, mut paths, mut send_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wait_ns, mut loop_ns) = (0u64, 0u64);
    for (c, (st, t)) in results.into_iter().enumerate() {
        if let Some(e) = &st.error {
            return Err(format!("connection {c}: {e}"));
        }
        for (all, mine) in slices.iter_mut().zip(st.slices) {
            all.completed += mine.completed;
            all.grant_us.extend(mine.grant_us);
        }
        failed += st.failed;
        cut += st.cut_by_kill;
        readmit_ms.extend(st.readmit_ms);
        paths.extend(st.readmit_paths);
        send_us.extend(st.send_us);
        wait_ns += st.wait_ns;
        loop_ns += st.loop_ns;
        tr.merge(t);
    }
    let window_s = rc.window.as_secs_f64();
    let completed: u64 = slices.iter().map(|s| s.completed).sum();
    out.attempted = completed + failed;
    out.failed = failed;
    let slice_s = SLICE.as_secs_f64();
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| s.completed as f64 / slice_s)
        .collect();
    let p50s: Vec<f64> = slices
        .iter()
        .filter(|s| !s.grant_us.is_empty())
        .map(|s| median_of(&s.grant_us))
        .collect();
    let eats_per_s = median_of(&rates);
    let grant_p50 = median_of(&p50s);
    // The tail is a median over slices too when every slice holds enough
    // samples beyond its p99; otherwise it is taken over the whole window.
    let p99s: Result<Vec<f64>, String> = slices
        .iter()
        .map(|s| tail(&sorted(s.grant_us.clone()), 0.99))
        .collect();
    let grant_us = sorted(slices.into_iter().flat_map(|s| s.grant_us).collect());
    let grant_p99 = p99s
        .map(|v| median_of(&v))
        .or_else(|_| tail(&grant_us, 0.99));
    out.note(format!(
        "{completed} cycles in {window_s:.1} s (median slice {eats_per_s:.0}/s), median slice grant \
         p50 {grant_p50:.0} µs over {} samples; {failed} missed the deadline, {cut} cut by kills",
        grant_us.len()
    ));
    out.metric("eats_per_s", eats_per_s, "1/s");
    out.metric("grant_p50_us", grant_p50, "us");
    match grant_p99 {
        Ok(p99) => {
            out.note(format!("grant p99 {p99:.0} µs"));
            out.metric("grant_p99_us", p99, "us");
        }
        // The traced copy is informational; the gated figure is not.
        Err(e) if rc.trace => out.note(format!("grant {e}")),
        Err(e) => return Err(format!("grant {e} ({})", out.notes.join("; "))),
    }

    out.check("no cycle missed its grant deadline", failed == 0);
    let stats = run.stats;
    out.check(
        "server shed and dropped nothing",
        stats.shed_busy
            + stats.shed_slow
            + stats.heartbeat_drops
            + stats.protocol_errors
            + stats.handshake_timeouts
            == 0,
    );
    let server_cycles = run
        .events
        .iter()
        .filter(|e| e.obs == DiningObs::StoppedEating)
        .count() as f64;
    let mut mistakes_before_last_kill = 0.0;
    match &run.scale {
        Some(scale) => {
            out.check(
                "scale kernel reports zero exclusion mistakes",
                scale.mistakes == 0,
            );
            let eats: u64 = scale.eats.iter().map(|&e| u64::from(e)).sum();
            if rc.trace {
                out.metric(
                    "sim.scale_events_per_cycle",
                    scale.events as f64 / eats.max(1) as f64,
                    "count",
                );
            }
        }
        None if shape.kill_every.is_none() => {
            let (total, _) = exclusion(&graph, &run);
            out.check("zero exclusion mistakes", total == 0);
        }
        None => {
            let kills = readmit_ms.len();
            out.check(
                "every readmission resumed or rejoined, never fresh",
                paths.len() == kills * shape.per_conn
                    && paths.iter().all(|&p| p != AdmitPath::Fresh)
                    && stats.resumed + stats.rejoined == paths.len() as u64,
            );
            let (total, after) = exclusion(&graph, &run);
            mistakes_before_last_kill = (total - after) as f64;
            out.check("zero exclusion mistakes after the last kill", after == 0);
            out.note(format!(
                "{kills} kills, readmission p50 {:.1} ms; server {} resumed / {} rejoined; \
                 {total} exclusion mistakes, {after} after the last kill",
                median_of(&readmit_ms),
                stats.resumed,
                stats.rejoined
            ));
        }
    }
    if !rc.trace {
        return Ok(out);
    }

    // Per-layer figures.
    out.metric("client.grant_samples", grant_us.len() as f64, "count");
    out.metric("client.send_us", median_of(&send_us), "us");
    out.metric(
        "client.wait_frac",
        wait_ns as f64 / loop_ns.max(1) as f64,
        "ratio",
    );
    out.metric("client.bind_us", median_of(&bind_us), "us");
    out.metric("client.kill_cut_cycles", cut as f64, "count");
    out.metric("client.readmit_p50_ms", median_of(&readmit_ms), "ms");
    out.metric(
        "client.failed_frac",
        failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    wire_replay(n as u32, tr, &mut out);
    out.metric("server.shed_busy", stats.shed_busy as f64, "count");
    out.metric("server.shed_slow", stats.shed_slow as f64, "count");
    out.metric(
        "server.heartbeat_drops",
        stats.heartbeat_drops as f64,
        "count",
    );
    out.metric(
        "server.protocol_errors",
        stats.protocol_errors as f64,
        "count",
    );
    out.metric(
        "server.handshake_timeouts",
        stats.handshake_timeouts as f64,
        "count",
    );
    let stages = stages(&run.events);
    // The scale kernel's hungry→eat wait is virtual and served within one
    // driver step, so on that backend the whole grant is network time.
    let server_h2e_ms = if run.scale.is_some() {
        0.0
    } else {
        stages.hungry_to_eat_ms
    };
    if run.scale.is_none() {
        out.metric(
            "runtime.hungry_to_doorway_ms",
            stages.hungry_to_doorway_ms,
            "ms",
        );
        out.metric("runtime.doorway_to_eat_ms", stages.doorway_to_eat_ms, "ms");
        out.metric("runtime.hungry_to_eat_ms", stages.hungry_to_eat_ms, "ms");
        out.metric(
            "runtime.events_per_cycle",
            run.events.len() as f64 / server_cycles.max(1.0),
            "count",
        );
        out.metric(
            "core.mistakes_before_last_kill",
            mistakes_before_last_kill,
            "count",
        );
        out.metric(
            "journal.resumed_frac",
            stats.resumed as f64 / (stats.resumed + stats.rejoined).max(1) as f64,
            "ratio",
        );
    }
    // Stages are accounted against the pooled median, like the server's.
    let pooled_p50 = median_of(&grant_us);
    let residual_us = pooled_p50 - server_h2e_ms * 1e3;
    out.metric("client.grant_pooled_p50_us", pooled_p50, "us");
    out.metric("net.residual_us", residual_us, "us");
    out.note(format!(
        "pooled grant p50 {pooled_p50:.0} µs = server hungry→eat {:.0} µs \
         + network residual {residual_us:.0} µs",
        server_h2e_ms * 1e3
    ));
    if let Some(dir) = journal_dir {
        journal_layer(&dir, server_cycles, tr, &mut out)?;
    }
    Ok(out)
}

/// Exclusion mistakes in the server trace: total and after the last
/// restart the runtime performed.
fn exclusion(graph: &ConflictGraph, run: &ServerRun) -> (usize, usize) {
    let horizon = run.events.last().map_or(Time(0), |e| e.time);
    let report = ExclusionReport::analyze(graph, &run.events, &|_| None, horizon);
    let last_kill = run.restarts.iter().map(|r| r.at_ms).max().unwrap_or(0);
    (report.total(), report.after(Time(last_kill)))
}

/// Server-side stage medians from the runtime's trace (ms clock). The
/// doorway split reads 0 while the runtime records no `EnteredDoorway`.
struct Stages {
    hungry_to_doorway_ms: f64,
    doorway_to_eat_ms: f64,
    hungry_to_eat_ms: f64,
}

fn stages(events: &[SchedEvent]) -> Stages {
    let n = events
        .iter()
        .map(|e| e.process.index() + 1)
        .max()
        .unwrap_or(0);
    let mut hungry_at: Vec<Option<u64>> = vec![None; n];
    let mut door_at: Vec<Option<u64>> = vec![None; n];
    let (mut h2d, mut d2e, mut h2e) = (Vec::new(), Vec::new(), Vec::new());
    for e in events {
        let p = e.process.index();
        let t = e.time.0;
        match e.obs {
            DiningObs::BecameHungry => {
                hungry_at[p] = Some(t);
                door_at[p] = None;
            }
            DiningObs::EnteredDoorway => door_at[p] = Some(t),
            DiningObs::StartedEating => {
                if let Some(h) = hungry_at[p].take() {
                    h2e.push((t - h) as f64);
                    if let Some(d) = door_at[p].take() {
                        h2d.push((d - h) as f64);
                        d2e.push((t - d) as f64);
                    }
                }
            }
            DiningObs::StoppedEating | DiningObs::ExitedDoorway => {}
        }
    }
    Stages {
        hungry_to_doorway_ms: median_of(&h2d),
        doorway_to_eat_ms: median_of(&d2e),
        hungry_to_eat_ms: median_of(&h2e),
    }
}

/// Replays the served frame mix — `Hungry` in, `Granted` and `Released`
/// out per cycle — through the codec, timing each direction.
fn wire_replay(n: u32, tr: &mut Tracer, out: &mut Outcome) {
    const CYCLES: u32 = 100_000;
    let frames: Vec<Frame> = (0..CYCLES)
        .flat_map(|i| {
            let process = i % n;
            let at_ms = u64::from(i);
            [
                Frame::Hungry { process },
                Frame::Granted { process, at_ms },
                Frame::Released { process, at_ms },
            ]
        })
        .collect();
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> =
        tr.span("wire.encode", || frames.iter().map(encode_frame).collect());
    let encode_ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;
    let stream: Vec<u8> = encoded.concat();
    let t = Instant::now();
    let decoded = tr.span("wire.decode", || {
        let mut at = 0;
        let mut count = 0usize;
        while let Ok(Some((frame, used))) = decode_frame(&stream[at..]) {
            std::hint::black_box(frame);
            at += used;
            count += 1;
        }
        count
    });
    let decode_ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;
    assert_eq!(decoded, frames.len(), "codec round trip lost frames");
    out.metric("wire.encode_ns", encode_ns, "ns");
    out.metric("wire.decode_ns", decode_ns, "ns");
    out.metric(
        "wire.bytes_per_cycle",
        stream.len() as f64 / f64::from(CYCLES),
        "B",
    );
}

/// Journal figures for the directory the measured server wrote.
fn journal_layer(
    dir: &Path,
    cycles: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let replays = tr
        .span("journal.load_dir", || replay::load_dir(dir))
        .map_err(|e| format!("load_dir: {e}"))?;
    let commits: u64 = replays
        .iter()
        .map(|r| r.incarnations.iter().map(|i| i.last_seq).max().unwrap_or(0))
        .sum();
    out.metric(
        "journal.commits_per_cycle",
        commits as f64 / cycles.max(1.0),
        "count",
    );
    let mut records: Vec<Vec<u8>> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "ekj") {
            records.extend(FileJournal::new(path).dump());
        }
    }
    if records.is_empty() {
        return Err("the journal directory holds no records".into());
    }
    let bytes = records.iter().map(Vec::len).sum::<usize>() as f64 / records.len() as f64;
    out.metric("journal.record_bytes", bytes, "B");
    // Time the commit path on the retained records, in the same directory
    // (same filesystem) under a name replay does not read.
    const COMMITS: usize = 1_000;
    let mut journal = FileJournal::new(dir.join("commit-timing.bench"));
    let mut commit_us = Vec::with_capacity(COMMITS);
    for r in records.iter().cycle().take(COMMITS) {
        let t = Instant::now();
        tr.span("journal.commit", || journal.commit(r));
        commit_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let commit_us = sorted(commit_us);
    out.metric("journal.commit_us_p50", median_of(&commit_us), "us");
    out.metric("journal.commit_us_p99", tail(&commit_us, 0.99)?, "us");
    Ok(())
}
