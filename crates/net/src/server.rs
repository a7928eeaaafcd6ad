//! The daemon server: a dining backend exposed over TCP or Unix-domain
//! sockets, one session per dining process, many sessions per connection.
//!
//! # Threading model
//!
//! No async runtime — a small readiness-based reactor over the vendored
//! epoll shim ([`crate::poll`]):
//!
//! * an **acceptor** thread polls the (nonblocking) listener for
//!   readiness and hands accepted sockets to the reactors round-robin;
//! * **N reactor threads** ([`ServerConfig::reactor_threads`]) each own a
//!   slab of nonblocking connections. A reactor decodes inbound frames
//!   off per-connection read accumulators, runs admissions, and drains
//!   per-connection write buffers — there are
//!   no per-connection threads, no writer threads, and no bounded
//!   queues. Work is batched per turn: the `Hungry`s of one read reach
//!   the backend in one hand-off, and queued frames are written once per
//!   connection at the end of the turn. A connection whose socket has
//!   refused [`ServerConfig::send_queue`] frames after that write is a
//!   slow reader and is disconnected. Heartbeat strikes and silent-dialer
//!   deadlines are swept by the owning reactor between polls.
//!   Cross-thread work (event frames from the pump, admission
//!   completions) arrives on a command queue flushed by an eventfd
//!   wakeup;
//! * one **event pump** thread drains the backend's live event tap a
//!   batch at a time, translating `StartedEating` / `StoppedEating` into
//!   process-tagged `Granted` / `Released` frames — one sessions lock per
//!   batch, one byte buffer per connection, one post and one wakeup per
//!   reactor — and runs the detach-TTL reaper
//!   ([`ServerConfig::detach_ttl_ms`]).
//!
//! Blocking work never runs on a reactor: a readmission that must wait
//! for the runtime's recovery notice is parked on a short-lived admission
//! worker thread that posts its verdict back to the reactor's queue.
//!
//! # Multiplexed sessions
//!
//! There is one admission path: `Bind { process, session, token }`,
//! answered by `Bound { process, path, session, token }` or
//! `BindReject { process, code, retry_after_ms }`. Zero credentials ask
//! for a fresh session; the credentials of an earlier `Bound` readmit
//! that session. A connection may bind any number of processes this way —
//! the gateway/proxy shape, where one socket fronts a whole fleet of
//! dining processes — and event frames are process-tagged so the client
//! can demultiplex. An ungraceful disconnect crashes every process bound
//! on the connection; `Unbind` detaches one gracefully.
//!
//! # Fault-tolerant sessions
//!
//! A connection death is mapped onto the paper's crash-recovery fault
//! model: each bound process is crashed in the dining system, and its
//! session is kept *detached* server-side. A client reconnecting with
//! its session credentials revives the process, and the `Bound` tags
//! which recovery path the new incarnation took — the
//! journal fast-resume or the blank rejoin handshake — straight from the
//! runtime's [`RestartNotice`] stream. Detached sessions do not live
//! forever: after [`ServerConfig::detach_ttl_ms`] without a reconnect
//! the reaper deletes the slot, invalidating its credentials and
//! returning its admission capacity (the crash-stop case).
//!
//! # Backends
//!
//! [`BackendSpec::Threaded`] runs the full [`ThreadedDining`] runtime —
//! one OS thread per philosopher, journal recovery, the works.
//! [`BackendSpec::Scale`] fronts the bit-packed scale-tier kernel
//! ([`ekbd_sim::InteractiveScale`]) instead: a single driver thread
//! serves hunger injections for up to hundreds of thousands of
//! processes. The scale kernel is fault-free, so disconnects there
//! detach without crashing and every resume is trivial.
//!
//! # Overload shedding
//!
//! Admission is capped ([`ServerConfig::max_sessions`]): a `Bind` past
//! the cap is answered with `BindReject { code: REJECT_BUSY }` carrying a
//! retry hint, and nothing is allocated server-side. Established
//! sessions are never shed by
//! admission pressure — only by their own slow reading or heartbeat
//! silence.

use crate::conn::{splitmix64, Conn, Listener, ServerAddr};
use crate::poll::{Poller, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::{
    decode_frame, encode_frame_into, framed_len, AdmitPath, Frame, REJECT_ALREADY_BOUND,
    REJECT_BAD_PROCESS, REJECT_BUSY, REJECT_UNKNOWN_SESSION,
};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use ekbd_dining::{DiningObs, RecoveryMsg, RestartPath};
use ekbd_graph::{coloring, ConflictGraph, ProcessId};
use ekbd_metrics::{LinkSummary, SchedEvent};
use ekbd_runtime::{RestartNotice, RuntimeConfig, ThreadedDining};
use ekbd_sim::{InteractiveScale, ScaleConfig, ScaleRunReport, Time};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reserved poll token for a reactor's wakeup eventfd; connection tokens
/// are slab indices and can never reach it.
const WAKER_TOKEN: u64 = u64::MAX;

/// Most bytes one connection may read per reactor turn. A client writing
/// requests flat out would otherwise keep its reactor reading it alone
/// while every other connection waits. Epoll is level-triggered, so what
/// is left is reported again on the next turn. A closed-loop client with
/// a few hundred requests in flight (15 B each) never reaches it.
const READ_BUDGET: usize = 16 * 1024;

/// Which dining backend a server fronts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendSpec {
    /// The full crash-recovery runtime: one OS thread per philosopher,
    /// journal resume, restart notices.
    Threaded,
    /// The bit-packed scale-tier kernel in interactive mode, driven by a
    /// single thread. Fault-free: disconnects detach without crashing.
    Scale {
        /// Kernel seed; virtual-time dynamics are a pure function of it.
        seed: u64,
    },
}

/// Configuration of a [`DaemonServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The threaded dining runtime under the sessions (ignored by the
    /// scale backend).
    pub runtime: RuntimeConfig,
    /// Which backend to front.
    pub backend: BackendSpec,
    /// Reactor threads sharing the connection load.
    pub reactor_threads: usize,
    /// Admission cap: a `Bind` that would create session number
    /// `max_sessions + 1` is shed with a busy `BindReject` instead.
    pub max_sessions: usize,
    /// Capacity, in frames, of each connection's write buffer, counting
    /// only frames its socket refused: a connection left holding this
    /// many after the reactor's write (a reader too slow for its own
    /// event stream) is disconnected rather than allowed to hold memory
    /// hostage. A burst the socket takes whole never counts, however
    /// large.
    pub send_queue: usize,
    /// Heartbeat sweep period in milliseconds.
    pub heartbeat_ms: u64,
    /// Suspicion gate: consecutive silent sweeps tolerated before a
    /// session is declared dead. Any inbound frame resets the count, so a
    /// session only times out after `heartbeat_strikes × heartbeat_ms` of
    /// total silence — one missed beat is suspicion, not conviction.
    pub heartbeat_strikes: u32,
    /// Retry hint carried in busy `BindReject` answers, in milliseconds.
    pub busy_retry_ms: u32,
    /// Silent-dialer deadline in milliseconds: a connection that has not
    /// sent its first `Bind` by then is dropped (counted in
    /// [`ServerStats::handshake_timeouts`], *not* as a protocol error).
    pub handshake_ms: u64,
    /// Detached-session time-to-live in milliseconds: a session that
    /// stays detached this long is reaped — credentials invalidated,
    /// admission slot reclaimed. Covers the crash-stop client that will
    /// never resume.
    pub detach_ttl_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            runtime: RuntimeConfig::default(),
            backend: BackendSpec::Threaded,
            reactor_threads: 2,
            max_sessions: 64,
            send_queue: 64,
            heartbeat_ms: 200,
            heartbeat_strikes: 5,
            busy_retry_ms: 100,
            handshake_ms: 2_000,
            detach_ttl_ms: 30_000,
        }
    }
}

/// Monotonic counters published by a running server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted off the listener.
    pub accepted: u64,
    /// Sessions admitted fresh (first binding of a process).
    pub fresh: u64,
    /// Readmissions that rode the journal fast-resume path (or a
    /// graceful detach where nothing was lost).
    pub resumed: u64,
    /// Readmissions that fell back to the blank rejoin handshake.
    pub rejoined: u64,
    /// `Bind`s shed with busy answers at the admission cap.
    pub shed_busy: u64,
    /// Connections disconnected for filling their write buffer.
    pub shed_slow: u64,
    /// Connections disconnected by the heartbeat suspicion gate.
    pub heartbeat_drops: u64,
    /// Connections dropped for malformed or out-of-protocol frames.
    pub protocol_errors: u64,
    /// Dialers dropped for silence at the deadline — connected but never
    /// sent a `Bind`. Deliberately *not* a protocol error: the peer
    /// broke no framing rule, it just never said anything.
    pub handshake_timeouts: u64,
    /// Detached sessions deleted by the TTL reaper.
    pub reaped: u64,
}

#[derive(Default)]
struct AtomicStats {
    accepted: AtomicU64,
    fresh: AtomicU64,
    resumed: AtomicU64,
    rejoined: AtomicU64,
    shed_busy: AtomicU64,
    shed_slow: AtomicU64,
    heartbeat_drops: AtomicU64,
    protocol_errors: AtomicU64,
    handshake_timeouts: AtomicU64,
    reaped: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            rejoined: self.rejoined.load(Ordering::Relaxed),
            shed_busy: self.shed_busy.load(Ordering::Relaxed),
            shed_slow: self.shed_slow.load(Ordering::Relaxed),
            heartbeat_drops: self.heartbeat_drops.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            handshake_timeouts: self.handshake_timeouts.load(Ordering::Relaxed),
            reaped: self.reaped.load(Ordering::Relaxed),
        }
    }
}

/// Everything a stopped server hands back.
pub struct ServerRun {
    /// The full scheduling trace of the dining system.
    pub events: Vec<SchedEvent>,
    /// Link-layer counters (all zero when the reliable link is off, and
    /// for the scale backend).
    pub link: LinkSummary,
    /// Every restart the runtime performed, tagged with its path —
    /// snapshotted *after* runtime teardown, so restarts completing
    /// during the shutdown window are never dropped.
    pub restarts: Vec<RestartNotice>,
    /// The scale kernel's run report, when the scale backend served.
    pub scale: Option<ScaleRunReport>,
    /// Final server counters.
    pub stats: ServerStats,
}

// ---------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------

enum ScaleCmd {
    /// Processes made hungry by one read off one connection, in order.
    Hungry(Vec<u32>),
}

fn apply(kernel: &mut InteractiveScale, cmd: ScaleCmd) {
    match cmd {
        ScaleCmd::Hungry(ps) => {
            for p in ps {
                kernel.inject_hungry(p);
            }
        }
    }
}

/// The scale backend: one driver thread owning an [`InteractiveScale`]
/// kernel, fed hunger injections over a channel, emitting wall-clock-
/// stamped [`SchedEvent`]s to the pump's tap.
struct ScaleService {
    tx: Sender<ScaleCmd>,
    handle: JoinHandle<(Vec<SchedEvent>, ScaleRunReport)>,
}

impl ScaleService {
    fn start(graph: &ConflictGraph, seed: u64) -> (ScaleService, Receiver<SchedEvent>) {
        let colors = coloring::greedy(graph);
        let mut kernel = InteractiveScale::new(graph, &colors, ScaleConfig::default().seed(seed));
        let (tx, rx) = unbounded::<ScaleCmd>();
        let (tap_tx, tap_rx) = unbounded::<SchedEvent>();
        let handle = std::thread::Builder::new()
            .name("ekbd-net-scale".into())
            .spawn(move || {
                let start = Instant::now();
                let mut log: Vec<SchedEvent> = Vec::new();
                let mut obs = Vec::new();
                loop {
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(cmd) => apply(&mut kernel, cmd),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                    for cmd in rx.try_iter() {
                        apply(&mut kernel, cmd);
                    }
                    obs.clear();
                    kernel.step(1u64 << 16, &mut obs);
                    if obs.is_empty() {
                        continue;
                    }
                    let at = start.elapsed().as_millis() as u64;
                    for o in &obs {
                        let e = SchedEvent::new(
                            Time(at),
                            ProcessId::from(o.process as usize),
                            if o.started {
                                DiningObs::StartedEating
                            } else {
                                DiningObs::StoppedEating
                            },
                        );
                        log.push(e);
                        let _ = tap_tx.send(e);
                    }
                }
                (log, kernel.finish())
            })
            .expect("spawn scale driver thread");
        (ScaleService { tx, handle }, tap_rx)
    }

    fn stop(self) -> (Vec<SchedEvent>, ScaleRunReport) {
        drop(self.tx);
        self.handle
            .join()
            .unwrap_or_else(|_| (Vec::new(), panic_report()))
    }
}

/// Placeholder report for the (never observed in practice) case of a
/// panicked scale driver.
fn panic_report() -> ScaleRunReport {
    ScaleRunReport {
        n: 0,
        shards: 0,
        events: 0,
        messages: 0,
        final_tick: 0,
        eats: Vec::new(),
        mistakes: u64::MAX,
        starving: 0,
        latency: ekbd_sim::LatencyHistogram::new(),
        excerpts: Vec::new(),
        wall_nanos: 0,
    }
}

/// The dining system behind the sessions.
enum Backend {
    Threaded(ThreadedDining<RecoveryMsg>),
    Scale(ScaleService),
}

impl Backend {
    /// Makes every process in `ps` hungry, in order: one hand-off for
    /// all the `Hungry` frames of one read.
    fn make_hungry(&self, ps: Vec<u32>) {
        match self {
            Backend::Threaded(sys) => {
                for p in ps {
                    sys.make_hungry(ProcessId::from(p as usize));
                }
            }
            Backend::Scale(svc) => {
                let _ = svc.tx.send(ScaleCmd::Hungry(ps));
            }
        }
    }

    fn crash(&self, p: u32) {
        match self {
            Backend::Threaded(sys) => sys.crash(ProcessId::from(p as usize)),
            // The scale kernel is fault-free: a vanished client just
            // stops injecting hunger.
            Backend::Scale(_) => {}
        }
    }

    fn recover(&self, p: u32) {
        match self {
            Backend::Threaded(sys) => sys.recover(ProcessId::from(p as usize)),
            Backend::Scale(_) => {}
        }
    }

    fn restart_paths(&self) -> Vec<RestartNotice> {
        match self {
            Backend::Threaded(sys) => sys.restart_paths(),
            Backend::Scale(_) => Vec::new(),
        }
    }

    fn supports_recovery(&self) -> bool {
        matches!(self, Backend::Threaded(_))
    }
}

// ---------------------------------------------------------------------
// Session table
// ---------------------------------------------------------------------

/// Where a session's live connection lives: which reactor, which slab
/// slot, and the attachment generation (slots are reused; generations
/// are not).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ConnRef {
    reactor: usize,
    slot: usize,
    gen: u64,
}

/// Server-side session state for one dining process. Survives connection
/// deaths: `conn` detaches but the slot (and its credentials) remain —
/// until the detach-TTL reaper deletes it.
struct Session {
    session: u64,
    token: u64,
    conn: Option<ConnRef>,
    /// An admission for this slot is in flight (its recovery wait runs
    /// on a worker thread, outside the sessions lock).
    binding: bool,
    /// When the session last detached; `None` while attached. The reaper
    /// deletes detached slots older than the TTL.
    detached_at: Option<Instant>,
}

struct ServerInner {
    cfg: ServerConfig,
    graph_len: usize,
    /// `Option` so [`DaemonServer::shutdown`] can take the backend out
    /// for consuming teardown while reactors still hold the `Arc`.
    backend: Mutex<Option<Backend>>,
    sessions: Mutex<HashMap<u32, Session>>,
    /// Per-process crashed-awaiting-recovery flags. Lives *outside* the
    /// session table so reaping a crashed session does not forget that
    /// the underlying process still needs `recover` on readmission.
    crashed: Mutex<Vec<bool>>,
    /// Per-process count of restart notices already consumed, so each
    /// readmission waits for *its* notice, not a historical one. Also
    /// outside the session table, for the same reason.
    restarts_seen: Mutex<Vec<usize>>,
    /// Reactor command queues, for the pump and the acceptor. Set once
    /// at startup (reactors need the inner first).
    reactors: OnceLock<Vec<Arc<ReactorShared>>>,
    next_session: AtomicU64,
    next_generation: AtomicU64,
    token_rng: Mutex<u64>,
    running: AtomicBool,
    stats: AtomicStats,
}

/// Why a binding claim was refused.
enum ClaimError {
    BadProcess,
    AlreadyBound,
    UnknownSession,
    Busy,
}

impl ClaimError {
    /// The reject code carried in the `BindReject`.
    fn code(&self) -> u8 {
        match self {
            ClaimError::BadProcess => REJECT_BAD_PROCESS,
            ClaimError::AlreadyBound => REJECT_ALREADY_BOUND,
            ClaimError::UnknownSession => REJECT_UNKNOWN_SESSION,
            ClaimError::Busy => REJECT_BUSY,
        }
    }
}

impl ServerInner {
    fn with_backend<R>(&self, f: impl FnOnce(&Backend) -> R) -> Option<R> {
        self.backend.lock().as_ref().map(f)
    }

    /// Claims the binding slot for `process` under the lock: validates,
    /// creates the slot if admission allows, and marks it `binding` so
    /// concurrent binds of the same process observe `ALREADY_BOUND`. On
    /// success returns `(crashed, restarts_seen)` of the claimed process.
    /// The caller counts `shed_busy`.
    fn claim_binding(
        &self,
        process: u32,
        check: impl FnOnce(Option<&Session>) -> Result<(), ClaimError>,
    ) -> Result<(bool, usize), ClaimError> {
        if process as usize >= self.graph_len {
            return Err(ClaimError::BadProcess);
        }
        let mut sessions = self.sessions.lock();
        let slot = sessions.get(&process);
        if slot.is_some_and(|s| s.conn.is_some() || s.binding) {
            return Err(ClaimError::AlreadyBound);
        }
        check(slot)?;
        if let Some(slot) = sessions.get_mut(&process) {
            slot.binding = true;
        } else {
            if sessions.len() >= self.cfg.max_sessions {
                return Err(ClaimError::Busy);
            }
            sessions.insert(
                process,
                Session {
                    session: 0,
                    token: 0,
                    conn: None,
                    binding: true,
                    detached_at: None,
                },
            );
        }
        let crashed = self.crashed.lock()[process as usize];
        let seen = self.restarts_seen.lock()[process as usize];
        Ok((crashed, seen))
    }

    /// Completes a claimed binding: stamps credentials and attaches the
    /// connection reference.
    #[allow(clippy::too_many_arguments)] // admission state is this wide
    fn complete_admission(
        &self,
        process: u32,
        session: u64,
        token: u64,
        seen: usize,
        path: AdmitPath,
        conn: ConnRef,
    ) {
        {
            let mut sessions = self.sessions.lock();
            let slot = sessions.get_mut(&process).expect("claimed binding exists");
            slot.session = session;
            slot.token = token;
            slot.binding = false;
            slot.detached_at = None;
            slot.conn = Some(conn);
        }
        self.crashed.lock()[process as usize] = false;
        self.restarts_seen.lock()[process as usize] = seen;
        self.count_admission(path);
    }

    /// Unwinds a claimed binding whose connection died while its
    /// admission worker was waiting: the slot detaches (the worker
    /// already revived the process, so it is no longer crashed) and no
    /// admission is counted.
    fn rollback_claim(&self, process: u32, seen: usize) {
        {
            let mut sessions = self.sessions.lock();
            if let Some(slot) = sessions.get_mut(&process) {
                slot.binding = false;
                slot.detached_at = Some(Instant::now());
            }
        }
        self.crashed.lock()[process as usize] = false;
        self.restarts_seen.lock()[process as usize] = seen;
    }

    /// Detaches `process` if `gen` still owns its attachment. Returns
    /// whether this call performed the detach (the process may have been
    /// rebound since). An ungraceful detach marks the process crashed
    /// when the backend can recover it.
    fn detach_process(&self, process: u32, gen: u64, graceful: bool) -> bool {
        {
            let mut sessions = self.sessions.lock();
            let Some(slot) = sessions.get_mut(&process) else {
                return false;
            };
            if slot.conn.as_ref().is_none_or(|c| c.gen != gen) {
                return false;
            }
            slot.conn = None;
            slot.detached_at = Some(Instant::now());
        }
        if !graceful
            && self
                .with_backend(|b| b.supports_recovery())
                .unwrap_or(false)
        {
            self.crashed.lock()[process as usize] = true;
        }
        true
    }

    /// The detach-TTL reaper (pump thread): deletes sessions that have
    /// been detached longer than the TTL. Their credentials die with
    /// them and their admission capacity returns to the pool; a crashed
    /// process stays crashed in the backend until some future `Bind`
    /// revives it.
    fn reap_detached(&self) {
        let ttl = Duration::from_millis(self.cfg.detach_ttl_ms.max(1));
        let mut sessions = self.sessions.lock();
        let before = sessions.len();
        sessions.retain(|_, s| {
            s.conn.is_some() || s.binding || s.detached_at.is_none_or(|t| t.elapsed() < ttl)
        });
        let reaped = (before - sessions.len()) as u64;
        if reaped > 0 {
            self.stats.reaped.fetch_add(reaped, Ordering::Relaxed);
        }
    }

    /// Routes one batch of backend events to the sessions: each
    /// `StartedEating` / `StoppedEating` becomes a process-tagged
    /// `Granted` / `Released` frame, encoded straight into its
    /// connection's buffer. One sessions lock per batch, one
    /// [`Cmd::Send`] per connection, one post per reactor.
    fn route(&self, events: &[SchedEvent]) {
        let Some(reactors) = self.reactors.get() else {
            return;
        };
        let mut out: HashMap<ConnRef, (Vec<u8>, usize)> = HashMap::new();
        {
            let sessions = self.sessions.lock();
            for e in events {
                let process = e.process.index() as u32;
                let at_ms = e.time.0;
                let frame = match e.obs {
                    DiningObs::StartedEating => Frame::Granted { process, at_ms },
                    DiningObs::StoppedEating => Frame::Released { process, at_ms },
                    _ => continue,
                };
                let Some(conn) = sessions.get(&process).and_then(|s| s.conn) else {
                    continue;
                };
                let (bytes, frames) = out.entry(conn).or_default();
                encode_frame_into(&frame, bytes);
                *frames += 1;
            }
        }
        let mut posts: Vec<Vec<Cmd>> = reactors.iter().map(|_| Vec::new()).collect();
        for (conn, (bytes, frames)) in out {
            posts[conn.reactor].push(Cmd::Send {
                slot: conn.slot,
                gen: conn.gen,
                bytes,
                frames,
            });
        }
        for (shared, cmds) in reactors.iter().zip(posts) {
            shared.post(cmds);
        }
    }

    /// Revives a crashed process and reports which recovery path its new
    /// incarnation took, by watching the runtime's restart notices.
    /// Blocking — runs on admission worker threads only, never on a
    /// reactor. Returns the updated consumed-notice count with the path.
    fn recover_and_classify(&self, p: u32, seen: usize) -> (usize, AdmitPath) {
        let pid = ProcessId::from(p as usize);
        self.with_backend(|b| b.recover(p));
        let deadline = Instant::now() + Duration::from_secs(3);
        loop {
            let mine = self
                .with_backend(|b| {
                    b.restart_paths()
                        .into_iter()
                        .filter(|n| n.process == pid)
                        .collect::<Vec<RestartNotice>>()
                })
                .unwrap_or_default();
            if mine.len() > seen {
                let path = match mine.last().expect("nonempty").event.path {
                    RestartPath::Journal { .. } => AdmitPath::Resumed,
                    RestartPath::Blank { .. } => AdmitPath::Rejoined,
                };
                return (mine.len(), path);
            }
            if Instant::now() >= deadline {
                // The notice never surfaced (system shutting down, or the
                // process was not actually crashed): claim the weak path.
                return (seen, AdmitPath::Rejoined);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn count_admission(&self, path: AdmitPath) {
        match path {
            AdmitPath::Fresh => self.stats.fresh.fetch_add(1, Ordering::Relaxed),
            AdmitPath::Resumed => self.stats.resumed.fetch_add(1, Ordering::Relaxed),
            AdmitPath::Rejoined => self.stats.rejoined.fetch_add(1, Ordering::Relaxed),
        };
    }
}

// ---------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------

/// Cross-thread commands into a reactor, drained on eventfd wakeup.
enum Cmd {
    /// Adopt a freshly accepted connection into the slab.
    Adopt(Conn),
    /// Queue `frames` encoded frames to slot `slot` if generation `gen`
    /// still lives there.
    Send {
        slot: usize,
        gen: u64,
        bytes: Vec<u8>,
        frames: usize,
    },
    /// An admission worker finished its recovery wait.
    AdmissionDone {
        slot: usize,
        gen: u64,
        process: u32,
        session: u64,
        token: u64,
        seen: usize,
        path: AdmitPath,
    },
    /// Close every connection and exit once the slab drains.
    Shutdown,
}

struct ReactorShared {
    queue: Mutex<VecDeque<Cmd>>,
    waker: Waker,
}

impl ReactorShared {
    /// Queues `cmds` under one lock with one wakeup (none if empty).
    fn post(&self, cmds: impl IntoIterator<Item = Cmd>) {
        let posted = {
            let mut queue = self.queue.lock();
            let before = queue.len();
            queue.extend(cmds);
            queue.len() > before
        };
        if posted {
            self.waker.wake();
        }
    }
}

/// One slab entry: a nonblocking connection with its read accumulator
/// and write buffer.
struct ConnEntry {
    conn: Conn,
    /// Attachment generation shared by every process bound on this
    /// connection; stale cross-thread commands are discarded by it.
    gen: u64,
    acc: Vec<u8>,
    /// Encoded frames queued for the socket; starts on a frame boundary.
    out: Vec<u8>,
    /// Bytes of `out` already written.
    wpos: usize,
    /// Frames in `out` not yet wholly written.
    unsent: usize,
    /// Listed in the reactor's dirty set, awaiting this turn's flush.
    dirty: bool,
    /// Readiness mask currently registered with the poller.
    interest: u32,
    /// Processes bound on this connection, in bind order.
    bound: Vec<u32>,
    /// Consecutive silent heartbeat sweeps; any inbound byte resets it.
    strikes: u32,
    /// Outstanding admission workers; the slot is not reusable until
    /// they all report back, even after death.
    pending: u32,
    dead: bool,
    /// Silent-dialer deadline; `None` once the connection has sent its
    /// first `Bind`.
    deadline: Option<Instant>,
}

/// Flushes the write buffer as far as the socket allows. `Ok(true)` when
/// fully drained, `Ok(false)` when the socket would block, `Err` on a
/// fatal socket error. A partial write drops the frames it completed, so
/// `unsent` then counts exactly the frames the socket refused.
fn flush_entry(entry: &mut ConnEntry) -> io::Result<bool> {
    while entry.wpos < entry.out.len() {
        match entry.conn.write(&entry.out[entry.wpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => entry.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if entry.wpos == entry.out.len() {
        entry.out.clear();
        entry.wpos = 0;
        entry.unsent = 0;
        return Ok(true);
    }
    let mut done = 0;
    loop {
        let end = done + framed_len(&entry.out[done..]);
        if end > entry.wpos {
            break;
        }
        done = end;
        entry.unsent -= 1;
    }
    entry.out.drain(..done);
    entry.wpos -= done;
    Ok(false)
}

struct Reactor {
    inner: Arc<ServerInner>,
    shared: Arc<ReactorShared>,
    index: usize,
    poller: Poller,
    slab: Vec<Option<ConnEntry>>,
    free: Vec<usize>,
    /// Slots with bytes queued since the last flush.
    dirty: Vec<usize>,
    nonce: u32,
    shutting_down: bool,
}

impl Reactor {
    fn new(
        inner: Arc<ServerInner>,
        shared: Arc<ReactorShared>,
        index: usize,
    ) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        poller.add(shared.waker.raw_fd(), EPOLLIN, WAKER_TOKEN)?;
        Ok(Reactor {
            inner,
            shared,
            index,
            poller,
            slab: Vec::new(),
            free: Vec::new(),
            dirty: Vec::new(),
            nonce: 0,
            shutting_down: false,
        })
    }

    fn run(mut self) {
        let beat = Duration::from_millis(self.inner.cfg.heartbeat_ms.max(1));
        let mut next_beat = Instant::now() + beat;
        let mut events: Vec<(u64, u32)> = Vec::new();
        // One turn: poll, read and dispatch, take the posted commands,
        // then write every connection that has bytes queued — once.
        // Commands posted after the drain re-arm the waker, so the next
        // poll returns at once.
        loop {
            let now = Instant::now();
            let mut wake_at = next_beat;
            for e in self.slab.iter().flatten() {
                if let Some(d) = e.deadline {
                    if d < wake_at {
                        wake_at = d;
                    }
                }
            }
            let timeout = wake_at.saturating_duration_since(now).as_millis().min(100) as i32;
            events.clear();
            let _ = self.poller.wait(&mut events, 128, timeout);
            for &(token, ready) in &events {
                if token == WAKER_TOKEN {
                    self.shared.waker.drain();
                } else {
                    self.handle_event(token as usize, ready);
                }
            }
            self.drain_cmds();
            let now = Instant::now();
            if now >= next_beat {
                self.heartbeat();
                next_beat = now + beat;
            }
            self.sweep_deadlines(now);
            self.flush_dirty();
            if self.shutting_down && self.slab.iter().all(Option::is_none) {
                break;
            }
        }
    }

    fn drain_cmds(&mut self) {
        let cmds = std::mem::take(&mut *self.shared.queue.lock());
        for cmd in cmds {
            match cmd {
                Cmd::Adopt(conn) => self.adopt(conn),
                Cmd::Send {
                    slot,
                    gen,
                    bytes,
                    frames,
                } => {
                    let live = self.slab.get(slot).and_then(Option::as_ref);
                    if live.is_some_and(|e| e.gen == gen) {
                        self.queue(slot, frames, |out| out.extend_from_slice(&bytes));
                    }
                }
                Cmd::AdmissionDone {
                    slot,
                    gen,
                    process,
                    session,
                    token,
                    seen,
                    path,
                } => self.admission_done(slot, gen, process, session, token, seen, path),
                Cmd::Shutdown => {
                    self.shutting_down = true;
                    for slot in 0..self.slab.len() {
                        self.conn_end(slot, false);
                    }
                }
            }
        }
    }

    fn adopt(&mut self, conn: Conn) {
        if self.shutting_down {
            conn.kill();
            return;
        }
        if conn.set_nonblocking(true).is_err() {
            conn.kill();
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        let gen = self.inner.next_generation.fetch_add(1, Ordering::Relaxed);
        let interest = EPOLLIN | EPOLLRDHUP;
        if self
            .poller
            .add(conn.raw_fd(), interest, slot as u64)
            .is_err()
        {
            conn.kill();
            self.free.push(slot);
            return;
        }
        let deadline = Instant::now() + Duration::from_millis(self.inner.cfg.handshake_ms.max(1));
        self.slab[slot] = Some(ConnEntry {
            conn,
            gen,
            acc: Vec::with_capacity(256),
            out: Vec::new(),
            wpos: 0,
            unsent: 0,
            dirty: false,
            interest,
            bound: Vec::new(),
            strikes: 0,
            pending: 0,
            dead: false,
            deadline: Some(deadline),
        });
    }

    fn handle_event(&mut self, slot: usize, ready: u32) {
        if !self.is_live(slot) {
            return;
        }
        if ready & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
            self.do_read(slot);
        }
        if !self.is_live(slot) {
            return;
        }
        if ready & EPOLLERR != 0 {
            self.hang_up(slot);
        } else if ready & EPOLLOUT != 0 {
            self.mark_dirty(slot);
        }
    }

    fn is_live(&self, slot: usize) -> bool {
        self.slab
            .get(slot)
            .and_then(Option::as_ref)
            .is_some_and(|e| !e.dead)
    }

    /// Reads up to [`READ_BUDGET`] bytes into the accumulator, then
    /// decodes. Bytes left in the socket keep it readable, so the next
    /// poll reports it again after every other ready connection had its
    /// turn. A peer that wrote its last frames and closed (`Bye`, then
    /// EOF, seen by one read) has those frames dispatched before the
    /// hang-up.
    fn do_read(&mut self, slot: usize) {
        let mut chunk = [0u8; READ_BUDGET];
        let mut room = READ_BUDGET;
        let mut closed = false;
        while room > 0 {
            let Some(entry) = self.slab[slot].as_mut() else {
                return;
            };
            match entry.conn.read(&mut chunk[..room]) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    entry.strikes = 0;
                    entry.acc.extend_from_slice(&chunk[..n]);
                    room -= n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        self.process_frames(slot);
        if closed && self.is_live(slot) {
            self.hang_up(slot);
        }
    }

    /// Decodes and dispatches every buffered frame with a cursor, then
    /// compacts the accumulator once. The `Hungry`s of bound processes
    /// are gathered into one backend hand-off, made before any other
    /// frame is dispatched — a control frame may detach a process or end
    /// the connection, and each process's requests keep their order.
    fn process_frames(&mut self, slot: usize) {
        let mut at = 0;
        let mut hungry = Vec::new();
        while let Some(entry) = self.slab[slot].as_mut().filter(|e| !e.dead) {
            let frame = match decode_frame(&entry.acc[at..]) {
                Ok(Some((frame, n))) => {
                    at += n;
                    frame
                }
                Ok(None) => break,
                Err(_) => {
                    self.hand_off(&mut hungry);
                    self.close_protocol_error(slot);
                    break;
                }
            };
            match frame {
                Frame::Hungry { process } if entry.bound.contains(&process) => {
                    hungry.push(process);
                }
                frame => {
                    self.hand_off(&mut hungry);
                    self.dispatch(slot, frame);
                }
            }
        }
        self.hand_off(&mut hungry);
        // A dead connection's accumulator was cleared at teardown.
        if let Some(entry) = self.slab[slot].as_mut().filter(|e| !e.dead) {
            entry.acc.drain(..at);
        }
    }

    fn hand_off(&self, hungry: &mut Vec<u32>) {
        if !hungry.is_empty() {
            let ps = std::mem::take(hungry);
            self.inner.with_backend(|b| b.make_hungry(ps));
        }
    }

    /// The one admission entry point. Zero credentials bind `process`
    /// fresh; otherwise they must match the session the process holds.
    /// Claims the binding, then either completes inline (fresh, or a
    /// graceful detach resumed) or parks the recovery wait of a crashed
    /// process on a worker.
    fn on_bind(&mut self, slot: usize, process: u32, session: u64, token: u64) {
        let inner = Arc::clone(&self.inner);
        if let Some(entry) = self.slab[slot].as_mut() {
            // It has spoken: no longer a silent dialer.
            entry.deadline = None;
        }
        let fresh = session == 0 && token == 0;
        let claim = inner.claim_binding(process, |s| match s {
            _ if fresh => Ok(()),
            Some(s) if s.session == session && s.token == token => Ok(()),
            _ => Err(ClaimError::UnknownSession),
        });
        let (crashed, seen) = match claim {
            Ok(c) => c,
            Err(e) => {
                let retry_after_ms = if matches!(e, ClaimError::Busy) {
                    inner.stats.shed_busy.fetch_add(1, Ordering::Relaxed);
                    inner.cfg.busy_retry_ms
                } else {
                    0
                };
                let answer = Frame::BindReject {
                    process,
                    code: e.code(),
                    retry_after_ms,
                };
                self.queue_frame(slot, &answer);
                return;
            }
        };
        let (session, token, easy_path) = if fresh {
            let session = inner.next_session.fetch_add(1, Ordering::Relaxed) + 1;
            let token = splitmix64(&mut inner.token_rng.lock());
            // A fresh binding — even of a slot another session left
            // behind gracefully — reports the fresh path: no state was
            // carried over on the client's behalf.
            (session, token, AdmitPath::Fresh)
        } else {
            // Detached gracefully (`Bye`/`Unbind`): nothing was lost, the
            // session resumes trivially under its existing credentials.
            (session, token, AdmitPath::Resumed)
        };
        if crashed {
            self.spawn_admission(slot, process, session, token, seen);
        } else {
            self.finish_admission(slot, process, session, token, seen, easy_path);
        }
    }

    /// Parks a crashed-process admission on a worker thread; the reactor
    /// keeps serving and the verdict comes back as a command.
    fn spawn_admission(
        &mut self,
        slot: usize,
        process: u32,
        session: u64,
        token: u64,
        seen: usize,
    ) {
        let Some(entry) = self.slab[slot].as_mut() else {
            return;
        };
        entry.pending += 1;
        let gen = entry.gen;
        let inner = Arc::clone(&self.inner);
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("ekbd-net-admit".into())
            .spawn(move || {
                let (seen, path) = inner.recover_and_classify(process, seen);
                shared.post([Cmd::AdmissionDone {
                    slot,
                    gen,
                    process,
                    session,
                    token,
                    seen,
                    path,
                }]);
            });
        if spawned.is_err() {
            // Could not spawn: unwind the claim and drop the connection.
            let entry = self.slab[slot].as_mut().expect("checked above");
            entry.pending -= 1;
            self.inner.rollback_claim(process, seen);
            self.conn_end(slot, false);
        }
    }

    #[allow(clippy::too_many_arguments)] // admission state is this wide
    fn admission_done(
        &mut self,
        slot: usize,
        gen: u64,
        process: u32,
        session: u64,
        token: u64,
        seen: usize,
        path: AdmitPath,
    ) {
        let Some(entry) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            // The slot can only be freed once pending drops to zero, so
            // a missing entry means bookkeeping is broken.
            debug_assert!(false, "admission verdict for a freed slot");
            self.inner.rollback_claim(process, seen);
            return;
        };
        entry.pending -= 1;
        if entry.dead || entry.gen != gen {
            self.inner.rollback_claim(process, seen);
            self.gc(slot);
            return;
        }
        self.finish_admission(slot, process, session, token, seen, path);
    }

    /// Installs a decided admission and answers the client with `Bound`.
    fn finish_admission(
        &mut self,
        slot: usize,
        process: u32,
        session: u64,
        token: u64,
        seen: usize,
        path: AdmitPath,
    ) {
        let Some(entry) = self.slab[slot].as_mut() else {
            return;
        };
        let gen = entry.gen;
        entry.bound.push(process);
        self.inner.complete_admission(
            process,
            session,
            token,
            seen,
            path,
            ConnRef {
                reactor: self.index,
                slot,
                gen,
            },
        );
        self.queue_frame(
            slot,
            &Frame::Bound {
                process,
                path,
                session,
                token,
            },
        );
    }

    /// Handles one inbound frame other than the `Hungry` of a bound
    /// process, which [`process_frames`](Self::process_frames) batches.
    fn dispatch(&mut self, slot: usize, frame: Frame) {
        match frame {
            Frame::Ping { nonce } => {
                self.queue_frame(slot, &Frame::Pong { nonce });
            }
            Frame::Pong { .. } => {}
            Frame::Bind {
                process,
                session,
                token,
            } => self.on_bind(slot, process, session, token),
            Frame::Unbind { process } => {
                let entry = self.slab[slot].as_mut().expect("dispatch on live slot");
                let gen = entry.gen;
                if let Some(pos) = entry.bound.iter().position(|&p| p == process) {
                    entry.bound.swap_remove(pos);
                    self.inner.detach_process(process, gen, true);
                    self.queue_frame(slot, &Frame::Unbound { process });
                } else {
                    self.close_protocol_error(slot);
                }
            }
            Frame::Bye => self.conn_end(slot, true),
            // Server-to-client frames, and `Hungry` for a process not
            // bound here, are out of protocol.
            _ => self.close_protocol_error(slot),
        }
    }

    fn queue_frame(&mut self, slot: usize, frame: &Frame) {
        self.queue(slot, 1, |out| encode_frame_into(frame, out));
    }

    /// Appends `frames` frames to the slot's write buffer via `append`.
    /// Nothing is written here: the turn's [`flush_dirty`](Self::flush_dirty)
    /// does that, once per connection.
    fn queue(&mut self, slot: usize, frames: usize, append: impl FnOnce(&mut Vec<u8>)) {
        let Some(entry) = self.slab[slot].as_mut().filter(|e| !e.dead) else {
            return;
        };
        append(&mut entry.out);
        entry.unsent += frames;
        self.mark_dirty(slot);
    }

    fn mark_dirty(&mut self, slot: usize) {
        if let Some(entry) = self.slab[slot].as_mut() {
            if !entry.dirty {
                entry.dirty = true;
                self.dirty.push(slot);
            }
        }
    }

    /// Writes every connection queued to this turn, one flush each.
    fn flush_dirty(&mut self) {
        for slot in std::mem::take(&mut self.dirty) {
            self.flush(slot);
        }
    }

    /// Writes as much as the socket takes and re-arms `EPOLLOUT` while any
    /// buffer remains. A reader is slow once the frames its socket refused
    /// reach [`ServerConfig::send_queue`]; frames queued within the turn
    /// and taken by the socket never count.
    fn flush(&mut self, slot: usize) {
        let cap = self.inner.cfg.send_queue.max(1);
        let (fatal, slow) = {
            let Some(entry) = self.slab[slot].as_mut() else {
                return;
            };
            entry.dirty = false;
            if entry.dead {
                return;
            }
            match flush_entry(entry) {
                Ok(drained) => {
                    let want = EPOLLIN | EPOLLRDHUP | if drained { 0 } else { EPOLLOUT };
                    if want != entry.interest
                        && self
                            .poller
                            .modify(entry.conn.raw_fd(), want, slot as u64)
                            .is_ok()
                    {
                        entry.interest = want;
                    }
                    (false, entry.unsent >= cap)
                }
                Err(_) => (true, false),
            }
        };
        if fatal {
            self.hang_up(slot);
        } else if slow {
            self.inner.stats.shed_slow.fetch_add(1, Ordering::Relaxed);
            self.conn_end(slot, false);
        }
    }

    /// One heartbeat sweep over this reactor's connections past their
    /// first `Bind` (silent dialers answer to their deadline instead).
    fn heartbeat(&mut self) {
        self.nonce = self.nonce.wrapping_add(1);
        let nonce = self.nonce;
        let mut dead: Vec<usize> = Vec::new();
        let mut ping: Vec<usize> = Vec::new();
        for (slot, entry) in self.slab.iter_mut().enumerate() {
            let Some(entry) = entry else { continue };
            if entry.dead || entry.deadline.is_some() {
                continue;
            }
            entry.strikes += 1;
            if entry.strikes > self.inner.cfg.heartbeat_strikes {
                dead.push(slot);
            } else {
                ping.push(slot);
            }
        }
        for slot in dead {
            self.inner
                .stats
                .heartbeat_drops
                .fetch_add(1, Ordering::Relaxed);
            self.conn_end(slot, false);
        }
        for slot in ping {
            self.queue_frame(slot, &Frame::Ping { nonce });
        }
    }

    /// Drops silent dialers that blew their deadline: counted as
    /// timeouts, not protocol errors — silence breaks no framing rule.
    fn sweep_deadlines(&mut self, now: Instant) {
        let expired: Vec<usize> = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(slot, e)| {
                let e = e.as_ref()?;
                (!e.dead && e.deadline.is_some_and(|d| d <= now)).then_some(slot)
            })
            .collect();
        for slot in expired {
            self.fail_handshake(slot, true);
        }
    }

    fn close_protocol_error(&mut self, slot: usize) {
        self.inner
            .stats
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        self.conn_end(slot, false);
    }

    /// An ungraceful hang-up (EOF, socket error): a dialer that never sent
    /// a `Bind` counts as a protocol failure, an admitted connection
    /// crashes the processes bound on it.
    fn hang_up(&mut self, slot: usize) {
        let silent = self.slab[slot]
            .as_ref()
            .is_some_and(|e| e.deadline.is_some());
        if silent {
            self.fail_handshake(slot, false);
        } else {
            self.conn_end(slot, false);
        }
    }

    /// A dialer dropped before its first `Bind`: `timeout` separates the
    /// silent dialer from the one that broke framing or hung up mid-word.
    fn fail_handshake(&mut self, slot: usize, timeout: bool) {
        let counter = if timeout {
            &self.inner.stats.handshake_timeouts
        } else {
            &self.inner.stats.protocol_errors
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.conn_end(slot, false);
    }

    /// The single teardown path: detaches every bound process (crashing
    /// them if ungraceful), deregisters, and hard-closes. The slot is
    /// recycled once outstanding admission workers report back.
    fn conn_end(&mut self, slot: usize, graceful: bool) {
        let (bound, gen) = {
            let Some(entry) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if entry.dead {
                return;
            }
            entry.dead = true;
            self.poller.delete(entry.conn.raw_fd());
            entry.conn.kill();
            entry.out.clear();
            entry.wpos = 0;
            entry.unsent = 0;
            entry.acc.clear();
            (std::mem::take(&mut entry.bound), entry.gen)
        };
        for p in bound {
            if self.inner.detach_process(p, gen, graceful) && !graceful {
                self.inner.with_backend(|b| b.crash(p));
            }
        }
        self.gc(slot);
    }

    /// Frees a dead slot once no admission worker can still address it.
    fn gc(&mut self, slot: usize) {
        let freeable = self.slab[slot]
            .as_ref()
            .is_some_and(|e| e.dead && e.pending == 0);
        if freeable {
            self.slab[slot] = None;
            self.free.push(slot);
        }
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A running daemon server. Dropping it without calling
/// [`shutdown`](Self::shutdown) leaves threads running; always shut down.
pub struct DaemonServer {
    inner: Arc<ServerInner>,
    acceptor: JoinHandle<()>,
    reactors: Vec<JoinHandle<()>>,
    pump: JoinHandle<()>,
    local_addr: ServerAddr,
}

impl DaemonServer {
    /// Binds `addr`, spawns the configured backend over `graph`, and
    /// starts serving sessions.
    pub fn start(graph: ConflictGraph, addr: &ServerAddr, cfg: ServerConfig) -> io::Result<Self> {
        let (listener, local_addr) = Listener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let (backend, tap) = match cfg.backend {
            BackendSpec::Threaded => {
                let sys = ThreadedDining::spawn_recoverable(graph.clone(), cfg.runtime.clone());
                let tap = sys.tap_events();
                (Backend::Threaded(sys), tap)
            }
            BackendSpec::Scale { seed } => {
                let (svc, tap) = ScaleService::start(&graph, seed);
                (Backend::Scale(svc), tap)
            }
        };
        let n_reactors = cfg.reactor_threads.max(1);
        let inner = Arc::new(ServerInner {
            cfg,
            graph_len: graph.len(),
            backend: Mutex::new(Some(backend)),
            sessions: Mutex::new(HashMap::new()),
            crashed: Mutex::new(vec![false; graph.len()]),
            restarts_seen: Mutex::new(vec![0; graph.len()]),
            reactors: OnceLock::new(),
            next_session: AtomicU64::new(0),
            next_generation: AtomicU64::new(0),
            token_rng: Mutex::new(0x00EB_D0DA_E500_0001),
            running: AtomicBool::new(true),
            stats: AtomicStats::default(),
        });

        let mut shareds = Vec::with_capacity(n_reactors);
        let mut reactors = Vec::with_capacity(n_reactors);
        for i in 0..n_reactors {
            let shared = Arc::new(ReactorShared {
                queue: Mutex::new(VecDeque::new()),
                waker: Waker::new()?,
            });
            let reactor = Reactor::new(Arc::clone(&inner), Arc::clone(&shared), i)?;
            shareds.push(shared);
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("ekbd-net-reactor-{i}"))
                    .spawn(move || reactor.run())
                    .expect("spawn reactor thread"),
            );
        }
        inner
            .reactors
            .set(shareds)
            .unwrap_or_else(|_| unreachable!("reactors set once"));

        let acceptor = {
            let inner = Arc::clone(&inner);
            let poller = {
                let mut p = Poller::new()?;
                p.add(listener.raw_fd(), EPOLLIN, 0)?;
                // Probe once so a broken poller fails startup, not the
                // accept loop.
                let mut scratch = Vec::new();
                let _ = p.wait(&mut scratch, 1, 0)?;
                p
            };
            std::thread::Builder::new()
                .name("ekbd-net-accept".into())
                .spawn(move || {
                    let mut poller = poller;
                    let mut events: Vec<(u64, u32)> = Vec::new();
                    let mut next = 0usize;
                    while inner.running.load(Ordering::Relaxed) {
                        events.clear();
                        let _ = poller.wait(&mut events, 8, 50);
                        if events.is_empty() {
                            continue;
                        }
                        loop {
                            match listener.accept() {
                                Ok(conn) => {
                                    inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
                                    let reactors =
                                        inner.reactors.get().expect("reactors initialized");
                                    reactors[next % reactors.len()].post([Cmd::Adopt(conn)]);
                                    next = next.wrapping_add(1);
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(_) => break,
                            }
                        }
                    }
                })
                .expect("spawn acceptor thread")
        };

        let pump = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ekbd-net-pump".into())
                .spawn(move || {
                    let sweep_every =
                        Duration::from_millis((inner.cfg.detach_ttl_ms / 4).clamp(5, 250));
                    let mut last_sweep = Instant::now();
                    let mut batch: Vec<SchedEvent> = Vec::new();
                    while inner.running.load(Ordering::Relaxed) {
                        match tap.recv_timeout(Duration::from_millis(10)) {
                            Ok(e) => batch.push(e),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                        batch.extend(tap.try_iter());
                        if !batch.is_empty() {
                            inner.route(&batch);
                            batch.clear();
                        }
                        if last_sweep.elapsed() >= sweep_every {
                            last_sweep = Instant::now();
                            inner.reap_detached();
                        }
                    }
                })
                .expect("spawn pump thread")
        };

        Ok(DaemonServer {
            inner,
            acceptor,
            reactors,
            pump,
            local_addr,
        })
    }

    /// The resolved listen address (TCP port `0` becomes the actual
    /// kernel-assigned port) — what clients should dial.
    pub fn local_addr(&self) -> &ServerAddr {
        &self.local_addr
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.snapshot()
    }

    /// Stops accepting, closes every connection (crashing their bound
    /// processes, as any ungraceful disconnect does), tears the backend
    /// down, and returns the full run record. Restart notices are
    /// snapshotted *after* the runtime joins, so a recovery racing the
    /// shutdown still lands in [`ServerRun::restarts`].
    pub fn shutdown(self) -> ServerRun {
        self.inner.running.store(false, Ordering::Relaxed);
        let _ = self.acceptor.join();
        if let Some(reactors) = self.inner.reactors.get() {
            for shared in reactors {
                shared.post([Cmd::Shutdown]);
            }
        }
        for handle in self.reactors {
            let _ = handle.join();
        }
        let _ = self.pump.join();
        let backend = self.inner.backend.lock().take();
        let (events, link, restarts, scale) = match backend {
            Some(Backend::Threaded(sys)) => {
                let run = sys.shutdown_complete(Duration::ZERO);
                (run.events, run.link, run.restarts, None)
            }
            Some(Backend::Scale(svc)) => {
                let (events, report) = svc.stop();
                (events, LinkSummary::default(), Vec::new(), Some(report))
            }
            None => (Vec::new(), LinkSummary::default(), Vec::new(), None),
        };
        ServerRun {
            events,
            link,
            restarts,
            scale,
            stats: self.inner.stats.snapshot(),
        }
    }
}
