//! The daemon client: dials a [`DaemonServer`](crate::DaemonServer),
//! binds dining processes, and drives hungry → granted → released cycles
//! over the EKN2 wire protocol.
//!
//! [`MuxClient`] is one socket fronting any number of dining processes
//! (one process is just a block of one). Every binding, the connection's
//! first included, is a single `Bind` carrying that process's own
//! credentials — zero for a fresh session — answered with `Bound` (the
//! credentials to present next time, plus the admission path) or with
//! `BindReject`. Event frames are process-tagged, so the caller demuxes
//! with [`MuxClient::next_event`].
//!
//! The client owns the retry policy: dial failures, busy sheds, and (on
//! reconnect) a server that has not yet noticed the dead connection back
//! off exponentially with seeded jitter (deterministic per client,
//! decorrelated across a fleet). A busy `BindReject` carries the server's
//! retry hint; the one retry loop honors `max(hint, backoff)` exactly
//! once per attempt, and never sleeps after the final attempt — a failed
//! call returns at once, with the hint in the error for the caller's own
//! scheduling.

use crate::conn::{splitmix64, Conn, ServerAddr};
use crate::wire::{
    decode_frame, encode_frame_into, AdmitPath, Frame, WireError, REJECT_ALREADY_BOUND,
    REJECT_BAD_PROCESS, REJECT_BUSY, REJECT_UNKNOWN_SESSION,
};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Client-side policy knobs.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Seed for the jittered backoff stream (mixed with the first
    /// process id, so a fleet sharing one seed still decorrelates).
    pub seed: u64,
    /// First backoff step in milliseconds; doubles per failed attempt.
    pub base_backoff_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub max_backoff_ms: u64,
    /// Dial and bind attempts before giving up.
    pub max_attempts: u32,
    /// Socket read timeout in milliseconds (the granularity at which
    /// waits notice their deadline).
    pub read_timeout_ms: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            seed: 1,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            max_attempts: 8,
            read_timeout_ms: 25,
        }
    }
}

/// Why a client operation failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server refused a `Bind` with this `REJECT_*` code.
    Rejected(u8),
    /// Every attempt was shed busy at the admission cap.
    Busy {
        /// The server's most recent retry hint, in milliseconds.
        hint_ms: u32,
    },
    /// The wait's deadline passed.
    Timeout,
    /// The server sent bytes that are not a valid frame.
    Protocol(WireError),
    /// The connection closed mid-operation.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Rejected(code) => write!(f, "rejected by server (code {code})"),
            ClientError::Busy { hint_ms } => {
                write!(f, "shed busy on every attempt (retry hint {hint_ms}ms)")
            }
            ClientError::Timeout => write!(f, "timed out"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Sleeps before the next attempt — but only if one remains. The server's
/// busy hint and the client's own jittered backoff are reconciled by
/// taking the larger of the two, once; they never stack.
fn sleep_before_retry(
    cfg: &ClientConfig,
    rng: &mut u64,
    attempt: u32,
    attempts: u32,
    last: &ClientError,
) {
    if attempt + 1 >= attempts {
        return;
    }
    let mut delay = backoff(cfg, rng, attempt);
    if let ClientError::Busy { hint_ms } = last {
        delay = delay.max(Duration::from_millis(u64::from(*hint_ms)));
    }
    std::thread::sleep(delay);
}

/// The one retry loop: runs `op` up to `cfg.max_attempts` times, sleeping
/// between attempts while it fails with an error `transient` accepts.
/// Any other error returns at once; busy sheds are tallied either way.
fn retry<T>(
    cfg: &ClientConfig,
    rng: &mut u64,
    busy_retries: &mut u64,
    transient: fn(&ClientError) -> bool,
    mut op: impl FnMut() -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let attempts = cfg.max_attempts.max(1);
    let mut attempt = 0;
    loop {
        let e = match op() {
            Ok(v) => return Ok(v),
            Err(e) => e,
        };
        if matches!(e, ClientError::Busy { .. }) {
            *busy_retries += 1;
        }
        if !transient(&e) || attempt + 1 >= attempts {
            return Err(e);
        }
        sleep_before_retry(cfg, rng, attempt, attempts, &e);
        attempt += 1;
    }
}

/// A dial that failed at the socket level may succeed later.
fn dial_failed(e: &ClientError) -> bool {
    matches!(e, ClientError::Io(_))
}

/// A busy shed clears once the admission cap has room again.
fn shed_busy(e: &ClientError) -> bool {
    matches!(e, ClientError::Busy { .. })
}

/// Readmission after a dead connection: besides busy sheds, the server
/// may still hold the process bound to the dead socket until it notices
/// the hang-up.
fn readmit_pending(e: &ClientError) -> bool {
    shed_busy(e) || matches!(e, ClientError::Rejected(REJECT_ALREADY_BOUND))
}

/// Credentials of one bound session, as issued by its last `Bound`.
#[derive(Clone, Copy, Debug)]
struct Creds {
    session: u64,
    token: u64,
}

impl Creds {
    /// No credentials: ask for a fresh session.
    const FRESH: Creds = Creds {
        session: 0,
        token: 0,
    };
}

/// One process bound on a [`MuxClient`] connection.
#[derive(Clone, Copy, Debug)]
struct Binding {
    process: u32,
    creds: Creds,
}

/// Bytes per socket read, and the held-request size that forces a write.
const CHUNK: usize = 4096;

/// One dialed connection: the socket, its read accumulator, the requests
/// held for the next write, and the table events decoded while a control
/// call waited for its answer.
///
/// `Hungry` requests are held, not written: the held bytes go out in one
/// `write_all` before the link blocks on a socket read, ahead of any
/// control frame, and once they reach [`CHUNK`]. A write error surfaces
/// from whichever call made the write.
struct Link {
    conn: Conn,
    acc: Vec<u8>,
    /// Bytes of `acc` already decoded.
    at: usize,
    held: Vec<u8>,
    pending: VecDeque<MuxEvent>,
}

impl Link {
    fn dial(addr: &ServerAddr, cfg: &ClientConfig) -> Result<Link, ClientError> {
        let conn = Conn::dial(addr)?;
        conn.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))))?;
        Ok(Link {
            conn,
            acc: Vec::with_capacity(CHUNK),
            at: 0,
            held: Vec::with_capacity(CHUNK),
            pending: VecDeque::new(),
        })
    }

    /// Holds a request frame for the next write.
    fn hold(&mut self, frame: &Frame) -> Result<(), ClientError> {
        encode_frame_into(frame, &mut self.held);
        if self.held.len() >= CHUNK {
            self.write_held()?;
        }
        Ok(())
    }

    /// Sends a control frame now, behind every held request.
    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        encode_frame_into(frame, &mut self.held);
        self.write_held()
    }

    fn write_held(&mut self) -> Result<(), ClientError> {
        if self.held.is_empty() {
            return Ok(());
        }
        let written = self.conn.write_all(&self.held);
        self.held.clear();
        Ok(written?)
    }

    /// The one frame-read loop: the next frame that is not a heartbeat,
    /// answering server `Ping`s inline so that any blocked wait keeps the
    /// connection alive.
    fn read_frame(&mut self, deadline: Instant) -> Result<Frame, ClientError> {
        loop {
            match decode_frame(&self.acc[self.at..]) {
                Ok(Some((frame, n))) => {
                    self.at += n;
                    match frame {
                        Frame::Ping { nonce } => self.send(&Frame::Pong { nonce })?,
                        Frame::Pong { .. } => {}
                        other => return Ok(other),
                    }
                    continue;
                }
                Ok(None) => {}
                Err(e) => return Err(ClientError::Protocol(e)),
            }
            self.acc.drain(..self.at);
            self.at = 0;
            // Held requests go out before the wait for their answers.
            self.write_held()?;
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout);
            }
            let mut chunk = [0u8; CHUNK];
            match self.conn.read(&mut chunk) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(n) => self.acc.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Waits for the control frame `is_answer` accepts. Table events that
    /// arrive meanwhile are kept for [`MuxClient::next_event`]; stale
    /// answers to other control calls are dropped.
    fn await_answer(&mut self, is_answer: impl Fn(&Frame) -> bool) -> Result<Frame, ClientError> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let frame = self.read_frame(deadline)?;
            if is_answer(&frame) {
                return Ok(frame);
            }
            match frame {
                Frame::Granted { process, at_ms } => {
                    self.pending.push_back(MuxEvent::Granted { process, at_ms });
                }
                Frame::Released { process, at_ms } => {
                    self.pending
                        .push_back(MuxEvent::Released { process, at_ms });
                }
                Frame::Bound { .. } | Frame::BindReject { .. } | Frame::Unbound { .. } => {}
                frame => return Err(unexpected(frame)),
            }
        }
    }

    /// One `Bind` round trip: the admission path and the credentials the
    /// server issued, or the refusal as an error.
    fn bind(&mut self, process: u32, creds: Creds) -> Result<(AdmitPath, Creds), ClientError> {
        self.send(&Frame::Bind {
            process,
            session: creds.session,
            token: creds.token,
        })?;
        let answer = self.await_answer(|f| {
            matches!(f, Frame::Bound { process: p, .. } | Frame::BindReject { process: p, .. }
                if *p == process)
        })?;
        match answer {
            Frame::Bound {
                path,
                session,
                token,
                ..
            } => Ok((path, Creds { session, token })),
            Frame::BindReject {
                code: REJECT_BUSY,
                retry_after_ms,
                ..
            } => Err(ClientError::Busy {
                hint_ms: retry_after_ms,
            }),
            Frame::BindReject { code, .. } => Err(ClientError::Rejected(code)),
            frame => Err(unexpected(frame)),
        }
    }

    /// Readmits `process` under its own credentials, falling back to a
    /// fresh bind when the server no longer knows the session (the
    /// detach-TTL reaper deleted it).
    fn rebind(&mut self, process: u32, creds: Creds) -> Result<(AdmitPath, Creds), ClientError> {
        match self.bind(process, creds) {
            Err(ClientError::Rejected(REJECT_UNKNOWN_SESSION)) => self.bind(process, Creds::FRESH),
            other => other,
        }
    }
}

/// One demultiplexed table event from a [`MuxClient`] connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MuxEvent {
    /// `process` was granted the table at server time `at_ms`.
    Granted {
        /// The granted process.
        process: u32,
        /// Server-side grant time, ms.
        at_ms: u64,
    },
    /// `process` released the table at server time `at_ms`.
    Released {
        /// The releasing process.
        process: u32,
        /// Server-side release time, ms.
        at_ms: u64,
    },
}

/// A multiplexed session: one socket fronting many dining processes.
///
/// [`connect`](Self::connect) dials and binds the first process;
/// [`bind`](Self::bind) adds more. Each binding keeps its own credentials,
/// so [`reconnect`](Self::reconnect) readmits every process as itself.
/// All event frames arrive process-tagged on the one socket; drive the
/// whole block with [`hungry`](Self::hungry) /
/// [`next_event`](Self::next_event).
pub struct MuxClient {
    addr: ServerAddr,
    cfg: ClientConfig,
    link: Link,
    rng: u64,
    /// Every process bound here, in bind order.
    bindings: Vec<Binding>,
    /// Busy sheds absorbed by this client's retry loops so far.
    pub busy_retries: u64,
}

impl fmt::Debug for MuxClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MuxClient")
            .field("addr", &self.addr)
            .field("bound", &self.processes())
            .finish_non_exhaustive()
    }
}

impl MuxClient {
    /// Dials `addr` and binds `first` fresh, retrying dial failures and
    /// busy sheds with jittered backoff.
    pub fn connect(addr: &ServerAddr, first: u32, cfg: ClientConfig) -> Result<Self, ClientError> {
        let mut rng = cfg.seed ^ (u64::from(first) << 32) ^ 0x3A7E_11E5;
        let mut busy_retries = 0;
        let link = retry(&cfg, &mut rng, &mut busy_retries, dial_failed, || {
            Link::dial(addr, &cfg)
        })?;
        let mut client = MuxClient {
            addr: addr.clone(),
            cfg,
            link,
            rng,
            bindings: Vec::new(),
            busy_retries,
        };
        client.bind(first)?;
        Ok(client)
    }

    /// Every process currently bound on this connection, in bind order.
    pub fn processes(&self) -> Vec<u32> {
        self.bindings.iter().map(|b| b.process).collect()
    }

    fn is_bound(&self, process: u32) -> bool {
        self.bindings.iter().any(|b| b.process == process)
    }

    /// Binds `process` fresh onto this connection, retrying busy sheds,
    /// and returns the admission path the server reported for it.
    pub fn bind(&mut self, process: u32) -> Result<AdmitPath, ClientError> {
        let (path, creds) = retry(
            &self.cfg,
            &mut self.rng,
            &mut self.busy_retries,
            shed_busy,
            || self.link.bind(process, Creds::FRESH),
        )?;
        self.bindings.push(Binding { process, creds });
        Ok(path)
    }

    /// Gracefully detaches one bound process; the others stay bound.
    pub fn unbind(&mut self, process: u32) -> Result<(), ClientError> {
        if !self.is_bound(process) {
            return Err(ClientError::Rejected(REJECT_BAD_PROCESS));
        }
        self.link.send(&Frame::Unbind { process })?;
        self.link
            .await_answer(|f| matches!(f, Frame::Unbound { process: p } if *p == process))?;
        self.bindings.retain(|b| b.process != process);
        Ok(())
    }

    /// Requests to eat on behalf of any bound process. The request is
    /// held and goes out with the next write: at the latest when this
    /// client next waits on the socket ([`next_event`](Self::next_event)
    /// or a control call), so a burst of requests costs one write.
    pub fn hungry(&mut self, process: u32) -> Result<(), ClientError> {
        if !self.is_bound(process) {
            return Err(ClientError::Rejected(REJECT_BAD_PROCESS));
        }
        self.link.hold(&Frame::Hungry { process })
    }

    /// The next table event for *any* bound process, answering
    /// heartbeats along the way.
    pub fn next_event(&mut self, timeout: Duration) -> Result<MuxEvent, ClientError> {
        if let Some(e) = self.link.pending.pop_front() {
            return Ok(e);
        }
        let deadline = Instant::now() + timeout;
        loop {
            match self.link.read_frame(deadline)? {
                Frame::Granted { process, at_ms } => {
                    return Ok(MuxEvent::Granted { process, at_ms })
                }
                Frame::Released { process, at_ms } => {
                    return Ok(MuxEvent::Released { process, at_ms })
                }
                // Stale control answers are dropped, not errors.
                Frame::Bound { .. } | Frame::BindReject { .. } | Frame::Unbound { .. } => {}
                frame => return Err(unexpected(frame)),
            }
        }
    }

    /// Re-establishes the whole block after a dead connection: redials,
    /// then re-binds every process under its *own* credentials (falling
    /// back to a fresh bind for a session the server reaped). Returns each
    /// readmitted process with the admission path the server reported for
    /// it, in bind order. A process the server now refuses outright (bound
    /// elsewhere meanwhile) is dropped from the block, not fatal. Requests
    /// still held for the dead link are discarded: re-request hunger
    /// after a reconnect.
    pub fn reconnect(&mut self) -> Result<Vec<(u32, AdmitPath)>, ClientError> {
        self.link = retry(
            &self.cfg,
            &mut self.rng,
            &mut self.busy_retries,
            dial_failed,
            || Link::dial(&self.addr, &self.cfg),
        )?;
        let mut paths = Vec::with_capacity(self.bindings.len());
        let mut rest = std::mem::take(&mut self.bindings).into_iter();
        while let Some(b) = rest.next() {
            let readmitted = retry(
                &self.cfg,
                &mut self.rng,
                &mut self.busy_retries,
                readmit_pending,
                || self.link.rebind(b.process, b.creds),
            );
            match readmitted {
                Ok((path, creds)) => {
                    self.bindings.push(Binding {
                        process: b.process,
                        creds,
                    });
                    paths.push((b.process, path));
                }
                Err(ClientError::Rejected(_)) => {}
                Err(e) => {
                    // Keep the unreadmitted rest for a later attempt.
                    self.bindings.push(b);
                    self.bindings.extend(rest);
                    return Err(e);
                }
            }
        }
        Ok(paths)
    }

    /// Simulates an abrupt client death: hard-closes the socket without
    /// `Bye`. The server crashes *every* process bound here.
    pub fn kill(&mut self) {
        self.link.conn.kill();
    }

    /// Graceful goodbye: the server detaches every bound process without
    /// crashing any of them.
    pub fn bye(mut self) {
        let _ = self.link.send(&Frame::Bye);
        self.link.conn.kill();
    }
}

fn unexpected(frame: Frame) -> ClientError {
    // The server only sends framed protocol states; anything else here
    // means the two sides disagree about the session phase.
    let _ = frame;
    ClientError::Closed
}

/// Jittered exponential backoff: full period doubling capped at the
/// ceiling, then uniformly jittered over `[delay/2, delay]` so a fleet
/// retrying together spreads out instead of thundering back as a herd.
fn backoff(cfg: &ClientConfig, rng: &mut u64, attempt: u32) -> Duration {
    let exp = attempt.min(16);
    let delay = cfg
        .base_backoff_ms
        .max(1)
        .saturating_mul(1u64 << exp)
        .min(cfg.max_backoff_ms.max(1));
    let half = delay / 2;
    let jitter = splitmix64(rng) % (half + 1);
    Duration::from_millis(half + jitter)
}
