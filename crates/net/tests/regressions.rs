//! Session-lifecycle regression tests.
//!
//! Each test here pins one bug from the lifecycle sweep that shipped
//! with the reactor rewrite, and fails on the pre-sweep code:
//!
//! 1. detached sessions were never reaped, so a churned (crash-stop)
//!    fleet permanently exhausted the admission cap;
//! 2. a busy shed was slept on twice — once inside the dial on the
//!    server's hint, once in the retry loop's backoff — and the retry
//!    loops also slept after the *final* failed attempt; a busy shed of
//!    a `Bind` on an established connection ignored the hint and was
//!    never retried at all;
//! 3. `shutdown` snapshotted restart notices before runtime teardown,
//!    dropping a restart racing the shutdown;
//! 4. the Unix-socket listener unconditionally unlinked its path, so a
//!    second server silently stole a live server's socket;
//! 5. a connected-but-silent dialer was counted as a protocol error,
//!    polluting the misbehavior signal operators alert on.
//!
//! Later fixes and rules pinned here:
//!
//! 6. a `Bye` that arrived in the same read as the client's EOF was
//!    dropped, so a graceful goodbye was usually handled as a crash;
//! 7. the slow-reader rule: a connection is shed only once the frames its
//!    socket *refused* reach `send_queue` — a reader that never reads is
//!    shed, a reader handed a burst larger than `send_queue` in one
//!    reactor turn is not.

use ekbd_graph::topology;
use ekbd_net::wire::REJECT_ALREADY_BOUND;
use ekbd_net::{
    AdmitPath, BackendSpec, ClientConfig, ClientError, DaemonServer, MuxClient, MuxEvent,
    ServerAddr, ServerConfig,
};
use ekbd_runtime::{RuntimeConfig, ThreadedDining};
use ekbd_sim::ProcessId;
use std::time::{Duration, Instant};

fn ephemeral_tcp() -> ServerAddr {
    ServerAddr::Tcp("127.0.0.1:0".into())
}

/// Satellite 1: crash-stop clients (killed, never resuming) must not
/// hold their admission slots forever. With a short detach TTL, a
/// churned fleet's slots return to the pool and later clients get in.
#[test]
fn churned_fleet_does_not_exhaust_admission() {
    let cfg = ServerConfig {
        max_sessions: 2,
        detach_ttl_ms: 50,
        busy_retry_ms: 20,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(8), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();

    // Wave one fills the cap, then crash-stops without a Bye.
    let mut a = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    let mut b = MuxClient::connect(&addr, 1, ClientConfig::default()).unwrap();
    a.kill();
    b.kill();

    // Wave two targets different processes; without the reaper the dead
    // sessions pin both slots and every attempt here sheds busy until
    // the retry budget runs out.
    let retrying = ClientConfig {
        base_backoff_ms: 20,
        max_backoff_ms: 100,
        max_attempts: 12,
        ..ClientConfig::default()
    };
    let c = MuxClient::connect(&addr, 4, retrying.clone())
        .expect("slot reclaimed from crash-stopped client");
    let d = MuxClient::connect(&addr, 5, retrying).expect("second slot reclaimed too");
    c.bye();
    d.bye();

    let stats = server.stats();
    assert!(
        stats.reaped >= 2,
        "both dead sessions were reaped: {stats:?}"
    );
    server.shutdown();
}

/// Satellite 2: one shed, one sleep. Each busy `BindReject` returns the
/// server's hint immediately; the retry loop honors `max(hint, backoff)`
/// once per retry and never sleeps after the final attempt. The pre-fix
/// client stacked hint + backoff per attempt *and* slept once more
/// before giving up, so its wall time here was
/// ≥ 3 × 200 ms of hint alone plus backoff — comfortably past the bound
/// this test enforces.
#[test]
fn busy_shed_sleeps_the_hint_once_and_never_after_the_last_attempt() {
    let cfg = ServerConfig {
        max_sessions: 0,
        busy_retry_ms: 200,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(3), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let client_cfg = ClientConfig {
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        max_attempts: 3,
        ..ClientConfig::default()
    };
    let t0 = Instant::now();
    let out = MuxClient::connect(&addr, 0, client_cfg);
    let elapsed = t0.elapsed();
    assert!(
        matches!(out, Err(ClientError::Busy { hint_ms: 200 })),
        "shed with the server's hint attached: {out:?}"
    );
    // Three attempts, two inter-attempt sleeps of max(200, ~1) ms each:
    // the hint is honored (≥ ~400 ms) but neither stacked with the
    // backoff nor slept a third, terminal time (< 520 ms leaves slack
    // for dial overhead while still failing the double-sleep code).
    assert!(
        elapsed >= Duration::from_millis(350),
        "the server's retry hint was honored: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(520),
        "no stacked or terminal backoff sleeps: {elapsed:?}"
    );
    server.shutdown();
}

/// Satellite 2, bind half: a `Bind` shed on an already-admitted
/// connection goes through the same loop — it waits out the server's hint
/// between attempts instead of failing at once with an invented one.
#[test]
fn bind_shed_on_a_live_connection_retries_on_the_server_hint() {
    let cfg = ServerConfig {
        max_sessions: 1,
        busy_retry_ms: 200,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(3), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let client_cfg = ClientConfig {
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        max_attempts: 3,
        ..ClientConfig::default()
    };
    let mut client = MuxClient::connect(&addr, 0, client_cfg).unwrap();
    let t0 = Instant::now();
    let out = client.bind(1);
    let elapsed = t0.elapsed();
    assert!(
        matches!(out, Err(ClientError::Busy { hint_ms: 200 })),
        "shed with the server's hint attached: {out:?}"
    );
    assert_eq!(client.busy_retries, 3, "every attempt was shed");
    assert!(
        elapsed >= Duration::from_millis(350),
        "the server's retry hint was honored: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(520),
        "no stacked or terminal backoff sleeps: {elapsed:?}"
    );
    assert_eq!(client.processes(), vec![0], "the connection stays up");
    client.bye();
    assert_eq!(server.shutdown().stats.shed_busy, 3);
}

/// Satellite 3: a restart racing shutdown must appear in the final run.
/// `Recover` is ordered before `Shutdown` in each process mailbox, so
/// with the snapshot taken *after* teardown the notice is guaranteed;
/// the pre-fix code snapshotted before teardown and lost it.
#[test]
fn shutdown_snapshot_includes_restarts_racing_the_teardown() {
    let sys = ThreadedDining::spawn_recoverable(topology::ring(3), RuntimeConfig::default());
    sys.crash(ProcessId(0));
    // No settling sleep: the recover is still in flight when shutdown
    // begins, which is exactly the race.
    sys.recover(ProcessId(0));
    let run = sys.shutdown_complete(Duration::ZERO);
    assert_eq!(
        run.restarts.len(),
        1,
        "the racing restart must be in the snapshot: {:?}",
        run.restarts
    );
}

/// Satellite 4, stale half: a leftover socket file from a dead server
/// must not block a new one — probe-connect refuses, unlink, bind.
#[cfg(unix)]
#[test]
fn uds_bind_clears_a_stale_socket_file() {
    let path = std::env::temp_dir().join(format!("ekbd-net-stale-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // A bound-then-dropped listener leaves the file behind with nobody
    // accepting — the crashed-server shape.
    drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
    assert!(path.exists(), "stale socket file is on disk");

    let server = DaemonServer::start(
        topology::ring(3),
        &ServerAddr::Uds(path.clone()),
        ServerConfig::default(),
    )
    .expect("stale file is cleared and the bind succeeds");
    let addr = server.local_addr().clone();
    let client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    client.bye();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Satellite 4, live half: a second server must *not* steal the socket
/// out from under a running one. The probe connects, so the bind is
/// refused with `AddrInUse` — and the first server keeps serving.
#[cfg(unix)]
#[test]
fn uds_bind_refuses_a_live_server() {
    let path = std::env::temp_dir().join(format!("ekbd-net-live-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = DaemonServer::start(
        topology::ring(3),
        &ServerAddr::Uds(path.clone()),
        ServerConfig::default(),
    )
    .unwrap();

    let second = DaemonServer::start(
        topology::ring(3),
        &ServerAddr::Uds(path.clone()),
        ServerConfig::default(),
    );
    match second {
        Err(e) => assert_eq!(
            e.kind(),
            std::io::ErrorKind::AddrInUse,
            "live server is refused, not stolen: {e}"
        ),
        Ok(_) => panic!("second server must not bind over a live one"),
    }

    // The first server is unharmed — its socket file still answers.
    let addr = server.local_addr().clone();
    let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    client.hungry(0).unwrap();
    let mut granted = false;
    loop {
        match client.next_event(Duration::from_secs(5)).unwrap() {
            MuxEvent::Granted { process: 0, .. } => granted = true,
            MuxEvent::Released { process: 0, .. } if granted => break,
            _ => {}
        }
    }
    client.bye();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Satellite 5: a dialer that connects and never speaks is dropped at
/// the handshake deadline and counted as a *timeout*, not a protocol
/// error — it broke no framing rule. The pre-fix server folded both
/// into `protocol_errors`, polluting the signal operators alert on.
#[test]
fn silent_dialer_counts_as_handshake_timeout_not_protocol_error() {
    let cfg = ServerConfig {
        handshake_ms: 100,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(3), &ephemeral_tcp(), cfg).unwrap();
    let ServerAddr::Tcp(raw_addr) = server.local_addr().clone() else {
        unreachable!("tcp server")
    };

    let silent = std::net::TcpStream::connect(&raw_addr).unwrap();
    // Hold the socket open, say nothing, and give the deadline sweep
    // time to convict.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.handshake_timeouts == 1 {
            assert_eq!(
                stats.protocol_errors, 0,
                "silence is not a framing violation: {stats:?}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "handshake sweep never fired: {stats:?}",
            stats = server.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(silent);
    server.shutdown();
}

/// Binds `process` on `client`, waiting out `ALREADY_BOUND` while the
/// server has not yet processed the end of the connection that held it.
fn bind_once_released(client: &mut MuxClient, process: u32) -> AdmitPath {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.bind(process) {
            Ok(path) => return path,
            Err(ClientError::Rejected(REJECT_ALREADY_BOUND)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("bind p{process}: {e}"),
        }
    }
}

/// Fix 6: `bye()` writes `Bye` and closes at once, so the server often
/// reads the frame and the EOF together. It must dispatch the `Bye`
/// before hanging up: the process is detached gracefully, and binding it
/// again is fresh, not a rejoin after a crash. The pre-fix server hung up
/// first and reported `Rejoined` in most of these runs.
#[test]
fn bye_read_together_with_eof_is_graceful() {
    for run in 0..20 {
        let server =
            DaemonServer::start(topology::ring(3), &ephemeral_tcp(), ServerConfig::default())
                .unwrap();
        let addr = server.local_addr().clone();
        MuxClient::connect(&addr, 0, ClientConfig::default())
            .unwrap()
            .bye();
        let mut next = MuxClient::connect(&addr, 1, ClientConfig::default()).unwrap();
        let path = bind_once_released(&mut next, 0);
        assert_eq!(path, AdmitPath::Fresh, "run {run}: p0 was crashed by bye()");
        next.bye();
        let run_stats = server.shutdown().stats;
        assert_eq!(run_stats.rejoined, 0, "run {run}: {run_stats:?}");
    }
}

fn scale_server(n: usize, send_queue: usize) -> DaemonServer {
    let cfg = ServerConfig {
        backend: BackendSpec::Scale { seed: 3 },
        max_sessions: n,
        send_queue,
        ..ServerConfig::default()
    };
    DaemonServer::start(topology::ring(n), &ephemeral_tcp(), cfg).unwrap()
}

/// Rule 7, shed half: a client that keeps asking to eat but never reads
/// its grants fills the socket buffers; once the frames the socket
/// refuses reach `send_queue`, the server sheds it and detaches its
/// processes.
#[test]
fn reader_that_never_reads_is_shed_and_detached() {
    let k = 256u32;
    let server = scale_server(k as usize + 1, 16);
    let addr = server.local_addr().clone();
    let mut silent = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    for p in 1..k {
        silent.bind(p).unwrap();
    }
    // Every completed cycle sends two frames this client never reads.
    // The requests are paced: a flood would only keep the kernel busy
    // taking them in.
    let deadline = Instant::now() + Duration::from_secs(30);
    'asking: while server.stats().shed_slow == 0 {
        assert!(
            Instant::now() < deadline,
            "never shed: {:?}",
            server.stats()
        );
        for p in 0..k {
            if silent.hungry(p).is_err() {
                break 'asking; // the server already closed the socket
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().shed_slow == 0 {
        assert!(
            Instant::now() < deadline,
            "never shed: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Its processes were detached: another client binds every one.
    let mut next = MuxClient::connect(&addr, k, ClientConfig::default()).unwrap();
    for p in 0..k {
        assert_eq!(bind_once_released(&mut next, p), AdmitPath::Fresh);
    }
    next.bye();
    drop(silent);
    let stats = server.shutdown().stats;
    assert!(stats.shed_slow >= 1, "{stats:?}");
}

/// Rule 7, keep half: a client that keeps reading is never shed, even
/// when one reactor turn queues it many more frames than `send_queue`.
/// All 32 processes go hungry in one write; the kernel grants about half
/// of them at once, and the pump hands those grants to the reactor as
/// one batch, far past a `send_queue` of 4.
#[test]
fn reader_that_keeps_reading_survives_bursts_past_send_queue() {
    let k = 32u32;
    let server = scale_server(k as usize, 4);
    let addr = server.local_addr().clone();
    let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    for p in 1..k {
        client.bind(p).unwrap();
    }
    for round in 0..20 {
        for p in 0..k {
            client.hungry(p).unwrap();
        }
        let mut released = 0;
        while released < k {
            match client.next_event(Duration::from_secs(5)) {
                Ok(MuxEvent::Released { .. }) => released += 1,
                Ok(MuxEvent::Granted { .. }) => {}
                Err(e) => panic!("round {round}: {e} after {released} releases"),
            }
        }
    }
    client.bye();
    let stats = server.shutdown().stats;
    assert_eq!(stats.shed_slow, 0, "a reading client was shed: {stats:?}");
}
