//! Loopback integration tests: a real [`DaemonServer`] on an ephemeral
//! port (and a Unix socket), real clients, real kills.

use ekbd_graph::topology;
use ekbd_net::wire::{
    decode_frame, encode_frame, MAGIC, REJECT_ALREADY_BOUND, REJECT_BAD_PROCESS,
    REJECT_UNKNOWN_SESSION,
};
use ekbd_net::{
    run_load, AdmitPath, BackendSpec, ClientConfig, ClientError, DaemonServer, Frame, LoadPlan,
    MuxClient, MuxEvent, ServerAddr, ServerConfig,
};
use ekbd_runtime::RuntimeConfig;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn ephemeral_tcp() -> ServerAddr {
    ServerAddr::Tcp("127.0.0.1:0".into())
}

fn wait_timeout() -> Duration {
    Duration::from_secs(5)
}

/// One hungry → granted → released cycle of `process`; returns the
/// server-side grant and release times.
fn cycle(client: &mut MuxClient, process: u32) -> (u64, u64) {
    client.hungry(process).unwrap();
    let mut granted = None;
    loop {
        match client.next_event(wait_timeout()).unwrap() {
            MuxEvent::Granted { process: p, at_ms } if p == process => granted = Some(at_ms),
            MuxEvent::Released { process: p, at_ms } if p == process => {
                if let Some(g) = granted {
                    return (g, at_ms);
                }
            }
            _ => {}
        }
    }
}

#[test]
fn smoke_session_eats_over_tcp() {
    let server =
        DaemonServer::start(topology::ring(5), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    assert_eq!(client.processes(), vec![0]);
    let (granted_at, released_at) = cycle(&mut client, 0);
    assert!(released_at >= granted_at, "release follows grant");
    client.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.fresh, 1, "the first bind took the fresh path");
    assert_eq!(run.stats.resumed + run.stats.rejoined, 0);
    assert!(
        run.events
            .iter()
            .any(|e| e.obs == ekbd_dining::DiningObs::StartedEating),
        "the dining system recorded the meal"
    );
}

#[cfg(unix)]
#[test]
fn smoke_session_eats_over_uds() {
    let path = std::env::temp_dir().join(format!("ekbd-net-uds-{}.sock", std::process::id()));
    let server = DaemonServer::start(
        topology::ring(3),
        &ServerAddr::Uds(path.clone()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().clone();
    let mut client = MuxClient::connect(&addr, 1, ClientConfig::default()).unwrap();
    cycle(&mut client, 1);
    client.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.fresh, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn killed_client_resumes_its_session() {
    // With a journal directory the reconnect must ride the fast path.
    let dir = std::env::temp_dir().join(format!("ekbd-net-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            journal_dir: Some(dir.clone()),
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(3), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    cycle(&mut client, 0);

    client.kill();
    let paths = client.reconnect().expect("killed client reconnects");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].0, 0);
    assert_ne!(
        paths[0].1,
        AdmitPath::Fresh,
        "credentials revive the session"
    );

    // The revived session still gets fed.
    cycle(&mut client, 0);
    client.bye();

    let run = server.shutdown();
    assert_eq!(
        run.stats.resumed + run.stats.rejoined,
        1,
        "exactly one readmission: {:?}",
        run.stats
    );
    assert_eq!(run.restarts.len(), 1, "exactly one runtime restart");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_cap_sheds_with_busy() {
    let cfg = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(5), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let a = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    let b = MuxClient::connect(&addr, 1, ClientConfig::default()).unwrap();
    let over = MuxClient::connect(
        &addr,
        2,
        ClientConfig {
            max_attempts: 2,
            ..ClientConfig::default()
        },
    );
    assert!(
        matches!(over, Err(ClientError::Busy { .. })),
        "third session must be shed: {over:?}",
    );
    a.bye();
    b.bye();
    let run = server.shutdown();
    assert!(
        run.stats.shed_busy >= 2,
        "both attempts shed: {:?}",
        run.stats
    );
    assert_eq!(run.stats.fresh, 2, "cap admitted exactly two sessions");
}

#[test]
fn rejects_bad_process_and_double_binding() {
    let server =
        DaemonServer::start(topology::ring(3), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let out_of_range = MuxClient::connect(&addr, 99, ClientConfig::default());
    assert!(
        matches!(out_of_range, Err(ClientError::Rejected(REJECT_BAD_PROCESS))),
        "process outside the graph is rejected: {out_of_range:?}",
    );
    let first = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    let second = MuxClient::connect(&addr, 0, ClientConfig::default());
    assert!(
        matches!(second, Err(ClientError::Rejected(REJECT_ALREADY_BOUND))),
        "a live binding refuses a second connection: {second:?}",
    );
    first.bye();
    server.shutdown();
}

#[test]
fn malformed_frames_close_the_session_never_the_server() {
    let server =
        DaemonServer::start(topology::ring(3), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let ServerAddr::Tcp(raw_addr) = server.local_addr().clone() else {
        unreachable!("tcp server")
    };

    // Garbage before any binding.
    let mut garbage = TcpStream::connect(&raw_addr).unwrap();
    garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    // Valid magic, hostile length field.
    let mut hostile = TcpStream::connect(&raw_addr).unwrap();
    let mut frame = MAGIC.to_vec();
    frame.extend_from_slice(&u16::MAX.to_le_bytes());
    hostile.write_all(&frame).unwrap();
    // A correct session right afterwards still works: the server survived.
    let addr = server.local_addr().clone();
    let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    cycle(&mut client, 0);

    // Mid-session garbage kills only that session.
    let mut alive_then_garbage = MuxClient::connect(&addr, 1, ClientConfig::default()).unwrap();
    cycle(&mut alive_then_garbage, 1);
    drop(garbage);
    drop(hostile);

    client.bye();
    let run = server.shutdown();
    assert!(
        run.stats.protocol_errors >= 2,
        "both hostile connections were counted: {:?}",
        run.stats
    );
}

#[test]
fn mux_client_drives_many_processes_over_one_socket() {
    let server =
        DaemonServer::start(topology::ring(6), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let mut mux = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    for p in 1..=3u32 {
        assert_eq!(mux.bind(p).unwrap(), AdmitPath::Fresh);
    }
    assert_eq!(mux.processes(), vec![0, 1, 2, 3]);

    // All four go hungry on the same socket; every one must eat.
    for p in 0..=3u32 {
        mux.hungry(p).unwrap();
    }
    let mut ate = [false; 4];
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ate.iter().any(|&e| !e) {
        assert!(std::time::Instant::now() < deadline, "mux fleet starved");
        match mux.next_event(wait_timeout()).unwrap() {
            MuxEvent::Released { process, .. } => ate[process as usize] = true,
            MuxEvent::Granted { .. } => {}
        }
    }

    // Unbinding a secondary is graceful: no crash, no restart.
    mux.unbind(3).unwrap();
    assert!(mux.hungry(3).is_err(), "unbound process refuses requests");
    mux.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.fresh, 4, "four fresh Binds: {:?}", run.stats);
    assert_eq!(run.restarts.len(), 0, "graceful teardown crashed nobody");
}

#[test]
fn mux_kill_crashes_block_and_reconnect_rebinds_it() {
    let dir = std::env::temp_dir().join(format!("ekbd-net-mux-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            journal_dir: Some(dir.clone()),
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(4), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let mut mux = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    mux.bind(1).unwrap();
    mux.bind(2).unwrap();
    mux.hungry(0).unwrap();
    loop {
        if let MuxEvent::Released { process: 0, .. } = mux.next_event(wait_timeout()).unwrap() {
            break;
        }
    }

    mux.kill();
    let paths = mux.reconnect().expect("mux reconnect");
    assert_eq!(paths.len(), 3, "the whole block readmitted");
    for (p, path) in &paths {
        assert_ne!(
            *path,
            AdmitPath::Fresh,
            "p{p} readmitted with history, not fresh"
        );
    }

    // The revived block still gets fed.
    mux.hungry(1).unwrap();
    loop {
        if let MuxEvent::Released { process: 1, .. } = mux.next_event(wait_timeout()).unwrap() {
            break;
        }
    }
    mux.bye();
    let run = server.shutdown();
    assert_eq!(
        run.stats.resumed + run.stats.rejoined,
        3,
        "all three bindings were readmissions: {:?}",
        run.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loadgen_multiplexed_fleet_completes() {
    let server =
        DaemonServer::start(topology::ring(8), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let plan = LoadPlan {
        clients: 2,
        sessions_per_client: 3,
        think_ms: 1,
        kill_fraction: 0.0,
        seed: 5,
        grant_timeout_ms: 5_000,
        multiplex: 4,
        ..LoadPlan::default()
    };
    let report = run_load(&addr, &plan);
    let run = server.shutdown();
    assert_eq!(report.errors, Vec::<String>::new(), "no client failed");
    assert_eq!(report.planned_sessions, 2 * 4 * 3);
    assert_eq!(
        report.completed_sessions, report.planned_sessions,
        "every multiplexed cycle completed"
    );
    assert_eq!(
        run.stats.fresh, 8,
        "two connections admitted eight processes"
    );
}

#[test]
fn loadgen_fleet_with_kills_completes_and_readmits() {
    let dir = std::env::temp_dir().join(format!("ekbd-net-loadgen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            journal_dir: Some(dir.clone()),
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(4), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let plan = LoadPlan {
        clients: 4,
        sessions_per_client: 4,
        think_ms: 2,
        kill_fraction: 0.5,
        seed: 11,
        grant_timeout_ms: 5_000,
        ..LoadPlan::default()
    };
    let report = run_load(&addr, &plan);
    let run = server.shutdown();
    assert_eq!(report.errors, Vec::<String>::new(), "no client failed");
    assert_eq!(report.killed, 2, "half the fleet was killed");
    assert_eq!(report.reconnected, 2, "every killed client reconnected");
    assert_eq!(
        report.completed_sessions, report.planned_sessions,
        "wait-freedom end to end: every planned session completed"
    );
    assert_eq!(report.readmissions.len(), 2);
    for r in &report.readmissions {
        assert_ne!(r.path, AdmitPath::Fresh, "readmission kept the session");
    }
    assert_eq!(
        run.stats.resumed + run.stats.rejoined,
        2,
        "server agrees on the readmission count: {:?}",
        run.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A raw EKN2 connection for tests that must see the credentials on the
/// wire, which [`MuxClient`] keeps to itself.
struct RawConn {
    stream: TcpStream,
    acc: Vec<u8>,
}

impl RawConn {
    fn dial(addr: &ServerAddr) -> RawConn {
        let ServerAddr::Tcp(raw) = addr else {
            unreachable!("tcp server")
        };
        let stream = TcpStream::connect(raw).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .unwrap();
        RawConn {
            stream,
            acc: Vec::new(),
        }
    }

    /// Sends a `Bind` and returns the server's answer for `process`.
    fn bind(&mut self, process: u32, session: u64, token: u64) -> Frame {
        let bind = Frame::Bind {
            process,
            session,
            token,
        };
        self.stream.write_all(&encode_frame(&bind)).unwrap();
        let deadline = Instant::now() + wait_timeout();
        loop {
            let frame = self.next_frame(deadline);
            if matches!(frame, Frame::Bound { process: p, .. } | Frame::BindReject { process: p, .. }
                if p == process)
            {
                return frame;
            }
        }
    }

    /// The next frame other than a heartbeat, answering `Ping`s.
    fn next_frame(&mut self, deadline: Instant) -> Frame {
        let mut chunk = [0u8; 1024];
        loop {
            while let Some((frame, n)) = decode_frame(&self.acc).unwrap() {
                self.acc.drain(..n);
                match frame {
                    Frame::Ping { nonce } => {
                        let pong = encode_frame(&Frame::Pong { nonce });
                        self.stream.write_all(&pong).unwrap();
                    }
                    Frame::Pong { .. } => {}
                    frame => return frame,
                }
            }
            assert!(Instant::now() < deadline, "no frame before the deadline");
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("server closed the connection"),
                Ok(n) => self.acc.extend_from_slice(&chunk[..n]),
                Err(_) => {}
            }
        }
    }

    /// Like [`bind`](Self::bind), but waits out `ALREADY_BOUND` while the
    /// server has not yet noticed a killed connection.
    fn rebind(&mut self, process: u32, session: u64, token: u64) -> Frame {
        let deadline = Instant::now() + wait_timeout();
        loop {
            match self.bind(process, session, token) {
                Frame::BindReject {
                    code: REJECT_ALREADY_BOUND,
                    ..
                } if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                answer => return answer,
            }
        }
    }
}

#[test]
fn reconnect_readmits_every_process_under_its_own_credentials() {
    let dir = std::env::temp_dir().join(format!("ekbd-net-creds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            journal_dir: Some(dir.clone()),
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(6), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();

    // Four processes bound on one socket, each issued its own session.
    let mut first = RawConn::dial(&addr);
    let mut creds = Vec::new();
    for p in 0..4u32 {
        match first.bind(p, 0, 0) {
            Frame::Bound {
                path: AdmitPath::Fresh,
                session,
                token,
                ..
            } => creds.push((session, token)),
            other => panic!("p{p}: fresh bind answered {other:?}"),
        }
    }
    let mut sessions: Vec<u64> = creds.iter().map(|&(s, _)| s).collect();
    sessions.sort_unstable();
    sessions.dedup();
    assert_eq!(sessions.len(), 4, "one session per process: {creds:?}");

    // Kill the socket: every process on it crashes.
    first.stream.shutdown(std::net::Shutdown::Both).unwrap();
    let mut second = RawConn::dial(&addr);
    for p in 0..3u32 {
        let (session, token) = creds[p as usize];
        match second.rebind(p, session, token) {
            Frame::Bound {
                path,
                session: s,
                token: t,
                ..
            } => {
                assert_ne!(path, AdmitPath::Fresh, "p{p} readmitted with history");
                assert_eq!((s, t), (session, token), "p{p} kept its own session");
            }
            other => panic!("p{p}: readmission answered {other:?}"),
        }
    }

    // p3 presents p2's token: a stale credential is refused, and the
    // fresh bind it falls back to revives p3 under a new session.
    let (p3_session, _) = creds[3];
    let (_, p2_token) = creds[2];
    match second.rebind(3, p3_session, p2_token) {
        Frame::BindReject {
            code: REJECT_UNKNOWN_SESSION,
            retry_after_ms: 0,
            ..
        } => {}
        other => panic!("stale token answered {other:?}"),
    }
    match second.bind(3, 0, 0) {
        Frame::Bound { path, session, .. } => {
            assert_ne!(path, AdmitPath::Fresh, "the crashed process was recovered");
            assert_ne!(session, p3_session, "a fresh bind issues a new session");
        }
        other => panic!("fallback fresh bind answered {other:?}"),
    }

    drop(second);
    let run = server.shutdown();
    assert_eq!(
        run.stats.resumed + run.stats.rejoined,
        4,
        "all four were readmissions: {:?}",
        run.stats
    );
    assert_eq!(run.stats.fresh, 4, "only the first binds were fresh");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reactor's batched ingress: 256 `Hungry` frames arrive in one
/// write, are decoded off one read and handed to the backend together,
/// and every process is still granted and then released — in that order
/// for each process.
#[test]
fn hungry_burst_in_one_write_grants_then_releases_every_process() {
    let n = 256u32;
    let cfg = ServerConfig {
        backend: BackendSpec::Scale { seed: 9 },
        max_sessions: n as usize,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(n as usize), &ephemeral_tcp(), cfg).unwrap();
    let mut raw = RawConn::dial(server.local_addr());
    for p in 0..n {
        assert!(
            matches!(raw.bind(p, 0, 0), Frame::Bound { .. }),
            "p{p} bound"
        );
    }
    let burst: Vec<u8> = (0..n)
        .flat_map(|process| encode_frame(&Frame::Hungry { process }))
        .collect();
    let written = raw.stream.write(&burst).unwrap();
    assert_eq!(written, burst.len(), "the burst went out in one write");

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Seen {
        Nothing,
        Granted,
        Released,
    }
    let mut seen = vec![Seen::Nothing; n as usize];
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen.iter().any(|&s| s != Seen::Released) {
        match raw.next_frame(deadline) {
            Frame::Granted { process, .. } => {
                let s = &mut seen[process as usize];
                assert_eq!(*s, Seen::Nothing, "p{process} granted twice");
                *s = Seen::Granted;
            }
            Frame::Released { process, .. } => {
                let s = &mut seen[process as usize];
                assert_eq!(*s, Seen::Granted, "p{process} released before its grant");
                *s = Seen::Released;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    drop(raw);
    let run = server.shutdown();
    assert_eq!(run.stats.protocol_errors, 0, "{:?}", run.stats);
    assert_eq!(run.scale.expect("scale report").mistakes, 0);
}

/// `MuxClient::hungry` only holds its frame; the held requests must go
/// out before the client blocks in `next_event`, and ahead of a later
/// control call (`unbind`, `bye`), which must still complete.
#[test]
fn held_requests_go_out_before_the_client_waits() {
    let server =
        DaemonServer::start(topology::ring(6), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let k = 4u32;
    let mut mux = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    for p in 1..k {
        mux.bind(p).unwrap();
    }
    for p in 0..k {
        mux.hungry(p).unwrap();
    }
    let mut granted = vec![false; k as usize];
    let deadline = Instant::now() + Duration::from_secs(10);
    while granted.iter().any(|&g| !g) {
        assert!(Instant::now() < deadline, "held requests never went out");
        if let MuxEvent::Granted { process, .. } = mux.next_event(wait_timeout()).unwrap() {
            granted[process as usize] = true;
        }
    }

    // A held request, then an unbind of the same process: both go out,
    // in order, and the unbind is answered.
    mux.hungry(3).unwrap();
    mux.unbind(3).unwrap();
    assert_eq!(mux.processes(), vec![0, 1, 2]);

    // A held request, then a goodbye: the goodbye is still graceful, so
    // binding p0 afresh elsewhere is not a crash recovery.
    mux.hungry(0).unwrap();
    mux.bye();
    let mut next = MuxClient::connect(&addr, 5, ClientConfig::default()).unwrap();
    let deadline = Instant::now() + wait_timeout();
    let path = loop {
        match next.bind(0) {
            Err(ClientError::Rejected(REJECT_ALREADY_BOUND)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            other => break other.unwrap(),
        }
    };
    assert_eq!(
        path,
        AdmitPath::Fresh,
        "bye after a held request was graceful"
    );
    next.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.rejoined, 0, "{:?}", run.stats);
    assert_eq!(run.stats.protocol_errors, 0, "{:?}", run.stats);
}
