//! # ekbd-net — the daemon as a service
//!
//! Exposes a [`ThreadedDining`](ekbd_runtime::ThreadedDining) system over
//! the network: clients bind dining processes as *sessions* over TCP or
//! Unix-domain sockets and drive hungry → granted → released cycles,
//! while the paper's wait-freedom and exclusion guarantees keep holding
//! on the server side.
//!
//! The design maps network failures onto the crash-recovery fault model
//! the workspace already proves out:
//!
//! * a dead connection **crashes** the bound process — the daemon treats
//!   a vanished client exactly like a crashed philosopher, so its
//!   neighbors keep eating (wait-freedom under real packet loss);
//! * a reconnect **recovers** it — a `Bind` presenting the process's
//!   session credentials rides the journal fast-resume path when stable
//!   storage has a valid snapshot, and degrades to the blank rejoin
//!   handshake otherwise, with the taken path reported honestly in the
//!   `Bound` frame;
//! * overload is **shed, not queued**: binds past the session cap get a
//!   busy `BindReject` with a retry hint, slow readers are disconnected
//!   once their socket has refused a bounded number of frames, and
//!   silent connections are culled by a strike-gated heartbeat
//!   (suspicion, then conviction — the ◇P₁ idiom applied to sockets).
//!
//! Everything is plain `std::net` + a small readiness reactor over the
//! vendored epoll shim; there is no async runtime and no
//! thread-per-connection. A handful of reactor threads own slabs of
//! nonblocking connections, one event-pump thread bridges the dining
//! runtime's tap into the sessions, and blocking recovery waits run on
//! short-lived admission workers. Every binding is one `Bind`, and one
//! connection can carry many of them (the gateway shape, see
//! [`MuxClient`]); the server can front either the full threaded
//! runtime or the bit-packed scale-tier kernel
//! ([`server::BackendSpec`]). See `docs/NET.md` for the wire protocol
//! and operational guidance, and experiments E20/E21 for the measured
//! behavior under connection churn and reactor load.
//!
//! ## Quick tour
//!
//! ```no_run
//! use ekbd_net::{ClientConfig, DaemonServer, MuxClient, MuxEvent, ServerAddr, ServerConfig};
//! use ekbd_graph::topology;
//! use std::time::Duration;
//!
//! let server = DaemonServer::start(
//!     topology::ring(5),
//!     &ServerAddr::Tcp("127.0.0.1:0".into()),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let addr = server.local_addr().clone();
//!
//! let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
//! client.bind(1).unwrap();
//! client.hungry(1).unwrap();
//! while !matches!(
//!     client.next_event(Duration::from_secs(2)).unwrap(),
//!     MuxEvent::Released { process: 1, .. }
//! ) {}
//! client.bye();
//!
//! let run = server.shutdown();
//! assert!(run.stats.fresh >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod poll;

pub mod client;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, ClientError, MuxClient, MuxEvent};
pub use conn::ServerAddr;
pub use loadgen::{kill_set, run_load, LoadPlan, LoadReport, Readmission};
pub use server::{BackendSpec, DaemonServer, ServerConfig, ServerRun, ServerStats};
pub use wire::{AdmitPath, Frame, WireError};
