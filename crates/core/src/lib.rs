//! Algorithm 1 of Song & Pike, *"Eventually k-bounded Wait-Free Distributed
//! Daemons"* (DSN 2007): wait-free dining philosophers under eventual weak
//! exclusion (◇WX) with eventual 2-bounded waiting (◇2-BW), driven by the
//! locally scope-restricted eventually perfect failure detector ◇P₁.
//!
//! # The problem
//!
//! A *distributed daemon* schedules a set of processes so that no two
//! neighbors in a conflict graph execute conflicting actions simultaneously.
//! Daemons are classically implemented as dining-philosophers solutions, but
//! in purely asynchronous systems subject to crash faults, wait-free
//! scheduling is unsolvable: a crashed neighbor can starve a correct hungry
//! diner forever. The paper shows ◇P is sufficient (and, with its companion
//! result, necessary) to solve wait-free dining under *eventual* weak
//! exclusion — the safety net that makes crash-tolerant scheduling of
//! self-stabilizing protocols possible.
//!
//! # The algorithm
//!
//! Algorithm 1 combines two mechanisms, both crash-hardened by ◇P₁:
//!
//! * **Forks for safety.** Each conflict-graph edge carries a unique fork;
//!   eating requires every shared fork. Competition is resolved by static
//!   priorities (node colors); a token per edge regulates fork re-requests.
//!   A hungry process may *skip* a fork whose holder it suspects — the only
//!   way safety can be (finitely often) violated, and exactly what ◇WX
//!   permits.
//! * **An asynchronous doorway for fairness.** Before competing for forks, a
//!   hungry process must collect one ack per neighbor (or suspect it). A
//!   process inside the doorway defers acks, and — the paper's refinement of
//!   Choy & Singh's doorway — a hungry process grants at most **one** ack
//!   per neighbor per hungry session, which yields eventual *2*-bounded
//!   waiting.
//!
//! # This crate
//!
//! * [`DiningProcess`] — the per-process state machine, a line-by-line
//!   implementation of Algorithm 1's Actions 1–10. It is runtime-agnostic:
//!   events in, messages out, no clocks, no I/O.
//! * [`DiningAlgorithm`] — the trait that lets baselines (crash-oblivious
//!   doorway, naive priority dining, perfect-oracle dining) plug into the
//!   same harnesses and metrics.
//! * [`RecoverableDining`] — Algorithm 1 hardened for the crash-*recovery*
//!   fault model: incarnation-stamped messages, a per-edge rejoin handshake
//!   re-negotiating fork/token ownership after a restart, and a periodic
//!   audit-and-repair pass that makes the daemon state self-stabilizing
//!   under transient bit flips.
//! * [`daemon`] — the daemon-facing view: how a scheduled client (e.g. a
//!   self-stabilizing protocol) consumes eat-slots.
//!
//! # Example
//!
//! Two neighbors contending for one fork, messages shuttled by hand:
//!
//! ```
//! use ekbd_dining::{DiningProcess, DiningAlgorithm, DiningInput, DinerState};
//! use ekbd_graph::ProcessId;
//! use std::collections::BTreeSet;
//!
//! let (a, b) = (ProcessId(0), ProcessId(1));
//! // Colors 1 > 0: `a` has priority; fork starts at `a`, token at `b`.
//! let mut pa = DiningProcess::new(a, 1, [(b, 0)]);
//! let mut pb = DiningProcess::new(b, 0, [(a, 1)]);
//! let nobody = BTreeSet::new(); // no suspicions
//!
//! // `a` becomes hungry and sends a ping to `b`.
//! let mut out = Vec::new();
//! pa.handle(DiningInput::Hungry, &nobody, &mut out);
//! assert_eq!(pa.state(), DinerState::Hungry);
//!
//! // Shuttle messages until quiescence; `a` ends up eating.
//! let mut queues = vec![out];
//! while let Some(batch) = queues.pop() {
//!     for (to, msg) in batch {
//!         let mut replies = Vec::new();
//!         let (proc_, from) = if to == a { (&mut pa, b) } else { (&mut pb, a) };
//!         proc_.handle(DiningInput::Message { from, msg }, &nobody, &mut replies);
//!         if !replies.is_empty() { queues.push(replies); }
//!     }
//! }
//! assert_eq!(pa.state(), DinerState::Eating);
//! assert_eq!(pb.state(), DinerState::Thinking);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
mod msg;
mod process;
mod recovery;
mod traits;

pub use msg::DiningMsg;
pub use process::DiningProcess;
pub use recovery::{
    BlankReason, RecoverableDining, RecoveryMsg, RecoveryStats, RestartEvent, RestartPath,
    DEFAULT_STRIKES,
};
pub use traits::{DinerState, DiningAlgorithm, DiningInput, DiningObs};

pub use ekbd_detector::SuspicionView;
pub use ekbd_graph::ProcessId;
