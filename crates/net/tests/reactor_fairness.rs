//! Reactor fairness under a flooding client.
//!
//! A reactor used to read each ready connection until its socket ran
//! dry, so one client calling `hungry` flat out kept its reactor reading
//! it alone while every other connection on that reactor waited. Reads
//! are now capped per connection per reactor turn. The test lives in a
//! binary of its own so that it measures latency without the other
//! regression tests competing for the same cores.

use ekbd_graph::topology;
use ekbd_net::{
    BackendSpec, ClientConfig, DaemonServer, MuxClient, MuxEvent, ServerAddr, ServerConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A client flooding `hungry` for its own process must not starve a
/// well-behaved neighbor on the same reactor. The flooder writes requests
/// flat out and never reads; `send_queue` is set high enough that it is
/// not shed as a slow reader while the test runs. The neighbor's grant
/// latency is measured over 2000 closed-loop cycles (or ten seconds).
/// Alone its p99 is about 0.1 ms. Beside the flooder it was usually
/// 40-300 ms before reads were capped, and is 4-9 ms with the cap.
#[test]
fn flooding_client_does_not_starve_its_reactor_neighbors() {
    let cfg = ServerConfig {
        backend: BackendSpec::Scale { seed: 3 },
        reactor_threads: 1,
        max_sessions: 8,
        send_queue: 1 << 20,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(
        topology::ring(8),
        &ServerAddr::Tcp("127.0.0.1:0".into()),
        cfg,
    )
    .unwrap();
    let addr = server.local_addr().clone();
    let stop = Arc::new(AtomicBool::new(false));
    let flooder = {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut flood = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
            while !stop.load(Ordering::Relaxed) {
                flood.hungry(0).unwrap();
            }
            flood.kill();
        })
    };
    // Let the flood reach full rate before measuring.
    std::thread::sleep(Duration::from_millis(200));
    let mut client = MuxClient::connect(&addr, 4, ClientConfig::default()).unwrap();
    // A starved client may take minutes for 2000 cycles; ten seconds of
    // them are plenty to show it.
    let give_up = Instant::now() + Duration::from_secs(10);
    let mut waits = Vec::with_capacity(2000);
    for cycle in 0..2000 {
        if Instant::now() > give_up {
            break;
        }
        let asked = Instant::now();
        client.hungry(4).unwrap();
        loop {
            match client.next_event(Duration::from_secs(5)) {
                Ok(MuxEvent::Granted { .. }) => waits.push(asked.elapsed()),
                Ok(MuxEvent::Released { .. }) => break,
                Err(e) => panic!("cycle {cycle}: {e}"),
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    flooder.join().unwrap();
    client.bye();
    let stats = server.shutdown().stats;
    assert_eq!(stats.shed_slow, 0, "the flooder was shed: {stats:?}");
    waits.sort();
    let p99 = waits[waits.len() * 99 / 100];
    assert!(
        p99 <= Duration::from_millis(20),
        "grant p99 {p99:?} beside a flooding client (median {:?})",
        waits[waits.len() / 2]
    );
}
