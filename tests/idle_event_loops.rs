//! An idle server makes no wake-ups: every replica's and router's event
//! loop blocks in `poll(2)` until there is I/O, with its connections
//! open. The loops are found by their thread name in
//! `/proc/self/task/*/status`; this file holds a single test so no other
//! test's traffic wakes the loops it watches.

use std::time::Duration;

use im_pir::core::topology::{FleetTopology, ReplicaSpec, RouterSpec};
use im_pir::core::transport::{MuxConnection, PirTransport, TcpTransport};
use im_pir::core::PirClient;
use impir_server::router::PirRouter;
use impir_server::{build_service, EVENT_LOOP_THREAD};

/// Context switches (voluntary plus involuntary) of every event-loop
/// thread in this process, by thread id.
fn event_loop_switches() -> Vec<(String, u64)> {
    let mut loops = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let task = task.unwrap();
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited while we looked
        };
        let field = |name: &str| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(name))
                .map(str::trim)
                .unwrap_or_default()
                .to_string()
        };
        if field("Name:") != EVENT_LOOP_THREAD {
            continue;
        }
        let switches: u64 = ["voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:"]
            .iter()
            .map(|name| field(name).parse::<u64>().unwrap())
            .sum();
        loops.push((task.file_name().to_string_lossy().into_owned(), switches));
    }
    loops.sort();
    loops
}

#[test]
fn idle_replicas_and_routers_make_no_context_switches() {
    let mut topology = FleetTopology::new(256, 16, 99);
    for name in ["a", "b"] {
        topology
            .replicas
            .push(ReplicaSpec::tcp(name, "127.0.0.1:0"));
    }
    let services: Vec<_> = (0..2)
        .map(|index| build_service(&topology, index).unwrap())
        .collect();
    for (replica, service) in topology.replicas.iter_mut().zip(&services) {
        replica.listen = Some(service.addr().to_string());
    }
    // A probe interval far beyond the idle window: the router's own
    // health checks would otherwise wake the replicas.
    topology.router = Some(RouterSpec {
        listen: "127.0.0.1:0".to_string(),
        probe_interval_ms: 60_000,
        max_lag_epochs: 0,
    });
    let router = PirRouter::bind(&topology).unwrap();

    // Open sessions on every loop — plain, multiplexed and routed — and
    // use each once, so the loops idle with live connections to watch.
    let mut client = PirClient::new(256, 16, 3).unwrap();
    let (shares, _) = client.generate_batch(&[7, 200]).unwrap();
    let mut sessions: Vec<Box<dyn PirTransport>> = vec![
        Box::new(TcpTransport::connect(router.addr()).unwrap()),
        Box::new(TcpTransport::connect(router.addr()).unwrap()),
    ];
    let mux = MuxConnection::connect(services[0].addr()).unwrap();
    sessions.push(Box::new(mux.session().unwrap()));
    sessions.push(Box::new(TcpTransport::connect(services[1].addr()).unwrap()));
    for session in &mut sessions {
        assert_eq!(session.query_batch(&shares).unwrap().responses.len(), 2);
    }

    std::thread::sleep(Duration::from_millis(100));
    let before = event_loop_switches();
    assert_eq!(
        before.len(),
        3,
        "one `{EVENT_LOOP_THREAD}` thread per replica and one for the router: {before:?}"
    );
    std::thread::sleep(Duration::from_millis(500));
    let after = event_loop_switches();
    assert_eq!(before, after, "idle event loops woke up");

    drop(sessions);
    drop(mux);
    router.shutdown();
    services
        .into_iter()
        .for_each(impir_server::PirService::shutdown);
}
