//! Acceptance test for the service layer: a real-socket deployment
//! (`PirService` sessions over `TcpTransport`) must answer **byte
//! identically** to the in-process `LocalTransport` path over the same
//! topology replica — before and after bulk updates.
//!
//! Every server here is built from a [`FleetTopology`] with
//! [`build_service`] — the same construction path as
//! `impir-server --config` — and the in-process comparison engines come
//! from [`FleetTopology::build_engine`], so the equivalence being pinned
//! is between *transports*, never between two hand-wired engines that
//! could drift apart. Ephemeral ports (`:0`) keep parallel test runs from
//! colliding; clients dial whatever the services actually bound.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use im_pir::core::multi_server::NServerNaivePir;
use im_pir::core::scheme::TwoServerPir;
use im_pir::core::topology::{
    BackendSpec, FleetTopology, RebalanceMode, ReplicaSpec, RouterSpec, ShardPolicy,
};
use im_pir::core::transport::{LocalTransport, MuxConnection, PirTransport, TcpTransport};
use im_pir::core::wire::{Frame, WIRE_VERSION};
use im_pir::core::{PirClient, PirError};
use impir_server::router::PirRouter;
use impir_server::{build_service, build_service_with, ServiceConfig};

const RECORDS: u64 = 600;
const RECORD_BYTES: usize = 24;
const DB_SEED: u64 = 1717;

/// A single-replica CPU fleet with `shards` uniform shards.
fn cpu_fleet(shards: usize) -> FleetTopology {
    let mut topology = FleetTopology::new(RECORDS, RECORD_BYTES, DB_SEED);
    topology.sharding = ShardPolicy::Uniform(shards);
    topology
        .replicas
        .push(ReplicaSpec::tcp("alpha", "127.0.0.1:0"));
    topology
}

#[test]
fn tcp_and_local_transports_answer_byte_identically_across_updates() {
    let indices = [0u64, 1, 299, 300, 599, 123, 123];
    let updates: Vec<(u64, Vec<u8>)> = vec![
        (0, vec![0x11; RECORD_BYTES]),
        (299, vec![0x22; RECORD_BYTES]),
        (300, vec![0x33; RECORD_BYTES]),
        (599, vec![0x44; RECORD_BYTES]),
    ];

    for shards in [1usize, 3] {
        // The same topology replica behind a socket and behind a direct
        // call.
        let topology = cpu_fleet(shards);
        let service = build_service(&topology, 0).unwrap();
        let mut remote = TcpTransport::connect(service.addr()).unwrap();
        let mut local = LocalTransport::new(topology.build_engine(0).unwrap());

        // Both transports describe the same server.
        let remote_info = remote.server_info().unwrap();
        let local_info = local.server_info().unwrap();
        assert_eq!(remote_info, local_info, "shards={shards}");

        // Identical client seeds -> identical shares for both paths.
        let mut client = PirClient::new(RECORDS, RECORD_BYTES, 5).unwrap();
        let (shares, _) = client.generate_batch(&indices).unwrap();

        let over_wire = remote.query_batch(&shares).unwrap();
        let in_process = local.query_batch(&shares).unwrap();
        assert_eq!(
            over_wire.responses, in_process.responses,
            "pre-update responses must be byte-identical (shards={shards})"
        );
        assert_eq!(over_wire.epoch, in_process.epoch);
        // Wire-cost accounting is transport-independent.
        assert_eq!(over_wire.upload_bytes, in_process.upload_bytes);
        assert_eq!(over_wire.download_bytes, in_process.download_bytes);

        // Apply the same update batch through both transports.
        let remote_ack = remote.apply_updates(&updates).unwrap();
        let local_ack = local.apply_updates(&updates).unwrap();
        assert_eq!(remote_ack.records_updated, local_ack.records_updated);
        assert_eq!(remote_ack.epoch, 1);
        assert_eq!(local_ack.epoch, 1);

        let over_wire = remote.query_batch(&shares).unwrap();
        let in_process = local.query_batch(&shares).unwrap();
        assert_eq!(
            over_wire.responses, in_process.responses,
            "post-update responses must be byte-identical (shards={shards})"
        );
        assert_eq!(over_wire.epoch, 1);

        // Selector scans (the n-server path) agree too, and carry the
        // post-update epoch so mid-query interleavings are detectable.
        let selector: impir_dpf::SelectorVector = (0..RECORDS).map(|i| i % 7 == 2).collect();
        let wire_scan = remote.scan_selector(&selector).unwrap();
        let local_scan = local.scan_selector(&selector).unwrap();
        assert_eq!(wire_scan.payload, local_scan.payload, "shards={shards}");
        assert_eq!(wire_scan.epoch, 1);
        assert_eq!(local_scan.epoch, 1);

        service.shutdown();
    }
}

#[test]
fn event_tier_answers_byte_identically_to_the_oracle_across_updates() {
    // One service, reached both ways a client can hold a session — its
    // own connection, or a logical session multiplexed onto a shared one —
    // compared against the same in-process oracle, pre- and post-update:
    // nothing on the wire reveals how the event loop carried the request.
    let indices = [0u64, 1, 299, 300, 599, 123, 123];
    let updates: Vec<(u64, Vec<u8>)> = vec![
        (0, vec![0x11; RECORD_BYTES]),
        (299, vec![0x22; RECORD_BYTES]),
        (599, vec![0x44; RECORD_BYTES]),
    ];

    let service = build_service(&cpu_fleet(3), 0).unwrap();
    let mut plain = TcpTransport::connect(service.addr()).unwrap();
    let mux = MuxConnection::connect(service.addr()).unwrap();
    let mut muxed = mux.session().unwrap();
    let mut oracle = LocalTransport::new(cpu_fleet(3).build_engine(0).unwrap());

    assert_eq!(plain.server_info().unwrap(), oracle.server_info().unwrap());
    assert_eq!(muxed.server_info().unwrap(), oracle.server_info().unwrap());

    let mut client = PirClient::new(RECORDS, RECORD_BYTES, 5).unwrap();
    let (shares, _) = client.generate_batch(&indices).unwrap();
    for round in ["pre-update", "post-update"] {
        let expected = oracle.query_batch(&shares).unwrap();
        for (way, transport) in [
            ("plain", &mut plain as &mut dyn PirTransport),
            ("muxed", &mut muxed),
        ] {
            let reply = transport.query_batch(&shares).unwrap();
            assert_eq!(reply.responses, expected.responses, "{round}, {way}");
            assert_eq!(reply.epoch, expected.epoch, "{round}, {way}");
        }
        // The update goes through the plain session; the muxed one sees
        // its epoch on the next round.
        if round == "pre-update" {
            assert_eq!(plain.apply_updates(&updates).unwrap().epoch, 1);
            assert_eq!(oracle.apply_updates(&updates).unwrap().epoch, 1);
        }
    }
    assert_eq!(muxed.epoch_info().unwrap().current_epoch, 1);

    drop((plain, muxed, mux));
    service.shutdown();
}

#[test]
fn interleaved_mux_sessions_match_separate_connections() {
    // N logical sessions multiplexed onto ONE TCP connection, driven
    // concurrently from N threads, must answer byte-identically to the
    // same N query streams issued over N separate connections: session
    // multiplexing is invisible to the PIR protocol.
    const SESSIONS: usize = 4;
    const WAVES: usize = 3;
    let topology = cpu_fleet(2);
    let service = build_service(&topology, 0).unwrap();

    let share_batches: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let mut client = PirClient::new(RECORDS, RECORD_BYTES, 40 + i as u64).unwrap();
            let indices = [i as u64, 100 + i as u64, 599 - i as u64];
            let (shares, _) = client.generate_batch(&indices).unwrap();
            shares
        })
        .collect();

    // The baseline: each stream over its own dedicated connection.
    let separate: Vec<Vec<_>> = share_batches
        .iter()
        .map(|shares| {
            let mut transport = TcpTransport::connect(service.addr()).unwrap();
            (0..WAVES)
                .map(|_| transport.query_batch(shares).unwrap())
                .collect()
        })
        .collect();

    // The same streams interleaved on one multiplexed connection; the
    // barrier makes every session fire its waves concurrently so the
    // frames genuinely interleave on the socket.
    let conn = MuxConnection::connect(service.addr()).unwrap();
    let barrier = Arc::new(std::sync::Barrier::new(SESSIONS));
    let multiplexed: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = share_batches
            .iter()
            .map(|shares| {
                let mut session = conn.session().unwrap();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    (0..WAVES)
                        .map(|_| session.query_batch(shares).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (session, (mux_waves, separate_waves)) in multiplexed.iter().zip(&separate).enumerate() {
        for (wave, (muxed, dedicated)) in mux_waves.iter().zip(separate_waves).enumerate() {
            assert_eq!(
                muxed.responses, dedicated.responses,
                "session {session} wave {wave}: multiplexed responses must be \
                 byte-identical to a dedicated connection"
            );
            assert_eq!(muxed.epoch, dedicated.epoch);
        }
    }

    drop(conn);
    service.shutdown();
}

/// Writes one frame to a raw socket — the hostile-client's-eye view of
/// the protocol, no transport layer in between.
fn write_frame(stream: &mut TcpStream, frame: &Frame) {
    stream.write_all(&frame.encode().unwrap()).unwrap();
}

/// Reads one length-prefixed frame from a raw socket.
fn read_frame(stream: &mut TcpStream) -> Frame {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let body_len = u32::from_le_bytes(len) as usize;
    let mut buf = len.to_vec();
    buf.resize(4 + body_len, 0);
    stream.read_exact(&mut buf[4..]).unwrap();
    Frame::decode(&buf).unwrap()
}

#[test]
fn event_tier_sheds_overload_with_typed_refusals_and_recovers() {
    // Saturate a 1-slot admission queue: a bulk update occupies the
    // dispatcher while three multiplexed query sessions arrive on the
    // same connection. At least one must be refused with the *typed*
    // `Overloaded` frame — not a generic error, never a dropped
    // connection — and after the queue drains the very same sessions
    // keep serving.
    let service = build_service_with(
        &cpu_fleet(1),
        0,
        ServiceConfig {
            admission_capacity: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    let mut stream = TcpStream::connect(service.addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    );
    assert!(matches!(
        read_frame(&mut stream),
        Frame::HelloAck {
            version: WIRE_VERSION,
            ..
        }
    ));

    // A bulk update big enough to hold the dispatcher for a while.
    let updates: Vec<(u64, Vec<u8>)> = (0..120_000u64)
        .map(|i| (i % RECORDS, vec![(i % 251) as u8; RECORD_BYTES]))
        .collect();
    let mut client = PirClient::new(RECORDS, RECORD_BYTES, 31).unwrap();
    let (shares, _) = client.generate_batch(&[0, 299, 599]).unwrap();

    // One burst, written back-to-back before reading any reply: the
    // update grabs the dispatcher, the first query takes the only
    // admission slot, the rest must be shed.
    write_frame(
        &mut stream,
        &wrap(
            1,
            Frame::UpdateBatch {
                updates: updates.clone(),
            },
        ),
    );
    for session in 2..=4u32 {
        write_frame(
            &mut stream,
            &wrap(
                session,
                Frame::QueryBatch {
                    shares: shares.clone(),
                },
            ),
        );
    }

    let mut shed = Vec::new();
    let mut answered = Vec::new();
    let mut update_acked = false;
    for _ in 0..4 {
        match read_frame(&mut stream) {
            Frame::Mux { session: 1, frame } => {
                assert!(matches!(*frame, Frame::UpdateAck { outcome } if outcome.epoch == 1));
                update_acked = true;
            }
            Frame::Mux { session, frame } => match *frame {
                Frame::Overloaded { retry_after_ms } => {
                    assert!(retry_after_ms > 0, "the backoff hint must be usable");
                    shed.push(session);
                }
                Frame::ResponseBatch { epoch, .. } => {
                    // An admitted query ran after the update the
                    // dispatcher was busy with — never against the
                    // pre-update database.
                    assert_eq!(epoch, 1);
                    answered.push(session);
                }
                other => panic!("unexpected reply for session {session}: {other:?}"),
            },
            other => panic!("unexpected unmuxed reply: {other:?}"),
        }
    }
    assert!(update_acked);
    assert!(
        !shed.is_empty(),
        "a full admission queue must shed at least one of the burst queries"
    );

    // Recovery: the shed sessions retry on the SAME connection and get
    // real answers, identical to the in-process oracle's.
    let mut oracle = LocalTransport::new(cpu_fleet(1).build_engine(0).unwrap());
    oracle.apply_updates(&updates).unwrap();
    let expected = oracle.query_batch(&shares).unwrap();
    for session in shed {
        write_frame(
            &mut stream,
            &wrap(
                session,
                Frame::QueryBatch {
                    shares: shares.clone(),
                },
            ),
        );
        match read_frame(&mut stream) {
            Frame::Mux {
                session: replied,
                frame,
            } => {
                assert_eq!(replied, session);
                match *frame {
                    Frame::ResponseBatch {
                        epoch, responses, ..
                    } => {
                        assert_eq!(epoch, 1);
                        assert_eq!(
                            responses, expected.responses,
                            "a recovered session answers byte-identically"
                        );
                    }
                    Frame::Overloaded { retry_after_ms } => {
                        panic!("queue already drained, nothing to shed ({retry_after_ms}ms hint)")
                    }
                    other => panic!("unexpected recovery reply: {other:?}"),
                }
            }
            other => panic!("unexpected unmuxed recovery reply: {other:?}"),
        }
    }

    drop(stream);
    service.shutdown();
}

/// Wraps `frame` for one logical session.
fn wrap(session: u32, frame: Frame) -> Frame {
    Frame::Mux {
        session,
        frame: Box::new(frame),
    }
}

#[test]
fn hostile_mux_input_gets_a_protocol_error_not_a_crash() {
    // A nested Mux on a live event-tier connection produces a clean
    // protocol error (and a closed connection) — the server stays up and
    // keeps serving fresh connections.
    let service = build_service(&cpu_fleet(1), 0).unwrap();

    let mut stream = TcpStream::connect(service.addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    );
    let Frame::HelloAck { .. } = read_frame(&mut stream) else {
        panic!("handshake failed");
    };
    // Hand-built nested Mux — the encoder refuses to produce this, so
    // splice the bytes together manually.
    let inner = wrap(2, Frame::InfoRequest).encode().unwrap();
    let mut body = vec![18u8]; // outer Mux tag
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&inner[4..]); // inner tag + body, no prefix
    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&body);
    stream.write_all(&bytes).unwrap();
    match read_frame(&mut stream) {
        Frame::Error { message } => assert!(
            message.contains("Mux"),
            "the error names the violation: {message}"
        ),
        other => panic!("expected a protocol error frame, got {other:?}"),
    }

    // The violation cost that connection only; the service still serves.
    let mut fresh = TcpTransport::connect(service.addr()).unwrap();
    assert_eq!(fresh.server_info().unwrap().num_records, RECORDS);
    drop(fresh);
    drop(stream);
    service.shutdown();
}

#[test]
fn a_mid_session_hello_is_a_protocol_violation_on_every_tier() {
    // A second `Hello` after the handshake — plain on the root session or
    // muxed on a logical one — earns an `Error` frame for that session
    // and then a closed connection, on a replica and on a router alike.
    let mut topology = cpu_fleet(1);
    let service = build_service(&topology, 0).unwrap();
    topology.replicas[0].listen = Some(service.addr().to_string());
    topology.router = Some(RouterSpec {
        listen: "127.0.0.1:0".to_string(),
        probe_interval_ms: 60_000,
        max_lag_epochs: 0,
    });
    let router = PirRouter::bind(&topology).unwrap();
    for (tier, addr) in [("replica", service.addr()), ("router", router.addr())] {
        for session in [None, Some(1u32)] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            let hello = Frame::Hello {
                version: WIRE_VERSION,
            };
            write_frame(&mut stream, &hello);
            let Frame::HelloAck { .. } = read_frame(&mut stream) else {
                panic!("handshake failed on the {tier}");
            };
            let again = match session {
                None => hello,
                Some(id) => wrap(id, hello),
            };
            write_frame(&mut stream, &again);
            let reply = match (session, read_frame(&mut stream)) {
                (None, reply) => reply,
                (Some(id), Frame::Mux { session, frame }) if session == id => *frame,
                (_, other) => panic!("{tier}: reply for the wrong session: {other:?}"),
            };
            match reply {
                Frame::Error { message } => assert!(
                    message.contains("Hello"),
                    "{tier}, session {session:?}: the error names the frame: {message}"
                ),
                other => panic!("{tier}, session {session:?}: expected Error, got {other:?}"),
            }
            let mut rest = [0u8; 1];
            assert_eq!(
                stream.read(&mut rest).unwrap(),
                0,
                "{tier}, session {session:?}: the violation closes the connection"
            );
        }
    }
    router.shutdown();
    service.shutdown();
}

#[test]
fn client_side_overloaded_error_is_typed_and_retryable() {
    // The client-facing face of load shedding: a MuxSession surfaces the
    // refusal as `PirError::Overloaded` with the server's backoff hint,
    // and the same session succeeds on retry.
    let service = build_service_with(
        &cpu_fleet(1),
        0,
        ServiceConfig {
            admission_capacity: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    let conn = MuxConnection::connect(service.addr()).unwrap();
    let mut client = PirClient::new(RECORDS, RECORD_BYTES, 47).unwrap();
    let (shares, _) = client.generate_batch(&[5, 505]).unwrap();
    let updates: Vec<(u64, Vec<u8>)> = (0..120_000u64)
        .map(|i| (i % RECORDS, vec![0x3C; RECORD_BYTES]))
        .collect();

    // One session holds the dispatcher with a bulk update while two more
    // hammer queries; with a single admission slot at least one query
    // observes the typed refusal.
    let saw_overload = std::thread::scope(|scope| {
        let updater = {
            let mut session = conn.session().unwrap();
            let updates = &updates;
            scope.spawn(move || session.apply_updates(updates).unwrap())
        };
        let queriers: Vec<_> = (0..2)
            .map(|_| {
                let mut session = conn.session().unwrap();
                let shares = &shares;
                scope.spawn(move || {
                    let mut hits = 0u32;
                    for _ in 0..200 {
                        match session.query_batch(shares) {
                            Ok(_) => {}
                            Err(PirError::Overloaded { retry_after_ms }) => {
                                assert!(retry_after_ms > 0);
                                hits += 1;
                            }
                            Err(other) => panic!("only typed shedding is acceptable: {other}"),
                        }
                    }
                    // Recovery on the very same logical session.
                    session.query_batch(shares).unwrap();
                    hits
                })
            })
            .collect();
        assert_eq!(updater.join().unwrap().epoch, 1);
        queriers.into_iter().map(|h| h.join().unwrap()).sum::<u32>()
    });
    assert!(
        saw_overload > 0,
        "two query sessions against a 1-slot queue during a bulk update \
         must observe at least one typed Overloaded refusal"
    );

    drop(conn);
    service.shutdown();
}

#[test]
fn a_fully_remote_two_server_deployment_reconstructs_records() {
    // Two replicas with different shard layouts — distribution policy is
    // replica-local and invisible on the wire.
    let mut topology = FleetTopology::new(RECORDS, RECORD_BYTES, DB_SEED);
    let mut alpha = ReplicaSpec::tcp("alpha", "127.0.0.1:0");
    alpha.sharding = Some(ShardPolicy::Uniform(2));
    let mut beta = ReplicaSpec::tcp("beta", "127.0.0.1:0");
    beta.sharding = Some(ShardPolicy::Uniform(3));
    topology.replicas.push(alpha);
    topology.replicas.push(beta);
    let db = topology.build_database().unwrap();

    let service_1 = build_service(&topology, 0).unwrap();
    let service_2 = build_service(&topology, 1).unwrap();
    let client = PirClient::new(RECORDS, RECORD_BYTES, 9).unwrap();
    let mut pir = TwoServerPir::from_transports(
        client,
        Box::new(TcpTransport::connect(service_1.addr()).unwrap()),
        Box::new(TcpTransport::connect(service_2.addr()).unwrap()),
    )
    .unwrap();
    for index in [0u64, 42, 599] {
        assert_eq!(pir.query(index).unwrap(), db.record(index));
    }

    // An update that reaches both replicas keeps the deployment serving.
    pir.apply_updates(&[(42, vec![0x77; RECORD_BYTES])])
        .unwrap();
    assert_eq!(pir.query(42).unwrap(), vec![0x77; RECORD_BYTES]);

    // An update that reaches only one replica is detected on the next
    // query, which replays the lag from the healthy replica's journal and
    // answers from the converged version — never a silent mixed-epoch
    // reconstruction.
    pir.transport(0)
        .unwrap()
        .apply_updates(&[(0, vec![0x99; RECORD_BYTES])])
        .unwrap();
    assert_eq!(pir.query(0).unwrap(), vec![0x99; RECORD_BYTES]);
    assert_eq!(pir.server_info(0).unwrap().epoch, 2);
    assert_eq!(pir.server_info(1).unwrap().epoch, 2);

    drop(pir);
    service_1.shutdown();
    service_2.shutdown();
}

#[test]
fn a_local_topology_builds_a_working_two_server_deployment() {
    // The all-in-process construction path: `from_topology` spins both
    // replicas up behind LocalTransports — no sockets, same scheme code.
    let mut topology = FleetTopology::new(RECORDS, RECORD_BYTES, DB_SEED);
    topology.sharding = ShardPolicy::Uniform(2);
    topology.replicas.push(ReplicaSpec::local("left"));
    topology.replicas.push(ReplicaSpec::local("right"));
    let db = topology.build_database().unwrap();

    let mut pir = TwoServerPir::from_topology(&topology).unwrap();
    for index in [0u64, 321, 599] {
        assert_eq!(pir.query(index).unwrap(), db.record(index));
    }
    pir.apply_updates(&[(7, vec![0x5A; RECORD_BYTES])]).unwrap();
    assert_eq!(pir.query(7).unwrap(), vec![0x5A; RECORD_BYTES]);
}

#[test]
fn pim_backends_serve_over_the_wire_identically_too() {
    // The transport layer is backend-agnostic: a (simulated) PIM engine
    // behind a socket answers byte-identically to the same engine driven
    // directly — both built from the same topology replica.
    let mut topology = FleetTopology::new(240, 16, 77);
    topology.sharding = ShardPolicy::Uniform(2);
    let mut replica = ReplicaSpec::tcp("pim", "127.0.0.1:0");
    replica.backend = BackendSpec::Pim {
        dpus: 4,
        clusters: 2,
    };
    topology.replicas.push(replica);

    let service = build_service(&topology, 0).unwrap();
    let mut remote = TcpTransport::connect(service.addr()).unwrap();
    let mut local = LocalTransport::new(topology.build_engine(0).unwrap());

    let mut client = PirClient::new(240, 16, 11).unwrap();
    let (shares, _) = client.generate_batch(&[0, 100, 239, 100]).unwrap();
    let over_wire = remote.query_batch(&shares).unwrap();
    let in_process = local.query_batch(&shares).unwrap();
    assert_eq!(over_wire.responses, in_process.responses);
    // The PIM phase accounting crosses the wire intact.
    assert!(over_wire.phase_totals.dpxor.simulated_seconds.unwrap() > 0.0);
    drop(remote);
    service.shutdown();
}

#[test]
fn n_server_naive_scheme_runs_over_a_remote_transport() {
    let topology = cpu_fleet(2);
    let db = topology.build_database().unwrap();
    let service = build_service(&topology, 0).unwrap();
    let transport = TcpTransport::connect(service.addr()).unwrap();
    let mut remote_pir = NServerNaivePir::with_transport(Box::new(transport), 3, 13).unwrap();
    let mut local_pir = NServerNaivePir::sharded(Arc::clone(&db), 3, 2, 13).unwrap();
    for index in [0u64, 321, 599] {
        // Same seed -> same shares -> identical records, across transports.
        assert_eq!(remote_pir.query(index).unwrap(), db.record(index));
        assert_eq!(local_pir.query(index).unwrap(), db.record(index));
    }
    assert_eq!(
        remote_pir.upload_bytes_per_query(),
        local_pir.upload_bytes_per_query()
    );
    drop(remote_pir);
    service.shutdown();
}

#[test]
fn auto_rebalancing_services_answer_byte_identically_to_a_static_oracle() {
    // `rebalance = auto` closes the measured-skew loop inside the
    // dispatcher, between query waves. Whether (and when) a migration
    // fires depends on measured wall times, so this pins the invariant
    // that must hold either way: every response over the wire stays
    // byte-identical to a static in-process oracle that never rebalances
    // — shard layouts, moving or not, are invisible to clients.
    let mut topology = cpu_fleet(3);
    topology.rebalance = RebalanceMode::Auto;
    let service = build_service(&topology, 0).unwrap();
    let mut remote = TcpTransport::connect(service.addr()).unwrap();

    let static_topology = cpu_fleet(3);
    let mut oracle = LocalTransport::new(static_topology.build_engine(0).unwrap());

    let mut client = PirClient::new(RECORDS, RECORD_BYTES, 23).unwrap();
    let indices = [0u64, 1, 199, 200, 399, 400, 599, 77];
    for round in 0..4 {
        let (shares, _) = client.generate_batch(&indices).unwrap();
        let over_wire = remote.query_batch(&shares).unwrap();
        let in_process = oracle.query_batch(&shares).unwrap();
        assert_eq!(
            over_wire.responses, in_process.responses,
            "round {round}: responses must not depend on rebalancing activity"
        );
    }

    // Updates keep flowing through a (possibly rebalanced) engine: the
    // journal absorbs migrations as ordinary epoch steps, so the batch
    // applies and the new bytes are served.
    let service_epoch = remote.epoch_info().unwrap().current_epoch;
    let update = vec![(42u64, vec![0xE1; RECORD_BYTES])];
    let ack = remote.apply_updates(&update).unwrap();
    assert_eq!(ack.epoch, service_epoch + 1);
    oracle.apply_updates(&update).unwrap();
    let (shares, _) = client.generate_batch(&indices).unwrap();
    let over_wire = remote.query_batch(&shares).unwrap();
    let in_process = oracle.query_batch(&shares).unwrap();
    assert_eq!(over_wire.responses, in_process.responses);

    drop(remote);
    service.shutdown();
}
