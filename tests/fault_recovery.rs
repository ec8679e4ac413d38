//! Fault-injection soak tests for the epoch-driven recovery path.
//!
//! Every test drives real query + update traffic through transports that
//! fail on a deterministic schedule ([`FaultSchedule`]), and pins the
//! recovered deployment byte-identical to a fault-free oracle running the
//! same committed traffic:
//!
//! * one-sided update failures (before and after the request reaches the
//!   server) recover automatically on the next operation;
//! * an update batch is applied **exactly once** per replica no matter
//!   where the failure lands — the epoch, not the ack, decides whether a
//!   retry is safe (idempotency regression);
//! * seeded schedules sweep many distinct failure interleavings, each
//!   reproducible from its seed;
//! * the real [`TcpTransport`] reconnects and retries through a
//!   frame-aware [`FaultProxy`] killing its connections, and never
//!   resends an update blindly;
//! * a lag the journal no longer covers fails closed with the typed
//!   [`PirError::JournalTruncated`] over the wire.

use std::sync::Arc;

use im_pir::core::database::Database;
use im_pir::core::engine::{EngineConfig, QueryEngine};
use im_pir::core::fault::{FaultAction, FaultInjectingTransport, FaultProxy, FaultSchedule};
use im_pir::core::scheme::TwoServerPir;
use im_pir::core::server::cpu::{CpuPirServer, CpuServerConfig};
use im_pir::core::transport::{
    LocalTransport, MuxConnection, PirTransport, RetryPolicy, TcpTransport,
};
use im_pir::core::{PirClient, PirError};
use impir_server::{PirService, ServiceConfig};

const RECORDS: u64 = 96;
const RECORD_BYTES: usize = 8;

fn cpu_engine(db: &Arc<Database>) -> QueryEngine<CpuPirServer> {
    QueryEngine::single(
        CpuPirServer::new(Arc::clone(db), CpuServerConfig::baseline()).unwrap(),
        EngineConfig::default(),
    )
    .unwrap()
}

fn local_transport(db: &Arc<Database>) -> Box<dyn PirTransport> {
    Box::new(LocalTransport::new(cpu_engine(db)))
}

/// A fault-free two-server deployment over `db` — the oracle the faulty
/// deployment must stay byte-identical to.
fn oracle_pir(db: &Arc<Database>) -> TwoServerPir {
    let client = PirClient::new(RECORDS, RECORD_BYTES, 1000).unwrap();
    TwoServerPir::from_transports(client, local_transport(db), local_transport(db)).unwrap()
}

/// Builds a deployment whose replicas fail on the given schedules.
///
/// Construction itself consumes one operation per transport (the geometry
/// handshake), so callers must not schedule a fault at index 0.
fn faulty_pir(
    db: &Arc<Database>,
    schedule_1: FaultSchedule,
    schedule_2: FaultSchedule,
) -> TwoServerPir {
    let client = PirClient::new(RECORDS, RECORD_BYTES, 7).unwrap();
    TwoServerPir::from_transports(
        client,
        Box::new(FaultInjectingTransport::new(
            local_transport(db),
            schedule_1,
        )),
        Box::new(FaultInjectingTransport::new(
            local_transport(db),
            schedule_2,
        )),
    )
    .unwrap()
}

/// Re-indexes a seeded schedule so operation 0 (the construction
/// handshake) always runs clean.
fn skipping_handshake(seed: u64, ops: u64, one_in: u64) -> FaultSchedule {
    let raw = FaultSchedule::seeded(seed, ops, one_in);
    let mut shifted = FaultSchedule::none();
    for index in 1..ops {
        if let Some(action) = raw.action_at(index) {
            shifted = shifted.with_fault(index, action);
        }
    }
    shifted
}

#[test]
fn one_sided_update_failures_recover_byte_identically() {
    let db = Arc::new(Database::random(RECORDS, RECORD_BYTES, 3).unwrap());
    let mut oracle = oracle_pir(&db);
    // Server 0 loses one update before it lands (round 0) and one ack
    // after the commit (round 3); server 1 drops round 2's update, which
    // must come back via journal replay. Indices are chosen against the
    // deterministic operation interleaving (handshake = op 0, every
    // apply_updates opens with one epoch probe per replica to converge
    // them, and recovery's own probes/replays consume further ops).
    let schedule_1 = FaultSchedule::none()
        .with_fault(2, FaultAction::DropBeforeRequest)
        .with_fault(13, FaultAction::DropAfterRequest);
    let schedule_2 = FaultSchedule::none().with_fault(6, FaultAction::DropBeforeRequest);
    let mut pir = faulty_pir(&db, schedule_1, schedule_2);

    for round in 0..4u8 {
        let batch = vec![
            (
                u64::from(round) * 11 % RECORDS,
                vec![round + 1; RECORD_BYTES],
            ),
            (
                u64::from(round) * 29 % RECORDS,
                vec![round + 101; RECORD_BYTES],
            ),
        ];
        // Epoch-pinned recovery absorbs every scheduled fault here: the
        // drops land on update / epoch-info operations whose retries are
        // proven safe, so the API-level call still succeeds.
        let (outcome_1, outcome_2) = pir.apply_updates(&batch).unwrap();
        assert_eq!(
            outcome_1.epoch,
            u64::from(round) + 1,
            "exactly-once per round"
        );
        assert_eq!(outcome_1.epoch, outcome_2.epoch);
        oracle.apply_updates(&batch).unwrap();
    }
    for index in 0..RECORDS {
        assert_eq!(
            pir.query(index).unwrap(),
            oracle.query(index).unwrap(),
            "record {index} diverged from the fault-free oracle"
        );
    }
}

#[test]
fn update_ack_loss_is_not_reapplied() {
    let db = Arc::new(Database::random(RECORDS, RECORD_BYTES, 4).unwrap());
    // The ack of server 0's very first update is lost (op 0 is the
    // handshake, op 1 the entry epoch probe, op 2 the update itself). A
    // blind resend would leave server 0 at epoch 2 and the content
    // XOR-corrupted under any non-idempotent backend; the epoch pin must
    // recognize the commit.
    let schedule_1 = FaultSchedule::none().with_fault(2, FaultAction::DropAfterRequest);
    let mut pir = faulty_pir(&db, schedule_1, FaultSchedule::none());
    let (outcome_1, outcome_2) = pir.apply_updates(&[(9, vec![0xEE; RECORD_BYTES])]).unwrap();
    assert_eq!(
        outcome_1.epoch, 1,
        "applied exactly once despite the lost ack"
    );
    assert_eq!(outcome_2.epoch, 1);
    assert_eq!(pir.server_info(0).unwrap().epoch, 1);
    assert_eq!(pir.server_info(1).unwrap().epoch, 1);
    assert_eq!(pir.query(9).unwrap(), vec![0xEE; RECORD_BYTES]);
}

#[test]
fn divergent_entry_is_converged_not_misclassified_as_committed() {
    // Regression for the peer-relative commit inference: a previous
    // apply_updates can legitimately fail with the replicas divergent
    // (server 0 one ahead) when its error-path resync faults too. On the
    // next batch, a transient failure that never reached server 0 must
    // NOT be read as "committed" just because server 0 is ahead of its
    // peer — that would skip the batch on server 0, apply it on server 1
    // only, and silently equalize the epochs over different contents.
    // The pre-pinned epoch proves non-commitment, so the batch must land
    // on BOTH replicas and every record must match the oracle.
    let db = Arc::new(Database::random(RECORDS, RECORD_BYTES, 9).unwrap());
    let mut oracle = oracle_pir(&db);
    let schedule_1 = FaultSchedule::none()
        // Op 4: the error-path replay of batch 1 to server 1 — its
        // failure leaves the call with the replicas divergent.
        .with_fault(4, FaultAction::DropBeforeRequest)
        // Op 9: batch 2's first send to server 0, after the entry resync
        // (ops 6-8 on this side) has converged the replicas.
        .with_fault(9, FaultAction::DropBeforeRequest);
    // Op 2: batch 1 never reaches server 1.
    let schedule_2 = FaultSchedule::none().with_fault(2, FaultAction::DropBeforeRequest);
    let mut pir = faulty_pir(&db, schedule_1, schedule_2);

    let batch_1 = vec![(5, vec![0x11; RECORD_BYTES])];
    let batch_2 = vec![(5, vec![0x22; RECORD_BYTES]), (7, vec![0x33; RECORD_BYTES])];

    // Batch 1 commits on server 0, faults on server 1, and the error-path
    // resync faults too: the call fails with the replicas divergent.
    assert!(pir.apply_updates(&batch_1).is_err());
    assert_eq!(pir.server_info(0).unwrap().epoch, 1);
    assert_eq!(pir.server_info(1).unwrap().epoch, 0);
    oracle.apply_updates(&batch_1).unwrap();

    // Batch 2: the entry resync replays batch 1 to server 1 first, then
    // the faulted send is proven uncommitted and retried — exactly once
    // on each replica.
    let (outcome_1, outcome_2) = pir.apply_updates(&batch_2).unwrap();
    assert_eq!(outcome_1.epoch, 2);
    assert_eq!(outcome_2.epoch, 2);
    oracle.apply_updates(&batch_2).unwrap();
    for index in 0..RECORDS {
        assert_eq!(
            pir.query(index).unwrap(),
            oracle.query(index).unwrap(),
            "record {index} diverged from the fault-free oracle"
        );
    }
}

/// Drives mixed query/update traffic through seeded fault schedules on
/// BOTH replicas. API calls may fail while faults are firing, but the
/// replicas must never diverge from each other unrecoverably, an update
/// batch must land exactly 0 or 1 times (never 2 — that is the epoch
/// jumping past the oracle), and once the schedule is exhausted the
/// deployment must converge byte-identically to the fault-free oracle.
fn soak(seed: u64) {
    const SCHEDULE_OPS: u64 = 80;
    let db = Arc::new(Database::random(RECORDS, RECORD_BYTES, seed).unwrap());
    let mut oracle = oracle_pir(&db);
    let mut pir = faulty_pir(
        &db,
        skipping_handshake(seed.wrapping_mul(2) + 1, SCHEDULE_OPS, 5),
        skipping_handshake(seed.wrapping_mul(2) + 2, SCHEDULE_OPS, 5),
    );
    let mut committed_epoch = 0u64;

    for round in 0..12u64 {
        let fill = (seed as u8).wrapping_add(round as u8).wrapping_add(1);
        let batch = vec![
            (round * 7 % RECORDS, vec![fill; RECORD_BYTES]),
            ((round * 13 + 5) % RECORDS, vec![fill ^ 0xFF; RECORD_BYTES]),
        ];
        match pir.apply_updates(&batch) {
            Ok((outcome_1, _)) => {
                assert_eq!(
                    outcome_1.epoch,
                    committed_epoch + 1,
                    "seed {seed} round {round}: a batch landed more than once"
                );
                committed_epoch = outcome_1.epoch;
                oracle.apply_updates(&batch).unwrap();
            }
            Err(_) => {
                // Faults swallowed the call; whether the batch committed is
                // resolved the same way the scheme resolves it — by epoch.
                let epoch = converge(&mut pir, seed, round);
                assert!(
                    epoch == committed_epoch || epoch == committed_epoch + 1,
                    "seed {seed} round {round}: epoch {epoch} after a failed apply of \
                     batch {committed_epoch} -> a batch was duplicated or lost"
                );
                if epoch == committed_epoch + 1 {
                    committed_epoch = epoch;
                    oracle.apply_updates(&batch).unwrap();
                }
            }
        }
        for probe in 0..3u64 {
            let index = (round * 17 + probe * 31) % RECORDS;
            // A faulted query may fail — but it must NEVER return bytes
            // that differ from the oracle's fault-free answer.
            if let Ok(record) = pir.query(index) {
                assert_eq!(
                    record,
                    oracle.query(index).unwrap(),
                    "seed {seed} round {round}: silent wrong answer for record {index}"
                );
            }
        }
    }

    // Burn through whatever remains of both schedules with cheap probes
    // (each consumes one operation on one replica, faults tolerated) so
    // the tail below runs on a healed network.
    for _ in 0..SCHEDULE_OPS {
        let _ = pir.server_info(0);
        let _ = pir.server_info(1);
    }
    // Past the schedule every operation runs clean: the deployment must
    // converge and match the oracle on every record.
    let epoch = converge(&mut pir, seed, 99);
    assert_eq!(epoch, committed_epoch, "seed {seed}: tail convergence");
    for index in 0..RECORDS {
        assert_eq!(
            pir.query(index).unwrap(),
            oracle.query(index).unwrap(),
            "seed {seed}: record {index} diverged from the fault-free oracle"
        );
    }
}

/// Resyncs until the replicas agree, tolerating scheduled faults on the
/// resync operations themselves (the schedules are finite, so this always
/// terminates well before the attempt bound).
fn converge(pir: &mut TwoServerPir, seed: u64, round: u64) -> u64 {
    for _ in 0..100 {
        if let Ok(epoch) = pir.resync_replicas() {
            return epoch;
        }
    }
    panic!("seed {seed} round {round}: replicas failed to converge in 100 resync attempts");
}

#[test]
fn seeded_fault_schedules_all_converge_to_the_oracle() {
    for seed in [11, 29, 47, 63, 88] {
        soak(seed);
    }
}

#[test]
fn tcp_transport_reconnects_through_dropped_connections() {
    let db = Arc::new(Database::random(RECORDS, RECORD_BYTES, 5).unwrap());
    let service =
        PirService::bind(cpu_engine(&db), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    // Frame indices: 0 = Hello, 1 = first query, 2 = second query
    // (dropped; reconnect Hello = 3, resend = 4), 5 = third query
    // (reply truncated mid-frame; reconnect = 6, resend = 7).
    let schedule = FaultSchedule::none()
        .with_fault(2, FaultAction::DropBeforeRequest)
        .with_fault(5, FaultAction::TruncateReply);
    let proxy = FaultProxy::start(service.addr(), schedule).unwrap();
    let mut transport = TcpTransport::connect_with(proxy.addr(), RetryPolicy::resilient()).unwrap();

    let mut client = PirClient::new(RECORDS, RECORD_BYTES, 2).unwrap();
    let mut oracle = cpu_engine(&db);
    for query in 0..3u64 {
        let (shares, _) = client.generate_batch(&[query * 31 % RECORDS]).unwrap();
        let batch = transport.query_batch(&shares).unwrap();
        let expected = oracle.execute_batch(&shares).unwrap();
        assert_eq!(
            batch.responses, expected.responses,
            "query {query} not byte-identical after recovery"
        );
    }
    assert!(proxy.frames_seen() >= 8, "the faults did fire");
    drop(transport);
    proxy.shutdown();
    service.shutdown();
}

#[test]
fn tcp_update_whose_ack_is_lost_is_not_resent() {
    let db = Arc::new(Database::random(RECORDS, RECORD_BYTES, 6).unwrap());
    let service =
        PirService::bind(cpu_engine(&db), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    // Frame 1 (the update) executes on the server; its ack is dropped.
    let schedule = FaultSchedule::none().with_fault(1, FaultAction::DropAfterRequest);
    let proxy = FaultProxy::start(service.addr(), schedule).unwrap();
    let mut transport = TcpTransport::connect_with(proxy.addr(), RetryPolicy::resilient()).unwrap();

    let err = transport
        .apply_updates(&[(3, vec![0xBC; RECORD_BYTES])])
        .unwrap_err();
    assert!(
        matches!(err, PirError::Protocol { .. }),
        "ambiguous update outcome must surface, not be retried blindly: {err:?}"
    );
    // The transport reconnects for the (idempotent) epoch probe; the epoch
    // proves the batch was applied exactly ONCE — a blind resend would
    // read 2 here.
    assert_eq!(transport.epoch_info().unwrap().current_epoch, 1);
    drop(transport);
    proxy.shutdown();
    service.shutdown();
}

/// The two request channels a client can hold to one server session: a
/// dedicated [`TcpTransport`], or a [`MuxSession`] on a shared
/// connection. Replay tests run over both, so the one chunked-replay loop
/// is pinned on each.
const CHANNELS: [&str; 2] = ["tcp", "mux"];

/// Opens a session of the given channel kind to `service`; the
/// connection (kept alive by the returned guard for mux sessions) closes
/// when both are dropped.
fn open_channel(
    kind: &str,
    service: &PirService,
) -> (Box<dyn PirTransport>, Option<MuxConnection>) {
    match kind {
        "tcp" => (
            Box::new(TcpTransport::connect(service.addr()).unwrap()),
            None,
        ),
        _ => {
            let connection = MuxConnection::connect(service.addr()).unwrap();
            (Box::new(connection.session().unwrap()), Some(connection))
        }
    }
}

#[test]
fn large_replays_are_chunked_across_bounded_frames() {
    let db = Arc::new(Database::random(RECORDS, RECORD_BYTES, 10).unwrap());
    for kind in CHANNELS {
        // A 64-byte replay frame bound fits only TWO single-record
        // batches per reply (each batch body is 24 bytes here), so a
        // five-batch replay must cross several round trips — and still
        // arrive complete, in order.
        let service = PirService::bind(
            cpu_engine(&db),
            "127.0.0.1:0",
            ServiceConfig {
                max_replay_frame_bytes: 64,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let (mut transport, connection) = open_channel(kind, &service);
        let mut expected = Vec::new();
        for round in 0..5u8 {
            let batch = vec![(u64::from(round), vec![round; RECORD_BYTES])];
            transport.apply_updates(&batch).unwrap();
            expected.push(batch);
        }
        assert_eq!(transport.replay_updates(0).unwrap(), expected, "{kind}");
        // A partially-caught-up replica gets exactly its missing suffix.
        assert_eq!(
            transport.replay_updates(3).unwrap(),
            expected[3..].to_vec(),
            "{kind}"
        );
        // A single journalled batch that cannot fit any reply frame must
        // fail with an actionable error, never an empty reply (the client
        // would read that as "caught up" and silently stay lagging).
        let oversized: Vec<(u64, Vec<u8>)> =
            (0..4u64).map(|i| (i, vec![7; RECORD_BYTES])).collect();
        transport.apply_updates(&oversized).unwrap();
        let err = transport.replay_updates(5).unwrap_err();
        assert!(
            err.to_string().contains("replay frame bound"),
            "{kind}: unhelpful error: {err}"
        );
        drop((transport, connection));
        service.shutdown();
    }
}

#[test]
fn journal_truncated_lag_fails_closed_over_the_wire() {
    let db = Arc::new(Database::random(RECORDS, RECORD_BYTES, 8).unwrap());
    for kind in CHANNELS {
        let engine = QueryEngine::single(
            CpuPirServer::new(Arc::clone(&db), CpuServerConfig::baseline()).unwrap(),
            EngineConfig {
                journal_batches: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let service = PirService::bind(engine, "127.0.0.1:0", ServiceConfig::default()).unwrap();
        let (mut transport, connection) = open_channel(kind, &service);

        for round in 0..3u8 {
            transport
                .apply_updates(&[(u64::from(round), vec![round; RECORD_BYTES])])
                .unwrap();
        }
        // Replayable: only the last batch (retention 1).
        let replayed = transport.replay_updates(2).unwrap();
        assert_eq!(replayed.len(), 1, "{kind}");
        assert_eq!(replayed[0], vec![(2u64, vec![2u8; RECORD_BYTES])], "{kind}");
        // A replica stuck at epoch 0 is beyond the journal: the typed
        // error crosses the wire intact so the client can fail closed
        // actionably.
        match transport.replay_updates(0) {
            Err(PirError::JournalTruncated {
                from_epoch: 0,
                oldest_replayable: 2,
                current_epoch: 3,
            }) => {}
            other => panic!("{kind}: expected the typed JournalTruncated error, got {other:?}"),
        }
        drop((transport, connection));
        service.shutdown();
    }
}
