//! Live shard rebalancing: closing the measured-skew feedback loop.
//!
//! Capacity planning (ISSUE 5, the `shardplan` bin) sizes shards from
//! *declared* backend profiles. When those declarations are wrong — a
//! backend underperforms its datasheet, a host is oversubscribed — the
//! planned layout bakes the error in and every batch pays for it. The
//! online rebalancer (`impir_core::rebalance`) closes the loop from
//! *measured* per-shard timings instead: after each batch the
//! [`RebalancePlanner`] compares the shards' hybrid seconds per query and
//! emits a bounded migration plan, which [`QueryEngine::rebalance`]
//! executes live between batches.
//!
//! This bin seeds exactly that failure: a mixed PIM+CPU+streaming fleet
//! whose *declared* profiles flatter the starved streaming backend (and
//! sandbag the PIM one), so the static planned layout hands the slowest
//! backend the bulk of the database. It then:
//!
//! * times a query batch on the static (mis-)planned layout;
//! * runs the measured-skew loop — batch, plan, migrate — until the
//!   planner has nothing left to move (or a round cap);
//! * times the same batch on the converged layout.
//!
//! The post-rebalance batch time must beat the static planned layout at
//! full size. Byte-identity is asserted against the database oracle via a
//! two-server deployment in which only one replica rebalanced — layouts
//! are invisible to clients, so reconstruction must still yield the true
//! record bytes.
//!
//! Results go to stdout and `BENCH_rebalance.json` (plus
//! `target/impir-results/rebalance.json`); CI smoke-checks the file.
//!
//! Run with `cargo run -p impir-bench --release --bin rebalance -- \
//! [records] [batch]` (defaults: 6144, 16; CI uses a smaller database).

use std::sync::Arc;

use impir_bench::report::{DataPoint, FigureReport, Series};
use impir_core::database::Database;
use impir_core::engine::{EngineConfig, QueryEngine};
use impir_core::rebalance::{RebalanceConfig, RebalancePlanner};
use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
use impir_core::server::pim::{ImPirConfig, ImPirServer};
use impir_core::server::streaming::{StreamingConfig, StreamingImPirServer};
use impir_core::{PirClient, PirError, ShardPlanner, UpdatableBackend};

/// Record size used throughout (the paper's 32-byte hashes).
const RECORD_BYTES: usize = 32;

/// Migration rounds before the loop gives up (each round moves at most
/// [`RebalanceConfig::max_records_per_round`] records, so convergence on a
/// badly skewed layout takes several).
const MAX_ROUNDS: usize = 64;

/// The heterogeneous fleet: one engine, three backend kinds.
type DynBackend = Box<dyn UpdatableBackend + Send + Sync>;

/// The fleet's per-backend configurations, in shard order.
struct Fleet {
    pim: ImPirConfig,
    cpu: CpuServerConfig,
    streaming: StreamingConfig,
}

impl Fleet {
    fn new() -> Result<Fleet, PirError> {
        Ok(Fleet {
            // A healthy PIM allocation: 8 DPUs, 2 clusters scanning waves
            // of 2 queries.
            pim: ImPirConfig::tiny_test(8).with_clusters(2),
            // The paper's CPU baseline.
            cpu: CpuServerConfig::baseline(),
            // A starved out-of-core backend: 1 KiB of record residency per
            // DPU, so every scan re-streams the shard in many tiny
            // segments.
            streaming: StreamingConfig::new(ImPirConfig::tiny_test(4), 1024)?,
        })
    }

    /// The *declared* profiles the static planner sees — deliberately
    /// wrong. The streaming backend's datasheet bandwidth is inflated 400x
    /// and the PIM backend's deflated 10x, so the planner hands the
    /// starved straggler the bulk of the database. Capacities stay honest:
    /// the layout is feasible, just slow.
    fn misdeclared_planner(&self) -> Result<ShardPlanner, PirError> {
        let mut pim = self.pim.capacity_profile(RECORD_BYTES)?;
        pim.scan_bandwidth_bytes_per_sec /= 10.0;
        let cpu = self.cpu.capacity_profile(RECORD_BYTES)?;
        let mut streaming = self.streaming.capacity_profile(RECORD_BYTES)?;
        streaming.scan_bandwidth_bytes_per_sec *= 400.0;
        ShardPlanner::new(vec![pim, cpu, streaming])
    }

    fn backend(&self, shard_db: Arc<Database>, shard: usize) -> Result<DynBackend, PirError> {
        Ok(match shard {
            0 => Box::new(ImPirServer::new(shard_db, self.pim.clone())?),
            1 => Box::new(CpuPirServer::new(shard_db, self.cpu.clone())?),
            _ => Box::new(StreamingImPirServer::new(shard_db, self.streaming.clone())?),
        })
    }
}

/// Hybrid batch seconds and the response payloads for one batch.
fn time_batch(
    engine: &mut QueryEngine<DynBackend>,
    shares: &[impir_core::QueryShare],
) -> Result<(f64, Vec<impir_core::ServerResponse>), PirError> {
    let outcome = engine.execute_batch(shares)?;
    Ok((
        outcome.phase_totals.total_hybrid_seconds(),
        outcome.responses,
    ))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let records: u64 = args
        .next()
        .map(|v| v.parse().expect("records must be an integer"))
        .unwrap_or(6144);
    let batch: usize = args
        .next()
        .map(|v| v.parse().expect("batch must be an integer"))
        .unwrap_or(16);
    assert!(records >= 12, "at least 12 records (3 backends, 3 sizes)");
    assert!(batch >= 1, "at least one query");

    let fleet = Fleet::new().expect("fleet configuration is valid");
    let misdeclared = fleet
        .misdeclared_planner()
        .expect("declared profiles are valid");
    let rebalancer = RebalancePlanner::new(RebalanceConfig::default())
        .expect("default rebalance configuration is valid");

    let mut report = FigureReport::new(
        "rebalance",
        format!(
            "Static (mis-)planned layout vs live measured-skew rebalancing, mixed \
             PIM+CPU+streaming fleet, batch of {batch}"
        ),
        "rebalancing from measured per-shard timings recovers the batch time a \
         static planner loses to wrong declared capacity profiles",
    );
    let mut static_series = Series::new("static planned layout", "hybrid seconds");
    let mut rebalanced_series = Series::new("after rebalancing", "hybrid seconds");
    let mut full_size_result: Option<(f64, f64)> = None;

    for size in [records / 4, records / 2, records] {
        let size = size.max(12);
        let db = Arc::new(Database::random(size, RECORD_BYTES, 11).expect("valid geometry"));
        let mut client =
            PirClient::new(size, RECORD_BYTES, 7).expect("client matches the database");
        let indices: Vec<u64> = (0..batch as u64).map(|i| (i * 2_741) % size).collect();
        let (shares_1, shares_2) = client.generate_batch(&indices).expect("batch generation");

        let mut engine = QueryEngine::planned(
            db.clone(),
            EngineConfig::default(),
            &misdeclared,
            |shard_db, shard| fleet.backend(shard_db, shard),
        )
        .expect("planned engine");
        let static_layout = engine.plan().size_summary();

        // Round 0 is the static layout's own measurement; it also seeds
        // the first migration plan — the loop never drains traffic.
        let (static_seconds, _) = time_batch(&mut engine, &shares_1).expect("static batch");
        let static_skew = engine.scan_skew();
        let mut post_seconds = static_seconds;
        let mut post_responses = Vec::new();
        let mut rounds = 0usize;
        let mut moved = 0u64;
        loop {
            let plan = rebalancer.plan(&engine.shard_timings());
            if plan.is_empty() || rounds >= MAX_ROUNDS {
                break;
            }
            let outcome = engine
                .rebalance(&plan, |shard_db, shard| fleet.backend(shard_db, shard))
                .expect("live migration");
            moved += outcome.records_moved;
            rounds += 1;
            let (seconds, responses) =
                time_batch(&mut engine, &shares_1).expect("post-migration batch");
            post_seconds = seconds;
            post_responses = responses;
        }

        // Byte-identity oracle: a two-server deployment in which only this
        // replica rebalanced (the peer still runs the static layout) must
        // reconstruct the true record bytes.
        if !post_responses.is_empty() {
            let mut peer = QueryEngine::planned(
                db.clone(),
                EngineConfig::default(),
                &misdeclared,
                |shard_db, shard| fleet.backend(shard_db, shard),
            )
            .expect("peer engine");
            let peer_outcome = peer.execute_batch(&shares_2).expect("peer batch");
            for (i, &index) in indices.iter().enumerate() {
                let record = client
                    .reconstruct(&post_responses[i], &peer_outcome.responses[i])
                    .expect("reconstruction");
                assert_eq!(
                    record,
                    db.record(index),
                    "rebalanced replica changed record {index} at {size} records"
                );
            }
        }

        let label = format!("{size} records");
        static_series.push(DataPoint::new(label.clone(), size as f64, static_seconds));
        rebalanced_series.push(DataPoint::new(label, size as f64, post_seconds));
        println!(
            "{size:>8} records: static {:>10.6}s [{}]  rebalanced {:>10.6}s [{}]  \
             ({rounds} round(s), {moved} record(s) moved, {:.1}x)",
            static_seconds,
            static_layout,
            post_seconds,
            engine.plan().size_summary(),
            static_seconds / post_seconds
        );
        if size == records {
            full_size_result = Some((static_seconds, post_seconds));
            report.push_note(format!(
                "full size: {rounds} migration round(s), {moved} record(s) moved, \
                 epoch {} after convergence",
                engine.epoch_info().current_epoch
            ));
            report.push_note(format!(
                "full-size layout: static [{static_layout}] -> rebalanced [{}]",
                engine.plan().size_summary()
            ));
            if let (Some(before), Some(after)) = (static_skew, engine.scan_skew()) {
                report.push_note(format!(
                    "scan skew (max/mean): {before:.2} static -> {after:.2} rebalanced"
                ));
            }
        }
    }

    report.push_series(static_series);
    report.push_series(rebalanced_series);
    let (static_full, post_full) = full_size_result.expect("the full size always runs");
    report.push_note(format!(
        "full-size speedup rebalanced over static planned: {:.2}x (hybrid seconds; \
         responses byte-identical against the database oracle)",
        static_full / post_full
    ));
    report.emit();

    match std::fs::write("BENCH_rebalance.json", report.to_json()) {
        Ok(()) => println!("[rebalance timings written to BENCH_rebalance.json]"),
        Err(err) => {
            eprintln!("error: could not write BENCH_rebalance.json: {err}");
            std::process::exit(1);
        }
    }

    // Acceptance criterion: the measured-skew loop beats the layout the
    // misdeclared profiles planned. Tiny smoke databases only warn — at a
    // few hundred records every layout is latency-bound.
    if post_full >= static_full {
        eprintln!(
            "warning: rebalanced layout not faster than static planned \
             ({post_full:.6}s vs {static_full:.6}s)"
        );
        if records >= 1024 {
            eprintln!("error: rebalancing must beat the static planned layout at >=1024 records");
            std::process::exit(2);
        }
    }
}
