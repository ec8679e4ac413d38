//! Shard-plan layouts: uniform vs capacity-planned, over a mixed fleet.
//!
//! The engine's shard boundaries are deployment policy (ISSUE 5): a uniform
//! split throttles a heterogeneous PIM+CPU+streaming fleet at its slowest
//! backend, while the `impir_core::capacity` planner sizes each shard to
//! its backend's effective scan bandwidth under MRAM capacity caps. This
//! bin sweeps database sizes over one such fleet and times a query batch
//! through both layouts:
//!
//! * **uniform** — `ShardPlan::uniform` over three shards, one per backend;
//! * **planned** — `QueryEngine::planned` over the backends' declared
//!   [`impir_core::CapacityProfile`]s.
//!
//! Both engines must return byte-identical responses (asserted here; the
//! layout is invisible to clients), and the planned layout's simulated
//! batch time — hybrid seconds, i.e. modelled hardware time for PIM phases
//! and wall time for host phases — must beat the uniform one at full size.
//!
//! Results go to stdout and `BENCH_shardplan.json` (plus
//! `target/impir-results/shardplan.json`); CI smoke-checks the file parses.
//!
//! Run with `cargo run -p impir-bench --release --bin shardplan -- \
//! [records] [batch]` (defaults: 6144, 16; CI uses a smaller database).

use std::sync::Arc;

use impir_bench::report::{DataPoint, FigureReport, Series};
use impir_core::database::Database;
use impir_core::engine::{EngineConfig, QueryEngine};
use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
use impir_core::server::pim::{ImPirConfig, ImPirServer};
use impir_core::server::streaming::{StreamingConfig, StreamingImPirServer};
use impir_core::shard::ShardedDatabase;
use impir_core::{PirClient, PirError, ShardPlanner, UpdatableBackend};

/// Record size used throughout (the paper's 32-byte hashes).
const RECORD_BYTES: usize = 32;

/// The heterogeneous fleet: one engine, three backend kinds. Boxed trait
/// objects plug straight into the engine via the core's forwarding impls.
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
            // segments — the slow straggler uniform plans are hostage to.
            streaming: StreamingConfig::new(ImPirConfig::tiny_test(4), 1024)?,
        })
    }

    fn planner(&self) -> Result<ShardPlanner, PirError> {
        ShardPlanner::new(vec![
            self.pim.capacity_profile(RECORD_BYTES)?,
            self.cpu.capacity_profile(RECORD_BYTES)?,
            self.streaming.capacity_profile(RECORD_BYTES)?,
        ])
    }

    fn backend(&self, shard_db: Arc<Database>, shard: usize) -> Result<DynBackend, PirError> {
        Ok(match shard {
            0 => Box::new(ImPirServer::new(shard_db, self.pim.clone())?),
            1 => Box::new(CpuPirServer::new(shard_db, self.cpu.clone())?),
            _ => Box::new(StreamingImPirServer::new(shard_db, self.streaming.clone())?),
        })
    }
}

/// Hybrid batch seconds (and a layout string) for one engine layout.
fn time_layout(
    engine: &mut QueryEngine<DynBackend>,
    shares: &[impir_core::QueryShare],
) -> Result<(f64, Vec<Vec<u8>>), PirError> {
    let outcome = engine.execute_batch(shares)?;
    let payloads = outcome.responses.into_iter().map(|r| r.payload).collect();
    Ok((outcome.phase_totals.total_hybrid_seconds(), payloads))
}

fn layout_string(engine: &QueryEngine<DynBackend>) -> String {
    engine.plan().size_summary()
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
    let planner = fleet.planner().expect("fleet profiles are valid");

    let mut report = FigureReport::new(
        "shardplan",
        format!(
            "Uniform vs capacity-planned shard layouts, mixed PIM+CPU+streaming fleet, \
             batch of {batch}"
        ),
        "the planned layout's simulated (hybrid) batch time beats the uniform \
         layout wherever backend capacities are asymmetric",
    );
    let mut uniform_series = Series::new("uniform layout", "hybrid seconds");
    let mut planned_series = Series::new("planned layout", "hybrid seconds");
    let mut full_size_result: Option<(f64, f64)> = None;

    for size in [records / 4, records / 2, records] {
        let size = size.max(12);
        let db = Arc::new(Database::random(size, RECORD_BYTES, 11).expect("valid geometry"));
        let mut client =
            PirClient::new(size, RECORD_BYTES, 7).expect("client matches the database");
        let indices: Vec<u64> = (0..batch as u64).map(|i| (i * 2_741) % size).collect();
        let (shares, _) = client.generate_batch(&indices).expect("batch generation");

        let uniform_sharded =
            ShardedDatabase::uniform(db.clone(), 3).expect("three uniform shards");
        let mut uniform_engine = QueryEngine::sharded(
            &uniform_sharded,
            EngineConfig::default(),
            |shard_db, shard| fleet.backend(shard_db, shard),
        )
        .expect("uniform engine");
        let mut planned_engine = QueryEngine::planned(
            db.clone(),
            EngineConfig::default(),
            &planner,
            |shard_db, shard| fleet.backend(shard_db, shard),
        )
        .expect("planned engine");

        let (uniform_seconds, uniform_payloads) =
            time_layout(&mut uniform_engine, &shares).expect("uniform batch");
        let (planned_seconds, planned_payloads) =
            time_layout(&mut planned_engine, &shares).expect("planned batch");
        // Layouts are invisible to clients: responses must match byte for
        // byte.
        assert_eq!(
            uniform_payloads, planned_payloads,
            "layouts changed the responses at {size} records"
        );

        let label = format!("{size} records");
        uniform_series.push(DataPoint::new(label.clone(), size as f64, uniform_seconds));
        planned_series.push(DataPoint::new(label, size as f64, planned_seconds));
        println!(
            "{size:>8} records: uniform {:>10.6}s [{}]  planned {:>10.6}s [{}]  ({:.1}x)",
            uniform_seconds,
            layout_string(&uniform_engine),
            planned_seconds,
            layout_string(&planned_engine),
            uniform_seconds / planned_seconds
        );
        if size == records {
            full_size_result = Some((uniform_seconds, planned_seconds));
            for timing in planned_engine.shard_timings() {
                report.push_note(format!(
                    "planned shard {} [{}..{}): predicted {:.6}s/query, actual {:.6}s/query",
                    timing.shard,
                    timing.range.start,
                    timing.range.end,
                    timing.predicted_scan_seconds.unwrap_or(0.0),
                    timing.actual_seconds_per_query()
                ));
            }
            if let Some(skew) = planned_engine.scan_skew() {
                report.push_note(format!("planned scan skew (max/mean): {skew:.2}"));
            }
            if let Some(skew) = uniform_engine.scan_skew() {
                report.push_note(format!("uniform scan skew (max/mean): {skew:.2}"));
            }
        }
    }

    report.push_series(uniform_series);
    report.push_series(planned_series);
    let (uniform_full, planned_full) = full_size_result.expect("the full size always runs");
    report.push_note(format!(
        "full-size speedup planned over uniform: {:.2}x (hybrid seconds; responses \
         byte-identical)",
        uniform_full / planned_full
    ));
    report.emit();

    match std::fs::write("BENCH_shardplan.json", report.to_json()) {
        Ok(()) => println!("[layout timings written to BENCH_shardplan.json]"),
        Err(err) => {
            eprintln!("error: could not write BENCH_shardplan.json: {err}");
            std::process::exit(1);
        }
    }

    // Acceptance criterion: on an asymmetric fleet the planned layout's
    // simulated batch time beats uniform. Tiny smoke databases only warn —
    // at a few hundred records every layout is latency-bound.
    if planned_full >= uniform_full {
        eprintln!(
            "warning: planned layout not faster than uniform \
             ({planned_full:.6}s vs {uniform_full:.6}s)"
        );
        if records >= 1024 {
            eprintln!("error: planned layout must beat uniform at >=1024 records");
            std::process::exit(2);
        }
    }
}
