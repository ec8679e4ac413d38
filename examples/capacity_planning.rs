//! Capacity-aware shard planning over a heterogeneous PIM+CPU+streaming
//! fleet.
//!
//! A uniform shard plan is hostage to its slowest backend: give an
//! out-of-core streaming server (which re-pushes its records over the
//! CPU→DPU link on every scan) the same record count as a preloaded PIM
//! cluster and the whole engine waits on it. The `impir_core::capacity`
//! planner fixes that at deployment time:
//!
//! 1. each backend declares a `CapacityProfile` — records its memory budget
//!    can hold, scan bandwidth per wave slot (from the timed simulator's
//!    cost model for the PIM-family backends), wave width;
//! 2. `ShardPlanner` waterfills the records over effective bandwidth under
//!    the capacity caps (optionally blending in measured probe scans);
//! 3. `QueryEngine::planned` pairs the resulting non-uniform plan with one
//!    backend per shard — heterogeneous kinds included, as boxed trait
//!    objects plug straight into the engine.
//!
//! The example proves three things: the planned layout answers
//! byte-identically to the uniform one (sharding is invisible to clients),
//! it beats the uniform layout's simulated batch time, and the engine's
//! per-shard timings expose predicted-vs-actual skew so a bad plan is
//! observable.
//!
//! Run with `cargo run --example capacity_planning --release`.

use std::sync::Arc;

use im_pir::core::capacity::{measure_scan_bandwidth, ShardPlanner};
use im_pir::core::database::Database;
use im_pir::core::engine::{EngineConfig, QueryEngine};
use im_pir::core::server::cpu::{CpuPirServer, CpuServerConfig};
use im_pir::core::server::pim::{ImPirConfig, ImPirServer};
use im_pir::core::server::streaming::{StreamingConfig, StreamingImPirServer};
use im_pir::core::shard::ShardedDatabase;
use im_pir::core::{PirClient, PirError, UpdatableBackend};

/// One engine, three backend kinds: the forwarding impls on `Box` let a
/// trait object serve as the engine's backend type directly.
type DynBackend = Box<dyn UpdatableBackend + Send + Sync>;

fn main() -> Result<(), PirError> {
    let records: u64 = 4096;
    let database = Arc::new(Database::random(records, 32, 13)?);
    let mut client = PirClient::new(records, 32, 2)?;
    let indices: Vec<u64> = (0..12u64).map(|i| (i * 1_637) % records).collect();
    let (shares, _) = client.generate_batch(&indices)?;

    // The fleet: a healthy PIM allocation, a CPU host, and a deliberately
    // starved streaming backend (1 KiB of per-DPU residency, so every scan
    // re-streams its shard in tiny segments).
    let pim_config = ImPirConfig::tiny_test(8).with_clusters(2);
    let cpu_config = CpuServerConfig::baseline();
    let streaming_config = StreamingConfig::new(ImPirConfig::tiny_test(4), 1024)?;
    let backend = |shard_db: Arc<Database>, shard: usize| -> Result<DynBackend, PirError> {
        Ok(match shard {
            0 => Box::new(ImPirServer::new(shard_db, pim_config.clone())?),
            1 => Box::new(CpuPirServer::new(shard_db, cpu_config.clone())?),
            _ => Box::new(StreamingImPirServer::new(
                shard_db,
                streaming_config.clone(),
            )?),
        })
    };

    // Declared profiles, straight from the configurations — no backend has
    // been built yet. The PIM profile prices its scan through the timed
    // simulator's cost model; capacity comes from per-cluster MRAM.
    let mut planner = ShardPlanner::new(vec![
        pim_config.capacity_profile(32)?,
        cpu_config.capacity_profile(32)?,
        streaming_config.capacity_profile(32)?,
    ])?;
    println!("declared profiles:");
    for (i, profile) in planner.profiles().iter().enumerate() {
        println!(
            "  backend {i}: {:>12} records capacity, {:>8.3} GB/s x {} wave slot(s)",
            if profile.record_capacity == u64::MAX {
                "unbounded".to_string()
            } else {
                profile.record_capacity.to_string()
            },
            profile.scan_bandwidth_bytes_per_sec / 1e9,
            profile.wave_width
        );
    }

    // Calibration: a short measured probe scan on a small CPU replica,
    // blended into the declared profile (weight 0.5). The same path works
    // for any backend; the CPU one is where declared host constants are
    // most approximate.
    let probe_db = Arc::new(Database::random(1024, 32, 13)?);
    let mut probe = CpuPirServer::new(probe_db, cpu_config.clone())?;
    let measured = measure_scan_bandwidth(&mut probe, 2)?;
    planner.calibrate_with(1, measured, 0.5)?;
    println!(
        "calibrated backend 1 with a measured {:.3} GB/s probe scan\n",
        measured / 1e9
    );

    // Uniform layout: three equal shards, one per backend.
    let uniform = ShardedDatabase::uniform(database.clone(), 3)?;
    let mut uniform_engine = QueryEngine::sharded(&uniform, EngineConfig::default(), backend)?;
    // Planned layout: shard sizes follow capacity.
    let mut planned_engine =
        QueryEngine::planned(database.clone(), EngineConfig::default(), &planner, backend)?;
    println!("uniform layout: {}", uniform_engine.plan().size_summary());
    println!("planned layout: {}\n", planned_engine.plan().size_summary());

    let uniform_outcome = uniform_engine.execute_batch(&shares)?;
    let planned_outcome = planned_engine.execute_batch(&shares)?;

    // 1. Sharding policy never leaks into answers.
    for (u, p) in uniform_outcome
        .responses
        .iter()
        .zip(&planned_outcome.responses)
    {
        assert_eq!(u.payload, p.payload, "layouts must answer identically");
    }
    println!(
        "all {} responses byte-identical across layouts ✓",
        shares.len()
    );

    // 2. The planned layout beats uniform in simulated batch time.
    let uniform_hybrid = uniform_outcome.phase_totals.total_hybrid_seconds();
    let planned_hybrid = planned_outcome.phase_totals.total_hybrid_seconds();
    println!(
        "batch of {}: uniform {:.6}s, planned {:.6}s hybrid ({:.1}x) ✓",
        shares.len(),
        uniform_hybrid,
        planned_hybrid,
        uniform_hybrid / planned_hybrid
    );
    assert!(
        planned_hybrid < uniform_hybrid,
        "the planned layout must beat uniform on this asymmetric fleet"
    );

    // 3. The plan's quality is observable: per-shard predicted vs actual.
    println!("\nplanned per-shard timings (predicted is per query, actual per batch):");
    for timing in planned_engine.shard_timings() {
        println!(
            "  shard {} [{:>5}..{:>5}): predicted {:>9.6}s  actual {:>9.6}s",
            timing.shard,
            timing.range.start,
            timing.range.end,
            timing.predicted_scan_seconds.expect("planned engine"),
            timing.actual_hybrid_seconds()
        );
    }
    println!(
        "scan skew (max/mean): planned {:.2} vs uniform {:.2}",
        planned_engine.scan_skew().expect("batch ran"),
        uniform_engine.scan_skew().expect("batch ran")
    );

    // Updates flow through the planner's layout like any other: both
    // engines stay in lockstep.
    let updates: Vec<(u64, Vec<u8>)> = vec![(0, vec![0xAB; 32]), (records - 1, vec![0xCD; 32])];
    uniform_engine.apply_updates(&updates)?;
    planned_engine.apply_updates(&updates)?;
    let (shares_after, _) = client.generate_batch(&indices)?;
    let uniform_after = uniform_engine.execute_batch(&shares_after)?;
    let planned_after = planned_engine.execute_batch(&shares_after)?;
    for (u, p) in uniform_after.responses.iter().zip(&planned_after.responses) {
        assert_eq!(u.payload, p.payload, "layouts must agree after updates");
    }
    println!("\npost-update responses byte-identical across layouts ✓");
    Ok(())
}
