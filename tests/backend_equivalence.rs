//! Equivalence of the three evaluated systems: CPU-PIR, the GPU-PIR
//! comparator and IM-PIR must produce bit-identical subresults for the same
//! query share, across databases, record sizes and evaluation strategies.

use std::sync::Arc;

use im_pir::baselines::{CpuPirBaseline, GpuPirBaseline, ImPirSystem, SystemUnderTest};
use im_pir::core::database::Database;
use im_pir::core::engine::{EngineConfig, QueryEngine};
use im_pir::core::server::cpu::{CpuPirServer, CpuServerConfig};
use im_pir::core::server::pim::{ImPirConfig, ImPirServer};
use im_pir::core::server::streaming::{StreamingConfig, StreamingImPirServer};
use im_pir::core::shard::{ShardPlan, ShardedDatabase};
use im_pir::core::PirClient;
use im_pir::dpf::EvalStrategy;
use im_pir::pim::PimConfig;
use proptest::prelude::*;

fn build_systems(db: &Arc<Database>, dpus: usize) -> (CpuPirBaseline, GpuPirBaseline, ImPirSystem) {
    let cpu = CpuPirBaseline::new(db.clone()).unwrap();
    let gpu = GpuPirBaseline::new(db.clone()).unwrap();
    let config = ImPirConfig {
        pim: PimConfig::tiny_test(dpus, 8 << 20),
        clusters: 1,
        eval_threads: 2,
    };
    let pim = ImPirSystem::new(db.clone(), config).unwrap();
    (cpu, gpu, pim)
}

#[test]
fn all_backends_return_identical_subresults() {
    let db = Arc::new(Database::random(777, 32, 31).unwrap());
    let (mut cpu, mut gpu, mut pim) = build_systems(&db, 5);
    let mut client = PirClient::new(777, 32, 1).unwrap();
    let indices: Vec<u64> = vec![0, 5, 399, 776];
    let (shares, _) = client.generate_batch(&indices).unwrap();

    let cpu_out = cpu.process_batch(&shares).unwrap();
    let gpu_out = gpu.process_batch(&shares).unwrap();
    let pim_out = pim.process_batch(&shares).unwrap();
    for i in 0..indices.len() {
        assert_eq!(cpu_out.responses[i].payload, gpu_out.responses[i].payload);
        assert_eq!(cpu_out.responses[i].payload, pim_out.responses[i].payload);
        assert_eq!(cpu_out.responses[i].query_id, pim_out.responses[i].query_id);
    }
}

#[test]
fn all_eval_strategies_lead_to_the_same_server_answer() {
    let db = Arc::new(Database::random(513, 16, 8).unwrap());
    let mut client = PirClient::new(513, 16, 2).unwrap();
    let (share, _) = client.generate_query(400).unwrap();

    use im_pir::core::server::cpu::{CpuPirServer, CpuServerConfig};
    use im_pir::core::server::PirServer;
    let mut reference: Option<Vec<u8>> = None;
    for strategy in [
        EvalStrategy::BranchParallel,
        EvalStrategy::LevelByLevel,
        EvalStrategy::MemoryBounded { chunk_bits: 5 },
        EvalStrategy::SubtreeParallel { threads: 4 },
    ] {
        let mut server = CpuPirServer::new(
            db.clone(),
            CpuServerConfig {
                eval_strategy: strategy,
                scan_kernel: impir_core::dpxor::KernelChoice::Unrolled,
            },
        )
        .unwrap();
        let (response, _) = server.process_query(&share).unwrap();
        match &reference {
            None => reference = Some(response.payload),
            Some(expected) => assert_eq!(&response.payload, expected, "{}", strategy.name()),
        }
    }
}

/// CPU, PIM and streaming backends must return byte-identical records
/// through the unified `QueryEngine` on a sharded database, across several
/// shard layouts, including a batch whose size is a multiple of neither the
/// shard count nor the PIM backend's cluster count.
#[test]
fn engine_backends_agree_on_sharded_databases() {
    let num_records: u64 = 421;
    let record_size = 24;
    let db = Arc::new(Database::random(num_records, record_size, 19).unwrap());
    let mut client = PirClient::new(num_records, record_size, 9).unwrap();
    // 7 queries: not a multiple of 2 or 3 (shard counts), nor of the PIM
    // backend's 2 clusters.
    let indices: Vec<u64> = vec![0, 420, 99, 210, 99, 7, 333];
    let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();

    let plans = [
        ShardPlan::uniform(num_records, 2).unwrap(),
        ShardPlan::uniform(num_records, 3).unwrap(),
        // A deliberately skewed layout: a big head shard and two small
        // tails.
        ShardPlan::from_ranges(vec![0..300, 300..400, 400..num_records]).unwrap(),
    ];
    for plan in plans {
        let shard_count = plan.shard_count();
        let sharded = ShardedDatabase::new(db.clone(), plan).unwrap();

        let mut cpu_engine =
            QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
                CpuPirServer::new(shard_db, CpuServerConfig::baseline())
            })
            .unwrap();
        let mut pim_engine =
            QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
                ImPirServer::new(shard_db, ImPirConfig::tiny_test(4).with_clusters(2))
            })
            .unwrap();
        let mut streaming_engine =
            QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
                // A tight residency budget forces several segments per
                // shard scan.
                let config = StreamingConfig::new(ImPirConfig::tiny_test(4), 512)?;
                StreamingImPirServer::new(shard_db, config)
            })
            .unwrap();

        let cpu_out = cpu_engine.execute_batch(&shares_1).unwrap();
        let pim_out = pim_engine.execute_batch(&shares_1).unwrap();
        let streaming_out = streaming_engine.execute_batch(&shares_1).unwrap();
        assert_eq!(cpu_out.responses.len(), indices.len());
        for i in 0..indices.len() {
            assert_eq!(
                cpu_out.responses[i].payload, pim_out.responses[i].payload,
                "shards={shard_count} query {i}: CPU vs PIM"
            );
            assert_eq!(
                cpu_out.responses[i].payload, streaming_out.responses[i].payload,
                "shards={shard_count} query {i}: CPU vs streaming"
            );
        }

        // End to end: reconstruct against a second (unsharded) CPU server
        // to prove the engine responses are real PIR subresults.
        let mut second = CpuPirBaseline::new(db.clone()).unwrap();
        let second_out = second.process_batch(&shares_2).unwrap();
        for (i, &index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&pim_out.responses[i], &second_out.responses[i])
                .unwrap();
            assert_eq!(
                record,
                db.record(index),
                "shards={shard_count} index {index}"
            );
        }
    }
}

/// The engine-level update path, exercised per backend kind: after
/// `QueryEngine::apply_updates` a sharded engine must answer byte-identically
/// to a fresh engine constructed over the already-updated database, on
/// several shard layouts — and a batch containing one invalid entry must
/// leave every shard's responses unchanged (all-or-nothing).
fn assert_updates_match_fresh_engines<S, F>(label: &str, factory: F)
where
    S: im_pir::core::UpdatableBackend + Send + Sync,
    F: Fn(Arc<Database>, usize) -> Result<S, im_pir::core::PirError>,
{
    let num_records: u64 = 421;
    let record_size = 24;
    let db = Arc::new(Database::random(num_records, record_size, 19).unwrap());
    // A run of adjacent records, a pair straddling the skewed plan's
    // 300-boundary, and the last record.
    let updates: Vec<(u64, Vec<u8>)> = [0u64, 1, 2, 3, 150, 299, 300, 420]
        .iter()
        .enumerate()
        .map(|(i, &index)| (index, vec![0xA0 | i as u8; record_size]))
        .collect();
    let mut updated = (*db).clone();
    for (index, bytes) in &updates {
        updated.set_record(*index, bytes).unwrap();
    }
    let updated = Arc::new(updated);

    let mut client = PirClient::new(num_records, record_size, 9).unwrap();
    // Every updated region plus untouched records.
    let indices: Vec<u64> = vec![0, 2, 3, 99, 150, 299, 300, 407, 420];
    let (shares, _) = client.generate_batch(&indices).unwrap();

    let plans = [
        ShardPlan::uniform(num_records, 2).unwrap(),
        ShardPlan::from_ranges(vec![0..300, 300..400, 400..num_records]).unwrap(),
    ];
    for plan in plans {
        let shard_count = plan.shard_count();
        let sharded = ShardedDatabase::new(db.clone(), plan.clone()).unwrap();
        let mut engine = QueryEngine::sharded(&sharded, EngineConfig::default(), &factory).unwrap();
        let before = engine.execute_batch(&shares).unwrap();

        // All-or-nothing: a valid entry followed by an out-of-range one.
        let poisoned = vec![updates[0].clone(), (num_records, vec![0u8; record_size])];
        assert!(
            engine.apply_updates(&poisoned).is_err(),
            "{label} shards={shard_count}: poisoned batch must be rejected"
        );
        assert_eq!(engine.database_epoch(), 0);
        let after_poison = engine.execute_batch(&shares).unwrap();
        for (i, (b, a)) in before
            .responses
            .iter()
            .zip(&after_poison.responses)
            .enumerate()
        {
            assert_eq!(
                b.payload, a.payload,
                "{label} shards={shard_count} query {i}: a rejected batch must not touch any shard"
            );
        }

        // The real update: the live engine must now be indistinguishable
        // from a fresh engine built over the post-update database.
        let outcome = engine.apply_updates(&updates).unwrap();
        assert_eq!(outcome.records_updated, updates.len());
        assert_eq!(outcome.epoch, 1);
        let updated_out = engine.execute_batch(&shares).unwrap();
        let fresh_sharded = ShardedDatabase::new(updated.clone(), plan).unwrap();
        let mut fresh =
            QueryEngine::sharded(&fresh_sharded, EngineConfig::default(), &factory).unwrap();
        let fresh_out = fresh.execute_batch(&shares).unwrap();
        for (i, (u, f)) in updated_out
            .responses
            .iter()
            .zip(&fresh_out.responses)
            .enumerate()
        {
            assert_eq!(
                u.payload, f.payload,
                "{label} shards={shard_count} query {i}: updated engine vs fresh engine"
            );
        }
    }
}

#[test]
fn updated_sharded_cpu_engines_match_fresh_engines() {
    assert_updates_match_fresh_engines("cpu", |db, _| {
        CpuPirServer::new(db, CpuServerConfig::baseline())
    });
}

#[test]
fn updated_sharded_pim_engines_match_fresh_engines() {
    assert_updates_match_fresh_engines("pim", |db, _| {
        ImPirServer::new(db, ImPirConfig::tiny_test(4).with_clusters(2))
    });
}

#[test]
fn updated_sharded_streaming_engines_match_fresh_engines() {
    assert_updates_match_fresh_engines("streaming", |db, _| {
        let config = StreamingConfig::new(ImPirConfig::tiny_test(4), 512)?;
        StreamingImPirServer::new(db, config)
    });
}

/// The CPU backend answers a wave of queries with one pass over its
/// replica. Batches below, at and above its wave width (16), and spanning
/// several waves, must answer byte-identically to the same engine taking
/// one query at a time, and to a scalar-kernel server over the whole
/// database — on 1-, 2- and 3-shard layouts and a planned one, before and
/// after an update. Small batches scan inline and large ones split the
/// pass over threads (the split starts at 4 MiB of selectors × shard
/// bytes); the 4099-byte records are not a multiple of the kernel's word
/// or tile sizes.
#[test]
fn cpu_wave_passes_match_one_query_at_a_time() {
    use im_pir::core::capacity::ShardPlanner;

    let num_records: u64 = 300;
    let record_size = 4099;
    let db = Arc::new(Database::random(num_records, record_size, 71).unwrap());
    let updates: Vec<(u64, Vec<u8>)> = [0u64, 99, 100, 150, 200, num_records - 1]
        .iter()
        .enumerate()
        .map(|(i, &index)| (index, vec![0xC0 | i as u8; record_size]))
        .collect();
    let mut updated = (*db).clone();
    for (index, bytes) in &updates {
        updated.set_record(*index, bytes).unwrap();
    }
    let updated = Arc::new(updated);

    let mut client = PirClient::new(num_records, record_size, 23).unwrap();
    let indices: Vec<u64> = (0..40).map(|i| (i * 263 + 17) % num_records).collect();
    let (shares, _) = client.generate_batch(&indices).unwrap();

    let cpu = |shard_db: Arc<Database>, _| CpuPirServer::new(shard_db, CpuServerConfig::baseline());
    let profile = CpuServerConfig::baseline()
        .capacity_profile(record_size)
        .unwrap();
    let mut fast = profile;
    fast.scan_bandwidth_bytes_per_sec *= 3.0;
    let planner = ShardPlanner::new(vec![profile, fast, profile]).unwrap();
    let mut engines = Vec::new();
    for shards in 1..=3 {
        let sharded = ShardedDatabase::uniform(db.clone(), shards).unwrap();
        let engine = QueryEngine::sharded(&sharded, EngineConfig::default(), cpu).unwrap();
        engines.push((format!("{shards} shard(s)"), engine));
    }
    let planned = QueryEngine::planned(db.clone(), EngineConfig::default(), &planner, cpu).unwrap();
    assert_ne!(
        planned.plan(),
        &ShardPlan::uniform(num_records, 3).unwrap(),
        "the planned layout must not be uniform"
    );
    engines.push(("planned".to_string(), planned));

    assert_waves_match("pre-update", &db, &shares, &mut engines);
    for (_, engine) in &mut engines {
        engine.apply_updates(&updates).unwrap();
    }
    assert_waves_match("post-update", &updated, &shares, &mut engines);
}

/// Every engine answers `shares` one at a time like a scalar-kernel server
/// over `db`, and batches of 1, 2, 15, 16, 17 and 40 like one at a time.
fn assert_waves_match(
    stage: &str,
    db: &Arc<Database>,
    shares: &[im_pir::core::QueryShare],
    engines: &mut [(String, QueryEngine<CpuPirServer>)],
) {
    use im_pir::core::dpxor::KernelChoice;
    use im_pir::core::server::PirServer;

    let scalar = CpuServerConfig {
        scan_kernel: KernelChoice::Scalar,
        ..CpuServerConfig::baseline()
    };
    let mut oracle = CpuPirServer::new(db.clone(), scalar).unwrap();
    let expected: Vec<Vec<u8>> = shares
        .iter()
        .map(|share| oracle.process_query(share).unwrap().0.payload)
        .collect();
    for (layout, engine) in engines {
        let singles: Vec<Vec<u8>> = shares
            .iter()
            .map(|share| {
                let out = engine.execute_batch(std::slice::from_ref(share)).unwrap();
                out.responses[0].payload.clone()
            })
            .collect();
        assert_eq!(
            singles, expected,
            "{stage} {layout}: one at a time vs oracle"
        );
        for batch in [1usize, 2, 15, 16, 17, 40] {
            let out = engine.execute_batch(&shares[..batch]).unwrap();
            assert_eq!(out.responses.len(), batch);
            for (i, response) in out.responses.iter().enumerate() {
                assert_eq!(
                    response.payload, singles[i],
                    "{stage} {layout} batch={batch} query {i}"
                );
            }
        }
    }
}

/// A capacity-planned layout is pure distribution policy: on a mixed
/// PIM+CPU+streaming fleet (heterogeneous backends as boxed trait objects
/// behind one engine), the planned engine must answer byte-identically to a
/// uniform one — before updates, after a rejected (poisoned) batch, and
/// after a committed update batch, where both must also match a fresh
/// engine built over the already-updated database.
#[test]
fn planned_layouts_match_uniform_layouts_pre_and_post_update() {
    use im_pir::core::capacity::ShardPlanner;
    use im_pir::core::UpdatableBackend;

    type DynBackend = Box<dyn UpdatableBackend + Send + Sync>;

    let num_records: u64 = 1500;
    let record_size = 32;
    let db = Arc::new(Database::random(num_records, record_size, 41).unwrap());
    let pim_config = ImPirConfig::tiny_test(8).with_clusters(2);
    let cpu_config = CpuServerConfig::baseline();
    let streaming_config = StreamingConfig::new(ImPirConfig::tiny_test(4), 1024).unwrap();
    let backend =
        |shard_db: Arc<Database>, shard: usize| -> Result<DynBackend, im_pir::core::PirError> {
            Ok(match shard {
                0 => Box::new(ImPirServer::new(shard_db, pim_config.clone())?),
                1 => Box::new(CpuPirServer::new(shard_db, cpu_config.clone())?),
                _ => Box::new(StreamingImPirServer::new(
                    shard_db,
                    streaming_config.clone(),
                )?),
            })
        };
    let planner = ShardPlanner::new(vec![
        pim_config.capacity_profile(record_size).unwrap(),
        cpu_config.capacity_profile(record_size).unwrap(),
        streaming_config.capacity_profile(record_size).unwrap(),
    ])
    .unwrap();

    let uniform = ShardedDatabase::uniform(db.clone(), 3).unwrap();
    let mut uniform_engine =
        QueryEngine::sharded(&uniform, EngineConfig::default(), backend).unwrap();
    let mut planned_engine =
        QueryEngine::planned(db.clone(), EngineConfig::default(), &planner, backend).unwrap();
    // The planner really moved the boundaries.
    assert_ne!(
        planned_engine.plan(),
        uniform_engine.plan(),
        "an asymmetric fleet must not plan uniformly"
    );

    let mut client = PirClient::new(num_records, record_size, 17).unwrap();
    // Queries at both layouts' shard boundaries plus interior points.
    let mut indices: Vec<u64> = vec![0, num_records / 2, num_records - 1, 733];
    for plan in [uniform_engine.plan().clone(), planned_engine.plan().clone()] {
        for range in plan.ranges() {
            indices.push(range.start);
            indices.push(range.end - 1);
        }
    }
    let (shares, second_shares) = client.generate_batch(&indices).unwrap();

    // Pre-update identity, and real PIR subresults (reconstruct against a
    // second, unsharded server).
    let uniform_out = uniform_engine.execute_batch(&shares).unwrap();
    let planned_out = planned_engine.execute_batch(&shares).unwrap();
    let mut second = CpuPirBaseline::new(db.clone()).unwrap();
    let second_out = second.process_batch(&second_shares).unwrap();
    for (i, &index) in indices.iter().enumerate() {
        assert_eq!(
            uniform_out.responses[i].payload, planned_out.responses[i].payload,
            "pre-update query {i}"
        );
        let record = client
            .reconstruct(&planned_out.responses[i], &second_out.responses[i])
            .unwrap();
        assert_eq!(record, db.record(index), "pre-update index {index}");
    }

    // A poisoned batch must leave both layouts untouched (all-or-nothing).
    let poisoned = vec![
        (1u64, vec![0x11; record_size]),
        (num_records, vec![0x11; record_size]),
    ];
    assert!(uniform_engine.apply_updates(&poisoned).is_err());
    assert!(planned_engine.apply_updates(&poisoned).is_err());

    // Committed updates: one per backend's region under both layouts.
    let updates: Vec<(u64, Vec<u8>)> = [0u64, 499, 500, 999, 1000, num_records - 1]
        .iter()
        .enumerate()
        .map(|(i, &index)| (index, vec![0xB0 | i as u8; record_size]))
        .collect();
    let mut updated = (*db).clone();
    for (index, bytes) in &updates {
        updated.set_record(*index, bytes).unwrap();
    }
    let updated = Arc::new(updated);
    uniform_engine.apply_updates(&updates).unwrap();
    planned_engine.apply_updates(&updates).unwrap();

    let uniform_after = uniform_engine.execute_batch(&shares).unwrap();
    let planned_after = planned_engine.execute_batch(&shares).unwrap();
    // Both layouts agree with each other and with a fresh planned engine
    // built over the already-updated database.
    let mut fresh =
        QueryEngine::planned(updated.clone(), EngineConfig::default(), &planner, backend).unwrap();
    let fresh_out = fresh.execute_batch(&shares).unwrap();
    for i in 0..indices.len() {
        assert_eq!(
            uniform_after.responses[i].payload, planned_after.responses[i].payload,
            "post-update query {i}: uniform vs planned"
        );
        assert_eq!(
            planned_after.responses[i].payload, fresh_out.responses[i].payload,
            "post-update query {i}: live planned vs fresh over updated db"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_backends_agree_and_reconstruct(
        num_records in 3u64..500,
        record_words in 1usize..4,
        dpus in 1usize..6,
        seed in any::<u64>(),
    ) {
        let record_size = record_words * 8;
        let db = Arc::new(Database::random(num_records, record_size, seed).unwrap());
        let (mut cpu, mut gpu, mut pim) = build_systems(&db, dpus);
        let mut client = PirClient::new(num_records, record_size, seed ^ 7).unwrap();
        let index = seed % num_records;
        let (share_1, share_2) = client.generate_query(index).unwrap();

        let shares_1 = vec![share_1];
        let cpu_out = cpu.process_batch(&shares_1).unwrap();
        let gpu_out = gpu.process_batch(&shares_1).unwrap();
        let pim_out = pim.process_batch(&shares_1).unwrap();
        prop_assert_eq!(&cpu_out.responses[0].payload, &gpu_out.responses[0].payload);
        prop_assert_eq!(&cpu_out.responses[0].payload, &pim_out.responses[0].payload);

        // Reconstruct against a CPU second server.
        let mut second = CpuPirBaseline::new(db.clone()).unwrap();
        let second_out = second.process_batch(&[share_2]).unwrap();
        let record = client
            .reconstruct(&pim_out.responses[0], &second_out.responses[0])
            .unwrap();
        prop_assert_eq!(record, db.record(index).to_vec());
    }
}
