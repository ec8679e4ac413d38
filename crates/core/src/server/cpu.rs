//! A processor-centric PIR server: DPF evaluation and `dpXOR` on the host.
//!
//! This backend performs exactly the same work as [`crate::server::pim`]
//! but keeps the `dpXOR` scan on CPU threads, moving every database byte
//! from DRAM through the cache hierarchy — the data-movement cost IM-PIR is
//! designed to avoid. It does not move those bytes once per query,
//! though: a wave of up to [`PASS_SELECTORS`] queries is answered by **one
//! pass** over the replica ([`dpxor::ScanKernel::xor_select_many`]), the
//! host-thread counterpart of §3.4's batching over DPU clusters. The pass
//! splits 64-record-aligned ranges over one thread per core
//! ([`host_parallelism`]); each thread keeps `k` partial accumulators, and
//! the partials are XOR-reduced at the end. A pass too small to pay for
//! thread spawns runs on the calling thread. A single query
//! ([`PirServer::process_query`]) is a pass with `k = 1`, so there is one
//! scan path. The scan runs whichever [`crate::dpxor::ScanKernel`] the
//! config selects — by default the fastest one for this host
//! ([`crate::dpxor::best_kernel`]).
//!
//! The paper's CPU-PIR baseline gives "a single CPU thread for each
//! query, accelerated with AVX"; this backend keeps that budget of one
//! scan thread per core, but spends it on shared passes instead of one
//! private scan per query.

use std::sync::Arc;

use impir_dpf::{host_parallelism, EvalStrategy, SelectorVector};

use crate::database::Database;
use crate::dpxor;
use crate::dpxor::{KernelChoice, ScanKernel};
use crate::error::PirError;
use crate::protocol::{QueryShare, ServerResponse};
use crate::server::phases::{PhaseBreakdown, PhaseTime};
use crate::server::{timed, PirServer};

/// Most queries one pass over the replica serves — the CPU backend's wave
/// width before the accumulator cap. Matches the server dispatcher's
/// default `coalesce_limit`, so a full coalesced wave is one pass.
pub const PASS_SELECTORS: usize = 16;

/// Bytes of accumulators one scan thread may keep in a pass: the wave
/// width is capped so that `k × record_size` fits a 1 MiB L2.
pub const PASS_ACCUMULATOR_BYTES: usize = 1 << 20;

/// A pass whose selectors × replica bytes is below this runs on the
/// calling thread, where thread spawns cost more than they save.
///
/// The product, not the replica alone, is what predicts a pass's cost:
/// for records held in registers (≤ 64 B) a 16-selector pass costs
/// 8–25× a 1-selector pass over the same replica, because each
/// accumulator takes its own records. Inline against two threads on a
/// 2-vCPU host, 0.25–8 MiB replicas, k ∈ {1, 4, 16}, 32 B, 40 B and
/// 32 KiB records: at 2 MiB of selectors × bytes inline won (32 B,
/// k = 1: 74 µs vs 104 µs), at 4 MiB the two were level or inline won
/// (32 B, k = 16 over 256 KiB: 117 µs vs 177 µs), and from 8 MiB two
/// threads won (40 B, k = 16 over 512 KiB: 333 µs vs 272 µs). Passes over
/// 32 KiB records grow more slowly with `k` (k = 16 costs 4–6× k = 1), so
/// for them the rule spawns a little early. In runs where the host's
/// second vCPU did no parallel work (two threads of a pure compute loop
/// ran no faster than one), two threads lost at every size measured.
const INLINE_PASS_BYTES: usize = 8 << 20;

/// Configuration of a [`CpuPirServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct CpuServerConfig {
    /// Strategy for expanding the DPF key over the database domain.
    pub eval_strategy: EvalStrategy,
    /// Which [`dpxor::ScanKernel`] the scan runs — [`KernelChoice::Auto`]
    /// self-benchmarks once per process ([`dpxor::best_kernel`]); the other
    /// variants force a specific kernel (A/B runs, oracle comparisons).
    /// Every choice is byte-identical; only speed differs.
    pub scan_kernel: KernelChoice,
}

impl CpuServerConfig {
    /// The paper's CPU-PIR baseline: one scan thread per core,
    /// level-by-level evaluation, self-benchmarked scan kernel.
    #[must_use]
    pub fn baseline() -> Self {
        CpuServerConfig {
            eval_strategy: EvalStrategy::LevelByLevel,
            scan_kernel: KernelChoice::Auto,
        }
    }

    /// A CPU server that also evaluates on all available cores (the scan
    /// always does).
    #[must_use]
    pub fn multithreaded() -> Self {
        CpuServerConfig {
            eval_strategy: EvalStrategy::SubtreeParallel {
                threads: host_parallelism(),
            },
            scan_kernel: KernelChoice::Auto,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the evaluation strategy is
    /// degenerate (zero subtree-parallel threads).
    pub fn validate(&self) -> Result<(), PirError> {
        crate::engine::validate_eval_strategy(&self.eval_strategy)
    }

    /// Queries one pass serves for records of `record_size` bytes:
    /// [`PASS_SELECTORS`], capped so a scan thread's `k` accumulators fit
    /// in [`PASS_ACCUMULATOR_BYTES`], at least 1. The single definition
    /// backing both [`crate::batch::BatchExecutor::wave_width`] and the
    /// declared capacity profile, so the planner can never predict wave
    /// counts the backend does not deliver.
    #[must_use]
    pub fn wave_width(record_size: usize) -> usize {
        (PASS_ACCUMULATOR_BYTES / record_size.max(1)).clamp(1, PASS_SELECTORS)
    }

    /// The **declared** [`crate::capacity::CapacityProfile`] of a CPU
    /// server under this configuration, for records of `record_size`
    /// bytes: record capacity bounded only by host memory, and one thread
    /// per core's worth of the declared per-thread DRAM bandwidth
    /// ([`crate::capacity::HOST_SCAN_BANDWIDTH_PER_THREAD`] — refine with
    /// [`crate::capacity::measure_scan_bandwidth`]) as the effective scan
    /// bandwidth, shared by the [`CpuServerConfig::wave_width`] queries a
    /// pass serves.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the configuration is invalid.
    pub fn capacity_profile(
        &self,
        record_size: usize,
    ) -> Result<crate::capacity::CapacityProfile, PirError> {
        self.validate()?;
        let eval_threads = match self.eval_strategy {
            EvalStrategy::SubtreeParallel { threads } => threads,
            _ => 1,
        };
        let width = Self::wave_width(record_size);
        let pass_bandwidth =
            host_parallelism() as f64 * crate::capacity::HOST_SCAN_BANDWIDTH_PER_THREAD;
        crate::capacity::CapacityProfile::unbounded(
            pass_bandwidth / width as f64,
            eval_threads as f64 * crate::capacity::HOST_EVAL_LEAVES_PER_SEC_PER_THREAD,
            width,
        )
    }
}

impl Default for CpuServerConfig {
    fn default() -> Self {
        CpuServerConfig::baseline()
    }
}

/// A CPU-only PIR server.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use impir_core::{database::Database, client::PirClient, server::PirServer};
/// use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
///
/// let db = Arc::new(Database::random(128, 16, 3)?);
/// let mut server_1 = CpuPirServer::new(db.clone(), CpuServerConfig::baseline())?;
/// let mut server_2 = CpuPirServer::new(db.clone(), CpuServerConfig::baseline())?;
/// let mut client = PirClient::new(128, 16, 0)?;
/// let (q1, q2) = client.generate_query(77)?;
/// let (r1, _) = server_1.process_query(&q1)?;
/// let (r2, _) = server_2.process_query(&q2)?;
/// assert_eq!(client.reconstruct(&r1, &r2)?, db.record(77));
/// # Ok::<(), impir_core::PirError>(())
/// ```
#[derive(Debug)]
pub struct CpuPirServer {
    database: Arc<Database>,
    config: CpuServerConfig,
    /// Reusable `dpXOR` accumulator-word buffers, one checked out per
    /// in-flight scan: after warm-up, steady-state batch scanning performs
    /// no per-query scratch allocation (the scan-side counterpart of the
    /// DPF side's [`impir_dpf::ScratchPool`]).
    scan_scratches: impir_dpf::BufferPool<Vec<u64>>,
    database_epoch: u64,
}

impl CpuPirServer {
    /// Creates a CPU server over `database`.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the configuration is invalid.
    pub fn new(database: Arc<Database>, config: CpuServerConfig) -> Result<Self, PirError> {
        config.validate()?;
        Ok(CpuPirServer {
            database,
            config,
            scan_scratches: impir_dpf::BufferPool::new(),
            database_epoch: 0,
        })
    }

    /// The configuration this server runs with.
    #[must_use]
    pub fn config(&self) -> &CpuServerConfig {
        &self.config
    }

    /// The database replica held by this server.
    #[must_use]
    pub fn database(&self) -> &Arc<Database> {
        &self.database
    }

    fn check_domain(&self, share: &QueryShare) -> Result<(), PirError> {
        let expected = self.database.domain_bits();
        if share.key.domain_bits() != expected {
            return Err(PirError::QueryDomainMismatch {
                key_domain_bits: share.key.domain_bits(),
                database_domain_bits: expected,
            });
        }
        Ok(())
    }

    /// One `dpXOR` pass over the replica for every selector of a wave:
    /// one payload per selector, one read of the database.
    ///
    /// Record ranges are rounded up to 64-record multiples, so every
    /// thread's selector slices are word-aligned sub-slices of the packed
    /// selector words. Each range runs on its own scoped thread (at most
    /// one per core, [`host_parallelism`]), or inline when `k` × replica
    /// bytes is under [`INLINE_PASS_BYTES`]; the per-range accumulators are
    /// XOR-reduced at the end, and XOR-linearity makes the split invisible
    /// in the result.
    fn scan_pass(&self, selectors: &[&SelectorVector]) -> Vec<Vec<u8>> {
        let record_size = self.database.record_size();
        let num_records = self.database.num_records() as usize;
        let kernel = self.config.scan_kernel.resolve();
        let threads = if selectors.len() * self.database.as_bytes().len() < INLINE_PASS_BYTES {
            1
        } else {
            host_parallelism().min(num_records.div_ceil(64))
        };
        let per_thread = num_records.div_ceil(threads).next_multiple_of(64);
        let mut partials: Vec<Vec<u8>> = if per_thread >= num_records {
            vec![self.scan_range(kernel, self.database.as_bytes(), selectors)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..num_records)
                    .step_by(per_thread)
                    .map(|start| {
                        let count = per_thread.min(num_records - start);
                        scope.spawn(move || {
                            let sliced: Vec<SelectorVector> = selectors
                                .iter()
                                .map(|selector| selector.slice(start, count))
                                .collect();
                            let range_selectors: Vec<&SelectorVector> = sliced.iter().collect();
                            let records = self.database.record_chunk(start as u64, count as u64);
                            self.scan_range(kernel, records, &range_selectors)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("scan worker panicked"))
                    .collect()
            })
        };
        let mut merged = partials.swap_remove(0);
        for partial in &partials {
            dpxor::xor_in_place(&mut merged, partial);
        }
        merged
            .chunks_exact(record_size)
            .map(<[u8]>::to_vec)
            .collect()
    }

    /// Scans `records` for every selector (each covering exactly those
    /// records), returning the `k` accumulators back to back.
    fn scan_range(
        &self,
        kernel: &dyn ScanKernel,
        records: &[u8],
        selectors: &[&SelectorVector],
    ) -> Vec<u8> {
        let record_size = self.database.record_size();
        let mut accumulators = vec![0u8; selectors.len() * record_size];
        self.scan_scratches.with(|acc_words| {
            kernel.xor_select_many(
                records,
                record_size,
                selectors,
                &mut accumulators,
                acc_words,
            );
        });
        accumulators
    }
}

impl PirServer for CpuPirServer {
    fn num_records(&self) -> u64 {
        self.database.num_records()
    }

    fn record_size(&self) -> usize {
        self.database.record_size()
    }

    fn process_query(
        &mut self,
        share: &QueryShare,
    ) -> Result<(ServerResponse, PhaseBreakdown), PirError> {
        self.check_domain(share)?;
        let num_records = self.database.num_records();

        // Phase ➋: DPF evaluation over the database domain.
        let (selector, eval_seconds) = timed(|| {
            self.config
                .eval_strategy
                .eval_range(&share.key, 0, num_records)
        });
        let selector = selector?;

        // Phase ➍ (on the CPU): selector-weighted XOR of the whole DB, as
        // a pass with one selector.
        let (mut payloads, dpxor_seconds) = timed(|| self.scan_pass(&[&selector]));
        let payload = payloads.pop().expect("one payload per selector");

        let phases = PhaseBreakdown {
            eval: PhaseTime::host(eval_seconds),
            dpxor: PhaseTime::host(dpxor_seconds),
            ..PhaseBreakdown::zero()
        };
        Ok((
            ServerResponse::new(share.query_id, share.key.party(), payload),
            phases,
        ))
    }

    fn process_batch(
        &mut self,
        shares: &[QueryShare],
    ) -> Result<crate::server::BatchOutcome, PirError> {
        // The generic pipeline evaluates on its stage-1 workers; stage 2
        // scans each wave in one pass.
        crate::batch::process_batch(self, shares, &crate::batch::BatchConfig::default())
    }
}

impl crate::batch::BatchExecutor for CpuPirServer {
    fn evaluate_selector(&self, share: &QueryShare) -> Result<SelectorVector, PirError> {
        self.check_domain(share)?;
        Ok(self
            .config
            .eval_strategy
            .eval_range(&share.key, 0, self.database.num_records())?)
    }

    fn selector_evaluator(&self) -> crate::batch::SelectorEvaluator {
        crate::batch::database_selector_evaluator(
            Arc::clone(&self.database),
            self.config.eval_strategy,
        )
    }

    /// Queries one pass over the replica serves
    /// ([`CpuServerConfig::wave_width`]).
    fn wave_width(&self) -> usize {
        CpuServerConfig::wave_width(self.database.record_size())
    }

    /// One pass over the replica for the whole wave; the pass's wall time
    /// is the wave's dpXOR phase, as one DPU launch is for a PIM wave.
    fn execute_wave(
        &mut self,
        selectors: &[&SelectorVector],
    ) -> Result<(Vec<Vec<u8>>, PhaseBreakdown), PirError> {
        if selectors.is_empty() {
            return Ok((Vec::new(), PhaseBreakdown::zero()));
        }
        let (payloads, dpxor_seconds) = timed(|| self.scan_pass(selectors));
        let phases = PhaseBreakdown {
            dpxor: PhaseTime::host(dpxor_seconds),
            ..PhaseBreakdown::zero()
        };
        Ok((payloads, phases))
    }
}

impl crate::capacity::ProfiledBackend for CpuPirServer {
    /// Host-parameter profile (see [`CpuServerConfig::capacity_profile`]).
    fn capacity_profile(&self) -> crate::capacity::CapacityProfile {
        self.config
            .capacity_profile(self.database.record_size())
            .expect("the server was constructed under this configuration")
    }
}

impl crate::batch::UpdatableBackend for CpuPirServer {
    /// Overwrites records in the server's database replica. The replica is
    /// copy-on-write: if the `Arc` is shared (e.g. with a second server or
    /// an external oracle), this server gets its own updated copy and the
    /// shared one stays untouched. Subsequent scans read the new contents;
    /// no bytes move to any accelerator, so `bytes_pushed` and
    /// `simulated_seconds` are zero.
    fn apply_updates(
        &mut self,
        updates: &[(u64, Vec<u8>)],
    ) -> Result<crate::batch::UpdateOutcome, PirError> {
        crate::batch::apply_host_updates(&mut self.database, &mut self.database_epoch, updates)
    }

    fn database(&self) -> &Arc<Database> {
        CpuPirServer::database(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use proptest::prelude::*;

    fn setup(
        num_records: u64,
        record_size: usize,
        config: CpuServerConfig,
    ) -> (Arc<Database>, CpuPirServer, CpuPirServer, PirClient) {
        let db = Arc::new(Database::random(num_records, record_size, 11).unwrap());
        let s1 = CpuPirServer::new(db.clone(), config.clone()).unwrap();
        let s2 = CpuPirServer::new(db.clone(), config).unwrap();
        let client = PirClient::new(num_records, record_size, 5).unwrap();
        (db, s1, s2, client)
    }

    #[test]
    fn end_to_end_retrieval_baseline_config() {
        let (db, mut s1, mut s2, mut client) = setup(300, 32, CpuServerConfig::baseline());
        for index in [0u64, 1, 150, 299] {
            let (q1, q2) = client.generate_query(index).unwrap();
            let (r1, phases_1) = s1.process_query(&q1).unwrap();
            let (r2, _) = s2.process_query(&q2).unwrap();
            assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(index));
            assert!(phases_1.eval.wall_seconds >= 0.0);
            assert!(phases_1.copy_to_pim.wall_seconds == 0.0);
        }
    }

    #[test]
    fn end_to_end_retrieval_multithreaded_config() {
        let (db, mut s1, mut s2, mut client) = setup(500, 24, CpuServerConfig::multithreaded());
        let (q1, q2) = client.generate_query(421).unwrap();
        let (r1, _) = s1.process_query(&q1).unwrap();
        let (r2, _) = s2.process_query(&q2).unwrap();
        assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(421));
    }

    #[test]
    fn batch_processing_matches_single_queries() {
        let (db, mut s1, mut s2, mut client) = setup(200, 16, CpuServerConfig::baseline());
        let indices = [3u64, 77, 123, 199, 0];
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let batch_1 = s1.process_batch(&shares_1).unwrap();
        let batch_2 = s2.process_batch(&shares_2).unwrap();
        assert_eq!(batch_1.responses.len(), indices.len());
        for (i, index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&batch_1.responses[i], &batch_2.responses[i])
                .unwrap();
            assert_eq!(record, db.record(*index));
        }
        assert!(batch_1.throughput_qps() > 0.0);
    }

    #[test]
    fn domain_mismatch_is_rejected() {
        let (_, mut s1, _, _) = setup(100, 8, CpuServerConfig::baseline());
        let mut other_client = PirClient::new(100_000, 8, 0).unwrap();
        let (q1, _) = other_client.generate_query(5).unwrap();
        assert!(matches!(
            s1.process_query(&q1),
            Err(PirError::QueryDomainMismatch { .. })
        ));
    }

    #[test]
    fn updates_are_visible_and_copy_on_write_preserves_shared_replicas() {
        use crate::batch::UpdatableBackend;
        let (db, mut s1, mut s2, mut client) = setup(100, 8, CpuServerConfig::baseline());
        let updates: Vec<(u64, Vec<u8>)> = vec![(0, vec![0xaa; 8]), (99, vec![0xbb; 8])];
        let outcome = s1.apply_updates(&updates).unwrap();
        s2.apply_updates(&updates).unwrap();
        assert_eq!(outcome.records_updated, 2);
        assert_eq!(outcome.bytes_pushed, 0);
        assert_eq!(outcome.epoch, 1);
        // The servers' replicas moved; the caller's Arc did not.
        assert_eq!(s1.database().record(0), &[0xaa; 8]);
        assert_ne!(db.record(0), &[0xaa; 8][..]);
        for (index, bytes) in &updates {
            let (q1, q2) = client.generate_query(*index).unwrap();
            let (r1, _) = s1.process_query(&q1).unwrap();
            let (r2, _) = s2.process_query(&q2).unwrap();
            assert_eq!(client.reconstruct(&r1, &r2).unwrap(), bytes.as_slice());
        }
        // All-or-nothing: a poisoned batch leaves the replica unchanged.
        let poisoned = vec![(1u64, vec![0xcc; 8]), (100u64, vec![0xcc; 8])];
        assert!(matches!(
            s1.apply_updates(&poisoned),
            Err(PirError::IndexOutOfRange { .. })
        ));
        assert_eq!(s1.database().record(1), db.record(1));
    }

    #[test]
    fn threaded_scans_are_byte_identical_to_single_threaded() {
        // The acceptance pin: splitting a pass over threads must change
        // nothing but speed. Four selectors over replicas of over 2 MiB put
        // every pass above INLINE_PASS_BYTES; the record counts split
        // unevenly over the threads (a 64-aligned count, one past it, one
        // short of it, and 64 records short of a two-thread split), and odd
        // record sizes also cover the word+tail kernel route.
        use crate::batch::BatchExecutor;
        for (num_records, record_size) in [
            (100_032usize, 24usize),
            (100_033, 33),
            (100_031, 40),
            (131_008, 24),
        ] {
            let db = Arc::new(Database::random(num_records as u64, record_size, 21).unwrap());
            assert!(4 * db.as_bytes().len() >= INLINE_PASS_BYTES);
            let selectors: Vec<SelectorVector> = [2usize, 3, 5, 7]
                .iter()
                .map(|step| (0..num_records).map(|i| i % step == 1).collect())
                .collect();
            let reference: Vec<Vec<u8>> = selectors
                .iter()
                .map(|selector| {
                    let mut accumulator = vec![0u8; record_size];
                    dpxor::xor_select_scalar(
                        db.as_bytes(),
                        record_size,
                        selector,
                        &mut accumulator,
                    );
                    accumulator
                })
                .collect();
            let wave: Vec<&SelectorVector> = selectors.iter().collect();
            let mut server = CpuPirServer::new(db.clone(), CpuServerConfig::baseline()).unwrap();
            let (payloads, _) = server.execute_wave(&wave).unwrap();
            assert_eq!(
                payloads, reference,
                "num_records={num_records} record_size={record_size}"
            );
        }
    }

    #[test]
    fn every_kernel_choice_is_byte_identical() {
        let db = Arc::new(Database::random(500, 40, 33).unwrap());
        let mut client = PirClient::new(500, 40, 14).unwrap();
        let (q1, _) = client.generate_query(123).unwrap();
        let mut payloads = Vec::new();
        for scan_kernel in [
            KernelChoice::Auto,
            KernelChoice::Scalar,
            KernelChoice::Wide,
            KernelChoice::Unrolled,
        ] {
            let mut server = CpuPirServer::new(
                db.clone(),
                CpuServerConfig {
                    eval_strategy: EvalStrategy::LevelByLevel,
                    scan_kernel,
                },
            )
            .unwrap();
            payloads.push(server.process_query(&q1).unwrap().0.payload);
        }
        for payload in &payloads[1..] {
            assert_eq!(payload, &payloads[0]);
        }
    }

    #[test]
    fn wave_width_is_the_pass_width_capped_by_the_accumulator_budget() {
        assert_eq!(CpuServerConfig::wave_width(32), PASS_SELECTORS);
        assert_eq!(CpuServerConfig::wave_width(32 * 1024), PASS_SELECTORS);
        assert_eq!(CpuServerConfig::wave_width(128 * 1024), 8);
        assert_eq!(CpuServerConfig::wave_width(PASS_ACCUMULATOR_BYTES * 2), 1);
    }

    #[test]
    fn declared_profile_keeps_the_effective_bandwidth_of_one_slot_per_core() {
        use crate::capacity::HOST_SCAN_BANDWIDTH_PER_THREAD;
        let threads = impir_dpf::host_parallelism() as f64;
        for record_size in [32usize, 40, 32 * 1024, 256 * 1024] {
            let profile = CpuServerConfig::baseline()
                .capacity_profile(record_size)
                .unwrap();
            assert_eq!(profile.wave_width, CpuServerConfig::wave_width(record_size));
            let effective = profile.effective_scan_bandwidth();
            let expected = threads * HOST_SCAN_BANDWIDTH_PER_THREAD;
            assert!((effective - expected).abs() <= expected * 1e-12);
        }
    }

    #[test]
    fn zero_thread_eval_strategy_is_rejected() {
        let db = Arc::new(Database::random(10, 8, 0).unwrap());
        let config = CpuServerConfig {
            eval_strategy: EvalStrategy::SubtreeParallel { threads: 0 },
            scan_kernel: KernelChoice::Auto,
        };
        assert!(matches!(
            CpuPirServer::new(db, config),
            Err(PirError::Config { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_retrieval_is_correct_for_random_geometries(
            num_records in 2u64..600,
            record_words in 1usize..5,
            seed in any::<u64>(),
        ) {
            let record_size = record_words * 8;
            let db = Arc::new(Database::random(num_records, record_size, seed).unwrap());
            let config = CpuServerConfig {
                eval_strategy: EvalStrategy::MemoryBounded { chunk_bits: 6 },
                scan_kernel: KernelChoice::Auto,
            };
            let mut s1 = CpuPirServer::new(db.clone(), config.clone()).unwrap();
            let mut s2 = CpuPirServer::new(db.clone(), config).unwrap();
            let mut client = PirClient::new(num_records, record_size, seed ^ 1).unwrap();
            let index = seed % num_records;
            let (q1, q2) = client.generate_query(index).unwrap();
            let (r1, _) = s1.process_query(&q1).unwrap();
            let (r2, _) = s2.process_query(&q2).unwrap();
            prop_assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(index));
        }
    }
}
