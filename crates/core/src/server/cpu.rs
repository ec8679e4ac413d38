//! A processor-centric PIR server: DPF evaluation and `dpXOR` on the host.
//!
//! This backend performs exactly the same work as [`crate::server::pim`]
//! but keeps the `dpXOR` scan on CPU threads, moving every database byte
//! from DRAM through the cache hierarchy — the data-movement cost IM-PIR is
//! designed to avoid. With `scan_threads = 1` it matches the paper's
//! CPU-PIR baseline configuration ("a single CPU thread for each query,
//! accelerated with AVX"); with more threads one query's scan fans
//! record-range chunks out over real `std::thread::scope` workers (per-chunk
//! accumulators XOR-merged at the end), an upper bound on what a
//! processor-centric server can do. The scan itself runs whichever
//! [`crate::dpxor::ScanKernel`] the config selects — by default the fastest
//! one for this host ([`crate::dpxor::best_kernel`]).

use std::sync::Arc;

use impir_dpf::{host_parallelism, EvalStrategy, SelectorVector};

use crate::database::Database;
use crate::dpxor;
use crate::dpxor::KernelChoice;
use crate::error::PirError;
use crate::protocol::{QueryShare, ServerResponse};
use crate::server::phases::{PhaseBreakdown, PhaseTime};
use crate::server::{timed, PirServer};

/// Configuration of a [`CpuPirServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct CpuServerConfig {
    /// Strategy for expanding the DPF key over the database domain.
    pub eval_strategy: EvalStrategy,
    /// Number of threads used for the `dpXOR` scan of one query
    /// (1 = the paper's baseline configuration). With more than one, the
    /// scan fans record-range chunks out over real `std::thread::scope`
    /// workers and XOR-merges the per-chunk accumulators.
    pub scan_threads: usize,
    /// Which [`dpxor::ScanKernel`] the scan runs — [`KernelChoice::Auto`]
    /// self-benchmarks once per process ([`dpxor::best_kernel`]); the other
    /// variants force a specific kernel (A/B runs, oracle comparisons).
    /// Every choice is byte-identical; only speed differs.
    pub scan_kernel: KernelChoice,
}

impl CpuServerConfig {
    /// The paper's CPU-PIR baseline: single-threaded scan, level-by-level
    /// evaluation, self-benchmarked scan kernel.
    #[must_use]
    pub fn baseline() -> Self {
        CpuServerConfig {
            eval_strategy: EvalStrategy::LevelByLevel,
            scan_threads: 1,
            scan_kernel: KernelChoice::Auto,
        }
    }

    /// A multi-threaded CPU server using all available cores for both
    /// evaluation and scanning.
    #[must_use]
    pub fn multithreaded() -> Self {
        let threads = host_parallelism();
        CpuServerConfig {
            eval_strategy: EvalStrategy::SubtreeParallel { threads },
            scan_threads: threads,
            scan_kernel: KernelChoice::Auto,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if `scan_threads` is zero or the
    /// evaluation strategy is degenerate (zero subtree-parallel threads).
    pub fn validate(&self) -> Result<(), PirError> {
        if self.scan_threads == 0 {
            return Err(PirError::Config {
                reason: "scan_threads must be at least 1".to_string(),
            });
        }
        crate::engine::validate_eval_strategy(&self.eval_strategy)
    }

    /// Number of concurrent wave slots a server under this configuration
    /// runs: each slot scans with `scan_threads` threads, so the slot count
    /// shrinks as per-query parallelism grows, and total threads never
    /// exceed the host's parallelism. The single definition backing both
    /// [`crate::batch::BatchExecutor::wave_width`] and the declared
    /// capacity profile, so the planner can never predict wave counts the
    /// backend does not deliver.
    ///
    /// Based on [`host_parallelism`] (`std::thread::available_parallelism`):
    /// how many scoped scan threads the host can actually run side by
    /// side.
    #[must_use]
    pub fn wave_width(&self) -> usize {
        (host_parallelism() / self.scan_threads.max(1)).max(1)
    }

    /// The **declared** [`crate::capacity::CapacityProfile`] of a CPU
    /// server under this configuration: record capacity bounded only by
    /// host memory, one wave slot scanning at `scan_threads` threads' worth
    /// of the declared per-thread DRAM bandwidth
    /// ([`crate::capacity::HOST_SCAN_BANDWIDTH_PER_THREAD`] — refine with
    /// [`crate::capacity::measure_scan_bandwidth`]), and the wave width the
    /// backend itself reports ([`CpuServerConfig::wave_width`]).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the configuration is invalid.
    pub fn capacity_profile(&self) -> Result<crate::capacity::CapacityProfile, PirError> {
        self.validate()?;
        let eval_threads = match self.eval_strategy {
            EvalStrategy::SubtreeParallel { threads } => threads,
            _ => 1,
        };
        crate::capacity::CapacityProfile::unbounded(
            self.scan_threads as f64 * crate::capacity::HOST_SCAN_BANDWIDTH_PER_THREAD,
            eval_threads as f64 * crate::capacity::HOST_EVAL_LEAVES_PER_SEC_PER_THREAD,
            self.wave_width(),
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

    /// The `dpXOR` scan over the full database with `scan_threads` threads.
    ///
    /// With one thread the configured kernel scans the whole replica in
    /// place; with more, record-range chunks fan out over real
    /// `std::thread::scope` workers (exactly like the engine's shard
    /// fan-out) and the per-chunk accumulators are XOR-merged at the end —
    /// XOR-linearity makes the split invisible in the result. Chunk
    /// boundaries are rounded up to 64-record multiples so every worker's
    /// selector slice is word-aligned (a pure sub-slice of the packed
    /// selector words, no bit shifting).
    fn scan(&self, selector: &SelectorVector) -> Vec<u8> {
        let record_size = self.database.record_size();
        let num_records = self.database.num_records() as usize;
        let kernel = self.config.scan_kernel.resolve();
        let threads = self.config.scan_threads.min(num_records.max(1));
        if threads <= 1 {
            let mut accumulator = vec![0u8; record_size];
            self.scan_scratches.with(|acc_words| {
                kernel.xor_select(
                    self.database.as_bytes(),
                    record_size,
                    selector,
                    &mut accumulator,
                    acc_words,
                );
            });
            return accumulator;
        }
        let per_thread = num_records.div_ceil(threads).next_multiple_of(64);
        let partials: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|thread| {
                    scope.spawn(move || {
                        let start = thread * per_thread;
                        if start >= num_records {
                            return vec![0u8; record_size];
                        }
                        let count = per_thread.min(num_records - start);
                        let chunk = self.database.record_chunk(start as u64, count as u64);
                        let chunk_selector = selector.slice(start, count);
                        let mut accumulator = vec![0u8; record_size];
                        self.scan_scratches.with(|acc_words| {
                            kernel.xor_select(
                                chunk,
                                record_size,
                                &chunk_selector,
                                &mut accumulator,
                                acc_words,
                            );
                        });
                        accumulator
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("scan worker panicked"))
                .collect()
        });
        dpxor::xor_reduce(&partials, record_size)
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

        // Phase ➍ (on the CPU): selector-weighted XOR of the whole DB.
        let (payload, dpxor_seconds) = timed(|| self.scan(&selector));

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
        // The CPU baseline handles each query on its own worker thread
        // (§5.1: "a single CPU thread for each query"); the generic
        // pipeline reproduces that with its stage-1 worker fan-out, and
        // stage 2 runs the scans.
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

    fn wave_width(&self) -> usize {
        // The baseline (§5.1, "a single CPU thread for each query") runs
        // one query per core, while a fully multithreaded server — or the
        // GPU comparator, which serialises queries on the device — runs
        // one query at a time (see `CpuServerConfig::wave_width`).
        self.config.wave_width()
    }

    fn execute_wave(
        &mut self,
        selectors: &[&SelectorVector],
    ) -> Result<(Vec<Vec<u8>>, PhaseBreakdown), PirError> {
        let mut phases = PhaseBreakdown::zero();
        // One scoped thread per wave slot (the wave width caps this at the
        // host's parallelism); each slot's scan is timed on its own thread
        // and the per-query dpXOR costs are summed, as the baseline's cost
        // model expects.
        let server: &CpuPirServer = self;
        let timings: Vec<(Vec<u8>, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = selectors
                .iter()
                .map(|selector| scope.spawn(move || timed(|| server.scan(selector))))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("scan worker panicked"))
                .collect()
        });
        let mut payloads = Vec::with_capacity(selectors.len());
        for (payload, dpxor_seconds) in timings {
            phases.dpxor.merge(&PhaseTime::host(dpxor_seconds));
            payloads.push(payload);
        }
        Ok((payloads, phases))
    }
}

impl crate::capacity::ProfiledBackend for CpuPirServer {
    /// Host-parameter profile (see [`CpuServerConfig::capacity_profile`]).
    fn capacity_profile(&self) -> crate::capacity::CapacityProfile {
        self.config
            .capacity_profile()
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
        // The acceptance pin: scan_threads > 1 must change nothing but
        // speed. Odd record sizes included so the chunked path also covers
        // the word+tail kernel route.
        for record_size in [24usize, 33] {
            let db = Arc::new(Database::random(1000, record_size, 21).unwrap());
            let mut client = PirClient::new(1000, record_size, 8).unwrap();
            let (q1, _) = client.generate_query(517).unwrap();
            let reference = {
                let mut server = CpuPirServer::new(
                    db.clone(),
                    CpuServerConfig {
                        eval_strategy: EvalStrategy::LevelByLevel,
                        scan_threads: 1,
                        scan_kernel: KernelChoice::Auto,
                    },
                )
                .unwrap();
                server.process_query(&q1).unwrap().0
            };
            for scan_threads in [2usize, 3, 4, 7] {
                let mut server = CpuPirServer::new(
                    db.clone(),
                    CpuServerConfig {
                        eval_strategy: EvalStrategy::LevelByLevel,
                        scan_threads,
                        scan_kernel: KernelChoice::Auto,
                    },
                )
                .unwrap();
                let (response, _) = server.process_query(&q1).unwrap();
                assert_eq!(
                    response.payload, reference.payload,
                    "scan_threads={scan_threads} record_size={record_size}"
                );
            }
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
                    scan_threads: 2,
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
    fn wave_width_is_independent_of_the_rayon_shim() {
        // scan_threads ≥ host parallelism collapses the wave to one slot;
        // a single-thread scan frees every core for concurrent slots.
        let threads = impir_dpf::host_parallelism();
        let config = CpuServerConfig {
            eval_strategy: EvalStrategy::LevelByLevel,
            scan_threads: threads,
            scan_kernel: KernelChoice::Auto,
        };
        assert_eq!(config.wave_width(), 1);
        assert_eq!(CpuServerConfig::baseline().wave_width(), threads);
    }

    #[test]
    fn zero_thread_eval_strategy_is_rejected() {
        let db = Arc::new(Database::random(10, 8, 0).unwrap());
        let config = CpuServerConfig {
            eval_strategy: EvalStrategy::SubtreeParallel { threads: 0 },
            scan_threads: 1,
            scan_kernel: KernelChoice::Auto,
        };
        assert!(matches!(
            CpuPirServer::new(db, config),
            Err(PirError::Config { .. })
        ));
    }

    #[test]
    fn zero_scan_threads_is_rejected() {
        let db = Arc::new(Database::random(10, 8, 0).unwrap());
        let config = CpuServerConfig {
            eval_strategy: EvalStrategy::LevelByLevel,
            scan_threads: 0,
            scan_kernel: KernelChoice::Auto,
        };
        assert!(CpuPirServer::new(db, config).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_retrieval_is_correct_for_random_geometries(
            num_records in 2u64..600,
            record_words in 1usize..5,
            scan_threads in 1usize..5,
            seed in any::<u64>(),
        ) {
            let record_size = record_words * 8;
            let db = Arc::new(Database::random(num_records, record_size, seed).unwrap());
            let config = CpuServerConfig {
                eval_strategy: EvalStrategy::MemoryBounded { chunk_bits: 6 },
                scan_threads,
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
