//! CPU-PIR: the processor-centric DPF-PIR baseline (paper §5.1).
//!
//! The baseline mirrors the setup the paper evaluates against: a DPF-PIR
//! implementation in the style of Google's `distributed_point_functions`
//! library where *each query is handled by a single CPU thread* (eval +
//! scan) and AVX stands in for wide XORs. Here the engine evaluates each
//! query on its own worker thread, and the CPU server scans each wave of
//! queries in one pass over the database with one scan thread per core
//! (see [`impir_core::server::cpu`]).

use std::sync::Arc;

use impir_core::engine::{EngineConfig, QueryEngine};
use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
use impir_core::server::BatchOutcome;
use impir_core::{BatchConfig, Database, PirError, QueryShare};
use impir_dpf::EvalStrategy;
use impir_perf::model::{BatchEstimate, PirWorkload};
use impir_perf::DeviceProfile;

use crate::sut::SystemUnderTest;

/// The CPU-PIR baseline system.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use impir_baselines::{CpuPirBaseline, SystemUnderTest};
/// use impir_core::{Database, PirClient};
///
/// let db = Arc::new(Database::random(128, 32, 2)?);
/// let mut baseline = CpuPirBaseline::new(db.clone())?;
/// let mut client = PirClient::new(128, 32, 0)?;
/// let (shares_1, _shares_2) = client.generate_batch(&[3, 99])?;
/// let outcome = baseline.process_batch(&shares_1)?;
/// assert_eq!(outcome.responses.len(), 2);
/// # Ok::<(), impir_core::PirError>(())
/// ```
#[derive(Debug)]
pub struct CpuPirBaseline {
    engine: QueryEngine<CpuPirServer>,
}

impl CpuPirBaseline {
    /// Builds the baseline over `database` with the paper's configuration
    /// (single-thread scan per query, level-by-level evaluation).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(database: Arc<Database>) -> Result<Self, PirError> {
        Self::with_config(database, CpuServerConfig::baseline())
    }

    /// Builds the baseline with an explicit server configuration (used by
    /// ablations that give the CPU more scan threads). Execution runs
    /// through a single-shard [`QueryEngine`] whose evaluation stage uses
    /// the configured strategy.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn with_config(database: Arc<Database>, config: CpuServerConfig) -> Result<Self, PirError> {
        let engine_config = EngineConfig::new(BatchConfig::default(), config.eval_strategy)?;
        let server = CpuPirServer::new(database, config)?;
        Ok(CpuPirBaseline {
            engine: QueryEngine::single(server, engine_config)?,
        })
    }

    /// The engine executing this baseline's queries.
    #[must_use]
    pub fn engine(&self) -> &QueryEngine<CpuPirServer> {
        &self.engine
    }

    /// The underlying CPU server.
    #[must_use]
    pub fn server(&self) -> &CpuPirServer {
        self.engine.backend(0).expect("engine has one shard")
    }

    /// The evaluation strategy the baseline uses (level-by-level, as in the
    /// reference implementation).
    #[must_use]
    pub fn eval_strategy() -> EvalStrategy {
        EvalStrategy::LevelByLevel
    }
}

impl SystemUnderTest for CpuPirBaseline {
    fn label(&self) -> &'static str {
        "CPU-PIR"
    }

    fn num_records(&self) -> u64 {
        self.engine.num_records()
    }

    fn record_size(&self) -> usize {
        self.engine.record_size()
    }

    fn process_batch(&mut self, shares: &[QueryShare]) -> Result<BatchOutcome, PirError> {
        self.engine.execute_batch(shares)
    }

    fn model_batch(&self, workload: &PirWorkload) -> BatchEstimate {
        let profile = DeviceProfile::cpu_baseline_xeon_e5_2683();
        impir_perf::model::cpu_pir_batch(&profile, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impir_core::PirClient;

    #[test]
    fn baseline_answers_are_correct() {
        let db = Arc::new(Database::random(256, 32, 3).unwrap());
        let mut baseline_1 = CpuPirBaseline::new(db.clone()).unwrap();
        let mut baseline_2 = CpuPirBaseline::new(db.clone()).unwrap();
        let mut client = PirClient::new(256, 32, 1).unwrap();
        let indices = [0u64, 100, 255];
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let outcome_1 = baseline_1.process_batch(&shares_1).unwrap();
        let outcome_2 = baseline_2.process_batch(&shares_2).unwrap();
        for (i, index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&outcome_1.responses[i], &outcome_2.responses[i])
                .unwrap();
            assert_eq!(record, db.record(*index));
        }
    }

    #[test]
    fn model_predicts_dpxor_dominated_latency() {
        let db = Arc::new(Database::random(16, 32, 0).unwrap());
        let baseline = CpuPirBaseline::new(db).unwrap();
        let workload = PirWorkload::new(4 << 30, 32, 32);
        let estimate = baseline.model_batch(&workload);
        assert!(estimate.latency_seconds > 0.0);
        assert!(estimate.throughput_qps() > 0.0);
    }

    #[test]
    fn label_matches_paper_terminology() {
        let db = Arc::new(Database::random(16, 8, 0).unwrap());
        let baseline = CpuPirBaseline::new(db).unwrap();
        assert_eq!(baseline.label(), "CPU-PIR");
    }
}
