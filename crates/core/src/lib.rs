//! IM-PIR: in-memory (PIM-accelerated) multi-server private information
//! retrieval — the core contribution of the reproduced paper.
//!
//! # Protocol
//!
//! The library implements the full two-server PIR protocol of the paper's
//! §3 and Algorithm 1:
//!
//! 1. the client encodes its query index as a pair of DPF keys
//!    ([`client::PirClient`], step ➊);
//! 2. each server evaluates its key over the whole database domain on the
//!    host CPU using the subtree-parallel strategy of §3.2 (step ➋);
//! 3. the selector bits are scattered to the DPUs holding the preloaded
//!    database chunks (step ➌);
//! 4. every DPU runs the two-stage parallel-reduction `dpXOR` kernel over
//!    its chunk (step ➍), subresults are copied back (➎) and aggregated on
//!    the host (➏);
//! 5. the client XORs the two servers' responses to recover the record
//!    (step ➐).
//!
//! # Architecture: transport → engine → backend → substrate
//!
//! Execution is layered so that *deployment policy* (where a server runs,
//! how it is sharded and batched) lives apart from *data-plane mechanism*
//! (how one scan runs):
//!
//! * **transport** — the service layer's client-side boundary.
//!   Schemes ([`scheme::TwoServerPir`], [`multi_server::NServerNaivePir`])
//!   hold `Box<dyn `[`transport::PirTransport`]`>` per server, so "where
//!   the server runs" is a constructor argument, not a type:
//!   [`transport::LocalTransport`] wraps a [`engine::QueryEngine`]
//!   in-process, and [`transport::TcpTransport`] speaks the versioned
//!   [`wire`] format (length-prefixed little-endian frames, magic/version
//!   handshake, hard frame-size limits) to an `impir-server` process —
//!   which multiplexes many client sessions onto one shared engine,
//!   coalescing concurrent sessions' batches into shared engine waves.
//!   `TcpTransport` is failure-aware: a [`transport::RetryPolicy`] bounds
//!   reconnect/retry attempts with exponential backoff and per-attempt I/O
//!   timeouts, retrying only idempotent operations (an update whose ack is
//!   lost is never blindly resent — the scheme resolves its fate by epoch).
//!   Every answered batch carries the database epoch it executed against,
//!   so replicated deployments detect update/query interleavings that
//!   reached only one server; each engine also keeps a bounded
//!   [`journal::UpdateJournal`] of applied batches, and a lagging replica
//!   catches up automatically by replaying its missed epochs from its
//!   peer's journal over the wire ([`wire::Frame::UpdateReplayRequest`]).
//!   Only a journal that no longer reaches back far enough fails closed
//!   with an actionable resync error. The [`fault`] module provides the
//!   deterministic fault-injection harness (seed-scheduled transport
//!   faults, a frame-aware TCP fault proxy) that soaks this recovery path
//!   in `tests/fault_recovery.rs`.
//! * **engine** — [`engine::QueryEngine`] owns a [`shard::ShardedDatabase`]
//!   (contiguous record-range shards under a [`shard::ShardPlan`]) and
//!   drives the §3.4 batch pipeline: worker threads evaluate DPF keys over
//!   the full domain behind a bounded admission queue (backpressure), each
//!   shard scans its slice of every selector in parallel, and the
//!   XOR-linear merge reassembles responses with per-phase accounting.
//!   Every deployment in the workspace — [`scheme::TwoServerPir`],
//!   [`multi_server::NServerNaivePir`], the baselines and the benchmark
//!   harness — executes through this one layer.
//! * **planner** — *how* the engine is sharded is itself deployment policy:
//!   the [`capacity`] module sizes shards to backend capacity instead of
//!   splitting uniformly. Each backend declares a
//!   [`capacity::CapacityProfile`] (record capacity from its memory budget,
//!   scan bandwidth, wave width — the PIM server derives its profile from
//!   per-cluster MRAM and the timed simulator's cost model, via
//!   [`capacity::ProfiledBackend`] or the configs' declared-profile
//!   constructors), a [`capacity::ShardPlanner`] waterfills records over
//!   effective bandwidth under hard capacity caps (optionally calibrated by
//!   measured probe scans), and [`engine::QueryEngine::planned`] pairs the
//!   resulting non-uniform plan with per-shard backends — heterogeneous
//!   fleets included, since boxed trait-object backends plug in directly.
//!   [`engine::QueryEngine::shard_timings`] exposes predicted-vs-actual
//!   per-shard skew so a plan's quality is observable in production.
//!   And the plan is not frozen at build time: the [`rebalance`] module
//!   closes the feedback loop from *measured* timings. A
//!   [`rebalance::RebalancePlanner`] turns the per-query hybrid seconds of
//!   the last batch into a bounded [`rebalance::MigrationPlan`] (at most a
//!   configured number of records per round, with hysteresis so balanced
//!   layouts are left alone), and [`engine::QueryEngine::rebalance`]
//!   executes it live: moved records are read from the donor shard's
//!   copy-on-write replica, rebuilt shards swap in atomically between
//!   batches, and the migration is journaled as one epoch step (an
//!   identity update batch), so replicas that never rebalanced replay it
//!   like any other update and keep reconstructing identical records —
//!   layouts stay invisible to clients even mid-migration.
//! * **backend** — anything implementing [`batch::BatchExecutor`] (selector
//!   evaluation + wave-wise scans) plus [`server::PirServer`]:
//!   * [`server::pim::ImPirServer`] — the paper's system, running `dpXOR`
//!     on the simulated UPMEM PIM with the database preloaded in MRAM; its
//!     wave width is its DPU cluster count (§3.4, Figure 8);
//!   * [`server::cpu::CpuPirServer`] — a processor-centric server running
//!     the same scan on host threads (the CPU baseline's building block);
//!   * [`server::streaming::StreamingImPirServer`] — the out-of-core §3.3
//!     variant that re-streams database segments through MRAM.
//!
//!   To plug in a new backend, implement `BatchExecutor`'s three methods
//!   and hand instances to the engine via [`engine::QueryEngine::single`]
//!   or a per-shard factory in [`engine::QueryEngine::sharded`]; sharding,
//!   pipelining, backpressure and accounting come from the engine.
//!   Backends that additionally implement [`batch::UpdatableBackend`] (all
//!   three bundled backends do) unlock the §3.3 bulk-update path:
//!   [`engine::QueryEngine::apply_updates`] validates an update batch
//!   all-or-nothing, translates global record indices to each shard's
//!   local index space and fans the per-shard sets out in parallel, so
//!   every shard, replica and snapshot moves to the new database version
//!   together (tracked by an engine-level epoch).
//! * **substrate** — the [`impir_pim`] crate simulates the UPMEM hardware
//!   (MRAM/WRAM capacities, tasklets, transfer and kernel cost models) that
//!   the PIM-family backends run on.
//!
//! # Topology: the fleet as data
//!
//! *What a deployment looks like* is itself data: a
//! [`topology::FleetTopology`] names every replica (listen address,
//! backend kind and geometry, shard policy, journal depth, scan kernel)
//! plus the client-side retry policy and an optional front-tier router,
//! parsed from a hand-rolled line-oriented config file (hostile input
//! decodes to [`PirError::Config`] with line numbers, never a panic) and
//! serialized back losslessly. Every construction path goes through it:
//! `impir-server` (both `--config FILE` and the classic flags, which
//! desugar into the same value) builds its engine with
//! [`topology::FleetTopology::build_engine`], the schemes connect with
//! [`scheme::TwoServerPir::from_topology`] /
//! [`multi_server::NServerNaivePir::from_topology`], and the
//! `impir-server --router` front tier spreads client sessions over the
//! topology's replicas with health probing and failover. One artifact
//! decides fleet shape; everything else consumes it.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use impir_core::{database::Database, scheme::TwoServerPir, server::pim::ImPirConfig};
//!
//! // A tiny database of 256 records of 32 bytes each.
//! let db = Arc::new(Database::random(256, 32, 7)?);
//! let mut pir = TwoServerPir::with_pim_servers(db.clone(), ImPirConfig::tiny_test(4))?;
//! let record = pir.query(123)?;
//! assert_eq!(record, db.record(123));
//! # Ok::<(), impir_core::PirError>(())
//! ```
//!
//! For a sharded, multi-backend deployment see [`engine`] and the
//! `engine_throughput` example at the workspace root; for a real-socket
//! deployment (two servers over TCP, mixed local/remote, bulk updates over
//! the wire) see the `networked_deployment` example and the `impir-server`
//! binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod capacity;
pub mod client;
pub mod database;
pub mod dpxor;
pub mod engine;
mod error;
pub mod fault;
pub mod journal;
pub mod multi_server;
pub mod protocol;
pub mod rebalance;
pub mod scheme;
pub mod server;
pub mod shard;
pub mod topology;
pub mod transport;
pub mod wire;

pub use batch::{BatchConfig, BatchExecutor, UpdatableBackend, UpdateOutcome};
pub use capacity::{CapacityProfile, ProfiledBackend, ShardPlanner};
pub use client::PirClient;
pub use database::Database;
pub use engine::{EngineConfig, QueryEngine, ShardTiming};
pub use error::PirError;
pub use fault::{FaultAction, FaultInjectingTransport, FaultProxy, FaultSchedule};
pub use journal::{UpdateBatch, UpdateJournal};
pub use protocol::{QueryShare, ServerResponse};
pub use rebalance::{
    MigrationPlan, RebalanceConfig, RebalanceOutcome, RebalancePlanner, RecordMove,
};
pub use server::{BatchOutcome, PhaseBreakdown, PirServer};
pub use shard::{ShardPlan, ShardedDatabase};
pub use topology::{
    BackendFactory, BackendSpec, BoxedBackend, FleetEngine, FleetTopology, RebalanceMode,
    ReplicaSpec, RetrySpec, RouterSpec, SessionTier, ShardPolicy, TransportKind,
};
pub use transport::{
    FrameChannel, LocalTransport, MuxConnection, MuxSession, PirTransport, RetryPolicy, ScanResult,
    ServerInfo, TcpTransport, TransportBatch,
};
pub use wire::EpochInfo;

/// Record size (in bytes) used throughout the paper's evaluation: each
/// record is a 32-byte (256-bit) hash, as in Certificate Transparency logs
/// and compromised-credential databases.
pub const PAPER_RECORD_BYTES: usize = 32;
