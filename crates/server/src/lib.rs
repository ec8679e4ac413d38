//! The IM-PIR network server: many client sessions, one shared
//! [`QueryEngine`].
//!
//! [`PirService`] owns the server side of the service layer:
//!
//! * one **session tier** turns TCP connections into request frames: a
//!   single `poll(2)` event loop ([`events`]) drives every connection, and
//!   logical sessions multiplexed on one connection
//!   ([`impir_core::wire::Frame::Mux`]), so the thread count stays
//!   constant however many sessions connect, and an idle server makes no
//!   wake-ups. It gates the handshake, classifies every later frame, and
//!   sheds with a typed `Overloaded` refusal when the dispatcher's bounded
//!   queue ([`ServiceConfig::admission_capacity`]) is full;
//! * the **frame is the contract** between the loop and the one
//!   **dispatcher thread** that owns the engine and builds every reply
//!   frame, `HelloAck` included, so each request kind is handled in
//!   exactly one place. Query batches from *concurrently active sessions*
//!   are coalesced into one engine wave — the merged batch flows through
//!   the engine's existing bounded admission queue, so cross-session
//!   batching inherits the §3.4 pipeline (and its backpressure) instead of
//!   re-implementing it;
//! * updates and queries are serialised by the dispatcher, and every
//!   response batch is tagged with the database epoch it executed
//!   against, so clients can detect update/query interleavings that
//!   reached only one replica;
//! * with `--rebalance auto` the dispatcher also closes the measured-skew
//!   feedback loop: after a query wave whose per-shard timings show one
//!   shard dominating the scan, it executes a bounded record migration
//!   *between* waves ([`RebalancePolicy`]) — an epoch step lagging
//!   replicas replay like any update batch;
//! * [`PirService::shutdown`] wakes the loop, which stops accepting and
//!   reading but still writes every reply the dispatcher owes (an update
//!   in flight at shutdown is acked), then closes every connection and
//!   joins both threads.
//!
//! A session's shares are validated against the engine's DPF domain
//! *before* they join a merged wave: one client with stale geometry gets
//! its own error frame and nobody else's queries fail.
//!
//! The service is built from a [`FleetTopology`] — the declarative fleet
//! description in [`impir_core::topology`] — via [`build_service`]; the
//! `impir-server` binary's classic flags desugar into the same topology
//! value (see [`cli`]), so there is exactly one construction path. The
//! [`router`] module adds the front tier that spreads client sessions
//! over a topology's replicas; its client connections run on the same
//! event loop, with a fixed pool of router workers in place of the
//! dispatcher.
//!
//! The crate is Linux-only: the event loop blocks in `poll(2)`, the one
//! foreign call, confined to a private module that alone may use
//! `unsafe`, and it classifies `accept(2)` failures by Linux's errno
//! values.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("impir-server serves from a Linux poll(2) event loop and needs a Linux target");

pub mod cli;
pub mod events;
#[allow(unsafe_code)]
mod poll;
pub mod router;

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver};
use impir_core::batch::UpdatableBackend;
use impir_core::database::Database;
use impir_core::engine::QueryEngine;
use impir_core::rebalance::{RebalanceConfig, RebalancePlanner};
use impir_core::server::phases::PhaseBreakdown;
use impir_core::topology::{FleetTopology, RebalanceMode};
use impir_core::transport::ServerInfo;
use impir_core::wire::{
    update_batch_frame_bytes, Frame, FRAME_HEADER_BYTES, MAX_FRAME_BYTES, WIRE_VERSION,
};
use impir_core::{PirError, QueryShare, UpdateBatch};

/// Configuration of a [`PirService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum number of concurrent sessions' query batches coalesced into
    /// one engine wave. The dispatcher never waits for more batches — it
    /// merges whatever is already pending, up to this limit.
    pub coalesce_limit: usize,
    /// Stop accepting new work once this many **logical sessions** have
    /// opened (`None` = serve until shutdown). The budget counts logical
    /// sessions, not TCP connections: a connection's root session counts
    /// one when its protocol handshake completes, and every distinct
    /// multiplexed session id opened on a connection
    /// ([`impir_core::wire::Frame::Mux`]) counts one more. The count is
    /// monotone — sessions that close do not refund the budget — so
    /// `max_sessions = N` means "serve at most N sessions over this
    /// process's lifetime", which is what one-shot deployments and tests
    /// want. Probe connections that never say `Hello` — port scanners,
    /// health checks — do not consume the budget. The bound is
    /// best-effort, not exact: root sessions of connections accepted
    /// *before* the budget was exhausted are served in full, so
    /// near-simultaneous arrivals can briefly overshoot the limit; a
    /// *multiplexed* session opened past the budget is refused with an
    /// error frame while its connection stays usable.
    pub max_sessions: Option<usize>,
    /// Capacity of the dispatcher's bounded admission queue, in requests.
    /// The event loop never blocks on a full queue; it sheds instead — see
    /// [`impir_core::wire::Frame::Overloaded`].
    pub admission_capacity: usize,
    /// Upper bound, in encoded bytes, on one `UpdateReplay` reply frame.
    /// A journal replay larger than this is sent as the longest prefix
    /// that fits; the client re-requests from its advanced epoch until it
    /// is caught up. Defaults to the wire-level
    /// [`MAX_FRAME_BYTES`] (and may not exceed it — larger frames are
    /// rejected by the encoder); tests lower it to exercise chunking with
    /// small batches.
    pub max_replay_frame_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            coalesce_limit: 16,
            max_sessions: None,
            admission_capacity: 64,
            max_replay_frame_bytes: MAX_FRAME_BYTES,
        }
    }
}

impl ServiceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for a zero coalesce limit or admission
    /// capacity, and for a replay frame bound outside
    /// [`MIN_REPLAY_FRAME_BYTES`]`..=`[`MAX_FRAME_BYTES`].
    pub fn validate(&self) -> Result<(), PirError> {
        if self.coalesce_limit == 0 {
            return Err(PirError::Config {
                reason: "the session coalesce limit must be at least 1".to_string(),
            });
        }
        if self.admission_capacity == 0 {
            return Err(PirError::Config {
                reason: "the dispatcher admission capacity must be at least 1".to_string(),
            });
        }
        if self.max_replay_frame_bytes < MIN_REPLAY_FRAME_BYTES
            || self.max_replay_frame_bytes > MAX_FRAME_BYTES
        {
            return Err(PirError::Config {
                reason: format!(
                    "the replay frame bound must be between {MIN_REPLAY_FRAME_BYTES} and \
                     {MAX_FRAME_BYTES} bytes, got {}",
                    self.max_replay_frame_bytes
                ),
            });
        }
        Ok(())
    }
}

/// A per-shard backend constructor the dispatcher retains so it can
/// rebuild shards live when a rebalance triggers — the same closure shape
/// the engine was constructed with.
pub type ShardFactory<S> =
    Box<dyn FnMut(Arc<Database>, usize) -> Result<S, PirError> + Send + 'static>;

/// The live-rebalancing policy of a served engine: after each query wave
/// the dispatcher hands the wave's measured per-shard timings to the
/// planner, and executes any non-empty migration plan it emits — between
/// waves, under the dispatcher's existing update/query serialization, so
/// no traffic is drained. The planner's hysteresis
/// ([`RebalanceConfig::min_skew`]) is the trigger threshold; its
/// per-round record cap bounds how much data one wave gap may move.
pub struct RebalancePolicy<S> {
    planner: RebalancePlanner,
    factory: ShardFactory<S>,
}

impl<S> std::fmt::Debug for RebalancePolicy<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RebalancePolicy")
            .field("planner", &self.planner)
            .finish_non_exhaustive()
    }
}

impl<S> RebalancePolicy<S> {
    /// A policy that plans with `config` and rebuilds shards with
    /// `factory`.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an invalid [`RebalanceConfig`].
    pub fn new(config: RebalanceConfig, factory: ShardFactory<S>) -> Result<Self, PirError> {
        Ok(RebalancePolicy {
            planner: RebalancePlanner::new(config)?,
            factory,
        })
    }
}

/// The [`ServiceConfig`] a topology implies: its `max-sessions` becomes
/// the logical-session budget; everything else keeps its default.
#[must_use]
pub fn service_config_for(topology: &FleetTopology) -> ServiceConfig {
    ServiceConfig {
        max_sessions: topology.max_sessions,
        ..ServiceConfig::default()
    }
}

/// Builds and binds one of the topology's replicas: constructs its
/// engine with [`FleetTopology::build_engine`] and serves it on the
/// replica's listen address (`127.0.0.1:0` for replicas without one).
///
/// This is *the* construction path — the `impir-server` binary, the
/// examples and the integration tests all build services through here,
/// whether the topology came from a `--config` file or was desugared
/// from classic flags.
///
/// # Errors
///
/// Returns [`PirError::Config`] for an invalid topology or replica index
/// and [`PirError::Protocol`] if the listener cannot be bound.
pub fn build_service(topology: &FleetTopology, replica: usize) -> Result<PirService, PirError> {
    build_service_with(topology, replica, service_config_for(topology))
}

/// [`build_service`] with an explicit [`ServiceConfig`] (tests use this
/// to cap sessions or shrink replay frames).
///
/// # Errors
///
/// As for [`build_service`], plus [`PirError::Config`] for an invalid
/// `config`.
pub fn build_service_with(
    topology: &FleetTopology,
    replica: usize,
    config: ServiceConfig,
) -> Result<PirService, PirError> {
    let engine = topology.build_engine(replica)?;
    let listen = topology
        .replicas
        .get(replica)
        .and_then(|spec| spec.listen.as_deref())
        .unwrap_or("127.0.0.1:0");
    // `rebalance = auto` closes the measured-skew feedback loop: the
    // dispatcher rebuilds shards with the same factory the topology
    // built the engine from.
    let rebalancer = match topology.rebalance {
        RebalanceMode::Off => None,
        RebalanceMode::Auto => Some(RebalancePolicy::new(
            RebalanceConfig::default(),
            topology.backend_factory(replica)?,
        )?),
    };
    PirService::bind_with_rebalancer(engine, listen, config, rebalancer)
}

/// Smallest accepted [`ServiceConfig::max_replay_frame_bytes`]: room for
/// the frame tag, the batch-count prefix, and at least one tiny batch.
pub const MIN_REPLAY_FRAME_BYTES: usize = 64;

use events::{Reply, Request};

/// A running PIR server: the event loop that serves every connection and
/// the dispatcher that owns the engine. Dropping the handle shuts the
/// service down.
#[derive(Debug)]
pub struct PirService {
    addr: SocketAddr,
    plan: impir_core::ShardPlan,
    events: events::EventLoop,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

/// The name of every event-loop thread, replica or router: `/proc` shows
/// it, so an operator (or a test) can find the loop among the threads.
pub const EVENT_LOOP_THREAD: &str = "impir-events";

/// Spawns a named service thread.
pub(crate) fn spawn_named(
    name: &str,
    body: impl FnOnce() + Send + 'static,
) -> Result<std::thread::JoinHandle<()>, PirError> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(body)
        .map_err(|err| protocol(&format!("spawning the {name} thread: {err}")))
}

impl PirService {
    /// Binds `addr` and starts serving `engine` on it.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an invalid `config` and
    /// [`PirError::Protocol`] if the listener cannot be bound or the
    /// service's threads cannot start.
    pub fn bind<S>(
        engine: QueryEngine<S>,
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
    ) -> Result<Self, PirError>
    where
        S: UpdatableBackend + Send + Sync + 'static,
    {
        PirService::bind_with_rebalancer(engine, addr, config, None)
    }

    /// [`PirService::bind`] with an optional live-rebalancing policy: when
    /// set, the dispatcher plans from each query wave's measured per-shard
    /// timings and migrates records between waves (see
    /// [`RebalancePolicy`]).
    ///
    /// # Errors
    ///
    /// As for [`PirService::bind`].
    pub fn bind_with_rebalancer<S>(
        engine: QueryEngine<S>,
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
        rebalancer: Option<RebalancePolicy<S>>,
    ) -> Result<Self, PirError>
    where
        S: UpdatableBackend + Send + Sync + 'static,
    {
        config.validate()?;
        let plan = engine.plan().clone();
        let mut dispatcher = None;
        // The loop owns the only request sender, so the dispatcher ends
        // exactly when the loop has. Bounded admission: the loop sheds
        // with an `Overloaded` refusal when the queue is full, so overload
        // never buffers requests without bound.
        let spawned = events::EventLoop::spawn(addr, config.max_sessions, |waker| {
            let (requests, request_rx) = bounded::<Request>(config.admission_capacity);
            let waker = waker.clone();
            dispatcher = Some(spawn_named("impir-dispatch", move || {
                dispatcher_loop(engine, &request_rx, config, rebalancer, &waker);
            })?);
            Ok(requests)
        });
        let (events, addr) = match spawned {
            Ok(spawned) => spawned,
            Err(err) => {
                // The request sender is gone, so a dispatcher that started
                // returns at once.
                if let Some(handle) = dispatcher {
                    let _ = handle.join();
                }
                return Err(err);
            }
        };
        Ok(PirService {
            addr,
            plan,
            events,
            dispatcher,
        })
    }

    /// The address the service listens on (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The realized shard layout of the served engine (what the startup
    /// banner reports; autoshard policies resolve to concrete boundaries
    /// only at build time).
    #[must_use]
    pub fn plan(&self) -> &impir_core::ShardPlan {
        &self.plan
    }

    /// Stops the service: the loop is woken, stops accepting and reading,
    /// writes every reply the dispatcher still owes — for at most
    /// [`events::SHUTDOWN_DRAIN`] — and closes every connection; then
    /// both threads are joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Waits for the service to end **on its own**: the event loop exits
    /// once its session budget ([`ServiceConfig::max_sessions`]) is spent
    /// and every accepted connection has drained, after which the
    /// dispatcher drains and this returns. Without a session budget this
    /// blocks until the listener fails (i.e. effectively forever).
    pub fn join(mut self) {
        self.events.join();
        self.join_dispatcher();
    }

    fn stop(&mut self) {
        self.events.stop();
        self.join_dispatcher();
    }

    fn join_dispatcher(&mut self) {
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PirService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Owns the engine and answers every request frame: serialises updates
/// against queries, coalesces concurrently pending query batches into
/// single engine waves, and builds each reply frame.
fn dispatcher_loop<S: UpdatableBackend + Send + Sync>(
    mut engine: QueryEngine<S>,
    requests: &Receiver<Request>,
    config: ServiceConfig,
    mut rebalancer: Option<RebalancePolicy<S>>,
    waker: &events::Waker,
) {
    loop {
        let Ok(request) = requests.recv() else {
            break; // the event loop has ended
        };
        let mut pending = Some(request);
        while let Some((frame, reply)) = pending.take() {
            let Frame::QueryBatch { shares } = frame else {
                reply.send(answer(&mut engine, frame, config.max_replay_frame_bytes));
                continue;
            };
            // Merge whatever other sessions have already queued — never
            // waiting — so concurrent sessions share one trip through the
            // engine's admission queue.
            let mut wave = vec![(shares, reply)];
            while wave.len() < config.coalesce_limit {
                match requests.try_recv() {
                    Ok((Frame::QueryBatch { shares }, reply)) => wave.push((shares, reply)),
                    Ok(other) => {
                        // Anything else (an update, say) ends the wave; it
                        // executes right after, strictly ordered against it.
                        pending = Some(other);
                        break;
                    }
                    Err(_) => break,
                }
            }
            execute_wave(&mut engine, wave);
            // One wake-up per wave: the loop writes every reply of it, and
            // connections shed on a full queue resume reading.
            waker.wake();
            // Between waves — with the engine otherwise idle — is the only
            // moment the dispatcher rebalances: queries and updates stay
            // strictly serialized against the plan swap.
            maybe_rebalance(&mut engine, &mut rebalancer);
        }
    }
}

/// The reply frame to every request but a query batch (those run in
/// waves, see [`execute_wave`]).
fn answer<S: UpdatableBackend + Send + Sync>(
    engine: &mut QueryEngine<S>,
    request: Frame,
    max_replay_frame_bytes: usize,
) -> Frame {
    let result = match request {
        // Sessions forward only a `Hello` in this build's wire version.
        Frame::Hello { .. } => Ok(Frame::HelloAck {
            version: WIRE_VERSION,
            info: info_of(engine),
        }),
        Frame::InfoRequest => Ok(Frame::Info {
            info: info_of(engine),
        }),
        Frame::EpochInfoRequest => Ok(Frame::EpochInfo {
            info: engine.epoch_info(),
        }),
        Frame::SelectorScan { selector } => {
            engine
                .scan_selector(&selector)
                .map(|(payload, phases)| Frame::SelectorResult {
                    epoch: engine.database_epoch(),
                    payload,
                    phases,
                })
        }
        Frame::UpdateBatch { updates } => engine
            .apply_updates(&updates)
            .map(|outcome| Frame::UpdateAck { outcome }),
        Frame::UpdateReplayRequest { from_epoch } => engine
            .replay_updates(from_epoch)
            .and_then(|batches| replay_frame(batches, from_epoch, max_replay_frame_bytes)),
        other => Err(protocol(&format!("unexpected {} request", other.name()))),
    };
    match result {
        Ok(reply) => reply,
        // A truncated journal is an expected, *typed* outcome the client
        // resolves (fail-closed resync error) — it gets its own frame so
        // the transport can rebuild the typed error, unlike free-form
        // `Error` frames.
        Err(PirError::JournalTruncated {
            from_epoch,
            oldest_replayable,
            current_epoch,
        }) => Frame::JournalTruncated {
            from_epoch,
            oldest_replayable,
            current_epoch,
        },
        Err(err) => error_frame(&err),
    }
}

/// The `UpdateReplay` reply to a journal replay, bounded by
/// `max_replay_frame_bytes`.
fn replay_frame(
    batches: Vec<UpdateBatch>,
    from_epoch: u64,
    max_replay_frame_bytes: usize,
) -> Result<Frame, PirError> {
    // A reply frame obeys the same size bound as every other frame, but a
    // fully-retained lag can hold more batch bytes than one frame fits
    // (each journalled batch may itself have arrived near the bound).
    // Send the longest prefix of the replay that fits; the client advances
    // its requested epoch past the batches it received and asks again
    // until caught up.
    let total = batches.len();
    let mut body = 4usize; // the batch-count prefix
    let mut taken: Vec<UpdateBatch> = Vec::new();
    for batch in batches {
        let batch_body = update_batch_frame_bytes(&batch) - FRAME_HEADER_BYTES;
        if 1 + body + batch_body > max_replay_frame_bytes {
            break;
        }
        body += batch_body;
        taken.push(batch);
    }
    if taken.is_empty() && total > 0 {
        // Never degrade this to an empty reply: the client reads empty as
        // "caught up" and would silently stay lagging.
        return Err(protocol(&format!(
            "replay from epoch {from_epoch} cannot proceed: the next journalled batch alone \
             exceeds the replay frame bound of {max_replay_frame_bytes} bytes; re-seed the \
             lagging replica from a current snapshot"
        )));
    }
    Ok(Frame::UpdateReplay { batches: taken })
}

/// Plans from the last wave's measured per-shard timings and executes any
/// non-empty migration. The planner's hysteresis keeps balanced (or
/// not-yet-re-measured) engines untouched; a failed migration leaves the
/// engine on its previous layout and disables further rebalancing rather
/// than retrying into the same failure every wave.
fn maybe_rebalance<S: UpdatableBackend + Send + Sync>(
    engine: &mut QueryEngine<S>,
    rebalancer: &mut Option<RebalancePolicy<S>>,
) {
    let Some(policy) = rebalancer.as_mut() else {
        return;
    };
    let plan = policy.planner.plan(&engine.shard_timings());
    if plan.is_empty() {
        return;
    }
    if let Err(err) = engine.rebalance(&plan, &mut policy.factory) {
        eprintln!("impir-server: auto-rebalance disabled after a failed migration: {err}");
        *rebalancer = None;
    }
}

fn info_of<S: UpdatableBackend + Send + Sync>(engine: &QueryEngine<S>) -> ServerInfo {
    ServerInfo {
        num_records: engine.num_records(),
        record_size: engine.record_size(),
        shard_count: engine.shard_count(),
        epoch: engine.database_epoch(),
    }
}

type SessionBatch = (Vec<QueryShare>, Reply);

/// Runs one merged wave of query batches through the engine and routes
/// each session's slice of the responses back to it. The replies do not
/// wake the event loop; the caller wakes it once for the wave.
fn execute_wave<S: UpdatableBackend + Send + Sync>(
    engine: &mut QueryEngine<S>,
    wave: Vec<SessionBatch>,
) {
    // Per-session validation first: a session whose keys cover the wrong
    // domain gets its own error and never poisons the merged batch.
    let domain_bits = engine.domain_bits();
    let mut admitted: Vec<SessionBatch> = Vec::with_capacity(wave.len());
    for (shares, reply) in wave {
        match shares
            .iter()
            .find(|share| share.key.domain_bits() != domain_bits)
        {
            Some(bad) => {
                reply.send_unwoken(error_frame(&PirError::QueryDomainMismatch {
                    key_domain_bits: bad.key.domain_bits(),
                    database_domain_bits: domain_bits,
                }));
            }
            None => admitted.push((shares, reply)),
        }
    }
    if admitted.is_empty() {
        return;
    }
    // The uncontended case — one session in the wave — executes its batch
    // directly; coalesced waves *move* each session's shares into the
    // merged batch (their only later use is the count, captured first).
    let counts: Vec<usize> = admitted.iter().map(|(shares, _)| shares.len()).collect();
    let merged: Vec<QueryShare>;
    let batch: &[QueryShare] = if admitted.len() == 1 {
        &admitted[0].0
    } else {
        merged = admitted
            .iter_mut()
            .flat_map(|(shares, _)| shares.drain(..))
            .collect();
        &merged
    };
    let total_queries = batch.len();
    if total_queries == 0 {
        // All-empty batches short-circuit: 0/0 below would attribute NaN
        // costs to the sessions.
        for (_, reply) in admitted {
            reply.send_unwoken(Frame::ResponseBatch {
                epoch: engine.database_epoch(),
                wall_seconds: 0.0,
                phases: PhaseBreakdown::zero(),
                responses: Vec::new(),
            });
        }
        return;
    }
    let executed = engine.execute_batch(batch);
    let replies = admitted.into_iter().map(|(_, reply)| reply);
    match executed {
        Err(err) => {
            for reply in replies {
                reply.send_unwoken(error_frame(&err));
            }
        }
        Ok(outcome) => {
            let epoch = engine.database_epoch();
            let mut responses = outcome.responses.into_iter();
            for (count, reply) in counts.iter().zip(replies) {
                // Attribute the wave's cost proportionally: a session is
                // billed its share of the merged batch, so per-client
                // accounting does not inflate with the *other* sessions'
                // coalesced work (and summing across sessions recovers the
                // wave's true totals).
                let fraction = *count as f64 / total_queries as f64;
                reply.send_unwoken(Frame::ResponseBatch {
                    epoch,
                    wall_seconds: outcome.wall_seconds * fraction,
                    phases: outcome.phase_totals.scaled(fraction),
                    responses: responses.by_ref().take(*count).collect(),
                });
            }
        }
    }
}

pub(crate) fn protocol(reason: &str) -> PirError {
    PirError::Protocol {
        reason: reason.to_string(),
    }
}

/// A request-level failure as an `Error` frame; the session stays open.
pub(crate) fn error_frame(err: &PirError) -> Frame {
    Frame::Error {
        message: err.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impir_core::database::Database;
    use impir_core::engine::EngineConfig;
    use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
    use impir_core::shard::ShardedDatabase;
    use impir_core::transport::{PirTransport, TcpTransport};
    use impir_core::PirClient;
    use impir_dpf::SelectorVector;
    use std::sync::Mutex;

    fn cpu_engine(db: &Arc<Database>, shards: usize) -> QueryEngine<CpuPirServer> {
        let sharded = ShardedDatabase::uniform(db.clone(), shards).unwrap();
        QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
            CpuPirServer::new(shard_db, CpuServerConfig::baseline())
        })
        .unwrap()
    }

    fn spawn_cpu_service(db: &Arc<Database>, shards: usize) -> PirService {
        PirService::bind(
            cpu_engine(db, shards),
            "127.0.0.1:0",
            ServiceConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn served_responses_match_the_inprocess_engine_byte_for_byte() {
        let db = Arc::new(Database::random(300, 16, 21).unwrap());
        let service = spawn_cpu_service(&db, 3);
        let mut transport = TcpTransport::connect(service.addr()).unwrap();
        assert_eq!(transport.cached_info().num_records, 300);
        assert_eq!(transport.cached_info().shard_count, 3);

        let mut client = PirClient::new(300, 16, 5).unwrap();
        let (shares, _) = client.generate_batch(&[0, 123, 299, 123]).unwrap();
        let remote = transport.query_batch(&shares).unwrap();
        let local = cpu_engine(&db, 3).execute_batch(&shares).unwrap();
        assert_eq!(remote.responses, local.responses);
        assert_eq!(remote.epoch, 0);
        service.shutdown();
    }

    #[test]
    fn concurrent_sessions_are_all_answered_correctly() {
        let db = Arc::new(Database::random(256, 8, 31).unwrap());
        let service = spawn_cpu_service(&db, 2);
        let addr = service.addr();
        let mut local = cpu_engine(&db, 1);
        let mut workers = Vec::new();
        for session in 0..4u64 {
            let db = Arc::clone(&db);
            workers.push(std::thread::spawn(move || {
                let mut transport = TcpTransport::connect(addr).unwrap();
                let mut client = PirClient::new(256, 8, session).unwrap();
                let indices: Vec<u64> = (0..7).map(|i| (i * 31 + session * 13) % 256).collect();
                let (shares, _) = client.generate_batch(&indices).unwrap();
                let batch = transport.query_batch(&shares).unwrap();
                assert_eq!(batch.responses.len(), shares.len());
                for (share, response) in shares.iter().zip(&batch.responses) {
                    assert_eq!(response.query_id, share.query_id);
                }
                let _ = db;
                (shares, batch.responses)
            }));
        }
        for worker in workers {
            let (shares, responses) = worker.join().unwrap();
            // Sessions may have been coalesced into shared waves; each
            // session's answers must still equal the in-process engine's.
            let expected = local.execute_batch(&shares).unwrap();
            assert_eq!(responses, expected.responses);
        }
        service.shutdown();
    }

    #[test]
    fn stale_geometry_session_fails_alone() {
        let db = Arc::new(Database::random(128, 8, 41).unwrap());
        let service = spawn_cpu_service(&db, 1);
        let mut good = TcpTransport::connect(service.addr()).unwrap();
        let mut stale = TcpTransport::connect(service.addr()).unwrap();

        // Keys generated for a much larger domain.
        let mut wrong_client = PirClient::new(1 << 20, 8, 1).unwrap();
        let (bad_shares, _) = wrong_client.generate_batch(&[5]).unwrap();
        assert!(matches!(
            stale.query_batch(&bad_shares),
            Err(PirError::Protocol { .. })
        ));

        // The session (and the service) survive for well-formed clients.
        let mut client = PirClient::new(128, 8, 2).unwrap();
        let (shares, _) = client.generate_batch(&[0, 64, 127]).unwrap();
        assert_eq!(good.query_batch(&shares).unwrap().responses.len(), 3);
        // Even the stale session stays usable after its error.
        let (retry, _) = client.generate_batch(&[1]).unwrap();
        assert_eq!(stale.query_batch(&retry).unwrap().responses.len(), 1);
        service.shutdown();
    }

    #[test]
    fn updates_bump_the_epoch_for_every_session() {
        let db = Arc::new(Database::random(96, 8, 51).unwrap());
        let service = spawn_cpu_service(&db, 2);
        let mut writer = TcpTransport::connect(service.addr()).unwrap();
        let mut reader = TcpTransport::connect(service.addr()).unwrap();

        let outcome = writer.apply_updates(&[(7, vec![0xCD; 8])]).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.records_updated, 1);

        let mut client = PirClient::new(96, 8, 3).unwrap();
        let (shares, _) = client.generate_batch(&[7]).unwrap();
        let batch = reader.query_batch(&shares).unwrap();
        assert_eq!(batch.epoch, 1);
        // All-or-nothing validation over the wire too.
        assert!(matches!(
            writer.apply_updates(&[(96, vec![0u8; 8])]),
            Err(PirError::Protocol { .. })
        ));
        assert_eq!(reader.server_info().unwrap().epoch, 1);
        service.shutdown();
    }

    #[test]
    fn selector_scans_run_over_the_wire() {
        let db = Arc::new(Database::random(200, 16, 61).unwrap());
        let service = spawn_cpu_service(&db, 3);
        let mut transport = TcpTransport::connect(service.addr()).unwrap();
        let selector: SelectorVector = (0..200).map(|i| i % 3 == 1).collect();
        let scan = transport.scan_selector(&selector).unwrap();
        assert_eq!(scan.payload, db.xor_select(&selector));
        assert_eq!(scan.epoch, 0);
        service.shutdown();
    }

    #[test]
    fn shutdown_with_idle_sessions_returns() {
        let db = Arc::new(Database::random(64, 8, 71).unwrap());
        let service = spawn_cpu_service(&db, 1);
        let idle = TcpTransport::connect(service.addr()).unwrap();
        // The event loop is blocked in poll waiting for this client's next
        // frame; shutdown must wake it and return promptly.
        service.shutdown();
        drop(idle);
    }

    #[test]
    fn session_budget_ends_the_service() {
        let db = Arc::new(Database::random(64, 8, 81).unwrap());
        let engine = cpu_engine(&db, 1);
        let service = PirService::bind(
            engine,
            "127.0.0.1:0",
            ServiceConfig {
                max_sessions: Some(1),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let addr = service.addr();
        let joiner = std::thread::spawn(move || service.join());
        {
            let mut transport = TcpTransport::connect(addr).unwrap();
            let mut client = PirClient::new(64, 8, 4).unwrap();
            let (shares, _) = client.generate_batch(&[0]).unwrap();
            assert_eq!(transport.query_batch(&shares).unwrap().responses.len(), 1);
        } // disconnect → the single budgeted session ends
        joiner.join().unwrap();
    }

    use impir_core::batch::{BatchExecutor, SelectorEvaluator};
    use impir_core::server::phases::PhaseBreakdown as Phases;
    use impir_core::{PirServer, ServerResponse};
    use std::sync::mpsc;

    /// A cpu backend whose updates first run `on_update`: tests use it to
    /// hold an update in flight, or to make the engine panic.
    struct Gated {
        inner: CpuPirServer,
        on_update: Box<dyn Fn() + Send + Sync>,
    }

    impl PirServer for Gated {
        fn num_records(&self) -> u64 {
            self.inner.num_records()
        }

        fn record_size(&self) -> usize {
            self.inner.record_size()
        }

        fn process_query(
            &mut self,
            share: &QueryShare,
        ) -> Result<(ServerResponse, Phases), PirError> {
            self.inner.process_query(share)
        }
    }

    impl BatchExecutor for Gated {
        fn evaluate_selector(&self, share: &QueryShare) -> Result<SelectorVector, PirError> {
            self.inner.evaluate_selector(share)
        }

        fn selector_evaluator(&self) -> SelectorEvaluator {
            self.inner.selector_evaluator()
        }

        fn execute_wave(
            &mut self,
            selectors: &[&SelectorVector],
        ) -> Result<(Vec<Vec<u8>>, Phases), PirError> {
            self.inner.execute_wave(selectors)
        }
    }

    impl UpdatableBackend for Gated {
        fn apply_updates(
            &mut self,
            updates: &[(u64, Vec<u8>)],
        ) -> Result<impir_core::UpdateOutcome, PirError> {
            (self.on_update)();
            self.inner.apply_updates(updates)
        }

        fn database(&self) -> &Arc<Database> {
            self.inner.database()
        }
    }

    fn gated_service(
        db: &Arc<Database>,
        on_update: impl Fn() + Send + Sync + 'static,
    ) -> PirService {
        let sharded = ShardedDatabase::uniform(db.clone(), 1).unwrap();
        let mut on_update = Some(Box::new(on_update) as Box<dyn Fn() + Send + Sync>);
        let engine = QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
            Ok(Gated {
                inner: CpuPirServer::new(shard_db, CpuServerConfig::baseline())?,
                on_update: on_update.take().expect("one shard"),
            })
        })
        .unwrap();
        PirService::bind(engine, "127.0.0.1:0", ServiceConfig::default()).unwrap()
    }

    /// Shutdown stops reading but still writes the replies the dispatcher
    /// owes: an update in flight when `shutdown` is called is acked, so
    /// its client knows it took effect.
    #[test]
    fn an_update_in_flight_at_shutdown_is_still_acked() {
        let db = Arc::new(Database::random(64, 8, 95).unwrap());
        let (started_tx, started) = mpsc::channel();
        let started_tx = Mutex::new(started_tx);
        let service = gated_service(&db, move || {
            let _ = started_tx.lock().unwrap().send(());
            std::thread::sleep(std::time::Duration::from_millis(300));
        });
        let mut writer = TcpTransport::connect(service.addr()).unwrap();
        let update = std::thread::spawn(move || writer.apply_updates(&[(3, vec![0x5A; 8])]));
        started.recv().unwrap();
        service.shutdown();
        let outcome = update
            .join()
            .unwrap()
            .expect("the in-flight update is acked");
        assert_eq!(outcome.epoch, 1);
    }

    /// A dispatcher that dies mid-request drops the request's reply, and
    /// that wakes the loop: the client gets an error frame at once instead
    /// of waiting on a loop blocked in poll.
    #[test]
    fn a_panicking_engine_answers_its_client_with_an_error_frame() {
        let db = Arc::new(Database::random(64, 8, 96).unwrap());
        let service = gated_service(&db, || panic!("injected engine failure"));
        let mut writer = TcpTransport::connect(service.addr()).unwrap();
        match writer.apply_updates(&[(3, vec![0x5A; 8])]) {
            Err(PirError::Protocol { reason }) => {
                assert!(reason.contains("answerer is gone"), "{reason}");
            }
            other => panic!("expected the answerer-gone error, got {other:?}"),
        }
        // Later requests find the dispatcher gone and are answered too.
        assert!(writer.server_info().is_err());
        service.shutdown();
    }

    use impir_core::transport::{MuxConnection, MuxSession};

    #[test]
    fn a_budget_spent_by_mux_sessions_ends_the_service() {
        let db = Arc::new(Database::random(64, 8, 81).unwrap());
        let service = PirService::bind(
            cpu_engine(&db, 1),
            "127.0.0.1:0",
            ServiceConfig {
                max_sessions: Some(2),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let addr = service.addr();
        let joiner = std::thread::spawn(move || service.join());
        {
            // The connection's root session and one multiplexed session
            // spend the budget of two.
            let connection = MuxConnection::connect(addr).unwrap();
            let mut session = connection.session().unwrap();
            let mut client = PirClient::new(64, 8, 4).unwrap();
            let (shares, _) = client.generate_batch(&[0]).unwrap();
            assert_eq!(session.query_batch(&shares).unwrap().responses.len(), 1);
        } // disconnect → the loop drains and ends
        joiner.join().unwrap();
    }

    #[test]
    fn event_tier_answers_like_the_inprocess_engine() {
        let db = Arc::new(Database::random(300, 16, 21).unwrap());
        let service = spawn_cpu_service(&db, 3);
        let mut transport = TcpTransport::connect(service.addr()).unwrap();
        assert_eq!(transport.cached_info().num_records, 300);

        let mut client = PirClient::new(300, 16, 5).unwrap();
        let (shares, _) = client.generate_batch(&[0, 123, 299, 123]).unwrap();
        let remote = transport.query_batch(&shares).unwrap();
        let local = cpu_engine(&db, 3).execute_batch(&shares).unwrap();
        assert_eq!(remote.responses, local.responses);
        // Updates, scans and epoch info ride the same loop.
        let outcome = transport.apply_updates(&[(7, vec![0xAB; 16])]).unwrap();
        assert_eq!(outcome.epoch, 1);
        let selector: SelectorVector = (0..300).map(|i| i % 7 == 0).collect();
        assert_eq!(transport.scan_selector(&selector).unwrap().epoch, 1);
        drop(transport);
        service.shutdown();
    }

    #[test]
    fn mux_sessions_answer_like_the_inprocess_engine() {
        let db = Arc::new(Database::random(256, 8, 31).unwrap());
        let service = spawn_cpu_service(&db, 2);
        let connection = MuxConnection::connect(service.addr()).unwrap();
        let mut local = cpu_engine(&db, 1);
        let mut sessions: Vec<MuxSession> = (0..4).map(|_| connection.session().unwrap()).collect();
        // Interleave: every session sends, then every session's answer is
        // checked against the in-process engine.
        let mut expected = Vec::new();
        for (index, session) in sessions.iter_mut().enumerate() {
            let mut client = PirClient::new(256, 8, index as u64).unwrap();
            let indices: Vec<u64> = (0..5).map(|i| (i * 31 + index as u64 * 13) % 256).collect();
            let (shares, _) = client.generate_batch(&indices).unwrap();
            let batch = session.query_batch(&shares).unwrap();
            expected.push((shares, batch.responses));
        }
        for (shares, responses) in expected {
            assert_eq!(responses, local.execute_batch(&shares).unwrap().responses);
        }
        drop(sessions);
        drop(connection);
        service.shutdown();
    }

    #[test]
    fn logical_session_budget_counts_mux_sessions() {
        let db = Arc::new(Database::random(64, 8, 91).unwrap());
        // Budget 2: the connection's root session plus ONE multiplexed
        // session; the next distinct session id must be refused while the
        // connection (and its admitted sessions) keep working.
        let service = PirService::bind(
            cpu_engine(&db, 1),
            "127.0.0.1:0",
            ServiceConfig {
                max_sessions: Some(2),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let connection = MuxConnection::connect(service.addr()).unwrap();
        let mut admitted = connection.session().unwrap();
        let mut client = PirClient::new(64, 8, 6).unwrap();
        let (shares, _) = client.generate_batch(&[3]).unwrap();
        assert_eq!(admitted.query_batch(&shares).unwrap().responses.len(), 1);

        let mut refused = connection.session().unwrap();
        match refused.query_batch(&shares) {
            Err(PirError::Protocol { reason }) => {
                assert!(reason.contains("session budget"), "{reason}");
            }
            other => panic!("expected a budget refusal, got {other:?}"),
        }
        // The admitted session is still healthy after its sibling's
        // refusal.
        assert_eq!(admitted.query_batch(&shares).unwrap().responses.len(), 1);
        drop((admitted, refused, connection));
        service.shutdown();
    }
}
