//! The IM-PIR network server: many client sessions, one shared
//! [`QueryEngine`].
//!
//! [`PirService`] owns the server side of the service layer:
//!
//! * a **session tier** turns TCP connections into request frames. Two
//!   interchangeable tiers exist, selected by
//!   [`ServiceConfig::session_tier`] (topology key `session-tier`):
//!   the **threaded** tier accepts connections off a listener and spawns a
//!   session thread per client; the **event** tier (see [`events`],
//!   `session-tier = events`) drives *every* connection from one
//!   non-blocking readiness loop — thread count stays constant no matter
//!   how many sessions connect. Both tiers speak the same
//!   [`impir_core::wire`] format (handshake, then request/response
//!   frames);
//! * both tiers understand **session multiplexing**
//!   ([`impir_core::wire::Frame::Mux`]): many logical sessions share one
//!   TCP connection, each request/reply pair tagged with a session id.
//!   Plain frames belong to the connection's root session, so v1 clients
//!   work unchanged;
//! * the **frame is the contract** between the tiers and the code that
//!   answers: both tiers gate the handshake and classify every later
//!   frame (request, `Goodbye` or protocol violation, per logical
//!   session) through the same two functions, then forward each request
//!   frame to one **dispatcher thread** that owns the engine and builds
//!   every reply frame, `HelloAck` included — so the tiers answer
//!   byte-identically by construction, and each request kind is handled
//!   in exactly one place. Query batches from *concurrently active sessions*
//!   are coalesced into one engine wave — the merged batch flows through
//!   the engine's existing bounded admission queue, so cross-session
//!   batching inherits the §3.4 pipeline (and its backpressure) instead
//!   of re-implementing it. The dispatcher's own request queue is bounded
//!   ([`ServiceConfig::admission_capacity`]): threaded sessions block on
//!   it (natural backpressure), while the event tier never blocks — a
//!   full queue makes it **shed load** with a typed
//!   [`impir_core::wire::Frame::Overloaded`] refusal and pause reading
//!   sockets until the queue drains, so overload never buffers without
//!   bound;
//! * updates and queries are serialised by the dispatcher, and every
//!   response batch is tagged with the database epoch it executed
//!   against, so clients can detect update/query interleavings that
//!   reached only one replica;
//! * with `--rebalance auto` the dispatcher also closes the measured-skew
//!   feedback loop: after a query wave whose per-shard timings show one
//!   shard dominating the scan, it executes a bounded record migration
//!   *between* waves ([`RebalancePolicy`]) — an epoch step lagging
//!   replicas replay like any update batch;
//! * [`PirService::shutdown`] stops accepting, wakes idle sessions,
//!   drains the dispatcher and joins every thread — a graceful stop.
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
//! over a topology's replicas; its client connections run the threaded
//! tier's session loop with a forwarding responder in place of the
//! dispatcher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod events;
pub mod router;

use std::collections::HashSet;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use impir_core::batch::UpdatableBackend;
use impir_core::database::Database;
use impir_core::engine::QueryEngine;
use impir_core::rebalance::{RebalanceConfig, RebalancePlanner};
use impir_core::server::phases::PhaseBreakdown;
use impir_core::topology::{FleetTopology, RebalanceMode, SessionTier};
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
    /// Which session tier turns connections into requests:
    /// [`SessionTier::Threads`] spawns one session thread per TCP
    /// connection, [`SessionTier::Events`] drives every connection from
    /// one non-blocking readiness loop (constant thread count, load
    /// shedding under overload). The topology key `session-tier` sets
    /// this.
    pub session_tier: SessionTier,
    /// Capacity of the dispatcher's bounded admission queue, in requests.
    /// Threaded sessions block on a full queue (backpressure through the
    /// socket); the event tier sheds instead — see
    /// [`impir_core::wire::Frame::Overloaded`].
    pub admission_capacity: usize,
    /// Per-session socket read/write timeout: how long a blocked session
    /// read or write sleeps before waking to re-check the shutdown flag
    /// (and retry). Shorter values make shutdown and fault detection
    /// snappier at the cost of more wakeups; `--io-timeout-ms` on the
    /// `impir-server` binary sets this.
    pub io_timeout: Duration,
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
            session_tier: SessionTier::default(),
            admission_capacity: 64,
            io_timeout: Duration::from_millis(50),
            max_replay_frame_bytes: MAX_FRAME_BYTES,
        }
    }
}

impl ServiceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for a zero coalesce limit or a zero
    /// I/O timeout (the OS rejects zero socket timeouts).
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
        if self.io_timeout.is_zero() {
            return Err(PirError::Config {
                reason: "the session I/O timeout must be non-zero".to_string(),
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

/// The [`ServiceConfig`] a topology implies: its `io-timeout-ms` becomes
/// the per-session socket timeout, `session-tier` picks the session tier
/// and `max-sessions` the logical-session budget; everything else keeps
/// its default.
#[must_use]
pub fn service_config_for(topology: &FleetTopology) -> ServiceConfig {
    ServiceConfig {
        io_timeout: topology.service_io_timeout(),
        session_tier: topology.session_tier,
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

/// How often the blocked *accept* loop wakes up to check the shutdown
/// flag. Session reads/writes wake on [`ServiceConfig::io_timeout`]
/// instead.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Smallest accepted [`ServiceConfig::max_replay_frame_bytes`]: room for
/// the frame tag, the batch-count prefix, and at least one tiny batch.
pub const MIN_REPLAY_FRAME_BYTES: usize = 64;

/// One request on its way to the dispatcher: the request frame and where
/// its reply frame goes (a dedicated bounded channel per request).
pub(crate) type Request = (Frame, Sender<Frame>);

/// A running PIR server: accept loop, session threads and the dispatcher
/// that owns the engine. Dropping the handle shuts the service down.
#[derive(Debug)]
pub struct PirService {
    addr: SocketAddr,
    plan: impir_core::ShardPlan,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    dispatcher_handle: Option<std::thread::JoinHandle<()>>,
}

impl PirService {
    /// Binds `addr` and starts serving `engine` on it.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an invalid `config` and
    /// [`PirError::Protocol`] if the listener cannot be bound.
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
        let listener = TcpListener::bind(addr).map_err(|err| PirError::Protocol {
            reason: format!("binding listener: {err}"),
        })?;
        PirService::serve_with_rebalancer(engine, listener, config, rebalancer)
    }

    /// Starts serving `engine` on an already-bound listener.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an invalid `config` and
    /// [`PirError::Protocol`] if the listener cannot be inspected or made
    /// non-blocking.
    pub fn serve<S>(
        engine: QueryEngine<S>,
        listener: TcpListener,
        config: ServiceConfig,
    ) -> Result<Self, PirError>
    where
        S: UpdatableBackend + Send + Sync + 'static,
    {
        PirService::serve_with_rebalancer(engine, listener, config, None)
    }

    /// [`PirService::serve`] with an optional live-rebalancing policy.
    ///
    /// # Errors
    ///
    /// As for [`PirService::serve`].
    pub fn serve_with_rebalancer<S>(
        engine: QueryEngine<S>,
        listener: TcpListener,
        config: ServiceConfig,
        rebalancer: Option<RebalancePolicy<S>>,
    ) -> Result<Self, PirError>
    where
        S: UpdatableBackend + Send + Sync + 'static,
    {
        config.validate()?;
        let addr = listener.local_addr().map_err(|err| PirError::Protocol {
            reason: format!("reading listener address: {err}"),
        })?;
        // Non-blocking accept so the loop can observe the shutdown flag.
        listener
            .set_nonblocking(true)
            .map_err(|err| PirError::Protocol {
                reason: format!("configuring listener: {err}"),
            })?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Bounded admission: threaded sessions block on a full queue, the
        // event tier sheds with an `Overloaded` refusal instead — either
        // way overload never buffers requests without bound.
        let (requests, request_rx) = bounded::<Request>(config.admission_capacity);
        let plan = engine.plan().clone();

        let dispatcher_handle = std::thread::spawn(move || {
            dispatcher_loop(engine, &request_rx, config, rebalancer);
        });

        // Each threaded session gets its own clone of the request sender;
        // the master clone drops with this thread, so the dispatcher ends
        // exactly when the last session has.
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_handle = std::thread::spawn(move || match config.session_tier {
            SessionTier::Threads => {
                accept_loop(&listener, &accept_shutdown, config, || requests.clone());
            }
            SessionTier::Events => {
                events::event_loop(&listener, &requests, &accept_shutdown, config);
            }
        });

        Ok(PirService {
            addr,
            plan,
            shutdown,
            accept_handle: Some(accept_handle),
            dispatcher_handle: Some(dispatcher_handle),
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

    /// Gracefully stops the service: no new connections are accepted,
    /// idle sessions are woken and closed, in-flight requests drain, and
    /// every thread is joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Waits for the service to end **on its own**: the accept loop exits
    /// once its session budget ([`ServiceConfig::max_sessions`]) is spent
    /// and every accepted session has disconnected, after which the
    /// dispatcher drains and this returns. Without a session budget this
    /// blocks until the listener fails (i.e. effectively forever).
    pub fn join(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.dispatcher_handle.take() {
            let _ = handle.join();
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.dispatcher_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PirService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What answers a session's request frames: the dispatcher on a replica,
/// the pinned replica leg on a router. It answers the opening `Hello`
/// too, with `HelloAck` or a refusal.
pub(crate) trait Responder {
    /// The reply frame to `request`.
    fn respond(&mut self, request: Frame) -> Frame;
}

/// A threaded session's responder: send the request to the dispatcher,
/// then **block** for its reply. The event tier forwards the same frames
/// without blocking (see [`events`]); both tiers receive the reply frames
/// the dispatcher built, so they answer byte-identically.
impl Responder for Sender<Request> {
    fn respond(&mut self, request: Frame) -> Frame {
        let (reply, replies) = bounded(1);
        if self.send((request, reply)).is_err() {
            return dispatcher_gone_frame();
        }
        replies.recv().unwrap_or_else(|_| dispatcher_gone_frame())
    }
}

/// Accepts connections until shutdown (or the session budget is spent),
/// then joins every session it spawned. Each session thread serves its
/// connection with a fresh responder from `responder`.
pub(crate) fn accept_loop<R: Responder + Send + 'static>(
    listener: &TcpListener,
    shutdown: &Arc<AtomicBool>,
    config: ServiceConfig,
    mut responder: impl FnMut() -> R,
) {
    let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
    // The session budget counts *logical* sessions — handshaken root
    // sessions plus multiplexed session ids — never raw TCP connections:
    // a port scanner or health-check probe that connects and leaves must
    // not consume a `--max-sessions 1` server's budget.
    let handshaken = Arc::new(AtomicUsize::new(0));
    while !shutdown.load(Ordering::SeqCst) {
        if let Some(limit) = config.max_sessions {
            if handshaken.load(Ordering::SeqCst) >= limit {
                break;
            }
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let session_responder = responder();
                let session_shutdown = Arc::clone(shutdown);
                let session_handshaken = Arc::clone(&handshaken);
                sessions.push(std::thread::spawn(move || {
                    session_loop(
                        stream,
                        session_responder,
                        &session_shutdown,
                        &session_handshaken,
                        config,
                    );
                }));
            }
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
        // Reap finished sessions as we go: a serve-until-killed server
        // would otherwise accumulate one dead JoinHandle per connection
        // forever.
        let mut still_running = Vec::with_capacity(sessions.len());
        for session in sessions {
            if session.is_finished() {
                let _ = session.join();
            } else {
                still_running.push(session);
            }
        }
        sessions = still_running;
    }
    for session in sessions {
        let _ = session.join();
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
) {
    loop {
        let Ok(request) = requests.recv() else {
            break; // every session (and the accept loop) has hung up
        };
        let mut pending = Some(request);
        while let Some((frame, reply)) = pending.take() {
            let Frame::QueryBatch { shares } = frame else {
                let _ = reply.send(answer(&mut engine, frame, config.max_replay_frame_bytes));
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

type SessionBatch = (Vec<QueryShare>, Sender<Frame>);

/// Runs one merged wave of query batches through the engine and routes
/// each session's slice of the responses back to it.
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
                let _ = reply.send(error_frame(&PirError::QueryDomainMismatch {
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
        for (_, reply) in &admitted {
            let _ = reply.send(Frame::ResponseBatch {
                epoch: engine.database_epoch(),
                wall_seconds: 0.0,
                phases: PhaseBreakdown::zero(),
                responses: Vec::new(),
            });
        }
        return;
    }
    match engine.execute_batch(batch) {
        Err(err) => {
            for (_, reply) in &admitted {
                let _ = reply.send(error_frame(&err));
            }
        }
        Ok(outcome) => {
            let epoch = engine.database_epoch();
            let mut responses = outcome.responses.into_iter();
            for (count, (_, reply)) in counts.iter().zip(&admitted) {
                // Attribute the wave's cost proportionally: a session is
                // billed its share of the merged batch, so per-client
                // accounting does not inflate with the *other* sessions'
                // coalesced work (and summing across sessions recovers the
                // wave's true totals).
                let fraction = *count as f64 / total_queries as f64;
                let _ = reply.send(Frame::ResponseBatch {
                    epoch,
                    wall_seconds: outcome.wall_seconds * fraction,
                    phases: outcome.phase_totals.scaled(fraction),
                    responses: responses.by_ref().take(*count).collect(),
                });
            }
        }
    }
}

/// What polling reads report besides bytes.
enum ReadOutcome {
    /// The buffer was filled.
    Filled,
    /// The peer closed (or shutdown was requested) cleanly between frames.
    Closed,
}

/// Fills `buf` from `stream`, waking every [`ServiceConfig::io_timeout`]
/// (the stream's read timeout) to check the shutdown flag. `idle` reads
/// (waiting for the next frame) may end with
/// [`ReadOutcome::Closed`] on a clean disconnect or shutdown; mid-frame
/// reads treat both as hard errors, because the framing is already
/// half-consumed.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    idle: bool,
) -> Result<ReadOutcome, PirError> {
    let mut filled = 0;
    while filled < buf.len() {
        if shutdown.load(Ordering::SeqCst) {
            if idle && filled == 0 {
                return Ok(ReadOutcome::Closed);
            }
            return Err(PirError::Protocol {
                reason: "server shutting down".to_string(),
            });
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if idle && filled == 0 {
                    return Ok(ReadOutcome::Closed);
                }
                return Err(PirError::Protocol {
                    reason: "peer closed the connection mid-frame".to_string(),
                });
            }
            Ok(read) => filled += read,
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut
                    || err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => {
                return Err(PirError::Protocol {
                    reason: format!("reading from session: {err}"),
                })
            }
        }
    }
    Ok(ReadOutcome::Filled)
}

/// Writes all of `bytes`, waking every [`ServiceConfig::io_timeout`] (the
/// stream's write timeout) to check the shutdown flag — a client that stops
/// reading its socket cannot pin this session thread (and with it
/// [`PirService::shutdown`]) in a blocked `write` forever.
fn write_full(stream: &mut TcpStream, bytes: &[u8], shutdown: &AtomicBool) -> Result<(), PirError> {
    use std::io::Write;
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(protocol("peer stopped accepting bytes mid-frame")),
            Ok(sent) => written += sent,
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut
                    || err.kind() == std::io::ErrorKind::Interrupted =>
            {
                // Only abandon the write when the service is stopping AND
                // the socket refuses bytes: a writable socket drains its
                // already-computed reply through shutdown (graceful stop),
                // while a client that stopped reading cannot pin this
                // thread past one poll interval.
                if shutdown.load(Ordering::SeqCst) {
                    return Err(protocol("server shutting down"));
                }
            }
            Err(err) => {
                return Err(PirError::Protocol {
                    reason: format!("writing to session: {err}"),
                })
            }
        }
    }
    let _ = stream.flush();
    Ok(())
}

/// Encodes and sends one frame through [`write_full`].
fn write_session_frame(
    stream: &mut TcpStream,
    frame: &Frame,
    shutdown: &AtomicBool,
) -> Result<(), PirError> {
    let encoded = frame.encode()?;
    write_full(stream, &encoded, shutdown)
}

/// Reads one frame, polling for shutdown between (not within) frames.
/// `Ok(None)` means the session ended cleanly (disconnect or shutdown).
fn read_session_frame(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> Result<Option<Frame>, PirError> {
    let mut prefix = [0u8; 4];
    match read_full(stream, &mut prefix, shutdown, true)? {
        ReadOutcome::Closed => return Ok(None),
        ReadOutcome::Filled => {}
    }
    let length = u32::from_le_bytes(prefix) as usize;
    if length == 0 || length > MAX_FRAME_BYTES {
        return Err(PirError::Protocol {
            reason: format!("frame of {length} bytes is outside the accepted range"),
        });
    }
    let mut full = vec![0u8; 4 + length];
    full[..4].copy_from_slice(&prefix);
    match read_full(stream, &mut full[4..], shutdown, false)? {
        ReadOutcome::Closed => unreachable!("mid-frame reads never report Closed"),
        ReadOutcome::Filled => {}
    }
    Frame::decode(&full).map(Some)
}

/// One client connection on the threaded tier (and the router): the
/// handshake, then request frames until the client hangs up, says
/// goodbye, violates the protocol, or the service stops. Every request —
/// plain, or multiplexed for a logical session ([`Frame::Mux`]) — goes to
/// `responder`, and its reply returns on the session it came from.
fn session_loop<R: Responder>(
    mut stream: TcpStream,
    mut responder: R,
    shutdown: &AtomicBool,
    handshaken: &AtomicUsize,
    config: ServiceConfig,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.io_timeout));
    let _ = stream.set_write_timeout(Some(config.io_timeout));
    let Ok(Some(first)) = read_session_frame(&mut stream, shutdown) else {
        return;
    };
    let ack = handshake_refusal(&first).unwrap_or_else(|| responder.respond(first));
    let opened = matches!(ack, Frame::HelloAck { .. });
    if write_session_frame(&mut stream, &ack, shutdown).is_err() || !opened {
        return;
    }
    handshaken.fetch_add(1, Ordering::SeqCst);
    let mut mux_sessions = HashSet::new();
    loop {
        let frame = match read_session_frame(&mut stream, shutdown) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean close
            Err(err) => {
                // Framing is broken: report if possible, then drop the
                // connection.
                let _ = write_session_frame(&mut stream, &error_frame(&err), shutdown);
                return;
            }
        };
        let (session, inbound) = inbound(frame, &mut mux_sessions, handshaken, config.max_sessions);
        let reply = match inbound {
            Inbound::Request(request) => responder.respond(request),
            Inbound::Refusal(reply) => reply,
            Inbound::Violation(reply) => {
                let _ = write_session_frame(&mut stream, &wrap(session, reply), shutdown);
                return;
            }
            // A muxed Goodbye closes only that logical session; the
            // connection (and its other sessions) lives on.
            Inbound::Goodbye if session.is_some() => continue,
            Inbound::Goodbye => return,
        };
        if write_session_frame(&mut stream, &wrap(session, reply), shutdown).is_err() {
            return; // the write side failed; nothing more we can do
        }
    }
}

/// Gates a connection's first frame, on every tier: the `Error` frame it
/// earns — after which the connection closes — unless it is a `Hello` in
/// this build's wire version. That `Hello` opens the root session and
/// goes to the responder, which answers `HelloAck`.
pub(crate) fn handshake_refusal(first: &Frame) -> Option<Frame> {
    let message = match first {
        Frame::Hello { version } if *version == WIRE_VERSION => return None,
        Frame::Hello { version } => {
            format!("server speaks wire version {WIRE_VERSION}, client sent {version}")
        }
        other => format!("expected Hello to open the session, got {}", other.name()),
    };
    Some(Frame::Error { message })
}

/// What one post-handshake frame asks of its connection.
#[derive(Debug)]
pub(crate) enum Inbound {
    /// A request to answer.
    Request(Frame),
    /// The session said `Goodbye`: a root `Goodbye` closes the
    /// connection, a muxed one only its logical session.
    Goodbye,
    /// Send this reply, then close the connection: the client violated
    /// the protocol (a `Hello` mid-session, a server-only frame, the
    /// reserved session id 0).
    Violation(Frame),
    /// Send this reply; the connection stays open (a multiplexed session
    /// refused past the session budget).
    Refusal(Frame),
}

/// Classifies one post-handshake frame the same way on every tier: which
/// logical session it belongs to (`None` = the root session) and what it
/// asks. A multiplexed session id seen for the first time claims one
/// session from the budget (`opened` against `limit`).
pub(crate) fn inbound(
    frame: Frame,
    mux_sessions: &mut HashSet<u32>,
    opened: &AtomicUsize,
    limit: Option<usize>,
) -> (Option<u32>, Inbound) {
    let (session, frame) = match frame {
        // Session id 0 *is* the root session — it speaks plain frames; a
        // Mux wrapper claiming it is hostile input.
        Frame::Mux { session: 0, .. } => {
            return (
                None,
                Inbound::Violation(error_frame(&protocol(
                    "session id 0 is reserved for the connection's root session",
                ))),
            );
        }
        Frame::Mux { session, frame } => {
            if !mux_sessions.contains(&session) {
                if !claim_logical_session(opened, limit) {
                    // The budget refusal is scoped to the new logical
                    // session: its co-tenants on this connection keep
                    // working.
                    return (
                        Some(session),
                        Inbound::Refusal(error_frame(&protocol(
                            "the server's logical session budget is exhausted",
                        ))),
                    );
                }
                mux_sessions.insert(session);
            }
            (Some(session), *frame)
        }
        plain => (None, plain),
    };
    let inbound = match frame {
        Frame::Goodbye => Inbound::Goodbye,
        request if request.is_request() => Inbound::Request(request),
        // A nested Mux can never reach here — the decoder rejects it.
        other => Inbound::Violation(Frame::Error {
            message: format!("unexpected {} frame mid-session", other.name()),
        }),
    };
    (session, inbound)
}

/// Wraps a reply for the logical session its request arrived on: plain
/// for the root session, muxed with the same id otherwise.
pub(crate) fn wrap(session: Option<u32>, reply: Frame) -> Frame {
    match session {
        None => reply,
        Some(session) => Frame::Mux {
            session,
            frame: Box::new(reply),
        },
    }
}

/// Claims one logical session from the budget. Unlike the root-session
/// count at handshake (which may overshoot, documented on
/// [`ServiceConfig::max_sessions`]), multiplexed sessions are claimed
/// exactly: past the budget the claim fails and the session is refused.
fn claim_logical_session(opened: &AtomicUsize, limit: Option<usize>) -> bool {
    match limit {
        None => {
            opened.fetch_add(1, Ordering::SeqCst);
            true
        }
        Some(limit) => opened
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                if n < limit {
                    Some(n + 1)
                } else {
                    None
                }
            })
            .is_ok(),
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

/// The `Error` frame both tiers send when the dispatcher has exited.
pub(crate) fn dispatcher_gone_frame() -> Frame {
    error_frame(&protocol("service dispatcher is gone"))
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
        // The session thread is blocked waiting for this client's next
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

    use impir_core::topology::SessionTier;
    use impir_core::transport::{MuxConnection, MuxSession};

    fn spawn_tier_service(db: &Arc<Database>, shards: usize, tier: SessionTier) -> PirService {
        PirService::bind(
            cpu_engine(db, shards),
            "127.0.0.1:0",
            ServiceConfig {
                session_tier: tier,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn event_tier_answers_like_the_inprocess_engine() {
        let db = Arc::new(Database::random(300, 16, 21).unwrap());
        let service = spawn_tier_service(&db, 3, SessionTier::Events);
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
    fn mux_sessions_answer_correctly_on_both_tiers() {
        let db = Arc::new(Database::random(256, 8, 31).unwrap());
        for tier in [SessionTier::Threads, SessionTier::Events] {
            let service = spawn_tier_service(&db, 2, tier);
            let connection = MuxConnection::connect(service.addr()).unwrap();
            let mut local = cpu_engine(&db, 1);
            let mut sessions: Vec<MuxSession> =
                (0..4).map(|_| connection.session().unwrap()).collect();
            // Interleave: every session sends, then every session's
            // answer is checked against the in-process engine.
            let mut expected = Vec::new();
            for (index, session) in sessions.iter_mut().enumerate() {
                let mut client = PirClient::new(256, 8, index as u64).unwrap();
                let indices: Vec<u64> =
                    (0..5).map(|i| (i * 31 + index as u64 * 13) % 256).collect();
                let (shares, _) = client.generate_batch(&indices).unwrap();
                let batch = session.query_batch(&shares).unwrap();
                expected.push((shares, batch.responses));
            }
            for (shares, responses) in expected {
                assert_eq!(
                    responses,
                    local.execute_batch(&shares).unwrap().responses,
                    "tier {tier}"
                );
            }
            drop(sessions);
            drop(connection);
            service.shutdown();
        }
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

    #[test]
    fn event_tier_session_budget_ends_the_service() {
        let db = Arc::new(Database::random(64, 8, 81).unwrap());
        let service = PirService::bind(
            cpu_engine(&db, 1),
            "127.0.0.1:0",
            ServiceConfig {
                max_sessions: Some(1),
                session_tier: SessionTier::Events,
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
        } // disconnect → the single budgeted session drains the loop
        joiner.join().unwrap();
    }
}
