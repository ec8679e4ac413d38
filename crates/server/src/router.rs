//! The front-tier router: one listening address for a whole fleet.
//!
//! [`PirRouter`] speaks the ordinary client-side [`impir_core::wire`]
//! protocol on its listen address — a client cannot tell a router from a
//! replica. Its client connections run on the replicas' own `poll(2)`
//! event loop ([`crate::events`]: handshake gate, frame classification,
//! multiplexed sessions, typed `Overloaded` shedding when its queue is
//! full). In place of the dispatcher, the loop hands request frames to a
//! fixed pool of router workers, so the router's thread count
//! does not grow with its session count. A worker answers with the
//! connection's responder, which forwards each request frame **verbatim**
//! to one of the topology's replicas and returns the replica's reply
//! frame untouched, over a **shared multiplexed connection per replica**
//! ([`MuxConnection`]): every client session, health probe and catch-up
//! replay to the same replica rides one TCP connection as its own
//! logical [`MuxSession`], instead of dialing a fresh socket each. A
//! worker sends a forwarded request down the replica leg and moves on; the
//! leg's reader thread hands the reply to the event loop, so the pool does
//! not cap how many routed requests are in flight. The router reads only
//! one request kind itself — `UpdateBatch`, which fans out:
//!
//! * **pinning** — a connection's `Hello` pins a replica: its `HelloAck`
//!   carries that replica's geometry and epoch. With no replica to pin,
//!   the client gets the router's typed `Error` and the connection
//!   closes;
//! * **spreading** — sessions are assigned round-robin over the healthy
//!   replicas, so concurrent clients land on different replicas;
//! * **accounting** — per-replica request/response wire bytes are
//!   accumulated across all sessions and probes
//!   ([`PirRouter::replica_traffic`]): each slot's totals are the bytes
//!   folded in from connections that have since been replaced plus the
//!   live connection's counters;
//! * **health probing** — a background prober sends
//!   [`Frame::EpochInfoRequest`] to every replica on the topology's
//!   `probe-interval-ms`; an unreachable replica is marked unhealthy (no
//!   new sessions or updates go to it), and a replica lagging more than
//!   `max-lag-epochs` behind the fleet's front epoch is **caught up** by
//!   replaying its missed batches from an ahead peer's update journal
//!   (the PR 7 recovery path, driven fleet-side instead of client-side);
//! * **failover** — when a replica dies mid-session, its shared
//!   connection breaks, every in-flight request on it fails fast, and
//!   idempotent requests (queries, scans, info, replay) transparently
//!   move to the next healthy replica and are retried there; the client
//!   only ever sees an answer. A failed request is first re-checked with
//!   an epoch probe so a *genuine server rejection* (bad share domain,
//!   oversized batch) reaches the client as the replica's own `Error`
//!   frame instead of being retried elsewhere;
//! * **load-shed forwarding** — a replica's typed
//!   [`Frame::Overloaded`] refusal means the replica is *alive* and
//!   shedding; the router forwards it to the client verbatim rather
//!   than failing over, so a hot fleet backs clients off instead of
//!   stampeding the next replica;
//! * **update fan-out** — an [`Frame::UpdateBatch`] is applied to every
//!   healthy replica under one router-wide update lock (serialised
//!   against the prober's catch-ups). Replicas that fail or were already
//!   unhealthy are left behind and converge through the prober's journal
//!   replay. The ack reports the highest epoch reached.
//!
//! [`PirRouter::shutdown`] joins *every* thread the router started —
//! the event loop, the workers, the prober, and each backend
//! connection's reader thread — before it returns.
//!
//! What the router does **not** hide: a query racing an in-flight update
//! fan-out can observe two different epochs on two sessions — exactly
//! the torn interleaving [`impir_core::scheme::TwoServerPir`] already
//! detects and resolves by epoch, so the client-side contract is
//! unchanged.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use impir_core::topology::{FleetTopology, RetrySpec};
use impir_core::transport::{FrameChannel, MuxConnection, MuxSession, PirTransport};
use impir_core::wire::{Frame, WIRE_VERSION};
use impir_core::{PirError, UpdateOutcome};

use crate::events::{EventLoop, Hook, Reply, Request};
use crate::{error_frame, protocol, spawn_named};

/// Router workers: a fixed pool, so the router's thread count does not
/// grow with its session count. It bounds only the blocking work that
/// proceeds at once — connection openings, update fan-outs, failovers;
/// a forwarded request holds no worker for its round trip.
const ROUTER_WORKERS: usize = 8;

/// Requests waiting for a router worker. Past this the event loop sheds
/// with the same typed `Overloaded` refusal a replica sends.
const ROUTER_QUEUE: usize = 64;

/// How many times a fan-out leg waits out a replica's typed overload
/// refusal before leaving the replica to the prober's journal replay.
const FAN_OUT_SHED_RETRIES: u32 = 3;

/// Upper bound on honouring a replica's advertised `retry_after_ms`, so
/// a bogus value cannot park a router thread for minutes.
const MAX_SHED_WAIT: Duration = Duration::from_millis(1_000);

/// One replica as the router sees it.
struct ReplicaSlot {
    name: String,
    addr: String,
    /// Cleared when the replica is unreachable or lagging beyond the
    /// tolerated window; set again once the prober has it caught up.
    /// Sessions check this before every request and rotate away early.
    healthy: AtomicBool,
    /// The slot's shared multiplexed connection. `None` until the first
    /// session or probe needs it; replaced (never repaired) when broken.
    conn: Mutex<Option<Arc<MuxConnection>>>,
    /// Byte totals folded in from connections that have since been
    /// replaced; the live connection's counters come on top.
    uploaded: AtomicU64,
    downloaded: AtomicU64,
}

impl ReplicaSlot {
    /// Folded totals plus whatever the live connection has counted.
    fn traffic(&self) -> (u64, u64) {
        let mut up = self.uploaded.load(Ordering::Relaxed);
        let mut down = self.downloaded.load(Ordering::Relaxed);
        if let Ok(guard) = self.conn.lock() {
            if let Some(conn) = guard.as_ref() {
                up += conn.uploaded_bytes();
                down += conn.downloaded_bytes();
            }
        }
        (up, down)
    }

    /// Folds a connection that is being dropped into the slot totals.
    fn retire(&self, conn: &MuxConnection) {
        self.uploaded
            .fetch_add(conn.uploaded_bytes(), Ordering::Relaxed);
        self.downloaded
            .fetch_add(conn.downloaded_bytes(), Ordering::Relaxed);
    }
}

/// State shared by the event loop's hook, the workers and the prober.
struct RouterState {
    slots: Vec<ReplicaSlot>,
    retry: RetrySpec,
    /// Bound on any single backend socket write, from the topology's
    /// `io-timeout-ms` (reads stay unbounded: the connections' reader
    /// threads legitimately block).
    write_timeout: Duration,
    /// Round-robin cursor for assigning new sessions (and new backends
    /// after a failover) to replicas.
    next: AtomicUsize,
    /// Serialises update fan-outs against each other and against the
    /// prober's catch-up replays, so a replica never receives a journal
    /// replay interleaved with a fresh batch.
    update_lock: Mutex<()>,
    max_lag_epochs: u64,
}

impl RouterState {
    /// The slot's live multiplexed connection, dialing one if the slot
    /// has none or the previous one broke. A dead connection's byte
    /// counters are folded into the slot totals before it is replaced;
    /// sessions still holding it fail fast and rotate.
    fn connection(&self, slot: usize) -> Result<Arc<MuxConnection>, PirError> {
        let slot_ref = &self.slots[slot];
        let mut guard = slot_ref
            .conn
            .lock()
            .map_err(|_| protocol("router replica-connection lock poisoned"))?;
        if let Some(conn) = guard.as_ref() {
            if !conn.is_broken() {
                return Ok(Arc::clone(conn));
            }
        }
        if let Some(dead) = guard.take() {
            slot_ref.retire(&dead);
        }
        let conn = Arc::new(self.connect_slot(slot)?);
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Dials `slot` with the topology's retry/backoff spec. Runs under
    /// the slot's connection lock: concurrent sessions needing the same
    /// replica wait for one dialer instead of racing it.
    fn connect_slot(&self, slot: usize) -> Result<MuxConnection, PirError> {
        let addr = self.slots[slot].addr.as_str();
        let mut backoff = Duration::from_millis(self.retry.backoff_ms);
        let max_backoff = Duration::from_millis(self.retry.max_backoff_ms);
        let mut last: Option<PirError> = None;
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(max_backoff);
            }
            match MuxConnection::connect_with(addr, Some(self.write_timeout)) {
                Ok(conn) => return Ok(conn),
                Err(err) => last = Some(err),
            }
        }
        Err(last.expect("at least one connect attempt runs"))
    }
}

/// Wire traffic the router has exchanged with one replica, summed over
/// all sessions, probes and catch-up replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaTraffic {
    /// The replica's topology name.
    pub name: String,
    /// Whether the router currently considers the replica healthy.
    pub healthy: bool,
    /// Request bytes the router has sent to this replica.
    pub uploaded_bytes: u64,
    /// Response bytes the router has received from this replica.
    pub downloaded_bytes: u64,
}

/// A running front-tier router. Dropping the handle shuts it down.
pub struct PirRouter {
    addr: SocketAddr,
    state: Arc<RouterState>,
    events: EventLoop,
    /// Tells the prober to stop.
    stopping: Arc<AtomicBool>,
    /// The workers and the prober.
    threads: Vec<JoinHandle<()>>,
}

impl PirRouter {
    /// Binds the topology's `[router]` listen address and starts
    /// spreading client sessions over its replicas.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for a topology without a `[router]`
    /// section (or an otherwise invalid one) and [`PirError::Protocol`]
    /// when the listen address cannot be bound. Replicas do **not** have
    /// to be reachable at bind time — the prober and per-session
    /// failover deal with late or dead replicas.
    pub fn bind(topology: &FleetTopology) -> Result<Self, PirError> {
        topology.validate()?;
        let Some(router) = &topology.router else {
            return Err(PirError::Config {
                reason: "the topology has no [router] section".to_string(),
            });
        };
        let slots = topology
            .replicas
            .iter()
            .map(|replica| ReplicaSlot {
                name: replica.name.clone(),
                addr: replica
                    .listen
                    .clone()
                    .expect("validate() guarantees router fleets are all-TCP"),
                healthy: AtomicBool::new(true),
                conn: Mutex::new(None),
                uploaded: AtomicU64::new(0),
                downloaded: AtomicU64::new(0),
            })
            .collect();
        let state = Arc::new(RouterState {
            slots,
            retry: topology.retry,
            write_timeout: topology.replica_write_timeout(),
            next: AtomicUsize::new(0),
            update_lock: Mutex::new(()),
            max_lag_epochs: router.max_lag_epochs,
        });
        let probe_interval = Duration::from_millis(router.probe_interval_ms);
        // Client connections run the replicas' event loop, with the worker
        // pool in place of the dispatcher — so they accept multiplexed
        // sessions and shed like a replica. The loop owns the only job
        // sender: the workers end when it has.
        let mut threads = Vec::new();
        let spawned = EventLoop::spawn(router.listen.as_str(), None, |_| {
            // Unbounded, so a replica leg's reader thread can always queue
            // a failover; the hook sheds past `ROUTER_QUEUE` instead.
            let (jobs, job_rx) = unbounded::<Job>();
            let jobs = Arc::new(jobs);
            for _ in 0..ROUTER_WORKERS {
                let (job_rx, requeue) = (job_rx.clone(), Arc::downgrade(&jobs));
                threads.push(spawn_named("impir-router", move || {
                    router_worker(&job_rx, &requeue);
                })?);
            }
            let state = Arc::clone(&state);
            Ok(RouterHook { state, jobs })
        });
        let (events, addr) = match spawned {
            Ok(spawned) => spawned,
            Err(err) => {
                // The job sender is gone, so any worker already started
                // returns at once.
                for worker in threads {
                    let _ = worker.join();
                }
                return Err(err);
            }
        };
        let mut router = PirRouter {
            addr,
            state,
            events,
            stopping: Arc::new(AtomicBool::new(false)),
            threads,
        };
        let (state, stopping) = (Arc::clone(&router.state), Arc::clone(&router.stopping));
        // On failure, dropping `router` stops and joins what started.
        router.threads.push(spawn_named("impir-prober", move || {
            prober_loop(&state, &stopping, probe_interval);
        })?);
        Ok(router)
    }

    /// The address the router listens on (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Per-replica wire-traffic and health accounting, in topology order.
    #[must_use]
    pub fn replica_traffic(&self) -> Vec<ReplicaTraffic> {
        self.state
            .slots
            .iter()
            .map(|slot| {
                let (uploaded_bytes, downloaded_bytes) = slot.traffic();
                ReplicaTraffic {
                    name: slot.name.clone(),
                    healthy: slot.healthy.load(Ordering::SeqCst),
                    uploaded_bytes,
                    downloaded_bytes,
                }
            })
            .collect()
    }

    /// Stops the router: the loop stops accepting and reading, writes the
    /// replies it still owes (as a replica's does) and closes every client
    /// connection, and every thread is joined — the event loop, the
    /// workers, the prober, and each backend connection's reader thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.events.stop();
        self.stopping.store(true, Ordering::SeqCst);
        for handle in self.threads.drain(..) {
            // The prober sleeps parked between probes; wake it to notice.
            handle.thread().unpark();
            let _ = handle.join();
        }
        // With the loop, the workers and the prober joined, the slots hold
        // the last reference to each backend connection: dropping them
        // here sends the connection-level Goodbyes and joins their reader
        // threads — shutdown() returns with no router thread left running.
        for slot in &self.state.slots {
            if let Some(conn) = slot.conn.lock().ok().and_then(|mut guard| guard.take()) {
                slot.retire(&conn);
            }
        }
    }
}

impl Drop for PirRouter {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for PirRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PirRouter")
            .field("addr", &self.addr)
            .field("replicas", &self.state.slots.len())
            .finish_non_exhaustive()
    }
}

/// The router side of one client connection (its root session and any
/// multiplexed ones): a logical [`MuxSession`] on the pinned replica's
/// shared connection, with failover when that replica dies.
struct RoutedBackend {
    slot: usize,
    /// Pins the shared connection so it cannot be dropped out from
    /// under the session (the slot may replace its `Arc` on breakage).
    conn: Arc<MuxConnection>,
    session: MuxSession,
    info: impir_core::ServerInfo,
}

impl RoutedBackend {
    /// Opens a session on the next healthy replica, round-robin, and
    /// fetches its current [`impir_core::ServerInfo`] — so the client's
    /// HelloAck carries the replica's live epoch, exactly as if it had
    /// dialed the replica itself. Replicas that refuse the connection
    /// are marked unhealthy and skipped; a replica that answers with a
    /// typed overload refusal is *alive*, so the refusal propagates
    /// instead of condemning the replica.
    fn connect(state: &RouterState) -> Result<Self, PirError> {
        let slots = state.slots.len();
        let start = state.next.fetch_add(1, Ordering::Relaxed);
        let mut last_error: Option<PirError> = None;
        for offset in 0..slots {
            let slot = (start + offset) % slots;
            if !state.slots[slot].healthy.load(Ordering::SeqCst) {
                continue;
            }
            let conn = match state.connection(slot) {
                Ok(conn) => conn,
                Err(err) => {
                    state.slots[slot].healthy.store(false, Ordering::SeqCst);
                    last_error = Some(err);
                    continue;
                }
            };
            let mut session = match conn.session() {
                Ok(session) => session,
                Err(err) => {
                    last_error = Some(err);
                    continue;
                }
            };
            match session.server_info() {
                Ok(info) => {
                    return Ok(RoutedBackend {
                        slot,
                        conn,
                        session,
                        info,
                    })
                }
                Err(PirError::Overloaded { retry_after_ms }) => {
                    last_error = Some(PirError::Overloaded { retry_after_ms });
                }
                Err(err) => {
                    state.slots[slot].healthy.store(false, Ordering::SeqCst);
                    last_error = Some(err);
                }
            }
        }
        Err(last_error.unwrap_or_else(|| protocol("no healthy replica available")))
    }

    /// Finishes a request whose trip to this leg's replica came back as
    /// an `Error` reply or a transport failure (`failed`). If the replica
    /// still answers an epoch probe, it genuinely rejected the request and
    /// the client gets the rejection instead of a retry elsewhere; a dead
    /// one is condemned and the request moves to the next healthy replica.
    /// Every other reply travels back untouched — a typed overload refusal
    /// included: the replica is alive and shedding, and failing over would
    /// stampede the rest of the fleet.
    fn recover(
        &mut self,
        state: &RouterState,
        request: &Frame,
        mut failed: Result<Frame, PirError>,
    ) -> Result<Frame, PirError> {
        let request = request.encode()?;
        for _ in 0..state.slots.len() {
            if alive(&self.conn, &mut self.session) {
                return failed;
            }
            state.slots[self.slot]
                .healthy
                .store(false, Ordering::SeqCst);
            self.rotate(state)?;
            failed = self.session.exchange(&request, true);
            if matches!(&failed, Ok(reply) if !matches!(reply, Frame::Error { .. })) {
                return failed;
            }
        }
        Err(protocol("every replica failed the request"))
    }

    /// Replaces the dead backend with a session on the next healthy
    /// replica.
    fn rotate(&mut self, state: &RouterState) -> Result<(), PirError> {
        let replacement = RoutedBackend::connect(state)?;
        *self = replacement;
        Ok(())
    }
}

/// Whether a replica whose request just failed is still alive: its
/// connection is intact and it answers an epoch probe (a typed overload
/// refusal counts — a shedding replica is alive).
fn alive(conn: &MuxConnection, session: &mut MuxSession) -> bool {
    !conn.is_broken()
        && matches!(
            session.epoch_info(),
            Ok(_) | Err(PirError::Overloaded { .. })
        )
}

/// One request for the worker pool, with the responder of the connection
/// it came from. `failed` is set when the request already went down the
/// connection's replica leg and came back as an `Error` reply or a
/// transport failure.
struct Job {
    responder: Arc<Mutex<RouterResponder>>,
    request: Frame,
    reply: Reply,
    failed: Option<Result<Frame, PirError>>,
}

/// The router's event-loop hook: request frames queue for the workers,
/// each with its connection's responder.
struct RouterHook {
    state: Arc<RouterState>,
    /// The only strong handle: the workers end once the loop has.
    jobs: Arc<Sender<Job>>,
}

impl Hook for RouterHook {
    type Conn = Arc<Mutex<RouterResponder>>;
    // A connection's sessions share its responder (one pinned replica
    // leg, one logical session on it) and are answered in order, so no
    // worker ever waits on another worker's lock.
    const SERIAL_PER_CONN: bool = true;

    fn open(&self) -> Self::Conn {
        Arc::new(Mutex::new(RouterResponder {
            state: Arc::clone(&self.state),
            backend: None,
        }))
    }

    fn forward(&self, conn: &Self::Conn, (request, reply): Request) -> Result<(), Reply> {
        if self.is_full() {
            return Err(reply);
        }
        // Gone workers drop the job, and its `Reply` tells the client.
        let _ = self.jobs.send(Job {
            responder: Arc::clone(conn),
            request,
            reply,
            failed: None,
        });
        Ok(())
    }

    fn is_full(&self) -> bool {
        self.jobs.len() >= ROUTER_QUEUE
    }
}

/// One router worker: takes queued requests to their connection's
/// responder. `requeue` is how a replica leg's reader thread queues a
/// failover.
fn router_worker(jobs: &Receiver<Job>, requeue: &Weak<Sender<Job>>) {
    while let Ok(job) = jobs.recv() {
        match job.responder.lock() {
            Ok(mut responder) => {
                responder.handle(&job.responder, job.request, job.reply, job.failed, requeue)
            }
            Err(_) => job
                .reply
                .send(error_frame(&protocol("router session lock poisoned"))),
        }
    }
}

/// Answers one client connection's frames on the router: the opening
/// `Hello` pins a replica (its `HelloAck` carries that replica's live
/// geometry and epoch, exactly as if the client had dialed it), update
/// batches fan out to the fleet, and every other request is forwarded
/// verbatim over the pinned replica leg.
struct RouterResponder {
    state: Arc<RouterState>,
    backend: Option<RoutedBackend>,
}

impl RouterResponder {
    /// Answers `request` through `reply`. A forwarded request is sent down
    /// the pinned replica leg without waiting: the leg's reader thread
    /// passes the replica's reply on, or — on an `Error` reply or a
    /// transport failure — queues the request on `requeue` again, `failed`
    /// now set, for [`RoutedBackend::recover`].
    fn handle(
        &mut self,
        this: &Arc<Mutex<RouterResponder>>,
        request: Frame,
        reply: Reply,
        failed: Option<Result<Frame, PirError>>,
        requeue: &Weak<Sender<Job>>,
    ) {
        let forwarded = !matches!(request, Frame::Hello { .. } | Frame::UpdateBatch { .. });
        let Some(backend) = self.backend.as_mut().filter(|_| forwarded) else {
            return reply.send(self.respond(request));
        };
        if let Some(failed) = failed {
            let recovered = backend.recover(&self.state, &request, failed);
            return reply.send(recovered.unwrap_or_else(|err| error_frame(&err)));
        }
        if !self.state.slots[backend.slot]
            .healthy
            .load(Ordering::SeqCst)
        {
            if let Err(err) = backend.rotate(&self.state) {
                return reply.send(error_frame(&err));
            }
        }
        let encoded = match request.encode() {
            Ok(encoded) => encoded,
            Err(err) => return reply.send(error_frame(&err)),
        };
        // Weak: the pending request must not keep its own leg alive. The
        // router is stopping when the job queue is gone, and the client
        // when the responder is; dropping the `Reply` is all that is left.
        let (responder, requeue) = (Arc::downgrade(this), requeue.clone());
        backend
            .session
            .send(&encoded, move |outcome| match outcome {
                Ok(frame) if !matches!(frame, Frame::Error { .. }) => reply.send(frame),
                failed => {
                    if let (Some(jobs), Some(responder)) = (requeue.upgrade(), responder.upgrade())
                    {
                        let _ = jobs.send(Job {
                            responder,
                            request,
                            reply,
                            failed: Some(failed),
                        });
                    }
                }
            });
    }

    /// The reply frame to a request the router answers itself: a `Hello`
    /// or an update batch.
    fn respond(&mut self, request: Frame) -> Frame {
        let reply = match request {
            Frame::Hello { .. } => match RoutedBackend::connect(&self.state) {
                Ok(backend) => {
                    let info = backend.info;
                    self.backend = Some(backend);
                    Ok(Frame::HelloAck {
                        version: WIRE_VERSION,
                        info,
                    })
                }
                // Every replica is shedding: refuse the session with the
                // same typed frame a replica would use.
                Err(PirError::Overloaded { retry_after_ms }) => {
                    Ok(Frame::Overloaded { retry_after_ms })
                }
                Err(err) => Ok(Frame::Error {
                    message: format!("router has no healthy replica: {err}"),
                }),
            },
            // Updates are NOT failover-retried through the session's
            // pinned replica: they fan out to the whole fleet under the
            // router's update lock, exactly once per healthy replica.
            Frame::UpdateBatch { updates } => {
                fan_out_update(&self.state, &updates).map(|outcome| Frame::UpdateAck { outcome })
            }
            _ => Err(protocol("the router session has no replica")),
        };
        reply.unwrap_or_else(|err| error_frame(&err))
    }
}

/// What one replica did with a fanned-out update batch.
enum FanOutResult {
    /// Applied it; the ack carries the replica's post-update epoch.
    Applied(UpdateOutcome),
    /// Alive and *rejected* it (validation failure — deterministic, so
    /// identical on every replica: none of them lands the batch).
    Rejected(PirError),
    /// Unhealthy, unreachable, still shedding after the overload
    /// retries, or died mid-update; the prober's journal replay catches
    /// it up later.
    Skipped,
}

/// Applies one update batch to every healthy replica concurrently — one
/// scoped thread per replica, so the fleet's update latency is the *max*
/// of the replica round trips, not their sum. The update lock still
/// serialises whole fan-outs against each other and against the prober's
/// catch-ups. Replicas that die mid-fan-out are marked unhealthy and left
/// to the prober's journal replay; a *rejected* batch (validation failure
/// — deterministic, so every replica rejects it identically and nothing
/// lands anywhere) is reported to the client.
fn fan_out_update(
    state: &RouterState,
    updates: &[(u64, Vec<u8>)],
) -> Result<UpdateOutcome, PirError> {
    let _guard = state
        .update_lock
        .lock()
        .map_err(|_| protocol("router update lock poisoned"))?;
    let results: Vec<FanOutResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..state.slots.len())
            .map(|slot| scope.spawn(move || fan_out_to_slot(state, slot, updates)))
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().unwrap_or(FanOutResult::Skipped))
            .collect()
    });
    let mut best: Option<UpdateOutcome> = None;
    let mut failures = 0usize;
    for result in results {
        match result {
            FanOutResult::Applied(outcome) => {
                if best.as_ref().is_none_or(|b| outcome.epoch > b.epoch) {
                    best = Some(outcome);
                }
            }
            FanOutResult::Rejected(err) => return Err(err),
            FanOutResult::Skipped => failures += 1,
        }
    }
    best.ok_or_else(|| {
        protocol(&format!(
            "update reached none of the {failures} replica(s): every one is unhealthy or died \
             mid-update"
        ))
    })
}

/// One replica's leg of [`fan_out_update`], riding the slot's shared
/// connection as its own logical session.
fn fan_out_to_slot(state: &RouterState, slot: usize, updates: &[(u64, Vec<u8>)]) -> FanOutResult {
    if !state.slots[slot].healthy.load(Ordering::SeqCst) {
        return FanOutResult::Skipped;
    }
    let Ok(conn) = state.connection(slot) else {
        state.slots[slot].healthy.store(false, Ordering::SeqCst);
        return FanOutResult::Skipped;
    };
    let Ok(mut session) = conn.session() else {
        return FanOutResult::Skipped;
    };
    for _ in 0..FAN_OUT_SHED_RETRIES {
        match session.apply_updates(updates) {
            Ok(outcome) => return FanOutResult::Applied(outcome),
            // A shedding replica is alive: wait out its advertised
            // backoff instead of condemning it to a journal replay.
            Err(PirError::Overloaded { retry_after_ms }) => {
                std::thread::sleep(Duration::from_millis(retry_after_ms).min(MAX_SHED_WAIT));
            }
            Err(err) => {
                if alive(&conn, &mut session) {
                    // The replica is alive and rejected the batch; every
                    // peer runs the same all-or-nothing validation and
                    // rejects it too, so nothing has landed anywhere.
                    return FanOutResult::Rejected(err);
                }
                state.slots[slot].healthy.store(false, Ordering::SeqCst);
                return FanOutResult::Skipped;
            }
        }
    }
    FanOutResult::Skipped
}

/// The background health/lag prober: every interval, ask every replica
/// for its [`impir_core::EpochInfo`]; unreachable replicas are marked
/// unhealthy, reachable ones lagging beyond `max-lag-epochs` are caught
/// up from an ahead peer's journal and then marked healthy again. Between
/// probes it sleeps parked; [`PirRouter::shutdown`] unparks it.
fn prober_loop(state: &RouterState, shutdown: &AtomicBool, probe_interval: Duration) {
    loop {
        std::thread::park_timeout(probe_interval);
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Probe every replica with its own logical session on the
        // slot's shared connection.
        let mut epochs: Vec<Option<u64>> = Vec::with_capacity(state.slots.len());
        for slot in 0..state.slots.len() {
            epochs.push(probe_epoch(state, slot));
        }
        let Some(front) = epochs.iter().flatten().copied().max() else {
            // Nobody answered; every slot is already marked unhealthy.
            continue;
        };
        let ahead = epochs.iter().position(|&e| e == Some(front));
        for (slot, probed) in epochs.iter().enumerate() {
            match *probed {
                None => state.slots[slot].healthy.store(false, Ordering::SeqCst),
                Some(epoch) if front - epoch <= state.max_lag_epochs => {
                    state.slots[slot].healthy.store(true, Ordering::SeqCst);
                }
                Some(_) => {
                    let caught_up = ahead
                        .map(|ahead| catch_up(state, slot, ahead))
                        .unwrap_or(false);
                    state.slots[slot].healthy.store(caught_up, Ordering::SeqCst);
                }
            }
        }
    }
}

/// One epoch probe against `slot`; `None` marks the replica unreachable
/// (and unhealthy). A typed overload refusal gets one retry after the
/// advertised backoff — a shedding replica is alive, and a single busy
/// interval should not cost it its healthy flag.
fn probe_epoch(state: &RouterState, slot: usize) -> Option<u64> {
    let Ok(conn) = state.connection(slot) else {
        state.slots[slot].healthy.store(false, Ordering::SeqCst);
        return None;
    };
    let Ok(mut session) = conn.session() else {
        state.slots[slot].healthy.store(false, Ordering::SeqCst);
        return None;
    };
    let mut attempt = session.epoch_info();
    if let Err(PirError::Overloaded { retry_after_ms }) = attempt {
        std::thread::sleep(Duration::from_millis(retry_after_ms).min(MAX_SHED_WAIT));
        attempt = session.epoch_info();
    }
    match attempt {
        Ok(info) => Some(info.current_epoch),
        Err(_) => {
            state.slots[slot].healthy.store(false, Ordering::SeqCst);
            None
        }
    }
}

/// Replays `behind`'s missed batches from `ahead`'s update journal — the
/// wire-level PR 7 catch-up, driven by the router instead of a client.
/// Runs under the update lock so no fan-out interleaves with the replay.
fn catch_up(state: &RouterState, behind: usize, ahead: usize) -> bool {
    let Ok(_guard) = state.update_lock.lock() else {
        return false;
    };
    let Ok(ahead_conn) = state.connection(ahead) else {
        return false;
    };
    let Ok(behind_conn) = state.connection(behind) else {
        return false;
    };
    let (Ok(mut ahead_session), Ok(mut behind_session)) =
        (ahead_conn.session(), behind_conn.session())
    else {
        return false;
    };
    let replayed = (|| -> Result<(), PirError> {
        // The probed epoch is stale by the time the lock is held: a
        // fan-out that was mid-flight when the probe ran may already have
        // landed the "missed" batches. Re-read both epochs under the lock
        // and replay only what is genuinely missing — blindly replaying
        // `behind_epoch` would apply a batch twice and push the replica
        // *ahead* of its peers.
        let current = behind_session.epoch_info()?.current_epoch;
        let ahead_epoch = ahead_session.epoch_info()?.current_epoch;
        if current >= ahead_epoch {
            return Ok(());
        }
        // A JournalTruncated here stays an error: the replica cannot be
        // healed over the wire and needs a re-seed — it simply stays
        // unhealthy, and the probe log (epoch never converging) is the
        // operator's signal.
        let batches = ahead_session.replay_updates(current)?;
        for batch in batches {
            behind_session.apply_updates(&batch)?;
        }
        Ok(())
    })();
    replayed.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_service;
    use crate::events::wrap;
    use impir_core::topology::{ReplicaSpec, RouterSpec};
    use impir_core::transport::{LocalTransport, TcpTransport};
    use impir_core::PirClient;
    use std::net::TcpListener;

    /// Binds and releases an ephemeral port so the topology can name a
    /// concrete replica address (the classic free-port dance; fine for
    /// tests, racy in production).
    fn free_addr() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        addr
    }

    fn routed_fleet(replicas: usize) -> FleetTopology {
        let mut topology = FleetTopology::new(192, 8, 77);
        for index in 0..replicas {
            topology
                .replicas
                .push(ReplicaSpec::tcp(format!("r{index}"), free_addr()));
        }
        topology.router = Some(RouterSpec {
            listen: free_addr(),
            probe_interval_ms: 50,
            max_lag_epochs: 0,
        });
        topology
    }

    #[test]
    fn a_router_without_replicas_refuses_the_handshake_and_closes() {
        use std::io::{Read, Write};
        // Nothing listens on the replicas' addresses.
        let mut topology = routed_fleet(2);
        topology.retry.attempts = 1;
        let router = PirRouter::bind(&topology).unwrap();
        let mut stream = std::net::TcpStream::connect(router.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let hello = Frame::Hello {
            version: WIRE_VERSION,
        };
        stream.write_all(&hello.encode().unwrap()).unwrap();
        match impir_core::wire::read_frame(&mut stream).unwrap().0 {
            Frame::Error { message } => {
                assert!(message.contains("no healthy replica"), "{message}");
            }
            other => panic!("expected the router's typed Error, got {other:?}"),
        }
        // A refused handshake closes the connection.
        assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0);
        router.shutdown();
    }

    /// A forwarded request does not hold a router worker for its round
    /// trip. A stand-in replica holds every scan until twice the pool's
    /// worth are in flight: were each one to hold a worker, the replica
    /// would never see that many, and every client would time out.
    #[test]
    fn routed_requests_in_flight_are_not_capped_by_the_worker_pool() {
        use impir_core::wire::read_frame;
        use impir_core::ServerInfo;
        use std::io::Write;
        const HELD: usize = 2 * ROUTER_WORKERS;
        let replica = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut topology = FleetTopology::new(192, 8, 77);
        topology.replicas.push(ReplicaSpec::tcp(
            "r0",
            replica.local_addr().unwrap().to_string(),
        ));
        topology.router = Some(RouterSpec {
            listen: free_addr(),
            probe_interval_ms: 60_000,
            max_lag_epochs: 0,
        });
        let stand_in = std::thread::spawn(move || {
            let (mut stream, _) = replica.accept().unwrap();
            let info = ServerInfo {
                num_records: 192,
                record_size: 8,
                shard_count: 1,
                epoch: 0,
            };
            let mut held = Vec::new();
            while let Ok((frame, _)) = read_frame(&mut stream) {
                let reply = match frame {
                    Frame::Hello { .. } => Some(Frame::HelloAck {
                        version: WIRE_VERSION,
                        info,
                    }),
                    Frame::Mux { session, frame } => match *frame {
                        Frame::InfoRequest => Some(wrap(Some(session), Frame::Info { info })),
                        Frame::SelectorScan { .. } => {
                            held.push(session);
                            None
                        }
                        _ => None,
                    },
                    _ => None,
                };
                let mut replies: Vec<Frame> = reply.into_iter().collect();
                if held.len() == HELD {
                    replies.extend(held.drain(..).map(|session| {
                        wrap(
                            Some(session),
                            Frame::SelectorResult {
                                epoch: 0,
                                payload: vec![0; 8],
                                phases: impir_core::PhaseBreakdown::zero(),
                            },
                        )
                    }));
                }
                for reply in replies {
                    stream.write_all(&reply.encode().unwrap()).unwrap();
                }
            }
        });
        let router = PirRouter::bind(&topology).unwrap();
        let hello = Frame::Hello {
            version: WIRE_VERSION,
        };
        let scan = Frame::SelectorScan {
            selector: (0..192).map(|i| i % 2 == 0).collect(),
        };
        let clients: Vec<_> = (0..HELD)
            .map(|_| {
                let (addr, hello, scan) = (router.addr(), hello.clone(), scan.clone());
                std::thread::spawn(move || {
                    let mut stream = std::net::TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    stream.write_all(&hello.encode().unwrap()).unwrap();
                    assert!(matches!(
                        read_frame(&mut stream).unwrap().0,
                        Frame::HelloAck { .. }
                    ));
                    stream.write_all(&scan.encode().unwrap()).unwrap();
                    read_frame(&mut stream).map(|(frame, _)| frame)
                })
            })
            .collect();
        for client in clients {
            match client.join().unwrap() {
                Ok(Frame::SelectorResult { .. }) => {}
                other => panic!("a routed scan was not answered: {other:?}"),
            }
        }
        router.shutdown();
        stand_in.join().unwrap();
    }

    #[test]
    fn a_parked_prober_does_not_delay_shutdown() {
        let mut topology = routed_fleet(1);
        if let Some(router) = topology.router.as_mut() {
            router.probe_interval_ms = 60_000;
        }
        let router = PirRouter::bind(&topology).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        router.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            started.elapsed()
        );
    }

    /// The process's live thread count, from the kernel's own books.
    fn live_threads() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .unwrap()
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    }

    #[test]
    fn routed_sessions_answer_over_shared_replica_connections() {
        let topology = routed_fleet(2);
        let services: Vec<_> = (0..2)
            .map(|index| build_service(&topology, index).unwrap())
            .collect();
        let router = PirRouter::bind(&topology).unwrap();

        // Four concurrent client sessions: round-robin lands them on both
        // replicas, every backend leg multiplexed over one connection per
        // replica.
        let mut transports: Vec<TcpTransport> = (0..4)
            .map(|_| TcpTransport::connect(router.addr()).unwrap())
            .collect();
        let mut oracle = LocalTransport::new(topology.build_engine(0).unwrap());
        let mut client = PirClient::new(192, 8, 5).unwrap();
        let (shares, _) = client.generate_batch(&[0, 100, 191]).unwrap();
        let expected = oracle.query_batch(&shares).unwrap();
        for transport in &mut transports {
            let batch = transport.query_batch(&shares).unwrap();
            assert_eq!(batch.responses, expected.responses);
        }

        // One update through one session reaches every replica.
        let ack = transports[0].apply_updates(&[(7, vec![0xEE; 8])]).unwrap();
        assert_eq!(ack.epoch, 1);

        for traffic in router.replica_traffic() {
            assert!(traffic.healthy, "replica {} unhealthy", traffic.name);
            assert!(
                traffic.uploaded_bytes > 0 && traffic.downloaded_bytes > 0,
                "replica {} saw no traffic",
                traffic.name
            );
        }
        drop(transports);
        router.shutdown();
        for service in services {
            service.shutdown();
        }
    }

    /// Builds every replica of `topology` with `config` and binds its
    /// router.
    fn routed_services(
        topology: &FleetTopology,
        config: crate::ServiceConfig,
    ) -> (Vec<crate::PirService>, PirRouter) {
        let services = (0..topology.replicas.len())
            .map(|index| crate::build_service_with(topology, index, config).unwrap())
            .collect();
        (services, PirRouter::bind(topology).unwrap())
    }

    #[test]
    fn a_rejected_query_reaches_the_client_typed_and_the_replica_stays_healthy() {
        let topology = routed_fleet(2);
        let (services, router) = routed_services(&topology, crate::service_config_for(&topology));
        let mut transport = TcpTransport::connect(router.addr()).unwrap();

        // Keys for a far larger domain than the replicas serve.
        let mut wrong = PirClient::new(1 << 20, 8, 1).unwrap();
        let (bad, _) = wrong.generate_batch(&[5]).unwrap();
        match transport.query_batch(&bad) {
            Err(PirError::Protocol { reason }) => assert!(
                reason.contains("query key covers a 20-bit domain"),
                "the replica's reason must reach the client: {reason}"
            ),
            other => panic!("expected a typed protocol error, got {other:?}"),
        }
        // A rejection is not a fault: no replica is condemned, and the
        // same session's next query answers.
        assert!(router.replica_traffic().iter().all(|t| t.healthy));
        let mut oracle = LocalTransport::new(topology.build_engine(0).unwrap());
        let mut client = PirClient::new(192, 8, 5).unwrap();
        let (shares, _) = client.generate_batch(&[3, 150]).unwrap();
        assert_eq!(
            transport.query_batch(&shares).unwrap().responses,
            oracle.query_batch(&shares).unwrap().responses
        );
        drop(transport);
        router.shutdown();
        services.into_iter().for_each(crate::PirService::shutdown);
    }

    #[test]
    fn chunked_replays_cross_the_router_complete_and_in_order() {
        let topology = routed_fleet(2);
        // 64 bytes hold two single-record batches per replay frame, so a
        // five-batch replay spans several replica round trips.
        let config = crate::ServiceConfig {
            max_replay_frame_bytes: 64,
            ..crate::service_config_for(&topology)
        };
        let (services, router) = routed_services(&topology, config);
        let mut transport = TcpTransport::connect(router.addr()).unwrap();
        let mut expected = Vec::new();
        for round in 0..5u8 {
            let batch = vec![(u64::from(round), vec![round; 8])];
            transport.apply_updates(&batch).unwrap();
            expected.push(batch);
        }
        assert_eq!(transport.replay_updates(0).unwrap(), expected);
        assert_eq!(transport.replay_updates(2).unwrap(), expected[2..].to_vec());
        drop(transport);
        router.shutdown();
        services.into_iter().for_each(crate::PirService::shutdown);
    }

    #[test]
    fn mux_sessions_through_the_router_answer_like_direct_replica_sessions() {
        let topology = routed_fleet(2);
        let (services, router) = routed_services(&topology, crate::service_config_for(&topology));
        let via_router = MuxConnection::connect(router.addr()).unwrap();
        let direct = MuxConnection::connect(services[0].addr()).unwrap();
        let mut client = PirClient::new(192, 8, 11).unwrap();
        let (shares, _) = client.generate_batch(&[0, 77, 191]).unwrap();
        let selector: impir_dpf::SelectorVector = (0..192).map(|i| i % 5 == 2).collect();
        for _ in 0..2 {
            let mut routed = via_router.session().unwrap();
            let mut replica = direct.session().unwrap();
            assert_eq!(
                routed.query_batch(&shares).unwrap().responses,
                replica.query_batch(&shares).unwrap().responses
            );
            assert_eq!(
                routed.scan_selector(&selector).unwrap().payload,
                replica.scan_selector(&selector).unwrap().payload
            );
            assert_eq!(routed.epoch_info().unwrap(), replica.epoch_info().unwrap());
        }
        drop((via_router, direct));
        router.shutdown();
        services.into_iter().for_each(crate::PirService::shutdown);
    }

    #[test]
    fn a_mid_session_hello_through_the_router_closes_the_connection() {
        use std::io::{Read, Write};
        let topology = routed_fleet(1);
        let (services, router) = routed_services(&topology, crate::service_config_for(&topology));
        let hello = Frame::Hello {
            version: WIRE_VERSION,
        };
        for session in [None, Some(3u32)] {
            let mut stream = std::net::TcpStream::connect(router.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut exchange = |frame: &Frame| {
                stream.write_all(&frame.encode().unwrap()).unwrap();
                impir_core::wire::read_frame(&mut stream).unwrap().0
            };
            assert!(matches!(exchange(&hello), Frame::HelloAck { .. }));
            let reply = match exchange(&crate::events::wrap(session, hello.clone())) {
                Frame::Mux { session: id, frame } if Some(id) == session => *frame,
                plain => plain,
            };
            assert!(
                matches!(&reply, Frame::Error { message } if message.contains("Hello")),
                "session {session:?}: {reply:?}"
            );
            assert_eq!(
                stream.read(&mut [0u8; 1]).unwrap(),
                0,
                "session {session:?}"
            );
        }
        router.shutdown();
        services.into_iter().for_each(crate::PirService::shutdown);
    }

    #[test]
    fn shutdown_joins_every_router_thread() {
        let topology = routed_fleet(2);
        let services: Vec<_> = (0..2)
            .map(|index| build_service(&topology, index).unwrap())
            .collect();
        let before = live_threads();

        let router = PirRouter::bind(&topology).unwrap();
        let mut client = PirClient::new(192, 8, 9).unwrap();
        let (shares, _) = client.generate_batch(&[1, 50]).unwrap();
        let open = |count: usize| -> Vec<TcpTransport> {
            (0..count)
                .map(|_| {
                    let mut transport = TcpTransport::connect(router.addr()).unwrap();
                    assert_eq!(transport.query_batch(&shares).unwrap().responses.len(), 2);
                    transport
                })
                .collect()
        };
        // Two sessions pin both replicas, so both backend legs exist.
        let mut transports = open(2);
        let with_two = live_threads();
        // Sixty-two more sessions ride the same event loop, workers and
        // legs: the thread count does not grow with the session count
        // (the slack absorbs other tests' threads in this process).
        transports.extend(open(62));
        let with_64 = live_threads();
        assert!(
            with_64 <= with_two + 16,
            "64 router sessions took {with_64} threads, 2 took {with_two}"
        );
        drop(transports);
        router.shutdown();

        // The event loop, the workers, the prober and every backend
        // connection's reader thread must be joined before shutdown()
        // returns. Threads of other tests in this process come and go, so
        // give the count a moment to settle.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let now = live_threads();
            if now <= before {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "router shutdown left {} thread(s) running",
                now - before
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        for service in services {
            service.shutdown();
        }
    }
}
