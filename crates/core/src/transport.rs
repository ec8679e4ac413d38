//! Transport-agnostic access to a PIR server: *where* a server runs is a
//! deployment policy, not a type.
//!
//! [`PirTransport`] is the client-side boundary of the service layer. A
//! scheme ([`crate::scheme::TwoServerPir`],
//! [`crate::multi_server::NServerNaivePir`]) holds `Box<dyn PirTransport>`
//! per server and cannot tell the implementations apart:
//!
//! * [`LocalTransport`] wraps a [`QueryEngine`] in-process — the
//!   single-process object graph every deployment used before the service
//!   layer existed, now just one policy among several;
//! * [`TcpTransport`] speaks the [`crate::wire`] format over `std::net` to
//!   an `impir-server` process (connection-per-session), so the same
//!   client code drives in-process, mixed, or fully remote deployments;
//! * [`MuxConnection`] multiplexes many logical sessions over **one** TCP
//!   connection using [`Frame::Mux`] session ids — each
//!   [`MuxConnection::session`] is a [`MuxSession`]. Sessions pipeline: a
//!   background reader thread routes each reply to the session that
//!   asked, so concurrent sessions never head-of-line block on one
//!   another's round trips. The router uses this for its backend legs
//!   (one socket per replica instead of one per client session), sending
//!   with [`MuxSession::send`] so no router thread waits out a round trip.
//!
//! Both remote kinds are [`FrameChannel`]s: a channel only carries an
//! encoded request frame out and a reply frame back. [`PirTransport`] is
//! implemented **once** over every channel, so the meaning of each
//! request — reply kind, response count, epoch caching, the server's
//! `Error`/`Overloaded`/`JournalTruncated` refusals, the chunked replay
//! loop — is written in one place, whichever socket carries it.
//!
//! Every transport reports the **wire cost** of each batch
//! ([`TransportBatch::upload_bytes`] / [`TransportBatch::download_bytes`]):
//! the TCP transport counts the bytes it actually moved, and the local
//! transport reports what the same batch *would* cost on the wire, so cost
//! accounting is deployment-independent too.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use impir_dpf::SelectorVector;

use crate::batch::{UpdatableBackend, UpdateOutcome};
use crate::engine::QueryEngine;
use crate::error::PirError;
use crate::journal::UpdateBatch;
use crate::protocol::{QueryShare, ServerResponse};
use crate::server::phases::PhaseBreakdown;
use crate::wire::{
    self, protocol_error, query_batch_frame_bytes, response_batch_frame_bytes, Frame, WIRE_VERSION,
};

pub use crate::wire::{EpochInfo, ServerInfo};

/// The result of one query batch through a transport: the responses plus
/// deployment-independent accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportBatch {
    /// Responses, in the same order as the submitted shares.
    pub responses: Vec<ServerResponse>,
    /// The server's database epoch when the batch executed. A scheme
    /// querying replicated servers checks these match across its
    /// transports (see [`crate::scheme::TwoServerPir::query_batch`]).
    pub epoch: u64,
    /// Wall time observed at the transport boundary, in seconds — for
    /// remote transports this includes the network round trip.
    pub wall_seconds: f64,
    /// Wall time the server itself measured for the batch, in seconds.
    pub server_wall_seconds: f64,
    /// The server's per-phase accounting of the batch.
    pub phase_totals: PhaseBreakdown,
    /// Bytes of request traffic for this batch (wire framing included).
    pub upload_bytes: u64,
    /// Bytes of response traffic for this batch (wire framing included).
    pub download_bytes: u64,
}

impl TransportBatch {
    /// Throughput in queries per second, based on the transport-boundary
    /// wall time.
    #[must_use]
    pub fn throughput_qps(&self) -> f64 {
        self.responses.len() as f64 / self.wall_seconds
    }

    /// Simulated-hardware batch latency: phases that ran on the simulated
    /// PIM use their modelled time, host phases their measured time.
    #[must_use]
    pub fn hybrid_seconds(&self) -> f64 {
        self.phase_totals.total_hybrid_seconds()
    }
}

/// The result of one selector scan through a transport.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// The record-sized XOR subresult.
    pub payload: Vec<u8>,
    /// The server's database epoch when the scan executed. An n-server
    /// query is `n` sequential scans; callers cross-check these so an
    /// update landing between scans is detected (see
    /// [`crate::multi_server::NServerNaivePir::query`]).
    pub epoch: u64,
    /// The server's per-phase accounting of the scan.
    pub phases: PhaseBreakdown,
}

/// Client-side handle to one PIR server, wherever it runs.
///
/// Methods take `&mut self`: a transport is a session, used by one logical
/// client at a time (servers multiplex many sessions internally).
pub trait PirTransport: Send {
    /// The served database's geometry and current shard/epoch state.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] on transport failures.
    fn server_info(&mut self) -> Result<ServerInfo, PirError>;

    /// Submits a batch of query shares and returns the responses (in
    /// order) with wire-cost and timing accounting.
    ///
    /// # Errors
    ///
    /// Propagates server-side errors (domain mismatches, backend
    /// failures) and returns [`PirError::Protocol`] on transport failures.
    fn query_batch(&mut self, shares: &[QueryShare]) -> Result<TransportBatch, PirError>;

    /// Scans one full-domain linear selector share (the n-server naive
    /// scheme) and returns the XOR subresult with its epoch and phase
    /// accounting.
    ///
    /// # Errors
    ///
    /// As for [`PirTransport::query_batch`].
    fn scan_selector(&mut self, selector: &SelectorVector) -> Result<ScanResult, PirError>;

    /// Applies a bulk update batch (§3.3) to the server's database.
    ///
    /// # Errors
    ///
    /// Propagates the engine's all-or-nothing validation errors and
    /// returns [`PirError::Protocol`] on transport failures.
    fn apply_updates(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<UpdateOutcome, PirError>;

    /// The server's database epoch and update-journal coverage — what a
    /// replicated scheme consults when its replicas disagree, to decide
    /// which one lags and whether the lag is still replayable.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] on transport failures.
    fn epoch_info(&mut self) -> Result<EpochInfo, PirError>;

    /// The update batches a replica stuck at `from_epoch` must apply, in
    /// order, to reach this server's epoch (see
    /// [`crate::journal::UpdateJournal::replay_from`]). Implementations
    /// with bounded messages (TCP) may gather the replay over several
    /// round trips, but always return the full set.
    ///
    /// # Errors
    ///
    /// * [`PirError::JournalTruncated`] when the server's journal no
    ///   longer reaches back to `from_epoch`;
    /// * [`PirError::Protocol`] on transport failures or when `from_epoch`
    ///   is ahead of the server.
    fn replay_updates(&mut self, from_epoch: u64) -> Result<Vec<UpdateBatch>, PirError>;
}

// ---------------------------------------------------------------------------
// In-process transport.
// ---------------------------------------------------------------------------

/// A [`PirTransport`] wrapping a [`QueryEngine`] in the same process — no
/// sockets, no serialization, but the same interface and the same wire
/// cost accounting as a remote server.
#[derive(Debug)]
pub struct LocalTransport<S: UpdatableBackend + Send + Sync> {
    engine: QueryEngine<S>,
}

impl<S: UpdatableBackend + Send + Sync> LocalTransport<S> {
    /// Wraps an engine.
    #[must_use]
    pub fn new(engine: QueryEngine<S>) -> Self {
        LocalTransport { engine }
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &QueryEngine<S> {
        &self.engine
    }
}

impl<S: UpdatableBackend + Send + Sync> PirTransport for LocalTransport<S> {
    fn server_info(&mut self) -> Result<ServerInfo, PirError> {
        Ok(ServerInfo {
            num_records: self.engine.num_records(),
            record_size: self.engine.record_size(),
            shard_count: self.engine.shard_count(),
            epoch: self.engine.database_epoch(),
        })
    }

    fn query_batch(&mut self, shares: &[QueryShare]) -> Result<TransportBatch, PirError> {
        let started = Instant::now();
        let outcome = self.engine.execute_batch(shares)?;
        Ok(TransportBatch {
            epoch: self.engine.database_epoch(),
            wall_seconds: started.elapsed().as_secs_f64(),
            server_wall_seconds: outcome.wall_seconds,
            phase_totals: outcome.phase_totals,
            upload_bytes: query_batch_frame_bytes(shares) as u64,
            download_bytes: response_batch_frame_bytes(&outcome.responses) as u64,
            responses: outcome.responses,
        })
    }

    fn scan_selector(&mut self, selector: &SelectorVector) -> Result<ScanResult, PirError> {
        let (payload, phases) = self.engine.scan_selector(selector)?;
        Ok(ScanResult {
            payload,
            epoch: self.engine.database_epoch(),
            phases,
        })
    }

    fn apply_updates(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<UpdateOutcome, PirError> {
        self.engine.apply_updates(updates)
    }

    fn epoch_info(&mut self) -> Result<EpochInfo, PirError> {
        Ok(self.engine.epoch_info())
    }

    fn replay_updates(&mut self, from_epoch: u64) -> Result<Vec<UpdateBatch>, PirError> {
        self.engine.replay_updates(from_epoch)
    }
}

// ---------------------------------------------------------------------------
// Frame channels: the one client request path.
// ---------------------------------------------------------------------------

/// A request/reply channel to one server session: it carries one
/// already-encoded plain request frame to the server and returns the
/// server's reply frame.
///
/// [`PirTransport`] is implemented once for every channel, so what a
/// request means — its reply kind, the response count, the epoch it
/// reports, how `Error`, `Overloaded` and `JournalTruncated` surface, the
/// chunked replay loop — is written in one place. A channel only decides
/// how the bytes travel: [`TcpTransport`] over a dedicated connection it
/// re-dials on failure, [`MuxSession`] as one logical session on a shared
/// connection. The front-tier router forwards client frames through this
/// trait too.
pub trait FrameChannel: Send {
    /// Sends `request` (one complete encoded plain frame) and returns the
    /// server's reply frame, `Error` and `Overloaded` included.
    /// `idempotent` says whether the request may be resent after a
    /// connection failure; a non-idempotent request is never resent once
    /// its bytes may have left this host.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] when the exchange fails on the
    /// transport: an I/O failure, a broken connection or a malformed
    /// reply.
    fn exchange(&mut self, request: &[u8], idempotent: bool) -> Result<Frame, PirError>;

    /// Names the server end of the channel in error messages, such as
    /// `server 10.0.0.7:7000`.
    fn server_label(&self) -> String;

    /// The server info this channel last heard of. The shared
    /// [`PirTransport`] implementation keeps it current.
    fn cached_info_mut(&mut self) -> &mut ServerInfo;

    /// Bytes the channel adds around every plain frame on the wire, in
    /// each direction (a [`Frame::Mux`] header, say). They are counted
    /// into a [`TransportBatch`]'s wire costs.
    fn framing_overhead(&self) -> usize {
        0
    }
}

/// One round trip through `channel`. Transport failures name the
/// operation; the server's refusals become errors (see [`server_reply`]);
/// any other reply frame is returned for the caller to check its kind.
fn round_trip<C: FrameChannel>(
    channel: &mut C,
    op: &str,
    request: &[u8],
    idempotent: bool,
) -> Result<Frame, PirError> {
    let reply = channel
        .exchange(request, idempotent)
        .map_err(|err| match err {
            PirError::Protocol { reason } => protocol_error(format!("{op}: {reason}")),
            other => other,
        })?;
    server_reply(reply, || channel.server_label())
}

/// Turns the server's refusals into errors: `Error` into
/// [`PirError::Protocol`] naming the server, and `Overloaded` into the
/// retryable [`PirError::Overloaded`] (nothing ran and the connection
/// stays usable, so the caller backs off instead of retrying blindly).
/// `server` names the server, and runs only for an `Error` reply.
fn server_reply(reply: Frame, server: impl FnOnce() -> String) -> Result<Frame, PirError> {
    match reply {
        Frame::Error { message } => Err(protocol_error(format!(
            "{} rejected request: {message}",
            server()
        ))),
        Frame::Overloaded { retry_after_ms } => Err(PirError::Overloaded { retry_after_ms }),
        reply => Ok(reply),
    }
}

fn unexpected<C: FrameChannel>(channel: &C, op: &str, expected: &str, got: &Frame) -> PirError {
    protocol_error(format!(
        "{op}: expected a {expected} frame from {}, got {}",
        channel.server_label(),
        got.name()
    ))
}

impl<C: FrameChannel> PirTransport for C {
    fn server_info(&mut self) -> Result<ServerInfo, PirError> {
        let op = "requesting server info";
        match round_trip(self, op, &Frame::InfoRequest.encode()?, true)? {
            Frame::Info { info } => {
                *self.cached_info_mut() = info;
                Ok(info)
            }
            other => Err(unexpected(self, op, "Info", &other)),
        }
    }

    fn query_batch(&mut self, shares: &[QueryShare]) -> Result<TransportBatch, PirError> {
        let op = "querying batch";
        let request = wire::encode_query_batch(shares)?;
        let started = Instant::now();
        match round_trip(self, op, &request, true)? {
            Frame::ResponseBatch {
                epoch,
                wall_seconds,
                phases,
                responses,
            } => {
                if responses.len() != shares.len() {
                    return Err(protocol_error(format!(
                        "{op}: {} answered {} responses to {} shares",
                        self.server_label(),
                        responses.len(),
                        shares.len()
                    )));
                }
                self.cached_info_mut().epoch = epoch;
                let overhead = self.framing_overhead();
                Ok(TransportBatch {
                    epoch,
                    wall_seconds: started.elapsed().as_secs_f64(),
                    server_wall_seconds: wall_seconds,
                    phase_totals: phases,
                    upload_bytes: (request.len() + overhead) as u64,
                    download_bytes: (response_batch_frame_bytes(&responses) + overhead) as u64,
                    responses,
                })
            }
            other => Err(unexpected(self, op, "ResponseBatch", &other)),
        }
    }

    fn scan_selector(&mut self, selector: &SelectorVector) -> Result<ScanResult, PirError> {
        let op = "scanning selector";
        match round_trip(self, op, &wire::encode_selector_scan(selector)?, true)? {
            Frame::SelectorResult {
                epoch,
                payload,
                phases,
            } => {
                self.cached_info_mut().epoch = epoch;
                Ok(ScanResult {
                    payload,
                    epoch,
                    phases,
                })
            }
            other => Err(unexpected(self, op, "SelectorResult", &other)),
        }
    }

    fn apply_updates(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<UpdateOutcome, PirError> {
        let op = "applying updates";
        match round_trip(self, op, &wire::encode_update_batch(updates)?, false)? {
            Frame::UpdateAck { outcome } => {
                self.cached_info_mut().epoch = outcome.epoch;
                Ok(outcome)
            }
            other => Err(unexpected(self, op, "UpdateAck", &other)),
        }
    }

    fn epoch_info(&mut self) -> Result<EpochInfo, PirError> {
        let op = "requesting epoch info";
        match round_trip(self, op, &Frame::EpochInfoRequest.encode()?, true)? {
            Frame::EpochInfo { info } => {
                self.cached_info_mut().epoch = info.current_epoch;
                Ok(info)
            }
            other => Err(unexpected(self, op, "EpochInfo", &other)),
        }
    }

    fn replay_updates(&mut self, from_epoch: u64) -> Result<Vec<UpdateBatch>, PirError> {
        // The server bounds every reply frame, so a large retained lag
        // arrives as a *prefix* of the replay per request. Loop, advancing
        // the requested epoch by the batches received, until the server's
        // epoch at entry is reached or a reply comes back empty (caught
        // up). Pinning the target at entry bounds the loop — a concurrent
        // writer cannot extend it indefinitely; its tail batches are
        // picked up by the caller's next resync round.
        let op = "requesting update replay";
        let target = self.epoch_info()?.current_epoch;
        let mut next_epoch = from_epoch;
        let mut all: Vec<UpdateBatch> = Vec::new();
        loop {
            let request = Frame::UpdateReplayRequest {
                from_epoch: next_epoch,
            }
            .encode()?;
            let batches = match round_trip(self, op, &request, true)? {
                Frame::UpdateReplay { batches } => batches,
                // A typed outcome the caller resolves (fail-closed
                // resync), so it crosses the wire as its own frame.
                Frame::JournalTruncated {
                    from_epoch,
                    oldest_replayable,
                    current_epoch,
                } => {
                    return Err(PirError::JournalTruncated {
                        from_epoch,
                        oldest_replayable,
                        current_epoch,
                    });
                }
                other => return Err(unexpected(self, op, "UpdateReplay", &other)),
            };
            if batches.is_empty() {
                break;
            }
            next_epoch += batches.len() as u64;
            all.extend(batches);
            if next_epoch >= target {
                break;
            }
        }
        Ok(all)
    }
}

/// Resolves `addr` and connects to it. Returns the stream, every resolved
/// address (for redialing) and the label errors name the server by.
fn dial(addr: impl ToSocketAddrs) -> Result<(TcpStream, Vec<SocketAddr>, String), PirError> {
    let peer: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|err| protocol_error(format!("resolving server address: {err}")))?
        .collect();
    let Some(first) = peer.first() else {
        return Err(protocol_error(
            "server address resolved to no socket addresses",
        ));
    };
    let label = first.to_string();
    let stream = TcpStream::connect(&peer[..])
        .map_err(|err| protocol_error(format!("connecting to server {label}: {err}")))?;
    let _ = stream.set_nodelay(true);
    Ok((stream, peer, label))
}

/// The handshake check every connection shares: the server's info from a
/// `HelloAck` in this build's wire version, else an error naming the
/// server.
fn hello_ack(reply: Frame, peer: &str) -> Result<ServerInfo, PirError> {
    let server = format!("server {peer}");
    match server_reply(reply, || server.clone())? {
        Frame::HelloAck {
            version: WIRE_VERSION,
            info,
        } => Ok(info),
        Frame::HelloAck { version, .. } => Err(protocol_error(format!(
            "handshaking with {server}: it speaks wire version {version}, this client speaks \
             {WIRE_VERSION}"
        ))),
        other => Err(protocol_error(format!(
            "handshaking with {server}: expected a HelloAck frame, got {}",
            other.name()
        ))),
    }
}

// ---------------------------------------------------------------------------
// TCP transport.
// ---------------------------------------------------------------------------

/// How a [`TcpTransport`] behaves when an operation's connection fails:
/// how many attempts an **idempotent** operation gets, how the waits
/// between attempts grow, and how long any single socket read/write may
/// block.
///
/// Only idempotent operations (queries, scans, info, epoch info, replay)
/// are retried — re-running them cannot change server state. An update
/// batch is **never** blindly re-sent: once its request bytes may have
/// reached the server, a retry could apply the batch twice (bumping the
/// epoch twice and desynchronising replicas). A failed update surfaces to
/// the caller, where [`crate::scheme::TwoServerPir::apply_updates`]
/// resolves the ambiguity through epoch comparison instead of resending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts an idempotent operation gets (at least 1). The
    /// default of 1 means no retries — exactly the pre-policy behavior.
    pub max_attempts: u32,
    /// Wait before the first retry; doubles per retry up to
    /// [`RetryPolicy::max_backoff`].
    pub initial_backoff: Duration,
    /// Upper bound on the exponential backoff.
    pub max_backoff: Duration,
    /// Per-attempt bound on any single socket read or write. `None` —
    /// the default — waits indefinitely, which is right for trusted
    /// servers running arbitrarily large batches; set a timeout when a
    /// wedged server must surface as [`PirError::Protocol`] instead of
    /// blocking the client forever.
    pub io_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            io_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy for fault-tolerant deployments: a few quick retries with
    /// exponential backoff and a per-attempt I/O timeout.
    #[must_use]
    pub fn resilient() -> Self {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(250),
            io_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// How one low-level exchange failed: `Io` broke the connection (the
/// transport reconnects and, for idempotent requests, retries), `Fatal`
/// is a definitive failure (malformed reply, refused handshake) that no
/// retry can change.
enum Failure {
    Io(String),
    Fatal(PirError),
}

/// A [`PirTransport`] speaking the [`crate::wire`] format over a TCP
/// connection (connection-per-session: one `TcpTransport` is one server
/// session; drop it to close the session).
///
/// The transport owns a [`RetryPolicy`]: when the connection breaks it
/// reconnects and re-handshakes, and idempotent operations are retried
/// with exponential backoff. Every transport error names the peer and the
/// operation, so one replica's failure is attributable in a fleet's logs.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// Resolved peer addresses, kept for reconnection.
    peer: Vec<SocketAddr>,
    /// The peer as given by the caller, for error messages.
    peer_label: String,
    policy: RetryPolicy,
    /// Set when the connection is known dead (an I/O failure or a framing
    /// desync); the next operation reconnects before sending.
    broken: bool,
    info: ServerInfo,
}

impl TcpTransport {
    /// Connects to an `impir-server` at `addr` and performs the
    /// magic/version handshake, with the default (no-retry)
    /// [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] if the connection cannot be
    /// established, the peer does not speak the protocol, or the versions
    /// disagree.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, PirError> {
        Self::connect_with(addr, RetryPolicy::default())
    }

    /// [`TcpTransport::connect`] with an explicit [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// As for [`TcpTransport::connect`].
    pub fn connect_with(addr: impl ToSocketAddrs, policy: RetryPolicy) -> Result<Self, PirError> {
        let (stream, peer, peer_label) = dial(addr)?;
        let mut transport = TcpTransport {
            stream,
            peer,
            peer_label,
            policy,
            broken: false,
            info: ServerInfo {
                num_records: 0,
                record_size: 0,
                shard_count: 0,
                epoch: 0,
            },
        };
        transport.configure_stream()?;
        transport.handshake().map_err(|failure| match failure {
            Failure::Io(detail) => transport.error(&format!("handshaking: {detail}")),
            Failure::Fatal(err) => err,
        })?;
        Ok(transport)
    }

    /// The server info captured at the handshake (refreshed by
    /// [`PirTransport::server_info`]).
    #[must_use]
    pub fn cached_info(&self) -> ServerInfo {
        self.info
    }

    /// Applies the policy's socket options to the current stream.
    fn configure_stream(&mut self) -> Result<(), PirError> {
        let _ = self.stream.set_nodelay(true);
        self.stream
            .set_read_timeout(self.policy.io_timeout)
            .and_then(|()| self.stream.set_write_timeout(self.policy.io_timeout))
            .map_err(|err| self.error(&format!("setting socket timeouts: {err}")))
    }

    /// "server peer: detail" — every error this transport produces names
    /// the peer, so multi-replica failures are attributable.
    fn error(&self, detail: &str) -> PirError {
        protocol_error(format!("server {}: {detail}", self.peer_label))
    }

    /// Dials the peer again and re-handshakes, replacing the dead stream.
    fn reconnect(&mut self) -> Result<(), Failure> {
        let stream = TcpStream::connect(&self.peer[..])
            .map_err(|err| Failure::Io(format!("reconnecting: {err}")))?;
        self.stream = stream;
        self.configure_stream().map_err(Failure::Fatal)?;
        self.handshake()
    }

    /// The magic/version exchange on a fresh stream.
    fn handshake(&mut self) -> Result<(), Failure> {
        self.broken = false;
        let hello = Frame::Hello {
            version: WIRE_VERSION,
        }
        .encode()
        .map_err(Failure::Fatal)?;
        let reply = self.send_receive(&hello)?;
        match hello_ack(reply, &self.peer_label) {
            Ok(info) => {
                self.info = info;
                Ok(())
            }
            Err(err) => {
                self.broken = true;
                Err(Failure::Fatal(err))
            }
        }
    }

    /// One request/reply exchange on the current stream. Socket errors
    /// are retryable [`Failure::Io`]; a malformed reply is
    /// [`Failure::Fatal`]. Both mark the connection broken (after a
    /// malformed reply the stream is desynchronised), so the next
    /// operation reconnects.
    fn send_receive(&mut self, request: &[u8]) -> Result<Frame, Failure> {
        if let Err(err) = self
            .stream
            .write_all(request)
            .and_then(|()| self.stream.flush())
        {
            self.broken = true;
            return Err(Failure::Io(format!("writing request: {err}")));
        }
        let mut prefix = [0u8; 4];
        if let Err(err) = self.stream.read_exact(&mut prefix) {
            self.broken = true;
            return Err(Failure::Io(format!("reading reply length: {err}")));
        }
        let length = u32::from_le_bytes(prefix) as usize;
        if length == 0 || length > wire::MAX_FRAME_BYTES {
            self.broken = true;
            return Err(Failure::Fatal(self.error(&format!(
                "reply frame length {length} outside (0, {}]",
                wire::MAX_FRAME_BYTES
            ))));
        }
        let mut buf = vec![0u8; 4 + length];
        buf[..4].copy_from_slice(&prefix);
        if let Err(err) = self.stream.read_exact(&mut buf[4..]) {
            self.broken = true;
            return Err(Failure::Io(format!("reading reply body: {err}")));
        }
        Frame::decode(&buf).map_err(|err| {
            self.broken = true;
            Failure::Fatal(self.error(&format!("decoding reply: {err}")))
        })
    }
}

impl FrameChannel for TcpTransport {
    /// Runs one request under the retry policy: a broken connection is
    /// re-dialed first (always safe — nothing has been sent yet), I/O
    /// failures are retried with exponential backoff, and fatal failures
    /// surface at once. Once a **non-idempotent** request's bytes may
    /// have left this host any failure is final: the server may have
    /// applied the update although the ack was lost, and only the scheme
    /// layer can resolve that (by epoch comparison, see
    /// [`crate::scheme::TwoServerPir::apply_updates`]).
    fn exchange(&mut self, request: &[u8], idempotent: bool) -> Result<Frame, PirError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut backoff = self.policy.initial_backoff;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let mut sent = false;
            let result = if self.broken {
                self.reconnect()
            } else {
                Ok(())
            }
            .and_then(|()| {
                sent = true;
                self.send_receive(request)
            });
            match result {
                Ok(reply) => return Ok(reply),
                Err(Failure::Fatal(err)) => return Err(err),
                Err(Failure::Io(detail)) if attempt >= attempts || (sent && !idempotent) => {
                    return Err(self.error(&format!("{detail} (after {attempt} attempt(s))")));
                }
                Err(Failure::Io(_)) => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.policy.max_backoff);
                }
            }
        }
    }

    fn server_label(&self) -> String {
        format!("server {}", self.peer_label)
    }

    fn cached_info_mut(&mut self) -> &mut ServerInfo {
        &mut self.info
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Best-effort clean close; the server also handles abrupt
        // disconnects.
        if let Ok(encoded) = Frame::Goodbye.encode() {
            let _ = self.stream.write_all(&encoded);
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------
// Multiplexed TCP transport: many logical sessions, one connection.
// ---------------------------------------------------------------------------

/// What the reader thread does with one session's reply (or with the
/// connection's failure).
type OnReply = Box<dyn FnOnce(Result<Frame, PirError>) + Send>;

/// State shared between a [`MuxConnection`], its [`MuxSession`]s and the
/// background reader thread.
struct MuxShared {
    /// The write half (a `try_clone` of the reader's stream); one frame
    /// at a time goes out under this lock, so concurrent sessions never
    /// interleave bytes inside a frame.
    writer: Mutex<TcpStream>,
    /// One in-flight request per session id; the reader thread completes
    /// them as [`Frame::Mux`] replies arrive, in whatever order the
    /// server answers.
    pending: Mutex<HashMap<u32, OnReply>>,
    /// Set on any I/O failure or framing desync: the connection is dead
    /// and every subsequent request fails fast. A `MuxConnection` never
    /// reconnects itself — its owner (e.g. the router) replaces it, so
    /// sessions keep connection-per-session's explicit failure model.
    broken: AtomicBool,
    /// The peer as given by the caller, for error messages.
    peer_label: String,
    /// Total request bytes this connection has put on the wire.
    uploaded: AtomicU64,
    /// Total response bytes this connection has taken off the wire.
    downloaded: AtomicU64,
}

impl MuxShared {
    /// Marks the connection dead and fails every in-flight request with
    /// an error naming `reason`.
    fn fail(&self, reason: &str) {
        self.broken.store(true, Ordering::SeqCst);
        let failed: Vec<OnReply> = {
            let mut pending = self.pending.lock().expect("mux pending lock poisoned");
            pending.drain().map(|(_, on_reply)| on_reply).collect()
        };
        for on_reply in failed {
            on_reply(Err(protocol_error(format!(
                "multiplexed connection to server {} failed: {reason}",
                self.peer_label
            ))));
        }
    }
}

/// The reader half of a [`MuxConnection`]: blocks on the socket, routes
/// each [`Frame::Mux`] reply to the session that asked, and fails every
/// pending request when the connection dies (including the deliberate
/// shutdown `MuxConnection::drop` performs, which is what ends this
/// thread).
fn mux_reader_loop(mut stream: TcpStream, shared: &MuxShared) {
    loop {
        let (frame, taken) = match wire::read_frame(&mut stream) {
            Ok(read) => read,
            Err(err) => {
                shared.fail(&err.to_string());
                return;
            }
        };
        shared.downloaded.fetch_add(taken as u64, Ordering::Relaxed);
        match frame {
            Frame::Mux { session, frame } => {
                let on_reply = shared
                    .pending
                    .lock()
                    .expect("mux pending lock poisoned")
                    .remove(&session);
                match on_reply {
                    Some(on_reply) => on_reply(Ok(*frame)),
                    None => {
                        // A reply for a session nobody is waiting on
                        // means the two ends disagree about the stream
                        // state — fail closed rather than guess.
                        shared.fail(&format!("reply for unknown session {session}"));
                        return;
                    }
                }
            }
            other => {
                shared.fail(&format!(
                    "unmuxed {} frame on a multiplexed connection",
                    other.name()
                ));
                return;
            }
        }
    }
}

/// One multiplexed TCP connection to an `impir-server`, carrying many
/// logical sessions (see the [module docs](self)). Create sessions with
/// [`MuxConnection::session`]; drop the connection to close every
/// session at once.
pub struct MuxConnection {
    shared: Arc<MuxShared>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Session-id allocator. Id 0 is reserved for the connection's root
    /// session (plain unwrapped frames), so allocation starts at 1.
    next_session: AtomicU32,
    info: ServerInfo,
}

impl std::fmt::Debug for MuxConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxConnection")
            .field("peer", &self.shared.peer_label)
            .field("broken", &self.shared.broken.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl MuxConnection {
    /// Connects and performs the (connection-level, unwrapped)
    /// magic/version handshake, then starts the reader thread.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] if the connection cannot be
    /// established, the peer does not speak the protocol, or the
    /// versions disagree.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, PirError> {
        Self::connect_with(addr, None)
    }

    /// [`MuxConnection::connect`] with a bound on any single socket
    /// *write* (reads stay unbounded: the reader thread legitimately
    /// blocks until the server has something to say).
    ///
    /// # Errors
    ///
    /// As for [`MuxConnection::connect`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        write_timeout: Option<Duration>,
    ) -> Result<Self, PirError> {
        let (mut stream, _, peer_label) = dial(addr)?;
        // Connection-level handshake, before any multiplexing: plain
        // Hello out, plain HelloAck back.
        let hello = Frame::Hello {
            version: WIRE_VERSION,
        }
        .encode()?;
        stream
            .write_all(&hello)
            .and_then(|()| stream.flush())
            .map_err(|err| {
                protocol_error(format!("handshaking with server {peer_label}: {err}"))
            })?;
        let (reply, taken) = wire::read_frame(&mut stream)?;
        let info = hello_ack(reply, &peer_label)?;

        let writer = stream.try_clone().map_err(|err| {
            protocol_error(format!("cloning stream to server {peer_label}: {err}"))
        })?;
        writer.set_write_timeout(write_timeout).map_err(|err| {
            protocol_error(format!(
                "setting write timeout to server {peer_label}: {err}"
            ))
        })?;
        let shared = Arc::new(MuxShared {
            writer: Mutex::new(writer),
            pending: Mutex::new(HashMap::new()),
            broken: AtomicBool::new(false),
            peer_label,
            uploaded: AtomicU64::new(hello.len() as u64),
            downloaded: AtomicU64::new(taken as u64),
        });
        let reader_shared = shared.clone();
        let reader = std::thread::Builder::new()
            .name("impir-mux-reader".to_string())
            .spawn(move || mux_reader_loop(stream, &reader_shared))
            .map_err(|err| protocol_error(format!("spawning mux reader thread: {err}")))?;
        Ok(MuxConnection {
            shared,
            reader: Some(reader),
            next_session: AtomicU32::new(1),
            info,
        })
    }

    /// Opens a new logical session on this connection. Purely local: the
    /// server learns of the session when its first frame arrives, and
    /// the session closes when the [`MuxSession`] drops (a muxed
    /// Goodbye) or the connection does.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] when the connection is already
    /// known dead.
    pub fn session(&self) -> Result<MuxSession, PirError> {
        if self.is_broken() {
            return Err(protocol_error(format!(
                "multiplexed connection to server {} is broken",
                self.shared.peer_label
            )));
        }
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        Ok(MuxSession {
            shared: self.shared.clone(),
            session,
            info: self.info,
        })
    }

    /// Whether the connection is known dead (every further request on
    /// any of its sessions fails fast; the owner should replace it).
    #[must_use]
    pub fn is_broken(&self) -> bool {
        self.shared.broken.load(Ordering::SeqCst)
    }

    /// Total request bytes this connection has put on the wire, across
    /// all its sessions (handshake included).
    #[must_use]
    pub fn uploaded_bytes(&self) -> u64 {
        self.shared.uploaded.load(Ordering::Relaxed)
    }

    /// Total response bytes this connection has taken off the wire,
    /// across all its sessions (handshake included).
    #[must_use]
    pub fn downloaded_bytes(&self) -> u64 {
        self.shared.downloaded.load(Ordering::Relaxed)
    }
}

impl Drop for MuxConnection {
    fn drop(&mut self) {
        // Best-effort clean close of the root session, then a shutdown —
        // which is also what unblocks and ends the reader thread.
        if let Ok(mut writer) = self.shared.writer.lock() {
            if let Ok(encoded) = Frame::Goodbye.encode() {
                let _ = writer.write_all(&encoded);
            }
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        // A reply handler that held the last handle drops it on the
        // reader thread itself, which must not wait for its own end.
        if let Some(reader) = self.reader.take() {
            if reader.thread().id() != std::thread::current().id() {
                let _ = reader.join();
            }
        }
    }
}

/// One logical session on a [`MuxConnection`] — a [`FrameChannel`], and
/// so a full [`PirTransport`]: schemes and the router's per-client backend
/// legs hold a `MuxSession` exactly where they would hold a whole
/// [`TcpTransport`].
pub struct MuxSession {
    shared: Arc<MuxShared>,
    session: u32,
    info: ServerInfo,
}

impl std::fmt::Debug for MuxSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxSession")
            .field("peer", &self.shared.peer_label)
            .field("session", &self.session)
            .finish_non_exhaustive()
    }
}

impl MuxSession {
    fn error(&self, detail: &str) -> PirError {
        protocol_error(format!("{}: {detail}", self.server_label()))
    }

    /// Sends one encoded plain request frame on this session without
    /// waiting for the reply. `on_reply` runs exactly once: on the
    /// connection's reader thread with the reply frame, or with the
    /// failure that prevented one (on this thread, if the request never
    /// left). One request per session may be in flight at a time.
    pub fn send(
        &self,
        request: &[u8],
        on_reply: impl FnOnce(Result<Frame, PirError>) + Send + 'static,
    ) {
        let encoded = match wire::encode_mux(self.session, request) {
            Ok(encoded) => encoded,
            Err(err) => return on_reply(Err(err)),
        };
        {
            // Checked under the pending lock: a failure that lands after
            // this check finds the request pending and fails it.
            let mut pending = self
                .shared
                .pending
                .lock()
                .expect("mux pending lock poisoned");
            if self.shared.broken.load(Ordering::SeqCst) {
                drop(pending);
                return on_reply(Err(self.error("connection is broken")));
            }
            pending.insert(self.session, Box::new(on_reply));
        }
        let mut writer = self.shared.writer.lock().expect("mux writer lock poisoned");
        match writer.write_all(&encoded).and_then(|()| writer.flush()) {
            Ok(()) => {
                self.shared
                    .uploaded
                    .fetch_add(encoded.len() as u64, Ordering::Relaxed);
            }
            // Failing the connection hands every pending request —
            // this one included — its failure.
            Err(err) => {
                drop(writer);
                self.shared.fail(&format!("writing request: {err}"));
            }
        }
    }
}

impl FrameChannel for MuxSession {
    /// One muxed round trip: the request goes out behind a mux header
    /// and the reader thread hands back the reply. Unlike [`TcpTransport`]
    /// there are no retries here: a mux connection is shared, so recovery
    /// (a replacement connection) belongs to its owner.
    fn exchange(&mut self, request: &[u8], _idempotent: bool) -> Result<Frame, PirError> {
        let (tx, rx) = mpsc::channel();
        self.send(request, move |reply| {
            // A caller that gave up has dropped the receiver; the reply
            // is simply discarded.
            let _ = tx.send(reply);
        });
        rx.recv()
            .unwrap_or_else(|_| Err(self.error("connection closed before the reply arrived")))
    }

    fn server_label(&self) -> String {
        format!(
            "server {} (session {})",
            self.shared.peer_label, self.session
        )
    }

    fn cached_info_mut(&mut self) -> &mut ServerInfo {
        &mut self.info
    }

    fn framing_overhead(&self) -> usize {
        wire::MUX_OVERHEAD_BYTES
    }
}

impl Drop for MuxSession {
    fn drop(&mut self) {
        // Best-effort muxed Goodbye so the server can retire this
        // logical session without waiting for the whole connection.
        if self.shared.broken.load(Ordering::SeqCst) {
            return;
        }
        let goodbye = Frame::Mux {
            session: self.session,
            frame: Box::new(Frame::Goodbye),
        };
        if let Ok(encoded) = goodbye.encode() {
            if let Ok(mut writer) = self.shared.writer.lock() {
                let _ = writer.write_all(&encoded);
                let _ = writer.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::engine::EngineConfig;
    use crate::server::cpu::{CpuPirServer, CpuServerConfig};
    use crate::shard::ShardedDatabase;
    use crate::PirClient;
    use std::sync::Arc;

    fn local(db: &Arc<Database>, shards: usize) -> LocalTransport<CpuPirServer> {
        let sharded = ShardedDatabase::uniform(db.clone(), shards).unwrap();
        let engine = QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
            CpuPirServer::new(shard_db, CpuServerConfig::baseline())
        })
        .unwrap();
        LocalTransport::new(engine)
    }

    #[test]
    fn local_transport_reports_engine_info_and_wire_costs() {
        let db = Arc::new(Database::random(200, 16, 3).unwrap());
        let mut transport = local(&db, 2);
        let info = transport.server_info().unwrap();
        assert_eq!(info.num_records, 200);
        assert_eq!(info.record_size, 16);
        assert_eq!(info.shard_count, 2);
        assert_eq!(info.epoch, 0);

        let mut client = PirClient::new(200, 16, 1).unwrap();
        let (shares, _) = client.generate_batch(&[5, 150, 99]).unwrap();
        let batch = transport.query_batch(&shares).unwrap();
        assert_eq!(batch.responses.len(), 3);
        assert_eq!(batch.upload_bytes, query_batch_frame_bytes(&shares) as u64);
        assert_eq!(
            batch.download_bytes,
            response_batch_frame_bytes(&batch.responses) as u64
        );
        assert_eq!(batch.epoch, 0);

        let outcome = transport.apply_updates(&[(5, vec![0xEE; 16])]).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(transport.server_info().unwrap().epoch, 1);
    }

    #[test]
    fn local_transport_scan_matches_database() {
        let db = Arc::new(Database::random(96, 8, 5).unwrap());
        let mut transport = local(&db, 3);
        let selector: SelectorVector = (0..96).map(|i| i % 7 == 0).collect();
        let scan = transport.scan_selector(&selector).unwrap();
        assert_eq!(scan.payload, db.xor_select(&selector));
        assert_eq!(scan.epoch, 0);
    }

    #[test]
    fn tcp_connect_to_nothing_is_a_protocol_error() {
        // Port 1 on localhost is essentially never listening.
        let result = TcpTransport::connect("127.0.0.1:1");
        assert!(matches!(result, Err(PirError::Protocol { .. })));
    }
}
