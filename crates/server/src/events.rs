//! The event-driven session tier: every client connection served by one
//! non-blocking readiness loop (`session-tier = events`).
//!
//! The threaded tier spends one OS thread per TCP connection; at a few
//! thousand concurrent sessions the stacks, context switches and
//! wake-storms dominate the cost of actually answering queries. This tier
//! replaces the accept-loop-plus-session-threads arrangement with a
//! single loop over non-blocking `std::net` sockets:
//!
//! * each connection carries a **read buffer** and a **write buffer**, so
//!   length-prefixed [`Frame`]s survive partial reads and partial writes;
//! * every parsed frame is classified by the same function the threaded
//!   tier uses (request, `Goodbye` or violation, per logical session);
//!   request frames go to the same dispatcher thread the threaded tier
//!   feeds — wave coalescing and the engine's bounded admission queue
//!   stay the batching brain — but with `try_send` instead of a blocking
//!   send: a
//!   full dispatcher queue makes the loop **shed load** with a typed
//!   [`Frame::Overloaded`] refusal and pause reading that connection
//!   until the queue drains, so overload never buffers requests without
//!   bound;
//! * reply frames are polled without blocking and written back as the
//!   sockets accept bytes, wrapped for the logical session that sent the
//!   request ([`Frame::Mux`]); a connection whose write buffer backs up
//!   stops being read until it drains.
//!
//! The dispatcher builds every reply frame for both tiers, so the two
//! tiers answer **byte-identically** — pinned by the networked
//! equivalence suite. Thread count is constant: the event loop plus the
//! dispatcher, no matter how many sessions connect.
//!
//! Hostile input follows the wire module's rules: a bad session id, an
//! oversized or truncated frame, or garbage bytes produce a protocol
//! error frame and a closed connection — never a panic, never an
//! allocation sized by an unvalidated length.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use impir_core::wire::{Frame, MAX_FRAME_BYTES};
use impir_core::PirError;

use crate::{
    dispatcher_gone_frame, error_frame, handshake_refusal, inbound, protocol, wrap, Inbound,
    Request, ServiceConfig,
};

/// How long the loop sleeps when a full pass over every socket made no
/// progress — short enough that latency stays sub-millisecond, long
/// enough that an idle server does not spin a core.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Bytes read from one socket per readiness pass.
const READ_CHUNK_BYTES: usize = 64 << 10;

/// Parsed-but-undispatched requests held per connection. Beyond this the
/// connection stops being read: admission control happens at the
/// dispatcher queue, not in per-connection buffers.
const PENDING_PER_CONN: usize = 8;

/// A connection whose unwritten reply bytes exceed this stops being read
/// until the peer drains its socket — a client that never reads its
/// replies cannot grow the server's write buffer without bound.
const WRITE_BUF_PAUSE_BYTES: usize = 1 << 20;

/// The backoff hint carried by [`Frame::Overloaded`] refusals.
pub(crate) const OVERLOAD_RETRY_MS: u64 = 25;

/// One client connection's state between readiness passes.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into frames (partial frames live
    /// here between passes).
    read_buf: Vec<u8>,
    /// Encoded reply bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    handshaken: bool,
    /// Multiplexed session ids already counted against the budget.
    mux_sessions: HashSet<u32>,
    /// Classified frames awaiting dispatch, by logical session (`None` =
    /// the root session).
    queued: VecDeque<(Option<u32>, Inbound)>,
    /// At most one in-flight dispatcher request per logical session, so
    /// each session's replies keep request order: the reply frame the
    /// dispatcher owes it, polled without blocking.
    inflight: HashMap<Option<u32>, Receiver<Frame>>,
    /// Reading paused because the dispatcher queue was full.
    shed: bool,
    /// No more reads; reap once queued/inflight/writes drain.
    closing: bool,
    /// Unrecoverable socket failure; reap immediately.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            handshaken: false,
            mux_sessions: HashSet::new(),
            queued: VecDeque::new(),
            inflight: HashMap::new(),
            shed: false,
            closing: false,
            dead: false,
        }
    }

    fn unwritten(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn reapable(&self) -> bool {
        self.dead
            || (self.closing
                && self.queued.is_empty()
                && self.inflight.is_empty()
                && self.unwritten() == 0)
    }
}

fn would_block(err: &std::io::Error) -> bool {
    err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut
}

/// Runs the event tier until shutdown (or, with a session budget, until
/// the budget is spent and every connection has drained — the same
/// natural end the threaded accept loop has, which is what
/// [`crate::PirService::join`] waits for).
pub(crate) fn event_loop(
    listener: &TcpListener,
    requests: &Sender<Request>,
    shutdown: &AtomicBool,
    config: ServiceConfig,
) {
    // Logical sessions opened: root sessions at handshake plus distinct
    // multiplexed ids — the same counter semantics as the threaded tier.
    let opened = AtomicUsize::new(0);
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK_BYTES];
    while !shutdown.load(Ordering::SeqCst) {
        let mut progressed = false;
        let budget_spent = config
            .max_sessions
            .is_some_and(|limit| opened.load(Ordering::SeqCst) >= limit);
        if budget_spent {
            if conns.is_empty() {
                return;
            }
        } else {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        conns.push(Conn::new(stream));
                        progressed = true;
                    }
                    Err(err) if would_block(&err) => break,
                    Err(err) if err.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
        }
        for conn in &mut conns {
            tick_conn(
                conn,
                requests,
                &opened,
                &config,
                &mut scratch,
                &mut progressed,
            );
        }
        conns.retain(|conn| !conn.reapable());
        if !progressed {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// One readiness pass over one connection: collect ready replies,
/// dispatch queued requests, read and parse new frames, flush writes.
fn tick_conn(
    conn: &mut Conn,
    requests: &Sender<Request>,
    opened: &AtomicUsize,
    config: &ServiceConfig,
    scratch: &mut [u8],
    progressed: &mut bool,
) {
    if conn.dead {
        return;
    }

    // Replies the dispatcher has finished since the last pass.
    let mut ready = Vec::new();
    for (&session, pending) in &conn.inflight {
        if let Some(frame) = poll(pending) {
            ready.push((session, frame));
        }
    }
    for (session, frame) in ready {
        conn.inflight.remove(&session);
        enqueue_reply(conn, session, frame);
        *progressed = true;
    }

    // Shed connections resume reading once the dispatcher has room again.
    if conn.shed && !requests.is_full() {
        conn.shed = false;
    }

    // Complete frames may be sitting in the read buffer from a pass where
    // the pending queue was full — parse them before touching the socket,
    // or they would stall until the peer sends more bytes.
    parse_frames(conn, opened, config);

    // Dispatch queued requests whose session has nothing in flight (one
    // in-flight request per logical session keeps replies in request
    // order).
    let mut index = 0;
    while index < conn.queued.len() {
        let session = conn.queued[index].0;
        if conn.inflight.contains_key(&session) {
            index += 1;
            continue;
        }
        let (session, inbound) = conn.queued.remove(index).expect("index is in bounds");
        *progressed = true;
        match inbound {
            Inbound::Request(request) => match forward(requests, request) {
                Some(pending) => {
                    conn.inflight.insert(session, pending);
                }
                None => {
                    // Typed admission control: a shed request is refused
                    // before execution, the client backs off and retries,
                    // and this connection stops being read until the
                    // queue drains.
                    let shed = Frame::Overloaded {
                        retry_after_ms: OVERLOAD_RETRY_MS,
                    };
                    enqueue_reply(conn, session, shed);
                    conn.shed = true;
                }
            },
            Inbound::Refusal(reply) => enqueue_reply(conn, session, reply),
            Inbound::Violation(reply) => {
                enqueue_reply(conn, session, reply);
                conn.queued.clear();
                conn.closing = true;
                break;
            }
            // A root Goodbye closes the whole connection; a muxed one
            // closes only its logical session.
            Inbound::Goodbye if session.is_none() => {
                conn.queued.clear();
                conn.closing = true;
                break;
            }
            Inbound::Goodbye => {}
        }
    }

    // Read — unless this connection is closing, shed, or backed up.
    if !conn.closing
        && !conn.shed
        && conn.unwritten() < WRITE_BUF_PAUSE_BYTES
        && conn.queued.len() < PENDING_PER_CONN
    {
        match conn.stream.read(scratch) {
            Ok(0) => conn.closing = true,
            Ok(read) => {
                conn.read_buf.extend_from_slice(&scratch[..read]);
                parse_frames(conn, opened, config);
                *progressed = true;
            }
            Err(err) if would_block(&err) || err.kind() == ErrorKind::Interrupted => {}
            Err(_) => conn.dead = true,
        }
    }

    flush_writes(conn, progressed);
}

/// Writes as much of the pending reply bytes as the socket accepts.
fn flush_writes(conn: &mut Conn, progressed: &mut bool) {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(written) => {
                conn.write_pos += written;
                *progressed = true;
            }
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err) if would_block(&err) => return,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.write_pos > 0 {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
}

/// Parses every complete frame sitting in the read buffer, up to the
/// per-connection pending cap. Framing violations follow the wire rules:
/// an error frame, then the connection closes.
fn parse_frames(conn: &mut Conn, opened: &AtomicUsize, config: &ServiceConfig) {
    while !conn.closing && conn.queued.len() < PENDING_PER_CONN {
        if conn.read_buf.len() < 4 {
            return;
        }
        let length =
            u32::from_le_bytes(conn.read_buf[..4].try_into().expect("4 bytes checked")) as usize;
        if length == 0 || length > MAX_FRAME_BYTES {
            // Same wording as the threaded tier's framing check.
            fail_conn(
                conn,
                &protocol(&format!(
                    "frame of {length} bytes is outside the accepted range"
                )),
            );
            return;
        }
        if conn.read_buf.len() < 4 + length {
            return; // partial frame; wait for more bytes
        }
        match Frame::decode(&conn.read_buf[..4 + length]) {
            Ok(frame) => {
                conn.read_buf.drain(..4 + length);
                handle_parsed(conn, frame, opened, config);
            }
            Err(err) => fail_conn(conn, &err),
        }
    }
}

/// Gates the handshake, then classifies each frame for its logical
/// session and queues it for dispatch — the shared rules of
/// [`handshake_refusal`] and [`inbound`].
fn handle_parsed(conn: &mut Conn, frame: Frame, opened: &AtomicUsize, config: &ServiceConfig) {
    if conn.handshaken {
        let classified = inbound(frame, &mut conn.mux_sessions, opened, config.max_sessions);
        conn.queued.push_back(classified);
        return;
    }
    if let Some(refusal) = handshake_refusal(&frame) {
        enqueue_reply(conn, None, refusal);
        conn.closing = true;
        return;
    }
    conn.handshaken = true;
    // Root sessions count at handshake, exactly like the threaded tier
    // (documented overshoot tolerance).
    opened.fetch_add(1, Ordering::SeqCst);
    conn.queued.push_back((None, Inbound::Request(frame)));
}

/// Reports a connection-level framing violation and starts closing.
fn fail_conn(conn: &mut Conn, err: &PirError) {
    enqueue_reply(conn, None, error_frame(err));
    conn.queued.clear();
    conn.closing = true;
}

/// Encodes a reply (muxed for its logical session) onto the write buffer.
fn enqueue_reply(conn: &mut Conn, session: Option<u32>, reply: Frame) {
    match wrap(session, reply).encode() {
        Ok(bytes) => conn.write_buf.extend_from_slice(&bytes),
        // The encoder refused the reply (it would exceed the frame size
        // bound) — nothing valid can be sent on this framing anymore.
        Err(_) => conn.dead = true,
    }
}

/// Forwards one request to the dispatcher without blocking: the reply to
/// poll for, or `None` when the admission queue is full and the request
/// is shed. A gone dispatcher drops the request with its reply sender, so
/// the pending reply polls as the dispatcher-gone error.
fn forward(requests: &Sender<Request>, request: Frame) -> Option<Receiver<Frame>> {
    let (reply, pending) = bounded(1);
    match requests.try_send((request, reply)) {
        Err(TrySendError::Full(_)) => None,
        Ok(()) | Err(TrySendError::Disconnected(_)) => Some(pending),
    }
}

/// The reply frame, once the dispatcher has answered. A disconnected
/// reply channel (the dispatcher is gone) yields the same error frame
/// the threaded tier sends.
fn poll(pending: &Receiver<Frame>) -> Option<Frame> {
    match pending.try_recv() {
        Ok(frame) => Some(frame),
        Err(TryRecvError::Empty) => None,
        Err(TryRecvError::Disconnected) => Some(dispatcher_gone_frame()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded as bounded_channel;
    use impir_core::wire::WIRE_VERSION;

    /// The shed path, pinned deterministically: a full dispatcher queue
    /// sheds a forward without consuming the queued request,
    /// and room in the queue turns the next forward back into a pending
    /// reply — recovery needs no reconnect.
    #[test]
    fn full_admission_queue_sheds_and_recovers() {
        let (requests, request_rx) = bounded_channel::<Request>(1);
        // Fill the only admission slot; the dispatcher is "busy" (nobody
        // drains the receiver yet).
        let (reply, _keep) = bounded_channel(1);
        requests.try_send((Frame::EpochInfoRequest, reply)).unwrap();
        assert!(forward(&requests, Frame::InfoRequest).is_none());
        // The queue drains: the same connection's next request forwards.
        let _ = request_rx.try_recv().unwrap();
        assert!(forward(&requests, Frame::InfoRequest).is_some());
        // A dead dispatcher is a different, non-retryable answer.
        drop(request_rx);
        let gone = forward(&requests, Frame::InfoRequest).expect("not shed");
        assert!(matches!(poll(&gone), Some(Frame::Error { .. })));
    }

    #[test]
    fn goodbye_and_server_only_frames_classify_correctly() {
        let opened = AtomicUsize::new(0);
        let mut mux_sessions = HashSet::new();
        let mut classify = |frame| inbound(frame, &mut mux_sessions, &opened, None);
        assert!(matches!(classify(Frame::Goodbye), (None, Inbound::Goodbye)));
        // A reply-direction frame from a client is a protocol violation,
        // and so is a second Hello after the handshake.
        assert!(matches!(
            classify(Frame::Overloaded {
                retry_after_ms: OVERLOAD_RETRY_MS
            }),
            (None, Inbound::Violation(Frame::Error { .. }))
        ));
        assert!(matches!(
            classify(Frame::Hello {
                version: WIRE_VERSION
            }),
            (None, Inbound::Violation(Frame::Error { .. }))
        ));
    }
}
