//! The session tier: every client connection of a replica or a router,
//! served by one `poll(2)` event loop on one thread.
//!
//! The loop blocks in `poll` over the listener, every connection and the
//! read end of a wake pair (a `UnixStream::pair`), so an idle server makes
//! no wake-ups at all:
//!
//! * each connection carries a **read buffer** and a **write buffer**, so
//!   length-prefixed [`Frame`]s survive partial reads and partial writes;
//! * every parsed frame goes through the shared handshake gate and frame
//!   classification (request, `Goodbye` or violation, per logical
//!   session), and each request frame goes to the loop's [`Hook`] without
//!   blocking: the dispatcher's queue on a replica, the router's worker
//!   pool on a router. A full queue makes the loop **shed load** with a
//!   typed [`Frame::Overloaded`] refusal and pause reading that connection
//!   until the queue has room again, so overload never buffers requests
//!   without bound;
//! * whoever answers sends the reply frame through the request's
//!   [`Reply`], which writes a byte to the wake pair ([`Waker`]). The loop
//!   collects the replies, wraps each for the logical session that sent
//!   the request ([`Frame::Mux`]) and writes them back as the sockets
//!   accept bytes; a connection whose write buffer backs up stops being
//!   read until it drains. The dispatcher wakes the loop once per wave,
//!   which is also when shed connections resume: the wave pulled requests
//!   off the queue. A [`Reply`] dropped unanswered — its answerer panicked
//!   or is gone — wakes the loop too, and the client gets an error frame;
//! * shutdown stops accepting and reading, then keeps serving until every
//!   reply already owed has been written (at most [`SHUTDOWN_DRAIN`]), so
//!   an update in flight at shutdown still reaches its client as an ack.
//!
//! Thread count is constant: the loop plus the dispatcher (or the router's
//! fixed worker pool), no matter how many sessions connect.
//!
//! Hostile input follows the wire module's rules: a bad session id, an
//! oversized or truncated frame, or garbage bytes produce a protocol
//! error frame and a closed connection — never a panic, never an
//! allocation sized by an unvalidated length. A failed `accept` ends the
//! loop only when the listener itself failed (see [`after_accept_error`]).

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use impir_core::wire::{Frame, MAX_FRAME_BYTES, WIRE_VERSION};
use impir_core::PirError;

use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::{error_frame, protocol, spawn_named, EVENT_LOOP_THREAD};

/// Bytes read from one socket per readiness event.
const READ_CHUNK_BYTES: usize = 64 << 10;

/// Parsed-but-undispatched requests held per connection. Beyond this the
/// connection stops being read: admission control happens at the hook's
/// queue, not in per-connection buffers.
const PENDING_PER_CONN: usize = 8;

/// A connection whose unwritten reply bytes exceed this stops being read
/// until the peer drains its socket — a client that never reads its
/// replies cannot grow the server's write buffer without bound.
const WRITE_BUF_PAUSE_BYTES: usize = 1 << 20;

/// How long the listener stays out of the poll set after `accept` ran out
/// of descriptors or memory, when no connection is reaped sooner.
const ACCEPT_RETRY_MS: i32 = 100;

/// The backoff hint carried by [`Frame::Overloaded`] refusals.
pub(crate) const OVERLOAD_RETRY_MS: u64 = 25;

/// How long a stopping loop keeps writing the replies it still owes
/// before it closes every connection anyway (a client that never reads
/// cannot hold shutdown up).
pub(crate) const SHUTDOWN_DRAIN: Duration = Duration::from_secs(2);

/// The write end of an event loop's wake pair: one byte makes the loop's
/// `poll` return. Clones share one socket.
#[derive(Debug, Clone)]
pub(crate) struct Waker(Arc<UnixStream>);

impl Waker {
    /// Wakes the loop. Never blocks: when the socket buffer is full, a
    /// wake-up is already pending.
    pub(crate) fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

/// Where one request's reply frame goes. Sending the reply, or dropping
/// the `Reply` unanswered (its answerer panicked, or its queue is gone),
/// wakes the loop, so a client never waits on an answer that cannot come.
pub(crate) struct Reply {
    /// `None` once the reply is sent.
    frame: Option<Sender<Frame>>,
    waker: Waker,
    /// Whether dropping this wakes the loop.
    wake: bool,
}

impl Reply {
    /// Sends the reply frame and wakes the loop.
    pub(crate) fn send(mut self, frame: Frame) {
        self.deliver(frame);
    }

    /// Sends the reply frame without waking the loop: the caller wakes it
    /// once for a whole wave of replies.
    pub(crate) fn send_unwoken(mut self, frame: Frame) {
        self.wake = false;
        self.deliver(frame);
    }

    fn deliver(&mut self, frame: Frame) {
        if let Some(sender) = self.frame.take() {
            let _ = sender.send(frame);
        }
    }

    /// Drops a request the loop itself refuses (a shed): the loop is
    /// awake already.
    fn discard(mut self) {
        self.wake = false;
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        // The channel closes before the wake-up, so a woken loop finds
        // either the reply or the closed channel, never an empty one.
        drop(self.frame.take());
        if self.wake {
            self.waker.wake();
        }
    }
}

/// A running event loop on its own thread, named [`EVENT_LOOP_THREAD`].
#[derive(Debug)]
pub(crate) struct EventLoop {
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

impl EventLoop {
    /// Binds `addr` and serves it with the hook `start` builds; `start`
    /// gets the [`Waker`] the hook's answerers signal. Returns the loop
    /// and the address it listens on.
    pub(crate) fn spawn<H: Hook + Send + 'static>(
        addr: impl ToSocketAddrs,
        max_sessions: Option<usize>,
        start: impl FnOnce(&Waker) -> Result<H, PirError>,
    ) -> Result<(Self, SocketAddr), PirError> {
        let bound = TcpListener::bind(addr).and_then(|listener| {
            // Non-blocking, so the loop accepts until the backlog is empty.
            listener.set_nonblocking(true)?;
            let (wake, waker) = UnixStream::pair()?;
            wake.set_nonblocking(true)?;
            waker.set_nonblocking(true)?;
            Ok((
                listener.local_addr()?,
                listener,
                wake,
                Waker(Arc::new(waker)),
            ))
        });
        let (addr, listener, wake, waker) =
            bound.map_err(|err| protocol(&format!("binding listener: {err}")))?;
        let hook = start(&waker)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (flag, replies) = (Arc::clone(&shutdown), waker.clone());
        let thread = spawn_named(EVENT_LOOP_THREAD, move || {
            event_loop(&listener, (&wake, &replies), &hook, &flag, max_sessions);
        })?;
        let events = EventLoop {
            shutdown,
            waker,
            thread: Some(thread),
        };
        Ok((events, addr))
    }

    /// Waits for the loop to end on its own (a spent session budget).
    pub(crate) fn join(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Wakes the loop to stop, and waits for it: it accepts and reads no
    /// more, writes the replies it still owes (for at most
    /// [`SHUTDOWN_DRAIN`]) and closes every connection.
    pub(crate) fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.join();
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One request on its way to whoever answers it: the request frame and
/// where its reply frame goes.
pub(crate) type Request = (Frame, Reply);

/// Where a connection's request frames go: the dispatcher on a replica,
/// the router's worker pool on a router. Whoever answers a request sends
/// its reply frame through the request's [`Reply`].
pub(crate) trait Hook {
    /// What the hook keeps per connection (a router's pinned replica leg).
    type Conn;
    /// Whether a connection hands the hook one request at a time, across
    /// all of its logical sessions (otherwise: one per logical session).
    const SERIAL_PER_CONN: bool = false;
    /// The state of a newly accepted connection.
    fn open(&self) -> Self::Conn;
    /// Hands `request` on without blocking, or gives its [`Reply`] back
    /// when the queue is full and the loop must shed it.
    fn forward(&self, conn: &Self::Conn, request: Request) -> Result<(), Reply>;
    /// Whether the queue is full.
    fn is_full(&self) -> bool;
}

/// A replica's hook: the dispatcher's bounded admission queue.
impl Hook for Sender<Request> {
    type Conn = ();

    fn open(&self) {}

    fn forward(&self, (): &(), request: Request) -> Result<(), Reply> {
        match self.try_send(request) {
            Err(TrySendError::Full((_, reply))) => Err(reply),
            // A gone dispatcher drops the request: its `Reply` wakes the
            // loop, and the pending reply polls as the answerer-gone error.
            Ok(()) | Err(TrySendError::Disconnected(_)) => Ok(()),
        }
    }

    fn is_full(&self) -> bool {
        Sender::is_full(self)
    }
}

/// One client connection's state between readiness events.
struct Conn<C> {
    stream: TcpStream,
    hook: C,
    /// Bytes read but not yet parsed into frames (partial frames live
    /// here between events).
    read_buf: Vec<u8>,
    /// Encoded reply bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    handshaken: bool,
    /// The opening `Hello` is with the hook: nothing else is dispatched
    /// until its reply decides whether the connection stays open.
    awaiting_ack: bool,
    /// Multiplexed session ids already counted against the budget.
    mux_sessions: HashSet<u32>,
    /// Classified frames awaiting dispatch, by logical session (`None` =
    /// the root session).
    queued: VecDeque<(Option<u32>, Inbound)>,
    /// At most one in-flight request per logical session, so each
    /// session's replies keep request order: the reply frame it is owed,
    /// polled without blocking.
    inflight: HashMap<Option<u32>, Receiver<Frame>>,
    /// Reading paused because the hook's queue was full.
    shed: bool,
    /// No more reads; reap once queued/inflight/writes drain.
    closing: bool,
    /// Unrecoverable socket failure; reap immediately.
    dead: bool,
}

impl<C> Conn<C> {
    fn new(stream: TcpStream, hook: C) -> Self {
        Conn {
            stream,
            hook,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            handshaken: false,
            awaiting_ack: false,
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

    fn wants_read(&self) -> bool {
        !self.closing
            && !self.dead
            && !self.shed
            && self.unwritten() < WRITE_BUF_PAUSE_BYTES
            && self.queued.len() < PENDING_PER_CONN
    }

    /// What this connection waits for in the next `poll`.
    fn interest(&self) -> PollFd {
        let mut events = 0;
        if self.wants_read() {
            events |= POLLIN;
        }
        if self.unwritten() > 0 {
            events |= POLLOUT;
        }
        PollFd::new(self.stream.as_raw_fd(), events)
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
    matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

/// Serves `listener` until shutdown (or, with a session budget, until the
/// budget is spent and every connection has drained — the natural end
/// [`crate::PirService::join`] waits for). `wake` is the read end of the
/// pair whose [`Waker`] the answerers and the shutdown path hold, and
/// `waker` its write end, which every [`Reply`] the loop hands out carries.
fn event_loop<H: Hook>(
    listener: &TcpListener,
    (wake, waker): (&UnixStream, &Waker),
    hook: &H,
    shutdown: &AtomicBool,
    max_sessions: Option<usize>,
) {
    let mut budget = Budget {
        opened: 0,
        limit: max_sessions,
    };
    let mut conns: Vec<Conn<H::Conn>> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK_BYTES];
    let mut accept_paused = false;
    // Set once shutdown is asked for: the moment the loop stops draining.
    let mut deadline: Option<Instant> = None;
    loop {
        if deadline.is_none() && shutdown.load(Ordering::SeqCst) {
            deadline = Some(Instant::now() + SHUTDOWN_DRAIN);
            // Requests not yet handed on are dropped unanswered; the ones
            // in flight still get their replies written.
            for conn in &mut conns {
                conn.queued.clear();
                conn.closing = true;
            }
        }
        let budget_spent = budget.limit.is_some_and(|limit| budget.opened >= limit);
        if (budget_spent || deadline.is_some()) && conns.is_empty() {
            return;
        }
        let timeout = match deadline {
            Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                Some(left) => i32::try_from(left.as_millis() + 1).unwrap_or(i32::MAX),
                None => return,
            },
            None if accept_paused => ACCEPT_RETRY_MS,
            None => -1,
        };
        let listen = if budget_spent || accept_paused || deadline.is_some() {
            0
        } else {
            POLLIN
        };
        fds.clear();
        fds.push(PollFd::new(wake.as_raw_fd(), POLLIN));
        fds.push(PollFd::new(listener.as_raw_fd(), listen));
        fds.extend(conns.iter().map(Conn::interest));
        match poll::wait(&mut fds, timeout) {
            Ok(0) => accept_paused = false,
            Ok(_) => {}
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        if fds[0].ready() {
            drain(wake);
        }
        for (conn, fd) in conns.iter_mut().zip(&fds[2..]) {
            if fd.ready() || !conn.inflight.is_empty() || conn.shed {
                let io = (fd.readable(), waker);
                tick(conn, io, hook, &mut budget, &mut scratch);
            }
        }
        let live = conns.len();
        conns.retain(|conn| !conn.reapable());
        accept_paused &= conns.len() == live;
        if fds[1].ready() && !accept_pending(listener, hook, &mut conns, &mut accept_paused) {
            return;
        }
    }
}

/// Empties the wake pair's read end; the wake-ups it carried have done
/// their job once `poll` returned.
fn drain(mut wake: &UnixStream) {
    let mut sink = [0u8; 64];
    while matches!(wake.read(&mut sink), Ok(read) if read > 0) {}
}

/// Accepts every pending connection. `false` when the listener itself
/// failed and the loop must end.
fn accept_pending<H: Hook>(
    listener: &TcpListener,
    hook: &H,
    conns: &mut Vec<Conn<H::Conn>>,
    paused: &mut bool,
) -> bool {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_ok() {
                    let _ = stream.set_nodelay(true);
                    conns.push(Conn::new(stream, hook.open()));
                }
            }
            Err(err) => match after_accept_error(&err) {
                AcceptFailure::Drained => return true,
                AcceptFailure::Skip => {}
                AcceptFailure::Pause => {
                    *paused = true;
                    return true;
                }
                AcceptFailure::Fatal => return false,
            },
        }
    }
}

/// What the loop does after `accept(2)` fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptFailure {
    /// No connection is pending any more.
    Drained,
    /// The failure belonged to one pending connection (or was a signal):
    /// accept the next one.
    Skip,
    /// Out of descriptors or memory: leave the listener out of `poll`
    /// until a connection is reaped or [`ACCEPT_RETRY_MS`] pass —
    /// level-triggered `poll` would otherwise spin on it.
    Pause,
    /// The listener itself failed: end the loop.
    Fatal,
}

/// Linux's errno values for the `accept(2)` failures `std` has no
/// [`ErrorKind`] for.
mod errno {
    use std::ffi::c_int;
    pub(super) const EPERM: c_int = 1;
    pub(super) const ENOMEM: c_int = 12;
    pub(super) const ENFILE: c_int = 23;
    pub(super) const EMFILE: c_int = 24;
    pub(super) const ENONET: c_int = 64;
    pub(super) const EPROTO: c_int = 71;
    pub(super) const ENOPROTOOPT: c_int = 92;
    pub(super) const EOPNOTSUPP: c_int = 95;
    pub(super) const ENETDOWN: c_int = 100;
    pub(super) const ENETUNREACH: c_int = 101;
    pub(super) const ECONNABORTED: c_int = 103;
    pub(super) const ENOBUFS: c_int = 105;
    pub(super) const EHOSTDOWN: c_int = 112;
    pub(super) const EHOSTUNREACH: c_int = 113;
}

/// Classifies an `accept(2)` failure. Linux passes a pending connection's
/// network errors on to `accept` (`accept(2)`, "Error handling"): those,
/// an aborted connection and a firewall refusal cost that connection only.
fn after_accept_error(err: &std::io::Error) -> AcceptFailure {
    use errno::*;
    match err.kind() {
        ErrorKind::WouldBlock => return AcceptFailure::Drained,
        ErrorKind::Interrupted => return AcceptFailure::Skip,
        _ => {}
    }
    match err.raw_os_error() {
        Some(
            ECONNABORTED | EPERM | ENETDOWN | EPROTO | ENOPROTOOPT | EHOSTDOWN | ENONET
            | EHOSTUNREACH | EOPNOTSUPP | ENETUNREACH,
        ) => AcceptFailure::Skip,
        Some(EMFILE | ENFILE | ENOBUFS | ENOMEM) => AcceptFailure::Pause,
        _ => AcceptFailure::Fatal,
    }
}

/// Gates a connection's first frame: the `Error` frame it
/// earns — after which the connection closes — unless it is a `Hello` in
/// this build's wire version. That `Hello` opens the root session and
/// goes to the hook, whose answerer replies `HelloAck`.
fn handshake_refusal(first: &Frame) -> Option<Frame> {
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
enum Inbound {
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

/// Classifies one post-handshake frame: which logical session it belongs
/// to (`None` = the root session) and what it asks. A multiplexed session
/// id seen for the first time claims one session from the budget.
fn inbound(
    frame: Frame,
    mux_sessions: &mut HashSet<u32>,
    budget: &mut Budget,
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
                if !budget.claim() {
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

/// The loop's logical-session budget ([`crate::ServiceConfig::max_sessions`]):
/// root sessions count at handshake, multiplexed ones when their id first
/// appears.
struct Budget {
    opened: usize,
    limit: Option<usize>,
}

impl Budget {
    /// Claims one multiplexed session. Unlike root sessions, which count
    /// at handshake and may overshoot (documented on
    /// [`crate::ServiceConfig::max_sessions`]), these are claimed exactly:
    /// past the budget the claim fails and the session is refused.
    fn claim(&mut self) -> bool {
        if self.limit.is_some_and(|limit| self.opened >= limit) {
            return false;
        }
        self.opened += 1;
        true
    }
}

/// One readiness event on one connection: collect answered replies, read
/// if the socket has bytes, parse and dispatch, flush writes.
fn tick<H: Hook>(
    conn: &mut Conn<H::Conn>,
    (readable, waker): (bool, &Waker),
    hook: &H,
    budget: &mut Budget,
    scratch: &mut [u8],
) {
    if conn.dead {
        return;
    }
    let answered: Vec<(Option<u32>, Frame)> = conn
        .inflight
        .iter()
        .filter_map(|(&session, pending)| poll_reply(pending).map(|frame| (session, frame)))
        .collect();
    for (session, frame) in answered {
        conn.inflight.remove(&session);
        deliver(conn, session, frame);
    }

    // Shed connections resume reading once the queue has room again.
    if conn.shed && !hook.is_full() {
        conn.shed = false;
    }

    if readable && conn.wants_read() {
        match conn.stream.read(scratch) {
            Ok(0) => conn.closing = true,
            Ok(read) => conn.read_buf.extend_from_slice(&scratch[..read]),
            Err(err) if would_block(&err) => {}
            Err(_) => conn.dead = true,
        }
    }

    // Dispatching frees room in the pending queue for complete frames
    // still in the read buffer, so go round until neither step moves.
    while parse_frames(conn, budget) | dispatch(conn, hook, waker) {}

    flush_writes(conn);
}

/// Hands queued requests to the hook — at most one in flight per logical
/// session (per connection, for [`Hook::SERIAL_PER_CONN`]), and none past
/// an unanswered `Hello`. Whether any frame left the queue.
fn dispatch<H: Hook>(conn: &mut Conn<H::Conn>, hook: &H, waker: &Waker) -> bool {
    let mut progressed = false;
    let mut index = 0;
    while index < conn.queued.len() && !conn.awaiting_ack {
        let session = conn.queued[index].0;
        let busy = conn.inflight.contains_key(&session)
            || (H::SERIAL_PER_CONN && !conn.inflight.is_empty());
        if busy {
            index += 1;
            continue;
        }
        let (session, inbound) = conn.queued.remove(index).expect("index is in bounds");
        progressed = true;
        match inbound {
            Inbound::Request(request) => {
                // A `Hello` is only ever a request as the opening frame.
                conn.awaiting_ack = matches!(request, Frame::Hello { .. });
                let (frame, pending) = bounded(1);
                let reply = Reply {
                    frame: Some(frame),
                    waker: waker.clone(),
                    wake: true,
                };
                if let Err(reply) = hook.forward(&conn.hook, (request, reply)) {
                    // Typed admission control: a shed request is refused
                    // before execution, the client backs off and retries,
                    // and this connection stops being read until the
                    // queue has room.
                    reply.discard();
                    conn.shed = true;
                    let shed = Frame::Overloaded {
                        retry_after_ms: OVERLOAD_RETRY_MS,
                    };
                    deliver(conn, session, shed);
                } else {
                    conn.inflight.insert(session, pending);
                }
            }
            Inbound::Refusal(reply) => enqueue_reply(conn, session, reply),
            Inbound::Violation(reply) => {
                enqueue_reply(conn, session, reply);
                conn.queued.clear();
                conn.closing = true;
            }
            // A root Goodbye closes the whole connection; a muxed one
            // closes only its logical session.
            Inbound::Goodbye if session.is_none() => {
                conn.queued.clear();
                conn.closing = true;
            }
            Inbound::Goodbye => {}
        }
    }
    progressed
}

/// Queues the answer to a dispatched request for writing. The answer to
/// the opening `Hello` decides the connection: anything but `HelloAck` —
/// a router with no replica to pin, a shed — closes it after the reply.
fn deliver<C>(conn: &mut Conn<C>, session: Option<u32>, reply: Frame) {
    if std::mem::take(&mut conn.awaiting_ack) && !matches!(reply, Frame::HelloAck { .. }) {
        conn.queued.clear();
        conn.closing = true;
    }
    enqueue_reply(conn, session, reply);
}

/// Writes as much of the pending reply bytes as the socket accepts.
fn flush_writes<C>(conn: &mut Conn<C>) {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(written) => conn.write_pos += written,
            // Unwritten bytes keep POLLOUT in the next poll set.
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
/// per-connection pending cap; whether any was parsed. Framing violations
/// follow the wire rules: an error frame, then the connection closes.
fn parse_frames<C>(conn: &mut Conn<C>, budget: &mut Budget) -> bool {
    let mut parsed = false;
    while !conn.closing && conn.queued.len() < PENDING_PER_CONN && conn.read_buf.len() >= 4 {
        let length =
            u32::from_le_bytes(conn.read_buf[..4].try_into().expect("4 bytes checked")) as usize;
        if length == 0 || length > MAX_FRAME_BYTES {
            fail_conn(
                conn,
                &protocol(&format!(
                    "frame of {length} bytes is outside the accepted range"
                )),
            );
            break;
        }
        if conn.read_buf.len() < 4 + length {
            break; // partial frame; wait for more bytes
        }
        match Frame::decode(&conn.read_buf[..4 + length]) {
            Ok(frame) => {
                conn.read_buf.drain(..4 + length);
                handle_parsed(conn, frame, budget);
            }
            Err(err) => fail_conn(conn, &err),
        }
        parsed = true;
    }
    parsed
}

/// Gates the handshake ([`handshake_refusal`]), then classifies each frame
/// for its logical session ([`inbound`]) and queues it for dispatch.
fn handle_parsed<C>(conn: &mut Conn<C>, frame: Frame, budget: &mut Budget) {
    if conn.handshaken {
        let classified = inbound(frame, &mut conn.mux_sessions, budget);
        conn.queued.push_back(classified);
        return;
    }
    if let Some(refusal) = handshake_refusal(&frame) {
        enqueue_reply(conn, None, refusal);
        conn.closing = true;
        return;
    }
    conn.handshaken = true;
    // Root sessions count at handshake (documented overshoot tolerance).
    budget.opened += 1;
    conn.queued.push_back((None, Inbound::Request(frame)));
}

/// Reports a connection-level framing violation and starts closing.
fn fail_conn<C>(conn: &mut Conn<C>, err: &PirError) {
    enqueue_reply(conn, None, error_frame(err));
    conn.queued.clear();
    conn.closing = true;
}

/// Encodes a reply (muxed for its logical session) onto the write buffer.
fn enqueue_reply<C>(conn: &mut Conn<C>, session: Option<u32>, reply: Frame) {
    match wrap(session, reply).encode() {
        Ok(bytes) => conn.write_buf.extend_from_slice(&bytes),
        // The encoder refused the reply (it would exceed the frame size
        // bound) — nothing valid can be sent on this framing anymore.
        Err(_) => conn.dead = true,
    }
}

/// The reply frame, once answered. A disconnected reply channel (the
/// answerer dropped the [`Reply`]: it panicked, or its queue is gone)
/// yields an error frame.
fn poll_reply(pending: &Receiver<Frame>) -> Option<Frame> {
    match pending.try_recv() {
        Ok(frame) => Some(frame),
        Err(TryRecvError::Empty) => None,
        Err(TryRecvError::Disconnected) => Some(error_frame(&protocol(
            "the request's answerer is gone (the service dispatcher or router worker failed)",
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impir_core::wire::WIRE_VERSION;

    /// The shed path, pinned deterministically: a full dispatcher queue
    /// sheds a forward without consuming the queued request, and room in
    /// the queue turns the next forward back into a pending reply —
    /// recovery needs no reconnect.
    #[test]
    fn full_admission_queue_sheds_and_recovers() {
        let (mut wake, waker) = UnixStream::pair().unwrap();
        wake.set_nonblocking(true).unwrap();
        let waker = Waker(Arc::new(waker));
        let reply = || {
            let (frame, pending) = bounded(1);
            let waker = waker.clone();
            let reply = Reply {
                frame: Some(frame),
                waker,
                wake: true,
            };
            (reply, pending)
        };
        let (requests, request_rx) = bounded::<Request>(1);
        let forward = |frame| {
            let (reply, pending) = reply();
            requests.forward(&(), (frame, reply)).ok().map(|()| pending)
        };
        // Fill the only admission slot; the dispatcher is "busy" (nobody
        // drains the receiver yet).
        requests
            .try_send((Frame::EpochInfoRequest, reply().0))
            .unwrap();
        assert!(requests.is_full());
        assert!(forward(Frame::InfoRequest).is_none());
        // The queue drains: the same connection's next request forwards.
        let _ = request_rx.try_recv().unwrap();
        assert!(forward(Frame::InfoRequest).is_some());
        // A dead dispatcher is a different, non-retryable answer — and the
        // dropped requests wake the loop, so nobody waits for it.
        drop(wake.read(&mut [0u8; 64]));
        drop(request_rx);
        let gone = forward(Frame::InfoRequest).expect("not shed");
        assert!(matches!(poll_reply(&gone), Some(Frame::Error { .. })));
        assert!(wake.read(&mut [0u8; 64]).unwrap() > 0);
    }

    #[test]
    fn goodbye_and_server_only_frames_classify_correctly() {
        let mut budget = Budget {
            opened: 0,
            limit: None,
        };
        let mut mux_sessions = HashSet::new();
        let mut classify = |frame| inbound(frame, &mut mux_sessions, &mut budget);
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

    /// Only a failure of the listener itself may end the loop: errors
    /// that belong to one pending connection are skipped, and running out
    /// of descriptors or memory pauses accepting instead of spinning.
    #[test]
    fn accept_errors_are_classified_per_connection_pause_or_fatal() {
        use errno::*;
        let classify = |code| after_accept_error(&std::io::Error::from_raw_os_error(code));
        for code in [
            ECONNABORTED,
            EPERM,
            ENETDOWN,
            EPROTO,
            ENOPROTOOPT,
            EHOSTDOWN,
            ENONET,
            EHOSTUNREACH,
            EOPNOTSUPP,
            ENETUNREACH,
        ] {
            assert_eq!(classify(code), AcceptFailure::Skip, "errno {code}");
        }
        for code in [EMFILE, ENFILE, ENOBUFS, ENOMEM] {
            assert_eq!(classify(code), AcceptFailure::Pause, "errno {code}");
        }
        let kind = |kind| after_accept_error(&std::io::Error::from(kind));
        assert_eq!(kind(ErrorKind::WouldBlock), AcceptFailure::Drained);
        assert_eq!(kind(ErrorKind::Interrupted), AcceptFailure::Skip);
        // EBADF, EINVAL and ENOTSOCK mean the listener is unusable.
        for code in [9, 22, 88] {
            assert_eq!(classify(code), AcceptFailure::Fatal, "errno {code}");
        }
    }
}
