//! The event-driven serving front end: one reactor thread multiplexing
//! every connection.
//!
//! The reactor owns both listeners (TCP, and optionally a Unix-domain
//! socket), every live connection, and the completion queue the worker
//! pool replies through. All sockets are non-blocking; a single
//! `poll(2)` readiness sweep (see [`crate::poll`]) drives the loop:
//!
//! * **Accept** — new connections get `TCP_NODELAY` (a one-line
//!   request/reply protocol under Nagle + delayed ACK costs ~40 ms per
//!   round trip) and a per-connection pair of reusable byte buffers.
//!   Over [`max_connections`](crate::ServerLimits::max_connections) the
//!   stream gets one best-effort `busy` line and is dropped.
//! * **Read** — bytes are split into lines in place; each complete line
//!   is answered immediately. Clients may pipeline: many request lines
//!   per write, replies always in request order. A line over the size
//!   bound is discarded as it streams in (bounded buffering) and
//!   answered with an `oversized` error; the connection survives.
//! * **Compute** — a request that needs no computation is answered
//!   inline ([`Dispatcher::answer_now`](crate::Dispatcher::answer_now)):
//!   hypercube `plan`/`predict` straight from the
//!   [`AnswerTable`](crate::AnswerTable) (one array lookup), every
//!   validation error, and every `audit` or scenario `plan` whose run or
//!   reference is memoized. A table or memo hit copies a line serialized
//!   on that entry's first request into the write buffer; only error
//!   replies outside the table serialize per request. Only a real
//!   computation is submitted to the worker pool, and a *pending slot* is
//!   queued in the connection's reply queue, so later pipelined replies
//!   wait behind it and ordering is preserved. A request identical to
//!   one already computing parks behind it instead, and is answered from
//!   the memo when that computation finishes. Workers push finished
//!   lines through an mpsc channel and wake the reactor via a loopback
//!   socket.
//! * **Flow control** — a connection with
//!   [`max_pipeline`](crate::ServerLimits::max_pipeline) unanswered
//!   requests, or a write buffer past the high-water mark, simply stops
//!   being read until replies drain. Backpressure, not errors.
//! * **Drain** — on shutdown the listeners close (the Unix socket file
//!   is unlinked), pooled computations finish or time out, every reply is
//!   flushed, and connections close as they empty.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use hypersweep_telemetry::Histogram;

use crate::daemon::{sigint_seen, Shared};
use crate::poll::{nofile_soft_limit, poll, PollFd, POLLIN, POLLOUT};
use crate::protocol::{ErrorKind, Request, Response, ShutdownReply, WireError};

/// Poll timeout: how stale the shutdown/SIGINT flags can get.
const POLL_TIMEOUT_MS: i32 = 50;
/// Descriptors held back from the connection budget: listeners, the
/// waker pair, stdio, the metrics/persist/log files, and slack for
/// whatever the process opens next.
const RESERVED_FDS: u64 = 16;
/// Stop reading a connection whose unflushed replies exceed this.
const WBUF_HIGH_WATER: usize = 256 * 1024;
/// Read chunk size (stack scratch, reused for every connection).
const SCRATCH_BYTES: usize = 16 * 1024;
/// Extra drain time past the request timeout before giving up on
/// unflushed replies.
const DRAIN_GRACE_MS: u64 = 2_000;

/// A connected client socket, TCP or Unix-domain — same state machine.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn fd(&self) -> i32 {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
}

/// One reply position in a connection's in-order queue.
enum Slot {
    /// Serialized and waiting to enter the write buffer.
    Ready(String),
    /// A computation executing on the pool; later replies queue behind
    /// it. `latency` is the request kind's histogram.
    Pending {
        seq: u64,
        started: Instant,
        deadline: Instant,
        latency: Histogram,
    },
}

/// Per-connection state. The read and write buffers are allocated once
/// and reused for the connection's whole life — steady-state serving
/// does not allocate per request.
struct Conn {
    stream: Stream,
    /// Guards against completions addressed to a previous occupant of
    /// this connection slot.
    gen: u64,
    /// Partial line carried across reads.
    rbuf: Vec<u8>,
    /// Serialized replies not yet written; `wpos` bytes already sent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// In-order reply queue (pipelining).
    replies: VecDeque<Slot>,
    next_seq: u64,
    /// Inside an oversized line: swallow bytes until the newline.
    discarding: bool,
    /// Peer sent EOF: flush what remains, then close.
    closing: bool,
}

impl Conn {
    fn new(stream: Stream, gen: u64) -> Conn {
        Conn {
            stream,
            gen,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            replies: VecDeque::new(),
            next_seq: 0,
            discarding: false,
            closing: false,
        }
    }

    fn unflushed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// Where a pending reply goes: a connection slot, the generation of its
/// occupant (so a reply never reaches a later connection in the same
/// slot), and the reply's sequence number on that connection.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Ticket {
    conn: usize,
    gen: u64,
    seq: u64,
}

/// A request computing on the pool for `owner`, and the tickets of the
/// identical requests parked behind it: they need its result, not a run
/// of their own.
struct Running {
    request: Request,
    owner: Ticket,
    waiters: Vec<Ticket>,
}

/// A finished pool job, routed back to the reactor thread.
struct Completion {
    ticket: Ticket,
    /// `None`: the worker died before replying (the job panicked; the
    /// pool caught it and counts it in `pool.job_panics`).
    line: Option<String>,
}

/// Carried into every pool job: guarantees exactly one completion per
/// submitted computation, even when the job panics mid-run.
struct ReplyGuard {
    tx: mpsc::Sender<Completion>,
    waker: Arc<TcpStream>,
    ticket: Ticket,
    done: bool,
}

impl ReplyGuard {
    fn deliver(&mut self, line: Option<String>) {
        self.done = true;
        let _ = self.tx.send(Completion {
            ticket: self.ticket,
            line,
        });
        // One byte on the loopback pair interrupts the reactor's poll;
        // a full pipe means a wakeup is already queued.
        let _ = (&*self.waker).write(&[1]);
    }

    fn complete(mut self, line: String) {
        self.deliver(Some(line));
    }
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if !self.done {
            self.deliver(None);
        }
    }
}

/// What a poll-set entry refers to.
enum Target {
    TcpListener,
    UdsListener,
    Waker,
    Conn(usize),
}

/// The single-threaded serving loop. Owns the listeners and every
/// connection; shares the dispatcher/pool/limits with the daemon.
pub(crate) struct Reactor {
    tcp: TcpListener,
    uds: Option<UnixListener>,
    uds_path: Option<PathBuf>,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    live: usize,
    /// Effective concurrent-connection cap:
    /// [`max_connections`](crate::ServerLimits::max_connections) clamped
    /// to the fd headroom (`ulimit -n` soft limit minus [`RESERVED_FDS`]).
    conn_cap: usize,
    next_gen: u64,
    waker_rx: TcpStream,
    waker_tx: Arc<TcpStream>,
    completions_tx: mpsc::Sender<Completion>,
    completions_rx: mpsc::Receiver<Completion>,
    /// One entry per pool job, so never longer than the pool's workers
    /// plus its queue; identical requests park on an entry instead of
    /// submitting a job of their own.
    running: Vec<Running>,
    /// Pre-serialized: every timeout sends the same bytes.
    timeout_line: String,
    draining: bool,
    drain_deadline: Option<Instant>,
}

/// A connected loopback pair: workers write one byte to `tx` to
/// interrupt the reactor's poll on `rx`.
fn waker_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((rx, tx))
}

impl Reactor {
    pub(crate) fn new(
        tcp: TcpListener,
        uds: Option<UnixListener>,
        uds_path: Option<PathBuf>,
        shared: Arc<Shared>,
    ) -> io::Result<Reactor> {
        tcp.set_nonblocking(true)?;
        if let Some(listener) = &uds {
            listener.set_nonblocking(true)?;
        }
        let (waker_rx, waker_tx) = waker_pair()?;
        let (completions_tx, completions_rx) = mpsc::channel();
        let timeout_line = Response::Error(WireError::new(
            ErrorKind::Timeout,
            format!(
                "request exceeded the {} ms budget",
                shared.limits.request_timeout.as_millis()
            ),
        ))
        .to_line();
        let conn_cap = effective_connection_cap(shared.limits.max_connections, nofile_soft_limit());
        if conn_cap < shared.limits.max_connections {
            hypersweep_telemetry::log_line(&format!(
                "reactor: fd soft limit clamps connections to {conn_cap} \
                 (configured {}, {RESERVED_FDS} descriptors reserved)",
                shared.limits.max_connections
            ));
        }
        Ok(Reactor {
            tcp,
            uds,
            uds_path,
            shared,
            conns: Vec::new(),
            live: 0,
            conn_cap,
            next_gen: 0,
            waker_rx,
            waker_tx: Arc::new(waker_tx),
            completions_tx,
            completions_rx,
            running: Vec::new(),
            timeout_line,
            draining: false,
            drain_deadline: None,
        })
    }

    /// Serve until the shutdown flag (or SIGINT) is raised, then drain:
    /// finish or time out pooled requests, flush every reply, close every
    /// connection. The caller shuts the pool down afterwards.
    pub(crate) fn run(mut self) -> io::Result<()> {
        loop {
            self.observe_shutdown();
            if self.draining {
                if self.live == 0 {
                    return Ok(());
                }
                if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
                    return Ok(());
                }
            }
            let (mut fds, targets) = self.poll_set();
            poll(&mut fds, POLL_TIMEOUT_MS)?;
            for (fd, target) in fds.iter().zip(&targets) {
                match target {
                    Target::TcpListener if fd.readable() => self.accept_tcp(),
                    Target::UdsListener if fd.readable() => self.accept_uds(),
                    Target::Waker if fd.readable() => self.drain_waker(),
                    Target::Conn(idx) if fd.readable() => self.drain_readable(*idx),
                    _ => {}
                }
            }
            self.drain_completions();
            self.expire_timeouts();
            self.flush_all();
        }
    }

    /// Latch the drain state: stop listening, unlink the Unix socket.
    fn observe_shutdown(&mut self) {
        if self.draining {
            return;
        }
        if self.shared.shutdown.load(Ordering::SeqCst) || sigint_seen() {
            self.shared.shutdown.store(true, Ordering::SeqCst);
            self.draining = true;
            self.drain_deadline = Some(
                Instant::now()
                    + self.shared.limits.request_timeout
                    + std::time::Duration::from_millis(DRAIN_GRACE_MS),
            );
            self.uds = None;
            if let Some(path) = &self.uds_path {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// Whether the reactor should read more requests from `conn`.
    fn wants_read(&self, conn: &Conn) -> bool {
        !self.draining
            && !conn.closing
            && conn.replies.len() < self.shared.limits.max_pipeline
            && conn.unflushed() < WBUF_HIGH_WATER
    }

    fn poll_set(&self) -> (Vec<PollFd>, Vec<Target>) {
        let mut fds = Vec::with_capacity(self.live + 3);
        let mut targets = Vec::with_capacity(self.live + 3);
        if !self.draining {
            // Listeners stay registered even at the connection cap: the
            // excess client gets an immediate busy line, not a silent
            // wait in the accept backlog.
            fds.push(PollFd::new(self.tcp.as_raw_fd(), POLLIN));
            targets.push(Target::TcpListener);
            if let Some(listener) = &self.uds {
                fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                targets.push(Target::UdsListener);
            }
        }
        fds.push(PollFd::new(self.waker_rx.as_raw_fd(), POLLIN));
        targets.push(Target::Waker);
        for (idx, slot) in self.conns.iter().enumerate() {
            let Some(conn) = slot else { continue };
            let mut events = 0;
            if self.wants_read(conn) {
                events |= POLLIN;
            }
            if conn.unflushed() > 0 {
                events |= POLLOUT;
            }
            // Registered even with no requested events: POLLERR/POLLHUP
            // are always reported, so a dead peer still wakes us.
            fds.push(PollFd::new(conn.stream.fd(), events));
            targets.push(Target::Conn(idx));
        }
        (fds, targets)
    }

    fn accept_tcp(&mut self) {
        loop {
            match self.tcp.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.admit(Stream::Tcp(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn accept_uds(&mut self) {
        loop {
            let accepted = match &self.uds {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.admit(Stream::Unix(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, mut stream: Stream) {
        if self.live >= self.conn_cap {
            // One best-effort busy line (a fresh socket's send buffer
            // always has room for it), then drop. Counted in the
            // `server.busy` telemetry like a saturated dispatch queue.
            self.shared.dispatcher.note_busy();
            let mut line = Response::Error(WireError::new(
                ErrorKind::Busy,
                "connection limit reached; retry later",
            ))
            .to_line();
            line.push('\n');
            let _ = stream.write(line.as_bytes());
            return;
        }
        self.live += 1;
        self.next_gen += 1;
        let conn = Conn::new(stream, self.next_gen);
        match self.conns.iter().position(Option::is_none) {
            Some(idx) => self.conns[idx] = Some(conn),
            None => self.conns.push(Some(conn)),
        }
    }

    fn close(&mut self, idx: usize) {
        if self.conns[idx].take().is_some() {
            self.live -= 1;
        }
    }

    fn drain_waker(&mut self) {
        let mut scratch = [0u8; 64];
        while matches!(self.waker_rx.read(&mut scratch), Ok(n) if n > 0) {}
    }

    /// Read everything the socket has, splitting and answering lines as
    /// they complete. Stops early when flow control kicks in.
    fn drain_readable(&mut self, idx: usize) {
        let mut scratch = [0u8; SCRATCH_BYTES];
        loop {
            {
                let Some(conn) = self.conns[idx].as_ref() else {
                    return;
                };
                if !self.wants_read(conn) {
                    return;
                }
            }
            let result = {
                let Some(conn) = self.conns[idx].as_mut() else {
                    return;
                };
                conn.stream.read(&mut scratch)
            };
            match result {
                Ok(0) => {
                    if let Some(conn) = self.conns[idx].as_mut() {
                        conn.closing = true;
                    }
                    return;
                }
                Ok(n) => self.ingest(idx, &scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    /// Split `data` into lines, carrying partials in the connection's
    /// read buffer. A line whose length exceeds the bound never buffers
    /// more than the bound: the content is discarded and the line is
    /// answered with an `oversized` error once its newline arrives.
    fn ingest(&mut self, idx: usize, data: &[u8]) {
        let max = self.shared.limits.max_line_bytes;
        let mut pos = 0;
        while pos < data.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            match data[pos..].iter().position(|&b| b == b'\n') {
                Some(rel) => {
                    let end = pos + rel;
                    let was_discarding = conn.discarding;
                    conn.discarding = false;
                    if was_discarding {
                        self.reply_oversized(idx);
                    } else if conn.rbuf.len() + rel > max {
                        conn.rbuf.clear();
                        self.reply_oversized(idx);
                    } else {
                        let text = if conn.rbuf.is_empty() {
                            String::from_utf8(data[pos..end].to_vec())
                        } else {
                            conn.rbuf.extend_from_slice(&data[pos..end]);
                            let line = std::mem::take(&mut conn.rbuf);
                            String::from_utf8(line)
                        };
                        match text {
                            Ok(text) => self.handle_one(idx, &text),
                            Err(bytes) => {
                                // Hand the allocation back so the buffer
                                // stays warm for the next line.
                                let mut buf = bytes.into_bytes();
                                buf.clear();
                                if let Some(conn) = self.conns[idx].as_mut() {
                                    if conn.rbuf.capacity() < buf.capacity() {
                                        conn.rbuf = buf;
                                    }
                                }
                                self.reply_invalid_utf8(idx);
                            }
                        }
                    }
                    pos = end + 1;
                }
                None => {
                    if !conn.discarding {
                        conn.rbuf.extend_from_slice(&data[pos..]);
                        if conn.rbuf.len() > max {
                            conn.rbuf.clear();
                            conn.discarding = true;
                        }
                    }
                    return;
                }
            }
        }
    }

    fn reply_oversized(&mut self, idx: usize) {
        self.shared.dispatcher.note_error();
        let line = Response::Error(WireError::new(
            ErrorKind::Oversized,
            format!(
                "request line exceeds {} bytes",
                self.shared.limits.max_line_bytes
            ),
        ))
        .to_line();
        self.push_reply(idx, &line);
    }

    fn reply_invalid_utf8(&mut self, idx: usize) {
        self.shared.dispatcher.note_error();
        let line = Response::Error(WireError::new(
            ErrorKind::Malformed,
            "request line is not valid UTF-8",
        ))
        .to_line();
        self.push_reply(idx, &line);
    }

    /// Answer one request line. `status`/`metrics`/`shutdown` resolve
    /// inline, and so does every request the dispatcher can answer without
    /// computing; the rest go to the worker pool behind a pending slot.
    fn handle_one(&mut self, idx: usize, text: &str) {
        if text.trim().is_empty() {
            return;
        }
        // The latency clock covers parsing; a line that fails to parse
        // records no sample.
        let started = Instant::now();
        let shared = Arc::clone(&self.shared);
        let request = match Request::parse(text) {
            Ok(request) => request,
            Err(e) => {
                shared.dispatcher.note_error();
                self.push_reply(idx, &Response::Error(e).to_line());
                return;
            }
        };
        match request {
            Request::Status => {
                let status = shared.status();
                shared.latency.status.record_duration(started.elapsed());
                self.push_reply(idx, &Response::Status(status).to_line());
            }
            Request::Metrics => {
                let reply = shared.metrics();
                shared.latency.metrics.record_duration(started.elapsed());
                self.push_reply(idx, &Response::Metrics(reply).to_line());
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let ack = Response::Shutdown(ShutdownReply {
                    draining: shared.pool.in_flight() as u64,
                });
                self.push_reply(idx, &ack.to_line());
            }
            compute => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    shared.dispatcher.note_error();
                    self.push_reply(
                        idx,
                        &Response::Error(WireError::new(
                            ErrorKind::ShuttingDown,
                            "server is draining; no new work accepted",
                        ))
                        .to_line(),
                    );
                    return;
                }
                match shared.dispatcher.answer_now(&compute) {
                    Some(line) => {
                        shared
                            .latency
                            .of(&compute)
                            .record_duration(started.elapsed());
                        self.push_reply(idx, &line);
                    }
                    None => self.enqueue(idx, compute, started),
                }
            }
        }
    }

    /// Queue a pending slot for a request that must compute, then
    /// dispatch it.
    fn enqueue(&mut self, idx: usize, request: Request, started: Instant) {
        let latency = self.shared.latency.of(&request).clone();
        let deadline = started + self.shared.limits.request_timeout;
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.replies.push_back(Slot::Pending {
            seq,
            started,
            deadline,
            latency,
        });
        let ticket = Ticket {
            conn: idx,
            gen: conn.gen,
            seq,
        };
        self.dispatch(ticket, request);
    }

    /// Park `request` behind an identical one already computing, or
    /// submit it to the worker pool. A full queue answers `busy`.
    fn dispatch(&mut self, ticket: Ticket, request: Request) {
        if let Some(running) = self.running.iter_mut().find(|r| r.request == request) {
            running.waiters.push(ticket);
            return;
        }
        let guard = ReplyGuard {
            tx: self.completions_tx.clone(),
            waker: Arc::clone(&self.waker_tx),
            ticket,
            done: false,
        };
        let job_shared = Arc::clone(&self.shared);
        let submitted = self.shared.pool.try_submit(move || {
            guard.complete(job_shared.dispatcher.handle(request).to_line());
        });
        match submitted {
            Ok(()) => self.running.push(Running {
                request,
                owner: ticket,
                waiters: Vec::new(),
            }),
            Err(_) => {
                // The rejected job was dropped inside try_submit; its
                // guard sent a completion that owns no running entry and
                // finds this slot already resolved, so it is ignored.
                let busy = Response::Error(WireError::new(
                    ErrorKind::Busy,
                    "dispatch queue is full; retry later",
                ))
                .to_line();
                if self.resolve(ticket, busy) {
                    self.shared.dispatcher.note_busy();
                }
            }
        }
    }

    /// Fill `ticket`'s pending slot with `line` and record the request's
    /// latency. Returns `false`, dropping the line, when the connection
    /// has closed or the slot already timed out.
    fn resolve(&mut self, ticket: Ticket, line: String) -> bool {
        let Some(conn) = self.conns.get_mut(ticket.conn).and_then(Option::as_mut) else {
            return false;
        };
        if conn.gen != ticket.gen {
            return false;
        }
        let Some(slot) = conn
            .replies
            .iter_mut()
            .find(|slot| matches!(slot, Slot::Pending { seq, .. } if *seq == ticket.seq))
        else {
            return false;
        };
        let Slot::Pending {
            started, latency, ..
        } = slot
        else {
            unreachable!("find() matched a pending slot");
        };
        latency.record_duration(started.elapsed());
        *slot = Slot::Ready(line);
        true
    }

    /// Queue a serialized reply, appending straight to the write buffer
    /// when nothing is pending ahead of it (no allocation).
    fn push_reply(&mut self, idx: usize, line: &str) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if conn.replies.is_empty() {
            conn.wbuf.extend_from_slice(line.as_bytes());
            conn.wbuf.push(b'\n');
        } else {
            conn.replies.push_back(Slot::Ready(line.to_owned()));
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(completion) = self.completions_rx.try_recv() {
            self.apply_completion(completion);
        }
    }

    /// Deliver a finished computation, then answer the requests parked
    /// behind it from the memo it just filled. A parked request the memo
    /// cannot answer (the run panicked, or its entry was evicted at once)
    /// is dispatched again.
    fn apply_completion(&mut self, completion: Completion) {
        let shared = Arc::clone(&self.shared);
        // A late completion still resolves nothing if its slot timed out
        // (the run still warmed the cache for the next request).
        match completion.line {
            Some(line) => {
                self.resolve(completion.ticket, line);
            }
            None => {
                // The job panicked before replying: the pool caught it
                // (pool.job_panics counts it) and the worker survives;
                // this client gets a structured internal error.
                let line = Response::Error(WireError::new(
                    ErrorKind::Internal,
                    "request worker failed before producing a reply; \
                     see the pool.job_panics counter",
                ))
                .to_line();
                if self.resolve(completion.ticket, line) {
                    shared.dispatcher.note_error();
                }
            }
        }
        let Some(pos) = self
            .running
            .iter()
            .position(|running| running.owner == completion.ticket)
        else {
            return;
        };
        let Running {
            request, waiters, ..
        } = self.running.swap_remove(pos);
        for waiter in waiters {
            match shared.dispatcher.answer_now(&request) {
                Some(line) => {
                    self.resolve(waiter, line.to_string());
                }
                None => self.dispatch(waiter, request),
            }
        }
    }

    /// Convert pending requests past their deadline into timeout errors.
    /// The underlying computation keeps executing and warms the cache.
    fn expire_timeouts(&mut self) {
        let now = Instant::now();
        let shared = Arc::clone(&self.shared);
        let timeout_line = self.timeout_line.clone();
        for conn in self.conns.iter_mut().flatten() {
            for slot in conn.replies.iter_mut() {
                if let Slot::Pending {
                    started,
                    deadline,
                    latency,
                    ..
                } = slot
                {
                    if now >= *deadline {
                        shared.dispatcher.note_timeout();
                        latency.record_duration(started.elapsed());
                        *slot = Slot::Ready(timeout_line.clone());
                    }
                }
            }
        }
    }

    fn flush_all(&mut self) {
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.flush(idx);
            }
        }
    }

    /// Move leading ready replies into the write buffer and write as
    /// much as the socket accepts. Closes the connection when it has
    /// nothing left and the peer is gone (or the daemon is draining).
    fn flush(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        while matches!(conn.replies.front(), Some(Slot::Ready(_))) {
            let Some(Slot::Ready(line)) = conn.replies.pop_front() else {
                unreachable!("front() matched a ready slot");
            };
            conn.wbuf.extend_from_slice(line.as_bytes());
            conn.wbuf.push(b'\n');
        }
        let mut failed = false;
        loop {
            if conn.wpos >= conn.wbuf.len() {
                break;
            }
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    failed = true;
                    break;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        let done = conn.replies.is_empty() && conn.wbuf.is_empty();
        let closing = conn.closing;
        if failed || (done && (closing || self.draining)) {
            self.close(idx);
        }
    }
}

/// Clamp the configured connection limit to the descriptor headroom the
/// process actually has. Accepting a socket the reactor cannot poll would
/// surface as EMFILE in the accept loop and starve *every* client; a
/// clean `busy` reply to the excess client is strictly better. `None`
/// (unlimited / unreadable rlimit) leaves the configured cap alone.
fn effective_connection_cap(configured: usize, nofile_soft: Option<u64>) -> usize {
    match nofile_soft {
        Some(soft) => {
            let headroom = soft.saturating_sub(RESERVED_FDS).max(1);
            configured.min(usize::try_from(headroom).unwrap_or(usize::MAX))
        }
        None => configured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_cap_respects_fd_headroom() {
        assert_eq!(effective_connection_cap(1024, None), 1024);
        assert_eq!(effective_connection_cap(1024, Some(100_000)), 1024);
        assert_eq!(
            effective_connection_cap(1024, Some(256)),
            256 - RESERVED_FDS as usize
        );
        // Pathological limits never clamp to zero: one connection at a
        // time still beats refusing everyone.
        assert_eq!(effective_connection_cap(1024, Some(4)), 1);
    }

    #[test]
    fn this_process_reports_a_soft_fd_limit() {
        // Linux always has RLIMIT_NOFILE set for a normal process.
        let soft = nofile_soft_limit().expect("soft nofile limit readable");
        assert!(soft >= 64, "implausibly low fd limit: {soft}");
    }
}
