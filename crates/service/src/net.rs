//! TCP / unix-socket front-end multiplexing many clients onto one
//! queue.
//!
//! A [`NetServer`] binds a [`NetListener`] and serves the line protocol
//! of `tamopt serve` to any number of concurrent connections, all
//! feeding one [`ServeQueue`] (a flat [`LiveQueue`](crate::LiveQueue),
//! or a [`ShardedQueue`](crate::ShardedQueue) behind `shards = Some(n)`):
//!
//! * every connection gets a **client id** `C`, announced by a greeting
//!   line and stamped into every outcome line as `"client": C` (next to
//!   the `"shard"` stamp of sharded queues);
//! * ids are **per-client namespaces**: each client's submissions are
//!   numbered 0, 1, 2, … in its own submission order, outcome lines
//!   carry that local id, and `cancel <id>` can only name the caller's
//!   own requests — an id outside the caller's namespace is answered
//!   with a typed [`error_line`] instead of silently matching another
//!   client's request;
//! * `stats` reports per-client outstanding counts for every client
//!   plus the caller's own outstanding local ids;
//! * malformed lines (parse failures, oversized frames) are answered
//!   with versioned error lines — the connection survives;
//! * **disconnect = cancel my requests**: when a client's connection
//!   drops, all its not-yet-completed submissions are cancelled.
//!   Queued ones surface as `cancelled` bare outcomes, dispatched ones
//!   finish at the next generation barrier (truncated but valid) and
//!   record into the shared warm cache — nothing leaks, and sibling
//!   clients' streams are unaffected;
//! * a slow or stalled reader never stalls siblings: outcome lines
//!   buffer in the server-side per-connection writer queue until the
//!   client drains them.
//!
//! The server does not parse the protocol itself — the crate sits
//! *below* the CLI crate that owns the grammar — so callers inject a
//! [`LineParser`] mapping one raw line to a [`NetDirective`]. The final
//! [`BatchReport`] returned by [`NetServer::shutdown`] keeps global
//! submission ids and stamps each outcome with the submitting client.
//!
//! The deterministic counterpart of this live front-end is the
//! multi-client trace replay in [`crate::chaos`].

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::live::{JournalBinding, LiveConfig, RequestId, SubmitError};
use crate::report::{json_string, BatchReport, WIRE_VERSION};
use crate::request::Request;
use crate::shard::ServeQueue;

/// Longest accepted protocol line in bytes. A partial line growing past
/// this is discarded up to its terminating newline and answered with an
/// `oversized` [`error_line`]; the connection stays usable.
pub const MAX_LINE_LEN: usize = 64 * 1024;

/// How often blocked accept/read loops wake up to check for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Framing

/// One framed unit produced by [`LineFramer::push`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete protocol line (newline stripped, trailing `\r`
    /// removed, invalid UTF-8 replaced).
    Line(String),
    /// A line that grew past [`MAX_LINE_LEN`] before its newline; the
    /// framer discarded it up to the newline and resynchronized.
    Oversized,
}

/// Incremental newline framer over an untrusted byte stream.
///
/// Bytes arrive in arbitrary chunks (split, merged, one at a time);
/// [`push`](Self::push) returns every line completed so far. Lines
/// longer than [`MAX_LINE_LEN`] are dropped wholesale and reported as
/// [`Frame::Oversized`] — the framer resynchronizes at the next
/// newline, so a hostile client cannot wedge the connection or balloon
/// server memory.
#[derive(Debug, Default)]
pub struct LineFramer {
    buf: Vec<u8>,
    overflow: bool,
}

impl LineFramer {
    /// An empty framer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds `bytes` and returns the frames they completed, in order.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        for &byte in bytes {
            if byte == b'\n' {
                if self.overflow {
                    self.overflow = false;
                    frames.push(Frame::Oversized);
                } else {
                    frames.push(Frame::Line(Self::decode(&self.buf)));
                    self.buf.clear();
                }
            } else if !self.overflow {
                self.buf.push(byte);
                if self.buf.len() > MAX_LINE_LEN {
                    self.buf.clear();
                    self.overflow = true;
                }
            }
        }
        frames
    }

    /// Flushes a trailing unterminated line at end of stream, if any.
    pub fn finish(&mut self) -> Option<Frame> {
        if self.overflow {
            self.overflow = false;
            Some(Frame::Oversized)
        } else if self.buf.is_empty() {
            None
        } else {
            let line = Self::decode(&self.buf);
            self.buf.clear();
            Some(Frame::Line(line))
        }
    }

    fn decode(buf: &[u8]) -> String {
        let buf = buf.strip_suffix(b"\r").unwrap_or(buf);
        String::from_utf8_lossy(buf).into_owned()
    }
}

// ---------------------------------------------------------------------------
// Protocol surface

/// One parsed protocol line, as produced by the injected
/// [`LineParser`]. The grammar itself (and therefore the mapping from
/// raw text to directives) lives in the CLI crate above this one.
#[derive(Debug, Clone)]
pub enum NetDirective {
    /// Submit a request; ids are assigned per client in arrival order.
    Submit(Request),
    /// Cancel the caller's submission with this **local** id.
    Cancel(usize),
    /// Report per-client outstanding counts.
    Stats,
}

/// Maps one raw protocol line to a directive: `Ok(None)` for blank
/// lines and comments, `Err(message)` for malformed input (answered
/// with a `parse` [`error_line`]).
pub type LineParser = Arc<dyn Fn(&str) -> Result<Option<NetDirective>, String> + Send + Sync>;

/// Renders one versioned error line: `{"v": 1, "client": C, "error":
/// "<code>", "detail": "<message>"}` plus the trailing newline.
///
/// Stable codes: `parse` (malformed line), `oversized` (line beyond
/// [`MAX_LINE_LEN`]), `unknown-id` (cancel outside the caller's
/// namespace), `shutdown` (submit after the server sealed),
/// `unsupported` (directive not available in this mode), and
/// `overloaded` (load shed: the backlog is at its cap and this request
/// was the weakest, or the caller is at its in-flight quota — the
/// connection survives; retry after draining).
pub fn error_line(client: usize, code: &str, detail: &str) -> String {
    format!(
        "{{\"v\": {}, \"client\": {}, \"error\": {}, \"detail\": {}}}\n",
        WIRE_VERSION,
        client,
        json_string(code),
        json_string(detail),
    )
}

/// Renders the per-connection greeting announcing the client id.
fn greeting_line(client: usize) -> String {
    format!("{{\"protocol\": \"tamopt-serve\", \"v\": {WIRE_VERSION}, \"client\": {client}}}\n")
}

// ---------------------------------------------------------------------------
// Listener / connection plumbing

/// A bound listening endpoint for [`NetServer::start`]: a TCP address
/// or (on unix) a filesystem socket path.
#[derive(Debug)]
pub struct NetListener {
    kind: ListenerKind,
    addr: String,
    unix_path: Option<PathBuf>,
}

#[derive(Debug)]
enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl NetListener {
    /// Binds a TCP listener on `addr` (e.g. `127.0.0.1:7171`; port 0
    /// picks a free port — read it back via [`NetListener::addr`]).
    ///
    /// # Errors
    ///
    /// Any bind failure, verbatim from the OS.
    pub fn tcp(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        Ok(NetListener {
            kind: ListenerKind::Tcp(listener),
            addr,
            unix_path: None,
        })
    }

    /// Binds a unix-domain socket at `path`, replacing a stale socket
    /// file left by a previous run. The file is removed again at
    /// [`NetServer::shutdown`].
    ///
    /// # Errors
    ///
    /// Any bind failure, verbatim from the OS.
    #[cfg(unix)]
    pub fn unix(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        // A dead server leaves its socket file behind; binding over it
        // needs the unlink. A *live* server is not detected here — the
        // CLI layer is expected to own the path.
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        Ok(NetListener {
            addr: path.display().to_string(),
            unix_path: Some(path),
            kind: ListenerKind::Unix(listener),
        })
    }

    /// The bound endpoint: `ip:port` for TCP (after port-0 resolution),
    /// the socket path for unix.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn accept(&self) -> io::Result<Conn> {
        match &self.kind {
            ListenerKind::Tcp(listener) => listener.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            ListenerKind::Unix(listener) => listener.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// One accepted connection, transport-agnostic.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn configure(&self) -> io::Result<()> {
        // Accepted sockets may inherit the listener's non-blocking mode
        // on some platforms; the reader loop wants blocking reads with
        // a timeout so it can poll the shutdown flag.
        match self {
            Conn::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(POLL_INTERVAL))
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(POLL_INTERVAL))
            }
        }
    }

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.write_all(line.as_bytes())?;
                s.flush()
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.write_all(line.as_bytes())?;
                s.flush()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The multiplexer

/// Per-client connection state inside the [`Mux`].
struct ClientSlot {
    /// Local id → global id, in this client's submission order.
    globals: Vec<usize>,
    /// Sender feeding the connection's writer thread; `None` once the
    /// client disconnected or the server is closing its channels.
    tx: Option<Sender<String>>,
    disconnected: bool,
}

/// Global id ↔ client bookkeeping shared by readers and the router.
#[derive(Default)]
struct Mux {
    clients: Vec<ClientSlot>,
    /// Global id → (client, local id) for submissions whose outcome has
    /// not streamed yet. Entries are removed by the router as outcomes
    /// arrive — an empty map after drain proves nothing leaked.
    outstanding: HashMap<usize, (usize, usize)>,
    /// Permanent global id → (client, local id) map stamping the final
    /// report.
    stamps: HashMap<usize, (usize, usize)>,
}

impl Mux {
    fn respond(&self, client: usize, line: String) {
        if let Some(tx) = self.clients[client].tx.as_ref() {
            // A racing disconnect closes the channel; dropping the
            // response then is exactly the disconnect semantics.
            let _ = tx.send(line);
        }
    }
}

struct Shared {
    queue: ServeQueue,
    mux: Mutex<Mux>,
    shutdown: AtomicBool,
    parser: LineParser,
    /// Per-client in-flight quota ([`NetOptions::max_inflight`]).
    max_inflight: usize,
    /// Write-ahead request journal ([`NetOptions::journal`]): accepted
    /// submissions and cancellations append at accept time, outcomes
    /// seal as they stream.
    journal: Option<JournalBinding>,
    /// Reader and writer thread handles, joined at shutdown.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Idempotent disconnect: cancels every outstanding submission of
    /// `client` and closes its writer channel. Queued requests surface
    /// as `cancelled` outcomes, dispatched ones finish truncated at the
    /// next barrier; the router drops both on arrival (the client is
    /// gone) while the final report keeps them.
    fn disconnect(&self, client: usize) {
        let mut mux = lock(&self.mux);
        let slot = &mut mux.clients[client];
        if slot.disconnected {
            return;
        }
        slot.disconnected = true;
        slot.tx = None;
        let mine: Vec<usize> = mux
            .outstanding
            .iter()
            .filter(|(_, &(c, _))| c == client)
            .map(|(&global, _)| global)
            .collect();
        // The mux lock is held across the cancels (as it is across
        // submits) so the cancellation set cannot race a reader.
        for global in mine {
            self.queue.cancel(RequestId::from(global));
        }
    }

    fn handle_frame(&self, client: usize, frame: Frame) {
        match frame {
            Frame::Oversized => {
                let line = error_line(
                    client,
                    "oversized",
                    &format!("line exceeds {MAX_LINE_LEN} bytes; discarded up to the next newline"),
                );
                lock(&self.mux).respond(client, line);
            }
            Frame::Line(text) => match (self.parser)(&text) {
                Err(detail) => {
                    lock(&self.mux).respond(client, error_line(client, "parse", &detail));
                }
                Ok(None) => {}
                Ok(Some(NetDirective::Submit(request))) => self.submit(client, request, &text),
                Ok(Some(NetDirective::Cancel(local))) => self.cancel(client, local),
                Ok(Some(NetDirective::Stats)) => self.stats(client),
            },
        }
    }

    fn submit(&self, client: usize, request: Request, line: &str) {
        // The mux lock is held across the queue submit (the queue's own
        // locks nest inside it; the router takes the mux lock alone) so
        // the router can never see a global id before its owner entry.
        let mut mux = lock(&self.mux);
        if mux.clients[client].disconnected {
            return;
        }
        // Per-client quota: one greedy client cannot crowd out its
        // siblings. Refused submissions consume no id (local or
        // global) — the client retries after draining an outcome.
        if self.max_inflight > 0 {
            let outstanding = mux.outstanding.values().filter(|o| o.0 == client).count();
            if outstanding >= self.max_inflight {
                let detail = format!(
                    "client has {outstanding} request(s) in flight (quota {}); drain an outcome and retry",
                    self.max_inflight
                );
                mux.respond(client, error_line(client, "overloaded", &detail));
                return;
            }
        }
        match self.queue.submit(request) {
            Ok(id) => {
                let global = id.index();
                let slot = &mut mux.clients[client];
                let local = slot.globals.len();
                slot.globals.push(global);
                mux.outstanding.insert(global, (client, local));
                mux.stamps.insert(global, (client, local));
                // Journal at accept, inside the mux lock: the append
                // lands before any later accept (or this request's own
                // seal) can, so journal order matches accept order. The
                // shard stamp records where routing placed it, so
                // recovery re-runs it on the same shard.
                if let Some(journal) = &self.journal {
                    journal.submit(global, Some(client), self.queue.shard_of(id), line);
                }
            }
            Err(SubmitError::ShutDown) => {
                mux.respond(
                    client,
                    error_line(client, "shutdown", "the server is shutting down"),
                );
            }
            // Queue-level load shedding decided this incoming request
            // is the weakest thing in a full backlog. The connection
            // survives; nothing was enqueued.
            Err(SubmitError::Overloaded) => {
                mux.respond(
                    client,
                    error_line(
                        client,
                        "overloaded",
                        "backlog at max-pending and this request has the lowest aged effective priority; retry later",
                    ),
                );
            }
        }
    }

    fn cancel(&self, client: usize, local: usize) {
        let mux = lock(&self.mux);
        let submitted = mux.clients[client].globals.len();
        if local >= submitted {
            let detail = format!(
                "request {local} is outside this client's namespace ({submitted} submitted)"
            );
            mux.respond(client, error_line(client, "unknown-id", &detail));
            return;
        }
        // In-namespace cancels of already-finished requests are silent
        // no-ops, matching LiveQueue::cancel semantics.
        let global = mux.clients[client].globals[local];
        if self.queue.cancel(RequestId::from(global)) {
            if let Some(journal) = &self.journal {
                journal.cancel(global);
            }
        }
    }

    fn stats(&self, client: usize) {
        let mux = lock(&self.mux);
        let mut counts = vec![0usize; mux.clients.len()];
        let mut mine: Vec<usize> = Vec::new();
        for (&_global, &(owner, local)) in &mux.outstanding {
            counts[owner] += 1;
            if owner == client {
                mine.push(local);
            }
        }
        mine.sort_unstable();
        let mut line =
            format!("{{\"v\": {WIRE_VERSION}, \"client\": {client}, \"stats\": {{\"clients\": [");
        for (id, count) in counts.iter().enumerate() {
            if id > 0 {
                line.push_str(", ");
            }
            let _ = write!(line, "{{\"client\": {id}, \"outstanding\": {count}}}");
        }
        line.push_str("], \"mine\": [");
        for (i, local) in mine.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(line, "{local}");
        }
        line.push_str("]}}\n");
        mux.respond(client, line);
    }
}

// ---------------------------------------------------------------------------
// The server

/// Front-end tunables beyond the queue's own [`LiveConfig`].
#[derive(Debug, Clone, Default)]
pub struct NetOptions {
    /// Per-client in-flight quota (`0` = unbounded, the default): a
    /// client with this many submissions outstanding gets an
    /// `overloaded` [`error_line`] instead of an accepted id, so one
    /// greedy client cannot monopolize the backlog. The connection is
    /// unaffected; draining one outcome frees one slot.
    pub max_inflight: usize,
    /// Optional write-ahead request journal (`--journal`): accepted
    /// submissions append before the accept returns, cancellations at
    /// accept, and every streamed outcome seals its id — so a killed
    /// daemon can deterministically resubmit exactly the
    /// accepted-but-unsealed set on restart.
    pub journal: Option<JournalBinding>,
}

/// A running multi-client front-end. See the [module docs](self) for
/// the protocol and disconnect semantics.
pub struct NetServer {
    shared: Arc<Shared>,
    addr: String,
    unix_path: Option<PathBuf>,
    accept: Option<JoinHandle<()>>,
    router: Option<JoinHandle<()>>,
    report: Option<BatchReport>,
}

impl NetServer {
    /// Starts the queue ([`ServeQueue::start`]: `shards = None` for one
    /// flat queue, `Some(n)` for `n` shards) and begins accepting
    /// connections on `listener`, parsing protocol lines with `parser`.
    pub fn start(
        config: LiveConfig,
        shards: Option<usize>,
        listener: NetListener,
        parser: LineParser,
    ) -> Self {
        Self::start_with_options(config, shards, listener, parser, NetOptions::default())
    }

    /// [`start`](Self::start) with explicit front-end tunables (the
    /// `--max-inflight` path of `tamopt serve`).
    pub fn start_with_options(
        config: LiveConfig,
        shards: Option<usize>,
        listener: NetListener,
        parser: LineParser,
        options: NetOptions,
    ) -> Self {
        let queue = ServeQueue::start(config, shards);
        let addr = listener.addr().to_owned();
        let unix_path = listener.unix_path.clone();
        let shared = Arc::new(Shared {
            queue,
            mux: Mutex::new(Mux::default()),
            shutdown: AtomicBool::new(false),
            parser,
            max_inflight: options.max_inflight,
            journal: options.journal,
            workers: Mutex::new(Vec::new()),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tamopt-net-accept".to_owned())
                .spawn(move || accept_loop(&shared, &listener))
                .expect("spawning the accept thread")
        };
        let router = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tamopt-net-router".to_owned())
                .spawn(move || router_loop(&shared))
                .expect("spawning the outcome router thread")
        };

        NetServer {
            shared,
            addr,
            unix_path,
            accept: Some(accept),
            router: Some(router),
            report: None,
        }
    }

    /// The bound endpoint (`ip:port` or socket path) — what clients
    /// connect to, after port-0 resolution.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops accepting, seals the queue (pending work surfaces as
    /// `cancelled`/`skipped` outcomes, streamed to still-connected
    /// clients), joins every thread and returns the final report:
    /// outcomes in **global** submission order, each stamped with the
    /// client that submitted it.
    pub fn shutdown(mut self) -> Option<BatchReport> {
        self.shutdown_inner();
        self.report.take()
    }

    fn shutdown_inner(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Sealing the queue emits bare outcomes for everything still
        // queued; the router streams them to connected clients, then
        // exits once the drained channel closes.
        let report = self.shared.queue.shutdown();
        if let Some(handle) = self.router.take() {
            let _ = handle.join();
        }
        // Close every writer channel (readers already exited on the
        // shutdown flag), then join the connection threads.
        for slot in &mut lock(&self.shared.mux).clients {
            slot.tx = None;
        }
        for handle in lock(&self.shared.workers).drain(..) {
            let _ = handle.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        self.report = report.map(|mut report| {
            let mux = lock(&self.shared.mux);
            debug_assert!(mux.outstanding.is_empty(), "an outcome leaked the router");
            for outcome in &mut report.outcomes {
                if let Some(&(client, _)) = mux.stamps.get(&outcome.index) {
                    outcome.client = Some(client);
                }
            }
            report
        });
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &NetListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => register(shared, conn),
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Registers an accepted connection: allocates the client id, sends the
/// greeting and spawns the connection's reader and writer threads.
fn register(shared: &Arc<Shared>, conn: Conn) {
    if conn.configure().is_err() {
        return;
    }
    let Ok(mut write_half) = conn.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<String>();
    let client = {
        let mut mux = lock(&shared.mux);
        mux.clients.push(ClientSlot {
            globals: Vec::new(),
            tx: Some(tx),
            disconnected: false,
        });
        mux.clients.len() - 1
    };

    let writer = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("tamopt-net-writer-{client}"))
            .spawn(move || {
                if write_half.write_line(&greeting_line(client)).is_err() {
                    shared.disconnect(client);
                    return;
                }
                // The unbounded channel is the backpressure buffer: a
                // slow reader accumulates lines here without ever
                // blocking the router or sibling clients.
                while let Ok(line) = rx.recv() {
                    if write_half.write_line(&line).is_err() {
                        shared.disconnect(client);
                        return;
                    }
                }
            })
            .expect("spawning a connection writer thread")
    };
    let reader = {
        let shared = Arc::clone(shared);
        let mut conn = conn;
        std::thread::Builder::new()
            .name(format!("tamopt-net-reader-{client}"))
            .spawn(move || {
                let mut framer = LineFramer::new();
                let mut buf = [0u8; 4096];
                loop {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        // Server-side close: not a client disconnect —
                        // pending work is sealed (and streamed) by
                        // NetServer::shutdown instead of cancelled.
                        return;
                    }
                    match conn.read_some(&mut buf) {
                        Ok(0) => {
                            if let Some(frame) = framer.finish() {
                                shared.handle_frame(client, frame);
                            }
                            shared.disconnect(client);
                            return;
                        }
                        Ok(n) => {
                            for frame in framer.push(&buf[..n]) {
                                shared.handle_frame(client, frame);
                            }
                        }
                        Err(err)
                            if err.kind() == io::ErrorKind::WouldBlock
                                || err.kind() == io::ErrorKind::TimedOut
                                || err.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            shared.disconnect(client);
                            return;
                        }
                    }
                }
            })
            .expect("spawning a connection reader thread")
    };
    lock(&shared.workers).extend([writer, reader]);
}

/// Drains the queue's merged outcome stream, rewriting each outcome to
/// the owning client's namespace (`index` = local id, `"client"`
/// stamped) and forwarding it to that client's writer. Outcomes of
/// disconnected clients are dropped here — their owner entries are
/// still removed, so a disconnect never leaks bookkeeping.
fn router_loop(shared: &Arc<Shared>) {
    while let Some(outcome) = shared.queue.recv_outcome() {
        // Seal before routing, and regardless of whether the owner is
        // still connected: the outcome has merged, so a crash from here
        // on must not redo the request.
        if let Some(journal) = &shared.journal {
            journal.sealed(outcome.index);
        }
        let mut mux = lock(&shared.mux);
        let Some((client, local)) = mux.outstanding.remove(&outcome.index) else {
            continue;
        };
        if mux.clients[client].tx.is_none() {
            continue;
        }
        let mut outcome = outcome;
        outcome.client = Some(client);
        outcome.index = local;
        let line = outcome.to_json_line();
        mux.respond(client, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_splits_and_merges() {
        let mut framer = LineFramer::new();
        assert_eq!(framer.push(b"hel"), vec![]);
        assert_eq!(framer.push(b"lo\nwor"), vec![Frame::Line("hello".into())]);
        assert_eq!(
            framer.push(b"ld\r\nrest"),
            vec![Frame::Line("world".into())]
        );
        assert_eq!(framer.finish(), Some(Frame::Line("rest".into())));
        assert_eq!(framer.finish(), None);
    }

    #[test]
    fn framer_recovers_from_oversized_lines() {
        let mut framer = LineFramer::new();
        let big = vec![b'x'; MAX_LINE_LEN + 7];
        assert_eq!(framer.push(&big), vec![]);
        assert_eq!(
            framer.push(b"tail\nok\n"),
            vec![Frame::Oversized, Frame::Line("ok".into())]
        );
        // Exactly MAX_LINE_LEN bytes still frame as a line.
        let exact = vec![b'y'; MAX_LINE_LEN];
        let mut frames = framer.push(&exact);
        frames.extend(framer.push(b"\n"));
        assert_eq!(frames.len(), 1);
        assert!(matches!(&frames[0], Frame::Line(l) if l.len() == MAX_LINE_LEN));
    }

    #[test]
    fn error_lines_are_versioned_and_escaped() {
        let line = error_line(3, "parse", "bad \"soc\"");
        assert_eq!(
            line,
            "{\"v\": 1, \"client\": 3, \"error\": \"parse\", \"detail\": \"bad \\\"soc\\\"\"}\n"
        );
    }
}
