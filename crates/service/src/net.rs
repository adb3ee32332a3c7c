//! TCP / unix-socket front-end multiplexing many clients onto one
//! queue.
//!
//! A [`NetServer`] binds a [`NetListener`] and serves the line protocol
//! of `tamopt serve` to any number of concurrent connections, all
//! feeding one [`LiveQueue`]:
//!
//! * every connection gets a **client id** `C`, announced by a greeting
//!   line and stamped into every outcome line as `"client": C`;
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
//! `tamopt serve`'s stdin live mode runs on the same session layer as
//! one session with no listener ([`NetServer::serve_stdin`]): its lines
//! go to stdout unstamped, its [`Refusal`]s to stderr, and the end of
//! its input drains the queue instead of cancelling. A failed stdout
//! write ends it the way a hang-up ends a socket session.
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

use crate::live::{JournalBinding, LiveConfig, LiveQueue, RequestId, SubmitError};
use crate::report::{json_string, BatchReport, WIRE_VERSION};
use crate::request::Request;

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
    /// Report the backlog: per-client outstanding counts to a socket
    /// client, the queue's own snapshot to the stdin session.
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

/// Why the session layer turned a line down. A socket connection is
/// answered with the refusal's [`error_line`]; the stdin session prints
/// a `serve: line N:` note on stderr instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// The [`LineParser`] rejected the line; the message names why.
    Parse(String),
    /// A line grew past [`MAX_LINE_LEN`] before its newline.
    Oversized,
    /// A submission arrived after the server sealed its queue.
    Shutdown,
    /// Backlog shedding: the backlog is at max-pending and this request
    /// has the lowest aged effective priority.
    Overloaded,
    /// The session already has this many submissions in flight, its
    /// [`NetOptions::max_inflight`] quota.
    Quota(usize),
    /// A cancel named a local id the session never submitted.
    UnknownId {
        /// The id the cancel named.
        id: usize,
        /// How many submissions the session has made.
        submitted: usize,
    },
}

impl Refusal {
    /// The refusal as the versioned [`error_line`] sent to `client`.
    pub fn error_line(&self, client: usize) -> String {
        let (code, detail) = match self {
            Refusal::Parse(detail) => ("parse", detail.clone()),
            Refusal::Oversized => (
                "oversized",
                format!("line exceeds {MAX_LINE_LEN} bytes; discarded up to the next newline"),
            ),
            Refusal::Shutdown => ("shutdown", "the server is shutting down".to_owned()),
            Refusal::Overloaded => (
                "overloaded",
                "backlog at max-pending and this request has the lowest aged effective \
                 priority; retry later"
                    .to_owned(),
            ),
            Refusal::Quota(quota) => (
                "overloaded",
                format!(
                    "client has {quota} request(s) in flight (quota {quota}); drain an outcome \
                     and retry"
                ),
            ),
            Refusal::UnknownId { id, submitted } => (
                "unknown-id",
                format!("request {id} is outside this client's namespace ({submitted} submitted)"),
            ),
        };
        error_line(client, code, &detail)
    }

    /// The stdin session's note for the refusal, and whether it fails
    /// the run. Load shedding and the quota are operational states, not
    /// input errors, so they do not.
    fn stdin_note(&self) -> (String, bool) {
        match self {
            Refusal::Parse(detail) => (detail.clone(), true),
            Refusal::Oversized => (format!("line exceeds {MAX_LINE_LEN} bytes"), true),
            Refusal::Shutdown => ("queue is shut down".to_owned(), true),
            Refusal::Overloaded => (
                "overloaded — request shed (backlog at max-pending)".to_owned(),
                false,
            ),
            Refusal::Quota(quota) => (
                format!(
                    "overloaded — request refused ({quota} request(s) in flight, quota {quota})"
                ),
                false,
            ),
            Refusal::UnknownId { id, .. } => (format!("unknown request id {id}"), true),
        }
    }
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
        // a timeout so it can poll the shutdown flag. Each reply line is
        // one write, so TCP sends it at once instead of holding it for
        // Nagle's algorithm until the client acknowledges the last one.
        match self {
            Conn::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
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

/// Where a session's reply and outcome lines go.
#[derive(Clone)]
enum Sink {
    /// A socket connection's writer thread. The unbounded channel is the
    /// backpressure buffer: a slow reader accumulates lines here without
    /// ever blocking the router or sibling clients.
    Writer(Sender<String>),
    /// The stdin session: stdout, written synchronously. Each line takes
    /// the stdout lock, is flushed and lets the lock go.
    Stdout,
}

impl Sink {
    /// Writes `line`; only stdout can fail.
    fn send(&self, line: String) -> io::Result<()> {
        match self {
            // A racing disconnect closes the channel; dropping the line
            // then is exactly the disconnect semantics.
            Sink::Writer(tx) => {
                let _ = tx.send(line);
                Ok(())
            }
            Sink::Stdout => {
                let mut out = io::stdout().lock();
                out.write_all(line.as_bytes())?;
                out.flush()
            }
        }
    }
}

/// Per-session state inside the [`Mux`].
struct ClientSlot {
    /// Local id → global id, in this session's submission order.
    globals: Vec<usize>,
    /// The `"client"` stamp of the session's outcome lines, journal
    /// records and report entries: `Some(id)` for a socket client,
    /// `None` for the stdin session, whose bytes carry no stamp.
    stamp: Option<usize>,
    /// `None` once the client disconnected or the server is closing.
    sink: Option<Sink>,
}

/// Global id ↔ session bookkeeping shared by readers and the router.
#[derive(Default)]
struct Mux {
    clients: Vec<ClientSlot>,
    /// Global id → (client, local id) for submissions whose outcome has
    /// not streamed yet. Entries are removed by the router as outcomes
    /// arrive — an empty map after drain proves nothing leaked.
    outstanding: HashMap<usize, (usize, usize)>,
}

struct Shared {
    queue: LiveQueue,
    mux: Mutex<Mux>,
    shutdown: AtomicBool,
    parser: LineParser,
    /// Per-session in-flight quota ([`NetOptions::max_inflight`]).
    max_inflight: usize,
    /// Write-ahead request journal ([`NetOptions::journal`]): accepted
    /// submissions and cancellations append at accept time, outcomes
    /// seal as they stream.
    journal: Option<JournalBinding>,
    /// Reader and writer thread handles, joined at shutdown.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The first failed stdout write, returned by
    /// [`NetServer::serve_stdin`].
    stdout_error: Mutex<Option<io::Error>>,
}

impl Shared {
    fn add_session(&self, sink: Sink, stamped: bool) -> usize {
        let mut mux = lock(&self.mux);
        let client = mux.clients.len();
        mux.clients.push(ClientSlot {
            globals: Vec::new(),
            stamp: stamped.then_some(client),
            sink: Some(sink),
        });
        client
    }

    /// Sends `line` to `client`'s sink, if it still has one. The mux
    /// lock is released before the write: the stdout sink can block.
    fn respond(&self, client: usize, line: String) {
        let sink = lock(&self.mux).clients[client].sink.clone();
        if let Some(sink) = sink {
            self.deliver(client, &sink, line);
        }
    }

    /// Writes `line` to `sink`, `client`'s. A failed stdout write ends
    /// the session the way a socket client's disconnect does, and the
    /// first such error is kept.
    fn deliver(&self, client: usize, sink: &Sink, line: String) {
        if let Err(e) = sink.send(line) {
            lock(&self.stdout_error).get_or_insert(e);
            self.disconnect(client);
        }
    }

    fn is_connected(&self, client: usize) -> bool {
        lock(&self.mux).clients[client].sink.is_some()
    }

    /// Idempotent disconnect: cancels every outstanding submission of
    /// `client` and closes its sink. Queued requests surface as
    /// `cancelled` outcomes, dispatched ones finish truncated at the
    /// next barrier; the router drops both on arrival (the client is
    /// gone) while the final report keeps them.
    fn disconnect(&self, client: usize) {
        let mut mux = lock(&self.mux);
        if mux.clients[client].sink.take().is_none() {
            return;
        }
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

    fn apply_line(&self, client: usize, line: &str) -> Result<(), Refusal> {
        match (self.parser)(line).map_err(Refusal::Parse)? {
            None => Ok(()),
            Some(NetDirective::Submit(request)) => self.submit(client, request, line),
            Some(NetDirective::Cancel(local)) => self.cancel(client, local),
            Some(NetDirective::Stats) => {
                let reply = self.stats_line(client);
                self.respond(client, reply);
                Ok(())
            }
        }
    }

    fn submit(&self, client: usize, request: Request, line: &str) -> Result<(), Refusal> {
        // The mux lock is held across the queue submit (the queue's own
        // locks nest inside it; the router takes the mux lock alone) so
        // the router can never see a global id before its owner entry.
        let mut mux = lock(&self.mux);
        if mux.clients[client].sink.is_none() {
            return Ok(());
        }
        // Per-session quota: one greedy client cannot crowd out its
        // siblings. Refused submissions consume no id (local or
        // global) — the client retries after draining an outcome.
        if self.max_inflight > 0 {
            let outstanding = mux.outstanding.values().filter(|o| o.0 == client).count();
            if outstanding >= self.max_inflight {
                return Err(Refusal::Quota(self.max_inflight));
            }
        }
        let (id, _) = self.queue.submit(request).map_err(|e| match e {
            SubmitError::ShutDown => Refusal::Shutdown,
            SubmitError::Overloaded => Refusal::Overloaded,
        })?;
        let global = id.index();
        let slot = &mut mux.clients[client];
        let local = slot.globals.len();
        slot.globals.push(global);
        let stamp = slot.stamp;
        mux.outstanding.insert(global, (client, local));
        // Journal at accept, inside the mux lock: the append lands
        // before any later accept (or this request's own seal) can, so
        // journal order matches accept order.
        if let Some(journal) = &self.journal {
            journal.submit(global, stamp, line);
        }
        Ok(())
    }

    fn cancel(&self, client: usize, local: usize) -> Result<(), Refusal> {
        let mux = lock(&self.mux);
        let globals = &mux.clients[client].globals;
        let Some(&global) = globals.get(local) else {
            return Err(Refusal::UnknownId {
                id: local,
                submitted: globals.len(),
            });
        };
        // In-namespace cancels of already-finished requests are silent
        // no-ops, matching LiveQueue::cancel semantics.
        if self.queue.cancel(RequestId::from(global)) {
            if let Some(journal) = &self.journal {
                journal.cancel(global);
            }
        }
        Ok(())
    }

    /// The `stats` reply: the queue's backlog snapshot for the stdin
    /// session, per-client outstanding counts for a socket client.
    fn stats_line(&self, client: usize) -> String {
        let mux = lock(&self.mux);
        if mux.clients[client].stamp.is_none() {
            drop(mux);
            return format!("{}\n", self.queue.stats_json());
        }
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
        line
    }
}

// ---------------------------------------------------------------------------
// The server

/// Front-end tunables beyond the queue's own [`LiveConfig`].
#[derive(Debug, Clone, Default)]
pub struct NetOptions {
    /// Per-session in-flight quota (`0` = unbounded, the default): a
    /// session with this many submissions outstanding is refused with
    /// [`Refusal::Quota`] instead of getting an id, so one greedy client
    /// cannot monopolize the backlog. The session is unaffected;
    /// draining one outcome frees one slot.
    pub max_inflight: usize,
    /// Optional write-ahead request journal (`--journal`): accepted
    /// submissions append before the accept returns, cancellations at
    /// accept, and every streamed outcome seals its id — so a killed
    /// daemon can deterministically resubmit exactly the
    /// accepted-but-unsealed set on restart.
    pub journal: Option<JournalBinding>,
}

/// A running session layer: a multi-client socket front-end, or the
/// stdin session of [`NetServer::serve_stdin`]. See the
/// [module docs](self) for the protocol and disconnect semantics.
pub struct NetServer {
    shared: Arc<Shared>,
    addr: String,
    unix_path: Option<PathBuf>,
    accept: Option<JoinHandle<()>>,
    router: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Starts the queue ([`LiveQueue::start`]) and begins accepting
    /// connections on `listener`, parsing protocol lines with `parser`.
    pub fn start(config: LiveConfig, listener: NetListener, parser: LineParser) -> Self {
        Self::start_with_options(config, listener, parser, NetOptions::default())
    }

    /// [`start`](Self::start) with explicit front-end tunables (the
    /// `--max-inflight` path of `tamopt serve`).
    pub fn start_with_options(
        config: LiveConfig,
        listener: NetListener,
        parser: LineParser,
        options: NetOptions,
    ) -> Self {
        Self::launch(config, Some(listener), parser, options)
    }

    /// Runs `tamopt serve`'s stdin live mode: one unstamped session with
    /// no listener, fed `lines` (numbered from 0). Outcome and `stats`
    /// lines go to stdout, refusals to stderr as `serve: line N: …`
    /// notes. The end of `lines` shuts the server down and drains the
    /// queue; it is not a disconnect, so nothing is cancelled. Returns
    /// the final report and the number of lines that fail the run.
    ///
    /// # Errors
    ///
    /// The first failed stdout write. It disconnects the session, as a
    /// socket client's hang-up does: the session's outstanding
    /// submissions are cancelled, and no line is read after the failure
    /// is seen (a reply to a line is written before the next is read).
    pub fn serve_stdin(
        config: LiveConfig,
        parser: LineParser,
        options: NetOptions,
        lines: impl IntoIterator<Item = (usize, io::Result<String>)>,
    ) -> io::Result<(Option<BatchReport>, usize)> {
        let server = Self::launch(config, None, parser, options);
        let shared = Arc::clone(&server.shared);
        let client = shared.add_session(Sink::Stdout, false);
        let mut lines = lines.into_iter();
        let mut failed = 0;
        while shared.is_connected(client) {
            let Some((number, line)) = lines.next() else {
                break;
            };
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    eprintln!("serve: cannot read stdin: {e}");
                    failed += 1;
                    break;
                }
            };
            if let Err(refusal) = shared.apply_line(client, &line) {
                let (note, fails) = refusal.stdin_note();
                eprintln!("serve: line {}: {note}", number + 1);
                failed += usize::from(fails);
            }
        }
        let report = server.shutdown();
        let stdout_error = lock(&shared.stdout_error).take();
        stdout_error.map_or(Ok((report, failed)), Err)
    }

    fn launch(
        config: LiveConfig,
        listener: Option<NetListener>,
        parser: LineParser,
        options: NetOptions,
    ) -> Self {
        let queue = LiveQueue::start(config);
        let addr = listener
            .as_ref()
            .map(|l| l.addr().to_owned())
            .unwrap_or_default();
        let unix_path = listener.as_ref().and_then(|l| l.unix_path.clone());
        let shared = Arc::new(Shared {
            queue,
            mux: Mutex::new(Mux::default()),
            shutdown: AtomicBool::new(false),
            parser,
            max_inflight: options.max_inflight,
            journal: options.journal,
            workers: Mutex::new(Vec::new()),
            stdout_error: Mutex::new(None),
        });

        let accept = listener.map(|listener| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tamopt-net-accept".to_owned())
                .spawn(move || accept_loop(&shared, &listener))
                .expect("spawning the accept thread")
        });
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
            accept,
            router: Some(router),
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
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Option<BatchReport> {
        let router = self.router.take()?;
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Sealing the queue emits bare outcomes for everything still
        // queued; the router streams them to connected clients, then
        // exits once the drained channel closes.
        let report = self.shared.queue.shutdown();
        let _ = router.join();
        // Close every sink (readers already exited on the shutdown
        // flag), then join the connection threads.
        for slot in &mut lock(&self.shared.mux).clients {
            slot.sink = None;
        }
        for handle in lock(&self.shared.workers).drain(..) {
            let _ = handle.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        report.map(|mut report| {
            let mux = lock(&self.shared.mux);
            debug_assert!(mux.outstanding.is_empty(), "an outcome leaked the router");
            // The report lists one outcome per accepted id, in id order.
            for slot in &mux.clients {
                for &global in &slot.globals {
                    if let Some(outcome) = report.outcomes.get_mut(global) {
                        outcome.client = slot.stamp;
                    }
                }
            }
            report
        })
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
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
    let client = shared.add_session(Sink::Writer(tx), true);

    let writer = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("tamopt-net-writer-{client}"))
            .spawn(move || {
                if write_half.write_line(&greeting_line(client)).is_err() {
                    shared.disconnect(client);
                    return;
                }
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
                let handle_frame = |frame: Frame| {
                    let applied = match frame {
                        Frame::Oversized => Err(Refusal::Oversized),
                        Frame::Line(text) => shared.apply_line(client, &text),
                    };
                    if let Err(refusal) = applied {
                        shared.respond(client, refusal.error_line(client));
                    }
                };
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
                                handle_frame(frame);
                            }
                            shared.disconnect(client);
                            return;
                        }
                        Ok(n) => {
                            for frame in framer.push(&buf[..n]) {
                                handle_frame(frame);
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
/// the owning session's namespace (`index` = local id, `"client"` =
/// the session's stamp) and handing it to that session's sink.
/// Outcomes of disconnected clients are dropped here — their owner
/// entries are still removed, so a disconnect never leaks bookkeeping.
fn router_loop(shared: &Arc<Shared>) {
    while let Some(mut outcome) = shared.queue.recv_outcome() {
        let global = outcome.index;
        let route = {
            let mut mux = lock(&shared.mux);
            mux.outstanding.remove(&global).and_then(|(client, local)| {
                let slot = &mux.clients[client];
                Some((client, slot.sink.clone()?, slot.stamp, local))
            })
        };
        if let Some((client, sink, stamp, local)) = route {
            outcome.client = stamp;
            outcome.index = local;
            shared.deliver(client, &sink, outcome.to_json_line());
        }
        // Seal only after the line reached its sink (or was dropped with
        // its gone owner): a crash before this redoes the request rather
        // than losing its outcome, and the merged outcome is never redone
        // after it.
        if let Some(journal) = &shared.journal {
            journal.sealed(global);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_tcp_sockets_disable_nagle() {
        let listener = NetListener::tcp("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.addr()).unwrap();
        let conn = loop {
            match listener.accept() {
                Ok(conn) => break conn,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(err) => panic!("accept failed: {err}"),
            }
        };
        conn.configure().unwrap();
        let Conn::Tcp(stream) = &conn else {
            panic!("a TCP listener accepts TCP connections")
        };
        assert!(stream.nodelay().unwrap());
    }

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
    fn framing_does_not_depend_on_chunking() {
        // A realistic line mix (a `\r\n` ending, a `stats` line, a bad
        // line), repeated past a few MTUs and cut mid-line at the end.
        let mix = b"d695 16 2\np31108 24 3\ncancel 0\nstats\r\nnot a request\n";
        let stream: Vec<u8> = mix.iter().copied().cycle().take(5000).collect();
        let frame_all = |step: usize| {
            let mut framer = LineFramer::new();
            let mut frames: Vec<Frame> = stream
                .chunks(step)
                .flat_map(|piece| framer.push(piece))
                .collect();
            frames.extend(framer.finish());
            frames
        };
        let whole = frame_all(stream.len());
        assert!(whole.contains(&Frame::Line("stats".into())));
        assert!(whole.contains(&Frame::Line("not a request".into())));
        for step in [1400, 7, 1] {
            assert_eq!(frame_all(step), whole, "{step}-byte chunks");
        }
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
