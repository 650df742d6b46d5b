//! The request core: per-connection reader/writer threads → the bounded
//! request queue → a scoring worker pool. Two transports feed it: TCP
//! ([`Server`]: an acceptor hands every connection a reader and a writer)
//! and stdio ([`serve_stdio`]: stdin is read like one connection and its
//! replies go to stdout), so both answer through the same
//! `reader_loop` → `BoundedQueue` → `worker_loop` → `writer_loop`.
//!
//! Ordering invariant: a connection's responses arrive in request order
//! even though batches interleave requests from many connections. The
//! reader enqueues one single-use reply channel per request line (error
//! replies are pre-resolved), and the writer drains those channels
//! strictly in enqueue order — pipelined clients just see their answers
//! come back in sequence. In-band admin commands travel the same channel
//! and are rendered by the writer, so `health`/`stats` reflect every
//! earlier reply on the connection.
//!
//! Bit-identity invariant: workers answer every pair request in a batch
//! through one [`InferenceEngine::score_coalesced`] call, which is proven
//! (conformance suite `coalesce_identity`) to return per request exactly
//! the bits a solo `score_batch` call returns — so coalescing is invisible
//! to clients, byte for byte.
//!
//! Trace invariant: every request is stamped with a
//! [`TraceContext`] (monotonic id + ingress instant) in its reader thread
//! and carries it through queue → batch → worker → writer. When telemetry
//! is live the four `serve.stage.*_ns` histograms decompose
//! `serve.request.latency_ns` *exactly* — the stage boundaries reuse or
//! telescope between the same clock reads, so per-request
//! `queue_wait + batch_form + score + write == total`. When telemetry is
//! off the pipeline adds only the id's relaxed `fetch_add` per request
//! over the pre-existing ingress clock read; no stage reads a clock.

use crate::protocol::{self, LineEvent, LineReader, MAX_LINE_BYTES};
use crate::queue::BoundedQueue;
use crate::stats;
use agnn_infer::InferenceEngine;
use agnn_obs::trace::{self, TraceContext};
use agnn_obs::{log, metrics, Field};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often an idle connection reader wakes up to check for shutdown.
const READ_TICK: Duration = Duration::from_millis(25);

/// Serving knobs; the CLI maps `--batch-window-us`, `--max-batch`,
/// `--workers`, `--topk` and `--stats-every` onto this (`serve --stdin`
/// pins `workers: 1, max_batch: 1`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// How long a worker keeps a batch open after its first request.
    pub batch_window: Duration,
    /// Most requests coalesced into one scoring batch.
    pub max_batch: usize,
    /// Scoring worker threads.
    pub workers: usize,
    /// Bound of the in-flight request queue; readers block when full.
    pub queue_capacity: usize,
    /// `Some(k)`: request lines are user ids, answered with top-k
    /// retrieval instead of pair scoring.
    pub topk: Option<usize>,
    /// Print a stats line every N answered requests (0 = never).
    pub stats_every: usize,
    /// `Some(t)`: any request whose end-to-end latency reaches `t` emits a
    /// stage-breakdown exemplar event through the trace sink
    /// (`--trace-slow-ms`; `Some(ZERO)` traces every request).
    pub trace_slow: Option<Duration>,
    /// `Some(addr)`: bind a dedicated admin listener (`--admin`) answering
    /// `health`/`stats`/`metrics` without competing with scoring traffic.
    pub admin: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch_window: Duration::from_micros(200),
            max_batch: 64,
            workers: 4,
            queue_capacity: 1024,
            topk: None,
            stats_every: 0,
            trace_slow: None,
            admin: None,
        }
    }
}

/// What a finished server saw over its lifetime.
#[derive(Clone, Copy, Debug)]
pub struct ServeSummary {
    pub connections: u64,
    pub requests: u64,
    pub served_pairs: u64,
}

enum Payload {
    Pairs(Vec<(u32, u32)>),
    TopK(u32),
}

struct Request {
    payload: Payload,
    reply: mpsc::Sender<Reply>,
    /// Stamped in the reader thread the moment the line parsed.
    ctx: TraceContext,
}

/// One response travelling to a connection writer.
enum Reply {
    /// A scored request. `meta` is `None` whenever telemetry is fully off —
    /// the writer then does nothing but write, reading no clock.
    Answer { body: String, meta: Option<ReplyMeta> },
    /// An error or ack line for a request that never reached the queue.
    Text(String),
    /// An in-band admin command, rendered by the writer once every earlier
    /// reply on the connection has been flushed.
    Admin(protocol::AdminCommand),
}

/// The writer side of one connection: one reply receiver per request line,
/// in request order.
type ReplySender = mpsc::Sender<mpsc::Receiver<Reply>>;

/// Stage timestamps a worker hands the writer so the final two stages
/// (write + total) can be stamped after the flush, where the request
/// actually ends.
struct ReplyMeta {
    ctx: TraceContext,
    queue_wait_ns: u64,
    batch_form_ns: u64,
    score_ns: u64,
    /// When the worker handed the reply over (end of the score stage).
    sent: Instant,
    /// `""` for pair requests, `"top-k "` for retrieval (stats-line kind).
    kind: &'static str,
    /// Pairs (or ranked items) in this request.
    pairs: u64,
    /// Batch-level context, shared by every request in the batch; only
    /// built when slow-request exemplars can actually be emitted.
    batch: Option<Arc<BatchExemplar>>,
}

/// What a slow-request exemplar records about the batch that carried the
/// outlier: its size and the warm/SCS mix of its scored pairs.
struct BatchExemplar {
    size: usize,
    warm_pairs: u64,
    scs_pairs: u64,
}

struct Shared {
    engine: Arc<InferenceEngine>,
    cfg: ServeConfig,
    /// Listener addresses [`Shared::begin_shutdown`] connects to, waking
    /// their acceptors (none for stdio).
    wake: Vec<SocketAddr>,
    queue: BoundedQueue<Request>,
    shutdown: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    served_pairs: AtomicU64,
    /// Answers handed to connection writers, counted just before the write:
    /// the "answered" figure `health`/`stats` report (a writer's count
    /// covers exactly its earlier replies) and the stats-line cadence.
    written: AtomicU64,
}

impl Shared {
    /// Builds the shared state and spawns the scoring workers — the part of
    /// startup both transports share.
    fn start(
        engine: Arc<InferenceEngine>,
        cfg: ServeConfig,
        wake: Vec<SocketAddr>,
    ) -> Result<(Arc<Shared>, Vec<JoinHandle<()>>), String> {
        let workers = cfg.workers.max(1);
        let capacity = cfg.queue_capacity;
        let shared = Arc::new(Shared {
            engine,
            cfg,
            wake,
            queue: BoundedQueue::new(capacity),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            served_pairs: AtomicU64::new(0),
            written: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let sh = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name("agnn-serve-worker".into())
                .spawn(move || worker_loop(&sh))
                .map_err(|e| format!("serve: cannot spawn worker: {e}"))?;
            handles.push(h);
        }
        Ok((shared, handles))
    }

    /// The last drain step of both transports, once every writer is done:
    /// close the queue, let the workers finish, join them, print the stats
    /// line for a tail that missed the `stats_every` period, and report
    /// totals.
    fn drain(&self, workers: Vec<JoinHandle<()>>) -> ServeSummary {
        self.queue.close();
        for h in workers {
            let _ = h.join();
        }
        let written = self.written.load(Ordering::Relaxed);
        if self.cfg.stats_every > 0 && written % self.cfg.stats_every as u64 != 0 {
            let (hist, kind) = self.stats_source();
            stats::report(hist, kind, written as usize);
        }
        ServeSummary {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            served_pairs: self.served_pairs.load(Ordering::Relaxed),
        }
    }

    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptors out of their blocking `accept`; if a listener
        // is already gone the connect just fails, which is fine.
        for addr in &self.wake {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(250));
        }
    }

    /// Renders an admin command's body with the answered count as of now.
    fn admin_response(&self, cmd: protocol::AdminCommand) -> String {
        let (hist, kind) = self.stats_source();
        stats::admin_response(cmd, hist, kind, self.written.load(Ordering::Relaxed) as usize)
    }

    /// Which latency histogram + stats-line kind this server's surface
    /// reports (pair scoring vs top-k retrieval).
    fn stats_source(&self) -> (&'static str, &'static str) {
        if self.cfg.topk.is_some() {
            ("serve.topk.latency_ns", "top-k ")
        } else {
            ("serve.request.latency_ns", "")
        }
    }
}

/// A running server. Drop order is irrelevant — [`Server::wait`] owns the
/// join choreography.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    acceptor: Option<JoinHandle<()>>,
    admin_acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

fn lock_conns(conns: &Mutex<Vec<JoinHandle<()>>>) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
    conns.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Server {
    /// Binds `listen` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the acceptor and worker threads.
    pub fn start(engine: Arc<InferenceEngine>, listen: &str, cfg: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(listen).map_err(|e| format!("serve: cannot bind {listen}: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("serve: no local address: {e}"))?;
        let admin_listener = match cfg.admin.as_deref() {
            Some(admin) => {
                let l = TcpListener::bind(admin).map_err(|e| format!("serve: cannot bind admin {admin}: {e}"))?;
                Some(l)
            }
            None => None,
        };
        let admin_addr = match &admin_listener {
            Some(l) => Some(l.local_addr().map_err(|e| format!("serve: no admin local address: {e}"))?),
            None => None,
        };
        let (shared, workers) = Shared::start(engine, cfg, std::iter::once(addr).chain(admin_addr).collect())?;
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let sh = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("agnn-serve-accept".into())
                .spawn(move || accept_loop(&listener, &sh, &conns, "agnn-serve-conn", "", handle_connection))
                .map_err(|e| format!("serve: cannot spawn acceptor: {e}"))?
        };
        // Scrape traffic gets its own listener instead of competing with
        // scoring connections for queue slots.
        let admin_acceptor = match admin_listener {
            Some(l) => {
                let sh = Arc::clone(&shared);
                let conns = Arc::clone(&conns);
                let h = std::thread::Builder::new()
                    .name("agnn-serve-admin".into())
                    .spawn(move || {
                        accept_loop(&l, &sh, &conns, "agnn-serve-admin-conn", "admin ", |s, sh, _| admin_connection(s, sh))
                    })
                    .map_err(|e| format!("serve: cannot spawn admin acceptor: {e}"))?;
                Some(h)
            }
            None => None,
        };
        Ok(Server { shared, addr, admin_addr, acceptor: Some(acceptor), admin_acceptor, workers, conns })
    }

    /// The bound address (resolves `:0` to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin-plane address, when `--admin` is configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// Starts a graceful shutdown: stop accepting, let connection readers
    /// finish their buffered lines, then drain the queue. Idempotent; the
    /// in-band `shutdown` request line calls this too.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Joins everything in drain order — acceptor, connection readers and
    /// writers, then (queue closed) the workers — and reports totals.
    /// Every request accepted into the queue has been answered when this
    /// returns.
    pub fn wait(mut self) -> ServeSummary {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.admin_acceptor.take() {
            let _ = h.join();
        }
        // Readers may still be registering writer handles while we drain,
        // so keep draining until the vec stays empty.
        loop {
            let handles: Vec<JoinHandle<()>> = lock_conns(&self.conns).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        self.shared.drain(std::mem::take(&mut self.workers))
    }
}

/// Serves stdin as one connection of the request core: request lines are
/// read from stdin and every reply goes to stdout, through the same reader,
/// queue, workers and writer as a TCP connection. Blocks until a blank
/// line, EOF or `shutdown`, then drains in order: the reader stops, the
/// writer flushes every reply, the queue closes, the workers are joined.
/// `Err` is a stdin read failure (never a bad request line, which is
/// answered in-band); every request read before it is still answered.
pub fn serve_stdio(engine: Arc<InferenceEngine>, cfg: ServeConfig) -> std::io::Result<ServeSummary> {
    let (shared, workers) = Shared::start(engine, cfg, Vec::new()).map_err(std::io::Error::other)?;
    let mut writer = None;
    let read = run_session(std::io::stdin().lock(), std::io::stdout(), "stdin", &shared, |h| writer = Some(h));
    if let Some(h) = writer {
        let _ = h.join();
    }
    let summary = shared.drain(workers);
    read.map(|()| summary)
}

/// A connection handler: the accepted stream, the server state and the
/// connection-handle vec a handler registers its writer thread in.
type Handler = fn(TcpStream, &Arc<Shared>, &Arc<Mutex<Vec<JoinHandle<()>>>>);

/// Accepts on `listener` until shutdown, running `handle` for each
/// connection on a thread named `thread`; `what` prefixes the warn lines
/// (`""` for scoring, `"admin "` for the `--admin` plane). Both acceptors
/// are woken by [`Shared::begin_shutdown`]'s self-connect, and every
/// handler is joined through the shared connection-handle vec.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    thread: &str,
    what: &str,
    handle: Handler,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                if let Err(e) = set_accepted_options(&stream) {
                    log::warn(format!("serve: {what}cannot set TCP_NODELAY: {e}"));
                }
                let sh = Arc::clone(shared);
                let cs = Arc::clone(conns);
                let spawned = std::thread::Builder::new().name(thread.into()).spawn(move || handle(stream, &sh, &cs));
                match spawned {
                    Ok(h) => lock_conns(conns).push(h),
                    Err(e) => log::warn(format!("serve: cannot spawn {what}connection thread: {e}")),
                }
            }
            Err(e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                log::warn(format!("serve: {what}accept failed: {e}"));
            }
        }
    }
}

/// Socket options of every accepted connection, scoring and admin alike.
/// Replies are short lines written as they are ready, so Nagle's algorithm
/// would hold a reply back until the client acknowledged the previous one.
fn set_accepted_options(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)
}

/// One admin connection: strictly sequential line-in/response-out (no
/// queue, no writer thread — admin answers never wait behind scoring).
/// Unknown lines get an `error:` reply; blank line or EOF ends the
/// session, exactly like the scoring surfaces.
fn admin_connection(stream: TcpStream, shared: &Arc<Shared>) {
    metrics::counter_add("serve.admin.connections", 1);
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
    if let Err(e) = stream.set_read_timeout(Some(READ_TICK)) {
        log::warn(format!("serve: admin {peer}: cannot set read timeout: {e}"));
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            log::warn(format!("serve: admin {peer}: cannot clone connection: {e}"));
            return;
        }
    };
    let _ = write_half.set_write_timeout(Some(Duration::from_secs(5)));
    let mut out = std::io::BufWriter::new(write_half);
    let mut lines = LineReader::new(stream, MAX_LINE_BYTES);
    loop {
        let event = match lines.poll_line() {
            Ok(None) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Ok(Some(ev)) => ev,
            Err(e) => {
                log::warn(format!("serve: admin {peer}: connection error: {e}"));
                break;
            }
        };
        let body = match event {
            LineEvent::Eof => break,
            LineEvent::TooLong => format!("error: admin line exceeds {MAX_LINE_BYTES} bytes"),
            LineEvent::Line(bytes) => {
                let Ok(text) = String::from_utf8(bytes) else {
                    write_admin(&mut out, &peer, "error: admin line is not valid UTF-8");
                    continue;
                };
                let line = text.trim();
                if line.is_empty() {
                    break;
                }
                match protocol::parse_admin(line) {
                    Some(cmd) => shared.admin_response(cmd),
                    None => format!("error: unknown admin command {line:?} (try health, stats, metrics, metrics json)"),
                }
            }
        };
        if !write_admin(&mut out, &peer, &body) {
            break;
        }
    }
}

/// Writes one admin response body plus the line delimiter; false when the
/// scraper went away.
fn write_admin(out: &mut std::io::BufWriter<TcpStream>, peer: &str, body: &str) -> bool {
    let wrote = out.write_all(body.as_bytes()).and_then(|()| out.write_all(b"\n")).and_then(|()| out.flush());
    if let Err(e) = wrote {
        log::warn(format!("serve: admin {peer}: write failed: {e}"));
        return false;
    }
    true
}

/// Answers a request line that never reached the queue (parse/range
/// errors, shutdown acks, admin commands) while preserving response
/// order: the reply channel is pre-resolved and takes its place in the
/// writer's sequence.
fn respond_now(resp_tx: &ReplySender, reply: Reply) {
    let (tx, rx) = mpsc::channel();
    let _ = tx.send(reply);
    let _ = resp_tx.send(rx);
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, conns: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    shared.connections.fetch_add(1, Ordering::Relaxed);
    metrics::counter_add("serve.connections", 1);
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
    if let Err(e) = stream.set_read_timeout(Some(READ_TICK)) {
        log::warn(format!("serve: cannot set read timeout: {e}"));
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            log::warn(format!("serve: cannot clone connection: {e}"));
            return;
        }
    };
    // A stalled client must not wedge the shutdown drain forever.
    let _ = write_half.set_write_timeout(Some(Duration::from_secs(5)));
    if let Err(e) = run_session(stream, write_half, &peer, shared, |h| lock_conns(conns).push(h)) {
        log::warn(format!("serve: {peer}: connection error: {e}"));
    }
}

/// Runs one connection of either transport: spawns its writer (handed to
/// `register`, which owns the join), then reads requests on the calling
/// thread until the session ends. `Err` is a transport failure of the
/// input or a writer that could not be spawned.
fn run_session(
    input: impl Read,
    output: impl Write + Send + 'static,
    peer: &str,
    shared: &Arc<Shared>,
    register: impl FnOnce(JoinHandle<()>),
) -> std::io::Result<()> {
    let (resp_tx, resp_rx) = mpsc::channel();
    let sh = Arc::clone(shared);
    let writer = std::thread::Builder::new()
        .name("agnn-serve-write".into())
        .spawn(move || writer_loop(output, &resp_rx, &sh))?;
    register(writer);
    reader_loop(input, peer, shared, &resp_tx)
}

fn writer_loop(output: impl Write, responses: &mpsc::Receiver<mpsc::Receiver<Reply>>, shared: &Shared) {
    let mut out = std::io::BufWriter::new(output);
    while let Ok(pending) = responses.recv() {
        // A dropped sender without a message only happens if a worker died
        // before replying; skip rather than wedge the connection.
        let Ok(reply) = pending.recv() else { continue };
        let mut finished = None;
        let body = match reply {
            Reply::Answer { body, meta } => {
                let written = shared.written.fetch_add(1, Ordering::Relaxed) + 1;
                finished = meta.map(|meta| (meta, written));
                body
            }
            Reply::Text(body) => body,
            Reply::Admin(cmd) => shared.admin_response(cmd),
        };
        let wrote = out.write_all(body.as_bytes()).and_then(|()| out.write_all(b"\n")).and_then(|()| out.flush());
        if wrote.is_err() {
            // Client went away. Workers replying into dropped receivers is
            // a harmless failed send, so just stop writing.
            break;
        }
        if let Some((meta, written)) = finished {
            finish_request(shared, &meta, written);
        }
    }
}

/// Closes out one flushed request (the `written`-th answer): stamps the
/// write stage and the end-to-end latency (the request truly ends at the
/// flush, so the four stages telescope to the total by construction),
/// drives the periodic stats line, and emits the slow-request exemplar
/// when the total crosses `--trace-slow-ms`.
fn finish_request(shared: &Shared, meta: &ReplyMeta, written: u64) {
    let done = Instant::now();
    let write_ns = done.saturating_duration_since(meta.sent).as_nanos() as u64;
    let total_ns = done.saturating_duration_since(meta.ctx.ingress).as_nanos() as u64;
    metrics::observe("serve.stage.queue_wait_ns", meta.queue_wait_ns);
    metrics::observe("serve.stage.batch_form_ns", meta.batch_form_ns);
    metrics::observe("serve.stage.score_ns", meta.score_ns);
    metrics::observe("serve.stage.write_ns", write_ns);
    metrics::observe("serve.request.latency_ns", total_ns);
    let every = shared.cfg.stats_every as u64;
    if every > 0 && written % every == 0 {
        let (hist, kind) = shared.stats_source();
        stats::report(hist, kind, written as usize);
    }
    let slow = match shared.cfg.trace_slow {
        Some(t) => total_ns >= t.as_nanos() as u64,
        None => false,
    };
    if slow {
        let mut fields: Vec<(&str, Field)> = vec![
            ("trace_id", Field::from(meta.ctx.id)),
            ("kind", Field::from(if meta.kind.is_empty() { "pairs" } else { "topk" })),
            ("total_us", Field::from(total_ns / 1_000)),
            ("queue_wait_us", Field::from(meta.queue_wait_ns / 1_000)),
            ("batch_form_us", Field::from(meta.batch_form_ns / 1_000)),
            ("score_us", Field::from(meta.score_ns / 1_000)),
            ("write_us", Field::from(write_ns / 1_000)),
            ("pairs", Field::from(meta.pairs)),
        ];
        if let Some(batch) = &meta.batch {
            fields.push(("batch_size", Field::from(batch.size)));
            fields.push(("warm_pairs", Field::from(batch.warm_pairs)));
            fields.push(("scs_pairs", Field::from(batch.scs_pairs)));
        }
        trace::event("serve.slow_request", &fields);
    }
}

/// Reads one connection's request lines until a blank line, EOF,
/// `shutdown` or (TCP) server shutdown. Every line gets exactly one reply
/// in order: rejected lines answer `error: ...` in-band, which keeps a
/// pipelining client in sync. `Err` is a transport failure.
fn reader_loop(input: impl Read, peer: &str, shared: &Shared, resp_tx: &ReplySender) -> std::io::Result<()> {
    let mut lines = LineReader::new(input, MAX_LINE_BYTES);
    loop {
        let bytes = match lines.poll_line()? {
            None if shared.shutdown.load(Ordering::SeqCst) => return Ok(()),
            None => continue,
            Some(LineEvent::Eof) => return Ok(()),
            Some(LineEvent::TooLong) => {
                metrics::counter_add("serve.parse_errors", 1);
                log::warn(format!("serve: {peer}: dropping request line over {MAX_LINE_BYTES} bytes"));
                respond_now(resp_tx, Reply::Text(format!("error: request line exceeds {MAX_LINE_BYTES} bytes")));
                continue;
            }
            Some(LineEvent::Line(bytes)) => bytes,
        };
        let Ok(text) = String::from_utf8(bytes) else {
            metrics::counter_add("serve.parse_errors", 1);
            log::warn(format!("serve: {peer}: skipping unreadable request line (not valid UTF-8)"));
            respond_now(resp_tx, Reply::Text("error: request line is not valid UTF-8".to_string()));
            continue;
        };
        let line = text.trim();
        if line.is_empty() {
            // A blank line ends the session (this connection only).
            return Ok(());
        }
        if line == "shutdown" {
            respond_now(resp_tx, Reply::Text("shutting down".to_string()));
            shared.begin_shutdown();
            return Ok(());
        }
        if let Some(cmd) = protocol::parse_admin(line) {
            // In-band admin: never queued behind scoring work, but rendered
            // by the writer in sequence with this connection's replies.
            respond_now(resp_tx, Reply::Admin(cmd));
            continue;
        }
        match parse_request(line, shared, peer) {
            Err(reply) => respond_now(resp_tx, Reply::Text(reply)),
            Ok(payload) => {
                let (tx, rx) = mpsc::channel();
                let _ = resp_tx.send(rx);
                // The trace context is stamped here, in the reader:
                // ingress is the moment the request entered the
                // pipeline, before any queueing.
                let request = Request { payload, reply: tx, ctx: TraceContext::begin() };
                if let Err(request) = shared.queue.push(request) {
                    let _ = request.reply.send(Reply::Text("error: server is shutting down".into()));
                }
            }
        }
    }
}

/// Validates one request line into a queueable payload, or an in-band
/// `error:` reply. Unparseable lines → `serve.parse_errors`, out-of-range
/// ids dropped → `serve.range_errors`, and ids are checked *before* the
/// engine sees them — `score_coalesced` asserts on bad ids and an
/// untrusted request must never be able to panic a worker.
fn parse_request(line: &str, shared: &Shared, peer: &str) -> Result<Payload, String> {
    let (nu, ni) = (shared.engine.num_users(), shared.engine.num_items());
    if shared.cfg.topk.is_some() {
        let user: u32 = match line.parse() {
            Ok(u) => u,
            Err(_) => {
                metrics::counter_add("serve.parse_errors", 1);
                log::warn(format!("serve: {peer}: expected one user id per request line, got {line:?}"));
                return Err(format!("error: expected one user id per request line, got {line:?}"));
            }
        };
        if user as usize >= nu {
            metrics::counter_add("serve.range_errors", 1);
            log::warn(format!("serve: {peer}: dropping out-of-range user {user} ({nu} users)"));
            return Err(format!("error: user {user} out of range ({nu} users)"));
        }
        return Ok(Payload::TopK(user));
    }
    let pairs = match protocol::parse_pairs(line) {
        Ok(pairs) => pairs,
        Err(e) => {
            metrics::counter_add("serve.parse_errors", 1);
            log::warn(format!("serve: {peer}: {e}"));
            return Err(format!("error: {e}"));
        }
    };
    let kept: Vec<(u32, u32)> = pairs
        .into_iter()
        .filter(|&(u, i)| {
            let ok = (u as usize) < nu && (i as usize) < ni;
            if !ok {
                metrics::counter_add("serve.range_errors", 1);
                log::warn(format!("serve: {peer}: dropping out-of-range pair {u}:{i} ({nu} users, {ni} items)"));
            }
            ok
        })
        .collect();
    if kept.is_empty() {
        return Err("error: no pairs in range".to_string());
    }
    Ok(Payload::Pairs(kept))
}

/// Per-batch timing context a worker threads through [`answer`]: the
/// batch-open and batch-close instants (both already read for scheduling,
/// so stage attribution adds no clock reads on the worker side) plus the
/// lazily built exemplar info.
struct BatchTiming {
    opened: Instant,
    closed: Instant,
    /// `Some` only when telemetry can observe anything — when `None`,
    /// replies carry no meta and the writer stays clock-free.
    collect: bool,
    exemplar: Option<Arc<BatchExemplar>>,
}

fn worker_loop(shared: &Shared) {
    // Slow-request exemplars need a live trace sink; checked once per
    // batch alongside the metrics gate.
    while let Some((batch, opened)) = shared.queue.pop_batch_open(shared.cfg.max_batch, shared.cfg.batch_window) {
        if batch.is_empty() {
            continue;
        }
        let started = Instant::now();
        let slow_on = shared.cfg.trace_slow.is_some() && trace::enabled();
        let collect = metrics::enabled() || slow_on;
        metrics::observe("serve.batch.size", batch.len() as u64);
        // All pair requests in the batch go through ONE coalesced call.
        let mut pair_requests: Vec<&Request> = Vec::new();
        let mut segments: Vec<&[(u32, u32)]> = Vec::new();
        for request in &batch {
            if let Payload::Pairs(pairs) = &request.payload {
                pair_requests.push(request);
                segments.push(pairs);
            }
        }
        let scored = if segments.is_empty() { Vec::new() } else { shared.engine.score_coalesced(&segments) };
        let mut timing = BatchTiming { opened, closed: started, collect, exemplar: None };
        if slow_on {
            let mut scs = 0u64;
            let mut total = 0u64;
            for pairs in &segments {
                total += pairs.len() as u64;
                scs += pairs.iter().filter(|&&(u, i)| shared.engine.is_scs_pair(u, i)).count() as u64;
            }
            timing.exemplar = Some(Arc::new(BatchExemplar { size: batch.len(), warm_pairs: total - scs, scs_pairs: scs }));
        }
        for ((request, pairs), scores) in pair_requests.iter().zip(&segments).zip(&scored) {
            let msg = protocol::format_pair_lines(pairs, scores, |s| shared.engine.clamp(s));
            answer(shared, request, pairs.len() as u64, msg, "", &timing);
        }
        for request in &batch {
            if let Payload::TopK(user) = request.payload {
                let k = shared.cfg.topk.unwrap_or(1);
                let ranked = metrics::timed("serve.topk.latency_ns", || shared.engine.top_k(user, k));
                let msg = protocol::format_topk_line(user, k, &ranked, |s| shared.engine.clamp(s));
                answer(shared, request, ranked.len() as u64, msg, "top-k ", &timing);
            }
        }
        metrics::observe("serve.batch.latency_ns", started.elapsed().as_nanos() as u64);
    }
}

/// Replies to one answered request and does the worker-side bookkeeping:
/// request/pair counters plus (when telemetry is live) the stage
/// attribution up to this hand-off. Queue wait ends when the batch opened;
/// batch formation ends when the batch closed; the score stage ends here.
/// A request that arrived *after* its batch opened has zero queue wait and
/// its formation wait starts at its own ingress, so the stages always
/// telescope: `queue_wait + batch_form = closed - ingress` exactly.
fn answer(shared: &Shared, request: &Request, pairs: u64, msg: String, kind: &'static str, timing: &BatchTiming) {
    metrics::counter_add("serve.requests", 1);
    metrics::counter_add("serve.served_pairs", pairs);
    shared.served_pairs.fetch_add(pairs, Ordering::Relaxed);
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let meta = if timing.collect {
        let ingress = request.ctx.ingress;
        let sent = Instant::now();
        let queue_wait = timing.opened.saturating_duration_since(ingress);
        let form_start = if ingress > timing.opened { ingress } else { timing.opened };
        let batch_form = timing.closed.saturating_duration_since(form_start);
        Some(ReplyMeta {
            ctx: request.ctx,
            queue_wait_ns: queue_wait.as_nanos() as u64,
            batch_form_ns: batch_form.as_nanos() as u64,
            score_ns: sent.saturating_duration_since(timing.closed).as_nanos() as u64,
            sent,
            kind,
            pairs,
            batch: timing.exemplar.clone(),
        })
    } else {
        None
    };
    let _ = request.reply.send(Reply::Answer { body: msg, meta });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_streams_send_without_delay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        set_accepted_options(&stream).unwrap();
        assert!(stream.nodelay().unwrap(), "an accepted stream must have TCP_NODELAY set");
    }
}
