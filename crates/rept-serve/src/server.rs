//! The TCP front-end: [`LineServer`], the transport every tier shares,
//! and the tenant protocol a [`Server`] speaks over a [`TenantRouter`].
//!
//! `handlers` OS threads each own a clone of the listener and serve one
//! connection at a time (further connections wait in the OS accept
//! backlog — the pool size bounds concurrent protocol work). Request
//! lines are capped at [`MAX_LINE_BYTES`]; each reply goes out in one
//! write, its `\n` included. What a line *means* is the [`LineHandler`]'s
//! business: [`TenantRouter`] here, the shard coordinator in `rept-shard`.
//!
//! Ingest commands feed the selected tenants' [`ServeCore`] queues and
//! feel their backpressure: a line that finds no room in its tenant's
//! queue is held for up to [`INGEST_HOLD`], goes in as soon as room
//! frees, and is otherwise refused with `ERR BUSY`.
//! Query commands read published snapshots and never touch an ingest
//! thread.
//!
//! Every connection carries one piece of state: its **current tenant**,
//! which starts as `default` and is switched by `USE`. A v1 client —
//! which never sends `USE` — therefore runs its whole session against
//! the `default` tenant, exactly as it did against the single-core
//! server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rept_core::ReptEstimate;

use crate::core::{IngestError, ServeConfig, ServeCore};
use crate::metrics::render_exposition;
use crate::protocol::{self, Command, Scope, DEFAULT_TENANT};
use crate::tenant::{RouterConfig, TenantRouter};

/// Longest request line, in bytes before its `\n`. The longest
/// `INGEST` line [`crate::Client`] writes — 2 048 edges of two 10-digit
/// ids — is 45 063 bytes with its `\n`, about 1/23 of this cap. A connection that
/// sends more without a newline gets `ERR line longer than <N> bytes` and
/// is closed: the rest of its line cannot be told from the next request.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How long a wire `INGEST` holds a line that finds no room in its
/// tenant's queue before answering `ERR BUSY` — the size of the client's
/// first backoff sleep, so a tenant that stays stuck costs a producer
/// what a refusal did, while one that frees room in time costs no round
/// trip.
pub const INGEST_HOLD: Duration = Duration::from_millis(10);

/// How often an idle connection re-checks the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Backoff after a failed `accept` (e.g. fd exhaustion) — without it a
/// persistent error would busy-spin every handler thread at 100% CPU.
const ACCEPT_RETRY: Duration = Duration::from_millis(50);

/// Cap on how long a reply write may block on a client that stopped
/// reading — a full TCP send window must not pin a handler thread (and
/// with it `Server::shutdown`) forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Socket/backoff timing knobs, separated from the constants so tests
/// can shrink them and drive the slow paths (accept-error backoff,
/// write timeout) in milliseconds instead of seconds.
#[derive(Debug, Clone, Copy)]
struct ServerTuning {
    read_timeout: Duration,
    write_timeout: Duration,
    accept_retry: Duration,
}

impl Default for ServerTuning {
    fn default() -> Self {
        Self {
            read_timeout: READ_TIMEOUT,
            write_timeout: WRITE_TIMEOUT,
            accept_retry: ACCEPT_RETRY,
        }
    }
}

/// A line protocol served by [`LineServer`]: one reply line per request
/// line, in order.
pub trait LineHandler: Send + Sync + 'static {
    /// Per-connection protocol state.
    type Session;

    /// The state a freshly accepted connection starts with.
    fn session(&self) -> Self::Session;

    /// Executes one request line (with its trailing `\n`, when it had
    /// one) and returns the reply, without its `\n`, and whether the
    /// request was a shutdown: the server then closes this connection
    /// after the reply and stops accepting new ones.
    fn execute(&self, line: &str, session: &mut Self::Session) -> (String, bool);
}

/// A running line server: the accept threads of one listener, serving a
/// [`LineHandler`]. Dropping it (or calling [`Self::stop`]) stops the
/// acceptors and joins them.
#[derive(Debug)]
pub struct LineServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handlers: Vec<JoinHandle<()>>,
}

impl LineServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `handler` with `threads` connection threads named
    /// `<name>-<i>`.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn start<H: LineHandler>(
        handler: Arc<H>,
        addr: impl ToSocketAddrs,
        threads: usize,
        name: &str,
    ) -> std::io::Result<Self> {
        Self::start_tuned(handler, addr, threads, name, ServerTuning::default())
    }

    fn start_tuned<H: LineHandler>(
        handler: Arc<H>,
        addr: impl ToSocketAddrs,
        threads: usize,
        name: &str,
        tuning: ServerTuning,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut handlers = Vec::new();
        for i in 0..threads.max(1) {
            let listener = listener.try_clone()?;
            let handler = Arc::clone(&handler);
            let stop = Arc::clone(&stop);
            handlers.push(
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || accept_loop(listener, handler, stop, tuning))
                    .expect("spawn handler thread"),
            );
        }
        Ok(Self {
            addr,
            stop,
            handlers,
        })
    }

    /// The bound address (the port clients connect to).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sets the stop flag, wakes every acceptor blocked in `accept`, and
    /// joins the handler threads (each finishes its current request
    /// first). Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for _ in 0..self.handlers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for h in self.handlers.drain(..) {
            h.join().expect("handler thread panicked");
        }
    }
}

impl Drop for LineServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<H: LineHandler>(
    listener: TcpListener,
    handler: Arc<H>,
    stop: Arc<AtomicBool>,
    tuning: ServerTuning,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = listener.accept() else {
            std::thread::sleep(tuning.accept_retry);
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return; // the wake-up connection from `stop`
        }
        let _ = serve_connection(stream, &*handler, &stop, tuning);
    }
}

/// Serves one connection until EOF, a shutdown request, an over-long
/// line, or the stop flag.
fn serve_connection<H: LineHandler>(
    stream: TcpStream,
    handler: &H,
    stop: &AtomicBool,
    tuning: ServerTuning,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(tuning.read_timeout))?;
    stream.set_write_timeout(Some(tuning.write_timeout))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut session = handler.session();
    // The line buffer persists across timeout retries: a read may have
    // consumed a partial line when the timer fires, and clearing it
    // would drop those bytes. Reading stops one byte past the cap.
    let mut line = Vec::new();
    loop {
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(_) if line.is_empty() => return Ok(()), // EOF
            Ok(_) if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                let reply = format!("ERR line longer than {MAX_LINE_BYTES} bytes\n");
                return writer.write_all(reply.as_bytes());
            }
            // A whole line, or the unterminated last one before EOF.
            Ok(_) => {
                let text = std::str::from_utf8(&line).map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    )
                })?;
                let (mut reply, shutdown) = execute_guarded(handler, text, &mut session);
                if shutdown {
                    stop.store(true, Ordering::SeqCst);
                }
                reply.push('\n');
                writer.write_all(reply.as_bytes())?;
                line.clear();
                // Re-check between requests, not only on idle timeouts:
                // a client streaming lines back-to-back must not be able
                // to pin this handler past a shutdown (its own included).
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Executes one request line, turning a panic into that request's own
/// `ERR` reply: it must not end the handler thread that serves every
/// later connection.
fn execute_guarded<H: LineHandler>(
    handler: &H,
    line: &str,
    session: &mut H::Session,
) -> (String, bool) {
    catch_unwind(AssertUnwindSafe(|| handler.execute(line, session))).unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("unknown panic");
        (
            format!("ERR internal error: {}", what.replace('\n', " ")),
            false,
        )
    })
}

/// A running TCP server over a [`TenantRouter`]. Prefer an explicit
/// [`Self::shutdown`] (it returns the final estimate); a plain drop
/// still stops the acceptors and every tenant's ingest thread.
#[derive(Debug)]
pub struct Server {
    lines: LineServer,
    /// Kept so [`Self::core`] can lend `&ServeCore` — a borrow the
    /// compiler ends before `shutdown(self)` can run, which makes
    /// holding a core across shutdown a compile error instead of a
    /// drain wait. Released before the router shuts down.
    default_core: Arc<ServeCore>,
    router: Arc<TenantRouter>,
}

impl Server {
    /// Starts a single-tenant router (just `default`, configured by
    /// `cfg`) and binds `addr` (use port 0 for an ephemeral port),
    /// serving with `handlers` connection threads. This is the v1
    /// entry point — byte-for-byte compatible with the pre-tenant
    /// server; use [`Self::start_router`] for multi-tenant serving.
    ///
    /// # Errors
    ///
    /// Socket errors, and checkpoint-resume failures surfaced as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn start(
        cfg: ServeConfig,
        addr: impl ToSocketAddrs,
        handlers: usize,
    ) -> std::io::Result<Self> {
        Self::start_router(RouterConfig::new(cfg), addr, handlers)
    }

    /// Starts the full router (resuming every tenant under its root
    /// directory) and binds `addr`.
    ///
    /// # Errors
    ///
    /// Socket errors, and checkpoint-resume failures surfaced as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn start_router(
        cfg: RouterConfig,
        addr: impl ToSocketAddrs,
        handlers: usize,
    ) -> std::io::Result<Self> {
        Self::start_router_tuned(cfg, addr, handlers, ServerTuning::default())
    }

    fn start_router_tuned(
        cfg: RouterConfig,
        addr: impl ToSocketAddrs,
        handlers: usize,
        tuning: ServerTuning,
    ) -> std::io::Result<Self> {
        let router =
            Arc::new(TenantRouter::start(cfg).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
            })?);
        let lines = LineServer::start_tuned(
            Arc::clone(&router),
            addr,
            handlers,
            "rept-serve-handler",
            tuning,
        )?;
        let default_core = router
            .tenant(DEFAULT_TENANT)
            .expect("default tenant always exists");
        Ok(Self {
            lines,
            default_core,
            router,
        })
    }

    /// The bound address (the port clients connect to).
    pub fn local_addr(&self) -> SocketAddr {
        self.lines.local_addr()
    }

    /// The tenant router (in-process tenant management and queries
    /// without a socket).
    pub fn router(&self) -> &TenantRouter {
        &self.router
    }

    /// Direct access to the `default` tenant's serving core (in-process
    /// queries without a socket) — the single-tenant view. Borrowed
    /// from the server, so it cannot be held across [`Self::shutdown`];
    /// use [`TenantRouter::tenant`] for an owned handle (and drop it
    /// before shutting down — see [`TenantRouter::shutdown`]).
    pub fn core(&self) -> &ServeCore {
        &self.default_core
    }

    /// Stops accepting, joins the handler threads, shuts every tenant
    /// down (final checkpoints where configured) and returns the
    /// `default` tenant's final estimate — the single-tenant view; use
    /// [`Self::shutdown_all`] to collect every tenant's estimate.
    pub fn shutdown(self) -> ReptEstimate {
        let mut finals = self.shutdown_all();
        let at = finals
            .iter()
            .position(|(n, _)| n == DEFAULT_TENANT)
            .unwrap_or_else(|| {
                // `shutdown_all` omits a tenant whose Arc is wedged
                // (see TenantRouter::shutdown's drain semantics).
                panic!(
                    "default tenant estimate unavailable: a handle from \
                     router().tenant(\"default\") was held across shutdown"
                )
            });
        finals.swap_remove(at).1
    }

    /// Stops accepting, joins the handler threads, and shuts every
    /// tenant down, returning `(tenant, final estimate)` pairs sorted
    /// by name.
    pub fn shutdown_all(self) -> Vec<(String, ReptEstimate)> {
        let Self {
            mut lines,
            default_core,
            router,
        } = self;
        lines.stop();
        drop(default_core); // release the `core()` handle
        let router = Arc::try_unwrap(router).expect("handlers dropped their router handles");
        router.shutdown()
    }
}

/// The tenant protocol: each connection's session is its current tenant.
impl LineHandler for TenantRouter {
    type Session = String;

    fn session(&self) -> String {
        DEFAULT_TENANT.to_string()
    }

    fn execute(&self, line: &str, tenant: &mut String) -> (String, bool) {
        execute(line, self, tenant, INGEST_HOLD)
    }
}

/// Parses and executes one request line, producing the reply line and
/// whether the request was a shutdown (keyed off the parsed command,
/// not the raw text, so `ERR` replies to malformed shutdown-like lines
/// keep the connection open). A current-tenant `INGEST` that finds no
/// room in the queue waits up to `hold` for it.
fn execute(
    line: &str,
    router: &TenantRouter,
    tenant: &mut String,
    hold: Duration,
) -> (String, bool) {
    // Current-tenant commands resolve the core per request, so a tenant
    // dropped mid-connection turns into an `ERR unknown tenant` reply
    // rather than a stale handle.
    let with_current = |f: &dyn Fn(&ServeCore) -> String| -> String {
        match router.tenant(tenant) {
            Some(core) => f(&core),
            None => format!("ERR unknown tenant {tenant:?}"),
        }
    };
    // Query verbs additionally record their service time into the
    // tenant's per-verb latency histogram (skipped when the tenant was
    // started with `metrics` off).
    let with_query = |verb: &'static str, f: &dyn Fn(&ServeCore) -> String| -> String {
        match router.tenant(tenant) {
            Some(core) => {
                if !core.config().metrics {
                    return f(&core);
                }
                let started = Instant::now();
                let reply = f(&core);
                core.metrics().record_query(verb, started.elapsed());
                reply
            }
            None => format!("ERR unknown tenant {tenant:?}"),
        }
    };
    let reply = match protocol::parse(line) {
        // Hand-rolled rather than `with_current` (a `Fn` closure would
        // have to clone the batch): this is the hot ingest path.
        Ok(Command::Ingest(Scope::Current, edges)) => match router.tenant(tenant) {
            Some(core) => {
                let n = edges.len();
                // Bounded: a queue that stays full for `hold` surfaces
                // as `ERR BUSY` backpressure instead of pinning the
                // handler thread (and its connection slot) on a slow
                // tenant.
                match core.try_ingest_within(edges, hold) {
                    Ok(()) => format!("OK INGEST {n}"),
                    // BUSY is transient — the client retries, so the
                    // line does NOT go to the dead-letter file (it
                    // would be replayed *and* retried: duplicates).
                    Err(e @ IngestError::Busy) => format!("ERR {e}"),
                    Err(e) => {
                        // A durably-refused batch (quota, journal) is a
                        // rejection like any other: capture the line
                        // for operator replay.
                        core.dead_letter(line, &e.to_string());
                        format!("ERR {e}")
                    }
                }
            }
            None => format!("ERR unknown tenant {tenant:?}"),
        },
        Ok(Command::Ingest(scope, edges)) => {
            let n = edges.len();
            match router.ingest(&scope, edges) {
                Ok(fed) => format!("OK INGEST {n} tenants={fed}"),
                Err(msg) => {
                    if let Some(core) = router.tenant(tenant) {
                        core.dead_letter(line, &msg);
                    }
                    format!("ERR {msg}")
                }
            }
        }
        Ok(Command::QueryGlobal) => {
            with_query("global", &|core| protocol::format_global(&core.snapshot()))
        }
        Ok(Command::QueryLocal(v)) => {
            with_query("local", &|core| protocol::format_local(&core.snapshot(), v))
        }
        Ok(Command::TopK(k)) => {
            with_query("topk", &|core| protocol::format_top_k(&core.snapshot(), k))
        }
        Ok(Command::TopKAll(k)) => protocol::format_top_k_all(&router.merged_top_k(k), k),
        Ok(Command::Stats) => with_query("stats", &|core| {
            protocol::format_stats(&core.snapshot(), &core.live_stats())
        }),
        Ok(Command::StatsAll) => protocol::format_stats_all(&router.aggregate_stats()),
        Ok(Command::JournalStats) => with_query("journal", &|core| {
            protocol::format_journal_stats(&core.snapshot(), &core.live_stats())
        }),
        Ok(Command::Flush) => with_current(&|core| format!("OK FLUSH position={}", core.flush())),
        Ok(Command::Aggregate) => with_query("aggregate", &|core| match core.aggregates() {
            Ok((position, groups)) => protocol::format_aggregate(position, &groups),
            Err(msg) => format!("ERR {msg}"),
        }),
        Ok(Command::AggregateSince(since)) => with_query("aggregate", &|core| match core
            .aggregates_since(Some(since))
        {
            Ok(reply) => protocol::format_aggregates(&reply),
            Err(msg) => format!("ERR {msg}"),
        }),
        Ok(Command::Checkpoint) => with_current(&|core| match core.checkpoint() {
            Ok(pos) => format!("OK CHECKPOINT position={pos}"),
            Err(msg) => format!("ERR {msg}"),
        }),
        Ok(Command::TenantCreate(name, opts)) => match router.create(&name, &opts) {
            Ok(()) => format!("OK TENANT CREATED {name}"),
            Err(msg) => format!("ERR {msg}"),
        },
        Ok(Command::TenantList) => {
            // One consistent lock snapshot — a concurrently dropped
            // tenant is absent rather than listed with a made-up
            // position.
            let tenants = router.list();
            let mut out = format!("OK TENANTS n={}", tenants.len());
            for (name, interval, position) in tenants {
                out.push_str(&format!(" {name}={position}"));
                if let Some(i) = interval {
                    out.push_str(&format!(":interval={i}"));
                }
            }
            out
        }
        Ok(Command::TenantDrop(name)) => match router.drop_tenant(&name) {
            Ok(()) => format!("OK TENANT DROPPED {name}"),
            Err(msg) => format!("ERR {msg}"),
        },
        Ok(Command::Health) => with_query("health", &|core| {
            protocol::format_health(tenant, &core.health())
        }),
        Ok(Command::Metrics) => match router.tenant(tenant) {
            Some(core) => {
                protocol::format_metrics(&render_exposition(&[core.scrape(tenant.clone())], false))
            }
            None => format!("ERR unknown tenant {tenant:?}"),
        },
        Ok(Command::MetricsAll) => {
            protocol::format_metrics(&render_exposition(&router.scrape(), true))
        }
        Ok(Command::TraceTail(n)) => match router.tenant(tenant) {
            Some(core) => protocol::format_trace(&core.metrics().trace.tail(n)),
            None => format!("ERR unknown tenant {tenant:?}"),
        },
        Ok(Command::DlqReplay) => match router.tenant(tenant) {
            Some(core) => {
                let entries = core.dlq_drain();
                let n = entries.len() as u64;
                let mut failed = 0u64;
                for (_original_reason, dead_line) in entries {
                    // Only plain current-tenant INGEST lines can replay
                    // — a scoped line captured here was dead-lettered
                    // by a *fan-out* failure and replaying it through
                    // this tenant would misroute it.
                    match protocol::parse(&dead_line) {
                        Ok(Command::Ingest(Scope::Current, edges)) => {
                            // Blocking ingest: replay is an operator
                            // action, not the hot path — waiting beats
                            // re-dead-lettering on a momentarily full
                            // queue.
                            if let Err(e) = core.ingest(edges) {
                                core.dead_letter(&dead_line, &e.to_string());
                                failed += 1;
                            }
                        }
                        Ok(_) => {
                            core.dead_letter(&dead_line, "not replayable: scoped or non-ingest");
                            failed += 1;
                        }
                        Err(e) => {
                            // Still malformed: put it back with the
                            // fresh parse error (the original reason
                            // is superseded).
                            core.dead_letter(&dead_line, &e);
                            failed += 1;
                        }
                    }
                }
                protocol::format_dlq_replayed(n, failed)
            }
            None => format!("ERR unknown tenant {tenant:?}"),
        },
        Ok(Command::Use(name)) => {
            if router.contains(&name) {
                *tenant = name.clone();
                format!("OK USING {name}")
            } else {
                format!("ERR unknown tenant {name:?}")
            }
        }
        Ok(Command::Shutdown) => return ("OK BYE".into(), true),
        Err(msg) => {
            // Malformed lines that were *meant* to carry edges go to the
            // current tenant's dead-letter file, verbatim, with the
            // parse error as the reason — rejected data is inspectable
            // and re-feedable, not silently gone.
            if line.split_ascii_whitespace().next() == Some("INGEST") {
                if let Some(core) = router.tenant(tenant) {
                    core.dead_letter(line, &msg);
                }
            }
            format!("ERR {msg}")
        }
    };
    (reply, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, ClientConfig};
    use rept_core::ReptConfig;
    use rept_gen::{barabasi_albert, GeneratorConfig};
    use rept_graph::edge::Edge;

    fn tight_tuning() -> ServerTuning {
        ServerTuning {
            read_timeout: Duration::from_millis(20),
            write_timeout: Duration::from_millis(50),
            accept_retry: Duration::from_millis(5),
        }
    }

    #[test]
    fn accept_error_backoff_recovers() {
        // A nonblocking listener makes every idle `accept` fail with
        // WouldBlock — the error branch must back off (not busy-spin)
        // and still accept once a client actually arrives.
        let cfg = RouterConfig::new(ServeConfig::new(ReptConfig::new(2, 2).with_seed(7)));
        let router = Arc::new(TenantRouter::start(cfg).expect("router"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        listener.set_nonblocking(true).expect("nonblocking");
        let stop = Arc::new(AtomicBool::new(false));
        let handler = {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let tuning = tight_tuning();
            std::thread::spawn(move || accept_loop(listener, router, stop, tuning))
        };
        // Let the loop run through a stretch of failed accepts first.
        std::thread::sleep(Duration::from_millis(60));

        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        conn.write_all(b"FLUSH\n").expect("request");
        let mut reply = String::new();
        BufReader::new(conn.try_clone().expect("clone"))
            .read_line(&mut reply)
            .expect("reply");
        assert!(
            reply.starts_with("OK FLUSH"),
            "served after backoff: {reply}"
        );
        drop(conn);

        stop.store(true, Ordering::SeqCst);
        handler.join().expect("acceptor exits on the stop flag");
        Arc::try_unwrap(router).expect("sole owner").shutdown();
    }

    #[test]
    fn write_timeout_unpins_the_handler_from_a_stalled_client() {
        // One handler thread, a large top-k index, and a client that
        // pipelines big queries without ever reading a byte: the reply
        // write must hit the write timeout and drop that connection
        // instead of pinning the only handler (and every later client)
        // forever.
        let edges = barabasi_albert(&GeneratorConfig::new(20_000, 3), 11);
        let cfg = ServeConfig::new(ReptConfig::new(2, 2).with_seed(7)).with_top_k(100_000);
        let server =
            Server::start_router_tuned(RouterConfig::new(cfg), "127.0.0.1:0", 1, tight_tuning())
                .expect("start");
        server.core().ingest(edges).expect("ingest");
        server.core().flush();

        // Pipeline enough ~150 KB replies that they cannot all fit in
        // the two kernel socket buffers: the server's reply write has
        // to block, and the write timeout has to fire.
        let mut stalled = TcpStream::connect(server.local_addr()).expect("connect");
        stalled
            .set_write_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        for _ in 0..1000 {
            if stalled.write_all(b"TOPK 100000\n").is_err() {
                break;
            }
        }

        let mut fresh = TcpStream::connect(server.local_addr()).expect("connect 2");
        fresh
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        fresh.write_all(b"QUERY GLOBAL\n").expect("request");
        let mut reply = String::new();
        BufReader::new(fresh.try_clone().expect("clone"))
            .read_line(&mut reply)
            .expect("the stalled connection must be dropped, freeing the handler");
        assert!(reply.starts_with("OK GLOBAL"), "reply: {reply}");
        drop(stalled);
        drop(fresh);
        server.shutdown();
    }

    /// A one-edge tenant queue: a single queued one-edge batch fills it.
    fn one_edge_queue(cfg: ServeConfig) -> ServeConfig {
        let mut cfg = cfg;
        cfg.queue_edges = 1;
        cfg
    }

    fn no_busy_retry() -> ClientConfig {
        ClientConfig::default().with_busy_retries(0)
    }

    /// The tenant protocol with a hold no scheduler delay can outlast,
    /// so the test, not the clock, decides when the slot frees.
    struct Patient(Arc<TenantRouter>);

    impl LineHandler for Patient {
        type Session = String;

        fn session(&self) -> String {
            self.0.session()
        }

        fn execute(&self, line: &str, tenant: &mut String) -> (String, bool) {
            execute(line, &self.0, tenant, Duration::from_secs(120))
        }
    }

    /// Panics on `BOOM`, answers `OK` to everything else.
    struct Fragile;

    impl LineHandler for Fragile {
        type Session = ();

        fn session(&self) {}

        fn execute(&self, line: &str, _: &mut ()) -> (String, bool) {
            assert_ne!(line.trim_end(), "BOOM", "handler bug");
            ("OK".into(), false)
        }
    }

    #[test]
    fn a_panicking_request_costs_one_err_not_a_handler_thread() {
        let threads = 2;
        let mut server =
            LineServer::start(Arc::new(Fragile), "127.0.0.1:0", threads, "fragile").expect("start");
        let ask = |line: &str| {
            let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            conn.write_all(line.as_bytes()).expect("request");
            let mut reply = String::new();
            BufReader::new(conn).read_line(&mut reply).expect("reply");
            reply
        };
        // More panics than handler threads: each one only costs its
        // own reply.
        for _ in 0..=threads {
            let reply = ask("BOOM\n");
            assert!(reply.starts_with("ERR internal error: "), "{reply:?}");
            assert!(reply.contains("handler bug"), "{reply:?}");
        }
        assert_eq!(ask("PING\n"), "OK\n", "a fresh connection is still served");
        server.stop();
    }

    #[test]
    fn held_line_is_accepted_when_a_slot_frees_within_the_bound() {
        let cfg = one_edge_queue(ServeConfig::new(ReptConfig::new(2, 2).with_seed(7)));
        let router = Arc::new(TenantRouter::start(RouterConfig::new(cfg)).expect("router"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let handler = Arc::new(Patient(Arc::clone(&router)));
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, handler, stop, tight_tuning()))
        };
        let core = router.tenant(DEFAULT_TENANT).expect("default tenant");

        // The ingest thread sits on a barrier (which takes no room) and
        // a first one-edge batch fills the queue behind it.
        let parked = core.park();
        core.ingest(vec![Edge::new(1, 2)]).expect("queued");
        let producer = std::thread::spawn(move || {
            let mut client = Client::connect_with(addr, no_busy_retry()).expect("connect");
            client.ingest(&[Edge::new(3, 4)])
        });
        // The wire line is held on the full queue …
        while core.metrics().ingest_held.get() == 0 {
            assert!(!producer.is_finished(), "the line must wait for room");
            std::thread::yield_now();
        }
        // … and goes in once the ingest thread takes the first batch.
        drop(parked);
        assert_eq!(
            producer
                .join()
                .expect("producer")
                .expect("accepted, not BUSY"),
            1
        );
        let metrics = core.metrics();
        assert_eq!(metrics.busy_rejections.get(), 0);
        assert_eq!(metrics.ingest_hold_micros.count(), 1, "one line was held");
        assert_eq!(metrics.ingest_held.get(), 0);
        assert_eq!(core.flush(), 2, "both batches applied");

        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr); // wake the acceptor
        acceptor.join().expect("acceptor exits on the stop flag");
        drop(core);
        Arc::try_unwrap(router).expect("sole owner").shutdown();
    }

    #[test]
    fn line_still_blocked_past_the_bound_gets_busy() {
        let root = std::env::temp_dir().join(format!("rept-hold-busy-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let cfg =
            one_edge_queue(ServeConfig::new(ReptConfig::new(2, 2).with_seed(7)).with_journal());
        let server = Server::start_router(
            RouterConfig::new(cfg).with_root_dir(root.clone()),
            "127.0.0.1:0",
            1,
        )
        .expect("start");
        let core = server.core();
        // Parked ingest thread, and a one-edge batch from another
        // producer filling the queue: nothing frees it until the test
        // says so. The journal holds that producer until its batch is
        // acked.
        let parked = core.park();
        let filler = {
            let core = server.router().tenant(DEFAULT_TENANT).expect("default");
            std::thread::spawn(move || core.ingest(vec![Edge::new(5, 6)]))
        };
        while core.health().queue_depth == 0 {
            std::thread::yield_now();
        }
        let mut client =
            Client::connect_with(server.local_addr(), no_busy_retry()).expect("connect");
        let edge = [Edge::new(1, 2)];
        let refused = client.ingest(&edge).expect_err("queue full past the bound");
        assert!(refused.to_string().starts_with("BUSY"), "{refused}");
        let metrics = core.metrics();
        assert_eq!(metrics.busy_rejections.get(), 1, "counted");
        assert_eq!(metrics.ingest_hold_micros.count(), 1);
        let held = metrics.ingest_hold_micros.max();
        let bound = INGEST_HOLD.as_micros() as u64;
        assert!(held >= bound, "held for the whole bound first: {held} µs");
        assert!(held < 100 * bound, "and then gave up: {held} µs");
        assert_eq!(core.dlq_count(), 0, "BUSY is never dead-lettered");

        drop(parked);
        filler
            .join()
            .expect("filler")
            .expect("the filler is applied");
        assert_eq!(
            client.flush().expect("flush"),
            1,
            "the filler was applied, the refused line was not"
        );
        client
            .ingest(&edge)
            .expect("a retry lands once the queue drains");
        assert_eq!(client.flush().expect("flush"), 2);
        drop(client);
        server.shutdown_all();
        std::fs::remove_dir_all(&root).ok();
    }
}
