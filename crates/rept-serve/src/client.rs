//! A blocking line-protocol client (examples, tests, benches) with
//! overload-aware retry.
//!
//! ## Retry semantics
//!
//! The server distinguishes two rejection classes on the wire, and the
//! client honours the distinction:
//!
//! * **`ERR BUSY …`** — transient backpressure (the tenant's ingest
//!   queue stayed full for the server's hold bound). The request was
//!   *not* applied; the client retries
//!   it in place, up to [`ClientConfig::busy_retries`] times, sleeping
//!   a jittered exponential backoff between attempts.
//! * **`ERR QUOTA …`** — a durable quota refusal. Retrying cannot
//!   succeed (the budget stays exceeded) and the line is already in the
//!   server-side dead-letter file, so the error surfaces immediately —
//!   **never retried**.
//!
//! Transport failures (timeout, reset, broken pipe, EOF) optionally
//! reconnect and resend up to [`ClientConfig::io_retries`] times. A
//! resend after a failed *reply read* may double-apply a request the
//! server in fact executed — at-least-once, not exactly-once — so
//! `io_retries` defaults to 0 and should only be raised for idempotent
//! traffic or streams that tolerate duplicates.
//!
//! ## Halves
//!
//! Every exchange is a write half ([`Client::start_request`],
//! [`Client::start_ingest`]) and a read half ([`Client::finish`],
//! [`Client::finish_block`]) that applies the retry policy above.
//! The convenience calls run the two back to back; the shard
//! coordinator starts a line on every shard's client before it finishes
//! any, so the shards work on it at once.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use rept_core::GroupAggregate;
use rept_graph::edge::{Edge, NodeId};
use rept_hash::SplitMix64;

use crate::protocol::reply_field;

/// Edges per `INGEST` line. [`Client::ingest`] and the shard
/// coordinator both cut batches at this size. A line is one parse, one
/// reply, one round trip and, on a journaled tenant, one journal record
/// and one fsync, so 2 048-edge lines pay those 8× less often than
/// 256-edge lines would.
/// Two lines fill the default ingest queue
/// ([`ServeConfig::queue_edges`](crate::ServeConfig::queue_edges)), so a
/// held line waits for at most one line's apply. The longest line is
/// 45 063 bytes, far under [`MAX_LINE_BYTES`](crate::server::MAX_LINE_BYTES).
pub const INGEST_CHUNK: usize = 2048;

/// A global-estimate reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalEstimate {
    /// Stream position of the answering snapshot.
    pub position: u64,
    /// `τ̂`.
    pub tau: f64,
    /// Plug-in 95% confidence interval, when available.
    pub ci95: Option<(f64, f64)>,
}

/// Seed of the deterministic backoff jitter.
const JITTER_SEED: u64 = 0x005E_EDC1_1E47;

/// Connection and retry configuration for [`Client::connect_with`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket read timeout for replies; `None` blocks indefinitely.
    pub read_timeout: Option<Duration>,
    /// How many times an `ERR BUSY` reply is retried before surfacing.
    pub busy_retries: u32,
    /// How many transport failures trigger a reconnect + resend.
    /// **At-least-once caveat**: a resend can double-apply — keep 0
    /// unless the traffic tolerates duplicates.
    pub io_retries: u32,
    /// First backoff sleep; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: None,
            busy_retries: 16,
            io_retries: 0,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

impl ClientConfig {
    /// Sets the reply read timeout.
    pub fn with_read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = Some(t);
        self
    }

    /// Sets the `ERR BUSY` retry budget.
    pub fn with_busy_retries(mut self, n: u32) -> Self {
        self.busy_retries = n;
        self
    }

    /// Sets the transport-failure reconnect budget (see the
    /// at-least-once caveat on [`ClientConfig::io_retries`]).
    pub fn with_io_retries(mut self, n: u32) -> Self {
        self.io_retries = n;
        self
    }

    /// Sets the backoff base and cap.
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }
}

/// A blocking client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The request being sent, `\n` included — reused across requests,
    /// so an `INGEST` line costs its bytes and no allocation.
    out: Vec<u8>,
    cfg: ClientConfig,
    /// Resolved once at connect time so reconnects cannot silently land
    /// on a different host after a DNS change mid-session.
    addrs: Vec<SocketAddr>,
    /// Deterministic jitter source for backoff sleeps.
    rng: SplitMix64,
}

impl Client {
    /// Connects to a running server with default configuration
    /// (blocking I/O, `ERR BUSY` retried with backoff, no transport
    /// retry).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit read-timeout/retry configuration.
    ///
    /// # Errors
    ///
    /// Socket errors (every resolved address failed).
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> std::io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = Self::open_stream(&addrs, &cfg)?;
        let writer = stream.try_clone()?;
        let rng = SplitMix64::new(JITTER_SEED);
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            out: Vec::new(),
            cfg,
            addrs,
            rng,
        })
    }

    /// Opens one TCP stream to the first answering address.
    fn open_stream(addrs: &[SocketAddr], cfg: &ClientConfig) -> std::io::Result<TcpStream> {
        let mut last_err = None;
        for a in addrs {
            match TcpStream::connect(a) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream.set_read_timeout(cfg.read_timeout)?;
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no addresses to connect to",
            )
        }))
    }

    /// Tears the connection down and dials again.
    fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = Self::open_stream(&self.addrs, &self.cfg)?;
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        Ok(())
    }

    /// Jittered exponential backoff for retry `attempt` (1-based):
    /// `min(cap, base·2^(attempt−1))` scaled by a uniform factor in
    /// `[0.5, 1)` so retrying clients don't stampede in lockstep.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self
            .cfg
            .backoff_base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.cfg.backoff_cap);
        capped.mul_f64(0.5 + 0.5 * self.rng.next_f64())
    }

    /// Whether an error is the server's `ERR BUSY` backpressure signal
    /// (safe to retry: the batch was refused before any side effect).
    fn is_busy(e: &std::io::Error) -> bool {
        e.kind() == std::io::ErrorKind::Other && e.to_string().starts_with("BUSY")
    }

    /// Whether an error is a transport failure a reconnect may cure.
    fn is_transient(e: &std::io::Error) -> bool {
        matches!(
            e.kind(),
            std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::ConnectionRefused
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::UnexpectedEof
        )
    }

    /// Sends one request line and returns the reply payload, applying
    /// the retry policy (`ERR BUSY` → backoff and retry; transport
    /// failure → reconnect and resend when `io_retries > 0`; `ERR
    /// QUOTA` and every other server rejection → immediate error).
    ///
    /// # Errors
    ///
    /// Socket errors, protocol errors reported by the server
    /// ([`std::io::ErrorKind::Other`], message = the `ERR` payload).
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let sent = self.start_request(line);
        self.finish(sent)
    }

    /// The write half of [`Self::request`]: sends `line` and returns
    /// without reading the reply. Hand the result to [`Self::finish`]
    /// (or [`Self::finish_block`]) before starting another request
    /// on this client — one request is in flight at a time, so a retried
    /// `ERR BUSY` cannot reorder the stream.
    ///
    /// # Errors
    ///
    /// The socket error of the write.
    pub fn start_request(&mut self, line: &str) -> std::io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.send_once()
    }

    /// The write half of one `INGEST` line carrying `line` (callers cut
    /// batches at [`INGEST_CHUNK`] edges); finish it with
    /// [`Self::finish`], as for [`Self::start_request`].
    ///
    /// # Errors
    ///
    /// The socket error of the write.
    pub fn start_ingest(&mut self, line: &[Edge]) -> std::io::Result<()> {
        self.start_ingest_line("INGEST", line)
    }

    /// Encodes `head u v …` into `self.out` and sends it.
    fn start_ingest_line(&mut self, head: &str, line: &[Edge]) -> std::io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(head.as_bytes());
        for e in line {
            self.out.push(b' ');
            push_decimal(&mut self.out, u64::from(e.u()));
            self.out.push(b' ');
            push_decimal(&mut self.out, u64::from(e.v()));
        }
        self.out.push(b'\n');
        self.send_once()
    }

    /// The read half: settles the request the last `start_*` sent, whose
    /// outcome is `sent`, and returns its reply payload. A failed write
    /// settles like a failed read, so the two halves back to back are
    /// exactly [`Self::request`] and share its retry policy: `ERR BUSY`
    /// backs off and resends the same line, a transport failure
    /// reconnects and resends within `io_retries`.
    ///
    /// # Errors
    ///
    /// As [`Self::request`].
    pub fn finish(&mut self, sent: std::io::Result<()>) -> std::io::Result<String> {
        let mut result = sent.and_then(|()| self.read_reply());
        let mut busy_attempts = 0u32;
        let mut io_attempts = 0u32;
        loop {
            match result {
                Ok(reply) => return Ok(reply),
                Err(e) if Self::is_busy(&e) && busy_attempts < self.cfg.busy_retries => {
                    busy_attempts += 1;
                    let sleep = self.backoff(busy_attempts);
                    std::thread::sleep(sleep);
                }
                Err(e) if Self::is_transient(&e) && io_attempts < self.cfg.io_retries => {
                    io_attempts += 1;
                    let sleep = self.backoff(io_attempts);
                    std::thread::sleep(sleep);
                    // A failed reconnect consumes the attempt and loops
                    // (the resend fails fast on the dead socket if the
                    // re-dial keeps failing).
                    if let Err(re) = self.reconnect() {
                        if io_attempts >= self.cfg.io_retries {
                            return Err(re);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
            result = self.send_once().and_then(|()| self.read_reply());
        }
    }

    /// Writes the request in `self.out` — the whole line in one write.
    fn send_once(&mut self) -> std::io::Result<()> {
        self.writer.write_all(&self.out)
    }

    /// Reads one reply line; `ERR …` becomes an error.
    fn read_reply(&mut self) -> std::io::Result<String> {
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let reply = reply.trim_end().to_string();
        if let Some(msg) = reply.strip_prefix("ERR ") {
            return Err(std::io::Error::other(msg.to_string()));
        }
        Ok(reply)
    }

    fn field<T: std::str::FromStr>(reply: &str, key: &str) -> std::io::Result<T> {
        reply_field(reply, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("missing/invalid field {key:?} in {reply:?}"),
                )
            })
    }

    /// Streams edges to the server in `INGEST_CHUNK`-edge lines;
    /// returns the number of edges sent.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn ingest(&mut self, edges: &[Edge]) -> std::io::Result<usize> {
        self.ingest_lines("INGEST", edges)
    }

    /// Sends `edges` as `head u v …` lines of [`INGEST_CHUNK`] edges.
    fn ingest_lines(&mut self, head: &str, edges: &[Edge]) -> std::io::Result<usize> {
        for line in edges.chunks(INGEST_CHUNK) {
            let sent = self.start_ingest_line(head, line);
            self.finish(sent)?;
        }
        Ok(edges.len())
    }

    /// `QUERY GLOBAL`.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn query_global(&mut self) -> std::io::Result<GlobalEstimate> {
        let reply = self.request("QUERY GLOBAL")?;
        let ci = match reply_field(&reply, "ci95") {
            Some("na") | None => None,
            Some(pair) => {
                let (lo, hi) = pair.split_once(',').ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed ci95")
                })?;
                Some((
                    lo.parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed ci95 lo")
                    })?,
                    hi.parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed ci95 hi")
                    })?,
                ))
            }
        };
        Ok(GlobalEstimate {
            position: Self::field(&reply, "position")?,
            tau: Self::field(&reply, "tau")?,
            ci95: ci,
        })
    }

    /// `QUERY LOCAL v` — the node's local estimate.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn query_local(&mut self, v: NodeId) -> std::io::Result<f64> {
        let reply = self.request(&format!("QUERY LOCAL {v}"))?;
        Self::field(&reply, "tau_v")
    }

    /// `TOPK k` — the k largest local estimates, descending.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn top_k(&mut self, k: usize) -> std::io::Result<Vec<(NodeId, f64)>> {
        let reply = self.request(&format!("TOPK {k}"))?;
        let mut out = Vec::new();
        for tok in reply.split_ascii_whitespace().skip(2) {
            // Skip the position=/k= metadata; entries are `node=value`
            // with a numeric key.
            let Some((node, value)) = tok.split_once('=') else {
                continue;
            };
            let Ok(node) = node.parse::<NodeId>() else {
                continue;
            };
            let value = value.parse::<f64>().map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed top-k entry")
            })?;
            out.push((node, value));
        }
        Ok(out)
    }

    /// `STATS` — the raw stats reply line.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn stats(&mut self) -> std::io::Result<String> {
        self.request("STATS")
    }

    /// `FLUSH` — barrier; returns the stream position.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn flush(&mut self) -> std::io::Result<u64> {
        let reply = self.request("FLUSH")?;
        Self::field(&reply, "position")
    }

    /// `CHECKPOINT` — returns the checkpointed position.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors (including "no checkpoint path").
    pub fn checkpoint(&mut self) -> std::io::Result<u64> {
        let reply = self.request("CHECKPOINT")?;
        Self::field(&reply, "position")
    }

    /// `SHUTDOWN` — asks the server to stop accepting connections.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn shutdown_server(&mut self) -> std::io::Result<()> {
        self.request("SHUTDOWN").map(|_| ())
    }

    // ---- v2: tenant scoping ------------------------------------------

    /// `USE name` — switches this connection's current tenant; every
    /// later v1-form command acts on it.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors (including unknown tenants).
    pub fn use_tenant(&mut self, name: &str) -> std::io::Result<()> {
        self.request(&format!("USE {name}")).map(|_| ())
    }

    /// `TENANT CREATE name [key=value …]` — creates a tenant. `options`
    /// is the raw option string (`""` inherits the router base config
    /// entirely), e.g. `"engine=per-worker seed=9"`.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn tenant_create(&mut self, name: &str, options: &str) -> std::io::Result<()> {
        let line = if options.is_empty() {
            format!("TENANT CREATE {name}")
        } else {
            format!("TENANT CREATE {name} {options}")
        };
        self.request(&line).map(|_| ())
    }

    /// `TENANT CREATE name interval=i` — creates an interval-derived
    /// tenant (independent seed for window `i`).
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn tenant_create_interval(&mut self, name: &str, interval: u64) -> std::io::Result<()> {
        self.tenant_create(name, &format!("interval={interval}"))
    }

    /// `TENANT LIST` — `(tenant, stream position)` pairs, sorted by
    /// name.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn tenant_list(&mut self) -> std::io::Result<Vec<(String, u64)>> {
        let reply = self.request("TENANT LIST")?;
        let mut out = Vec::new();
        // Skip `OK TENANTS n=<count>` positionally — a tenant may
        // legitimately be named `n`, so the header cannot be filtered
        // by key. Entries are `name=position[:interval=i]`.
        for tok in reply.split_ascii_whitespace().skip(3) {
            let Some((name, rest)) = tok.split_once('=') else {
                continue;
            };
            let position = rest
                .split(':')
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed tenant entry")
                })?;
            out.push((name.to_string(), position));
        }
        Ok(out)
    }

    /// `TENANT DROP name` — shuts the tenant down and removes it.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn tenant_drop(&mut self, name: &str) -> std::io::Result<()> {
        self.request(&format!("TENANT DROP {name}")).map(|_| ())
    }

    /// Streams edges to a tenant scope (`"*"` for all tenants, or a
    /// comma-separated tenant list) in `INGEST_CHUNK`-edge lines;
    /// returns the number of edges sent.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn ingest_to(&mut self, scope: &str, edges: &[Edge]) -> std::io::Result<usize> {
        self.ingest_lines(&format!("INGEST {scope}"), edges)
    }

    /// `TOPK k *` — the k largest local estimates across all tenants,
    /// descending, as `(tenant, node, τ̂_v)`.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn top_k_all(&mut self, k: usize) -> std::io::Result<Vec<(String, NodeId, f64)>> {
        let reply = self.request(&format!("TOPK {k} *"))?;
        let mut out = Vec::new();
        for tok in reply.split_ascii_whitespace().skip(3) {
            // Entries are `tenant/node=value` after the `k=` header.
            let Some((key, value)) = tok.split_once('=') else {
                continue;
            };
            let Some((tenant, node)) = key.split_once('/') else {
                continue;
            };
            let node = node.parse::<NodeId>().map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed top-k node")
            })?;
            let value = value.parse::<f64>().map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed top-k entry")
            })?;
            out.push((tenant.to_string(), node, value));
        }
        Ok(out)
    }

    /// `STATS *` — the raw aggregated stats reply line.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn stats_all(&mut self) -> std::io::Result<String> {
        self.request("STATS *")
    }

    /// `HEALTH` — the current tenant's pressure gauges as the raw reply
    /// line (`state= queue= capacity= bytes= budget= journal_lag=
    /// dlq= sync= last_group=`).
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn health(&mut self) -> std::io::Result<String> {
        self.request("HEALTH")
    }

    /// Sends a request whose reply is `OK <verb> … lines=<n>` followed
    /// by `n` body lines, and returns the header and those body lines.
    /// `n` is the peer's claim, so the body grows as lines arrive
    /// rather than being sized from the header: a bogus count costs a
    /// typed error, not an allocation.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, a malformed header, or a connection
    /// closed mid-body.
    fn request_block(&mut self, line: &str) -> std::io::Result<(String, Vec<String>)> {
        let sent = self.start_request(line);
        self.finish_block(sent)
    }

    /// The read half of a request started with [`Self::start_request`]
    /// whose reply is a block: the `OK … lines=<n>` header and its `n`
    /// body lines. `n` is the peer's claim, so the body grows as lines
    /// arrive rather than being sized from the header.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, a malformed header, or a connection
    /// closed mid-body.
    pub fn finish_block(
        &mut self,
        sent: std::io::Result<()>,
    ) -> std::io::Result<(String, Vec<String>)> {
        let header = self.finish(sent)?;
        let n: usize = Self::field(&header, "lines")?;
        let mut body = Vec::new();
        for _ in 0..n {
            let mut l = String::new();
            if self.reader.read_line(&mut l)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            l.truncate(l.trim_end().len());
            body.push(l);
        }
        Ok((header, body))
    }

    /// `AGGREGATE` — barrier, then the server's raw per-group counters
    /// ([`GroupAggregate`]) and the position they cover. The wire
    /// carries only integers, so the returned aggregates are exactly
    /// the ones the server held — the `rept-shard` coordinator's
    /// exchange primitive.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, or `ERR …` for reservoir tenants (no
    /// group structure).
    pub fn aggregates(&mut self) -> std::io::Result<(u64, Vec<GroupAggregate>)> {
        let (header, body) = self.request_block("AGGREGATE")?;
        crate::protocol::parse_aggregate_reply(&header, &body).map_err(std::io::Error::other)
    }

    /// `METRICS` — the current tenant's Prometheus-style exposition as
    /// one multi-line string (one sample or `# TYPE` header per line).
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        Ok(self.request_block("METRICS")?.1.join("\n"))
    }

    /// `METRICS *` — the exposition for every tenant, including the
    /// `tenant="_all"` cross-tenant aggregate rows.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn metrics_all(&mut self) -> std::io::Result<String> {
        Ok(self.request_block("METRICS *")?.1.join("\n"))
    }

    /// `TRACE TAIL n` — drains the current tenant's slow-op trace ring:
    /// up to `n` newest events, oldest first, one
    /// `at_us= op= micros= [detail]` line each.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn trace_tail(&mut self, n: usize) -> std::io::Result<Vec<String>> {
        Ok(self.request_block(&format!("TRACE TAIL {n}"))?.1)
    }

    /// `DLQ REPLAY` — drains the current tenant's dead-letter file back
    /// through ingest; returns `(drained lines, failed again)`.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn dlq_replay(&mut self) -> std::io::Result<(u64, u64)> {
        let reply = self.request("DLQ REPLAY")?;
        Ok((Self::field(&reply, "n")?, Self::field(&reply, "failed")?))
    }
}

/// Appends the decimal digits of `x` — what `format!("{x}")` writes,
/// without the formatter or an allocation. Shared by the `INGEST`
/// encoder and [`crate::protocol::format_aggregate`].
pub(crate) fn push_decimal(out: &mut Vec<u8>, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::TcpListener;

    /// A line server that answers `OK INGEST` to every line and returns
    /// every byte it received once the client hangs up.
    fn record_ingest(send: impl FnOnce(&mut Client)) -> Vec<u8> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut seen = Vec::new();
            loop {
                let before = seen.len();
                if reader.read_until(b'\n', &mut seen).expect("read") == 0 {
                    return seen;
                }
                let edges = seen[before..].split(u8::is_ascii_whitespace).count() / 2;
                writer
                    .write_all(format!("OK INGEST {edges}\n").as_bytes())
                    .expect("reply");
            }
        });
        let mut client = Client::connect(addr).expect("connect");
        send(&mut client);
        drop(client);
        server.join().expect("recording server")
    }

    /// An endpoint: 0, `u32::MAX` or any id.
    fn endpoint(pick: u32, x: u32) -> NodeId {
        match pick {
            0 => 0,
            1 => NodeId::MAX,
            _ => x,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn ingest_writes_the_formatted_lines_byte_for_byte(
            ends in proptest::collection::vec((0..4u32, any::<u32>(), 0..4u32, any::<u32>()), 0..700),
        ) {
            let edges: Vec<Edge> = ends
                .iter()
                .filter_map(|&(pu, u, pv, v)| Edge::try_new(endpoint(pu, u), endpoint(pv, v)))
                .collect();
            let seen = record_ingest(|client| {
                assert_eq!(client.ingest(&edges).expect("ingest"), edges.len());
                assert_eq!(client.ingest_to("alpha,beta", &edges).expect("scoped"), edges.len());
            });
            // The encoding the client used to build with `format!`, one
            // `\n` per line.
            let mut want = String::new();
            for head in ["INGEST", "INGEST alpha,beta"] {
                for chunk in edges.chunks(INGEST_CHUNK) {
                    want.push_str(head);
                    for e in chunk {
                        want.push_str(&format!(" {} {}", e.u(), e.v()));
                    }
                    want.push('\n');
                }
            }
            prop_assert_eq!(String::from_utf8(seen).expect("ASCII"), want);
        }
    }
}
