//! The live run: the server stack in a child process, one closed-loop
//! producer and one open-loop querier on two connections to its TCP
//! front door, and the end-to-end metrics of every pass.
//!
//! A pass launches a fresh stack (resuming a copy of the frozen durable
//! state on `ws-durable-shards`), ingests the workload's stream in
//! 4096-edge `Client::ingest` calls while the querier runs, checks the
//! served `QUERY GLOBAL` and `TOPK` lines against the oracle, and reads
//! the server process's peak memory and CPU time before killing it.

use std::convert::Infallible;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rept_graph::edge::Edge;
use rept_serve::protocol::reply_field;
use rept_serve::{Client, ClientConfig, Server};
use rept_shard::{CoordinatorServer, ShardCoordinator, ShardLink};

use crate::ladder::Spans;
use crate::stats::{median, us, windowed_percentile};
use crate::workload::{
    fresh_dir, shard_dir, Frozen, Kind, Oracle, Workload, PRODUCER_BATCH, SHARDS, TOP_K,
};
use crate::Outcome;

/// Connection threads per server: the producer and the querier (on a
/// shard, the coordinator's link and the benchmark's `HEALTH` probe).
const HANDLERS: usize = 2;
/// Reply timeout of every benchmark connection: a hung stack fails the
/// run instead of stalling it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The child-process launcher, run as `servebench stack <workload> <dir>
/// [--smoke]`: starts the workload's server stack, prints `READY <front>
/// [<shard> …]` and serves until its standard input closes.
pub fn stack_main(args: &[String]) -> ! {
    let err = match launch(args) {
        Ok(never) => match never {},
        Err(e) => e,
    };
    eprintln!("servebench stack: {err}");
    std::process::exit(1)
}

fn launch(args: &[String]) -> Result<Infallible, String> {
    let [name, dir, flags @ ..] = args else {
        return Err("usage: servebench stack <workload> <dir> [--smoke]".into());
    };
    let kind = Kind::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let w = Workload {
        kind,
        smoke: flags.iter().any(|f| f == "--smoke"),
    };
    let dir = PathBuf::from(dir);
    let io = |e: std::io::Error| e.to_string();
    if !w.durable() {
        let server = Server::start(w.serve_config(None), "127.0.0.1:0", HANDLERS).map_err(io)?;
        return serve_until_eof(&format!("READY {}", server.local_addr()));
    }
    let shards = (0..SHARDS)
        .map(|i| {
            let cfg = w.shard_config(i, &shard_dir(&dir, i));
            Server::start(cfg, "127.0.0.1:0", HANDLERS)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;
    let links = shards
        .iter()
        .map(|s| ShardLink::connect(s.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;
    let coordinator = ShardCoordinator::start(w.coordinator_config(), links)?;
    let front = CoordinatorServer::start(coordinator, "127.0.0.1:0", HANDLERS).map_err(io)?;
    let mut ready = format!("READY {}", front.local_addr());
    for s in &shards {
        ready.push_str(&format!(" {}", s.local_addr()));
    }
    serve_until_eof(&ready)
}

/// Announces the stack and blocks until standard input closes, then
/// exits without tearing the stack down: its final checkpoints would
/// only delay the parent, which discards the directory anyway.
fn serve_until_eof(ready: &str) -> Result<Infallible, String> {
    let mut out = std::io::stdout();
    writeln!(out, "{ready}")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    std::process::exit(0)
}

/// A server stack running in its child process; killed and reaped on
/// drop.
struct Stack {
    child: Child,
    front: SocketAddr,
    shards: Vec<SocketAddr>,
}

impl Stack {
    fn launch(w: &Workload, dir: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("stack").arg(w.name()).arg(dir);
        if w.smoke {
            cmd.arg("--smoke");
        }
        let child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("launch stack: {e}"))?;
        let mut stack = Self {
            child,
            front: SocketAddr::from(([127, 0, 0, 1], 0)),
            shards: Vec::new(),
        };
        let stdout = stack.child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("stack output: {e}"))?;
        let mut addrs = line
            .strip_prefix("READY ")
            .ok_or_else(|| format!("stack did not start: {line:?}"))?
            .split_whitespace()
            .map(|a| {
                a.parse::<SocketAddr>()
                    .map_err(|e| format!("stack address {a:?}: {e}"))
            });
        stack.front = addrs.next().ok_or("stack announced no address")??;
        stack.shards = addrs.collect::<Result<_, _>>()?;
        Ok(stack)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Opens a benchmark connection (the client's own `ERR BUSY` retry, no
/// transport retry).
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_with(
        addr,
        ClientConfig::default().with_read_timeout(READ_TIMEOUT),
    )
    .map_err(|e| format!("connect {addr}: {e}"))
}

/// Peak resident set (bytes) and CPU time (ns) of a live process, from
/// `/proc`; zeros where `/proc` is unavailable. The CPU time is the sum
/// of each thread's time on a CPU from its `schedstat`, in ns:
/// `/proc/<pid>/stat` truncates `utime` and `stime` to 10 ms ticks
/// each, up to a third of the CPU of a 60 ms `ba-wire` pass. The stack's
/// threads all live until it is killed, so none is missed.
fn proc_usage(pid: u32) -> (u64, u64) {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    let peak_kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0);
    let cpu_ns = std::fs::read_dir(format!("/proc/{pid}/task"))
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    (peak_kb * 1024, cpu_ns)
}

/// The reply's `HEALTH bytes=` field: the server's stored edge bytes.
fn health_bytes(client: &mut Client) -> Result<u64, String> {
    let reply = client.health().map_err(|e| format!("HEALTH: {e}"))?;
    reply_field(&reply, "bytes")
        .and_then(|b| b.parse().ok())
        .ok_or_else(|| format!("HEALTH without bytes=: {reply}"))
}

/// Age in ms, at `done`, of the oldest edge handed to `Client::ingest`
/// that a reply at stream `position` does not cover; 0 when it covers
/// every edge handed over by then. `sends` holds each call's stream
/// range and start time, in order. An edge counts from the start of the
/// call that carries it: the client acks per 256-edge line inside the
/// call, which the producer cannot see.
pub fn freshness_ms(sends: &[(u64, u64, Instant)], position: u64, done: Instant) -> f64 {
    let carrier = sends.partition_point(|&(_, end, _)| end <= position);
    match sends.get(carrier) {
        Some(&(_, _, at)) if at <= done => (done - at).as_secs_f64() * 1e3,
        _ => 0.0,
    }
}

/// One answered query.
struct Answer {
    due: Instant,
    sent: Instant,
    done: Instant,
    position: u64,
}

/// The open-loop querier: sends the workload's query mix at its fixed
/// rate on its own connection until `stop`. A query is due on schedule
/// whether or not the previous reply has come back. Returns the answers
/// and the attempted and failed counts.
fn query_loop(
    w: &Workload,
    addr: SocketAddr,
    stop: &AtomicBool,
    mut spans: Option<&mut Spans>,
) -> (Vec<Answer>, u64, u64) {
    let mut answers = Vec::new();
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("querier: {e}");
            return (answers, 1, 1);
        }
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let period = 1.0 / w.query_rate();
    let start = Instant::now();
    let mut k = 0u64;
    loop {
        let due = start + Duration::from_secs_f64(k as f64 * period);
        loop {
            if stop.load(Ordering::SeqCst) {
                return (answers, attempted, failed);
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(2)));
        }
        attempted += 1;
        let line = w.query_line(k);
        let sent = Instant::now();
        let reply = match spans.as_deref_mut() {
            Some(sp) => sp.time("live.query", None, k, || client.request(&line)),
            None => client.request(&line),
        };
        let done = Instant::now();
        match reply
            .ok()
            .and_then(|r| reply_field(&r, "position")?.parse().ok())
        {
            Some(position) => answers.push(Answer {
                due,
                sent,
                done,
                position,
            }),
            None => failed += 1,
        }
        k += 1;
    }
}

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Launch of the stack to its first answered request.
    pub setup_s: f64,
    /// Edges acked at the front door.
    pub edges: u64,
    /// First ingest call to the last ack.
    pub ingest_s: f64,
    /// Latency of each `Client::ingest` call.
    pub ack_us: Vec<f64>,
    /// Query latency from the scheduled send to the reply.
    pub query_us: Vec<f64>,
    /// How late the querier sent each query.
    pub late_us: Vec<f64>,
    /// Freshness of each reply ([`freshness_ms`]).
    pub fresh_ms: Vec<f64>,
    /// Peak RSS of the server process.
    pub rss_bytes: u64,
    /// User plus system CPU of the server process.
    pub cpu_ns: u64,
    /// `HEALTH bytes=` at the end, summed over shards.
    pub stored_bytes: u64,
    /// Ingest calls, queries and oracle checks tried.
    pub attempted: u64,
    /// Of those, failed (after the client's retries) or mismatched.
    pub failed: u64,
    /// The front door's `METRICS` exposition (empty unless scraped).
    pub exposition: String,
}

impl Pass {
    /// Acked edges per second.
    pub fn eps(&self) -> f64 {
        self.edges as f64 / self.ingest_s.max(1e-9)
    }
}

/// What a run builds before it measures, untimed.
pub struct Inputs {
    /// The workload's whole stream.
    pub stream: Vec<Edge>,
    /// The replies a correct stack serves after the whole stream.
    pub oracle: Oracle,
    /// The durable state passes resume from, on the durable workload.
    pub frozen: Option<Frozen>,
}

impl Inputs {
    /// Generates the stream for `seed`, computes its oracle and, on the
    /// durable workload, freezes its resume state under `work`.
    pub fn build(w: &Workload, seed: u64, work: &Path) -> Result<Self, String> {
        let stream = w.stream(seed);
        let oracle = Oracle::compute(w, &stream)?;
        let frozen = w
            .durable()
            .then(|| Frozen::build(w, &stream, &work.join("frozen")))
            .transpose()?;
        Ok(Self {
            stream,
            oracle,
            frozen,
        })
    }

    /// Stream position every pass starts from.
    pub fn base(&self) -> usize {
        self.frozen.as_ref().map_or(0, |f| f.position)
    }
}

/// What every pass of a run shares.
pub struct Live<'a> {
    /// The workload.
    pub w: Workload,
    /// Its stream, oracle and frozen state.
    pub inputs: &'a Inputs,
    /// Working directory for the passes.
    pub work: &'a Path,
}

impl Live<'_> {
    /// Runs one pass in `work/pass<n>`. With `spans`, every ingest call
    /// and query is traced; with `scrape`, the front door's `METRICS` is
    /// kept.
    pub fn pass(
        &self,
        n: usize,
        mut spans: Option<&mut Spans>,
        scrape: bool,
    ) -> Result<Pass, String> {
        let dir = self.work.join(format!("pass{n}"));
        fresh_dir(&dir)?;
        if let Some(frozen) = &self.inputs.frozen {
            frozen.copy_to(&dir)?;
        }
        let base = self.inputs.base();
        let mut pass = Pass::default();

        let launched = Instant::now();
        let stack = Stack::launch(&self.w, &dir)?;
        let mut producer = connect(stack.front)?;
        producer
            .health()
            .map_err(|e| format!("first request: {e}"))?;
        pass.setup_s = launched.elapsed().as_secs_f64();

        let stop = AtomicBool::new(false);
        let mut query_spans = spans.as_deref().map(|sp| sp.fork("live.querier"));
        let mut sends: Vec<(u64, u64, Instant)> = Vec::new();
        let (answers, queries_attempted, queries_failed) = std::thread::scope(|s| {
            let querier = s.spawn(|| query_loop(&self.w, stack.front, &stop, query_spans.as_mut()));
            let mut position = base as u64;
            let started = Instant::now();
            for (b, batch) in self.inputs.stream[base..]
                .chunks(PRODUCER_BATCH)
                .enumerate()
            {
                pass.attempted += 1;
                let call = Instant::now();
                sends.push((position, position + batch.len() as u64, call));
                let result = match spans.as_deref_mut() {
                    Some(sp) => sp.time("live.ingest", None, b as u64, || producer.ingest(batch)),
                    None => producer.ingest(batch),
                };
                let acked = Instant::now();
                if let Err(e) = result {
                    eprintln!("ingest: {e}");
                    pass.failed += 1;
                    break;
                }
                position += batch.len() as u64;
                pass.ack_us.push(us(acked - call));
                pass.ingest_s = (acked - started).as_secs_f64();
            }
            pass.edges = position - base as u64;
            stop.store(true, Ordering::SeqCst);
            querier.join().expect("querier thread")
        });
        if let (Some(sp), Some(q)) = (spans, query_spans) {
            sp.spans.extend(q.spans);
        }
        pass.attempted += queries_attempted;
        pass.failed += queries_failed;
        for a in &answers {
            pass.query_us.push(us(a.done - a.due));
            pass.late_us.push(us(a.sent - a.due));
            pass.fresh_ms.push(freshness_ms(&sends, a.position, a.done));
        }

        // The oracle check: after a barrier the served lines must equal
        // the in-process oracle's byte for byte.
        producer.flush().map_err(|e| format!("FLUSH: {e}"))?;
        for (request, want) in [
            ("QUERY GLOBAL".to_string(), &self.inputs.oracle.global),
            (format!("TOPK {TOP_K}"), &self.inputs.oracle.top_k),
        ] {
            pass.attempted += 1;
            match producer.request(&request) {
                Ok(got) if got == *want => {}
                got => {
                    pass.failed += 1;
                    eprintln!("oracle mismatch on {request}: served {got:?}, expected {want:?}");
                }
            }
        }
        pass.stored_bytes = if stack.shards.is_empty() {
            health_bytes(&mut producer)?
        } else {
            let mut sum = 0;
            for &addr in &stack.shards {
                sum += health_bytes(&mut connect(addr)?)?;
            }
            sum
        };
        if scrape {
            pass.exposition = producer.metrics().map_err(|e| format!("METRICS: {e}"))?;
        }
        (pass.rss_bytes, pass.cpu_ns) = proc_usage(stack.child.id());
        drop(producer);
        drop(stack);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(pass)
    }
}

/// Calls `f(0)`, `f(1)`, … at least `min` times and then until `seconds`
/// are spent, starting another call only while the median call so far
/// would still end in time.
pub fn repeat_for<T>(
    seconds: f64,
    min: usize,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let (mut out, mut took) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        out.push(f(out.len())?);
        took.push(t.elapsed().as_secs_f64());
        if out.len() >= min && start.elapsed().as_secs_f64() + median(&took) > seconds {
            return Ok(out);
        }
    }
}

/// The untraced run: passes for `seconds`, then the end-to-end metrics.
pub fn untraced_run(w: &Workload, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let inputs = Inputs::build(w, seed, work)?;
    let live = Live {
        w: *w,
        inputs: &inputs,
        work,
    };
    let passes = repeat_for(seconds, 1, |n| live.pass(n, None, false))?;
    Ok(end_to_end(&passes))
}

/// The metrics `BENCHMARK.json` gates, the only ones on the result
/// line: throughput, CPU and memory per edge, and set-up time. The
/// other seven are printed beside them, but the host or the load
/// generator moves them more than the stack does:
/// * `ingest_ack_p50_us` and `ingest_ack_p99_us` read the client's
///   5–10 ms `ERR BUSY` sleeps. On `chunglu-hubs` the full 16-line queue
///   drains in about 12 ms, so the median call jumps between one and two
///   sleeps as the host's speed drifts: ten runs of the same code spread
///   it by 29 % and then 34 %. On `ba-wire` the p99 is a call that met a
///   queue filled while the apply thread waited for a CPU, and its
///   spread ranged from 3 % to 18 % over four sets of ten runs.
///   `ingest_eps` carries the mean call;
/// * `query_p50_us` and `query_p99_us` follow the host's scheduler
///   wherever a reply takes no lock. A `TOPK 100` or `QUERY LOCAL`
///   round trip is about 60 µs of wake-ups and loopback TCP, plus about
///   70 µs of the querier's own sleep overshoot, and ten runs spread its
///   median by 15 % and then 25 %. The p99 read 1.0 ms with two free
///   vCPUs and 3.5 ms with one. `protocol.reply_us` times the reply's
///   own work;
/// * `freshness_p50_ms` and `freshness_p99_ms` follow the phase of the
///   querier against the producer's calls. Behind the coordinator's
///   lock a third of the replies on `ws-durable-shards` read under
///   0.1 ms and the rest 1–20 ms, and the median falls in the gap:
///   ten runs of the same code spread it by 14 % and then by 48 %;
/// * `failed_frac` is 0 on a passing run, and the result line's
///   `attempted` and `failed` keys carry it.
const GATED: [&str; 5] = [
    "ingest_eps",
    "setup_s",
    "stored_mb",
    "server_rss_mb",
    "server_cpu_ns_per_edge",
];

/// The end-to-end metrics of a run's passes, in `BENCHMARK.json` order.
/// Prints all twelve with their sample counts.
pub fn end_to_end(passes: &[Pass]) -> Outcome {
    let pooled = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let per_pass = |f: fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let (acks, queries, fresh) = (
        pooled(|p| &p.ack_us),
        pooled(|p| &p.query_us),
        pooled(|p| &p.fresh_ms),
    );
    let edges: u64 = passes.iter().map(|p| p.edges).sum();
    let cpu_ns: u64 = passes.iter().map(|p| p.cpu_ns).sum();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let stored = passes.last().map_or(0, |p| p.stored_bytes);
    let np = passes.len();
    let pct = |name, samples: &[f64], q, unit| {
        let (value, windows) = windowed_percentile(samples, q);
        let note = format!("n={}, median of {windows} window(s)", samples.len());
        (name, value, unit, note)
    };
    let rows: Vec<(&'static str, f64, &'static str, String)> = vec![
        (
            "ingest_eps",
            median(&per_pass(Pass::eps)),
            "1/s",
            format!("median of {np} passes"),
        ),
        pct("ingest_ack_p50_us", &acks, 0.5, "us"),
        pct("ingest_ack_p99_us", &acks, 0.99, "us"),
        pct("query_p50_us", &queries, 0.5, "us"),
        pct("query_p99_us", &queries, 0.99, "us"),
        pct("freshness_p50_ms", &fresh, 0.5, "ms"),
        pct("freshness_p99_ms", &fresh, 0.99, "ms"),
        (
            "setup_s",
            median(&per_pass(|p| p.setup_s)),
            "s",
            format!("median of {np} launches"),
        ),
        (
            "stored_mb",
            stored as f64 / 1e6,
            "MB",
            "HEALTH bytes=, summed over shards".into(),
        ),
        (
            "server_rss_mb",
            median(&per_pass(|p| p.rss_bytes as f64)) / 1e6,
            "MB",
            format!("median peak of {np} processes"),
        ),
        (
            "server_cpu_ns_per_edge",
            cpu_ns as f64 / edges.max(1) as f64,
            "ns",
            format!("{edges} acked edges"),
        ),
        (
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            format!("{failed} of {attempted} operations"),
        ),
    ];
    for (name, value, unit, samples) in &rows {
        eprintln!("  {name:<24} {value:>16.4} {unit:<5} ({samples})");
    }
    let late = pooled(|p| &p.late_us);
    eprintln!(
        "  loadgen.query_late_p99_us {:>15.1} us    (n={})",
        windowed_percentile(&late, 0.99).0,
        late.len()
    );
    Outcome {
        attempted,
        failed,
        metrics: rows
            .into_iter()
            .filter(|row| GATED.contains(&row.0))
            .map(|(name, value, unit, _)| (name, value, unit))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freshness_counts_from_the_call_carrying_the_first_uncovered_edge() {
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(4);
        let sends = [(0, 10, t0), (10, 20, t1)];
        let at = |ms| t1 + Duration::from_millis(ms);
        let close = |got: f64, want: f64| (got - want).abs() < 1e-6;
        assert!(close(freshness_ms(&sends, 10, at(2)), 2.0));
        assert!(close(freshness_ms(&sends, 15, at(2)), 2.0));
        assert!(close(freshness_ms(&sends, 5, at(2)), 6.0));
        // Everything handed over is covered.
        assert_eq!(freshness_ms(&sends, 20, at(2)), 0.0);
        // The call carrying edge 10 started after the reply.
        assert_eq!(freshness_ms(&sends, 10, t0), 0.0);
    }
}
