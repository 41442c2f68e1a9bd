//! Benchmark of the REPT serving stack: three workloads driven over TCP
//! against the real front door, end-to-end metrics checked against an
//! in-process oracle, and a traced ladder that splits each workload's
//! ingest time over the modules on the ingest path.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload ba-wire --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `--trace 0` runs the live measurement ([`live`]): the server stack
//!   in a child process (this executable started as `servebench stack
//!   …`), one closed-loop producer and one open-loop querier, and prints
//!   the end-to-end metrics.
//! * `--trace 1` runs the layer ladder ([`ladder`]) plus a short live
//!   comparison, and prints the per-layer ledger.
//! * `--smoke` shrinks every stream so each workload runs in seconds.
//! * `--seed` is the generator seed (default 1). Seed 1001 is held out:
//!   claims are re-checked on it, never tuned on it.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the readable report
//! goes to standard error. Every run appends its result line, with its
//! measured host parallelism, to `.bench_out/runs.jsonl`; traced runs
//! write their spans there too. Working state lives in `.bench_work/`.
//! Both directories are relative to the working directory.
//! `servebench/reps.py` runs seeded repetitions interleaved across the
//! workloads and summarises their spread.

mod ladder;
mod live;
mod stats;
mod workload;

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use workload::{Kind, Workload};

/// One metric of the result line: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run reports on its result line.
pub struct Outcome {
    /// Operations tried: ingest calls, queries and oracle checks.
    pub attempted: u64,
    /// Operations that failed after the client's own retries, plus
    /// oracle mismatches.
    pub failed: u64,
    /// The end-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut smoke) = (None, 1, 20.0, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(
                    Kind::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required: ba-wire, chunglu-hubs or ws-durable-shards")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// Throughput of a fixed CPU-bound loop on as many threads as
/// `available_parallelism` reports, over its throughput on one thread:
/// what the host can really run in parallel at the time of the run.
fn host_parallelism() -> f64 {
    const SPINS: u64 = 40_000_000;
    let spin = || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..SPINS {
            x = (x ^ black_box(i))
                .wrapping_mul(0xD129_0C9B_2B2B_8B75)
                .rotate_left(23);
        }
        black_box(x);
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let t = Instant::now();
    spin();
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(spin);
        }
    });
    threads as f64 * one / t.elapsed().as_secs_f64()
}

/// The result line: one JSON object, every value with all its digits.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a metric with no samples reads 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// Appends the run's result line, with its seed and measured host
/// parallelism, to `runs.jsonl` under `out`.
fn record(out: &Path, args: &Args, parallelism: f64, line: &str) {
    let entry = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \
         \"host.parallelism\": {parallelism}, \"result\": {line}}}\n",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        args.smoke
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("runs.jsonl"))
        .and_then(|mut f| f.write_all(entry.as_bytes()));
    if let Err(e) = appended {
        eprintln!("servebench: runs.jsonl: {e}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "stack") {
        live::stack_main(&argv[1..]);
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("servebench: {e}");
        std::process::exit(2);
    });
    let w = Workload {
        kind: args.kind,
        smoke: args.smoke,
    };
    let work = Path::new(".bench_work").join(format!("{}-{}", w.name(), std::process::id()));
    let out = Path::new(".bench_out");
    let parallelism = host_parallelism();
    eprintln!(
        "servebench {} seed={} seconds={} trace={}{}: host.parallelism={parallelism:.2}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" }
    );
    let outcome = std::fs::create_dir_all(&work)
        .and_then(|()| std::fs::create_dir_all(out))
        .map_err(|e| format!("working directories: {e}"))
        .and_then(|()| {
            if args.trace {
                ladder::traced_run(&w, args.seed, args.seconds, &work, out, parallelism)
            } else {
                live::untraced_run(&w, args.seed, args.seconds, &work)
            }
        });
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    });
    let line = result_line(&outcome);
    record(out, &args, parallelism, &line);
    println!("{line}");
}
