//! The repetition harness of `bench_throughput` and `bench_serve`.
//!
//! One run of a bench row says little on a shared host: the same build
//! reads up to 2× apart from one run to the next. So every timed section
//! runs its variants through [`interleaved`]: [`REPS`] rounds, each
//! running every variant once, round `r` starting at variant `r mod N`,
//! so that slow drift of the host favours no variant and none always
//! runs first. Each variant's seconds are summarised as a [`Spread`]
//! (minimum and quartiles, computed as `servebench/reps.py` does), and
//! rates are computed from the median. Every row is written beside
//! [`host_parallelism`], measured once per run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rept_metrics::Spread;

/// Rounds per timed section; every variant runs once per round.
pub const REPS: usize = 5;

/// Runs [`REPS`] rounds over `variants` variants. `run(k)` executes
/// variant `k` once and returns the time of its measured part, so a
/// variant's setup and teardown can stay outside it. Returns each
/// variant's spread of seconds, in variant order. With at most [`REPS`]
/// variants, as in every bench section, each variant leads a round.
pub fn interleaved(variants: usize, mut run: impl FnMut(usize) -> Duration) -> Vec<Spread> {
    let mut seconds = vec![Vec::with_capacity(REPS); variants];
    for r in 0..REPS {
        for i in 0..variants {
            let k = (r + i) % variants;
            seconds[k].push(run(k).as_secs_f64());
        }
    }
    seconds
        .iter()
        .map(|s| Spread::of(s).expect("REPS > 0"))
        .collect()
}

/// A spread of seconds as a JSON object.
pub fn seconds_json(s: &Spread) -> String {
    format!(
        "{{\"min\": {:.6}, \"q1\": {:.6}, \"median\": {:.6}, \"q3\": {:.6}}}",
        s.min, s.q1, s.median, s.q3
    )
}

/// Throughput of a fixed CPU-bound loop on as many threads as
/// `available_parallelism` reports, over its throughput on one thread:
/// what the host can really run in parallel at the time of the run.
/// `servebench` reports the same measurement as `host.parallelism`.
pub fn host_parallelism() -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_leads_a_round_and_runs_once_per_round() {
        for n in 1..=REPS {
            let mut order = Vec::new();
            let spreads = interleaved(n, |k| {
                order.push(k);
                Duration::from_millis(k as u64 + 1)
            });
            assert_eq!(order.len(), REPS * n);
            for round in order.chunks(n) {
                let mut seen = round.to_vec();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "one run each");
            }
            let leaders: Vec<usize> = order.chunks(n).map(|round| round[0]).collect();
            for k in 0..n {
                assert!(leaders.contains(&k), "variant {k} of {n} never leads");
            }
            // Spreads come back in variant order, not run order.
            for (k, s) in spreads.iter().enumerate() {
                assert_eq!(s.median, (k + 1) as f64 / 1000.0);
            }
        }
    }

    #[test]
    fn spreads_are_written_with_every_quartile() {
        let s = Spread::of(&[0.25, 0.5, 1.0, 2.0, 4.0]).expect("samples");
        assert_eq!(
            seconds_json(&s),
            "{\"min\": 0.250000, \"q1\": 0.375000, \"median\": 1.000000, \"q3\": 3.000000}"
        );
    }
}
