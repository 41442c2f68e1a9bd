//! **Figure 8** — REPT vs memory-equalised single-threaded baselines
//! (Flickr analog).
//!
//! The paper's §IV-E: give a *single-threaded* MASCOT-S / TRIÈST-S / GPS-S
//! the same total memory as REPT's `c` processors (probability `c·p`,
//! budget `c·p·|E|`, budget `c·p·|E|/2` respectively) and compare runtime
//! (panels a/b) and NRMSE (panels c/d) as `c` grows, for `1/p = 10` and
//! `1/p = 100`. Expected shape: REPT's (simulated) wall-clock stays flat
//! and far below the single-threaded methods, whose cost grows with `c·p`;
//! REPT's error is slightly above MASCOT-S/TRIÈST-S (they aggregate one
//! big sample) and below GPS-S.
//!
//! REPT's accuracy cells don't need per-processor timing, so they run
//! through [`rept_cell_with_engine`] on the engine selected by
//! `--engine` (default: fused-hybrid); only the runtime panels keep the
//! per-worker engine, whose independent per-processor work is what the
//! simulated wall-clock model times. The engine used for each row is
//! recorded in the CSV (`-` for the single-threaded baselines).
//!
//! Run: `cargo run --release -p rept-bench --bin fig8 [--trials N] [--engine E]`

use rept_baselines::scaled::{gps_s, mascot_s, triest_s};
use rept_bench::runners::{rept_cell_with_engine, single_cell, CellOptions};
use rept_bench::timing::{rept_runtime, single_runtime};
use rept_bench::{Args, ExperimentContext};
use rept_gen::DatasetId;
use rept_metrics::report::{fmt_num, Table};

fn main() {
    let args = Args::from_env();
    let scale = args.scale_or(0.25);
    let trials = args.trials_or(15);
    let engine = args.engine_or_default();
    let ctx = ExperimentContext::load(args.datasets_or(&[DatasetId::FlickrSim])[0], scale);
    let stream = &ctx.dataset.stream;
    let edges = stream.len();

    let mut table = Table::new(vec![
        "panel",
        "1/p",
        "c",
        "method",
        "engine",
        "wall-seconds",
        "nrmse",
    ]);

    for (panel, inv_p, cs) in [
        ("a/c", 10u64, vec![2u64, 4, 6, 8, 10]),
        ("b/d", 100u64, vec![8u64, 16, 24, 32]),
    ] {
        let p = 1.0 / inv_p as f64;
        for &c in &cs {
            let opts = CellOptions {
                locals: false,
                trials,
                base_seed: args.seed ^ (c << 9),
            };
            // REPT: c processors in (simulated) parallel. Timing stays
            // per-worker (the wall-clock model needs independent
            // processor work); accuracy runs on the selected engine.
            let rt = rept_runtime(stream, inv_p, c, args.seed);
            let err = rept_cell_with_engine(stream, &ctx.gt, inv_p, c, opts, engine);
            table.push_row(vec![
                panel.to_string(),
                inv_p.to_string(),
                c.to_string(),
                "REPT".to_string(),
                engine.name().to_string(),
                fmt_num(rt.simulated_wall().as_secs_f64()),
                fmt_num(err.global.nrmse),
            ]);

            // Single-threaded memory-equalised baselines.
            let singles: Vec<(&str, std::time::Duration, f64)> = vec![
                (
                    "MASCOT-S",
                    single_runtime(stream, args.seed, |s| mascot_s(p, c, s)),
                    single_cell(stream, &ctx.gt, opts, |s| mascot_s(p, c, s))
                        .global
                        .nrmse,
                ),
                (
                    "TRIEST-S",
                    single_runtime(stream, args.seed, |s| triest_s(p, c, edges, s)),
                    single_cell(stream, &ctx.gt, opts, |s| triest_s(p, c, edges, s))
                        .global
                        .nrmse,
                ),
                (
                    "GPS-S",
                    single_runtime(stream, args.seed, |s| gps_s(p, c, edges, s)),
                    single_cell(stream, &ctx.gt, opts, |s| gps_s(p, c, edges, s))
                        .global
                        .nrmse,
                ),
            ];
            for (name, wall, nrmse) in singles {
                table.push_row(vec![
                    panel.to_string(),
                    inv_p.to_string(),
                    c.to_string(),
                    name.to_string(),
                    "-".to_string(),
                    fmt_num(wall.as_secs_f64()),
                    fmt_num(nrmse),
                ]);
            }
            eprintln!("  panel {panel}, 1/p={inv_p}, c={c} done");
        }
    }

    println!(
        "Figure 8 — REPT vs single-threaded memory-equalised baselines ({}, {trials} trials)",
        ctx.dataset.name()
    );
    println!("{}", table.render());
    let path = args.out.join("fig8.csv");
    table.write_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}
