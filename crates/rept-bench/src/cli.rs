//! Minimal command-line parsing shared by the experiment binaries.
//!
//! Flags (all optional):
//!
//! * `--trials N` — Monte-Carlo trials per cell (binaries pick defaults);
//! * `--scale F` — dataset scale fraction in `(0, 1]`;
//! * `--datasets a,b,c` — registry names to run (default: a fast subset);
//! * `--full` — run all eight registry datasets at full scale;
//! * `--seed S` — base seed for the trial sequence;
//! * `--out DIR` — output directory for CSV files (default `results/`);
//! * `--engine E` — REPT execution engine (`per-worker`, `fused-hybrid`;
//!   `fused`, `fused-hash` and `fused-sorted` are aliases of the
//!   latter) for binaries whose cells go through
//!   [`rept_cell_with_engine`](crate::runners::rept_cell_with_engine);
//!   all engines are bit-identical, so this only affects runtime, and
//!   the chosen name is recorded in the CSV output.
//!
//! Hand-rolled on purpose: the approved dependency list has no CLI crate
//! and the grammar is trivial.

use std::path::PathBuf;

use rept_core::Engine;
use rept_gen::DatasetId;

/// Parsed experiment arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Monte-Carlo trials per experiment cell (`None` → binary default).
    pub trials: Option<u64>,
    /// Dataset scale fraction (`None` → binary default).
    pub scale: Option<f64>,
    /// Selected datasets (`None` → binary default).
    pub datasets: Option<Vec<DatasetId>>,
    /// Run everything at full scale.
    pub full: bool,
    /// Base seed.
    pub seed: u64,
    /// CSV output directory.
    pub out: PathBuf,
    /// Execution engine for REPT cells (`None` → binary default).
    pub engine: Option<Engine>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            trials: None,
            scale: None,
            datasets: None,
            full: false,
            seed: 0xEED5,
            out: PathBuf::from("results"),
            engine: None,
        }
    }
}

impl Args {
    /// Parses from an iterator of arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown flags or malformed
    /// values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value_of =
                |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--trials" => {
                    out.trials = Some(
                        value_of("--trials")?
                            .parse::<u64>()
                            .map_err(|e| format!("--trials: {e}"))?,
                    );
                    if out.trials == Some(0) {
                        return Err("--trials must be positive".into());
                    }
                }
                "--scale" => {
                    let s = value_of("--scale")?
                        .parse::<f64>()
                        .map_err(|e| format!("--scale: {e}"))?;
                    if !(s > 0.0 && s <= 1.0) {
                        return Err("--scale must be in (0, 1]".into());
                    }
                    out.scale = Some(s);
                }
                "--datasets" => {
                    let list = value_of("--datasets")?;
                    let mut ids = Vec::new();
                    for name in list.split(',') {
                        match DatasetId::from_name(name.trim()) {
                            Some(id) => ids.push(id),
                            None => {
                                return Err(format!(
                                    "unknown dataset {name:?}; valid: {}",
                                    DatasetId::all()
                                        .iter()
                                        .map(|d| d.name())
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                ))
                            }
                        }
                    }
                    if ids.is_empty() {
                        return Err("--datasets list is empty".into());
                    }
                    out.datasets = Some(ids);
                }
                "--full" => out.full = true,
                "--seed" => {
                    out.seed = value_of("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--out" => out.out = PathBuf::from(value_of("--out")?),
                "--engine" => {
                    let name = value_of("--engine")?;
                    out.engine = Some(Engine::from_name(&name).ok_or_else(|| {
                        format!(
                            "unknown engine {name:?}; valid: {}",
                            Engine::all()
                                .iter()
                                .map(|e| e.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?);
                }
                "--help" | "-h" => {
                    return Err(
                        "flags: --trials N  --scale F  --datasets a,b  --full  --seed S  \
                         --out DIR  --engine E"
                            .into(),
                    )
                }
                other => return Err(format!("unknown flag {other:?} (try --help)")),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with a message on error.
    pub fn from_env() -> Args {
        match Args::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The datasets to run: explicit selection, else all eight under
    /// `--full`, else the supplied default subset.
    pub fn datasets_or(&self, default: &[DatasetId]) -> Vec<DatasetId> {
        if let Some(ds) = &self.datasets {
            ds.clone()
        } else if self.full {
            DatasetId::all().to_vec()
        } else {
            default.to_vec()
        }
    }

    /// The scale to run: explicit, else 1.0 under `--full`, else the
    /// supplied default.
    pub fn scale_or(&self, default: f64) -> f64 {
        if let Some(s) = self.scale {
            s
        } else if self.full {
            1.0
        } else {
            default
        }
    }

    /// Trials to run: explicit or the supplied default.
    pub fn trials_or(&self, default: u64) -> u64 {
        self.trials.unwrap_or(default)
    }

    /// Engine to run REPT cells on: explicit or the workspace default
    /// (the fastest engine — all engines are bit-identical).
    pub fn engine_or_default(&self) -> Engine {
        self.engine.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.trials, None);
        assert!(!a.full);
        assert_eq!(a.out, PathBuf::from("results"));
        assert_eq!(a.trials_or(25), 25);
        assert_eq!(a.scale_or(0.3), 0.3);
    }

    #[test]
    fn full_flag_expands_defaults() {
        let a = parse(&["--full"]).unwrap();
        assert_eq!(a.datasets_or(&[DatasetId::FlickrSim]).len(), 8);
        assert_eq!(a.scale_or(0.3), 1.0);
    }

    #[test]
    fn explicit_values_win() {
        let a = parse(&[
            "--trials",
            "7",
            "--scale",
            "0.5",
            "--datasets",
            "flickr-sim,pokec-sim",
            "--seed",
            "99",
            "--out",
            "/tmp/x",
        ])
        .unwrap();
        assert_eq!(a.trials_or(25), 7);
        assert_eq!(a.scale_or(1.0), 0.5);
        assert_eq!(
            a.datasets_or(&[]),
            vec![DatasetId::FlickrSim, DatasetId::PokecSim]
        );
        assert_eq!(a.seed, 99);
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "0"]).is_err());
        assert!(parse(&["--scale", "2.0"]).is_err());
        assert!(parse(&["--datasets", "bogus"]).is_err());
        assert!(parse(&["--engine", "bogus"]).is_err());
        assert!(parse(&["--wat"]).is_err());
    }

    #[test]
    fn engine_flag_parses_all_names() {
        assert_eq!(parse(&[]).unwrap().engine_or_default(), Engine::default());
        for engine in Engine::all() {
            let a = parse(&["--engine", engine.name()]).unwrap();
            assert_eq!(a.engine, Some(engine));
            assert_eq!(a.engine_or_default(), engine);
        }
        // Retired fused-layout names are aliases of the fused engine.
        for alias in ["fused", "fused-hash", "fused-sorted"] {
            assert_eq!(
                parse(&["--engine", alias]).unwrap().engine,
                Some(Engine::FusedHybrid)
            );
        }
    }
}
