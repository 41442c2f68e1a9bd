//! The three workloads: their streams, the server-stack configuration
//! each runs, the frozen durable state `ws-durable-shards` resumes from,
//! and the in-process oracle every run is checked against.

use std::path::{Path, PathBuf};

use rept_core::resume::ResumableRun;
use rept_core::{Engine, GroupSlice, Rept, ReptConfig};
use rept_gen::{barabasi_albert, chung_lu, watts_strogatz, GeneratorConfig};
use rept_graph::edge::Edge;
use rept_serve::journal::{Journal, SyncPolicy};
use rept_serve::{protocol, ServeConfig, ServeCore};
use rept_shard::CoordinatorConfig;

/// Partition size `m` of every workload.
pub const M: u64 = 64;
/// The engine every workload names, so that a later change of
/// `Engine::default()` cannot move the benchmark.
pub const ENGINE: Engine = Engine::FusedHybrid;
/// Edges between snapshot publications, on every core and coordinator.
pub const SNAPSHOT_EVERY: u64 = 4096;
/// Edges the producer hands `Client::ingest` per call.
pub const PRODUCER_BATCH: usize = 4096;
/// Edges per `INGEST` line written by `Client::ingest` (its private
/// `INGEST_CHUNK`). Every layer below the client sees batches of this
/// size, so the rungs under the client replay these boundaries.
pub const WIRE_LINE: usize = 256;
/// Top-k index size, and the `TOPK` argument of the oracle check.
pub const TOP_K: usize = 100;
/// Estimator hash seed. Fixed: the generator seed varies only the stream.
const REPT_SEED: u64 = 7;
/// Shard servers behind the coordinator on `ws-durable-shards`.
pub const SHARDS: u32 = 2;
/// Edges between periodic checkpoints on `ws-durable-shards`.
pub const CHECKPOINT_EVERY: u64 = 65_536;

/// The workloads, by their `--workload` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ba-wire`: BA(20 000, attach 5) at `c = 64` on a standalone
    /// server, no journal.
    BaWire,
    /// `chunglu-hubs`: Chung–Lu (γ = 2.1, offset 1, 100 000 nodes,
    /// 400 000 edges) at `c = 256` on a standalone server.
    ChungLuHubs,
    /// `ws-durable-shards`: Watts–Strogatz (k = 10, β = 0.1, 50 000
    /// nodes) at `c = 256`, sliced over two journaled shard servers
    /// behind a coordinator.
    WsDurableShards,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::BaWire, Kind::ChungLuHubs, Kind::WsDurableShards];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BaWire => "ba-wire",
            Kind::ChungLuHubs => "chunglu-hubs",
            Kind::WsDurableShards => "ws-durable-shards",
        }
    }

    /// Parses [`Self::name`] output.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A workload at full or smoke size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Tiny streams, for the benchmark's own tests.
    pub smoke: bool,
}

impl Workload {
    /// The `--workload` name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Whether the stack journals, checkpoints, resumes and shards.
    pub fn durable(&self) -> bool {
        self.kind == Kind::WsDurableShards
    }

    /// The estimator configuration (the full one, on the sharded stack).
    pub fn rept(&self) -> ReptConfig {
        let c = if self.kind == Kind::BaWire { 64 } else { 256 };
        ReptConfig::new(M, c).with_seed(REPT_SEED)
    }

    /// The stream for generator seed `seed`, in the generator's order.
    pub fn stream(&self, seed: u64) -> Vec<Edge> {
        let nodes = |full: u32, smoke: u32| {
            GeneratorConfig::new(if self.smoke { smoke } else { full }, seed)
        };
        match self.kind {
            Kind::BaWire => barabasi_albert(&nodes(20_000, 2_000), 5),
            Kind::ChungLuHubs => {
                let cfg = nodes(100_000, 5_000);
                chung_lu(&cfg, 4 * cfg.nodes as usize, 2.1, 1.0)
            }
            Kind::WsDurableShards => watts_strogatz(&nodes(50_000, 4_000), 10, 0.1),
        }
    }

    /// The open-loop querier's rate, in queries per second.
    pub fn query_rate(&self) -> f64 {
        if self.kind == Kind::ChungLuHubs {
            1000.0
        } else {
            200.0
        }
    }

    /// The `k`-th request of the querier's mix.
    pub fn query_line(&self, k: u64) -> String {
        match self.kind {
            Kind::BaWire => "QUERY GLOBAL".into(),
            Kind::ChungLuHubs if k.is_multiple_of(2) => format!("TOPK {TOP_K}"),
            // The generator's hubs are its lowest node ids.
            Kind::ChungLuHubs => format!("QUERY LOCAL {}", (k / 2) % 100),
            Kind::WsDurableShards if k.is_multiple_of(2) => "QUERY GLOBAL".into(),
            Kind::WsDurableShards => "STATS".into(),
        }
    }

    /// Stream position of the frozen state every pass resumes from: half
    /// the stream, on a producer-batch boundary, for the durable
    /// workload; 0 (passes start empty) for the others.
    pub fn frozen_at(&self, len: usize) -> usize {
        if self.durable() {
            len / 2 / PRODUCER_BATCH * PRODUCER_BATCH
        } else {
            0
        }
    }

    /// A standalone core's configuration. With `dir`, the durable
    /// workload adds its checkpoint there, the default per-record
    /// journal (acked means durable) and periodic checkpoints.
    pub fn serve_config(&self, dir: Option<&Path>) -> ServeConfig {
        let cfg = ServeConfig::new(self.rept())
            .with_engine(ENGINE)
            .with_snapshot_every(SNAPSHOT_EVERY)
            .with_top_k(TOP_K);
        match dir {
            Some(dir) if self.durable() => cfg
                .with_checkpoint(dir.join("serve.rpck"), Some(CHECKPOINT_EVERY))
                .with_journal_sync(SyncPolicy::PerRecord),
            _ => cfg,
        }
    }

    /// Shard `i`'s configuration: the durable one, restricted to the
    /// shard's round-robin slice of the hash groups.
    pub fn shard_config(&self, i: u32, dir: &Path) -> ServeConfig {
        self.serve_config(Some(dir))
            .with_group_slice(GroupSlice::new(i, SHARDS))
    }

    /// The coordinator's configuration, matching a standalone core's.
    pub fn coordinator_config(&self) -> CoordinatorConfig {
        CoordinatorConfig::new(self.rept())
            .with_engine(ENGINE)
            .with_snapshot_every(SNAPSHOT_EVERY)
            .with_top_k(TOP_K)
    }
}

/// Shard `i`'s directory under `root`.
pub fn shard_dir(root: &Path, i: u32) -> PathBuf {
    root.join(format!("shard{i}"))
}

/// Removes `dir` if present and creates it empty.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// The on-disk state every `ws-durable-shards` pass resumes from: per
/// shard, a checkpoint at `checkpoint_at` plus a journal tail of 256-edge
/// records up to `position`. Built once per run, untimed; each pass
/// resumes a fresh copy.
pub struct Frozen {
    /// Holds one directory per shard.
    pub dir: PathBuf,
    /// Stream position the shards stand at after recovery.
    pub position: usize,
    /// Stream position of the checkpoints.
    pub checkpoint_at: usize,
    /// Each shard's run at its checkpoint.
    pub runs: Vec<ResumableRun>,
}

impl Frozen {
    /// Writes the frozen state for `stream` under `dir`.
    pub fn build(w: &Workload, stream: &[Edge], dir: &Path) -> Result<Self, String> {
        let position = w.frozen_at(stream.len());
        let checkpoint_at = position * 3 / 4 / WIRE_LINE * WIRE_LINE;
        let mut runs = Vec::new();
        for i in 0..SHARDS {
            let shard = shard_dir(dir, i);
            fresh_dir(&shard)?;
            let cfg = w.shard_config(i, &shard);
            let path = cfg
                .checkpoint_path
                .clone()
                .expect("durable configs checkpoint");
            let mut run = ResumableRun::with_sliced_engine(
                Rept::new(cfg.rept),
                ENGINE,
                GroupSlice::new(i, SHARDS),
            );
            run.process_batch(&stream[..checkpoint_at]);
            let failed = |e: std::io::Error| format!("frozen shard {i}: {e}");
            run.checkpoint_to_file(&path).map_err(failed)?;
            let mut journal = Journal::recover(
                &path,
                cfg.journal_segment_bytes,
                cfg.journal_sync,
                checkpoint_at as u64,
            )
            .map_err(failed)?
            .journal;
            let mut at = checkpoint_at as u64;
            for line in stream[checkpoint_at..position].chunks(WIRE_LINE) {
                journal.append(at, line).map_err(failed)?;
                at += line.len() as u64;
            }
            runs.push(run);
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            position,
            checkpoint_at,
            runs,
        })
    }

    /// Copies every shard's directory under `root`.
    pub fn copy_to(&self, root: &Path) -> Result<(), String> {
        for i in 0..SHARDS {
            let (from, to) = (shard_dir(&self.dir, i), shard_dir(root, i));
            let copy = || -> std::io::Result<()> {
                std::fs::create_dir_all(&to)?;
                for entry in std::fs::read_dir(&from)? {
                    let entry = entry?;
                    std::fs::copy(entry.path(), to.join(entry.file_name()))?;
                }
                Ok(())
            };
            copy().map_err(|e| format!("copy {}: {e}", from.display()))?;
        }
        Ok(())
    }
}

/// The reply lines a correct stack serves once it holds the whole
/// stream: those of an in-process standalone `ServeCore` fed the same
/// edges, in the same wire lines, under the same configuration. The
/// sharded stack must match them byte for byte too.
pub struct Oracle {
    /// `QUERY GLOBAL` reply.
    pub global: String,
    /// `TOPK 100` reply.
    pub top_k: String,
}

impl Oracle {
    /// Feeds `stream` to a fresh core and records its replies.
    pub fn compute(w: &Workload, stream: &[Edge]) -> Result<Self, String> {
        let core =
            ServeCore::start(w.serve_config(None)).map_err(|e| format!("oracle core: {e}"))?;
        for line in stream.chunks(WIRE_LINE) {
            core.ingest(line.to_vec())
                .map_err(|e| format!("oracle ingest: {e}"))?;
        }
        core.flush();
        let snapshot = core.snapshot();
        let oracle = Self {
            global: protocol::format_global(&snapshot),
            top_k: protocol::format_top_k(&snapshot, TOP_K),
        };
        drop(snapshot);
        core.shutdown();
        Ok(oracle)
    }
}
