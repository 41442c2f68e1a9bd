//! Lossless-resume smoke test over the write-ahead edge journal.
//!
//! Starts a journaled [`ServeCore`] on every engine, ingests a
//! synthetic stream in acked batches (each ack is preceded by an
//! fsync), freezes the on-disk state mid-stream — *without ever
//! checkpointing* — and "kills" the core. Restarting from the frozen
//! image must replay the whole journal and recover **exactly** the
//! acked prefix: nothing lost, nothing invented, bit-identical to an
//! uninterrupted run. Checkpoint-only resume is merely deterministic
//! (post-checkpoint edges need a replaying producer); the journal makes
//! it lossless. CI runs this as the lossless-resume smoke step.
//!
//! Run: `cargo run --release --example lossless_resume`

use std::path::{Path, PathBuf};

use rept::core::{Engine, Rept, ReptConfig};
use rept::gen::{barabasi_albert, GeneratorConfig};
use rept::serve::{ServeConfig, ServeCore};

/// Snapshots every file under `root`, emulating the disk at a crash
/// instant (acked journal records are already fsynced, so the freeze
/// point is a real point-in-time crash state).
fn freeze_dir(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    std::fs::read_dir(root)
        .expect("read root")
        .filter_map(|e| e.ok())
        .map(|e| {
            let path = e.path();
            let bytes = std::fs::read(&path).expect("freeze file");
            (path, bytes)
        })
        .collect()
}

fn restore_dir(root: &Path, frozen: &[(PathBuf, Vec<u8>)]) {
    std::fs::remove_dir_all(root).ok();
    std::fs::create_dir_all(root).expect("recreate root");
    for (path, bytes) in frozen {
        std::fs::write(path, bytes).expect("restore frozen file");
    }
}

fn main() {
    let stream = barabasi_albert(&GeneratorConfig::new(4000, 21), 5);
    // Same layout as the kill_resume smoke: three full hash groups plus
    // a c mod m = 9 remainder group, η and locals on.
    let cfg = ReptConfig::new(16, 41).with_seed(77).with_eta(true);
    let uninterrupted = Rept::new(cfg).run(Engine::PerWorker, &stream);
    let kill_at = stream.len() * 2 / 3;

    for engine in Engine::all() {
        let root = std::env::temp_dir().join(format!(
            "rept-lossless-{}-{}",
            engine.name(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).expect("mk root");
        let serve_cfg = ServeConfig::new(cfg)
            .with_engine(engine)
            .with_checkpoint(root.join("serve.rpck"), None)
            .with_journal();

        let core = ServeCore::start(serve_cfg.clone()).expect("start");
        for chunk in stream[..kill_at].chunks(97) {
            core.ingest(chunk.to_vec()).expect("acked");
        }
        // Kill: freeze the acked disk state (journal only — no
        // checkpoint was ever written), let the core die, restore the
        // crash-time image over whatever its shutdown wrote.
        let frozen = freeze_dir(&root);
        drop(core);
        restore_dir(&root, &frozen);

        let resumed = ServeCore::start(serve_cfg).expect("recover");
        assert_eq!(
            resumed.position(),
            kill_at as u64,
            "{}: every acked edge recovered",
            engine.name()
        );
        resumed.flush();
        let snap = resumed.snapshot();
        assert_eq!(
            snap.durability.replayed,
            kill_at as u64,
            "{}: whole journal replayed",
            engine.name()
        );
        // Feed the unacked remainder: the recovered core must land
        // bit-identical to a run that never crashed.
        for chunk in stream[kill_at..].chunks(97) {
            resumed.ingest(chunk.to_vec()).expect("acked");
        }
        resumed.flush();
        let snap = resumed.snapshot();
        assert_eq!(snap.global, uninterrupted.global, "{}: τ̂", engine.name());
        assert_eq!(
            *snap.locals,
            uninterrupted.locals,
            "{}: locals",
            engine.name()
        );
        println!(
            "{:>12}: killed at {kill_at} (no checkpoint), replayed {} edges, τ̂ = {} — lossless",
            engine.name(),
            kill_at,
            snap.global
        );
        resumed.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }
    println!("lossless resume OK on all engines ({} edges)", stream.len());
}
