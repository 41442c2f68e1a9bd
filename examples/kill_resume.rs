//! Kill-and-resume smoke test over the unified execution core.
//!
//! Streams a synthetic graph into a [`ResumableRun`] on every engine,
//! checkpoints mid-stream (RPCK v4, crash-safe write-then-rename),
//! "kills" the run by dropping it — losing every edge applied after the
//! checkpoint, exactly like a crash — restores from the file, replays
//! the remainder of the stream, and asserts the final estimate is
//! **bit-identical** to an uninterrupted run. CI runs this as the
//! kill-and-resume smoke step.
//!
//! Run: `cargo run --release --example kill_resume`

use rept::core::resume::ResumableRun;
use rept::core::{Engine, Rept, ReptConfig};
use rept::gen::{barabasi_albert, GeneratorConfig};

fn main() {
    let stream = barabasi_albert(&GeneratorConfig::new(4000, 21), 5);
    // m = 16, c = 41: three full hash groups plus a c mod m = 9
    // remainder group — the masked shared-structure layout — with η and
    // locals on so every counter the engines maintain is exercised.
    let cfg = ReptConfig::new(16, 41).with_seed(77).with_eta(true);
    let rept = Rept::new(cfg);
    let uninterrupted = rept.run(Engine::PerWorker, &stream);
    let split = stream.len() / 2;
    let path = std::env::temp_dir().join(format!("rept-kill-resume-{}.rpck", std::process::id()));

    for engine in Engine::all() {
        let mut run = ResumableRun::with_engine(rept.clone(), engine);
        run.process_batch(&stream[..split]);
        run.checkpoint_to_file(&path).expect("write checkpoint");
        // Ingest past the checkpoint, then "crash": these edges are lost
        // with the process and must be replayed from the checkpointed
        // position by the restarted producer.
        run.process_batch(&stream[split..split + split / 2]);
        drop(run);

        let mut resumed = ResumableRun::from_checkpoint_file(&path).expect("restore checkpoint");
        assert_eq!(resumed.engine(), engine, "engine survives the roundtrip");
        assert_eq!(resumed.position(), split as u64, "replay point");
        resumed.process_batch(&stream[split..]);
        let est = resumed.finalize();

        assert_eq!(est.global, uninterrupted.global, "{}: τ̂", engine.name());
        assert_eq!(
            est.locals,
            uninterrupted.locals,
            "{}: locals",
            engine.name()
        );
        assert_eq!(est.eta_hat, uninterrupted.eta_hat, "{}: η̂", engine.name());
        assert_eq!(
            est.diagnostics.per_processor_tau,
            uninterrupted.diagnostics.per_processor_tau,
            "{}: per-processor τ",
            engine.name()
        );
        println!(
            "{:>12}: killed at {split}, resumed, τ̂ = {} — bit-identical to uninterrupted",
            engine.name(),
            est.global
        );
    }
    std::fs::remove_file(&path).ok();
    println!("kill/resume OK on all engines ({} edges)", stream.len());
}
