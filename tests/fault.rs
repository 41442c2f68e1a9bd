//! Fault-injection tests of the durability layer: kill the serving
//! subsystem at arbitrary points — mid-stream with unjournaled batches
//! never acked, after a checkpoint, *between* the checkpoint rename and
//! the journal-segment truncation — and prove recovery yields exactly
//! the acked prefix, bit-identical to an uninterrupted run, across all
//! both engines and multi-tenant routers. Plus byte-level torn-write
//! sweeps: the journal's final record truncated at every byte boundary
//! and CRC-corrupted mid-file, and the tenant manifest truncated at
//! every byte boundary (checkpoint-header fallback). The shard tier
//! rides the same contract: a kill-point sweep shuts a TCP shard server
//! down at arbitrary batch boundaries and proves degraded-but-answering
//! health, journal-replay restart, and bit-identical rejoin.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;
use rept::core::{Engine, Rept, ReptConfig};
use rept::graph::edge::Edge;
use rept::serve::protocol::{Scope, TenantOptions};
use rept::serve::{RouterConfig, ServeConfig, ServeCore, SyncPolicy, TenantRouter};

/// Strategy: a raw stream that keeps duplicate edges (only self-loops
/// are dropped) — duplicates must survive journal replay too.
fn arb_stream_with_dups(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    vec((0..n, 0..n), 1..max_edges).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter_map(|(u, v)| Edge::try_new(u, v))
            .collect()
    })
}

/// A per-test-case unique serving directory (checkpoint + journal).
fn unique_root(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rept-fault-{tag}-{}-{n}", std::process::id()))
}

/// Recursively snapshots every file under `root`. Combined with
/// [`restore_dir`] this emulates a kill: whatever the process wrote
/// after the freeze never reached the disk image we restart from.
/// (Valid for acked writes because `ServeCore::ingest` under a journal
/// blocks until the record is fsynced — the freeze point is a real
/// point-in-time crash state.)
fn freeze_dir(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("freeze file");
                files.push((path, bytes));
            }
        }
    }
    files
}

/// Restores a frozen directory image, discarding whatever was written
/// after the freeze.
fn restore_dir(root: &Path, frozen: &[(PathBuf, Vec<u8>)]) {
    std::fs::remove_dir_all(root).ok();
    std::fs::create_dir_all(root).expect("recreate root");
    for (path, bytes) in frozen {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("recreate dir");
        }
        std::fs::write(path, bytes).expect("restore frozen file");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// THE durability property: a journaled core killed at an arbitrary
    /// acked position recovers **exactly** the acked prefix — nothing
    /// lost (every ack was preceded by an fsync), nothing invented —
    /// and the recovered state is bit-identical to an uninterrupted run
    /// over that prefix, on every engine. The kill lands anywhere
    /// relative to the last checkpoint: before the first one (journal
    /// replays from zero), right after one (empty tail), or mid-tail.
    #[test]
    fn journaled_kill_recovers_exactly_the_acked_prefix(
        stream in arb_stream_with_dups(24, 90),
        m in 2u64..5,
        c in 1u64..10,
        seed in any::<u64>(),
        ckpt_sel in any::<u64>(),
        kill_sel in any::<u64>(),
        batch_sel in any::<u64>(),
    ) {
        let cfg = ReptConfig::new(m, c).with_seed(seed).with_eta(true);
        let full_oracle = Rept::new(cfg).run(Engine::PerWorker, &stream);
        let batch = 1 + (batch_sel % 17) as usize;
        let ckpt_at = (ckpt_sel as usize) % (stream.len() + 1);
        let kill_at = ckpt_at + (kill_sel as usize) % (stream.len() - ckpt_at + 1);

        for engine in Engine::all() {
            let root = unique_root(engine.name());
            std::fs::remove_dir_all(&root).ok();
            std::fs::create_dir_all(&root).expect("mk root");
            let serve_cfg = ServeConfig::new(cfg)
                .with_engine(engine)
                .with_checkpoint(root.join("serve.rpck"), None)
                .with_snapshot_every(32)
                .with_journal();

            let core = ServeCore::start(serve_cfg.clone()).expect("start");
            for chunk in stream[..ckpt_at].chunks(batch) {
                core.ingest(chunk.to_vec()).expect("acked");
            }
            core.checkpoint().expect("checkpoint");
            for chunk in stream[ckpt_at..kill_at].chunks(batch) {
                core.ingest(chunk.to_vec()).expect("acked");
            }
            // Kill: freeze the acked disk state, let the core die (its
            // shutdown checkpoint is part of what the crash destroys),
            // restore the crash-time image.
            let frozen = freeze_dir(&root);
            drop(core);
            restore_dir(&root, &frozen);

            let resumed = ServeCore::start(serve_cfg).expect("recover");
            prop_assert_eq!(
                resumed.position(),
                kill_at as u64,
                "acked prefix recovered losslessly ({})",
                engine.name()
            );
            resumed.flush();
            let snap = resumed.snapshot();
            prop_assert_eq!(
                snap.durability.replayed,
                (kill_at - ckpt_at) as u64,
                "journal tail above the checkpoint replayed"
            );
            let prefix_oracle =
                Rept::new(cfg).run(Engine::PerWorker, &stream[..kill_at]);
            prop_assert_eq!(snap.global, prefix_oracle.global, "{}", engine.name());
            prop_assert_eq!(&snap.locals, &prefix_oracle.locals);

            // The recovered core keeps serving: feed the unacked
            // remainder and land bit-identical to the full run.
            for chunk in stream[kill_at..].chunks(batch) {
                resumed.ingest(chunk.to_vec()).expect("acked");
            }
            resumed.flush();
            let snap = resumed.snapshot();
            prop_assert_eq!(snap.global, full_oracle.global);
            prop_assert_eq!(&snap.locals, &full_oracle.locals);
            resumed.shutdown();
            std::fs::remove_dir_all(&root).ok();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Router-level losslessness: a multi-tenant router (distinct
    /// seeds/engines per tenant) killed at an acked position restores
    /// *every* tenant to exactly that position, bit-identical to each
    /// tenant's standalone oracle.
    #[test]
    fn journaled_router_kill_recovers_every_tenant(
        stream in arb_stream_with_dups(24, 70),
        seed in any::<u64>(),
        kill_sel in any::<u64>(),
        batch_sel in any::<u64>(),
    ) {
        let base = ReptConfig::new(3, 5).with_seed(seed).with_eta(true);
        let batch = 1 + (batch_sel % 13) as usize;
        let kill_at = (kill_sel as usize) % (stream.len() + 1);
        let root = unique_root("router");
        std::fs::remove_dir_all(&root).ok();
        let cfg = RouterConfig::new(
            ServeConfig::new(base).with_snapshot_every(32).with_journal(),
        )
        .with_root_dir(root.clone());

        let router = TenantRouter::start(cfg.clone()).expect("start");
        router
            .create(
                "alpha",
                &TenantOptions {
                    engine: Some(Engine::PerWorker),
                    seed: Some(seed ^ 0x9e37_79b9),
                    ..TenantOptions::default()
                },
            )
            .expect("create alpha");
        for chunk in stream[..kill_at].chunks(batch) {
            router.ingest(&Scope::All, chunk.to_vec()).expect("acked");
        }
        let frozen = freeze_dir(&root);
        drop(router.shutdown()); // shutdown checkpoints are crash-destroyed…
        restore_dir(&root, &frozen); // …by restoring the crash-time image

        let resumed = TenantRouter::start(cfg).expect("recover");
        prop_assert_eq!(resumed.len(), 2, "both tenants resurrected");
        for name in ["default", "alpha"] {
            prop_assert_eq!(
                resumed.tenant(name).unwrap().position(),
                kill_at as u64,
                "tenant {} lossless",
                name
            );
        }
        resumed.flush_all();
        let default_oracle =
            Rept::new(base).run(Engine::PerWorker, &stream[..kill_at]);
        let snap = resumed.tenant("default").unwrap().snapshot();
        prop_assert_eq!(snap.global, default_oracle.global);
        prop_assert_eq!(&snap.locals, &default_oracle.locals);
        let alpha_oracle = Rept::new(base.with_seed(seed ^ 0x9e37_79b9))
            .run(Engine::PerWorker, &stream[..kill_at]);
        let snap = resumed.tenant("alpha").unwrap().snapshot();
        prop_assert_eq!(snap.global, alpha_oracle.global);
        prop_assert_eq!(&snap.locals, &alpha_oracle.locals);
        resumed.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }
}

/// A small fixed stream with triangles (and a duplicate edge) for the
/// deterministic byte-level tests.
fn fixed_stream() -> Vec<Edge> {
    [
        (0, 1),
        (1, 2),
        (0, 2),
        (2, 3),
        (3, 4),
        (2, 4),
        (4, 5),
        (5, 0),
        (0, 4),
        (1, 3),
        (0, 1), // duplicate
        (3, 5),
    ]
    .into_iter()
    .map(|(u, v)| Edge::new(u, v))
    .collect()
}

fn fixed_cfg() -> ReptConfig {
    ReptConfig::new(3, 4).with_seed(7).with_eta(true)
}

/// Kill between the checkpoint's atomic rename and the journal-segment
/// truncation: the restored image holds the *new* checkpoint plus the
/// *stale* pre-truncation journal whose records all lie below it.
/// Recovery must skip/retire the stale records — position comes from
/// the checkpoint, nothing is replayed twice.
#[test]
fn stale_journal_surviving_a_checkpoint_is_skipped() {
    let stream = fixed_stream();
    let cfg = fixed_cfg();
    for engine in Engine::all() {
        let root = unique_root(&format!("stale-{}", engine.name()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).expect("mk root");
        let serve_cfg = ServeConfig::new(cfg)
            .with_engine(engine)
            .with_checkpoint(root.join("serve.rpck"), None)
            .with_journal();

        let core = ServeCore::start(serve_cfg.clone()).expect("start");
        core.ingest(stream[..8].to_vec()).expect("acked");
        // The journal as it stood the instant before the checkpoint…
        let pre_truncation_journal: Vec<(PathBuf, Vec<u8>)> = freeze_dir(&root)
            .into_iter()
            .filter(|(p, _)| p.to_string_lossy().contains(".wal."))
            .collect();
        assert!(!pre_truncation_journal.is_empty(), "journal on disk");
        core.checkpoint().expect("checkpoint");
        // …composed with the checkpoint it raced: rename done,
        // truncation not yet.
        let mut image: Vec<(PathBuf, Vec<u8>)> = freeze_dir(&root)
            .into_iter()
            .filter(|(p, _)| !p.to_string_lossy().contains(".wal."))
            .collect();
        image.extend(pre_truncation_journal);
        drop(core);
        restore_dir(&root, &image);

        let resumed = ServeCore::start(serve_cfg).expect("recover");
        assert_eq!(
            resumed.position(),
            8,
            "checkpoint position, no double replay"
        );
        resumed.flush();
        assert_eq!(
            resumed.snapshot().durability.replayed,
            0,
            "stale tail skipped"
        );
        resumed.ingest(stream[8..].to_vec()).expect("acked");
        resumed.flush();
        let oracle = Rept::new(cfg).run(Engine::PerWorker, &stream);
        let snap = resumed.snapshot();
        assert_eq!(snap.global, oracle.global, "{}", engine.name());
        assert_eq!(snap.locals, oracle.locals);
        resumed.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }
}

/// Byte-level torn-write sweep: truncate the journal at **every** byte
/// boundary (a kill mid-`write(2)` can leave any prefix) and recover.
/// The torn record — and only the torn record — is dropped; every
/// complete record before it replays; the recovered state is
/// bit-identical to an uninterrupted run over the surviving prefix.
#[test]
fn torn_journal_tail_drops_exactly_the_torn_record() {
    let stream = fixed_stream();
    let cfg = fixed_cfg();
    let root = unique_root("torn");
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("mk root");
    let serve_cfg = ServeConfig::new(cfg)
        .with_checkpoint(root.join("serve.rpck"), None)
        .with_journal();

    // Three acked records of 5, 4 and 3 edges; no checkpoint, so the
    // journal alone carries the stream.
    let core = ServeCore::start(serve_cfg.clone()).expect("start");
    core.ingest(stream[..5].to_vec()).expect("acked");
    core.ingest(stream[5..9].to_vec()).expect("acked");
    core.ingest(stream[9..12].to_vec()).expect("acked");
    let frozen = freeze_dir(&root);
    drop(core);

    let segment = root.join(format!("serve.wal.{:020}", 0));
    let full = frozen
        .iter()
        .find(|(p, _)| p == &segment)
        .map(|(_, b)| b.len())
        .expect("single journal segment");
    // Layout: 12-byte segment header, then per record 8-byte header +
    // 8-byte position prefix + 8 bytes per edge → 56/48/40 bytes.
    let record_ends = [12, 12 + 56, 12 + 56 + 48, 12 + 56 + 48 + 40];
    assert_eq!(
        full,
        *record_ends.last().unwrap(),
        "expected journal layout"
    );
    let oracles: Vec<_> = [0usize, 5, 9, 12]
        .iter()
        .map(|&n| Rept::new(cfg).run(Engine::PerWorker, &stream[..n]))
        .collect();

    for cut in 0..full {
        restore_dir(&root, &frozen);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .expect("open segment");
        file.set_len(cut as u64).expect("tear the tail");
        drop(file);

        // Recovery logs the drop to stderr and continues — a torn tail
        // is an expected crash artifact, never fatal.
        let resumed = ServeCore::start(serve_cfg.clone()).expect("torn tail is not fatal");
        // Exactly the records wholly below the cut replay.
        let survivor = record_ends.iter().filter(|&&end| end <= cut).count();
        let expect_edges = [0u64, 0, 5, 9][survivor]; // header alone = 0 edges
        assert_eq!(
            resumed.position(),
            expect_edges,
            "cut at byte {cut}: exactly the complete records replay"
        );
        resumed.flush();
        let snap = resumed.snapshot();
        let oracle = &oracles[survivor.saturating_sub(1)];
        assert_eq!(snap.global, oracle.global, "cut at byte {cut}");
        assert_eq!(snap.locals, oracle.locals, "cut at byte {cut}");
        resumed.shutdown();
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A flipped byte inside a mid-file record's payload fails that
/// record's CRC: it and everything after it are dropped (a record
/// cannot be trusted past a corruption), earlier records replay.
#[test]
fn crc_corrupt_record_is_dropped_with_its_suffix() {
    let stream = fixed_stream();
    let cfg = fixed_cfg();
    let root = unique_root("crc");
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("mk root");
    let serve_cfg = ServeConfig::new(cfg)
        .with_checkpoint(root.join("serve.rpck"), None)
        .with_journal();

    let core = ServeCore::start(serve_cfg.clone()).expect("start");
    core.ingest(stream[..5].to_vec()).expect("acked");
    core.ingest(stream[5..9].to_vec()).expect("acked");
    core.ingest(stream[9..12].to_vec()).expect("acked");
    let frozen = freeze_dir(&root);
    drop(core);
    restore_dir(&root, &frozen);

    // Flip one byte in the second record's payload (the record spans
    // bytes 68..116; its payload starts 8 bytes in).
    let segment = root.join(format!("serve.wal.{:020}", 0));
    let mut bytes = std::fs::read(&segment).expect("read segment");
    bytes[12 + 56 + 8 + 11] ^= 0x40;
    std::fs::write(&segment, &bytes).expect("corrupt segment");

    let resumed = ServeCore::start(serve_cfg).expect("corruption is not fatal");
    assert_eq!(resumed.position(), 5, "only the first record replays");
    resumed.flush();
    let oracle = Rept::new(cfg).run(Engine::PerWorker, &stream[..5]);
    let snap = resumed.snapshot();
    assert_eq!(snap.global, oracle.global);
    assert_eq!(snap.locals, oracle.locals);
    resumed.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// Under the batched sync policy acks do not imply durability, but
/// `FLUSH` is a barrier: everything acked before a flush survives a
/// kill right after it.
#[test]
fn batched_policy_flush_is_a_durability_barrier() {
    let stream = fixed_stream();
    let cfg = fixed_cfg();
    let root = unique_root("batched");
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("mk root");
    let serve_cfg = ServeConfig::new(cfg)
        .with_checkpoint(root.join("serve.rpck"), None)
        .with_journal_sync(SyncPolicy::Batched);

    let core = ServeCore::start(serve_cfg.clone()).expect("start");
    core.ingest(stream[..9].to_vec()).expect("queued");
    core.flush(); // barrier: journal fsynced
    let frozen = freeze_dir(&root);
    drop(core);
    restore_dir(&root, &frozen);

    let resumed = ServeCore::start(serve_cfg).expect("recover");
    assert_eq!(resumed.position(), 9, "flushed prefix survives the kill");
    resumed.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// Torn-write sweep over `tenant.meta`: truncate the manifest at every
/// byte boundary. Whatever survives, router startup recovers the
/// tenant — a parseable manifest is used directly; anything else falls
/// back to the RPCK checkpoint header, which carries the full config
/// and engine.
#[test]
fn torn_tenant_manifest_falls_back_to_the_checkpoint_header() {
    let stream = fixed_stream();
    let root = unique_root("meta-torn");
    std::fs::remove_dir_all(&root).ok();
    let cfg = RouterConfig::new(ServeConfig::new(fixed_cfg())).with_root_dir(root.clone());
    let router = TenantRouter::start(cfg.clone()).expect("start");
    router
        .create(
            "pw",
            &TenantOptions {
                engine: Some(Engine::PerWorker),
                seed: Some(5),
                ..TenantOptions::default()
            },
        )
        .expect("create");
    router
        .tenant("pw")
        .unwrap()
        .ingest(stream.clone())
        .expect("ingest");
    router.checkpoint_all().expect("checkpoint");
    router.shutdown();
    let frozen = freeze_dir(&root);

    let meta = root.join("pw").join("tenant.meta");
    let full = frozen
        .iter()
        .find(|(p, _)| p == &meta)
        .map(|(_, b)| b.len())
        .expect("manifest frozen");
    for cut in 0..=full {
        restore_dir(&root, &frozen);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&meta)
            .expect("open manifest");
        file.set_len(cut as u64).expect("tear the manifest");
        drop(file);

        let resumed = TenantRouter::start(cfg.clone())
            .unwrap_or_else(|e| panic!("cut at byte {cut}: startup failed: {e}"));
        {
            let core = resumed.tenant("pw").expect("tenant recovered");
            assert_eq!(core.config().engine, Engine::PerWorker, "cut at {cut}");
            assert_eq!(core.config().rept.seed, 5, "cut at {cut}");
            assert_eq!(core.position(), stream.len() as u64, "cut at {cut}");
        }
        resumed.shutdown();
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A tenant directory as the previous release left it — `tenant.meta`
/// naming `engine=fused-sorted`, an RPCK checkpoint carrying engine
/// byte 2, and a journal tail above it — resumes at router startup on
/// the fused hybrid engine and answers `QUERY GLOBAL` and `TOPK` byte
/// for byte like a fresh fused-hybrid tenant fed the same edges.
#[test]
fn parent_format_tenant_directory_resumes_on_the_hybrid_engine() {
    use rept::gen::{barabasi_albert, GeneratorConfig};
    use rept::serve::protocol::{format_global, format_top_k};

    let stream = barabasi_albert(&GeneratorConfig::new(300, 9), 4);
    let (head, tail) = stream.split_at(stream.len() / 2);
    let root = unique_root("parent-format");
    std::fs::remove_dir_all(&root).ok();
    let base = ServeConfig::new(fixed_cfg()).with_journal();
    let cfg = RouterConfig::new(base).with_root_dir(root.clone());
    let router = TenantRouter::start(cfg.clone()).expect("start");
    router
        .create("legacy", &TenantOptions::default())
        .expect("create");
    let tenant = router.tenant("legacy").unwrap();
    tenant.ingest(head.to_vec()).expect("ingest");
    router.checkpoint_all().expect("checkpoint");
    tenant.ingest(tail.to_vec()).expect("journal tail");
    drop(tenant);
    let frozen = freeze_dir(&root);
    router.shutdown();
    restore_dir(&root, &frozen);

    // Rewrite the directory into the previous release's names.
    let dir = root.join("legacy");
    let meta = std::fs::read_to_string(dir.join("tenant.meta")).expect("manifest");
    assert!(meta.contains("engine=fused-hybrid\n"), "{meta}");
    let meta = meta.replace("engine=fused-hybrid", "engine=fused-sorted");
    std::fs::write(dir.join("tenant.meta"), meta).expect("write manifest");
    let mut blob = std::fs::read(dir.join("serve.rpck")).expect("checkpoint");
    // Engine byte: magic 4 + version 4 + m/c/seed 24 + flags 3.
    assert_eq!(blob[35], 4, "written as fused-hybrid");
    blob[35] = 2;
    std::fs::write(dir.join("serve.rpck"), blob).expect("write checkpoint");

    let resumed = TenantRouter::start(cfg.clone()).expect("resume");
    let (rept, engine) = resumed
        .resolve_options(&TenantOptions::default())
        .expect("resolve");
    assert_eq!(engine, Engine::FusedHybrid);
    let fresh = ServeCore::start(ServeConfig::new(rept).with_engine(engine)).expect("fresh");
    fresh.ingest(stream.clone()).expect("ingest");
    fresh.flush();
    {
        let legacy = resumed.tenant("legacy").expect("tenant resumed");
        assert_eq!(legacy.config().engine, Engine::FusedHybrid);
        assert_eq!(
            legacy.position(),
            stream.len() as u64,
            "journal tail replayed"
        );
        legacy.flush();
        let (a, b) = (legacy.snapshot(), fresh.snapshot());
        assert_eq!(format_global(&a), format_global(&b));
        assert_eq!(format_top_k(&a, 10), format_top_k(&b, 10));
    }
    fresh.shutdown();
    resumed.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shard-loss kill-point sweep over real TCP: a shard server
    /// (journaled, checkpointed) is shut down at an arbitrary batch
    /// boundary. The coordinator discovers the loss on the next
    /// exchange, keeps acking ingest, and reports `degraded` health
    /// while answering queries from the surviving (smaller but valid)
    /// configuration. Restarting the shard server resumes it from its
    /// own checkpoint + journal tail; reviving it replays the
    /// coordinator's buffered batches above that position — and the
    /// rejoined cluster's query replies are bit-identical to an
    /// uninterrupted standalone core fed the same batches.
    #[test]
    fn shard_loss_degrades_then_rejoins_losslessly(
        stream in arb_stream_with_dups(20, 80),
        seed in any::<u64>(),
        kill_sel in any::<u64>(),
        batch_sel in any::<u64>(),
    ) {
        use rept::core::GroupSlice;
        use rept::serve::{protocol, Server};
        use rept::shard::{CoordinatorConfig, ShardCoordinator, ShardLink};

        // c=9, m=2 → 4 full groups + a remainder group = 5 groups over
        // 3 shards; shard 2 owns group 2 (2 workers), so the degraded
        // survivor configuration has c' = 7. Engines are swept by
        // tests/shard.rs; this sweep varies the kill point.
        let cfg = ReptConfig::new(2, 9).with_seed(seed).with_eta(true).with_locals(true);
        let engine = Engine::default();
        let batch = 1 + (batch_sel % 11) as usize;
        let batches: Vec<&[Edge]> = stream.chunks(batch).collect();
        let kill_at = (kill_sel as usize) % (batches.len() + 1);

        let root = unique_root("shard-loss");
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).expect("mk root");
        let mk_server = |i: u32| {
            Server::start(
                ServeConfig::new(cfg)
                    .with_engine(engine)
                    .with_snapshot_every(16)
                    .with_group_slice(GroupSlice::new(i, 3))
                    .with_checkpoint(root.join(format!("shard{i}.rpck")), None)
                    .with_journal(),
                "127.0.0.1:0",
                1,
            )
            .expect("shard server")
        };
        let mut servers: Vec<Option<Server>> = (0..3).map(mk_server).map(Some).collect();
        let links = servers
            .iter()
            .map(|s| ShardLink::connect(s.as_ref().expect("live").local_addr()).expect("link"))
            .collect();
        let mut coord = ShardCoordinator::start(
            CoordinatorConfig::new(cfg).with_engine(engine).with_snapshot_every(16),
            links,
        )
        .expect("coordinator");

        for (bi, chunk) in batches.iter().enumerate() {
            if bi == kill_at {
                servers[2].take().expect("not yet killed").shutdown();
            }
            coord.ingest(chunk.to_vec()).expect("ingest survives shard loss");
        }
        if kill_at == batches.len() {
            servers[2].take().expect("not yet killed").shutdown();
        }
        let position = coord.flush();
        prop_assert_eq!(position, stream.len() as u64);
        // Force one exchange so an end-of-stream kill is discovered too.
        let _ = coord.aggregates();
        let health = coord.health();
        prop_assert!(health.degraded(), "kill at batch {}/{}", kill_at, batches.len());
        prop_assert_eq!((health.alive, health.total), (2, 3));
        let degraded = coord.snapshot();
        prop_assert_eq!(degraded.c, 7, "survivors re-based to c' = 7");
        prop_assert!(degraded.global >= 0.0);

        // Restart the shard: checkpoint + journal bring back exactly
        // what it acked; the coordinator's buffer covers the rest.
        let revived_server = mk_server(2);
        coord
            .revive_shard(2, ShardLink::connect(revived_server.local_addr()).expect("link"))
            .expect("rejoin");
        servers[2] = Some(revived_server);
        prop_assert!(!coord.health().degraded());
        prop_assert_eq!(coord.flush(), stream.len() as u64);
        let rejoined = coord.snapshot();
        prop_assert_eq!(rejoined.c, 9);

        let standalone = ServeCore::start(
            ServeConfig::new(cfg).with_engine(engine).with_snapshot_every(16),
        )
        .expect("standalone");
        for chunk in &batches {
            standalone.ingest(chunk.to_vec()).expect("ingest");
        }
        standalone.flush();
        let want = standalone.snapshot();
        standalone.shutdown();
        prop_assert_eq!(
            protocol::format_global(&rejoined),
            protocol::format_global(&want)
        );
        prop_assert_eq!(
            protocol::format_top_k(&rejoined, 8),
            protocol::format_top_k(&want, 8)
        );
        for v in [0u32, 5, 11] {
            prop_assert_eq!(
                protocol::format_local(&rejoined, v),
                protocol::format_local(&want, v)
            );
        }

        for server in servers.into_iter().flatten() {
            server.shutdown();
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
