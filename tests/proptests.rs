//! Property-based tests over the whole stack (proptest).

use proptest::collection::vec;
use proptest::prelude::*;
use rept::core::{Engine, EtaMode, Rept, ReptConfig};
use rept::exact::static_count::brute_force_count;
use rept::exact::{forward_count, GroundTruth, StreamingExact};
use rept::gen::stream_order;
use rept::graph::csr::CsrGraph;
use rept::graph::edge::Edge;
use rept::graph::stream::dedup_stream;

/// Strategy: a random simple stream on up to `n` nodes.
fn arb_stream(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    vec((0..n, 0..n), 1..max_edges).prop_map(|pairs| {
        let mut b = rept::graph::GraphBuilder::new();
        for (u, v) in pairs {
            b.add(u, v);
        }
        b.build()
    })
}

/// Strategy: a raw stream that KEEPS duplicate edges (only self-loops
/// are dropped) — the engines' duplicate-handling paths only fire on
/// repeated stream edges, which `arb_stream`'s builder dedups away.
fn arb_stream_with_dups(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    vec((0..n, 0..n), 1..max_edges).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter_map(|(u, v)| Edge::try_new(u, v))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streaming exact counter agrees with the independent forward
    /// algorithm on τ and every τ_v, for any stream.
    #[test]
    fn streaming_matches_forward(stream in arb_stream(24, 120)) {
        let mut s = StreamingExact::new();
        s.process_stream(stream.iter().copied());
        let csr = CsrGraph::from_edges(&stream);
        let fwd = forward_count(&csr);
        prop_assert_eq!(s.global(), fwd.global);
        for v in 0..csr.node_count() as u32 {
            prop_assert_eq!(s.local(v), fwd.local[v as usize]);
        }
    }

    /// … and the forward algorithm agrees with brute force.
    #[test]
    fn forward_matches_brute_force(stream in arb_stream(16, 60)) {
        let csr = CsrGraph::from_edges(&stream);
        prop_assert_eq!(forward_count(&csr), brute_force_count(&csr));
    }

    /// The η accumulator always satisfies η = Σ_g C(t_g, 2).
    #[test]
    fn eta_identity(stream in arb_stream(20, 100)) {
        let mut s = StreamingExact::new();
        s.process_stream(stream.iter().copied());
        prop_assert_eq!(s.eta(), s.eta_from_identity());
    }

    /// η is invariant under relabeling but NOT under reordering; τ is
    /// invariant under both. (Reordering invariance of τ is the property
    /// actually asserted; η's order-dependence is witnessed elsewhere.)
    #[test]
    fn tau_is_order_invariant(stream in arb_stream(20, 80), seed in any::<u64>()) {
        let reordered = stream_order(stream.clone(), seed);
        let a = GroundTruth::compute(&stream);
        let b = GroundTruth::compute(&reordered);
        prop_assert_eq!(a.tau, b.tau);
        for (v, t) in &a.tau_v {
            prop_assert_eq!(b.local(*v), *t);
        }
    }

    /// A REPT worker that stores everything reproduces the exact counter,
    /// for any stream (worker ≡ Algorithm 2 at p = 1).
    #[test]
    fn worker_at_p1_is_exact(stream in arb_stream(20, 80)) {
        use rept::core::worker::SemiTriangleWorker;
        let mut w = SemiTriangleWorker::new(true, true, EtaMode::StrictNonLast);
        let mut exact = StreamingExact::new();
        for &e in &stream {
            let closed = w.observe(e);
            w.store(e, closed);
            exact.process(e);
        }
        prop_assert_eq!(w.tau(), exact.global());
        prop_assert_eq!(w.eta(), exact.eta());
    }

    /// REPT's sequential and threaded drivers agree for arbitrary
    /// streams and processor layouts.
    #[test]
    fn drivers_agree(
        stream in arb_stream(30, 120),
        m in 2u64..6,
        c in 1u64..14,
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let rept = Rept::new(ReptConfig::new(m, c).with_seed(seed));
        let seq = rept.run(Engine::PerWorker, &stream);
        let thr = rept.run_threaded(Engine::PerWorker, &stream, threads);
        prop_assert_eq!(seq.global, thr.global);
        prop_assert_eq!(seq.locals, thr.locals);
    }

    /// Every fused engine — single-threaded and threaded — is
    /// bit-identical to the per-worker oracle for arbitrary streams and
    /// processor layouts. `m ∈ [2, 6)` × `c ∈ [1, 14)` covers all three
    /// combination paths (`c ≤ m`, `c₂ = 0`, mixed Graybill–Deal), and η
    /// plus locals are force-enabled so every counter the engines
    /// maintain is exercised, not just the ones the layout strictly
    /// needs. Thread counts above the group count are clamped to it.
    #[test]
    fn fused_engines_agree_with_sequential(
        stream in arb_stream(30, 120),
        m in 2u64..6,
        c in 1u64..14,
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let rept = Rept::new(
            ReptConfig::new(m, c).with_seed(seed).with_eta(true).with_locals(true),
        );
        let seq = rept.run(Engine::PerWorker, &stream);
        for engine in Engine::all() {
            let fused = rept.run(engine, &stream);
            prop_assert_eq!(seq.global, fused.global);
            prop_assert_eq!(&seq.locals, &fused.locals);
            prop_assert_eq!(seq.eta_hat, fused.eta_hat);
            prop_assert_eq!(
                &seq.diagnostics.per_processor_tau,
                &fused.diagnostics.per_processor_tau
            );
            let thr = rept.run_threaded(engine, &stream, threads);
            prop_assert_eq!(seq.global, thr.global);
            prop_assert_eq!(&seq.locals, &thr.locals);
            prop_assert_eq!(seq.eta_hat, thr.eta_hat);
        }
    }

    /// Every engine stays bit-identical to the per-worker oracle on
    /// streams that contain **duplicate edges** — the duplicate-store
    /// rule ("first insert wins, duplicates are ignored"), the
    /// unowned-cell drop (`c < m` layouts), and every counter (η,
    /// locals, per-processor τ, stored-edge counts) must agree across
    /// all three combination paths and both drivers.
    #[test]
    fn shared_engines_bit_identical_on_duplicate_streams(
        stream in arb_stream_with_dups(20, 100),
        m in 2u64..6,
        c in 1u64..14,
        seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        let rept = Rept::new(
            ReptConfig::new(m, c).with_seed(seed).with_eta(true).with_locals(true),
        );
        let oracle = rept.run(Engine::PerWorker, &stream);
        for engine in Engine::all() {
            let fused = rept.run(engine, &stream);
            prop_assert_eq!(oracle.global, fused.global);
            prop_assert_eq!(&oracle.locals, &fused.locals);
            prop_assert_eq!(oracle.eta_hat, fused.eta_hat);
            prop_assert_eq!(
                &oracle.diagnostics.per_processor_tau,
                &fused.diagnostics.per_processor_tau
            );
            prop_assert_eq!(
                &oracle.diagnostics.stored_edges,
                &fused.diagnostics.stored_edges
            );
        }
        for engine in Engine::all() {
            let thr = rept.run_threaded(engine, &stream, threads);
            prop_assert_eq!(oracle.global, thr.global);
            prop_assert_eq!(&oracle.locals, &thr.locals);
            prop_assert_eq!(oracle.eta_hat, thr.eta_hat);
            prop_assert_eq!(
                &oracle.diagnostics.per_processor_tau,
                &thr.diagnostics.per_processor_tau
            );
        }
    }

    /// A hybrid-engine run killed at an arbitrary stream position and
    /// restored from its RPCK checkpoint finishes bit-identical to the
    /// uninterrupted run *and* to the per-worker oracle — the resumed
    /// core rebuilds its sorted-vec/bitmap representation (and every
    /// cell tag) from the stored union edge set alone. Duplicate edges
    /// are kept in the stream so the restore path's duplicate handling
    /// is exercised on both sides of the kill point.
    #[test]
    fn hybrid_kill_resume_is_bit_identical(
        stream in arb_stream_with_dups(20, 100),
        m in 2u64..6,
        c in 1u64..14,
        seed in any::<u64>(),
        cut in 0usize..100,
    ) {
        use rept::core::resume::ResumableRun;
        let cut = cut.min(stream.len());
        let cfg = ReptConfig::new(m, c).with_seed(seed).with_eta(true).with_locals(true);
        let oracle = Rept::new(cfg).run(Engine::PerWorker, &stream);

        let mut unbroken = ResumableRun::with_engine(Rept::new(cfg), Engine::FusedHybrid);
        let mut run = ResumableRun::with_engine(Rept::new(cfg), Engine::FusedHybrid);
        for &e in &stream[..cut] {
            unbroken.process(e);
            run.process(e);
        }
        let blob = run.checkpoint_bytes();
        drop(run); // the "kill": everything not in the blob is gone
        let mut resumed = ResumableRun::from_checkpoint_bytes(&blob).unwrap();
        prop_assert_eq!(resumed.position(), cut as u64);
        for &e in &stream[cut..] {
            unbroken.process(e);
            resumed.process(e);
        }
        let a = unbroken.finalize();
        let b = resumed.finalize();
        prop_assert_eq!(a.global, b.global);
        prop_assert_eq!(&a.locals, &b.locals);
        prop_assert_eq!(a.eta_hat, b.eta_hat);
        prop_assert_eq!(oracle.global, b.global);
        prop_assert_eq!(&oracle.locals, &b.locals);
        prop_assert_eq!(oracle.eta_hat, b.eta_hat);
    }

    /// REPT's global estimate is always non-negative and zero on
    /// triangle-free streams.
    #[test]
    fn estimates_are_sane(stream in arb_stream(30, 100), seed in any::<u64>()) {
        let est = Rept::new(ReptConfig::new(3, 5).with_seed(seed))
            .run(Engine::PerWorker, &stream);
        prop_assert!(est.global >= 0.0);
        let gt = GroundTruth::compute(&stream);
        if gt.tau == 0 {
            prop_assert_eq!(est.global, 0.0);
        }
        // Locals are non-negative and only present for seen nodes.
        for &l in est.locals.values() {
            prop_assert!(l >= 0.0);
        }
    }

    /// Deduplication is idempotent and order-preserving.
    #[test]
    fn dedup_idempotent(stream in arb_stream(20, 80)) {
        let once = dedup_stream(&stream);
        let twice = dedup_stream(&once);
        prop_assert_eq!(&once, &twice);
        // The fixture streams are already simple, so dedup is identity.
        prop_assert_eq!(once, stream);
    }

    /// CSR construction is stable under permutation of the input edges.
    #[test]
    fn csr_is_order_independent(stream in arb_stream(20, 80), seed in any::<u64>()) {
        let shuffled = stream_order(stream.clone(), seed);
        let a = CsrGraph::from_edges(&stream);
        let b = CsrGraph::from_edges(&shuffled);
        prop_assert_eq!(a, b);
    }

    /// The binary I/O format round-trips arbitrary simple streams.
    #[test]
    fn binary_io_roundtrip(stream in arb_stream(40, 100)) {
        let mut buf = Vec::new();
        rept::graph::io::write_binary(&mut buf, &stream).unwrap();
        let back = rept::graph::io::read_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(back, stream);
    }

    /// The partition hash distributes any edge set across cells with no
    /// empty cell for reasonably large inputs (sanity floor — uniformity
    /// is tested statistically in rept-hash).
    #[test]
    fn partition_covers_cells(seed in any::<u64>()) {
        use rept::hash::{EdgeHashFamily, PartitionHasher};
        let ph = PartitionHasher::new(EdgeHashFamily::new(seed).member(0), 4);
        let mut hit = [false; 4];
        for i in 0..400u64 {
            hit[ph.cell(i, i + 1) as usize] = true;
        }
        prop_assert!(hit.iter().all(|&h| h));
    }
}
