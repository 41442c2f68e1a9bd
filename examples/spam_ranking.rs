//! Local triangle counts for suspicious-account ranking.
//!
//! The paper's intro cites spam/sybil detection: accounts inside link
//! farms sit in abnormally many triangles relative to their degree. This
//! example plants two link farms (cliques) in a power-law social graph,
//! estimates *local* triangle counts with REPT, ranks nodes by the
//! estimate, and measures how many of the true farm members appear in the
//! top of the ranking (precision@k against the planted ground truth).
//!
//! Run: `cargo run --release --example spam_ranking`

use rept::core::{Engine, Rept, ReptConfig};
use rept::exact::GroundTruth;
use rept::gen::{chung_lu, planted_cliques, stream_order, GeneratorConfig};
use rept::graph::edge::NodeId;
use rept::hash::fx::FxHashMap;
use rept::metrics::ranking::{kendall_tau_top, precision_at_k};
use std::collections::HashSet;

fn main() {
    // Social background: 2k nodes, power-law (flattened enough that
    // organic hubs do not out-triangle the farms).
    let n = 2_000u32;
    let bg_cfg = GeneratorConfig::new(n, 11);
    let mut stream = chung_lu(&bg_cfg, 8_000, 2.7, 10.0);

    // Two link farms: 30-cliques on random member sets (τ_v = C(29,2) =
    // 406 for every member — far above organic local counts here).
    let farm_cfg = GeneratorConfig::new(n, 23);
    let farms = planted_cliques(&farm_cfg, 2, 30, 0);
    let farm_members: HashSet<NodeId> = farms.iter().flat_map(|e| [e.u(), e.v()]).collect();
    stream.extend(&farms);
    let stream = stream_order(stream, 3);
    println!(
        "stream: {} edges, {} planted farm members",
        stream.len(),
        farm_members.len()
    );

    // Estimate local counts with REPT (m = 5, c = 5 — covariance-free).
    let rept = Rept::new(ReptConfig::new(5, 5).with_seed(1));
    let est = rept.run(Engine::PerWorker, &stream);

    // Rank nodes by estimated local triangle count and score the ranking
    // against exact local counts with the library's ranking metrics.
    let gt = GroundTruth::compute(&stream);
    let truth: FxHashMap<NodeId, f64> = gt.tau_v.iter().map(|(&v, &t)| (v, t as f64)).collect();
    let k = farm_members.len();
    let precision = precision_at_k(&est.locals, &truth, k);
    let tau_rank = kendall_tau_top(&est.locals, &truth, k);

    let mut ranking: Vec<(f64, NodeId)> = est.locals.iter().map(|(&v, &t)| (t, v)).collect();
    ranking.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    println!("\ntop-10 by estimated τ̂_v:");
    println!("rank   node    τ̂_v    farm-member");
    for (rank, (t, v)) in ranking.iter().take(10).enumerate() {
        println!(
            "{:>4}   {v:>4}   {t:>6.0}   {}",
            rank + 1,
            if farm_members.contains(v) { "yes" } else { "" }
        );
    }
    let hits = ranking
        .iter()
        .take(k)
        .filter(|(_, v)| farm_members.contains(v))
        .count();
    println!("\nprecision@{k} vs exact ranking = {precision:.2}");
    println!("Kendall τ on true top-{k}      = {tau_rank:.2}");
    println!("farm members in estimated top-{k}: {hits}/{k}");
    assert!(
        hits as f64 / k as f64 > 0.8,
        "sampled local counts should recover most farm members"
    );
}
