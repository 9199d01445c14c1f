//! Watch the lower bounds of §3.3 bite: on the cycle-graph adversary,
//! the measured cost ratio between an online planner and the
//! clairvoyant optimum grows without bound in `|V|`.
//!
//! ```sh
//! cargo run --release --example hardness_adversary
//! ```

use urpsm::prelude::*;
use urpsm::workloads::adversary::{AdversaryInstance, Lemma};

/// Runs one draw: the online planner sits at `v_0` until the request
/// appears; serve if feasible, otherwise eat the penalty.
fn run_draw(inst: &AdversaryInstance) -> (u64, u64) {
    let oracle: std::sync::Arc<dyn DistanceOracle> =
        std::sync::Arc::new(MatrixOracle::from_network(&inst.network));
    let mut service = MobilityService::new(
        oracle,
        vec![inst.worker],
        Box::new(PruneGreedyDp::from_config(PlannerConfig {
            alpha: inst.alpha,
            strict_economics: false,
        })),
        SimConfig {
            grid_cell_m: 10_000.0,
            alpha: inst.alpha,
            ..SimConfig::default()
        },
        inst.request.release,
    );
    service.submit(PlatformEvent::RequestArrived(inst.request));
    let out = service.drain();
    assert!(out.audit_errors.is_empty());
    (
        out.metrics.unified_cost.value(),
        inst.optimal_unified_cost(),
    )
}

fn main() {
    const DRAWS: u64 = 400;
    println!("Lemma 1 (α=0, p=1): expected unserved requests, ALG vs OPT\n");
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "|V|", "E[ALG]", "E[OPT]", "ratio"
    );
    for n in [8usize, 16, 32, 64, 128] {
        let mut alg_sum = 0u64;
        let mut opt_sum = 0u64;
        for seed in 0..DRAWS {
            let inst = AdversaryInstance::sample(Lemma::MaxServed, n, 100, 150, seed);
            let (alg, opt) = run_draw(&inst);
            alg_sum += alg;
            opt_sum += opt;
        }
        let ealg = alg_sum as f64 / DRAWS as f64;
        let eopt = opt_sum as f64 / DRAWS as f64;
        println!(
            "{:>6} {:>12.3} {:>12.3} {:>10}",
            n,
            ealg,
            eopt,
            if eopt == 0.0 {
                "∞".to_string()
            } else {
                format!("{:.1}", ealg / eopt)
            }
        );
    }
    println!(
        "\nE[OPT] = 0 for every |V| (a clairvoyant driver pre-positions and\n\
         always serves), while E[ALG] → 1: the competitive ratio is\n\
         unbounded, exactly as Lemma 1 proves — no online algorithm,\n\
         randomized or not, can have a constant competitive ratio."
    );
}
