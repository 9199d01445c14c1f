//! The three objective reductions of §3.2, live.
//!
//! URPSM's single parameterized objective subsumes (i) min total
//! distance, (ii) max served requests and (iii) max revenue. This
//! example runs the same city under each preset and verifies the
//! revenue identity Eq. (2)–(4) *exactly* on the simulation output.
//!
//! ```sh
//! cargo run --release --example objective_presets
//! ```

use urpsm::core::objective::{revenue, revenue_via_unified_cost, ObjectivePreset};
use urpsm::prelude::*;

fn run_with_preset(preset: ObjectivePreset, label: &str) {
    // Build the base scenario, then re-derive penalties and α from the
    // preset (the builder's penalty factor is the §6.1 experimental
    // setting; presets override it).
    let mut scenario = ScenarioBuilder::named(label)
        .grid_city(16, 16)
        .workers(20)
        .requests(300)
        .seed(1234)
        .build();
    scenario.alpha = preset.alpha();
    let oracle = scenario.oracle.clone();
    for r in &mut scenario.requests {
        r.penalty = preset.penalty(oracle.dis(r.origin, r.destination));
    }

    let mut planner = PruneGreedyDp::from_config(PlannerConfig {
        alpha: preset.alpha(),
        strict_economics: false,
    });
    let outcome = urpsm::simulate(&scenario, &mut planner);
    assert!(outcome.audit_errors.is_empty());

    println!("── {label}");
    println!(
        "   served {:>5.1}%   total distance {:>9}   UC {:>12}",
        outcome.metrics.served_rate() * 100.0,
        outcome.metrics.unified_cost.total_distance,
        outcome.metrics.unified_cost.value()
    );

    if let ObjectivePreset::MaxRevenue { fare, wage } = preset {
        // Revenue by definition (Eq. 2) …
        let served_ids: std::collections::HashSet<_> = outcome
            .events
            .iter()
            .filter_map(|e| match e {
                SimEvent::Assigned { r, .. } => Some(*r),
                _ => None,
            })
            .collect();
        let served_direct: u64 = scenario
            .requests
            .iter()
            .filter(|r| served_ids.contains(&r.id))
            .map(|r| oracle.dis(r.origin, r.destination))
            .sum();
        let by_definition = revenue(
            fare,
            wage,
            served_direct,
            outcome.metrics.unified_cost.total_distance,
        );
        // … equals revenue through the unified-cost identity (Eq. 4).
        let all_direct: u64 = scenario
            .requests
            .iter()
            .map(|r| oracle.dis(r.origin, r.destination))
            .sum();
        let via_identity =
            revenue_via_unified_cost(fare, all_direct, &outcome.metrics.unified_cost);
        assert_eq!(by_definition, via_identity, "Eq. (2)–(4) must hold exactly");
        println!("   platform revenue: {by_definition} (identity Eq.4 verified exactly)");
    }
}

fn main() {
    println!("One objective, three classic problems (§3.2):\n");
    run_with_preset(
        ObjectivePreset::MaxServedRequests,
        "maximize served requests (α=0, p=1)",
    );
    run_with_preset(
        ObjectivePreset::PenaltyFactor { factor: 10 },
        "unified default (α=1, p=10·dis)",
    );
    run_with_preset(
        ObjectivePreset::MaxRevenue { fare: 30, wage: 1 },
        "maximize revenue (α=c_w, p=c_r·dis)",
    );
}
