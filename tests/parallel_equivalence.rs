//! The parallel planning engine against the sequential one — the
//! determinism contract of DESIGN.md §5, pinned *byte for byte*.
//!
//! `PlannerConfig::threads > 1` fans the exact probes out over scoped
//! threads with a shared atomic best-`Δ` bound for Lemma 8. Thread
//! scheduling may change *which candidates get probed* (more or fewer
//! than sequentially — the set always contains every potential
//! argmin), but never a decision: same assignments, same unified cost,
//! same event log at every width. These tests drive full event
//! streams — including cancellations and fleet churn — through
//! `MobilityService` at widths 1/2/4/8 and require identical outputs.

use proptest::prelude::*;

use urpsm::prelude::*;

fn run_with_threads(sc: &Scenario, threads: usize, prune: bool) -> SimOutcome {
    let cfg = PlannerConfig {
        alpha: sc.alpha,
        strict_economics: false,
        threads,
    };
    let planner: Box<dyn Planner> = if prune {
        Box::new(PruneGreedyDp::from_config(cfg))
    } else {
        Box::new(GreedyDp::from_config(cfg))
    };
    let mut service = urpsm::service(sc, planner);
    for event in sc.event_stream() {
        service.submit(event);
    }
    service.drain()
}

/// Zeroes the wall-clock field so metrics compare structurally.
fn normalized(mut m: SimMetrics) -> SimMetrics {
    m.planning_time = std::time::Duration::ZERO;
    m
}

#[test]
fn parallel_planner_is_byte_identical_on_plain_streams() {
    for seed in [1u64, 7, 42, 2018] {
        let sc = ScenarioBuilder::named("par")
            .grid_city(12, 12)
            .workers(10)
            .requests(200)
            .deadline_offset(8 * MINUTE_CS)
            .horizon(40 * MINUTE_CS)
            .seed(seed)
            .build();
        for prune in [true, false] {
            let base = run_with_threads(&sc, 1, prune);
            assert!(base.audit_errors.is_empty(), "seed {seed}");
            for threads in [2usize, 4, 8] {
                let par = run_with_threads(&sc, threads, prune);
                assert_eq!(
                    base.events, par.events,
                    "seed {seed} prune {prune} threads {threads}: event log"
                );
                assert_eq!(
                    normalized(base.metrics.clone()),
                    normalized(par.metrics.clone()),
                    "seed {seed} prune {prune} threads {threads}: metrics"
                );
                assert_eq!(
                    base.metrics.unified_cost, par.metrics.unified_cost,
                    "seed {seed} prune {prune} threads {threads}: unified cost"
                );
            }
        }
    }
}

#[test]
fn parallel_planner_is_byte_identical_under_churn() {
    // Cancellations and fleet churn interleave route surgery with
    // planning — the mutation plane runs strictly between parallel
    // read phases, and nothing may leak across.
    let sc = ScenarioBuilder::named("par-churn")
        .grid_city(10, 10)
        .workers(6)
        .requests(140)
        .horizon(35 * MINUTE_CS)
        .deadline_offset(8 * MINUTE_CS)
        .cancel_rate(0.15)
        .cancel_delay(3 * MINUTE_CS)
        .fleet_churn(2, 2)
        .seed(2018)
        .build();
    assert!(
        sc.cancellations.len() >= 2,
        "scenario must exercise cancels"
    );
    let base = run_with_threads(&sc, 1, true);
    assert!(base.audit_errors.is_empty());
    for threads in [2usize, 4, 8] {
        let par = run_with_threads(&sc, threads, true);
        assert!(par.audit_errors.is_empty(), "threads {threads}");
        assert_eq!(base.events, par.events, "threads {threads}");
        assert_eq!(
            base.state.total_assigned_distance(),
            par.state.total_assigned_distance(),
            "threads {threads}"
        );
        assert_eq!(base.state.cancelled(), par.state.cancelled());
    }
}

#[test]
fn simconfig_override_reaches_the_planner() {
    // `SimConfig::threads` plumbs through `MobilityService::new` into
    // `Planner::set_threads`; the override must not change outcomes.
    let sc = ScenarioBuilder::named("par-knob")
        .grid_city(8, 8)
        .workers(5)
        .requests(60)
        .seed(11)
        .build();
    let mut base_planner = PruneGreedyDp::new();
    let base = urpsm::simulate(&sc, &mut base_planner);

    let sim = Simulation::new(
        sc.oracle.clone(),
        sc.workers.clone(),
        sc.requests.clone(),
        SimConfig {
            grid_cell_m: sc.grid_cell_m,
            alpha: sc.alpha,
            drain: true,
            threads: 4,
            classes: sc.classes.clone(),
            ..SimConfig::default()
        },
    )
    .expect("sorted stream");
    let mut planner = PruneGreedyDp::new();
    let overridden = sim.run(&mut planner);
    assert_eq!(base.events, overridden.events);
    assert_eq!(base.metrics.unified_cost, overridden.metrics.unified_cost);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random scenarios (including cancellation/churn event streams and
    /// both departure policies): the parallel planner replays the
    /// sequential one exactly at every tested width.
    #[test]
    fn parallel_matches_sequential_on_random_scenarios(
        seed in 0u64..1_000,
        cancel_pct in 0u32..25,
        departures in 0usize..3,
        arrivals in 0usize..3,
        drain_policy in any::<bool>(),
    ) {
        let sc = ScenarioBuilder::named("par-prop")
            .grid_city(8, 8)
            .workers(5)
            .requests(80)
            .horizon(25 * MINUTE_CS)
            .cancel_rate(f64::from(cancel_pct) / 100.0)
            .cancel_delay(2 * MINUTE_CS)
            .fleet_churn(departures, arrivals)
            .departure_policy(if drain_policy {
                ReassignPolicy::Drain
            } else {
                ReassignPolicy::Reassign
            })
            .seed(seed)
            .build();
        let base = run_with_threads(&sc, 1, true);
        prop_assert!(base.audit_errors.is_empty(), "audit: {:?}", base.audit_errors);
        for threads in [2usize, 4, 8] {
            let par = run_with_threads(&sc, threads, true);
            prop_assert!(par.audit_errors.is_empty(), "threads {threads}");
            prop_assert_eq!(&base.events, &par.events, "threads {}", threads);
            prop_assert_eq!(
                normalized(base.metrics.clone()),
                normalized(par.metrics.clone()),
                "threads {}",
                threads
            );
        }
    }
}
