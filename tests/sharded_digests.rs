//! Golden digests of sharded runs: a reduced `metropolis` stream, with
//! cancellations and fleet churn, replayed through a 4-shard plane must
//! keep making the same Borrow-probe handoffs and the same merged event
//! log for a given seed.
//!
//! The probe decides every cross-seam handoff, and a handoff changes
//! which worker serves which request from then on; `handoffs()` counts
//! the decisions and the checkpoint digest fingerprints everything they
//! caused. A faster probe must reproduce these values unedited. If a
//! deliberate change to the dispatch policy moves them, re-record them
//! in the same commit and say why.
//!
//! T-Share has rows of its own: it reads every shard's worker grid
//! through its own sorted-cell table, so these pin what it reads.

use urpsm::baselines::tshare::TSharePlanner;
use urpsm::core::planner::{Planner, PruneGreedyDp};
use urpsm::workloads::scenario::metropolis;

/// `(handoffs, checkpoint digest)` of one seed's replay over `shards`
/// shards, each planned by a planner `make` builds.
fn replay(seed: u64, shards: usize, make: fn() -> Box<dyn Planner>) -> (usize, u64) {
    let scenario = metropolis(seed)
        .requests(1_500)
        .workers(150)
        .cancel_rate(0.1)
        .fleet_churn(15, 15)
        .build();
    let mut service = urpsm::sharded(&scenario, shards, |_| make());
    for event in scenario.event_stream() {
        service.submit(event);
    }
    (service.handoffs(), service.checkpoint().digest)
}

#[test]
fn sharded_metropolis_replays_are_pinned() {
    let golden: [(u64, (usize, u64)); 3] = [
        (1, (308, 4792937758432658734)),
        (7, (281, 14159206516794004361)),
        (42, (268, 6331899275193179629)),
    ];
    let got: Vec<(u64, (usize, u64))> = golden
        .iter()
        .map(|&(seed, _)| (seed, replay(seed, 4, || Box::new(PruneGreedyDp::new()))))
        .collect();
    assert_eq!(got, golden.to_vec(), "(seed, (handoffs, digest)) moved");
}

#[test]
fn sharded_tshare_replays_are_pinned() {
    // `(seed, shards, (handoffs, digest))`.
    let golden: [(u64, usize, (usize, u64)); 4] = [
        (1, 4, (303, 15959004469795298156)),
        (7, 4, (274, 246705845863663235)),
        (42, 4, (270, 8870587670973773506)),
        (7, 1, (0, 4625553009839655757)),
    ];
    let got: Vec<(u64, usize, (usize, u64))> = golden
        .iter()
        .map(|&(seed, shards, _)| {
            let pinned = replay(seed, shards, || Box::new(TSharePlanner::new()));
            (seed, shards, pinned)
        })
        .collect();
    assert_eq!(
        got,
        golden.to_vec(),
        "(seed, shards, (handoffs, digest)) moved"
    );
}
