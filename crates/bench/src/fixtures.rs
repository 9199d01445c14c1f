//! Cached city fixtures: the expensive parts of a scenario (network,
//! hub labels, request stream skeleton) are built once per city; the
//! swept parameters (fleet size, capacity, deadline, penalty, grid
//! size) are applied per cell in `O(|W| + |R|)`. Cells share the
//! labels, never a distance cache: each cell gets its own cache front
//! (DESIGN.md §10, "One owner").

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use road_network::cache::LruCachedOracle;
use road_network::graph::RoadNetwork;
use road_network::hub_labels::HubLabels;
use road_network::oracle::{DistanceOracle, HubLabelOracle};
use road_network::{Cost, VertexId};
use urpsm_core::types::{Request, Worker, WorkerId};
use urpsm_simulator::engine::SimConfig;
use urpsm_workloads::scenario::{City, ScenarioBuilder, LRU_CAPACITY};
use urpsm_workloads::sweep::{table5, SweepParams};

use crate::harness::Cell;

/// One city's cached experiment substrate.
pub struct CityFixture {
    /// Which city.
    pub city: City,
    /// The road network.
    pub network: Arc<RoadNetwork>,
    /// The scenario's hub labels, shared by every cell. Each cell puts
    /// its own distance cache in front ([`CityFixture::cell`]), so no
    /// two cells — or threads — share a cache.
    pub hub_labels: Arc<HubLabelOracle>,
    /// The (scaled) Table 5 grid for this city.
    pub sweep: SweepParams,
    /// Request skeletons: deadline/penalty are rewritten per cell.
    base_requests: Vec<Request>,
    /// Direct distances `dis(o_r, d_r)` per request (for penalties).
    directs: Vec<Cost>,
    /// Deterministic origins for the largest fleet.
    fleet_origins: Vec<VertexId>,
    seed: u64,
}

impl CityFixture {
    /// Builds the fixture, scaling Table 5's stream/fleet sizes down by
    /// `scale_divisor` (networks keep their full size).
    pub fn build(city: City, scale_divisor: usize, seed: u64) -> Self {
        let sweep = table5(city).scaled_down(scale_divisor);
        let builder = match city {
            City::NycLike => urpsm_workloads::scenario::nyc_like(seed),
            City::ChengduLike => urpsm_workloads::scenario::chengdu_like(seed),
        };
        let scenario = apply_counts(builder, &sweep).build();

        let labels = scenario
            .oracle
            .backing_labels()
            .expect("both preset cities are small enough for hub labels");
        let hub_labels = Arc::new(HubLabelOracle::from_labels(
            scenario.network.clone(),
            HubLabels::clone(labels),
        ));
        let directs: Vec<Cost> = scenario
            .requests
            .iter()
            .map(|r| hub_labels.dis(r.origin, r.destination))
            .collect();

        let max_fleet = *sweep.workers.values.iter().max().expect("non-empty axis");
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xf1ee7));
        let n = scenario.network.num_vertices() as u32;
        let fleet_origins = (0..max_fleet)
            .map(|_| VertexId(rng.gen_range(0..n)))
            .collect();

        CityFixture {
            city,
            network: scenario.network,
            hub_labels,
            sweep,
            base_requests: scenario.requests,
            directs,
            fleet_origins,
            seed,
        }
    }

    /// Derives one experiment cell, with a fresh distance cache over
    /// the shared labels.
    ///
    /// * `workers` — fleet size (truncates the cached origin list),
    /// * `capacity_mu` — Gaussian mean of `K_w`,
    /// * `deadline_cs` — deadline offset Δ,
    /// * `penalty_factor` — β in `p_r = β · dis(o_r, d_r)`,
    /// * `grid_cell_m` — the platform grid size `g`, T-Share's cells too.
    pub fn cell(
        &self,
        workers: usize,
        capacity_mu: u32,
        deadline_cs: u64,
        penalty_factor: u64,
        grid_cell_m: f64,
    ) -> Cell {
        assert!(
            workers <= self.fleet_origins.len(),
            "fleet larger than cached origins"
        );
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(u64::from(capacity_mu)));
        let fleet: Vec<Worker> = self.fleet_origins[..workers]
            .iter()
            .enumerate()
            .map(|(i, &origin)| {
                let sum4: f64 = (0..4).map(|_| rng.gen::<f64>()).sum::<f64>() / 4.0;
                let cap = (f64::from(capacity_mu) + (sum4 - 0.5) * 6.93)
                    .round()
                    .max(1.0);
                Worker {
                    class: Default::default(),
                    id: WorkerId(i as u32),
                    origin,
                    capacity: cap as u32,
                }
            })
            .collect();

        let requests: Vec<Request> = self
            .base_requests
            .iter()
            .zip(&self.directs)
            .map(|(r, &direct)| {
                let mut r = *r;
                r.deadline = r.release + deadline_cs;
                r.penalty = penalty_factor.saturating_mul(direct);
                r
            })
            .collect();

        Cell {
            oracle: Arc::new(LruCachedOracle::new(
                self.hub_labels.clone(),
                LRU_CAPACITY,
                0,
            )),
            workers: fleet,
            requests,
            sim: SimConfig {
                grid_cell_m,
                alpha: self.sweep.alpha,
                ..SimConfig::default()
            },
            shards: 0,
        }
    }

    /// The default cell (every axis at its Table 5 default).
    pub fn default_cell(&self) -> Cell {
        self.cell(
            self.sweep.workers.default_value(),
            self.sweep.capacity.default_value(),
            self.sweep.deadline_cs.default_value(),
            self.sweep.penalty_factor.default_value(),
            self.sweep.grid_m.default_value(),
        )
    }

    /// Number of cached requests.
    pub fn num_requests(&self) -> usize {
        self.base_requests.len()
    }
}

/// The region-structured rush profile shared by `bench oracle-td` and
/// `experiments congestion`: a 3×3 lattice over the city's bounding
/// box; the center cell (downtown) runs the full two-peak day, every
/// other cell stays free-flow. Congestion that is *somewhere* rather
/// than everywhere is where both goal-directed search and TD
/// rerouting pay — a uniform profile stretches every path equally, so
/// the TD shortest path degenerates to the static one.
pub fn core_jam_profile(g: &RoadNetwork) -> road_network::congestion::CongestionProfile {
    use road_network::congestion::{CongestionProfile, HOUR_CS};
    let points: Vec<_> = (0..g.num_vertices())
        .map(|i| g.point(VertexId(i as u32)))
        .collect();
    let regions = CongestionProfile::regionize(&points, 3, 3);
    let mut downtown = vec![1000u32; 24];
    downtown[7] = 1300;
    downtown[8] = 1700;
    downtown[9] = 1350;
    downtown[16] = 1200;
    downtown[17] = 1600;
    downtown[18] = 1750;
    downtown[19] = 1300;
    let shoulder = vec![1000u32; 24];
    let tables: Vec<Vec<u32>> = (0..9)
        .map(|r| {
            if r == 4 {
                downtown.clone()
            } else {
                shoulder.clone()
            }
        })
        .collect();
    CongestionProfile::per_region("chengdu-2peak-core", HOUR_CS, tables, regions)
        .expect("preset is well-formed")
}

fn apply_counts(builder: ScenarioBuilder, sweep: &SweepParams) -> ScenarioBuilder {
    builder
        .requests(sweep.requests)
        .workers(1) // fleets are generated per cell, not by the builder
        .deadline_offset(sweep.deadline_cs.default_value())
        .penalty_factor(sweep.penalty_factor.default_value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_cells_are_cheap_and_deterministic() {
        let fx = CityFixture::build(City::ChengduLike, 50, 9);
        assert!(fx.num_requests() >= 50);
        let a = fx.cell(4, 4, 60_000, 10, 2_000.0);
        let b = fx.cell(4, 4, 60_000, 10, 2_000.0);
        assert_eq!(a.workers, b.workers);
        assert_eq!(a.requests, b.requests);

        // Smaller fleets are prefixes of larger ones (same seed).
        let big = fx.cell(8, 4, 60_000, 10, 2_000.0);
        assert_eq!(&big.workers[..4], &a.workers[..]);

        // Deadline/penalty rewrite is uniform.
        let tight = fx.cell(4, 4, 30_000, 5, 2_000.0);
        for (r_a, r_t) in a.requests.iter().zip(&tight.requests) {
            assert_eq!(r_a.release, r_t.release);
            assert_eq!(r_a.deadline - r_a.release, 60_000);
            assert_eq!(r_t.deadline - r_t.release, 30_000);
            assert_eq!(r_a.penalty, 2 * r_t.penalty);
        }
    }

    #[test]
    fn cells_share_labels_but_not_a_cache() {
        let fx = CityFixture::build(City::ChengduLike, 50, 9);
        let a = fx.cell(4, 4, 60_000, 10, 2_000.0);
        let b = fx.cell(4, 4, 60_000, 10, 2_000.0);
        let labels = |c: &Cell| c.oracle.backing_labels().expect("hub labels").clone();
        assert!(Arc::ptr_eq(&labels(&a), &labels(&b)));
        assert!(Arc::ptr_eq(
            &labels(&a),
            fx.hub_labels.backing_labels().expect("hub labels")
        ));
        assert!(!Arc::ptr_eq(&a.oracle, &b.oracle));
    }
}
