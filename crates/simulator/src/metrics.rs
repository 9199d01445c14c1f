//! Simulation metrics — the three panels of every figure in §6.2.

use std::time::Duration;

use road_network::Cost;
use urpsm_core::objective::UnifiedCost;

/// One vehicle class's slice of the aggregate, indexed by
/// [`urpsm_core::types::ClassId`]. Served counts requests delivered by
/// workers of that class; driven distance is in free-flow cost units
/// (the economics currency — class speed stretches schedules, never
/// distances, DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassMetrics {
    /// Requests served by workers of this class.
    pub served: usize,
    /// Distance driven by workers of this class.
    pub driven_distance: Cost,
}

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Total number of requests replayed.
    pub requests: usize,
    /// Requests inserted into some route (and not later cancelled).
    pub served: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Requests withdrawn by their rider/shipper before pickup (zero
    /// on the legacy batch path, which replays arrival-only streams).
    pub cancelled: usize,
    /// The unified cost (Eq. 1) at the configured `α`.
    pub unified_cost: UnifiedCost,
    /// Total wall-clock time spent inside the planner.
    pub planning_time: Duration,
    /// Total distance actually driven by all workers (equals the
    /// planned distance after the drain; the audit asserts this).
    pub driven_distance: Cost,
    /// Per-class breakdown, indexed by `ClassId`. A single-class fleet
    /// has exactly one entry whose fields mirror the aggregate.
    pub per_class: Vec<ClassMetrics>,
}

impl SimMetrics {
    /// Folds `other` — the metrics of a disjoint part of the same run,
    /// e.g. another shard's platform — into `self`: counts, costs,
    /// planner wall-clock and driven distance add up, and the per-class
    /// rows add index for index (the parts share one class table, so
    /// the rows line up; the shorter side is padded). `α` is a
    /// parameter of the run, not a quantity, and stays `self`'s.
    pub fn absorb(&mut self, other: &SimMetrics) {
        self.requests += other.requests;
        self.served += other.served;
        self.rejected += other.rejected;
        self.cancelled += other.cancelled;
        self.unified_cost.total_distance += other.unified_cost.total_distance;
        self.unified_cost.total_penalty += other.unified_cost.total_penalty;
        self.planning_time += other.planning_time;
        self.driven_distance += other.driven_distance;
        if self.per_class.len() < other.per_class.len() {
            self.per_class
                .resize(other.per_class.len(), ClassMetrics::default());
        }
        for (mine, theirs) in self.per_class.iter_mut().zip(&other.per_class) {
            mine.served += theirs.served;
            mine.driven_distance += theirs.driven_distance;
        }
    }

    /// Served rate `|R⁺| / |R|`.
    pub fn served_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.served as f64 / self.requests as f64
    }

    /// Mean wall-clock time to process a single request (the paper's
    /// "response time").
    pub fn response_time(&self) -> Duration {
        if self.requests == 0 {
            return Duration::ZERO;
        }
        self.planning_time / self.requests as u32
    }
}

impl std::fmt::Display for SimMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requests={} served={} ({:.1}%) UC={} resp={:?}",
            self.requests,
            self.served,
            self.served_rate() * 100.0,
            self.unified_cost.value(),
            self.response_time(),
        )?;
        if self.cancelled > 0 {
            write!(f, " cancelled={}", self.cancelled)?;
        }
        // Single-class fleets print exactly the pre-class line.
        if self.per_class.len() > 1 {
            write!(f, " per-class=[")?;
            for (i, c) in self.per_class.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "c{i}:{}/{}", c.served, c.driven_distance)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_response_time() {
        let m = SimMetrics {
            requests: 4,
            served: 3,
            rejected: 1,
            cancelled: 0,
            unified_cost: UnifiedCost {
                alpha: 1,
                total_distance: 100,
                total_penalty: 7,
            },
            planning_time: Duration::from_millis(8),
            driven_distance: 100,
            per_class: vec![ClassMetrics {
                served: 3,
                driven_distance: 100,
            }],
        };
        assert_eq!(m.served_rate(), 0.75);
        assert_eq!(m.response_time(), Duration::from_millis(2));
        assert_eq!(m.unified_cost.value(), 107);
        assert!(m.to_string().contains("75.0%"));
    }

    #[test]
    fn absorb_adds_every_quantity_and_pads_the_class_rows() {
        let part = |served, penalty, classes: &[(usize, Cost)]| SimMetrics {
            requests: served + 1,
            served,
            rejected: 1,
            cancelled: 2,
            unified_cost: UnifiedCost {
                alpha: 3,
                total_distance: 10,
                total_penalty: penalty,
            },
            planning_time: Duration::from_millis(4),
            driven_distance: 10,
            per_class: classes
                .iter()
                .map(|&(served, driven_distance)| ClassMetrics {
                    served,
                    driven_distance,
                })
                .collect(),
        };
        let mut total = part(2, 7, &[(2, 10)]);
        total.absorb(&part(5, 1, &[(1, 4), (4, 6)]));
        assert_eq!(total, {
            let mut want = part(7, 8, &[(3, 14), (4, 6)]);
            want.requests = 9;
            want.rejected = 2;
            want.cancelled = 4;
            want.unified_cost.total_distance = 20;
            want.planning_time = Duration::from_millis(8);
            want.driven_distance = 20;
            want
        });
    }

    #[test]
    fn empty_run_is_defined() {
        let m = SimMetrics {
            requests: 0,
            served: 0,
            rejected: 0,
            cancelled: 0,
            unified_cost: UnifiedCost::default(),
            planning_time: Duration::ZERO,
            driven_distance: 0,
            per_class: Vec::new(),
        };
        assert_eq!(m.served_rate(), 0.0);
        assert_eq!(m.response_time(), Duration::ZERO);
    }
}
