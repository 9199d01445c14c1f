//! The unified objective (Eq. 1) and its three reductions (§3.2).
//!
//! `UC(W, R) = α · Σ_w D(S_w) + Σ_{r ∈ R⁻} p_r`
//!
//! * `α = 1, p_r = ∞` — minimize total travel distance serving all
//!   requests ([`ObjectivePreset::MinTotalDistance`]).
//! * `α = 0, p_r = 1` — maximize the number of served requests
//!   ([`ObjectivePreset::MaxServedRequests`]).
//! * `α = c_w, p_r = c_r · dis(o_r, d_r)` — maximize platform revenue
//!   ([`ObjectivePreset::MaxRevenue`]); Eq. (2)–(4) give
//!   `revenue = c_r · Σ_{r∈R} dis(o_r, d_r) − UC`, verified exactly by
//!   [`revenue`] / [`revenue_via_unified_cost`] in integer arithmetic.

use road_network::{Cost, INF};

/// An accumulated unified cost (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnifiedCost {
    /// Weight `α` on the total travel distance.
    pub alpha: u64,
    /// `Σ_w D(S_w)` — total travel distance over all workers.
    pub total_distance: Cost,
    /// `Σ_{r ∈ R⁻} p_r` — total penalty of rejected requests.
    pub total_penalty: Cost,
}

impl UnifiedCost {
    /// The unified cost value `α · Σ D + Σ p` (saturating).
    #[inline]
    pub fn value(&self) -> u64 {
        self.alpha
            .saturating_mul(self.total_distance)
            .saturating_add(self.total_penalty)
    }
}

impl std::fmt::Display for UnifiedCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "UC = {} (α={} · D={} + P={})",
            self.value(),
            self.alpha,
            self.total_distance,
            self.total_penalty
        )
    }
}

/// Named parameterizations of the unified objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectivePreset {
    /// Minimize total travel distance while serving every request:
    /// `α = 1`, `p_r = ∞`.
    MinTotalDistance,
    /// Maximize the number of served requests: `α = 0`, `p_r = 1`.
    MaxServedRequests,
    /// Maximize total platform revenue: `α = c_w` (worker wage per unit
    /// time), `p_r = c_r · dis(o_r, d_r)` (fare per unit distance).
    MaxRevenue {
        /// Fare `c_r` per unit distance.
        fare: u64,
        /// Wage `c_w` per unit distance.
        wage: u64,
    },
    /// The experimental setting of §6.1: `α = 1` and
    /// `p_r = factor · dis(o_r, d_r)`.
    PenaltyFactor {
        /// Multiplier on the request's direct distance.
        factor: u64,
    },
}

impl ObjectivePreset {
    /// The weight `α` this preset puts on travel distance.
    pub fn alpha(&self) -> u64 {
        match self {
            ObjectivePreset::MinTotalDistance => 1,
            ObjectivePreset::MaxServedRequests => 0,
            ObjectivePreset::MaxRevenue { wage, .. } => *wage,
            ObjectivePreset::PenaltyFactor { .. } => 1,
        }
    }

    /// The penalty `p_r` for a request with direct distance
    /// `direct = dis(o_r, d_r)`.
    pub fn penalty(&self, direct: Cost) -> Cost {
        match self {
            ObjectivePreset::MinTotalDistance => INF,
            ObjectivePreset::MaxServedRequests => 1,
            ObjectivePreset::MaxRevenue { fare, .. } => fare.saturating_mul(direct),
            ObjectivePreset::PenaltyFactor { factor } => factor.saturating_mul(direct),
        }
    }
}

/// Total platform revenue by its definition (Eq. 2):
/// `c_r · Σ_{r ∈ R⁺} dis(o_r, d_r) − c_w · Σ_w D(S_w)`.
///
/// Returned as `i128` — revenue can be negative when workers drive more
/// than fares cover.
pub fn revenue(fare: u64, wage: u64, served_direct_sum: Cost, total_distance: Cost) -> i128 {
    i128::from(fare) * i128::from(served_direct_sum) - i128::from(wage) * i128::from(total_distance)
}

/// Total platform revenue through the unified-cost identity (Eq. 4):
/// `c_r · Σ_{r ∈ R} dis(o_r, d_r) − UC` where `UC` uses `α = c_w` and
/// `p_r = c_r · dis(o_r, d_r)`.
pub fn revenue_via_unified_cost(fare: u64, all_direct_sum: Cost, uc: &UnifiedCost) -> i128 {
    i128::from(fare) * i128::from(all_direct_sum) - i128::from(uc.value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn presets_match_section_3_2() {
        assert_eq!(ObjectivePreset::MinTotalDistance.alpha(), 1);
        assert_eq!(ObjectivePreset::MinTotalDistance.penalty(123), INF);
        assert_eq!(ObjectivePreset::MaxServedRequests.alpha(), 0);
        assert_eq!(ObjectivePreset::MaxServedRequests.penalty(123), 1);
        let rev = ObjectivePreset::MaxRevenue { fare: 7, wage: 2 };
        assert_eq!(rev.alpha(), 2);
        assert_eq!(rev.penalty(100), 700);
        let pf = ObjectivePreset::PenaltyFactor { factor: 10 };
        assert_eq!(pf.alpha(), 1);
        assert_eq!(pf.penalty(40), 400);
    }

    #[test]
    fn unified_cost_value_and_display() {
        let uc = UnifiedCost {
            alpha: 2,
            total_distance: 100,
            total_penalty: 30,
        };
        assert_eq!(uc.value(), 230);
        assert!(uc.to_string().contains("230"));
    }

    /// Eq. (2)–(4): maximizing revenue ≡ minimizing UC, exactly, on
    /// randomized request outcomes.
    #[test]
    fn revenue_identity_holds_exactly() {
        let mut rng = StdRng::seed_from_u64(2018);
        for _ in 0..200 {
            let fare = rng.gen_range(1..50u64);
            let wage = rng.gen_range(1..10u64);
            let n = rng.gen_range(1..40usize);
            let directs: Vec<Cost> = (0..n).map(|_| rng.gen_range(1..5_000)).collect();
            let served: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
            // A worker drives at least the direct distance per served
            // request plus arbitrary overhead.
            let total_distance: Cost = directs
                .iter()
                .zip(&served)
                .filter(|(_, s)| **s)
                .map(|(d, _)| d + rng.gen_range(0..500))
                .sum();

            let served_direct: Cost = directs
                .iter()
                .zip(&served)
                .filter(|(_, s)| **s)
                .map(|(d, _)| *d)
                .sum();
            let all_direct: Cost = directs.iter().sum();
            let penalty: Cost = directs
                .iter()
                .zip(&served)
                .filter(|(_, s)| !**s)
                .map(|(d, _)| fare * d)
                .sum();

            let uc = UnifiedCost {
                alpha: wage,
                total_distance,
                total_penalty: penalty,
            };
            assert_eq!(
                revenue(fare, wage, served_direct, total_distance),
                revenue_via_unified_cost(fare, all_direct, &uc),
                "identity must hold exactly"
            );
        }
    }
}
