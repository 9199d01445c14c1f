//! Fleet composition: vehicle-class mixes for heterogeneous fleets.
//!
//! A [`FleetMix`] describes what fraction of the fleet belongs to each
//! [`VehicleClass`]. The default single-standard-class mix reproduces
//! the homogeneous fleet of the paper byte for byte; the `mixed`
//! preset models a three-mode city (sedans, high-capacity vans,
//! range-limited e-bikes) in the spirit of the multi-modal exemplars
//! (DESIGN.md §12).
//!
//! Class assignment consumes its own RNG stream
//! (`seed + 0xc1a5`), so enabling a mix never perturbs the base
//! fleet-origin or request draws — the same independence contract as
//! the lifecycle and congestion knobs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use urpsm_core::types::{ClassId, ClassTable, VehicleClass, Worker};

use crate::scenario::gauss_capacity;

/// A fleet composition: one fraction per vehicle class.
#[derive(Debug, Clone)]
pub struct FleetMix {
    entries: Vec<(VehicleClass, f64)>,
}

impl FleetMix {
    /// The homogeneous single-standard-class fleet — the pre-class
    /// code path, byte for byte.
    pub fn single() -> Self {
        FleetMix {
            entries: vec![(VehicleClass::standard(), 1.0)],
        }
    }

    /// A custom mix. Fractions are validated at
    /// [`crate::scenario::ScenarioBuilder::build`] time (sum to 1 ± ε,
    /// no zero-capacity class), not here, so a misconfigured mix fails
    /// loudly where the scenario is built.
    pub fn new(entries: Vec<(VehicleClass, f64)>) -> Self {
        FleetMix { entries }
    }

    /// The three-class city of the `experiments fleet` panel:
    /// 60 % sedans (the baseline profile), 25 % six-seat vans at
    /// 1.1× travel time, 15 % single-passenger e-bikes at 1.5× with a
    /// battery range budget.
    pub fn mixed() -> Self {
        FleetMix {
            entries: vec![
                (
                    VehicleClass {
                        name: "sedan",
                        capacity: 4,
                        speed_permille: 1_000,
                        range: None,
                    },
                    0.60,
                ),
                (
                    VehicleClass {
                        name: "van",
                        capacity: 6,
                        speed_permille: 1_100,
                        range: None,
                    },
                    0.25,
                ),
                (
                    VehicleClass {
                        name: "ebike",
                        capacity: 1,
                        speed_permille: 1_500,
                        range: Some(300_000),
                    },
                    0.15,
                ),
            ],
        }
    }

    /// The classes and their fleet fractions, in [`ClassId`] order.
    pub fn entries(&self) -> &[(VehicleClass, f64)] {
        &self.entries
    }

    /// Whether this mix is exactly the homogeneous standard fleet —
    /// the case the scenario keeps off the class plumbing entirely.
    pub fn is_single_standard(&self) -> bool {
        self.entries.len() == 1 && self.entries[0].0.is_standard_profile()
    }

    /// The class table a platform needs to host this mix.
    pub fn class_table(&self) -> ClassTable {
        ClassTable::new(self.entries.iter().map(|(c, _)| c.clone()).collect())
    }

    /// Maps a uniform draw `x ∈ [0, 1)` to a class by cumulative
    /// fraction (the last class absorbs rounding slack).
    pub fn sample(&self, x: f64) -> ClassId {
        let mut acc = 0.0;
        for (i, (_, f)) in self.entries.iter().enumerate() {
            acc += f;
            if x < acc {
                return ClassId(i as u16);
            }
        }
        ClassId((self.entries.len() - 1) as u16)
    }

    /// Draws a class for each of `workers`, in order, from the mix's
    /// own stream (`seed + 0xc1a5`): the class by cumulative fraction
    /// ([`FleetMix::sample`]), then a capacity around the class mean
    /// from §6.1's capacity distribution.
    pub fn assign<'a>(&self, seed: u64, workers: impl IntoIterator<Item = &'a mut Worker>) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xc1a5));
        for w in workers {
            w.class = self.sample(rng.gen::<f64>());
            w.capacity = gauss_capacity(&mut rng, self.entries[w.class.idx()].0.capacity);
        }
    }
}

impl Default for FleetMix {
    fn default() -> Self {
        FleetMix::single()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_is_the_standard_profile() {
        let m = FleetMix::single();
        assert!(m.is_single_standard());
        assert_eq!(m.class_table().len(), 1);
    }

    #[test]
    fn mixed_preset_is_admissible_and_partitions() {
        let m = FleetMix::mixed();
        assert!(!m.is_single_standard());
        let sum: f64 = m.entries().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // ClassTable::new enforces admissibility (speed ≥ baseline,
        // capacity ≥ 1) — building it is the assertion.
        assert_eq!(m.class_table().len(), 3);
    }

    #[test]
    fn sampling_walks_cumulative_fractions() {
        let m = FleetMix::mixed();
        assert_eq!(m.sample(0.0), ClassId(0));
        assert_eq!(m.sample(0.59), ClassId(0));
        assert_eq!(m.sample(0.61), ClassId(1));
        assert_eq!(m.sample(0.86), ClassId(2));
        assert_eq!(m.sample(0.999_999), ClassId(2));
    }
}
