//! Time-bucketed activity summaries derived from the event log.
//!
//! Useful for reports and for spotting temporal pathologies the
//! aggregate metrics hide (e.g. a planner that looks fine on average
//! but collapses during the rush-hour peak).

use urpsm_core::types::{Request, Time};

use crate::SimEvent;

/// Activity within one time bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineBucket {
    /// Bucket start time (inclusive).
    pub start: Time,
    /// Requests released in this bucket.
    pub arrivals: usize,
    /// Requests assigned in this bucket.
    pub served: usize,
    /// Requests rejected in this bucket.
    pub rejected: usize,
    /// Pickups completed in this bucket.
    pub pickups: usize,
    /// Deliveries completed in this bucket.
    pub deliveries: usize,
    /// Requests cancelled in this bucket.
    pub cancellations: usize,
    /// Fleet-membership changes (joins + departures) in this bucket.
    pub fleet_changes: usize,
}

/// A bucketed view over a whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Bucket width in centiseconds.
    pub bucket_cs: Time,
    /// The buckets, chronological and contiguous from `t = 0`.
    pub buckets: Vec<TimelineBucket>,
}

impl Timeline {
    /// Builds a timeline with buckets of `bucket_cs` from a run's
    /// events and its request set.
    ///
    /// # Panics
    /// If `bucket_cs == 0`.
    pub fn build(requests: &[Request], events: &[SimEvent], bucket_cs: Time) -> Self {
        assert!(bucket_cs > 0, "bucket width must be positive");
        let horizon = events
            .iter()
            .map(SimEvent::time)
            .chain(requests.iter().map(|r| r.release))
            .max()
            .unwrap_or(0);
        let n = (horizon / bucket_cs + 1) as usize;
        let mut buckets: Vec<TimelineBucket> = (0..n)
            .map(|i| TimelineBucket {
                start: i as Time * bucket_cs,
                ..Default::default()
            })
            .collect();
        let idx = |t: Time| ((t / bucket_cs) as usize).min(n - 1);
        for r in requests {
            buckets[idx(r.release)].arrivals += 1;
        }
        for e in events {
            match *e {
                SimEvent::Assigned { t, .. } => buckets[idx(t)].served += 1,
                SimEvent::Rejected { t, .. } => buckets[idx(t)].rejected += 1,
                SimEvent::Pickup { t, .. } => buckets[idx(t)].pickups += 1,
                SimEvent::Delivery { t, .. } => buckets[idx(t)].deliveries += 1,
                SimEvent::Cancelled { t, .. } => buckets[idx(t)].cancellations += 1,
                // An unassign is neither a decision nor a cancellation;
                // the re-decision that follows is counted on its own.
                SimEvent::Unassigned { .. } => {}
                SimEvent::WorkerJoined { t, .. } | SimEvent::WorkerLeft { t, .. } => {
                    buckets[idx(t)].fleet_changes += 1
                }
            }
        }
        Timeline { bucket_cs, buckets }
    }

    /// Cumulative served fraction at the end of each bucket (of the
    /// decisions made so far).
    pub fn cumulative_served_rate(&self) -> Vec<f64> {
        let mut served = 0usize;
        let mut decided = 0usize;
        self.buckets
            .iter()
            .map(|b| {
                served += b.served;
                decided += b.served + b.rejected;
                if decided == 0 {
                    0.0
                } else {
                    served as f64 / decided as f64
                }
            })
            .collect()
    }

    /// The bucket with the most arrivals (the demand peak).
    pub fn peak_bucket(&self) -> Option<&TimelineBucket> {
        self.buckets.iter().max_by_key(|b| b.arrivals)
    }

    /// A compact ASCII sparkline of arrivals per bucket.
    pub fn arrivals_sparkline(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.buckets.iter().map(|b| b.arrivals).max().unwrap_or(0);
        if max == 0 {
            return String::new();
        }
        self.buckets
            .iter()
            .map(|b| BARS[(b.arrivals * (BARS.len() - 1)) / max])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::VertexId;
    use urpsm_core::types::{RequestId, WorkerId};

    fn req(id: u32, release: Time) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(0),
            destination: VertexId(1),
            release,
            deadline: release + 1_000,
            penalty: 1,
            capacity: 1,
        }
    }

    #[test]
    fn buckets_count_events() {
        let requests = [req(0, 50), req(1, 150), req(2, 160)];
        let events = [
            SimEvent::Assigned {
                t: 50,
                r: RequestId(0),
                w: WorkerId(0),
                delta: 1,
            },
            SimEvent::Rejected {
                t: 150,
                r: RequestId(1),
            },
            SimEvent::Assigned {
                t: 160,
                r: RequestId(2),
                w: WorkerId(0),
                delta: 1,
            },
            SimEvent::Pickup {
                t: 210,
                r: RequestId(0),
                w: WorkerId(0),
            },
            SimEvent::Delivery {
                t: 320,
                r: RequestId(0),
                w: WorkerId(0),
            },
        ];
        let tl = Timeline::build(&requests, &events, 100);
        assert_eq!(tl.buckets.len(), 4);
        assert_eq!(tl.buckets[0].arrivals, 1);
        assert_eq!(tl.buckets[1].arrivals, 2);
        assert_eq!(tl.buckets[0].served, 1);
        assert_eq!(tl.buckets[1].rejected, 1);
        assert_eq!(tl.buckets[1].served, 1);
        assert_eq!(tl.buckets[2].pickups, 1);
        assert_eq!(tl.buckets[3].deliveries, 1);
    }

    #[test]
    fn cumulative_rate_and_peak() {
        let requests = [req(0, 0), req(1, 0), req(2, 250)];
        let events = [
            SimEvent::Assigned {
                t: 0,
                r: RequestId(0),
                w: WorkerId(0),
                delta: 1,
            },
            SimEvent::Rejected {
                t: 10,
                r: RequestId(1),
            },
            SimEvent::Assigned {
                t: 250,
                r: RequestId(2),
                w: WorkerId(0),
                delta: 1,
            },
        ];
        let tl = Timeline::build(&requests, &events, 100);
        let rates = tl.cumulative_served_rate();
        assert_eq!(rates[0], 0.5);
        assert!((rates[2] - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(tl.peak_bucket().unwrap().start, 0);
    }

    #[test]
    fn sparkline_scales() {
        let requests: Vec<Request> = (0..10).map(|i| req(i, Time::from(i) * 100)).collect();
        let tl = Timeline::build(&requests, &[], 100);
        let s = tl.arrivals_sparkline();
        assert_eq!(s.chars().count(), tl.buckets.len());
        assert!(s.chars().all(|c| c == '█'), "uniform arrivals: {s}");
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_width_rejected() {
        let _ = Timeline::build(&[], &[], 0);
    }
}
