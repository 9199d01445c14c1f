//! Admission control for the ingestion plane: per-shard queue depth
//! bounds and tick budgets (DESIGN.md §9).
//!
//! The ingestion server micro-batches its input per tick and asks this
//! controller, event by event *in the deterministic drain order*, what
//! to do with each one:
//!
//! * **Admit** — the home shard still has tick budget: submit the
//!   event now.
//! * **Defer** — the shard exhausted its budget this tick (it "fell
//!   behind"). The event stays queued for the next tick, and — to
//!   preserve per-shard event order — every later event of the same
//!   shard in this tick is deferred too.
//! * **Shed** — the shard's backlog already sits at its queue-depth
//!   bound and the event is a *new arrival*: reject it outright with an
//!   explicit `Overloaded` reply instead of queueing it. Only arrivals
//!   are shed; cancellations, fleet events and ticks always stay
//!   queued (dropping a cancellation would strand capacity, and fleet
//!   membership is ground truth, not demand).
//!
//! Every decision is a pure function of the event sequence and the two
//! bounds — no wall clock, no thread timing — so an overloaded run is
//! exactly as deterministic as an idle one. The controller is all
//! counters: the actual queue lives in the ingestion server; this type
//! owns the *policy* and the lag metrics surfaced per tick.

/// The verdict for one event at its home shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Submit now: the shard has tick budget left.
    Admit,
    /// Queue for the next tick: the shard fell behind its budget.
    Defer,
    /// Reject with `Overloaded`: the shard's backlog is at its bound
    /// and this is a new arrival.
    Shed,
}

/// Bounds of the admission policy. The defaults are both unbounded —
/// admission control is opt-in; an unconfigured server is byte-identical
/// to a plain service fed the same stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum *deferred* events a shard may hold before new arrivals
    /// are shed (the bounded queue depth).
    pub queue_limit: usize,
    /// Maximum events a shard may apply per tick (the tick budget).
    pub tick_budget: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_limit: usize::MAX,
            tick_budget: usize::MAX,
        }
    }
}

/// Per-shard load gauges.
#[derive(Debug, Default, Clone, Copy)]
struct ShardGauge {
    /// Events applied in the current tick.
    applied_this_tick: usize,
    /// Once a shard defers one event in a tick, every later event of
    /// the same shard must defer too (order preservation).
    blocked: bool,
    /// Events currently deferred (the bounded queue's depth).
    backlog: usize,
    /// High-water mark of `backlog` over the run.
    peak_backlog: usize,
    /// High-water mark of `backlog` within the current tick (reset by
    /// `begin_tick` to the carried-in backlog).
    tick_peak: usize,
    /// Lifetime arrivals shed.
    shed: u64,
}

/// The deterministic admission controller: policy + gauges for `K`
/// shards (a single-service backend is `K = 1`).
#[derive(Debug, Clone)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    shards: Vec<ShardGauge>,
}

impl AdmissionController {
    /// A controller over `shards` shards (clamped to ≥ 1).
    pub fn new(shards: usize, cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            shards: vec![ShardGauge::default(); shards.max(1)],
        }
    }

    /// Number of shards tracked.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Opens a new tick: budgets refill, order blocks lift. Backlog
    /// gauges persist — deferred events are still queued.
    pub fn begin_tick(&mut self) {
        for g in &mut self.shards {
            g.applied_this_tick = 0;
            g.blocked = false;
            g.tick_peak = g.backlog;
        }
    }

    /// Decides one event routed to `shard` (`None` = broadcast), in
    /// drain order. `new_arrival` marks events eligible for shedding —
    /// request arrivals on their *first* presentation; an arrival that
    /// was already deferred sits in the bounded queue and is never shed
    /// afterwards. `queued` marks a re-presented event that a previous
    /// tick deferred: it leaves the backlog gauge while being
    /// re-evaluated (and re-enters it if deferred again). The
    /// controller updates its gauges to match the verdict; the caller
    /// must honor it.
    ///
    /// A broadcast admits only while *no* shard is blocked (it would
    /// otherwise overtake a deferred event on the blocked shard) and
    /// charges every shard's budget.
    pub fn classify(&mut self, shard: Option<usize>, new_arrival: bool, queued: bool) -> Admission {
        match shard {
            Some(s) => {
                let budget = self.cfg.tick_budget;
                let limit = self.cfg.queue_limit;
                let g = &mut self.shards[s];
                if queued {
                    g.backlog = g.backlog.saturating_sub(1);
                }
                if !g.blocked && g.applied_this_tick < budget {
                    g.applied_this_tick += 1;
                    Admission::Admit
                } else {
                    g.blocked = true;
                    if new_arrival && g.backlog >= limit {
                        g.shed += 1;
                        Admission::Shed
                    } else {
                        g.backlog += 1;
                        g.peak_backlog = g.peak_backlog.max(g.backlog);
                        g.tick_peak = g.tick_peak.max(g.backlog);
                        Admission::Defer
                    }
                }
            }
            None => {
                let clear = self.shards.iter().all(|g| !g.blocked)
                    && self
                        .shards
                        .iter()
                        .all(|g| g.applied_this_tick < self.cfg.tick_budget);
                if clear {
                    for g in &mut self.shards {
                        g.applied_this_tick += 1;
                    }
                    Admission::Admit
                } else {
                    for g in &mut self.shards {
                        g.blocked = true;
                    }
                    // Broadcasts are never shed; they carry no demand.
                    Admission::Defer
                }
            }
        }
    }

    /// Total events currently deferred across all shards (the lag the
    /// per-tick report surfaces).
    pub fn backlog(&self) -> usize {
        self.shards.iter().map(|g| g.backlog).sum()
    }

    /// High-water mark of any shard's backlog over the whole run —
    /// with a finite `queue_limit` this never exceeds `queue_limit`
    /// (the bound the overload test pins).
    pub fn peak_backlog(&self) -> usize {
        self.shards
            .iter()
            .map(|g| g.peak_backlog)
            .max()
            .unwrap_or(0)
    }

    /// High-water mark of any shard's backlog *within the current tick*
    /// (resets at `begin_tick` to the carried-in backlog). Always ≤
    /// [`Self::peak_backlog`].
    pub fn tick_peak_backlog(&self) -> usize {
        self.shards.iter().map(|g| g.tick_peak).max().unwrap_or(0)
    }

    /// Current deferred depth of one shard.
    pub fn shard_backlog(&self, shard: usize) -> usize {
        self.shards.get(shard).map_or(0, |g| g.backlog)
    }

    /// Lifetime arrivals shed, summed over shards.
    pub fn total_shed(&self) -> u64 {
        self.shards.iter().map(|g| g.shed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_defaults_admit_everything() {
        let mut ac = AdmissionController::new(2, AdmissionConfig::default());
        ac.begin_tick();
        for _ in 0..1_000 {
            assert_eq!(ac.classify(Some(0), true, false), Admission::Admit);
            assert_eq!(ac.classify(Some(1), false, false), Admission::Admit);
            assert_eq!(ac.classify(None, false, false), Admission::Admit);
        }
        assert_eq!(ac.backlog(), 0);
        assert_eq!(ac.total_shed(), 0);
    }

    #[test]
    fn tick_budget_defers_and_preserves_shard_order() {
        let mut ac = AdmissionController::new(
            2,
            AdmissionConfig {
                queue_limit: usize::MAX,
                tick_budget: 2,
            },
        );
        ac.begin_tick();
        assert_eq!(ac.classify(Some(0), true, false), Admission::Admit);
        assert_eq!(ac.classify(Some(0), true, false), Admission::Admit);
        // Budget exhausted: defer — and every later shard-0 event too,
        // even though nothing about *it* is over budget yet.
        assert_eq!(ac.classify(Some(0), false, false), Admission::Defer);
        assert_eq!(ac.classify(Some(0), true, false), Admission::Defer);
        // Shard 1 is unaffected.
        assert_eq!(ac.classify(Some(1), true, false), Admission::Admit);
        assert_eq!(ac.backlog(), 2);

        // Next tick: the budget refills and the re-presented backlog
        // drains (queued = true).
        ac.begin_tick();
        assert_eq!(ac.classify(Some(0), false, true), Admission::Admit);
        assert_eq!(ac.classify(Some(0), false, true), Admission::Admit);
        assert_eq!(ac.backlog(), 0);
    }

    #[test]
    fn queue_limit_sheds_new_arrivals_only() {
        let mut ac = AdmissionController::new(
            1,
            AdmissionConfig {
                queue_limit: 2,
                tick_budget: 1,
            },
        );
        ac.begin_tick();
        assert_eq!(ac.classify(Some(0), true, false), Admission::Admit);
        assert_eq!(ac.classify(Some(0), true, false), Admission::Defer); // backlog 1
        assert_eq!(ac.classify(Some(0), true, false), Admission::Defer); // backlog 2 = limit
                                                                         // At the bound: arrivals shed, non-demand events still queue.
        assert_eq!(ac.classify(Some(0), true, false), Admission::Shed);
        assert_eq!(ac.classify(Some(0), false, false), Admission::Defer);
        assert_eq!(ac.total_shed(), 1);
        // The bound held: backlog peaked at limit + the one non-arrival.
        assert!(ac.peak_backlog() <= 3);

        // Re-presenting the deferred events does not double-count: each
        // leaves the gauge while re-evaluated and re-enters on defer.
        ac.begin_tick();
        assert_eq!(ac.classify(Some(0), false, true), Admission::Admit);
        assert_eq!(ac.classify(Some(0), false, true), Admission::Defer);
        assert_eq!(ac.classify(Some(0), false, true), Admission::Defer);
        assert_eq!(ac.backlog(), 2);
    }

    #[test]
    fn tick_peak_resets_per_tick_and_never_exceeds_run_peak() {
        let mut ac = AdmissionController::new(
            1,
            AdmissionConfig {
                queue_limit: usize::MAX,
                tick_budget: 1,
            },
        );
        // Tick 1: one admit, three defers → within-tick peak 3.
        ac.begin_tick();
        for i in 0..4 {
            let _ = ac.classify(Some(0), i == 0, false);
        }
        assert_eq!(ac.tick_peak_backlog(), 3);
        assert_eq!(ac.peak_backlog(), 3);
        // Tick 2: the backlog drains by one (budget 1) and nothing new
        // defers past the carry-in — the per-tick peak is the carried-in
        // backlog, while the run-level peak stays at 3.
        ac.begin_tick();
        assert_eq!(ac.classify(Some(0), false, true), Admission::Admit);
        assert_eq!(ac.classify(Some(0), false, true), Admission::Defer);
        assert_eq!(ac.classify(Some(0), false, true), Admission::Defer);
        assert_eq!(ac.tick_peak_backlog(), 3); // carry-in was 3
        ac.begin_tick();
        assert_eq!(ac.classify(Some(0), false, true), Admission::Admit);
        assert_eq!(ac.classify(Some(0), false, true), Admission::Defer);
        assert_eq!(ac.tick_peak_backlog(), 2, "per-tick peak shrinks");
        assert_eq!(ac.peak_backlog(), 3, "run-level peak persists");
        assert!(ac.tick_peak_backlog() <= ac.peak_backlog());
    }

    #[test]
    fn broadcasts_wait_for_every_shard() {
        let mut ac = AdmissionController::new(
            2,
            AdmissionConfig {
                queue_limit: usize::MAX,
                tick_budget: 1,
            },
        );
        ac.begin_tick();
        assert_eq!(ac.classify(None, false, false), Admission::Admit); // charges both
        assert_eq!(ac.classify(Some(0), true, false), Admission::Defer); // budget gone
                                                                         // Shard 0 is blocked, so the broadcast may not overtake.
        assert_eq!(ac.classify(None, false, false), Admission::Defer);
        // And it blocked shard 1 as well (order across the broadcast).
        assert_eq!(ac.classify(Some(1), true, false), Admission::Defer);
    }
}
