//! The static metrics registry: one global, lazily constructed struct of
//! named metrics covering every instrumented layer (planner, oracles,
//! shard plane, ingest/WAL), plus the flight-recorder ring.
//!
//! Construction happens once, on first touch, and is the only time the
//! observability plane allocates (the ring's slot array). Every field is
//! a plain atomic primitive from [`crate::metrics`]; instrumented crates
//! reach them through [`crate::with`], which short-circuits to nothing
//! when the `URPSM_OBS` runtime gate is off.

use crate::metrics::{Counter, Gauge, HistSummary, Histogram, ShardedHistogram};
use crate::ring::{FlightRecorder, DEFAULT_RING_CAPACITY};
use crate::{text, PlanPhase};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Upper bound on per-shard labelled series (gauges/counters indexed by
/// shard id). Shards beyond this fold into the last slot.
pub const MAX_SHARDS: usize = 64;

/// Clamp a shard id into the labelled range.
#[inline]
pub fn shard_slot(shard: usize) -> usize {
    shard.min(MAX_SHARDS - 1)
}

/// Upper bound on per-vehicle-class labelled series. Classes beyond
/// this fold into the last slot (fleets carry a handful of classes).
pub const MAX_CLASSES: usize = 16;

/// Clamp a vehicle-class id into the labelled range.
#[inline]
pub fn class_slot(class: usize) -> usize {
    class.min(MAX_CLASSES - 1)
}

/// How many slots of an `n`-slot labelled array are live.
fn live_slots(live: &Gauge, n: usize) -> usize {
    (live.get() as usize).min(n)
}

/// `hits / (hits + misses)`, `0` before any traffic.
fn hit_rate(hits: &Counter, misses: &Counter) -> f64 {
    let (hits, misses) = (hits.get(), misses.get());
    match hits + misses {
        0 => 0.0,
        total => hits as f64 / total as f64,
    }
}

/// One phase's series of a per-phase family: the phase goes before the
/// unit suffix (`x_ns` → `x_bounds_ns`).
fn phase_series(family: &str, phase: PlanPhase) -> String {
    let (stem, unit) = family
        .rsplit_once('_')
        .expect("per-phase family names end in a unit");
    format!("{stem}_{}_{unit}", phase.name())
}

/// How a snapshot value renders under its key in the JSON object
/// (`"key":value,` — [`MetricsSnapshot::to_json`] drops the last comma).
trait Json {
    fn json(&self, out: &mut String, key: &str);
}

impl Json for u64 {
    fn json(&self, out: &mut String, key: &str) {
        let _ = write!(out, "\"{key}\":{self},");
    }
}

impl Json for Vec<u64> {
    fn json(&self, out: &mut String, key: &str) {
        let values: Vec<String> = self.iter().map(u64::to_string).collect();
        let _ = write!(out, "\"{key}\":[{}],", values.join(","));
    }
}

impl Json for HistSummary {
    fn json(&self, out: &mut String, key: &str) {
        let _ = write!(
            out,
            "\"{key}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},",
            self.count, self.sum, self.p50, self.p90, self.p99, self.max
        );
    }
}

impl Json for [HistSummary; PlanPhase::ALL.len()] {
    fn json(&self, out: &mut String, key: &str) {
        for (phase, hist) in PlanPhase::ALL.iter().zip(self) {
            hist.json(out, &phase_series(key, *phase));
        }
    }
}

/// Generates the whole registry surface from the table at the bottom of
/// this file: [`Registry`] (one public field per row, the help string
/// as its doc), its constructor, [`Registry::snapshot`],
/// [`MetricsSnapshot`], [`MetricsSnapshot::to_json`] and
/// [`render_prometheus`], all in table order. A row is
/// `kind name "help";` and is the only place its metric is spelled.
///
/// | kind | registry field → snapshot field | Prometheus family |
/// |---|---|---|
/// | `counter` | [`Counter`] → `u64` | counter `urpsm_<name>_total` |
/// | `gauge` | [`Gauge`] → `u64` | gauge `urpsm_<name>` |
/// | `histogram` | [`Histogram`] → [`HistSummary`] | histogram `urpsm_<name>` |
/// | `sharded_histogram` | [`ShardedHistogram`] → [`HistSummary`] | histogram `urpsm_<name>` |
/// | `sharded_histogram[PlanPhase]` | one per phase → `[HistSummary; 4]` | one histogram per phase ([`phase_series`], also its JSON keys) |
/// | `counter[N; "label"; live = g]`, `gauge[…]` | `[Counter; N]` → `Vec<u64>` of the first `g` slots | `{label="i"}` per live slot; omitted while gauge `g` is zero |
///
/// Trailing `#[text_only]` rows are labelled arrays that the registry
/// and the Prometheus text carry and the snapshot does not.
macro_rules! metrics {
    (@cell counter) => { Counter };
    (@cell gauge) => { Gauge };
    (@cell histogram) => { Histogram };
    (@cell sharded_histogram) => { ShardedHistogram };
    (@cell $kind:ident [PlanPhase]) => { [metrics!(@cell $kind); PlanPhase::ALL.len()] };
    (@cell $kind:ident [$n:ident; $($rest:tt)+]) => { [metrics!(@cell $kind); $n] };

    (@frozen counter) => { u64 };
    (@frozen gauge) => { u64 };
    (@frozen histogram) => { HistSummary };
    (@frozen sharded_histogram) => { HistSummary };
    (@frozen $kind:ident [PlanPhase]) => { [metrics!(@frozen $kind); PlanPhase::ALL.len()] };
    (@frozen $kind:ident [$n:ident; $($rest:tt)+]) => { Vec<metrics!(@frozen $kind)> };

    (@new) => { Default::default() };
    (@new [$($shape:tt)+]) => { std::array::from_fn(|_| Default::default()) };

    (@freeze $reg:ident, $cell:expr, counter) => { $cell.get() };
    (@freeze $reg:ident, $cell:expr, gauge) => { $cell.get() };
    (@freeze $reg:ident, $cell:expr, histogram) => { $cell.summary() };
    (@freeze $reg:ident, $cell:expr, sharded_histogram) => { $cell.summary() };
    (@freeze $reg:ident, $cell:expr, $kind:ident [PlanPhase]) => {
        std::array::from_fn(|phase| metrics!(@freeze $reg, $cell[phase], $kind))
    };
    (@freeze $reg:ident, $cell:expr,
     $kind:ident [$n:ident; $label:literal; live = $live:ident]) => {
        $cell[..live_slots(&$reg.$live, $n)]
            .iter()
            .map(|cell| metrics!(@freeze $reg, cell, $kind))
            .collect()
    };

    // `text::counter` and `text::gauge` are named after their kinds.
    (@text $out:ident, $reg:ident, $name:ident, $help:literal, histogram) => {
        text::histogram(&mut $out, concat!("urpsm_", stringify!($name)), $help, &$reg.$name)
    };
    (@text $out:ident, $reg:ident, $name:ident, $help:literal, sharded_histogram) => {
        text::histogram(
            &mut $out,
            concat!("urpsm_", stringify!($name)),
            $help,
            &$reg.$name.merged(),
        )
    };
    (@text $out:ident, $reg:ident, $name:ident, $help:literal, sharded_histogram [PlanPhase]) => {
        for (phase, hist) in PlanPhase::ALL.iter().zip(&$reg.$name) {
            let series = phase_series(concat!("urpsm_", stringify!($name)), *phase);
            let help = format!("{}: {}", $help, phase.name());
            text::histogram(&mut $out, &series, &help, &hist.merged());
        }
    };
    (@text $out:ident, $reg:ident, $name:ident, $help:literal, $kind:ident) => {
        text::$kind(
            &mut $out,
            concat!("urpsm_", stringify!($name)),
            $help,
            None,
            &[$reg.$name.get()],
        )
    };
    (@text $out:ident, $reg:ident, $name:ident, $help:literal,
     $kind:ident [$n:ident; $label:literal; live = $live:ident]) => {{
        let live: Vec<u64> = metrics!(@freeze $reg, $reg.$name, $kind [$n; $label; live = $live]);
        text::$kind(&mut $out, concat!("urpsm_", stringify!($name)), $help, Some($label), &live);
    }};

    (
        $( $kind:ident $([$($shape:tt)+])? $name:ident $help:literal; )*
        $( #[text_only] $tkind:ident [$($tshape:tt)+] $tname:ident $thelp:literal; )*
    ) => {
        /// Every metric the system records, by name. See DESIGN.md §11
        /// for the layout rationale.
        #[derive(Debug)]
        pub struct Registry {
            $( #[doc = $help] pub $name: metrics!(@cell $kind $([$($shape)+])?), )*
            $( #[doc = $thelp] pub $tname: metrics!(@cell $tkind [$($tshape)+]), )*
            /// The flight-recorder trace ring.
            pub ring: FlightRecorder,
        }

        impl Registry {
            fn new() -> Self {
                let ring_cap = std::env::var("URPSM_OBS_RING")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(DEFAULT_RING_CAPACITY);
                Registry {
                    $( $name: metrics!(@new $([$($shape)+])?), )*
                    $( $tname: metrics!(@new [$($tshape)+]), )*
                    ring: FlightRecorder::with_capacity(ring_cap),
                }
            }

            /// Freeze the registry into a plain-data snapshot.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $name: metrics!(@freeze self, self.$name, $kind $([$($shape)+])?), )*
                    enabled: crate::enabled(),
                    dis_cache_hit_rate: hit_rate(&self.dis_cache_hits, &self.dis_cache_misses),
                    td_dis_hit_rate: hit_rate(&self.td_dis_hits, &self.td_dis_misses),
                    trace_recorded: self.ring.recorded(),
                }
            }
        }

        /// Render the whole registry in Prometheus text exposition format.
        pub fn render_prometheus(reg: &Registry) -> String {
            let mut out = String::with_capacity(8192);
            $( metrics!(@text out, reg, $name, $help, $kind $([$($shape)+])?); )*
            $( metrics!(@text out, reg, $tname, $thelp, $tkind [$($tshape)+]); )*
            text::counter(
                &mut out,
                "urpsm_trace_recorded",
                "Flight-recorder records written",
                None,
                &[reg.ring.recorded()],
            );
            out
        }

        /// A plain-data freeze of the registry, reused by benches,
        /// experiments, and the `urpsm-serve` shutdown summary.
        /// Serialize with [`MetricsSnapshot::to_json`].
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct MetricsSnapshot {
            $( #[doc = $help] pub $name: metrics!(@frozen $kind $([$($shape)+])?), )*
            /// Whether the runtime gate was open at the freeze.
            pub enabled: bool,
            /// Static distance-cache hit rate, `hits / (hits + misses)`.
            pub dis_cache_hit_rate: f64,
            /// TD distance-cache hit rate, `hits / (hits + misses)`.
            pub td_dis_hit_rate: f64,
            /// Flight-recorder records written.
            pub trace_recorded: u64,
        }

        impl MetricsSnapshot {
            /// Render as a self-contained JSON object (no external serializer).
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(2048);
                out.push('{');
                $( self.$name.json(&mut out, stringify!($name)); )*
                let _ = write!(
                    out,
                    "\"enabled\":{},\"dis_cache_hit_rate\":{:.6},\"td_dis_hit_rate\":{:.6},\
                     \"trace_recorded\":{}}}",
                    self.enabled, self.dis_cache_hit_rate, self.td_dis_hit_rate, self.trace_recorded
                );
                out
            }
        }
    };
}

metrics! {
    // ── planner ────────────────────────────────────────────────────────
    counter plan_requests "Requests handled by the DP planners (GreedyDP / pruneGreedyDP)";
    counter plan_assigned "Requests committed to a worker";
    counter plan_rejected "Requests rejected (no feasible/economic insertion)";
    counter plan_probes "Linear-DP insertion probes executed";
    counter plan_bound_improvements "Times the Lemma-8 best-Δ bound was lowered";
    sharded_histogram plan_latency_ns "Per-request planning latency (nanoseconds)";
    sharded_histogram plan_shortlist_len "Candidates the DP engine bounded per request: eligible busy workers plus eligible idle workers in the grid cells it visited";
    counter plan_ordered_ranks "Shortlist ranks put in `(LB, worker)` order (the lazily ordered prefix of each shortlist)";
    counter plan_gate_td_misses "TD distance-cache misses incurred inside the probes' insertion gate (only concurrent `experiments --parallel` cells can share the counter)";
    sharded_histogram[PlanPhase] plan_phase_ns "Per-request wall-clock of one planning phase (nanoseconds)";

    // ── static distance oracle ─────────────────────────────────────────
    counter dis_cache_hits "Static distance-cache hits";
    counter dis_cache_misses "Static distance-cache misses";
    counter dis_cache_evictions "Static distance-cache evictions (entries cleared from a full shard)";
    counter path_queries "Static shortest-path queries answered from the labels";

    // ── time-dependent oracle ──────────────────────────────────────────
    counter td_dis_hits "TD distance-cache hits (exact in-bucket reuse)";
    counter td_dis_misses "TD distance-cache misses (including failed in-bucket reuse)";
    counter td_path_queries "TD path queries, each a TD-Dijkstra search (paths are not cached)";
    counter td_evictions "TD distance-cache evictions (entries cleared from a full map)";
    counter td_settled "Vertices settled by TD-Dijkstra searches";
    counter td_queries "TD-Dijkstra searches run";

    // ── shard plane ────────────────────────────────────────────────────
    gauge shards_live "Shards configured in the live `ShardedService` (0 = unsharded)";
    counter[MAX_SHARDS; "shard"; live = shards_live] shard_events "Events submitted to each shard";
    counter shard_handoffs "Cross-shard worker handoffs committed";
    counter borrow_probes "Borrow probes run: under `Borrow` with more than one shard, one per arriving request, before its home shard plans";
    counter borrow_wins "Borrow probes that handed a foreign worker to the home shard";

    // ── ingest / WAL ───────────────────────────────────────────────────
    counter ingest_ticks "Ingest ticks completed";
    counter ingest_admitted "Events admitted by the admission controller";
    counter ingest_deferred "Events deferred past the tick budget";
    counter ingest_shed "Events shed at the queue limit";
    gauge ingest_backlog "Total backlog at the end of the latest tick";
    gauge ingest_peak_backlog "Run-level backlog high-water mark";
    counter wal_appends "WAL records appended";
    counter wal_bytes "WAL bytes written (framing + payload)";
    counter wal_flushes "WAL flushes";
    histogram wal_flush_ns "WAL flush latency (nanoseconds)";
    counter recovery_runs "Recovery runs performed";
    counter recovery_replayed "Events replayed from the WAL during recovery";
    counter recovery_torn_tail "Recoveries that truncated a torn tail";

    // ── service / baselines / workloads ────────────────────────────────
    counter service_events "Events submitted to `MobilityService`";
    counter service_replies "Replies emitted by `MobilityService`";
    counter motion_advanced "Workers moved forward by `MobilityService` (one per worker per clock advance in which it was due)";
    counter kinetic_reorders "Kinetic-tree reorderings that beat plain insertion";
    counter batch_epochs "Batch-planner epoch flushes";
    counter workload_events "Platform events generated by workload scenarios";

    // ── vehicle classes ────────────────────────────────────────────────
    gauge classes_live "Vehicle classes in the live fleet (1 = homogeneous default)";
    counter[MAX_CLASSES; "class"; live = classes_live] class_served "Requests served, per vehicle class";
    counter[MAX_CLASSES; "class"; live = classes_live] class_driven "Distance driven per vehicle class (free-flow cost units)";

    // ── per-shard ingest series (Prometheus text only) ─────────────────
    #[text_only] gauge[MAX_SHARDS; "shard"; live = shards_live] shard_backlog "End-of-tick backlog per shard";
    #[text_only] counter[MAX_SHARDS; "shard"; live = shards_live] shard_sheds "Sheds per shard";
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry (constructed on first touch).
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_balanced_and_keyed() {
        let snap = registry().snapshot();
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        for key in [
            "plan_latency_ns",
            "plan_ordered_ranks",
            "plan_phase_shortlist_ns",
            "plan_phase_probe_ns",
            "td_dis_hit_rate",
            "wal_flush_ns",
            "shard_events",
            "class_served",
            "class_driven",
            "classes_live",
            "trace_recorded",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }
}
