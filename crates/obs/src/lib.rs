//! `urpsm-obs` — the observability plane: a dependency-free metrics
//! registry plus a lock-free flight recorder.
//!
//! # Design (see DESIGN.md §11)
//!
//! - **Static registry.** One global [`Registry`] of named
//!   relaxed-atomic counters, gauges, and log-scale histograms
//!   ([`registry()`]). Constructed lazily on first touch; that
//!   construction (plus the trace ring's slot array) is the *only*
//!   allocation the enabled plane ever performs.
//! - **Flight recorder.** A lock-free overwrite-on-wrap ring of
//!   fixed-size [`TraceEvent`] records ([`FlightRecorder`]), dumpable as
//!   JSON on demand or on panic ([`install_panic_hook`]).
//! - **Two gates.** Every instrumentation site routes through [`with`]
//!   (or a [`Stopwatch`] / [`PhaseClock`]). Without this crate's `record`
//!   feature [`RECORDING`] is `false`, [`enabled`] is the constant
//!   `false`, and every site is type-checked and then removed as dead
//!   code; with it, a site costs a single relaxed load + branch while the
//!   `URPSM_OBS` runtime gate is off.
//!
//! # Runtime gate
//!
//! `URPSM_OBS=1` (any non-empty value other than `0`) enables recording;
//! unset or `0` disables it. The environment is read once, on the first
//! [`enabled`] call; binaries can override programmatically with
//! [`set_enabled`] (e.g. `urpsm-serve --metrics-file` force-enables).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod ring;
pub mod text;

pub use metrics::{Counter, Gauge, HistSummary, Histogram};
pub use registry::{
    class_slot, registry, render_prometheus, MetricsSnapshot, Registry, MAX_CLASSES, MAX_SHARDS,
};
pub use ring::{FlightRecorder, TraceEvent, TraceKind};
pub use text::check_exposition;

use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::time::Instant;

/// Tri-state runtime gate: 0 = not yet read from env, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

#[cold]
fn init_enabled_from_env() -> bool {
    let on = std::env::var("URPSM_OBS")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    ENABLED.store(if on { 2 } else { 1 }, Relaxed);
    on
}

/// The compile-time switch: whether this build records at all (cargo
/// feature `record`, spelled `urpsm/obs` on the facade). The one
/// condition instrumented crates may branch on, for work that only
/// feeds a [`with`] site.
pub const RECORDING: bool = cfg!(feature = "record");

/// Is recording enabled? Constant `false` unless [`RECORDING`]; else the
/// first call reads `URPSM_OBS` and later calls are a single relaxed
/// load.
#[inline]
pub fn enabled() -> bool {
    RECORDING
        && match ENABLED.load(Relaxed) {
            2 => true,
            1 => false,
            _ => init_enabled_from_env(),
        }
}

/// Programmatically force the runtime gate on or off (wins over the
/// environment; used by `urpsm-serve --metrics-file`). Opens nothing
/// in a build without [`RECORDING`].
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Relaxed);
}

/// Run `f` against the global registry iff recording is enabled. This is
/// the one entry point instrumentation sites use; when the gate is off
/// it costs a relaxed load and a predicted branch.
#[inline]
pub fn with<F: FnOnce(&'static Registry)>(f: F) {
    if enabled() {
        f(registry());
    }
}

/// A gate-aware wall-clock timer for latency histograms: holds a start
/// instant only when recording was enabled at start, so the disabled
/// path never touches the clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Start timing (no-op when the runtime gate is off).
    #[inline]
    pub fn start() -> Self {
        Stopwatch(if enabled() {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Elapsed nanoseconds, if the gate was on at start.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0
            .map(|t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    }
}

/// The phases of one DP-planner `plan` call, in journey order: the
/// grid + class shortlist, the Algo. 4 lower bounds, ordering the
/// `(LB, worker)` ranks the scan reads, and the exact probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPhase {
    /// `candidate_workers`: grid reachability joined with the class filter.
    Shortlist,
    /// `insertion_lower_bound` over every eligible worker.
    Bounds,
    /// Ordering shortlist ranks ascending by `(LB, worker)`.
    Order,
    /// The Lemma-8 scan of exact linear-DP probes.
    Probe,
}

impl PlanPhase {
    /// Every phase, in slot order.
    pub const ALL: [PlanPhase; 4] = [
        PlanPhase::Shortlist,
        PlanPhase::Bounds,
        PlanPhase::Order,
        PlanPhase::Probe,
    ];

    /// The phase's name in metric keys (`plan_phase_<name>_ns`).
    pub const fn name(self) -> &'static str {
        match self {
            PlanPhase::Shortlist => "shortlist",
            PlanPhase::Bounds => "bounds",
            PlanPhase::Order => "order",
            PlanPhase::Probe => "probe",
        }
    }
}

/// A gate-aware lap timer over the [`PlanPhase`]s of one request: each
/// [`PhaseClock::lap`] charges the wall-clock since the previous lap to
/// one phase (a phase entered twice accumulates). Like [`Stopwatch`] it
/// never touches the clock when the runtime gate was off at
/// [`PhaseClock::restart`]; the default clock is stopped.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseClock {
    last: Option<Instant>,
    ns: [u64; PlanPhase::ALL.len()],
}

impl PhaseClock {
    /// Zero every phase and start timing a new request (stays stopped
    /// when the runtime gate is off).
    #[inline]
    pub fn restart(&mut self) {
        self.last = enabled().then(Instant::now);
        self.ns = [0; PlanPhase::ALL.len()];
    }

    /// Charge the time since the previous lap (or the start) to `phase`.
    #[inline]
    pub fn lap(&mut self, phase: PlanPhase) {
        if let Some(last) = self.last {
            let now = Instant::now();
            self.ns[phase as usize] += (now - last).as_nanos().min(u64::MAX as u128) as u64;
            self.last = Some(now);
        }
    }

    /// Record one sample per phase (zero for a phase never reached), if
    /// the clock is running.
    pub fn record_into(&self, hists: &[Histogram; PlanPhase::ALL.len()]) {
        if self.last.is_some() {
            for (hist, &ns) in hists.iter().zip(&self.ns) {
                hist.record(ns);
            }
        }
    }
}

/// Install a panic hook that dumps the flight recorder (JSON, most
/// recent events) to stderr before delegating to the previous hook.
/// Idempotent; only dumps when the runtime gate is on at panic time.
pub fn install_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if enabled() {
                eprintln!(
                    "urpsm-obs: flight recorder dump ({} events retained):",
                    registry().ring.events().len()
                );
                eprintln!("{}", registry().ring.dump_json());
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles() {
        // workload_events is not touched by any other test in this crate,
        // so parallel test threads cannot perturb the before/after reads.
        let before = registry().workload_events.get();
        let assert_closed = || {
            assert!(!enabled());
            with(|m| m.workload_events.inc());
            assert_eq!(registry().workload_events.get(), before);
            assert!(Stopwatch::start().elapsed_ns().is_none());
            let mut clock = PhaseClock::default();
            clock.restart();
            clock.lap(PlanPhase::Order);
            assert!(clock.last.is_none(), "gate off: the clock is never read");
        };
        set_enabled(false);
        assert_closed();
        set_enabled(true);
        if !RECORDING {
            // Compiled out: the runtime gate opens nothing.
            assert_closed();
            return;
        }
        assert!(enabled());
        with(|m| m.workload_events.inc());
        assert_eq!(registry().workload_events.get(), before + 1);
        assert!(Stopwatch::start().elapsed_ns().is_some());
        let mut clock = PhaseClock::default();
        clock.restart();
        std::thread::sleep(std::time::Duration::from_millis(1));
        clock.lap(PlanPhase::Order);
        assert!(clock.ns[PlanPhase::Order as usize] >= 1_000_000);
        assert_eq!(clock.ns[PlanPhase::Probe as usize], 0);
        set_enabled(false);
    }
}
