//! In-memory span recorder for the traced run.
//!
//! One span per call across a layer boundary: what was called, when it
//! started and ended, which open span caused it, and the index of the
//! platform event being processed. The load is a closed loop with one
//! client, so there is one stack of open spans, kept on the thread that
//! drives the service; leaf spans (`dis`, `shortest_path`) may arrive
//! from the planner's pool threads and attach to the top of that stack.
//!
//! With the recorder off (every end-to-end measurement) `enter` is one
//! relaxed load and the oracle/planner wrappers are not installed at
//! all.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

/// What a span measures. The discriminant indexes [`Totals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// `MobilityService::submit`, called by the benchmark.
    Submit,
    /// `ShardedService::submit`, called by the benchmark.
    ShardedSubmit,
    /// `IngestServer::tick`, called by the benchmark.
    Tick,
    /// `drain()` / `finish()` of whichever service ran.
    Drain,
    /// `Planner::on_request`.
    OnRequest,
    /// `Planner::on_time`.
    OnTime,
    /// `Planner::on_cancel`.
    OnCancel,
    /// `Planner::on_worker_change`.
    OnWorkerChange,
    /// `Planner::flush`.
    Flush,
    /// The benchmark's own `candidate_workers` probe before a request
    /// is planned. Recorded so that it can be subtracted from the span
    /// around it; belongs to no layer.
    ShortlistProbe,
    /// `DistanceOracle::dis`.
    Dis,
    /// `DistanceOracle::shortest_path`.
    Path,
}

pub const KINDS: [Kind; 12] = [
    Kind::Submit,
    Kind::ShardedSubmit,
    Kind::Tick,
    Kind::Drain,
    Kind::OnRequest,
    Kind::OnTime,
    Kind::OnCancel,
    Kind::OnWorkerChange,
    Kind::Flush,
    Kind::ShortlistProbe,
    Kind::Dis,
    Kind::Path,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Submit => "submit",
            Kind::ShardedSubmit => "sharded_submit",
            Kind::Tick => "tick",
            Kind::Drain => "drain",
            Kind::OnRequest => "on_request",
            Kind::OnTime => "on_time",
            Kind::OnCancel => "on_cancel",
            Kind::OnWorkerChange => "on_worker_change",
            Kind::Flush => "flush",
            Kind::ShortlistProbe => "shortlist_probe",
            Kind::Dis => "dis",
            Kind::Path => "shortest_path",
        }
    }

    /// The repo layer (crate) whose code runs as this span's self time.
    pub fn layer(self) -> &'static str {
        match self {
            Kind::Submit | Kind::Drain => "simulator",
            // No public trait separates the layers below these two
            // calls, so their self time is the sum of what they hide.
            Kind::ShardedSubmit => "dispatch+simulator",
            Kind::Tick => "server+dispatch+simulator",
            Kind::OnRequest
            | Kind::OnTime
            | Kind::OnCancel
            | Kind::OnWorkerChange
            | Kind::Flush => "urpsm-core",
            Kind::ShortlistProbe => "benchmark",
            Kind::Dis | Kind::Path => "road-network",
        }
    }
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: u32,
    /// Index of the platform event being processed (spans of one event
    /// share it).
    pub event: u32,
}

struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    top: u32,
    event: u32,
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        let epoch = self.epoch.expect("recorder started");
        t.saturating_duration_since(epoch).as_nanos() as u64
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Recorder> = Mutex::new(Recorder {
    epoch: None,
    spans: Vec::new(),
    top: NO_PARENT,
    event: 0,
});

fn recorder() -> std::sync::MutexGuard<'static, Recorder> {
    RECORDER
        .lock()
        .expect("no thread panics while holding the recorder")
}

/// Starts recording into an empty buffer.
pub fn start() {
    let mut r = recorder();
    r.epoch = Some(Instant::now());
    r.spans.clear();
    r.top = NO_PARENT;
    r.event = 0;
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and hands the spans over.
pub fn stop() -> Vec<Span> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut recorder().spans)
}

#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the event index stamped on the spans that follow.
pub fn set_event(index: usize) {
    if enabled() {
        recorder().event = index as u32;
    }
}

/// An open span; closes when dropped.
pub struct Open(u32);

/// Opens a span under the innermost open one. Call only from the
/// thread that drives the service.
#[inline]
pub fn enter(kind: Kind) -> Open {
    if !enabled() {
        return Open(NO_PARENT);
    }
    let now = Instant::now();
    let mut r = recorder();
    let id = r.spans.len() as u32;
    let span = Span {
        kind,
        start_ns: r.ns(now),
        end_ns: 0,
        parent: r.top,
        event: r.event,
    };
    r.spans.push(span);
    r.top = id;
    Open(id)
}

impl Drop for Open {
    fn drop(&mut self) {
        if self.0 == NO_PARENT {
            return;
        }
        let now = Instant::now();
        let mut r = recorder();
        let r = &mut *r;
        // `stop()` may have taken the buffer while this span was open.
        let end = r.ns(now);
        if let Some(span) = r.spans.get_mut(self.0 as usize) {
            span.end_ns = end;
            r.top = span.parent;
        }
    }
}

/// Records a finished childless span that began at `started`, under the
/// innermost open span. Callable from any thread.
#[inline]
pub fn leaf(kind: Kind, started: Instant) {
    if !enabled() {
        return;
    }
    let now = Instant::now();
    let mut r = recorder();
    let span = Span {
        kind,
        start_ns: r.ns(started),
        end_ns: r.ns(now),
        parent: r.top,
        event: r.event,
    };
    r.spans.push(span);
}

/// Per-kind sums over a span buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotal {
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − the part of it that child spans cover).
    pub self_ns: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals([KindTotal; KINDS.len()]);

impl Totals {
    pub fn of(&self, kind: Kind) -> KindTotal {
        self.0[kind as usize]
    }

    /// Σ self time of every span kind that belongs to `layer`.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        KINDS
            .iter()
            .filter(|k| k.layer() == layer)
            .map(|&k| self.of(k).self_ns)
            .sum()
    }
}

/// Sums durations and self times per kind. Children may overlap one
/// another (two pool threads inside one `on_request`), so a parent's
/// covered time is the length of the *union* of its children's
/// intervals, clipped to the parent.
pub fn totals(spans: &[Span]) -> Totals {
    let mut covered = vec![0u64; spans.len()];
    let mut children: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| (s.parent, s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let mut i = 0;
    while i < children.len() {
        let parent = children[i].0;
        let p = &spans[parent as usize];
        let mut reach = p.start_ns;
        while i < children.len() && children[i].0 == parent {
            let (_, start, end) = children[i];
            let (start, end) = (start.max(reach), end.min(p.end_ns));
            if end > start {
                covered[parent as usize] += end - start;
                reach = end;
            }
            i += 1;
        }
    }
    let mut out = Totals::default();
    for (s, c) in spans.iter().zip(&covered) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = &mut out.0[s.kind as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(*c);
    }
    out
}

/// Writes the spans as JSON: a `kinds` table (name + layer) and one
/// `[kind, start_ns, end_ns, parent, event]` row per span, `parent`
/// being a row index or -1.
pub fn write_json(
    mut out: impl Write,
    header: &[(&str, String)],
    spans: &[Span],
) -> io::Result<()> {
    writeln!(out, "{{")?;
    for (key, value) in header {
        writeln!(out, "  {}: {},", json::quote(key), json::quote(value))?;
    }
    let kinds: Vec<String> = KINDS
        .iter()
        .map(|k| {
            format!(
                "{{\"name\": {}, \"layer\": {}}}",
                json::quote(k.name()),
                json::quote(k.layer())
            )
        })
        .collect();
    writeln!(out, "  \"kinds\": [{}],", kinds.join(", "))?;
    writeln!(
        out,
        "  \"columns\": [\"kind\", \"start_ns\", \"end_ns\", \"parent\", \"event\"],"
    )?;
    writeln!(out, "  \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "    [{}, {}, {}, {}, {}]{comma}",
            s.kind as u8, s.start_ns, s.end_ns, parent, s.event
        )?;
    }
    writeln!(out, "  ]\n}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
            event: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // submit [0,100] ⊃ on_request [10,70] ⊃ dis [20,30], dis [40,55].
        let spans = [
            span(Kind::Submit, 0, 100, NO_PARENT),
            span(Kind::OnRequest, 10, 70, 0),
            span(Kind::Dis, 20, 30, 1),
            span(Kind::Dis, 40, 55, 1),
        ];
        let t = totals(&spans);
        assert_eq!(t.of(Kind::Submit).self_ns, 40);
        assert_eq!(t.of(Kind::OnRequest).total_ns, 60);
        assert_eq!(t.of(Kind::OnRequest).self_ns, 35);
        assert_eq!(t.of(Kind::Dis).count, 2);
        assert_eq!(t.of(Kind::Dis).self_ns, 25);
        assert_eq!(t.layer_self_ns("road-network"), 25);
        assert_eq!(t.layer_self_ns("simulator"), 40);
        // Self times partition the root span.
        assert_eq!(40 + 35 + 25, 100);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two pool threads: dis [10,50] and dis [30,80] overlap; a third
        // child spills past the parent's end.
        let spans = [
            span(Kind::OnRequest, 0, 100, NO_PARENT),
            span(Kind::Dis, 10, 50, 0),
            span(Kind::Dis, 30, 80, 0),
            span(Kind::Dis, 90, 120, 0),
        ];
        let t = totals(&spans);
        // Union = [10,80] ∪ [90,100] = 80.
        assert_eq!(t.of(Kind::OnRequest).self_ns, 20);
        assert_eq!(t.of(Kind::Dis).total_ns, 40 + 50 + 30);
    }

    #[test]
    fn recorder_nests_and_stamps_events() {
        // The recorder is process-global: this is the only test that
        // turns it on.
        start();
        set_event(3);
        {
            let _submit = enter(Kind::Submit);
            {
                let _plan = enter(Kind::OnRequest);
                leaf(Kind::Dis, Instant::now());
            }
            leaf(Kind::Path, Instant::now());
        }
        set_event(4);
        drop(enter(Kind::Submit));
        let spans = stop();
        assert!(!enabled());
        let shape: Vec<(Kind, u32, u32)> =
            spans.iter().map(|s| (s.kind, s.parent, s.event)).collect();
        assert_eq!(
            shape,
            [
                (Kind::Submit, NO_PARENT, 3),
                (Kind::OnRequest, 0, 3),
                (Kind::Dis, 1, 3),
                (Kind::Path, 0, 3),
                (Kind::Submit, NO_PARENT, 4),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Off: nothing is recorded and the guard is inert.
        drop(enter(Kind::Submit));
        assert!(stop().is_empty());
    }

    #[test]
    fn trace_file_is_valid_json() {
        let spans = [
            span(Kind::Submit, 0, 9, NO_PARENT),
            span(Kind::Dis, 2, 5, 0),
        ];
        let mut buf = Vec::new();
        write_json(&mut buf, &[("workload", "w".to_string())], &spans).unwrap();
        let v = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(v.get("workload").and_then(json::Value::as_str), Some("w"));
        let json::Value::Array(rows) = v.get("spans").unwrap() else {
            panic!("spans is an array")
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[1],
            json::Value::Array(
                [10.0, 2.0, 5.0, 0.0, 0.0]
                    .into_iter()
                    .map(json::Value::Number)
                    .collect()
            )
        );
    }
}
