//! Post-hoc audit: replay the event log and re-verify every URPSM
//! constraint from scratch.
//!
//! The planners and the platform already check feasibility at commit
//! time; the audit is independent — it looks only at the *observed*
//! pickup/delivery events and the original request set, so a bug in
//! the schedule arrays, the movement model, or the commit path cannot
//! hide from it.

use road_network::fxhash::FxHashMap;
use road_network::Cost;
use urpsm_core::types::{Request, RequestId, Time, Worker, WorkerId};

use crate::SimEvent;

#[derive(Debug, Default, Clone, Copy)]
struct RequestTrace {
    assigned_to: Option<WorkerId>,
    assigned_at: Option<Time>,
    rejected: bool,
    cancelled: bool,
    pickup: Option<(Time, WorkerId)>,
    delivery: Option<(Time, WorkerId)>,
}

/// Replays `events` against `requests`/`workers` and returns every
/// constraint violation found (empty = clean run).
///
/// Checks: assignment/rejection exclusivity and completeness, pickup
/// after release, delivery by deadline, pickup before delivery by the
/// assigned worker, per-worker capacity over the event timeline, and
/// exact distance accounting over the per-worker ledgers `driven` and
/// `planned` (indexed by worker id; a worker past either ledger's end
/// is not checked, so empty ledgers check none) — both
/// `driven == planned` per worker and the replayed ledger
/// `planned == Σ assignment deltas − Σ freed` from the `Assigned` /
/// `Cancelled` / `Unassigned` events. All three quantities are
/// free-flow distances, so the ledger must balance exactly whether or
/// not a congestion profile stretched the schedules (DESIGN.md §7);
/// a cancel path that freed stretched — or stale — amounts cannot
/// hide from it.
///
/// Lifecycle events are first-class: a `Cancelled` request must never
/// have been picked up and must see no further stops; an `Unassigned`
/// strip (worker departure) legitimately re-opens the decision, so a
/// second `Assigned`/`Rejected` for that request is not a double
/// decision. `workers` must list every worker that ever joined.
pub fn audit_events(
    requests: &[Request],
    workers: &[Worker],
    events: &[SimEvent],
    driven: &[Cost],
    planned: &[Cost],
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut traces: FxHashMap<RequestId, RequestTrace> = FxHashMap::default();
    for r in requests {
        traces.insert(r.id, RequestTrace::default());
    }

    // Per-worker ordered load timeline (events arrive in pop order,
    // which is the order the vehicle visits stops).
    let mut loads: Vec<u32> = vec![0; workers.len()];
    // Per-worker planned-distance ledger replayed from the events:
    // committed deltas in, freed amounts out.
    let mut ledger: Vec<(Cost, Cost)> = vec![(0, 0); workers.len()];
    let by_id: FxHashMap<RequestId, &Request> = requests.iter().map(|r| (r.id, r)).collect();

    for ev in events {
        match *ev {
            SimEvent::Assigned { t, r, w, delta } => {
                let tr = traces.entry(r).or_default();
                if tr.assigned_to.is_some() || tr.rejected || tr.cancelled {
                    errors.push(format!("{r}: double decision"));
                }
                tr.assigned_to = Some(w);
                tr.assigned_at = Some(t);
                if let Some(l) = ledger.get_mut(w.idx()) {
                    l.0 += delta;
                }
            }
            SimEvent::Rejected { r, .. } => {
                let tr = traces.entry(r).or_default();
                if tr.assigned_to.is_some() || tr.rejected || tr.cancelled {
                    errors.push(format!("{r}: double decision"));
                }
                tr.rejected = true;
            }
            SimEvent::Cancelled { t, r, freed } => {
                let tr = traces.entry(r).or_default();
                if tr.pickup.is_some() {
                    errors.push(format!("{r}: cancelled at t={t} after pickup"));
                }
                if tr.cancelled {
                    errors.push(format!("{r}: cancelled twice"));
                }
                match tr.assigned_to {
                    Some(w) => {
                        if let Some(l) = ledger.get_mut(w.idx()) {
                            l.1 += freed;
                        }
                    }
                    None if freed != 0 => {
                        errors.push(format!(
                            "{r}: cancelled at t={t} freed {freed} without assignment"
                        ));
                    }
                    None => {}
                }
                tr.cancelled = true;
                // The prior assignment (if any) is void.
                tr.assigned_to = None;
                tr.assigned_at = None;
            }
            SimEvent::Unassigned { t, r, w, freed } => {
                let tr = traces.entry(r).or_default();
                if tr.assigned_to != Some(w) {
                    errors.push(format!(
                        "{r}: unassigned at t={t} from {w} without assignment"
                    ));
                }
                if tr.pickup.is_some() {
                    errors.push(format!("{r}: unassigned at t={t} after pickup"));
                }
                if let Some(l) = ledger.get_mut(w.idx()) {
                    l.1 += freed;
                }
                // The decision is re-opened; a fresh one must follow.
                tr.assigned_to = None;
                tr.assigned_at = None;
            }
            SimEvent::WorkerJoined { .. } | SimEvent::WorkerLeft { .. } => {}
            SimEvent::Pickup { t, r, w } => {
                let tr = traces.entry(r).or_default();
                if tr.pickup.is_some() {
                    errors.push(format!("{r}: picked up twice"));
                }
                tr.pickup = Some((t, w));
                if let Some(req) = by_id.get(&r) {
                    loads[w.idx()] += req.capacity;
                    if loads[w.idx()] > workers[w.idx()].capacity {
                        errors.push(format!(
                            "{w}: capacity exceeded at t={t} ({} > {})",
                            loads[w.idx()],
                            workers[w.idx()].capacity
                        ));
                    }
                }
            }
            SimEvent::Delivery { t, r, w } => {
                let tr = traces.entry(r).or_default();
                if tr.delivery.is_some() {
                    errors.push(format!("{r}: delivered twice"));
                }
                tr.delivery = Some((t, w));
                if let Some(req) = by_id.get(&r) {
                    loads[w.idx()] = loads[w.idx()].saturating_sub(req.capacity);
                }
            }
        }
    }

    for r in requests {
        let tr = &traces[&r.id];
        if tr.cancelled {
            // Terminal state: whatever was planned has been released;
            // any later stop is a violation (pickup-after-cancel was
            // flagged in the event pass).
            if tr.delivery.is_some() {
                errors.push(format!("{}: cancelled but delivered", r.id));
            }
            continue;
        }
        match (tr.assigned_to, tr.rejected) {
            (None, false) => errors.push(format!("{}: no decision recorded", r.id)),
            (Some(_), true) => errors.push(format!("{}: both assigned and rejected", r.id)),
            (None, true) => {
                if tr.pickup.is_some() || tr.delivery.is_some() {
                    errors.push(format!("{}: rejected but has stops", r.id));
                }
            }
            (Some(w), false) => match (tr.pickup, tr.delivery) {
                (Some((tp, wp)), Some((td, wd))) => {
                    if wp != w || wd != w {
                        errors.push(format!("{}: served by wrong worker", r.id));
                    }
                    if tp < r.release {
                        errors.push(format!(
                            "{}: picked up at {tp} before release {}",
                            r.id, r.release
                        ));
                    }
                    if td > r.deadline {
                        errors.push(format!(
                            "{}: delivered at {td} after deadline {}",
                            r.id, r.deadline
                        ));
                    }
                    if tp > td {
                        errors.push(format!("{}: delivery before pickup", r.id));
                    }
                }
                _ => errors.push(format!("{}: assigned but not completed", r.id)),
            },
        }
    }

    for (i, (d, p)) in driven.iter().zip(planned).enumerate() {
        if d != p {
            errors.push(format!("w{i}: driven distance {d} != planned distance {p}"));
        }
        let (deltas, freed) = ledger[i];
        let expected = deltas.saturating_sub(freed);
        if *p != expected {
            errors.push(format!(
                "w{i}: ledger mismatch: planned {p} != Σ deltas {deltas} − Σ freed {freed}"
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::VertexId;

    fn req(id: u32, release: Time, deadline: Time) -> Request {
        Request {
            class: Default::default(),
            id: RequestId(id),
            origin: VertexId(0),
            destination: VertexId(1),
            release,
            deadline,
            penalty: 1,
            capacity: 1,
        }
    }

    fn worker(cap: u32) -> Worker {
        Worker {
            class: Default::default(),
            id: WorkerId(0),
            origin: VertexId(0),
            capacity: cap,
        }
    }

    #[test]
    fn clean_run_passes() {
        let rs = [req(1, 0, 1_000)];
        let ws = [worker(4)];
        let evs = [
            SimEvent::Assigned {
                t: 0,
                r: RequestId(1),
                w: WorkerId(0),
                delta: 10,
            },
            SimEvent::Pickup {
                t: 100,
                r: RequestId(1),
                w: WorkerId(0),
            },
            SimEvent::Delivery {
                t: 200,
                r: RequestId(1),
                w: WorkerId(0),
            },
        ];
        assert!(audit_events(&rs, &ws, &evs, &[], &[]).is_empty());
    }

    #[test]
    fn catches_deadline_violation() {
        let rs = [req(1, 0, 150)];
        let ws = [worker(4)];
        let evs = [
            SimEvent::Assigned {
                t: 0,
                r: RequestId(1),
                w: WorkerId(0),
                delta: 10,
            },
            SimEvent::Pickup {
                t: 100,
                r: RequestId(1),
                w: WorkerId(0),
            },
            SimEvent::Delivery {
                t: 200,
                r: RequestId(1),
                w: WorkerId(0),
            },
        ];
        let errs = audit_events(&rs, &ws, &evs, &[], &[]);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("after deadline"));
    }

    #[test]
    fn catches_capacity_violation() {
        let rs = [req(1, 0, 10_000), req(2, 0, 10_000)];
        let ws = [worker(1)];
        let evs = [
            SimEvent::Assigned {
                t: 0,
                r: RequestId(1),
                w: WorkerId(0),
                delta: 1,
            },
            SimEvent::Assigned {
                t: 0,
                r: RequestId(2),
                w: WorkerId(0),
                delta: 1,
            },
            SimEvent::Pickup {
                t: 10,
                r: RequestId(1),
                w: WorkerId(0),
            },
            SimEvent::Pickup {
                t: 20,
                r: RequestId(2),
                w: WorkerId(0),
            },
            SimEvent::Delivery {
                t: 30,
                r: RequestId(1),
                w: WorkerId(0),
            },
            SimEvent::Delivery {
                t: 40,
                r: RequestId(2),
                w: WorkerId(0),
            },
        ];
        let errs = audit_events(&rs, &ws, &evs, &[], &[]);
        assert!(errs.iter().any(|e| e.contains("capacity exceeded")));
    }

    #[test]
    fn catches_unfinished_assignment_and_missing_decision() {
        let rs = [req(1, 0, 10_000), req(2, 0, 10_000)];
        let ws = [worker(4)];
        let evs = [SimEvent::Assigned {
            t: 0,
            r: RequestId(1),
            w: WorkerId(0),
            delta: 1,
        }];
        let errs = audit_events(&rs, &ws, &evs, &[], &[]);
        assert!(errs.iter().any(|e| e.contains("not completed")));
        assert!(errs.iter().any(|e| e.contains("no decision")));
    }

    #[test]
    fn catches_distance_mismatch() {
        let rs: [Request; 0] = [];
        let ws = [worker(4)];
        let errs = audit_events(&rs, &ws, &[], &[100], &[90]);
        assert!(errs[0].contains("driven distance"));
    }

    #[test]
    fn ledger_balances_deltas_against_freed() {
        // Assigned 10 + 30, cancellation frees 25 (a real pooling
        // cancel frees less than its own delta): planned must be 15.
        let rs = [req(1, 0, 10_000), req(2, 0, 10_000)];
        let ws = [worker(4)];
        let evs = [
            SimEvent::Assigned {
                t: 0,
                r: RequestId(1),
                w: WorkerId(0),
                delta: 10,
            },
            SimEvent::Assigned {
                t: 0,
                r: RequestId(2),
                w: WorkerId(0),
                delta: 30,
            },
            SimEvent::Cancelled {
                t: 50,
                r: RequestId(2),
                freed: 25,
            },
            SimEvent::Pickup {
                t: 100,
                r: RequestId(1),
                w: WorkerId(0),
            },
            SimEvent::Delivery {
                t: 200,
                r: RequestId(1),
                w: WorkerId(0),
            },
        ];
        assert!(audit_events(&rs, &ws, &evs, &[15], &[15]).is_empty());
        // A freed amount the routes never returned breaks the ledger —
        // this is what pins the cancel path under congestion: freed is
        // a free-flow distance, never a stretched time.
        let errs = audit_events(&rs, &ws, &evs, &[20], &[20]);
        assert!(
            errs.iter().any(|e| e.contains("ledger mismatch")),
            "{errs:?}"
        );
        // Freeing distance on a never-assigned request is flagged too.
        let evs = [SimEvent::Cancelled {
            t: 5,
            r: RequestId(1),
            freed: 7,
        }];
        let errs = audit_events(&rs, &ws, &evs, &[], &[]);
        assert!(errs.iter().any(|e| e.contains("without assignment")));
    }

    #[test]
    fn cancellation_lifecycle_is_clean() {
        let rs = [req(1, 0, 10_000)];
        let ws = [worker(4)];
        let evs = [
            SimEvent::Assigned {
                t: 0,
                r: RequestId(1),
                w: WorkerId(0),
                delta: 10,
            },
            SimEvent::Cancelled {
                t: 50,
                r: RequestId(1),
                freed: 10,
            },
        ];
        assert!(audit_events(&rs, &ws, &evs, &[], &[]).is_empty());
    }

    #[test]
    fn catches_pickup_after_cancel_and_cancelled_delivery() {
        let rs = [req(1, 0, 10_000)];
        let ws = [worker(4)];
        let evs = [
            SimEvent::Assigned {
                t: 0,
                r: RequestId(1),
                w: WorkerId(0),
                delta: 10,
            },
            SimEvent::Pickup {
                t: 20,
                r: RequestId(1),
                w: WorkerId(0),
            },
            SimEvent::Cancelled {
                t: 50,
                r: RequestId(1),
                freed: 10,
            },
            SimEvent::Delivery {
                t: 70,
                r: RequestId(1),
                w: WorkerId(0),
            },
        ];
        let errs = audit_events(&rs, &ws, &evs, &[], &[]);
        assert!(errs.iter().any(|e| e.contains("after pickup")));
        assert!(errs.iter().any(|e| e.contains("cancelled but delivered")));
    }

    #[test]
    fn unassign_reopens_the_decision() {
        let rs = [req(1, 0, 10_000)];
        let ws = [
            worker(4),
            Worker {
                class: Default::default(),
                id: WorkerId(1),
                origin: VertexId(0),
                capacity: 4,
            },
        ];
        let evs = [
            SimEvent::Assigned {
                t: 0,
                r: RequestId(1),
                w: WorkerId(0),
                delta: 10,
            },
            SimEvent::WorkerLeft {
                t: 5,
                w: WorkerId(0),
            },
            SimEvent::Unassigned {
                t: 5,
                r: RequestId(1),
                w: WorkerId(0),
                freed: 10,
            },
            SimEvent::Assigned {
                t: 5,
                r: RequestId(1),
                w: WorkerId(1),
                delta: 12,
            },
            SimEvent::Pickup {
                t: 100,
                r: RequestId(1),
                w: WorkerId(1),
            },
            SimEvent::Delivery {
                t: 200,
                r: RequestId(1),
                w: WorkerId(1),
            },
        ];
        assert!(audit_events(&rs, &ws, &evs, &[], &[]).is_empty());

        // Without the Unassigned strip, the re-decision is illegal.
        let evs_bad = [
            SimEvent::Assigned {
                t: 0,
                r: RequestId(1),
                w: WorkerId(0),
                delta: 10,
            },
            SimEvent::Assigned {
                t: 5,
                r: RequestId(1),
                w: WorkerId(1),
                delta: 12,
            },
        ];
        let errs = audit_events(&rs, &ws, &evs_bad, &[], &[]);
        assert!(errs.iter().any(|e| e.contains("double decision")));
    }

    #[test]
    fn catches_unassign_without_assignment() {
        let rs = [req(1, 0, 10_000)];
        let ws = [worker(4)];
        let evs = [SimEvent::Unassigned {
            t: 5,
            r: RequestId(1),
            w: WorkerId(0),
            freed: 0,
        }];
        let errs = audit_events(&rs, &ws, &evs, &[], &[]);
        assert!(errs.iter().any(|e| e.contains("without assignment")));
    }

    #[test]
    fn catches_rejected_with_stops() {
        let rs = [req(1, 0, 10_000)];
        let ws = [worker(4)];
        let evs = [
            SimEvent::Rejected {
                t: 0,
                r: RequestId(1),
            },
            SimEvent::Pickup {
                t: 5,
                r: RequestId(1),
                w: WorkerId(0),
            },
        ];
        let errs = audit_events(&rs, &ws, &evs, &[], &[]);
        assert!(errs.iter().any(|e| e.contains("rejected but has stops")));
    }
}
