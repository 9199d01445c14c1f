//! The mpsc ingestion front-end: producers → sequence stamps → server
//! (DESIGN.md §9).
//!
//! Any number of producer threads push [`PlatformEvent`]s through
//! cloned [`ProducerHandle`]s. Each send stamps the event with the next
//! value of a shared atomic counter *at enqueue time*; the server
//! drains the channel per tick and sorts the batch by
//! [`StampedEvent::order_key`], `(time, tie_rank, seq)`. Because every
//! stamp is unique, that key is a total order — the drained batch is
//! *identical* no matter how many threads produced it or how their
//! sends interleaved, which is what makes a threaded-producer run
//! byte-identical to a single-producer run.
//!
//! The channel itself is unbounded on purpose: blocking a producer on a
//! full channel would make admission depend on thread timing.
//! Backpressure is instead applied *deterministically* downstream by
//! the [`urpsm_dispatch::admission::AdmissionController`], as a pure
//! function of the stamped event sequence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SendError, Sender};
use std::sync::Arc;

use urpsm_core::event::PlatformEvent;
use urpsm_core::types::Time;

/// An event plus its ingestion sequence stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampedEvent {
    /// Position in the global arrival order (unique per run).
    pub seq: u64,
    /// The event itself.
    pub event: PlatformEvent,
}

impl StampedEvent {
    /// The canonical ingestion order, `(time, tie_rank, seq)`: the one
    /// key the server sorts every drained batch by. Unique stamps make
    /// it a total order, so a sorted batch is independent of producer
    /// interleaving.
    #[inline]
    pub fn order_key(&self) -> (Time, u8, u64) {
        (self.event.time(), self.event.tie_rank(), self.seq)
    }
}

/// A clonable producer endpoint. Dropping every handle closes the
/// channel, which the server treats as end of input.
#[derive(Debug, Clone)]
pub struct ProducerHandle {
    tx: Sender<StampedEvent>,
    next_seq: Arc<AtomicU64>,
}

impl ProducerHandle {
    /// Stamps `event` with the next global sequence number and sends
    /// it. Returns the stamp, or the event back if the server side has
    /// hung up.
    pub fn send(&self, event: PlatformEvent) -> Result<u64, SendError<PlatformEvent>> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(StampedEvent { seq, event })
            .map(|()| seq)
            .map_err(|SendError(s)| SendError(s.event))
    }

    /// Sends an event under a caller-chosen stamp. For replay drivers
    /// that partition a pre-stamped stream across threads — stamps must
    /// stay unique or the drain order is no longer total.
    pub fn send_stamped(
        &self,
        seq: u64,
        event: PlatformEvent,
    ) -> Result<(), SendError<PlatformEvent>> {
        self.tx
            .send(StampedEvent { seq, event })
            .map_err(|SendError(s)| SendError(s.event))
    }
}

/// Creates the ingestion channel, with stamps starting at `first_seq`
/// (0 for a fresh run; the replayed event count after recovery).
pub fn channel(first_seq: u64) -> (ProducerHandle, Receiver<StampedEvent>) {
    let (tx, rx) = mpsc::channel();
    (
        ProducerHandle {
            tx,
            next_seq: Arc::new(AtomicU64::new(first_seq)),
        },
        rx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use urpsm_core::types::RequestId;

    fn cancel(at: u64, id: u32) -> PlatformEvent {
        PlatformEvent::RequestCancelled {
            at,
            request: RequestId(id),
        }
    }

    #[test]
    fn threaded_producers_drain_identically_to_a_single_producer() {
        // One producer sends a pre-stamped stream in order…
        let (tx, rx) = channel(0);
        let events: Vec<PlatformEvent> = (0..200).map(|i| cancel(i / 4, i as u32)).collect();
        for (i, ev) in events.iter().enumerate() {
            tx.send_stamped(i as u64, *ev).unwrap();
        }
        drop(tx);
        let mut single: Vec<StampedEvent> = rx.iter().collect();
        single.sort_unstable_by_key(StampedEvent::order_key);

        // …and four threads send interleaved partitions of the same
        // pre-stamped stream.
        let (tx, rx) = channel(0);
        let mut handles = Vec::new();
        for t in 0..4usize {
            let tx = tx.clone();
            let events = events.clone();
            handles.push(std::thread::spawn(move || {
                for (i, ev) in events.iter().enumerate() {
                    if i % 4 == t {
                        tx.send_stamped(i as u64, *ev).unwrap();
                    }
                }
            }));
        }
        drop(tx);
        for h in handles {
            h.join().unwrap();
        }
        let mut threaded: Vec<StampedEvent> = rx.iter().collect();
        threaded.sort_unstable_by_key(StampedEvent::order_key);

        assert_eq!(single, threaded);
    }

    #[test]
    fn auto_stamps_are_unique_and_monotone_per_handle() {
        let (tx, rx) = channel(7);
        let a = tx.send(cancel(1, 1)).unwrap();
        let b = tx.send(cancel(1, 2)).unwrap();
        assert_eq!((a, b), (7, 8));
        drop(tx);
        let stamps: Vec<u64> = rx.iter().map(|s| s.seq).collect();
        assert_eq!(stamps, vec![7, 8]);
    }

    #[test]
    fn sort_key_orders_time_then_rank_then_seq() {
        let join = PlatformEvent::WorkerJoined {
            at: 5,
            worker: urpsm_core::types::Worker {
                class: Default::default(),
                id: urpsm_core::types::WorkerId(0),
                origin: road_network::VertexId(0),
                capacity: 4,
            },
        };
        let mut batch = [
            StampedEvent {
                seq: 9,
                event: cancel(5, 1),
            },
            StampedEvent {
                seq: 2,
                event: join,
            },
            StampedEvent {
                seq: 1,
                event: cancel(5, 0),
            },
            StampedEvent {
                seq: 0,
                event: cancel(6, 2),
            },
        ];
        batch.sort_unstable_by_key(StampedEvent::order_key);
        // Joined (rank 0) before cancels (rank 2), seq breaks the tie
        // among cancels at t=5, and t=6 sorts last despite seq 0.
        assert_eq!(
            batch.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![2, 1, 9, 0]
        );
    }
}
