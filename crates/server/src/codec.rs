//! Compact binary codec for [`PlatformEvent`]s — the WAL's payload
//! format (DESIGN.md §9).
//!
//! Every variant is a one-byte tag followed by its fields in
//! little-endian fixed width. The encoding is hand-rolled rather than
//! derived because the WAL's torn-tail recovery depends on two
//! properties a general serializer does not promise:
//!
//! * **exact-length decoding** — [`decode_event`] accepts a payload
//!   only if it consumes *every* byte, so a truncated or padded record
//!   can never alias a valid one;
//! * **stability** — the byte layout is part of the on-disk format and
//!   must not drift with compiler or library versions.
//!
//! Records are integrity-checked with CRC-32 (IEEE, the
//! gzip/zip polynomial) computed over the payload.

use urpsm_core::event::{PlatformEvent, ReassignPolicy};
use urpsm_core::types::{ClassConstraint, ClassId, Request, RequestId, Worker, WorkerId};

/// Upper bound on an encoded event's size; anything larger in a length
/// prefix is garbage, which lets the WAL scanner reject a corrupted
/// length field without reading past it.
pub const MAX_EVENT_BYTES: u32 = 64;

const TAG_ARRIVED: u8 = 0;
const TAG_CANCELLED: u8 = 1;
const TAG_JOINED: u8 = 2;
const TAG_LEFT: u8 = 3;
const TAG_TICK: u8 = 4;
// Version-2 records carry vehicle-class fields (DESIGN.md §12). The
// encoder emits them *only* for non-default classes, so a single-class
// fleet's WAL is byte-identical to the pre-class format and old logs
// replay under the new reader unchanged.
const TAG_ARRIVED_V2: u8 = 5;
const TAG_JOINED_V2: u8 = 6;

/// Constraint byte for [`ClassConstraint::Any`] in a v2 arrival.
const CONSTRAINT_ANY: u8 = 0;
/// Constraint byte for [`ClassConstraint::Only`], followed by the
/// class id as a `u16`.
const CONSTRAINT_ONLY: u8 = 1;

// ── CRC-32 (IEEE) ────────────────────────────────────────────────────

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE polynomial, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ── encode ───────────────────────────────────────────────────────────

#[inline]
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends the canonical encoding of `event` to `out`.
pub fn encode_event(event: &PlatformEvent, out: &mut Vec<u8>) {
    match *event {
        PlatformEvent::RequestArrived(r) => {
            // Unconstrained requests stay on the v1 layout so a
            // homogeneous fleet's WAL bytes never change.
            out.push(match r.class {
                ClassConstraint::Any => TAG_ARRIVED,
                ClassConstraint::Only(_) => TAG_ARRIVED_V2,
            });
            put_u32(out, r.id.0);
            put_u32(out, r.origin.0);
            put_u32(out, r.destination.0);
            put_u64(out, r.release);
            put_u64(out, r.deadline);
            put_u64(out, r.penalty);
            put_u32(out, r.capacity);
            if let ClassConstraint::Only(c) = r.class {
                out.push(CONSTRAINT_ONLY);
                put_u16(out, c.0);
            }
        }
        PlatformEvent::RequestCancelled { at, request } => {
            out.push(TAG_CANCELLED);
            put_u64(out, at);
            put_u32(out, request.0);
        }
        PlatformEvent::WorkerJoined { at, worker } => {
            out.push(if worker.class == ClassId::STANDARD {
                TAG_JOINED
            } else {
                TAG_JOINED_V2
            });
            put_u64(out, at);
            put_u32(out, worker.id.0);
            put_u32(out, worker.origin.0);
            put_u32(out, worker.capacity);
            if worker.class != ClassId::STANDARD {
                put_u16(out, worker.class.0);
            }
        }
        PlatformEvent::WorkerLeft {
            at,
            worker,
            reassign,
        } => {
            out.push(TAG_LEFT);
            put_u64(out, at);
            put_u32(out, worker.0);
            out.push(match reassign {
                ReassignPolicy::Drain => 0,
                ReassignPolicy::Reassign => 1,
            });
        }
        PlatformEvent::Tick { at } => {
            out.push(TAG_TICK);
            put_u64(out, at);
        }
    }
}

// ── decode ───────────────────────────────────────────────────────────

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u16(&mut self) -> Option<u16> {
        let s = self.bytes.get(self.pos..self.pos + 2)?;
        self.pos += 2;
        Some(u16::from_le_bytes(s.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decodes one event from `bytes`. Returns `None` unless the payload is
/// a valid encoding consumed *exactly* to its end.
pub fn decode_event(bytes: &[u8]) -> Option<PlatformEvent> {
    let mut c = Cursor { bytes, pos: 0 };
    let ev = match c.u8()? {
        tag @ (TAG_ARRIVED | TAG_ARRIVED_V2) => {
            let mut r = Request {
                class: Default::default(),
                id: RequestId(c.u32()?),
                origin: road_network::VertexId(c.u32()?),
                destination: road_network::VertexId(c.u32()?),
                release: c.u64()?,
                deadline: c.u64()?,
                penalty: c.u64()?,
                capacity: c.u32()?,
            };
            if tag == TAG_ARRIVED_V2 {
                r.class = match c.u8()? {
                    // An `Any` constraint must use the v1 tag — the
                    // canonical-form rule keeps encodings unique.
                    CONSTRAINT_ANY => return None,
                    CONSTRAINT_ONLY => ClassConstraint::Only(ClassId(c.u16()?)),
                    _ => return None,
                };
            }
            PlatformEvent::RequestArrived(r)
        }
        TAG_CANCELLED => PlatformEvent::RequestCancelled {
            at: c.u64()?,
            request: RequestId(c.u32()?),
        },
        tag @ (TAG_JOINED | TAG_JOINED_V2) => {
            let at = c.u64()?;
            let mut worker = Worker {
                class: Default::default(),
                id: WorkerId(c.u32()?),
                origin: road_network::VertexId(c.u32()?),
                capacity: c.u32()?,
            };
            if tag == TAG_JOINED_V2 {
                let class = ClassId(c.u16()?);
                // The standard class must use the v1 tag (canonical
                // form), mirroring the encoder.
                if class == ClassId::STANDARD {
                    return None;
                }
                worker.class = class;
            }
            PlatformEvent::WorkerJoined { at, worker }
        }
        TAG_LEFT => PlatformEvent::WorkerLeft {
            at: c.u64()?,
            worker: WorkerId(c.u32()?),
            reassign: match c.u8()? {
                0 => ReassignPolicy::Drain,
                1 => ReassignPolicy::Reassign,
                _ => return None,
            },
        },
        TAG_TICK => PlatformEvent::Tick { at: c.u64()? },
        _ => return None,
    };
    c.done().then_some(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_network::VertexId;
    use urpsm_core::types::Time;

    fn samples() -> Vec<PlatformEvent> {
        vec![
            PlatformEvent::RequestArrived(Request {
                class: Default::default(),
                id: RequestId(7),
                origin: VertexId(3),
                destination: VertexId(9),
                release: 1_234,
                deadline: 99_999,
                penalty: u64::MAX / 3,
                capacity: 2,
            }),
            PlatformEvent::RequestCancelled {
                at: 55,
                request: RequestId(7),
            },
            PlatformEvent::WorkerJoined {
                at: 60,
                worker: Worker {
                    class: Default::default(),
                    id: WorkerId(4),
                    origin: VertexId(11),
                    capacity: 6,
                },
            },
            PlatformEvent::WorkerLeft {
                at: 70,
                worker: WorkerId(4),
                reassign: ReassignPolicy::Drain,
            },
            PlatformEvent::WorkerLeft {
                at: 71,
                worker: WorkerId(2),
                reassign: ReassignPolicy::Reassign,
            },
            PlatformEvent::Tick { at: Time::MAX },
            // v2 records: class-constrained request, non-standard worker.
            PlatformEvent::RequestArrived(Request {
                class: ClassConstraint::Only(ClassId(2)),
                id: RequestId(8),
                origin: VertexId(5),
                destination: VertexId(6),
                release: 10,
                deadline: 500,
                penalty: 77,
                capacity: 1,
            }),
            PlatformEvent::WorkerJoined {
                at: 61,
                worker: Worker {
                    class: ClassId(1),
                    id: WorkerId(5),
                    origin: VertexId(12),
                    capacity: 4,
                },
            },
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        for ev in samples() {
            let mut buf = Vec::new();
            encode_event(&ev, &mut buf);
            assert!(buf.len() <= MAX_EVENT_BYTES as usize);
            assert_eq!(decode_event(&buf), Some(ev), "{ev:?}");
        }
    }

    #[test]
    fn rejects_truncated_padded_and_garbage_payloads() {
        for ev in samples() {
            let mut buf = Vec::new();
            encode_event(&ev, &mut buf);
            // Any strict prefix fails (truncation)…
            for k in 0..buf.len() {
                assert_eq!(decode_event(&buf[..k]), None);
            }
            // …and so does any padding (exact-length contract).
            let mut padded = buf.clone();
            padded.push(0);
            assert_eq!(decode_event(&padded), None);
        }
        assert_eq!(decode_event(&[99, 0, 0, 0]), None, "unknown tag");
        assert_eq!(decode_event(&[]), None);
        // Invalid reassign policy byte.
        let mut buf = Vec::new();
        encode_event(
            &PlatformEvent::WorkerLeft {
                at: 1,
                worker: WorkerId(0),
                reassign: ReassignPolicy::Drain,
            },
            &mut buf,
        );
        *buf.last_mut().unwrap() = 7;
        assert_eq!(decode_event(&buf), None);
    }

    #[test]
    fn default_class_events_stay_on_the_v1_layout() {
        // Byte stability: a homogeneous fleet's WAL must be identical
        // to the pre-class format, so old logs and new logs agree.
        let mut buf = Vec::new();
        encode_event(
            &PlatformEvent::RequestArrived(Request {
                class: ClassConstraint::Any,
                id: RequestId(1),
                origin: VertexId(2),
                destination: VertexId(3),
                release: 4,
                deadline: 5,
                penalty: 6,
                capacity: 7,
            }),
            &mut buf,
        );
        assert_eq!(buf[0], TAG_ARRIVED);
        assert_eq!(buf.len(), 1 + 4 + 4 + 4 + 8 + 8 + 8 + 4);
        buf.clear();
        encode_event(
            &PlatformEvent::WorkerJoined {
                at: 9,
                worker: Worker {
                    class: ClassId::STANDARD,
                    id: WorkerId(1),
                    origin: VertexId(2),
                    capacity: 3,
                },
            },
            &mut buf,
        );
        assert_eq!(buf[0], TAG_JOINED);
        assert_eq!(buf.len(), 1 + 8 + 4 + 4 + 4);
    }

    #[test]
    fn v2_rejects_non_canonical_class_encodings() {
        // A v2 arrival claiming `Any`, or a v2 join claiming the
        // standard class, must use the v1 tag instead — unique
        // encodings keep record identity well-defined.
        let mut buf = Vec::new();
        encode_event(
            &PlatformEvent::RequestArrived(Request {
                class: ClassConstraint::Only(ClassId(1)),
                id: RequestId(1),
                origin: VertexId(2),
                destination: VertexId(3),
                release: 4,
                deadline: 5,
                penalty: 6,
                capacity: 7,
            }),
            &mut buf,
        );
        assert_eq!(buf[0], TAG_ARRIVED_V2);
        let mut any = buf.clone();
        // Rewrite the constraint byte to CONSTRAINT_ANY (and drop the id).
        any.truncate(any.len() - 3);
        any.push(CONSTRAINT_ANY);
        any.extend_from_slice(&[0, 0]);
        assert_eq!(decode_event(&any), None);

        buf.clear();
        encode_event(
            &PlatformEvent::WorkerJoined {
                at: 9,
                worker: Worker {
                    class: ClassId(3),
                    id: WorkerId(1),
                    origin: VertexId(2),
                    capacity: 3,
                },
            },
            &mut buf,
        );
        assert_eq!(buf[0], TAG_JOINED_V2);
        let n = buf.len();
        buf[n - 2] = 0;
        buf[n - 1] = 0; // class id 0 = STANDARD
        assert_eq!(decode_event(&buf), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Round trip over the full (v1 ∪ v2) record space, plus the
        /// forward-replay guarantee: a hand-built *old-format* (v1)
        /// record decodes under the new reader to the same event with
        /// the class fields defaulted.
        #[test]
        fn arbitrary_records_round_trip_and_v1_replays(
            variant in 0u8..7,
            a in proptest::prelude::any::<u32>(),
            b in proptest::prelude::any::<u32>(),
            cap in proptest::prelude::any::<u32>(),
            t0 in proptest::prelude::any::<u64>(),
            t1 in proptest::prelude::any::<u64>(),
            pen in proptest::prelude::any::<u64>(),
            cls in proptest::prelude::any::<u16>(),
        ) {
            use proptest::prelude::*;
            let ev = match variant {
                0 | 1 => PlatformEvent::RequestArrived(Request {
                    class: if variant == 0 {
                        ClassConstraint::Any
                    } else {
                        ClassConstraint::Only(ClassId(cls))
                    },
                    id: RequestId(a),
                    origin: VertexId(b),
                    destination: VertexId(b.wrapping_add(1)),
                    release: t0,
                    deadline: t1,
                    penalty: pen,
                    capacity: cap,
                }),
                2 => PlatformEvent::RequestCancelled { at: t0, request: RequestId(a) },
                3 | 4 => PlatformEvent::WorkerJoined {
                    at: t0,
                    worker: Worker {
                        class: if variant == 3 { ClassId::STANDARD } else { ClassId(cls.max(1)) },
                        id: WorkerId(a),
                        origin: VertexId(b),
                        capacity: cap,
                    },
                },
                5 => PlatformEvent::WorkerLeft {
                    at: t0,
                    worker: WorkerId(a),
                    reassign: if cap % 2 == 0 { ReassignPolicy::Drain } else { ReassignPolicy::Reassign },
                },
                _ => PlatformEvent::Tick { at: t0 },
            };
            let mut buf = Vec::new();
            encode_event(&ev, &mut buf);
            prop_assert!(buf.len() <= MAX_EVENT_BYTES as usize);
            prop_assert_eq!(decode_event(&buf), Some(ev));
            // Truncation never aliases a valid record.
            prop_assert_eq!(decode_event(&buf[..buf.len() - 1]), None);

            // Forward replay: the same fields laid out in the *old*
            // format (no class bytes) decode to the defaulted event.
            let mut old = Vec::new();
            old.push(TAG_ARRIVED);
            put_u32(&mut old, a);
            put_u32(&mut old, b);
            put_u32(&mut old, b.wrapping_add(1));
            put_u64(&mut old, t0);
            put_u64(&mut old, t1);
            put_u64(&mut old, pen);
            put_u32(&mut old, cap);
            prop_assert_eq!(
                decode_event(&old),
                Some(PlatformEvent::RequestArrived(Request {
                    class: ClassConstraint::Any,
                    id: RequestId(a),
                    origin: VertexId(b),
                    destination: VertexId(b.wrapping_add(1)),
                    release: t0,
                    deadline: t1,
                    penalty: pen,
                    capacity: cap,
                }))
            );
            let mut old = Vec::new();
            old.push(TAG_JOINED);
            put_u64(&mut old, t0);
            put_u32(&mut old, a);
            put_u32(&mut old, b);
            put_u32(&mut old, cap);
            prop_assert_eq!(
                decode_event(&old),
                Some(PlatformEvent::WorkerJoined {
                    at: t0,
                    worker: Worker {
                        class: ClassId::STANDARD,
                        id: WorkerId(a),
                        origin: VertexId(b),
                        capacity: cap,
                    },
                })
            );
        }
    }

    /// Every exact encoding length, so shaped inputs hit each variant's
    /// full decode path.
    const EVENT_LENGTHS: [usize; 7] = [9, 13, 14, 21, 23, 41, 44];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Hostile bytes: `decode_event` never panics, and whatever it
        /// accepts is the canonical encoding of what it returns. Half the
        /// cases are raw bytes; the other half get a known tag and an
        /// exact variant length, so the accepting branch is reached.
        #[test]
        fn decode_accepts_only_canonical_encodings(
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..97),
            shaped in proptest::prelude::any::<bool>(),
            tag in 0u8..8,
            len in 0..EVENT_LENGTHS.len(),
        ) {
            use proptest::prelude::*;
            let mut bytes = raw;
            if shaped {
                bytes.resize(EVENT_LENGTHS[len], 0);
                bytes[0] = tag;
                // A v2 arrival's constraint byte: mostly `Only`.
                if tag == TAG_ARRIVED_V2 && bytes.len() > 41 && bytes[41] > CONSTRAINT_ONLY {
                    bytes[41] = CONSTRAINT_ONLY;
                }
            }
            if let Some(ev) = decode_event(&bytes) {
                let mut again = Vec::new();
                encode_event(&ev, &mut again);
                prop_assert_eq!(again, bytes);
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A single flipped bit changes the checksum.
        let mut buf = Vec::new();
        encode_event(&PlatformEvent::Tick { at: 42 }, &mut buf);
        let clean = crc32(&buf);
        buf[3] ^= 0x10;
        assert_ne!(crc32(&buf), clean);
    }
}
