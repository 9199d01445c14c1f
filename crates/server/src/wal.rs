//! Event-sourced durability: the write-ahead log and snapshot files
//! (DESIGN.md §9).
//!
//! A run's WAL is an append-only file of length-prefixed, checksummed
//! [`PlatformEvent`] records:
//!
//! ```text
//! "URPSWAL1"                                  — 8-byte magic
//! [len: u32 LE][crc32: u32 LE][payload: len]  — repeated
//! ```
//!
//! The payload is the [`crate::codec`] encoding; the CRC covers the
//! payload. A crash can leave a *torn tail* — a record whose header or
//! payload was only partially flushed. [`read_wal`] handles this by
//! construction: it scans records front to back and stops at the first
//! one that fails any check (short header, zero/oversized length,
//! truncated payload, CRC mismatch, undecodable payload). Everything
//! before that point is a valid prefix of the event history; recovery
//! keeps it and truncates the file back to it, so the log is clean
//! again before new records are appended.
//!
//! Snapshots are deliberately *logical*: rather than serializing the
//! platform state (which would create a second source of truth that
//! could drift from replay), a snapshot records only how many events
//! the service had applied plus the [`ServiceCheckpoint`] fingerprint
//! at that point. Recovery replays the WAL from the start — replay is
//! deterministic, so this is exact — and uses the snapshot to *verify*
//! that the rebuilt state matches what the crashed process had
//! observed. Snapshot writes are atomic (temp file + rename), so a
//! crash mid-snapshot leaves the previous one intact.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use urpsm_core::event::PlatformEvent;
use urpsm_simulator::service::ServiceCheckpoint;

use crate::codec::{crc32, decode_event, encode_event, MAX_EVENT_BYTES};

/// File name of the write-ahead log inside a run directory.
pub const WAL_FILE: &str = "events.wal";
/// File name of the snapshot inside a run directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

const WAL_MAGIC: &[u8; 8] = b"URPSWAL1";
const SNAP_MAGIC: &[u8; 8] = b"URPSSNP1";

// ── writer ───────────────────────────────────────────────────────────

/// Appender for the write-ahead log. Writes are buffered; callers
/// decide when to [`flush`](WalWriter::flush) (the ingestion server
/// flushes at every tick boundary, before any admitted event of the
/// tick is submitted downstream).
#[derive(Debug)]
pub struct WalWriter {
    out: BufWriter<File>,
    /// The record being encoded: one buffer for every append.
    payload: Vec<u8>,
    bytes: u64,
    records: u64,
}

impl WalWriter {
    /// Creates a fresh WAL at `path`, writing the magic header.
    /// Truncates any existing file.
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(WAL_MAGIC)?;
        Ok(WalWriter {
            out: BufWriter::new(file),
            payload: Vec::with_capacity(MAX_EVENT_BYTES as usize),
            bytes: WAL_MAGIC.len() as u64,
            records: 0,
        })
    }

    /// Reopens an existing WAL for appending after recovery, first
    /// truncating it to `valid_bytes` (the clean prefix reported by
    /// [`read_wal`]) to drop any torn tail.
    pub fn open_at(path: &Path, valid_bytes: u64, records: u64) -> io::Result<Self> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_bytes)?;
        file.sync_all()?;
        drop(file);
        // Reopen in append mode so writes land at the truncated end.
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(WalWriter {
            out: BufWriter::new(file),
            payload: Vec::with_capacity(MAX_EVENT_BYTES as usize),
            bytes: valid_bytes,
            records,
        })
    }

    /// Appends one event record (length + CRC + payload).
    pub fn append(&mut self, event: &PlatformEvent) -> io::Result<()> {
        self.payload.clear();
        encode_event(event, &mut self.payload);
        debug_assert!(self.payload.len() <= MAX_EVENT_BYTES as usize);
        let len = self.payload.len() as u32;
        self.out.write_all(&len.to_le_bytes())?;
        self.out.write_all(&crc32(&self.payload).to_le_bytes())?;
        self.out.write_all(&self.payload)?;
        self.bytes += 8 + u64::from(len);
        self.records += 1;
        urpsm_obs::with(|m| {
            m.wal_appends.inc();
            m.wal_bytes.add(8 + u64::from(len));
            m.ring.record(
                urpsm_obs::TraceKind::WalAppend,
                self.records,
                8 + u64::from(len),
                self.bytes,
                0,
            );
        });
        Ok(())
    }

    /// Flushes buffered records to the OS.
    pub fn flush(&mut self) -> io::Result<()> {
        let sw = urpsm_obs::Stopwatch::start();
        self.out.flush()?;
        urpsm_obs::with(|m| {
            m.wal_flushes.inc();
            let ns = sw.elapsed_ns().unwrap_or(0);
            m.wal_flush_ns.record(ns);
            m.ring.record(
                urpsm_obs::TraceKind::WalFsync,
                self.records,
                self.bytes,
                ns,
                0,
            );
        });
        Ok(())
    }

    /// Bytes in the log, magic included (after a flush this equals the
    /// file size).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended over the writer's lifetime (including any it
    /// was reopened on top of).
    pub fn records(&self) -> u64 {
        self.records
    }
}

// ── reader ───────────────────────────────────────────────────────────

/// Result of scanning a WAL front to back.
#[derive(Debug)]
pub struct WalScan {
    /// Every event in the valid prefix, in append order.
    pub events: Vec<PlatformEvent>,
    /// Length of the valid prefix in bytes (magic included). Recovery
    /// truncates the file to this before appending again.
    pub valid_bytes: u64,
    /// Whether bytes followed the valid prefix (a torn tail or
    /// corruption — either way, dropped).
    pub torn: bool,
}

/// Reads a WAL, tolerating a torn tail. Fails only if the file cannot
/// be read at all or its magic is wrong (that is not a torn write —
/// it is the wrong file).
pub fn read_wal(path: &Path) -> io::Result<WalScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a URPSM WAL (bad magic)",
        ));
    }
    let mut events = Vec::new();
    let mut pos = WAL_MAGIC.len();
    // A short header is a torn tail, just like the later breaks.
    while let (Some(len), Some(crc)) = (le_u32(&bytes, pos), le_u32(&bytes, pos + 4)) {
        if len == 0 || len > MAX_EVENT_BYTES {
            break; // corrupted length field
        }
        let start = pos + 8;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            break; // truncated payload
        };
        if crc32(payload) != crc {
            break; // bit rot or torn write inside the record
        }
        let Some(event) = decode_event(payload) else {
            break; // checksum collided with garbage; treat as torn
        };
        events.push(event);
        pos = start + len as usize;
    }
    Ok(WalScan {
        events,
        valid_bytes: pos as u64,
        torn: pos < bytes.len(),
    })
}

// ── snapshot ─────────────────────────────────────────────────────────

/// A logical snapshot: where in the event history the service stood,
/// and the fingerprint of its observable state at that point.
///
/// ```text
/// "URPSSNP1"            — 8-byte magic
/// events_applied: u64   — events submitted to the backend
/// wal_bytes: u64        — WAL length when the snapshot was taken
/// checkpoint.events: u64
/// checkpoint.last_time: u64
/// checkpoint.digest: u64
/// crc32: u32            — over the five u64s
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Events the backend had applied when the snapshot was taken.
    pub events_applied: u64,
    /// WAL size (bytes, magic included) at that moment — the replay
    /// offset this snapshot vouches for.
    pub wal_bytes: u64,
    /// Fingerprint of the backend's reply log at that moment.
    pub checkpoint: ServiceCheckpoint,
}

/// Writes `snap` atomically (temp file + rename) next to `path`.
pub fn write_snapshot(path: &Path, snap: &Snapshot) -> io::Result<()> {
    let mut payload = [0u8; 40];
    payload[..8].copy_from_slice(&snap.events_applied.to_le_bytes());
    payload[8..16].copy_from_slice(&snap.wal_bytes.to_le_bytes());
    payload[16..24].copy_from_slice(&snap.checkpoint.events.to_le_bytes());
    payload[24..32].copy_from_slice(&snap.checkpoint.last_time.to_le_bytes());
    payload[32..40].copy_from_slice(&snap.checkpoint.digest.to_le_bytes());

    let tmp: PathBuf = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(SNAP_MAGIC)?;
        f.write_all(&payload)?;
        f.write_all(&crc32(&payload).to_le_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Reads a snapshot. `Ok(None)` when the file is missing or fails any
/// integrity check — recovery then simply replays the whole WAL with
/// nothing to verify against.
pub fn read_snapshot(path: &Path) -> io::Result<Option<Snapshot>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => f.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(decode_snapshot(&bytes))
}

/// The snapshot `bytes` hold, or `None` unless they are exactly the
/// 52 bytes [`write_snapshot`] writes, magic and checksum intact.
fn decode_snapshot(bytes: &[u8]) -> Option<Snapshot> {
    if bytes.len() != 52 || &bytes[..8] != SNAP_MAGIC {
        return None;
    }
    let payload = &bytes[8..48];
    if le_u32(bytes, 48)? != crc32(payload) {
        return None;
    }
    Some(Snapshot {
        events_applied: le_u64(payload, 0)?,
        wal_bytes: le_u64(payload, 8)?,
        checkpoint: ServiceCheckpoint {
            events: le_u64(payload, 16)?,
            last_time: le_u64(payload, 24)?,
            digest: le_u64(payload, 32)?,
        },
    })
}

/// The little-endian `u32` at `bytes[at..]`; `None` when fewer than
/// four bytes remain.
fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

/// The little-endian `u64` at `bytes[at..]`; `None` when fewer than
/// eight bytes remain.
fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use urpsm_core::types::RequestId;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("urpsm-wal-{}-{}", std::process::id(), tag));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events(n: u64) -> Vec<PlatformEvent> {
        (0..n)
            .map(|i| PlatformEvent::RequestCancelled {
                at: i,
                request: RequestId(i as u32),
            })
            .collect()
    }

    #[test]
    fn wal_round_trips_and_reports_sizes() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join(WAL_FILE);
        let events = sample_events(10);
        let mut w = WalWriter::create(&path).unwrap();
        for ev in &events {
            w.append(ev).unwrap();
        }
        w.flush().unwrap();
        let expected_bytes = w.bytes();

        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.events, events);
        assert_eq!(scan.valid_bytes, expected_bytes);
        assert!(!scan.torn);
        assert_eq!(fs::metadata(&path).unwrap().len(), expected_bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncation_restores_the_prefix() {
        let dir = tmp_dir("torn");
        let path = dir.join(WAL_FILE);
        let events = sample_events(5);
        let mut w = WalWriter::create(&path).unwrap();
        for ev in &events {
            w.append(ev).unwrap();
        }
        w.flush().unwrap();

        // Tear the last record: chop 3 bytes off the file.
        let full = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);

        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.events, events[..4].to_vec());
        assert!(scan.torn);

        // Reopen at the valid prefix and append: the log heals.
        let mut w = WalWriter::open_at(&path, scan.valid_bytes, scan.events.len() as u64).unwrap();
        w.append(&events[4]).unwrap();
        w.flush().unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.events, events);
        assert!(!scan.torn);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_final_record_is_detected() {
        let dir = tmp_dir("bitflip");
        let path = dir.join(WAL_FILE);
        let events = sample_events(3);
        let mut w = WalWriter::create(&path).unwrap();
        for ev in &events {
            w.append(ev).unwrap();
        }
        w.flush().unwrap();

        // Flip one bit in the last record's payload.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.events, events[..2].to_vec());
        assert!(scan.torn);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_is_an_error_not_a_torn_tail() {
        let dir = tmp_dir("magic");
        let path = dir.join(WAL_FILE);
        fs::write(&path, b"NOTAWAL0rest").unwrap();
        assert!(read_wal(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Hostile bytes after the magic: `read_wal` never panics, its
        /// valid prefix lies within the file, and it keeps every framed
        /// record up to the first one that is not a valid event. The
        /// framed records carry correct length and CRC fields around
        /// real encodings or arbitrary payloads, so the scan gets past
        /// the checksum to the decoder; the arbitrary tail follows them.
        #[test]
        fn read_wal_contains_arbitrary_bytes(
            payloads in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<u64>(),
                    proptest::collection::vec(proptest::prelude::any::<u8>(), 0..70),
                ),
                0..6,
            ),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            use proptest::prelude::*;
            let mut bytes = WAL_MAGIC.to_vec();
            // The events and byte length of the valid prefix, while no
            // framed record has broken it yet.
            let mut expect = Vec::new();
            let mut expect_bytes = bytes.len();
            let mut intact = true;
            for (real, at, raw) in payloads {
                let payload = if real {
                    let mut out = Vec::new();
                    encode_event(&PlatformEvent::Tick { at }, &mut out);
                    out
                } else {
                    raw
                };
                bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
                bytes.extend_from_slice(&payload);
                let event = (!payload.is_empty() && payload.len() <= MAX_EVENT_BYTES as usize)
                    .then(|| decode_event(&payload))
                    .flatten();
                match event {
                    Some(ev) if intact => {
                        expect.push(ev);
                        expect_bytes = bytes.len();
                    }
                    _ => intact = false,
                }
            }
            bytes.extend_from_slice(&tail);

            let dir = tmp_dir("hostile");
            let path = dir.join(WAL_FILE);
            fs::write(&path, &bytes).unwrap();
            let scan = read_wal(&path).unwrap();
            fs::remove_dir_all(&dir).unwrap();

            prop_assert!(scan.valid_bytes >= WAL_MAGIC.len() as u64);
            prop_assert!(scan.valid_bytes <= bytes.len() as u64);
            prop_assert_eq!(scan.torn, scan.valid_bytes < bytes.len() as u64);
            // Only the tail can extend the prefix, and only by chance.
            prop_assert!(scan.valid_bytes >= expect_bytes as u64);
            prop_assert!(scan.events.len() >= expect.len());
            prop_assert_eq!(&scan.events[..expect.len()], &expect[..]);
            if !intact {
                prop_assert_eq!(scan.valid_bytes, expect_bytes as u64);
                prop_assert_eq!(scan.events, expect);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Hostile snapshot bytes: `read_snapshot` never panics, and it
        /// accepts only what `write_snapshot` would write — arbitrary
        /// lengths, with or without the magic, with or without a
        /// checksum that matches the payload.
        #[test]
        fn read_snapshot_accepts_only_written_snapshots(
            magic in proptest::prelude::any::<bool>(),
            sealed in proptest::prelude::any::<bool>(),
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..60),
        ) {
            use proptest::prelude::*;
            let mut bytes = if magic { SNAP_MAGIC.to_vec() } else { Vec::new() };
            bytes.extend_from_slice(&body);
            if sealed && bytes.len() >= 48 {
                bytes.truncate(48);
                let crc = crc32(&bytes[8..48]);
                bytes.extend_from_slice(&crc.to_le_bytes());
            }
            let dir = tmp_dir("hostile-snap");
            let path = dir.join(SNAPSHOT_FILE);
            fs::write(&path, &bytes).unwrap();
            let read = read_snapshot(&path).unwrap();
            if let Some(snap) = read {
                write_snapshot(&path, &snap).unwrap();
                prop_assert_eq!(fs::read(&path).unwrap(), bytes);
            } else {
                prop_assert!(
                    bytes.len() != 52
                        || &bytes[..8] != SNAP_MAGIC
                        || crc32(&bytes[8..48]).to_le_bytes() != bytes[48..52]
                );
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_corruption() {
        let dir = tmp_dir("snap");
        let path = dir.join(SNAPSHOT_FILE);
        assert_eq!(read_snapshot(&path).unwrap(), None, "missing file");

        let snap = Snapshot {
            events_applied: 17,
            wal_bytes: 345,
            checkpoint: ServiceCheckpoint {
                events: 40,
                last_time: 1_200,
                digest: 0xDEAD_BEEF_CAFE_F00D,
            },
        };
        write_snapshot(&path, &snap).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), Some(snap));

        // A flipped bit invalidates the snapshot (None, not garbage).
        let mut bytes = fs::read(&path).unwrap();
        bytes[20] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }
}
