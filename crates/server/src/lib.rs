//! Metropolis-scale ingestion service with event-sourced durability
//! and deterministic recovery (DESIGN.md §9).
//!
//! The dispatch plane's [`urpsm_dispatch::service::ShardedService`]
//! (one shard or many) is a library: the caller owns the event loop.
//! This crate is the *runtime* that owns it — a long-running service that
//! accepts [`urpsm_core::event::PlatformEvent`]s from any number of
//! producer threads and keeps three promises no matter how the input
//! arrives:
//!
//! 1. **Deterministic ingestion** ([`ingest`]) — events are
//!    sequence-stamped at enqueue and micro-batched per tick; the
//!    drain order `(time, tie_rank, seq)` is total, so a run with
//!    eight producer threads is byte-identical to a single-producer
//!    run.
//! 2. **Deterministic overload** ([`urpsm_dispatch::admission`],
//!    driven by [`server::IngestServer::tick`]) — per-shard tick
//!    budgets and bounded queue depths; when a shard falls behind, new
//!    arrivals are shed with an explicit
//!    [`server::IngestReply::Overloaded`] reply, and every verdict is
//!    a pure function of the event sequence.
//! 3. **Deterministic recovery** ([`wal`], [`server::recover`]) — an
//!    append-only, checksummed WAL records exactly the admitted
//!    sequence; snapshots are logical offsets, replay is
//!    re-submission, and a crashed run resumes byte-identical (event
//!    log, replies, audit, unified cost) to one that never crashed,
//!    torn tails included.
//!
//! The `urpsm-serve` binary wraps all of this in a CLI for live runs
//! and prints their events/sec; `--city metropolis --wal DIR` against
//! the same run without `--wal` reads off the WAL's throughput cost.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod ingest;
pub mod server;
pub mod wal;

/// Commonly used items.
pub mod prelude {
    pub use crate::ingest::{ProducerHandle, StampedEvent};
    pub use crate::server::{
        recover, sim_config, Backend, IngestReply, IngestServer, RecoveryReport, ServerConfig,
        ServerOutcome, TickReport, WalConfig, WalStats,
    };
    pub use crate::wal::{read_wal, Snapshot, WalScan, SNAPSHOT_FILE, WAL_FILE};
}
