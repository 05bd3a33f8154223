//! The always-on multi-tenant ingest service (§7 "operating SkyNet as a
//! service"): a TCP/JSON front door, a replayable write-ahead log, and
//! snapshot/restore warm restarts — all behind the one builder front door,
//! [`SkyNet::builder(...).serve(cfg)`](crate::SkyNetBuilder::serve).
//!
//! # Architecture
//!
//! ```text
//!                    ┌───────────────────────── service ─────────────────────────┐
//! tenant A ──┐       │ conn thread A → hello → bounded queue A ─► worker A       │
//! tenant B ──┼─TCP─► │ conn thread B → hello → bounded queue B ─► worker B       │
//! tenant C ──┘       │   (one blocking thread per connection; BUSY when full)    │
//!                    │   submit: seq + frame → group committer → durable → ack   │
//!                    │   snapshot = guard + preprocess + locator + ping          │
//!                    └───────────────────────────────────────────────────────────┘
//! ```
//!
//! - **Tenancy.** Each tenant (one authenticated connection identity) owns
//!   a full pipeline incarnation — ingest guard, preprocessor, one locator
//!   per shard — fed through a *bounded* queue by a dedicated worker
//!   thread. A slow or flooding tenant fills its own queue and gets `BUSY`
//!   pushback on its own connection; it cannot delay another tenant's acks
//!   ([`ServiceHandle`] asserts this in the integration tests).
//! - **Durability.** Every accepted event is on the segmented [`wal`]
//!   (CRC-framed, fsync policy knob) before its ack is sent — via *group
//!   commit*: submissions sequence pre-encoded frames under the tenant
//!   queue lock, a dedicated committer thread writes and fsyncs whole
//!   batches, and acks fire on the commit epoch, so one fsync covers every
//!   submitter that piled up behind it ([`ServiceHandle::submit_batch`]
//!   amortizes further). Sequence numbers are per tenant. Every delivered
//!   report leaves a [`WalEvent::ReportBoundary`] record so restarts never
//!   re-ingest an already-reported feed. The `skynet replay` CLI
//!   re-ingests any WAL range byte-identically via [`replay_wal`].
//! - **Warm restart.** [`ServiceHandle::snapshot`] serializes every
//!   tenant's mid-flood state ([`snapshot`]); a restarted service loads
//!   the snapshot (validating it against the configured shard count and
//!   topology — a mismatch is a recoverable [`ServeError::Corrupt`]),
//!   restores the fault plane's decision streams, replays the WAL tail
//!   past each tenant's applied watermark, and resumes as if never
//!   interrupted — the final report is byte-identical. A snapshotless
//!   restart replays the whole surviving WAL the same way.
//! - **Faults.** The WAL append and snapshot write paths are first-class
//!   injection sites (`wal-append`, `snapshot-write`), so chaos runs
//!   exercise exactly the failure modes this layer exists to absorb.

mod engine;
mod group;
mod service;
pub mod snapshot;
mod tcp;
pub mod wal;

pub use service::{replay_wal, BatchAck, ServiceHandle, TenantHealth};
pub use snapshot::{ServiceSnapshot, TenantSnapshot, SNAPSHOT_VERSION};
pub use wal::{FsyncPolicy, WalEvent, WalReader, WalRecord, WalWriter};

use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Serving-layer knobs.
///
/// `#[non_exhaustive]`: construct via [`ServeConfig::new`] (or
/// [`ServeConfig::default`]) and the fluent `with_*` setters so future
/// knobs are not breaking changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Directory holding the WAL segments and the snapshot file.
    pub wal_dir: PathBuf,
    /// Rotate the active WAL segment once it reaches this many bytes.
    pub segment_max_bytes: u64,
    /// Closed segments kept on disk beyond the snapshot floor — the replay
    /// window that survives even aggressive snapshotting.
    pub retain_segments: usize,
    /// When WAL appends are fsynced ([`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Bounded per-tenant queue depth; a tenant whose queue is full gets
    /// `BUSY` pushback instead of wedging the service.
    pub tenant_queue_capacity: usize,
    /// TCP listen address for the JSON front door (e.g.
    /// `"127.0.0.1:7474"`); `None` runs the service in-process only.
    pub bind: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            wal_dir: PathBuf::from("skynet-wal"),
            segment_max_bytes: 1 << 20,
            retain_segments: 4,
            fsync: FsyncPolicy::default(),
            tenant_queue_capacity: 1024,
            bind: None,
        }
    }
}

impl ServeConfig {
    /// A default config writing its WAL (and snapshot) under `wal_dir`.
    pub fn new(wal_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            wal_dir: wal_dir.into(),
            ..ServeConfig::default()
        }
    }

    /// Sets the segment rotation threshold in bytes.
    pub fn with_segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes;
        self
    }

    /// Sets how many snapshot-covered closed segments are retained.
    pub fn with_retain_segments(mut self, segments: usize) -> Self {
        self.retain_segments = segments;
        self
    }

    /// Sets the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the bounded per-tenant queue depth.
    pub fn with_tenant_queue_capacity(mut self, capacity: usize) -> Self {
        self.tenant_queue_capacity = capacity.max(1);
        self
    }

    /// Sets the TCP listen address (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port; read it back with [`ServiceHandle::local_addr`]).
    pub fn with_bind(mut self, addr: impl Into<String>) -> Self {
        self.bind = Some(addr.into());
        self
    }
}

/// Everything that can go wrong in the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The tenant's bounded queue is full — connection-level backpressure.
    /// Retry after draining; other tenants are unaffected.
    Busy {
        /// The tenant whose queue is full.
        tenant: String,
    },
    /// An injected `wal-append` fault rejected the append; the event was
    /// not logged and must not be acked.
    WalRejected,
    /// An injected `snapshot-write` fault skipped the snapshot; the
    /// previous snapshot (if any) remains the restore point.
    SnapshotSkipped,
    /// No tenant with this name has said hello to the service.
    UnknownTenant(String),
    /// The service is shutting down and no longer accepts events.
    ShuttingDown,
    /// On-disk state (WAL frame or snapshot) failed validation.
    Corrupt(String),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy { tenant } => {
                write!(f, "tenant {tenant:?} queue is full (backpressure)")
            }
            ServeError::WalRejected => write!(f, "WAL append rejected by an injected fault"),
            ServeError::SnapshotSkipped => {
                write!(f, "snapshot write skipped by an injected fault")
            }
            ServeError::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Corrupt(what) => write!(f, "corrupt serving state: {what}"),
            ServeError::Io(e) => write!(f, "serving I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
