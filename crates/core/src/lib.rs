//! # skynet-core
//!
//! The paper's contribution: the SkyNet analysis pipeline that turns an
//! alert flood into a short, ranked list of incidents (§3–§4).
//!
//! ```text
//!  raw alerts ──▶ Preprocessor ──▶ structured alerts ──▶ Locator ──▶ incidents
//!   (12 tools)     (§4.1)                                  (§4.2)       │
//!                  classify / dedup /                      alert trees  ▼
//!                  consolidate                           Evaluator (§4.3)
//!                                                        severity + zoom-in
//! ```
//!
//! - [`preprocess`] — uniform-format normalization, FT-tree syslog
//!   classification, three-stage consolidation (identical / single-source /
//!   cross-source).
//! - [`locator`] — the hierarchical main alert tree and incident trees
//!   (Algorithms 1–3), type-distinct counting, the `A/B+C/D` thresholds,
//!   topology-connectivity grouping. The production [`Locator`] runs on an
//!   interned-id arena; [`locator::PathLocator`] keeps the path-keyed
//!   implementation as a differential oracle and benchmark baseline.
//! - [`evaluator`] — severity scoring (Equations 1–3, Table 3), the
//!   reachability-matrix / sFlow / INT location zoom-in, and the severity
//!   filter.
//! - [`sop`] — the heuristic-rule engine handling *known* failures with
//!   automatic standard operating procedures (§7.2, §7.3).
//! - [`guard`] — the fault-tolerant ingestion boundary: validation,
//!   watermark-based re-sequencing, and the dead-letter queue.
//! - [`error`] — the [`SkyNetError`] taxonomy surfaced by the streaming
//!   runtime instead of panics.
//! - [`shard`] — region-affine shard routing: every location maps to its
//!   region's shard in O(1), which is what lets the locate stage be laid
//!   out over N locators without ever splitting an incident.
//! - `engine` (crate-private) — the one pipeline state machine (guard →
//!   preprocess → shard route → N locators) that batch analysis, the
//!   streaming worker and every serving tenant drive.
//! - [`pipeline`] — the assembled system: batch analysis and a
//!   channel-based streaming mode, both optionally region-sharded via
//!   [`StreamingConfig::shards`].
//! - [`obs`] — the unified observability layer: the metrics registry every
//!   stage registers into, per-alert stage tracing, and the Prometheus /
//!   JSON / table exporters.
//! - [`faultinject`] — seeded, replayable fault injection at every stage
//!   boundary, plus the post-incident degradation report. Disabled by
//!   default and zero-cost when off.
//! - [`serve`] — the always-on multi-tenant ingest service: a TCP/JSON
//!   front door with per-tenant backpressure, a segmented replayable
//!   write-ahead log, and snapshot/restore warm restarts.
//!
//! Build a pipeline with [`SkyNet::builder`]; pull the common surface in
//! one line with `use skynet_core::prelude::*`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod error;
pub mod evaluator;
pub mod faultinject;
pub mod guard;
pub mod locator;
pub mod obs;
pub mod pipeline;
pub mod preprocess;
pub mod serve;
pub mod shard;
pub mod sop;

pub use error::{RejectReason, SkyNetError};
pub use evaluator::{Evaluator, EvaluatorConfig, ScoredIncident};
pub use faultinject::{
    DegradationReport, FaultAction, FaultConfig, FaultRule, FaultTrigger, InjectedFault,
    InjectionSite,
};
pub use guard::{DeadLetter, DeadLetterQueue, GuardConfig, IngestGuard, IngestStats};
pub use locator::{CountingMode, Incident, Locator, LocatorConfig, MaintenanceMode, Thresholds};
pub use obs::{Exporter, ObsConfig, Observability};
pub use pipeline::{
    AnalysisReport, HealthReport, IngestSnapshot, PipelineConfig, SkyNet, SkyNetBuilder,
    StreamEvent, StreamIncident, StreamingConfig, StreamingHandle,
};
pub use preprocess::{Preprocessor, PreprocessorConfig, SyslogClassifier};
pub use serve::{replay_wal, BatchAck, ServeConfig, ServeError, ServiceHandle, TenantHealth};
pub use sop::{SopAction, SopEngine, SopPlan, SopRule};

/// The curated one-line import for building and driving a pipeline.
///
/// ```
/// use skynet_core::prelude::*;
/// ```
pub mod prelude {
    pub use crate::error::{RejectReason, SkyNetError};
    pub use crate::evaluator::ScoredIncident;
    pub use crate::faultinject::{
        DegradationReport, FaultAction, FaultConfig, FaultRule, InjectionSite,
    };
    pub use crate::locator::Incident;
    pub use crate::obs::{Exporter, ObsConfig, Observability, Stage, TraceEvent};
    pub use crate::pipeline::{
        AnalysisReport, PipelineConfig, SkyNet, SkyNetBuilder, StreamEvent, StreamIncident,
        StreamingConfig, StreamingHandle,
    };
    pub use crate::serve::{replay_wal, BatchAck, ServeConfig, ServiceHandle, TenantHealth};
    pub use skynet_model::{RawAlert, SimTime, TraceId};
}

/// Implementation details re-exported for benchmarks, differential tests
/// and extensions — **not** a stable API surface.
pub mod internals {
    pub use crate::evaluator::{MatrixMemo, MatrixMemoStats};
    pub use crate::locator::PathLocator;
    pub use crate::shard::{ShardRouter, FALLBACK_SHARD};
}
