//! The unified observability layer: metrics registry, per-alert stage
//! tracing, and exporters.
//!
//! SkyNet's operational claim (§4, §6) is that operators can trust a 10×
//! consolidated alert stream because every drop, dedup, shard hop and
//! score is accountable. This module is that accounting surface:
//!
//! - [`metrics`] — a [`MetricsRegistry`] of atomic counters, gauges and
//!   fixed-bucket histograms. Every stage registers its series once at
//!   construction; the hot path is relaxed atomic increments, lock-free.
//! - [`trace`] — per-alert stage tracing. The guard assigns each accepted
//!   alert a dense [`TraceId`] and each stage records `Copy`
//!   [`TraceEvent`]s into a bounded ring, so "where did alert X go?" has
//!   an answer ([`Observability::explain`]).
//! - [`export`] — Prometheus text, JSON and human-table renderings of one
//!   consistent [`RegistrySnapshot`], surfaced uniformly through the
//!   [`Exporter`] trait on every handle that owns a registry.
//!
//! An [`Observability`] handle is shared by the whole pipeline (batch
//! stages, region shards, the streaming worker, every serving tenant);
//! build one with [`Observability::new`] or let
//! [`SkyNet::builder`](crate::SkyNet::builder) do it.

pub mod export;
pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, MetricsRegistry,
    RegistrySnapshot, LATENCY_BUCKETS,
};
pub use trace::{DropReason, Stage, StageTracer, TraceEvent, TraceRecorder};

use serde::{Deserialize, Serialize};
use skynet_model::TraceId;
use std::fmt::Write as _;
use std::sync::Arc;

/// Observability knobs.
///
/// `#[non_exhaustive]`: construct via [`ObsConfig::default`] and the
/// fluent `with_*` setters so future knobs are not breaking changes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
#[non_exhaustive]
pub struct ObsConfig {
    /// Whether per-alert stage tracing is recorded at all. Metrics are
    /// always on (they are atomic increments); tracing costs one short
    /// mutex hold per stage event.
    pub tracing: bool,
    /// Ring capacity of the trace recorder — the newest this-many events
    /// survive a sustained flood.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            tracing: true,
            trace_capacity: 65_536,
        }
    }
}

impl ObsConfig {
    /// Enables or disables stage tracing.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Sets the trace ring capacity (events retained).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }
}

/// The one metrics-export surface, shared by every handle that owns (or
/// borrows) a metrics registry: [`SkyNet`](crate::SkyNet), the streaming
/// and service handles, and [`Observability`] itself.
///
/// Implementors provide [`Exporter::metrics_snapshot`]; the three render
/// methods are defaults over that one consistent read, so no handle ever
/// re-implements (or drifts from) the export formats.
///
/// ```
/// use skynet_core::obs::{Exporter, Observability, ObsConfig};
///
/// let obs = Observability::new(&ObsConfig::default());
/// obs.registry().counter("skynet_x_total", "x").inc();
/// assert!(obs.prometheus().contains("skynet_x_total 1"));
/// assert!(obs.json().contains("skynet_x_total"));
/// assert!(obs.table().contains("skynet_x_total"));
/// ```
pub trait Exporter {
    /// One consistent pass over every registered metric.
    fn metrics_snapshot(&self) -> RegistrySnapshot;

    /// The snapshot in Prometheus text exposition format.
    fn prometheus(&self) -> String {
        export::prometheus(&self.metrics_snapshot())
    }

    /// The snapshot as one JSON document.
    fn json(&self) -> String {
        export::json(&self.metrics_snapshot())
    }

    /// The snapshot as an aligned human-readable table.
    fn table(&self) -> String {
        export::render(&self.metrics_snapshot())
    }
}

/// The shared observability handle: one metrics registry plus (optionally)
/// one trace recorder. Cloning shares state — the pipeline, its shards and
/// restarted streaming workers all feed the same instance.
#[derive(Debug, Clone, Default)]
pub struct Observability {
    registry: MetricsRegistry,
    recorder: Option<Arc<TraceRecorder>>,
}

impl Observability {
    /// Builds the handle from knobs.
    pub fn new(cfg: &ObsConfig) -> Self {
        Observability {
            registry: MetricsRegistry::new(),
            recorder: cfg
                .tracing
                .then(|| Arc::new(TraceRecorder::new(cfg.trace_capacity))),
        }
    }

    /// The metrics registry stages register into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A cheap per-stage tracing handle (a no-op one when tracing is off).
    pub fn tracer(&self) -> StageTracer {
        match &self.recorder {
            Some(r) => StageTracer::new(r.clone()),
            None => StageTracer::disabled(),
        }
    }

    /// The trace recorder, when tracing is enabled.
    pub fn recorder(&self) -> Option<&Arc<TraceRecorder>> {
        self.recorder.as_ref()
    }

    /// One consistent pass over every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Every retained trace event of one alert, oldest first (empty when
    /// tracing is off, the id never entered the ring, or the flood
    /// overwrote it).
    pub fn explain(&self, trace: TraceId) -> Vec<TraceEvent> {
        match &self.recorder {
            Some(r) => r.for_trace(trace),
            None => Vec::new(),
        }
    }

    /// The retained events of a set of alerts (an incident's constituents),
    /// in recording order.
    pub fn explain_all(&self, traces: &[TraceId]) -> Vec<TraceEvent> {
        match &self.recorder {
            Some(r) => {
                let mut events = r.events();
                events.retain(|e| traces.contains(&e.trace));
                events
            }
            None => Vec::new(),
        }
    }

    /// Renders a trace as one line per step:
    /// `trace7  @42s  guard:admitted`.
    pub fn render_trace(&self, trace: TraceId) -> String {
        let mut out = String::new();
        for e in self.explain(trace) {
            let _ = writeln!(out, "{}  @{}  {}", e.trace, e.at, e.stage.label());
        }
        out
    }
}

impl Exporter for Observability {
    fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skynet_model::SimTime;

    #[test]
    fn disabled_tracing_yields_empty_explanations() {
        let obs = Observability::new(&ObsConfig::default().with_tracing(false));
        assert!(obs.recorder().is_none());
        assert!(!obs.tracer().is_enabled());
        assert!(obs.explain(TraceId(1)).is_empty());
        assert!(obs.explain_all(&[TraceId(1)]).is_empty());
    }

    #[test]
    fn explain_reconstructs_a_trace() {
        let obs = Observability::new(&ObsConfig::default().with_trace_capacity(16));
        let t = obs.tracer();
        t.record(TraceId(1), SimTime::from_secs(1), Stage::GuardAdmitted);
        t.record(TraceId(2), SimTime::from_secs(2), Stage::GuardAdmitted);
        t.record(TraceId(1), SimTime::from_secs(3), Stage::GuardReleased);
        assert_eq!(obs.explain(TraceId(1)).len(), 2);
        assert_eq!(obs.explain_all(&[TraceId(1), TraceId(2)]).len(), 3);
        let rendered = obs.render_trace(TraceId(1));
        assert!(rendered.contains("trace1"));
        assert!(rendered.contains("guard:released"));
    }

    #[test]
    fn clones_share_state() {
        let obs = Observability::new(&ObsConfig::default());
        let clone = obs.clone();
        clone
            .registry()
            .counter("skynet_shared_total", "shared")
            .inc();
        assert_eq!(obs.snapshot().counter("skynet_shared_total", None), 1);
        clone
            .tracer()
            .record(TraceId(9), SimTime::ZERO, Stage::LocateInserted);
        assert_eq!(obs.explain(TraceId(9)).len(), 1);
    }

    #[test]
    fn exporters_run_end_to_end() {
        let obs = Observability::new(&ObsConfig::default());
        obs.registry().counter("skynet_x_total", "x").add(7);
        assert!(obs.prometheus().contains("skynet_x_total 7"));
        assert!(obs.json().contains("\"value\":7"));
        assert!(obs.table().contains("skynet_x_total"));
    }
}
