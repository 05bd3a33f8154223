//! The assembled SkyNet system.
//!
//! [`SkyNet::analyze`] runs the batch pipeline of Fig. 5a — guard →
//! preprocess → locate → evaluate → rank — over a recorded alert flood.
//! [`SkyNet::stream`] runs the same stages as a long-lived worker thread
//! fed through a channel, the shape the production deployment uses ("the
//! alert preprocessing occurs through a stream processing mechanism",
//! §6.2). Both drive the crate-private `Engine` every serving tenant does: a
//! recorded flood is the stream replayed a stage at a time, and streaming
//! is one anonymous tenant without a WAL.
//!
//! The streaming runtime is built to survive the conditions it analyzes:
//!
//! - an [`IngestGuard`](crate::guard::IngestGuard) validates and
//!   re-sequences the feed, quarantining rejects in a dead-letter queue
//!   instead of poisoning the locator;
//! - [`StreamingHandle::send_alert`] applies **class-aware load shedding**
//!   when the event channel saturates — [`AlertClass::Failure`] alerts are
//!   never shed, [`AlertClass::Abnormal`] alerts go first;
//! - the worker **contains panics** the way batch analysis and a serving
//!   tenant do — the event (or completed incident) in flight is lost, the
//!   engine and its cumulative alert tree carry on — up to a configurable
//!   cap, past which the stream stops and says why;
//! - [`StreamingHandle::health`] is the liveness probe.

use crate::engine::Engine;
use crate::error::{RejectReason, SkyNetError};
use crate::evaluator::{Evaluator, EvaluatorConfig, MatrixMemo, ScoredIncident};
use crate::faultinject::{
    self, DegradationReport, FaultConfig, FaultPanic, FaultPlane, InjectedFault, InjectionSite,
};
use crate::guard::{DeadLetter, DeadLetterQueue, GuardConfig, IngestStats};
use crate::locator::{Incident, LocatorConfig};
use crate::obs::{
    Counter, Exporter, ObsConfig, Observability, RegistrySnapshot, Stage, TraceEvent,
    LATENCY_BUCKETS,
};
use crate::preprocess::{PreprocessStats, PreprocessorConfig, SyslogClassifier};
use crate::sop::{SopEngine, SopPlan};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use skynet_model::{
    AlertClass, AlertKind, IncidentId, PingLog, PingSample, RawAlert, SimTime, TraceId,
};
use skynet_topology::Topology;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Knobs for the streaming runtime (channel sizing, ingestion guard,
/// shedding and the panic budget).
///
/// `#[non_exhaustive]`: construct via [`StreamingConfig::default`] and the
/// fluent `with_*` setters so future knobs (like the `shards` knob this
/// struct gained in PR 3) stop being breaking changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct StreamingConfig {
    /// Bounded event-channel capacity.
    pub event_capacity: usize,
    /// Bounded incident-channel capacity.
    pub incident_capacity: usize,
    /// Ingestion-guard knobs (watermark skew, future tolerance, quarantine
    /// size).
    pub guard: GuardConfig,
    /// Event-channel fill fraction above which `Abnormal` alerts are shed
    /// by [`StreamingHandle::send_alert`].
    pub shed_high_water: f64,
    /// Worker panics the streaming worker contains (each costs the event
    /// or completed incident in flight) before it gives up and stops.
    /// Batch analysis and serving tenants have no budget.
    pub max_restarts: u32,
    /// Region-affine shards for the locate stage: structured alerts route
    /// to one of N locators by the [`ShardRouter`](crate::shard::ShardRouter).
    /// Every driver — batch analysis, the streaming worker, each serving
    /// tenant — applies the N locators in sequence on its one thread: a
    /// layout, not a parallel mode. Reports are byte-identical at any
    /// shard count — see the module docs of [`crate::shard`].
    #[serde(default = "default_shards")]
    pub shards: usize,
}

fn default_shards() -> usize {
    1
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            event_capacity: 4096,
            incident_capacity: 256,
            guard: GuardConfig::default(),
            shed_high_water: 0.75,
            max_restarts: 3,
            shards: default_shards(),
        }
    }
}

impl StreamingConfig {
    /// Sets the bounded event-channel capacity.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Sets the bounded incident-channel capacity.
    pub fn with_incident_capacity(mut self, capacity: usize) -> Self {
        self.incident_capacity = capacity;
        self
    }

    /// Sets the ingestion-guard knobs.
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// Sets the shedding high-water fraction.
    pub fn with_shed_high_water(mut self, fraction: f64) -> Self {
        self.shed_high_water = fraction;
        self
    }

    /// Sets the streaming worker's panic budget.
    pub fn with_max_restarts(mut self, restarts: u32) -> Self {
        self.max_restarts = restarts;
        self
    }

    /// Sets the region-affine shard count for the locate/evaluate stages.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// Configuration of the whole pipeline.
///
/// `#[non_exhaustive]`: construct via [`PipelineConfig::default`] /
/// [`PipelineConfig::production`] and the fluent `with_*` setters so
/// future knobs are not breaking changes. Field *access* and mutation stay
/// available.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub struct PipelineConfig {
    /// Preprocessor knobs (§4.1).
    pub preprocessor: PreprocessorConfig,
    /// Locator knobs (§4.2).
    pub locator: LocatorConfig,
    /// Evaluator knobs (§4.3).
    pub evaluator: EvaluatorConfig,
    /// Streaming-runtime knobs (§6.2). Also supplies the ingestion-guard
    /// settings the batch path uses.
    #[serde(default)]
    pub streaming: StreamingConfig,
    /// Observability knobs: stage tracing and the trace-ring capacity.
    #[serde(default)]
    pub obs: ObsConfig,
    /// Fault-injection policy (disabled by default; zero-cost when off).
    #[serde(default)]
    pub faults: FaultConfig,
    /// FT-tree minimum template support.
    pub classifier_min_support: u32,
    /// FT-tree maximum template depth.
    pub classifier_max_depth: usize,
}

impl PipelineConfig {
    /// The paper's production settings.
    pub fn production() -> Self {
        PipelineConfig {
            preprocessor: PreprocessorConfig::default(),
            locator: LocatorConfig::default(),
            evaluator: EvaluatorConfig::default(),
            streaming: StreamingConfig::default(),
            obs: ObsConfig::default(),
            faults: FaultConfig::default(),
            classifier_min_support: 3,
            classifier_max_depth: 8,
        }
    }

    /// Sets the preprocessor knobs.
    pub fn with_preprocessor(mut self, cfg: PreprocessorConfig) -> Self {
        self.preprocessor = cfg;
        self
    }

    /// Sets the locator knobs.
    pub fn with_locator(mut self, cfg: LocatorConfig) -> Self {
        self.locator = cfg;
        self
    }

    /// Sets the evaluator knobs.
    pub fn with_evaluator(mut self, cfg: EvaluatorConfig) -> Self {
        self.evaluator = cfg;
        self
    }

    /// Sets the streaming-runtime knobs.
    pub fn with_streaming(mut self, cfg: StreamingConfig) -> Self {
        self.streaming = cfg;
        self
    }

    /// Sets the observability knobs.
    pub fn with_obs(mut self, cfg: ObsConfig) -> Self {
        self.obs = cfg;
        self
    }

    /// Sets the fault-injection policy (chaos testing; disabled by
    /// default).
    pub fn with_faults(mut self, cfg: FaultConfig) -> Self {
        self.faults = cfg;
        self
    }

    /// Sets the FT-tree minimum template support.
    pub fn with_classifier_min_support(mut self, support: u32) -> Self {
        self.classifier_min_support = support;
        self
    }

    /// Sets the FT-tree maximum template depth.
    pub fn with_classifier_max_depth(mut self, depth: usize) -> Self {
        self.classifier_max_depth = depth;
        self
    }
}

/// The final report handed to operators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Every incident, ranked by severity (highest first).
    pub incidents: Vec<ScoredIncident>,
    /// Automatic SOP plans for the incidents that matched a known-failure
    /// rule.
    pub sop_plans: Vec<(IncidentId, SopPlan)>,
    /// Preprocessing counters (Fig. 8b's data).
    pub preprocess: PreprocessStats,
    /// Ingestion-guard counters: rejects per reason, late drops, watermark.
    #[serde(default)]
    pub ingest: IngestStats,
    /// The severity threshold in force.
    pub severity_threshold: f64,
    /// Faults the fault plane injected during this run (empty when
    /// injection is disabled).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub faults: Vec<InjectedFault>,
    /// Dead letters quarantined during this run — guard rejects plus
    /// alerts preserved by injected faults (empty when nothing was
    /// rejected).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub dead_letters: Vec<DeadLetter>,
}

impl AnalysisReport {
    /// Incidents at or above the severity threshold — what operators are
    /// actually paged for (§6.4).
    pub fn actionable(&self) -> impl Iterator<Item = &ScoredIncident> {
        self.incidents
            .iter()
            .filter(|s| s.score() >= self.severity_threshold)
    }

    /// The SOP plan for an incident, if a known-failure rule matched.
    pub fn sop_for(&self, id: IncidentId) -> Option<&SopPlan> {
        self.sop_plans
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, p)| p)
    }

    /// A truncated, highest-severity-first context block for an LLM
    /// diagnostic assistant (§9: "SkyNet truncates the monitoring results
    /// to maintain compliance with the LLM input length constraints
    /// without sacrificing valuable information"). Whole incidents are
    /// included in rank order until the budget is exhausted; an incident
    /// is never split. The budget counts `char`s, not bytes, so multi-byte
    /// location names cannot skew the cut-off.
    pub fn llm_context(&self, max_chars: usize) -> String {
        let mut out = String::new();
        let mut used = 0usize;
        for scored in &self.incidents {
            let block = format!(
                "incident at {} (severity {:.1}, zoomed {}):\n{}\n",
                scored.incident.root,
                scored.score(),
                scored.zoom.location,
                scored.incident.report()
            );
            let block_chars = block.chars().count();
            if used.saturating_add(block_chars) > max_chars {
                break;
            }
            used += block_chars;
            out.push_str(&block);
        }
        out
    }

    /// Renders the ranked incident list with severities and zooms, Fig. 6
    /// style.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} incidents ({} actionable at threshold {}):",
            self.incidents.len(),
            self.actionable().count(),
            self.severity_threshold
        );
        for scored in &self.incidents {
            let _ = writeln!(
                s,
                "--- score {:.1} (impact {:.1} × time {:.2}), zoom: {} [{:?}]",
                scored.score(),
                scored.severity.impact,
                scored.severity.time_factor,
                scored.zoom.location,
                scored.zoom.method,
            );
            let _ = write!(s, "{}", scored.incident.report());
            if let Some(plan) = self.sop_for(scored.incident.id) {
                let _ = writeln!(s, "SOP: {} -> {:?}", plan.rule, plan.action);
            }
        }
        s
    }
}

/// Builder for [`SkyNet`] — the one way to assemble the pipeline.
///
/// ```
/// use skynet_core::{PipelineConfig, SkyNet};
/// use skynet_topology::{generate, GeneratorConfig};
/// use std::sync::Arc;
///
/// let topo = Arc::new(generate(&GeneratorConfig::small()));
/// let sky = SkyNet::builder(&topo)
///     .config(PipelineConfig::production())
///     .build();
/// # let _ = sky;
/// ```
#[derive(Debug)]
pub struct SkyNetBuilder {
    topo: Arc<Topology>,
    cfg: PipelineConfig,
    classifier: Option<Arc<SyslogClassifier>>,
    training: Option<Vec<(String, AlertKind)>>,
    observability: Option<Observability>,
}

impl SkyNetBuilder {
    /// Sets the pipeline configuration (defaults to
    /// [`PipelineConfig::default`]).
    pub fn config(mut self, cfg: PipelineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Trains the FT-tree syslog classifier on a labelled historical
    /// corpus at [`SkyNetBuilder::build`] time, using the config's
    /// `classifier_min_support` / `classifier_max_depth`. Without a corpus
    /// (or an explicit [`SkyNetBuilder::classifier`]) raw syslog becomes
    /// `Unclassified`.
    pub fn training(mut self, corpus: &[(String, AlertKind)]) -> Self {
        self.training = Some(corpus.to_vec());
        self
    }

    /// Uses an already-trained classifier (shared, not cloned, by every
    /// analysis run, shard and worker restart). Takes precedence over
    /// [`SkyNetBuilder::training`].
    pub fn classifier(mut self, classifier: Arc<SyslogClassifier>) -> Self {
        self.classifier = Some(classifier);
        self
    }

    /// Plugs in an external observability sink — share one
    /// [`Observability`] between several pipelines (or pre-register your
    /// own metrics next to SkyNet's). By default `build` creates a fresh
    /// one from the config's [`ObsConfig`].
    pub fn observability(mut self, obs: Observability) -> Self {
        self.observability = Some(obs);
        self
    }

    /// Assembles the pipeline.
    pub fn build(self) -> SkyNet {
        let classifier = self.classifier.or_else(|| {
            self.training.as_ref().map(|corpus| {
                Arc::new(SyslogClassifier::train(
                    corpus,
                    self.cfg.classifier_min_support,
                    self.cfg.classifier_max_depth,
                ))
            })
        });
        let obs = self
            .observability
            .unwrap_or_else(|| Observability::new(&self.cfg.obs));
        SkyNet {
            topo: self.topo,
            cfg: self.cfg,
            classifier,
            obs,
        }
    }

    /// Builds the pipeline and spawns it as the streaming runtime in one
    /// step — the builder-first spelling of
    /// [`SkyNet::stream`].
    pub fn stream(self) -> StreamingHandle {
        self.build().stream()
    }

    /// Builds the pipeline and starts the always-on multi-tenant ingest
    /// service: per-tenant ingest guards behind bounded queues, a
    /// replayable write-ahead log, snapshot/restore warm restarts and an
    /// optional TCP/JSON front door. See [`crate::serve`] for the
    /// architecture and [`ServeConfig`](crate::serve::ServeConfig) for the
    /// knobs.
    pub fn serve(
        self,
        cfg: crate::serve::ServeConfig,
    ) -> Result<crate::serve::ServiceHandle, crate::serve::ServeError> {
        crate::serve::ServiceHandle::start(self.build(), cfg)
    }
}

/// The assembled system.
#[derive(Debug)]
pub struct SkyNet {
    pub(crate) topo: Arc<Topology>,
    pub(crate) cfg: PipelineConfig,
    pub(crate) classifier: Option<Arc<SyslogClassifier>>,
    pub(crate) obs: Observability,
}

impl SkyNet {
    /// Starts assembling a pipeline for `topo`. See [`SkyNetBuilder`].
    pub fn builder(topo: &Arc<Topology>) -> SkyNetBuilder {
        SkyNetBuilder {
            topo: Arc::clone(topo),
            cfg: PipelineConfig::default(),
            classifier: None,
            training: None,
            observability: None,
        }
    }

    /// The topology under analysis.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The pipeline's observability handle: metrics snapshots, exporters
    /// and per-alert trace queries. Batch analyses accumulate into it;
    /// [`SkyNet::stream`] hands a clone of it to the
    /// [`StreamingHandle`].
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Every retained trace event of one alert — "where did alert X go?".
    pub fn explain(&self, trace: TraceId) -> Vec<TraceEvent> {
        self.obs.explain(trace)
    }

    /// The full stage trace of an incident's constituent alerts, in
    /// recording order.
    pub fn explain_incident(&self, incident: &Incident) -> Vec<TraceEvent> {
        let traces: Vec<TraceId> = incident.alerts.iter().map(|a| a.trace).collect();
        self.obs.explain_all(&traces)
    }

    /// Batch analysis of a recorded flood: guard, preprocess, locate until
    /// `horizon`, evaluate, rank, and match SOPs. Malformed or hopelessly
    /// late alerts are rejected (counted in the report's `ingest` stats)
    /// rather than analyzed.
    ///
    /// Borrowing convenience over [`SkyNet::analyze_owned`]: the recorded
    /// feed is copied once up front. Callers that own their flood should
    /// call `analyze_owned` directly and skip the copy.
    pub fn analyze(&self, alerts: &[RawAlert], ping: &PingLog, horizon: SimTime) -> AnalysisReport {
        self.analyze_owned(alerts.to_vec(), ping, horizon)
    }

    /// [`SkyNet::analyze`], taking ownership of the flood so no alert is
    /// cloned on the hot path.
    ///
    /// A recorded flood is the stream replayed: one engine — the one the
    /// streaming worker and every serving tenant drive — takes the whole
    /// flood a stage at a time (guard everything, preprocess everything
    /// released, locate everything emitted), which keeps each stage's
    /// working set hot. With `streaming.shards > 1` structured alerts route
    /// by region to one locator per shard and the completed incidents merge
    /// back into the canonical order; the report is byte-identical at any
    /// shard count.
    ///
    /// An injected panic is contained the way a serving tenant contains
    /// it: the alert in flight is lost (the guard and `locate-worker` sites
    /// quarantine it first), the engine keeps its state and the stage
    /// resumes behind the poisoned alert, each panic counted in
    /// `skynet_worker_restarts_total`. Nothing is replayed and there is no
    /// restart budget (`max_restarts` is the streaming worker's). Any
    /// other panic is a bug and unwinds into the caller.
    pub fn analyze_owned(
        &self,
        alerts: Vec<RawAlert>,
        ping: &PingLog,
        horizon: SimTime,
    ) -> AnalysisReport {
        let plane = FaultPlane::from_config(&self.cfg.faults, &self.obs);
        let dead = Arc::new(Mutex::new(DeadLetterQueue::new(
            self.cfg.streaming.guard.dead_letter_capacity,
        )));
        let mut engine = Engine::new(self, 0, dead, &plane);
        let reg = self.obs.registry();
        let restarts = reg.counter(
            "skynet_worker_restarts_total",
            "worker restarts performed by the supervisors",
        );
        // Runs one stage to completion, resuming it after every injected
        // panic — which fires on one alert, already past the engine's
        // cursor; a panic of any other origin would fire again on resume.
        let resume = |stage: &mut dyn FnMut()| {
            while let Err(panic) = std::panic::catch_unwind(AssertUnwindSafe(&mut *stage)) {
                if !panic.is::<FaultPanic>() {
                    std::panic::resume_unwind(panic);
                }
                restarts.inc();
            }
        };
        // Latency is observed once per stage per analysis, never per alert:
        // the hot loops stay free of clock reads.
        let mut mark = Instant::now();
        let mut lap = |stage: &str| {
            let now = Instant::now();
            reg.histogram(
                "skynet_stage_seconds",
                Some(("stage", stage)),
                &LATENCY_BUCKETS,
                "wall-clock seconds spent per pipeline phase",
            )
            .observe(now.duration_since(mark).as_secs_f64());
            mark = now;
        };
        let mut alerts = alerts.into_iter();
        resume(&mut || engine.admit(&mut alerts, horizon));
        lap("guard");
        resume(&mut || engine.preprocess());
        lap("preprocess");
        let mut incidents = Vec::new();
        resume(&mut || {
            engine.locate();
            incidents = engine.close(horizon);
        });
        lap("locate");
        let report = self.finish_report(&engine, incidents, ping, plane);
        lap("evaluate");
        report
    }

    /// Post-incident analysis for a batch run: every fault the report's
    /// run injected, the restart/shed counters, and the degradation
    /// timeline from the trace ring. For streaming use
    /// [`StreamingHandle::degradation_report`].
    pub fn degradation_report(&self, report: &AnalysisReport) -> DegradationReport {
        let fault_letters = report
            .dead_letters
            .iter()
            .filter(|l| l.reason == RejectReason::FaultInjected)
            .count() as u64;
        let restarts = self
            .obs
            .snapshot()
            .counter("skynet_worker_restarts_total", None);
        DegradationReport::assemble(
            report.faults.clone(),
            &self.obs,
            fault_letters,
            restarts,
            false,
            None,
        )
    }

    /// Scores a closed run's incidents against `ping` and assembles the
    /// report with the engine's counters and dead letters.
    pub(crate) fn finish_report(
        &self,
        engine: &Engine,
        incidents: Vec<Incident>,
        ping: &PingLog,
        plane: Option<Arc<FaultPlane>>,
    ) -> AnalysisReport {
        let evaluator = Evaluator::new(&self.topo, self.cfg.evaluator.clone()).with_faults(
            plane
                .as_ref()
                .and_then(|p| p.arm(InjectionSite::MatrixBuild, 0)),
            plane
                .as_ref()
                .and_then(|p| p.arm(InjectionSite::Evaluate, 0)),
        );
        let sop_fault = plane
            .as_ref()
            .and_then(|p| p.arm(InjectionSite::SopSelect, 0));
        let sop = SopEngine::standard(&self.topo);
        let mut sop_plans = Vec::new();
        for incident in &incidents {
            let trace = incident
                .alerts
                .first()
                .map(|a| a.trace)
                .unwrap_or(TraceId::NONE);
            if faultinject::trip(&sop_fault, trace, incident.last_seen) {
                continue;
            }
            if let Some(plan) = sop.match_incident(incident) {
                sop_plans.push((incident.id, plan));
            }
        }
        self.obs
            .registry()
            .counter(
                "skynet_incidents_completed_total",
                "incidents completed by the locator",
            )
            .add(incidents.len() as u64);
        let mut memo = MatrixMemo::new().with_observability(&self.obs);
        let scored = evaluator.rank_with(incidents, ping, &mut memo);
        let tracer = self.obs.tracer();
        if tracer.is_enabled() {
            for s in &scored {
                for alert in &s.incident.alerts {
                    tracer.record(
                        alert.trace,
                        s.incident.last_seen,
                        Stage::Scored(s.incident.id),
                    );
                }
            }
        }
        let dead_letters = engine.dead_letters().lock().letters().cloned().collect();
        AnalysisReport {
            incidents: scored,
            sop_plans,
            preprocess: engine.preprocess_stats(),
            ingest: engine.ingest_stats(),
            severity_threshold: self.cfg.evaluator.severity_threshold,
            faults: plane.as_ref().map(|p| p.ledger()).unwrap_or_default(),
            dead_letters,
        }
    }
}

/// Merges per-shard completed incidents into the canonical report order
/// and renumbers their ids.
///
/// Each shard's locator assigns ids from its own counter, so raw ids are a
/// function of the sharding layout. The merge erases that: incidents sort
/// by the intrinsic key `(first_seen, root, last_seen)` — total on real
/// data because two incidents with the same root live in the same region,
/// hence the same shard, where the stable sort keeps their locator
/// completion order, itself identical across layouts — and ids are
/// reassigned densely in that order. The 1-shard path goes through the
/// same merge, which is what makes reports byte-comparable across shard
/// counts.
pub(crate) fn merge_incidents(per_shard: Vec<Vec<Incident>>) -> Vec<Incident> {
    let mut all: Vec<Incident> = per_shard.into_iter().flatten().collect();
    all.sort_by(|a, b| {
        (a.first_seen, &a.root, a.last_seen).cmp(&(b.first_seen, &b.root, b.last_seen))
    });
    for (i, incident) in all.iter_mut().enumerate() {
        incident.id = IncidentId::from_index(i);
    }
    all
}

/// Events accepted by the streaming worker.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A raw alert from any monitoring tool.
    Alert(RawAlert),
    /// A lossy ping sample for the reachability matrix.
    Ping(PingSample),
    /// Advance the pipeline's clock without an alert: drives locator
    /// timeouts through quiet periods and arms the ingestion guard's
    /// future-timestamp check.
    Tick(SimTime),
    /// End of stream: finalize all open incidents and stop.
    Flush,
    /// Chaos hook: makes the worker panic when processed, exercising its
    /// panic containment. Costs one restart.
    ChaosPanic,
}

/// An incident emitted by the streaming pipeline: the scored incident plus
/// the SOP plan a known-failure rule matched, mirroring what the batch
/// report records in `sop_plans`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamIncident {
    /// The evaluated incident.
    pub scored: ScoredIncident,
    /// The automatic SOP plan, if a rule matched.
    pub sop: Option<SopPlan>,
}

/// Liveness/health probe result for a long-lived pipeline handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// The worker is still running.
    pub alive: bool,
    /// Worker panics caught so far (each cost the event or completed
    /// incident in flight; the engine carried on).
    pub restarts: u32,
    /// The streaming worker exhausted its panic budget and stopped.
    pub gave_up: bool,
    /// The terminal degradation cause when `gave_up` is set: the error
    /// behind the panic that exhausted the budget (an injected fault names
    /// its site; anything else surfaces as
    /// [`SkyNetError::WorkerPanicked`]).
    pub degraded: Option<SkyNetError>,
    /// Events currently queued in the channel.
    pub queued_events: usize,
}

/// Every counter the streaming pipeline keeps, read from the metrics
/// registry in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IngestSnapshot {
    /// Preprocessing counters (including producer-side shed counts).
    pub preprocess: PreprocessStats,
    /// Ingestion-guard counters.
    pub ingest: IngestStats,
    /// Worker panics caught so far.
    pub restarts: u32,
}

impl IngestSnapshot {
    /// Reads the series the guard, the preprocessor and the shedding front
    /// door bump as they work — one engine feeds them for the life of a
    /// stream, so they *are* its counters.
    fn read(snap: &RegistrySnapshot, restarts: u32) -> Self {
        let total = |name: &str| snap.counter(name, None);
        let rejected = |reason: RejectReason| {
            snap.counter("skynet_ingest_rejected_total", Some(reason.label()))
        };
        let watermark_ms = snap.gauge("skynet_ingest_watermark_seconds", None) * 1e3;
        IngestSnapshot {
            preprocess: PreprocessStats {
                raw: total("skynet_preprocess_raw_total"),
                emitted: total("skynet_preprocess_emitted_total"),
                deduplicated: total("skynet_preprocess_deduplicated_total"),
                filtered_sporadic: total("skynet_preprocess_filtered_sporadic_total"),
                filtered_uncorroborated: total("skynet_preprocess_filtered_uncorroborated_total"),
                shed_abnormal: snap.counter("skynet_shed_total", Some("abnormal")),
                shed_root_cause: snap.counter("skynet_shed_total", Some("root-cause")),
            },
            ingest: IngestStats {
                accepted: total("skynet_ingest_accepted_total"),
                reordered: total("skynet_ingest_reordered_total"),
                rejected_off_topology: rejected(RejectReason::OffTopology),
                rejected_stale: rejected(RejectReason::StaleTimestamp),
                rejected_future: rejected(RejectReason::FutureTimestamp),
                rejected_duplicate: rejected(RejectReason::Duplicate),
                rejected_corrupt: rejected(RejectReason::CorruptBody),
                rejected_injected: rejected(RejectReason::FaultInjected),
                // The gauge holds whole milliseconds over 1e3: the round
                // trip is exact.
                watermark: SimTime::from_millis(watermark_ms.round() as u64),
            },
            restarts,
        }
    }
}

/// The shedding policy (graceful degradation under flood, §6.2):
/// [`AlertClass::Failure`] evidence is never shed — losing it costs
/// detection recall; [`AlertClass::Abnormal`] alerts shed once the queue
/// passes the `high_water` fraction of `capacity`; [`AlertClass::RootCause`]
/// alerts shed only when the queue is completely full.
pub fn should_shed(class: AlertClass, queued: usize, capacity: usize, high_water: f64) -> bool {
    match class {
        AlertClass::Failure => false,
        AlertClass::Abnormal => (queued as f64) >= (capacity as f64) * high_water,
        AlertClass::RootCause => queued >= capacity,
    }
}

/// Worker lifecycle read and written as one unit: separate
/// `alive`/`gave_up`/`restarts` atomics would allow a [`HealthReport`] to
/// pair a fresh `restarts` with a stale `gave_up`.
#[derive(Debug, Clone, Copy)]
struct WorkerState {
    alive: bool,
    gave_up: bool,
    restarts: u32,
    /// Why the budget ran out, preserved from the final caught panic.
    degraded: Option<SkyNetError>,
}

/// What the handle and the worker share besides the channels.
#[derive(Debug)]
struct Monitor {
    state: Mutex<WorkerState>,
    /// Events sent and not yet taken by the worker — what shedding and the
    /// health probe read. Counted before the send, so producers blocked on
    /// a full channel show too.
    queued: AtomicUsize,
    restarts_metric: Counter,
    shed_abnormal: Counter,
    shed_root_cause: Counter,
}

impl Monitor {
    fn new(obs: &Observability) -> Self {
        let reg = obs.registry();
        let shed = |class: &str| {
            reg.labeled_counter(
                "skynet_shed_total",
                Some(("class", class)),
                "alerts shed by the producer under load, by class",
            )
        };
        Monitor {
            state: Mutex::new(WorkerState {
                alive: true,
                gave_up: false,
                restarts: 0,
                degraded: None,
            }),
            queued: AtomicUsize::new(0),
            restarts_metric: reg.counter(
                "skynet_worker_restarts_total",
                "worker panics caught and contained",
            ),
            shed_abnormal: shed("abnormal"),
            shed_root_cause: shed("root-cause"),
        }
    }

    fn state(&self) -> WorkerState {
        *self.state.lock()
    }
}

/// Handle to a running streaming pipeline.
#[derive(Debug)]
pub struct StreamingHandle {
    /// Scored incidents (with their SOP plans) arrive here as their trees
    /// finalize.
    pub incidents: Receiver<StreamIncident>,
    /// Quarantined rejects with their reasons.
    pub dead_letters: Arc<Mutex<DeadLetterQueue>>,
    events: SyncSender<StreamEvent>,
    event_capacity: usize,
    /// Worker thread handle, taken by the first [`StreamingHandle::join`].
    worker: Mutex<Option<JoinHandle<()>>>,
    monitor: Arc<Monitor>,
    obs: Observability,
    plane: Option<Arc<FaultPlane>>,
    shed_high_water: f64,
}

impl StreamingHandle {
    /// Queues one event, blocking while the channel is full. Prefer
    /// [`StreamingHandle::send_alert`] for alerts so the shedding policy
    /// applies. Fails with [`SkyNetError::ChannelClosed`] once the worker
    /// has stopped.
    pub fn send(&self, event: StreamEvent) -> Result<(), SkyNetError> {
        self.monitor.queued.fetch_add(1, Ordering::Relaxed);
        self.events.send(event).map_err(|_| {
            self.monitor.queued.fetch_sub(1, Ordering::Relaxed);
            SkyNetError::ChannelClosed
        })
    }

    /// Submits one alert with class-aware load shedding. `Failure`-class
    /// alerts always block until queued (they are never shed); `Abnormal`
    /// alerts are shed once the channel passes the high-water mark,
    /// `RootCause` alerts only when it is full. Shed counts surface in
    /// [`PreprocessStats::shed_abnormal`] / [`PreprocessStats::shed_root_cause`].
    ///
    /// Raw syslog text is unclassified at this point and treated as
    /// `Abnormal` for shedding purposes.
    pub fn send_alert(&self, raw: RawAlert) -> Result<(), SkyNetError> {
        let class = raw.known_kind().map_or(AlertClass::Abnormal, |k| k.class());
        if class == AlertClass::Failure {
            return self.send(StreamEvent::Alert(raw));
        }
        let queued = self.monitor.queued.load(Ordering::Relaxed);
        if should_shed(class, queued, self.event_capacity, self.shed_high_water) {
            self.note_shed(class, &raw);
            return Err(SkyNetError::Shed { class });
        }
        self.monitor.queued.fetch_add(1, Ordering::Relaxed);
        let refused = match self.events.try_send(StreamEvent::Alert(raw)) {
            Ok(()) => return Ok(()),
            Err(refused) => refused,
        };
        self.monitor.queued.fetch_sub(1, Ordering::Relaxed);
        match refused {
            TrySendError::Full(event) => {
                if let StreamEvent::Alert(raw) = event {
                    self.note_shed(class, &raw);
                }
                Err(SkyNetError::Shed { class })
            }
            TrySendError::Disconnected(_) => Err(SkyNetError::ChannelClosed),
        }
    }

    fn note_shed(&self, class: AlertClass, raw: &RawAlert) {
        match class {
            AlertClass::Abnormal => self.monitor.shed_abnormal.inc(),
            AlertClass::RootCause => self.monitor.shed_root_cause.inc(),
            AlertClass::Failure => {}
        }
        // Only alerts that already carry a trace id (re-submissions) show
        // up here; the guard has not assigned ids yet for fresh ones.
        self.obs
            .tracer()
            .record(raw.trace, raw.timestamp, Stage::Shed(class));
    }

    /// Waits for the worker thread to exit (after a
    /// [`StreamEvent::Flush`], once every producer hung up, or when the
    /// panic budget ran out). The handle stays usable afterwards —
    /// health, counters and exporters all read state that outlives the
    /// worker. A second call returns `Ok` at once.
    pub fn join(&self) -> std::thread::Result<()> {
        match self.worker.lock().take() {
            Some(worker) => worker.join(),
            None => Ok(()),
        }
    }

    /// The liveness probe. All three lifecycle fields come from one lock
    /// acquisition, so `restarts` can never outrun `gave_up`.
    pub fn health(&self) -> HealthReport {
        let s = self.monitor.state();
        HealthReport {
            alive: s.alive,
            restarts: s.restarts,
            gave_up: s.gave_up,
            degraded: s.degraded,
            queued_events: self.monitor.queued.load(Ordering::Relaxed),
        }
    }

    /// Every fault the injection policy fired so far, in canonical
    /// (site, lane, ordinal) order. Empty when injection is disabled.
    pub fn injected_faults(&self) -> Vec<InjectedFault> {
        self.plane.as_ref().map(|p| p.ledger()).unwrap_or_default()
    }

    /// Reconstructs the degradation story of the stream so far: the fault
    /// ledger, restart/shed counters, fault-quarantined dead letters, the
    /// degradation timeline from the trace ring, and — if the worker gave
    /// up — the terminal cause.
    pub fn degradation_report(&self) -> DegradationReport {
        let health = self.health();
        let fault_letters = self.dead_letters.lock().count(RejectReason::FaultInjected);
        DegradationReport::assemble(
            self.injected_faults(),
            &self.obs,
            fault_letters,
            u64::from(health.restarts),
            health.gave_up,
            health.degraded,
        )
    }

    /// True while the worker is running.
    pub fn is_alive(&self) -> bool {
        self.monitor.state().alive
    }

    /// Live preprocessing counters, shed counts included.
    pub fn preprocess_stats(&self) -> PreprocessStats {
        self.snapshot().preprocess
    }

    /// Live ingestion-guard counters.
    pub fn ingest_stats(&self) -> IngestStats {
        self.snapshot().ingest
    }

    /// Every counter in one pass over the registry. The worker bumps them
    /// as it goes, so a snapshot taken mid-feed can catch an alert between
    /// two stages; once the worker is idle or has exited it is exact.
    pub fn snapshot(&self) -> IngestSnapshot {
        IngestSnapshot::read(&self.obs.snapshot(), self.monitor.state().restarts)
    }

    /// The observability handle shared with the worker: registry,
    /// exporters and the trace ring.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// The retained stage trace of one alert, oldest first.
    pub fn explain(&self, trace: TraceId) -> Vec<TraceEvent> {
        self.obs.explain(trace)
    }
}

impl Exporter for SkyNet {
    fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.obs.snapshot()
    }
}

impl Exporter for StreamingHandle {
    fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.obs.snapshot()
    }
}

impl SkyNet {
    /// Spawns this pipeline as a streaming worker fed through a bounded
    /// channel — the paper's production deployment shape (§6.2). Per the
    /// tokio guide this workload is CPU-bound stream processing, so it runs
    /// on a plain OS thread with `std::sync::mpsc` channels. Prefer reaching
    /// this through the builder: `SkyNet::builder(topo).config(cfg).stream()`.
    pub fn stream(self) -> StreamingHandle {
        let scfg = &self.cfg.streaming;
        let event_capacity = scfg.event_capacity.max(1);
        let (events, event_rx) = sync_channel::<StreamEvent>(event_capacity);
        let (incident_tx, incidents) =
            sync_channel::<StreamIncident>(scfg.incident_capacity.max(1));
        let dead_letters = Arc::new(Mutex::new(DeadLetterQueue::new(
            scfg.guard.dead_letter_capacity,
        )));
        let shed_high_water = scfg.shed_high_water;
        let obs = self.obs.clone();
        let monitor = Arc::new(Monitor::new(&obs));
        let plane = FaultPlane::from_config(&self.cfg.faults, &obs);

        let worker = {
            let (dead, monitor, plane) = (
                Arc::clone(&dead_letters),
                Arc::clone(&monitor),
                plane.clone(),
            );
            std::thread::Builder::new()
                .name("skynet-pipeline".into())
                .spawn(move || {
                    let _ = run_worker(&self, &event_rx, &incident_tx, dead, &monitor, plane);
                    monitor.state.lock().alive = false;
                    // Dropping `event_rx`/`incident_tx` here unblocks
                    // producers (sends fail with `ChannelClosed`) and ends
                    // the consumer's iterator.
                })
                .expect("spawning the pipeline worker thread")
        };

        StreamingHandle {
            incidents,
            dead_letters,
            events,
            event_capacity,
            worker: Mutex::new(Some(worker)),
            monitor,
            obs,
            plane,
            shed_high_water,
        }
    }
}

/// Runs `step` under `catch_unwind`: `Some(true)` when it completed,
/// `Some(false)` when it panicked within the budget (counted as one
/// restart), `None` when the panic spent the budget and the worker gives up
/// — in a terminal state that names what killed it: an injected-fault panic
/// its injection site, anything else an ordinary worker panic.
fn contain(monitor: &Monitor, budget: u32, step: impl FnOnce()) -> Option<bool> {
    let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(step)) else {
        return Some(true);
    };
    monitor.restarts_metric.inc();
    let mut state = monitor.state.lock();
    state.restarts += 1;
    if state.restarts <= budget {
        return Some(false);
    }
    state.gave_up = true;
    state.degraded = Some(match payload.downcast_ref::<FaultPanic>() {
        Some(fault) => SkyNetError::FaultInjected { site: fault.0 },
        None => SkyNetError::WorkerPanicked {
            restarts: state.restarts,
        },
    });
    None
}

/// The streaming worker: one [`Engine`] (N locators when `shards = N`) for
/// the life of the stream, plus the evaluator, matrix memo and SOP engine
/// completed incidents are scored with.
///
/// A panic is contained the way a serving tenant contains it: the event
/// left the channel before work on it started, so it alone is lost (the
/// guard and `locate-worker` sites quarantine the alert first) and the
/// engine resumes behind it. A panic while scoring costs that incident, not
/// the completed ones queued behind it. Every caught panic counts against
/// `max_restarts`, the one thing batch and serving do not have; `None` is
/// the worker giving up.
fn run_worker(
    skynet: &SkyNet,
    events: &Receiver<StreamEvent>,
    incidents: &SyncSender<StreamIncident>,
    dead: Arc<Mutex<DeadLetterQueue>>,
    monitor: &Monitor,
    plane: Option<Arc<FaultPlane>>,
) -> Option<()> {
    // The streaming feed is one anonymous tenant on lane 0.
    let arm = |site: InjectionSite| plane.as_ref().and_then(|p| p.arm(site, 0));
    let mut engine = Engine::new(skynet, 0, dead, &plane);
    let evaluator = Evaluator::new(&skynet.topo, skynet.cfg.evaluator.clone()).with_faults(
        arm(InjectionSite::MatrixBuild),
        arm(InjectionSite::Evaluate),
    );
    let mut memo = MatrixMemo::new().with_observability(&skynet.obs);
    let sop = SopEngine::standard(&skynet.topo);
    let sop_fault = arm(InjectionSite::SopSelect);
    let tracer = skynet.obs.tracer();
    let completed = skynet.obs.registry().counter(
        "skynet_incidents_completed_total",
        "incidents whose trees finalized",
    );
    // Evaluates and emits one completed incident, with its SOP plan
    // attached. Returns `false` when the consumer dropped the receiver.
    let mut emit = |incident: Incident, ping: &PingLog| -> bool {
        completed.inc();
        if tracer.is_enabled() {
            for alert in &incident.alerts {
                tracer.record(
                    alert.trace,
                    incident.last_seen,
                    Stage::IncidentCompleted(incident.id),
                );
            }
        }
        let sop_trace = incident.alerts.first().map_or(TraceId::NONE, |a| a.trace);
        let plan = if faultinject::trip(&sop_fault, sop_trace, incident.last_seen) {
            // SOP selection failed: the incident still ships, without
            // its automatic remediation plan.
            None
        } else {
            sop.match_incident(&incident)
        };
        let scored = evaluator.evaluate_memoized(incident, ping, &mut memo);
        if tracer.is_enabled() {
            for alert in &scored.incident.alerts {
                tracer.record(
                    alert.trace,
                    scored.incident.last_seen,
                    Stage::Scored(scored.incident.id),
                );
            }
        }
        incidents.send(StreamIncident { scored, sop: plan }).is_ok()
    };
    let budget = skynet.cfg.streaming.max_restarts;
    // Completed incidents wait here, outside the catch.
    let mut ready: VecDeque<Incident> = VecDeque::new();
    loop {
        // Every producer hanging up ends the stream like a `Flush`.
        let event = events.recv().map_or(StreamEvent::Flush, |event| {
            monitor.queued.fetch_sub(1, Ordering::Relaxed);
            event
        });
        let last = matches!(event, StreamEvent::Flush);
        let mut done = contain(monitor, budget, || match event {
            StreamEvent::Alert(raw) => engine.alert(raw),
            StreamEvent::Ping(sample) => engine.ping(sample),
            StreamEvent::Tick(now) => engine.tick(now),
            StreamEvent::Flush => engine.flush(),
            StreamEvent::ChaosPanic => panic!("chaos: injected pipeline worker panic"),
        })?;
        // Only the flush is retried: each retry resumes behind the alert
        // that panicked, releasing and finalizing what is left.
        while last && !done {
            done = contain(monitor, budget, || engine.flush())?;
        }
        ready.extend(engine.take_completed());
        while let Some(incident) = ready.pop_front() {
            let mut open = true;
            contain(monitor, budget, || open = emit(incident, engine.ping_log()))?;
            if !open {
                return Some(()); // receiver gone
            }
        }
        if last {
            return Some(());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use skynet_model::{DataSource, LocationPath};
    use skynet_topology::{generate, DeviceRole, GeneratorConfig, TopologyBuilder};

    pub(crate) fn topo() -> Arc<Topology> {
        Arc::new(generate(&GeneratorConfig::small()))
    }

    fn flood(site: &LocationPath) -> Vec<RawAlert> {
        let mut alerts = Vec::new();
        // Persistent ping loss (two types), link down, congestion.
        for t in 0..30u64 {
            alerts.push(
                RawAlert::known(
                    DataSource::Ping,
                    SimTime::from_secs(t * 2),
                    site.clone(),
                    AlertKind::PacketLossIcmp,
                )
                .with_magnitude(0.3),
            );
        }
        for t in 0..10u64 {
            alerts.push(
                RawAlert::known(
                    DataSource::Ping,
                    SimTime::from_secs(5 + t * 2),
                    site.clone(),
                    AlertKind::PacketLossTcp,
                )
                .with_magnitude(0.2),
            );
        }
        alerts.push(RawAlert::known(
            DataSource::Snmp,
            SimTime::from_secs(11),
            site.clone(),
            AlertKind::LinkDown,
        ));
        alerts.sort_by_key(|a| a.timestamp);
        alerts
    }

    #[test]
    fn batch_analysis_produces_a_ranked_actionable_report() {
        let t = topo();
        let site = t.clusters()[0].parent();
        let skynet = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let report = skynet.analyze(&flood(&site), &PingLog::new(), SimTime::from_mins(30));
        assert_eq!(report.incidents.len(), 1);
        let top = &report.incidents[0];
        assert_eq!(top.incident.root, site);
        assert!(top.score() > 0.0);
        assert!(report.preprocess.raw > report.preprocess.emitted);
        assert_eq!(report.ingest.accepted, report.preprocess.raw);
        assert_eq!(report.ingest.rejected(), 0);
        let text = report.render();
        assert!(text.contains("score"));
        assert!(text.contains("Failure alerts"));
    }

    #[test]
    fn batch_analysis_quarantines_malformed_alerts() {
        let t = topo();
        let site = t.clusters()[0].parent();
        let mut alerts = flood(&site);
        alerts.push(
            RawAlert::known(
                DataSource::Ping,
                SimTime::from_secs(20),
                LocationPath::parse("Narnia|Wardrobe").unwrap(),
                AlertKind::PacketLossIcmp,
            )
            .with_magnitude(0.4),
        );
        alerts.push(
            RawAlert::known(
                DataSource::Snmp,
                SimTime::from_secs(21),
                site.clone(),
                AlertKind::TrafficCongestion,
            )
            .with_magnitude(f64::INFINITY),
        );
        alerts.sort_by_key(|a| a.timestamp);
        let skynet = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let report = skynet.analyze(&alerts, &PingLog::new(), SimTime::from_mins(30));
        assert_eq!(report.ingest.rejected_off_topology, 1);
        assert_eq!(report.ingest.rejected_corrupt, 1);
        // The garbage never reached the preprocessor.
        assert_eq!(report.ingest.accepted, report.preprocess.raw);
        // The clean flood still resolves to its incident.
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.incidents[0].incident.root, site);
    }

    #[test]
    fn streaming_matches_batch_incidents() {
        let t = topo();
        let site = t.clusters()[0].parent();
        let alerts = flood(&site);
        let skynet_batch = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let batch = skynet_batch.analyze(&alerts, &PingLog::new(), SimTime::from_mins(30));

        let skynet_stream = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let handle = skynet_stream.stream();
        for a in &alerts {
            handle.send(StreamEvent::Alert(a.clone())).unwrap();
        }
        handle
            .send(StreamEvent::Tick(SimTime::from_mins(30)))
            .unwrap();
        handle.send(StreamEvent::Flush).unwrap();
        let streamed: Vec<StreamIncident> = handle.incidents.iter().collect();
        handle.join().unwrap();

        assert_eq!(streamed.len(), batch.incidents.len());
        assert_eq!(
            streamed[0].scored.incident.root,
            batch.incidents[0].incident.root
        );
        assert_eq!(
            streamed[0].scored.incident.alerts.len(),
            batch.incidents[0].incident.alerts.len()
        );
        // SOP parity: what the batch report records, streaming attaches.
        assert_eq!(
            streamed[0].sop.as_ref(),
            batch.sop_for(batch.incidents[0].incident.id)
        );
        // Counter parity across the two execution modes.
        assert!(handle.preprocess_stats().raw > 0);
        assert_eq!(handle.preprocess_stats(), batch.preprocess);
        assert_eq!(handle.ingest_stats(), batch.ingest);
        assert!(handle.dead_letters.lock().is_empty());
    }

    #[test]
    fn llm_context_is_ranked_and_budgeted() {
        let t = topo();
        let site = t.clusters()[0].parent();
        let skynet = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let report = skynet.analyze(&flood(&site), &PingLog::new(), SimTime::from_mins(30));
        let full = report.llm_context(100_000);
        assert!(full.contains("incident at"));
        assert!(full.contains("Failure alerts"));
        // A tight budget truncates at whole-incident granularity.
        let tight = report.llm_context(10);
        assert!(tight.is_empty(), "too small for any whole incident");
        let medium = report.llm_context(full.len());
        assert_eq!(medium, full);
        assert!(report.llm_context(2_000).len() <= 2_000);
    }

    #[test]
    fn llm_context_budget_counts_chars_not_bytes() {
        // A hand-built two-device topology with multi-byte location names.
        let mut b = TopologyBuilder::new();
        let path = |d: &str| {
            LocationPath::parse(&format!("Région-Ω|Müncheñ|Lógica-1|Sítio-ß|Grün-K|{d}")).unwrap()
        };
        let d1 = b.add_device(DeviceRole::Leaf, path("Gerät-1"));
        let d2 = b.add_device(DeviceRole::Leaf, path("Gerät-2"));
        b.add_link(d1, d2, 4, 100.0);
        let t = Arc::new(b.build());
        let site = t.clusters()[0].parent();
        let skynet = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let report = skynet.analyze(&flood(&site), &PingLog::new(), SimTime::from_mins(30));
        assert_eq!(report.incidents.len(), 1);
        let full = report.llm_context(usize::MAX);
        assert!(
            full.len() > full.chars().count(),
            "context must contain multi-byte characters"
        );
        // A budget of exactly the char count keeps the whole incident; a
        // byte-based check would wrongly truncate here.
        assert_eq!(report.llm_context(full.chars().count()), full);
        // One char less and the (single, unsplittable) incident is dropped.
        assert!(report.llm_context(full.chars().count() - 1).is_empty());
    }

    #[test]
    fn quiet_stream_produces_nothing() {
        let t = topo();
        let skynet = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let report = skynet.analyze(&[], &PingLog::new(), SimTime::from_mins(30));
        assert!(report.incidents.is_empty());
        assert_eq!(report.actionable().count(), 0);
        assert_eq!(report.ingest.accepted, 0);
    }

    #[test]
    fn tick_drives_incident_finalization_through_quiet_periods() {
        let t = topo();
        let site = t.clusters()[0].parent();
        let skynet = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let handle = skynet.stream();
        for a in flood(&site) {
            handle.send(StreamEvent::Alert(a)).unwrap();
        }
        // Nothing finalized yet (incident still within its idle window).
        assert!(handle.incidents.try_recv().is_err());
        // A tick 20 minutes later times the incident out without new alerts.
        handle
            .send(StreamEvent::Tick(SimTime::from_mins(21)))
            .unwrap();
        let emitted = handle
            .incidents
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("incident finalizes on tick");
        assert_eq!(emitted.scored.incident.root, site);
        handle.send(StreamEvent::Flush).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn supervisor_restarts_worker_after_poison_event() {
        let t = topo();
        let alerts = two_region_flood(&t);
        for shards in [1, 2] {
            let mut cfg = PipelineConfig::production();
            cfg.streaming.shards = shards;
            let handle = SkyNet::builder(&t).config(cfg).stream();
            assert!(handle.is_alive());
            // Poison first, then the flood: the worker must analyze it as
            // if nothing happened. One worker owns every locator, so the
            // panic costs one restart at any shard count.
            handle.send(StreamEvent::ChaosPanic).unwrap();
            for a in &alerts {
                handle.send(StreamEvent::Alert(a.clone())).unwrap();
            }
            handle
                .send(StreamEvent::Tick(SimTime::from_mins(30)))
                .unwrap();
            handle.send(StreamEvent::Flush).unwrap();
            let streamed: Vec<StreamIncident> = handle.incidents.iter().collect();
            handle.join().unwrap();
            assert_eq!(streamed.len(), 2, "both regions still produce incidents");
            let health = handle.health();
            assert_eq!(health.restarts, 1, "shards = {shards}");
            assert!(!health.gave_up);
            assert!(!health.alive, "worker exited after flush");
            assert_eq!(handle.snapshot().restarts, 1);
        }
    }

    #[test]
    fn supervisor_gives_up_after_restart_cap() {
        let t = topo();
        let mut cfg = PipelineConfig::production();
        cfg.streaming.max_restarts = 1;
        let skynet = SkyNet::builder(&t).config(cfg).build();
        let handle = skynet.stream();
        handle.send(StreamEvent::ChaosPanic).unwrap();
        handle.send(StreamEvent::ChaosPanic).unwrap();
        handle.join().unwrap();
        let health = handle.health();
        assert!(health.gave_up);
        assert!(!health.alive);
        assert_eq!(health.restarts, 2);
        // The stream is dead: further submissions fail cleanly.
        let site = t.clusters()[0].parent();
        let alert = RawAlert::known(
            DataSource::Snmp,
            SimTime::from_secs(1),
            site,
            AlertKind::LinkDown,
        );
        assert_eq!(handle.send_alert(alert), Err(SkyNetError::ChannelClosed));
    }

    #[test]
    fn exhausted_supervisor_preserves_the_injected_cause() {
        use crate::faultinject::{FaultAction, FaultRule};
        let t = topo();
        let site = t.clusters()[0].parent();
        let mut cfg = PipelineConfig::production().with_faults(FaultConfig::seeded(17).with_rule(
            FaultRule::once(InjectionSite::LocateWorker, 2, FaultAction::Panic),
        ));
        cfg.streaming.max_restarts = 0;
        let handle = SkyNet::builder(&t).config(cfg).stream();
        for a in flood(&site) {
            // The worker dies mid-feed; later sends may hit a closed channel.
            if handle.send(StreamEvent::Alert(a)).is_err() {
                break;
            }
        }
        let _ = handle.send(StreamEvent::Flush);
        handle.join().unwrap();
        let health = handle.health();
        assert!(health.gave_up);
        assert_eq!(
            health.degraded,
            Some(SkyNetError::FaultInjected {
                site: InjectionSite::LocateWorker
            })
        );
    }

    /// A flood hitting one site in each of `small()`'s two regions — the
    /// smallest input that actually exercises cross-shard routing.
    pub(crate) fn two_region_flood(t: &Arc<Topology>) -> Vec<RawAlert> {
        let site = |region: &str| {
            t.clusters()
                .iter()
                .find(|c| c.segments()[0].as_ref() == region)
                .unwrap()
                .parent()
        };
        let mut alerts = flood(&site("Region-0"));
        alerts.extend(flood(&site("Region-1")));
        alerts.sort_by_key(|a| a.timestamp);
        alerts
    }

    #[test]
    fn sharded_batch_report_is_byte_identical() {
        let t = topo();
        let alerts = two_region_flood(&t);
        let mut ping = PingLog::new();
        ping.record(
            SimTime::from_secs(10),
            t.clusters()[0].clone(),
            t.clusters()[1].clone(),
            0.2,
        );
        let run = |shards: usize| {
            let mut cfg = PipelineConfig::production();
            cfg.streaming.shards = shards;
            SkyNet::builder(&t)
                .config(cfg)
                .build()
                .analyze(&alerts, &ping, SimTime::from_mins(30))
        };
        let baseline = run(1);
        assert_eq!(baseline.incidents.len(), 2, "one incident per region");
        // More shards than regions leaves some workers idle, never wrong.
        for shards in [2, 4, 7] {
            assert_eq!(run(shards), baseline, "shards = {shards}");
        }
    }

    /// The symbol-interned classify hot path must not change analysis
    /// output: a syslog-heavy flood analyzed with the production
    /// classifier and with the String-oracle classifier produces
    /// byte-identical report JSON at 1 and 4 shards.
    #[test]
    fn classifier_fast_path_report_is_byte_identical_to_oracle() {
        use rand::SeedableRng;
        use skynet_telemetry::tools::syslog::{labeled_corpus, render_message, syslog_kinds};

        let t = topo();
        let corpus = labeled_corpus(40, 77);
        let mut alerts = two_region_flood(&t);
        // Sprinkle raw syslog over a flooded site so classification sits on
        // the analyzed path.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(78);
        let kinds = syslog_kinds();
        let site = t.clusters()[0].parent();
        for i in 0..200u64 {
            let kind = kinds[(i as usize) % kinds.len()];
            alerts.push(RawAlert::syslog(
                SimTime::from_secs(i % 60),
                site.clone(),
                render_message(kind, &mut rng),
            ));
        }
        alerts.sort_by_key(|a| a.timestamp);
        let ping = PingLog::new();
        let run = |shards: usize, oracle: bool| {
            let classifier = SyslogClassifier::train(&corpus, 3, 8);
            let classifier = if oracle {
                classifier.with_string_oracle()
            } else {
                classifier
            };
            let mut cfg = PipelineConfig::production();
            cfg.streaming.shards = shards;
            let report = SkyNet::builder(&t)
                .config(cfg)
                .classifier(Arc::new(classifier))
                .build()
                .analyze(&alerts, &ping, SimTime::from_mins(30));
            serde_json::to_string(&report).expect("report serializes")
        };
        for shards in [1usize, 4] {
            assert_eq!(run(shards, false), run(shards, true), "shards = {shards}");
        }
    }

    #[test]
    fn sharded_streaming_produces_batch_incidents() {
        let t = topo();
        let alerts = two_region_flood(&t);
        let batch = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build()
            .analyze(&alerts, &PingLog::new(), SimTime::from_mins(30));

        let mut cfg = PipelineConfig::production();
        cfg.streaming.shards = 4;
        let handle = SkyNet::builder(&t).config(cfg).stream();
        for a in &alerts {
            handle.send(StreamEvent::Alert(a.clone())).unwrap();
        }
        handle
            .send(StreamEvent::Tick(SimTime::from_mins(30)))
            .unwrap();
        handle.send(StreamEvent::Flush).unwrap();
        let streamed: Vec<StreamIncident> = handle.incidents.iter().collect();
        handle.join().unwrap();

        // Shards emit in completion order, not ranked order; compare as
        // sets keyed by what the locator decided.
        let mut streamed_keys: Vec<_> = streamed
            .iter()
            .map(|s| {
                (
                    s.scored.incident.root.clone(),
                    s.scored.incident.alerts.len(),
                )
            })
            .collect();
        let mut batch_keys: Vec<_> = batch
            .incidents
            .iter()
            .map(|s| (s.incident.root.clone(), s.incident.alerts.len()))
            .collect();
        streamed_keys.sort();
        batch_keys.sort();
        assert_eq!(streamed_keys, batch_keys);
        // Ingestion stays sequential in front of the fan-out, so counter
        // parity with the batch run survives sharding.
        assert_eq!(handle.preprocess_stats(), batch.preprocess);
        assert_eq!(handle.ingest_stats(), batch.ingest);
    }

    #[test]
    fn shedding_policy_never_touches_failure_evidence() {
        // Failure-class evidence survives even a full queue.
        assert!(!should_shed(AlertClass::Failure, 4096, 4096, 0.75));
        // Abnormal alerts go first, at the high-water mark.
        assert!(should_shed(AlertClass::Abnormal, 3072, 4096, 0.75));
        assert!(!should_shed(AlertClass::Abnormal, 3071, 4096, 0.75));
        // Root-cause evidence sheds only when completely full.
        assert!(!should_shed(AlertClass::RootCause, 4095, 4096, 0.75));
        assert!(should_shed(AlertClass::RootCause, 4096, 4096, 0.75));
    }

    #[test]
    fn send_alert_queues_and_classifies() {
        let t = topo();
        let site = t.clusters()[0].parent();
        let skynet = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let handle = skynet.stream();
        // A near-empty channel never sheds anything.
        for a in flood(&site) {
            handle.send_alert(a).unwrap();
        }
        handle
            .send(StreamEvent::Tick(SimTime::from_mins(30)))
            .unwrap();
        handle.send(StreamEvent::Flush).unwrap();
        let streamed: Vec<StreamIncident> = handle.incidents.iter().collect();
        handle.join().unwrap();
        assert_eq!(streamed.len(), 1);
        let snap = handle.snapshot();
        assert_eq!(snap.preprocess.shed(), 0);
        assert_eq!(snap.ingest.accepted, 41);
    }

    #[test]
    fn batch_analysis_feeds_the_metrics_registry() {
        let t = topo();
        let site = t.clusters()[0].parent();
        let skynet = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let report = skynet.analyze(&flood(&site), &PingLog::new(), SimTime::from_mins(30));
        let snap = skynet.observability().snapshot();
        assert_eq!(
            snap.counter("skynet_ingest_accepted_total", None),
            report.ingest.accepted
        );
        assert_eq!(
            snap.counter("skynet_preprocess_raw_total", None),
            report.preprocess.raw
        );
        assert_eq!(
            snap.counter("skynet_incidents_completed_total", None),
            report.incidents.len() as u64
        );
        let prom = skynet.prometheus();
        assert!(prom.contains("skynet_stage_seconds_bucket"));
        assert!(skynet.json().contains("skynet_ingest_accepted_total"));
        // Explain reconstructs the winning incident's constituent traces.
        let top = &report.incidents[0];
        let events = skynet.explain_incident(&top.incident);
        assert!(events
            .iter()
            .any(|e| matches!(e.stage, Stage::GuardAdmitted)));
        assert!(events
            .iter()
            .any(|e| matches!(e.stage, Stage::Scored(id) if id == top.incident.id)));
    }

    #[test]
    fn streaming_observability_exports_and_explains() {
        let t = topo();
        let site = t.clusters()[0].parent();
        let skynet = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let handle = skynet.stream();
        for a in flood(&site) {
            handle.send_alert(a).unwrap();
        }
        handle
            .send(StreamEvent::Tick(SimTime::from_mins(30)))
            .unwrap();
        handle.send(StreamEvent::Flush).unwrap();
        let streamed: Vec<StreamIncident> = handle.incidents.iter().collect();
        handle.join().unwrap();
        assert_eq!(streamed.len(), 1);
        let prom = handle.prometheus();
        assert!(prom.contains("skynet_ingest_accepted_total 41"));
        assert!(prom.contains("skynet_incidents_completed_total 1"));
        assert!(handle.json().contains("skynet_preprocess_emitted_total"));
        assert!(handle.table().contains("skynet_ingest_accepted_total"));
        // Every constituent alert's trace runs guard → locate → score.
        for alert in &streamed[0].scored.incident.alerts {
            let events = handle.explain(alert.trace);
            assert!(events
                .iter()
                .any(|e| matches!(e.stage, Stage::GuardAdmitted)));
            assert!(events
                .iter()
                .any(|e| matches!(e.stage, Stage::LocateInserted)));
            assert!(events.iter().any(|e| matches!(e.stage, Stage::Scored(_))));
        }
    }

    /// The worker keeps its engine across a panic, so the guard still
    /// remembers the flood when it is replayed: nothing is admitted twice
    /// and no counter moves backwards.
    #[test]
    fn restart_counters_never_regress() {
        let t = topo();
        let site = t.clusters()[0].parent();
        // The whole flood stays inside the reorder window: a replayed alert
        // is an exact duplicate, not a late one.
        let mut cfg = PipelineConfig::production();
        cfg.streaming.guard.skew_window = skynet_model::SimDuration::from_secs(60);
        let handle = SkyNet::builder(&t).config(cfg).stream();
        for a in flood(&site) {
            handle.send(StreamEvent::Alert(a)).unwrap();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while handle.snapshot().ingest.accepted < 41 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let before = handle.snapshot();
        assert_eq!(before.ingest.accepted, 41);
        handle.send(StreamEvent::ChaosPanic).unwrap();
        for a in flood(&site) {
            handle.send(StreamEvent::Alert(a)).unwrap();
        }
        handle.send(StreamEvent::Flush).unwrap();
        let streamed: Vec<StreamIncident> = handle.incidents.iter().collect();
        handle.join().unwrap();
        assert_eq!(streamed.len(), 1);
        let after = handle.snapshot();
        assert_eq!(after.restarts, 1);
        assert_eq!(after.ingest.accepted, 41);
        assert_eq!(after.ingest.rejected_duplicate, 41);
        assert_eq!(
            handle.dead_letters.lock().count(RejectReason::Duplicate),
            41
        );
        assert!(after.preprocess.raw >= before.preprocess.raw);
        assert_eq!(after.preprocess.raw, 41);
        assert_eq!(
            handle
                .observability()
                .snapshot()
                .counter("skynet_worker_restarts_total", None),
            1
        );
    }

    /// A worker panic costs the event in flight and nothing else: wherever
    /// in the flood it lands, the stream still reports batch's incident and
    /// every admitted alert still reaches the preprocessor.
    #[test]
    fn a_panic_at_any_point_of_the_flood_leaves_the_incident_intact() {
        let t = topo();
        let site = t.clusters()[0].parent();
        let alerts = flood(&site);
        let horizon = SimTime::from_mins(30);
        let batch = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build()
            .analyze(&alerts, &PingLog::new(), horizon);
        let expected = &batch.incidents[0].incident;
        for cut in [0, 10, 20, 30, 38, 41] {
            let handle = SkyNet::builder(&t)
                .config(PipelineConfig::production())
                .stream();
            for (i, a) in alerts.iter().enumerate() {
                if i == cut {
                    handle.send(StreamEvent::ChaosPanic).unwrap();
                }
                handle.send(StreamEvent::Alert(a.clone())).unwrap();
            }
            if cut == alerts.len() {
                handle.send(StreamEvent::ChaosPanic).unwrap();
            }
            handle.send(StreamEvent::Tick(horizon)).unwrap();
            handle.send(StreamEvent::Flush).unwrap();
            let streamed: Vec<StreamIncident> = handle.incidents.iter().collect();
            handle.join().unwrap();

            assert_eq!(streamed.len(), 1, "panic before alert {cut}");
            let got = &streamed[0].scored.incident;
            assert_eq!(
                (&got.root, got.alerts.len(), got.first_seen, got.last_seen),
                (
                    &expected.root,
                    expected.alerts.len(),
                    expected.first_seen,
                    expected.last_seen
                ),
                "panic before alert {cut}"
            );
            assert_eq!(streamed[0].sop.as_ref(), batch.sop_for(expected.id));
            let snap = handle.snapshot();
            assert_eq!(snap.restarts, 1);
            assert_eq!(
                (snap.ingest.accepted, snap.preprocess.raw),
                (41, 41),
                "panic before alert {cut}"
            );
        }
    }
}
