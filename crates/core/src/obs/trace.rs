//! Per-alert stage tracing: "where did alert X go?".
//!
//! The ingestion guard assigns each accepted [`RawAlert`] a dense
//! [`TraceId`]; every stage that touches the alert afterwards records a
//! `Copy` [`TraceEvent`] into a bounded ring buffer. Events are tiny (id +
//! sim-timestamp + stage tag), recording is one short mutex hold with zero
//! allocation, and the ring overwrites its oldest entries under sustained
//! floods — the newest events always survive, which is the window an
//! operator asks about.
//!
//! [`RawAlert`]: skynet_model::RawAlert

use crate::error::RejectReason;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use skynet_model::{AlertClass, IncidentId, SimTime, TraceId};
use std::fmt;
use std::sync::Arc;

/// Why the preprocessor dropped (or absorbed) an alert instead of emitting
/// a structured alert for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// Absorbed into an open identical-alert group (stage 1 consolidation).
    Consolidated,
    /// Suppressed as a related surge ripple — another surge already
    /// represents the site (stage 2b).
    SurgeDuplicate,
    /// Held by the persistence gate and never reached the threshold
    /// (stage 2a).
    Sporadic,
    /// A traffic drop that found no corroborating alert in its window
    /// (stage 3).
    Uncorroborated,
}

impl DropReason {
    /// Stable lowercase label for exports and rendered traces.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::Consolidated => "consolidated",
            DropReason::SurgeDuplicate => "surge-duplicate",
            DropReason::Sporadic => "sporadic",
            DropReason::Uncorroborated => "uncorroborated",
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One step of an alert's life, recorded by the stage that performed it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Stage {
    /// The guard accepted the alert into the re-sequencing window.
    GuardAdmitted,
    /// The guard refused the alert (it went to the dead-letter queue).
    GuardRejected(RejectReason),
    /// The guard released the alert, time-ordered, to the preprocessor.
    GuardReleased,
    /// The streaming producer shed the alert under load before the guard.
    Shed(AlertClass),
    /// The preprocessor dropped or absorbed the alert.
    PreprocessDropped(DropReason),
    /// The preprocessor emitted a structured alert for this group.
    PreprocessEmitted,
    /// The router assigned the structured alert to a region shard.
    ShardRouted(u16),
    /// The locator inserted the alert into its alert trees.
    LocateInserted,
    /// The locator completed an incident containing this alert.
    IncidentCompleted(IncidentId),
    /// The evaluator scored the incident containing this alert.
    Scored(IncidentId),
    /// A fault-injection rule fired at this stage boundary while the alert
    /// (or its incident) was in flight.
    FaultInjected(crate::faultinject::InjectionSite),
    /// The `locate-worker` of this shard panicked while carrying the alert;
    /// recorded as the engine quarantines it, before the unwind reaches
    /// whoever restarts or resumes the worker.
    WorkerRestarted(u16),
}

impl Stage {
    /// Short human label used by rendered traces.
    pub fn label(&self) -> String {
        match self {
            Stage::GuardAdmitted => "guard:admitted".to_string(),
            Stage::GuardRejected(r) => format!("guard:rejected({r})"),
            Stage::GuardReleased => "guard:released".to_string(),
            Stage::Shed(class) => format!("shed({class})"),
            Stage::PreprocessDropped(r) => format!("preprocess:dropped({r})"),
            Stage::PreprocessEmitted => "preprocess:emitted".to_string(),
            Stage::ShardRouted(s) => format!("shard:routed({s})"),
            Stage::LocateInserted => "locate:inserted".to_string(),
            Stage::IncidentCompleted(id) => format!("locate:completed({id})"),
            Stage::Scored(id) => format!("evaluate:scored({id})"),
            Stage::FaultInjected(site) => format!("fault:injected({site})"),
            Stage::WorkerRestarted(lane) => format!("worker:restarted({lane})"),
        }
    }
}

/// One recorded trace step. `Copy` and allocation-free on purpose: the ring
/// holds these inline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// The alert this step belongs to.
    pub trace: TraceId,
    /// Pipeline (simulated) time of the step.
    pub at: SimTime,
    /// What happened.
    pub stage: Stage,
}

struct Ring {
    /// Preallocated storage; fills to capacity then wraps.
    slots: Vec<TraceEvent>,
    /// Next write position once the ring is full.
    head: usize,
    /// Total events ever recorded (≥ `slots.len()`).
    recorded: u64,
}

/// A bounded, mutex-guarded ring of [`TraceEvent`]s.
///
/// The ring keeps the newest `capacity` events; older events are
/// overwritten. Each writer's surviving events preserve its own write
/// order, and the newest event of every writer survives until `capacity`
/// further events arrive.
pub struct TraceRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl TraceRecorder {
    /// A ring holding at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity),
                head: 0,
                recorded: 0,
            }),
            capacity,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().recorded
    }

    /// Events overwritten so far.
    pub fn dropped(&self) -> u64 {
        let ring = self.ring.lock();
        ring.recorded - ring.slots.len() as u64
    }

    /// Appends one event, overwriting the oldest if full.
    pub fn record(&self, event: TraceEvent) {
        let mut ring = self.ring.lock();
        ring.recorded += 1;
        if ring.slots.len() < self.capacity {
            ring.slots.push(event);
        } else {
            let head = ring.head;
            ring.slots[head] = event;
            ring.head = (head + 1) % self.capacity;
        }
    }

    /// Discards every retained event (used when a restarted streaming
    /// worker re-issues trace ids from 1).
    pub fn clear(&self) {
        let mut ring = self.ring.lock();
        ring.slots.clear();
        ring.head = 0;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock();
        let (wrapped, recent) = ring.slots.split_at(ring.head);
        recent.iter().chain(wrapped.iter()).copied().collect()
    }

    /// The retained events of one trace id, oldest first.
    pub fn for_trace(&self, trace: TraceId) -> Vec<TraceEvent> {
        let mut events = self.events();
        events.retain(|e| e.trace == trace);
        events
    }
}

/// The cheap per-stage handle: a cloneable, possibly-disabled recorder
/// reference. When tracing is off this is a `None` and every call is a
/// no-op branch.
#[derive(Debug, Clone, Default)]
pub struct StageTracer(Option<Arc<TraceRecorder>>);

impl StageTracer {
    /// A tracer feeding the given recorder.
    pub fn new(recorder: Arc<TraceRecorder>) -> Self {
        StageTracer(Some(recorder))
    }

    /// The disabled tracer.
    pub fn disabled() -> Self {
        StageTracer(None)
    }

    /// True when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one step for `trace` (no-op when disabled or when the alert
    /// carries no trace id).
    #[inline]
    pub fn record(&self, trace: TraceId, at: SimTime, stage: Stage) {
        if let Some(recorder) = &self.0 {
            if trace.is_some() {
                recorder.record(TraceEvent { trace, at, stage });
            }
        }
    }

    /// The underlying recorder, if enabled.
    pub fn recorder(&self) -> Option<&Arc<TraceRecorder>> {
        self.0.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, at: u64, stage: Stage) -> TraceEvent {
        TraceEvent {
            trace: TraceId(trace),
            at: SimTime::from_secs(at),
            stage,
        }
    }

    #[test]
    fn ring_keeps_newest_events() {
        let rec = TraceRecorder::new(3);
        for i in 0..5 {
            rec.record(ev(i, i, Stage::GuardAdmitted));
        }
        let events: Vec<u64> = rec.events().iter().map(|e| e.trace.0).collect();
        assert_eq!(events, vec![2, 3, 4]);
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.dropped(), 2);
        assert_eq!(rec.capacity(), 3);
    }

    #[test]
    fn for_trace_filters_in_order() {
        let rec = TraceRecorder::new(16);
        rec.record(ev(1, 0, Stage::GuardAdmitted));
        rec.record(ev(2, 1, Stage::GuardAdmitted));
        rec.record(ev(1, 2, Stage::GuardReleased));
        rec.record(ev(1, 3, Stage::PreprocessEmitted));
        let steps: Vec<String> = rec
            .for_trace(TraceId(1))
            .iter()
            .map(|e| e.stage.label())
            .collect();
        assert_eq!(
            steps,
            vec!["guard:admitted", "guard:released", "preprocess:emitted"]
        );
    }

    #[test]
    fn clear_resets_retention_not_totals() {
        let rec = TraceRecorder::new(4);
        rec.record(ev(1, 0, Stage::GuardAdmitted));
        rec.record(ev(2, 0, Stage::GuardAdmitted));
        rec.clear();
        assert!(rec.events().is_empty());
        assert_eq!(rec.recorded(), 2);
        rec.record(ev(3, 1, Stage::GuardAdmitted));
        assert_eq!(rec.events().len(), 1);
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let t = StageTracer::disabled();
        assert!(!t.is_enabled());
        t.record(TraceId(1), SimTime::ZERO, Stage::GuardAdmitted);
        assert!(t.recorder().is_none());
    }

    #[test]
    fn tracer_skips_none_ids() {
        let rec = Arc::new(TraceRecorder::new(8));
        let t = StageTracer::new(rec.clone());
        t.record(TraceId::NONE, SimTime::ZERO, Stage::GuardAdmitted);
        t.record(TraceId(5), SimTime::ZERO, Stage::GuardAdmitted);
        assert_eq!(rec.events().len(), 1);
        assert!(t.is_enabled());
    }

    #[test]
    fn stage_labels_are_descriptive() {
        assert_eq!(
            Stage::GuardRejected(RejectReason::StaleTimestamp).label(),
            "guard:rejected(stale-timestamp)"
        );
        assert_eq!(
            Stage::PreprocessDropped(DropReason::Sporadic).label(),
            "preprocess:dropped(sporadic)"
        );
        assert_eq!(Stage::ShardRouted(3).label(), "shard:routed(3)");
        assert_eq!(
            Stage::Scored(IncidentId(2)).label(),
            "evaluate:scored(incident2)"
        );
        assert_eq!(
            Stage::FaultInjected(crate::faultinject::InjectionSite::LocateWorker).label(),
            "fault:injected(locate-worker)"
        );
        assert_eq!(Stage::WorkerRestarted(2).label(), "worker:restarted(2)");
    }

    #[test]
    fn events_round_trip_serde() {
        let e = ev(9, 4, Stage::IncidentCompleted(IncidentId(1)));
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
