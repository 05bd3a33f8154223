//! Post-incident analysis: reconstructs what the fault plane did to a run.
//!
//! A [`DegradationReport`] is assembled from the fault ledger, the trace
//! ring (injection / restart / fault-reject / shed events, in recording
//! order) and the restart & shed counters, and renders a human timeline to
//! sit alongside the incident report: which faults fired where, what
//! became of each intercepted alert, whether the supervisors held the line
//! or the pipeline went terminally degraded.

use super::{FaultDisposition, InjectedFault, InjectionSite};
use crate::error::{RejectReason, SkyNetError};
use crate::obs::{Observability, Stage, TraceEvent};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The degradation story of one run, rendered alongside the incident
/// report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Every fault that fired, sorted by (site, lane, ordinal).
    pub faults: Vec<InjectedFault>,
    /// Worker restarts the supervisors performed.
    pub restarts: u64,
    /// True when a supervisor exhausted its restart budget and gave up.
    pub gave_up: bool,
    /// The terminal error when the pipeline went degraded.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub degraded: Option<SkyNetError>,
    /// Abnormal-class alerts shed under backpressure.
    pub shed_abnormal: u64,
    /// RootCause-class alerts shed under backpressure.
    pub shed_root_cause: u64,
    /// Alerts preserved in the dead-letter queue because a fault
    /// intercepted them.
    pub fault_dead_letters: u64,
    /// Injection / restart / fault-reject / shed events still retained by
    /// the trace ring, in canonical (time, trace, stage) order.
    pub timeline: Vec<TraceEvent>,
}

impl DegradationReport {
    /// Builds the report from a run's fault ledger and its observability
    /// surface. `fault_dead_letters` is the dead-letter queue's
    /// fault-injected count; restart/health fields come from the caller
    /// (batch runs pass the restart counter and no terminal state).
    pub fn assemble(
        faults: Vec<InjectedFault>,
        obs: &Observability,
        fault_dead_letters: u64,
        restarts: u64,
        gave_up: bool,
        degraded: Option<SkyNetError>,
    ) -> Self {
        let snap = obs.snapshot();
        let timeline = obs
            .recorder()
            .map(|rec| {
                let mut events = rec.events();
                events.retain(|e| {
                    matches!(
                        e.stage,
                        Stage::FaultInjected(_)
                            | Stage::WorkerRestarted(_)
                            | Stage::GuardRejected(RejectReason::FaultInjected)
                            | Stage::Shed(_)
                    )
                });
                // Canonical order, not recording order: producers shedding
                // under load write the ring from their own threads, and
                // the timeline must replay byte-identically. Sorting
                // by (time, trace, label) restores chronology and puts an
                // injection before the restart it caused (same time and
                // trace; "fault:…" < "worker:…").
                events.sort_by_key(|e| (e.at, e.trace, e.stage.label()));
                events
            })
            .unwrap_or_default();
        DegradationReport {
            faults,
            restarts,
            gave_up,
            degraded,
            shed_abnormal: snap.counter("skynet_shed_total", Some("abnormal")),
            shed_root_cause: snap.counter("skynet_shed_total", Some("root-cause")),
            fault_dead_letters,
            timeline,
        }
    }

    /// True when nothing degraded: no faults, no restarts, no shedding.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
            && self.restarts == 0
            && !self.gave_up
            && self.shed_abnormal == 0
            && self.shed_root_cause == 0
            && self.fault_dead_letters == 0
    }

    /// Faults that fired at one site.
    pub fn faults_at(&self, site: InjectionSite) -> usize {
        self.faults.iter().filter(|f| f.site == site).count()
    }

    /// Faults that ended with one disposition.
    pub fn with_disposition(&self, disposition: FaultDisposition) -> usize {
        self.faults
            .iter()
            .filter(|f| f.disposition == disposition)
            .count()
    }

    /// Renders the degradation report for operators.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== Degradation report ===");
        let _ = writeln!(
            out,
            "{} fault(s) injected | {} restart(s) | {} fault dead-letter(s) | shed: {} abnormal / {} root-cause",
            self.faults.len(),
            self.restarts,
            self.fault_dead_letters,
            self.shed_abnormal,
            self.shed_root_cause,
        );
        if !self.faults.is_empty() {
            let _ = writeln!(out, "--- Injected faults ---");
            for f in &self.faults {
                let _ = writeln!(
                    out,
                    "  {} lane {} check #{} [{}] -> {} (trace {:?} @ {})",
                    f.site.label(),
                    f.lane,
                    f.ordinal,
                    f.action.label(),
                    f.disposition.label(),
                    f.trace.0,
                    f.at,
                );
            }
        }
        if !self.timeline.is_empty() {
            let _ = writeln!(out, "--- Timeline (trace ring) ---");
            for e in &self.timeline {
                let _ = writeln!(out, "  trace{} @ {}: {}", e.trace.0, e.at, e.stage.label());
            }
        }
        let verdict = match (&self.degraded, self.gave_up) {
            (Some(err), _) => format!("DEGRADED — supervisor gave up: {err}"),
            (None, true) => "DEGRADED — supervisor gave up".to_string(),
            (None, false) if self.is_clean() => "CLEAN — no degradation observed".to_string(),
            (None, false) => "SURVIVED — pipeline absorbed every fault".to_string(),
        };
        let _ = writeln!(out, "verdict: {verdict}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultinject::{disposition, FaultAction};
    use crate::obs::{ObsConfig, StageTracer, TraceRecorder};
    use skynet_model::{SimTime, TraceId};
    use std::sync::Arc;

    fn fault(site: InjectionSite, action: FaultAction) -> InjectedFault {
        InjectedFault {
            site,
            lane: 0,
            ordinal: 1,
            action,
            disposition: disposition(site, action),
            trace: TraceId(3),
            at: SimTime::from_secs(7),
        }
    }

    #[test]
    fn clean_report_renders_clean() {
        let obs = Observability::new(&ObsConfig::default());
        let report = DegradationReport::assemble(Vec::new(), &obs, 0, 0, false, None);
        assert!(report.is_clean());
        assert!(report.render().contains("CLEAN"));
    }

    #[test]
    fn timeline_keeps_only_degradation_events() {
        let obs = Observability::new(&ObsConfig::default());
        let rec: &Arc<TraceRecorder> = obs.recorder().expect("tracing on by default");
        let tracer = StageTracer::new(Arc::clone(rec));
        tracer.record(TraceId(1), SimTime::ZERO, Stage::GuardAdmitted);
        tracer.record(
            TraceId(1),
            SimTime::from_secs(1),
            Stage::FaultInjected(InjectionSite::LocateWorker),
        );
        tracer.record(TraceId(1), SimTime::from_secs(2), Stage::WorkerRestarted(0));
        tracer.record(TraceId(2), SimTime::from_secs(3), Stage::LocateInserted);
        let faults = vec![fault(InjectionSite::LocateWorker, FaultAction::Panic)];
        let report = DegradationReport::assemble(faults, &obs, 0, 1, false, None);
        assert_eq!(report.timeline.len(), 2);
        assert!(!report.is_clean());
        assert_eq!(report.faults_at(InjectionSite::LocateWorker), 1);
        assert_eq!(report.with_disposition(FaultDisposition::Panicked), 1);
        let rendered = report.render();
        assert!(rendered.contains("fault:injected(locate-worker)"));
        assert!(rendered.contains("worker:restarted(0)"));
        assert!(rendered.contains("SURVIVED"));
    }

    #[test]
    fn terminal_degradation_names_the_cause() {
        let obs = Observability::new(&ObsConfig::default());
        let report = DegradationReport::assemble(
            vec![fault(InjectionSite::LocateWorker, FaultAction::Panic)],
            &obs,
            0,
            4,
            true,
            Some(SkyNetError::FaultInjected {
                site: InjectionSite::LocateWorker,
            }),
        );
        assert!(report.gave_up);
        let rendered = report.render();
        assert!(rendered.contains("DEGRADED"));
        assert!(rendered.contains("locate-worker"));
        let json = serde_json::to_string(&report).unwrap();
        let back: DegradationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
