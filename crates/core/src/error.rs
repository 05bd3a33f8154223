//! Error taxonomy for the SkyNet pipeline.
//!
//! The streaming deployment (§6.2) must survive exactly the conditions it
//! analyzes: malformed probe output, clock-skewed sources, saturated
//! channels, and buggy stage code. Every recoverable condition on a
//! non-test hot path is expressed as a [`SkyNetError`] (or, for a single
//! rejected alert, a [`RejectReason`]) instead of a panic, so one poison
//! event degrades one alert — not the whole deployment.

use serde::{Deserialize, Serialize};
use skynet_model::{AlertClass, SimTime};
use std::fmt;

/// Why the ingestion guard refused a single [`RawAlert`](skynet_model::RawAlert).
///
/// Each variant maps to a per-reason counter in
/// [`IngestStats`](crate::guard::IngestStats) and tags the alert's entry in
/// the dead-letter queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RejectReason {
    /// The alert's location (or its peer's) does not lie on the monitored
    /// topology — an unparsable or foreign path that would corrupt the
    /// locator's alert trees.
    OffTopology,
    /// The alert's timestamp is older than the current watermark minus the
    /// skew window: it arrived too late to re-sequence.
    StaleTimestamp,
    /// The alert's timestamp is absurdly far ahead of everything seen so
    /// far — a clock-skewed source that would stall the watermark.
    FutureTimestamp,
    /// Exact duplicate of an alert already accepted inside the duplicate
    /// window (same source, body, location and timestamp) — the signature
    /// of a retransmitting or stuck probe.
    Duplicate,
    /// The alert body is structurally corrupt: non-finite magnitude, empty
    /// syslog text, or control bytes in the syslog payload.
    CorruptBody,
    /// A fault-injection rule intercepted the alert at a stage boundary;
    /// the alert is preserved here instead of being lost.
    FaultInjected,
}

impl RejectReason {
    /// Stable lowercase label for logs and rendered reports.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::OffTopology => "off-topology",
            RejectReason::StaleTimestamp => "stale-timestamp",
            RejectReason::FutureTimestamp => "future-timestamp",
            RejectReason::Duplicate => "duplicate",
            RejectReason::CorruptBody => "corrupt-body",
            RejectReason::FaultInjected => "fault-injected",
        }
    }

    /// All reasons, in counter order.
    pub const ALL: [RejectReason; 6] = [
        RejectReason::OffTopology,
        RejectReason::StaleTimestamp,
        RejectReason::FutureTimestamp,
        RejectReason::Duplicate,
        RejectReason::CorruptBody,
        RejectReason::FaultInjected,
    ];
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Recoverable failures of the pipeline runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkyNetError {
    /// A single alert was rejected by the ingestion guard.
    Rejected {
        /// Why the guard refused it.
        reason: RejectReason,
        /// The rejected alert's claimed timestamp.
        timestamp: SimTime,
    },
    /// A streaming channel closed because the other side hung up: the
    /// worker stopped (flushed, or out of its panic budget) or the consumer
    /// dropped the incident receiver.
    ChannelClosed,
    /// An alert was shed under load instead of enqueued.
    Shed {
        /// The class of the shed alert (never [`AlertClass::Failure`]).
        class: AlertClass,
    },
    /// A pipeline stage panicked; the worker caught it, lost the event in
    /// flight and carried on with its engine.
    WorkerPanicked {
        /// How many panics the worker has caught so far.
        restarts: u32,
    },
    /// The streaming worker spent its panic budget and gave up; the stream
    /// is dead.
    RestartsExhausted {
        /// The configured restart cap.
        cap: u32,
    },
    /// A fault-injection rule fired at a stage boundary (chaos testing).
    FaultInjected {
        /// The injection site that raised the fault.
        site: crate::faultinject::InjectionSite,
    },
}

impl fmt::Display for SkyNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkyNetError::Rejected { reason, timestamp } => {
                write!(f, "alert at {timestamp} rejected: {reason}")
            }
            SkyNetError::ChannelClosed => write!(f, "pipeline channel closed"),
            SkyNetError::Shed { class } => {
                write!(f, "{class} alert shed under load")
            }
            SkyNetError::WorkerPanicked { restarts } => {
                write!(f, "pipeline worker panicked (restart #{restarts})")
            }
            SkyNetError::RestartsExhausted { cap } => {
                write!(f, "pipeline worker gave up after {cap} restarts")
            }
            SkyNetError::FaultInjected { site } => {
                write!(f, "injected fault at stage boundary {site}")
            }
        }
    }
}

impl std::error::Error for SkyNetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: Vec<_> = RejectReason::ALL.iter().map(|r| r.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn errors_render_and_round_trip() {
        let e = SkyNetError::Rejected {
            reason: RejectReason::StaleTimestamp,
            timestamp: SimTime::from_secs(7),
        };
        assert!(e.to_string().contains("stale-timestamp"));
        let json = serde_json::to_string(&e).unwrap();
        let back: SkyNetError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert!(SkyNetError::RestartsExhausted { cap: 3 }
            .to_string()
            .contains('3'));
        assert!(SkyNetError::FaultInjected {
            site: crate::faultinject::InjectionSite::GuardOffer
        }
        .to_string()
        .contains("guard-offer"));
    }
}
