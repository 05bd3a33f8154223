//! The preprocessor (§4.1): uniform format, classification, consolidation.
//!
//! Three consolidation stages shrink the raw flood roughly an order of
//! magnitude (§6.2: ~100 k alerts/hour → <10 k normally, <50 k in
//! extremes):
//!
//! 1. **Identical alerts** — repeats of the same `(type, location)` within
//!    a window update the first alert's timestamp instead of producing new
//!    alerts. Long-lived conditions re-emit a *refresh* of the same group
//!    periodically so downstream trees stay fresh.
//! 2. **Single-source rules** — sporadic observations are ignored until
//!    they persist (`persistence_threshold` sightings within the window),
//!    and correlated same-source alerts (surge ripples on adjacent
//!    interfaces) keep only their first representative per site.
//! 3. **Cross-source rules** — a traffic *drop* alone is expected user
//!    behaviour; it is emitted only when corroborated by a failure-class
//!    or root-cause alert nearby within the corroboration window.
//!
//! Internally every alert location is interned into a dense [`LocId`] on
//! arrival, so consolidation keys are `Copy` `(AlertType, LocId)` pairs and
//! the containment checks behind corroboration and surge suppression are
//! `O(1)` id probes instead of segment-wise path walks.

pub mod classify;

pub use classify::SyslogClassifier;
use skynet_ftree::MatchScratch;

use crate::faultinject::{self, FaultArm};
use crate::obs::{Counter, DropReason, Observability, Stage, StageTracer};
use serde::{Deserialize, Serialize};
use skynet_model::{
    AlertBody, AlertClass, AlertKind, AlertType, LocId, LocationInterner, LocationLevel,
    LocationPath, RawAlert, SimDuration, SimTime, StructuredAlert,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Preprocessor knobs.
///
/// `#[non_exhaustive]`: construct via [`PreprocessorConfig::default`] and
/// the fluent `with_*` setters so future knobs are not breaking changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct PreprocessorConfig {
    /// Identical-alert consolidation window: repeats within this window are
    /// absorbed into the original alert.
    pub dedup_window: SimDuration,
    /// How often a still-active consolidated group re-emits a refresh.
    pub refresh_interval: SimDuration,
    /// Observations required before a persistence-gated kind is emitted
    /// ("sporadic packet loss is ignored, persistent packet loss is
    /// recorded").
    pub persistence_threshold: u32,
    /// Window within which persistence observations must accumulate.
    pub persistence_window: SimDuration,
    /// Window within which a traffic drop must find a corroborating
    /// failure/root-cause alert.
    pub corroboration_window: SimDuration,
}

impl Default for PreprocessorConfig {
    fn default() -> Self {
        PreprocessorConfig {
            dedup_window: SimDuration::from_mins(5),
            refresh_interval: SimDuration::from_secs(120),
            persistence_threshold: 2,
            persistence_window: SimDuration::from_secs(30),
            corroboration_window: SimDuration::from_secs(120),
        }
    }
}

impl PreprocessorConfig {
    /// Sets the identical-alert consolidation window.
    pub fn with_dedup_window(mut self, window: SimDuration) -> Self {
        self.dedup_window = window;
        self
    }

    /// Sets the refresh interval of long-lived consolidated groups.
    pub fn with_refresh_interval(mut self, interval: SimDuration) -> Self {
        self.refresh_interval = interval;
        self
    }

    /// Sets the persistence-gate threshold.
    pub fn with_persistence_threshold(mut self, threshold: u32) -> Self {
        self.persistence_threshold = threshold;
        self
    }

    /// Sets the persistence-gate window.
    pub fn with_persistence_window(mut self, window: SimDuration) -> Self {
        self.persistence_window = window;
        self
    }

    /// Sets the cross-source corroboration window.
    pub fn with_corroboration_window(mut self, window: SimDuration) -> Self {
        self.corroboration_window = window;
        self
    }
}

/// Alert kinds that must persist before being reported (stage 2).
fn needs_persistence(kind: AlertKind) -> bool {
    matches!(
        kind,
        AlertKind::PacketLossIcmp
            | AlertKind::PacketLossTcp
            | AlertKind::PacketLossSource
            | AlertKind::LatencyJitter
            | AlertKind::HighCpu
            | AlertKind::HighMemory
            | AlertKind::TrafficSurge
    )
}

/// Alert kinds gated on cross-source corroboration (stage 3).
fn needs_corroboration(kind: AlertKind) -> bool {
    matches!(kind, AlertKind::TrafficDrop)
}

/// True when an alert can corroborate a held traffic drop: definite
/// failures or device-visible root causes.
fn corroborates(class: AlertClass) -> bool {
    matches!(class, AlertClass::Failure | AlertClass::RootCause)
}

/// Running counters for the preprocessing experiments (Fig. 8b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreprocessStats {
    /// Raw alerts pushed in.
    pub raw: u64,
    /// Structured alerts emitted (first occurrences + refreshes).
    pub emitted: u64,
    /// Raw alerts absorbed by identical-alert consolidation.
    pub deduplicated: u64,
    /// Alerts dropped by the persistence gate.
    pub filtered_sporadic: u64,
    /// Traffic drops discarded for lack of corroboration.
    pub filtered_uncorroborated: u64,
    /// `Abnormal`-class alerts shed by the streaming producer under load,
    /// before they ever reached the preprocessor.
    #[serde(default)]
    pub shed_abnormal: u64,
    /// `RootCause`-class alerts shed by the streaming producer under load.
    #[serde(default)]
    pub shed_root_cause: u64,
}

impl PreprocessStats {
    /// Total alerts shed by the streaming producer (never includes
    /// `Failure`-class alerts — those are never shed).
    pub fn shed(&self) -> u64 {
        self.shed_abnormal + self.shed_root_cause
    }
}

/// The preprocessor's registered metric handles (detached no-ops when the
/// pipeline runs without observability).
#[derive(Debug, Clone, Default)]
struct PreprocessObs {
    raw: Counter,
    emitted: Counter,
    deduplicated: Counter,
    filtered_sporadic: Counter,
    filtered_uncorroborated: Counter,
    classify_hits: Counter,
    classify_misses: Counter,
    tracer: StageTracer,
}

impl PreprocessObs {
    fn registered(obs: &Observability) -> Self {
        let reg = obs.registry();
        PreprocessObs {
            raw: reg.counter(
                "skynet_preprocess_raw_total",
                "raw alerts entering the preprocessor (peer splits count twice)",
            ),
            emitted: reg.counter(
                "skynet_preprocess_emitted_total",
                "structured alerts emitted (first occurrences + refreshes)",
            ),
            deduplicated: reg.counter(
                "skynet_preprocess_deduplicated_total",
                "raw alerts absorbed by identical-alert or surge consolidation",
            ),
            filtered_sporadic: reg.counter(
                "skynet_preprocess_filtered_sporadic_total",
                "alerts dropped by the persistence gate",
            ),
            filtered_uncorroborated: reg.counter(
                "skynet_preprocess_filtered_uncorroborated_total",
                "traffic drops discarded for lack of corroboration",
            ),
            classify_hits: reg.counter(
                "skynet_classify_cache_hits_total",
                "syslog classifications served from this worker's memo",
            ),
            classify_misses: reg.counter(
                "skynet_classify_cache_misses_total",
                "syslog classifications that walked the FT-tree",
            ),
            tracer: obs.tracer(),
        }
    }
}

#[derive(Debug, Clone)]
struct OpenGroup {
    alert: StructuredAlert,
    last_emitted: SimTime,
}

#[derive(Debug, Clone)]
struct PendingPersistence {
    alert: StructuredAlert,
    sightings: u32,
}

/// One open `(type, location)` dedup group in a [`PreprocessorState`].
///
/// Locations travel as full [`LocationPath`]s because the preprocessor's
/// interner starts empty and grows with the stream: a restored process
/// re-interns every path, so the dense ids never need to survive serde.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OpenEntry {
    ty: AlertType,
    location: LocationPath,
    alert: StructuredAlert,
    last_emitted: SimTime,
}

/// One pending persistence gate in a [`PreprocessorState`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PendingEntry {
    ty: AlertType,
    location: LocationPath,
    alert: StructuredAlert,
    sightings: u32,
}

/// Serializable mid-stream consolidation state for warm restarts.
///
/// Captures everything [`Preprocessor::push`] consults — open dedup
/// groups, pending persistence gates, held uncorroborated drops,
/// recent corroborators and surge representatives — plus the running
/// [`PreprocessStats`]. Restoring this state into a preprocessor built
/// with the same config and classifier makes the tail of the stream
/// behave exactly as if the process had never stopped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PreprocessorState {
    open: Vec<OpenEntry>,
    pending: Vec<PendingEntry>,
    held_drops: Vec<(LocationPath, StructuredAlert)>,
    corroborators: Vec<(SimTime, LocationPath)>,
    recent_surges: Vec<(LocationPath, SimTime)>,
    stats: PreprocessStats,
}

/// The streaming preprocessor. Push time-ordered raw alerts, collect
/// structured alerts.
#[derive(Debug)]
pub struct Preprocessor {
    cfg: PreprocessorConfig,
    /// Shared FT-tree classifier: training is expensive and the tree is
    /// read-only at classification time, so shards and worker restarts
    /// share one instance behind an `Arc` instead of deep-cloning it.
    classifier: Option<Arc<SyslogClassifier>>,
    /// Locations seen so far, interned on first sight. The preprocessor has
    /// no topology, so the interner starts empty and grows with the stream.
    interner: LocationInterner,
    open: HashMap<(AlertType, LocId), OpenGroup>,
    pending: HashMap<(AlertType, LocId), PendingPersistence>,
    held_drops: VecDeque<(LocId, StructuredAlert)>,
    /// Recent corroborating alert locations with timestamps.
    corroborators: VecDeque<(SimTime, LocId)>,
    /// Recent surge emissions per site prefix (related-alert suppression).
    recent_surges: HashMap<LocId, SimTime>,
    stats: PreprocessStats,
    obs: PreprocessObs,
    /// Reusable buffers for the classifier's symbol-interned match path:
    /// the preprocessor is single-threaded per worker, so one scratch
    /// serves every line and the steady-state classify path allocates
    /// nothing.
    scratch: MatchScratch,
    /// Fault-injection arms for the classify / consolidate sites.
    classify_fault: Option<FaultArm>,
    consolidate_fault: Option<FaultArm>,
}

impl Preprocessor {
    /// Builds a preprocessor. The classifier handles raw syslog text; pass
    /// `None` to treat all syslog as [`AlertKind::Unclassified`] (used by
    /// ablations).
    pub fn new(cfg: PreprocessorConfig, classifier: Option<Arc<SyslogClassifier>>) -> Self {
        Preprocessor {
            cfg,
            classifier,
            interner: LocationInterner::new(),
            open: HashMap::new(),
            pending: HashMap::new(),
            held_drops: VecDeque::new(),
            corroborators: VecDeque::new(),
            recent_surges: HashMap::new(),
            stats: PreprocessStats::default(),
            obs: PreprocessObs::default(),
            scratch: MatchScratch::new(),
            classify_fault: None,
            consolidate_fault: None,
        }
    }

    /// Attaches the preprocessor to a shared [`Observability`] handle:
    /// consolidation counters and per-alert stage tracing start feeding it.
    pub fn with_observability(mut self, obs: &Observability) -> Self {
        self.obs = PreprocessObs::registered(obs);
        self
    }

    /// Arms the preprocessor's fault-injection sites. A firing classify
    /// fault degrades the alert to [`AlertKind::Unclassified`]; a firing
    /// consolidate fault bypasses consolidation and emits the observation
    /// directly (duplicates leak through instead of alerts being lost).
    pub fn with_faults(
        mut self,
        classify: Option<FaultArm>,
        consolidate: Option<FaultArm>,
    ) -> Self {
        self.classify_fault = classify;
        self.consolidate_fault = consolidate;
        self
    }

    /// Counters so far.
    pub fn stats(&self) -> PreprocessStats {
        self.stats
    }

    /// Captures the mid-stream consolidation state for a warm restart.
    ///
    /// Entries are widened from dense [`LocId`]s to [`LocationPath`]s and
    /// sorted by `(type, location)` so two snapshots of the same state
    /// serialize identically regardless of hash-map iteration order.
    pub fn snapshot_state(&self) -> PreprocessorState {
        let mut open: Vec<OpenEntry> = self
            .open
            .iter()
            .map(|(&(ty, loc), group)| OpenEntry {
                ty,
                location: self.interner.path(loc).clone(),
                alert: group.alert.clone(),
                last_emitted: group.last_emitted,
            })
            .collect();
        open.sort_by(|a, b| (a.ty, &a.location).cmp(&(b.ty, &b.location)));
        let mut pending: Vec<PendingEntry> = self
            .pending
            .iter()
            .map(|(&(ty, loc), gate)| PendingEntry {
                ty,
                location: self.interner.path(loc).clone(),
                alert: gate.alert.clone(),
                sightings: gate.sightings,
            })
            .collect();
        pending.sort_by(|a, b| (a.ty, &a.location).cmp(&(b.ty, &b.location)));
        let mut recent_surges: Vec<(LocationPath, SimTime)> = self
            .recent_surges
            .iter()
            .map(|(&site, &t)| (self.interner.path(site).clone(), t))
            .collect();
        recent_surges.sort_by(|a, b| a.0.cmp(&b.0));
        PreprocessorState {
            open,
            pending,
            held_drops: self
                .held_drops
                .iter()
                .map(|(loc, d)| (self.interner.path(*loc).clone(), d.clone()))
                .collect(),
            corroborators: self
                .corroborators
                .iter()
                .map(|&(t, loc)| (t, self.interner.path(loc).clone()))
                .collect(),
            recent_surges,
            stats: self.stats,
        }
    }

    /// Restores the state captured by [`Preprocessor::snapshot_state`].
    ///
    /// The preprocessor must have been built with the same config and
    /// classifier as the one that was snapshotted; every location is
    /// re-interned, so this works on a fresh (empty) interner.
    pub fn restore_state(&mut self, state: PreprocessorState) {
        let interner = &mut self.interner;
        self.open = state
            .open
            .into_iter()
            .map(|e| {
                (
                    (e.ty, interner.intern(&e.location)),
                    OpenGroup {
                        alert: e.alert,
                        last_emitted: e.last_emitted,
                    },
                )
            })
            .collect();
        self.pending = state
            .pending
            .into_iter()
            .map(|e| {
                (
                    (e.ty, interner.intern(&e.location)),
                    PendingPersistence {
                        alert: e.alert,
                        sightings: e.sightings,
                    },
                )
            })
            .collect();
        self.held_drops = state
            .held_drops
            .into_iter()
            .map(|(path, d)| (interner.intern(&path), d))
            .collect();
        self.corroborators = state
            .corroborators
            .into_iter()
            .map(|(t, path)| (t, interner.intern(&path)))
            .collect();
        self.recent_surges = state
            .recent_surges
            .into_iter()
            .map(|(path, t)| (interner.intern(&path), t))
            .collect();
        self.stats = state.stats;
    }

    /// Processes one raw alert, appending any resulting structured alerts.
    ///
    /// # Panics
    ///
    /// Panics if the alert (or its peer) is located at the hierarchy root;
    /// the [`IngestGuard`](crate::IngestGuard) rejects such alerts upstream.
    pub fn push(&mut self, raw: &RawAlert, out: &mut Vec<StructuredAlert>) {
        self.stats.raw += 1;
        self.obs.raw.inc();
        let now = raw.timestamp;

        // Normalization: resolve the kind. An injected classify fault
        // degrades the alert to Unclassified instead of dropping it.
        let kind = if faultinject::trip(&self.classify_fault, raw.trace, now) {
            AlertKind::Unclassified
        } else {
            match &raw.body {
                AlertBody::Known(k) => *k,
                AlertBody::SyslogText(text) => match self.classifier.as_deref() {
                    Some(classifier) => {
                        let (kind, hit) = classifier.classify_memoized(text, &mut self.scratch);
                        if hit {
                            self.obs.classify_hits.inc();
                        } else {
                            self.obs.classify_misses.inc();
                        }
                        kind
                    }
                    None => AlertKind::Unclassified,
                },
            }
        };

        // An injected consolidate fault bypasses the three consolidation
        // stages: the observation is emitted directly (per endpoint), so
        // downstream sees duplicates rather than losing the alert.
        if faultinject::trip(&self.consolidate_fault, raw.trace, now) {
            self.emit(StructuredAlert::from_raw(raw, kind), out);
            if let Some(peer) = &raw.peer {
                self.stats.raw += 1;
                self.obs.raw.inc();
                let mut mirrored = StructuredAlert::from_raw(raw, kind);
                mirrored.location = peer.clone();
                self.emit(mirrored, out);
            }
            self.expire(now, out);
            return;
        }

        // Location: a link/path alert is split into two alerts, one per
        // endpoint (§4.1).
        self.ingest(raw, kind, raw.location.clone(), now, out);
        if let Some(peer) = &raw.peer {
            self.stats.raw += 1;
            self.obs.raw.inc();
            self.ingest(raw, kind, peer.clone(), now, out);
        }
        self.expire(now, out);
    }

    fn ingest(
        &mut self,
        raw: &RawAlert,
        kind: AlertKind,
        location: LocationPath,
        now: SimTime,
        out: &mut Vec<StructuredAlert>,
    ) {
        let ty = AlertType::new(raw.source, kind);
        let loc = self.interner.intern(&location);
        let key = (ty, loc);
        let mut candidate = StructuredAlert {
            ty,
            first_seen: now,
            last_seen: now,
            location,
            count: 1,
            magnitude: raw.magnitude,
            cause: raw.cause,
            trace: raw.trace,
        };

        // Stage 1: identical-alert consolidation.
        if let Some(group) = self.open.get_mut(&key) {
            if now.since(group.alert.last_seen) <= self.cfg.dedup_window {
                group.alert.absorb(&candidate);
                self.stats.deduplicated += 1;
                self.obs.deduplicated.inc();
                self.obs.tracer.record(
                    raw.trace,
                    now,
                    Stage::PreprocessDropped(DropReason::Consolidated),
                );
                // Periodic refresh keeps downstream trees fresh while the
                // condition lasts.
                let refresh = if now.since(group.last_emitted) >= self.cfg.refresh_interval {
                    group.last_emitted = now;
                    Some(group.alert.clone())
                } else {
                    None
                };
                if let Some(alert) = refresh {
                    self.emit(alert, out);
                }
                return;
            }
            self.open.remove(&key);
        }

        // Stage 2a: persistence gate for sporadic-prone kinds.
        if needs_persistence(kind) {
            let threshold = self.cfg.persistence_threshold;
            let window = self.cfg.persistence_window;
            let pending = self.pending.entry(key).or_insert_with(|| {
                let mut empty = candidate.clone();
                empty.count = 0; // absorbed below
                PendingPersistence {
                    alert: empty,
                    sightings: 0,
                }
            });
            if pending.sightings > 0 && now.since(pending.alert.last_seen) > window {
                // Stale pending state: restart the count.
                let mut empty = candidate.clone();
                empty.count = 0;
                pending.alert = empty;
                pending.sightings = 0;
            }
            pending.sightings += 1;
            pending.alert.absorb(&candidate);
            if pending.sightings < threshold {
                self.stats.filtered_sporadic += 1;
                self.obs.filtered_sporadic.inc();
                self.obs.tracer.record(
                    raw.trace,
                    now,
                    Stage::PreprocessDropped(DropReason::Sporadic),
                );
                return;
            }
            // The entry was inserted above; fall back to the bare candidate
            // rather than panicking if that invariant ever breaks.
            candidate = match self.pending.remove(&key) {
                Some(pending) => pending.alert,
                None => candidate,
            };
            // The aggregate emits under its earliest constituent's trace;
            // this raw's own trace ends here unless it is that earliest.
            if raw.trace != candidate.trace {
                self.obs.tracer.record(
                    raw.trace,
                    now,
                    Stage::PreprocessDropped(DropReason::Consolidated),
                );
            }
        }

        // Stage 2b: related-alert suppression — one surge representative
        // per site within the dedup window.
        if kind == AlertKind::TrafficSurge {
            let site = self.interner.truncate_at(loc, LocationLevel::Site);
            if let Some(&t) = self.recent_surges.get(&site) {
                if now.since(t) <= self.cfg.dedup_window {
                    self.stats.deduplicated += 1;
                    self.obs.deduplicated.inc();
                    self.obs.tracer.record(
                        raw.trace,
                        now,
                        Stage::PreprocessDropped(DropReason::SurgeDuplicate),
                    );
                    return;
                }
            }
            self.recent_surges.insert(site, now);
        }

        // Stage 3: cross-source corroboration for traffic drops.
        if needs_corroboration(kind) {
            if self.is_corroborated(loc, now) {
                self.open.insert(
                    key,
                    OpenGroup {
                        alert: candidate.clone(),
                        last_emitted: now,
                    },
                );
                self.emit(candidate, out);
            } else {
                self.held_drops.push_back((loc, candidate));
            }
            return;
        }

        // Corroborating alerts release held drops near them.
        if corroborates(kind.class()) {
            self.corroborators.push_back((now, loc));
            let interner = &self.interner;
            let window = self.cfg.corroboration_window;
            let mut released = Vec::new();
            self.held_drops.retain(|&(dloc, ref d)| {
                let related = interner.contains(dloc, loc) || interner.contains(loc, dloc);
                let fresh = now.since(d.last_seen) <= window;
                if related && fresh {
                    released.push((dloc, d.clone()));
                    false
                } else {
                    true
                }
            });
            for (dloc, drop) in released {
                let key = (drop.ty, dloc);
                self.open.insert(
                    key,
                    OpenGroup {
                        alert: drop.clone(),
                        last_emitted: now,
                    },
                );
                self.emit(drop, out);
            }
        }

        self.open.insert(
            key,
            OpenGroup {
                alert: candidate.clone(),
                last_emitted: now,
            },
        );
        self.emit(candidate, out);
    }

    fn is_corroborated(&self, loc: LocId, now: SimTime) -> bool {
        self.corroborators.iter().any(|&(t, c)| {
            now.since(t) <= self.cfg.corroboration_window
                && (self.interner.contains(c, loc) || self.interner.contains(loc, c))
        })
    }

    fn emit(&mut self, alert: StructuredAlert, out: &mut Vec<StructuredAlert>) {
        self.stats.emitted += 1;
        self.obs.emitted.inc();
        self.obs
            .tracer
            .record(alert.trace, alert.last_seen, Stage::PreprocessEmitted);
        out.push(alert);
    }

    /// Drops expired held/pending state. Uncorroborated drops die silently
    /// (except for their trace events).
    fn expire(&mut self, now: SimTime, _out: &mut [StructuredAlert]) {
        let window = self.cfg.corroboration_window;
        let before = self.held_drops.len();
        let tracer = &self.obs.tracer;
        self.held_drops.retain(|(_, d)| {
            let fresh = now.since(d.last_seen) <= window;
            if !fresh {
                tracer.record(
                    d.trace,
                    now,
                    Stage::PreprocessDropped(DropReason::Uncorroborated),
                );
            }
            fresh
        });
        let expired = (before - self.held_drops.len()) as u64;
        self.stats.filtered_uncorroborated += expired;
        self.obs.filtered_uncorroborated.add(expired);
        while let Some(&(t, _)) = self.corroborators.front() {
            if now.since(t) > window {
                self.corroborators.pop_front();
            } else {
                break;
            }
        }
    }

    /// Flushes end-of-stream state (held drops are discarded as
    /// uncorroborated).
    pub fn finish(&mut self) {
        self.stats.filtered_uncorroborated += self.held_drops.len() as u64;
        self.obs
            .filtered_uncorroborated
            .add(self.held_drops.len() as u64);
        for (_, d) in self.held_drops.drain(..) {
            self.obs.tracer.record(
                d.trace,
                d.last_seen,
                Stage::PreprocessDropped(DropReason::Uncorroborated),
            );
        }
        self.pending.clear();
        self.open.clear();
    }

    /// Convenience: processes a whole batch and returns the structured
    /// stream.
    pub fn process_batch(&mut self, alerts: &[RawAlert]) -> Vec<StructuredAlert> {
        let mut out = Vec::new();
        for a in alerts {
            self.push(a, &mut out);
        }
        self.finish();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skynet_model::DataSource;

    fn loc(s: &str) -> LocationPath {
        LocationPath::parse(s).unwrap()
    }

    fn pp() -> Preprocessor {
        Preprocessor::new(PreprocessorConfig::default(), None)
    }

    fn known(source: DataSource, kind: AlertKind, secs: u64, location: &str) -> RawAlert {
        RawAlert::known(source, SimTime::from_secs(secs), loc(location), kind)
    }

    #[test]
    fn identical_alerts_are_consolidated() {
        let mut p = pp();
        let mut out = Vec::new();
        for i in 0..10 {
            p.push(
                &known(
                    DataSource::OutOfBand,
                    AlertKind::DeviceInaccessible,
                    i * 2,
                    "R|C|L|S|K|d1",
                ),
                &mut out,
            );
        }
        assert_eq!(out.len(), 1, "repeats within the window emit once");
        assert_eq!(p.stats().deduplicated, 9);
    }

    #[test]
    fn long_lived_groups_refresh_periodically() {
        let mut p = pp();
        let mut out = Vec::new();
        for i in 0..13 {
            p.push(
                &known(
                    DataSource::OutOfBand,
                    AlertKind::DeviceInaccessible,
                    i * 30,
                    "R|C|L|S|K|d1",
                ),
                &mut out,
            );
        }
        // 6 minutes of repeats at 30 s, refresh every 60 s: first emission
        // plus refreshes at 60/120/...; all the same group.
        assert!(out.len() >= 4 && out.len() <= 8, "got {}", out.len());
        let last = out.last().unwrap();
        assert_eq!(last.count, 13);
        assert_eq!(last.first_seen, SimTime::ZERO);
    }

    #[test]
    fn reoccurrence_after_window_is_a_new_alert() {
        let mut p = pp();
        let mut out = Vec::new();
        p.push(
            &known(DataSource::Snmp, AlertKind::LinkDown, 0, "R|C|L|S|K|d1"),
            &mut out,
        );
        p.push(
            &known(DataSource::Snmp, AlertKind::LinkDown, 600, "R|C|L|S|K|d1"),
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|a| a.count == 1));
    }

    #[test]
    fn sporadic_packet_loss_is_filtered_persistent_is_kept() {
        let mut p = pp();
        let mut out = Vec::new();
        // One isolated blip: filtered.
        p.push(
            &known(DataSource::Ping, AlertKind::PacketLossIcmp, 0, "R|C|L|S"),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(p.stats().filtered_sporadic, 1);
        // A second sighting within the persistence window: emitted with the
        // full history.
        p.push(
            &known(DataSource::Ping, AlertKind::PacketLossIcmp, 2, "R|C|L|S"),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].count, 2);
        assert_eq!(out[0].first_seen, SimTime::ZERO);
    }

    #[test]
    fn stale_persistence_counts_restart() {
        let mut p = pp();
        let mut out = Vec::new();
        p.push(
            &known(DataSource::Ping, AlertKind::PacketLossIcmp, 0, "R|C|L|S"),
            &mut out,
        );
        // 10 minutes later — outside the persistence window.
        p.push(
            &known(DataSource::Ping, AlertKind::PacketLossIcmp, 600, "R|C|L|S"),
            &mut out,
        );
        assert!(out.is_empty(), "two blips far apart are both sporadic");
    }

    #[test]
    fn peer_alerts_are_split_into_two_locations() {
        let mut p = pp();
        let mut out = Vec::new();
        let mut raw = known(DataSource::Ping, AlertKind::LinkDown, 0, "R|C|L|S1");
        raw.peer = Some(loc("R|C|L|S2"));
        p.push(&raw, &mut out);
        assert_eq!(out.len(), 2);
        let locs: Vec<String> = out.iter().map(|a| a.location.to_string()).collect();
        assert!(locs.contains(&"R|C|L|S1".to_string()));
        assert!(locs.contains(&"R|C|L|S2".to_string()));
    }

    #[test]
    fn uncorroborated_traffic_drop_is_discarded() {
        let mut p = pp();
        let mut out = Vec::new();
        p.push(
            &known(
                DataSource::TrafficStats,
                AlertKind::TrafficDrop,
                0,
                "R|C|L|S",
            ),
            &mut out,
        );
        assert!(out.is_empty(), "a lone drop is expected user behaviour");
        // Push something far away much later to trigger expiry.
        p.push(
            &known(DataSource::Snmp, AlertKind::LinkDown, 500, "Q|C|L|S|K|d9"),
            &mut out,
        );
        p.finish();
        assert!(p.stats().filtered_uncorroborated >= 1);
        assert!(out.iter().all(|a| a.ty.kind != AlertKind::TrafficDrop));
    }

    #[test]
    fn corroborated_traffic_drop_is_released() {
        let mut p = pp();
        let mut out = Vec::new();
        p.push(
            &known(
                DataSource::TrafficStats,
                AlertKind::TrafficDrop,
                0,
                "R|C|L|S",
            ),
            &mut out,
        );
        assert!(out.is_empty());
        // A root-cause alert under the same site corroborates it.
        p.push(
            &known(DataSource::Snmp, AlertKind::LinkDown, 30, "R|C|L|S|K|d1"),
            &mut out,
        );
        let kinds: Vec<AlertKind> = out.iter().map(|a| a.ty.kind).collect();
        assert!(kinds.contains(&AlertKind::TrafficDrop));
        assert!(kinds.contains(&AlertKind::LinkDown));
    }

    #[test]
    fn drop_already_corroborated_emits_immediately() {
        let mut p = pp();
        let mut out = Vec::new();
        p.push(
            &known(DataSource::Snmp, AlertKind::LinkDown, 0, "R|C|L|S|K|d1"),
            &mut out,
        );
        p.push(
            &known(
                DataSource::TrafficStats,
                AlertKind::TrafficDrop,
                10,
                "R|C|L|S",
            ),
            &mut out,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn surge_ripples_keep_one_representative_per_site() {
        let mut p = pp();
        let mut out = Vec::new();
        for d in ["d1", "d2", "d3"] {
            // Two sightings each to pass persistence.
            for t in [0, 2] {
                p.push(
                    &known(
                        DataSource::Snmp,
                        AlertKind::TrafficSurge,
                        t,
                        &format!("R|C|L|S|K|{d}"),
                    ),
                    &mut out,
                );
            }
        }
        assert_eq!(out.len(), 1, "adjacent surges are related alerts");
    }

    #[test]
    fn syslog_without_classifier_is_unclassified() {
        let mut p = pp();
        let mut out = Vec::new();
        p.push(
            &RawAlert::syslog(SimTime::ZERO, loc("R|C|L|S|K|d1"), "mystery message"),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ty.kind, AlertKind::Unclassified);
        assert_eq!(out[0].ty.source, DataSource::Syslog);
    }

    #[test]
    fn preprocessor_state_round_trips_mid_flood() {
        // Build up every piece of mid-stream state: an open dedup group,
        // a half-armed persistence gate, a held traffic drop, a recent
        // corroborator and a surge representative.
        let mut live = pp();
        let mut live_out = Vec::new();
        let feed_head = |p: &mut Preprocessor, out: &mut Vec<StructuredAlert>| {
            p.push(
                &known(DataSource::Snmp, AlertKind::LinkDown, 0, "R|C|L|S|K|d1"),
                out,
            );
            p.push(
                &known(DataSource::Ping, AlertKind::PacketLossIcmp, 5, "R|C|L|S"),
                out,
            );
            for t in [6, 8] {
                p.push(
                    &known(DataSource::Snmp, AlertKind::TrafficSurge, t, "R|C|L|S|K|d2"),
                    out,
                );
            }
            p.push(
                &known(
                    DataSource::TrafficStats,
                    AlertKind::TrafficDrop,
                    10,
                    "Q|C|L|S",
                ),
                out,
            );
        };
        feed_head(&mut live, &mut live_out);

        let state = live.snapshot_state();
        let json = serde_json::to_string(&state).unwrap();
        let restored_state: PreprocessorState = serde_json::from_str(&json).unwrap();
        let mut restored = pp();
        restored.restore_state(restored_state);
        assert_eq!(restored.stats(), live.stats());

        // The tail exercises each restored structure: a dedup absorb, the
        // second persistence sighting, a suppressed surge ripple, and a
        // corroborator that releases the held drop.
        let tail = [
            known(DataSource::Snmp, AlertKind::LinkDown, 20, "R|C|L|S|K|d1"),
            known(DataSource::Ping, AlertKind::PacketLossIcmp, 21, "R|C|L|S"),
            known(
                DataSource::Snmp,
                AlertKind::TrafficSurge,
                22,
                "R|C|L|S|K|d3",
            ),
            known(DataSource::Snmp, AlertKind::LinkDown, 30, "Q|C|L|S|K|d7"),
        ];
        let live_mark = live_out.len();
        let mut restored_out = Vec::new();
        for raw in &tail {
            live.push(raw, &mut live_out);
            restored.push(raw, &mut restored_out);
        }
        live.finish();
        restored.finish();
        assert_eq!(&live_out[live_mark..], &restored_out[..]);
        assert_eq!(restored.stats(), live.stats());
        let kinds: Vec<AlertKind> = restored_out.iter().map(|a| a.ty.kind).collect();
        assert!(
            kinds.contains(&AlertKind::TrafficDrop),
            "restored corroboration state must release the held drop"
        );
    }

    #[test]
    fn stats_add_up() {
        let mut p = pp();
        let mut out = Vec::new();
        for i in 0..20 {
            p.push(
                &known(DataSource::Snmp, AlertKind::LinkDown, i, "R|C|L|S|K|d1"),
                &mut out,
            );
        }
        let s = p.stats();
        assert_eq!(s.raw, 20);
        assert_eq!(s.emitted as usize, out.len());
        assert_eq!(s.deduplicated, 19);
    }
}
