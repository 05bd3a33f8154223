//! Ingestion guard: validation, watermarked reordering and quarantine.
//!
//! The streaming deployment ingests alerts from twelve independently-clocked
//! tools (§4.1), so the feed arrives dirty: corrupt syslog bytes, probes
//! reporting locations that left the topology, retransmitting sources, and
//! out-of-order delivery. The guard sits in front of the preprocessor and
//! enforces three invariants the downstream stages rely on:
//!
//! 1. **Validity** — every admitted alert is structurally well-formed
//!    ([`RawAlert::structural_defect`]) and attributed to a location on the
//!    monitored topology.
//! 2. **Order** — admitted alerts are released in non-decreasing timestamp
//!    order. A *watermark* trails the maximum event time seen by a
//!    configurable skew window; alerts inside the window are buffered and
//!    re-sequenced, alerts behind the watermark are dropped as late.
//! 3. **Accountability** — nothing disappears silently. Every reject is
//!    counted per [`RejectReason`] and stored (bounded) in a
//!    [`DeadLetterQueue`] for operator inspection.

use crate::error::RejectReason;
use crate::faultinject::{self, FaultAction, FaultArm};
use crate::obs::{Counter, Gauge, Observability, Stage, StageTracer};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use skynet_model::{
    AlertBody, DataSource, LocId, LocationInterner, RawAlert, SimDuration, SimTime, TraceId,
};
use skynet_topology::Topology;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

/// Ingestion-guard knobs.
///
/// `#[non_exhaustive]`: construct via [`GuardConfig::default`] and the
/// fluent `with_*` setters so future knobs are not breaking changes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct GuardConfig {
    /// How far behind the maximum seen event time the watermark trails.
    /// Alerts arriving out of order within this window are re-sequenced;
    /// older ones are late-dropped. Covers the tool delays of §4.1 (SNMP
    /// lags up to ~2 min on CPU-starved devices, so the production locator
    /// tolerates lateness at the *node* level; the guard window only needs
    /// to absorb transport-level jitter).
    pub skew_window: SimDuration,
    /// How far ahead of the trusted clock (the latest `Tick`) an alert
    /// timestamp may claim to be before it is rejected as clock skew.
    /// Inactive until the first tick arrives.
    pub max_future_skew: SimDuration,
    /// Maximum dead letters retained; older entries are evicted (counters
    /// keep the full totals).
    pub dead_letter_capacity: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            skew_window: SimDuration::from_secs(30),
            max_future_skew: SimDuration::from_mins(60),
            dead_letter_capacity: 1024,
        }
    }
}

impl GuardConfig {
    /// Sets the re-sequencing skew window.
    pub fn with_skew_window(mut self, window: SimDuration) -> Self {
        self.skew_window = window;
        self
    }

    /// Sets the maximum tolerated future clock skew.
    pub fn with_max_future_skew(mut self, skew: SimDuration) -> Self {
        self.max_future_skew = skew;
        self
    }

    /// Sets the dead-letter queue capacity.
    pub fn with_dead_letter_capacity(mut self, capacity: usize) -> Self {
        self.dead_letter_capacity = capacity;
        self
    }
}

/// A rejected alert plus why the guard refused it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeadLetter {
    /// The alert as received.
    pub alert: RawAlert,
    /// The rejection reason.
    pub reason: RejectReason,
}

/// Bounded quarantine for rejected alerts.
///
/// Holds the most recent `capacity` rejects for inspection; per-reason
/// counters cover the full history even after eviction.
#[derive(Debug)]
pub struct DeadLetterQueue {
    letters: VecDeque<DeadLetter>,
    capacity: usize,
    evicted: u64,
    counts: [u64; RejectReason::ALL.len()],
}

impl Default for DeadLetterQueue {
    fn default() -> Self {
        DeadLetterQueue::new(GuardConfig::default().dead_letter_capacity)
    }
}

impl DeadLetterQueue {
    /// An empty queue retaining at most `capacity` letters.
    pub fn new(capacity: usize) -> Self {
        DeadLetterQueue {
            letters: VecDeque::new(),
            capacity,
            evicted: 0,
            counts: [0; RejectReason::ALL.len()],
        }
    }

    fn slot(reason: RejectReason) -> usize {
        match reason {
            RejectReason::OffTopology => 0,
            RejectReason::StaleTimestamp => 1,
            RejectReason::FutureTimestamp => 2,
            RejectReason::Duplicate => 3,
            RejectReason::CorruptBody => 4,
            RejectReason::FaultInjected => 5,
        }
    }

    /// Quarantines one reject, evicting the oldest letter when full.
    pub fn push(&mut self, alert: RawAlert, reason: RejectReason) {
        self.counts[Self::slot(reason)] += 1;
        if self.capacity == 0 {
            self.evicted += 1;
            return;
        }
        if self.letters.len() == self.capacity {
            self.letters.pop_front();
            self.evicted += 1;
        }
        self.letters.push_back(DeadLetter { alert, reason });
    }

    /// Retained letters, oldest first.
    pub fn letters(&self) -> impl Iterator<Item = &DeadLetter> {
        self.letters.iter()
    }

    /// Number of retained letters.
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }

    /// Total rejects for one reason (including evicted letters).
    pub fn count(&self, reason: RejectReason) -> u64 {
        self.counts[Self::slot(reason)]
    }

    /// Total rejects across all reasons (including evicted letters).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Letters dropped to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Serializes the queue (letters and full-history counters) for a
    /// service snapshot.
    pub fn snapshot_state(&self) -> DeadLetterState {
        DeadLetterState {
            letters: self.letters.iter().cloned().collect(),
            evicted: self.evicted,
            counts: self.counts.to_vec(),
        }
    }

    /// Restores queue contents captured by
    /// [`DeadLetterQueue::snapshot_state`]; the capacity stays whatever
    /// this queue was built with.
    pub fn restore_state(&mut self, state: DeadLetterState) {
        self.letters = state.letters.into();
        self.evicted = state.evicted;
        self.counts = [0; RejectReason::ALL.len()];
        for (slot, v) in self.counts.iter_mut().zip(&state.counts) {
            *slot = *v;
        }
    }
}

/// Serialized [`DeadLetterQueue`] contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeadLetterState {
    /// Retained letters, oldest first.
    pub letters: Vec<DeadLetter>,
    /// Letters dropped to stay within capacity.
    pub evicted: u64,
    /// Per-reason full-history totals, indexed like [`RejectReason::ALL`].
    pub counts: Vec<u64>,
}

/// Ingestion counters, published alongside [`PreprocessStats`]
/// (Fig. 8b-style accounting for the layer *in front of* preprocessing).
///
/// [`PreprocessStats`]: crate::preprocess::PreprocessStats
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IngestStats {
    /// Alerts admitted past every check.
    pub accepted: u64,
    /// Admitted alerts that arrived behind the maximum seen event time and
    /// were re-sequenced by the reordering buffer.
    pub reordered: u64,
    /// Rejects: location (or peer) not on the monitored topology.
    pub rejected_off_topology: u64,
    /// Rejects: arrived behind the watermark (late drops).
    pub rejected_stale: u64,
    /// Rejects: timestamp absurdly ahead of the trusted clock.
    pub rejected_future: u64,
    /// Rejects: exact duplicate of an already-admitted alert.
    pub rejected_duplicate: u64,
    /// Rejects: structurally corrupt body.
    pub rejected_corrupt: u64,
    /// Rejects: intercepted by an injected fault at a guard site.
    #[serde(default)]
    pub rejected_injected: u64,
    /// The watermark when this snapshot was taken.
    pub watermark: SimTime,
}

impl IngestStats {
    /// Total rejects across all reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_off_topology
            + self.rejected_stale
            + self.rejected_future
            + self.rejected_duplicate
            + self.rejected_corrupt
            + self.rejected_injected
    }

    /// The counter for one rejection reason.
    pub fn count_for(&self, reason: RejectReason) -> u64 {
        match reason {
            RejectReason::OffTopology => self.rejected_off_topology,
            RejectReason::StaleTimestamp => self.rejected_stale,
            RejectReason::FutureTimestamp => self.rejected_future,
            RejectReason::Duplicate => self.rejected_duplicate,
            RejectReason::CorruptBody => self.rejected_corrupt,
            RejectReason::FaultInjected => self.rejected_injected,
        }
    }
}

/// Identity of an alert for exact-duplicate suppression: everything a tool
/// would retransmit verbatim. Locations enter as interned [`LocId`]s (the
/// validity check already resolved them, so no paths are cloned or
/// re-hashed per offer). Magnitude enters as raw bits so only bit-identical
/// retransmissions collide (NaNs never get here — they are rejected as
/// corrupt first).
type DupKey = (DataSource, AlertBody, LocId, Option<LocId>, SimTime, u64);

#[derive(Debug)]
struct Buffered {
    at: SimTime,
    seq: u64,
    alert: RawAlert,
}

impl PartialEq for Buffered {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Buffered {}
impl PartialOrd for Buffered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Buffered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One duplicate-suppression signature in serialized (path) form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SeenEntry {
    source: DataSource,
    body: AlertBody,
    location: skynet_model::LocationPath,
    peer: Option<skynet_model::LocationPath>,
    timestamp: SimTime,
    magnitude_bits: u64,
    admitted_at: SimTime,
}

/// Serialized [`IngestGuard`] state for service snapshots — everything
/// behind the watermark semantics, with locations widened back to paths so
/// the snapshot survives re-interning on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardState {
    buffered: Vec<(u64, RawAlert)>,
    seq: u64,
    max_seen: SimTime,
    trusted_now: Option<SimTime>,
    seen: Vec<SeenEntry>,
    stats: IngestStats,
    next_trace: u64,
    dead: DeadLetterState,
}

/// The guard's registered metric handles (detached no-op handles when the
/// pipeline runs without observability).
#[derive(Debug, Clone, Default)]
struct GuardObs {
    accepted: Counter,
    reordered: Counter,
    rejected: [Counter; RejectReason::ALL.len()],
    watermark: Gauge,
    tracer: StageTracer,
}

impl GuardObs {
    fn registered(obs: &Observability) -> Self {
        let reg = obs.registry();
        GuardObs {
            accepted: reg.counter(
                "skynet_ingest_accepted_total",
                "alerts admitted past every guard check",
            ),
            reordered: reg.counter(
                "skynet_ingest_reordered_total",
                "admitted alerts re-sequenced by the reordering buffer",
            ),
            rejected: RejectReason::ALL.map(|r| {
                reg.labeled_counter(
                    "skynet_ingest_rejected_total",
                    Some(("reason", r.label())),
                    "alerts refused by the ingestion guard, by reason",
                )
            }),
            watermark: reg.gauge(
                "skynet_ingest_watermark_seconds",
                "current release watermark (simulated seconds)",
            ),
            tracer: obs.tracer(),
        }
    }
}

/// The ingestion guard. See the module docs for the invariants it enforces.
#[derive(Debug)]
pub struct IngestGuard {
    cfg: GuardConfig,
    /// The topology's location interner. Every location an alert may
    /// legitimately be attributed to — the ancestor chain of every device
    /// path (tools attribute to the device or to a serving-level prefix,
    /// §4.1) — resolves to an id here; anything else (including the bare
    /// hierarchy root) is off-topology.
    interner: Arc<LocationInterner>,
    buffer: BinaryHeap<Reverse<Buffered>>,
    seq: u64,
    /// Maximum event time admitted so far; the watermark trails it.
    max_seen: SimTime,
    /// Trusted processing-time clock from `Tick`s; arms the future check.
    trusted_now: Option<SimTime>,
    /// Admission time of each recent alert signature, pruned by watermark.
    seen: HashMap<DupKey, SimTime>,
    stats: IngestStats,
    dead: Arc<Mutex<DeadLetterQueue>>,
    /// Last trace id issued; ids are dense, starting at 1, unique within
    /// this guard incarnation.
    next_trace: u64,
    obs: GuardObs,
    /// Fault-injection arms for the guard's two sites (`None` = free).
    offer_fault: Option<FaultArm>,
    validate_fault: Option<FaultArm>,
}

impl IngestGuard {
    /// A guard for `topo` with a fresh dead-letter queue.
    pub fn new(topo: &Topology, cfg: GuardConfig) -> Self {
        let dead = Arc::new(Mutex::new(DeadLetterQueue::new(cfg.dead_letter_capacity)));
        Self::with_dead_letters(topo, cfg, dead)
    }

    /// A guard quarantining into an existing dead-letter queue — the one a
    /// streaming handle or a serving tenant reads from outside the worker.
    pub fn with_dead_letters(
        topo: &Topology,
        cfg: GuardConfig,
        dead: Arc<Mutex<DeadLetterQueue>>,
    ) -> Self {
        IngestGuard {
            cfg,
            interner: Arc::clone(topo.interner()),
            buffer: BinaryHeap::new(),
            seq: 0,
            max_seen: SimTime::ZERO,
            trusted_now: None,
            seen: HashMap::new(),
            stats: IngestStats::default(),
            dead,
            next_trace: 0,
            obs: GuardObs::default(),
            offer_fault: None,
            validate_fault: None,
        }
    }

    /// Attaches the guard to a shared [`Observability`] handle: per-reason
    /// reject counters, the watermark gauge and per-alert stage tracing all
    /// start feeding it. Metric registration is idempotent, so restarted
    /// workers keep accumulating into the same series.
    pub fn with_observability(mut self, obs: &Observability) -> Self {
        self.obs = GuardObs::registered(obs);
        self
    }

    /// Arms the guard's fault-injection sites
    /// ([`GuardOffer`](crate::faultinject::InjectionSite::GuardOffer) and
    /// [`GuardValidate`](crate::faultinject::InjectionSite::GuardValidate)).
    /// An intercepted alert is preserved in the dead-letter queue as
    /// [`RejectReason::FaultInjected`] — even when the action is a panic,
    /// so chaos runs never lose evidence.
    pub fn with_faults(mut self, offer: Option<FaultArm>, validate: Option<FaultArm>) -> Self {
        self.offer_fault = offer;
        self.validate_fault = validate;
        self
    }

    /// Checks one guard fault arm for `raw`; dead-letters on error *and*
    /// panic actions (the panic is raised after the letter is written).
    fn check_fault(&mut self, arm: &FaultArm, raw: &RawAlert) -> bool {
        match arm.check(raw.trace, raw.timestamp) {
            None => false,
            Some(FaultAction::Error) => true,
            Some(FaultAction::Latency(ms)) => {
                faultinject::sleep_ms(ms);
                false
            }
            Some(FaultAction::Panic) => {
                self.reject(raw.clone(), RejectReason::FaultInjected);
                arm.panic_now()
            }
        }
    }

    /// The current watermark: releases and late-drop decisions happen
    /// against this.
    pub fn watermark(&self) -> SimTime {
        SimTime::from_millis(
            self.max_seen
                .as_millis()
                .saturating_sub(self.cfg.skew_window.as_millis()),
        )
    }

    /// Counters so far (watermark field refreshed on read).
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            watermark: self.watermark(),
            ..self.stats
        }
    }

    /// The shared dead-letter queue.
    pub fn dead_letters(&self) -> Arc<Mutex<DeadLetterQueue>> {
        Arc::clone(&self.dead)
    }

    /// Alerts currently held in the reordering buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Serializes everything a warm restart needs to resume this guard
    /// mid-flood: the reordering buffer, watermark clocks, duplicate
    /// signatures (in path form — [`LocId`]s are re-interned on restore),
    /// counters, the dense trace cursor and the dead-letter queue.
    pub fn snapshot_state(&self) -> GuardState {
        let mut buffered: Vec<(u64, RawAlert)> = self
            .buffer
            .iter()
            .map(|Reverse(b)| (b.seq, b.alert.clone()))
            .collect();
        buffered.sort_by_key(|(seq, _)| *seq);
        let seen = self
            .seen
            .iter()
            .map(|(key, &at)| SeenEntry {
                source: key.0,
                body: key.1.clone(),
                location: self.interner.path(key.2).clone(),
                peer: key.3.map(|p| self.interner.path(p).clone()),
                timestamp: key.4,
                magnitude_bits: key.5,
                admitted_at: at,
            })
            .collect();
        GuardState {
            buffered,
            seq: self.seq,
            max_seen: self.max_seen,
            trusted_now: self.trusted_now,
            seen,
            stats: self.stats,
            next_trace: self.next_trace,
            dead: self.dead.lock().snapshot_state(),
        }
    }

    /// Restores state captured by [`IngestGuard::snapshot_state`] onto a
    /// freshly built guard over the same topology. Duplicate signatures
    /// whose locations no longer resolve (a topology change between
    /// snapshot and restore) are dropped — the alerts they guarded against
    /// would be rejected as off-topology anyway.
    pub fn restore_state(&mut self, state: GuardState) {
        self.buffer = state
            .buffered
            .into_iter()
            .map(|(seq, alert)| {
                Reverse(Buffered {
                    at: alert.timestamp,
                    seq,
                    alert,
                })
            })
            .collect();
        self.seq = state.seq;
        self.max_seen = state.max_seen;
        self.trusted_now = state.trusted_now;
        self.seen = state
            .seen
            .into_iter()
            .filter_map(|e| {
                let loc = self.interner.resolve(&e.location)?;
                let peer = match &e.peer {
                    Some(p) => Some(self.interner.resolve(p)?),
                    None => None,
                };
                let key: DupKey = (e.source, e.body, loc, peer, e.timestamp, e.magnitude_bits);
                Some((key, e.admitted_at))
            })
            .collect();
        self.stats = state.stats;
        self.next_trace = state.next_trace;
        self.dead.lock().restore_state(state.dead);
    }

    /// Validates one alert, returning the interned ids of its location and
    /// peer so admission never resolves (or clones) a path twice.
    fn validate(&self, raw: &RawAlert) -> Result<(LocId, Option<LocId>), RejectReason> {
        if raw.structural_defect().is_some() {
            return Err(RejectReason::CorruptBody);
        }
        let Some(loc) = self.interner.resolve(&raw.location) else {
            return Err(RejectReason::OffTopology);
        };
        let peer = match &raw.peer {
            Some(peer) => match self.interner.resolve(peer) {
                Some(id) => Some(id),
                None => return Err(RejectReason::OffTopology),
            },
            None => None,
        };
        if let Some(now) = self.trusted_now {
            if raw.timestamp > now.saturating_add(self.cfg.max_future_skew) {
                return Err(RejectReason::FutureTimestamp);
            }
        }
        if raw.timestamp < self.watermark() {
            return Err(RejectReason::StaleTimestamp);
        }
        Ok((loc, peer))
    }

    fn reject(&mut self, raw: RawAlert, reason: RejectReason) -> RejectReason {
        match reason {
            RejectReason::OffTopology => self.stats.rejected_off_topology += 1,
            RejectReason::StaleTimestamp => self.stats.rejected_stale += 1,
            RejectReason::FutureTimestamp => self.stats.rejected_future += 1,
            RejectReason::Duplicate => self.stats.rejected_duplicate += 1,
            RejectReason::CorruptBody => self.stats.rejected_corrupt += 1,
            RejectReason::FaultInjected => self.stats.rejected_injected += 1,
        }
        self.obs.rejected[DeadLetterQueue::slot(reason)].inc();
        self.obs
            .tracer
            .record(raw.trace, raw.timestamp, Stage::GuardRejected(reason));
        self.dead.lock().push(raw, reason);
        reason
    }

    /// Offers one alert. Admitted alerts enter the reordering buffer;
    /// anything the advancing watermark releases is appended to `out` in
    /// non-decreasing timestamp order. Rejects are quarantined and counted.
    ///
    /// The guard is also where per-alert tracing begins: every offered
    /// alert that does not already carry a [`TraceId`] is assigned the next
    /// dense id (starting at 1) in intake order, rejects included, so the
    /// dead-letter queue stays explainable too.
    pub fn offer(
        &mut self,
        mut raw: RawAlert,
        out: &mut Vec<RawAlert>,
    ) -> Result<(), RejectReason> {
        if raw.trace.is_none() {
            self.next_trace += 1;
            raw.trace = TraceId(self.next_trace);
        }
        if let Some(arm) = self.offer_fault.clone() {
            if self.check_fault(&arm, &raw) {
                return Err(self.reject(raw, RejectReason::FaultInjected));
            }
        }
        let (loc, peer) = match self.validate(&raw) {
            Ok(ids) => ids,
            Err(reason) => return Err(self.reject(raw, reason)),
        };
        if let Some(arm) = self.validate_fault.clone() {
            if self.check_fault(&arm, &raw) {
                return Err(self.reject(raw, RejectReason::FaultInjected));
            }
        }
        let key: DupKey = (
            raw.source,
            raw.body.clone(),
            loc,
            peer,
            raw.timestamp,
            raw.magnitude.to_bits(),
        );
        match self.seen.entry(key) {
            Entry::Occupied(_) => {
                return Err(self.reject(raw, RejectReason::Duplicate));
            }
            Entry::Vacant(v) => {
                v.insert(raw.timestamp);
            }
        }
        self.stats.accepted += 1;
        self.obs.accepted.inc();
        if raw.timestamp < self.max_seen {
            self.stats.reordered += 1;
            self.obs.reordered.inc();
        }
        self.obs
            .tracer
            .record(raw.trace, raw.timestamp, Stage::GuardAdmitted);
        let at = raw.timestamp;
        self.buffer.push(Reverse(Buffered {
            at,
            seq: self.seq,
            alert: raw,
        }));
        self.seq += 1;
        self.max_seen = self.max_seen.max_of(at);
        self.release(out);
        Ok(())
    }

    /// Offers a whole recorded feed, taking ownership so nothing is cloned
    /// on the hot path, and appends everything released. Rejects are
    /// quarantined and counted exactly as by per-alert [`offer`] calls.
    /// Each alert leaves the iterator before it is offered, so a caller
    /// that catches a fault-site panic can resume with the same iterator.
    ///
    /// [`offer`]: IngestGuard::offer
    pub fn offer_batch(
        &mut self,
        alerts: impl IntoIterator<Item = RawAlert>,
        out: &mut Vec<RawAlert>,
    ) {
        let alerts = alerts.into_iter();
        // All but the rejects end up in `out` once the guard is flushed.
        out.reserve(alerts.size_hint().0);
        for alert in alerts {
            let _ = self.offer(alert, out);
        }
    }

    /// Advances the trusted clock (from a `Tick`), releasing everything the
    /// new watermark passes.
    pub fn advance(&mut self, now: SimTime, out: &mut Vec<RawAlert>) {
        self.trusted_now = Some(self.trusted_now.map_or(now, |t| t.max_of(now)));
        self.max_seen = self.max_seen.max_of(now);
        self.release(out);
    }

    /// End of stream: releases every buffered alert regardless of the
    /// watermark.
    pub fn flush(&mut self, out: &mut Vec<RawAlert>) {
        while let Some(Reverse(b)) = self.buffer.pop() {
            self.obs
                .tracer
                .record(b.alert.trace, b.at, Stage::GuardReleased);
            out.push(b.alert);
        }
        self.seen.clear();
    }

    fn release(&mut self, out: &mut Vec<RawAlert>) {
        let watermark = self.watermark();
        self.obs.watermark.set(watermark.as_millis() as f64 / 1e3);
        loop {
            match self.buffer.peek() {
                Some(Reverse(top)) if top.at <= watermark => {}
                _ => break,
            }
            if let Some(Reverse(b)) = self.buffer.pop() {
                self.obs
                    .tracer
                    .record(b.alert.trace, b.at, Stage::GuardReleased);
                out.push(b.alert);
            }
        }
        // Duplicate suppression only needs signatures the stale check would
        // not already catch, i.e. admission times at or above the watermark.
        if self.seen.len() > 64 {
            self.seen.retain(|_, &mut at| at >= watermark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skynet_model::{AlertKind, DataSource, LocationPath};
    use skynet_topology::{generate, GeneratorConfig};

    fn topo() -> Topology {
        generate(&GeneratorConfig::small())
    }

    fn alert(topo: &Topology, secs: u64) -> RawAlert {
        RawAlert::known(
            DataSource::Ping,
            SimTime::from_secs(secs),
            topo.devices()[0].location.clone(),
            AlertKind::PacketLossIcmp,
        )
        .with_magnitude(0.1)
    }

    #[test]
    fn well_formed_alerts_pass_in_order() {
        let t = topo();
        let mut guard = IngestGuard::new(&t, GuardConfig::default());
        let mut out = Vec::new();
        for s in 0..100 {
            guard.offer(alert(&t, s), &mut out).unwrap();
        }
        guard.flush(&mut out);
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        let stats = guard.stats();
        assert_eq!(stats.accepted, 100);
        assert_eq!(stats.rejected(), 0);
        assert!(guard.dead_letters().lock().is_empty());
    }

    #[test]
    fn bounded_skew_is_resequenced_and_counted() {
        let t = topo();
        let mut guard = IngestGuard::new(&t, GuardConfig::default());
        let mut out = Vec::new();
        // 100, 90, 110: the 90 s alert is 10 s out of order — inside the
        // 30 s window, so it must come out between the other two.
        for s in [100, 90, 110] {
            guard.offer(alert(&t, s), &mut out).unwrap();
        }
        guard.flush(&mut out);
        let times: Vec<u64> = out.iter().map(|a| a.timestamp.as_secs()).collect();
        assert_eq!(times, vec![90, 100, 110]);
        assert_eq!(guard.stats().reordered, 1);
        assert_eq!(guard.stats().rejected(), 0);
    }

    #[test]
    fn late_alerts_behind_the_watermark_are_dropped() {
        let t = topo();
        let mut guard = IngestGuard::new(&t, GuardConfig::default());
        let mut out = Vec::new();
        guard.offer(alert(&t, 100), &mut out).unwrap();
        // 100 s - 30 s window = watermark 70 s; 50 s is hopelessly late.
        let err = guard.offer(alert(&t, 50), &mut out).unwrap_err();
        assert_eq!(err, RejectReason::StaleTimestamp);
        let stats = guard.stats();
        assert_eq!(stats.rejected_stale, 1);
        assert_eq!(stats.watermark, SimTime::from_secs(70));
        let dlq = guard.dead_letters();
        let dlq = dlq.lock();
        assert_eq!(dlq.count(RejectReason::StaleTimestamp), 1);
        assert_eq!(
            dlq.letters().next().unwrap().reason,
            RejectReason::StaleTimestamp
        );
    }

    #[test]
    fn future_check_arms_on_first_tick() {
        let t = topo();
        let mut guard = IngestGuard::new(&t, GuardConfig::default());
        let mut out = Vec::new();
        // Without a tick there is no trusted clock: any timestamp passes.
        guard.offer(alert(&t, 10_000), &mut out).unwrap();
        let mut guard = IngestGuard::new(&t, GuardConfig::default());
        guard.advance(SimTime::from_secs(60), &mut out);
        let err = guard.offer(alert(&t, 60 + 3601), &mut out).unwrap_err();
        assert_eq!(err, RejectReason::FutureTimestamp);
        // Just inside the allowance passes.
        guard.offer(alert(&t, 60 + 3600), &mut out).unwrap();
        assert_eq!(guard.stats().rejected_future, 1);
    }

    #[test]
    fn off_topology_and_corrupt_alerts_are_quarantined() {
        let t = topo();
        let mut guard = IngestGuard::new(&t, GuardConfig::default());
        let mut out = Vec::new();
        let foreign = RawAlert::known(
            DataSource::Ping,
            SimTime::from_secs(1),
            LocationPath::parse("Atlantis|Lost City").unwrap(),
            AlertKind::PacketLossIcmp,
        );
        assert_eq!(
            guard.offer(foreign, &mut out).unwrap_err(),
            RejectReason::OffTopology
        );
        let bad_peer = alert(&t, 1).with_peer(LocationPath::parse("Nowhere").unwrap());
        assert_eq!(
            guard.offer(bad_peer, &mut out).unwrap_err(),
            RejectReason::OffTopology
        );
        let corrupt = RawAlert::syslog(
            SimTime::from_secs(1),
            t.devices()[0].location.clone(),
            "garbage \u{0} bytes",
        );
        assert_eq!(
            guard.offer(corrupt, &mut out).unwrap_err(),
            RejectReason::CorruptBody
        );
        let nan = alert(&t, 1).with_magnitude(f64::NAN);
        assert_eq!(
            guard.offer(nan, &mut out).unwrap_err(),
            RejectReason::CorruptBody
        );
        let dlq = guard.dead_letters();
        let dlq = dlq.lock();
        assert_eq!(dlq.count(RejectReason::OffTopology), 2);
        assert_eq!(dlq.count(RejectReason::CorruptBody), 2);
        assert_eq!(dlq.total(), 4);
    }

    #[test]
    fn exact_duplicates_are_rejected_but_new_observations_pass() {
        let t = topo();
        let mut guard = IngestGuard::new(&t, GuardConfig::default());
        let mut out = Vec::new();
        guard.offer(alert(&t, 10), &mut out).unwrap();
        let err = guard.offer(alert(&t, 10), &mut out).unwrap_err();
        assert_eq!(err, RejectReason::Duplicate);
        // Same shape, later observation: a genuine new data point.
        guard.offer(alert(&t, 12), &mut out).unwrap();
        // Same time but different magnitude: not an exact retransmission.
        guard
            .offer(alert(&t, 10).with_magnitude(0.7), &mut out)
            .unwrap();
        assert_eq!(guard.stats().rejected_duplicate, 1);
        assert_eq!(guard.stats().accepted, 3);
    }

    #[test]
    fn dead_letter_queue_is_bounded_but_counters_are_not() {
        let mut dlq = DeadLetterQueue::new(2);
        let t = topo();
        for s in 0..5 {
            dlq.push(alert(&t, s), RejectReason::Duplicate);
        }
        assert_eq!(dlq.len(), 2);
        assert_eq!(dlq.count(RejectReason::Duplicate), 5);
        assert_eq!(dlq.evicted(), 3);
        // The retained letters are the most recent ones.
        let kept: Vec<u64> = dlq.letters().map(|l| l.alert.timestamp.as_secs()).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn guard_assigns_dense_trace_ids_and_feeds_observability() {
        use crate::obs::{ObsConfig, Observability};
        let t = topo();
        let obs = Observability::new(&ObsConfig::default());
        let mut guard = IngestGuard::new(&t, GuardConfig::default()).with_observability(&obs);
        let mut out = Vec::new();
        guard.offer(alert(&t, 1), &mut out).unwrap();
        guard.offer(alert(&t, 2), &mut out).unwrap();
        // A duplicate still receives a trace id (and a rejected event).
        let _ = guard.offer(alert(&t, 1), &mut out);
        guard.flush(&mut out);
        let ids: Vec<u64> = out.iter().map(|a| a.trace.0).collect();
        assert_eq!(ids, vec![1, 2], "dense ids in intake order");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("skynet_ingest_accepted_total", None), 2);
        assert_eq!(
            snap.counter("skynet_ingest_rejected_total", Some("duplicate")),
            1
        );
        // trace3 was rejected, traces 1-2 admitted and released.
        let steps: Vec<String> = obs
            .explain(skynet_model::TraceId(3))
            .iter()
            .map(|e| e.stage.label())
            .collect();
        assert_eq!(steps, vec!["guard:rejected(duplicate)"]);
        let steps: Vec<String> = obs
            .explain(skynet_model::TraceId(1))
            .iter()
            .map(|e| e.stage.label())
            .collect();
        assert_eq!(steps, vec!["guard:admitted", "guard:released"]);
    }

    #[test]
    fn guard_state_round_trips_mid_flood() {
        let t = topo();
        let mut live = IngestGuard::new(&t, GuardConfig::default());
        let mut live_out = Vec::new();
        for s in [100, 90, 110, 130, 125] {
            let _ = live.offer(alert(&t, s), &mut live_out);
        }
        live.advance(SimTime::from_secs(140), &mut live_out);

        let state = live.snapshot_state();
        let json = serde_json::to_string(&state).unwrap();
        let state: GuardState = serde_json::from_str(&json).unwrap();
        let mut restored = IngestGuard::new(&t, GuardConfig::default());
        restored.restore_state(state);
        assert_eq!(restored.buffered(), live.buffered());
        assert_eq!(restored.stats(), live.stats());

        // The tail of the flood must play out identically: a duplicate of a
        // pre-snapshot alert is still rejected, new alerts release in the
        // same order, and trace ids continue from the same cursor.
        let mut r_out = Vec::new();
        let tail = [125u64, 150, 145, 200];
        for s in tail {
            let _ = restored.offer(alert(&t, s), &mut r_out);
        }
        restored.flush(&mut r_out);
        let mut l_tail = Vec::new();
        for s in tail {
            let _ = live.offer(alert(&t, s), &mut l_tail);
        }
        live.flush(&mut l_tail);
        assert_eq!(r_out, l_tail);
        assert_eq!(restored.stats(), live.stats());
        assert_eq!(
            restored.dead_letters().lock().total(),
            live.dead_letters().lock().total()
        );
    }
}
