//! The event-at-a-time pipeline state machine.
//!
//! An [`Engine`] is one incarnation of the paper's always-on pipeline
//! (§4.1–4.2): an ingest guard, a preprocessor and one region-affine
//! locator per configured shard, advanced one event at a time on the
//! calling thread. Both long-lived front ends drive it — the streaming
//! worker ([`SkyNet::stream`], one anonymous feed on fault lane 0) and each
//! serving tenant's worker (`serve`, one engine per tenant incarnation fed
//! from the WAL). It is *deterministic in its event sequence*: the same
//! alerts, pings and ticks applied to a fresh engine — or to one restored
//! from [`Engine::snapshot`] mid-way — leave byte-identical state at any
//! shard count, which is what makes warm restarts and `skynet replay`
//! honest.
//!
//! Batch [`SkyNet::analyze_owned`] is a different contract (phase-ordered,
//! parallel locate lanes that replay their partition on panic) and keeps
//! its own driver.

use crate::error::RejectReason;
use crate::faultinject::{self, FaultAction, FaultArm, FaultPlane, InjectionSite};
use crate::guard::{DeadLetter, DeadLetterQueue, GuardState, IngestGuard, IngestStats};
use crate::locator::{Incident, Locator, LocatorState};
use crate::obs::{Stage, StageTracer};
use crate::pipeline::{merge_incidents, AnalysisReport, SkyNet};
use crate::preprocess::{PreprocessStats, Preprocessor, PreprocessorState};
use crate::shard::{ShardRouter, FALLBACK_SHARD};
use parking_lot::Mutex;
use skynet_model::{PingLog, PingSample, RawAlert, SimTime, StructuredAlert};
use std::sync::Arc;

/// An engine's serialized mid-flood state: what a snapshot carries and a
/// restore puts back onto freshly built stages.
pub(crate) struct EngineState {
    pub(crate) guard: GuardState,
    pub(crate) preprocess: PreprocessorState,
    /// One locator state per shard, in shard order.
    pub(crate) locators: Vec<LocatorState>,
    pub(crate) ping: PingLog,
}

/// One pipeline incarnation: guard → preprocess → shard route → locate.
pub(crate) struct Engine {
    guard: IngestGuard,
    preprocessor: Preprocessor,
    locators: Vec<Locator>,
    router: ShardRouter,
    ping: PingLog,
    tracer: StageTracer,
    route_fault: Option<FaultArm>,
    locate_faults: Vec<Option<FaultArm>>,
    released: Vec<RawAlert>,
    structured: Vec<StructuredAlert>,
}

impl Engine {
    /// A fresh engine wired to the pipeline's config, observability and
    /// fault plane, quarantining into `dead`. Every ingestion-side fault
    /// site is armed on `lane_base`; the shard-affine `locate-worker` site
    /// on `lane_base + shard`.
    pub(crate) fn new(
        skynet: &SkyNet,
        lane_base: u32,
        dead: Arc<Mutex<DeadLetterQueue>>,
        plane: &Option<Arc<FaultPlane>>,
    ) -> Engine {
        let shards = skynet.cfg.streaming.shards.max(1);
        let arm = |site: InjectionSite, lane: u32| plane.as_ref().and_then(|p| p.arm(site, lane));
        let guard =
            IngestGuard::with_dead_letters(&skynet.topo, skynet.cfg.streaming.guard.clone(), dead)
                .with_observability(&skynet.obs)
                .with_faults(
                    arm(InjectionSite::GuardOffer, lane_base),
                    arm(InjectionSite::GuardValidate, lane_base),
                );
        let preprocessor =
            Preprocessor::new(skynet.cfg.preprocessor.clone(), skynet.classifier.clone())
                .with_observability(&skynet.obs)
                .with_faults(
                    arm(InjectionSite::PreprocessClassify, lane_base),
                    arm(InjectionSite::PreprocessConsolidate, lane_base),
                );
        let locators = (0..shards)
            .map(|_| {
                Locator::new(&skynet.topo, skynet.cfg.locator.clone())
                    .with_observability(&skynet.obs)
            })
            .collect();
        let locate_faults = (0..shards)
            .map(|s| arm(InjectionSite::LocateWorker, lane_base + s as u32))
            .collect();
        Engine {
            guard,
            preprocessor,
            locators,
            router: ShardRouter::new(skynet.topo.interner(), shards),
            ping: PingLog::new(),
            tracer: skynet.obs.tracer(),
            route_fault: arm(InjectionSite::ShardRoute, lane_base),
            locate_faults,
            released: Vec::new(),
            structured: Vec::new(),
        }
    }

    /// Puts a snapshot's stage states back onto this (freshly built)
    /// engine.
    pub(crate) fn restore(&mut self, state: EngineState) {
        // ServiceHandle::start validates shard count and topology base
        // before restoring (returning ServeError::Corrupt); this assert
        // only backstops callers that skipped that validation.
        assert_eq!(
            state.locators.len(),
            self.locators.len(),
            "snapshot shard count must match the configured shard count"
        );
        self.guard.restore_state(state.guard);
        self.preprocessor.restore_state(state.preprocess);
        for (locator, state) in self.locators.iter_mut().zip(state.locators) {
            locator.restore_state(state);
        }
        self.ping = state.ping;
    }

    /// Serializes every stage's mid-flood state.
    pub(crate) fn snapshot(&self) -> EngineState {
        EngineState {
            guard: self.guard.snapshot_state(),
            preprocess: self.preprocessor.snapshot_state(),
            locators: self.locators.iter().map(|l| l.snapshot_state()).collect(),
            ping: self.ping.clone(),
        }
    }

    /// The dead-letter queue this incarnation quarantines into.
    pub(crate) fn dead_letters(&self) -> Arc<Mutex<DeadLetterQueue>> {
        self.guard.dead_letters()
    }

    /// This incarnation's preprocessing counters.
    pub(crate) fn preprocess_stats(&self) -> PreprocessStats {
        self.preprocessor.stats()
    }

    /// This incarnation's ingestion-guard counters.
    pub(crate) fn ingest_stats(&self) -> IngestStats {
        self.guard.stats()
    }

    /// Offers one raw alert to the guard and runs whatever the watermark
    /// releases through to the locators.
    pub(crate) fn alert(&mut self, raw: RawAlert) {
        let _ = self.guard.offer(raw, &mut self.released);
        self.feed_released();
    }

    /// Records one lossy ping sample for the reachability matrix.
    pub(crate) fn ping(&mut self, sample: PingSample) {
        self.ping
            .record(sample.t, sample.src, sample.dst, sample.loss);
    }

    /// Advances the pipeline clock: the guard's trusted time first (what it
    /// releases is located before the sweep), then every locator's
    /// timeouts.
    pub(crate) fn tick(&mut self, now: SimTime) {
        self.guard.advance(now, &mut self.released);
        self.feed_released();
        for locator in &mut self.locators {
            locator.advance(now);
        }
    }

    /// Runs everything the guard just released through preprocess and into
    /// the shard-affine locators, honoring the shard-route and
    /// locate-worker fault arms exactly like the batch path.
    fn feed_released(&mut self) {
        // Taken, not borrowed: when a locate-worker panic unwinds out of
        // this loop the rest of the batch goes with it instead of being
        // re-fed by the next event (a serving tenant's engine carries on
        // after the panic is caught).
        let mut released = std::mem::take(&mut self.released);
        for raw in &released {
            self.structured.clear();
            self.preprocessor.push(raw, &mut self.structured);
            for alert in self.structured.drain(..) {
                let shard = if faultinject::trip(&self.route_fault, alert.trace, alert.last_seen) {
                    // Misroute to the fallback shard: the alert still lands
                    // in *a* locator, modeling a routing-table fault.
                    FALLBACK_SHARD
                } else {
                    self.router.route(&alert.location)
                };
                self.tracer.record(
                    alert.trace,
                    alert.last_seen,
                    Stage::ShardRouted(shard as u16),
                );
                if let Some(arm) = &self.locate_faults[shard] {
                    match arm.check(alert.trace, alert.last_seen) {
                        Some(FaultAction::Error) => {
                            fault_letter(&self.guard.dead_letters(), &alert);
                            continue;
                        }
                        Some(FaultAction::Panic) => {
                            // Quarantine before unwinding: the event is
                            // already consumed from its queue, so the
                            // letter is the only surviving evidence.
                            fault_letter(&self.guard.dead_letters(), &alert);
                            arm.panic_now()
                        }
                        Some(FaultAction::Latency(ms)) => faultinject::sleep_ms(ms),
                        None => {}
                    }
                }
                self.tracer
                    .record(alert.trace, alert.last_seen, Stage::LocateInserted);
                self.locators[shard].insert(&alert);
            }
        }
        released.clear();
        self.released = released;
    }

    /// End of feed, ingestion side: releases everything the guard still
    /// buffers and closes every consolidation window.
    fn close_ingest(&mut self) {
        self.guard.flush(&mut self.released);
        self.feed_released();
        self.preprocessor.finish();
    }

    /// End of stream: drains the ingestion side and finalizes every open
    /// incident, leaving them for [`Engine::take_completed`].
    pub(crate) fn flush(&mut self) {
        self.close_ingest();
        for locator in &mut self.locators {
            locator.finish();
        }
    }

    /// Incidents whose trees finalized since the last call, in shard order.
    /// Ids are per locator: the canonical renumbering needs the full
    /// completed set, which only [`Engine::finish`] has.
    pub(crate) fn take_completed(&mut self) -> Vec<Incident> {
        self.locators
            .iter_mut()
            .flat_map(|l| l.take_completed())
            .collect()
    }

    /// The ping samples recorded so far — what completed incidents are
    /// scored against.
    pub(crate) fn ping_log(&self) -> &PingLog {
        &self.ping
    }

    /// Finalizes the run — drain the ingestion side, sweep the locators to
    /// `horizon` — and assembles the canonical [`AnalysisReport`].
    pub(crate) fn finish(
        mut self,
        skynet: &SkyNet,
        horizon: SimTime,
        plane: Option<Arc<FaultPlane>>,
    ) -> AnalysisReport {
        self.close_ingest();
        let mut parts: Vec<Vec<Incident>> = Vec::with_capacity(self.locators.len());
        for locator in &mut self.locators {
            locator.advance(horizon);
            locator.finish();
            parts.push(locator.take_completed());
        }
        let incidents = merge_incidents(parts);
        // Completion events carry the canonical (post-merge) incident ids,
        // mirroring the batch path.
        for incident in &incidents {
            for alert in &incident.alerts {
                self.tracer.record(
                    alert.trace,
                    incident.last_seen,
                    Stage::IncidentCompleted(incident.id),
                );
            }
        }
        let dead_letters: Vec<DeadLetter> = self.dead_letters().lock().letters().cloned().collect();
        skynet.finish_report(
            incidents,
            &self.ping,
            self.preprocessor.stats(),
            self.guard.stats(),
            dead_letters,
            plane,
        )
    }
}

/// Synthesizes a dead letter for a structured alert a fault intercepted
/// past the guard, so chaos runs never lose evidence silently.
pub(crate) fn fault_letter(dead: &Mutex<DeadLetterQueue>, alert: &StructuredAlert) {
    let raw = RawAlert::known(
        alert.ty.source,
        alert.last_seen,
        alert.location.clone(),
        alert.ty.kind,
    )
    .with_magnitude(alert.magnitude)
    .with_trace(alert.trace);
    dead.lock().push(raw, RejectReason::FaultInjected);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{topo, two_region_flood};
    use crate::pipeline::{PipelineConfig, StreamEvent, StreamIncident};
    use crate::serve::{ServeConfig, WalEvent};
    use skynet_topology::Topology;

    const HORIZON: SimTime = SimTime::from_mins(30);

    /// The two-region flood as an event feed: at every 10-s mark the alerts
    /// pass, a lossy ping sample between the first two clusters, then a
    /// tick.
    fn event_feed(t: &Arc<Topology>) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        let mut next_mark = 10u64;
        for alert in two_region_flood(t) {
            while alert.timestamp >= SimTime::from_secs(next_mark) {
                events.push(StreamEvent::Ping(PingSample {
                    t: SimTime::from_secs(next_mark),
                    src: t.clusters()[0].clone(),
                    dst: t.clusters()[1].clone(),
                    loss: 0.2,
                }));
                events.push(StreamEvent::Tick(SimTime::from_secs(next_mark)));
                next_mark += 10;
            }
            events.push(StreamEvent::Alert(alert));
        }
        events
    }

    fn skynet(t: &Arc<Topology>, shards: usize) -> SkyNet {
        let mut cfg = PipelineConfig::production();
        cfg.streaming.shards = shards;
        SkyNet::builder(t).config(cfg).build()
    }

    fn fresh(skynet: &SkyNet) -> Engine {
        let dead = Arc::new(Mutex::new(DeadLetterQueue::new(16)));
        Engine::new(skynet, 0, dead, &None)
    }

    fn drive(engine: &mut Engine, events: &[StreamEvent]) {
        for event in events {
            match event.clone() {
                StreamEvent::Alert(raw) => engine.alert(raw),
                StreamEvent::Ping(sample) => engine.ping(sample),
                StreamEvent::Tick(now) => engine.tick(now),
                StreamEvent::Flush | StreamEvent::ChaosPanic => unreachable!("not in the feed"),
            }
        }
    }

    fn report_json(skynet: &SkyNet, engine: Engine) -> String {
        let report = engine.finish(skynet, HORIZON, None);
        assert_eq!(report.incidents.len(), 2, "one incident per region");
        serde_json::to_string(&report).expect("report serializes")
    }

    #[test]
    fn report_is_byte_identical_at_one_and_two_shards() {
        let t = topo();
        let events = event_feed(&t);
        let run = |shards: usize| {
            let skynet = skynet(&t, shards);
            let mut engine = fresh(&skynet);
            drive(&mut engine, &events);
            report_json(&skynet, engine)
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn snapshot_restore_mid_feed_matches_the_uninterrupted_run() {
        let t = topo();
        let events = event_feed(&t);
        for shards in [1, 2] {
            let skynet = skynet(&t, shards);
            let mut whole = fresh(&skynet);
            drive(&mut whole, &events);

            let (head, tail) = events.split_at(events.len() / 2);
            let mut first = fresh(&skynet);
            drive(&mut first, head);
            let mut second = fresh(&skynet);
            second.restore(first.snapshot());
            drive(&mut second, tail);

            assert_eq!(
                report_json(&skynet, second),
                report_json(&skynet, whole),
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn streaming_and_a_tenant_agree_on_the_incident_set() {
        let t = topo();
        let mut events = event_feed(&t);
        events.push(StreamEvent::Tick(HORIZON));
        // What the locators decided, independent of emission order and of
        // the ids (per locator when streaming, canonical in a report).
        let key = |i: &Incident| (i.first_seen, i.root.clone(), i.last_seen, i.alerts.clone());
        for shards in [1, 2] {
            let handle = skynet(&t, shards).stream();
            for event in &events {
                handle.events.send(event.clone()).unwrap();
            }
            handle.events.send(StreamEvent::Flush).unwrap();
            let streamed: Vec<StreamIncident> = handle.incidents.iter().collect();
            handle.join().unwrap();

            let wal_dir = std::env::temp_dir().join(format!(
                "skynet-engine-test-{}-{shards}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&wal_dir);
            let service = SkyNet::builder(&t)
                .config(skynet(&t, shards).cfg)
                .serve(ServeConfig::new(&wal_dir))
                .unwrap();
            service.hello("tenant").unwrap();
            for event in &events {
                let event = match event.clone() {
                    StreamEvent::Alert(raw) => WalEvent::Alert(raw),
                    StreamEvent::Ping(sample) => WalEvent::Ping(sample),
                    StreamEvent::Tick(now) => WalEvent::Tick(now),
                    StreamEvent::Flush | StreamEvent::ChaosPanic => unreachable!("not in the feed"),
                };
                service.submit("tenant", event).unwrap();
            }
            let report = service.report("tenant", HORIZON).unwrap();
            service.shutdown();
            let _ = std::fs::remove_dir_all(&wal_dir);

            let mut from_stream: Vec<_> =
                streamed.iter().map(|s| key(&s.scored.incident)).collect();
            let mut from_tenant: Vec<_> =
                report.incidents.iter().map(|s| key(&s.incident)).collect();
            from_stream.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
            from_tenant.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
            assert_eq!(from_stream.len(), 2, "one incident per region");
            assert_eq!(from_stream, from_tenant, "shards = {shards}");
            // Same guard, same preprocessor: counter parity too.
            assert_eq!(handle.preprocess_stats(), report.preprocess);
            assert_eq!(handle.ingest_stats(), report.ingest);
        }
    }
}
