//! The pipeline state machine.
//!
//! An [`Engine`] is one incarnation of the paper's always-on pipeline
//! (§4.1–4.2): an ingest guard, a preprocessor and one region-affine
//! locator per configured shard, advanced on the calling thread one event
//! — or, for a recorded flood, one stage — at a time. Every driver runs
//! it: the streaming worker ([`SkyNet::stream`], one anonymous feed on
//! fault lane 0), each serving tenant's worker (`serve`, one engine per
//! tenant incarnation fed from the WAL) and batch
//! [`SkyNet::analyze_owned`], which replays a recorded flood through one
//! engine on lane 0. It is *deterministic in its event sequence*: the same
//! alerts, pings and ticks applied to a fresh engine — or to one restored
//! from [`Engine::snapshot`] mid-way — leave byte-identical state at any
//! shard count, which is what makes warm restarts and `skynet replay`
//! honest.
//!
//! The stages hand alerts to each other through two buffers, `released`
//! and `structured`, that are walked in *phases*: everything the guard
//! released is preprocessed before anything is located, so each stage's
//! working set stays hot whether the call carries one alert or a whole
//! flood. The walk is **resumable**: an alert leaves its buffer (the cursor
//! moves past it) before work on it starts, so a panic unwinding out of a
//! stage loses exactly the alert in flight — which the guard and
//! `locate-worker` sites quarantine first — and the next call into the
//! engine carries on behind it. Every driver catches the panic and keeps
//! the engine.

use crate::error::RejectReason;
use crate::faultinject::{self, FaultAction, FaultArm, FaultPlane, InjectionSite};
use crate::guard::{DeadLetterQueue, GuardState, IngestGuard, IngestStats};
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
    /// What the guard released, and how much of it is preprocessed.
    released: Vec<RawAlert>,
    preprocessed: usize,
    /// What the preprocessor emitted, and how much of it is located.
    structured: Vec<StructuredAlert>,
    located: usize,
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
            preprocessed: 0,
            structured: Vec::new(),
            located: 0,
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
        self.feed();
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
        self.feed();
        for locator in &mut self.locators {
            locator.advance(now);
        }
    }

    /// Guard step over a recorded feed: offers `alerts` in order, then
    /// jumps trusted time to `horizon` (the report's `ingest.watermark`
    /// reads it) and releases everything still buffered, all of it left for
    /// [`Engine::preprocess`]. A caller that catches a guard-site panic
    /// resumes with the same iterator. The jump is not part of
    /// [`Engine::finish`]: a served report's watermark is wherever its
    /// feed's ticks left it.
    pub(crate) fn admit(&mut self, alerts: &mut impl Iterator<Item = RawAlert>, horizon: SimTime) {
        self.guard.offer_batch(alerts, &mut self.released);
        self.guard.advance(horizon, &mut self.released);
        self.guard.flush(&mut self.released);
    }

    /// Preprocess step: consolidates everything released and not yet
    /// preprocessed into `structured`.
    pub(crate) fn preprocess(&mut self) {
        while let Some(raw) = self.released.get(self.preprocessed) {
            self.preprocessed += 1;
            self.preprocessor.push(raw, &mut self.structured);
        }
        self.released.clear();
        self.preprocessed = 0;
    }

    /// Locate step: routes everything emitted and not yet located into its
    /// shard's locator, honoring the shard-route and locate-worker fault
    /// arms.
    pub(crate) fn locate(&mut self) {
        while let Some(alert) = self.structured.get(self.located) {
            self.located += 1;
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
                        fault_letter(&self.guard.dead_letters(), alert);
                        continue;
                    }
                    Some(FaultAction::Panic) => {
                        // Quarantine before unwinding: the alert has
                        // already left the feed, so the letter is the only
                        // surviving evidence.
                        fault_letter(&self.guard.dead_letters(), alert);
                        self.tracer.record(
                            alert.trace,
                            alert.last_seen,
                            Stage::WorkerRestarted(shard as u16),
                        );
                        arm.panic_now()
                    }
                    Some(FaultAction::Latency(ms)) => faultinject::sleep_ms(ms),
                    None => {}
                }
            }
            self.tracer
                .record(alert.trace, alert.last_seen, Stage::LocateInserted);
            // One clock for every shard, as the single locator has: alerts
            // are not emitted in `last_seen` order, and a region-local
            // clock would run its checks late relative to its own inserts
            // whenever another region's alert carried the later time.
            for locator in &mut self.locators {
                locator.advance(alert.last_seen);
            }
            self.locators[shard].insert(alert);
        }
        self.structured.clear();
        self.located = 0;
    }

    /// Runs everything the guard has released through preprocess and into
    /// the shard-affine locators, one stage at a time.
    fn feed(&mut self) {
        self.preprocess();
        self.locate();
    }

    /// End of feed, ingestion side: releases everything the guard still
    /// buffers and closes every consolidation window.
    fn close_ingest(&mut self) {
        self.guard.flush(&mut self.released);
        self.feed();
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

    /// End of run: drains the ingestion side, sweeps the locators to
    /// `horizon` and returns every incident in the canonical (merged,
    /// renumbered) order.
    pub(crate) fn close(&mut self, horizon: SimTime) -> Vec<Incident> {
        self.close_ingest();
        let mut parts: Vec<Vec<Incident>> = Vec::with_capacity(self.locators.len());
        for locator in &mut self.locators {
            locator.advance(horizon);
            locator.finish();
            parts.push(locator.take_completed());
        }
        let incidents = merge_incidents(parts);
        // Completion events carry the *canonical* (post-merge) incident
        // ids, so explain answers match the report the operator reads.
        for incident in &incidents {
            for alert in &incident.alerts {
                self.tracer.record(
                    alert.trace,
                    incident.last_seen,
                    Stage::IncidentCompleted(incident.id),
                );
            }
        }
        incidents
    }

    /// Closes the run at `horizon` and reports it against the engine's own
    /// ping log.
    pub(crate) fn finish(
        mut self,
        skynet: &SkyNet,
        horizon: SimTime,
        plane: Option<Arc<FaultPlane>>,
    ) -> AnalysisReport {
        let incidents = self.close(horizon);
        skynet.finish_report(&self, incidents, &self.ping, plane)
    }
}

/// Synthesizes a dead letter for a structured alert a fault intercepted
/// past the guard, so chaos runs never lose evidence silently.
fn fault_letter(dead: &Mutex<DeadLetterQueue>, alert: &StructuredAlert) {
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
    use crate::faultinject::{DegradationReport, FaultConfig, FaultRule};
    use crate::guard::DeadLetter;
    use crate::pipeline::tests::{topo, two_region_flood};
    use crate::pipeline::{PipelineConfig, StreamEvent, StreamIncident, StreamingHandle};
    use crate::serve::{ServeConfig, ServiceHandle, WalEvent};
    use skynet_model::{AlertClass, AlertKind, DataSource, LocationPath, SimDuration};
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
        skynet_with_faults(t, shards, FaultConfig::default())
    }

    fn skynet_with_faults(t: &Arc<Topology>, shards: usize, faults: FaultConfig) -> SkyNet {
        let mut cfg = PipelineConfig::production().with_faults(faults);
        cfg.streaming.shards = shards;
        SkyNet::builder(t).config(cfg).build()
    }

    fn one_rule(rule: FaultRule) -> FaultConfig {
        FaultConfig::seeded(3).with_rule(rule)
    }

    fn fault_letters(report: &AnalysisReport) -> Vec<&DeadLetter> {
        report
            .dead_letters
            .iter()
            .filter(|l| l.reason == RejectReason::FaultInjected)
            .collect()
    }

    fn restarts(skynet: &SkyNet) -> u64 {
        skynet
            .obs
            .snapshot()
            .counter("skynet_worker_restarts_total", None)
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

    /// What the locators decided, independent of emission order and of the
    /// ids (per locator when streaming, canonical in a report).
    fn incident_keys<'a>(
        incidents: impl Iterator<Item = &'a Incident>,
    ) -> Vec<(SimTime, LocationPath, SimTime, Vec<StructuredAlert>)> {
        let mut keys: Vec<_> = incidents
            .map(|i| (i.first_seen, i.root.clone(), i.last_seen, i.alerts.clone()))
            .collect();
        keys.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        keys
    }

    /// Streams `events` to the end and hands back what was emitted.
    fn stream_feed(
        skynet: SkyNet,
        events: &[StreamEvent],
    ) -> (Vec<StreamIncident>, StreamingHandle) {
        let handle = skynet.stream();
        for event in events {
            handle.send(event.clone()).unwrap();
        }
        handle.send(StreamEvent::Flush).unwrap();
        let incidents = handle.incidents.iter().collect();
        handle.join().unwrap();
        (incidents, handle)
    }

    /// Submits `events` to one served tenant and reports it at `HORIZON`.
    fn serve_feed(
        skynet: SkyNet,
        tag: &str,
        events: &[StreamEvent],
    ) -> (AnalysisReport, DegradationReport) {
        let wal_dir =
            std::env::temp_dir().join(format!("skynet-engine-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let service = ServiceHandle::start(skynet, ServeConfig::new(&wal_dir)).unwrap();
        service.hello("tenant").unwrap();
        for event in events {
            let event = match event.clone() {
                StreamEvent::Alert(raw) => WalEvent::Alert(raw),
                StreamEvent::Ping(sample) => WalEvent::Ping(sample),
                StreamEvent::Tick(now) => WalEvent::Tick(now),
                StreamEvent::Flush | StreamEvent::ChaosPanic => unreachable!("not in the feed"),
            };
            service.submit("tenant", event).unwrap();
        }
        let report = service.report("tenant", HORIZON).unwrap();
        let degradation = service.degradation_report();
        service.shutdown();
        let _ = std::fs::remove_dir_all(&wal_dir);
        (report, degradation)
    }

    #[test]
    fn streaming_and_a_tenant_agree_on_the_incident_set() {
        let t = topo();
        let mut events = event_feed(&t);
        events.push(StreamEvent::Tick(HORIZON));
        for shards in [1, 2] {
            let (streamed, handle) = stream_feed(skynet(&t, shards), &events);
            let (report, _) = serve_feed(skynet(&t, shards), &format!("agree-{shards}"), &events);

            let from_stream = incident_keys(streamed.iter().map(|s| &s.scored.incident));
            let from_tenant = incident_keys(report.incidents.iter().map(|s| &s.incident));
            assert_eq!(from_stream.len(), 2, "one incident per region");
            assert_eq!(from_stream, from_tenant, "shards = {shards}");
            // Same guard, same preprocessor: counter parity too.
            assert_eq!(handle.preprocess_stats(), report.preprocess);
            assert_eq!(handle.ingest_stats(), report.ingest);
        }
    }

    /// The determinism contract across drivers, with a fault armed: the
    /// second located alert panics, and batch, a served tenant and the
    /// stream all lose exactly that alert — the same incidents (here none:
    /// the lost alert was the second Failure kind the tree needed) and the
    /// same degradation timeline.
    #[test]
    fn every_driver_tells_the_same_story_of_a_locate_panic() {
        let t = topo();
        let site = t.clusters()[0].parent();
        let kinds = [
            (DataSource::Ping, AlertKind::PacketLossIcmp),
            (DataSource::Ping, AlertKind::PacketLossTcp),
            (DataSource::Snmp, AlertKind::LinkDown),
        ];
        let alerts: Vec<RawAlert> = (0..30usize)
            .map(|i| {
                let (source, kind) = kinds[i % 3];
                RawAlert::known(source, SimTime::from_secs(2 * i as u64), site.clone(), kind)
                    .with_magnitude(0.3)
            })
            .collect();
        let mut events: Vec<StreamEvent> = alerts.iter().cloned().map(StreamEvent::Alert).collect();
        events.push(StreamEvent::Tick(HORIZON));
        let faulted = || {
            skynet_with_faults(
                &t,
                1,
                FaultConfig::seeded(13).with_rule(FaultRule::once(
                    InjectionSite::LocateWorker,
                    2,
                    FaultAction::Panic,
                )),
            )
        };
        let story = |d: &DegradationReport| -> Vec<_> {
            d.timeline
                .iter()
                .map(|e| (e.at, e.trace, e.stage.label()))
                .collect()
        };

        let clean = skynet(&t, 1).analyze(&alerts, &PingLog::new(), HORIZON);
        assert_eq!(
            clean.incidents.len(),
            1,
            "without the fault the site has its incident"
        );

        let batch_net = faulted();
        let batch = batch_net.analyze(&alerts, &PingLog::new(), HORIZON);
        let batch_story = story(&batch_net.degradation_report(&batch));
        assert_eq!(
            batch_story.len(),
            2,
            "the injection and the restart it caused"
        );
        let batch_keys = incident_keys(batch.incidents.iter().map(|s| &s.incident));

        let (tenant, tenant_degradation) = serve_feed(faulted(), "story", &events);
        assert_eq!(
            incident_keys(tenant.incidents.iter().map(|s| &s.incident)),
            batch_keys
        );
        assert_eq!(story(&tenant_degradation), batch_story);

        let (streamed, handle) = stream_feed(faulted(), &events);
        assert_eq!(
            incident_keys(streamed.iter().map(|s| &s.scored.incident)),
            batch_keys
        );
        assert_eq!(story(&handle.degradation_report()), batch_story);
        assert_eq!(handle.health().restarts, 1);
    }

    /// What a caller that contains panics sees — a serving tenant's worker
    /// around `apply`: the poisoned alert is quarantined, and everything the
    /// same event released after it waits in the feed for the next call
    /// instead of vanishing unlocated and unlettered.
    #[test]
    fn a_caught_locate_panic_loses_only_the_poisoned_alert() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let t = topo();
        // In the second feed one late tick moves the watermark past every
        // alert that opens a consolidation group, so all six locate checks
        // — and any panic among them — happen inside that tick.
        let (early, late): (Vec<RawAlert>, Vec<RawAlert>) = two_region_flood(&t)
            .into_iter()
            .partition(|a| a.timestamp <= SimTime::from_secs(30));
        let mut one_tick: Vec<StreamEvent> = early.into_iter().map(StreamEvent::Alert).collect();
        one_tick.push(StreamEvent::Tick(SimTime::from_secs(45)));
        one_tick.extend(late.into_iter().map(StreamEvent::Alert));
        for (events, panics_in_a_tick) in [(event_feed(&t), false), (one_tick, true)] {
            // Whether some panic left work queued behind the poisoned alert.
            let mut left_work = false;
            for (shards, ordinal) in [(1, 1), (1, 2), (1, 5), (2, 1), (2, 2)] {
                let skynet = skynet_with_faults(
                    &t,
                    shards,
                    one_rule(FaultRule::once(
                        InjectionSite::LocateWorker,
                        ordinal,
                        FaultAction::Panic,
                    )),
                );
                let plane = FaultPlane::from_config(&skynet.cfg.faults, &skynet.obs);
                let dead = Arc::new(Mutex::new(DeadLetterQueue::new(64)));
                let mut engine = Engine::new(&skynet, 0, dead, &plane);
                let mut panics = 0usize;
                for event in &events {
                    let call = catch_unwind(AssertUnwindSafe(|| {
                        drive(&mut engine, std::slice::from_ref(event))
                    }));
                    let unfed = engine.released.len() - engine.preprocessed
                        + engine.structured.len()
                        - engine.located;
                    if call.is_ok() {
                        assert_eq!(unfed, 0, "a clean call leaves nothing in the feed");
                        continue;
                    }
                    panics += 1;
                    if panics == 1 {
                        assert_eq!(matches!(event, StreamEvent::Tick(_)), panics_in_a_tick);
                    }
                    left_work |= unfed > 0;
                }
                let mut incidents = Vec::new();
                while catch_unwind(AssertUnwindSafe(|| incidents = engine.close(HORIZON))).is_err()
                {
                    panics += 1;
                }
                let report = skynet.finish_report(&engine, incidents, engine.ping_log(), plane);
                let case = format!("shards = {shards}, ordinal = {ordinal}");
                // One arm per shard lane, each firing once.
                assert_eq!(panics, shards, "{case}");
                assert_eq!(report.ingest.accepted, 82, "{case}");
                assert_eq!(report.preprocess.raw, report.ingest.accepted, "{case}");
                assert_eq!(fault_letters(&report).len(), panics, "{case}");
                assert_eq!(report.faults.len(), panics, "{case}");
                let located = skynet
                    .obs
                    .recorder()
                    .expect("tracing is on by default")
                    .events()
                    .iter()
                    .filter(|e| matches!(e.stage, Stage::LocateInserted))
                    .count();
                assert_eq!(
                    located + panics,
                    report.preprocess.emitted as usize,
                    "every emitted alert is located or quarantined: {case}"
                );
            }
            assert!(left_work, "panics in a tick: {panics_in_a_tick}");
        }
    }

    /// The property the phase order must keep: a whole flood taken a stage
    /// at a time and the same flood taken an alert at a time are the same
    /// run.
    #[test]
    fn a_batch_and_an_alert_at_a_time_give_the_same_report() {
        let t = topo();
        let alerts = two_region_flood(&t);
        let sample = PingSample {
            t: SimTime::from_secs(10),
            src: t.clusters()[0].clone(),
            dst: t.clusters()[1].clone(),
            loss: 0.2,
        };
        let mut ping = PingLog::new();
        ping.record(
            sample.t,
            sample.src.clone(),
            sample.dst.clone(),
            sample.loss,
        );
        for shards in [1, 2] {
            let skynet = skynet(&t, shards);
            let batch = skynet.analyze(&alerts, &ping, HORIZON);
            assert_eq!(batch.incidents.len(), 2, "one incident per region");

            let mut engine = fresh(&skynet);
            engine.ping(sample.clone());
            for alert in &alerts {
                engine.alert(alert.clone());
            }
            engine.admit(&mut std::iter::empty(), HORIZON);
            assert_eq!(
                serde_json::to_string(&engine.finish(&skynet, HORIZON, None)).unwrap(),
                serde_json::to_string(&batch).unwrap(),
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn batch_resumes_behind_every_locate_panic() {
        let t = topo();
        // Four passes of the flood, 150 s apart: every consolidated alert
        // is re-emitted on each pass, so an incident survives losing any
        // one emission to a panic.
        let mut alerts = Vec::new();
        for pass in 0..4 {
            alerts.extend(two_region_flood(&t).into_iter().map(|mut alert| {
                alert.timestamp += SimDuration::from_secs(150 * pass);
                alert
            }));
        }
        let ping = PingLog::new();
        let failures = |report: &AnalysisReport| -> usize {
            report
                .incidents
                .iter()
                .flat_map(|s| &s.incident.alerts)
                .filter(|a| a.ty.kind.class() == AlertClass::Failure)
                .count()
        };
        let clean = skynet(&t, 1).analyze(&alerts, &ping, HORIZON);
        assert!(failures(&clean) > 0);
        for shards in [1, 2] {
            let run = || {
                let skynet = skynet_with_faults(
                    &t,
                    shards,
                    one_rule(FaultRule::every(
                        InjectionSite::LocateWorker,
                        5,
                        FaultAction::Panic,
                    )),
                );
                let report = skynet.analyze(&alerts, &ping, HORIZON);
                (restarts(&skynet), report)
            };
            let (restarts, report) = run();
            let letters = fault_letters(&report);
            assert!(restarts > 1, "shards = {shards}");
            assert_eq!(letters.len() as u64, restarts, "shards = {shards}");
            assert_eq!(report.faults.len() as u64, restarts, "shards = {shards}");
            let quarantined = letters
                .iter()
                .filter(|l| l.alert.known_kind().map(|k| k.class()) == Some(AlertClass::Failure))
                .count();
            assert!(quarantined > 0, "shards = {shards}");
            assert!(
                failures(&report) + quarantined >= failures(&clean),
                "Failure-class alerts lost at shards = {shards}: {} in incidents + \
                 {quarantined} quarantined < {} in the clean run",
                failures(&report),
                failures(&clean)
            );
            // The replay guarantee: the report carries the ledger and the
            // dead letters, so one comparison covers all three.
            let (again_restarts, again) = run();
            assert_eq!(again_restarts, restarts);
            assert_eq!(
                serde_json::to_string(&again).unwrap(),
                serde_json::to_string(&report).unwrap(),
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn batch_contains_a_guard_panic_instead_of_unwinding_into_the_caller() {
        let t = topo();
        let skynet = skynet_with_faults(
            &t,
            2,
            one_rule(FaultRule::once(
                InjectionSite::GuardOffer,
                5,
                FaultAction::Panic,
            )),
        );
        let report = skynet.analyze(&two_region_flood(&t), &PingLog::new(), HORIZON);
        assert_eq!(restarts(&skynet), 1);
        assert_eq!(report.faults.len(), 1);
        assert_eq!(fault_letters(&report).len(), 1);
        assert_eq!(report.ingest.rejected_injected, 1);
        assert_eq!(report.ingest.accepted, 81, "every other alert is admitted");
        assert_eq!(report.incidents.len(), 2, "one incident per region");
    }

    /// Structured alerts do not leave the preprocessor in `last_seen`
    /// order (a held drop is released with the time it was seen), so one
    /// region's alert can carry an older time than the other region's
    /// alert before it. The locators must still check on one clock: a
    /// region-local clock fires its checks late relative to its own
    /// inserts, and an alert misses an incident it joins at `shards = 1`.
    #[test]
    fn shard_locators_share_one_clock_under_out_of_order_alerts() {
        let t = topo();
        let kinds = [
            AlertKind::PacketLossIcmp,
            AlertKind::PacketLossTcp,
            AlertKind::LinkDown,
            AlertKind::LinkFlapping,
            AlertKind::HighCpu,
        ];
        let mut diverged = Vec::new();
        for seed in 0..24u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut draw = |n: usize| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % n
            };
            // Half a second of feed per alert, each stamped up to 40 s
            // into its past.
            let stream: Vec<StructuredAlert> = (0..400u64)
                .map(|i| {
                    let at = SimTime::from_millis((i * 500).saturating_sub(draw(40_000) as u64));
                    let location = t.devices()[draw(t.devices().len())].location.clone();
                    let kind = kinds[draw(kinds.len())];
                    StructuredAlert::from_raw(
                        &RawAlert::known(DataSource::Snmp, at, location, kind),
                        kind,
                    )
                })
                .collect();
            let run = |shards: usize| {
                let skynet = skynet(&t, shards);
                let mut engine = fresh(&skynet);
                engine.structured = stream.clone();
                engine.locate();
                let incidents = engine.close(HORIZON);
                assert!(!incidents.is_empty(), "seed {seed}");
                serde_json::to_string(&incidents).expect("incidents serialize")
            };
            let single = run(1);
            if [2, 4].iter().any(|&shards| run(shards) != single) {
                diverged.push(seed);
            }
        }
        assert!(
            diverged.is_empty(),
            "shard counts disagree at seeds {diverged:?}"
        );
    }
}
