//! Deterministic fault injection at every stage boundary, end to end.
//!
//! The acceptance gates for the fault plane:
//!
//! - a seeded chaos run is byte-for-byte replayable — report JSON,
//!   Prometheus scrape (minus wall-clock latency histograms) and
//!   dead-letter contents — at 1 and 4 shards (the CI fault matrix drives
//!   this test across seeds and fault mixes via `SKYNET_FAULT_SEED` /
//!   `SKYNET_FAULT_MIX`);
//! - `explain()` on the alert a locate worker panicked on shows the
//!   injection and the restart, and the alert itself is quarantined;
//! - the post-incident degradation report lists every injected fault with
//!   its site and disposition;
//! - a disabled `FaultConfig` is invisible: identical output, no fault
//!   metrics;
//! - Failure-class alerts are never silently lost under injected worker
//!   panics — they end up in the report or in the dead-letter queue.

use skynet::core::faultinject::{disposition, FaultDisposition};
use skynet::core::{FaultAction, FaultConfig, FaultRule, InjectedFault, InjectionSite};
use skynet::model::{AlertBody, AlertClass, AlertKind, DataSource, PingLog, RawAlert, SimTime};
use skynet::prelude::*;
use std::sync::Arc;

fn topo() -> Arc<Topology> {
    Arc::new(generate(&GeneratorConfig::small()))
}

/// A deterministic multi-region flood: a dense Failure-class burst at one
/// cluster (so the locator completes at least one incident) plus diffuse
/// background alerts cycling over every device, kind and source.
fn flood(topo: &Topology) -> Vec<RawAlert> {
    let kinds = [
        AlertKind::PacketLossIcmp,
        AlertKind::PacketLossTcp,
        AlertKind::LinkDown,
        AlertKind::LatencyJitter,
        AlertKind::DeviceInaccessible,
        AlertKind::TrafficCongestion,
        AlertKind::HighCpu,
        AlertKind::BgpPeerDown,
    ];
    let devices = topo.devices();
    let burst_site = topo.clusters()[0].parent();
    let mut alerts = Vec::new();
    for t in 0..30u64 {
        alerts.push(
            RawAlert::known(
                DataSource::Ping,
                SimTime::from_secs(t * 2),
                burst_site.clone(),
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
                burst_site.clone(),
                AlertKind::PacketLossTcp,
            )
            .with_magnitude(0.2),
        );
    }
    alerts.push(RawAlert::known(
        DataSource::Snmp,
        SimTime::from_secs(11),
        burst_site.clone(),
        AlertKind::LinkDown,
    ));
    for i in 0..200u64 {
        let device = &devices[(i as usize * 7) % devices.len()];
        alerts.push(
            RawAlert::known(
                DataSource::ALL[i as usize % DataSource::ALL.len()],
                SimTime::from_secs(5 + i * 5),
                device.location.clone(),
                kinds[i as usize % kinds.len()],
            )
            .with_magnitude(0.1 + 0.8 * (i % 9) as f64 / 9.0),
        );
    }
    alerts.sort_by_key(|a| a.timestamp);
    alerts
}

/// Lossy ping telemetry so matrix-build faults degrade something real.
fn ping_log(topo: &Topology) -> PingLog {
    let mut ping = PingLog::new();
    let clusters = topo.clusters();
    for (i, pair) in clusters.windows(2).enumerate() {
        ping.record(
            SimTime::from_secs(30 + i as u64 * 60),
            pair[0].clone(),
            pair[1].clone(),
            0.02 * (1 + i % 5) as f64,
        );
    }
    ping
}

/// One fresh pipeline, one batch run. A fresh `SkyNet` per run is the
/// point: the replay guarantee must hold from a cold start, not by
/// accident of accumulated observability state.
fn run(
    topo: &Arc<Topology>,
    alerts: &[RawAlert],
    ping: &PingLog,
    faults: FaultConfig,
    shards: usize,
) -> (SkyNet, AnalysisReport) {
    let mut cfg = PipelineConfig::production().with_faults(faults);
    cfg.streaming.shards = shards;
    let skynet = SkyNet::builder(topo).config(cfg).build();
    let report = skynet.analyze(alerts, ping, SimTime::from_mins(60));
    (skynet, report)
}

/// Strips the wall-clock stage-latency histograms: they are the one
/// legitimately nondeterministic export. Everything else must replay.
fn normalized_scrape(skynet: &SkyNet) -> String {
    skynet
        .prometheus()
        .lines()
        .filter(|l| !l.contains("skynet_stage_seconds"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The fault mix under test. The CI matrix crosses three seeds with the
/// three mixes; a bare `cargo test` exercises seed 1 × `error`.
fn matrix_rules(mix: &str) -> Vec<FaultRule> {
    match mix {
        // The panic mix stays at the locate boundary, where the alert in
        // flight is quarantined before the unwind: one panic, one restart,
        // one fault letter, and the analysis resumes behind it.
        "panic" => vec![FaultRule::once(
            InjectionSite::LocateWorker,
            20,
            FaultAction::Panic,
        )],
        "latency" => vec![
            FaultRule::once(InjectionSite::GuardOffer, 10, FaultAction::Latency(1)),
            FaultRule::once(InjectionSite::Evaluate, 1, FaultAction::Latency(1)),
        ],
        _ => vec![
            FaultRule::probability(InjectionSite::GuardOffer, 0.05, FaultAction::Error),
            FaultRule::every(InjectionSite::PreprocessClassify, 30, FaultAction::Error),
            FaultRule::once(InjectionSite::ShardRoute, 3, FaultAction::Error),
            FaultRule::once(InjectionSite::MatrixBuild, 1, FaultAction::Error),
            FaultRule::once(InjectionSite::SopSelect, 1, FaultAction::Error),
            FaultRule::probability(InjectionSite::LocateWorker, 0.02, FaultAction::Error),
        ],
    }
}

/// The replay guarantee, as CI asserts it: same seed, same feed, same
/// shard count ⇒ byte-identical report, scrape and dead letters. Driven
/// across the fault matrix by `SKYNET_FAULT_SEED` and `SKYNET_FAULT_MIX`.
#[test]
fn seeded_chaos_run_replays_byte_identical() {
    let seed = env_u64("SKYNET_FAULT_SEED", 1);
    let mix = std::env::var("SKYNET_FAULT_MIX").unwrap_or_else(|_| "error".into());
    let topo = topo();
    let alerts = flood(&topo);
    let ping = ping_log(&topo);
    let mut faults = FaultConfig::seeded(seed);
    for rule in matrix_rules(&mix) {
        faults = faults.with_rule(rule);
    }

    for shards in [1usize, 4] {
        let (net_a, a) = run(&topo, &alerts, &ping, faults.clone(), shards);
        let (net_b, b) = run(&topo, &alerts, &ping, faults.clone(), shards);

        assert!(
            !a.faults.is_empty(),
            "mix {mix:?} seed {seed} must inject at least one fault"
        );
        let json_a = serde_json::to_string(&a).unwrap();
        let json_b = serde_json::to_string(&b).unwrap();
        assert_eq!(json_a, json_b, "report diverged at {shards} shards");
        assert_eq!(a.faults, b.faults, "fault ledger diverged");
        assert_eq!(a.dead_letters, b.dead_letters, "dead letters diverged");
        assert_eq!(
            normalized_scrape(&net_a),
            normalized_scrape(&net_b),
            "metrics scrape diverged at {shards} shards"
        );
        assert_eq!(
            net_a.degradation_report(&a).render(),
            net_b.degradation_report(&b).render(),
            "degradation report diverged"
        );
    }
}

/// "Where did alert X go?" across a worker crash: the trace of the alert
/// whose check fired the panic shows the injection and the restart, the
/// alert itself waits in quarantine, and the run still produces incidents.
#[test]
fn explain_shows_injection_and_restart() {
    let topo = topo();
    let alerts = flood(&topo);
    let faults = FaultConfig::seeded(11).with_rule(FaultRule::once(
        InjectionSite::LocateWorker,
        10,
        FaultAction::Panic,
    ));
    let (net, report) = run(&topo, &alerts, &ping_log(&topo), faults, 1);

    let fault: &InjectedFault = report
        .faults
        .iter()
        .find(|f| f.site == InjectionSite::LocateWorker)
        .expect("the locate-worker panic fired");
    assert_eq!(fault.action, FaultAction::Panic);
    assert_eq!(fault.disposition, FaultDisposition::Panicked);

    let events = net.explain(fault.trace);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.stage, Stage::FaultInjected(InjectionSite::LocateWorker))),
        "explain() must show the injection: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.stage, Stage::WorkerRestarted(0))),
        "explain() must show the lane-0 restart: {events:?}"
    );

    // One panic, one restart — the analysis resumed behind the poisoned
    // alert (nothing is replayed), so the once-rule did not re-fire.
    let snap = net.observability().snapshot();
    assert_eq!(snap.counter("skynet_worker_restarts_total", None), 1);
    assert_eq!(report.faults.len(), 1);
    assert!(
        !report.incidents.is_empty(),
        "the resumed analysis still resolves incidents"
    );
    // A survived panic costs exactly the alert in flight, and that one is
    // quarantined under its own trace.
    assert_eq!(report.dead_letters.len(), 1);
    assert_eq!(report.dead_letters[0].reason, RejectReason::FaultInjected);
    assert_eq!(report.dead_letters[0].alert.trace, fault.trace);
}

/// The degradation report is the complete post-incident record: every
/// injected fault appears with its site and its per-site disposition, and
/// the human rendering names them all.
#[test]
fn degradation_report_lists_every_fault_with_site_and_disposition() {
    let topo = topo();
    let alerts = flood(&topo);
    let faults = FaultConfig::seeded(5)
        .with_rule(FaultRule::once(
            InjectionSite::GuardOffer,
            5,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::once(
            InjectionSite::GuardValidate,
            20,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::every(
            InjectionSite::PreprocessClassify,
            40,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::once(
            InjectionSite::PreprocessConsolidate,
            10,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::once(
            InjectionSite::ShardRoute,
            7,
            FaultAction::Error,
        ))
        // Latency at the locate boundary: delays lose nothing, so the
        // burst incident is guaranteed to survive and drive the
        // matrix/evaluate/SOP checks below.
        .with_rule(FaultRule::once(
            InjectionSite::LocateWorker,
            15,
            FaultAction::Latency(0),
        ))
        .with_rule(FaultRule::once(
            InjectionSite::MatrixBuild,
            1,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::once(
            InjectionSite::Evaluate,
            1,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::once(
            InjectionSite::SopSelect,
            1,
            FaultAction::Error,
        ));
    // Nine of the eleven sites: a batch run has no WAL and no snapshot.
    let armed: Vec<InjectionSite> = faults.rules.iter().map(|r| r.site).collect();
    let (net, report) = run(&topo, &alerts, &ping_log(&topo), faults, 2);

    let deg = net.degradation_report(&report);
    assert_eq!(deg.faults, report.faults, "ledger and report must agree");
    assert!(!deg.is_clean());
    assert!(!deg.gave_up);

    // Every armed site's rule is guaranteed to fire on this flood.
    for site in armed {
        assert!(deg.faults_at(site) > 0, "no fault recorded at {site}");
    }
    // Dispositions follow the per-site degraded-operation contract.
    for fault in &deg.faults {
        assert_eq!(fault.disposition, disposition(fault.site, fault.action));
    }
    // Guard errors preserve their alerts as dead letters.
    let letters = report
        .dead_letters
        .iter()
        .filter(|l| l.reason == RejectReason::FaultInjected)
        .count() as u64;
    assert_eq!(deg.fault_dead_letters, letters);
    assert!(
        letters >= 2,
        "guard-offer and guard-validate faults dead-letter their alerts"
    );

    let rendered = deg.render();
    for fault in &deg.faults {
        assert!(
            rendered.contains(&fault.site.to_string()),
            "missing site in:\n{rendered}"
        );
        assert!(
            rendered.contains(fault.disposition.label()),
            "missing disposition {} in:\n{rendered}",
            fault.disposition.label()
        );
    }
    assert!(!deg.timeline.is_empty(), "trace ring feeds the timeline");
}

/// Zero-cost when disabled, observably: a default (disabled) `FaultConfig`
/// and an enabled-but-ruleless one produce output identical to a pipeline
/// that never heard of fault injection, and register no fault metrics.
#[test]
fn disabled_injection_is_invisible() {
    let topo = topo();
    let alerts = flood(&topo);
    let ping = ping_log(&topo);

    let baseline_net = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .build();
    let baseline = baseline_net.analyze(&alerts, &ping, SimTime::from_mins(60));

    for faults in [FaultConfig::default(), FaultConfig::seeded(9)] {
        let (net, report) = run(&topo, &alerts, &ping, faults, 1);
        assert!(report.faults.is_empty());
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&baseline).unwrap()
        );
        assert_eq!(normalized_scrape(&net), normalized_scrape(&baseline_net));
        assert!(
            !net.prometheus().contains("skynet_faults_injected_total"),
            "no fault counters may register on the disabled path"
        );
        let deg = net.degradation_report(&report);
        assert!(deg.is_clean());
        assert!(deg.render().contains("CLEAN"));
    }
}

fn failure_class(body: &AlertBody) -> bool {
    matches!(body, AlertBody::Known(kind) if kind.class() == AlertClass::Failure)
}

/// Satellite invariant: under injected locate-worker panics — more of
/// them than the streaming supervisor's restart budget would tolerate —
/// every Failure-class alert is accounted for, either in the report's
/// incidents or in the dead-letter queue. Nothing Failure-class vanishes
/// silently.
#[test]
fn failure_class_alerts_survive_injected_panics() {
    let topo = topo();
    let alerts = flood(&topo);
    let ping = ping_log(&topo);

    let clean_net = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .build();
    let clean = clean_net.analyze(&alerts, &ping, SimTime::from_mins(60));
    let clean_failures: usize = clean
        .incidents
        .iter()
        .map(|s| {
            s.incident
                .alerts
                .iter()
                .filter(|a| a.ty.kind.class() == AlertClass::Failure)
                .count()
        })
        .sum();
    assert!(
        clean_failures > 0,
        "the burst produces Failure-class alerts"
    );

    // A panic every 5 locate checks: each quarantines the alert in flight
    // and the analysis resumes behind it. `max_restarts` is the streaming
    // supervisor's budget; batch has none and never gives up.
    let mut cfg = PipelineConfig::production().with_faults(FaultConfig::seeded(3).with_rule(
        FaultRule::every(InjectionSite::LocateWorker, 5, FaultAction::Panic),
    ));
    cfg.streaming.max_restarts = 1;
    cfg.streaming.shards = 1;
    let net = SkyNet::builder(&topo).config(cfg).build();
    let report = net.analyze(&alerts, &ping, SimTime::from_mins(60));

    let incident_failures: usize = report
        .incidents
        .iter()
        .map(|s| {
            s.incident
                .alerts
                .iter()
                .filter(|a| a.ty.kind.class() == AlertClass::Failure)
                .count()
        })
        .sum();
    let letter_failures = report
        .dead_letters
        .iter()
        .filter(|l| l.reason == RejectReason::FaultInjected && failure_class(&l.alert.body))
        .count();
    assert!(
        incident_failures + letter_failures >= clean_failures,
        "Failure-class alerts lost: {incident_failures} in incidents + \
         {letter_failures} dead-lettered < {clean_failures} in the clean run"
    );

    // Accounting: one restart and one fault letter per panic fired, far
    // past the budget of 1.
    let panics = report.faults.len() as u64;
    assert!(panics > 2, "only {panics} panics fired");
    let snap = net.observability().snapshot();
    assert_eq!(snap.counter("skynet_worker_restarts_total", None), panics);
    let deg = net.degradation_report(&report);
    assert_eq!(deg.restarts, panics);
    assert_eq!(deg.fault_dead_letters, panics);
    assert!(!deg.gave_up);
}

/// Streaming: an injected locate panic dead-letters the alert *before*
/// unwinding, the supervisor restarts the worker, and the degradation
/// report reconciles with the handle's health view.
#[test]
fn streaming_panic_dead_letters_then_restarts() {
    let topo = topo();
    let cfg = PipelineConfig::production().with_faults(FaultConfig::seeded(13).with_rule(
        FaultRule::once(InjectionSite::LocateWorker, 3, FaultAction::Panic),
    ));
    let handle = SkyNet::builder(&topo).config(cfg).build().stream();

    handle.send(StreamEvent::Tick(SimTime::ZERO)).unwrap();
    for alert in flood(&topo) {
        handle.send_alert(alert).unwrap();
    }
    handle
        .send(StreamEvent::Tick(SimTime::from_mins(60)))
        .unwrap();
    handle.send(StreamEvent::Flush).unwrap();
    let streamed: Vec<StreamIncident> = handle.incidents.iter().collect();
    handle.join().unwrap();

    let health = handle.health();
    assert_eq!(health.restarts, 1);
    assert!(!health.gave_up);
    assert!(health.degraded.is_none());

    let faults = handle.injected_faults();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].site, InjectionSite::LocateWorker);
    assert_eq!(faults[0].disposition, FaultDisposition::Panicked);

    // The panicking alert was quarantined before the unwind.
    assert_eq!(
        handle
            .dead_letters
            .lock()
            .count(RejectReason::FaultInjected),
        1
    );
    assert!(!streamed.is_empty(), "the stream recovers and completes");

    let deg = handle.degradation_report();
    assert_eq!(deg.restarts, 1);
    assert_eq!(deg.fault_dead_letters, 1);
    assert!(!deg.gave_up);
    assert_eq!(deg.faults, faults);
}

/// Satellite: when the restart budget runs out, the runtime lands in a
/// terminal Degraded state that preserves the error which exhausted it —
/// here the injected fault's site — instead of flapping forever.
#[test]
fn supervisor_exhaustion_reports_degraded_with_cause() {
    let topo = topo();
    let mut cfg = PipelineConfig::production().with_faults(FaultConfig::seeded(17).with_rule(
        FaultRule::once(InjectionSite::LocateWorker, 2, FaultAction::Panic),
    ));
    cfg.streaming.max_restarts = 0;
    let handle = SkyNet::builder(&topo).config(cfg).build().stream();

    let _ = handle.send(StreamEvent::Tick(SimTime::ZERO));
    for alert in flood(&topo) {
        // The worker dies mid-feed; later sends may hit a closed channel.
        if handle.send_alert(alert).is_err() {
            break;
        }
    }
    let _ = handle.send(StreamEvent::Flush);
    handle.join().unwrap();

    let health = handle.health();
    assert!(health.gave_up);
    assert!(!health.alive);
    assert_eq!(
        health.degraded,
        Some(SkyNetError::FaultInjected {
            site: InjectionSite::LocateWorker
        }),
        "the terminal state must preserve what killed the worker"
    );

    let deg = handle.degradation_report();
    assert!(deg.gave_up);
    assert_eq!(
        deg.degraded,
        Some(SkyNetError::FaultInjected {
            site: InjectionSite::LocateWorker
        })
    );
    assert!(deg.render().contains("DEGRADED"));
    // Even on the give-up path the panicking alert reached quarantine.
    assert!(
        handle
            .dead_letters
            .lock()
            .count(RejectReason::FaultInjected)
            >= 1
    );
}
