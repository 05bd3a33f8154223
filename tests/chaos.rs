//! Chaos acceptance test: the supervised streaming runtime survives a
//! malformed-alert storm, a mid-stream worker panic and bounded
//! out-of-order delivery — and still produces the same incidents the batch
//! pipeline computes for the well-formed portion of the feed.

use skynet::core::error::RejectReason;
use skynet::core::pipeline::{StreamEvent, StreamIncident};
use skynet::core::{PipelineConfig, SkyNet};
use skynet::model::{AlertKind, DataSource, LocationPath, PingLog, RawAlert, SimTime};
use skynet::telemetry::{ChaosConfig, ChaosEngine};
use skynet::topology::{generate, GeneratorConfig, Topology};
use std::sync::Arc;

fn flood(site: &LocationPath) -> Vec<RawAlert> {
    let mut alerts = Vec::new();
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

/// Hand-crafted garbage: every structural and topological defect the guard
/// quarantines, at known counts.
fn malformed_storm(topo: &Topology) -> Vec<RawAlert> {
    let on_topo = topo.devices()[0].location.clone();
    let phantom = LocationPath::parse("Chaos|Phantom|Rack-0").unwrap();
    let mut storm = Vec::new();
    // 3 × corrupt syslog bytes.
    for i in 0..3u64 {
        storm.push(RawAlert::syslog(
            SimTime::from_secs(1 + i),
            on_topo.clone(),
            format!("%TRUNC-{i}: \u{0}\u{fffd} binary garbage"),
        ));
    }
    // 1 × non-finite magnitude.
    storm.push(
        RawAlert::known(
            DataSource::Snmp,
            SimTime::from_secs(2),
            on_topo.clone(),
            AlertKind::TrafficCongestion,
        )
        .with_magnitude(f64::NAN),
    );
    // 3 × off-topology locations.
    for i in 0..3u64 {
        storm.push(RawAlert::known(
            DataSource::Ping,
            SimTime::from_secs(3 + i),
            phantom.clone(),
            AlertKind::PacketLossIcmp,
        ));
    }
    // 2 × absurdly-future timestamps (the trusted clock is armed at t=0).
    for i in 0..2u64 {
        storm.push(RawAlert::known(
            DataSource::Ping,
            SimTime::from_mins(120 + i),
            on_topo.clone(),
            AlertKind::PacketLossIcmp,
        ));
    }
    storm
}

#[test]
fn supervised_stream_survives_chaos_and_matches_batch() {
    let topo = Arc::new(generate(&GeneratorConfig::small()));
    let site = topo.clusters()[0].parent();
    let clean = flood(&site);

    // The batch reference answer for the well-formed portion.
    let cfg = PipelineConfig::production();
    let batch = SkyNet::builder(&topo).config(cfg.clone()).build().analyze(
        &clean,
        &PingLog::new(),
        SimTime::from_mins(30),
    );
    assert_eq!(batch.incidents.len(), 1);

    // Degrade the clean flood: duplicate storms + 30%+ out-of-order
    // delivery, strictly bounded so nothing lands behind the watermark.
    let mut chaos = ChaosEngine::new(ChaosConfig {
        seed: 7,
        drop_prob: 0.0,
        corrupt_syslog_prob: 0.0,
        off_topology_prob: 0.0,
        duplicate_prob: 0.3,
        duplicate_burst: 2,
        skew_prob: 0.0,
        shuffle_window: 6,
        ..ChaosConfig::default()
    });
    let degraded = chaos.apply(&clean);
    let duplicated = chaos.stats().duplicated;
    assert!(duplicated > 0, "chaos must inject a duplicate storm");
    assert!(
        chaos.stats().displaced as usize >= clean.len() * 3 / 10,
        "chaos must deliver at least 30% of the feed out of order"
    );

    let handle = SkyNet::builder(&topo).config(cfg).build().stream();

    // Arm the guard's trusted clock, then hit the fresh worker with the
    // malformed storm.
    handle.send(StreamEvent::Tick(SimTime::ZERO)).unwrap();
    let storm = malformed_storm(&topo);
    let storm_len = storm.len() as u64;
    for alert in storm {
        handle.send(StreamEvent::Alert(alert)).unwrap();
    }

    // Mid-stream worker panic: the supervisor must restart with fresh
    // stage state while the dead-letter queue and counters survive.
    handle.send(StreamEvent::ChaosPanic).unwrap();

    // The degraded (shuffled + duplicated) well-formed flood, through the
    // shedding front door.
    for alert in degraded {
        handle.send_alert(alert).unwrap();
    }
    // One hopelessly-late alert: the flood pushed the watermark past it.
    handle
        .send(StreamEvent::Alert(
            RawAlert::known(
                DataSource::Ping,
                SimTime::ZERO,
                site.clone(),
                AlertKind::PacketLossIcmp,
            )
            .with_magnitude(0.99),
        ))
        .unwrap();

    handle
        .send(StreamEvent::Tick(SimTime::from_mins(30)))
        .unwrap();
    handle.send(StreamEvent::Flush).unwrap();

    let streamed: Vec<StreamIncident> = handle.incidents.iter().collect();
    handle.join().unwrap();

    // The supervisor restarted the worker exactly once and stayed healthy.
    let health = handle.health();
    assert_eq!(health.restarts, 1);
    assert!(!health.gave_up);
    assert!(!health.alive, "worker exited after flush");

    // The dead-letter queue holds every reject, each with its reason.
    let dlq = handle.dead_letters.lock();
    assert_eq!(dlq.count(RejectReason::CorruptBody), 4);
    assert_eq!(dlq.count(RejectReason::OffTopology), 3);
    assert_eq!(dlq.count(RejectReason::FutureTimestamp), 2);
    assert_eq!(dlq.count(RejectReason::Duplicate), duplicated);
    assert_eq!(dlq.count(RejectReason::StaleTimestamp), 1);
    assert_eq!(dlq.total(), storm_len + duplicated + 1);
    assert_eq!(dlq.len() as u64, dlq.total(), "nothing evicted");
    for letter in dlq.letters() {
        assert!(RejectReason::ALL.contains(&letter.reason));
    }
    drop(dlq);

    // Published counters reconcile across the restart (stats_interval = 1
    // means incarnation 1 published its rejects before the panic).
    let snap = handle.snapshot();
    assert_eq!(snap.restarts, 1);
    assert_eq!(snap.ingest.accepted, clean.len() as u64);
    assert_eq!(snap.ingest.rejected(), storm_len + duplicated + 1);
    assert!(snap.ingest.reordered > 0, "out-of-order delivery happened");

    // No Failure-class alert was shed (nothing was, at this load).
    assert_eq!(snap.preprocess.shed(), 0);

    // The well-formed portion resolves to exactly the batch incidents.
    assert_eq!(streamed.len(), batch.incidents.len());
    let streamed_one = &streamed[0].scored;
    let batch_one = &batch.incidents[0];
    assert_eq!(streamed_one.incident.root, batch_one.incident.root);
    assert_eq!(
        streamed_one.incident.alerts.len(),
        batch_one.incident.alerts.len()
    );
    assert_eq!(
        streamed_one.incident.first_seen,
        batch_one.incident.first_seen
    );
    assert_eq!(
        streamed_one.incident.last_seen,
        batch_one.incident.last_seen
    );
    assert_eq!(
        streamed[0].sop.as_ref(),
        batch.sop_for(batch_one.incident.id)
    );
}
