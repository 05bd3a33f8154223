//! Property test for the fault-plane replay guarantee: for *any* seeded
//! injection policy — arbitrary sites, triggers and actions — two fresh
//! pipelines analyzing the same batch produce byte-identical reports,
//! metrics scrapes (minus wall-clock latency histograms) and dead-letter
//! contents, at one shard and at four.
//!
//! Panic rules are drawn only for the locate-worker site: batch contains a
//! panic in its guard, preprocess and locate stages (quarantine the alert
//! in flight, resume behind it — see DESIGN.md "Panic semantics"), but the
//! any-site strategy would also draw `matrix-build`, `evaluate` and
//! `sop-select`, where a panic legitimately unwinds out of `analyze`.

mod common;

use common::{for_each_seed, ping_log, topo, Lcg};
use skynet::core::{FaultAction, FaultConfig, FaultRule, InjectionSite};
use skynet::model::{AlertKind, DataSource, PingLog, RawAlert, SimTime};
use skynet::prelude::*;
use std::sync::Arc;

const SEEDS: std::ops::Range<u64> = 0..10;

/// A deterministic multi-region flood: one incident-forming burst plus
/// diffuse background over every device.
fn flood(topo: &Topology) -> Vec<RawAlert> {
    let kinds = [
        AlertKind::PacketLossIcmp,
        AlertKind::PacketLossTcp,
        AlertKind::LinkDown,
        AlertKind::LatencyJitter,
        AlertKind::DeviceInaccessible,
        AlertKind::TrafficCongestion,
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
    alerts.push(RawAlert::known(
        DataSource::Snmp,
        SimTime::from_secs(11),
        burst_site.clone(),
        AlertKind::LinkDown,
    ));
    for i in 0..120u64 {
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

/// Any rule the policy grammar admits, minus real sleeps (latency faults
/// use a zero-millisecond delay so the suite stays fast) and minus panics,
/// which `policy` adds at the locate boundary only.
fn rule(rng: &mut Lcg) -> FaultRule {
    let site = *rng.pick(&InjectionSite::ALL);
    let n = rng.range(1..80);
    let p = rng.unit() * 0.25;
    let action = if rng.range(0..2) == 0 {
        FaultAction::Latency(0)
    } else {
        FaultAction::Error
    };
    match rng.range(0..4) {
        0 => FaultRule::probability(site, p, action),
        1 => FaultRule::every(site, n, action),
        2 => FaultRule::once(site, n, action),
        _ => FaultRule::after(site, n, action),
    }
}

/// One to four rules under any seed and, in half the cases, one panic at
/// the locate boundary.
fn policy(rng: &mut Lcg) -> FaultConfig {
    let mut cfg = FaultConfig::seeded(rng.any());
    for _ in 0..rng.range(1..5) {
        cfg = cfg.with_rule(rule(rng));
    }
    if rng.range(0..2) == 0 {
        cfg = cfg.with_rule(FaultRule::once(
            InjectionSite::LocateWorker,
            rng.range(1..60),
            FaultAction::Panic,
        ));
    }
    cfg
}

fn normalized_scrape(skynet: &SkyNet) -> String {
    skynet
        .prometheus()
        .lines()
        .filter(|l| !l.contains("skynet_stage_seconds"))
        .collect::<Vec<_>>()
        .join("\n")
}

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

#[test]
fn any_seeded_policy_replays_byte_identical() {
    let topo = topo();
    let alerts = flood(&topo);
    let ping = ping_log(&topo);
    for_each_seed(SEEDS, |rng| {
        let faults = policy(rng);
        let shards = *rng.pick(&[1usize, 4]);

        let (net_a, a) = run(&topo, &alerts, &ping, faults.clone(), shards);
        let (net_b, b) = run(&topo, &alerts, &ping, faults.clone(), shards);

        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "report diverged at {shards} shards under {faults:?}"
        );
        assert_eq!(&a.faults, &b.faults, "fault ledger diverged");
        assert_eq!(&a.dead_letters, &b.dead_letters, "dead letters diverged");
        assert_eq!(
            normalized_scrape(&net_a),
            normalized_scrape(&net_b),
            "metrics diverged at {shards} shards"
        );
        assert_eq!(
            net_a.degradation_report(&a).render(),
            net_b.degradation_report(&b).render(),
            "degradation report diverged"
        );

        // Guard-intercepted alerts are preserved, never silently dropped:
        // every dead-lettering guard fault maps to a quarantined letter.
        // (Locate-worker errors and panics quarantine theirs too, hence
        // `>=`; the fault_injection suite counts those.)
        let letters = a
            .dead_letters
            .iter()
            .filter(|l| l.reason == RejectReason::FaultInjected)
            .count();
        let guard_quarantining = a
            .faults
            .iter()
            .filter(|f| {
                matches!(
                    f.site,
                    InjectionSite::GuardOffer | InjectionSite::GuardValidate
                ) && f.disposition == skynet::core::faultinject::FaultDisposition::DeadLettered
            })
            .count();
        assert!(
            letters >= guard_quarantining,
            "{guard_quarantining} dead-lettering guard faults but only {letters} fault letters"
        );
    });
}
