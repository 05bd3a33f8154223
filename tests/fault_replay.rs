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

use proptest::prelude::*;
use skynet::core::{FaultAction, FaultConfig, FaultRule, InjectionSite};
use skynet::model::{AlertKind, DataSource, LocationPath, PingLog, RawAlert, SimTime};
use skynet::prelude::*;
use std::sync::Arc;

fn topo() -> Arc<Topology> {
    Arc::new(generate(&GeneratorConfig::small()))
}

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

fn site_strategy() -> impl Strategy<Value = InjectionSite> {
    prop::sample::select(InjectionSite::ALL.to_vec())
}

/// Any rule the policy grammar admits, minus real sleeps (latency faults
/// use a zero-millisecond delay so the suite stays fast) and minus panics,
/// which `policy_strategy` adds at the locate boundary only.
fn rule_strategy() -> impl Strategy<Value = FaultRule> {
    (
        site_strategy(),
        0u8..4,
        1u64..80,
        0.0f64..0.25,
        prop::bool::ANY,
    )
        .prop_map(|(site, trigger, n, p, latency)| {
            let action = if latency {
                FaultAction::Latency(0)
            } else {
                FaultAction::Error
            };
            match trigger {
                0 => FaultRule::probability(site, p, action),
                1 => FaultRule::every(site, n, action),
                2 => FaultRule::once(site, n, action),
                _ => FaultRule::after(site, n, action),
            }
        })
}

fn policy_strategy() -> impl Strategy<Value = FaultConfig> {
    (
        any::<u64>(),
        prop::collection::vec(rule_strategy(), 1..5),
        prop::option::of(1u64..60),
    )
        .prop_map(|(seed, rules, panic_at)| {
            let mut cfg = FaultConfig::seeded(seed);
            for rule in rules {
                cfg = cfg.with_rule(rule);
            }
            if let Some(n) = panic_at {
                cfg = cfg.with_rule(FaultRule::once(
                    InjectionSite::LocateWorker,
                    n,
                    FaultAction::Panic,
                ));
            }
            cfg
        })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_seeded_policy_replays_byte_identical(
        faults in policy_strategy(),
        shards in prop::sample::select(vec![1usize, 4]),
    ) {
        let topo = topo();
        let alerts = flood(&topo);
        let ping = ping_log(&topo);

        let (net_a, a) = run(&topo, &alerts, &ping, faults.clone(), shards);
        let (net_b, b) = run(&topo, &alerts, &ping, faults.clone(), shards);

        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "report diverged at {} shards under {:?}",
            shards,
            faults
        );
        prop_assert_eq!(&a.faults, &b.faults, "fault ledger diverged");
        prop_assert_eq!(&a.dead_letters, &b.dead_letters, "dead letters diverged");
        prop_assert_eq!(
            normalized_scrape(&net_a),
            normalized_scrape(&net_b),
            "metrics diverged at {} shards",
            shards
        );
        prop_assert_eq!(
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
                ) && f.disposition
                    == skynet::core::faultinject::FaultDisposition::DeadLettered
            })
            .count();
        prop_assert!(
            letters >= guard_quarantining,
            "{} dead-lettering guard faults but only {} fault letters",
            guard_quarantining,
            letters
        );
    }
}
