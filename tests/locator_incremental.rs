//! Differential suite for the incremental locator/evaluator hot path.
//!
//! The delta-per-event refactor — expiry wheel, delta-maintained region
//! counts, memoized sliding reachability matrices — must be invisible in
//! the output. Two oracles pin that:
//!
//! - the whole-pipeline property: for any chaos-degraded flood, with the
//!   fault plane armed, the [`AnalysisReport`] JSON produced under
//!   [`MaintenanceMode::Incremental`] is **byte-identical** to the
//!   [`MaintenanceMode::Rescan`] oracle at 1 and 4 shards;
//! - the locator-only property: under seeded permutations of the arrival
//!   order, with expiry ticks interleaved, the expiry wheel finalizes
//!   exactly the incidents the retain-scan oracle does.
//!
//! [`AnalysisReport`]: skynet::core::AnalysisReport

mod common;

use common::{
    degraded, for_each_seed, locations, ping_log, sorted_stream, structured, topo, HALF_HOUR_MS,
};
use skynet::core::locator::{Locator, LocatorConfig};
use skynet::core::{
    FaultAction, FaultConfig, FaultRule, InjectionSite, MaintenanceMode, PipelineConfig, SkyNet,
};
use skynet::model::{LocationPath, SimDuration, SimTime};
use skynet::topology::Topology;

/// Both properties below run these 10 cases.
const SEEDS: std::ops::Range<u64> = 0..10;

/// Every level of the topology plus one off-topology path.
fn locations_with_phantom(topo: &Topology) -> Vec<LocationPath> {
    let mut locations = locations(topo);
    locations.push(LocationPath::parse("Chaos|Phantom|Rack-0").unwrap());
    locations
}

/// An armed fault plane touching every stage the refactor moved:
/// locate-worker drops, matrix-build degradation, SOP skips. Seeded, so
/// both maintenance modes replay the same decision streams.
fn armed_faults(seed: u64) -> FaultConfig {
    FaultConfig::seeded(seed)
        .with_rule(FaultRule::probability(
            InjectionSite::GuardOffer,
            0.05,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::every(
            InjectionSite::PreprocessClassify,
            30,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::once(
            InjectionSite::ShardRoute,
            3,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::once(
            InjectionSite::MatrixBuild,
            1,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::once(
            InjectionSite::SopSelect,
            1,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::probability(
            InjectionSite::LocateWorker,
            0.02,
            FaultAction::Error,
        ))
}

/// The tentpole guarantee: the incremental hot path is byte-for-byte
/// indistinguishable from the rescan oracle through the whole
/// pipeline, chaos and armed faults included, at 1 and 4 shards.
#[test]
fn incremental_report_json_matches_rescan_oracle() {
    let t = topo();
    let locations = locations_with_phantom(&t);
    let ping = ping_log(&t);
    for_each_seed(SEEDS, |rng| {
        let alerts = sorted_stream(rng, &locations, 0..250, HALF_HOUR_MS);
        let degraded = degraded(rng, &alerts);
        let fault_seed = rng.any();

        let run = |shards: usize, maintenance: MaintenanceMode| {
            let mut cfg = PipelineConfig::production().with_faults(armed_faults(fault_seed));
            cfg.streaming.shards = shards;
            cfg.locator = cfg.locator.with_maintenance(maintenance);
            let report = SkyNet::builder(&t).config(cfg).build().analyze(
                &degraded,
                &ping,
                SimTime::from_mins(60),
            );
            serde_json::to_string(&report).expect("report serializes")
        };
        for shards in [1usize, 4] {
            let incremental = run(shards, MaintenanceMode::Incremental);
            let rescan = run(shards, MaintenanceMode::Rescan);
            assert!(
                incremental == rescan,
                "report JSON diverged between maintenance modes at {shards} shards"
            );
        }
    });
}

/// The locator-only oracle: under seeded permutations of arrival
/// order with expiry ticks interleaved, the expiry wheel finalizes
/// exactly what the retain-scan does.
#[test]
fn wheel_matches_retain_scan_under_permuted_arrivals() {
    let t = topo();
    let locations = locations_with_phantom(&t);
    for_each_seed(SEEDS, |rng| {
        // 40 minutes: spans node + incident timeouts.
        let mut alerts = structured(&sorted_stream(rng, &locations, 1..200, 40 * 60 * 1000));
        rng.shuffle(&mut alerts);
        let tick_every = rng.range(1..9) as usize;
        let horizon = alerts
            .iter()
            .map(|a| a.last_seen)
            .max()
            .unwrap_or(SimTime::ZERO)
            + SimDuration::from_mins(20);

        // Streaming-style replay: ticks advance to the high-water mark,
        // so expiry fires mid-flood, not only at the horizon.
        let run = |maintenance: MaintenanceMode| {
            let cfg = LocatorConfig::default().with_maintenance(maintenance);
            let mut locator = Locator::new(&t, cfg);
            let mut seen = SimTime::ZERO;
            for (i, alert) in alerts.iter().enumerate() {
                locator.insert(alert);
                seen = seen.max(alert.last_seen);
                if (i + 1) % tick_every == 0 {
                    locator.advance(seen);
                }
            }
            locator.advance(horizon);
            locator.finish();
            let mut incidents = locator.take_completed();
            incidents.sort_by_key(|i| (i.first_seen, i.id));
            incidents
        };
        assert_eq!(
            run(MaintenanceMode::Incremental),
            run(MaintenanceMode::Rescan)
        );
    });
}
