//! Differential property test for the region-sharded pipeline: for any
//! flood — multi-region, chaos-degraded, with off-topology garbage mixed
//! in — the sharded batch pipeline produces an [`AnalysisReport`] equal to
//! the single-worker pipeline at every tested shard count. Not "the same
//! incidents modulo order": the whole report — incident ids, ranking,
//! severity breakdowns, zoom results, SOP plans, preprocessing and
//! ingestion counters — must match field for field.
//!
//! [`AnalysisReport`]: skynet::core::AnalysisReport

mod common;

use common::{degraded, for_each_seed, locations, ping_log, sorted_stream, topo, HALF_HOUR_MS};
use skynet::core::{PipelineConfig, SkyNet};
use skynet::model::{LocationPath, PingLog, RawAlert, SimTime};
use skynet::telemetry::tools::syslog::labeled_corpus;
use skynet::telemetry::{TelemetryConfig, TelemetrySuite};
use skynet::topology::GeneratorConfig;

/// The generated cases of the property below.
const SEEDS: std::ops::Range<u64> = 0..12;

/// Analyzes the flood with the pipeline `build` makes of the production
/// config at 1, 2, 4 and 7 shards; the whole reports must be equal.
fn assert_identical_at_every_shard_count(
    build: impl Fn(PipelineConfig) -> SkyNet,
    alerts: &[RawAlert],
    ping: &PingLog,
) {
    let run = |shards: usize| {
        let mut cfg = PipelineConfig::production();
        cfg.streaming.shards = shards;
        build(cfg).analyze(alerts, ping, SimTime::from_mins(60))
    };
    let baseline = run(1);
    for shards in [2usize, 4, 7] {
        let report = run(shards);
        assert!(
            report == baseline,
            "report diverged at {} shards: {} vs {} incidents",
            shards,
            report.incidents.len(),
            baseline.incidents.len()
        );
    }
}

/// The tentpole guarantee: sharding is invisible in the output.
#[test]
fn report_is_identical_at_every_shard_count() {
    let t = topo();
    // Both regions, every level, plus off-topology paths the ingestion
    // guard must quarantine identically at every shard count.
    let mut locations = locations(&t);
    locations.push(LocationPath::parse("Chaos|Phantom|Rack-0").unwrap());
    locations.push(LocationPath::parse("Atlantis|Lost-City").unwrap());
    let ping = ping_log(&t);
    for_each_seed(SEEDS, |rng| {
        let alerts = sorted_stream(rng, &locations, 0..250, HALF_HOUR_MS);
        assert_identical_at_every_shard_count(
            |cfg| SkyNet::builder(&t).config(cfg).build(),
            &degraded(rng, &alerts),
            &ping,
        );
    });
}

/// The stream that showed region-local locator clocks were wrong: the
/// benchmark's severe flood at seed 132, classified by the trained FT-tree.
/// The preprocessor releases held alerts out of `last_seen` order, and
/// Region-1's incident held 860 alerts at one shard, 858 at two. Every
/// locator now runs on one clock (DESIGN.md "Region sharding").
#[test]
fn report_is_identical_at_every_shard_count_for_the_seed_132_flood() {
    let scenario = skynet::bench::corpus::severe_cable_cut(GeneratorConfig::medium(), 132);
    let telemetry = TelemetryConfig {
        noise_per_hour: 50_000.0,
        seed: 132,
        ..TelemetryConfig::default()
    };
    let run = TelemetrySuite::standard(scenario.topology(), telemetry).run(&scenario);
    let corpus = labeled_corpus(40, 7);
    assert_identical_at_every_shard_count(
        |cfg| {
            SkyNet::builder(scenario.topology())
                .config(cfg)
                .training(&corpus)
                .build()
        },
        &run.alerts,
        &run.ping,
    );
}
