//! Property-based integration tests: pipeline invariants over arbitrary
//! alert streams.

mod common;

use common::{for_each_seed, locations, sorted_stream, structured, topo, Lcg, HALF_HOUR_MS};
use skynet::core::locator::{Locator, LocatorConfig};
use skynet::core::{PipelineConfig, Preprocessor, PreprocessorConfig, SkyNet};
use skynet::model::{PingLog, RawAlert, SimTime};

/// Every property below runs these 48 cases.
const SEEDS: std::ops::Range<u64> = 0..48;

/// A bounded-skew permutation of a sorted flood: injects exact-duplicate
/// retransmissions, then shuffles delivery order within time buckets of
/// `bucket_ms` — half the ingestion guard's default skew window, so no
/// alert can land behind the watermark.
fn bucket_permute(alerts: &[RawAlert], rng: &mut Lcg, bucket_ms: u64) -> Vec<RawAlert> {
    let mut out = alerts.to_vec();
    out.extend(alerts.iter().filter(|_| rng.unit() < 0.1).cloned());
    out.sort_by_key(|a| a.timestamp);
    let mut i = 0;
    while i < out.len() {
        let bucket = out[i].timestamp.as_millis() / bucket_ms;
        let mut j = i + 1;
        while j < out.len() && out[j].timestamp.as_millis() / bucket_ms == bucket {
            j += 1;
        }
        rng.shuffle(&mut out[i..j]);
        i = j;
    }
    out
}

/// The preprocessor never emits more alerts than it ingests, never
/// drops failure-class evidence entirely, and its stats add up.
#[test]
fn preprocessor_invariants() {
    let locations = locations(&topo());
    for_each_seed(SEEDS, |rng| {
        let alerts = sorted_stream(rng, &locations, 0..300, HALF_HOUR_MS);
        let mut pp = Preprocessor::new(PreprocessorConfig::default(), None);
        let out = pp.process_batch(&alerts);
        let stats = pp.stats();
        // `raw` counts peer-splits too, so it is >= the input length.
        assert!(stats.raw >= alerts.len() as u64);
        assert_eq!(stats.emitted as usize, out.len());
        assert!(stats.emitted <= stats.raw);
        // Time ranges are sane.
        for a in &out {
            assert!(a.first_seen <= a.last_seen);
            assert!(a.count >= 1);
        }
        // Every emitted location appeared in the input.
        for a in &out {
            assert!(
                alerts.iter().any(|r| r.location == a.location),
                "location {} not from input",
                a.location
            );
        }
    });
}

/// Locator invariants: every incident's alerts sit under its root,
/// times are ordered, ids are unique, and nothing lands at the
/// network root.
#[test]
fn locator_invariants() {
    let t = topo();
    let locations = locations(&t);
    for_each_seed(SEEDS, |rng| {
        let structured = structured(&sorted_stream(rng, &locations, 0..300, HALF_HOUR_MS));
        let mut locator = Locator::new(&t, LocatorConfig::default());
        let incidents = locator.process_batch(&structured, SimTime::from_mins(60));
        let mut seen_ids = std::collections::HashSet::new();
        for incident in &incidents {
            assert!(
                seen_ids.insert(incident.id),
                "duplicate id {:?}",
                incident.id
            );
            assert!(!incident.alerts.is_empty());
            assert!(incident.first_seen <= incident.last_seen);
            assert!(!incident.root.is_root(), "incident at network root");
            for a in &incident.alerts {
                assert!(
                    incident.root.contains(&a.location),
                    "alert at {} outside root {}",
                    a.location,
                    incident.root
                );
            }
        }
    });
}

/// The full pipeline never panics and produces a coherent ranked
/// report for arbitrary input.
#[test]
fn pipeline_is_total_and_ranked() {
    let t = topo();
    let locations = locations(&t);
    for_each_seed(SEEDS, |rng| {
        let alerts = sorted_stream(rng, &locations, 0..200, HALF_HOUR_MS);
        let sky = SkyNet::builder(&t)
            .config(PipelineConfig::production())
            .build();
        let report = sky.analyze(&alerts, &PingLog::new(), SimTime::from_mins(60));
        // Ranked descending.
        for w in report.incidents.windows(2) {
            assert!(w[0].score() >= w[1].score());
        }
        // Scores are finite and non-negative; zooms stay in scope.
        for s in &report.incidents {
            assert!(s.score().is_finite() && s.score() >= 0.0);
            assert!(s.incident.root.contains(&s.zoom.location));
        }
        assert!(report.actionable().count() <= report.incidents.len());
    });
}

/// Type-distinct counting dominates type+location: the production
/// counting mode never reports *more* incidents.
#[test]
fn type_distinct_reports_at_most_as_many_incidents() {
    let t = topo();
    let locations = locations(&t);
    for_each_seed(SEEDS, |rng| {
        let structured = structured(&sorted_stream(rng, &locations, 0..200, HALF_HOUR_MS));
        let run = |counting| {
            let cfg = LocatorConfig::default().with_counting(counting);
            let mut locator = Locator::new(&t, cfg);
            locator
                .process_batch(&structured, SimTime::from_mins(60))
                .len()
        };
        let distinct = run(skynet::core::CountingMode::TypeDistinct);
        let per_location = run(skynet::core::CountingMode::TypeAndLocation);
        assert!(
            distinct <= per_location,
            "distinct {distinct} > per-location {per_location}"
        );
    });
}

/// Order-insensitivity under bounded skew: any permutation of a flood
/// within the guard's skew window — duplicates included — yields the
/// same incidents as a sorted replay. The watermarked reordering
/// buffer re-sequences delivery; duplicate suppression rejects the
/// retransmissions.
#[test]
fn bounded_skew_permutation_matches_sorted_replay() {
    let t = topo();
    let locations = locations(&t);
    for_each_seed(SEEDS, |rng| {
        let alerts = sorted_stream(rng, &locations, 0..200, HALF_HOUR_MS);
        let analyze = |feed: &[RawAlert]| {
            SkyNet::builder(&t)
                .config(PipelineConfig::production())
                .build()
                .analyze(feed, &PingLog::new(), SimTime::from_mins(60))
        };
        let sorted = analyze(&alerts);
        // Half the default 30 s skew window.
        let permuted = analyze(&bucket_permute(&alerts, rng, 15_000));

        let key = |s: &skynet::core::ScoredIncident| {
            (
                s.incident.root.to_string(),
                s.incident.first_seen,
                s.incident.last_seen,
                s.incident.alerts.len(),
            )
        };
        let mut a: Vec<_> = sorted.incidents.iter().map(key).collect();
        let mut b: Vec<_> = permuted.incidents.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // The injected retransmissions were rejected, not analyzed twice.
        assert_eq!(permuted.ingest.accepted, sorted.ingest.accepted);
    });
}
