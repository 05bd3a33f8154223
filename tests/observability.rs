//! The unified observability layer, end to end: builder-assembled
//! pipelines feed the metrics registry, per-alert stage tracing
//! reconstructs every admitted alert's journey through the stages, and the
//! exporters stay stable and parseable under a §6.2-scale flood.

mod common;

use common::for_each_seed;
use skynet::core::obs::TraceRecorder;
use skynet::failure::{Injector, Scenario};
use skynet::model::SimDuration;
use skynet::prelude::*;
use skynet::telemetry::{TelemetryConfig, TelemetrySuite};
use skynet::topology::DeviceRole;
use std::sync::Arc;

fn flood_scenario(topo: &Arc<Topology>) -> Scenario {
    let victim = topo
        .devices()
        .iter()
        .find(|d| d.role == DeviceRole::Csr)
        .unwrap()
        .id;
    let mut inj = Injector::new(Arc::clone(topo));
    inj.device_down(victim, SimTime::from_mins(3), SimDuration::from_mins(8));
    inj.finish(SimTime::from_mins(20))
}

fn analyzed() -> (SkyNet, AnalysisReport, usize) {
    let topo = Arc::new(generate(&GeneratorConfig::small()));
    let scenario = flood_scenario(&topo);
    let mut suite = TelemetrySuite::standard(&topo, TelemetryConfig::quiet());
    let run = suite.run(&scenario);
    let cfg =
        PipelineConfig::production().with_obs(ObsConfig::default().with_trace_capacity(1 << 20));
    let sky = SkyNet::builder(&topo).config(cfg).build();
    let report = sky.analyze(
        &run.alerts,
        &run.ping,
        scenario.horizon() + SimDuration::from_mins(20),
    );
    (sky, report, run.alerts.len())
}

/// Every alert the flood offered — none are shed on the batch path — must
/// leave a complete trace: admitted XOR rejected at the guard, released if
/// admitted, disposed of by the preprocessor, and routed + located if it
/// survived consolidation.
#[test]
fn every_offered_alert_yields_a_complete_trace() {
    let (sky, report, offered) = analyzed();
    assert!(!report.incidents.is_empty());
    // The guard assigns dense ids 1..=N in intake order, rejects included.
    assert_eq!(
        report.ingest.accepted + report.ingest.rejected(),
        offered as u64
    );
    for id in 1..=offered as u64 {
        let events = sky.explain(TraceId(id));
        assert!(!events.is_empty(), "trace{id} left no events");
        let admitted = events
            .iter()
            .any(|e| matches!(e.stage, Stage::GuardAdmitted));
        let rejected = events
            .iter()
            .any(|e| matches!(e.stage, Stage::GuardRejected(_)));
        assert!(
            admitted ^ rejected,
            "trace{id} must be admitted xor rejected"
        );
        if admitted {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.stage, Stage::GuardReleased)),
                "admitted trace{id} never released"
            );
            assert!(
                events.iter().any(|e| matches!(
                    e.stage,
                    Stage::PreprocessEmitted | Stage::PreprocessDropped(_)
                )),
                "released trace{id} has no preprocess disposition"
            );
        }
        if events
            .iter()
            .any(|e| matches!(e.stage, Stage::PreprocessEmitted))
        {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.stage, Stage::ShardRouted(_))),
                "emitted trace{id} was never routed"
            );
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.stage, Stage::LocateInserted)),
                "emitted trace{id} never reached the locator"
            );
        }
    }
    // The incidents the operator reads explain back to their evidence.
    for scored in &report.incidents {
        let trail = sky.explain_incident(&scored.incident);
        assert!(
            trail
                .iter()
                .any(|e| matches!(e.stage, Stage::Scored(id) if id == scored.incident.id)),
            "incident {} has no scoring event",
            scored.incident.id
        );
    }
}

#[test]
fn exporters_are_stable_and_parseable_for_a_flood() {
    let (sky, report, _) = analyzed();

    let prom = sky.prometheus();
    // Every non-comment line is `series value` with a numeric value.
    for line in prom
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (series, value) = line.rsplit_once(' ').expect("series line");
        assert!(series.starts_with("skynet_"), "unexpected series: {series}");
        value.parse::<f64>().unwrap_or_else(|_| {
            panic!("non-numeric value in line: {line}");
        });
    }
    assert!(prom.contains("# TYPE skynet_ingest_accepted_total counter"));
    assert!(prom.contains(&format!(
        "skynet_ingest_accepted_total {}",
        report.ingest.accepted
    )));
    assert!(prom.contains("skynet_ingest_rejected_total{reason=\"stale-timestamp\"}"));
    assert!(prom.contains("skynet_stage_seconds_bucket"));
    assert!(prom.contains("le=\"+Inf\""));
    assert!(prom.contains("skynet_stage_seconds_count"));

    // The JSON document round-trips through a strict parser.
    let parsed: serde_json::Value = serde_json::from_str(&sky.json()).unwrap();
    let metrics = parsed["metrics"].as_array().unwrap();
    let has = |name: &str, value: u64| {
        metrics
            .iter()
            .any(|m| m["name"].as_str() == Some(name) && m["value"].as_u64() == Some(value))
    };
    assert!(has("skynet_ingest_accepted_total", report.ingest.accepted));
    assert!(has(
        "skynet_preprocess_emitted_total",
        report.preprocess.emitted
    ));

    // Exporting is read-only: a second scrape of the idle pipeline is
    // byte-identical.
    assert_eq!(sky.prometheus(), prom);

    // The human rendering covers every family the scrape does.
    let table = sky.table();
    assert!(table.contains("skynet_ingest_accepted_total"));
    assert!(table.contains("skynet_stage_seconds"));
}

/// Streaming hands the same observability surface out through the handle,
/// and a deliberately tiny trace ring still retains the newest events.
#[test]
fn streaming_handle_exposes_the_shared_observability() {
    let topo = Arc::new(generate(&GeneratorConfig::small()));
    let scenario = flood_scenario(&topo);
    let mut suite = TelemetrySuite::standard(&topo, TelemetryConfig::quiet());
    let run = suite.run(&scenario);
    let sky = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .build();
    let handle = sky.stream();
    for alert in &run.alerts {
        handle.send(StreamEvent::Alert(alert.clone())).unwrap();
    }
    handle
        .send(StreamEvent::Tick(
            scenario.horizon() + SimDuration::from_mins(20),
        ))
        .unwrap();
    handle.send(StreamEvent::Flush).unwrap();
    let streamed: Vec<StreamIncident> = handle.incidents.iter().collect();
    handle.join().unwrap();
    assert!(!streamed.is_empty());

    let snap = handle.observability().snapshot();
    assert_eq!(
        snap.counter("skynet_ingest_accepted_total", None),
        handle.ingest_stats().accepted
    );
    assert!(handle
        .prometheus()
        .contains("skynet_incidents_completed_total"));
    // A streamed incident explains end to end, exactly like batch.
    let alert = &streamed[0].scored.incident.alerts[0];
    let events = handle.explain(alert.trace);
    assert!(events
        .iter()
        .any(|e| matches!(e.stage, Stage::GuardAdmitted)));
    assert!(events.iter().any(|e| matches!(e.stage, Stage::Scored(_))));
}

/// The trace ring never loses the newest events: with W concurrent
/// writers, the retained set is exactly the newest `capacity` records,
/// every writer's surviving events preserve its own write order as a
/// contiguous suffix ending at its final record, and the lossless
/// `recorded` tally counts every write.
#[test]
fn trace_ring_keeps_the_newest_events_under_concurrent_writers() {
    const SEEDS: std::ops::Range<u64> = 0..32;
    for_each_seed(SEEDS, |rng| {
        let capacity = rng.range(1..512) as usize;
        let writers = rng.range(1..4);
        let per_writer = rng.range(1..200);
        let recorder = Arc::new(TraceRecorder::new(capacity));
        std::thread::scope(|scope| {
            for w in 0..writers {
                let recorder = Arc::clone(&recorder);
                scope.spawn(move || {
                    for i in 0..per_writer {
                        recorder.record(TraceEvent {
                            trace: TraceId(w * 1_000_000 + i + 1),
                            at: SimTime::from_secs(i),
                            stage: Stage::GuardAdmitted,
                        });
                    }
                });
            }
        });
        let total = writers * per_writer;
        assert_eq!(recorder.recorded(), total);
        let events = recorder.events();
        assert_eq!(events.len(), capacity.min(total as usize));
        assert_eq!(recorder.dropped(), total - events.len() as u64);
        for w in 0..writers {
            let ids: Vec<u64> = events
                .iter()
                .map(|e| e.trace.0)
                .filter(|id| id / 1_000_000 == w)
                .collect();
            assert!(ids.windows(2).all(|p| p[0] < p[1]));
            if let (Some(&first), Some(&last)) = (ids.first(), ids.last()) {
                // Contiguous suffix: nothing in the middle was lost, and the
                // writer's newest record survived.
                assert_eq!(ids.len() as u64, last - first + 1);
                assert_eq!(last, w * 1_000_000 + per_writer);
            }
        }
    });
}
