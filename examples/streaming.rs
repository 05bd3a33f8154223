//! The production deployment shape (§6.2): SkyNet as a long-lived stream
//! processor on its own thread, fed alerts through a channel, emitting
//! scored incidents as their trees finalize.
//!
//! ```text
//! cargo run --example streaming
//! ```

use skynet::core::pipeline::StreamEvent;
use skynet::core::{Exporter, PipelineConfig, RejectReason, SkyNet};
use skynet::failure::Injector;
use skynet::model::{SimDuration, SimTime};
use skynet::telemetry::{TelemetryConfig, TelemetrySuite};
use skynet::topology::{generate, GeneratorConfig};
use std::sync::Arc;

fn main() {
    let topo = Arc::new(generate(&GeneratorConfig::small()));

    // Record a failure window (in production this is the live feed).
    let victim = topo
        .devices()
        .iter()
        .find(|d| d.role == skynet::topology::DeviceRole::Bsr)
        .unwrap();
    let mut injector = Injector::new(Arc::clone(&topo));
    injector.device_down(victim.id, SimTime::from_mins(5), SimDuration::from_mins(6));
    let scenario = injector.finish(SimTime::from_mins(15));
    let run = TelemetrySuite::standard(&topo, TelemetryConfig::default()).run(&scenario);
    println!("feeding {} alerts through the stream ...", run.alerts.len());

    let training = skynet::telemetry::tools::syslog::labeled_corpus(40, 5);
    let sky = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .training(&training)
        .build();
    let handle = sky.stream();

    // Interleave alerts and ping samples exactly as the feed would: both
    // logs are time-ordered, and the stable sort keeps each in its own
    // order. (Sent one log after the other, the guard's watermark would
    // reject the second as stale.)
    let mut feed: Vec<(SimTime, StreamEvent)> = run
        .alerts
        .iter()
        .map(|a| (a.timestamp, StreamEvent::Alert(a.clone())))
        .chain(
            run.ping
                .samples()
                .iter()
                .map(|s| (s.t, StreamEvent::Ping(s.clone()))),
        )
        .collect();
    feed.sort_by_key(|&(t, _)| t);
    for (_, event) in feed {
        handle.send(event).unwrap();
    }
    // Quiet period: ticks alone drive the 15-minute incident timeout.
    handle
        .send(StreamEvent::Tick(SimTime::from_mins(35)))
        .unwrap();

    let first = handle
        .incidents
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("an incident finalizes during the quiet period");
    println!(
        "incident finalized mid-stream: {} (score {:.1}, zoom {})",
        first.scored.incident.root,
        first.scored.score(),
        first.scored.zoom.location
    );
    if let Some(plan) = &first.sop {
        println!("SOP attached: {} -> {:?}", plan.rule, plan.action);
    }

    // The liveness probe: what a health-check endpoint would poll.
    let health = handle.health();
    println!(
        "health: alive={} restarts={} queued={}",
        health.alive, health.restarts, health.queued_events
    );
    assert!(health.alive && !health.gave_up);

    let stats = handle.preprocess_stats();
    println!(
        "live stats: {} raw in, {} structured out ({} deduplicated)",
        stats.raw, stats.emitted, stats.deduplicated
    );
    assert!(stats.emitted < stats.raw);
    let ingest = handle.ingest_stats();
    println!(
        "ingest: {} accepted, {} rejected, watermark {}",
        ingest.accepted,
        ingest.rejected(),
        ingest.watermark
    );
    // The ping mesh probes cluster pairs but reports at site level, so a
    // total outage yields byte-identical alerts for one site pair; the
    // guard keeps the first and quarantines the repeats. Nothing is
    // rejected for any other reason.
    {
        let dead = handle.dead_letters.lock();
        assert_eq!(dead.total(), dead.count(RejectReason::Duplicate));
        assert_eq!(dead.total(), ingest.rejected());
    }

    // The same numbers, as a scrape endpoint would serve them.
    let prom = handle.prometheus();
    assert!(prom.contains("skynet_ingest_accepted_total"));
    println!("--- metrics\n{}", handle.table());

    handle.send(StreamEvent::Flush).unwrap();
    let mut incidents: Vec<_> = handle.incidents.iter().collect();
    handle.join().unwrap();
    println!(
        "flush drained {} further incident(s); worker exited cleanly",
        incidents.len()
    );

    // A BSR outage is seen from both sides of the WAN: the far region's
    // ping mesh reports loss too. At least one incident must sit on the
    // victim itself.
    incidents.push(first);
    assert!(
        incidents
            .iter()
            .any(|s| s.scored.incident.root.contains(&victim.location)),
        "some incident must cover the dead BSR"
    );
}
