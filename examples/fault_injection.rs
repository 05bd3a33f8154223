//! Deterministic fault injection end to end: seed a chaos policy, break a
//! router, inject stage faults while the flood is analyzed, then read the
//! post-incident degradation report and ask `explain()` what happened to
//! the alert a locate worker crashed on.
//!
//! Run it twice — the same seed replays the same faults, byte for byte.
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use skynet::core::faultinject::FaultDisposition;
use skynet::failure::Injector;
use skynet::model::SimDuration;
use skynet::prelude::*;
use skynet::telemetry::{TelemetryConfig, TelemetrySuite};
use skynet::topology::DeviceRole;
use std::sync::Arc;

fn main() {
    let topo = Arc::new(generate(&GeneratorConfig::small()));

    // A site aggregation router dies for eight minutes; the monitoring
    // tools flood.
    let victim = topo
        .devices()
        .iter()
        .find(|d| d.role == DeviceRole::Csr)
        .expect("the generator always builds CSRs");
    let mut injector = Injector::new(Arc::clone(&topo));
    injector.device_down(victim.id, SimTime::from_mins(5), SimDuration::from_mins(8));
    let scenario = injector.finish(SimTime::from_mins(20));
    let run = TelemetrySuite::standard(&topo, TelemetryConfig::default()).run(&scenario);
    println!("flood: {} raw alerts", run.alerts.len());

    // The chaos policy: a one-shot locate-worker panic (the alert in
    // flight is quarantined and the analysis resumes behind it), a
    // low-probability ingest error (exercises the dead-letter queue), a
    // skipped reachability matrix and a skipped SOP match. One seed governs every probabilistic draw.
    let faults = FaultConfig::seeded(7)
        .with_rule(FaultRule::once(
            InjectionSite::LocateWorker,
            40,
            FaultAction::Panic,
        ))
        .with_rule(FaultRule::probability(
            InjectionSite::GuardOffer,
            0.01,
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
        ));

    let sky = SkyNet::builder(&topo)
        .config(PipelineConfig::production().with_faults(faults))
        .build();
    let report = sky.analyze(&run.alerts, &run.ping, SimTime::from_mins(45));

    println!("{}", report.render());

    // The post-incident story: every fault, its site, its disposition and
    // the degradation timeline reconstructed from the trace ring.
    let degradation = sky.degradation_report(&report);
    println!("{}", degradation.render());

    // "What happened to the alert the worker crashed on?"
    if let Some(fault) = report
        .faults
        .iter()
        .find(|f| f.disposition == FaultDisposition::Panicked)
    {
        println!("--- explain(trace {}) ---", fault.trace.0);
        for event in sky.explain(fault.trace) {
            println!("  @ {}: {}", event.at, event.stage.label());
        }
    }
}
