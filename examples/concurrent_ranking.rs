//! The §5.1 "scene ranking" case: two failures at once. One is a power
//! outage that screams louder; the other congests the cluster that carries
//! the most premium-customer traffic. The evaluator ranks them by severity
//! (Equations 1–3: customer impact × time), not by alert volume; this
//! prints both incidents' factors and which one it puts first.
//!
//! Which one that is depends on the generated customers: on every topology
//! the offline stand-in `rand` draws, the outage breaks enough circuit sets
//! to out-score the congested cluster on impact as well
//! (EXPERIMENTS.md "Case studies").
//!
//! ```text
//! cargo run --example concurrent_ranking
//! ```

use skynet::core::{PipelineConfig, SkyNet};
use skynet::failure::Injector;
use skynet::model::{CustomerId, SimDuration, SimTime};
use skynet::telemetry::{TelemetryConfig, TelemetrySuite};
use skynet::topology::{generate, GeneratorConfig};
use std::sync::Arc;

fn main() {
    let topo = Arc::new(generate(&GeneratorConfig::small()));

    // Find the cluster carrying the most premium (SLA) traffic, and a
    // cluster in the *other* region carrying the least.
    let premium_rate = |cluster: &skynet::model::LocationPath| -> f64 {
        topo.flows()
            .iter()
            .filter(|f| f.src == *cluster)
            .filter(|f| topo.customer(f.customer).has_sla)
            .map(|f| f.rate_gbps)
            .sum()
    };
    let critical = topo
        .clusters()
        .iter()
        .max_by(|a, b| premium_rate(a).total_cmp(&premium_rate(b)))
        .unwrap()
        .clone();
    // The loud failure hits the cluster with the *least* premium traffic,
    // in the other region.
    let boring_region = topo
        .clusters()
        .iter()
        .filter(|c| c.segments()[0] != critical.segments()[0])
        .min_by(|a, b| premium_rate(a).total_cmp(&premium_rate(b)))
        .unwrap()
        .clone();

    println!("failure A (big, loud):   power outage under {boring_region}");
    println!("failure B (small, critical): congestion at {critical}");
    let premium: Vec<CustomerId> = topo
        .flows()
        .iter()
        .filter(|f| f.src == critical && topo.customer(f.customer).has_sla)
        .map(|f| f.customer)
        .collect();
    println!("  premium customers riding B's cluster: {}", premium.len());

    let mut injector = Injector::new(Arc::clone(&topo));
    // A: a whole site loses power — many devices, many alerts.
    injector.infrastructure_outage(
        &boring_region,
        SimTime::from_mins(2),
        SimDuration::from_mins(12),
    );
    // B: a DDoS congests the premium cluster — fewer devices.
    injector.ddos(
        &critical,
        3.0,
        SimTime::from_mins(2),
        SimDuration::from_mins(12),
    );
    let scenario = injector.finish(SimTime::from_mins(22));

    let mut suite = TelemetrySuite::standard(&topo, TelemetryConfig::default());
    let run = suite.run(&scenario);

    let training = skynet::telemetry::tools::syslog::labeled_corpus(40, 4);
    let sky = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .training(&training)
        .build();
    let report = sky.analyze(&run.alerts, &run.ping, SimTime::from_mins(42));

    println!("\nranked incidents:");
    for scored in &report.incidents {
        let alerts: u32 = scored.incident.alerts.iter().map(|a| a.count).sum();
        println!(
            "  score {:>8.1} = impact {:>6.1} × time {:>6.1}  {:>6} raw alerts  {}",
            scored.score(),
            scored.severity.impact,
            scored.severity.time_factor,
            alerts,
            scored.incident.root
        );
    }

    let critical_rank = report
        .incidents
        .iter()
        .position(|s| s.incident.root.contains(&critical) || critical.contains(&s.incident.root))
        .expect("the critical incident must be detected");
    let outage_rank = report
        .incidents
        .iter()
        .position(|s| {
            s.incident.root.contains(&boring_region) || boring_region.contains(&s.incident.root)
        })
        .expect("the outage must be detected");
    println!(
        "\n=> critical-customer incident ranked #{}, power outage ranked #{}",
        critical_rank + 1,
        outage_rank + 1
    );
}
