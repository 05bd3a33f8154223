//! Everything the workloads feed the program, generated from the seed.
//!
//! The same seed gives the same bytes: the topology, the failure scenario,
//! both tenants' telemetry floods, the thinned ping log and the serialised
//! request scripts are a pure function of it. The digests of the scripts
//! are part of the output and are pinned for seeds 1 and 2 (`pins.json`),
//! so a change to `skynet-telemetry`, `skynet-failure` or the topology
//! generator cannot move the baseline unnoticed.

use crate::client::{Kind, Script};
use crate::digest;
use serde::Serialize;
use skynet_core::{PipelineConfig, SkyNet, SkyNetBuilder, SyslogClassifier};
use skynet_failure::{Injector, Scenario};
use skynet_model::ping::{PingLog, PingSample};
use skynet_model::{RawAlert, SimDuration, SimTime};
use skynet_telemetry::tools::syslog::labeled_corpus;
use skynet_telemetry::{TelemetryConfig, TelemetrySuite};
use skynet_topology::{generate, DeviceRole, GeneratorConfig, Topology};
use std::sync::Arc;

/// Alerts per `alerts` request in the batched flood.
pub const BATCH: usize = 256;
/// The flood ticks the tenant's clock at every multiple of this.
pub const TICK_EVERY: SimDuration = SimDuration::from_secs(10);
/// At most one `ping` per this many alerts (ping samples have no batched
/// verb and outnumber alerts about ten to one).
pub const ALERTS_PER_PING: usize = 20;
/// Every scenario is injected into a window this long …
pub const WINDOW: SimTime = SimTime::from_mins(25);
/// … and reported at this horizon, past every locator timeout.
pub const HORIZON: SimTime = SimTime::from_mins(40);

/// The two tenants every served workload uses.
pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// Which feed a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// The §2.2 entry cable cut under heavy noise: low compression, the
    /// engine works for every alert.
    Severe,
    /// Normal conditions: light noise and one minor device failure; high
    /// compression, the engine idles.
    Normal,
}

/// One step of a tenant's feed, in the order the tenant sends it.
#[derive(Debug, Clone)]
pub enum Op {
    /// `alerts[range]` as one batch.
    Batch(std::ops::Range<usize>),
    Tick(SimTime),
    Ping(PingSample),
}

/// One tenant's feed: the raw telemetry and the op sequence cut from it.
#[derive(Debug, Clone)]
pub struct TenantFeed {
    pub name: &'static str,
    pub alerts: Vec<RawAlert>,
    /// The thinned ping log (also what batch analysis is given).
    pub ping: PingLog,
    pub ops: Vec<Op>,
}

impl TenantFeed {
    /// Events the ops ask the service to accept.
    pub fn events(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Batch(range) => range.len() as u64,
                Op::Tick(_) | Op::Ping(_) => 1,
            })
            .sum()
    }
}

/// What every workload shares.
pub struct Common {
    pub seed: u64,
    pub topo: Arc<Topology>,
    pub classifier: Arc<SyslogClassifier>,
}

impl Common {
    /// Topology `GeneratorConfig::medium()` with the seed, and the FT-tree
    /// classifier trained on `labeled_corpus(40, 7)` with the production
    /// support and depth.
    pub fn build(seed: u64) -> Common {
        let topo = Arc::new(generate(&GeneratorConfig {
            seed,
            ..GeneratorConfig::medium()
        }));
        let cfg = PipelineConfig::production();
        let classifier = Arc::new(SyslogClassifier::train(
            &labeled_corpus(40, 7),
            cfg.classifier_min_support,
            cfg.classifier_max_depth,
        ));
        Common {
            seed,
            topo,
            classifier,
        }
    }

    /// A pipeline builder as shipped: `PipelineConfig::production()` (stage
    /// tracing on), the trained classifier, and `shards` locate lanes.
    pub fn builder(&self, shards: usize) -> SkyNetBuilder {
        let mut cfg = PipelineConfig::production();
        cfg.streaming = cfg.streaming.with_shards(shards);
        SkyNet::builder(&self.topo)
            .config(cfg)
            .classifier(Arc::clone(&self.classifier))
    }

    /// The §2.2 severe failure: half of the entry circuits of one region
    /// (the first by name) cut for 15 minutes inside the window. The same
    /// scenario as `skynet_bench::corpus::severe_cable_cut`, re-stated
    /// here so the benchmark does not depend on the bench crate.
    fn severe_cable_cut(&self) -> Scenario {
        let region = self
            .topo
            .regions_with_entries()
            .min_by_key(|r| r.to_string())
            .expect("the generator always creates Internet entries")
            .clone();
        let mut injector = Injector::new(Arc::clone(&self.topo));
        injector.entry_cable_cut(
            &region,
            0.5,
            SimTime::from_mins(3),
            SimDuration::from_mins(15),
        );
        injector.finish(WINDOW)
    }

    /// Normal conditions: one leaf switch down for eight minutes.
    fn minor_device_failure(&self) -> Scenario {
        let victim = self
            .topo
            .devices()
            .iter()
            .find(|d| d.role == DeviceRole::Leaf)
            .expect("the generator always creates leaf switches");
        let mut injector = Injector::new(Arc::clone(&self.topo));
        injector.device_down(victim.id, SimTime::from_mins(5), SimDuration::from_mins(8));
        injector.finish(WINDOW)
    }

    /// One tenant's feed: the scenario seen through telemetry seed
    /// `seed + index`.
    pub fn tenant_feed(&self, feed: Feed, index: usize) -> TenantFeed {
        let (scenario, noise_per_hour) = match feed {
            Feed::Severe => (self.severe_cable_cut(), 50_000.0),
            Feed::Normal => (self.minor_device_failure(), 8_000.0),
        };
        let telemetry = TelemetryConfig {
            noise_per_hour,
            seed: self.seed + index as u64,
            ..TelemetryConfig::default()
        };
        let run = TelemetrySuite::standard(&self.topo, telemetry).run(&scenario);
        let ping = thin_ping(&run.ping, run.alerts.len());
        // The paced feed is sent one alert per request; only the flood is
        // cut into batches and ticks.
        let ops = match feed {
            Feed::Severe => batched_ops(&run.alerts, &ping),
            Feed::Normal => Vec::new(),
        };
        TenantFeed {
            name: TENANTS[index],
            alerts: run.alerts,
            ping,
            ops,
        }
    }

    /// Both tenants' feeds.
    pub fn feeds(&self, feed: Feed) -> [TenantFeed; 2] {
        [self.tenant_feed(feed, 0), self.tenant_feed(feed, 1)]
    }
}

/// The thinning every workload applies to the ping log: keep the lossiest
/// samples first, at most one per [`ALERTS_PER_PING`] alerts, back in time
/// order.
pub fn thin_ping(full: &PingLog, alerts: usize) -> PingLog {
    let mut samples: Vec<&PingSample> = full.samples().iter().collect();
    // Stable: equally lossy samples keep their time order.
    samples.sort_by(|a, b| b.loss.total_cmp(&a.loss));
    samples.truncate(alerts / ALERTS_PER_PING);
    samples.sort_by_key(|s| s.t);
    let mut thinned = PingLog::new();
    for s in samples {
        thinned.record(s.t, s.src.clone(), s.dst.clone(), s.loss);
    }
    thinned
}

/// Cuts a time-ordered flood into full batches of [`BATCH`] alerts. After
/// each batch, the pings that have come due are sent, and then one `tick`
/// at the latest multiple of [`TICK_EVERY`] the batch has passed (ticks a
/// batch skipped over are coalesced into that one).
pub fn batched_ops(alerts: &[RawAlert], ping: &PingLog) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut pings = ping.samples().iter().peekable();
    let mut ticked = 0u64;
    let every = TICK_EVERY.as_millis();
    let mut start = 0;
    while start < alerts.len() {
        let end = (start + BATCH).min(alerts.len());
        ops.push(Op::Batch(start..end));
        let reached = alerts[end - 1].timestamp;
        while let Some(sample) = pings.next_if(|s| s.t <= reached) {
            ops.push(Op::Ping(sample.clone()));
        }
        let mark = reached.as_millis() / every;
        if mark > ticked {
            ticked = mark;
            ops.push(Op::Tick(SimTime::from_millis(mark * every)));
        }
        start = end;
    }
    ops.extend(pings.map(|s| Op::Ping(s.clone())));
    ops
}

#[derive(Serialize)]
#[serde(tag = "op", rename_all = "lowercase")]
enum WireRequest<'a> {
    Alert { alert: &'a RawAlert },
    Alerts { alerts: &'a [RawAlert] },
    Ping { ping: &'a PingSample },
    Tick { at: SimTime },
    Report { horizon: SimTime },
}

fn line(request: &WireRequest<'_>) -> Vec<u8> {
    serde_json::to_vec(request).expect("requests always serialise")
}

/// The batched flood as request bytes: every op, then `report`.
pub fn batched_script(feed: &TenantFeed) -> Script {
    let mut script = Script::default();
    for op in &feed.ops {
        match op {
            Op::Batch(range) => script.push(
                Kind::Batch(range.len() as u32),
                &line(&WireRequest::Alerts {
                    alerts: &feed.alerts[range.clone()],
                }),
            ),
            Op::Tick(at) => script.push(Kind::Tick, &line(&WireRequest::Tick { at: *at })),
            Op::Ping(sample) => script.push(Kind::Ping, &line(&WireRequest::Ping { ping: sample })),
        }
    }
    script.push(
        Kind::Report,
        &line(&WireRequest::Report { horizon: HORIZON }),
    );
    script
}

/// The paced feed as request bytes: one `alert` per request, then `report`.
pub fn single_script(feed: &TenantFeed) -> Script {
    let mut script = Script::default();
    for alert in &feed.alerts {
        script.push(Kind::Alert, &line(&WireRequest::Alert { alert }));
    }
    script.push(
        Kind::Report,
        &line(&WireRequest::Report { horizon: HORIZON }),
    );
    script
}

/// One `tick` request line (for the idle-latency probe).
pub fn tick_line(at: SimTime) -> Vec<u8> {
    let mut bytes = line(&WireRequest::Tick { at });
    bytes.push(b'\n');
    bytes
}

/// One `ping` request line.
pub fn ping_line(sample: &PingSample) -> Vec<u8> {
    let mut bytes = line(&WireRequest::Ping { ping: sample });
    bytes.push(b'\n');
    bytes
}

/// The digest that pins a script: every request byte, in order.
pub fn script_digest(script: &Script) -> String {
    digest::hex(&script.blob)
}

/// The digest that pins a feed no script is made from (batch analysis).
pub fn feed_digest(feed: &TenantFeed) -> String {
    let bytes = serde_json::to_vec(&(&feed.alerts, &feed.ping)).expect("feeds always serialise");
    digest::hex(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skynet_model::{AlertKind, DataSource, LocationPath};

    fn alert_at(ms: u64) -> RawAlert {
        RawAlert::known(
            DataSource::Snmp,
            SimTime::from_millis(ms),
            LocationPath::parse("R|a|b|c|d|e").expect("valid path"),
            AlertKind::TrafficCongestion,
        )
    }

    #[test]
    fn batches_are_full_and_ticks_coalesce_to_the_latest_mark_passed() {
        // 600 alerts 100 ms apart: batch one ends at 25.5 s, batch two at
        // 51.1 s, the 88-alert tail at 59.9 s.
        let alerts: Vec<RawAlert> = (0..600).map(|i| alert_at(i * 100)).collect();
        let ops = batched_ops(&alerts, &PingLog::new());
        let shape: Vec<String> = ops
            .iter()
            .map(|op| match op {
                Op::Batch(r) => format!("batch {}..{}", r.start, r.end),
                Op::Tick(at) => format!("tick {}", at.as_millis()),
                Op::Ping(_) => "ping".to_string(),
            })
            .collect();
        assert_eq!(
            shape,
            [
                "batch 0..256",
                "tick 20000",
                "batch 256..512",
                "tick 50000",
                "batch 512..600",
            ]
        );
    }

    #[test]
    fn thinning_keeps_the_lossiest_samples_in_time_order() {
        let a = LocationPath::parse("R|a").expect("valid path");
        let b = LocationPath::parse("R|b").expect("valid path");
        let mut full = PingLog::new();
        for (i, loss) in [0.1, 0.9, 0.5, 0.7, 0.3].into_iter().enumerate() {
            full.record(SimTime::from_secs(i as u64), a.clone(), b.clone(), loss);
        }
        // 60 alerts allow three pings: losses 0.9, 0.7, 0.5 at t = 1, 3, 2.
        let thinned = thin_ping(&full, 60);
        let kept: Vec<(u64, f64)> = thinned
            .samples()
            .iter()
            .map(|s| (s.t.as_millis() / 1000, s.loss))
            .collect();
        assert_eq!(kept, [(1, 0.9), (2, 0.5), (3, 0.7)]);
        assert!(thin_ping(&full, 19).samples().is_empty());
    }

    #[test]
    fn digests_are_stable_for_a_seed_and_move_with_it() {
        let a = Common::build(5);
        let feeds = a.feeds(Feed::Normal);
        let script = single_script(&feeds[0]);
        let again = single_script(&Common::build(5).feeds(Feed::Normal)[0]);
        assert_eq!(script_digest(&script), script_digest(&again));
        assert_eq!(
            feed_digest(&feeds[0]),
            feed_digest(&Common::build(5).feeds(Feed::Normal)[0])
        );
        assert_ne!(
            script_digest(&script),
            script_digest(&single_script(&feeds[1])),
            "the tenants see the scenario through different telemetry seeds"
        );
        assert_ne!(
            script_digest(&script),
            script_digest(&single_script(&Common::build(6).feeds(Feed::Normal)[0]))
        );
        assert_eq!(script.requests.len(), feeds[0].alerts.len() + 1);
        assert_eq!(script.events(), feeds[0].alerts.len() as u64);
    }
}
