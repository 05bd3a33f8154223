//! The one seeded generator behind every property under `tests/`: a
//! hand-rolled LCG (so a seed draws the same stream with the published
//! `rand` and with the offline stand-in, which differ) and the alert
//! streams, location pools and ping log the suites feed the pipeline.

// Each suite is its own crate and uses a different part of this module.
#![allow(dead_code)]

use skynet::model::{
    AlertKind, DataSource, LocationPath, PingLog, RawAlert, SimTime, StructuredAlert,
};
use skynet::telemetry::{ChaosConfig, ChaosEngine};
use skynet::topology::{generate, GeneratorConfig, Topology};
use std::sync::Arc;

/// The seeded stream of one property case.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        // Spread neighbouring seeds over the state space.
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed)
    }

    /// The next 31 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Any `u64` (a seed for a seeded component under test).
    pub fn any(&mut self) -> u64 {
        (self.next() << 33) ^ (self.next() << 16) ^ self.next()
    }

    /// Uniform in `range` (half-open, non-empty).
    pub fn range(&mut self, range: std::ops::Range<u64>) -> u64 {
        range.start + self.next() % (range.end - range.start)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 31) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0..items.len() as u64) as usize]
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0..i as u64 + 1) as usize);
        }
    }
}

/// Runs `case` once per seed of `seeds`, each on its own [`Lcg`]. When a
/// case panics, its index and seed are printed after the panic message, so
/// `for_each_seed(SEED..SEED + 1, ..)` replays exactly that case.
pub fn for_each_seed(seeds: std::ops::Range<u64>, mut case: impl FnMut(&mut Lcg)) {
    struct Running(usize, u64);
    impl Drop for Running {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at case {} (seed {})", self.0, self.1);
            }
        }
    }
    for (index, seed) in seeds.enumerate() {
        let _running = Running(index, seed);
        case(&mut Lcg::new(seed));
    }
}

/// The small generated topology every suite runs on.
pub fn topo() -> Arc<Topology> {
    Arc::new(generate(&GeneratorConfig::small()))
}

const KINDS: [AlertKind; 12] = [
    AlertKind::PacketLossIcmp,
    AlertKind::PacketLossTcp,
    AlertKind::LatencyJitter,
    AlertKind::DeviceInaccessible,
    AlertKind::LinkDown,
    AlertKind::PortDown,
    AlertKind::TrafficCongestion,
    AlertKind::HardwareError,
    AlertKind::HighCpu,
    AlertKind::TrafficDrop,
    AlertKind::TrafficSurge,
    AlertKind::BgpPeerDown,
];

/// The topology's location space: every prefix of every device's location,
/// once per device, so a uniform pick lands on a shared ancestor as often
/// as it has devices under it. Suites push their off-topology paths onto
/// it.
pub fn locations(topo: &Topology) -> Vec<LocationPath> {
    topo.devices()
        .iter()
        .flat_map(|d| d.location.prefixes().collect::<Vec<_>>())
        .collect()
}

pub const HALF_HOUR_MS: u64 = 30 * 60 * 1000;

/// One alert of any source and kind, at a location of `locations`, in the
/// first `span_ms` milliseconds.
fn alert(rng: &mut Lcg, locations: &[LocationPath], span_ms: u64) -> RawAlert {
    let source = *rng.pick(&DataSource::ALL);
    let kind = *rng.pick(&KINDS);
    let at = SimTime::from_millis(rng.range(0..span_ms));
    RawAlert::known(source, at, rng.pick(locations).clone(), kind).with_magnitude(rng.unit())
}

/// A number of alerts in `len`, spread over the first `span_ms`
/// milliseconds, in time order.
pub fn sorted_stream(
    rng: &mut Lcg,
    locations: &[LocationPath],
    len: std::ops::Range<u64>,
    span_ms: u64,
) -> Vec<RawAlert> {
    let mut stream: Vec<RawAlert> = (0..rng.range(len))
        .map(|_| alert(rng, locations, span_ms))
        .collect();
    stream.sort_by_key(|a| a.timestamp);
    stream
}

/// The feed degraded once — duplicate storms plus bounded out-of-order
/// delivery — so every run that is compared replays the same byte stream.
pub fn degraded(rng: &mut Lcg, alerts: &[RawAlert]) -> Vec<RawAlert> {
    ChaosEngine::new(ChaosConfig {
        seed: rng.any(),
        drop_prob: 0.0,
        corrupt_syslog_prob: 0.0,
        off_topology_prob: 0.0,
        duplicate_prob: 0.2,
        duplicate_burst: 2,
        skew_prob: 0.0,
        shuffle_window: 6,
        ..ChaosConfig::default()
    })
    .apply(alerts)
}

/// The alerts as the preprocessor would hand them on, one for one.
pub fn structured(alerts: &[RawAlert]) -> Vec<StructuredAlert> {
    alerts
        .iter()
        .filter_map(|r| r.known_kind().map(|k| StructuredAlert::from_raw(r, k)))
        .collect()
}

/// Deterministic lossy ping telemetry, so the evaluator's reachability
/// matrices are non-trivial and their equality checks something.
pub fn ping_log(topo: &Topology) -> PingLog {
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

#[test]
fn the_same_seed_yields_the_same_alert_stream() {
    let locations = locations(&topo());
    let stream = |seed| sorted_stream(&mut Lcg::new(seed), &locations, 1..300, HALF_HOUR_MS);
    assert_eq!(stream(7), stream(7));
    assert_ne!(stream(7), stream(8));
}
