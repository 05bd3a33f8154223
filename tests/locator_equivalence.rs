//! Differential tests: the interned-id arena [`Locator`] must produce
//! exactly the incidents of the path-keyed [`PathLocator`] oracle — same
//! ids, roots, timings and member alerts — on randomized floods, under
//! every counting/quorum/connectivity configuration, including
//! off-topology locations that force dynamic interning.

mod common;

use common::{for_each_seed, locations, sorted_stream, structured, topo};
use skynet::core::locator::{CountingMode, Locator, LocatorConfig, PathLocator};
use skynet::model::{AlertKind, DataSource, RawAlert, SimDuration, SimTime, StructuredAlert};
use skynet::topology::Topology;
use std::sync::Arc;

const SEEDS: std::ops::Range<u64> = 0..48;

fn configs() -> Vec<LocatorConfig> {
    vec![
        LocatorConfig::default(),
        LocatorConfig::default().with_counting(CountingMode::TypeAndLocation),
        LocatorConfig::default().with_root_quorum(1.0),
        LocatorConfig::default().with_topology_connectivity(false),
    ]
}

/// Runs one flood through both locators under one config and asserts the
/// incident lists are identical.
fn assert_equivalent(topo: &Arc<Topology>, cfg: &LocatorConfig, flood: &[StructuredAlert]) {
    let horizon = flood
        .iter()
        .map(|a| a.last_seen)
        .max()
        .unwrap_or(SimTime::ZERO)
        + SimDuration::from_mins(20);
    let mut arena = Locator::new(topo, cfg.clone());
    let mut path_keyed = PathLocator::new(topo, cfg.clone());
    let got = arena.process_batch(flood, horizon);
    let want = path_keyed.process_batch(flood, horizon);
    assert_eq!(
        got, want,
        "arena and path-keyed locators diverged under {cfg:?}"
    );
}

#[test]
fn arena_locator_matches_path_keyed_oracle() {
    let t = topo();
    // On-topology prefixes plus off-topology probe children (the latter
    // are absent from the topology interner, so the arena locator must
    // intern them on the fly exactly where the path-keyed oracle just
    // hashes them).
    let mut locations = locations(&t);
    for (i, cluster) in t.clusters().iter().enumerate() {
        locations.push(cluster.child(format!("probe-{i}")));
    }
    for_each_seed(SEEDS, |rng| {
        // 40 minutes: spans node + incident timeouts.
        let flood = structured(&sorted_stream(rng, &locations, 1..250, 40 * 60 * 1000));
        for cfg in configs() {
            assert_equivalent(&t, &cfg, &flood);
        }
    });
}

/// A deterministic flood large enough to open, grow, absorb and expire
/// incidents — a fixed regression companion to the property above.
#[test]
fn dense_site_flood_is_identical_across_implementations() {
    let t = topo();
    let mut flood = Vec::new();
    for (i, device) in t.devices().iter().enumerate() {
        for step in 0..4u64 {
            let raw = RawAlert::known(
                DataSource::OutOfBand,
                SimTime::from_secs(step * 30 + (i as u64 % 7)),
                device.location.clone(),
                AlertKind::DeviceInaccessible,
            );
            flood.push(StructuredAlert::from_raw(
                &raw,
                AlertKind::DeviceInaccessible,
            ));
        }
    }
    flood.sort_by_key(|a| a.first_seen);
    for cfg in configs() {
        assert_equivalent(&t, &cfg, &flood);
    }
}

/// Off-topology probe locations exercise the arena's dynamic interning
/// (ids appended past the topology-seeded range) on both route-to-open
/// and new-tree paths.
#[test]
fn off_topology_probes_are_identical_across_implementations() {
    let t = topo();
    let cluster = t.clusters()[0].clone();
    let mut flood = Vec::new();
    for step in 0..40u64 {
        let loc = cluster.child(format!("probe-{}", step % 5));
        let raw = RawAlert::known(
            DataSource::Ping,
            SimTime::from_secs(step * 15),
            loc,
            AlertKind::PacketLossIcmp,
        );
        flood.push(StructuredAlert::from_raw(&raw, AlertKind::PacketLossIcmp));
    }
    for cfg in configs() {
        assert_equivalent(&t, &cfg, &flood);
    }
}
