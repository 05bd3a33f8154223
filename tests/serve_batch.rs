//! Batched-admission equivalence property: interleaving `submit_batch`
//! and `submit` across tenants is *observationally identical* to
//! submitting every event one at a time.
//!
//! Property (seeded cases, shards 1 and 4): for an arbitrary interleaving of
//! per-tenant batch and single submissions over three tenants, the WAL
//! the batched run writes replays to reports byte-identical to the WAL a
//! one-at-a-time run writes from the same per-tenant feeds. Batching is a
//! commit-grouping optimization — it changes how many fsyncs cover the
//! frames, never which frames exist, their per-tenant sequence numbers,
//! or what the pipeline computes from them.
//!
//! Also asserted along the way: every batch acks a dense contiguous
//! per-tenant seq range (`last - first + 1 == accepted`, nothing
//! rejected — no faults are armed here, deliberately: fault decision
//! streams are indexed by global submit order, which batching is allowed
//! to regroup only when no arm is watching).

mod common;

use common::{for_each_seed, topo, Lcg};
use skynet::core::serve::{FsyncPolicy, WalEvent};
use skynet::core::{replay_wal, PipelineConfig, ServeConfig, SkyNet, StreamingConfig};
use skynet::model::{AlertKind, DataSource, RawAlert, SimTime};
use skynet::topology::Topology;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const SEEDS: std::ops::Range<u64> = 0..4;

const TENANTS: [&str; 3] = ["batch-a", "batch-b", "batch-c"];

/// Unique scratch directories across cases within one process.
static CASE: AtomicU64 = AtomicU64::new(0);

fn test_dir(run: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "skynet-serve-batch-{}-{case}-{run}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pipeline_cfg(shards: usize) -> PipelineConfig {
    PipelineConfig::production().with_streaming(StreamingConfig::default().with_shards(shards))
}

/// A deterministic event pool with strictly increasing timestamps, so
/// every tenant's subsequence (whatever the interleaving draws) is a
/// well-ordered feed: alerts across every device, a tick every tenth
/// slot.
fn event_pool(topo: &Topology) -> Vec<WalEvent> {
    let kinds = [
        AlertKind::PacketLossIcmp,
        AlertKind::PacketLossTcp,
        AlertKind::LinkDown,
        AlertKind::LatencyJitter,
        AlertKind::DeviceInaccessible,
        AlertKind::TrafficCongestion,
        AlertKind::HighCpu,
        AlertKind::BgpPeerDown,
    ];
    let devices = topo.devices();
    (0..256u64)
        .map(|i| {
            if i % 10 == 9 {
                return WalEvent::Tick(SimTime::from_secs(i * 2));
            }
            let device = &devices[(i as usize * 7) % devices.len()];
            WalEvent::Alert(
                RawAlert::known(
                    DataSource::ALL[i as usize % DataSource::ALL.len()],
                    SimTime::from_secs(i * 2),
                    device.location.clone(),
                    kinds[i as usize % kinds.len()],
                )
                .with_magnitude(0.1 + 0.8 * (i % 9) as f64 / 9.0),
            )
        })
        .collect()
}

/// Feeds `ops` to a fresh service — batched when `batched`, otherwise
/// event-by-event — then shuts it down and replays its WAL, returning the
/// per-tenant reports as serialized JSON, sorted by tenant.
fn run_feed(ops: &[(usize, usize)], shards: usize, batched: bool) -> Vec<(String, String)> {
    let topo = topo();
    let dir = test_dir(if batched { "batched" } else { "single" });
    let service = SkyNet::builder(&topo)
        .config(pipeline_cfg(shards))
        .serve(
            ServeConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_segment_max_bytes(4096),
        )
        .expect("service starts");
    for tenant in TENANTS {
        service.hello(tenant).expect("tenant admits");
    }
    let pool = event_pool(&topo);
    let mut cursor = 0usize;
    for &(tenant_idx, batch) in ops {
        let tenant = TENANTS[tenant_idx % TENANTS.len()];
        let count = batch.max(1);
        assert!(cursor + count <= pool.len(), "ops exceed the event pool");
        let events: Vec<WalEvent> = pool[cursor..cursor + count].to_vec();
        cursor += count;
        if batched && batch > 0 {
            let ack = service.submit_batch(tenant, events).expect("batch acks");
            assert_eq!(ack.rejected, 0, "no faults armed, nothing rejected");
            assert_eq!(ack.accepted, count);
            assert_eq!(
                ack.last_seq - ack.first_seq + 1,
                count as u64,
                "a batch occupies a dense per-tenant seq range"
            );
        } else {
            for event in events {
                service.submit(tenant, event).expect("ack");
            }
        }
    }
    service.shutdown();

    let skynet = SkyNet::builder(&topo).config(pipeline_cfg(shards)).build();
    let mut reports: Vec<(String, String)> =
        replay_wal(&skynet, &dir, 0, None, SimTime::from_mins(60))
            .expect("replay succeeds")
            .into_iter()
            .map(|(tenant, report)| {
                let json = serde_json::to_string(&report).expect("report serializes");
                (tenant, json)
            })
            .collect();
    reports.sort_by(|a, b| a.0.cmp(&b.0));
    let _ = std::fs::remove_dir_all(&dir);
    reports
}

/// An interleaving: (tenant index, batch size). Size 0 means a plain
/// single `submit`; sizes 1–3 go through `submit_batch` in the batched
/// run. A leading single submit per tenant guarantees every tenant
/// appears in both runs.
fn ops(rng: &mut Lcg) -> Vec<(usize, usize)> {
    let mut ops: Vec<(usize, usize)> = (0..TENANTS.len()).map(|t| (t, 0)).collect();
    for _ in 0..rng.range(3..20) {
        let tenant = rng.range(0..TENANTS.len() as u64) as usize;
        ops.push((tenant, rng.range(0..4) as usize));
    }
    ops
}

/// The tentpole equivalence, at one shard and at four.
#[test]
fn batched_and_single_submission_replay_identically() {
    for_each_seed(SEEDS, |rng| {
        let ops = ops(rng);
        for shards in [1usize, 4] {
            let batched = run_feed(&ops, shards, true);
            let single = run_feed(&ops, shards, false);
            assert_eq!(
                batched, single,
                "replay reports diverged between batched and single submission at {shards} shard(s)"
            );
        }
    });
}
