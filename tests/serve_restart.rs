//! Serving-layer acceptance tests.
//!
//! 1. **Warm-restart byte-identity** (the tentpole guarantee): serve a
//!    flood, snapshot, keep feeding a WAL tail, kill the service, restore
//!    a fresh one from snapshot + WAL tail over the same directory, finish
//!    the feed — the final `AnalysisReport` JSON is byte-identical to an
//!    uninterrupted run. Asserted at 1 and 4 shards with `wal-append`,
//!    `snapshot-write` and `locate-worker` faults armed; the CI
//!    `serve-matrix` job drives it across seeds via `SKYNET_SERVE_SEED`.
//! 2. **Tenant isolation**: a wedged (paused) tenant gets `BUSY` pushback
//!    on its own feed while a healthy tenant's submissions keep acking.
//! 3. **TCP front door**: the newline-delimited JSON protocol round-trips
//!    hello → ack'd events → report over a real socket.

use skynet::core::serve::{FsyncPolicy, WalEvent};
use skynet::core::{
    FaultAction, FaultConfig, FaultRule, InjectionSite, PipelineConfig, ServeConfig, ServeError,
    ServiceHandle, SkyNet, StreamingConfig,
};
use skynet::model::{AlertKind, DataSource, RawAlert, SimTime};
use skynet::topology::{generate, GeneratorConfig, Topology};
use std::path::PathBuf;
use std::sync::Arc;

fn topo() -> Arc<Topology> {
    Arc::new(generate(&GeneratorConfig::small()))
}

fn env_seed() -> u64 {
    std::env::var("SKYNET_SERVE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(11)
}

/// A fresh per-case WAL directory under the system temp dir.
fn test_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "skynet-serve-restart-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The armed chaos mix: periodic WAL-append rejections (submits bounce,
/// identically in every run), locate-worker errors inside the pipeline,
/// and a one-shot snapshot-write failure (the first snapshot attempt is
/// skipped; the driver retries).
fn faults(seed: u64) -> FaultConfig {
    FaultConfig::seeded(seed)
        .with_rule(FaultRule::every(
            InjectionSite::WalAppend,
            13,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::every(
            InjectionSite::LocateWorker,
            25,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::once(
            InjectionSite::SnapshotWrite,
            1,
            FaultAction::Error,
        ))
}

fn pipeline_cfg(shards: usize, seed: u64) -> PipelineConfig {
    PipelineConfig::production()
        .with_streaming(StreamingConfig::default().with_shards(shards))
        .with_faults(faults(seed))
}

fn serve_cfg(dir: &PathBuf) -> ServeConfig {
    ServeConfig::new(dir)
        .with_fsync(FsyncPolicy::Never)
        .with_segment_max_bytes(4096)
        .with_retain_segments(8)
}

/// A deterministic tenant feed: a dense burst at one site (so incidents
/// complete), diffuse background alerts over every device, and a tick
/// every ten alerts so the locators sweep mid-flood.
fn feed_events(topo: &Topology) -> Vec<WalEvent> {
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
    let burst_site = topo.clusters()[0].parent();
    let mut alerts = Vec::new();
    for t in 0..30u64 {
        alerts.push(
            RawAlert::known(
                DataSource::Ping,
                SimTime::from_secs(t * 2),
                burst_site.clone(),
                AlertKind::PacketLossIcmp,
            )
            .with_magnitude(0.3),
        );
    }
    alerts.push(RawAlert::known(
        DataSource::Snmp,
        SimTime::from_secs(11),
        burst_site.clone(),
        AlertKind::LinkDown,
    ));
    for i in 0..80u64 {
        let device = &devices[(i as usize * 7) % devices.len()];
        alerts.push(
            RawAlert::known(
                DataSource::ALL[i as usize % DataSource::ALL.len()],
                SimTime::from_secs(5 + i * 5),
                device.location.clone(),
                kinds[i as usize % kinds.len()],
            )
            .with_magnitude(0.1 + 0.8 * (i % 9) as f64 / 9.0),
        );
    }
    alerts.sort_by_key(|a| a.timestamp);
    let mut events = Vec::new();
    for (i, alert) in alerts.into_iter().enumerate() {
        let at = alert.timestamp;
        events.push(WalEvent::Alert(alert));
        if (i + 1) % 10 == 0 {
            events.push(WalEvent::Tick(at));
        }
    }
    events
}

/// Submits events in order; injected `wal-append` rejections bounce the
/// submit and drop the event — deterministically, so every run loses the
/// same ones. Anything else is a real failure.
fn submit_all(service: &ServiceHandle, tenant: &str, events: &[WalEvent]) {
    for event in events {
        match service.submit(tenant, event.clone()) {
            Ok(_) | Err(ServeError::WalRejected) => {}
            Err(e) => panic!("unexpected submit failure: {e}"),
        }
    }
}

/// Takes a snapshot, retrying past injected `snapshot-write` skips. Every
/// run performs the same number of attempts (the arm's decision stream is
/// seeded), so attempt counts never diverge between the compared runs.
fn snapshot_with_retries(service: &ServiceHandle) {
    for _ in 0..3 {
        match service.snapshot() {
            Ok(_) => return,
            Err(ServeError::SnapshotSkipped) => continue,
            Err(e) => panic!("unexpected snapshot failure: {e}"),
        }
    }
    panic!("snapshot never succeeded within the retry budget");
}

const TENANT: &str = "edge-west";
const HORIZON_MINS: u64 = 60;

/// The uninterrupted reference run. It performs the *same* snapshot calls
/// at the same feed position as the interrupted run (snapshots advance the
/// `snapshot-write` decision stream and the fault ledger, so both runs
/// must make them), but never shuts down.
fn uninterrupted_report(topo: &Arc<Topology>, shards: usize, seed: u64, dir: &PathBuf) -> String {
    let service = SkyNet::builder(topo)
        .config(pipeline_cfg(shards, seed))
        .serve(serve_cfg(dir))
        .expect("service starts cold");
    service.hello(TENANT).expect("tenant admits");
    let events = feed_events(topo);
    let (first, rest) = events.split_at(70);
    submit_all(&service, TENANT, first);
    snapshot_with_retries(&service);
    submit_all(&service, TENANT, rest);
    let report = service
        .report(TENANT, SimTime::from_mins(HORIZON_MINS))
        .expect("report");
    service.shutdown();
    serde_json::to_string(&report).expect("report serializes")
}

/// The kill-and-restart run: first half, snapshot, a five-event WAL tail
/// *past* the snapshot, hard stop. A fresh service over the same directory
/// restores the snapshot, replays the tail, and finishes the feed.
fn interrupted_report(topo: &Arc<Topology>, shards: usize, seed: u64, dir: &PathBuf) -> String {
    let events = feed_events(topo);
    let (first, rest) = events.split_at(70);
    let (tail, remainder) = rest.split_at(5);
    {
        let service = SkyNet::builder(topo)
            .config(pipeline_cfg(shards, seed))
            .serve(serve_cfg(dir))
            .expect("service starts cold");
        service.hello(TENANT).expect("tenant admits");
        submit_all(&service, TENANT, first);
        snapshot_with_retries(&service);
        submit_all(&service, TENANT, tail);
        service.shutdown();
    }
    let service = SkyNet::builder(topo)
        .config(pipeline_cfg(shards, seed))
        .serve(serve_cfg(dir))
        .expect("service warm-restarts");
    let health = service.tenant_health(TENANT).expect("tenant restored");
    assert!(
        health.applied_seq > 0,
        "the restored tenant must have replayed past the snapshot"
    );
    submit_all(&service, TENANT, remainder);
    let report = service
        .report(TENANT, SimTime::from_mins(HORIZON_MINS))
        .expect("report after restart");
    service.shutdown();
    serde_json::to_string(&report).expect("report serializes")
}

fn assert_restart_byte_identity(shards: usize) {
    let topo = topo();
    let seed = env_seed();
    let clean_dir = test_dir(&format!("clean-{shards}-{seed}"));
    let killed_dir = test_dir(&format!("killed-{shards}-{seed}"));
    let clean = uninterrupted_report(&topo, shards, seed, &clean_dir);
    let resumed = interrupted_report(&topo, shards, seed, &killed_dir);
    assert!(
        clean.contains("\"incidents\""),
        "the flood must produce a real report"
    );
    assert_eq!(
        resumed, clean,
        "a warm-restarted run must be byte-identical to an uninterrupted one \
         (shards={shards}, seed={seed})"
    );
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&killed_dir);
}

#[test]
fn warm_restart_is_byte_identical_at_one_shard() {
    assert_restart_byte_identity(1);
}

#[test]
fn warm_restart_is_byte_identical_at_four_shards() {
    assert_restart_byte_identity(4);
}

/// `skynet replay` over the full WAL of a completed (fault-free) run
/// reproduces the service's own report byte-for-byte: the WAL is the feed.
#[test]
fn wal_replay_reproduces_the_served_report() {
    let topo = topo();
    let dir = test_dir("replay");
    let events = feed_events(&topo);
    let skynet_report = {
        let service = SkyNet::builder(&topo)
            .config(PipelineConfig::production())
            .serve(serve_cfg(&dir))
            .expect("service starts");
        service.hello(TENANT).expect("tenant admits");
        submit_all(&service, TENANT, &events);
        let report = service
            .report(TENANT, SimTime::from_mins(HORIZON_MINS))
            .expect("report");
        service.shutdown();
        serde_json::to_string(&report).expect("report serializes")
    };
    let skynet = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .build();
    let replayed =
        skynet::core::replay_wal(&skynet, &dir, 0, None, SimTime::from_mins(HORIZON_MINS))
            .expect("replay succeeds");
    assert_eq!(replayed.len(), 1, "one tenant fed the WAL");
    assert_eq!(replayed[0].0, TENANT);
    assert_eq!(
        serde_json::to_string(&replayed[0].1).expect("report serializes"),
        skynet_report,
        "replaying the WAL must reproduce the served report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restarting over a WAL whose head segment is record-less — an idle
/// previous run, or a crash right after rotation — must warm-start
/// instead of colliding with the stale file (regression: the writer
/// derived its segment index from the record summary, which skips empty
/// segments, so `create_new` hit `AlreadyExists`).
#[test]
fn restart_survives_a_record_less_head_segment() {
    let topo = topo();
    let dir = test_dir("empty-head");
    for round in 0..3 {
        let service = SkyNet::builder(&topo)
            .config(PipelineConfig::production())
            .serve(serve_cfg(&dir))
            .unwrap_or_else(|e| panic!("idle restart round {round} must start: {e}"));
        service.hello(TENANT).expect("tenant admits");
        service.shutdown();
    }
    // Ingest still works after the idle restarts.
    let service = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .serve(serve_cfg(&dir))
        .expect("service starts after idle runs");
    service.hello(TENANT).expect("tenant admits");
    let site = topo.clusters()[0].parent().clone();
    service
        .submit_alert(
            TENANT,
            RawAlert::known(
                DataSource::Ping,
                SimTime::from_secs(1),
                site,
                AlertKind::PacketLossIcmp,
            ),
        )
        .expect("submission acks");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `snapshot()` must return while a tenant is paused: pausing defers only
/// event applies, never control messages — otherwise the documented drain
/// valve would hang every snapshot caller.
#[test]
fn snapshot_completes_while_a_tenant_is_paused() {
    let topo = topo();
    let dir = test_dir("paused-snapshot");
    let service = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .serve(serve_cfg(&dir))
        .expect("service starts");
    service.hello("slow").expect("tenant admits");
    service.pause_tenant("slow").expect("pause");
    let site = topo.clusters()[0].parent().clone();
    for t in 0..3u64 {
        service
            .submit_alert(
                "slow",
                RawAlert::known(
                    DataSource::Ping,
                    SimTime::from_secs(t),
                    site.clone(),
                    AlertKind::PacketLossIcmp,
                ),
            )
            .expect("acks while paused (queue not full)");
    }
    service
        .snapshot()
        .expect("snapshot returns despite the pause");
    let health = service.tenant_health("slow").expect("health");
    assert!(health.paused);
    assert_eq!(health.queued, 3, "applies stay deferred while paused");
    // The snapshot captured the pre-pause state: nothing applied yet, so
    // the queued events stay above the floor and replay from the WAL.
    let snap = skynet::core::serve::snapshot::load(&dir)
        .expect("snapshot loads")
        .expect("snapshot present");
    assert_eq!(snap.tenants.len(), 1);
    assert_eq!(snap.tenants[0].last_applied_seq, 0);
    service.resume_tenant("slow").expect("resume");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A report cuts an incarnation boundary into the WAL: a restart after a
/// report must not replay the already-reported feed into the fresh
/// incarnation. The second incarnation's report is byte-identical whether
/// the service kept running or was killed right after the first report,
/// and a restart with no new feed reports an empty incarnation.
#[test]
fn restart_after_report_does_not_double_count() {
    let topo = topo();
    let events = feed_events(&topo);
    let horizon = SimTime::from_mins(HORIZON_MINS);

    // Uninterrupted: report, feed again, report.
    let continued_dir = test_dir("reported-continued");
    let second_continued = {
        let service = SkyNet::builder(&topo)
            .config(PipelineConfig::production())
            .serve(serve_cfg(&continued_dir))
            .expect("service starts");
        service.hello(TENANT).expect("tenant admits");
        submit_all(&service, TENANT, &events);
        service.report(TENANT, horizon).expect("first report");
        submit_all(&service, TENANT, &events);
        let second = service.report(TENANT, horizon).expect("second report");
        service.shutdown();
        serde_json::to_string(&second).expect("report serializes")
    };

    // Killed right after the first report, then restarted.
    let killed_dir = test_dir("reported-killed");
    {
        let service = SkyNet::builder(&topo)
            .config(PipelineConfig::production())
            .serve(serve_cfg(&killed_dir))
            .expect("service starts");
        service.hello(TENANT).expect("tenant admits");
        submit_all(&service, TENANT, &events);
        service.report(TENANT, horizon).expect("first report");
        service.shutdown();
    }
    let service = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .serve(serve_cfg(&killed_dir))
        .expect("service warm-restarts past the boundary");
    let health = service.tenant_health(TENANT).expect("tenant restored");
    assert_eq!(
        health.applied_seq, 0,
        "the restored incarnation starts fresh — nothing replayed into it"
    );
    submit_all(&service, TENANT, &events);
    let second_restarted = service.report(TENANT, horizon).expect("second report");
    service.shutdown();
    assert_eq!(
        serde_json::to_string(&second_restarted).expect("report serializes"),
        second_continued,
        "the post-report incarnation must not inherit the reported feed"
    );

    // And a restart with no new feed reports an empty incarnation.
    let service = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .serve(serve_cfg(&killed_dir))
        .expect("service restarts again");
    let empty = service.report(TENANT, horizon).expect("empty report");
    assert_eq!(
        empty.ingest.accepted, 0,
        "no pre-boundary event may be re-ingested"
    );
    assert!(empty.incidents.is_empty());
    service.shutdown();
    let _ = std::fs::remove_dir_all(&continued_dir);
    let _ = std::fs::remove_dir_all(&killed_dir);
}

/// Snapshotless warm restart still resumes the `wal-append` decision
/// stream: the arm is fast-forwarded once per scanned record even when no
/// snapshot exists, so post-restart appends continue — not rewind — the
/// injected stream and the report stays byte-identical. (`Latency(0)`
/// faults fire without dropping records, so the fast-forward is exact.)
#[test]
fn snapshotless_restart_resumes_wal_fault_streams() {
    let topo = topo();
    let seed = env_seed();
    let chaos = || {
        FaultConfig::seeded(seed)
            .with_rule(FaultRule::every(
                InjectionSite::WalAppend,
                7,
                FaultAction::Latency(0),
            ))
            .with_rule(FaultRule::every(
                InjectionSite::LocateWorker,
                25,
                FaultAction::Error,
            ))
    };
    let cfg = || {
        PipelineConfig::production()
            .with_streaming(StreamingConfig::default().with_shards(2))
            .with_faults(chaos())
    };
    let events = feed_events(&topo);
    let horizon = SimTime::from_mins(HORIZON_MINS);

    let clean_dir = test_dir(&format!("snapshotless-clean-{seed}"));
    let clean = {
        let service = SkyNet::builder(&topo)
            .config(cfg())
            .serve(serve_cfg(&clean_dir))
            .expect("service starts");
        service.hello(TENANT).expect("tenant admits");
        submit_all(&service, TENANT, &events);
        let report = service.report(TENANT, horizon).expect("report");
        service.shutdown();
        serde_json::to_string(&report).expect("report serializes")
    };

    let killed_dir = test_dir(&format!("snapshotless-killed-{seed}"));
    let (first, rest) = events.split_at(70);
    {
        let service = SkyNet::builder(&topo)
            .config(cfg())
            .serve(serve_cfg(&killed_dir))
            .expect("service starts");
        service.hello(TENANT).expect("tenant admits");
        submit_all(&service, TENANT, first);
        service.shutdown(); // no snapshot was ever taken
    }
    let service = SkyNet::builder(&topo)
        .config(cfg())
        .serve(serve_cfg(&killed_dir))
        .expect("service warm-restarts from the WAL alone");
    submit_all(&service, TENANT, rest);
    let resumed = service.report(TENANT, horizon).expect("report");
    service.shutdown();
    assert_eq!(
        serde_json::to_string(&resumed).expect("report serializes"),
        clean,
        "a snapshotless restart must resume the fault streams (seed={seed})"
    );
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&killed_dir);
}

/// A shard-count change between snapshot and restart is a recoverable
/// `ServeError::Corrupt`, not a worker panic.
#[test]
fn shard_mismatch_on_restore_is_a_recoverable_error() {
    let topo = topo();
    let dir = test_dir("shard-mismatch");
    let events = feed_events(&topo);
    {
        let service = SkyNet::builder(&topo)
            .config(
                PipelineConfig::production()
                    .with_streaming(StreamingConfig::default().with_shards(1)),
            )
            .serve(serve_cfg(&dir))
            .expect("service starts at one shard");
        service.hello(TENANT).expect("tenant admits");
        submit_all(&service, TENANT, &events[..20]);
        service.snapshot().expect("snapshot");
        service.shutdown();
    }
    match SkyNet::builder(&topo)
        .config(
            PipelineConfig::production().with_streaming(StreamingConfig::default().with_shards(4)),
        )
        .serve(serve_cfg(&dir))
    {
        Err(ServeError::Corrupt(msg)) => {
            assert!(msg.contains("shard"), "actionable message, got: {msg}")
        }
        Err(e) => panic!("expected Corrupt, got: {e}"),
        Ok(_) => panic!("a shard mismatch must not restore"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wedged tenant fills its own bounded queue and gets `BUSY`; a healthy
/// tenant's submissions keep acking the whole time.
#[test]
fn slow_tenant_cannot_block_healthy_acks() {
    let topo = topo();
    let dir = test_dir("busy");
    let service = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .serve(
            ServeConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_tenant_queue_capacity(2),
        )
        .expect("service starts");
    service.hello("slow").expect("slow admits");
    service.hello("fast").expect("fast admits");
    // Wedge the slow tenant: its worker stops draining entirely.
    service.pause_tenant("slow").expect("pause");

    let site = topo.clusters()[0].parent().clone();
    let alert = |t: u64| {
        RawAlert::known(
            DataSource::Ping,
            SimTime::from_secs(t),
            site.clone(),
            AlertKind::PacketLossIcmp,
        )
    };
    // The slow tenant's queue fills at its capacity, then turns BUSY.
    let mut busy = 0;
    for t in 0..6u64 {
        match service.submit_alert("slow", alert(t)) {
            Ok(_) => {}
            Err(ServeError::Busy { tenant }) => {
                assert_eq!(tenant, "slow");
                busy += 1;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert_eq!(busy, 4, "everything past the queue capacity must bounce");

    // The healthy tenant acks every event while the slow one is wedged.
    // Transient BUSY (the driver briefly outrunning the worker) is retried;
    // what must never happen is a slow tenant *permanently* blocking acks.
    // The bound is time, not tries: on a loaded two-core host a thousand
    // yields can pass before the fast tenant's worker is scheduled once.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    for t in 0..40u64 {
        loop {
            match service.submit_alert("fast", alert(t)) {
                Ok(_) => break,
                Err(ServeError::Busy { .. }) if std::time::Instant::now() < deadline => {
                    std::thread::yield_now();
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    let fast = service.tenant_health("fast").expect("fast health");
    assert_eq!(fast.accepted, 40, "every healthy submission must ack");
    let slow = service.tenant_health("slow").expect("slow health");
    assert!(slow.paused);
    assert_eq!(slow.accepted, 2);
    assert_eq!(slow.busy_rejections, 4);

    // Unwedge and the healthy tenant reports normally.
    service.resume_tenant("slow").expect("resume");
    let report = service
        .report("fast", SimTime::from_mins(HORIZON_MINS))
        .expect("healthy tenant reports");
    assert!(
        report.ingest.accepted >= 1,
        "the healthy tenant's feed must reach its pipeline"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The TCP/JSON protocol end to end over a real socket: hello, ack'd
/// alert and tick, a rendered report, bye.
#[test]
fn tcp_front_door_round_trips() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let topo = topo();
    let dir = test_dir("tcp");
    let service = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .serve(
            ServeConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_bind("127.0.0.1:0"),
        )
        .expect("service starts with a TCP front door");
    let addr = service.local_addr().expect("ephemeral port bound");

    let stream = TcpStream::connect(addr).expect("front door accepts");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let mut roundtrip = |request: &str| -> serde_json::Value {
        stream
            .write_all(format!("{request}\n").as_bytes())
            .expect("request sends");
        let mut response = String::new();
        reader.read_line(&mut response).expect("response arrives");
        serde_json::from_str(&response).expect("response parses")
    };

    let hello = roundtrip(r#"{"op":"hello","tenant":"cli"}"#);
    assert_eq!(hello["res"].as_str(), Some("hello"));
    assert_eq!(hello["tenant"].as_str(), Some("cli"));

    let site = topo.clusters()[0].parent().clone();
    let alert = RawAlert::known(
        DataSource::Ping,
        SimTime::from_secs(3),
        site,
        AlertKind::PacketLossIcmp,
    );
    let ack = roundtrip(&format!(
        r#"{{"op":"alert","alert":{}}}"#,
        serde_json::to_string(&alert).expect("alert serializes")
    ));
    assert_eq!(ack["res"].as_str(), Some("ack"));
    assert_eq!(ack["seq"].as_u64(), Some(1));

    let tick = roundtrip(&format!(
        r#"{{"op":"tick","at":{}}}"#,
        serde_json::to_string(&SimTime::from_mins(5)).expect("time serializes")
    ));
    assert_eq!(tick["res"].as_str(), Some("ack"));
    assert_eq!(tick["seq"].as_u64(), Some(2));

    // An op before hello on a fresh connection is rejected politely.
    {
        let bare = TcpStream::connect(addr).expect("second connection");
        let mut bare_reader = BufReader::new(bare.try_clone().expect("clone"));
        let mut bare = bare;
        bare.write_all(b"{\"op\":\"tick\",\"at\":0}\n")
            .expect("send");
        let mut response = String::new();
        bare_reader.read_line(&mut response).expect("reply");
        let parsed: serde_json::Value = serde_json::from_str(&response).expect("parses");
        assert_eq!(parsed["res"].as_str(), Some("error"));
    }

    let report = roundtrip(&format!(
        r#"{{"op":"report","horizon":{}}}"#,
        serde_json::to_string(&SimTime::from_mins(HORIZON_MINS)).expect("serializes")
    ));
    assert_eq!(report["res"].as_str(), Some("report"));
    assert!(report["report"]["ingest"]["accepted"].as_u64().is_some());

    let bye = roundtrip(r#"{"op":"bye"}"#);
    assert_eq!(bye["res"].as_str(), Some("bye"));

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
