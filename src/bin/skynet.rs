//! `skynet` — analyze an alert flood from the command line.
//!
//! The operational entry point: feed a JSON-lines file of uniform-format
//! alerts (what every monitoring tool emits, §4.1) against a topology, get
//! the ranked incident report.
//!
//! ```text
//! skynet analyze --topology topo.json --alerts flood.jsonl [--horizon-mins 60]
//!                [--chaos-seed N]   # degrade the feed first, replayably
//! skynet gen-topology [--scale small|medium|large] > topo.json
//! skynet demo [--chaos-seed N] [--fault-seed N]   # generate, break, analyze
//! skynet serve --topology topo.json --wal-dir DIR --bind 127.0.0.1:7474
//!              # always-on multi-tenant ingest: TCP/JSON front door + WAL
//! skynet replay --topology topo.json --wal-dir DIR [--from-seq N] [--to-seq N]
//!              # re-ingest a WAL range byte-identically, print the reports
//! skynet flood [--events N] [--submitters K] [--batch B] [--tenants T]
//!              [--fsync always|never|N] [--assert-speedup R]
//!              # load-generate against a local service; compare group-commit
//!              # acked-events/sec to a per-event-fsync baseline
//! ```
//!
//! `--chaos-seed` degrades the *input feed* (tool dropout, duplicate
//! storms, corruption) through the telemetry chaos engine; `--fault-seed`
//! injects faults into the *pipeline stages themselves* and prints the
//! post-incident degradation report. Both are deterministic: the same seed
//! replays the same run byte-for-byte.

use skynet::core::serve::{FsyncPolicy, WalEvent, WalWriter};
use skynet::core::{
    replay_wal, FaultAction, FaultConfig, FaultRule, InjectionSite, ObsConfig, Observability,
    PipelineConfig, ServeConfig, SkyNet,
};
use skynet::model::{AlertKind, DataSource, PingLog, RawAlert, SimDuration, SimTime};
use skynet::topology::{generate, GeneratorConfig, Topology};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  skynet analyze --topology <topo.json> --alerts <flood.jsonl> [--horizon-mins N] [--chaos-seed N]\n  skynet gen-topology [--scale small|medium|large]\n  skynet demo [--chaos-seed N] [--fault-seed N]\n  skynet serve --topology <topo.json> --wal-dir <dir> --bind <addr:port> [--queue-capacity N]\n  skynet replay --topology <topo.json> --wal-dir <dir> [--from-seq N] [--to-seq N] [--horizon-mins N]\n  skynet flood [--events N] [--submitters K] [--batch B] [--tenants T] [--fsync always|never|N] [--assert-speedup R]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("gen-topology") => gen_topology(&args[1..]),
        Some("demo") => demo(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some("flood") => flood(&args[1..]),
        _ => usage(),
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn seed_flag(args: &[String], name: &str) -> Option<u64> {
    flag(args, name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{name} takes a u64 seed"))
    })
}

/// Degrades a recorded feed through the telemetry chaos engine with an
/// explicit seed, reporting what was mutated.
fn apply_chaos(alerts: Vec<RawAlert>, seed: u64) -> Vec<RawAlert> {
    use skynet::telemetry::ChaosEngine;
    let mut engine = ChaosEngine::seeded(seed);
    let degraded = engine.apply(&alerts);
    eprintln!(
        "chaos (seed {seed}): {} -> {} alerts, {:?}",
        alerts.len(),
        degraded.len(),
        engine.stats()
    );
    degraded
}

/// The demo's stage-fault mix: a periodic locate-worker panic (each
/// quarantines the alert in flight; the analysis resumes behind it), a
/// low-probability guard error (exercises the dead-letter queue) and a
/// one-shot SOP skip.
fn demo_faults(seed: u64) -> FaultConfig {
    FaultConfig::seeded(seed)
        .with_rule(FaultRule::every(
            InjectionSite::LocateWorker,
            40,
            FaultAction::Panic,
        ))
        .with_rule(FaultRule::probability(
            InjectionSite::GuardOffer,
            0.02,
            FaultAction::Error,
        ))
        .with_rule(FaultRule::once(
            InjectionSite::SopSelect,
            1,
            FaultAction::Error,
        ))
}

fn scale_config(scale: Option<&str>) -> GeneratorConfig {
    match scale.unwrap_or("small") {
        "small" => GeneratorConfig::small(),
        "medium" => GeneratorConfig::medium(),
        "large" => GeneratorConfig::large(),
        other => {
            eprintln!("unknown scale {other:?}; use small|medium|large");
            std::process::exit(2);
        }
    }
}

fn gen_topology(args: &[String]) {
    let topo = generate(&scale_config(flag(args, "--scale")));
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    serde_json::to_writer(&mut out, &topo).expect("topology serializes");
    let _ = out.write_all(b"\n");
    eprintln!("generated {:?}", topo.summary());
}

fn analyze(args: &[String]) {
    let topo_path = flag(args, "--topology").unwrap_or_else(|| usage());
    let alerts_path = flag(args, "--alerts").unwrap_or_else(|| usage());
    let horizon_mins: u64 = flag(args, "--horizon-mins")
        .map(|v| v.parse().expect("--horizon-mins takes a number"))
        .unwrap_or(60);

    let topo = load_topology(topo_path);

    let alerts_file = std::fs::File::open(alerts_path)
        .unwrap_or_else(|e| panic!("cannot open {alerts_path}: {e}"));
    let mut alerts: Vec<RawAlert> = Vec::new();
    for (n, line) in BufReader::new(alerts_file).lines().enumerate() {
        let line = line.expect("readable input");
        if line.trim().is_empty() {
            continue;
        }
        let alert: RawAlert = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("{alerts_path}:{}: bad alert: {e}", n + 1));
        alerts.push(alert);
    }
    alerts.sort_by_key(|a| a.timestamp);
    eprintln!(
        "loaded {} alerts against {:?}",
        alerts.len(),
        topo.summary()
    );
    if let Some(seed) = seed_flag(args, "--chaos-seed") {
        alerts = apply_chaos(alerts, seed);
    }

    let skynet = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .build();
    let report = skynet.analyze(&alerts, &PingLog::new(), SimTime::from_mins(horizon_mins));
    println!("{}", report.render());
}

/// Loads a topology JSON file into an `Arc<Topology>`.
fn load_topology(path: &str) -> Arc<Topology> {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let topo: Topology = serde_json::from_str(&json).expect("topology parses");
    Arc::new(topo)
}

/// Runs the always-on ingest service: TCP/JSON front door, per-tenant
/// backpressure, WAL-before-ack. Restarting over the same `--wal-dir`
/// warm-restores from the snapshot plus the WAL tail.
fn serve(args: &[String]) {
    let topo = load_topology(flag(args, "--topology").unwrap_or_else(|| usage()));
    let wal_dir = flag(args, "--wal-dir").unwrap_or_else(|| usage());
    let bind = flag(args, "--bind").unwrap_or("127.0.0.1:7474");
    let mut cfg = ServeConfig::new(wal_dir).with_bind(bind);
    if let Some(capacity) = flag(args, "--queue-capacity") {
        cfg = cfg
            .with_tenant_queue_capacity(capacity.parse().expect("--queue-capacity takes a number"));
    }
    let mut pipeline_cfg = PipelineConfig::production();
    if let Some(seed) = seed_flag(args, "--fault-seed") {
        pipeline_cfg = pipeline_cfg.with_faults(demo_faults(seed));
    }
    let service = SkyNet::builder(&topo)
        .config(pipeline_cfg)
        .serve(cfg)
        .unwrap_or_else(|e| panic!("cannot start service: {e}"));
    let addr = service.local_addr().expect("serve binds a TCP address");
    eprintln!("serving on {addr} (WAL at {wal_dir}); ctrl-c to stop");
    loop {
        std::thread::park();
    }
}

/// Re-ingests a WAL range through fresh pipelines and prints each
/// tenant's report — the proof that the WAL is the feed.
fn replay(args: &[String]) {
    let topo = load_topology(flag(args, "--topology").unwrap_or_else(|| usage()));
    let wal_dir = flag(args, "--wal-dir").unwrap_or_else(|| usage());
    let from_seq: u64 = flag(args, "--from-seq")
        .map(|v| v.parse().expect("--from-seq takes a number"))
        .unwrap_or(0);
    let to_seq: Option<u64> =
        flag(args, "--to-seq").map(|v| v.parse().expect("--to-seq takes a number"));
    let horizon_mins: u64 = flag(args, "--horizon-mins")
        .map(|v| v.parse().expect("--horizon-mins takes a number"))
        .unwrap_or(60);
    let skynet = SkyNet::builder(&topo)
        .config(PipelineConfig::production())
        .build();
    let reports = replay_wal(
        &skynet,
        std::path::Path::new(wal_dir),
        from_seq,
        to_seq,
        SimTime::from_mins(horizon_mins),
    )
    .unwrap_or_else(|e| panic!("replay failed: {e}"));
    if reports.is_empty() {
        eprintln!("no WAL records in range under {wal_dir}");
    }
    for (tenant, report) in reports {
        println!("=== tenant {tenant} ===");
        println!("{}", report.render());
    }
}

/// Parses `--fsync always|never|N` (N = fsync every N appends).
fn fsync_flag(args: &[String]) -> FsyncPolicy {
    match flag(args, "--fsync") {
        None | Some("always") => FsyncPolicy::Always,
        Some("never") => FsyncPolicy::Never,
        Some(n) => FsyncPolicy::EveryN(n.parse().expect("--fsync takes always|never|N")),
    }
}

/// A fresh scratch WAL directory for one flood lane.
fn flood_dir(lane: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("skynet-flood-{}-{lane}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small pool of realistic alerts to cycle through: a mix of kinds and
/// sources spread over every device in a generated topology.
fn flood_pool(topo: &Topology) -> Vec<RawAlert> {
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
            let device = &devices[(i as usize * 7) % devices.len()];
            RawAlert::known(
                DataSource::ALL[i as usize % DataSource::ALL.len()],
                SimTime::from_secs(i),
                device.location.clone(),
                kinds[i as usize % kinds.len()],
            )
            .with_magnitude(0.1 + 0.8 * (i % 9) as f64 / 9.0)
        })
        .collect()
}

/// The pre-group-commit durability discipline: one writer behind a mutex,
/// every submitter appending (and fsyncing, under `always`) its own event
/// before moving on. Returns acked events per second.
fn flood_per_append(
    pool: &[RawAlert],
    events: usize,
    submitters: usize,
    fsync: FsyncPolicy,
) -> f64 {
    let dir = flood_dir("per-append");
    let cfg = ServeConfig::new(&dir)
        .with_segment_max_bytes(64 << 20)
        .with_fsync(fsync);
    let obs = Observability::new(&ObsConfig::default());
    let wal = std::sync::Mutex::new(WalWriter::create(&cfg, &obs).expect("writer opens"));
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..submitters {
            let wal = &wal;
            scope.spawn(move || {
                for i in (worker..events).step_by(submitters) {
                    let event = WalEvent::Alert(pool[i % pool.len()].clone());
                    wal.lock()
                        .unwrap()
                        .append("flood", &event)
                        .expect("baseline append");
                }
            });
        }
    });
    let rate = events as f64 / started.elapsed().as_secs_f64();
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    rate
}

/// The group-commit path: a full service, `submitters` concurrent feeders
/// acking through the committer (batched `--batch` events at a time over
/// `--tenants` tenants). Returns acked events per second.
fn flood_group(
    topo: &Arc<Topology>,
    pool: &[RawAlert],
    events: usize,
    submitters: usize,
    batch: usize,
    tenants: usize,
    fsync: FsyncPolicy,
) -> f64 {
    let dir = flood_dir("group");
    let service = SkyNet::builder(topo)
        .config(PipelineConfig::production())
        .serve(
            ServeConfig::new(&dir)
                .with_segment_max_bytes(64 << 20)
                .with_fsync(fsync)
                .with_tenant_queue_capacity(1 << 20),
        )
        .expect("service starts");
    let names: Vec<String> = (0..tenants).map(|t| format!("flood-{t}")).collect();
    for name in &names {
        service.hello(name).expect("tenant admits");
    }
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..submitters {
            let service = &service;
            let tenant = names[worker % names.len()].as_str();
            scope.spawn(move || {
                let mine: Vec<usize> = (worker..events).step_by(submitters).collect();
                for chunk in mine.chunks(batch) {
                    if batch == 1 {
                        let event = WalEvent::Alert(pool[chunk[0] % pool.len()].clone());
                        service.submit(tenant, event).expect("flood ack");
                    } else {
                        let alerts: Vec<RawAlert> = chunk
                            .iter()
                            .map(|&i| pool[i % pool.len()].clone())
                            .collect();
                        let sent = alerts.len();
                        let ack = service.submit_alerts(tenant, alerts).expect("flood acks");
                        assert_eq!(ack.accepted, sent, "no faults armed, nothing rejected");
                    }
                }
            });
        }
    });
    let rate = events as f64 / started.elapsed().as_secs_f64();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    rate
}

/// The `flood` verb's one-line JSON summary.
#[derive(serde::Serialize)]
struct FloodSummary {
    events: usize,
    submitters: usize,
    batch: usize,
    tenants: usize,
    fsync: String,
    per_append_events_per_sec: f64,
    group_commit_events_per_sec: f64,
    speedup: f64,
}

/// Load-generates against an in-process service and prints a one-line JSON
/// comparison of group-commit acked-events/sec against the per-event-fsync
/// baseline. `--assert-speedup R` exits nonzero below R× — the CI smoke
/// that group commit actually amortizes the fsync.
fn flood(args: &[String]) {
    let events: usize = flag(args, "--events")
        .map(|v| v.parse().expect("--events takes a number"))
        .unwrap_or(4000)
        .max(1);
    let submitters: usize = flag(args, "--submitters")
        .map(|v| v.parse().expect("--submitters takes a number"))
        .unwrap_or(8)
        .max(1);
    let batch: usize = flag(args, "--batch")
        .map(|v| v.parse().expect("--batch takes a number"))
        .unwrap_or(1)
        .max(1);
    let tenants: usize = flag(args, "--tenants")
        .map(|v| v.parse().expect("--tenants takes a number"))
        .unwrap_or(1)
        .max(1);
    let fsync = fsync_flag(args);
    let assert_speedup: Option<f64> =
        flag(args, "--assert-speedup").map(|v| v.parse().expect("--assert-speedup takes a ratio"));

    let topo = Arc::new(generate(&GeneratorConfig::small()));
    let pool = flood_pool(&topo);
    eprintln!(
        "flood: {events} events, {submitters} submitters, batch {batch}, {tenants} tenant(s), fsync {fsync:?}"
    );
    let per_append = flood_per_append(&pool, events, submitters, fsync);
    let group = flood_group(&topo, &pool, events, submitters, batch, tenants, fsync);
    let speedup = group / per_append;
    println!(
        "{}",
        serde_json::to_string(&FloodSummary {
            events,
            submitters,
            batch,
            tenants,
            fsync: format!("{fsync:?}"),
            per_append_events_per_sec: per_append,
            group_commit_events_per_sec: group,
            speedup,
        })
        .expect("summary serialises")
    );
    if let Some(min) = assert_speedup {
        if speedup < min {
            eprintln!("flood: speedup {speedup:.2}x is below the required {min:.2}x");
            std::process::exit(1);
        }
    }
}

/// End-to-end demo: generate a network, break a router, print the report.
/// `--chaos-seed` degrades the feed first; `--fault-seed` injects stage
/// faults and prints the degradation report after the incident report.
fn demo(args: &[String]) {
    use skynet::failure::Injector;
    use skynet::telemetry::{TelemetryConfig, TelemetrySuite};

    let topo = Arc::new(generate(&GeneratorConfig::small()));
    let victim = topo
        .devices()
        .iter()
        .find(|d| d.role == skynet::topology::DeviceRole::Csr)
        .expect("generator builds CSRs");
    eprintln!("demo: taking {} down", victim.location);
    let mut injector = Injector::new(Arc::clone(&topo));
    injector.device_down(victim.id, SimTime::from_mins(5), SimDuration::from_mins(8));
    let scenario = injector.finish(SimTime::from_mins(20));
    let run = TelemetrySuite::standard(&topo, TelemetryConfig::default()).run(&scenario);
    eprintln!("demo: {} raw alerts", run.alerts.len());
    let mut alerts = run.alerts;
    if let Some(seed) = seed_flag(args, "--chaos-seed") {
        alerts = apply_chaos(alerts, seed);
    }
    let fault_seed = seed_flag(args, "--fault-seed");
    let mut cfg = PipelineConfig::production();
    if let Some(seed) = fault_seed {
        cfg = cfg.with_faults(demo_faults(seed));
    }
    let skynet = SkyNet::builder(&topo).config(cfg).build();
    let report = skynet.analyze(&alerts, &run.ping, SimTime::from_mins(40));
    println!("{}", report.render());
    if fault_seed.is_some() {
        println!("{}", skynet.degradation_report(&report).render());
    }
}
