//! `restart_replay` — the same layers, read side. Set-up writes one flood
//! round per tenant through in-process `submit_alerts`, takes `snapshot()`
//! at the half-way point and shuts down without reporting. Timed: `serve()`
//! over a copy of that directory until it returns (snapshot load, WAL scan,
//! tail replay through the engine), then `report` for both tenants.
//!
//! WAL decode beside the flood's encode, engine apply without queue, commit
//! or TCP: a cheaper append format that makes replay dearer shows here and
//! nowhere else.

use super::{check_report_json, secs, serve_config, wait_drained};
use crate::inputs::{Common, Feed, Op, TenantFeed, HORIZON, TENANTS};
use crate::report::{LegOpts, LegReport, Turns};
use crate::span::SpanLog;
use crate::stats;
use skynet_core::serve::{snapshot, FsyncPolicy, WalEvent, WalReader, WalWriter};
use skynet_core::{
    IngestGuard, Locator, Observability, PipelineConfig, Preprocessor, ServeConfig, ServiceHandle,
};
use std::path::Path;
use std::time::Instant;

/// Feeds `ops[range]` of one tenant's round through the library face of
/// the front door. Returns the events accepted.
fn feed_ops(
    service: &ServiceHandle,
    feed: &TenantFeed,
    range: std::ops::Range<usize>,
) -> Result<u64, String> {
    let mut events = 0;
    for op in &feed.ops[range] {
        match op {
            Op::Batch(alerts) => {
                let ack = service
                    .submit_alerts(feed.name, feed.alerts[alerts.clone()].to_vec())
                    .map_err(|e| format!("submit_alerts: {e}"))?;
                if ack.accepted != alerts.len() {
                    return Err(format!(
                        "batch accepted {} of {}",
                        ack.accepted,
                        alerts.len()
                    ));
                }
                events += ack.accepted as u64;
            }
            Op::Tick(at) => {
                service
                    .submit_tick(feed.name, *at)
                    .map_err(|e| format!("tick: {e}"))?;
                events += 1;
            }
            Op::Ping(sample) => {
                service
                    .submit_ping(feed.name, sample.clone())
                    .map_err(|e| format!("ping: {e}"))?;
                events += 1;
            }
        }
    }
    Ok(events)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let copy = || -> std::io::Result<()> {
        if to.exists() {
            std::fs::remove_dir_all(to)?;
        }
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
        Ok(())
    };
    copy().map_err(|e| format!("copying {} to {}: {e}", from.display(), to.display()))
}

pub fn run(opts: &LegOpts) -> Result<LegReport, String> {
    let mut leg = LegReport::new(opts);

    // ---- set-up (untimed) -------------------------------------------------
    let setup = Instant::now();
    let common = Common::build(opts.seed);
    let feeds = common.feeds(Feed::Severe);
    let round_events: u64 = feeds.iter().map(TenantFeed::events).sum();
    leg.round_events = round_events;
    let start_service = |dir: &Path| {
        common
            .builder(1)
            .serve(serve_config(dir, round_events, false))
            .map_err(|e| format!("service start: {e}"))
    };

    // The uninterrupted run the restarted reports must equal.
    let reference_dir = opts
        .scratch_dir("reference")
        .map_err(|e| format!("dir: {e}"))?;
    let reference = start_service(&reference_dir)?;
    for feed in &feeds {
        reference
            .hello(feed.name)
            .map_err(|e| format!("hello: {e}"))?;
        feed_ops(&reference, feed, 0..feed.ops.len())?;
        let report = reference
            .report(feed.name, HORIZON)
            .map_err(|e| format!("report: {e}"))?;
        let json = serde_json::to_vec(&report).map_err(|e| format!("report json: {e}"))?;
        check_report_json(&mut leg, &format!("report.served.{}", feed.name), &json);
    }
    reference.shutdown();
    drop(reference);
    let _ = std::fs::remove_dir_all(&reference_dir);

    // The directory a restart finds: a snapshot from the half-way point and
    // the whole round on the WAL, nothing reported.
    let warm_dir = opts.scratch_dir("warm").map_err(|e| format!("dir: {e}"))?;
    let writer = start_service(&warm_dir)?;
    let mut written = 0;
    for feed in &feeds {
        writer.hello(feed.name).map_err(|e| format!("hello: {e}"))?;
        written += feed_ops(&writer, feed, 0..feed.ops.len() / 2)?;
    }
    for feed in &feeds {
        wait_drained(&writer, feed.name)?;
    }
    writer.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    for feed in &feeds {
        written += feed_ops(&writer, feed, feed.ops.len() / 2..feed.ops.len())?;
    }
    leg.check(written == round_events, || {
        format!("set-up wrote {written} events of {round_events}")
    });
    writer.shutdown();
    drop(writer);
    let work_dir = opts.scratch_dir("work").map_err(|e| format!("dir: {e}"))?;
    leg.metric("setup_s", secs(setup.elapsed()), "s");

    // ---- timed repetitions --------------------------------------------------
    let mut restart_s = Vec::new();
    let mut report_s = Vec::new();
    let mut turns = Turns::stdio();
    while turns.next_round() {
        copy_dir(&warm_dir, &work_dir)?;
        let start = Instant::now();
        let service = start_service(&work_dir)?;
        restart_s.push(secs(start.elapsed()));
        leg.attempt(1);
        for feed in &feeds {
            let start = Instant::now();
            let report = service
                .report(feed.name, HORIZON)
                .map_err(|e| format!("report after restart: {e}"))?;
            report_s.push(secs(start.elapsed()));
            let json = serde_json::to_vec(&report).map_err(|e| format!("report json: {e}"))?;
            // The same name as the uninterrupted run's: they must be equal.
            check_report_json(&mut leg, &format!("report.served.{}", feed.name), &json);
        }
        service.shutdown();
    }
    if restart_s.is_empty() {
        return Err("the run ended before a restart was made".to_string());
    }
    leg.note(format!(
        "restart_replay: {} restarts over {round_events} logged events (snapshot at the half-way \
         point)",
        restart_s.len()
    ));
    leg.median_of("restart_s", restart_s, "s");
    leg.median_of("report_s", report_s, "s");

    // ---- per-layer metrics --------------------------------------------------
    if opts.trace {
        let mut log = SpanLog::new();
        read_side(&mut leg, &mut log, &common, &warm_dir)?;
        append_cost(&mut leg, &mut log, opts, &feeds[0])?;
        // `report` on a restarted tenant whose queue is empty: finishing,
        // ranking and serialising once the backlog is gone.
        copy_dir(&warm_dir, &work_dir)?;
        let service = start_service(&work_dir)?;
        wait_drained(&service, TENANTS[0])?;
        let start = Instant::now();
        service
            .report(TENANTS[0], HORIZON)
            .map_err(|e| format!("report: {e}"))?;
        let end = Instant::now();
        log.record("service.report_drained", None, 0, start, end);
        leg.attempt(1);
        leg.metric(
            "service.report_drained_ms",
            secs(end.duration_since(start)) * 1e3,
            "ms",
        );
        service.shutdown();
        log.write_jsonl(&opts.out_dir.join("trace-restart_replay.jsonl"))
            .map_err(|e| format!("writing the trace: {e}"))?;
    }

    let _ = std::fs::remove_dir_all(&warm_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    Ok(leg)
}

/// What a restart reads: `WalReader::scan`, `snapshot::load`, and the cost
/// of `Locator::snapshot_state` on a locator loaded with the flood.
fn read_side(
    leg: &mut LegReport,
    log: &mut SpanLog,
    common: &Common,
    warm_dir: &Path,
) -> Result<(), String> {
    let mut scan_us = Vec::new();
    let mut load_ms = Vec::new();
    let mut records = Vec::new();
    for rep in 0..5 {
        let start = Instant::now();
        records = WalReader::scan(warm_dir).map_err(|e| format!("scan: {e}"))?;
        let end = Instant::now();
        log.record("wal.scan", None, rep, start, end);
        leg.check(!records.is_empty(), || {
            "the WAL scan found no record".to_string()
        });
        scan_us.push(secs(end.duration_since(start)) * 1e6 / records.len().max(1) as f64);
        let start = Instant::now();
        let snap = snapshot::load(warm_dir).map_err(|e| format!("snapshot load: {e}"))?;
        let end = Instant::now();
        log.record("snapshot.load", None, rep, start, end);
        load_ms.push(secs(end.duration_since(start)) * 1e3);
        leg.check(snap.is_some(), || {
            "the warm directory has no snapshot".to_string()
        });
    }
    leg.metric("wal.scan_us_per_event", stats::median(&scan_us), "us");
    leg.metric("snapshot.load_ms", stats::median(&load_ms), "ms");

    // A locator holding tenant A's whole flood, as a snapshot would find it.
    let cfg = PipelineConfig::production();
    let mut guard = IngestGuard::new(&common.topo, cfg.streaming.guard.clone());
    let mut preprocessor =
        Preprocessor::new(cfg.preprocessor.clone(), Some(common.classifier.clone()));
    let mut locator = Locator::new(&common.topo, cfg.locator.clone());
    let mut released = Vec::new();
    let mut structured = Vec::new();
    for record in records.iter().filter(|r| r.tenant == TENANTS[0]) {
        if let WalEvent::Alert(raw) = &record.event {
            let _ = guard.offer(raw.clone(), &mut released);
        }
    }
    guard.flush(&mut released);
    for raw in &released {
        preprocessor.push(raw, &mut structured);
    }
    for alert in &structured {
        locator.insert(alert);
    }
    let mut state_ms = Vec::new();
    for rep in 0..5 {
        let start = Instant::now();
        let state = locator.snapshot_state();
        let end = Instant::now();
        std::hint::black_box(state);
        log.record("locator.snapshot_state", None, rep, start, end);
        state_ms.push(secs(end.duration_since(start)) * 1e3);
    }
    leg.metric("locator.snapshot_state_ms", stats::median(&state_ms), "ms");
    Ok(())
}

/// `WalWriter::create` + `append` × N + `sync` under `Never` and under
/// `Always`; the difference is what this disk's fsync costs.
fn append_cost(
    leg: &mut LegReport,
    log: &mut SpanLog,
    opts: &LegOpts,
    feed: &TenantFeed,
) -> Result<(), String> {
    let cases = [
        (
            "wal.append_never_us",
            "wal.append_never",
            FsyncPolicy::Never,
            20_000,
        ),
        // One fsync per append: fewer appends say the same thing sooner.
        (
            "wal.append_always_us",
            "wal.append_always",
            FsyncPolicy::Always,
            2_000,
        ),
    ];
    for (metric, span, policy, appends) in cases {
        let appends = if opts.quick { appends / 10 } else { appends };
        let dir = opts.scratch_dir(span).map_err(|e| format!("dir: {e}"))?;
        let cfg = ServeConfig::new(&dir)
            .with_fsync(policy)
            .with_segment_max_bytes(64 << 20);
        let obs = Observability::new(&PipelineConfig::production().obs);
        let events: Vec<WalEvent> = feed
            .alerts
            .iter()
            .cycle()
            .take(appends)
            .cloned()
            .map(WalEvent::Alert)
            .collect();
        let start = Instant::now();
        let mut writer = WalWriter::create(&cfg, &obs).map_err(|e| format!("writer: {e}"))?;
        for event in &events {
            writer
                .append(feed.name, event)
                .map_err(|e| format!("append: {e}"))?;
        }
        writer.sync().map_err(|e| format!("sync: {e}"))?;
        let end = Instant::now();
        log.record(span, None, 0, start, end);
        leg.attempt(appends as u64);
        leg.metric(
            metric,
            secs(end.duration_since(start)) * 1e6 / appends as f64,
            "us",
        );
        drop(writer);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}
