//! `flood_batched` — closed loop over TCP: two tenants on two loopback
//! connections, each sending the severe flood as `alerts` batches with
//! ticks in between, one request in flight per connection, then `report`.
//! The same bytes replay every round on one live service (a report starts
//! a fresh tenant incarnation); `snapshot()` between rounds, untimed, lets
//! retention bound the disk.

use super::{
    check_report_json, check_report_line, counter_total, exported, histogram_totals, secs,
    serve_config, wait_drained,
};
use crate::alloc;
use crate::client::{closed_loop, roundtrip, Conn, ConnRound, Kind, Reply, RoundTrace, Script};
use crate::inputs::{self, Common, Feed, Op, TenantFeed, HORIZON, TENANTS};
use crate::report::{LegOpts, LegReport, Turns};
use crate::span::SpanLog;
use crate::stats;
use skynet_core::{Exporter, ServiceHandle};
use skynet_model::ping::PingSample;
use std::time::Instant;

/// What one round measured.
struct Round {
    /// First byte → both reports read.
    wall_s: f64,
    acked_events_per_s: f64,
    flood_to_report_s: Vec<f64>,
    report_s: Vec<f64>,
    batch_ack_ms: Vec<f64>,
    events: u64,
}

pub fn run(opts: &LegOpts) -> Result<LegReport, String> {
    let mut leg = LegReport::new(opts);

    // ---- set-up (untimed) -------------------------------------------------
    let setup = Instant::now();
    let common = Common::build(opts.seed);
    let feeds = common.feeds(Feed::Severe);
    let scripts = [
        inputs::batched_script(&feeds[0]),
        inputs::batched_script(&feeds[1]),
    ];
    let round_events: u64 = scripts.iter().map(Script::events).sum();
    leg.round_events = round_events;
    let dir = opts
        .scratch_dir("wal")
        .map_err(|e| format!("wal dir: {e}"))?;
    let service = common
        .builder(1)
        .serve(serve_config(&dir, round_events, true))
        .map_err(|e| format!("service start: {e}"))?;
    let addr = service.local_addr().ok_or("the service bound no address")?;
    let mut conns = vec![Conn::open(addr, TENANTS[0])?, Conn::open(addr, TENANTS[1])?];
    leg.metric("setup_s", secs(setup.elapsed()), "s");
    for (feed, script) in feeds.iter().zip(&scripts) {
        leg.digest(
            &format!("input.flood_batched.{}", feed.name),
            inputs::script_digest(script),
        );
    }

    // ---- timed rounds -----------------------------------------------------
    let script_refs: Vec<&Script> = scripts.iter().collect();
    let mut log = SpanLog::new();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut backlog: Vec<f64> = Vec::new();
    let mut counted: Option<alloc::Counted> = None;
    let mut first_round_wal_bytes = None;
    let kinds = rounds_of_a_turn(opts.trace);
    let mut turns = Turns::stdio();
    let mut round_no = 0u64;
    while turns.next_round() {
        for &with_spans in kinds {
            let parent = with_spans.then(|| log.open("flood.round", None, round_no));
            let trace = parent.map(|parent| RoundTrace {
                log: &mut log,
                parent,
                round: round_no,
            });
            let mut on_last_ack = |i: usize| {
                if with_spans {
                    if let Ok(health) = service.tenant_health(TENANTS[i]) {
                        backlog.push(health.queued as f64);
                    }
                }
            };
            let play = || closed_loop(&mut conns, &script_refs, trace, &mut on_last_ack);
            // The allocator is armed for one traced round only.
            let (started, seen) = if with_spans && counted.is_none() {
                let (result, c) = alloc::count(play);
                counted = Some(c);
                result?
            } else {
                play()?
            };
            let finished = Instant::now();
            if let Some(parent) = parent {
                log.close(parent);
            }
            let round = account(&mut leg, &scripts, started, finished, seen);
            if round_no == 0 {
                // Both reports are in, so the round's last record (each
                // tenant's report boundary) has been written.
                first_round_wal_bytes =
                    Some(counter_total(&exported(&service), "skynet_wal_bytes_total"));
            }
            if with_spans {
                traced.push(round);
            } else {
                untraced.push(round);
            }
            round_no += 1;
            service
                .snapshot()
                .map_err(|e| format!("snapshot between rounds: {e}"))?;
        }
    }
    if untraced.is_empty() {
        return Err("the run ended before a round was played".to_string());
    }

    // ---- end-to-end metrics (untraced rounds only) -------------------------
    let rounds = &untraced;
    leg.median_of(
        "acked_events_per_s",
        rounds.iter().map(|r| r.acked_events_per_s).collect(),
        "events/s",
    );
    let pooled = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    leg.median_of("flood_to_report_s", pooled(|r| &r.flood_to_report_s), "s");
    leg.median_of("report_s", pooled(|r| &r.report_s), "s");
    leg.latency(
        "ack_p50_ms",
        ("ack_p99_ms", 99.0),
        pooled(|r| &r.batch_ack_ms),
        "ms",
    );
    // Of the first round on the fresh service only, where it is exact:
    // sequence numbers are written in decimal and grow from round to round.
    let first_round_wal_bytes = first_round_wal_bytes.expect("a round was played");
    leg.metric(
        "wal_bytes_per_event",
        first_round_wal_bytes / round_events as f64,
        "bytes",
    );
    let export = exported(&service);
    let wal_bytes = counter_total(&export, "skynet_wal_bytes_total");
    let busy = counter_total(&export, "skynet_tenant_busy_total");
    leg.check(busy == 0.0, || {
        format!("the service answered busy {busy} times")
    });
    leg.note(format!(
        "flood_batched: {} untraced + {} traced rounds of {round_events} events over 2 connections",
        untraced.len(),
        traced.len()
    ));

    // ---- per-layer metrics --------------------------------------------------
    if opts.trace {
        let batch_events: u64 = scripts
            .iter()
            .flat_map(|s| &s.requests)
            .filter(|r| matches!(r.kind, Kind::Batch(_)))
            .map(|r| r.kind.events())
            .sum();
        let traced_rounds = traced.len() as f64;
        let roundtrip_us = log.total_s("tcp.alerts") * 1e6 / (batch_events as f64 * traced_rounds);
        leg.metric("tcp.roundtrip_us_per_event", roundtrip_us, "us");
        let request_bytes: usize = scripts.iter().map(|s| s.blob.len()).sum();
        leg.metric(
            "tcp.bytes_in_per_event",
            request_bytes as f64 / round_events as f64,
            "bytes",
        );
        leg.metric(
            "service.backlog_at_last_ack",
            stats::median(&backlog),
            "count",
        );
        leg.metric("service.busy_total", busy, "count");
        let fsyncs = counter_total(&export, "skynet_wal_fsyncs_total");
        let appends = counter_total(&export, "skynet_wal_appends_total");
        leg.metric("wal.fsyncs_per_1k_events", fsyncs * 1e3 / appends, "count");
        let (frames, commits) = histogram_totals(&export, "skynet_wal_batch_size");
        leg.metric("wal.frames_per_commit_mean", frames / commits, "count");
        leg.metric("wal.bytes_per_event", wal_bytes / appends, "bytes");
        if let Some(c) = counted {
            leg.metric(
                "alloc.per_event_flood",
                c.allocs as f64 / round_events as f64,
                "count",
            );
            leg.metric(
                "alloc.bytes_per_event_flood",
                c.bytes as f64 / round_events as f64,
                "bytes",
            );
        }
        let wall = |set: &[Round]| stats::median(&set.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        leg.metric(
            "trace.overhead_share",
            (wall(&traced) - wall(&untraced)) / wall(&untraced),
            "ratio",
        );
        let submit_us = in_process_pass(&mut leg, &mut log, &service, &feeds[0])?;
        leg.metric("service.submit_batch_us_per_event", submit_us, "us");
        leg.metric("tcp.self_us_per_event", roundtrip_us - submit_us, "us");
        ping_probe(&mut leg, &mut log, &common, &service)?;
        let scrapes: Vec<f64> = (0..20)
            .map(|i| {
                let t = Instant::now();
                let text = log.time("obs.prometheus", None, i, || service.prometheus());
                std::hint::black_box(text);
                secs(t.elapsed()) * 1e3
            })
            .collect();
        leg.metric("obs.prometheus_ms", stats::median(&scrapes), "ms");
        log.write_jsonl(&opts.out_dir.join("trace-flood_batched.jsonl"))
            .map_err(|e| format!("writing the trace: {e}"))?;
    }

    for conn in conns {
        conn.close();
    }
    service.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(leg)
}

/// The rounds one request for a turn plays, by whether spans are recorded.
/// A traced leg follows every untraced round with a traced one, so that the
/// difference between them is the recorder's own cost — and so that even
/// the single turn of a quick run has a traced round for the per-layer
/// numbers.
fn rounds_of_a_turn(trace: bool) -> &'static [bool] {
    if trace {
        &[false, true]
    } else {
        &[false]
    }
}

/// Turns what the connections saw into the round's numbers and failures.
fn account(
    leg: &mut LegReport,
    scripts: &[Script; 2],
    started: Instant,
    finished: Instant,
    seen: Vec<ConnRound>,
) -> Round {
    let mut round = Round {
        wall_s: secs(finished.duration_since(started)),
        acked_events_per_s: 0.0,
        flood_to_report_s: Vec::new(),
        report_s: Vec::new(),
        batch_ack_ms: Vec::new(),
        events: 0,
    };
    let mut last_ack = started;
    for (i, (conn, script)) in seen.into_iter().zip(scripts).enumerate() {
        leg.attempt(script.requests.len() as u64 - conn.busy - conn.errors.len() as u64);
        for _ in 0..conn.busy {
            leg.fail(format!("{}: busy", TENANTS[i]));
        }
        for error in conn.errors {
            leg.fail(format!("{}: {error}", TENANTS[i]));
        }
        leg.check(conn.events_acked == script.events(), || {
            format!(
                "{}: {} events acked of {} sent",
                TENANTS[i],
                conn.events_acked,
                script.events()
            )
        });
        round.events += conn.events_acked;
        round.batch_ack_ms.extend(conn.batch_ack_ms);
        if let Some(at) = conn.last_ack {
            last_ack = last_ack.max(at);
        }
        match (conn.report_sent, conn.report_done, conn.report_line) {
            (Some(sent), Some(done), Some(line)) => {
                round
                    .flood_to_report_s
                    .push(secs(done.duration_since(started)));
                round.report_s.push(secs(done.duration_since(sent)));
                check_report_line(leg, &format!("report.served.{}", TENANTS[i]), &line);
            }
            _ => leg.fail(format!("{}: no report came back", TENANTS[i])),
        }
    }
    round.acked_events_per_s = round.events as f64 / secs(last_ack.duration_since(started));
    round
}

/// Tenant A's round once more, without TCP: `submit_alerts` per batch
/// (timed, per event), `snapshot()` at the half-way point (timed), and
/// `report` once the queue has drained (timed). Returns the submit cost in
/// µs per event.
fn in_process_pass(
    leg: &mut LegReport,
    log: &mut SpanLog,
    service: &ServiceHandle,
    feed: &TenantFeed,
) -> Result<f64, String> {
    const TENANT: &str = "probe-in-process";
    service.hello(TENANT).map_err(|e| format!("hello: {e}"))?;
    let pass = log.open("service.pass", None, 0);
    let half = feed.ops.len() / 2;
    let mut submit_s = 0.0;
    let mut submitted = 0u64;
    for (i, op) in feed.ops.iter().enumerate() {
        if i == half {
            let t = Instant::now();
            let path = service.snapshot().map_err(|e| format!("snapshot: {e}"))?;
            let end = Instant::now();
            log.record("snapshot.save", Some(pass), 0, t, end);
            leg.metric("snapshot.save_ms", secs(end.duration_since(t)) * 1e3, "ms");
            let bytes = std::fs::metadata(&path).map_err(|e| format!("snapshot file: {e}"))?;
            leg.metric("snapshot.bytes", bytes.len() as f64, "bytes");
        }
        match op {
            Op::Batch(range) => {
                let alerts = feed.alerts[range.clone()].to_vec();
                let t = Instant::now();
                let ack = service
                    .submit_alerts(TENANT, alerts)
                    .map_err(|e| format!("submit_alerts: {e}"))?;
                let end = Instant::now();
                log.record("service.submit_batch", Some(pass), i as u64, t, end);
                submit_s += secs(end.duration_since(t));
                submitted += ack.accepted as u64;
                leg.check(ack.accepted == range.len(), || {
                    format!(
                        "in-process batch accepted {} of {}",
                        ack.accepted,
                        range.len()
                    )
                });
            }
            Op::Tick(at) => drop(
                service
                    .submit_tick(TENANT, *at)
                    .map_err(|e| format!("tick: {e}"))?,
            ),
            Op::Ping(s) => drop(
                service
                    .submit_ping(TENANT, s.clone())
                    .map_err(|e| format!("ping: {e}"))?,
            ),
        }
    }
    wait_drained(service, TENANT)?;
    let t = Instant::now();
    let report = service
        .report(TENANT, HORIZON)
        .map_err(|e| format!("report: {e}"))?;
    let end = Instant::now();
    log.record("service.report_drained", Some(pass), 0, t, end);
    log.close(pass);
    leg.metric(
        "service.report_drained_ms",
        secs(end.duration_since(t)) * 1e3,
        "ms",
    );
    let json = serde_json::to_vec(&report).map_err(|e| format!("report json: {e}"))?;
    // Same feed, same engine: the in-process report equals tenant A's.
    check_report_json(leg, &format!("report.served.{}", TENANTS[0]), &json);
    Ok(submit_s * 1e6 / submitted as f64)
}

/// A single `ping` op on a quiet connection, many times over.
fn ping_probe(
    leg: &mut LegReport,
    log: &mut SpanLog,
    common: &Common,
    service: &ServiceHandle,
) -> Result<(), String> {
    let addr = service.local_addr().ok_or("the service bound no address")?;
    let mut conn = Conn::open(addr, "probe-ping")?;
    let clusters = common.topo.clusters();
    let mut took_us = Vec::new();
    for i in 0..200u64 {
        let sample = PingSample {
            t: skynet_model::SimTime::from_secs(i),
            src: clusters[0].clone(),
            dst: clusters[1 + (i as usize % (clusters.len() - 1))].clone(),
            loss: 0.25,
        };
        let line = inputs::ping_line(&sample);
        let start = Instant::now();
        let (took, reply) = roundtrip(&mut conn, &line)?;
        log.record("tcp.ping", None, i, start, start + took);
        leg.check(matches!(reply, Reply::Ack { .. }), || {
            format!("ping answered {reply:?}")
        });
        took_us.push(took.as_secs_f64() * 1e6);
    }
    leg.metric("tcp.ping_roundtrip_us", stats::median(&took_us), "us");
    conn.close();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_turn_of_a_traced_leg_has_a_traced_round_and_an_untraced_one() {
        assert_eq!(rounds_of_a_turn(true), [false, true]);
        // End-to-end numbers come from rounds without the recorder.
        assert_eq!(rounds_of_a_turn(false), [false]);
    }
}
