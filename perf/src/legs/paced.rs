//! `paced_single` — open loop over TCP: the same two tenants and
//! connections, one `alert` per request at a fixed total rate from the
//! normal-condition feed (light noise, one minor device failure, high
//! compression — the engine idles). Latency is timed from when a request
//! was *due*; how late the generator ran is reported, and a round whose
//! lateness p99 exceeds [`MAX_LATENESS_US`] is rejected: it measured the
//! generator (or a stall of the sandbox), not the service. A run without
//! one valid round is invalid ([`LegReport::invalid`]): it reports what the
//! rejected rounds measured and says so. It is not a failed operation — the
//! acks and reports were checked and correct, the host was too slow to pace
//! the load.
//!
//! One pass over the 25-minute window is about 7,000 requests, closed by
//! `report` on both connections; passes repeat on the live service like the
//! flood's rounds. A pass is played in rounds of one second ([`ROUND`]
//! requests), so that this workload's turns are as short as the others'
//! and every workload's rounds stay spread over the whole run. The round is
//! also what lateness is judged on: when the host stalls the generator for
//! a while, some seconds of a pass are usually still clean, and a run keeps
//! those.

use super::{check_report_line, counter_total, exported, secs, serve_config};
use crate::client::{open_loop, roundtrip, Conn, Reply, RoundTrace, Script};
use crate::inputs::{self, Common, Feed, HORIZON, TENANTS};
use crate::report::{LegOpts, LegReport, Turns};
use crate::span::SpanLog;
use crate::stats;
use skynet_core::ServiceHandle;
use skynet_model::SimTime;
use std::time::{Duration, Instant};

/// Requests per second over both connections.
pub const RATE: f64 = 2000.0;
/// A generator later than this at its own p99 measured itself, not the
/// service.
pub const MAX_LATENESS_US: f64 = 1000.0;
/// Requests in a round: one second at [`RATE`], so that the lateness p99
/// has twenty samples beyond it.
const ROUND: usize = 2000;
/// Rounds played past the end of a run that has no valid round yet.
const MAX_EXTRA_ROUNDS: u64 = 8;

/// Whether to play another round: as long as the run grants turns; past
/// its end until one pass is complete, because only a whole pass ends in
/// reports to check; and while no round has been valid yet, within reason —
/// a stall of the sandbox should not cost the run.
fn another_round(granted: bool, valid_rounds: u64, extra_rounds: u64, passes: u64) -> bool {
    granted || passes == 0 || (valid_rounds == 0 && extra_rounds < MAX_EXTRA_ROUNDS)
}

/// What rounds measured: of the valid ones, or of the rejected ones.
#[derive(Default)]
struct Samples {
    ack_ms: Vec<f64>,
    lateness_us: Vec<f64>,
    achieved_rate: Vec<f64>,
}

pub fn run(opts: &LegOpts) -> Result<LegReport, String> {
    let mut leg = LegReport::new(opts);

    // ---- set-up (untimed) -------------------------------------------------
    let setup = Instant::now();
    let common = Common::build(opts.seed);
    let feeds = common.feeds(Feed::Normal);
    let scripts = [
        inputs::single_script(&feeds[0]),
        inputs::single_script(&feeds[1]),
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
    // The tenants take turns; when one runs out of alerts the other keeps
    // its own slots, so the total rate never exceeds `RATE`.
    let alerts = [feeds[0].alerts.len(), feeds[1].alerts.len()];
    let order: Vec<(usize, usize)> = (0..alerts[0].max(alerts[1]))
        .flat_map(|r| [(0, r), (1, r)])
        .filter(|&(c, r)| r < alerts[c])
        .collect();
    leg.metric("setup_s", secs(setup.elapsed()), "s");
    for (feed, script) in feeds.iter().zip(&scripts) {
        leg.digest(
            &format!("input.paced_single.{}", feed.name),
            inputs::script_digest(script),
        );
    }

    // ---- timed rounds -----------------------------------------------------
    let script_refs: Vec<&Script> = scripts.iter().collect();
    let mut log = SpanLog::new();
    let Samples {
        mut ack_ms,
        mut lateness_us,
        mut achieved_rate,
    } = Samples::default();
    let mut rejected = Samples::default();
    let mut turns = Turns::stdio();
    let (mut round_no, mut valid_rounds, mut extra_rounds, mut passes) = (0u64, 0u64, 0u64, 0u64);
    // Where in the pass the next round starts, and the seq each
    // connection's next ack must carry.
    let mut at = 0;
    let mut next_seq = [0u64; 2];
    // The single turn of a quick run plays a whole pass, reports included.
    let round_len = if opts.quick { order.len() } else { ROUND };
    loop {
        let granted = turns.next_round();
        if !another_round(granted, valid_rounds, extra_rounds, passes) {
            break;
        }
        extra_rounds += u64::from(!granted);
        let round = &order[at..(at + round_len).min(order.len())];
        let parent = opts.trace.then(|| log.open("paced.round", None, round_no));
        let trace = parent.map(|parent| RoundTrace {
            log: &mut log,
            parent,
            round: round_no,
        });
        let run = open_loop(&mut conns, &script_refs, round, RATE, &mut next_seq, trace)?;
        leg.attempt(round.len() as u64 - run.busy - run.errors.len() as u64);
        for _ in 0..run.busy {
            leg.fail("busy".to_string());
        }
        for error in run.errors {
            leg.fail(error);
        }
        leg.check(run.acked == round.len() as u64, || {
            format!("{} alerts acked of {} sent", run.acked, round.len())
        });
        let late = stats::percentile(&stats::sorted(run.lateness_us.clone()), 99.0);
        if late <= MAX_LATENESS_US {
            valid_rounds += 1;
            achieved_rate.push(run.acked as f64 / secs(run.wall));
            ack_ms.extend(run.ack_ms);
            lateness_us.extend(run.lateness_us);
        } else {
            leg.note(format!(
                "paced_single: round {round_no} rejected, generator lateness p99 {late:.0} us"
            ));
            rejected.ack_ms.extend(run.ack_ms);
            rejected.lateness_us.extend(run.lateness_us);
            rejected
                .achieved_rate
                .push(run.acked as f64 / secs(run.wall));
        }
        if let Some(parent) = parent {
            log.close(parent);
        }
        round_no += 1;
        at += round.len();
        if at < order.len() {
            continue;
        }
        // The pass is complete: both tenants report (and start afresh).
        for (i, conn) in conns.iter_mut().enumerate() {
            let request = scripts[i].requests.last().expect("scripts end in a report");
            let (_, reply) = roundtrip(conn, &scripts[i].blob[request.bytes.clone()])?;
            match reply {
                Reply::Report(line) => {
                    check_report_line(&mut leg, &format!("report.paced.{}", TENANTS[i]), &line);
                }
                other => leg.fail(format!("report answered {other:?}")),
            }
        }
        passes += 1;
        at = 0;
        // The report's boundary record took a seq of its own.
        next_seq = [0; 2];
        service
            .snapshot()
            .map_err(|e| format!("snapshot between passes: {e}"))?;
    }

    // ---- end-to-end metrics (valid rounds only) -----------------------------
    if valid_rounds == 0 {
        // An invalid run still says what it measured, so that its output
        // is whole.
        leg.invalidate(format!(
            "generator lateness p99 above {MAX_LATENESS_US} us in every one of {round_no} rounds: \
             ack_p50_ms and ack_p99_ms are from rejected rounds"
        ));
        Samples {
            ack_ms,
            lateness_us,
            achieved_rate,
        } = rejected;
    }
    leg.latency("ack_p50_ms", ("ack_p99_ms", 99.0), ack_ms, "ms");
    let export = exported(&service);
    let busy = counter_total(&export, "skynet_tenant_busy_total");
    leg.check(busy == 0.0, || {
        format!("the service answered busy {busy} times")
    });
    let late = stats::sorted(lateness_us);
    leg.note(format!(
        "paced_single: {valid_rounds} valid of {round_no} rounds of up to {round_len} requests, {passes} \
         whole pass(es) of {}, at {RATE} requests/s (achieved {:.1}/s); generator lateness \
         p50 {:.0} us, p99 {:.0} us, max {:.0} us",
        order.len(),
        stats::median(&achieved_rate),
        stats::percentile(&late, 50.0),
        stats::percentile(&late, 99.0),
        late.last().copied().unwrap_or(0.0),
    ));

    // ---- per-layer metrics --------------------------------------------------
    if opts.trace {
        leg.metric(
            "paced.lateness_p99_us",
            stats::percentile(&late, 99.0),
            "us",
        );
        leg.metric(
            "paced.rounds_rejected",
            (round_no - valid_rounds) as f64,
            "count",
        );
        leg.metric("service.busy_total", busy, "count");
        idle_probe(&mut leg, &mut log, &service, opts)?;
        single_submits(&mut leg, &mut log, &service, &feeds[0].alerts)?;
        log.write_jsonl(&opts.out_dir.join("trace-paced_single.jsonl"))
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

/// A single `tick` after 5 ms of silence: what an ack costs when nothing
/// is batched with it and the poll loop was asleep.
fn idle_probe(
    leg: &mut LegReport,
    log: &mut SpanLog,
    service: &ServiceHandle,
    opts: &LegOpts,
) -> Result<(), String> {
    let addr = service.local_addr().ok_or("the service bound no address")?;
    let mut conn = Conn::open(addr, "probe-idle")?;
    let samples = if opts.quick { 100 } else { 1000 };
    let mut took_us = Vec::with_capacity(samples);
    for i in 0..samples as u64 {
        std::thread::sleep(Duration::from_millis(5));
        let line = inputs::tick_line(SimTime::from_secs(i));
        let start = Instant::now();
        let (took, reply) = roundtrip(&mut conn, &line)?;
        log.record("tcp.idle_tick", None, i, start, start + took);
        leg.check(matches!(reply, Reply::Ack { .. }), || {
            format!("idle tick answered {reply:?}")
        });
        took_us.push(took.as_secs_f64() * 1e6);
    }
    leg.metric("tcp.idle_ack_p50_us", stats::median(&took_us), "us");
    conn.close();
    Ok(())
}

/// `ServiceHandle::submit_alert`, one alert at a time, without TCP.
fn single_submits(
    leg: &mut LegReport,
    log: &mut SpanLog,
    service: &ServiceHandle,
    alerts: &[skynet_model::RawAlert],
) -> Result<(), String> {
    const TENANT: &str = "probe-in-process";
    service.hello(TENANT).map_err(|e| format!("hello: {e}"))?;
    let mut took_us = Vec::with_capacity(alerts.len());
    for (i, alert) in alerts.iter().enumerate() {
        let alert = alert.clone();
        let start = Instant::now();
        service
            .submit_alert(TENANT, alert)
            .map_err(|e| format!("submit_alert: {e}"))?;
        let end = Instant::now();
        log.record("service.submit_single", None, i as u64, start, end);
        took_us.push(secs(end.duration_since(start)) * 1e6);
    }
    leg.attempt(alerts.len() as u64);
    leg.metric("service.submit_single_us", stats::median(&took_us), "us");
    service
        .report(TENANT, HORIZON)
        .map_err(|e| format!("report: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_follow_the_turns_and_only_an_unfinished_or_invalid_run_plays_on() {
        // Granted turns are played however many rounds there have been: a
        // long run is not cut off at the retry limit.
        assert!(another_round(true, 20, 0, 5));
        assert!(another_round(true, 0, MAX_EXTRA_ROUNDS, 2));
        // Told to end with a valid round and a whole pass: done.
        assert!(!another_round(false, 1, 0, 1));
        // Told to end in the middle of the first pass: play it out, so
        // that there are reports to check.
        assert!(another_round(false, 3, 2, 0));
        // Told to end without a valid round: try again, but not for ever.
        assert!(another_round(false, 0, 0, 1));
        assert!(another_round(false, 0, MAX_EXTRA_ROUNDS - 1, 1));
        assert!(!another_round(false, 0, MAX_EXTRA_ROUNDS, 1));
    }
}
