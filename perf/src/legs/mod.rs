//! The four workloads. Each runs in a process of its own (so `peak_rss_mb`
//! is per workload) and returns a [`LegReport`].

pub mod analyze;
pub mod flood;
pub mod paced;
pub mod restart;

use crate::report::{LegOpts, LegReport};
use skynet_core::{AnalysisReport, Exporter, ServeConfig, ServiceHandle};
use std::path::Path;
use std::time::{Duration, Instant};

pub fn run(opts: &LegOpts) -> Result<LegReport, String> {
    let mut report = match opts.workload.as_str() {
        "flood_batched" => flood::run(opts),
        "paced_single" => paced::run(opts),
        "batch_analyze" => analyze::run(opts),
        "restart_replay" => restart::run(opts),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    report.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    report.close();
    Ok(report)
}

/// The served workloads' configuration: `ServeConfig` defaults — fsync
/// `EveryN(64)` in particular — except the loopback bind and a tenant
/// queue deeper than one round, so a front door that acks faster than the
/// engine applies shows as a longer report, never as `busy`.
fn serve_config(dir: &Path, round_events: u64, bind: bool) -> ServeConfig {
    let cfg = ServeConfig::new(dir).with_tenant_queue_capacity(round_events as usize + 1024);
    if bind {
        cfg.with_bind("127.0.0.1:0")
    } else {
        cfg
    }
}

/// One report, as the bytes the program serialised: it must name at least
/// one incident and equal every other report seen under `name`
/// ([`LegReport::report`]).
fn check_report_json(leg: &mut LegReport, name: &str, json: &[u8]) {
    leg.report(name, json, || {
        serde_json::from_slice::<AnalysisReport>(json)
            .map(|report| report.incidents.len())
            .map_err(|e| e.to_string())
    });
}

/// The same for a `{"res":"report","report":{...}}` reply line.
fn check_report_line(leg: &mut LegReport, name: &str, line: &[u8]) {
    let inner = line
        .strip_prefix(b"{\"res\":\"report\",\"report\":")
        .and_then(|rest| rest.strip_suffix(b"}"));
    match inner {
        Some(json) => check_report_json(leg, name, json),
        None => leg.fail(format!("{name}: malformed report reply")),
    }
}

/// Sum of a labelled counter family over all its series, read the way an
/// operator would: from the JSON exporter.
fn exported(service: &ServiceHandle) -> serde_json::Value {
    serde_json::from_str(&service.json()).expect("the JSON exporter writes JSON")
}

fn family<'a>(
    export: &'a serde_json::Value,
    name: &'a str,
) -> impl Iterator<Item = &'a serde_json::Value> {
    export["metrics"]
        .as_array()
        .into_iter()
        .flatten()
        .filter(move |m| m["name"].as_str() == Some(name))
}

fn counter_total(export: &serde_json::Value, name: &str) -> f64 {
    family(export, name)
        .filter_map(|m| m["value"].as_f64())
        .sum()
}

/// A histogram family's `(sum, count)`.
fn histogram_totals(export: &serde_json::Value, name: &str) -> (f64, f64) {
    family(export, name).fold((0.0, 0.0), |(sum, count), m| {
        (
            sum + m["sum"].as_f64().unwrap_or(0.0),
            count + m["count"].as_f64().unwrap_or(0.0),
        )
    })
}

/// Waits until a tenant's queue is empty: everything acked is applied.
fn wait_drained(service: &ServiceHandle, tenant: &str) -> Result<(), String> {
    let started = Instant::now();
    loop {
        let health = service
            .tenant_health(tenant)
            .map_err(|e| format!("health of {tenant}: {e}"))?;
        if health.queued == 0 {
            return Ok(());
        }
        if started.elapsed() > Duration::from_secs(60) {
            return Err(format!("{tenant} never drained ({} queued)", health.queued));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}
