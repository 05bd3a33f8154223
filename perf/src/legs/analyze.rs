//! `batch_analyze` — no service: `SkyNet::analyze_owned` over tenant A's
//! flood, alternating `shards = 1` and `shards = 2`. The serve layer does
//! nothing here, so a serve-layer change predicts "no move"; guard,
//! preprocess, locator and evaluator do all of it.
//!
//! The traced run repeats the analysis stage by stage from this file,
//! calling each layer's public functions in `analyze_owned`'s order, with a
//! span around each; the staged report must equal the program's own
//! (`LegReport::report`), and the stage spans must sum to the untraced time.

use super::{check_report_json, secs};
use crate::alloc;
use crate::inputs::{self, Common, Feed, TenantFeed, HORIZON};
use crate::report::{LegOpts, LegReport, Turns};
use crate::span::SpanLog;
use crate::stats;
use skynet_core::internals::ShardRouter;
use skynet_core::obs::Stage;
use skynet_core::{
    AnalysisReport, Evaluator, Incident, IngestGuard, Locator, Observability, PipelineConfig,
    Preprocessor, SopEngine,
};
use skynet_ftree::MatchScratch;
use skynet_model::{AlertBody, IncidentId, LocationPath, RawAlert, StructuredAlert};
use std::time::Instant;

/// The stage sum may miss the untraced time by this much either way
/// before the traced run calls itself invalid.
const STAGE_SUM_TOLERANCE: f64 = 0.15;

pub fn run(opts: &LegOpts) -> Result<LegReport, String> {
    let mut leg = LegReport::new(opts);

    // ---- set-up (untimed) -------------------------------------------------
    let setup = Instant::now();
    let common = Common::build(opts.seed);
    let feed = common.tenant_feed(Feed::Severe, 0);
    let engines = [common.builder(1).build(), common.builder(2).build()];
    leg.metric("setup_s", secs(setup.elapsed()), "s");
    leg.digest("input.batch_analyze.tenant-a", inputs::feed_digest(&feed));

    // ---- timed repetitions --------------------------------------------------
    // Alternating repetitions; the clone is outside the clock. A traced leg
    // follows each pair with the staged analysis, so that the stage spans
    // are compared with an `analyze_s` taken at the same moment:
    // the host's speed drifts by a fifth between one block of seconds and
    // the next.
    let mut took: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut log = SpanLog::new();
    let cfg = PipelineConfig::production();
    let mut stage_shares = Vec::new();
    let mut last = None;
    let mut turns = Turns::stdio();
    while turns.next_round() {
        for (engine, took) in engines.iter().zip(&mut took) {
            let alerts = feed.alerts.clone();
            let start = Instant::now();
            let report = engine.analyze_owned(alerts, &feed.ping, HORIZON);
            took.push(secs(start.elapsed()));
            let json = serde_json::to_vec(&report).map_err(|e| format!("report json: {e}"))?;
            // One name for both shard counts: the reports must be equal.
            check_report_json(&mut leg, "report.batch.tenant-a", &json);
        }
        if opts.trace {
            let rep = stage_shares.len() as u64;
            let staged = staged_analysis(&common, &cfg, &feed, &mut log, rep);
            let json = serde_json::to_vec(&staged.report).map_err(|e| format!("json: {e}"))?;
            check_report_json(&mut leg, "report.batch.tenant-a", &json);
            let single = took[0].last().expect("the pair above just ran");
            stage_shares.push(staged.stage_sum_s / single);
            last = Some(staged);
        }
    }
    let [single, sharded] = took;
    let repetitions = single.len();
    if repetitions == 0 {
        return Err("the run ended before a repetition was made".to_string());
    }
    leg.median_of("analyze_s", single, "s");
    leg.median_of("analyze_sharded_s", sharded, "s");
    leg.note(format!(
        "batch_analyze: {} repetitions each at shards 1 and 2 over {} raw alerts \
         ({} worker threads available)",
        repetitions,
        feed.alerts.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));

    // ---- per-layer metrics --------------------------------------------------
    if opts.trace {
        let reps = stage_shares.len();
        let staged = last.expect("at least one staged repetition");
        let per = |name: &str, n: f64, scale: f64| log.total_s(name) * scale / (n * reps as f64);
        let raw = feed.alerts.len() as f64;
        leg.metric("guard.us_per_event", per("guard", raw, 1e6), "us");
        leg.metric(
            "guard.released_share",
            staged.released as f64 / raw,
            "ratio",
        );
        leg.metric(
            "guard.rejected_total",
            staged.report.ingest.rejected() as f64,
            "count",
        );
        leg.metric(
            "preprocess.us_per_event",
            per("preprocess", staged.released as f64, 1e6),
            "us",
        );
        let pre = &staged.report.preprocess;
        leg.metric(
            "preprocess.compression",
            pre.raw as f64 / pre.emitted as f64,
            "ratio",
        );
        leg.metric(
            "locator.insert_us_per_alert",
            per("locator.insert", staged.routed.len() as f64, 1e6),
            "us",
        );
        leg.metric("locator.advance_ms", per("locator.advance", 1.0, 1e3), "ms");
        leg.metric("locator.finish_ms", per("locator.finish", 1.0, 1e3), "ms");
        leg.metric(
            "locator.incidents_total",
            staged.report.incidents.len() as f64,
            "count",
        );
        leg.metric("evaluator.rank_ms", per("evaluator.rank", 1.0, 1e3), "ms");
        leg.metric(
            "evaluator.matrix_builds",
            staged.matrix_builds as f64,
            "count",
        );
        leg.metric("evaluator.matrix_hits", staged.matrix_hits as f64, "count");
        leg.metric("sop.match_ms", per("sop.match", 1.0, 1e3), "ms");
        leg.metric("report.json_ms", per("report.json", 1.0, 1e3), "ms");
        leg.metric("report.json_bytes", staged.json_bytes as f64, "bytes");
        leg.metric("report.render_ms", per("report.render", 1.0, 1e3), "ms");
        leg.metric(
            "shard.route_ns_per_alert",
            per("shard.route", staged.routed.len() as f64, 1e9),
            "ns",
        );
        shard_skew(&mut leg, &common, &staged.routed);
        classify(&mut leg, &mut log, &common, &feed);

        let ratio = stats::median(&stage_shares);
        leg.metric("trace.stage_sum_over_analyze", ratio, "ratio");
        // A bound on a ratio of two times: off under `--quick`, whose single
        // repetition reads whatever the host did in that half second.
        if !opts.quick && (ratio - 1.0).abs() > STAGE_SUM_TOLERANCE {
            leg.invalidate(format!(
                "stage spans sum to {ratio:.3} of analyze_s: the per-stage numbers do not split it"
            ));
        }

        let alerts = feed.alerts.clone();
        let (_, counted) = alloc::count(|| engines[0].analyze_owned(alerts, &feed.ping, HORIZON));
        leg.metric(
            "alloc.per_event_analyze",
            counted.allocs as f64 / raw,
            "count",
        );
        log.write_jsonl(&opts.out_dir.join("trace-batch_analyze.jsonl"))
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(leg)
}

struct Staged {
    report: AnalysisReport,
    /// What the stage spans (guard, preprocess, shard, locator, sop,
    /// evaluator) of this repetition cover, in seconds.
    stage_sum_s: f64,
    released: usize,
    /// Where each structured alert sits (one entry per alert the locator
    /// was given), for the two-shard skew.
    routed: Vec<LocationPath>,
    matrix_builds: u64,
    matrix_hits: u64,
    json_bytes: usize,
}

/// `analyze_owned` at one shard, one stage at a time, through the layers'
/// public functions and in the same order, each under a span.
fn staged_analysis(
    common: &Common,
    cfg: &PipelineConfig,
    feed: &TenantFeed,
    log: &mut SpanLog,
    rep: u64,
) -> Staged {
    let topo = &common.topo;
    let obs = Observability::new(&cfg.obs);
    let tracer = obs.tracer();
    let alerts = feed.alerts.clone();
    let root = log.open("analyze.staged", None, rep);
    let parent = Some(root);

    let mut guard = IngestGuard::new(topo, cfg.streaming.guard.clone()).with_observability(&obs);
    let mut released: Vec<RawAlert> = Vec::with_capacity(alerts.len());
    log.time("guard", parent, rep, || {
        guard.offer_batch(alerts, &mut released);
        guard.advance(HORIZON, &mut released);
        guard.flush(&mut released);
    });

    let mut preprocessor =
        Preprocessor::new(cfg.preprocessor.clone(), Some(common.classifier.clone()))
            .with_observability(&obs);
    let mut structured: Vec<StructuredAlert> = Vec::new();
    log.time("preprocess", parent, rep, || {
        for raw in &released {
            preprocessor.push(raw, &mut structured);
        }
        preprocessor.finish();
    });

    let router = ShardRouter::new(topo.interner(), 1);
    log.time("shard.route", parent, rep, || {
        for alert in &structured {
            let shard = router.route(&alert.location);
            tracer.record(
                alert.trace,
                alert.last_seen,
                Stage::ShardRouted(shard as u16),
            );
        }
    });

    let mut locator = Locator::new(topo, cfg.locator.clone()).with_observability(&obs);
    log.time("locator.insert", parent, rep, || {
        for alert in &structured {
            tracer.record(alert.trace, alert.last_seen, Stage::LocateInserted);
            locator.insert(alert);
        }
    });
    log.time("locator.advance", parent, rep, || locator.advance(HORIZON));
    log.time("locator.finish", parent, rep, || locator.finish());
    let incidents = log.time("locator.take", parent, rep, || {
        let incidents = canonical_order(locator.take_completed());
        for incident in &incidents {
            for alert in &incident.alerts {
                tracer.record(
                    alert.trace,
                    incident.last_seen,
                    Stage::IncidentCompleted(incident.id),
                );
            }
        }
        incidents
    });

    let sop_plans = log.time("sop.match", parent, rep, || {
        let sop = SopEngine::standard(topo);
        incidents
            .iter()
            .filter_map(|i| sop.match_incident(i).map(|plan| (i.id, plan)))
            .collect::<Vec<_>>()
    });
    let (scored, memo) = log.time("evaluator.rank", parent, rep, || {
        let evaluator = Evaluator::new(topo, cfg.evaluator.clone());
        let (scored, memo) = evaluator.rank_memoized(incidents, &feed.ping);
        for s in &scored {
            for alert in &s.incident.alerts {
                tracer.record(
                    alert.trace,
                    s.incident.last_seen,
                    Stage::Scored(s.incident.id),
                );
            }
        }
        (scored, memo)
    });
    log.close(root);
    // Every child of the root is one of the stages, so what they cover is
    // the root's duration minus its self time (the glue between stages).
    let whole = &log.spans()[root as usize];
    let stage_sum_s = (whole.end_ns - whole.start_ns - log.self_ns(root)) as f64 / 1e9;

    let dead_letters = guard.dead_letters().lock().letters().cloned().collect();
    let report = AnalysisReport {
        incidents: scored,
        sop_plans,
        preprocess: preprocessor.stats(),
        ingest: guard.stats(),
        severity_threshold: cfg.evaluator.severity_threshold,
        faults: Vec::new(),
        dead_letters,
    };
    let json = log.time("report.json", None, rep, || {
        serde_json::to_vec(&report).expect("reports always serialise")
    });
    let rendered = log.time("report.render", None, rep, || report.render());
    std::hint::black_box(rendered);
    Staged {
        stage_sum_s,
        released: released.len(),
        routed: structured.iter().map(|a| a.location.clone()).collect(),
        matrix_builds: memo.builds,
        matrix_hits: memo.hits,
        json_bytes: json.len(),
        report,
    }
}

/// The canonical report order `analyze_owned` merges shards into: sort by
/// `(first_seen, root, last_seen)` and renumber.
fn canonical_order(mut incidents: Vec<Incident>) -> Vec<Incident> {
    incidents.sort_by(|a, b| {
        (a.first_seen, &a.root, a.last_seen).cmp(&(b.first_seen, &b.root, b.last_seen))
    });
    for (i, incident) in incidents.iter_mut().enumerate() {
        incident.id = IncidentId::from_index(i);
    }
    incidents
}

/// Largest partition over the mean when the structured alerts are routed
/// to two shards.
fn shard_skew(leg: &mut LegReport, common: &Common, routed: &[LocationPath]) {
    let router = ShardRouter::new(common.topo.interner(), 2);
    let mut sizes = [0usize; 2];
    for location in routed {
        sizes[router.route(location)] += 1;
    }
    let mean = routed.len() as f64 / 2.0;
    let largest = sizes[0].max(sizes[1]) as f64;
    leg.metric("shard.skew", largest / mean, "ratio");
}

/// `classify_memoized` over the flood's syslog bodies, on a classifier with
/// a cold memo.
fn classify(leg: &mut LegReport, log: &mut SpanLog, common: &Common, feed: &TenantFeed) {
    let lines: Vec<&str> = feed
        .alerts
        .iter()
        .filter_map(|a| match &a.body {
            AlertBody::SyslogText(text) => Some(text.as_str()),
            AlertBody::Known(_) => None,
        })
        .collect();
    let classifier = (*common.classifier).clone();
    let mut scratch = MatchScratch::new();
    let start = Instant::now();
    for line in &lines {
        std::hint::black_box(classifier.classify_memoized(line, &mut scratch));
    }
    let end = Instant::now();
    log.record("classify", None, 0, start, end);
    let (hits, misses) = (classifier.cache_hits(), classifier.cache_misses());
    // A flood without raw syslog still reports both metrics, as zeros.
    let lines = lines.len().max(1) as f64;
    leg.metric(
        "classify.us_per_line",
        secs(end.duration_since(start)) * 1e6 / lines,
        "us",
    );
    leg.metric(
        "classify.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
}
