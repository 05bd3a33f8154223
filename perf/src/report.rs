//! What a leg (one workload in its own process) reports, and the pieces
//! every leg shares: options, metric bookkeeping, failure accounting.

use crate::digest::Fingerprint;
use crate::stats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The four workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: [&str; 4] = [
    "flood_batched",
    "paced_single",
    "batch_analyze",
    "restart_replay",
];

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// One leg's result: the last line the child process prints.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LegReport {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Events one round (or one restart) feeds the service; 0 where the
    /// workload has no such thing.
    pub round_events: u64,
    /// Operations attempted: requests, repetitions and output checks.
    pub attempted: u64,
    /// Of those: busy + error + timeout + failed output check.
    pub failed: u64,
    /// The first few failures, in words.
    pub failures: Vec<String>,
    /// Why the leg's *timings* are not to be trusted, if they are not: the
    /// load generator ran late all along, the stage spans did not add up.
    /// Not failures: the program's outputs were checked and correct, the
    /// host was too unsteady to time it. `run`, `trace` and `check` reject
    /// such a run; the driver's form reports it as measured, because that
    /// line only says whether outputs were correct and the driver judges
    /// the steadiness of the numbers itself.
    pub invalid: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
    /// The per-round (or per-repetition) values behind the medians, by
    /// metric name: every run made is on record.
    pub series: BTreeMap<String, Vec<f64>>,
    /// What must repeat byte for byte, by name: the digests of the inputs
    /// and of the reports' skeletons ([`Fingerprint`]).
    pub digests: BTreeMap<String, String>,
    /// The sum of each report's floats, by the report's name.
    pub float_sums: BTreeMap<String, f64>,
    /// The first report seen under each name, which the later ones (other
    /// rounds, the other shard count, the restarted service) must equal.
    #[serde(skip)]
    reports: BTreeMap<String, Fingerprint>,
    /// Sample counts and anything else worth a line in the output.
    pub notes: Vec<String>,
    #[serde(skip)]
    raw_mismatches: u64,
}

impl LegReport {
    pub fn new(opts: &LegOpts) -> LegReport {
        LegReport {
            workload: opts.workload.clone(),
            seed: opts.seed,
            traced: opts.trace,
            ..LegReport::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    /// Records the median of `values` as the metric and keeps the values.
    pub fn median_of(&mut self, name: &str, values: Vec<f64>, unit: &str) {
        self.metric(name, stats::median(&values), unit);
        self.series.insert(name.to_string(), values);
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// `n` more operations were attempted and went well.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// One attempted operation failed.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// An output check: one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what());
        }
    }

    /// The leg's timings measured the host, not the program (see
    /// [`LegReport::invalid`]); counts as no operation.
    pub fn invalidate(&mut self, why: String) {
        self.invalid.push(why);
    }

    /// Records an input digest: one output to check against the pins.
    pub fn digest(&mut self, name: &str, value: String) {
        self.digests.insert(name.to_string(), value);
        self.attempted += 1;
    }

    /// A report, as the JSON the program wrote. The first under a name is
    /// kept (and must name an incident, which `incidents` counts); every
    /// later one must equal it: the same skeleton, every float within
    /// [`crate::digest::FLOAT_TOLERANCE`]. Reports that are equal but not byte for
    /// byte are counted under `report.raw_digest_mismatches`.
    pub fn report(
        &mut self,
        name: &str,
        json: &[u8],
        incidents: impl FnOnce() -> Result<usize, String>,
    ) {
        let print = Fingerprint::of(json);
        let Some(first) = self.reports.get(name) else {
            match incidents() {
                Ok(n) => self.check(n > 0, || format!("{name}: the report names no incident")),
                Err(e) => self.fail(format!("{name}: the report does not parse: {e}")),
            }
            self.digests
                .insert(name.to_string(), print.skeleton.clone());
            self.float_sums.insert(name.to_string(), print.float_sum());
            self.reports.insert(name.to_string(), print);
            return;
        };
        let differs = print.differs_from(first);
        if differs.is_none() && print.raw != first.raw {
            self.raw_mismatches += 1;
        }
        self.check(differs.is_none(), || {
            format!("{name} changed: {}", differs.unwrap_or_default())
        });
    }

    /// Ends the leg's bookkeeping: the count of reports that were equal
    /// only within the float tolerance becomes a metric.
    pub fn close(&mut self) {
        self.metric(
            "report.raw_digest_mismatches",
            self.raw_mismatches as f64,
            "count",
        );
    }

    /// Median and the tail the sample supports, as two metrics plus a note
    /// stating the sample count (and the highest reportable percentile when
    /// that is not the one asked for).
    pub fn latency(&mut self, p50: &str, tail: (&str, f64), samples: Vec<f64>, unit: &str) {
        let sorted = stats::sorted(samples);
        if sorted.is_empty() {
            return;
        }
        self.metric(p50, stats::percentile(&sorted, 50.0), unit);
        self.metric(tail.0, stats::percentile(&sorted, tail.1), unit);
        let supported = stats::reportable_tail(sorted.len());
        let verdict = match supported {
            Some(p) if p >= tail.1 => String::new(),
            Some(p) => format!(
                "; only p{p} has {} samples beyond it, so {} is a thin tail",
                stats::MIN_BEYOND,
                tail.0
            ),
            None => format!(
                "; too few samples for any percentile, {} is a thin tail",
                tail.0
            ),
        };
        self.note(format!(
            "{p50}/{}: {} samples{verdict}",
            tail.0,
            sorted.len()
        ));
    }
}

/// How a leg was asked to run.
#[derive(Debug, Clone)]
pub struct LegOpts {
    pub workload: String,
    pub seed: u64,
    /// Record spans and take the per-layer measurements.
    pub trace: bool,
    /// Shorter probes in the traced run (the parent also grants one turn
    /// only).
    pub quick: bool,
    /// Where WAL directories are created (and removed afterwards).
    pub wal_root: PathBuf,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: PathBuf,
}

impl LegOpts {
    /// A fresh, empty directory for this leg under the WAL root.
    pub fn scratch_dir(&self, label: &str) -> std::io::Result<PathBuf> {
        let dir = self
            .wal_root
            .join(format!("{}-{}-{label}", self.workload, std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// What a leg prints when it is ready for a turn, and what it reads back:
/// `go <seconds>` or `end`.
pub const WAITING: &str = "waiting";

/// A leg's side of the turn protocol. Every leg is a child of a run that
/// holds all four workloads; the parent hands out turns so that each
/// workload's rounds are spread over the whole run (`suite::run_shared`).
/// The leg asks for a turn, runs rounds for the seconds it is given (one
/// round at least), asks again, and stops when told to.
pub struct Turns<R, W> {
    answers: R,
    asks: W,
    /// When the turn in progress is over; `None` before the first turn.
    turn_ends: Option<Instant>,
    ended: bool,
}

impl Turns<std::io::StdinLock<'static>, std::io::Stdout> {
    /// Turns asked for on standard output and granted on standard input.
    pub fn stdio() -> Self {
        Turns::over(std::io::stdin().lock(), std::io::stdout())
    }
}

impl<R: std::io::BufRead, W: std::io::Write> Turns<R, W> {
    pub fn over(answers: R, asks: W) -> Self {
        Turns {
            answers,
            asks,
            turn_ends: None,
            ended: false,
        }
    }

    /// Whether another round should start. Blocks while it is another
    /// workload's turn.
    pub fn next_round(&mut self) -> bool {
        if self.ended {
            return false;
        }
        if self.turn_ends.is_some_and(|end| Instant::now() < end) {
            return true;
        }
        let _ = writeln!(self.asks, "{WAITING}").and_then(|()| self.asks.flush());
        let mut answer = String::new();
        // A parent that is gone reads as an empty answer: the run is over.
        let _ = self.answers.read_line(&mut answer);
        match granted(&answer) {
            Some(length) => self.turn_ends = Some(Instant::now() + length),
            None => self.ended = true,
        }
        !self.ended
    }
}

/// The length of the turn a parent's answer grants: `go <seconds>`.
fn granted(answer: &str) -> Option<Duration> {
    let seconds: f64 = answer.trim().strip_prefix("go ")?.parse().ok()?;
    Duration::try_from_secs_f64(seconds).ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_turn_is_one_round_at_least_and_end_is_final() {
        // Two turns of no length, then `end`, then a line that must never
        // be read.
        let answers = std::io::Cursor::new("go 0\ngo 0\nend\ngo 5\n");
        let mut asks = Vec::new();
        let mut turns = Turns::over(answers, &mut asks);
        assert!(turns.next_round(), "a turn of no length still runs a round");
        assert!(turns.next_round());
        assert!(!turns.next_round());
        assert!(!turns.next_round(), "nothing is asked after `end`");
        assert_eq!(asks, b"waiting\nwaiting\nwaiting\n");
    }

    #[test]
    fn rounds_repeat_within_a_turn_without_asking_and_a_lost_parent_ends_the_run() {
        let mut asks = Vec::new();
        let mut turns = Turns::over(std::io::Cursor::new("go 3600\n"), &mut asks);
        for _ in 0..5 {
            assert!(turns.next_round());
        }
        assert_eq!(asks, b"waiting\n");
        let mut turns = Turns::over(std::io::Cursor::new(""), Vec::new());
        assert!(!turns.next_round());
    }

    fn report_with(score: &str) -> Vec<u8> {
        format!(r#"{{"incidents":[{{"id":1,"score":{score}}}]}}"#).into_bytes()
    }

    #[test]
    fn later_reports_must_equal_the_first_within_the_float_tolerance() {
        let mut leg = LegReport::default();
        let one = || Ok(1);
        leg.report("r", &report_with("434084.42213817296"), one);
        assert_eq!((leg.attempted, leg.failed), (1, 0));
        assert_eq!(leg.float_sums["r"], 434084.42213817296);
        // The same bytes, then the same value with another last bit.
        leg.report("r", &report_with("434084.42213817296"), one);
        leg.report("r", &report_with("434084.422138173"), one);
        assert_eq!((leg.attempted, leg.failed), (3, 0));
        // Another value, then another shape: two failed checks.
        leg.report("r", &report_with("434084.43"), one);
        leg.report("r", &report_with("434084"), one);
        assert_eq!((leg.attempted, leg.failed), (5, 2));
        assert!(
            leg.failures[0].contains("float 0 of 1"),
            "{:?}",
            leg.failures
        );
        leg.close();
        // Only the report that passed on tolerance alone is an open defect.
        assert_eq!(leg.metrics["report.raw_digest_mismatches"].value, 1.0);
    }

    #[test]
    fn a_first_report_without_an_incident_fails() {
        let mut leg = LegReport::default();
        leg.report("empty", br#"{"incidents":[]}"#, || Ok(0));
        leg.report("broken", b"{", || Err("eof".to_string()));
        assert_eq!((leg.attempted, leg.failed), (2, 2));
    }

    #[test]
    fn an_invalid_timing_is_not_a_failed_operation() {
        let mut leg = LegReport::default();
        leg.attempt(10);
        leg.invalidate("generator late in every round".to_string());
        assert_eq!((leg.attempted, leg.failed), (10, 0));
        assert!(leg.failures.is_empty());
        assert_eq!(leg.invalid.len(), 1);
        // It travels in the child's report to the parent.
        let line = serde_json::to_string(&leg).unwrap();
        let back: LegReport = serde_json::from_str(&line).unwrap();
        assert_eq!(back.invalid, leg.invalid);
    }

    #[test]
    fn only_go_with_a_length_grants_a_turn() {
        assert_eq!(granted("go 1\n"), Some(Duration::from_secs(1)));
        assert_eq!(granted("go 0.25"), Some(Duration::from_millis(250)));
        assert_eq!(granted("end\n"), None);
        assert_eq!(granted(""), None, "the parent is gone");
        assert_eq!(granted("go"), None);
        assert_eq!(granted("go -1"), None);
        assert_eq!(granted("go soon"), None);
    }
}
