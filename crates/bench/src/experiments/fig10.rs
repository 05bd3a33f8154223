//! Figure 10: the evaluator's effect end to end.
//!
//! - **10a** — severity scores of all incidents vs failure incidents
//!   (scores capped at 100 as in the paper's plot).
//! - **10b** — incidents per month before and after the severity-10
//!   filter (the paper: almost two orders of magnitude fewer, under one
//!   per day).
//! - **10c** — mitigation time before vs after SkyNet (medians 736→147 s
//!   and maxima 14,028→1,920 s in the paper; both >80% reductions).

use crate::experiments::{pct, PreparedCorpus};
use crate::ExperimentScale;
use serde::{Deserialize, Serialize};
use skynet_baseline::{manual_mitigation_secs, skynet_mitigation_secs, MitigationContext};
use skynet_core::{PipelineConfig, ScoredIncident};
use skynet_model::AlertClass;
use std::fmt::Write as _;

/// Five-number summary of a score/time distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary (empty input gives all zeros).
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
            };
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
        Summary {
            min: v[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: *v.last().expect("non-empty"),
        }
    }
}

/// The combined Fig. 10 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Result {
    /// 10a: score distribution of every incident (capped at 100).
    pub all_scores: Summary,
    /// 10a: score distribution of failure-backed incidents.
    pub failure_scores: Summary,
    /// 10b: per month `(all incidents, severe incidents ≥ threshold)`.
    pub monthly: Vec<(u32, usize, usize)>,
    /// 10c: manual mitigation seconds per failure incident.
    pub manual: Summary,
    /// 10c: SkyNet-assisted mitigation seconds per failure incident.
    pub assisted: Summary,
    /// The severity threshold used.
    pub threshold: f64,
}

fn is_failure_backed(s: &ScoredIncident) -> bool {
    let caused: u64 = s
        .incident
        .alerts
        .iter()
        .filter(|a| a.cause.is_some())
        .map(|a| u64::from(a.count))
        .sum();
    let noise: u64 = s
        .incident
        .alerts
        .iter()
        .filter(|a| a.cause.is_none())
        .map(|a| u64::from(a.count))
        .sum();
    caused > 0 && caused >= noise
}

/// Runs the experiment on a prepared corpus.
pub fn run_on(prepared: &PreparedCorpus) -> Fig10Result {
    let config = PipelineConfig::production();
    let threshold = config.evaluator.severity_threshold;
    let skynet = prepared.skynet(config);

    let mut all_scores = Vec::new();
    let mut failure_scores = Vec::new();
    let mut monthly: std::collections::BTreeMap<u32, (usize, usize)> = Default::default();
    let mut manual = Vec::new();
    let mut assisted = Vec::new();

    for idx in 0..prepared.len() {
        let episode = &prepared.corpus.episodes[idx];
        let report = prepared.analyze(&skynet, idx, None);
        let raw_alerts = report.preprocess.raw;
        let concurrent = report.incidents.len();
        let month = monthly.entry(episode.month).or_insert((0, 0));
        for scored in &report.incidents {
            let score = scored.score().min(100.0);
            all_scores.push(score);
            month.0 += 1;
            if scored.score() >= threshold {
                month.1 += 1;
            }
            if is_failure_backed(scored) {
                failure_scores.push(score);
                let ctx = MitigationContext {
                    raw_alerts,
                    known_failure: report.sop_for(scored.incident.id).is_some(),
                    root_cause_alert_present: scored.incident.has_class(AlertClass::RootCause),
                    concurrent_incidents: concurrent,
                    zoomed: scored.incident.root != scored.zoom.location,
                    needs_field_repair: scored
                        .incident
                        .causes()
                        .first()
                        .map(|&id| {
                            episode.scenario.event(id).category
                                == skynet_failure::RootCauseCategory::Link
                        })
                        .unwrap_or(false),
                };
                manual.push(manual_mitigation_secs(&ctx));
                assisted.push(skynet_mitigation_secs(&ctx));
            }
        }
    }

    Fig10Result {
        all_scores: Summary::of(&all_scores),
        failure_scores: Summary::of(&failure_scores),
        monthly: monthly.into_iter().map(|(m, (a, s))| (m, a, s)).collect(),
        manual: Summary::of(&manual),
        assisted: Summary::of(&assisted),
        threshold,
    }
}

/// Runs at a scale, preparing its own corpus.
pub fn run(scale: ExperimentScale) -> Fig10Result {
    run_on(&crate::experiments::prepare(scale))
}

impl Fig10Result {
    /// Median mitigation-time reduction in `[0, 1]`.
    pub fn median_reduction(&self) -> f64 {
        if self.manual.median <= 0.0 {
            return 0.0;
        }
        1.0 - self.assisted.median / self.manual.median
    }

    /// Maximum mitigation-time reduction in `[0, 1]`.
    pub fn max_reduction(&self) -> f64 {
        if self.manual.max <= 0.0 {
            return 0.0;
        }
        1.0 - self.assisted.max / self.manual.max
    }

    /// Table rendering of all three panels.
    pub fn render(&self) -> String {
        let mut s = String::from("Fig. 10a — severity scores (capped at 100)\n");
        let row = |label: &str, x: &Summary| {
            format!(
                "{label:<20} min {:>6.1}  q1 {:>6.1}  median {:>6.1}  q3 {:>6.1}  max {:>6.1}\n",
                x.min, x.q1, x.median, x.q3, x.max
            )
        };
        s.push_str(&row("all incidents", &self.all_scores));
        s.push_str(&row("failure incidents", &self.failure_scores));

        let _ = writeln!(
            s,
            "\nFig. 10b — incidents per month (severity filter at {})",
            self.threshold
        );
        let _ = writeln!(s, "{:>6} {:>10} {:>10}", "month", "all", "severe");
        for &(m, all, severe) in &self.monthly {
            let _ = writeln!(s, "{m:>6} {all:>10} {severe:>10}");
        }

        let _ = writeln!(s, "\nFig. 10c — mitigation time (seconds)");
        s.push_str(&row("manual (before)", &self.manual));
        s.push_str(&row("SkyNet (after)", &self.assisted));
        let _ = writeln!(
            s,
            "median reduction {}, max reduction {} (paper: >80% on both)",
            pct(self.median_reduction()),
            pct(self.max_reduction())
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(Summary::of(&[]).max, 0.0);
    }

    #[test]
    fn figure10_shapes_hold() {
        let r = run(ExperimentScale::Small);
        // 10a: failure incidents score higher than the general population.
        assert!(
            r.failure_scores.median >= r.all_scores.median,
            "failure median {} vs all {}",
            r.failure_scores.median,
            r.all_scores.median
        );
        // 10b: the filter strictly reduces volume each month.
        for &(m, all, severe) in &r.monthly {
            assert!(severe <= all, "month {m}");
        }
        let total_all: usize = r.monthly.iter().map(|x| x.1).sum();
        let total_severe: usize = r.monthly.iter().map(|x| x.2).sum();
        assert!(total_severe < total_all);
        // 10c: at test scale the manual times are bimodal (430–610 s when
        // the root-cause alert sits in a small flood, 1,800–4,900 s
        // otherwise) and the median of a dozen episodes lands in either
        // mode by draw: over 17 corpus seeds its reduction reads
        // 0.435–0.475 (5 seeds, this one included) or 0.722–0.837 (12);
        // EXPERIMENTS.md "Fig. 10c at test scale". The upper quartile and
        // the maximum are in the long mode at every seed and beat 50%
        // (0.65–0.79, 0.60–0.72); the paper's >80% is the full scale's.
        assert!(
            r.median_reduction() > 0.4,
            "median reduction {}",
            r.median_reduction()
        );
        let q3_reduction = 1.0 - r.assisted.q3 / r.manual.q3;
        assert!(q3_reduction > 0.5, "q3 reduction {q3_reduction}");
        assert!(
            r.max_reduction() > 0.5,
            "max reduction {}",
            r.max_reduction()
        );
    }
}
