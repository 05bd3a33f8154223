//! The evaluator (§4.3): severity scoring, location zoom-in and the
//! severity filter.

pub mod score;
pub mod zoom;

pub use score::{CircuitSetImpact, ScoreConfig, SeverityBreakdown, SeverityInputs};
pub use zoom::{MatrixMemo, MatrixMemoStats, ReachabilityMatrix, ZoomMethod, ZoomResult};

use crate::faultinject::{self, FaultArm};
use crate::locator::Incident;
use serde::{Deserialize, Serialize};
use skynet_model::{AlertKind, CustomerId, LocId, PingLog, TraceId};
use skynet_topology::Topology;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Evaluator knobs.
///
/// `#[non_exhaustive]`: construct via [`EvaluatorConfig::default`] and the
/// fluent `with_*` setters so future knobs are not breaking changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct EvaluatorConfig {
    /// Scoring calibration for Equations 1–3.
    pub score: ScoreConfig,
    /// Incidents scoring below this are filtered from the operator feed —
    /// "we set the severity threshold score to 10" (§6.4).
    pub severity_threshold: f64,
    /// Reachability-matrix focal point must dominate the overall mean by
    /// this factor.
    pub matrix_factor: f64,
    /// Absolute minimum loss for a matrix focal point.
    pub matrix_min_loss: f64,
}

impl Default for EvaluatorConfig {
    fn default() -> Self {
        EvaluatorConfig {
            score: ScoreConfig::default(),
            severity_threshold: 10.0,
            matrix_factor: 1.5,
            matrix_min_loss: 0.01,
        }
    }
}

impl EvaluatorConfig {
    /// Sets the scoring calibration.
    pub fn with_score(mut self, score: ScoreConfig) -> Self {
        self.score = score;
        self
    }

    /// Sets the operator-feed severity threshold.
    pub fn with_severity_threshold(mut self, threshold: f64) -> Self {
        self.severity_threshold = threshold;
        self
    }

    /// Sets the matrix focal-point dominance factor.
    pub fn with_matrix_factor(mut self, factor: f64) -> Self {
        self.matrix_factor = factor;
        self
    }

    /// Sets the matrix focal-point minimum loss.
    pub fn with_matrix_min_loss(mut self, min_loss: f64) -> Self {
        self.matrix_min_loss = min_loss;
        self
    }
}

/// An incident with its severity and zoomed location — the final operator
/// deliverable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredIncident {
    /// The located incident.
    pub incident: Incident,
    /// Equations 1–3 breakdown.
    pub severity: SeverityBreakdown,
    /// Zoom-in result.
    pub zoom: ZoomResult,
}

impl ScoredIncident {
    /// Severity score `y_k`.
    pub fn score(&self) -> f64 {
        self.severity.score
    }
}

/// The evaluator: derives Table-3 inputs from an incident's alerts plus the
/// topology's traffic/customer data ("it queries user and traffic data
/// related to the failure site"), scores it, and zooms in on the failure
/// location.
#[derive(Debug, Clone)]
pub struct Evaluator {
    topo: Arc<Topology>,
    cfg: EvaluatorConfig,
    /// Fault-injection arms for the matrix-build / evaluate sites.
    matrix_fault: Option<FaultArm>,
    eval_fault: Option<FaultArm>,
}

impl Evaluator {
    /// Builds an evaluator over the topology's traffic/customer data.
    pub fn new(topo: &Arc<Topology>, cfg: EvaluatorConfig) -> Self {
        Evaluator {
            topo: Arc::clone(topo),
            cfg,
            matrix_fault: None,
            eval_fault: None,
        }
    }

    /// Arms the evaluator's fault-injection sites. A firing matrix-build
    /// fault skips the reachability matrix (zoom falls back to sFlow/INT
    /// signals); a firing evaluate fault abandons the zoom entirely and
    /// keeps the incident's root location ([`ZoomMethod::None`]). Severity
    /// scoring always runs — a faulted incident is degraded, never lost.
    pub fn with_faults(mut self, matrix: Option<FaultArm>, evaluate: Option<FaultArm>) -> Self {
        self.matrix_fault = matrix;
        self.eval_fault = evaluate;
        self
    }

    /// Checks both evaluator sites for one incident, keyed by the trace of
    /// its earliest alert. Returns `(matrix degraded, zoom degraded)`.
    /// Both arms are always checked so the decision streams stay aligned.
    fn check_faults(&self, incident: &Incident) -> (bool, bool) {
        let trace = incident
            .alerts
            .first()
            .map(|a| a.trace)
            .unwrap_or(TraceId::NONE);
        let at = incident.last_seen;
        let matrix = faultinject::trip(&self.matrix_fault, trace, at);
        let eval = faultinject::trip(&self.eval_fault, trace, at);
        (matrix, eval)
    }

    /// The configured severity threshold.
    pub fn severity_threshold(&self) -> f64 {
        self.cfg.severity_threshold
    }

    /// Derives the Table-3 inputs for an incident.
    pub fn derive_inputs(&self, incident: &Incident) -> SeverityInputs {
        // A corrupted magnitude (NaN/∞ from a buggy tool) must not poison
        // the severity arithmetic; treat it as "no magnitude reported".
        fn finite(m: f64) -> f64 {
            if m.is_finite() {
                m
            } else {
                0.0
            }
        }
        // Evidence and endpoints are compared as interned ids against the
        // topology's interner. Off-topology evidence locations (probes the
        // topology never modeled) resolve to nothing — exactly the alerts
        // that can never cover a topology device, so dropping them is
        // behaviour-preserving.
        let interner = self.topo.interner();
        // Break evidence by location: `(location, ratio)` from link/port
        // down alerts.
        let break_evidence: Vec<(LocId, f64)> = incident
            .alerts
            .iter()
            .filter(|a| matches!(a.ty.kind, AlertKind::LinkDown | AlertKind::PortDown))
            .filter_map(|a| {
                let ratio = if a.ty.kind == AlertKind::LinkDown {
                    1.0
                } else {
                    finite(a.magnitude).clamp(0.0, 1.0)
                };
                interner.resolve(&a.location).map(|loc| (loc, ratio))
            })
            .collect();
        // Congestion evidence: `(location, utilization)`.
        let congestion_evidence: Vec<(LocId, f64)> = incident
            .alerts
            .iter()
            .filter(|a| a.ty.kind == AlertKind::TrafficCongestion)
            .filter_map(|a| {
                interner
                    .resolve(&a.location)
                    .map(|loc| (loc, finite(a.magnitude).max(1.0)))
            })
            .collect();

        let mut circuit_sets = Vec::new();
        let mut important: HashSet<CustomerId> = HashSet::new();
        let mut max_sla_over = 0.0f64;

        // The bare hierarchy root contains every device; any other
        // unresolvable incident root is off the topology, hence an ancestor
        // of no device: no circuit set can be related.
        let root_is_all = incident.root.is_root();
        let root = interner.resolve(&incident.root);
        for link in self.topo.links() {
            if !root_is_all && root.is_none() {
                break;
            }
            // A circuit set is related to the incident when any endpoint
            // device sits under the incident root.
            let endpoint_locs: Vec<LocId> = [link.a.device(), link.b.device()]
                .into_iter()
                .flatten()
                .map(|d| self.topo.device_loc(d))
                .collect();
            let related = root_is_all
                || root.is_some_and(|r| endpoint_locs.iter().any(|&l| interner.contains(r, l)));
            if endpoint_locs.is_empty() || !related {
                continue;
            }
            // d_i: the most specific break evidence covering an endpoint.
            let break_ratio = break_evidence
                .iter()
                .filter(|&&(loc, _)| endpoint_locs.iter().any(|&e| interner.contains(loc, e)))
                .map(|&(_, r)| r)
                .fold(0.0f64, f64::max);
            // Worst congestion covering an endpoint.
            let util = congestion_evidence
                .iter()
                .filter(|&&(loc, _)| endpoint_locs.iter().any(|&e| interner.contains(loc, e)))
                .map(|&(_, u)| u)
                .fold(0.0f64, f64::max);

            let flow_ids = self.topo.flows_on_circuit_set(link.circuit_set.id);
            // Ordered: the importance average below sums floats in
            // iteration order, and a default-hasher set would make its last
            // bits differ between two incarnations scoring the same feed.
            let mut customers: BTreeSet<CustomerId> = BTreeSet::new();
            let mut sla_flows = 0u32;
            let mut sla_over = 0u32;
            for &fi in flow_ids {
                let flow = &self.topo.flows()[fi];
                customers.insert(flow.customer);
                let customer = self.topo.customer(flow.customer);
                if customer.has_sla {
                    sla_flows += 1;
                    // Achievable share under congestion/break.
                    let capacity_factor = if break_ratio >= 1.0 {
                        0.0
                    } else if util > 1.0 {
                        1.0 / util
                    } else {
                        1.0
                    };
                    if flow.sla_violated_at(flow.rate_gbps * capacity_factor) {
                        sla_over += 1;
                    }
                }
            }
            let sla_over_ratio = if sla_flows == 0 {
                0.0
            } else {
                f64::from(sla_over) / f64::from(sla_flows)
            };
            if break_ratio <= 0.0 && sla_over_ratio <= 0.0 {
                continue; // unaffected set: contributes nothing to Eq. 1
            }
            let importance = if customers.is_empty() {
                0.0
            } else {
                customers
                    .iter()
                    .map(|&c| self.topo.customer(c).importance)
                    .sum::<f64>()
                    / customers.len() as f64
            };
            for &c in &customers {
                if self.topo.customer(c).has_sla {
                    important.insert(c);
                }
            }
            max_sla_over = max_sla_over.max(sla_over_ratio);
            circuit_sets.push(CircuitSetImpact {
                break_ratio,
                sla_over_ratio,
                importance,
                customers: customers.len() as u32,
            });
        }

        // R_k: average loss over the incident's ping failure alerts.
        let ping_losses: Vec<f64> = incident
            .alerts
            .iter()
            .filter(|a| {
                matches!(
                    a.ty.kind,
                    AlertKind::PacketLossIcmp
                        | AlertKind::PacketLossTcp
                        | AlertKind::PacketLossSource
                        | AlertKind::SflowPacketLoss
                )
            })
            .map(|a| finite(a.magnitude))
            .collect();
        let avg_ping_loss = if ping_losses.is_empty() {
            0.0
        } else {
            ping_losses.iter().sum::<f64>() / ping_losses.len() as f64
        };

        SeverityInputs {
            circuit_sets,
            avg_ping_loss,
            max_sla_over,
            duration_secs: incident.duration().as_secs_f64(),
            important_customers: important.len() as u32,
        }
    }

    /// Scores one incident and zooms in on its location.
    pub fn evaluate(&self, incident: Incident, ping: &PingLog) -> ScoredIncident {
        let (matrix_degraded, zoom_degraded) = self.check_faults(&incident);
        if zoom_degraded {
            return self.scored_with(incident, None);
        }
        if matrix_degraded {
            return self.evaluate_with(incident, &ReachabilityMatrix::empty());
        }
        let zoom = zoom::zoom(
            &incident,
            ping,
            self.cfg.matrix_factor,
            self.cfg.matrix_min_loss,
        );
        self.scored_with(incident, Some(zoom))
    }

    /// [`Evaluator::evaluate`] through a caller-held [`MatrixMemo`] — the
    /// streaming drain shape: incidents completed by consecutive checks
    /// mostly share (or slide forward) their matrix windows, so the memo's
    /// per-level sliding accumulator replaces the per-incident `PingLog`
    /// rescan with an O(delta) window slide over the worker's growing log.
    /// Byte-identical results to [`Evaluator::evaluate`].
    pub fn evaluate_memoized(
        &self,
        incident: Incident,
        ping: &PingLog,
        memo: &mut MatrixMemo,
    ) -> ScoredIncident {
        let (matrix_degraded, zoom_degraded) = self.check_faults(&incident);
        if zoom_degraded {
            return self.scored_with(incident, None);
        }
        if matrix_degraded {
            return self.evaluate_with(incident, &ReachabilityMatrix::empty());
        }
        let (from, to, level) = zoom::matrix_window(&incident);
        let matrix = memo.get_or_build(ping, from, to, level);
        self.evaluate_with(incident, &matrix)
    }

    /// [`Evaluator::evaluate`] with a prebuilt reachability matrix for the
    /// incident's [`zoom::matrix_window`].
    fn evaluate_with(&self, incident: Incident, matrix: &ReachabilityMatrix) -> ScoredIncident {
        let zoom = zoom::zoom_with(
            &incident,
            matrix,
            self.cfg.matrix_factor,
            self.cfg.matrix_min_loss,
        );
        self.scored_with(incident, Some(zoom))
    }

    /// Severity scoring plus an already-decided zoom outcome; `None` is
    /// the degraded "keep the root, no refinement" result.
    fn scored_with(&self, incident: Incident, zoom: Option<ZoomResult>) -> ScoredIncident {
        let inputs = self.derive_inputs(&incident);
        let severity = score::severity(&inputs, &self.cfg.score);
        let zoom = zoom.unwrap_or_else(|| ZoomResult {
            location: incident.root.clone(),
            method: ZoomMethod::None,
        });
        ScoredIncident {
            incident,
            severity,
            zoom,
        }
    }

    /// Scores a batch, ranks by severity (highest first) — the incident
    /// ranking operators act on.
    ///
    /// [`Evaluator::evaluate_memoized`] per incident, in input order, over
    /// one fresh [`MatrixMemo`] (incidents completed by the same locator
    /// check share their windows, so the `PingLog` is scanned once per
    /// distinct window, not once per incident), then one stable sort: ties
    /// keep their batch order.
    pub fn rank(&self, incidents: Vec<Incident>, ping: &PingLog) -> Vec<ScoredIncident> {
        self.rank_memoized(incidents, ping).0
    }

    /// [`Evaluator::rank`], also returning the matrix memo's hit/build
    /// counters.
    pub fn rank_memoized(
        &self,
        incidents: Vec<Incident>,
        ping: &PingLog,
    ) -> (Vec<ScoredIncident>, MatrixMemoStats) {
        let mut memo = MatrixMemo::new();
        let scored = self.rank_with(incidents, ping, &mut memo);
        (scored, memo.stats())
    }

    /// [`Evaluator::rank`] through a caller-held memo — the pipeline's is
    /// wired to its metrics registry.
    pub(crate) fn rank_with(
        &self,
        incidents: Vec<Incident>,
        ping: &PingLog,
        memo: &mut MatrixMemo,
    ) -> Vec<ScoredIncident> {
        let mut scored: Vec<ScoredIncident> = incidents
            .into_iter()
            .map(|incident| self.evaluate_memoized(incident, ping, memo))
            .collect();
        scored.sort_by(|a, b| b.score().total_cmp(&a.score()));
        scored
    }

    /// Applies the §6.4 severity filter: only incidents at or above the
    /// threshold reach operators.
    pub fn filter<'a>(
        &self,
        scored: &'a [ScoredIncident],
    ) -> impl Iterator<Item = &'a ScoredIncident> + 'a {
        let threshold = self.cfg.severity_threshold;
        scored.iter().filter(move |s| s.score() >= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skynet_model::{DataSource, IncidentId, LocationPath, RawAlert, SimTime, StructuredAlert};
    use skynet_topology::{generate, GeneratorConfig};

    fn topo() -> Arc<Topology> {
        Arc::new(generate(&GeneratorConfig::small()))
    }

    fn salert(
        source: DataSource,
        kind: AlertKind,
        secs: u64,
        location: LocationPath,
        magnitude: f64,
    ) -> StructuredAlert {
        let raw = RawAlert::known(source, SimTime::from_secs(secs), location, kind)
            .with_magnitude(magnitude);
        StructuredAlert::from_raw(&raw, kind)
    }

    fn incident(root: &str, alerts: Vec<StructuredAlert>) -> Incident {
        let first = alerts.iter().map(|a| a.first_seen).min().unwrap();
        let last = alerts.iter().map(|a| a.last_seen).max().unwrap();
        Incident {
            id: IncidentId(0),
            root: LocationPath::parse(root).unwrap(),
            first_seen: first,
            last_seen: last,
            alerts,
        }
    }

    #[test]
    fn broken_links_with_customers_outrank_quiet_corners() {
        let t = topo();
        let ev = Evaluator::new(&t, EvaluatorConfig::default());
        let region = "Region-0";
        let site = t.clusters()[0].parent().to_string();

        // Severe: link down + heavy loss over 10 minutes at the site.
        let severe = incident(
            &site,
            vec![
                salert(
                    DataSource::Snmp,
                    AlertKind::LinkDown,
                    0,
                    LocationPath::parse(&site).unwrap(),
                    1.0,
                ),
                salert(
                    DataSource::Ping,
                    AlertKind::PacketLossIcmp,
                    600,
                    LocationPath::parse(&site).unwrap(),
                    0.5,
                ),
            ],
        );
        // Mild: a short jitter blip region-wide.
        let mild = incident(
            region,
            vec![salert(
                DataSource::Ping,
                AlertKind::LatencyJitter,
                0,
                LocationPath::parse(region).unwrap(),
                0.001,
            )],
        );
        let ping = PingLog::new();
        let ranked = ev.rank(vec![mild.clone(), severe.clone()], &ping);
        assert_eq!(ranked[0].incident.root, severe.root);
        assert!(ranked[0].score() > ranked[1].score());
    }

    #[test]
    fn inputs_reflect_break_evidence_scope() {
        let t = topo();
        let ev = Evaluator::new(&t, EvaluatorConfig::default());
        let site = t.clusters()[0].parent();
        let i = incident(
            &site.to_string(),
            vec![salert(
                DataSource::Snmp,
                AlertKind::LinkDown,
                0,
                site.clone(),
                1.0,
            )],
        );
        let inputs = ev.derive_inputs(&i);
        assert!(
            !inputs.circuit_sets.is_empty(),
            "site-wide link-down must impact some circuit sets"
        );
        assert!(inputs.circuit_sets.iter().all(|c| c.break_ratio > 0.0));
    }

    #[test]
    fn unrelated_locations_contribute_nothing() {
        let t = topo();
        let ev = Evaluator::new(&t, EvaluatorConfig::default());
        // Evidence placed in Region-1 while the incident is in Region-0.
        let site = t
            .clusters()
            .iter()
            .find(|c| c.segments()[0].as_ref() == "Region-0")
            .unwrap()
            .parent();
        let far = LocationPath::parse("Region-1").unwrap();
        let i = incident(
            &site.to_string(),
            vec![salert(DataSource::Snmp, AlertKind::LinkDown, 0, far, 1.0)],
        );
        let inputs = ev.derive_inputs(&i);
        assert!(inputs.circuit_sets.is_empty());
    }

    #[test]
    fn filter_drops_low_scores() {
        let t = topo();
        let ev = Evaluator::new(&t, EvaluatorConfig::default());
        let region = "Region-0";
        let mild = incident(
            region,
            vec![salert(
                DataSource::Ping,
                AlertKind::LatencyJitter,
                0,
                LocationPath::parse(region).unwrap(),
                0.0001,
            )],
        );
        let ping = PingLog::new();
        let scored = ev.rank(vec![mild], &ping);
        assert_eq!(ev.filter(&scored).count(), 0, "score {}", scored[0].score());
    }

    #[test]
    fn rank_builds_one_matrix_per_distinct_window() {
        let t = topo();
        let ev = Evaluator::new(&t, EvaluatorConfig::default());
        let site = t.clusters()[0].parent();
        // 24 incidents over only two distinct (first_seen, last_seen)
        // windows: a flood completed by two locator grid checks.
        let mut incidents = Vec::new();
        for i in 0..24u64 {
            let start = if i % 2 == 0 { 0 } else { 300 };
            incidents.push(incident(
                &site.to_string(),
                vec![
                    salert(
                        DataSource::Snmp,
                        AlertKind::LinkDown,
                        start,
                        site.clone(),
                        1.0,
                    ),
                    salert(
                        DataSource::Ping,
                        AlertKind::PacketLossIcmp,
                        start + 120,
                        site.clone(),
                        0.3,
                    ),
                ],
            ));
        }
        let mut ping = PingLog::new();
        ping.record(
            SimTime::from_secs(10),
            t.clusters()[0].clone(),
            t.clusters()[1].clone(),
            0.2,
        );
        let (scored, stats) = ev.rank_memoized(incidents, &ping);
        assert_eq!(scored.len(), 24);
        assert_eq!(stats.builds, 2, "one PingLog scan per distinct window");
        assert_eq!(stats.hits, 22, "every other incident shares a matrix");
        assert!(stats.hit_rate() > 0.9);
    }

    /// A link-down incident at `root` whose matrix window is
    /// `[start, start + 31)`.
    fn windowed(root: &LocationPath, start: u64) -> Incident {
        incident(
            &root.to_string(),
            vec![
                salert(
                    DataSource::Snmp,
                    AlertKind::LinkDown,
                    start,
                    root.clone(),
                    1.0,
                ),
                salert(
                    DataSource::Ping,
                    AlertKind::PacketLossIcmp,
                    start + 30,
                    root.clone(),
                    0.3,
                ),
            ],
        )
    }

    #[test]
    fn rank_matches_sequential_evaluation() {
        let t = topo();
        let ev = Evaluator::new(&t, EvaluatorConfig::default());
        // The logic site above the first cluster: six clusters under it.
        let root = t.clusters()[0].parent().parent();
        let clusters: Vec<&LocationPath> = t
            .clusters()
            .iter()
            .filter(|c| root.is_strict_ancestor_of(c))
            .collect();
        // One cluster lossy to and from every other, with a loss that
        // varies by second, so each window has its own non-empty matrix.
        let mut lossy = PingLog::new();
        for s in 0..110u64 {
            let other = clusters[1 + (s as usize % (clusters.len() - 1))];
            let loss = 0.03 + (s % 7) as f64 * 0.01;
            lossy.record(
                SimTime::from_secs(s),
                clusters[0].clone(),
                other.clone(),
                loss,
            );
            lossy.record(
                SimTime::from_secs(s),
                other.clone(),
                clusters[0].clone(),
                loss,
            );
        }
        // Window starts, and the (slides, rebuilds, hits) they take: in
        // time order over an empty log, then forward (the memo slides),
        // backward (it rebuilds) and repeated (it hits) over the lossy one.
        let inputs = [
            (
                PingLog::new(),
                [0, 7, 14, 21, 28, 35, 42, 49, 56],
                (8, 1, 0),
            ),
            (lossy, [0, 20, 40, 10, 60, 60, 30, 70, 5], (4, 4, 1)),
        ];
        for (ping, starts, lookups) in inputs {
            let incidents: Vec<Incident> = starts.iter().map(|&s| windowed(&root, s)).collect();
            let mut sequential: Vec<ScoredIncident> = incidents
                .iter()
                .map(|i| ev.evaluate(i.clone(), &ping))
                .collect();
            sequential.sort_by(|a, b| b.score().total_cmp(&a.score()));
            let (ranked, stats) = ev.rank_memoized(incidents, &ping);
            assert_eq!(ranked, sequential);
            assert_eq!((stats.delta_updates, stats.rebuilds, stats.hits), lookups);
            // A non-empty matrix decided at least one zoom.
            assert_eq!(
                ranked
                    .iter()
                    .any(|s| s.zoom.method == ZoomMethod::ReachabilityMatrix),
                !ping.samples().is_empty()
            );
        }
    }

    #[test]
    fn rank_checks_fault_arms_in_incident_order() {
        use crate::faultinject::{FaultAction, FaultConfig, FaultPlane, FaultRule, InjectionSite};
        use crate::obs::{ObsConfig, Observability};
        let t = topo();
        let site = t.clusters()[0].parent();
        let incidents: Vec<Incident> = (0..12u64).map(|i| windowed(&site, i * 5)).collect();
        let mut ping = PingLog::new();
        ping.record(
            SimTime::from_secs(10),
            t.clusters()[0].clone(),
            t.clusters()[1].clone(),
            0.2,
        );
        let cfg = FaultConfig::seeded(7)
            .with_rule(FaultRule::every(
                InjectionSite::MatrixBuild,
                2,
                FaultAction::Error,
            ))
            .with_rule(FaultRule::every(
                InjectionSite::Evaluate,
                3,
                FaultAction::Error,
            ));
        // Two identically seeded planes, one per evaluator.
        let armed = || {
            let obs = Observability::new(&ObsConfig::default());
            let plane = FaultPlane::from_config(&cfg, &obs).expect("active policy");
            let ev = Evaluator::new(&t, EvaluatorConfig::default()).with_faults(
                plane.arm(InjectionSite::MatrixBuild, 0),
                plane.arm(InjectionSite::Evaluate, 0),
            );
            (ev, plane)
        };
        let (one_by_one, plane_a) = armed();
        let mut sequential: Vec<ScoredIncident> = incidents
            .iter()
            .map(|i| one_by_one.evaluate(i.clone(), &ping))
            .collect();
        sequential.sort_by(|a, b| b.score().total_cmp(&a.score()));
        let (ranking, plane_b) = armed();
        assert_eq!(ranking.rank(incidents, &ping), sequential);
        assert_eq!(plane_a.ledger().len(), 12 / 2 + 12 / 3);
        assert_eq!(plane_a.ledger(), plane_b.ledger());
    }

    #[test]
    fn longer_incidents_score_higher() {
        let t = topo();
        let ev = Evaluator::new(&t, EvaluatorConfig::default());
        let site = t.clusters()[0].parent();
        let make = |end: u64| {
            incident(
                &site.to_string(),
                vec![
                    salert(DataSource::Snmp, AlertKind::LinkDown, 0, site.clone(), 1.0),
                    salert(
                        DataSource::Ping,
                        AlertKind::PacketLossIcmp,
                        end,
                        site.clone(),
                        0.3,
                    ),
                ],
            )
        };
        let ping = PingLog::new();
        let short = ev.evaluate(make(60), &ping);
        let long = ev.evaluate(make(3600), &ping);
        assert!(long.score() > short.score());
    }
}
