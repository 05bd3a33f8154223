//! Location zoom-in (§4.3, Fig. 7).
//!
//! Three behaviour-monitoring signals refine an incident's location:
//!
//! 1. **Reachability matrix** — end-to-end ping samples are aggregated into
//!    a src × dst loss matrix; a label whose row *and* column are both dark
//!    is the focal point (Fig. 7's Cluster ii).
//! 2. **sFlow trace-back** — if every sFlow loss alert in the incident
//!    traces to one node strictly inside the incident tree, zoom there.
//! 3. **INT** — same for in-band telemetry rate-mismatch alerts.
//!
//! When nothing refines the location, "emergency procedures revert to the
//! general location of the incident".

use crate::locator::Incident;
use crate::obs::{Counter, Observability};
use serde::{Deserialize, Serialize};
use skynet_model::PingLog;
use skynet_model::{
    AlertKind, LocId, LocationInterner, LocationLevel, LocationPath, PingSample, SimTime,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A dense src × dst loss matrix at one location granularity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReachabilityMatrix {
    /// Row/column labels (sorted location paths).
    pub labels: Vec<LocationPath>,
    /// `data[src][dst]` = mean observed loss (0 where no loss was seen).
    pub data: Vec<Vec<f64>>,
}

impl ReachabilityMatrix {
    /// The empty matrix: no samples, no focal points. Used as the degraded
    /// stand-in when a matrix-build fault is injected — zoom then falls
    /// through to the sFlow/INT signals.
    pub fn empty() -> Self {
        ReachabilityMatrix {
            labels: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Builds the matrix from lossy ping samples in `[from, to)`,
    /// truncating endpoints to `level`.
    ///
    /// Endpoints are interned into a matrix-local [`LocationInterner`] so
    /// the aggregation loop keys cells by `Copy` id pairs and truncates in
    /// id space; paths are only materialized once per label at the end.
    ///
    /// # Panics
    ///
    /// Panics if a ping sample endpoint is the bare hierarchy root.
    pub fn build(log: &PingLog, from: SimTime, to: SimTime, level: LocationLevel) -> Self {
        let mut interner = LocationInterner::new();
        let mut sums: HashMap<(LocId, LocId), (f64, u32)> = HashMap::new();
        for s in log.window(from, to) {
            let src = interner.intern(&s.src);
            let src = interner.truncate_at(src, level);
            let dst = interner.intern(&s.dst);
            let dst = interner.truncate_at(dst, level);
            let e = sums.entry((src, dst)).or_insert((0.0, 0));
            e.0 += s.loss;
            e.1 += 1;
        }
        // Only ids seen as endpoints become labels (the interner also holds
        // their ancestors); keep the historical string sort order.
        let mut ids: Vec<LocId> = sums.keys().flat_map(|&(src, dst)| [src, dst]).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.sort_by_cached_key(|&id| interner.path(id).to_string());
        let index: HashMap<LocId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let n = ids.len();
        let mut data = vec![vec![0.0; n]; n];
        for (&(src, dst), &(sum, count)) in &sums {
            data[index[&src]][index[&dst]] = sum / f64::from(count);
        }
        let labels = ids.iter().map(|&id| interner.path(id).clone()).collect();
        ReachabilityMatrix { labels, data }
    }

    /// Mean of a row excluding the diagonal.
    fn row_mean(&self, i: usize) -> f64 {
        let n = self.labels.len();
        if n <= 1 {
            return 0.0;
        }
        let sum: f64 = (0..n).filter(|&j| j != i).map(|j| self.data[i][j]).sum();
        sum / (n - 1) as f64
    }

    /// Mean of a column excluding the diagonal.
    fn col_mean(&self, j: usize) -> f64 {
        let n = self.labels.len();
        if n <= 1 {
            return 0.0;
        }
        let sum: f64 = (0..n).filter(|&i| i != j).map(|i| self.data[i][j]).sum();
        sum / (n - 1) as f64
    }

    /// Focal points: labels whose row *and* column means both dominate the
    /// overall mean by `factor` (and exceed `min_loss` absolutely). Fig. 7:
    /// the dark row+column pinpoints the incident.
    ///
    /// Loss matrices are sparse (a healthy pair never logs a sample, so
    /// most cells are exactly `0.0`), so the means are accumulated from
    /// packed `u64` presence rows — one bit per nonzero cell — iterating
    /// set bits in ascending order. Since the zero cells contribute exactly
    /// `+0.0` to a left-to-right fold, the sums (and therefore the focal
    /// verdicts) are bit-identical to the dense scan, which survives as
    /// [`ReachabilityMatrix::focal_points_dense`], the differential oracle.
    pub fn focal_points(&self, factor: f64, min_loss: f64) -> Vec<LocationPath> {
        let n = self.labels.len();
        if n <= 1 {
            return Vec::new();
        }
        // Pack the off-diagonal nonzero cells of each row into bit words.
        let words = n.div_ceil(64);
        let mut rows: Vec<u64> = vec![0; n * words];
        for i in 0..n {
            let row = &self.data[i];
            let bits = &mut rows[i * words..(i + 1) * words];
            for (j, &cell) in row.iter().enumerate() {
                if j != i && cell != 0.0 {
                    bits[j / 64] |= 1u64 << (j % 64);
                }
            }
        }
        // One pass over set bits accumulates row sums (ascending j within
        // each row), column sums (ascending i per column) and the overall
        // sum (lexicographic (i, j)) — the dense fold orders exactly.
        let mut row_sums = vec![0.0f64; n];
        let mut col_sums = vec![0.0f64; n];
        let mut total = 0.0f64;
        for i in 0..n {
            let bits = &rows[i * words..(i + 1) * words];
            for (w, &word) in bits.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let j = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let cell = self.data[i][j];
                    row_sums[i] += cell;
                    col_sums[j] += cell;
                    total += cell;
                }
            }
        }
        let overall = total / (n * (n - 1)) as f64;
        let mut out = Vec::new();
        for i in 0..n {
            let r = row_sums[i] / (n - 1) as f64;
            let c = col_sums[i] / (n - 1) as f64;
            if r >= min_loss && c >= min_loss && r >= overall * factor && c >= overall * factor {
                out.push(self.labels[i].clone());
            }
        }
        out
    }

    /// The original dense focal-point scan — kept as the differential
    /// oracle for the bitset path. Not part of the stable API.
    #[doc(hidden)]
    pub fn focal_points_dense(&self, factor: f64, min_loss: f64) -> Vec<LocationPath> {
        let n = self.labels.len();
        if n <= 1 {
            return Vec::new();
        }
        let overall: f64 = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| self.data[i][j])
            .sum::<f64>()
            / (n * (n - 1)) as f64;
        let mut out = Vec::new();
        for i in 0..n {
            let r = self.row_mean(i);
            let c = self.col_mean(i);
            if r >= min_loss && c >= min_loss && r >= overall * factor && c >= overall * factor {
                out.push(self.labels[i].clone());
            }
        }
        out
    }

    /// Renders the matrix as an ASCII table (loss percentages), Fig. 7
    /// style.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let names: Vec<String> = self
            .labels
            .iter()
            .map(|l| l.leaf().unwrap_or("<root>").to_string())
            .collect();
        let width = names.iter().map(String::len).max().unwrap_or(4).max(6);
        let _ = write!(s, "{:width$}", "");
        for n in &names {
            let _ = write!(s, " {n:>width$}");
        }
        let _ = writeln!(s);
        for (i, n) in names.iter().enumerate() {
            let _ = write!(s, "{n:width$}");
            for j in 0..names.len() {
                let _ = write!(s, " {:>width$.2}", self.data[i][j] * 100.0);
            }
            let _ = writeln!(s);
        }
        s
    }
}

/// Hit/build counters of a [`MatrixMemo`], exposed so callers can assert
/// the per-incident `PingLog` rescan is actually gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MatrixMemoStats {
    /// Matrices built for a cache miss (delta updates and full scans).
    pub builds: u64,
    /// Lookups served from an already-built matrix.
    pub hits: u64,
    /// Of the builds, how many were incremental slides of an existing
    /// window accumulator rather than full `PingLog` scans.
    #[serde(default)]
    pub delta_updates: u64,
    /// Of the builds, how many were full `PingLog` window scans.
    #[serde(default)]
    pub rebuilds: u64,
}

impl MatrixMemoStats {
    /// Fraction of lookups served without a log scan (1.0 when every
    /// lookup after the first of each window hit).
    pub fn hit_rate(&self) -> f64 {
        let total = self.builds + self.hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cell of a [`SlidingMatrix`]: the window's sample indexes for a
/// truncated (src, dst) pair, plus their cached loss sum.
#[derive(Debug, Default)]
struct SlidingCell {
    /// Log indexes of the cell's in-window samples, ascending.
    idxs: VecDeque<usize>,
    /// Cached sum of the samples' losses (valid when `!dirty`).
    sum: f64,
    /// Set when `idxs` changed since `sum` was folded.
    dirty: bool,
}

/// A per-level reachability-matrix accumulator over a sliding time window.
///
/// The streaming runtime asks for matrices over windows that mostly move
/// forward (incidents complete in time order). Instead of rescanning the
/// whole [`PingLog`] per window, this keeps the current window's samples
/// bucketed per truncated (src, dst) cell; a forward slide pops expired
/// front indexes and appends the new tail — O(samples entering + leaving).
///
/// Snapshots are **bit-identical** to [`ReachabilityMatrix::build`]: dirty
/// cells re-fold their sums over ascending log indexes (build's exact scan
/// order), labels sort by path string (build's exact label order), and the
/// mean divides the same operands. Non-forward windows and logs without the
/// time-ordered watermark fall back to a full scan.
#[derive(Debug)]
struct SlidingMatrix {
    level: LocationLevel,
    /// Persistent endpoint interner (ids are stable across slides; labels
    /// are materialized per snapshot, ordered by path string).
    interner: LocationInterner,
    cells: HashMap<(LocId, LocId), SlidingCell>,
    from: SimTime,
    to: SimTime,
    /// Log index range [lo, hi) currently folded into `cells`.
    lo: usize,
    hi: usize,
    /// Timestamp of sample `hi - 1` when the window was last folded — a
    /// cheap guard against the log prefix shifting under us (e.g. via a
    /// re-sorting merge); a mismatch forces a full rebuild.
    edge_t: Option<SimTime>,
    /// [`PingLog::mutation_epoch`] when the window was last folded. A
    /// re-sorting merge can reorder samples *between* equal boundary
    /// timestamps, which `edge_t` alone cannot see; an epoch change
    /// forces a full rebuild.
    log_epoch: u64,
    initialized: bool,
}

impl SlidingMatrix {
    fn new(level: LocationLevel) -> Self {
        SlidingMatrix {
            level,
            interner: LocationInterner::new(),
            cells: HashMap::new(),
            from: SimTime::ZERO,
            to: SimTime::ZERO,
            lo: 0,
            hi: 0,
            edge_t: None,
            log_epoch: 0,
            initialized: false,
        }
    }

    /// Produces the matrix for `[from, to)`, sliding incrementally when the
    /// window moved forward over an append-only time-ordered log. Returns
    /// `(matrix, used_delta)`.
    fn advance(&mut self, log: &PingLog, from: SimTime, to: SimTime) -> (ReachabilityMatrix, bool) {
        if !log.is_time_ordered() {
            // No binary-searchable structure; positional bookkeeping may no
            // longer describe this log either.
            self.cells.clear();
            self.initialized = false;
            return (ReachabilityMatrix::build(log, from, to, self.level), false);
        }
        let samples = log.samples();
        let lo = samples.partition_point(|s| s.t < from);
        let hi = samples.partition_point(|s| s.t < to);
        let prefix_intact = samples.len() >= self.hi
            && log.mutation_epoch() == self.log_epoch
            && (self.hi == 0 || Some(samples[self.hi - 1].t) == self.edge_t);
        let forward = self.initialized && from >= self.from && to >= self.to && prefix_intact;
        let delta = if forward {
            // Samples leaving at the front (only those actually folded).
            for idx in self.lo..lo.min(self.hi) {
                self.remove_sample(samples, idx);
            }
            // Samples entering at the tail.
            for idx in self.hi.max(lo)..hi {
                self.add_sample(samples, idx);
            }
            true
        } else {
            self.cells.clear();
            for idx in lo..hi {
                self.add_sample(samples, idx);
            }
            false
        };
        self.from = from;
        self.to = to;
        self.lo = lo;
        self.hi = hi;
        self.edge_t = hi.checked_sub(1).map(|i| samples[i].t);
        self.log_epoch = log.mutation_epoch();
        self.initialized = true;
        (self.snapshot(samples), delta)
    }

    fn cell_key(&mut self, s: &PingSample) -> (LocId, LocId) {
        let src = self.interner.intern(&s.src);
        let src = self.interner.truncate_at(src, self.level);
        let dst = self.interner.intern(&s.dst);
        let dst = self.interner.truncate_at(dst, self.level);
        (src, dst)
    }

    fn add_sample(&mut self, samples: &[PingSample], idx: usize) {
        let key = self.cell_key(&samples[idx]);
        let cell = self.cells.entry(key).or_default();
        cell.idxs.push_back(idx);
        cell.dirty = true;
    }

    fn remove_sample(&mut self, samples: &[PingSample], idx: usize) {
        let key = self.cell_key(&samples[idx]);
        let cell = self.cells.get_mut(&key).expect("removing a folded sample");
        let front = cell.idxs.pop_front();
        debug_assert_eq!(front, Some(idx), "window slides evict in index order");
        cell.dirty = true;
        if cell.idxs.is_empty() {
            self.cells.remove(&key);
        }
    }

    fn snapshot(&mut self, samples: &[PingSample]) -> ReachabilityMatrix {
        // Re-fold dirty cells over ascending indexes — the same operand
        // sequence as build()'s single scan, so sums are bit-identical.
        for cell in self.cells.values_mut() {
            if cell.dirty {
                cell.sum = cell.idxs.iter().map(|&i| samples[i].loss).sum();
                cell.dirty = false;
            }
        }
        let mut ids: Vec<LocId> = self
            .cells
            .keys()
            .flat_map(|&(src, dst)| [src, dst])
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.sort_by_cached_key(|&id| self.interner.path(id).to_string());
        let index: HashMap<LocId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let n = ids.len();
        let mut data = vec![vec![0.0; n]; n];
        for (&(src, dst), cell) in &self.cells {
            data[index[&src]][index[&dst]] = cell.sum / f64::from(cell.idxs.len() as u32);
        }
        let labels = ids
            .iter()
            .map(|&id| self.interner.path(id).clone())
            .collect();
        ReachabilityMatrix { labels, data }
    }
}

/// Memo of reachability matrices keyed by `(window, level)`.
///
/// Incidents born of one flood overwhelmingly share their evaluation
/// windows (a grid check completes siblings with identical time bounds),
/// so the evaluator builds each distinct matrix **once** and shares it
/// across incidents behind an [`Arc`] instead of rescanning the
/// [`PingLog`] per incident.
///
/// Cache entries remember the log length they were built at: a streaming
/// worker's log grows between drains, so a same-window lookup over a grown
/// log is a *miss* (the cached matrix may be missing fresh samples) and
/// rebuilds via the per-level `SlidingMatrix` — usually an O(delta)
/// slide rather than a full scan.
#[derive(Debug, Default)]
pub struct MatrixMemo {
    map: HashMap<(SimTime, SimTime, LocationLevel), (Arc<ReachabilityMatrix>, usize)>,
    sliders: HashMap<LocationLevel, SlidingMatrix>,
    stats: MatrixMemoStats,
    counters: Option<MemoCounters>,
}

/// The registry side of [`MatrixMemoStats`], one counter per field.
#[derive(Debug)]
struct MemoCounters {
    builds: Counter,
    hits: Counter,
    delta_updates: Counter,
    rebuilds: Counter,
}

impl MatrixMemo {
    /// An empty memo.
    pub fn new() -> Self {
        MatrixMemo::default()
    }

    /// Wires the memo's four counters into an observability registry.
    pub fn with_observability(mut self, obs: &Observability) -> Self {
        let reg = obs.registry();
        self.counters = Some(MemoCounters {
            builds: reg.counter(
                "skynet_matrix_builds_total",
                "reachability matrices built by the evaluator's zoom stage",
            ),
            hits: reg.counter(
                "skynet_matrix_hits_total",
                "reachability-matrix memo hits in the evaluator's zoom stage",
            ),
            delta_updates: reg.counter(
                "skynet_matrix_delta_updates_total",
                "reachability matrices produced by sliding-window delta updates",
            ),
            rebuilds: reg.counter(
                "skynet_matrix_rebuilds_total",
                "reachability matrices produced by full ping-log window scans",
            ),
        });
        self
    }

    /// The matrix for `[from, to)` at `level`, building (and caching) it on
    /// first request — and re-building if the log has grown since the
    /// cached entry was folded.
    pub fn get_or_build(
        &mut self,
        log: &PingLog,
        from: SimTime,
        to: SimTime,
        level: LocationLevel,
    ) -> Arc<ReachabilityMatrix> {
        // Each stat moves together with its registry counter, if wired.
        fn bump(stat: &mut u64, counter: Option<&Counter>) {
            *stat += 1;
            if let Some(c) = counter {
                c.inc();
            }
        }
        let counters = self.counters.as_ref();
        let log_len = log.samples().len();
        if let Some((matrix, cached_len)) = self.map.get(&(from, to, level)) {
            if *cached_len == log_len {
                bump(&mut self.stats.hits, counters.map(|c| &c.hits));
                return Arc::clone(matrix);
            }
        }
        bump(&mut self.stats.builds, counters.map(|c| &c.builds));
        let slider = self
            .sliders
            .entry(level)
            .or_insert_with(|| SlidingMatrix::new(level));
        let (matrix, delta) = slider.advance(log, from, to);
        if delta {
            bump(
                &mut self.stats.delta_updates,
                counters.map(|c| &c.delta_updates),
            );
        } else {
            bump(&mut self.stats.rebuilds, counters.map(|c| &c.rebuilds));
        }
        let matrix = Arc::new(matrix);
        self.map
            .insert((from, to, level), (Arc::clone(&matrix), log_len));
        matrix
    }

    /// Counters so far.
    pub fn stats(&self) -> MatrixMemoStats {
        self.stats
    }
}

/// How a zoomed location was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ZoomMethod {
    /// Focal point of the ping reachability matrix.
    ReachabilityMatrix,
    /// All sFlow loss alerts traced back to one node.
    SflowTraceback,
    /// All INT rate-mismatch alerts pointed at one node.
    InbandTelemetry,
    /// No refinement possible; the incident's general location stands.
    None,
}

/// Result of the zoom-in: a (possibly refined) location and how it was
/// found.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoomResult {
    /// The refined location (equals the incident root when `method` is
    /// [`ZoomMethod::None`]).
    pub location: LocationPath,
    /// Which signal produced the refinement.
    pub method: ZoomMethod,
}

/// Deepest common ancestor of all alerts of a kind inside the incident,
/// if there is at least one such alert.
fn alert_dca(incident: &Incident, kinds: &[AlertKind]) -> Option<LocationPath> {
    let mut it = incident
        .alerts
        .iter()
        .filter(|a| kinds.contains(&a.ty.kind))
        .map(|a| &a.location);
    let first = it.next()?.clone();
    Some(it.fold(first, |acc, l| acc.common_ancestor(l)))
}

/// The reachability-matrix window for an incident: its time span plus one
/// second so the final samples are inside the half-open bound, at cluster
/// granularity (Fig. 7 zooms to Cluster ii).
pub fn matrix_window(incident: &Incident) -> (SimTime, SimTime, LocationLevel) {
    (
        incident.first_seen,
        incident.last_seen + skynet_model::SimDuration::from_secs(1),
        LocationLevel::Cluster,
    )
}

/// Runs the three zoom-in signals in order and returns the deepest
/// refinement strictly inside the incident root.
pub fn zoom(
    incident: &Incident,
    ping: &PingLog,
    matrix_factor: f64,
    matrix_min_loss: f64,
) -> ZoomResult {
    let (from, to, level) = matrix_window(incident);
    let matrix = ReachabilityMatrix::build(ping, from, to, level);
    zoom_with(incident, &matrix, matrix_factor, matrix_min_loss)
}

/// [`zoom`] with a prebuilt reachability matrix for the incident's
/// [`matrix_window`] — the shape the memoized batch evaluator uses so the
/// `PingLog` is scanned once per distinct window, not once per incident.
pub fn zoom_with(
    incident: &Incident,
    matrix: &ReachabilityMatrix,
    matrix_factor: f64,
    matrix_min_loss: f64,
) -> ZoomResult {
    let mut best: Option<(LocationPath, ZoomMethod)> = None;
    let mut consider = |loc: LocationPath, method: ZoomMethod| {
        if !incident.root.is_strict_ancestor_of(&loc) {
            return;
        }
        match &best {
            Some((b, _)) if b.depth() >= loc.depth() => {}
            _ => best = Some((loc, method)),
        }
    };

    // 1. Reachability matrix focal point at cluster granularity.
    for focal in matrix.focal_points(matrix_factor, matrix_min_loss) {
        consider(focal, ZoomMethod::ReachabilityMatrix);
    }

    // 2. sFlow trace-back.
    if let Some(loc) = alert_dca(incident, &[AlertKind::SflowPacketLoss]) {
        consider(loc, ZoomMethod::SflowTraceback);
    }

    // 3. INT.
    if let Some(loc) = alert_dca(incident, &[AlertKind::IntPacketLoss]) {
        consider(loc, ZoomMethod::InbandTelemetry);
    }

    match best {
        Some((location, method)) => ZoomResult { location, method },
        None => ZoomResult {
            location: incident.root.clone(),
            method: ZoomMethod::None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skynet_model::{DataSource, IncidentId, RawAlert, StructuredAlert};

    fn p(s: &str) -> LocationPath {
        LocationPath::parse(s).unwrap()
    }

    fn cluster(k: &str) -> LocationPath {
        p(&format!("R|C|L|S|{k}"))
    }

    /// A log reproducing Fig. 7: Cluster-ii is lossy to and from everyone.
    fn figure7_log() -> PingLog {
        let mut log = PingLog::new();
        let names = ["K-o", "K-i", "K-ii", "K-iii", "K-iv"];
        for (i, a) in names.iter().enumerate() {
            for (j, b) in names.iter().enumerate() {
                if i == j {
                    continue;
                }
                let loss = if *a == "K-ii" || *b == "K-ii" {
                    0.08
                } else {
                    0.0
                };
                log.record(SimTime::from_secs(10), cluster(a), cluster(b), loss);
            }
        }
        log
    }

    #[test]
    fn focal_point_matches_figure7() {
        let log = figure7_log();
        let m = ReachabilityMatrix::build(
            &log,
            SimTime::ZERO,
            SimTime::from_secs(100),
            LocationLevel::Cluster,
        );
        let focal = m.focal_points(1.5, 0.01);
        assert_eq!(focal, vec![cluster("K-ii")]);
    }

    #[test]
    fn healthy_matrix_has_no_focal_point() {
        let mut log = PingLog::new();
        log.record(SimTime::ZERO, cluster("K-o"), cluster("K-i"), 0.001);
        let m = ReachabilityMatrix::build(
            &log,
            SimTime::ZERO,
            SimTime::from_secs(100),
            LocationLevel::Cluster,
        );
        assert!(m.focal_points(1.5, 0.01).is_empty());
    }

    #[test]
    fn render_contains_labels_and_rates() {
        let m = ReachabilityMatrix::build(
            &figure7_log(),
            SimTime::ZERO,
            SimTime::from_secs(100),
            LocationLevel::Cluster,
        );
        let text = m.render();
        assert!(text.contains("K-ii"));
        assert!(text.contains("8.00"));
    }

    fn incident_with(alerts: Vec<StructuredAlert>) -> Incident {
        Incident {
            id: IncidentId(0),
            root: p("R|C|L|S"),
            first_seen: SimTime::ZERO,
            last_seen: SimTime::from_secs(60),
            alerts,
        }
    }

    fn salert(kind: AlertKind, location: &LocationPath) -> StructuredAlert {
        let raw = RawAlert::known(
            DataSource::TrafficStats,
            SimTime::ZERO,
            location.clone(),
            kind,
        );
        StructuredAlert::from_raw(&raw, kind)
    }

    #[test]
    fn matrix_zoom_refines_to_the_focal_cluster() {
        let incident = incident_with(vec![salert(AlertKind::PacketLossIcmp, &p("R|C|L|S"))]);
        let z = zoom(&incident, &figure7_log(), 1.5, 0.01);
        assert_eq!(z.method, ZoomMethod::ReachabilityMatrix);
        assert_eq!(z.location, cluster("K-ii"));
    }

    #[test]
    fn sflow_traceback_zooms_when_alerts_converge() {
        let incident = incident_with(vec![
            salert(AlertKind::SflowPacketLoss, &cluster("K-i")),
            salert(AlertKind::SflowPacketLoss, &cluster("K-i")),
        ]);
        let z = zoom(&incident, &PingLog::new(), 1.5, 0.01);
        assert_eq!(z.method, ZoomMethod::SflowTraceback);
        assert_eq!(z.location, cluster("K-i"));
    }

    #[test]
    fn divergent_evidence_keeps_the_general_location() {
        // sFlow alerts spread across two clusters: their DCA is the site
        // itself — not strictly inside, so no refinement.
        let incident = incident_with(vec![
            salert(AlertKind::SflowPacketLoss, &cluster("K-i")),
            salert(AlertKind::SflowPacketLoss, &cluster("K-ii")),
        ]);
        let z = zoom(&incident, &PingLog::new(), 1.5, 0.01);
        assert_eq!(z.method, ZoomMethod::None);
        assert_eq!(z.location, p("R|C|L|S"));
    }

    #[test]
    fn memo_builds_each_window_once() {
        let log = figure7_log();
        let mut memo = MatrixMemo::new();
        let a = memo.get_or_build(
            &log,
            SimTime::ZERO,
            SimTime::from_secs(100),
            LocationLevel::Cluster,
        );
        let b = memo.get_or_build(
            &log,
            SimTime::ZERO,
            SimTime::from_secs(100),
            LocationLevel::Cluster,
        );
        assert!(Arc::ptr_eq(&a, &b), "second lookup shares the first build");
        // A different window or level is a genuinely different matrix.
        let _ = memo.get_or_build(
            &log,
            SimTime::ZERO,
            SimTime::from_secs(50),
            LocationLevel::Cluster,
        );
        let _ = memo.get_or_build(
            &log,
            SimTime::ZERO,
            SimTime::from_secs(100),
            LocationLevel::Site,
        );
        let stats = memo.stats();
        assert_eq!(stats.builds, 3);
        assert_eq!(stats.hits, 1);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zoom_with_matches_zoom_on_the_incident_window() {
        let log = figure7_log();
        let incident = incident_with(vec![salert(AlertKind::PacketLossIcmp, &p("R|C|L|S"))]);
        let (from, to, level) = matrix_window(&incident);
        let matrix = ReachabilityMatrix::build(&log, from, to, level);
        assert_eq!(
            zoom_with(&incident, &matrix, 1.5, 0.01),
            zoom(&incident, &log, 1.5, 0.01)
        );
    }

    #[test]
    fn bitset_focal_points_match_dense_oracle() {
        // Figure 7's sparse matrix plus a denser synthetic one.
        let mut lossy = figure7_log();
        for (i, a) in ["K-o", "K-i", "K-iii"].iter().enumerate() {
            for b in ["K-iv", "K-ii"] {
                lossy.record(
                    SimTime::from_secs(20 + i as u64),
                    cluster(a),
                    cluster(b),
                    0.01 + i as f64 * 0.03,
                );
            }
        }
        for log in [figure7_log(), lossy, PingLog::new()] {
            let m = ReachabilityMatrix::build(
                &log,
                SimTime::ZERO,
                SimTime::from_secs(100),
                LocationLevel::Cluster,
            );
            for (factor, min_loss) in [(1.5, 0.01), (1.0, 0.0), (0.5, 0.001)] {
                assert_eq!(
                    m.focal_points(factor, min_loss),
                    m.focal_points_dense(factor, min_loss),
                    "factor {factor}, min_loss {min_loss}"
                );
            }
        }
    }

    #[test]
    fn sliding_matrix_matches_build_across_forward_slides() {
        let mut log = PingLog::new();
        let names = ["K-o", "K-i", "K-ii", "K-iii"];
        for t in 0..200u64 {
            let a = names[(t % 4) as usize];
            let b = names[((t / 4) % 4) as usize];
            if a != b {
                log.record(
                    SimTime::from_secs(t),
                    cluster(a),
                    cluster(b),
                    0.02 + (t % 7) as f64 * 0.01,
                );
            }
        }
        let mut slider = SlidingMatrix::new(LocationLevel::Cluster);
        let windows = [
            (0u64, 50u64),
            (10, 60),  // forward slide
            (10, 90),  // grow right edge only
            (40, 90),  // advance left edge only
            (80, 120), // disjoint forward jump
            (30, 100), // non-forward: left edge moved back => full rebuild
            (30, 100), // identical window, delta with zero ops
        ];
        for (i, (from, to)) in windows.into_iter().enumerate() {
            let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(to));
            let (slid, delta) = slider.advance(&log, from, to);
            let built = ReachabilityMatrix::build(&log, from, to, LocationLevel::Cluster);
            assert_eq!(slid, built, "window {i}");
            assert_eq!(delta, ![0, 5].contains(&i), "window {i} slide mode");
        }
    }

    #[test]
    fn sliding_matrix_rescans_unsorted_logs() {
        let mut log = PingLog::new();
        log.record(SimTime::from_secs(50), cluster("K-o"), cluster("K-i"), 0.2);
        log.record(SimTime::from_secs(10), cluster("K-i"), cluster("K-o"), 0.1);
        assert!(!log.is_time_ordered());
        let mut slider = SlidingMatrix::new(LocationLevel::Cluster);
        let (from, to) = (SimTime::ZERO, SimTime::from_secs(100));
        let (slid, delta) = slider.advance(&log, from, to);
        assert!(!delta, "unsorted logs cannot slide");
        assert_eq!(
            slid,
            ReachabilityMatrix::build(&log, from, to, LocationLevel::Cluster)
        );
    }

    #[test]
    fn memo_rebuilds_when_the_log_grows_inside_a_cached_window() {
        let mut log = figure7_log();
        let mut memo = MatrixMemo::new();
        let (from, to) = (SimTime::ZERO, SimTime::from_secs(100));
        let a = memo.get_or_build(&log, from, to, LocationLevel::Cluster);
        // The log grows *inside* the cached window — the streaming shape:
        // pings keep arriving between drains.
        log.record(SimTime::from_secs(60), cluster("K-o"), cluster("K-i"), 0.5);
        let b = memo.get_or_build(&log, from, to, LocationLevel::Cluster);
        assert!(!Arc::ptr_eq(&a, &b), "a grown log must not hit the cache");
        assert_eq!(
            *b,
            ReachabilityMatrix::build(&log, from, to, LocationLevel::Cluster)
        );
        let stats = memo.stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.builds, stats.delta_updates + stats.rebuilds);
        // Unchanged log, same window: a genuine hit.
        let c = memo.get_or_build(&log, from, to, LocationLevel::Cluster);
        assert!(Arc::ptr_eq(&b, &c));
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn deepest_refinement_wins() {
        // INT points at a device, sFlow only at a cluster.
        let device = p("R|C|L|S|K-i|dev-3");
        let incident = incident_with(vec![
            salert(AlertKind::SflowPacketLoss, &cluster("K-i")),
            salert(AlertKind::IntPacketLoss, &device),
        ]);
        let z = zoom(&incident, &PingLog::new(), 1.5, 0.01);
        assert_eq!(z.method, ZoomMethod::InbandTelemetry);
        assert_eq!(z.location, device);
    }
}
