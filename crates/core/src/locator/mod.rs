//! The locator (§4.2): hierarchical alert trees and incident discovery.
//!
//! A *main tree* indexed by location accumulates every structured alert
//! (Algorithm 1). Periodically (Algorithm 3) expired alerts are dropped —
//! the 5-minute node timeout absorbs the ~4-minute worst-case alert delay —
//! and incident generation (Algorithm 2) runs: alerting nodes are grouped
//! into *connected components* (two nodes connect when one's location
//! contains the other's, or the topology has a direct link between them —
//! "network alerts often propagate through topological links"), each
//! component's alerts are counted **once per type** (the false-positive fix
//! of §4.2), and a component crossing the `A/B+C/D` thresholds becomes an
//! *incident tree* rooted at the deepest location covering a quorum of the
//! component's alert types (DESIGN.md; plain deepest-common-ancestor at
//! `root_quorum = 1.0`). Incident trees absorb matching new alerts, grow
//! upward by replacing contained incidents, and finalize after 15 idle
//! minutes.

//!
//! ## Interned hot path
//!
//! The main tree is an index-addressed arena: every location is resolved to
//! a dense [`LocId`] exactly once, when its alert enters [`Locator::insert`],
//! and Algorithms 1–3 then run entirely on `Copy` ids — containment is two
//! array probes, adjacency a walk (or binary search) of a sorted neighbor
//! list, and no [`LocationPath`] is cloned or re-hashed per alert. Paths reappear only on
//! finished [`Incident`]s (the serde/API boundary). The previous path-keyed
//! implementation survives as [`reference::PathLocator`], the differential
//! test oracle and benchmark baseline.

pub mod incident;
pub mod reference;
pub mod thresholds;

pub use incident::Incident;
pub use reference::PathLocator;
pub use thresholds::Thresholds;

use crate::obs::{Counter, Observability};
use serde::{Deserialize, Serialize};
use skynet_model::{
    AlertClass, AlertKind, AlertType, DataSource, IncidentId, LocId, LocationInterner,
    LocationLevel, LocationPath, SimDuration, SimTime, StructuredAlert,
};
use skynet_topology::Topology;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// How alerts under a node are counted against the thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CountingMode {
    /// Alerts of the same type count once regardless of location — the
    /// production setting ("we consolidate alarms of the same type from
    /// different devices into a single alert", §4.2).
    TypeDistinct,
    /// Alerts of the same type at different locations count separately —
    /// Fig. 9's `type+location` baseline (false positives jump to ~70%).
    TypeAndLocation,
}

/// How Algorithm 3 maintains the main tree between checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MaintenanceMode {
    /// Delta-per-event: alert expiry runs off an expiry wheel (O(evictions)
    /// per tick instead of O(active)), per-region alert counts are
    /// maintained incrementally on insert/expiry, component grouping uses
    /// linear ancestor/sibling/adjacency probes, incident generation is
    /// skipped entirely on ticks where nothing structural changed, and a
    /// component stops being carved once an open incident covers what is
    /// left of it. Produces byte-identical incidents to
    /// [`MaintenanceMode::Rescan`].
    #[default]
    Incremental,
    /// Rebuild-per-tick: the original full `retain` scans, pairwise
    /// connectivity checks and per-candidate quorum scans, every component
    /// carved to the end. Kept as the differential oracle (and the
    /// benchmark baseline) for the incremental path.
    Rescan,
}

/// Locator knobs. Defaults are the paper's production values.
///
/// `#[non_exhaustive]`: construct via [`LocatorConfig::default`] and the
/// fluent `with_*` setters so future knobs are not breaking changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct LocatorConfig {
    /// Incident-generation thresholds (`2/1+2/5` in production).
    pub thresholds: Thresholds,
    /// Counting mode (type-distinct in production).
    pub counting: CountingMode,
    /// Main-tree alert expiry — 5 minutes: longer than the worst-case
    /// ~4-minute alert delay, as short as possible beyond that (§4.2).
    pub node_timeout: SimDuration,
    /// Incident-tree idle timeout — 15 minutes ("timeliness is not
    /// critical here", §4.2).
    pub incident_timeout: SimDuration,
    /// How often Algorithms 2–3 run.
    pub check_interval: SimDuration,
    /// Use topology links when grouping alerting nodes (disabling leaves
    /// only hierarchical containment — an ablation knob).
    pub use_topology_connectivity: bool,
    /// Incident roots are placed at the deepest location covering at least
    /// this fraction of the component's distinct alert types, so a single
    /// stray alert at a broad location (a noise blip on a border router)
    /// cannot flatten the incident to the network root. `1.0` reduces to
    /// the plain deepest-common-ancestor (an ablation knob).
    pub root_quorum: f64,
    /// Main-tree maintenance strategy (incremental in production; the
    /// rescan oracle is a differential-testing knob). `serde(default)` so
    /// configs written before this knob existed still deserialize.
    #[serde(default)]
    pub maintenance: MaintenanceMode,
}

impl Default for LocatorConfig {
    fn default() -> Self {
        LocatorConfig {
            thresholds: Thresholds::PRODUCTION,
            counting: CountingMode::TypeDistinct,
            node_timeout: SimDuration::from_mins(5),
            incident_timeout: SimDuration::from_mins(15),
            check_interval: SimDuration::from_secs(10),
            use_topology_connectivity: true,
            root_quorum: 0.8,
            maintenance: MaintenanceMode::Incremental,
        }
    }
}

impl LocatorConfig {
    /// Sets the incident-generation thresholds.
    pub fn with_thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Sets the counting mode.
    pub fn with_counting(mut self, counting: CountingMode) -> Self {
        self.counting = counting;
        self
    }

    /// Sets the main-tree alert expiry.
    pub fn with_node_timeout(mut self, timeout: SimDuration) -> Self {
        self.node_timeout = timeout;
        self
    }

    /// Sets the incident-tree idle timeout.
    pub fn with_incident_timeout(mut self, timeout: SimDuration) -> Self {
        self.incident_timeout = timeout;
        self
    }

    /// Sets how often Algorithms 2–3 run.
    pub fn with_check_interval(mut self, interval: SimDuration) -> Self {
        self.check_interval = interval;
        self
    }

    /// Enables or disables topology-connectivity grouping.
    pub fn with_topology_connectivity(mut self, enabled: bool) -> Self {
        self.use_topology_connectivity = enabled;
        self
    }

    /// Sets the root-quorum fraction.
    pub fn with_root_quorum(mut self, quorum: f64) -> Self {
        self.root_quorum = quorum;
        self
    }

    /// Sets the main-tree maintenance strategy.
    pub fn with_maintenance(mut self, maintenance: MaintenanceMode) -> Self {
        self.maintenance = maintenance;
        self
    }
}

/// One location's live alerts, keyed by type: a repeat of the same type
/// *updates* the stored alert rather than adding a new one (§4.1's
/// "updates the timestamp of the initial alert").
#[derive(Debug, Clone, Default)]
struct Node {
    alerts: HashMap<AlertType, StructuredAlert>,
}

impl Node {
    fn add(&mut self, alert: &StructuredAlert) {
        self.alerts
            .entry(alert.ty)
            .and_modify(|existing| existing.absorb(alert))
            .or_insert_with(|| alert.clone());
    }
}

#[derive(Debug, Clone)]
struct OpenIncident {
    id: IncidentId,
    root: LocId,
    nodes: HashMap<LocId, Node>,
    update_time: SimTime,
}

impl OpenIncident {
    fn add(&mut self, loc: LocId, alert: &StructuredAlert) {
        self.nodes.entry(loc).or_default().add(alert);
        self.update_time = self.update_time.max_of(alert.last_seen);
    }

    fn into_incident(self, interner: &LocationInterner) -> Incident {
        let mut alerts: Vec<StructuredAlert> = self
            .nodes
            .into_values()
            .flat_map(|n| n.alerts.into_values())
            .collect();
        alerts.sort_by(|a, b| {
            a.first_seen
                .cmp(&b.first_seen)
                .then_with(|| a.location.cmp(&b.location))
                .then_with(|| a.ty.cmp(&b.ty))
        });
        let first_seen = alerts
            .iter()
            .map(|a| a.first_seen)
            .min()
            .unwrap_or(SimTime::ZERO);
        let last_seen = alerts
            .iter()
            .map(|a| a.last_seen)
            .max()
            .unwrap_or(SimTime::ZERO);
        Incident {
            id: self.id,
            root: interner.path(self.root).clone(),
            first_seen,
            last_seen,
            alerts,
        }
    }
}

/// One main-tree node's alerts in a [`LocatorState`], sorted by type so
/// identical states serialize identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct NodeState {
    loc: u32,
    alerts: Vec<StructuredAlert>,
}

/// One open incident tree in a [`LocatorState`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OpenIncidentState {
    id: IncidentId,
    root: u32,
    nodes: Vec<NodeState>,
    update_time: SimTime,
}

/// Serializable mid-flood locator state for warm restarts.
///
/// Captures the arena's live alerts (in `active` order), open and
/// completed incidents, the check grid position and the id counter.
/// Location ids are stored as raw indices: the snapshot also records the
/// paths the locator interned *beyond* its topology base, in id order, so
/// a restored locator built over the same topology re-interns them and
/// reproduces the identical id space. The expiry wheel, region tallies
/// and active index are derived state and are rebuilt on restore; stale
/// wheel entries from pre-snapshot refreshes are deliberately not carried
/// over — the drain skips them by re-checking live timestamps, so their
/// absence changes neither evictions nor incidents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocatorState {
    base_locs: usize,
    extra_paths: Vec<LocationPath>,
    active: Vec<u32>,
    main: Vec<NodeState>,
    open: Vec<OpenIncidentState>,
    completed: Vec<Incident>,
    next_check: SimTime,
    next_id: u32,
    dirty: bool,
}

impl LocatorState {
    /// The number of topology-interned locations this state was captured
    /// over. [`Locator::restore_state`] requires a locator built over the
    /// same base; callers restoring untrusted state check this first.
    pub fn base_locs(&self) -> usize {
        self.base_locs
    }
}

/// "Unset" in the locator's dense `u32` slot vectors.
const NONE: u32 = u32::MAX;

/// The alert-type catalog is a fixed source × kind grid, so a type's dense
/// index is its grid cell and a type set is a bitset over the grid.
const TYPE_UNIVERSE: usize = DataSource::ALL.len() * AlertKind::ALL.len();
const TYPE_WORDS: usize = TYPE_UNIVERSE.div_ceil(64);

const fn type_index(ty: AlertType) -> usize {
    ty.source as usize * AlertKind::ALL.len() + ty.kind as usize
}

/// A set of alert types, for the once-per-type counting of §4.2.
#[derive(Debug, Clone, Copy, Default)]
struct TypeSet([u64; TYPE_WORDS]);

impl TypeSet {
    /// Every Failure-class type of the catalog.
    const FAILURES: TypeSet = {
        let mut words = [0; TYPE_WORDS];
        let mut s = 0;
        while s < DataSource::ALL.len() {
            let mut k = 0;
            while k < AlertKind::ALL.len() {
                let ty = AlertType::new(DataSource::ALL[s], AlertKind::ALL[k]);
                if matches!(ty.class(), AlertClass::Failure) {
                    let i = type_index(ty);
                    words[i / 64] |= 1 << (i % 64);
                }
                k += 1;
            }
            s += 1;
        }
        TypeSet(words)
    };

    fn insert(&mut self, ty: AlertType) {
        let i = type_index(ty);
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn union_with(&mut self, other: &TypeSet) {
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w |= o;
        }
    }

    /// `(failure_types, all_types)` — the pair [`Thresholds::is_met`] takes.
    fn counts(&self) -> (u32, u32) {
        let mut failure = 0;
        let mut all = 0;
        for (w, f) in self.0.iter().zip(&Self::FAILURES.0) {
            failure += (w & f).count_ones();
            all += w.count_ones();
        }
        (failure, all)
    }
}

/// Union-find root lookup with path halving.
fn find(parent: &mut [usize], i: usize) -> usize {
    let mut i = i;
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

fn union(parent: &mut [usize], i: usize, j: usize) {
    let (ri, rj) = (find(parent, i), find(parent, j));
    if ri != rj {
        parent[ri] = rj;
    }
}

/// One connected component of a tick's grouping: a run of
/// [`Grouping::members`].
#[derive(Debug, Clone, Copy)]
struct Component {
    /// The component's first location in path order — its sort key.
    min_loc: LocId,
    start: usize,
    len: usize,
}

/// One tick's grouping of alerting nodes into connected components. Lives
/// on the locator between ticks so a dirty tick reuses its buffers.
#[derive(Debug, Default)]
struct Grouping {
    /// Union-find forest over positions in the tick's location list.
    parent: Vec<usize>,
    /// Index into `components` for each grouped position (and, while
    /// collecting, for each union-find root), `NONE` for skipped ones.
    component_of: Vec<u32>,
    components: Vec<Component>,
    /// Every grouped location, each component's members contiguous.
    members: Vec<LocId>,
    /// The current component's not-yet-carved members.
    remaining: Vec<LocId>,
}

impl Grouping {
    /// Starts a tick over `n` locations, each its own component.
    fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
    }

    /// Collects the union-find forest into `components`/`members`, skipping
    /// locations `keep` rejects, in the deterministic carve order: by each
    /// component's first location in path order (id order is interning
    /// order, not path order).
    fn collect(
        &mut self,
        locations: &[LocId],
        interner: &LocationInterner,
        keep: impl Fn(LocId) -> bool,
    ) {
        let n = locations.len();
        self.component_of.clear();
        self.component_of.resize(n, NONE);
        self.components.clear();
        for (i, &loc) in locations.iter().enumerate() {
            if !keep(loc) {
                continue;
            }
            let root = find(&mut self.parent, i);
            match self.component_of[root] {
                NONE => {
                    self.component_of[root] = self.components.len() as u32;
                    self.components.push(Component {
                        min_loc: loc,
                        start: 0,
                        len: 1,
                    });
                }
                c => {
                    let component = &mut self.components[c as usize];
                    component.len += 1;
                    if interner.cmp(loc, component.min_loc).is_lt() {
                        component.min_loc = loc;
                    }
                }
            }
            self.component_of[i] = self.component_of[root];
        }
        let mut total = 0;
        for component in &mut self.components {
            component.start = total;
            total += component.len;
            component.len = 0;
        }
        self.members.clear();
        self.members.resize(total, LocId::from_index(0));
        for (&loc, &c) in locations.iter().zip(&self.component_of) {
            if c != NONE {
                let component = &mut self.components[c as usize];
                self.members[component.start + component.len] = loc;
                component.len += 1;
            }
        }
        self.components
            .sort_by(|a, b| interner.cmp(a.min_loc, b.min_loc));
    }
}

/// Delta-maintained per-region alert tallies. Connectivity never crosses a
/// region, so a component's type set is always a subset of its region's —
/// and [`Thresholds::is_met`] is monotone in the joint (failure, other)
/// counts — which makes these counts a sound gate: a region that cannot
/// meet the thresholds cannot contain a threshold-crossing component.
#[derive(Debug, Clone)]
struct RegionCounts {
    /// How many active (location, type) pairs carry each alert type, by
    /// [`type_index`].
    type_refs: Box<[u32]>,
    /// Distinct active types in the region.
    distinct_all: u32,
    /// Distinct active Failure-class types in the region.
    distinct_failure: u32,
    /// Active (location, type) pairs in the region.
    pair_all: u32,
    /// Active Failure-class (location, type) pairs in the region.
    pair_failure: u32,
}

impl RegionCounts {
    fn new() -> Self {
        RegionCounts {
            type_refs: vec![0; TYPE_UNIVERSE].into_boxed_slice(),
            distinct_all: 0,
            distinct_failure: 0,
            pair_all: 0,
            pair_failure: 0,
        }
    }

    fn add(&mut self, ty: AlertType) {
        let failure = ty.class() == AlertClass::Failure;
        self.pair_all += 1;
        self.pair_failure += u32::from(failure);
        let refs = &mut self.type_refs[type_index(ty)];
        *refs += 1;
        if *refs == 1 {
            self.distinct_all += 1;
            self.distinct_failure += u32::from(failure);
        }
    }

    fn remove(&mut self, ty: AlertType) {
        let failure = ty.class() == AlertClass::Failure;
        self.pair_all -= 1;
        self.pair_failure -= u32::from(failure);
        let refs = &mut self.type_refs[type_index(ty)];
        *refs = refs.checked_sub(1).expect("removing a counted type");
        if *refs == 0 {
            self.distinct_all -= 1;
            self.distinct_failure -= u32::from(failure);
        }
    }

    /// Upper-bound threshold check for any component inside the region.
    fn could_meet(&self, thresholds: &Thresholds, counting: CountingMode) -> bool {
        match counting {
            CountingMode::TypeDistinct => {
                thresholds.is_met(self.distinct_failure, self.distinct_all)
            }
            CountingMode::TypeAndLocation => thresholds.is_met(self.pair_failure, self.pair_all),
        }
    }
}

/// The incremental path's per-location dense state (one per interned id);
/// every field is [`NONE`] when unset.
#[derive(Debug, Clone, Copy)]
struct LocSlots {
    /// Position of this id in `active` — O(1) membership probes and
    /// swap-removal for the expiry wheel.
    active: u32,
    /// For a region id: its index in `region_counts`.
    region: u32,
    /// Grouping scratch, for a parent id: the position of its first deep
    /// child seen this tick. Reset before the tick ends.
    sibling: u32,
}

impl LocSlots {
    const UNSET: LocSlots = LocSlots {
        active: NONE,
        region: NONE,
        sibling: NONE,
    };
}

/// The locator: feed it time-ordered structured alerts, collect finished
/// incidents.
pub struct Locator {
    cfg: LocatorConfig,
    /// The topology's interner, extended in place with any off-topology
    /// locations the flood mentions (e.g. probe pseudo-devices).
    interner: LocationInterner,
    /// How many ids the interner held at construction (the topology base);
    /// ids at or beyond this are stream growth that snapshots must carry.
    base_locs: usize,
    /// The main alert tree as an arena indexed by `LocId`.
    main: Vec<Node>,
    /// Ids of main-tree nodes that currently hold alerts (no duplicates;
    /// pruned on expiry).
    active: Vec<LocId>,
    open: Vec<OpenIncident>,
    completed: Vec<Incident>,
    next_check: SimTime,
    next_id: u32,
    /// Location pairs directly connected by a topology link, as sorted
    /// per-location neighbor lists in CSR form: the neighbors of id `i` are
    /// `adjacency[adjacency_start[i]..adjacency_start[i + 1]]`. Covers the
    /// topology base only — a location interned later has no links.
    adjacency_start: Vec<u32>,
    adjacency: Vec<LocId>,
    /// Dense per-location state of the incremental path, indexed by `LocId`.
    slots: Vec<LocSlots>,
    /// Expiry wheel: (location, type) entries bucketed by the tick-time at
    /// which they expire (`last_seen + node_timeout`). A refreshed alert is
    /// re-bucketed on insert; earlier buckets then hold stale entries that
    /// the drain skips by re-checking the live timestamp.
    wheel: BTreeMap<SimTime, Vec<(LocId, AlertType)>>,
    /// Delta-maintained per-region tallies gating incident generation, one
    /// per region seen so far (`LocSlots::region` maps a region id here).
    region_counts: Vec<RegionCounts>,
    /// Algorithm 2's grouping buffers, reused across ticks.
    grouping: Grouping,
    /// Set when the active alert set changed structurally (new type,
    /// activation, eviction) or an incident finalized — the only events
    /// that can change what Algorithm 2 produces. Unchanged ticks skip
    /// incident generation entirely.
    dirty: bool,
    /// Expiry-wheel evictions, when wired to an observability registry.
    evictions: Option<Counter>,
}

impl std::fmt::Debug for Locator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Locator")
            .field("main_nodes", &self.active.len())
            .field("open_incidents", &self.open.len())
            .field("completed", &self.completed.len())
            .finish_non_exhaustive()
    }
}

impl Locator {
    /// Builds a locator over a topology (used for link-connectivity
    /// grouping).
    pub fn new(topo: &Arc<Topology>, cfg: LocatorConfig) -> Self {
        let interner = (**topo.interner()).clone();
        let mut linked: HashSet<(LocId, LocId)> = HashSet::new();
        if cfg.use_topology_connectivity {
            for link in topo.links() {
                let (Some(da), Some(db)) = (link.a.device(), link.b.device()) else {
                    continue;
                };
                let la = topo.device_loc(da);
                let lb = topo.device_loc(db);
                // Adjacency grouping is scoped within a region: failures
                // are reported per region (the paper's five-region DDoS
                // produced five incidents, §5.1), so inter-region WAN
                // links do not merge incident scopes.
                if interner.ancestor_at_depth(la, 1) != interner.ancestor_at_depth(lb, 1) {
                    continue;
                }
                for pa in interner.ancestors(la) {
                    for pb in interner.ancestors(lb) {
                        if pa != pb {
                            linked.insert((pa.min(pb), pa.max(pb)));
                        }
                    }
                }
            }
        }
        let base_locs = interner.len();
        let mut directed: Vec<(LocId, LocId)> = linked
            .into_iter()
            .flat_map(|(a, b)| [(a, b), (b, a)])
            .collect();
        directed.sort_unstable();
        let mut adjacency_start = vec![0u32; base_locs + 1];
        for &(from, _) in &directed {
            adjacency_start[from.index() + 1] += 1;
        }
        for i in 0..base_locs {
            adjacency_start[i + 1] += adjacency_start[i];
        }
        let adjacency = directed.into_iter().map(|(_, to)| to).collect();
        Locator {
            cfg,
            main: vec![Node::default(); base_locs],
            slots: vec![LocSlots::UNSET; base_locs],
            interner,
            base_locs,
            active: Vec::new(),
            open: Vec::new(),
            completed: Vec::new(),
            next_check: SimTime::ZERO,
            next_id: 0,
            adjacency_start,
            adjacency,
            wheel: BTreeMap::new(),
            region_counts: Vec::new(),
            grouping: Grouping::default(),
            dirty: false,
            evictions: None,
        }
    }

    /// Topology neighbors of a location, sorted by id.
    fn neighbors(&self, loc: LocId) -> &[LocId] {
        match self.adjacency_start.get(loc.index()..=loc.index() + 1) {
            Some(&[start, end]) => &self.adjacency[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Grows the per-location arenas to cover every interned id.
    fn cover_interned(&mut self) {
        if self.main.len() < self.interner.len() {
            self.main.resize_with(self.interner.len(), Node::default);
            self.slots.resize(self.interner.len(), LocSlots::UNSET);
        }
    }

    /// The tallies of `loc`'s region, created on first use.
    fn region_counts_mut(&mut self, loc: LocId) -> &mut RegionCounts {
        let slot = &mut self.slots[self.interner.region_of(loc).index()].region;
        if *slot == NONE {
            *slot = self.region_counts.len() as u32;
            self.region_counts.push(RegionCounts::new());
        }
        &mut self.region_counts[*slot as usize]
    }

    /// Wires the locator's counters (expiry-wheel evictions) into an
    /// observability registry. Eviction counts are content-determined and
    /// tick-aligned, so they are identical at any shard count.
    pub fn with_observability(mut self, obs: &Observability) -> Self {
        self.evictions = Some(obs.registry().counter(
            "skynet_wheel_evictions_total",
            "Main-tree alerts expired via the locator's expiry wheel",
        ));
        self
    }

    /// Algorithm 1: routes an alert into any covering incident tree, and
    /// always into the main tree. Advances the clock to the alert's time
    /// *before* inserting, so pending expiry checks never see alerts from
    /// their future. The alert's location is resolved to a [`LocId`] here,
    /// once; everything downstream runs on ids.
    ///
    /// # Panics
    /// Panics on an alert located at the network root — the ingestion guard
    /// rejects those as off-topology before they can reach the locator.
    pub fn insert(&mut self, alert: &StructuredAlert) {
        self.advance(alert.last_seen);
        let loc = self.interner.intern(&alert.location);
        for incident in &mut self.open {
            if self.interner.contains(incident.root, loc) {
                incident.add(loc, alert);
                break;
            }
        }
        self.cover_interned();
        let node = &mut self.main[loc.index()];
        let was_empty = node.alerts.is_empty();
        let new_type = !node.alerts.contains_key(&alert.ty);
        node.add(alert);
        // The alert's effective timestamp after absorption drives its
        // expiry bucket.
        let last_seen = node.alerts[&alert.ty].last_seen;
        if was_empty {
            self.active.push(loc);
        }
        if self.cfg.maintenance == MaintenanceMode::Incremental {
            if was_empty {
                self.slots[loc.index()].active = (self.active.len() - 1) as u32;
            }
            if new_type {
                self.region_counts_mut(loc).add(alert.ty);
                // A refreshed (absorbed) alert cannot change what
                // Algorithm 2 produces; a new (location, type) pair can.
                self.dirty = true;
            }
            self.wheel
                .entry(last_seen + self.cfg.node_timeout)
                .or_default()
                .push((loc, alert.ty));
        }
    }

    /// Runs any due Algorithm 2/3 checks up to `now`.
    pub fn advance(&mut self, now: SimTime) {
        // A zero interval (from a hand-written config) must not loop
        // forever; clamp to the finest representable cadence.
        let step = self.cfg.check_interval.max(SimDuration::from_millis(1));
        while self.next_check <= now {
            let at = self.next_check;
            self.check_trees(at);
            self.generate_trees(at);
            self.next_check += step;
        }
    }

    /// Algorithm 3: expire main-tree alerts and finalize idle incidents.
    fn check_trees(&mut self, now: SimTime) {
        match self.cfg.maintenance {
            MaintenanceMode::Incremental => self.expire_wheel(now),
            MaintenanceMode::Rescan => self.expire_rescan(now),
        }

        let idle = self.cfg.incident_timeout;
        let is_idle = |i: &OpenIncident| now.since(i.update_time) > idle;
        if self.open.iter().any(is_idle) {
            for incident in std::mem::take(&mut self.open) {
                if is_idle(&incident) {
                    self.completed.push(incident.into_incident(&self.interner));
                } else {
                    self.open.push(incident);
                }
            }
            // A finalized incident no longer covers its root, so a later
            // carve at (or under) that root becomes possible again.
            self.dirty = true;
        }
    }

    /// Rescan-mode expiry: full `retain` over every active node's alerts.
    fn expire_rescan(&mut self, now: SimTime) {
        let timeout = self.cfg.node_timeout;
        let main = &mut self.main;
        self.active.retain(|&id| {
            let node = &mut main[id.index()];
            node.alerts.retain(|_, a| now.since(a.last_seen) <= timeout);
            !node.alerts.is_empty()
        });
    }

    /// Incremental-mode expiry: drain wheel buckets strictly before `now`.
    /// An alert is alive iff `now.since(last_seen) <= timeout`, i.e. its
    /// bucket `last_seen + timeout` has not passed — so the exact-timeout
    /// boundary is kept, matching the rescan semantics. Entries whose live
    /// timestamp was refreshed since bucketing are skipped here; their
    /// fresher bucket is still pending. O(evictions), not O(active).
    fn expire_wheel(&mut self, now: SimTime) {
        let timeout = self.cfg.node_timeout;
        while let Some(entry) = self.wheel.first_entry() {
            if *entry.key() >= now {
                break;
            }
            for (loc, ty) in entry.remove() {
                let node = &mut self.main[loc.index()];
                let Some(alert) = node.alerts.get(&ty) else {
                    continue; // already evicted (stale duplicate entry)
                };
                if now.since(alert.last_seen) <= timeout {
                    continue; // refreshed; a later bucket holds it
                }
                node.alerts.remove(&ty);
                let now_empty = node.alerts.is_empty();
                self.region_counts_mut(loc).remove(ty);
                if let Some(counter) = &self.evictions {
                    counter.inc();
                }
                self.dirty = true;
                if now_empty {
                    let idx = std::mem::replace(&mut self.slots[loc.index()].active, NONE);
                    assert_ne!(idx, NONE, "active node is indexed");
                    self.active.swap_remove(idx as usize);
                    if let Some(&moved) = self.active.get(idx as usize) {
                        self.slots[moved.index()].active = idx;
                    }
                }
            }
        }
    }

    /// True when two alerting locations belong to the same failure scope:
    /// one contains the other, they are close siblings (devices of one
    /// cluster, clusters of one site, sites of one logic site — they share
    /// local fabric), or the topology has a direct link between them.
    /// Siblings above the site level (cities, regions) are *not*
    /// auto-connected, and neither are cross-branch locations without a
    /// link — Fig. 5c's device-n isolation.
    fn connected(&self, a: LocId, b: LocId) -> bool {
        self.interner.contains(a, b)
            || self.interner.contains(b, a)
            || (self.interner.depth(a) >= LocationLevel::Site.depth()
                && self.interner.parent(a) == self.interner.parent(b))
            || self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Counts `(failure_types, all_types)` for a set of nodes under the
    /// configured counting mode.
    fn count_component(&self, locations: &[LocId]) -> (u32, u32) {
        match self.cfg.counting {
            CountingMode::TypeDistinct => {
                let mut types = TypeSet::default();
                for &loc in locations {
                    for &ty in self.main[loc.index()].alerts.keys() {
                        types.insert(ty);
                    }
                }
                types.counts()
            }
            CountingMode::TypeAndLocation => {
                let mut failure = 0u32;
                let mut all = 0u32;
                for &loc in locations {
                    let node = &self.main[loc.index()];
                    all += node.alerts.len() as u32;
                    failure += node
                        .alerts
                        .keys()
                        .filter(|t| t.class() == AlertClass::Failure)
                        .count() as u32;
                }
                (failure, all)
            }
        }
    }

    /// Algorithm 2: group alerting nodes into connected components and turn
    /// threshold-crossing components into incident trees.
    fn generate_trees(&mut self, _now: SimTime) {
        // Incremental mode, nothing structural changed since the last tick:
        // the grouping, counts and quorum roots are all unchanged, and
        // every carveable incident was already carved — a rerun would be a
        // pure no-op.
        if self.cfg.maintenance == MaintenanceMode::Incremental && !std::mem::take(&mut self.dirty)
        {
            return;
        }
        let mut grouping = std::mem::take(&mut self.grouping);
        match self.cfg.maintenance {
            MaintenanceMode::Incremental => self.group_incremental(&mut grouping),
            MaintenanceMode::Rescan => self.group_rescan(&mut grouping),
        }
        self.carve_components(&mut grouping);
        self.grouping = grouping;
    }

    /// Rescan-mode grouping: the original O(n²) pairwise union-find.
    fn group_rescan(&self, grouping: &mut Grouping) {
        let locations = &self.active;
        let n = locations.len();
        grouping.reset(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if self.connected(locations[i], locations[j]) {
                    union(&mut grouping.parent, i, j);
                }
            }
        }
        grouping.collect(locations, &self.interner, |_| true);
    }

    /// True when the delta-maintained counts of `loc`'s region could meet
    /// the thresholds.
    fn region_could_meet(&self, loc: LocId) -> bool {
        let slot = self.slots[self.interner.region_of(loc).index()].region;
        slot != NONE
            && self.region_counts[slot as usize].could_meet(&self.cfg.thresholds, self.cfg.counting)
    }

    /// Incremental-mode grouping: regions whose delta-maintained counts
    /// cannot meet the thresholds are skipped outright (components never
    /// cross regions), and the surviving nodes are grouped with linear
    /// probes of the dense slots — active strict ancestors for containment
    /// edges, a first-child-per-parent slot for deep-sibling edges, and
    /// per-location neighbor lists for topology adjacency. The edge set is
    /// exactly [`Locator::connected`]'s, so the partition is identical.
    fn group_incremental(&mut self, grouping: &mut Grouping) {
        let n = self.active.len();
        grouping.reset(n);
        for i in 0..n {
            let loc = self.active[i];
            if !self.region_could_meet(loc) {
                continue;
            }
            // Containment: a distinct active pair has a containment edge
            // iff one is a strict ancestor of the other.
            for anc in self.interner.strict_ancestors(loc) {
                let j = self.slots[anc.index()].active;
                if j != NONE {
                    union(&mut grouping.parent, i, j as usize);
                }
            }
            // Deep siblings (devices of a cluster, clusters of a site,
            // sites of a logic site): equal parents imply equal depth, so
            // joining each deep node to its parent's first-seen child
            // yields exactly the pairwise sibling edges.
            if self.interner.depth(loc) >= LocationLevel::Site.depth() {
                if let Some(p) = self.interner.parent(loc) {
                    match self.slots[p.index()].sibling {
                        NONE => self.slots[p.index()].sibling = i as u32,
                        first => union(&mut grouping.parent, i, first as usize),
                    }
                }
            }
            // Topology adjacency, via the precomputed neighbor lists. They
            // are symmetric, so each edge is taken from its later endpoint
            // only (`NONE` is above every position).
            for nb in self.neighbors(loc) {
                let j = self.slots[nb.index()].active as usize;
                if j < i {
                    union(&mut grouping.parent, i, j);
                }
            }
        }
        for &loc in &self.active {
            if let Some(p) = self.interner.parent(loc) {
                self.slots[p.index()].sibling = NONE;
            }
        }
        grouping.collect(&self.active, &self.interner, |loc| {
            self.region_could_meet(loc)
        });
    }

    /// Shared carve loop: cuts threshold-crossing incident trees out of
    /// each component, in the grouping's deterministic order.
    fn carve_components(&mut self, grouping: &mut Grouping) {
        let Grouping {
            components,
            members,
            remaining,
            ..
        } = grouping;
        for component in components.iter() {
            remaining.clear();
            remaining.extend_from_slice(&members[component.start..component.start + component.len]);
            // A component may host several incidents once quorum rooting
            // excludes outliers (e.g. two attacked sites bridged by a
            // shared parent): keep carving incidents out of the remainder
            // until the leftovers stop meeting the thresholds.
            loop {
                let (failure, all) = self.count_component(remaining);
                if remaining.is_empty() || !self.cfg.thresholds.is_met(failure, all) {
                    break;
                }
                let Some(root) = self.quorum_root(remaining) else {
                    break;
                };
                // Only nodes under the root join this incident; quorum
                // outliers stay for the next carve (or expire) — Fig. 5c's
                // device-n separation.
                let locs: Vec<LocId> = remaining
                    .iter()
                    .copied()
                    .filter(|&l| self.interner.contains(root, l))
                    .collect();
                let before = remaining.len();
                let interner = &self.interner;
                remaining.retain(|&l| !interner.contains(root, l));
                if remaining.len() == before {
                    break; // no progress; defensive
                }
                // Skip roots already covered by an open incident (their
                // alerts were routed there by Algorithm 1).
                if self
                    .open
                    .iter()
                    .any(|i| self.interner.contains(i.root, root))
                {
                    continue;
                }
                self.create_incident(root, &locs);
            }
        }
    }

    /// Creates one incident tree rooted at `root` over the given alerting
    /// locations, absorbing any open incidents strictly inside the root.
    fn create_incident(&mut self, root: LocId, locs: &[LocId]) {
        // Growth upward: absorb open incidents strictly inside us.
        let mut nodes: HashMap<LocId, Node> = HashMap::new();
        let mut update_time = SimTime::ZERO;
        let mut absorbed_ids = Vec::new();
        let interner = &self.interner;
        self.open.retain_mut(|i| {
            if interner.contains(root, i.root) {
                for (loc, node) in i.nodes.drain() {
                    let target = nodes.entry(loc).or_default();
                    for alert in node.alerts.values() {
                        target.add(alert);
                    }
                }
                update_time = update_time.max_of(i.update_time);
                absorbed_ids.push(i.id);
                false
            } else {
                true
            }
        });
        // Replicate the component's subtree from the main tree
        // ("the subtree beneath the node is replicated").
        for &loc in locs {
            let node = &self.main[loc.index()];
            let target = nodes.entry(loc).or_default();
            for alert in node.alerts.values() {
                target.add(alert);
                update_time = update_time.max_of(alert.last_seen);
            }
        }
        let id = absorbed_ids.into_iter().min().unwrap_or_else(|| {
            let id = IncidentId(self.next_id);
            self.next_id += 1;
            id
        });
        self.open.push(OpenIncident {
            id,
            root,
            nodes,
            update_time,
        });
    }

    /// The deepest prefix covering at least `root_quorum` of the
    /// component's distinct alert types while still meeting the incident
    /// thresholds; the component's deepest common ancestor always
    /// qualifies, so a root always exists. `None` is the incremental
    /// path's verdict that carving `locs` cannot change anything (see
    /// [`Locator::quorum_root_rollup`]); the rescan oracle never gives it.
    fn quorum_root(&self, locs: &[LocId]) -> Option<LocId> {
        match self.cfg.maintenance {
            MaintenanceMode::Incremental => self.quorum_root_rollup(locs),
            MaintenanceMode::Rescan => Some(self.quorum_root_rescan(locs)),
        }
    }

    /// Incremental quorum rooting: one pass over the members rolls their
    /// type sets and pair counts up the O(1) ancestor arrays, so each
    /// candidate is then judged by a map lookup instead of a member
    /// re-scan. Candidate set, ordering and verdicts match
    /// [`Locator::quorum_root_rescan`] exactly.
    ///
    /// Covered-remainder skip: every root this can return lies inside the
    /// members' deepest common ancestor (candidates are filtered by it, the
    /// fallback is it), and each later carve of the same component works on
    /// a subset, whose common ancestor lies inside this one. So once an open
    /// incident's root contains it, every remaining carve would end in the
    /// carve loop's covered-root `continue` and mutate nothing: `None`
    /// stops the component before any rollup is built.
    fn quorum_root_rollup(&self, locs: &[LocId]) -> Option<LocId> {
        let (&first, rest) = locs.split_first().expect("quorum_root needs members");
        let mut dca = first;
        for &l in rest {
            // Connectivity is region-scoped, so every component shares a
            // region and the fold can never reach the network root.
            dca = self
                .interner
                .common_ancestor(dca, l)
                .expect("components never span regions");
        }
        if self
            .open
            .iter()
            .any(|i| self.interner.contains(i.root, dca))
        {
            return None;
        }

        #[derive(Default)]
        struct Rollup {
            types: TypeSet,
            pair_all: u32,
            pair_failure: u32,
        }
        let mut rollups: HashMap<LocId, Rollup> = HashMap::new();
        let mut total = TypeSet::default();
        for &l in locs {
            let alerts = &self.main[l.index()].alerts;
            let mut types = TypeSet::default();
            for &ty in alerts.keys() {
                types.insert(ty);
            }
            total.union_with(&types);
            let (failures, _) = types.counts();
            // A member contributes to every candidate that contains it —
            // exactly its ancestors (itself included) inside the dca.
            for &anc in self.interner.ancestor_slice(l) {
                if !self.interner.contains(dca, anc) {
                    continue;
                }
                let roll = rollups.entry(anc).or_default();
                roll.types.union_with(&types);
                roll.pair_all += alerts.len() as u32;
                roll.pair_failure += failures;
            }
        }
        let needed = (f64::from(total.counts().1) * self.cfg.root_quorum).ceil() as u32;

        let mut candidates: Vec<LocId> = rollups.keys().copied().collect();
        candidates.sort_by(|&a, &b| {
            self.interner
                .depth(b)
                .cmp(&self.interner.depth(a))
                .then_with(|| self.interner.cmp(a, b))
        });

        for candidate in candidates {
            let roll = &rollups[&candidate];
            let distinct = roll.types.counts();
            if distinct.1 < needed {
                continue;
            }
            let (failure, all) = match self.cfg.counting {
                CountingMode::TypeDistinct => distinct,
                CountingMode::TypeAndLocation => (roll.pair_failure, roll.pair_all),
            };
            if self.cfg.thresholds.is_met(failure, all) {
                return Some(candidate);
            }
        }
        Some(dca)
    }

    /// Rescan quorum rooting: per-candidate member scans (the oracle).
    fn quorum_root_rescan(&self, locs: &[LocId]) -> LocId {
        let (&first, rest) = locs.split_first().expect("quorum_root needs members");
        let mut dca = first;
        for &l in rest {
            // Connectivity is region-scoped, so every component shares a
            // region and the fold can never reach the network root.
            dca = self
                .interner
                .common_ancestor(dca, l)
                .expect("components never span regions");
        }
        let type_sets: Vec<(LocId, HashSet<AlertType>)> = locs
            .iter()
            .map(|&l| {
                let types = self.main[l.index()].alerts.keys().copied().collect();
                (l, types)
            })
            .collect();
        let total: HashSet<AlertType> = type_sets
            .iter()
            .flat_map(|(_, t)| t.iter().copied())
            .collect();
        let needed = ((total.len() as f64) * self.cfg.root_quorum).ceil() as usize;

        let mut candidates: Vec<LocId> = locs
            .iter()
            .flat_map(|&l| self.interner.ancestors(l))
            .filter(|&c| self.interner.contains(dca, c))
            .collect();
        candidates.sort_by(|&a, &b| {
            self.interner
                .depth(b)
                .cmp(&self.interner.depth(a))
                .then_with(|| self.interner.cmp(a, b))
        });
        candidates.dedup();

        for candidate in candidates {
            let covered: HashSet<AlertType> = type_sets
                .iter()
                .filter(|&&(l, _)| self.interner.contains(candidate, l))
                .flat_map(|(_, t)| t.iter().copied())
                .collect();
            if covered.len() < needed {
                continue;
            }
            let covered_locs: Vec<LocId> = locs
                .iter()
                .copied()
                .filter(|&l| self.interner.contains(candidate, l))
                .collect();
            let (failure, all) = self.count_component(&covered_locs);
            if self.cfg.thresholds.is_met(failure, all) {
                return candidate;
            }
        }
        dca
    }

    /// Flushes everything: finalizes all open incidents (used at end of a
    /// batch run).
    pub fn finish(&mut self) {
        let interner = &self.interner;
        let completed = &mut self.completed;
        for incident in self.open.drain(..) {
            completed.push(incident.into_incident(interner));
        }
        self.clear_main_tree();
        self.dirty = false;
    }

    /// Empties the main tree together with its derived state.
    fn clear_main_tree(&mut self) {
        for &id in &self.active {
            self.main[id.index()].alerts.clear();
            self.slots[id.index()].active = NONE;
        }
        self.active.clear();
        self.wheel.clear();
        for slot in &mut self.slots {
            slot.region = NONE;
        }
        self.region_counts.clear();
    }

    /// Takes the finished incidents accumulated so far.
    pub fn take_completed(&mut self) -> Vec<Incident> {
        std::mem::take(&mut self.completed)
    }

    /// Captures the mid-flood state for a warm restart (see
    /// [`LocatorState`] for exactly what is carried vs. rebuilt).
    pub fn snapshot_state(&self) -> LocatorState {
        let node_state = |loc: LocId, node: &Node| {
            let mut alerts: Vec<StructuredAlert> = node.alerts.values().cloned().collect();
            // Left as `sort_by`: the by-key form the lint asks for read +7 %
            // on `analyze_s`, 16 pairs of 16 (EXPERIMENTS.md, last section).
            #[allow(clippy::unnecessary_sort_by)]
            alerts.sort_by(|a, b| a.ty.cmp(&b.ty));
            NodeState {
                loc: loc.index() as u32,
                alerts,
            }
        };
        LocatorState {
            base_locs: self.base_locs,
            extra_paths: (self.base_locs..self.interner.len())
                .map(|i| self.interner.path(LocId::from_index(i)).clone())
                .collect(),
            active: self.active.iter().map(|l| l.index() as u32).collect(),
            main: self
                .active
                .iter()
                .map(|&l| node_state(l, &self.main[l.index()]))
                .collect(),
            open: self
                .open
                .iter()
                .map(|i| {
                    let mut nodes: Vec<NodeState> =
                        i.nodes.iter().map(|(&l, n)| node_state(l, n)).collect();
                    nodes.sort_by_key(|n| n.loc);
                    OpenIncidentState {
                        id: i.id,
                        root: i.root.index() as u32,
                        nodes,
                        update_time: i.update_time,
                    }
                })
                .collect(),
            completed: self.completed.clone(),
            next_check: self.next_check,
            next_id: self.next_id,
            dirty: self.dirty,
        }
    }

    /// Restores the state captured by [`Locator::snapshot_state`] into a
    /// locator freshly built over the *same* topology and config. The
    /// active index, expiry wheel and region tallies are rebuilt from the
    /// restored alerts; subsequent inserts, ticks and carves behave
    /// exactly as if the process had never stopped.
    ///
    /// # Panics
    /// Panics if this locator's topology base differs from the one the
    /// snapshot was taken over.
    pub fn restore_state(&mut self, state: LocatorState) {
        assert_eq!(
            state.base_locs, self.base_locs,
            "locator restore requires the same topology"
        );
        for path in &state.extra_paths {
            self.interner.intern(path);
        }
        self.cover_interned();
        let as_node = |ns: &NodeState| Node {
            alerts: ns.alerts.iter().map(|a| (a.ty, a.clone())).collect(),
        };
        self.clear_main_tree();
        self.active = state
            .active
            .iter()
            .map(|&i| LocId::from_index(i as usize))
            .collect();
        for ns in &state.main {
            self.main[ns.loc as usize] = as_node(ns);
        }
        self.open = state
            .open
            .iter()
            .map(|o| OpenIncident {
                id: o.id,
                root: LocId::from_index(o.root as usize),
                nodes: o
                    .nodes
                    .iter()
                    .map(|ns| (LocId::from_index(ns.loc as usize), as_node(ns)))
                    .collect(),
                update_time: o.update_time,
            })
            .collect();
        self.completed = state.completed;
        self.next_check = state.next_check;
        self.next_id = state.next_id;
        self.dirty = state.dirty;
        if self.cfg.maintenance == MaintenanceMode::Incremental {
            for (idx, &loc) in self.active.iter().enumerate() {
                self.slots[loc.index()].active = idx as u32;
            }
            for ns in &state.main {
                let loc = LocId::from_index(ns.loc as usize);
                for alert in &ns.alerts {
                    self.region_counts_mut(loc).add(alert.ty);
                    self.wheel
                        .entry(alert.last_seen + self.cfg.node_timeout)
                        .or_default()
                        .push((loc, alert.ty));
                }
            }
        }
    }

    /// Number of currently open incident trees.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Roots of the currently open incident trees.
    pub fn open_roots(&self) -> Vec<LocationPath> {
        self.open
            .iter()
            .map(|i| self.interner.path(i.root).clone())
            .collect()
    }

    /// Convenience: run a whole time-ordered batch through Algorithms 1–3
    /// and return every incident.
    pub fn process_batch(&mut self, alerts: &[StructuredAlert], horizon: SimTime) -> Vec<Incident> {
        for alert in alerts {
            self.insert(alert);
        }
        self.advance(horizon);
        self.finish();
        let mut incidents = self.take_completed();
        incidents.sort_by_key(|i| (i.first_seen, i.id));
        incidents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skynet_model::{AlertKind, DataSource, RawAlert};
    use skynet_topology::{generate, GeneratorConfig};

    fn topo() -> Arc<Topology> {
        Arc::new(generate(&GeneratorConfig::small()))
    }

    fn alert(
        source: DataSource,
        kind: AlertKind,
        secs: u64,
        location: &LocationPath,
    ) -> StructuredAlert {
        let raw = RawAlert::known(source, SimTime::from_secs(secs), location.clone(), kind);
        StructuredAlert::from_raw(&raw, kind)
    }

    fn site(t: &Topology) -> LocationPath {
        t.clusters()[0].parent()
    }

    #[test]
    fn two_failure_types_make_an_incident() {
        let t = topo();
        let mut loc = Locator::new(&t, LocatorConfig::default());
        let s = site(&t);
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, 10, &s));
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossTcp, 20, &s));
        loc.advance(SimTime::from_secs(40));
        assert_eq!(loc.open_count(), 1);
        assert_eq!(loc.open_roots()[0], s);
    }

    #[test]
    fn one_failure_type_repeated_does_not_trigger() {
        let t = topo();
        let mut loc = Locator::new(&t, LocatorConfig::default());
        let s = site(&t);
        for i in 0..20 {
            loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, i, &s));
        }
        loc.advance(SimTime::from_secs(60));
        assert_eq!(loc.open_count(), 0, "same type counts once");
    }

    #[test]
    fn type_and_location_mode_counts_locations_separately() {
        let t = topo();
        let cfg = LocatorConfig {
            counting: CountingMode::TypeAndLocation,
            ..LocatorConfig::default()
        };
        let mut loc = Locator::new(&t, cfg);
        // A buggy probe raises the same single kind on five sibling devices
        // of one cluster (the §4.2 false-alarm anecdote).
        let cluster = t.clusters()[0].clone();
        let devices: Vec<LocationPath> = t
            .agg_group(&cluster)
            .iter()
            .map(|&d| t.device(d).location.clone())
            .chain([cluster.child("probe-1"), cluster.child("probe-2")])
            .take(5)
            .collect();
        assert_eq!(devices.len(), 5);
        for (i, d) in devices.iter().enumerate() {
            loc.insert(&alert(DataSource::Snmp, AlertKind::HighCpu, i as u64, d));
        }
        loc.advance(SimTime::from_secs(60));
        // Five (type, location) pairs cross the any-5 threshold even though
        // it is a single type — the false-positive mode of Fig. 9.
        assert!(loc.open_count() >= 1);

        let mut strict = Locator::new(&t, LocatorConfig::default());
        for (i, d) in devices.iter().enumerate() {
            strict.insert(&alert(DataSource::Snmp, AlertKind::HighCpu, i as u64, d));
        }
        strict.advance(SimTime::from_secs(60));
        assert_eq!(strict.open_count(), 0, "type-distinct counting resists");
    }

    #[test]
    fn disconnected_groups_become_separate_incidents() {
        let t = topo();
        let mut loc = Locator::new(&t, LocatorConfig::default());
        // Group 1 in Region-0, group 2 in Region-1: never connected.
        let s1 = t
            .clusters()
            .iter()
            .find(|c| c.segments()[0].as_ref() == "Region-0")
            .unwrap()
            .clone();
        let s2 = t
            .clusters()
            .iter()
            .find(|c| c.segments()[0].as_ref() == "Region-1")
            .unwrap()
            .clone();
        for (i, kind) in [
            AlertKind::PacketLossIcmp,
            AlertKind::PacketLossTcp,
            AlertKind::LinkDown,
        ]
        .iter()
        .enumerate()
        {
            loc.insert(&alert(DataSource::Ping, *kind, i as u64 * 5, &s1));
            loc.insert(&alert(DataSource::Ping, *kind, i as u64 * 5 + 1, &s2));
        }
        loc.advance(SimTime::from_secs(60));
        assert_eq!(loc.open_count(), 2, "roots: {:?}", loc.open_roots());
        let roots = loc.open_roots();
        assert!(roots.contains(&s1));
        assert!(roots.contains(&s2));
    }

    #[test]
    fn incident_root_is_deepest_common_ancestor() {
        let t = topo();
        let mut loc = Locator::new(&t, LocatorConfig::default());
        // Alerts at two clusters of the same site plus the site itself.
        let c1 = t.clusters()[0].clone();
        let c2 = t.clusters()[1].clone();
        assert_eq!(c1.parent(), c2.parent(), "test expects same-site clusters");
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, 1, &c1));
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossTcp, 2, &c2));
        loc.insert(&alert(
            DataSource::Snmp,
            AlertKind::LinkDown,
            3,
            &c1.parent(),
        ));
        loc.advance(SimTime::from_secs(30));
        assert_eq!(loc.open_count(), 1);
        assert_eq!(loc.open_roots()[0], c1.parent());
    }

    #[test]
    fn incidents_grow_upward_absorbing_contained_ones() {
        let t = topo();
        let mut loc = Locator::new(&t, LocatorConfig::default());
        let c1 = t.clusters()[0].clone();
        // First a cluster-level incident.
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, 1, &c1));
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossTcp, 2, &c1));
        loc.advance(SimTime::from_secs(20));
        assert_eq!(loc.open_roots(), vec![c1.clone()]);
        // Then the failure spreads: a sibling cluster and the site's
        // aggregation layer start alerting, bridging the component, and the
        // incident re-roots at the site.
        let c2 = t.clusters()[1].clone();
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketBitFlip, 30, &c2));
        loc.insert(&alert(
            DataSource::Snmp,
            AlertKind::LinkDown,
            31,
            &c1.parent(),
        ));
        loc.advance(SimTime::from_secs(60));
        assert_eq!(loc.open_count(), 1, "roots: {:?}", loc.open_roots());
        assert_eq!(loc.open_roots()[0], c1.parent());
    }

    #[test]
    fn expired_alerts_leave_the_main_tree() {
        let t = topo();
        let mut loc = Locator::new(&t, LocatorConfig::default());
        let s = site(&t);
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, 0, &s));
        // 6 minutes later (past the 5-minute node timeout) a second failure
        // type arrives; the first has expired, so no incident forms.
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossTcp, 360, &s));
        loc.advance(SimTime::from_secs(400));
        assert_eq!(loc.open_count(), 0);
    }

    #[test]
    fn idle_incidents_finalize_after_timeout() {
        let t = topo();
        let mut loc = Locator::new(&t, LocatorConfig::default());
        let s = site(&t);
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, 10, &s));
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossTcp, 20, &s));
        loc.advance(SimTime::from_secs(60));
        assert_eq!(loc.open_count(), 1);
        // 15 idle minutes later the incident closes.
        loc.advance(SimTime::from_mins(17));
        assert_eq!(loc.open_count(), 0);
        let done = loc.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].root, s);
        assert_eq!(done[0].alerts.len(), 2);
    }

    #[test]
    fn new_alerts_keep_incidents_alive_and_inside() {
        let t = topo();
        let mut loc = Locator::new(&t, LocatorConfig::default());
        let s = site(&t);
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, 10, &s));
        loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossTcp, 20, &s));
        loc.advance(SimTime::from_secs(60));
        // Feed one alert every 10 minutes — under the 15-minute timeout.
        for k in 1..5u64 {
            loc.insert(&alert(
                DataSource::Snmp,
                AlertKind::TrafficCongestion,
                60 + k * 600,
                &s,
            ));
        }
        assert_eq!(loc.open_count(), 1, "kept alive by fresh alerts");
        loc.finish();
        let done = loc.take_completed();
        assert_eq!(done.len(), 1);
        // All alerts routed into the single incident.
        assert!(done[0].alerts.len() >= 3);
    }

    #[test]
    fn quorum_rooting_excludes_single_stray_broad_alerts() {
        let t = topo();
        let mut loc = Locator::new(&t, LocatorConfig::default());
        let cluster = t.clusters()[0].clone();
        // A rich cluster-scoped incident...
        for (i, kind) in [
            AlertKind::PacketLossIcmp,
            AlertKind::PacketLossTcp,
            AlertKind::LinkDown,
            AlertKind::TrafficCongestion,
            AlertKind::HardwareError,
        ]
        .iter()
        .enumerate()
        {
            loc.insert(&alert(DataSource::Snmp, *kind, i as u64, &cluster));
        }
        // ...plus one stray abnormal alert at the whole region.
        let region = cluster.truncate_at(skynet_model::LocationLevel::Region);
        loc.insert(&alert(
            DataSource::Ping,
            AlertKind::LatencyJitter,
            6,
            &region,
        ));
        loc.advance(SimTime::from_secs(60));
        assert_eq!(loc.open_count(), 1);
        assert_eq!(
            loc.open_roots()[0],
            cluster,
            "one stray broad alert must not flatten the root to the region"
        );
    }

    #[test]
    fn dca_rooting_ablation_widens_the_root() {
        let t = topo();
        let cfg = LocatorConfig {
            root_quorum: 1.0,
            ..LocatorConfig::default()
        };
        let mut loc = Locator::new(&t, cfg);
        let cluster = t.clusters()[0].clone();
        for (i, kind) in [
            AlertKind::PacketLossIcmp,
            AlertKind::PacketLossTcp,
            AlertKind::LinkDown,
            AlertKind::TrafficCongestion,
            AlertKind::HardwareError,
        ]
        .iter()
        .enumerate()
        {
            loc.insert(&alert(DataSource::Snmp, *kind, i as u64, &cluster));
        }
        let region = cluster.truncate_at(skynet_model::LocationLevel::Region);
        loc.insert(&alert(
            DataSource::Ping,
            AlertKind::LatencyJitter,
            6,
            &region,
        ));
        loc.advance(SimTime::from_secs(60));
        assert_eq!(loc.open_count(), 1);
        assert_eq!(
            loc.open_roots()[0],
            region,
            "quorum 1.0 reduces to plain deepest-common-ancestor rooting"
        );
    }

    #[test]
    fn process_batch_runs_end_to_end() {
        let t = topo();
        let mut loc = Locator::new(&t, LocatorConfig::default());
        let s = site(&t);
        let alerts = vec![
            alert(DataSource::Ping, AlertKind::PacketLossIcmp, 10, &s),
            alert(DataSource::Ping, AlertKind::PacketLossTcp, 12, &s),
            alert(DataSource::Syslog, AlertKind::HardwareError, 15, &s),
        ];
        let incidents = loc.process_batch(&alerts, SimTime::from_mins(30));
        assert_eq!(incidents.len(), 1);
        assert!(incidents[0].has_class(AlertClass::Failure));
        assert!(incidents[0].has_class(AlertClass::RootCause));
    }

    #[test]
    fn type_sets_index_the_whole_catalog_without_collisions() {
        let mut all = TypeSet::default();
        let mut failures = 0;
        for source in DataSource::ALL {
            for kind in AlertKind::ALL {
                let ty = AlertType::new(source, kind);
                let mut one = TypeSet::default();
                one.insert(ty);
                let failure = u32::from(ty.class() == AlertClass::Failure);
                assert_eq!(one.counts(), (failure, 1), "{ty}");
                failures += failure;
                all.insert(ty);
            }
        }
        assert_eq!(all.counts(), (failures, TYPE_UNIVERSE as u32));
    }

    fn both_modes() -> [LocatorConfig; 2] {
        [
            LocatorConfig::default(),
            LocatorConfig::default().with_maintenance(MaintenanceMode::Rescan),
        ]
    }

    #[test]
    fn alert_aged_exactly_timeout_survives_the_tick() {
        let t = topo();
        for cfg in both_modes() {
            let mode = cfg.maintenance;
            let mut loc = Locator::new(&t, cfg);
            let s = site(&t);
            loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, 0, &s));
            loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossTcp, 299, &s));
            // The 10s check grid lands a tick at exactly t = 300s, where
            // the first alert's age equals the 5-minute timeout — the
            // boundary is inclusive, so the pair still forms an incident.
            loc.advance(SimTime::from_secs(300));
            assert_eq!(loc.open_count(), 1, "mode {mode:?}");
        }
    }

    #[test]
    fn alert_one_tick_past_timeout_expires() {
        let t = topo();
        for cfg in both_modes() {
            let mode = cfg.maintenance;
            let mut loc = Locator::new(&t, cfg);
            let s = site(&t);
            loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, 0, &s));
            loc.advance(SimTime::from_secs(305));
            loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossTcp, 305, &s));
            // The next tick (t = 310s) evicts the first alert — age 310s,
            // one grid step past the timeout — before generation runs, so
            // the lone TCP alert cannot form an incident.
            loc.advance(SimTime::from_secs(310));
            assert_eq!(loc.open_count(), 0, "mode {mode:?}");
        }
    }

    #[test]
    fn refreshed_alerts_survive_their_stale_wheel_entry() {
        let t = topo();
        for cfg in both_modes() {
            let mode = cfg.maintenance;
            let mut loc = Locator::new(&t, cfg);
            let s = site(&t);
            loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, 0, &s));
            // Same type again at t = 200s: absorbed, refreshing last_seen.
            // The wheel still holds the stale t = 300s bucket entry; the
            // drain must skip it instead of evicting the refreshed alert.
            loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, 200, &s));
            loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossTcp, 400, &s));
            loc.advance(SimTime::from_secs(450));
            assert_eq!(loc.open_count(), 1, "mode {mode:?}");
        }
    }

    type DerivedState = (Vec<(LocId, u32)>, Vec<(usize, [u32; 4])>);

    /// The incremental path's derived state in comparable form: each active
    /// id with its indexed position, and the non-empty region tallies by
    /// region id (slot numbering depends on arrival order, so it is not
    /// compared).
    fn derived_state(loc: &Locator) -> DerivedState {
        let active = loc
            .active
            .iter()
            .map(|&l| (l, loc.slots[l.index()].active))
            .collect();
        let regions = loc
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.region != NONE)
            .map(|(i, s)| {
                let c = &loc.region_counts[s.region as usize];
                let tallies = [
                    c.distinct_all,
                    c.distinct_failure,
                    c.pair_all,
                    c.pair_failure,
                ];
                (i, tallies)
            })
            .filter(|(_, tallies)| tallies[2] > 0)
            .collect();
        (active, regions)
    }

    #[test]
    fn locator_state_round_trips_mid_flood() {
        let t = topo();
        for cfg in both_modes() {
            let mode = cfg.maintenance;
            let evicted = |loc: &Locator| loc.evictions.as_ref().unwrap().get();
            let mut live =
                Locator::new(&t, cfg.clone()).with_observability(&Observability::default());
            let c1 = t.clusters()[0].clone();
            let c2 = t.clusters()[1].clone();
            let leaves: Vec<LocationPath> = t
                .agg_group(&c1)
                .iter()
                .map(|&d| t.device(d).location.clone())
                .collect();
            // Off-topology probe device: grows the interner mid-stream, so
            // the snapshot must carry the extra path.
            let probe = c1.child("probe-x");
            live.insert(&alert(DataSource::Ping, AlertKind::PacketLossIcmp, 10, &c1));
            live.insert(&alert(DataSource::Ping, AlertKind::PacketLossTcp, 20, &c1));
            live.insert(&alert(DataSource::Snmp, AlertKind::HighCpu, 25, &probe));
            live.advance(SimTime::from_secs(30));
            assert_eq!(live.open_count(), 1, "mode {mode:?}");
            // The flood goes on under the open incident: the snapshot is
            // taken while it covers live main-tree alerts.
            for (i, leaf) in leaves.iter().enumerate() {
                live.insert(&alert(
                    DataSource::Snmp,
                    AlertKind::LinkDown,
                    40 + i as u64,
                    leaf,
                ));
            }
            live.advance(SimTime::from_secs(60));
            assert_eq!(live.open_roots(), vec![c1.clone()], "mode {mode:?}");
            assert!(live.active.len() >= 3, "mode {mode:?}");

            let state = live.snapshot_state();
            let json = serde_json::to_string(&state).unwrap();
            let mut restored = Locator::new(&t, cfg).with_observability(&Observability::default());
            restored.restore_state(serde_json::from_str(&json).unwrap());
            assert_eq!(restored.open_roots(), live.open_roots(), "mode {mode:?}");
            assert_eq!(
                derived_state(&restored),
                derived_state(&live),
                "mode {mode:?}"
            );
            let evicted_before = evicted(&live);

            // Identical tail, compared tick by tick: more alerts under the
            // open incident, a sibling cluster joining its component (the
            // first carve roots at the covered cluster, the remainder
            // becomes a second incident), the pre-snapshot alerts expiring
            // off the rebuilt wheel, then idle time past both timeouts so
            // everything finalizes.
            for loc in [&mut live, &mut restored] {
                loc.insert(&alert(
                    DataSource::Syslog,
                    AlertKind::HardwareError,
                    65,
                    &leaves[0],
                ));
                loc.insert(&alert(DataSource::Ping, AlertKind::PacketBitFlip, 70, &c2));
                loc.insert(&alert(DataSource::Snmp, AlertKind::LinkDown, 72, &c2));
                loc.insert(&alert(DataSource::Ping, AlertKind::PacketLossTcp, 74, &c2));
            }
            for tick in 7..=240u64 {
                let now = SimTime::from_secs(tick * 10);
                live.advance(now);
                restored.advance(now);
                assert_eq!(
                    restored.open_roots(),
                    live.open_roots(),
                    "{mode:?} tick {tick}"
                );
                assert_eq!(
                    derived_state(&restored),
                    derived_state(&live),
                    "{mode:?} tick {tick}"
                );
                assert_eq!(
                    evicted(&restored),
                    evicted(&live) - evicted_before,
                    "{mode:?} tick {tick}"
                );
            }
            assert!(live.active.is_empty(), "mode {mode:?}");
            if mode == MaintenanceMode::Incremental {
                assert!(evicted(&restored) >= 6, "mode {mode:?}");
            }
            live.finish();
            restored.finish();
            let live_done = live.take_completed();
            let restored_done = restored.take_completed();
            assert_eq!(
                serde_json::to_string(&live_done).unwrap(),
                serde_json::to_string(&restored_done).unwrap(),
                "mode {mode:?}"
            );
            let roots: Vec<&LocationPath> = live_done.iter().map(|i| &i.root).collect();
            assert_eq!(roots, [&c1, &c2], "mode {mode:?}");
        }
    }

    /// A small LCG: seeded, hand-rolled streams for the differential tests.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.next() as usize % items.len()]
        }
    }

    /// Every location at or under `scope` that holds a device, plus the
    /// cluster level above the devices.
    fn pool(t: &Topology, scope: &LocationPath) -> Vec<LocationPath> {
        let mut pool: Vec<LocationPath> = t
            .devices_under(scope)
            .flat_map(|d| [d.location.clone(), d.location.parent()])
            .filter(|l| scope.contains(l))
            .collect();
        pool.sort();
        pool.dedup();
        pool
    }

    #[test]
    fn incremental_and_rescan_agree_tick_by_tick_around_open_incidents() {
        let t = Arc::new(generate(&GeneratorConfig::medium()));
        let site_a = t.clusters()[0].parent();
        let logic = site_a.parent();
        let city = logic.parent();
        let region = city.parent();
        // The sibling site under the same logic site, and a site of the
        // same region in another city.
        let site_a2 = t
            .clusters()
            .iter()
            .map(|c| c.parent())
            .find(|s| s.parent() == logic && *s != site_a)
            .unwrap();
        let site_b = t
            .clusters()
            .iter()
            .map(|c| c.parent())
            .find(|s| region.contains(s) && !city.contains(s))
            .unwrap();
        let (pool_a, pool_a2, pool_b) = (pool(&t, &site_a), pool(&t, &site_a2), pool(&t, &site_b));
        let kinds_a = [
            AlertKind::PacketLossIcmp,
            AlertKind::PacketLossTcp,
            AlertKind::LinkDown,
            AlertKind::TrafficCongestion,
            AlertKind::HardwareError,
        ];
        let kinds_lift = [
            AlertKind::PacketBitFlip,
            AlertKind::LatencyJitter,
            AlertKind::DeviceInaccessible,
            AlertKind::PortDown,
            AlertKind::BgpPeerDown,
            AlertKind::HighCpu,
        ];
        let sources = [DataSource::Ping, DataSource::Snmp, DataSource::Syslog];

        // One alert list, time-ordered by construction (one pass over the
        // seconds), fed to both modes.
        let mut rng = Lcg(0x5eed);
        let mut script: Vec<StructuredAlert> = Vec::new();
        for sec in 0..2400u64 {
            let mut emit = |pool: &[LocationPath], kinds: &[AlertKind], rng: &mut Lcg| {
                script.push(alert(
                    *rng.pick(&sources),
                    *rng.pick(kinds),
                    sec,
                    rng.pick(pool),
                ));
            };
            match sec {
                // (a) a flood under site A: an incident opens within the
                // first ticks and the flood keeps landing under it; (b)
                // from 200 s a second component in the same region, in
                // another city — outside the open root.
                0..=599 => {
                    emit(&pool_a, &kinds_a, &mut rng);
                    if sec >= 200 && sec % 3 == 0 {
                        emit(&pool_b, &kinds_a, &mut rng);
                    }
                }
                // (d) silence past both timeouts, until the last 300 s
                // flood the finalized root again.
                700..=2099 => {}
                // (c) the failure spreads to the sibling site and the
                // logic site with types the flood never showed, so the
                // quorum root lifts above the open root.
                _ => {
                    emit(&pool_a, &kinds_a, &mut rng);
                    emit(&pool_a2, &kinds_lift, &mut rng);
                    if sec % 10 == 0 {
                        emit(std::slice::from_ref(&logic), &kinds_lift, &mut rng);
                    }
                }
            }
        }

        let [mut inc, mut res] = both_modes().map(|cfg| Locator::new(&t, cfg));
        let mut next = 0;
        let mut covered_dirty_ticks = 0;
        let mut saw_sibling_roots = false;
        let mut saw_lift = false;
        let mut saw_reflood = false;
        let mut finished_roots: Vec<LocationPath> = Vec::new();
        let mut last_roots: Vec<LocationPath> = Vec::new();
        for tick in 0..=240u64 {
            let now = SimTime::from_secs(tick * 10);
            covered_dirty_ticks += usize::from(inc.dirty && !inc.open.is_empty());
            inc.advance(now);
            res.advance(now);
            let roots = inc.open_roots();
            assert_eq!(roots, res.open_roots(), "open roots at tick {tick}");
            let done = inc.take_completed();
            assert_eq!(done, res.take_completed(), "completed at tick {tick}");

            saw_sibling_roots |= roots.iter().any(|r| site_a.contains(r))
                && roots.iter().any(|r| site_b.contains(r));
            saw_lift |= roots.iter().any(|r| {
                !last_roots.contains(r)
                    && last_roots
                        .iter()
                        .any(|old| r.is_strict_ancestor_of(old) && !roots.contains(old))
            });
            saw_reflood |= roots.iter().any(|r| finished_roots.contains(r));
            finished_roots.extend(done.into_iter().map(|i| i.root));
            last_roots = roots;

            while next < script.len() && script[next].last_seen < now + SimDuration::from_secs(10) {
                inc.insert(&script[next]);
                res.insert(&script[next]);
                next += 1;
            }
        }
        assert!(
            covered_dirty_ticks >= 50,
            "{covered_dirty_ticks} dirty ticks under an open incident"
        );
        assert!(
            saw_sibling_roots,
            "a second component outside the open root"
        );
        assert!(saw_lift, "a quorum root lifted above an open root");
        assert!(saw_reflood, "a finalized root carved again");
    }

    #[test]
    fn incidents_finalizing_in_one_tick_complete_in_creation_order() {
        let t = topo();
        let c1 = t
            .clusters()
            .iter()
            .find(|c| c.segments()[0].as_ref() == "Region-0")
            .unwrap()
            .clone();
        let c2 = t
            .clusters()
            .iter()
            .find(|c| c.segments()[0].as_ref() == "Region-1")
            .unwrap()
            .clone();
        for cfg in both_modes() {
            let mode = cfg.maintenance;
            let mut loc = Locator::new(&t, cfg);
            for (i, kind) in [AlertKind::PacketLossIcmp, AlertKind::PacketLossTcp]
                .iter()
                .enumerate()
            {
                loc.insert(&alert(DataSource::Ping, *kind, 10 + i as u64, &c1));
                loc.insert(&alert(DataSource::Ping, *kind, 12 + i as u64, &c2));
            }
            loc.advance(SimTime::from_secs(60));
            assert_eq!(loc.open_count(), 2, "mode {mode:?}");
            // Update times 11s and 13s sit in the same 10s grid cell, so
            // one tick (t = 920s) idles both incidents out together; they
            // must complete in creation order (Region-0 before Region-1,
            // ids ascending).
            loc.advance(SimTime::from_mins(60));
            assert_eq!(loc.open_count(), 0, "mode {mode:?}");
            let done = loc.take_completed();
            assert_eq!(done.len(), 2, "mode {mode:?}");
            assert!(done[0].id < done[1].id, "mode {mode:?}");
            assert_eq!(done[0].root, c1, "mode {mode:?}");
            assert_eq!(done[1].root, c2, "mode {mode:?}");
        }
    }
}
